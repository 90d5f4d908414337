//! Regenerates every table and chart of the paper's evaluation (§5 and
//! the §6 extensions; EXPERIMENTS.md, DESIGN.md §4): 19 CSVs and 8 SVGs
//! under `results/`. Run it from the repository root:
//!
//! ```text
//! cargo run --release -p vmqs-bench --bin experiments
//! ```
//!
//! Each table is data: an output path, an optional label column and a
//! list of cells. A cell is one simulated configuration. The driver runs
//! each distinct cell once for every seed in [`SEEDS`], so a cell that
//! several tables share is simulated once, and averages the seeds in
//! seed order. The (cell, seed) runs fan out over scoped threads and are
//! collected by index, so the output does not depend on the thread
//! count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use vmqs_bench::plot::{line_chart, Series};
use vmqs_bench::{average_rows, print_table, SEEDS};
use vmqs_core::Strategy;
use vmqs_microscope::VmOp;
use vmqs_sim::{
    ClientStream, SchedPolicy, SimApplication, SimConfig, Simulator, SubmissionMode, TunerConfig,
};
use vmqs_volume::{generate_volume, VolCostModel, VolOp, VolWorkloadConfig};
use vmqs_workload::{flatten_to_batch, generate, write_csv, ExpRow, WorkloadConfig};

/// The thread counts swept by Fig. 4.
const FIG4_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// The Data Store sizes (MB) swept by Figs. 5–7.
const DS_SWEEP_MB: [u64; 5] = [32, 64, 128, 192, 256];

/// Standard Page Space budget (MB) from §5.
const PS_MB: u64 = 32;

const OPS: [VmOp; 2] = [VmOp::Subsample, VmOp::Average];

const MODES: [(SubmissionMode, &str); 2] = [
    (SubmissionMode::Interactive, "interactive"),
    (SubmissionMode::Batch, "batch"),
];

/// The application a cell runs, with its processing function.
#[derive(Clone, Copy, PartialEq, Debug)]
enum App {
    Vm(VmOp),
    Volume(VolOp),
}

/// The one knob a cell may turn away from the paper's baseline.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ablation {
    /// Queries recompute instead of blocking on executing dependencies.
    NoBlocking,
    /// Page Space run merging off.
    NoPsMerging,
    /// A dequeue policy other than rank order.
    Policy(SchedPolicy),
    /// The hill-climbing tuner adjusts HYBRID's SJF weight online.
    Tuner(TunerConfig),
}

/// One simulated configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Cell {
    app: App,
    strategy: Strategy,
    threads: usize,
    ds_mb: u64,
    ps_mb: u64,
    mode: SubmissionMode,
    ablation: Option<Ablation>,
}

impl Cell {
    /// A paper-workload cell on the Virtual Microscope.
    fn vm(op: VmOp, strategy: Strategy, threads: usize, ds_mb: u64, mode: SubmissionMode) -> Self {
        Cell {
            app: App::Vm(op),
            strategy,
            threads,
            ds_mb,
            ps_mb: PS_MB,
            mode,
            ablation: None,
        }
    }

    fn with(self, ablation: Ablation) -> Self {
        Cell {
            ablation: Some(ablation),
            ..self
        }
    }
}

/// An SVG drawn from a table's rows, one line per strategy.
struct Chart {
    title: String,
    x_label: &'static str,
    y_label: &'static str,
    x: fn(&ExpRow) -> f64,
    y: fn(&ExpRow) -> f64,
}

/// One CSV: its rows are `(label, cell)` in file order; the label is
/// written only when the table has a label column.
struct Table {
    path: String,
    label: Option<&'static str>,
    rows: Vec<(String, Cell)>,
    chart: Option<Chart>,
}

impl Table {
    fn plain(path: impl Into<String>, cells: Vec<Cell>) -> Self {
        Table {
            path: path.into(),
            label: None,
            rows: cells.into_iter().map(|c| (String::new(), c)).collect(),
            chart: None,
        }
    }

    fn labelled(path: impl Into<String>, label: &'static str, rows: Vec<(String, Cell)>) -> Self {
        Table {
            path: path.into(),
            label: Some(label),
            rows,
            chart: None,
        }
    }

    fn header(&self) -> String {
        match self.label {
            Some(label) => format!("{label},{}", ExpRow::csv_header()),
            None => ExpRow::csv_header().to_string(),
        }
    }

    fn line(&self, label: &str, row: &ExpRow) -> String {
        match self.label {
            Some(_) => format!("{label},{}", row.to_csv()),
            None => row.to_csv(),
        }
    }
}

/// `v` as [`ExpRow::to_csv`] writes it, so a chart plots the numbers its
/// CSV holds.
fn as_written(v: f64, places: usize) -> f64 {
    format!("{v:.places$}")
        .parse()
        .expect("a formatted f64 parses")
}

/// The cells of one op's strategy × Data Store sweep at 4 threads.
fn grid(op: VmOp, strategies: &[Strategy], ds: &[u64], mode: SubmissionMode) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &s in strategies {
        for &ds_mb in ds {
            cells.push(Cell::vm(op, s, 4, ds_mb, mode));
        }
    }
    cells
}

/// Every table of the evaluation, in the order they are written.
fn tables() -> Vec<Table> {
    use SubmissionMode::{Batch, Interactive};
    const DS_AXIS: &str = "data store memory (MB)";
    const RESPONSE_AXIS: &str = "95%-trimmed mean response (s)";
    let mut out = Vec::new();

    // E1: result caching off (DS = 0) against on, for the two strategies
    // that ignore cache state.
    let e1 = OPS.map(|op| {
        grid(
            op,
            &[Strategy::Fifo, Strategy::Sjf],
            &[0, 64, 128],
            Interactive,
        )
    });
    out.push(Table::plain("results/exp_caching.csv", e1.concat()));

    // Figures 4-7, one CSV and one chart per op. Figure 6 plots response
    // time over Figure 5's cells.
    for op in OPS {
        let name = op.name();
        let mut fig4 = Vec::new();
        for s in Strategy::paper_set() {
            for threads in FIG4_THREADS {
                fig4.push(Cell::vm(op, s, threads, 64, Interactive));
            }
        }
        let sweep = |mode| grid(op, &Strategy::paper_set(), &DS_SWEEP_MB, mode);
        let figures = [
            (
                4,
                fig4,
                Chart {
                    title: format!("Fig 4 — response time vs threads ({name})"),
                    x_label: "query threads",
                    y_label: RESPONSE_AXIS,
                    x: |r| r.threads as f64,
                    y: |r| as_written(r.trimmed_response, 3),
                },
            ),
            (
                5,
                sweep(Interactive),
                Chart {
                    title: format!("Fig 5 — average overlap vs DS memory ({name})"),
                    x_label: DS_AXIS,
                    y_label: "average overlap",
                    x: |r| r.ds_mb as f64,
                    y: |r| as_written(r.avg_overlap, 4),
                },
            ),
            (
                6,
                sweep(Interactive),
                Chart {
                    title: format!("Fig 6 — response time vs DS memory ({name})"),
                    x_label: DS_AXIS,
                    y_label: RESPONSE_AXIS,
                    x: |r| r.ds_mb as f64,
                    y: |r| as_written(r.trimmed_response, 3),
                },
            ),
            (
                7,
                sweep(Batch),
                Chart {
                    title: format!("Fig 7 — batch execution time vs DS memory ({name})"),
                    x_label: DS_AXIS,
                    y_label: "total batch time (s)",
                    x: |r| r.ds_mb as f64,
                    y: |r| as_written(r.makespan, 3),
                },
            ),
        ];
        for (fig, cells, chart) in figures {
            let mut table = Table::plain(format!("results/fig{fig}_{name}.csv"), cells);
            table.chart = Some(chart);
            out.push(table);
        }
    }

    // X1: CF's α, at the scarce Data Store where CF matters most.
    let mut rows = Vec::new();
    for op in OPS {
        for alpha10 in [0u32, 2, 4, 6, 8, 10] {
            let alpha = alpha10 as f64 / 10.0;
            let s = Strategy::ClosestFirst { alpha };
            rows.push((alpha.to_string(), Cell::vm(op, s, 4, 32, Interactive)));
        }
    }
    out.push(Table::labelled("results/exp_alpha.csv", "alpha", rows));

    // X2: blocking on executing dependencies against recomputing.
    let mut rows = Vec::new();
    for op in OPS {
        for s in Strategy::paper_set() {
            let cell = Cell::vm(op, s, 8, 64, Interactive);
            rows.push(("blocking".into(), cell));
            rows.push(("no_blocking".into(), cell.with(Ablation::NoBlocking)));
        }
    }
    out.push(Table::labelled("results/exp_blocking.csv", "mode", rows));

    // X3: Page Space run merging on and off.
    let mut rows = Vec::new();
    for op in OPS {
        let cell = Cell::vm(op, Strategy::Cnbf, 4, 64, Interactive);
        rows.push(("merged".into(), cell));
        rows.push(("unmerged".into(), cell.with(Ablation::NoPsMerging)));
    }
    out.push(Table::labelled("results/exp_psmerge.csv", "mode", rows));

    // X5: HYBRID against its two parents.
    let parents = [Strategy::Sjf, Strategy::Cnbf, Strategy::hybrid_default()];
    for (mode, mode_name) in MODES {
        let cells = OPS.map(|op| grid(op, &parents, &DS_SWEEP_MB, mode));
        out.push(Table::plain(
            format!("results/exp_hybrid_{mode_name}.csv"),
            cells.concat(),
        ));
    }

    // X6: fixed HYBRID weights against the self-tuning one.
    for (mode, mode_name) in MODES {
        let mut rows = Vec::new();
        for op in OPS {
            for sjf_weight in [0.1, 1.0, 10.0] {
                let s = Strategy::Hybrid {
                    cnbf_weight: 1.0,
                    sjf_weight,
                };
                let label = format!("fixed_sjf{sjf_weight}");
                rows.push((label, Cell::vm(op, s, 4, 64, mode)));
            }
            let tuned = Cell::vm(op, Strategy::hybrid_default(), 4, 64, mode)
                .with(Ablation::Tuner(TunerConfig::default()));
            rows.push(("self_tuning".into(), tuned));
        }
        let path = format!("results/exp_adaptive_{mode_name}.csv");
        out.push(Table::labelled(path, "mode", rows));
    }

    // X8: the I/O-aware dequeue policy past the disk-farm knee.
    let io_aware = Ablation::Policy(SchedPolicy::IoAware {
        candidates: 8,
        backlog_threshold: 0.5,
    });
    let mut rows = Vec::new();
    for op in OPS {
        for s in [Strategy::Cnbf, Strategy::Fifo] {
            for threads in [8, 16, 24] {
                let cell = Cell::vm(op, s, threads, 64, Interactive);
                rows.push(("rank_order".into(), cell));
                rows.push(("io_aware".into(), cell.with(io_aware)));
            }
        }
    }
    out.push(Table::labelled("results/exp_ioaware.csv", "policy", rows));

    // X7: the 3-D volume application on the same middleware.
    for (mode, mode_name) in MODES {
        let mut cells = Vec::new();
        for op in [VolOp::Mip, VolOp::AvgProj] {
            for s in Strategy::paper_set() {
                for ds_mb in [1, 4, 16] {
                    cells.push(Cell {
                        app: App::Volume(op),
                        strategy: s,
                        threads: 4,
                        ds_mb,
                        ps_mb: PS_MB,
                        mode,
                        ablation: None,
                    });
                }
            }
        }
        out.push(Table::plain(
            format!("results/exp_volume_{mode_name}.csv"),
            cells,
        ));
    }
    out
}

/// Runs one cell on one seed's workload.
fn simulate(cell: &Cell, seed: u64) -> ExpRow {
    let mut cfg = SimConfig::paper_baseline()
        .with_strategy(cell.strategy)
        .with_threads(cell.threads)
        .with_ds_budget(cell.ds_mb << 20)
        .with_ps_budget(cell.ps_mb << 20)
        .with_mode(cell.mode);
    match cell.ablation {
        Some(Ablation::NoBlocking) => cfg = cfg.with_blocking(false),
        Some(Ablation::Policy(policy)) => cfg = cfg.with_policy(policy),
        Some(Ablation::Tuner(tuner)) => cfg.tuner = Some(tuner),
        Some(Ablation::NoPsMerging) | None => {}
    }
    match cell.app {
        App::Vm(op) => {
            let streams = generate(&WorkloadConfig::paper(op, seed));
            run(cell, cfg, cfg.cost, streams, op.name())
        }
        App::Volume(op) => {
            let streams = generate_volume(&VolWorkloadConfig::standard(op, seed));
            let cost = VolCostModel::calibrated(&cfg.disk);
            run(cell, cfg, cost, streams, op.name())
        }
    }
}

fn run<A: SimApplication>(
    cell: &Cell,
    cfg: SimConfig,
    app: A,
    streams: Vec<ClientStream<A::Spec>>,
    op: &str,
) -> ExpRow {
    let streams = match cell.mode {
        SubmissionMode::Interactive => streams,
        SubmissionMode::Batch => flatten_to_batch(&streams),
    };
    let mut sim = Simulator::with_app(cfg, app, streams);
    sim.set_ps_merging(cell.ablation != Some(Ablation::NoPsMerging));
    ExpRow::from_report(&sim.run(), cell.strategy, op, cell.threads, cell.ds_mb)
}

/// Runs every (cell, seed) pair over `workers` scoped threads and
/// returns each cell's row averaged over [`SEEDS`] in seed order.
fn run_cells(cells: &[Cell], workers: usize) -> Vec<ExpRow> {
    let jobs = cells.len() * SEEDS.len();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, ExpRow)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            return out;
                        }
                        let (cell, seed) = (job / SEEDS.len(), SEEDS[job % SEEDS.len()]);
                        out.push((job, simulate(&cells[cell], seed)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a simulation panicked"))
            .collect()
    });
    done.sort_by_key(|&(job, _)| job);
    let rows: Vec<ExpRow> = done.into_iter().map(|(_, row)| row).collect();
    rows.chunks(SEEDS.len()).map(average_rows).collect()
}

/// Draws one line per strategy, points in x order.
fn draw(chart: &Chart, rows: &[&ExpRow]) -> String {
    let mut by: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for r in rows {
        by.entry(&r.strategy)
            .or_default()
            .push(((chart.x)(r), (chart.y)(r)));
    }
    let series: Vec<Series> = by
        .into_iter()
        .map(|(label, mut points)| {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            Series {
                label: label.to_string(),
                points,
            }
        })
        .collect();
    line_chart(&chart.title, chart.x_label, chart.y_label, &series)
}

fn main() {
    let tables = tables();
    let mut cells: Vec<Cell> = Vec::new();
    for (_, cell) in tables.iter().flat_map(|t| &t.rows) {
        if !cells.contains(cell) {
            cells.push(*cell);
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} rows over {} distinct cells: {} simulations on {workers} threads",
        tables.iter().map(|t| t.rows.len()).sum::<usize>(),
        cells.len(),
        cells.len() * SEEDS.len()
    );
    let results = run_cells(&cells, workers);

    for table in &tables {
        let rows: Vec<(&str, &ExpRow)> = table
            .rows
            .iter()
            .map(|(label, cell)| {
                let i = cells
                    .iter()
                    .position(|c| c == cell)
                    .expect("every cell ran");
                (label.as_str(), &results[i])
            })
            .collect();
        let lines: Vec<String> = rows.iter().map(|&(l, r)| table.line(l, r)).collect();
        let header = table.header();
        write_csv(&table.path, &header, lines.iter().cloned()).expect("write csv");
        let cols: Vec<Vec<String>> = lines
            .iter()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        print_table(&table.path, &header.split(',').collect::<Vec<_>>(), &cols);
        if let Some(chart) = &table.chart {
            let path = table.path.replace(".csv", ".svg");
            let rows: Vec<&ExpRow> = rows.iter().map(|&(_, r)| r).collect();
            std::fs::write(&path, draw(chart, &rows)).expect("write svg");
            println!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// No two rows of a checked-in table share their key, the columns up
    /// to `ds_mb`: label, strategy, op, threads and DS size.
    #[test]
    fn checked_in_rows_have_unique_keys() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut repeated = Vec::new();
        for table in tables() {
            let text = std::fs::read_to_string(root.join(&table.path)).expect("checked-in CSV");
            let mut lines = text.lines();
            let header = lines.next().expect("CSV header");
            let key_len = 1 + header
                .split(',')
                .position(|h| h == "ds_mb")
                .expect("ds_mb column");
            let mut seen = BTreeSet::new();
            for line in lines {
                let key: Vec<&str> = line.split(',').take(key_len).collect();
                if !seen.insert(key.clone()) {
                    repeated.push(format!("{}: {}", table.path, key.join(",")));
                }
            }
        }
        assert!(repeated.is_empty(), "repeated row keys: {repeated:#?}");
    }
}
