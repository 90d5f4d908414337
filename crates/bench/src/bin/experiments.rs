//! Regenerates every table and chart of the evaluation (§5, the §6
//! extensions, and the cache-hierarchy experiments of DESIGN.md §14;
//! EXPERIMENTS.md, DESIGN.md §4): 21 CSVs and 8 SVGs under `results/`.
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release -p vmqs-bench --bin experiments
//! ```
//!
//! Each table is data: an output path, optional label columns, its
//! columns and a list of cells. A cell is one simulated configuration:
//! an application on a workload, with its budgets in bytes. The driver
//! runs each distinct cell once for every seed in [`SEEDS`], so a cell
//! that several tables share is simulated once. The (cell, seed) runs
//! fan out over scoped threads and are collected by job index, so the
//! output does not depend on the thread count. A table with [`ExpRow`]'s
//! columns averages the seeds in seed order; a table that names its own
//! columns computes each from the cell's runs.
//!
//! The test module checks what DESIGN.md §14 claims of the
//! cache-hierarchy tables, on the cells those CSVs are written from.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use vmqs_bench::plot::{line_chart, Series};
use vmqs_bench::{average_rows, print_table, SEEDS};
use vmqs_core::{ClientId, EngineConfig, Strategy};
use vmqs_datastore::EvictionPolicy;
use vmqs_microscope::{VmCostModel, VmOp};
use vmqs_sim::{
    ClientStream, SchedPolicy, SimApplication, SimConfig, Simulator, SubmissionMode, TunerConfig,
};
use vmqs_volume::{generate_volume, VolCostModel, VolOp, VolWorkloadConfig};
use vmqs_workload::{
    flatten_to_batch, generate, write_csv, zipfian, zipfian_catalog, ExpRow, WorkloadConfig,
};

/// The thread counts swept by Fig. 4.
const FIG4_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// The Data Store sizes (MB) swept by Figs. 5–7.
const DS_SWEEP_MB: [u64; 5] = [32, 64, 128, 192, 256];

/// Standard Page Space budget (MB) from §5.
const PS_MB: u64 = 32;

/// Output bytes of one zipfian catalog tile (256² RGB).
const TILE_BYTES: u64 = 3 * 256 * 256;

/// The cache-hierarchy cells' budgets (DESIGN.md §14): tier 1 holds 8
/// catalog tiles and tier 2 another 32, far below the working set. The
/// 1 MiB Page Space makes a recomputation re-read its inputs from the
/// virtual disk instead of a warm page cache.
const SPILL_DS_BYTES: u64 = 8 * TILE_BYTES;
const SPILL_TIER2_BYTES: u64 = 32 * TILE_BYTES;
const SPILL_PS_BYTES: u64 = 1 << 20;

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
    /// Cost-based eviction instead of LRU, demoting victims to a tier 2
    /// of this many bytes (0: no tier 2).
    CostBased { tier2_bytes: u64 },
}

/// The queries a cell runs. All but [`Workload::Paper`] are Virtual
/// Microscope subsample queries.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    /// The paper's §5 generator for the cell's application.
    Paper,
    /// `zipfian(catalog, draws, 1.1, seed)`: a few hot windows repeating
    /// against a long cold tail.
    Zipfian { catalog: usize, draws: usize },
    /// [`flash_crowd`]`(hot, burst)`.
    FlashCrowd { hot: usize, burst: usize },
}

/// One simulated configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Cell {
    app: App,
    workload: Workload,
    strategy: Strategy,
    threads: usize,
    ds_bytes: u64,
    ps_bytes: u64,
    mode: SubmissionMode,
    ablation: Option<Ablation>,
}

impl Cell {
    /// A paper-workload cell on the Virtual Microscope.
    fn vm(op: VmOp, strategy: Strategy, threads: usize, ds_mb: u64, mode: SubmissionMode) -> Self {
        Cell {
            app: App::Vm(op),
            workload: Workload::Paper,
            strategy,
            threads,
            ds_bytes: ds_mb << 20,
            ps_bytes: PS_MB << 20,
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

/// What one simulation of a cell measured.
#[derive(Clone, Debug)]
struct Run {
    /// The paper's metrics.
    row: ExpRow,
    recomputed_bytes: u64,
    spilled: u64,
    restored: u64,
    restore_failures: u64,
}

/// [`ExpRow`] averaged over a cell's runs in seed order.
fn averaged(runs: &[Run]) -> ExpRow {
    average_rows(&runs.iter().map(|r| r.row.clone()).collect::<Vec<_>>())
}

/// The mean of `f` over a cell's runs.
fn mean(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// A column of a table that names its own: its header, and the mean
/// over a cell's runs of its measure, written to this many decimals.
type Column = (&'static str, usize, fn(&Run) -> f64);

/// A table's columns after its label columns.
enum Columns {
    /// [`ExpRow`]'s, the runs averaged by [`averaged`].
    ExpRow,
    /// The table's own.
    Own(&'static [Column]),
}

/// One CSV: its rows are `(label, cell)` in file order. `label` is the
/// header of the leading label columns (comma-separated) and a row's
/// label holds their values; neither is written when `label` is `None`.
struct Table {
    path: String,
    label: Option<&'static str>,
    columns: Columns,
    rows: Vec<(String, Cell)>,
    chart: Option<Chart>,
}

impl Table {
    fn plain(path: impl Into<String>, cells: Vec<Cell>) -> Self {
        Table {
            path: path.into(),
            label: None,
            columns: Columns::ExpRow,
            rows: cells.into_iter().map(|c| (String::new(), c)).collect(),
            chart: None,
        }
    }

    fn labelled(path: impl Into<String>, label: &'static str, rows: Vec<(String, Cell)>) -> Self {
        Table {
            path: path.into(),
            label: Some(label),
            columns: Columns::ExpRow,
            rows,
            chart: None,
        }
    }

    fn header(&self) -> String {
        let columns = match self.columns {
            Columns::ExpRow => ExpRow::csv_header().to_string(),
            Columns::Own(columns) => columns.iter().map(|c| c.0).collect::<Vec<_>>().join(","),
        };
        match self.label {
            Some(label) => format!("{label},{columns}"),
            None => columns,
        }
    }

    fn line(&self, label: &str, runs: &[Run]) -> String {
        let values = match self.columns {
            Columns::ExpRow => averaged(runs).to_csv(),
            Columns::Own(columns) => columns
                .iter()
                .map(|&(_, places, measure)| format!("{:.*}", places, mean(runs, measure)))
                .collect::<Vec<_>>()
                .join(","),
        };
        match self.label {
            Some(_) => format!("{label},{values}"),
            None => values,
        }
    }
}

/// The flash crowd: the hot set three times (the repeats raise each hot
/// entry's observed reuse, so tier 2 sheds the burst's one-shot results
/// before the hot set), a cold burst that flushes tier 1, then the crowd
/// returns to the hot set.
fn flash_crowd(hot: usize, burst: usize) -> Vec<ClientStream> {
    let tiles = zipfian_catalog(hot + burst);
    let mut queries: Vec<_> = std::iter::repeat_n(&tiles[..hot], 3)
        .flatten()
        .copied()
        .collect();
    queries.extend_from_slice(&tiles[hot..]);
    queries.extend_from_slice(&tiles[..hot]);
    vec![ClientStream {
        client: ClientId(0),
        queries,
    }]
}

/// The cache-hierarchy tables' columns.
const SPILL_COLUMNS: &[Column] = &[
    ("makespan_s", 3, |r| r.row.makespan),
    ("recomputed_mb", 1, |r| {
        r.recomputed_bytes as f64 / (1 << 20) as f64
    }),
    ("exact_hits", 1, |r| r.row.exact_hits as f64),
    ("spilled", 1, |r| r.spilled as f64),
    ("restored", 1, |r| r.restored as f64),
    ("restore_failures", 1, |r| r.restore_failures as f64),
];

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
                        workload: Workload::Paper,
                        strategy: s,
                        threads: 4,
                        ds_bytes: ds_mb << 20,
                        ps_bytes: PS_MB << 20,
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

    // DESIGN.md §14: the cache hierarchy under zipfian pressure at equal
    // tier-1 memory, then a flash crowd that a cold burst flushes out of
    // tier 1 before it returns.
    let spill_cell = |workload, ablation| Cell {
        app: App::Vm(VmOp::Subsample),
        workload,
        strategy: Strategy::Cnbf,
        threads: 4,
        ds_bytes: SPILL_DS_BYTES,
        ps_bytes: SPILL_PS_BYTES,
        mode: Interactive,
        ablation,
    };
    let cost = |tier2_bytes| Some(Ablation::CostBased { tier2_bytes });
    let zipf = Workload::Zipfian {
        catalog: 128,
        draws: 1024,
    };
    let rows = vec![
        ("lru".into(), spill_cell(zipf, None)),
        ("cost".into(), spill_cell(zipf, cost(0))),
        (
            "cost+spill".into(),
            spill_cell(zipf, cost(SPILL_TIER2_BYTES)),
        ),
    ];
    let mut table = Table::labelled("results/exp_spill_zipfian.csv", "policy", rows);
    table.columns = Columns::Own(SPILL_COLUMNS);
    out.push(table);
    let crowd = Workload::FlashCrowd { hot: 16, burst: 64 };
    let rows = vec![
        ("off".into(), spill_cell(crowd, cost(0))),
        ("on".into(), spill_cell(crowd, cost(SPILL_TIER2_BYTES))),
    ];
    let mut table = Table::labelled("results/exp_spill_flash.csv", "tier2", rows);
    table.columns = Columns::Own(SPILL_COLUMNS);
    out.push(table);
    out
}

/// Runs one cell on one seed's workload.
fn simulate(cell: &Cell, seed: u64) -> Run {
    let mut cfg = SimConfig::new(
        EngineConfig::paper_baseline()
            .with_strategy(cell.strategy)
            .with_threads(cell.threads)
            .with_ds_budget(cell.ds_bytes)
            .with_ps_budget(cell.ps_bytes),
    )
    .with_mode(cell.mode);
    match cell.ablation {
        Some(Ablation::NoBlocking) => cfg.engine = cfg.engine.with_blocking(false),
        Some(Ablation::Policy(policy)) => cfg = cfg.with_policy(policy),
        Some(Ablation::Tuner(tuner)) => cfg.tuner = Some(tuner),
        Some(Ablation::CostBased { tier2_bytes }) => {
            cfg.engine = cfg
                .engine
                .with_cache_policy(EvictionPolicy::CostBased)
                .with_tier2_budget(tier2_bytes);
        }
        Some(Ablation::NoPsMerging) | None => {}
    }
    match cell.app {
        App::Vm(op) => {
            let streams = match cell.workload {
                Workload::Paper => generate(&WorkloadConfig::paper(op, seed)),
                Workload::Zipfian { catalog, draws } => zipfian(catalog, draws, 1.1, seed),
                Workload::FlashCrowd { hot, burst } => flash_crowd(hot, burst),
            };
            let cost = VmCostModel::calibrated(&cfg.disk);
            run(cell, cfg, cost, streams, op.name())
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
) -> Run {
    let streams = match cell.mode {
        SubmissionMode::Interactive => streams,
        SubmissionMode::Batch => flatten_to_batch(&streams),
    };
    let submitted: usize = streams.iter().map(|s| s.queries.len()).sum();
    let mut sim = Simulator::with_app(cfg, app, streams);
    sim.set_ps_merging(cell.ablation != Some(Ablation::NoPsMerging));
    let report = sim.run();
    assert_eq!(
        report.records.len(),
        submitted,
        "{cell:?}: a query went missing"
    );
    let ds_mb = cell.ds_bytes >> 20;
    Run {
        row: ExpRow::from_report(&report, cell.strategy, op, cell.threads, ds_mb),
        recomputed_bytes: report.recomputed_bytes,
        spilled: report.tally.spilled,
        restored: report.tally.restored,
        restore_failures: report.ds_stats.restore_failures,
    }
}

/// Runs every cell on every seed in [`SEEDS`] over `workers` scoped threads
/// and returns each cell's runs in seed order.
fn run_cells(cells: &[Cell], workers: usize) -> Vec<Vec<Run>> {
    let jobs = cells.len() * SEEDS.len();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Run)> = std::thread::scope(|scope| {
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
    let runs: Vec<Run> = done.into_iter().map(|(_, run)| run).collect();
    runs.chunks(SEEDS.len()).map(<[Run]>::to_vec).collect()
}

/// The host's cores, the driver's thread count.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Draws one line per strategy, points in x order.
fn draw(chart: &Chart, rows: &[ExpRow]) -> String {
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
    let workers = workers();
    println!(
        "{} rows over {} distinct cells: {} simulations on {workers} threads",
        tables.iter().map(|t| t.rows.len()).sum::<usize>(),
        cells.len(),
        cells.len() * SEEDS.len()
    );
    let results = run_cells(&cells, workers);

    for table in &tables {
        let rows: Vec<(&str, &[Run])> = table
            .rows
            .iter()
            .map(|(label, cell)| {
                let i = cells
                    .iter()
                    .position(|c| c == cell)
                    .expect("every cell ran");
                (label.as_str(), results[i].as_slice())
            })
            .collect();
        let lines: Vec<String> = rows
            .iter()
            .map(|&(label, runs)| table.line(label, runs))
            .collect();
        let header = table.header();
        write_csv(&table.path, &header, lines.iter().cloned()).expect("write csv");
        let cols: Vec<Vec<String>> = lines
            .iter()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        print_table(&table.path, &header.split(',').collect::<Vec<_>>(), &cols);
        if let Some(chart) = &table.chart {
            let path = table.path.replace(".csv", ".svg");
            let rows: Vec<ExpRow> = rows.iter().map(|&(_, runs)| averaged(runs)).collect();
            std::fs::write(&path, draw(chart, &rows)).expect("write svg");
            println!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// No two rows of a checked-in table share their key: the label
    /// columns, and for [`ExpRow`]'s columns strategy, op, threads and
    /// DS size.
    #[test]
    fn checked_in_rows_have_unique_keys() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut repeated = Vec::new();
        for table in tables() {
            let text = std::fs::read_to_string(root.join(&table.path)).expect("checked-in CSV");
            let key_columns = match table.columns {
                Columns::ExpRow => {
                    1 + ExpRow::csv_header()
                        .split(',')
                        .position(|h| h == "ds_mb")
                        .expect("ds_mb column")
                }
                Columns::Own(_) => 0,
            };
            let key_len = table.label.map_or(0, |l| l.split(',').count()) + key_columns;
            let mut seen = BTreeSet::new();
            for line in text.lines().skip(1) {
                let key: Vec<&str> = line.split(',').take(key_len).collect();
                if !seen.insert(key.clone()) {
                    repeated.push(format!("{}: {}", table.path, key.join(",")));
                }
            }
        }
        assert!(repeated.is_empty(), "repeated row keys: {repeated:#?}");
    }

    /// Runs the cells of the table written to `path` and returns its rows
    /// as (label, cell, runs).
    fn run_table(path: &str) -> Vec<(String, Cell, Vec<Run>)> {
        let table = tables()
            .into_iter()
            .find(|t| t.path == path)
            .expect("a declared table");
        let cells: Vec<Cell> = table.rows.iter().map(|&(_, cell)| cell).collect();
        let runs = run_cells(&cells, workers());
        table
            .rows
            .into_iter()
            .zip(runs)
            .map(|((label, cell), runs)| (label, cell, runs))
            .collect()
    }

    fn runs_of<'a>(rows: &'a [(String, Cell, Vec<Run>)], label: &str) -> &'a [Run] {
        &rows
            .iter()
            .find(|(l, ..)| l == label)
            .expect("a labelled row")
            .2
    }

    /// DESIGN.md §14: at equal tier-1 memory, cost-based eviction with a
    /// spill tier recomputes at least a quarter fewer bytes than LRU on
    /// the zipfian workload, and on every seed it spills, restores, and
    /// no restore fails.
    #[test]
    fn spill_tier_recomputes_a_quarter_fewer_bytes_than_lru() {
        let rows = run_table("results/exp_spill_zipfian.csv");
        for (label, _, runs) in &rows {
            assert!(
                runs.iter().all(|r| r.restore_failures == 0),
                "{label}: no faults are configured, so no restore may fail"
            );
        }
        let (lru, spill) = (runs_of(&rows, "lru"), runs_of(&rows, "cost+spill"));
        for (seed, r) in SEEDS.iter().zip(spill) {
            assert!(r.spilled > 0, "seed {seed}: pressure must spill");
            assert!(r.restored > 0, "seed {seed}: hot tiles must re-heat");
        }
        let cut = 100.0
            * lru
                .iter()
                .zip(spill)
                .map(|(l, s)| 1.0 - s.recomputed_bytes as f64 / l.recomputed_bytes as f64)
                .sum::<f64>()
            / SEEDS.len() as f64;
        assert!(
            cut >= 25.0,
            "cost+spill must recompute >= 25% fewer bytes than lru, got {cut:.1}%"
        );
    }

    /// DESIGN.md §14: a flash crowd flushed out of tier 1 mostly re-heats
    /// from tier 2 when it returns, and restores nothing without one.
    #[test]
    fn returning_flash_crowd_reheats_from_tier2() {
        let rows = run_table("results/exp_spill_flash.csv");
        let Workload::FlashCrowd { hot, .. } = rows[0].1.workload else {
            panic!("the flash-crowd table runs the flash crowd");
        };
        for (seed, (off, on)) in SEEDS
            .iter()
            .zip(runs_of(&rows, "off").iter().zip(runs_of(&rows, "on")))
        {
            assert_eq!(
                off.restored, 0,
                "seed {seed}: no tier 2, nothing to restore"
            );
            assert!(
                on.restored as usize >= hot / 2,
                "seed {seed}: the returning crowd must mostly re-heat, restored {}",
                on.restored
            );
        }
    }
}
