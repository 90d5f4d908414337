//! ChunkBatch evaluation: fig4-style strategy sweep on a *chunk-skewed*
//! workload, reporting cold page reads. The workload
//! ([`vmqs_workload::chunk_skewed`]) issues four disjoint tiles inside
//! each of G chunk groups in group-round-robin order, so the tiles share
//! disk pages but have zero result overlap: the Data Store cannot help,
//! and the only lever is scheduling tiles of the same chunk while its
//! page is still resident. With a Page Space holding G/2 pages, arrival
//! order re-reads every page per tile (~4G cold reads); chunk-affinity
//! batching reads each page about once (~G).
//!
//! Sections:
//!   1. strategy sweep — all six paper strategies + CHUNKBATCH, at 2 and
//!      4 threads; asserts CHUNKBATCH does the fewest cold reads.
//!   2. starvation-dial sweep — cold reads vs worst-case queue wait as
//!      the dial moves from pure affinity (0) to pure FIFO (1).
//!
//! Flags: `--quick` (smaller workload, CI-sized), `--fault-rate F`
//! (seeded transient read faults, exercised by the graft-smoke CI job),
//! `--fault-seed N`. On an assertion failure the run writes the losing
//! configuration's event trace to `results/chunkbatch_fail_trace.json`
//! and exits non-zero so CI can upload the artifact.

use vmqs_bench::print_table;
use vmqs_core::Strategy;
use vmqs_sim::{run_sim, SimConfig, SubmissionMode};
use vmqs_storage::FaultConfig;
use vmqs_workload::{chunk_skewed, write_csv, CHUNK_SKEW_TILES_PER_GROUP};

/// One measured row of either sweep.
struct Row {
    strategy: String,
    threads: usize,
    cold_reads: u64,
    ps_hits: u64,
    trimmed_response: f64,
    max_wait: f64,
    makespan: f64,
    grafted: u64,
}

fn run_one(cfg: SimConfig, groups: usize) -> Row {
    let report = run_sim(cfg, chunk_skewed(groups));
    assert_eq!(
        report.records.len(),
        groups * CHUNK_SKEW_TILES_PER_GROUP,
        "every submitted query must complete"
    );
    Row {
        strategy: cfg.strategy.to_string(),
        threads: cfg.threads,
        cold_reads: report.ps_stats.pages_fetched,
        ps_hits: report.ps_stats.hits,
        trimmed_response: report.trimmed_mean_response(),
        max_wait: report
            .records
            .iter()
            .map(|r| r.wait_time())
            .fold(0.0, f64::max),
        makespan: report.makespan,
        grafted: report.grafted,
    }
}

fn table_rows(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.threads.to_string(),
                r.cold_reads.to_string(),
                r.ps_hits.to_string(),
                format!("{:.2}", r.trimmed_response),
                format!("{:.2}", r.max_wait),
                format!("{:.2}", r.makespan),
                r.grafted.to_string(),
            ]
        })
        .collect()
}

const HEADER: [&str; 8] = [
    "strategy",
    "threads",
    "cold reads",
    "ps hits",
    "t-mean resp (s)",
    "max wait (s)",
    "makespan (s)",
    "grafted",
];

fn csv_line(r: &Row) -> String {
    format!(
        "{},{},{},{},{:.4},{:.4},{:.4},{}",
        r.strategy,
        r.threads,
        r.cold_reads,
        r.ps_hits,
        r.trimmed_response,
        r.max_wait,
        r.makespan,
        r.grafted
    )
}

/// Dumps the event trace of a failing configuration so CI can attach it.
fn dump_fail_trace(cfg: SimConfig, groups: usize, why: &str) -> ! {
    let report = run_sim(cfg.with_observe(true), chunk_skewed(groups));
    std::fs::create_dir_all("results").ok();
    let path = "results/chunkbatch_fail_trace.json";
    std::fs::write(path, vmqs_obs::events_to_json(&report.events)).expect("write fail trace");
    eprintln!("FAIL: {why}\n      event trace written to {path}");
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut fault_rate = 0.0f64;
    let mut fault_seed = 7u64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--fault-rate" => {
                i += 1;
                fault_rate = argv[i].parse().expect("--fault-rate takes a float");
            }
            "--fault-seed" => {
                i += 1;
                fault_seed = argv[i].parse().expect("--fault-seed takes an integer");
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (expected --quick | --fault-rate F | --fault-seed N)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // The default dial (0.05) lets full chunk affinity override up to 20
    // arrival positions; the group-round-robin stride equals `groups`, so
    // keep groups below that window.
    let groups = if quick { 12 } else { 16 };
    let ps_pages = (groups / 2) as u64;
    let fault = if fault_rate > 0.0 {
        FaultConfig::transient(fault_rate, fault_seed)
    } else {
        FaultConfig::none()
    };
    let base = SimConfig::paper_baseline()
        .with_mode(SubmissionMode::Batch)
        .with_batch_gate(true)
        .with_ps_budget(ps_pages * vmqs_microscope::PAGE_SIZE as u64)
        .with_faults(fault);
    let thread_sweep: &[usize] = if quick { &[2] } else { &[2, 4] };

    // Section 1: strategy sweep on the chunk-skewed workload.
    let mut strategies: Vec<Strategy> = Strategy::paper_set().to_vec();
    strategies.push(Strategy::chunk_batch_default());
    let mut rows = Vec::new();
    for &threads in thread_sweep {
        for &strategy in &strategies {
            let cfg = base
                .with_strategy(strategy)
                .with_threads(threads)
                // Grafting rides along exactly as the CI smoke job runs it;
                // the tiles never share results, so grafted must stay 0 and
                // the strategies stay comparable on cold reads alone.
                .with_graft(true);
            rows.push(run_one(cfg, groups));
        }
    }
    print_table(
        &format!(
            "ChunkBatch: cold page reads on a chunk-skewed workload \
             ({groups} groups x {CHUNK_SKEW_TILES_PER_GROUP} tiles, PS = {ps_pages} pages)"
        ),
        &HEADER,
        &table_rows(&rows),
    );

    for &threads in thread_sweep {
        let at = |name: &str| {
            rows.iter()
                .find(|r| r.threads == threads && r.strategy.starts_with(name))
                .unwrap()
        };
        let cb = at("CHUNKBATCH");
        for strategy in &strategies[..strategies.len() - 1] {
            let paper = at(strategy.name());
            if cb.cold_reads >= paper.cold_reads {
                dump_fail_trace(
                    base.with_strategy(Strategy::chunk_batch_default())
                        .with_threads(threads)
                        .with_graft(true),
                    groups,
                    &format!(
                        "CHUNKBATCH did {} cold reads at {} threads, not fewer than {} ({})",
                        cb.cold_reads, threads, paper.cold_reads, paper.strategy
                    ),
                );
            }
        }
        if cb.grafted != 0 {
            dump_fail_trace(
                base.with_strategy(Strategy::chunk_batch_default())
                    .with_threads(threads)
                    .with_graft(true),
                groups,
                "disjoint tiles must never graft",
            );
        }
    }

    // Section 2: the starvation dial, throughput (cold reads) against
    // aging (worst queue wait).
    let dials: &[f64] = if quick {
        &[0.0, 0.05, 1.0]
    } else {
        &[0.0, 0.02, 0.05, 0.25, 1.0]
    };
    let mut dial_rows = Vec::new();
    for &dial in dials {
        let cfg = base
            .with_strategy(Strategy::ChunkBatch {
                starvation_dial: dial,
            })
            .with_threads(2)
            .with_graft(true);
        dial_rows.push(run_one(cfg, groups));
    }
    print_table(
        "ChunkBatch: starvation dial (0 = pure affinity, 1 = FIFO), 2 threads",
        &HEADER,
        &table_rows(&dial_rows),
    );
    let affinity = &dial_rows[0];
    let fifo_like = dial_rows.last().unwrap();
    if affinity.cold_reads >= fifo_like.cold_reads {
        dump_fail_trace(
            base.with_strategy(Strategy::ChunkBatch {
                starvation_dial: 0.0,
            })
            .with_threads(2)
            .with_graft(true),
            groups,
            "pure affinity must do fewer cold reads than the dial-1 FIFO limit",
        );
    }

    let csv: Vec<String> = rows.iter().chain(dial_rows.iter()).map(csv_line).collect();
    let path = "results/exp_chunkbatch.csv";
    write_csv(
        path,
        "strategy,threads,cold_reads,ps_hits,trimmed_response,max_wait,makespan,grafted",
        csv,
    )
    .expect("write csv");
    println!("wrote {path}");
    println!("OK: CHUNKBATCH read the fewest cold pages at every thread count");
}
