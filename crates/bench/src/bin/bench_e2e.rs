//! End-to-end throughput benchmark for the *real threaded engine*.
//!
//! Runs a seeded Virtual Microscope workload (16 interactive clients x 16
//! queries, and the same 256 queries as one batch) for both VM ops at
//! 1/2/4/8 workers, and writes `BENCH_e2e.json` with queries/sec,
//! p50/p95/p99 response times reconstructed from the observability event
//! log, and the Data Store hit ratio per configuration. This is
//! the repo's perf-trajectory artifact: run it before and after an engine
//! change to quantify the end-to-end effect.
//!
//! Two extra sections stress the scheduler rather than the kernels:
//!
//! - `contention_results`: tiny disjoint queries replayed after a warmup
//!   pass so ~100% of lookups are Data Store exact hits. Per-query compute
//!   is near zero, so throughput is bounded by scheduler and lock overhead
//!   — the configuration where pre-sharding the engine *lost* ground as
//!   workers were added (DESIGN.md §12).
//! - `graft_contention_results`: the contention tiles offered *cold*
//!   with several interleaved copies of every tile, with grafting on and
//!   off. With grafting on, each distinct tile is computed exactly once:
//!   later copies either graft onto the in-flight producer or exact-hit
//!   its published result, and `duplicate_full_computes` must be 0
//!   (ROADMAP item 1, DESIGN.md §13).
//! - `overload_results`: the batch offered as a burst through the
//!   degrade/shed ladder, once per load factor at the largest worker count.
//!
//! Usage:
//!   cargo run -p vmqs-bench --release --bin bench_e2e
//!   cargo run -p vmqs-bench --release --bin bench_e2e -- --quick
//!   cargo run -p vmqs-bench --release --bin bench_e2e -- \
//!       --seed 42 --workers 1,2,4,8 --out BENCH_e2e.json

use std::sync::Arc;

use vmqs_core::{ClientId, DatasetId, OverloadConfig, Rect, Strategy};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_server::{QueryServer, ServerConfig, ServerError};
use vmqs_sim::ClientStream;
use vmqs_storage::{DiskModel, SyntheticSource, ThrottledSource};
use vmqs_workload::{
    flatten_to_batch, generate, run_server_batch, run_server_interactive, WorkloadConfig,
};

struct BenchParams {
    seed: u64,
    workers: Vec<usize>,
    out_path: String,
    quick: bool,
}

fn parse_args() -> BenchParams {
    let mut p = BenchParams {
        seed: 42,
        workers: vec![1, 2, 4, 8],
        out_path: "BENCH_e2e.json".to_string(),
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => p.quick = true,
            "--seed" => {
                p.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--workers" => {
                let list = args.next().expect("--workers needs a comma list");
                p.workers = list
                    .split(',')
                    .map(|w| w.parse().expect("worker count"))
                    .collect();
            }
            "--out" => p.out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_e2e [--quick] [--seed N] [--workers 1,2,4,8] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if p.quick {
        p.workers = vec![1, 4];
    }
    p
}

/// The benchmark workload: the paper's 16-client x 16-query interactive
/// shape (8/6/2 clients over three datasets, zooms 1/2/4/8), scaled to
/// an output side that keeps a full sweep in CI-friendly time.
fn bench_workload(op: VmOp, seed: u64, quick: bool) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper(op, seed);
    if quick {
        cfg.output_side = 64;
        cfg.queries_per_client = 4;
    } else {
        cfg.output_side = 256;
    }
    cfg
}

fn bench_server(workers: usize) -> QueryServer {
    // Budgets scaled to the 256px output (~192 KiB/image): the DS holds a
    // useful fraction of the workload but still evicts, like the paper's
    // 64 MB budget against 3 MB images.
    let cfg = ServerConfig::small()
        .with_strategy(Strategy::Cnbf)
        .with_threads(workers)
        .with_ds_budget(16 << 20)
        .with_ps_budget(8 << 20)
        .with_observability(true);
    QueryServer::new(cfg, Arc::new(SyntheticSource::new()))
}

struct RunResult {
    mode: &'static str,
    op: &'static str,
    workers: usize,
    queries: usize,
    wall_s: f64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    ds_hit_ratio: f64,
    exact_hits: u64,
    partial_hits: u64,
    misses: u64,
    /// Per-query answer paths (exactly one per completed query), from the
    /// server summary — unlike the raw Data Store counters these are not
    /// inflated by post-wait re-probes.
    path_exact: usize,
    path_partial: usize,
    path_full: usize,
    /// Post-wait Data Store re-probes and how many found an exact match.
    relookups: u64,
    relookup_hits: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn run_once(mode: &'static str, op: VmOp, workers: usize, seed: u64, quick: bool) -> RunResult {
    let streams = generate(&bench_workload(op, seed, quick));
    let total: usize = streams.iter().map(|s| s.queries.len()).sum();
    let server = bench_server(workers);

    let start = vmqs_core::clock::now();
    let records = match mode {
        "interactive" => run_server_interactive(&server, streams),
        _ => {
            let batch = flatten_to_batch(&streams)
                .into_iter()
                .flat_map(|s| s.queries)
                .collect();
            run_server_batch(&server, batch)
        }
    };
    let wall = start.elapsed().as_secs_f64();

    assert_eq!(records.len(), total, "every query must complete");
    let ds = server.ds_stats();
    let summary = server.summary();
    let (relookups, relookup_hits) = server.relookup_stats();
    let events = server.events();
    server.shutdown();

    // Submission -> completion latencies come from the event log, not the
    // client-side records: the timeline reconstruction is the artifact this
    // benchmark certifies.
    let mut resp_ms: Vec<f64> = vmqs_obs::timeline::latencies(&events)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    assert_eq!(resp_ms.len(), total, "event log must cover every query");
    resp_ms.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = resp_ms.iter().sum::<f64>() / resp_ms.len() as f64;
    let lookups = ds.exact_hits + ds.partial_hits + ds.misses;
    RunResult {
        mode,
        op: op.name(),
        workers,
        queries: total,
        wall_s: wall,
        qps: total as f64 / wall,
        p50_ms: percentile(&resp_ms, 0.50),
        p95_ms: percentile(&resp_ms, 0.95),
        p99_ms: percentile(&resp_ms, 0.99),
        mean_ms,
        ds_hit_ratio: if lookups == 0 {
            0.0
        } else {
            (ds.exact_hits + ds.partial_hits) as f64 / lookups as f64
        },
        exact_hits: ds.exact_hits,
        partial_hits: ds.partial_hits,
        misses: ds.misses,
        path_exact: summary.exact_hits,
        path_partial: summary.partial_reuse,
        path_full: summary.full_compute,
        relookups,
        relookup_hits,
    }
}

/// One row of the overload section: the batch workload offered as a
/// burst at `load_factor` x the admission bound, through the full
/// degrade/shed ladder (DESIGN.md §10).
struct OverloadResult {
    load_factor: usize,
    workers: usize,
    offered: usize,
    admitted: u64,
    shed: u64,
    rejected: u64,
    degraded: u64,
    shed_rate: f64,
    degraded_fraction: f64,
    wall_s: f64,
    p95_admitted_ms: f64,
}

/// Offers the whole batch against paused workers so the admission
/// ladder sees the burst at `load_factor` x `max_pending`, then resumes
/// and measures the survivors. p95 is over *admitted-and-completed*
/// queries only — rejected/shed queries get an immediate typed answer,
/// not a latency.
fn run_overload_once(load_factor: usize, workers: usize, seed: u64, quick: bool) -> OverloadResult {
    let streams = generate(&bench_workload(VmOp::Average, seed, quick));
    let specs: Vec<_> = flatten_to_batch(&streams)
        .into_iter()
        .flat_map(|s| s.queries)
        .collect();
    let offered = specs.len();
    let max_pending = offered / load_factor;
    let ov = OverloadConfig::default()
        .with_max_pending(max_pending)
        .with_degrade_threshold(0.5)
        .with_shed_threshold(0.9);
    let cfg = ServerConfig::small()
        .with_strategy(Strategy::Cnbf)
        .with_threads(workers)
        .with_ds_budget(16 << 20)
        .with_ps_budget(8 << 20)
        .with_observability(true)
        .with_start_paused(true)
        .with_overload(ov);
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));

    let start = vmqs_core::clock::now();
    let handles = server.submit_batch(specs);
    server.resume_workers();
    let (mut admitted, mut shed, mut rejected) = (0u64, 0u64, 0u64);
    for h in handles {
        match h.wait() {
            Ok(_) => admitted += 1,
            Err(ServerError::Shed { .. }) => shed += 1,
            Err(ServerError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected outcome under overload: {e}"),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let metrics = server.metrics();
    let events = server.events();
    server.shutdown();

    let degraded = metrics
        .counters
        .get("vmqs_queries_degraded_total")
        .copied()
        .unwrap_or(0);
    let mut resp_ms: Vec<f64> = vmqs_obs::timeline::latencies(&events)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    assert_eq!(resp_ms.len() as u64, admitted, "one latency per completion");
    resp_ms.sort_by(|a, b| a.total_cmp(b));
    OverloadResult {
        load_factor,
        workers,
        offered,
        admitted,
        shed,
        rejected,
        degraded,
        shed_rate: shed as f64 / offered as f64,
        degraded_fraction: degraded as f64 / offered as f64,
        wall_s: wall,
        p95_admitted_ms: percentile(&resp_ms, 0.95),
    }
}

/// One row of the contention section: the steady-state throughput of
/// tiny, fully cached queries at `workers` threads.
struct ContentionResult {
    workers: usize,
    queries: usize,
    wall_s: f64,
    qps: f64,
    ds_hit_ratio: f64,
}

const CONTENTION_CLIENTS: usize = 16;
const CONTENTION_TILES_PER_CLIENT: usize = 8;
const CONTENTION_TILE: u32 = 32;

/// The distinct tiles of the contention workload: disjoint 32x32 windows
/// at zoom 1, eight per client, all on one slide. Disjoint footprints mean
/// no cross-query reuse edges — after warmup every query is an exact hit
/// and the Data Store never evicts, so the run measures pure scheduling
/// overhead rather than kernels or cache policy.
fn contention_tiles(seed: u64) -> Vec<Vec<VmQuery>> {
    let total = CONTENTION_CLIENTS * CONTENTION_TILES_PER_CLIENT;
    let per_row = 4096 / CONTENTION_TILE as usize;
    let slide = SlideDataset::new(DatasetId(0), 4096, 4096);
    (0..CONTENTION_CLIENTS)
        .map(|c| {
            (0..CONTENTION_TILES_PER_CLIENT)
                .map(|t| {
                    // The seed rotates which tiles each client owns, so the
                    // shard assignment pattern is not an artifact of client
                    // numbering.
                    let i = (c * CONTENTION_TILES_PER_CLIENT + t + seed as usize) % total;
                    let x = (i % per_row) as u32 * CONTENTION_TILE;
                    let y = (i / per_row) as u32 * CONTENTION_TILE;
                    VmQuery::new(
                        slide,
                        Rect::new(x, y, CONTENTION_TILE, CONTENTION_TILE),
                        1,
                        VmOp::Subsample,
                    )
                })
                .collect()
        })
        .collect()
}

/// Warms the Data Store with every distinct tile, then times interactive
/// clients replaying their tiles `repeats` times. All 128 distinct results
/// (~3 KiB each) fit the budget with two orders of magnitude to spare, so
/// the timed phase runs at ~100% exact hits.
fn run_contention_once(workers: usize, seed: u64, quick: bool) -> ContentionResult {
    let tiles = contention_tiles(seed);
    let repeats = if quick { 5 } else { 40 };
    let server = bench_server(workers);

    let warmup: Vec<VmQuery> = tiles.iter().flatten().copied().collect();
    for h in server.submit_batch(warmup) {
        h.wait().expect("warmup query failed");
    }
    let warmed = server.ds_stats();

    let streams: Vec<ClientStream> = tiles
        .iter()
        .enumerate()
        .map(|(c, ts)| ClientStream {
            client: ClientId(c as u64),
            queries: std::iter::repeat_n(ts.clone(), repeats).flatten().collect(),
        })
        .collect();
    let timed: usize = streams.iter().map(|s| s.queries.len()).sum();

    let start = vmqs_core::clock::now();
    let records = run_server_interactive(&server, streams);
    let wall = start.elapsed().as_secs_f64();
    let ds = server.ds_stats();
    server.shutdown();
    assert_eq!(
        records.len(),
        timed + tiles.len() * CONTENTION_TILES_PER_CLIENT
    );

    // Hit ratio over the timed phase only (warmup misses subtracted out).
    let hits = (ds.exact_hits + ds.partial_hits) - (warmed.exact_hits + warmed.partial_hits);
    let lookups = (ds.exact_hits + ds.partial_hits + ds.misses)
        - (warmed.exact_hits + warmed.partial_hits + warmed.misses);
    ContentionResult {
        workers,
        queries: timed,
        wall_s: wall,
        qps: timed as f64 / wall,
        ds_hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    }
}

/// One row of the graft-contention section: a few hot windows, each
/// submitted `GRAFT_HOT_COPIES` times, offered cold as one paused batch.
struct GraftContentionResult {
    graft: bool,
    workers: usize,
    queries: usize,
    distinct: usize,
    wall_s: f64,
    qps: f64,
    path_exact: usize,
    path_partial: usize,
    path_full: usize,
    grafted: usize,
    duplicate_full_computes: u64,
}

const GRAFT_HOT_WINDOWS: usize = 8;
const GRAFT_HOT_COPIES: usize = 8;
const GRAFT_HOT_SIDE: u32 = 256;

/// The hot windows: disjoint 256x256 averaging tiles — orders of
/// magnitude more per-query compute than the 32x32 contention tiles, so
/// a copy's dequeue reliably lands inside its producer's execution
/// window. All windows are chosen (by scanning the tile grid) to hash to
/// shard 0, which makes every other worker's home shard empty: they
/// become dedicated stealers, and stealing during the producer's
/// execution is exactly the race grafting resolves.
fn graft_hot_windows(workers: usize) -> Vec<VmQuery> {
    let slide = SlideDataset::new(DatasetId(0), 4096, 4096);
    let per_row = 4096 / GRAFT_HOT_SIDE;
    let mut out = Vec::with_capacity(GRAFT_HOT_WINDOWS);
    'scan: for gy in 0..per_row {
        for gx in 0..per_row {
            let q = VmQuery::new(
                slide,
                Rect::new(
                    gx * GRAFT_HOT_SIDE,
                    gy * GRAFT_HOT_SIDE,
                    GRAFT_HOT_SIDE,
                    GRAFT_HOT_SIDE,
                ),
                1,
                VmOp::Average,
            );
            if vmqs_core::shard_of_spec(&q, workers) == 0 {
                out.push(q);
                if out.len() == GRAFT_HOT_WINDOWS {
                    break 'scan;
                }
            }
        }
    }
    assert_eq!(
        out.len(),
        GRAFT_HOT_WINDOWS,
        "the 16x16 tile grid must yield enough shard-0 windows"
    );
    out
}

/// Offers `GRAFT_HOT_COPIES` adjacent copies of every hot window as one
/// cold paused batch, so copies of a window race its first compute.
/// Identical predicates hash to the same home shard, so the copies queue
/// behind their producer; the other workers steal them mid-flight. With
/// grafting on, a stolen copy subscribes to the EXECUTING producer
/// instead of recomputing, and `duplicate_full_computes` stays 0: every
/// window is computed exactly once.
fn run_graft_contention_once(graft: bool, workers: usize) -> GraftContentionResult {
    let distinct = graft_hot_windows(workers);
    let mut specs = Vec::with_capacity(distinct.len() * GRAFT_HOT_COPIES);
    for &w in &distinct {
        for _ in 0..GRAFT_HOT_COPIES {
            specs.push(w);
        }
    }
    let total = specs.len();
    // FIFO, not CNBF: CNBF *deprioritizes* queries overlapping an
    // EXECUTING peer, which dissolves exactly the producer/copy race this
    // section measures. FIFO dequeues the adjacent copies immediately.
    let cfg = ServerConfig::small()
        .with_strategy(Strategy::Fifo)
        .with_threads(workers)
        .with_ds_budget(16 << 20)
        .with_ps_budget(8 << 20)
        .with_observability(true)
        .with_start_paused(true)
        .with_graft(graft);
    // 0.2 ms a page: a 256-px window's compute must outlast a stealer's
    // wake-up for a copy to find its producer EXECUTING, and an unthrottled
    // synthetic page is too quick for that on a 2-core box (the assert on
    // `grafted` below failed 6 runs in 20 there).
    let source = ThrottledSource::new(SyntheticSource::new(), DiskModel::new(2e-4, f64::MAX), 1.0);
    let server = QueryServer::new(cfg, Arc::new(source));

    let start = vmqs_core::clock::now();
    let handles = server.submit_batch(specs);
    server.resume_workers();
    for h in handles {
        h.wait().expect("graft-contention query failed");
    }
    let wall = start.elapsed().as_secs_f64();
    let summary = server.summary();
    server.shutdown();

    assert_eq!(summary.completed, total, "every query must complete");
    if graft {
        assert_eq!(
            summary.duplicate_full_computes, 0,
            "grafting + producer-affinity dequeue must eliminate duplicate \
             full computes (ROADMAP item 1)"
        );
        assert_eq!(
            summary.full_compute,
            distinct.len(),
            "with grafting on, each distinct window is computed exactly once"
        );
        if workers > 1 {
            assert!(
                summary.grafted > 0,
                "concurrent copies of a window must graft onto its producer"
            );
        }
    }
    GraftContentionResult {
        graft,
        workers,
        queries: total,
        distinct: distinct.len(),
        wall_s: wall,
        qps: total as f64 / wall,
        path_exact: summary.exact_hits,
        path_partial: summary.partial_reuse,
        path_full: summary.full_compute,
        grafted: summary.grafted,
        duplicate_full_computes: summary.duplicate_full_computes,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(
    path: &str,
    params: &BenchParams,
    results: &[RunResult],
    contention: &[ContentionResult],
    graft_contention: &[GraftContentionResult],
    overload: &[OverloadResult],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"bench_e2e\",")?;
    writeln!(f, "  \"seed\": {},", params.seed)?;
    writeln!(f, "  \"quick\": {},", params.quick)?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"mode\": \"{}\", \"op\": \"{}\", \"workers\": {}, \"queries\": {}, \
             \"wall_s\": {:.4}, \"queries_per_sec\": {:.3}, \"p50_response_ms\": {:.3}, \
             \"p95_response_ms\": {:.3}, \"p99_response_ms\": {:.3}, \
             \"mean_response_ms\": {:.3}, \"ds_hit_ratio\": {:.4}, \
             \"exact_hits\": {}, \"partial_hits\": {}, \"misses\": {}, \
             \"path_exact\": {}, \"path_partial\": {}, \"path_full\": {}, \
             \"relookups\": {}, \"relookup_hits\": {}}}{}",
            json_escape(r.mode),
            json_escape(r.op),
            r.workers,
            r.queries,
            r.wall_s,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.mean_ms,
            r.ds_hit_ratio,
            r.exact_hits,
            r.partial_hits,
            r.misses,
            r.path_exact,
            r.path_partial,
            r.path_full,
            r.relookups,
            r.relookup_hits,
            comma
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"contention_results\": [")?;
    let base_qps = contention.first().map_or(0.0, |r| r.qps);
    for (i, r) in contention.iter().enumerate() {
        let comma = if i + 1 < contention.len() { "," } else { "" };
        let speedup = if base_qps > 0.0 {
            r.qps / base_qps
        } else {
            0.0
        };
        writeln!(
            f,
            "    {{\"workers\": {}, \"queries\": {}, \"wall_s\": {:.4}, \
             \"queries_per_sec\": {:.3}, \"ds_hit_ratio\": {:.4}, \
             \"speedup_vs_first\": {:.3}}}{}",
            r.workers, r.queries, r.wall_s, r.qps, r.ds_hit_ratio, speedup, comma
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"graft_contention_results\": [")?;
    for (i, r) in graft_contention.iter().enumerate() {
        let comma = if i + 1 < graft_contention.len() {
            ","
        } else {
            ""
        };
        writeln!(
            f,
            "    {{\"graft\": {}, \"workers\": {}, \"queries\": {}, \"distinct\": {}, \
             \"wall_s\": {:.4}, \"queries_per_sec\": {:.3}, \
             \"path_exact\": {}, \"path_partial\": {}, \"path_full\": {}, \
             \"grafted\": {}, \"duplicate_full_computes\": {}}}{}",
            r.graft,
            r.workers,
            r.queries,
            r.distinct,
            r.wall_s,
            r.qps,
            r.path_exact,
            r.path_partial,
            r.path_full,
            r.grafted,
            r.duplicate_full_computes,
            comma
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"overload_results\": [")?;
    for (i, r) in overload.iter().enumerate() {
        let comma = if i + 1 < overload.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"load_factor\": {}, \"workers\": {}, \"offered\": {}, \
             \"admitted\": {}, \"shed\": {}, \"rejected\": {}, \"degraded\": {}, \
             \"shed_rate\": {:.4}, \"degraded_fraction\": {:.4}, \
             \"wall_s\": {:.4}, \"p95_admitted_response_ms\": {:.3}}}{}",
            r.load_factor,
            r.workers,
            r.offered,
            r.admitted,
            r.shed,
            r.rejected,
            r.degraded,
            r.shed_rate,
            r.degraded_fraction,
            r.wall_s,
            r.p95_admitted_ms,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let params = parse_args();
    // Shared runners swing run-to-run wall clocks by tens of percent, so
    // each configuration runs `rounds` passes and reports its best — the
    // standard minimum-noise throughput estimator. Rounds are interleaved
    // across configurations (round-robin, not back-to-back) so a slow
    // patch of the machine taxes every configuration equally instead of
    // biasing whichever one it happened to land on.
    let rounds = if params.quick { 1 } else { 3 };
    let mut configs: Vec<(&'static str, VmOp, usize)> = Vec::new();
    for mode in ["interactive", "batch"] {
        for op in [VmOp::Subsample, VmOp::Average] {
            for &w in &params.workers {
                configs.push((mode, op, w));
            }
        }
    }
    let mut best: Vec<Option<RunResult>> = configs.iter().map(|_| None).collect();
    for _ in 0..rounds {
        for (i, &(mode, op, workers)) in configs.iter().enumerate() {
            let r = run_once(mode, op, workers, params.seed, params.quick);
            if best[i].as_ref().is_none_or(|b| r.qps > b.qps) {
                best[i] = Some(r);
            }
        }
    }
    let results: Vec<RunResult> = best.into_iter().flatten().collect();
    println!(
        "{:<12} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "mode", "op", "workers", "wall_s", "q/s", "p50_ms", "p95_ms", "p99_ms", "hit%"
    );
    for r in &results {
        println!(
            "{:<12} {:>9} {:>8} {:>9.3} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>7.1}%",
            r.mode,
            r.op,
            r.workers,
            r.wall_s,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.ds_hit_ratio * 100.0
        );
    }
    // Contention section: tiny fully cached queries, throughput bounded
    // by scheduler overhead. Swept across worker counts — the scaling
    // curve here is the sharded scheduler's raison d'être. Best-of-rounds
    // like the main sweep, interleaved across worker counts.
    let mut contention_best: Vec<Option<ContentionResult>> =
        params.workers.iter().map(|_| None).collect();
    for _ in 0..rounds {
        for (i, &workers) in params.workers.iter().enumerate() {
            let r = run_contention_once(workers, params.seed, params.quick);
            if contention_best[i].as_ref().is_none_or(|b| r.qps > b.qps) {
                contention_best[i] = Some(r);
            }
        }
    }
    let contention: Vec<ContentionResult> = contention_best.into_iter().flatten().collect();
    println!(
        "{:<12} {:>8} {:>9} {:>10} {:>8}",
        "contention", "workers", "wall_s", "q/s", "hit%"
    );
    for r in &contention {
        println!(
            "{:<12} {:>8} {:>9.3} {:>10.2} {:>7.1}%",
            "cached",
            r.workers,
            r.wall_s,
            r.qps,
            r.ds_hit_ratio * 100.0
        );
    }
    // Graft-contention section: hot windows offered cold with adjacent
    // duplicates, grafting off vs on, sequentially (1 worker) and at the
    // largest swept worker count. The asserts inside
    // run_graft_contention_once pin the ROADMAP item 1 outcome:
    // duplicate full computes at 0 with grafted answers > 0 once copies
    // can actually race (workers > 1).
    let graft_workers = {
        let mut v = vec![1];
        let max = params.workers.iter().copied().max().unwrap_or(1);
        if max > 1 {
            v.push(max);
        }
        v
    };
    let mut graft_contention = Vec::new();
    println!(
        "{:<12} {:>6} {:>8} {:>9} {:>10} {:>6} {:>6} {:>6} {:>8} {:>6}  (source throttled, 0.2 ms/page)",
        "graft-cont",
        "graft",
        "workers",
        "wall_s",
        "q/s",
        "exact",
        "part",
        "full",
        "grafted",
        "dup"
    );
    for graft in [false, true] {
        for &workers in &graft_workers {
            let r = run_graft_contention_once(graft, workers);
            println!(
                "{:<12} {:>6} {:>8} {:>9.3} {:>10.2} {:>6} {:>6} {:>6} {:>8} {:>6}",
                "cold-dup",
                r.graft,
                r.workers,
                r.wall_s,
                r.qps,
                r.path_exact,
                r.path_partial,
                r.path_full,
                r.grafted,
                r.duplicate_full_computes
            );
            graft_contention.push(r);
        }
    }
    // Overload section: the same batch offered as a burst at 2x and 4x
    // the admission bound, through the degrade/shed ladder. The ladder's
    // outcome mix depends on the bound, not the pool size, so one run per
    // load factor (at the largest swept worker count) covers it.
    let overload_workers = params.workers.iter().copied().max().unwrap_or(1);
    let mut overload = Vec::new();
    println!(
        "{:<12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "overload", "factor", "workers", "shed%", "degr%", "rej", "wall_s", "p95_ms"
    );
    for load_factor in [2usize, 4] {
        let r = run_overload_once(load_factor, overload_workers, params.seed, params.quick);
        println!(
            "{:<12} {:>8}x {:>8} {:>8.1}% {:>8.1}% {:>9} {:>9.3} {:>10.2}",
            "burst",
            r.load_factor,
            r.workers,
            r.shed_rate * 100.0,
            r.degraded_fraction * 100.0,
            r.rejected,
            r.wall_s,
            r.p95_admitted_ms
        );
        overload.push(r);
    }
    write_json(
        &params.out_path,
        &params,
        &results,
        &contention,
        &graft_contention,
        &overload,
    )
    .expect("write BENCH_e2e.json");
    println!("wrote {}", params.out_path);
}
