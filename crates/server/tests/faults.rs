//! Fault-injection robustness tests (DESIGN.md §8): the threaded engine
//! under seeded transient faults, permanent page poisoning, and query
//! deadlines. The contract under every fault mix: each submitted query
//! resolves with `Ok` or a typed `Err` (no hangs, no worker panics),
//! successful answers stay byte-identical to the single-threaded
//! reference renderer, and graph/Data-Store accounting balances so a
//! failed query leaks no scheduling state.

use std::sync::Arc;
use std::time::Duration;
use vmqs_core::{DatasetId, Rect};
use vmqs_microscope::kernels::reference_render;
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_pagespace::RetryPolicy;
use vmqs_server::{QueryServer, ServerConfig, ServerError};
use vmqs_storage::{FaultConfig, FaultInjectingSource, SyntheticSource};

const QUERIES: usize = 48;

/// Deterministic overlapping workload over two slides (same LCG scheme as
/// the stress test): repeats force exact hits, neighbours force partial
/// reuse, and ops/zooms are restricted to combinations the byte-exact
/// reference oracle supports.
fn workload() -> Vec<VmQuery> {
    let slides = [
        SlideDataset::new(DatasetId(0), 800, 800),
        SlideDataset::new(DatasetId(1), 600, 600),
    ];
    (0..QUERIES)
        .map(|i| {
            let r = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slide = slides[(r >> 8) as usize % slides.len()];
            let op = if (r >> 5) & 1 == 0 {
                VmOp::Subsample
            } else {
                VmOp::Average
            };
            let zoom = match op {
                VmOp::Subsample => 1u32 << ((r >> 16) % 3),
                VmOp::Average => 2,
            };
            let side = 120 + ((r >> 24) % 2) as u32 * 40;
            let max = slide.width.min(slide.height) - side;
            let x = ((r >> 32) as u32 % max) / 80 * 80;
            let y = ((r >> 44) as u32 % max) / 80 * 80;
            VmQuery::new(slide, Rect::new(x, y, side, side), zoom, op)
        })
        .collect()
}

/// Runs the workload against a server with `threads` workers reading
/// through a fault injector at `rate`, and checks the robustness
/// contract. Returns (ok, failed) counts.
fn run_sweep(rate: f64, threads: usize, seed: u64) -> (usize, usize) {
    let specs = workload();
    let cfg = ServerConfig::small()
        .with_threads(threads)
        // Small budget: error paths must coexist with eviction/swap-out.
        .with_ds_budget(2 << 20)
        .with_retry(RetryPolicy::default_io())
        .with_retry_seed(seed);
    // Keep a typed handle to the injector so its own draw counters can be
    // cross-checked against the server's accounting after the run.
    let source = Arc::new(FaultInjectingSource::new(
        SyntheticSource::new(),
        FaultConfig::transient(rate, seed),
    ));
    let server = QueryServer::new(cfg, source.clone());

    let handles = server.submit_batch(specs.iter().copied());
    let (mut ok, mut failed) = (0, 0);
    for (h, spec) in handles.into_iter().zip(&specs) {
        match h.wait() {
            Ok(res) => {
                ok += 1;
                assert_eq!(
                    *res.image,
                    reference_render(spec).data,
                    "fault rate {rate}: surviving answer for {spec:?} diverged"
                );
            }
            Err(e) => {
                failed += 1;
                assert!(!e.is_timeout(), "no deadline configured, got {e}");
            }
        }
    }
    assert_eq!(ok + failed, QUERIES, "every query must resolve");

    // No scheduling state may leak: the graph and DS must balance even
    // when some queries errored out mid-flight.
    server.check_invariants();
    let graph = server.graph_stats();
    assert_eq!(graph.inserted as usize, QUERIES);
    assert_eq!(graph.dequeued as usize, QUERIES);

    let sum = server.summary();
    assert_eq!(sum.completed, ok);
    assert_eq!(sum.failed, failed);
    assert_eq!(sum.timed_out, 0);
    let ps = server.ps_stats();
    if rate == 0.0 {
        assert_eq!(ps.read_faults, 0, "clean source must inject nothing");
        assert_eq!(failed, 0, "clean source must fail nothing");
    } else if rate >= 0.1 {
        // At low rates a small workload's page set may legitimately draw
        // no fault; at 10% injection must be visible and must exercise
        // the retry path.
        assert!(ps.read_faults > 0, "rate {rate} must inject faults");
        assert!(
            ps.read_retries > 0,
            "rate {rate} must trigger the retry path"
        );
    }

    // The server's fault counters must agree with the injector's own draw
    // log: every injected error is exactly one observed read fault, no
    // more, no less.
    let inj = source.stats();
    assert_eq!(
        ps.read_faults,
        inj.transient + inj.permanent,
        "rate {rate}: server fault count must match the injector's draws"
    );
    assert!(
        ps.read_retries <= ps.read_faults,
        "retries can never exceed observed faults"
    );

    // And the metrics registry must mirror the same counters.
    let metrics = server.metrics();
    for (name, v) in ps.series() {
        assert_eq!(metrics.counters[name], v, "rate {rate}: {name}");
    }

    // shutdown() panics if any worker thread panicked during the run.
    server.shutdown();
    (ok, failed)
}

#[test]
fn fault_sweep_transient_rates_and_worker_counts() {
    for &threads in &[1usize, 8] {
        for &rate in &[0.0f64, 0.01, 0.10] {
            run_sweep(rate, threads, 0xFA_u64 + threads as u64);
        }
    }
}

#[test]
fn ten_percent_faults_mostly_recover_via_retries() {
    // With 4 retries, a query only fails on a 5-long streak of transient
    // draws (~1e-5 per page at 10%), so the sweep's acceptance bar —
    // "all queries complete" — should be met by recovery, not mass
    // failure. Assert most queries survive at 8 workers.
    let (ok, failed) = run_sweep(0.10, 8, 0xBEEF);
    assert!(
        ok >= QUERIES * 9 / 10,
        "10% transient faults should mostly recover: {ok} ok / {failed} failed"
    );
}

#[test]
fn fault_failures_are_deterministic_per_seed() {
    // Which queries fail depends only on the seed (attempt numbering is
    // shared per page), so single-threaded runs replay exactly.
    let no_retry = |seed: u64| -> Vec<bool> {
        let specs = workload();
        let cfg = ServerConfig::small()
            .with_threads(1)
            .with_retry(RetryPolicy::none())
            .with_retry_seed(seed);
        let source =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(0.25, seed));
        let server = QueryServer::new(cfg, Arc::new(source));
        let outcomes = specs
            .iter()
            .map(|q| server.submit(*q).wait().is_err())
            .collect();
        server.shutdown();
        outcomes
    };
    assert_eq!(no_retry(7), no_retry(7), "same seed must replay");
    assert!(
        no_retry(7).iter().any(|&e| e),
        "25% faults with no retries must fail something"
    );
}

#[test]
fn poisoned_pages_fail_their_query_and_spare_peers() {
    // Find a slide region with a permanently poisoned page and one with
    // none, using the pure predicate the injector itself consults.
    let slide = SlideDataset::new(DatasetId(0), 800, 800);
    let fault = FaultConfig::none().with_permanent(0.05);
    let fault = FaultConfig { seed: 17, ..fault };
    let regions: Vec<Rect> = (0..8)
        .flat_map(|gy| (0..8).map(move |gx| Rect::new(gx * 100, gy * 100, 100, 100)))
        .collect();
    let poisoned_region = regions
        .iter()
        .find(|r| {
            slide
                .chunks_intersecting(r)
                .iter()
                .any(|&p| fault.page_is_poisoned(slide.id, p))
        })
        .copied()
        .expect("5% poisoning over 64 regions must hit one");
    let clean_region = regions
        .iter()
        .find(|r| {
            slide
                .chunks_intersecting(r)
                .iter()
                .all(|&p| !fault.page_is_poisoned(slide.id, p))
        })
        .copied()
        .expect("5% poisoning over 64 regions must miss one");

    let source = FaultInjectingSource::new(SyntheticSource::new(), fault);
    let server = QueryServer::new(ServerConfig::small().with_threads(2), Arc::new(source));

    let bad = VmQuery::new(slide, poisoned_region, 1, VmOp::Subsample);
    let err = server
        .submit(bad)
        .wait()
        .expect_err("poisoned page must fail");
    match err {
        ServerError::Io { transient, .. } => {
            assert!(!transient, "permanent faults must not read as retryable")
        }
        other => panic!("expected Io error, got {other}"),
    }

    // The failure must not have wedged the engine: a clean peer query on
    // the same dataset still answers exactly.
    let good = VmQuery::new(slide, clean_region, 1, VmOp::Subsample);
    let res = server
        .submit(good)
        .wait()
        .expect("clean region must succeed");
    assert_eq!(*res.image, reference_render(&good).data);

    server.check_invariants();
    let sum = server.summary();
    assert_eq!((sum.completed, sum.failed), (1, 1));
    assert!(
        server.ps_stats().failed_reads > 0,
        "the failed read must be counted"
    );
    server.shutdown();
}

#[test]
fn zero_deadline_times_out_everything_without_leaking() {
    let specs = workload();
    let cfg = ServerConfig::small()
        .with_threads(4)
        .with_query_timeout(Some(Duration::ZERO));
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
    for h in server.submit_batch(specs.iter().copied()) {
        let e = h.wait().expect_err("zero deadline must cancel");
        assert!(e.is_timeout(), "expected timeout, got {e}");
    }
    server.check_invariants();
    let sum = server.summary();
    assert_eq!(sum.timed_out, QUERIES);
    assert_eq!((sum.completed, sum.failed), (0, 0));
    let graph = server.graph_stats();
    assert_eq!(
        graph.inserted, graph.dequeued,
        "cancelled queries must still be dequeued"
    );
    server.shutdown();
}

#[test]
fn generous_deadline_never_fires() {
    let specs = workload();
    let cfg = ServerConfig::small()
        .with_threads(4)
        .with_query_timeout(Some(Duration::from_secs(300)));
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
    for (h, spec) in server
        .submit_batch(specs.iter().copied())
        .into_iter()
        .zip(&specs)
    {
        let res = h.wait().expect("generous deadline must not fire");
        assert_eq!(*res.image, reference_render(spec).data);
    }
    assert_eq!(server.summary().timed_out, 0);
    server.shutdown();
}

#[test]
fn faults_and_timeouts_compose() {
    // Transient faults under a deadline long enough for most queries but
    // a real ceiling: every query must still resolve one way or the
    // other, and the engine must stay consistent.
    let specs = workload();
    let cfg = ServerConfig::small()
        .with_threads(8)
        .with_retry(RetryPolicy::default_io())
        .with_query_timeout(Some(Duration::from_secs(10)));
    let source =
        FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(0.10, 0xC0));
    let server = QueryServer::new(cfg, Arc::new(source));
    let mut resolved = 0;
    for (h, spec) in server
        .submit_batch(specs.iter().copied())
        .into_iter()
        .zip(&specs)
    {
        if let Ok(res) = h.wait() {
            assert_eq!(*res.image, reference_render(spec).data);
        }
        resolved += 1;
    }
    assert_eq!(resolved, QUERIES);
    server.check_invariants();
    let sum = server.summary();
    assert_eq!(sum.completed + sum.failed + sum.timed_out, QUERIES);
    server.shutdown();
}

/// Unique per-process temp directory for the tier-2 spill store (the
/// determinism lints ban wall-clock naming schemes).
fn spill_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vmqs-faults-{}-{tag}-{n}", std::process::id()))
}

/// Tier-2 poison sweep (DESIGN.md §14): a tight tier-1 budget demotes
/// warm results to the spill store, the workload is replayed so the
/// repeats try to re-heat them, and a fraction of tier-2 frame reads is
/// permanently poisoned. The contract: a poisoned restore falls back to
/// recomputation through the typed-error path — no query ever *fails*
/// because tier 2 lied, answers stay byte-exact, and the engine's
/// accounting balances at full worker parallelism.
fn run_tier2_poison_sweep(rate: f64, threads: usize, seed: u64) {
    let specs = workload();
    let dir = spill_dir("sweep");
    let fault = FaultConfig {
        seed,
        ..FaultConfig::none().with_permanent(rate)
    };
    let cfg = ServerConfig::small()
        .with_threads(threads)
        // Tier 1 far smaller than the working set, tier 2 roomy: victims
        // spill instead of dropping, and spilled frames survive until the
        // replay pass asks for them back.
        .with_ds_budget(128 << 10)
        .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased)
        .with_spill_dir(Some(dir.clone()))
        .with_tier2_budget(4 << 20)
        .with_spill_faults(fault);
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
    for pass in 0..2 {
        for (h, spec) in server
            .submit_batch(specs.iter().copied())
            .into_iter()
            .zip(&specs)
        {
            let res = h.wait().unwrap_or_else(|e| {
                panic!("rate {rate} pass {pass}: a poisoned tier-2 frame must recompute, got {e}")
            });
            assert_eq!(
                *res.image,
                reference_render(spec).data,
                "rate {rate} pass {pass}: answer for {spec:?} diverged"
            );
        }
    }
    server.check_invariants();
    let sum = server.summary();
    assert_eq!(
        sum.completed,
        2 * QUERIES,
        "rate {rate}: every query completes"
    );
    assert_eq!(
        sum.failed, 0,
        "rate {rate}: tier-2 faults must never fail a query"
    );
    assert!(
        sum.spilled >= 1,
        "rate {rate}: pressure must demote entries to tier 2"
    );
    if rate == 0.0 {
        assert_eq!(sum.restore_failures, 0, "clean tier 2 must not fail reads");
        assert!(
            sum.restored >= 1,
            "replayed repeats must re-heat at least one spilled entry"
        );
    }
    if rate >= 1.0 {
        // An entry whose frame is still in flight re-heats from the bytes
        // it kept; one that needs its frame cannot. Every frame read is
        // poisoned, so each one failed and dropped its entry.
        let frame_reads = server.metrics().histograms["vmqs_tier2_read_seconds"].count;
        assert_eq!(
            frame_reads, sum.restore_failures,
            "every tier-2 read poisoned: no restore reads a frame"
        );
        assert!(
            sum.restore_failures >= 1,
            "the replay pass must hit a poisoned frame"
        );
    }
    // shutdown() panics if any worker thread panicked during the run.
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn tier2_poison_sweep_falls_back_to_recompute() {
    for &rate in &[0.0f64, 0.5, 1.0] {
        run_tier2_poison_sweep(rate, 8, 0x7E2 + (rate * 8.0) as u64);
    }
}
