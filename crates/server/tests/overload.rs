//! Overload smoke tests (DESIGN.md §10): the threaded engine at 4x its
//! admission capacity, with transient faults layered on top. The
//! contract: every submission resolves with exactly one typed outcome
//! (conservation), admission/shed decisions leak no scheduling state
//! (`check_invariants`), degraded answers are byte-identical to the
//! reference render of the *degraded* plan, and the shed/degrade
//! machinery actually fires (nonzero counters). Event traces are
//! written under `target/overload/` (this crate's directory), which CI's
//! test job uploads when a test fails.

use std::sync::Arc;
use std::time::Duration;
use vmqs_core::{DatasetId, OverloadConfig, Rect};
use vmqs_microscope::kernels::reference_render;
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_obs::events_to_json;
use vmqs_server::{QueryServer, ServerConfig, ServerError};
use vmqs_storage::{FaultConfig, FaultInjectingSource, SyntheticSource};

const WORKERS: usize = 8;
const MAX_PENDING: usize = 12;
/// Offered load: 4x the admission bound.
const QUERIES: usize = 4 * MAX_PENDING;

/// Deterministic overlapping workload (same LCG scheme as the fault
/// sweep), biased toward `Average` so the degradation ladder has
/// something to downgrade.
fn workload() -> Vec<VmQuery> {
    let slide = SlideDataset::new(DatasetId(0), 800, 800);
    (0..QUERIES)
        .map(|i| {
            let r = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = if (r >> 5) & 3 == 0 {
                VmOp::Subsample
            } else {
                VmOp::Average
            };
            let zoom = 2u32;
            let side = 120 + ((r >> 24) % 2) as u32 * 40;
            let max = slide.width.min(slide.height) - side;
            let x = ((r >> 32) as u32 % max) / 80 * 80;
            let y = ((r >> 44) as u32 % max) / 80 * 80;
            VmQuery::new(slide, Rect::new(x, y, side, side), zoom, op)
        })
        .collect()
}

/// Writes the server's event trace under `target/overload/` (uploaded
/// by CI on failure) and returns the path.
fn dump_trace(name: &str, server: &QueryServer) -> String {
    let dir = "target/overload";
    std::fs::create_dir_all(dir).ok();
    let path = format!("{dir}/{name}.json");
    std::fs::write(&path, events_to_json(&server.events())).ok();
    path
}

/// Typed-outcome tally for one run.
#[derive(Default, Debug)]
struct Tally {
    completed: u64,
    failed: u64,
    timed_out: u64,
    rejected: u64,
    shed: u64,
    degraded: u64,
}

/// Submits the whole batch against paused workers (so the admission
/// ladder sees the full offered load), resumes, and waits every handle,
/// checking each `Ok` answer against the reference renderer for the
/// spec that actually ran.
fn run_overloaded(ov: OverloadConfig, fault_rate: f64, name: &str) -> (Tally, QueryServer) {
    let specs = workload();
    let cfg = ServerConfig::small()
        .with_threads(WORKERS)
        .with_start_paused(true)
        .with_overload(ov)
        .with_retry_seed(11);
    let source = Arc::new(FaultInjectingSource::new(
        SyntheticSource::new(),
        FaultConfig::transient(fault_rate, 11),
    ));
    let server = QueryServer::new(cfg, source);
    let handles = server.submit_batch(specs.iter().copied());
    server.resume_workers();

    let mut t = Tally::default();
    for (h, submitted) in handles.into_iter().zip(&specs) {
        match h.wait() {
            Ok(res) => {
                t.completed += 1;
                if res.record.degraded {
                    t.degraded += 1;
                    assert_eq!(
                        res.record.spec.op,
                        VmOp::Subsample,
                        "degradation floor is Subsample"
                    );
                    assert_eq!(submitted.op, VmOp::Average, "only Average degrades");
                }
                // The record's spec is the plan that actually ran —
                // degraded or not, the answer must match its reference.
                let reference = reference_render(&res.record.spec);
                assert_eq!(
                    *res.image,
                    reference.data,
                    "answer diverged from reference (trace: {})",
                    dump_trace(name, &server)
                );
            }
            Err(ServerError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO, "retry hint must be usable");
                t.rejected += 1;
            }
            Err(ServerError::Shed { pressure }) => {
                assert!(
                    (0.0..=1.0).contains(&pressure),
                    "shed pressure out of range: {pressure}"
                );
                t.shed += 1;
            }
            Err(ServerError::Timeout { .. }) => t.timed_out += 1,
            Err(ServerError::Io { .. }) => t.failed += 1,
            Err(e) => panic!(
                "unexpected outcome: {e} (trace: {})",
                dump_trace(name, &server)
            ),
        }
    }
    server.drain();
    (t, server)
}

/// Asserts conservation at the handle level and cross-checks every
/// bucket against the metrics registry.
fn assert_conservation(t: &Tally, server: &QueryServer, name: &str) {
    let trace = dump_trace(name, server);
    assert_eq!(
        t.completed + t.failed + t.timed_out + t.rejected + t.shed,
        QUERIES as u64,
        "conservation violated ({t:?}, trace: {trace})"
    );
    let m = server.metrics();
    let counter = |k: &str| m.counters.get(k).copied().unwrap_or(0);
    assert_eq!(counter("vmqs_queries_submitted_total"), QUERIES as u64);
    assert_eq!(counter("vmqs_queries_completed_total"), t.completed);
    assert_eq!(counter("vmqs_queries_failed_total"), t.failed);
    assert_eq!(counter("vmqs_queries_timed_out_total"), t.timed_out);
    assert_eq!(counter("vmqs_queries_rejected_total"), t.rejected);
    assert_eq!(counter("vmqs_queries_shed_total"), t.shed);
    // The degraded counter tallies admission-time decisions, so it also
    // covers degraded queries that were later shed or failed; every
    // degraded *completion* must be within it.
    assert!(counter("vmqs_queries_degraded_total") >= t.degraded);
    server.check_invariants();
}

#[test]
fn overload_smoke_sheds_and_degrades_at_4x_load_with_faults() {
    // Shedding keeps the queue below the hard bound, so this config
    // exercises degrade + shed; 10% transient faults ride along to
    // prove the overload paths coexist with the retry machinery.
    let ov = OverloadConfig::default()
        .with_max_pending(MAX_PENDING)
        .with_degrade_threshold(0.5)
        .with_shed_threshold(0.85);
    let (t, server) = run_overloaded(ov, 0.1, "shed-degrade-faults");
    assert!(
        t.shed > 0,
        "4x load past the shed threshold must shed: {t:?}"
    );
    assert!(t.degraded > 0, "pressure must degrade some Averages: {t:?}");
    assert!(t.completed > 0, "survivors must still complete: {t:?}");
    assert_conservation(&t, &server, "shed-degrade-faults");
    server.shutdown();
}

#[test]
fn overload_smoke_bounded_queue_rejects_at_4x_load() {
    // No thresholds: the bounded queue alone must refuse the excess
    // with a typed, retryable error.
    let ov = OverloadConfig::default().with_max_pending(MAX_PENDING);
    let (t, server) = run_overloaded(ov, 0.0, "reject-only");
    assert!(
        t.rejected >= QUERIES as u64 / 2,
        "4x a hard bound must reject most of the batch: {t:?}"
    );
    assert_eq!(t.shed, 0, "no shed threshold, no shedding: {t:?}");
    assert_eq!(t.degraded, 0, "no degrade threshold, no degradation: {t:?}");
    assert_conservation(&t, &server, "reject-only");
    server.shutdown();
}

#[test]
fn overload_disabled_admits_everything() {
    // The default config must be a no-op: all queries admitted and
    // completed, zero overload counters, even with faults in play.
    let (t, server) = run_overloaded(OverloadConfig::default(), 0.05, "disabled");
    assert_eq!(t.rejected + t.shed + t.degraded, 0, "{t:?}");
    assert_eq!(t.completed + t.failed + t.timed_out, QUERIES as u64);
    assert_conservation(&t, &server, "disabled");
    server.shutdown();
}
