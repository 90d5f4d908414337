//! Concurrency stress test for the decomposed-lock engine: many client
//! threads race overlapping queries against an 8-worker server, and every
//! answer must be byte-for-byte identical to the single-threaded reference
//! renderer. Also checks Data Store and scheduling-graph accounting
//! invariants after the run — cheap detectors for lost updates between the
//! independently-locked engine components.

use std::sync::Arc;
use vmqs_core::{DatasetId, EngineConfig, Rect};
use vmqs_microscope::kernels::reference_render;
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_server::{QueryServer, ServerConfig};
use vmqs_storage::SyntheticSource;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 24;

/// Deterministic overlapping workload: two datasets, both ops, regions
/// arranged so neighbouring queries overlap (forcing partial reuse) and
/// some repeat exactly (forcing exact hits). Subsample queries vary zoom
/// (projection picks source pixels, so cross-zoom reuse is exact);
/// Average queries keep one zoom, because projecting averages across zoom
/// levels re-quantizes (documented ±4/channel in the kernel tests) and
/// would break the byte-exact oracle below.
fn workload(client: usize) -> Vec<VmQuery> {
    let slides = [
        SlideDataset::new(DatasetId(0), 900, 900),
        SlideDataset::new(DatasetId(1), 700, 700),
    ];
    (0..QUERIES_PER_CLIENT)
        .map(|i| {
            // A small LCG keeps the workload deterministic but scrambled
            // across clients so interleavings differ run to run.
            let r = (client as u64 * 1_000_003 + i as u64)
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
            let side = 120 + ((r >> 24) % 3) as u32 * 40; // 120/160/200
            let max = slide.width.min(slide.height) - side;
            // Snap origins to a coarse grid: repeats become exact hits,
            // neighbours overlap.
            let x = ((r >> 32) as u32 % max) / 80 * 80;
            let y = ((r >> 44) as u32 % max) / 80 * 80;
            VmQuery::new(slide, Rect::new(x, y, side, side), zoom, op)
        })
        .collect()
}

#[test]
fn stress_eight_workers_matches_reference_renderer() {
    let total = CLIENTS * QUERIES_PER_CLIENT;
    let cfg = ServerConfig::new(
        EngineConfig::small()
            .with_threads(8)
            // Small enough that the run evicts, exercising swap-out edges.
            .with_ds_budget(2 << 20),
    );
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            scope.spawn(move || {
                for spec in workload(client) {
                    let res = server.submit(spec).wait().expect("query failed");
                    assert_eq!(
                        *res.image,
                        reference_render(&spec).data,
                        "answer for {spec:?} diverged from the reference renderer"
                    );
                }
            });
        }
    });
    server.drain();

    // Metrics invariant: one record per submitted query.
    let records = server.records();
    assert_eq!(records.len(), total);
    let summary = server.summary();
    assert_eq!(summary.completed, total);
    assert_eq!(
        summary.exact_hits + summary.partial_reuse + summary.full_compute,
        summary.completed,
        "every completed query takes exactly one answer path"
    );

    // Data Store invariant: every query performs exactly one lookup,
    // plus one re-probe whenever the publish epoch moved between its
    // first probe and its compute, and eviction accounting must balance.
    let ds = server.ds_stats();
    let (relookups, converted) = server.relookup_stats();
    assert!(converted <= relookups);
    assert_eq!(
        (ds.exact_hits + ds.partial_hits + ds.misses) as usize,
        total + relookups as usize
    );
    assert!(
        ds.evicted <= ds.committed,
        "cannot evict more than committed"
    );
    assert!(ds.evicted > 0, "workload sized to overflow the DS budget");

    // Scheduling-graph invariant: inserts equal dequeues (nothing lost or
    // double-run between the sched lock and the worker pool).
    let graph = server.graph_stats();
    assert_eq!(graph.inserted as usize, total);
    assert_eq!(graph.dequeued as usize, total);
    assert!(graph.swapped_out <= graph.inserted);

    server.shutdown();
}

#[test]
fn stress_batch_submission_is_lossless() {
    let specs: Vec<VmQuery> = (0..CLIENTS).flat_map(workload).collect();
    let server = QueryServer::new(
        ServerConfig::new(EngineConfig::small().with_threads(8)),
        Arc::new(SyntheticSource::new()),
    );
    let handles = server.submit_batch(specs.iter().copied());
    server.drain();
    for (handle, spec) in handles.into_iter().zip(&specs) {
        let res = handle
            .try_wait()
            .expect("drain() must imply every handle is fulfilled")
            .expect("query failed");
        assert_eq!(*res.image, reference_render(spec).data, "query {spec:?}");
    }
    assert_eq!(server.records().len(), specs.len());
    server.shutdown();
}
