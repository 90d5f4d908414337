//! Do the paper's findings carry over to the §6 volume application? These
//! integration tests check the transferable shapes on the volume
//! workloads: caching matters, reuse-aware batch scheduling wins, overlap
//! grows with cache memory (at the volume app's much smaller output
//! sizes), and the runs stay deterministic.

use vmqs::prelude::*;
use vmqs_sim::SimReport;
use vmqs_volume::{
    generate_volume, run_volume_sim, VolCostModel, VolOp, VolQuery, VolWorkloadConfig,
};

fn run(
    strategy: Strategy,
    op: VolOp,
    ds_mb_x10: u64, // tenths of a MB, volume outputs are only 64 KB
    mode: SubmissionMode,
    seed: u64,
) -> SimReport<VolQuery> {
    let streams = generate_volume(&VolWorkloadConfig::standard(op, seed));
    let streams = match mode {
        SubmissionMode::Interactive => streams,
        SubmissionMode::Batch => {
            let queries: Vec<VolQuery> = {
                let max = streams.iter().map(|s| s.queries.len()).max().unwrap_or(0);
                (0..max)
                    .flat_map(|i| {
                        streams
                            .iter()
                            .filter_map(move |s| s.queries.get(i).copied())
                    })
                    .collect()
            };
            vec![ClientStream {
                client: ClientId(0),
                queries,
            }]
        }
    };
    let cfg = SimConfig::new(
        EngineConfig::paper_baseline()
            .with_strategy(strategy)
            .with_ds_budget(ds_mb_x10 * (1 << 20) / 10),
    )
    .with_mode(mode);
    run_volume_sim(cfg, VolCostModel::calibrated(&cfg.disk), streams)
}

#[test]
fn caching_helps_volume_queries() {
    for op in [VolOp::Mip, VolOp::AvgProj] {
        let with = run(Strategy::Fifo, op, 640, SubmissionMode::Interactive, 42);
        let without = run(Strategy::Fifo, op, 0, SubmissionMode::Interactive, 42);
        assert!(
            with.makespan < 0.9 * without.makespan,
            "{}: cached {:.1}s vs uncached {:.1}s",
            op.name(),
            with.makespan,
            without.makespan
        );
        assert!(with.average_overlap() > 0.3);
        assert_eq!(without.average_overlap(), 0.0);
    }
}

#[test]
fn overlap_grows_with_ds_memory_at_volume_scale() {
    // Volume outputs are 64 KB, so the interesting DS range is ~0.5–16 MB.
    let tiny = run(
        Strategy::Cnbf,
        VolOp::Mip,
        5,
        SubmissionMode::Interactive,
        42,
    );
    let ample = run(
        Strategy::Cnbf,
        VolOp::Mip,
        160,
        SubmissionMode::Interactive,
        42,
    );
    assert!(
        ample.average_overlap() > tiny.average_overlap(),
        "ample {:.3} vs tiny {:.3}",
        ample.average_overlap(),
        tiny.average_overlap()
    );
}

#[test]
fn reuse_aware_strategies_beat_fifo_on_volume_batches() {
    let fifo = run(
        Strategy::Fifo,
        VolOp::AvgProj,
        20,
        SubmissionMode::Batch,
        42,
    );
    let cnbf = run(
        Strategy::Cnbf,
        VolOp::AvgProj,
        20,
        SubmissionMode::Batch,
        42,
    );
    let sjf = run(Strategy::Sjf, VolOp::AvgProj, 20, SubmissionMode::Batch, 42);
    // CNBF or SJF must beat FIFO on mean response in the contended batch.
    let fifo_resp = fifo.trimmed_mean_response();
    assert!(
        cnbf.trimmed_mean_response() < fifo_resp || sjf.trimmed_mean_response() < fifo_resp,
        "fifo {:.2}, cnbf {:.2}, sjf {:.2}",
        fifo_resp,
        cnbf.trimmed_mean_response(),
        sjf.trimmed_mean_response()
    );
}

#[test]
fn depth_range_isolation_limits_reuse() {
    // The volume app's defining semantics: identical footprints over
    // *different* depth ranges share nothing. Two explicit workloads over
    // the same footprints — one with a common depth slab, one with a
    // distinct slab per query — must differ exactly in reuse.
    use vmqs_volume::VolumeDataset;
    let vol = VolumeDataset::large(DatasetId(10));
    let footprints: Vec<Rect> = (0..8)
        .map(|i| Rect::new((i % 4) * 128, (i / 4) * 128, 512, 512))
        .collect();
    let same_depth: Vec<VolQuery> = footprints
        .iter()
        .map(|&fp| VolQuery::new(vol, fp, 0, 128, 2, VolOp::Mip))
        .collect();
    let distinct_depth: Vec<VolQuery> = footprints
        .iter()
        .enumerate()
        .map(|(i, &fp)| {
            let z0 = (i as u32) * 100;
            VolQuery::new(vol, fp, z0, z0 + 128, 2, VolOp::Mip)
        })
        .collect();
    let cfg = SimConfig::paper_baseline().with_mode(SubmissionMode::Batch);
    let cost = VolCostModel::calibrated(&cfg.disk);
    let run_batch = |queries: Vec<VolQuery>| {
        run_volume_sim(
            cfg,
            cost,
            vec![ClientStream {
                client: ClientId(0),
                queries,
            }],
        )
    };
    let shared = run_batch(same_depth);
    let isolated = run_batch(distinct_depth);
    assert!(
        shared.average_overlap() > 0.3,
        "overlapping footprints at one depth must reuse: {:.3}",
        shared.average_overlap()
    );
    assert_eq!(
        isolated.average_overlap(),
        0.0,
        "distinct depth ranges must never reuse"
    );
    assert!(shared.makespan < isolated.makespan);
}

#[test]
fn volume_runs_deterministic() {
    let a = run(
        Strategy::closest_first_default(),
        VolOp::Mip,
        40,
        SubmissionMode::Batch,
        7,
    );
    let b = run(
        Strategy::closest_first_default(),
        VolOp::Mip,
        40,
        SubmissionMode::Batch,
        7,
    );
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.finish, y.finish);
    }
}

#[test]
fn mixed_strategies_all_complete_volume_workload() {
    for strategy in Strategy::paper_set() {
        let r = run(strategy, VolOp::Mip, 40, SubmissionMode::Interactive, 3);
        assert_eq!(r.records.len(), 128, "strategy {strategy}");
        for rec in &r.records {
            assert!(rec.finish >= rec.start && rec.start >= rec.arrival);
            assert!((0.0..=1.0).contains(&rec.covered_fraction));
        }
    }
}
