//! Criterion benchmarks of the discrete-event simulator itself (events
//! per second at paper scale) plus reduced-scale runs of every figure
//! pipeline, so `cargo bench` exercises the full reproduction path
//! end-to-end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmqs_core::{EngineConfig, Strategy};
use vmqs_microscope::VmOp;
use vmqs_sim::{run_sim, SimConfig, SubmissionMode};
use vmqs_workload::{flatten_to_batch, generate, WorkloadConfig};

fn reduced_workload(op: VmOp, seed: u64) -> Vec<vmqs_sim::ClientStream> {
    let mut cfg = WorkloadConfig::paper(op, seed);
    cfg.queries_per_client = 4; // 64 queries instead of 256
    generate(&cfg)
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_full_run_64_queries");
    group.sample_size(20);
    for strategy in [Strategy::Fifo, Strategy::Cnbf, Strategy::Sjf] {
        group.bench_function(strategy.name(), |b| {
            let streams = reduced_workload(VmOp::Subsample, 42);
            let cfg = SimConfig::new(EngineConfig::paper_baseline().with_strategy(strategy));
            b.iter(|| {
                let report = run_sim(cfg, streams.clone());
                black_box(report.records.len())
            });
        });
    }
    group.finish();
}

fn bench_fig_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_pipelines_reduced");
    group.sample_size(10);
    // Fig 4 point: thread sweep member.
    group.bench_function("fig4_point_8_threads", |b| {
        let streams = reduced_workload(VmOp::Subsample, 42);
        let cfg = SimConfig::new(
            EngineConfig::paper_baseline()
                .with_strategy(Strategy::Cnbf)
                .with_threads(8),
        );
        b.iter(|| black_box(run_sim(cfg, streams.clone()).trimmed_mean_response()));
    });
    // Fig 5/6 point: DS sweep member.
    group.bench_function("fig5_point_32mb", |b| {
        let streams = reduced_workload(VmOp::Average, 42);
        let cfg = SimConfig::new(
            EngineConfig::paper_baseline()
                .with_strategy(Strategy::closest_first_default())
                .with_ds_budget(32 << 20),
        );
        b.iter(|| black_box(run_sim(cfg, streams.clone()).average_overlap()));
    });
    // Fig 7 point: batch mode.
    group.bench_function("fig7_point_batch", |b| {
        let streams = flatten_to_batch(&reduced_workload(VmOp::Subsample, 42));
        let cfg = SimConfig::new(EngineConfig::paper_baseline().with_strategy(Strategy::Cnbf))
            .with_mode(SubmissionMode::Batch);
        b.iter(|| black_box(run_sim(cfg, streams.clone()).makespan));
    });
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("workload_generate_paper_256", |b| {
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 42);
        b.iter(|| black_box(generate(&cfg).len()));
    });
}

criterion_group!(
    benches,
    bench_sim_throughput,
    bench_fig_pipelines,
    bench_workload_generation
);
criterion_main!(benches);
