//! Criterion benchmarks for the §6 volume application: projection kernel
//! throughput, LOD projection vs recomputation, and full simulated runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use vmqs_core::{DatasetId, Rect, Strategy, Windowed};
use vmqs_sim::SimConfig;
use vmqs_storage::{DataSource, SyntheticSource};
use vmqs_volume::kernels::{compute_from_bricks, project, reference_render};
use vmqs_volume::{
    generate_volume, run_volume_sim, GrayImage, VolCostModel, VolOp, VolQuery, VolWorkloadConfig,
    VolumeDataset, PAGE_SIZE,
};

fn vol() -> VolumeDataset {
    VolumeDataset::new(DatasetId(0), 512, 512, 256)
}

fn fetcher() -> impl FnMut(u64) -> Arc<Vec<u8>> {
    let src = SyntheticSource::new();
    move |idx| Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap())
}

fn bench_projection_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("volume_projection_128px");
    group.sample_size(20);
    for op in [VolOp::Mip, VolOp::AvgProj] {
        let q = VolQuery::new(vol(), Rect::new(0, 0, 128, 128), 0, 128, 1, op);
        group.bench_with_input(BenchmarkId::from_parameter(op.name()), &q, |b, q| {
            let mut fetch = fetcher();
            b.iter(|| black_box(compute_from_bricks(q, &mut fetch).data[0]));
        });
    }
    group.finish();
}

fn bench_lod_project_vs_recompute(c: &mut Criterion) {
    let cached = VolQuery::new(vol(), Rect::new(0, 0, 256, 256), 0, 128, 1, VolOp::Mip);
    let cached_img = compute_from_bricks(&cached, fetcher());
    let target = VolQuery::new(vol(), Rect::new(0, 0, 256, 256), 0, 128, 4, VolOp::Mip);

    let mut group = c.benchmark_group("volume_reuse_payoff_lod4_from_lod1");
    group.bench_function("project_from_cache", |b| {
        let (w, h) = target.output_dims();
        let mut out = GrayImage::new(w, h);
        b.iter(|| black_box(project(&mut out, &target, &cached, &cached_img.data)));
    });
    group
        .sample_size(10)
        .bench_function("recompute_from_bricks", |b| {
            let mut fetch = fetcher();
            b.iter(|| black_box(compute_from_bricks(&target, &mut fetch).data[0]));
        });
    group.finish();
}

fn bench_reference_renderer(c: &mut Criterion) {
    let q = VolQuery::new(vol(), Rect::new(0, 0, 64, 64), 0, 64, 2, VolOp::AvgProj);
    c.bench_function("volume_reference_render_32px", |b| {
        b.iter(|| black_box(reference_render(&q).data[0]));
    });
}

fn bench_volume_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("volume_sim_24_queries");
    group.sample_size(20);
    for strategy in [Strategy::Fifo, Strategy::Cnbf] {
        group.bench_function(strategy.name(), |b| {
            let mut wcfg = VolWorkloadConfig::standard(VolOp::Mip, 42);
            wcfg.queries_per_client = 3;
            let streams = generate_volume(&wcfg);
            let cfg = SimConfig::paper_baseline().with_strategy(strategy);
            let cost = VolCostModel::calibrated(&cfg.disk);
            b.iter(|| black_box(run_volume_sim(cfg, cost, streams.clone()).makespan));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_projection_kernels,
    bench_lod_project_vs_recompute,
    bench_reference_renderer,
    bench_volume_sim
);
criterion_main!(benches);
