//! Criterion micro-benchmarks for the Virtual Microscope processing
//! kernels: the full compute of one query window from pre-fetched pages,
//! and the `project` transformation (which must be far cheaper than
//! recomputation for reuse to pay off).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use vmqs_core::{DatasetId, Rect};
use vmqs_microscope::kernels::{
    compute_from_chunks, compute_from_pages, kernel_threads, project, render_streamed,
};
use vmqs_microscope::{RgbImage, SlideDataset, VmOp, VmQuery, PAGE_SIZE};
use vmqs_storage::{
    add_column_sums, add_column_sums_scalar, block_means, block_means_scalar, column_sums,
    column_sums_scalar, DataSource, SyntheticSource,
};

fn slide() -> SlideDataset {
    SlideDataset::new(DatasetId(0), 4096, 4096)
}

fn page(idx: u64) -> Vec<u8> {
    SyntheticSource::new()
        .read_page(DatasetId(0), idx, PAGE_SIZE)
        .unwrap()
}

fn pages_for(q: &VmQuery) -> Vec<(Rect, Arc<Vec<u8>>)> {
    q.slide
        .chunks_intersecting(&q.region)
        .into_iter()
        .map(|idx| (q.slide.chunk_rect(idx), Arc::new(page(idx))))
        .collect()
}

/// The `batch_scan` workload's full compute: a whole zoom-4 1024² window
/// from pre-fetched pages, limited to one band and allowed every core. The
/// renderer bands only above 2 MiB of samples per band and only into idle
/// cores, so at this size the two should agree; a gap means the threshold
/// moved.
fn bench_batch_scan_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_scan_window_1024px_zoom4");
    for op in [VmOp::Average, VmOp::Subsample] {
        let q = VmQuery::new(slide(), Rect::new(1024, 1024, 1024, 1024), 4, op);
        let pages = pages_for(&q);
        for threads in [1, kernel_threads()] {
            let id = BenchmarkId::new(op.name(), format!("{threads}_bands"));
            group.bench_with_input(id, &threads, |b, &threads| {
                b.iter(|| black_box(compute_from_pages(&q, &pages, threads).data[0]));
            });
        }
    }
    group.finish();
}

/// The same window as the engine renders it: `compute_from_chunks` asks
/// for each chunk row's pages as it goes, and `SyntheticSource` fills each
/// page just before the kernel reads it, so the kernel reads warm bytes,
/// as it does in the server. `fill_only` fills the same pages, in the
/// chunk rows `render_streamed` asked for them, and holds each row until
/// the next one is in, as the renderer does, but renders nothing: the
/// difference of the two is the averaging kernel's in-engine cost, which
/// the prefetched case above overstates by reading 4 MiB of pages that
/// have long left the cache.
fn bench_batch_scan_streamed(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_scan_streamed_1024px_zoom4");
    let q = VmQuery::new(slide(), Rect::new(1024, 1024, 1024, 1024), 4, VmOp::Average);
    let src = SyntheticSource::new();
    let read = |idx| Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap());
    group.bench_function("average", |b| {
        b.iter(|| black_box(compute_from_chunks(&q, read).data[0]));
    });
    let mut rows: Vec<Vec<u64>> = Vec::new();
    let (w, h) = q.output_dims();
    let fetch = |row: &[u64]| {
        rows.push(row.to_vec());
        Ok::<_, ()>(row.iter().map(|&idx| read(idx)).collect())
    };
    render_streamed(&mut RgbImage::new(w, h), (0, 0), &q, fetch).unwrap();
    group.bench_function("fill_only", |b| {
        b.iter(|| {
            let mut held: Vec<Arc<Vec<u8>>> = Vec::new();
            for row in &rows {
                let pages: Vec<_> = row.iter().map(|&idx| read(idx)).collect();
                held = pages;
            }
            black_box(held[0][0])
        });
    });
    group.finish();
}

/// The averaging kernel's two byte-sum primitives on one slab of the
/// `batch_scan` window (zoom 4, 1024 px, 3072 samples a row), dispatched
/// (AVX-512BW where the CPU has it) and by the portable reference: the
/// column sums of the slab's 4 rows, assigned and accumulated, and the
/// block means of those sums.
fn bench_byte_sums(c: &mut Criterion) {
    let mut group = c.benchmark_group("byte_sums_3072_samples_zoom4");
    let data = page(7);
    let rows: Vec<&[u8]> = data.chunks_exact(3072).take(4).collect();
    let mut sums = vec![0u16; 3072];
    let mut out = vec![0u8; 3072 / 4];
    type Sums = fn(&[&[u8]], &mut [u16]);
    type Means = fn(usize, &[u16], &mut [u8]);
    let levels: [(&str, Sums, Sums, Means); 2] = [
        ("dispatched", column_sums, add_column_sums, block_means),
        (
            "scalar",
            column_sums_scalar,
            add_column_sums_scalar,
            block_means_scalar,
        ),
    ];
    for (level, assign, add, means) in levels {
        group.bench_function(BenchmarkId::new("column_sums", level), |b| {
            b.iter(|| assign(black_box(&rows), &mut sums));
        });
        group.bench_function(BenchmarkId::new("add_column_sums", level), |b| {
            b.iter(|| add(black_box(&rows), &mut sums));
        });
        group.bench_function(BenchmarkId::new("block_means", level), |b| {
            b.iter(|| means(4, black_box(&sums), &mut out));
        });
    }
    group.finish();
}

/// Averaging of a 1024² window at the other two zooms the byte-sum
/// primitives serve, as the engine renders it (pages filled as each chunk
/// row is asked for). Zoom 4 is `batch_scan_streamed_1024px_zoom4`.
fn bench_average_by_zoom(c: &mut Criterion) {
    let mut group = c.benchmark_group("average_streamed_1024px");
    let src = SyntheticSource::new();
    let read = |idx| Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap());
    for zoom in [2, 8] {
        let q = VmQuery::new(
            slide(),
            Rect::new(1024, 1024, 1024, 1024),
            zoom,
            VmOp::Average,
        );
        group.bench_function(BenchmarkId::new("zoom", zoom), |b| {
            b.iter(|| black_box(compute_from_chunks(&q, read).data[0]));
        });
    }
    group.finish();
}

/// Projection onto a 256² output: a same-zoom pan (row copies) and a
/// factor-2 zoom-out, both ops.
fn bench_project(c: &mut Criterion) {
    let mut group = c.benchmark_group("project_256px");
    for op in [VmOp::Subsample, VmOp::Average] {
        let cached_q = VmQuery::new(slide(), Rect::new(0, 0, 1024, 1024), 2, op);
        let cached_img = compute_from_pages(&cached_q, &pages_for(&cached_q), 1);
        for (name, region, zoom) in [
            ("same_zoom", Rect::new(0, 0, 512, 512), 2),
            ("factor_2", Rect::new(0, 0, 1024, 1024), 4),
        ] {
            let target = VmQuery::new(slide(), region, zoom, op);
            let (w, h) = target.output_dims();
            let mut out = RgbImage::new(w, h);
            group.bench_function(BenchmarkId::new(op.name(), name), |b| {
                b.iter(|| black_box(project(&mut out, &target, &cached_q, cached_img.view())));
            });
        }
    }
    group.finish();
}

fn bench_full_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_from_chunks_512px_window");
    group.sample_size(20);
    for op in [VmOp::Subsample, VmOp::Average] {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 512, 512), 2, op);
        group.bench_function(op.name(), |b| {
            let src = SyntheticSource::new();
            b.iter(|| {
                let img = compute_from_chunks(&q, |idx| {
                    Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap())
                });
                black_box(img.data.len())
            });
        });
    }
    group.finish();
}

fn bench_project_vs_recompute(c: &mut Criterion) {
    // The reuse payoff in microcosm: projecting a cached zoom-2 result to
    // zoom-8 vs recomputing zoom-8 from raw chunks.
    let cached_q = VmQuery::new(slide(), Rect::new(0, 0, 1024, 1024), 2, VmOp::Subsample);
    let src = SyntheticSource::new();
    let cached_img = compute_from_chunks(&cached_q, |idx| {
        Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap())
    });
    let target = VmQuery::new(slide(), Rect::new(0, 0, 1024, 1024), 8, VmOp::Subsample);

    let mut group = c.benchmark_group("reuse_payoff_zoom8_from_zoom2");
    group.bench_function("project_from_cache", |b| {
        let (w, h) = target.output_dims();
        let mut out = RgbImage::new(w, h);
        b.iter(|| {
            black_box(project(&mut out, &target, &cached_q, cached_img.view()));
        });
    });
    group
        .sample_size(20)
        .bench_function("recompute_from_chunks", |b| {
            b.iter(|| {
                let img = compute_from_chunks(&target, |idx| {
                    Arc::new(src.read_page(DatasetId(0), idx, PAGE_SIZE).unwrap())
                });
                black_box(img.data.len())
            });
        });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_scan_window,
    bench_batch_scan_streamed,
    bench_byte_sums,
    bench_average_by_zoom,
    bench_project,
    bench_full_query,
    bench_project_vs_recompute
);
criterion_main!(benches);
