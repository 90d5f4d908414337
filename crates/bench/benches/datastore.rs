//! Criterion micro-benchmarks for the Data Store Manager: semantic lookup
//! cost as the store grows, and allocation/eviction churn.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vmqs_core::QueryId;
use vmqs_core::{DatasetId, Rect};
use vmqs_datastore::{DataStore, Payload};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};

fn filled_store(n: u64) -> DataStore<VmQuery> {
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let mut ds = DataStore::new(u64::MAX, 2048);
    let mut ev = Vec::new();
    for i in 0..n {
        // Pseudo-random scatter across the slide so candidate counts stay
        // realistic as n grows.
        let x = ((i * 997) % 27000) as u32;
        let y = ((i * 641) % 27000) as u32;
        let spec = VmQuery::new(slide, Rect::new(x, y, 2048, 2048), 2, VmOp::Subsample);
        ds.insert(
            QueryId(i),
            spec,
            spec_outsize(&spec),
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
    }
    ds
}

fn spec_outsize(q: &VmQuery) -> u64 {
    use vmqs_core::QuerySpec;
    q.qoutsize()
}

fn bench_lookup(c: &mut Criterion) {
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let probe = VmQuery::new(slide, Rect::new(512, 512, 4096, 4096), 4, VmOp::Subsample);
    let mut group = c.benchmark_group("ds_lookup");
    for &n in &[16u64, 64, 256] {
        let ds = filled_store(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ds.lookup(&probe).len()));
        });
    }
    group.finish();
}

fn bench_insert_with_eviction(c: &mut Criterion) {
    let slide = SlideDataset::paper_scale(DatasetId(0));
    c.bench_function("ds_insert_evicting", |b| {
        // Budget fits ~8 blobs of 3 MB; steady-state inserts always evict.
        let mut ds: DataStore<VmQuery> = DataStore::new(24 << 20, 1024);
        let mut ev = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            let x = (i % 26) as u32 * 1024;
            let spec = VmQuery::new(slide, Rect::new(x, 0, 1024, 1024), 1, VmOp::Subsample);
            ds.insert(QueryId(i), spec, 3 << 20, Payload::Virtual, &mut ev)
                .unwrap();
            i += 1;
            ev.clear();
            black_box(ds.used())
        });
    });
}

fn bench_indexed_vs_linear_lookup(c: &mut Criterion) {
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let probe = VmQuery::new(slide, Rect::new(512, 512, 4096, 4096), 4, VmOp::Subsample);
    let mut group = c.benchmark_group("ds_lookup_indexed_vs_linear");
    for &n in &[256u64, 4096] {
        let ds = filled_store(n);
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| black_box(ds.lookup_filtered(&probe, None).len()));
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| black_box(ds.lookup(&probe).len()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lookup,
    bench_insert_with_eviction,
    bench_indexed_vs_linear_lookup
);
criterion_main!(benches);
