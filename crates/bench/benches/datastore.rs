//! Criterion micro-benchmarks for the Data Store Manager: semantic lookup
//! cost as the store grows, allocation/eviction churn, and what choosing
//! a victim costs when the store is full of small entries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vmqs_core::{BlobId, DatasetId, QueryId, Rect};
use vmqs_datastore::{DataStore, EvictionPolicy, Payload};
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
        ds.insert_costed(
            QueryId(i),
            spec,
            spec_outsize(&spec),
            0.0,
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
            ds.insert_costed(QueryId(i), spec, 3 << 20, 0.0, Payload::Virtual, &mut ev)
                .unwrap();
            i += 1;
            ev.clear();
            black_box(ds.used())
        });
    });
}

/// One publish into a store that is exactly full of `n` 32x32 tiles (341
/// is `cached_replay`'s 1 MiB store), after one touch of a resident
/// entry, as a query's lookup would leave it. Under LRU the insert evicts
/// the oldest tile and takes its place; under cost-based admission the
/// incoming duplicate cannot beat the cheapest resident and is refused,
/// so all that is timed is finding that resident.
fn bench_pick_victim_full_store(c: &mut Criterion) {
    const SIDE: u32 = 32;
    const TILE_BYTES: u64 = 3 * (SIDE * SIDE) as u64;
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let per_row = 30_000 / SIDE as u64;
    let tile = |i: u64| {
        let (x, y) = (
            (i % per_row) as u32 * SIDE,
            (i / per_row % per_row) as u32 * SIDE,
        );
        VmQuery::new(slide, Rect::new(x, y, SIDE, SIDE), 1, VmOp::Subsample)
    };
    let mut group = c.benchmark_group("pick_victim_full_store");
    for &n in &[341u64, 5000] {
        for (name, policy) in [
            ("lru", EvictionPolicy::Lru),
            ("cost", EvictionPolicy::CostBased),
        ] {
            let mut ds: DataStore<VmQuery> = DataStore::with_policy(n * TILE_BYTES, 512, policy);
            let mut ev = Vec::new();
            for i in 0..n {
                ds.insert_costed(
                    QueryId(i),
                    tile(i),
                    TILE_BYTES,
                    1.0,
                    Payload::Virtual,
                    &mut ev,
                )
                .unwrap();
            }
            // The entry a query's lookup would have touched on its way
            // here. Blob ids are handed out in insertion order: a refused
            // insert takes none, so under cost-based admission the
            // residents stay blobs `0..n`; under LRU the tile inserted
            // `n / 2` inserts ago is still resident.
            let mut next = n;
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| {
                    let refuses = policy == EvictionPolicy::CostBased;
                    ds.touch(BlobId(if refuses { next % n } else { next - n / 2 }));
                    let spec = tile(next);
                    let cached = ds.insert_costed(
                        QueryId(next),
                        spec,
                        TILE_BYTES,
                        0.5,
                        Payload::Virtual,
                        &mut ev,
                    );
                    next += 1;
                    ev.clear();
                    black_box(cached.is_ok())
                });
            });
            assert_eq!(ds.len() as u64, n, "the store stays exactly full");
        }
    }
    group.finish();
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
    bench_pick_victim_full_store,
    bench_indexed_vs_linear_lookup
);
criterion_main!(benches);
