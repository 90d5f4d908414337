//! Criterion micro-benchmarks for the storage layer: the spill frame
//! checksum, a tier-2 frame written and read back (what a Data Store
//! demotion and a RESTORABLE hit cost, DESIGN.md §14), and synthetic
//! page production.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::path::Path;
use vmqs_core::{BlobId, DatasetId};
use vmqs_storage::{crc32, crc32_table, DataSource, SpillStore, SyntheticSource};

/// One 256x256 RGB tile, the benchmark's `zipf_spill` payload.
const TILE: usize = 192 << 10;
/// Frames cycled through, the size of `zipf_spill`'s spill tier.
const BLOBS: u64 = 32;

fn bytes(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

/// The frame checksum as frames compute it (`dispatched`: carry-less
/// multiply where the CPU has it) and by the portable table kernel.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for (name, n) in [("4KiB", 4 << 10), ("192KiB", TILE)] {
        let data = bytes(n);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("dispatched", name), &data, |b, data| {
            b.iter(|| crc32(black_box(data)));
        });
        group.bench_with_input(BenchmarkId::new("table", name), &data, |b, data| {
            b.iter(|| crc32_table(black_box(data)));
        });
    }
    group.finish();
}

fn bench_spill(c: &mut Criterion) {
    // Real files, on whatever holds the target directory.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-spill");
    let store = SpillStore::new(&dir).expect("spill directory under the target dir");
    let meta = bytes(48);
    let payload = bytes(TILE);
    let mut group = c.benchmark_group("spill");
    group.throughput(Throughput::Bytes(TILE as u64));
    let mut next = 0u64;
    group.bench_function("write_192KiB", |b| {
        b.iter(|| {
            next += 1;
            store.write(BlobId(next % BLOBS), &meta, &payload)
        });
    });
    for blob in 0..BLOBS {
        store.write(BlobId(blob), &meta, &payload).expect("prefill");
    }
    group.bench_function("read_192KiB", |b| {
        b.iter(|| {
            next += 1;
            store.read(BlobId(next % BLOBS)).map(|p| p.len())
        });
    });
    group.finish();
    store.clear().expect("clear");
    let _ = std::fs::remove_dir(&dir);
}

fn bench_read_page(c: &mut Criterion) {
    const PAGE: usize = 64 << 10;
    // 128 live pages, each read retiring the oldest: how the 8 MiB Page
    // Space of the repository benchmark cycles its buffers.
    let source = SyntheticSource::new();
    let mut live: Vec<Vec<u8>> = (0..128).map(|_| Vec::new()).collect();
    let mut index = 0u64;
    let mut group = c.benchmark_group("read_page");
    group.throughput(Throughput::Bytes(PAGE as u64));
    group.bench_function("synthetic_64KiB", |b| {
        b.iter(|| {
            index += 1;
            let page = source.read_page(DatasetId(0), index, PAGE).expect("page");
            live[index as usize % 128] = page;
        });
    });
    // "Memory speed" on this machine: the same buffer cycle fed by a copy
    // of a resident page instead of the fill.
    let resident = source.read_page(DatasetId(0), 0, PAGE).expect("page");
    group.bench_function("memcpy_64KiB", |b| {
        b.iter(|| {
            index += 1;
            live[index as usize % 128] = black_box(&resident).clone();
        });
    });
    group.finish();
    black_box(live);
}

criterion_group!(benches, bench_crc32, bench_spill, bench_read_page);
criterion_main!(benches);
