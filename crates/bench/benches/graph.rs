//! Criterion micro-benchmarks for the scheduling graph: insertion,
//! dequeue, state-transition re-ranking, the incremental-vs-full
//! re-ranking ablation called out in DESIGN.md §5, and one insertion into
//! a graph that already holds many CACHED nodes (the cost a submit pays
//! under the shard lock for what the Data Store is holding).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vmqs_core::spec::testutil::IntervalSpec;
use vmqs_core::{DatasetId, QueryId, Rect, SchedulingGraph, Strategy};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};

/// A synthetic population with heavy overlap: queries land on 16 hotspots
/// with varying scales, so the graph is dense enough to stress re-ranking.
fn populate(g: &mut SchedulingGraph<IntervalSpec>, n: u64) {
    for i in 0..n {
        let start = (i % 16) * 50;
        let scale = 1 << (i % 3);
        g.insert(QueryId(i), IntervalSpec::new(start, 200, scale));
    }
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_insert");
    for &n in &[64u64, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut g = SchedulingGraph::new(Strategy::Cnbf);
                populate(&mut g, n);
                black_box(g.len())
            });
        });
    }
    group.finish();
}

/// One query arriving at a graph of `n` disjoint CACHED 256x256 tiles: it
/// overlaps exactly one of them. The node is retired again inside the
/// timed routine (dequeue, cache, swap out: each `O(its one edge)`) so the
/// population stays at `n`.
fn bench_insert_into_cached(c: &mut Criterion) {
    const SIDE: u32 = 256;
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let per_row = 30_000 / SIDE as u64;
    let tile = |i: u64| {
        let (x, y) = ((i % per_row) as u32 * SIDE, (i / per_row) as u32 * SIDE);
        VmQuery::new(slide, Rect::new(x, y, SIDE, SIDE), 1, VmOp::Subsample)
    };
    let mut group = c.benchmark_group("insert_into_cached");
    for &n in &[128u64, 1200, 5000] {
        let mut g = SchedulingGraph::new(Strategy::Cnbf);
        for i in 0..n {
            g.insert(QueryId(i), tile(i));
            g.dequeue_specific(QueryId(i));
            g.mark_cached(QueryId(i));
        }
        let mut next = n;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let id = QueryId(next);
                g.insert(id, tile(next % n));
                next += 1;
                g.dequeue_specific(id);
                g.mark_cached(id);
                g.swap_out(id);
                black_box(g.len())
            });
        });
    }
    group.finish();
}

fn bench_dequeue_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_dequeue_mark_cached");
    for strategy in [Strategy::Fifo, Strategy::Muf, Strategy::Cnbf, Strategy::Sjf] {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                let mut g = SchedulingGraph::new(strategy);
                populate(&mut g, 256);
                while let Some(id) = g.dequeue() {
                    g.mark_cached(id);
                }
                black_box(g.stats().dequeued)
            });
        });
    }
    group.finish();
}

fn bench_incremental_vs_full_rerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("rerank");
    // Incremental: ranks are maintained by each transition (the paper's
    // approach: "updates … are done in an incremental fashion to avoid
    // performance degradation").
    group.bench_function("incremental_per_transition", |b| {
        let mut g = SchedulingGraph::new(Strategy::Cnbf);
        populate(&mut g, 512);
        let ids: Vec<QueryId> = (0..512).map(QueryId).collect();
        let mut i = 0;
        // Cycle: dequeue + cache one query per iteration (graph state keeps
        // evolving, which is what re-ranking reacts to).
        b.iter(|| {
            if g.waiting_len() == 0 {
                g = SchedulingGraph::new(Strategy::Cnbf);
                populate(&mut g, 512);
            }
            let id = g.dequeue().unwrap();
            g.mark_cached(id);
            i += 1;
            black_box(&ids[i % ids.len()]);
        });
    });
    // Full: recompute every rank from scratch after each transition.
    group.bench_function("full_recompute_per_transition", |b| {
        let mut g = SchedulingGraph::new(Strategy::Cnbf);
        populate(&mut g, 512);
        b.iter(|| {
            if g.waiting_len() == 0 {
                g = SchedulingGraph::new(Strategy::Cnbf);
                populate(&mut g, 512);
            }
            let id = g.dequeue().unwrap();
            g.mark_cached(id);
            g.recompute_all_ranks();
            black_box(g.len());
        });
    });
    group.finish();
}

fn bench_swap_out(c: &mut Criterion) {
    c.bench_function("graph_swap_out_dense_node", |b| {
        b.iter_batched(
            || {
                let mut g = SchedulingGraph::new(Strategy::Cnbf);
                populate(&mut g, 256);
                let id = g.dequeue().unwrap();
                g.mark_cached(id);
                (g, id)
            },
            |(mut g, id)| {
                g.swap_out(id);
                black_box(g.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_insert,
    bench_insert_into_cached,
    bench_dequeue_cycle,
    bench_incremental_vs_full_rerank,
    bench_swap_out
);
criterion_main!(benches);
