//! Per-layer timing from outside the program: (B) decorators handed in
//! through public constructors, and (C) a single-threaded replay that
//! composes the pipeline by hand from public functions with a span around
//! each call. No engine internals are touched; spans inside the program
//! are ROADMAP item 1.

use std::path::Path;
use std::sync::Arc;

use vmqs_core::geom::subtract_all;
use vmqs_core::{
    clock, shard_of_spec, BlobId, ClientId, DatasetId, GraphStats, QueryId, QuerySpec, Rect,
    SchedulingGraph, Strategy,
};
use vmqs_datastore::{EvictionRecord, Payload, SpatialDataStore};
use vmqs_microscope::kernels::{compute_from_pages, kernel_threads, project_banded};
use vmqs_microscope::{RgbImage, RgbView, VmOp, VmQuery, PAGE_SIZE};
use vmqs_pagespace::PsStats;
use vmqs_server::{AppExecutor, AppOutcome, PageSpaceSession, SharedPageSpace, VmExecutor};
use vmqs_sim::{run_sim, ClientStream, SimConfig, SubmissionMode};
use vmqs_storage::{DataSource, SpillStore, SyntheticSource};

use crate::spans::{Lane, Recorder};
use crate::workloads::Kind;

/// (B) A `DataSource` that records a `read_page` span around the inner
/// source's read.
pub struct TimedSource<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        TimedSource { inner, rec }
    }
}

impl<S: DataSource> DataSource for TimedSource<S> {
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>> {
        let _span = self.rec.enter("read_page", 0);
        self.inner.read_page(dataset, index, page_size)
    }
}

/// (B) The Virtual Microscope executor with an `execute` span around each
/// execution; everything else forwards to `VmExecutor`.
pub struct TimedExecutor {
    rec: Arc<Recorder>,
}

impl TimedExecutor {
    pub fn new(rec: Arc<Recorder>) -> Self {
        TimedExecutor { rec }
    }
}

impl AppExecutor for TimedExecutor {
    type Spec = VmQuery;

    fn output_dims(&self, spec: &VmQuery) -> (u32, u32) {
        VmExecutor.output_dims(spec)
    }

    fn output_len(&self, spec: &VmQuery) -> usize {
        VmExecutor.output_len(spec)
    }

    fn execute(
        &self,
        spec: &VmQuery,
        sources: &[(VmQuery, Arc<[u8]>)],
        ps: &PageSpaceSession<'_>,
    ) -> std::io::Result<AppOutcome> {
        let _span = self.rec.enter("execute", 0);
        VmExecutor.execute(spec, sources, ps)
    }

    fn degrade(&self, spec: &VmQuery) -> Option<VmQuery> {
        VmExecutor.degrade(spec)
    }

    fn encode_spec(&self, spec: &VmQuery) -> Vec<u8> {
        VmExecutor.encode_spec(spec)
    }

    fn decode_spec(&self, meta: &[u8]) -> Option<VmQuery> {
        VmExecutor.decode_spec(meta)
    }
}

/// What the (C) replay measured besides its spans.
pub struct ReplayOut {
    pub lane: Lane,
    pub queries: usize,
    pub graph: GraphStats,
    pub ps: PsStats,
    /// Output pixels produced by each timed kernel call, keyed like the
    /// span names `kernel.average` / `kernel.subsample` / `kernel.project`.
    pub kernel_px: [(&'static str, u64); 3],
    pub shard_imbalance: f64,
    pub sim_wall_s: f64,
    pub sim_makespan_s: f64,
}

/// The first `n` queries in the order the server first sees them: the
/// batches in order, or round-robin over the clients, each cycling its
/// list as the closed loop does.
pub fn replay_order(timed: &[Vec<VmQuery>], is_batch: bool, n: usize) -> Vec<(usize, VmQuery)> {
    if is_batch {
        return timed.iter().flatten().take(n).map(|q| (0, *q)).collect();
    }
    let clients: Vec<(usize, &Vec<VmQuery>)> = timed
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .collect();
    (0..)
        .flat_map(|i| clients.iter().map(move |(c, l)| (*c, l[i % l.len()])))
        .take(if clients.is_empty() { 0 } else { n })
        .collect()
}

/// `VmExecutor::execute` written out with a span per inner call: project
/// from cached sources, then fetch, read and compute the remainder.
fn replay_execute(
    rec: &Recorder,
    spec: &VmQuery,
    sources: &[(VmQuery, Arc<[u8]>)],
    ps: &SharedPageSpace,
) -> std::io::Result<Vec<u8>> {
    let threads = kernel_threads();
    let (w, h) = spec.output_dims();
    let mut out = RgbImage::new(w, h);
    let mut covered: Vec<Rect> = Vec::new();
    for (src_spec, bytes) in sources {
        let Some(cov) = src_spec.aligned_coverage(spec) else {
            continue;
        };
        let fresh = subtract_all(&cov, &covered);
        if fresh.is_empty() {
            continue;
        }
        let (sw, sh) = src_spec.output_dims();
        {
            let _s = rec.enter("kernel.project_in_pipeline", 0);
            project_banded(
                &mut out,
                spec,
                src_spec,
                RgbView::new(sw, sh, bytes),
                threads,
            );
        }
        covered.extend(fresh);
    }
    for sub in spec.subqueries_for_remainder(&covered) {
        let chunks = sub.slide.chunks_intersecting(&sub.region);
        {
            let _s = rec.enter("ps.fetch_pages", 0);
            ps.fetch_pages(sub.slide.id, &chunks)?;
        }
        let mut pages = Vec::with_capacity(chunks.len());
        for idx in &chunks {
            let _s = rec.enter("ps.read_page", 0);
            pages.push((
                sub.slide.chunk_rect(*idx),
                ps.read_page(sub.slide.id, *idx)?,
            ));
        }
        let img = {
            let _s = rec.enter("kernel.compute_in_pipeline", 0);
            compute_from_pages(&sub, &pages, threads)
        };
        let ox = (sub.region.x - spec.region.x) / spec.zoom;
        let oy = (sub.region.y - spec.region.y) / spec.zoom;
        let (sw, sh) = sub.output_dims();
        out.blit(ox, oy, &img, 0, 0, sw, sh);
    }
    Ok(out.data)
}

/// Times both kernels and the projection on pre-fetched inputs for up to
/// `limit` distinct windows of the list, whatever op the workload uses.
fn kernel_micro(
    rec: &Recorder,
    order: &[(usize, VmQuery)],
    limit: usize,
) -> [(&'static str, u64); 3] {
    let threads = kernel_threads();
    let source = SyntheticSource::new();
    let mut px = [
        ("kernel.average", 0u64),
        ("kernel.subsample", 0),
        ("kernel.project", 0),
    ];
    let mut seen: Vec<(DatasetId, Rect, u32)> = Vec::new();
    for (_, q) in order {
        let key = (q.slide.id, q.region, q.zoom);
        if seen.contains(&key) {
            continue;
        }
        if seen.len() == limit {
            break;
        }
        seen.push(key);
        let chunks = q.slide.chunks_intersecting(&q.region);
        let pages: Vec<(Rect, Arc<Vec<u8>>)> = chunks
            .iter()
            .map(|&idx| {
                let data = source
                    .read_page(q.slide.id, idx, PAGE_SIZE)
                    .expect("synthetic reads cannot fail");
                (q.slide.chunk_rect(idx), Arc::new(data))
            })
            .collect();
        let (w, h) = q.output_dims();
        let mut cached = None;
        for (slot, op) in [(0, VmOp::Average), (1, VmOp::Subsample)] {
            let variant = VmQuery { op, ..*q };
            let _s = rec.enter(px[slot].0, 0);
            let img = compute_from_pages(&variant, &pages, threads);
            px[slot].1 += w as u64 * h as u64;
            if op == q.op {
                cached = Some(img);
            }
        }
        // Project this window's own result up one zoom level, the shape
        // of a zoom-out onto a cached neighbour.
        let target = VmQuery::new(q.slide, q.region, q.zoom * 2, q.op);
        let cached = cached.expect("one variant has the query's op");
        let (tw, th) = target.output_dims();
        let mut out = RgbImage::new(tw, th);
        let _s = rec.enter(px[2].0, 0);
        if project_banded(&mut out, &target, q, cached.view(), threads).is_some() {
            px[2].1 += tw as u64 * th as u64;
        }
    }
    px
}

/// Writes and reads back `frames` payloads of `payload_bytes` through a
/// fresh `SpillStore`, a span around each call.
fn spill_micro(
    rec: &Recorder,
    dir: &Path,
    payload_bytes: usize,
    frames: u64,
) -> std::io::Result<()> {
    let store = SpillStore::new(dir)?;
    let payload: Vec<u8> = (0..payload_bytes).map(|i| (i * 31 % 251) as u8).collect();
    for b in 0..frames {
        let _s = rec.enter("spill.write", 0);
        store.write(BlobId(b), &[], &payload)?;
    }
    for b in 0..frames {
        let got = {
            let _s = rec.enter("spill.read", 0);
            store.read(BlobId(b))?
        };
        if got != payload {
            return Err(std::io::Error::other(
                "spill frame read back different bytes",
            ));
        }
    }
    store.clear()
}

/// (C) Walks the first `n` timed queries through graph -> Data Store ->
/// Page Space -> storage -> kernels on one thread, at this workload's
/// queue depth and cache budgets.
pub fn replay(
    kind: Kind,
    timed: &[Vec<VmQuery>],
    n: usize,
    workers: usize,
    spill_dir: &Path,
) -> Result<ReplayOut, String> {
    let rec = Recorder::new();
    let order = replay_order(timed, kind.is_batch(), n);
    let depth = if kind.is_batch() {
        order.len()
    } else {
        kind.clients()
    };

    let mut graph: SchedulingGraph<VmQuery> = SchedulingGraph::new(Strategy::Cnbf);
    // Tier 2 stays off here: demotion needs the engine's frame writer.
    // Spill I/O is timed on its own below.
    let mut ds: SpatialDataStore<VmQuery> =
        SpatialDataStore::with_policy(kind.ds_budget(), 512, kind.ds_policy());
    let ps = SharedPageSpace::new(
        kind.ps_budget(),
        PAGE_SIZE,
        Arc::new(TimedSource::new(SyntheticSource::new(), Arc::clone(&rec))),
    );

    let mut next = 0usize;
    let insert = |graph: &mut SchedulingGraph<VmQuery>, next: &mut usize| {
        let _s = rec.enter("graph.insert", *next as u64 + 1);
        graph.insert(QueryId(*next as u64 + 1), order[*next].1);
        *next += 1;
    };
    while next < depth.min(order.len()) {
        insert(&mut graph, &mut next);
    }
    loop {
        let id = {
            let _s = rec.enter("graph.dequeue", 0);
            graph.dequeue()
        };
        let Some(id) = id else { break };
        let spec = order[id.raw() as usize - 1].1;
        let started = clock::now();

        let matches = {
            let _s = rec.enter("ds.lookup", id.raw());
            ds.lookup(&spec)
        };
        let mut exact: Option<Arc<[u8]>> = None;
        let mut sources: Vec<(VmQuery, Arc<[u8]>)> = Vec::new();
        for m in matches {
            if let Some(e) = ds.get(m.blob) {
                if let Payload::Bytes(bytes) = &e.payload {
                    if exact.is_none() && e.spec.cmp(&spec) {
                        exact = Some(Arc::clone(bytes));
                    } else {
                        sources.push((e.spec, Arc::clone(bytes)));
                    }
                }
            }
        }
        let image: Arc<[u8]> = match exact {
            Some(bytes) => bytes,
            None => replay_execute(&rec, &spec, &sources, &ps)
                .map_err(|e| format!("replay execute failed: {e}"))?
                .into(),
        };

        let mut evicted: Vec<EvictionRecord<VmQuery>> = Vec::new();
        let cached = {
            let _s = rec.enter("ds.insert", id.raw());
            ds.insert_costed(
                id,
                spec,
                spec.qoutsize(),
                started.elapsed().as_secs_f64(),
                Payload::Bytes(image),
                &mut evicted,
            )
        };
        {
            let _s = rec.enter("graph.mark_cached", id.raw());
            graph.mark_cached(id);
        }
        for r in &evicted {
            let _s = rec.enter("graph.swap_out", r.producer.raw());
            graph.swap_out(r.producer);
        }
        if cached.is_err() {
            let _s = rec.enter("graph.swap_out", id.raw());
            graph.swap_out(id);
        }
        if next < order.len() {
            insert(&mut graph, &mut next);
        }
    }
    graph
        .validate()
        .map_err(|e| format!("replay graph invariant violated: {e}"))?;

    let kernel_px = kernel_micro(&rec, &order, 24);
    let spill_payload_bytes = order.first().map_or(0, |(_, q)| q.qoutsize() as usize);
    spill_micro(&rec, spill_dir, spill_payload_bytes, 24)
        .map_err(|e| format!("spill micro-run failed: {e}"))?;

    let shard_imbalance = shard_imbalance(timed, workers);
    let (sim_wall_s, sim_makespan_s) = simulate(kind, &order, workers);

    let lane = rec.lanes().into_iter().next().unwrap_or_default();
    Ok(ReplayOut {
        lane,
        queries: order.len(),
        graph: graph.stats(),
        ps: ps.stats(),
        kernel_px,
        shard_imbalance,
        sim_wall_s,
        sim_makespan_s,
    })
}

/// Shard balance (max / mean population) of the whole timed list under the
/// engine's own placement function.
fn shard_imbalance(timed: &[Vec<VmQuery>], workers: usize) -> f64 {
    let mut pop = vec![0u64; workers.max(1)];
    for q in timed.iter().flatten() {
        pop[shard_of_spec(q, workers)] += 1;
    }
    let mean = pop.iter().sum::<u64>() as f64 / pop.len() as f64;
    pop.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// The simulator on the replay list: `(its cost in wall seconds, the
/// virtual makespan it predicts)`.
fn simulate(kind: Kind, order: &[(usize, VmQuery)], workers: usize) -> (f64, f64) {
    let clients = order.iter().map(|(c, _)| c + 1).max().unwrap_or(0);
    let mut streams: Vec<ClientStream> = (0..clients)
        .map(|c| ClientStream {
            client: ClientId(c as u64),
            queries: Vec::new(),
        })
        .collect();
    for (c, q) in order {
        streams[*c].queries.push(*q);
    }
    let cfg = SimConfig::paper_baseline()
        .with_strategy(Strategy::Cnbf)
        .with_threads(workers)
        .with_ds_budget(kind.ds_budget())
        .with_ps_budget(kind.ps_budget())
        .with_cache_policy(kind.ds_policy())
        .with_tier2_budget(kind.tier2_budget())
        .with_mode(if kind.is_batch() {
            SubmissionMode::Batch
        } else {
            SubmissionMode::Interactive
        });
    let t = clock::now();
    let report = run_sim(cfg, streams);
    (t.elapsed().as_secs_f64(), report.makespan)
}

/// Span names of the replay grouped by the crate they time; a layer's
/// self share is its spans' self time over the pipeline's total.
pub const PIPELINE_LAYERS: [(&str, &[&str]); 5] = [
    (
        "core",
        &[
            "graph.insert",
            "graph.dequeue",
            "graph.mark_cached",
            "graph.swap_out",
        ],
    ),
    ("datastore", &["ds.lookup", "ds.insert"]),
    ("pagespace", &["ps.fetch_pages", "ps.read_page"]),
    ("storage", &["read_page"]),
    (
        "microscope",
        &["kernel.compute_in_pipeline", "kernel.project_in_pipeline"],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::totals_by_name;
    use crate::workloads::{generate_inputs, Scale};

    #[test]
    fn replay_order_deals_clients_round_robin() {
        let q = |x: u32| {
            VmQuery::new(
                vmqs_microscope::SlideDataset::new(DatasetId(0), 512, 512),
                Rect::new(x, 0, 8, 8),
                1,
                VmOp::Subsample,
            )
        };
        let lists = vec![vec![q(0), q(8)], vec![q(16), q(24)]];
        let order = replay_order(&lists, false, 5);
        assert_eq!(
            order
                .iter()
                .map(|(c, q)| (*c, q.region.x))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 16), (0, 8), (1, 24), (0, 0)],
            "clients alternate and cycle their lists"
        );
        let batch = replay_order(&lists, true, 3);
        assert_eq!(
            batch.iter().map(|(_, q)| q.region.x).collect::<Vec<_>>(),
            vec![0, 8, 16]
        );
    }

    #[test]
    fn replay_counts_repeat_exactly_and_cover_every_layer() {
        let inputs = generate_inputs(Kind::InteractiveBrowse, 5, Scale { smoke: true });
        let dir = std::env::temp_dir().join(format!("vmqs_bench_replay_{}", std::process::id()));
        let a = replay(Kind::InteractiveBrowse, &inputs.timed, 48, 2, &dir).unwrap();
        let b = replay(Kind::InteractiveBrowse, &inputs.timed, 48, 2, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(a.queries, 48);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ps, b.ps);
        assert_eq!(a.graph.inserted, 48);
        assert_eq!(a.graph.dequeued, 48);
        let totals = totals_by_name(std::slice::from_ref(&a.lane), 0);
        for (_, names) in PIPELINE_LAYERS {
            assert!(
                names.iter().any(|n| totals.contains_key(n)),
                "no span for any of {names:?}"
            );
        }
        assert_eq!(totals["graph.insert"].count, 48);
        assert_eq!(totals["ds.lookup"].count, 48);
        assert_eq!(totals["spill.write"].count, 24);
        // Storage reads nest inside Page Space fetches, so the fetch's
        // self time excludes them.
        assert!(totals["ps.fetch_pages"].self_ns < totals["ps.fetch_pages"].total_ns);
    }
}
