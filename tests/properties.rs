//! Property-based tests (proptest) for the core invariants the system's
//! correctness rests on: rectangle algebra, overlap indices, scheduling
//! graph consistency, cache accounting, kernel-vs-reference agreement, and
//! simulator sanity under randomized workloads.

use proptest::prelude::*;
use vmqs::prelude::{generate, run_sim};
use vmqs::prelude::{
    DataStore, DatasetId, Payload, QuerySpec, QueryState, Rect, SchedulingGraph, SimConfig,
    SlideDataset, SubmissionMode, SyntheticSource, VmOp, VmQuery, WorkloadConfig,
};
use vmqs_core::geom::{subtract_all, total_area};
use vmqs_core::spec::testutil::IntervalSpec;
use vmqs_core::Strategy as RankStrategy;
use vmqs_core::{EngineConfig, Plan, QueryId, SpatialSpec, Windowed};
use vmqs_datastore::{DsError, EvictionPolicy};
use vmqs_microscope::kernels::{compute_from_chunks, reference_render};
use vmqs_microscope::PAGE_SIZE;
use vmqs_pagespace::{PageCacheCore, PageData, PageDisposition, PageKey};
use vmqs_storage::DataSource;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..200, 0u32..200, 1u32..100, 1u32..100).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

proptest! {
    #[test]
    fn intersection_is_commutative_and_bounded(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(i.area() <= a.area().min(b.area()));
        }
    }

    #[test]
    fn subtraction_conserves_area(a in arb_rect(), b in arb_rect()) {
        let parts = a.subtract(&b);
        prop_assert_eq!(total_area(&parts), a.area() - a.intersection_area(&b));
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(a.contains(p));
            prop_assert!(!p.intersects(&b));
            prop_assert!(!p.is_empty());
            for q in &parts[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn subtract_all_leaves_disjoint_remainder(
        target in arb_rect(),
        covers in prop::collection::vec(arb_rect(), 0..6),
    ) {
        let rem = subtract_all(&target, &covers);
        for (i, r) in rem.iter().enumerate() {
            prop_assert!(target.contains(r));
            for c in &covers {
                prop_assert!(!r.intersects(c));
            }
            for s in &rem[i + 1..] {
                prop_assert!(!r.intersects(s));
            }
        }
        // Remainder + covers tile the target: any sampled target point is
        // in a cover or in the remainder.
        let px = target.x + target.w / 2;
        let py = target.y + target.h / 2;
        let in_cover = covers.iter().any(|c| c.contains_point(px, py));
        let in_rem = rem.iter().any(|r| r.contains_point(px, py));
        prop_assert!(in_cover || in_rem);
    }

    #[test]
    fn interval_overlap_in_unit_range(
        s1 in 0u64..500, l1 in 1u64..200, sc1 in 1u64..5,
        s2 in 0u64..500, l2 in 1u64..200, sc2 in 1u64..5,
    ) {
        let a = IntervalSpec::new(s1, l1 * sc1, sc1);
        let b = IntervalSpec::new(s2, l2 * sc2, sc2);
        let ov = a.overlap(&b);
        prop_assert!((0.0..=1.0).contains(&ov), "overlap {} out of range", ov);
        prop_assert!((a.overlap(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vm_overlap_in_unit_range_and_directional(
        x1 in 0u32..1000, y1 in 0u32..1000,
        x2 in 0u32..1000, y2 in 0u32..1000,
        z1 in 0usize..3, z2 in 0usize..3,
        op in prop::bool::ANY,
    ) {
        let zooms = [1u32, 2, 4];
        let slide = SlideDataset::new(DatasetId(0), 2048, 2048);
        let op = if op { VmOp::Subsample } else { VmOp::Average };
        let a = VmQuery::new(slide, Rect::new(x1, y1, 512, 512), zooms[z1], op);
        let b = VmQuery::new(slide, Rect::new(x2, y2, 512, 512), zooms[z2], op);
        let ov = a.overlap(&b);
        prop_assert!((0.0..=1.0).contains(&ov));
        // Non-invertibility: a coarser result can never serve a finer query.
        if a.zoom > b.zoom {
            prop_assert_eq!(ov, 0.0);
        }
        // Coverage consistency: positive overlap implies usable coverage
        // or a sliver smaller than one output pixel.
        if ov > 0.01 {
            prop_assert!(a.can_project_to(&b));
        }
    }

    // Graph invariants under random operation sequences: edge mirroring,
    // waiting-set consistency, and incremental ranks equal to a fresh
    // recomputation.
    #[test]
    fn graph_consistent_under_random_ops(
        specs in prop::collection::vec((0u64..400, 1u64..4, 0u8..3), 3..25),
        ops in prop::collection::vec(0u8..4, 0..40),
        strat in 0usize..6,
    ) {
        let strategy = RankStrategy::paper_set()[strat];
        let mut g: SchedulingGraph<IntervalSpec> = SchedulingGraph::new(strategy);
        let mut next = 0u64;
        let mut pending: Vec<(u64, u64, u8)> = specs.clone();
        for op in ops {
            match op {
                // Insert the next spec, if any remain.
                0 | 1 => {
                    if let Some((start, scale, _)) = pending.pop() {
                        g.insert(QueryId(next), IntervalSpec::new(start, 100 * scale, scale));
                        next += 1;
                    }
                }
                // Dequeue + immediately cache.
                2 => {
                    if let Some(id) = g.dequeue() {
                        g.mark_cached(id);
                    }
                }
                // Swap out the oldest cached node.
                _ => {
                    if let Some(&id) = g.ids_in_state(QueryState::Cached).first() {
                        g.swap_out(id);
                    }
                }
            }
            g.validate().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn graph_dequeue_returns_max_rank(
        specs in prop::collection::vec((0u64..300, 1u64..4), 2..15),
    ) {
        let mut g: SchedulingGraph<IntervalSpec> = SchedulingGraph::new(RankStrategy::Muf);
        for (i, (start, scale)) in specs.iter().enumerate() {
            g.insert(QueryId(i as u64), IntervalSpec::new(*start, 120 * scale, *scale));
        }
        let waiting = g.ids_in_state(QueryState::Waiting);
        let max_rank = waiting
            .iter()
            .map(|&id| g.rank_of(id).unwrap())
            .max()
            .unwrap();
        let picked = g.dequeue().unwrap();
        // The dequeued node carried the maximum rank (ties break by
        // arrival, which is still a max-rank node).
        prop_assert_eq!(g.rank_of(picked).unwrap(), max_rank);
    }

    // Data Store: budget never exceeded; lookups only return visible
    // blobs; exact match implies cmp.
    #[test]
    fn datastore_budget_and_visibility(
        inserts in prop::collection::vec((0u64..300, 1u64..80), 1..30),
        budget in 50u64..300,
        cost_based in prop::bool::ANY,
    ) {
        let policy = if cost_based { EvictionPolicy::CostBased } else { EvictionPolicy::Lru };
        let mut ds: DataStore<IntervalSpec> = DataStore::with_policy(budget, 64, policy);
        let mut evicted = Vec::new();
        for (i, (start, len)) in inserts.iter().enumerate() {
            let spec = IntervalSpec::new(*start, *len, 1);
            let size = *len;
            let (len_before, evicted_before) = (ds.len(), evicted.len());
            match ds.insert_costed(QueryId(i as u64), spec.clone(), size, 0.0, Payload::Virtual, &mut evicted) {
                Ok(_) => {}
                Err(DsError::TooLarge) => prop_assert!(size > budget),
                // Only cost-based admission refuses on score, and a
                // refusal leaves the store as it was.
                Err(DsError::Unprofitable) => {
                    prop_assert!(cost_based);
                    prop_assert_eq!((ds.len(), evicted.len()), (len_before, evicted_before));
                }
            }
            prop_assert!(ds.used() <= budget, "used {} > budget {}", ds.used(), budget);
            let probe = IntervalSpec::new(*start, *len, 1);
            for m in ds.lookup(&probe) {
                let e = ds.get(m.blob).unwrap();
                prop_assert!(e.visible());
                if m.overlap == 1.0 && e.spec.cmp(&probe) {
                    prop_assert_eq!(m.reuse_bytes, e.spec.qoutsize());
                }
            }
        }
    }

    // Page cache: capacity respected; a resident page is never classified
    // MustFetch; in-flight pages are never duplicated.
    #[test]
    fn pagecache_invariants(
        requests in prop::collection::vec(
            prop::collection::vec(0u64..40, 1..8), 1..20),
        capacity in 1u64..16,
    ) {
        let mut ps = PageCacheCore::new(capacity * 64, 64);
        for req in &requests {
            let keys: Vec<PageKey> =
                req.iter().map(|&i| PageKey::new(DatasetId(0), i)).collect();
            let resident_before: Vec<bool> = {
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.iter().map(|k| ps.is_resident(*k)).collect()
            };
            let plan = ps.plan_read(&keys);
            for ((page, disp), was_resident) in plan.pages.iter().zip(resident_before) {
                if was_resident {
                    prop_assert_eq!(disp.clone(), PageDisposition::Hit);
                }
                if *disp == PageDisposition::MustFetch {
                    prop_assert!(ps.is_in_flight(*page));
                }
            }
            for run in &plan.fetch_runs {
                for page in run.pages() {
                    ps.complete_fetch(page, PageData::Virtual);
                }
            }
            prop_assert!(ps.resident_pages() <= capacity as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Edge discovery through the footprint index changes no decision: the
// indexed graph against all-pairs discovery, step by step.
// ---------------------------------------------------------------------------

/// `S` with the whole plane as its footprint. Every node then intersects
/// every other, so the graph compares a new query against all of them in
/// ascending id order: the all-pairs discovery the footprint index
/// replaced, with nothing of the index left to be wrong (one cell holds
/// everything).
#[derive(Clone)]
struct Everywhere<S>(S);

impl<S: SpatialSpec> QuerySpec for Everywhere<S> {
    fn cmp(&self, other: &Self) -> bool {
        self.0.cmp(&other.0)
    }
    fn overlap(&self, other: &Self) -> f64 {
        self.0.overlap(&other.0)
    }
    fn qoutsize(&self) -> u64 {
        self.0.qoutsize()
    }
    fn qinputsize(&self) -> u64 {
        self.0.qinputsize()
    }
}

impl<S: SpatialSpec> SpatialSpec for Everywhere<S> {
    fn region_key(&self) -> (DatasetId, Rect) {
        (DatasetId(0), Rect::new(0, 0, u32::MAX, u32::MAX))
    }
}

fn all_strategies() -> Vec<RankStrategy> {
    let mut all = RankStrategy::paper_set().to_vec();
    all.push(RankStrategy::hybrid_default());
    all
}

fn edge_bits(edges: &[vmqs_core::Edge]) -> Vec<(QueryId, u64)> {
    edges.iter().map(|e| (e.peer, e.weight.to_bits())).collect()
}

/// Drives an indexed graph (cells of `cell` pixels) and the all-pairs
/// oracle through the same operations. After every step both must hold
/// the same nodes in the same states with bit-identical ranks, the same
/// edge lists in the same order, and the same dequeue order.
fn indexed_graph_matches_all_pairs<S: SpatialSpec>(
    strategy: RankStrategy,
    cell: u32,
    mut specs: Vec<S>,
    ops: &[(u8, usize)],
) -> Result<(), TestCaseError> {
    let mut g: SchedulingGraph<S> = SchedulingGraph::with_index_cell(strategy, cell);
    let mut oracle: SchedulingGraph<Everywhere<S>> =
        SchedulingGraph::with_index_cell(strategy, u32::MAX);
    let mut live: Vec<(QueryId, S)> = Vec::new();
    let mut next = 0u64;
    let pick = |ids: Vec<QueryId>, k: usize| (!ids.is_empty()).then(|| ids[k % ids.len()]);
    for &(op, k) in ops {
        match op {
            0..=2 => {
                if let Some(spec) = specs.pop() {
                    g.insert(QueryId(next), spec.clone());
                    oracle.insert(QueryId(next), Everywhere(spec.clone()));
                    live.push((QueryId(next), spec));
                    next += 1;
                }
            }
            3 => prop_assert_eq!(g.dequeue(), oracle.dequeue()),
            4 => prop_assert_eq!(
                g.dequeue_preferring_producer(),
                oracle.dequeue_preferring_producer()
            ),
            5 => {
                if let Some(id) = pick(g.ids_in_state(QueryState::Executing), k) {
                    g.mark_cached(id);
                    oracle.mark_cached(id);
                }
            }
            6 => {
                if let Some(id) = pick(g.ids_in_state(QueryState::Executing), k) {
                    prop_assert!(g.requeue(id) && oracle.requeue(id));
                }
            }
            _ => {
                if let Some(id) = pick(g.ids_in_state(QueryState::Cached), k) {
                    g.swap_out(id);
                    oracle.swap_out(id);
                    live.retain(|(l, _)| *l != id);
                }
            }
        }
        g.validate().map_err(TestCaseError::fail)?;
        oracle.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(g.len(), live.len());
        prop_assert_eq!(oracle.len(), live.len());
        for (id, _) in &live {
            prop_assert_eq!(g.state_of(*id), oracle.state_of(*id));
            let rank = |r: Option<vmqs_core::Rank>| r.map(|r| r.value().to_bits());
            prop_assert_eq!(
                rank(g.rank_of(*id)),
                rank(oracle.rank_of(*id)),
                "rank of {}",
                id
            );
            let (gi, go) = g.edges_of(*id).unwrap();
            let (oi, oo) = oracle.edges_of(*id).unwrap();
            prop_assert_eq!(edge_bits(gi), edge_bits(oi), "in-edges of {}", id);
            prop_assert_eq!(edge_bits(go), edge_bits(oo), "out-edges of {}", id);
        }
        prop_assert_eq!(g.peek_top_k(live.len()), oracle.peek_top_k(live.len()));
        prop_assert_eq!(g.stats().edges_created, oracle.stats().edges_created);
        prop_assert!(g.stats().overlap_evals <= oracle.stats().overlap_evals);
    }
    // The edges are the ones the definition asks for, whichever way they
    // were found: `a -> b` exactly when a result for `a` holds bytes `b`
    // can reuse.
    for (a, sa) in &live {
        let (_, out) = g.edges_of(*a).unwrap();
        for (b, sb) in live.iter().filter(|(b, _)| b != a) {
            let want = sa.reuse_bytes(sb);
            let have = out.iter().find(|e| e.peer == *b).map(|e| e.weight);
            prop_assert_eq!(
                have,
                (want > 0).then_some(want as f64),
                "edge {} -> {}",
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexed_edge_discovery_changes_no_decision_for_intervals(
        specs in prop::collection::vec((0u64..2000, 1u64..5, 1u64..5), 3..30),
        ops in prop::collection::vec((0u8..8, 0usize..64), 0..70),
        strat in 0..all_strategies().len(),
        cell in 1u32..2048,
    ) {
        let specs = specs
            .into_iter()
            .map(|(start, len, scale)| IntervalSpec::new(start, 60 * len * scale, scale))
            .collect();
        indexed_graph_matches_all_pairs(all_strategies()[strat], cell, specs, &ops)?;
    }

    #[test]
    fn indexed_edge_discovery_changes_no_decision_for_vm_queries(
        specs in prop::collection::vec(
            (0u64..2, 0u32..3600, 0u32..3600, 0usize..4, 0usize..3, prop::bool::ANY), 3..30),
        ops in prop::collection::vec((0u8..8, 0usize..64), 0..70),
        strat in 0..all_strategies().len(),
        cell in 32u32..8192,
    ) {
        let specs = specs
            .into_iter()
            .map(|(slide, x, y, side, zoom, average)| {
                let slide = SlideDataset::new(DatasetId(slide), 4096, 4096);
                let side = [64, 256, 512, 1024][side];
                let op = if average { VmOp::Average } else { VmOp::Subsample };
                VmQuery::new(slide, Rect::new(x, y, side, side), [1, 2, 4][zoom], op)
            })
            .collect();
        indexed_graph_matches_all_pairs(all_strategies()[strat], cell, specs, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Kernels equal the ground-truth reference for arbitrary aligned
    // windows (exact for subsampling AND direct averaging).
    #[test]
    fn kernels_match_reference(
        x in 0u32..400, y in 0u32..400,
        w in 1u32..100, h in 1u32..100,
        zexp in 0u32..3,
        subsample in prop::bool::ANY,
    ) {
        let zoom = 1u32 << zexp;
        let slide = SlideDataset::new(DatasetId(1), 600, 600);
        let op = if subsample { VmOp::Subsample } else { VmOp::Average };
        let region = Rect::new(x, y, w.max(zoom), h.max(zoom));
        let q = VmQuery::new(slide, region, zoom, op);
        let src = SyntheticSource::new();
        let got = compute_from_chunks(&q, |idx| {
            std::sync::Arc::new(src.read_page(slide.id, idx, PAGE_SIZE).unwrap())
        });
        prop_assert_eq!(got, reference_render(&q));
    }

    // Random small workloads through the simulator: every query completes
    // exactly once, times are sane, and runs are deterministic.
    #[test]
    fn simulator_sane_on_random_workloads(
        seeds in prop::collection::vec(0u64..1000, 1..4),
        threads in 1usize..6,
        strat in 0usize..6,
        batch in prop::bool::ANY,
    ) {
        let mut wcfg = WorkloadConfig::small(VmOp::Subsample, seeds[0]);
        wcfg.queries_per_client = 3;
        let streams = generate(&wcfg);
        let total: usize = streams.iter().map(|s| s.queries.len()).sum();
        let mode = if batch { SubmissionMode::Batch } else { SubmissionMode::Interactive };
        let cfg = SimConfig::new(EngineConfig::paper_baseline()
                .with_strategy(RankStrategy::paper_set()[strat])
                .with_threads(threads))
            .with_mode(mode);
        let a = run_sim(cfg, streams.clone());
        prop_assert_eq!(a.records.len(), total);
        for r in &a.records {
            prop_assert!(r.arrival >= 0.0);
            prop_assert!(r.start >= r.arrival);
            prop_assert!(r.finish >= r.start);
            prop_assert!((0.0..=1.0).contains(&r.covered_fraction));
            prop_assert!(r.finish <= a.makespan + 1e-9);
        }
        let b = run_sim(cfg, streams);
        prop_assert_eq!(a.makespan, b.makespan);
    }

    // Observability event-log invariants (DESIGN.md §9) over randomized
    // simulated runs: every Submitted query gets exactly one terminal
    // event and exactly one Ranked, per-query timestamps never go
    // backwards in sequence order, and every LookupHit overlap lies in
    // [0, 1].
    #[test]
    fn event_log_invariants_on_random_workloads(
        seed in 0u64..1000,
        threads in 1usize..6,
        strat in 0usize..6,
        batch in prop::bool::ANY,
    ) {
        use std::collections::HashMap;
        use vmqs_obs::EventKind;

        let mut wcfg = WorkloadConfig::small(VmOp::Subsample, seed);
        wcfg.queries_per_client = 3;
        let streams = generate(&wcfg);
        let total: usize = streams.iter().map(|s| s.queries.len()).sum();
        let mode = if batch { SubmissionMode::Batch } else { SubmissionMode::Interactive };
        let cfg = SimConfig::new(EngineConfig::paper_baseline()
                .with_strategy(RankStrategy::paper_set()[strat])
                .with_threads(threads)
                .with_observe(true))
            .with_mode(mode);
        let report = run_sim(cfg, streams);

        let mut submitted: HashMap<QueryId, u64> = HashMap::new();
        let mut terminals: HashMap<QueryId, u64> = HashMap::new();
        let mut ranked: HashMap<QueryId, u64> = HashMap::new();
        let mut last_time: HashMap<QueryId, f64> = HashMap::new();
        for e in &report.events {
            let prev = last_time.insert(e.query, e.time).unwrap_or(0.0);
            prop_assert!(
                e.time >= prev,
                "{} time went backwards: {} -> {}", e.query, prev, e.time
            );
            match e.kind {
                EventKind::Submitted => *submitted.entry(e.query).or_default() += 1,
                EventKind::Ranked { .. } => *ranked.entry(e.query).or_default() += 1,
                EventKind::LookupHit { overlap, .. } => {
                    prop_assert!(
                        (0.0..=1.0).contains(&overlap),
                        "{} overlap {} out of range", e.query, overlap
                    );
                }
                k if k.is_terminal() => *terminals.entry(e.query).or_default() += 1,
                _ => {}
            }
        }
        prop_assert_eq!(submitted.len(), total, "every query must be Submitted");
        for (q, n) in &submitted {
            prop_assert_eq!(*n, 1, "{} submitted more than once", q);
            prop_assert_eq!(
                terminals.get(q).copied(), Some(1),
                "{} needs exactly one terminal event", q
            );
            prop_assert_eq!(
                ranked.get(q).copied(), Some(1),
                "{} must be ranked exactly once", q
            );
        }
        // The timeline reconstruction agrees: one latency per completion.
        let lat = vmqs_obs::timeline::latencies(&report.events);
        prop_assert_eq!(lat.len(), report.records.len());
        prop_assert!(lat.iter().all(|&l| l >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Query conservation under overload (DESIGN.md §10): every submitted
    // query resolves to exactly one typed outcome —
    //   submitted == completed + failed + timed_out + shed + rejected
    // — at the handle level, AND the metrics registry agrees with the
    // handles. Random workloads through the *real* threaded server with
    // random admission bounds and thresholds.
    #[test]
    fn overload_conserves_queries_on_random_workloads(
        seed in 0u64..1000,
        threads in 1usize..4,
        max_pending in 1usize..12,
        // Percent thresholds; values below the floor mean "disabled".
        degrade in 0u32..100,
        shed in 0u32..100,
        queries in 6usize..20,
    ) {
        use std::sync::Arc;
        use vmqs::prelude::{OverloadConfig, QueryServer, ServerConfig, ServerError};

        let slide = SlideDataset::new(DatasetId(0), 800, 800);
        let specs: Vec<VmQuery> = (0..queries)
            .map(|i| {
                let r = (seed ^ i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let op = if (r >> 7) & 1 == 0 { VmOp::Subsample } else { VmOp::Average };
                let side = 80 + ((r >> 16) % 3) as u32 * 40;
                let x = ((r >> 32) as u32) % (800 - side);
                let y = ((r >> 44) as u32) % (800 - side);
                VmQuery::new(slide, Rect::new(x, y, side, side), 1 << ((r >> 24) % 2), op)
            })
            .collect();

        let ov = OverloadConfig {
            max_pending,
            client_rate: 0.0,
            degrade_threshold: if degrade < 25 {
                f64::INFINITY
            } else {
                degrade as f64 / 100.0
            },
            shed_threshold: if shed < 50 {
                f64::INFINITY
            } else {
                shed as f64 / 100.0
            },
        };
        let cfg = ServerConfig::new(EngineConfig::small()
                .with_threads(threads)
                .with_start_paused(true)
                .with_overload(ov));
        let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
        let handles = server.submit_batch(specs);
        server.resume_workers();

        let (mut completed, mut failed, mut timed_out, mut shed_n, mut rejected) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(ServerError::Overloaded { retry_after }) => {
                    prop_assert!(retry_after > std::time::Duration::ZERO);
                    rejected += 1;
                }
                Err(ServerError::Shed { pressure }) => {
                    prop_assert!((0.0..=1.0).contains(&pressure));
                    shed_n += 1;
                }
                Err(ServerError::Timeout { .. }) => timed_out += 1,
                Err(_) => failed += 1,
            }
        }
        server.drain();
        let metrics = server.metrics();
        let summary = server.summary();
        server.shutdown();

        // Handle-level conservation.
        prop_assert_eq!(
            completed + failed + timed_out + shed_n + rejected,
            queries as u64,
            "every query must resolve exactly once"
        );
        // The metrics registry tells the same story as the handles.
        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        prop_assert_eq!(counter("vmqs_queries_submitted_total"), queries as u64);
        prop_assert_eq!(counter("vmqs_queries_completed_total"), completed);
        prop_assert_eq!(counter("vmqs_queries_failed_total"), failed);
        prop_assert_eq!(counter("vmqs_queries_timed_out_total"), timed_out);
        prop_assert_eq!(counter("vmqs_queries_rejected_total"), rejected);
        prop_assert_eq!(counter("vmqs_queries_shed_total"), shed_n);
        // And so does the server summary.
        prop_assert_eq!(summary.rejected as u64, rejected);
        prop_assert_eq!(summary.shed as u64, shed_n);
        prop_assert_eq!(summary.completed as u64, completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Query conservation under cross-shard dequeue (DESIGN.md §12): with
    // the scheduling graph sharded per worker and every worker taking the
    // best top of all shards, its own or another's, no query may be lost
    // or resolved twice at any pool size. Interactive multi-client
    // submission (unlike the paused batch above) so dequeues on any
    // shard and admissions genuinely race, with the shed/reject ladder
    // armed so every outcome class is reachable.
    #[test]
    fn stealing_conserves_queries_at_2_4_8_workers(
        seed in 0u64..500,
        widx in 0usize..3,
        queries in 24usize..48,
    ) {
        use std::sync::Arc;
        use vmqs::prelude::{OverloadConfig, QueryServer, ServerConfig, ServerError};

        let workers = [2usize, 4, 8][widx];
        let slide = SlideDataset::new(DatasetId(0), 800, 800);
        let specs: Vec<VmQuery> = (0..queries)
            .map(|i| {
                let r = (seed ^ (i as u64) << 3)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let op = if (r >> 7) & 1 == 0 { VmOp::Subsample } else { VmOp::Average };
                let side = 80 + ((r >> 16) % 3) as u32 * 40;
                let x = ((r >> 32) as u32) % (800 - side);
                let y = ((r >> 44) as u32) % (800 - side);
                VmQuery::new(slide, Rect::new(x, y, side, side), 1 << ((r >> 24) % 2), op)
            })
            .collect();

        let ov = OverloadConfig {
            max_pending: (queries / 2).max(1),
            client_rate: 0.0,
            degrade_threshold: 0.5,
            shed_threshold: 0.9,
        };
        let cfg = ServerConfig::new(EngineConfig::small()
                .with_threads(workers)
                .with_overload(ov));
        let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));

        // Four concurrent clients, each waiting for its previous answer —
        // the submission pattern that interleaves admission fast paths
        // with dequeues on other shards.
        let totals = std::sync::Mutex::new([0u64; 5]);
        std::thread::scope(|scope| {
            for chunk in specs.chunks(queries.div_ceil(4)) {
                let (server, totals) = (&server, &totals);
                scope.spawn(move || {
                    let mut local = [0u64; 5];
                    for q in chunk {
                        match server.submit(*q).wait() {
                            Ok(_) => local[0] += 1,
                            Err(ServerError::Shed { .. }) => local[1] += 1,
                            Err(ServerError::Overloaded { .. }) => local[2] += 1,
                            Err(ServerError::Timeout { .. }) => local[3] += 1,
                            Err(_) => local[4] += 1,
                        }
                    }
                    let mut t = totals.lock().unwrap();
                    for (a, b) in t.iter_mut().zip(local) {
                        *a += b;
                    }
                });
            }
        });
        server.drain();
        server.check_invariants();
        let [completed, shed_n, rejected, timed_out, failed] =
            *totals.lock().unwrap();
        let metrics = server.metrics();
        let stats = server.graph_stats();
        let summary = server.summary();
        server.shutdown();

        prop_assert_eq!(
            completed + failed + timed_out + shed_n + rejected,
            queries as u64,
            "every query must resolve exactly once"
        );
        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        prop_assert_eq!(counter("vmqs_queries_submitted_total"), queries as u64);
        prop_assert_eq!(counter("vmqs_queries_completed_total"), completed);
        prop_assert_eq!(counter("vmqs_queries_failed_total"), failed);
        prop_assert_eq!(counter("vmqs_queries_timed_out_total"), timed_out);
        prop_assert_eq!(counter("vmqs_queries_rejected_total"), rejected);
        prop_assert_eq!(counter("vmqs_queries_shed_total"), shed_n);
        prop_assert_eq!(summary.completed as u64, completed);
        // Graph-level conservation across all shards: everything inserted
        // left through a worker dequeue or a shed/timeout swap-out, and
        // nothing remains after drain.
        // nothing remains after drain. (`dequeue_specific` on the shed
        // path counts as a dequeue, so dequeued covers all four classes.)
        prop_assert_eq!(stats.inserted, completed + failed + timed_out + shed_n);
        prop_assert_eq!(stats.dequeued, stats.inserted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Differential equivalence of grafting (DESIGN.md §13): on a random
    // workload seeded with duplicate predicates, running the *real
    // threaded server* with grafting on must return byte-for-byte the
    // same answer for every query as running it with grafting off — the
    // graft path changes who computes, never what is answered. Both runs
    // must also conserve queries
    // (submitted == completed + failed + timed_out + shed + rejected)
    // and the graft run must never duplicate a full compute.
    #[test]
    fn grafting_is_answer_equivalent_on_random_workloads(
        seed in 0u64..1000,
        threads in 1usize..5,
        queries in 8usize..24,
        dup_stride in 2usize..5,
    ) {
        use std::sync::Arc;
        use vmqs::prelude::{QueryServer, ServerConfig};

        let slide = SlideDataset::new(DatasetId(0), 800, 800);
        let mut specs: Vec<VmQuery> = Vec::with_capacity(queries);
        for i in 0..queries {
            let r = (seed ^ i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every dup_stride-th query repeats an earlier predicate, so
            // copies race their producer and the graft path actually runs.
            if i % dup_stride == dup_stride - 1 {
                specs.push(specs[(r % i as u64) as usize]);
            } else {
                let op = if (r >> 7) & 1 == 0 { VmOp::Subsample } else { VmOp::Average };
                let side = 80 + ((r >> 16) % 3) as u32 * 40;
                let x = ((r >> 32) as u32) % (800 - side);
                let y = ((r >> 44) as u32) % (800 - side);
                specs.push(VmQuery::new(
                    slide,
                    Rect::new(x, y, side, side),
                    1 << ((r >> 24) % 2),
                    op,
                ));
            }
        }

        let run = |graft: bool| {
            let cfg = ServerConfig::new(EngineConfig::small()
                    .with_threads(threads)
                    .with_start_paused(true)
                    .with_graft(graft));
            let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
            let handles = server.submit_batch(specs.clone());
            server.resume_workers();
            let images: Vec<Arc<[u8]>> = handles
                .into_iter()
                .map(|h| h.wait().expect("clean source: every query completes").image)
                .collect();
            server.drain();
            let summary = server.summary();
            server.shutdown();
            (images, summary)
        };
        let (on, sum_on) = run(true);
        let (off, sum_off) = run(false);

        for (i, (a, b)) in on.iter().zip(off.iter()).enumerate() {
            prop_assert!(
                a[..] == b[..],
                "query {} answered differently with grafting on vs off", i
            );
        }
        for (name, s) in [("graft-on", &sum_on), ("graft-off", &sum_off)] {
            prop_assert_eq!(
                s.completed + s.failed + s.timed_out + s.shed + s.rejected,
                queries,
                "{}: every query must resolve exactly once", name
            );
            prop_assert_eq!(s.completed, queries, "{}: clean source completes all", name);
        }
        prop_assert_eq!(
            sum_on.duplicate_full_computes, 0,
            "grafting must never let a full compute race a visible equivalent"
        );
        prop_assert_eq!(sum_off.grafted, 0, "grafting off must never graft");
    }

    // Differential property for the tier-2 spill (DESIGN.md §14): under a
    // tier-1 budget tight enough to force demotions, a server with the
    // disk tier enabled must return byte-identical answers to one without
    // it, on random workloads with repeated predicates (so spilled entries
    // actually re-heat) across 1–4 worker threads — and terminal counts
    // must be conserved in both.
    #[test]
    fn spilling_is_answer_equivalent_on_random_workloads(
        seed in 0u64..1000,
        threads in 1usize..5,
        queries in 8usize..24,
        dup_stride in 2usize..5,
    ) {
        use std::sync::Arc;
        use vmqs::prelude::{QueryServer, ServerConfig};

        let slide = SlideDataset::new(DatasetId(0), 800, 800);
        let mut specs: Vec<VmQuery> = Vec::with_capacity(queries);
        for i in 0..queries {
            let r = (seed ^ i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every dup_stride-th query repeats an earlier predicate, so a
            // spilled copy gets a returning customer and the restore path
            // actually runs.
            if i % dup_stride == dup_stride - 1 {
                specs.push(specs[(r % i as u64) as usize]);
            } else {
                let op = if (r >> 7) & 1 == 0 { VmOp::Subsample } else { VmOp::Average };
                let side = 80 + ((r >> 16) % 3) as u32 * 40;
                let x = ((r >> 32) as u32) % (800 - side);
                let y = ((r >> 44) as u32) % (800 - side);
                specs.push(VmQuery::new(
                    slide,
                    Rect::new(x, y, side, side),
                    1 << ((r >> 24) % 2),
                    op,
                ));
            }
        }

        // Unique spill dir per proptest case, no wall-clock/RNG (banned
        // by the workspace lints): process id + an atomic counter.
        let dir = {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("vmqs-prop-spill-{}-{n}", std::process::id()))
        };
        let run = |spill: bool| {
            // ~3 modest results of tier-1 budget: guaranteed demotion
            // pressure on every generated workload.
            let cfg = ServerConfig::new(EngineConfig::small()
                    .with_threads(threads)
                    .with_start_paused(true)
                    .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased)
                    .with_ds_budget(120_000)
                    .with_tier2_budget(if spill { 64 << 20 } else { 0 }))
                .with_spill_dir(spill.then(|| dir.clone()));
            let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
            let handles = server.submit_batch(specs.clone());
            server.resume_workers();
            let images: Vec<Arc<[u8]>> = handles
                .into_iter()
                .map(|h| h.wait().expect("clean source: every query completes").image)
                .collect();
            server.drain();
            let summary = server.summary();
            server.check_invariants();
            server.shutdown();
            (images, summary)
        };
        let (on, sum_on) = run(true);
        let (off, sum_off) = run(false);
        let _ = std::fs::remove_dir_all(&dir);

        for (i, (a, b)) in on.iter().zip(off.iter()).enumerate() {
            prop_assert!(
                a[..] == b[..],
                "query {} answered differently with the spill tier on vs off", i
            );
        }
        for (name, s) in [("spill-on", &sum_on), ("spill-off", &sum_off)] {
            prop_assert_eq!(
                s.completed + s.failed + s.timed_out + s.shed + s.rejected,
                queries,
                "{}: every query must resolve exactly once", name
            );
            prop_assert_eq!(s.completed, queries, "{}: clean source completes all", name);
        }
        prop_assert_eq!(
            (sum_off.tally.spilled, sum_off.tally.restored),
            (0, 0),
            "spill off must never touch tier 2"
        );
    }
}

// ---------------------------------------------------------------------------
// Volume application properties (§6 extension).
// ---------------------------------------------------------------------------

use vmqs_volume::{Box3, VolOp, VolQuery, VolumeDataset};

fn arb_box3() -> impl Strategy<Value = Box3> {
    (
        0u32..100,
        0u32..100,
        0u32..100,
        1u32..60,
        1u32..60,
        1u32..60,
    )
        .prop_map(|(x, y, z, w, h, d)| Box3::new(x, y, z, w, h, d))
}

proptest! {
    #[test]
    fn box3_intersection_commutative_and_contained(a in arb_box3(), b in arb_box3()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(i.volume() <= a.volume().min(b.volume()));
            prop_assert!(!i.is_empty());
        }
    }

    #[test]
    fn vol_overlap_in_unit_range_and_depth_isolated(
        x1 in 0u32..500, y1 in 0u32..500, z1 in 0u32..300,
        x2 in 0u32..500, y2 in 0u32..500, z2 in 0u32..300,
        l1 in 0usize..3, l2 in 0usize..3,
    ) {
        let lods = [1u32, 2, 4];
        let vol = VolumeDataset::new(DatasetId(0), 1024, 1024, 512);
        let a = VolQuery::new(vol, Rect::new(x1, y1, 256, 256), z1, z1 + 128, lods[l1], VolOp::Mip);
        let b = VolQuery::new(vol, Rect::new(x2, y2, 256, 256), z2, z2 + 128, lods[l2], VolOp::Mip);
        let ov = a.overlap(&b);
        prop_assert!((0.0..=1.0).contains(&ov));
        prop_assert!((a.overlap(&a) - 1.0).abs() < 1e-12);
        // Depth isolation: any depth-range difference kills reuse.
        if a.z0 != b.z0 || a.z1 != b.z1 {
            prop_assert_eq!(ov, 0.0);
        }
        // Non-invertibility on LOD.
        if a.lod > b.lod {
            prop_assert_eq!(ov, 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Volume kernels equal the ground-truth reference for arbitrary
    // LOD-aligned queries (exact for both MIP and average projection).
    #[test]
    fn volume_kernels_match_reference(
        x in 0u32..80, y in 0u32..80,
        side in 4u32..40,
        z0 in 0u32..60, depth in 1u32..40,
        lexp in 0u32..3,
        mip in prop::bool::ANY,
    ) {
        let lod = 1u32 << lexp;
        let vol = VolumeDataset::new(DatasetId(3), 120, 120, 100);
        let op = if mip { VolOp::Mip } else { VolOp::AvgProj };
        let q = VolQuery::new(
            vol,
            Rect::new(x, y, side.max(lod), side.max(lod)),
            z0,
            (z0 + depth).min(100),
            lod,
            op,
        );
        let src = SyntheticSource::new();
        let got = vmqs_volume::kernels::compute_from_bricks(&q, |idx| {
            std::sync::Arc::new(
                vmqs_storage::DataSource::read_page(&src, vol.id, idx, vmqs_volume::PAGE_SIZE)
                    .unwrap(),
            )
        });
        prop_assert_eq!(got, vmqs_volume::kernels::reference_render(&q));
    }

    // Random volume workloads through the generic simulator: completion,
    // sane metrics, determinism.
    #[test]
    fn volume_simulator_sane(seed in 0u64..500, threads in 1usize..5, strat in 0usize..6) {
        let mut wcfg = vmqs_volume::VolWorkloadConfig::standard(VolOp::Mip, seed);
        wcfg.queries_per_client = 3;
        wcfg.clients_per_dataset = vec![2, 1];
        let streams = vmqs_volume::generate_volume(&wcfg);
        let total: usize = streams.iter().map(|s| s.queries.len()).sum();
        let cfg = SimConfig::new(EngineConfig::paper_baseline()
                .with_strategy(RankStrategy::paper_set()[strat])
                .with_threads(threads));
        let cost = vmqs_volume::VolCostModel::calibrated(&cfg.disk);
        let a = vmqs_volume::run_volume_sim(cfg, cost, streams.clone());
        prop_assert_eq!(a.records.len(), total);
        for r in &a.records {
            prop_assert!(r.start >= r.arrival && r.finish >= r.start);
            prop_assert!((0.0..=1.0).contains(&r.covered_fraction));
        }
        let b = vmqs_volume::run_volume_sim(cfg, cost, streams);
        prop_assert_eq!(a.makespan, b.makespan);
    }
}

// ---------------------------------------------------------------------------
// Plan versus run: what `Plan::new` predicts (pages, coverage, reuse,
// sub-queries) is what each application's executor does.
// ---------------------------------------------------------------------------

use std::sync::Arc;
use vmqs_server::{AppExecutor, SharedPageSpace};

/// Runs `app` on `target` with each of `cached` answered by its reference
/// render, and checks the run's counters against the plan and its answer
/// against `render(target)`: byte for byte, or at most `slack(target,
/// source)` below it per byte where the plan projects `source`.
fn run_matches_plan<A: AppExecutor>(
    app: &A,
    target: A::Spec,
    cached: &[A::Spec],
    render: impl Fn(&A::Spec) -> Vec<u8>,
    slack: impl Fn(&A::Spec, &A::Spec) -> u8,
) -> Result<(), TestCaseError> {
    let ps = SharedPageSpace::new(16 << 20, PAGE_SIZE, Arc::new(SyntheticSource::new()));
    let sources: Vec<(A::Spec, Arc<[u8]>)> =
        cached.iter().map(|c| (*c, render(c).into())).collect();
    let out = app.execute(&target, &sources, &ps.session(None)).unwrap();
    let plan = Plan::new(&target, cached);
    prop_assert_eq!(out.pages_requested, plan.pages().count() as u64);
    prop_assert_eq!(out.covered_fraction, plan.covered_fraction);
    prop_assert_eq!(out.reused_bytes, plan.reused_bytes);
    prop_assert_eq!(out.subqueries, plan.subqueries.len() as u64);
    let want = render(&target);
    let slack = plan.projected.iter().map(|&i| slack(&target, &cached[i]));
    let slack = slack.max().unwrap_or(0);
    prop_assert_eq!(out.bytes.len(), want.len());
    for (got, want) in out.bytes.iter().zip(&want) {
        prop_assert!(got <= want && want - got <= slack, "{} vs {}", got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Cached windows sit near the target, at its zoom or finer (one in
    // four coarser), and one in four with the other op: most plans
    // project something, many leave a remainder. Averages projected
    // across a zoom change are re-quantized, one below the direct
    // average at most (`project`'s docs in vmqs-microscope).
    #[test]
    fn vm_run_matches_its_plan(
        (x, y, w, h, zexp) in (0u32..400, 0u32..400, 1u32..160, 1u32..160, 0u32..3),
        subsample in prop::bool::ANY,
        cached in prop::collection::vec(
            (-120i32..120, -120i32..120, 1u32..200, 1u32..200, 0u32..4, 0u8..4),
            0..4,
        ),
    ) {
        let slide = SlideDataset::new(DatasetId(5), 600, 600);
        let op = |same: bool| if same == subsample { VmOp::Subsample } else { VmOp::Average };
        let q = |x, y, w: u32, h: u32, zexp: u32, op| {
            let zoom = 1u32 << zexp;
            VmQuery::new(slide, Rect::new(x, y, w.max(zoom), h.max(zoom)), zoom, op)
        };
        let near = |base: u32, d: i32| base.saturating_add_signed(d).min(500);
        let target = q(x, y, w, h, zexp, op(true));
        let cached: Vec<VmQuery> = cached
            .into_iter()
            .map(|(dx, dy, w, h, zsel, other)| {
                let zexp = if zsel == 3 { zexp + 1 } else { zsel.min(zexp) };
                q(near(x, dx), near(y, dy), w, h, zexp, op(other != 0))
            })
            .collect();
        let requantized = |t: &VmQuery, s: &VmQuery| {
            u8::from(t.op == VmOp::Average && t.zoom != s.zoom)
        };
        let render = |s: &VmQuery| reference_render(s).data;
        run_matches_plan(&vmqs_server::VmExecutor, target, &cached, render, requantized)?;
    }

    // The same for volumes; one cached projection in four is over the
    // other depth slab, which no projection can serve.
    #[test]
    fn volume_run_matches_its_plan(
        (x, y, side, lexp) in (0u32..80, 0u32..80, 4u32..60, 0u32..3),
        mip in prop::bool::ANY,
        cached in prop::collection::vec(
            (
                -40i32..40,
                -40i32..40,
                4u32..60,
                0u32..4,
                0u8..4,
                0u8..4,
            ),
            0..4,
        ),
    ) {
        let vol = VolumeDataset::new(DatasetId(6), 120, 120, 100);
        let op = |same: bool| if same == mip { VolOp::Mip } else { VolOp::AvgProj };
        let q = |x, y, side: u32, slab: bool, lexp: u32, op| {
            let lod = 1u32 << lexp;
            let (z0, z1) = if slab { (0, 40) } else { (20, 60) };
            VolQuery::new(vol, Rect::new(x, y, side.max(lod), side.max(lod)), z0, z1, lod, op)
        };
        let near = |base: u32, d: i32| base.saturating_add_signed(d).min(100);
        let target = q(x, y, side, true, lexp, op(true));
        let cached: Vec<VolQuery> = cached
            .into_iter()
            .map(|(dx, dy, side, lsel, slab, other)| {
                let lexp = if lsel == 3 { lexp + 1 } else { lsel.min(lexp) };
                q(near(x, dx), near(y, dy), side, slab != 0, lexp, op(other != 0))
            })
            .collect();
        let render = |s: &VolQuery| vmqs_volume::kernels::reference_render(s).data;
        run_matches_plan(&vmqs_volume::VolExecutor, target, &cached, render, |_, _| 0)?;
    }
}

// ---------------------------------------------------------------------------
// Index Manager: the Data Store's indexed `lookup` must be observationally
// equivalent to its linear-scan reference, `lookup_filtered(_, None)`,
// however entries came and went.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn spatial_store_equivalent_to_linear(
        ops in prop::collection::vec((0u64..900, 10u64..120, 0usize..2, 0u8..6), 1..60),
        probes in prop::collection::vec((0u64..900, 10u64..120, 0usize..2), 1..8),
        cell in 16u32..200,
        budget in 4u64..40,
    ) {
        use vmqs_core::spec::testutil::IntervalSpec;
        let scales = [1u64, 2];
        // Every entry is one byte, so the budget is an entry count and
        // inserts past it evict in LRU order.
        let mut ds: DataStore<IntervalSpec> = DataStore::new(budget, cell);
        let mut live: Vec<vmqs_core::BlobId> = Vec::new();
        let mut ev = Vec::new();
        for (i, (start, len, sc, op)) in ops.iter().enumerate() {
            if *op == 0 && !live.is_empty() {
                let victim = live.swap_remove(*start as usize % live.len());
                prop_assert!(ds.remove(victim).is_some());
            } else {
                let sp = IntervalSpec::new(*start, len * scales[*sc], scales[*sc]);
                let q = vmqs_core::QueryId(i as u64);
                let blob = ds
                    .insert_costed(q, sp, 1, 0.0, Payload::Virtual, &mut ev)
                    .unwrap();
                live.push(blob);
                live.retain(|b| !ev.iter().any(|r| r.blob == *b));
                ev.clear();
            }
            prop_assert_eq!(ds.len(), live.len());
            for (start, len, sc) in &probes {
                let probe = IntervalSpec::new(*start, len * scales[*sc], scales[*sc]);
                let a = ds.lookup(&probe);
                let b = ds.lookup_filtered(&probe, None);
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(x.blob, y.blob);
                    prop_assert_eq!(x.overlap, y.overlap);
                    prop_assert_eq!(x.reuse_bytes, y.reuse_bytes);
                }
            }
        }
    }

    #[test]
    fn grid_index_query_equals_linear_intersection(
        rects in prop::collection::vec(
            (0u32..400, 0u32..400, 1u32..80, 1u32..80), 0..30),
        probe in (0u32..400, 0u32..400, 1u32..120, 1u32..120),
        cell in 8u32..128,
    ) {
        use vmqs_core::GridIndex;
        let ds = DatasetId(0);
        let mut g = GridIndex::new(cell);
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h)| Rect::new(x, y, w, h))
            .collect();
        for (i, r) in rects.iter().enumerate() {
            g.insert(i as u64, ds, *r);
        }
        let probe = Rect::new(probe.0, probe.1, probe.2, probe.3);
        let mut expect: Vec<u64> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&probe))
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(g.query(ds, &probe), expect);
    }
}

proptest! {
    /// The retry backoff schedule (DESIGN.md §8) under arbitrary
    /// policies: the base schedule is monotone nondecreasing and capped,
    /// and the jittered delay is deterministic per seed and confined to
    /// `[base, base × (1 + jitter)]`.
    #[test]
    fn retry_backoff_is_bounded_monotone_and_deterministic(
        max_retries in 0u32..12,
        base_us in 1u64..5_000,
        cap_mult in 1u32..64,
        jitter_pct in 0u32..101,
        seed in 0u64..u64::MAX,
    ) {
        use std::time::Duration;
        use vmqs_pagespace::RetryPolicy;
        let base = Duration::from_micros(base_us);
        let p = RetryPolicy {
            max_retries,
            base_delay: base,
            max_delay: base * cap_mult,
            jitter: jitter_pct as f64 / 100.0,
        };
        let mut prev = Duration::ZERO;
        let mut total = Duration::ZERO;
        for attempt in 1..=max_retries.max(1) {
            let b = p.base_backoff(attempt);
            prop_assert!(b >= prev, "base schedule must be monotone");
            prop_assert!(b <= p.max_delay, "base schedule must respect the cap");
            prev = b;
            let d = p.backoff_delay(attempt, seed);
            prop_assert_eq!(
                d,
                p.backoff_delay(attempt, seed),
                "delay must be deterministic per (seed, attempt)"
            );
            prop_assert!(d >= b, "jitter only stretches, never shrinks");
            // +1 ns absorbs mul_f64 rounding at the window's upper edge.
            prop_assert!(
                d <= b.mul_f64(1.0 + p.jitter) + Duration::from_nanos(1),
                "jitter must stay within its window"
            );
            if attempt <= max_retries {
                total += d;
            }
        }
        prop_assert!(
            total <= p.worst_case_backoff() + Duration::from_nanos(max_retries as u64),
            "exhausting all retries must cost at most the documented worst case"
        );
    }
}

// ---------------------------------------------------------------------------
// Overload management: token-bucket refill arithmetic and shed tie-breaking
// (the admission primitives behind DESIGN.md §10; the server takes tokens
// under its `admission` mutex).
// ---------------------------------------------------------------------------

proptest! {
    /// Under any timestamp sequence — including adversarial backwards
    /// jumps — admissions in a monotone-time window never exceed
    /// `burst + rate * elapsed` (the arithmetic the rate limiter
    /// exists to enforce), tokens never go negative (more takes never
    /// succeed than were minted), and time never runs backwards
    /// *inside* the bucket (a past timestamp mints nothing).
    #[test]
    fn token_bucket_never_exceeds_refill_arithmetic(
        rate_centi in 10u64..6400,
        steps in prop::collection::vec((0u64..3, 0u64..5000, 1u64..4), 1..40),
    ) {
        let rate = rate_centi as f64 / 100.0;
        let burst = rate.max(1.0);
        let mut bucket = vmqs_core::TokenBucket::new(rate);
        let mut now = 10.0f64; // arbitrary epoch
        let mut admitted_total = 0u64;
        // The bucket's internal high-water mark starts at the first
        // probe's timestamp (it is full until then, so earlier time
        // mints nothing) and only ever advances; minting is bounded by
        // the span it sweeps. Track that span from the probes we issue.
        let mut first_probe: Option<f64> = None;
        let mut hwm = f64::NEG_INFINITY;
        for (dir, dt_milli, probes) in steps {
            let dt = dt_milli as f64 / 1000.0;
            // dir 0: forward jump, 1: backwards jump, 2: hold still.
            match dir {
                0 => now += dt,
                1 => now -= dt,
                _ => {}
            }
            for _ in 0..probes {
                first_probe.get_or_insert(now);
                hwm = hwm.max(now);
                if bucket.try_take(now) {
                    admitted_total += 1;
                }
            }
            // Refill cap: everything admitted fits in the initial burst
            // plus what the swept monotone span could mint (backwards
            // jumps must never mint).
            let Some(t0) = first_probe else { continue };
            let elapsed = hwm - t0;
            let cap = burst + rate * elapsed;
            // +1e-6 absorbs f64 rounding in the comparison only.
            prop_assert!(
                (admitted_total as f64) <= cap + 1e-6,
                "admitted {} > burst {} + rate {} * elapsed {}",
                admitted_total, burst, rate, elapsed
            );
        }
    }

    /// Feeding two buckets the same (rate, timestamp) sequence gives
    /// identical admit/reject decisions: the limiter is a pure function
    /// of its inputs, never of host state.
    #[test]
    fn token_bucket_is_deterministic(
        rate_centi in 10u64..6400,
        steps in prop::collection::vec(0u64..10_000, 1..60),
    ) {
        let rate = rate_centi as f64 / 100.0;
        let mut a = vmqs_core::TokenBucket::new(rate);
        let mut b = vmqs_core::TokenBucket::new(rate);
        for milli in steps {
            let now = milli as f64 / 1000.0;
            prop_assert_eq!(a.try_take(now), b.try_take(now));
        }
    }

    /// `time_to_token` agrees with `try_take`: zero means a take
    /// succeeds right now, and a positive estimate means a take at
    /// `now` fails but one at `now + estimate` (plus float slack)
    /// succeeds.
    #[test]
    fn token_bucket_time_to_token_is_honest(
        rate_centi in 10u64..6400,
        drains in 0u64..8,
        milli in 0u64..5000,
    ) {
        let rate = rate_centi as f64 / 100.0;
        let mut bucket = vmqs_core::TokenBucket::new(rate);
        let now = milli as f64 / 1000.0;
        for _ in 0..drains {
            let _ = bucket.try_take(now);
        }
        let wait = bucket.time_to_token(now);
        prop_assert!(wait >= 0.0, "negative retry hint {wait}");
        // TokenBucket is Copy: each probe below works on a fresh copy
        // so the probes cannot interfere with one another.
        if wait == 0.0 {
            let mut probe = bucket;
            prop_assert!(probe.try_take(now));
        } else {
            let mut probe = bucket;
            prop_assert!(!probe.try_take(now));
            let mut probe = bucket;
            prop_assert!(probe.try_take(now + wait + 1e-9));
        }
    }

    /// The shed victim is the unique max by (qinputsize, arrival, id)
    /// — and therefore invariant under any permutation of the
    /// candidate list, even with adversarial ties on size and arrival.
    /// (The candidates come from `SchedulingGraph::ids_in_state`, in id
    /// order today; the verdict must not lean on that.)
    #[test]
    fn shed_victim_tie_breaking_is_total_and_order_free(
        candidates in prop::collection::vec((0u64..32, 0u64..4, 0u64..4), 1..24),
        rotation in 0usize..24,
    ) {
        // Query ids are unique in the scheduler; fold the index in so
        // generated ids are too (ties remain on size and arrival).
        let cands: Vec<(QueryId, u64, u64)> = candidates
            .iter()
            .enumerate()
            .map(|(i, &(id, size, arrival))| (QueryId(id + 32 * i as u64), size, arrival))
            .collect();
        let victim = vmqs_core::shed_victim(cands.clone()).expect("non-empty");

        // The winner dominates every candidate in lexicographic
        // (size, arrival, id) order.
        let key = |c: &(QueryId, u64, u64)| (c.1, c.2, c.0);
        let vc = cands.iter().find(|c| c.0 == victim).expect("victim from set");
        for c in &cands {
            prop_assert!(key(c) <= key(vc), "{c:?} dominates chosen {vc:?}");
        }

        // Permutation invariance: rotate and reverse the list.
        let mut rotated = cands.clone();
        let by = rotation % rotated.len();
        rotated.rotate_left(by);
        prop_assert_eq!(vmqs_core::shed_victim(rotated), Some(victim));
        let mut reversed = cands.clone();
        reversed.reverse();
        prop_assert_eq!(vmqs_core::shed_victim(reversed), Some(victim));
    }

    /// The admission ladder asks its driver for the Data Store / Page
    /// Space signals only when the queue depth alone does not settle the
    /// verdict. This is why that never matters: over any config, depth
    /// and signals, the ladder decides what the same rungs decide when
    /// written the naive way — signals always gathered, no bound — and
    /// when it did not ask, the signals could not have changed anything.
    #[test]
    fn ladder_verdict_does_not_depend_on_when_the_signals_are_gathered(
        max_pending in 0usize..40,
        depth in 0usize..48,
        rate_limited in prop::bool::ANY,
        token in prop::bool::ANY,
        // Thresholds in tenths; above 10 (> 1.0) the mechanism is off.
        thresholds in (0u32..16, 0u32..16),
        // Signals in quarters of their [0, 1] range.
        signals in (0u32..5, 0u32..5, 0u32..5),
    ) {
        use std::cell::Cell;
        use vmqs_core::{overload, OverloadConfig, Secondary, Verdict};
        let cfg = OverloadConfig::default()
            .with_max_pending(max_pending)
            .with_client_rate(if rate_limited { 2.0 } else { 0.0 })
            .with_degrade_threshold(thresholds.0 as f64 / 10.0)
            .with_shed_threshold(thresholds.1 as f64 / 10.0);
        let secondary = Secondary {
            ds_occupancy: signals.0 as f64 / 4.0,
            ps_miss_ratio: signals.1 as f64 / 4.0,
            retry_ratio: signals.2 as f64 / 4.0,
        };
        let asked = Cell::new(0u32);
        let (verdict, pressure) = overload::admit(
            &cfg,
            depth,
            4,
            || if token { Ok(()) } else { Err(0.5) },
            || {
                asked.set(asked.get() + 1);
                secondary
            },
            || 0.1,
        );
        prop_assert!(asked.get() <= 1);

        // The naive ladder: the level formula of DESIGN.md §10 with the
        // signals in hand from the start.
        let level = |waiting: usize| {
            if max_pending == 0 {
                return 0.0;
            }
            let amplification = 1.0
                + 0.5 * secondary.ds_occupancy
                + 0.25 * secondary.ps_miss_ratio
                + 0.25 * secondary.retry_ratio;
            ((waiting as f64 / max_pending as f64).min(1.0) * amplification).min(1.0)
        };
        if rate_limited && !token {
            let refused = matches!(verdict, Verdict::Reject { rate_limited: true, .. });
            prop_assert!(refused, "{:?}", verdict);
            prop_assert_eq!(asked.get(), 0);
        } else if max_pending > 0 && depth >= max_pending {
            let refused = matches!(verdict, Verdict::Reject { rate_limited: false, .. });
            prop_assert!(refused, "{:?}", verdict);
            prop_assert_eq!(asked.get(), 0);
        } else {
            let degrade = level(depth + 1) >= cfg.degrade_threshold;
            prop_assert_eq!(verdict, Verdict::Admit { degrade });
            // Shed-while, as the drivers run it: from the depth the
            // arrival made, down to an empty queue.
            for waiting in (0..=depth + 1).rev() {
                let sheds = level(waiting) >= cfg.shed_threshold;
                prop_assert_eq!(pressure.sheds_at(waiting), sheds, "waiting {}", waiting);
                if asked.get() == 1 {
                    prop_assert_eq!(pressure.level(waiting), level(waiting));
                }
            }
            if !cfg.enabled() {
                prop_assert_eq!(asked.get(), 0, "overload off gathers nothing");
            }
        }
    }
}
