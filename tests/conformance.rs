//! Scheduler-conformance golden tests (DESIGN.md §9).
//!
//! The discrete-event simulator and the real threaded server share the
//! scheduling graph, Data Store, and page-cache cores, and both emit the
//! same typed event schema. With a single worker (and the server's paused
//! start mirroring the simulator's batch-start gate) the two engines must
//! make *identical* scheduling decisions on the same seeded workload: the
//! same `Ranked` score sequence, bit-for-bit, and the same Data Store
//! reuse edges in the same order — for every paper strategy, plus CNBF
//! with grafting enabled (whose `Grafted` edges are also pinned; at one
//! worker no producer can be EXECUTING at dequeue time, so both engines
//! must agree the edge set is empty). The six paper strategies run
//! grafting-off, so their goldens are untouched by the graft layer.
//!
//! The two cross-engine tests also run the server side at
//! [`RACY_WORKERS`] workers. Dispatch order is then racy and queries
//! block on EXECUTING peers (paper §4), so only the per-engine event-log
//! invariants are asserted. On a golden mismatch both traces are written
//! to `target/conformance/` as JSON before the panic, so CI can upload
//! them as artifacts.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use vmqs_core::{
    ChaosConfig, ClientId, DatasetId, EngineConfig, EvictionPolicy, OverloadConfig, QueryId, Rect,
    Strategy,
};
use vmqs_datastore::DsStats;
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_obs::timeline::{
    admission_sequence, grafted_edges, ranked_sequence, reuse_edges, timelines, Terminal,
};
use vmqs_obs::{
    events_to_json, EventKind, EventRecord, MetricsRegistry, MetricsSnapshot, QueryMetrics,
    RunTally,
};
use vmqs_server::{QueryServer, ServerConfig, ServerError};
use vmqs_sim::{run_sim, ClientStream, SimConfig, SubmissionMode};
use vmqs_storage::SyntheticSource;

const QUERIES: usize = 32;
/// Small enough that the workload's results force mid-run evictions, so
/// the conformance check covers swap-out bookkeeping too.
const DS_BUDGET: u64 = 512 << 10;
const PS_BUDGET: u64 = 4 << 20;
const INDEX_CELL: u32 = 512;
/// Server workers for the runs whose dispatch order is racy.
const RACY_WORKERS: usize = 8;

/// Deterministic seeded workload over two slides (the LCG scheme the
/// fault tests use): repeats force exact hits, 80px-aligned neighbours
/// force partial reuse, and both ops and several zooms appear.
fn workload() -> Vec<VmQuery> {
    let slides = [
        SlideDataset::new(DatasetId(0), 800, 800),
        SlideDataset::new(DatasetId(1), 600, 600),
    ];
    (0..QUERIES)
        .map(|i| {
            let r = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slide = slides[(r >> 8) as usize % slides.len()];
            let op = if (r >> 5) & 1 == 0 {
                VmOp::Subsample
            } else {
                VmOp::Average
            };
            let zoom = match op {
                VmOp::Subsample => 1u32 << ((r >> 16) % 3),
                VmOp::Average => 2,
            };
            let side = 120 + ((r >> 24) % 2) as u32 * 40;
            let max = slide.width.min(slide.height) - side;
            let x = ((r >> 32) as u32 % max) / 80 * 80;
            let y = ((r >> 44) as u32 % max) / 80 * 80;
            VmQuery::new(slide, Rect::new(x, y, side, side), zoom, op)
        })
        .collect()
}

/// The settings every cross-engine run starts from, handed unchanged to
/// both engines: one worker, budgets small enough to evict, the event
/// log on, and the whole batch in the graph before the first dequeue (a
/// paused server pool, the simulator's batch gate).
fn engine(strategy: Strategy) -> EngineConfig {
    EngineConfig::small()
        .with_strategy(strategy)
        .with_threads(1)
        .with_ds_budget(DS_BUDGET)
        .with_ps_budget(PS_BUDGET)
        .with_index_cell(INDEX_CELL)
        .with_observe(true)
        .with_start_paused(true)
}

/// Runs the workload through the threaded server at `workers` workers:
/// all queries submitted while the workers sleep, then the pool is
/// resumed — so the whole batch is ranked against the full graph,
/// exactly like the simulator's gated batch start.
fn run_server(engine: EngineConfig, workers: usize) -> Vec<EventRecord> {
    let cfg = ServerConfig::new(engine.with_threads(workers));
    let server = QueryServer::new(cfg, Arc::new(SyntheticSource::new()));
    let handles = server.submit_batch(workload());
    server.resume_workers();
    for h in handles {
        h.wait().expect("clean source: every query completes");
    }
    server.drain();
    let events = server.events();
    server.shutdown();
    events
}

/// Runs the same workload through the simulator as one batch.
fn run_simulator(engine: EngineConfig) -> Vec<EventRecord> {
    let cfg = SimConfig::new(engine).with_mode(SubmissionMode::Batch);
    let streams = vec![ClientStream {
        client: ClientId(0),
        queries: workload(),
    }];
    run_sim(cfg, streams).events
}

/// Event-log invariants that hold for any engine, any worker count:
/// every query Submitted exactly once, exactly one terminal event and one
/// `Ranked` per query, per-query timestamps nondecreasing in sequence
/// order, and every `LookupHit` overlap within `[0, 1]`.
fn assert_event_invariants(events: &[EventRecord], ctx: &str) {
    let mut submitted: HashMap<QueryId, u64> = HashMap::new();
    let mut terminals: HashMap<QueryId, u64> = HashMap::new();
    let mut ranked: HashMap<QueryId, u64> = HashMap::new();
    let mut last_time: HashMap<QueryId, f64> = HashMap::new();
    for e in events {
        let prev = last_time.insert(e.query, e.time).unwrap_or(0.0);
        assert!(
            e.time >= prev,
            "{ctx}: {} time went backwards ({prev} -> {})",
            e.query,
            e.time
        );
        match e.kind {
            EventKind::Submitted => *submitted.entry(e.query).or_default() += 1,
            EventKind::Ranked { .. } => *ranked.entry(e.query).or_default() += 1,
            EventKind::LookupHit { overlap, .. } => {
                assert!(
                    (0.0..=1.0).contains(&overlap),
                    "{ctx}: {} overlap {overlap} out of range",
                    e.query
                );
            }
            k if k.is_terminal() => *terminals.entry(e.query).or_default() += 1,
            _ => {}
        }
    }
    assert_eq!(submitted.len(), QUERIES, "{ctx}: every query submitted");
    for (q, n) in &submitted {
        assert_eq!(*n, 1, "{ctx}: {q} submitted more than once");
        assert_eq!(
            terminals.get(q),
            Some(&1),
            "{ctx}: {q} must have exactly one terminal event"
        );
        assert_eq!(
            ranked.get(q),
            Some(&1),
            "{ctx}: {q} must be ranked exactly once"
        );
    }
}

/// Writes both traces under `target/conformance/` (CI uploads this
/// directory when a test fails) and returns the directory path.
fn dump_traces(name: &str, sim: &[EventRecord], server: &[EventRecord]) -> String {
    let dir = "target/conformance";
    std::fs::create_dir_all(dir).expect("create trace dir");
    std::fs::write(format!("{dir}/{name}_sim.json"), events_to_json(sim)).expect("write sim trace");
    std::fs::write(format!("{dir}/{name}_server.json"), events_to_json(server))
        .expect("write server trace");
    dir.to_string()
}

#[test]
fn golden_traces_match_across_engines_for_every_strategy() {
    // The six paper strategies run grafting-off (their goldens predate
    // the graft layer and must stay bit-for-bit); the seventh entry is
    // CNBF with grafting on.
    let strategies: Vec<(Strategy, bool)> = Strategy::paper_set()
        .into_iter()
        .map(|s| (s, false))
        .chain([(Strategy::Cnbf, true)])
        .collect();
    for (strategy, graft) in strategies {
        let label = if graft {
            format!("{strategy}+graft")
        } else {
            strategy.to_string()
        };
        let cfg = engine(strategy).with_graft(graft);
        let sim_events = run_simulator(cfg);
        let server_events = run_server(cfg, 1);
        assert_event_invariants(&sim_events, &format!("sim/{label}"));
        assert_event_invariants(&server_events, &format!("server/{label}x1"));
        // Racy dispatch: decision sequences are not pinned, only the
        // per-engine invariants.
        let racy = run_server(cfg, RACY_WORKERS);
        assert_event_invariants(&racy, &format!("server/{label}x{RACY_WORKERS}"));

        let sim_ranked = ranked_sequence(&sim_events);
        let server_ranked = ranked_sequence(&server_events);
        if sim_ranked != server_ranked {
            let dir = dump_traces(&label, &sim_events, &server_events);
            panic!(
                "{label}: Ranked sequences diverged \
                 (sim {:?}... vs server {:?}...); traces in {dir}/",
                &sim_ranked[..sim_ranked.len().min(4)],
                &server_ranked[..server_ranked.len().min(4)],
            );
        }

        let sim_edges = reuse_edges(&sim_events);
        let server_edges = reuse_edges(&server_events);
        if sim_edges != server_edges {
            let dir = dump_traces(&label, &sim_events, &server_events);
            panic!(
                "{label}: Data Store reuse edges diverged \
                 ({} sim vs {} server); traces in {dir}/",
                sim_edges.len(),
                server_edges.len(),
            );
        }
        // Grafted edges are part of the golden trace too. At one worker
        // nothing can be EXECUTING at dequeue time, so both engines must
        // agree the set is empty — a sim that "grafts" sequentially or a
        // server that leaks a subscription would diverge here.
        let sim_grafts = grafted_edges(&sim_events);
        let server_grafts = grafted_edges(&server_events);
        if sim_grafts != server_grafts {
            let dir = dump_traces(&label, &sim_events, &server_events);
            panic!(
                "{label}: Grafted edges diverged \
                 ({sim_grafts:?} sim vs {server_grafts:?} server); traces in {dir}/"
            );
        }
        if graft {
            assert!(
                sim_grafts.is_empty(),
                "{label}: grafts are impossible at one worker"
            );
        }
        assert!(
            !sim_ranked.is_empty(),
            "{label}: conformance must compare a non-trivial sequence"
        );
    }
}

#[test]
fn conformance_workload_exercises_reuse_and_eviction() {
    // The golden comparison is only meaningful if the workload actually
    // drives the interesting paths: reuse edges AND evictions must occur.
    let events = run_simulator(engine(Strategy::Cnbf));
    let edges = reuse_edges(&events);
    assert!(!edges.is_empty(), "workload must produce reuse edges");
    assert!(
        edges.iter().any(|&(_, _, exact)| exact),
        "workload must produce at least one exact hit"
    );
    let evictions = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Evicted { .. }))
        .count();
    assert!(
        evictions > 0,
        "DS budget must be tight enough to force evictions"
    );
    let tls = timelines(&events);
    assert_eq!(tls.len(), QUERIES);
    assert!(tls.iter().all(|t| t.latency().is_some()));
}

/// Overload configurations whose admission/degrade/shed decisions the two
/// engines must replay identically. Rate limiting is excluded: its token
/// bucket refills in wall-clock time on the server and virtual time in
/// the simulator, so only the pressure-driven mechanisms are golden.
fn overload_configs() -> Vec<(&'static str, OverloadConfig)> {
    vec![
        (
            "shed+degrade",
            OverloadConfig::default()
                .with_max_pending(8)
                .with_degrade_threshold(0.5)
                .with_shed_threshold(0.9),
        ),
        ("reject-only", OverloadConfig::default().with_max_pending(8)),
    ]
}

/// Server-side overload run: paused pool, one worker, the whole batch
/// submitted through the admission ladder, then resumed. Returns the
/// event log plus the handle outcomes `(completed, overloaded, shed)` —
/// every handle must resolve with a typed result, never hang.
fn run_server_overload(engine: EngineConfig) -> (Vec<EventRecord>, (usize, usize, usize)) {
    let server = QueryServer::new(ServerConfig::new(engine), Arc::new(SyntheticSource::new()));
    let handles = server.submit_batch(workload());
    server.resume_workers();
    let (mut done, mut overloaded, mut shed) = (0, 0, 0);
    for h in handles {
        match h.wait() {
            Ok(_) => done += 1,
            Err(ServerError::Overloaded { .. }) => overloaded += 1,
            Err(ServerError::Shed { .. }) => shed += 1,
            Err(e) => panic!("unexpected error under overload: {e}"),
        }
    }
    server.drain();
    let events = server.events();
    server.shutdown();
    (events, (done, overloaded, shed))
}

/// Simulator-side overload run with the identical config, gated batch.
fn run_simulator_overload(engine: EngineConfig) -> (Vec<EventRecord>, (usize, usize, usize)) {
    let cfg = SimConfig::new(engine).with_mode(SubmissionMode::Batch);
    let streams = vec![ClientStream {
        client: ClientId(0),
        queries: workload(),
    }];
    let report = run_sim(cfg, streams);
    let outcomes = (
        report.records.len(),
        report.tally.rejected as usize,
        report.tally.shed as usize,
    );
    (report.events, outcomes)
}

/// Event-log invariants under overload: every query Submitted exactly
/// once with exactly one terminal; rejected and shed queries are *never*
/// Ranked (they never reach a worker); completed queries are Ranked
/// exactly once.
fn assert_overload_invariants(events: &[EventRecord], ctx: &str) {
    let tls = timelines(events);
    assert_eq!(tls.len(), QUERIES, "{ctx}: every query appears");
    for t in &tls {
        assert!(t.submitted.is_some(), "{ctx}: {} submitted", t.query);
        let (terminal, _) = t
            .terminal
            .unwrap_or_else(|| panic!("{ctx}: {} must have a terminal event", t.query));
        match terminal {
            Terminal::Rejected | Terminal::Shed => {
                assert!(
                    t.ranked.is_none(),
                    "{ctx}: {} refused at admission must never be ranked",
                    t.query
                );
            }
            Terminal::Completed => {
                assert!(
                    t.ranked.is_some(),
                    "{ctx}: {} completed without being ranked",
                    t.query
                );
            }
            other => panic!("{ctx}: {} unexpected terminal {other:?}", t.query),
        }
    }
}

#[test]
fn overload_decisions_match_across_engines() {
    for (name, ov) in overload_configs() {
        let cfg = engine(Strategy::Cnbf).with_overload(ov);
        let (sim_events, sim_outcomes) = run_simulator_overload(cfg);
        let (server_events, server_outcomes) = run_server_overload(cfg);
        assert_overload_invariants(&sim_events, &format!("sim/{name}"));
        assert_overload_invariants(&server_events, &format!("server/{name}"));

        // The golden comparison: identical admission / degradation / shed
        // decisions, and identical dispatch order for the survivors.
        let sim_adm = admission_sequence(&sim_events);
        let server_adm = admission_sequence(&server_events);
        if sim_adm != server_adm {
            let dir = dump_traces("CNBF", &sim_events, &server_events);
            panic!(
                "{name}: admission sequences diverged \
                 (sim {:?}... vs server {:?}...); traces in {dir}/",
                &sim_adm[..sim_adm.len().min(6)],
                &server_adm[..server_adm.len().min(6)],
            );
        }
        assert!(
            !sim_adm.is_empty(),
            "{name}: overload config must actually trigger decisions"
        );
        assert_eq!(
            ranked_sequence(&sim_events),
            ranked_sequence(&server_events),
            "{name}: surviving dispatch order must match"
        );
        // Handle-level conservation matches the event log on both sides.
        assert_eq!(sim_outcomes, server_outcomes, "{name}: outcome counts");
        let (done, overloaded, shed) = server_outcomes;
        assert_eq!(done + overloaded + shed, QUERIES, "{name}: conservation");
    }
}

#[test]
fn overload_conformance_workload_exercises_all_mechanisms() {
    // The golden comparison above is only meaningful if the configs drive
    // the interesting paths on this workload.
    let with = |ov| engine(Strategy::Cnbf).with_overload(ov);
    let (_, (_, rejected, _)) = run_simulator_overload(with(overload_configs()[1].1));
    assert!(rejected > 0, "reject-only config must reject");
    let (events, (_, _, shed)) = run_simulator_overload(with(overload_configs()[0].1));
    assert!(shed > 0, "shed config must shed");
    let degraded = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Degraded))
        .count();
    assert!(degraded > 0, "degrade threshold must trigger on Averages");
}

#[test]
fn server_golden_trace_is_reproducible() {
    // The threaded engine at one worker must replay the same decision
    // sequence run-to-run — the property the cross-engine check rests on.
    let a = run_server(engine(Strategy::Cnbf), 1);
    let b = run_server(engine(Strategy::Cnbf), 1);
    assert_eq!(ranked_sequence(&a), ranked_sequence(&b));
    assert_eq!(reuse_edges(&a), reuse_edges(&b));
    // And with the graft layer armed: producer-affinity dequeue must not
    // perturb single-worker determinism.
    let a = run_server(engine(Strategy::Cnbf).with_graft(true), 1);
    let b = run_server(engine(Strategy::Cnbf).with_graft(true), 1);
    assert_eq!(ranked_sequence(&a), ranked_sequence(&b));
    assert_eq!(reuse_edges(&a), reuse_edges(&b));
    assert_eq!(grafted_edges(&a), grafted_edges(&b));
}

/// The Data Store eviction victim sequence as `(victim, tier, score)`,
/// with the score captured bit-for-bit.
fn eviction_sequence(events: &[EventRecord]) -> Vec<(QueryId, u8, u64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Evicted { tier, score } => Some((e.query, tier, score.to_bits())),
            _ => None,
        })
        .collect()
}

/// Simulator run under the cost-based cache hierarchy (DESIGN.md §14):
/// benefit-aware eviction plus a virtual tier-2 spill store. The victim
/// sequence is pinned *in the simulator only* — its benefit scores are
/// built from virtual I/O + CPU costs, so they replay bit-for-bit. The
/// threaded server seeds scores from measured wall time; its victim
/// *order* is therefore not golden (only its event invariants are).
fn run_simulator_costed(tier2_budget: u64) -> Vec<EventRecord> {
    let cfg = engine(Strategy::Cnbf)
        .with_cache_policy(EvictionPolicy::CostBased)
        .with_tier2_budget(tier2_budget);
    run_simulator(cfg)
}

#[test]
fn cost_based_victim_sequence_is_pinned_in_the_simulator() {
    // Tier 2 smaller than the in-memory tier: the spill store fills and
    // must itself evict, so the pinned sequence covers both tiers.
    let a = run_simulator_costed(128 << 10);
    let b = run_simulator_costed(128 << 10);
    assert_event_invariants(&a, "sim/cost-based");
    let evictions = eviction_sequence(&a);
    assert_eq!(
        evictions,
        eviction_sequence(&b),
        "cost-based victim sequence (including scores) must replay bit-for-bit"
    );
    assert!(
        !evictions.is_empty(),
        "DS budget must be tight enough to force cost-based evictions"
    );
    for (q, tier, bits) in &evictions {
        assert!(matches!(tier, 1 | 2), "{q}: eviction tier must be 1 or 2");
        let score = f64::from_bits(*bits);
        assert!(
            score.is_finite() && score >= 0.0,
            "{q}: benefit score {score} must be a finite non-negative rate"
        );
    }
    // The knapsack must actually change decisions: the same workload
    // under the legacy recency policy evicts in a different order.
    let legacy: Vec<QueryId> = eviction_sequence(&run_simulator(engine(Strategy::Cnbf)))
        .iter()
        .map(|&(q, _, _)| q)
        .collect();
    let costed: Vec<QueryId> = evictions.iter().map(|&(q, _, _)| q).collect();
    assert_ne!(
        costed, legacy,
        "cost-based policy must pick different victims than recency"
    );
}

#[test]
fn legacy_policy_emits_no_tier2_events() {
    // The six paper goldens above run under the legacy recency policy;
    // the tier-2 machinery must be completely inert there — no spills,
    // no restores, and every eviction a plain tier-1 drop.
    let events = run_simulator(engine(Strategy::Cnbf));
    for e in &events {
        match e.kind {
            EventKind::Spilled { .. } | EventKind::Restored { .. } => {
                panic!("{}: legacy policy must never touch tier 2", e.query)
            }
            EventKind::Evicted { tier, .. } => {
                assert_eq!(tier, 1, "{}: legacy evictions are in-memory drops", e.query)
            }
            _ => {}
        }
    }
}

/// Replays `events` through [`QueryMetrics::count`] into a fresh registry
/// and checks every counter that `count` can reach against the engine's
/// own snapshot: the log and the counters of one run tell one story. The
/// three Data Store answer-path counters and the reused-bytes counter are
/// the only ones in `QueryMetrics` that no event stands for. The engine's
/// [`RunTally`] must read the snapshot's counters too, each under its own
/// name; and its [`DsStats::series`] export must equal the store's own
/// counters.
fn assert_log_agrees_with_counters(
    events: &[EventRecord],
    engine: &MetricsSnapshot,
    tally: RunTally,
    ds: DsStats,
    ctx: &str,
) {
    let replay = MetricsRegistry::new();
    let counters = QueryMetrics::resolve(&replay);
    for e in events {
        counters.count(&e.kind);
    }
    let unlogged = [
        "vmqs_ds_exact_hits_total",
        "vmqs_ds_partial_hits_total",
        "vmqs_ds_misses_total",
        "vmqs_reused_bytes_total",
    ];
    let mut checked = 0;
    for (name, from_log) in replay.snapshot().counters {
        if unlogged.contains(&name.as_str()) {
            continue;
        }
        let counted = engine.counters.get(&name).copied();
        assert_eq!(counted, Some(from_log), "{ctx}: {name}");
        checked += 1;
    }
    assert_eq!(checked, 15, "{ctx}: every event-backed counter compared");
    // Destructured whole, so a new tally field fails to compile here
    // until it is named.
    let RunTally {
        completed,
        failed,
        timed_out,
        rejected,
        shed,
        degraded,
        spilled,
        restored,
        worker_panics,
        worker_restarts,
        quarantined,
        hung,
    } = tally;
    let named = [
        ("vmqs_queries_completed_total", completed),
        ("vmqs_queries_failed_total", failed),
        ("vmqs_queries_timed_out_total", timed_out),
        ("vmqs_queries_rejected_total", rejected),
        ("vmqs_queries_shed_total", shed),
        ("vmqs_queries_degraded_total", degraded),
        ("vmqs_ds_spills_total", spilled),
        ("vmqs_ds_restores_total", restored),
        ("vmqs_worker_panics_total", worker_panics),
        ("vmqs_worker_restarts_total", worker_restarts),
        ("vmqs_queries_quarantined_total", quarantined),
        ("vmqs_queries_hung_total", hung),
    ];
    for (name, v) in named.into_iter().chain(ds.series()) {
        assert_eq!(engine.counters.get(name), Some(&v), "{ctx}: {name}");
    }
}

/// Hang limit of the server's runs in the parity corpus, where a case
/// arms the watchdog: 50 µs of wall time. The simulator takes the case's
/// own limit as virtual time.
const WALL_HANG: Duration = Duration::from_micros(50);

/// The parity corpus: the conformance workload under everything that
/// ends a query some other way than completing it (shedding,
/// degradation, rejection, poison queries killing workers, a hang
/// watchdog) and under stores small enough to evict, spill and restore.
/// Each case is the settings both engines take, plus whether to feed the
/// workload twice, one query at a time (submit-and-wait on the server,
/// one interactive client in the simulator), so the second pass asks for
/// what the first one spilled. Otherwise it is one batch.
fn parity_corpus() -> Vec<(&'static str, EngineConfig, bool)> {
    let base = engine(Strategy::Cnbf)
        .with_cache_policy(EvictionPolicy::CostBased)
        .with_tier2_budget(128 << 10)
        .with_quarantine_limit(2)
        .with_restart_budget(64);
    let chaos = base.with_chaos(ChaosConfig::none().with_seed(7).with_poison_rate(0.15));
    let mut corpus: Vec<_> = overload_configs()
        .into_iter()
        .chain([("chaos", OverloadConfig::default())])
        .map(|(name, overload)| (name, chaos.with_overload(overload), false))
        .collect();
    corpus.extend([
        // Which of evict and spill a full cost-based store picks depends
        // on benefit scores (wall time on the server, virtual time in the
        // simulator); LRU overflows this tier 2 in both.
        ("lru", base.with_cache_policy(EvictionPolicy::Lru), false),
        (
            "hang",
            base.with_hang_timeout(Some(Duration::from_millis(1))),
            false,
        ),
        (
            "second pass",
            base.with_cache_policy(EvictionPolicy::Lru)
                .with_ds_budget(256 << 10)
                .with_tier2_budget(4 << 20)
                .with_start_paused(false),
            true,
        ),
    ]);
    corpus
}

/// One value of every `EventKind` variant.
#[rustfmt::skip]
const EVERY_KIND: [EventKind; 19] = [
    EventKind::Submitted,
    EventKind::Ranked { strategy: "", score: 0.0 },
    EventKind::LookupHit { source: QueryId(0), overlap: 0.0, exact: false },
    EventKind::Grafted { producer: QueryId(0) },
    EventKind::SubquerySpawned { count: 0 },
    EventKind::PageRead { cached: false, retried: false },
    EventKind::Evicted { tier: 1, score: 0.0 },
    EventKind::Spilled { bytes: 0 },
    EventKind::Restored { bytes: 0 },
    EventKind::Degraded, EventKind::Completed, EventKind::Failed, EventKind::TimedOut,
    EventKind::Rejected { rate_limited: false },
    EventKind::Shed,
    EventKind::WorkerPanicked,
    EventKind::Quarantined { attempts: 0 },
    EventKind::WorkerRestarted,
    EventKind::Hung,
];

/// Whether both engines must emit `kind` somewhere in the parity corpus.
/// The match is exhaustive, so a new variant fails to compile until it is
/// placed here (and listed in [`EVERY_KIND`]).
fn corpus_reaches(kind: &EventKind) -> bool {
    match kind {
        // A graft needs a producer still EXECUTING when its consumer is
        // dequeued, which one worker never has, in either engine, and the
        // corpus runs with grafting off. The per-engine tests pin it
        // instead: `graft_subscribes_to_in_flight_producer_and_reuses_bytes`
        // on the server, `grafting_consumes_in_flight_producer_deterministically`
        // in the simulator.
        EventKind::Grafted { .. } => false,
        EventKind::Submitted
        | EventKind::Ranked { .. }
        | EventKind::LookupHit { .. }
        | EventKind::SubquerySpawned { .. }
        | EventKind::PageRead { .. }
        | EventKind::Evicted { .. }
        | EventKind::Spilled { .. }
        | EventKind::Restored { .. }
        | EventKind::Degraded
        | EventKind::Completed
        | EventKind::Failed
        | EventKind::TimedOut
        | EventKind::Rejected { .. }
        | EventKind::Shed
        | EventKind::WorkerPanicked
        | EventKind::Quarantined { .. }
        | EventKind::WorkerRestarted
        | EventKind::Hung => true,
    }
}

/// Over the parity corpus, in both engines and with the server at one
/// worker and at [`RACY_WORKERS`]: each lifecycle counter equals the
/// number of its events in the log, and every run emits the same kinds
/// of event, exactly those [`corpus_reaches`] names. Kinds are compared
/// over the whole corpus, not per config: where wall time decides (a
/// hang cut short on the server, a benefit score), one config may take
/// a path in one run only.
#[test]
fn event_log_and_lifecycle_counters_agree_in_both_engines() {
    let spill_dir = std::env::temp_dir().join(format!("vmqs_conf_agree_{}", std::process::id()));
    // Kinds of event seen, by run: the sim and each server worker count.
    let mut seen: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for (name, cfg, two_passes) in parity_corpus() {
        let queries = if two_passes {
            [workload(), workload()].concat()
        } else {
            workload()
        };
        for workers in [1, RACY_WORKERS] {
            let server_cfg = cfg
                .with_threads(workers)
                .with_hang_timeout(cfg.hang_timeout.map(|_| WALL_HANG));
            let server = QueryServer::new(
                ServerConfig::new(server_cfg).with_spill_dir(Some(spill_dir.clone())),
                Arc::new(SyntheticSource::new()),
            );
            if two_passes {
                for q in queries.clone() {
                    drop(server.submit(q).wait());
                }
            } else {
                let handles = server.submit_batch(queries.clone());
                server.resume_workers();
                handles.into_iter().for_each(|h| drop(h.wait()));
            }
            server.drain();
            let (events, metrics) = (server.events(), server.metrics());
            let run = format!("server x{workers}");
            let (tally, ds) = (server.summary().tally, server.ds_stats());
            assert_log_agrees_with_counters(&events, &metrics, tally, ds, &format!("{run}/{name}"));
            let kinds = events.iter().map(|e| e.kind.label());
            seen.entry(run).or_default().extend(kinds);
            server.shutdown();
            std::fs::remove_dir_all(&spill_dir).ok();
        }

        let mode = if two_passes {
            SubmissionMode::Interactive
        } else {
            SubmissionMode::Batch
        };
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries,
        }];
        let r = run_sim(SimConfig::new(cfg).with_mode(mode), streams);
        assert_log_agrees_with_counters(
            &r.events,
            &r.metrics,
            r.tally,
            r.ds_stats,
            &format!("sim/{name}"),
        );
        let kinds = r.events.iter().map(|e| e.kind.label());
        seen.entry("sim".to_string()).or_default().extend(kinds);
    }
    let reached = EVERY_KIND.iter().filter(|k| corpus_reaches(k));
    let expected: BTreeSet<_> = reached.map(EventKind::label).collect();
    assert_eq!(seen.len(), 3, "{:?}", seen.keys());
    for (run, kinds) in &seen {
        assert_eq!(*kinds, expected, "{run}: the corpus misses a kind of event");
    }
}
