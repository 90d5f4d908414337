//! The multithreaded query server (paper §2, "Query Server").
//!
//! A fixed-size pool of query threads services a dynamic stream of
//! queries. Each thread repeatedly dequeues the highest-ranked WAITING
//! query from the scheduling graph and executes it:
//!
//! 1. **look up** the Data Store for exact or partial matches — an exact
//!    match answers immediately,
//! 2. otherwise optionally **block** on an EXECUTING query whose result
//!    it could reuse (guarded by a wait-for-graph cycle check — the
//!    paper's deadlock avoidance), re-probing the store after the wait;
//!    with grafting, a peer computing the very same result is waited for
//!    first and its published bytes are the answer (DESIGN.md §13),
//! 3. hand the query and its reuse sources to the application's
//!    [`AppExecutor`], which **projects** cached results (Eq. 3), creates
//!    **sub-queries** for the uncovered remainder, and computes them from
//!    raw pages through the Page Space Manager (merged, deduplicated I/O),
//! 4. **cache** the output in the Data Store and transition the query to
//!    CACHED, swapping out any evicted producers.
//!
//! ## Sharding and cross-shard dequeue (DESIGN.md §12)
//!
//! The scheduling state is **sharded**: one [`Shard`] per worker thread,
//! each holding its own scheduling graph, ready queue, wait-for edges,
//! and reply channels behind its own mutex. A query is routed to its
//! *home shard* by [`vmqs_core::shard_of_spec`] — a deterministic hash of
//! its dataset and the coarse grid cell of its centre — so identical
//! specs always share a shard, while disjoint workloads spread over the
//! scheduler locks. Overlapping queries whose centres fall in different
//! cells get no reuse edge. A free worker dequeues **the best WAITING
//! query of all shards**, as the paper's threads do (§4): it reads each
//! shard's lock-free mirror of its top query and locks the shard whose
//! top is best by rank, then by the older [`QueryId`] (ties go to the
//! first shard in rotation from its own index). Its home shard gets no
//! preference, so a ranked exact hit on another shard no longer queues
//! behind that shard's busy worker while this one computes an unranked
//! miss. Each worker runs at most one kernel at a time, so the pool
//! size is the concurrency limit, as in the paper (§2). At one worker
//! there is exactly one shard and the engine is observationally
//! identical to the pre-shard scheduler — the property the golden-trace
//! conformance suite pins down bit for bit.
//!
//! ## Locking
//!
//! * `shards[k].state: ShardLock` — the shard's
//!   [`vmqs_core::SchedShard`] (graph, per-query records with their reply
//!   channels, blob liveness, eviction tombstones) plus the wait-for
//!   edges. Every transition, and the exit, tombstone and quarantine
//!   rules, are `SchedShard`'s, shared with the simulator and documented
//!   there; this file takes the lock, calls the transition, and does the
//!   driver's half outside it: replies, events and wake-ups. Each shard's
//!   `done_cv` (query completion) is associated with its own mutex. The
//!   lock-free mirrors of the ready queue — `depth`, `total_waiting` and
//!   the top query's key, by which workers choose a shard without
//!   touching any lock — are republished by the [`ShardGuard`] as it
//!   lets go of the lock, never adjusted by hand.
//! * `store: RwLock<DataStore>` — the semantic cache, still
//!   global so reuse crosses shard boundaries. Lookups are read-side
//!   (`&self`, LRU stamps and counters are atomics); only insert/evict,
//!   restore and a frame landing take the write lock. Tier-2 frames are
//!   written and unlinked outside it (DESIGN.md §14).
//! * `metrics: Mutex<Vec<QueryRecord>>` — completed-query records.
//! * `admission: Mutex<RateLimiter>` — the per-client token buckets,
//!   held only while the admission ladder ([`vmqs_core::overload::admit`],
//!   the same function the simulator calls) asks for a token. The ladder
//!   itself takes no lock: it decides from one atomic read of
//!   `total_waiting`, and asks for the Data Store / Page Space signals
//!   only when that depth does not settle the verdict.
//! * Idle workers first spin for a moment, at most one at a time, then
//!   park on an eventcount-style `idle` mutex + `work_cv`; submitters only
//!   touch it when `sleepers > 0`.
//!
//! **Lock hierarchy rule:** one of these at a time; no thread holds two
//! shard locks or a shard lock together with `admission`/`store`/
//! `metrics`. Payload bytes are materialized into `Arc<[u8]>` outside
//! all critical sections. Each lock is built with its
//! [`vmqs_core::sync::LockClass`], and debug builds check the order at
//! every acquisition ([`vmqs_core::sync::lockdep`]).
//!
//! The engine is generic over the application ([`VmExecutor`] is the
//! default); everything scheduling-related is application-neutral.

// A panic here takes down a worker or a submitter: every `unwrap` /
// `expect` outside the tests needs an `#[expect(.., reason)]` saying why
// it cannot fire.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::app::{AppExecutor, VmExecutor};
use crate::config::ServerConfig;
use crate::error::{deadline_error, ServerError};
use crate::pages::SharedPageSpace;
use crate::result::{AnswerPath, QueryRecord, QueryResult, ServerSummary};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vmqs_core::clock;
use vmqs_core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use vmqs_core::sync::{hint, lockdep, thread, Arc, Condvar, LockClass, Mutex, MutexGuard, RwLock};
use vmqs_core::{
    overload, shard_of_spec, shed_victim, BlobId, ClientId, IdGen, PanicOutcome, Pressure, QueryId,
    QuerySpec, QueryState, Rank, RateLimiter, SchedShard, Secondary, SpatialSpec, Supervisor,
    Verdict, WorkerFate,
};
use vmqs_datastore::{DataStore, DsStats, EvictionRecord, Frame, Payload, SpillRequest};
use vmqs_microscope::PAGE_SIZE;
use vmqs_obs::{
    Counter, EventKind, EventRecord, Histogram, MetricsSnapshot, Obs, QueryMetrics, Terminal,
};
use vmqs_pagespace::PsStats;
use vmqs_storage::{DataSource, SpillStore};

/// How long an idle worker polls for work before it parks: about one
/// client's turnaround between a reply and its next submission, so that
/// submission finds a worker awake (DESIGN.md §12). A constant, not a
/// setting.
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Polls at the start of the spin window that only pause the core; the
/// later ones yield it.
const SPIN_PAUSES: u32 = 32;

/// The host's available parallelism, read once per process: the call
/// reads cgroup files every time.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A query's reply channel: capacity one, so the single answer a query
/// ever gets is sent without blocking whether or not the client waits.
type ReplyTx<S> = SyncSender<Result<QueryResult<S>, ServerError>>;

/// The server's record for one admitted, unanswered query: the `R` of
/// its shard's [`SchedShard`], which creates it at `admit` and gives it
/// up exactly once, at `publish` or `retire`.
struct Pending<S> {
    tx: ReplyTx<S>,
    submitted: Instant,
    /// Downgraded to its cheaper plan at admission.
    degraded: bool,
}

/// A client's handle to an in-flight query.
#[derive(Debug)]
pub struct QueryHandle<S = vmqs_microscope::VmQuery> {
    /// The assigned query id.
    pub id: QueryId,
    rx: Receiver<Result<QueryResult<S>, ServerError>>,
}

impl<S> QueryHandle<S> {
    /// Blocks until the query completes.
    pub fn wait(self) -> Result<QueryResult<S>, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Result<QueryResult<S>, ServerError>> {
        self.rx.try_recv().ok()
    }
}

/// One shard's scheduler component, guarded by [`Shard::state`].
struct ShardState<S: SpatialSpec> {
    sched: SchedShard<S, Pending<S>>,
    /// Deadlock-avoidance wait-for edges: executing query → executing query
    /// it is blocked on. `wait_target` only ever names a peer on the
    /// waiter's own shard, so these never cross shards and the cycle check
    /// stays complete.
    waiting_on: HashMap<QueryId, QueryId>,
    blocked_fallbacks: u64,
}

/// One scheduling shard: a worker's home scheduling graph behind its
/// lock.
struct Shard<S: SpatialSpec> {
    state: ShardLock<S>,
    /// Signaled when a query homed on this shard completes or is shed —
    /// wakes dependency blockers (associated with `state`).
    done_cv: Condvar,
    /// Queries parked on `done_cv` in [`wait_for_peer`], which raises and
    /// lowers it under `state`. [`Core::answer`] notifies only while it is
    /// nonzero: std's condvar makes a wake syscall even with no waiter.
    parked: AtomicUsize,
}

/// A shard's best WAITING query as workers compare it across shards:
/// rank first, then the older [`QueryId`] — the graph's own order, with
/// the global id standing in for the per-shard arrival sequence, which
/// cannot be compared across shards. Greater is better.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Top(Rank, Reverse<QueryId>);

impl Top {
    /// The key of a shard's `peek()`. FIFO's rank is the negated
    /// per-shard arrival sequence, so under FIFO the id alone orders
    /// tops, which is global arrival order.
    fn of(fifo: bool, (id, rank): (QueryId, Rank)) -> Top {
        Top(if fifo { Rank::ZERO } else { rank }, Reverse(id))
    }
}

/// A shard's mutex plus the lock-free mirrors of its ready-queue length
/// and its top WAITING query. The mirrors are derived, not maintained:
/// whoever changes the WAITING set holds a [`ShardGuard`], which
/// republishes them as it lets go of the lock — so no transition, present
/// or future, can forget to.
struct ShardLock<S: SpatialSpec> {
    inner: Mutex<ShardState<S>>,
    /// `waiting_len()` as of the last release, read without the lock by
    /// workers choosing a shard.
    depth: AtomicUsize,
    /// The [`Top`] of the last release that left a query WAITING: its
    /// rank's bits and its id. Read without the lock, the pair may tear;
    /// it is a hint, and the dequeue under the lock decides.
    top_rank: AtomicU64,
    top_id: AtomicU64,
    fifo: bool,
    /// Sum of every shard's `depth` ([`Core::total_waiting`]).
    total_waiting: Arc<AtomicUsize>,
}

impl<S: SpatialSpec> ShardLock<S> {
    fn new(
        strategy: vmqs_core::Strategy,
        index_cell: u32,
        total_waiting: Arc<AtomicUsize>,
    ) -> Self {
        ShardLock {
            inner: Mutex::ranked(
                LockClass::ShardState,
                ShardState {
                    sched: SchedShard::new(strategy, index_cell),
                    waiting_on: HashMap::new(),
                    blocked_fallbacks: 0,
                },
            ),
            depth: AtomicUsize::new(0),
            top_rank: AtomicU64::new(0),
            top_id: AtomicU64::new(0),
            fifo: strategy == vmqs_core::Strategy::Fifo,
            total_waiting,
        }
    }

    fn lock(&self) -> ShardGuard<'_, S> {
        ShardGuard {
            lock: self,
            state: self.inner.lock(),
        }
    }

    /// The published top WAITING query, `None` when the shard is empty.
    fn top(&self) -> Option<Top> {
        if self.depth.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let rank = f64::from_bits(self.top_rank.load(Ordering::SeqCst));
        let id = QueryId(self.top_id.load(Ordering::SeqCst));
        Some(Top(Rank::new(rank), Reverse(id)))
    }
}

/// Exclusive access to one shard's [`ShardState`].
struct ShardGuard<'a, S: SpatialSpec> {
    lock: &'a ShardLock<S>,
    state: MutexGuard<'a, ShardState<S>>,
}

impl<S: SpatialSpec> ShardGuard<'_, S> {
    /// Republishes the ready-queue length and the top WAITING query. Runs
    /// while the lock is still held, so a dequeuer can never find a query
    /// the mirrors do not account for yet; only lock holders write
    /// `depth`, so it is exact. The top goes out before the depth, so a
    /// reader that sees a query waiting sees its key.
    fn publish(&self) {
        let graph = self.state.sched.graph();
        if let Some(top) = graph.peek() {
            let Top(rank, Reverse(id)) = Top::of(self.lock.fifo, top);
            store_if_changed(&self.lock.top_rank, rank.value().to_bits());
            store_if_changed(&self.lock.top_id, id.raw());
        }
        let now = graph.waiting_len();
        let was = self.lock.depth.load(Ordering::SeqCst);
        if now != was {
            self.lock.depth.store(now, Ordering::SeqCst);
            // Atomic adds wrap: a shrinking queue adds its (negative)
            // difference in two's complement.
            let delta = now.wrapping_sub(was);
            self.lock.total_waiting.fetch_add(delta, Ordering::SeqCst);
        }
    }

    /// Parks on `cv`, releasing the lock, until notified or `deadline`.
    fn wait(&mut self, cv: &Condvar, deadline: Option<Instant>) {
        self.publish();
        match deadline {
            None => cv.wait(&mut self.state),
            Some(d) => {
                cv.wait_until(&mut self.state, d);
            }
        }
    }
}

/// Stores `v` unless `a` already holds it: the mirrors are read by every
/// worker on every pass, so an unchanged value keeps its cache line.
fn store_if_changed(a: &AtomicU64, v: u64) {
    if a.load(Ordering::SeqCst) != v {
        a.store(v, Ordering::SeqCst);
    }
}

impl<S: SpatialSpec> Drop for ShardGuard<'_, S> {
    fn drop(&mut self) {
        self.publish();
    }
}

impl<S: SpatialSpec> Deref for ShardGuard<'_, S> {
    type Target = ShardState<S>;
    fn deref(&self) -> &ShardState<S> {
        &self.state
    }
}

impl<S: SpatialSpec> DerefMut for ShardGuard<'_, S> {
    fn deref_mut(&mut self) -> &mut ShardState<S> {
        &mut self.state
    }
}

struct Core<A: AppExecutor> {
    cfg: ServerConfig,
    app: A,
    /// One scheduling shard per worker thread (exactly one at
    /// `num_threads == 1`, where the engine degenerates to the pre-shard
    /// scheduler). Never hold two shard locks at once.
    shards: Vec<Shard<A::Spec>>,
    /// Per-client token buckets, locked only while the admission ladder
    /// asks for a token (empty unless
    /// [`vmqs_core::OverloadConfig::client_rate`] is set).
    admission: Mutex<RateLimiter>,
    /// The semantic cache, under a reader-writer lock: lookups (the common
    /// case) share the read side; insert/evict takes the write side.
    /// Global, so result reuse crosses shard boundaries.
    store: RwLock<DataStore<A::Spec>>,
    /// The tier-2 spill store (DESIGN.md §14), present only when the
    /// config enables spilling. A blob's frame is written once, *after*
    /// the store's write-lock critical section that first demoted it; the
    /// entry keeps its bytes until [`DataStore::frame_landed`], so a
    /// RESTORABLE entry any thread can observe has its bytes or its frame.
    /// Frames are read back under the write lock and unlinked after it,
    /// once their blob has left the store for good.
    spill: Option<SpillStore>,
    /// Completed-query records, off the hot path.
    metrics: Mutex<Vec<QueryRecord<A::Spec>>>,
    /// Eventcount-style idle list: workers park here when every shard is
    /// empty (or the pool is paused); `work_cv` is associated with it.
    /// Submitters take this lock only when `sleepers > 0`.
    idle: Mutex<()>,
    work_cv: Condvar,
    /// Workers currently parked (or about to park) on `idle`/`work_cv`.
    sleepers: AtomicUsize,
    /// Set while an idle worker spins before it parks
    /// ([`Core::spin_for_work`]); at most one spins at a time.
    spinning: AtomicBool,
    /// WAITING queries across all shards — the admission ladder's
    /// queue-depth input and the workers' "any work at all?" gate.
    /// Published by each [`ShardGuard`] under its shard's lock.
    total_waiting: Arc<AtomicUsize>,
    /// Admitted-but-unresolved queries across all shards (what `drain`
    /// waits on).
    outstanding: AtomicUsize,
    /// When set, workers sleep instead of dequeuing (see
    /// [`vmqs_core::EngineConfig::start_paused`] and
    /// [`QueryServer::resume_workers`]).
    paused: AtomicBool,
    shutdown: AtomicBool,
    /// `drain` parks here; signaled when `outstanding` reaches zero.
    drain_mx: Mutex<()>,
    drain_cv: Condvar,
    /// Bumped whenever an entry becomes visible: after every admitted Data
    /// Store insert and every tier-2 restore. A worker snapshots it before
    /// its first lookup; if it moved by the time the worker is about to
    /// compute (it may have waited on a dependency, or lost a race with a
    /// peer), results it could not see were published meanwhile and it
    /// re-probes. Single-worker runs never observe a moved epoch: the
    /// only thread that could bump it is the one reading it.
    publish_epoch: AtomicU64,
    /// Data Store re-probes (epoch moved between first lookup and
    /// compute), and how many found an exact match published during the
    /// wait (compute turned into reuse).
    relookups: AtomicU64,
    relookup_hits: AtomicU64,
    ps: SharedPageSpace,
    idgen: IdGen,
    /// Full computes whose output already had a `cmp`-equivalent visible
    /// Data Store entry at publish time — redundant work the grafting +
    /// producer-affinity machinery exists to eliminate (ROADMAP item 1).
    duplicate_full_computes: AtomicU64,
    /// Global compute ordinal — the chaos injector's panic-at-nth
    /// coordinate (DESIGN.md §15). Counts every entry into the compute
    /// stage, across all workers.
    compute_seq: AtomicU64,
    /// Restart budget, live-worker count and pool-dead latch. When a
    /// panic retires the last worker the pool is dead: WAITING queries
    /// are failed typed-ly and later submissions are refused with
    /// [`ServerError::WorkerPanicked`].
    sup: Supervisor,
    /// Handles of respawned replacement workers, joined at shutdown.
    respawned: Mutex<Vec<JoinHandle<()>>>,
    /// Event log + metrics registry (DESIGN.md §9). Counters are always
    /// live; the event log records only when `cfg.engine.observe` is set.
    obs: Arc<Obs>,
    /// Pre-resolved query-lifecycle metric handles (no registry lock on
    /// the hot path), bumped by [`Core::emit`] and nowhere else. The
    /// registry is per-server, so these are also the terminal counts
    /// `summary()` reports.
    qmet: QueryMetrics,
    /// `vmqs_tier2_write_seconds` / `vmqs_tier2_read_seconds`: one sample
    /// per frame write or read attempted, failed ones included. Spilling
    /// runs after a query's `finished` stamp, so this is the only place
    /// its time shows.
    tier2_write: Arc<Histogram>,
    tier2_read: Arc<Histogram>,
    /// `vmqs_sched_remote_dequeues_total`: queries a worker dequeued from
    /// a shard other than its own, because that shard's top was best.
    remote_dequeues: Arc<Counter>,
}

/// The public server: spawns the thread pool on construction; submit
/// queries from any thread. Generic over the application executor
/// (defaults to the Virtual Microscope).
pub struct QueryServer<A: AppExecutor = VmExecutor> {
    core: Arc<Core<A>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer<VmExecutor> {
    /// Starts a Virtual Microscope server over `source`.
    pub fn new(cfg: ServerConfig, source: Arc<dyn DataSource>) -> Self {
        QueryServer::with_app(cfg, VmExecutor, source)
    }
}

impl<A: AppExecutor> QueryServer<A> {
    /// Starts a server for any application executor.
    pub fn with_app(cfg: ServerConfig, app: A, source: Arc<dyn DataSource>) -> Self {
        let e = cfg.engine;
        let num_threads = e.threads;
        let obs = Arc::new(Obs::new(e.observe));
        let qmet = QueryMetrics::resolve(&obs.metrics);
        // The tier-2 spill store (DESIGN.md §14): requires both a
        // directory and a nonzero budget. An unusable spill directory is
        // a construction-time configuration error, like a zero-size pool.
        let spill = cfg.spill_enabled().then(|| {
            // Construction-time config validation, not a worker path: an
            // unusable spill configuration fails server startup loudly
            // (like a zero-thread pool), never a query.
            #[expect(
                clippy::expect_used,
                reason = "spill_enabled() implies the dir is Some"
            )]
            let dir = cfg.spill_dir.clone().expect("spill_enabled implies dir");
            #[expect(clippy::expect_used, reason = "startup-time directory creation")]
            let store = SpillStore::new(dir).expect("spill directory must be creatable");
            store.with_faults(cfg.spill_fault).with_chaos(e.chaos)
        });
        let tier2_budget = if spill.is_some() { e.tier2_budget } else { 0 };
        let mut store =
            DataStore::with_policy(e.ds_budget, e.index_cell, e.ds_policy).with_tier2(tier2_budget);
        if let Some(spill) = &spill {
            // Crash-consistent recovery (DESIGN.md §15): validate every
            // frame a previous process left behind, adopt the intact ones
            // back into tier 2 as RESTORABLE entries, and delete the rest
            // — torn tmp files, corrupt frames, and frames whose
            // predicate no longer decodes. After this scan, every file in
            // the directory is byte-accounted by the Data Store.
            if let Ok(report) = spill.recover() {
                for f in report.restorable {
                    let adopted = app
                        .decode_spec(&f.meta)
                        .is_some_and(|spec| store.adopt_restorable(f.blob, spec, f.size));
                    if !adopted {
                        let _ = spill.remove(f.blob);
                    }
                }
            }
        }
        let total_waiting = Arc::new(AtomicUsize::new(0));
        let core = Arc::new(Core {
            shards: (0..e.threads)
                .map(|_| Shard {
                    state: ShardLock::new(e.strategy, e.index_cell, Arc::clone(&total_waiting)),
                    done_cv: Condvar::new(),
                    parked: AtomicUsize::new(0),
                })
                .collect(),
            admission: Mutex::ranked(LockClass::Admission, RateLimiter::default()),
            store: RwLock::ranked(LockClass::Store, store),
            spill,
            metrics: Mutex::ranked(LockClass::Metrics, Vec::new()),
            idle: Mutex::ranked(LockClass::Idle, ()),
            work_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            spinning: AtomicBool::new(false),
            total_waiting,
            outstanding: AtomicUsize::new(0),
            paused: AtomicBool::new(e.start_paused),
            shutdown: AtomicBool::new(false),
            drain_mx: Mutex::ranked(LockClass::Drain, ()),
            drain_cv: Condvar::new(),
            publish_epoch: AtomicU64::new(0),
            relookups: AtomicU64::new(0),
            relookup_hits: AtomicU64::new(0),
            ps: SharedPageSpace::with_retry_obs(
                e.ps_budget,
                PAGE_SIZE,
                source,
                e.retry,
                cfg.retry_seed,
                Some(Arc::clone(&obs)),
            ),
            idgen: IdGen::new(0),
            duplicate_full_computes: AtomicU64::new(0),
            compute_seq: AtomicU64::new(0),
            sup: Supervisor::new(e.threads, e.restart_budget),
            respawned: Mutex::ranked(LockClass::Respawned, Vec::new()),
            tier2_write: obs.metrics.histogram("vmqs_tier2_write_seconds"),
            tier2_read: obs.metrics.histogram("vmqs_tier2_read_seconds"),
            remote_dequeues: obs.metrics.counter("vmqs_sched_remote_dequeues_total"),
            obs,
            qmet,
            app,
            cfg,
        });
        // Worker spawns can fail under OS thread exhaustion; the pool
        // degrades to however many threads the OS granted rather than
        // panicking (every worker serves every shard). Zero
        // workers would strand every accepted query, so that case (and
        // only that case) is a hard startup failure.
        let workers: Vec<_> = (0..num_threads)
            .filter_map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("vmqs-query-{i}"))
                    .spawn(move || worker_entry(core, i))
                    .ok()
            })
            .collect();
        assert!(
            !workers.is_empty(),
            "could not spawn any query worker thread"
        );
        for _ in workers.len()..num_threads {
            core.sup.retire();
        }
        QueryServer { core, workers }
    }

    /// Submits a query on behalf of the default client (`ClientId(0)`);
    /// returns a handle to wait on.
    pub fn submit(&self, spec: A::Spec) -> QueryHandle<A::Spec> {
        self.submit_from(ClientId(0), spec)
    }

    /// Submits a query on behalf of `client`; returns a handle to wait
    /// on. The client id keys the per-client token-bucket rate limiter
    /// when [`vmqs_core::OverloadConfig::client_rate`] is set.
    ///
    /// The admission ladder runs here, at submit time (DESIGN.md §10):
    /// rate limit → bounded queue → degrade → shed-while. It is
    /// [`vmqs_core::overload::admit`], the function the simulator calls
    /// too; this driver supplies the queue depth and, only if the ladder
    /// asks, a token from the client's bucket, the Data Store / Page
    /// Space signals and the mean service time. With overload management
    /// off it asks for nothing and admits. A refused query still gets a
    /// handle — it resolves immediately with [`ServerError::Overloaded`]
    /// (rejection) or [`ServerError::Shed`] (shed later, possibly by
    /// another submission) — so callers never block on admission and
    /// never hang.
    pub fn submit_from(&self, client: ClientId, spec: A::Spec) -> QueryHandle<A::Spec> {
        let core = &*self.core;
        let id = core.idgen.next_query();
        let (tx, rx) = sync_channel(1);
        assert!(
            !core.shutdown.load(Ordering::SeqCst),
            "submit after shutdown"
        );
        core.emit(id, EventKind::Submitted);
        if core.sup.pool_dead() {
            // The whole pool died (restart budget exhausted): refuse
            // typed-ly instead of queueing work no one will ever run.
            core.end(id, Terminal::PoolDead);
            let _ = tx.send(Err(ServerError::WorkerPanicked));
            return QueryHandle { id, rx };
        }
        let ov = core.cfg.engine.overload;
        let (verdict, pressure) = overload::admit(
            &ov,
            core.total_waiting.load(Ordering::SeqCst),
            core.cfg.engine.threads,
            || {
                let now = core.obs.log.now();
                core.admission.lock().take(client, ov.client_rate, now)
            },
            || {
                let (used, budget) = {
                    let ds = core.store.read();
                    (ds.used(), ds.budget())
                };
                let ps = core.ps.stats();
                Secondary::from_counters(
                    used,
                    budget,
                    ps.hits,
                    ps.misses,
                    ps.pages_fetched,
                    ps.read_retries,
                )
            },
            // Histogram reads are atomic: no lock taken.
            || core.qmet.service_time.snapshot().mean(),
        );
        match verdict {
            Verdict::Reject {
                rate_limited,
                retry_after,
            } => {
                core.end(id, Terminal::Rejected { rate_limited });
                let retry_after = Duration::from_secs_f64(retry_after);
                let _ = tx.send(Err(ServerError::Overloaded { retry_after }));
            }
            Verdict::Admit { degrade } => {
                let cheaper = degrade.then(|| core.app.degrade(&spec)).flatten();
                if cheaper.is_some() {
                    core.emit(id, EventKind::Degraded);
                }
                core.admit(id, cheaper.unwrap_or(spec), tx, cheaper.is_some());
                core.shed_while(pressure);
                core.wake(false);
            }
        }
        if ov.enabled() {
            let level = pressure.level(core.total_waiting.load(Ordering::SeqCst));
            core.obs.metrics.set_gauge("vmqs_pressure", level);
        }
        QueryHandle { id, rx }
    }

    /// Submits a batch of queries at once (the paper's batch workload).
    pub fn submit_batch(
        &self,
        specs: impl IntoIterator<Item = A::Spec>,
    ) -> Vec<QueryHandle<A::Spec>> {
        let handles: Vec<_> = specs.into_iter().map(|s| self.submit(s)).collect();
        self.core.wake(true);
        handles
    }

    /// Blocks until every submitted query has completed. When this
    /// returns, every handle's result has already been delivered.
    pub fn drain(&self) {
        let mut g = self.core.drain_mx.lock();
        while self.core.outstanding.load(Ordering::SeqCst) > 0 {
            self.core.drain_cv.wait(&mut g);
        }
    }

    /// Stops the thread pool. Unfinished queries receive
    /// [`ServerError::Shutdown`].
    pub fn shutdown(mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        // Bridge each wakeup through its mutex so a worker between its
        // condition check and its wait cannot miss the flag.
        {
            let _g = self.core.idle.lock();
        }
        self.core.work_cv.notify_all();
        for sh in &self.core.shards {
            {
                let _g = sh.state.lock();
            }
            sh.done_cv.notify_all();
        }
        // A panic that escaped the supervision layer entirely (outside
        // `run_one`) is accounted, not asserted on: every client gets a
        // typed error below, and the summary reports the damage. It has
        // no query to log against, so it is counted without an event.
        let join = |w: JoinHandle<()>| {
            if w.join().is_err() {
                self.core.qmet.count(&EventKind::WorkerPanicked);
            }
        };
        self.workers.drain(..).for_each(join);
        // Replacement workers the supervision layer spawned. A panic
        // during this join can itself respawn one more, so drain until
        // the list stays empty.
        loop {
            let respawned: Vec<_> = self.core.respawned.lock().drain(..).collect();
            if respawned.is_empty() {
                break;
            }
            respawned.into_iter().for_each(join);
        }
        // Fail any queries still pending — even if a worker panicked, no
        // client is left hanging on its handle.
        for sh in &self.core.shards {
            for (_, p) in sh.state.lock().sched.drain(None) {
                let _ = p.tx.send(Err(ServerError::Shutdown));
            }
        }
    }

    /// Execution records of all completed queries so far. This copies the
    /// records out (records are small `Copy` structs with no payloads) —
    /// use [`QueryServer::summary`] for cheap periodic metrics polling.
    pub fn records(&self) -> Vec<QueryRecord<A::Spec>> {
        self.core.metrics.lock().clone()
    }

    /// The lifecycle counters and the answer paths of completed queries,
    /// read from the metrics counters: no record is walked and no lock
    /// taken, however long the run.
    pub fn summary(&self) -> ServerSummary {
        let q = &self.core.qmet;
        let tally = q.tally();
        let exact_hits = q.ds_exact_hits.get() as usize;
        let partial_reuse = q.ds_partial_hits.get() as usize;
        let full_compute = q.ds_misses.get() as usize;
        let grafted = q.grafted.get() as usize;
        ServerSummary {
            tally,
            completed: exact_hits + partial_reuse + full_compute + grafted,
            failed: tally.failed as usize,
            timed_out: tally.timed_out as usize,
            rejected: tally.rejected as usize,
            shed: tally.shed as usize,
            exact_hits,
            partial_reuse,
            full_compute,
            grafted,
            duplicate_full_computes: self.core.duplicate_full_computes.load(Ordering::Relaxed),
            reused_bytes: q.reused_bytes.get(),
        }
    }

    /// Data Store counters.
    pub fn ds_stats(&self) -> DsStats {
        self.core.store.read().stats()
    }

    /// Page Space counters.
    pub fn ps_stats(&self) -> PsStats {
        self.core.ps.stats()
    }

    /// Scheduling-graph counters, summed across shards.
    pub fn graph_stats(&self) -> vmqs_core::GraphStats {
        let mut total = vmqs_core::GraphStats::default();
        for sh in &self.core.shards {
            // Destructured whole, so a new counter cannot be left out of
            // the sum.
            let vmqs_core::GraphStats {
                inserted,
                dequeued,
                swapped_out,
                requeued,
                edges_created,
                reranks,
                overlap_evals,
            } = sh.state.lock().sched.graph().stats();
            total.inserted += inserted;
            total.dequeued += dequeued;
            total.swapped_out += swapped_out;
            total.requeued += requeued;
            total.edges_created += edges_created;
            total.reranks += reranks;
            total.overlap_evals += overlap_evals;
        }
        total
    }

    /// Re-probe counters `(relookups, converted)`: Data Store re-probes
    /// after a peer published between a query's first lookup and its
    /// compute — during a dependency block or a race with another
    /// worker — and how many of those found an exact match published
    /// meanwhile. Each re-probe adds one extra Data Store lookup beyond
    /// the one-lookup-per-query baseline. Both are zero at one worker
    /// (nothing else is ever EXECUTING).
    pub fn relookup_stats(&self) -> (u64, u64) {
        (
            self.core.relookups.load(Ordering::Relaxed),
            self.core.relookup_hits.load(Ordering::Relaxed),
        )
    }

    /// Times a query gave up blocking because waiting would have formed a
    /// wait-for cycle (deadlock-avoidance fallbacks), summed across
    /// shards.
    pub fn blocked_fallbacks(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|sh| sh.state.lock().blocked_fallbacks)
            .sum()
    }

    /// Releases a pool started with
    /// [`vmqs_core::EngineConfig::start_paused`]: workers begin dequeuing.
    /// Idempotent; a no-op on a pool that was never paused.
    pub fn resume_workers(&self) {
        self.core.paused.store(false, Ordering::SeqCst);
        let _g = self.core.idle.lock();
        self.core.work_cv.notify_all();
    }

    /// Snapshot of the event log so far, in emission order. Empty unless
    /// the server was built with [`vmqs_core::EngineConfig::observe`].
    pub fn events(&self) -> Vec<EventRecord> {
        self.core.obs.log.snapshot()
    }

    /// Snapshot of the metrics registry, with the `vmqs_ps_*` and
    /// [`DsStats::series`] series and the derived cache-efficiency gauges
    /// (`vmqs_ds_hit_ratio`, `vmqs_ps_merge_ratio`) taken from the live
    /// Data Store / Page Space counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let reg = &self.core.obs.metrics;
        let (ds, tier2) = {
            let store = self.core.store.read();
            (store.stats(), store.tier2_used())
        };
        reg.set_gauge("vmqs_ds_hit_ratio", ds.hit_ratio());
        let ps = self.ps_stats();
        reg.set_gauge("vmqs_ps_merge_ratio", ps.merge_ratio());
        reg.set_gauge("vmqs_ds_tier2_used_bytes", tier2 as f64);
        let mut snap = reg.snapshot();
        let series = ps.series().into_iter().chain(ds.series());
        snap.counters
            .extend(series.map(|(name, v)| (name.to_string(), v)));
        snap
    }

    /// Validates every shard's invariants (graph state/index consistency
    /// and edge symmetry, every live blob naming a CACHED node) and that
    /// no per-query state outlives its query: with nothing outstanding,
    /// no shard may hold a record, an eviction tombstone or a wait-for
    /// edge; and every RESTORABLE entry holds either its bytes (its frame
    /// is being written) or a landed frame. Panics with the violation
    /// description — a test/debug aid for asserting that error paths
    /// leave no residue.
    pub fn check_invariants(&self) {
        // A lock-order violation panics where it happens, but a worker's
        // supervisor may have caught that panic and requeued the query.
        let violations = lockdep::violations();
        assert_eq!(violations, 0, "lockdep found {violations} violation(s)");
        let ds = self.core.store.read();
        for e in ds.entries().filter(|e| e.restorable()) {
            let bytes = e.payload.len().is_some();
            let one_copy = matches!(
                (e.frame, bytes),
                (Frame::Writing, true) | (Frame::Landed, false)
            );
            assert!(one_copy, "{} has frame {:?}, bytes {bytes}", e.id, e.frame);
        }
        drop(ds);
        for sh in &self.core.shards {
            let s = sh.state.lock();
            // Read under the shard lock: a record here is counted in
            // `outstanding` from before it appears until after it is gone.
            let idle = self.core.outstanding.load(Ordering::SeqCst) == 0;
            if let Err(e) = s.sched.validate(idle) {
                panic!("scheduler-shard invariant violated: {e}");
            }
            assert!(!idle || s.waiting_on.is_empty(), "stale wait-for edges");
        }
    }
}

impl<A: AppExecutor> Core<A> {
    /// Inserts an admitted query into its home shard. `outstanding`
    /// counts it before the shard lock is released, and the release
    /// publishes the new ready-queue length.
    fn admit(&self, id: QueryId, spec: A::Spec, tx: ReplyTx<A::Spec>, degraded: bool) {
        let k = shard_of_spec(&spec, self.shards.len());
        let mut s = self.shards[k].state.lock();
        let record = Pending {
            tx,
            submitted: clock::now(),
            degraded,
        };
        s.sched.admit(id, spec, record);
        self.outstanding.fetch_add(1, Ordering::SeqCst);
    }

    /// The ladder's last rung: while `pressure` says so, sheds the
    /// largest-`qinputsize` WAITING query (newest first on ties — the
    /// IoAware/SJF rationale). The victim may be the query just
    /// admitted, and may live on any shard (candidates are gathered one
    /// shard lock at a time).
    fn shed_while(&self, pressure: Pressure) {
        loop {
            let waiting = self.total_waiting.load(Ordering::SeqCst);
            if !pressure.sheds_at(waiting) {
                return;
            }
            let mut cands = Vec::new();
            for sh in &self.shards {
                cands.extend(sh.state.lock().sched.shed_candidates());
            }
            let Some(vid) = shed_victim(cands) else {
                return;
            };
            // Its home shard is the one where it is still WAITING; none,
            // when a worker raced us to it: re-evaluate.
            let retired = self.shards.iter().enumerate().find_map(|(k, sh)| {
                let mut s = sh.state.lock();
                let waiting = s.sched.graph().state_of(vid) == Some(QueryState::Waiting);
                waiting.then(|| (k, s.sched.retire(vid)))
            });
            let Some((k, record)) = retired else { continue };
            self.end(vid, Terminal::Shed);
            let pressure = pressure.level(waiting);
            self.answer(k, record, Err(ServerError::Shed { pressure }));
        }
    }

    /// Submitter half of the eventcount idle protocol: the
    /// `total_waiting` increment (SeqCst, published when `admit` released
    /// the shard lock) and the `sleepers` check form a Dekker pair with
    /// the worker's park sequence — at least one side always sees the
    /// other, and the `idle` lock bridges the check-to-wait window. Wakes
    /// one worker, or `all` of them (batch submission).
    fn wake(&self, all: bool) {
        if self.sup.pool_dead() {
            // The pool died; whatever was just queued will never run.
            // Every admit path calls a wake, so sweeping here closes the
            // admit/pool-death race: either the submitter sees the flag
            // (and sweeps its own query), or the dying worker's sweep —
            // which runs after the flag store — sees the admitted query.
            fail_all_waiting(self);
            return;
        }
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.idle.lock();
            if all {
                self.work_cv.notify_all();
            } else {
                self.work_cv.notify_one();
            }
        }
    }

    /// True when a worker has nothing to dequeue: the pool is paused or
    /// every shard is empty.
    fn no_work(&self) -> bool {
        self.paused.load(Ordering::SeqCst) || self.total_waiting.load(Ordering::SeqCst) == 0
    }

    /// Worker half of the idle protocol: spin for a moment, then advertise
    /// as a sleeper and re-check the wait condition under the `idle` lock
    /// before parking. A spinner is not a sleeper, so a query submitted
    /// during the spin costs its submitter no syscall to reach it, and
    /// the park that follows a fruitless spin is the unchanged Dekker
    /// half.
    fn idle_sleep(&self) {
        if self.spin_for_work() {
            return;
        }
        let mut g = self.idle.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !self.shutdown.load(Ordering::SeqCst) && self.no_work() {
            self.work_cv.wait(&mut g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Polls for work or shutdown for up to [`SPIN_WINDOW`]: first with
    /// [`SPIN_PAUSES`] pause hints, then yielding the core between polls.
    /// Returns true when either appeared. Spins only when no other worker
    /// is spinning and the workers not parked, this one included, are
    /// fewer than the cores: a spinner never takes a core from a running
    /// query or from a submitter. A paused pool does not spin: nothing
    /// can be dequeued before `resume_workers`, which notifies the parked.
    fn spin_for_work(&self) -> bool {
        let awake = self
            .shards
            .len()
            .saturating_sub(self.sleepers.load(Ordering::SeqCst));
        if self.paused.load(Ordering::SeqCst)
            || awake >= cores()
            || self
                .spinning
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return false;
        }
        let start = clock::now();
        let mut polls = 0u32;
        let found = loop {
            if self.shutdown.load(Ordering::SeqCst) || !self.no_work() {
                break true;
            }
            if polls < SPIN_PAUSES {
                hint::spin_loop();
            } else if clock::now() - start < SPIN_WINDOW {
                thread::yield_now();
            } else {
                break false;
            }
            polls += 1;
        };
        self.spinning.store(false, Ordering::Relaxed);
        found
    }

    /// The engine's one way to say something happened: bumps the counter
    /// the event stands for ([`QueryMetrics::count`]) and logs it.
    fn emit(&self, query: QueryId, kind: EventKind) {
        self.qmet.count(&kind);
        self.obs.log.log(query, kind);
    }

    /// Emits the events a query's end implies, in [`Terminal`]'s order.
    fn end(&self, query: QueryId, how: Terminal) {
        how.events().for_each(|kind| self.emit(query, kind));
    }

    /// Delivers a query's one answer and retires it from shard `k`'s
    /// outstanding count: wakes `drain` when the count hits zero and the
    /// shard's dependency blockers when any are parked. The reply goes out
    /// *before* the count drops, so `drain` returning implies every
    /// handle is fulfilled. Callers hold no lock, and have taken the query
    /// out of EXECUTING under shard `k`'s lock.
    fn answer(
        &self,
        k: usize,
        record: Option<Pending<A::Spec>>,
        msg: Result<QueryResult<A::Spec>, ServerError>,
    ) {
        if let Some(p) = record {
            let _ = p.tx.send(msg);
        }
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.drain_mx.lock();
            self.drain_cv.notify_all();
        }
        // A waiter registers in `parked` under the shard lock before it
        // reads its peer's state; our caller changed that state under the
        // same lock, so either the waiter saw the change and never parked,
        // or its registration happened before this load (the lock orders
        // them, and Relaxed suffices: the count publishes nothing).
        let shard = &self.shards[k];
        if shard.parked.load(Ordering::Relaxed) > 0 {
            shard.done_cv.notify_all();
        }
    }
}

/// A dequeued query, detached from its shard's lock: everything `run_one`
/// needs to execute and complete it.
struct Job<S> {
    shard: usize,
    id: QueryId,
    spec: S,
    submitted: Instant,
    score: f64,
    was_degraded: bool,
}

fn worker_entry<A: AppExecutor>(core: Arc<Core<A>>, me: usize) {
    let mut tops = Vec::with_capacity(core.shards.len());
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if core.no_work() {
            core.idle_sleep();
            continue;
        }
        // The best query of all shards, by their lock-free mirrors.
        tops.clear();
        tops.extend(core.shards.iter().map(|sh| sh.state.top()));
        let job = pick_shard(&tops, me).and_then(|k| try_dequeue(&core, k));
        // Raced another worker for the last entries; re-check from the
        // top (the counters may have gone to zero, in which case we
        // park instead of spinning).
        let Some(job) = job else { continue };
        if job.shard != me {
            core.remote_dequeues.inc();
        }
        // Supervision (DESIGN.md §15): a panicking compute kills this
        // worker, not the pool. The unwind is caught here, the one place.
        // Lock guards released on the unwind path leave consistent state:
        // the injected panic point fires with no engine lock held.
        let (k, id) = (job.shard, job.id);
        if catch_unwind(AssertUnwindSafe(|| run_one(&core, job))).is_err() {
            on_worker_panic(core, me, k, id);
            return;
        }
    }
}

/// The shard a free worker dequeues from: the one whose published [`Top`]
/// is best, skipping empty shards (`None`). A tie goes to the first shard
/// in rotation from the worker's own index `me`.
fn pick_shard(tops: &[Option<Top>], me: usize) -> Option<usize> {
    let n = tops.len();
    let mut best: Option<(Top, usize)> = None;
    for k in (0..n).map(|i| (me + i) % n) {
        if let Some(top) = tops[k] {
            if best.is_none_or(|(b, _)| top > b) {
                best = Some((top, k));
            }
        }
    }
    best.map(|(_, k)| k)
}

/// A panicked worker's last act. The [`Supervisor`] decides its fate
/// first, so the restart is accounted (counter + event) before the
/// query's handle resolves — a caller whose `wait()` just returned
/// observes restart counts consistent with the panics that caused them.
/// Then the scheduling residue, which [`SchedShard::on_panic`] resolves:
/// requeued for a sibling shard's worker (or the replacement) below the
/// quarantine limit, failed typed-ly at it. Last, the replacement is
/// spawned, or the worker retires for good; when that was the last live
/// worker the pool is dead — WAITING queries are failed typed-ly (no one
/// will ever run them; the sweep runs after the back-out, so it catches
/// the query just requeued) and later submissions are refused up front.
fn on_worker_panic<A: AppExecutor>(core: Arc<Core<A>>, me: usize, k: usize, id: QueryId) {
    // A worker dying during shutdown is neither replaced nor mourned:
    // `shutdown` itself fails whatever is left.
    let mut fate = if core.shutdown.load(Ordering::SeqCst) {
        WorkerFate::Retire
    } else {
        core.sup.on_worker_death()
    };
    core.emit(id, EventKind::WorkerPanicked);
    let outcome = {
        let mut s = core.shards[k].state.lock();
        s.waiting_on.remove(&id);
        s.sched.on_panic(id, core.cfg.engine.quarantine_limit)
    };
    let failure = match outcome {
        PanicOutcome::Requeued => None,
        PanicOutcome::Quarantined { attempts, record } => {
            core.end(id, Terminal::Quarantined { attempts });
            Some((Some(record), ServerError::Quarantined { attempts }))
        }
        PanicOutcome::Gone => {
            core.end(id, Terminal::Failed);
            Some((None, ServerError::WorkerPanicked))
        }
    };
    if fate == WorkerFate::Respawn {
        core.emit(id, EventKind::WorkerRestarted);
    }
    match failure {
        None => {
            // Back in WAITING: a worker must pick it up, and a peer parked
            // in `wait_for_peer` on it must stop waiting for an execution
            // that is over (`answer` does the same on the other arm).
            core.wake(false);
            core.shards[k].done_cv.notify_all();
        }
        Some((record, err)) => core.answer(k, record, Err(err)),
    }
    if fate == WorkerFate::Respawn {
        let c2 = Arc::clone(&core);
        match std::thread::Builder::new()
            .name(format!("vmqs-query-{me}"))
            .spawn(move || worker_entry(c2, me))
        {
            Ok(h) => return core.respawned.lock().push(h),
            // The OS refused the thread: retire instead. The budget token
            // is forfeit and the restart stays counted — a one-off
            // overcount in a corner where the process is already failing
            // to spawn threads.
            Err(_) => fate = core.sup.retire(),
        }
    }
    if fate == WorkerFate::PoolDead {
        fail_all_waiting(&core);
    }
}

/// Fails every WAITING query with [`ServerError::WorkerPanicked`] — the
/// pool-death path: the last worker retired with the restart budget
/// exhausted, so queued work would wedge forever.
fn fail_all_waiting<A: AppExecutor>(core: &Core<A>) {
    for (k, sh) in core.shards.iter().enumerate() {
        let victims = sh.state.lock().sched.drain(Some(QueryState::Waiting));
        for (vid, record) in victims {
            core.end(vid, Terminal::PoolDead);
            core.answer(k, Some(record), Err(ServerError::WorkerPanicked));
        }
    }
}

/// Dequeues the highest-ranked WAITING query from shard `k`, if any.
fn try_dequeue<A: AppExecutor>(core: &Core<A>, k: usize) -> Option<Job<A::Spec>> {
    let mut s = core.shards[k].state.lock();
    // With grafting on a WAITING producer goes before a consumer it fully
    // covers, which would otherwise duplicate the compute or block on a
    // producer that has not even started.
    let (id, spec, score, p) = s.sched.dequeue(core.cfg.engine.graft)?;
    let (submitted, was_degraded) = (p.submitted, p.degraded);
    Some(Job {
        shard: k,
        id,
        spec,
        submitted,
        // The rank the scheduler chose the query by, frozen at dequeue.
        score,
        was_degraded,
    })
}

fn run_one<A: AppExecutor>(core: &Core<A>, job: Job<A::Spec>) {
    let (k, id, spec, submitted) = (job.shard, job.id, job.spec, job.submitted);
    let ranked = EventKind::Ranked {
        strategy: core.cfg.engine.strategy.name(),
        score: job.score,
    };
    core.emit(id, ranked);
    // The deadline covers the whole client-visible response time:
    // it starts at submission, so queue wait counts against it.
    let query_deadline = core.cfg.query_timeout.map(|t| submitted + t);
    let started = clock::now();
    // The hang watchdog (DESIGN.md §15) rides the existing deadline
    // machinery: the effective deadline is the earlier of the per-query
    // deadline (anchored at submission) and the hang limit (anchored at
    // execution start), so a stuck query is cancelled at every blocking
    // point the deadline already covers — and classified `Hung` below
    // when the hang bound was the binding one.
    let deadline = match core.cfg.engine.hang_timeout {
        Some(h) => {
            let hang_at = started + h;
            Some(query_deadline.map_or(hang_at, |d| d.min(hang_at)))
        }
        None => query_deadline,
    };
    core.qmet
        .queue_wait
        .observe((started - submitted).as_secs_f64());
    let exec = execute_query(core, k, id, spec, deadline);
    let finished = clock::now();

    // Publish the result. Each state component is locked on its own,
    // in sequence; the result bytes were materialized as `Arc<[u8]>`
    // outside any lock, so critical sections stay pointer-sized.
    match exec {
        Ok(out) => {
            let size = core.app.output_len(&spec) as u64;
            let mut evicted: Vec<EvictionRecord<A::Spec>> = Vec::new();
            // Measured recomputation cost: the wall seconds this worker
            // spent producing the result (I/O + kernel + blocked time).
            // Seeds the entry's benefit score under the cost-based
            // policy; the legacy policies carry it but never read it.
            let cost = (finished - started).as_secs_f64();
            let (cached, spills) = {
                let mut ds = core.store.write();
                // A full compute landing next to an already-visible
                // equivalent result is work a perfect co-scheduler would
                // have avoided (ROADMAP item 1); count it before
                // publishing our own copy.
                if out.path == AnswerPath::FullCompute && ds.equivalent(&spec).is_some() {
                    core.duplicate_full_computes.fetch_add(1, Ordering::Relaxed);
                }
                let cached = ds.insert_costed(
                    id,
                    spec,
                    size,
                    cost,
                    Payload::Bytes(Arc::clone(&out.image)),
                    &mut evicted,
                );
                // Demotions keep their bytes: their frames are written
                // once this critical section is over.
                (cached, ds.take_pending_spills())
            };
            // Publish-epoch bump *before* `done_cv` wakes dependency
            // blockers (in `answer`), so a woken waiter sees a moved epoch
            // and re-probes whenever there is something new to find. A
            // refused insert published nothing; a twin that refused it
            // moved the epoch when it was inserted or restored.
            if cached.is_ok() {
                core.publish_epoch.fetch_add(1, Ordering::SeqCst);
            }
            // An `Err` (budget too small to cache the result, or refused
            // by cost-based admission) publishes without a blob; the
            // record comes out with the transition.
            let pending = core.shards[k].state.lock().sched.publish(id, cached.ok());
            // Landed before the reply: at one worker no query ever sees
            // a frame in flight.
            let spilled = write_frames(core, spills, &mut evicted);
            route_evictions(core, evicted);
            emit_spills(core, spilled);
            match out.path {
                AnswerPath::ExactHit => core.qmet.ds_exact_hits.inc(),
                AnswerPath::PartialReuse => core.qmet.ds_partial_hits.inc(),
                AnswerPath::FullCompute => core.qmet.ds_misses.inc(),
                // Counted by its `Grafted` event; the store's hit/miss
                // counters never saw a lookup for it.
                AnswerPath::Grafted => {}
            }
            core.qmet.reused_bytes.add(out.reused_bytes);
            core.qmet
                .service_time
                .observe((finished - started).as_secs_f64());
            core.end(id, Terminal::Completed);
            let (w, h) = core.app.output_dims(&spec);
            let record = QueryRecord {
                id,
                spec,
                wait_time: started - submitted,
                exec_time: finished - started,
                blocked_time: out.blocked,
                path: out.path,
                reused_bytes: out.reused_bytes,
                covered_fraction: out.covered_fraction,
                pages_requested: out.pages_requested,
                degraded: job.was_degraded,
            };
            core.metrics.lock().push(record);
            let result = QueryResult {
                id,
                image: out.image,
                width: w,
                height: h,
                record,
            };
            core.answer(k, pending, Ok(result));
        }
        Err(e) => {
            let err = ServerError::from_io(&e, core.cfg.query_timeout);
            // A deadline cancellation whose binding bound was the hang
            // limit is a watchdog cancellation, not a client timeout
            // (`Terminal::Hung` still ends in `TimedOut`, so conservation
            // accounting folds it into `timed_out`).
            let hung =
                core.cfg.engine.hang_timeout.filter(|&h| {
                    err.is_timeout() && query_deadline.is_none_or(|d| started + h < d)
                });
            let (err, how) = match hung {
                Some(limit) => (ServerError::Hung { limit }, Terminal::Hung),
                None if err.is_timeout() => (err, Terminal::TimedOut),
                None => (err, Terminal::Failed),
            };
            core.end(id, how);
            let record = core.shards[k].state.lock().sched.retire(id);
            core.answer(k, record, Err(err));
        }
    }
}

struct ExecOutcome {
    image: Arc<[u8]>,
    path: AnswerPath,
    reused_bytes: u64,
    covered_fraction: f64,
    pages_requested: u64,
    blocked: Duration,
}

/// True when making `waiter` wait on `target` would close a cycle in the
/// wait-for graph (must be called with the scheduler lock held).
fn would_deadlock(
    waiting_on: &HashMap<QueryId, QueryId>,
    waiter: QueryId,
    target: QueryId,
) -> bool {
    let mut cur = target;
    let mut hops = 0;
    while let Some(&next) = waiting_on.get(&cur) {
        if next == waiter {
            return true;
        }
        cur = next;
        hops += 1;
        if hops > waiting_on.len() {
            // Defensive: a longer chain than entries means a cycle exists
            // somewhere already.
            return true;
        }
    }
    false
}

/// Blocks query `id` until its same-shard `peer` leaves EXECUTING (or the
/// server shuts down), under the shard lock `s` the caller already holds
/// and parked on that shard's `done_cv`. The wait-for edge is installed
/// for the duration of the wait only. Returns the time spent blocked;
/// `None`, counting a fallback, when waiting would close a wait-for
/// cycle; the deadline error when `deadline` passes first.
fn wait_for_peer<A: AppExecutor>(
    core: &Core<A>,
    k: usize,
    s: &mut ShardGuard<'_, A::Spec>,
    id: QueryId,
    peer: QueryId,
    deadline: Option<Instant>,
) -> std::io::Result<Option<Duration>> {
    if would_deadlock(&s.waiting_on, id, peer) {
        s.blocked_fallbacks += 1;
        return Ok(None);
    }
    s.waiting_on.insert(id, peer);
    let shard = &core.shards[k];
    shard.parked.fetch_add(1, Ordering::Relaxed);
    let t0 = clock::now();
    let mut expired = false;
    while s.sched.graph().state_of(peer) == Some(QueryState::Executing)
        && !core.shutdown.load(Ordering::SeqCst)
    {
        if deadline.is_some_and(|d| clock::now() >= d) {
            expired = true;
            break;
        }
        s.wait(&shard.done_cv, deadline);
    }
    shard.parked.fetch_sub(1, Ordering::Relaxed);
    s.waiting_on.remove(&id);
    if expired {
        return Err(deadline_error());
    }
    Ok(Some(t0.elapsed()))
}

fn execute_query<A: AppExecutor>(
    core: &Core<A>,
    k: usize,
    id: QueryId,
    spec: A::Spec,
    deadline: Option<Instant>,
) -> std::io::Result<ExecOutcome> {
    let mut blocked = Duration::ZERO;

    // A query that spent its whole budget queued is cancelled before any
    // work happens on its behalf.
    if deadline.is_some_and(|d| clock::now() >= d) {
        return Err(deadline_error());
    }

    // Snapshot the publish epoch *before* the first lookup: if it has
    // moved by the time this query is about to compute, some peer
    // published a result the first lookup could not have seen, and a
    // re-probe may convert the compute into a reuse.
    let epoch0 = core.publish_epoch.load(Ordering::SeqCst);

    // Step 1 — indexed Data Store lookup under the shared read lock:
    // collect exact/partial matches with their payloads (Arc clones;
    // projection happens outside the lock, concurrently with other
    // readers' lookups).
    let lookup = || {
        let mut exact: Option<Arc<[u8]>> = None;
        let mut sources: Vec<(A::Spec, Arc<[u8]>)> = Vec::new();
        let ds = core.store.read();
        for m in ds.lookup(&spec) {
            if let Some(e) = ds.get(m.blob) {
                if let Payload::Bytes(bytes) = &e.payload {
                    let hit = EventKind::LookupHit {
                        source: m.producer,
                        overlap: m.overlap,
                        exact: m.exact,
                    };
                    core.emit(id, hit);
                    if m.exact {
                        exact = Some(Arc::clone(bytes));
                    } else {
                        sources.push((e.spec, Arc::clone(bytes)));
                    }
                }
            }
        }
        (exact, sources)
    };
    let exact_outcome = |bytes: Arc<[u8]>, blocked: Duration| ExecOutcome {
        // Complete reuse: common subexpression elimination (Eq. 1).
        image: bytes,
        path: AnswerPath::ExactHit,
        reused_bytes: core.app.output_len(&spec) as u64,
        covered_fraction: 1.0,
        pages_requested: 0,
        blocked,
    };

    let (exact, mut sources) = lookup();
    if let Some(bytes) = exact {
        // An exact match cannot be improved by waiting for an in-flight
        // peer, so the hit path skips dependency blocking (and its shard
        // lock) entirely.
        return Ok(exact_outcome(bytes, blocked));
    }

    // Step 1b — tier-2 re-heat (DESIGN.md §14): no exact match resident,
    // but a spilled entry may cover this query exactly. Restoring it
    // costs a disk read instead of a recompute. A failed read (poisoned
    // or corrupt frame) drops the entry and falls through to the normal
    // compute path via the typed-error machinery — never a worker panic.
    if let Some(bytes) = try_restore(core, id, &spec) {
        return Ok(exact_outcome(bytes, blocked));
    }

    // Step 2 — wait, once, for the in-flight query `SchedShard` names
    // (paper §4: queries stall on EXECUTING dependencies; CNBF exists to
    // make this rare): the strongest EXECUTING source this query could
    // reuse, or with grafting a peer computing this very predicate. The
    // graph has edges only within a shard, so `wait_target` only ever
    // names a peer on the query's home shard (identical specs share one),
    // and the wait-for cycle check over that shard's edges is complete;
    // its `done_cv` signals the peer's completion.
    let mut producer = None;
    if core.cfg.engine.graft || core.cfg.engine.allow_blocking {
        let mut s = core.shards[k].state.lock();
        let target = s
            .sched
            .wait_target(id, core.cfg.engine.graft, core.cfg.engine.allow_blocking);
        if let Some((peer, graft)) = target {
            let waited = wait_for_peer(core, k, &mut s, id, peer, deadline)?;
            blocked += waited.unwrap_or_default();
            if graft && waited.is_some() {
                producer = Some(peer);
            }
        }
    }

    // Grafting (DESIGN.md §13): the producer's insert ran before it left
    // EXECUTING, so the wait ended on a store that holds these bytes, its
    // own or those of a twin that refused its insert. Take them
    // by a pure probe: no hit/miss stat, no LRU touch. Nothing there (the
    // producer failed, its insert found no room, or the entry is already
    // evicted) means computing like anyone else.
    if let Some(producer) = producer {
        let published = {
            let ds = core.store.read();
            let entry = ds.equivalent(&spec).and_then(|blob| ds.get(blob));
            entry.and_then(|e| match &e.payload {
                Payload::Bytes(bytes) => Some(Arc::clone(bytes)),
                Payload::Virtual => None,
            })
        };
        if let Some(bytes) = published {
            core.emit(id, EventKind::Grafted { producer });
            return Ok(ExecOutcome {
                path: AnswerPath::Grafted,
                ..exact_outcome(bytes, blocked)
            });
        }
    }

    // Steps 3–4 — the application projects cached coverage and computes
    // the remainder through a deadline-scoped Page Space session. No
    // locks held.
    if core.publish_epoch.load(Ordering::SeqCst) != epoch0 {
        // A peer published a result after our first lookup — whether we
        // blocked on a dependency or simply lost a race on another
        // shard. Re-probe before burning a core: an exact match turns
        // this compute into a reuse, and fresher partials shrink it. At one worker the epoch cannot move
        // between snapshot and check (the only thread that could bump
        // it is the one reading it), so golden traces see a single
        // lookup.
        core.relookups.fetch_add(1, Ordering::Relaxed);
        let (exact, mut fresh) = lookup();
        if let Some(bytes) = exact {
            core.relookup_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(exact_outcome(bytes, blocked));
        }
        // Keep first-probe sources the re-probe no longer sees (evicted
        // meanwhile) — their payloads are still valid Arcs, and dropping
        // coverage would only grow the compute.
        for (s_old, b_old) in sources {
            if !fresh.iter().any(|(s, _)| s.cmp(&s_old)) {
                fresh.push((s_old, b_old));
            }
        }
        sources = fresh;
    }
    // The chaos panic point and the application kernel: a panic here
    // unwinds to the supervision layer in `worker_entry` (DESIGN.md §15).
    // The ordinal is drawn per execution, so a poisoned retry consumes a
    // fresh one.
    let ordinal = core.compute_seq.fetch_add(1, Ordering::Relaxed);
    if core.cfg.engine.chaos.compute_should_panic(ordinal, id.0) {
        panic!("injected chaos panic: compute ordinal {ordinal}, query {id:?}");
    }
    lockdep::assert_unheld(
        &[
            LockClass::ShardState,
            LockClass::Store,
            LockClass::PagesCore,
        ],
        "kernel call",
    );
    let out = core
        .app
        .execute(&spec, &sources, &core.ps.session_for(id, deadline))?;
    debug_assert_eq!(out.bytes.len(), core.app.output_len(&spec));
    if out.subqueries > 0 {
        let spawned = EventKind::SubquerySpawned {
            count: out.subqueries,
        };
        core.emit(id, spawned);
    }
    let path = if out.reused_bytes > 0 {
        AnswerPath::PartialReuse
    } else {
        AnswerPath::FullCompute
    };
    let image: Arc<[u8]> = out.bytes.into();
    Ok(ExecOutcome {
        // The only full-size copy of the result, made outside every lock.
        image,
        path,
        reused_bytes: out.reused_bytes,
        covered_fraction: out.covered_fraction,
        pages_requested: out.pages_requested,
        blocked,
    })
}

/// Routes eviction records to their producers' home shards (one shard
/// lock at a time) and emits their eviction events.
fn route_evictions<A: AppExecutor>(core: &Core<A>, evicted: Vec<EvictionRecord<A::Spec>>) {
    let n = core.shards.len();
    for r in &evicted {
        let mut s = core.shards[shard_of_spec(&r.spec, n)].state.lock();
        s.sched.route_eviction(r.producer, r.blob);
    }
    for r in evicted {
        let kind = EventKind::Evicted {
            tier: r.tier,
            score: r.score,
        };
        core.emit(r.producer, kind);
    }
}

/// The tier-2 half of a store critical section, run after it let the
/// lock go (DESIGN.md §14). Writes the frames the demotions in `spills`
/// ask for, one per blob for its whole life, and reports them under one
/// short write lock ([`DataStore::frame_landed`]). A frame that cannot be
/// written turns a RESTORABLE entry's demotion into a drop
/// ([`DataStore::frame_failed`]: the entry joins `evicted` and its
/// producer is swapped out like any other victim). With the lock let go,
/// it unlinks the frames of the blobs `evicted` dropped for good and of
/// those that left the store while theirs was being written: blob ids
/// are never reused and a blob never has two writes in flight, so
/// nothing lands at those paths afterwards. Returns `(producer, bytes)`
/// pairs for `Spilled` event emission, one per demotion that stands.
fn write_frames<A: AppExecutor>(
    core: &Core<A>,
    spills: Vec<SpillRequest<A::Spec>>,
    evicted: &mut Vec<EvictionRecord<A::Spec>>,
) -> Vec<(QueryId, u64)> {
    let Some(spill) = &core.spill else {
        debug_assert!(
            spills.is_empty(),
            "tier-2 budget configured without a spill store"
        );
        return Vec::new();
    };
    let written: Vec<(BlobId, bool)> = spills
        .iter()
        .filter_map(|req| {
            // `None`: the blob's frame has landed or is being written.
            let payload = req.payload.as_ref()?;
            // A demoted entry in the threaded engine always carries bytes.
            let Payload::Bytes(bytes) = payload else {
                return Some((req.blob, false));
            };
            // The frame's meta block carries the serialized predicate so
            // a post-crash recovery scan can rebuild the entry.
            let meta = core.app.encode_spec(&req.spec);
            let t0 = clock::now();
            let ok = spill.write(req.blob, &meta, bytes).is_ok();
            core.tier2_write.observe(t0.elapsed().as_secs_f64());
            Some((req.blob, ok))
        })
        .collect();
    let mut orphans = Vec::new();
    if !written.is_empty() {
        let mut ds = core.store.write();
        for &(blob, ok) in &written {
            if !ok {
                evicted.extend(ds.frame_failed(blob));
            } else if !ds.frame_landed(blob) {
                orphans.push(blob);
            }
        }
    }
    let dead = evicted.iter().filter(|r| r.had_frame).map(|r| r.blob);
    for blob in dead.chain(orphans) {
        let _ = spill.remove(blob);
    }
    let failed = |blob| written.contains(&(blob, false));
    let stand = spills.into_iter().filter(|req| !failed(req.blob));
    stand.map(|req| (req.producer, req.size)).collect()
}

/// Emits `Spilled` events and counters for `write_frames` results —
/// outside the store lock.
fn emit_spills<A: AppExecutor>(core: &Core<A>, spills: Vec<(QueryId, u64)>) {
    for (producer, bytes) in spills {
        core.emit(producer, EventKind::Spilled { bytes });
    }
}

/// A RESTORABLE entry that `cmp`-matches a query, as
/// [`probe_restorable`] found it under the store's read lock.
struct Restorable {
    blob: BlobId,
    producer: QueryId,
    size: u64,
    /// The entry's bytes when its frame was still in flight.
    attached: Option<Arc<[u8]>>,
}

/// Attempts to answer `spec` from the tier-2 spill store (DESIGN.md §14)
/// in three steps, none of which holds a store lock across frame I/O:
/// [`probe_restorable`] finds a RESTORABLE entry matching exactly,
/// [`read_restorable`] fetches its bytes, and [`promote_restorable`]
/// re-heats the entry if it is still RESTORABLE. Returns the bytes, or
/// `None` to fall back to the ordinary compute path (no candidate, an
/// unreadable frame, or tier-1 space could not be freed).
fn try_restore<A: AppExecutor>(core: &Core<A>, id: QueryId, spec: &A::Spec) -> Option<Arc<[u8]>> {
    let spill = core.spill.as_ref()?;
    let found = probe_restorable(core, spec)?;
    let read = read_restorable(core, spill, &found);
    promote_restorable(core, id, found, read)
}

/// Step 1, under the store's read lock, so the common case, "nothing
/// spilled matches", never serialises on the write lock. Takes the
/// entry's bytes if its frame is still in flight, and touches nothing.
fn probe_restorable<A: AppExecutor>(core: &Core<A>, spec: &A::Spec) -> Option<Restorable> {
    let ds = core.store.read();
    let (blob, producer, size) = ds.lookup_restorable_exact(spec)?;
    let attached = match &ds.get(blob)?.payload {
        Payload::Bytes(bytes) => Some(Arc::clone(bytes)),
        Payload::Virtual => None,
    };
    Some(Restorable {
        blob,
        producer,
        size,
        attached,
    })
}

/// Step 2, with no lock held: the bytes the probe took, or the entry's
/// frame. A frame is written once and unlinked only after its blob has
/// left the store for good, and blob ids are never reused, so the read
/// either returns this blob's CRC-checked bytes or fails because the
/// blob is gone, or because the frame is poisoned or corrupt.
fn read_restorable<A: AppExecutor>(
    core: &Core<A>,
    spill: &SpillStore,
    found: &Restorable,
) -> std::io::Result<Arc<[u8]>> {
    if let Some(bytes) = &found.attached {
        return Ok(Arc::clone(bytes));
    }
    let t0 = clock::now();
    let read = spill.read(found.blob);
    core.tier2_read.observe(t0.elapsed().as_secs_f64());
    read.map(Arc::from)
}

/// Step 3, under the store's write lock: re-probes the blob and promotes
/// it back to FULL only if it is still RESTORABLE; the frame stays on
/// disk for the entry's next demotion. A failed read is a restore
/// failure and drops the entry for good — the typed-error fallback the
/// fault sweep exercises — again only if it is still RESTORABLE. A blob
/// that left the store, or that a peer restored, during the read is no
/// restore failure: the query is answered from the bytes it read, or,
/// when the frame went with the blob, computes.
fn promote_restorable<A: AppExecutor>(
    core: &Core<A>,
    id: QueryId,
    found: Restorable,
    read: std::io::Result<Arc<[u8]>>,
) -> Option<Arc<[u8]>> {
    let Restorable {
        blob,
        producer,
        size,
        ..
    } = found;
    let mut evicted: Vec<EvictionRecord<A::Spec>> = Vec::new();
    let mut promoted = false;
    let (answer, spills) = {
        let mut ds = core.store.write();
        let answer = match read {
            Ok(bytes) if ds.get(blob).is_some_and(|e| e.restorable()) => {
                promoted = ds.restore(blob, Payload::Bytes(Arc::clone(&bytes)), &mut evicted);
                // On a false return the query recomputes: either tier 1
                // could not make room (the entry stays RESTORABLE as it
                // was), or making room overflowed tier 2 and the shrink
                // dropped this very entry (its eviction record is in
                // `evicted`).
                promoted.then_some(bytes)
            }
            // The blob left, or a peer restored it, during the read.
            Ok(bytes) => Some(bytes),
            // No frame because the blob left the store: the read lost a
            // race with the blob's drop, and no restore failed.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && ds.get(blob).is_none() => None,
            // Any other failed read sends this query to recompute: a
            // restore failure even when a peer's failed read already
            // dropped the entry, in which case `restore_failed` drops
            // nothing.
            Err(_) => {
                evicted.extend(ds.restore_failed(blob));
                None
            }
        };
        // Making room in tier 1 may itself have demoted entries.
        (answer, ds.take_pending_spills())
    };
    if promoted {
        // The re-heated entry is visible again: a concurrent compute whose
        // first lookup missed it re-probes.
        core.publish_epoch.fetch_add(1, Ordering::SeqCst);
    }
    let spilled = write_frames(core, spills, &mut evicted);
    route_evictions(core, evicted);
    emit_spills(core, spilled);
    let bytes = answer?;
    if promoted {
        core.emit(producer, EventKind::Restored { bytes: size });
    }
    let hit = EventKind::LookupHit {
        source: producer,
        overlap: 1.0,
        exact: true,
    };
    core.emit(id, hit);
    Some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, EngineConfig, OverloadConfig, Rect, Strategy};
    use vmqs_microscope::kernels::reference_render;
    use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
    use vmqs_storage::SyntheticSource;

    fn slide() -> SlideDataset {
        SlideDataset::new(DatasetId(0), 600, 600)
    }

    fn server(cfg: ServerConfig) -> QueryServer {
        QueryServer::new(cfg, Arc::new(SyntheticSource::new()))
    }

    fn q(x: u32, y: u32, w: u32, h: u32, zoom: u32, op: VmOp) -> VmQuery {
        VmQuery::new(slide(), Rect::new(x, y, w, h), zoom, op)
    }

    #[test]
    fn single_query_matches_reference() {
        let s = server(ServerConfig::small());
        let spec = q(10, 10, 64, 64, 2, VmOp::Subsample);
        let res = s.submit(spec).wait().unwrap();
        assert_eq!(res.width, 32);
        assert_eq!(*res.image, reference_render(&spec).data);
        assert_eq!(res.record.path, AnswerPath::FullCompute);
        s.shutdown();
    }

    #[test]
    fn identical_query_is_exact_hit() {
        let s = server(ServerConfig::small());
        let spec = q(0, 0, 64, 64, 2, VmOp::Average);
        let first = s.submit(spec).wait().unwrap();
        let second = s.submit(spec).wait().unwrap();
        assert_eq!(second.record.path, AnswerPath::ExactHit);
        assert_eq!(*second.image, *first.image);
        assert_eq!(second.record.covered_fraction, 1.0);
        assert_eq!(second.record.pages_requested, 0);
        s.shutdown();
    }

    #[test]
    fn partial_overlap_reuses_and_matches_reference() {
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(1)));
        let a = q(0, 0, 200, 400, 2, VmOp::Subsample);
        s.submit(a).wait().unwrap();
        let b = q(100, 0, 300, 400, 2, VmOp::Subsample);
        let res = s.submit(b).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::PartialReuse);
        assert!(res.record.covered_fraction > 0.2);
        assert_eq!(*res.image, reference_render(&b).data);
        s.shutdown();
    }

    #[test]
    fn zoom_projection_reuse_matches_reference_subsample() {
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(1)));
        let fine = q(0, 0, 400, 400, 2, VmOp::Subsample);
        s.submit(fine).wait().unwrap();
        let coarse = q(0, 0, 400, 400, 8, VmOp::Subsample);
        let res = s.submit(coarse).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::PartialReuse);
        // The whole coarse output is derivable from the fine cached result.
        assert_eq!(res.record.covered_fraction, 1.0);
        assert_eq!(res.record.pages_requested, 0);
        assert_eq!(*res.image, reference_render(&coarse).data);
        s.shutdown();
    }

    #[test]
    fn caching_disabled_never_reuses() {
        let s = server(ServerConfig::new(EngineConfig::small().with_ds_budget(0)));
        let spec = q(0, 0, 64, 64, 1, VmOp::Subsample);
        s.submit(spec).wait().unwrap();
        let second = s.submit(spec).wait().unwrap();
        assert_eq!(second.record.path, AnswerPath::FullCompute);
        assert_eq!(s.ds_stats().rejected, 2);
        s.shutdown();
    }

    #[test]
    fn many_concurrent_queries_all_correct() {
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(4)));
        let mut handles = Vec::new();
        let mut specs = Vec::new();
        for i in 0..12u32 {
            let spec = q(
                (i % 3) * 100,
                (i / 3) * 60,
                120,
                120,
                1 << (i % 3),
                VmOp::Subsample,
            );
            specs.push(spec);
            handles.push(s.submit(spec));
        }
        for (h, spec) in handles.into_iter().zip(specs) {
            let res = h.wait().unwrap();
            assert_eq!(*res.image, reference_render(&spec).data, "query {spec:?}");
        }
        s.shutdown();
    }

    #[test]
    fn drain_waits_for_all() {
        let s = server(ServerConfig::small());
        let handles = s.submit_batch((0..6).map(|i| q(i * 40, 0, 80, 80, 2, VmOp::Average)));
        s.drain();
        for h in handles {
            assert!(h.try_wait().is_some());
        }
        assert_eq!(s.records().len(), 6);
        s.shutdown();
    }

    fn top(rank: f64, id: u64) -> Option<Top> {
        Some(Top(Rank::new(rank), Reverse(QueryId(id))))
    }

    #[test]
    fn picker_takes_the_best_rank_over_a_worse_home_top() {
        // Home holds an older unranked miss; the other shard's top is a
        // query with cached sources.
        assert_eq!(pick_shard(&[top(0.0, 1), top(4096.0, 9)], 0), Some(1));
        assert_eq!(pick_shard(&[top(4096.0, 9), top(0.0, 1)], 1), Some(0));
        assert_eq!(pick_shard(&[top(-10.0, 1), top(0.0, 9)], 0), Some(1));
    }

    #[test]
    fn picker_breaks_equal_ranks_by_the_older_id() {
        assert_eq!(pick_shard(&[top(5.0, 7), top(5.0, 3)], 0), Some(1));
        assert_eq!(pick_shard(&[top(5.0, 3), top(5.0, 7)], 1), Some(0));
    }

    #[test]
    fn picker_orders_fifo_tops_by_id_alone() {
        // FIFO ranks by the negated per-shard arrival sequence: shard 0's
        // top is its first arrival, shard 1's its fifth, yet shard 1's is
        // the older query of the two.
        let fifo = |id, seq: u64| Some(Top::of(true, (QueryId(id), Rank::new(-(seq as f64)))));
        assert_eq!(pick_shard(&[fifo(20, 0), fifo(8, 4)], 0), Some(1));
        assert_eq!(pick_shard(&[fifo(8, 4), fifo(20, 0)], 1), Some(0));
        // Every other strategy keeps its rank.
        let ranked = Top::of(false, (QueryId(8), Rank::new(-4.0)));
        assert_eq!(Some(ranked), top(-4.0, 8));
    }

    #[test]
    fn picker_skips_empty_shards() {
        assert_eq!(pick_shard(&[None, None, None], 1), None);
        assert_eq!(pick_shard(&[None, top(-1.0, 50), None], 0), Some(1));
        assert_eq!(
            pick_shard(&[top(-9.0, 50), None, top(-10.0, 2)], 2),
            Some(0)
        );
    }

    #[test]
    fn picker_gives_ties_to_the_first_shard_in_rotation_from_me() {
        // Ids are unique, so only torn mirrors can repeat a key.
        let t = top(1.0, 4);
        assert_eq!(pick_shard(&[t, t, t], 1), Some(1));
        assert_eq!(pick_shard(&[t, None, t], 1), Some(2));
    }

    #[test]
    fn picker_with_one_shard_returns_it_whatever_its_top() {
        for t in [top(0.0, 1), top(-1e300, u64::MAX), top(1e300, 0)] {
            assert_eq!(pick_shard(&[t], 0), Some(0));
        }
    }

    #[test]
    fn shard_mirror_publishes_the_top_on_every_release() {
        let lock = ShardLock::new(Strategy::Fifo, 256, Arc::new(AtomicUsize::new(0)));
        assert_eq!(lock.top(), None);
        for (id, x) in [(5, 0), (9, 300)] {
            let (tx, _rx) = sync_channel(1);
            let record = Pending {
                tx,
                submitted: clock::now(),
                degraded: false,
            };
            let spec = q(x, 0, 32, 32, 1, VmOp::Subsample);
            lock.lock().sched.admit(QueryId(id), spec, record);
        }
        assert_eq!(lock.top(), top(0.0, 5));
        assert!(lock.lock().sched.dequeue(false).is_some());
        assert_eq!(lock.top(), top(0.0, 9));
        assert!(lock.lock().sched.dequeue(false).is_some());
        assert_eq!(lock.top(), None);
    }

    #[test]
    fn remote_dequeues_are_counted_past_one_worker() {
        let remote = |threads| {
            let cfg = ServerConfig::new(
                EngineConfig::small()
                    .with_threads(threads)
                    .with_start_paused(true),
            );
            let s = server(cfg);
            // 48 disjoint tiles: full computes, spread over the shards.
            let tiles =
                (0..48u32).map(|i| q((i % 8) * 70, (i / 8) * 90, 64, 64, 1, VmOp::Subsample));
            let handles = s.submit_batch(tiles);
            s.resume_workers();
            for h in handles {
                h.wait().unwrap();
            }
            let n = s.metrics().counters["vmqs_sched_remote_dequeues_total"];
            s.shutdown();
            n
        };
        assert_eq!(remote(1), 0);
        assert!(remote(2) > 0);
    }

    #[test]
    fn summary_aggregates_without_copying_records() {
        let s = server(ServerConfig::small());
        let spec = q(0, 0, 64, 64, 2, VmOp::Subsample);
        s.submit(spec).wait().unwrap();
        s.submit(spec).wait().unwrap();
        let other = q(200, 200, 64, 64, 2, VmOp::Subsample);
        s.submit(other).wait().unwrap();
        let sum = s.summary();
        assert_eq!(sum.completed, 3);
        assert_eq!(sum.exact_hits, 1);
        assert_eq!(
            sum.exact_hits + sum.partial_reuse + sum.full_compute,
            sum.completed
        );
        assert_eq!(sum.tally.completed, 3, "quiescent: the tally agrees");
        s.shutdown();
    }

    /// Polls `cond` until it holds, failing after a generous 10 s.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = clock::now() + Duration::from_secs(10);
        while !cond() {
            assert!(clock::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Busy-polls for up to 10 ms for a worker in its spin window; true
    /// when one was seen.
    fn caught_spinning(s: &QueryServer) -> bool {
        let deadline = clock::now() + Duration::from_millis(10);
        while clock::now() < deadline {
            if s.core.spinning.load(Ordering::Relaxed) {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    #[test]
    fn idle_pool_ends_its_spin_and_parks() {
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(2)));
        s.submit(q(0, 0, 64, 64, 2, VmOp::Subsample))
            .wait()
            .unwrap();
        eventually("every worker parks", || {
            s.core.sleepers.load(Ordering::SeqCst) == 2
        });
        s.shutdown();
    }

    /// The spin polls `shutdown`, and a spinner that then parks re-checks
    /// it under the `idle` lock, so a shutdown in the spin window joins.
    #[test]
    fn shutdown_during_a_spin_joins_every_worker() {
        let mut caught = 0;
        for _ in 0..20 {
            let s = server(ServerConfig::new(EngineConfig::small().with_threads(2)));
            s.submit(q(0, 0, 64, 64, 2, VmOp::Subsample))
                .wait()
                .unwrap();
            // The worker that answered is back in its idle path.
            caught += usize::from(caught_spinning(&s));
            s.shutdown();
        }
        assert!(caught > 0 || cores() < 2, "no spin window was caught");
    }

    #[test]
    fn paused_workers_park_and_resume_runs_the_batch() {
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(2)
                .with_start_paused(true),
        ));
        let specs: Vec<_> = (0..8u32)
            .map(|i| q(i * 70, 0, 64, 64, 1, VmOp::Subsample))
            .collect();
        let handles = s.submit_batch(specs.iter().copied());
        eventually("both paused workers park", || {
            s.core.sleepers.load(Ordering::SeqCst) == 2
        });
        assert_eq!(s.summary().completed, 0, "a paused pool ran nothing");
        s.resume_workers();
        for (h, spec) in handles.into_iter().zip(&specs) {
            assert_eq!(*h.wait().unwrap().image, reference_render(spec).data);
        }
        s.shutdown();
    }

    /// A spinner is not a sleeper, so its submitter wakes no one: the
    /// spinner must find the query by itself.
    #[test]
    fn a_submission_during_the_spin_is_answered() {
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(1)));
        let mut caught = 0;
        for i in 0..20u32 {
            caught += usize::from(caught_spinning(&s));
            let spec = q(i * 25, 0, 64, 64, 1, VmOp::Subsample);
            let res = s.submit(spec).wait().unwrap();
            assert_eq!(*res.image, reference_render(&spec).data);
        }
        assert!(caught > 0 || cores() < 2, "no spin window was caught");
        s.check_invariants();
        s.shutdown();
    }

    #[test]
    fn shutdown_fails_pending_queries() {
        // One thread and a pile of queries: shut down immediately; whatever
        // did not run must receive an error, not hang.
        let s = server(ServerConfig::new(EngineConfig::small().with_threads(1)));
        let handles =
            s.submit_batch((0..8).map(|i| q((i % 4) * 100, 0, 100, 100, 1, VmOp::Average)));
        s.shutdown();
        let mut finished = 0;
        let mut failed = 0;
        for h in handles {
            match h.wait() {
                Ok(_) => finished += 1,
                Err(_) => failed += 1,
            }
        }
        assert_eq!(finished + failed, 8);
    }

    #[test]
    fn records_time_accounting_sane() {
        let s = server(ServerConfig::small());
        let spec = q(0, 0, 128, 128, 1, VmOp::Average);
        let res = s.submit(spec).wait().unwrap();
        assert!(res.record.exec_time > Duration::ZERO);
        assert!(res.record.response_time() >= res.record.exec_time);
        s.shutdown();
    }

    #[test]
    fn would_deadlock_detects_cycles() {
        let mut w = HashMap::new();
        w.insert(QueryId(1), QueryId(2));
        w.insert(QueryId(2), QueryId(3));
        assert!(would_deadlock(&w, QueryId(3), QueryId(1)));
        assert!(!would_deadlock(&w, QueryId(4), QueryId(1)));
        assert!(!would_deadlock(&w, QueryId(3), QueryId(4)));
    }

    #[test]
    fn blocking_disabled_still_correct() {
        let s = server(ServerConfig::new(
            EngineConfig::small().with_threads(4).with_blocking(false),
        ));
        let spec = q(0, 0, 300, 300, 2, VmOp::Subsample);
        let handles: Vec<_> = (0..4).map(|_| s.submit(spec)).collect();
        for h in handles {
            let res = h.wait().unwrap();
            assert_eq!(*res.image, reference_render(&spec).data);
        }
        s.shutdown();
    }

    #[test]
    fn bounded_admission_rejects_when_queue_full() {
        // Paused workers: the queue only grows, so admission decisions
        // are deterministic.
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(1)
                .with_start_paused(true)
                .with_observe(true)
                .with_overload(OverloadConfig::default().with_max_pending(2)),
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| s.submit(q(i * 50, 0, 64, 64, 2, VmOp::Subsample)))
            .collect();
        // The rejected handles resolve immediately, before any worker runs.
        for h in &handles[2..] {
            match h.try_wait() {
                Some(Err(ServerError::Overloaded { retry_after })) => {
                    assert!(retry_after > Duration::ZERO);
                }
                other => panic!("expected immediate Overloaded, got {other:?}"),
            }
        }
        s.resume_workers();
        s.drain();
        let mut ok = 0;
        for h in handles.into_iter().take(2) {
            assert!(h.wait().is_ok());
            ok += 1;
        }
        let sum = s.summary();
        assert_eq!((ok, sum.completed, sum.rejected), (2, 2, 2));
        let rejected_events = s
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Rejected {
                        rate_limited: false
                    }
                )
            })
            .count();
        assert_eq!(rejected_events, 2);
        s.check_invariants();
        s.shutdown();
    }

    #[test]
    fn shedding_evicts_largest_waiting_and_keeps_invariants() {
        // max_pending 4, shed at 0.75: the third admission pushes the
        // queue fraction to 0.75 and the shedder evicts the largest
        // waiting query (the 300x300 one) until pressure drops.
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(1)
                .with_start_paused(true)
                .with_observe(true)
                .with_overload(
                    OverloadConfig::default()
                        .with_max_pending(4)
                        .with_shed_threshold(0.75),
                ),
        ));
        let small_a = s.submit(q(0, 0, 64, 64, 1, VmOp::Subsample));
        let big = s.submit(q(0, 0, 300, 300, 1, VmOp::Subsample));
        let small_b = s.submit(q(100, 0, 64, 64, 1, VmOp::Subsample));
        s.check_invariants();
        match big.try_wait() {
            Some(Err(ServerError::Shed { pressure })) => {
                assert!((0.0..=1.0).contains(&pressure));
            }
            other => panic!("largest waiting query should be shed, got {other:?}"),
        }
        s.resume_workers();
        s.drain();
        assert!(small_a.wait().is_ok());
        assert!(small_b.wait().is_ok());
        let sum = s.summary();
        assert_eq!((sum.completed, sum.shed, sum.rejected), (2, 1, 0));
        assert_eq!(
            s.events()
                .iter()
                .filter(|e| e.kind == EventKind::Shed)
                .count(),
            1
        );
        s.check_invariants();
        s.shutdown();
    }

    #[test]
    fn degradation_downgrades_average_under_pressure() {
        // Degrade from the second admission on (2/8 = 0.25); verify the
        // degraded queries ran as Subsample and produced Subsample bytes.
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(1)
                .with_start_paused(true)
                .with_observe(true)
                .with_overload(
                    OverloadConfig::default()
                        .with_max_pending(8)
                        .with_degrade_threshold(0.25),
                ),
        ));
        let handles: Vec<_> = (0..3)
            .map(|i| s.submit(q(i * 80, 0, 128, 128, 2, VmOp::Average)))
            .collect();
        s.resume_workers();
        s.drain();
        let results: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        assert!(
            !results[0].record.degraded,
            "first admission is unpressured"
        );
        assert_eq!(results[0].record.spec.op, VmOp::Average);
        for r in &results[1..] {
            assert!(r.record.degraded);
            assert_eq!(r.record.spec.op, VmOp::Subsample);
            assert_eq!(*r.image, reference_render(&r.record.spec).data);
        }
        let sum = s.summary();
        assert_eq!((sum.completed, sum.tally.degraded), (3, 2));
        assert_eq!(
            s.events()
                .iter()
                .filter(|e| e.kind == EventKind::Degraded)
                .count(),
            2
        );
        s.shutdown();
    }

    #[test]
    fn rate_limiter_is_per_client() {
        // Burst of 1 at 0.1 q/s: the first query per client is admitted,
        // immediate follow-ups are rejected as rate-limited; a different
        // client has its own bucket.
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(1)
                .with_start_paused(true)
                .with_observe(true)
                .with_overload(OverloadConfig::default().with_client_rate(0.1)),
        ));
        let a1 = s.submit_from(ClientId(7), q(0, 0, 64, 64, 2, VmOp::Subsample));
        let a2 = s.submit_from(ClientId(7), q(64, 0, 64, 64, 2, VmOp::Subsample));
        let b1 = s.submit_from(ClientId(8), q(0, 64, 64, 64, 2, VmOp::Subsample));
        assert!(matches!(
            a2.try_wait(),
            Some(Err(ServerError::Overloaded { .. }))
        ));
        s.resume_workers();
        s.drain();
        assert!(a1.wait().is_ok());
        assert!(b1.wait().is_ok());
        let sum = s.summary();
        assert_eq!((sum.completed, sum.rejected), (2, 1));
        assert_eq!(
            s.events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Rejected { rate_limited: true }))
                .count(),
            1
        );
        s.shutdown();
    }

    #[test]
    fn shutdown_with_nonempty_admission_queue_resolves_every_handle() {
        // stop() with queries still waiting (workers paused, never
        // resumed) must reject or drain every pending query — no wedged
        // QueryHandle. Mixes admitted and rejected queries.
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(2)
                .with_start_paused(true)
                .with_overload(OverloadConfig::default().with_max_pending(4)),
        ));
        let handles: Vec<_> = (0..6)
            .map(|i| s.submit(q((i % 3) * 100, 0, 80, 80, 2, VmOp::Subsample)))
            .collect();
        s.shutdown();
        let mut shut = 0;
        let mut overloaded = 0;
        for h in handles {
            match h.wait() {
                Err(ServerError::Shutdown) => shut += 1,
                Err(ServerError::Overloaded { .. }) => overloaded += 1,
                other => panic!("expected Shutdown or Overloaded, got {other:?}"),
            }
        }
        assert_eq!((shut, overloaded), (4, 2));
    }

    /// What a [`StallingExecutor`]'s first `execute` does once released.
    #[derive(Clone, Copy)]
    enum Released {
        Compute,
        Fail,
        Panic,
    }

    /// `(entered, released)` of a [`StallingExecutor`]'s first call under
    /// the mutex; the condvar signals both transitions.
    #[derive(Default)]
    struct Gate(Mutex<(bool, bool)>, Condvar);

    impl Gate {
        /// Blocks until the first `execute` call is parked on the gate.
        fn wait_entered(&self) {
            let mut g = self.0.lock();
            while !g.0 {
                self.1.wait(&mut g);
            }
        }

        fn release(&self) {
            self.0.lock().1 = true;
            self.1.notify_all();
        }
    }

    /// An executor that parks its first `execute` call until released:
    /// the deterministic way to hold a query EXECUTING while a peer finds
    /// it in flight and waits for it.
    struct StallingExecutor {
        gate: Arc<Gate>,
        then: Released,
    }

    /// A server over a fresh [`StallingExecutor`], with its gate.
    fn stalling(cfg: ServerConfig, then: Released) -> (QueryServer<StallingExecutor>, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let app = StallingExecutor {
            gate: Arc::clone(&gate),
            then,
        };
        let s = QueryServer::with_app(cfg, app, Arc::new(SyntheticSource::new()));
        (s, gate)
    }

    /// Polls until query `id` is parked in `wait_for_peer`.
    fn wait_until_blocked(s: &QueryServer<StallingExecutor>, id: QueryId) {
        let parked = || {
            let mut shards = s.core.shards.iter();
            shards.any(|sh| sh.state.lock().waiting_on.contains_key(&id))
        };
        while !parked() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    impl AppExecutor for StallingExecutor {
        type Spec = VmQuery;

        fn execute(
            &self,
            spec: &VmQuery,
            sources: &[(VmQuery, Arc<[u8]>)],
            ps: &crate::pages::PageSpaceSession<'_>,
        ) -> std::io::Result<crate::app::AppOutcome> {
            let first = {
                let mut g = self.gate.0.lock();
                let first = !g.0;
                g.0 = true;
                self.gate.1.notify_all();
                first
            };
            if first {
                let mut g = self.gate.0.lock();
                while !g.1 {
                    self.gate.1.wait(&mut g);
                }
                drop(g);
                match self.then {
                    Released::Compute => {}
                    Released::Fail => {
                        return Err(std::io::Error::other("injected producer failure"));
                    }
                    Released::Panic => panic!("injected producer panic"),
                }
            }
            VmExecutor.execute(spec, sources, ps)
        }
    }

    #[test]
    fn graft_subscribes_to_in_flight_producer_and_reuses_bytes() {
        let (s, gate) = stalling(
            ServerConfig::new(
                EngineConfig::small()
                    .with_threads(2)
                    .with_graft(true)
                    .with_observe(true),
            ),
            Released::Compute,
        );
        let spec = q(0, 0, 128, 128, 2, VmOp::Subsample);
        let producer = s.submit(spec);
        // Wait until the producer is inside `execute`, EXECUTING on the
        // shard its twin will be homed on.
        gate.wait_entered();
        let consumer = s.submit(spec);
        // Wait until the consumer has attached (it is parked on the
        // producer), then let the producer publish.
        wait_until_blocked(&s, consumer.id);
        gate.release();
        let p = producer.wait().unwrap();
        let c = consumer.wait().unwrap();
        assert_eq!(p.record.path, AnswerPath::FullCompute);
        assert_eq!(
            c.record.path,
            AnswerPath::Grafted,
            "consumer must graft, not recompute"
        );
        assert_eq!(*c.image, *p.image);
        assert_eq!(*c.image, reference_render(&spec).data);
        assert_eq!(c.record.covered_fraction, 1.0);
        assert_eq!(c.record.pages_requested, 0);
        let sum = s.summary();
        assert_eq!((sum.completed, sum.grafted), (2, 1));
        assert_eq!(sum.duplicate_full_computes, 0);
        let ev = s.events();
        assert_eq!(
            vmqs_obs::timeline::grafted_edges(&ev),
            vec![(c.record.id, p.record.id)]
        );
        s.check_invariants();
        s.shutdown();
    }

    #[test]
    fn graft_consumer_survives_producer_failure() {
        // A producer that fails publishes nothing; a grafted consumer
        // must wake, find no entry, and compute on its own.
        let (s, gate) = stalling(
            ServerConfig::new(
                EngineConfig::small()
                    .with_threads(2)
                    .with_graft(true)
                    .with_observe(true),
            ),
            Released::Fail,
        );
        let spec = q(0, 0, 96, 96, 2, VmOp::Subsample);
        let producer = s.submit(spec);
        gate.wait_entered();
        let consumer = s.submit(spec);
        wait_until_blocked(&s, consumer.id);
        gate.release();
        assert!(producer.wait().is_err(), "producer failure must propagate");
        let c = consumer.wait().unwrap();
        // The consumer fell back to computing for itself.
        assert_eq!(*c.image, reference_render(&spec).data);
        assert_ne!(c.record.path, AnswerPath::Grafted);
        let sum = s.summary();
        assert_eq!((sum.completed, sum.failed, sum.grafted), (1, 1, 0));
        s.check_invariants();
        s.shutdown();
    }

    /// A producer whose insert the cost-based store refuses, because a
    /// twin became visible while it computed, still ends its graft
    /// consumer's wait on a store that answers it: the consumer takes the
    /// resident twin's bytes.
    #[test]
    fn graft_consumer_reuses_the_twin_that_refused_its_producers_insert() {
        let (s, gate) = stalling(
            ServerConfig::new(
                EngineConfig::small()
                    .with_threads(2)
                    .with_graft(true)
                    .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased),
            ),
            Released::Compute,
        );
        let spec = q(0, 0, 96, 96, 2, VmOp::Subsample);
        let producer = s.submit(spec);
        gate.wait_entered();
        let consumer = s.submit(spec);
        wait_until_blocked(&s, consumer.id);
        // The twin lands while the producer computes.
        publish(&s, 1001, spec, 1.0);
        gate.release();
        let p = producer.wait().unwrap();
        let c = consumer.wait().unwrap();
        assert_eq!(p.record.path, AnswerPath::FullCompute);
        assert_eq!(c.record.path, AnswerPath::Grafted);
        assert_eq!(*c.image, reference_render(&spec).data);
        let ds = s.ds_stats();
        // The producer's and the consumer's inserts were both refused.
        assert_eq!((ds.committed, ds.unprofitable), (1, 2));
        let store = s.core.store.read();
        let twin = store.equivalent(&spec).and_then(|b| store.get(b));
        assert_eq!(twin.map(|e| e.producer), Some(QueryId(1001)));
        assert_eq!(store.len(), 1);
        drop(store);
        assert_eq!(s.summary().duplicate_full_computes, 1);
        s.check_invariants();
        s.shutdown();
    }

    /// `summary()` reads counters; after a run that takes every answer
    /// path, grafting included, they equal a walk over the records.
    #[test]
    fn summary_counters_equal_a_record_walk() {
        let (s, gate) = stalling(
            ServerConfig::new(EngineConfig::small().with_threads(2).with_graft(true)),
            Released::Compute,
        );
        let spec = q(0, 0, 200, 400, 2, VmOp::Subsample);
        let producer = s.submit(spec);
        gate.wait_entered();
        let consumer = s.submit(spec);
        wait_until_blocked(&s, consumer.id);
        gate.release();
        producer.wait().unwrap();
        consumer.wait().unwrap();
        s.submit(spec).wait().unwrap();
        s.submit(q(100, 0, 300, 400, 2, VmOp::Subsample))
            .wait()
            .unwrap();
        let records = s.records();
        let walked = |path| records.iter().filter(|r| r.path == path).count();
        let sum = s.summary();
        assert_eq!(sum.completed, records.len());
        let paths = [
            (sum.exact_hits, AnswerPath::ExactHit),
            (sum.partial_reuse, AnswerPath::PartialReuse),
            (sum.full_compute, AnswerPath::FullCompute),
            (sum.grafted, AnswerPath::Grafted),
        ];
        for (counted, path) in paths {
            assert_eq!((counted, path), (walked(path), path));
            assert!(counted > 0, "the run takes the {path:?} path");
        }
        let reused: u64 = records.iter().map(|r| r.reused_bytes).sum();
        assert_eq!(sum.reused_bytes, reused);
        assert_eq!(sum.tally.completed, records.len() as u64);
        s.shutdown();
    }

    /// The publish epoch moves when an entry becomes visible and only
    /// then: an exact hit's insert that the cost-based store refuses
    /// publishes nothing, so concurrent computes are not sent to re-probe;
    /// under LRU the twin is admitted and the epoch moves.
    #[test]
    fn a_refused_insert_leaves_the_publish_epoch() {
        use vmqs_datastore::EvictionPolicy;
        for (policy, moves) in [(EvictionPolicy::CostBased, 0), (EvictionPolicy::Lru, 1)] {
            let s = server(ServerConfig::new(
                EngineConfig::small().with_cache_policy(policy),
            ));
            let epoch = || s.core.publish_epoch.load(Ordering::SeqCst);
            let spec = q(0, 0, 64, 64, 2, VmOp::Subsample);
            s.submit(spec).wait().unwrap();
            assert_eq!(epoch(), 1, "{policy:?}: the compute published");
            let hit = s.submit(spec).wait().unwrap();
            assert_eq!(hit.record.path, AnswerPath::ExactHit);
            assert_eq!(epoch(), 1 + moves, "{policy:?}");
            assert_eq!(s.ds_stats().unprofitable, 1 - moves, "{policy:?}");
            s.shutdown();
        }
    }

    /// Every pass of a concurrent replay over 128 tiles finds each tile
    /// cached once: the first copy of a tile is admitted, and every later
    /// one, whether an exact hit's or a racing duplicate compute's, is a
    /// twin the cost-based store refuses.
    #[test]
    fn cost_based_replay_caches_each_tile_once() {
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(4)
                .with_ds_budget(1 << 20)
                .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased),
        ));
        let tiles: Vec<VmQuery> = (0..128u32)
            .map(|i| q(i % 16 * 32, i / 16 * 32, 32, 32, 1, VmOp::Subsample))
            .collect();
        // Four passes in one batch, so a tile's first computes can race.
        let passes = 4;
        let order: Vec<usize> = (0..passes)
            .flat_map(|pass| (0..128).map(move |i| (i * 37 + pass * 11) % 128))
            .collect();
        let handles = s.submit_batch(order.iter().map(|&i| tiles[i]));
        for (h, &i) in handles.into_iter().zip(&order) {
            let res = h.wait().unwrap();
            assert_eq!(*res.image, reference_render(&tiles[i]).data, "tile {i}");
        }
        let ds = s.ds_stats();
        assert_eq!((ds.committed, ds.evicted), (128, 0));
        assert_eq!(ds.unprofitable, 128 * (passes as u64 - 1));
        let store = s.core.store.read();
        assert_eq!((store.len(), store.used()), (128, 128 * 32 * 32 * 3));
        for t in &tiles {
            assert!(store.equivalent(t).is_some(), "{t:?}");
        }
        drop(store);
        s.check_invariants();
        s.shutdown();
    }

    /// A query parked on an EXECUTING peer must wake when that peer's
    /// worker dies and the peer goes back to WAITING: the requeue arm of
    /// `on_worker_panic` has to notify the shard's `done_cv` like `answer`
    /// does. With the restart budget spent the waiter is the last worker,
    /// so nothing else would ever wake it.
    #[test]
    fn blocked_waiter_wakes_when_its_producer_is_requeued() {
        let (s, gate) = stalling(
            ServerConfig::new(EngineConfig::small().with_threads(2).with_restart_budget(0)),
            Released::Panic,
        );
        let spec = q(0, 0, 96, 96, 2, VmOp::Subsample);
        let first = s.submit(spec);
        gate.wait_entered();
        let second = s.submit(spec);
        wait_until_blocked(&s, second.id);
        gate.release();
        // The waiter finds its peer WAITING and computes for itself; the
        // requeued query then runs on the one worker left.
        let give_up = clock::now() + Duration::from_secs(5);
        for h in [second, first] {
            let res = loop {
                match h.try_wait() {
                    Some(res) => break res.unwrap(),
                    None if clock::now() >= give_up => panic!("query {} never woke", h.id),
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            assert_eq!(*res.image, reference_render(&spec).data);
        }
        let sum = s.summary();
        assert_eq!((sum.completed, sum.failed), (2, 0));
        assert_eq!((sum.tally.worker_panics, sum.tally.worker_restarts), (1, 0));
        s.check_invariants();
        s.shutdown();
    }

    #[test]
    fn deadline_is_anchored_at_submit_so_queue_wait_counts() {
        // Documented semantics (crates/server/src/pages.rs): the deadline
        // budget starts at submission, so a query that spends it all in
        // the admission queue is cancelled without doing any I/O.
        let s = server(
            ServerConfig::new(
                EngineConfig::small()
                    .with_threads(1)
                    .with_start_paused(true),
            )
            .with_query_timeout(Some(Duration::from_millis(40))),
        );
        let h = s.submit(q(0, 0, 256, 256, 1, VmOp::Average));
        std::thread::sleep(Duration::from_millis(80));
        s.resume_workers();
        match h.wait() {
            Err(ServerError::Timeout { limit }) => {
                assert_eq!(limit, Duration::from_millis(40));
            }
            other => panic!("queue wait must consume the deadline, got {other:?}"),
        }
        let sum = s.summary();
        assert_eq!((sum.timed_out, sum.completed), (1, 0));
        // Quiescent: nothing per-query may be left behind.
        s.drain();
        s.check_invariants();
        s.shutdown();
    }

    /// Unique per-test spill directory without wall-clock or RNG (banned
    /// by the workspace lints): process id + an atomic counter.
    fn spill_tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vmqs-engine-{}-{tag}-{n}", std::process::id()))
    }

    /// A tier-1 budget that holds exactly one 128×128 RGB result (49 152
    /// bytes), so the second insert always demotes the first, plus a
    /// roomy tier-2 — the minimal spill-pressure configuration.
    /// One worker, a cost-based store of about one 128² tile and a
    /// roomy tier 2.
    fn spill_engine() -> EngineConfig {
        EngineConfig::small()
            .with_threads(1)
            .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased)
            .with_ds_budget(50_000)
            .with_tier2_budget(1 << 20)
    }

    /// `engine` spilling to a fresh directory named after `tag`.
    fn spill_cfg(tag: &str, engine: EngineConfig) -> (ServerConfig, std::path::PathBuf) {
        let dir = spill_tmpdir(tag);
        let cfg = ServerConfig::new(engine).with_spill_dir(Some(dir.clone()));
        (cfg, dir)
    }

    /// Samples in `vmqs_tier2_write_seconds` / `vmqs_tier2_read_seconds`.
    fn tier2_io_samples(m: &MetricsSnapshot) -> (u64, u64) {
        let count = |name: &str| m.histograms[name].count;
        (
            count("vmqs_tier2_write_seconds"),
            count("vmqs_tier2_read_seconds"),
        )
    }

    /// Entries whose tier-2 frame has landed, FULL or RESTORABLE: at
    /// quiescence, exactly the frames in the spill directory.
    fn landed_frames(s: &QueryServer) -> u64 {
        let ds = s.core.store.read();
        ds.entries().filter(|e| e.frame == Frame::Landed).count() as u64
    }

    /// `(frames, staging files)` in a spill directory.
    fn spill_files(dir: &std::path::Path) -> (u64, u64) {
        let mut n = (0, 0);
        for e in std::fs::read_dir(dir).unwrap() {
            match e.unwrap().path().extension().and_then(|x| x.to_str()) {
                Some("spill") => n.0 += 1,
                Some("tmp") => n.1 += 1,
                _ => {}
            }
        }
        n
    }

    #[test]
    fn spilled_entry_restores_as_exact_hit() {
        let (cfg, dir) = spill_cfg("restore", spill_engine().with_observe(true));
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        s.submit(a).wait().unwrap();
        s.submit(b).wait().unwrap();
        assert!(
            s.summary().tally.spilled >= 1,
            "making room for b must demote a to tier 2, not drop it"
        );
        let res = s.submit(a).wait().unwrap();
        // Re-heated from disk: an exact hit that read no pages.
        assert_eq!(res.record.path, AnswerPath::ExactHit);
        assert_eq!(res.record.pages_requested, 0);
        assert_eq!(res.record.covered_fraction, 1.0);
        assert_eq!(*res.image, reference_render(&a).data);
        let sum = s.summary();
        assert_eq!(sum.tally.restored, 1);
        assert_eq!(s.ds_stats().restore_failures, 0);
        let ev = s.events();
        assert!(ev
            .iter()
            .any(|e| matches!(e.kind, EventKind::Spilled { bytes } if bytes == 49_152)));
        assert!(ev
            .iter()
            .any(|e| matches!(e.kind, EventKind::Restored { bytes } if bytes == 49_152)));
        let m = s.metrics();
        assert!(m.gauges["vmqs_ds_tier2_used_bytes"] > 0.0);
        // Tier-2 I/O time belongs to no `QueryRecord` (a spill runs after
        // `finished`), so it is a metric: one sample per frame attempt.
        // Restoring `a` demoted `b`; the exact hit's own copy would be a
        // twin of the restored `a`, which the cost-based store refuses, so
        // `a` stays in tier 1. Two demotions, two writes.
        assert_eq!(sum.tally.spilled, 2);
        let ds = s.ds_stats();
        assert_eq!(ds.unprofitable, 1, "the twin was refused");
        for (name, v) in ds.series() {
            assert_eq!(m.counters[name], v, "the export is the store's {name}");
        }
        // Two computes and the restore made an entry visible; the refused
        // twin did not.
        assert_eq!(s.core.publish_epoch.load(Ordering::SeqCst), 3);
        assert_eq!(
            tier2_io_samples(&m),
            (landed_frames(&s), sum.tally.restored)
        );
        assert_eq!(landed_frames(&s), 2);
        for export in [m.to_json(), m.to_prometheus()] {
            assert!(export.contains("vmqs_tier2_write_seconds"), "{export}");
            assert!(export.contains("vmqs_tier2_read_seconds"), "{export}");
        }
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn poisoned_tier2_read_falls_back_to_recompute() {
        use vmqs_storage::FaultConfig;
        let (cfg, dir) = spill_cfg("poison", spill_engine());
        // Every tier-2 read fails: the restore path must drop the entry
        // through the typed-error fallback and recompute — never panic.
        let s = server(cfg.with_spill_faults(FaultConfig::none().with_permanent(1.0)));
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        s.submit(a).wait().unwrap();
        s.submit(b).wait().unwrap();
        assert!(s.summary().tally.spilled >= 1);
        let res = s.submit(a).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::FullCompute);
        assert_eq!(*res.image, reference_render(&a).data);
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (0, 1));
        // The failed read was timed all the same.
        assert_eq!(
            tier2_io_samples(&s.metrics()),
            (
                sum.tally.spilled,
                sum.tally.restored + s.ds_stats().restore_failures
            )
        );
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Demoted, restored and demoted again, a blob is written once. At one
    /// worker with a one-tile tier 1, `a, b, a, b` demotes A, then B (to
    /// restore A) and A again (to restore B): three demotions of two
    /// blobs, two frame writes. The exact hits' own copies are twins of
    /// the restored entries, which the cost-based store refuses.
    #[test]
    fn one_write_per_blob_in_the_server() {
        let (cfg, dir) = spill_cfg("once", spill_engine());
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        for spec in [a, b, a, b] {
            let res = s.submit(spec).wait().unwrap();
            assert_eq!(*res.image, reference_render(&spec).data);
        }
        let sum = s.summary();
        assert_eq!((sum.tally.spilled, sum.tally.restored), (3, 2));
        assert_eq!(s.ds_stats().unprofitable, 2, "both twins were refused");
        let (writes, reads) = tier2_io_samples(&s.metrics());
        assert_eq!(writes, landed_frames(&s), "one write per blob demoted");
        assert_eq!((writes, reads), (2, 2));
        assert_eq!(spill_files(&dir), (2, 0));
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    // ----- a restore's three steps, driven one at a time -----

    /// Caches `spec`'s reference answer for `producer` at recompute cost
    /// `cost`, as `run_one` publishes a compute: insert, then the frames
    /// its demotions ask for. `producer` is in no scheduling graph.
    fn publish<A: AppExecutor<Spec = VmQuery>>(
        s: &QueryServer<A>,
        producer: u64,
        spec: VmQuery,
        cost: f64,
    ) {
        let core = &s.core;
        let mut evicted = Vec::new();
        let spills = {
            let mut ds = core.store.write();
            let bytes = Payload::Bytes(reference_render(&spec).data.into());
            let size = core.app.output_len(&spec) as u64;
            ds.insert_costed(QueryId(producer), spec, size, cost, bytes, &mut evicted)
                .unwrap();
            ds.take_pending_spills()
        };
        let spilled = write_frames(core, spills, &mut evicted);
        route_evictions(core, evicted);
        emit_spills(core, spilled);
    }

    /// A RESTORABLE `a` whose frame has landed, demoted by `b`.
    fn restorable_a(s: &QueryServer, a: VmQuery, a_cost: f64) -> Restorable {
        publish(s, 1001, a, a_cost);
        publish(s, 1002, q(200, 200, 128, 128, 1, VmOp::Subsample), 1.0);
        let found = probe_restorable(&s.core, &a).expect("a is RESTORABLE");
        assert!(found.attached.is_none(), "a's frame has landed");
        found
    }

    fn evictions_of(s: &QueryServer, producer: u64) -> usize {
        let ev = s.events();
        let of = |e: &&EventRecord| e.query == QueryId(producer);
        let evicted = |e: &&EventRecord| matches!(e.kind, EventKind::Evicted { .. });
        ev.iter().filter(of).filter(evicted).count()
    }

    /// Between the off-lock read and the promotion, a tier-2 shrink drops
    /// the blob and unlinks its frame. The read's bytes still answer the
    /// query; the drop was the shrink's, so it is no restore failure and
    /// the blob has one eviction record.
    #[test]
    fn restore_racing_a_tier2_drop_answers_from_the_bytes_it_read() {
        let engine = spill_engine().with_tier2_budget(49_152).with_observe(true);
        let (cfg, dir) = spill_cfg("race-drop", engine);
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        // The cheapest entry, so the shrink picks it.
        let found = restorable_a(&s, a, 1e-6);
        let frame = dir.join(format!("blob-{}.spill", found.blob.raw()));
        let read = read_restorable(&s.core, s.core.spill.as_ref().unwrap(), &found);
        assert!(read.is_ok());
        // `c` demotes `b`, and tier 2 overflows onto `a`.
        publish(&s, 1003, q(400, 0, 128, 128, 1, VmOp::Subsample), 1.0);
        assert!(
            s.core.store.read().get(found.blob).is_none(),
            "a was dropped"
        );
        assert!(!frame.exists(), "a's frame was unlinked");
        let bytes = promote_restorable(&s.core, QueryId(1), found, read).expect("answered");
        assert_eq!(*bytes, reference_render(&a).data);
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (0, 0));
        assert_eq!(s.core.store.read().stats().evicted, 1);
        assert_eq!(evictions_of(&s, 1001), 1);
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Between the probe and the read, a tier-2 shrink drops the blob and
    /// unlinks its frame. The read finds no frame, and the query
    /// recomputes; the drop was the shrink's, so it is no restore failure.
    #[test]
    fn restore_reading_after_a_tier2_drop_is_no_restore_failure() {
        let engine = spill_engine().with_tier2_budget(49_152).with_observe(true);
        let (cfg, dir) = spill_cfg("race-drop-first", engine);
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let found = restorable_a(&s, a, 1e-6);
        publish(&s, 1003, q(400, 0, 128, 128, 1, VmOp::Subsample), 1.0);
        assert!(
            s.core.store.read().get(found.blob).is_none(),
            "a was dropped"
        );
        let read = read_restorable(&s.core, s.core.spill.as_ref().unwrap(), &found);
        assert_eq!(
            read.as_ref().unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        assert!(promote_restorable(&s.core, QueryId(1), found, read).is_none());
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (0, 0));
        assert_eq!(evictions_of(&s, 1001), 1);
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Two restorers probe and read one blob; the first promotion wins and
    /// the second answers from the bytes it read.
    #[test]
    fn two_restorers_of_one_blob_promote_it_once() {
        let (cfg, dir) = spill_cfg("race-peer", spill_engine().with_observe(true));
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let first = restorable_a(&s, a, 1.0);
        let second = probe_restorable(&s.core, &a).expect("still RESTORABLE");
        let spill = s.core.spill.as_ref().unwrap();
        let (r1, r2) = (
            read_restorable(&s.core, spill, &first),
            read_restorable(&s.core, spill, &second),
        );
        let want = reference_render(&a).data;
        for (found, read, id) in [(first, r1, 1), (second, r2, 2)] {
            let bytes = promote_restorable(&s.core, QueryId(id), found, read);
            assert_eq!(*bytes.expect("answered"), want, "restorer {id}");
        }
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (1, 0));
        let restored = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Restored { .. }))
            .count();
        assert_eq!(restored, 1);
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A frame that fails its CRC on a live entry: the read fails outside
    /// the lock, the entry is still RESTORABLE at the promotion, so it is
    /// dropped, counted, and its frame unlinked.
    #[test]
    fn poisoned_frame_of_a_live_entry_is_dropped_after_an_off_lock_read() {
        let (cfg, dir) = spill_cfg("race-poison", spill_engine().with_observe(true));
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let found = restorable_a(&s, a, 1.0);
        let frame = dir.join(format!("blob-{}.spill", found.blob.raw()));
        let mut bytes = std::fs::read(&frame).unwrap();
        bytes[100] ^= 0x10;
        std::fs::write(&frame, bytes).unwrap();
        let blob = found.blob;
        let read = read_restorable(&s.core, s.core.spill.as_ref().unwrap(), &found);
        assert!(read.is_err());
        assert!(promote_restorable(&s.core, QueryId(1), found, read).is_none());
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (0, 1));
        assert!(s.core.store.read().get(blob).is_none());
        assert!(!frame.exists(), "the dropper unlinked the frame");
        assert_eq!(evictions_of(&s, 1001), 1);
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Two restorers probe and read one poisoned frame. The first promotion
    /// drops the entry; the second finds it gone. Both reads failed and
    /// both queries recompute, so both count as restore failures: one per
    /// failed frame read, whichever of them got to drop the entry.
    #[test]
    fn two_restorers_of_one_poisoned_frame_count_two_failures() {
        let (cfg, dir) = spill_cfg("race-poison-peer", spill_engine().with_observe(true));
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let first = restorable_a(&s, a, 1.0);
        let second = probe_restorable(&s.core, &a).expect("still RESTORABLE");
        let frame = dir.join(format!("blob-{}.spill", first.blob.raw()));
        let mut bytes = std::fs::read(&frame).unwrap();
        bytes[100] ^= 0x10;
        std::fs::write(&frame, bytes).unwrap();
        let spill = s.core.spill.as_ref().unwrap();
        let (r1, r2) = (
            read_restorable(&s.core, spill, &first),
            read_restorable(&s.core, spill, &second),
        );
        assert!(r1.is_err() && r2.is_err());
        for (found, read, id) in [(first, r1, 1), (second, r2, 2)] {
            assert!(promote_restorable(&s.core, QueryId(id), found, read).is_none());
        }
        let sum = s.summary();
        let (_, frame_reads) = tier2_io_samples(&s.metrics());
        assert_eq!(frame_reads, 2);
        assert_eq!(
            (sum.tally.restored, s.ds_stats().restore_failures),
            (0, frame_reads)
        );
        assert_eq!(evictions_of(&s, 1001), 1, "one drop");
        assert!(!frame.exists(), "the dropper unlinked the frame");
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_frames_are_cleaned_up_as_entries_leave_tier2() {
        let (cfg, dir) = spill_cfg("hygiene", spill_engine());
        let s = server(cfg);
        // Cycle enough distinct queries that entries spill; every frame
        // on disk must belong to a live entry whose frame landed.
        for i in 0..4u32 {
            s.submit(q(i * 130, 0, 128, 128, 1, VmOp::Subsample))
                .wait()
                .unwrap();
        }
        let (frames, _) = spill_files(&dir);
        let tier2_used = s.core.store.read().tier2_used();
        assert!(tier2_used > 0, "pressure must have demoted something");
        assert_eq!(frames * 49_152, tier2_used, "nothing restored yet");
        assert_eq!(frames, landed_frames(&s), "one frame per blob, no orphans");
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Frames are written after the store lock and land later, so a blob
    /// can spill, re-heat from the bytes it kept and spill again before
    /// its one frame lands, or leave the store while it is written.
    /// However they interleave, every answer is byte-exact, no restore
    /// finds its frame missing, and at quiescence the directory holds
    /// exactly one frame per entry whose frame landed: no frame outlives
    /// its entry. (A restore from attached bytes must fall inside a blob's
    /// one write, which only some runs hit; the store's unit tests and the
    /// loom model pin that path.)
    #[test]
    fn spill_frames_match_tier2_under_concurrency() {
        let hot: Vec<VmQuery> = (0..6u32)
            .map(|i| q(i % 3 * 150, i / 3 * 150, 128, 128, 1, VmOp::Subsample))
            .collect();
        let want: Vec<Vec<u8>> = hot.iter().map(|s| reference_render(s).data).collect();
        for round in 0..20 {
            // Two tiles in tier 1, four in tier 2: six hot tiles keep
            // every entry moving between the two.
            let engine = spill_engine()
                .with_threads(8)
                .with_ds_budget(2 * 49_152)
                .with_tier2_budget(4 * 49_152);
            let (cfg, dir) = spill_cfg("concurrent", engine);
            let s = server(cfg);
            for pass in 0..8 {
                let order: Vec<usize> = (0..12).map(|i| (i * 5 + pass + round) % 6).collect();
                let handles = s.submit_batch(order.iter().map(|&i| hot[i]));
                for (h, &i) in handles.into_iter().zip(&order) {
                    let res = h.wait().unwrap();
                    assert_eq!(*res.image, want[i], "round {round}: tile {i} diverged");
                }
            }
            assert_eq!(
                s.ds_stats().restore_failures,
                0,
                "round {round}: a frame went missing"
            );
            s.check_invariants();
            let (frames, tmps) = spill_files(&dir);
            assert_eq!(
                frames,
                landed_frames(&s),
                "round {round}: frames vs landed entries"
            );
            assert_eq!(tmps, 0, "round {round}: a staging file was left behind");
            s.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn legacy_lru_policy_with_spill_also_demotes() {
        // Spilling is orthogonal to the scoring policy: LRU victims are
        // demoted too once a tier-2 store is configured, so the legacy
        // policy keeps its victim choice but stops losing data.
        let engine = spill_engine().with_cache_policy(vmqs_datastore::EvictionPolicy::Lru);
        let (cfg, dir) = spill_cfg("lru", engine);
        let s = server(cfg);
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        s.submit(a).wait().unwrap();
        s.submit(q(200, 200, 128, 128, 1, VmOp::Subsample))
            .wait()
            .unwrap();
        let res = s.submit(a).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::ExactHit);
        assert_eq!(*res.image, reference_render(&a).data);
        assert_eq!(s.summary().tally.restored, 1);
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    // ----- failure containment (DESIGN.md §15) -----

    use vmqs_storage::ChaosConfig;

    /// Regression for the old join-time `assert_eq!(panicked, 0)`: a
    /// forced compute panic must kill only its worker, requeue the query
    /// (the ordinal trigger does not re-fire on retry), respawn a
    /// replacement, and still deliver a complete `ServerSummary`.
    #[test]
    fn forced_panic_still_yields_complete_summary() {
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(2)
                .with_observe(true)
                .with_chaos(ChaosConfig::none().with_panic_at_compute(Some(0))),
        ));
        let specs: Vec<_> = (0..4u32)
            .map(|i| q(i * 130, 0, 96, 96, 1, VmOp::Subsample))
            .collect();
        let handles: Vec<_> = specs.iter().map(|&sp| s.submit(sp)).collect();
        for (h, sp) in handles.into_iter().zip(&specs) {
            let res = h.wait().unwrap();
            assert_eq!(*res.image, reference_render(sp).data, "query {sp:?}");
        }
        let sum = s.summary();
        assert_eq!(sum.completed, 4, "the panicked query was requeued and ran");
        assert_eq!(sum.failed, 0);
        assert_eq!(sum.tally.worker_panics, 1);
        assert_eq!(sum.tally.worker_restarts, 1);
        assert_eq!(sum.tally.quarantined, 0);
        assert_eq!(
            s.graph_stats().requeued,
            1,
            "the panicked query went back to WAITING"
        );
        let ev = s.events();
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e.kind, EventKind::WorkerPanicked))
                .count(),
            1
        );
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e.kind, EventKind::WorkerRestarted))
                .count(),
            1
        );
        let m = s.metrics();
        assert_eq!(m.counters["vmqs_worker_panics_total"], 1);
        assert_eq!(m.counters["vmqs_worker_restarts_total"], 1);
        s.check_invariants();
        s.shutdown();
    }

    /// Finds a chaos seed under which, of the first `n` query ids, exactly
    /// the ids in `want` draw poison. Pure search over the deterministic
    /// per-query hash — no RNG state, so the test is reproducible.
    fn seed_with_poison(rate: f64, n: u64, want: &[u64]) -> u64 {
        'seed: for seed in 0..20_000u64 {
            let c = ChaosConfig::none().with_seed(seed).with_poison_rate(rate);
            for id in 0..n {
                if c.query_is_poison(id) != want.contains(&id) {
                    continue 'seed;
                }
            }
            return seed;
        }
        panic!("no seed draws poison exactly on {want:?} within the search bound");
    }

    /// A deterministic poison query panics every worker that picks it up;
    /// the quarantine rule must fail it typed-ly after `quarantine_limit`
    /// kills instead of crash-looping the pool, and peers are undisturbed.
    #[test]
    fn poison_query_is_quarantined_and_peers_survive() {
        let seed = seed_with_poison(0.05, 4, &[2]);
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(2)
                .with_observe(true)
                .with_quarantine_limit(3)
                .with_chaos(ChaosConfig::none().with_seed(seed).with_poison_rate(0.05)),
        ));
        let specs: Vec<_> = (0..4u32)
            .map(|i| q(i * 130, 0, 96, 96, 1, VmOp::Subsample))
            .collect();
        let handles: Vec<_> = specs.iter().map(|&sp| s.submit(sp)).collect();
        let mut quarantined = 0;
        for (i, (h, sp)) in handles.into_iter().zip(&specs).enumerate() {
            match h.wait() {
                Ok(res) => {
                    assert_eq!(*res.image, reference_render(sp).data, "query {sp:?}");
                }
                Err(ServerError::Quarantined { attempts }) => {
                    assert_eq!(i, 2, "only the poison id may be quarantined");
                    assert_eq!(attempts, 3);
                    quarantined += 1;
                }
                Err(other) => panic!("unexpected failure: {other}"),
            }
        }
        assert_eq!(quarantined, 1);
        let sum = s.summary();
        assert_eq!(
            (sum.completed, sum.failed, sum.tally.quarantined),
            (3, 1, 1)
        );
        assert_eq!(sum.tally.worker_panics, 3, "three kills before quarantine");
        assert_eq!(sum.tally.worker_restarts, 3);
        let ev = s.events();
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e.kind, EventKind::Quarantined { attempts: 3 }))
                .count(),
            1
        );
        // Quiescent: nothing per-query may be left behind.
        s.drain();
        s.check_invariants();
        s.shutdown();
    }

    /// With the restart budget exhausted the pool dies: every waiting
    /// query resolves with a typed `WorkerPanicked`, later submissions
    /// are refused immediately, and shutdown still completes.
    #[test]
    fn restart_budget_exhaustion_fails_waiting_queries_typed() {
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(1)
                .with_start_paused(true)
                .with_restart_budget(0)
                .with_chaos(ChaosConfig::none().with_panic_at_compute(Some(0))),
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|i| s.submit(q(i * 130, 0, 96, 96, 1, VmOp::Subsample)))
            .collect();
        s.resume_workers();
        for h in handles {
            match h.wait() {
                Err(ServerError::WorkerPanicked) => {}
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        // The pool is dead: a fresh submission is refused synchronously.
        let late = s.submit(q(0, 300, 64, 64, 1, VmOp::Subsample));
        match late.try_wait() {
            Some(Err(ServerError::WorkerPanicked)) => {}
            other => panic!("expected immediate refusal, got {other:?}"),
        }
        let sum = s.summary();
        assert_eq!((sum.completed, sum.failed), (0, 5));
        assert_eq!((sum.tally.worker_panics, sum.tally.worker_restarts), (1, 0));
        // Quiescent: nothing per-query may be left behind.
        s.drain();
        s.check_invariants();
        s.shutdown();
    }

    /// A query stuck past `hang_timeout` is cancelled by the watchdog
    /// through the existing deadline machinery and reported as `Hung` —
    /// while later queries on the same server are unaffected. The stall
    /// is an executor gate held well past the hang limit; once released,
    /// the query's first page read observes the expired watchdog
    /// deadline and cancels.
    #[test]
    fn hang_watchdog_cancels_stuck_query_and_spares_successors() {
        let (s, gate) = stalling(
            ServerConfig::new(
                EngineConfig::small()
                    .with_threads(1)
                    .with_observe(true)
                    .with_hang_timeout(Some(Duration::from_millis(40))),
            ),
            Released::Compute,
        );
        let spec = q(0, 0, 128, 128, 2, VmOp::Subsample);
        let stuck = s.submit(spec);
        gate.wait_entered();
        // Hold the query stalled past its watchdog limit, then let go.
        std::thread::sleep(Duration::from_millis(80));
        gate.release();
        match stuck.wait() {
            Err(ServerError::Hung { limit }) => {
                assert_eq!(limit, Duration::from_millis(40));
            }
            other => panic!("expected Hung, got {other:?}"),
        }
        // The watchdog cancelled one query, not the server: a successor
        // (the gate only stalls the first call) completes byte-exact.
        let next = q(200, 200, 64, 64, 1, VmOp::Average);
        assert_eq!(
            *s.submit(next).wait().unwrap().image,
            reference_render(&next).data
        );
        let sum = s.summary();
        assert_eq!((sum.completed, sum.tally.hung), (1, 1));
        assert_eq!(
            sum.timed_out, 1,
            "hang cancellations fold into timeout accounting"
        );
        assert!(s.events().iter().any(|e| matches!(e.kind, EventKind::Hung)));
        assert_eq!(s.metrics().counters["vmqs_queries_hung_total"], 1);
        // Quiescent: nothing per-query may be left behind.
        s.drain();
        s.check_invariants();
        s.shutdown();
    }

    /// Crash-consistent recovery: frames spilled by one server instance
    /// are adopted by the next one on the same directory and restore as
    /// byte-exact hits without touching the page space. `a` is either
    /// RESTORABLE at shutdown, or restored and FULL with its frame kept:
    /// with two tiles in tier 1 under LRU, restoring `a` demotes `b` and
    /// the hit's own copy of `a` demotes `c`.
    #[test]
    fn recovered_spill_frames_survive_server_restart() {
        use vmqs_datastore::{EvictionPolicy, Phase};
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        let c = q(400, 0, 128, 128, 1, VmOp::Subsample);
        let cases = [
            (Phase::Restorable, &[a, b][..]),
            (Phase::Full, &[a, b, c, a][..]),
        ];
        for (phase, warm) in cases {
            let engine = match phase {
                Phase::Full => spill_engine()
                    .with_ds_budget(2 * 50_000)
                    .with_cache_policy(EvictionPolicy::Lru),
                _ => spill_engine(),
            };
            let (cfg, dir) = spill_cfg("recover", engine);
            {
                let s = server(cfg.clone());
                for &spec in warm {
                    s.submit(spec).wait().unwrap();
                }
                assert!(s.summary().tally.spilled >= 1, "a must be demoted to disk");
                let kept = {
                    let ds = s.core.store.read();
                    let restorable = ds.lookup_restorable_exact(&a).map(|m| m.0);
                    let blob = ds.equivalent(&a).or(restorable);
                    blob.and_then(|blob| ds.get(blob))
                        .map(|e| (e.phase(), e.frame))
                };
                assert_eq!(kept, Some((phase, Frame::Landed)));
                s.shutdown();
            }
            // A fresh server on the same directory adopts the surviving
            // frames.
            let s = server(cfg);
            assert!(s.ds_stats().adopted >= 1, "recovery must adopt the frame");
            let res = s.submit(a).wait().unwrap();
            assert_eq!(res.record.path, AnswerPath::ExactHit, "{phase:?}");
            assert_eq!(res.record.pages_requested, 0);
            assert_eq!(*res.image, reference_render(&a).data);
            assert_eq!(s.summary().tally.restored, 1);
            s.check_invariants();
            s.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Satellite: a crash mid-spill leaves a torn `.tmp` staging file;
    /// the next startup's `recover()` deletes it, and every byte left in
    /// the directory is accounted to a live tier-2 resident.
    #[test]
    fn crash_mid_spill_is_cleaned_and_directory_byte_accounted() {
        let (cfg, dir) = spill_cfg("crash", spill_engine());
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        {
            // The first spill write crashes halfway through staging.
            let s = server(ServerConfig {
                engine: cfg
                    .engine
                    .with_chaos(ChaosConfig::none().with_crash_spill_write(Some(0))),
                ..cfg.clone()
            });
            s.submit(a).wait().unwrap();
            s.submit(b).wait().unwrap();
            // The demotion whose write crashed was dropped, not spilled.
            let spills = s.metrics().counters["vmqs_ds_spills_total"];
            assert_eq!(s.summary().tally.spilled, spills);
            s.shutdown();
        }
        let tmps = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(tmps, 1, "the torn staging file survives the crash");
        // Restart without chaos: recovery removes the torn file and the
        // spill tier works normally again.
        let s = server(cfg);
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            leftover.is_empty(),
            "torn/orphaned files must be deleted, found {leftover:?}"
        );
        s.submit(a).wait().unwrap();
        s.submit(b).wait().unwrap();
        assert!(
            s.summary().tally.spilled >= 1,
            "spilling works after recovery"
        );
        let (frames, _) = spill_files(&dir);
        assert_eq!(frames * 49_152, s.core.store.read().tier2_used());
        assert_eq!(frames, landed_frames(&s));
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A bit-flipped frame fails its CRC on restore and routes through
    /// the poisoned-read fallback: the entry is dropped and the query
    /// recomputes — a torn read never reaches a consumer.
    #[test]
    fn bit_flipped_frame_falls_back_to_recompute() {
        let (cfg, dir) = spill_cfg("flip", spill_engine());
        let s = server(ServerConfig {
            engine: cfg
                .engine
                .with_chaos(ChaosConfig::none().with_bit_flip_frame(Some(0))),
            ..cfg
        });
        let a = q(0, 0, 128, 128, 1, VmOp::Subsample);
        let b = q(200, 200, 128, 128, 1, VmOp::Subsample);
        s.submit(a).wait().unwrap();
        s.submit(b).wait().unwrap();
        assert!(s.summary().tally.spilled >= 1);
        let res = s.submit(a).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::FullCompute);
        assert_eq!(*res.image, reference_render(&a).data);
        let sum = s.summary();
        assert_eq!((sum.tally.restored, s.ds_stats().restore_failures), (0, 1));
        s.check_invariants();
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The acceptance sweep at 8 workers: poison queries are quarantined,
    /// every survivor is byte-exact, the conservation invariant holds
    /// (submitted == completed + failed + timed_out + shed + rejected),
    /// and the pool is still alive afterwards.
    #[test]
    fn chaos_sweep_eight_workers_conserves_and_survivors_are_exact() {
        let poison: Vec<u64> = vec![5, 17];
        let seed = seed_with_poison(0.08, 32, &poison);
        let s = server(ServerConfig::new(
            EngineConfig::small()
                .with_threads(8)
                .with_observe(true)
                .with_quarantine_limit(2)
                .with_restart_budget(8)
                .with_chaos(ChaosConfig::none().with_seed(seed).with_poison_rate(0.08)),
        ));
        // 32 disjoint 64x64 tiles on a 6x6 grid: no reuse between them,
        // so every query computes and every poison id actually panics.
        let specs: Vec<_> = (0..32u32)
            .map(|i| q((i % 6) * 100, (i / 6) * 100, 64, 64, 1, VmOp::Subsample))
            .collect();
        let handles: Vec<_> = specs.iter().map(|&sp| s.submit(sp)).collect();
        let submitted = handles.len();
        let mut quarantined_ids = Vec::new();
        for (i, (h, sp)) in handles.into_iter().zip(&specs).enumerate() {
            match h.wait() {
                Ok(res) => {
                    assert_eq!(
                        *res.image,
                        reference_render(sp).data,
                        "survivor {i} must be byte-exact"
                    );
                }
                Err(ServerError::Quarantined { .. }) => quarantined_ids.push(i as u64),
                Err(other) => panic!("unexpected failure for query {i}: {other}"),
            }
        }
        assert_eq!(quarantined_ids, poison, "exactly the poison ids fail");
        let sum = s.summary();
        assert_eq!(
            submitted,
            sum.completed + sum.failed + sum.timed_out + sum.shed + sum.rejected,
            "conservation invariant"
        );
        assert_eq!(
            (sum.completed, sum.failed, sum.tally.quarantined),
            (30, 2, 2)
        );
        assert_eq!(
            sum.tally.worker_panics, 4,
            "2 poison queries x quarantine_limit 2"
        );
        assert_eq!(sum.tally.worker_restarts, 4);
        // No wedge: the pool still answers after the sweep.
        let extra = q(0, 0, 32, 32, 1, VmOp::Average);
        assert_eq!(
            *s.submit(extra).wait().unwrap().image,
            reference_render(&extra).data
        );
        s.check_invariants();
        s.shutdown();
    }
}
