//! The discrete-event simulation engine.
//!
//! Drives the *same* scheduler shard ([`vmqs_core::SchedShard`]), Data
//! Store, and page-cache cores as the threaded server, but in virtual time
//! against analytic disk/CPU cost models — reproducing the paper-scale
//! experiments (24 query threads, 7.5 GB of slides, 2002-era disks)
//! deterministically in milliseconds on any machine.
//!
//! The engine is generic over a [`SimApplication`]: it plans each query
//! with [`vmqs_core::Plan`], the planner the threaded server runs, and asks
//! the application only what the plan costs. The Virtual Microscope's
//! application is its [`vmqs_microscope::VmCostModel`] (with
//! `Simulator::new` / [`run_sim`] as VM-typed conveniences); the 3-D
//! volume visualization application of the paper's §6 plugs in the same
//! way.
//!
//! Execution model per query (mirrors `vmqs-server`):
//! dequeue → optional block on an EXECUTING reuse source → Data Store
//! lookup → project cached coverage (CPU) → remainder I/O through the page
//! cache and the disk-farm queue → kernel CPU time → commit to the Data
//! Store. Queries occupy one of the `threads` slots from dequeue to
//! completion, including while blocked — exactly like a real pool thread.

use crate::app::SimApplication;
use crate::config::{ClientStream, SchedPolicy, SimConfig, SubmissionMode, TunerConfig};
use crate::disk::{DiskQueue, N_DISKS};
use crate::events::{Event, EventQueue};
use crate::report::{SimRecord, SimReport};
use std::collections::HashMap;
use vmqs_core::{
    overload, shed_victim, ClientId, IdGen, PanicOutcome, Plan, QueryId, QuerySpec, QueryState,
    RateLimiter, SchedShard, Secondary, Strategy, Supervisor, Verdict, WorkerFate,
};
use vmqs_datastore::{DataStore, EvictionRecord, Payload};
use vmqs_microscope::{VmCostModel, PAGE_SIZE};
use vmqs_obs::{EventKind, Obs, QueryMetrics, Terminal};
use vmqs_pagespace::{PageCacheCore, PageData, PageKey};
use vmqs_storage::SPILL_DEVICE;

/// The simulator's record for one admitted, unanswered query: the `R` of
/// its [`SchedShard`], which creates it at `admit` and gives it up at
/// `publish` or `retire`.
struct QInfo<S> {
    client: ClientId,
    spec: S,
    arrival: f64,
    start: f64,
    blocked_since: Option<f64>,
    blocked_total: f64,
    /// Downgraded to the cheaper plan at admission.
    degraded: bool,
    /// Graft subscription (DESIGN.md §13): the EXECUTING producer
    /// computing the same predicate. Installed at dequeue, consumed at
    /// resume. Always `None` unless `cfg.graft`.
    graft_of: Option<QueryId>,
    /// Answered by grafting.
    grafted: bool,
    /// Computed at resume time, consumed at completion:
    /// `(covered_fraction, reused_bytes, io_time, cpu_time, exact_hit)`.
    metrics: Option<(f64, u64, f64, f64, bool)>,
}

/// Hill-climbing state for the §6 self-tuning controller.
struct Tuner {
    cfg: TunerConfig,
    direction: f64,
    window_sum: f64,
    window_count: usize,
    prev_metric: Option<f64>,
    /// History of `(virtual time, parameter value)` after each adjustment.
    history: Vec<(f64, f64)>,
}

impl Tuner {
    fn new(cfg: TunerConfig) -> Self {
        Tuner {
            cfg,
            direction: 1.0,
            window_sum: 0.0,
            window_count: 0,
            prev_metric: None,
            history: Vec::new(),
        }
    }

    /// Records one completion; returns the parameter multiplier to apply
    /// when a window just closed.
    fn observe(&mut self, response_time: f64) -> Option<f64> {
        self.window_sum += response_time;
        self.window_count += 1;
        if self.window_count < self.cfg.window {
            return None;
        }
        let metric = self.window_sum / self.window_count as f64;
        self.window_sum = 0.0;
        self.window_count = 0;
        if let Some(prev) = self.prev_metric {
            if metric > prev {
                // Got worse: reverse course.
                self.direction = -self.direction;
            }
        }
        self.prev_metric = Some(metric);
        Some(if self.direction > 0.0 {
            self.cfg.step
        } else {
            1.0 / self.cfg.step
        })
    }
}

/// Applies a tuning multiplier to a parameterized strategy's continuous
/// knob; returns `None` for strategies with nothing to tune.
fn tuned_strategy(current: Strategy, factor: f64) -> Option<(Strategy, f64)> {
    match current {
        Strategy::Hybrid {
            cnbf_weight,
            sjf_weight,
        } => {
            let w = (sjf_weight * factor).clamp(1e-3, 1e3);
            Some((
                Strategy::Hybrid {
                    cnbf_weight,
                    sjf_weight: w,
                },
                w,
            ))
        }
        Strategy::ClosestFirst { alpha } => {
            let a = (alpha * factor).clamp(0.0, 1.0);
            Some((Strategy::ClosestFirst { alpha: a }, a))
        }
        _ => None,
    }
}

/// The simulator. Construct with [`Simulator::new`] (Virtual Microscope)
/// or [`Simulator::with_app`] (any [`SimApplication`]), then
/// [`Simulator::run`].
pub struct Simulator<A: SimApplication> {
    cfg: SimConfig,
    app: A,
    sched: SchedShard<A::Spec, QInfo<A::Spec>>,
    ds: DataStore<A::Spec>,
    ps: PageCacheCore,
    page_ready: HashMap<PageKey, f64>,
    disk: DiskQueue,
    events: EventQueue<A::Spec>,
    idgen: IdGen,
    busy_slots: usize,
    blocked_count: usize,
    waiters: HashMap<QueryId, Vec<QueryId>>,
    grafted: u64,
    streams: HashMap<ClientId, Vec<A::Spec>>,
    client_pos: HashMap<ClientId, usize>,
    records: Vec<SimRecord<A::Spec>>,
    makespan: f64,
    tuner: Option<Tuner>,
    policy_overrides: u64,
    recomputed_bytes: u64,
    /// Per-client token buckets for the admission rate limiter, refilled
    /// in virtual time (the threaded engine refills the same bucket code
    /// in real time).
    buckets: RateLimiter,
    /// Global compute ordinal — the chaos injector's panic-at-nth
    /// coordinate, counted exactly like the threaded engine's
    /// `Core::compute_seq` (every entry into the compute stage).
    compute_seq: u64,
    /// Restart budget, live worker slots (the pool's capacity) and the
    /// pool-dead latch: once every slot has been retired, WAITING queries
    /// are failed typed-ly and later arrivals are refused.
    sup: Supervisor,
    /// Event log + metrics registry; events stamped with *virtual* time
    /// via `log_at`, using the same schema as the threaded engine so the
    /// conformance harness can compare the two (DESIGN.md §9).
    obs: Obs,
    /// Per-run query counters, bumped by [`Simulator::emit`] and nowhere
    /// else; the report's terminal counts are read from these, not kept
    /// twice.
    qmet: QueryMetrics,
}

impl Simulator<VmCostModel> {
    /// Creates a Virtual Microscope simulator, its cost model calibrated
    /// to `cfg.disk`.
    pub fn new(cfg: SimConfig, workload: Vec<ClientStream>) -> Self {
        Simulator::with_app(cfg, VmCostModel::calibrated(&cfg.disk), workload)
    }
}

impl<A: SimApplication> Simulator<A> {
    /// Creates a simulator for any application adapter.
    pub fn with_app(cfg: SimConfig, app: A, workload: Vec<ClientStream<A::Spec>>) -> Self {
        let mut events = EventQueue::new();
        let mut streams = HashMap::new();
        let mut client_pos = HashMap::new();
        for cs in workload {
            match cfg.mode {
                SubmissionMode::Interactive => {
                    if let Some(first) = cs.queries.first() {
                        events.push(
                            0.0,
                            Event::Arrival {
                                client: cs.client,
                                spec: *first,
                                seq_in_client: 0,
                            },
                        );
                    }
                    client_pos.insert(cs.client, 0);
                }
                SubmissionMode::Batch => {
                    for (i, q) in cs.queries.iter().enumerate() {
                        events.push(
                            0.0,
                            Event::Arrival {
                                client: cs.client,
                                spec: *q,
                                seq_in_client: i,
                            },
                        );
                    }
                }
            }
            streams.insert(cs.client, cs.queries);
        }
        let obs = Obs::new(cfg.observe);
        let qmet = QueryMetrics::resolve(&obs.metrics);
        Simulator {
            app,
            sched: SchedShard::new(cfg.strategy, cfg.index_cell),
            ds: DataStore::with_policy(cfg.ds_budget, cfg.index_cell, cfg.ds_policy)
                .with_tier2(cfg.tier2_budget),
            ps: PageCacheCore::new(cfg.ps_budget, PAGE_SIZE as u64),
            page_ready: HashMap::new(),
            disk: DiskQueue::with_servers(cfg.disk, N_DISKS),
            events,
            idgen: IdGen::new(0),
            busy_slots: 0,
            blocked_count: 0,
            waiters: HashMap::new(),
            grafted: 0,
            streams,
            client_pos,
            records: Vec::new(),
            makespan: 0.0,
            tuner: cfg.tuner.map(Tuner::new),
            policy_overrides: 0,
            recomputed_bytes: 0,
            buckets: RateLimiter::default(),
            compute_seq: 0,
            sup: Supervisor::new(cfg.threads, cfg.restart_budget),
            obs,
            qmet,
            cfg,
        }
    }

    /// Disables Page Space run merging (ablation knob).
    pub fn set_ps_merging(&mut self, enabled: bool) {
        self.ps.set_merging(enabled);
    }

    /// Times the I/O-aware policy overrode the rank order.
    pub fn policy_overrides(&self) -> u64 {
        self.policy_overrides
    }

    /// The self-tuner's parameter trajectory (`(virtual time, value)`
    /// pairs), empty when tuning is off.
    pub fn tuner_history(&self) -> &[(f64, f64)] {
        self.tuner
            .as_ref()
            .map(|t| t.history.as_slice())
            .unwrap_or(&[])
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport<A::Spec> {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival { client, spec, .. } => {
                    // Batch-start gate: while more arrivals are pending at
                    // this same instant, only insert — the first dequeue
                    // happens once the whole batch is in the graph, just
                    // like a paused threaded pool being resumed.
                    let defer = self.cfg.gate_batch_start
                        && matches!(
                            self.events.peek(),
                            Some((t, Event::Arrival { .. })) if t == now
                        );
                    self.on_arrival(now, client, spec, defer)
                }
                Event::Resume { id } => self.on_resume(now, id),
                Event::Completion { id } => self.on_completion(now, id),
                Event::HangDeadline { id } => self.on_hang_deadline(now, id),
            }
        }
        let ds_stats = self.ds.stats();
        let ps_stats = self.ps.stats();
        let reg = &self.obs.metrics;
        reg.set_gauge("vmqs_ds_hit_ratio", ds_stats.hit_ratio());
        reg.set_gauge("vmqs_ps_merge_ratio", ps_stats.merge_ratio());
        let mut metrics = reg.snapshot();
        metrics
            .counters
            .extend(ps_stats.series().map(|(name, v)| (name.to_string(), v)));
        SimReport {
            records: self.records,
            makespan: self.makespan,
            ds_stats,
            ps_stats,
            graph_stats: self.sched.graph().stats(),
            disk_stats: self.disk.stats(),
            events: self.obs.log.snapshot(),
            metrics,
            rejected: self.qmet.rejected.get(),
            shed: self.qmet.shed.get(),
            degraded: self.qmet.degraded.get(),
            grafted: self.grafted,
            spilled: self.qmet.ds_spills.get(),
            restored: self.qmet.ds_restores.get(),
            restore_failures: ds_stats.restore_failures,
            recomputed_bytes: self.recomputed_bytes,
            failed: self.qmet.failed.get(),
            timed_out: self.qmet.timed_out.get(),
            worker_panics: self.qmet.worker_panics.get(),
            worker_restarts: self.qmet.worker_restarts.get(),
            quarantined: self.qmet.quarantined.get(),
            hung: self.qmet.hung.get(),
        }
    }

    /// The engine's one way to say something happened: bumps the counter
    /// the event stands for ([`QueryMetrics::count`]) and logs it at
    /// virtual time `now`.
    fn emit(&mut self, now: f64, id: QueryId, kind: EventKind) {
        self.qmet.count(&kind);
        self.obs.log.log_at(now, id, kind);
    }

    /// The driver's half of a query's end (a rejection, or an exit the
    /// shard made: `retire`, `on_panic`, `drain`): emits the events it
    /// implies, in [`Terminal`]'s order, and lets the client move on.
    fn end(&mut self, now: f64, id: QueryId, how: Terminal, client: ClientId) {
        how.events().for_each(|kind| self.emit(now, id, kind));
        self.advance_client(now, client);
    }

    /// Runs the admission ladder — [`vmqs_core::overload::admit`], the
    /// function `QueryServer::submit_from` calls too — in virtual time.
    /// Events come out in the canonical order (Submitted, [Degraded |
    /// Rejected], then Shed per victim) the conformance harness pins
    /// across engines.
    fn on_arrival(&mut self, now: f64, client: ClientId, spec: A::Spec, defer_start: bool) {
        // The id is assigned before the admission decision, exactly like
        // the threaded engine — a rejected query still consumes an id, so
        // id sequences stay comparable across engines.
        let id = self.idgen.next_query();
        self.emit(now, id, EventKind::Submitted);
        // A dead pool refuses synchronously: the query is acknowledged
        // (Submitted) and immediately failed.
        if self.sup.pool_dead() {
            return self.end(now, id, Terminal::PoolDead, client);
        }
        let ov = self.cfg.overload;
        let (verdict, pressure) = overload::admit(
            &ov,
            self.sched.graph().waiting_len(),
            self.cfg.threads,
            || self.buckets.take(client, ov.client_rate, now),
            || {
                let ps = self.ps.stats();
                Secondary::from_counters(
                    self.ds.used(),
                    self.ds.budget(),
                    ps.hits,
                    ps.misses,
                    ps.pages_fetched,
                    ps.read_retries,
                )
            },
            || self.qmet.service_time.snapshot().mean(),
        );
        match verdict {
            // The refusal is the client's answer: an interactive client
            // moves on to its next query.
            Verdict::Reject { rate_limited, .. } => {
                self.end(now, id, Terminal::Rejected { rate_limited }, client);
            }
            Verdict::Admit { degrade } => {
                let cheaper = degrade.then(|| spec.degrade()).flatten();
                if cheaper.is_some() {
                    self.emit(now, id, EventKind::Degraded);
                }
                let info = QInfo {
                    client,
                    spec: cheaper.unwrap_or(spec),
                    arrival: now,
                    start: f64::NAN,
                    blocked_since: None,
                    blocked_total: 0.0,
                    degraded: cheaper.is_some(),
                    graft_of: None,
                    grafted: false,
                    metrics: None,
                };
                self.sched.admit(id, info.spec, info);
                // The ladder's last rung: shed the largest-`qinputsize`
                // WAITING queries (newest first on ties) while pressure
                // says so; the victim may be the query just admitted.
                while pressure.sheds_at(self.sched.graph().waiting_len()) {
                    let Some(vid) = shed_victim(self.sched.shed_candidates()) else {
                        break;
                    };
                    let info = self.sched.retire(vid).expect("WAITING victim has info");
                    self.end(now, vid, Terminal::Shed, info.client);
                }
            }
        }
        if ov.enabled() {
            let level = pressure.level(self.sched.graph().waiting_len());
            self.obs.metrics.set_gauge("vmqs_pressure", level);
        }
        if !defer_start {
            self.try_start(now);
        }
    }

    /// Wakes every query blocked on `id` — it published, or never will —
    /// in the order they blocked.
    fn wake_waiters(&mut self, now: f64, id: QueryId) {
        for w in self.waiters.remove(&id).unwrap_or_default() {
            if let Some(wi) = self.sched.record_mut(w) {
                if let Some(since) = wi.blocked_since.take() {
                    wi.blocked_total += now - since;
                    self.blocked_count -= 1;
                }
            }
            self.events.push(now, Event::Resume { id: w });
        }
    }

    /// Interactive clients submit their next query once the previous one
    /// is answered — by completion, rejection, or shedding.
    fn advance_client(&mut self, now: f64, client: ClientId) {
        if self.cfg.mode != SubmissionMode::Interactive {
            return;
        }
        if let Some(pos) = self.client_pos.get_mut(&client) {
            *pos += 1;
            let next = self.streams[&client].get(*pos).copied();
            if let Some(spec) = next {
                let seq = *pos;
                self.events.push(
                    now,
                    Event::Arrival {
                        client,
                        spec,
                        seq_in_client: seq,
                    },
                );
            }
        }
    }

    /// Starts the next query under the configured dequeue policy, if a
    /// worker slot is free; returns it with the rank it was chosen by.
    fn pick_next(&mut self, now: f64) -> Option<(QueryId, f64)> {
        // Panics with no restart budget left retire their worker slot.
        if self.busy_slots >= self.sup.live_workers() {
            return None;
        }
        let started = match self.cfg.policy {
            // With grafting on, a consumer never starts ahead of the
            // WAITING producer it would graft onto — the same dequeue
            // order as the threaded engine's `try_dequeue`.
            SchedPolicy::RankOrder => self.sched.dequeue(self.cfg.graft),
            SchedPolicy::IoAware {
                candidates,
                backlog_threshold,
            } if self.disk.backlog(now) > backlog_threshold => {
                // Disk congested: among the top-ranked candidates, start
                // the one that scans the least data.
                let graph = self.sched.graph();
                let top = graph.peek_top_k(candidates.max(1));
                let lightest = top
                    .iter()
                    .min_by_key(|(id, _)| (graph.qinputsize_of(*id).unwrap_or(u64::MAX), *id))
                    .map(|&(id, _)| id)?;
                if Some(lightest) != top.first().map(|&(id, _)| id) {
                    self.policy_overrides += 1;
                }
                self.sched.dequeue_specific(lightest)
            }
            SchedPolicy::IoAware { .. } => self.sched.dequeue(false),
        };
        started.map(|(id, _, rank, _)| (id, rank))
    }

    fn try_start(&mut self, now: f64) {
        while let Some((id, score)) = self.pick_next(now) {
            self.busy_slots += 1;
            // The rank the scheduler chose the query by, frozen at dequeue
            // — same emission point as the threaded engine's worker loop.
            let ranked = EventKind::Ranked {
                strategy: self.cfg.strategy.name(),
                score,
            };
            self.emit(now, id, ranked);
            let info = self.sched.record_mut(id).expect("dequeued query has info");
            info.start = now;
            self.qmet.queue_wait.observe(now - info.arrival);
            // Arm the hang watchdog for this execution span. The deadline
            // event carries no span marker: on firing it re-derives the
            // armed time from `info.start`, so a span that ended (or was
            // requeued) leaves the stale deadline inert.
            if let Some(h) = self.cfg.hang_timeout {
                self.events.push(now + h, Event::HangDeadline { id });
            }

            // Whom to wait for is `SchedShard`'s rule, the one the threaded
            // engine asks too: a graft producer (DESIGN.md §13), whose
            // result this query consumes at resume instead of performing
            // its own lookup, or a dependency. Deadlock-free here: a query
            // only ever blocks on a query that started executing earlier,
            // so wait-for edges cannot cycle (vmqs-server, with racing
            // threads, needs an explicit cycle check).
            let target = self
                .sched
                .wait_target(id, self.cfg.graft, self.cfg.allow_blocking);
            let info = self.sched.record_mut(id).expect("checked above");
            info.graft_of = target.and_then(|(peer, graft)| graft.then_some(peer));
            match target {
                Some((dep, _)) => {
                    info.blocked_since = Some(now);
                    self.blocked_count += 1;
                    self.waiters.entry(dep).or_default().push(id);
                }
                None => self.events.push(now, Event::Resume { id }),
            }
        }
    }

    fn on_resume(&mut self, now: f64, id: QueryId) {
        // A stale resume: the query was cancelled (hung) between the wake
        // being scheduled and processed.
        let Some(info) = self.sched.record_mut(id) else {
            return;
        };
        let spec = info.spec;

        // Grafted consumer: the producer it subscribed to has published.
        // Consume the result directly — no Data Store lookup (and no
        // lookup stats), no I/O, no kernel time; just the answer, exactly
        // like the threaded engine's `AnswerPath::Grafted`, from the
        // producer's entry or the twin that refused it. If neither is
        // visible (the insert found no room, or the entry is already
        // evicted), fall through to the normal path and compute.
        if let Some(producer) = info.graft_of.take() {
            if self.ds.equivalent(&spec).is_some() {
                self.grafted += 1;
                info.grafted = true;
                self.emit(now, id, EventKind::Grafted { producer });
                self.finish_at(now, id, (1.0, spec.qoutsize(), 0.0, 0.0, false));
                return;
            }
        }

        // Data Store lookup (virtual payloads: metadata only).
        let matches = self.ds.lookup(&spec);
        for m in &matches {
            let hit = EventKind::LookupHit {
                source: m.producer,
                overlap: m.overlap,
                exact: m.exact,
            };
            self.emit(now, id, hit);
        }
        if let Some(m) = matches.first().filter(|m| m.exact) {
            let reused = m.reuse_bytes;
            let cpu = self.app.planning_seconds();
            self.qmet.ds_exact_hits.inc();
            self.finish_at(now + cpu, id, (1.0, reused, 0.0, cpu, true));
            return;
        }

        // Tier-2 re-heat (DESIGN.md §14): a spilled entry `cmp`-matching
        // this query restores at one virtual disk service time instead of
        // recompute cost. Poisoned reads — drawn on the reserved spill
        // device, exactly like the threaded engine's frame reads — drop
        // the entry and fall through to recomputation.
        if self.cfg.tier2_budget > 0 {
            if let Some((blob, producer, size)) = self.ds.lookup_restorable_exact(&spec) {
                if self.cfg.fault.page_is_poisoned(SPILL_DEVICE, blob.raw()) {
                    if let Some(r) = self.ds.restore_failed(blob) {
                        self.route_evictions(now, vec![r]);
                    }
                } else {
                    let mut evicted = Vec::new();
                    if self.ds.restore(blob, Payload::Virtual, &mut evicted) {
                        self.route_evictions(now, evicted);
                        self.drain_spills(now);
                        self.emit(now, producer, EventKind::Restored { bytes: size });
                        let hit = EventKind::LookupHit {
                            source: producer,
                            overlap: 1.0,
                            exact: true,
                        };
                        self.emit(now, id, hit);
                        let io = self.cfg.disk.service_time(size);
                        let cpu = self.app.planning_seconds();
                        self.finish_at(now + io + cpu, id, (1.0, spec.qoutsize(), io, cpu, true));
                        return;
                    }
                }
            }
        }

        // Chaos kill-point (DESIGN.md §15): entering the compute stage
        // advances the same global ordinal the threaded engine counts in
        // `Core::compute_seq`; a matching chaos plan kills this virtual
        // worker mid-compute instead of producing a result. The ordinal
        // advances whether or not a panic fires, keeping panic-at-nth
        // coordinates comparable across engines.
        let ordinal = self.compute_seq;
        self.compute_seq += 1;
        if self.cfg.chaos.compute_should_panic(ordinal, id.raw()) {
            self.on_worker_panic(now, id);
            return;
        }

        // Reuse planning over the cached candidates (ordered most-reusable
        // first by the lookup).
        let cached = matches.iter().filter_map(|m| self.ds.get(m.blob));
        let plan = Plan::new(&spec, cached.map(|e| &e.spec));
        debug_assert!((0.0..=1.0 + 1e-9).contains(&plan.covered_fraction));
        let pages: Vec<PageKey> = plan.pages().map(|(d, i)| PageKey::new(d, i)).collect();
        let input_bytes = pages.len() as u64 * PAGE_SIZE as u64;

        // Remainder I/O through the page cache and the disk farm.
        let mut io_ready = now;
        if !pages.is_empty() {
            let read = self.ps.plan_read(&pages);
            let cached_pages = read.pages.len() - read.fetch_count();
            if self.obs.log.enabled() {
                let hit = EventKind::PageRead {
                    cached: true,
                    retried: false,
                };
                (0..cached_pages).for_each(|_| self.emit(now, id, hit));
            }
            // Queries concurrently in their I/O phase interleave on the
            // disk; blocked queries hold a thread slot but issue no I/O.
            let streams = self.busy_slots.saturating_sub(self.blocked_count).max(1);
            for run in &read.fetch_runs {
                let end = self
                    .disk
                    .submit_streams(now, run.bytes(PAGE_SIZE as u64), streams);
                io_ready = io_ready.max(end);
                for page in run.pages() {
                    // Transient-fault model: charge each faulted page the
                    // retry latency the threaded engine would pay — one
                    // re-read service time plus the base backoff per
                    // retry. Streaks are capped at the retry budget; the
                    // final attempt is treated as successful (the virtual
                    // replay has no failure delivery path — see DESIGN.md
                    // §8).
                    let mut ready = end;
                    let mut retried = false;
                    if !self.cfg.fault.is_noop() {
                        let streak = self.cfg.fault.transient_streak(
                            page.dataset,
                            page.index,
                            self.cfg.retry.max_retries,
                        );
                        if streak > 0 {
                            retried = true;
                            let mut extra =
                                streak as f64 * self.cfg.disk.service_time(PAGE_SIZE as u64);
                            for a in 1..=streak {
                                self.ps.note_read_fault();
                                self.ps.note_read_retry();
                                extra += self.cfg.retry.base_backoff(a).as_secs_f64();
                            }
                            ready += extra;
                            io_ready = io_ready.max(ready);
                        }
                    }
                    let fetched = EventKind::PageRead {
                        cached: false,
                        retried,
                    };
                    self.emit(now, id, fetched);
                    for evicted in self.ps.complete_fetch(page, PageData::Virtual) {
                        self.page_ready.remove(&evicted);
                    }
                    self.page_ready.insert(page, ready);
                }
            }
            // Pages resident (or fetched by another in-flight query) may
            // only become usable at a future ready time.
            for (page, _) in &read.pages {
                if let Some(&t) = self.page_ready.get(page) {
                    io_ready = io_ready.max(t);
                }
            }
        }
        if !plan.subqueries.is_empty() {
            let spawned = EventKind::SubquerySpawned {
                count: plan.subqueries.len() as u64,
            };
            self.emit(now, id, spawned);
        }

        let io_time = (io_ready - now).max(0.0);
        let cpu = self.app.planning_seconds()
            + self.app.project_seconds(plan.reused_bytes)
            + self.app.compute_seconds(&spec, input_bytes);
        if plan.reused_bytes > 0 {
            self.qmet.ds_partial_hits.inc();
        } else {
            self.qmet.ds_misses.inc();
        }
        let metrics = (
            plan.covered_fraction,
            plan.reused_bytes,
            io_time,
            cpu,
            false,
        );
        self.finish_at(now + io_time + cpu, id, metrics);
    }

    /// Records the metrics a resume computed and schedules the query's
    /// completion.
    fn finish_at(&mut self, at: f64, id: QueryId, metrics: (f64, u64, f64, f64, bool)) {
        self.sched
            .record_mut(id)
            .expect("resumed query has info")
            .metrics = Some(metrics);
        self.events.push(at, Event::Completion { id });
    }

    /// Routes Data Store eviction records: victims leave the scheduling
    /// graph as SWAPPED_OUT and emit `Evicted` events carrying the tier
    /// they were lost from and their final benefit score. Demotions to
    /// tier 2 are *not* evictions and never pass through here.
    fn route_evictions(&mut self, now: f64, evicted: Vec<EvictionRecord<A::Spec>>) {
        for r in evicted {
            self.sched.route_eviction(r.producer, r.blob);
            let kind = EventKind::Evicted {
                tier: r.tier,
                score: r.score,
            };
            self.emit(now, r.producer, kind);
        }
    }

    /// Accepts the Data Store's queued demotions. The virtual tier needs
    /// no frame write, so a demotion is just the `Spilled` event and the
    /// counters — the simulator's analog of the threaded engine's
    /// `write_frames`. Producers stay CACHED in the scheduling graph: the
    /// data still exists, one disk read away.
    fn drain_spills(&mut self, now: f64) {
        for req in self.ds.take_pending_spills() {
            self.emit(now, req.producer, EventKind::Spilled { bytes: req.size });
        }
    }

    fn on_completion(&mut self, now: f64, id: QueryId) {
        // A stale completion: the query was cancelled (hung) between this
        // event being scheduled and processed.
        let Some(info) = self.sched.record(id) else {
            return;
        };
        self.makespan = self.makespan.max(now);
        let spec = info.spec;
        let (covered, reused, io, cpu, exact) = info.metrics.expect("metrics recorded at resume");

        // Output bytes this query had to produce by computation rather
        // than reuse — the cache-pressure sweep's headline metric.
        let out = spec.qoutsize();
        self.recomputed_bytes += out - reused.min(out);

        // Commit the result to the Data Store and publish it; evicted
        // producers leave the scheduling graph as SWAPPED_OUT. The measured
        // recomputation cost backing the benefit score is this query's
        // virtual I/O + CPU time — what an eviction would force a future
        // identical query to pay.
        let mut evicted = Vec::new();
        let blob = self
            .ds
            .insert_costed(id, spec, out, io + cpu, Payload::Virtual, &mut evicted)
            .ok();
        let info = self.sched.publish(id, blob).expect("record checked above");
        self.route_evictions(now, evicted);
        self.drain_spills(now);
        self.qmet.service_time.observe(now - info.start);

        let record = SimRecord {
            id,
            client: info.client,
            spec: info.spec,
            arrival: info.arrival,
            start: info.start,
            finish: now,
            blocked: info.blocked_total,
            covered_fraction: covered,
            reused_bytes: reused,
            io_time: io,
            cpu_time: cpu,
            exact_hit: exact,
            grafted: info.grafted,
            degraded: info.degraded,
        };

        // §6 self-tuning: hill-climb the strategy's continuous parameter
        // on windowed mean response time.
        if let Some(tuner) = &mut self.tuner {
            if let Some(factor) = tuner.observe(record.response_time()) {
                if let Some((next, value)) = tuned_strategy(self.sched.graph().strategy(), factor) {
                    self.sched.set_strategy(next);
                    tuner.history.push((now, value));
                }
            }
        }

        self.records.push(record);

        self.wake_waiters(now, id);
        self.busy_slots -= 1;

        // Interactive clients submit their next query on completion.
        self.end(now, id, Terminal::Completed, info.client);

        self.try_start(now);
    }

    /// A virtual worker dies mid-compute (DESIGN.md §15), in the threaded
    /// engine's order: the [`Supervisor`] decides the worker's fate,
    /// the panic is logged, anything blocked on the victim is woken (a
    /// graft consumer finds nothing published and computes for itself),
    /// [`SchedShard::on_panic`] requeues or retires the query — and
    /// finally the worker is respawned or its slot retired for good.
    fn on_worker_panic(&mut self, now: f64, id: QueryId) {
        let fate = self.sup.on_worker_death();
        self.emit(now, id, EventKind::WorkerPanicked);
        self.wake_waiters(now, id);
        match self.sched.on_panic(id, self.cfg.quarantine_limit) {
            PanicOutcome::Requeued => {
                // Back to WAITING: this execution span is over, so a
                // pending hang deadline armed for it must come up inert
                // (the start reverts to NAN until the next dequeue).
                self.sched.record_mut(id).expect("requeued with info").start = f64::NAN;
            }
            PanicOutcome::Quarantined { attempts, record } => {
                self.end(now, id, Terminal::Quarantined { attempts }, record.client);
            }
            PanicOutcome::Gone => {}
        }
        self.busy_slots -= 1;
        match fate {
            WorkerFate::Respawn => self.emit(now, id, EventKind::WorkerRestarted),
            WorkerFate::Retire => {}
            // Every worker slot is retired: WAITING queries can never
            // start. Fail them typed-ly in id order — the same sweep as
            // the threaded engine's `fail_all_waiting`.
            WorkerFate::PoolDead => {
                for (w, info) in self.sched.drain(Some(QueryState::Waiting)) {
                    self.end(now, w, Terminal::PoolDead, info.client);
                }
            }
        }
        self.try_start(now);
    }

    /// The hang watchdog's deadline fires (DESIGN.md §15). Valid only if
    /// the query is still in the exact execution span the deadline was
    /// armed for: it must still be EXECUTING and `now` must equal
    /// `start + hang_timeout` bit-for-bit (both sides are produced by the
    /// same addition, so a genuine match is exact). Stale deadlines — the
    /// span completed, panicked, or was requeued — are inert.
    fn on_hang_deadline(&mut self, now: f64, id: QueryId) {
        let Some(h) = self.cfg.hang_timeout else {
            return;
        };
        let Some(info) = self.sched.record(id) else {
            return;
        };
        if self.sched.graph().state_of(id) != Some(QueryState::Executing) || now != info.start + h {
            return;
        }
        // It can never publish: anything blocked on it computes for
        // itself.
        self.wake_waiters(now, id);
        let info = self.sched.retire(id).expect("record checked above");
        self.end(now, id, Terminal::Hung, info.client);
        // If the hung query was itself blocked on a peer, unhook it from
        // that peer's wake list.
        if info.blocked_since.is_some() {
            self.blocked_count -= 1;
            for ws in self.waiters.values_mut() {
                ws.retain(|w| *w != id);
            }
        }
        self.busy_slots -= 1;
        self.try_start(now);
    }
}

/// Convenience: build and run a Virtual Microscope simulation in one call.
pub fn run_sim(cfg: SimConfig, workload: Vec<ClientStream>) -> SimReport {
    Simulator::new(cfg, workload).run()
}

/// Convenience: build and run a simulation for any application adapter.
pub fn run_sim_app<A: SimApplication>(
    cfg: SimConfig,
    app: A,
    workload: Vec<ClientStream<A::Spec>>,
) -> SimReport<A::Spec> {
    Simulator::with_app(cfg, app, workload).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, Rect};
    use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
    use vmqs_storage::DiskModel;

    fn slide() -> SlideDataset {
        SlideDataset::paper_scale(DatasetId(0))
    }

    fn q(x: u32, y: u32, side: u32, zoom: u32, op: VmOp) -> VmQuery {
        VmQuery::new(slide(), Rect::new(x, y, side, side), zoom, op)
    }

    fn one_client(queries: Vec<VmQuery>) -> Vec<ClientStream> {
        vec![ClientStream {
            client: ClientId(0),
            queries,
        }]
    }

    #[test]
    fn single_query_costs_io_plus_cpu() {
        let cfg = SimConfig::paper_baseline();
        let spec = q(0, 0, 1024, 1, VmOp::Subsample);
        let report = run_sim(cfg, one_client(vec![spec]));
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert!(r.io_time > 0.0, "must pay disk time");
        assert!(r.cpu_time > 0.0);
        assert!((r.finish - (r.io_time + r.cpu_time)).abs() < 1e-9);
        assert_eq!(r.covered_fraction, 0.0);
        // Subsampling is I/O-dominated.
        assert!(r.cpu_time < 0.2 * r.io_time);
    }

    #[test]
    fn average_op_is_cpu_balanced() {
        let cfg = SimConfig::paper_baseline();
        let spec = q(0, 0, 2048, 2, VmOp::Average);
        let report = run_sim(cfg, one_client(vec![spec]));
        let r = &report.records[0];
        // Compare CPU against total disk busy time (the farm services one
        // query's runs in parallel, so elapsed io_time is busy/N_DISKS).
        let ratio = r.cpu_time / report.disk_stats.busy_time;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "averaging CPU:I/O ratio {ratio} should be near 1"
        );
        assert!(r.io_time > 0.0 && r.cpu_time > r.io_time);
    }

    #[test]
    fn identical_repeat_is_exact_hit() {
        let cfg = SimConfig::paper_baseline();
        let spec = q(0, 0, 1024, 1, VmOp::Subsample);
        let report = run_sim(cfg, one_client(vec![spec, spec]));
        assert_eq!(report.records.len(), 2);
        let second = &report.records[1];
        assert!(second.exact_hit);
        assert_eq!(second.io_time, 0.0);
        assert!(second.exec_time() < report.records[0].exec_time() / 100.0);
        assert_eq!(report.ds_stats.exact_hits, 1);
    }

    #[test]
    fn caching_disabled_never_reuses() {
        let cfg = SimConfig::paper_baseline().with_ds_budget(0);
        let spec = q(0, 0, 1024, 1, VmOp::Subsample);
        let report = run_sim(cfg, one_client(vec![spec, spec]));
        assert!(report.records.iter().all(|r| !r.exact_hit));
        // The second run re-reads pages, but they are PS-cached; the DS
        // itself must have rejected both inserts.
        assert_eq!(report.ds_stats.rejected, 2);
    }

    #[test]
    fn partial_overlap_reduces_io() {
        let cfg = SimConfig::paper_baseline();
        let a = q(0, 0, 2048, 2, VmOp::Subsample);
        let b = q(1024, 0, 2048, 2, VmOp::Subsample); // half overlaps a
        let report = run_sim(cfg, one_client(vec![a, b]));
        let rb = &report.records[1];
        assert!(rb.covered_fraction > 0.4 && rb.covered_fraction < 0.6);
        assert!(rb.reused_bytes > 0);
        assert!(rb.io_time < report.records[0].io_time);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = SimConfig::paper_baseline().with_threads(3);
            let streams = (0..4)
                .map(|c| ClientStream {
                    client: ClientId(c),
                    queries: (0..5)
                        .map(|i| {
                            q(
                                (c as u32 * 700 + i * 512) % 20000,
                                (i * 911) % 20000,
                                2048,
                                1 << (i % 3),
                                if c % 2 == 0 {
                                    VmOp::Subsample
                                } else {
                                    VmOp::Average
                                },
                            )
                        })
                        .collect(),
                })
                .collect();
            run_sim(cfg, streams)
        };
        let r1 = mk();
        let r2 = mk();
        assert_eq!(r1.records.len(), r2.records.len());
        for (a, b) in r1.records.iter().zip(r2.records.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.finish, b.finish);
            assert_eq!(a.covered_fraction, b.covered_fraction);
        }
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn more_threads_speed_up_independent_clients() {
        let streams: Vec<ClientStream> = (0..4)
            .map(|c| ClientStream {
                client: ClientId(c),
                queries: vec![q(c as u32 * 5000, 0, 2048, 2, VmOp::Average)],
            })
            .collect();
        let r1 = run_sim(SimConfig::paper_baseline().with_threads(1), streams.clone());
        let r4 = run_sim(SimConfig::paper_baseline().with_threads(4), streams);
        assert!(
            r4.makespan < r1.makespan,
            "4 threads {} should beat 1 thread {}",
            r4.makespan,
            r1.makespan
        );
    }

    #[test]
    fn io_bound_workload_saturates_disk() {
        // Many threads on an I/O-bound workload: the disk queue grows.
        let streams: Vec<ClientStream> = (0..8)
            .map(|c| ClientStream {
                client: ClientId(c),
                queries: vec![q(c as u32 * 3000, 0, 4096, 4, VmOp::Subsample)],
            })
            .collect();
        let r = run_sim(SimConfig::paper_baseline().with_threads(8), streams);
        assert!(r.disk_stats.queue_time > 0.0);
        assert!(r.disk_stats.requests > 0);
    }

    #[test]
    fn blocking_waits_for_executing_dependency() {
        // Two clients, same window: with 2 threads the second query starts
        // while the first executes and should block, then reuse.
        let spec = q(0, 0, 2048, 2, VmOp::Subsample);
        let streams: Vec<ClientStream> = (0..2)
            .map(|c| ClientStream {
                client: ClientId(c),
                queries: vec![spec],
            })
            .collect();
        let r = run_sim(SimConfig::paper_baseline().with_threads(2), streams.clone());
        let blocked: Vec<_> = r.records.iter().filter(|x| x.blocked > 0.0).collect();
        assert_eq!(blocked.len(), 1);
        assert!(
            blocked[0].exact_hit,
            "after blocking, the result is reusable"
        );
        // With blocking disabled, nobody blocks and both do the I/O plan
        // (the page cache still dedups actual I/O).
        let r2 = run_sim(
            SimConfig::paper_baseline()
                .with_threads(2)
                .with_blocking(false),
            streams,
        );
        assert!(r2.records.iter().all(|x| x.blocked == 0.0));
    }

    #[test]
    fn grafting_consumes_in_flight_producer_deterministically() {
        let spec = q(0, 0, 2048, 2, VmOp::Subsample);
        let streams: Vec<ClientStream> = (0..2)
            .map(|c| ClientStream {
                client: ClientId(c),
                queries: vec![spec],
            })
            .collect();
        let mk = || {
            run_sim(
                SimConfig::paper_baseline()
                    .with_threads(2)
                    .with_graft(true)
                    .with_observe(true),
                streams.clone(),
            )
        };
        let r = mk();
        assert_eq!(r.grafted, 1);
        let grafts: Vec<_> = r.records.iter().filter(|x| x.grafted).collect();
        assert_eq!(grafts.len(), 1);
        let g = grafts[0];
        assert!(!g.exact_hit, "grafted is its own answer path");
        assert_eq!(g.covered_fraction, 1.0);
        assert_eq!(g.io_time, 0.0);
        assert_eq!(g.cpu_time, 0.0);
        assert!(g.blocked > 0.0, "the consumer waits for the producer");
        assert!(g.reused_bytes > 0);
        // The graft edge points consumer → producer; the consumer skipped
        // its Data Store lookup entirely, so no exact hit was counted.
        let producer = r.records.iter().find(|x| !x.grafted).unwrap().id;
        assert_eq!(
            vmqs_obs::timeline::grafted_edges(&r.events),
            vec![(g.id, producer)]
        );
        assert_eq!(r.ds_stats.exact_hits, 0);
        // Deterministic: the graft fires identically run to run.
        let r2 = mk();
        assert_eq!(r2.grafted, 1);
        assert_eq!(r.makespan, r2.makespan);
        // Graft off: the same workload blocks and takes a classic hit.
        let off = run_sim(
            SimConfig::paper_baseline()
                .with_threads(2)
                .with_observe(true),
            streams.clone(),
        );
        assert_eq!(off.grafted, 0);
        assert!(vmqs_obs::timeline::grafted_edges(&off.events).is_empty());
        assert_eq!(off.records.iter().filter(|x| x.exact_hit).count(), 1);
        // Grafting needs concurrency: at 1 thread nothing is ever
        // EXECUTING when a query dequeues, so no graft can fire.
        let one = run_sim(
            SimConfig::paper_baseline()
                .with_threads(1)
                .with_graft(true)
                .with_observe(true),
            streams,
        );
        assert_eq!(one.grafted, 0);
    }

    #[test]
    fn batch_mode_submits_everything_at_zero() {
        let spec = q(0, 0, 1024, 1, VmOp::Subsample);
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: vec![spec; 5],
        }];
        let r = run_sim(
            SimConfig::paper_baseline().with_mode(SubmissionMode::Batch),
            streams,
        );
        assert_eq!(r.records.len(), 5);
        assert!(r.records.iter().all(|x| x.arrival == 0.0));
        // Four of the five are exact hits off the first.
        assert_eq!(r.records.iter().filter(|x| x.exact_hit).count(), 4);
    }

    #[test]
    fn interactive_clients_serialize_their_own_queries() {
        let specs = vec![
            q(0, 0, 1024, 1, VmOp::Subsample),
            q(5000, 0, 1024, 1, VmOp::Subsample),
        ];
        let r = run_sim(
            SimConfig::paper_baseline().with_threads(8),
            one_client(specs),
        );
        // Second arrival must be at (or after) first completion.
        let first = r.records.iter().find(|x| x.arrival == 0.0).unwrap();
        let second = r.records.iter().find(|x| x.arrival > 0.0).unwrap();
        assert!(second.arrival >= first.finish);
    }

    #[test]
    fn fifo_orders_by_arrival_in_batch() {
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: (0..6)
                .map(|i| q(i * 3000, 0, 1024, 1, VmOp::Subsample))
                .collect(),
        }];
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_strategy(Strategy::Fifo)
                .with_threads(1)
                .with_mode(SubmissionMode::Batch),
            streams,
        );
        let starts: Vec<f64> = r.records.iter().map(|x| x.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(starts, sorted);
    }

    #[test]
    fn fast_disk_makes_io_negligible() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.disk = DiskModel::new(0.0, 1e15);
        let cost = VmCostModel::calibrated(&DiskModel::circa_2002());
        let spec = q(0, 0, 2048, 2, VmOp::Average);
        let r = run_sim_app(cfg, cost, one_client(vec![spec]));
        assert!(r.records[0].io_time < 1e-6);
        assert!(r.records[0].cpu_time > 0.0);
    }

    fn heavy_then_light_batch() -> Vec<ClientStream> {
        // Disjoint heavy scans arrive first in FIFO order, keeping the
        // disk backlog high; tiny queries arrive last.
        let mut queries = vec![q(0, 0, 16384, 16, VmOp::Subsample)];
        for i in 0..3 {
            queries.push(q(i * 8192, 21000, 8192, 8, VmOp::Subsample));
        }
        for i in 0..6 {
            queries.push(q(i * 1024, 0, 1024, 1, VmOp::Subsample));
        }
        vec![ClientStream {
            client: ClientId(0),
            queries,
        }]
    }

    #[test]
    fn ioaware_policy_prefers_light_queries_under_congestion() {
        let cfg = SimConfig::paper_baseline()
            .with_strategy(Strategy::Fifo)
            .with_threads(2)
            .with_mode(SubmissionMode::Batch);
        let ioaware = run_sim(
            cfg.with_policy(SchedPolicy::IoAware {
                candidates: 16,
                backlog_threshold: 0.05,
            }),
            heavy_then_light_batch(),
        );
        let plain = run_sim(cfg, heavy_then_light_batch());
        assert_eq!(ioaware.records.len(), 10);
        // Under congestion the policy starts the tiny (zoom 1) queries
        // earlier than strict FIFO would, so they finish sooner on average.
        let small_mean = |r: &SimReport| {
            let xs: Vec<f64> = r
                .records
                .iter()
                .filter(|x| x.spec.zoom == 1)
                .map(|x| x.finish)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(
            small_mean(&ioaware) < small_mean(&plain),
            "io-aware {} vs plain {}",
            small_mean(&ioaware),
            small_mean(&plain)
        );
    }

    #[test]
    fn ioaware_override_counter_tracks_interventions() {
        let cfg = SimConfig::paper_baseline()
            .with_strategy(Strategy::Fifo)
            .with_threads(2)
            .with_mode(SubmissionMode::Batch)
            .with_policy(SchedPolicy::IoAware {
                candidates: 8,
                backlog_threshold: 0.5,
            });
        // Drive the simulator through its event loop manually so the
        // override counter can be read before `run` consumes it... the
        // counter is monotone, so running a clone-config simulator and
        // checking behaviour equivalence suffices; here we simply assert
        // the API exists and starts at zero.
        let sim = Simulator::new(cfg, heavy_then_light_batch());
        assert_eq!(sim.policy_overrides(), 0);
        assert!(sim.tuner_history().is_empty());
    }

    #[test]
    fn self_tuner_adjusts_hybrid_weight_deterministically() {
        let wl = || {
            (0..4u64)
                .map(|c| ClientStream {
                    client: ClientId(c),
                    queries: (0..12)
                        .map(|i| {
                            q(
                                (c as u32 * 600 + i * 512) % 20000,
                                (i * 700) % 20000,
                                2048,
                                2,
                                VmOp::Subsample,
                            )
                        })
                        .collect(),
                })
                .collect::<Vec<_>>()
        };
        let cfg = SimConfig::paper_baseline()
            .with_strategy(Strategy::hybrid_default())
            .with_mode(SubmissionMode::Batch) // deep queue: ranks matter
            .with_tuner(TunerConfig {
                window: 8,
                step: 2.0,
            });
        let a = run_sim(cfg, wl());
        let b = run_sim(cfg, wl());
        assert_eq!(a.records.len(), 48);
        // Tuning stays deterministic.
        assert_eq!(a.makespan, b.makespan);
        // And it must actually differ from the untuned run (the tuner
        // re-ranks after every window).
        let untuned = run_sim(cfg_without_tuner(cfg), wl());
        assert_ne!(a.makespan, untuned.makespan);
    }

    fn cfg_without_tuner(mut cfg: SimConfig) -> SimConfig {
        cfg.tuner = None;
        cfg
    }

    #[test]
    fn records_and_events_capture_blocking_and_swapout() {
        let spec = q(0, 0, 2048, 2, VmOp::Subsample);
        let streams: Vec<ClientStream> = (0..2)
            .map(|c| ClientStream {
                client: ClientId(c),
                queries: vec![spec],
            })
            .collect();
        let r = run_sim(SimConfig::paper_baseline().with_threads(2), streams);
        assert_eq!(r.records.iter().filter(|x| x.blocked > 0.0).count(), 1);
        // A Data Store that holds one result swaps the first producer out
        // when the second commits.
        let other = q(8192, 0, 2048, 2, VmOp::Subsample);
        let r2 = run_sim(
            SimConfig::paper_baseline()
                .with_ds_budget(spec.qoutsize())
                .with_observe(true),
            one_client(vec![spec, other]),
        );
        let swapped: Vec<QueryId> = r2
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Evicted { .. }))
            .map(|e| e.query)
            .collect();
        assert_eq!(swapped, vec![r2.records[0].id]);
        assert_eq!(r2.graph_stats.swapped_out, 1);
    }

    #[test]
    fn tuned_strategy_adjusts_parameters() {
        let (s, v) = tuned_strategy(Strategy::hybrid_default(), 2.0).unwrap();
        assert_eq!(v, 2.0);
        match s {
            Strategy::Hybrid { sjf_weight, .. } => assert_eq!(sjf_weight, 2.0),
            _ => panic!("wrong strategy"),
        }
        let (s2, a) = tuned_strategy(Strategy::ClosestFirst { alpha: 0.4 }, 2.0).unwrap();
        assert_eq!(a, 0.8);
        match s2 {
            Strategy::ClosestFirst { alpha } => assert_eq!(alpha, 0.8),
            _ => panic!("wrong strategy"),
        }
        // Clamped at 1.0.
        let (_, a2) = tuned_strategy(Strategy::ClosestFirst { alpha: 0.8 }, 2.0).unwrap();
        assert_eq!(a2, 1.0);
        assert!(tuned_strategy(Strategy::Fifo, 2.0).is_none());
    }

    #[test]
    fn fault_injection_slows_queries_deterministically() {
        use vmqs_storage::FaultConfig;
        let spec = q(0, 0, 4096, 2, VmOp::Subsample);
        let clean = run_sim(SimConfig::paper_baseline(), one_client(vec![spec]));
        let faulty_cfg = SimConfig::paper_baseline().with_faults(FaultConfig::transient(0.2, 99));
        let faulty = run_sim(faulty_cfg, one_client(vec![spec]));
        let again = run_sim(faulty_cfg, one_client(vec![spec]));
        // Counters move and the workload pays for the retries.
        let faults = |r: &SimReport| r.ps_stats.read_faults;
        assert!(faults(&faulty) > 0, "20% rate over a big scan must fault");
        assert_eq!(faults(&faulty), faulty.ps_stats.read_retries);
        assert_eq!(faults(&clean), 0);
        assert!(faulty.makespan > clean.makespan);
        // Deterministic per seed; a different seed redraws.
        assert_eq!(faulty.makespan, again.makespan);
        assert_eq!(faults(&faulty), faults(&again));
        let other_seed = run_sim(
            SimConfig::paper_baseline().with_faults(FaultConfig::transient(0.2, 100)),
            one_client(vec![spec]),
        );
        assert_ne!(faults(&faulty), faults(&other_seed));
        // A zero-retry policy charges no retry latency.
        let no_retry = run_sim(
            faulty_cfg.with_retry(vmqs_pagespace::RetryPolicy::none()),
            one_client(vec![spec]),
        );
        assert_eq!(no_retry.ps_stats.read_retries, 0);
        assert_eq!(no_retry.makespan, clean.makespan);
    }

    /// The faults and retries a run charges land in its Page Space
    /// counters, and the metrics export reads them from there. With no
    /// result reuse and a Page Space that never evicts, every page of the
    /// workload is fetched exactly once, so the charge is the sum of the
    /// fault model's streaks over the workload's pages.
    #[test]
    fn charged_faults_are_counted_in_the_page_space() {
        use std::collections::BTreeSet;
        use vmqs_storage::FaultConfig;
        let queries: Vec<VmQuery> = (0..4)
            .map(|i| q(i * 1024, 0, 2048, 2, VmOp::Subsample))
            .collect();
        let cfg = SimConfig::paper_baseline()
            .with_ds_budget(0)
            .with_ps_budget(1 << 30)
            .with_faults(FaultConfig::transient(0.2, 7));
        let pages: BTreeSet<(DatasetId, u64)> = queries
            .iter()
            .flat_map(|spec| Plan::new(spec, []).pages().collect::<Vec<_>>())
            .collect();
        let streak = |&(d, i): &(DatasetId, u64)| {
            cfg.fault.transient_streak(d, i, cfg.retry.max_retries) as u64
        };
        let charged: u64 = pages.iter().map(streak).sum();
        let exported = |r: &SimReport| {
            for (name, v) in r.ps_stats.series() {
                assert_eq!(r.metrics.counters[name], v, "{name}");
            }
        };
        let r = run_sim(cfg, one_client(queries.clone()));
        assert_eq!(r.ps_stats.pages_fetched, pages.len() as u64);
        assert!(charged > 0, "a 20% rate over {} pages faults", pages.len());
        assert_eq!(r.ps_stats.read_faults, charged);
        assert_eq!(r.ps_stats.read_retries, charged);
        exported(&r);
        assert_eq!(r.metrics.counters["vmqs_ps_read_retries_total"], charged);
        let clean = run_sim(cfg.with_faults(FaultConfig::none()), one_client(queries));
        assert_eq!(clean.ps_stats.read_faults, 0);
        exported(&clean);
    }

    /// The admission ladder reads the retries the run charged. One client
    /// submits a query twice; the second arrives once the first is
    /// answered, with nothing cached (no Data Store) and every page
    /// resident, so the Page Space counters at that admission are the
    /// run's final ones less the repeat's hits, and the last
    /// `vmqs_pressure` is the level the ladder reached on them.
    #[test]
    fn admission_ladder_sees_the_charged_retries() {
        use vmqs_core::OverloadConfig;
        use vmqs_storage::FaultConfig;
        let spec = q(0, 0, 4096, 2, VmOp::Subsample);
        let ov = OverloadConfig::default()
            .with_max_pending(4)
            .with_degrade_threshold(0.5);
        let cfg = SimConfig::paper_baseline()
            .with_threads(1)
            .with_ds_budget(0)
            .with_ps_budget(1 << 30)
            .with_faults(FaultConfig::transient(0.2, 99))
            .with_overload(ov);
        let r = run_sim(cfg, one_client(vec![spec, spec]));
        assert_eq!(r.records.len(), 2);
        let ps = r.ps_stats;
        assert!(ps.read_retries > 0);
        assert_eq!(ps.hits, ps.misses, "the repeat hit every page");
        let secondary =
            || Secondary::from_counters(0, 0, 0, ps.misses, ps.pages_fetched, ps.read_retries);
        let (_, pressure) = overload::admit(&ov, 0, 1, || Ok(()), secondary, || 0.0);
        assert_eq!(r.metrics.gauges["vmqs_pressure"], pressure.level(1));
    }

    #[test]
    fn bounded_admission_rejects_excess_batch_arrivals() {
        use vmqs_core::OverloadConfig;
        // Gate the batch so all five arrivals insert before any dequeue —
        // the same shape as the threaded engine's paused-pool test.
        let spec = q(0, 0, 1024, 1, VmOp::Subsample);
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: vec![spec; 5],
        }];
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_mode(SubmissionMode::Batch)
                .with_batch_gate(true)
                .with_observe(true)
                .with_overload(OverloadConfig::default().with_max_pending(2)),
            streams,
        );
        // Two admitted, three rejected at the full queue.
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.rejected, 3);
        assert_eq!(r.shed, 0);
        let rejects = r
            .events
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
        assert_eq!(rejects, 3);
        // Every arrival got a Submitted event — rejected ones too.
        let submitted = r
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Submitted))
            .count();
        assert_eq!(submitted, 5);
    }

    #[test]
    fn shedding_evicts_largest_waiting_query() {
        use vmqs_core::OverloadConfig;
        // max_pending 4, shed at 0.75: two small queries keep pressure at
        // 0.5; the third arrival pushes it to 0.75 and the shed loop
        // evicts the largest-input query (the 16384px scan).
        let small = q(0, 0, 1024, 1, VmOp::Subsample);
        let big = q(0, 4096, 16384, 16, VmOp::Subsample);
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: vec![small, big, q(4096, 0, 1024, 1, VmOp::Subsample)],
        }];
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_threads(1)
                .with_mode(SubmissionMode::Batch)
                .with_batch_gate(true)
                .with_observe(true)
                .with_overload(
                    OverloadConfig::default()
                        .with_max_pending(4)
                        .with_shed_threshold(0.75),
                ),
            streams,
        );
        assert_eq!(r.shed, 1);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.records.len(), 2);
        // The big scan never ran: every completed record is a small query.
        assert!(r.records.iter().all(|x| x.spec.zoom == 1));
        let shed_ev: Vec<_> = r
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Shed))
            .collect();
        assert_eq!(shed_ev.len(), 1);
        assert_eq!(shed_ev[0].query, QueryId(1));
    }

    #[test]
    fn degradation_downgrades_average_to_subsample() {
        use vmqs_core::OverloadConfig;
        // Degrade at 0.25 with max_pending 8: the first Average admits at
        // level 1/8, the second and third at 2/8 and 3/8 — both degraded.
        let avg = q(0, 0, 2048, 2, VmOp::Average);
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: vec![
                avg,
                q(4096, 0, 2048, 2, VmOp::Average),
                q(8192, 0, 2048, 2, VmOp::Average),
            ],
        }];
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_threads(1)
                .with_mode(SubmissionMode::Batch)
                .with_batch_gate(true)
                .with_observe(true)
                .with_overload(
                    OverloadConfig::default()
                        .with_max_pending(8)
                        .with_degrade_threshold(0.25),
                ),
            streams,
        );
        assert_eq!(r.degraded, 2);
        assert_eq!(r.records.len(), 3);
        let degraded: Vec<_> = r.records.iter().filter(|x| x.degraded).collect();
        assert_eq!(degraded.len(), 2);
        // The record's spec is the degraded predicate that actually ran.
        assert!(degraded.iter().all(|x| x.spec.op == VmOp::Subsample));
        assert!(r
            .records
            .iter()
            .filter(|x| !x.degraded)
            .all(|x| x.spec.op == VmOp::Average));
        // Degraded queries are an order of magnitude cheaper on CPU.
        let full = r.records.iter().find(|x| !x.degraded).unwrap();
        assert!(degraded.iter().all(|x| x.cpu_time < full.cpu_time / 5.0));
    }

    #[test]
    fn rate_limited_interactive_client_still_terminates() {
        use vmqs_core::OverloadConfig;
        // Burst 1, negligible refill: the first query takes the only
        // token; the next two are rejected at submission — and the stream
        // still advances to termination (the refusal is the answer).
        let streams = vec![ClientStream {
            client: ClientId(0),
            queries: vec![
                q(0, 0, 1024, 1, VmOp::Subsample),
                q(4096, 0, 1024, 1, VmOp::Subsample),
                q(8192, 0, 1024, 1, VmOp::Subsample),
            ],
        }];
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_observe(true)
                .with_overload(OverloadConfig::default().with_client_rate(1e-9)),
            streams,
        );
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.rejected, 2);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Rejected { rate_limited: true })));
    }

    #[test]
    fn overload_runs_are_deterministic() {
        use vmqs_core::OverloadConfig;
        let mk = || {
            let streams: Vec<ClientStream> = (0..6)
                .map(|c| ClientStream {
                    client: ClientId(c),
                    queries: (0..4)
                        .map(|i| {
                            q(
                                (c as u32 * 900 + i * 512) % 20000,
                                (i * 911) % 20000,
                                if (c + i as u64).is_multiple_of(3) {
                                    8192
                                } else {
                                    1024
                                },
                                1 << (i % 3),
                                if c % 2 == 0 {
                                    VmOp::Average
                                } else {
                                    VmOp::Subsample
                                },
                            )
                        })
                        .collect(),
                })
                .collect();
            run_sim(
                SimConfig::paper_baseline()
                    .with_threads(2)
                    .with_mode(SubmissionMode::Batch)
                    .with_batch_gate(true)
                    .with_observe(true)
                    .with_overload(
                        OverloadConfig::default()
                            .with_max_pending(6)
                            .with_degrade_threshold(0.5)
                            .with_shed_threshold(0.85),
                    ),
                streams,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.makespan, b.makespan);
        let seq = |r: &SimReport| vmqs_obs::timeline::admission_sequence(&r.events);
        assert_eq!(seq(&a), seq(&b));
        // The workload actually exercised the ladder. The shed loop keeps
        // the queue below `max_pending`, so outright rejection never
        // triggers here — shedding pre-empts it by design.
        assert!(a.shed > 0, "expected shedding under 4x pressure");
        assert!(a.degraded > 0, "expected degraded admissions");
        // Conservation: every arrival is accounted for exactly once.
        assert_eq!(
            a.records.len() as u64 + a.rejected + a.shed,
            a.metrics
                .counters
                .get("vmqs_queries_submitted_total")
                .copied()
                .unwrap_or(0)
        );
    }

    #[test]
    fn tuner_hill_climbs_and_reverses() {
        let mut t = Tuner::new(TunerConfig {
            window: 2,
            step: 2.0,
        });
        assert!(t.observe(1.0).is_none());
        // First window closes: steps forward.
        assert_eq!(t.observe(1.0), Some(2.0));
        // Second window is worse: reverses.
        t.observe(5.0);
        assert_eq!(t.observe(5.0), Some(0.5));
        // Third window improves: keeps direction.
        t.observe(2.0);
        assert_eq!(t.observe(2.0), Some(0.5));
    }

    /// A tier-1 budget that holds exactly one result plus the disjoint
    /// pair that forces a demotion — the minimal spill-pressure setup
    /// (the `a, b, a` pattern: the second `a` must re-heat). Zoom 4, so
    /// the cached output is 16× smaller than the input scan a recompute
    /// would pay for — the regime where a disk-tier re-heat wins.
    fn spill_pressure_cfg() -> (SimConfig, VmQuery, VmQuery) {
        let a = q(0, 0, 2048, 4, VmOp::Subsample);
        let b = q(4096, 4096, 2048, 4, VmOp::Subsample);
        let size = a.qoutsize();
        let cfg = SimConfig::paper_baseline()
            .with_threads(1)
            .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased)
            .with_ds_budget(size + size / 2)
            // Pressure on the page cache too, so a recompute really pays
            // its input scan again — the memory-constrained regime the
            // tier exists for.
            .with_ps_budget(1 << 20)
            .with_tier2_budget(1 << 30)
            .with_observe(true);
        (cfg, a, b)
    }

    #[test]
    fn tier2_spill_restores_at_disk_cost() {
        let (cfg, a, b) = spill_pressure_cfg();
        let report = run_sim(cfg, one_client(vec![a, b, a]));
        assert!(
            report.spilled >= 1,
            "b must demote a to tier 2, not drop it"
        );
        assert_eq!(report.restored, 1);
        assert_eq!(report.restore_failures, 0);
        let last = report.records.last().unwrap();
        assert!(last.exact_hit);
        assert!((last.covered_fraction - 1.0).abs() < 1e-12);
        // The re-heat pays one disk read of the result, far below the
        // original compute's page I/O.
        assert!(last.io_time > 0.0);
        assert!(last.io_time < report.records[0].io_time);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Spilled { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Restored { .. })));

        // Against the legacy single-tier LRU at the same memory budget,
        // the tier saves the whole recompute of the returning query.
        let lru = run_sim(
            cfg.with_tier2_budget(0)
                .with_cache_policy(vmqs_datastore::EvictionPolicy::Lru),
            one_client(vec![a, b, a]),
        );
        assert_eq!((lru.spilled, lru.restored), (0, 0));
        assert!(lru.recomputed_bytes > report.recomputed_bytes);
        assert!(report.makespan < lru.makespan);

        // Virtual time is deterministic: an identical run replays exactly.
        let again = run_sim(cfg, one_client(vec![a, b, a]));
        assert_eq!(report.makespan, again.makespan);
        assert_eq!(report.recomputed_bytes, again.recomputed_bytes);
    }

    #[test]
    fn poisoned_tier2_restore_falls_back_to_recompute() {
        use vmqs_storage::FaultConfig;
        let (cfg, a, b) = spill_pressure_cfg();
        // Every tier-2 read poisoned: the returning query must drop the
        // entry and recompute — no restore, no panic, all queries finish.
        let report = run_sim(
            cfg.with_faults(FaultConfig::none().with_permanent(1.0)),
            one_client(vec![a, b, a]),
        );
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.restored, 0);
        assert!(report.restore_failures >= 1);
        let last = report.records.last().unwrap();
        assert!(!last.exact_hit, "the re-heat must have failed");
        // The dropped entry leaves through the tier-2 eviction path.
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Evicted { tier: 2, .. })));
    }

    // ----- failure containment (DESIGN.md §15) -----

    use vmqs_storage::ChaosConfig;

    /// Finds a seed whose poison draws mark exactly `want` among query
    /// ids `0..n` — so tests can pin which query is the poison one.
    fn poison_seed(rate: f64, n: u64, want: &[u64]) -> u64 {
        (0..20_000u64)
            .find(|&seed| {
                let c = ChaosConfig::none().with_seed(seed).with_poison_rate(rate);
                (0..n).all(|q| c.query_is_poison(q) == want.contains(&q))
            })
            .expect("some seed draws exactly the wanted poison set")
    }

    #[test]
    fn injected_panic_requeues_query_and_respawns_worker() {
        let chaos = ChaosConfig::none().with_panic_at_compute(Some(0));
        let mk = || {
            run_sim(
                SimConfig::paper_baseline()
                    .with_threads(1)
                    .with_mode(SubmissionMode::Batch)
                    .with_chaos(chaos)
                    .with_observe(true),
                one_client(vec![
                    q(0, 0, 1024, 1, VmOp::Subsample),
                    q(5000, 0, 1024, 1, VmOp::Subsample),
                ]),
            )
        };
        let r = mk();
        // The killed query is requeued and completes on its second
        // attempt (the ordinal trigger does not re-fire); its peer is
        // untouched.
        assert_eq!(r.records.len(), 2);
        assert_eq!((r.failed, r.quarantined), (0, 0));
        assert_eq!((r.worker_panics, r.worker_restarts), (1, 1));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerPanicked)));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerRestarted)));
        // Virtual-time chaos is deterministic.
        let r2 = mk();
        assert_eq!(r.makespan, r2.makespan);
    }

    #[test]
    fn poison_query_is_quarantined_and_run_twice_golden_matches() {
        let golden = |rep: &SimReport| -> Vec<(f64, u64, u32)> {
            rep.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Quarantined { attempts } => Some((e.time, e.query.raw(), attempts)),
                    _ => None,
                })
                .collect()
        };
        // Runs one input twice: every submitted query must terminate
        // exactly once, and the same seed and chaos plan must reproduce
        // the identical Quarantined sequence, makespan and quarantine
        // count, bit for bit.
        let check = |threads: usize, queries: &[VmQuery], chaos, limit, budget| {
            let mk = || {
                run_sim(
                    SimConfig::paper_baseline()
                        .with_threads(threads)
                        .with_mode(SubmissionMode::Batch)
                        .with_chaos(chaos)
                        .with_quarantine_limit(limit)
                        .with_restart_budget(budget)
                        .with_observe(true),
                    one_client(queries.to_vec()),
                )
            };
            let r = mk();
            assert_eq!(
                r.records.len() as u64 + r.failed + r.timed_out + r.shed + r.rejected,
                queries.len() as u64,
                "conservation, {chaos:?}"
            );
            let r2 = mk();
            assert_eq!(golden(&r), golden(&r2), "{chaos:?}");
            assert_eq!(r.makespan, r2.makespan, "{chaos:?}");
            assert_eq!(r.quarantined, r2.quarantined, "{chaos:?}");
            r
        };

        // One worker, three queries: exactly query id 1 draws poison. It
        // panics on every attempt and must be contained by the
        // quarantine counter while its peers complete.
        let seed = poison_seed(0.3, 3, &[1]);
        let three = [
            q(0, 0, 1024, 1, VmOp::Subsample),
            q(5000, 0, 1024, 1, VmOp::Subsample),
            q(10000, 0, 1024, 1, VmOp::Subsample),
        ];
        let chaos = ChaosConfig::none().with_seed(seed).with_poison_rate(0.3);
        let r = check(1, &three, chaos, 3, 8);
        assert_eq!(r.records.len(), 2);
        assert!(r.records.iter().all(|x| x.id.raw() != 1));
        assert_eq!((r.failed, r.quarantined), (1, 1));
        assert_eq!((r.worker_panics, r.worker_restarts), (3, 3));
        let g1 = golden(&r);
        assert_eq!(g1.len(), 1);
        assert_eq!((g1[0].1, g1[0].2), (1, 3));

        // Eight workers on a batch of 48 disjoint tiles, 5% poison and a
        // panic at compute #1, quarantine limit 2, restart budget 32.
        let tiles: Vec<VmQuery> = (0..48)
            .map(|i| q((i % 8) * 1024, (i / 8) * 1024, 256, 1, VmOp::Subsample))
            .collect();
        for seed in 42..47 {
            let chaos = ChaosConfig::none()
                .with_seed(seed)
                .with_poison_rate(0.05)
                .with_panic_at_compute(Some(1));
            let r = check(8, &tiles, chaos, 2, 32);
            assert!(r.worker_panics >= 1, "seed {seed}: compute #1 panics");
            assert!(
                r.quarantined >= 1,
                "seed {seed}: a poison query is quarantined"
            );
        }
    }

    #[test]
    fn hang_watchdog_cancels_stuck_query_in_virtual_time() {
        let big = q(0, 0, 8192, 8, VmOp::Average);
        let small = q(15000, 0, 64, 1, VmOp::Subsample);
        // Calibrate from an unwatched run: pick a limit between the two
        // execution spans so only the big query trips the watchdog.
        let base = run_sim(
            SimConfig::paper_baseline().with_threads(1),
            one_client(vec![big, small]),
        );
        let e_big = base.records[0].exec_time();
        let e_small = base.records[1].exec_time();
        let h = e_big / 2.0;
        assert!(e_small < h && h < e_big, "calibration must separate spans");
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_threads(1)
                .with_hang_timeout(Some(h))
                .with_observe(true),
            one_client(vec![big, small]),
        );
        // The big query is cancelled at its deadline; the client's next
        // query still runs to completion afterwards.
        assert_eq!((r.hung, r.timed_out, r.failed), (1, 1, 0));
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].spec.cmp(&small));
        let kinds: Vec<&str> = r
            .events
            .iter()
            .filter(|e| e.query.raw() == 0)
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(
            kinds.last().copied(),
            Some("timed_out"),
            "TimedOut terminates the hung query"
        );
        assert!(kinds.contains(&"hung"));
    }

    #[test]
    fn exhausted_restart_budget_kills_pool_and_fails_waiting_typed() {
        let chaos = ChaosConfig::none().with_panic_at_compute(Some(0));
        let r = run_sim(
            SimConfig::paper_baseline()
                .with_threads(1)
                .with_mode(SubmissionMode::Batch)
                .with_chaos(chaos)
                .with_restart_budget(0)
                .with_observe(true),
            one_client(vec![
                q(0, 0, 1024, 1, VmOp::Subsample),
                q(5000, 0, 1024, 1, VmOp::Subsample),
                q(10000, 0, 1024, 1, VmOp::Subsample),
            ]),
        );
        // One panic retires the only worker: the victim is requeued but
        // the pool is dead, so it and every WAITING peer fail typed-ly.
        assert_eq!(r.records.len(), 0);
        assert_eq!((r.worker_panics, r.worker_restarts), (1, 0));
        assert_eq!(r.failed, 3);
        assert_eq!(
            r.events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Failed))
                .count(),
            3
        );
        assert!(!r
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerRestarted)));
    }
}
