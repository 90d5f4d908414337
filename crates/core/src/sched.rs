//! One scheduler shard: the scheduling graph plus everything that must
//! change together with it when a query moves WAITING → EXECUTING →
//! CACHED → SWAPPED_OUT (paper §4). Both engines drive this one state
//! machine — the threaded server one [`SchedShard`] per worker behind
//! that shard's mutex, the simulator one in virtual time — so the rules
//! for *leaving* the graph are written here once:
//!
//! * **Exit protocol.** A query that ends without a cacheable result
//!   still leaves through the legal arcs: out of the dequeue index if it
//!   was WAITING, then EXECUTING → CACHED → SWAPPED_OUT, so neighbors are
//!   re-ranked and no edge dangles ([`SchedShard::retire`], and
//!   [`SchedShard::publish`] for an uncacheable success).
//! * **Tombstone rule.** A cost-based eviction can pick a result whose
//!   producer has committed it to the Data Store but not yet published it
//!   here (recency policies never do: a fresh commit has the newest
//!   stamp). `swap_out` on an EXECUTING node would corrupt the graph, so
//!   [`SchedShard::route_eviction`] leaves a tombstone for the blob and
//!   the producer's own `publish` consumes it and swaps itself out.
//! * **Quarantine rule.** A query whose compute killed its worker goes
//!   back to WAITING with its arrival order intact until it has done so
//!   `quarantine_limit` times, then is retired
//!   ([`SchedShard::on_panic`]).
//!
//! and so is the one rule for waiting *inside* it: which EXECUTING peer a
//! dequeued query stalls on, as a dependency or as a graft
//! ([`SchedShard::wait_target`]).
//!
//! The shard is sans-I/O: it takes no lock, reads no clock, emits no
//! event and never asks which engine is calling. Replies, counters,
//! events, the `depth` mirrors and every wake-up stay with the driver.

// A panic here takes down a worker or a submitter: every `unwrap` /
// `expect` outside the tests needs an `#[expect(.., reason)]` saying why
// it cannot fire.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::graph::SchedulingGraph;
use crate::ids::{BlobId, QueryId};
use crate::spatial::SpatialSpec;
use crate::state::QueryState;
use crate::strategy::Strategy;
use std::collections::{HashMap, HashSet};

/// What [`SchedShard::on_panic`] did with the query whose worker died.
#[derive(Debug)]
pub enum PanicOutcome<R> {
    /// Back in WAITING with its record and arrival order intact.
    Requeued,
    /// Retired at the quarantine limit; the record is the caller's to fail.
    Quarantined {
        /// Worker deaths the query caused, this one included.
        attempts: u32,
        /// The driver's record for the query.
        record: R,
    },
    /// It had already published (and given up its record) when the
    /// worker died: nothing to requeue or fail.
    Gone,
}

/// One shard's scheduling state. `R` is the driver's per-query record
/// (the server's reply channel and submit stamp, the simulator's virtual
/// timings); a record exists exactly from [`SchedShard::admit`] until the
/// query's [`SchedShard::publish`] or [`SchedShard::retire`].
#[derive(Debug)]
pub struct SchedShard<S: SpatialSpec, R> {
    graph: SchedulingGraph<S>,
    /// Each record with the worker deaths its query's computes have caused
    /// (the quarantine count, which survives requeues).
    records: HashMap<QueryId, (R, u32)>,
    /// Data Store blobs of CACHED producers homed here; an entry lives as
    /// long as the cached result, not the query's record.
    live_blobs: HashMap<QueryId, BlobId>,
    /// Blobs evicted between their producer's commit and its `publish`.
    tombstones: HashSet<BlobId>,
}

impl<S: SpatialSpec, R> SchedShard<S, R> {
    /// An empty shard ranking with `strategy`; `index_cell` is the cell
    /// side of the graph's footprint index, the one the driver also gives
    /// its Data Store.
    pub fn new(strategy: Strategy, index_cell: u32) -> Self {
        SchedShard {
            graph: SchedulingGraph::with_index_cell(strategy, index_cell),
            records: HashMap::new(),
            live_blobs: HashMap::new(),
            tombstones: HashSet::new(),
        }
    }

    /// Read-only view of the scheduling graph (states, ranks, counters).
    pub fn graph(&self) -> &SchedulingGraph<S> {
        &self.graph
    }

    /// Switches the ranking strategy, re-ranking every node (the §6
    /// self-tuning hook).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.graph.set_strategy(strategy);
    }

    /// The driver's record for an admitted, unanswered query.
    pub fn record(&self, id: QueryId) -> Option<&R> {
        self.records.get(&id).map(|r| &r.0)
    }

    /// Mutable access to the driver's record.
    pub fn record_mut(&mut self, id: QueryId) -> Option<&mut R> {
        self.records.get_mut(&id).map(|r| &mut r.0)
    }

    /// Inserts a new WAITING query with its record.
    pub fn admit(&mut self, id: QueryId, spec: S, record: R) {
        self.graph.insert(id, spec);
        self.records.insert(id, (record, 0));
    }

    /// Moves the highest-ranked WAITING query to EXECUTING and returns it
    /// with its spec, the rank it was chosen by, and its record. With
    /// `prefer_producer`, a WAITING producer that fully covers the
    /// top-ranked query goes first (DESIGN.md §13).
    pub fn dequeue(&mut self, prefer_producer: bool) -> Option<(QueryId, S, f64, &mut R)> {
        let id = if prefer_producer {
            self.graph.dequeue_preferring_producer()?
        } else {
            self.graph.dequeue()?
        };
        Some(self.started(id))
    }

    /// As [`SchedShard::dequeue`], for a policy that overrides the rank
    /// order with its own pick. `None` when `id` is not WAITING.
    pub fn dequeue_specific(&mut self, id: QueryId) -> Option<(QueryId, S, f64, &mut R)> {
        if !self.graph.dequeue_specific(id) {
            return None;
        }
        Some(self.started(id))
    }

    fn started(&mut self, id: QueryId) -> (QueryId, S, f64, &mut R) {
        let rank = self.graph.rank_of(id).map_or(0.0, |r| r.value());
        #[expect(
            clippy::expect_used,
            reason = "the graph just moved this node to EXECUTING"
        )]
        let spec = self.graph.spec_of(id).expect("dequeued node").clone();
        #[expect(
            clippy::expect_used,
            reason = "admit inserts node and record together; only publish/retire, \
                      which need the node out of WAITING, remove either"
        )]
        let record = self.records.get_mut(&id).expect("node has a record");
        (id, spec, rank, &mut record.0)
    }

    /// EXECUTING queries whose results `id` could reuse, strongest first.
    pub fn executing_sources(&self, id: QueryId) -> impl Iterator<Item = QueryId> + '_ {
        let sources = self.graph.reuse_sources(id).into_iter().map(|e| e.peer);
        sources.filter(|&p| self.graph.state_of(p) == Some(QueryState::Executing))
    }

    /// The in-flight query a just-dequeued `id` waits for before it looks
    /// at computing (paper §4: queries stall on EXECUTING dependencies),
    /// and whether that wait is a graft. With `graft`, an EXECUTING peer
    /// whose predicate `cmp`-equals `id`'s is a producer of this very
    /// answer: wait for it whatever `allow_blocking` says and consume what
    /// it publishes (DESIGN.md §13). Otherwise, with `allow_blocking`, the
    /// strongest EXECUTING source, whose result can shrink the compute.
    pub fn wait_target(
        &self,
        id: QueryId,
        graft: bool,
        allow_blocking: bool,
    ) -> Option<(QueryId, bool)> {
        let spec = self.graph.spec_of(id)?;
        let same = |p: &QueryId| self.graph.spec_of(*p).is_some_and(|ps| ps.cmp(spec));
        let mut sources = self.executing_sources(id).peekable();
        let strongest = sources.peek().copied();
        let producer = if graft { sources.find(same) } else { None };
        match producer {
            Some(p) => Some((p, true)),
            None => strongest.filter(|_| allow_blocking).map(|p| (p, false)),
        }
    }

    /// Completes an EXECUTING query and gives up its record. With a
    /// `blob` the node stays CACHED for as long as that blob lives; with
    /// none (the result was uncacheable), or when an evictor already left
    /// a tombstone for the blob, it goes straight to SWAPPED_OUT.
    pub fn publish(&mut self, id: QueryId, blob: Option<BlobId>) -> Option<R> {
        self.graph.mark_cached(id);
        match blob {
            Some(b) if !self.tombstones.remove(&b) => {
                self.live_blobs.insert(id, b);
            }
            _ => self.graph.swap_out(id),
        }
        self.records.remove(&id).map(|r| r.0)
    }

    /// The Data Store evicted `blob`, `producer`'s result. A CACHED
    /// producer is swapped out; one that has not published yet gets a
    /// tombstone its `publish` consumes; one the graph no longer knows (a
    /// frame recovered from an earlier process) needs nothing.
    pub fn route_eviction(&mut self, producer: QueryId, blob: BlobId) {
        match self.graph.state_of(producer) {
            Some(QueryState::Cached) => {
                self.live_blobs.remove(&producer);
                self.graph.swap_out(producer);
            }
            None => {}
            _ => {
                self.tombstones.insert(blob);
            }
        }
    }

    /// The single exit for a query that ends without publishing — shed,
    /// failed, timed out, quarantined, stranded by pool death — from
    /// whatever state it is in. A producer already CACHED with a live
    /// blob stays cached. Returns the record for the caller to answer.
    pub fn retire(&mut self, id: QueryId) -> Option<R> {
        let state = self.graph.state_of(id);
        if state == Some(QueryState::Waiting) {
            self.graph.dequeue_specific(id);
        }
        if matches!(state, Some(QueryState::Waiting | QueryState::Executing)) {
            self.graph.mark_cached(id);
        }
        // Whatever state it was in, a node still present is CACHED now.
        if state.is_some() && !self.live_blobs.contains_key(&id) {
            self.graph.swap_out(id);
        }
        self.records.remove(&id).map(|r| r.0)
    }

    /// The worker computing `id` died. Counts the attempt, then requeues
    /// the query below `quarantine_limit` and retires it at the limit — a
    /// deterministic poison query must not crash-loop the pool.
    pub fn on_panic(&mut self, id: QueryId, quarantine_limit: u32) -> PanicOutcome<R> {
        let Some((_, attempts)) = self.records.get_mut(&id) else {
            return PanicOutcome::Gone;
        };
        *attempts += 1;
        let attempts = *attempts;
        if attempts < quarantine_limit && self.graph.requeue(id) {
            return PanicOutcome::Requeued;
        }
        match self.retire(id) {
            Some(record) => PanicOutcome::Quarantined { attempts, record },
            None => PanicOutcome::Gone,
        }
    }

    /// `(id, qinputsize, arrival)` of every WAITING query — the input of
    /// [`crate::overload::shed_victim`].
    pub fn shed_candidates(&self) -> impl Iterator<Item = (QueryId, u64, u64)> + '_ {
        let g = &self.graph;
        let key = move |q| Some((q, g.qinputsize_of(q)?, g.arrival_of(q)?));
        g.ids_in_state(QueryState::Waiting)
            .into_iter()
            .filter_map(key)
    }

    /// Retires, in id order, every query that still holds a record — all
    /// of them (shutdown), or only those in `state` (pool death strands
    /// the WAITING ones: nothing will ever run them).
    pub fn drain(&mut self, state: Option<QueryState>) -> Vec<(QueryId, R)> {
        let mut ids: Vec<QueryId> = self.records.keys().copied().collect();
        ids.retain(|&id| state.is_none() || self.graph.state_of(id) == state);
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| Some((id, self.retire(id)?)))
            .collect()
    }

    /// Consistency check (test/debug aid): the graph's own invariants,
    /// every live blob names a CACHED node, and — when the caller knows
    /// no admitted query is unanswered (`idle`) — no record or tombstone
    /// is left behind.
    pub fn validate(&self, idle: bool) -> Result<(), String> {
        self.graph.validate()?;
        for (id, blob) in &self.live_blobs {
            if self.graph.state_of(*id) != Some(QueryState::Cached) {
                return Err(format!("live blob {blob:?} of {id} names no CACHED node"));
            }
        }
        let left = (self.records.len(), self.tombstones.len());
        if idle && left != (0, 0) {
            return Err(format!("(records, tombstones) left over: {left:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::IntervalSpec;

    type Shard = SchedShard<IntervalSpec, &'static str>;

    fn q(i: u64) -> QueryId {
        QueryId(i)
    }

    /// Three mutually overlapping queries under a dynamic strategy, so
    /// every transition re-ranks neighbors and a dangling edge or stale
    /// rank would fail `validate`.
    fn shard() -> Shard {
        let mut s = Shard::new(Strategy::Cnbf, 64);
        s.admit(q(1), IntervalSpec::new(0, 100, 1), "one");
        s.admit(q(2), IntervalSpec::new(50, 100, 1), "two");
        s.admit(q(3), IntervalSpec::new(80, 100, 1), "three");
        s
    }

    fn assert_clean(s: &Shard) {
        s.validate(true).unwrap();
    }

    #[test]
    fn retire_from_every_state_leaves_no_residue() {
        // WAITING.
        let mut s = shard();
        assert_eq!(s.retire(q(2)), Some("two"));
        assert_eq!(s.graph().state_of(q(2)), None);
        assert_eq!(s.graph().waiting_len(), 2);
        s.validate(false).unwrap();

        // EXECUTING.
        let (id, ..) = s.dequeue(false).unwrap();
        assert_eq!(s.retire(id), Some(if id == q(1) { "one" } else { "three" }));
        assert_eq!(s.graph().state_of(id), None);
        s.validate(false).unwrap();

        // CACHED with a live blob: the result outlives the record, and a
        // second retire (a panic after publish) leaves it cached.
        let (id, ..) = s.dequeue(false).unwrap();
        assert!(s.publish(id, Some(BlobId(7))).is_some());
        assert_eq!(s.retire(id), None);
        assert_eq!(s.graph().state_of(id), Some(QueryState::Cached));
        assert_clean(&s);
        s.route_eviction(id, BlobId(7));
        assert!(s.graph().is_empty());

        // CACHED without a blob (uncacheable result): publish itself
        // takes the node out, and retire finds nothing left to do.
        let mut s = shard();
        let (id, ..) = s.dequeue(false).unwrap();
        assert!(s.publish(id, None).is_some());
        assert_eq!(s.graph().state_of(id), None);
        assert_eq!(s.retire(id), None);
        s.validate(false).unwrap();
        assert_eq!(s.drain(None).len(), 2);
        assert_clean(&s);
        assert!(s.graph().is_empty());
    }

    #[test]
    fn on_panic_requeues_below_the_limit_and_quarantines_at_it() {
        let mut s = Shard::new(Strategy::Fifo, 64);
        s.admit(q(1), IntervalSpec::new(0, 100, 1), "poison");
        s.admit(q(2), IntervalSpec::new(500, 100, 1), "bystander");
        for attempt in 1..3 {
            // Arrival order intact: the requeued query is still ahead of
            // the later arrival.
            let (id, ..) = s.dequeue(false).unwrap();
            assert_eq!(id, q(1), "attempt {attempt}");
            assert!(matches!(s.on_panic(id, 3), PanicOutcome::Requeued));
            assert_eq!(s.graph().state_of(id), Some(QueryState::Waiting));
            s.validate(false).unwrap();
        }
        let (id, ..) = s.dequeue(false).unwrap();
        match s.on_panic(id, 3) {
            PanicOutcome::Quarantined { attempts, record } => {
                assert_eq!((attempts, record), (3, "poison"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(s.graph().state_of(q(1)), None);
        assert_eq!(s.dequeue(false).map(|d| d.0), Some(q(2)));
        // A panic after publish finds nothing to requeue or fail.
        assert!(s.publish(q(2), None).is_some());
        assert!(matches!(s.on_panic(q(2), 3), PanicOutcome::Gone));
        assert_clean(&s);
    }

    #[test]
    fn eviction_before_publish_leaves_a_tombstone_the_producer_consumes() {
        let mut s = shard();
        let (id, ..) = s.dequeue(false).unwrap();
        // The producer committed blob 9 to the store; a peer's knapsack
        // evicts it before the producer publishes here.
        s.route_eviction(id, BlobId(9));
        assert_eq!(s.graph().state_of(id), Some(QueryState::Executing));
        assert_eq!(s.tombstones.len(), 1);
        assert!(s.publish(id, Some(BlobId(9))).is_some());
        assert_eq!(s.graph().state_of(id), None, "tombstoned: SWAPPED_OUT");
        // An eviction naming a query the graph never knew is a no-op.
        s.route_eviction(q(99), BlobId(1));
        assert!(s.tombstones.is_empty());
        s.validate(false).unwrap();
    }

    #[test]
    fn wait_target_prefers_a_cmp_equal_producer_and_only_executing_peers() {
        let mut s = Shard::new(Strategy::Fifo, 64);
        // Into the consumer, the partial source's edge (half of 400 bytes)
        // outweighs the twin's (all of 100).
        s.admit(q(1), IntervalSpec::new(50, 400, 1), "partial");
        s.admit(q(2), IntervalSpec::new(0, 100, 1), "twin");
        s.admit(q(3), IntervalSpec::new(0, 100, 1), "consumer");
        let flags = [(false, false), (false, true), (true, false), (true, true)];
        let targets = |s: &Shard| flags.map(|(graft, block)| s.wait_target(q(3), graft, block));
        // A WAITING peer, `cmp`-equal or not, is never waited for.
        s.dequeue_specific(q(3)).unwrap();
        assert_eq!(targets(&s), [None; 4]);
        // Only the partial source EXECUTING: blocking waits for it, graft
        // alone does not.
        s.dequeue_specific(q(1)).unwrap();
        let dep = Some((q(1), false));
        assert_eq!(targets(&s), [None, dep, None, dep]);
        // The twin EXECUTING too: a graft picks it over the heavier source;
        // graft off is `executing_sources().next()`.
        s.dequeue_specific(q(2)).unwrap();
        assert_eq!(s.executing_sources(q(3)).next(), Some(q(1)));
        let producer = Some((q(2), true));
        assert_eq!(targets(&s), [None, dep, producer, producer]);
        // Once CACHED the twin is the store's to serve, not a wait target.
        assert!(s.publish(q(2), Some(BlobId(1))).is_some());
        assert_eq!(targets(&s), [None, dep, None, dep]);
        assert_eq!(s.wait_target(q(99), true, true), None, "unknown query");
    }

    #[test]
    fn draining_the_waiting_spares_executing_queries_and_runs_in_id_order() {
        let mut s = shard();
        let (running, ..) = s.dequeue(false).unwrap();
        let mut cands: Vec<QueryId> = s.shed_candidates().map(|c| c.0).collect();
        cands.sort_unstable();
        let drained: Vec<QueryId> = s
            .drain(Some(QueryState::Waiting))
            .into_iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(drained, cands);
        assert_eq!(drained.len(), 2);
        assert_eq!(s.graph().state_of(running), Some(QueryState::Executing));
        assert!(s.record(running).is_some());
        s.validate(false).unwrap();
    }
}
