//! The query scheduling graph: a priority queue implemented as a directed
//! graph (paper §4).
//!
//! Vertices are queries annotated with `<rank, state>`; a directed edge
//! `e_{i,j}` with weight `w_{i,j} = overlap(q_i, q_j) · qoutsize(q_i)` means
//! q_j's answer can partially be computed from q_i's result. The dequeue
//! operation returns the WAITING node with the highest rank under the
//! configured [`Strategy`]; graph updates (insertion, state transitions,
//! swap-out) re-rank only the affected neighborhood, mirroring the paper's
//! incremental topological-sort maintenance.
//!
//! Insertion is incremental too: the graph keeps the Index Manager's
//! [`GridIndex`] over the footprints of its nodes, and a new query is
//! compared only against the nodes whose footprint intersects its own
//! (`O(overlapping nodes)`, not `O(V)`). By [`SpatialSpec`]'s contract
//! every other node has zero reuse in both directions, and the index
//! answers in ascending id order, so the edge lists (and with them the
//! float summation order inside [`Strategy::rank`]) are exactly those of
//! comparing against every node in id order.

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use crate::ids::QueryId;
use crate::rank::Rank;
use crate::spatial::{GridIndex, SpatialSpec};
use crate::state::QueryState;
use crate::strategy::{RankInputs, Strategy};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// A weighted edge endpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// The peer query on the other end of the edge.
    pub peer: QueryId,
    /// Reusable bytes across this edge (`w` in the paper).
    pub weight: f64,
}

#[derive(Debug)]
struct Node<S> {
    spec: S,
    state: QueryState,
    rank: Rank,
    arrival_seq: u64,
    qinputsize: u64,
    /// Edges `e_{self,k}`: k can reuse self's result.
    out_edges: Vec<Edge>,
    /// Edges `e_{k,self}`: self can reuse k's result.
    in_edges: Vec<Edge>,
}

/// Ordering key for the WAITING set: max rank first, then earliest arrival
/// (FIFO tie-break), then id for total order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct WaitKey(Rank, Reverse<u64>, QueryId);

/// Operation counters maintained by the graph, exposed for benchmarks and
/// experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Queries ever inserted.
    pub inserted: u64,
    /// Successful dequeue operations.
    pub dequeued: u64,
    /// Nodes removed via swap-out.
    pub swapped_out: u64,
    /// EXECUTING queries sent back to WAITING after their worker died.
    pub requeued: u64,
    /// Directed edges ever created.
    pub edges_created: u64,
    /// Individual node re-rank computations performed.
    pub reranks: u64,
    /// Pairwise overlap evaluations performed during inserts.
    pub overlap_evals: u64,
}

/// The scheduling graph / dynamic priority queue.
///
/// Generic over the application's predicate type `S`; all reuse reasoning
/// goes through the [`crate::QuerySpec`] metadata functions.
#[derive(Debug)]
pub struct SchedulingGraph<S: SpatialSpec> {
    strategy: Strategy,
    nodes: HashMap<QueryId, Node<S>>,
    /// Footprints of the nodes, for edge discovery in
    /// [`SchedulingGraph::insert`]. A node is filed when it is inserted
    /// and dropped in [`SchedulingGraph::swap_out`], the one place a node
    /// leaves; a node whose footprint is empty is never filed.
    index: GridIndex,
    waiting: BTreeSet<WaitKey>,
    arrival_counter: u64,
    stats: GraphStats,
}

impl<S: SpatialSpec> SchedulingGraph<S> {
    /// Creates an empty graph ranking with `strategy`, its footprint
    /// index at the threaded server's default `index_cell` (512 pixels).
    pub fn new(strategy: Strategy) -> Self {
        Self::with_index_cell(strategy, 512)
    }

    /// Creates an empty graph whose footprint index has cells of
    /// `index_cell` base-resolution pixels a side (pick roughly the
    /// footprint of a typical query; the cell size moves cost, never a
    /// decision).
    pub fn with_index_cell(strategy: Strategy, index_cell: u32) -> Self {
        SchedulingGraph {
            strategy,
            nodes: HashMap::new(),
            index: GridIndex::new(index_cell),
            waiting: BTreeSet::new(),
            arrival_counter: 0,
            stats: GraphStats::default(),
        }
    }

    /// The ranking strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Switches the ranking strategy at runtime, re-ranking every node —
    /// the hook used by the self-tuning controller of the paper's §6
    /// extension (1). `O(V + E)`.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
        self.recompute_all_ranks();
    }

    /// Operation counters.
    pub fn stats(&self) -> GraphStats {
        self.stats
    }

    /// Total nodes currently in the graph (all states except swapped-out,
    /// which are removed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of WAITING nodes.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Inserts a new WAITING query, creating edges to every current node
    /// with nonzero reuse in either direction and re-ranking affected
    /// WAITING neighbors (paper §4: steps (1)–(3) of new-query handling).
    /// Only nodes whose footprint intersects the new query's are
    /// evaluated.
    ///
    /// Panics if `id` is already present.
    pub fn insert(&mut self, id: QueryId, spec: S) {
        assert!(
            !self.nodes.contains_key(&id),
            "query {id} already in scheduling graph"
        );
        let arrival_seq = self.arrival_counter;
        self.arrival_counter += 1;
        self.stats.inserted += 1;

        let qinputsize = spec.qinputsize();

        // Discover reuse relationships against the nodes that can have
        // any. The index answers in ascending id order, which fixes the
        // order of the edge lists built here and so the float-summation
        // order inside `Strategy::rank` (strategies like CF scale weights
        // by α, making float addition order observable).
        let (dataset, footprint) = spec.region_key();
        let mut new_in: Vec<Edge> = Vec::new();
        let mut new_out: Vec<Edge> = Vec::new();
        let mut touched: Vec<QueryId> = Vec::new();
        let peers = self.index.query(dataset, &footprint);
        for peer_id in peers.into_iter().map(QueryId) {
            let peer = &self.nodes[&peer_id];
            self.stats.overlap_evals += 2;
            let w_peer_to_new = peer.spec.reuse_bytes(&spec) as f64;
            let w_new_to_peer = spec.reuse_bytes(&peer.spec) as f64;
            if w_peer_to_new > 0.0 {
                new_in.push(Edge {
                    peer: peer_id,
                    weight: w_peer_to_new,
                });
            }
            if w_new_to_peer > 0.0 {
                new_out.push(Edge {
                    peer: peer_id,
                    weight: w_new_to_peer,
                });
            }
            if w_peer_to_new > 0.0 || w_new_to_peer > 0.0 {
                touched.push(peer_id);
            }
        }
        self.stats.edges_created += (new_in.len() + new_out.len()) as u64;

        // Mirror the edges onto the peers.
        for e in &new_in {
            let peer = self.nodes.get_mut(&e.peer).unwrap();
            peer.out_edges.push(Edge {
                peer: id,
                weight: e.weight,
            });
        }
        for e in &new_out {
            let peer = self.nodes.get_mut(&e.peer).unwrap();
            peer.in_edges.push(Edge {
                peer: id,
                weight: e.weight,
            });
        }

        let node = Node {
            spec,
            state: QueryState::Waiting,
            rank: Rank::ZERO, // placeholder; computed below
            arrival_seq,
            qinputsize,
            out_edges: new_out,
            in_edges: new_in,
        };
        self.nodes.insert(id, node);
        // An empty footprint intersects nothing: the node gets no edges
        // and is not filed (the index refuses empty rectangles, and
        // submit must not panic on a degenerate predicate).
        if !footprint.is_empty() {
            self.index.insert(id.raw(), dataset, footprint);
        }

        self.enter_waiting(id);

        // The new edges may change neighbor ranks (e.g. MUF sees a new
        // WAITING dependent).
        if !self.strategy.is_static() {
            for peer in touched {
                self.rerank_if_waiting(peer);
            }
        }
    }

    /// Removes and returns the highest-ranked WAITING query, transitioning
    /// it to EXECUTING and re-ranking affected neighbors. `None` when no
    /// query is waiting.
    pub fn dequeue(&mut self) -> Option<QueryId> {
        let key = *self.waiting.iter().next_back()?;
        self.waiting.remove(&key);
        let id = key.2;
        self.transition(id, QueryState::Executing);
        self.stats.dequeued += 1;
        Some(id)
    }

    /// Highest-ranked WAITING query without dequeuing it.
    pub fn peek(&self) -> Option<(QueryId, Rank)> {
        self.waiting.iter().next_back().map(|k| (k.2, k.0))
    }

    /// The `k` highest-ranked WAITING queries (best first) without
    /// dequeuing them. Used by resource-aware scheduling policies that
    /// choose among the top candidates based on system state (paper §6,
    /// extension (3)).
    pub fn peek_top_k(&self, k: usize) -> Vec<(QueryId, Rank)> {
        self.waiting
            .iter()
            .rev()
            .take(k)
            .map(|key| (key.2, key.0))
            .collect()
    }

    /// Dequeues a *specific* WAITING query (moving it to EXECUTING),
    /// bypassing the rank order. Returns `false` when the query is not
    /// WAITING. Used by scheduling policies that override the top-ranked
    /// pick.
    pub fn dequeue_specific(&mut self, id: QueryId) -> bool {
        match self.nodes.get(&id) {
            Some(n) if n.state == QueryState::Waiting => {
                self.transition(id, QueryState::Executing);
                self.stats.dequeued += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks an EXECUTING query CACHED (its result is now reusable) and
    /// re-ranks affected neighbors.
    pub fn mark_cached(&mut self, id: QueryId) {
        self.transition(id, QueryState::Cached);
    }

    /// Sends an EXECUTING query back to WAITING — the supervision requeue
    /// (DESIGN.md §15): the worker running it died, so the query rejoins
    /// the dequeue index (fresh rank, original arrival order preserved)
    /// for a sibling worker to retry. Returns `false` when the query is
    /// absent or not EXECUTING.
    pub fn requeue(&mut self, id: QueryId) -> bool {
        match self.nodes.get(&id) {
            Some(n) if n.state == QueryState::Executing => {}
            _ => return false,
        }
        self.transition(id, QueryState::Waiting);
        // `transition` maintains the WAITING index only on *exit* from
        // WAITING; re-entry re-ranks and re-inserts here.
        self.enter_waiting(id);
        self.stats.requeued += 1;
        true
    }

    /// Removes a CACHED query whose result was evicted (SWAPPED_OUT): the
    /// node and all incident edges leave the graph and former neighbors are
    /// re-ranked (paper §4: "morphological transformation").
    pub fn swap_out(&mut self, id: QueryId) {
        let node = match self.nodes.remove(&id) {
            Some(n) => n,
            None => return,
        };
        debug_assert!(
            node.state == QueryState::Cached,
            "swap_out of non-cached node {id} in state {}",
            node.state
        );
        self.stats.swapped_out += 1;
        self.index.remove(id.raw());
        if node.state == QueryState::Waiting {
            self.waiting
                .remove(&WaitKey(node.rank, Reverse(node.arrival_seq), id));
        }
        let mut touched: Vec<QueryId> = Vec::new();
        for e in node.in_edges.iter().chain(node.out_edges.iter()) {
            if let Some(peer) = self.nodes.get_mut(&e.peer) {
                peer.in_edges.retain(|pe| pe.peer != id);
                peer.out_edges.retain(|pe| pe.peer != id);
                touched.push(e.peer);
            }
        }
        if !self.strategy.is_static() {
            touched.sort_unstable();
            touched.dedup();
            for peer in touched {
                self.rerank_if_waiting(peer);
            }
        }
    }

    /// Current state of a query, if present.
    pub fn state_of(&self, id: QueryId) -> Option<QueryState> {
        self.nodes.get(&id).map(|n| n.state)
    }

    /// Current rank of a query, if present.
    pub fn rank_of(&self, id: QueryId) -> Option<Rank> {
        self.nodes.get(&id).map(|n| n.rank)
    }

    /// The predicate of a query, if present.
    pub fn spec_of(&self, id: QueryId) -> Option<&S> {
        self.nodes.get(&id).map(|n| &n.spec)
    }

    /// Arrival sequence number of a query, if present.
    pub fn arrival_of(&self, id: QueryId) -> Option<u64> {
        self.nodes.get(&id).map(|n| n.arrival_seq)
    }

    /// Cached `qinputsize` of a query, if present (used by resource-aware
    /// dequeue policies without re-evaluating the spec).
    pub fn qinputsize_of(&self, id: QueryId) -> Option<u64> {
        self.nodes.get(&id).map(|n| n.qinputsize)
    }

    /// A query's edges as stored, `(in, out)`: each list in the order the
    /// rank function sums it (ascending peer id among the nodes present
    /// when the query arrived, later arrivals after them).
    pub fn edges_of(&self, id: QueryId) -> Option<(&[Edge], &[Edge])> {
        let n = self.nodes.get(&id)?;
        Some((&n.in_edges, &n.out_edges))
    }

    /// Queries whose results this query can reuse (`e_{k,id}`), sorted by
    /// descending weight.
    pub fn reuse_sources(&self, id: QueryId) -> Vec<Edge> {
        let mut v = self
            .nodes
            .get(&id)
            .map(|n| n.in_edges.clone())
            .unwrap_or_default();
        v.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap()
                .then(a.peer.cmp(&b.peer))
        });
        v
    }

    /// Queries that can reuse this query's result (`e_{id,k}`), sorted by
    /// descending weight.
    pub fn dependents(&self, id: QueryId) -> Vec<Edge> {
        let mut v = self
            .nodes
            .get(&id)
            .map(|n| n.out_edges.clone())
            .unwrap_or_default();
        v.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap()
                .then(a.peer.cmp(&b.peer))
        });
        v
    }

    /// Ids of all queries currently in a given state, in ascending order.
    pub fn ids_in_state(&self, state: QueryState) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.state == state)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Recomputes every node's rank from scratch and rebuilds the WAITING
    /// index. Exists for the incremental-vs-full re-ranking ablation and as
    /// a test oracle; `O(V + E)` per call.
    pub fn recompute_all_ranks(&mut self) {
        let mut ids: Vec<QueryId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        self.waiting.clear();
        for id in ids {
            if self.nodes[&id].state == QueryState::Waiting {
                self.enter_waiting(id);
            } else {
                let rank = self.compute_rank(id);
                self.nodes.get_mut(&id).unwrap().rank = rank;
            }
        }
    }

    /// Renders the graph in Graphviz DOT format (debugging aid).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph scheduling {\n");
        let mut ids: Vec<&QueryId> = self.nodes.keys().collect();
        ids.sort();
        for id in &ids {
            let n = &self.nodes[id];
            s.push_str(&format!(
                "  \"{id}\" [label=\"{id}\\n{} r={:.0}\"];\n",
                n.state,
                n.rank.value()
            ));
        }
        for id in &ids {
            let n = &self.nodes[id];
            let mut es = n.out_edges.clone();
            es.sort_by_key(|e| e.peer);
            for e in es {
                s.push_str(&format!(
                    "  \"{id}\" -> \"{}\" [label=\"{:.0}\"];\n",
                    e.peer, e.weight
                ));
            }
        }
        s.push_str("}\n");
        s
    }

    /// Internal consistency check (test/debug aid): edge mirroring, WAITING
    /// index membership, rank agreement with a from-scratch computation,
    /// and one footprint filed per node that has one.
    pub fn validate(&self) -> Result<(), String> {
        let mut footprints = 0;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "pass/fail cannot depend on the order; only which error is reported first can"
        )]
        for (&id, n) in &self.nodes {
            footprints += usize::from(!n.spec.region_key().1.is_empty());
            for e in &n.out_edges {
                let peer = self
                    .nodes
                    .get(&e.peer)
                    .ok_or_else(|| format!("{id} out-edge to missing {}", e.peer))?;
                if !peer
                    .in_edges
                    .iter()
                    .any(|pe| pe.peer == id && pe.weight == e.weight)
                {
                    return Err(format!("edge {id}->{} not mirrored", e.peer));
                }
            }
            let in_wait = self
                .waiting
                .contains(&WaitKey(n.rank, Reverse(n.arrival_seq), id));
            if (n.state == QueryState::Waiting) != in_wait {
                return Err(format!(
                    "node {id} state {} but waiting-set membership {in_wait}",
                    n.state
                ));
            }
            let fresh = self.compute_rank(id);
            if n.state == QueryState::Waiting && fresh != n.rank {
                return Err(format!(
                    "node {id} stale rank {:?} vs fresh {:?}",
                    n.rank, fresh
                ));
            }
        }
        if self.index.len() != footprints {
            let filed = self.index.len();
            return Err(format!("{filed} footprints filed for {footprints}"));
        }
        Ok(())
    }

    /// `id`'s rank from scratch.
    fn compute_rank(&self, id: QueryId) -> Rank {
        let node = &self.nodes[&id];
        let inputs = RankInputs {
            arrival_seq: node.arrival_seq,
            qinputsize: node.qinputsize,
        };
        let in_edges = node
            .in_edges
            .iter()
            .filter_map(|e| self.nodes.get(&e.peer).map(|p| (p.state, e.weight)));
        let out_edges = node
            .out_edges
            .iter()
            .filter_map(|e| self.nodes.get(&e.peer).map(|p| (p.state, e.weight)));
        self.strategy.rank(inputs, in_edges, out_edges)
    }

    fn rerank_if_waiting(&mut self, id: QueryId) {
        if self
            .nodes
            .get(&id)
            .is_some_and(|n| n.state == QueryState::Waiting)
        {
            let rank = self.compute_rank(id);
            self.set_rank(id, rank);
        }
    }

    /// Moves WAITING node `id` to `rank` in the dequeue index.
    fn set_rank(&mut self, id: QueryId, rank: Rank) {
        self.stats.reranks += 1;
        let node = self.nodes.get_mut(&id).unwrap();
        if rank != node.rank {
            let arrival = Reverse(node.arrival_seq);
            self.waiting.remove(&WaitKey(node.rank, arrival, id));
            self.waiting.insert(WaitKey(rank, arrival, id));
            node.rank = rank;
        }
    }

    /// Ranks node `id`, which has just become WAITING, and files it in the
    /// dequeue index.
    fn enter_waiting(&mut self, id: QueryId) {
        let rank = self.compute_rank(id);
        let node = self.nodes.get_mut(&id).unwrap();
        node.rank = rank;
        self.waiting
            .insert(WaitKey(rank, Reverse(node.arrival_seq), id));
    }

    fn transition(&mut self, id: QueryId, next: QueryState) {
        let node = self
            .nodes
            .get_mut(&id)
            .unwrap_or_else(|| panic!("transition of unknown query {id}"));
        let prev = node.state;
        debug_assert!(
            prev.can_transition_to(next),
            "illegal transition {prev} -> {next} for {id}"
        );
        node.state = next;
        // Leaving WAITING removes the node from the dequeue index.
        if prev == QueryState::Waiting {
            self.waiting
                .remove(&WaitKey(node.rank, Reverse(node.arrival_seq), id));
        }
        if self.strategy.is_static() {
            return;
        }
        let mut neighbors: Vec<QueryId> = node
            .in_edges
            .iter()
            .chain(node.out_edges.iter())
            .map(|e| e.peer)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        for peer in neighbors {
            self.rerank_if_waiting(peer);
        }
    }

    /// Like [`SchedulingGraph::dequeue`], but with the dequeue-time
    /// producer-affinity override (ROADMAP item 1): when the top-ranked
    /// query could be answered *entirely* by an earlier-arrived query that
    /// is still WAITING (`overlap == 1` on the in-edge), the producer is
    /// dequeued first, so that parallel workers do not pull a consumer
    /// ahead of its producer and duplicate the full computation. The walk
    /// follows producers-of-producers but always strictly decreases the
    /// arrival sequence, so it terminates even on mutual-overlap cliques.
    pub fn dequeue_preferring_producer(&mut self) -> Option<QueryId> {
        let (top, _) = self.peek()?;
        let mut chosen = top;
        while let Some(p) = self.full_coverage_waiting_producer(chosen) {
            chosen = p;
        }
        let ok = self.dequeue_specific(chosen);
        debug_assert!(ok, "peeked/walked node must be dequeueable");
        Some(chosen)
    }

    /// Earliest-arrived WAITING in-edge peer that fully covers `id`'s
    /// answer, if any.
    fn full_coverage_waiting_producer(&self, id: QueryId) -> Option<QueryId> {
        let node = self.nodes.get(&id)?;
        let mut best: Option<(u64, QueryId)> = None;
        for e in &node.in_edges {
            let p = match self.nodes.get(&e.peer) {
                Some(p) => p,
                None => continue,
            };
            if p.state != QueryState::Waiting || p.arrival_seq >= node.arrival_seq {
                continue;
            }
            if p.spec.overlap(&node.spec) < 1.0 {
                continue;
            }
            let key = (p.arrival_seq, e.peer);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::IntervalSpec;

    fn q(i: u64) -> QueryId {
        QueryId(i)
    }

    fn graph(strategy: Strategy) -> SchedulingGraph<IntervalSpec> {
        SchedulingGraph::new(strategy)
    }

    #[test]
    fn fifo_dequeues_in_arrival_order() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(500, 100, 1));
        g.insert(q(3), IntervalSpec::new(1000, 100, 1));
        assert_eq!(g.dequeue(), Some(q(1)));
        assert_eq!(g.dequeue(), Some(q(2)));
        assert_eq!(g.dequeue(), Some(q(3)));
        assert_eq!(g.dequeue(), None);
    }

    #[test]
    fn sjf_dequeues_shortest_first() {
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 1000, 1));
        g.insert(q(2), IntervalSpec::new(5000, 10, 1));
        g.insert(q(3), IntervalSpec::new(9000, 100, 1));
        assert_eq!(g.dequeue(), Some(q(2)));
        assert_eq!(g.dequeue(), Some(q(3)));
        assert_eq!(g.dequeue(), Some(q(1)));
    }

    #[test]
    fn insert_creates_bidirectional_edges_for_same_scale_overlap() {
        let mut g = graph(Strategy::Muf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(50, 100, 1));
        let src = g.reuse_sources(q(2));
        assert_eq!(src.len(), 1);
        assert_eq!(src[0].peer, q(1));
        assert_eq!(src[0].weight, 50.0);
        let deps = g.dependents(q(1));
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].peer, q(2));
        g.validate().unwrap();
    }

    #[test]
    fn non_invertible_transform_creates_one_directional_edge() {
        let mut g = graph(Strategy::Muf);
        // Fine result (scale 1) can serve the coarse query (scale 2), not
        // vice versa — like e_{2,4} in Fig. 3 of the paper.
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 2));
        assert_eq!(g.reuse_sources(q(2)).len(), 1);
        assert!(g.reuse_sources(q(1)).is_empty());
        assert_eq!(g.dependents(q(1)).len(), 1);
        assert!(g.dependents(q(2)).is_empty());
    }

    #[test]
    fn muf_prefers_most_useful() {
        let mut g = graph(Strategy::Muf);
        // q1 overlaps q3 and q4; q2 overlaps nothing.
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(10_000, 100, 1));
        g.insert(q(3), IntervalSpec::new(0, 100, 1));
        g.insert(q(4), IntervalSpec::new(50, 100, 1));
        // q1's result is fully reusable by q3 (identical) and partially by
        // q4; q1 should be dequeued first.
        assert_eq!(g.dequeue(), Some(q(1)));
        g.validate().unwrap();
    }

    #[test]
    fn state_transition_triggers_rerank_for_dynamic_strategy() {
        let mut g = graph(Strategy::Cnbf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 1));
        // Both ranks start at 0 (no cached/executing neighbors).
        assert_eq!(g.rank_of(q(2)).unwrap().value(), 0.0);
        // Dequeue q1 (FIFO tiebreak); its execution should *lower* q2's
        // CNBF rank (dependency on an executing node).
        assert_eq!(g.dequeue(), Some(q(1)));
        assert!(g.rank_of(q(2)).unwrap().value() < 0.0);
        // Once cached, q2's rank turns positive (reuse available).
        g.mark_cached(q(1));
        assert!(g.rank_of(q(2)).unwrap().value() > 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn cf_alpha_orders_executing_dependencies_between_cached_and_none() {
        let mut g = graph(Strategy::closest_first_default());
        // a will be cached, b executing, then three probes that depend on
        // exactly one of them (or nothing).
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(1000, 100, 1));
        assert_eq!(g.dequeue(), Some(q(1)));
        assert_eq!(g.dequeue(), Some(q(2)));
        g.mark_cached(q(1));
        g.insert(q(3), IntervalSpec::new(0, 100, 1)); // depends on cached q1
        g.insert(q(4), IntervalSpec::new(1000, 100, 1)); // depends on executing q2
        g.insert(q(5), IntervalSpec::new(9000, 100, 1)); // depends on nothing
        let r3 = g.rank_of(q(3)).unwrap().value();
        let r4 = g.rank_of(q(4)).unwrap().value();
        let r5 = g.rank_of(q(5)).unwrap().value();
        assert!(r3 > r4 && r4 > r5);
        assert_eq!(g.dequeue(), Some(q(3)));
    }

    #[test]
    fn ff_avoids_dependent_queries() {
        let mut g = graph(Strategy::FarthestFirst);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 1)); // depends on q1 (and vice versa)
        g.insert(q(3), IntervalSpec::new(9000, 100, 1)); // independent
                                                         // q3 has no incoming edges from waiting/executing nodes → rank 0;
                                                         // q1/q2 have negative ranks.
        assert_eq!(g.dequeue(), Some(q(3)));
        g.validate().unwrap();
    }

    #[test]
    fn swap_out_removes_node_and_edges_and_reranks() {
        let mut g = graph(Strategy::Cnbf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 1));
        assert_eq!(g.dequeue(), Some(q(1)));
        g.mark_cached(q(1));
        assert!(g.rank_of(q(2)).unwrap().value() > 0.0);
        g.swap_out(q(1));
        assert_eq!(g.len(), 1);
        assert!(g.state_of(q(1)).is_none());
        assert!(g.reuse_sources(q(2)).is_empty());
        // With the cached source gone, q2's CNBF rank falls back to 0.
        assert_eq!(g.rank_of(q(2)).unwrap().value(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn swap_out_missing_node_is_noop() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.swap_out(q(99));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn requeue_returns_executing_query_to_the_dequeue_index() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(5000, 100, 1));
        assert_eq!(g.dequeue(), Some(q(1)));
        // The worker running q1 "died": q1 rejoins the queue and, under
        // FIFO, dequeues again ahead of the later-arrived q2.
        assert!(g.requeue(q(1)));
        assert_eq!(g.state_of(q(1)), Some(QueryState::Waiting));
        g.validate().unwrap();
        assert_eq!(g.dequeue(), Some(q(1)));
        assert_eq!(g.dequeue(), Some(q(2)));
        assert_eq!(g.stats().requeued, 1);
    }

    #[test]
    fn requeue_recomputes_rank_against_current_graph() {
        let mut g = graph(Strategy::Cnbf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 1));
        assert_eq!(g.dequeue(), Some(q(1)));
        assert_eq!(g.dequeue(), Some(q(2)));
        g.mark_cached(q(1));
        // q2 re-enters WAITING with a fresh CNBF rank that sees the now
        // cached q1 (positive), not its stale dequeue-time rank.
        assert!(g.requeue(q(2)));
        assert!(g.rank_of(q(2)).unwrap().value() > 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn requeue_rejects_non_executing_queries() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        assert!(!g.requeue(q(1)), "WAITING query cannot be requeued");
        assert!(!g.requeue(q(99)), "unknown query cannot be requeued");
        assert_eq!(g.dequeue(), Some(q(1)));
        g.mark_cached(q(1));
        assert!(!g.requeue(q(1)), "CACHED query cannot be requeued");
        assert_eq!(g.stats().requeued, 0);
    }

    #[test]
    #[should_panic(expected = "already in scheduling graph")]
    fn duplicate_insert_panics() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
    }

    #[test]
    fn peek_matches_dequeue() {
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 1000, 1));
        g.insert(q(2), IntervalSpec::new(5000, 10, 1));
        let (peeked, _) = g.peek().unwrap();
        assert_eq!(g.dequeue(), Some(peeked));
    }

    #[test]
    fn stats_counters_track_operations() {
        let mut g = graph(Strategy::Muf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(50, 100, 1));
        g.dequeue();
        let s = g.stats();
        assert_eq!(s.inserted, 2);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.overlap_evals, 2);
        assert!(s.edges_created >= 2);
    }

    #[test]
    fn insert_compares_only_intersecting_footprints() {
        let mut g = graph(Strategy::Cnbf);
        for i in 0..50 {
            g.insert(q(i), IntervalSpec::new(1000 + i * 200, 100, 1));
        }
        assert_eq!(g.stats().overlap_evals, 0, "disjoint tiles never meet");
        g.insert(q(50), IntervalSpec::new(1050, 100, 1));
        assert_eq!(g.stats().overlap_evals, 2, "one peer, both directions");
        assert_eq!(g.reuse_sources(q(50))[0].peer, q(0));
        // A node that left no longer costs an evaluation.
        assert!(g.dequeue_specific(q(50)));
        g.mark_cached(q(50));
        g.swap_out(q(50));
        g.insert(q(51), IntervalSpec::new(1050, 100, 1));
        assert_eq!(g.stats().overlap_evals, 4);
        g.validate().unwrap();
    }

    /// A window over one dataset; unlike [`IntervalSpec`] it can be empty.
    #[derive(Clone, Debug)]
    struct Window(crate::geom::Rect);

    impl crate::spec::QuerySpec for Window {
        fn cmp(&self, other: &Self) -> bool {
            self.0 == other.0
        }
        fn overlap(&self, other: &Self) -> f64 {
            let area = other.0.area().max(1) as f64;
            self.0.intersection_area(&other.0) as f64 / area
        }
        fn qoutsize(&self) -> u64 {
            self.0.area()
        }
        fn qinputsize(&self) -> u64 {
            self.0.area()
        }
    }

    impl SpatialSpec for Window {
        fn region_key(&self) -> (crate::ids::DatasetId, crate::geom::Rect) {
            (crate::ids::DatasetId(0), self.0)
        }
    }

    #[test]
    fn empty_footprint_is_admitted_without_edges_or_panic() {
        use crate::geom::Rect;
        let mut g: SchedulingGraph<Window> = SchedulingGraph::with_index_cell(Strategy::Cnbf, 64);
        g.insert(q(1), Window(Rect::new(0, 0, 100, 100)));
        g.insert(q(2), Window(Rect::new(10, 10, 0, 50)));
        g.insert(q(3), Window(Rect::new(50, 50, 100, 100)));
        assert_eq!(g.edges_of(q(2)), Some((&[][..], &[][..])));
        assert_eq!(g.reuse_sources(q(3)).len(), 1, "only q1: q2 is not filed");
        g.validate().unwrap();
        // It still runs its whole life cycle like any other node.
        assert!(g.dequeue_specific(q(2)));
        g.mark_cached(q(2));
        g.swap_out(q(2));
        assert_eq!(g.len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn recompute_all_matches_incremental() {
        let mut g = graph(Strategy::Cnbf);
        for i in 0..20 {
            g.insert(q(i), IntervalSpec::new((i % 5) * 40, 100, 1 + (i % 2)));
        }
        for _ in 0..5 {
            let id = g.dequeue().unwrap();
            g.mark_cached(id);
        }
        // Only WAITING ranks are maintained incrementally (ranks of nodes
        // already dequeued no longer influence scheduling).
        let waiting: Vec<QueryId> = g.ids_in_state(QueryState::Waiting);
        let incr: Vec<_> = waiting.iter().map(|&i| g.rank_of(i).unwrap()).collect();
        g.recompute_all_ranks();
        let full: Vec<_> = waiting.iter().map(|&i| g.rank_of(i).unwrap()).collect();
        assert_eq!(incr, full);
        g.validate().unwrap();
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(50, 100, 1));
        let dot = g.to_dot();
        assert!(dot.contains("\"q1\""));
        assert!(dot.contains("\"q1\" -> \"q2\""));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn peek_top_k_orders_best_first() {
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 1000, 1));
        g.insert(q(2), IntervalSpec::new(5000, 10, 1));
        g.insert(q(3), IntervalSpec::new(9000, 100, 1));
        let top = g.peek_top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, q(2)); // shortest job first
        assert_eq!(top[1].0, q(3));
        assert!(top[0].1 >= top[1].1);
        // k larger than the waiting set is fine.
        assert_eq!(g.peek_top_k(10).len(), 3);
    }

    #[test]
    fn dequeue_specific_overrides_rank_order() {
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 1000, 1));
        g.insert(q(2), IntervalSpec::new(5000, 10, 1));
        assert!(g.dequeue_specific(q(1))); // not the top-ranked node
        assert_eq!(g.state_of(q(1)), Some(QueryState::Executing));
        assert_eq!(g.waiting_len(), 1);
        // Not waiting anymore: both re-dequeue and unknown ids fail.
        assert!(!g.dequeue_specific(q(1)));
        assert!(!g.dequeue_specific(q(99)));
        assert_eq!(g.dequeue(), Some(q(2)));
        g.validate().unwrap();
    }

    #[test]
    fn qinputsize_of_exposes_cached_value() {
        let mut g = graph(Strategy::Fifo);
        g.insert(q(1), IntervalSpec::new(0, 123, 1));
        assert_eq!(g.qinputsize_of(q(1)), Some(123));
        assert_eq!(g.qinputsize_of(q(9)), None);
    }

    #[test]
    fn producer_affinity_dequeues_producer_before_consumer() {
        // SJF ranks the (smaller) consumer above its producer even though
        // the producer fully covers it and arrived first — the out-of-order
        // dequeue that caused duplicate full computes (ROADMAP item 1).
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1)); // producer
        g.insert(q(2), IntervalSpec::new(0, 50, 1)); // consumer, shorter
        assert_eq!(g.peek().unwrap().0, q(2));
        assert_eq!(g.dequeue_preferring_producer(), Some(q(1)));
        assert_eq!(g.dequeue_preferring_producer(), Some(q(2)));
        g.validate().unwrap();
    }

    #[test]
    fn producer_affinity_walks_chains_and_terminates_on_equal_pairs() {
        let mut g = graph(Strategy::Sjf);
        // Identical specs: mutual full-coverage edges. The walk must pick
        // the earliest arrival and stop (arrival strictly decreases).
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(0, 100, 1));
        g.insert(q(3), IntervalSpec::new(0, 100, 1));
        assert_eq!(g.dequeue_preferring_producer(), Some(q(1)));
        assert_eq!(g.dequeue_preferring_producer(), Some(q(2)));
        assert_eq!(g.dequeue_preferring_producer(), Some(q(3)));
        assert_eq!(g.dequeue_preferring_producer(), None);
    }

    #[test]
    fn producer_affinity_ignores_partial_coverage() {
        let mut g = graph(Strategy::Sjf);
        g.insert(q(1), IntervalSpec::new(0, 100, 1));
        g.insert(q(2), IntervalSpec::new(50, 60, 1)); // only partly covered
        assert_eq!(g.peek().unwrap().0, q(2));
        // Partial producers are not worth delaying the top pick for.
        assert_eq!(g.dequeue_preferring_producer(), Some(q(2)));
    }

    #[test]
    fn ids_in_state_partitions_nodes() {
        let mut g = graph(Strategy::Fifo);
        for i in 0..6 {
            g.insert(q(i), IntervalSpec::new(i * 1000, 10, 1));
        }
        let a = g.dequeue().unwrap();
        let b = g.dequeue().unwrap();
        g.mark_cached(a);
        // Ascending ids, not the node map's order.
        let waiting: Vec<QueryId> = (2..6).map(q).collect();
        assert_eq!(g.ids_in_state(QueryState::Waiting), waiting);
        assert_eq!(g.ids_in_state(QueryState::Executing), vec![b]);
        assert_eq!(g.ids_in_state(QueryState::Cached), vec![a]);
    }
}
