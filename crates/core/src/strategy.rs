//! The six query-ranking strategies of the paper (§4), plus the combined
//! strategy its conclusions propose (§6).
//!
//! A strategy maps a scheduling-graph node — its arrival order, its input
//! size, and the states/weights of its neighbors — to a [`Rank`]; the
//! dequeue operation always picks the WAITING node with the highest rank
//! (ties broken by arrival order, i.e. FIFO is every strategy's tiebreak).

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use crate::rank::Rank;
use crate::state::QueryState;
use std::fmt;

/// Per-node inputs to rank computation that do not involve edges.
#[derive(Clone, Copy, Debug)]
pub struct RankInputs {
    /// Monotone arrival sequence number (0 = first query ever submitted).
    pub arrival_seq: u64,
    /// `qinputsize` in bytes — SJF's execution-time estimate.
    pub qinputsize: u64,
}

/// A ranking strategy. See the paper §4 for the per-strategy intuition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Strategy {
    /// 1. First-In First-Out: serve queries in arrival order (fairness).
    Fifo,
    /// 2. Most Useful First: `r_i = Σ_{k: e_{i,k}, s_k = WAITING} w_{i,k}` —
    ///    run the query whose result the most waiting bytes depend on.
    Muf,
    /// 3. Farthest First: `r_i = −Σ_{k: e_{k,i}, s_k ∈ {WAITING, EXECUTING}}
    ///    w_{k,i}` — avoid scheduling queries likely to block on unfinished
    ///    dependencies.
    FarthestFirst,
    /// 4. Closest First: `r_i = Σ_{j: e_{j,i}, s_j = CACHED} w_{j,i} + α ·
    ///    Σ_{k: e_{k,i}, s_k = EXECUTING} w_{k,i}` with `0 < α < 1` — chase
    ///    locality with cached (or soon-cached) results.
    ClosestFirst {
        /// Weight for dependencies on still-executing results (paper
        /// hand-tunes this; the evaluation fixes α = 0.2).
        alpha: f64,
    },
    /// 5. Closest and Non-Blocking First: `r_i = Σ_{k: e_{k,i}, s_k =
    ///    CACHED} w_{k,i} − Σ_{j: e_{j,i}, s_j = EXECUTING} w_{j,i}` — locality
    ///    without paying for blocking on in-flight results.
    Cnbf,
    /// 6. Shortest Job First: rank by (negated) estimated execution time,
    ///    estimated by `qinputsize`.
    Sjf,
    /// §6 extension: a weighted combination of SJF and CNBF. The rank is
    /// `cnbf_weight · r_CNBF − sjf_weight · qinputsize`; both terms are in
    /// bytes, so the weights trade reuse-bytes against scan-bytes directly.
    Hybrid {
        /// Multiplier on the CNBF (locality) component.
        cnbf_weight: f64,
        /// Multiplier on the SJF (job length) component.
        sjf_weight: f64,
    },
}

impl Strategy {
    /// The paper's evaluated CF configuration (α = 0.2).
    pub fn closest_first_default() -> Strategy {
        Strategy::ClosestFirst { alpha: 0.2 }
    }

    /// A balanced hybrid (equal byte-for-byte weight on reuse and job size).
    pub fn hybrid_default() -> Strategy {
        Strategy::Hybrid {
            cnbf_weight: 1.0,
            sjf_weight: 1.0,
        }
    }

    /// All six strategies of the paper's evaluation, in presentation order.
    pub fn paper_set() -> [Strategy; 6] {
        [
            Strategy::Fifo,
            Strategy::Muf,
            Strategy::FarthestFirst,
            Strategy::closest_first_default(),
            Strategy::Cnbf,
            Strategy::Sjf,
        ]
    }

    /// Short machine-friendly name (used in experiment CSV output).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Fifo => "FIFO",
            Strategy::Muf => "MUF",
            Strategy::FarthestFirst => "FF",
            Strategy::ClosestFirst { .. } => "CF",
            Strategy::Cnbf => "CNBF",
            Strategy::Sjf => "SJF",
            Strategy::Hybrid { .. } => "HYBRID",
        }
    }

    /// True when a node's rank never changes after insertion (no dependence
    /// on neighbor states). The graph skips re-ranking neighbors on state
    /// transitions for these strategies.
    pub fn is_static(&self) -> bool {
        matches!(self, Strategy::Fifo | Strategy::Sjf)
    }

    /// Computes the rank of a node.
    ///
    /// `in_edges` iterates `(state of k, w_{k,i})` over edges *into* the
    /// node (`e_{k,i}`: node i can reuse k's result); `out_edges` iterates
    /// `(state of k, w_{i,k})` over edges *out of* the node (`e_{i,k}`:
    /// k can reuse i's result).
    pub fn rank<I, O>(&self, inputs: RankInputs, in_edges: I, out_edges: O) -> Rank
    where
        I: IntoIterator<Item = (QueryState, f64)>,
        O: IntoIterator<Item = (QueryState, f64)>,
    {
        use QueryState::*;
        let v = match *self {
            // Earlier arrivals get strictly higher ranks.
            Strategy::Fifo => -(inputs.arrival_seq as f64),
            Strategy::Muf => out_edges
                .into_iter()
                .filter(|&(s, _)| s == Waiting)
                .map(|(_, w)| w)
                .sum(),
            Strategy::FarthestFirst => -in_edges
                .into_iter()
                .filter(|&(s, _)| s == Waiting || s == Executing)
                .map(|(_, w)| w)
                .sum::<f64>(),
            Strategy::ClosestFirst { alpha } => in_edges
                .into_iter()
                .map(|(s, w)| match s {
                    Cached => w,
                    Executing => alpha * w,
                    _ => 0.0,
                })
                .sum(),
            Strategy::Cnbf => in_edges
                .into_iter()
                .map(|(s, w)| match s {
                    Cached => w,
                    Executing => -w,
                    _ => 0.0,
                })
                .sum(),
            Strategy::Sjf => -(inputs.qinputsize as f64),
            Strategy::Hybrid {
                cnbf_weight,
                sjf_weight,
            } => {
                let cnbf: f64 = in_edges
                    .into_iter()
                    .map(|(s, w)| match s {
                        Cached => w,
                        Executing => -w,
                        _ => 0.0,
                    })
                    .sum();
                cnbf_weight * cnbf - sjf_weight * inputs.qinputsize as f64
            }
        };
        Rank::new(v)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::ClosestFirst { alpha } => write!(f, "CF(α={alpha})"),
            Strategy::Hybrid {
                cnbf_weight,
                sjf_weight,
            } => write!(f, "HYBRID(cnbf={cnbf_weight},sjf={sjf_weight})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use QueryState::*;

    fn inputs(seq: u64, insize: u64) -> RankInputs {
        RankInputs {
            arrival_seq: seq,
            qinputsize: insize,
        }
    }

    const NO_EDGES: [(QueryState, f64); 0] = [];

    #[test]
    fn fifo_prefers_earlier_arrival() {
        let s = Strategy::Fifo;
        let r0 = s.rank(inputs(0, 10), NO_EDGES, NO_EDGES);
        let r1 = s.rank(inputs(1, 10), NO_EDGES, NO_EDGES);
        assert!(r0 > r1);
    }

    #[test]
    fn sjf_prefers_smaller_input() {
        let s = Strategy::Sjf;
        let small = s.rank(inputs(5, 100), NO_EDGES, NO_EDGES);
        let big = s.rank(inputs(0, 1000), NO_EDGES, NO_EDGES);
        assert!(small > big);
    }

    #[test]
    fn muf_counts_only_waiting_out_edges() {
        let s = Strategy::Muf;
        let out = [(Waiting, 10.0), (Executing, 100.0), (Cached, 100.0)];
        let r = s.rank(inputs(0, 0), NO_EDGES, out);
        assert_eq!(r.value(), 10.0);
    }

    #[test]
    fn ff_penalizes_waiting_and_executing_in_edges() {
        let s = Strategy::FarthestFirst;
        let ins = [(Waiting, 5.0), (Executing, 7.0), (Cached, 100.0)];
        let r = s.rank(inputs(0, 0), ins, NO_EDGES);
        assert_eq!(r.value(), -12.0);
    }

    #[test]
    fn cf_weights_executing_by_alpha() {
        let s = Strategy::ClosestFirst { alpha: 0.2 };
        let ins = [(Cached, 10.0), (Executing, 10.0), (Waiting, 10.0)];
        let r = s.rank(inputs(0, 0), ins, NO_EDGES);
        assert!((r.value() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn cnbf_subtracts_executing() {
        let s = Strategy::Cnbf;
        let ins = [(Cached, 10.0), (Executing, 4.0), (Waiting, 99.0)];
        let r = s.rank(inputs(0, 0), ins, NO_EDGES);
        assert_eq!(r.value(), 6.0);
    }

    #[test]
    fn hybrid_mixes_cnbf_and_sjf() {
        let s = Strategy::Hybrid {
            cnbf_weight: 1.0,
            sjf_weight: 1.0,
        };
        let ins = [(Cached, 100.0)];
        let r = s.rank(inputs(0, 40), ins, NO_EDGES);
        assert_eq!(r.value(), 60.0);
        // Pure-SJF behaviour when there are no reuse edges.
        let r2 = s.rank(inputs(0, 40), NO_EDGES, NO_EDGES);
        assert_eq!(r2.value(), -40.0);
    }

    #[test]
    fn static_strategies_flagged() {
        assert!(Strategy::Fifo.is_static());
        assert!(Strategy::Sjf.is_static());
        assert!(!Strategy::Muf.is_static());
        assert!(!Strategy::Cnbf.is_static());
        assert!(!Strategy::closest_first_default().is_static());
        assert!(!Strategy::FarthestFirst.is_static());
        assert!(!Strategy::hybrid_default().is_static());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Strategy::Fifo.name(), "FIFO");
        assert_eq!(Strategy::closest_first_default().name(), "CF");
        assert_eq!(Strategy::closest_first_default().to_string(), "CF(α=0.2)");
        assert_eq!(Strategy::paper_set().len(), 6);
    }
}
