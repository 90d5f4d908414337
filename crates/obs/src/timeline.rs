//! Per-query lifecycle timelines reconstructed from the event log, plus
//! the extraction helpers the conformance harness compares.

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use crate::event::{EventKind, EventRecord};
use std::collections::BTreeMap;
use vmqs_core::QueryId;

/// How a query's lifecycle ended as the log shows it: which of the five
/// terminal events closed it. (The reason the engine had — which also
/// tells a hang, a quarantine and pool death apart — is
/// [`crate::Terminal`], which expands to these events.)
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Terminal {
    /// Completed successfully.
    Completed,
    /// Failed with an I/O error.
    Failed,
    /// Cancelled at its deadline.
    TimedOut,
    /// Refused at admission (queue full or rate limited).
    Rejected,
    /// Admitted but evicted by the load shedder.
    Shed,
}

/// One query's reconstructed lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct QueryTimeline {
    /// The query.
    pub query: QueryId,
    /// Submission time, if a `Submitted` event was logged.
    pub submitted: Option<f64>,
    /// Dequeue `(time, score)`, if a `Ranked` event was logged.
    pub ranked: Option<(f64, f64)>,
    /// Terminal event and its time, if one was logged.
    pub terminal: Option<(Terminal, f64)>,
    /// Data Store matches observed by this query's lookup.
    pub lookup_hits: u64,
    /// Pages obtained for this query.
    pub pages_read: u64,
    /// True when admission downgraded the query to its cheaper plan.
    pub degraded: bool,
    /// True when the query answered by grafting onto an in-flight peer.
    pub grafted: bool,
    /// Workers this query's compute killed (panics attributed to it).
    pub worker_panics: u64,
    /// True when the quarantine rule failed the query typed-ly.
    pub quarantined: bool,
}

impl QueryTimeline {
    /// Submission → terminal latency in seconds (any terminal kind).
    pub fn latency(&self) -> Option<f64> {
        match (self.submitted, self.terminal) {
            (Some(s), Some((_, t))) => Some(t - s),
            _ => None,
        }
    }
}

/// Reconstructs one timeline per query, ordered by query id. Later events
/// of a kind win for `ranked`/`terminal` (engines emit each at most once).
pub fn timelines(events: &[EventRecord]) -> Vec<QueryTimeline> {
    let mut map: BTreeMap<QueryId, QueryTimeline> = BTreeMap::new();
    for e in events {
        let t = map.entry(e.query).or_insert(QueryTimeline {
            query: e.query,
            submitted: None,
            ranked: None,
            terminal: None,
            lookup_hits: 0,
            pages_read: 0,
            degraded: false,
            grafted: false,
            worker_panics: 0,
            quarantined: false,
        });
        match e.kind {
            EventKind::Submitted => t.submitted = Some(e.time),
            EventKind::Ranked { score, .. } => t.ranked = Some((e.time, score)),
            EventKind::LookupHit { .. } => t.lookup_hits += 1,
            EventKind::PageRead { .. } => t.pages_read += 1,
            EventKind::Degraded => t.degraded = true,
            EventKind::Completed => t.terminal = Some((Terminal::Completed, e.time)),
            EventKind::Failed => t.terminal = Some((Terminal::Failed, e.time)),
            EventKind::TimedOut => t.terminal = Some((Terminal::TimedOut, e.time)),
            EventKind::Rejected { .. } => t.terminal = Some((Terminal::Rejected, e.time)),
            EventKind::Shed => t.terminal = Some((Terminal::Shed, e.time)),
            EventKind::Grafted { .. } => t.grafted = true,
            EventKind::WorkerPanicked => t.worker_panics += 1,
            EventKind::Quarantined { .. } => t.quarantined = true,
            EventKind::SubquerySpawned { .. }
            | EventKind::Evicted { .. }
            | EventKind::Spilled { .. }
            | EventKind::Restored { .. }
            | EventKind::WorkerRestarted
            | EventKind::Hung => {}
        }
    }
    map.into_values().collect()
}

/// Submission → completion latencies (seconds) of successfully completed
/// queries, in query-id order.
pub fn latencies(events: &[EventRecord]) -> Vec<f64> {
    timelines(events)
        .iter()
        .filter(|t| matches!(t.terminal, Some((Terminal::Completed, _))))
        .filter_map(|t| t.latency())
        .collect()
}

/// The `(query, score)` sequence of `Ranked` events in emission order —
/// the scheduler's dispatch decisions, which the conformance harness pins
/// across engines.
pub fn ranked_sequence(events: &[EventRecord]) -> Vec<(QueryId, f64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Ranked { score, .. } => Some((e.query, score)),
            _ => None,
        })
        .collect()
}

/// The overload policy's decision trace in emission order: one entry per
/// `Degraded`, `Rejected`, or `Shed` event, labeled with the stable event
/// label (`"degraded"` / `"rejected"` / `"shed"`). The conformance
/// harness pins this sequence across engines — identical admission,
/// degradation, and shed decisions at 1 worker.
pub fn admission_sequence(events: &[EventRecord]) -> Vec<(QueryId, &'static str)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Degraded | EventKind::Rejected { .. } | EventKind::Shed => {
                Some((e.query, e.kind.label()))
            }
            _ => None,
        })
        .collect()
}

/// The Data Store reuse edges `(consumer, source, exact)` in emission
/// order, one per `LookupHit`.
pub fn reuse_edges(events: &[EventRecord]) -> Vec<(QueryId, QueryId, bool)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LookupHit { source, exact, .. } => Some((e.query, source, exact)),
            _ => None,
        })
        .collect()
}

/// The graft edges `(consumer, producer)` in emission order, one per
/// `Grafted` event — reuse edges sourced from in-flight entries rather
/// than committed cache hits. The conformance harness pins these across
/// engines alongside [`reuse_edges`].
pub fn grafted_edges(events: &[EventRecord]) -> Vec<(QueryId, QueryId)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Grafted { producer } => Some((e.query, producer)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;

    fn sample_log() -> Vec<EventRecord> {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(0), EventKind::Submitted);
        log.log_at(0.0, QueryId(1), EventKind::Submitted);
        log.log_at(
            0.1,
            QueryId(0),
            EventKind::Ranked {
                strategy: "FIFO",
                score: 5.0,
            },
        );
        log.log_at(0.9, QueryId(0), EventKind::Completed);
        log.log_at(
            1.0,
            QueryId(1),
            EventKind::Ranked {
                strategy: "FIFO",
                score: 4.0,
            },
        );
        log.log_at(
            1.1,
            QueryId(1),
            EventKind::LookupHit {
                source: QueryId(0),
                overlap: 0.5,
                exact: false,
            },
        );
        log.log_at(
            1.2,
            QueryId(1),
            EventKind::PageRead {
                cached: false,
                retried: false,
            },
        );
        log.log_at(2.0, QueryId(1), EventKind::Failed);
        log.snapshot()
    }

    #[test]
    fn timelines_reconstruct_lifecycles() {
        let ts = timelines(&sample_log());
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].query, QueryId(0));
        assert_eq!(ts[0].terminal, Some((Terminal::Completed, 0.9)));
        assert_eq!(ts[0].latency(), Some(0.9));
        assert_eq!(ts[1].terminal, Some((Terminal::Failed, 2.0)));
        assert_eq!(ts[1].lookup_hits, 1);
        assert_eq!(ts[1].pages_read, 1);
    }

    #[test]
    fn latencies_cover_only_completions() {
        let lat = latencies(&sample_log());
        assert_eq!(lat, vec![0.9]);
    }

    #[test]
    fn ranked_sequence_and_reuse_edges_extract_in_order() {
        let ev = sample_log();
        assert_eq!(
            ranked_sequence(&ev),
            vec![(QueryId(0), 5.0), (QueryId(1), 4.0)]
        );
        assert_eq!(reuse_edges(&ev), vec![(QueryId(1), QueryId(0), false)]);
    }

    #[test]
    fn grafted_edges_extract_in_order_and_mark_timelines() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(0), EventKind::Submitted);
        log.log_at(0.0, QueryId(1), EventKind::Submitted);
        log.log_at(
            0.5,
            QueryId(1),
            EventKind::Grafted {
                producer: QueryId(0),
            },
        );
        log.log_at(0.9, QueryId(0), EventKind::Completed);
        log.log_at(1.0, QueryId(1), EventKind::Completed);
        let ev = log.snapshot();
        assert_eq!(grafted_edges(&ev), vec![(QueryId(1), QueryId(0))]);
        // Grafts are not LookupHits: the classic reuse-edge extraction
        // stays untouched.
        assert!(reuse_edges(&ev).is_empty());
        let ts = timelines(&ev);
        assert!(!ts[0].grafted);
        assert!(ts[1].grafted);
    }

    #[test]
    fn admission_sequence_and_overload_terminals() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(0), EventKind::Submitted);
        log.log_at(0.0, QueryId(0), EventKind::Degraded);
        log.log_at(0.1, QueryId(1), EventKind::Submitted);
        log.log_at(
            0.1,
            QueryId(1),
            EventKind::Rejected {
                rate_limited: false,
            },
        );
        log.log_at(0.2, QueryId(0), EventKind::Shed);
        let ev = log.snapshot();
        assert_eq!(
            admission_sequence(&ev),
            vec![
                (QueryId(0), "degraded"),
                (QueryId(1), "rejected"),
                (QueryId(0), "shed"),
            ]
        );
        let ts = timelines(&ev);
        assert!(ts[0].degraded);
        assert_eq!(ts[0].terminal.map(|(k, _)| k), Some(Terminal::Shed));
        assert_eq!(ts[1].terminal.map(|(k, _)| k), Some(Terminal::Rejected));
        // Rejected/shed queries never complete: no latency contribution.
        assert!(latencies(&ev).is_empty());
    }
}
