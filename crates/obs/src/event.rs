//! Typed scheduler events and the append-only event log.

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use std::fmt::Write as _;
use std::time::Instant;
use vmqs_core::sync::atomic::{AtomicU64, Ordering};
use vmqs_core::sync::{LockClass, Mutex};
use vmqs_core::QueryId;

/// What happened to a query. One variant per schema point shared by the
/// threaded server and the simulator (DESIGN.md §9).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// The query entered the scheduling graph.
    Submitted,
    /// The query was dequeued for execution; `score` is its frozen rank
    /// under `strategy` at dequeue time.
    Ranked {
        /// Ranking strategy in force at dequeue.
        strategy: &'static str,
        /// The rank value the dequeue decision was based on.
        score: f64,
    },
    /// A Data Store lookup matched a cached result.
    LookupHit {
        /// The query that produced the matched result (reuse edge source).
        source: QueryId,
        /// Overlap fraction between the two predicates, in `[0, 1]`.
        overlap: f64,
        /// True when the match satisfies the query exactly.
        exact: bool,
    },
    /// The query grafted onto an in-flight peer: instead of recomputing,
    /// it waited for a producer of the same predicate that was still
    /// EXECUTING and consumed the bytes that producer published. A reuse
    /// edge like `LookupHit`, but decided from the in-flight query rather
    /// than found by a cache lookup.
    Grafted {
        /// The executing query whose output was consumed (edge source).
        producer: QueryId,
    },
    /// The application spawned sub-queries for the uncovered remainder.
    /// Both engines emit it after the query's page events: the simulator's
    /// plan counts the remainder's sub-queries as the server's executor
    /// does.
    SubquerySpawned {
        /// Number of sub-queries created.
        count: u64,
    },
    /// A page was obtained for this query.
    PageRead {
        /// True when the page was served from the Page Space (or an
        /// in-flight peer fetch) without new device I/O by this query.
        cached: bool,
        /// True when at least one transient fault was retried to get it.
        retried: bool,
    },
    /// The query's cached result was dropped from the Data Store for
    /// good (not spilled — a spill keeps the result reachable).
    Evicted {
        /// Tier the data was lost from: `1` = in-memory, `2` = the spill
        /// store.
        tier: u8,
        /// The victim's benefit-per-byte score at eviction time (`0`
        /// under the legacy recency policies before any costed commit).
        score: f64,
    },
    /// The query's cached result was demoted to the tier-2 spill store
    /// (still reachable: a later exact lookup restores it at disk cost).
    Spilled {
        /// Payload bytes moved to tier 2.
        bytes: u64,
    },
    /// The query's spilled result was re-heated from tier 2 into memory.
    Restored {
        /// Payload bytes moved back to tier 1.
        bytes: u64,
    },
    /// The query was downgraded to its cheaper plan at admission
    /// (Virtual Microscope: `Average` → `Subsample`) because pressure
    /// reached the degrade threshold.
    Degraded,
    /// Terminal: the query completed successfully.
    Completed,
    /// Terminal: the query failed with an I/O error.
    Failed,
    /// Terminal: the query was cancelled at its deadline.
    TimedOut,
    /// Terminal: admission refused the query (bounded queue full, or the
    /// client exceeded its token-bucket rate).
    Rejected {
        /// True when the per-client rate limiter rejected it; false when
        /// the admission queue was full.
        rate_limited: bool,
    },
    /// Terminal: the query was admitted but evicted from the waiting
    /// queue by the load shedder (largest `qinputsize` first).
    Shed,
    /// The worker computing this query died (panicked). Non-terminal:
    /// the query is either requeued for a sibling worker (followed by a
    /// fresh `Ranked` when re-dequeued) or quarantined (followed by
    /// `Quarantined` + `Failed`).
    WorkerPanicked,
    /// The query killed its last allowed worker (the per-query panic
    /// count reached the quarantine limit) and is failed typed-ly
    /// instead of being retried again. Non-terminal — the matching
    /// `Failed` event is the terminal one.
    Quarantined {
        /// Workers this query killed before being quarantined.
        attempts: u32,
    },
    /// A replacement worker thread was spawned for one that panicked
    /// (restart budget permitting). Attributed to the query whose
    /// compute killed the predecessor.
    WorkerRestarted,
    /// The query exceeded the hang timeout (wall clock on the server,
    /// virtual time in the sim) and was cancelled through the deadline
    /// machinery. Non-terminal — the matching `TimedOut` is terminal.
    Hung,
}

impl EventKind {
    /// Stable lower-snake label used in exports and assertions.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Ranked { .. } => "ranked",
            EventKind::LookupHit { .. } => "lookup_hit",
            EventKind::Grafted { .. } => "grafted",
            EventKind::SubquerySpawned { .. } => "subquery_spawned",
            EventKind::PageRead { .. } => "page_read",
            EventKind::Evicted { .. } => "evicted",
            EventKind::Spilled { .. } => "spilled",
            EventKind::Restored { .. } => "restored",
            EventKind::Degraded => "degraded",
            EventKind::Completed => "completed",
            EventKind::Failed => "failed",
            EventKind::TimedOut => "timed_out",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Shed => "shed",
            EventKind::WorkerPanicked => "worker_panicked",
            EventKind::Quarantined { .. } => "quarantined",
            EventKind::WorkerRestarted => "worker_restarted",
            EventKind::Hung => "hung",
        }
    }

    /// True for the terminal lifecycle events: a query ends in exactly
    /// one of Completed, Failed, TimedOut, Rejected, or Shed.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            EventKind::Completed
                | EventKind::Failed
                | EventKind::TimedOut
                | EventKind::Rejected { .. }
                | EventKind::Shed
        )
    }
}

/// Why a query's life ended, as the engine that ended it knows it. Owns
/// which events that end implies and in what order, so neither engine
/// spells the sequences out: the last event is always the one
/// [`EventKind::is_terminal`] event of the query.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Terminal {
    /// Answered.
    Completed,
    /// Failed with an I/O error (or lost with the worker that had
    /// already published it).
    Failed,
    /// Cancelled at its per-query deadline.
    TimedOut,
    /// Cancelled by the hang watchdog: `Hung`, then `TimedOut` (the
    /// watchdog rides the deadline machinery).
    Hung,
    /// Admitted, then evicted from the waiting queue by the load shedder.
    Shed,
    /// Refused by the admission ladder.
    Rejected {
        /// By the client's token bucket (else by the full queue).
        rate_limited: bool,
    },
    /// Failed at the quarantine limit: `Quarantined`, then `Failed`.
    Quarantined {
        /// Workers its compute killed.
        attempts: u32,
    },
    /// Failed because the whole worker pool died: nothing would run it.
    PoolDead,
}

impl Terminal {
    /// The events this end implies, in emission order.
    pub fn events(self) -> impl Iterator<Item = EventKind> {
        let (first, last) = match self {
            Terminal::Completed => (None, EventKind::Completed),
            Terminal::Failed | Terminal::PoolDead => (None, EventKind::Failed),
            Terminal::TimedOut => (None, EventKind::TimedOut),
            Terminal::Hung => (Some(EventKind::Hung), EventKind::TimedOut),
            Terminal::Shed => (None, EventKind::Shed),
            Terminal::Rejected { rate_limited } => (None, EventKind::Rejected { rate_limited }),
            Terminal::Quarantined { attempts } => {
                (Some(EventKind::Quarantined { attempts }), EventKind::Failed)
            }
        };
        first.into_iter().chain(std::iter::once(last))
    }
}

/// One logged event: a global sequence number (total order across the
/// run), a timestamp in seconds (real time since the log's origin for the
/// server, virtual time for the simulator), the query, and the kind.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// Global emission order.
    pub seq: u64,
    /// Seconds since the engine's time origin (monotone per query).
    pub time: f64,
    /// The query this event belongs to.
    pub query: QueryId,
    /// What happened.
    pub kind: EventKind,
}

const SHARDS: usize = 8;

/// An append-only log of [`EventRecord`]s. Writers take a global atomic
/// sequence number and push into one of a small set of sharded vectors, so
/// concurrent query threads rarely contend on the same mutex; a disabled
/// log reduces `log()` to a single branch.
#[derive(Debug)]
pub struct EventLog {
    enabled: bool,
    origin: Instant,
    seq: AtomicU64,
    shards: Vec<Mutex<Vec<EventRecord>>>,
}

impl EventLog {
    /// Creates a log; `enabled = false` makes every `log` call a no-op.
    pub fn new(enabled: bool) -> Self {
        EventLog {
            enabled,
            origin: vmqs_core::clock::now(),
            seq: AtomicU64::new(0),
            shards: (0..SHARDS)
                .map(|_| Mutex::ranked(LockClass::Events, Vec::new()))
                .collect(),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds elapsed since the log was created (the server's clock).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records an event stamped with the current real time.
    pub fn log(&self, query: QueryId, kind: EventKind) {
        if self.enabled {
            self.log_at(self.now(), query, kind);
        }
    }

    /// Records an event with an explicit timestamp (the simulator's
    /// virtual clock).
    pub fn log_at(&self, time: f64, query: QueryId, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shards[seq as usize % SHARDS].lock().push(EventRecord {
            seq,
            time,
            query,
            kind,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies all events out, ordered by global sequence number.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        let mut all: Vec<EventRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.lock().iter().copied());
        }
        all.sort_unstable_by_key(|e| e.seq);
        all
    }

    /// All events of one query, in sequence order.
    pub fn events_for(&self, query: QueryId) -> Vec<EventRecord> {
        let mut v: Vec<EventRecord> = self
            .snapshot()
            .into_iter()
            .filter(|e| e.query == query)
            .collect();
        v.sort_unstable_by_key(|e| e.seq);
        v
    }
}

/// Serializes events as a JSON array of objects, one per event, with the
/// kind's payload fields inlined (`strategy`/`score`, `source`/`overlap`/
/// `exact`, `count`, `cached`/`retried`).
pub fn events_to_json(events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(events.len() * 80 + 16);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"seq\": {}, \"time_s\": {:.9}, \"query\": {}, \"event\": \"{}\"",
            e.seq,
            e.time,
            e.query.raw(),
            e.kind.label()
        );
        match e.kind {
            EventKind::Ranked { strategy, score } => {
                let _ = write!(out, ", \"strategy\": \"{strategy}\", \"score\": {score}");
            }
            EventKind::LookupHit {
                source,
                overlap,
                exact,
            } => {
                let _ = write!(
                    out,
                    ", \"source\": {}, \"overlap\": {overlap}, \"exact\": {exact}",
                    source.raw()
                );
            }
            EventKind::Grafted { producer } => {
                let _ = write!(out, ", \"producer\": {}", producer.raw());
            }
            EventKind::SubquerySpawned { count } => {
                let _ = write!(out, ", \"count\": {count}");
            }
            EventKind::PageRead { cached, retried } => {
                let _ = write!(out, ", \"cached\": {cached}, \"retried\": {retried}");
            }
            EventKind::Rejected { rate_limited } => {
                let _ = write!(out, ", \"rate_limited\": {rate_limited}");
            }
            EventKind::Evicted { tier, score } => {
                let _ = write!(out, ", \"tier\": {tier}, \"score\": {score}");
            }
            EventKind::Spilled { bytes } | EventKind::Restored { bytes } => {
                let _ = write!(out, ", \"bytes\": {bytes}");
            }
            EventKind::Quarantined { attempts } => {
                let _ = write!(out, ", \"attempts\": {attempts}");
            }
            _ => {}
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::new(false);
        log.log(QueryId(1), EventKind::Submitted);
        log.log_at(3.0, QueryId(1), EventKind::Completed);
        assert!(log.is_empty());
        assert!(!log.enabled());
    }

    #[test]
    fn snapshot_orders_by_sequence() {
        let log = EventLog::new(true);
        for i in 0..40u64 {
            log.log_at(i as f64, QueryId(i % 4), EventKind::Submitted);
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 40);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(log.events_for(QueryId(2)).len(), 10);
    }

    #[test]
    fn concurrent_writers_keep_unique_seqs() {
        let log = std::sync::Arc::new(EventLog::new(true));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        log.log(QueryId(t), EventKind::Completed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 400);
        let mut seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers must be unique");
    }

    #[test]
    fn terminal_classification() {
        assert!(EventKind::Completed.is_terminal());
        assert!(EventKind::Failed.is_terminal());
        assert!(EventKind::TimedOut.is_terminal());
        assert!(EventKind::Rejected { rate_limited: true }.is_terminal());
        assert!(EventKind::Shed.is_terminal());
        assert!(!EventKind::Submitted.is_terminal());
        assert!(!EventKind::Evicted {
            tier: 1,
            score: 0.0
        }
        .is_terminal());
        assert!(!EventKind::Spilled { bytes: 1 }.is_terminal());
        assert!(!EventKind::Restored { bytes: 1 }.is_terminal());
        assert!(!EventKind::Degraded.is_terminal());
        // Failure-containment events are all non-terminal: the matching
        // Failed/TimedOut (or a successful retry's Completed) terminates.
        assert!(!EventKind::WorkerPanicked.is_terminal());
        assert!(!EventKind::Quarantined { attempts: 2 }.is_terminal());
        assert!(!EventKind::WorkerRestarted.is_terminal());
        assert!(!EventKind::Hung.is_terminal());
    }

    #[test]
    fn every_end_implies_exactly_one_terminal_event_and_it_comes_last() {
        let ends = [
            Terminal::Completed,
            Terminal::Failed,
            Terminal::TimedOut,
            Terminal::Hung,
            Terminal::Shed,
            Terminal::Rejected { rate_limited: true },
            Terminal::Quarantined { attempts: 3 },
            Terminal::PoolDead,
        ];
        for end in ends {
            let events: Vec<EventKind> = end.events().collect();
            let terminals = events.iter().filter(|e| e.is_terminal()).count();
            assert_eq!(terminals, 1, "{end:?}");
            assert!(events.last().is_some_and(|e| e.is_terminal()), "{end:?}");
        }
        let labels = |t: Terminal| t.events().map(|e| e.label()).collect::<Vec<_>>();
        assert_eq!(labels(Terminal::Hung), ["hung", "timed_out"]);
        assert_eq!(
            labels(Terminal::Quarantined { attempts: 2 }),
            ["quarantined", "failed"]
        );
        assert_eq!(labels(Terminal::PoolDead), ["failed"]);
    }

    #[test]
    fn chaos_events_label_and_export() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(4), EventKind::WorkerPanicked);
        log.log_at(0.1, QueryId(4), EventKind::WorkerRestarted);
        log.log_at(0.2, QueryId(4), EventKind::Quarantined { attempts: 3 });
        log.log_at(0.3, QueryId(5), EventKind::Hung);
        assert_eq!(EventKind::WorkerPanicked.label(), "worker_panicked");
        assert_eq!(
            EventKind::Quarantined { attempts: 0 }.label(),
            "quarantined"
        );
        assert_eq!(EventKind::WorkerRestarted.label(), "worker_restarted");
        assert_eq!(EventKind::Hung.label(), "hung");
        let json = events_to_json(&log.snapshot());
        assert!(json.contains("\"event\": \"worker_panicked\""));
        assert!(json.contains("\"event\": \"worker_restarted\""));
        assert!(json.contains("\"event\": \"quarantined\""));
        assert!(json.contains("\"attempts\": 3"));
        assert!(json.contains("\"event\": \"hung\""));
    }

    #[test]
    fn tier_events_label_and_export() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(1), EventKind::Spilled { bytes: 512 });
        log.log_at(0.1, QueryId(1), EventKind::Restored { bytes: 512 });
        log.log_at(
            0.2,
            QueryId(1),
            EventKind::Evicted {
                tier: 2,
                score: 0.125,
            },
        );
        assert_eq!(EventKind::Spilled { bytes: 0 }.label(), "spilled");
        assert_eq!(EventKind::Restored { bytes: 0 }.label(), "restored");
        let json = events_to_json(&log.snapshot());
        assert!(json.contains("\"event\": \"spilled\""));
        assert!(json.contains("\"bytes\": 512"));
        assert!(json.contains("\"event\": \"evicted\""));
        assert!(json.contains("\"tier\": 2"));
        assert!(json.contains("\"score\": 0.125"));
    }

    #[test]
    fn overload_events_export_with_payloads() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(7), EventKind::Submitted);
        log.log_at(0.0, QueryId(7), EventKind::Degraded);
        log.log_at(0.1, QueryId(8), EventKind::Rejected { rate_limited: true });
        log.log_at(0.2, QueryId(7), EventKind::Shed);
        let json = events_to_json(&log.snapshot());
        assert!(json.contains("\"event\": \"degraded\""));
        assert!(json.contains("\"event\": \"rejected\""));
        assert!(json.contains("\"rate_limited\": true"));
        assert!(json.contains("\"event\": \"shed\""));
    }

    #[test]
    fn grafted_event_labels_and_exports() {
        let log = EventLog::new(true);
        log.log_at(
            0.0,
            QueryId(3),
            EventKind::Grafted {
                producer: QueryId(1),
            },
        );
        let kind = EventKind::Grafted {
            producer: QueryId(1),
        };
        assert_eq!(kind.label(), "grafted");
        assert!(!kind.is_terminal());
        let json = events_to_json(&log.snapshot());
        assert!(json.contains("\"event\": \"grafted\""));
        assert!(json.contains("\"producer\": 1"));
    }

    #[test]
    fn json_export_inlines_payload_fields() {
        let log = EventLog::new(true);
        log.log_at(0.0, QueryId(0), EventKind::Submitted);
        log.log_at(
            0.5,
            QueryId(0),
            EventKind::Ranked {
                strategy: "CNBF",
                score: 2.5,
            },
        );
        log.log_at(
            1.0,
            QueryId(0),
            EventKind::LookupHit {
                source: QueryId(9),
                overlap: 0.25,
                exact: false,
            },
        );
        log.log_at(1.5, QueryId(0), EventKind::Completed);
        let json = events_to_json(&log.snapshot());
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"event\": \"ranked\""));
        assert!(json.contains("\"strategy\": \"CNBF\""));
        assert!(json.contains("\"source\": 9"));
        assert!(json.contains("\"overlap\": 0.25"));
        // Structurally balanced: one object per event, no trailing comma.
        assert_eq!(json.matches('{').count(), 4);
        assert_eq!(json.matches('}').count(), 4);
        assert!(!json.contains(",\n]"));
    }
}
