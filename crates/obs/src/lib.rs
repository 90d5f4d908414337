//! # vmqs-obs
//!
//! Observability layer shared by the threaded server and the
//! discrete-event simulator (DESIGN.md §9): a typed, append-only
//! [`EventLog`] of scheduler decisions, a [`MetricsRegistry`] of
//! counters/histograms/gauges exportable as JSON and Prometheus text,
//! and per-query lifecycle [`timeline`]s reconstructed from the log.
//!
//! Both engines emit the *same* event schema at the same semantic points
//! (submission, dequeue/rank, Data Store lookup, page reads, eviction,
//! termination), which is what makes the scheduler-conformance harness
//! possible: a seeded workload replayed through the simulator and a
//! single-worker server must produce identical `Ranked` score sequences
//! and identical Data Store reuse edges.
//!
//! ```
//! use vmqs_core::QueryId;
//! use vmqs_obs::{EventKind, Obs};
//!
//! let obs = Obs::new(true);
//! obs.log.log(QueryId(0), EventKind::Submitted);
//! obs.log.log(QueryId(0), EventKind::Completed);
//! let events = obs.log.snapshot();
//! assert_eq!(vmqs_obs::timeline::timelines(&events).len(), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod metrics;
pub mod timeline;

pub use event::{events_to_json, EventKind, EventLog, EventRecord, Terminal};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, QueryMetrics, RunTally,
};

/// The observability handle an engine threads through its components:
/// one event log plus one metrics registry.
#[derive(Debug)]
pub struct Obs {
    /// Typed scheduler event log. Recording is gated by the flag passed
    /// to [`Obs::new`]; a disabled log makes `log()` a no-op.
    pub log: EventLog,
    /// Always-on counters/histograms/gauges (cheap atomics).
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// Creates a handle; `events_enabled` gates event recording (metrics
    /// are always on).
    pub fn new(events_enabled: bool) -> Self {
        Obs {
            log: EventLog::new(events_enabled),
            metrics: MetricsRegistry::new(),
        }
    }
}
