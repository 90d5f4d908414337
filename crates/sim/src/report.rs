//! Simulation output: per-query records and aggregate report.

use crate::disk::DiskStats;
use vmqs_core::stats::{trimmed_mean_95, Summary};
use vmqs_core::{ClientId, GraphStats, QueryId};
use vmqs_datastore::DsStats;
use vmqs_microscope::VmQuery;
use vmqs_obs::RunTally;
use vmqs_pagespace::PsStats;

/// Execution record of one simulated query. Generic over the
/// application's predicate type; defaults to the Virtual Microscope.
#[derive(Clone, Copy, Debug)]
pub struct SimRecord<S = VmQuery> {
    /// The query.
    pub id: QueryId,
    /// Submitting client.
    pub client: ClientId,
    /// Predicate.
    pub spec: S,
    /// Submission time (virtual seconds).
    pub arrival: f64,
    /// Dequeue time (start of execution, including any blocked wait).
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Time spent blocked on an EXECUTING dependency.
    pub blocked: f64,
    /// Fraction of output answered from cached results, in `[0, 1]`.
    pub covered_fraction: f64,
    /// Output bytes obtained by projection from cache.
    pub reused_bytes: u64,
    /// Virtual seconds spent waiting for I/O (including disk queueing).
    pub io_time: f64,
    /// Virtual seconds of CPU work (kernel + projection + planning).
    pub cpu_time: f64,
    /// True when answered entirely by one exact cached match.
    pub exact_hit: bool,
    /// True when answered by grafting onto an in-flight producer: the
    /// query subscribed to an EXECUTING peer computing the same predicate
    /// and consumed the published result without its own lookup, I/O, or
    /// kernel time (DESIGN.md §13). Mutually exclusive with `exact_hit`.
    pub grafted: bool,
    /// True when admission downgraded the query to its cheaper plan
    /// (`spec` is the *degraded* predicate that actually executed).
    pub degraded: bool,
}

impl<S> SimRecord<S> {
    /// Queue wait: submission → dequeue.
    pub fn wait_time(&self) -> f64 {
        self.start - self.arrival
    }

    /// Execution span: dequeue → completion.
    pub fn exec_time(&self) -> f64 {
        self.finish - self.start
    }

    /// Response time = wait + execution (the paper's metric).
    pub fn response_time(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Aggregate output of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport<S = VmQuery> {
    /// Per-query records in completion order.
    pub records: Vec<SimRecord<S>>,
    /// Virtual time at which the last query completed.
    pub makespan: f64,
    /// Data Store counters.
    pub ds_stats: DsStats,
    /// Page Space counters, among them the transient faults the fault
    /// model injected and the retries charged for them (capped per page
    /// at the retry budget).
    pub ps_stats: PsStats,
    /// Scheduling-graph counters.
    pub graph_stats: GraphStats,
    /// Disk counters.
    pub disk_stats: DiskStats,
    /// Typed scheduler events stamped with virtual time, in emission
    /// order (empty unless `EngineConfig::observe` was set).
    pub events: Vec<vmqs_obs::EventRecord>,
    /// Metrics-registry snapshot taken at the end of the run.
    pub metrics: vmqs_obs::MetricsSnapshot,
    /// The run's lifecycle counters, read from the same function as the
    /// threaded server's (`QueryMetrics::tally`). Refused, shed and
    /// failed queries leave no [`SimRecord`]; every hung query is also
    /// counted in `timed_out`, mirroring the threaded engine's timeout
    /// fold.
    pub tally: RunTally,
    /// Queries answered by grafting onto an in-flight producer.
    pub grafted: u64,
    /// Output bytes produced by computation rather than reuse, summed
    /// over all completed queries — the cache-pressure sweep's headline
    /// metric (fewer recomputed bytes = the eviction policy kept the
    /// right entries).
    pub recomputed_bytes: u64,
}

impl<S> SimReport<S> {
    /// Response times of all queries.
    pub fn response_times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.response_time()).collect()
    }

    /// The paper's headline statistic: 95%-trimmed mean of query response
    /// time.
    pub fn trimmed_mean_response(&self) -> f64 {
        trimmed_mean_95(&self.response_times())
    }

    /// Full summary of response times.
    pub fn response_summary(&self) -> Summary {
        Summary::of(&self.response_times())
    }

    /// Average achieved overlap (fraction of output answered from cache),
    /// the Fig. 5 metric.
    pub fn average_overlap(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.covered_fraction).sum::<f64>() / self.records.len() as f64
    }

    /// Mean time spent blocked on executing dependencies.
    pub fn mean_blocked(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.blocked).sum::<f64>() / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, Rect};
    use vmqs_microscope::{SlideDataset, VmOp};

    fn rec(arrival: f64, start: f64, finish: f64, covered: f64) -> SimRecord {
        SimRecord {
            id: QueryId(0),
            client: ClientId(0),
            spec: VmQuery::new(
                SlideDataset::new(DatasetId(0), 100, 100),
                Rect::new(0, 0, 10, 10),
                1,
                VmOp::Subsample,
            ),
            arrival,
            start,
            finish,
            blocked: 0.0,
            covered_fraction: covered,
            reused_bytes: 0,
            io_time: 0.0,
            cpu_time: 0.0,
            exact_hit: false,
            grafted: false,
            degraded: false,
        }
    }

    #[test]
    fn record_time_arithmetic() {
        let r = rec(1.0, 3.0, 10.0, 0.5);
        assert_eq!(r.wait_time(), 2.0);
        assert_eq!(r.exec_time(), 7.0);
        assert_eq!(r.response_time(), 9.0);
    }

    #[test]
    fn report_aggregates() {
        let report = SimReport {
            records: vec![rec(0.0, 0.0, 2.0, 0.2), rec(0.0, 1.0, 5.0, 0.6)],
            makespan: 5.0,
            ds_stats: DsStats::default(),
            ps_stats: PsStats::default(),
            graph_stats: GraphStats::default(),
            disk_stats: DiskStats::default(),
            events: Vec::new(),
            metrics: vmqs_obs::MetricsSnapshot::default(),
            tally: RunTally::default(),
            grafted: 0,
            recomputed_bytes: 0,
        };
        assert_eq!(report.response_times(), vec![2.0, 5.0]);
        assert!((report.average_overlap() - 0.4).abs() < 1e-12);
        assert!((report.trimmed_mean_response() - 3.5).abs() < 1e-12);
        assert_eq!(report.mean_blocked(), 0.0);
    }
}
