//! Counters, histograms, gauges, and the registry with JSON/Prometheus
//! exposition.

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use crate::event::EventKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vmqs_core::sync::atomic::{AtomicU64, Ordering};
use vmqs_core::sync::{Arc, LockClass, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Exponential-ish bucket upper bounds (seconds) spanning 1 µs to 5 min —
/// wide enough for both the real engine and paper-scale virtual time.
const BOUNDS: [f64; 20] = [
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0,
];

/// A fixed-bucket histogram with atomic buckets, count, and sum; safe to
/// observe from many threads and snapshot mid-run.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>, // one per bound + overflow
    count: AtomicU64,
    sum_bits: AtomicU64, // f64 sum, CAS-updated via to_bits
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram over the default second-scale buckets.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..=BOUNDS.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one sample (negative samples clamp to zero).
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let idx = BOUNDS.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Release publishes the bucket increment above: a snapshot that
        // observes this sample in `count` (Acquire) also observes its
        // bucket, keeping `sum(buckets) >= count` — the invariant
        // `quantile` depends on. Checked by the `histogram_snapshot`
        // loom model; Relaxed here loses samples from buckets and
        // `quantile` spuriously reports +Inf.
        self.count.fetch_add(1, Ordering::Release);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Snapshot of buckets/count/sum. Concurrent `observe`s may or may
    /// not be included, but every sample included in `count` is present
    /// in `buckets` (so bucket sums are never behind the count).
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Count FIRST (Acquire, pairing with observe's Release), then
        // buckets: samples appended between the two reads can only
        // surplus the buckets, never deficit them. Reading buckets
        // before count reintroduces the deficit race this ordering
        // exists to prevent.
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            bounds: BOUNDS.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (exclusive of the `+Inf` overflow bucket).
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; `buckets.len() == bounds.len() + 1`, the
    /// last being the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean sample, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile (`q` in `[0, 1]`): the upper bound of
    /// the bucket containing the `q`-th sample; `f64::INFINITY` for the
    /// overflow bucket, `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

/// Pre-resolved handles for the per-query lifecycle metrics both engines
/// maintain, so hot paths skip the registry's name map.
#[derive(Clone, Debug)]
pub struct QueryMetrics {
    /// `vmqs_queries_submitted_total`
    pub submitted: Arc<Counter>,
    /// `vmqs_queries_completed_total`
    pub completed: Arc<Counter>,
    /// `vmqs_queries_failed_total`
    pub failed: Arc<Counter>,
    /// `vmqs_queries_timed_out_total`
    pub timed_out: Arc<Counter>,
    /// `vmqs_queries_rejected_total` — refused at admission (queue full
    /// or rate limited).
    pub rejected: Arc<Counter>,
    /// `vmqs_queries_shed_total` — admitted but evicted by the load
    /// shedder.
    pub shed: Arc<Counter>,
    /// `vmqs_queries_degraded_total` — downgraded to the cheaper plan at
    /// admission.
    pub degraded: Arc<Counter>,
    /// `vmqs_ds_exact_hits_total`
    pub ds_exact_hits: Arc<Counter>,
    /// `vmqs_ds_partial_hits_total`
    pub ds_partial_hits: Arc<Counter>,
    /// `vmqs_ds_misses_total`
    pub ds_misses: Arc<Counter>,
    /// `vmqs_queries_grafted_total` — queries answered with the bytes of
    /// an in-flight producer of the same predicate (DESIGN.md §13), the
    /// fourth answer path beside the three above.
    pub grafted: Arc<Counter>,
    /// `vmqs_reused_bytes_total` — output bytes completed queries took
    /// from cached or grafted results instead of computing them.
    pub reused_bytes: Arc<Counter>,
    /// `vmqs_ds_evictions_total`
    pub ds_evictions: Arc<Counter>,
    /// `vmqs_ds_spills_total` — entries demoted to the tier-2 spill
    /// store instead of dropped (DESIGN.md §14).
    pub ds_spills: Arc<Counter>,
    /// `vmqs_ds_restores_total` — entries re-heated from tier 2.
    pub ds_restores: Arc<Counter>,
    /// `vmqs_worker_panics_total` — worker threads killed by a panicking
    /// compute (DESIGN.md §15).
    pub worker_panics: Arc<Counter>,
    /// `vmqs_worker_restarts_total` — replacement workers spawned under
    /// the restart budget.
    pub worker_restarts: Arc<Counter>,
    /// `vmqs_queries_quarantined_total` — poison queries failed typed-ly
    /// after reaching the quarantine limit.
    pub quarantined: Arc<Counter>,
    /// `vmqs_queries_hung_total` — queries cancelled by the hang
    /// watchdog.
    pub hung: Arc<Counter>,
    /// `vmqs_queue_wait_seconds`
    pub queue_wait: Arc<Histogram>,
    /// `vmqs_service_time_seconds`
    pub service_time: Arc<Histogram>,
}

impl QueryMetrics {
    /// Resolves (registering on first use) the standard query metrics.
    pub fn resolve(reg: &MetricsRegistry) -> Self {
        QueryMetrics {
            submitted: reg.counter("vmqs_queries_submitted_total"),
            completed: reg.counter("vmqs_queries_completed_total"),
            failed: reg.counter("vmqs_queries_failed_total"),
            timed_out: reg.counter("vmqs_queries_timed_out_total"),
            rejected: reg.counter("vmqs_queries_rejected_total"),
            shed: reg.counter("vmqs_queries_shed_total"),
            degraded: reg.counter("vmqs_queries_degraded_total"),
            ds_exact_hits: reg.counter("vmqs_ds_exact_hits_total"),
            ds_partial_hits: reg.counter("vmqs_ds_partial_hits_total"),
            ds_misses: reg.counter("vmqs_ds_misses_total"),
            grafted: reg.counter("vmqs_queries_grafted_total"),
            reused_bytes: reg.counter("vmqs_reused_bytes_total"),
            ds_evictions: reg.counter("vmqs_ds_evictions_total"),
            ds_spills: reg.counter("vmqs_ds_spills_total"),
            ds_restores: reg.counter("vmqs_ds_restores_total"),
            worker_panics: reg.counter("vmqs_worker_panics_total"),
            worker_restarts: reg.counter("vmqs_worker_restarts_total"),
            quarantined: reg.counter("vmqs_queries_quarantined_total"),
            hung: reg.counter("vmqs_queries_hung_total"),
            queue_wait: reg.histogram("vmqs_queue_wait_seconds"),
            service_time: reg.histogram("vmqs_service_time_seconds"),
        }
    }

    /// Bumps the counter `kind` stands for, if it has one: the one place
    /// that ties an event to its counter, so a log and a snapshot of the
    /// same run cannot disagree. No `_` arm: a new event kind has to say
    /// here whether it is counted. (The `ds_{exact_hits,partial_hits,
    /// misses}` answer-path counters and `reused_bytes` have no event.)
    pub fn count(&self, kind: &EventKind) {
        let counter = match kind {
            EventKind::Submitted => &self.submitted,
            EventKind::Degraded => &self.degraded,
            EventKind::Completed => &self.completed,
            EventKind::Failed => &self.failed,
            EventKind::TimedOut => &self.timed_out,
            EventKind::Rejected { .. } => &self.rejected,
            EventKind::Shed => &self.shed,
            EventKind::Grafted { .. } => &self.grafted,
            EventKind::Evicted { .. } => &self.ds_evictions,
            EventKind::Spilled { .. } => &self.ds_spills,
            EventKind::Restored { .. } => &self.ds_restores,
            EventKind::WorkerPanicked => &self.worker_panics,
            EventKind::WorkerRestarted => &self.worker_restarts,
            EventKind::Quarantined { .. } => &self.quarantined,
            EventKind::Hung => &self.hung,
            EventKind::Ranked { .. }
            | EventKind::LookupHit { .. }
            | EventKind::SubquerySpawned { .. }
            | EventKind::PageRead { .. } => return,
        };
        counter.inc();
    }
}

/// The lifecycle counters of one run, as both engines report them
/// (`SimReport::tally`, `ServerSummary::tally`). Filled by
/// [`QueryMetrics::tally`] alone, from the counters
/// [`QueryMetrics::count`] bumps, so a report and a metrics snapshot of
/// the same run cannot disagree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunTally {
    /// Queries completed.
    pub completed: u64,
    /// Queries that ended in a typed failure other than a timeout
    /// (quarantined poison queries, WAITING work failed when the pool
    /// died, I/O errors).
    pub failed: u64,
    /// Queries cancelled at a deadline, hang-watchdog cancellations
    /// included.
    pub timed_out: u64,
    /// Queries refused at admission (queue full or rate limited).
    pub rejected: u64,
    /// Admitted queries evicted by the load shedder before starting.
    pub shed: u64,
    /// Queries downgraded to their cheaper plan at admission.
    pub degraded: u64,
    /// Data Store entries demoted to the tier-2 spill store instead of
    /// dropped (DESIGN.md §14). A demotion whose frame write then failed
    /// has no `Spilled` event and is not counted.
    pub spilled: u64,
    /// Spilled entries re-heated from tier 2: each one an exact hit that
    /// cost a disk read instead of a recompute.
    pub restored: u64,
    /// Workers killed by a panicking compute (DESIGN.md §15).
    pub worker_panics: u64,
    /// Replacement workers spawned under the restart budget.
    pub worker_restarts: u64,
    /// Queries failed by the quarantine rule (a subset of `failed`).
    pub quarantined: u64,
    /// Queries cancelled by the hang watchdog (a subset of `timed_out`).
    pub hung: u64,
}

impl QueryMetrics {
    /// The run's lifecycle counters, read once each.
    pub fn tally(&self) -> RunTally {
        RunTally {
            completed: self.completed.get(),
            failed: self.failed.get(),
            timed_out: self.timed_out.get(),
            rejected: self.rejected.get(),
            shed: self.shed.get(),
            degraded: self.degraded.get(),
            spilled: self.ds_spills.get(),
            restored: self.ds_restores.get(),
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            quarantined: self.quarantined.get(),
            hung: self.hung.get(),
        }
    }
}

/// A named registry of counters, histograms, and gauges. Handles are
/// `Arc`s resolved once (see [`QueryMetrics`]); the name maps are only
/// locked at resolve and snapshot time, one at a time.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Mutex::ranked(LockClass::ObsRegistry, BTreeMap::new()),
            histograms: Mutex::ranked(LockClass::ObsRegistry, BTreeMap::new()),
            gauges: Mutex::ranked(LockClass::ObsRegistry, BTreeMap::new()),
        }
    }

    /// Returns (registering if new) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Returns (registering if new) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Sets the gauge named `name` (registering if new).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauges.lock().insert(name.to_string(), value);
    }

    /// A point-in-time copy of every metric. Each map is copied under
    /// its own lock, in a statement of its own: the maps share a lock
    /// class, so holding two at once is a lock-order violation.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self.gauges.lock().clone();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], exportable as JSON or
/// Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// JSON object: counters and gauges flat, histograms with bucket
    /// arrays plus `count`/`sum`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{k}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{k}\": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{k}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.mean(),
                finite_or_max(h.quantile(0.50)),
                finite_or_max(h.quantile(0.95)),
                finite_or_max(h.quantile(0.99)),
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition format (`# TYPE` lines, `_bucket{le=}`
    /// series with a `+Inf` bucket, `_sum`, `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {k} counter\n{k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {k} gauge\n{k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {k} histogram");
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cum += n;
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{k}_bucket{{le=\"{b}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{k}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{k}_sum {}", h.sum);
            let _ = writeln!(out, "{k}_count {}", h.count);
        }
        out
    }
}

fn finite_or_max(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("vmqs_test_total");
        c.inc();
        c.add(4);
        // Resolving again returns the same underlying counter.
        assert_eq!(reg.counter("vmqs_test_total").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(0.002); // ≤ 2.5e-3 bucket
        }
        for _ in 0..10 {
            h.observe(2.0); // ≤ 2.5 bucket
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!((s.sum - (90.0 * 0.002 + 20.0)).abs() < 1e-9);
        assert_eq!(s.quantile(0.5), 2.5e-3);
        assert_eq!(s.quantile(0.99), 2.5);
        // Overflow bucket lands on +Inf.
        h.observe(1e9);
        assert!(h.snapshot().quantile(1.0).is_infinite());
        // Negative and non-finite samples clamp instead of corrupting.
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.snapshot().count, 103);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("vmqs_queries_submitted_total").add(7);
        reg.set_gauge("vmqs_ds_hit_ratio", 0.5);
        reg.histogram("vmqs_queue_wait_seconds").observe(0.01);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE vmqs_queries_submitted_total counter"));
        assert!(text.contains("vmqs_queries_submitted_total 7"));
        assert!(text.contains("# TYPE vmqs_ds_hit_ratio gauge"));
        assert!(text.contains("vmqs_ds_hit_ratio 0.5"));
        assert!(text.contains("# TYPE vmqs_queue_wait_seconds histogram"));
        assert!(text.contains("vmqs_queue_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("vmqs_queue_wait_seconds_count 1"));
        // Buckets are cumulative: the +Inf bucket equals the count.
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .unwrap()
            .to_string();
        assert!(inf_line.ends_with(" 1"));
    }

    #[test]
    fn json_snapshot_parses_structurally() {
        let reg = MetricsRegistry::new();
        reg.counter("vmqs_a_total").inc();
        reg.set_gauge("vmqs_g", 1.25);
        reg.histogram("vmqs_h_seconds").observe(0.2);
        let json = reg.snapshot().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"vmqs_a_total\": 1"));
        assert!(json.contains("\"vmqs_g\": 1.25"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn count_bumps_the_counter_an_event_stands_for_and_nothing_else() {
        let reg = MetricsRegistry::new();
        let qm = QueryMetrics::resolve(&reg);
        qm.count(&EventKind::Rejected { rate_limited: true });
        qm.count(&EventKind::Rejected {
            rate_limited: false,
        });
        qm.count(&EventKind::Hung);
        qm.count(&EventKind::PageRead {
            cached: true,
            retried: false,
        });
        let counted: Vec<(String, u64)> = reg
            .snapshot()
            .counters
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .collect();
        assert_eq!(
            counted,
            [
                ("vmqs_queries_hung_total".to_string(), 1),
                ("vmqs_queries_rejected_total".to_string(), 2)
            ]
        );
    }

    #[test]
    fn resolved_handle_structs_share_registry() {
        let reg = MetricsRegistry::new();
        let qm = QueryMetrics::resolve(&reg);
        qm.submitted.add(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["vmqs_queries_submitted_total"], 3);
    }
}
