//! Query results and per-query execution records.

use std::sync::Arc;
use std::time::Duration;
use vmqs_core::QueryId;
use vmqs_microscope::VmQuery;

/// The answer delivered to a client. Generic over the application's
/// predicate type; defaults to the Virtual Microscope.
#[derive(Clone, Debug)]
pub struct QueryResult<S = VmQuery> {
    /// The query this answers.
    pub id: QueryId,
    /// Output image bytes (the application's encoding — row-major RGB for
    /// the microscope, grayscale for the volume app), shared with the Data
    /// Store's cached copy when one exists. `Arc<[u8]>` so handing the
    /// answer to the client and to the cache is a refcount bump, never a
    /// byte copy inside a critical section.
    pub image: Arc<[u8]>,
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
    /// Execution record for this query.
    pub record: QueryRecord<S>,
}

/// How a query was answered (for statistics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerPath {
    /// A cached result `cmp`-matched exactly.
    ExactHit,
    /// Partially projected from cached results, remainder computed.
    PartialReuse,
    /// Computed entirely from raw chunks.
    FullCompute,
    /// Answered entirely by grafting onto an in-flight peer: the query
    /// waited for an EXECUTING producer of this very predicate and
    /// consumed the bytes it published (DESIGN.md §13). An exact-match
    /// sibling of `ExactHit`, decided while the producer was in flight.
    Grafted,
}

/// Timing and reuse accounting for one executed query.
#[derive(Clone, Copy, Debug)]
pub struct QueryRecord<S = VmQuery> {
    /// The query.
    pub id: QueryId,
    /// The predicate.
    pub spec: S,
    /// Time spent queued (submission → dequeue).
    pub wait_time: Duration,
    /// Time spent executing (dequeue → completion), including any blocking
    /// on in-flight dependencies.
    pub exec_time: Duration,
    /// Of which: time blocked waiting for an EXECUTING dependency.
    pub blocked_time: Duration,
    /// How the answer was produced.
    pub path: AnswerPath,
    /// Output bytes obtained by projecting cached results.
    pub reused_bytes: u64,
    /// Fraction of the output area answered from cache, in `[0, 1]`
    /// (the "overlap" achieved; Fig. 5's metric).
    pub covered_fraction: f64,
    /// Pages this query asked the Page Space Manager for.
    pub pages_requested: u64,
    /// True when admission downgraded the query to its cheaper plan
    /// (Virtual Microscope: `Average` → `Subsample`) under pressure;
    /// `spec` is the degraded predicate that actually ran.
    pub degraded: bool,
}

impl<S> QueryRecord<S> {
    /// Response time = waiting + execution (the paper's Fig. 4/6 metric).
    pub fn response_time(&self) -> Duration {
        self.wait_time + self.exec_time
    }
}

/// Aggregate metrics over all completed queries, computed in place from
/// the server's records — the cheap way to poll progress or throughput
/// without copying per-query records out of the metrics lock.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSummary {
    /// Queries completed so far.
    pub completed: usize,
    /// Of which: answered entirely from an exact cached match.
    pub exact_hits: usize,
    /// Of which: partially projected from cached results.
    pub partial_reuse: usize,
    /// Of which: computed entirely from raw pages.
    pub full_compute: usize,
    /// Of which: answered by grafting onto an in-flight producer of the
    /// same predicate (DESIGN.md §13).
    pub grafted: usize,
    /// Full computes whose output already had a `cmp`-equivalent visible
    /// Data Store entry at publish time — redundant work a perfect
    /// co-scheduler would have avoided. Grafting plus producer-affinity
    /// dequeue is expected to drive this to 0 (ROADMAP item 1).
    pub duplicate_full_computes: u64,
    /// Total output bytes obtained by projecting cached results.
    pub reused_bytes: u64,
    /// Mean response time (wait + execution).
    pub mean_response: Duration,
    /// Median response time.
    pub p50_response: Duration,
    /// 95th-percentile response time.
    pub p95_response: Duration,
    /// Queries that failed with an error other than a timeout (these are
    /// *not* in `completed`).
    pub failed: usize,
    /// Queries cancelled at their per-query deadline.
    pub timed_out: usize,
    /// Queries refused at admission (queue full or rate limited).
    pub rejected: usize,
    /// Queries admitted but evicted by the load shedder.
    pub shed: usize,
    /// Completed queries that ran at degraded quality.
    pub degraded: usize,
    /// Data Store entries demoted to the tier-2 spill store (DESIGN.md
    /// §14) instead of dropped.
    pub spilled: u64,
    /// Spilled entries re-heated from tier 2 — each one an exact hit that
    /// cost a disk read instead of a recompute.
    pub restored: u64,
    /// Tier-2 reads that failed (poisoned or corrupt frame); the entry
    /// was dropped and the query fell back to recomputation.
    pub restore_failures: u64,
    /// Worker threads killed by a panicking compute (DESIGN.md §15).
    pub worker_panics: u64,
    /// Replacement workers spawned under the restart budget.
    pub worker_restarts: u64,
    /// Queries failed by the quarantine rule after their compute panicked
    /// `quarantine_limit` workers (a subset of `failed`).
    pub quarantined: usize,
    /// Queries cancelled by the hang watchdog (a subset of `timed_out`).
    pub hung: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, Rect};
    use vmqs_microscope::{SlideDataset, VmOp};

    #[test]
    fn response_time_is_wait_plus_exec() {
        let spec = VmQuery::new(
            SlideDataset::new(DatasetId(0), 100, 100),
            Rect::new(0, 0, 10, 10),
            1,
            VmOp::Subsample,
        );
        let r = QueryRecord {
            id: QueryId(1),
            spec,
            wait_time: Duration::from_millis(30),
            exec_time: Duration::from_millis(70),
            blocked_time: Duration::ZERO,
            path: AnswerPath::FullCompute,
            reused_bytes: 0,
            covered_fraction: 0.0,
            pages_requested: 1,
            degraded: false,
        };
        assert_eq!(r.response_time(), Duration::from_millis(100));
    }
}
