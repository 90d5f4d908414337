//! The settings both engines share (DESIGN.md §3).
//!
//! The threaded server and the simulator run one scheduler, so most of
//! what configures them is one setting, not two: the ranking strategy,
//! the pool size, both memory budgets and the containment knobs.
//! [`EngineConfig`] declares, defaults and validates each of them once;
//! `vmqs_server::ServerConfig` and `vmqs_sim::SimConfig` embed it and
//! keep only what is theirs.

use crate::{ChaosConfig, OverloadConfig, RetryPolicy, Strategy};
use std::time::Duration;

/// Which blob to evict first when space is needed. (Largest-first and
/// most-recently-used were measured and retired: EXPERIMENTS.md X4.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least recently used first (default; what a buffer manager would do).
    Lru,
    /// Benefit-aware (DESIGN.md §14): evict the entry with the smallest
    /// `vmqs_datastore::benefit_score` — recomputation cost × observed
    /// reuse per byte — i.e. the greedy knapsack approximation of keeping
    /// the set of entries whose retention saves the most recomputation
    /// per byte of budget. Inserts additionally run admission control: a
    /// new entry whose score cannot beat every victim it would displace
    /// is rejected instead of churning the cache.
    CostBased,
}

/// The seventeen settings the threaded server and the simulator share.
/// Each builder is the one place its setting is validated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Ranking strategy for the scheduling graph.
    pub strategy: Strategy,
    /// Query threads = maximum concurrently executing queries (paper §2:
    /// "typically the number of processors available in the SMP"; §5
    /// varies it from 1 to 24). At least 1.
    pub threads: usize,
    /// Data Store budget in bytes (0 disables result caching).
    pub ds_budget: u64,
    /// Page Space budget in bytes.
    pub ps_budget: u64,
    /// Whether a query may block waiting for an EXECUTING query whose
    /// result it can reuse (guarded by the deadlock-avoidance check). When
    /// false, overlapping in-flight work is simply recomputed.
    pub allow_blocking: bool,
    /// Data Store eviction policy (LRU in the paper's system).
    pub ds_policy: EvictionPolicy,
    /// Cell side (base-resolution pixels) of the Data Store's grid index.
    /// Pick roughly the footprint of a typical cached result. Positive.
    pub index_cell: u32,
    /// Retry policy for transient page-read faults (DESIGN.md §8). The
    /// simulator charges the retries it would pay in virtual time.
    pub retry: RetryPolicy,
    /// Record typed scheduler events in the observability log (DESIGN.md
    /// §9). Metrics counters are always on; this gates only the event log.
    pub observe: bool,
    /// Hold dispatch until the whole batch is in the scheduling graph.
    /// The server starts its pool paused until
    /// `QueryServer::resume_workers`; the simulator defers dequeuing while
    /// further same-time arrivals are pending. The scheduler-conformance
    /// harness replays one engine against the other under it.
    pub start_paused: bool,
    /// Overload management: bounded admission, per-client rate limiting,
    /// degradation, and shedding (DESIGN.md §10). Both engines run the
    /// same admission ladder. Disabled by default.
    pub overload: OverloadConfig,
    /// Grafting onto in-flight queries (DESIGN.md §13): a dequeued query
    /// whose answer an EXECUTING peer is already computing waits for that
    /// producer, whatever `allow_blocking` says, and consumes the result
    /// it publishes instead of recomputing. Also switches dequeue to the
    /// producer-affinity order so a consumer never runs ahead of a
    /// same-predicate producer. Disabled by default.
    pub graft: bool,
    /// Tier-2 spill budget in bytes (DESIGN.md §14; 0 disables). Data
    /// Store victims then demote to the RESTORABLE phase instead of
    /// dropping, until tier 2 itself overflows. The server also needs a
    /// spill directory; the simulator's tier 2 is virtual.
    pub tier2_budget: u64,
    /// Seeded process-failure injection (DESIGN.md §15): poison queries
    /// whose compute panics the worker, panic-at-nth-compute, and spill
    /// kill-points, keyed so the same failure edges fire in both engines.
    /// No-op by default.
    pub chaos: ChaosConfig,
    /// Hang watchdog: a query stuck in execution longer than this (wall
    /// clock on the server, virtual time in the simulator) is cancelled
    /// through the deadline machinery and reported hung (folded into
    /// `timed_out`). Positive; `None` disables.
    pub hang_timeout: Option<Duration>,
    /// How many replacement workers may be spawned for panicked ones over
    /// the run. Once exhausted, further panics shrink the pool; if the
    /// whole pool dies, waiting queries fail typed-ly.
    pub restart_budget: usize,
    /// A query whose compute has panicked this many workers is
    /// quarantined: failed with a typed error instead of requeued again.
    /// At least 1.
    pub quarantine_limit: u32,
}

impl EngineConfig {
    /// The paper's §5 baseline: CNBF, 4 threads, DS = 64 MB, PS = 32 MB,
    /// LRU, blocking allowed, index cell 4096; every extension off.
    pub fn paper_baseline() -> Self {
        EngineConfig {
            strategy: Strategy::Cnbf,
            threads: 4,
            ds_budget: 64 << 20,
            ps_budget: 32 << 20,
            allow_blocking: true,
            ds_policy: EvictionPolicy::Lru,
            index_cell: 4096,
            retry: RetryPolicy::default_io(),
            observe: false,
            start_paused: false,
            overload: OverloadConfig::default(),
            graft: false,
            tier2_budget: 0,
            chaos: ChaosConfig::none(),
            hang_timeout: None,
            restart_budget: 8,
            quarantine_limit: 3,
        }
    }

    /// A small default for tests and examples: the paper's baseline with
    /// 2 threads and index cell 512.
    pub fn small() -> Self {
        EngineConfig::paper_baseline()
            .with_threads(2)
            .with_index_cell(512)
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style thread-count override (at least one).
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one query thread required");
        self.threads = n;
        self
    }

    /// Builder-style Data Store budget override.
    pub fn with_ds_budget(mut self, bytes: u64) -> Self {
        self.ds_budget = bytes;
        self
    }

    /// Builder-style Page Space budget override.
    pub fn with_ps_budget(mut self, bytes: u64) -> Self {
        self.ps_budget = bytes;
        self
    }

    /// Builder-style blocking toggle.
    pub fn with_blocking(mut self, allow: bool) -> Self {
        self.allow_blocking = allow;
        self
    }

    /// Builder-style Data Store eviction-policy override (the
    /// `--cache-policy` flag).
    pub fn with_cache_policy(mut self, policy: EvictionPolicy) -> Self {
        self.ds_policy = policy;
        self
    }

    /// Builder-style grid-index cell-size override (positive).
    pub fn with_index_cell(mut self, cell: u32) -> Self {
        assert!(cell > 0, "index cell must be positive");
        self.index_cell = cell;
        self
    }

    /// Builder-style retry-policy override.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style event-log toggle.
    pub fn with_observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Builder-style batch-start-gate toggle.
    pub fn with_start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// Builder-style overload-config override.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Builder-style grafting toggle.
    pub fn with_graft(mut self, on: bool) -> Self {
        self.graft = on;
        self
    }

    /// Builder-style tier-2 budget override (bytes; 0 disables).
    pub fn with_tier2_budget(mut self, bytes: u64) -> Self {
        self.tier2_budget = bytes;
        self
    }

    /// Builder-style chaos-injection override (DESIGN.md §15).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style hang-watchdog limit override (positive; `None`
    /// disables).
    pub fn with_hang_timeout(mut self, limit: Option<Duration>) -> Self {
        if let Some(limit) = limit {
            assert!(!limit.is_zero(), "hang timeout must be positive");
        }
        self.hang_timeout = limit;
        self
    }

    /// Builder-style worker-restart budget override.
    pub fn with_restart_budget(mut self, n: usize) -> Self {
        self.restart_budget = n;
        self
    }

    /// Builder-style quarantine limit override (panics per query before
    /// the query is failed typed-ly; at least 1).
    pub fn with_quarantine_limit(mut self, n: u32) -> Self {
        assert!(n >= 1, "quarantine limit must be at least 1");
        self.quarantine_limit = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_setup() {
        let c = EngineConfig::paper_baseline();
        assert_eq!(c.strategy, Strategy::Cnbf);
        assert_eq!((c.threads, c.index_cell), (4, 4096));
        assert_eq!((c.ds_budget, c.ps_budget), (64 << 20, 32 << 20));
        assert_eq!(c.ds_policy, EvictionPolicy::Lru);
        assert!(c.allow_blocking);
        let s = EngineConfig::small();
        assert_eq!((s.threads, s.index_cell), (2, 512));
        assert_eq!(
            EngineConfig {
                threads: 4,
                index_cell: 4096,
                ..s
            },
            c,
            "small differs from the baseline in pool size and index cell only"
        );
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::small()
            .with_strategy(Strategy::Sjf)
            .with_threads(4)
            .with_ds_budget(1024)
            .with_ps_budget(2048)
            .with_blocking(false)
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_retry(RetryPolicy::none())
            .with_observe(true)
            .with_start_paused(true)
            .with_graft(true)
            .with_tier2_budget(1 << 20);
        assert_eq!(c.strategy, Strategy::Sjf);
        assert_eq!((c.threads, c.ds_budget, c.ps_budget), (4, 1024, 2048));
        assert!(!c.allow_blocking);
        assert_eq!(c.ds_policy, EvictionPolicy::CostBased);
        assert_eq!(c.retry, RetryPolicy::none());
        assert!(c.observe && c.start_paused && c.graft);
        assert_eq!(c.tier2_budget, 1 << 20);
        let base = EngineConfig::small();
        assert!(!base.observe && !base.start_paused && !base.graft);
        assert_eq!(base.tier2_budget, 0, "the paper's store is single-tier");
    }

    #[test]
    fn overload_builders_compose_and_default_off() {
        assert!(!EngineConfig::small().overload.enabled());
        let ov = OverloadConfig::default()
            .with_max_pending(16)
            .with_client_rate(2.5)
            .with_degrade_threshold(0.5)
            .with_shed_threshold(0.9);
        let c = EngineConfig::small().with_overload(ov);
        assert!(c.overload.enabled());
        assert_eq!(c.overload, ov);
    }

    #[test]
    fn containment_builders_compose_and_default_sane() {
        let base = EngineConfig::small();
        assert!(base.chaos.is_noop(), "chaos is opt-in");
        assert!(base.hang_timeout.is_none(), "watchdog is opt-in");
        assert_eq!((base.restart_budget, base.quarantine_limit), (8, 3));
        let c = base
            .with_chaos(ChaosConfig::none().with_seed(7).with_poison_rate(0.1))
            .with_hang_timeout(Some(Duration::from_millis(500)))
            .with_restart_budget(2)
            .with_quarantine_limit(1);
        assert!(!c.chaos.is_noop());
        assert_eq!(c.chaos.seed, 7);
        assert_eq!(c.hang_timeout, Some(Duration::from_millis(500)));
        assert_eq!((c.restart_budget, c.quarantine_limit), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_rejected() {
        EngineConfig::small().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "quarantine limit")]
    fn zero_quarantine_limit_rejected() {
        EngineConfig::small().with_quarantine_limit(0);
    }

    #[test]
    #[should_panic(expected = "hang timeout")]
    fn zero_hang_timeout_rejected() {
        EngineConfig::small().with_hang_timeout(Some(Duration::ZERO));
    }
}
