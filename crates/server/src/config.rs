//! Server configuration.

use std::path::PathBuf;
use std::time::Duration;
use vmqs_core::{OverloadConfig, Strategy};
use vmqs_datastore::EvictionPolicy;
use vmqs_pagespace::RetryPolicy;
use vmqs_storage::{ChaosConfig, FaultConfig};

/// Configuration of the multithreaded query server.
///
/// Mirrors the knobs varied in the paper's evaluation: the ranking
/// strategy, the size of the query thread pool ("the maximum number of
/// concurrent queries allowed in the system"), and the memory allotted to
/// the Data Store and Page Space managers.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Ranking strategy for the scheduling graph.
    pub strategy: Strategy,
    /// Query threads in the fixed-size pool (paper §2: "typically the
    /// number of processors available in the SMP").
    pub num_threads: usize,
    /// Data Store Manager budget in bytes (0 disables result caching).
    pub ds_budget: u64,
    /// Page Space Manager budget in bytes.
    pub ps_budget: u64,
    /// Whether a query may block waiting for an EXECUTING query whose
    /// result it can reuse (guarded by the deadlock-avoidance check). When
    /// false, overlapping in-flight work is simply recomputed.
    pub allow_blocking: bool,
    /// Data Store eviction policy (LRU in the paper's system).
    pub ds_policy: EvictionPolicy,
    /// Cell side (base-resolution pixels) of the Data Store's grid index.
    /// Pick roughly the footprint of a typical cached result.
    pub index_cell: u32,
    /// Retry policy for transient page-read faults (DESIGN.md §8).
    pub retry: RetryPolicy,
    /// Seed for the deterministic retry-backoff jitter.
    pub retry_seed: u64,
    /// Per-query deadline measured from submission; `None` disables
    /// timeouts. An expired query is cancelled cooperatively and resolves
    /// its handle with a timeout error.
    pub query_timeout: Option<Duration>,
    /// Record typed scheduler events in the observability log (DESIGN.md
    /// §9). Metrics counters are always on; this gates only the event log.
    pub observe: bool,
    /// Start the worker pool paused: workers sleep until
    /// [`crate::QueryServer::resume_workers`] is called, so a whole batch
    /// can be submitted before any dequeue happens — the deterministic
    /// setup the scheduler-conformance harness replays against the
    /// simulator.
    pub start_paused: bool,
    /// Overload management: bounded admission, per-client rate limiting,
    /// degradation, and shedding (DESIGN.md §10). Disabled by default.
    pub overload: OverloadConfig,
    /// Grafting onto in-flight queries (DESIGN.md §13): a dequeued query
    /// whose answer an EXECUTING peer is already computing waits for that
    /// producer, whatever `allow_blocking` says, and consumes the bytes
    /// it publishes instead of recomputing. Also switches dequeue to the
    /// producer-affinity order so a consumer never runs ahead of a
    /// same-predicate producer. Disabled by default.
    pub graft: bool,
    /// Directory for the tier-2 spill store (DESIGN.md §14). `None`
    /// disables spilling regardless of [`ServerConfig::tier2_budget`]:
    /// the threaded engine cannot demote entries without somewhere to
    /// persist them.
    pub spill_dir: Option<PathBuf>,
    /// Tier-2 spill budget in bytes (0 disables the spill tier). Eviction
    /// victims then demote to the RESTORABLE phase instead of dropping,
    /// until tier 2 itself overflows; the Data Store and Page Space share
    /// one tiered byte budget, with tier 2 charged entirely to the DS
    /// side (pages re-fetch at device cost anyway, results don't).
    pub tier2_budget: u64,
    /// Fault injection for tier-2 *reads* (restore path). Independent of
    /// the page-read injector so tests can poison spill frames without
    /// perturbing page I/O.
    pub spill_fault: FaultConfig,
    /// Seeded process-failure injection (DESIGN.md §15): poison queries
    /// whose compute panics the worker, panic-at-nth-compute, and spill
    /// kill-points. No-op by default.
    pub chaos: ChaosConfig,
    /// Hang watchdog: a query stuck in execution longer than this (wall
    /// clock on the server, virtual time in the sim) is cancelled through
    /// the deadline machinery and reported `Hung`. `None` disables.
    pub hang_timeout: Option<Duration>,
    /// How many replacement workers may be spawned for panicked ones over
    /// the server's lifetime. Once exhausted, further panics shrink the
    /// pool; if the whole pool dies, waiting queries fail typed-ly.
    pub restart_budget: usize,
    /// A query whose compute has panicked this many workers is
    /// quarantined: failed with a typed error instead of requeued again.
    /// Must be at least 1.
    pub quarantine_limit: u32,
}

impl ServerConfig {
    /// A small default suitable for tests and examples: 2 threads, 64 MB
    /// DS, 32 MB PS (the paper's §5 memory configuration), CNBF.
    pub fn small() -> Self {
        ServerConfig {
            strategy: Strategy::Cnbf,
            num_threads: 2,
            ds_budget: 64 << 20,
            ps_budget: 32 << 20,
            allow_blocking: true,
            ds_policy: EvictionPolicy::Lru,
            index_cell: 512,
            retry: RetryPolicy::default_io(),
            retry_seed: 0,
            query_timeout: None,
            observe: false,
            start_paused: false,
            overload: OverloadConfig::default(),
            graft: false,
            spill_dir: None,
            tier2_budget: 0,
            spill_fault: FaultConfig::none(),
            chaos: ChaosConfig::none(),
            hang_timeout: None,
            restart_budget: 8,
            quarantine_limit: 3,
        }
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style thread-count override.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one query thread required");
        self.num_threads = n;
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

    /// Builder-style grid-index cell-size override.
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

    /// Builder-style retry-jitter-seed override.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// Builder-style per-query timeout override (`None` disables).
    pub fn with_query_timeout(mut self, t: Option<Duration>) -> Self {
        self.query_timeout = t;
        self
    }

    /// Builder-style event-log toggle.
    pub fn with_observability(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Builder-style paused-start toggle.
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

    /// Builder-style Data Store eviction-policy override (the
    /// `--cache-policy` flag).
    pub fn with_cache_policy(mut self, p: EvictionPolicy) -> Self {
        self.ds_policy = p;
        self
    }

    /// Builder-style spill-directory override (`None` disables spilling).
    pub fn with_spill_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.spill_dir = dir;
        self
    }

    /// Builder-style tier-2 budget override (bytes; 0 disables).
    pub fn with_tier2_budget(mut self, bytes: u64) -> Self {
        self.tier2_budget = bytes;
        self
    }

    /// Builder-style tier-2 read-fault override.
    pub fn with_spill_faults(mut self, fault: FaultConfig) -> Self {
        self.spill_fault = fault;
        self
    }

    /// True when this configuration actually spills: a directory *and* a
    /// nonzero tier-2 budget are both required.
    pub fn spill_enabled(&self) -> bool {
        self.spill_dir.is_some() && self.tier2_budget > 0
    }

    /// Builder-style chaos-injection override (DESIGN.md §15).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style hang-watchdog limit override (`None` disables).
    pub fn with_hang_timeout(mut self, t: Option<Duration>) -> Self {
        self.hang_timeout = t;
        self
    }

    /// Builder-style worker-restart budget override.
    pub fn with_restart_budget(mut self, n: usize) -> Self {
        self.restart_budget = n;
        self
    }

    /// Builder-style quarantine limit override (panics per query before
    /// the query is failed typed-ly; must be at least 1).
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
    fn builders_compose() {
        let c = ServerConfig::small()
            .with_strategy(Strategy::Sjf)
            .with_threads(4)
            .with_ds_budget(1024)
            .with_ps_budget(2048)
            .with_blocking(false);
        assert_eq!(c.strategy, Strategy::Sjf);
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.ds_budget, 1024);
        assert_eq!(c.ps_budget, 2048);
        assert!(!c.allow_blocking);
        let c2 = ServerConfig::small().with_cache_policy(EvictionPolicy::CostBased);
        assert_eq!(c2.ds_policy, EvictionPolicy::CostBased);
        let c3 = ServerConfig::small()
            .with_retry(RetryPolicy::none())
            .with_retry_seed(9)
            .with_query_timeout(Some(Duration::from_millis(250)));
        assert_eq!(c3.retry, RetryPolicy::none());
        assert_eq!(c3.retry_seed, 9);
        assert_eq!(c3.query_timeout, Some(Duration::from_millis(250)));
        let c4 = ServerConfig::small()
            .with_observability(true)
            .with_start_paused(true);
        assert!(c4.observe && c4.start_paused);
        assert!(!ServerConfig::small().observe);
        assert!(!ServerConfig::small().start_paused);
        assert!(!ServerConfig::small().graft, "grafting is opt-in");
        assert!(ServerConfig::small().with_graft(true).graft);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_rejected() {
        ServerConfig::small().with_threads(0);
    }

    #[test]
    fn overload_builders_compose_and_default_off() {
        assert!(!ServerConfig::small().overload.enabled());
        let ov = OverloadConfig::default()
            .with_max_pending(16)
            .with_client_rate(2.5)
            .with_degrade_threshold(0.5)
            .with_shed_threshold(0.9);
        let c = ServerConfig::small().with_overload(ov);
        assert!(c.overload.enabled());
        assert_eq!(c.overload, ov);
        assert_eq!(c.overload.max_pending, 16);
        assert_eq!(c.overload.client_rate, 2.5);
        assert_eq!(c.overload.degrade_threshold, 0.5);
        assert_eq!(c.overload.shed_threshold, 0.9);
    }

    #[test]
    fn spill_builders_compose_and_default_off() {
        let base = ServerConfig::small();
        assert!(!base.spill_enabled(), "spilling is opt-in");
        assert!(base.spill_dir.is_none() && base.tier2_budget == 0);
        // Both knobs are required: a budget without a directory (or the
        // reverse) leaves spilling off.
        assert!(!ServerConfig::small()
            .with_tier2_budget(1 << 20)
            .spill_enabled());
        assert!(!ServerConfig::small()
            .with_spill_dir(Some(PathBuf::from("/tmp/x")))
            .spill_enabled());
        let c = ServerConfig::small()
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_spill_dir(Some(PathBuf::from("/tmp/x")))
            .with_tier2_budget(1 << 20)
            .with_spill_faults(FaultConfig::none().with_permanent(0.1));
        assert!(c.spill_enabled());
        assert_eq!(c.ds_policy, EvictionPolicy::CostBased);
        assert_eq!(c.tier2_budget, 1 << 20);
        assert_eq!(c.spill_fault.permanent_rate, 0.1);
    }

    #[test]
    fn containment_builders_compose_and_default_sane() {
        let base = ServerConfig::small();
        assert!(base.chaos.is_noop(), "chaos is opt-in");
        assert!(base.hang_timeout.is_none(), "watchdog is opt-in");
        assert!(base.restart_budget > 0, "panics survive by default");
        assert!(base.quarantine_limit >= 1);
        let c = ServerConfig::small()
            .with_chaos(ChaosConfig::none().with_seed(7).with_poison_rate(0.1))
            .with_hang_timeout(Some(Duration::from_millis(500)))
            .with_restart_budget(2)
            .with_quarantine_limit(1);
        assert!(!c.chaos.is_noop());
        assert_eq!(c.chaos.seed, 7);
        assert_eq!(c.hang_timeout, Some(Duration::from_millis(500)));
        assert_eq!(c.restart_budget, 2);
        assert_eq!(c.quarantine_limit, 1);
    }

    #[test]
    #[should_panic(expected = "quarantine limit")]
    fn zero_quarantine_limit_rejected() {
        ServerConfig::small().with_quarantine_limit(0);
    }
}
