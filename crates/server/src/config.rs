//! Server configuration.

use std::path::PathBuf;
use std::time::Duration;
use vmqs_core::{EngineConfig, EvictionPolicy, Strategy};
use vmqs_storage::FaultConfig;

/// Configuration of the multithreaded query server: the settings it
/// shares with the simulator ([`EngineConfig`]: the ranking strategy, the
/// size of the query thread pool, the memory allotted to the Data Store
/// and Page Space managers, ...) plus the four that only a server with
/// real threads, clocks and files has.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The settings both engines share.
    pub engine: EngineConfig,
    /// Seed for the deterministic retry-backoff jitter.
    pub retry_seed: u64,
    /// Per-query deadline measured from submission; `None` disables
    /// timeouts. An expired query is cancelled cooperatively and resolves
    /// its handle with a timeout error.
    pub query_timeout: Option<Duration>,
    /// Directory for the tier-2 spill store (DESIGN.md §14). `None`
    /// disables spilling regardless of the engine's `tier2_budget`: the
    /// threaded engine cannot demote entries without somewhere to
    /// persist them.
    pub spill_dir: Option<PathBuf>,
    /// Fault injection for tier-2 *reads* (restore path). Independent of
    /// the page-read injector so tests can poison spill frames without
    /// perturbing page I/O.
    pub spill_fault: FaultConfig,
}

impl ServerConfig {
    /// A server over `engine`, with no retry-jitter seed, no deadline,
    /// no spill directory and no spill-read faults.
    pub fn new(engine: EngineConfig) -> Self {
        ServerConfig {
            engine,
            retry_seed: 0,
            query_timeout: None,
            spill_dir: None,
            spill_fault: FaultConfig::none(),
        }
    }

    /// A small default suitable for tests and examples:
    /// [`EngineConfig::small`] (2 threads, 64 MB DS, 32 MB PS, CNBF).
    pub fn small() -> Self {
        ServerConfig::new(EngineConfig::small())
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

    /// Builder-style spill-directory override (`None` disables spilling).
    pub fn with_spill_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.spill_dir = dir;
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
        self.spill_dir.is_some() && self.engine.tier2_budget > 0
    }

    /// Sets [`EngineConfig::strategy`]; stays until ROADMAP item 1(b).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.engine = self.engine.with_strategy(strategy);
        self
    }

    /// Sets [`EngineConfig::threads`]; stays until ROADMAP item 1(b).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.engine = self.engine.with_threads(n);
        self
    }

    /// Sets [`EngineConfig::ds_budget`]; stays until ROADMAP item 1(b).
    pub fn with_ds_budget(mut self, bytes: u64) -> Self {
        self.engine = self.engine.with_ds_budget(bytes);
        self
    }

    /// Sets [`EngineConfig::ps_budget`]; stays until ROADMAP item 1(b).
    pub fn with_ps_budget(mut self, bytes: u64) -> Self {
        self.engine = self.engine.with_ps_budget(bytes);
        self
    }

    /// Sets [`EngineConfig::ds_policy`]; stays until ROADMAP item 1(b).
    pub fn with_cache_policy(mut self, p: EvictionPolicy) -> Self {
        self.engine = self.engine.with_cache_policy(p);
        self
    }

    /// Sets [`EngineConfig::start_paused`]; stays until ROADMAP item 1(b).
    pub fn with_start_paused(mut self, paused: bool) -> Self {
        self.engine = self.engine.with_start_paused(paused);
        self
    }

    /// Sets [`EngineConfig::tier2_budget`]; stays until ROADMAP item 1(b).
    pub fn with_tier2_budget(mut self, bytes: u64) -> Self {
        self.engine = self.engine.with_tier2_budget(bytes);
        self
    }

    /// Sets [`EngineConfig::observe`]; stays until ROADMAP item 1(b).
    pub fn with_observability(mut self, on: bool) -> Self {
        self.engine = self.engine.with_observe(on);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let base = ServerConfig::small();
        assert_eq!(base.engine, EngineConfig::small());
        assert_eq!((base.engine.threads, base.engine.index_cell), (2, 512));
        assert_eq!((base.retry_seed, base.query_timeout), (0, None));
        let c = ServerConfig::small()
            .with_retry_seed(9)
            .with_query_timeout(Some(Duration::from_millis(250)));
        assert_eq!(c.retry_seed, 9);
        assert_eq!(c.query_timeout, Some(Duration::from_millis(250)));
        // The forwarding builders set the engine's settings.
        let f = ServerConfig::small()
            .with_strategy(Strategy::Sjf)
            .with_threads(4)
            .with_ds_budget(1024)
            .with_ps_budget(2048)
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_start_paused(true)
            .with_tier2_budget(1 << 20)
            .with_observability(true);
        let want = EngineConfig::small()
            .with_strategy(Strategy::Sjf)
            .with_threads(4)
            .with_ds_budget(1024)
            .with_ps_budget(2048)
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_start_paused(true)
            .with_tier2_budget(1 << 20)
            .with_observe(true);
        assert_eq!(f.engine, want);
    }

    #[test]
    fn spill_builders_compose_and_default_off() {
        let base = ServerConfig::small();
        assert!(!base.spill_enabled(), "spilling is opt-in");
        assert!(base.spill_dir.is_none() && base.engine.tier2_budget == 0);
        // Both knobs are required: a budget without a directory (or the
        // reverse) leaves spilling off.
        let budget = EngineConfig::small().with_tier2_budget(1 << 20);
        assert!(!ServerConfig::new(budget).spill_enabled());
        assert!(!ServerConfig::small()
            .with_spill_dir(Some(PathBuf::from("/tmp/x")))
            .spill_enabled());
        let c = ServerConfig::new(budget)
            .with_spill_dir(Some(PathBuf::from("/tmp/x")))
            .with_spill_faults(FaultConfig::none().with_permanent(0.1));
        assert!(c.spill_enabled());
        assert_eq!(c.spill_fault.permanent_rate, 0.1);
    }
}
