//! Simulation configuration and workload description.

use vmqs_core::{ClientId, EngineConfig, EvictionPolicy, Strategy};
use vmqs_microscope::VmQuery;
use vmqs_storage::{DiskModel, FaultConfig};

/// How a client stream's queries enter the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmissionMode {
    /// Each client submits its next query only after receiving the answer
    /// to the previous one (the paper's Fig. 4–6 setup).
    Interactive,
    /// All queries of all clients are submitted at time zero as one batch
    /// (the paper's Fig. 7 setup: 256 queries in a single batch).
    Batch,
}

/// One emulated client and its ordered query stream. Generic over the
/// application's predicate type; defaults to the Virtual Microscope.
#[derive(Clone, Debug)]
pub struct ClientStream<S = VmQuery> {
    /// Client identity.
    pub client: ClientId,
    /// Queries in submission order.
    pub queries: Vec<S>,
}

/// How the scheduler picks the next query among WAITING candidates.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SchedPolicy {
    /// Strictly by rank (the paper's model).
    RankOrder,
    /// §6 extension (3): when the disk backlog exceeds a threshold, pick —
    /// among the `candidates` highest-ranked WAITING queries — the one
    /// with the smallest `qinputsize`, shedding I/O pressure; otherwise
    /// behave like [`SchedPolicy::RankOrder`].
    IoAware {
        /// How many top-ranked candidates to consider.
        candidates: usize,
        /// Mean per-disk outstanding work (seconds) above which the disk
        /// counts as congested.
        backlog_threshold: f64,
    },
}

/// §6 extension (1): online self-tuning of the combined strategy. A
/// hill-climbing controller adjusts the strategy's continuous parameter
/// (hybrid `sjf_weight`, or CF's `α`) every `window` completions, keeping
/// the change when the window's mean response time improved and reversing
/// direction when it worsened.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TunerConfig {
    /// Completions per tuning window.
    pub window: usize,
    /// Multiplicative step applied to the tuned parameter per window.
    pub step: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            window: 16,
            step: 1.5,
        }
    }
}

/// Full configuration of a simulated server run: the settings it shares
/// with the threaded server ([`EngineConfig`]) plus the five that only a
/// virtual machine has.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The settings both engines share. The simulator reads
    /// `hang_timeout` as a limit in virtual seconds.
    pub engine: EngineConfig,
    /// The per-disk performance model behind the Page Space Manager.
    /// `Simulator::new` calibrates the Virtual Microscope's CPU cost
    /// model to it.
    pub disk: DiskModel,
    /// How queries arrive.
    pub mode: SubmissionMode,
    /// Dequeue policy (rank order, or I/O-aware candidate selection).
    pub policy: SchedPolicy,
    /// Optional self-tuning controller for parameterized strategies.
    pub tuner: Option<TunerConfig>,
    /// Fault injection for the virtual disks. The simulator charges each
    /// transiently faulted page the retry latency the threaded engine
    /// would pay (re-read service time + backoff) and counts faults and
    /// retries in the report; tier-2 reads draw permanent faults keyed
    /// on the reserved spill device, so poisoned restores fall back to
    /// recomputation exactly like the threaded engine. Latency spikes
    /// and page-read permanent faults are server-engine-only: the
    /// virtual replay has no failure delivery path for a page.
    pub fault: FaultConfig,
}

impl SimConfig {
    /// A simulation of `engine`: circa-2002 disk, interactive clients,
    /// rank-order dequeue, no tuner, no faults.
    pub fn new(engine: EngineConfig) -> Self {
        SimConfig {
            engine,
            disk: DiskModel::circa_2002(),
            mode: SubmissionMode::Interactive,
            policy: SchedPolicy::RankOrder,
            tuner: None,
            fault: FaultConfig::none(),
        }
    }

    /// The paper's §5 baseline ([`EngineConfig::paper_baseline`]: CNBF,
    /// 4 threads, DS = 64 MB, PS = 32 MB), circa-2002 disk, interactive
    /// clients.
    pub fn paper_baseline() -> Self {
        SimConfig::new(EngineConfig::paper_baseline())
    }

    /// Builder-style submission-mode override.
    pub fn with_mode(mut self, m: SubmissionMode) -> Self {
        self.mode = m;
        self
    }

    /// Builder-style dequeue-policy override.
    pub fn with_policy(mut self, p: SchedPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Builder-style self-tuner override.
    pub fn with_tuner(mut self, t: TunerConfig) -> Self {
        self.tuner = Some(t);
        self
    }

    /// Builder-style fault-injection override.
    pub fn with_faults(mut self, f: FaultConfig) -> Self {
        self.fault = f;
        self
    }

    /// Sets [`EngineConfig::strategy`]; stays until ROADMAP item 1(b).
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.engine = self.engine.with_strategy(s);
        self
    }

    /// Sets [`EngineConfig::threads`]; stays until ROADMAP item 1(b).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.engine = self.engine.with_threads(n);
        self
    }

    /// Sets [`EngineConfig::ds_budget`]; stays until ROADMAP item 1(b).
    pub fn with_ds_budget(mut self, b: u64) -> Self {
        self.engine = self.engine.with_ds_budget(b);
        self
    }

    /// Sets [`EngineConfig::ps_budget`]; stays until ROADMAP item 1(b).
    pub fn with_ps_budget(mut self, b: u64) -> Self {
        self.engine = self.engine.with_ps_budget(b);
        self
    }

    /// Sets [`EngineConfig::ds_policy`]; stays until ROADMAP item 1(b).
    pub fn with_cache_policy(mut self, p: EvictionPolicy) -> Self {
        self.engine = self.engine.with_cache_policy(p);
        self
    }

    /// Sets [`EngineConfig::tier2_budget`]; stays until ROADMAP item 1(b).
    pub fn with_tier2_budget(mut self, b: u64) -> Self {
        self.engine = self.engine.with_tier2_budget(b);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_setup() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.engine, EngineConfig::paper_baseline());
        assert_eq!((c.engine.threads, c.engine.index_cell), (4, 4096));
        assert_eq!(c.mode, SubmissionMode::Interactive);
        assert_eq!(c.policy, SchedPolicy::RankOrder);
        assert!(c.tuner.is_none() && c.fault.is_noop());
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::paper_baseline()
            .with_mode(SubmissionMode::Batch)
            .with_policy(SchedPolicy::IoAware {
                candidates: 4,
                backlog_threshold: 0.5,
            })
            .with_tuner(TunerConfig::default())
            .with_faults(FaultConfig::transient(0.1, 7));
        assert_eq!(c.mode, SubmissionMode::Batch);
        assert!(matches!(
            c.policy,
            SchedPolicy::IoAware { candidates: 4, .. }
        ));
        assert_eq!(c.tuner, Some(TunerConfig::default()));
        assert!(!c.fault.is_noop());
        // The forwarding builders set the engine's settings.
        let f = SimConfig::paper_baseline()
            .with_strategy(Strategy::Fifo)
            .with_threads(8)
            .with_ds_budget(1)
            .with_ps_budget(2)
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_tier2_budget(1 << 30);
        let want = EngineConfig::paper_baseline()
            .with_strategy(Strategy::Fifo)
            .with_threads(8)
            .with_ds_budget(1)
            .with_ps_budget(2)
            .with_cache_policy(EvictionPolicy::CostBased)
            .with_tier2_budget(1 << 30);
        assert_eq!(f.engine, want);
    }

    #[test]
    fn containment_knobs_default_off_and_compose() {
        use std::time::Duration;
        use vmqs_core::ChaosConfig;
        let base = SimConfig::paper_baseline();
        assert!(base.engine.chaos.is_noop() && base.engine.hang_timeout.is_none());
        assert_eq!(
            (base.engine.restart_budget, base.engine.quarantine_limit),
            (8, 3)
        );
        let c = SimConfig::new(
            base.engine
                .with_chaos(ChaosConfig::none().with_seed(9).with_poison_rate(0.1))
                .with_hang_timeout(Some(Duration::from_secs_f64(2.5)))
                .with_restart_budget(1)
                .with_quarantine_limit(2),
        );
        assert!(!c.engine.chaos.is_noop());
        assert_eq!(c.engine.hang_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!((c.engine.restart_budget, c.engine.quarantine_limit), (1, 2));
    }

    #[test]
    fn overload_defaults_off_and_builder_composes() {
        use vmqs_core::OverloadConfig;
        assert!(!SimConfig::paper_baseline().engine.overload.enabled());
        let c = SimConfig::new(
            EngineConfig::paper_baseline()
                .with_overload(OverloadConfig::default().with_max_pending(8)),
        );
        assert!(c.engine.overload.enabled());
        assert_eq!(c.engine.overload.max_pending, 8);
    }
}
