//! Simulation configuration and workload description.

use vmqs_core::{ClientId, OverloadConfig, Strategy};
use vmqs_microscope::VmQuery;
use vmqs_pagespace::RetryPolicy;
use vmqs_storage::{ChaosConfig, DiskModel, FaultConfig};

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

/// Full configuration of a simulated server run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Ranking strategy.
    pub strategy: Strategy,
    /// Query threads = maximum concurrently executing queries (paper §5
    /// varies this from 1 to 24 on the 24-CPU SMP).
    pub threads: usize,
    /// Data Store budget in bytes (0 disables result caching).
    pub ds_budget: u64,
    /// Page Space budget in bytes.
    pub ps_budget: u64,
    /// Allow blocking on EXECUTING queries whose results are reusable.
    pub allow_blocking: bool,
    /// The per-disk performance model behind the Page Space Manager.
    /// `Simulator::new` calibrates the Virtual Microscope's CPU cost
    /// model to it.
    pub disk: DiskModel,
    /// How queries arrive.
    pub mode: SubmissionMode,
    /// Dequeue policy (rank order, or I/O-aware candidate selection).
    pub policy: SchedPolicy,
    /// Data Store eviction policy (LRU in the paper's system).
    pub ds_policy: vmqs_datastore::EvictionPolicy,
    /// Optional self-tuning controller for parameterized strategies.
    pub tuner: Option<TunerConfig>,
    /// Cell side (base-resolution pixels) of the Data Store's grid index.
    /// Pick roughly the footprint of a typical cached result.
    pub index_cell: u32,
    /// Transient-fault injection for the virtual disks. The simulator
    /// charges each faulted page the retry latency the threaded engine
    /// would pay (re-read service time + backoff) and counts faults and
    /// retries in the report. Only `transient_rate` and `seed` are
    /// honoured — the virtual replay has no failure delivery path, so
    /// permanent faults and latency spikes are server-engine-only.
    pub fault: FaultConfig,
    /// Retry policy bounding the charged retries per page.
    pub retry: RetryPolicy,
    /// Record typed scheduler events in the observability log (DESIGN.md
    /// §9), stamped with virtual time. Metrics counters are always on;
    /// this gates only the event log.
    pub observe: bool,
    /// Defer dequeuing while further same-time arrivals are pending, so a
    /// batch submitted at one instant is fully inserted into the
    /// scheduling graph before the first dequeue — mirroring the threaded
    /// engine's paused start. Used by the scheduler-conformance harness.
    pub gate_batch_start: bool,
    /// Overload-management knobs (bounded admission, per-client rate
    /// limiting, degradation, shedding). The simulator runs the *same*
    /// admission ladder as the threaded server, in virtual time, so the
    /// conformance harness can pin admission decisions across engines
    /// (DESIGN.md §10). Disabled by default.
    pub overload: OverloadConfig,
    /// Grafting onto in-flight queries (DESIGN.md §13), mirroring the
    /// threaded engine: a dequeued query whose answer an EXECUTING peer is
    /// already computing subscribes to that producer and consumes its
    /// published result at completion time — emitting a `Grafted` event
    /// instead of a Data Store lookup — and dequeue switches to the
    /// producer-affinity order so a consumer never starts ahead of a
    /// same-predicate producer. Disabled by default.
    pub graft: bool,
    /// Tier-2 spill budget in bytes (DESIGN.md §14). When nonzero, Data
    /// Store victims are demoted to a virtual disk tier instead of
    /// dropped; a later exact-match lookup re-heats them at one disk
    /// service time (charged in virtual time) instead of recompute cost.
    /// Tier-2 reads draw permanent faults from [`SimConfig::fault`] keyed
    /// on the reserved spill device, so poisoned restores fall back to
    /// recomputation exactly like the threaded engine. 0 disables (the
    /// paper's single-tier configuration).
    pub tier2_budget: u64,
    /// Chaos injection (DESIGN.md §15): deterministic poison queries and
    /// a panic-at-nth-compute kill-point, keyed on the same seed and
    /// compute ordinal as the threaded engine so the same failure edges
    /// fire in both.
    pub chaos: ChaosConfig,
    /// Hang watchdog limit in virtual seconds: a query whose dequeue →
    /// completion span would exceed this is cancelled at the limit and
    /// reported as hung (folded into `timed_out`). `None` disables.
    pub hang_timeout: Option<f64>,
    /// Replacement workers the supervisor may spawn after compute panics
    /// before the pool is declared dead and WAITING queries are failed.
    pub restart_budget: usize,
    /// Compute panics one query may cause before the quarantine rule
    /// fails it typed-ly instead of retrying it (must be ≥ 1).
    pub quarantine_limit: u32,
}

impl SimConfig {
    /// The paper's §5 baseline: CNBF, 4 threads, DS = 64 MB, PS = 32 MB,
    /// circa-2002 disk, interactive clients.
    pub fn paper_baseline() -> Self {
        SimConfig {
            strategy: Strategy::Cnbf,
            threads: 4,
            ds_budget: 64 << 20,
            ps_budget: 32 << 20,
            allow_blocking: true,
            disk: DiskModel::circa_2002(),
            mode: SubmissionMode::Interactive,
            policy: SchedPolicy::RankOrder,
            ds_policy: vmqs_datastore::EvictionPolicy::Lru,
            tuner: None,
            index_cell: 4096,
            fault: FaultConfig::none(),
            retry: RetryPolicy::default_io(),
            observe: false,
            gate_batch_start: false,
            overload: OverloadConfig::default(),
            graft: false,
            tier2_budget: 0,
            chaos: ChaosConfig::none(),
            hang_timeout: None,
            restart_budget: 8,
            quarantine_limit: 3,
        }
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Builder-style thread-count override.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.threads = n;
        self
    }

    /// Builder-style Data Store budget override.
    pub fn with_ds_budget(mut self, b: u64) -> Self {
        self.ds_budget = b;
        self
    }

    /// Builder-style Page Space budget override.
    pub fn with_ps_budget(mut self, b: u64) -> Self {
        self.ps_budget = b;
        self
    }

    /// Builder-style submission-mode override.
    pub fn with_mode(mut self, m: SubmissionMode) -> Self {
        self.mode = m;
        self
    }

    /// Builder-style blocking toggle.
    pub fn with_blocking(mut self, allow: bool) -> Self {
        self.allow_blocking = allow;
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

    /// Builder-style grid-index cell-size override.
    pub fn with_index_cell(mut self, cell: u32) -> Self {
        assert!(cell > 0, "index cell must be positive");
        self.index_cell = cell;
        self
    }

    /// Builder-style fault-injection override.
    pub fn with_faults(mut self, f: FaultConfig) -> Self {
        self.fault = f;
        self
    }

    /// Builder-style retry-policy override.
    pub fn with_retry(mut self, r: RetryPolicy) -> Self {
        self.retry = r;
        self
    }

    /// Builder-style event-log toggle.
    pub fn with_observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Builder-style batch-start-gate toggle.
    pub fn with_batch_gate(mut self, on: bool) -> Self {
        self.gate_batch_start = on;
        self
    }

    /// Builder-style overload-management override.
    pub fn with_overload(mut self, ov: OverloadConfig) -> Self {
        self.overload = ov;
        self
    }

    /// Builder-style grafting toggle.
    pub fn with_graft(mut self, on: bool) -> Self {
        self.graft = on;
        self
    }

    /// Builder-style tier-2 spill-budget override (bytes; 0 disables).
    pub fn with_tier2_budget(mut self, b: u64) -> Self {
        self.tier2_budget = b;
        self
    }

    /// Builder-style Data Store eviction-policy override (the
    /// `--cache-policy` flag).
    pub fn with_cache_policy(mut self, p: vmqs_datastore::EvictionPolicy) -> Self {
        self.ds_policy = p;
        self
    }

    /// Builder-style chaos-injection override.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style hang-watchdog limit (virtual seconds; `None` off).
    pub fn with_hang_timeout(mut self, t: Option<f64>) -> Self {
        if let Some(t) = t {
            assert!(t > 0.0, "hang timeout must be positive");
        }
        self.hang_timeout = t;
        self
    }

    /// Builder-style restart-budget override.
    pub fn with_restart_budget(mut self, n: usize) -> Self {
        self.restart_budget = n;
        self
    }

    /// Builder-style quarantine-limit override.
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
        let c = SimConfig::paper_baseline();
        assert_eq!(c.threads, 4);
        assert_eq!(c.ds_budget, 64 << 20);
        assert_eq!(c.ps_budget, 32 << 20);
        assert_eq!(c.mode, SubmissionMode::Interactive);
        assert!(c.allow_blocking);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::paper_baseline()
            .with_strategy(Strategy::Fifo)
            .with_threads(8)
            .with_ds_budget(1)
            .with_ps_budget(2)
            .with_mode(SubmissionMode::Batch)
            .with_blocking(false);
        assert_eq!(c.strategy, Strategy::Fifo);
        assert_eq!(c.threads, 8);
        assert_eq!((c.ds_budget, c.ps_budget), (1, 2));
        assert_eq!(c.mode, SubmissionMode::Batch);
        assert!(!c.allow_blocking);
        let c2 = SimConfig::paper_baseline()
            .with_observe(true)
            .with_batch_gate(true);
        assert!(c2.observe && c2.gate_batch_start);
        assert!(!SimConfig::paper_baseline().observe);
        assert!(!SimConfig::paper_baseline().gate_batch_start);
        assert!(!SimConfig::paper_baseline().graft, "grafting is opt-in");
        assert!(SimConfig::paper_baseline().with_graft(true).graft);
        assert_eq!(
            SimConfig::paper_baseline().tier2_budget,
            0,
            "the paper's configuration is single-tier"
        );
        let c3 = SimConfig::paper_baseline()
            .with_tier2_budget(1 << 30)
            .with_cache_policy(vmqs_datastore::EvictionPolicy::CostBased);
        assert_eq!(c3.tier2_budget, 1 << 30);
        assert_eq!(c3.ds_policy, vmqs_datastore::EvictionPolicy::CostBased);
    }

    #[test]
    fn containment_knobs_default_off_and_compose() {
        let base = SimConfig::paper_baseline();
        assert!(base.chaos.is_noop() && base.hang_timeout.is_none());
        assert_eq!((base.restart_budget, base.quarantine_limit), (8, 3));
        let c = base
            .with_chaos(ChaosConfig::none().with_seed(9).with_poison_rate(0.1))
            .with_hang_timeout(Some(2.5))
            .with_restart_budget(1)
            .with_quarantine_limit(2);
        assert!(!c.chaos.is_noop());
        assert_eq!(c.hang_timeout, Some(2.5));
        assert_eq!((c.restart_budget, c.quarantine_limit), (1, 2));
    }

    #[test]
    fn overload_defaults_off_and_builder_composes() {
        assert!(!SimConfig::paper_baseline().overload.enabled());
        let c = SimConfig::paper_baseline()
            .with_overload(OverloadConfig::default().with_max_pending(8));
        assert!(c.overload.enabled());
        assert_eq!(c.overload.max_pending, 8);
    }
}
