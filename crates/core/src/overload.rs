//! Overload-management policy: bounded admission, per-client token-bucket
//! rate limiting, pressure estimation, and shed-victim selection.
//!
//! Everything in this module is pure and deterministic so the threaded
//! server (real time) and the discrete-event simulator (virtual time) can
//! run the *identical* policy and produce golden-traceable admission /
//! degradation / shed decisions. Time enters only as `f64` seconds from
//! an engine-chosen origin; no wall clock is read here.
//!
//! The decision ladder, applied at submit/arrival time (DESIGN.md §10):
//!
//! 1. **Rate limit** — a token bucket per client; an empty bucket rejects
//!    the query with a `retry_after` hint.
//! 2. **Bounded queue** — `waiting >= max_pending` rejects outright.
//! 3. **Degrade** — pressure at or above `degrade_threshold` downgrades
//!    the query to its cheaper plan (Virtual Microscope: `Average` →
//!    `Subsample`) when the application offers one.
//! 4. **Shed** — pressure at or above `shed_threshold` evicts the
//!    largest-`qinputsize` WAITING queries (newest first on ties) until
//!    pressure falls below the threshold. This mirrors the SJF rationale
//!    in the simulator's `SchedPolicy::IoAware`: under congestion the
//!    biggest jobs hurt everyone else the most.

use crate::ids::QueryId;

/// Overload-management knobs shared by both engines. The default
/// configuration disables every mechanism, so existing workloads are
/// untouched unless a knob is turned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadConfig {
    /// Maximum number of WAITING queries admitted; `0` means unbounded
    /// (admission control off).
    pub max_pending: usize,
    /// Sustained per-client admission rate in queries/second; `0.0`
    /// disables rate limiting. The burst size is `max(rate, 1.0)`.
    pub client_rate: f64,
    /// Pressure level at or above which admissible queries are downgraded
    /// to their cheaper plan. Values above `1.0` (pressure is capped at
    /// `1.0`) disable degradation.
    pub degrade_threshold: f64,
    /// Pressure level at or above which WAITING queries are shed.
    /// Values above `1.0` disable shedding.
    pub shed_threshold: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_pending: 0,
            client_rate: 0.0,
            degrade_threshold: f64::INFINITY,
            shed_threshold: f64::INFINITY,
        }
    }
}

impl OverloadConfig {
    /// True when any overload mechanism is active. Engines use this to
    /// skip pressure-signal gathering entirely on the default config.
    pub fn enabled(&self) -> bool {
        self.max_pending > 0
            || self.client_rate > 0.0
            || self.degrade_threshold <= 1.0
            || self.shed_threshold <= 1.0
    }

    /// True when degradation can ever trigger.
    pub fn degrades(&self) -> bool {
        self.degrade_threshold <= 1.0
    }

    /// True when shedding can ever trigger.
    pub fn sheds(&self) -> bool {
        self.shed_threshold <= 1.0
    }

    /// Builder-style admission-bound override (`0` = unbounded).
    pub fn with_max_pending(mut self, n: usize) -> Self {
        self.max_pending = n;
        self
    }

    /// Builder-style per-client rate override (queries/second, `0.0` =
    /// off).
    pub fn with_client_rate(mut self, qps: f64) -> Self {
        assert!(qps >= 0.0, "client rate must be non-negative");
        self.client_rate = qps;
        self
    }

    /// Builder-style degradation-threshold override.
    pub fn with_degrade_threshold(mut self, level: f64) -> Self {
        self.degrade_threshold = level;
        self
    }

    /// Builder-style shed-threshold override.
    pub fn with_shed_threshold(mut self, level: f64) -> Self {
        self.shed_threshold = level;
        self
    }
}

/// Instantaneous load inputs for the pressure estimate. `queue_depth`
/// counts the query being admitted; the secondary signals are ratios in
/// `[0, 1]` gathered from the Data Store and Page Space *before* the
/// scheduler lock is taken (one-lock-at-a-time rule).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PressureSignals {
    /// WAITING queries including the one being admitted.
    pub queue_depth: usize,
    /// Admission bound (`OverloadConfig::max_pending`); `0` = unbounded.
    pub max_pending: usize,
    /// Data Store bytes used over budget, in `[0, 1]`.
    pub ds_occupancy: f64,
    /// Page Space miss ratio `misses / (hits + misses)`, in `[0, 1]`.
    pub ps_miss_ratio: f64,
    /// I/O retry ratio `retries / (pages + retries)`, in `[0, 1]`.
    pub retry_ratio: f64,
}

impl PressureSignals {
    /// The pressure level in `[0, 1]`. Queue occupancy is the primary
    /// signal — `queue_depth / max_pending` — amplified by up to 2x when
    /// the Data Store is full and I/O is struggling:
    ///
    /// ```text
    /// level = min(1, queue_fraction * (1 + ds/2 + miss/4 + retry/4))
    /// ```
    ///
    /// With a cold cache and clean I/O the level equals the queue
    /// fraction exactly, which keeps batch-time admission decisions
    /// bit-identical between the server and the simulator. A full Data
    /// Store alone never sheds anything (it is a cache, not a debt);
    /// it only makes a crowded queue count for more.
    pub fn level(&self) -> f64 {
        if self.max_pending == 0 {
            return 0.0;
        }
        let qf = (self.queue_depth as f64 / self.max_pending as f64).clamp(0.0, 1.0);
        let amp = 1.0
            + 0.5 * self.ds_occupancy.clamp(0.0, 1.0)
            + 0.25 * self.ps_miss_ratio.clamp(0.0, 1.0)
            + 0.25 * self.retry_ratio.clamp(0.0, 1.0);
        (qf * amp).min(1.0)
    }
}

/// The pressure monitor's secondary inputs from raw Data Store and Page
/// Space counters: `(ds_occupancy, ps_miss_ratio, retry_ratio)`, each in
/// `[0, 1]` and `0` while its denominator is still zero. Both engines
/// feed these into [`PressureSignals`]; the threaded one must gather the
/// counters *before* taking its admission lock.
pub fn pressure_secondary(
    ds_used: u64,
    ds_budget: u64,
    ps_hits: u64,
    ps_misses: u64,
    pages_fetched: u64,
    read_retries: u64,
) -> (f64, f64, f64) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    (
        ratio(ds_used, ds_budget),
        ratio(ps_misses, ps_hits + ps_misses),
        ratio(read_retries, pages_fetched + read_retries),
    )
}

/// A deterministic token bucket. Time is `f64` seconds from any fixed
/// origin; the same call sequence yields the same accept/reject decisions
/// in real and virtual time.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: f64,
    last: f64,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second, starting full with a
    /// burst capacity of `max(rate, 1.0)` (a 1 q/s client may always send
    /// its first query immediately).
    pub fn new(rate: f64) -> Self {
        let burst = rate.max(1.0);
        TokenBucket {
            tokens: burst,
            last: 0.0,
            rate,
            burst,
        }
    }

    fn refill(&mut self, now: f64) {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Takes one token at time `now` (seconds); `false` means the caller
    /// is over its rate and should be rejected.
    pub fn try_take(&mut self, now: f64) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Seconds from `now` until a token will be available (0 if one
    /// already is). Used for the `retry_after` hint on rejection.
    pub fn time_to_token(&self, now: f64) -> f64 {
        let mut b = *self;
        b.refill(now);
        if b.tokens >= 1.0 || b.rate <= 0.0 {
            0.0
        } else {
            (1.0 - b.tokens) / b.rate
        }
    }
}

/// Outcome of the lock-free admission fast path (see
/// [`fast_path_admissible`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastAdmit {
    /// Admit undegraded; the full ladder would decide identically, so it
    /// need not run.
    Admit,
    /// Reject: the bounded queue is full. Identical to the ladder's
    /// queue-full rejection.
    RejectFull,
    /// The decision may depend on secondary pressure signals or mutable
    /// state (token buckets) — run the full ladder.
    Escalate,
}

/// Decides whether an admission decision can be taken from a queue-depth
/// read alone, with *provably* the same outcome as the full ladder.
///
/// `queue_depth` is the current number of WAITING queries, *excluding*
/// the query being admitted (the level bound adds it back, matching the
/// ladder's `depth + 1` convention).
///
/// The proof obligation is the pressure amplification bound: secondary
/// signals multiply the queue fraction by at most
/// `1 + 0.5 + 0.25 + 0.25 = 2.0` ([`PressureSignals::level`]), so
///
/// ```text
/// level <= 2 * (queue_depth + 1) / max_pending
/// ```
///
/// whatever the Data Store / Page Space state. When that bound is
/// strictly below every active degrade/shed threshold, the ladder cannot
/// degrade or shed either, and plain admission is the unique outcome —
/// no global lock or secondary-signal gathering needed. Rate limiting
/// always escalates (bucket state is mutable), and a near-threshold
/// depth escalates so the exact level decides.
pub fn fast_path_admissible(cfg: &OverloadConfig, queue_depth: usize) -> FastAdmit {
    if cfg.client_rate > 0.0 {
        return FastAdmit::Escalate;
    }
    if cfg.max_pending > 0 && queue_depth >= cfg.max_pending {
        return FastAdmit::RejectFull;
    }
    // With an unbounded queue the level is identically 0, so degrade and
    // shed can never fire regardless of thresholds.
    if cfg.max_pending == 0 {
        return FastAdmit::Admit;
    }
    let mut threshold = f64::INFINITY;
    if cfg.degrades() {
        threshold = threshold.min(cfg.degrade_threshold);
    }
    if cfg.sheds() {
        threshold = threshold.min(cfg.shed_threshold);
    }
    if threshold == f64::INFINITY {
        return FastAdmit::Admit;
    }
    let qf_next = (queue_depth + 1) as f64 / cfg.max_pending as f64;
    if 2.0 * qf_next < threshold {
        FastAdmit::Admit
    } else {
        FastAdmit::Escalate
    }
}

/// Picks the query to shed from the WAITING set: largest `qinputsize`
/// first (the SJF/IoAware rationale — under congestion the biggest I/O
/// jobs delay everyone), breaking ties by latest arrival (shed the
/// newest), then by largest id. Candidates are `(id, qinputsize,
/// arrival_seq)` tuples; returns `None` on an empty set.
pub fn shed_victim<I>(candidates: I) -> Option<QueryId>
where
    I: IntoIterator<Item = (QueryId, u64, u64)>,
{
    candidates
        .into_iter()
        .max_by_key(|&(id, size, arrival)| (size, arrival, id))
        .map(|(id, _, _)| id)
}

/// A coarse `retry_after` estimate for rejected queries: the time to
/// drain the current queue at the observed mean service time, with a
/// floor so clients never busy-spin. Not part of the golden trace.
pub fn retry_after_estimate(queue_depth: usize, threads: usize, mean_service_s: f64) -> f64 {
    let per_slot = queue_depth as f64 / threads.max(1) as f64;
    let service = if mean_service_s > 0.0 {
        mean_service_s
    } else {
        0.05
    };
    (per_slot * service).max(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_disabled() {
        let c = OverloadConfig::default();
        assert!(!c.enabled());
        assert!(!c.degrades());
        assert!(!c.sheds());
        let s = PressureSignals {
            queue_depth: 1000,
            max_pending: c.max_pending,
            ..Default::default()
        };
        assert_eq!(s.level(), 0.0, "unbounded queue exerts no pressure");
    }

    #[test]
    fn any_knob_enables() {
        assert!(OverloadConfig {
            max_pending: 1,
            ..Default::default()
        }
        .enabled());
        assert!(OverloadConfig {
            client_rate: 0.5,
            ..Default::default()
        }
        .enabled());
        assert!(OverloadConfig {
            degrade_threshold: 0.5,
            ..Default::default()
        }
        .enabled());
        assert!(OverloadConfig {
            shed_threshold: 1.0,
            ..Default::default()
        }
        .enabled());
    }

    #[test]
    fn cold_cache_pressure_equals_queue_fraction() {
        let s = PressureSignals {
            queue_depth: 4,
            max_pending: 8,
            ..Default::default()
        };
        assert!((s.level() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn secondary_signals_amplify_but_cap_at_one() {
        let base = PressureSignals {
            queue_depth: 4,
            max_pending: 8,
            ..Default::default()
        };
        let hot = PressureSignals {
            ds_occupancy: 1.0,
            ps_miss_ratio: 1.0,
            retry_ratio: 1.0,
            ..base
        };
        assert!(hot.level() > base.level());
        assert!((hot.level() - 1.0).abs() < 1e-12, "0.5 * 2.0 caps at 1.0");
        let full = PressureSignals {
            queue_depth: 99,
            max_pending: 8,
            ds_occupancy: 1.0,
            ..base
        };
        assert_eq!(full.level(), 1.0);
    }

    #[test]
    fn full_ds_alone_never_pressures_an_empty_queue() {
        let s = PressureSignals {
            queue_depth: 0,
            max_pending: 8,
            ds_occupancy: 1.0,
            ps_miss_ratio: 1.0,
            retry_ratio: 1.0,
        };
        assert_eq!(s.level(), 0.0);
    }

    #[test]
    fn token_bucket_enforces_sustained_rate() {
        let mut b = TokenBucket::new(2.0);
        // Burst of 2 at t=0, then refill at 2/s.
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0));
        assert!(b.time_to_token(0.0) > 0.0);
        assert!(b.try_take(0.5), "one token refilled after 0.5 s at 2/s");
        assert!(!b.try_take(0.5));
        // Long idle refills to burst, not beyond.
        assert!(b.try_take(100.0));
        assert!(b.try_take(100.0));
        assert!(!b.try_take(100.0));
    }

    #[test]
    fn token_bucket_is_deterministic() {
        let times = [0.0, 0.1, 0.4, 0.4, 1.0, 2.5, 2.5, 2.5];
        let run = || {
            let mut b = TokenBucket::new(1.5);
            times.iter().map(|&t| b.try_take(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn token_bucket_ignores_time_going_backwards() {
        let mut b = TokenBucket::new(1.0);
        assert!(b.try_take(5.0));
        // A non-monotone clock sample must not refill or panic.
        assert!(!b.try_take(4.0));
        assert!(b.try_take(6.0));
    }

    #[test]
    fn shed_victim_prefers_largest_then_newest() {
        let c = [
            (QueryId(1), 100, 0),
            (QueryId(2), 300, 1),
            (QueryId(3), 300, 2),
            (QueryId(4), 200, 3),
        ];
        assert_eq!(shed_victim(c), Some(QueryId(3)), "largest size, newest");
        assert_eq!(shed_victim([]), None);
    }

    #[test]
    fn fast_path_rate_limiting_always_escalates() {
        let cfg = OverloadConfig::default().with_client_rate(2.0);
        assert_eq!(fast_path_admissible(&cfg, 0), FastAdmit::Escalate);
    }

    #[test]
    fn fast_path_unbounded_queue_admits() {
        assert_eq!(
            fast_path_admissible(&OverloadConfig::default(), 10_000),
            FastAdmit::Admit
        );
        // Degrade/shed thresholds are irrelevant when level() is pinned
        // to 0 by max_pending == 0.
        let cfg = OverloadConfig::default()
            .with_degrade_threshold(0.1)
            .with_shed_threshold(0.2);
        assert_eq!(fast_path_admissible(&cfg, 10_000), FastAdmit::Admit);
    }

    #[test]
    fn fast_path_rejects_full_queue() {
        let cfg = OverloadConfig::default().with_max_pending(8);
        assert_eq!(fast_path_admissible(&cfg, 8), FastAdmit::RejectFull);
        assert_eq!(fast_path_admissible(&cfg, 9), FastAdmit::RejectFull);
        assert_eq!(fast_path_admissible(&cfg, 7), FastAdmit::Admit);
    }

    #[test]
    fn fast_path_escalates_near_thresholds() {
        let cfg = OverloadConfig::default()
            .with_max_pending(8)
            .with_degrade_threshold(0.5)
            .with_shed_threshold(0.9);
        // depth 0 -> worst-case level 2 * 1/8 = 0.25 < 0.5: fast admit.
        assert_eq!(fast_path_admissible(&cfg, 0), FastAdmit::Admit);
        // depth 1 -> bound 0.5, not strictly below 0.5: escalate.
        assert_eq!(fast_path_admissible(&cfg, 1), FastAdmit::Escalate);
        assert_eq!(fast_path_admissible(&cfg, 7), FastAdmit::Escalate);
    }

    /// The soundness property behind the fast path: whenever it answers
    /// Admit or RejectFull, the full ladder reaches the same decision for
    /// *every* admissible secondary-signal combination.
    #[test]
    fn fast_path_matches_full_ladder_under_any_signals() {
        let signal_grid = [0.0, 0.3, 1.0];
        for max_pending in [0usize, 4, 8, 32] {
            for (dt, st) in [
                (f64::INFINITY, f64::INFINITY),
                (0.5, f64::INFINITY),
                (f64::INFINITY, 0.9),
                (0.5, 0.9),
                (0.2, 0.3),
            ] {
                let cfg = OverloadConfig::default()
                    .with_max_pending(max_pending)
                    .with_degrade_threshold(dt)
                    .with_shed_threshold(st);
                for depth in 0..=40 {
                    let fast = fast_path_admissible(&cfg, depth);
                    for &ds in &signal_grid {
                        for &miss in &signal_grid {
                            for &retry in &signal_grid {
                                // The ladder's decision with these signals.
                                let full_reject = cfg.max_pending > 0 && depth >= cfg.max_pending;
                                let level = PressureSignals {
                                    queue_depth: depth + 1,
                                    max_pending: cfg.max_pending,
                                    ds_occupancy: ds,
                                    ps_miss_ratio: miss,
                                    retry_ratio: retry,
                                }
                                .level();
                                match fast {
                                    FastAdmit::RejectFull => assert!(full_reject),
                                    FastAdmit::Admit => {
                                        assert!(!full_reject);
                                        assert!(
                                            level < cfg.degrade_threshold
                                                && level < cfg.shed_threshold,
                                            "fast admit but ladder would act: \
                                             level {level} cfg {cfg:?} depth {depth}"
                                        );
                                    }
                                    FastAdmit::Escalate => {}
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn retry_after_has_a_floor_and_scales_with_depth() {
        assert!(retry_after_estimate(0, 4, 0.0) >= 0.01);
        let shallow = retry_after_estimate(4, 4, 0.1);
        let deep = retry_after_estimate(16, 4, 0.1);
        assert!(deep > shallow);
    }
}
