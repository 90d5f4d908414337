//! Overload-management policy: the admission ladder, per-client
//! token-bucket rate limiting, pressure estimation, and shed-victim
//! selection.
//!
//! Everything in this module is pure and deterministic: it takes no lock
//! and reads no clock (time enters only as `f64` seconds from an
//! engine-chosen origin), so the threaded server (real time) and the
//! discrete-event simulator (virtual time) call the *same* [`admit`] and
//! produce golden-traceable admission / degradation / shed decisions.
//!
//! The ladder, applied at submit/arrival time (DESIGN.md §10):
//!
//! 1. **Rate limit** — a token bucket per client; an empty bucket rejects
//!    the query with a `retry_after` hint.
//! 2. **Bounded queue** — `waiting >= max_pending` rejects outright.
//! 3. **Degrade** — pressure at or above `degrade_threshold` downgrades
//!    the query to its cheaper plan (Virtual Microscope: `Average` →
//!    `Subsample`) when the application offers one.
//! 4. **Shed while** — pressure at or above `shed_threshold` evicts the
//!    largest-`qinputsize` WAITING queries (newest first on ties) until
//!    pressure falls below the threshold. This mirrors the SJF rationale
//!    in the simulator's `SchedPolicy::IoAware`: under congestion the
//!    biggest jobs hurt everyone else the most.

use crate::ids::{ClientId, QueryId};
use std::collections::HashMap;

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

/// The pressure monitor's secondary inputs, each a ratio in `[0, 1]`
/// (DESIGN.md §10). Only a driver can read them — from its Data Store and
/// Page Space — so [`admit`] asks for them, and only when they can matter.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Secondary {
    /// Data Store bytes used over budget.
    pub ds_occupancy: f64,
    /// Page Space miss ratio `misses / (hits + misses)`.
    pub ps_miss_ratio: f64,
    /// I/O retry ratio `retries / (pages + retries)`.
    pub retry_ratio: f64,
}

impl Secondary {
    /// The three ratios from raw Data Store and Page Space counters; each
    /// is `0` while its denominator is still zero.
    pub fn from_counters(
        ds_used: u64,
        ds_budget: u64,
        ps_hits: u64,
        ps_misses: u64,
        pages_fetched: u64,
        read_retries: u64,
    ) -> Self {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Secondary {
            ds_occupancy: ratio(ds_used, ds_budget),
            ps_miss_ratio: ratio(ps_misses, ps_hits + ps_misses),
            retry_ratio: ratio(read_retries, pages_fetched + read_retries),
        }
    }

    /// How much the signals amplify the queue fraction: between 1 (cold
    /// cache, clean I/O) and [`MAX_AMPLIFICATION`].
    fn amplification(&self) -> f64 {
        1.0 + 0.5 * self.ds_occupancy.clamp(0.0, 1.0)
            + 0.25 * self.ps_miss_ratio.clamp(0.0, 1.0)
            + 0.25 * self.retry_ratio.clamp(0.0, 1.0)
    }
}

/// The most [`Secondary`] can amplify the queue fraction by
/// (`1 + 0.5 + 0.25 + 0.25`): the bound that lets [`admit`] settle most
/// verdicts from the queue depth alone.
const MAX_AMPLIFICATION: f64 = 2.0;

/// The pressure estimate a verdict was reached on: the level at any queue
/// depth, and the ladder's last rung, *shed while*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pressure {
    max_pending: usize,
    amplification: f64,
    shed_threshold: f64,
}

impl Pressure {
    /// The pressure level in `[0, 1]` with `depth` queries WAITING. Queue
    /// occupancy is the primary signal, amplified by up to 2x when the
    /// Data Store is full and I/O is struggling:
    ///
    /// ```text
    /// level = min(1, depth / max_pending * (1 + ds/2 + miss/4 + retry/4))
    /// ```
    ///
    /// With a cold cache and clean I/O the level equals the queue fraction
    /// exactly, which keeps batch-time decisions bit-identical between the
    /// engines. A full Data Store alone never sheds anything (it is a
    /// cache, not a debt); it only makes a crowded queue count for more.
    /// An unbounded queue (`max_pending == 0`) exerts no pressure.
    pub fn level(&self, depth: usize) -> f64 {
        if self.max_pending == 0 {
            return 0.0;
        }
        let queue_fraction = (depth as f64 / self.max_pending as f64).clamp(0.0, 1.0);
        (queue_fraction * self.amplification).min(1.0)
    }

    /// True while the driver must shed one more WAITING query (chosen by
    /// [`shed_victim`]) and ask again with the new depth.
    pub fn sheds_at(&self, depth: usize) -> bool {
        self.level(depth) >= self.shed_threshold
    }
}

/// What the ladder decided for one arriving query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Refused.
    Reject {
        /// The client's token bucket was empty (else the queue was full).
        rate_limited: bool,
        /// Seconds after which re-submitting is likely to be admitted.
        retry_after: f64,
    },
    /// Admitted, after which the driver sheds while
    /// [`Pressure::sheds_at`] holds.
    Admit {
        /// Pressure reached the degrade threshold: run the application's
        /// cheaper plan, if it offers one.
        degrade: bool,
    },
}

/// The admission ladder for one query arriving while `depth` queries are
/// WAITING (the arrival excluded) on a pool of `workers`. The three
/// things only a driver can supply are consulted lazily: `take_token`
/// (the client's token bucket: `Err(seconds until a token)` when empty)
/// only under rate limiting, `mean_service_s` only to word a queue-full
/// refusal, and `secondary` only when the depth alone does not settle the
/// verdict — since `level <= 2 * (depth + 1) / max_pending` whatever the
/// Data Store and Page Space are doing, a bound strictly below every
/// threshold in force means nothing can degrade or shed. Returns the
/// verdict with the estimate it was reached on (the queue fraction alone
/// when the signals were not needed).
pub fn admit(
    cfg: &OverloadConfig,
    depth: usize,
    workers: usize,
    take_token: impl FnOnce() -> Result<(), f64>,
    secondary: impl FnOnce() -> Secondary,
    mean_service_s: impl FnOnce() -> f64,
) -> (Verdict, Pressure) {
    let mut pressure = Pressure {
        max_pending: cfg.max_pending,
        amplification: 1.0,
        shed_threshold: f64::INFINITY,
    };
    let reject = |rate_limited, retry_after| Verdict::Reject {
        rate_limited,
        retry_after,
    };
    if cfg.client_rate > 0.0 {
        if let Err(wait) = take_token() {
            return (reject(true, wait.max(1e-3)), pressure);
        }
    }
    if cfg.max_pending > 0 && depth >= cfg.max_pending {
        let drained = retry_after_estimate(depth, workers, mean_service_s());
        return (reject(false, drained), pressure);
    }
    let bound = (MAX_AMPLIFICATION * pressure.level(depth + 1)).min(1.0);
    if bound >= cfg.degrade_threshold.min(cfg.shed_threshold) {
        pressure.amplification = secondary().amplification();
        pressure.shed_threshold = cfg.shed_threshold;
    }
    let degrade = pressure.level(depth + 1) >= cfg.degrade_threshold;
    (Verdict::Admit { degrade }, pressure)
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

/// One [`TokenBucket`] per client, created full on the client's first
/// query: the state behind [`admit`]'s `take_token`.
#[derive(Debug, Default)]
pub struct RateLimiter {
    buckets: HashMap<ClientId, TokenBucket>,
}

impl RateLimiter {
    /// Takes one of `client`'s tokens at time `now`, refilled at `rate`
    /// per second; `Err` carries the seconds until it has one.
    pub fn take(&mut self, client: ClientId, rate: f64, now: f64) -> Result<(), f64> {
        let bucket = self
            .buckets
            .entry(client)
            .or_insert_with(|| TokenBucket::new(rate));
        if bucket.try_take(now) {
            Ok(())
        } else {
            Err(bucket.time_to_token(now))
        }
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
fn retry_after_estimate(queue_depth: usize, threads: usize, mean_service_s: f64) -> f64 {
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
    use std::cell::Cell;

    fn pressure(max_pending: usize, s: Secondary) -> Pressure {
        Pressure {
            max_pending,
            amplification: s.amplification(),
            shed_threshold: f64::INFINITY,
        }
    }

    const HOT: Secondary = Secondary {
        ds_occupancy: 1.0,
        ps_miss_ratio: 1.0,
        retry_ratio: 1.0,
    };

    /// Runs the ladder with suppliers that count how often they are asked.
    fn ladder(
        cfg: &OverloadConfig,
        depth: usize,
        token: Result<(), f64>,
    ) -> ((Verdict, Pressure), [u32; 3]) {
        let asked = [Cell::new(0), Cell::new(0), Cell::new(0)];
        let ask = |i: usize| asked[i].set(asked[i].get() + 1);
        let verdict = admit(
            cfg,
            depth,
            4,
            || {
                ask(0);
                token
            },
            || {
                ask(1);
                HOT
            },
            || {
                ask(2);
                0.1
            },
        );
        (verdict, asked.map(|c| c.get()))
    }

    #[test]
    fn default_config_is_fully_disabled() {
        let c = OverloadConfig::default();
        assert!(!c.enabled());
        assert_eq!(
            pressure(c.max_pending, HOT).level(1000),
            0.0,
            "unbounded queue exerts no pressure"
        );
        // However deep the queue, the ladder admits without asking the
        // driver for anything.
        let ((verdict, pressure), asked) = ladder(&c, 10_000, Err(1.0));
        assert_eq!(asked, [0, 0, 0]);
        assert_eq!(verdict, Verdict::Admit { degrade: false });
        assert!(!pressure.sheds_at(10_001));
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
        let p = pressure(8, Secondary::default());
        assert!((p.level(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn secondary_signals_amplify_but_cap_at_one() {
        let base = pressure(8, Secondary::default());
        let hot = pressure(8, HOT);
        assert!(hot.level(4) > base.level(4));
        assert!((hot.level(4) - 1.0).abs() < 1e-12, "0.5 * 2.0 caps at 1.0");
        assert_eq!(HOT.amplification(), MAX_AMPLIFICATION);
        let full_ds = Secondary {
            ds_occupancy: 1.0,
            ..Secondary::default()
        };
        assert_eq!(pressure(8, full_ds).level(99), 1.0);
    }

    #[test]
    fn full_ds_alone_never_pressures_an_empty_queue() {
        assert_eq!(pressure(8, HOT).level(0), 0.0);
    }

    #[test]
    fn secondary_ratios_are_zero_until_their_denominators_are_not() {
        assert_eq!(
            Secondary::from_counters(5, 0, 0, 0, 0, 0),
            Secondary::default()
        );
        let s = Secondary::from_counters(1, 4, 3, 1, 9, 1);
        assert_eq!(
            (s.ds_occupancy, s.ps_miss_ratio, s.retry_ratio),
            (0.25, 0.25, 0.1)
        );
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
    fn rate_limiter_meters_each_client_on_its_own() {
        let mut r = RateLimiter::default();
        assert_eq!(r.take(ClientId(1), 1.0, 0.0), Ok(()));
        assert_eq!(r.take(ClientId(1), 1.0, 0.0), Err(1.0));
        assert_eq!(r.take(ClientId(2), 1.0, 0.0), Ok(()));
        assert_eq!(r.take(ClientId(1), 1.0, 1.0), Ok(()));
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
    fn rate_limit_is_the_first_rung_and_consumes_a_token_even_when_full() {
        let cfg = OverloadConfig::default()
            .with_client_rate(2.0)
            .with_max_pending(8);
        // Over rate and queue full: the rate limiter answers, with the
        // bucket's wait (floored) as the hint.
        let ((verdict, pressure), asked) = ladder(&cfg, 8, Err(0.25));
        assert_eq!(asked, [1, 0, 0]);
        let rate_limited = |retry_after| Verdict::Reject {
            rate_limited: true,
            retry_after,
        };
        assert_eq!(verdict, rate_limited(0.25));
        assert_eq!(pressure.level(8), 1.0);
        assert_eq!(ladder(&cfg, 0, Err(0.0)).0 .0, rate_limited(1e-3));
        // Within rate but full: the token is spent, the queue refuses.
        let ((verdict, _), asked) = ladder(&cfg, 8, Ok(()));
        assert_eq!(asked, [1, 0, 1]);
        assert!(matches!(
            verdict,
            Verdict::Reject {
                rate_limited: false,
                ..
            }
        ));
    }

    #[test]
    fn bounded_queue_rejects_at_the_bound_without_signals() {
        let cfg = OverloadConfig::default().with_max_pending(8);
        for depth in [8, 9] {
            let ((verdict, pressure), asked) = ladder(&cfg, depth, Ok(()));
            assert_eq!(asked, [0, 0, 1], "depth {depth}");
            assert!(matches!(
                verdict,
                Verdict::Reject {
                    rate_limited: false,
                    ..
                }
            ));
            assert_eq!(pressure.level(depth), 1.0);
        }
        let ((verdict, _), asked) = ladder(&cfg, 7, Ok(()));
        assert_eq!(asked, [0, 0, 0]);
        assert_eq!(verdict, Verdict::Admit { degrade: false });
    }

    #[test]
    fn signals_are_gathered_only_when_the_bound_leaves_a_threshold_in_reach() {
        let cfg = OverloadConfig::default()
            .with_max_pending(8)
            .with_degrade_threshold(0.5)
            .with_shed_threshold(0.9);
        // depth 0 -> level at most 2 * 1/8 = 0.25 < 0.5: settled.
        let ((verdict, pressure), asked) = ladder(&cfg, 0, Ok(()));
        assert_eq!(asked, [0, 0, 0]);
        assert_eq!(verdict, Verdict::Admit { degrade: false });
        // A settled verdict cannot shed, at any depth.
        assert!(!pressure.sheds_at(8));
        // depth 1 -> bound 0.5, not strictly below 0.5: the signals
        // decide, and HOT ones (2x) degrade at a quarter-full queue.
        let ((verdict, pressure), asked) = ladder(&cfg, 1, Ok(()));
        assert_eq!(asked, [0, 1, 0]);
        assert_eq!(verdict, Verdict::Admit { degrade: true });
        assert_eq!(pressure.level(2), 0.5);
        assert!(!pressure.sheds_at(2) && pressure.sheds_at(4));
        // Thresholds above 1 are off: nothing is in reach at any depth.
        let off = OverloadConfig::default()
            .with_max_pending(8)
            .with_degrade_threshold(1.5);
        assert_eq!(ladder(&off, 7, Ok(())).1, [0, 0, 0]);
    }

    #[test]
    fn retry_after_has_a_floor_and_scales_with_depth() {
        assert!(retry_after_estimate(0, 4, 0.0) >= 0.01);
        let shallow = retry_after_estimate(4, 4, 0.1);
        let deep = retry_after_estimate(16, 4, 0.1);
        assert!(deep > shallow);
    }
}
