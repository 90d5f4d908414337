//! Seeded chaos injection for the failure-containment layer
//! (DESIGN.md §15).
//!
//! Where `vmqs_storage::FaultConfig` models the *storage* failing (bad reads,
//! latency spikes), [`ChaosConfig`] models the *process* failing: worker
//! panics mid-compute, the machine dying mid-spill-write, and silent
//! on-disk corruption. Every decision is a pure function of the seed and
//! stable coordinates (query id, global compute ordinal, spill-write
//! ordinal), so a chaotic run replays exactly under the same seed and
//! both engines (threaded server, virtual-time simulator) draw identical
//! failure plans.
//!
//! Three injection points:
//!
//! * **poison queries** — `query_is_poison(id)` draws per *query id*, so
//!   a poisoned query panics its worker on every attempt. This is what
//!   exercises the quarantine rule: requeue-and-retry cannot save a
//!   deterministic panic, only a bounded quarantine can.
//! * **panic-at-nth-compute** — a one-shot panic at a specific global
//!   compute ordinal; deterministic at one worker, used by the sim
//!   golden and the forced-panic regression tests.
//! * **spill kill-points** — `crash_spill_write` makes the Nth
//!   `vmqs_storage::SpillStore::write` die mid-write (a torn `.tmp`, never
//!   renamed); `bit_flip_frame` flips one payload bit in the Nth frame
//!   *after* its CRC was computed, so the frame lands intact-looking but
//!   fails validation at read or recovery time.

/// Chaos-injection knobs. `Copy` so it can ride inside the (also-`Copy`)
/// simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the poison-query draws.
    pub seed: u64,
    /// Probability that a *query* is poisoned — its compute panics the
    /// worker deterministically on every attempt, in `[0, 1]`.
    pub poison_rate: f64,
    /// Panic the worker on exactly this global compute ordinal
    /// (0-based), once. `None` disables.
    pub panic_at_compute: Option<u64>,
    /// Simulate a crash during the Nth spill write (0-based): the frame
    /// is left as a torn `.tmp` file and the write fails. `None`
    /// disables.
    pub crash_spill_write: Option<u64>,
    /// Flip one payload bit in the Nth spill frame (0-based) after its
    /// checksum was computed, producing an on-disk frame whose CRC
    /// trailer rejects it. `None` disables.
    pub bit_flip_frame: Option<u64>,
}

/// SplitMix64 finalizer (the same mixer the fault injector uses).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_POISON: u64 = 0x706F_6973_6F6E;

impl ChaosConfig {
    /// No chaos at all (the identity configuration).
    pub fn none() -> Self {
        ChaosConfig {
            seed: 0,
            poison_rate: 0.0,
            panic_at_compute: None,
            crash_spill_write: None,
            bit_flip_frame: None,
        }
    }

    /// True when this configuration injects nothing.
    pub fn is_noop(&self) -> bool {
        self.poison_rate <= 0.0
            && self.panic_at_compute.is_none()
            && self.crash_spill_write.is_none()
            && self.bit_flip_frame.is_none()
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style poison-query rate.
    pub fn with_poison_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "poison rate must lie in [0, 1]"
        );
        self.poison_rate = rate;
        self
    }

    /// Builder-style panic-at-nth-compute override.
    pub fn with_panic_at_compute(mut self, n: Option<u64>) -> Self {
        self.panic_at_compute = n;
        self
    }

    /// Builder-style crash-mid-spill override.
    pub fn with_crash_spill_write(mut self, n: Option<u64>) -> Self {
        self.crash_spill_write = n;
        self
    }

    /// Builder-style frame-bit-flip override.
    pub fn with_bit_flip_frame(mut self, n: Option<u64>) -> Self {
        self.bit_flip_frame = n;
        self
    }

    /// True when the query with raw id `query` is poisoned: its compute
    /// panics the worker on *every* attempt. A pure function of the seed
    /// and the id — requeueing and retrying draws the same verdict, which
    /// is exactly what the quarantine rule exists to contain.
    pub fn query_is_poison(&self, query: u64) -> bool {
        if self.poison_rate <= 0.0 {
            return false;
        }
        let h = mix(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ SALT_POISON
            ^ query.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.poison_rate
    }

    /// True when the compute with global ordinal `n` must panic — either
    /// the one-shot `panic_at_compute` ordinal, or the query is poisoned.
    pub fn compute_should_panic(&self, n: u64, query: u64) -> bool {
        self.panic_at_compute == Some(n) || self.query_is_poison(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_noop() {
        assert!(ChaosConfig::none().is_noop());
        assert!(!ChaosConfig::none().query_is_poison(7));
        assert!(!ChaosConfig::none().compute_should_panic(0, 0));
    }

    #[test]
    fn builders_compose() {
        let c = ChaosConfig::none()
            .with_seed(9)
            .with_poison_rate(0.25)
            .with_panic_at_compute(Some(3))
            .with_crash_spill_write(Some(1))
            .with_bit_flip_frame(Some(2));
        assert!(!c.is_noop());
        assert_eq!(c.seed, 9);
        assert_eq!(c.poison_rate, 0.25);
        assert_eq!(c.panic_at_compute, Some(3));
        assert_eq!(c.crash_spill_write, Some(1));
        assert_eq!(c.bit_flip_frame, Some(2));
    }

    #[test]
    #[should_panic(expected = "poison rate")]
    fn out_of_range_poison_rate_rejected() {
        let _ = ChaosConfig::none().with_poison_rate(1.5);
    }

    #[test]
    fn poison_draws_are_deterministic_and_per_query() {
        let c = ChaosConfig::none().with_seed(42).with_poison_rate(0.2);
        let verdicts: Vec<bool> = (0..200).map(|q| c.query_is_poison(q)).collect();
        let again: Vec<bool> = (0..200).map(|q| c.query_is_poison(q)).collect();
        assert_eq!(verdicts, again, "same seed must replay exactly");
        let other = ChaosConfig::none().with_seed(43).with_poison_rate(0.2);
        assert_ne!(
            verdicts,
            (0..200)
                .map(|q| other.query_is_poison(q))
                .collect::<Vec<_>>(),
            "different seeds must differ"
        );
        let poisoned = verdicts.iter().filter(|&&p| p).count();
        // 200 draws at 20%: comfortably within [5%, 40%].
        assert!((10..80).contains(&poisoned), "poisoned {poisoned}/200");
    }

    #[test]
    fn panic_at_compute_is_one_ordinal() {
        let c = ChaosConfig::none().with_panic_at_compute(Some(5));
        assert!(c.compute_should_panic(5, 0));
        assert!(!c.compute_should_panic(4, 0));
        assert!(!c.compute_should_panic(6, 0));
    }

    #[test]
    fn poisoned_query_panics_on_every_attempt() {
        let c = ChaosConfig::none().with_seed(1).with_poison_rate(0.3);
        let victim = (0..1000)
            .find(|&q| c.query_is_poison(q))
            .expect("some query is poisoned at 30%");
        for attempt in 0..4 {
            assert!(
                c.compute_should_panic(attempt * 17, victim),
                "attempt {attempt} must re-draw the same poison verdict"
            );
        }
    }
}
