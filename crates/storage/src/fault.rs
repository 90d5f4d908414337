//! Deterministic fault injection for data sources.
//!
//! The paper's server was evaluated on a healthy SMP; a production
//! deployment sees disks time out, reads return garbage, and latencies
//! spike. [`FaultInjectingSource`] wraps any [`DataSource`] and injects
//! such failures *deterministically*: every decision is a pure function of
//! `(seed, dataset, page, attempt)`, so a failing run replays exactly
//! under the same seed and tests can sweep fault rates reproducibly.
//!
//! Three failure classes are modeled (see DESIGN.md §8):
//!
//! * **transient** errors (`ErrorKind::Interrupted`) — drawn per read
//!   *attempt*; a retry of the same page may succeed. Stands in for EINTR,
//!   dropped NFS replies, SAN path flaps.
//! * **permanent** errors (`ErrorKind::InvalidData`) — drawn per *page*;
//!   every attempt on a poisoned page fails. Stands in for media errors
//!   and checksum failures. Retrying is pointless and callers are expected
//!   to give up immediately (see [`is_transient`]).
//! * **latency spikes** — drawn per attempt; the read sleeps
//!   [`FaultConfig::latency_spike`] before being served. Stands in for
//!   queue saturation and RAID rebuilds; exercises timeout paths.

use crate::source::DataSource;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vmqs_core::sync::{LockClass, Mutex};
use vmqs_core::DatasetId;

/// True when an I/O error is worth retrying: the documented transient
/// kinds (interrupted, would-block, timed-out) — everything else is
/// treated as permanent and fails the read immediately.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fault-injection knobs. All rates are per-page probabilities in
/// `[0, 1]`; `seed` makes every decision reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that one read *attempt* fails transiently (retryable).
    pub transient_rate: f64,
    /// Probability that a *page* is permanently unreadable (every attempt
    /// fails; stable across retries).
    pub permanent_rate: f64,
    /// Probability that one read attempt incurs a latency spike.
    pub latency_spike_rate: f64,
    /// Duration of an injected latency spike.
    pub latency_spike: Duration,
    /// Seed for all fault draws.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (the identity configuration).
    pub fn none() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            permanent_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::ZERO,
            seed: 0,
        }
    }

    /// Transient faults only, at `rate`, under `seed`.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultConfig {
            transient_rate: rate,
            seed,
            ..FaultConfig::none()
        }
    }

    /// True when this configuration injects nothing.
    pub fn is_noop(&self) -> bool {
        self.transient_rate <= 0.0 && self.permanent_rate <= 0.0 && self.latency_spike_rate <= 0.0
    }

    /// Builder-style permanent-fault rate.
    pub fn with_permanent(mut self, rate: f64) -> Self {
        self.permanent_rate = rate;
        self
    }

    /// Builder-style latency-spike override.
    pub fn with_spikes(mut self, rate: f64, spike: Duration) -> Self {
        self.latency_spike_rate = rate;
        self.latency_spike = spike;
        self
    }

    /// True when `(dataset, page)` is permanently unreadable under this
    /// configuration — a pure function of the seed, usable by the
    /// simulator and by tests to predict failures without issuing reads.
    pub fn page_is_poisoned(&self, dataset: DatasetId, page: u64) -> bool {
        self.permanent_rate > 0.0
            && draw(self.seed, SALT_PERMANENT, dataset, page, 0) < self.permanent_rate
    }

    /// Number of consecutive transient faults a fresh read of
    /// `(dataset, page)` would hit starting at attempt 0, capped at `max`.
    /// The discrete-event simulator uses this to charge retry latency
    /// without replaying byte-level reads.
    pub fn transient_streak(&self, dataset: DatasetId, page: u64, max: u32) -> u32 {
        if self.transient_rate <= 0.0 {
            return 0;
        }
        (0..max)
            .take_while(|&a| {
                draw(self.seed, SALT_TRANSIENT, dataset, page, a as u64) < self.transient_rate
            })
            .count() as u32
    }
}

/// Counters of injected faults (monotone; read with
/// [`FaultInjectingSource::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Read attempts observed.
    pub reads: u64,
    /// Transient errors injected.
    pub transient: u64,
    /// Permanent errors injected.
    pub permanent: u64,
    /// Latency spikes injected.
    pub spikes: u64,
}

/// SplitMix64 finalizer (the same mixer the synthetic source uses).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform draw in `[0, 1)` from hashed coordinates.
#[inline]
fn draw(seed: u64, salt: u64, dataset: DatasetId, page: u64, attempt: u64) -> f64 {
    let h = mix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt
        ^ mix(dataset.raw().wrapping_add(0xD1B5_4A32_D192_ED03))
        ^ page.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ attempt.wrapping_mul(0x94D0_49BB_1331_11EB));
    // Top 53 bits → exactly representable in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_TRANSIENT: u64 = 0x7472_616E_7369;
const SALT_PERMANENT: u64 = 0x7065_726D_616E;
const SALT_SPIKE: u64 = 0x0073_7069_6B65;

/// A [`DataSource`] decorator that injects deterministic faults.
///
/// Thread-safe; the per-page attempt counter is shared across callers, so
/// the *n*-th read of a page draws the *n*-th transient decision no matter
/// which query thread issues it. Total injected-fault counts are therefore
/// deterministic per seed even under concurrency (which page read observes
/// which attempt number depends on thread interleaving, but tests assert
/// aggregate behaviour, never per-thread assignments).
pub struct FaultInjectingSource<S> {
    inner: S,
    cfg: FaultConfig,
    /// Per-page read-attempt counters (transient draws differ per attempt).
    attempts: Mutex<HashMap<(DatasetId, u64), u64>>,
    reads: AtomicU64,
    transient: AtomicU64,
    permanent: AtomicU64,
    spikes: AtomicU64,
}

impl<S: DataSource> FaultInjectingSource<S> {
    /// Wraps `inner` with fault injection per `cfg`.
    pub fn new(inner: S, cfg: FaultConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.transient_rate)
                && (0.0..=1.0).contains(&cfg.permanent_rate)
                && (0.0..=1.0).contains(&cfg.latency_spike_rate),
            "fault rates must lie in [0, 1]"
        );
        FaultInjectingSource {
            inner,
            cfg,
            attempts: Mutex::ranked(LockClass::Storage, HashMap::new()),
            reads: AtomicU64::new(0),
            transient: AtomicU64::new(0),
            permanent: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            reads: self.reads.load(Ordering::Relaxed),
            transient: self.transient.load(Ordering::Relaxed),
            permanent: self.permanent.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
        }
    }

    /// True when `(dataset, page)` is poisoned under this seed (exposed so
    /// tests can predict which queries must fail).
    pub fn page_is_poisoned(&self, dataset: DatasetId, page: u64) -> bool {
        self.cfg.page_is_poisoned(dataset, page)
    }
}

impl<S: DataSource> DataSource for FaultInjectingSource<S> {
    fn read_page(&self, dataset: DatasetId, index: u64, page_size: usize) -> io::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let attempt = {
            let mut map = self.attempts.lock();
            let a = map.entry((dataset, index)).or_insert(0);
            let cur = *a;
            *a += 1;
            cur
        };
        if self.page_is_poisoned(dataset, index) {
            self.permanent.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("injected permanent fault: dataset {dataset:?} page {index}"),
            ));
        }
        if self.cfg.latency_spike_rate > 0.0
            && draw(self.cfg.seed, SALT_SPIKE, dataset, index, attempt)
                < self.cfg.latency_spike_rate
        {
            self.spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.cfg.latency_spike);
        }
        if self.cfg.transient_rate > 0.0
            && draw(self.cfg.seed, SALT_TRANSIENT, dataset, index, attempt)
                < self.cfg.transient_rate
        {
            self.transient.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!(
                    "injected transient fault: dataset {dataset:?} page {index} attempt {attempt}"
                ),
            ));
        }
        self.inner.read_page(dataset, index, page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;

    fn faulty(cfg: FaultConfig) -> FaultInjectingSource<SyntheticSource> {
        FaultInjectingSource::new(SyntheticSource::new(), cfg)
    }

    #[test]
    fn zero_rates_are_a_passthrough() {
        let s = faulty(FaultConfig::none());
        for p in 0..50 {
            let got = s.read_page(DatasetId(1), p, 128).unwrap();
            let want = SyntheticSource::new()
                .read_page(DatasetId(1), p, 128)
                .unwrap();
            assert_eq!(got, want);
        }
        let st = s.stats();
        assert_eq!(st.reads, 50);
        assert_eq!((st.transient, st.permanent, st.spikes), (0, 0, 0));
    }

    #[test]
    fn transient_faults_are_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let s = faulty(FaultConfig::transient(0.3, seed));
            (0..200)
                .map(|p| s.read_page(DatasetId(0), p, 64).is_err())
                .collect()
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed must replay exactly");
        assert_ne!(outcomes(7), outcomes(8), "different seeds must differ");
        let errs = outcomes(7).iter().filter(|&&e| e).count();
        // 200 draws at 30%: comfortably within [10%, 50%].
        assert!((20..100).contains(&errs), "observed {errs} faults");
    }

    #[test]
    fn transient_fault_clears_on_retry_attempts() {
        // Rate well below 1: some attempt must eventually succeed, and the
        // attempt counter advances the draw each retry.
        let s = faulty(FaultConfig::transient(0.5, 3));
        for p in 0..20 {
            let mut ok = false;
            for _ in 0..64 {
                if s.read_page(DatasetId(2), p, 32).is_ok() {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "page {p} never cleared its transient fault");
        }
        assert!(s.stats().transient > 0);
    }

    #[test]
    fn rate_one_transient_always_fails() {
        let s = faulty(FaultConfig::transient(1.0, 1));
        for _ in 0..10 {
            let e = s.read_page(DatasetId(0), 0, 32).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::Interrupted);
            assert!(is_transient(&e));
        }
    }

    #[test]
    fn permanent_faults_persist_across_attempts() {
        let cfg = FaultConfig::none().with_permanent(0.2);
        let cfg = FaultConfig { seed: 11, ..cfg };
        let s = faulty(cfg);
        let mut poisoned = 0;
        for p in 0..100 {
            if s.page_is_poisoned(DatasetId(5), p) {
                poisoned += 1;
                for _ in 0..3 {
                    let e = s.read_page(DatasetId(5), p, 32).unwrap_err();
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    assert!(!is_transient(&e));
                }
            } else {
                assert!(s.read_page(DatasetId(5), p, 32).is_ok());
            }
        }
        assert!((5..50).contains(&poisoned), "poisoned {poisoned}/100");
        assert_eq!(s.stats().permanent, poisoned * 3);
    }

    #[test]
    fn latency_spikes_delay_reads() {
        let cfg = FaultConfig::none().with_spikes(1.0, Duration::from_millis(5));
        let s = faulty(cfg);
        let t0 = vmqs_core::clock::now();
        s.read_page(DatasetId(0), 0, 32).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(s.stats().spikes, 1);
    }

    #[test]
    fn is_transient_classifies_kinds() {
        for k in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(is_transient(&io::Error::new(k, "x")), "{k:?}");
        }
        for k in [
            io::ErrorKind::InvalidData,
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(!is_transient(&io::Error::new(k, "x")), "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "fault rates")]
    fn out_of_range_rate_rejected() {
        faulty(FaultConfig::transient(1.5, 0));
    }

    #[test]
    fn transient_streak_matches_injected_attempts() {
        // The streak predicate must agree with what the injecting source
        // actually does attempt by attempt.
        let cfg = FaultConfig::transient(0.5, 21);
        let s = faulty(cfg);
        for p in 0..40u64 {
            let streak = cfg.transient_streak(DatasetId(1), p, 16);
            for a in 0..streak {
                assert!(
                    s.read_page(DatasetId(1), p, 32).is_err(),
                    "page {p} attempt {a} inside streak must fail"
                );
            }
            assert!(
                s.read_page(DatasetId(1), p, 32).is_ok(),
                "page {p} attempt {streak} after streak must succeed"
            );
        }
        assert_eq!(FaultConfig::none().transient_streak(DatasetId(0), 0, 8), 0);
        assert_eq!(
            FaultConfig::transient(1.0, 0).transient_streak(DatasetId(0), 0, 8),
            8,
            "rate 1.0 saturates the cap"
        );
    }
}
