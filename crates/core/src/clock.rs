//! The single sanctioned wall-clock origin.
//!
//! Every other module reads time through [`now`] (monotonic) or
//! [`unix_now`] (calendar). Calling `Instant::now()` / `SystemTime::now()`
//! anywhere else is forbidden: `clippy.toml` lists both under
//! `disallowed-methods`, and CI runs clippy with `-D warnings`.
//!
//! Funnelling time through one module keeps engine behaviour testable
//! (a future virtual clock swaps one function, not fifty call sites)
//! and keeps wall-clock reads out of conformance surfaces: the
//! simulator and the golden traces must never depend on host time.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Reads the monotonic clock.
///
/// This is the only permitted `Instant::now()` call site in the
/// workspace.
#[allow(clippy::disallowed_methods)] // the origin
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds since the Unix epoch (calendar time, e.g. for report
/// headers). Never used on scheduling or conformance paths.
#[allow(clippy::disallowed_methods)] // the origin
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn unix_epoch_sane() {
        // Any real host is past 2020 and before year ~2100.
        let t = unix_now();
        assert!(t > 1.5e9 && t < 4.2e9);
    }
}
