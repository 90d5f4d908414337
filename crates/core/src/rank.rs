//! Totally-ordered rank values for the scheduling priority queue.
//!
//! Ranks are real-valued (sums of byte counts, possibly scaled by the CF
//! strategy's `α`), but Rust's `f64` is only partially ordered. [`Rank`]
//! wraps a finite `f64` and provides a total order so ranks can key ordered
//! collections. Construction rejects NaN; infinities are clamped so that
//! arithmetic overflow cannot poison the queue.

// Iteration order here reaches ranks and the conformance traces: a `for`
// loop over a hash map or set needs an `#[expect(.., reason)]` saying why
// its order cannot matter (DESIGN.md §11).
#![warn(clippy::iter_over_hash_type)]

use std::cmp::Ordering;
use std::fmt;

/// A finite, totally-ordered `f64` rank. Higher rank = scheduled earlier.
#[derive(Clone, Copy, PartialEq)]
pub struct Rank(f64);

impl Rank {
    /// The rank given to nodes with no reuse relationships (and the additive
    /// identity for rank accumulation).
    pub const ZERO: Rank = Rank(0.0);

    /// Creates a rank from a float. NaN is mapped to `0.0` (and flagged in
    /// debug builds); infinities are clamped to `f64::MAX` magnitude.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            debug_assert!(false, "NaN rank");
            return Rank(0.0);
        }
        Rank(v.clamp(f64::MIN, f64::MAX))
    }

    /// The raw float value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are guaranteed finite, so partial_cmp cannot fail.
        self.0.partial_cmp(&other.0).unwrap()
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rank({})", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for Rank {
    fn from(v: f64) -> Self {
        Rank::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_like_f64() {
        assert!(Rank::new(2.0) > Rank::new(1.0));
        assert!(Rank::new(-5.0) < Rank::ZERO);
        assert_eq!(Rank::new(3.5), Rank::new(3.5));
    }

    #[test]
    fn clamps_infinities() {
        assert_eq!(Rank::new(f64::INFINITY).value(), f64::MAX);
        assert_eq!(Rank::new(f64::NEG_INFINITY).value(), f64::MIN);
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = [Rank::new(3.0), Rank::new(-1.0), Rank::new(2.0)];
        v.sort();
        assert_eq!(
            v.iter().map(|r| r.value()).collect::<Vec<_>>(),
            vec![-1.0, 2.0, 3.0]
        );
    }
}
