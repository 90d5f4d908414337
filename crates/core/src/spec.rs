//! The application-developer contract: user-defined query predicates.
//!
//! The middleware of the paper is application-neutral; an application plugs
//! in by implementing four functions over its predicate meta-information
//! (paper §2, Eqs. 1–3 plus `qoutsize`):
//!
//! * `cmp(M_i, M_j)` — is the intermediate result described by `M_i` exactly
//!   the answer for `M_j`? (common-subexpression elimination),
//! * `overlap(M_i, M_j) ∈ [0, 1]` — fraction of `M_j`'s answer derivable
//!   from the result described by `M_i` through the `project` transformation,
//! * `qoutsize(M_i)` — output size in bytes (possibly an estimate),
//! * `qinputsize(M_i)` — input size in bytes, used by the SJF ranking
//!   strategy as a proxy for execution time (paper §4, strategy 6).
//!
//! The data-transforming `project` function itself lives with the execution
//! engines (it needs access to actual bytes); the scheduling layer only needs
//! the four metadata functions above. Reuse planning over them is
//! [`crate::plan`].

/// Predicate meta-information for a schedulable query.
///
/// Implementations must be cheap to clone (they are stored in the scheduling
/// graph, the data store, and workload logs).
pub trait QuerySpec: Clone + Send + Sync + 'static {
    /// Eq. 1: `true` when a result computed for `self` is *exactly* the
    /// answer for `other` (complete reuse / common subexpression).
    fn cmp(&self, other: &Self) -> bool;

    /// Eq. 2: how much of `other`'s answer can be computed from a result for
    /// `self` via the application's `project` transformation. Must lie in
    /// `[0, 1]`; `0` means no reuse (including the case where the
    /// transformation is not possible in this direction, e.g. a
    /// lower-resolution image cannot produce a higher-resolution one).
    fn overlap(&self, other: &Self) -> f64;

    /// Output size in bytes (`qoutsize` of the paper). May be an estimate
    /// for applications whose exact output size is only known at execution
    /// time.
    fn qoutsize(&self) -> u64;

    /// Input size in bytes (`qinputsize`): total size of the stored data
    /// that must be scanned to answer the query from scratch. Used by SJF
    /// as a relative execution-time estimate.
    fn qinputsize(&self) -> u64;

    /// Reusable bytes of a `self`-result when answering `other`; this is the
    /// scheduling-graph edge weight `w_{self,other} = overlap(self, other) *
    /// qoutsize(self)` (paper §4).
    fn reuse_bytes(&self, other: &Self) -> u64 {
        let ov = self.overlap(other);
        debug_assert!((0.0..=1.0).contains(&ov), "overlap out of range: {ov}");
        (ov * self.qoutsize() as f64).round() as u64
    }

    /// A strictly cheaper predicate that still answers the query window,
    /// or `None` when there is none: the quality knob the overload policy
    /// turns under pressure (DESIGN.md §10), read by both engines. The
    /// default has no cheaper form.
    fn degrade(&self) -> Option<Self> {
        None
    }
}

/// Minimal [`QuerySpec`] implementation for tests and benchmarks of the
/// scheduling machinery (not part of the public API surface proper).
#[doc(hidden)]
pub mod testutil {
    use super::QuerySpec;

    /// A minimal 1-D interval predicate used by the core crate's own tests:
    /// the "dataset" is the integer line, a query covers `[start, start+len)`
    /// and produces one output byte per covered unit divided by `scale`.
    /// A result at scale `s` can be projected to scale `t` iff `t % s == 0`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct IntervalSpec {
        pub start: u64,
        pub len: u64,
        pub scale: u64,
    }

    impl IntervalSpec {
        pub fn new(start: u64, len: u64, scale: u64) -> Self {
            assert!(scale >= 1);
            IntervalSpec { start, len, scale }
        }

        fn end(&self) -> u64 {
            self.start + self.len
        }

        fn inter_len(&self, other: &Self) -> u64 {
            let lo = self.start.max(other.start);
            let hi = self.end().min(other.end());
            hi.saturating_sub(lo)
        }
    }

    impl crate::spatial::SpatialSpec for IntervalSpec {
        fn region_key(&self) -> (crate::ids::DatasetId, crate::geom::Rect) {
            (
                crate::ids::DatasetId(0),
                crate::geom::Rect::new(self.start as u32, 0, self.len.max(1) as u32, 1),
            )
        }
    }

    impl QuerySpec for IntervalSpec {
        fn cmp(&self, other: &Self) -> bool {
            self == other
        }

        fn overlap(&self, other: &Self) -> f64 {
            if other.len == 0 || !other.scale.is_multiple_of(self.scale) {
                return 0.0;
            }
            let frac = self.inter_len(other) as f64 / other.len as f64;
            frac * (self.scale as f64 / other.scale as f64)
        }

        fn qoutsize(&self) -> u64 {
            self.len / self.scale
        }

        fn qinputsize(&self) -> u64 {
            self.len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::IntervalSpec;
    use super::*;

    #[test]
    fn cmp_is_exact_equality() {
        let a = IntervalSpec::new(0, 100, 2);
        assert!(a.cmp(&a.clone()));
        assert!(!a.cmp(&IntervalSpec::new(0, 100, 4)));
    }

    #[test]
    fn overlap_zero_for_incompatible_scale() {
        let coarse = IntervalSpec::new(0, 100, 4);
        let fine = IntervalSpec::new(0, 100, 2);
        // A coarse result cannot answer a finer query.
        assert_eq!(coarse.overlap(&fine), 0.0);
        // But the fine result can answer the coarse query.
        assert!(fine.overlap(&coarse) > 0.0);
    }

    #[test]
    fn overlap_in_unit_range_and_full_for_identical() {
        let a = IntervalSpec::new(10, 50, 1);
        assert_eq!(a.overlap(&a.clone()), 1.0);
        let b = IntervalSpec::new(35, 50, 1);
        let ov = a.overlap(&b);
        assert!(ov > 0.0 && ov < 1.0);
    }

    #[test]
    fn reuse_bytes_matches_definition() {
        let a = IntervalSpec::new(0, 100, 1); // qoutsize = 100
        let b = IntervalSpec::new(50, 100, 1);
        // overlap(a -> b) = 50/100 = 0.5; reuse = 0.5 * 100 = 50 bytes.
        assert_eq!(a.reuse_bytes(&b), 50);
    }
}
