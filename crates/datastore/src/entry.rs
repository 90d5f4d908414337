//! Blob entries held by the Data Store Manager.

use std::sync::Arc;
use vmqs_core::sync::atomic::{AtomicU64, Ordering};
use vmqs_core::{BlobId, QueryId};

/// The stored contents of a blob.
///
/// The real execution engine stores actual result bytes; the discrete-event
/// simulator only needs size accounting, so it stores [`Payload::Virtual`]
/// and the Data Store behaves identically in both cases.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Actual result bytes (shared so readers can keep projecting from a
    /// blob even after it is evicted from the store, and so handing a copy
    /// to a caller is a refcount bump, not a byte copy).
    Bytes(Arc<[u8]>),
    /// Size-only accounting for simulation.
    Virtual,
}

impl Payload {
    /// Byte length when actual data is present.
    pub fn len(&self) -> Option<usize> {
        match self {
            Payload::Bytes(b) => Some(b.len()),
            Payload::Virtual => None,
        }
    }

    /// True when actual data is present and empty.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// Lifecycle phase of a blob entry (paper §2's accumulator meta-data
/// object states; the spill tier DESIGN.md §14). An entry is born FULL
/// (or RESTORABLE, adopted from a recovered spill frame): results are
/// computed outside the store, so the paper's ACCUMULATING state has no
/// occupant here.
///
/// ```text
/// FULL <-> RESTORABLE
///     \       \
///      -> SWAPPED_OUT
/// ```
///
/// Every arc is a `&mut self` method below that refuses an illegal source
/// phase, and the only `Phase` that matters is the private field of a
/// [`BlobEntry`] owned by the store, so an arc runs under the store's
/// exclusive access (`&mut DataStore`: the server's `store.write()`, the
/// single-threaded simulator) and no reader can observe one in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// In memory: visible to lookups, eligible for eviction.
    Full,
    /// Evicted or dropped from tier 2: the entry has left the store and
    /// must never be read again.
    SwappedOut,
    /// Spilled to the tier-2 store: charged to tier 2, and holding either
    /// its bytes (while its frame is being written) or a compact on-disk
    /// copy (once the frame has landed), so a later exact-match lookup
    /// can re-heat the entry instead of recomputing it. Invisible to
    /// normal lookups until [`Phase::restore`] brings it back to FULL.
    Restorable,
}

impl Phase {
    /// Takes the arc `from -> to`; false (and no change) from any other
    /// phase.
    fn step(&mut self, from: Phase, to: Phase) -> bool {
        let legal = *self == from;
        if legal {
            *self = to;
        }
        legal
    }

    /// FULL -> RESTORABLE: demoted to the tier-2 spill store.
    pub(crate) fn spill(&mut self) -> bool {
        self.step(Phase::Full, Phase::Restorable)
    }

    /// RESTORABLE -> FULL: the payload was re-read from tier 2.
    pub(crate) fn restore(&mut self) -> bool {
        self.step(Phase::Restorable, Phase::Full)
    }

    /// Any phase -> SWAPPED_OUT: eviction and a dropped tier-2 frame.
    /// Terminal: no arc leaves SWAPPED_OUT.
    pub(crate) fn kill(&mut self) {
        *self = Phase::SwappedOut;
    }
}

/// Where a blob's tier-2 frame stands (DESIGN.md §14): written once, at
/// its first demotion, and kept until the blob leaves the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Never demoted, or its write failed.
    None,
    /// Being written outside the store's lock.
    Writing,
    /// On disk ([`crate::DataStore::frame_landed`], or adopted).
    Landed,
}

/// One intermediate result registered in the Data Store, together with its
/// semantic metadata (the producing query's predicate).
#[derive(Debug)]
pub struct BlobEntry<S> {
    /// The blob's identity.
    pub id: BlobId,
    /// The query whose execution produced this blob. Used
    /// to propagate evictions back to the scheduling graph as SWAPPED_OUT
    /// transitions.
    pub producer: QueryId,
    /// Predicate meta-information describing the result.
    pub spec: S,
    /// Size charged against the store budget, in bytes.
    pub size: u64,
    /// Result contents (or virtual for simulation).
    pub payload: Payload,
    /// Lifecycle phase. Written only through `&mut self`.
    pub(crate) phase: Phase,
    /// LRU stamp; atomic so lookups can touch entries through `&self`
    /// (concurrent readers under the store's read lock).
    pub(crate) last_access: AtomicU64,
    /// Measured recomputation cost in seconds (the producer's I/O + kernel
    /// time; virtual time in the simulator). Feeds the benefit-per-byte
    /// eviction score of [`crate::EvictionPolicy::CostBased`]. Fixed at
    /// insertion.
    pub(crate) cost: f64,
    /// Observed reuses (lookup matches that touched this entry); atomic so
    /// the read-side lookup path can count through `&self`.
    pub(crate) hits: AtomicU64,
    /// The key this entry is filed under in the store's victim index;
    /// `None` only while it is spilled.
    pub(crate) filed: Option<crate::store::VictimKey>,
    /// The blob's tier-2 frame, kept through restores. Written only by
    /// the store.
    pub frame: Frame,
}

impl<S> BlobEntry<S> {
    /// A fresh entry in `phase`: virtual payload, no cost, hits or frame
    /// yet, stamped `now`, not filed.
    pub(crate) fn new(
        id: BlobId,
        producer: QueryId,
        spec: S,
        size: u64,
        phase: Phase,
        now: u64,
    ) -> Self {
        BlobEntry {
            id,
            producer,
            spec,
            size,
            payload: Payload::Virtual,
            phase,
            last_access: AtomicU64::new(now),
            cost: 0.0,
            hits: AtomicU64::new(0),
            filed: None,
            frame: Frame::None,
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True when the entry may be returned by lookups.
    pub fn visible(&self) -> bool {
        self.phase == Phase::Full
    }

    /// True when the entry is spilled to tier 2 and can be re-heated.
    pub fn restorable(&self) -> bool {
        self.phase == Phase::Restorable
    }

    /// Measured recomputation cost in seconds.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Observed reuse count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The entry's benefit-per-byte eviction score (DESIGN.md §14):
    /// `cost × (1 + hits) / size` — what one byte of budget saves in
    /// recomputation seconds, scaled by how often the entry has actually
    /// been reused.
    pub fn score(&self) -> f64 {
        crate::benefit_score(self.cost, self.hits(), self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_len() {
        let p = Payload::Bytes(vec![1, 2, 3].into());
        assert_eq!(p.len(), Some(3));
        assert!(!p.is_empty());
        assert_eq!(Payload::Virtual.len(), None);
        assert!(!Payload::Virtual.is_empty());
        assert!(Payload::Bytes(Vec::new().into()).is_empty());
    }

    #[test]
    fn lifecycle_through_all_three_phases() {
        let mut ph = Phase::Full;
        assert!(!ph.restore(), "only RESTORABLE entries can be restored");
        assert!(ph.spill());
        assert!(!ph.spill(), "double spill refused");
        assert_eq!(ph, Phase::Restorable);
        assert!(ph.restore());
        assert!(!ph.restore(), "second restore refused");
        assert_eq!(ph, Phase::Full);
        ph.kill();
        assert_eq!(ph, Phase::SwappedOut);
        for arc in [Phase::spill, Phase::restore] {
            assert!(!arc(&mut ph), "no arc leaves SWAPPED_OUT");
        }
    }
}
