//! Blob entries held by the Data Store Manager.

use std::sync::Arc;
use vmqs_core::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
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
/// object states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// `malloc`ed, producer still writing: invisible to lookups and
    /// protected from eviction.
    Accumulating = 0,
    /// Committed: visible to lookups, eligible for eviction.
    Full = 1,
    /// Evicted: the entry must never be read again.
    SwappedOut = 2,
    /// In-flight with grafting enabled (DESIGN.md §13): like ACCUMULATING
    /// (invisible to lookups, protected from eviction) but *discoverable*
    /// by overlapping queries, which may attach a [`GraftSubscription`]
    /// and consume the result the moment it is published instead of
    /// recomputing it.
    Subscribable = 3,
    /// Spilled to the tier-2 store (DESIGN.md §14): the in-memory payload
    /// is gone, but a compact on-disk copy exists, so a later exact-match
    /// lookup can re-heat the entry at disk cost instead of recompute
    /// cost. Invisible to normal lookups and unpinnable until
    /// [`EntryState::restore`] brings it back to FULL.
    Restorable = 4,
}

/// Number of independent pin-counter stripes per entry. A reader pins
/// the stripe of its choosing (workers use their own index), so
/// concurrent readers of one hot cached entry RMW *different* cache
/// lines instead of serializing on a single counter. Power of two so
/// stripe selection is a mask.
pub const PIN_STRIPES: usize = 8;

/// Atomic state machine guarding a blob entry's lifecycle
/// (ACCUMULATING → FULL → SWAPPED_OUT) plus a striped reader pin count.
///
/// The orderings are load-bearing and checked by the loom models in
/// `tests/loom.rs`:
///
/// * [`EntryState::publish`] stores FULL with `Release` so the
///   producer's payload writes happen-before any reader that observes
///   visibility via an `Acquire` load (model `ds_entry_publish`).
/// * [`EntryState::pin_at`] / [`EntryState::try_swap_out`] run the
///   store-buffering protocol — reader: *increment own pin stripe, then
///   check state*; evictor: *mark SWAPPED_OUT, then check every
///   stripe* — with `SeqCst` on both cross-checks. Weakening either
///   check to `Relaxed` lets both sides see stale values, and a pinned
///   entry gets freed under a reader (models
///   `ds_entry_no_read_after_swapout` and
///   `ds_entry_striped_pins_block_swapout`). Striping does not weaken
///   the protocol: each stripe individually participates in the same
///   SeqCst store-buffering pattern against the evictor's phase CAS,
///   and the evictor refuses unless *all* stripes read zero.
/// * [`EntryState::subscribe`] / [`EntryState::publish`] run the same
///   store-buffering protocol for the graft handshake — subscriber:
///   *increment subscriber count, then check phase*; producer: *publish,
///   then check subscriber count* — with `SeqCst` on all four accesses.
///   This rules out the lost wakeup where the subscriber decides to wait
///   (saw SUBSCRIBABLE) while the producer decides nobody is listening
///   (saw zero subscribers): at least one side must observe the other
///   (model `ds_entry_graft_no_lost_wakeup`). A nonzero subscriber count
///   also blocks [`EntryState::try_swap_out`], so a published entry
///   cannot be freed between the producer's publish and the subscriber's
///   read (model `ds_entry_graft_no_read_after_swapout`).
/// * [`EntryState::try_spill`] / [`EntryState::restore`] extend the same
///   discipline to the tier-2 spill store (DESIGN.md §14): a spill is a
///   pin-checked demotion FULL → RESTORABLE (identical store-buffering
///   cross-check as `try_swap_out`, so pins and subscriptions block it —
///   model `ds_entry_pin_blocks_spill`), a restore is a CAS promotion
///   RESTORABLE → FULL that publishes the re-read payload with
///   Release-or-stronger ordering and admits exactly one winner among
///   concurrent restorers (models
///   `ds_entry_no_read_after_spill_without_restore` and
///   `ds_entry_restore_publishes_exactly_once`).
#[derive(Debug)]
pub struct EntryState {
    phase: AtomicU8,
    /// Readers currently projecting from the entry's payload, striped to
    /// keep concurrent pinners off each other's cache lines.
    pins: [AtomicU32; PIN_STRIPES],
    /// Grafting consumers attached to this entry (subscribed between
    /// SUBSCRIBABLE and their post-publish read). Blocks swap-out.
    subs: AtomicU32,
}

impl EntryState {
    /// Creates the state machine in ACCUMULATING.
    pub fn new() -> Self {
        EntryState {
            phase: AtomicU8::new(Phase::Accumulating as u8),
            pins: std::array::from_fn(|_| AtomicU32::new(0)),
            subs: AtomicU32::new(0),
        }
    }

    fn decode(v: u8) -> Phase {
        match v {
            0 => Phase::Accumulating,
            1 => Phase::Full,
            3 => Phase::Subscribable,
            4 => Phase::Restorable,
            _ => Phase::SwappedOut,
        }
    }

    /// Current phase (Acquire: pairs with the Release in `publish`, so a
    /// caller that observes FULL also observes the committed payload).
    pub fn phase(&self) -> Phase {
        Self::decode(self.phase.load(Ordering::Acquire))
    }

    /// ACCUMULATING → FULL or SUBSCRIBABLE → FULL. Returns false when the
    /// entry was in neither in-flight phase (double commit or already
    /// evicted). SeqCst (⊇ Release): the producer's payload writes become
    /// visible with the transition, and the publish is totally ordered
    /// against concurrent [`EntryState::subscribe`] increments so a
    /// producer checking [`EntryState::subscribers`] afterwards cannot
    /// miss a subscriber that decided to wait (store-buffering pairing
    /// described on the type).
    pub fn publish(&self) -> bool {
        for from in [Phase::Accumulating, Phase::Subscribable] {
            if self
                .phase
                .compare_exchange(
                    from as u8,
                    Phase::Full as u8,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// ACCUMULATING → SUBSCRIBABLE: opens the in-flight entry to graft
    /// subscriptions. Returns false when the entry already left
    /// ACCUMULATING.
    pub fn make_subscribable(&self) -> bool {
        self.phase
            .compare_exchange(
                Phase::Accumulating as u8,
                Phase::Subscribable as u8,
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Attaches a graft subscription: increments the subscriber count,
    /// then reads the phase (both SeqCst — the subscriber half of the
    /// store-buffering handshake with [`EntryState::publish`]). The
    /// returned phase tells the caller what to do: `Subscribable` → wait
    /// for the producer (the subscription guarantees a publish after this
    /// point will observe it); `Full` → the result is already out, read
    /// it now; `SwappedOut`/`Accumulating` → the entry is not (or no
    /// longer) graftable, and the subscription has already been released.
    pub fn subscribe(&self) -> Phase {
        self.subs.fetch_add(1, Ordering::SeqCst);
        let ph = Self::decode(self.phase.load(Ordering::SeqCst));
        if !matches!(ph, Phase::Subscribable | Phase::Full) {
            self.subs.fetch_sub(1, Ordering::Release);
        }
        ph
    }

    /// Releases a subscription taken with [`EntryState::subscribe`] (only
    /// when it returned `Subscribable` or `Full`).
    pub fn unsubscribe(&self) {
        self.subs.fetch_sub(1, Ordering::Release);
    }

    /// Current graft-subscriber count (SeqCst: the producer half of the
    /// handshake — called after [`EntryState::publish`], it cannot read 0
    /// if a subscriber is committed to waiting).
    pub fn subscribers(&self) -> u32 {
        self.subs.load(Ordering::SeqCst)
    }

    /// True when the entry may be returned by lookups.
    pub fn is_visible(&self) -> bool {
        self.phase() == Phase::Full
    }

    /// Acquires a read pin on stripe 0 (see [`EntryState::pin_at`]).
    pub fn pin(&self) -> bool {
        self.pin_at(0)
    }

    /// Releases a stripe-0 read pin.
    pub fn unpin(&self) {
        self.unpin_at(0)
    }

    /// Acquires a read pin on stripe `stripe % PIN_STRIPES` (callers pass
    /// e.g. their worker index so concurrent readers spread over
    /// stripes). Returns false when the entry is not FULL — in
    /// particular, after SWAPPED_OUT; a true return guarantees the
    /// payload stays valid until the matching [`EntryState::unpin_at`]
    /// *on the same stripe*.
    ///
    /// Pin-then-check: the increment must be visible to the evictor's
    /// pin check before this thread's state check can miss an eviction,
    /// which is exactly the store-buffering pattern — both the RMW and
    /// the state load are SeqCst.
    pub fn pin_at(&self, stripe: usize) -> bool {
        let pins = &self.pins[stripe & (PIN_STRIPES - 1)];
        pins.fetch_add(1, Ordering::SeqCst);
        if self.phase.load(Ordering::SeqCst) == Phase::Full as u8 {
            true
        } else {
            pins.fetch_sub(1, Ordering::Release);
            false
        }
    }

    /// Releases a read pin taken with [`EntryState::pin_at`] on the same
    /// `stripe`.
    pub fn unpin_at(&self, stripe: usize) {
        self.pins[stripe & (PIN_STRIPES - 1)].fetch_sub(1, Ordering::Release);
    }

    /// FULL → SWAPPED_OUT, permitted only when no reader holds a pin on
    /// *any* stripe. Returns true when the caller may free/reuse the
    /// payload: the entry is marked SWAPPED_OUT *first*, then every pin
    /// stripe is checked (SeqCst on both, mirroring
    /// [`EntryState::pin_at`]) — any reader that slipped in either
    /// bumped its stripe before our check (we refuse) or will see
    /// SWAPPED_OUT and back off.
    pub fn try_swap_out(&self) -> bool {
        if self
            .phase
            .compare_exchange(
                Phase::Full as u8,
                Phase::SwappedOut as u8,
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return false;
        }
        if self.pins.iter().all(|p| p.load(Ordering::SeqCst) == 0)
            && self.subs.load(Ordering::SeqCst) == 0
        {
            true
        } else {
            // A reader pinned (or a grafting consumer subscribed) between
            // our CAS and the check: back out.
            self.phase.store(Phase::Full as u8, Ordering::Release);
            false
        }
    }

    /// Unconditional transition to SWAPPED_OUT (caller holds exclusive
    /// structural access, e.g. the store's write lock).
    pub fn force_swap_out(&self) {
        self.phase.store(Phase::SwappedOut as u8, Ordering::Release);
    }

    /// FULL → RESTORABLE: demotes the entry to the tier-2 spill store,
    /// permitted only when no reader holds a pin on any stripe and no
    /// graft consumer is subscribed. Runs the same store-buffering
    /// protocol as [`EntryState::try_swap_out`] — mark RESTORABLE first,
    /// then cross-check every pin stripe and the subscriber count, all
    /// SeqCst — so a reader that raced in either bumped its stripe before
    /// our check (we back out to FULL) or observes RESTORABLE in
    /// [`EntryState::pin_at`] and backs off (model
    /// `ds_entry_pin_blocks_spill`). A true return means the caller owns
    /// the in-memory payload and may move it to disk: no pin can succeed
    /// again until a [`EntryState::restore`] republishes the bytes (model
    /// `ds_entry_no_read_after_spill_without_restore`).
    pub fn try_spill(&self) -> bool {
        if self
            .phase
            .compare_exchange(
                Phase::Full as u8,
                Phase::Restorable as u8,
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return false;
        }
        if self.pins.iter().all(|p| p.load(Ordering::SeqCst) == 0)
            && self.subs.load(Ordering::SeqCst) == 0
        {
            true
        } else {
            // A reader pinned (or a grafting consumer subscribed) between
            // our CAS and the check: back out.
            self.phase.store(Phase::Full as u8, Ordering::Release);
            false
        }
    }

    /// RESTORABLE → FULL: re-publishes an entry whose payload was just
    /// re-read from the tier-2 store. SeqCst (⊇ Release) on success, so
    /// the restorer's payload write happens-before any reader whose
    /// [`EntryState::pin_at`] observes FULL. The CAS makes concurrent
    /// restorers (a flash crowd re-heating the same entry) resolve to
    /// exactly one winner — the losers see `false` and must treat the
    /// entry as already restored (model
    /// `ds_entry_restore_publishes_exactly_once`).
    pub fn restore(&self) -> bool {
        self.phase
            .compare_exchange(
                Phase::Restorable as u8,
                Phase::Full as u8,
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// True when the entry is spilled to tier 2 and can be re-heated.
    pub fn is_restorable(&self) -> bool {
        self.phase() == Phase::Restorable
    }

    /// Current pin count summed over all stripes (diagnostics).
    pub fn pin_count(&self) -> u32 {
        self.pins.iter().map(|p| p.load(Ordering::Relaxed)).sum()
    }
}

impl Default for EntryState {
    fn default() -> Self {
        EntryState::new()
    }
}

impl Clone for EntryState {
    fn clone(&self) -> Self {
        // A clone is a fresh, unpinned, unsubscribed snapshot of the phase.
        EntryState {
            phase: AtomicU8::new(self.phase.load(Ordering::Acquire)),
            pins: std::array::from_fn(|_| AtomicU32::new(0)),
            subs: AtomicU32::new(0),
        }
    }
}

/// A consumer's live graft attachment to an in-flight entry (DESIGN.md
/// §13): the handle the engine holds between [`EntryState::subscribe`]
/// and the matching unsubscribe. Copyable bookkeeping only — the
/// subscription itself lives in the entry's atomic subscriber count.
#[derive(Clone, Copy, Debug)]
pub struct GraftSubscription {
    /// The subscribed blob.
    pub blob: BlobId,
    /// The query producing it (the graft's reuse-edge source).
    pub producer: QueryId,
    /// Phase observed at subscribe time: `Subscribable` means the consumer
    /// must wait for the publish; `Full` means the result was already out.
    pub phase: Phase,
}

/// One intermediate result registered in the Data Store, together with its
/// semantic metadata (the producing query's predicate).
#[derive(Debug)]
pub struct BlobEntry<S> {
    /// The blob's identity.
    pub id: BlobId,
    /// The query whose execution produced (or is producing) this blob. Used
    /// to propagate evictions back to the scheduling graph as SWAPPED_OUT
    /// transitions.
    pub producer: QueryId,
    /// Predicate meta-information describing the result.
    pub spec: S,
    /// Size charged against the store budget, in bytes.
    pub size: u64,
    /// Result contents (or virtual for simulation).
    pub payload: Payload,
    /// Lifecycle state machine: entries are invisible to lookups and
    /// protected from eviction until published.
    pub state: EntryState,
    /// LRU stamp; atomic so lookups can touch entries through `&self`
    /// (concurrent readers under the store's read lock).
    pub(crate) last_access: AtomicU64,
    /// Measured recomputation cost in seconds (the producer's I/O + kernel
    /// time; virtual time in the simulator). Feeds the benefit-per-byte
    /// eviction score of [`crate::EvictionPolicy::CostBased`]. Written
    /// only under structural (`&mut`) access at commit time.
    pub(crate) cost: f64,
    /// Observed reuses (lookup matches that touched this entry); atomic so
    /// the read-side lookup path can count through `&self`.
    pub(crate) hits: AtomicU64,
    /// The key this entry is filed under in the store's victim index;
    /// `None` while it is not visible (or the policy keeps no order).
    pub(crate) filed: Option<crate::store::VictimKey>,
}

impl<S: Clone> Clone for BlobEntry<S> {
    fn clone(&self) -> Self {
        BlobEntry {
            id: self.id,
            producer: self.producer,
            spec: self.spec.clone(),
            size: self.size,
            payload: self.payload.clone(),
            state: self.state.clone(),
            last_access: AtomicU64::new(self.last_access.load(Ordering::Relaxed)),
            cost: self.cost,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            // A clone lives outside the store and its index.
            filed: None,
        }
    }
}

impl<S> BlobEntry<S> {
    /// True when the entry may be returned by lookups.
    pub fn visible(&self) -> bool {
        self.state.is_visible()
    }

    /// Measured recomputation cost in seconds (0 until a costed commit).
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
    fn entry_state_lifecycle() {
        let st = EntryState::new();
        assert_eq!(st.phase(), Phase::Accumulating);
        assert!(!st.is_visible());
        assert!(!st.pin(), "accumulating entries cannot be pinned");
        assert!(st.publish());
        assert!(!st.publish(), "double publish refused");
        assert_eq!(st.phase(), Phase::Full);
        assert!(st.pin());
        assert!(!st.try_swap_out(), "pinned entries cannot be evicted");
        assert_eq!(st.phase(), Phase::Full);
        st.unpin();
        assert!(st.try_swap_out());
        assert_eq!(st.phase(), Phase::SwappedOut);
        assert!(!st.pin(), "swapped-out entries cannot be pinned");
        assert!(!st.try_swap_out(), "double swap-out refused");
    }

    #[test]
    fn force_swap_out_from_any_phase() {
        let st = EntryState::new();
        st.force_swap_out();
        assert_eq!(st.phase(), Phase::SwappedOut);
        assert!(!st.publish(), "cannot publish after swap-out");
    }

    #[test]
    fn striped_pins_all_block_swap_out() {
        let st = EntryState::new();
        assert!(st.publish());
        // A pin on any stripe (not just stripe 0) must block eviction.
        for stripe in [1usize, 5, PIN_STRIPES - 1, PIN_STRIPES + 3] {
            assert!(st.pin_at(stripe));
            assert!(!st.try_swap_out(), "stripe {stripe} pin ignored");
            assert_eq!(st.phase(), Phase::Full);
            st.unpin_at(stripe);
        }
        assert_eq!(st.pin_count(), 0);
        assert!(st.try_swap_out());
        assert!(!st.pin_at(3), "swapped-out entries cannot be pinned");
    }

    #[test]
    fn pin_count_sums_stripes() {
        let st = EntryState::new();
        assert!(st.publish());
        assert!(st.pin_at(0));
        assert!(st.pin_at(1));
        assert!(st.pin_at(9)); // aliases stripe 1
        assert_eq!(st.pin_count(), 3);
        st.unpin_at(0);
        st.unpin_at(1);
        st.unpin_at(9);
        assert_eq!(st.pin_count(), 0);
    }

    #[test]
    fn subscribable_lifecycle() {
        let st = EntryState::new();
        assert!(st.make_subscribable());
        assert_eq!(st.phase(), Phase::Subscribable);
        assert!(!st.is_visible(), "subscribable entries stay invisible");
        assert!(!st.pin(), "subscribable entries cannot be pinned yet");
        assert!(!st.make_subscribable(), "double open refused");
        assert_eq!(st.subscribe(), Phase::Subscribable);
        assert_eq!(st.subscribers(), 1);
        assert!(st.publish(), "publish works from SUBSCRIBABLE");
        assert_eq!(st.phase(), Phase::Full);
        assert!(!st.try_swap_out(), "subscribed entries cannot be evicted");
        assert_eq!(st.phase(), Phase::Full);
        st.unsubscribe();
        assert_eq!(st.subscribers(), 0);
        assert!(st.try_swap_out());
    }

    #[test]
    fn subscribe_after_publish_sees_full() {
        let st = EntryState::new();
        assert!(st.make_subscribable());
        assert!(st.publish());
        assert_eq!(st.subscribe(), Phase::Full);
        assert_eq!(st.subscribers(), 1);
        st.unsubscribe();
    }

    #[test]
    fn subscribe_on_dead_entry_self_releases() {
        let st = EntryState::new();
        st.force_swap_out();
        assert_eq!(st.subscribe(), Phase::SwappedOut);
        assert_eq!(st.subscribers(), 0, "failed subscribe leaves no count");
        let acc = EntryState::new();
        assert_eq!(acc.subscribe(), Phase::Accumulating);
        assert_eq!(acc.subscribers(), 0);
    }

    #[test]
    fn make_subscribable_refused_once_published() {
        let st = EntryState::new();
        assert!(st.publish());
        assert!(!st.make_subscribable());
    }

    #[test]
    fn entry_panic_back_out_releases_subscribers() {
        // The supervision back-out arc (DESIGN.md §15): a producer died
        // mid-compute while a grafting consumer was subscribed to its
        // CLAIMED (SUBSCRIBABLE) entry. The back-out force-swaps the
        // entry out; the subscriber's next phase check observes the
        // terminal state (never a stale SUBSCRIBABLE it would wait on
        // forever), its unsubscribe still balances, and no later pin or
        // publish can resurrect the entry.
        let st = EntryState::new();
        assert!(st.make_subscribable());
        assert_eq!(st.subscribe(), Phase::Subscribable);
        assert_eq!(st.subscribers(), 1);
        // Producer panics: the worker's back-out runs under the store's
        // write lock and unconditionally kills the reservation.
        st.force_swap_out();
        assert_eq!(st.phase(), Phase::SwappedOut);
        // The woken subscriber re-checks, sees the tombstone, releases.
        st.unsubscribe();
        assert_eq!(st.subscribers(), 0);
        assert!(!st.publish(), "dead reservation cannot publish");
        assert!(!st.pin(), "dead reservation cannot be read");
        assert!(!st.try_spill(), "dead reservation cannot spill");
        // A late subscriber (raced the back-out) self-releases.
        assert_eq!(st.subscribe(), Phase::SwappedOut);
        assert_eq!(st.subscribers(), 0);
    }

    #[test]
    fn spill_restore_lifecycle() {
        let st = EntryState::new();
        assert!(!st.try_spill(), "only FULL entries can spill");
        assert!(st.publish());
        assert!(st.try_spill());
        assert_eq!(st.phase(), Phase::Restorable);
        assert!(st.is_restorable());
        assert!(!st.is_visible(), "restorable entries are invisible");
        assert!(!st.pin(), "no read after spill without restore");
        assert!(!st.try_swap_out(), "swap-out starts from FULL only");
        assert!(!st.try_spill(), "double spill refused");
        assert!(st.restore());
        assert_eq!(st.phase(), Phase::Full);
        assert!(!st.restore(), "second restorer loses the race");
        assert!(st.pin(), "restored entries are readable again");
        st.unpin();
    }

    #[test]
    fn pins_and_subscriptions_block_spill() {
        let st = EntryState::new();
        assert!(st.make_subscribable());
        assert_eq!(st.subscribe(), Phase::Subscribable);
        assert!(st.publish());
        assert!(!st.try_spill(), "subscribed entries cannot spill");
        assert_eq!(st.phase(), Phase::Full, "failed spill backs out");
        st.unsubscribe();
        assert!(st.pin_at(5));
        assert!(!st.try_spill(), "pinned entries cannot spill");
        assert_eq!(st.phase(), Phase::Full);
        st.unpin_at(5);
        assert!(st.try_spill());
    }

    #[test]
    fn restorable_entry_rejects_subscribe_and_publish() {
        let st = EntryState::new();
        assert!(st.publish());
        assert!(st.try_spill());
        assert_eq!(st.subscribe(), Phase::Restorable);
        assert_eq!(st.subscribers(), 0, "failed subscribe self-releases");
        assert!(!st.publish(), "publish cannot resurrect a spilled entry");
        assert!(!st.make_subscribable());
        st.force_swap_out();
        assert!(!st.restore(), "dropped tier-2 entries stay dead");
    }

    #[test]
    fn clone_resets_pins() {
        let st = EntryState::new();
        assert!(st.publish());
        assert!(st.pin());
        let c = st.clone();
        assert_eq!(c.phase(), Phase::Full);
        assert_eq!(c.pin_count(), 0);
        st.unpin();
    }
}
