//! The Data Store Manager (paper §2, "Data Store Manager").
//!
//! A semantic cache: buffer space for intermediate results tagged with
//! predicate metadata, so that results of finished queries can answer (or
//! partially answer) queries submitted later. There is one way in:
//! [`DataStore::insert_costed`] takes a finished result, decides whether
//! to admit it, makes room and publishes it, so an entry is visible to
//! `lookup` from the moment it exists. (The paper reserves space first and
//! fills it while the query runs; both engines here compute a result
//! outside the store and insert it on completion, so that reserve-then-fill
//! half had no caller and is gone.) Eviction is byte-budgeted and reports
//! the evicted producers so the engine can mark them SWAPPED_OUT in the
//! scheduling graph.
//!
//! The store carries the Index Manager's spatial index (paper Fig. 1): a
//! [`GridIndex`] over the footprints of every entry. `lookup`
//! probes the grid for blobs whose rectangles intersect the query window —
//! a sound filter, since two predicates can only have nonzero `overlap`
//! if their footprints intersect on the same dataset — and evaluates the
//! application's operators on those candidates only. The linear scan
//! survives as `lookup_filtered(probe, None)`, the reference an
//! equivalence property test compares the indexed path against.
//!
//! Beside it sits the *victim index*: the visible entries ordered by the
//! eviction policy's key, so making room takes the front of an ordered
//! set instead of scanning every entry under the write lock. Both
//! indexes are maintained at the same few points — where an entry
//! enters, spills, re-heats and leaves.

use crate::entry::{BlobEntry, Frame, Payload, Phase};
use std::collections::{BTreeSet, HashMap};
use vmqs_core::spatial::{GridIndex, SpatialSpec};
use vmqs_core::sync::atomic::{AtomicU64, Ordering};
use vmqs_core::{BlobId, QueryId};

/// One eviction reported back to the caller: the evicted blob, the query
/// that produced it (to be marked SWAPPED_OUT in the scheduling graph),
/// and the victim's predicate — the sharded engine derives the
/// producer's home shard from the spec, so the eviction can be applied
/// under that shard's lock without a global map.
///
/// Spills (FULL → RESTORABLE) are *not* evictions: a spilled entry still
/// answers exact lookups, so its producer stays CACHED in the graph.
/// Only drops that lose the data — from tier 1, or from the tier-2 spill
/// store — produce a record.
#[derive(Clone, Debug)]
pub struct EvictionRecord<S> {
    /// The evicted blob.
    pub blob: BlobId,
    /// The query that produced it.
    pub producer: QueryId,
    /// The victim's predicate (shard routing).
    pub spec: S,
    /// Tier the data was dropped from: `1` = in-memory, `2` = spill store.
    pub tier: u8,
    /// The victim's benefit-per-byte score at eviction time (see
    /// [`benefit_score`]).
    pub score: f64,
    /// The blob's tier-2 frame had landed: the caller unlinks it after
    /// letting the store go (one in flight is its writer's to unlink).
    pub had_frame: bool,
}

/// Which blob to evict first when space is needed. (Largest-first and
/// most-recently-used were measured and retired: EXPERIMENTS.md X4.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least recently used first (default; what a buffer manager would do).
    Lru,
    /// Benefit-aware (DESIGN.md §14): evict the entry with the smallest
    /// [`benefit_score`] — recomputation cost × observed reuse per byte —
    /// i.e. the greedy knapsack approximation of keeping the set of
    /// entries whose retention saves the most recomputation per byte of
    /// budget. Inserts additionally run admission control: a new entry
    /// whose score cannot beat every victim it would displace is rejected
    /// instead of churning the cache.
    CostBased,
}

/// Floor on the cost factor of the benefit score, so entries inserted at
/// cost 0 still order deterministically by reuse and size instead of
/// collapsing to 0.
const COST_FLOOR: f64 = 1e-9;

/// The benefit-per-byte eviction score of [`EvictionPolicy::CostBased`]
/// (DESIGN.md §14): `cost × (1 + hits) / size`, where `cost` is the
/// measured recomputation cost in (possibly virtual) seconds, `hits` the
/// observed reuse count, and `size` the entry's bytes. One byte of budget
/// spent on this entry is expected to save this many seconds of
/// recomputation. Higher is more worth keeping.
pub fn benefit_score(cost: f64, hits: u64, size: u64) -> f64 {
    (cost.max(COST_FLOOR) * (1.0 + hits as f64)) / size.max(1) as f64
}

/// Where a visible entry stands in its policy's eviction order (smallest
/// goes first). `touch` runs through `&self` and cannot re-file an entry,
/// so [`DataStore::pick_victim`] works from keys that were current when
/// the entry was filed. That is sound because a key never falls below its
/// filed value: keys are read under `&mut self`, when no touch is in
/// flight, every later touch stores a later tick of the store's clock and
/// adds a hit, and an entry's size and cost are fixed at insertion.
pub(crate) type VictimKey = (u64, u64);

fn victim_key<S>(policy: EvictionPolicy, e: &BlobEntry<S>) -> VictimKey {
    let stamp = e.last_access.load(Ordering::Relaxed);
    match policy {
        EvictionPolicy::Lru => (0, stamp),
        // Greedy knapsack: sacrifice the entry whose retention saves the
        // least recomputation per byte, the oldest among equals. With the
        // blob id the index appends, a deterministic total order, so the
        // victim sequence is reproducible bit for bit.
        EvictionPolicy::CostBased => (total_order_bits(e.score()), stamp),
    }
}

/// Takes `e` out of the victim index; a no-op when it is not filed.
fn unfile<S>(victims: &mut BTreeSet<(VictimKey, BlobId)>, e: &mut BlobEntry<S>) {
    if let Some(key) = e.filed.take() {
        victims.remove(&(key, e.id));
    }
}

/// Maps a float to an integer that orders as `f64::total_cmp` does.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A demotion handed back to the caller by an eviction pass: the entry
/// has transitioned FULL → RESTORABLE. Only a blob without a frame asks
/// for one ([`SpillRequest::payload`]), which the threaded engine writes
/// after releasing its write lock and reports with
/// [`DataStore::frame_landed`]; the simulator only counts demotions.
#[derive(Clone, Debug)]
pub struct SpillRequest<S> {
    /// The spilled blob (also the tier-2 storage key).
    pub blob: BlobId,
    /// The query that produced it (for `Spilled` event attribution).
    pub producer: QueryId,
    /// The entry's predicate — serialized into the spill frame's metadata
    /// block so a cold restart can re-index the frame (DESIGN.md §15).
    pub spec: S,
    /// Payload bytes moved to tier 2.
    pub size: u64,
    /// The bytes of the blob's one frame, shared with the entry until it
    /// lands ([`Payload::Virtual`] in the simulator); `None` when the
    /// frame has landed or is being written already.
    pub payload: Option<Payload>,
}

/// Sentinel producer id for entries adopted from a recovered spill frame
/// ([`DataStore::adopt_restorable`]): the query that originally produced
/// the frame belonged to a previous process and is in no graph.
pub const RECOVERED_PRODUCER: QueryId = QueryId(u64::MAX);

/// A cached result that can serve a probe ([`DataStore::lookup`]).
#[derive(Clone, Debug)]
pub struct Match {
    /// The matching blob.
    pub blob: BlobId,
    /// The producer query of the blob.
    pub producer: QueryId,
    /// `overlap(blob.spec, probe)` in `[0, 1]`.
    pub overlap: f64,
    /// `overlap · qoutsize(blob.spec)` — reusable bytes.
    pub reuse_bytes: u64,
    /// The blob answers the probe completely (`cmp`). Exact matches sort
    /// first; `lookup` reports only one (a `cmp`-equal twin of it comes
    /// back as a partial match that happens to overlap fully).
    pub exact: bool,
}

impl Match {
    /// How `e` can serve `probe`, if at all; `may_be_exact` is false once
    /// the caller has its one exact match.
    fn of<S: SpatialSpec>(e: &BlobEntry<S>, probe: &S, may_be_exact: bool) -> Option<Match> {
        let exact = may_be_exact && e.spec.cmp(probe);
        let overlap = if exact { 1.0 } else { e.spec.overlap(probe) };
        (overlap > 0.0).then(|| Match {
            blob: e.id,
            producer: e.producer,
            overlap,
            reuse_bytes: if exact {
                e.spec.qoutsize()
            } else {
                e.spec.reuse_bytes(probe)
            },
            exact,
        })
    }

    /// Exact first, then descending reusable bytes, then blob id.
    fn most_useful_first(a: &Match, b: &Match) -> std::cmp::Ordering {
        (b.exact.cmp(&a.exact))
            .then(b.reuse_bytes.cmp(&a.reuse_bytes))
            .then(a.blob.cmp(&b.blob))
    }
}

/// Declares [`DsStats`] and `StatCells`, its atomic twin, from one list
/// of counters.
macro_rules! ds_stats {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// Counters exposed for experiments and tests.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct DsStats {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        /// The counters kept in atomics so the read-side API (`lookup*`,
        /// `touch`, `stats`) works through `&self`: the threaded server
        /// holds only a read lock on the store for the per-query lookup
        /// hot path. All counters use relaxed ordering — they are
        /// statistics, not synchronization.
        #[derive(Debug, Default)]
        struct StatCells {
            $($field: AtomicU64,)+
        }

        impl StatCells {
            fn snapshot(&self) -> DsStats {
                DsStats {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }
    };
}

ds_stats! {
    /// Lookups answered completely by one cached blob (`cmp` true).
    exact_hits,
    /// Lookups with at least one nonzero-overlap match (but no exact hit).
    partial_hits,
    /// Lookups with no usable match.
    misses,
    /// Blobs inserted.
    committed,
    /// Blobs evicted to make room.
    evicted,
    /// Bytes freed by eviction.
    bytes_evicted,
    /// Inserts rejected because the blob exceeds the whole budget.
    rejected,
    /// Entries demoted to the tier-2 spill store instead of dropped.
    spilled,
    /// Bytes moved to tier 2.
    bytes_spilled,
    /// Entries re-heated from tier 2 back into memory.
    restored,
    /// Bytes restored from tier 2.
    bytes_restored,
    /// Failed tier-2 restores, each of which sent its query to
    /// recompute: one per failed frame read (I/O error or poisoned data),
    /// whether or not the entry was still there to drop, plus one per
    /// RESTORABLE entry dropped because its frame write failed.
    restore_failures,
    /// Inserts refused by cost-based admission control (a visible twin
    /// answers for them, or their benefit score could not beat a would-be
    /// victim's).
    unprofitable,
    /// RESTORABLE entries adopted from recovered spill frames at startup
    /// (DESIGN.md §15).
    adopted,
}

impl DsStats {
    /// Share of lookups that found reusable data, exact or partial
    /// (`vmqs_ds_hit_ratio`); `0` before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.exact_hits + self.partial_hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            (self.exact_hits + self.partial_hits) as f64 / lookups as f64
        }
    }
}

/// Error returned by [`DataStore::insert_costed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DsError {
    /// The requested size can never fit (larger than the total budget, or
    /// caching is disabled with a zero budget).
    TooLarge,
    /// Cost-based admission refused the entry (DESIGN.md §14): a visible
    /// entry `cmp`-matches it already, or its benefit-per-byte score cannot
    /// beat every victim it would displace and displacement would lose the
    /// victims' data.
    Unprofitable,
}

impl std::fmt::Display for DsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DsError::TooLarge => "allocation exceeds data store budget",
            DsError::Unprofitable => "cost-based admission refused the entry",
        })
    }
}

impl std::error::Error for DsError {}

/// The Data Store Manager.
///
/// Structural mutation (`insert_costed`/`restore`/`remove`) requires
/// `&mut self`; the read side (`lookup*`, `touch`, `stats`) takes `&self`
/// with LRU stamps and counters in atomics, so the threaded server can
/// serve many concurrent lookups under a shared read lock and take the
/// write lock only to admit or evict.
#[derive(Debug)]
pub struct DataStore<S: SpatialSpec> {
    budget: u64,
    used: u64,
    /// Tier-2 spill budget in bytes; `0` disables the spill tier and every
    /// eviction drops its victim as before.
    tier2_budget: u64,
    /// Bytes of RESTORABLE entries currently charged to tier 2.
    tier2_used: u64,
    /// Spills produced by eviction passes since the last
    /// [`DataStore::take_pending_spills`]; the engine drains them in the
    /// critical section that produced them and writes them after it.
    pending_spills: Vec<SpillRequest<S>>,
    entries: HashMap<BlobId, BlobEntry<S>>,
    /// Footprints of every entry, FULL or RESTORABLE (a spilled entry
    /// still holds its claim and re-heats in place). Maintained where an
    /// entry enters ([`DataStore::insert_costed`],
    /// [`DataStore::adopt_restorable`]) and where it leaves
    /// ([`DataStore::remove`], the single exit every eviction and drop
    /// goes through).
    index: GridIndex,
    /// The visible entries under the [`VictimKey`] each was last filed
    /// with ([`BlobEntry::filed`]), kept where `index` is: an entry joins
    /// when it becomes visible ([`DataStore::insert_costed`],
    /// [`DataStore::restore`]) and leaves when it spills or is removed.
    victims: BTreeSet<(VictimKey, BlobId)>,
    next_blob: u64,
    clock: AtomicU64,
    policy: EvictionPolicy,
    stats: StatCells,
}

impl<S: SpatialSpec> DataStore<S> {
    /// Creates a store with the given byte budget and index cell size (in
    /// base-resolution pixels; pick roughly the footprint of a typical
    /// cached result). A budget of `0` disables caching entirely (every
    /// insert is rejected) — used by the paper's caching-on/off
    /// experiment.
    pub fn new(budget: u64, cell_size: u32) -> Self {
        Self::with_policy(budget, cell_size, EvictionPolicy::Lru)
    }

    /// Creates a store with an explicit eviction policy.
    pub fn with_policy(budget: u64, cell_size: u32, policy: EvictionPolicy) -> Self {
        DataStore {
            budget,
            used: 0,
            tier2_budget: 0,
            tier2_used: 0,
            pending_spills: Vec::new(),
            entries: HashMap::new(),
            index: GridIndex::new(cell_size),
            victims: BTreeSet::new(),
            next_blob: 0,
            clock: AtomicU64::new(0),
            policy,
            stats: StatCells::default(),
        }
    }

    /// Builder: enables the tier-2 spill store with the given byte budget
    /// (`0` keeps it disabled). Eviction victims then demote to RESTORABLE
    /// instead of dropping, until tier 2 itself overflows.
    pub fn with_tier2(mut self, budget: u64) -> Self {
        self.tier2_budget = budget;
        self
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently held in tier 1.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured tier-2 spill budget (`0` = spilling disabled).
    pub fn tier2_budget(&self) -> u64 {
        self.tier2_budget
    }

    /// Bytes currently held by RESTORABLE entries in tier 2.
    pub fn tier2_used(&self) -> u64 {
        self.tier2_used
    }

    /// Drains the demotions produced by eviction passes since the last
    /// call. The threaded engine drains within the write-lock critical
    /// section that produced them, writes the frames asked for after
    /// releasing it and reports each with [`DataStore::frame_landed`] or
    /// [`DataStore::frame_failed`]; the simulator only counts them.
    pub fn take_pending_spills(&mut self) -> Vec<SpillRequest<S>> {
        std::mem::take(&mut self.pending_spills)
    }

    /// Number of entries, FULL and RESTORABLE.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DsStats {
        self.stats.snapshot()
    }

    /// Caches the finished result of `producer` described by `spec`: the
    /// store's one way in (the paper's `malloc` with its accumulator
    /// meta-data object, taken after the fact). `cost` is the producer's
    /// measured recomputation cost (I/O + kernel seconds; virtual seconds
    /// in the simulator), which seeds the entry's benefit score.
    ///
    /// Evicts or spills blobs per the eviction policy until the entry
    /// fits; producers whose data was lost are appended to `evicted` so
    /// the caller can transition them to SWAPPED_OUT in the scheduling
    /// graph. The entry is visible to lookups on return.
    ///
    /// Under [`EvictionPolicy::CostBased`] admission is by benefit
    /// (DESIGN.md §14), and two kinds of entry are refused with
    /// [`DsError::Unprofitable`]. An entry that `cmp`-matches a visible one
    /// is a twin: the resident copy answers every query the twin could, so
    /// it is refused before any victim is looked at. And when making room
    /// would *lose* a victim's data (spilling disabled, so eviction means
    /// dropping), an entry whose benefit score cannot beat every victim it
    /// would displace is refused instead of churning the cache. A refused
    /// insert changes nothing but the `unprofitable` count: no blob id, no
    /// clock tick, no eviction. (LRU still admits twins: ROADMAP item 8.)
    pub fn insert_costed(
        &mut self,
        producer: QueryId,
        spec: S,
        size: u64,
        cost: f64,
        payload: Payload,
        evicted: &mut Vec<EvictionRecord<S>>,
    ) -> Result<BlobId, DsError> {
        if size > self.budget {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(DsError::TooLarge);
        }
        if let Some(len) = payload.len() {
            debug_assert_eq!(len as u64, size, "payload size differs from the charge");
        }
        let cost_based = self.policy == EvictionPolicy::CostBased;
        // Spilling preserves the victim's data, so the knapsack trade is
        // free; only a lossy drop has to be won on score.
        let lossy = cost_based && self.tier2_budget == 0;
        let must_beat = lossy.then(|| benefit_score(cost, 0, size));
        let twin = cost_based && self.equivalent(&spec).is_some();
        if twin || !self.make_room(size, must_beat, evicted) {
            self.stats.unprofitable.fetch_add(1, Ordering::Relaxed);
            return Err(DsError::Unprofitable);
        }
        let id = BlobId(self.next_blob);
        self.next_blob += 1;
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entry = BlobEntry::new(id, producer, spec, size, Phase::Full, now);
        entry.payload = payload;
        entry.cost = if cost.is_finite() { cost.max(0.0) } else { 0.0 };
        let (dataset, rect) = entry.spec.region_key();
        self.index.insert(id.raw(), dataset, rect);
        self.entries.insert(id, entry);
        self.used += size;
        self.file(id);
        self.stats.committed.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Frees tier-1 space until `size` more bytes fit (`size` is within
    /// the budget, and every byte of tier 1 belongs to a filed entry, so
    /// they can). All or nothing: the victims are chosen first, taken off
    /// the front of the victim index in eviction order, and evicted or
    /// spilled only once the last of them is known. With `must_beat`, a
    /// victim scoring at least that much refuses the whole trade: the
    /// chosen ones are re-filed untouched and the answer is `false`.
    fn make_room(
        &mut self,
        size: u64,
        must_beat: Option<f64>,
        evicted: &mut Vec<EvictionRecord<S>>,
    ) -> bool {
        let mut chosen: Vec<(VictimKey, BlobId)> = Vec::new();
        let mut free = self.budget - self.used;
        while free < size {
            let victim = self
                .pick_victim()
                .expect("tier-1 bytes belong to filed entries");
            let e = &self.entries[&victim];
            if must_beat.is_some_and(|incoming| e.score() >= incoming) {
                self.victims.extend(chosen);
                return false;
            }
            free += e.size;
            // `pick_victim` left it at the front.
            chosen.extend(self.victims.pop_first());
        }
        for (_, victim) in chosen {
            self.evict_or_spill(victim, evicted);
        }
        true
    }

    /// Demotes `victim` to the tier-2 spill store when one is configured
    /// (`victim` comes from `pick_victim`, so it is FULL); otherwise drops
    /// it as a tier-1 eviction. The entry keeps its bytes until its one
    /// frame lands, asking for it if it has none. Tier-2 overflow then
    /// drops the lowest-scoring RESTORABLE entries.
    fn evict_or_spill(&mut self, victim: BlobId, evicted: &mut Vec<EvictionRecord<S>>) {
        let e = self.entries.get_mut(&victim).expect("victim exists");
        if self.tier2_budget > 0 && e.phase.spill() {
            unfile(&mut self.victims, e);
            let payload = match e.frame {
                Frame::None => {
                    e.frame = Frame::Writing;
                    Some(e.payload.clone())
                }
                Frame::Writing => None,
                Frame::Landed => {
                    e.payload = Payload::Virtual;
                    None
                }
            };
            let size = e.size;
            self.stats.spilled.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_spilled.fetch_add(size, Ordering::Relaxed);
            self.used -= size;
            self.tier2_used += size;
            self.pending_spills.push(SpillRequest {
                blob: victim,
                producer: e.producer,
                spec: e.spec.clone(),
                size,
                payload,
            });
            self.shrink_tier2(None, evicted);
        } else {
            evicted.push(self.evict(victim));
        }
    }

    /// Drops `blob`, which the caller found, for good from whichever tier
    /// holds it and accounts for the loss: where every [`EvictionRecord`]
    /// is made.
    fn evict(&mut self, blob: BlobId) -> EvictionRecord<S> {
        let tier = if self.entries[&blob].restorable() {
            2
        } else {
            1
        };
        if tier == 2 {
            // The demotion may still sit in the pending-spill queue
            // (spilled and dropped within one eviction pass): cancel its
            // write so no orphan file appears.
            self.pending_spills.retain(|p| p.blob != blob);
        }
        let e = self.remove(blob).expect("the caller found it");
        self.stats.evicted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_evicted
            .fetch_add(e.size, Ordering::Relaxed);
        EvictionRecord {
            blob,
            producer: e.producer,
            score: e.score(),
            had_frame: e.frame == Frame::Landed,
            spec: e.spec,
            tier,
        }
    }

    /// Drops the lowest-scoring RESTORABLE entries until tier 2 fits its
    /// budget again, skipping `protect` (the entry currently being
    /// restored): the cost-based victim order whatever the tier-1 policy
    /// is, so ties break on the oldest stamp, then the lowest blob id.
    fn shrink_tier2(&mut self, protect: Option<BlobId>, evicted: &mut Vec<EvictionRecord<S>>) {
        while self.tier2_used > self.tier2_budget {
            let spilled = self.entries.values();
            let victim = spilled
                .filter(|e| e.restorable() && Some(e.id) != protect)
                .min_by_key(|e| (victim_key(EvictionPolicy::CostBased, e), e.id))
                .map(|e| e.id);
            let Some(victim) = victim else { break };
            evicted.push(self.evict(victim));
        }
    }

    /// Finds a RESTORABLE entry whose predicate `cmp`-matches `probe`
    /// exactly: a tier-2 hit the engine may re-heat at disk cost instead
    /// of recompute cost. Returns `(blob, producer, size)`; the lowest
    /// blob id wins so the choice is deterministic. Reads no stats and
    /// touches nothing — accounting happens at [`DataStore::restore`].
    ///
    /// Spilled entries answer *exact* probes only: partial reuse would
    /// require restoring before knowing whether the overlap is worth the
    /// disk read, so partial candidates are left to recomputation.
    pub fn lookup_restorable_exact(&self, probe: &S) -> Option<(BlobId, QueryId, u64)> {
        self.candidates(probe)
            .find(|e| e.restorable() && e.spec.cmp(probe))
            .map(|e| (e.id, e.producer, e.size))
    }

    /// Reports that the frame a demotion of `blob` asked for is on disk.
    /// True while the blob lives: the frame is its own for life, and a
    /// RESTORABLE entry lets its bytes go. False when the blob has left the
    /// store: the caller unlinks the frame after letting the store go.
    pub fn frame_landed(&mut self, blob: BlobId) -> bool {
        let Some(e) = self.entries.get_mut(&blob) else {
            return false;
        };
        debug_assert_eq!(e.frame, Frame::Writing, "{blob}: nobody asked");
        e.frame = Frame::Landed;
        if e.restorable() {
            e.payload = Payload::Virtual;
        }
        true
    }

    /// Reports that the frame a demotion of `blob` asked for could not be
    /// written: a RESTORABLE entry is dropped like a failed restore, a
    /// FULL one asks again at its next demotion.
    pub fn frame_failed(&mut self, blob: BlobId) -> Option<EvictionRecord<S>> {
        self.entries.get_mut(&blob)?.frame = Frame::None;
        let dropped = self.drop_restorable(blob)?;
        self.stats.restore_failures.fetch_add(1, Ordering::Relaxed);
        Some(dropped)
    }

    /// Re-heats a RESTORABLE entry: charges its bytes back to tier 1
    /// (evicting or spilling other entries to make room), attaches the
    /// payload (its still-attached bytes, or the frame re-read from the
    /// tier-2 store, which keeps it), and promotes the entry to
    /// FULL. Returns `false` when the entry no longer exists, is not
    /// RESTORABLE, or is larger than tier 1 — and in the corner
    /// where making room spills a victim past the tier-2 budget and the
    /// shrink drops *this* entry as the lowest-scoring RESTORABLE one.
    /// The caller falls back to recomputation in every `false` case.
    pub fn restore(
        &mut self,
        blob: BlobId,
        payload: Payload,
        evicted: &mut Vec<EvictionRecord<S>>,
    ) -> bool {
        let size = match self.entries.get(&blob) {
            Some(e) if e.restorable() => e.size,
            _ => return false,
        };
        if size > self.budget {
            return false;
        }
        self.make_room(size, None, evicted);
        // Making room may have spilled a victim past the tier-2 budget,
        // and the resulting shrink drops the lowest-scoring RESTORABLE
        // entry — possibly this one. Its eviction record is already in
        // `evicted`; fall back to recomputation.
        let Some(e) = self.entries.get_mut(&blob) else {
            return false;
        };
        debug_assert!(e.restorable(), "only shrink can touch it");
        e.payload = payload;
        let promoted = e.phase.restore();
        debug_assert!(promoted, "exclusive access, phase checked above");
        self.tier2_used -= size;
        self.used += size;
        self.touch(blob);
        self.file(blob);
        self.stats.restored.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_restored.fetch_add(size, Ordering::Relaxed);
        // Restoring may have spilled others past the tier-2 budget.
        self.shrink_tier2(Some(blob), evicted);
        true
    }

    /// Reports that a tier-2 read of `blob`'s frame failed (I/O error or
    /// poisoned data): counts one restore failure, since the reader
    /// recomputes, and drops the entry for good if it is still
    /// RESTORABLE, so its producer must be marked SWAPPED_OUT in the
    /// graph. Returns the eviction record, or `None` when the entry left
    /// or a peer restored it during the read.
    pub fn restore_failed(&mut self, blob: BlobId) -> Option<EvictionRecord<S>> {
        self.stats.restore_failures.fetch_add(1, Ordering::Relaxed);
        self.drop_restorable(blob)
    }

    /// Drops `blob` for good if it is RESTORABLE.
    fn drop_restorable(&mut self, blob: BlobId) -> Option<EvictionRecord<S>> {
        if !self.entries.get(&blob)?.restorable() {
            return None;
        }
        Some(self.evict(blob))
    }

    /// Adopts a spill frame recovered from a previous process as a
    /// RESTORABLE entry (DESIGN.md §15): the blob keeps its on-disk id
    /// (so the existing frame file stays its tier-2 key), the producer is
    /// the [`RECOVERED_PRODUCER`] sentinel (the original query belongs to
    /// a dead process and is in no graph), and its bytes are charged to
    /// tier 2. Returns `false` — and the caller deletes the frame — when
    /// the spill tier is disabled, the frame would overflow the tier-2
    /// budget, or the blob id is taken or in the upper half of the id
    /// space. The id comes from a file name, which the frame's CRC does not
    /// cover; fresh ids count up from past the largest adopted one, so the
    /// allocator keeps 2^63 of them and never wraps onto an entry's id.
    pub fn adopt_restorable(&mut self, blob: BlobId, spec: S, size: u64) -> bool {
        if self.tier2_budget == 0
            || self.tier2_used + size > self.tier2_budget
            || self.entries.contains_key(&blob)
            || blob.raw() >= 1 << 63
        {
            return false;
        }
        // Future allocations must never reuse an adopted id.
        self.next_blob = self.next_blob.max(blob.raw() + 1);
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let (dataset, rect) = spec.region_key();
        self.index.insert(blob.raw(), dataset, rect);
        let mut entry =
            BlobEntry::new(blob, RECOVERED_PRODUCER, spec, size, Phase::Restorable, now);
        entry.frame = Frame::Landed;
        self.entries.insert(blob, entry);
        self.tier2_used += size;
        self.stats.adopted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The *visible* cached entry that `cmp`-matches `probe`, lowest blob
    /// id first. Unlike [`DataStore::lookup`] this reads no stats and
    /// touches no LRU stamp: a pure probe, for the duplicate-full-compute
    /// detector and for a graft consumer asking whether the producer it
    /// waited for has published (DESIGN.md §13).
    pub fn equivalent(&self, probe: &S) -> Option<BlobId> {
        self.candidates(probe)
            .find(|e| e.visible() && e.spec.cmp(probe))
            .map(|e| e.id)
    }

    /// The entries, FULL or RESTORABLE, whose footprint
    /// intersects `probe`'s — the only ones that can `cmp`-match or
    /// overlap it — in blob-id order.
    fn candidates<'a>(&'a self, probe: &S) -> impl Iterator<Item = &'a BlobEntry<S>> + 'a {
        let (dataset, rect) = probe.region_key();
        let ids = self.index.query(dataset, &rect).into_iter();
        ids.filter_map(|raw| self.entries.get(&BlobId(raw)))
    }

    /// The paper's `lookup`: finds cached results that can answer `probe`
    /// completely or partially. Returns matches sorted by descending
    /// reusable bytes; an exact (`cmp`) match, if any, is always first with
    /// `overlap == 1.0`. Touches every returned blob. Only blobs whose
    /// footprints intersect the probe's are evaluated.
    pub fn lookup(&self, probe: &S) -> Vec<Match> {
        let (dataset, rect) = probe.region_key();
        let candidates: Vec<BlobId> = self
            .index
            .query(dataset, &rect)
            .into_iter()
            .map(BlobId)
            .collect();
        self.lookup_filtered(probe, Some(&candidates))
    }

    /// [`DataStore::lookup`] restricted to `candidates` when given; with
    /// `None` it scans every entry — the linear reference the indexed
    /// path is property-tested against.
    pub fn lookup_filtered(&self, probe: &S, candidates: Option<&[BlobId]>) -> Vec<Match> {
        let mut matches: Vec<Match> = Vec::new();
        let candidate_entries: Vec<&BlobEntry<S>> = match candidates {
            Some(ids) => ids
                .iter()
                .filter_map(|id| self.entries.get(id))
                .filter(|e| e.visible())
                .collect(),
            None => {
                // Blob-id order, like the grid's candidate lists, so both
                // paths pick the same exact match among `cmp`-equal twins.
                let mut all: Vec<_> = self.entries.values().filter(|e| e.visible()).collect();
                all.sort_by_key(|e| e.id);
                all
            }
        };
        let mut have_exact = false;
        for e in candidate_entries {
            matches.extend(Match::of(e, probe, !have_exact));
            have_exact |= matches.last().is_some_and(|m| m.exact);
        }
        matches.sort_by(Match::most_useful_first);
        let outcome = match matches.first() {
            Some(m) if m.exact => &self.stats.exact_hits,
            Some(_) => &self.stats.partial_hits,
            None => &self.stats.misses,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        for m in &matches {
            self.touch(m.blob);
        }
        matches
    }

    /// Reads an entry.
    pub fn get(&self, blob: BlobId) -> Option<&BlobEntry<S>> {
        self.entries.get(&blob)
    }

    /// Every entry, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = &BlobEntry<S>> {
        self.entries.values()
    }

    /// Marks a blob as used now (LRU bookkeeping) and counts one observed
    /// reuse toward its benefit score.
    pub fn touch(&self, blob: BlobId) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = self.entries.get(&blob) {
            e.last_access.store(now, Ordering::Relaxed);
            e.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes an entry, releasing its bytes (from tier 2 when the entry
    /// is RESTORABLE, from tier 1 otherwise); returns it, SWAPPED_OUT.
    pub fn remove(&mut self, blob: BlobId) -> Option<BlobEntry<S>> {
        let mut e = self.entries.remove(&blob)?;
        unfile(&mut self.victims, &mut e);
        self.index.remove(blob.raw());
        if e.restorable() {
            self.tier2_used -= e.size;
        } else {
            self.used -= e.size;
        }
        e.phase.kill();
        Some(e)
    }

    /// Files `blob` in the victim index under its current key, replacing
    /// the key it was filed with before, if any.
    fn file(&mut self, blob: BlobId) {
        if let Some(e) = self.entries.get_mut(&blob) {
            unfile(&mut self.victims, e);
            let key = victim_key(self.policy, e);
            e.filed = Some(key);
            self.victims.insert((key, blob));
        }
    }

    /// The next eviction victim under the store's policy, among the
    /// entries in the victim index.
    ///
    /// The front of the victim index is the entry with the smallest
    /// *filed* key; lookups since may have raised its real key. When the
    /// two agree it is the true minimum, because every other entry's real
    /// key is at least its filed one, which is larger; when they differ
    /// the entry is re-filed where it now belongs and the new front is
    /// looked at. A call re-files an entry at most once, and only one
    /// touched since it was last filed, so the work is bounded by the
    /// touches since the previous call.
    fn pick_victim(&mut self) -> Option<BlobId> {
        let victim = loop {
            let Some(&(key, blob)) = self.victims.first() else {
                break None;
            };
            if victim_key(self.policy, &self.entries[&blob]) == key {
                break Some(blob);
            }
            self.file(blob);
        };
        // Every eviction decision any test of this crate provokes is
        // checked against the scan.
        #[cfg(test)]
        assert_eq!(victim, self.scan_victim(), "victim index disagrees");
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::spec::testutil::IntervalSpec;

    impl<S: SpatialSpec> DataStore<S> {
        /// [`DataStore::pick_victim`] as a scan of every entry: what the
        /// victim index replaced, kept as the oracle it is tested against.
        /// Skips the victims `make_room` has already taken off the index
        /// (filed, but not in it).
        pub(super) fn scan_victim(&self) -> Option<BlobId> {
            let taken = |e: &BlobEntry<S>| {
                e.filed
                    .is_some_and(|key| !self.victims.contains(&(key, e.id)))
            };
            let candidates = self.entries.values().filter(|e| e.visible() && !taken(e));
            let stamp = |e: &BlobEntry<S>| e.last_access.load(Ordering::Relaxed);
            match self.policy {
                EvictionPolicy::Lru => candidates.min_by_key(|e| stamp(e)).map(|e| e.id),
                EvictionPolicy::CostBased => candidates
                    .min_by(|a, b| {
                        a.score()
                            .total_cmp(&b.score())
                            .then_with(|| stamp(a).cmp(&stamp(b)))
                            .then_with(|| a.id.cmp(&b.id))
                    })
                    .map(|e| e.id),
            }
        }

        /// The victim index holds exactly the visible entries, each under a
        /// key no larger than its current one.
        fn check_victim_index(&self) {
            let mut filed = 0;
            for e in self.entries.values() {
                assert_eq!(e.filed.is_some(), e.visible(), "{} filed wrongly", e.id);
                if let Some(key) = e.filed {
                    assert!(self.victims.contains(&(key, e.id)), "{} lost", e.id);
                    assert!(key <= victim_key(self.policy, e), "{} moved down", e.id);
                    filed += 1;
                }
            }
            assert_eq!(self.victims.len(), filed, "index holds a departed entry");
        }
    }

    fn spec(start: u64, len: u64, scale: u64) -> IntervalSpec {
        IntervalSpec::new(start, len, scale)
    }

    fn store(budget: u64) -> DataStore<IntervalSpec> {
        DataStore::new(budget, 64)
    }

    /// An insert at cost 0: under LRU, where nothing is refused on score,
    /// the plain "cache this" most tests want.
    fn put(
        ds: &mut DataStore<IntervalSpec>,
        producer: u64,
        spec: IntervalSpec,
        size: u64,
        ev: &mut Vec<EvictionRecord<IntervalSpec>>,
    ) -> Result<BlobId, DsError> {
        ds.insert_costed(QueryId(producer), spec, size, 0.0, Payload::Virtual, ev)
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut ds = store(1000);
        let mut ev = Vec::new();
        let s = spec(0, 100, 1);
        put(&mut ds, 1, s.clone(), 100, &mut ev).unwrap();
        assert!(ev.is_empty());
        let ms = ds.lookup(&s);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].overlap, 1.0);
        assert_eq!(ms[0].producer, QueryId(1));
        assert!(ds.lookup(&spec(999, 5, 1)).is_empty());
        assert_eq!(ds.stats().exact_hits, 1);
        assert_eq!(ds.stats().misses, 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut ds = store(0);
        let mut ev = Vec::new();
        assert_eq!(
            put(&mut ds, 1, spec(0, 10, 1), 10, &mut ev),
            Err(DsError::TooLarge)
        );
        assert_eq!(ds.stats().rejected, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut ds = store(300);
        let mut ev = Vec::new();
        let a = put(&mut ds, 1, spec(0, 100, 1), 100, &mut ev).unwrap();
        let _b = put(&mut ds, 2, spec(1000, 100, 1), 100, &mut ev).unwrap();
        let _c = put(&mut ds, 3, spec(2000, 100, 1), 100, &mut ev).unwrap();
        // Touch a so b becomes the LRU victim.
        ds.touch(a);
        put(&mut ds, 4, spec(3000, 100, 1), 100, &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].producer, QueryId(2));
        assert_eq!(ds.used(), 300);
    }

    #[test]
    fn lookup_orders_partial_matches_by_reuse_bytes() {
        let mut ds = store(10_000);
        let mut ev = Vec::new();
        // Three cached results overlapping the probe [0, 100) by different
        // amounts.
        put(&mut ds, 1, spec(90, 100, 1), 100, &mut ev).unwrap(); // 10 bytes reuse
        put(&mut ds, 2, spec(40, 100, 1), 100, &mut ev).unwrap(); // 60 bytes
        put(&mut ds, 3, spec(70, 100, 1), 100, &mut ev).unwrap(); // 30 bytes
        let probe = spec(0, 100, 1);
        let ms = ds.lookup(&probe);
        assert_eq!(ms.len(), 3);
        let producers: Vec<QueryId> = ms.iter().map(|m| m.producer).collect();
        assert_eq!(producers, vec![QueryId(2), QueryId(3), QueryId(1)]);
        assert_eq!(ds.stats().partial_hits, 1);
    }

    #[test]
    fn lookup_puts_exact_match_first() {
        let mut ds = store(10_000);
        let mut ev = Vec::new();
        put(&mut ds, 1, spec(0, 200, 1), 200, &mut ev).unwrap(); // superset, large reuse
        put(&mut ds, 2, spec(0, 100, 1), 100, &mut ev).unwrap(); // exact
        put(&mut ds, 3, spec(0, 100, 1), 100, &mut ev).unwrap(); // its `cmp`-equal twin
        let ms = ds.lookup(&spec(0, 100, 1));
        assert_eq!(ms[0].producer, QueryId(2));
        assert_eq!(ms[0].overlap, 1.0);
        // Exactly one match is the exact one, and it says so; the twin is
        // an ordinary (fully overlapping) partial match.
        let exact: Vec<bool> = ms.iter().map(|m| m.exact).collect();
        assert_eq!(exact, [true, false, false]);
        assert_eq!(ds.stats().exact_hits, 1);
    }

    #[test]
    fn lookup_miss_counts() {
        let ds = store(1000);
        assert!(ds.lookup(&spec(0, 10, 1)).is_empty());
        assert_eq!(ds.stats().misses, 1);
    }

    #[test]
    fn eviction_cascade_frees_enough_for_large_alloc() {
        let mut ds = store(300);
        let mut ev = Vec::new();
        for i in 0..3 {
            put(&mut ds, i, spec(i * 1000, 100, 1), 100, &mut ev).unwrap();
        }
        // Make LRU order differ from insertion order.
        ds.touch(BlobId(0));
        put(&mut ds, 9, spec(9000, 250, 1), 250, &mut ev).unwrap();
        // Choosing the victims before evicting them did not reorder them.
        let producers: Vec<u64> = ev.iter().map(|r| r.producer.raw()).collect();
        assert_eq!(producers, [1, 2, 0], "least recently used first");
        assert_eq!(ds.used(), 250);
        assert_eq!(ds.stats().bytes_evicted, 300);
    }

    #[test]
    fn has_equivalent_is_a_pure_probe() {
        let mut ds = store(1000);
        let mut ev = Vec::new();
        let s = spec(0, 100, 1);
        assert_eq!(ds.equivalent(&s), None);
        let blob = put(&mut ds, 1, s.clone(), 100, &mut ev).unwrap();
        // Far-away entries, a `cmp`-unequal neighbour on the same ground
        // and a spilled twin: the probe goes through the grid and must
        // neither miss the one match nor count the others.
        for i in 1..40 {
            put(&mut ds, 1 + i, spec(5000 + 200 * i, 100, 1), 10, &mut ev).unwrap();
        }
        put(&mut ds, 50, spec(0, 100, 2), 50, &mut ev).unwrap();
        let before = ds.stats();
        let stamps = |ds: &DataStore<IntervalSpec>| -> Vec<(BlobId, u64, u64)> {
            let mut v: Vec<_> = ds
                .entries
                .values()
                .map(|e| (e.id, e.hits(), e.last_access.load(Ordering::Relaxed)))
                .collect();
            v.sort_unstable();
            v
        };
        let untouched = stamps(&ds);
        assert_eq!(ds.equivalent(&s), Some(blob));
        assert!(ds.equivalent(&spec(5200, 100, 1)).is_some());
        assert_eq!(ds.equivalent(&spec(500, 10, 1)), None);
        assert_eq!(ds.equivalent(&spec(0, 100, 4)), None, "overlap is not cmp");
        assert_eq!(ds.equivalent(&spec(5200, 50, 1)), None);
        assert_eq!(ds.stats(), before, "no hit/miss accounting");
        assert_eq!(stamps(&ds), untouched, "no touch");
        // A spilled entry is indexed but not visible: not an equivalent.
        let mut ds = cost_store(100).with_tier2(100);
        ds.insert_costed(QueryId(1), s.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(900, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert!(ds.lookup_restorable_exact(&s).is_some());
        assert_eq!(ds.equivalent(&s), None);
    }

    #[test]
    fn used_accounting_tracks_remove() {
        let mut ds = store(1000);
        let mut ev = Vec::new();
        let b = put(&mut ds, 1, spec(0, 100, 1), 100, &mut ev).unwrap();
        assert_eq!(ds.used(), 100);
        assert_eq!(ds.len(), 1);
        ds.remove(b);
        assert_eq!(ds.used(), 0);
        assert!(ds.is_empty());
    }

    fn cost_store(budget: u64) -> DataStore<IntervalSpec> {
        DataStore::with_policy(budget, 64, EvictionPolicy::CostBased)
    }

    #[test]
    fn benefit_score_orders_by_cost_reuse_and_size() {
        // Cheap, unused, big → lowest; expensive, reused, small → highest.
        let low = benefit_score(0.1, 0, 1000);
        let mid = benefit_score(0.1, 9, 1000);
        let high = benefit_score(2.0, 9, 100);
        assert!(low < mid && mid < high);
        // The cost floor keeps zero-cost entries ordered by reuse/size.
        assert!(benefit_score(0.0, 1, 100) > benefit_score(0.0, 0, 100));
        assert!(benefit_score(0.0, 0, 100) > benefit_score(0.0, 0, 200));
    }

    #[test]
    fn cost_based_evicts_lowest_benefit_per_byte() {
        let mut ds = cost_store(300);
        let mut ev = Vec::new();
        // Same size, different measured costs.
        ds.insert_costed(
            QueryId(1),
            spec(0, 100, 1),
            100,
            5.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            0.5,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        ds.insert_costed(
            QueryId(3),
            spec(2000, 100, 1),
            100,
            3.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // Pressure: the cheapest-to-recompute entry (query 2) must go,
        // even though query 1 is the least recently used.
        ds.insert_costed(
            QueryId(4),
            spec(3000, 100, 1),
            100,
            4.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].producer, QueryId(2));
        assert_eq!(ev[0].tier, 1);
        assert!((ev[0].score - benefit_score(0.5, 0, 100)).abs() < 1e-12);
    }

    #[test]
    fn observed_reuse_raises_benefit_score() {
        let mut ds = cost_store(200);
        let mut ev = Vec::new();
        let s1 = spec(0, 100, 1);
        ds.insert_costed(QueryId(1), s1.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            1.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // Reuse the first entry twice: its score now dominates.
        assert_eq!(ds.lookup(&s1).len(), 1);
        assert_eq!(ds.lookup(&s1).len(), 1);
        ds.insert_costed(
            QueryId(3),
            spec(2000, 100, 1),
            100,
            1.5,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].producer, QueryId(2), "unreused twin evicted first");
    }

    #[test]
    fn admission_rejects_unprofitable_insert_when_spill_disabled() {
        let mut ds = cost_store(100);
        let mut ev = Vec::new();
        ds.insert_costed(
            QueryId(1),
            spec(0, 100, 1),
            100,
            10.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // A cheap incoming entry cannot beat the expensive resident one.
        assert_eq!(
            ds.insert_costed(
                QueryId(2),
                spec(1000, 100, 1),
                100,
                0.1,
                Payload::Virtual,
                &mut ev
            ),
            Err(DsError::Unprofitable)
        );
        assert!(ev.is_empty(), "the resident entry was not displaced");
        assert_eq!(ds.stats().unprofitable, 1);
        // A more valuable incoming entry displaces it.
        ds.insert_costed(
            QueryId(3),
            spec(2000, 100, 1),
            100,
            20.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].producer, QueryId(1));
    }

    /// Admission is all or nothing: an insert that needs two victims and
    /// loses to the second must not have dropped the first.
    #[test]
    fn refused_insert_evicts_nothing() {
        let mut ds = cost_store(300);
        let mut ev = Vec::new();
        for (q, cost) in [(1, 1.0), (2, 100.0), (3, 100.0)] {
            let s = spec(q * 1000, 100, 1);
            ds.insert_costed(QueryId(q), s, 100, cost, Payload::Virtual, &mut ev)
                .unwrap();
        }
        let before = (ds.len(), ds.used(), ds.stats().evicted, ds.victims.clone());
        // 200 bytes at cost 20 outscore the first victim and not the second.
        let refused = ds.insert_costed(
            QueryId(4),
            spec(9000, 200, 1),
            200,
            20.0,
            Payload::Virtual,
            &mut ev,
        );
        assert_eq!(refused, Err(DsError::Unprofitable));
        assert!(ev.is_empty(), "{ev:?}");
        ds.check_victim_index();
        let after = (ds.len(), ds.used(), ds.stats().evicted, ds.victims.clone());
        assert_eq!(after, before);
        assert_eq!(ds.stats().unprofitable, 1);
    }

    /// What an insert refused for a visible twin must leave as it was:
    /// entries, bytes in both tiers, the id allocator, the clock, the
    /// victim index, pending spills and every counter but `unprofitable`.
    type Untouched = (
        usize,
        u64,
        u64,
        u64,
        u64,
        Vec<(VictimKey, BlobId)>,
        usize,
        DsStats,
    );

    fn untouched(ds: &DataStore<IntervalSpec>) -> Untouched {
        let mut stats = ds.stats();
        stats.unprofitable = 0;
        (
            ds.len(),
            ds.used(),
            ds.tier2_used(),
            ds.next_blob,
            ds.clock.load(Ordering::Relaxed),
            ds.victims.iter().copied().collect(),
            ds.pending_spills.len(),
            stats,
        )
    }

    /// A `cmp`-equal twin of a visible entry is refused before any victim
    /// is chosen, however valuable, with the spill tier on or off and with
    /// tier 1 full (a non-twin would have displaced the resident entry).
    #[test]
    fn cost_based_refuses_a_visible_twin() {
        for tier2 in [0, 1000] {
            let mut ds = cost_store(100).with_tier2(tier2);
            let mut ev = Vec::new();
            let s = spec(0, 100, 1);
            let resident = ds
                .insert_costed(QueryId(1), s.clone(), 100, 1.0, Payload::Virtual, &mut ev)
                .unwrap();
            let before = untouched(&ds);
            let twin =
                ds.insert_costed(QueryId(2), s.clone(), 100, 50.0, Payload::Virtual, &mut ev);
            assert_eq!(twin, Err(DsError::Unprofitable), "tier2 {tier2}");
            assert!(ev.is_empty(), "tier2 {tier2}: {ev:?}");
            assert_eq!(untouched(&ds), before, "tier2 {tier2}");
            assert_eq!(ds.stats().unprofitable, 1);
            assert_eq!(ds.stats().spilled, 0, "tier2 {tier2}: nothing demoted");
            // The resident copy answers; the next admitted insert takes
            // the id the twin did not.
            let ms = ds.lookup(&s);
            assert_eq!((ms.len(), ms[0].blob, ms[0].exact), (1, resident, true));
            let next = ds.insert_costed(
                QueryId(3),
                spec(500, 100, 1),
                100,
                50.0,
                Payload::Virtual,
                &mut ev,
            );
            assert_eq!(next, Ok(BlobId(resident.raw() + 1)), "tier2 {tier2}");
        }
    }

    /// A spilled twin answers exact probes only at a disk read's cost and
    /// is invisible to lookups, so it does not refuse a fresh copy.
    #[test]
    fn a_restorable_twin_does_not_refuse() {
        let mut ds = cost_store(100).with_tier2(1000);
        let mut ev = Vec::new();
        let s = spec(0, 100, 1);
        let spilled = ds
            .insert_costed(QueryId(1), s.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(500, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert!(ds.get(spilled).unwrap().restorable());
        let fresh = ds
            .insert_costed(QueryId(3), s.clone(), 100, 3.0, Payload::Virtual, &mut ev)
            .unwrap();
        assert_eq!(ds.stats().unprofitable, 0);
        assert_eq!(ds.equivalent(&s), Some(fresh));
        assert_eq!(ds.lookup_restorable_exact(&s).map(|r| r.0), Some(spilled));
    }

    /// LRU admission is unchanged: it still caches a twin (and a lookup
    /// then finds both). Refusing them under LRU is the other half of
    /// ROADMAP item 8, held back by the hit-ratio ceiling of item 1(d).
    #[test]
    fn lru_still_admits_twins() {
        let mut ds = store(1000);
        let mut ev = Vec::new();
        let s = spec(0, 100, 1);
        put(&mut ds, 1, s.clone(), 100, &mut ev).unwrap();
        put(&mut ds, 2, s.clone(), 100, &mut ev).unwrap();
        assert_eq!((ds.len(), ds.used(), ds.stats().unprofitable), (2, 200, 0));
        assert_eq!(ds.lookup(&s).len(), 2);
    }

    #[test]
    fn spill_demotes_instead_of_dropping() {
        let mut ds = cost_store(100).with_tier2(1000);
        let mut ev = Vec::new();
        let s1 = spec(0, 100, 1);
        let b1 = ds
            .insert_costed(QueryId(1), s1.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // Demoted, not dropped: no eviction record, entry still resident.
        assert!(ev.is_empty());
        let st = ds.stats();
        assert_eq!((st.spilled, st.bytes_spilled, st.evicted), (1, 100, 0));
        assert_eq!(ds.used(), 100);
        assert_eq!(ds.tier2_used(), 100);
        // The engine gets the payload to persist.
        let spills = ds.take_pending_spills();
        assert_eq!(spills.len(), 1);
        assert_eq!(spills[0].blob, b1);
        assert!(ds.take_pending_spills().is_empty(), "drained once");
        // Invisible to normal lookups, but discoverable as restorable.
        assert!(ds.lookup(&s1).is_empty());
        assert_eq!(ds.lookup_restorable_exact(&s1), Some((b1, QueryId(1), 100)));
        // Restorable entries answer exact probes only.
        assert!(ds.lookup_restorable_exact(&spec(0, 50, 1)).is_none());
    }

    /// Inserts `bytes` at cost `cost` into a one-entry tier 1 and returns
    /// the blob and the demotion it displaced, if any.
    fn put_bytes(
        ds: &mut DataStore<IntervalSpec>,
        q: u64,
        bytes: &[u8],
        cost: f64,
    ) -> (BlobId, Vec<SpillRequest<IntervalSpec>>) {
        let s = spec(q * 1000, 100, 1);
        let payload = Payload::Bytes(bytes.into());
        let blob = ds
            .insert_costed(QueryId(q), s, 100, cost, payload, &mut Vec::new())
            .unwrap();
        (blob, ds.take_pending_spills())
    }

    fn attached(ds: &DataStore<IntervalSpec>, blob: BlobId) -> Option<Vec<u8>> {
        match &ds.get(blob)?.payload {
            Payload::Bytes(b) => Some(b.to_vec()),
            Payload::Virtual => None,
        }
    }

    #[test]
    fn frame_landed_is_true_while_the_blob_lives() {
        let mut ds = cost_store(100).with_tier2(1000);
        let (a, _) = put_bytes(&mut ds, 1, &[1; 100], 1.0);
        let (b, spills) = put_bytes(&mut ds, 2, &[2; 100], 2.0);
        let [req] = &spills[..] else {
            panic!("{spills:?}")
        };
        assert_eq!(req.blob, a);
        let asked = matches!(&req.payload, Some(Payload::Bytes(p)) if p[..] == [1; 100]);
        assert!(asked, "the first demotion asks for its bytes to be written");
        // Demoted, and still holding its bytes for a restore to use.
        assert!(ds.get(a).unwrap().restorable());
        assert_eq!(ds.get(a).unwrap().frame, Frame::Writing);
        assert_eq!(attached(&ds, a), Some(vec![1; 100]));
        assert!(ds.frame_landed(a));
        assert_eq!(attached(&ds, a), None, "the frame is its only copy");
        assert_eq!(ds.get(a).unwrap().frame, Frame::Landed);
        assert!(ds.get(a).unwrap().restorable());
        assert_eq!(ds.tier2_used(), 100);
        // `b` leaves the store while its frame is being written: the
        // landing reports it gone, for the writer to unlink.
        put_bytes(&mut ds, 3, &[3; 100], 3.0);
        assert_eq!(ds.get(b).unwrap().frame, Frame::Writing);
        ds.remove(b);
        assert!(!ds.frame_landed(b), "gone");
    }

    /// One frame per blob, whichever comes first, its landing or the
    /// blob's next demotion. Demoted, restored and demoted again, a blob
    /// asks for one write: when the frame landed first, the second
    /// demotion leaves the entry RESTORABLE with no bytes attached; while
    /// the frame is in flight, the entry keeps its bytes until it lands.
    #[test]
    fn one_write_per_blob_however_often_it_is_demoted() {
        for land_first in [true, false] {
            let mut ds = cost_store(100).with_tier2(1000);
            let (a, _) = put_bytes(&mut ds, 1, &[1; 100], 1.0);
            let (_, first) = put_bytes(&mut ds, 2, &[2; 100], 2.0);
            assert!(first[0].payload.is_some(), "the first demotion writes");
            if land_first {
                assert!(ds.frame_landed(a));
            }
            let bytes = Payload::Bytes([1; 100].into());
            assert!(ds.restore(a, bytes, &mut Vec::new()));
            assert_eq!(ds.get(a).unwrap().frame == Frame::Landed, land_first);
            assert_eq!(ds.take_pending_spills().len(), 1, "making room demoted b");
            // A more valuable entry demotes `a` once more.
            let (_, second) = put_bytes(&mut ds, 3, &[3; 100], 50.0);
            let [req] = &second[..] else {
                panic!("{second:?}")
            };
            assert_eq!(req.blob, a);
            assert!(req.payload.is_none(), "land_first {land_first}: a rewrite");
            assert!(ds.get(a).unwrap().restorable());
            if !land_first {
                assert_eq!(attached(&ds, a), Some(vec![1; 100]), "kept for the frame");
                assert!(ds.frame_landed(a));
            }
            assert_eq!(attached(&ds, a), None, "land_first {land_first}");
            assert_eq!(ds.get(a).unwrap().frame, Frame::Landed);
        }
    }

    /// A frame's file name lies outside its CRC, so the id recovery hands
    /// over is untrusted: one the allocator could not count past without
    /// wrapping is refused, and fresh ids never land on an adopted one.
    #[test]
    fn adopt_restorable_refuses_ids_the_allocator_cannot_step_past() {
        let mut ds = store(1000).with_tier2(1000);
        for (i, (raw, adopted)) in [(0, true), (u64::MAX - 1, false), (u64::MAX, false)]
            .into_iter()
            .enumerate()
        {
            let s = spec(i as u64 * 500, 100, 1);
            assert_eq!(ds.adopt_restorable(BlobId(raw), s, 100), adopted, "{raw}");
        }
        assert_eq!((ds.tier2_used(), ds.stats().adopted), (100, 1));
        let mut ev = Vec::new();
        let fresh: Vec<BlobId> = (1..=3)
            .map(|q| put(&mut ds, q, spec(q * 2000, 100, 1), 100, &mut ev).unwrap())
            .collect();
        assert!(ev.is_empty(), "{ev:?}");
        assert_eq!(fresh, [BlobId(1), BlobId(2), BlobId(3)]);
        assert_eq!(ds.len(), 4, "no entry was overwritten");
        assert_eq!(ds.get(BlobId(0)).unwrap().producer, RECOVERED_PRODUCER);
        assert_eq!((ds.used(), ds.tier2_used()), (300, 100));
    }

    /// The grid index holds every entry: it gains one at insertion and
    /// adoption, keeps spilled ones, and loses one at every exit
    /// (eviction, tier-2 drop, `restore_failed`, `remove`). The victim
    /// index beside it holds exactly the *visible* ones: a spilled or adopted
    /// entry is out of it until it is restored.
    #[test]
    fn index_follows_every_entry_in_and_out() {
        let mut ds = cost_store(100).with_tier2(100);
        let mut ev = Vec::new();
        let mut costed = |ds: &mut DataStore<IntervalSpec>, q: u64, start: u64, cost: f64| {
            ds.insert_costed(
                QueryId(q),
                spec(start, 100, 1),
                100,
                cost,
                Payload::Virtual,
                &mut ev,
            )
            .unwrap()
        };
        // An insert indexes; the next insert spills `a`, which stays indexed
        // (it still re-heats in place) but answers no ordinary lookup.
        let a = costed(&mut ds, 1, 0, 1.0);
        let b = costed(&mut ds, 2, 1000, 2.0);
        assert!(ds.get(a).unwrap().restorable());
        assert_eq!(ds.index.len(), 2);
        let filed = |ds: &DataStore<IntervalSpec>| -> Vec<BlobId> {
            ds.check_victim_index();
            ds.victims.iter().map(|v| v.1).collect()
        };
        assert_eq!(filed(&ds), [b], "the spilled `a` left the victim index");
        assert!(ds.lookup(&spec(0, 100, 1)).is_empty());
        // `b` spills past the tier-2 budget: the shrink drops `a`.
        let c = costed(&mut ds, 3, 2000, 3.0);
        assert!(ds.get(a).is_none());
        assert_eq!(ds.index.len(), 2);
        assert_eq!(filed(&ds), [c]);
        // A failed tier-2 read drops `b`, `remove` drops `c`; an adopted
        // frame joins at adoption and serves indexed lookups once restored.
        assert!(ds.restore_failed(b).is_some());
        ds.remove(c);
        assert_eq!(ds.index.len(), 0);
        assert!(filed(&ds).is_empty());
        assert!(ds.adopt_restorable(BlobId(50), spec(5000, 100, 1), 100));
        assert_eq!(ds.index.len(), 1);
        assert!(filed(&ds).is_empty(), "adopted frames are not visible");
        assert!(ds.restore(BlobId(50), Payload::Virtual, &mut Vec::new()));
        assert_eq!(filed(&ds), [BlobId(50)]);
        assert_eq!(ds.lookup(&spec(5000, 100, 1)).len(), 1);
        ds.remove(BlobId(50));
        assert_eq!(ds.index.len(), 0);
        assert!(filed(&ds).is_empty());
        assert!(ds.lookup_filtered(&spec(5000, 100, 1), None).is_empty());
    }

    #[test]
    fn restore_reheats_spilled_entry() {
        let mut ds = cost_store(100).with_tier2(1000);
        let mut ev = Vec::new();
        let s1 = spec(0, 100, 1);
        let b1 = ds
            .insert_costed(QueryId(1), s1.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        ds.take_pending_spills();
        // Restoring b1 must make room by spilling the other entry — never
        // by dropping b1 itself.
        assert!(ds.restore(b1, Payload::Virtual, &mut ev));
        assert!(ev.is_empty());
        assert_eq!(ds.used(), 100);
        assert_eq!(ds.tier2_used(), 100);
        let st = ds.stats();
        assert_eq!((st.restored, st.bytes_restored), (1, 100));
        assert_eq!(st.spilled, 2, "the displaced twin spilled in turn");
        assert!(ds.lookup(&s1).len() == 1, "restored entry serves lookups");
        assert!(ds.lookup_restorable_exact(&s1).is_none());
        // A second restore of the same (now FULL) blob is refused.
        assert!(!ds.restore(b1, Payload::Virtual, &mut ev));
    }

    #[test]
    fn adopt_restorable_reuses_blob_id_and_charges_tier2() {
        let mut ds = cost_store(100).with_tier2(1000);
        let s1 = spec(0, 100, 1);
        assert!(ds.adopt_restorable(BlobId(7), s1.clone(), 100));
        assert_eq!(ds.tier2_used(), 100);
        assert_eq!(ds.used(), 0, "adopted bytes live in tier 2, not tier 1");
        assert_eq!(ds.stats().adopted, 1);
        // Discoverable exactly like a frame spilled this run, attributed
        // to the dead-process sentinel producer.
        assert_eq!(
            ds.lookup_restorable_exact(&s1),
            Some((BlobId(7), RECOVERED_PRODUCER, 100))
        );
        // Fresh allocations never collide with the adopted id.
        let mut ev = Vec::new();
        let b = ds
            .insert_costed(
                QueryId(1),
                spec(1000, 100, 1),
                50,
                1.0,
                Payload::Virtual,
                &mut ev,
            )
            .unwrap();
        assert!(b.raw() > 7, "next_blob advanced past the adopted id");
        // Restore re-heats it into tier 1 like any spilled entry; making
        // room displaces the 50-byte twin into tier 2 in turn.
        assert!(ds.restore(BlobId(7), Payload::Virtual, &mut ev));
        assert_eq!(ds.tier2_used(), 50);
        assert_eq!(ds.lookup(&s1).len(), 1, "restored entry serves lookups");
    }

    #[test]
    fn adopt_restorable_refuses_overflow_disabled_and_duplicates() {
        // Spill tier disabled: nothing to adopt into.
        let mut ds = cost_store(100);
        assert!(!ds.adopt_restorable(BlobId(1), spec(0, 100, 1), 100));
        // Tier 2 fits one frame and a half.
        let mut ds = cost_store(100).with_tier2(150);
        assert!(ds.adopt_restorable(BlobId(1), spec(0, 100, 1), 100));
        assert!(
            !ds.adopt_restorable(BlobId(2), spec(500, 100, 1), 100),
            "second frame would overflow the tier-2 budget"
        );
        assert!(
            !ds.adopt_restorable(BlobId(1), spec(900, 100, 1), 10),
            "blob id already taken"
        );
        assert_eq!(ds.stats().adopted, 1);
        assert_eq!(ds.tier2_used(), 100);
    }

    #[test]
    fn tier2_overflow_drops_lowest_score_with_tier2_record() {
        // Tier 2 fits exactly one 100-byte entry.
        let mut ds = cost_store(100).with_tier2(100);
        let mut ev = Vec::new();
        ds.insert_costed(
            QueryId(1),
            spec(0, 100, 1),
            100,
            1.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert!(ev.is_empty(), "first spill fits tier 2");
        ds.insert_costed(
            QueryId(3),
            spec(2000, 100, 1),
            100,
            3.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // Query 2 spilled; tier 2 overflowed; the cheaper query-1 entry
        // (already in tier 2) was dropped for good.
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].producer, QueryId(1));
        assert_eq!(ev[0].tier, 2);
        assert_eq!(ds.tier2_used(), 100);
        // Both spill requests were queued before the drop cancelled the
        // first: only query 2's payload still needs persisting... unless
        // the engine drained in between. Here nothing drained, and the
        // dropped blob's write was cancelled.
        let spills = ds.take_pending_spills();
        assert_eq!(spills.len(), 1);
        assert_eq!(spills[0].producer, QueryId(2));
    }

    #[test]
    fn restore_failed_counts_every_failed_read() {
        let mut ds = cost_store(100).with_tier2(1000);
        let mut ev = Vec::new();
        let s1 = spec(0, 100, 1);
        let b1 = ds
            .insert_costed(QueryId(1), s1.clone(), 100, 1.0, Payload::Virtual, &mut ev)
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        let rec = ds.restore_failed(b1).expect("restorable");
        assert_eq!((rec.blob, rec.producer, rec.tier), (b1, QueryId(1), 2));
        assert_eq!(ds.tier2_used(), 0);
        let st = ds.stats();
        assert_eq!((st.restore_failures, st.evicted), (1, 1));
        assert!(ds.lookup_restorable_exact(&s1).is_none());
        // A second reader of the same frame finds the entry gone: nothing
        // is dropped, but its read failed all the same.
        assert!(ds.restore_failed(b1).is_none());
        let st = ds.stats();
        assert_eq!((st.restore_failures, st.evicted), (2, 1));
    }

    #[test]
    fn remove_releases_tier2_bytes_for_restorable_entries() {
        let mut ds = cost_store(100).with_tier2(1000);
        let mut ev = Vec::new();
        let b1 = ds
            .insert_costed(
                QueryId(1),
                spec(0, 100, 1),
                100,
                1.0,
                Payload::Virtual,
                &mut ev,
            )
            .unwrap();
        ds.insert_costed(
            QueryId(2),
            spec(1000, 100, 1),
            100,
            2.0,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        assert_eq!(ds.tier2_used(), 100);
        ds.remove(b1);
        assert_eq!(ds.tier2_used(), 0);
        assert_eq!(ds.used(), 100, "tier-1 accounting untouched");
    }

    #[test]
    fn lru_policy_ignores_tier2_and_drops_as_before() {
        // With tier 2 disabled (the default) every policy drops its
        // victims exactly as before this layer existed.
        let mut ds = store(100);
        let mut ev = Vec::new();
        put(&mut ds, 1, spec(0, 100, 1), 100, &mut ev).unwrap();
        put(&mut ds, 2, spec(1000, 100, 1), 100, &mut ev).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].tier, 1);
        assert_eq!(ds.stats().spilled, 0);
        assert!(ds.take_pending_spills().is_empty());
    }

    #[test]
    fn restore_survives_shrink_dropping_the_restoring_entry() {
        // Tier 1 and tier 2 both hold exactly one entry. Restoring the
        // spilled entry must first make room by spilling the resident
        // one, which overflows tier 2 — and the shrink picks the
        // *lowest-scoring* RESTORABLE entry, which is the entry being
        // restored. restore() must report failure (the caller
        // recomputes), not panic on the vanished entry.
        let mut ds = DataStore::with_policy(100, 64, EvictionPolicy::CostBased).with_tier2(100);
        let mut ev = Vec::new();
        // Cheap entry A: first to be evicted, lowest score ever after.
        ds.insert_costed(
            QueryId(1),
            spec(0, 100, 1),
            100,
            0.1,
            Payload::Virtual,
            &mut ev,
        )
        .unwrap();
        // Expensive entry B evicts A; with tier 2 open, A spills.
        let b = ds
            .insert_costed(
                QueryId(2),
                spec(500, 100, 1),
                100,
                9.0,
                Payload::Virtual,
                &mut ev,
            )
            .unwrap();
        assert!(ev.is_empty(), "A was spilled, not evicted: {ev:?}");
        assert_eq!(ds.stats().spilled, 1);
        let (a_blob, a_producer, _) = ds.lookup_restorable_exact(&spec(0, 100, 1)).unwrap();
        assert_eq!(a_producer, QueryId(1));

        assert!(
            !ds.restore(a_blob, Payload::Virtual, &mut ev),
            "restore must fail once the shrink dropped its own entry"
        );
        // B was spilled to make room; A (lowest score) was dropped from
        // tier 2 to fit it. Exactly one tier-2 eviction record, for A.
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert_eq!(ev[0].blob, a_blob);
        assert_eq!(ev[0].tier, 2);
        assert!(ds.lookup_restorable_exact(&spec(0, 100, 1)).is_none());
        let (b_blob, b_producer, _) = ds.lookup_restorable_exact(&spec(500, 100, 1)).unwrap();
        assert_eq!((b_blob, b_producer), (b, QueryId(2)));
    }
    #[test]
    fn equal_scores_evict_the_older_stamp_before_the_lower_blob_id() {
        let mut ds = cost_store(200).with_tier2(200);
        let mut ev = Vec::new();
        // Only adopted frames can have ids out of stamp order.
        assert!(ds.adopt_restorable(BlobId(7), spec(0, 100, 1), 100));
        assert!(ds.adopt_restorable(BlobId(3), spec(500, 100, 1), 100));
        assert!(ds.restore(BlobId(7), Payload::Virtual, &mut ev));
        assert!(ds.restore(BlobId(3), Payload::Virtual, &mut ev));
        assert_eq!(
            ds.get(BlobId(3)).unwrap().score(),
            ds.get(BlobId(7)).unwrap().score()
        );
        put(&mut ds, 1, spec(900, 100, 1), 100, &mut ev).unwrap();
        assert!(ds.get(BlobId(7)).unwrap().restorable(), "older stamp");
        assert!(ds.get(BlobId(3)).unwrap().visible());
    }

    /// Applies one random operation.
    fn apply(ds: &mut DataStore<IntervalSpec>, (op, a, b, c): (u8, u64, u64, u64)) {
        let mut ev = Vec::new();
        let nth = |ds: &DataStore<IntervalSpec>,
                   keep: &dyn Fn(&BlobEntry<IntervalSpec>) -> bool| {
            let mut ids: Vec<BlobId> = ds
                .entries
                .values()
                .filter(|e| keep(e))
                .map(|e| e.id)
                .collect();
            ids.sort_unstable();
            (!ids.is_empty()).then(|| ids[c as usize % ids.len()])
        };
        let s = spec(a, b, 1 + c % 2);
        let cost = c as f64 / 8.0;
        match op {
            0 => drop(put(ds, a, s, b, &mut ev)),
            1 => drop(ds.insert_costed(QueryId(a), s, b, cost, Payload::Virtual, &mut ev)),
            2 => drop(ds.lookup(&s)),
            3 => {
                if let Some(blob) = nth(ds, &|e| e.restorable()) {
                    ds.restore(blob, Payload::Virtual, &mut ev);
                }
            }
            4 => {
                if let Some(blob) = nth(ds, &|_| true) {
                    if c % 2 == 0 || ds.restore_failed(blob).is_none() {
                        ds.remove(blob);
                    }
                }
            }
            _ => drop(ds.adopt_restorable(BlobId(10_000 + a), s, b)),
        }
        if c % 4 == 0 {
            for req in ds.take_pending_spills() {
                if req.payload.is_some() {
                    ds.frame_landed(req.blob);
                }
            }
        }
    }

    proptest::proptest! {
        /// Under both policies, with and without tier 2, through inserts
        /// (admitted and refused), touches, spills, frame landings,
        /// restores, adoptions and removals: the victim index names the
        /// victim the scan names,
        /// at every step, and holds exactly the visible entries. (Every
        /// eviction the operations themselves provoke is cross-checked
        /// too, inside `pick_victim`.)
        #[test]
        fn victim_index_picks_what_the_scan_picks(
            cost_based in proptest::bool::ANY,
            budget in 100u64..500,
            tier2 in 0u64..600,
            ops in proptest::collection::vec((0u8..6, 0u64..1500, 1u64..120, 0u64..64), 1..120),
        ) {
            let policy = if cost_based { EvictionPolicy::CostBased } else { EvictionPolicy::Lru };
            // Half the stores have no spill tier.
            let tier2 = tier2.saturating_sub(300);
            let mut ds: DataStore<IntervalSpec> =
                DataStore::with_policy(budget, 64, policy).with_tier2(tier2);
            for op in ops {
                apply(&mut ds, op);
                ds.check_victim_index();
                // A pure read first: the pick below may re-file.
                let scanned = ds.scan_victim();
                proptest::prop_assert_eq!(ds.pick_victim(), scanned);
                ds.check_victim_index();
                proptest::prop_assert!(ds.used() <= budget && ds.tier2_used() <= tier2);
            }
        }

        /// Cost-based admission, with and without tier 2, through inserts,
        /// lookups and restores of twelve overlapping predicates (so twins
        /// are common): an insert that a visible entry `cmp`-matches is
        /// refused and changes nothing but the `unprofitable` count, and
        /// with spilling on every other insert is admitted.
        #[test]
        fn cost_based_refuses_visible_twins_and_nothing_else_with_spilling(
            tier2 in 0u64..600,
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0u64..64), 1..100),
        ) {
            let tier2 = tier2.saturating_sub(300);
            let mut ds = cost_store(300).with_tier2(tier2);
            let mut ev = Vec::new();
            for (op, slot, c) in ops {
                let s = spec(slot * 50, 100, 1 + c % 2);
                match op {
                    0 => drop(ds.lookup(&s)),
                    1 => {
                        if let Some((blob, ..)) = ds.lookup_restorable_exact(&s) {
                            ds.restore(blob, Payload::Virtual, &mut ev);
                        }
                    }
                    _ => {
                        let twin = ds.equivalent(&s).is_some();
                        let before = untouched(&ds);
                        let refused_before = ds.stats().unprofitable;
                        let got = ds.insert_costed(
                            QueryId(c), s, 100, c as f64 / 8.0, Payload::Virtual, &mut ev,
                        );
                        if twin {
                            proptest::prop_assert_eq!(got, Err(DsError::Unprofitable));
                            proptest::prop_assert_eq!(untouched(&ds), before);
                            proptest::prop_assert_eq!(ds.stats().unprofitable, refused_before + 1);
                        } else if tier2 > 0 {
                            proptest::prop_assert!(got.is_ok());
                        }
                    }
                }
                if c % 4 == 0 {
                    for req in ds.take_pending_spills() {
                        if req.payload.is_some() {
                            ds.frame_landed(req.blob);
                        }
                    }
                }
                ds.check_victim_index();
            }
        }
    }
}
