//! The four benchmark workloads: seeded input generation, the server
//! configuration each runs against, and the shape assertion that keeps a
//! later change from quietly turning a workload into a different one.
//!
//! Why these four (README.md has the long form):
//!
//! * `interactive_browse`: the paper's §5 interactive clients; high
//!   sharing under continual Data Store eviction. Stresses DS lookup,
//!   projection, re-probe and dependency blocking.
//! * `batch_scan`: disjoint averaging windows, zero result reuse by
//!   construction. Stresses Page Space, storage reads, the averaging
//!   kernel and a deep WAITING set. Bypasses every result-reuse path.
//! * `cached_replay`: ~100 % exact hits on tiny tiles. Only admission,
//!   graph insert, dequeue, DS lookup and reply are left. Bypasses
//!   kernels, Page Space and storage.
//! * `zipf_spill`: the Data Store write path (evict, spill, restore) with
//!   real spill-file I/O. Bypasses partial reuse.

use std::path::PathBuf;

use vmqs_core::{DatasetId, Rect, Strategy};
use vmqs_datastore::EvictionPolicy;
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_server::ServerConfig;
use vmqs_workload::{generate, zipfian, WorkloadConfig};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    InteractiveBrowse,
    BatchScan,
    CachedReplay,
    ZipfSpill,
}

pub const ALL: [Kind; 4] = [
    Kind::InteractiveBrowse,
    Kind::BatchScan,
    Kind::CachedReplay,
    Kind::ZipfSpill,
];

/// Output bytes of one 256x256 RGB tile, the unit the zipfian budgets are
/// expressed in.
pub const TILE_BYTES: u64 = 3 * 256 * 256;

/// Dataset id the `batch_scan` warm-up rasters over; the timed batches
/// never touch it, so their caches start cold.
const BATCH_WARMUP_DATASET: u64 = 1_000_000;
const BATCH_TILE_SIDE: u32 = 1024;
const BATCH_ZOOM: u32 = 4;
/// Single-client passes over the 128 `cached_replay` tiles before any
/// concurrent client starts (see `generate_inputs`).
const PRIME_PASSES: usize = 100;

/// Counts that differ between the full benchmark and `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// Full counts, or about 1/30 of them under `--smoke`.
    fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Sessions of an untraced pass (see `PassCfg::sessions`); `setup_s`
    /// is the median of their set-ups.
    pub fn sessions(self) -> usize {
        self.pick(5, 2)
    }

    /// Queries the single-threaded layer replay walks.
    pub fn replay_queries(self, kind: Kind) -> usize {
        match kind {
            Kind::CachedReplay => self.pick(4000, 256),
            Kind::BatchScan => self.pick(800, 50),
            _ => self.pick(1200, 64),
        }
    }
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::InteractiveBrowse => "interactive_browse",
            Kind::BatchScan => "batch_scan",
            Kind::CachedReplay => "cached_replay",
            Kind::ZipfSpill => "zipf_spill",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_batch(self) -> bool {
        self == Kind::BatchScan
    }

    /// Closed-loop client threads (the batch is submitted by one caller).
    pub fn clients(self) -> usize {
        match self {
            Kind::InteractiveBrowse => 16,
            Kind::ZipfSpill => 8,
            // Sixteen threads that each need ~25 us of CPU per query
            // time-slice on two cores, and p95/p99 then measure the OS
            // scheduler (30 % run-to-run spread); four keep the queue
            // non-empty and the spread under 10 %.
            Kind::CachedReplay => 4,
            Kind::BatchScan => 1,
        }
    }

    /// Replies of the timed phase after which peak RSS is read: late
    /// enough that caches and graph are full, early enough that a run at
    /// half today's speed still gets there.
    pub fn rss_checkpoint(self) -> usize {
        match self {
            Kind::InteractiveBrowse | Kind::ZipfSpill => 3_000,
            Kind::CachedReplay => 100_000,
            // Read after the first batch instead.
            Kind::BatchScan => usize::MAX,
        }
    }

    pub fn ds_budget(self) -> u64 {
        match self {
            Kind::ZipfSpill => 8 * TILE_BYTES,
            // Room for the 128 tile results (384 KiB) a few times over.
            // At 16 MiB the store would hold ~42 copies of every tile
            // (see `ds_policy`) and the run would measure linear scans
            // over 5 400 duplicate graph nodes instead of the per-query
            // fixed costs this workload exists to expose.
            Kind::CachedReplay => 1 << 20,
            _ => 16 << 20,
        }
    }

    pub fn ps_budget(self) -> u64 {
        match self {
            Kind::ZipfSpill => 1 << 20,
            _ => 8 << 20,
        }
    }

    pub fn tier2_budget(self) -> u64 {
        match self {
            Kind::ZipfSpill => 32 * TILE_BYTES,
            _ => 0,
        }
    }

    pub fn ds_policy(self) -> EvictionPolicy {
        match self {
            Kind::ZipfSpill => EvictionPolicy::CostBased,
            // The engine inserts every answer into the Data Store, exact
            // hits included. Under LRU the duplicates of a tile age
            // together, the coldest tile loses all its copies at once, and
            // the steady state is ~50 % exact hits (README.md, findings).
            // Cost-based admission refuses the near-free duplicates, so
            // the replay stays ~100 % exact hits with no evictions.
            Kind::CachedReplay => EvictionPolicy::CostBased,
            _ => EvictionPolicy::Lru,
        }
    }

    /// The server every pass of this workload runs against. `spill_dir`
    /// is only consulted by `zipf_spill`.
    pub fn server_config(self, workers: usize, spill_dir: Option<PathBuf>) -> ServerConfig {
        let cfg = ServerConfig::small()
            .with_strategy(Strategy::Cnbf)
            .with_threads(workers)
            .with_ds_budget(self.ds_budget())
            .with_ps_budget(self.ps_budget())
            .with_cache_policy(self.ds_policy())
            .with_start_paused(self.is_batch());
        match self {
            Kind::ZipfSpill => cfg
                .with_spill_dir(spill_dir)
                .with_tier2_budget(self.tier2_budget()),
            _ => cfg,
        }
    }
}

/// Generated inputs of one workload. The program under test receives only
/// these lists; `hash` lets two runs prove they measured the same ones.
pub struct Inputs {
    /// Lists run to completion before the warm-up proper, so that every
    /// distinct result is cached before concurrent repeats start; empty
    /// for workloads that need no such barrier.
    pub prime: Vec<Vec<VmQuery>>,
    /// Per-client warm-up lists, run once each before timing.
    pub warmup: Vec<Vec<VmQuery>>,
    /// Closed loops: one list per client, cycled until the deadline.
    /// `batch_scan`: one list per batch, each run once on a fresh server.
    pub timed: Vec<Vec<VmQuery>>,
    pub hash: u64,
    pub distinct: usize,
}

pub fn generate_inputs(kind: Kind, seed: u64, scale: Scale) -> Inputs {
    let (warmup, timed) = match kind {
        Kind::InteractiveBrowse => interactive_browse(seed, scale),
        Kind::BatchScan => batch_scan(seed, scale),
        Kind::CachedReplay => cached_replay(seed),
        Kind::ZipfSpill => zipf_spill(seed, scale),
    };
    // Cost-based admission keeps what it admitted first, and under
    // concurrency a duplicate's measured cost (lock waits and preemption
    // included) can exceed a real compute's and displace it, after which
    // that tile is refused for ever and recomputed on every visit. One
    // client walking all 128 tiles many times first fills the store with
    // every tile's real result plus uncontended, near-free duplicates and
    // gives each entry a hit count no single inflated cost outweighs: the
    // cached set is the same on every run.
    let prime = match kind {
        Kind::CachedReplay => {
            let all: Vec<VmQuery> = timed.iter().flatten().copied().collect();
            vec![std::iter::repeat_n(all, PRIME_PASSES).flatten().collect()]
        }
        _ => Vec::new(),
    };
    let hash = input_hash(warmup.iter().chain(timed.iter()).flatten());
    let mut keys: Vec<SpecKey> = timed.iter().flatten().map(spec_key).collect();
    keys.sort_unstable();
    keys.dedup();
    Inputs {
        prime,
        warmup,
        timed,
        hash,
        distinct: keys.len(),
    }
}

/// Paper §5 interactive clients at a 256-pixel output: 16 clients split
/// 8/6/2 over three paper-scale slides, 4 hotspots per slide.
fn interactive_browse(seed: u64, scale: Scale) -> (Vec<Vec<VmQuery>>, Vec<Vec<VmQuery>>) {
    let warm = scale.pick(50, 10);
    let mut cfg = WorkloadConfig::paper(VmOp::Subsample, seed);
    cfg.output_side = 256;
    cfg.queries_per_client = warm + scale.pick(1600, 60);
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    for s in generate(&cfg) {
        let mut q = s.queries;
        timed.push(q.split_off(warm));
        warmup.push(q);
    }
    (warmup, timed)
}

/// Tile `t` of the zoom-4 averaging raster: 29x29 disjoint 1024-pixel
/// windows per paper-scale slide, spilling onto further dataset ids.
fn batch_tile(first_dataset: u64, origin: (u32, u32), t: usize) -> VmQuery {
    let per_row = (30_000 / BATCH_TILE_SIDE) as usize;
    let per_slide = per_row * per_row;
    let slide = SlideDataset::paper_scale(DatasetId(first_dataset + (t / per_slide) as u64));
    let i = t % per_slide;
    let x = origin.0 + (i % per_row) as u32 * BATCH_TILE_SIDE;
    let y = origin.1 + (i / per_row) as u32 * BATCH_TILE_SIDE;
    VmQuery::new(
        slide,
        Rect::new(x, y, BATCH_TILE_SIDE, BATCH_TILE_SIDE),
        BATCH_ZOOM,
        VmOp::Average,
    )
}

fn batch_scan(seed: u64, scale: Scale) -> (Vec<Vec<VmQuery>>, Vec<Vec<VmQuery>>) {
    // The seed picks where the raster starts inside the slack the 29x29
    // grid leaves (30000 - 29 * 1024 = 304 px), snapped to the zoom.
    let slack = 30_000 - 29 * BATCH_TILE_SIDE;
    let mix = splitmix(seed);
    let origin = (
        (mix as u32 % slack) / BATCH_ZOOM * BATCH_ZOOM,
        ((mix >> 32) as u32 % slack) / BATCH_ZOOM * BATCH_ZOOM,
    );
    let per_batch = scale.pick(1200, 50);
    let batches = scale.pick(20, 2);
    let warmup = (0..scale.pick(300, 10))
        .map(|t| batch_tile(BATCH_WARMUP_DATASET, origin, t))
        .collect();
    let timed = (0..batches)
        .map(|b| {
            (b * per_batch..(b + 1) * per_batch)
                .map(|t| batch_tile(0, origin, t))
                .collect()
        })
        .collect();
    (vec![warmup], timed)
}

/// The `contention_tiles` shape of `bench_e2e`, 128 disjoint 32x32 zoom-1
/// tiles, dealt 32 to each of 4 clients; the seed rotates which tiles a
/// client owns. The warm-up pass caches all 128 and then replays them long
/// enough for threads, allocator and shard queues to settle.
fn cached_replay(seed: u64) -> (Vec<Vec<VmQuery>>, Vec<Vec<VmQuery>>) {
    const DISTINCT: usize = 128;
    const SIDE: u32 = 32;
    const WARM_REPEATS: usize = 50;
    let clients = Kind::CachedReplay.clients();
    let per_client = DISTINCT / clients;
    let slide = SlideDataset::new(DatasetId(0), 4096, 4096);
    let per_row = (4096 / SIDE) as usize;
    let timed: Vec<Vec<VmQuery>> = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|t| {
                    let i = (c * per_client + t + seed as usize % DISTINCT) % DISTINCT;
                    let x = (i % per_row) as u32 * SIDE;
                    let y = (i / per_row) as u32 * SIDE;
                    VmQuery::new(slide, Rect::new(x, y, SIDE, SIDE), 1, VmOp::Subsample)
                })
                .collect()
        })
        .collect();
    let warmup = timed
        .iter()
        .map(|tiles| {
            std::iter::repeat_n(tiles.clone(), WARM_REPEATS)
                .flatten()
                .collect()
        })
        .collect();
    (warmup, timed)
}

fn zipf_spill(seed: u64, scale: Scale) -> (Vec<Vec<VmQuery>>, Vec<Vec<VmQuery>>) {
    let clients = Kind::ZipfSpill.clients();
    let warm = scale.pick(1000, 200);
    let draws = warm + scale.pick(28_000, 900);
    let all = zipfian(128, draws, 1.1, seed).remove(0).queries;
    let deal = |qs: &[VmQuery]| -> Vec<Vec<VmQuery>> {
        (0..clients)
            .map(|c| qs.iter().skip(c).step_by(clients).copied().collect())
            .collect()
    };
    (deal(&all[..warm]), deal(&all[warm..]))
}

/// The seed session `k` of a run generates its inputs from.
pub fn session_seed(seed: u64, k: usize) -> u64 {
    splitmix(seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything that distinguishes two predicates, in a hashable, sortable
/// form (`VmQuery` itself is neither `Hash` nor `Ord`).
pub type SpecKey = (u64, u32, u32, u32, u32, u32, u8);

pub fn spec_key(q: &VmQuery) -> SpecKey {
    (
        q.slide.id.0,
        q.region.x,
        q.region.y,
        q.region.w,
        q.region.h,
        q.zoom,
        match q.op {
            VmOp::Subsample => 0,
            VmOp::Average => 1,
        },
    )
}

/// FNV-1a over the predicates in order.
pub fn input_hash<'a>(queries: impl Iterator<Item = &'a VmQuery>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for q in queries {
        let k = spec_key(q);
        eat(k.0);
        eat(q.slide.width as u64 | (q.slide.height as u64) << 32);
        eat(k.1 as u64 | (k.2 as u64) << 32);
        eat(k.3 as u64 | (k.4 as u64) << 32);
        eat(k.5 as u64 | (k.6 as u64) << 32);
    }
    h
}

/// Folds the next session's input hash into a run's.
pub fn combine_hashes(so_far: u64, next: u64) -> u64 {
    (so_far.rotate_left(5) ^ next).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Timed-phase facts a shape assertion looks at.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShapeFacts {
    pub hit_ratio: f64,
    pub exact_hit_ratio: f64,
    pub evictions: u64,
    pub pages_read: u64,
    pub spilled: u64,
    pub restored: u64,
    pub restore_failures: u64,
}

/// The property each workload was chosen for. `Err` fails the run.
pub fn check_shape(kind: Kind, f: &ShapeFacts) -> Result<(), String> {
    let fail = |why: String| Err(format!("{}: shape assertion failed: {why}", kind.name()));
    match kind {
        Kind::InteractiveBrowse => {
            if !(0.6..=0.95).contains(&f.hit_ratio) {
                return fail(format!("hit ratio {:.3} outside [0.6, 0.95]", f.hit_ratio));
            }
            if f.evictions == 0 {
                return fail("no Data Store evictions".into());
            }
        }
        Kind::BatchScan => {
            if f.hit_ratio != 0.0 {
                return fail(format!("hit ratio {:.4} must be 0", f.hit_ratio));
            }
        }
        Kind::CachedReplay => {
            if f.exact_hit_ratio < 0.99 {
                return fail(format!("exact-hit ratio {:.4} < 0.99", f.exact_hit_ratio));
            }
            if f.pages_read != 0 {
                return fail(format!("{} storage pages read, expected 0", f.pages_read));
            }
        }
        Kind::ZipfSpill => {
            if f.spilled == 0 || f.restored == 0 {
                return fail(format!(
                    "spilled {} / restored {} must both be > 0",
                    f.spilled, f.restored
                ));
            }
            if f.restore_failures != 0 {
                return fail(format!("{} restore failures", f.restore_failures));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for kind in ALL {
            let a = generate_inputs(kind, 42, SMOKE);
            let b = generate_inputs(kind, 42, SMOKE);
            let c = generate_inputs(kind, 7, SMOKE);
            assert_eq!(a.hash, b.hash, "{}: same seed must repeat", kind.name());
            assert_ne!(a.hash, c.hash, "{}: seed must matter", kind.name());
            assert_eq!(a.timed.len(), b.timed.len());
        }
    }

    #[test]
    fn sessions_of_a_run_draw_distinct_repeatable_inputs() {
        let seeds: Vec<u64> = (0..5).map(|k| session_seed(42, k)).collect();
        assert_eq!(
            seeds,
            (0..5).map(|k| session_seed(42, k)).collect::<Vec<_>>()
        );
        let mut hashes: Vec<u64> = seeds
            .iter()
            .map(|&s| generate_inputs(Kind::InteractiveBrowse, s, SMOKE).hash)
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 5);
        assert_ne!(session_seed(42, 1), session_seed(43, 0));
        assert_ne!(combine_hashes(1, 2), combine_hashes(2, 1));
    }

    #[test]
    fn client_and_list_counts_match_the_declared_shape() {
        for kind in ALL {
            let inp = generate_inputs(kind, 1, SMOKE);
            if kind.is_batch() {
                assert_eq!(inp.warmup.len(), 1);
                assert_eq!(inp.distinct, inp.timed.iter().map(Vec::len).sum::<usize>());
            } else {
                assert_eq!(inp.timed.len(), kind.clients());
                assert_eq!(inp.warmup.len(), kind.clients());
            }
            assert!(inp.timed.iter().all(|l| !l.is_empty()));
        }
        assert_eq!(generate_inputs(Kind::CachedReplay, 3, SMOKE).distinct, 128);
    }

    #[test]
    fn batch_tiles_are_disjoint_and_never_touch_the_warmup_dataset() {
        let inp = generate_inputs(Kind::BatchScan, 9, SMOKE);
        let all: Vec<&VmQuery> = inp.timed.iter().flatten().collect();
        for (i, a) in all.iter().enumerate() {
            assert_ne!(a.slide.id.0, BATCH_WARMUP_DATASET);
            assert_eq!(a.output_dims(), (256, 256));
            for b in &all[i + 1..] {
                assert!(a.slide.id != b.slide.id || a.region.intersect(&b.region).is_none());
            }
        }
        assert!(inp.warmup[0]
            .iter()
            .all(|q| q.slide.id.0 == BATCH_WARMUP_DATASET));
    }

    #[test]
    fn shape_assertions_accept_the_intended_shape_and_reject_drift() {
        let ok = ShapeFacts {
            hit_ratio: 0.9,
            exact_hit_ratio: 0.4,
            evictions: 10,
            ..ShapeFacts::default()
        };
        assert!(check_shape(Kind::InteractiveBrowse, &ok).is_ok());
        assert!(check_shape(Kind::BatchScan, &ok).is_err());
        assert!(check_shape(Kind::BatchScan, &ShapeFacts::default()).is_ok());
        let cached = ShapeFacts {
            hit_ratio: 1.0,
            exact_hit_ratio: 1.0,
            ..ShapeFacts::default()
        };
        assert!(check_shape(Kind::CachedReplay, &cached).is_ok());
        assert!(check_shape(
            Kind::CachedReplay,
            &ShapeFacts {
                pages_read: 1,
                ..cached
            }
        )
        .is_err());
        assert!(check_shape(Kind::ZipfSpill, &cached).is_err());
        assert!(check_shape(
            Kind::ZipfSpill,
            &ShapeFacts {
                spilled: 3,
                restored: 2,
                ..ShapeFacts::default()
            }
        )
        .is_ok());
    }
}
