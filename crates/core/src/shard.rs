//! Shard placement for the sharded scheduler.
//!
//! The server engine partitions its scheduling graph into one shard per
//! worker (DESIGN.md §12). [`shard_of_spec`] is the *placement
//! function*: a query's home shard is a hash of its spatial region key
//! (dataset + coarse grid cell of the region center). Placement is a
//! function of *where the query looks*, not what it computes, so
//! identical specs always share a home shard, and so do queries whose
//! centres fall in the same grid cell. Overlapping queries whose centres
//! fall in different cells land apart and get no reuse edge (ROADMAP
//! item 14 measures the cut). The region key ignores the processing op,
//! so degrading a query (`Average` → `Subsample`) never changes its home
//! shard.
//!
//! With one worker there is exactly one shard, placement is the constant
//! function, and every dequeue is from it — the sharded engine collapses
//! to the pre-shard engine, which is what keeps 1-worker golden traces
//! bit-for-bit identical.

use crate::spatial::SpatialSpec;

/// Side, in base-resolution pixels, of the coarse placement grid cell.
///
/// Coarser than the Data Store's lookup index cell (default 512 would
/// also work, but placement wants *stability* under small pans more
/// than discrimination): two interactive queries panning within the
/// same 256px neighborhood keep the same home shard, so their reuse
/// edge is visible to the scheduler.
const PLACEMENT_CELL: u32 = 256;

/// `splitmix64` finalizer: a full-avalanche 64-bit mixer, so adjacent
/// grid cells map to unrelated shards.
#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Home shard of a query: hash of `(dataset, coarse cell of the region
/// center)` modulo `num_shards`.
///
/// Deterministic, ignores the processing op (degradation-stable), and
/// returns 0 for every spec when `num_shards <= 1`.
pub fn shard_of_spec<S: SpatialSpec>(spec: &S, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    let (dataset, region) = spec.region_key();
    let cx = (region.x + region.w / 2) / PLACEMENT_CELL;
    let cy = (region.y + region.h / 2) / PLACEMENT_CELL;
    let h = mix(dataset
        .raw()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((cx as u64) << 32) | cy as u64));
    (h % num_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::ids::DatasetId;
    use crate::spec::QuerySpec;

    /// Minimal spatial spec for placement tests: a dataset + window, with
    /// an `op` field the region key must ignore.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct TestSpec {
        dataset: DatasetId,
        window: Rect,
        op: u8,
    }

    impl QuerySpec for TestSpec {
        fn cmp(&self, other: &Self) -> bool {
            self == other
        }
        fn overlap(&self, other: &Self) -> f64 {
            if self.dataset == other.dataset {
                self.window.intersection_area(&other.window) as f64
                    / self.window.area().max(1) as f64
            } else {
                0.0
            }
        }
        fn qoutsize(&self) -> u64 {
            self.window.area()
        }
        fn qinputsize(&self) -> u64 {
            self.window.area()
        }
    }

    impl SpatialSpec for TestSpec {
        fn region_key(&self) -> (DatasetId, Rect) {
            (self.dataset, self.window)
        }
    }

    fn spec(dataset: u64, x: u32, y: u32, side: u32, op: u8) -> TestSpec {
        TestSpec {
            dataset: DatasetId(dataset),
            window: Rect::new(x, y, side, side),
            op,
        }
    }

    #[test]
    fn single_shard_is_constant() {
        for d in 0..4 {
            for x in (0..4096).step_by(517) {
                assert_eq!(shard_of_spec(&spec(d, x, x, 64, 0), 1), 0);
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for n in [2usize, 3, 4, 8] {
            for d in 0..3 {
                for x in (0..8192).step_by(311) {
                    let s = spec(d, x, x / 2, 128, 0);
                    let k = shard_of_spec(&s, n);
                    assert!(k < n);
                    assert_eq!(k, shard_of_spec(&s, n), "placement must be pure");
                }
            }
        }
    }

    #[test]
    fn placement_ignores_op() {
        // Degradation changes the op but not the region key, so the home
        // shard must not move.
        for x in (0..4096).step_by(97) {
            let a = spec(1, x, 2 * x, 256, 0);
            let b = TestSpec { op: 1, ..a };
            assert_eq!(shard_of_spec(&a, 8), shard_of_spec(&b, 8));
        }
    }

    #[test]
    fn nearby_queries_share_a_shard() {
        // Small pans within one placement cell keep the home shard, which
        // is what keeps reuse edges intra-shard for interactive streams.
        let base = spec(2, 1024, 1024, 64, 0);
        let panned = spec(2, 1040, 1010, 64, 0);
        assert_eq!(shard_of_spec(&base, 8), shard_of_spec(&panned, 8));
    }

    #[test]
    fn placement_spreads_across_shards() {
        // 16 clients over distinct far-apart regions should not collapse
        // onto one shard.
        let n = 8;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..16u32 {
            seen.insert(shard_of_spec(
                &spec(i as u64 % 3, i * 2048, i * 1024, 64, 0),
                n,
            ));
        }
        assert!(seen.len() >= 4, "placement too clumped: {seen:?}");
    }
}
