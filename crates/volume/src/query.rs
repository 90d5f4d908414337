//! Volume visualization query predicates.
//!
//! A query renders a 2-D projection of a sub-volume: a rectangular X/Y
//! footprint, a depth range along Z, and a level of detail (every-Nth
//! sampling on X/Y). Two projection operators:
//!
//! * **MIP** (maximum intensity projection) — the brightest voxel along
//!   each ray; the standard first-look rendering in medical/scientific
//!   visualization. Maxima compose, so LOD projection from cached results
//!   is *exact*.
//! * **AvgProj** — mean intensity along each ray (an X-ray-like view).
//!
//! Reuse semantics: a cached projection can contribute to a query with the
//! same operator and the *same depth range* whose LOD is a multiple of the
//! cached one, over the intersection of their footprints — a projection
//! over a different depth range answers a different integral and is not
//! reusable (unlike the 2-D microscope, where any sub-window is).

use crate::dataset::VolumeDataset;
use crate::geom3::Box3;
use vmqs_core::{QuerySpec, Rect, Windowed};

/// Projection operator along the Z axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VolOp {
    /// Maximum intensity projection.
    Mip,
    /// Average intensity projection.
    AvgProj,
}

impl VolOp {
    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            VolOp::Mip => "mip",
            VolOp::AvgProj => "avgproj",
        }
    }
}

/// A volume projection query predicate.
///
/// Construction clips the footprint to the volume, snaps it to LOD
/// alignment (so cached projections at finer LODs project exactly), and
/// clamps the depth range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VolQuery {
    /// The volume being visualized.
    pub volume: VolumeDataset,
    /// X/Y footprint at base resolution, LOD-aligned.
    pub footprint: Rect,
    /// First depth slice (inclusive).
    pub z0: u32,
    /// Last depth slice (exclusive).
    pub z1: u32,
    /// Level of detail: sample every `lod`-th voxel on X and Y.
    pub lod: u32,
    /// Projection operator.
    pub op: VolOp,
}

impl VolQuery {
    /// Creates a query. Panics when the clipped, aligned footprint or the
    /// depth range is empty, or `lod == 0`.
    pub fn new(
        volume: VolumeDataset,
        footprint: Rect,
        z0: u32,
        z1: u32,
        lod: u32,
        op: VolOp,
    ) -> Self {
        assert!(lod >= 1, "lod must be >= 1");
        let clipped = footprint
            .intersect(&Rect::new(0, 0, volume.width, volume.height))
            .expect("footprint outside volume");
        let x = clipped.x - clipped.x % lod;
        let y = clipped.y - clipped.y % lod;
        let w = (clipped.x1() - x) / lod * lod;
        let h = (clipped.y1() - y) / lod * lod;
        assert!(w > 0 && h > 0, "footprint empty after LOD alignment");
        let z1c = z1.min(volume.depth);
        assert!(z0 < z1c, "empty depth range");
        VolQuery {
            volume,
            footprint: Rect::new(x, y, w, h),
            z0,
            z1: z1c,
            lod,
            op,
        }
    }

    /// The 3-D input box scanned when computing from raw bricks.
    pub fn input_box(&self) -> Box3 {
        Box3::from_footprint(self.footprint, self.z0, self.z1)
    }
}

impl vmqs_core::SpatialSpec for VolQuery {
    fn region_key(&self) -> (vmqs_core::DatasetId, Rect) {
        (self.volume.id, self.footprint)
    }
}

impl Windowed for VolQuery {
    fn scale(&self) -> u32 {
        self.lod
    }

    /// Same volume, operator and depth range, and `other`'s LOD a multiple
    /// of `self`'s.
    fn can_project_to(&self, other: &VolQuery) -> bool {
        self.volume.id == other.volume.id
            && self.op == other.op
            && self.z0 == other.z0
            && self.z1 == other.z1
            && other.lod.is_multiple_of(self.lod)
    }

    fn with_window(&self, window: Rect) -> VolQuery {
        VolQuery::new(self.volume, window, self.z0, self.z1, self.lod, self.op)
    }

    fn pages(&self) -> Vec<u64> {
        self.volume.bricks_intersecting(&self.input_box())
    }
}

impl QuerySpec for VolQuery {
    fn cmp(&self, other: &Self) -> bool {
        self.volume.id == other.volume.id
            && self.op == other.op
            && self.lod == other.lod
            && self.footprint == other.footprint
            && self.z0 == other.z0
            && self.z1 == other.z1
    }

    /// Eq. 4 transposed to the volume application: footprint area ratio
    /// times LOD ratio, zero unless operator and depth range match.
    fn overlap(&self, other: &Self) -> f64 {
        if !self.can_project_to(other) {
            return 0.0;
        }
        let inter = self.footprint.intersection_area(&other.footprint);
        if inter == 0 {
            return 0.0;
        }
        (inter as f64 / other.footprint.area() as f64) * (self.lod as f64 / other.lod as f64)
    }

    fn qoutsize(&self) -> u64 {
        let (w, h) = self.output_dims();
        w as u64 * h as u64 // one byte per output pixel
    }

    fn qinputsize(&self) -> u64 {
        self.volume.input_bytes(&self.input_box())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::DatasetId;

    fn vol() -> VolumeDataset {
        VolumeDataset::new(DatasetId(0), 400, 400, 200)
    }

    fn q(x: u32, y: u32, side: u32, z0: u32, z1: u32, lod: u32, op: VolOp) -> VolQuery {
        VolQuery::new(vol(), Rect::new(x, y, side, side), z0, z1, lod, op)
    }

    #[test]
    fn constructor_aligns_and_clamps() {
        let v = q(13, 7, 100, 0, 500, 4, VolOp::Mip);
        assert_eq!(v.footprint.x % 4, 0);
        assert_eq!(v.footprint.w % 4, 0);
        assert_eq!(v.z1, 200); // clamped to depth
        assert_eq!(v.input_box().d, 200);
    }

    #[test]
    #[should_panic(expected = "empty depth range")]
    fn empty_depth_rejected() {
        q(0, 0, 100, 300, 500, 1, VolOp::Mip);
    }

    #[test]
    fn cmp_requires_full_equality() {
        let a = q(0, 0, 100, 0, 100, 2, VolOp::Mip);
        assert!(a.cmp(&a.clone()));
        assert!(!a.cmp(&q(0, 0, 100, 0, 100, 2, VolOp::AvgProj)));
        assert!(!a.cmp(&q(0, 0, 100, 0, 120, 2, VolOp::Mip)));
        assert!(!a.cmp(&q(0, 0, 100, 0, 100, 4, VolOp::Mip)));
    }

    #[test]
    fn overlap_requires_same_depth_range() {
        let a = q(0, 0, 100, 0, 100, 2, VolOp::Mip);
        let same = q(50, 0, 100, 0, 100, 2, VolOp::Mip);
        assert!(a.overlap(&same) > 0.0);
        // Different depth: projections are over different integrals.
        let deeper = q(50, 0, 100, 0, 150, 2, VolOp::Mip);
        assert_eq!(a.overlap(&deeper), 0.0);
        let shifted = q(50, 0, 100, 50, 150, 2, VolOp::Mip);
        assert_eq!(a.overlap(&shifted), 0.0);
    }

    #[test]
    fn overlap_lod_directionality() {
        let fine = q(0, 0, 100, 0, 100, 2, VolOp::Mip);
        let coarse = q(0, 0, 100, 0, 100, 4, VolOp::Mip);
        assert!(fine.overlap(&coarse) > 0.0);
        assert_eq!(coarse.overlap(&fine), 0.0);
        assert!((fine.overlap(&fine) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qoutsize_and_qinputsize() {
        let v = q(0, 0, 80, 0, 80, 2, VolOp::Mip);
        assert_eq!(v.qoutsize(), 40 * 40);
        // 80x80x80 box over 40-bricks: 2x2x2 bricks.
        assert_eq!(v.qinputsize(), 8 * 65536);
    }

    #[test]
    fn aligned_coverage_and_subqueries() {
        let cached = q(0, 0, 200, 0, 100, 2, VolOp::Mip);
        let target = q(100, 0, 200, 0, 100, 4, VolOp::Mip);
        let cov = cached.aligned_coverage(&target).unwrap();
        assert_eq!(cov, Rect::new(100, 0, 100, 200));
        let subs = target.subqueries_for_remainder(&[cov]);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].footprint, Rect::new(200, 0, 100, 200));
        assert_eq!(subs[0].z0, 0);
        assert_eq!(subs[0].z1, 100);
    }
}
