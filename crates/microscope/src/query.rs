//! Virtual Microscope query predicates.
//!
//! A VM query asks for a rectangular window of a slide rendered at a given
//! magnification level with one of two processing functions (paper §3):
//! **subsampling** (every Nth pixel) or **pixel averaging** (mean over N×N
//! windows). The predicate meta-information — slide, window, zoom, function
//! — is everything the scheduler and Data Store need; it implements
//! [`QuerySpec`] with the paper's overlap index (Eq. 4).

use crate::dataset::{SlideDataset, BYTES_PER_PIXEL};
use vmqs_core::{QuerySpec, Rect, Windowed};

/// The processing function applied to retrieved chunks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VmOp {
    /// Return every Nth pixel of the window (I/O-intensive: CPU:I/O ≈
    /// 0.04–0.06 in the paper's measurements).
    Subsample,
    /// Average N×N input pixels per output pixel (balanced: CPU:I/O ≈ 1:1).
    Average,
}

impl VmOp {
    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            VmOp::Subsample => "subsample",
            VmOp::Average => "average",
        }
    }
}

/// A Virtual Microscope query predicate (the `M` of paper Eqs. 1–3).
///
/// Invariants established at construction: the window is clipped to the
/// slide, and its origin and size are aligned to the zoom factor. Alignment
/// guarantees that sample points (subsampling) and averaging blocks of any
/// query at zoom `k·z` coincide with those of a cached result at zoom `z`,
/// making the `project` transformation exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VmQuery {
    /// The slide being browsed.
    pub slide: SlideDataset,
    /// Query window at base magnification, zoom-aligned.
    pub region: Rect,
    /// Magnification denominator `N` (1 = full resolution).
    pub zoom: u32,
    /// Processing function.
    pub op: VmOp,
}

impl VmQuery {
    /// Creates a query, clipping `region` to the slide and snapping it to
    /// zoom alignment. Panics if the aligned window is empty or `zoom == 0`.
    pub fn new(slide: SlideDataset, region: Rect, zoom: u32, op: VmOp) -> Self {
        assert!(zoom >= 1, "zoom must be >= 1");
        let clipped = region
            .intersect(&slide.bounds())
            .expect("query window outside slide");
        let x = clipped.x - clipped.x % zoom;
        let y = clipped.y - clipped.y % zoom;
        let w = (clipped.x1() - x) / zoom * zoom;
        let h = (clipped.y1() - y) / zoom * zoom;
        assert!(w > 0 && h > 0, "query window empty after zoom alignment");
        VmQuery {
            slide,
            region: Rect::new(x, y, w, h),
            zoom,
            op,
        }
    }

    // Inherent forwarders to `Windowed`, callable without importing it.

    /// Output image dimensions `(width, height)` in pixels.
    pub fn output_dims(&self) -> (u32, u32) {
        Windowed::output_dims(self)
    }

    /// See [`Windowed::aligned_coverage`].
    pub fn aligned_coverage(&self, target: &VmQuery) -> Option<Rect> {
        Windowed::aligned_coverage(self, target)
    }

    /// See [`Windowed::subqueries_for_remainder`].
    pub fn subqueries_for_remainder(&self, covered: &[Rect]) -> Vec<VmQuery> {
        Windowed::subqueries_for_remainder(self, covered)
    }
}

impl vmqs_core::SpatialSpec for VmQuery {
    fn region_key(&self) -> (vmqs_core::DatasetId, Rect) {
        (self.slide.id, self.region)
    }
}

impl Windowed for VmQuery {
    fn scale(&self) -> u32 {
        self.zoom
    }

    /// Same slide, same processing function, and `other`'s zoom a multiple
    /// of `self`'s (the transformation is not invertible in the other
    /// direction — paper §4, Fig. 3).
    fn can_project_to(&self, other: &VmQuery) -> bool {
        self.slide.id == other.slide.id
            && self.op == other.op
            && other.zoom.is_multiple_of(self.zoom)
    }

    fn with_window(&self, window: Rect) -> VmQuery {
        VmQuery::new(self.slide, window, self.zoom, self.op)
    }

    fn pages(&self) -> Vec<u64> {
        self.slide.chunks_intersecting(&self.region)
    }
}

impl QuerySpec for VmQuery {
    fn cmp(&self, other: &Self) -> bool {
        self.slide.id == other.slide.id
            && self.op == other.op
            && self.zoom == other.zoom
            && self.region == other.region
    }

    /// The paper's Eq. 4: `overlap = (I_A / O_A) · (I_S / O_S)` where `I_A`
    /// is the intersection area, `O_A` the query-window area, `I_S` the
    /// cached result's zoom, and `O_S` the querying zoom; zero when `O_S`
    /// is not a multiple of `I_S` or the functions differ.
    fn overlap(&self, other: &Self) -> f64 {
        if !self.can_project_to(other) {
            return 0.0;
        }
        let inter = self.region.intersection_area(&other.region);
        if inter == 0 {
            return 0.0;
        }
        (inter as f64 / other.region.area() as f64) * (self.zoom as f64 / other.zoom as f64)
    }

    fn qoutsize(&self) -> u64 {
        let (w, h) = self.output_dims();
        w as u64 * h as u64 * BYTES_PER_PIXEL as u64
    }

    fn qinputsize(&self) -> u64 {
        self.slide.input_bytes(&self.region)
    }

    /// `Average` degrades to `Subsample` over the same window — the
    /// paper's explicit quality/cost pair (Subsample reads one pixel per
    /// output pixel; Average reads the full zoom² window).
    fn degrade(&self) -> Option<VmQuery> {
        (self.op == VmOp::Average).then_some(VmQuery {
            op: VmOp::Subsample,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::DatasetId;

    fn slide() -> SlideDataset {
        SlideDataset::new(DatasetId(0), 4096, 4096)
    }

    fn q(x: u32, y: u32, w: u32, h: u32, zoom: u32, op: VmOp) -> VmQuery {
        VmQuery::new(slide(), Rect::new(x, y, w, h), zoom, op)
    }

    #[test]
    fn constructor_aligns_window_to_zoom() {
        let v = q(13, 7, 100, 50, 4, VmOp::Subsample);
        assert_eq!(v.region, Rect::new(12, 4, 100, 52));
        assert_eq!(v.region.x % 4, 0);
        assert_eq!(v.region.w % 4, 0);
        assert_eq!(v.output_dims(), (25, 13));
    }

    #[test]
    fn constructor_clips_to_slide() {
        let v = q(4000, 4000, 500, 500, 1, VmOp::Average);
        assert_eq!(v.region, Rect::new(4000, 4000, 96, 96));
    }

    #[test]
    #[should_panic(expected = "outside slide")]
    fn fully_outside_window_panics() {
        q(5000, 5000, 10, 10, 1, VmOp::Subsample);
    }

    #[test]
    #[should_panic(expected = "zoom")]
    fn zero_zoom_rejected() {
        q(0, 0, 10, 10, 0, VmOp::Subsample);
    }

    #[test]
    fn qoutsize_is_rgb_output_bytes() {
        let v = q(0, 0, 1024, 1024, 1, VmOp::Subsample);
        assert_eq!(v.qoutsize(), 1024 * 1024 * 3);
        // Paper workload: 1024×1024 RGB at zoom 4 covers a 4096-wide window.
        let v4 = q(0, 0, 4096, 4096, 4, VmOp::Average);
        assert_eq!(v4.qoutsize(), 1024 * 1024 * 3); // 3 MB, as in §5
    }

    #[test]
    fn qinputsize_counts_intersecting_chunks() {
        let v = q(0, 0, 147, 147, 1, VmOp::Subsample);
        assert_eq!(v.qinputsize(), 65536);
        let v2 = q(0, 0, 294, 294, 1, VmOp::Subsample);
        assert_eq!(v2.qinputsize(), 4 * 65536);
    }

    #[test]
    fn cmp_requires_full_equality() {
        let a = q(0, 0, 100, 100, 2, VmOp::Subsample);
        assert!(a.cmp(&a.clone()));
        assert!(!a.cmp(&q(0, 0, 100, 100, 2, VmOp::Average)));
        assert!(!a.cmp(&q(0, 0, 100, 102, 2, VmOp::Subsample)));
        assert!(!a.cmp(&q(0, 0, 100, 100, 4, VmOp::Subsample)));
    }

    #[test]
    fn overlap_eq4_area_and_zoom_ratio() {
        // Cached: zoom 2 over [0,0,200,200]; query: zoom 4 over [100,100,200,200].
        let cached = q(0, 0, 200, 200, 2, VmOp::Subsample);
        let query = q(100, 100, 200, 200, 4, VmOp::Subsample);
        // I_A = 100*100, O_A = 200*200 → area ratio 0.25; I_S/O_S = 0.5.
        assert!((cached.overlap(&query) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn overlap_zero_for_incompatible() {
        let fine = q(0, 0, 100, 100, 2, VmOp::Subsample);
        let coarse = q(0, 0, 100, 100, 4, VmOp::Subsample);
        // Coarse cannot serve fine.
        assert_eq!(coarse.overlap(&fine), 0.0);
        // Different op.
        let avg = q(0, 0, 100, 100, 2, VmOp::Average);
        assert_eq!(fine.overlap(&avg), 0.0);
        // Non-multiple zoom (2 -> 3).
        let z3 = q(0, 0, 99, 99, 3, VmOp::Subsample);
        assert_eq!(fine.overlap(&z3), 0.0);
        // Disjoint windows.
        let far = q(2000, 2000, 100, 100, 2, VmOp::Subsample);
        assert_eq!(fine.overlap(&far), 0.0);
    }

    #[test]
    fn overlap_identical_is_one() {
        let a = q(10, 10, 500, 500, 2, VmOp::Average);
        assert!((a.overlap(&a.clone()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_zero_for_different_slides() {
        let a = q(0, 0, 100, 100, 1, VmOp::Subsample);
        let other = VmQuery::new(
            SlideDataset::new(DatasetId(7), 4096, 4096),
            Rect::new(0, 0, 100, 100),
            1,
            VmOp::Subsample,
        );
        assert_eq!(a.overlap(&other), 0.0);
    }

    #[test]
    fn aligned_coverage_snaps_to_target_grid() {
        let cached = q(0, 0, 200, 200, 1, VmOp::Subsample);
        let target = q(100, 100, 200, 200, 4, VmOp::Subsample);
        // Intersection is [100,100,100,100]; already 4-aligned.
        assert_eq!(
            cached.aligned_coverage(&target),
            Some(Rect::new(100, 100, 100, 100))
        );
        // A cached window whose edge is not 4-aligned gets snapped inward.
        let cached2 = q(0, 0, 150, 200, 2, VmOp::Subsample);
        let cov = cached2.aligned_coverage(&target).unwrap();
        assert_eq!(cov, Rect::from_edges(100, 100, 148, 200));
    }

    #[test]
    fn aligned_coverage_none_when_incompatible_or_tiny() {
        let cached = q(0, 0, 100, 100, 4, VmOp::Subsample);
        let fine = q(0, 0, 100, 100, 2, VmOp::Subsample);
        assert_eq!(cached.aligned_coverage(&fine), None);
        // Sliver thinner than one target pixel.
        let cached2 = q(0, 0, 100, 2, 1, VmOp::Subsample);
        let target = q(0, 0, 100, 100, 4, VmOp::Subsample);
        assert_eq!(cached2.aligned_coverage(&target), None);
    }

    #[test]
    fn subqueries_cover_exact_remainder() {
        let target = q(0, 0, 400, 400, 4, VmOp::Average);
        let covered = vec![Rect::new(0, 0, 400, 200)];
        let subs = target.subqueries_for_remainder(&covered);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].region, Rect::new(0, 200, 400, 200));
        assert_eq!(subs[0].zoom, 4);
        assert_eq!(subs[0].op, VmOp::Average);
    }

    #[test]
    fn subqueries_empty_when_fully_covered() {
        let target = q(0, 0, 400, 400, 4, VmOp::Average);
        assert!(target
            .subqueries_for_remainder(&[Rect::new(0, 0, 400, 400)])
            .is_empty());
    }

    #[test]
    fn reuse_bytes_consistent_with_overlap() {
        let cached = q(0, 0, 1024, 1024, 1, VmOp::Subsample);
        let query = q(512, 0, 1024, 1024, 1, VmOp::Subsample);
        let expected = (cached.overlap(&query) * cached.qoutsize() as f64).round() as u64;
        assert_eq!(cached.reuse_bytes(&query), expected);
        assert!(expected > 0);
    }
}
