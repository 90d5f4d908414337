//! Reuse planning, written once for every application and both engines.
//!
//! The paper's middleware (§2) answers a query from cached results where
//! it can: it projects each usable cached result onto the query's output
//! and spawns sub-queries for the part they leave uncovered. The
//! application supplies the predicate facts ([`Windowed`]); [`Plan::new`]
//! is the greedy coverage over them. The threaded server runs a plan
//! against real bytes and pages; the simulator costs the same plan in
//! virtual time.

use crate::geom::{subtract_all, Rect};
use crate::ids::DatasetId;
use crate::spatial::SpatialSpec;

/// A predicate whose answer is an image of its window
/// ([`SpatialSpec::region_key`]) sampled every [`scale`](Windowed::scale)
/// base pixels on each axis, and which can be computed from scratch over
/// any scale-aligned sub-window.
pub trait Windowed: SpatialSpec + Copy {
    /// Base pixels per output pixel on each axis (the microscope's zoom,
    /// the volume's level of detail). At least 1.
    fn scale(&self) -> u32;

    /// True when a cached result for `self` can contribute to `other`.
    fn can_project_to(&self, other: &Self) -> bool;

    /// The same predicate over `window`, a scale-aligned sub-window of
    /// this one.
    fn with_window(&self, window: Rect) -> Self;

    /// Indices of the storage pages, within this predicate's dataset, that
    /// computing it from scratch scans, in scan order.
    fn pages(&self) -> Vec<u64>;

    /// Output image dimensions `(width, height)` in pixels.
    fn output_dims(&self) -> (u32, u32) {
        let (window, s) = (self.region_key().1, self.scale());
        (window.w / s, window.h / s)
    }

    /// The portion of `target`'s window that a cached `self` result covers,
    /// snapped inward to `target`'s scale grid so it corresponds to whole
    /// output pixels. `None` when incompatible or empty after snapping.
    fn aligned_coverage(&self, target: &Self) -> Option<Rect> {
        if !self.can_project_to(target) {
            return None;
        }
        let inter = self.region_key().1.intersect(&target.region_key().1)?;
        let s = target.scale();
        let x0 = inter.x.div_ceil(s) * s;
        let y0 = inter.y.div_ceil(s) * s;
        let x1 = inter.x1() / s * s;
        let y1 = inter.y1() / s * s;
        (x0 < x1 && y0 < y1).then(|| Rect::from_edges(x0, y0, x1, y1))
    }

    /// Sub-queries for the remainder of this query's window after the
    /// scale-aligned `covered` pieces are answered from cache (paper §2:
    /// "sub-queries are created to compute the results for the portions of
    /// the query that have not been computed from cached results").
    fn subqueries_for_remainder(&self, covered: &[Rect]) -> Vec<Self> {
        let s = self.scale();
        subtract_all(&self.region_key().1, covered)
            .into_iter()
            .filter(|r| r.w >= s && r.h >= s)
            .map(|r| self.with_window(r))
            .collect()
    }
}

/// How one query is answered: which cached results to project, and which
/// sub-queries compute the rest.
#[derive(Clone, Debug)]
pub struct Plan<S> {
    /// Indices into the cached results passed to [`Plan::new`] of those
    /// that cover something no earlier one did, in projection order.
    pub projected: Vec<usize>,
    /// Output bytes obtained by projection from cache.
    pub reused_bytes: u64,
    /// Fraction of the output answered from cache, in `[0, 1]`.
    pub covered_fraction: f64,
    /// Sub-queries the uncovered remainder decomposes into.
    pub subqueries: Vec<S>,
}

impl<S: Windowed> Plan<S> {
    /// Plans `target` against `cached` results, most-reusable first (as
    /// the Data Store lookup orders them): each one adds only what earlier
    /// ones left uncovered. Exact (`cmp`) hits are the engines' to answer
    /// before planning.
    pub fn new<'a>(target: &S, cached: impl IntoIterator<Item = &'a S>) -> Self
    where
        S: 'a,
    {
        let mut projected = Vec::new();
        let mut covered: Vec<Rect> = Vec::new();
        let mut reused_px = 0u64;
        let s2 = target.scale() as u64 * target.scale() as u64;
        for (i, src) in cached.into_iter().enumerate() {
            let Some(cov) = src.aligned_coverage(target) else {
                continue;
            };
            let fresh = subtract_all(&cov, &covered);
            if fresh.is_empty() {
                continue;
            }
            projected.push(i);
            for f in fresh {
                reused_px += f.area() / s2;
                covered.push(f);
            }
        }
        let (w, h) = target.output_dims();
        let total_px = w as u64 * h as u64;
        let px_bytes = target.qoutsize().checked_div(total_px).unwrap_or(0);
        Plan {
            projected,
            reused_bytes: reused_px * px_bytes,
            covered_fraction: if total_px == 0 {
                0.0
            } else {
                reused_px as f64 / total_px as f64
            },
            subqueries: target.subqueries_for_remainder(&covered),
        }
    }

    /// The storage pages the sub-queries scan, as `(dataset, page index)`:
    /// sub-query order, then each sub-query's scan order.
    pub fn pages(&self) -> impl Iterator<Item = (DatasetId, u64)> + '_ {
        self.subqueries.iter().flat_map(|sub| {
            let dataset = sub.region_key().0;
            sub.pages().into_iter().map(move |page| (dataset, page))
        })
    }
}
