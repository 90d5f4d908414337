//! Projection kernels: MIP and average-intensity projection along Z, the
//! LOD `project` transformation, and the ground-truth reference renderer.
//!
//! Ray semantics: an output pixel at LOD `L` is the projection (max or
//! mean) of the single voxel column at its sample point `(footprint.x +
//! ox·L, footprint.y + oy·L)` over the query's depth range. LOD-alignment
//! of footprints guarantees a coarser query's sample columns are a subset
//! of any compatible finer cached result's, so the `project`
//! transformation — picking every `(L/l)`-th cached pixel — is *exact*
//! for both operators.

use crate::image::GrayImage;
use crate::query::{VolOp, VolQuery};
use vmqs_core::{Rect, Windowed};

/// Accumulator for per-brick projection: tracks, per output pixel, the
/// running max (MIP) or running sum and slice count (AvgProj) over the
/// depth slices seen so far.
#[derive(Debug)]
pub struct ProjAccumulator {
    width: u32,
    height: u32,
    op: VolOp,
    max: Vec<u8>,
    sums: Vec<u64>,
    counts: Vec<u32>,
}

impl ProjAccumulator {
    /// Creates a zeroed accumulator for `query`'s output.
    pub fn new(query: &VolQuery) -> Self {
        let (w, h) = query.output_dims();
        let n = w as usize * h as usize;
        ProjAccumulator {
            width: w,
            height: h,
            op: query.op,
            max: vec![0; n],
            sums: vec![0; n],
            counts: vec![0; n],
        }
    }

    /// Folds in the voxels of one brick: every sample column of `query`
    /// passing through `brick ∩ query.input_box()` contributes its voxels
    /// in that depth interval.
    pub fn accumulate_brick(&mut self, query: &VolQuery, brick: crate::geom3::Box3, data: &[u8]) {
        let inter = match query.input_box().intersect(&brick) {
            Some(i) => i,
            None => return,
        };
        let l = query.lod;
        let fp = query.footprint;
        // Output pixels whose sample column lies inside the intersection's
        // footprint (fp.x is LOD-aligned).
        let ox0 = (inter.x - fp.x).div_ceil(l);
        let ox1 = (inter.x1() - 1 - fp.x) / l;
        let oy0 = (inter.y - fp.y).div_ceil(l);
        let oy1 = (inter.y1() - 1 - fp.y) / l;
        for oy in oy0..=oy1 {
            let by = fp.y + oy * l;
            for ox in ox0..=ox1 {
                let bx = fp.x + ox * l;
                let pix = (oy * self.width + ox) as usize;
                for z in inter.z..inter.z1() {
                    let off = ((z - brick.z) as usize * brick.h as usize + (by - brick.y) as usize)
                        * brick.w as usize
                        + (bx - brick.x) as usize;
                    let v = data[off];
                    match self.op {
                        VolOp::Mip => self.max[pix] = self.max[pix].max(v),
                        VolOp::AvgProj => {
                            self.sums[pix] += v as u64;
                            self.counts[pix] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Produces the output image.
    pub fn finalize(self) -> GrayImage {
        let mut img = GrayImage::new(self.width, self.height);
        match self.op {
            VolOp::Mip => img.data.copy_from_slice(&self.max),
            VolOp::AvgProj => {
                for (pix, v) in img.data.iter_mut().enumerate() {
                    if self.counts[pix] > 0 {
                        *v = (self.sums[pix] / self.counts[pix] as u64) as u8;
                    }
                }
            }
        }
        img
    }
}

/// Computes a query's full output from its bricks, fetching each needed
/// brick's page via `fetch(brick_index)`.
pub fn compute_from_bricks<F>(query: &VolQuery, mut fetch: F) -> GrayImage
where
    F: FnMut(u64) -> std::sync::Arc<Vec<u8>>,
{
    let mut acc = ProjAccumulator::new(query);
    for idx in query.volume.bricks_intersecting(&query.input_box()) {
        let brick = query.volume.brick_box(idx);
        let page = fetch(idx);
        acc.accumulate_brick(query, brick, &page);
    }
    acc.finalize()
}

/// The LOD `project` transformation: fills the part of `target`'s output
/// derivable from `src_query`'s cached output `src`, row-major bytes sized
/// by `src_query.output_dims()`. Returns the covered footprint rectangle
/// (target-LOD-aligned), or `None`. Exact for both operators (sample
/// columns coincide).
pub fn project(
    out: &mut GrayImage,
    target: &VolQuery,
    src_query: &VolQuery,
    src: &[u8],
) -> Option<Rect> {
    let coverage = src_query.aligned_coverage(target)?;
    let tl = target.lod;
    let sl = src_query.lod;
    let (sw, sh) = src_query.output_dims();
    debug_assert_eq!(src.len(), sw as usize * sh as usize);
    for by in (coverage.y..coverage.y1()).step_by(tl as usize) {
        let oy = (by - target.footprint.y) / tl;
        let sy = (by - src_query.footprint.y) / sl;
        for bx in (coverage.x..coverage.x1()).step_by(tl as usize) {
            let ox = (bx - target.footprint.x) / tl;
            let sx = (bx - src_query.footprint.x) / sl;
            out.set(ox, oy, src[sy as usize * sw as usize + sx as usize]);
        }
    }
    Some(coverage)
}

/// Reference renderer: computes the projection directly from the
/// synthetic ground-truth voxel function.
pub fn reference_render(query: &VolQuery) -> GrayImage {
    let (w, h) = query.output_dims();
    let mut img = GrayImage::new(w, h);
    let fp = query.footprint;
    for oy in 0..h {
        let by = fp.y + oy * query.lod;
        for ox in 0..w {
            let bx = fp.x + ox * query.lod;
            let v = match query.op {
                VolOp::Mip => (query.z0..query.z1)
                    .map(|z| query.volume.synthetic_voxel(bx, by, z))
                    .max()
                    .unwrap_or(0),
                VolOp::AvgProj => {
                    let sum: u64 = (query.z0..query.z1)
                        .map(|z| query.volume.synthetic_voxel(bx, by, z) as u64)
                        .sum();
                    (sum / (query.z1 - query.z0) as u64) as u8
                }
            };
            img.set(ox, oy, v);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{VolumeDataset, PAGE_SIZE};
    use std::sync::Arc;
    use vmqs_core::DatasetId;
    use vmqs_storage::{DataSource, SyntheticSource};

    fn vol() -> VolumeDataset {
        VolumeDataset::new(DatasetId(2), 120, 120, 100)
    }

    fn fetch(q: &VolQuery) -> impl FnMut(u64) -> Arc<Vec<u8>> + '_ {
        let src = SyntheticSource::new();
        let id = q.volume.id;
        move |idx| Arc::new(src.read_page(id, idx, PAGE_SIZE).unwrap())
    }

    fn q(x: u32, y: u32, side: u32, z0: u32, z1: u32, lod: u32, op: VolOp) -> VolQuery {
        VolQuery::new(vol(), Rect::new(x, y, side, side), z0, z1, lod, op)
    }

    #[test]
    fn mip_matches_reference_single_brick() {
        let query = q(0, 0, 32, 0, 32, 2, VolOp::Mip);
        assert_eq!(
            compute_from_bricks(&query, fetch(&query)),
            reference_render(&query)
        );
    }

    #[test]
    fn mip_matches_reference_across_brick_boundaries() {
        // Straddles brick boundaries on all three axes.
        let query = q(30, 30, 24, 30, 60, 2, VolOp::Mip);
        assert_eq!(
            compute_from_bricks(&query, fetch(&query)),
            reference_render(&query)
        );
    }

    #[test]
    fn avgproj_matches_reference_across_brick_boundaries() {
        let query = q(30, 30, 24, 20, 70, 4, VolOp::AvgProj);
        assert_eq!(
            compute_from_bricks(&query, fetch(&query)),
            reference_render(&query)
        );
    }

    #[test]
    fn project_lod_change_is_exact_for_both_ops() {
        for op in [VolOp::Mip, VolOp::AvgProj] {
            let cached = q(0, 0, 80, 0, 50, 2, op);
            let cached_img = compute_from_bricks(&cached, fetch(&cached));
            let target = q(0, 0, 80, 0, 50, 8, op);
            let (w, h) = target.output_dims();
            let mut out = GrayImage::new(w, h);
            let cov = project(&mut out, &target, &cached, &cached_img.data).unwrap();
            assert_eq!(cov, target.footprint);
            assert_eq!(out, reference_render(&target), "op {op:?}");
        }
    }

    #[test]
    fn project_refuses_depth_mismatch() {
        let cached = q(0, 0, 80, 0, 50, 2, VolOp::Mip);
        let cached_img = compute_from_bricks(&cached, fetch(&cached));
        let target = q(0, 0, 80, 0, 60, 4, VolOp::Mip);
        let (w, h) = target.output_dims();
        let mut out = GrayImage::new(w, h);
        assert!(project(&mut out, &target, &cached, &cached_img.data).is_none());
    }

    #[test]
    fn project_plus_subqueries_reconstruct_full_output() {
        let cached = q(0, 0, 60, 10, 40, 2, VolOp::Mip);
        let cached_img = compute_from_bricks(&cached, fetch(&cached));
        let target = q(20, 0, 80, 10, 40, 2, VolOp::Mip);
        let (w, h) = target.output_dims();
        let mut out = GrayImage::new(w, h);
        let cov = project(&mut out, &target, &cached, &cached_img.data).unwrap();
        for sub in target.subqueries_for_remainder(&[cov]) {
            let img = compute_from_bricks(&sub, fetch(&sub));
            let ox = (sub.footprint.x - target.footprint.x) / target.lod;
            let oy = (sub.footprint.y - target.footprint.y) / target.lod;
            let (sw, sh) = sub.output_dims();
            out.blit(ox, oy, &img, 0, 0, sw, sh);
        }
        assert_eq!(out, reference_render(&target));
    }

    #[test]
    fn mip_dominates_avgproj_pixelwise() {
        // The max along a ray is >= the mean along it.
        let mip = q(0, 0, 40, 0, 40, 4, VolOp::Mip);
        let avg = q(0, 0, 40, 0, 40, 4, VolOp::AvgProj);
        let m = reference_render(&mip);
        let a = reference_render(&avg);
        for (x, y) in (0..10).flat_map(|y| (0..10).map(move |x| (x, y))) {
            assert!(m.get(x, y) >= a.get(x, y));
        }
    }
}
