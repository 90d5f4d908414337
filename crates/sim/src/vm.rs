//! The Virtual Microscope's [`SimApplication`] adapter.

use crate::app::{ReusePlan, SimApplication};
use vmqs_core::geom::subtract_all;
use vmqs_core::Rect;
use vmqs_microscope::{VmCostModel, VmOp, VmQuery, BYTES_PER_PIXEL, PAGE_SIZE};
use vmqs_pagespace::PageKey;

/// Virtual Microscope simulation adapter: 2-D greedy coverage from cached
/// windows, chunk-grid page mapping, and the calibrated CPU cost model.
#[derive(Clone, Copy, Debug)]
pub struct VmSimApp {
    /// CPU cost rates (see [`VmCostModel::calibrated`]).
    pub cost: VmCostModel,
}

impl VmSimApp {
    /// Creates the adapter from a cost model.
    pub fn new(cost: VmCostModel) -> Self {
        VmSimApp { cost }
    }
}

impl SimApplication for VmSimApp {
    type Spec = VmQuery;

    fn plan(&self, target: &VmQuery, cached: &[VmQuery]) -> ReusePlan {
        // Greedy projection, best candidate first (the caller passes
        // Data Store matches already ordered by reusable bytes).
        let mut covered: Vec<Rect> = Vec::new();
        let mut reused_px: u64 = 0;
        let z2 = target.zoom as u64 * target.zoom as u64;
        for src in cached {
            let cov = match src.aligned_coverage(target) {
                Some(c) => c,
                None => continue,
            };
            for frag in subtract_all(&cov, &covered) {
                reused_px += frag.area() / z2;
                covered.push(frag);
            }
        }

        let mut pages = Vec::new();
        let (mut input_bytes, mut subqueries) = (0u64, 0u64);
        for sub in target.subqueries_for_remainder(&covered) {
            subqueries += 1;
            let chunks = sub.slide.chunks_intersecting(&sub.region);
            input_bytes += chunks.len() as u64 * PAGE_SIZE as u64;
            pages.extend(chunks.into_iter().map(|i| PageKey::new(sub.slide.id, i)));
        }

        let (w, h) = target.output_dims();
        let total_px = w as u64 * h as u64;
        ReusePlan {
            covered_fraction: if total_px == 0 {
                0.0
            } else {
                reused_px as f64 / total_px as f64
            },
            reused_bytes: reused_px * BYTES_PER_PIXEL as u64,
            pages,
            input_bytes,
            subqueries,
        }
    }

    fn compute_seconds(&self, spec: &VmQuery, input_bytes: u64) -> f64 {
        self.cost.compute_time(spec.op, input_bytes)
    }

    fn project_seconds(&self, reused_bytes: u64) -> f64 {
        self.cost.project_time(reused_bytes)
    }

    fn planning_seconds(&self) -> f64 {
        self.cost.planning_overhead
    }

    fn degrade(&self, spec: &VmQuery) -> Option<VmQuery> {
        // Same quality ladder as the threaded engine's `VmExecutor`:
        // averaging falls back to subsampling (~18x cheaper CPU per the
        // calibrated model); subsampling is already the floor.
        match spec.op {
            VmOp::Average => Some(VmQuery {
                op: VmOp::Subsample,
                ..*spec
            }),
            VmOp::Subsample => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, QuerySpec};
    use vmqs_microscope::{SlideDataset, VmOp};
    use vmqs_storage::DiskModel;

    fn app() -> VmSimApp {
        VmSimApp::new(VmCostModel::calibrated(&DiskModel::circa_2002()))
    }

    fn slide() -> SlideDataset {
        SlideDataset::paper_scale(DatasetId(0))
    }

    #[test]
    fn plan_without_cache_scans_all_chunks() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 2048, 2048), 2, VmOp::Subsample);
        let plan = app().plan(&q, &[]);
        assert_eq!(plan.covered_fraction, 0.0);
        assert_eq!(plan.reused_bytes, 0);
        assert_eq!(plan.input_bytes, q.qinputsize());
        assert_eq!(plan.pages.len() as u64, q.qinputsize() / PAGE_SIZE as u64);
    }

    #[test]
    fn plan_with_full_cover_needs_no_pages() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 2048, 2048), 4, VmOp::Subsample);
        let cached = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 2, VmOp::Subsample);
        let plan = app().plan(&q, &[cached]);
        assert!((plan.covered_fraction - 1.0).abs() < 1e-9);
        assert!(plan.pages.is_empty());
        assert_eq!(plan.input_bytes, 0);
        assert_eq!(plan.reused_bytes, q.qoutsize());
    }

    #[test]
    fn plan_partial_cover_reads_remainder_only() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 4, VmOp::Subsample);
        let cached = VmQuery::new(slide(), Rect::new(0, 0, 2048, 4096), 4, VmOp::Subsample);
        let plan = app().plan(&q, &[cached]);
        assert!((plan.covered_fraction - 0.5).abs() < 0.01);
        assert!(plan.input_bytes < q.qinputsize());
        assert!(!plan.pages.is_empty());
    }

    #[test]
    fn overlapping_candidates_not_double_counted() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 4, VmOp::Subsample);
        let c1 = VmQuery::new(slide(), Rect::new(0, 0, 4096, 2048), 4, VmOp::Subsample);
        let c2 = VmQuery::new(slide(), Rect::new(0, 0, 4096, 3072), 4, VmOp::Subsample);
        let plan = app().plan(&q, &[c2, c1]);
        assert!(
            plan.covered_fraction <= 0.76,
            "covered {}",
            plan.covered_fraction
        );
    }

    #[test]
    fn cost_rates_differ_by_op() {
        let a = app();
        let sub = VmQuery::new(slide(), Rect::new(0, 0, 1024, 1024), 1, VmOp::Subsample);
        let avg = VmQuery::new(slide(), Rect::new(0, 0, 1024, 1024), 1, VmOp::Average);
        assert!(a.compute_seconds(&avg, 1 << 20) > 10.0 * a.compute_seconds(&sub, 1 << 20));
        assert!(a.project_seconds(1 << 20) < a.compute_seconds(&sub, 1 << 20));
        assert!(a.planning_seconds() > 0.0);
    }
}
