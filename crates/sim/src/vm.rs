//! The Virtual Microscope's [`SimApplication`]: its calibrated cost model.

use crate::app::SimApplication;
use vmqs_microscope::{VmCostModel, VmQuery};

impl SimApplication for VmCostModel {
    type Spec = VmQuery;

    fn compute_seconds(&self, spec: &VmQuery, input_bytes: u64) -> f64 {
        self.compute_time(spec.op, input_bytes)
    }

    fn project_seconds(&self, reused_bytes: u64) -> f64 {
        self.project_time(reused_bytes)
    }

    fn planning_seconds(&self) -> f64 {
        self.planning_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, Plan, QuerySpec, Rect};
    use vmqs_microscope::{SlideDataset, VmOp, PAGE_SIZE};
    use vmqs_storage::DiskModel;

    fn app() -> VmCostModel {
        VmCostModel::calibrated(&DiskModel::circa_2002())
    }

    fn slide() -> SlideDataset {
        SlideDataset::paper_scale(DatasetId(0))
    }

    fn input_bytes(plan: &Plan<VmQuery>) -> u64 {
        plan.pages().count() as u64 * PAGE_SIZE as u64
    }

    #[test]
    fn plan_without_cache_scans_all_chunks() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 2048, 2048), 2, VmOp::Subsample);
        let plan = Plan::new(&q, &[]);
        assert_eq!(plan.covered_fraction, 0.0);
        assert_eq!(plan.reused_bytes, 0);
        assert_eq!(input_bytes(&plan), q.qinputsize());
        assert_eq!(
            plan.pages().count() as u64,
            q.qinputsize() / PAGE_SIZE as u64
        );
    }

    #[test]
    fn plan_with_full_cover_needs_no_pages() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 2048, 2048), 4, VmOp::Subsample);
        let cached = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 2, VmOp::Subsample);
        let plan = Plan::new(&q, &[cached]);
        assert!((plan.covered_fraction - 1.0).abs() < 1e-9);
        assert_eq!(plan.pages().count(), 0);
        assert_eq!(input_bytes(&plan), 0);
        assert_eq!(plan.reused_bytes, q.qoutsize());
    }

    #[test]
    fn plan_partial_cover_reads_remainder_only() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 4, VmOp::Subsample);
        let cached = VmQuery::new(slide(), Rect::new(0, 0, 2048, 4096), 4, VmOp::Subsample);
        let plan = Plan::new(&q, &[cached]);
        assert!((plan.covered_fraction - 0.5).abs() < 0.01);
        assert!(input_bytes(&plan) < q.qinputsize());
        assert!(plan.pages().count() > 0);
    }

    #[test]
    fn overlapping_candidates_not_double_counted() {
        let q = VmQuery::new(slide(), Rect::new(0, 0, 4096, 4096), 4, VmOp::Subsample);
        let c1 = VmQuery::new(slide(), Rect::new(0, 0, 4096, 2048), 4, VmOp::Subsample);
        let c2 = VmQuery::new(slide(), Rect::new(0, 0, 4096, 3072), 4, VmOp::Subsample);
        let plan = Plan::new(&q, &[c2, c1]);
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
