//! The volume application's cost model, which is its [`SimApplication`]:
//! it plugs the §6 3-D visualization application into the same simulated
//! middleware the Virtual Microscope runs on.

use crate::query::{VolOp, VolQuery};
use vmqs_sim::SimApplication;
use vmqs_storage::DiskModel;

/// CPU cost rates for the projection kernels, in seconds per input byte.
///
/// There are no paper-reported ratios for this application (it is future
/// work in the paper); we parameterize MIP as I/O-leaning (a compare per
/// voxel) and average projection as balanced (accumulate + divide),
/// creating the same two contrasting regimes the VM evaluation used.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VolCostModel {
    /// CPU seconds per input byte for MIP.
    pub mip_per_byte: f64,
    /// CPU seconds per input byte for average projection.
    pub avgproj_per_byte: f64,
    /// CPU seconds per reused output byte for `project`.
    pub project_per_byte: f64,
    /// Fixed per-query planning overhead.
    pub planning_overhead: f64,
}

impl VolCostModel {
    /// Calibrates against a disk model (ratios relative to streaming I/O
    /// time, like the Virtual Microscope's `VmCostModel::calibrated`).
    pub fn calibrated(disk: &DiskModel) -> Self {
        let io = 1.0 / disk.bandwidth;
        VolCostModel {
            mip_per_byte: 0.15 * io,
            avgproj_per_byte: 1.0 * io,
            project_per_byte: 0.01 * io,
            planning_overhead: 1e-4,
        }
    }

    /// CPU seconds for `input_bytes` under `op`.
    pub fn compute_time(&self, op: VolOp, input_bytes: u64) -> f64 {
        let per = match op {
            VolOp::Mip => self.mip_per_byte,
            VolOp::AvgProj => self.avgproj_per_byte,
        };
        per * input_bytes as f64
    }
}

impl SimApplication for VolCostModel {
    type Spec = VolQuery;

    fn compute_seconds(&self, spec: &VolQuery, input_bytes: u64) -> f64 {
        self.compute_time(spec.op, input_bytes)
    }

    fn project_seconds(&self, reused_bytes: u64) -> f64 {
        self.project_per_byte * reused_bytes as f64
    }

    fn planning_seconds(&self) -> f64 {
        self.planning_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{VolumeDataset, PAGE_SIZE};
    use vmqs_core::{DatasetId, Plan, QuerySpec, Rect};

    fn app() -> VolCostModel {
        VolCostModel::calibrated(&DiskModel::circa_2002())
    }

    fn input_bytes(plan: &Plan<VolQuery>) -> u64 {
        plan.pages().count() as u64 * PAGE_SIZE as u64
    }

    fn vol() -> VolumeDataset {
        VolumeDataset::large(DatasetId(0))
    }

    fn q(x: u32, y: u32, side: u32, z0: u32, z1: u32, lod: u32, op: VolOp) -> VolQuery {
        VolQuery::new(vol(), Rect::new(x, y, side, side), z0, z1, lod, op)
    }

    #[test]
    fn plan_without_cache_scans_whole_box() {
        let t = q(0, 0, 512, 0, 256, 2, VolOp::Mip);
        let plan = Plan::new(&t, &[]);
        assert_eq!(plan.covered_fraction, 0.0);
        assert_eq!(input_bytes(&plan), t.qinputsize());
        assert!(plan.pages().count() > 0);
    }

    #[test]
    fn plan_full_cover_from_finer_lod() {
        let t = q(0, 0, 512, 0, 256, 4, VolOp::Mip);
        let cached = q(0, 0, 1024, 0, 256, 2, VolOp::Mip);
        let plan = Plan::new(&t, &[cached]);
        assert!((plan.covered_fraction - 1.0).abs() < 1e-9);
        assert_eq!(plan.pages().count(), 0);
        assert_eq!(plan.reused_bytes, t.qoutsize());
    }

    #[test]
    fn plan_ignores_depth_mismatched_candidates() {
        let t = q(0, 0, 512, 0, 256, 2, VolOp::Mip);
        let wrong_depth = q(0, 0, 1024, 0, 512, 2, VolOp::Mip);
        let plan = Plan::new(&t, &[wrong_depth]);
        assert_eq!(plan.covered_fraction, 0.0);
        assert_eq!(input_bytes(&plan), t.qinputsize());
    }

    #[test]
    fn cost_regimes_contrast() {
        let a = app();
        assert!(
            a.compute_time(VolOp::AvgProj, 1 << 20) > 3.0 * a.compute_time(VolOp::Mip, 1 << 20)
        );
    }
}
