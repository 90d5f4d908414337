//! Real threaded execution of volume queries: the [`AppExecutor`]
//! implementation that lets the §6 volume application run on the *actual*
//! multithreaded query server (`vmqs-server`), not just the simulator.

use crate::image::GrayImage;
use crate::kernels::{compute_from_bricks, project};
use crate::query::VolQuery;
use std::collections::HashMap;
use std::sync::Arc;
use vmqs_core::{Plan, Windowed};
use vmqs_server::{AppExecutor, AppOutcome, PageSpaceSession};

/// Volume application executor for [`vmqs_server::QueryServer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VolExecutor;

impl AppExecutor for VolExecutor {
    type Spec = VolQuery;

    fn execute(
        &self,
        spec: &VolQuery,
        sources: &[(VolQuery, Arc<[u8]>)],
        ps: &PageSpaceSession<'_>,
    ) -> std::io::Result<AppOutcome> {
        // Project cached projections (exact for both operators).
        let plan = Plan::new(spec, sources.iter().map(|(src, _)| src));
        let (w, h) = spec.output_dims();
        let mut out = GrayImage::new(w, h);
        for &i in &plan.projected {
            let (src_spec, bytes) = &sources[i];
            project(&mut out, spec, src_spec, bytes);
        }

        // Compute uncovered footprint remainders from raw bricks.
        let mut pages_requested = 0u64;
        for sub in &plan.subqueries {
            let bricks = sub.pages();
            pages_requested += bricks.len() as u64;
            let fetched = ps.fetch(sub.volume.id, &bricks)?;
            let pages: HashMap<u64, _> = bricks.iter().copied().zip(fetched).collect();
            let img = compute_from_bricks(sub, |idx| Arc::clone(&pages[&idx]));
            let ox = (sub.footprint.x - spec.footprint.x) / spec.lod;
            let oy = (sub.footprint.y - spec.footprint.y) / spec.lod;
            let (sw, sh) = sub.output_dims();
            out.blit(ox, oy, &img, 0, 0, sw, sh);
        }
        Ok(AppOutcome::of_plan(&plan, out.data, pages_requested))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::VolumeDataset;
    use crate::kernels::reference_render;
    use crate::query::VolOp;
    use vmqs_core::{DatasetId, Rect};
    use vmqs_server::{AnswerPath, QueryServer, ServerConfig};
    use vmqs_storage::SyntheticSource;

    fn vol() -> VolumeDataset {
        VolumeDataset::new(DatasetId(4), 240, 240, 120)
    }

    fn server() -> QueryServer<VolExecutor> {
        QueryServer::with_app(
            ServerConfig::small().with_threads(2),
            VolExecutor,
            Arc::new(SyntheticSource::new()),
        )
    }

    fn q(x: u32, y: u32, side: u32, z0: u32, z1: u32, lod: u32, op: VolOp) -> VolQuery {
        VolQuery::new(vol(), Rect::new(x, y, side, side), z0, z1, lod, op)
    }

    #[test]
    fn volume_queries_run_on_real_threads_and_match_reference() {
        let s = server();
        for op in [VolOp::Mip, VolOp::AvgProj] {
            let spec = q(10, 10, 120, 20, 80, 2, op);
            let res = s.submit(spec).wait().unwrap();
            assert_eq!(res.width, 60);
            assert_eq!(*res.image, reference_render(&spec).data, "op {op:?}");
            assert_eq!(res.record.path, AnswerPath::FullCompute);
        }
        s.shutdown();
    }

    #[test]
    fn exact_and_partial_reuse_on_real_server() {
        let s = server();
        let base = q(0, 0, 160, 0, 60, 2, VolOp::Mip);
        s.submit(base).wait().unwrap();
        // Identical repeat: exact hit.
        let repeat = s.submit(base).wait().unwrap();
        assert_eq!(repeat.record.path, AnswerPath::ExactHit);
        // Overlapping footprint, same depth: partial reuse, exact pixels.
        let pan = q(80, 0, 160, 0, 60, 2, VolOp::Mip);
        let res = s.submit(pan).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::PartialReuse);
        assert!(res.record.covered_fraction > 0.3);
        assert_eq!(*res.image, reference_render(&pan).data);
        // Different depth range: no reuse possible.
        let deeper = q(0, 0, 160, 0, 100, 2, VolOp::Mip);
        let res2 = s.submit(deeper).wait().unwrap();
        assert_eq!(res2.record.path, AnswerPath::FullCompute);
        assert_eq!(*res2.image, reference_render(&deeper).data);
        s.shutdown();
    }

    #[test]
    fn lod_projection_reuse_on_real_server_is_exact() {
        let s = server();
        let fine = q(0, 0, 160, 0, 60, 1, VolOp::AvgProj);
        s.submit(fine).wait().unwrap();
        let coarse = q(0, 0, 160, 0, 60, 4, VolOp::AvgProj);
        let res = s.submit(coarse).wait().unwrap();
        assert_eq!(res.record.path, AnswerPath::PartialReuse);
        assert_eq!(res.record.covered_fraction, 1.0);
        assert_eq!(res.record.pages_requested, 0);
        assert_eq!(*res.image, reference_render(&coarse).data);
        s.shutdown();
    }

    #[test]
    fn concurrent_volume_batch_all_correct() {
        let s = server();
        let specs: Vec<VolQuery> = (0..8)
            .map(|i| {
                q(
                    (i % 4) * 40,
                    (i / 4) * 60,
                    80,
                    0,
                    40 + (i % 2) * 20,
                    2,
                    VolOp::Mip,
                )
            })
            .collect();
        let handles = s.submit_batch(specs.clone());
        for (h, spec) in handles.into_iter().zip(specs) {
            let res = h.wait().unwrap();
            assert_eq!(*res.image, reference_render(&spec).data, "{spec:?}");
        }
        s.shutdown();
    }
}
