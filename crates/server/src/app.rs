//! The application contract for the *threaded* engine: real execution of
//! one query given its cached reuse sources, with real I/O through the
//! shared Page Space Manager.
//!
//! The scheduling graph, Data Store bookkeeping, blocking/deadlock
//! avoidance, and thread-pool mechanics live in the engine; reuse planning
//! is [`vmqs_core::Plan`], shared with the simulator. What an application
//! developer must supply beyond its predicate — running a plan: kernels,
//! projection, assembly — lives behind [`AppExecutor`]. [`VmExecutor`] is
//! the Virtual Microscope implementation; the §6 volume application
//! implements the same trait in `vmqs-volume`.

use crate::pages::PageSpaceSession;
use std::sync::Arc;
use vmqs_core::{Plan, QuerySpec, Rect, Windowed};
use vmqs_microscope::kernels::{project, render_streamed};
use vmqs_microscope::{RgbImage, RgbView, SlideDataset, VmQuery};

/// The result of executing one query.
#[derive(Debug)]
pub struct AppOutcome {
    /// The answer's raw bytes (the application's image encoding).
    pub bytes: Vec<u8>,
    /// Output bytes obtained by projecting cached results.
    pub reused_bytes: u64,
    /// Fraction of the output answered from cache, in `[0, 1]`.
    pub covered_fraction: f64,
    /// Pages requested from the Page Space Manager.
    pub pages_requested: u64,
    /// Sub-queries spawned to compute the uncovered remainder.
    pub subqueries: u64,
}

impl AppOutcome {
    /// The outcome of running `plan`: its reuse facts, the answer's
    /// `bytes`, and the pages the kernels asked the Page Space for.
    pub fn of_plan<S>(plan: &Plan<S>, bytes: Vec<u8>, pages_requested: u64) -> Self {
        AppOutcome {
            bytes,
            reused_bytes: plan.reused_bytes,
            covered_fraction: plan.covered_fraction,
            pages_requested,
            subqueries: plan.subqueries.len() as u64,
        }
    }
}

/// A data-analysis application runnable on the threaded engine.
pub trait AppExecutor: Send + Sync + 'static {
    /// The application's predicate type. [`Windowed`] so the engine's
    /// Data Store can serve lookups through its grid index and the
    /// application can plan with [`Plan::new`].
    type Spec: Windowed + std::fmt::Debug;

    /// Output image dimensions for a predicate (for clients assembling
    /// the answer).
    fn output_dims(&self, spec: &Self::Spec) -> (u32, u32) {
        spec.output_dims()
    }

    /// Exact output byte length for a predicate.
    fn output_len(&self, spec: &Self::Spec) -> usize {
        spec.qoutsize() as usize
    }

    /// Computes the full answer for `spec`: plans it with [`Plan::new`]
    /// over `sources` (cached predicate + payload bytes, most-reusable
    /// first — exact `cmp` matches are handled by the engine before this
    /// is called), projects the plan's sources, then computes its
    /// sub-queries reading pages through `ps`.
    ///
    /// `ps` is a deadline-scoped Page Space view: reads fail with a
    /// timeout error once the query's deadline passes, so implementations
    /// need only propagate `Err` to cancel cooperatively. Long compute
    /// stages may additionally call [`PageSpaceSession::check_deadline`].
    fn execute(
        &self,
        spec: &Self::Spec,
        sources: &[(Self::Spec, Arc<[u8]>)],
        ps: &PageSpaceSession<'_>,
    ) -> std::io::Result<AppOutcome>;

    /// The cheaper predicate for `spec`, if it has one:
    /// [`QuerySpec::degrade`].
    fn degrade(&self, spec: &Self::Spec) -> Option<Self::Spec> {
        spec.degrade()
    }

    /// Serializes a predicate into the meta block of a tier-2 spill frame
    /// so [`decode_spec`](AppExecutor::decode_spec) can rebuild the Data
    /// Store entry after a crash (DESIGN.md §15). The default (empty)
    /// makes recovered frames unidentifiable: recovery deletes them
    /// instead of re-adopting, which is safe for applications that never
    /// opt into a codec.
    fn encode_spec(&self, _spec: &Self::Spec) -> Vec<u8> {
        Vec::new()
    }

    /// Rebuilds a predicate from a spill frame's meta block. `None` means
    /// the bytes are unrecognizable (foreign app, stale codec version):
    /// the recovery scan deletes the frame rather than adopting garbage.
    fn decode_spec(&self, _meta: &[u8]) -> Option<Self::Spec> {
        None
    }
}

/// The Virtual Microscope's executor: 2-D greedy projection plus
/// subsample/average kernels over chunk pages.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmExecutor;

impl AppExecutor for VmExecutor {
    type Spec = VmQuery;

    /// Fixed-width little-endian frame meta: dataset id, slide dims,
    /// window, zoom, op tag. 37 bytes; no varints so `decode_spec` can
    /// reject on length alone.
    fn encode_spec(&self, spec: &VmQuery) -> Vec<u8> {
        let mut out = Vec::with_capacity(37);
        out.extend_from_slice(&spec.slide.id.0.to_le_bytes());
        out.extend_from_slice(&spec.slide.width.to_le_bytes());
        out.extend_from_slice(&spec.slide.height.to_le_bytes());
        out.extend_from_slice(&spec.region.x.to_le_bytes());
        out.extend_from_slice(&spec.region.y.to_le_bytes());
        out.extend_from_slice(&spec.region.w.to_le_bytes());
        out.extend_from_slice(&spec.region.h.to_le_bytes());
        out.extend_from_slice(&spec.zoom.to_le_bytes());
        out.push(match spec.op {
            vmqs_microscope::VmOp::Subsample => 0,
            vmqs_microscope::VmOp::Average => 1,
        });
        out
    }

    fn decode_spec(&self, meta: &[u8]) -> Option<VmQuery> {
        if meta.len() != 37 {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(meta[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(meta[i..i + 4].try_into().unwrap());
        let (sw, sh) = (u32_at(8), u32_at(12));
        let region = Rect {
            x: u32_at(16),
            y: u32_at(20),
            w: u32_at(24),
            h: u32_at(28),
        };
        let zoom = u32_at(32);
        let op = match meta[36] {
            0 => vmqs_microscope::VmOp::Subsample,
            1 => vmqs_microscope::VmOp::Average,
            _ => return None,
        };
        // Re-validate the constructor's invariants instead of trusting
        // disk bytes: non-degenerate slide, zoomed + aligned + in-bounds
        // window. Anything off means a stale codec or corruption that
        // slipped past the CRC — refuse, and recovery deletes the frame.
        if sw == 0 || sh == 0 || zoom == 0 || region.w == 0 || region.h == 0 {
            return None;
        }
        let aligned = [region.x, region.y, region.w, region.h]
            .iter()
            .all(|v| v % zoom == 0);
        let in_bounds = region
            .x
            .checked_add(region.w)
            .is_some_and(|right| right <= sw)
            && region
                .y
                .checked_add(region.h)
                .is_some_and(|bottom| bottom <= sh);
        if !aligned || !in_bounds {
            return None;
        }
        Some(VmQuery {
            slide: SlideDataset::new(vmqs_core::DatasetId(u64_at(0)), sw, sh),
            region,
            zoom,
            op,
        })
    }

    fn execute(
        &self,
        spec: &VmQuery,
        sources: &[(VmQuery, Arc<[u8]>)],
        ps: &PageSpaceSession<'_>,
    ) -> std::io::Result<AppOutcome> {
        // Project partial matches (Eq. 3) in the plan's order.
        let plan = Plan::new(spec, sources.iter().map(|(src, _)| src));
        let (w, h) = spec.output_dims();
        let mut out = RgbImage::new(w, h);
        for &i in &plan.projected {
            let (src_spec, bytes) = &sources[i];
            let (sw, sh) = src_spec.output_dims();
            project(&mut out, spec, src_spec, RgbView::new(sw, sh, bytes));
        }

        // Sub-queries for the uncovered remainder, rendered from raw chunks
        // straight into their block of `out`, a chunk row at a time: each
        // row is one fetch (so overlapping requests merge) whose handles
        // feed the kernel whatever the Page Space evicts meanwhile.
        let mut pages_requested = 0u64;
        for sub in &plan.subqueries {
            let at = (
                (sub.region.x - spec.region.x) / spec.zoom,
                (sub.region.y - spec.region.y) / spec.zoom,
            );
            let fetch = |row: &[u64]| ps.fetch(sub.slide.id, row);
            pages_requested += render_streamed(&mut out, at, sub, fetch)?;
        }
        Ok(AppOutcome::of_plan(&plan, out.data, pages_requested))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::DatasetId;
    use vmqs_microscope::kernels::reference_render;
    use vmqs_microscope::{SlideDataset, VmOp, PAGE_SIZE};
    use vmqs_storage::SyntheticSource;

    use crate::pages::SharedPageSpace;

    fn ps() -> SharedPageSpace {
        SharedPageSpace::new(16 << 20, PAGE_SIZE, Arc::new(SyntheticSource::new()))
    }

    fn slide() -> SlideDataset {
        SlideDataset::new(DatasetId(0), 1000, 1000)
    }

    #[test]
    fn executes_from_scratch_to_reference() {
        let spec = VmQuery::new(slide(), Rect::new(10, 10, 256, 256), 2, VmOp::Average);
        let ps = ps();
        let out = VmExecutor.execute(&spec, &[], &ps.session(None)).unwrap();
        assert_eq!(out.bytes, reference_render(&spec).data);
        assert_eq!(out.covered_fraction, 0.0);
        assert!(out.pages_requested > 0);
        assert_eq!(VmExecutor.output_len(&spec), out.bytes.len());
        assert_eq!(VmExecutor.output_dims(&spec), (128, 128));
    }

    #[test]
    fn page_space_smaller_than_the_query_reads_each_page_once() {
        // Four pages of budget, one chunk row, against a 16-page footprint:
        // each row's fetch evicts the row before it, whose handles (every
        // chunk boundary cuts an averaging block) still feed the kernel, so
        // the source sees every page exactly once per execute.
        use crate::pages::tests::CountingSource;
        let src = Arc::new(CountingSource::default());
        let ps = SharedPageSpace::new(4 * PAGE_SIZE as u64, PAGE_SIZE, src.clone());
        let spec = VmQuery::new(slide(), Rect::new(100, 100, 480, 480), 4, VmOp::Average);
        let chunks = spec.slide.chunks_intersecting(&spec.region);
        assert_eq!(chunks.len(), 16);
        let out = VmExecutor.execute(&spec, &[], &ps.session(None)).unwrap();
        assert_eq!(out.bytes, reference_render(&spec).data);
        assert_eq!(out.pages_requested, 16);
        assert_eq!(src.pages_read(), chunks);
        // Again: the last row is still resident, but the scan evicts it
        // before reaching it (LRU), and the answer does not change.
        let out = VmExecutor.execute(&spec, &[], &ps.session(None)).unwrap();
        assert_eq!(out.bytes, reference_render(&spec).data);
        assert_eq!(src.reads(), 16 + 16);
    }

    #[test]
    fn partial_coverage_renders_remainders_in_place() {
        // A cached neighbour covers the middle of the window, leaving
        // sub-queries on both sides that land at non-zero offsets of `out`.
        let ps = ps();
        let session = ps.session(None);
        let cached = VmQuery::new(slide(), Rect::new(200, 0, 200, 600), 4, VmOp::Average);
        let cached_out = VmExecutor.execute(&cached, &[], &session).unwrap();
        let target = VmQuery::new(slide(), Rect::new(100, 100, 400, 400), 4, VmOp::Average);
        let out = VmExecutor
            .execute(&target, &[(cached, cached_out.bytes.into())], &session)
            .unwrap();
        assert_eq!(out.bytes, reference_render(&target).data);
        assert_eq!(out.subqueries, 2);
        assert_eq!(out.covered_fraction, 0.5);
    }

    #[test]
    fn executes_with_cached_source_to_reference() {
        let ps = ps();
        let session = ps.session(None);
        let cached = VmQuery::new(slide(), Rect::new(0, 0, 256, 512), 2, VmOp::Subsample);
        let cached_out = VmExecutor.execute(&cached, &[], &session).unwrap();
        let target = VmQuery::new(slide(), Rect::new(128, 0, 384, 512), 2, VmOp::Subsample);
        let out = VmExecutor
            .execute(&target, &[(cached, cached_out.bytes.into())], &session)
            .unwrap();
        assert_eq!(out.bytes, reference_render(&target).data);
        assert!(out.covered_fraction > 0.2);
        assert!(out.reused_bytes > 0);
    }

    #[test]
    fn spec_codec_roundtrips_and_rejects_garbage() {
        let spec = VmQuery::new(slide(), Rect::new(10, 10, 256, 256), 2, VmOp::Average);
        let meta = VmExecutor.encode_spec(&spec);
        assert_eq!(meta.len(), 37);
        assert_eq!(VmExecutor.decode_spec(&meta), Some(spec));

        // Wrong length, unknown op tag, and out-of-bounds windows are all
        // refused rather than panicking in the VmQuery constructor.
        assert_eq!(VmExecutor.decode_spec(&meta[..36]), None);
        let mut bad_op = meta.clone();
        bad_op[36] = 9;
        assert_eq!(VmExecutor.decode_spec(&bad_op), None);
        let mut oob = meta.clone();
        oob[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(VmExecutor.decode_spec(&oob), None);
        let mut misaligned = meta;
        misaligned[16..20].copy_from_slice(&11u32.to_le_bytes());
        assert_eq!(VmExecutor.decode_spec(&misaligned), None);
    }

    #[test]
    fn degrade_swaps_average_for_subsample_once() {
        let avg = VmQuery::new(slide(), Rect::new(10, 10, 256, 256), 4, VmOp::Average);
        let d = VmExecutor
            .degrade(&avg)
            .expect("average has a cheaper plan");
        assert_eq!(d.op, VmOp::Subsample);
        assert_eq!(
            (d.slide, d.region, d.zoom),
            (avg.slide, avg.region, avg.zoom)
        );
        assert!(
            VmExecutor.degrade(&d).is_none(),
            "subsample is already the cheapest plan"
        );
    }
}
