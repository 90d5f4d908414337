//! The application adapter: what the simulator needs to know about a data
//! analysis application.
//!
//! The paper's middleware is application-neutral — an application supplies
//! predicate operators (`cmp`/`overlap`/`project`/`qoutsize`) and
//! processing functions. The simulator likewise executes *any* application
//! through this trait: given a target query and the cached results that
//! can contribute to it, the application plans how much is reusable and
//! which storage pages the remainder must scan; plus CPU cost rates for
//! its kernels. The Virtual Microscope adapter lives in
//! [`crate::VmSimApp`]; the 3-D volume visualization application of the
//! paper's §6 future work implements the same trait in `vmqs-volume`.

use vmqs_core::SpatialSpec;
use vmqs_pagespace::PageKey;

/// Result of planning one query's execution against the cache.
#[derive(Clone, Debug, Default)]
pub struct ReusePlan {
    /// Fraction of the output answered from cached results, in `[0, 1]`.
    pub covered_fraction: f64,
    /// Output bytes obtained by projection from cache.
    pub reused_bytes: u64,
    /// Storage pages the uncovered remainder must read.
    pub pages: Vec<PageKey>,
    /// Input bytes the processing kernel scans for the remainder.
    pub input_bytes: u64,
    /// Sub-queries the uncovered remainder decomposes into.
    pub subqueries: u64,
}

/// A data-analysis application, as seen by the discrete-event simulator.
pub trait SimApplication: Send + Sync + 'static {
    /// The application's predicate type.
    type Spec: SpatialSpec + Copy + std::fmt::Debug;

    /// Plans `target` against `cached` results (most-reusable first, as
    /// returned by the Data Store lookup): greedy coverage, remainder page
    /// set, and scan size. Exact (`cmp`) hits are handled by the engine
    /// before this is called.
    fn plan(&self, target: &Self::Spec, cached: &[Self::Spec]) -> ReusePlan;

    /// CPU seconds for the processing function of `spec` over
    /// `input_bytes` of chunk data.
    fn compute_seconds(&self, spec: &Self::Spec, input_bytes: u64) -> f64;

    /// CPU seconds to project `reused_bytes` of cached output.
    fn project_seconds(&self, reused_bytes: u64) -> f64;

    /// Fixed per-query planning overhead (index lookup, graph updates).
    fn planning_seconds(&self) -> f64 {
        1e-4
    }

    /// A strictly cheaper variant of `spec` that still answers the
    /// query window, or `None` when no cheaper plan exists. Used by the
    /// overload manager's graceful-degradation step; must match the
    /// threaded engine's `AppExecutor::degrade` for the same application
    /// so both engines make identical decisions.
    fn degrade(&self, _spec: &Self::Spec) -> Option<Self::Spec> {
        None
    }
}
