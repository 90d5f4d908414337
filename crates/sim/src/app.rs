//! The application adapter: what the simulator needs to know about a data
//! analysis application.
//!
//! The paper's middleware is application-neutral — an application supplies
//! predicate operators (`cmp`/`overlap`/`project`/`qoutsize`) and
//! processing functions. The predicate ([`Windowed`]) is all the engine
//! needs to plan a query with [`vmqs_core::Plan`]; this trait adds what
//! the plan costs in CPU time. The Virtual Microscope's cost model
//! ([`vmqs_microscope::VmCostModel`]) implements it in this crate; the
//! 3-D volume visualization application of the paper's §6 future work
//! implements it in `vmqs-volume`.

use vmqs_core::Windowed;

/// A data-analysis application, as seen by the discrete-event simulator:
/// the CPU cost of running a plan.
pub trait SimApplication: Send + Sync + 'static {
    /// The application's predicate type.
    type Spec: Windowed + std::fmt::Debug;

    /// CPU seconds for the processing function of `spec` over
    /// `input_bytes` of chunk data.
    fn compute_seconds(&self, spec: &Self::Spec, input_bytes: u64) -> f64;

    /// CPU seconds to project `reused_bytes` of cached output.
    fn project_seconds(&self, reused_bytes: u64) -> f64;

    /// Fixed per-query planning overhead (index lookup, graph updates).
    fn planning_seconds(&self) -> f64;
}
