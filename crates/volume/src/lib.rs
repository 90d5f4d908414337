//! # vmqs-volume
//!
//! The second data-analysis application the paper's conclusions call for
//! (§6, extension (2): "additional data analysis applications (e.g.,
//! scientific visualization of 3-dimensional datasets)").
//!
//! A 3-D scalar volume — 4 GiB per dataset, partitioned into cubic bricks
//! of one 64 KB page each — is visualized by **projection queries**:
//! maximum-intensity (MIP) or average-intensity projections of a
//! footprint × depth-slab sub-volume at a level of detail. The predicate
//! implements [`vmqs_core::QuerySpec`] with an Eq.-4-style overlap index,
//! so the *unchanged* scheduling graph, ranking strategies, Data Store,
//! and Page Space serve this application too. It also implements
//! [`vmqs_core::Windowed`], so both engines plan its queries with the
//! same [`vmqs_core::Plan`] as the microscope's; [`VolCostModel`] costs a
//! plan in the discrete-event simulator through
//! [`vmqs_sim::SimApplication`], and [`VolExecutor`] runs it on the *real*
//! multithreaded server through [`vmqs_server::AppExecutor`].
//!
//! Notable semantic contrast with the 2-D microscope: a cached projection
//! is only reusable for queries over the **same depth range** (a
//! projection over different depths answers a different integral), so the
//! reuse graph is sparser and depth-stepping clients periodically break
//! locality — a different stress pattern for the ranking strategies.

#![warn(missing_docs)]

mod app;
mod dataset;
mod executor;
mod geom3;
mod image;
pub mod kernels;
mod query;
mod workload;

pub use app::VolCostModel;
pub use dataset::{VolumeDataset, BRICK_SIDE, PAGE_SIZE};
pub use executor::VolExecutor;
pub use geom3::Box3;
pub use image::GrayImage;
pub use query::{VolOp, VolQuery};
pub use workload::{generate_volume, run_volume_sim, VolWorkloadConfig};
