//! # vmqs-server
//!
//! The real multithreaded query server engine (paper §2): a fixed-size
//! pool of query threads over the scheduling graph, the Data Store
//! Manager, and the Page Space Manager, executing actual Virtual
//! Microscope queries against actual page data.
//!
//! Use this engine to run the system for real — examples, correctness
//! tests, and laptop-scale workloads. The paper-scale *performance*
//! experiments (24 CPUs, 7.5 GB datasets, 2002 disks) are reproduced
//! deterministically by the sibling `vmqs-sim` crate, which drives the
//! same scheduling graph, data store, and page cache cores in virtual
//! time.

#![warn(missing_docs)]

mod app;
mod config;
mod engine;
mod error;
mod pages;
mod result;

pub use app::{AppExecutor, AppOutcome, VmExecutor};
pub use config::ServerConfig;
pub use engine::{QueryHandle, QueryServer};
pub use error::ServerError;
pub use pages::{PageSpaceSession, SharedPageSpace};
pub use result::{AnswerPath, QueryRecord, QueryResult, ServerSummary};
// The overload knobs live in vmqs-core (shared with the simulator);
// re-exported here so server users configure admission without a direct
// core dependency.
pub use vmqs_core::OverloadConfig;
