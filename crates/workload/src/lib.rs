//! # vmqs-workload
//!
//! The client emulator and experiment harness (paper §5).
//!
//! * [`WorkloadConfig`] / [`generate`] — seeded synthetic browsing
//!   workloads reproducing the paper's setup (16 clients × 16 queries over
//!   three slides split 8/6/2, 1024×1024 RGB outputs, hotspot-clustered
//!   sessions so clients' queries overlap);
//! * [`run_server_interactive`] / [`run_server_batch`] — the same
//!   workloads against the *real threaded engine* at laptop scale;
//! * [`ExpRow`] / [`write_csv`] — experiment table rows and CSV output.

#![warn(missing_docs)]

mod experiment;
mod generator;

pub use experiment::{run_server_batch, run_server_interactive, small_server, write_csv, ExpRow};
pub use generator::{flatten_to_batch, generate, zipfian, zipfian_catalog, WorkloadConfig};
