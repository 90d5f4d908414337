//! # vmqs — multi-query scheduling for data visualization workloads
//!
//! A production-quality Rust reproduction of *"Scheduling Multiple Data
//! Visualization Query Workloads on a Shared Memory Machine"* (Andrade,
//! Kurc, Sussman, Saltz; IPPS/IPDPS 2002).
//!
//! The system is a multi-query-aware middleware for data analysis servers:
//! queries are held in a **scheduling graph** whose edges carry reuse
//! weights, ranked by one of six strategies (FIFO, MUF, FF, CF, CNBF,
//! SJF), executed by a thread pool against a **semantic result cache**
//! (Data Store Manager) and a **page cache with I/O merging** (Page Space
//! Manager). The bundled application is the **Virtual Microscope**:
//! browsing multi-gigabyte digitized slides at interactive magnifications.
//!
//! This facade crate re-exports the workspace; see the individual crates
//! for detail:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | scheduling graph, ranking strategies, geometry |
//! | [`datastore`] | semantic cache for intermediate results |
//! | [`pagespace`] | page cache, I/O merging & deduplication |
//! | [`storage`] | data sources and disk models |
//! | [`obs`] | event log, metrics registry, lifecycle timelines |
//! | [`microscope`] | the Virtual Microscope application |
//! | [`server`] | real multithreaded execution engine |
//! | [`sim`] | paper-scale discrete-event simulator |
//! | [`workload`] | client emulator & experiment harness |
//! | [`volume`] | §6 extension: 3-D volume visualization application |
//!
//! ## Quickstart
//!
//! ```
//! use vmqs::prelude::*;
//! use std::sync::Arc;
//!
//! // A small slide served from deterministic synthetic data.
//! let slide = SlideDataset::new(DatasetId(0), 2000, 2000);
//! let server = QueryServer::new(ServerConfig::small(), Arc::new(SyntheticSource::new()));
//!
//! // Two overlapping queries: the second reuses the first's cached result.
//! let q1 = VmQuery::new(slide, Rect::new(0, 0, 512, 512), 2, VmOp::Subsample);
//! let q2 = VmQuery::new(slide, Rect::new(256, 0, 512, 512), 2, VmOp::Subsample);
//! server.submit(q1).wait().unwrap();
//! let r2 = server.submit(q2).wait().unwrap();
//! assert!(r2.record.covered_fraction > 0.0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub use vmqs_core as core;
pub use vmqs_datastore as datastore;
pub use vmqs_microscope as microscope;
pub use vmqs_obs as obs;
pub use vmqs_pagespace as pagespace;
pub use vmqs_server as server;
pub use vmqs_sim as sim;
pub use vmqs_storage as storage;
pub use vmqs_volume as volume;
pub use vmqs_workload as workload;

/// The most common imports, in one place.
pub mod prelude {
    pub use vmqs_core::{
        ClientId, DatasetId, EngineConfig, OverloadConfig, QueryId, QuerySpec, QueryState, Rect,
        SchedulingGraph, Strategy,
    };
    pub use vmqs_datastore::{DataStore, Payload};
    pub use vmqs_microscope::{RgbImage, SlideDataset, VmCostModel, VmOp, VmQuery};
    pub use vmqs_obs::{EventKind, EventRecord, Obs};
    pub use vmqs_server::{QueryServer, ServerConfig, ServerError};
    pub use vmqs_sim::{run_sim, ClientStream, SimConfig, SubmissionMode};
    pub use vmqs_storage::{DataSource, DiskModel, FileSource, SyntheticSource};
    pub use vmqs_workload::{generate, WorkloadConfig};
}
