//! # vmqs-core
//!
//! Core scheduling model for the VMQS multi-query scheduler — a Rust
//! reproduction of *"Scheduling Multiple Data Visualization Query Workloads
//! on a Shared Memory Machine"* (Andrade, Kurc, Sussman, Saltz; IPPS 2002).
//!
//! This crate holds everything the scheduling layer needs and nothing it
//! does not:
//!
//! * [`geom`] — rectangle algebra for 2-D query windows and sub-query
//!   generation,
//! * [`spec::QuerySpec`] — the application-developer contract (`cmp`,
//!   `overlap`, `qoutsize`, `qinputsize`; paper §2),
//! * [`plan::Plan`] — reuse planning over [`plan::Windowed`] predicates:
//!   which cached results to project and which sub-queries compute the
//!   rest, written once for both engines,
//! * [`graph::SchedulingGraph`] — the priority queue implemented as a
//!   directed reuse graph with incremental re-ranking (paper §4),
//! * [`sched::SchedShard`] — the graph plus per-query records, blob
//!   liveness and the exit / tombstone / quarantine rules: the one shard
//!   state machine both engines drive,
//! * [`overload::admit`] — the admission ladder (rate limit, bounded
//!   queue, degrade, shed-while) and [`supervisor::Supervisor`] — the
//!   restart budget and pool-death latch: the I/O-free decisions around
//!   the shard, each written once for both engines,
//! * [`strategy::Strategy`] — the six ranking strategies (FIFO, MUF, FF,
//!   CF, CNBF, SJF) plus the §6 hybrid extension,
//! * [`stats`] — 95%-trimmed-mean and friends for the evaluation,
//! * [`EngineConfig`] — the seventeen settings both engines share, with
//!   the plain-data policies it names ([`EvictionPolicy`],
//!   [`RetryPolicy`], [`ChaosConfig`]).
//!
//! Execution engines (the real multithreaded server in `vmqs-server` and the
//! discrete-event simulator in `vmqs-sim`) drive this graph; applications
//! (the Virtual Microscope in `vmqs-microscope`) plug in a `QuerySpec`.

#![warn(missing_docs)]

mod chaos;
pub mod clock;
mod config;
pub mod geom;
pub mod graph;
pub mod ids;
pub mod overload;
pub mod plan;
pub mod rank;
mod retry;
pub mod sched;
pub mod shard;
pub mod spatial;
pub mod spec;
pub mod state;
pub mod stats;
pub mod strategy;
pub mod supervisor;
pub mod sync;

pub use chaos::ChaosConfig;
pub use config::{EngineConfig, EvictionPolicy};
pub use geom::Rect;
pub use graph::{Edge, GraphStats, SchedulingGraph};
pub use ids::{BlobId, ClientId, DatasetId, IdGen, QueryId};
pub use overload::{
    shed_victim, OverloadConfig, Pressure, RateLimiter, Secondary, TokenBucket, Verdict,
};
pub use plan::{Plan, Windowed};
pub use rank::Rank;
pub use retry::RetryPolicy;
pub use sched::{PanicOutcome, SchedShard};
pub use shard::shard_of_spec;
pub use spatial::{GridIndex, SpatialSpec};
pub use spec::QuerySpec;
pub use state::QueryState;
pub use strategy::{RankInputs, Strategy};
pub use supervisor::{Supervisor, WorkerFate};
