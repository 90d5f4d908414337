//! # vmqs-sim
//!
//! A deterministic discrete-event simulator of the VMQS query server at
//! the paper's scale.
//!
//! The paper's performance evaluation ran on a 24-processor Solaris SMP
//! with a local disk farm and 7.5 GB of digitized slides — hardware this
//! reproduction substitutes (see DESIGN.md §2). The simulator executes the
//! *same* scheduling graph, ranking strategies, Data Store, and page-cache
//! logic as the real threaded engine, but advances a virtual clock against
//! analytic disk and CPU cost models calibrated to the paper's reported
//! CPU:I/O ratios. A full 256-query experiment that took the authors
//! minutes of wall-clock time replays here in milliseconds, bit-for-bit
//! reproducibly.
//!
//! ```
//! use vmqs_core::{ClientId, DatasetId, Rect};
//! use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
//! use vmqs_sim::{run_sim, ClientStream, SimConfig};
//!
//! let slide = SlideDataset::paper_scale(DatasetId(0));
//! let q = VmQuery::new(slide, Rect::new(0, 0, 4096, 4096), 4, VmOp::Subsample);
//! let report = run_sim(
//!     SimConfig::paper_baseline(),
//!     vec![ClientStream { client: ClientId(0), queries: vec![q, q] }],
//! );
//! assert_eq!(report.records.len(), 2);
//! assert!(report.records[1].exact_hit); // second query reuses the first
//! ```

#![warn(missing_docs)]

mod app;
mod config;
mod disk;
mod engine;
mod events;
mod report;
mod vm;

pub use app::SimApplication;
pub use config::{ClientStream, SchedPolicy, SimConfig, SubmissionMode, TunerConfig};
pub use disk::{DiskQueue, DiskStats};
pub use engine::{run_sim, run_sim_app, Simulator};
pub use events::{Event, EventQueue};
pub use report::{SimRecord, SimReport};
