//! # vmqs-storage
//!
//! Data sources and the disk performance model backing the Page Space
//! Manager.
//!
//! The paper's evaluation ran against multi-gigabyte digitized slides on a
//! local disk farm with the OS file cache disabled. This crate substitutes
//! that hardware (see DESIGN.md §2):
//!
//! * [`SyntheticSource`] generates deterministic page contents — pixel
//!   values never affect scheduling decisions, so synthetic data preserves
//!   all studied behaviour;
//! * [`FileSource`] serves pages from real files for end-to-end runs;
//! * [`ThrottledSource`] replays 2002-era disk timing via [`DiskModel`];
//! * [`FaultInjectingSource`] injects seeded, deterministic I/O failures
//!   (transient, permanent, latency spikes) for robustness testing;
//! * [`DiskModel`] is also consumed by the discrete-event simulator to
//!   compute virtual-time I/O costs, so both engines share one disk model;
//! * [`SpillStore`] is the Data Store's tier-2 spill target: evicted warm
//!   entries serialize to checksummed frames on disk and re-heat later at
//!   disk cost instead of recompute cost (DESIGN.md §14);
//! * [`ChaosConfig`] injects seeded *process* failures (worker panics,
//!   crash-mid-spill, frame bit flips) for the failure-containment layer
//!   (DESIGN.md §15);
//! * [`column_sums`], [`add_column_sums`] and [`block_means`] are the byte
//!   sums of the pixel-averaging kernel (DESIGN.md §3).
//!
//! This is the one crate allowed `unsafe`, for three CPU-dispatched
//! kernel families, each with a portable reference it is tested against:
//! the AVX-512 page fill ([`SyntheticSource`]), the carry-less-multiply
//! frame checksum ([`crc32`], reference [`crc32_table`]) and the
//! AVX-512BW byte sums (references [`column_sums_scalar`],
//! [`add_column_sums_scalar`], [`block_means_scalar`]).

#![warn(missing_docs)]

mod chaos;
mod disk;
mod fault;
mod source;
mod spill;
mod sums;

pub use chaos::ChaosConfig;
pub use disk::DiskModel;
pub use fault::{is_transient, FaultConfig, FaultInjectingSource, FaultStats};
pub use source::{DataSource, FileSource, SyntheticSource, ThrottledSource};
pub use spill::{
    crc32, crc32_table, RecoveredFrame, RecoveryReport, SpillStats, SpillStore, SPILL_DEVICE,
};
pub use sums::{
    add_column_sums, add_column_sums_scalar, block_means, block_means_scalar, column_sums,
    column_sums_scalar,
};
