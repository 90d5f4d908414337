//! # vmqs-pagespace
//!
//! The Page Space Manager (PS) of the VMQS middleware (paper §2): a
//! fixed-size page cache standing between query execution and the data
//! sources. All input data is read in fixed-size pages (64 KB in the
//! paper's deployment); the PS caches retrieved pages, **merges and
//! reorders overlapping I/O requests** into contiguous runs, and
//! **eliminates duplicate requests** from concurrent queries so each page
//! is fetched at most once at a time.
//!
//! This crate holds the engine-agnostic core ([`PageCacheCore`]); the
//! threaded server adds blocking/wakeup around it, and the discrete-event
//! simulator turns the planned runs into disk events. Sharing the core
//! guarantees both engines exhibit identical caching behaviour.
//!
//! The core's [`PsStats`] is the only Page Space tally in either engine:
//! the front-ends record the faults and retries they charge there, the
//! admission ladder reads its miss and retry ratios from it, and each
//! engine exports it as the `vmqs_ps_*` series ([`PsStats::series`],
//! [`PsStats::merge_ratio`]) when a metrics snapshot is taken.

#![warn(missing_docs)]

mod cache;
mod key;
mod retry;

pub use cache::{PageCacheCore, PageData, PageDisposition, PsStats, ReadPlan};
pub use key::{merge_into_runs, PageKey, Run};
pub use retry::RetryPolicy;
