//! # vmqs-microscope
//!
//! The Virtual Microscope application (paper §3) implemented against the
//! VMQS middleware: a digital emulation of a high-power light microscope
//! over multi-gigabyte digitized slides.
//!
//! * [`SlideDataset`] — 2-D slides regularly partitioned into square
//!   chunks, one chunk per 64 KB storage page;
//! * [`VmQuery`] — the query predicate (slide, window, magnification,
//!   processing function) implementing [`vmqs_core::QuerySpec`], with the
//!   paper's Eq. 4 overlap index;
//! * [`kernels`] — the two processing functions (subsampling and pixel
//!   averaging, Fig. 2), the `project` data transformation (Eq. 3), and a
//!   ground-truth reference renderer for tests;
//! * [`VmCostModel`] — CPU costs calibrated to the paper's measured
//!   CPU:I/O ratios, consumed by the discrete-event simulator.

#![warn(missing_docs)]

mod cost;
mod dataset;
mod image;
pub mod kernels;
mod query;

pub use cost::VmCostModel;
pub use dataset::{SlideDataset, BYTES_PER_PIXEL, CHUNK_SIDE, PAGE_SIZE};
pub use image::{RgbImage, RgbView};
pub use query::{VmOp, VmQuery};
