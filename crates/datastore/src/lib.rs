//! # vmqs-datastore
//!
//! The Data Store Manager (DS) of the VMQS middleware: a byte-budgeted
//! **semantic cache** for intermediate query results (paper §2).
//!
//! Results are stored together with their predicate meta-information, so a
//! later query can discover — via the application's `cmp`/`overlap`
//! operators — that a cached result answers it completely or partially. The
//! store exposes the paper's interface minus the reserve-then-fill half of
//! its `malloc`: a result is computed outside the store and handed to
//! [`DataStore::insert_costed`] on completion, visible from then on, and
//! `lookup` is what the query server calls before planning any I/O.
//!
//! Evictions are reported back to the caller as `(blob, producer-query,
//! spec)` triples so the scheduling graph can transition the producers to
//! SWAPPED_OUT — the sharded server additionally uses the spec to route
//! each eviction to the producer's home shard — keeping "the up-to-date
//! state of the system … reflected to the query server" (paper §4).

#![warn(missing_docs)]

mod entry;
mod store;

pub use entry::{BlobEntry, Frame, Payload, Phase};
pub use store::{
    benefit_score, DataStore, DsError, DsStats, EvictionPolicy, EvictionRecord, Match,
    SpillRequest, RECOVERED_PRODUCER,
};

/// The store's pre-merge name. The spatially indexed wrapper and the
/// linear store are one type now; the alias stays because the frozen
/// benchmark package (`crates/bench/src/bin/vmqs_benchmark`, which no PR
/// may edit) constructs the store as `SpatialDataStore::with_policy`.
pub type SpatialDataStore<S> = DataStore<S>;
