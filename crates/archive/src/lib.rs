//! Basestation archive service: the retrieval *serving* layer.
//!
//! The paper treats retrieval as a rare, trivial drain on the network —
//! a data mule walks by, collects everything, done (§II-C). This crate
//! inverts that: once chunks reach the basestation they enter an
//! **indexed archive** that can serve millions of range queries over the
//! collected audio, long after the motes are gone.
//!
//! * [`ArchiveStore`] — an immutable, queryable index over collected
//!   chunk records, keyed by (time window × origin node × event id),
//!   with a bucketed interval index for range scans. Built once via
//!   [`ArchiveBuilder`], then shared read-only across query workers.
//! * [`RangeQuery`] / [`QueryResult`] — time × origin × event range
//!   scans returning records in canonical order plus an order-sensitive
//!   FNV-1a digest (the determinism fingerprint CI diffs across worker
//!   counts).
//! * [`QueryCache`] — an LRU query cache with hit/miss/eviction
//!   telemetry (`archive.cache.*`). Cache placement is decided in
//!   workload order on the coordinator, so hit ratios are bit-identical
//!   at any worker count.
//! * [`find_gaps`] — the gap detector: scans an origin's coverage for
//!   missing chunk ranges ([`enviromic_types::GapRange`]).
//!   `enviromic-core` turns the ranges into batched spanning-tree
//!   re-request messages instead of one query per hole.
//! * [`serve_queries`] — a `std::thread::scope` worker pool (the
//!   `src/sweep.rs` shape) serving a query workload concurrently with
//!   deterministic results regardless of worker count.
//!
//! See DESIGN.md §17 for the layout and the determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod gaps;
mod serve;
mod store;

pub use cache::{CacheDecision, CacheStats, QueryCache};
pub use gaps::{coverage_span, find_gaps};
pub use serve::{serve_queries, LatencySummary, ServeOutcome};
pub use store::{
    ArchiveBuilder, ArchiveRecord, ArchiveStore, IngestStats, QueryResult, RangeQuery,
};
