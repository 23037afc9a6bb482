//! Runtime telemetry for the EnviroMic stack.
//!
//! The post-hoc [`Trace`](../enviromic_sim/trace/index.html) answers
//! "what happened" after a run; this crate answers "what is happening"
//! while one executes. It reads no clock, so a simulated run's telemetry
//! is as deterministic as its trace. It provides:
//!
//! * a [`Registry`] of named [`Counter`]s and log-bucket [`Histogram`]s
//!   (p50/p90/p99 quantile estimates), cheap enough to update on protocol
//!   hot paths;
//! * a serializable [`TelemetryReport`] snapshot that merges across runs,
//!   exports as JSON, and renders as a plain-text
//!   [dashboard](TelemetryReport::render_dashboard);
//! * a [`Timeline`] recorder that samples counters (as deltas) and
//!   host-pushed per-node values at a sim-time cadence into a
//!   [`TimelineReport`] with sparkline rendering — how metrics evolve
//!   *during* a run, not just their final aggregate;
//! * a process-wide leveled [logger](log) behind the binaries' `-q` flag.
//!
//! Metric names follow a `subsystem.metric` convention, e.g.
//! `core.election.won`, `sim.packets.delivered`, `flash.block_writes`
//! (see DESIGN.md, "Telemetry & profiling").
//!
//! # Examples
//!
//! ```
//! use enviromic_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let elections = registry.counter("core.election.won");
//! elections.inc();
//! let latency = registry.histogram("core.task.confirm_latency_ms");
//! latency.observe(70.0);
//!
//! let report = registry.report();
//! assert_eq!(report.counter("core.election.won"), Some(1));
//! println!("{}", report.render_dashboard());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod log;
mod registry;
mod render;
mod report;
mod timeline;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Registry};
pub use report::TelemetryReport;
pub use timeline::{SeriesKind, Timeline, TimelineReport, TimelineSeries};
