//! EnviroMic — a reproduction of *"EnviroMic: Towards Cooperative Storage
//! and Retrieval in Audio Sensor Networks"* (Luo, Cao, Huang, Abdelzaher,
//! Stankovic, Ward; ICDCS 2007) as a pure-Rust library.
//!
//! EnviroMic is a distributed acoustic monitoring, storage, and trace
//! retrieval system for *disconnected* mote networks: recording is
//! sound-activated, nearby nodes elect a leader that rotates the recording
//! task to avoid redundant copies, stored audio migrates from noisy to
//! quiet regions to balance flash utilization, and data is retrieved
//! rarely — by a data mule or by physically collecting the motes.
//!
//! The original system ran on MicaZ motes; this workspace substitutes a
//! deterministic discrete-event simulation of the mote platform
//! ([`sim`]) and reimplements every subsystem on top of it. See
//! `DESIGN.md` for the full inventory and `EXPERIMENTS.md` for the
//! figure-by-figure reproduction record.
//!
//! # Crate map
//!
//! | Module (re-export) | Contents |
//! |---|---|
//! | [`types`] | IDs, jiffy time base, geometry, audio constants, shared bytes |
//! | [`runtime`] | node-facing `Application`/`Runtime` traits, trace, mock backend |
//! | [`sim`] | discrete-event world: radio, acoustic field, energy, clocks |
//! | [`flash`] | block device, chunk store, EEPROM crash recovery |
//! | [`net`] | packet codec, piggyback broadcast, bulk transfer, tree |
//! | [`timesync`] | FTSP-style offset/skew regression |
//! | [`core`] | the EnviroMic protocol node, baselines, data mule |
//! | [`workloads`] | paper testbed topologies and acoustic scenarios |
//! | [`metrics`] | miss ratio, redundancy, overhead, contours |
//! | [`archive`] | basestation archive: range queries, query cache, gap re-requests |
//! | [`telemetry`] | runtime counters, histograms, sim-time timelines, logging |
//! | [`harness`] | one-call experiment assembly and execution |
//! | [`sweep`] | parallel seed × scenario sweeps with deterministic replay |
//! | [`observe`] | run dumps, trace filtering, per-node ledgers (the `trace` explorer) |
//!
//! Every binary writes its files through [`write_artifact`], takes its
//! `--jobs` default from [`default_jobs`] and reads sim-time spans with
//! [`parse_sim_secs`]; `enviromic` and `trace` print through
//! [`write_stdout`].
//!
//! # Quickstart
//!
//! ```
//! use enviromic::core::{Mode, NodeConfig};
//! use enviromic::harness::{indoor_world_config, run_scenario};
//! use enviromic::workloads::mobile_scenario;
//!
//! // Record a mobile acoustic target crossing the paper's 8x6 testbed.
//! let scenario = mobile_scenario();
//! let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
//! let run = run_scenario(scenario, &cfg, indoor_world_config(1), 2.0);
//! let miss = run.experiment().miss_ratio(13.0);
//! assert!(miss < 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod observe;
pub mod sweep;

pub use enviromic_archive as archive;
pub use enviromic_core as core;
pub use enviromic_flash as flash;
pub use enviromic_metrics as metrics;
pub use enviromic_net as net;
pub use enviromic_runtime as runtime;
pub use enviromic_sim as sim;
pub use enviromic_telemetry as telemetry;
pub use enviromic_timesync as timesync;
pub use enviromic_types as types;
pub use enviromic_workloads as workloads;

use enviromic_telemetry::log_warn;
use enviromic_types::SimDuration;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes a run artifact (report JSON, run dump) to `path`, creating its
/// parent directories first. Each binary keeps its own failure policy.
///
/// # Errors
///
/// Returns the I/O error of the directory creation or of the write.
pub fn write_artifact(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

/// Writes a binary's report to stdout through `write`, buffered, and
/// ends the process if a write fails: with exit 0 when the reader closed
/// the pipe (`enviromic ... | head` has what it wanted), with exit 1 and
/// a warning on any other error.
pub fn write_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut out = BufWriter::new(io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            log_warn!("could not write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Default sweep worker count: one per available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a command-line sim-time span in seconds (`--duration`,
/// `--timeline`): `None` unless the value is finite and rounds to at
/// least one jiffy, since a zero step never advances sim-time.
///
/// ```
/// use enviromic::parse_sim_secs;
///
/// assert_eq!(parse_sim_secs("0.5"), Some(0.5));
/// for bad in ["0", "1e-6", "-1", "NaN", "inf", "ten"] {
///     assert_eq!(parse_sim_secs(bad), None, "{bad}");
/// }
/// ```
#[must_use]
pub fn parse_sim_secs(arg: &str) -> Option<f64> {
    let secs: f64 = arg.parse().ok()?;
    let valid =
        secs.is_finite() && secs > 0.0 && SimDuration::from_secs_f64(secs) > SimDuration::ZERO;
    valid.then_some(secs)
}
