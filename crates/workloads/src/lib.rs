//! Workloads: topologies and ground-truth acoustic scenarios for every
//! experiment in the EnviroMic paper's evaluation (§IV).
//!
//! * [`Topology`] — the 8×6 indoor grid and the irregular 36-node forest
//!   plot;
//! * [`indoor_scenario`] — the two-generator Poisson workload behind
//!   Figs. 9–14;
//! * [`mobile_scenario`] / [`voice_scenario`] — the moving acoustic target
//!   of Figs. 6–8;
//! * [`forest_scenario`] — the synthesized 3-hour outdoor soundscape
//!   behind Figs. 16–18 (road traffic, trail vocalizations, the two
//!   observed activity spikes);
//! * [`city_scenario`] — a city-block lamppost deployment, the input of
//!   the 1k–100k scale ladder.
//!
//! Each workload's statistics are the paper's and fixed: arrival rates,
//! event lengths, loudness, audible ranges and spike windows are named
//! constants beside the builder that reads them, citing the section they
//! reproduce. A builder takes only what the experiments vary: the run
//! length (indoor, forest, city), the node count (city) and the seed.
//!
//! Scenario source lists double as metrics ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod city;
mod forest;
mod grid;
mod indoor;
mod mobile;
mod scenario;

pub use city::city_scenario;
pub use forest::{forest_scenario, wall_clock_label};
pub use grid::Topology;
pub use indoor::indoor_scenario;
pub use mobile::{mobile_scenario, voice_scenario};
pub use scenario::Scenario;
