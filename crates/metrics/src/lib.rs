//! Metrics: everything needed to regenerate the EnviroMic evaluation
//! figures from a simulation trace.
//!
//! * [`Experiment`] — trace + ground truth: miss-ratio series (Figs. 6,
//!   10), stored-data redundancy (Fig. 11), message censuses (Figs. 12,
//!   14), occupancy and holdings maps (Figs. 13, 17, 18), per-minute
//!   activity (Fig. 16);
//! * [`IntervalSet`] — the union-of-intervals machinery behind coverage;
//! * [`amplitude_envelope`] / [`best_xcorr`] — waveform similarity for the
//!   Fig. 8 voice experiment;
//! * [`mean_ci90`] — the paper's "average and 90% confidence interval"
//!   over repeated runs;
//! * [`ContourGrid`] / [`render_series`] — plain-text figure rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod intervals;
mod render;
mod stats;
mod waveform;

pub use analysis::{Experiment, SeriesPoint};
pub use intervals::IntervalSet;
pub use render::{render_series, ContourGrid};
pub use stats::{mean, mean_ci90, std_dev};
pub use waveform::{amplitude_envelope, best_xcorr, normalized_xcorr_at};
