//! Mote CPU-contention model for high-frequency sampling (Fig. 3).
//!
//! Section III-B.1 of the paper measures the interval between consecutive
//! ADC samples (nominally 10 jiffies) on a real MicaZ while the node is
//! (a) idle, (b) sending a packet, and (c) receiving a packet. Radio
//! activity steals CPU cycles from the sampling timer: intervals that
//! should be a constant 10 jiffies jump between ~9 and ~16 while a packet
//! is sent, and jitter while one is received — even though the application
//! never touches the packet, because the radio stack's interrupt handlers
//! run regardless.
//!
//! We have no AVR + CC2420 to measure, so this module is a *calibrated
//! emulation* of that measurement: interrupt-service latency is injected
//! while simulated radio activity overlaps the sampling window, with
//! magnitudes matched to the paper's plot. Its purpose in the reproduction
//! is the same as the figure's purpose in the paper — to justify the design
//! rule that a recording node must switch its radio off (enforced by
//! [`crate::World`], which drops deliveries to sampling nodes).

use crate::rng::RngStreams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Radio activity overlapping a sampling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommActivity {
    /// No radio activity: the node only samples.
    None,
    /// The node transmits one packet starting at the given sample index.
    Sending {
        /// Sample index at which the packet send begins.
        at_sample: usize,
    },
    /// The node receives one packet starting at the given sample index.
    Receiving {
        /// Sample index at which the packet reception begins.
        at_sample: usize,
    },
}

/// Number of samples over which a single packet perturbs the timer (SPI
/// transfer + stack processing at 2730 Hz sampling spans roughly this many
/// samples on the real mote).
const DISTURBANCE_SPAN: usize = 40;

/// Measures `n` consecutive sampling intervals (in jiffies) under the given
/// radio activity, mirroring the experiment of Fig. 3.
///
/// The nominal interval is `nominal_jiffies` (the paper uses 10). Returns
/// `n` observed intervals.
///
/// # Examples
///
/// ```
/// use enviromic_sim::mote::{measure_sampling_intervals, CommActivity};
///
/// let idle = measure_sampling_intervals(150, 10, CommActivity::None, 1);
/// assert!(idle.iter().all(|&j| j == 10));
/// ```
#[must_use]
pub fn measure_sampling_intervals(
    n: usize,
    nominal_jiffies: u64,
    activity: CommActivity,
    seed: u64,
) -> Vec<u64> {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("mote-jitter", 0);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let disturbed = |start: usize| k >= start && k < start + DISTURBANCE_SPAN;
        let interval = match activity {
            CommActivity::None => nominal_jiffies,
            CommActivity::Sending { at_sample } if disturbed(at_sample) => {
                // The SPI copy to the radio runs in bursts: the timer ISR is
                // held off for ~6 jiffies on burst samples, and the timer
                // hardware partially catches up on the next tick. The
                // measured pattern on hardware oscillates between ~16 and
                // ~9 jiffies.
                if (k - at_sample) % 2 == 0 {
                    nominal_jiffies + 6
                } else {
                    nominal_jiffies - 1
                }
            }
            CommActivity::Receiving { at_sample } if disturbed(at_sample) => {
                // RX processing is bursty but less regular: the stack drains
                // the RX FIFO as bytes arrive, holding the ISR off by a
                // variable 0–5 jiffies with occasional early catch-up ticks.
                let d: i64 = rng.gen_range(-1..=5);
                (nominal_jiffies as i64 + d).max(1) as u64
            }
            _ => nominal_jiffies,
        };
        out.push(interval);
    }
    out
}

/// Summary statistics of a measured interval sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterSummary {
    /// Smallest observed interval, jiffies.
    pub min: u64,
    /// Largest observed interval, jiffies.
    pub max: u64,
    /// Mean interval, jiffies.
    pub mean: f64,
    /// Fraction of intervals that deviate from the nominal value.
    pub disturbed_fraction: f64,
}

/// Summarizes a sequence of observed intervals against a nominal value.
///
/// # Panics
///
/// Panics if `intervals` is empty.
#[must_use]
pub fn summarize(intervals: &[u64], nominal: u64) -> JitterSummary {
    assert!(!intervals.is_empty(), "cannot summarize zero intervals");
    let min = *intervals.iter().min().expect("non-empty");
    let max = *intervals.iter().max().expect("non-empty");
    let mean = intervals.iter().sum::<u64>() as f64 / intervals.len() as f64;
    let disturbed = intervals.iter().filter(|&&v| v != nominal).count();
    JitterSummary {
        min,
        max,
        mean,
        disturbed_fraction: disturbed as f64 / intervals.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_sampling_is_perfectly_regular() {
        let v = measure_sampling_intervals(150, 10, CommActivity::None, 7);
        assert_eq!(v.len(), 150);
        assert!(v.iter().all(|&j| j == 10));
    }

    #[test]
    fn sending_oscillates_between_nine_and_sixteen() {
        let v = measure_sampling_intervals(150, 10, CommActivity::Sending { at_sample: 30 }, 7);
        let window = &v[30..70];
        assert!(window.iter().all(|&j| j == 16 || j == 9));
        assert!(window.contains(&16) && window.contains(&9));
        // Outside the disturbance the timer is exact.
        assert!(v[..30].iter().all(|&j| j == 10));
        assert!(v[71..].iter().all(|&j| j == 10));
    }

    #[test]
    fn receiving_jitters_within_plot_range() {
        let v = measure_sampling_intervals(150, 10, CommActivity::Receiving { at_sample: 30 }, 7);
        let window = &v[30..70];
        assert!(window.iter().all(|&j| (9..=15).contains(&j)));
        let s = summarize(window, 10);
        assert!(s.disturbed_fraction > 0.5, "rx window mostly disturbed");
    }

    #[test]
    fn summary_statistics() {
        let s = summarize(&[10, 10, 16, 9], 10);
        assert_eq!(s.min, 9);
        assert_eq!(s.max, 16);
        assert!((s.mean - 11.25).abs() < 1e-9);
        assert!((s.disturbed_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = measure_sampling_intervals(100, 10, CommActivity::Receiving { at_sample: 0 }, 3);
        let b = measure_sampling_intervals(100, 10, CommActivity::Receiving { at_sample: 0 }, 3);
        assert_eq!(a, b);
    }
}
