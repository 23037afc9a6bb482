//! Simulation configuration.

use enviromic_runtime::EnergyModel;
use enviromic_types::SimDuration;

/// Radio medium parameters.
///
/// Models the single-hop broadcast behaviour of the MicaZ CC2420 radio at
/// the abstraction the EnviroMic protocol relies on: unit-disk connectivity,
/// per-receiver independent loss, MAC-style random transmit delay, and
/// byte-rate-proportional airtime at
/// [`RADIO_BITRATE_BPS`](enviromic_types::RADIO_BITRATE_BPS).
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Communication range in feet (unit-disk model). The paper recommends
    /// choosing this larger than the acoustic sensing range.
    pub range_ft: f64,
    /// Independent per-receiver probability that a broadcast is lost.
    pub loss_prob: f64,
    /// Maximum random MAC back-off before a transmission leaves the node.
    pub mac_delay_max: SimDuration,
    /// Fixed per-hop processing latency added to every delivery.
    pub per_hop_latency: SimDuration,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            range_ft: 3.0,
            loss_prob: 0.05,
            mac_delay_max: SimDuration::from_millis(8),
            per_hop_latency: SimDuration::from_millis(2),
        }
    }
}

impl RadioConfig {
    /// Checks the parameters for physical plausibility.
    ///
    /// `loss_prob` is accepted over the *inclusive* range `[0.0, 1.0]`:
    /// a probability of exactly 1.0 is a legitimate configuration — it
    /// models a total radio blackout, the same condition the fault
    /// engine's `RadioBlackout` imposes temporarily.
    ///
    /// # Errors
    ///
    /// Describes the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.range_ft.is_nan() || self.range_ft <= 0.0 {
            return Err(format!("radio range_ft {} must be positive", self.range_ft));
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(format!(
                "radio loss_prob {} outside [0.0, 1.0]",
                self.loss_prob
            ));
        }
        Ok(())
    }
}

/// Per-node clock imperfection parameters.
///
/// Real motes free-run on a 32 kHz crystal with offset and drift; the
/// FTSP-style sync service exists to undo exactly this. Both knobs can be
/// zeroed for experiments where clock error is irrelevant.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockConfig {
    /// Maximum absolute skew, parts-per-million (drawn uniformly ±ppm).
    pub max_skew_ppm: f64,
    /// Maximum initial offset magnitude (drawn uniformly ± this span).
    pub max_offset: SimDuration,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            max_skew_ppm: 50.0,
            max_offset: SimDuration::from_millis(2_000),
        }
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Root seed for all deterministic randomness.
    pub seed: u64,
    /// Radio medium parameters.
    pub radio: RadioConfig,
    /// Per-node microphone gain spread: each node's perceived signal level
    /// is scaled by a fixed gain drawn uniformly from `1 ± spread`,
    /// modeling real microphone sensitivity variation (the paper observes
    /// that "individual nodes may not detect the event reliably").
    pub mic_gain_spread: f64,
    /// Energy model parameters (MicaZ-class numbers). The protocol reads
    /// them through the `Runtime` trait, so the type lives in
    /// `enviromic-runtime`.
    pub energy: EnergyModel,
    /// Clock imperfection parameters.
    pub clock: ClockConfig,
    /// If set, the world polls every node's storage occupancy at this
    /// period and records it in the trace (used by the contour figures).
    pub occupancy_snapshot_period: Option<SimDuration>,
    /// If set, the world samples every registered counter plus the
    /// per-node probes into a sim-time
    /// [`Timeline`](enviromic_telemetry::Timeline) at this period. The
    /// sampler is a passive observer — it draws no randomness and emits
    /// no trace records, so enabling it at any cadence leaves the trace
    /// digest bit-identical (see DESIGN.md §13).
    pub timeline_sample_period: Option<SimDuration>,
    /// Whether the trace keeps its records (the default) or only their
    /// digest and count ([`Trace::digest_only`](crate::Trace::digest_only)).
    /// A run whose readers call nothing but
    /// [`Trace::digest`](crate::Trace::digest) and
    /// [`Trace::len`](crate::Trace::len) can turn it off; the digest is
    /// the same either way.
    pub keep_trace_records: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            radio: RadioConfig::default(),
            mic_gain_spread: 0.0,
            energy: EnergyModel::default(),
            clock: ClockConfig::default(),
            occupancy_snapshot_period: None,
            timeline_sample_period: None,
            keep_trace_records: true,
        }
    }
}

impl WorldConfig {
    /// Convenience constructor: default configuration with a given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        WorldConfig {
            seed,
            ..WorldConfig::default()
        }
    }

    /// Checks the configuration for physical plausibility.
    ///
    /// # Errors
    ///
    /// Describes the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.radio.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = WorldConfig::default();
        assert!(c.radio.range_ft > 0.0);
        assert!((0.0..=1.0).contains(&c.radio.loss_prob));
        assert!(c.energy.battery_mj > 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn total_loss_is_a_valid_configuration() {
        // Regression pin: the accepted range is inclusive of 1.0 — total
        // blackout is a legitimate (fault-mode) configuration, and must
        // not be rejected as out of range.
        let mut c = WorldConfig::default();
        c.radio.loss_prob = 1.0;
        assert!(c.validate().is_ok(), "loss_prob == 1.0 must validate");
        c.radio.loss_prob = 0.0;
        assert!(c.validate().is_ok(), "loss_prob == 0.0 must validate");
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let mut c = WorldConfig::default();
        c.radio.loss_prob = 1.0000001;
        assert!(c.validate().is_err());
        c.radio.loss_prob = -0.1;
        assert!(c.validate().is_err());
        c.radio.loss_prob = 0.5;
        c.radio.range_ft = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_seed_sets_only_seed() {
        let c = WorldConfig::with_seed(99);
        assert_eq!(c.seed, 99);
        assert_eq!(c.radio, RadioConfig::default());
    }

    #[test]
    fn debug_never_empty() {
        let c = WorldConfig::with_seed(7);
        let s = format!("{c:?}");
        assert!(s.contains("seed: 7"));
    }
}
