//! The common scenario container: a topology plus a ground-truth source
//! schedule.

use crate::grid::Topology;
use enviromic_sim::acoustics::SourceSpec;
use enviromic_types::{SimDuration, SimTime};

/// A complete experiment workload: where the nodes are and what sounds
/// happen when. The source list doubles as the metrics ground truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Node deployment.
    pub topology: Topology,
    /// Ground-truth acoustic sources, in start order.
    pub sources: Vec<SourceSpec>,
    /// Total experiment duration.
    pub duration: SimDuration,
}

impl Scenario {
    /// Sum of all source active durations (the denominator of
    /// whole-experiment miss ratios); `0.0` without sources.
    #[must_use]
    pub fn total_event_secs(&self) -> f64 {
        // `Iterator::sum` starts an `f64` sum from -0.0, which a report of
        // an eventless run would print as "-0.0".
        self.sources
            .iter()
            .fold(0.0, |sum, s| sum + s.duration().as_secs_f64())
    }

    /// The instant the experiment ends.
    #[must_use]
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }

    /// Validates every source.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid source description.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.sources {
            s.validate()?;
        }
        if self.topology.is_empty() {
            return Err("scenario has no nodes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_sim::acoustics::{Motion, SourceId, Waveform};
    use enviromic_types::Position;

    #[test]
    fn totals_and_validation() {
        let s = Scenario {
            topology: Topology::grid(2, 2, 2.0),
            sources: vec![SourceSpec {
                id: SourceId(1),
                start: SimTime::ZERO,
                stop: SimTime::ZERO + SimDuration::from_secs_f64(5.0),
                amplitude: 10.0,
                range_ft: 2.0,
                motion: Motion::Static(Position::new(1.0, 1.0)),
                waveform: Waveform::Noise,
            }],
            duration: SimDuration::from_secs_f64(10.0),
        };
        assert!((s.total_event_secs() - 5.0).abs() < 1e-9);
        assert!(s.validate().is_ok());
        assert_eq!(s.end().as_secs_f64(), 10.0);
    }
}
