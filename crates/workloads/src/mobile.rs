//! The mobile-target workload of §IV-A (Figs. 6–8).
//!
//! "We used an acoustic mobile target moving through the testbed at a
//! speed of one grid length per second. The event lasts for a total of 9
//! seconds. The volume was adjusted to set the microphone sensing range of
//! the motes to be about one grid length as well."

use crate::grid::Topology;
use crate::scenario::Scenario;
use enviromic_sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic_types::{Position, SimDuration, SimTime};

/// When the target enters, seconds into the run.
const START_SECS: f64 = 2.0;

/// Event length in seconds (§IV-A: "The event lasts for a total of 9
/// seconds").
const EVENT_SECS: f64 = 9.0;

/// Target speed in grid lengths per second (§IV-A: "a speed of one grid
/// length per second").
const SPEED_GRIDS_PER_SEC: f64 = 1.0;

/// Grid spacing in feet (the 2 ft indoor testbed, §IV).
const GRID_FT: f64 = 2.0;

/// The row, in feet, that the target traverses.
const PATH_Y_FT: f64 = 4.0;

/// Emission amplitude.
const AMPLITUDE: f64 = 130.0;

/// Audible range in feet. Emission reaches zero at 3 ft; with the default
/// detector the *detection* radius works out to ~2.2 ft, "about one grid
/// length", as §IV-A calibrated its volume.
const RANGE_FT: f64 = 3.0;

/// Builds the §IV-A mobile-target scenario on the 8×6 indoor grid.
#[must_use]
pub fn mobile_scenario() -> Scenario {
    let topology = Topology::indoor_testbed();
    let start = SimTime::ZERO + SimDuration::from_secs_f64(START_SECS);
    let stop = start + SimDuration::from_secs_f64(EVENT_SECS);
    let speed_ft = SPEED_GRIDS_PER_SEC * GRID_FT;
    let path_len = speed_ft * EVENT_SECS;
    // Center the traversal on the grid's x extent (0..14 ft).
    let x0 = 7.0 - path_len / 2.0;
    let source = SourceSpec {
        id: SourceId(0),
        start,
        stop,
        amplitude: AMPLITUDE,
        range_ft: RANGE_FT,
        motion: Motion::Waypoints(vec![
            (start, Position::new(x0, PATH_Y_FT)),
            (stop, Position::new(x0 + path_len, PATH_Y_FT)),
        ]),
        waveform: Waveform::Tone { freq_hz: 600.0 },
    };
    Scenario {
        topology,
        sources: vec![source],
        duration: SimDuration::from_secs_f64(START_SECS + EVENT_SECS + 4.0),
    }
}

/// The voice-recording workload of Fig. 8: a speaker reading the paper
/// title while crossing a 7×4 grid at one grid length per second, with a
/// speech-like waveform so stitched audio can be compared against the
/// ground truth.
#[must_use]
pub fn voice_scenario() -> Scenario {
    let topology = Topology::grid(7, 4, 2.0);
    let start = SimTime::ZERO + SimDuration::from_secs_f64(1.0);
    let event_secs = 7.0;
    let stop = start + SimDuration::from_secs_f64(event_secs);
    let source = SourceSpec {
        id: SourceId(0),
        start,
        stop,
        amplitude: 110.0,
        range_ft: 2.5,
        motion: Motion::Waypoints(vec![
            (start, Position::new(-1.0, 3.0)),
            (stop, Position::new(13.0, 3.0)),
        ]),
        waveform: Waveform::Speech {
            syllable_period_s: 0.35,
        },
    };
    Scenario {
        topology,
        sources: vec![source],
        duration: SimDuration::from_secs_f64(12.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_target_crosses_the_grid() {
        let s = mobile_scenario();
        assert_eq!(s.sources.len(), 1);
        let src = &s.sources[0];
        assert!((src.duration().as_secs_f64() - 9.0).abs() < 1e-6);
        // Positions at start and stop straddle the grid.
        let p0 = src.motion.position_at(src.start);
        let p1 = src.motion.position_at(src.stop);
        assert!(p0.x < 0.0 && p1.x > 14.0, "path {p0} .. {p1}");
        assert!((p1.x - p0.x - 18.0).abs() < 1e-9, "18 ft in 9 s");
    }

    #[test]
    fn nodes_on_the_path_row_hear_in_sequence() {
        let s = mobile_scenario();
        let src = &s.sources[0];
        // Mid-event the target sits at the grid center row; node under it
        // hears at full amplitude while distant rows hear nothing.
        let mid = src.start + SimDuration::from_secs_f64(4.5);
        let at = src.motion.position_at(mid);
        assert!(src.level_at(at, mid) > 100.0);
        let far = Position::new(at.x, 0.0);
        assert_eq!(src.level_at(far, mid), 0.0);
    }

    #[test]
    fn voice_scenario_uses_speech_waveform() {
        let s = voice_scenario();
        assert_eq!(s.topology.len(), 28);
        assert!(matches!(s.sources[0].waveform, Waveform::Speech { .. }));
        assert!(s.validate().is_ok());
    }
}
