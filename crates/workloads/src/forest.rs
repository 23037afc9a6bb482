//! The outdoor forest workload of §IV-C (Figs. 15–18).
//!
//! The deployment: 36 motes over ~105 ft × 105 ft of forest, a road along
//! the west edge with passing vehicles, a trail through the plot, and a
//! 3-hour observation window (10:45–13:45, April 2006). The paper's
//! recorded soundscape cannot be replayed, so this module synthesizes the
//! closest structured equivalent:
//!
//! * **road traffic** — vehicles driving the west edge south→north;
//! * **trail activity** — short animal/bird vocalizations along a
//!   diagonal trail band;
//! * **spike 1 (11:30–11:40)** — "people from another department doing an
//!   experiment in the forest": a burst of mid-plot events;
//! * **spike 2 (12:15–12:45)** — "motion of heavy agrarian equipment on a
//!   neighboring road": long (up to 73 s) loud wide-range events;
//! * sparse background events elsewhere.

use crate::grid::Topology;
use crate::scenario::Scenario;
use enviromic_sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic_sim::rng::RngStreams;
use enviromic_types::{Position, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Mean seconds between vehicle passes on the west road ("passing
/// vehicles" along the plot's edge, §IV-C).
const ROAD_MEAN_INTERARRIVAL_SECS: f64 = 240.0;

/// Mean seconds between animal and bird vocalizations along the trail
/// (§IV-C).
const TRAIL_MEAN_INTERARRIVAL_SECS: f64 = 150.0;

/// Mean seconds between sparse background events anywhere in the plot.
const BACKGROUND_MEAN_INTERARRIVAL_SECS: f64 = 500.0;

/// Spike 1, seconds from the 10:45 start: 11:30–11:40, "people from
/// another department doing an experiment in the forest" (§IV-C).
const SPIKE1: (f64, f64) = (2_700.0, 3_300.0);

/// Spike 2, seconds from the 10:45 start: 12:15–12:45, "motion of heavy
/// agrarian equipment on a neighboring road" (§IV-C).
const SPIKE2: (f64, f64) = (5_400.0, 7_200.0);

/// Experiment start mapped to wall-clock "10:45".
#[must_use]
pub fn wall_clock_label(secs_from_start: f64) -> String {
    let total_min = 10 * 60 + 45 + (secs_from_start / 60.0) as i64;
    format!("{:02}:{:02}", total_min / 60, total_min % 60)
}

fn exp_arrivals(rng: &mut SmallRng, mean: f64, from: f64, to: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = from;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -mean * u.ln();
        if t >= to {
            return out;
        }
        out.push(t);
    }
}

/// Builds the forest scenario: the first `duration_secs` of the §IV-C
/// soundscape (10 800 s, the 3-hour window, in the paper) for the given
/// seed.
#[must_use]
pub fn forest_scenario(duration_secs: f64, seed: u64) -> Scenario {
    let topology = Topology::forest(seed);
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("forest-events", 0);
    let mut sources = Vec::new();
    let mut id = 0u32;
    let end = duration_secs;
    let push = |sources: &mut Vec<SourceSpec>,
                id: &mut u32,
                start_s: f64,
                dur_s: f64,
                amplitude: f64,
                range: f64,
                motion: Motion,
                waveform: Waveform| {
        let start = SimTime::ZERO + SimDuration::from_secs_f64(start_s);
        let stop = SimTime::ZERO + SimDuration::from_secs_f64((start_s + dur_s).min(end));
        if stop <= start {
            return;
        }
        sources.push(SourceSpec {
            id: SourceId(*id),
            start,
            stop,
            amplitude,
            range_ft: range,
            motion,
            waveform,
        });
        *id += 1;
    };

    // Vehicles on the west road (x ≈ 4 ft), driving the plot in 8–15 s.
    for t in exp_arrivals(&mut rng, ROAD_MEAN_INTERARRIVAL_SECS, 0.0, end) {
        let dur = rng.gen_range(8.0..15.0);
        let start = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let stop = SimTime::ZERO + SimDuration::from_secs_f64(t + dur);
        push(
            &mut sources,
            &mut id,
            t,
            dur,
            rng.gen_range(120.0..180.0),
            rng.gen_range(18.0..26.0),
            Motion::Waypoints(vec![
                (start, Position::new(4.0, -10.0)),
                (stop, Position::new(4.0, 115.0)),
            ]),
            Waveform::Noise,
        );
    }

    // Trail vocalizations: a diagonal band from (20, 90) to (90, 20).
    for t in exp_arrivals(&mut rng, TRAIL_MEAN_INTERARRIVAL_SECS, 0.0, end) {
        let along: f64 = rng.gen_range(0.0..1.0);
        let off = rng.gen_range(-8.0..8.0);
        let pos = Position::new(20.0 + 70.0 * along + off, 90.0 - 70.0 * along + off);
        push(
            &mut sources,
            &mut id,
            t,
            rng.gen_range(2.0..8.0),
            rng.gen_range(90.0..140.0),
            rng.gen_range(8.0..14.0),
            Motion::Static(pos),
            Waveform::Tone {
                freq_hz: rng.gen_range(300.0..900.0),
            },
        );
    }

    // Spike 1: people working mid-plot.
    for t in exp_arrivals(&mut rng, 25.0, SPIKE1.0, SPIKE1.1) {
        let pos = Position::new(rng.gen_range(40.0..70.0), rng.gen_range(40.0..70.0));
        push(
            &mut sources,
            &mut id,
            t,
            rng.gen_range(3.0..10.0),
            rng.gen_range(100.0..150.0),
            rng.gen_range(12.0..20.0),
            Motion::Static(pos),
            Waveform::Speech {
                syllable_period_s: 0.4,
            },
        );
    }

    // Spike 2: heavy agrarian equipment on the neighboring road — long,
    // loud, wide-range events (the paper observed events up to 73 s).
    for t in exp_arrivals(&mut rng, 220.0, SPIKE2.0, SPIKE2.1) {
        push(
            &mut sources,
            &mut id,
            t,
            rng.gen_range(40.0..73.0),
            rng.gen_range(150.0..200.0),
            rng.gen_range(25.0..35.0),
            Motion::Static(Position::new(
                rng.gen_range(0.0..10.0),
                rng.gen_range(20.0..80.0),
            )),
            Waveform::Noise,
        );
    }

    // Sparse background events anywhere.
    for t in exp_arrivals(&mut rng, BACKGROUND_MEAN_INTERARRIVAL_SECS, 0.0, end) {
        let pos = Position::new(rng.gen_range(0.0..105.0), rng.gen_range(0.0..105.0));
        push(
            &mut sources,
            &mut id,
            t,
            rng.gen_range(2.0..6.0),
            rng.gen_range(80.0..120.0),
            rng.gen_range(8.0..12.0),
            Motion::Static(pos),
            Waveform::Tone {
                freq_hz: rng.gen_range(200.0..1200.0),
            },
        );
    }

    sources.sort_by_key(|s| s.start);
    Scenario {
        topology,
        sources,
        duration: SimDuration::from_secs_f64(duration_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_maps_to_experiment_window() {
        assert_eq!(wall_clock_label(0.0), "10:45");
        assert_eq!(wall_clock_label(2_700.0), "11:30");
        assert_eq!(wall_clock_label(10_800.0), "13:45");
    }

    #[test]
    fn scenario_is_valid_and_structured() {
        let s = forest_scenario(10_800.0, 3);
        assert!(s.validate().is_ok());
        assert_eq!(s.topology.len(), 36);
        assert!(s.sources.len() > 60, "got {} sources", s.sources.len());
        // Spike 2 contains at least one long event.
        let long = s
            .sources
            .iter()
            .filter(|src| src.duration().as_secs_f64() > 39.0)
            .count();
        assert!(long >= 1, "no heavy-equipment events generated");
        // Road events hug the west edge.
        let road = s
            .sources
            .iter()
            .filter(|src| matches!(&src.motion, Motion::Waypoints(w) if w[0].1.x < 10.0))
            .count();
        assert!(road >= 10, "too few road events: {road}");
    }

    #[test]
    fn spikes_raise_event_density() {
        let s = forest_scenario(10_800.0, 9);
        let in_window = |a: f64, b: f64| {
            s.sources
                .iter()
                .filter(|src| {
                    let t = src.start.as_secs_f64();
                    t >= a && t < b
                })
                .count() as f64
                / (b - a)
        };
        let spike1_rate = in_window(2_700.0, 3_300.0);
        let quiet_rate = in_window(500.0, 2_500.0);
        assert!(
            spike1_rate > quiet_rate * 1.5,
            "spike1 {spike1_rate:.4}/s vs quiet {quiet_rate:.4}/s"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = forest_scenario(10_800.0, 4);
        let b = forest_scenario(10_800.0, 4);
        assert_eq!(a.sources, b.sources);
    }
}
