//! The acoustic field: sound sources, motion, waveforms, and attenuation.
//!
//! The paper's experiments drive the network with controlled acoustic
//! sources — laptops playing clips indoors, vehicles/people/birds outdoors.
//! This module is the simulated counterpart: each [`SourceSpec`] is a point
//! source with a start/stop time, an amplitude, an audible range, an
//! optional trajectory, and a waveform used when actual samples are
//! synthesized (the Fig. 8 voice experiment).
//!
//! Attenuation model: the signal level a node perceives from a source at
//! distance `d` is `amplitude * (1 - d/range)` for `d < range` and zero
//! beyond, on a 0–255 ADC-like scale on top of the ambient floor. The linear
//! ramp matches how the paper *uses* acoustics — "the volume was adjusted to
//! set the microphone sensing range to about one grid length" — where only
//! the audible set matters, not a calibrated physical propagation law.

use enviromic_types::{Position, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

pub use enviromic_types::SourceId;

/// How a source moves over its lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Motion {
    /// The source stays at one position.
    Static(Position),
    /// The source moves along timed waypoints (piecewise-linear). Before
    /// the first waypoint it sits at the first position; after the last it
    /// sits at the last.
    Waypoints(Vec<(SimTime, Position)>),
}

impl Motion {
    /// The source position at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics if a `Waypoints` motion has no waypoints (constructing one is
    /// a caller bug; [`SourceSpec::validate`] rejects it up front).
    #[must_use]
    pub fn position_at(&self, t: SimTime) -> Position {
        match self {
            Motion::Static(p) => *p,
            Motion::Waypoints(points) => {
                assert!(!points.is_empty(), "waypoint motion with no waypoints");
                if t <= points[0].0 {
                    return points[0].1;
                }
                // Waypoint times are non-decreasing ([`SourceSpec::validate`]
                // enforces it), so the enclosing segment is the one ending at
                // the first waypoint at-or-after `t`. The interpolation
                // arithmetic is byte-for-byte the old linear scan's.
                let idx = points.partition_point(|&(pt, _)| pt < t);
                if idx == points.len() {
                    return points[idx - 1].1;
                }
                let (t0, p0) = points[idx - 1];
                let (t1, p1) = points[idx];
                let span = t1.saturating_since(t0).as_jiffies();
                if span == 0 {
                    return p1;
                }
                let frac = t.saturating_since(t0).as_jiffies() as f64 / span as f64;
                p0.lerp(p1, frac)
            }
        }
    }

    /// True when the position can change over time.
    #[must_use]
    pub fn is_mobile(&self) -> bool {
        matches!(self, Motion::Waypoints(p) if p.len() > 1)
    }
}

/// The signal content a source emits, used when audio samples are
/// synthesized for a recording node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Waveform {
    /// A pure tone at the given frequency (Hz).
    Tone {
        /// Tone frequency in hertz.
        freq_hz: f64,
    },
    /// Band-limited noise (hash-based, deterministic).
    Noise,
    /// A speech-like waveform: two-tone carrier under a syllabic amplitude
    /// envelope. Used by the Fig. 8 voice-stitching experiment.
    Speech {
        /// Syllable repetition period in seconds.
        syllable_period_s: f64,
    },
}

impl Waveform {
    /// Normalized instantaneous value in `[-1, 1]` at absolute time `t_s`
    /// (seconds). Deterministic: the same time always yields the same value.
    #[must_use]
    pub fn value_at(&self, t_s: f64) -> f64 {
        use core::f64::consts::TAU;
        match self {
            Waveform::Tone { freq_hz } => (TAU * freq_hz * t_s).sin(),
            Waveform::Noise => {
                // Hash the sample index to a pseudo-random value; this keeps
                // noise reproducible without threading an RNG through the
                // field sampler.
                let idx = (t_s * 32_768.0) as i64 as u64;
                let h = crate::rng::split_mix64(idx ^ 0xDEAD_BEEF_CAFE_F00D);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            }
            Waveform::Speech { syllable_period_s } => {
                let carrier = 0.6 * (TAU * 220.0 * t_s).sin() + 0.4 * (TAU * 470.0 * t_s).sin();
                let phase = (t_s / syllable_period_s).fract();
                // Raised-cosine syllable envelope with a short silence gap.
                let envelope = if phase < 0.8 {
                    0.5 - 0.5 * (TAU * phase / 0.8).cos()
                } else {
                    0.0
                };
                carrier * envelope
            }
        }
    }
}

/// A ground-truth acoustic source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Identity used for ground-truth bookkeeping and metrics attribution.
    pub id: SourceId,
    /// When the source starts emitting.
    pub start: SimTime,
    /// When the source stops emitting.
    pub stop: SimTime,
    /// Peak level above the ambient floor at zero distance (0–247 scale so
    /// floor + amplitude stays within the 8-bit ADC range).
    pub amplitude: f64,
    /// Audible range in feet: beyond it the source contributes nothing.
    pub range_ft: f64,
    /// Trajectory.
    pub motion: Motion,
    /// Emitted signal content.
    pub waveform: Waveform,
}

impl SourceSpec {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// empty lifetime, non-positive amplitude/range, or empty waypoint list.
    pub fn validate(&self) -> Result<(), String> {
        if self.stop <= self.start {
            return Err(format!("source {} has empty lifetime", self.id));
        }
        if self.amplitude <= 0.0 || self.amplitude.is_nan() {
            return Err(format!("source {} has non-positive amplitude", self.id));
        }
        if self.range_ft <= 0.0 || self.range_ft.is_nan() {
            return Err(format!("source {} has non-positive range", self.id));
        }
        if let Motion::Waypoints(p) = &self.motion {
            if p.is_empty() {
                return Err(format!("source {} has no waypoints", self.id));
            }
            if p.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(format!(
                    "source {} has waypoints out of time order",
                    self.id
                ));
            }
        }
        Ok(())
    }

    /// True when the source is emitting at instant `t`.
    #[must_use]
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.stop
    }

    /// The source's total emitting duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.stop.saturating_since(self.start)
    }

    /// Signal level contributed at `listener` at instant `t` (0 when
    /// inactive or out of range).
    #[must_use]
    pub fn level_at(&self, listener: Position, t: SimTime) -> f64 {
        if !self.active_at(t) {
            return 0.0;
        }
        let d = self.motion.position_at(t).distance_to(listener);
        if d >= self.range_ft {
            0.0
        } else {
            self.amplitude * (1.0 - d / self.range_ft)
        }
    }
}

/// The set of ground-truth sources plus ambient noise: everything needed to
/// answer "what does node X hear at time t".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AcousticField {
    sources: Vec<SourceSpec>,
}

impl AcousticField {
    /// Creates an empty field (ambient noise only).
    #[must_use]
    pub fn new() -> Self {
        AcousticField::default()
    }

    /// Adds a source to the field.
    ///
    /// # Errors
    ///
    /// Propagates [`SourceSpec::validate`] failures.
    pub fn add_source(&mut self, spec: SourceSpec) -> Result<(), String> {
        spec.validate()?;
        self.sources.push(spec);
        Ok(())
    }

    /// All sources in the field.
    #[must_use]
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// The strongest single-source level heard at `listener` at `t`, not
    /// counting ambient noise. Concurrent sources do not add powers — for
    /// detection purposes the dominant source masks the rest, which mirrors
    /// the paper's "collision" discussion.
    #[must_use]
    pub fn peak_level(&self, listener: Position, t: SimTime) -> f64 {
        self.sources
            .iter()
            .map(|s| s.level_at(listener, t))
            .fold(0.0, f64::max)
    }

    /// Synthesizes one 8-bit audio sample heard at `listener` at absolute
    /// time `t_s` (seconds on the global clock). `noise` is an
    /// already-drawn ambient deviation added around the 128 midpoint.
    #[must_use]
    pub fn sample(&self, listener: Position, t_s: f64, noise: f64) -> u8 {
        mix(self.sources.iter(), listener, t_s, noise)
    }

    /// Like [`AcousticField::sample`], but consulting only the sources at
    /// the given ascending indices into [`AcousticField::sources`].
    ///
    /// `candidates` must be a superset of the sources audible at `t_s`;
    /// inaudible candidates contribute exactly zero, and the contributing
    /// sources are mixed in the same (index) order as the full scan, so the
    /// result is bit-identical to [`AcousticField::sample`].
    #[must_use]
    pub fn sample_from(&self, candidates: &[u32], listener: Position, t_s: f64, noise: f64) -> u8 {
        mix(
            candidates.iter().map(|&i| &self.sources[i as usize]),
            listener,
            t_s,
            noise,
        )
    }

    /// The last instant at which any source is active, or `None` for an
    /// empty field. Useful for sizing simulation runs.
    #[must_use]
    pub fn last_activity(&self) -> Option<SimTime> {
        self.sources.iter().map(|s| s.stop).max()
    }

    /// Synthesizes a whole block of samples at once — the batch form of
    /// calling [`AcousticField::sample_from`] once per sample.
    ///
    /// Sample `i` is taken at `t0_s + i / SAMPLE_RATE_HZ` seconds with the
    /// pre-drawn ambient deviation `noise[i]`; `noise.len()` fixes the
    /// block length. The result pushed into `out` (cleared first) is
    /// **bit-identical** to the per-sample loop — see the order-preservation
    /// argument on the private `mix_block` helper.
    pub fn synthesize_batch(
        &self,
        candidates: &[u32],
        listener: Position,
        t0_s: f64,
        noise: &[f64],
        scratch: &mut MixScratch,
        out: &mut Vec<u8>,
    ) {
        let n = noise.len();
        out.clear();
        out.reserve(n);
        if candidates.is_empty() {
            // Nothing audible: every sample is the centered ambient floor.
            // `mix` would compute 128.0 + 0.0 + noise, and adding 0.0 is
            // exact, so this shortcut is bit-identical.
            out.extend(noise.iter().map(|&nz| (128.0 + nz).clamp(0.0, 255.0) as u8));
            return;
        }
        scratch.fill_times(t0_s, n);
        scratch.acc.clear();
        scratch.acc.resize(n, 0.0);
        // Source-major accumulation in ascending candidate order: each
        // sample's accumulator receives its contributions in exactly the
        // order the per-sample loop would have added them.
        for &ci in candidates {
            mix_block(
                &self.sources[ci as usize],
                listener,
                &scratch.times,
                &scratch.ts_s,
                &mut scratch.acc,
            );
        }
        out.extend(
            scratch
                .acc
                .iter()
                .zip(noise)
                .map(|(&acc, &nz)| (128.0 + acc + nz).clamp(0.0, 255.0) as u8),
        );
    }
}

/// Reusable buffers for [`AcousticField::synthesize_batch`], so synthesizing
/// a block allocates nothing once the buffers reach chunk size.
#[derive(Debug, Clone, Default)]
pub struct MixScratch {
    /// Per-sample signal accumulators (source contributions, pre-noise).
    acc: Vec<f64>,
    /// Per-sample absolute times, seconds on the global clock.
    ts_s: Vec<f64>,
    /// Per-sample quantized instants — exactly the `SimTime` that `mix`
    /// derives from each `t_s`, non-decreasing across the block.
    times: Vec<SimTime>,
}

impl MixScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        MixScratch::default()
    }

    /// Fills the per-sample time arrays for a block of `n` samples
    /// starting at `t0_s`, using the same arithmetic as the per-sample
    /// loop (`t_s = t0_s + i / SAMPLE_RATE_HZ`, then the `mix` jiffy
    /// quantization).
    fn fill_times(&mut self, t0_s: f64, n: usize) {
        self.ts_s.clear();
        self.ts_s.extend(
            (0..n).map(|i| t0_s + i as f64 / enviromic_types::audio::SAMPLE_RATE_HZ as f64),
        );
        self.times.clear();
        self.times.extend(self.ts_s.iter().map(|&t_s| {
            SimTime::from_jiffies((t_s * enviromic_types::JIFFIES_PER_SEC as f64) as u64)
        }));
    }
}

/// Safety margin (feet) for the whole-leg out-of-range skip in
/// [`mix_block`]: a trajectory leg is dropped only when the
/// listener-to-segment distance is at least the audible range *plus* this
/// margin. Per-sample positions are floating-point lerps along the
/// segment, so they can sit a few ulps off it; the margin (9+ orders of
/// magnitude above that error at city coordinate scales) guarantees every
/// skipped sample would have computed a distance `>= range_ft` and hence
/// an exact `0.0` level.
const LEG_SKIP_MARGIN_FT: f64 = 1e-6;

/// Accumulates one source's contribution to every sample of a block —
/// the batch (source-major) form of the per-sample `level_at` +
/// `value_at` work inside [`mix`].
///
/// Bit-exactness argument, piece by piece:
///
/// * **Activity window.** `times` is non-decreasing, so the per-sample
///   predicate `t >= start && t < stop` selects a contiguous index range,
///   found here by two binary searches over the *exact same* comparisons.
///   Samples outside it contribute an exact `0.0` in the per-sample path
///   (the `active_at` early-out), so not touching them is identical.
/// * **Trajectory legs.** Within one leg (one run of samples sharing a
///   `position_at` branch), the waypoint binary search, the clamp
///   branches, and the zero-span check are loop-invariant — hoisting them
///   changes which *instructions* run, not the arithmetic: each sample's
///   position is computed by the same `frac`/`lerp` expressions on the
///   same operands as `position_at`.
/// * **Static listeners.** For a static source (or a dwell/zero-span run)
///   the distance and level are the same for every sample; computing them
///   once is the same arithmetic on the same operands.
/// * **Accumulation order.** The caller iterates candidates in ascending
///   index order and each call adds at most one term per sample, so every
///   `acc[i]` sees its terms in exactly the per-sample `mix` order.
fn mix_block(s: &SourceSpec, listener: Position, times: &[SimTime], ts_s: &[f64], acc: &mut [f64]) {
    // The contiguous sample range where the source is active.
    let lo = times.partition_point(|&t| t < s.start);
    let hi = times.partition_point(|&t| t < s.stop);
    if lo >= hi {
        return;
    }
    match &s.motion {
        Motion::Static(p) => mix_run_fixed(s, *p, listener, &ts_s[lo..hi], &mut acc[lo..hi]),
        Motion::Waypoints(points) => {
            assert!(!points.is_empty(), "waypoint motion with no waypoints");
            let mut i = lo;
            // Dwell at the first position: `position_at` returns
            // `points[0].1` for every `t <= points[0].0`.
            let (first_t, first_p) = points[0];
            if times[i] <= first_t {
                let run = i + times[i..hi].partition_point(|&t| t <= first_t);
                mix_run_fixed(s, first_p, listener, &ts_s[i..run], &mut acc[i..run]);
                i = run;
            }
            while i < hi {
                let idx = points.partition_point(|&(pt, _)| pt < times[i]);
                if idx == points.len() {
                    // Clamped past the last waypoint for the rest of the
                    // block (later samples only move further past it).
                    mix_run_fixed(
                        s,
                        points[idx - 1].1,
                        listener,
                        &ts_s[i..hi],
                        &mut acc[i..hi],
                    );
                    break;
                }
                let (t0, p0) = points[idx - 1];
                let (t1, p1) = points[idx];
                // Samples up to (and including) t1 share this leg: for any
                // such t, every waypoint counted by the partition above
                // still satisfies `pt < t`, and no later waypoint can
                // (their times are >= t1).
                let run = i + times[i..hi].partition_point(|&t| t <= t1);
                let span = t1.saturating_since(t0).as_jiffies();
                if span == 0 {
                    mix_run_fixed(s, p1, listener, &ts_s[i..run], &mut acc[i..run]);
                } else if listener.distance_to_segment(p0, p1) < s.range_ft + LEG_SKIP_MARGIN_FT {
                    for j in i..run {
                        let frac = times[j].saturating_since(t0).as_jiffies() as f64 / span as f64;
                        let d = p0.lerp(p1, frac).distance_to(listener);
                        if d < s.range_ft {
                            let lvl = s.amplitude * (1.0 - d / s.range_ft);
                            if lvl > 0.0 {
                                acc[j] += lvl * s.waveform.value_at(ts_s[j]);
                            }
                        }
                    }
                }
                // else: the whole leg is provably out of range — every
                // sample would have computed `d >= range_ft` and added an
                // exact 0.0, so skipping the run is bit-identical.
                i = run;
            }
        }
    }
}

/// Accumulates a run of samples during which the source sits at one fixed
/// position: the distance, in-range check, and level are computed once and
/// the inner loop is a branch-light multiply-add per sample.
fn mix_run_fixed(
    s: &SourceSpec,
    src_pos: Position,
    listener: Position,
    ts_s: &[f64],
    acc: &mut [f64],
) {
    let d = src_pos.distance_to(listener);
    if d >= s.range_ft {
        return;
    }
    let lvl = s.amplitude * (1.0 - d / s.range_ft);
    if lvl > 0.0 {
        for (a, &t_s) in acc.iter_mut().zip(ts_s) {
            *a += lvl * s.waveform.value_at(t_s);
        }
    }
}

/// Mixes the given sources into one centered 8-bit sample.
fn mix<'a>(
    sources: impl Iterator<Item = &'a SourceSpec>,
    listener: Position,
    t_s: f64,
    noise: f64,
) -> u8 {
    let t = SimTime::from_jiffies((t_s * enviromic_types::JIFFIES_PER_SEC as f64) as u64);
    let mut acc = 0.0;
    for s in sources {
        let lvl = s.level_at(listener, t);
        if lvl > 0.0 {
            acc += lvl * s.waveform.value_at(t_s);
        }
    }
    let centered = 128.0 + acc + noise;
    centered.clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone_source(id: u32, pos: Position, start_s: f64, stop_s: f64) -> SourceSpec {
        SourceSpec {
            id: SourceId(id),
            start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(stop_s),
            amplitude: 100.0,
            range_ft: 2.0,
            motion: Motion::Static(pos),
            waveform: Waveform::Tone { freq_hz: 440.0 },
        }
    }

    #[test]
    fn level_ramps_linearly_with_distance() {
        let s = tone_source(1, Position::new(0.0, 0.0), 0.0, 10.0);
        let t = SimTime::from_jiffies(100);
        assert_eq!(s.level_at(Position::new(0.0, 0.0), t), 100.0);
        assert!((s.level_at(Position::new(1.0, 0.0), t) - 50.0).abs() < 1e-9);
        assert_eq!(s.level_at(Position::new(2.0, 0.0), t), 0.0);
        assert_eq!(s.level_at(Position::new(5.0, 0.0), t), 0.0);
    }

    #[test]
    fn inactive_source_is_silent() {
        let s = tone_source(1, Position::new(0.0, 0.0), 1.0, 2.0);
        assert_eq!(s.level_at(Position::new(0.0, 0.0), SimTime::ZERO), 0.0);
        let after = SimTime::ZERO + SimDuration::from_secs_f64(3.0);
        assert_eq!(s.level_at(Position::new(0.0, 0.0), after), 0.0);
    }

    #[test]
    fn waypoint_motion_interpolates() {
        let m = Motion::Waypoints(vec![
            (SimTime::ZERO, Position::new(0.0, 0.0)),
            (
                SimTime::ZERO + SimDuration::from_secs_f64(10.0),
                Position::new(10.0, 0.0),
            ),
        ]);
        let mid = m.position_at(SimTime::ZERO + SimDuration::from_secs_f64(5.0));
        assert!((mid.x - 5.0).abs() < 1e-6);
        // Clamps beyond the ends.
        assert_eq!(
            m.position_at(SimTime::ZERO + SimDuration::from_secs_f64(99.0)),
            Position::new(10.0, 0.0)
        );
        assert!(m.is_mobile());
        assert!(!Motion::Static(Position::new(0.0, 0.0)).is_mobile());
    }

    #[test]
    fn field_peak_takes_strongest() {
        let mut f = AcousticField::new();
        f.add_source(tone_source(1, Position::new(0.0, 0.0), 0.0, 10.0))
            .unwrap();
        f.add_source(tone_source(2, Position::new(1.0, 0.0), 0.0, 10.0))
            .unwrap();
        let t = SimTime::from_jiffies(10);
        // Listener at origin: source 1 at full 100, source 2 at 50.
        assert_eq!(f.peak_level(Position::new(0.0, 0.0), t), 100.0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = tone_source(1, Position::new(0.0, 0.0), 5.0, 5.0);
        assert!(s.validate().is_err());
        s.stop = s.start + SimDuration::from_secs_f64(1.0);
        s.amplitude = 0.0;
        assert!(s.validate().is_err());
        s.amplitude = 10.0;
        s.range_ft = -1.0;
        assert!(s.validate().is_err());
        s.range_ft = 1.0;
        assert!(s.validate().is_ok());
        s.motion = Motion::Waypoints(vec![]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn waveforms_are_bounded_and_deterministic() {
        for wf in [
            Waveform::Tone { freq_hz: 100.0 },
            Waveform::Noise,
            Waveform::Speech {
                syllable_period_s: 0.3,
            },
        ] {
            for i in 0..1000 {
                let t = i as f64 / 2730.0;
                let v = wf.value_at(t);
                assert!((-1.001..=1.001).contains(&v), "{wf:?} out of range: {v}");
                assert_eq!(v.to_bits(), wf.value_at(t).to_bits(), "nondeterministic");
            }
        }
    }

    #[test]
    fn speech_has_silence_gaps() {
        let wf = Waveform::Speech {
            syllable_period_s: 0.5,
        };
        // Phase in [0.8, 1.0) of each syllable is silent.
        let v = wf.value_at(0.45);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn synthesized_samples_center_at_128() {
        let f = AcousticField::new();
        let s = f.sample(Position::new(0.0, 0.0), 0.1, 0.0);
        assert_eq!(s, 128);
        // A very loud source must clamp at the rails without panicking.
        let mut loud = AcousticField::new();
        let mut spec = tone_source(1, Position::new(0.0, 0.0), 0.0, 10.0);
        spec.amplitude = 500.0;
        loud.add_source(spec).unwrap();
        let mut saw_low = false;
        let mut saw_high = false;
        for i in 0..200 {
            let v = loud.sample(Position::new(0.0, 0.0), i as f64 / 2730.0, 0.0);
            saw_low |= v == 0;
            saw_high |= v == 255;
        }
        assert!(saw_low && saw_high);
    }

    #[test]
    fn last_activity_is_latest_stop() {
        let mut f = AcousticField::new();
        assert_eq!(f.last_activity(), None);
        f.add_source(tone_source(1, Position::new(0.0, 0.0), 0.0, 10.0))
            .unwrap();
        f.add_source(tone_source(2, Position::new(0.0, 0.0), 2.0, 30.0))
            .unwrap();
        assert_eq!(
            f.last_activity(),
            Some(SimTime::ZERO + SimDuration::from_secs_f64(30.0))
        );
    }
}
