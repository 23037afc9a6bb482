//! Sim-time timelines: how counters and per-node values evolve *during* a
//! run.
//!
//! A [`TelemetryReport`] is an end-of-run aggregate; it cannot distinguish
//! a steady delivery rate from a mid-run collapse that recovers. The
//! [`Timeline`] recorder closes that gap: at a fixed simulation-time
//! cadence it snapshots every registered counter (stored as the *delta*
//! since the previous sample), plus the per-sample values the host pushes
//! in (the simulator's per-node probes: occupancy, energy, role, chunks
//! held).
//!
//! The recorder is a passive observer. It draws no randomness and emits
//! no trace records, so enabling it — at any cadence — leaves a seeded
//! run's trace digest bit-identical (see DESIGN.md §13 and
//! `tests/determinism.rs`).
//!
//! The serializable artifact is a [`TimelineReport`]: a shared time axis
//! plus named [`TimelineSeries`], padded with zeros so every series spans
//! the full axis even when its metric appeared mid-run. It renders as a
//! sparkline dashboard ([`TimelineReport::render_dashboard`]) and exports
//! as JSON for the `trace` explorer.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::report::TelemetryReport;

/// How the points of a series were derived from the underlying metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeriesKind {
    /// Counter increase since the previous sample (the first sample is the
    /// delta from zero).
    CounterDelta,
    /// A value the host pushed with [`Timeline::record`] at the sample
    /// instant (the simulator's per-node probes). Its serialized name,
    /// `"Gauge"`, is part of the dump format.
    Gauge,
}

/// Point buffer of one series while recording: `start` is the index of
/// the sample at which the metric first appeared, so earlier points are
/// implicit zeros.
#[derive(Debug, Clone)]
struct SeriesBuf {
    kind: SeriesKind,
    start: usize,
    points: Vec<f64>,
}

/// Records periodic samples of a registry's counters.
///
/// The host drives it: call [`Timeline::sample`] with the current
/// sim-time and a fresh [`TelemetryReport`], then optionally
/// [`Timeline::record`] extra per-sample values (e.g. per-node probes)
/// for the same instant. Extract the result with [`Timeline::report`].
#[derive(Debug, Clone)]
pub struct Timeline {
    interval_secs: f64,
    times: Vec<f64>,
    last_counters: BTreeMap<String, u64>,
    series: BTreeMap<String, SeriesBuf>,
}

impl Timeline {
    /// A recorder expecting samples every `interval_secs` of sim-time.
    /// The interval is descriptive metadata (the host owns the schedule);
    /// it is carried into the report.
    #[must_use]
    pub fn new(interval_secs: f64) -> Self {
        Timeline {
            interval_secs,
            times: Vec::new(),
            last_counters: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// The configured sampling interval in seconds of sim-time.
    #[must_use]
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Number of samples taken so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no sample has been taken yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Takes one sample at sim-time `t_secs`: every counter of `report`
    /// becomes a delta point. Histograms are not sampled.
    pub fn sample(&mut self, t_secs: f64, report: &TelemetryReport) {
        let at = self.times.len();
        self.times.push(t_secs);
        for (name, value) in &report.counters {
            let last = self.last_counters.insert(name.clone(), *value).unwrap_or(0);
            let delta = value.saturating_sub(last) as f64;
            self.push_point(name, SeriesKind::CounterDelta, at, delta);
        }
    }

    /// Appends a value point named `name` to the sample taken
    /// by the latest [`Timeline::sample`] call. No-op before the first
    /// sample. The simulator uses this for per-node probe series
    /// (`node.<id>.energy_mj`, `node.<id>.occupancy`, ...).
    pub fn record(&mut self, name: &str, value: f64) {
        let Some(at) = self.times.len().checked_sub(1) else {
            return;
        };
        self.push_point(name, SeriesKind::Gauge, at, value);
    }

    /// Appends one point to `name`'s buffer for sample index `at`,
    /// creating the series (starting at `at`) on first sight. A second
    /// point for the same sample overwrites the first.
    fn push_point(&mut self, name: &str, kind: SeriesKind, at: usize, value: f64) {
        let buf = self.series.entry(name.to_string()).or_insert(SeriesBuf {
            kind,
            start: at,
            points: Vec::new(),
        });
        let offset = at - buf.start;
        if offset < buf.points.len() {
            buf.points[offset] = value;
        } else {
            // Pad any samples this series missed with zeros, then append.
            buf.points.resize(offset, 0.0);
            buf.points.push(value);
        }
    }

    /// Snapshots the recording into a serializable report. Series are
    /// zero-padded on both ends to the shared time axis and sorted by
    /// name.
    #[must_use]
    pub fn report(&self) -> TimelineReport {
        let n = self.times.len();
        let series = self
            .series
            .iter()
            .map(|(name, buf)| {
                let mut points = vec![0.0; buf.start];
                points.extend_from_slice(&buf.points);
                points.resize(n, 0.0);
                TimelineSeries {
                    name: name.clone(),
                    kind: buf.kind,
                    points,
                }
            })
            .collect();
        TimelineReport {
            interval_secs: self.interval_secs,
            times: self.times.clone(),
            series,
        }
    }
}

/// One named series of a [`TimelineReport`], aligned to its time axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSeries {
    /// Metric name (`sim.packets.delivered`) or probe name
    /// (`node.3.energy_mj`).
    pub name: String,
    /// How the points were derived.
    pub kind: SeriesKind,
    /// One point per entry of [`TimelineReport::times`].
    pub points: Vec<f64>,
}

impl TimelineSeries {
    /// Smallest point (0 when the series is empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest point (0 when the series is empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of all points (for counter-delta series, the total count).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.points.iter().sum()
    }
}

/// The serializable timeline artifact: a shared sim-time axis plus
/// zero-padded named series, exported as JSON next to the telemetry
/// report and read back by the `trace` explorer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Sampling cadence in seconds of sim-time.
    pub interval_secs: f64,
    /// Sample instants in seconds of sim-time, ascending.
    pub times: Vec<f64>,
    /// Series sorted by name, each spanning the full time axis.
    pub series: Vec<TimelineSeries>,
}

/// Unicode block characters for sparklines, lowest to highest.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `points` as a text sparkline scaled to their own min..max
/// range (a flat series renders as all-minimum).
#[must_use]
fn sparkline(points: &[f64]) -> String {
    let lo = points.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    points
        .iter()
        .map(|&v| {
            let norm = if span > 0.0 { (v - lo) / span } else { 0.0 };
            let idx = (norm * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
            SPARK_LEVELS[idx.min(SPARK_LEVELS.len() - 1)]
        })
        .collect()
}

impl TimelineReport {
    /// Looks up a series by exact name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimelineSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The series whose names start with `prefix`.
    #[must_use]
    pub fn series_with_prefix(&self, prefix: &str) -> Vec<&TimelineSeries> {
        self.series
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// The sampled time span in seconds, `(first, last)`; `None` when no
    /// sample was taken.
    #[must_use]
    pub fn span_secs(&self) -> Option<(f64, f64)> {
        Some((*self.times.first()?, *self.times.last()?))
    }

    /// Renders a sparkline dashboard: one row per series with its range
    /// and a downsampled sparkline, sorted by name. `max_width` caps the
    /// sparkline length (long timelines are bucket-averaged down to it).
    #[must_use]
    pub fn render_dashboard(&self, max_width: usize) -> String {
        let mut out = String::from("Timeline");
        if let Some((t0, t1)) = self.span_secs() {
            out.push_str(&format!(
                " — {} samples every {:.1}s over {:.0}..{:.0}s",
                self.times.len(),
                self.interval_secs,
                t0,
                t1
            ));
        }
        out.push('\n');
        for _ in 0..out.len().saturating_sub(1) {
            out.push('-');
        }
        out.push('\n');
        let width = max_width.max(8);
        let name_w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max(4);
        for s in &self.series {
            let condensed = condense(&s.points, width);
            out.push_str(&format!(
                "  {:<name_w$}  {:>12.3} .. {:<12.3}  {}\n",
                s.name,
                s.min(),
                s.max(),
                sparkline(&condensed),
            ));
        }
        out
    }
}

/// Downsamples `points` to at most `width` points by averaging equal
/// buckets (the sparkline stays readable for long runs).
fn condense(points: &[f64], width: usize) -> Vec<f64> {
    if points.len() <= width {
        return points.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * points.len() / width;
            let hi = ((i + 1) * points.len() / width).max(lo + 1);
            points[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn empty_series_reads_zero_at_both_ends() {
        let empty = TimelineSeries {
            name: "sim.packets.sent".into(),
            kind: SeriesKind::CounterDelta,
            points: Vec::new(),
        };
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
        assert_eq!(empty.total(), 0.0);
        let one = TimelineSeries {
            points: vec![-2.0, 3.0],
            ..empty
        };
        assert_eq!((one.min(), one.max()), (-2.0, 3.0));
    }

    #[test]
    fn counters_become_deltas() {
        let reg = Registry::new();
        let c = reg.counter("sim.packets.sent");
        let mut tl = Timeline::new(1.0);

        c.add(5);
        tl.sample(1.0, &reg.report());
        c.add(2);
        tl.sample(2.0, &reg.report());
        tl.sample(3.0, &reg.report());

        let report = tl.report();
        assert_eq!(report.times, vec![1.0, 2.0, 3.0]);
        let sent = report.series("sim.packets.sent").expect("counter series");
        assert_eq!(sent.kind, SeriesKind::CounterDelta);
        assert_eq!(sent.points, vec![5.0, 2.0, 0.0]);
        assert_eq!(sent.total(), 7.0);
    }

    #[test]
    fn late_metrics_are_zero_padded_to_the_axis() {
        let reg = Registry::new();
        let mut tl = Timeline::new(1.0);
        tl.sample(0.0, &reg.report());
        // The counter appears only at the second sample.
        reg.counter("late.counter").add(3);
        tl.sample(1.0, &reg.report());
        tl.record("node.0.energy_mj", 900.0);
        tl.sample(2.0, &reg.report());

        let report = tl.report();
        let late = report.series("late.counter").expect("late series");
        assert_eq!(late.points, vec![0.0, 3.0, 0.0]);
        // The probe was recorded only for the middle sample; both ends pad.
        let probe = report.series("node.0.energy_mj").expect("probe series");
        assert_eq!(probe.points, vec![0.0, 900.0, 0.0]);
        assert_eq!(probe.kind, SeriesKind::Gauge);
    }

    #[test]
    fn record_before_first_sample_is_a_noop() {
        let mut tl = Timeline::new(1.0);
        tl.record("node.0.energy_mj", 1.0);
        assert!(tl.is_empty());
        assert!(tl.report().series.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let reg = Registry::new();
        reg.counter("a").add(1);
        let mut tl = Timeline::new(0.5);
        tl.sample(0.5, &reg.report());
        tl.record("node.1.role", 2.0);
        tl.sample(1.0, &reg.report());
        let report = tl.report();
        let back: TimelineReport = serde::from_json(&serde::to_json(&report)).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn sparkline_rises_with_the_series() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let levels: Vec<usize> = s
            .chars()
            .map(|c| SPARK_LEVELS.iter().position(|&l| l == c).unwrap())
            .collect();
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "monotone: {s}");
        // A flat series renders at the floor, not NaN-garbage.
        assert!(sparkline(&[5.0, 5.0]).chars().all(|c| c == SPARK_LEVELS[0]));
    }

    #[test]
    fn dashboard_lists_every_series_with_range() {
        let reg = Registry::new();
        reg.counter("sim.packets.sent").add(10);
        let mut tl = Timeline::new(2.0);
        tl.sample(0.0, &reg.report());
        reg.counter("sim.packets.sent").add(4);
        tl.sample(2.0, &reg.report());
        let text = tl.report().render_dashboard(40);
        assert!(text.contains("Timeline"), "{text}");
        assert!(text.contains("2 samples every 2.0s"), "{text}");
        assert!(text.contains("sim.packets.sent"), "{text}");
        assert!(
            text.chars().any(|c| SPARK_LEVELS.contains(&c)),
            "no sparkline glyphs in:\n{text}"
        );
    }

    #[test]
    fn condense_averages_down_to_width() {
        let points: Vec<f64> = (0..100).map(f64::from).collect();
        let c = condense(&points, 10);
        assert_eq!(c.len(), 10);
        assert!((c[0] - 4.5).abs() < 1e-9, "first bucket mean: {}", c[0]);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(condense(&points, 200), points, "short series pass through");
    }

    #[test]
    fn prefix_query_selects_node_series() {
        let reg = Registry::new();
        let mut tl = Timeline::new(1.0);
        tl.sample(0.0, &reg.report());
        tl.record("node.0.energy_mj", 1.0);
        tl.record("node.1.energy_mj", 2.0);
        tl.record("node.10.chunks", 3.0);
        let report = tl.report();
        assert_eq!(report.series_with_prefix("node.1.").len(), 1);
        assert_eq!(report.series_with_prefix("node.").len(), 3);
        assert_eq!(report.span_secs(), Some((0.0, 0.0)));
        assert_eq!(TimelineReport::default().span_secs(), None);
    }
}
