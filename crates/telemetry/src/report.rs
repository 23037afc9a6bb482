//! Serializable snapshots of a whole registry.

use serde::{Deserialize, Serialize};

use crate::histogram::HistogramSnapshot;

/// A point-in-time snapshot of every metric in a
/// [`Registry`](crate::Registry): the machine-readable artifact the
/// bench binaries export as JSON next to the figure CSVs.
///
/// Entry lists are sorted by name, so reports are deterministic and
/// diff-friendly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetryReport {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Sum of all counters whose name starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Folds `other` into `self`: counters and histograms accumulate,
    /// gauges take `other`'s value.
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, snap) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => mine.merge(snap),
                None => self.histograms.push((name.clone(), snap.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Serializes the report as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_value(self).to_json_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed JSON or mismatched shape.
    pub fn from_json(text: &str) -> Result<TelemetryReport, String> {
        let value = serde::Value::from_json(text).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> TelemetryReport {
        let reg = Registry::new();
        reg.counter("core.election.won").add(4);
        reg.counter("sim.packets.delivered").add(120);
        reg.gauge("core.balance.beta").set(1.75);
        let h = reg.histogram("core.task.confirm_latency_ms");
        for v in [55.0, 68.0, 70.0, 71.0, 90.0] {
            h.observe(v);
        }
        reg.report()
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let report = sample();
        let text = report.to_json();
        let back = TelemetryReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn serde_value_round_trip_preserves_report() {
        let report = sample();
        let value = serde::Serialize::to_value(&report);
        let back: TelemetryReport = serde::Deserialize::from_value(&value).expect("round-trips");
        assert_eq!(back, report);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("core.election.won"), Some(8));
        assert_eq!(a.gauge("core.balance.beta"), Some(1.75));
        assert_eq!(
            a.histogram("core.task.confirm_latency_ms").map(|h| h.count),
            Some(10)
        );
    }
}
