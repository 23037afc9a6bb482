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

    /// Folds `other` into `self`: counters and histograms accumulate.
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, snap) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => mine.merge(snap),
                None => self.histograms.push((name.clone(), snap.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
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
        let h = reg.histogram("core.task.confirm_latency_ms");
        for v in [55.0, 68.0, 70.0, 71.0, 90.0] {
            h.observe(v);
        }
        reg.report()
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let report = sample();
        let text = serde::to_json(&report);
        let back: TelemetryReport = serde::from_json(&text).expect("parses");
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
        assert_eq!(
            a.histogram("core.task.confirm_latency_ms").map(|h| h.count),
            Some(10)
        );
    }
}
