//! Telemetry regression gate: compares a run's [`TelemetryReport`]
//! against a committed baseline with per-metric tolerance bands.
//!
//! The determinism suite pins *traces* bit-for-bit; this gate pins the
//! *metrics* — a refactor that keeps the digest but silently doubles
//! `net.bulk.retries` or halves `core.tasks.accepted` gets caught here.
//! CI captures a baseline once (`telemetry-diff --write`), commits it,
//! and every subsequent run diffs against it:
//!
//! ```text
//! cargo run -p enviromic-bench --bin telemetry-diff -- \
//!     --baseline BASELINE_telemetry.json --current target/bench/BENCH_sweep.json
//! ```
//!
//! A metric drifts when `|current - baseline| > abs_tol + rel_tol * |baseline|`,
//! with the band chosen by the longest [`ToleranceBand`] prefix matching the
//! metric name (falling back to the baseline's defaults). Spans are
//! wall-clock and never compared; every other metric is deterministic per
//! seed, so nothing is skipped by default. A baseline can still list name
//! prefixes to exclude in its `skip` field.

use enviromic_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};

/// A tolerance override for every metric whose name starts with `prefix`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceBand {
    /// Metric-name prefix the band applies to (longest match wins).
    pub prefix: String,
    /// Allowed relative drift (fraction of the baseline value).
    pub rel_tol: f64,
    /// Allowed absolute drift, added on top of the relative band.
    pub abs_tol: f64,
}

/// A committed metric baseline: the reference report plus the tolerance
/// policy to judge future runs by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryBaseline {
    /// Relative tolerance for metrics without a matching band.
    pub default_rel_tol: f64,
    /// Absolute tolerance for metrics without a matching band.
    pub default_abs_tol: f64,
    /// Name prefixes excluded from the diff entirely.
    pub skip: Vec<String>,
    /// Per-prefix tolerance overrides.
    pub tolerances: Vec<ToleranceBand>,
    /// The reference report.
    pub report: TelemetryReport,
}

impl TelemetryBaseline {
    /// Wraps `report` with the default policy: 2% relative drift, an
    /// absolute floor of 2.0 (so tiny counters don't trip on ±1), and
    /// nothing skipped.
    #[must_use]
    pub fn capture(report: TelemetryReport) -> TelemetryBaseline {
        TelemetryBaseline {
            default_rel_tol: 0.02,
            default_abs_tol: 2.0,
            skip: Vec::new(),
            tolerances: Vec::new(),
            report,
        }
    }

    /// Serializes the baseline as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_value(self).to_json_pretty()
    }

    /// Parses a baseline back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed JSON or mismatched shape.
    pub fn from_json(text: &str) -> Result<TelemetryBaseline, String> {
        let value = serde::Value::from_json(text).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
    }

    /// The `(rel_tol, abs_tol)` band for `metric`: the longest matching
    /// tolerance prefix, or the defaults.
    #[must_use]
    pub fn band(&self, metric: &str) -> (f64, f64) {
        self.tolerances
            .iter()
            .filter(|t| metric.starts_with(t.prefix.as_str()))
            .max_by_key(|t| t.prefix.len())
            .map_or((self.default_rel_tol, self.default_abs_tol), |t| {
                (t.rel_tol, t.abs_tol)
            })
    }

    fn skipped(&self, metric: &str) -> bool {
        self.skip.iter().any(|p| metric.starts_with(p.as_str()))
    }
}

/// One metric outside its tolerance band.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drift {
    /// The drifting metric (histograms report as `name.count` / `name.mean`).
    pub metric: String,
    /// Baseline value (0 when the metric is new).
    pub baseline: f64,
    /// Current value (0 when the metric disappeared).
    pub current: f64,
    /// The allowed absolute deviation the delta exceeded.
    pub allowed: f64,
}

/// Checks one scalar against the baseline's band for it; `None` when the
/// value is within tolerance.
fn check(baseline: &TelemetryBaseline, metric: &str, base: f64, cur: f64) -> Option<Drift> {
    let (rel, abs) = baseline.band(metric);
    let allowed = abs + rel * base.abs();
    ((cur - base).abs() > allowed).then(|| Drift {
        metric: metric.to_string(),
        baseline: base,
        current: cur,
        allowed,
    })
}

/// Diffs `current` against `baseline`, returning every metric outside its
/// band — including metrics that disappeared or newly appeared (compared
/// against 0). Counters and gauges compare by value; histograms by
/// `count` and `mean`; spans are wall-clock and never compared.
#[must_use]
pub fn diff(baseline: &TelemetryBaseline, current: &TelemetryReport) -> Vec<Drift> {
    let base = &baseline.report;
    let mut drifts = Vec::new();
    let mut names: Vec<&str> = Vec::new();

    names.extend(base.counters.iter().map(|(n, _)| n.as_str()));
    names.extend(current.counters.iter().map(|(n, _)| n.as_str()));
    names.sort_unstable();
    names.dedup();
    for name in names.drain(..) {
        if baseline.skipped(name) {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let (b, c) = (
            base.counter(name).unwrap_or(0) as f64,
            current.counter(name).unwrap_or(0) as f64,
        );
        drifts.extend(check(baseline, name, b, c));
    }

    names.extend(base.gauges.iter().map(|(n, _)| n.as_str()));
    names.extend(current.gauges.iter().map(|(n, _)| n.as_str()));
    names.sort_unstable();
    names.dedup();
    for name in names.drain(..) {
        if baseline.skipped(name) {
            continue;
        }
        let (b, c) = (
            base.gauge(name).unwrap_or(0.0),
            current.gauge(name).unwrap_or(0.0),
        );
        drifts.extend(check(baseline, name, b, c));
    }

    names.extend(base.histograms.iter().map(|(n, _)| n.as_str()));
    names.extend(current.histograms.iter().map(|(n, _)| n.as_str()));
    names.sort_unstable();
    names.dedup();
    for name in names {
        if baseline.skipped(name) {
            continue;
        }
        let empty = enviromic_telemetry::HistogramSnapshot::default();
        let b = base.histogram(name).unwrap_or(&empty);
        let c = current.histogram(name).unwrap_or(&empty);
        #[allow(clippy::cast_precision_loss)]
        drifts.extend(check(
            baseline,
            &format!("{name}.count"),
            b.count as f64,
            c.count as f64,
        ));
        drifts.extend(check(baseline, &format!("{name}.mean"), b.mean(), c.mean()));
    }

    drifts
}

/// Renders drifts as an aligned table, one metric per line.
#[must_use]
pub fn render_drifts(drifts: &[Drift]) -> String {
    let mut out = String::new();
    for d in drifts {
        let delta = d.current - d.baseline;
        out.push_str(&format!(
            "  {:<40} baseline {:>14.3}  current {:>14.3}  delta {delta:>+12.3} (allowed +/-{:.3})\n",
            d.metric, d.baseline, d.current, d.allowed
        ));
    }
    out
}

/// Proves the gate can fail: injects drift into a copy of the baseline's
/// own report — one counter pushed **up**, another dragged **down**, and
/// a gauge pushed up — and checks the diff flags every injection (and
/// that the unmodified report passes). A gate that only fires on
/// inflation would wave through a refactor that silently *loses* work,
/// so both directions are exercised. Returns the injected drifts for
/// display.
///
/// # Errors
///
/// Returns a description of the failure when the gate misbehaves.
pub fn self_test(baseline: &TelemetryBaseline) -> Result<Vec<Drift>, String> {
    let clean = diff(baseline, &baseline.report);
    if !clean.is_empty() {
        return Err(format!(
            "baseline drifts against itself:\n{}",
            render_drifts(&clean)
        ));
    }

    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let past_band = |baseline: &TelemetryBaseline, name: &str, v: u64| -> u64 {
        let (rel, abs) = baseline.band(name);
        (abs + rel * (v as f64)).ceil() as u64 + 1
    };

    let mut doctored = baseline.report.clone();
    let mut expected = 0;
    let mut bumped_up: Option<String> = None;
    if let Some((name, v)) = doctored
        .counters
        .iter_mut()
        .find(|(n, v)| !baseline.skipped(n) && *v > 0)
    {
        *v += 2 * past_band(baseline, name, *v);
        bumped_up = Some(name.clone());
        expected += 1;
    }
    if let Some((name, v)) = doctored.counters.iter_mut().find(|(n, v)| {
        !baseline.skipped(n)
            && Some(n.as_str()) != bumped_up.as_deref()
            && *v > past_band(baseline, n, *v)
    }) {
        *v -= past_band(baseline, name, *v) + 1;
        expected += 1;
    }
    if let Some((name, v)) = doctored
        .gauges
        .iter_mut()
        .find(|(n, _)| !baseline.skipped(n))
    {
        let (rel, abs) = baseline.band(name);
        *v += 2.0 * (abs + rel * v.abs()) + 1.0;
        expected += 1;
    }
    if expected == 0 {
        return Err("baseline has no metrics to doctor".into());
    }
    let caught = diff(baseline, &doctored);
    if caught.len() == expected {
        Ok(caught)
    } else {
        Err(format!(
            "injected {expected} drifts, gate caught {}:\n{}",
            caught.len(),
            render_drifts(&caught)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryReport {
        let reg = enviromic_telemetry::Registry::new();
        reg.counter("core.tasks.accepted").add(120);
        reg.counter("net.bulk.retries").add(7);
        reg.counter("host.noise").add(987_654);
        reg.gauge("core.balance.beta").set(1.35);
        let h = reg.histogram("net.task.delay_ms");
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.observe(v);
        }
        reg.report()
    }

    #[test]
    fn identical_report_passes() {
        let baseline = TelemetryBaseline::capture(sample());
        assert!(diff(&baseline, &sample()).is_empty());
    }

    #[test]
    fn drift_beyond_band_is_flagged_with_direction() {
        let baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        // 120 -> 130 is ~8.3% drift, far past 2% + 2.0.
        cur.counters
            .iter_mut()
            .find(|(n, _)| n == "core.tasks.accepted")
            .unwrap()
            .1 = 130;
        let drifts = diff(&baseline, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "core.tasks.accepted");
        assert_eq!(drifts[0].baseline, 120.0);
        assert_eq!(drifts[0].current, 130.0);
        let rendered = render_drifts(&drifts);
        assert!(rendered.contains("core.tasks.accepted"));
        assert!(rendered.contains("+10.000"));
    }

    #[test]
    fn downward_counter_drift_is_flagged() {
        let baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        // 120 -> 100: losing work drifts just as hard as inventing it.
        cur.counters
            .iter_mut()
            .find(|(n, _)| n == "core.tasks.accepted")
            .unwrap()
            .1 = 100;
        let drifts = diff(&baseline, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "core.tasks.accepted");
        assert!(render_drifts(&drifts).contains("-20.000"));
    }

    #[test]
    fn small_drift_within_band_passes() {
        let baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        // 120 -> 122 sits exactly on the 2% + 2.0 edge (allowed 4.4).
        cur.counters
            .iter_mut()
            .find(|(n, _)| n == "core.tasks.accepted")
            .unwrap()
            .1 = 122;
        assert!(diff(&baseline, &cur).is_empty());
    }

    #[test]
    fn missing_and_new_metrics_are_drifts() {
        let baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        cur.counters.retain(|(n, _)| n != "net.bulk.retries");
        cur.gauges.push(("core.new.gauge".into(), 50.0));
        let drifts = diff(&baseline, &cur);
        let metrics: Vec<&str> = drifts.iter().map(|d| d.metric.as_str()).collect();
        assert!(metrics.contains(&"net.bulk.retries"), "{metrics:?}");
        assert!(metrics.contains(&"core.new.gauge"), "{metrics:?}");
    }

    #[test]
    fn skip_prefixes_suppress_listed_metrics() {
        let mut baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        cur.counters
            .iter_mut()
            .find(|(n, _)| n == "host.noise")
            .unwrap()
            .1 = 5;
        assert_eq!(diff(&baseline, &cur).len(), 1, "nothing skipped by default");
        baseline.skip = vec!["host.".into()];
        assert!(diff(&baseline, &cur).is_empty(), "listed prefix skipped");
    }

    #[test]
    fn histogram_count_and_mean_are_gated() {
        let baseline = TelemetryBaseline::capture(sample());
        let mut cur = sample();
        let h = &mut cur
            .histograms
            .iter_mut()
            .find(|(n, _)| n == "net.task.delay_ms")
            .unwrap()
            .1;
        h.sum *= 2.0; // mean doubles, count unchanged
        let drifts = diff(&baseline, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "net.task.delay_ms.mean");
    }

    #[test]
    fn longest_prefix_band_wins() {
        let mut baseline = TelemetryBaseline::capture(sample());
        baseline.tolerances = vec![
            ToleranceBand {
                prefix: "core.".into(),
                rel_tol: 0.0,
                abs_tol: 0.0,
            },
            ToleranceBand {
                prefix: "core.tasks.".into(),
                rel_tol: 1.0,
                abs_tol: 0.0,
            },
        ];
        assert_eq!(baseline.band("core.tasks.accepted"), (1.0, 0.0));
        assert_eq!(baseline.band("core.balance.beta"), (0.0, 0.0));
        assert_eq!(baseline.band("net.bulk.retries"), (0.02, 2.0));
        let mut cur = sample();
        // 50% over: fine under the loose core.tasks. band...
        cur.counters
            .iter_mut()
            .find(|(n, _)| n == "core.tasks.accepted")
            .unwrap()
            .1 = 180;
        assert!(diff(&baseline, &cur).is_empty());
        // ...but the tight core. band catches any gauge wiggle.
        cur.gauges[0].1 += 0.001;
        assert_eq!(diff(&baseline, &cur).len(), 1);
    }

    #[test]
    fn baseline_json_round_trips() {
        let mut baseline = TelemetryBaseline::capture(sample());
        baseline.tolerances.push(ToleranceBand {
            prefix: "flash.".into(),
            rel_tol: 0.1,
            abs_tol: 5.0,
        });
        let back = TelemetryBaseline::from_json(&baseline.to_json()).expect("parses");
        assert_eq!(back, baseline);
    }

    #[test]
    fn self_test_catches_injected_drift_in_both_directions() {
        let baseline = TelemetryBaseline::capture(sample());
        let caught = self_test(&baseline).expect("gate works");
        assert_eq!(caught.len(), 3, "{}", render_drifts(&caught));
        assert!(
            caught.iter().any(|d| d.current > d.baseline),
            "an upward injection was caught"
        );
        assert!(
            caught.iter().any(|d| d.current < d.baseline),
            "a downward injection was caught"
        );
    }
}
