//! Plain-text dashboard rendering for [`TelemetryReport`].

use crate::report::TelemetryReport;

/// Formats a value with engineering-style precision: integers plainly,
/// small fractions with more digits.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if v == v.trunc() && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

fn section(out: &mut String, title: &str) {
    out.push_str(title);
    out.push('\n');
    for _ in 0..title.len() {
        out.push('-');
    }
    out.push('\n');
}

/// Appends `rows` (first column left-aligned, the rest right-aligned)
/// with every column padded to its widest cell.
fn table(out: &mut String, rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("  {cell:<width$}", width = widths[0]));
            } else {
                out.push_str(&format!("  {cell:>width$}", width = widths[i]));
            }
        }
        // Trailing pad spaces from the last column are unwanted.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
}

impl TelemetryReport {
    /// Renders the report as an aligned plain-text dashboard, suitable
    /// for printing at the end of a benchmark run.
    #[must_use]
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.histograms.is_empty() {
            return "telemetry: no metrics recorded\n".to_string();
        }

        if !self.counters.is_empty() {
            section(&mut out, "Counters");
            let rows: Vec<Vec<String>> = self
                .counters
                .iter()
                .map(|(k, v)| vec![k.clone(), v.to_string()])
                .collect();
            table(&mut out, &rows);
        }

        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            section(&mut out, "Histograms");
            let mut rows: Vec<Vec<String>> = vec![vec![
                "name".to_string(),
                "count".to_string(),
                "mean".to_string(),
                "p50".to_string(),
                "p90".to_string(),
                "p99".to_string(),
                "max".to_string(),
            ]];
            rows.extend(self.histograms.iter().map(|(k, h)| {
                vec![
                    k.clone(),
                    h.count.to_string(),
                    fmt_f64(h.mean()),
                    fmt_f64(h.p50),
                    fmt_f64(h.p90),
                    fmt_f64(h.p99),
                    fmt_f64(h.max),
                ]
            }));
            table(&mut out, &rows);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn dashboard_renders_all_sections() {
        let reg = Registry::new();
        reg.counter("sim.packets.sent").add(250);
        reg.counter("sim.packets.delivered").add(243);
        let h = reg.histogram("core.task.confirm_latency_ms");
        for v in [40.0, 55.0, 70.0, 130.0] {
            h.observe(v);
        }
        let text = reg.report().render_dashboard();
        for needle in ["Counters", "Histograms", "sim.packets.sent", "250", "p99"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let text = Registry::new().report().render_dashboard();
        assert!(text.contains("no metrics"));
    }
}
