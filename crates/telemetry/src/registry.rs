//! The metrics registry and its counter/gauge/span handles.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use crate::histogram::{HistData, Histogram};
use crate::report::{SpanSnapshot, TelemetryReport};

/// A monotonically increasing counter handle. Cloning shares the value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get().saturating_add(n));
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A last-value gauge handle. Cloning shares the value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Adds `delta` to the gauge.
    pub fn add(&self, delta: f64) {
        self.value.set(self.value.get() + delta);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        self.value.get()
    }
}

#[derive(Debug, Default)]
struct SpanNode {
    count: u64,
    secs: f64,
    children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    fn at_path(&mut self, path: &[String]) -> &mut SpanNode {
        let mut node = self;
        for seg in path {
            node = node.children.entry(seg.clone()).or_default();
        }
        node
    }

    fn flatten(&self, prefix: &str, out: &mut Vec<SpanSnapshot>) {
        for (name, child) in &self.children {
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            out.push(SpanSnapshot {
                path: path.clone(),
                count: child.count,
                secs: child.secs,
            });
            child.flatten(&path, out);
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: RefCell<BTreeMap<String, Counter>>,
    gauges: RefCell<BTreeMap<String, Gauge>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
    spans: RefCell<SpanNode>,
    span_stack: RefCell<Vec<String>>,
}

/// A single-threaded registry of named metrics.
///
/// Cloning is cheap and shares the underlying store — the simulation
/// world keeps one clone and hands further clones to every component
/// that instruments itself. Metric names follow `subsystem.metric`
/// (e.g. `sim.packets.delivered`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name` (created on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        handle(&self.inner.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&self.inner.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&self.inner.histograms, name)
    }

    /// Starts a wall-clock span; the returned guard records its elapsed
    /// time under the currently open span (if any) when dropped.
    ///
    /// ```
    /// let registry = enviromic_telemetry::Registry::new();
    /// {
    ///     let _session = registry.span("session");
    ///     let _phase = registry.span("fig3");
    ///     // ... timed work ...
    /// }
    /// assert_eq!(registry.report().spans[1].path, "session/fig3");
    /// ```
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        self.inner.span_stack.borrow_mut().push(name.to_string());
        Span {
            registry: self.clone(),
            started: Instant::now(),
            depth: self.inner.span_stack.borrow().len(),
        }
    }

    /// Snapshots every metric into a serializable report.
    #[must_use]
    pub fn report(&self) -> TelemetryReport {
        let counters = self
            .inner
            .counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let mut spans = Vec::new();
        self.inner.spans.borrow().flatten("", &mut spans);
        TelemetryReport {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Merges a snapshot back in, with every name prefixed by `prefix.`
    /// (spans nest under a `prefix` root). Used to fold per-run reports
    /// into a session-wide registry.
    ///
    /// Counters, histograms, and spans accumulate. Gauges are
    /// **last-write-wins**: a gauge is a point-in-time level, not a total,
    /// so absorbing two reports under the *same* prefix keeps the value of
    /// the later absorb — the same rule [`TelemetryReport::merge`] applies.
    /// Absorb runs under distinct prefixes (as the bench session does) to
    /// keep every run's gauges.
    pub fn absorb(&self, prefix: &str, report: &TelemetryReport) {
        let report = report.with_prefix(prefix);
        for (name, v) in &report.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &report.gauges {
            self.gauge(name).set(*v);
        }
        for (name, snap) in &report.histograms {
            let hist = self.histogram(name);
            let mut data = hist.data.borrow_mut();
            let mut merged = data.snapshot();
            merged.merge(snap);
            *data = HistData::from_snapshot(&merged);
        }
        let mut spans = self.inner.spans.borrow_mut();
        for snap in &report.spans {
            let path: Vec<String> = snap.path.split('/').map(str::to_string).collect();
            let node = spans.at_path(&path);
            node.count += snap.count;
            node.secs += snap.secs;
        }
    }
}

/// The handle registered under `name` in `map`, created on first use. A
/// name already registered is found by `&str`, so only the first lookup
/// allocates its key.
fn handle<T: Clone + Default>(map: &RefCell<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.borrow_mut();
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

/// Guard for one timed section; see [`Registry::span`].
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    started: Instant,
    depth: usize,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut stack = self.registry.inner.span_stack.borrow_mut();
        // Tolerate out-of-order drops by truncating to this span's depth.
        stack.truncate(self.depth);
        let path = stack.clone();
        stack.pop();
        drop(stack);
        let mut spans = self.registry.inner.spans.borrow_mut();
        let node = spans.at_path(&path);
        node.count += 1;
        node.secs += elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_report_sorted() {
        let reg = Registry::new();
        let a = reg.counter("b.second");
        let b = reg.counter("b.second");
        a.inc();
        b.add(2);
        reg.counter("a.first").inc();
        reg.gauge("g.level").set(0.5);
        reg.histogram("h.lat").observe(3.0);
        let report = reg.report();
        assert_eq!(
            report.counters,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 3)]
        );
        assert_eq!(report.gauges, vec![("g.level".to_string(), 0.5)]);
        assert_eq!(report.histograms[0].1.count, 1);
    }

    #[test]
    fn spans_nest_by_scope() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer");
            {
                let _inner = reg.span("inner");
            }
            {
                let _inner = reg.span("inner");
            }
        }
        let report = reg.report();
        let paths: Vec<(&str, u64)> = report
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(paths, vec![("outer", 1), ("outer/inner", 2)]);
    }

    #[test]
    fn absorb_prefixes_and_sums() {
        let session = Registry::new();
        let run = Registry::new();
        run.counter("core.election.won").add(3);
        run.histogram("core.task.latency_ms").observe(70.0);
        session.absorb("run1", &run.report());
        session.absorb("run2", &run.report());
        let report = session.report();
        assert_eq!(report.counter("run1.core.election.won"), Some(3));
        assert_eq!(report.counter("run2.core.election.won"), Some(3));
        assert_eq!(
            report
                .histogram("run1.core.task.latency_ms")
                .map(|h| h.count),
            Some(1)
        );
    }

    /// Pins the documented gauge semantics across both merge paths:
    /// counters sum, gauges are last-write-wins.
    #[test]
    fn absorb_and_merge_gauges_are_last_write_wins() {
        let early = Registry::new();
        early.gauge("core.balance.beta").set(1.5);
        early.counter("sim.packets.sent").add(10);
        let late = Registry::new();
        late.gauge("core.balance.beta").set(0.25);
        late.counter("sim.packets.sent").add(7);

        // Same prefix twice: the later absorb wins the gauge, counters sum.
        let session = Registry::new();
        session.absorb("run", &early.report());
        session.absorb("run", &late.report());
        let report = session.report();
        assert_eq!(report.gauge("run.core.balance.beta"), Some(0.25));
        assert_eq!(report.counter("run.sim.packets.sent"), Some(17));

        // TelemetryReport::merge applies the identical rule.
        let mut merged = early.report();
        merged.merge(&late.report());
        assert_eq!(merged.gauge("core.balance.beta"), Some(0.25));
        assert_eq!(merged.counter("sim.packets.sent"), Some(17));

        // Distinct prefixes keep both runs' gauges.
        let split = Registry::new();
        split.absorb("run1", &early.report());
        split.absorb("run2", &late.report());
        let report = split.report();
        assert_eq!(report.gauge("run1.core.balance.beta"), Some(1.5));
        assert_eq!(report.gauge("run2.core.balance.beta"), Some(0.25));
    }
}
