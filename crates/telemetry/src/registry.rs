//! The metrics registry and its counter handles.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::histogram::Histogram;
use crate::report::TelemetryReport;

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

#[derive(Debug, Default)]
struct Inner {
    counters: RefCell<BTreeMap<String, Counter>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
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

    /// The histogram registered under `name` (created on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&self.inner.histograms, name)
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
        let histograms = self
            .inner
            .histograms
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        TelemetryReport {
            counters,
            histograms,
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
        reg.histogram("h.lat").observe(3.0);
        let report = reg.report();
        assert_eq!(
            report.counters,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 3)]
        );
        assert_eq!(report.histograms[0].1.count, 1);
    }

    /// Pins the documented merge semantics: counters sum.
    #[test]
    fn merge_sums_counters() {
        let early = Registry::new();
        early.counter("sim.packets.sent").add(10);
        let late = Registry::new();
        late.counter("sim.packets.sent").add(7);

        let mut merged = early.report();
        merged.merge(&late.report());
        assert_eq!(merged.counter("sim.packets.sent"), Some(17));
    }
}
