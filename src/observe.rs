//! Run dumps and offline trace exploration.
//!
//! A dump holds a run's [`TraceEvent`]s as they were recorded: the
//! records serialize and deserialize losslessly, so the explorer reads
//! back exactly what the simulator emitted. This module owns the
//! [`RunDump`]/[`DumpFile`] containers the `--timeline-out` flags write
//! and the `trace` explorer binary reads. [`TraceFilter`] answers the
//! explorer's node / event-kind / time-window queries, and the rendering
//! helpers produce the per-node ledgers and summaries it prints.

use crate::harness::ExperimentRun;
use crate::sim::TraceEvent;
use enviromic_archive::{ArchiveBuilder, ArchiveRecord, ArchiveStore};
use enviromic_core::RerequestPlan;
use enviromic_telemetry::TimelineReport;
use enviromic_types::{NodeId, SimDuration};
use serde::{Deserialize, Serialize};

/// One dumped run: identity, golden digest, and (optionally) the full
/// event ledger and metric timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDump {
    /// Scenario label (e.g. `quick-indoor`).
    pub label: String,
    /// The run's seed.
    pub seed: u64,
    /// Trace digest as a `0x`-prefixed hex string.
    pub digest: String,
    /// The trace's records; empty when the dump was written
    /// timeline-only.
    pub events: Vec<TraceEvent>,
    /// The run's sim-time metric timeline, when sampling was enabled.
    pub timeline: Option<TimelineReport>,
}

impl RunDump {
    /// Captures `run` under `label`/`seed`. `with_events` controls whether
    /// the (large) event ledger is included or only digest + timeline.
    #[must_use]
    pub fn from_run(label: &str, seed: u64, run: &ExperimentRun, with_events: bool) -> RunDump {
        RunDump {
            label: label.to_string(),
            seed,
            digest: format!("{:#018x}", run.trace.digest()),
            events: if with_events {
                run.trace.events().to_vec()
            } else {
                Vec::new()
            },
            timeline: run.timeline.clone(),
        }
    }

    /// The time span `[first, last]` covered by the dumped events, in
    /// seconds; `None` when no events were dumped.
    #[must_use]
    pub fn span_secs(&self) -> Option<(f64, f64)> {
        let mut times = self.events.iter().map(|e| e.time().as_secs_f64());
        let first = times.next()?;
        let (lo, hi) = times.fold((first, first), |(lo, hi), t| (lo.min(t), hi.max(t)));
        Some((lo, hi))
    }
}

/// A file of dumped runs — what `--timeline-out` writes and the `trace`
/// explorer loads.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DumpFile {
    /// The dumped runs, in the order they were produced.
    pub runs: Vec<RunDump>,
}

impl DumpFile {
    /// Serializes the dump as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_value(self).to_json_pretty()
    }

    /// Parses a dump back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed JSON or mismatched shape.
    pub fn from_json(text: &str) -> Result<DumpFile, String> {
        let value = serde::Value::from_json(text).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
    }
}

/// Exports a completed run into the basestation archive: every
/// `ChunkStored` trace event becomes an [`ArchiveRecord`] (origin, event
/// ID, audio window, holder), with the copies that storage balancing
/// scattered across the network deduplicated by recorded interval. The
/// result is the run's cumulative storage ledger — what a basestation
/// that observed every store would hold — frozen into a queryable
/// [`ArchiveStore`].
#[must_use]
pub fn archive_run(run: &ExperimentRun) -> ArchiveStore {
    archive_events(&run.trace)
}

/// Like [`archive_run`], from a previously written [`RunDump`] — the
/// offline path: dump a run once, rebuild the archive from the file.
#[must_use]
pub fn archive_dump(dump: &RunDump) -> ArchiveStore {
    archive_events(&dump.events)
}

fn archive_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> ArchiveStore {
    let mut builder = ArchiveBuilder::new();
    for e in events {
        if let TraceEvent::ChunkStored {
            node,
            origin,
            event,
            audio_t0,
            audio_t1,
            bytes,
            ..
        } = *e
        {
            builder.ingest(ArchiveRecord {
                origin,
                event,
                t0: audio_t0,
                t1: audio_t1,
                bytes,
                holder: node,
            });
        }
    }
    builder.build()
}

/// Scans `store` for coverage holes wider than `tolerance` and batches
/// them into a spanning-tree re-request plan with the given merge
/// `slack` — the bridge from the archive's gap detector to the protocol
/// layer's [`RerequestPlan`].
#[must_use]
pub fn rerequest_plan(
    store: &ArchiveStore,
    tolerance: SimDuration,
    slack: SimDuration,
) -> RerequestPlan {
    RerequestPlan::build(&enviromic_archive::find_gaps(store, tolerance), slack)
}

/// A node / event-kind / time-window query over trace records.
/// `None` fields match everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFilter {
    /// Keep records involving this node.
    pub node: Option<u32>,
    /// Keep records of this kind: a variant name (`Migrated`) or a
    /// protocol label (`TASK_REQUEST`, `CRASH`), case-insensitive.
    pub kind: Option<String>,
    /// Keep records at or after this many seconds of sim-time.
    pub from_secs: Option<f64>,
    /// Keep records at or before this many seconds of sim-time.
    pub to_secs: Option<f64>,
}

impl TraceFilter {
    /// Does `record` pass every set criterion?
    #[must_use]
    pub fn matches(&self, record: &TraceEvent) -> bool {
        if let Some(node) = self.node {
            if !record.involves(NodeId(node)) {
                return false;
            }
        }
        if let Some(kind) = &self.kind {
            let by_variant = record.kind_name().eq_ignore_ascii_case(kind);
            let by_label = record.label().is_some_and(|l| l.eq_ignore_ascii_case(kind));
            if !by_variant && !by_label {
                return false;
            }
        }
        let t = record.time().as_secs_f64();
        if self.from_secs.is_some_and(|from| t < from) {
            return false;
        }
        if self.to_secs.is_some_and(|to| t > to) {
            return false;
        }
        true
    }

    /// The records of `events` passing the filter, in order.
    #[must_use]
    pub fn apply<'a>(&self, events: &'a [TraceEvent]) -> Vec<&'a TraceEvent> {
        events.iter().filter(|e| self.matches(e)).collect()
    }
}

/// `(kind, count)` for every record kind present, sorted by descending
/// count then name.
#[must_use]
pub fn kind_counts<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for e in events {
        let key = match e.label() {
            Some(label) => format!("{}/{}", e.kind_name(), label),
            None => e.kind_name().to_string(),
        };
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counts
}

/// Renders records as a time-ordered ledger, one line per record.
#[must_use]
pub fn render_ledger<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("  {:>10.3}s  {e:?}\n", e.time().as_secs_f64()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{indoor_world_config, run_scenario};
    use enviromic_core::{Mode, NodeConfig};
    use enviromic_types::SimDuration;
    use enviromic_workloads::{indoor_scenario, IndoorParams};

    fn quick_run(timeline: bool) -> ExperimentRun {
        let params = IndoorParams {
            duration_secs: 20.0,
            ..IndoorParams::default()
        };
        let scenario = indoor_scenario(&params, 7);
        let cfg = NodeConfig::default().with_mode(Mode::Full);
        let mut wcfg = indoor_world_config(7);
        if timeline {
            wcfg.timeline_sample_period = Some(SimDuration::from_secs_f64(5.0));
        }
        run_scenario(scenario, &cfg, wcfg, 2.0)
    }

    #[test]
    fn dump_round_trips_with_events_and_timeline() {
        let run = quick_run(true);
        let dump = DumpFile {
            runs: vec![RunDump::from_run("quick-indoor", 7, &run, true)],
        };
        let back = DumpFile::from_json(&dump.to_json()).expect("parses");
        assert_eq!(back, dump);
        let r = &back.runs[0];
        assert_eq!(
            r.events,
            run.trace.events(),
            "the dump reads back the trace"
        );
        assert!(r.digest.starts_with("0x"));
        assert!(r.timeline.is_some(), "timeline captured");
        assert!(r.span_secs().is_some());
    }

    #[test]
    fn eventless_dump_keeps_digest_and_timeline() {
        let run = quick_run(true);
        let dump = RunDump::from_run("quick-indoor", 7, &run, false);
        assert!(dump.events.is_empty());
        assert!(dump.timeline.is_some());
        assert_eq!(dump.span_secs(), None);
    }

    #[test]
    fn filter_answers_node_kind_and_window_queries() {
        let run = quick_run(false);
        let events = run.trace.events();

        let by_node = TraceFilter {
            node: Some(0),
            ..TraceFilter::default()
        };
        let node_events = by_node.apply(events);
        assert!(!node_events.is_empty(), "node 0 did something");
        assert!(node_events.iter().all(|e| e.involves(NodeId(0))));

        let by_kind = TraceFilter {
            kind: Some("messagesent".into()),
            ..TraceFilter::default()
        };
        let sent = by_kind.apply(events);
        assert!(!sent.is_empty());
        assert!(sent
            .iter()
            .all(|e| matches!(e, TraceEvent::MessageSent { .. })));

        // A protocol label narrows further than the variant name.
        let by_label = TraceFilter {
            kind: Some("SENSING".into()),
            ..TraceFilter::default()
        };
        assert!(by_label.apply(events).len() <= sent.len());

        let windowed = TraceFilter {
            from_secs: Some(5.0),
            to_secs: Some(10.0),
            ..TraceFilter::default()
        };
        let in_window = windowed.apply(events);
        assert!(!in_window.is_empty());
        assert!(in_window
            .iter()
            .all(|e| (5.0..=10.0).contains(&e.time().as_secs_f64())));

        // Composed criteria intersect.
        let both = TraceFilter {
            node: Some(0),
            kind: Some("MessageSent".into()),
            from_secs: Some(5.0),
            to_secs: Some(10.0),
        };
        for e in both.apply(events) {
            assert!(e.involves(NodeId(0)));
            assert_eq!(e.kind_name(), "MessageSent");
        }
    }

    #[test]
    fn counts_and_ledger_render() {
        let run = quick_run(false);
        let events = run.trace.events();
        let counts = kind_counts(events);
        assert!(!counts.is_empty());
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, events.len(), "every record counted once");
        assert!(counts.windows(2).all(|w| w[0].1 >= w[1].1), "sorted desc");
        let ledger = render_ledger(events.iter().take(3));
        assert_eq!(ledger.lines().count(), 3);
        assert!(ledger.contains('s'));
    }

    #[test]
    fn archive_from_run_and_dump_agree() {
        let run = quick_run(false);
        let stored = run
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::ChunkStored { .. }))
            .count() as u64;
        assert!(stored > 0, "the quick run stores chunks");

        let from_run = archive_run(&run);
        let ingest = from_run.ingest_stats();
        assert_eq!(ingest.records + ingest.duplicates, stored);
        assert!(!from_run.is_empty());

        let dump = RunDump::from_run("quick-indoor", 7, &run, true);
        let from_dump = archive_dump(&dump);
        assert_eq!(from_run.records(), from_dump.records());
        assert_eq!(from_run.ingest_stats(), from_dump.ingest_stats());
    }

    #[test]
    fn archived_run_answers_whole_span_query() {
        let run = quick_run(false);
        let store = archive_run(&run);
        let (t0, t1) = store.span().expect("non-empty archive has a span");
        let all = store.query(&enviromic_archive::RangeQuery::window(t0, t1));
        assert_eq!(all.len(), store.len(), "whole-span query matches all");
    }

    #[test]
    fn rerequest_plan_covers_archive_gaps() {
        let run = quick_run(false);
        let store = archive_run(&run);
        let tolerance = SimDuration::from_secs_f64(0.5);
        let gaps = enviromic_archive::find_gaps(&store, tolerance);
        let plan = rerequest_plan(&store, tolerance, SimDuration::from_secs_f64(1.0));
        if gaps.is_empty() {
            assert!(plan.is_empty());
        } else {
            assert!(!plan.is_empty());
            for g in &gaps {
                assert!(plan.covers(g.t0, g.t1), "gap {g:?} covered by the plan");
            }
        }
    }
}
