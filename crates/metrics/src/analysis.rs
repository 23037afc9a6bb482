//! Trace analysis: the miss-ratio, redundancy, overhead, and spatial
//! aggregates behind every evaluation figure.
//!
//! Everything is computed from the simulation [`Trace`] plus the
//! scenario's ground truth (source specs and node positions) — never from
//! protocol internals, mirroring how the paper post-processed collected
//! flash images.

use crate::intervals::IntervalSet;
use enviromic_sim::acoustics::{SourceId, SourceSpec};
use enviromic_sim::{RecordKind, Trace, TraceEvent};
use enviromic_types::{MsgKind, NodeId, Position, SimTime, JIFFIES_PER_SEC};
use std::collections::HashMap;

/// A trace paired with its ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Experiment<'a> {
    /// The simulation trace.
    pub trace: &'a Trace,
    /// Ground-truth acoustic sources.
    pub sources: &'a [SourceSpec],
    /// Node positions in node-ID order.
    pub positions: &'a [Position],
}

/// One point of a time series: `(seconds, value)`.
pub type SeriesPoint = (f64, f64);

/// The sampling grid every time series shares: `(t, t in jiffies)` for
/// `t` = `sample_secs`, `2 * sample_secs`, ... while `t` stays within
/// `horizon_secs`, accumulated by repeated addition.
///
/// # Panics
///
/// Panics unless `sample_secs` is positive and finite: a zero step
/// would never reach the horizon.
fn sample_grid(horizon_secs: f64, sample_secs: f64) -> impl Iterator<Item = (f64, u64)> {
    assert!(
        sample_secs.is_finite() && sample_secs > 0.0,
        "sample step must be positive and finite, got {sample_secs}"
    );
    std::iter::successors(Some(sample_secs), move |&t| Some(t + sample_secs))
        .take_while(move |&t| t <= horizon_secs + 1e-9)
        .map(|t| (t, (t * JIFFIES_PER_SEC as f64) as u64))
}

impl<'a> Experiment<'a> {
    /// Creates an experiment view.
    #[must_use]
    pub fn new(trace: &'a Trace, sources: &'a [SourceSpec], positions: &'a [Position]) -> Self {
        Experiment {
            trace,
            sources,
            positions,
        }
    }

    /// Attributes a recorded interval at `node` to the ground-truth source
    /// with the largest overlap among those audible near the node during
    /// the overlap, if any.
    ///
    /// Audibility is sampled at several instants with a 2× range slack: a
    /// recorder assigned while a mobile source was in range legitimately
    /// keeps recording for a task period as the source walks away, and
    /// that recording still belongs to the event.
    #[must_use]
    pub fn attribute(&self, node: NodeId, t0: SimTime, t1: SimTime) -> Option<SourceId> {
        let pos = *self.positions.get(node.index())?;
        let mut best: Option<(SourceId, u64)> = None;
        for s in self.sources {
            let a = t0.as_jiffies().max(s.start.as_jiffies());
            let b = t1.as_jiffies().min(s.stop.as_jiffies());
            if b <= a {
                continue;
            }
            let audible = (0..=4).any(|k| {
                let t = SimTime::from_jiffies(a + (b - a) * k / 4);
                s.motion.position_at(t).distance_to(pos) < s.range_ft * 2.0
            });
            if !audible {
                continue;
            }
            let overlap = b - a;
            if best.is_none_or(|(_, len)| overlap > len) {
                best = Some((s.id, overlap));
            }
        }
        best.map(|(id, _)| id)
    }

    /// Cumulative recording miss ratio sampled every `sample_secs`
    /// (Figs. 6 and 10): at each instant, one minus the fraction of
    /// so-far-elapsed event time covered by stored recordings.
    ///
    /// # Panics
    ///
    /// Panics unless `sample_secs` is positive and finite.
    #[must_use]
    pub fn miss_ratio_series(&self, horizon_secs: f64, sample_secs: f64) -> Vec<SeriesPoint> {
        // Collect attributed recorded intervals (clipped to their source's
        // active window) sorted by start.
        let mut recs: Vec<(u64, u64, SourceId)> = Vec::new();
        for e in self.trace.iter() {
            if let TraceEvent::Recorded { node, t0, t1, .. } = e {
                if let Some(src) = self.attribute(*node, *t0, *t1) {
                    let spec = &self.sources[self
                        .sources
                        .iter()
                        .position(|s| s.id == src)
                        .expect("attributed source exists")];
                    let a = t0.as_jiffies().max(spec.start.as_jiffies());
                    let b = t1.as_jiffies().min(spec.stop.as_jiffies());
                    if b > a {
                        recs.push((a, b, src));
                    }
                }
            }
        }
        recs.sort_unstable();

        let mut out = Vec::new();
        for (t, t_j) in sample_grid(horizon_secs, sample_secs) {
            // Elapsed event time.
            let mut active: u64 = 0;
            for s in self.sources {
                let a = s.start.as_jiffies();
                let b = s.stop.as_jiffies().min(t_j);
                if b > a {
                    active += b - a;
                }
            }
            // Covered (unique per source).
            let mut per_source: HashMap<SourceId, IntervalSet> = HashMap::new();
            for &(a, b, src) in &recs {
                if a >= t_j {
                    continue;
                }
                per_source.entry(src).or_default().add(a, b.min(t_j));
            }
            let covered: u64 = per_source.values().map(IntervalSet::total_len).sum();
            let miss = if active == 0 {
                0.0
            } else {
                1.0 - covered as f64 / active as f64
            };
            out.push((t, miss.clamp(0.0, 1.0)));
        }
        out
    }

    /// Whole-run miss ratio (the value at the end of the series).
    ///
    /// # Panics
    ///
    /// Panics unless `horizon_secs` is positive and finite.
    #[must_use]
    pub fn miss_ratio(&self, horizon_secs: f64) -> f64 {
        self.miss_ratio_series(horizon_secs, horizon_secs)
            .last()
            .map_or(0.0, |&(_, m)| m)
    }

    /// Stored-data redundancy ratio over time (Fig. 11): one minus the
    /// unique audio fraction of everything currently held in flash
    /// (duplicate simultaneous recordings *and* duplicated migrations
    /// count).
    ///
    /// # Panics
    ///
    /// Panics unless `sample_secs` is positive and finite.
    #[must_use]
    pub fn redundancy_series(&self, horizon_secs: f64, sample_secs: f64) -> Vec<SeriesPoint> {
        #[derive(Clone)]
        struct KeyInfo {
            count: i64,
            a: u64,
            b: u64,
            source: Option<SourceId>,
        }
        let mut keys: HashMap<(u32, u64), KeyInfo> = HashMap::new();
        let mut events = self.trace.iter().peekable();
        let mut out = Vec::new();
        for (t, t_j) in sample_grid(horizon_secs, sample_secs) {
            let t_j = SimTime::from_jiffies(t_j);
            while let Some(e) = events.peek() {
                if e.time() > t_j {
                    break;
                }
                match events.next().expect("peeked") {
                    TraceEvent::ChunkStored {
                        origin,
                        audio_t0,
                        audio_t1,
                        ..
                    } => {
                        let key = (origin.0, audio_t0.as_jiffies());
                        let entry = keys.entry(key).or_insert_with(|| KeyInfo {
                            count: 0,
                            a: audio_t0.as_jiffies(),
                            b: audio_t1.as_jiffies(),
                            source: self.attribute(*origin, *audio_t0, *audio_t1),
                        });
                        entry.count += 1;
                    }
                    TraceEvent::ChunkRemoved {
                        origin, audio_t0, ..
                    } => {
                        if let Some(entry) = keys.get_mut(&(origin.0, audio_t0.as_jiffies())) {
                            entry.count -= 1;
                        }
                    }
                    _ => {}
                }
            }
            let mut total: u64 = 0;
            let mut per_source: HashMap<Option<SourceId>, IntervalSet> = HashMap::new();
            for info in keys.values() {
                if info.count <= 0 || info.b <= info.a {
                    continue;
                }
                total += (info.b - info.a) * info.count as u64;
                per_source
                    .entry(info.source)
                    .or_default()
                    .add(info.a, info.b);
            }
            let unique: u64 = per_source.values().map(IntervalSet::total_len).sum();
            let ratio = if total == 0 {
                0.0
            } else {
                1.0 - unique as f64 / total as f64
            };
            out.push((t, ratio.clamp(0.0, 1.0)));
        }
        out
    }

    /// Cumulative count of messages of the given kinds over time
    /// (Fig. 12).
    ///
    /// # Panics
    ///
    /// Panics unless `sample_secs` is positive and finite.
    #[must_use]
    pub fn message_series(
        &self,
        kinds: &[MsgKind],
        horizon_secs: f64,
        sample_secs: f64,
    ) -> Vec<SeriesPoint> {
        let mut times: Vec<u64> = self
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MessageSent { kind, t, .. } if kinds.contains(kind) => {
                    Some(t.as_jiffies())
                }
                _ => None,
            })
            .collect();
        times.sort_unstable();
        sample_grid(horizon_secs, sample_secs)
            .map(|(t, t_j)| (t, times.partition_point(|&x| x <= t_j) as f64))
            .collect()
    }

    /// Per-node counts of the given message kinds (Fig. 14).
    #[must_use]
    pub fn per_node_message_counts(&self, kinds: &[MsgKind]) -> Vec<u64> {
        let mut counts = vec![0u64; self.positions.len()];
        for e in self.trace.iter() {
            if let TraceEvent::MessageSent { node, kind, .. } = e {
                if kinds.contains(kind) {
                    if let Some(c) = counts.get_mut(node.index()) {
                        *c += 1;
                    }
                }
            }
        }
        counts
    }

    /// Per-node bytes of audio *recorded by* that node (Fig. 17's "amount
    /// of acoustic data generated in different locations").
    #[must_use]
    pub fn per_node_recorded_bytes(&self) -> Vec<u64> {
        let mut bytes = vec![0u64; self.positions.len()];
        for e in self.trace.iter() {
            if let TraceEvent::Recorded { node, bytes: b, .. } = e {
                if let Some(slot) = bytes.get_mut(node.index()) {
                    *slot += b;
                }
            }
        }
        bytes
    }

    /// Per-node seconds of audio recorded within `[from, to)` seconds
    /// (Fig. 16's per-minute activity).
    #[must_use]
    pub fn recorded_secs_between(&self, from_secs: f64, to_secs: f64) -> f64 {
        let from = (from_secs * JIFFIES_PER_SEC as f64) as u64;
        let to = (to_secs * JIFFIES_PER_SEC as f64) as u64;
        let mut total = 0u64;
        for e in self.trace.iter() {
            if let TraceEvent::Recorded { t0, t1, .. } = e {
                let a = t0.as_jiffies().max(from);
                let b = t1.as_jiffies().min(to);
                total += b.saturating_sub(a);
            }
        }
        total as f64 / JIFFIES_PER_SEC as f64
    }

    /// Per-node used chunk slots at the occupancy poll nearest (at or
    /// before) `t_secs` (Fig. 13).
    #[must_use]
    pub fn occupancy_at(&self, t_secs: f64) -> Vec<u64> {
        let t_j = SimTime::from_jiffies((t_secs * JIFFIES_PER_SEC as f64) as u64);
        let mut used = vec![0u64; self.positions.len()];
        for e in self.trace.iter() {
            if let TraceEvent::Occupancy {
                node, used: u, t, ..
            } = e
            {
                if *t <= t_j {
                    if let Some(slot) = used.get_mut(node.index()) {
                        *slot = *u;
                    }
                }
            }
        }
        used
    }

    /// Final per-holder payload bytes of chunks originally recorded by
    /// `origin` (Fig. 18's migration map). The origin's own holdings are
    /// reported too (index `origin`).
    #[must_use]
    pub fn final_holdings_of_origin(&self, origin: NodeId) -> Vec<u64> {
        let mut holdings = vec![0i64; self.positions.len()];
        for e in self.trace.iter() {
            match e {
                TraceEvent::ChunkStored {
                    node,
                    origin: o,
                    bytes,
                    ..
                } if *o == origin => {
                    if let Some(slot) = holdings.get_mut(node.index()) {
                        *slot += i64::from(*bytes);
                    }
                }
                TraceEvent::ChunkRemoved {
                    node,
                    origin: o,
                    audio_t0,
                    audio_t1,
                    ..
                } if *o == origin => {
                    let bytes = (audio_t1.saturating_since(*audio_t0).as_secs_f64()
                        * f64::from(enviromic_types::audio::BYTES_PER_SEC))
                    .round() as i64;
                    if let Some(slot) = holdings.get_mut(node.index()) {
                        *slot -= bytes;
                    }
                }
                _ => {}
            }
        }
        holdings.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// The node that recorded the most audio (the Fig. 18 hotspot).
    #[must_use]
    pub fn hotspot_recorder(&self) -> Option<NodeId> {
        let bytes = self.per_node_recorded_bytes();
        bytes
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .filter(|(_, &b)| b > 0)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Total seconds recorded under each [`RecordKind`].
    #[must_use]
    pub fn recorded_secs_by_kind(&self) -> HashMap<RecordKind, f64> {
        let mut map = HashMap::new();
        for e in self.trace.iter() {
            if let TraceEvent::Recorded { t0, t1, kind, .. } = e {
                *map.entry(*kind).or_insert(0.0) += t1.saturating_since(*t0).as_secs_f64();
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_sim::acoustics::{Motion, Waveform};
    use enviromic_types::SimDuration;

    fn source(id: u32, pos: Position, start_s: f64, stop_s: f64) -> SourceSpec {
        SourceSpec {
            id: SourceId(id),
            start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(stop_s),
            amplitude: 100.0,
            range_ft: 5.0,
            motion: Motion::Static(pos),
            waveform: Waveform::Noise,
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn recorded(node: u32, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent::Recorded {
            node: NodeId(node),
            event: None,
            t0: t(t0),
            t1: t(t1),
            bytes: ((t1 - t0) * 2730.0) as u64,
            kind: RecordKind::Task,
        }
    }

    #[test]
    fn attribution_requires_audibility_and_overlap() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0), Position::new(100.0, 0.0)];
        let trace = Trace::new();
        let exp = Experiment::new(&trace, &sources, &positions);
        assert_eq!(exp.attribute(NodeId(0), t(1.0), t(2.0)), Some(SourceId(1)));
        // Out of range.
        assert_eq!(exp.attribute(NodeId(1), t(1.0), t(2.0)), None);
        // No temporal overlap.
        assert_eq!(exp.attribute(NodeId(0), t(11.0), t(12.0)), None);
    }

    #[test]
    fn miss_ratio_full_coverage_is_zero() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0)];
        let trace: Trace = vec![recorded(0, 0.0, 10.0)].into_iter().collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let miss = exp.miss_ratio(10.0);
        assert!(miss.abs() < 1e-6, "miss {miss}");
    }

    #[test]
    fn miss_ratio_half_coverage() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0)];
        // Two nodes record the same first half: redundant, still 50% miss.
        let trace: Trace = vec![recorded(0, 0.0, 5.0), recorded(0, 0.0, 5.0)]
            .into_iter()
            .collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let miss = exp.miss_ratio(10.0);
        assert!((miss - 0.5).abs() < 1e-6, "miss {miss}");
    }

    #[test]
    fn miss_ratio_series_is_cumulative() {
        let sources = [
            source(1, Position::new(0.0, 0.0), 0.0, 10.0),
            source(2, Position::new(0.0, 0.0), 20.0, 30.0),
        ];
        let positions = [Position::new(1.0, 0.0)];
        // First event fully recorded, second missed entirely.
        let trace: Trace = vec![recorded(0, 0.0, 10.0)].into_iter().collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let series = exp.miss_ratio_series(30.0, 10.0);
        assert_eq!(series.len(), 3);
        assert!(series[0].1 < 1e-6, "covered so far");
        assert!((series[2].1 - 0.5).abs() < 1e-6, "half missed at the end");
    }

    #[test]
    #[should_panic(expected = "sample step must be positive and finite")]
    fn zero_horizon_miss_ratio_is_rejected() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0)];
        let trace: Trace = vec![recorded(0, 0.0, 10.0)].into_iter().collect();
        let _ = Experiment::new(&trace, &sources, &positions).miss_ratio(0.0);
    }

    fn stored(node: u32, origin: u32, a: f64, b: f64) -> TraceEvent {
        TraceEvent::ChunkStored {
            node: NodeId(node),
            origin: NodeId(origin),
            event: None,
            audio_t0: t(a),
            audio_t1: t(b),
            bytes: ((b - a) * 2730.0) as u32,
            t: t(b),
        }
    }

    #[test]
    fn redundancy_counts_duplicate_copies() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0), Position::new(2.0, 0.0)];
        // The same audio second stored on two nodes by two recorders.
        let trace: Trace = vec![stored(0, 0, 0.0, 1.0), stored(1, 1, 0.0, 1.0)]
            .into_iter()
            .collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let series = exp.redundancy_series(2.0, 2.0);
        assert!((series[0].1 - 0.5).abs() < 1e-6, "got {:?}", series);
    }

    #[test]
    fn redundancy_zero_for_distinct_audio() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0)];
        let trace: Trace = vec![stored(0, 0, 0.0, 1.0), stored(0, 0, 1.0, 2.0)]
            .into_iter()
            .collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let series = exp.redundancy_series(2.0, 2.0);
        assert!(series[0].1 < 1e-6, "got {:?}", series);
    }

    #[test]
    fn migration_dedup_via_removal() {
        let sources = [source(1, Position::new(0.0, 0.0), 0.0, 10.0)];
        let positions = [Position::new(1.0, 0.0), Position::new(2.0, 0.0)];
        // Chunk stored at node 0, copied to node 1, then removed from 0:
        // transiently duplicated, finally unique.
        let mut events = vec![stored(0, 0, 0.0, 1.0)];
        let mut copy = stored(1, 0, 0.0, 1.0);
        if let TraceEvent::ChunkStored { t, .. } = &mut copy {
            *t = self::t(5.0);
        }
        events.push(copy);
        events.push(TraceEvent::ChunkRemoved {
            node: NodeId(0),
            origin: NodeId(0),
            audio_t0: t(0.0),
            audio_t1: t(1.0),
            t: t(6.0),
        });
        let trace: Trace = events.into_iter().collect();
        let exp = Experiment::new(&trace, &sources, &positions);
        let series = exp.redundancy_series(10.0, 5.0);
        assert!((series[0].1 - 0.5).abs() < 1e-6, "duplicated at t=5");
        assert!(series[1].1 < 1e-6, "unique at t=10: {:?}", series);
    }

    #[test]
    fn message_series_counts_selected_kinds() {
        let trace: Trace = vec![
            TraceEvent::MessageSent {
                node: NodeId(0),
                kind: MsgKind::TaskRequest,
                bytes: 10,
                t: t(1.0),
            },
            TraceEvent::MessageSent {
                node: NodeId(0),
                kind: MsgKind::Sensing,
                bytes: 10,
                t: t(2.0),
            },
            TraceEvent::MessageSent {
                node: NodeId(1),
                kind: MsgKind::TaskRequest,
                bytes: 10,
                t: t(3.0),
            },
        ]
        .into_iter()
        .collect();
        let positions = [Position::new(0.0, 0.0), Position::new(1.0, 0.0)];
        let exp = Experiment::new(&trace, &[], &positions);
        let series = exp.message_series(&[MsgKind::TaskRequest], 4.0, 2.0);
        assert_eq!(series, vec![(2.0, 1.0), (4.0, 2.0)]);
        assert_eq!(
            exp.per_node_message_counts(&[MsgKind::TaskRequest]),
            vec![1, 1]
        );
    }

    #[test]
    fn holdings_follow_chunk_moves() {
        let positions = [Position::new(0.0, 0.0), Position::new(1.0, 0.0)];
        let trace: Trace = vec![
            stored(0, 0, 0.0, 1.0),
            stored(1, 0, 0.0, 1.0),
            TraceEvent::ChunkRemoved {
                node: NodeId(0),
                origin: NodeId(0),
                audio_t0: t(0.0),
                audio_t1: t(1.0),
                t: t(2.0),
            },
        ]
        .into_iter()
        .collect();
        let exp = Experiment::new(&trace, &[], &positions);
        let holdings = exp.final_holdings_of_origin(NodeId(0));
        assert_eq!(holdings[0], 0);
        assert!(holdings[1] > 2000, "{holdings:?}");
    }
}
