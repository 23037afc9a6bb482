//! The indexed archive store and its range queries.
//!
//! Records enter through an [`ArchiveBuilder`] (which deduplicates the
//! copies storage balancing scattered across the network) and are frozen
//! into an [`ArchiveStore`]: records in canonical order, where a query's
//! candidates are one contiguous run found by binary search on the audio
//! start time. The store is immutable and `Sync`, so a worker pool can
//! serve queries from a shared `&` with no locking.

use enviromic_types::{EventId, NodeId, SimTime};
use serde::Serialize;
use std::collections::HashSet;

/// FNV-1a offset basis (the digest of an empty result).
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds the eight little-endian bytes of `v` into the FNV-1a state `h`.
/// A zero byte's `h ^= 0` does nothing, so a run of `k` zero bytes folds
/// as one multiply by `FNV_PRIME^k`; node IDs, sequence numbers and jiffy
/// times leave most bytes zero. Runs below a non-zero byte fold in the
/// loop, and the run above the highest one folds last.
pub(crate) fn fnv_fold(mut h: u64, mut v: u64) -> u64 {
    let high_zeros = v.leading_zeros() / 8;
    while v != 0 {
        let zeros = v.trailing_zeros() / 8;
        if zeros > 0 {
            v >>= 8 * zeros;
            h = h.wrapping_mul(FNV_PRIME_POW[zeros as usize]);
        }
        h = (h ^ (v & 0xFF)).wrapping_mul(FNV_PRIME);
        v >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[high_zeros as usize])
}

/// One collected chunk as the archive sees it: pure metadata. Payloads
/// stay on whatever medium the collection produced (the archive indexes
/// and serves *which* audio exists where; bulk audio bytes are fetched
/// separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ArchiveRecord {
    /// The node that recorded the audio.
    pub origin: NodeId,
    /// The event (file) ID, when the recording was coordinated.
    pub event: Option<EventId>,
    /// Audio interval start (recorder's global-time estimate).
    pub t0: SimTime,
    /// Audio interval end.
    pub t1: SimTime,
    /// Payload bytes.
    pub bytes: u32,
    /// The node holding the chunk when it was collected.
    pub holder: NodeId,
}

impl ArchiveRecord {
    /// Folds the record into an FNV-1a digest. Field order is part of
    /// the committed `BENCH_retrieval.json` contract.
    fn fold_digest(&self, mut h: u64) -> u64 {
        h = fnv_fold(h, u64::from(self.origin.0));
        h = fnv_fold(
            h,
            self.event.map_or(u64::MAX, |e| {
                (u64::from(e.leader().0) << 32) | u64::from(e.seq())
            }),
        );
        h = fnv_fold(h, self.t0.as_jiffies());
        h = fnv_fold(h, self.t1.as_jiffies());
        h = fnv_fold(h, u64::from(self.bytes));
        fnv_fold(h, u64::from(self.holder.0))
    }
}

/// What the builder saw while ingesting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Unique records accepted.
    pub records: u64,
    /// Copies dropped because the same recorded interval (origin, t0)
    /// was already present — storage balancing migrates chunks, so a
    /// collection run sees the same audio at several holders.
    pub duplicates: u64,
}

/// Accumulates collected chunks, then freezes them into an
/// [`ArchiveStore`].
#[derive(Debug, Default)]
pub struct ArchiveBuilder {
    records: Vec<ArchiveRecord>,
    seen: HashSet<(u32, u64)>,
    stats: IngestStats,
}

impl ArchiveBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        ArchiveBuilder::default()
    }

    /// Ingests one record, deduplicating by recorded interval
    /// `(origin, t0)` — first holder wins, so ingest order (trace order)
    /// decides which copy the archive points at, deterministically.
    pub fn ingest(&mut self, record: ArchiveRecord) {
        let key = (record.origin.0, record.t0.as_jiffies());
        if self.seen.insert(key) {
            self.records.push(record);
            self.stats.records += 1;
        } else {
            self.stats.duplicates += 1;
        }
    }

    /// Ingest statistics so far.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Freezes the builder into a queryable store.
    #[must_use]
    pub fn build(self) -> ArchiveStore {
        let ArchiveBuilder {
            mut records, stats, ..
        } = self;
        // Canonical record order: by audio start, then origin, then end.
        // Every query result is a subsequence of this order, which is
        // what makes result digests independent of worker scheduling.
        records.sort_by_key(|r| (r.t0, r.origin, r.t1));
        let max_span = records
            .iter()
            .map(|r| r.t1.saturating_since(r.t0).as_jiffies())
            .max()
            .unwrap_or(0);
        let span = records
            .first()
            .map(|r| r.t0)
            .zip(records.iter().map(|r| r.t1).max());
        ArchiveStore {
            records,
            max_span,
            span,
            stats,
        }
    }
}

/// A time × origin × event range scan. `None` filters match everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct RangeQuery {
    /// Window start (inclusive).
    pub t0: SimTime,
    /// Window end (exclusive).
    pub t1: SimTime,
    /// Keep only records recorded by this node.
    pub origin: Option<NodeId>,
    /// Keep only records of this event file.
    pub event: Option<EventId>,
}

impl RangeQuery {
    /// A scan over `[t0, t1)` with no origin/event filter.
    #[must_use]
    pub fn window(t0: SimTime, t1: SimTime) -> Self {
        RangeQuery {
            t0,
            t1,
            origin: None,
            event: None,
        }
    }

    /// Does `record` fall in this query's window and filters? A record
    /// matches when its audio span overlaps `[t0, t1)`; an empty or
    /// reversed window (`t1 <= t0`) matches nothing.
    #[must_use]
    pub fn matches(&self, record: &ArchiveRecord) -> bool {
        self.t0 < self.t1
            && record.t1 > self.t0
            && record.t0 < self.t1
            && self.origin.is_none_or(|o| record.origin == o)
            && self.event.is_none_or(|e| record.event == Some(e))
    }
}

/// The answer to a [`RangeQuery`]: matching record indices in canonical
/// store order, plus summary figures and the determinism digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Indices into [`ArchiveStore::records`], ascending.
    pub indices: Vec<u32>,
    /// Total payload bytes across the matches.
    pub bytes: u64,
    /// Order-sensitive FNV-1a digest over the matched records.
    pub digest: u64,
}

impl QueryResult {
    /// Number of matched records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when nothing matched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// The frozen, queryable archive: records in canonical order, plus the
/// longest record span and the archive's span, both worked out at build.
/// Immutable after build, so `&ArchiveStore` can be shared across query
/// workers without locks.
#[derive(Debug)]
pub struct ArchiveStore {
    records: Vec<ArchiveRecord>,
    /// The longest `t1 - t0` of any record, in jiffies: a record that
    /// ends after `t` starts after `t - max_span`.
    max_span: u64,
    span: Option<(SimTime, SimTime)>,
    stats: IngestStats,
}

impl ArchiveStore {
    /// The records, in canonical order.
    #[must_use]
    pub fn records(&self) -> &[ArchiveRecord] {
        &self.records
    }

    /// Number of archived records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the archive holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// What ingest saw (unique records, duplicate copies dropped).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.stats
    }

    /// The `[earliest t0, latest t1]` span of the archived audio, or
    /// `None` when empty.
    #[must_use]
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        self.span
    }

    /// The distinct origin nodes present, ascending.
    #[must_use]
    pub fn origins(&self) -> Vec<NodeId> {
        let mut origins: Vec<NodeId> = self.records.iter().map(|r| r.origin).collect();
        origins.sort_unstable();
        origins.dedup();
        origins
    }

    /// Answers `query`. Records are sorted by `t0`, so the candidates are
    /// the contiguous run that starts after `query.t0 - max_span` (an
    /// earlier record ends by `query.t0`) and before `query.t1`; each is
    /// then checked precisely. The run is in canonical order, so the
    /// result equals a full scan (the oracle tests in
    /// `tests/archive_serving.rs`) with nothing to sort or dedup.
    #[must_use]
    pub fn query(&self, query: &RangeQuery) -> QueryResult {
        let mut result = QueryResult {
            indices: Vec::new(),
            bytes: 0,
            digest: FNV_OFFSET,
        };
        if query.t1 > query.t0 {
            let earliest = query.t0.as_jiffies().saturating_sub(self.max_span);
            let lo = self
                .records
                .partition_point(|r| r.t0.as_jiffies() < earliest);
            let hi = lo + self.records[lo..].partition_point(|r| r.t0 < query.t1);
            for (i, r) in (lo..).zip(&self.records[lo..hi]) {
                if query.matches(r) {
                    #[allow(clippy::cast_possible_truncation)]
                    result.indices.push(i as u32);
                    result.bytes += u64::from(r.bytes);
                    result.digest = r.fold_digest(result.digest);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_types::SimDuration;
    use proptest::prelude::*;

    fn rec(origin: u32, t0: f64, t1: f64) -> ArchiveRecord {
        ArchiveRecord {
            origin: NodeId(origin),
            event: None,
            t0: SimTime::ZERO + SimDuration::from_secs_f64(t0),
            t1: SimTime::ZERO + SimDuration::from_secs_f64(t1),
            bytes: 232,
            holder: NodeId(origin),
        }
    }

    fn q(t0: f64, t1: f64) -> RangeQuery {
        RangeQuery::window(
            SimTime::ZERO + SimDuration::from_secs_f64(t0),
            SimTime::ZERO + SimDuration::from_secs_f64(t1),
        )
    }

    fn store(records: impl IntoIterator<Item = ArchiveRecord>) -> ArchiveStore {
        let mut b = ArchiveBuilder::new();
        for r in records {
            b.ingest(r);
        }
        b.build()
    }

    #[test]
    fn window_query_returns_overlapping_records_in_order() {
        let s = store([rec(2, 10.0, 11.0), rec(1, 0.0, 1.0), rec(1, 5.0, 6.0)]);
        let res = s.query(&q(0.5, 5.5));
        assert_eq!(res.len(), 2);
        let hits: Vec<(u32, f64)> = res
            .indices
            .iter()
            .map(|&i| {
                let r = &s.records()[i as usize];
                (r.origin.0, r.t0.as_secs_f64())
            })
            .collect();
        assert_eq!(hits, vec![(1, 0.0), (1, 5.0)]);
        assert_eq!(res.bytes, 464);
    }

    #[test]
    fn origin_and_event_filters_narrow() {
        let ev = EventId::new(NodeId(7), 1);
        let mut a = rec(1, 0.0, 1.0);
        a.event = Some(ev);
        let s = store([a, rec(2, 0.0, 1.0)]);
        let mut by_origin = q(0.0, 2.0);
        by_origin.origin = Some(NodeId(2));
        assert_eq!(s.query(&by_origin).len(), 1);
        let mut by_event = q(0.0, 2.0);
        by_event.event = Some(ev);
        let res = s.query(&by_event);
        assert_eq!(res.len(), 1);
        assert_eq!(s.records()[res.indices[0] as usize].origin, NodeId(1));
    }

    #[test]
    fn duplicates_are_dropped_first_holder_wins() {
        let mut b = ArchiveBuilder::new();
        let mut first = rec(1, 0.0, 1.0);
        first.holder = NodeId(9);
        b.ingest(first);
        let mut copy = rec(1, 0.0, 1.0);
        copy.holder = NodeId(4);
        b.ingest(copy);
        assert_eq!(
            b.stats(),
            IngestStats {
                records: 1,
                duplicates: 1
            }
        );
        let s = b.build();
        assert_eq!(s.len(), 1);
        assert_eq!(s.records()[0].holder, NodeId(9));
    }

    #[test]
    fn empty_window_and_reversed_window_match_nothing() {
        // The [0 s, 10 s) record spans every window's bounds.
        let s = store([rec(1, 0.0, 1.0), rec(2, 0.0, 10.0)]);
        for w in [q(0.5, 0.5), q(3.0, 2.0), q(5.0, 3.0)] {
            let res = s.query(&w);
            assert!(res.is_empty(), "{w:?} found {:?}", res.indices);
            assert_eq!(res.digest, FNV_OFFSET);
            for r in s.records() {
                assert!(!w.matches(r), "{w:?} matches {r:?}");
            }
        }
    }

    #[test]
    fn long_record_appears_once_in_a_wider_window() {
        let s = store([rec(1, 1.0, 31.0)]);
        let res = s.query(&q(0.0, 40.0));
        assert_eq!(res.indices, vec![0]);
    }

    #[test]
    fn span_and_origins_summarize() {
        let s = store([rec(3, 4.0, 5.0), rec(1, 0.0, 9.0), rec(3, 1.0, 2.0)]);
        let (lo, hi) = s.span().unwrap();
        assert_eq!(lo.as_secs_f64(), 0.0);
        assert_eq!(hi.as_secs_f64(), 9.0);
        assert_eq!(s.origins(), vec![NodeId(1), NodeId(3)]);
        assert!(ArchiveBuilder::new().build().span().is_none());
    }

    /// Byte-serial FNV-1a, the reference `fnv_fold` must equal.
    fn fnv1a_reference(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Arbitrary words, the all-zero and all-ones words, words with one
    /// non-zero byte, and all-non-zero words with one zero run inside.
    fn fold_input() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(0),
            Just(u64::MAX),
            (0u32..8, 1u64..=255).prop_map(|(at, b)| b << (8 * at)),
            (any::<u64>(), 0u32..8, 1u32..8).prop_map(|(v, at, len)| {
                let run = u64::MAX >> (64 - 8 * len.min(8 - at)) << (8 * at);
                (v | 0x0101_0101_0101_0101) & !run
            }),
        ]
    }

    proptest! {
        #[test]
        fn fnv_fold_equals_byte_serial_fnv1a(
            h in any::<u64>(),
            words in proptest::collection::vec(fold_input(), 1..64),
        ) {
            let (mut fast, mut reference) = (h, h);
            for &v in &words {
                fast = fnv_fold(fast, v);
                reference = fnv1a_reference(reference, v);
                prop_assert_eq!(fast, reference, "after {:#018x}", v);
            }
        }
    }
}
