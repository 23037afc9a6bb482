//! Gap detection: which audio ranges are missing from the archive.
//!
//! Retrieval over the unreliable spanning-tree path loses chunks; the
//! archive notices because an origin's timeline has holes. The detector
//! scans each origin's merged coverage and reports every internal hole
//! wider than a tolerance as a [`GapRange`]. `enviromic-core` turns the
//! ranges into **batched** re-request queries — nearby holes across
//! origins share one spanning-tree query instead of flooding the network
//! once per hole (see `RerequestPlan` there).

use crate::store::ArchiveStore;
use enviromic_types::{GapRange, NodeId, SimDuration, SimTime};

/// The `[first t0, last t1]` of `origin`'s archived audio, or `None`
/// when the archive holds nothing from it.
#[must_use]
pub fn coverage_span(store: &ArchiveStore, origin: NodeId) -> Option<(SimTime, SimTime)> {
    let mut recs = store.records().iter().filter(|r| r.origin == origin);
    let first = recs.next()?;
    let hi = recs.map(|r| r.t1).fold(first.t1, SimTime::max);
    Some((first.t0, hi))
}

/// Every internal hole wider than `tolerance` in any origin's coverage,
/// sorted by `(origin, t0)`. A hole is the distance between the merged
/// coverage reached so far and the next record's start; holes at or
/// under the tolerance are normal inter-chunk seams, not losses (the
/// §II-C re-query loop uses 1.5 chunk durations for the same purpose).
#[must_use]
pub fn find_gaps(store: &ArchiveStore, tolerance: SimDuration) -> Vec<GapRange> {
    let mut gaps = Vec::new();
    for origin in store.origins() {
        // Store order is (t0, origin, t1), so the filtered view is
        // already sorted by t0.
        let mut covered: Option<SimTime> = None;
        for r in store.records().iter().filter(|r| r.origin == origin) {
            if let Some(end) = covered {
                if r.t0.saturating_since(end) > tolerance {
                    gaps.push(GapRange {
                        origin,
                        t0: end,
                        t1: r.t0,
                    });
                }
            }
            covered = Some(covered.map_or(r.t1, |end| end.max(r.t1)));
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ArchiveBuilder, ArchiveRecord};

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

    fn store(records: impl IntoIterator<Item = ArchiveRecord>) -> ArchiveStore {
        let mut b = ArchiveBuilder::new();
        for r in records {
            b.ingest(r);
        }
        b.build()
    }

    fn tol(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn contiguous_coverage_has_no_gaps() {
        let s = store([rec(1, 0.0, 1.0), rec(1, 1.0, 2.0), rec(1, 2.1, 3.0)]);
        assert!(find_gaps(&s, tol(0.2)).is_empty());
    }

    #[test]
    fn hole_wider_than_tolerance_is_reported() {
        let s = store([rec(1, 0.0, 1.0), rec(1, 4.0, 5.0)]);
        let gaps = find_gaps(&s, tol(0.5));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].origin, NodeId(1));
        assert_eq!(gaps[0].t0.as_secs_f64(), 1.0);
        assert_eq!(gaps[0].t1.as_secs_f64(), 4.0);
        assert!((gaps[0].span().as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_records_extend_coverage_without_gaps() {
        // A long record swallows a later short one; no hole between
        // the short record's end and the next start.
        let s = store([rec(1, 0.0, 10.0), rec(1, 2.0, 3.0), rec(1, 10.2, 11.0)]);
        assert!(find_gaps(&s, tol(0.5)).is_empty());
        assert_eq!(coverage_span(&s, NodeId(1)).unwrap().1.as_secs_f64(), 11.0);
    }

    #[test]
    fn gaps_are_per_origin_and_sorted() {
        let s = store([
            rec(2, 0.0, 1.0),
            rec(2, 5.0, 6.0),
            rec(1, 0.0, 1.0),
            rec(1, 3.0, 4.0),
            rec(1, 8.0, 9.0),
        ]);
        let gaps = find_gaps(&s, tol(0.5));
        let flat: Vec<(u32, f64, f64)> = gaps
            .iter()
            .map(|g| (g.origin.0, g.t0.as_secs_f64(), g.t1.as_secs_f64()))
            .collect();
        assert_eq!(
            flat,
            vec![(1, 1.0, 3.0), (1, 4.0, 8.0), (2, 1.0, 5.0)],
            "sorted by (origin, t0), one origin's holes never merge with another's"
        );
    }

    #[test]
    fn empty_archive_and_unknown_origin() {
        let s = ArchiveStore::empty();
        assert!(find_gaps(&s, tol(0.1)).is_empty());
        assert!(coverage_span(&s, NodeId(0)).is_none());
    }
}
