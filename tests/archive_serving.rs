//! Edge cases of the retrieval serving layer, end to end: the archive
//! built from synthetic ledgers and from a real run, queried through the
//! cache and the worker pool, with gap detection feeding the re-request
//! planner.
//!
//! The unit tests inside `enviromic-archive` pin each component; these
//! tests pin the seams — a query that spans a coverage hole, a cache
//! thrashing far past its capacity, an archive with nothing in it — and
//! the properties CI leans on (worker-count independence, cache
//! transparency).

use enviromic::archive::{
    find_gaps, serve_queries, ArchiveBuilder, ArchiveRecord, ArchiveStore, QueryResult, RangeQuery,
};
use enviromic::observe::rerequest_plan;
use enviromic_types::{NodeId, SimDuration, SimTime};

const SEC: u64 = 32_768;

fn record(origin: u32, t0_j: u64, t1_j: u64) -> ArchiveRecord {
    ArchiveRecord {
        origin: NodeId(origin),
        event: None,
        t0: SimTime::from_jiffies(t0_j),
        t1: SimTime::from_jiffies(t1_j),
        bytes: 232,
        holder: NodeId(origin),
    }
}

/// Checks an indexed answer against a full scan of the archive with no
/// index: every record `query` matches, in store order, and their total
/// bytes. The digest is a fold over the matched records in that order, so
/// equal indices give an equal digest.
fn assert_matches_full_scan(store: &ArchiveStore, query: &RangeQuery, result: &QueryResult) {
    let records = store.records();
    let indices: Vec<u32> = (0..records.len() as u32)
        .filter(|&i| query.matches(&records[i as usize]))
        .collect();
    let bytes: u64 = indices
        .iter()
        .map(|&i| u64::from(records[i as usize].bytes))
        .sum();
    assert_eq!(result.indices, indices, "{query:?}");
    assert_eq!(result.bytes, bytes, "{query:?}");
}

/// Coverage for origin 0 with a hole from 10 s to 20 s.
fn gapped_store() -> ArchiveStore {
    let mut b = ArchiveBuilder::new();
    b.ingest(record(0, 0, 10 * SEC));
    b.ingest(record(0, 20 * SEC, 30 * SEC));
    b.build()
}

#[test]
fn empty_archive_answers_queries_with_nothing() {
    let store = ArchiveBuilder::new().build();
    assert!(store.is_empty());
    assert_eq!(store.span(), None);
    let q = RangeQuery::window(SimTime::from_jiffies(0), SimTime::from_jiffies(100 * SEC));
    assert_eq!(store.query(&q).len(), 0);

    // Serving a workload against it is equally uneventful: every query
    // misses (there is nothing to cache a scan result from, but the
    // decisions still follow the LRU protocol) and returns empty.
    let out = serve_queries(&store, &[q, q, q], 8, 2, None);
    assert_eq!(out.matched_total(), 0);
    assert_eq!(out.stats.hits, 2, "repeated empty queries still hit");
    assert!(find_gaps(&store, SimDuration::from_secs_f64(0.5)).is_empty());
}

#[test]
fn gap_spanning_query_returns_flanks_and_plan_covers_exactly_the_hole() {
    let store = gapped_store();

    // A query spanning the hole returns the two flanking records.
    let q = RangeQuery::window(
        SimTime::from_jiffies(5 * SEC),
        SimTime::from_jiffies(25 * SEC),
    );
    assert_eq!(store.query(&q).len(), 2);
    // A query wholly inside the hole returns nothing.
    let inside = RangeQuery::window(
        SimTime::from_jiffies(12 * SEC),
        SimTime::from_jiffies(18 * SEC),
    );
    assert_eq!(store.query(&inside).len(), 0);

    // The detector sees exactly the 10 s hole, and the plan covers it
    // without requesting anything the archive already holds.
    let tolerance = SimDuration::from_secs_f64(0.5);
    let gaps = find_gaps(&store, tolerance);
    assert_eq!(gaps.len(), 1);
    assert_eq!(gaps[0].t0, SimTime::from_jiffies(10 * SEC));
    assert_eq!(gaps[0].t1, SimTime::from_jiffies(20 * SEC));

    let plan = rerequest_plan(&store, tolerance, SimDuration::from_secs_f64(1.0));
    assert_eq!(plan.len(), 1);
    let batch = &plan.batches[0];
    assert_eq!(batch.t0, SimTime::from_jiffies(10 * SEC));
    assert_eq!(batch.t1, SimTime::from_jiffies(20 * SEC));
    assert_eq!(batch.origins, vec![NodeId(0)]);
}

#[test]
fn batched_plan_windows_never_overlap() {
    // Four origins, holes at staggered offsets: batching may merge them,
    // but the resulting windows must stay disjoint and cover every hole.
    let mut b = ArchiveBuilder::new();
    for origin in 0..4u32 {
        let off = u64::from(origin) * 3 * SEC;
        b.ingest(record(origin, off, off + 8 * SEC));
        b.ingest(record(origin, off + 12 * SEC, off + 20 * SEC));
        b.ingest(record(origin, off + 40 * SEC, off + 45 * SEC));
    }
    let store = b.build();
    let tolerance = SimDuration::from_secs_f64(0.5);
    let plan = rerequest_plan(&store, tolerance, SimDuration::from_secs_f64(1.0));
    assert!(!plan.is_empty());
    for w in plan.batches.windows(2) {
        assert!(
            w[0].t1 <= w[1].t0,
            "batch windows overlap: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    for gap in find_gaps(&store, tolerance) {
        assert!(plan.covers(gap.t0, gap.t1), "gap {gap:?} uncovered");
    }
}

#[test]
fn thrashing_cache_still_matches_the_uncached_oracle() {
    // 64 distinct keys through a 4-entry cache: constant eviction, and
    // the results must still be bit-identical to the uncached pass and
    // to the full-scan oracle.
    let mut b = ArchiveBuilder::new();
    for origin in 0..6u32 {
        for k in 0..40u64 {
            let t0 = k * SEC + u64::from(origin) * 97;
            b.ingest(record(origin, t0, t0 + SEC / 2));
        }
    }
    let store = b.build();
    let queries: Vec<RangeQuery> = (0..256)
        .map(|i| {
            let base = (i % 64) * SEC / 2;
            RangeQuery {
                t0: SimTime::from_jiffies(base),
                t1: SimTime::from_jiffies(base + 3 * SEC),
                origin: (i % 5 == 0).then_some(NodeId((i % 6) as u32)),
                event: None,
            }
        })
        .collect();

    let tiny = serve_queries(&store, &queries, 4, 2, None);
    let uncached = serve_queries(&store, &queries, 0, 2, None);
    assert!(tiny.stats.evictions > 0, "workload far exceeds capacity");
    assert_eq!(tiny.results, uncached.results);
    assert_eq!(tiny.digest(), uncached.digest());
    for (q, r) in queries.iter().zip(&tiny.results) {
        assert_matches_full_scan(&store, q, r);
    }
}

#[test]
fn index_matches_full_scan_on_a_grid() {
    let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
    let mut b = ArchiveBuilder::new();
    for origin in 0..5u32 {
        for k in 0..40 {
            let t = f64::from(k) * 0.7 + f64::from(origin) * 0.1;
            b.ingest(ArchiveRecord {
                t0: at(t),
                t1: at(t + 0.4),
                ..record(origin, 0, 0)
            });
        }
    }
    let store = b.build();
    for w0 in 0..20 {
        let t0 = f64::from(w0) * 1.3;
        let query = RangeQuery {
            origin: (w0 % 3 == 0).then_some(NodeId(w0 % 5)),
            ..RangeQuery::window(at(t0), at(t0 + 2.0))
        };
        assert_matches_full_scan(&store, &query, &store.query(&query));
    }
}

#[test]
fn worker_counts_agree_byte_for_byte_on_a_gapped_archive() {
    let store = gapped_store();
    let queries: Vec<RangeQuery> = (0..80)
        .map(|i| {
            let base = (i % 13) * 2 * SEC;
            RangeQuery::window(
                SimTime::from_jiffies(base),
                SimTime::from_jiffies(base + 6 * SEC),
            )
        })
        .collect();
    let one = serve_queries(&store, &queries, 8, 1, None);
    let four = serve_queries(&store, &queries, 8, 4, None);
    assert_eq!(one.results, four.results);
    assert_eq!(one.stats, four.stats);
    assert_eq!(one.digest(), four.digest());
}
