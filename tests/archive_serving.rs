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
use enviromic::harness::run_scenario_with_faults;
use enviromic::observe::{archive_run, rerequest_plan};
use enviromic::sweep::ScenarioSpec;
use enviromic_types::{EventId, NodeId, SimDuration, SimTime};

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

/// Byte-serial FNV-1a over the eight little-endian bytes of `v`.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds one record into a result digest, in the field order
/// `BENCH_retrieval.json` commits.
fn fold_record(h: u64, r: &ArchiveRecord) -> u64 {
    let event = r.event.map_or(u64::MAX, |e| {
        (u64::from(e.leader().0) << 32) | u64::from(e.seq())
    });
    [
        u64::from(r.origin.0),
        event,
        r.t0.as_jiffies(),
        r.t1.as_jiffies(),
        u64::from(r.bytes),
        u64::from(r.holder.0),
    ]
    .into_iter()
    .fold(h, fnv1a)
}

/// Checks an answer against a full scan of the archive: every record
/// `query` matches, in store order, their total bytes, and their digest
/// folded byte by byte.
fn assert_matches_full_scan(store: &ArchiveStore, query: &RangeQuery, result: &QueryResult) {
    let records = store.records();
    let indices: Vec<u32> = (0..records.len() as u32)
        .filter(|&i| query.matches(&records[i as usize]))
        .collect();
    let bytes: u64 = indices
        .iter()
        .map(|&i| u64::from(records[i as usize].bytes))
        .sum();
    let digest = indices.iter().fold(0xCBF2_9CE4_8422_2325, |h, &i| {
        fold_record(h, &records[i as usize])
    });
    assert_eq!(result.indices, indices, "{query:?}");
    assert_eq!(result.bytes, bytes, "{query:?}");
    assert_eq!(result.digest, digest, "{query:?}");
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
        let covered = plan
            .batches
            .iter()
            .any(|b| b.t0 <= gap.t0 && gap.t1 <= b.t1);
        assert!(covered, "gap {gap:?} uncovered");
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
fn scan_matches_full_scan_at_its_edges() {
    let mut b = ArchiveBuilder::new();
    // Half-second records from three origins, one a second from 10 s to
    // 30 s, every other one tagged with an event.
    for origin in 0..3u32 {
        for k in 0..20u64 {
            let t0 = (10 + k) * SEC + u64::from(origin) * 97;
            b.ingest(ArchiveRecord {
                event: (k % 2 == 0).then(|| EventId::new(NodeId(origin), k as u32)),
                ..record(origin, t0, t0 + SEC / 2)
            });
        }
    }
    // One record 40 times longer than the rest: every window up to its
    // end must reach back to its start.
    b.ingest(record(3, 12 * SEC, 32 * SEC));
    // Zero-length records.
    b.ingest(record(4, 15 * SEC, 15 * SEC));
    b.ingest(record(4, 20 * SEC + SEC / 4, 20 * SEC + SEC / 4));
    // Several records sharing a t0, of different lengths.
    for origin in 5..9u32 {
        b.ingest(record(
            origin,
            18 * SEC,
            18 * SEC + u64::from(origin) * SEC / 8,
        ));
    }
    let store = b.build();
    let (first, last) = store.span().expect("non-empty archive");
    assert_eq!(
        (first, last),
        (
            SimTime::from_jiffies(10 * SEC),
            SimTime::from_jiffies(32 * SEC)
        )
    );

    let window =
        |t0: u64, t1: u64| RangeQuery::window(SimTime::from_jiffies(t0), SimTime::from_jiffies(t1));
    // Wholly before and wholly after the archive.
    for q in [window(0, 10 * SEC), window(32 * SEC, 40 * SEC)] {
        assert!(store.query(&q).is_empty(), "{q:?}");
    }
    // Late in the long record's tail, past every short record's reach.
    assert_eq!(store.query(&window(31 * SEC, 40 * SEC)).len(), 1);

    let mut queries = Vec::new();
    for r in store.records() {
        let (t0, t1) = (r.t0.as_jiffies(), r.t1.as_jiffies());
        // A window whose end is a record's start (the half-open edge),
        // one starting at a record's end, and one jiffy at either edge.
        queries.push(window(t0.saturating_sub(SEC), t0));
        queries.push(window(t1, t1 + SEC));
        queries.push(window(t0, t0 + 1));
        queries.push(window(t1.saturating_sub(1), t1));
    }
    for start in (0..44).map(|k| k * SEC * 3 / 4) {
        for len in [1, SEC / 4, 3 * SEC, 25 * SEC] {
            queries.push(window(start, start + len));
        }
    }
    for q in queries.clone() {
        for origin in [3, 4, 6] {
            queries.push(RangeQuery {
                origin: Some(NodeId(origin)),
                ..q
            });
        }
        queries.push(RangeQuery {
            event: Some(EventId::new(NodeId(1), 4)),
            ..q
        });
    }
    for q in &queries {
        assert_matches_full_scan(&store, q, &store.query(q));
    }
}

/// The archive the repository benchmark serves, the seed-42
/// `quick-indoor` run at 600 s, keeps the pins the benchmark checks.
#[test]
fn benchmark_archive_keeps_its_pins() {
    let input = ScenarioSpec::quick_indoor(600.0).build(42);
    let run = run_scenario_with_faults(
        input.scenario,
        &input.node_cfg,
        input.world_cfg,
        input.drain_secs,
        &input.faults,
    );
    let store = archive_run(&run);
    assert_eq!(store.len(), 1789);
    let (t0, t1) = store.span().expect("non-empty archive");
    let whole = RangeQuery::window(t0, t1);
    let result = store.query(&whole);
    assert_eq!(result.digest, 0x82ba_8ae3_71c8_8f8d);
    assert_matches_full_scan(&store, &whole, &result);
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
