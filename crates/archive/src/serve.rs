//! Concurrent query serving on a worker pool.
//!
//! Same shape as the sweep engine (`src/sweep.rs`): a shared
//! `Mutex<VecDeque>` of job indices drained by `std::thread::scope`
//! workers, results slotted by index. Determinism at any worker count
//! comes from a strict phase split:
//!
//! 1. **Plan (serial):** the LRU cache is probed in workload order on
//!    the coordinator, fixing every hit/miss/eviction decision and the
//!    `archive.cache.*` counters before any worker starts.
//! 2. **Execute (parallel):** every miss runs [`ArchiveStore::query`]
//!    against the shared immutable store. Queries are pure functions of
//!    the store, so scheduling affects wall-clock only.
//! 3. **Fill (serial):** hits share the result of an earlier execution of
//!    the same query.
//!
//! Only the workload's wall-clock time varies across worker counts, and
//! it never enters the committed artifact.

use crate::cache::{CacheDecision, CacheStats, QueryCache};
use crate::store::{fnv_fold, ArchiveStore, QueryResult, RangeQuery, FNV_OFFSET};
use enviromic_telemetry::Registry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The outcome of serving one query workload.
#[derive(Debug)]
pub struct ServeOutcome {
    /// One result per query, in workload order. A hit shares its source
    /// scan's result.
    pub results: Vec<Arc<QueryResult>>,
    /// Cache totals, fixed in workload order.
    pub stats: CacheStats,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole workload.
    pub wall_secs: f64,
}

impl ServeOutcome {
    /// Order-sensitive FNV-1a digest over the per-query result digests —
    /// the workload's determinism fingerprint.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.results
            .iter()
            .fold(FNV_OFFSET, |h, r| fnv_fold(h, r.digest))
    }

    /// Total records matched across the workload.
    #[must_use]
    pub fn matched_total(&self) -> u64 {
        self.results.iter().map(|r| r.len() as u64).sum()
    }

    /// Queries served per wall-clock second.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.results.len() as f64 / self.wall_secs.max(1e-9)
        }
    }
}

/// Serves `queries` against `store` with an LRU cache of
/// `cache_capacity` distinct queries on a pool of `workers` threads.
/// Results, cache stats, and digests are bit-identical at any worker
/// count; `registry` (when given) receives the `archive.cache.*`
/// counters and `archive.query.*` figures on the coordinator thread.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn serve_queries(
    store: &ArchiveStore,
    queries: &[RangeQuery],
    cache_capacity: usize,
    workers: usize,
    registry: Option<&Registry>,
) -> ServeOutcome {
    let started = Instant::now();

    // Phase 1: fix every cache decision in workload order.
    let mut cache = QueryCache::new(cache_capacity);
    let mut source: Vec<usize> = Vec::with_capacity(queries.len());
    let mut miss_indices: Vec<usize> = Vec::new();
    // Only a cache that can hit needs to know where each key last missed.
    let mut last_miss: HashMap<RangeQuery, usize> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        match cache.probe(q) {
            CacheDecision::Hit => {
                source.push(*last_miss.get(q).expect("a hit follows a miss for its key"));
            }
            CacheDecision::Miss { .. } => {
                source.push(i);
                miss_indices.push(i);
                if cache_capacity > 0 {
                    last_miss.insert(*q, i);
                }
            }
        }
    }
    let stats = cache.stats();

    // Phase 2: execute the misses on the pool.
    let workers = workers.clamp(1, miss_indices.len().max(1));
    let queue: Mutex<VecDeque<usize>> = Mutex::new(miss_indices.into_iter().collect());
    let slots: Mutex<Vec<Option<Arc<QueryResult>>>> =
        Mutex::new((0..queries.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let Some(i) = queue.lock().expect("query queue poisoned").pop_front() else {
                        break;
                    };
                    let result = Arc::new(store.query(&queries[i]));
                    slots.lock().expect("result table poisoned")[i] = Some(result);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("archive query worker panicked");
        }
    });
    let slots = slots.into_inner().expect("result table poisoned");

    // Phase 3: assemble in workload order; hits share their source scan.
    let results: Vec<Arc<QueryResult>> = source
        .iter()
        .map(|&src| Arc::clone(slots[src].as_ref().expect("source scan was executed")))
        .collect();

    let outcome = ServeOutcome {
        results,
        stats,
        workers,
        wall_secs: started.elapsed().as_secs_f64(),
    };
    if let Some(reg) = registry {
        reg.counter("archive.cache.hits").add(stats.hits);
        reg.counter("archive.cache.misses").add(stats.misses);
        reg.counter("archive.cache.evictions").add(stats.evictions);
        reg.counter("archive.query.served")
            .add(outcome.results.len() as u64);
        reg.counter("archive.query.executed").add(stats.misses);
        let results_hist = reg.histogram("archive.query.results");
        for r in &outcome.results {
            #[allow(clippy::cast_precision_loss)]
            results_hist.observe(r.len() as f64);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ArchiveBuilder, ArchiveRecord};
    use enviromic_types::{NodeId, SimDuration, SimTime};

    fn sample_store() -> ArchiveStore {
        let mut b = ArchiveBuilder::new();
        for origin in 0..8u32 {
            for k in 0..50u64 {
                #[allow(clippy::cast_lossless)]
                let t0 = SimTime::from_jiffies(k * 20_000 + u64::from(origin) * 137);
                b.ingest(ArchiveRecord {
                    origin: NodeId(origin),
                    event: None,
                    t0,
                    t1: t0 + SimDuration::from_jiffies(18_000),
                    bytes: 232,
                    holder: NodeId(origin),
                });
            }
        }
        b.build()
    }

    fn workload(n: usize) -> Vec<RangeQuery> {
        (0..n)
            .map(|i| {
                let base = (i as u64 % 17) * 40_000;
                RangeQuery {
                    t0: SimTime::from_jiffies(base),
                    t1: SimTime::from_jiffies(base + 90_000),
                    origin: (i % 3 == 0).then_some(NodeId(i as u32 % 8)),
                    event: None,
                }
            })
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_results_or_stats() {
        let store = sample_store();
        let queries = workload(120);
        let one = serve_queries(&store, &queries, 16, 1, None);
        let four = serve_queries(&store, &queries, 16, 4, None);
        assert_eq!(one.results, four.results);
        assert_eq!(one.stats, four.stats);
        assert_eq!(one.digest(), four.digest());
    }

    #[test]
    fn cache_on_and_off_agree_on_results() {
        let store = sample_store();
        let queries = workload(100);
        let cached = serve_queries(&store, &queries, 64, 3, None);
        let uncached = serve_queries(&store, &queries, 0, 3, None);
        assert_eq!(cached.results, uncached.results);
        assert_eq!(cached.digest(), uncached.digest());
        assert!(cached.stats.hits > 0, "repeats in the workload hit");
        assert_eq!(uncached.stats.hits, 0);
        assert_eq!(uncached.stats.misses as usize, queries.len());

        // Every hit shares the result of the miss that last scanned its
        // key; every miss has a result of its own.
        let mut cache = QueryCache::new(64);
        let mut last_miss = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            let result = &cached.results[i];
            match cache.probe(q) {
                CacheDecision::Hit => {
                    assert!(
                        Arc::ptr_eq(result, &cached.results[last_miss[q]]),
                        "hit {i}"
                    );
                }
                CacheDecision::Miss { .. } => {
                    let mut earlier = cached.results[..i].iter();
                    assert!(!earlier.any(|r| Arc::ptr_eq(r, result)), "miss {i}");
                    last_miss.insert(*q, i);
                }
            }
        }
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let store = sample_store();
        let queries = workload(60);
        let reg = Registry::new();
        let out = serve_queries(&store, &queries, 8, 2, Some(&reg));
        let report = reg.report();
        assert_eq!(report.counter("archive.cache.hits"), Some(out.stats.hits));
        assert_eq!(
            report.counter("archive.cache.misses"),
            Some(out.stats.misses)
        );
        assert_eq!(
            report.counter("archive.cache.evictions"),
            Some(out.stats.evictions)
        );
        assert_eq!(report.counter("archive.query.served"), Some(60));
        assert_eq!(
            report.histogram("archive.query.results").map(|h| h.count),
            Some(60)
        );
    }

    #[test]
    fn empty_workload_serves_nothing() {
        let store = sample_store();
        let out = serve_queries(&store, &[], 8, 4, None);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, CacheStats::default());
        assert_eq!(out.matched_total(), 0);
    }
}
