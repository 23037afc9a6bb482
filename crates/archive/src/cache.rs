//! The LRU query cache.
//!
//! The cache keys on the **full query** — `(t0, t1, origin, event)` — so
//! only byte-identical repeat queries hit; there is no partial-window
//! reuse (a narrower window is a different key). Because query answers
//! are pure functions of the immutable store, the cache never changes
//! *what* a query returns, only whether the scan re-runs — which is what
//! lets [`serve_queries`](crate::serve_queries) decide hits and misses
//! serially in workload order (bit-identical stats at any worker count)
//! while executing the misses on a pool.

use crate::store::RangeQuery;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Hit/miss/eviction totals — the `archive.cache.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that had to execute a scan.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of queries answered from cache.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / total as f64
        }
    }
}

/// What the cache decided for one query, in workload order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// The query was resident: its result is that of an earlier
    /// execution of the same query.
    Hit,
    /// The query must execute; `evicted` reports whether admitting it
    /// displaced the least-recently-used entry.
    Miss {
        /// True when admission evicted another entry.
        evicted: bool,
    },
}

/// An LRU set of resident queries. Capacity 0 disables caching (every
/// probe is a non-evicting miss).
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    stamp: u64,
    /// Resident query → its last-use stamp.
    entries: HashMap<RangeQuery, u64>,
    /// Last-use stamp → query; the first entry is the LRU victim.
    recency: BTreeMap<u64, RangeQuery>,
    stats: CacheStats,
}

impl QueryCache {
    /// A cache admitting at most `capacity` distinct queries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            stamp: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// References `query`: a hit refreshes its recency, a miss admits it
    /// (evicting the least-recently-used resident when full). Decisions
    /// depend only on the probe sequence, never on wall-clock.
    pub fn probe(&mut self, query: &RangeQuery) -> CacheDecision {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return CacheDecision::Miss { evicted: false };
        }
        self.stamp += 1;
        if let Some(old) = self.entries.insert(*query, self.stamp) {
            self.recency.remove(&old);
            self.recency.insert(self.stamp, *query);
            self.stats.hits += 1;
            return CacheDecision::Hit;
        }
        self.recency.insert(self.stamp, *query);
        let mut evicted = false;
        if self.entries.len() > self.capacity {
            let (&victim_stamp, &victim) = self
                .recency
                .iter()
                .next()
                .expect("over-capacity cache has a victim");
            self.recency.remove(&victim_stamp);
            self.entries.remove(&victim);
            self.stats.evictions += 1;
            evicted = true;
        }
        self.stats.misses += 1;
        CacheDecision::Miss { evicted }
    }

    /// Totals so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_types::{SimDuration, SimTime};

    fn q(n: u64) -> RangeQuery {
        RangeQuery::window(
            SimTime::from_jiffies(n * 1000),
            SimTime::from_jiffies(n * 1000 + 500),
        )
    }

    #[test]
    fn repeat_query_hits() {
        let mut c = QueryCache::new(4);
        assert_eq!(c.probe(&q(1)), CacheDecision::Miss { evicted: false });
        assert_eq!(c.probe(&q(1)), CacheDecision::Hit);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = QueryCache::new(2);
        c.probe(&q(1));
        c.probe(&q(2));
        c.probe(&q(1)); // refresh 1; victim is now 2
        assert_eq!(c.probe(&q(3)), CacheDecision::Miss { evicted: true });
        assert_eq!(c.probe(&q(1)), CacheDecision::Hit, "1 survived");
        assert_eq!(c.probe(&q(2)), CacheDecision::Miss { evicted: true });
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = QueryCache::new(0);
        for _ in 0..3 {
            assert_eq!(c.probe(&q(7)), CacheDecision::Miss { evicted: false });
        }
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn cycling_a_too_small_cache_evicts_every_round() {
        let mut c = QueryCache::new(2);
        for round in 0..3 {
            for k in 0..3 {
                let d = c.probe(&q(k));
                // Sequential scans over 3 keys with capacity 2 thrash:
                // every reference misses.
                assert!(matches!(d, CacheDecision::Miss { .. }), "round {round}");
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 9);
        assert_eq!(c.stats().evictions, 7);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_ratio_reflects_totals() {
        let mut c = QueryCache::new(8);
        c.probe(&q(1));
        c.probe(&q(1));
        c.probe(&q(1));
        c.probe(&q(2));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn distinct_filters_are_distinct_keys() {
        use enviromic_types::NodeId;
        let mut c = QueryCache::new(4);
        let base = RangeQuery::window(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filtered = RangeQuery {
            origin: Some(NodeId(1)),
            ..base
        };
        c.probe(&base);
        assert_eq!(c.probe(&filtered), CacheDecision::Miss { evicted: false });
        assert_eq!(c.len(), 2);
    }
}
