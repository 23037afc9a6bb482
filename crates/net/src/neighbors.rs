//! Soft-state neighbor table.
//!
//! Every node passively builds a view of its one-hop neighborhood from
//! overheard control traffic: who is currently sensing which event (the
//! member list used for task assignment, §II-A.2) and each neighbor's
//! storage TTL / free space (used by the balancer, §II-B). Entries expire
//! when not refreshed — the paper explicitly tolerates staleness ("we
//! choose not to synchronize state ... completely up-to-date state
//! information is not required").

use enviromic_types::{EventId, NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// What is known about one neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborInfo {
    /// When the neighbor was last heard (receiver's clock).
    pub last_heard: SimTime,
    /// The event the neighbor reported sensing, if any.
    pub sensing: Option<EventId>,
    /// When the sensing report was last refreshed.
    pub sensing_at: SimTime,
    /// Signal level the neighbor reported (0–255).
    pub level: u8,
    /// Whether the neighbor holds a prelude recording.
    pub has_prelude: bool,
    /// The neighbor's reported storage TTL, seconds (saturated).
    pub ttl_secs: u32,
    /// The neighbor's reported free chunk slots.
    pub free_chunks: u32,
    /// The neighbor's gossiped network-average free fraction, percent.
    pub avg_free_pct: u8,
}

impl Default for NeighborInfo {
    fn default() -> Self {
        NeighborInfo {
            last_heard: SimTime::ZERO,
            sensing: None,
            sensing_at: SimTime::ZERO,
            level: 0,
            has_prelude: false,
            ttl_secs: u32::MAX,
            free_chunks: 0,
            avg_free_pct: 100,
        }
    }
}

/// The soft-state table of one-hop neighbors.
///
/// # Examples
///
/// ```
/// use enviromic_net::NeighborTable;
/// use enviromic_types::{NodeId, SimDuration, SimTime};
///
/// let mut t = NeighborTable::new(SimDuration::from_millis(3000));
/// t.heard(NodeId(2), SimTime::from_jiffies(100));
/// assert!(t.get(NodeId(2)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable {
    entries: HashMap<NodeId, NeighborInfo>,
    expiry: SimDuration,
}

impl NeighborTable {
    /// Creates a table whose entries expire after `expiry` without
    /// refresh.
    #[must_use]
    pub fn new(expiry: SimDuration) -> Self {
        NeighborTable {
            entries: HashMap::new(),
            expiry,
        }
    }

    /// Records that `node` was heard at `now` (any message).
    pub fn heard(&mut self, node: NodeId, now: SimTime) {
        let e = self.entries.entry(node).or_default();
        e.last_heard = now;
    }

    /// Records a `SENSING` report from `node`.
    pub fn sensing_report(
        &mut self,
        node: NodeId,
        now: SimTime,
        event: Option<EventId>,
        level: u8,
        has_prelude: bool,
        ttl_secs: u32,
    ) {
        let e = self.entries.entry(node).or_default();
        e.last_heard = now;
        e.sensing = event;
        e.sensing_at = now;
        e.level = level;
        e.has_prelude = has_prelude;
        e.ttl_secs = ttl_secs;
    }

    /// Records a storage-balancing `STATE_UPDATE` from `node`.
    pub fn state_update(
        &mut self,
        node: NodeId,
        now: SimTime,
        ttl_secs: u32,
        free_chunks: u32,
        avg_free_pct: u8,
    ) {
        let e = self.entries.entry(node).or_default();
        e.last_heard = now;
        e.ttl_secs = ttl_secs;
        e.free_chunks = free_chunks;
        e.avg_free_pct = avg_free_pct;
    }

    /// Looks up a neighbor.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&NeighborInfo> {
        self.entries.get(&node)
    }

    /// Drops entries not heard within the expiry window before `now`.
    pub fn expire(&mut self, now: SimTime) {
        let expiry = self.expiry;
        self.entries
            .retain(|_, e| now.saturating_since(e.last_heard) <= expiry);
    }

    /// All current entries (sorted by node ID for determinism).
    #[must_use]
    pub fn entries(&self) -> Vec<(NodeId, NeighborInfo)> {
        let mut v: Vec<(NodeId, NeighborInfo)> =
            self.entries.iter().map(|(&n, &e)| (n, e)).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Number of known neighbors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbors are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn heard_creates_entry() {
        let mut tab = NeighborTable::new(SimDuration::from_millis(1000));
        assert!(tab.is_empty());
        tab.heard(NodeId(1), t(10));
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.get(NodeId(1)).unwrap().last_heard, t(10));
    }

    #[test]
    fn expiry_drops_stale_entries() {
        let mut tab = NeighborTable::new(SimDuration::from_millis(1000));
        tab.heard(NodeId(1), t(0));
        tab.heard(NodeId(2), t(900));
        tab.expire(t(1500));
        assert!(tab.get(NodeId(1)).is_none());
        assert!(tab.get(NodeId(2)).is_some());
    }

    #[test]
    fn state_update_overwrites_ttl_only() {
        let ev = EventId::new(NodeId(9), 1);
        let mut tab = NeighborTable::new(SimDuration::from_millis(10_000));
        tab.sensing_report(NodeId(1), t(100), Some(ev), 200, true, 50);
        tab.state_update(NodeId(1), t(200), 42, 99, 60);
        let e = tab.get(NodeId(1)).unwrap();
        assert_eq!(e.ttl_secs, 42);
        assert_eq!(e.free_chunks, 99);
        assert_eq!(e.avg_free_pct, 60);
        assert_eq!(e.sensing, Some(ev), "sensing state preserved");
        assert!(e.has_prelude);
    }

    #[test]
    fn entries_are_sorted() {
        let mut tab = NeighborTable::new(SimDuration::from_millis(1000));
        tab.heard(NodeId(5), t(1));
        tab.heard(NodeId(2), t(1));
        tab.heard(NodeId(9), t(1));
        let ids: Vec<u32> = tab.entries().iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
