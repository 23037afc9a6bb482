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
/// Neighbor IDs are kept in ascending order beside their infos, so a
/// node's table is two vectors sized to its neighbourhood. The lookup
/// made for each received packet is a binary search over 4-byte keys, and
/// [`NeighborTable::entries`] reads in ID order without sorting.
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
    /// Known neighbors, ascending; `infos[i]` belongs to `ids[i]`.
    ids: Vec<NodeId>,
    infos: Vec<NeighborInfo>,
    expiry: SimDuration,
}

impl NeighborTable {
    /// Creates a table whose entries expire after `expiry` without
    /// refresh.
    #[must_use]
    pub fn new(expiry: SimDuration) -> Self {
        NeighborTable {
            ids: Vec::new(),
            infos: Vec::new(),
            expiry,
        }
    }

    /// The info of `node`, inserted in ID order with defaults when the
    /// node is new. The vectors grow one slot at a time: a neighbourhood
    /// is small and settles early, so doubling would mostly buy slack.
    fn entry(&mut self, node: NodeId) -> &mut NeighborInfo {
        let i = match self.ids.binary_search(&node) {
            Ok(i) => i,
            Err(i) => {
                self.ids.reserve_exact(1);
                self.infos.reserve_exact(1);
                self.ids.insert(i, node);
                self.infos.insert(i, NeighborInfo::default());
                i
            }
        };
        &mut self.infos[i]
    }

    /// Records that `node` was heard at `now` (any message).
    pub fn heard(&mut self, node: NodeId, now: SimTime) {
        self.entry(node).last_heard = now;
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
        let e = self.entry(node);
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
        let e = self.entry(node);
        e.last_heard = now;
        e.ttl_secs = ttl_secs;
        e.free_chunks = free_chunks;
        e.avg_free_pct = avg_free_pct;
    }

    /// Looks up a neighbor.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&NeighborInfo> {
        self.ids.binary_search(&node).ok().map(|i| &self.infos[i])
    }

    /// Drops entries not heard within the expiry window before `now`,
    /// keeping the survivors in ID order.
    pub fn expire(&mut self, now: SimTime) {
        let mut kept = 0;
        for i in 0..self.ids.len() {
            if now.saturating_since(self.infos[i].last_heard) <= self.expiry {
                self.ids[kept] = self.ids[i];
                self.infos[kept] = self.infos[i];
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.infos.truncate(kept);
    }

    /// All current entries, in ascending node-ID order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &NeighborInfo)> + '_ {
        self.ids.iter().copied().zip(&self.infos)
    }

    /// Number of known neighbors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no neighbors are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        let ids: Vec<u32> = tab.entries().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    /// One table operation, applied at a time advanced by the step's
    /// millisecond delta.
    #[derive(Debug, Clone)]
    enum Op {
        Heard(NodeId),
        Sensing {
            node: NodeId,
            event: Option<EventId>,
            level: u8,
            has_prelude: bool,
            ttl_secs: u32,
        },
        State {
            node: NodeId,
            ttl_secs: u32,
            free_chunks: u32,
            avg_free_pct: u8,
        },
        Expire,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A small ID range makes re-hearing, insertion between existing
        // keys and expiry of middle entries all common.
        let node = || (0u32..12).prop_map(NodeId);
        prop_oneof![
            3 => node().prop_map(Op::Heard),
            2 => (node(), 0u32..4, any::<u8>(), 0u8..2, any::<u32>()).prop_map(
                |(node, ev, level, prelude, ttl_secs)| Op::Sensing {
                    node,
                    event: (ev > 0).then(|| EventId::new(NodeId(ev), ev)),
                    level,
                    has_prelude: prelude == 1,
                    ttl_secs,
                }
            ),
            2 => (node(), any::<u32>(), any::<u32>(), 0u8..=100).prop_map(
                |(node, ttl_secs, free_chunks, avg_free_pct)| Op::State {
                    node,
                    ttl_secs,
                    free_chunks,
                    avg_free_pct,
                }
            ),
            2 => Just(Op::Expire),
        ]
    }

    /// What the table must hold, as a map that sorts its own keys.
    fn apply_model(
        model: &mut BTreeMap<NodeId, NeighborInfo>,
        op: &Op,
        now: SimTime,
        expiry: SimDuration,
    ) {
        match *op {
            Op::Heard(node) => model.entry(node).or_default().last_heard = now,
            Op::Sensing {
                node,
                event,
                level,
                has_prelude,
                ttl_secs,
            } => {
                let e = model.entry(node).or_default();
                e.last_heard = now;
                e.sensing = event;
                e.sensing_at = now;
                e.level = level;
                e.has_prelude = has_prelude;
                e.ttl_secs = ttl_secs;
            }
            Op::State {
                node,
                ttl_secs,
                free_chunks,
                avg_free_pct,
            } => {
                let e = model.entry(node).or_default();
                e.last_heard = now;
                e.ttl_secs = ttl_secs;
                e.free_chunks = free_chunks;
                e.avg_free_pct = avg_free_pct;
            }
            Op::Expire => model.retain(|_, e| now.saturating_since(e.last_heard) <= expiry),
        }
    }

    proptest! {
        #[test]
        fn table_matches_an_ordered_map_model(
            steps in proptest::collection::vec((0u64..700, arb_op()), 1..80),
        ) {
            let expiry = SimDuration::from_millis(1000);
            let mut tab = NeighborTable::new(expiry);
            let mut model = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for (dt, op) in &steps {
                now += SimDuration::from_millis(*dt);
                match *op {
                    Op::Heard(node) => tab.heard(node, now),
                    Op::Sensing { node, event, level, has_prelude, ttl_secs } => {
                        tab.sensing_report(node, now, event, level, has_prelude, ttl_secs);
                    }
                    Op::State { node, ttl_secs, free_chunks, avg_free_pct } => {
                        tab.state_update(node, now, ttl_secs, free_chunks, avg_free_pct);
                    }
                    Op::Expire => tab.expire(now),
                }
                apply_model(&mut model, op, now, expiry);
                let got: Vec<(NodeId, NeighborInfo)> =
                    tab.entries().map(|(n, e)| (n, *e)).collect();
                let want: Vec<(NodeId, NeighborInfo)> =
                    model.iter().map(|(&n, &e)| (n, e)).collect();
                prop_assert_eq!(got, want, "entries after {:?}", op);
                prop_assert_eq!(tab.len(), model.len());
                prop_assert_eq!(tab.is_empty(), model.is_empty());
                for id in 0..12 {
                    prop_assert_eq!(tab.get(NodeId(id)), model.get(&NodeId(id)));
                }
            }
        }
    }
}
