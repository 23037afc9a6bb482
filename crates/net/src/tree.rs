//! Spanning-tree construction and query routing for multihop retrieval
//! (§II-C).
//!
//! The paper's "first inclination": a spanning tree rooted at the user
//! (similar to directed diffusion), down which queries flood and up which
//! matching chunks travel. The deployed system ultimately used the one-hop
//! variant, but the tree version is specified in the paper and implemented
//! here (and exercised by the retrieval tests).
//!
//! [`TreeState`] is a pure per-node state machine: feed it overheard
//! `TREE_BUILD` / `QUERY` messages and it answers with what to rebroadcast.

use crate::packet::Message;
use enviromic_types::{NodeId, SimTime};
use std::collections::HashSet;

/// Per-node spanning-tree and query-dedup state, detached by default.
#[derive(Debug, Default)]
pub struct TreeState {
    /// Current tree membership, if any.
    attachment: Option<Attachment>,
    /// Queries already processed (for flood dedup).
    seen_queries: HashSet<(NodeId, u32)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attachment {
    root: NodeId,
    build_id: u32,
    parent: NodeId,
    hops: u8,
}

/// What a node should do after processing a tree/query message.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeAction {
    /// Nothing to do (duplicate or worse route).
    None,
    /// Rebroadcast this message to continue the wave.
    Rebroadcast(Message),
}

impl TreeState {
    /// The node's current parent in the tree, if attached.
    #[must_use]
    pub fn parent(&self) -> Option<NodeId> {
        self.attachment.map(|a| a.parent)
    }

    /// The node's hop distance from the root, if attached.
    #[must_use]
    pub fn hops(&self) -> Option<u8> {
        self.attachment.map(|a| a.hops)
    }

    /// The root of the tree the node is attached to, if any.
    #[must_use]
    pub fn root(&self) -> Option<NodeId> {
        self.attachment.map(|a| a.root)
    }

    /// Processes an overheard `TREE_BUILD` from `from`.
    ///
    /// Adopts `from` as parent when this wave is new or offers a strictly
    /// shorter route, and returns the wave to rebroadcast with an
    /// incremented hop count.
    #[must_use]
    pub fn on_build(&mut self, from: NodeId, root: NodeId, build_id: u32, hops: u8) -> TreeAction {
        let my_hops = hops.saturating_add(1);
        let adopt = match self.attachment {
            Some(a) if a.root == root && a.build_id == build_id => my_hops < a.hops,
            Some(a) if a.root == root => build_id > a.build_id,
            Some(_) => true, // a new root supersedes (one retrieval at a time)
            None => true,
        };
        if !adopt {
            return TreeAction::None;
        }
        self.attachment = Some(Attachment {
            root,
            build_id,
            parent: from,
            hops: my_hops,
        });
        TreeAction::Rebroadcast(Message::TreeBuild {
            root,
            build_id,
            hops: my_hops,
        })
    }

    /// Processes an overheard `QUERY`. Returns whether this node should
    /// answer it (first sighting) and the flood continuation.
    #[must_use]
    pub fn on_query(
        &mut self,
        root: NodeId,
        query_id: u32,
        t0: SimTime,
        t1: SimTime,
        all: bool,
    ) -> (bool, TreeAction) {
        if !self.seen_queries.insert((root, query_id)) {
            return (false, TreeAction::None);
        }
        (
            true,
            TreeAction::Rebroadcast(Message::Query {
                root,
                query_id,
                t0,
                t1,
                all,
            }),
        )
    }

    /// True when an upward-travelling reply addressed to this node should
    /// be forwarded to the parent (i.e. this node relays for `root`).
    #[must_use]
    pub fn should_relay_to(&self, root: NodeId) -> Option<NodeId> {
        match self.attachment {
            Some(a) if a.root == root && a.hops > 0 => Some(a.parent),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: NodeId = NodeId(0);

    #[test]
    fn first_build_attaches_and_rebroadcasts() {
        let mut s = TreeState::default();
        let action = s.on_build(NodeId(3), ROOT, 1, 0);
        assert_eq!(s.parent(), Some(NodeId(3)));
        assert_eq!(s.hops(), Some(1));
        match action {
            TreeAction::Rebroadcast(Message::TreeBuild { hops, .. }) => assert_eq!(hops, 1),
            other => panic!("expected rebroadcast, got {other:?}"),
        }
    }

    #[test]
    fn shorter_route_wins_longer_is_ignored() {
        let mut s = TreeState::default();
        let _ = s.on_build(NodeId(3), ROOT, 1, 4); // 5 hops via n3
        assert_eq!(s.hops(), Some(5));
        let action = s.on_build(NodeId(7), ROOT, 1, 1); // 2 hops via n7
        assert!(matches!(action, TreeAction::Rebroadcast(_)));
        assert_eq!(s.parent(), Some(NodeId(7)));
        // A worse offer changes nothing.
        let action = s.on_build(NodeId(9), ROOT, 1, 6);
        assert_eq!(action, TreeAction::None);
        assert_eq!(s.parent(), Some(NodeId(7)));
    }

    #[test]
    fn newer_build_wave_supersedes() {
        let mut s = TreeState::default();
        let _ = s.on_build(NodeId(3), ROOT, 1, 0);
        let action = s.on_build(NodeId(4), ROOT, 2, 3);
        assert!(matches!(action, TreeAction::Rebroadcast(_)));
        assert_eq!(s.parent(), Some(NodeId(4)));
        assert_eq!(s.hops(), Some(4));
    }

    #[test]
    fn query_flood_dedups() {
        let mut s = TreeState::default();
        let (answer, action) = s.on_query(ROOT, 9, SimTime::ZERO, SimTime::MAX, true);
        assert!(answer);
        assert!(matches!(action, TreeAction::Rebroadcast(_)));
        let (answer, action) = s.on_query(ROOT, 9, SimTime::ZERO, SimTime::MAX, true);
        assert!(!answer);
        assert_eq!(action, TreeAction::None);
        // A different query id is fresh again.
        let (answer, _) = s.on_query(ROOT, 10, SimTime::ZERO, SimTime::MAX, true);
        assert!(answer);
    }

    #[test]
    fn relay_goes_to_parent_only_when_attached() {
        let mut s = TreeState::default();
        assert_eq!(s.should_relay_to(ROOT), None);
        let _ = s.on_build(NodeId(3), ROOT, 1, 0);
        assert_eq!(s.should_relay_to(ROOT), Some(NodeId(3)));
        assert_eq!(s.should_relay_to(NodeId(42)), None, "foreign root");
    }
}
