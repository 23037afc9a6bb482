//! Acoustic-event (distributed file) identity.

use crate::NodeId;
use core::fmt;
use serde::{Deserialize, Serialize};

/// The identifier a leader assigns to an acoustic event.
///
/// In EnviroMic the event ID doubles as the *file* ID: every chunk recorded
/// for the event — possibly by many different motes as the recording task
/// rotates — carries this ID, and the basestation reassembles chunks with
/// the same `EventId` into one logical file.
///
/// IDs are made globally unique without coordination by namespacing a local
/// sequence number under the electing leader's [`NodeId`]. When leadership
/// hands off mid-event (the `RESIGN` path), the *same* `EventId` is carried
/// forward so file continuity is preserved, exactly as in §II-A.1 of the
/// paper.
///
/// # Examples
///
/// ```
/// use enviromic_types::{EventId, NodeId};
///
/// let id = EventId::new(NodeId(4), 17);
/// assert_eq!(id.leader(), NodeId(4));
/// assert_eq!(id.seq(), 17);
/// assert_eq!(id.to_string(), "evt-4.17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId {
    leader: NodeId,
    seq: u32,
}

impl EventId {
    /// Creates an event ID from the electing leader and its local sequence
    /// number.
    #[must_use]
    pub const fn new(leader: NodeId, seq: u32) -> Self {
        EventId { leader, seq }
    }

    /// The node that elected itself leader and minted this ID.
    #[must_use]
    pub const fn leader(self) -> NodeId {
        self.leader
    }

    /// The leader-local sequence number.
    #[must_use]
    pub const fn seq(self) -> u32 {
        self.seq
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt-{}.{}", self.leader.0, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_leaders_distinct_ids() {
        let a = EventId::new(NodeId(1), 5);
        let b = EventId::new(NodeId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_groups_by_leader_then_seq() {
        assert!(EventId::new(NodeId(1), 9) < EventId::new(NodeId(2), 0));
        assert!(EventId::new(NodeId(1), 1) < EventId::new(NodeId(1), 2));
    }
}
