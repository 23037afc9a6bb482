//! Protocol message kinds: the labels the trace and the message censuses
//! (Figs. 12 and 14) count by.

use core::fmt;
use serde::{DeError, Deserialize, Serialize, Value};

/// The kind of a protocol message, one per message type on the wire.
///
/// [`MsgKind::label`] and [`MsgKind::from_label`] hold the only table of
/// the labels. `Debug` prints the quoted label and serde reads and writes
/// it as a string, so traces render and dump exactly as they did when the
/// kind was a `&'static str`.
///
/// # Examples
///
/// ```
/// use enviromic_types::MsgKind;
///
/// assert_eq!(MsgKind::TaskRequest.label(), "TASK_REQUEST");
/// assert_eq!(MsgKind::from_label("TASK_REQUEST"), Some(MsgKind::TaskRequest));
/// assert_eq!(format!("{:?}", MsgKind::Sensing), "\"SENSING\"");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Group-member "I can hear the event" beacon.
    Sensing,
    /// Leadership announcement.
    LeaderAnnounce,
    /// Leader handoff.
    Resign,
    /// Recording-task assignment.
    TaskRequest,
    /// Recording-task acceptance.
    TaskConfirm,
    /// Recording-task refusal.
    TaskReject,
    /// Storage-balancing state beacon.
    StateUpdate,
    /// Migration offer.
    MigrateOffer,
    /// Migration grant.
    MigrateAccept,
    /// One chunk of a bulk transfer.
    BulkData,
    /// Bulk-transfer acknowledgement.
    BulkAck,
    /// Time-synchronization beacon.
    TimeSync,
    /// Retrieval spanning-tree construction wave.
    TreeBuild,
    /// Retrieval query.
    Query,
    /// One chunk answering a query.
    QueryData,
    /// End-of-answer marker.
    QueryDone,
}

impl MsgKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [MsgKind; 16] = [
        MsgKind::Sensing,
        MsgKind::LeaderAnnounce,
        MsgKind::Resign,
        MsgKind::TaskRequest,
        MsgKind::TaskConfirm,
        MsgKind::TaskReject,
        MsgKind::StateUpdate,
        MsgKind::MigrateOffer,
        MsgKind::MigrateAccept,
        MsgKind::BulkData,
        MsgKind::BulkAck,
        MsgKind::TimeSync,
        MsgKind::TreeBuild,
        MsgKind::Query,
        MsgKind::QueryData,
        MsgKind::QueryDone,
    ];

    /// The kind's trace label (e.g. `"TASK_REQUEST"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            MsgKind::Sensing => "SENSING",
            MsgKind::LeaderAnnounce => "LEADER_ANNOUNCE",
            MsgKind::Resign => "RESIGN",
            MsgKind::TaskRequest => "TASK_REQUEST",
            MsgKind::TaskConfirm => "TASK_CONFIRM",
            MsgKind::TaskReject => "TASK_REJECT",
            MsgKind::StateUpdate => "STATE_UPDATE",
            MsgKind::MigrateOffer => "MIGRATE_OFFER",
            MsgKind::MigrateAccept => "MIGRATE_ACCEPT",
            MsgKind::BulkData => "BULK_DATA",
            MsgKind::BulkAck => "BULK_ACK",
            MsgKind::TimeSync => "TIME_SYNC",
            MsgKind::TreeBuild => "TREE_BUILD",
            MsgKind::Query => "QUERY",
            MsgKind::QueryData => "QUERY_DATA",
            MsgKind::QueryDone => "QUERY_DONE",
        }
    }

    /// The kind whose [`MsgKind::label`] is `label`, if any.
    #[must_use]
    pub fn from_label(label: &str) -> Option<MsgKind> {
        MsgKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Debug for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.label(), f)
    }
}

impl Serialize for MsgKind {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for MsgKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .and_then(MsgKind::from_label)
            .ok_or_else(|| DeError::custom(format!("expected a message kind label, got {v:?}")))
    }
}
