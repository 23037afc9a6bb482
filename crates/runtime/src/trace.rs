//! Execution trace: the instrumented ground truth every metric is computed
//! from.
//!
//! The trace is the reproduction's stand-in for the paper's offline log
//! analysis: protocol nodes *emit* trace records as they act (via
//! [`crate::Runtime::trace`]) and the backend adds physical-layer records
//! of its own (message deliveries, occupancy polls). Metrics crates only
//! ever read the trace — they never reach into protocol state.
//!
//! The trace is the *post-hoc* record; its runtime counterpart is the
//! `enviromic-telemetry` registry reachable through
//! [`crate::Runtime::telemetry`], which aggregates live counters, latency
//! histograms, and wall-clock span timings while a run executes.

use enviromic_types::{EventId, MsgKind, NodeId, SimTime, SourceId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// Why a recording attempt stored nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The local chunk store was full.
    StorageFull,
    /// The node's battery was exhausted.
    EnergyExhausted,
}

/// What produced a recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordKind {
    /// A leader-assigned cooperative recording task.
    Task,
    /// The uncoordinated prelude recorded at event onset (§II-A.1).
    Prelude,
    /// Independent recording by the uncoordinated baseline.
    Baseline,
}

/// The kind of a scheduled fault, as its [`TraceEvent::FaultInjected`]
/// marker labels it.
///
/// Like [`MsgKind`], `Debug` prints the quoted label and serde reads and
/// writes it as a string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A node crashed.
    Crash,
    /// A node rebooted through flash recovery.
    Reboot,
    /// A radio blackout began.
    BlackoutStart,
    /// A radio blackout ended.
    BlackoutEnd,
    /// A link-degrade window opened.
    DegradeStart,
    /// A link-degrade window closed.
    DegradeEnd,
    /// A flash block went bad.
    FlashBadBlock,
}

impl FaultKind {
    /// Every kind.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Crash,
        FaultKind::Reboot,
        FaultKind::BlackoutStart,
        FaultKind::BlackoutEnd,
        FaultKind::DegradeStart,
        FaultKind::DegradeEnd,
        FaultKind::FlashBadBlock,
    ];

    /// The kind's trace label (e.g. `"CRASH"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "CRASH",
            FaultKind::Reboot => "REBOOT",
            FaultKind::BlackoutStart => "BLACKOUT_START",
            FaultKind::BlackoutEnd => "BLACKOUT_END",
            FaultKind::DegradeStart => "DEGRADE_START",
            FaultKind::DegradeEnd => "DEGRADE_END",
            FaultKind::FlashBadBlock => "FLASH_BAD_BLOCK",
        }
    }

    /// The kind whose [`FaultKind::label`] is `label`, if any.
    #[must_use]
    pub fn from_label(label: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Debug for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.label(), f)
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .and_then(FaultKind::from_label)
            .ok_or_else(|| DeError::custom(format!("expected a fault kind label, got {v:?}")))
    }
}

/// One trace record.
///
/// Records serialize and deserialize losslessly, so a dumped trace reads
/// back as the same records (the `trace` explorer's input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A node stored an interval of audio in its local chunk store.
    Recorded {
        /// Recording node.
        node: NodeId,
        /// The event file the data was labeled with, if any (the baseline
        /// labels none).
        event: Option<EventId>,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Stored payload bytes.
        bytes: u64,
        /// What produced the recording.
        kind: RecordKind,
    },
    /// A node wanted to record but had to drop the audio.
    RecordDropped {
        /// Node that dropped.
        node: NodeId,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Why the data was dropped.
        reason: DropReason,
    },
    /// A node erased a previously stored interval (the losing prelude
    /// copies).
    Erased {
        /// Erasing node.
        node: NodeId,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Erased payload bytes.
        bytes: u64,
    },
    /// A control or data message left a node's radio.
    MessageSent {
        /// Sending node.
        node: NodeId,
        /// Protocol-level message kind.
        kind: MsgKind,
        /// Encoded size in bytes.
        bytes: u32,
        /// Send time (global clock).
        t: SimTime,
    },
    /// A chunk entered a node's store (local recording or migration-in).
    ///
    /// Together with [`TraceEvent::ChunkRemoved`] this reconstructs the
    /// network-wide stored-audio multiset at any instant, from which the
    /// redundancy figures are computed.
    ChunkStored {
        /// The storing node.
        node: NodeId,
        /// The node that originally recorded the audio.
        origin: NodeId,
        /// Event file the chunk belongs to, if labeled.
        event: Option<EventId>,
        /// Audio interval start (recorder's global-time estimate).
        audio_t0: SimTime,
        /// Audio interval end.
        audio_t1: SimTime,
        /// Payload bytes.
        bytes: u32,
        /// Store time (global clock).
        t: SimTime,
    },
    /// A chunk left a node's store (migrated out after acknowledgement, or
    /// erased).
    ChunkRemoved {
        /// The node the chunk left.
        node: NodeId,
        /// The original recorder.
        origin: NodeId,
        /// Audio interval start.
        audio_t0: SimTime,
        /// Audio interval end.
        audio_t1: SimTime,
        /// Removal time (global clock).
        t: SimTime,
    },
    /// A bulk storage-balancing transfer finished.
    Migrated {
        /// Donor node.
        from: NodeId,
        /// Recipient node.
        to: NodeId,
        /// Chunks moved.
        chunks: u32,
        /// Payload bytes moved.
        bytes: u64,
        /// True when the donor also kept its copy (lost final ACK), i.e.
        /// the transfer duplicated data.
        duplicated: bool,
        /// Completion time (global clock).
        t: SimTime,
    },
    /// A node became leader for an event.
    LeaderElected {
        /// The new leader.
        node: NodeId,
        /// The event it minted or adopted.
        event: EventId,
        /// True when this was a handoff (RESIGN path) rather than a fresh
        /// election.
        handoff: bool,
        /// Election time (global clock).
        t: SimTime,
    },
    /// Periodic storage occupancy poll.
    Occupancy {
        /// Polled node.
        node: NodeId,
        /// Used chunk slots.
        used: u64,
        /// Total chunk slots.
        capacity: u64,
        /// Poll time (global clock).
        t: SimTime,
    },
    /// Ground-truth: a source became active (backend-emitted).
    SourceStarted {
        /// The source.
        source: SourceId,
        /// Activation time.
        t: SimTime,
    },
    /// Ground-truth: a source went silent (backend-emitted).
    SourceStopped {
        /// The source.
        source: SourceId,
        /// Deactivation time.
        t: SimTime,
    },
    /// Ground-truth: a scheduled fault fired (backend-emitted).
    ///
    /// Faults are part of the scenario, not the protocol, so the record
    /// carries only the fault kind and (when scoped to one node) the
    /// afflicted node; analysis correlates protocol behaviour against
    /// these markers.
    FaultInjected {
        /// Fault kind.
        kind: FaultKind,
        /// Afflicted node, when the fault is node-scoped.
        node: Option<NodeId>,
        /// Injection time (global clock).
        t: SimTime,
    },
}

impl TraceEvent {
    /// The global-clock time the record refers to (interval records use
    /// their start).
    #[must_use]
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Recorded { t0, .. }
            | TraceEvent::RecordDropped { t0, .. }
            | TraceEvent::Erased { t0, .. } => t0,
            TraceEvent::MessageSent { t, .. }
            | TraceEvent::ChunkStored { t, .. }
            | TraceEvent::ChunkRemoved { t, .. }
            | TraceEvent::Migrated { t, .. }
            | TraceEvent::LeaderElected { t, .. }
            | TraceEvent::Occupancy { t, .. }
            | TraceEvent::SourceStarted { t, .. }
            | TraceEvent::SourceStopped { t, .. }
            | TraceEvent::FaultInjected { t, .. } => t,
        }
    }

    /// The record's variant name (the `trace` explorer's `--kind`
    /// vocabulary).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Recorded { .. } => "Recorded",
            TraceEvent::RecordDropped { .. } => "RecordDropped",
            TraceEvent::Erased { .. } => "Erased",
            TraceEvent::MessageSent { .. } => "MessageSent",
            TraceEvent::ChunkStored { .. } => "ChunkStored",
            TraceEvent::ChunkRemoved { .. } => "ChunkRemoved",
            TraceEvent::Migrated { .. } => "Migrated",
            TraceEvent::LeaderElected { .. } => "LeaderElected",
            TraceEvent::Occupancy { .. } => "Occupancy",
            TraceEvent::SourceStarted { .. } => "SourceStarted",
            TraceEvent::SourceStopped { .. } => "SourceStopped",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
        }
    }

    /// True when the record concerns `node` (either endpoint of a
    /// migration; the afflicted node of a node-scoped fault; source
    /// markers concern no node).
    #[must_use]
    pub fn involves(&self, node: NodeId) -> bool {
        match *self {
            TraceEvent::Recorded { node: n, .. }
            | TraceEvent::RecordDropped { node: n, .. }
            | TraceEvent::Erased { node: n, .. }
            | TraceEvent::MessageSent { node: n, .. }
            | TraceEvent::LeaderElected { node: n, .. }
            | TraceEvent::Occupancy { node: n, .. } => n == node,
            TraceEvent::ChunkStored {
                node: n, origin, ..
            }
            | TraceEvent::ChunkRemoved {
                node: n, origin, ..
            } => n == node || origin == node,
            TraceEvent::Migrated { from, to, .. } => from == node || to == node,
            TraceEvent::FaultInjected { node: n, .. } => n == Some(node),
            TraceEvent::SourceStarted { .. } | TraceEvent::SourceStopped { .. } => false,
        }
    }

    /// The record's protocol-level label, when it has one (`MessageSent`
    /// message kinds, `FaultInjected` fault kinds).
    #[must_use]
    pub fn label(&self) -> Option<&'static str> {
        match *self {
            TraceEvent::MessageSent { kind, .. } => Some(kind.label()),
            TraceEvent::FaultInjected { kind, .. } => Some(kind.label()),
            _ => None,
        }
    }
}

/// The records of a run in emission order, or only their digest and
/// count.
///
/// A trace either keeps every record ([`Trace::new`]: dumps, the
/// explorer, metrics and figures read them) or keeps none
/// ([`Trace::digest_only`]: for runs whose consumers read only
/// [`Trace::digest`] and [`Trace::len`], such as the city scale ladder).
/// Both give the same digest and length for the same records. A trace
/// that keeps its records folds the digest when asked for it, which
/// leaves `push` a plain append; a digest-only trace folds each record
/// as it is pushed. Reading records from a digest-only trace panics, so
/// no metric quietly reads an empty ledger.
#[derive(Debug, Clone)]
pub struct Trace {
    kept: Kept,
}

#[derive(Debug, Clone)]
enum Kept {
    /// Every record, in emission order.
    Records(Vec<TraceEvent>),
    /// The digest folded so far and the number of records pushed.
    Digest { fnv: Fnv1a, len: usize },
}

/// What reading the records of a digest-only trace panics with.
const NO_RECORDS: &str = "this trace keeps only its digest and length, not its records \
                          (the run set `WorldConfig::keep_trace_records` to false)";

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty trace that keeps every record.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            kept: Kept::Records(Vec::new()),
        }
    }

    /// Creates an empty trace that keeps only the digest and the number
    /// of records pushed.
    #[must_use]
    pub fn digest_only() -> Self {
        Trace {
            kept: Kept::Digest {
                fnv: Fnv1a::new(),
                len: 0,
            },
        }
    }

    /// True when the trace keeps its records (see [`Trace::digest_only`]).
    #[must_use]
    pub fn keeps_records(&self) -> bool {
        matches!(self.kept, Kept::Records(_))
    }

    /// Appends a record.
    pub fn push(&mut self, event: TraceEvent) {
        match &mut self.kept {
            Kept::Records(events) => events.push(event),
            Kept::Digest { fnv, len } => {
                fnv.fold(&event);
                *len += 1;
            }
        }
    }

    /// All records in emission order.
    ///
    /// # Panics
    ///
    /// Panics on a digest-only trace, which keeps no records.
    #[must_use]
    #[track_caller]
    pub fn events(&self) -> &[TraceEvent] {
        match &self.kept {
            Kept::Records(events) => events,
            Kept::Digest { .. } => panic!("{NO_RECORDS}"),
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.kept {
            Kept::Records(events) => events.len(),
            Kept::Digest { len, .. } => *len,
        }
    }

    /// True when no records have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over records in emission order.
    ///
    /// # Panics
    ///
    /// Panics on a digest-only trace, which keeps no records.
    #[track_caller]
    pub fn iter(&self) -> core::slice::Iter<'_, TraceEvent> {
        self.events().iter()
    }

    /// An order-sensitive FNV-1a digest over the debug rendering of every
    /// record.
    ///
    /// Two traces digest equal iff they hold the same records in the same
    /// order, which is what the seeded-determinism regression guard
    /// asserts across refactors. The rendering streams straight into the
    /// hash, so no record is ever formatted into a `String`.
    #[must_use]
    pub fn digest(&self) -> u64 {
        match &self.kept {
            Kept::Records(events) => {
                let mut fnv = Fnv1a::new();
                for e in events {
                    fnv.fold(e);
                }
                fnv.0
            }
            Kept::Digest { fnv, .. } => fnv.0,
        }
    }
}

/// A `fmt::Write` sink that folds every written byte into a 64-bit
/// FNV-1a hash.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in the `{:?}` rendering of `event`.
    fn fold(&mut self, event: &TraceEvent) {
        write!(self, "{event:?}").expect("hashing never fails");
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = core::slice::Iter<'a, TraceEvent>;
    #[track_caller]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        for event in iter {
            self.push(event);
        }
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            kept: Kept::Records(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_types::EventId;
    use proptest::collection;
    use proptest::prelude::*;

    fn sample_event(t: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            node: NodeId(1),
            kind: MsgKind::Sensing,
            bytes: 12,
            t: SimTime::from_jiffies(t),
        }
    }

    #[test]
    fn push_and_iterate_preserves_order() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.push(sample_event(5));
        tr.push(sample_event(2));
        assert_eq!(tr.len(), 2);
        let times: Vec<u64> = tr.iter().map(|e| e.time().as_jiffies()).collect();
        assert_eq!(times, vec![5, 2]);
    }

    #[test]
    fn collect_and_extend() {
        let tr: Trace = (0..3).map(sample_event).collect();
        assert_eq!(tr.len(), 3);
        let mut tr2 = Trace::new();
        tr2.extend(tr.iter().cloned());
        assert_eq!(tr2.len(), 3);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let ab: Trace = [sample_event(1), sample_event(2)].into_iter().collect();
        let ba: Trace = [sample_event(2), sample_event(1)].into_iter().collect();
        assert_ne!(ab.digest(), ba.digest());
        let ab2: Trace = [sample_event(1), sample_event(2)].into_iter().collect();
        assert_eq!(ab.digest(), ab2.digest());
        assert_ne!(Trace::new().digest(), ab.digest());
    }

    /// One record of every [`TraceEvent`] variant, all at time `t`.
    fn one_of_each(t: SimTime) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Recorded {
                node: NodeId(0),
                event: None,
                t0: t,
                t1: t,
                bytes: 1,
                kind: RecordKind::Task,
            },
            TraceEvent::RecordDropped {
                node: NodeId(0),
                t0: t,
                t1: t,
                reason: DropReason::StorageFull,
            },
            TraceEvent::Erased {
                node: NodeId(0),
                t0: t,
                t1: t,
                bytes: 0,
            },
            TraceEvent::MessageSent {
                node: NodeId(2),
                kind: MsgKind::TaskRequest,
                bytes: 12,
                t,
            },
            TraceEvent::ChunkStored {
                node: NodeId(1),
                origin: NodeId(0),
                event: Some(EventId::new(NodeId(0), 3)),
                audio_t0: t,
                audio_t1: t,
                bytes: 232,
                t,
            },
            TraceEvent::ChunkRemoved {
                node: NodeId(1),
                origin: NodeId(0),
                audio_t0: t,
                audio_t1: t,
                t,
            },
            TraceEvent::Migrated {
                from: NodeId(0),
                to: NodeId(1),
                chunks: 1,
                bytes: 232,
                duplicated: false,
                t,
            },
            TraceEvent::LeaderElected {
                node: NodeId(0),
                event: EventId::new(NodeId(0), 1),
                handoff: false,
                t,
            },
            TraceEvent::Occupancy {
                node: NodeId(0),
                used: 0,
                capacity: 10,
                t,
            },
            TraceEvent::SourceStarted {
                source: SourceId(1),
                t,
            },
            TraceEvent::SourceStopped {
                source: SourceId(1),
                t,
            },
            TraceEvent::FaultInjected {
                kind: FaultKind::Crash,
                node: Some(NodeId(0)),
                t,
            },
        ]
    }

    #[test]
    fn time_accessor_covers_all_variants() {
        let t = SimTime::from_jiffies(9);
        for e in one_of_each(t) {
            assert_eq!(e.time(), t);
        }
    }

    /// The digest as first defined: FNV-1a over each record's `{:?}`
    /// rendering, formatted into a `String` per record.
    fn reference_digest(events: &[TraceEvent]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for e in events {
            for b in format!("{e:?}").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    #[test]
    fn streamed_digest_matches_the_formatted_reference() {
        let t = SimTime::from_jiffies(123_456);
        let all = one_of_each(t);
        assert_eq!(Trace::new().digest(), reference_digest(&[]));
        for e in &all {
            let one: Trace = std::iter::once(e.clone()).collect();
            assert_eq!(one.digest(), reference_digest(one.events()), "{e:?}");
        }
        let whole: Trace = all.into_iter().collect();
        assert_eq!(whole.digest(), reference_digest(whole.events()));
    }

    /// A record of variant `variant % 12`, its node, amounts, kinds and
    /// times drawn from the other three values.
    fn arbitrary_event((variant, node, amount, t): (usize, u32, u64, u64)) -> TraceEvent {
        let node = NodeId(node);
        let other = NodeId(amount as u32);
        let t = SimTime::from_jiffies(t);
        let t1 = SimTime::from_jiffies(amount);
        let event = EventId::new(other, node.0);
        let pick = amount as usize;
        let even = pick.is_multiple_of(2);
        match variant % 12 {
            0 => TraceEvent::Recorded {
                node,
                event: even.then_some(event),
                t0: t,
                t1,
                bytes: amount,
                kind: [RecordKind::Task, RecordKind::Prelude, RecordKind::Baseline][pick % 3],
            },
            1 => TraceEvent::RecordDropped {
                node,
                t0: t,
                t1,
                reason: [DropReason::StorageFull, DropReason::EnergyExhausted][pick % 2],
            },
            2 => TraceEvent::Erased {
                node,
                t0: t,
                t1,
                bytes: amount,
            },
            3 => TraceEvent::MessageSent {
                node,
                kind: MsgKind::ALL[pick % MsgKind::ALL.len()],
                bytes: amount as u32,
                t,
            },
            4 => TraceEvent::ChunkStored {
                node,
                origin: other,
                event: (!even).then_some(event),
                audio_t0: t1,
                audio_t1: t,
                bytes: amount as u32,
                t,
            },
            5 => TraceEvent::ChunkRemoved {
                node,
                origin: other,
                audio_t0: t1,
                audio_t1: t,
                t,
            },
            6 => TraceEvent::Migrated {
                from: node,
                to: other,
                chunks: amount as u32,
                bytes: amount,
                duplicated: even,
                t,
            },
            7 => TraceEvent::LeaderElected {
                node,
                event,
                handoff: !even,
                t,
            },
            8 => TraceEvent::Occupancy {
                node,
                used: amount / 2,
                capacity: amount,
                t,
            },
            9 => TraceEvent::SourceStarted {
                source: SourceId(node.0),
                t,
            },
            10 => TraceEvent::SourceStopped {
                source: SourceId(node.0),
                t,
            },
            _ => TraceEvent::FaultInjected {
                kind: FaultKind::ALL[pick % FaultKind::ALL.len()],
                node: even.then_some(node),
                t,
            },
        }
    }

    proptest! {
        /// Keeping records or only the digest is invisible to every
        /// reader the two levels share: the same records give the same
        /// length and the reference digest either way.
        #[test]
        fn both_keep_levels_give_the_reference_digest_and_length(
            events in collection::vec(
                (0usize..12, any::<u32>(), any::<u64>(), any::<u64>()).prop_map(arbitrary_event),
                0..48,
            )
        ) {
            let kept: Trace = events.iter().cloned().collect();
            let mut folded = Trace::digest_only();
            folded.extend(events.iter().cloned());
            prop_assert!(kept.keeps_records() && !folded.keeps_records());
            prop_assert_eq!(kept.len(), events.len());
            prop_assert_eq!(folded.len(), events.len());
            prop_assert_eq!(folded.is_empty(), events.is_empty());
            prop_assert_eq!(kept.digest(), reference_digest(&events));
            prop_assert_eq!(folded.digest(), reference_digest(&events));
        }
    }

    #[test]
    #[should_panic(expected = "`WorldConfig::keep_trace_records` to false")]
    fn reading_records_of_a_digest_only_trace_panics() {
        let mut tr = Trace::digest_only();
        tr.push(sample_event(1));
        assert_eq!(tr.len(), 1);
        let _ = tr.iter();
    }

    /// The digest of one record of every variant, pinned: message and
    /// fault kinds must hash as their quoted labels, or every golden
    /// digest moves.
    #[test]
    fn one_of_each_digest_is_pinned() {
        let whole: Trace = one_of_each(SimTime::from_jiffies(123_456))
            .into_iter()
            .collect();
        assert_eq!(whole.digest(), 0xff1f_6256_6340_bb98);
    }

    #[test]
    fn kinds_render_parse_and_serialize_as_their_labels() {
        fn check<K: Copy + PartialEq + fmt::Debug + Serialize + Deserialize>(
            k: K,
            label: &str,
            from_label: fn(&str) -> Option<K>,
        ) {
            assert_eq!(format!("{k:?}"), format!("{label:?}"));
            assert_eq!(from_label(label), Some(k));
            assert_eq!(k.to_value(), Value::Str(label.to_string()));
            assert_eq!(K::from_value(&k.to_value()), Ok(k));
        }
        for k in MsgKind::ALL {
            check(k, k.label(), MsgKind::from_label);
        }
        for k in FaultKind::ALL {
            check(k, k.label(), FaultKind::from_label);
        }
        assert_eq!(MsgKind::from_label("CRASH"), None);
        assert_eq!(FaultKind::from_label("SENSING"), None);
        assert!(FaultKind::from_value(&Value::Str("crash".into())).is_err());
        assert!(MsgKind::from_value(&Value::U64(1)).is_err());
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let all = one_of_each(SimTime::from_jiffies(77));
        assert!(all
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultInjected { .. })));
        let json = all.to_value().to_json_pretty();
        let back: Vec<TraceEvent> =
            Deserialize::from_value(&Value::from_json(&json).expect("parses")).expect("reads");
        assert_eq!(back, all);
    }

    #[test]
    fn accessors_name_kinds_nodes_and_labels() {
        let all = one_of_each(SimTime::ZERO);
        let names: Vec<&str> = all.iter().map(TraceEvent::kind_name).collect();
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), all.len(), "one name per variant: {names:?}");
        let labels: Vec<&str> = all.iter().filter_map(TraceEvent::label).collect();
        assert_eq!(labels, ["TASK_REQUEST", "CRASH"]);
        for e in &all {
            let concerns_node_0 = e.involves(NodeId(0));
            let is_source = matches!(
                e,
                TraceEvent::SourceStarted { .. } | TraceEvent::SourceStopped { .. }
            );
            // The one message in `one_of_each` is sent by node 2.
            let is_message = matches!(e, TraceEvent::MessageSent { .. });
            assert_eq!(concerns_node_0, !is_source && !is_message, "{e:?}");
        }
    }
}
