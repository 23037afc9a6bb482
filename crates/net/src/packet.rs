//! Protocol message definitions and the packet codec.
//!
//! Everything EnviroMic sends is a local broadcast; "addressed" messages
//! (task requests, bulk-transfer data, query replies) carry an explicit
//! destination field and every other receiver ignores — but can *overhear*
//! — them, which the task-assignment optimization of Fig. 1 depends on.
//!
//! Multiple messages can share one radio packet: the neighborhood broadcast
//! module piggybacks delay-tolerant messages onto delay-sensitive ones
//! (§III-A), so the unit of encoding is an *envelope* of messages
//! ([`encode_envelope`] / [`decode_envelope`]). Each message's format is
//! one line of the `wire_messages!` list below the enum: its fields in
//! wire order.

use crate::wire::{Reader, WireError, Writer};
use enviromic_flash::{Chunk, ChunkMeta, MAX_LEADER_ID, MAX_ORIGIN_ID};
use enviromic_types::{Bytes, EventId, MsgKind, NodeId, SimDuration, SimTime};
use std::cell::Cell;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Periodic "I can hear the event" beacon from a group member
    /// (§II-A.2). Maintains the soft member list on every node in range.
    Sensing {
        /// The event the sender hears, if it knows the ID yet.
        event: Option<EventId>,
        /// Perceived signal level (0–255), used for recorder selection.
        level: u8,
        /// True when the sender holds a prelude recording for this event.
        has_prelude: bool,
        /// The sender's current storage TTL in seconds (saturated), used
        /// for recorder selection.
        ttl_secs: u32,
    },
    /// Leadership announcement that suppresses other candidates' back-off
    /// timers and mints the event (file) ID (§II-A.1).
    LeaderAnnounce {
        /// The newly minted or adopted event ID.
        event: EventId,
    },
    /// The leader can no longer hear the event; whoever still can should
    /// take over, reusing the same event ID (§II-A.1, Fig. 5).
    Resign {
        /// Event whose leadership is released.
        event: EventId,
        /// The already-scheduled next task-assignment instant, so the new
        /// leader starts on time and no recording gap opens.
        next_assign_at: SimTime,
        /// Task counter, continued by the new leader.
        task_seq: u32,
    },
    /// Leader assigns a recording task to `recorder` (§II-A.2).
    TaskRequest {
        /// Event being recorded.
        event: EventId,
        /// The member assigned to record.
        recorder: NodeId,
        /// Monotone per-event task counter.
        task_seq: u32,
        /// Recording task period `Trc`.
        duration: SimDuration,
        /// The leader's clock reading at send time; recorders use it for
        /// cheap re-synchronization (§III-A).
        leader_time: SimTime,
        /// The member chosen to keep its prelude recording; all other
        /// prelude holders erase theirs (§II-A.1).
        keep_prelude: Option<NodeId>,
    },
    /// Recorder accepts a task and starts recording (§II-A.2).
    TaskConfirm {
        /// Event being recorded.
        event: EventId,
        /// The confirming recorder.
        recorder: NodeId,
        /// Task counter being confirmed.
        task_seq: u32,
    },
    /// Recorder refuses a task because it overheard another member's
    /// `TaskConfirm` for the same slot (Fig. 1 optimization).
    TaskReject {
        /// Event in question.
        event: EventId,
        /// The rejecting member.
        recorder: NodeId,
        /// Task counter being rejected.
        task_seq: u32,
    },
    /// Periodic storage-balancing state beacon: the sender's TTL and free
    /// space (§II-B).
    StateUpdate {
        /// `TTL_storage` in whole seconds, saturating at `u32::MAX`
        /// (which also encodes "no data inflow yet", i.e. infinite TTL).
        ttl_secs: u32,
        /// Free chunk slots.
        free_chunks: u32,
        /// The sender's gossiped estimate of the network-wide average free
        /// fraction, in percent (the global load-balancing extension from
        /// the paper's future work; 100 when the extension is off).
        avg_free_pct: u8,
    },
    /// Donor asks `to` to accept migrated chunks.
    MigrateOffer {
        /// Prospective recipient.
        to: NodeId,
        /// Chunks the donor wants to move.
        chunks: u16,
        /// Donor-chosen session ID for the ensuing bulk transfer.
        session: u32,
    },
    /// Recipient grants (part of) a migration offer.
    MigrateAccept {
        /// The donor being answered.
        to: NodeId,
        /// Session from the offer.
        session: u32,
        /// Chunks the recipient will accept.
        granted: u16,
    },
    /// One chunk of a reliable bulk transfer.
    BulkData {
        /// Recipient.
        to: NodeId,
        /// Transfer session.
        session: u32,
        /// Sequence number within the session.
        seq: u16,
        /// True on the final chunk of the session.
        last: bool,
        /// The chunk payload.
        chunk: Chunk,
    },
    /// Acknowledgement of a [`Message::BulkData`] packet.
    BulkAck {
        /// The sender being acknowledged.
        to: NodeId,
        /// Transfer session.
        session: u32,
        /// Sequence number acknowledged.
        seq: u16,
    },
    /// FTSP-style time reference beacon.
    TimeSync {
        /// The reference node that originated the beacon.
        root: NodeId,
        /// Beacon sequence number.
        seq: u32,
        /// The root's clock at transmission.
        ref_time: SimTime,
    },
    /// Spanning-tree construction wave for multihop retrieval (§II-C).
    TreeBuild {
        /// Tree root (the querying user).
        root: NodeId,
        /// Identifier of this construction wave.
        build_id: u32,
        /// Hop count from the root at the sender.
        hops: u8,
    },
    /// Retrieval query flooded down the tree (§II-C).
    Query {
        /// Querying root.
        root: NodeId,
        /// Query identifier.
        query_id: u32,
        /// Start of the time range of interest.
        t0: SimTime,
        /// End of the time range of interest.
        t1: SimTime,
        /// True for the common "retrieve everything" query.
        all: bool,
    },
    /// One chunk travelling up the tree in answer to a query.
    QueryData {
        /// Next hop (the sender's tree parent).
        to: NodeId,
        /// Querying root (final destination).
        root: NodeId,
        /// Query being answered.
        query_id: u32,
        /// The chunk.
        chunk: Chunk,
    },
    /// End-of-answer marker from one node for one query.
    QueryDone {
        /// Next hop (the sender's tree parent).
        to: NodeId,
        /// Querying root.
        root: NodeId,
        /// Query being answered.
        query_id: u32,
        /// The answering node.
        source: NodeId,
        /// Number of chunks the answering node sent.
        sent: u32,
    },
}

/// The wire tag of `kind`: its 1-based position in [`MsgKind::ALL`],
/// which lists the kinds in declaration order.
fn wire_tag(kind: MsgKind) -> u8 {
    kind as u8 + 1
}

/// The kind a wire tag names, if any (see [`wire_tag`]).
fn tag_kind(tag: u8) -> Option<MsgKind> {
    MsgKind::ALL.get(usize::from(tag).checked_sub(1)?).copied()
}

/// Writes [`Message::kind`] and the codec's per-message encoder and
/// decoder from one list of the variants, each with its fields in wire
/// order. A message is its kind's [`wire_tag`] followed by its fields,
/// each in its type's [`Wire`] format. The list binds every field by
/// name, so a variant or field missing from it does not compile.
macro_rules! wire_messages {
    ($($variant:ident { $($field:ident),* }),+ $(,)?) => {
        impl Message {
            /// The message's kind, for tracing and message censuses (Fig. 12).
            #[must_use]
            pub fn kind(&self) -> MsgKind {
                match self {
                    $(Message::$variant { .. } => MsgKind::$variant,)+
                }
            }

            fn encode_into(&self, w: &mut Writer) {
                w.u8(wire_tag(self.kind()));
                match self {
                    $(Message::$variant { $($field),* } => {
                        $($field.write(w);)*
                    })+
                }
            }

            fn decode_from(r: &mut Reader<'_>) -> Result<Message, WireError> {
                let at = r.position();
                let kind = tag_kind(r.u8()?).ok_or(WireError {
                    at,
                    expected: "known message tag",
                })?;
                Ok(match kind {
                    $(MsgKind::$variant => Message::$variant {
                        $($field: Wire::read(r)?),*
                    },)+
                })
            }
        }
    };
}

wire_messages! {
    Sensing { event, level, has_prelude, ttl_secs },
    LeaderAnnounce { event },
    Resign { event, next_assign_at, task_seq },
    TaskRequest { event, recorder, task_seq, duration, leader_time, keep_prelude },
    TaskConfirm { event, recorder, task_seq },
    TaskReject { event, recorder, task_seq },
    StateUpdate { ttl_secs, free_chunks, avg_free_pct },
    MigrateOffer { to, chunks, session },
    MigrateAccept { to, session, granted },
    BulkData { to, session, seq, last, chunk },
    BulkAck { to, session, seq },
    TimeSync { root, seq, ref_time },
    TreeBuild { root, build_id, hops },
    Query { root, query_id, t0, t1, all },
    QueryData { to, root, query_id, chunk },
    QueryDone { to, root, query_id, source, sent },
}

/// A message field type and its wire format.
///
/// The node-ID, event-ID and option formats are `#[inline]`: most fields
/// go through them, and called out of line they cost about a tenth of a
/// message's encoding time.
trait Wire: Sized {
    fn write(&self, w: &mut Writer);
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Fields that the [`Writer`] and [`Reader`] method of the given name
/// carry as they are.
macro_rules! wire_by_method {
    ($($ty:ty => $method:ident),+ $(,)?) => {
        $(impl Wire for $ty {
            fn write(&self, w: &mut Writer) {
                w.$method(*self);
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$method()
            }
        })+
    };
}

wire_by_method!(u8 => u8, u16 => u16, u32 => u32, SimTime => time, SimDuration => duration);

/// One byte, 1 for true; any byte but 0 reads as true.
impl Wire for bool {
    fn write(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

/// Escape sentinel for the node-ID wire format: a 16-bit ID equal to the
/// sentinel means "the real 32-bit ID follows".
const NODE_ID_ESCAPE: u16 = 0xFFFF;

/// The escape-coded node ID.
///
/// IDs below `0xFFFF` keep the classic two-byte encoding — byte-for-byte
/// identical to the historical fixed-u16 format, so every packet in a
/// sub-65 535-node world (and therefore its airtime, which is proportional
/// to byte length, and every pinned trace digest) is unchanged. IDs of
/// `0xFFFF` and above are written as the two-byte sentinel followed by the
/// full 32-bit ID, letting 100k-node worlds communicate at the cost of
/// four extra bytes on only those packets that actually name a large ID.
impl Wire for NodeId {
    #[inline]
    fn write(&self, w: &mut Writer) {
        let raw = u32::from(*self);
        if raw < u32::from(NODE_ID_ESCAPE) {
            w.u16(raw as u16);
        } else {
            w.u16(NODE_ID_ESCAPE);
            w.u32(raw);
        }
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let lo = r.u16()?;
        if lo < NODE_ID_ESCAPE {
            Ok(NodeId::from(lo))
        } else {
            Ok(NodeId::from(r.u32()?))
        }
    }
}

/// The leader's node ID, then the sequence number.
impl Wire for EventId {
    #[inline]
    fn write(&self, w: &mut Writer) {
        self.leader().write(w);
        self.seq().write(w);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let leader = NodeId::read(r)?;
        let seq = u32::read(r)?;
        Ok(EventId::new(leader, seq))
    }
}

/// A presence byte, 1 for `Some`, then the value; any byte but 0 reads
/// as `Some`.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn write(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.u8(1);
                v.write(w);
            }
            None => w.u8(0),
        }
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => None,
            _ => Some(T::read(r)?),
        })
    }
}

/// The chunk's origin, event and start time, then its payload with a
/// one-byte length. Reading rejects IDs wider than the flash header that
/// will store the chunk can hold (`Chunk::encode` would panic on them)
/// and payloads longer than one block's.
impl Wire for Chunk {
    fn write(&self, w: &mut Writer) {
        self.meta.origin.write(w);
        self.meta.event.write(w);
        self.meta.t_start.write(w);
        w.bytes8(&self.payload);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.position();
        let origin = NodeId::read(r)?;
        if u32::from(origin) > MAX_ORIGIN_ID {
            return Err(WireError {
                at,
                expected: "chunk origin within the 24-bit flash header",
            });
        }
        let at = r.position();
        let event = Option::<EventId>::read(r)?;
        if event.is_some_and(|ev| u32::from(ev.leader()) > MAX_LEADER_ID) {
            return Err(WireError {
                at,
                expected: "event leader within the 23-bit flash header",
            });
        }
        let t_start = SimTime::read(r)?;
        let at = r.position();
        let payload = r.bytes8()?;
        if payload.len() > enviromic_types::audio::CHUNK_PAYLOAD_BYTES as usize {
            return Err(WireError {
                at,
                expected: "chunk payload within one block",
            });
        }
        Ok(Chunk::new(
            ChunkMeta {
                origin,
                event,
                t_start,
            },
            payload.to_vec(),
        ))
    }
}

impl Message {
    /// True for messages the sender must get on the air immediately
    /// (task management); false for delay-tolerant traffic that may wait
    /// for a piggybacking opportunity (§III-A).
    #[must_use]
    pub fn is_delay_sensitive(&self) -> bool {
        !matches!(self, Message::StateUpdate { .. } | Message::TimeSync { .. })
    }

    /// Encodes one message as a single-entry envelope.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        encode_envelope(core::slice::from_ref(self))
    }

    /// The encoded size of this message alone (excluding the 1-byte
    /// envelope header). It encodes into the thread's scratch buffer, so
    /// it allocates nothing once the thread has encoded a message as
    /// long.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        Writer::with_scratch(|w| {
            self.encode_into(w);
            w.len()
        })
    }
}

/// Encodes an envelope of messages sharing one radio packet.
///
/// The envelope is written into the thread's scratch buffer and copied
/// once into the returned [`Bytes`], its only allocation; the `Bytes` is
/// cheaply clonable, so one encoded packet is shared across every radio
/// delivery without copying the payload.
///
/// # Panics
///
/// Panics when more than 255 messages are supplied (far beyond any radio
/// MTU).
#[must_use]
pub fn encode_envelope<'m>(messages: impl IntoIterator<Item = &'m Message>) -> Bytes {
    Writer::with_scratch(|w| {
        w.u8(0);
        let mut count = 0usize;
        for m in messages {
            m.encode_into(w);
            count += 1;
        }
        w.set_u8(
            0,
            u8::try_from(count).expect("envelope of over 255 messages"),
        );
        Bytes::from(w.as_bytes())
    })
}

/// Decodes an envelope produced by [`encode_envelope`] into a new vector.
///
/// # Errors
///
/// [`WireError`] on truncation or unknown tags.
pub fn decode_envelope(bytes: &[u8]) -> Result<Vec<Message>, WireError> {
    let mut messages = Vec::new();
    decode_into(bytes, &mut messages)?;
    Ok(messages)
}

thread_local! {
    /// The message buffer every [`with_envelope`] on this thread decodes
    /// into; it keeps the capacity of the longest envelope so far.
    static DECODED: Cell<Vec<Message>> = const { Cell::new(Vec::new()) };
}

/// Decodes an envelope into the thread's reused message buffer and hands
/// its messages, in order and by value, to `handle`.
///
/// The envelope is decoded whole before `handle` runs, so a malformed one
/// is rejected whole: `handle` is not called. A nested call decodes into
/// a fresh buffer, which is correct but allocates.
///
/// # Errors
///
/// [`WireError`] on truncation or unknown tags.
pub fn with_envelope<R>(
    bytes: &[u8],
    handle: impl FnOnce(std::vec::Drain<'_, Message>) -> R,
) -> Result<R, WireError> {
    let mut messages = DECODED.take();
    let result = decode_into(bytes, &mut messages).map(|()| handle(messages.drain(..)));
    messages.clear();
    DECODED.set(messages);
    result
}

/// Appends the messages of the envelope `bytes` to `out`.
fn decode_into(bytes: &[u8], out: &mut Vec<Message>) -> Result<(), WireError> {
    let mut r = Reader::new(bytes);
    let count = r.u8()?;
    out.reserve_exact(usize::from(count));
    for _ in 0..count {
        out.push(Message::decode_from(&mut r)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> Chunk {
        Chunk::new(
            ChunkMeta {
                origin: NodeId(5),
                event: Some(EventId::new(NodeId(2), 8)),
                t_start: SimTime::from_jiffies(1_000_000),
            },
            vec![9; 64],
        )
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Sensing {
                event: Some(EventId::new(NodeId(1), 2)),
                level: 180,
                has_prelude: true,
                ttl_secs: 3600,
            },
            Message::Sensing {
                event: None,
                level: 40,
                has_prelude: false,
                ttl_secs: u32::MAX,
            },
            Message::LeaderAnnounce {
                event: EventId::new(NodeId(9), 1),
            },
            Message::Resign {
                event: EventId::new(NodeId(9), 1),
                next_assign_at: SimTime::from_jiffies(555),
                task_seq: 12,
            },
            Message::TaskRequest {
                event: EventId::new(NodeId(9), 1),
                recorder: NodeId(4),
                task_seq: 13,
                duration: SimDuration::from_secs_f64(1.0),
                leader_time: SimTime::from_jiffies(999),
                keep_prelude: Some(NodeId(7)),
            },
            Message::TaskConfirm {
                event: EventId::new(NodeId(9), 1),
                recorder: NodeId(4),
                task_seq: 13,
            },
            Message::TaskReject {
                event: EventId::new(NodeId(9), 1),
                recorder: NodeId(4),
                task_seq: 13,
            },
            Message::StateUpdate {
                ttl_secs: 120,
                free_chunks: 512,
                avg_free_pct: 73,
            },
            Message::MigrateOffer {
                to: NodeId(3),
                chunks: 16,
                session: 77,
            },
            Message::MigrateAccept {
                to: NodeId(2),
                session: 77,
                granted: 8,
            },
            Message::BulkData {
                to: NodeId(3),
                session: 77,
                seq: 4,
                last: false,
                chunk: sample_chunk(),
            },
            Message::BulkAck {
                to: NodeId(2),
                session: 77,
                seq: 4,
            },
            Message::TimeSync {
                root: NodeId(0),
                seq: 42,
                ref_time: SimTime::from_jiffies(123),
            },
            Message::TreeBuild {
                root: NodeId(0),
                build_id: 3,
                hops: 2,
            },
            Message::Query {
                root: NodeId(0),
                query_id: 6,
                t0: SimTime::ZERO,
                t1: SimTime::from_jiffies(1 << 40),
                all: true,
            },
            Message::QueryData {
                to: NodeId(1),
                root: NodeId(0),
                query_id: 6,
                chunk: sample_chunk(),
            },
            Message::QueryDone {
                to: NodeId(1),
                root: NodeId(0),
                query_id: 6,
                source: NodeId(9),
                sent: 100,
            },
        ]
    }

    #[test]
    fn every_message_round_trips_alone() {
        for m in all_messages() {
            let bytes = m.encode();
            let decoded = decode_envelope(&bytes).unwrap();
            assert_eq!(decoded, vec![m]);
        }
    }

    /// The exact bytes of every [`all_messages`] entry as a one-message
    /// envelope: the count byte, the wire tag, then the fields in order.
    #[test]
    fn encoded_bytes_are_pinned() {
        const PINNED: [&str; 17] = [
            "010101010002000000b401100e0000",
            "0101002800ffffffff",
            "0102090001000000",
            "01030900010000002b02000000000c000000",
            "010409000100000004000d00000000800000e70300000000010700",
            "010509000100000004000d000000",
            "010609000100000004000d000000",
            "0107780000000002000049",
            "0108030010004d000000",
            "010902004d0000000800",
            "010a03004d00000004000005000102000800000040420f00000040\
             09090909090909090909090909090909090909090909090909090909090909090\
             909090909090909090909090909090909090909090909090909090909090909",
            "010b02004d0000000400",
            "010c00002a0000007b0000000000",
            "010d00000300000002",
            "010e00000600000000000000000000000000000101",
            "010f010000000600000005000102000800000040420f00000040\
             09090909090909090909090909090909090909090909090909090909090909090\
             909090909090909090909090909090909090909090909090909090909090909",
            "01100100000006000000090064000000",
        ];
        let messages = all_messages();
        assert_eq!(messages.len(), PINNED.len());
        for (m, pinned) in messages.iter().zip(PINNED) {
            let hex: String = m.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "{:?}", m.kind());
        }
    }

    #[test]
    fn wide_node_ids_round_trip_via_escape() {
        // IDs at and above 0xFFFF take the escape path (sentinel + u32);
        // messages naming them must survive the codec unchanged.
        let wide = [NodeId(0xFFFF), NodeId(70_000), NodeId(u32::MAX)];
        for id in wide {
            let msgs = vec![
                Message::LeaderAnnounce {
                    event: EventId::new(id, 7),
                },
                Message::TaskRequest {
                    event: EventId::new(id, 7),
                    recorder: id,
                    task_seq: 1,
                    duration: SimDuration::from_secs_f64(1.0),
                    leader_time: SimTime::from_jiffies(5),
                    keep_prelude: Some(id),
                },
                Message::QueryDone {
                    to: id,
                    root: id,
                    query_id: 6,
                    source: id,
                    sent: 3,
                },
            ];
            let bytes = encode_envelope(&msgs);
            assert_eq!(decode_envelope(&bytes).unwrap(), msgs);
        }
    }

    #[test]
    fn narrow_node_ids_keep_two_byte_encoding() {
        // The escape scheme must not change the length (and thus airtime)
        // of any packet whose IDs fit 16 bits: a TimeSync naming node
        // 0xFFFE encodes exactly as long as one naming node 0.
        let len = |root: NodeId| {
            Message::TimeSync {
                root,
                seq: 1,
                ref_time: SimTime::ZERO,
            }
            .encoded_len()
        };
        assert_eq!(len(NodeId(0)), len(NodeId(0xFFFE)));
        assert_eq!(len(NodeId(0xFFFF)), len(NodeId(0)) + 4, "escape adds u32");
    }

    #[test]
    fn envelope_round_trips_many() {
        let msgs = all_messages();
        let bytes = encode_envelope(&msgs);
        assert_eq!(decode_envelope(&bytes).unwrap(), msgs);
    }

    #[test]
    fn with_envelope_hands_over_whole_envelopes_only() {
        let msgs = all_messages();
        let bytes = encode_envelope(&msgs);
        let handed = with_envelope(&bytes, |m| m.collect::<Vec<_>>()).unwrap();
        assert_eq!(handed, msgs);
        let cut = &bytes[..bytes.len() - 1];
        let mut called = false;
        assert!(with_envelope(cut, |_| called = true).is_err());
        assert!(!called, "a malformed envelope reaches no handler");
        let one = msgs[0].encode();
        let counts = with_envelope(&bytes, |outer| {
            let inner = with_envelope(&one, |m| m.count()).unwrap();
            (outer.count(), inner)
        });
        assert_eq!(
            counts,
            Ok((msgs.len(), 1)),
            "a nested decode has its own buffer"
        );
    }

    #[test]
    fn encoded_len_matches_actual() {
        for m in all_messages() {
            assert_eq!(m.encode().len(), m.encoded_len() + 1, "{:?}", m.kind());
        }
    }

    #[test]
    fn kinds_cover_every_msg_kind_with_distinct_labels() {
        let mut kinds: Vec<MsgKind> = all_messages().iter().map(Message::kind).collect();
        kinds.dedup();
        assert_eq!(
            kinds,
            MsgKind::ALL,
            "one kind per message type, in tag order"
        );
        let mut labels: Vec<&str> = MsgKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MsgKind::ALL.len(), "labels are distinct");
    }

    #[test]
    fn control_messages_are_small() {
        // Control traffic must fit comfortably in a mote packet (~100 B).
        for m in all_messages() {
            if !matches!(m, Message::BulkData { .. } | Message::QueryData { .. }) {
                assert!(
                    m.encoded_len() <= 32,
                    "{:?} is {}B",
                    m.kind(),
                    m.encoded_len()
                );
            }
        }
    }

    #[test]
    fn chunks_wider_than_the_flash_header_are_rejected() {
        let bulk = |origin: u32, leader: u32| {
            let mut chunk = sample_chunk();
            chunk.meta.origin = NodeId(origin);
            chunk.meta.event = Some(EventId::new(NodeId(leader), 8));
            Message::BulkData {
                to: NodeId(3),
                session: 77,
                seq: 4,
                last: false,
                chunk,
            }
            .encode()
        };
        assert!(decode_envelope(&bulk(MAX_ORIGIN_ID, MAX_LEADER_ID)).is_ok());
        let err = decode_envelope(&bulk(1 << 24, 2)).unwrap_err();
        assert_eq!(err.expected, "chunk origin within the 24-bit flash header");
        let err = decode_envelope(&bulk(5, 1 << 23)).unwrap_err();
        assert_eq!(err.expected, "event leader within the 23-bit flash header");
    }

    #[test]
    fn wire_tags_run_from_1_in_kind_order() {
        let mut tags: Vec<u8> = all_messages().iter().map(|m| m.encode()[1]).collect();
        tags.dedup();
        assert_eq!(tags, (1..=16).collect::<Vec<u8>>());
        for kind in MsgKind::ALL {
            assert_eq!(tag_kind(wire_tag(kind)), Some(kind));
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        for tag in [0, 17, 200] {
            let err = decode_envelope(&[1, tag]).unwrap_err();
            assert_eq!(err.expected, "known message tag");
            assert_eq!(err.at, 1, "tag {tag}");
        }
    }

    #[test]
    fn truncated_envelope_is_rejected() {
        let msgs = vec![Message::StateUpdate {
            ttl_secs: 1,
            free_chunks: 2,
            avg_free_pct: 50,
        }];
        let mut bytes = encode_envelope(&msgs).to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(decode_envelope(&bytes).is_err());
    }

    #[test]
    fn delay_sensitivity_classes() {
        assert!(!Message::StateUpdate {
            ttl_secs: 0,
            free_chunks: 0,
            avg_free_pct: 100
        }
        .is_delay_sensitive());
        assert!(!Message::TimeSync {
            root: NodeId(0),
            seq: 0,
            ref_time: SimTime::ZERO
        }
        .is_delay_sensitive());
        assert!(Message::LeaderAnnounce {
            event: EventId::new(NodeId(0), 0)
        }
        .is_delay_sensitive());
    }
}
