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
//! ([`encode_envelope`] / [`decode_envelope`]).

use crate::wire::{Reader, WireError, Writer};
use enviromic_flash::{Chunk, ChunkMeta, MAX_LEADER_ID, MAX_ORIGIN_ID};
use enviromic_types::{Bytes, EventId, MsgKind, NodeId, SimDuration, SimTime};

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

/// Escape sentinel for the node-ID wire format: a 16-bit ID equal to the
/// sentinel means "the real 32-bit ID follows".
const NODE_ID_ESCAPE: u16 = 0xFFFF;

/// Writes a node ID in the escape-coded radio wire format.
///
/// IDs below `0xFFFF` keep the classic two-byte encoding — byte-for-byte
/// identical to the historical fixed-u16 format, so every packet in a
/// sub-65 535-node world (and therefore its airtime, which is proportional
/// to byte length, and every pinned trace digest) is unchanged. IDs of
/// `0xFFFF` and above are written as the two-byte sentinel followed by the
/// full 32-bit ID, letting 100k-node worlds communicate at the cost of
/// four extra bytes on only those packets that actually name a large ID.
fn write_node(w: &mut Writer, id: NodeId) {
    let raw = u32::from(id);
    if raw < u32::from(NODE_ID_ESCAPE) {
        w.u16(raw as u16);
    } else {
        w.u16(NODE_ID_ESCAPE);
        w.u32(raw);
    }
}

/// Reads a node ID in the escape-coded wire format (see [`write_node`]).
fn read_node(r: &mut Reader<'_>) -> Result<NodeId, WireError> {
    let lo = r.u16()?;
    if lo < NODE_ID_ESCAPE {
        Ok(NodeId::from(lo))
    } else {
        Ok(NodeId::from(r.u32()?))
    }
}

fn write_event(w: &mut Writer, event: EventId) {
    write_node(w, event.leader());
    w.u32(event.seq());
}

fn read_event(r: &mut Reader<'_>) -> Result<EventId, WireError> {
    let leader = read_node(r)?;
    let seq = r.u32()?;
    Ok(EventId::new(leader, seq))
}

fn write_opt_event(w: &mut Writer, event: Option<EventId>) {
    match event {
        Some(ev) => {
            w.u8(1);
            write_event(w, ev);
        }
        None => w.u8(0),
    }
}

fn read_opt_event(r: &mut Reader<'_>) -> Result<Option<EventId>, WireError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(read_event(r)?),
    })
}

fn write_chunk(w: &mut Writer, chunk: &Chunk) {
    write_node(w, chunk.meta.origin);
    write_opt_event(w, chunk.meta.event);
    w.time(chunk.meta.t_start);
    w.bytes8(&chunk.payload);
}

/// Reads a chunk, rejecting IDs wider than the flash header that will
/// store it can hold (`Chunk::encode` would panic on them).
fn read_chunk(r: &mut Reader<'_>) -> Result<Chunk, WireError> {
    let at = r.position();
    let origin = read_node(r)?;
    if u32::from(origin) > MAX_ORIGIN_ID {
        return Err(WireError {
            at,
            expected: "chunk origin within the 24-bit flash header",
        });
    }
    let at = r.position();
    let event = read_opt_event(r)?;
    if event.is_some_and(|ev| u32::from(ev.leader()) > MAX_LEADER_ID) {
        return Err(WireError {
            at,
            expected: "event leader within the 23-bit flash header",
        });
    }
    let t_start = r.time()?;
    let at = r.position();
    let payload = r.bytes8()?.to_vec();
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
        payload,
    ))
}

impl Message {
    /// The message's kind, for tracing and message censuses (Fig. 12).
    #[must_use]
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::Sensing { .. } => MsgKind::Sensing,
            Message::LeaderAnnounce { .. } => MsgKind::LeaderAnnounce,
            Message::Resign { .. } => MsgKind::Resign,
            Message::TaskRequest { .. } => MsgKind::TaskRequest,
            Message::TaskConfirm { .. } => MsgKind::TaskConfirm,
            Message::TaskReject { .. } => MsgKind::TaskReject,
            Message::StateUpdate { .. } => MsgKind::StateUpdate,
            Message::MigrateOffer { .. } => MsgKind::MigrateOffer,
            Message::MigrateAccept { .. } => MsgKind::MigrateAccept,
            Message::BulkData { .. } => MsgKind::BulkData,
            Message::BulkAck { .. } => MsgKind::BulkAck,
            Message::TimeSync { .. } => MsgKind::TimeSync,
            Message::TreeBuild { .. } => MsgKind::TreeBuild,
            Message::Query { .. } => MsgKind::Query,
            Message::QueryData { .. } => MsgKind::QueryData,
            Message::QueryDone { .. } => MsgKind::QueryDone,
        }
    }

    /// True for messages the sender must get on the air immediately
    /// (task management); false for delay-tolerant traffic that may wait
    /// for a piggybacking opportunity (§III-A).
    #[must_use]
    pub fn is_delay_sensitive(&self) -> bool {
        !matches!(self, Message::StateUpdate { .. } | Message::TimeSync { .. })
    }

    fn encode_into(&self, w: &mut Writer) {
        w.u8(wire_tag(self.kind()));
        match self {
            Message::Sensing {
                event,
                level,
                has_prelude,
                ttl_secs,
            } => {
                write_opt_event(w, *event);
                w.u8(*level);
                w.u8(u8::from(*has_prelude));
                w.u32(*ttl_secs);
            }
            Message::LeaderAnnounce { event } => {
                write_event(w, *event);
            }
            Message::Resign {
                event,
                next_assign_at,
                task_seq,
            } => {
                write_event(w, *event);
                w.time(*next_assign_at);
                w.u32(*task_seq);
            }
            Message::TaskRequest {
                event,
                recorder,
                task_seq,
                duration,
                leader_time,
                keep_prelude,
            } => {
                write_event(w, *event);
                write_node(w, *recorder);
                w.u32(*task_seq);
                w.duration(*duration);
                w.time(*leader_time);
                match keep_prelude {
                    Some(n) => {
                        w.u8(1);
                        write_node(w, *n);
                    }
                    None => w.u8(0),
                }
            }
            Message::TaskConfirm {
                event,
                recorder,
                task_seq,
            } => {
                write_event(w, *event);
                write_node(w, *recorder);
                w.u32(*task_seq);
            }
            Message::TaskReject {
                event,
                recorder,
                task_seq,
            } => {
                write_event(w, *event);
                write_node(w, *recorder);
                w.u32(*task_seq);
            }
            Message::StateUpdate {
                ttl_secs,
                free_chunks,
                avg_free_pct,
            } => {
                w.u32(*ttl_secs);
                w.u32(*free_chunks);
                w.u8(*avg_free_pct);
            }
            Message::MigrateOffer {
                to,
                chunks,
                session,
            } => {
                write_node(w, *to);
                w.u16(*chunks);
                w.u32(*session);
            }
            Message::MigrateAccept {
                to,
                session,
                granted,
            } => {
                write_node(w, *to);
                w.u32(*session);
                w.u16(*granted);
            }
            Message::BulkData {
                to,
                session,
                seq,
                last,
                chunk,
            } => {
                write_node(w, *to);
                w.u32(*session);
                w.u16(*seq);
                w.u8(u8::from(*last));
                write_chunk(w, chunk);
            }
            Message::BulkAck { to, session, seq } => {
                write_node(w, *to);
                w.u32(*session);
                w.u16(*seq);
            }
            Message::TimeSync {
                root,
                seq,
                ref_time,
            } => {
                write_node(w, *root);
                w.u32(*seq);
                w.time(*ref_time);
            }
            Message::TreeBuild {
                root,
                build_id,
                hops,
            } => {
                write_node(w, *root);
                w.u32(*build_id);
                w.u8(*hops);
            }
            Message::Query {
                root,
                query_id,
                t0,
                t1,
                all,
            } => {
                write_node(w, *root);
                w.u32(*query_id);
                w.time(*t0);
                w.time(*t1);
                w.u8(u8::from(*all));
            }
            Message::QueryData {
                to,
                root,
                query_id,
                chunk,
            } => {
                write_node(w, *to);
                write_node(w, *root);
                w.u32(*query_id);
                write_chunk(w, chunk);
            }
            Message::QueryDone {
                to,
                root,
                query_id,
                source,
                sent,
            } => {
                write_node(w, *to);
                write_node(w, *root);
                w.u32(*query_id);
                write_node(w, *source);
                w.u32(*sent);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Message, WireError> {
        let at = r.position();
        let kind = tag_kind(r.u8()?).ok_or(WireError {
            at,
            expected: "known message tag",
        })?;
        Ok(match kind {
            MsgKind::Sensing => Message::Sensing {
                event: read_opt_event(r)?,
                level: r.u8()?,
                has_prelude: r.u8()? != 0,
                ttl_secs: r.u32()?,
            },
            MsgKind::LeaderAnnounce => Message::LeaderAnnounce {
                event: read_event(r)?,
            },
            MsgKind::Resign => Message::Resign {
                event: read_event(r)?,
                next_assign_at: r.time()?,
                task_seq: r.u32()?,
            },
            MsgKind::TaskRequest => Message::TaskRequest {
                event: read_event(r)?,
                recorder: read_node(r)?,
                task_seq: r.u32()?,
                duration: r.duration()?,
                leader_time: r.time()?,
                keep_prelude: match r.u8()? {
                    0 => None,
                    _ => Some(read_node(r)?),
                },
            },
            MsgKind::TaskConfirm => Message::TaskConfirm {
                event: read_event(r)?,
                recorder: read_node(r)?,
                task_seq: r.u32()?,
            },
            MsgKind::TaskReject => Message::TaskReject {
                event: read_event(r)?,
                recorder: read_node(r)?,
                task_seq: r.u32()?,
            },
            MsgKind::StateUpdate => Message::StateUpdate {
                ttl_secs: r.u32()?,
                free_chunks: r.u32()?,
                avg_free_pct: r.u8()?,
            },
            MsgKind::MigrateOffer => Message::MigrateOffer {
                to: read_node(r)?,
                chunks: r.u16()?,
                session: r.u32()?,
            },
            MsgKind::MigrateAccept => Message::MigrateAccept {
                to: read_node(r)?,
                session: r.u32()?,
                granted: r.u16()?,
            },
            MsgKind::BulkData => Message::BulkData {
                to: read_node(r)?,
                session: r.u32()?,
                seq: r.u16()?,
                last: r.u8()? != 0,
                chunk: read_chunk(r)?,
            },
            MsgKind::BulkAck => Message::BulkAck {
                to: read_node(r)?,
                session: r.u32()?,
                seq: r.u16()?,
            },
            MsgKind::TimeSync => Message::TimeSync {
                root: read_node(r)?,
                seq: r.u32()?,
                ref_time: r.time()?,
            },
            MsgKind::TreeBuild => Message::TreeBuild {
                root: read_node(r)?,
                build_id: r.u32()?,
                hops: r.u8()?,
            },
            MsgKind::Query => Message::Query {
                root: read_node(r)?,
                query_id: r.u32()?,
                t0: r.time()?,
                t1: r.time()?,
                all: r.u8()? != 0,
            },
            MsgKind::QueryData => Message::QueryData {
                to: read_node(r)?,
                root: read_node(r)?,
                query_id: r.u32()?,
                chunk: read_chunk(r)?,
            },
            MsgKind::QueryDone => Message::QueryDone {
                to: read_node(r)?,
                root: read_node(r)?,
                query_id: r.u32()?,
                source: read_node(r)?,
                sent: r.u32()?,
            },
        })
    }

    /// Encodes one message as a single-entry envelope.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        encode_envelope(core::slice::from_ref(self))
    }

    /// The encoded size of this message alone (excluding the 1-byte
    /// envelope header).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.len()
    }
}

/// Encodes an envelope of messages sharing one radio packet.
///
/// Returns a cheaply clonable [`Bytes`] so one encoded packet can be
/// shared across every radio delivery without copying the payload.
///
/// # Panics
///
/// Panics when more than 255 messages are supplied (far beyond any radio
/// MTU).
#[must_use]
pub fn encode_envelope(messages: &[Message]) -> Bytes {
    let count = u8::try_from(messages.len()).expect("envelope of over 255 messages");
    let mut w = Writer::new();
    w.u8(count);
    for m in messages {
        m.encode_into(&mut w);
    }
    w.into_bytes().into()
}

/// Decodes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// [`WireError`] on truncation or unknown tags.
pub fn decode_envelope(bytes: &[u8]) -> Result<Vec<Message>, WireError> {
    let mut r = Reader::new(bytes);
    let count = r.u8()?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(Message::decode_from(&mut r)?);
    }
    Ok(out)
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
