//! Property tests: every expressible message survives a wire round trip,
//! in arbitrary envelope groupings, and the decoder never panics on junk
//! or truncated input. Node IDs mix the two-byte form with the
//! escape-coded wide form (sentinel plus `u32`); chunk IDs stay within
//! the flash header's widths, and wider ones are rejected. Times range
//! over all of `u64` and come back saturated at the wire's 48 bits.

use enviromic_flash::{Chunk, ChunkMeta, MAX_LEADER_ID, MAX_ORIGIN_ID};
use enviromic_net::{decode_envelope, encode_envelope, Message};
use enviromic_types::{EventId, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    arb_node_upto(u32::MAX)
}

/// A node ID in `0..=max`, in both the two-byte and the escape-coded form.
fn arb_node_upto(max: u32) -> impl Strategy<Value = NodeId> {
    prop_oneof![
        any::<u16>().prop_map(NodeId::from),
        (0xFFFFu32..=max).prop_map(NodeId::from),
    ]
}

fn arb_event() -> impl Strategy<Value = EventId> {
    (arb_node(), any::<u32>()).prop_map(|(l, s)| EventId::new(l, s))
}

/// The latest time the wire carries, in jiffies; later ones saturate.
const WIRE_TIME_MAX: u64 = (1 << 48) - 1;

/// Any time: half the draws fit the wire's 48 bits, half range over all
/// of `u64`.
fn arb_time() -> impl Strategy<Value = SimTime> {
    prop_oneof![0..=WIRE_TIME_MAX, any::<u64>()].prop_map(SimTime::from_jiffies)
}

/// `m` as a wire round trip returns it: every time saturated at
/// [`WIRE_TIME_MAX`].
fn on_air(mut m: Message) -> Message {
    let saturate = |t: &mut SimTime| *t = SimTime::from_jiffies(t.as_jiffies().min(WIRE_TIME_MAX));
    match &mut m {
        Message::Resign {
            next_assign_at: t, ..
        }
        | Message::TaskRequest { leader_time: t, .. }
        | Message::TimeSync { ref_time: t, .. } => saturate(t),
        Message::Query { t0, t1, .. } => {
            saturate(t0);
            saturate(t1);
        }
        Message::BulkData { chunk, .. } | Message::QueryData { chunk, .. } => {
            saturate(&mut chunk.meta.t_start);
        }
        _ => {}
    }
    m
}

fn arb_duration() -> impl Strategy<Value = SimDuration> {
    (0u64..u64::from(u32::MAX)).prop_map(SimDuration::from_jiffies)
}

/// A chunk whose IDs fit the flash header it will be stored under.
fn arb_chunk() -> impl Strategy<Value = Chunk> {
    let leader = (arb_node_upto(MAX_LEADER_ID), any::<u32>()).prop_map(|(l, s)| EventId::new(l, s));
    (
        arb_node_upto(MAX_ORIGIN_ID),
        proptest::option::of(leader),
        arb_time(),
        proptest::collection::vec(any::<u8>(), 0..=232),
    )
        .prop_map(|(origin, event, t_start, payload)| {
            Chunk::new(
                ChunkMeta {
                    origin,
                    event,
                    t_start,
                },
                payload,
            )
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            proptest::option::of(arb_event()),
            any::<u8>(),
            any::<bool>(),
            any::<u32>()
        )
            .prop_map(|(event, level, has_prelude, ttl_secs)| Message::Sensing {
                event,
                level,
                has_prelude,
                ttl_secs
            }),
        arb_event().prop_map(|event| Message::LeaderAnnounce { event }),
        (arb_event(), arb_time(), any::<u32>()).prop_map(|(event, next_assign_at, task_seq)| {
            Message::Resign {
                event,
                next_assign_at,
                task_seq,
            }
        }),
        (
            arb_event(),
            arb_node(),
            any::<u32>(),
            arb_duration(),
            arb_time(),
            proptest::option::of(arb_node())
        )
            .prop_map(
                |(event, recorder, task_seq, duration, leader_time, keep_prelude)| {
                    Message::TaskRequest {
                        event,
                        recorder,
                        task_seq,
                        duration,
                        leader_time,
                        keep_prelude,
                    }
                }
            ),
        (arb_event(), arb_node(), any::<u32>()).prop_map(|(event, recorder, task_seq)| {
            Message::TaskConfirm {
                event,
                recorder,
                task_seq,
            }
        }),
        (arb_event(), arb_node(), any::<u32>()).prop_map(|(event, recorder, task_seq)| {
            Message::TaskReject {
                event,
                recorder,
                task_seq,
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
            |(ttl_secs, free_chunks, avg_free_pct)| Message::StateUpdate {
                ttl_secs,
                free_chunks,
                avg_free_pct
            }
        ),
        (arb_node(), any::<u16>(), any::<u32>()).prop_map(|(to, chunks, session)| {
            Message::MigrateOffer {
                to,
                chunks,
                session,
            }
        }),
        (arb_node(), any::<u32>(), any::<u16>()).prop_map(|(to, session, granted)| {
            Message::MigrateAccept {
                to,
                session,
                granted,
            }
        }),
        (
            arb_node(),
            any::<u32>(),
            any::<u16>(),
            any::<bool>(),
            arb_chunk()
        )
            .prop_map(|(to, session, seq, last, chunk)| Message::BulkData {
                to,
                session,
                seq,
                last,
                chunk
            }),
        (arb_node(), any::<u32>(), any::<u16>()).prop_map(|(to, session, seq)| Message::BulkAck {
            to,
            session,
            seq
        }),
        (arb_node(), any::<u32>(), arb_time()).prop_map(|(root, seq, ref_time)| {
            Message::TimeSync {
                root,
                seq,
                ref_time,
            }
        }),
        (arb_node(), any::<u32>(), any::<u8>()).prop_map(|(root, build_id, hops)| {
            Message::TreeBuild {
                root,
                build_id,
                hops,
            }
        }),
        (
            arb_node(),
            any::<u32>(),
            arb_time(),
            arb_time(),
            any::<bool>()
        )
            .prop_map(|(root, query_id, t0, t1, all)| Message::Query {
                root,
                query_id,
                t0,
                t1,
                all
            }),
        (arb_node(), arb_node(), any::<u32>(), arb_chunk()).prop_map(
            |(to, root, query_id, chunk)| Message::QueryData {
                to,
                root,
                query_id,
                chunk
            }
        ),
        (
            arb_node(),
            arb_node(),
            any::<u32>(),
            arb_node(),
            any::<u32>()
        )
            .prop_map(|(to, root, query_id, source, sent)| Message::QueryDone {
                to,
                root,
                query_id,
                source,
                sent
            }),
    ]
}

proptest! {
    #[test]
    fn single_message_round_trips(m in arb_message()) {
        let bytes = m.encode();
        prop_assert_eq!(decode_envelope(&bytes).unwrap(), vec![on_air(m)]);
    }

    #[test]
    fn envelopes_round_trip(msgs in proptest::collection::vec(arb_message(), 0..12)) {
        let bytes = encode_envelope(&msgs);
        let expected: Vec<Message> = msgs.into_iter().map(on_air).collect();
        prop_assert_eq!(decode_envelope(&bytes).unwrap(), expected);
    }

    #[test]
    fn decoder_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_envelope(&bytes);
    }

    #[test]
    fn every_strict_prefix_is_rejected(m in arb_message()) {
        let bytes = m.encode();
        for len in 0..bytes.len() {
            prop_assert!(decode_envelope(&bytes[..len]).is_err(), "prefix of {} bytes decoded", len);
        }
    }

    #[test]
    fn encoded_len_is_exact(m in arb_message()) {
        prop_assert_eq!(m.encode().len(), m.encoded_len() + 1);
    }

    #[test]
    fn chunks_with_ids_wider_than_flash_are_rejected(
        chunk in arb_chunk(),
        origin in (MAX_ORIGIN_ID + 1)..=u32::MAX,
        leader in (MAX_LEADER_ID + 1)..=u32::MAX,
        widen_origin in any::<bool>(),
    ) {
        let mut wide = chunk;
        if widen_origin {
            wide.meta.origin = NodeId::from(origin);
        } else {
            wide.meta.event = Some(EventId::new(NodeId::from(leader), 1));
        }
        let carriers = [
            Message::BulkData { to: NodeId(1), session: 2, seq: 3, last: true, chunk: wide.clone() },
            Message::QueryData { to: NodeId(1), root: NodeId(0), query_id: 4, chunk: wide },
        ];
        for m in carriers {
            prop_assert!(decode_envelope(&m.encode()).is_err(), "{:?} decoded", m.kind());
        }
    }
}
