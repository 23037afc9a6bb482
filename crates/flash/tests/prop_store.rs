//! Property tests for the chunk store: FIFO integrity, wear leveling, and
//! crash-recovery safety under arbitrary operation interleavings.

use enviromic_flash::{Chunk, ChunkMeta, ChunkStore, StoreError, MAX_LEADER_ID, MAX_ORIGIN_ID};
use enviromic_types::{EventId, NodeId, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

fn chunk(tag: u32) -> Chunk {
    Chunk::new(
        ChunkMeta {
            origin: NodeId(tag),
            event: Some(EventId::new(NodeId(tag), tag)),
            t_start: SimTime::from_jiffies(u64::from(tag) * 7919),
        },
        vec![tag as u8; (tag as usize % 232).max(1)],
    )
}

#[derive(Debug, Clone)]
enum Op {
    Push,
    PopFront,
    PopBack,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Push),
        2 => Just(Op::PopFront),
        1 => Just(Op::PopBack),
        1 => Just(Op::Checkpoint),
    ]
}

proptest! {
    /// The store behaves exactly like a reference double-ended queue under
    /// arbitrary push/pop interleavings.
    #[test]
    fn store_matches_reference_deque(
        capacity in 1u32..32,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut store = ChunkStore::new(capacity, 8);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next_tag = 0u32;
        for op in ops {
            match op {
                Op::Push => {
                    let c = chunk(next_tag);
                    match store.push_back(c) {
                        Ok(()) => {
                            prop_assert!(model.len() < capacity as usize);
                            model.push_back(next_tag);
                        }
                        Err(StoreError::Full) => {
                            prop_assert_eq!(model.len(), capacity as usize);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                    next_tag += 1;
                }
                Op::PopFront => {
                    let got = store.pop_front().unwrap().map(|c| c.meta.origin.0);
                    prop_assert_eq!(got, model.pop_front());
                }
                Op::PopBack => {
                    let got = store.pop_back().unwrap().map(|c| c.meta.origin.0);
                    prop_assert_eq!(got, model.pop_back());
                }
                Op::Checkpoint => store.checkpoint(),
            }
            prop_assert_eq!(store.len() as usize, model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
            let stored: Vec<u32> = store.iter().map(|c| c.meta.origin.0).collect();
            let expect: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(stored, expect);
        }
    }

    /// Pure FIFO use (no pop_back) keeps block write counts within 1 of
    /// each other — the paper's wear-leveling claim.
    #[test]
    fn wear_spread_at_most_one_without_pop_back(
        capacity in 1u32..24,
        ops in proptest::collection::vec(prop_oneof![3 => Just(true), 2 => Just(false)], 0..300),
    ) {
        let mut store = ChunkStore::new(capacity, 16);
        let mut tag = 0u32;
        for push in ops {
            if push {
                let _ = store.push_back(chunk(tag));
                tag += 1;
            } else {
                let _ = store.pop_front();
            }
            prop_assert!(store.flash().wear_spread() <= 1);
        }
    }

    /// Crash recovery never loses a chunk that was live at crash time.
    #[test]
    fn recovery_is_superset_of_live_chunks(
        capacity in 2u32..16,
        checkpoint_interval in 1u32..32,
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let mut store = ChunkStore::new(capacity, checkpoint_interval);
        let mut tag = 0u32;
        for op in ops {
            match op {
                Op::Push => { let _ = store.push_back(chunk(tag)); tag += 1; }
                Op::PopFront => { let _ = store.pop_front(); }
                // pop_back interacts with resurrection in the expected
                // lossy-duplicate way only for *popped* data; pushes stay
                // safe. Keep it in the mix.
                Op::PopBack => { let _ = store.pop_back(); }
                Op::Checkpoint => store.checkpoint(),
            }
        }
        let live: Vec<u32> = store.iter().map(|c| c.meta.origin.0).collect();
        let (flash, eeprom) = store.into_parts();
        let recovered = ChunkStore::recover(flash, eeprom, checkpoint_interval);
        let got: Vec<u32> = recovered.iter().map(|c| c.meta.origin.0).collect();
        for t in &live {
            prop_assert!(got.contains(t), "chunk {} lost by recovery", t);
        }
    }

    /// Chunk encode/decode round-trips for arbitrary metadata and payloads,
    /// node IDs up to the header's 24-bit origin and 23-bit leader limits.
    #[test]
    fn chunk_codec_round_trips(
        origin in 0u32..=MAX_ORIGIN_ID,
        has_event in any::<bool>(),
        leader in 0u32..=MAX_LEADER_ID,
        evseq in any::<u32>(),
        jiffies in 0u64..(1u64 << 48),
        payload in proptest::collection::vec(any::<u8>(), 0..=232),
        store_seq in any::<u32>(),
    ) {
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId::from(origin),
                event: has_event.then(|| EventId::new(NodeId::from(leader), evseq)),
                t_start: SimTime::from_jiffies(jiffies),
            },
            payload,
        );
        let block = c.encode(store_seq);
        let (decoded, seq) = Chunk::decode(&block).unwrap();
        prop_assert_eq!(decoded, c);
        prop_assert_eq!(seq, store_seq);
    }

    /// Decoding an arbitrary block returns a chunk or an error, never a
    /// panic, and a decoded chunk re-encodes (its IDs fit the header) to a
    /// block that decodes to the same chunk.
    #[test]
    fn chunk_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 256),
        magic in any::<bool>(),
    ) {
        let mut block: [u8; 256] = bytes.try_into().expect("256 bytes");
        if magic {
            block[0] = 0xEC;
        }
        if let Ok((chunk, seq)) = Chunk::decode(&block) {
            let again = chunk.encode(seq);
            prop_assert_eq!(Chunk::decode(&again), Ok((chunk, seq)));
        }
    }
}
