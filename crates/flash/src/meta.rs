//! Chunk metadata layout and the on-flash codec.
//!
//! Each 256-byte flash block stores one *chunk*: a 24-byte header followed
//! by up to 232 bytes of audio payload. The header carries exactly the
//! metadata §III-B.3 prescribes — timestamps, the recording node
//! (location-stamp), and the event/file ID — plus a store sequence number
//! and checksum used for crash recovery.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xEC)
//! 1       1     flags (bit 0: has event id; bits 1-7: leader id bits 16-22)
//! 2       4     store_seq   — monotone per chunk store, recovery ordering
//! 6       2     origin      — recording node id, bits 0-15
//! 8       2     event leader node id, bits 0-15   (0 when no event)
//! 10      4     event sequence number  (0 when no event)
//! 14      6     t_start     — jiffies, 48-bit
//! 20      1     payload_len — 0..=232
//! 21      1     origin id bits 16-23 (0 for ids below 65 536)
//! 22      2     checksum    — 16-bit sum over header[0..22] + payload
//! ```
//!
//! Node IDs wider than 16 bits (the 100k-node scale rungs) spill their
//! high bits into the byte at offset 21 (formerly reserved, always 0) and
//! the upper seven flag bits (formerly unused, always 0). Headers written
//! for sub-65 536-node worlds are therefore byte-identical to the original
//! format, the header stays exactly 24 bytes, and both extension fields
//! are covered by the existing checksum span.

use crate::device::BLOCK_BYTES;
use enviromic_types::{audio, EventId, NodeId, SimDuration, SimTime};
use serde::Serialize;

/// Magic byte identifying a valid chunk header.
const MAGIC: u8 = 0xEC;
const FLAG_HAS_EVENT: u8 = 0x01;

/// Widest origin node ID the header can carry: 16 base bits plus the
/// 8 extension bits at offset 21. Decoders of chunks that will be stored
/// reject wider IDs.
pub const MAX_ORIGIN_ID: u32 = (1 << 24) - 1;
/// Widest event-leader node ID the header can carry: 16 base bits plus the
/// 7 extension bits in the upper flags.
pub const MAX_LEADER_ID: u32 = (1 << 23) - 1;

/// Metadata attached to every stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ChunkMeta {
    /// The node that *recorded* the audio (not necessarily the node storing
    /// it — chunks migrate for load balancing).
    pub origin: NodeId,
    /// The event (file) ID assigned by the leader; `None` for uncoordinated
    /// baseline recordings.
    pub event: Option<EventId>,
    /// Recording start timestamp (the recorder's estimate of global time).
    pub t_start: SimTime,
}

/// One stored chunk: metadata plus audio payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Chunk {
    /// Chunk metadata.
    pub meta: ChunkMeta,
    /// Audio payload, at most [`audio::CHUNK_PAYLOAD_BYTES`] bytes.
    pub payload: Vec<u8>,
}

/// Chunk decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic byte is absent — the block holds no chunk.
    NotAChunk,
    /// The declared payload length exceeds the payload area.
    BadLength,
    /// The checksum does not match the contents.
    BadChecksum,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::NotAChunk => write!(f, "block does not contain a chunk"),
            DecodeError::BadLength => write!(f, "chunk payload length is invalid"),
            DecodeError::BadChecksum => write!(f, "chunk checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Header bytes the checksum covers: every byte before the checksum.
const SUMMED_HEADER: usize = 22;
/// Most bytes the checksum covers: the header and a full payload.
const SUMMED_MAX: usize = SUMMED_HEADER + audio::CHUNK_PAYLOAD_BYTES as usize;
/// The checksum's modulus, the largest prime below 2^16.
const MODULUS: u32 = 65_521;

/// `WEIGHTS[i]` is 31^(`SUMMED_MAX` − i) mod [`MODULUS`]: an input of
/// `n` bytes weighs its byte `k` with entry `SUMMED_MAX − n + k`, so it
/// uses the last `n` entries.
const WEIGHTS: [u32; SUMMED_MAX] = {
    let mut weights = [0; SUMMED_MAX];
    let mut power = 1;
    let mut i = SUMMED_MAX;
    while i > 0 {
        i -= 1;
        power = power * 31 % MODULUS;
        weights[i] = power;
    }
    weights
};

// Every weighted byte is below 255 · MODULUS, so the sum of a full
// block's products fits a `u32` and needs one reduction at the end.
const _: () = assert!(SUMMED_MAX as u64 * 255 * (MODULUS as u64 - 1) < 1 << 32);

/// The 16-bit checksum of `header` ‖ `payload`.
///
/// It is defined byte by byte as `sum = (sum + b) · 31 mod 65 521`,
/// whose intermediate values never exceed 2^32, so over the bytes
/// b_0 … b_{n−1} it equals Σ b_k · 31^(n−k) mod 65 521: a dot product
/// with [`WEIGHTS`] and one reduction, not a division per byte.
fn checksum(header: &[u8], payload: &[u8]) -> u16 {
    let weights = &WEIGHTS[SUMMED_MAX - header.len() - payload.len()..];
    let (header_weights, payload_weights) = weights.split_at(header.len());
    let dot = |bytes: &[u8], weights: &[u32]| -> u32 {
        bytes
            .iter()
            .zip(weights)
            .map(|(&b, &w)| u32::from(b) * w)
            .sum()
    };
    ((dot(header, header_weights) + dot(payload, payload_weights)) % MODULUS) as u16
}

impl Chunk {
    /// Creates a chunk, validating the payload size.
    ///
    /// # Panics
    ///
    /// Panics when `payload` exceeds [`audio::CHUNK_PAYLOAD_BYTES`] bytes.
    #[must_use]
    pub fn new(meta: ChunkMeta, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= audio::CHUNK_PAYLOAD_BYTES as usize,
            "payload of {} bytes exceeds the {}-byte chunk payload area",
            payload.len(),
            audio::CHUNK_PAYLOAD_BYTES
        );
        Chunk { meta, payload }
    }

    /// Recording end timestamp, derived from the payload length at the
    /// fixed sampling rate (one byte per sample).
    #[must_use]
    pub fn t_end(&self) -> SimTime {
        let secs = self.payload.len() as f64 / audio::SAMPLE_RATE_HZ as f64;
        self.meta.t_start + SimDuration::from_secs_f64(secs)
    }

    /// The audio span this chunk covers.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.t_end().saturating_since(self.meta.t_start)
    }

    /// Encodes the chunk into one flash block under the given store
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics when the origin, the event leader or `t_start` is wider
    /// than its header field.
    #[must_use]
    pub fn encode(&self, store_seq: u32) -> [u8; BLOCK_BYTES] {
        let mut block = [0xFFu8; BLOCK_BYTES];
        block[0] = MAGIC;
        let origin = u32::from(self.meta.origin);
        assert!(
            origin <= MAX_ORIGIN_ID,
            "origin NodeId {origin} exceeds the 24-bit flash block format"
        );
        let (ev_leader, ev_seq) = match self.meta.event {
            Some(ev) => (u32::from(ev.leader()), ev.seq()),
            None => (0, 0),
        };
        assert!(
            ev_leader <= MAX_LEADER_ID,
            "leader NodeId {ev_leader} exceeds the 23-bit flash block format"
        );
        let flags = if self.meta.event.is_some() {
            FLAG_HAS_EVENT
        } else {
            0
        };
        // Leader bits 16-22 ride in the upper seven flag bits; they are
        // zero — the historical flags value — for 16-bit leaders.
        block[1] = flags | (((ev_leader >> 16) as u8) << 1);
        block[2..6].copy_from_slice(&store_seq.to_le_bytes());
        block[6..8].copy_from_slice(&(origin as u16).to_le_bytes());
        block[8..10].copy_from_slice(&(ev_leader as u16).to_le_bytes());
        block[10..14].copy_from_slice(&ev_seq.to_le_bytes());
        let jiffies = self.meta.t_start.as_jiffies();
        assert!(
            jiffies < 1 << 48,
            "t_start of {jiffies} jiffies exceeds the 48-bit flash block format"
        );
        block[14..20].copy_from_slice(&jiffies.to_le_bytes()[..6]);
        block[20] = self.payload.len() as u8;
        // Origin bits 16-23; zero — the historical reserved byte — for
        // 16-bit origins.
        block[21] = (origin >> 16) as u8;
        let sum = checksum(&block[..SUMMED_HEADER], &self.payload);
        block[22..24].copy_from_slice(&sum.to_le_bytes());
        block[24..24 + self.payload.len()].copy_from_slice(&self.payload);
        block
    }

    /// The store sequence number of the chunk in a flash block, once its
    /// magic, payload length and checksum are checked; the payload is not
    /// copied.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn store_seq(block: &[u8; BLOCK_BYTES]) -> Result<u32, DecodeError> {
        if block[0] != MAGIC {
            return Err(DecodeError::NotAChunk);
        }
        let payload_len = block[20] as usize;
        if payload_len > audio::CHUNK_PAYLOAD_BYTES as usize {
            return Err(DecodeError::BadLength);
        }
        let stored_sum = u16::from_le_bytes([block[22], block[23]]);
        if checksum(&block[..SUMMED_HEADER], &block[24..24 + payload_len]) != stored_sum {
            return Err(DecodeError::BadChecksum);
        }
        Ok(u32::from_le_bytes([block[2], block[3], block[4], block[5]]))
    }

    /// Decodes a chunk and its store sequence number from a flash block.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode(block: &[u8; BLOCK_BYTES]) -> Result<(Chunk, u32), DecodeError> {
        let store_seq = Chunk::store_seq(block)?;
        let payload = &block[24..24 + block[20] as usize];
        let origin = NodeId::from(
            u32::from(u16::from_le_bytes([block[6], block[7]])) | (u32::from(block[21]) << 16),
        );
        let event = if block[1] & FLAG_HAS_EVENT != 0 {
            let leader = NodeId::from(
                u32::from(u16::from_le_bytes([block[8], block[9]]))
                    | (u32::from(block[1] >> 1) << 16),
            );
            let seq = u32::from_le_bytes([block[10], block[11], block[12], block[13]]);
            Some(EventId::new(leader, seq))
        } else {
            None
        };
        let mut j = [0u8; 8];
        j[..6].copy_from_slice(&block[14..20]);
        let t_start = SimTime::from_jiffies(u64::from_le_bytes(j));
        Ok((
            Chunk {
                meta: ChunkMeta {
                    origin,
                    event,
                    t_start,
                },
                payload: payload.to_vec(),
            },
            store_seq,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// The checksum as first defined: one reduction per byte.
    fn reference_checksum(header: &[u8], payload: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for &b in header.iter().chain(payload) {
            sum = sum.wrapping_add(u32::from(b)).wrapping_mul(31) % 65_521;
        }
        sum as u16
    }

    const FULL_PAYLOAD: usize = audio::CHUNK_PAYLOAD_BYTES as usize;

    proptest! {
        #[test]
        fn checksum_matches_the_per_byte_reference_at_every_length(
            header in collection::vec(any::<u8>(), SUMMED_HEADER),
            payload in collection::vec(any::<u8>(), FULL_PAYLOAD),
        ) {
            for len in 0..=FULL_PAYLOAD {
                let payload = &payload[..len];
                prop_assert_eq!(
                    checksum(&header, payload),
                    reference_checksum(&header, payload),
                    "payload of {} bytes", len
                );
            }
        }
    }

    proptest! {
        /// Reading only the store sequence number accepts and rejects
        /// exactly the blocks a whole decode does: a sound block, or one
        /// with a byte flipped anywhere in it.
        #[test]
        fn store_seq_agrees_with_decode(
            payload in collection::vec(any::<u8>(), 0..=FULL_PAYLOAD),
            store_seq in any::<u32>(),
            flip in proptest::option::of((0..BLOCK_BYTES, 1..=u8::MAX)),
        ) {
            let meta = sample_chunk(Some(EventId::new(NodeId(3), 99))).meta;
            let mut block = Chunk::new(meta, payload).encode(store_seq);
            if let Some((at, mask)) = flip {
                block[at] ^= mask;
            }
            prop_assert_eq!(
                Chunk::store_seq(&block),
                Chunk::decode(&block).map(|(_, seq)| seq)
            );
        }
    }

    /// Fixed answers, so the reference and the checksum cannot drift
    /// together.
    #[test]
    fn checksum_known_answers() {
        let counting: Vec<u8> = (0..=255).collect();
        let cases: [(&[u8], &[u8], u16); 3] = [
            (&[1; SUMMED_HEADER], &[], 45_155),
            (
                &counting[..SUMMED_HEADER],
                &counting[..FULL_PAYLOAD],
                53_772,
            ),
            (&[0xFF; SUMMED_HEADER], &[0xFF; FULL_PAYLOAD], 25_283),
        ];
        for (header, payload, sum) in cases {
            assert_eq!(reference_checksum(header, payload), sum);
            assert_eq!(checksum(header, payload), sum);
        }
    }

    fn sample_chunk(event: Option<EventId>) -> Chunk {
        Chunk::new(
            ChunkMeta {
                origin: NodeId(12),
                event,
                t_start: SimTime::from_jiffies(123_456_789),
            },
            (0..200u8).collect(),
        )
    }

    #[test]
    fn encode_decode_round_trip_with_event() {
        let c = sample_chunk(Some(EventId::new(NodeId(3), 99)));
        let block = c.encode(42);
        let (decoded, seq) = Chunk::decode(&block).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(seq, 42);
    }

    #[test]
    fn encode_decode_round_trip_without_event() {
        let c = sample_chunk(None);
        let (decoded, seq) = Chunk::decode(&c.encode(0)).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(seq, 0);
    }

    #[test]
    fn empty_payload_round_trips() {
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId(1),
                event: None,
                t_start: SimTime::ZERO,
            },
            vec![],
        );
        let (d, _) = Chunk::decode(&c.encode(7)).unwrap();
        assert_eq!(d.payload.len(), 0);
        assert_eq!(d.duration(), SimDuration::ZERO);
    }

    #[test]
    fn erased_block_is_not_a_chunk() {
        let block = [0xFFu8; BLOCK_BYTES];
        assert_eq!(Chunk::decode(&block), Err(DecodeError::NotAChunk));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let c = sample_chunk(Some(EventId::new(NodeId(1), 1)));
        let mut block = c.encode(1);
        block[30] ^= 0x55;
        assert_eq!(Chunk::decode(&block), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn corrupted_length_fails() {
        let c = sample_chunk(None);
        let mut block = c.encode(1);
        block[20] = 255; // > payload area
        assert_eq!(Chunk::decode(&block), Err(DecodeError::BadLength));
    }

    #[test]
    fn t_end_reflects_sample_rate() {
        let c = sample_chunk(None); // 200 samples
        let expect = 200.0 / audio::SAMPLE_RATE_HZ as f64;
        assert!((c.duration().as_secs_f64() - expect).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        let _ = Chunk::new(
            ChunkMeta {
                origin: NodeId(0),
                event: None,
                t_start: SimTime::ZERO,
            },
            vec![0; audio::CHUNK_PAYLOAD_BYTES as usize + 1],
        );
    }

    #[test]
    fn wide_node_ids_round_trip() {
        // IDs above the 16-bit base field exercise the extension bits:
        // origin in the byte at offset 21, leader in the upper flags.
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId(99_999),
                event: Some(EventId::new(NodeId(70_001), 5)),
                t_start: SimTime::from_jiffies(77),
            },
            vec![4, 5, 6],
        );
        let (d, seq) = Chunk::decode(&c.encode(9)).unwrap();
        assert_eq!(d, c);
        assert_eq!(seq, 9);
    }

    #[test]
    fn narrow_node_ids_keep_the_original_byte_layout() {
        // Sub-65 536 IDs must leave the extension fields zero so existing
        // on-flash images decode unchanged.
        let c = sample_chunk(Some(EventId::new(NodeId(3), 99)));
        let block = c.encode(42);
        assert_eq!(block[1], 0x01, "flags carry only the event bit");
        assert_eq!(block[21], 0, "origin extension byte stays zero");
    }

    #[test]
    #[should_panic(expected = "24-bit flash block format")]
    fn oversized_origin_panics() {
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId(1 << 24),
                event: None,
                t_start: SimTime::ZERO,
            },
            vec![],
        );
        let _ = c.encode(0);
    }

    #[test]
    #[should_panic(expected = "48-bit flash block format")]
    fn oversized_t_start_panics() {
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId(0),
                event: None,
                t_start: SimTime::from_jiffies(1 << 48),
            },
            vec![],
        );
        let _ = c.encode(0);
    }

    #[test]
    fn large_timestamp_survives_48_bit_encoding() {
        let t = SimTime::from_jiffies((1u64 << 48) - 1);
        let c = Chunk::new(
            ChunkMeta {
                origin: NodeId(0),
                event: None,
                t_start: t,
            },
            vec![1, 2, 3],
        );
        let (d, _) = Chunk::decode(&c.encode(1)).unwrap();
        assert_eq!(d.meta.t_start, t);
    }
}
