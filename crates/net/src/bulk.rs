//! Reliable local bulk transfer (§III-A).
//!
//! Storage balancing moves batches of chunks between neighbours over the
//! lossy broadcast medium. The transfer is a stop-and-wait protocol:
//! `BULK_DATA(seq)` → `BULK_ACK(seq)`, with bounded retransmissions.
//!
//! The sender deletes a chunk from its own store only once the chunk is
//! acknowledged. If the *final* ACK of a chunk is lost and retries run out,
//! the sender conservatively keeps its copy while the receiver already
//! stored one — the transfer has **duplicated** the chunk. This is the
//! mechanism behind the paper's observation (Fig. 11) that smaller `β_max`
//! (more transfers) raises the redundancy ratio: "Such transfers may not be
//! completely reliable: one node may replicate its data in multiple
//! neighbors incidentally."
//!
//! Both endpoints are pure state machines; the protocol node drives them
//! with incoming messages and timer expirations.

use crate::packet::Message;
use enviromic_flash::Chunk;
use enviromic_types::NodeId;

/// Outcome of a sender timeout.
#[derive(Debug, Clone, PartialEq)]
pub enum SenderStep {
    /// Retransmit this message and re-arm the timer.
    Retry(Message),
    /// Retries exhausted: the session is over. `unacked` chunks were never
    /// acknowledged and stay with the sender (possible duplicates at the
    /// receiver).
    GiveUp {
        /// Chunks that were sent but never acknowledged.
        unacked: Vec<Chunk>,
    },
}

/// Sending side of one bulk transfer session.
#[derive(Debug)]
pub struct BulkSender {
    to: NodeId,
    session: u32,
    chunks: Vec<Chunk>,
    next: usize,
    retries_left: u32,
    max_retries: u32,
    acked: usize,
    done: bool,
}

impl BulkSender {
    /// Creates a sender for `chunks` toward `to` under `session`.
    ///
    /// # Panics
    ///
    /// Panics when `chunks` is empty — a session must move something.
    #[must_use]
    pub fn new(to: NodeId, session: u32, chunks: Vec<Chunk>, max_retries: u32) -> Self {
        assert!(!chunks.is_empty(), "bulk session with no chunks");
        BulkSender {
            to,
            session,
            chunks,
            next: 0,
            retries_left: max_retries,
            max_retries,
            acked: 0,
            done: false,
        }
    }

    /// The session identifier.
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The recipient.
    #[must_use]
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Number of chunks acknowledged so far.
    #[must_use]
    pub fn acked(&self) -> usize {
        self.acked
    }

    /// True when every chunk was acknowledged or the sender gave up.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The `BULK_DATA` message to (re)transmit now, or `None` when done.
    #[must_use]
    pub fn current(&self) -> Option<Message> {
        if self.done {
            return None;
        }
        let chunk = self.chunks.get(self.next)?;
        Some(Message::BulkData {
            to: self.to,
            session: self.session,
            seq: self.next as u16,
            last: self.next + 1 == self.chunks.len(),
            chunk: chunk.clone(),
        })
    }

    /// Processes an incoming ACK. Returns the chunk that just became safe
    /// to delete from the local store, if the ACK advanced the window.
    pub fn on_ack(&mut self, session: u32, seq: u16) -> Option<Chunk> {
        if self.done || session != self.session || seq as usize != self.next {
            return None;
        }
        let delivered = self.chunks[self.next].clone();
        self.next += 1;
        self.acked += 1;
        self.retries_left = self.max_retries;
        if self.next == self.chunks.len() {
            self.done = true;
        }
        Some(delivered)
    }

    /// Processes a retransmission timeout.
    #[must_use]
    pub fn on_timeout(&mut self) -> SenderStep {
        if self.done {
            return SenderStep::GiveUp { unacked: vec![] };
        }
        if self.retries_left > 0 {
            self.retries_left -= 1;
            match self.current() {
                Some(m) => SenderStep::Retry(m),
                None => SenderStep::GiveUp { unacked: vec![] },
            }
        } else {
            self.done = true;
            SenderStep::GiveUp {
                unacked: self.chunks[self.next..].to_vec(),
            }
        }
    }
}

/// Receiving side of one bulk transfer session.
#[derive(Debug)]
pub struct BulkReceiver {
    from: NodeId,
    session: u32,
    expect: u16,
    complete: bool,
}

impl BulkReceiver {
    /// Creates a receiver for `session` from `from`.
    #[must_use]
    pub fn new(from: NodeId, session: u32) -> Self {
        BulkReceiver {
            from,
            session,
            expect: 0,
            complete: false,
        }
    }

    /// The donor node.
    #[must_use]
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The session identifier.
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// True once the chunk marked `last` has been accepted.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Processes an incoming `BULK_DATA`. Returns `(ack, newly_accepted)`:
    /// the ACK to send back (also for duplicates — the donor may have
    /// missed the first ACK) and the chunk to store when it is new.
    pub fn on_data(
        &mut self,
        session: u32,
        seq: u16,
        last: bool,
        chunk: Chunk,
    ) -> (Option<Message>, Option<Chunk>) {
        if session != self.session {
            return (None, None);
        }
        let ack = Message::BulkAck {
            to: self.from,
            session: self.session,
            seq,
        };
        if seq == self.expect {
            self.expect += 1;
            if last {
                self.complete = true;
            }
            (Some(ack), Some(chunk))
        } else if seq < self.expect {
            // Duplicate of an already-stored chunk: re-ACK, do not store.
            (Some(ack), None)
        } else {
            // Out-of-order future chunk cannot happen under stop-and-wait;
            // drop it defensively.
            (None, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_flash::ChunkMeta;
    use enviromic_types::SimTime;

    fn chunk(n: u8) -> Chunk {
        Chunk::new(
            ChunkMeta {
                origin: NodeId(u32::from(n)),
                event: None,
                t_start: SimTime::from_jiffies(u64::from(n)),
            },
            vec![n; 10],
        )
    }

    fn data_fields(m: &Message) -> (u32, u16, bool, Chunk) {
        match m {
            Message::BulkData {
                session,
                seq,
                last,
                chunk,
                ..
            } => (*session, *seq, *last, chunk.clone()),
            other => panic!("expected BulkData, got {:?}", other.kind()),
        }
    }

    #[test]
    fn lossless_transfer_moves_everything_once() {
        let chunks: Vec<Chunk> = (0..4).map(chunk).collect();
        let mut tx = BulkSender::new(NodeId(2), 7, chunks.clone(), 3);
        let mut rx = BulkReceiver::new(NodeId(1), 7);
        let mut stored = Vec::new();
        let mut deleted = Vec::new();
        while let Some(msg) = tx.current() {
            let (session, seq, last, c) = data_fields(&msg);
            let (ack, accepted) = rx.on_data(session, seq, last, c);
            if let Some(c) = accepted {
                stored.push(c);
            }
            if let Some(Message::BulkAck { session, seq, .. }) = ack {
                if let Some(c) = tx.on_ack(session, seq) {
                    deleted.push(c);
                }
            }
        }
        assert!(tx.is_done());
        assert!(rx.is_complete());
        assert_eq!(stored, chunks);
        assert_eq!(deleted, chunks);
        assert_eq!(tx.acked(), 4);
    }

    #[test]
    fn lost_data_is_retransmitted() {
        let mut tx = BulkSender::new(NodeId(2), 7, vec![chunk(0)], 3);
        let first = tx.current().unwrap();
        // Data lost: timeout fires.
        match tx.on_timeout() {
            SenderStep::Retry(m) => assert_eq!(m, first),
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn lost_final_ack_duplicates_conservatively() {
        let chunks = vec![chunk(0)];
        let mut tx = BulkSender::new(NodeId(2), 7, chunks.clone(), 1);
        let mut rx = BulkReceiver::new(NodeId(1), 7);
        let msg = tx.current().unwrap();
        let (session, seq, last, c) = data_fields(&msg);
        let (_ack_lost, accepted) = rx.on_data(session, seq, last, c);
        assert!(accepted.is_some(), "receiver stored the chunk");
        // Sender never sees the ACK: retries, then gives up.
        assert!(matches!(tx.on_timeout(), SenderStep::Retry(_)));
        // Retransmission reaches the receiver: duplicate, re-ACKed but not
        // stored again. Suppose that ACK is lost too.
        let msg = tx.current().unwrap();
        let (session, seq, last, c) = data_fields(&msg);
        let (ack, accepted) = rx.on_data(session, seq, last, c);
        assert!(ack.is_some());
        assert!(accepted.is_none(), "duplicate not stored twice");
        match tx.on_timeout() {
            SenderStep::GiveUp { unacked } => assert_eq!(unacked, chunks),
            other => panic!("expected give-up, got {other:?}"),
        }
        assert!(tx.is_done());
        // Net effect: both sides hold the chunk — measurable redundancy.
    }

    #[test]
    fn stale_or_foreign_acks_are_ignored() {
        let mut tx = BulkSender::new(NodeId(2), 7, vec![chunk(0), chunk(1)], 3);
        assert!(tx.on_ack(8, 0).is_none(), "wrong session");
        assert!(tx.on_ack(7, 1).is_none(), "future seq");
        assert!(tx.on_ack(7, 0).is_some());
        assert!(tx.on_ack(7, 0).is_none(), "replayed ack");
    }

    #[test]
    fn receiver_ignores_foreign_sessions() {
        let mut rx = BulkReceiver::new(NodeId(1), 7);
        let (ack, accepted) = rx.on_data(99, 0, true, chunk(0));
        assert!(ack.is_none());
        assert!(accepted.is_none());
    }

    #[test]
    #[should_panic(expected = "no chunks")]
    fn empty_session_panics() {
        let _ = BulkSender::new(NodeId(1), 1, vec![], 1);
    }
}
