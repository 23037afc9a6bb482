//! Neighborhood broadcast with piggybacking (§III-A).
//!
//! "When a delay sensitive broadcast message is about to be sent out, the
//! neighborhood broadcast module queries all the registered modules to
//! check the possibility of piggybacking some messages from other modules."
//!
//! The [`PiggybackQueue`] is the passive core of that module: protocol code
//! enqueues delay-tolerant messages; whenever a delay-sensitive message
//! must go out, [`PiggybackQueue::compose`] drains as many queued messages
//! as fit the packet budget into the same envelope. Messages that wait too
//! long are flushed standalone by [`PiggybackQueue::flush_due`]. Both
//! return the encoded envelope, so a departing packet builds no message
//! list of its own.

use crate::packet::{encode_envelope, Message};
use enviromic_types::{Bytes, MsgKind, SimDuration, SimTime};
use std::collections::VecDeque;

/// Queue of delay-tolerant messages awaiting a piggybacking opportunity.
#[derive(Debug)]
pub struct PiggybackQueue {
    pending: VecDeque<(SimTime, Message)>,
    max_wait: SimDuration,
    packet_budget: usize,
}

impl PiggybackQueue {
    /// Creates a queue.
    ///
    /// `max_wait` bounds how long a message may wait for a ride;
    /// `packet_budget` is the maximum encoded envelope payload in bytes
    /// (mote packets are ~100 B).
    #[must_use]
    pub fn new(max_wait: SimDuration, packet_budget: usize) -> Self {
        PiggybackQueue {
            pending: VecDeque::new(),
            max_wait,
            packet_budget,
        }
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a delay-tolerant message at `now`.
    pub fn enqueue(&mut self, now: SimTime, message: Message) {
        self.pending.push_back((now, message));
    }

    /// Encodes the envelope for a departing delay-sensitive `primary`,
    /// draining as many queued messages as fit the packet budget.
    #[must_use]
    pub fn compose(&mut self, primary: &Message) -> Bytes {
        let mut used = primary.encoded_len();
        let mut riders = 0;
        for (_, msg) in &self.pending {
            let extra = msg.encoded_len();
            if used + extra > self.packet_budget || riders + 1 >= 255 {
                break;
            }
            used += extra;
            riders += 1;
        }
        self.drain_encoded(Some(primary), riders)
    }

    /// Removes every message that has waited longer than the maximum and
    /// encodes them as one standalone envelope, labelled with the kind of
    /// its first message; `None` when no message is due.
    #[must_use]
    pub fn flush_due(&mut self, now: SimTime) -> Option<(MsgKind, Bytes)> {
        let due = self
            .pending
            .iter()
            .take_while(|(enqueued, _)| now.saturating_since(*enqueued) >= self.max_wait)
            .count();
        if due == 0 {
            return None;
        }
        let kind = self.pending[0].1.kind();
        Some((kind, self.drain_encoded(None, due)))
    }

    /// Encodes `first` (if any) and the `n` oldest queued messages as one
    /// envelope, then removes those `n` from the queue.
    fn drain_encoded(&mut self, first: Option<&Message>, n: usize) -> Bytes {
        let queued = self.pending.range(..n).map(|(_, msg)| msg);
        let bytes = encode_envelope(first.into_iter().chain(queued));
        self.pending.drain(..n);
        bytes
    }

    /// The earliest instant at which a queued message becomes due, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<SimTime> {
        self.pending.front().map(|(t, _)| *t + self.max_wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::decode_envelope;
    use enviromic_types::NodeId;

    fn state_update(n: u32) -> Message {
        Message::StateUpdate {
            ttl_secs: n,
            free_chunks: n,
            avg_free_pct: 100,
        }
    }

    fn sensitive() -> Message {
        Message::LeaderAnnounce {
            event: enviromic_types::EventId::new(NodeId(1), 1),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn compose_attaches_pending_messages() {
        let mut q = PiggybackQueue::new(SimDuration::from_millis(5000), 100);
        q.enqueue(t(0), state_update(1));
        q.enqueue(t(0), state_update(2));
        let envelope = decode_envelope(&q.compose(&sensitive())).unwrap();
        assert_eq!(envelope.len(), 3);
        assert_eq!(envelope[0].kind(), MsgKind::LeaderAnnounce);
        assert!(q.is_empty());
    }

    #[test]
    fn compose_respects_packet_budget() {
        // Budget fits the primary plus exactly one 9-byte StateUpdate.
        let primary = sensitive();
        let budget = primary.encoded_len() + state_update(0).encoded_len() + 1;
        let mut q = PiggybackQueue::new(SimDuration::from_millis(5000), budget);
        for i in 0..5 {
            q.enqueue(t(0), state_update(i));
        }
        let envelope = decode_envelope(&q.compose(&sensitive())).unwrap();
        assert_eq!(envelope.len(), 2);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn flush_due_returns_only_overdue() {
        let mut q = PiggybackQueue::new(SimDuration::from_millis(100), 100);
        q.enqueue(t(0), state_update(1));
        q.enqueue(t(50), state_update(2));
        assert_eq!(q.flush_due(t(99)), None, "nothing has waited 100 ms");
        let (kind, due) = q.flush_due(t(100)).unwrap();
        assert_eq!(kind, MsgKind::StateUpdate);
        assert_eq!(decode_envelope(&due).unwrap(), [state_update(1)]);
        assert_eq!(q.len(), 1);
        let (_, due) = q.flush_due(t(200)).unwrap();
        assert_eq!(decode_envelope(&due).unwrap(), [state_update(2)]);
        assert!(q.is_empty());
        assert_eq!(q.flush_due(t(300)), None);
    }

    #[test]
    fn next_due_tracks_front() {
        let mut q = PiggybackQueue::new(SimDuration::from_millis(100), 100);
        assert_eq!(q.next_due(), None);
        q.enqueue(t(40), state_update(1));
        assert_eq!(q.next_due(), Some(t(140)));
    }
}
