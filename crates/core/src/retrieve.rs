//! Data retrieval (§II-C).
//!
//! Two variants, both from the paper:
//!
//! * **one-hop** — the deployed design: the user (a [`DataMule`]) enters
//!   radio range, queries, and every node streams its chunks to the mule
//!   over the reliable bulk-transfer protocol. "The user acts as the data
//!   mule when they physically collect the motes."
//! * **spanning tree** — the paper's "first inclination": a tree rooted at
//!   the user, queries flooded down, chunks forwarded up, with repeated
//!   query rounds re-fetching whatever got lost.
//!
//! Node-side answering lives in this file as `impl EnviroMicNode`; the
//! collecting user is the separate [`DataMule`] application.

use crate::config::{BULK_RETRIES, BULK_TIMEOUT};
use crate::node::{
    BulkPurpose, EnviroMicNode, OutboundBulk, PendingReply, T_REPLY_PACE, T_REPLY_START,
};
use enviromic_flash::{Chunk, ChunkStore};
use enviromic_net::{
    decode_envelope, encode_envelope, BulkReceiver, BulkSender, Message, TreeAction,
};
use enviromic_runtime::{Application, Runtime, Timer};
use enviromic_telemetry::Counter;
use enviromic_types::{EventId, GapRange, NodeId, SimDuration, SimTime};
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Spacing between unreliable tree-mode chunk uploads.
const PACE: SimDuration = SimDuration::from_millis(40);
/// Stagger unit between different nodes' answers.
const ANSWER_STAGGER: SimDuration = SimDuration::from_millis(120);

impl EnviroMicNode {
    pub(crate) fn on_tree_build(
        &mut self,
        ctx: &mut dyn Runtime,
        from: NodeId,
        root: NodeId,
        build_id: u32,
        hops: u8,
    ) {
        let tree = self.tree.get_or_insert_with(Box::default);
        if let TreeAction::Rebroadcast(msg) = tree.on_build(from, root, build_id, hops) {
            self.send(ctx, msg);
        }
    }

    pub(crate) fn on_query(
        &mut self,
        ctx: &mut dyn Runtime,
        root: NodeId,
        query_id: u32,
        t0: SimTime,
        t1: SimTime,
        all: bool,
    ) {
        let tree = self.tree.get_or_insert_with(Box::default);
        let (answer, action) = tree.on_query(root, query_id, t0, t1, all);
        if let TreeAction::Rebroadcast(msg) = action {
            self.send(ctx, msg);
        }
        if !answer {
            return;
        }
        self.pending_reply = Some(Box::new(PendingReply {
            root,
            query_id,
            t0,
            t1,
            all,
            chunks: Vec::new(),
            next: 0,
        }));
        // Stagger answers by node ID so the neighborhood does not answer
        // in one burst.
        let jitter =
            SimDuration::from_jiffies(ctx.rng().gen_range(0..ANSWER_STAGGER.as_jiffies().max(1)));
        let delay = ANSWER_STAGGER * u64::from(self.me.0) + jitter;
        self.arm(ctx, T_REPLY_START, delay);
    }

    pub(crate) fn on_reply_start(&mut self, ctx: &mut dyn Runtime) {
        let Some(reply) = &mut self.pending_reply else {
            return;
        };
        let (t0, t1, all) = (reply.t0, reply.t1, reply.all);
        let matching: Vec<Chunk> = self
            .store
            .iter()
            .filter(|c| all || (c.t_end() > t0 && c.meta.t_start < t1))
            .collect();
        let root = reply.root;
        let query_id = reply.query_id;
        if matching.is_empty() {
            self.pending_reply = None;
            let done = Message::QueryDone {
                to: self.answer_next_hop(root),
                root,
                query_id,
                source: self.me,
                sent: 0,
            };
            self.send(ctx, done);
            return;
        }
        let use_tree = self
            .tree
            .as_ref()
            .is_some_and(|t| t.root() == Some(root) && t.hops().unwrap_or(0) > 1);
        if use_tree {
            let reply = self.pending_reply.as_mut().expect("checked above");
            reply.chunks = matching;
            reply.next = 0;
            self.arm(ctx, T_REPLY_PACE, PACE);
        } else {
            // One hop from the querier: use the reliable bulk path.
            if self.bulk_out.is_some() {
                // Transfer engine busy (e.g. a migration): retry shortly.
                self.arm(ctx, T_REPLY_START, ANSWER_STAGGER);
                return;
            }
            let session = self.session_seq;
            self.session_seq += 1;
            let count = matching.len();
            let sender = BulkSender::new(root, session, matching, BULK_RETRIES);
            let first = sender.current().expect("non-empty session");
            self.bulk_out = Some(Box::new(OutboundBulk {
                sender,
                purpose: BulkPurpose::Retrieval { root, query_id },
            }));
            if let Some(reply) = &mut self.pending_reply {
                reply.next = count;
            }
            self.send(ctx, first);
            self.arm(ctx, crate::node::T_BULK, BULK_TIMEOUT);
        }
    }

    pub(crate) fn on_reply_pace(&mut self, ctx: &mut dyn Runtime) {
        let Some(reply) = &mut self.pending_reply else {
            return;
        };
        let root = reply.root;
        let query_id = reply.query_id;
        if reply.next >= reply.chunks.len() {
            let sent = reply.next as u32;
            self.pending_reply = None;
            let done = Message::QueryDone {
                to: self.answer_next_hop(root),
                root,
                query_id,
                source: self.me,
                sent,
            };
            self.send(ctx, done);
            return;
        }
        let chunk = reply.chunks[reply.next].clone();
        reply.next += 1;
        let to = self.answer_next_hop(root);
        self.send(
            ctx,
            Message::QueryData {
                to,
                root,
                query_id,
                chunk,
            },
        );
        self.arm(ctx, T_REPLY_PACE, PACE);
    }

    /// Where an upward-travelling answer goes next: the tree parent when
    /// attached, otherwise straight to the root.
    fn answer_next_hop(&self, root: NodeId) -> NodeId {
        self.relay_parent(root).unwrap_or(root)
    }

    /// The tree parent an answer addressed to this node climbs to, when
    /// the node relays for `root`.
    fn relay_parent(&self, root: NodeId) -> Option<NodeId> {
        self.tree.as_ref().and_then(|t| t.should_relay_to(root))
    }

    /// Reports completion of a bulk-path answer.
    pub(crate) fn finish_query_answer(
        &mut self,
        ctx: &mut dyn Runtime,
        root: NodeId,
        query_id: u32,
    ) {
        let sent = self.pending_reply.take().map_or(0, |r| r.next as u32);
        let done = Message::QueryDone {
            to: root,
            root,
            query_id,
            source: self.me,
            sent,
        };
        self.send(ctx, done);
    }

    pub(crate) fn on_query_data(
        &mut self,
        ctx: &mut dyn Runtime,
        to: NodeId,
        root: NodeId,
        query_id: u32,
        chunk: Chunk,
    ) {
        if to != self.me || root == self.me {
            return;
        }
        // Relay one hop up the tree.
        if let Some(parent) = self.relay_parent(root) {
            self.send(
                ctx,
                Message::QueryData {
                    to: parent,
                    root,
                    query_id,
                    chunk,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_query_done(
        &mut self,
        ctx: &mut dyn Runtime,
        to: NodeId,
        root: NodeId,
        query_id: u32,
        source: NodeId,
        sent: u32,
    ) {
        if to != self.me || root == self.me {
            return;
        }
        if let Some(parent) = self.relay_parent(root) {
            self.send(
                ctx,
                Message::QueryDone {
                    to: parent,
                    root,
                    query_id,
                    source,
                    sent,
                },
            );
        }
    }
}

/// Which retrieval variant a [`DataMule`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalMode {
    /// Query once in radio range; nodes answer over reliable one-hop bulk
    /// transfers (the deployed design).
    OneHop,
    /// Build a spanning tree, flood the query, repeat rounds until no new
    /// data arrives (the §II-C multihop design).
    Tree,
}

/// Configuration of a [`DataMule`].
#[derive(Debug, Clone, Copy)]
pub struct MuleConfig {
    /// Retrieval variant.
    pub mode: RetrievalMode,
    /// When to start the retrieval after simulation start.
    pub start_after: SimDuration,
    /// Query rounds (re-asks refetch data lost on the unreliable tree
    /// path).
    pub rounds: u32,
    /// Wall-clock budget per round.
    pub round_timeout: SimDuration,
}

impl Default for MuleConfig {
    fn default() -> Self {
        MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(1.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(30.0),
        }
    }
}

/// One event file reassembled from retrieved chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievedFile {
    /// The event (file) ID, or `None` for unlabeled (baseline/prelude)
    /// chunks.
    pub event: Option<EventId>,
    /// Chunks sorted by their start timestamps.
    pub chunks: Vec<Chunk>,
}

impl RetrievedFile {
    /// Number of discontinuities larger than 1.5 chunk durations between
    /// consecutive chunks — the "gaps" §II-C's re-query loop looks for.
    #[must_use]
    pub fn gaps(&self) -> usize {
        let tolerance = enviromic_types::audio::chunk_duration() * 3 / 2;
        self.chunks
            .windows(2)
            .filter(|w| w[1].meta.t_start.saturating_since(w[0].t_end()) > tolerance)
            .count()
    }

    /// Total audio seconds in the file.
    #[must_use]
    pub fn audio_secs(&self) -> f64 {
        self.chunks.iter().map(|c| c.duration().as_secs_f64()).sum()
    }
}

const MULE_T_BEGIN: u32 = 1;
const MULE_T_QUERY: u32 = 2;
const MULE_T_ROUND_END: u32 = 3;

/// The collecting user: queries the network and accumulates chunks.
#[derive(Debug)]
pub struct DataMule {
    cfg: MuleConfig,
    me: NodeId,
    query_id: u32,
    build_id: u32,
    rounds_done: u32,
    chunks: Vec<Chunk>,
    seen: HashSet<(u32, u64)>,
    receivers: HashMap<(NodeId, u32), BulkReceiver>,
    new_this_round: usize,
    consecutive_empty_rounds: u32,
    /// Re-query rounds issued to close gaps left by lost answers (§II-C).
    m_requeries: Counter,
    /// Unique chunks accepted across all rounds.
    m_chunks: Counter,
}

impl DataMule {
    /// Creates a mule.
    #[must_use]
    pub fn new(cfg: MuleConfig) -> Self {
        DataMule {
            cfg,
            me: NodeId(0),
            query_id: 0,
            build_id: 0,
            rounds_done: 0,
            chunks: Vec::new(),
            seen: HashSet::new(),
            receivers: HashMap::new(),
            new_this_round: 0,
            consecutive_empty_rounds: 0,
            m_requeries: Counter::default(),
            m_chunks: Counter::default(),
        }
    }

    /// All unique chunks retrieved so far.
    #[must_use]
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Groups retrieved chunks into per-event files, sorted by start time
    /// (the basestation post-processing step of §III-B.3).
    #[must_use]
    pub fn files(&self) -> Vec<RetrievedFile> {
        let mut groups: BTreeMap<Option<EventId>, Vec<Chunk>> = BTreeMap::new();
        for c in &self.chunks {
            groups.entry(c.meta.event).or_default().push(c.clone());
        }
        groups
            .into_iter()
            .map(|(event, mut chunks)| {
                chunks.sort_by_key(|c| (c.meta.t_start, c.meta.origin));
                RetrievedFile { event, chunks }
            })
            .collect()
    }

    fn accept(&mut self, chunk: Chunk) {
        let key = (chunk.meta.origin.0, chunk.meta.t_start.as_jiffies());
        if self.seen.insert(key) {
            self.chunks.push(chunk);
            self.new_this_round += 1;
            self.m_chunks.inc();
        }
    }

    fn broadcast(&self, ctx: &mut dyn Runtime, msg: Message) {
        let kind = msg.kind().label();
        let bytes = encode_envelope(core::slice::from_ref(&msg));
        ctx.broadcast(kind, bytes);
    }

    fn rebuild_tree_then_query(&mut self, ctx: &mut dyn Runtime) {
        self.build_id += 1;
        self.broadcast(
            ctx,
            Message::TreeBuild {
                root: self.me,
                build_id: self.build_id,
                hops: 0,
            },
        );
        // Give the build wave a moment to settle before querying.
        ctx.set_timer(SimDuration::from_millis(800), MULE_T_QUERY);
    }

    fn send_query(&mut self, ctx: &mut dyn Runtime) {
        self.query_id += 1;
        self.new_this_round = 0;
        // The mule always asks for everything (the common case per
        // §II-C); windowed queries are gap re-requests (`RerequestPlan`).
        let q = Message::Query {
            root: self.me,
            query_id: self.query_id,
            t0: SimTime::ZERO,
            t1: SimTime::MAX,
            all: true,
        };
        self.broadcast(ctx, q);
        ctx.set_timer(self.cfg.round_timeout, MULE_T_ROUND_END);
    }
}

impl Application for DataMule {
    fn on_start(&mut self, ctx: &mut dyn Runtime) {
        self.me = ctx.node_id();
        self.m_requeries = ctx.telemetry().counter("core.retrieve.requery_rounds");
        self.m_chunks = ctx.telemetry().counter("core.retrieve.chunks_received");
        ctx.set_timer(self.cfg.start_after, MULE_T_BEGIN);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime, timer: Timer) {
        match timer.token {
            MULE_T_BEGIN => match self.cfg.mode {
                RetrievalMode::OneHop => self.send_query(ctx),
                RetrievalMode::Tree => self.rebuild_tree_then_query(ctx),
            },
            MULE_T_QUERY => self.send_query(ctx),
            MULE_T_ROUND_END => {
                self.rounds_done += 1;
                if self.new_this_round == 0 {
                    self.consecutive_empty_rounds += 1;
                } else {
                    self.consecutive_empty_rounds = 0;
                }
                // QUERY_DONE counts are only a lower bound on the network's
                // holdings (reports from far nodes get lost too), so
                // "advertised completeness" cannot end retrieval early;
                // only an exhausted round budget or two consecutive dry
                // rounds do.
                if self.rounds_done >= self.cfg.rounds || self.consecutive_empty_rounds >= 2 {
                    return;
                }
                self.m_requeries.inc();
                if self.cfg.mode == RetrievalMode::Tree {
                    // Rebuild the tree before every round: a single build
                    // wave can die on a lossy hop, leaving far nodes
                    // unattached and unable to route answers.
                    self.rebuild_tree_then_query(ctx);
                } else {
                    self.send_query(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
        let Ok(messages) = decode_envelope(bytes) else {
            return;
        };
        for msg in messages {
            match msg {
                Message::BulkData {
                    to,
                    session,
                    seq,
                    last,
                    chunk,
                } if to == self.me => {
                    let recv = self
                        .receivers
                        .entry((from, session))
                        .or_insert_with(|| BulkReceiver::new(from, session));
                    let (ack, accepted) = recv.on_data(session, seq, last, chunk);
                    if let Some(chunk) = accepted {
                        self.accept(chunk);
                    }
                    if let Some(ack) = ack {
                        self.broadcast(ctx, ack);
                    }
                }
                Message::QueryData {
                    to, root, chunk, ..
                } if to == self.me && root == self.me => {
                    self.accept(chunk);
                }
                _ => {}
            }
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Recovers the chunks of a physically collected (possibly crashed) mote,
/// the paper's ultimate fallback retrieval path (§III-B.3).
#[must_use]
pub fn recover_collected_mote(store: ChunkStore) -> Vec<Chunk> {
    let (flash, eeprom) = store.into_parts();
    let recovered = ChunkStore::recover(flash, eeprom, 64);
    recovered.iter().collect()
}

/// One batched re-request window: a single spanning-tree query covering
/// every missing range merged into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerequestBatch {
    /// Window start (min `t0` over the merged ranges).
    pub t0: SimTime,
    /// Window end (max `t1` over the merged ranges).
    pub t1: SimTime,
    /// The origins whose holes this window covers, ascending and
    /// deduplicated (bookkeeping — the query itself floods everyone).
    pub origins: Vec<NodeId>,
}

/// A batched spanning-tree re-request plan over the archive's missing
/// ranges: nearby holes share one `QUERY` flood instead of the network
/// paying one tree query per hole.
///
/// Batches are built by merging time windows that overlap or sit within
/// a slack of each other, so the plan's windows are sorted, pairwise
/// non-overlapping, and separated by more than the slack — and every
/// input range lies entirely inside exactly one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RerequestPlan {
    /// The batched windows, sorted by start time.
    pub batches: Vec<RerequestBatch>,
}

impl RerequestPlan {
    /// Merges `gaps` into batched windows. Two ranges land in the same
    /// batch when their windows overlap or the gap between them is at
    /// most `slack` — re-querying a short covered stretch between two
    /// holes is cheaper than flooding a second tree query.
    #[must_use]
    pub fn build(gaps: &[GapRange], slack: SimDuration) -> RerequestPlan {
        let mut windows: Vec<&GapRange> = gaps.iter().filter(|g| g.t1 > g.t0).collect();
        windows.sort_by_key(|g| (g.t0, g.t1, g.origin));
        let mut batches: Vec<RerequestBatch> = Vec::new();
        for gap in windows {
            match batches.last_mut() {
                Some(last) if gap.t0.saturating_since(last.t1) <= slack => {
                    last.t1 = last.t1.max(gap.t1);
                    last.origins.push(gap.origin);
                }
                _ => batches.push(RerequestBatch {
                    t0: gap.t0,
                    t1: gap.t1,
                    origins: vec![gap.origin],
                }),
            }
        }
        for b in &mut batches {
            b.origins.sort_unstable();
            b.origins.dedup();
        }
        RerequestPlan { batches }
    }

    /// Number of batched windows (i.e. tree queries the plan costs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when there is nothing to re-request.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// True when `gap` lies entirely inside one of the plan's windows.
    #[must_use]
    pub fn covers(&self, t0: SimTime, t1: SimTime) -> bool {
        self.batches.iter().any(|b| b.t0 <= t0 && t1 <= b.t1)
    }

    /// The spanning-tree [`Message::Query`] floods realizing the plan,
    /// one per batch, with consecutive query IDs starting at
    /// `first_query_id`. Windowed (`all: false`) so answering nodes
    /// stream only the missing stretch.
    #[must_use]
    pub fn queries(&self, root: NodeId, first_query_id: u32) -> Vec<Message> {
        self.batches
            .iter()
            .enumerate()
            .map(|(k, b)| Message::Query {
                root,
                query_id: first_query_id + k as u32,
                t0: b.t0,
                t1: b.t1,
                all: false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn gap(origin: u32, t0: f64, t1: f64) -> GapRange {
        GapRange {
            origin: NodeId(origin),
            t0: t(t0),
            t1: t(t1),
        }
    }

    fn slack(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn nearby_holes_share_a_batch_distant_ones_do_not() {
        let gaps = [gap(1, 0.0, 1.0), gap(2, 1.5, 2.0), gap(1, 10.0, 11.0)];
        let plan = RerequestPlan::build(&gaps, slack(1.0));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.batches[0].t0, t(0.0));
        assert_eq!(plan.batches[0].t1, t(2.0));
        assert_eq!(plan.batches[0].origins, vec![NodeId(1), NodeId(2)]);
        assert_eq!(plan.batches[1].origins, vec![NodeId(1)]);
    }

    #[test]
    fn batches_never_overlap_and_cover_every_gap() {
        // Interleaved, overlapping, duplicated, and unsorted input.
        let gaps = [
            gap(3, 5.0, 7.0),
            gap(1, 0.0, 2.0),
            gap(2, 1.0, 3.0),
            gap(1, 6.5, 8.0),
            gap(2, 20.0, 21.0),
            gap(1, 0.0, 2.0),
        ];
        let plan = RerequestPlan::build(&gaps, slack(0.5));
        for w in plan.batches.windows(2) {
            assert!(
                w[1].t0.saturating_since(w[0].t1) > slack(0.5),
                "batches sorted, non-overlapping, separated by more than the slack"
            );
        }
        for g in &gaps {
            assert!(plan.covers(g.t0, g.t1), "{g:?} covered");
        }
        assert_eq!(plan.len(), 3, "0-3, 5-8, 20-21");
    }

    #[test]
    fn zero_and_negative_width_gaps_are_dropped() {
        let plan = RerequestPlan::build(&[gap(1, 2.0, 2.0)], slack(1.0));
        assert!(plan.is_empty());
        assert!(plan.queries(NodeId(0), 1).is_empty());
    }

    #[test]
    fn queries_carry_windows_and_consecutive_ids() {
        let gaps = [gap(1, 0.0, 1.0), gap(2, 9.0, 9.5)];
        let plan = RerequestPlan::build(&gaps, slack(1.0));
        let queries = plan.queries(NodeId(7), 40);
        assert_eq!(queries.len(), 2);
        match &queries[0] {
            Message::Query {
                root,
                query_id,
                t0,
                t1,
                all,
            } => {
                assert_eq!(*root, NodeId(7));
                assert_eq!(*query_id, 40);
                assert_eq!(*t0, t(0.0));
                assert_eq!(*t1, t(1.0));
                assert!(!all, "windowed re-request, not a full drain");
            }
            other => panic!("expected a Query, got {other:?}"),
        }
        match &queries[1] {
            Message::Query { query_id, .. } => assert_eq!(*query_id, 41),
            other => panic!("expected a Query, got {other:?}"),
        }
    }

    #[test]
    fn merging_is_transitive_through_chained_slack() {
        // Each hole is within slack of the next; all merge into one.
        let gaps = [gap(1, 0.0, 1.0), gap(1, 1.8, 2.5), gap(1, 3.2, 4.0)];
        let plan = RerequestPlan::build(&gaps, slack(1.0));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.batches[0].t0, t(0.0));
        assert_eq!(plan.batches[0].t1, t(4.0));
    }
}
