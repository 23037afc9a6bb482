//! Group management, leader election/handoff, and cooperative task
//! assignment (§II-A), plus message dispatch and time-sync ticks.

use crate::config::{
    CONFIRM_TIMEOUT, HANDOFF_BACKOFF_MAX, MAX_ASSIGN_ATTEMPTS, MEMBER_FRESHNESS, SENSING_PERIOD,
};
use crate::node::{
    EnviroMicNode, LeaderState, PendingHandoff, T_ASSIGN, T_CONFIRM, T_ELECTION, T_HANDOFF,
    T_SENSING, T_SYNC,
};
use enviromic_net::Message;
use enviromic_runtime::{RecordKind, Runtime, TraceEvent};
use enviromic_types::{EventId, NodeId, SimDuration, SimTime};
use rand::Rng;

/// Delay before retrying a whole assignment round when every candidate
/// failed to answer.
const ROUND_RETRY: SimDuration = SimDuration::from_millis(200);

impl EnviroMicNode {
    // ----- message dispatch ---------------------------------------------------

    pub(crate) fn handle_message(&mut self, ctx: &mut dyn Runtime, from: NodeId, msg: Message) {
        match msg {
            Message::Sensing {
                event,
                level,
                has_prelude,
                ttl_secs,
            } => {
                self.neighbors
                    .sensing_report(from, ctx.now(), event, level, has_prelude, ttl_secs);
                if let Some(e) = event {
                    self.note_event(ctx, e);
                    self.maybe_adopt_event(ctx, e);
                }
            }
            Message::LeaderAnnounce { event } => self.on_leader_announce(ctx, from, event),
            Message::Resign {
                event,
                next_assign_at,
                task_seq,
            } => self.on_resign(ctx, event, next_assign_at, task_seq),
            Message::TaskRequest {
                event,
                recorder,
                task_seq,
                duration,
                leader_time,
                keep_prelude,
            } => self.on_task_request(
                ctx,
                from,
                event,
                recorder,
                task_seq,
                duration,
                leader_time,
                keep_prelude,
            ),
            Message::TaskConfirm {
                event,
                recorder,
                task_seq,
            } => self.on_task_confirm(ctx, event, recorder, task_seq),
            Message::TaskReject {
                event,
                recorder,
                task_seq,
            } => self.on_task_reject(ctx, event, recorder, task_seq),
            Message::StateUpdate {
                ttl_secs,
                free_chunks,
                avg_free_pct,
            } => {
                self.neighbors
                    .state_update(from, ctx.now(), ttl_secs, free_chunks, avg_free_pct);
            }
            Message::MigrateOffer {
                to,
                chunks,
                session,
            } => self.on_migrate_offer(ctx, from, to, chunks, session),
            Message::MigrateAccept {
                to,
                session,
                granted,
            } => self.on_migrate_accept(ctx, from, to, session, granted),
            Message::BulkData {
                to,
                session,
                seq,
                last,
                chunk,
            } => self.on_bulk_data(ctx, from, to, session, seq, last, chunk),
            Message::BulkAck { to, session, seq } => self.on_bulk_ack(ctx, to, session, seq),
            Message::TimeSync {
                root,
                seq,
                ref_time,
            } => self.on_time_sync(ctx, root, seq, ref_time),
            Message::TreeBuild {
                root,
                build_id,
                hops,
            } => self.on_tree_build(ctx, from, root, build_id, hops),
            Message::Query {
                root,
                query_id,
                t0,
                t1,
                all,
            } => self.on_query(ctx, root, query_id, t0, t1, all),
            Message::QueryData {
                to,
                root,
                query_id,
                chunk,
            } => self.on_query_data(ctx, to, root, query_id, chunk),
            Message::QueryDone {
                to,
                root,
                query_id,
                source,
                sent,
            } => self.on_query_done(ctx, to, root, query_id, source, sent),
        }
    }

    /// Records overheard event IDs as soft state (§II-A.2), usable even by
    /// nodes not currently hearing anything.
    fn note_event(&mut self, ctx: &mut dyn Runtime, event: EventId) {
        self.recent_event = Some((event, ctx.now()));
    }

    /// Records observed leader activity for the node's group event.
    fn note_leader_activity(&mut self, ctx: &mut dyn Runtime, event: EventId, task_seq: u32) {
        if self.group_event == Some(event) {
            self.last_leader_activity = ctx.now();
            self.last_seen_task_seq = self.last_seen_task_seq.max(task_seq);
        }
    }

    /// A member that has seen no leader activity for longer than a task
    /// period concludes the leader is gone (its RESIGN may have been sent
    /// while every hearer's radio was off) and competes to take over,
    /// keeping the same event (file) ID.
    pub(crate) fn check_leader_liveness(&mut self, ctx: &mut dyn Runtime) {
        let Some(event) = self.group_event else {
            return;
        };
        if !self.hearing
            || self.leader.is_some()
            || self.pending_handoff.is_some()
            || self.task.is_some()
        {
            return;
        }
        let silence = ctx.now().saturating_since(self.last_leader_activity);
        // Worst-case legitimate silence: this node missed one request
        // while recording its own task (Trc) and the leader then recorded
        // a self-assigned slot (≈ Trc) — so only react beyond two periods.
        let threshold = self.cfg.trc * 2 + self.cfg.trc / 4;
        if silence < threshold {
            return;
        }
        self.pending_handoff = Some(PendingHandoff {
            event,
            next_assign_at: self.global_now(ctx),
            task_seq: self.last_seen_task_seq.wrapping_add(1),
        });
        let backoff = {
            let max = HANDOFF_BACKOFF_MAX.as_jiffies().max(1);
            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
        };
        self.arm(ctx, T_HANDOFF, backoff);
    }

    /// A node that hears the event but missed the announcement learns the
    /// event ID from any event-bearing message (keeps groups converging
    /// around mobile sources).
    fn maybe_adopt_event(&mut self, ctx: &mut dyn Runtime, event: EventId) {
        if self.hearing && self.group_event.is_none() && self.leader.is_none() {
            self.group_event = Some(event);
            self.last_leader_activity = ctx.now();
            self.disarm(ctx, T_ELECTION);
        }
    }

    // ----- leader election (§II-A.1) -----------------------------------------

    fn on_leader_announce(&mut self, ctx: &mut dyn Runtime, from: NodeId, event: EventId) {
        self.note_event(ctx, event);
        self.note_leader_activity(ctx, event, 0);
        // An announcement supersedes any pending resign for this event.
        if self.recent_resign.is_some_and(|(p, _)| p.event == event) {
            self.recent_resign = None;
        }
        if self.hearing {
            if self.group_event.is_none() {
                self.group_event = Some(event);
            }
            if self.group_event == Some(event) {
                self.disarm(ctx, T_ELECTION);
                if self.pending_handoff.is_some_and(|p| p.event == event) {
                    self.pending_handoff = None;
                    self.disarm(ctx, T_HANDOFF);
                }
            }
        }
        // Dual-leader resolution: two candidates whose back-offs expired
        // within one propagation delay both announced (possibly minting
        // different IDs for the same physical event). Within a one-hop
        // neighborhood the lower ID keeps the role; the loser joins the
        // winner's group. The paper tolerates residual dual leaders; this
        // merely converges the common same-neighborhood race.
        if let Some(ls) = &self.leader {
            if from < self.me && self.hearing {
                let _ = ls;
                self.leader = None;
                self.disarm(ctx, T_ASSIGN);
                self.disarm(ctx, T_CONFIRM);
                self.group_event = Some(event);
            }
        }
    }

    pub(crate) fn on_election_backoff(&mut self, ctx: &mut dyn Runtime) {
        if !self.hearing || self.group_event.is_some() || self.leader.is_some() {
            return;
        }
        let event = EventId::new(self.me, self.event_seq);
        self.event_seq += 1;
        self.metrics.elections_won.inc();
        self.become_leader(ctx, event, 0, SimDuration::ZERO, false);
    }

    fn on_resign(
        &mut self,
        ctx: &mut dyn Runtime,
        event: EventId,
        next_assign_at: SimTime,
        task_seq: u32,
    ) {
        self.note_event(ctx, event);
        self.note_leader_activity(ctx, event, task_seq);
        self.recent_resign = Some((
            PendingHandoff {
                event,
                next_assign_at,
                task_seq,
            },
            ctx.now(),
        ));
        if !self.hearing {
            return;
        }
        if self.group_event.is_none() {
            self.group_event = Some(event);
            self.disarm(ctx, T_ELECTION);
        }
        if self.group_event != Some(event) || self.leader.is_some() {
            return;
        }
        self.pending_handoff = Some(PendingHandoff {
            event,
            next_assign_at,
            task_seq,
        });
        let backoff = {
            let max = HANDOFF_BACKOFF_MAX.as_jiffies().max(1);
            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
        };
        self.arm(ctx, T_HANDOFF, backoff);
    }

    pub(crate) fn on_handoff_backoff(&mut self, ctx: &mut dyn Runtime) {
        let Some(pending) = self.pending_handoff.take() else {
            return;
        };
        if !self.hearing || self.leader.is_some() {
            return;
        }
        let delay = pending
            .next_assign_at
            .saturating_since(self.global_now(ctx));
        self.metrics.handoffs_won.inc();
        self.become_leader(ctx, pending.event, pending.task_seq, delay, true);
    }

    fn become_leader(
        &mut self,
        ctx: &mut dyn Runtime,
        event: EventId,
        task_seq: u32,
        first_round_delay: SimDuration,
        handoff: bool,
    ) {
        self.group_event = Some(event);
        self.disarm(ctx, T_ELECTION);
        self.disarm(ctx, T_HANDOFF);
        self.pending_handoff = None;
        self.send(ctx, Message::LeaderAnnounce { event });
        ctx.trace(TraceEvent::LeaderElected {
            node: self.me,
            event,
            handoff,
            t: ctx.now(),
        });
        let next_round_at = self.global_now(ctx) + first_round_delay;
        // The prelude keeper is chosen at the first assignment round
        // (task_seq == 0), when the member list has filled in; handoff
        // leaders inherit task_seq > 0 and never choose again.
        self.leader = Some(Box::new(LeaderState {
            event,
            task_seq,
            pending: None,
            pending_at: SimTime::ZERO,
            excluded: Vec::new(),
            attempts: 0,
            current_recorder: None,
            next_round_at,
            prelude_keeper: None,
        }));
        self.arm(ctx, T_ASSIGN, first_round_delay);
    }

    // ----- task assignment (§II-A.2) ------------------------------------------

    pub(crate) fn on_assignment_round(&mut self, ctx: &mut dyn Runtime) {
        let Some(ls) = &mut self.leader else { return };
        ls.attempts = 0;
        ls.excluded.clear();
        // The node that held the previous task cannot take the next slot:
        // a member recorder still has its radio off, and a self-recording
        // leader has been deaf for a whole task period and must spend time
        // listening for SENSING beacons or it will never learn about its
        // members.
        if let Some(rec) = ls.current_recorder.take() {
            ls.excluded.push(rec);
        }
        self.try_assign(ctx);
    }

    /// Picks the most suitable recorder and requests the task (§II-A.2:
    /// "the member that has the highest time-to-live or the one that has
    /// the best reception of the acoustic signal").
    fn try_assign(&mut self, ctx: &mut dyn Runtime) {
        let Some(ls) = &self.leader else { return };
        let event = ls.event;
        let task_seq = ls.task_seq;
        let excluded = ls.excluded.clone();
        let keeper_unresolved = ls.prelude_keeper.is_none();

        // Candidates: members with a fresh SENSING report for this event
        // (or that have not learned the ID yet), plus the leader itself.
        let mut candidates: Vec<(NodeId, u32, u8, bool)> = Vec::new();
        for (node, info) in self.neighbors.entries() {
            if excluded.contains(&node) {
                continue;
            }
            let fresh = ctx.now().saturating_since(info.sensing_at) <= MEMBER_FRESHNESS;
            let matches = info.sensing == Some(event) || info.sensing.is_none();
            if fresh && matches && info.sensing_at > SimTime::ZERO {
                candidates.push((node, info.ttl_secs, info.level, info.has_prelude));
            }
        }
        if self.hearing && !excluded.contains(&self.me) {
            candidates.push((
                self.me,
                self.ttl_storage_secs(),
                // Round to the nearest level: a truncating `as u8` would
                // bias every quantized reading downward, the same defect
                // fixed for gossiped free-percent estimates in balance.rs.
                self.current_level.clamp(0.0, 255.0).round() as u8,
                self.prelude_chunks > 0,
            ));
        }
        if candidates.is_empty() {
            // Nobody can record right now; retry a fresh round shortly.
            self.arm(ctx, T_ASSIGN, ROUND_RETRY);
            if let Some(ls) = &mut self.leader {
                ls.next_round_at = self.sync.global_estimate(ctx.local_time()) + ROUND_RETRY;
            }
            return;
        }
        let me = self.me;
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1) // highest TTL first
                .then(b.2.cmp(&a.2)) // then best signal
                .then((a.0 == me).cmp(&(b.0 == me))) // prefer members over self
                .then(a.0.cmp(&b.0)) // then lowest ID, for determinism
        });
        let (chosen, _, _, _) = candidates[0];

        // Prelude-keeper choice (§II-A.1): resolved once, then re-announced
        // in every TASK_REQUEST while members still report unclaimed
        // preludes (a member whose radio was off for its own prelude may
        // have missed the first announcement).
        let keep_prelude = if self.cfg.prelude.is_some() {
            if keeper_unresolved {
                let keeper = if self.prelude_chunks > 0 {
                    Some(self.me)
                } else {
                    candidates
                        .iter()
                        .find(|(_, _, _, has)| *has)
                        .map(|(n, _, _, _)| *n)
                };
                if let Some(ls) = &mut self.leader {
                    ls.prelude_keeper = keeper;
                }
            }
            let any_holder =
                self.prelude_chunks > 0 || candidates.iter().any(|(_, _, _, has)| *has);
            if any_holder {
                self.leader.as_ref().and_then(|ls| ls.prelude_keeper)
            } else {
                None
            }
        } else {
            None
        };

        let leader_time = self.global_now(ctx);
        let request = Message::TaskRequest {
            event,
            recorder: chosen,
            task_seq,
            duration: self.cfg.trc,
            leader_time,
            keep_prelude,
        };
        self.send(ctx, request);
        if let Some(keeper) = keep_prelude {
            self.apply_prelude_choice(ctx, event, keeper);
        }

        if chosen == self.me {
            // Self-assignment: no confirmation round trip. Record slightly
            // short of Trc so the radio is back on in time to assign the
            // next task Dta early (§III-B.2).
            let dur = self.cfg.trc.saturating_sub(self.cfg.dta);
            let next = self.cfg.trc.saturating_sub(self.cfg.dta);
            if let Some(ls) = &mut self.leader {
                ls.task_seq += 1;
                ls.current_recorder = Some(self.me);
                ls.pending = None;
            }
            self.metrics.tasks_assigned.inc();
            self.start_task(ctx, Some(event), RecordKind::Task, dur);
            self.arm(ctx, T_ASSIGN, next);
            if let Some(ls) = &mut self.leader {
                ls.next_round_at = leader_time + next;
            }
        } else {
            if let Some(ls) = &mut self.leader {
                ls.pending = Some(chosen);
                ls.pending_at = ctx.now();
            }
            self.arm(ctx, T_CONFIRM, CONFIRM_TIMEOUT);
        }
    }

    fn on_task_confirm(
        &mut self,
        ctx: &mut dyn Runtime,
        event: EventId,
        recorder: NodeId,
        task_seq: u32,
    ) {
        self.last_confirmed = Some((event, task_seq, recorder));
        self.note_leader_activity(ctx, event, task_seq);
        let Some(ls) = &mut self.leader else { return };
        if ls.event != event || ls.task_seq != task_seq {
            return;
        }
        // Assignment settled: schedule the next round Dta before this task
        // expires (Fig. 4).
        if ls.pending.take().is_some() {
            // Request → confirm round trip, in simulated milliseconds.
            let latency = ctx.now().saturating_since(ls.pending_at);
            self.metrics
                .assign_latency_ms
                .observe(latency.as_secs_f64() * 1e3);
        }
        ls.current_recorder = Some(recorder);
        ls.task_seq += 1;
        self.metrics.tasks_assigned.inc();
        self.disarm(ctx, T_CONFIRM);
        let next = self.cfg.trc.saturating_sub(self.cfg.dta);
        self.arm(ctx, T_ASSIGN, next);
        if let Some(ls) = &mut self.leader {
            ls.next_round_at = self.sync.global_estimate(ctx.local_time()) + next;
        }
    }

    fn on_task_reject(
        &mut self,
        ctx: &mut dyn Runtime,
        event: EventId,
        recorder: NodeId,
        task_seq: u32,
    ) {
        let Some(ls) = &mut self.leader else { return };
        if ls.event != event || ls.task_seq != task_seq || ls.pending != Some(recorder) {
            return;
        }
        // A reject means somebody else already confirmed this slot
        // (Fig. 1): the assignment is settled.
        ls.pending = None;
        if let Some((e, s, n)) = self.last_confirmed {
            if e == event && s == task_seq {
                ls.current_recorder = Some(n);
            }
        }
        ls.task_seq += 1;
        self.disarm(ctx, T_CONFIRM);
        let next = self.cfg.trc.saturating_sub(self.cfg.dta);
        self.arm(ctx, T_ASSIGN, next);
        if let Some(ls) = &mut self.leader {
            ls.next_round_at = self.sync.global_estimate(ctx.local_time()) + next;
        }
    }

    pub(crate) fn on_confirm_timeout(&mut self, ctx: &mut dyn Runtime) {
        let Some(ls) = &mut self.leader else { return };
        let Some(pending) = ls.pending.take() else {
            return;
        };
        // Either the request or the confirmation was lost: immediately
        // pick another member (§II-A.2).
        ls.excluded.push(pending);
        ls.attempts += 1;
        self.metrics.confirm_timeouts.inc();
        if ls.attempts < MAX_ASSIGN_ATTEMPTS {
            self.try_assign(ctx);
        } else {
            self.arm(ctx, T_ASSIGN, ROUND_RETRY);
            if let Some(ls) = &mut self.leader {
                ls.next_round_at = self.sync.global_estimate(ctx.local_time()) + ROUND_RETRY;
            }
        }
    }

    // ----- member side ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_task_request(
        &mut self,
        ctx: &mut dyn Runtime,
        from: NodeId,
        event: EventId,
        recorder: NodeId,
        task_seq: u32,
        duration: SimDuration,
        leader_time: SimTime,
        keep_prelude: Option<NodeId>,
    ) {
        self.note_event(ctx, event);
        self.maybe_adopt_event(ctx, event);
        self.note_leader_activity(ctx, event, task_seq);
        // A TASK_REQUEST proves another leader is actively running this
        // event (e.g. a liveness-watchdog false positive elected a second
        // one); the lower ID keeps the role.
        if let Some(ls) = &self.leader {
            if ls.event == event && from != self.me && from < self.me {
                self.leader = None;
                self.disarm(ctx, T_ASSIGN);
                self.disarm(ctx, T_CONFIRM);
            }
        }
        // Every overhearing prelude holder acts on the keeper choice
        // (§II-A.1: "a node is chosen ... all others erase").
        if let Some(keeper) = keep_prelude {
            self.apply_prelude_choice(ctx, event, keeper);
        }
        // Cheap re-synchronization from the leader's clock (§III-A): every
        // member that hears the request adopts the leader's frame, so a
        // future handoff or watchdog leader stays consistent with the
        // file's existing timestamps.
        if self.group_event == Some(event) {
            self.sync.on_leader_time(ctx.local_time(), leader_time);
        }
        if recorder != self.me {
            return;
        }
        // Overhearing optimization (Fig. 1): if another member already
        // confirmed this slot, reject so the leader does not double-book.
        if let Some((e, s, n)) = self.last_confirmed {
            if e == event && s == task_seq && n != self.me {
                self.send(
                    ctx,
                    Message::TaskReject {
                        event,
                        recorder: self.me,
                        task_seq,
                    },
                );
                return;
            }
        }
        if self.task.is_some() {
            // Shouldn't happen (radio is off while recording); decline.
            return;
        }
        self.send(
            ctx,
            Message::TaskConfirm {
                event,
                recorder: self.me,
                task_seq,
            },
        );
        self.last_confirmed = Some((event, task_seq, self.me));
        self.start_task(ctx, Some(event), RecordKind::Task, duration);
    }

    /// Applies a leader's prelude-keeper decision to local prelude chunks.
    fn apply_prelude_choice(&mut self, ctx: &mut dyn Runtime, event: EventId, keeper: NodeId) {
        if self.prelude_chunks == 0 {
            return;
        }
        if keeper == self.me {
            self.retag_prelude(ctx, event);
        } else {
            self.erase_prelude(ctx);
        }
    }

    /// Rewrites the prelude chunks at the store tail with the now-known
    /// event (file) ID, preserving order and file continuity.
    fn retag_prelude(&mut self, ctx: &mut dyn Runtime, event: EventId) {
        let n = self.prelude_chunks;
        self.prelude_chunks = 0;
        let mut tail = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.store.pop_back(ctx) {
                Some(c) => tail.push(c),
                None => break,
            }
        }
        // `tail` is newest-first; re-push oldest-first.
        for mut chunk in tail.into_iter().rev() {
            if chunk.meta.event.is_none() {
                chunk.meta.event = Some(event);
            }
            let _ = self.store.push(ctx, chunk, false);
        }
    }

    /// Erases the losing prelude copy (§II-A.1).
    fn erase_prelude(&mut self, ctx: &mut dyn Runtime) {
        let n = self.prelude_chunks;
        self.prelude_chunks = 0;
        let mut span: Option<(SimTime, SimTime, u64)> = None;
        for _ in 0..n {
            let Some(chunk) = self.store.pop_back(ctx) else {
                break;
            };
            let (t0, t1, bytes) = (
                chunk.meta.t_start,
                chunk.t_end(),
                chunk.payload.len() as u64,
            );
            span = Some(match span {
                None => (t0, t1, bytes),
                Some((a, b, n)) => (a.min(t0), b.max(t1), n + bytes),
            });
        }
        if let Some((t0, t1, bytes)) = span {
            ctx.trace(TraceEvent::Erased {
                node: self.me,
                t0,
                t1,
                bytes,
            });
        }
    }

    // ----- SENSING beacons -------------------------------------------------------

    pub(crate) fn on_sensing_beacon(&mut self, ctx: &mut dyn Runtime) {
        if !self.hearing || !self.cfg.mode.cooperative() || self.task.is_some() {
            return;
        }
        self.check_leader_liveness(ctx);
        let msg = Message::Sensing {
            event: self.group_event,
            // Round, not truncate — see the candidate quantization above.
            level: self.current_level.clamp(0.0, 255.0).round() as u8,
            has_prelude: self.prelude_chunks > 0,
            ttl_secs: self.ttl_storage_secs(),
        };
        self.send(ctx, msg);
        self.arm(ctx, T_SENSING, SENSING_PERIOD);
    }

    // ----- time sync -------------------------------------------------------------

    pub(crate) fn on_sync_tick(&mut self, ctx: &mut dyn Runtime) {
        if self.sync.is_root() {
            let seq = self.sync.next_seq();
            let local = ctx.local_time();
            // Record our own beacon so sequence numbering advances.
            let _ = self.sync.on_beacon(self.me, seq, local, local);
            self.send(
                ctx,
                Message::TimeSync {
                    root: self.me,
                    seq,
                    ref_time: local,
                },
            );
        }
        self.beacons.beacon_sent(ctx.now());
        let delay = self.beacons.next_due().saturating_since(ctx.now());
        self.arm(ctx, T_SYNC, delay);
    }

    fn on_time_sync(&mut self, ctx: &mut dyn Runtime, root: NodeId, seq: u32, ref_time: SimTime) {
        let fresh = self.sync.on_beacon(root, seq, ctx.local_time(), ref_time);
        if fresh && root != self.me {
            // FTSP-style re-flood: re-originate with our own estimate of
            // the reference clock at transmission time.
            let est = self.sync.global_estimate(ctx.local_time());
            self.send(
                ctx,
                Message::TimeSync {
                    root,
                    seq,
                    ref_time: est,
                },
            );
        }
    }
}
