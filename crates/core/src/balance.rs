//! Distributed storage balancing: the §II-B *mechanics*.
//!
//! Each node tracks its data acquisition rate with an EWMA and runs the
//! reliable MigrateOffer/MigrateAccept/BulkData choreography that moves
//! chunk batches between neighbours. The *decisions* — when to shed data,
//! to whom, and whether to accept or retain — are delegated to the node's
//! pluggable [`BalancePolicy`](crate::BalancePolicy); under the default
//! [`BetaTtlPolicy`](crate::BetaTtlPolicy) this is exactly the paper's
//! TTL/β heuristic, where hot-spot data diffuses outward as in Fig. 18.
//! Received data can be re-migrated later regardless of policy.

use crate::config::{BULK_RETRIES, BULK_TIMEOUT, RATE_ALPHA, RATE_PERIOD, STATE_PERIOD};
use crate::node::{
    BulkPurpose, EnviroMicNode, InboundBulk, OutboundBulk, PendingOffer, T_BULK, T_RATE, T_STATE,
};
use crate::policy::{BalanceView, NeighborView};
use enviromic_flash::Chunk;
use enviromic_net::{BulkReceiver, BulkSender, Message, SenderStep};
use enviromic_runtime::{Runtime, TraceEvent};
use enviromic_types::NodeId;

/// Snapshots the balancing-relevant node state into a [`BalanceView`].
///
/// A macro rather than a method so the view's borrows are *field* borrows
/// (`$node.cfg`, a local neighbour `Vec`): the caller can still take
/// `&mut $node.policy` while the view is alive — disjoint paths the
/// borrow checker accepts, where a `&self` helper method would not.
macro_rules! balance_view {
    ($node:expr, $neighbors:expr) => {
        BalanceView {
            me: $node.me,
            ttl_storage_secs: $node.ttl_storage_f64(),
            rate: $node.rate,
            stored_chunks: $node.store.len(),
            free_chunks: $node.store.free(),
            capacity_chunks: $node.store.capacity(),
            net_avg_free: $node.net_avg_free,
            neighbors: $neighbors,
            cfg: &$node.cfg,
        }
    };
}

impl EnviroMicNode {
    // ----- periodic rate estimation (§II-B) -----------------------------------

    /// Updates the EWMA acquisition rate:
    /// `R(t) = R(t-1)·(1-α) + r·α`.
    /// Per §II-B the rate is "measured as the number of bytes recorded
    /// over the (waking) interval during which recording took place":
    /// quiet periods do not fold zeros into the average, so a node's
    /// storage horizon does not balloon to infinity between sporadic
    /// events (which would silently switch the balancer off).
    pub(crate) fn on_rate_tick(&mut self, ctx: &mut dyn Runtime) {
        let bytes = self.store.take_rate_bytes();
        if bytes > 0 {
            let period_secs = RATE_PERIOD.as_secs_f64();
            let instantaneous = bytes as f64 / period_secs;
            self.rate = self.rate * (1.0 - RATE_ALPHA) + instantaneous * RATE_ALPHA;
        }
        self.arm(ctx, T_RATE, RATE_PERIOD);
    }

    // ----- periodic state beacon + balance check --------------------------------

    pub(crate) fn on_state_tick(&mut self, ctx: &mut dyn Runtime) {
        self.neighbors.expire(ctx.now());
        // Withdraw an offer nobody answered within a period.
        if let Some(offer) = &self.pending_offer {
            if ctx.now().saturating_since(offer.made_at) >= STATE_PERIOD {
                self.pending_offer = None;
            }
        }
        // Evict inbound sessions whose donor went silent (e.g. it gave up
        // after losses): a stuck receiver would otherwise refuse every
        // future offer forever.
        if let Some(inbound) = &self.bulk_in {
            if ctx.now().saturating_since(inbound.last_activity) >= STATE_PERIOD {
                self.bulk_in = None;
            }
        }
        // Diffusive averaging for the global-balance extension: mix the
        // node's own free fraction with the neighborhood's gossiped
        // estimates; repeated local mixing converges toward the global
        // mean.
        let own_free = f64::from(self.store.free()) / f64::from(self.store.capacity());
        if self.cfg.global_balance_hints {
            let mut acc = own_free;
            let mut n = 1.0;
            for (_, info) in self.neighbors.entries() {
                acc += f64::from(info.avg_free_pct) / 100.0;
                n += 1.0;
            }
            self.net_avg_free = acc / n;
        } else {
            self.net_avg_free = own_free;
        }
        let msg = Message::StateUpdate {
            ttl_secs: self.ttl_storage_secs(),
            free_chunks: self.store.free(),
            // Round to the nearest percent: `as u8` would truncate, biasing
            // every gossiped estimate downward by up to a full point.
            avg_free_pct: (self.net_avg_free * 100.0).clamp(0.0, 100.0).round() as u8,
        };
        // Delay-tolerant: rides piggyback on the next outgoing packet or a
        // flush timer (§III-A).
        self.send(ctx, msg);
        self.balance_check(ctx);
        self.arm(ctx, T_STATE, STATE_PERIOD);
    }

    /// A policy-ready snapshot of the neighbour table, in node-ID order.
    fn neighbor_views(&self) -> Vec<NeighborView> {
        self.neighbors
            .entries()
            .map(|(node, info)| NeighborView {
                node,
                ttl_secs: info.ttl_secs,
                free_chunks: info.free_chunks,
                avg_free_pct: info.avg_free_pct,
            })
            .collect()
    }

    /// The periodic migration decision, delegated to the node's
    /// [`BalancePolicy`](crate::BalancePolicy). The mechanical guards are
    /// policy-independent: a node mid-session, with an outstanding offer,
    /// or with nothing stored never initiates a migration.
    fn balance_check(&mut self, ctx: &mut dyn Runtime) {
        if !self.cfg.mode.balancing()
            || self.bulk_out.is_some()
            || self.pending_offer.is_some()
            || self.store.is_empty()
        {
            return;
        }
        let neighbors = self.neighbor_views();
        let view = balance_view!(self, &neighbors);
        let Some(plan) = self.policy.should_migrate(ctx, &view) else {
            self.policy_metrics.holds.inc();
            return;
        };
        let session = self.session_seq;
        self.session_seq += 1;
        self.metrics.migrate_offered.inc();
        self.policy_metrics.offers.inc();
        if let Some(beta) = plan.beta {
            self.metrics.beta.observe(beta);
        }
        self.pending_offer = Some(Box::new(PendingOffer {
            to: plan.target,
            session,
            chunks: plan.chunks,
            made_at: ctx.now(),
        }));
        self.send(
            ctx,
            Message::MigrateOffer {
                to: plan.target,
                chunks: plan.chunks,
                session,
            },
        );
    }

    // ----- migration handshake -----------------------------------------------

    pub(crate) fn on_migrate_offer(
        &mut self,
        ctx: &mut dyn Runtime,
        from: NodeId,
        to: NodeId,
        chunks: u16,
        session: u32,
    ) {
        if to != self.me || !self.cfg.mode.balancing() {
            return;
        }
        if self.bulk_in.is_some() || self.store.free() == 0 {
            self.metrics.migrate_rejected.inc();
            return; // busy or full: ignore and let the offer expire
        }
        let neighbors = self.neighbor_views();
        let view = balance_view!(self, &neighbors);
        if !self.policy.accept_inbound(&view, from, chunks) {
            self.metrics.migrate_rejected.inc();
            self.policy_metrics.inbound_rejected.inc();
            return;
        }
        self.policy_metrics.inbound_accepted.inc();
        let granted =
            u16::try_from(u64::from(chunks).min(u64::from(self.store.free()))).unwrap_or(u16::MAX);
        if granted == 0 {
            self.metrics.migrate_rejected.inc();
            return;
        }
        self.metrics.migrate_accepted.inc();
        self.bulk_in = Some(Box::new(InboundBulk {
            recv: BulkReceiver::new(from, session),
            accepted: 0,
            bytes: 0,
            last_activity: ctx.now(),
        }));
        self.send(
            ctx,
            Message::MigrateAccept {
                to: from,
                session,
                granted,
            },
        );
    }

    pub(crate) fn on_migrate_accept(
        &mut self,
        ctx: &mut dyn Runtime,
        from: NodeId,
        to: NodeId,
        session: u32,
        granted: u16,
    ) {
        if to != self.me {
            return;
        }
        let Some(&offer) = self.pending_offer.as_deref() else {
            return;
        };
        if offer.session != session || offer.to != from {
            return;
        }
        self.pending_offer = None;
        if self.bulk_out.is_some() {
            return;
        }
        let count = u32::from(granted.min(offer.chunks)).min(self.store.len());
        if count == 0 {
            return;
        }
        // Chunks are *copied* into the transfer; each is popped from the
        // store only when its acknowledgement arrives, so a failed
        // transfer loses nothing.
        let chunks: Vec<Chunk> = (0..count).filter_map(|i| self.store.get(i)).collect();
        if chunks.is_empty() {
            return;
        }
        let sender = BulkSender::new(from, session, chunks, BULK_RETRIES);
        let first = sender.current().expect("fresh session has a first chunk");
        self.bulk_out = Some(Box::new(OutboundBulk {
            sender,
            purpose: BulkPurpose::Migration,
        }));
        self.send(ctx, first);
        self.arm(ctx, T_BULK, BULK_TIMEOUT);
    }

    // ----- bulk transfer data path ----------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_bulk_data(
        &mut self,
        ctx: &mut dyn Runtime,
        _from: NodeId,
        to: NodeId,
        session: u32,
        seq: u16,
        last: bool,
        chunk: Chunk,
    ) {
        if to != self.me {
            return;
        }
        let Some(inbound) = &mut self.bulk_in else {
            return;
        };
        if inbound.recv.session() != session {
            return;
        }
        inbound.last_activity = ctx.now();
        let chunk_bytes = chunk.payload.len() as u64;
        let (ack, accepted) = inbound.recv.on_data(session, seq, last, chunk);
        if let Some(chunk) = accepted {
            // Migrated-in data counts toward the acquisition rate: inflow
            // is inflow as far as time-to-overflow is concerned, and a
            // finite recipient TTL is what makes the β threshold bite and
            // lets hot-spot data diffuse multiple hops (Fig. 13/18).
            if self.store.push(ctx, chunk, true).is_ok() {
                let inbound = self.bulk_in.as_mut().expect("checked above");
                inbound.accepted += 1;
                inbound.bytes += chunk_bytes;
                self.stats.chunks_migrated_in += 1;
                self.metrics.chunks_migrated_in.inc();
            } else {
                // Out of space mid-transfer: withhold the ACK so the donor
                // backs off and keeps its copy.
                return;
            }
        }
        if let Some(ack) = ack {
            self.send(ctx, ack);
        }
        let inbound = self.bulk_in.as_mut().expect("checked above");
        if inbound.recv.is_complete() {
            let from = inbound.recv.from();
            let (chunks, bytes) = (inbound.accepted, inbound.bytes);
            ctx.trace(TraceEvent::Migrated {
                from,
                to: self.me,
                chunks,
                bytes,
                duplicated: false,
                t: ctx.now(),
            });
            self.bulk_in = None;
        }
    }

    pub(crate) fn on_bulk_ack(
        &mut self,
        ctx: &mut dyn Runtime,
        to: NodeId,
        session: u32,
        seq: u16,
    ) {
        if to != self.me {
            return;
        }
        let Some(outbound) = &mut self.bulk_out else {
            return;
        };
        let delivered = outbound.sender.on_ack(session, seq).is_some();
        let migration = outbound.purpose == BulkPurpose::Migration;
        if delivered && migration {
            // Delivered: release the local copy (head of the queue), unless
            // the policy keeps it as a deliberate replica (the paper's
            // "controlled redundancy" future work; the dispersal policy's
            // k-way copies).
            let neighbors = self.neighbor_views();
            let view = balance_view!(self, &neighbors);
            if self.policy.retain_after_ack(&view) {
                self.policy_metrics.chunks_retained.inc();
            } else {
                let _ = self.store.pop_front(ctx);
            }
            self.stats.chunks_migrated_out += 1;
            self.metrics.chunks_migrated_out.inc();
        }
        let Some(outbound) = &mut self.bulk_out else {
            return;
        };
        if outbound.sender.is_done() {
            let purpose = outbound.purpose;
            let peer = outbound.sender.to();
            self.bulk_out = None;
            self.disarm(ctx, T_BULK);
            self.after_bulk_out_finished(ctx, purpose, peer);
        } else if let Some(next) = outbound.sender.current() {
            self.send(ctx, next);
            self.arm(ctx, T_BULK, BULK_TIMEOUT);
        }
    }

    pub(crate) fn on_bulk_timeout(&mut self, ctx: &mut dyn Runtime) {
        let Some(outbound) = &mut self.bulk_out else {
            return;
        };
        match outbound.sender.on_timeout() {
            SenderStep::Retry(msg) => {
                self.send(ctx, msg);
                self.arm(ctx, T_BULK, BULK_TIMEOUT);
            }
            SenderStep::GiveUp { unacked } => {
                let purpose = outbound.purpose;
                let to = outbound.sender.to();
                if purpose == BulkPurpose::Migration && !unacked.is_empty() {
                    // The receiver may have stored chunks whose ACKs were
                    // lost while our copies stay put: the documented
                    // residual-redundancy path (Fig. 11).
                    let bytes = unacked.iter().map(|c| c.payload.len() as u64).sum();
                    ctx.trace(TraceEvent::Migrated {
                        from: self.me,
                        to,
                        chunks: unacked.len() as u32,
                        bytes,
                        duplicated: true,
                        t: ctx.now(),
                    });
                }
                self.bulk_out = None;
                self.after_bulk_out_finished(ctx, purpose, to);
            }
        }
    }

    /// Post-session hook: retrieval sessions report completion to the
    /// querier; migration sessions notify the balancing policy (which the
    /// dispersal policy uses to track per-batch copy targets).
    fn after_bulk_out_finished(
        &mut self,
        ctx: &mut dyn Runtime,
        purpose: BulkPurpose,
        peer: NodeId,
    ) {
        match purpose {
            BulkPurpose::Migration => {
                self.policy.on_migration_session_closed(peer);
                self.policy_metrics.sessions_closed.inc();
            }
            BulkPurpose::Retrieval { root, query_id } => {
                self.finish_query_answer(ctx, root, query_id);
            }
        }
    }
}
