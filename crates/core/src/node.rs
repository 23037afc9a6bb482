//! The EnviroMic protocol node: state, timers, and the application wiring.
//!
//! The node is one [`Application`] running every subsystem of the paper:
//! sound-activated detection, group management and leader election
//! (§II-A.1), cooperative task assignment (§II-A.2), local chunk storage
//! (§III-B.3), distributed storage balancing (§II-B), time sync (§III-A),
//! and query answering for retrieval (§II-C). The per-subsystem logic
//! lives in sibling modules (`tasks`, `balance`, `retrieve`); this module
//! owns the state machine glue: timer routing, packet dispatch, detector
//! transitions, and the recording engine.

use crate::config::{
    Mode, NodeConfig, BACKGROUND_ALPHA, DETECT_OFF_FRACTION, ELECTION_BACKOFF_MAX,
    HANDOFF_BACKOFF_MAX, INITIAL_RATE, NEIGHBOR_EXPIRY, PACKET_BUDGET, PIGGYBACK_MAX_WAIT,
    RATE_PERIOD, SENSING_PERIOD, STATE_PERIOD, SYNC_MAX_PERIOD, SYNC_MIN_PERIOD,
};
use crate::detector::{Detection, SoundDetector};
use crate::policy::PolicyMetrics;
use crate::storage::TracedStore;
use enviromic_flash::{Chunk, ChunkMeta, ChunkStore};
use enviromic_net::{
    decode_envelope, BulkReceiver, BulkSender, Message, NeighborTable, PiggybackQueue, TreeState,
};
use enviromic_runtime::{
    Application, AudioBlock, DropReason, NodeProbe, NodeRole, RecordKind, Runtime,
    StorageOccupancy, Timer, TimerHandle, TraceEvent,
};
use enviromic_telemetry::{Counter, Histogram, Registry};
use enviromic_timesync::{BeaconScheduler, SyncState};
use enviromic_types::{audio, EventId, NodeId, SimDuration, SimTime};
use rand::Rng;

// Timer tokens. Each token names one logical timer; the node remembers the
// latest handle armed per token and ignores stale firings.
pub(crate) const T_ELECTION: u32 = 1;
pub(crate) const T_HANDOFF: u32 = 2;
pub(crate) const T_SENSING: u32 = 3;
pub(crate) const T_ASSIGN: u32 = 4;
pub(crate) const T_CONFIRM: u32 = 5;
pub(crate) const T_TASK_END: u32 = 6;
pub(crate) const T_STATE: u32 = 7;
pub(crate) const T_RATE: u32 = 8;
pub(crate) const T_BULK: u32 = 9;
pub(crate) const T_SYNC: u32 = 10;
pub(crate) const T_PIGGY: u32 = 11;
pub(crate) const T_REPLY_START: u32 = 12;
pub(crate) const T_REPLY_PACE: u32 = 13;
/// Tokens run from 1 to the last one; token `t` owns slot `t - 1` of
/// `EnviroMicNode::timers`.
const TIMER_TOKENS: usize = T_REPLY_PACE as usize;
/// What a `timers` slot holds while its token is not armed. Backends
/// count handles up from 0 or 1, so none hands out this one.
const UNARMED: TimerHandle = TimerHandle(u64::MAX);

/// An in-progress recording (task, prelude, or baseline interval).
#[derive(Debug)]
pub(crate) struct TaskRun {
    pub event: Option<EventId>,
    pub kind: RecordKind,
    /// First stored block start (global clock), for the trace record.
    pub t0: Option<SimTime>,
    /// Last stored block end.
    pub stored_t1: Option<SimTime>,
    /// First dropped block start, if storage filled up mid-task.
    pub dropped_from: Option<SimTime>,
    /// Last block end seen (stored or dropped).
    pub last_t1: Option<SimTime>,
    /// Payload bytes stored.
    pub bytes: u64,
}

/// Leader-side assignment state (§II-A.2).
#[derive(Debug)]
pub(crate) struct LeaderState {
    pub event: EventId,
    pub task_seq: u32,
    /// Member awaiting TASK_CONFIRM.
    pub pending: Option<NodeId>,
    /// When the outstanding TASK_REQUEST was sent (assignment-latency
    /// telemetry).
    pub pending_at: SimTime,
    /// Members excluded in the current round (timed out or recording).
    pub excluded: Vec<NodeId>,
    pub attempts: u32,
    /// The member currently holding a recording task.
    pub current_recorder: Option<NodeId>,
    /// Scheduled next assignment instant (sync frame), carried in RESIGN.
    pub next_round_at: SimTime,
    /// The prelude keeper, chosen once at the first assignment and
    /// re-announced while members still report unclaimed preludes.
    pub prelude_keeper: Option<NodeId>,
}

/// Handoff candidacy after an overheard RESIGN.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingHandoff {
    pub event: EventId,
    pub next_assign_at: SimTime,
    pub task_seq: u32,
}

/// An outstanding MIGRATE_OFFER waiting for acceptance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOffer {
    pub to: NodeId,
    pub session: u32,
    pub chunks: u16,
    pub made_at: SimTime,
}

/// Why an outbound bulk session exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BulkPurpose {
    /// Storage-balancing migration: acknowledged chunks are popped from
    /// the local store (unless kept as deliberate replicas).
    Migration,
    /// Retrieval answer: chunks are copied to the querier, never popped.
    Retrieval { root: NodeId, query_id: u32 },
}

/// Outbound bulk transfer in flight.
#[derive(Debug)]
pub(crate) struct OutboundBulk {
    pub sender: BulkSender,
    pub purpose: BulkPurpose,
}

/// Inbound bulk transfer in flight.
#[derive(Debug)]
pub(crate) struct InboundBulk {
    pub recv: BulkReceiver,
    pub accepted: u32,
    pub bytes: u64,
    /// Last time a data packet arrived; sessions idle for more than a
    /// state period are presumed dead and evicted so the node can accept
    /// fresh offers.
    pub last_activity: SimTime,
}

/// A query answer being paced up the spanning tree.
#[derive(Debug)]
pub(crate) struct PendingReply {
    pub root: NodeId,
    pub query_id: u32,
    pub t0: SimTime,
    pub t1: SimTime,
    pub all: bool,
    pub chunks: Vec<Chunk>,
    pub next: usize,
}

/// Telemetry handles for the protocol subsystems, resolved once from the
/// world registry at `on_start`. Until then a node holds
/// [`CoreMetrics::detached`] handles, so a node built outside a world
/// stays harmless.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreMetrics {
    pub elections_started: Counter,
    pub elections_won: Counter,
    pub handoffs_won: Counter,
    pub resigns_sent: Counter,
    pub tasks_assigned: Counter,
    pub tasks_recorded: Counter,
    pub confirm_timeouts: Counter,
    /// TASK_REQUEST → TASK_CONFIRM round-trip, simulated milliseconds.
    pub assign_latency_ms: Histogram,
    pub migrate_offered: Counter,
    pub migrate_accepted: Counter,
    pub migrate_rejected: Counter,
    pub chunks_migrated_out: Counter,
    pub chunks_migrated_in: Counter,
    pub chunks_dropped: Counter,
    /// β threshold in force at each migration offer (§II-B).
    pub beta: Histogram,
}

impl CoreMetrics {
    /// Handles that record into cells nobody reads. Every node built on
    /// one thread shares the same cells, so building a node allocates
    /// none; `on_start` replaces them.
    fn detached() -> Self {
        thread_local! {
            static DETACHED: CoreMetrics = CoreMetrics::default();
        }
        DETACHED.with(CoreMetrics::clone)
    }

    fn attach(reg: &Registry) -> Self {
        CoreMetrics {
            elections_started: reg.counter("core.election.started"),
            elections_won: reg.counter("core.election.won"),
            handoffs_won: reg.counter("core.election.handoff_won"),
            resigns_sent: reg.counter("core.election.resigned"),
            tasks_assigned: reg.counter("core.task.assigned"),
            tasks_recorded: reg.counter("core.task.recorded"),
            confirm_timeouts: reg.counter("core.task.confirm_timeout"),
            assign_latency_ms: reg.histogram("core.task.assign_latency_ms"),
            migrate_offered: reg.counter("core.migrate.offered"),
            migrate_accepted: reg.counter("core.migrate.accepted"),
            migrate_rejected: reg.counter("core.migrate.rejected"),
            chunks_migrated_out: reg.counter("core.migrate.chunks_out"),
            chunks_migrated_in: reg.counter("core.migrate.chunks_in"),
            chunks_dropped: reg.counter("core.storage.chunks_dropped"),
            beta: reg.histogram("core.balance.beta"),
        }
    }
}

/// One EnviroMic mote's protocol stack.
///
/// Construct with [`EnviroMicNode::new`] and hand to any [`Runtime`]
/// backend (e.g. the simulator's `World::add_node`). Behaviour is
/// governed by the
/// [`NodeConfig`] [`Mode`]: the full system, cooperative recording only,
/// or the uncoordinated baseline.
#[derive(Debug)]
pub struct EnviroMicNode {
    pub(crate) cfg: NodeConfig,
    pub(crate) me: NodeId,
    pub(crate) detector: SoundDetector,
    pub(crate) store: TracedStore,
    pub(crate) neighbors: NeighborTable,
    pub(crate) piggyback: PiggybackQueue,
    pub(crate) sync: SyncState,
    pub(crate) beacons: BeaconScheduler,
    /// Spanning-tree state, created by the first `TREE_BUILD` or `QUERY`.
    pub(crate) tree: Option<Box<TreeState>>,

    // group / event state
    pub(crate) hearing: bool,
    pub(crate) current_level: f64,
    pub(crate) group_event: Option<EventId>,
    pub(crate) leader: Option<Box<LeaderState>>,
    pub(crate) pending_handoff: Option<PendingHandoff>,
    pub(crate) event_seq: u32,
    /// Latest overheard (event, task_seq, recorder) confirmation.
    pub(crate) last_confirmed: Option<(EventId, u32, NodeId)>,
    /// Most recently overheard event ID with its time: the soft state a
    /// node that starts hearing late (mobile sources) adopts instead of
    /// minting a new file (§II-A.2 "this soft state ... is necessary").
    pub(crate) recent_event: Option<(EventId, SimTime)>,
    /// Most recently overheard RESIGN, so a node that begins hearing just
    /// after the old leader quit can still take over the schedule.
    pub(crate) recent_resign: Option<(PendingHandoff, SimTime)>,
    /// Last time any leader activity (announce, task traffic, resign) was
    /// observed for the current group event. A member that stops seeing
    /// leader activity concludes the leader died deaf (e.g. it resigned
    /// while every other member's radio was off) and re-elects, keeping
    /// the same file ID.
    pub(crate) last_leader_activity: SimTime,
    /// Highest task sequence number observed for the current group event.
    pub(crate) last_seen_task_seq: u32,

    // recording
    pub(crate) task: Option<Box<TaskRun>>,
    /// Chunks of an unclaimed prelude at the store tail (newest side).
    pub(crate) prelude_chunks: u32,
    pub(crate) prelude_event_pending: bool,

    // balancing
    /// `PolicyKind::Flooding`: the neighbours the head batch has already
    /// been copied to. RAM state, so a reboot clears it.
    pub(crate) batch_targets: Vec<NodeId>,
    pub(crate) policy_metrics: PolicyMetrics,
    pub(crate) rate: f64,
    /// Diffusive estimate of the network-wide average free fraction
    /// (global-balance extension), in [0, 1].
    pub(crate) net_avg_free: f64,
    pub(crate) pending_offer: Option<Box<PendingOffer>>,
    pub(crate) bulk_out: Option<Box<OutboundBulk>>,
    pub(crate) bulk_in: Option<Box<InboundBulk>>,
    pub(crate) session_seq: u32,

    // retrieval
    pub(crate) pending_reply: Option<Box<PendingReply>>,

    // plumbing
    /// The handle armed per timer token, or [`UNARMED`].
    pub(crate) timers: [TimerHandle; TIMER_TOKENS],
    pub(crate) metrics: CoreMetrics,
}

impl EnviroMicNode {
    /// Creates a node with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`NodeConfig::validate`]).
    #[must_use]
    pub fn new(cfg: NodeConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid node configuration: {e}");
        }
        let detector = SoundDetector::new(
            audio::AMBIENT_LEVEL,
            cfg.detect_margin,
            DETECT_OFF_FRACTION,
            BACKGROUND_ALPHA,
        );
        let store = TracedStore::new(ChunkStore::new(cfg.flash_chunks, cfg.checkpoint_interval));
        EnviroMicNode {
            cfg,
            me: NodeId(0),
            detector,
            store,
            neighbors: NeighborTable::new(NEIGHBOR_EXPIRY),
            piggyback: PiggybackQueue::new(PIGGYBACK_MAX_WAIT, PACKET_BUDGET),
            sync: SyncState::new(NodeId(0)),
            beacons: BeaconScheduler::new(SYNC_MIN_PERIOD, SYNC_MAX_PERIOD),
            tree: None,
            hearing: false,
            current_level: 0.0,
            group_event: None,
            leader: None,
            pending_handoff: None,
            event_seq: 0,
            last_confirmed: None,
            recent_event: None,
            recent_resign: None,
            last_leader_activity: SimTime::ZERO,
            last_seen_task_seq: 0,
            task: None,
            prelude_chunks: 0,
            prelude_event_pending: false,
            batch_targets: Vec::new(),
            policy_metrics: PolicyMetrics::detached(),
            rate: INITIAL_RATE,
            net_avg_free: 1.0,
            pending_offer: None,
            bulk_out: None,
            bulk_in: None,
            session_seq: 0,
            pending_reply: None,
            timers: [UNARMED; TIMER_TOKENS],
            metrics: CoreMetrics::detached(),
        }
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The local chunk store (post-run inspection).
    #[must_use]
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Chunks currently stored.
    #[must_use]
    pub fn stored_chunks(&self) -> u32 {
        self.store.len()
    }

    /// The node's current storage TTL in whole seconds (§II-B), saturating
    /// at `u32::MAX` which also encodes "infinite".
    #[must_use]
    pub fn ttl_storage_secs(&self) -> u32 {
        let ttl = self.ttl_storage_f64();
        if ttl.is_finite() {
            ttl.min(u32::MAX as f64) as u32
        } else {
            u32::MAX
        }
    }

    pub(crate) fn ttl_storage_f64(&self) -> f64 {
        if self.rate <= 0.0 {
            return f64::INFINITY;
        }
        let free_bytes = u64::from(self.store.free()) * u64::from(audio::CHUNK_PAYLOAD_BYTES);
        free_bytes as f64 / self.rate
    }

    /// Occupancy report for the world's poller.
    fn occupancy(&self) -> StorageOccupancy {
        StorageOccupancy {
            used: u64::from(self.store.len()),
            capacity: u64::from(self.store.capacity()),
        }
    }

    // ----- timer plumbing ---------------------------------------------------

    /// Arms (or re-arms) the logical timer `token`.
    pub(crate) fn arm(&mut self, ctx: &mut dyn Runtime, token: u32, delay: SimDuration) {
        let handle = ctx.set_timer(delay, token);
        let old = core::mem::replace(&mut self.timers[token as usize - 1], handle);
        if old != UNARMED {
            ctx.cancel_timer(old);
        }
    }

    /// Disarms the logical timer `token`.
    pub(crate) fn disarm(&mut self, ctx: &mut dyn Runtime, token: u32) {
        let old = core::mem::replace(&mut self.timers[token as usize - 1], UNARMED);
        if old != UNARMED {
            ctx.cancel_timer(old);
        }
    }

    /// True when `timer` is the current firing of its token. A token
    /// without a slot is never armed.
    fn is_current(&mut self, timer: Timer) -> bool {
        let slot = (timer.token as usize)
            .checked_sub(1)
            .and_then(|i| self.timers.get_mut(i));
        match slot {
            Some(slot) if *slot != UNARMED && *slot == timer.handle => {
                *slot = UNARMED;
                true
            }
            _ => false,
        }
    }

    // ----- message plumbing ---------------------------------------------------

    /// The node's estimate of reference-frame ("global") time.
    pub(crate) fn global_now(&self, ctx: &mut dyn Runtime) -> SimTime {
        self.sync.global_estimate(ctx.local_time())
    }

    /// Sends a message: delay-sensitive traffic leaves immediately with
    /// piggybacked passengers; delay-tolerant traffic waits for a ride.
    pub(crate) fn send(&mut self, ctx: &mut dyn Runtime, msg: Message) {
        if !self.cfg.piggybacking {
            let kind = msg.kind().label();
            let bytes = enviromic_net::encode_envelope(core::slice::from_ref(&msg));
            ctx.broadcast(kind, bytes);
            return;
        }
        if msg.is_delay_sensitive() {
            let kind = msg.kind().label();
            let envelope = self.piggyback.compose(msg);
            let bytes = enviromic_net::encode_envelope(&envelope);
            ctx.broadcast(kind, bytes);
        } else {
            self.piggyback.enqueue(ctx.now(), msg);
            if let Some(due) = self.piggyback.next_due() {
                if self.timers[T_PIGGY as usize - 1] == UNARMED {
                    let delay = due.saturating_since(ctx.now());
                    self.arm(ctx, T_PIGGY, delay);
                }
            }
        }
    }

    fn flush_piggyback(&mut self, ctx: &mut dyn Runtime) {
        let due = self.piggyback.flush_due(ctx.now());
        if !due.is_empty() {
            let kind = due[0].kind().label();
            let bytes = enviromic_net::encode_envelope(&due);
            ctx.broadcast(kind, bytes);
        }
        if let Some(next) = self.piggyback.next_due() {
            let delay = next.saturating_since(ctx.now());
            self.arm(ctx, T_PIGGY, delay);
        }
    }

    // ----- detector transitions --------------------------------------------

    fn handle_event_start(&mut self, ctx: &mut dyn Runtime, level: f64) {
        self.hearing = true;
        self.current_level = level;
        self.beacons.activity(ctx.now());
        match self.cfg.mode {
            Mode::Uncoordinated => {
                if self.task.is_none() {
                    self.start_task(ctx, None, RecordKind::Baseline, self.cfg.trc);
                }
            }
            _ => {
                if self.task.is_some() {
                    // Already recording (e.g. an assigned task); the group
                    // machinery resumes when the task ends.
                    return;
                }
                if let Some(prelude) = self.cfg.prelude {
                    self.prelude_event_pending = true;
                    self.start_task(ctx, None, RecordKind::Prelude, prelude);
                } else {
                    self.begin_candidacy(ctx);
                }
            }
        }
    }

    fn handle_event_stop(&mut self, ctx: &mut dyn Runtime) {
        self.hearing = false;
        self.current_level = 0.0;
        self.disarm(ctx, T_ELECTION);
        self.disarm(ctx, T_HANDOFF);
        self.disarm(ctx, T_SENSING);
        self.pending_handoff = None;
        if self.leader.is_some() && self.task.is_some() {
            // A self-recording leader has its radio off; cut the recording
            // short so the RESIGN actually gets on the air and the group
            // survives the handoff (§II-A.1, Fig. 5).
            self.disarm(ctx, T_TASK_END);
            self.end_task(ctx);
        }
        if let Some(ls) = self.leader.take() {
            // Hand leadership to whoever still hears the event (§II-A.1).
            self.disarm(ctx, T_ASSIGN);
            self.disarm(ctx, T_CONFIRM);
            self.metrics.resigns_sent.inc();
            self.send(
                ctx,
                Message::Resign {
                    event: ls.event,
                    next_assign_at: ls.next_round_at,
                    task_seq: ls.task_seq,
                },
            );
        }
        self.group_event = None;
        // An unclaimed prelude for an event that ended before election
        // completes stays stored (short-event case: the prelude IS the
        // recording, §II-A.1).
        self.prelude_event_pending = false;
    }

    /// Enters the candidate phase: start SENSING beacons and the election
    /// back-off (§II-A.1).
    pub(crate) fn begin_candidacy(&mut self, ctx: &mut dyn Runtime) {
        if !self.hearing {
            return;
        }
        let first_beacon = {
            let max = SENSING_PERIOD.as_jiffies().max(1);
            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
        };
        self.arm(ctx, T_SENSING, first_beacon);
        // Soft state from overheard control traffic: a node that starts
        // hearing an event already being recorded nearby adopts its file
        // ID rather than minting a new one (mobile-source continuity).
        let window = self.cfg.trc * 2;
        if self.group_event.is_none() {
            if let Some((event, seen_at)) = self.recent_event {
                if ctx.now().saturating_since(seen_at) <= window {
                    self.group_event = Some(event);
                }
            }
        }
        if let Some(event) = self.group_event {
            // If the previous leader resigned moments ago and nobody has
            // taken over yet, compete for the handoff.
            if self.leader.is_none() {
                if let Some((pending, seen_at)) = self.recent_resign {
                    if pending.event == event && ctx.now().saturating_since(seen_at) <= window {
                        self.pending_handoff = Some(pending);
                        let backoff = {
                            let max = HANDOFF_BACKOFF_MAX.as_jiffies().max(1);
                            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
                        };
                        self.arm(ctx, T_HANDOFF, backoff);
                    }
                }
            }
            return;
        }
        if self.leader.is_none() {
            self.metrics.elections_started.inc();
            let backoff = {
                let max = ELECTION_BACKOFF_MAX.as_jiffies().max(1);
                SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
            };
            self.arm(ctx, T_ELECTION, backoff);
        }
    }

    // ----- recording engine ---------------------------------------------------

    /// Starts a recording run: radio off, sampling on, end timer armed.
    pub(crate) fn start_task(
        &mut self,
        ctx: &mut dyn Runtime,
        event: Option<EventId>,
        kind: RecordKind,
        duration: SimDuration,
    ) -> bool {
        if self.task.is_some() {
            return false;
        }
        ctx.set_radio(false);
        if !ctx.start_recording() {
            ctx.set_radio(true);
            return false;
        }
        self.task = Some(Box::new(TaskRun {
            event,
            kind,
            t0: None,
            stored_t1: None,
            dropped_from: None,
            last_t1: None,
            bytes: 0,
        }));
        self.arm(ctx, T_TASK_END, duration);
        true
    }

    /// Stores one sampled block as a chunk.
    fn store_block(&mut self, ctx: &mut dyn Runtime, block: &AudioBlock) {
        let Some(task) = self.task.as_mut() else {
            return;
        };
        task.last_t1 = Some(block.t1);
        if block.samples.is_empty() {
            return;
        }
        let est_t0 = {
            // Timestamp with the node's reference-frame estimate; the
            // block's global bounds stay in the trace as ground truth.
            let est_now = self.sync.global_estimate(ctx.local_time());
            est_now - block.duration()
        };
        let chunk = Chunk::new(
            ChunkMeta {
                origin: self.me,
                event: task.event,
                t_start: est_t0,
            },
            block.samples.clone(),
        );
        let kind = task.kind;
        match self.store.push(ctx, chunk, true) {
            Ok(()) => {
                let task = self.task.as_mut().expect("task checked above");
                task.t0.get_or_insert(block.t0);
                task.stored_t1 = Some(block.t1);
                task.bytes += block.samples.len() as u64;
                if kind == RecordKind::Prelude {
                    self.prelude_chunks += 1;
                }
            }
            Err(_) => {
                let task = self.task.as_mut().expect("task checked above");
                task.dropped_from.get_or_insert(block.t0);
                self.metrics.chunks_dropped.inc();
            }
        }
    }

    /// Finishes the active recording run: final partial block, trace
    /// records, radio back on, and follow-up transitions.
    fn end_task(&mut self, ctx: &mut dyn Runtime) {
        if let Some(final_block) = ctx.stop_recording() {
            self.store_block(ctx, &final_block);
        }
        ctx.set_radio(true);
        let Some(task) = self.task.take() else {
            return;
        };
        if let (Some(t0), Some(t1)) = (task.t0, task.stored_t1) {
            ctx.trace(TraceEvent::Recorded {
                node: self.me,
                event: task.event,
                t0,
                t1,
                bytes: task.bytes,
                kind: task.kind,
            });
        }
        if let (Some(d0), Some(d1)) = (task.dropped_from, task.last_t1) {
            if d1 > d0 {
                ctx.trace(TraceEvent::RecordDropped {
                    node: self.me,
                    t0: d0,
                    t1: d1,
                    reason: DropReason::StorageFull,
                });
            }
        }
        match task.kind {
            RecordKind::Prelude => {
                self.prelude_event_pending = false;
                // Election was deferred for the prelude (the radio was
                // off); run it now if the event persists.
                if self.detector.is_active() {
                    self.begin_candidacy(ctx);
                }
            }
            RecordKind::Baseline => {
                if self.detector.is_active() {
                    // Uncoordinated baseline: keep recording in Trc-sized
                    // intervals while the event persists (§IV-B).
                    self.start_task(ctx, None, RecordKind::Baseline, self.cfg.trc);
                }
            }
            RecordKind::Task => {
                self.metrics.tasks_recorded.inc();
                // If we are the leader and just recorded our own
                // assignment, the assignment timer takes over.
                self.check_leader_liveness(ctx);
            }
        }
        // Radio is back on: resume SENSING beacons so the leader keeps an
        // up-to-date member list (§II-A.2).
        if self.cfg.mode.cooperative() && self.hearing && self.task.is_none() {
            let jitter = {
                let max = (SENSING_PERIOD.as_jiffies() / 4).max(1);
                SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
            };
            self.arm(ctx, T_SENSING, jitter);
        }
    }
}

impl Application for EnviroMicNode {
    fn on_start(&mut self, ctx: &mut dyn Runtime) {
        self.me = ctx.node_id();
        self.sync = SyncState::new(self.me);
        self.metrics = CoreMetrics::attach(ctx.telemetry());
        self.policy_metrics = PolicyMetrics::attach(ctx.telemetry(), self.cfg.policy);
        // Stagger periodic services so co-located nodes do not self-
        // synchronize.
        let state_stagger = {
            let max = STATE_PERIOD.as_jiffies().max(1);
            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
        };
        if self.cfg.mode.balancing() {
            self.arm(ctx, T_STATE, state_stagger);
        }
        let rate_stagger = {
            let max = RATE_PERIOD.as_jiffies().max(1);
            SimDuration::from_jiffies(ctx.rng().gen_range(0..max))
        };
        self.arm(ctx, T_RATE, rate_stagger);
        if self.cfg.mode.cooperative() {
            let sync_delay = self.beacons.next_due().saturating_since(ctx.now());
            self.arm(ctx, T_SYNC, sync_delay);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime, timer: Timer) {
        if !self.is_current(timer) {
            return;
        }
        match timer.token {
            T_ELECTION => self.on_election_backoff(ctx),
            T_HANDOFF => self.on_handoff_backoff(ctx),
            T_SENSING => self.on_sensing_beacon(ctx),
            T_ASSIGN => self.on_assignment_round(ctx),
            T_CONFIRM => self.on_confirm_timeout(ctx),
            T_TASK_END => self.end_task(ctx),
            T_STATE => self.on_state_tick(ctx),
            T_RATE => self.on_rate_tick(ctx),
            T_BULK => self.on_bulk_timeout(ctx),
            T_SYNC => self.on_sync_tick(ctx),
            T_PIGGY => self.flush_piggyback(ctx),
            T_REPLY_START => self.on_reply_start(ctx),
            T_REPLY_PACE => self.on_reply_pace(ctx),
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
        let Ok(messages) = decode_envelope(bytes) else {
            return;
        };
        self.neighbors.heard(from, ctx.now());
        for msg in messages {
            self.handle_message(ctx, from, msg);
        }
    }

    fn on_acoustic_level(&mut self, ctx: &mut dyn Runtime, level: f64) {
        match self.detector.on_level(level) {
            Detection::Started { level } => self.handle_event_start(ctx, level),
            Detection::Ongoing { level } => {
                self.current_level = level;
                // A baseline node that filled a task slot restarts here if
                // the end-of-task restart found the detector inactive.
                if self.cfg.mode == Mode::Uncoordinated && self.task.is_none() {
                    self.start_task(ctx, None, RecordKind::Baseline, self.cfg.trc);
                }
            }
            Detection::Stopped => self.handle_event_stop(ctx),
            Detection::Quiet => {}
        }
    }

    fn on_audio_block(&mut self, ctx: &mut dyn Runtime, block: AudioBlock) {
        self.store_block(ctx, &block);
    }

    fn poll_occupancy(&self) -> Option<StorageOccupancy> {
        Some(self.occupancy())
    }

    fn poll_probe(&self) -> Option<NodeProbe> {
        let role = if self.leader.is_some() {
            NodeRole::Leader
        } else if self.group_event.is_some() {
            NodeRole::Member
        } else {
            NodeRole::Idle
        };
        Some(NodeProbe {
            occupancy: self.occupancy(),
            chunks: self.store.len(),
            role,
        })
    }

    fn on_reboot(&mut self, ctx: &mut dyn Runtime) {
        // Power cycle: RAM protocol state is lost, flash survives. Rebuild
        // the stack from a fresh configuration and recover the persisted
        // chunk ring from flash + EEPROM checkpoints — the same path a
        // physically collected dead mote goes through (§VI).
        let cfg = self.cfg.clone();
        let checkpoint_interval = cfg.checkpoint_interval;
        let fresh = EnviroMicNode::new(cfg);
        let old = core::mem::replace(self, fresh);
        let (flash, eeprom) = old.store.into_inner().into_parts();
        self.store = TracedStore::new(ChunkStore::recover(flash, eeprom, checkpoint_interval));
        ctx.telemetry().counter("core.node.reboots").inc();
        // Stale timers armed before the crash are filtered by is_current:
        // the rebuilt timer slots hold no pre-crash handles.
        self.on_start(ctx);
    }

    fn on_flash_bad_block(&mut self, ctx: &mut dyn Runtime, block: u32) {
        self.store.mark_bad_block(block);
        ctx.telemetry().counter("flash.bad_blocks.marked").inc();
    }

    fn on_finish(&mut self, ctx: &mut dyn Runtime) {
        // End-of-run flash wear scrape (§III-B.3 wear-leveling evidence).
        enviromic_flash::record_wear(ctx.telemetry(), self.store.flash());
        ctx.telemetry()
            .counter("flash.writes.remapped")
            .add(self.store.remapped_writes());
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_has_infinite_storage_ttl() {
        let node = EnviroMicNode::new(NodeConfig::default());
        assert_eq!(node.ttl_storage_secs(), u32::MAX);
        assert!(node.ttl_storage_f64().is_infinite());
        assert_eq!(node.stored_chunks(), 0);
    }

    #[test]
    fn storage_ttl_tracks_rate_and_free_space() {
        let mut node = EnviroMicNode::new(NodeConfig::default().with_flash_chunks(100));
        node.rate = 232.0; // one chunk per second
                           // 100 free chunks at one chunk/second: 100 seconds to overflow.
        assert_eq!(node.ttl_storage_secs(), 100);
        node.rate = 2320.0;
        assert_eq!(node.ttl_storage_secs(), 10);
    }

    #[test]
    fn accessors_expose_configuration() {
        let node = EnviroMicNode::new(NodeConfig::default().with_beta_max(3.5));
        assert_eq!(node.config().beta_max, 3.5);
    }

    /// Every node of a city world pays this inline size: 100k nodes at
    /// 976 B is 98 MB. Keep new state that most nodes never use
    /// behind an `Option<Box<_>>`, as `leader`, `task`, `tree`,
    /// `pending_offer`, the bulk sessions and `pending_reply` are, rather
    /// than raising the limit. Each node carries its own [`NodeConfig`],
    /// so a value no experiment varies belongs in a constant, not a field.
    #[test]
    fn node_fits_its_inline_budget() {
        let size = std::mem::size_of::<EnviroMicNode>();
        assert!(size <= 976, "EnviroMicNode is {size} B inline");
        let cfg = std::mem::size_of::<NodeConfig>();
        assert!(cfg <= 64, "NodeConfig is {cfg} B");
    }

    #[test]
    #[should_panic(expected = "invalid node configuration")]
    fn invalid_config_panics() {
        let _ = EnviroMicNode::new(NodeConfig::default().with_flash_chunks(0));
    }
}
