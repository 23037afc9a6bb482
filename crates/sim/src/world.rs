//! The simulated world: nodes, radio medium, acoustic field, clocks, and
//! energy, advanced by a deterministic discrete-event loop.

use crate::acoustics::{AcousticField, MixScratch, SourceSpec};
use crate::config::WorldConfig;
use crate::faults::{FaultEvent, FaultPlan, FaultScope};
use crate::queue::EventQueue;
use crate::rng::RngStreams;
use crate::spatial::{AudibleIndex, NodeGrid};
use enviromic_runtime::{
    Application, AudioBlock, EnergyModel, FaultKind, Runtime, Timer, TimerHandle, Trace, TraceEvent,
};
use enviromic_telemetry::{Counter, Registry, TelemetryReport, Timeline, TimelineReport};
use enviromic_types::{audio, Bytes, MsgKind, NodeId, Position, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

/// Internal queue payloads.
#[derive(Debug)]
enum Ev {
    Timer {
        node: NodeId,
        handle: u64,
        token: u32,
    },
    Deliver {
        to: NodeId,
        from: NodeId,
        bytes: Bytes,
    },
    AcousticTick,
    AudioBlock {
        node: NodeId,
        session: u64,
    },
    OccupancyPoll,
    /// Periodic timeline sample. Scheduled before the world runs and
    /// self-rescheduling, so — like fault actions — it holds fixed queue
    /// sequence numbers and only shifts later events' sequence numbers
    /// uniformly, never their relative order. The handler is read-only
    /// with respect to nodes, RNG streams, and the trace.
    TimelineSample,
    SourceMark {
        source: crate::acoustics::SourceId,
        /// Index into [`AcousticField::sources`], fixed at scheduling time.
        index: u32,
        started: bool,
    },
    Fault(FaultAction),
}

/// A scheduled fault, resolved from a [`FaultPlan`] at injection time.
/// Window faults split into start/end actions; scopes resolve against the
/// (immutable) node positions when the action fires.
#[derive(Debug)]
enum FaultAction {
    Crash { node: NodeId },
    Reboot { node: NodeId },
    BlackoutStart { scope: FaultScope },
    BlackoutEnd { scope: FaultScope },
    DegradeStart { loss_prob: f64 },
    DegradeEnd { loss_prob: f64 },
    BadBlock { node: NodeId, block: u32 },
}

/// Per-node physical state, laid out struct-of-arrays.
///
/// The fields the event loop touches on every dispatch — liveness, radio
/// and blackout state, the recording session, and the battery — live in
/// their own dense parallel arrays, so a 10k-node world walks contiguous
/// cache lines instead of striding over 100+-byte slots (the two `SmallRng`
/// streams alone dominate an array-of-structs layout). The cold per-node
/// parameters (clock skew, mic gain, RNG streams) sit in their own arrays
/// at the end where the hot paths never pull them in.
///
/// All arrays are indexed by `NodeId::index()` and grow together in
/// [`NodeStates::push`]; nothing is ever removed, so they stay parallel.
#[derive(Debug, Default)]
struct NodeStates {
    // Hot: touched by delivery, energy integration, and level sampling.
    pos: Vec<Position>,
    alive: Vec<bool>,
    radio_on: Vec<bool>,
    /// Number of active radio blackouts covering each node (overlapping
    /// windows nest); the radio is dead while this is non-zero.
    blackout_depth: Vec<u32>,
    /// Active recording session, if sampling.
    session: Vec<Option<ActiveSession>>,
    energy_mj: Vec<f64>,
    last_energy_update: Vec<SimTime>,
    // Cold: fixed per-node parameters and private RNG streams.
    /// Local clock skew as a ratio multiplier (1.0 = perfect).
    skew: Vec<f64>,
    /// Fixed microphone gain multiplier (1.0 = nominal).
    mic_gain: Vec<f64>,
    /// Local clock offset in jiffies (non-negative).
    offset_jiffies: Vec<u64>,
    rng: Vec<SmallRng>,
    audio_rng: Vec<SmallRng>,
}

impl NodeStates {
    fn len(&self) -> usize {
        self.pos.len()
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        pos: Position,
        skew: f64,
        mic_gain: f64,
        offset_jiffies: u64,
        energy_mj: f64,
        rng: SmallRng,
        audio_rng: SmallRng,
    ) {
        self.pos.push(pos);
        self.alive.push(true);
        self.radio_on.push(true);
        self.blackout_depth.push(0);
        self.session.push(None);
        self.energy_mj.push(energy_mj);
        self.last_energy_update.push(SimTime::ZERO);
        self.skew.push(skew);
        self.mic_gain.push(mic_gain);
        self.offset_jiffies.push(offset_jiffies);
        self.rng.push(rng);
        self.audio_rng.push(audio_rng);
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveSession {
    id: u64,
    block_start: SimTime,
}

/// Telemetry handles pre-resolved once so the hot event loop never does
/// a by-name registry lookup.
#[derive(Debug)]
struct SimMetrics {
    packets_sent: Counter,
    packets_delivered: Counter,
    packets_lost: Counter,
    packets_blocked_rx: Counter,
    /// Receiver candidates examined by delivery (grid-filtered, so dead
    /// and out-of-neighborhood nodes never count here).
    delivery_candidates: Counter,
    timers_fired: Counter,
    faults_injected: Counter,
    timeline_samples: Counter,
}

impl SimMetrics {
    fn new(reg: &Registry) -> Self {
        SimMetrics {
            packets_sent: reg.counter("sim.packets.sent"),
            packets_delivered: reg.counter("sim.packets.delivered"),
            packets_lost: reg.counter("sim.packets.lost"),
            packets_blocked_rx: reg.counter("sim.packets.blocked_rx"),
            delivery_candidates: reg.counter("sim.delivery.candidates"),
            timers_fired: reg.counter("sim.timers.fired"),
            faults_injected: reg.counter("sim.faults.injected"),
            timeline_samples: reg.counter("sim.timeline.samples"),
        }
    }
}

/// Everything in the world except the applications themselves; the
/// [`Context`] handed to application callbacks is a view into this.
#[derive(Debug)]
struct Inner {
    cfg: WorldConfig,
    streams: RngStreams,
    queue: EventQueue<Ev>,
    now: SimTime,
    field: AcousticField,
    nodes: NodeStates,
    trace: Trace,
    cancelled: HashSet<u64>,
    next_timer_handle: u64,
    next_session: u64,
    medium_rng: SmallRng,
    telemetry: Registry,
    metrics: SimMetrics,
    /// Uniform-grid index over alive node positions; empty until the
    /// world starts (nodes are fixed by then), evicted on node death.
    grid: NodeGrid,
    /// Per-node candidate source sets; empty until the world starts.
    audible: AudibleIndex,
    /// Scratch for delivery candidate indices (reused across broadcasts so
    /// the hot loop never allocates).
    deliver_scratch: Vec<u32>,
    /// Scratch for per-block candidate source indices.
    block_sources: Vec<u32>,
    /// Scratch for per-block pre-drawn ambient noise samples.
    noise_scratch: Vec<f64>,
    /// Reusable buffers of the batch synthesis kernel.
    mix_scratch: MixScratch,
    /// Sources whose stop has passed, awaiting candidate-entry retirement
    /// once no in-flight audio block can still overlap their lifetime
    /// (`(source index, earliest safe retirement instant)`).
    pending_retires: Vec<(u32, SimTime)>,
    /// Loss probabilities of the currently active link-degrade faults; the
    /// effective loss is the max of these and the configured base loss.
    /// Empty in fault-free runs, so the baseline loss draw is untouched.
    active_degrades: Vec<f64>,
}

/// The simulated world.
///
/// Build one with [`World::new`], add nodes ([`World::add_node`]) and
/// acoustic sources ([`World::add_source`]), then advance time with
/// [`World::run_until`]. Afterwards, read results from the [`Trace`]
/// ([`World::trace`]) or inspect node state via [`World::app_as`].
pub struct World {
    inner: Inner,
    /// One application per node, indexed by `NodeId::index()`. Kept apart
    /// from `inner` so a callback borrows its app and the [`Context`] over
    /// `inner` disjointly; a callback cannot reach `apps` at all.
    apps: Vec<Box<dyn Application>>,
    started: bool,
    /// Events popped off the queue and dispatched so far — the
    /// denominator of ns/event throughput measurements.
    dispatched: u64,
    /// Sim-time metric recorder, present when
    /// [`WorldConfig::timeline_sample_period`] is set. Lives on `World`
    /// (not `Inner`) so the sampler can borrow it alongside `inner` and
    /// `apps` disjointly.
    timeline: Option<Timeline>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.inner.now)
            .field("nodes", &self.inner.nodes.len())
            .field("pending_events", &self.inner.queue.len())
            .finish()
    }
}

impl World {
    /// Creates an empty world.
    #[must_use]
    pub fn new(cfg: WorldConfig) -> Self {
        let streams = RngStreams::new(cfg.seed);
        let medium_rng = streams.stream("medium", 0);
        let telemetry = Registry::new();
        let metrics = SimMetrics::new(&telemetry);
        let timeline = cfg
            .timeline_sample_period
            .map(|p| Timeline::new(p.as_secs_f64()));
        let trace = if cfg.keep_trace_records {
            Trace::new()
        } else {
            Trace::digest_only()
        };
        World {
            inner: Inner {
                cfg,
                streams,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                field: AcousticField::new(),
                nodes: NodeStates::default(),
                trace,
                cancelled: HashSet::new(),
                next_timer_handle: 0,
                next_session: 0,
                medium_rng,
                telemetry,
                metrics,
                grid: NodeGrid::build(&[], &[], 0.0),
                audible: AudibleIndex::default(),
                deliver_scratch: Vec::new(),
                block_sources: Vec::new(),
                noise_scratch: Vec::new(),
                mix_scratch: MixScratch::new(),
                pending_retires: Vec::new(),
                active_degrades: Vec::new(),
            },
            apps: Vec::new(),
            started: false,
            dispatched: 0,
            timeline,
        }
    }

    /// Adds a node at `pos` running `app`. Returns its [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running, or if
    /// more than `u32::MAX` nodes are added.
    pub fn add_node(&mut self, pos: Position, app: Box<dyn Application>) -> NodeId {
        assert!(!self.started, "nodes must be added before the world runs");
        let idx = self.inner.nodes.len();
        let id = NodeId::from_index(idx);
        let mut clock_rng = self.inner.streams.stream("clock", idx as u64);
        let ppm = self.inner.cfg.clock.max_skew_ppm;
        let skew = 1.0 + clock_rng.gen_range(-ppm..=ppm) * 1e-6;
        let max_off = self.inner.cfg.clock.max_offset.as_jiffies();
        let offset_jiffies = if max_off == 0 {
            0
        } else {
            clock_rng.gen_range(0..=max_off)
        };
        let gain_spread = self.inner.cfg.acoustics.mic_gain_spread;
        let mic_gain = if gain_spread > 0.0 {
            let mut mic_rng = self.inner.streams.stream("mic-gain", idx as u64);
            1.0 + mic_rng.gen_range(-gain_spread..=gain_spread)
        } else {
            1.0
        };
        let rng = self.inner.streams.stream("node", idx as u64);
        let audio_rng = self.inner.streams.stream("audio", idx as u64);
        self.inner.nodes.push(
            pos,
            skew,
            mic_gain,
            offset_jiffies,
            self.inner.cfg.energy.battery_mj,
            rng,
            audio_rng,
        );
        self.apps.push(app);
        id
    }

    /// Adds a ground-truth acoustic source.
    ///
    /// # Errors
    ///
    /// Propagates [`SourceSpec::validate`] failures, and rejects a source
    /// that would start before the current simulation time.
    pub fn add_source(&mut self, spec: SourceSpec) -> Result<(), String> {
        // Validate before scheduling: a rejected spec must not leave its
        // start/stop marks on the queue.
        spec.validate()?;
        if spec.start < self.inner.now {
            return Err(format!(
                "source {} starts at {:.3} s, before the world clock ({:.3} s)",
                spec.id,
                spec.start.as_secs_f64(),
                self.inner.now.as_secs_f64()
            ));
        }
        let index = self.inner.field.sources().len() as u32;
        self.inner.queue.schedule(
            spec.start,
            Ev::SourceMark {
                source: spec.id,
                index,
                started: true,
            },
        );
        self.inner.queue.schedule(
            spec.stop,
            Ev::SourceMark {
                source: spec.id,
                index,
                started: false,
            },
        );
        // A world that is already running patches the live audible index
        // instead of rebuilding it (sources added before the world starts
        // are folded in by the from-scratch build at startup).
        if self.started {
            self.inner
                .audible
                .add_source(&self.inner.nodes.pos, index, &spec);
        }
        self.inner.field.add_source(spec)
    }

    /// Schedules every fault in `plan` on the event queue.
    ///
    /// Call after the last [`World::add_node`] and before the first
    /// [`World::run_until`]: fault actions then hold fixed queue sequence
    /// numbers, which is what keeps per-seed traces bit-identical no
    /// matter how many sweep workers run alongside. Injecting an empty
    /// plan schedules nothing and leaves the run byte-for-byte identical
    /// to one without fault injection.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] failures (no faults are
    /// scheduled then).
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), String> {
        assert!(
            !self.started,
            "faults must be injected before the world runs"
        );
        plan.validate(self.inner.nodes.len())?;
        for e in plan.events() {
            match *e {
                FaultEvent::NodeCrash { at, node } => {
                    self.inner
                        .queue
                        .schedule(at, Ev::Fault(FaultAction::Crash { node }));
                }
                FaultEvent::NodeReboot { at, node } => {
                    self.inner
                        .queue
                        .schedule(at, Ev::Fault(FaultAction::Reboot { node }));
                }
                FaultEvent::RadioBlackout { from, until, scope } => {
                    self.inner
                        .queue
                        .schedule(from, Ev::Fault(FaultAction::BlackoutStart { scope }));
                    self.inner
                        .queue
                        .schedule(until, Ev::Fault(FaultAction::BlackoutEnd { scope }));
                }
                FaultEvent::LinkDegrade {
                    from,
                    until,
                    loss_prob,
                } => {
                    self.inner
                        .queue
                        .schedule(from, Ev::Fault(FaultAction::DegradeStart { loss_prob }));
                    self.inner
                        .queue
                        .schedule(until, Ev::Fault(FaultAction::DegradeEnd { loss_prob }));
                }
                FaultEvent::FlashBadBlock { at, node, block } => {
                    self.inner
                        .queue
                        .schedule(at, Ev::Fault(FaultAction::BadBlock { node, block }));
                }
            }
        }
        Ok(())
    }

    /// Number of nodes in the world.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Deployment position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added to this world.
    #[must_use]
    pub fn position_of(&self, node: NodeId) -> Position {
        self.inner.nodes.pos[node.index()]
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The accumulated trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// Consumes the world and returns its trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.inner.trace
    }

    /// The world's telemetry registry. Applications reach it through
    /// [`Runtime::telemetry`]; harnesses clone it to add run-level
    /// metrics alongside the simulation's own.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.inner.telemetry
    }

    /// Consumes the world and returns its trace together with a final
    /// telemetry snapshot.
    #[must_use]
    pub fn into_parts(self) -> (Trace, TelemetryReport) {
        let report = self.inner.telemetry.report();
        (self.inner.trace, report)
    }

    /// Invokes every application's [`Application::on_finish`] hook so
    /// protocols can export end-of-run statistics (flash wear, final
    /// protocol state) into the telemetry registry. Dead nodes get the
    /// callback too — their accumulated state is still of interest.
    ///
    /// Call at most once, after the last [`World::run_until`].
    pub fn finish(&mut self) {
        self.ensure_started();
        for (idx, app) in self.apps.iter_mut().enumerate() {
            let node = NodeId::from_index(idx);
            self.inner.integrate_energy(node);
            app.on_finish(&mut Context {
                inner: &mut self.inner,
                node,
            });
        }
    }

    /// Remaining battery energy of `node`, in millijoules (integrated up to
    /// the current instant).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added to this world.
    #[must_use]
    pub fn energy_of(&mut self, node: NodeId) -> f64 {
        self.inner.integrate_energy(node);
        self.inner.nodes.energy_mj[node.index()]
    }

    /// Borrows the application running on `node`, downcast to `T`.
    ///
    /// Returns `None` when the node's application is not a `T`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added to this world.
    #[must_use]
    pub fn app_as<T: Application + 'static>(&self, node: NodeId) -> Option<&T> {
        self.apps[node.index()].as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the application running on `node`, downcast to `T`.
    ///
    /// Returns `None` when the node's application is not a `T`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added to this world.
    #[must_use]
    pub fn app_as_mut<T: Application + 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.apps[node.index()].as_any_mut().downcast_mut::<T>()
    }

    /// Runs the simulation until the clock reaches `t_end` (inclusive of
    /// events scheduled exactly at `t_end`).
    pub fn run_until(&mut self, t_end: SimTime) {
        self.ensure_started();
        while let Some(at) = self.inner.queue.peek_time() {
            if at > t_end {
                break;
            }
            let (at, ev) = self.inner.queue.pop().expect("peeked entry vanished");
            self.inner.now = at;
            self.dispatched += 1;
            self.dispatch(ev);
        }
        self.inner.now = t_end.max(self.inner.now);
    }

    /// Total events popped off the queue and dispatched so far. Purely
    /// observational — the denominator of ns/event throughput rows.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Runs until `secs` seconds of simulated time have elapsed.
    pub fn run_for_secs(&mut self, secs: f64) {
        let t = self.inner.now + SimDuration::from_secs_f64(secs);
        self.run_until(t);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.inner.build_spatial_index();
        // Start the acoustic level ticker, the occupancy poller, and the
        // timeline sampler.
        self.inner.queue.schedule(SimTime::ZERO, Ev::AcousticTick);
        if self.inner.cfg.occupancy_snapshot_period.is_some() {
            self.inner.queue.schedule(SimTime::ZERO, Ev::OccupancyPoll);
        }
        if self.inner.cfg.timeline_sample_period.is_some() {
            self.inner.queue.schedule(SimTime::ZERO, Ev::TimelineSample);
        }
        for idx in 0..self.apps.len() {
            let node = NodeId::from_index(idx);
            self.with_app(node, |app, ctx| app.on_start(ctx));
        }
    }

    fn with_app(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Application, &mut dyn Runtime)) {
        // Settle battery drain before every callback so a node that ran out
        // of energy since its last activity is dead *before* it acts.
        self.inner.integrate_energy(node);
        if !self.inner.nodes.alive[node.index()] {
            return;
        }
        f(
            self.apps[node.index()].as_mut(),
            &mut Context {
                inner: &mut self.inner,
                node,
            },
        );
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Timer {
                node,
                handle,
                token,
            } => {
                if self.inner.cancelled.remove(&handle) {
                    return;
                }
                self.inner.metrics.timers_fired.inc();
                self.with_app(node, |app, ctx| {
                    app.on_timer(
                        ctx,
                        Timer {
                            handle: TimerHandle(handle),
                            token,
                        },
                    );
                });
            }
            Ev::Deliver { to, from, bytes } => {
                let nodes = &self.inner.nodes;
                let idx = to.index();
                if !nodes.alive[idx]
                    || !nodes.radio_on[idx]
                    || nodes.session[idx].is_some()
                    || nodes.blackout_depth[idx] > 0
                {
                    // Radio off, CPU saturated by sampling, or a blackout
                    // fault covers the receiver: the packet is lost to it.
                    self.inner.metrics.packets_blocked_rx.inc();
                    return;
                }
                self.inner.metrics.packets_delivered.inc();
                self.with_app(to, |app, ctx| app.on_packet(ctx, from, &bytes));
            }
            Ev::AcousticTick => {
                let period = self.inner.cfg.acoustics.level_update_period;
                let next = self.inner.now + period;
                self.inner.queue.schedule(next, Ev::AcousticTick);
                self.inner.flush_retired_sources();
                for idx in 0..self.apps.len() {
                    let node = NodeId::from_index(idx);
                    let level = self.inner.sample_level(node);
                    self.with_app(node, |app, ctx| app.on_acoustic_level(ctx, level));
                }
            }
            Ev::AudioBlock { node, session } => {
                let idx = node.index();
                if !self.inner.nodes.alive[idx] {
                    return;
                }
                let Some(active) = self.inner.nodes.session[idx] else {
                    return;
                };
                if active.id != session {
                    return;
                }
                let t0 = active.block_start;
                let t1 = self.inner.now;
                let block = self.inner.synthesize_block(node, t0, t1);
                // Advance the session to the next block before the app runs.
                let next_end = t1 + audio::chunk_duration();
                self.inner.nodes.session[idx] = Some(ActiveSession {
                    id: session,
                    block_start: t1,
                });
                self.inner
                    .queue
                    .schedule(next_end, Ev::AudioBlock { node, session });
                self.with_app(node, |app, ctx| app.on_audio_block(ctx, block));
            }
            Ev::OccupancyPoll => {
                if let Some(period) = self.inner.cfg.occupancy_snapshot_period {
                    let next = self.inner.now + period;
                    self.inner.queue.schedule(next, Ev::OccupancyPoll);
                }
                let t = self.inner.now;
                for (idx, app) in self.apps.iter().enumerate() {
                    if let Some(occ) = app.poll_occupancy() {
                        self.inner.trace.push(TraceEvent::Occupancy {
                            node: NodeId::from_index(idx),
                            used: occ.used,
                            capacity: occ.capacity,
                            t,
                        });
                    }
                }
            }
            Ev::TimelineSample => {
                if let Some(period) = self.inner.cfg.timeline_sample_period {
                    let next = self.inner.now + period;
                    self.inner.queue.schedule(next, Ev::TimelineSample);
                }
                self.sample_timeline();
            }
            Ev::SourceMark {
                source,
                index,
                started,
            } => {
                let t = self.inner.now;
                self.inner.trace.push(if started {
                    TraceEvent::SourceStarted { source, t }
                } else {
                    TraceEvent::SourceStopped { source, t }
                });
                if !started {
                    // The source's candidate entries must outlive any
                    // in-flight audio block that can still overlap its
                    // lifetime: a block synthesized at time τ covers at
                    // most [τ − chunk_duration, τ), and its per-sample
                    // jiffy quantization can slip one jiffy below the
                    // block start. Two chunk durations past the stop,
                    // every later block lies strictly past the stop even
                    // after that slip, so the source mixes an exact 0.0
                    // and retiring it is digest-neutral. The retirement
                    // itself rides the existing AcousticTick (scheduling
                    // a dedicated event would shift every later queue
                    // sequence number and change the digests).
                    let safe_at = t + audio::chunk_duration() + audio::chunk_duration();
                    self.inner.pending_retires.push((index, safe_at));
                }
            }
            Ev::Fault(action) => self.apply_fault(action),
        }
    }

    /// Takes one timeline sample: every registered counter and gauge,
    /// plus the per-node probe series.
    ///
    /// Determinism: this observes only — it consumes no RNG stream,
    /// emits no trace records, and mutates no node state (battery levels
    /// are *peeked*, not integrated, so no node can die here earlier than
    /// it otherwise would). The trace digest is therefore bit-identical
    /// with the timeline on or off, at any cadence.
    fn sample_timeline(&mut self) {
        let Some(tl) = &mut self.timeline else { return };
        self.inner.metrics.timeline_samples.inc();
        tl.sample(self.inner.now.as_secs_f64(), &self.inner.telemetry.report());
        for (idx, app) in self.apps.iter().enumerate() {
            tl.record(
                &format!("node.{idx}.energy_mj"),
                self.inner.peek_energy(idx),
            );
            tl.record(
                &format!("node.{idx}.alive"),
                if self.inner.nodes.alive[idx] {
                    1.0
                } else {
                    0.0
                },
            );
            if let Some(probe) = app.poll_probe() {
                let frac = if probe.occupancy.capacity == 0 {
                    0.0
                } else {
                    probe.occupancy.used as f64 / probe.occupancy.capacity as f64
                };
                tl.record(&format!("node.{idx}.occupancy"), frac);
                tl.record(&format!("node.{idx}.chunks"), f64::from(probe.chunks));
                tl.record(&format!("node.{idx}.role"), probe.role.as_level());
            }
        }
    }

    /// A snapshot of the sim-time timeline recorded so far; `None` unless
    /// [`WorldConfig::timeline_sample_period`] is set.
    #[must_use]
    pub fn timeline_report(&self) -> Option<TimelineReport> {
        self.timeline.as_ref().map(Timeline::report)
    }

    /// Applies one scheduled fault. The `FaultInjected` marker is emitted
    /// unconditionally (the fault *fired*); the state change itself may be
    /// a no-op (e.g. rebooting a node that never crashed).
    fn apply_fault(&mut self, action: FaultAction) {
        let t = self.inner.now;
        self.inner.metrics.faults_injected.inc();
        let mark = |inner: &mut Inner, kind: FaultKind, node: Option<NodeId>| {
            inner
                .trace
                .push(TraceEvent::FaultInjected { kind, node, t });
        };
        match action {
            FaultAction::Crash { node } => {
                mark(&mut self.inner, FaultKind::Crash, Some(node));
                self.inner.crash(node);
            }
            FaultAction::Reboot { node } => {
                mark(&mut self.inner, FaultKind::Reboot, Some(node));
                if self.inner.reboot(node) {
                    self.with_app(node, |app, ctx| app.on_reboot(ctx));
                }
            }
            FaultAction::BlackoutStart { scope } => {
                mark(&mut self.inner, FaultKind::BlackoutStart, scope_node(scope));
                self.inner.set_blackout(scope, true);
            }
            FaultAction::BlackoutEnd { scope } => {
                mark(&mut self.inner, FaultKind::BlackoutEnd, scope_node(scope));
                self.inner.set_blackout(scope, false);
            }
            FaultAction::DegradeStart { loss_prob } => {
                mark(&mut self.inner, FaultKind::DegradeStart, None);
                self.inner.active_degrades.push(loss_prob);
            }
            FaultAction::DegradeEnd { loss_prob } => {
                mark(&mut self.inner, FaultKind::DegradeEnd, None);
                if let Some(i) = self
                    .inner
                    .active_degrades
                    .iter()
                    .position(|&l| l == loss_prob)
                {
                    self.inner.active_degrades.swap_remove(i);
                }
            }
            FaultAction::BadBlock { node, block } => {
                mark(&mut self.inner, FaultKind::FlashBadBlock, Some(node));
                self.with_app(node, |app, ctx| app.on_flash_bad_block(ctx, block));
            }
        }
    }
}

/// The node a scope names, for the trace marker (region and all-node
/// scopes mark no single node).
fn scope_node(scope: FaultScope) -> Option<NodeId> {
    match scope {
        FaultScope::Node(n) => Some(n),
        FaultScope::All | FaultScope::Region { .. } => None,
    }
}

impl Inner {
    /// Builds the spatial indexes once node and source sets are final
    /// (called when the world starts).
    fn build_spatial_index(&mut self) {
        self.grid = NodeGrid::build(&self.nodes.pos, &self.nodes.alive, self.cfg.radio.range_ft);
        self.audible = AudibleIndex::build(&self.nodes.pos, self.field.sources());
    }

    /// Marks `node` dead in its slot and evicts it from the spatial
    /// indexes so delivery never examines it again. Battery death is
    /// permanent ([`Inner::reboot`] refuses an empty battery), so the
    /// node's audible candidates go too: its levels are still *sampled*
    /// each tick (the RNG draw must survive — see `sample_level`) but
    /// never observed, so the cleared list is digest-neutral and the
    /// window scan stops paying for a corpse. Crash faults keep the
    /// entries — a rebooted node needs them.
    fn kill(&mut self, node: NodeId) {
        let idx = node.index();
        self.nodes.energy_mj[idx] = 0.0;
        self.nodes.alive[idx] = false;
        self.nodes.radio_on[idx] = false;
        self.nodes.session[idx] = None;
        self.grid.remove(idx);
        self.audible.clear_node(idx);
    }

    /// Retires stopped sources whose grace window has fully passed.
    /// Runs on every acoustic tick; cheap when nothing is pending.
    fn flush_retired_sources(&mut self) {
        if self.pending_retires.is_empty() {
            return;
        }
        let now = self.now;
        let audible = &mut self.audible;
        self.pending_retires.retain(|&(source, safe_at)| {
            if now >= safe_at {
                audible.retire_source(source);
                false
            } else {
                true
            }
        });
    }

    /// Halts `node` without draining its battery (fault injection): RAM
    /// and radio state are lost, flash survives inside the application.
    /// Unlike [`Inner::kill`], the remaining energy is preserved so the
    /// node can reboot later. No-op on an already-dead node.
    fn crash(&mut self, node: NodeId) {
        self.integrate_energy(node);
        let idx = node.index();
        if !self.nodes.alive[idx] {
            return;
        }
        self.nodes.alive[idx] = false;
        self.nodes.radio_on[idx] = false;
        self.nodes.session[idx] = None;
        self.grid.remove(idx);
    }

    /// Rejoins a crashed node: volatile physical state resets, the spatial
    /// index re-admits it, and no battery drain accrues for the downtime.
    /// Returns false (no-op) when the node is alive or out of energy.
    fn reboot(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        if self.nodes.alive[idx] || self.nodes.energy_mj[idx] <= 0.0 {
            return false;
        }
        self.nodes.alive[idx] = true;
        self.nodes.radio_on[idx] = true;
        self.nodes.session[idx] = None;
        self.nodes.last_energy_update[idx] = self.now;
        self.grid.insert(idx);
        true
    }

    /// Raises (`start`) or lowers the blackout depth of every node the
    /// scope covers. Positions are fixed, so region membership is static.
    fn set_blackout(&mut self, scope: FaultScope, start: bool) {
        for idx in 0..self.nodes.len() {
            let pos = self.nodes.pos[idx];
            if scope.covers(NodeId::from_index(idx), pos) {
                let depth = &mut self.nodes.blackout_depth[idx];
                *depth = if start {
                    *depth + 1
                } else {
                    depth.saturating_sub(1)
                };
            }
        }
    }

    /// Integrates battery drain for `node` up to the current instant.
    fn integrate_energy(&mut self, node: NodeId) {
        let e = &self.cfg.energy;
        let idx = node.index();
        let elapsed = self
            .now
            .saturating_since(self.nodes.last_energy_update[idx]);
        self.nodes.last_energy_update[idx] = self.now;
        if !self.nodes.alive[idx] || elapsed.is_zero() {
            return;
        }
        let secs = elapsed.as_secs_f64();
        let mut mw = e.idle_mw;
        if self.nodes.radio_on[idx] {
            mw += e.radio_listen_mw;
        }
        if self.nodes.session[idx].is_some() {
            mw += e.sampling_mw;
        }
        self.nodes.energy_mj[idx] -= mw * secs;
        if self.nodes.energy_mj[idx] <= 0.0 {
            self.kill(node);
        }
    }

    /// Remaining battery of node `idx` as of now, *without* mutating any
    /// state: unlike [`Inner::integrate_energy`] it neither advances
    /// `last_energy_update` nor kills an exhausted node — the timeline
    /// sampler must not make a node die earlier than the event that would
    /// have settled its drain. Floored at zero.
    fn peek_energy(&self, idx: usize) -> f64 {
        if !self.nodes.alive[idx] {
            return self.nodes.energy_mj[idx].max(0.0);
        }
        let secs = self
            .now
            .saturating_since(self.nodes.last_energy_update[idx])
            .as_secs_f64();
        let e = &self.cfg.energy;
        let mut mw = e.idle_mw;
        if self.nodes.radio_on[idx] {
            mw += e.radio_listen_mw;
        }
        if self.nodes.session[idx].is_some() {
            mw += e.sampling_mw;
        }
        (self.nodes.energy_mj[idx] - mw * secs).max(0.0)
    }

    /// Charges a one-off energy cost to `node`.
    fn charge(&mut self, node: NodeId, mj: f64) {
        self.integrate_energy(node);
        let idx = node.index();
        if !self.nodes.alive[idx] {
            return;
        }
        self.nodes.energy_mj[idx] -= mj;
        if self.nodes.energy_mj[idx] <= 0.0 {
            self.kill(node);
        }
    }

    /// The microphone level node currently perceives: field peak plus
    /// ambient noise. The audible index shrinks the source scan; its
    /// result is bit-identical to the full [`AcousticField::peak_level`].
    fn sample_level(&mut self, node: NodeId) -> f64 {
        let idx = node.index();
        let pos = self.nodes.pos[idx];
        let gain = self.nodes.mic_gain[idx];
        let peak = self.audible.peak_level(&self.field, idx, pos, self.now) * gain;
        let a = &self.cfg.acoustics;
        let noise =
            self.nodes.rng[idx].gen_range(-2.0 * a.background_sigma..=2.0 * a.background_sigma);
        (a.background_level + noise + peak).clamp(0.0, 255.0)
    }

    /// Synthesizes the audio a node heard over `[t0, t1)`.
    ///
    /// The candidate sources for the whole block are resolved once into a
    /// reused scratch buffer, so the per-sample loop touches only sources
    /// that can actually be heard and never allocates.
    fn synthesize_block(&mut self, node: NodeId, t0: SimTime, t1: SimTime) -> AudioBlock {
        let idx = node.index();
        let span_s = t1.saturating_since(t0).as_secs_f64();
        let n = ((span_s * audio::SAMPLE_RATE_HZ as f64).round() as usize)
            .min(audio::SAMPLES_PER_CHUNK as usize);
        let sigma = self.cfg.acoustics.background_sigma;
        let t0_s = t0.as_secs_f64();
        let Inner {
            nodes,
            field,
            audible,
            block_sources,
            noise_scratch,
            mix_scratch,
            ..
        } = self;
        audible.block_sources(idx, t0, t1, block_sources);
        let pos = nodes.pos[idx];
        let audio_rng = &mut nodes.audio_rng[idx];
        // Draw the ambient noise per sample in ascending order up front —
        // the audio_rng sequence is exactly the old per-sample loop's —
        // then hand the whole block to the batch kernel.
        noise_scratch.clear();
        noise_scratch.extend((0..n).map(|_| audio_rng.gen_range(-2.0 * sigma..=2.0 * sigma)));
        let mut samples = Vec::new();
        field.synthesize_batch(
            block_sources,
            pos,
            t0_s,
            noise_scratch,
            mix_scratch,
            &mut samples,
        );
        AudioBlock { t0, t1, samples }
    }

    fn local_time(&self, node: NodeId) -> SimTime {
        let idx = node.index();
        let local = self.now.as_jiffies() as f64 * self.nodes.skew[idx]
            + self.nodes.offset_jiffies[idx] as f64;
        SimTime::from_jiffies(local.round() as u64)
    }
}

/// The per-callback view a node application gets of the world: the
/// simulator's implementation of [`Runtime`].
///
/// All side effects a protocol can have — timers, radio, sampling, energy,
/// tracing — go through the trait; applications only ever see it as
/// `&mut dyn Runtime`.
pub struct Context<'a> {
    inner: &'a mut Inner,
    node: NodeId,
}

impl std::fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("node", &self.node)
            .field("now", &self.inner.now)
            .finish()
    }
}

impl Runtime for Context<'_> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.inner.now
    }

    fn local_time(&self) -> SimTime {
        self.inner.local_time(self.node)
    }

    fn position(&self) -> Position {
        self.inner.nodes.pos[self.node.index()]
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.inner.nodes.rng[self.node.index()]
    }

    fn set_timer(&mut self, delay: SimDuration, token: u32) -> TimerHandle {
        let handle = self.inner.next_timer_handle;
        self.inner.next_timer_handle += 1;
        self.inner.queue.schedule(
            self.inner.now + delay,
            Ev::Timer {
                node: self.node,
                handle,
                token,
            },
        );
        TimerHandle(handle)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) {
        self.inner.cancelled.insert(handle.0);
    }

    fn set_radio(&mut self, on: bool) {
        self.inner.integrate_energy(self.node);
        self.inner.nodes.radio_on[self.node.index()] = on;
    }

    fn radio_is_on(&self) -> bool {
        self.inner.nodes.radio_on[self.node.index()]
    }

    // `kind` is a `MsgKind` label recorded in the trace (the message census
    // of Fig. 12 is computed from it).
    fn broadcast(&mut self, kind: &'static str, bytes: Bytes) -> bool {
        let idx = self.node.index();
        if !self.inner.nodes.alive[idx] || !self.inner.nodes.radio_on[idx] {
            return false;
        }
        let r = &self.inner.cfg.radio;
        let airtime_s = (bytes.len() as f64 * 8.0) / r.bitrate_bps as f64;
        let airtime = SimDuration::from_secs_f64(airtime_s);
        let mac = {
            let max = r.mac_delay_max.as_jiffies();
            let d = if max == 0 {
                0
            } else {
                self.inner.medium_rng.gen_range(0..=max)
            };
            SimDuration::from_jiffies(d)
        };
        let deliver_at = self.inner.now + mac + airtime + r.per_hop_latency;
        self.inner.metrics.packets_sent.inc();
        self.inner.trace.push(TraceEvent::MessageSent {
            node: self.node,
            kind: MsgKind::from_label(kind).expect("broadcast kind is a MsgKind label"),
            bytes: bytes.len() as u32,
            t: self.inner.now,
        });
        // TX energy for the airtime.
        let tx_mj = self.inner.cfg.energy.radio_tx_mw * airtime_s;
        self.inner.charge(self.node, tx_mj);

        let sender_pos = self.inner.nodes.pos[self.node.index()];
        let range = self.inner.cfg.radio.range_ft;
        // Fault overlays on the configured loss: a blackout covering the
        // sender makes every delivery fail (loss 1.0, and gen::<f64>() is
        // strictly below 1.0, so the draw always loses); active link
        // degrades raise the loss to their maximum. Fault-free runs take
        // the configured value untouched, so the medium RNG consumes the
        // exact baseline sequence (the golden-digest invariant).
        let base = self.inner.cfg.radio.loss_prob;
        let degraded = self
            .inner
            .active_degrades
            .iter()
            .fold(base, |acc, &l| acc.max(l));
        let loss = if self.inner.nodes.blackout_depth[self.node.index()] > 0 {
            1.0
        } else {
            degraded
        };
        // Spatial index: only the 3×3 cell neighborhood of the sender is
        // examined instead of every node. Candidates come back sorted by
        // node index *before* any loss draw, so `medium_rng` consumes
        // exactly the same sequence as the old full scan (the golden-digest
        // invariant). The scratch Vec is reused across broadcasts.
        let mut cand = std::mem::take(&mut self.inner.deliver_scratch);
        self.inner.grid.query_sorted(sender_pos, range, &mut cand);
        for &idx in &cand {
            let idx = idx as usize;
            if idx == self.node.index() {
                continue;
            }
            debug_assert!(self.inner.nodes.alive[idx], "dead node in spatial index");
            self.inner.metrics.delivery_candidates.inc();
            if loss > 0.0 && self.inner.medium_rng.gen::<f64>() < loss {
                self.inner.metrics.packets_lost.inc();
                continue;
            }
            self.inner.queue.schedule(
                deliver_at,
                Ev::Deliver {
                    to: NodeId::from_index(idx),
                    from: self.node,
                    bytes: bytes.clone(),
                },
            );
        }
        self.inner.deliver_scratch = cand;
        true
    }

    fn start_recording(&mut self) -> bool {
        self.inner.integrate_energy(self.node);
        let idx = self.node.index();
        if !self.inner.nodes.alive[idx] || self.inner.nodes.session[idx].is_some() {
            return false;
        }
        let id = self.inner.next_session;
        self.inner.next_session += 1;
        self.inner.nodes.session[idx] = Some(ActiveSession {
            id,
            block_start: self.inner.now,
        });
        self.inner.queue.schedule(
            self.inner.now + audio::chunk_duration(),
            Ev::AudioBlock {
                node: self.node,
                session: id,
            },
        );
        true
    }

    fn is_recording(&self) -> bool {
        self.inner.nodes.session[self.node.index()].is_some()
    }

    fn stop_recording(&mut self) -> Option<AudioBlock> {
        self.inner.integrate_energy(self.node);
        let active = self.inner.nodes.session[self.node.index()].take()?;
        let t0 = active.block_start;
        let t1 = self.inner.now;
        if t1 <= t0 {
            return None;
        }
        Some(self.inner.synthesize_block(self.node, t0, t1))
    }

    fn current_acoustic_level(&mut self) -> f64 {
        self.inner.sample_level(self.node)
    }

    fn energy_mj(&mut self) -> f64 {
        self.inner.integrate_energy(self.node);
        self.inner.nodes.energy_mj[self.node.index()]
    }

    fn energy_model(&self) -> &EnergyModel {
        &self.inner.cfg.energy
    }

    fn charge_flash_write(&mut self, blocks: u32) {
        let mj = self.inner.cfg.energy.flash_write_mj_per_block * f64::from(blocks);
        self.inner.charge(self.node, mj);
    }

    fn trace(&mut self, event: TraceEvent) {
        self.inner.trace.push(event);
    }

    // Handles obtained from the registry stay valid across callbacks, so
    // applications should resolve them once and cache them rather than
    // looking them up per event.
    fn telemetry(&self) -> &Registry {
        &self.inner.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustics::{Motion, SourceId, Waveform};
    use std::any::Any;

    /// Records every callback it sees.
    #[derive(Default)]
    struct Probe {
        started: bool,
        timers: Vec<u32>,
        packets: Vec<(NodeId, Vec<u8>)>,
        levels: Vec<f64>,
        blocks: Vec<AudioBlock>,
    }

    impl Application for Probe {
        fn on_start(&mut self, _ctx: &mut dyn Runtime) {
            self.started = true;
        }
        fn on_timer(&mut self, _ctx: &mut dyn Runtime, timer: Timer) {
            self.timers.push(timer.token);
        }
        fn on_packet(&mut self, _ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
            self.packets.push((from, bytes.to_vec()));
        }
        fn on_acoustic_level(&mut self, _ctx: &mut dyn Runtime, level: f64) {
            self.levels.push(level);
        }
        fn on_audio_block(&mut self, _ctx: &mut dyn Runtime, block: AudioBlock) {
            self.blocks.push(block);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one packet at start, sets a timer chain.
    struct Chatter;
    impl Application for Chatter {
        fn on_start(&mut self, ctx: &mut dyn Runtime) {
            ctx.broadcast(MsgKind::Sensing.label(), vec![1, 2, 3].into());
            ctx.set_timer(SimDuration::from_millis(100), 7);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn quiet_cfg(seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::with_seed(seed);
        cfg.radio.loss_prob = 0.0;
        cfg.clock.max_skew_ppm = 0.0;
        cfg.clock.max_offset = SimDuration::ZERO;
        cfg
    }

    #[test]
    fn start_callback_runs_once() {
        let mut w = World::new(quiet_cfg(1));
        let a = w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
        w.run_for_secs(0.1);
        assert!(w.app_as::<Probe>(a).unwrap().started);
    }

    #[test]
    fn broadcast_reaches_nodes_in_range_only() {
        let mut w = World::new(quiet_cfg(2));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
        let near = w.add_node(Position::new(1.0, 0.0), Box::new(Probe::default()));
        let far = w.add_node(Position::new(100.0, 0.0), Box::new(Probe::default()));
        w.run_for_secs(1.0);
        assert_eq!(w.app_as::<Probe>(near).unwrap().packets.len(), 1);
        assert_eq!(w.app_as::<Probe>(near).unwrap().packets[0].1, vec![1, 2, 3]);
        assert!(w.app_as::<Probe>(far).unwrap().packets.is_empty());
    }

    #[test]
    fn timer_fires_with_token() {
        let mut w = World::new(quiet_cfg(3));
        let n = w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
        // Chatter has no timer record, use a probe alongside to check time
        // advances; Chatter's timer fires without panicking.
        w.run_for_secs(0.5);
        assert!(w.now() >= SimTime::ZERO + SimDuration::from_millis(500));
        let _ = n;
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelApp;
        impl Application for CancelApp {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                let h = ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.cancel_timer(h);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_timer(&mut self, _ctx: &mut dyn Runtime, timer: Timer) {
                assert_eq!(timer.token, 2, "cancelled timer fired");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(quiet_cfg(4));
        w.add_node(Position::new(0.0, 0.0), Box::new(CancelApp));
        w.run_for_secs(1.0);
    }

    #[test]
    fn radio_off_blocks_reception() {
        struct DeafApp(Probe);
        impl Application for DeafApp {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                ctx.set_radio(false);
            }
            fn on_packet(&mut self, _ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
                self.0.packets.push((from, bytes.to_vec()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(quiet_cfg(5));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
        let deaf = w.add_node(Position::new(1.0, 0.0), Box::new(DeafApp(Probe::default())));
        w.run_for_secs(1.0);
        assert!(w.app_as::<DeafApp>(deaf).unwrap().0.packets.is_empty());
    }

    #[test]
    fn acoustic_levels_follow_sources() {
        struct RecOnLoud {
            recording: bool,
        }
        impl Application for RecOnLoud {
            fn on_acoustic_level(&mut self, ctx: &mut dyn Runtime, level: f64) {
                if level > 50.0 && !self.recording {
                    self.recording = true;
                    ctx.start_recording();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(quiet_cfg(6));
        let n = w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
        let _rec = w.add_node(
            Position::new(0.5, 0.0),
            Box::new(RecOnLoud { recording: false }),
        );
        w.add_source(SourceSpec {
            id: SourceId(1),
            start: SimTime::ZERO + SimDuration::from_secs_f64(1.0),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(2.0),
            amplitude: 100.0,
            range_ft: 3.0,
            motion: Motion::Static(Position::new(0.0, 0.0)),
            waveform: Waveform::Tone { freq_hz: 440.0 },
        })
        .unwrap();
        w.run_for_secs(3.0);
        let probe = w.app_as::<Probe>(n).unwrap();
        let max_level = probe.levels.iter().cloned().fold(0.0, f64::max);
        let min_level = probe.levels.iter().cloned().fold(255.0, f64::min);
        assert!(max_level > 90.0, "loud period seen: {max_level}");
        assert!(min_level < 15.0, "quiet period seen: {min_level}");
    }

    #[test]
    fn recording_yields_blocks_and_partial_tail() {
        struct OneShot {
            total_samples: usize,
            tail: Option<usize>,
        }
        impl Application for OneShot {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                ctx.start_recording();
                ctx.set_timer(SimDuration::from_secs_f64(1.0), 1);
            }
            fn on_timer(&mut self, ctx: &mut dyn Runtime, _timer: Timer) {
                let tail = ctx.stop_recording();
                self.tail = tail.map(|b| b.samples.len());
            }
            fn on_audio_block(&mut self, _ctx: &mut dyn Runtime, block: AudioBlock) {
                self.total_samples += block.samples.len();
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(quiet_cfg(7));
        let n = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(OneShot {
                total_samples: 0,
                tail: None,
            }),
        );
        w.run_for_secs(2.0);
        let app = w.app_as::<OneShot>(n).unwrap();
        let total = app.total_samples + app.tail.unwrap_or(0);
        // One second at 2730 Hz, +-1 sample of rounding.
        assert!(
            (total as i64 - 2730).abs() <= audio::SAMPLES_PER_CHUNK as i64,
            "got {total} samples"
        );
        assert!(app.tail.is_some(), "partial tail expected");
    }

    #[test]
    fn energy_drains_and_kills_node() {
        let mut cfg = quiet_cfg(8);
        cfg.energy.battery_mj = 100.0; // tiny battery
        cfg.energy.idle_mw = 0.0;
        cfg.energy.radio_listen_mw = 100.0; // 1 second of life
        let mut w = World::new(cfg);
        let n = w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
        w.run_for_secs(2.0);
        assert_eq!(w.energy_of(n), 0.0);
        // Dead nodes stop getting acoustic callbacks: level count stops
        // growing at ~10 Hz * 1 s = ~10 (first delivered at t=0).
        let count = w.app_as::<Probe>(n).unwrap().levels.len();
        assert!(count <= 12, "dead node kept sensing: {count} levels");
    }

    #[test]
    fn dead_node_receives_nothing_and_costs_nothing() {
        // One sender that broadcasts at t = 1 s, one healthy receiver, and
        // one doomed node that records from the start and exhausts its
        // battery within half a second. By the time the broadcast happens
        // the doomed node is dead and evicted from the spatial index, so
        // delivery must neither deliver to it nor even examine it.
        struct LateChatter;
        impl Application for LateChatter {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                ctx.set_timer(SimDuration::from_secs_f64(1.0), 0);
            }
            fn on_timer(&mut self, ctx: &mut dyn Runtime, _t: Timer) {
                ctx.broadcast(MsgKind::Sensing.label(), vec![9].into());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Doomed(Probe);
        impl Application for Doomed {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                ctx.start_recording();
            }
            fn on_packet(&mut self, _ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
                self.0.packets.push((from, bytes.to_vec()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut cfg = quiet_cfg(11);
        cfg.energy.battery_mj = 100.0;
        cfg.energy.idle_mw = 0.0;
        cfg.energy.radio_listen_mw = 0.0;
        cfg.energy.sampling_mw = 200.0; // doomed node dies at t = 0.5 s
        let mut w = World::new(cfg);
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(LateChatter));
        let probe = w.add_node(Position::new(1.0, 0.0), Box::new(Probe::default()));
        let doomed = w.add_node(Position::new(2.0, 0.0), Box::new(Doomed(Probe::default())));
        w.run_for_secs(2.0);
        assert_eq!(w.energy_of(doomed), 0.0, "doomed node should be dead");
        assert_eq!(w.app_as::<Probe>(probe).unwrap().packets.len(), 1);
        assert!(
            w.app_as::<Doomed>(doomed).unwrap().0.packets.is_empty(),
            "dead node received a packet"
        );
        // The delivery loop examined exactly one candidate (the healthy
        // receiver): the dead node was evicted from the index, not merely
        // filtered at delivery time.
        let candidates = w.telemetry().counter("sim.delivery.candidates").get();
        assert_eq!(candidates, 1, "dead node still cost a candidate scan");
    }

    #[test]
    fn add_source_rejects_a_start_in_the_past_without_scheduling() {
        let spec = |start: f64| SourceSpec {
            id: SourceId(4),
            start: SimTime::ZERO + SimDuration::from_secs_f64(start),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(start + 1.0),
            amplitude: 10.0,
            range_ft: 5.0,
            motion: Motion::Static(Position::new(0.0, 0.0)),
            waveform: Waveform::Noise,
        };
        let mut w = World::new(quiet_cfg(5));
        w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
        w.run_for_secs(2.0);
        let err = w.add_source(spec(1.0)).expect_err("start before now");
        assert!(err.contains("before the world clock"), "{err}");
        assert!(w.add_source(spec(2.0)).is_ok(), "starting now is fine");
        w.run_for_secs(2.0);
        let marks: Vec<SourceId> = w
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SourceStarted { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert_eq!(marks, vec![SourceId(4)], "only the accepted source ran");
    }

    #[test]
    fn trace_records_messages_and_sources() {
        let mut w = World::new(quiet_cfg(9));
        w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
        w.add_source(SourceSpec {
            id: SourceId(3),
            start: SimTime::ZERO + SimDuration::from_secs_f64(0.5),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(0.6),
            amplitude: 10.0,
            range_ft: 1.0,
            motion: Motion::Static(Position::new(5.0, 5.0)),
            waveform: Waveform::Noise,
        })
        .unwrap();
        w.run_for_secs(1.0);
        let kinds: Vec<MsgKind> = w
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MessageSent { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![MsgKind::Sensing]);
        let marks = w
            .trace()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::SourceStarted { .. } | TraceEvent::SourceStopped { .. }
                )
            })
            .count();
        assert_eq!(marks, 2);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            let mut w = World::new(quiet_cfg(seed));
            w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
            w.add_node(Position::new(1.0, 0.0), Box::new(Chatter));
            w.run_for_secs(1.0);
            format!("{:?}", w.trace().events())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn identical_seeds_identical_telemetry() {
        /// Chats like [`Chatter`] and feeds every level into a histogram.
        struct LevelHistogram;
        impl Application for LevelHistogram {
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                Chatter.on_start(ctx);
            }
            fn on_acoustic_level(&mut self, ctx: &mut dyn Runtime, level: f64) {
                ctx.telemetry().histogram("test.level").observe(level);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let run = || {
            let mut w = World::new(WorldConfig::with_seed(42));
            w.add_node(Position::new(0.0, 0.0), Box::new(LevelHistogram));
            w.add_node(Position::new(1.0, 0.0), Box::new(LevelHistogram));
            w.add_source(SourceSpec {
                id: SourceId(1),
                start: secs(0.5),
                stop: secs(1.5),
                amplitude: 100.0,
                range_ft: 3.0,
                motion: Motion::Static(Position::new(0.5, 0.0)),
                waveform: Waveform::Noise,
            })
            .unwrap();
            w.run_for_secs(2.0);
            w.finish();
            w.into_parts().1
        };
        let first = run();
        assert!(!first.histograms.is_empty(), "no histogram recorded");
        assert_eq!(first, run(), "same seed, different telemetry");
    }

    #[test]
    fn different_seeds_draw_different_node_randomness() {
        let sample = |seed| {
            let mut w = World::new(WorldConfig::with_seed(seed));
            let n = w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
            w.run_for_secs(1.0);
            w.app_as::<Probe>(n).unwrap().levels.clone()
        };
        assert_ne!(sample(42), sample(43));
    }

    /// Records packets, reboots, and bad-block notifications.
    #[derive(Default)]
    struct FaultProbe {
        packets: Vec<(NodeId, Vec<u8>)>,
        reboots: u32,
        bad_blocks: Vec<u32>,
    }
    impl Application for FaultProbe {
        fn on_packet(&mut self, _ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
            self.packets.push((from, bytes.to_vec()));
        }
        fn on_reboot(&mut self, _ctx: &mut dyn Runtime) {
            self.reboots += 1;
        }
        fn on_flash_bad_block(&mut self, _ctx: &mut dyn Runtime, block: u32) {
            self.bad_blocks.push(block);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Broadcasts one `TIME_SYNC` at each scheduled second.
    struct Pinger(Vec<f64>);
    impl Application for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Runtime) {
            for (i, &s) in self.0.iter().enumerate() {
                ctx.set_timer(SimDuration::from_secs_f64(s), i as u32);
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Runtime, timer: Timer) {
            ctx.broadcast(MsgKind::TimeSync.label(), vec![timer.token as u8].into());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_injection() {
        let run = |inject: bool| {
            let mut w = World::new(WorldConfig::with_seed(77));
            w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
            w.add_node(Position::new(1.0, 0.0), Box::new(Chatter));
            if inject {
                w.inject_faults(&FaultPlan::new()).unwrap();
            }
            w.run_for_secs(2.0);
            w.trace().digest()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_silences_node_and_reboot_restores_it() {
        let mut w = World::new(quiet_cfg(21));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Pinger(vec![1.0, 2.0])));
        let rx = w.add_node(Position::new(1.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new()
            .with(FaultEvent::NodeCrash {
                at: secs(0.5),
                node: rx,
            })
            .with(FaultEvent::NodeReboot {
                at: secs(1.5),
                node: rx,
            });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(3.0);
        let probe = w.app_as::<FaultProbe>(rx).unwrap();
        assert_eq!(probe.reboots, 1, "reboot callback delivered once");
        assert_eq!(
            probe.packets.len(),
            1,
            "only the post-reboot ping arrives: {:?}",
            probe.packets
        );
        assert_eq!(probe.packets[0].1, vec![1], "it is the second ping");
        assert!(w.energy_of(rx) > 0.0, "crash preserves the battery");
        let kinds: Vec<FaultKind> = w
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![FaultKind::Crash, FaultKind::Reboot]);
    }

    #[test]
    fn reboot_without_crash_or_energy_is_a_noop() {
        let mut cfg = quiet_cfg(22);
        cfg.energy.battery_mj = 50.0;
        cfg.energy.idle_mw = 0.0;
        cfg.energy.radio_listen_mw = 100.0; // dead at t = 0.5 s
        let mut w = World::new(cfg);
        let a = w.add_node(Position::new(0.0, 0.0), Box::new(FaultProbe::default()));
        let b = w.add_node(Position::new(50.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new()
            .with(FaultEvent::NodeReboot {
                at: secs(0.2),
                node: a, // alive: no-op
            })
            .with(FaultEvent::NodeReboot {
                at: secs(1.0),
                node: b, // battery exhausted: no-op
            });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(2.0);
        assert_eq!(w.app_as::<FaultProbe>(a).unwrap().reboots, 0);
        assert_eq!(w.app_as::<FaultProbe>(b).unwrap().reboots, 0);
        assert_eq!(w.energy_of(b), 0.0);
    }

    #[test]
    fn blackout_window_blocks_and_then_releases_traffic() {
        let mut w = World::new(quiet_cfg(23));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Pinger(vec![1.0, 3.0])));
        let rx = w.add_node(Position::new(1.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new().with(FaultEvent::RadioBlackout {
            from: secs(0.5),
            until: secs(2.0),
            scope: FaultScope::All,
        });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(4.0);
        let probe = w.app_as::<FaultProbe>(rx).unwrap();
        assert_eq!(probe.packets.len(), 1, "in-blackout ping lost");
        assert_eq!(probe.packets[0].1, vec![1], "post-blackout ping arrives");
        assert!(
            w.telemetry().counter("sim.packets.lost").get() >= 1,
            "the blacked-out send counts as lost"
        );
    }

    #[test]
    fn region_blackout_only_covers_nodes_inside() {
        let mut w = World::new(quiet_cfg(24));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Pinger(vec![1.0])));
        let near = w.add_node(Position::new(1.0, 0.0), Box::new(FaultProbe::default()));
        let far = w.add_node(Position::new(2.5, 0.0), Box::new(FaultProbe::default()));
        // Covers the receiver at x = 2.5 but neither the sender nor the
        // near receiver.
        let plan = FaultPlan::new().with(FaultEvent::RadioBlackout {
            from: secs(0.5),
            until: secs(2.0),
            scope: FaultScope::Region {
                center: Position::new(2.5, 0.0),
                radius_ft: 0.5,
            },
        });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(3.0);
        assert_eq!(w.app_as::<FaultProbe>(near).unwrap().packets.len(), 1);
        assert!(
            w.app_as::<FaultProbe>(far).unwrap().packets.is_empty(),
            "blacked-out receiver heard a ping"
        );
    }

    #[test]
    fn full_link_degrade_loses_everything_in_window() {
        let mut w = World::new(quiet_cfg(25));
        let _tx = w.add_node(Position::new(0.0, 0.0), Box::new(Pinger(vec![1.0, 3.0])));
        let rx = w.add_node(Position::new(1.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new().with(FaultEvent::LinkDegrade {
            from: secs(0.5),
            until: secs(2.0),
            loss_prob: 1.0,
        });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(4.0);
        let probe = w.app_as::<FaultProbe>(rx).unwrap();
        assert_eq!(probe.packets.len(), 1, "only the post-window ping lands");
        assert_eq!(probe.packets[0].1, vec![1]);
    }

    #[test]
    fn bad_block_notification_reaches_the_application() {
        let mut w = World::new(quiet_cfg(26));
        let n = w.add_node(Position::new(0.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new().with(FaultEvent::FlashBadBlock {
            at: secs(1.0),
            node: n,
            block: 3,
        });
        w.inject_faults(&plan).unwrap();
        w.run_for_secs(2.0);
        assert_eq!(w.app_as::<FaultProbe>(n).unwrap().bad_blocks, vec![3]);
        assert_eq!(w.telemetry().counter("sim.faults.injected").get(), 1);
    }

    #[test]
    fn invalid_plan_is_rejected_before_scheduling() {
        let mut w = World::new(quiet_cfg(27));
        w.add_node(Position::new(0.0, 0.0), Box::new(FaultProbe::default()));
        let plan = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: secs(1.0),
            node: NodeId(5),
        });
        assert!(w.inject_faults(&plan).is_err());
        w.run_for_secs(1.0);
        assert!(w
            .trace()
            .iter()
            .all(|e| !matches!(e, TraceEvent::FaultInjected { .. })));
    }

    #[test]
    fn timeline_sampling_never_perturbs_the_trace() {
        let run = |period: Option<f64>| {
            let mut cfg = WorldConfig::with_seed(31);
            cfg.timeline_sample_period = period.map(SimDuration::from_secs_f64);
            let mut w = World::new(cfg);
            w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
            w.add_node(Position::new(1.0, 0.0), Box::new(Chatter));
            w.run_for_secs(3.0);
            (w.trace().digest(), w.timeline_report())
        };
        let (off, none) = run(None);
        let (coarse, coarse_tl) = run(Some(1.0));
        let (fine, fine_tl) = run(Some(0.1));
        assert_eq!(off, coarse, "timeline sampling changed the trace");
        assert_eq!(off, fine, "cadence changed the trace");
        assert!(none.is_none());
        assert!(coarse_tl.unwrap().times.len() < fine_tl.unwrap().times.len());
    }

    #[test]
    fn timeline_carries_metrics_and_node_probes() {
        struct Occupied;
        impl Application for Occupied {
            fn poll_probe(&self) -> Option<enviromic_runtime::NodeProbe> {
                Some(enviromic_runtime::NodeProbe {
                    occupancy: enviromic_runtime::StorageOccupancy {
                        used: 3,
                        capacity: 12,
                    },
                    chunks: 3,
                    role: enviromic_runtime::NodeRole::Leader,
                })
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut cfg = quiet_cfg(32);
        cfg.timeline_sample_period = Some(SimDuration::from_secs_f64(0.5));
        let mut w = World::new(cfg);
        w.add_node(Position::new(0.0, 0.0), Box::new(Chatter));
        w.add_node(Position::new(1.0, 0.0), Box::new(Occupied));
        w.run_for_secs(2.0);
        let tl = w.timeline_report().expect("timeline configured");
        // Samples at 0.0, 0.5, 1.0, 1.5, 2.0.
        assert_eq!(tl.times.len(), 5);
        let samples = tl.series("sim.timeline.samples").expect("self-accounting");
        assert_eq!(samples.total(), 5.0, "one counted sample per tick");
        assert_eq!(
            w.telemetry().counter("sim.timeline.samples").get(),
            5,
            "registry counter agrees"
        );
        // The Chatter node has physics probes but no protocol probe.
        assert!(tl.series("node.0.energy_mj").is_some());
        assert!(tl.series("node.0.role").is_none());
        // The Occupied node reports all five series.
        let occ = tl.series("node.1.occupancy").expect("occupancy series");
        assert!(occ.points.iter().all(|&p| (p - 0.25).abs() < 1e-12));
        assert_eq!(tl.series("node.1.role").unwrap().max(), 2.0);
        assert_eq!(tl.series("node.1.chunks").unwrap().max(), 3.0);
        // Energy decreases monotonically while the node idles.
        let energy = &tl.series("node.1.energy_mj").unwrap().points;
        assert!(energy.windows(2).all(|w| w[1] <= w[0]), "drain: {energy:?}");
        assert!(energy[0] > 0.0);
    }

    #[test]
    fn peeking_energy_does_not_settle_drain() {
        // A node with a ~1 s battery sampled every 0.2 s: the sampler
        // peeks energy without integrating, so the node must die at the
        // same event it dies at without a timeline. Compare death times.
        let run = |timeline: bool| {
            let mut cfg = quiet_cfg(33);
            cfg.energy.battery_mj = 100.0;
            cfg.energy.idle_mw = 0.0;
            cfg.energy.radio_listen_mw = 100.0;
            if timeline {
                cfg.timeline_sample_period = Some(SimDuration::from_secs_f64(0.2));
            }
            let mut w = World::new(cfg);
            w.add_node(Position::new(0.0, 0.0), Box::new(Probe::default()));
            w.run_for_secs(2.0);
            format!("{:?}", w.trace().events())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn local_clock_reflects_offset() {
        let mut cfg = quiet_cfg(10);
        cfg.clock.max_offset = SimDuration::from_millis(1000);
        cfg.clock.max_skew_ppm = 0.0;
        struct ClockApp {
            local_minus_global: Option<i64>,
        }
        impl Application for ClockApp {
            fn on_timer(&mut self, ctx: &mut dyn Runtime, _t: Timer) {
                let l = ctx.local_time().as_jiffies() as i64;
                let g = ctx.now().as_jiffies() as i64;
                self.local_minus_global = Some(l - g);
            }
            fn on_start(&mut self, ctx: &mut dyn Runtime) {
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(cfg);
        let n = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(ClockApp {
                local_minus_global: None,
            }),
        );
        w.run_for_secs(1.0);
        let delta = w.app_as::<ClockApp>(n).unwrap().local_minus_global.unwrap();
        assert!(delta >= 0, "offsets are non-negative, got {delta}");
    }
}
