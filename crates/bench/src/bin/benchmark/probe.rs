//! Pass-through wrappers that time the protocol layer from outside.
//!
//! [`Probed`] wraps one [`EnviroMicNode`] as an [`Application`]: every
//! callback is timed, and the protocol receives a [`TimedRuntime`] that
//! forwards each runtime service to the simulator's own `Runtime` while
//! timing the calls that do simulator work. A callback's *self* time is its
//! inclusive time minus the runtime calls made inside it. Nothing here
//! touches simulation state, RNG streams or the trace beyond forwarding, so
//! a probed run is digest-identical to an unprobed one.

use enviromic::core::EnviroMicNode;
use enviromic::runtime::{
    Application, AudioBlock, EnergyModel, NodeProbe, Runtime, StorageOccupancy, Timer, TimerHandle,
    TraceEvent,
};
use enviromic::telemetry::Registry;
use enviromic::types::{Bytes, NodeId, Position, SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::cell::{Ref, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The application callbacks, in the order the per-layer metrics list them.
#[derive(Debug, Clone, Copy)]
pub enum Callback {
    Start,
    Timer,
    Packet,
    Level,
    AudioBlock,
    Reboot,
    BadBlock,
    Finish,
}

impl Callback {
    pub const ALL: [Callback; 8] = [
        Callback::Start,
        Callback::Timer,
        Callback::Packet,
        Callback::Level,
        Callback::AudioBlock,
        Callback::Reboot,
        Callback::BadBlock,
        Callback::Finish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "start",
            Callback::Timer => "timer",
            Callback::Packet => "packet",
            Callback::Level => "level",
            Callback::AudioBlock => "audio_block",
            Callback::Reboot => "reboot",
            Callback::BadBlock => "bad_block",
            Callback::Finish => "finish",
        }
    }
}

/// The runtime services that do simulator work on the protocol's behalf.
#[derive(Debug, Clone, Copy)]
pub enum Service {
    Broadcast,
    SetTimer,
    LevelPoll,
    StopRecording,
    Trace,
    FlashCharge,
}

impl Service {
    pub const ALL: [Service; 6] = [
        Service::Broadcast,
        Service::SetTimer,
        Service::LevelPoll,
        Service::StopRecording,
        Service::Trace,
        Service::FlashCharge,
    ];

    /// Metric prefix of the service's `.calls` / `.ns` pair.
    pub fn prefix(self) -> &'static str {
        match self {
            Service::Broadcast => "sim.broadcast",
            Service::SetTimer => "sim.set_timer",
            Service::LevelPoll => "sim.level_poll",
            Service::StopRecording => "sim.stop_recording",
            Service::Trace => "trace.append",
            Service::FlashCharge => "sim.flash_charge",
        }
    }
}

/// Calls and summed wall-clock nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Every delivered payload whose running index is a multiple of this is
/// copied for the decode replay, up to [`MAX_PAYLOADS`] of them.
const PAYLOAD_STRIDE: u64 = 61;
const MAX_PAYLOADS: usize = 4096;

/// What the wrappers measured, summed over every node of every world
/// they were attached to.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self time per callback kind, indexed like [`Callback::ALL`].
    pub callbacks: [Tally; 8],
    /// Inclusive time over all callbacks (self + runtime calls).
    pub callback_incl_ns: u64,
    /// Time per runtime service, indexed like [`Service::ALL`].
    pub services: [Tally; 6],
    pub cancel_timer_calls: u64,
    /// Broadcasts the simulator accepted (`broadcast` returned true).
    pub broadcasts_sent: u64,
    pub broadcast_bytes: u64,
    pub flash_blocks: u64,
    /// A deterministic sample of delivered packet payloads.
    pub payloads: Vec<Vec<u8>>,
}

impl Layers {
    pub fn callback(&self, cb: Callback) -> Tally {
        self.callbacks[cb as usize]
    }

    pub fn service(&self, svc: Service) -> Tally {
        self.services[svc as usize]
    }

    pub fn callback_self_ns(&self) -> u64 {
        self.callbacks.iter().map(|t| t.ns).sum()
    }

    pub fn service_ns(&self) -> u64 {
        self.services.iter().map(|t| t.ns).sum()
    }
}

/// A handle shared by every wrapped node of a run.
#[derive(Debug, Default)]
pub struct Probe(Rc<RefCell<Layers>>);

impl Probe {
    pub fn wrap(&self, node: EnviroMicNode) -> Probed {
        Probed {
            node,
            layers: self.0.clone(),
        }
    }

    /// Everything measured so far. Release the borrow before the world
    /// runs again.
    pub fn layers(&self) -> Ref<'_, Layers> {
        self.0.borrow()
    }
}

/// One [`EnviroMicNode`] behind timed callbacks.
pub struct Probed {
    node: EnviroMicNode,
    layers: Rc<RefCell<Layers>>,
}

impl Probed {
    fn timed(
        &mut self,
        cb: Callback,
        ctx: &mut dyn Runtime,
        f: impl FnOnce(&mut EnviroMicNode, &mut dyn Runtime),
    ) {
        let (node, layers) = (&mut self.node, &self.layers);
        time_callback(layers, cb, || {
            let mut rt = TimedRuntime {
                inner: ctx,
                layers,
                spent_ns: 0,
            };
            f(node, &mut rt);
            rt.spent_ns
        });
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times one callback. `body` runs it and returns the runtime-call time
/// spent inside it.
fn time_callback(layers: &RefCell<Layers>, cb: Callback, body: impl FnOnce() -> u64) {
    let started = Instant::now();
    let spent = body();
    let incl = elapsed_ns(started);
    let mut layers = layers.borrow_mut();
    layers.callback_incl_ns += incl;
    layers.callbacks[cb as usize].add(incl.saturating_sub(spent));
}

/// Times one runtime call made inside a callback.
fn time_service<T>(
    layers: &RefCell<Layers>,
    spent_ns: &mut u64,
    svc: Service,
    call: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = call();
    let ns = elapsed_ns(started);
    *spent_ns += ns;
    layers.borrow_mut().services[svc as usize].add(ns);
    out
}

/// What the probe's own clock reads and bookkeeping cost, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCost {
    /// Wall time one wrapped callback adds around the callback itself.
    pub per_callback: f64,
    /// Wall time one timed runtime call adds around the call itself.
    pub per_service: f64,
    /// What a timed span reads with nothing inside it: the share of
    /// `per_callback` that lands inside the callback's own span.
    pub empty_span: f64,
}

impl ProbeCost {
    /// Runs the wrappers' bookkeeping around empty bodies on scratch
    /// tallies, [`CALIBRATION_CALLS`] times each.
    pub fn calibrate() -> ProbeCost {
        let scratch = RefCell::new(Layers::default());
        let per_call = |started: Instant| elapsed_ns(started) as f64 / CALIBRATION_CALLS as f64;
        let started = Instant::now();
        for _ in 0..CALIBRATION_CALLS {
            time_callback(&scratch, Callback::Timer, || black_box(0));
        }
        let per_callback = per_call(started);
        let mut spent = 0;
        let started = Instant::now();
        for _ in 0..CALIBRATION_CALLS {
            time_service(&scratch, &mut spent, Service::Trace, || black_box(()));
        }
        let per_service = per_call(started);
        black_box(spent);
        let layers = scratch.borrow();
        ProbeCost {
            per_callback,
            per_service,
            empty_span: layers.callback_incl_ns as f64 / CALIBRATION_CALLS as f64,
        }
    }
}

const CALIBRATION_CALLS: u64 = 1 << 20;

impl Application for Probed {
    fn on_start(&mut self, ctx: &mut dyn Runtime) {
        self.timed(Callback::Start, ctx, |n, rt| n.on_start(rt));
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime, timer: Timer) {
        self.timed(Callback::Timer, ctx, |n, rt| n.on_timer(rt, timer));
    }

    fn on_packet(&mut self, ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
        self.timed(Callback::Packet, ctx, |n, rt| n.on_packet(rt, from, bytes));
        let mut layers = self.layers.borrow_mut();
        let seen = layers.callback(Callback::Packet).calls;
        if seen.is_multiple_of(PAYLOAD_STRIDE) && layers.payloads.len() < MAX_PAYLOADS {
            layers.payloads.push(bytes.to_vec());
        }
    }

    fn on_acoustic_level(&mut self, ctx: &mut dyn Runtime, level: f64) {
        self.timed(Callback::Level, ctx, |n, rt| n.on_acoustic_level(rt, level));
    }

    fn on_audio_block(&mut self, ctx: &mut dyn Runtime, block: AudioBlock) {
        self.timed(Callback::AudioBlock, ctx, |n, rt| {
            n.on_audio_block(rt, block)
        });
    }

    fn poll_occupancy(&self) -> Option<StorageOccupancy> {
        self.node.poll_occupancy()
    }

    fn poll_probe(&self) -> Option<NodeProbe> {
        self.node.poll_probe()
    }

    fn on_finish(&mut self, ctx: &mut dyn Runtime) {
        self.timed(Callback::Finish, ctx, |n, rt| n.on_finish(rt));
    }

    fn on_reboot(&mut self, ctx: &mut dyn Runtime) {
        self.timed(Callback::Reboot, ctx, |n, rt| n.on_reboot(rt));
    }

    fn on_flash_bad_block(&mut self, ctx: &mut dyn Runtime, block: u32) {
        self.timed(Callback::BadBlock, ctx, |n, rt| {
            n.on_flash_bad_block(rt, block);
        });
    }

    // Downcasts see the wrapped node, so `World::app_as::<EnviroMicNode>`
    // works on probed and unprobed worlds alike.
    fn as_any(&self) -> &dyn core::any::Any {
        self.node.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self.node.as_any_mut()
    }
}

/// The `Runtime` the protocol sees inside a probed callback.
struct TimedRuntime<'a> {
    inner: &'a mut dyn Runtime,
    layers: &'a RefCell<Layers>,
    /// Runtime-call time accumulated inside the current callback.
    spent_ns: u64,
}

impl TimedRuntime<'_> {
    fn time<T>(&mut self, svc: Service, f: impl FnOnce(&mut dyn Runtime) -> T) -> T {
        let inner = &mut *self.inner;
        time_service(self.layers, &mut self.spent_ns, svc, || f(inner))
    }
}

impl Runtime for TimedRuntime<'_> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn local_time(&self) -> SimTime {
        self.inner.local_time()
    }

    fn position(&self) -> Position {
        self.inner.position()
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.inner.rng()
    }

    fn set_timer(&mut self, delay: SimDuration, token: u32) -> TimerHandle {
        self.time(Service::SetTimer, |rt| rt.set_timer(delay, token))
    }

    fn cancel_timer(&mut self, handle: TimerHandle) {
        self.layers.borrow_mut().cancel_timer_calls += 1;
        self.inner.cancel_timer(handle);
    }

    fn set_radio(&mut self, on: bool) {
        self.inner.set_radio(on);
    }

    fn radio_is_on(&self) -> bool {
        self.inner.radio_is_on()
    }

    fn broadcast(&mut self, kind: &'static str, bytes: Bytes) -> bool {
        let len = bytes.len() as u64;
        let sent = self.time(Service::Broadcast, |rt| rt.broadcast(kind, bytes));
        if sent {
            let mut layers = self.layers.borrow_mut();
            layers.broadcasts_sent += 1;
            layers.broadcast_bytes += len;
        }
        sent
    }

    fn start_recording(&mut self) -> bool {
        self.inner.start_recording()
    }

    fn is_recording(&self) -> bool {
        self.inner.is_recording()
    }

    fn stop_recording(&mut self) -> Option<AudioBlock> {
        self.time(Service::StopRecording, |rt| rt.stop_recording())
    }

    fn current_acoustic_level(&mut self) -> f64 {
        self.time(Service::LevelPoll, |rt| rt.current_acoustic_level())
    }

    fn energy_mj(&mut self) -> f64 {
        self.inner.energy_mj()
    }

    fn energy_model(&self) -> &EnergyModel {
        self.inner.energy_model()
    }

    fn charge_flash_write(&mut self, blocks: u32) {
        self.layers.borrow_mut().flash_blocks += u64::from(blocks);
        self.time(Service::FlashCharge, |rt| rt.charge_flash_write(blocks));
    }

    fn trace(&mut self, event: TraceEvent) {
        self.time(Service::Trace, |rt| rt.trace(event));
    }

    fn telemetry(&self) -> &Registry {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let started = Instant::now();
        while started.elapsed() < d {}
    }

    /// A callback's self time leaves out the runtime calls made inside it,
    /// which count as runtime time.
    #[test]
    fn runtime_calls_are_taken_out_of_callback_self_time() {
        let layers = RefCell::new(Layers::default());
        time_callback(&layers, Callback::Timer, || {
            let mut spent = 0;
            spin(Duration::from_millis(2));
            time_service(&layers, &mut spent, Service::Broadcast, || {
                spin(Duration::from_millis(6));
            });
            spent
        });
        let layers = layers.borrow();
        let own = layers.callback(Callback::Timer).ns;
        let runtime = layers.service(Service::Broadcast).ns;
        assert!((2_000_000..6_000_000).contains(&own), "self {own} ns");
        assert!(runtime >= 6_000_000, "runtime {runtime} ns");
        assert_eq!(own + runtime, layers.callback_incl_ns);
    }

    /// A wrapped empty callback costs more than the empty span it reads,
    /// and that span is not free.
    #[test]
    fn calibration_reads_a_cost_per_call() {
        let cost = ProbeCost::calibrate();
        assert!(
            cost.empty_span > 0.0
                && cost.per_callback > cost.empty_span
                && cost.per_service > cost.empty_span,
            "{cost:?}"
        );
    }
}
