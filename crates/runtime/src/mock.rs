//! A single-node in-memory backend for protocol unit tests.
//!
//! [`MockRuntime`] implements [`Runtime`] without a simulated world: time
//! advances only when a test asks it to, packets arrive only when the test
//! scripts them, and every side effect (sent packets, trace records,
//! telemetry counters) is captured for assertion. It exists so the
//! protocol crates can test election back-off, task sequencing, balancing
//! and retrieval logic directly, without standing up a `World`.

use crate::{Application, AudioBlock, EnergyModel, Runtime, Timer, TimerHandle, Trace, TraceEvent};
use enviromic_telemetry::Registry;
use enviromic_types::{Bytes, MsgKind, NodeId, Position, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// A packet captured from [`Runtime::broadcast`].
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// The protocol-level message kind.
    pub kind: MsgKind,
    /// The encoded payload.
    pub bytes: Bytes,
    /// Send time (global clock).
    pub t: SimTime,
}

#[derive(Debug, Clone)]
struct PendingTimer {
    at: SimTime,
    seq: u64,
    handle: u64,
    token: u32,
}

#[derive(Debug, Clone)]
struct ScriptedPacket {
    at: SimTime,
    seq: u64,
    from: NodeId,
    bytes: Bytes,
}

/// An in-memory [`Runtime`] for driving one [`Application`] by hand.
///
/// Events (timers the application sets, packets the test scripts) are
/// dispatched in `(time, scheduling order)` order by
/// [`MockRuntime::run_until`] / [`MockRuntime::advance`], mirroring the
/// simulator's deterministic queue. Scripted packets honor the node's
/// radio state at delivery time, so radio duty-cycling is testable.
///
/// # Examples
///
/// See the crate-level example.
pub struct MockRuntime {
    node: NodeId,
    now: SimTime,
    offset: SimDuration,
    rng: SmallRng,
    radio_on: bool,
    recording_since: Option<SimTime>,
    energy_mj: f64,
    energy_model: EnergyModel,
    next_handle: u64,
    next_seq: u64,
    timers: Vec<PendingTimer>,
    cancelled: HashSet<u64>,
    scripted: Vec<ScriptedPacket>,
    sent: Vec<SentPacket>,
    trace: Trace,
    telemetry: Registry,
}

impl MockRuntime {
    /// Creates a mock backend for `node` at the origin, radio on, full
    /// battery, RNG seeded from the node id.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        MockRuntime {
            node,
            now: SimTime::ZERO,
            offset: SimDuration::ZERO,
            rng: SmallRng::seed_from_u64(0x0515_7A7E ^ u64::from(node.0)),
            radio_on: true,
            recording_since: None,
            energy_mj: EnergyModel::default().battery_mj,
            energy_model: EnergyModel::default(),
            next_handle: 1,
            next_seq: 0,
            timers: Vec::new(),
            cancelled: HashSet::new(),
            scripted: Vec::new(),
            sent: Vec::new(),
            trace: Trace::new(),
            telemetry: Registry::new(),
        }
    }

    /// Sets the local-clock offset: `local_time() == now() + offset`.
    pub fn set_clock_offset(&mut self, offset: SimDuration) {
        self.offset = offset;
    }

    /// Overrides remaining battery energy.
    pub fn set_energy_mj(&mut self, mj: f64) {
        self.energy_mj = mj;
    }

    /// Invokes the application's start callback (time stays at zero).
    pub fn start(&mut self, app: &mut dyn Application) {
        app.on_start(self);
    }

    /// Scripts a packet from `from` to arrive at absolute time `at`.
    ///
    /// Delivery happens during [`MockRuntime::run_until`] and is dropped
    /// (silently) if the node's radio is off at that moment.
    pub fn schedule_packet(&mut self, at: SimTime, from: NodeId, bytes: impl Into<Bytes>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scripted.push(ScriptedPacket {
            at,
            seq,
            from,
            bytes: bytes.into(),
        });
    }

    /// Delivers a packet to the application right now, honoring radio
    /// state. Returns `true` if it was delivered.
    pub fn deliver_now(&mut self, app: &mut dyn Application, from: NodeId, bytes: &[u8]) -> bool {
        if !self.radio_on {
            return false;
        }
        app.on_packet(self, from, bytes);
        true
    }

    /// Dispatches every pending timer and scripted packet due at or before
    /// `t_end`, in `(time, scheduling order)` order, then sets the clock
    /// to `t_end`.
    pub fn run_until(&mut self, app: &mut dyn Application, t_end: SimTime) {
        loop {
            let next_timer = self
                .timers
                .iter()
                .filter(|p| p.at <= t_end)
                .min_by_key(|p| (p.at, p.seq))
                .map(|p| (p.at, p.seq, p.handle));
            let next_packet = self
                .scripted
                .iter()
                .filter(|p| p.at <= t_end)
                .min_by_key(|p| (p.at, p.seq))
                .map(|p| (p.at, p.seq));

            match (next_timer, next_packet) {
                (None, None) => break,
                (Some((ta, sa, handle)), pkt)
                    if pkt.is_none_or(|(tp, sp)| (ta, sa) <= (tp, sp)) =>
                {
                    let idx = self.timers.iter().position(|p| p.handle == handle).unwrap();
                    let pending = self.timers.swap_remove(idx);
                    self.now = self.now.max(pending.at);
                    if self.cancelled.remove(&pending.handle) {
                        continue;
                    }
                    app.on_timer(
                        self,
                        Timer {
                            handle: TimerHandle(pending.handle),
                            token: pending.token,
                        },
                    );
                }
                (_, Some((tp, sp))) => {
                    let idx = self
                        .scripted
                        .iter()
                        .position(|p| (p.at, p.seq) == (tp, sp))
                        .unwrap();
                    let pkt = self.scripted.swap_remove(idx);
                    self.now = self.now.max(pkt.at);
                    if self.radio_on {
                        let bytes = pkt.bytes.clone();
                        app.on_packet(self, pkt.from, &bytes);
                    }
                }
                _ => unreachable!(),
            }
        }
        self.now = self.now.max(t_end);
    }

    /// Advances the clock by `d`, dispatching everything due on the way.
    pub fn advance(&mut self, app: &mut dyn Application, d: SimDuration) {
        let t_end = self.now + d;
        self.run_until(app, t_end);
    }

    /// Every packet the application has broadcast, in send order.
    #[must_use]
    pub fn sent(&self) -> &[SentPacket] {
        &self.sent
    }

    /// The `(fire time, token)` of every live (not cancelled) pending
    /// timer, soonest first.
    #[must_use]
    pub fn pending_timers(&self) -> Vec<(SimTime, u32)> {
        let mut v: Vec<_> = self
            .timers
            .iter()
            .filter(|p| !self.cancelled.contains(&p.handle))
            .map(|p| (p.at, p.token))
            .collect();
        v.sort_unstable();
        v
    }

    /// The trace records captured so far.
    #[must_use]
    pub fn captured_trace(&self) -> &Trace {
        &self.trace
    }
}

impl Runtime for MockRuntime {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn local_time(&self) -> SimTime {
        self.now + self.offset
    }

    fn position(&self) -> Position {
        Position::new(0.0, 0.0)
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn set_timer(&mut self, delay: SimDuration, token: u32) -> TimerHandle {
        let handle = self.next_handle;
        self.next_handle += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.push(PendingTimer {
            at: self.now + delay,
            seq,
            handle,
            token,
        });
        TimerHandle(handle)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) {
        if let Some(idx) = self.timers.iter().position(|p| p.handle == handle.0) {
            self.timers.swap_remove(idx);
        } else {
            self.cancelled.insert(handle.0);
        }
    }

    fn set_radio(&mut self, on: bool) {
        self.radio_on = on;
    }

    fn radio_is_on(&self) -> bool {
        self.radio_on
    }

    fn broadcast(&mut self, kind: &'static str, bytes: Bytes) -> bool {
        if !self.radio_on || self.energy_mj <= 0.0 {
            return false;
        }
        let kind = MsgKind::from_label(kind).expect("broadcast kind is a MsgKind label");
        self.trace.push(TraceEvent::MessageSent {
            node: self.node,
            kind,
            bytes: bytes.len() as u32,
            t: self.now,
        });
        self.sent.push(SentPacket {
            kind,
            bytes,
            t: self.now,
        });
        true
    }

    fn start_recording(&mut self) -> bool {
        if self.recording_since.is_some() || self.energy_mj <= 0.0 {
            return false;
        }
        self.recording_since = Some(self.now);
        true
    }

    fn is_recording(&self) -> bool {
        self.recording_since.is_some()
    }

    fn stop_recording(&mut self) -> Option<AudioBlock> {
        let t0 = self.recording_since.take()?;
        let t1 = self.now;
        if t1 <= t0 {
            return None;
        }
        Some(AudioBlock {
            t0,
            t1,
            samples: Vec::new(),
        })
    }

    fn current_acoustic_level(&mut self) -> f64 {
        0.0
    }

    fn energy_mj(&mut self) -> f64 {
        self.energy_mj
    }

    fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    fn charge_flash_write(&mut self, blocks: u32) {
        self.energy_mj -= self.energy_model.flash_write_mj_per_block * f64::from(blocks);
    }

    fn trace(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    fn telemetry(&self) -> &Registry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Probe {
        timers: Vec<u32>,
        packets: Vec<(NodeId, Vec<u8>)>,
    }

    impl Application for Probe {
        fn on_timer(&mut self, _ctx: &mut dyn Runtime, timer: Timer) {
            self.timers.push(timer.token);
        }
        fn on_packet(&mut self, _ctx: &mut dyn Runtime, from: NodeId, bytes: &[u8]) {
            self.packets.push((from, bytes.to_vec()));
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut rt = MockRuntime::new(NodeId(3));
        let mut app = Probe::default();
        rt.set_timer(SimDuration::from_millis(30), 2);
        rt.set_timer(SimDuration::from_millis(10), 1);
        rt.set_timer(SimDuration::from_millis(20), 3);
        rt.run_until(
            &mut app,
            SimTime::from_jiffies(0) + SimDuration::from_millis(25),
        );
        assert_eq!(app.timers, vec![1, 3]);
        assert_eq!(rt.pending_timers().len(), 1);
        rt.advance(&mut app, SimDuration::from_millis(10));
        assert_eq!(app.timers, vec![1, 3, 2]);
        assert!(rt.pending_timers().is_empty());
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut rt = MockRuntime::new(NodeId(0));
        let mut app = Probe::default();
        let h = rt.set_timer(SimDuration::from_millis(5), 9);
        rt.set_timer(SimDuration::from_millis(6), 1);
        rt.cancel_timer(h);
        rt.advance(&mut app, SimDuration::from_millis(10));
        assert_eq!(app.timers, vec![1]);
    }

    #[test]
    fn scripted_packets_honor_radio_state() {
        let mut rt = MockRuntime::new(NodeId(0));
        let mut app = Probe::default();
        rt.schedule_packet(SimTime::from_jiffies(10), NodeId(7), vec![1, 2]);
        rt.schedule_packet(SimTime::from_jiffies(20), NodeId(8), vec![3]);
        rt.run_until(&mut app, SimTime::from_jiffies(15));
        rt.set_radio(false);
        rt.run_until(&mut app, SimTime::from_jiffies(25));
        assert_eq!(app.packets, vec![(NodeId(7), vec![1, 2])]);
    }

    #[test]
    fn broadcast_suppressed_when_radio_off() {
        let mut rt = MockRuntime::new(NodeId(0));
        assert!(rt.broadcast("SENSING", vec![0].into()));
        rt.set_radio(false);
        assert!(!rt.broadcast("TIME_SYNC", vec![0].into()));
        assert_eq!(rt.sent().len(), 1);
        assert_eq!(rt.sent()[0].kind, MsgKind::Sensing);
        assert_eq!(rt.captured_trace().len(), 1);
    }

    #[test]
    fn recording_yields_final_block() {
        let mut rt = MockRuntime::new(NodeId(0));
        let mut app = Probe::default();
        assert!(rt.start_recording());
        assert!(!rt.start_recording());
        rt.advance(&mut app, SimDuration::from_millis(40));
        let block = rt.stop_recording().expect("partial block");
        assert_eq!(block.duration(), SimDuration::from_millis(40));
        assert!(rt.stop_recording().is_none());
    }

    #[test]
    fn local_clock_offset_applies() {
        let mut rt = MockRuntime::new(NodeId(0));
        rt.set_clock_offset(SimDuration::from_millis(7));
        assert_eq!(rt.local_time(), rt.now() + SimDuration::from_millis(7));
    }
}
