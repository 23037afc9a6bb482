//! Fault injection: dead motes, saturated storage, and extreme loss —
//! the failure modes §VI worries about ("defunct or lost motes can cause
//! data loss").
//!
//! Most scenarios here drive the deterministic fault engine
//! (`enviromic_sim::FaultPlan`): crashes and reboots are scheduled
//! events, so a run is reproducible from its seed alone. One legacy test
//! keeps the original battery-tuning path (energy depletion kills nodes
//! organically) alive.

use enviromic::core::{recover_collected_mote, EnviroMicNode, Mode, NodeConfig};
use enviromic::harness::{build_world, indoor_world_config};
use enviromic::sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic::sim::{FaultEvent, FaultKind, FaultPlan, FaultScope, TraceEvent, World};
use enviromic::sweep::{run_sweep, JobInput, ScenarioSpec, SweepPlan};
use enviromic::types::{NodeId, Position, SimDuration, SimTime};
use enviromic::workloads::{indoor_scenario, mobile_scenario};
use proptest::prelude::*;

fn tone(id: u32, pos: Position, start_s: f64, stop_s: f64, range: f64) -> SourceSpec {
    SourceSpec {
        id: SourceId(id),
        start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
        stop: SimTime::ZERO + SimDuration::from_secs_f64(stop_s),
        amplitude: 120.0,
        range_ft: range,
        motion: Motion::Static(pos),
        waveform: Waveform::Tone { freq_hz: 440.0 },
    }
}

/// The 4-node line world the crash/reboot scenarios run on.
fn line_world(seed: u64) -> (World, Vec<NodeId>) {
    let mut wcfg = indoor_world_config(seed);
    wcfg.radio.range_ft = 11.0;
    let mut world = World::new(wcfg);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let nodes = (0..4)
        .map(|i| {
            world.add_node(
                Position::new(f64::from(i) * 2.0, 0.0),
                Box::new(EnviroMicNode::new(cfg.clone())),
            )
        })
        .collect();
    world
        .add_source(tone(1, Position::new(3.0, 0.0), 5.0, 12.0, 10.0))
        .unwrap();
    world
        .add_source(tone(2, Position::new(3.0, 0.0), 160.0, 167.0, 10.0))
        .unwrap();
    (world, nodes)
}

#[test]
fn network_survives_a_node_dying_mid_run() {
    // FaultPlan port of the battery-tuning original: the elected leader is
    // crashed in the middle of the first event and rebooted later. The
    // survivors must keep recording (liveness watchdog takeover) and the
    // rebooted node must rejoin in time for the second event.
    let at = |s: f64| SimTime::ZERO + SimDuration::from_secs_f64(s);

    // Discovery run (fault-free, same seed): who leads the first event?
    let (mut probe, _) = line_world(31);
    probe.run_for_secs(7.0);
    let leader = probe
        .trace()
        .iter()
        .find_map(|e| match e {
            TraceEvent::LeaderElected { node, .. } => Some(*node),
            _ => None,
        })
        .expect("the first event elects a leader");

    // Fault run: crash that leader mid-event, reboot it at t = 20 s.
    let (mut world, nodes) = line_world(31);
    let plan = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: at(6.5),
            node: leader,
        })
        .with(FaultEvent::NodeReboot {
            at: at(20.0),
            node: leader,
        });
    world.inject_faults(&plan).expect("valid plan");
    world.run_for_secs(180.0);

    let kinds: Vec<FaultKind> = world
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FaultInjected { kind, node, .. } if *node == Some(leader) => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(
        kinds,
        vec![FaultKind::Crash, FaultKind::Reboot],
        "both faults fired"
    );

    // The group kept recording the first event after losing its leader...
    let survived = world.trace().iter().any(|e| {
        matches!(e, TraceEvent::Recorded { node, t0, .. }
            if *node != leader && t0.as_secs_f64() > 6.5 && t0.as_secs_f64() < 14.0)
    });
    assert!(survived, "no survivor recorded past the leader crash");
    // ...and the second event, long after the reboot, was covered too.
    let late = world
        .trace()
        .iter()
        .any(|e| matches!(e, TraceEvent::Recorded { t0, .. } if t0.as_secs_f64() >= 159.0));
    assert!(late, "second event missed after the reboot");
    // The rebooted node is alive at the horizon (crash preserved energy).
    assert!(world.energy_of(leader) > 0.0, "rebooted leader died");
    assert!(world.now().as_secs_f64() >= 180.0);
    let _ = nodes;
}

#[test]
fn legacy_energy_depletion_kills_nodes() {
    // The original battery-tuning scenario, kept on the organic path: no
    // scheduled faults, batteries sized so one heavy recorder dies
    // partway through; the group keeps recording with the survivors.
    let mut wcfg = indoor_world_config(31);
    wcfg.radio.range_ft = 11.0;
    // Deplete fast: idle draw high enough that nodes die around t=60 s.
    wcfg.energy.battery_mj = 6_000.0;
    wcfg.energy.idle_mw = 0.0;
    wcfg.energy.radio_listen_mw = 59.1;
    let mut world = World::new(wcfg);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let nodes: Vec<NodeId> = (0..4)
        .map(|i| {
            world.add_node(
                Position::new(f64::from(i) * 2.0, 0.0),
                Box::new(EnviroMicNode::new(cfg.clone())),
            )
        })
        .collect();
    // Events before and after the die-off around t ≈ 100 s.
    world
        .add_source(tone(1, Position::new(3.0, 0.0), 5.0, 12.0, 10.0))
        .unwrap();
    world
        .add_source(tone(2, Position::new(3.0, 0.0), 160.0, 167.0, 10.0))
        .unwrap();
    world.run_for_secs(180.0);

    // At least one node died (recording costs energy on top of listening).
    let energies: Vec<f64> = nodes.iter().map(|&n| world.energy_of(n)).collect();
    assert!(
        energies.contains(&0.0),
        "fault injection failed to kill anyone: {energies:?}"
    );
    // The first event was recorded.
    let early = world
        .trace()
        .iter()
        .any(|e| matches!(e, TraceEvent::Recorded { t0, .. } if t0.as_secs_f64() < 20.0));
    assert!(early, "first event missed");
    // Dead nodes stop transmitting: no message in the trace is sent by a
    // node after its battery hit zero (checked implicitly by the world;
    // here we just confirm the sim kept going to the horizon).
    assert!(world.now().as_secs_f64() >= 180.0);
}

#[test]
fn collected_dead_mote_yields_its_data() {
    // A mote records, "dies", and is physically collected: offline
    // recovery from flash + EEPROM returns every chunk it held.
    let scenario = mobile_scenario();
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let mut world = build_world(&scenario, &cfg, indoor_world_config(32));
    world.run_for_secs(16.0);
    let mut recovered_total = 0u32;
    for i in 0..scenario.topology.len() {
        let node = world
            .app_as::<EnviroMicNode>(NodeId::from_index(i))
            .expect("protocol node");
        let live = node.stored_chunks();
        let recovered = recover_collected_mote(node.store().clone());
        assert!(
            recovered.len() as u32 >= live,
            "n{i}: recovery lost chunks ({} < {live})",
            recovered.len()
        );
        recovered_total += recovered.len() as u32;
    }
    assert!(recovered_total > 0, "nothing recorded at all");
}

#[test]
fn extreme_packet_loss_degrades_gracefully() {
    // At 40% loss the protocol must still record a useful fraction and
    // must not deadlock or panic.
    let scenario = indoor_scenario(300.0, 33);
    let mut wcfg = indoor_world_config(33);
    wcfg.radio.loss_prob = 0.40;
    wcfg.mic_gain_spread = 0.10;
    let cfg = NodeConfig::default().with_flash_chunks(650);
    let run = enviromic::harness::run_scenario(scenario, &cfg, wcfg, 10.0);
    let miss = run.experiment().miss_ratio(300.0);
    assert!(
        miss < 0.6,
        "40% loss should degrade, not destroy, recording: miss {miss:.3}"
    );
}

#[test]
fn full_store_reports_drops_not_crashes() {
    // A node with a near-zero store must keep running and account every
    // dropped block.
    let mut wcfg = indoor_world_config(34);
    wcfg.radio.range_ft = 11.0;
    let mut world = World::new(wcfg);
    let cfg = NodeConfig::default()
        .with_mode(Mode::CooperativeOnly)
        .with_flash_chunks(4); // < one second of audio
    for i in 0..3 {
        world.add_node(
            Position::new(f64::from(i) * 2.0, 0.0),
            Box::new(EnviroMicNode::new(cfg.clone())),
        );
    }
    world
        .add_source(tone(1, Position::new(2.0, 0.0), 2.0, 12.0, 8.0))
        .unwrap();
    world.run_for_secs(20.0);
    let dropped = world
        .trace()
        .iter()
        .any(|e| matches!(e, TraceEvent::RecordDropped { .. }));
    assert!(dropped, "saturated stores must surface drops in the trace");
}

proptest! {
    /// ANY fault plan — not just the curated chaos schedules — produces
    /// bit-identical per-seed digests whether the sweep runs on 1 worker
    /// or 4. Faults ride the event queue, so worker count can only move
    /// jobs between threads, never reorder a job's events.
    #[test]
    fn any_fault_plan_is_deterministic_across_workers(
        raw in proptest::collection::vec(
            // (kind, node, time a, time b, loss %, flash block); times in
            // deciseconds within the 12 s run.
            (0u8..5, 0u32..4, 1u64..110, 1u64..110, 0u8..=100, 0u32..8),
            0..7,
        )
    ) {
        let at = |d: u64| SimTime::ZERO + SimDuration::from_secs_f64(d as f64 * 0.1);
        let mut plan = FaultPlan::new();
        for &(kind, node, a, b, pct, block) in &raw {
            let (lo, hi) = if a < b { (a, b) } else { (b, a + 1) };
            match kind {
                0 => plan.push(FaultEvent::NodeCrash { at: at(a), node: NodeId(node) }),
                1 => plan.push(FaultEvent::NodeReboot { at: at(a), node: NodeId(node) }),
                2 => plan.push(FaultEvent::RadioBlackout {
                    from: at(lo),
                    until: at(hi),
                    scope: if node % 2 == 0 {
                        FaultScope::All
                    } else {
                        FaultScope::Node(NodeId(node))
                    },
                }),
                3 => plan.push(FaultEvent::LinkDegrade {
                    from: at(lo),
                    until: at(hi),
                    loss_prob: f64::from(pct) / 100.0,
                }),
                _ => plan.push(FaultEvent::FlashBadBlock {
                    at: at(a),
                    node: NodeId(node),
                    block,
                }),
            }
        }
        let spec_plan = plan.clone();
        let spec = ScenarioSpec::new("prop-chaos", move |seed| JobInput {
            scenario: indoor_scenario(12.0, seed),
            node_cfg: NodeConfig::default().with_mode(Mode::Full),
            world_cfg: indoor_world_config(seed),
            drain_secs: 2.0,
            faults: spec_plan.clone(),
        });
        let sweep = SweepPlan::new(vec![7, 8], vec![spec]);
        let serial = run_sweep(&sweep, 1);
        let pooled = run_sweep(&sweep, 4);
        prop_assert_eq!(serial.summary().jobs, pooled.summary().jobs);
    }
}
