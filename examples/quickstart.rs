//! Quickstart: a tiny EnviroMic network records one acoustic event
//! cooperatively.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Six motes in a line hear a 10-second tone; the group elects a leader,
//! rotates the recording task, and we inspect what ended up in flash.

use enviromic::core::{EnviroMicNode, Mode, NodeConfig};
use enviromic::sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic::sim::{RecordKind, TraceEvent, World, WorldConfig};
use enviromic::types::{NodeId, Position, SimDuration, SimTime};

fn main() {
    // A world with slightly lossy radios, like a real deployment.
    let mut wcfg = WorldConfig::with_seed(42);
    wcfg.radio.range_ft = 12.0;
    wcfg.radio.loss_prob = 0.05;
    let mut world = World::new(wcfg);

    // Six motes, two feet apart, running the full protocol.
    let cfg = NodeConfig::default().with_mode(Mode::Full);
    let nodes: Vec<NodeId> = (0..6)
        .map(|i| {
            world.add_node(
                Position::new(f64::from(i) * 2.0, 0.0),
                Box::new(EnviroMicNode::new(cfg.clone())),
            )
        })
        .collect();

    // One bird sings for ten seconds near the middle of the line.
    world
        .add_source(SourceSpec {
            id: SourceId(1),
            start: SimTime::ZERO + SimDuration::from_secs_f64(2.0),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(12.0),
            amplitude: 120.0,
            range_ft: 6.0,
            motion: Motion::Static(Position::new(5.0, 1.0)),
            waveform: Waveform::Tone { freq_hz: 740.0 },
        })
        .expect("valid source");

    world.run_for_secs(20.0);

    // Who led, who recorded, what is stored?
    for event in world.trace().iter() {
        match event {
            TraceEvent::LeaderElected { node, event, t, .. } => {
                println!("{t}  {node} elected leader, file id {event}");
            }
            TraceEvent::Recorded {
                node,
                t0,
                t1,
                kind: RecordKind::Task,
                ..
            } => println!("{t1}  {node} recorded {t0} .. {t1}"),
            _ => {}
        }
    }
    println!();
    for &id in &nodes {
        let node = world.app_as::<EnviroMicNode>(id).expect("protocol node");
        let tasks = world
            .trace()
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Recorded { node, kind: RecordKind::Task, .. } if *node == id)
            })
            .count();
        println!(
            "{id}: {} chunks in flash ({tasks} tasks performed)",
            node.stored_chunks()
        );
    }
    let total: u32 = nodes
        .iter()
        .map(|&id| world.app_as::<EnviroMicNode>(id).unwrap().stored_chunks())
        .sum();
    println!(
        "\ntotal stored: {} chunks ≈ {:.1} s of audio for a 10 s event",
        total,
        enviromic::types::audio::chunks_to_secs(u64::from(total))
    );
}
