//! Data-mule retrieval and crash recovery: the disconnected operation
//! story end to end (§II-C, §III-B.3).
//!
//! ```sh
//! cargo run --release --example data_mule_retrieval
//! ```
//!
//! A small network records a few events. Later, a researcher walks into
//! radio range with a data mule and retrieves everything over one-hop
//! reliable transfers. One mote has "crashed" in the meantime — its flash
//! is recovered from the EEPROM pointer checkpoints after physical
//! collection, the paper's ultimate fallback.

use enviromic::core::{
    recover_collected_mote, DataMule, EnviroMicNode, Mode, MuleConfig, NodeConfig, RetrievalMode,
};
use enviromic::sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic::sim::{World, WorldConfig};
use enviromic::types::{NodeId, Position, SimDuration, SimTime};

fn main() {
    let mut wcfg = WorldConfig::with_seed(99);
    wcfg.radio.range_ft = 12.0;
    wcfg.radio.loss_prob = 0.08; // retrieval must survive a lossy link
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

    // Two bird calls, a minute apart.
    for (k, start) in [(0u32, 3.0f64), (1, 40.0)] {
        world
            .add_source(SourceSpec {
                id: SourceId(k),
                start: SimTime::ZERO + SimDuration::from_secs_f64(start),
                stop: SimTime::ZERO + SimDuration::from_secs_f64(start + 6.0),
                amplitude: 120.0,
                range_ft: 8.0,
                motion: Motion::Static(Position::new(3.0, 1.0)),
                waveform: Waveform::Tone { freq_hz: 880.0 },
            })
            .expect("valid source");
    }

    // The mule arrives after the events and queries everything.
    let mule_id = world.add_node(
        Position::new(3.0, 2.0),
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(60.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(40.0),
        })),
    );

    world.run_for_secs(220.0);

    let total_stored: u32 = nodes
        .iter()
        .map(|&n| world.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    let mule = world.app_as::<DataMule>(mule_id).expect("mule");
    println!(
        "network stored {total_stored} chunks; mule retrieved {} ({} files)",
        mule.chunks().len(),
        mule.files().len()
    );
    for f in mule.files() {
        println!(
            "  file {:?}: {:.1}s of audio, {} chunks, {} gaps",
            f.event.map(|e| e.to_string()),
            f.audio_secs(),
            f.chunks.len(),
            f.gaps()
        );
    }

    // Crash-recovery path: pretend node 1 died before retrieval; collect
    // its flash + EEPROM physically and recover the chunk store offline.
    println!("\nsimulated crash recovery of a collected mote:");
    // (In the simulation we clone the live store as the \"collected\"
    // image — recovery must reconstruct the same chunk sequence from the
    // raw flash and the EEPROM pointer checkpoint.)
    let node1 = world.app_as::<EnviroMicNode>(nodes[1]).expect("node");
    let live: u32 = node1.stored_chunks();
    let recovered = recover_collected_mote(node1.store().clone());
    println!(
        "  node n1: {live} chunks live, {} recovered offline",
        recovered.len()
    );
    assert!(recovered.len() as u32 >= live, "recovery lost chunks");
}
