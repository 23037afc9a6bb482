//! Replay microbenchmarks for time the wrappers cannot split: work that
//! happens inside one runtime call or one callback. Each replays the
//! workload's own inputs (its positions, sources, delivered payloads and
//! stored chunks) after the traced run, outside the timed loop.

use crate::workloads::{ratio, set, Values};
use enviromic::core::EnviroMicNode;
use enviromic::flash::{Chunk, ChunkStore};
use enviromic::net::decode_envelope;
use enviromic::sim::acoustics::{AcousticField, MixScratch};
use enviromic::sim::spatial::{AudibleIndex, NodeGrid};
use enviromic::sim::World;
use enviromic::sweep::JobInput;
use enviromic::types::{audio, NodeId, SimDuration};
use std::hint::black_box;
use std::time::Instant;

/// Each replay repeats its pass until at least this much time was spent.
const MIN_REPLAY_S: f64 = 0.05;
/// Stored chunks copied out of the world for the flash replays.
const MAX_CHUNKS: usize = 256;
/// Audio blocks synthesized by the synthesis replay.
const MAX_BLOCKS: usize = 256;

/// Runs `pass` (which handles `units` items) until [`MIN_REPLAY_S`] has
/// elapsed and returns nanoseconds per item.
fn ns_per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    if units == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed().as_secs_f64() < MIN_REPLAY_S {
        pass();
        passes += 1;
    }
    started.elapsed().as_secs_f64() * 1e9 / (passes as f64 * units as f64)
}

/// All sim-side replays for one finished job.
pub fn sim(v: &mut Values, input: &JobInput, world: &World, payloads: &[Vec<u8>]) {
    let decode_ns = ns_per_unit(payloads.len(), || {
        for p in payloads {
            let _ = black_box(decode_envelope(black_box(p)));
        }
    });
    set(v, "net.decode.ns_per_packet", decode_ns);
    set(
        v,
        "net.decode.share",
        ratio(decode_ns, v["core.packet.self_ns"]),
    );
    flash(v, input, world);
    spatial(v, input);
}

/// `ChunkStore::push_back` into an empty store of the workload's size,
/// and `ChunkStore::recover` of a full one.
fn flash(v: &mut Values, input: &JobInput, world: &World) {
    let chunks: Vec<Chunk> = (0..world.node_count())
        .filter_map(|n| world.app_as::<EnviroMicNode>(NodeId::from_index(n)))
        .flat_map(|node| node.store().iter())
        .take(MAX_CHUNKS)
        .collect();
    let blocks = input.node_cfg.flash_chunks;
    let interval = input.node_cfg.checkpoint_interval;
    let fill = |store: &mut ChunkStore| {
        for chunk in chunks.iter().cycle().take(blocks as usize) {
            store
                .push_back(chunk.clone())
                .expect("an empty store takes one chunk per block");
        }
    };
    let (push_ns, recover_ns) = if chunks.is_empty() {
        (0.0, 0.0)
    } else {
        let push_ns = ns_per_unit(blocks as usize, || {
            let mut store = ChunkStore::new(blocks, interval);
            fill(&mut store);
            black_box(store);
        });
        let mut full = ChunkStore::new(blocks, interval);
        fill(&mut full);
        let recover_ns = ns_per_unit(1, || {
            let (flash, eeprom) = full.clone().into_parts();
            black_box(ChunkStore::recover(flash, eeprom, interval));
        });
        (push_ns, recover_ns)
    };
    set(v, "flash.push_ns", push_ns);
    set(v, "flash.recover_ns", recover_ns);
}

/// `NodeGrid::query_sorted` at every node position,
/// `AudibleIndex::peak_level` at every node at each source's midpoint,
/// and `AcousticField::synthesize_batch` over one audio block per
/// (source, hearing node) pair.
fn spatial(v: &mut Values, input: &JobInput) {
    let positions = input.scenario.topology.positions();
    let range = input.world_cfg.radio.range_ft;
    let grid = NodeGrid::build(positions, &vec![true; positions.len()], range);
    let mut out = Vec::new();
    let grid_ns = ns_per_unit(positions.len(), || {
        for &p in positions {
            grid.query_sorted(p, range, &mut out);
            black_box(&out);
        }
    });
    set(v, "sim.grid.query_ns", grid_ns);

    let sources = &input.scenario.sources;
    let mut field = AcousticField::new();
    for s in sources {
        field
            .add_source(s.clone())
            .expect("workload sources are valid");
    }
    let audible = AudibleIndex::build(positions, sources);
    let instants: Vec<_> = sources
        .iter()
        .take(8)
        .map(|s| s.start + SimDuration::from_jiffies(s.duration().as_jiffies() / 2))
        .collect();
    let peak_ns = ns_per_unit(positions.len() * instants.len(), || {
        for &t in &instants {
            for (n, &p) in positions.iter().enumerate() {
                black_box(audible.peak_level(&field, n, p, t));
            }
        }
    });
    set(v, "sim.audible.peak_ns", peak_ns);

    // One block per (source, node that can hear it), at the source's
    // midpoint, until MAX_BLOCKS.
    let block = audio::chunk_duration();
    let mut blocks = Vec::new();
    'outer: for (si, s) in sources.iter().enumerate() {
        let t0 = s.start + SimDuration::from_jiffies(s.duration().as_jiffies() / 2);
        for (n, &p) in positions.iter().enumerate() {
            if audible.entries(n).iter().any(|e| e.source as usize == si) {
                let mut candidates = Vec::new();
                audible.block_sources(n, t0, t0 + block, &mut candidates);
                blocks.push((candidates, p, t0.as_secs_f64()));
                if blocks.len() == MAX_BLOCKS {
                    break 'outer;
                }
            }
        }
    }
    let noise = vec![0.0; audio::SAMPLES_PER_CHUNK as usize];
    let mut scratch = MixScratch::new();
    let mut samples = Vec::new();
    let synth_ns = ns_per_unit(blocks.len() * noise.len(), || {
        for (candidates, p, t0_s) in &blocks {
            field.synthesize_batch(candidates, *p, *t0_s, &noise, &mut scratch, &mut samples);
            black_box(&samples);
        }
    });
    set(v, "sim.synth.ns_per_sample", synth_ns);
}
