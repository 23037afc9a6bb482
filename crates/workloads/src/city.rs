//! A city-block workload at smart-city scale.
//!
//! The paper's testbeds stop at 48 motes; the regime targeted by the
//! related flooding-based-storage and smart-city audio-acquisition work is
//! 10k+ nodes over miles of streets. This generator lays acoustic motes
//! out like lampposts: a square grid of city blocks, nodes spaced evenly
//! around every block perimeter with a small seeded jitter. Sound sources
//! are what a city produces — vehicles driving down streets (mobile
//! waypoint sources spanning the whole deployment) and localized static
//! events (sirens, construction) at intersections.
//!
//! Everything derives from the seed, so the scenario honours the same
//! sweep-determinism contract as the paper workloads; the 1k–100k
//! instances are the rows of the committed `BENCH_scale.json`.

use crate::grid::Topology;
use crate::scenario::Scenario;
use enviromic_sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic_sim::rng::RngStreams;
use enviromic_types::{Position, SimDuration, SimTime};
use rand::Rng;

/// Parameters of the city-block run; defaults give ~10 000 nodes over a
/// roughly 2-mile-square street grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CityParams {
    /// Total number of nodes (lampposts). The block grid is sized to hold
    /// exactly this many.
    pub nodes: usize,
    /// Edge length of one square city block, feet.
    pub block_ft: f64,
    /// Nodes placed around each block's perimeter.
    pub nodes_per_block: usize,
    /// Total experiment duration, seconds.
    pub duration_secs: f64,
    /// Vehicles: mobile sources driving a street end to end.
    pub mobile_sources: usize,
    /// Sirens/construction: static sources at random intersections.
    pub static_sources: usize,
    /// Emission amplitude of every source.
    pub amplitude: f64,
    /// Audible range of every source, feet.
    pub range_ft: f64,
}

impl Default for CityParams {
    fn default() -> Self {
        CityParams {
            nodes: 10_000,
            block_ft: 300.0,
            nodes_per_block: 8,
            duration_secs: 20.0,
            mobile_sources: 8,
            static_sources: 16,
            amplitude: 140.0,
            range_ft: 120.0,
        }
    }
}

impl CityParams {
    /// The default city scaled to `nodes` total nodes — the knob the
    /// 1k/4k/10k scale rows turn.
    #[must_use]
    pub fn with_nodes(nodes: usize) -> Self {
        CityParams {
            nodes,
            ..CityParams::default()
        }
    }

    /// Blocks per side of the (square) block grid.
    fn blocks_per_side(&self) -> usize {
        let blocks = self.nodes.div_ceil(self.nodes_per_block);
        (blocks as f64).sqrt().ceil() as usize
    }
}

/// Builds the city-block scenario. All randomness (lamppost jitter, source
/// placement and timing) derives from `seed`; two calls with the same
/// inputs are identical — the sweep determinism contract.
///
/// # Panics
///
/// Panics when `nodes` or `nodes_per_block` is zero.
#[must_use]
pub fn city_scenario(params: &CityParams, seed: u64) -> Scenario {
    assert!(params.nodes > 0, "city must have nodes");
    assert!(params.nodes_per_block > 0, "blocks must hold nodes");
    let side = params.blocks_per_side();
    let extent_ft = side as f64 * params.block_ft;
    let mut rng = RngStreams::new(seed).stream("city", 0);

    // Lampposts: walk the block grid row-major, placing nodes evenly
    // around each block's perimeter with a small jitter, until the node
    // budget is spent. Node IDs therefore ascend block-major, which keeps
    // spatially close nodes close in index space (friendly to the
    // delivery grid's ascending-index iteration).
    let mut positions = Vec::with_capacity(params.nodes);
    let perimeter = 4.0 * params.block_ft;
    let step = perimeter / params.nodes_per_block as f64;
    'blocks: for by in 0..side {
        for bx in 0..side {
            let (x0, y0) = (bx as f64 * params.block_ft, by as f64 * params.block_ft);
            for k in 0..params.nodes_per_block {
                if positions.len() == params.nodes {
                    break 'blocks;
                }
                let along = k as f64 * step;
                let (dx, dy) = walk_perimeter(along, params.block_ft);
                let jx = rng.gen_range(-4.0..4.0);
                let jy = rng.gen_range(-4.0..4.0);
                positions.push(Position::new(x0 + dx + jx, y0 + dy + jy));
            }
        }
    }
    let topology = Topology::from_positions(positions, side, side);

    let mut sources = Vec::with_capacity(params.mobile_sources + params.static_sources);
    // Vehicles: each drives one full street (a horizontal or vertical grid
    // line) end to end at ~30 ft/s, starting staggered through the run.
    for i in 0..params.mobile_sources {
        let lane = rng.gen_range(0..=side) as f64 * params.block_ft;
        let horizontal = rng.gen_range(0..2u8) == 0;
        let (from, to) = if horizontal {
            (Position::new(0.0, lane), Position::new(extent_ft, lane))
        } else {
            (Position::new(lane, 0.0), Position::new(lane, extent_ft))
        };
        let speed_fps = rng.gen_range(25.0..45.0);
        let start_s = rng.gen_range(0.0..params.duration_secs * 0.5);
        let travel_s = (extent_ft / speed_fps).min(params.duration_secs - start_s);
        let start = SimTime::ZERO + SimDuration::from_secs_f64(start_s);
        let stop = start + SimDuration::from_secs_f64(travel_s.max(1.0));
        sources.push(SourceSpec {
            id: SourceId(i as u32),
            start,
            stop,
            amplitude: params.amplitude,
            range_ft: params.range_ft,
            motion: Motion::Waypoints(vec![(start, from), (stop, to)]),
            waveform: Waveform::Noise,
        });
    }
    // Sirens and construction: static bursts at intersections.
    for i in 0..params.static_sources {
        let ix = rng.gen_range(0..=side) as f64 * params.block_ft;
        let iy = rng.gen_range(0..=side) as f64 * params.block_ft;
        let start_s = rng.gen_range(0.0..params.duration_secs * 0.7);
        let len_s = rng.gen_range(2.0..8.0);
        sources.push(SourceSpec {
            id: SourceId((params.mobile_sources + i) as u32),
            start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(start_s + len_s),
            amplitude: params.amplitude,
            range_ft: params.range_ft,
            motion: Motion::Static(Position::new(ix, iy)),
            waveform: Waveform::Tone {
                freq_hz: 500.0 + 40.0 * i as f64,
            },
        });
    }
    Scenario {
        topology,
        sources,
        duration: SimDuration::from_secs_f64(params.duration_secs),
    }
}

/// Maps a distance along a block perimeter (counter-clockwise from the
/// south-west corner) to an offset within the block.
fn walk_perimeter(along: f64, block_ft: f64) -> (f64, f64) {
    let along = along % (4.0 * block_ft);
    if along < block_ft {
        (along, 0.0)
    } else if along < 2.0 * block_ft {
        (block_ft, along - block_ft)
    } else if along < 3.0 * block_ft {
        (3.0 * block_ft - along, block_ft)
    } else {
        (0.0, 4.0 * block_ft - along)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_city_is_ten_thousand_nodes_and_valid() {
        let s = city_scenario(&CityParams::default(), 42);
        assert_eq!(s.topology.len(), 10_000);
        assert_eq!(s.sources.len(), 24);
        assert!(s.validate().is_ok());
        assert!(s.sources.iter().any(|src| src.motion.is_mobile()));
    }

    #[test]
    fn node_budget_is_exact_at_any_scale() {
        for nodes in [1, 7, 1000, 4000] {
            let s = city_scenario(&CityParams::with_nodes(nodes), 1);
            assert_eq!(s.topology.len(), nodes, "requested {nodes}");
        }
    }

    #[test]
    fn scenario_is_deterministic_in_seed() {
        let p = CityParams::with_nodes(500);
        let a = city_scenario(&p, 7);
        let b = city_scenario(&p, 7);
        assert_eq!(a.topology.positions(), b.topology.positions());
        assert_eq!(a.sources, b.sources);
        assert_ne!(
            city_scenario(&p, 8).sources,
            a.sources,
            "different seeds should move the sources"
        );
    }

    #[test]
    fn perimeter_walk_stays_on_the_block_edge() {
        let b = 300.0;
        for k in 0..24 {
            let (x, y) = walk_perimeter(k as f64 * 50.0, b);
            let on_edge =
                x.abs() < 1e-9 || y.abs() < 1e-9 || (x - b).abs() < 1e-9 || (y - b).abs() < 1e-9;
            assert!(on_edge, "({x}, {y}) is not on the perimeter");
            assert!((0.0..=b).contains(&x) && (0.0..=b).contains(&y));
        }
    }
}
