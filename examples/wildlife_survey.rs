//! Wildlife survey: the avian-ecology deployment the paper plans in
//! §IV-D, on the first hour of the §IV-C forest soundscape.
//!
//! ```sh
//! cargo run --release --example wildlife_survey
//! ```
//!
//! Thirty-six motes in a forest plot record road noise, trail
//! vocalizations, background calls, and the 11:30–11:40 burst of people
//! working mid-plot; storage balancing spreads the road-adjacent
//! hotspot's data across the network. Afterwards the "researchers"
//! summarize vocal activity over time and the storage map — the raw
//! material for dawn-chorus / nocturnal-singing studies.

use enviromic::core::{EnviroMicNode, NodeConfig};
use enviromic::harness::{build_world, forest_world_config};
use enviromic::metrics::{ContourGrid, Experiment};
use enviromic::types::{NodeId, SimDuration};
use enviromic::workloads::{forest_scenario, wall_clock_label};

/// 10:45–11:45: the hour that holds spike 1 (2,700–3,300 s).
const SLICE_SECS: f64 = 3_600.0;
/// Width of one activity bar, seconds.
const BIN_SECS: f64 = 180.0;

fn main() {
    let scenario = forest_scenario(SLICE_SECS, 2026);
    println!(
        "deploying {} motes over ~105x105 ft; {} ground-truth events scheduled\n",
        scenario.topology.len(),
        scenario.sources.len()
    );

    // Small flash stores so balancing has work to do within the hour.
    let cfg = NodeConfig::default()
        .with_flash_chunks(512)
        .with_beta_max(2.0);
    let mut wcfg = forest_world_config(2026);
    wcfg.mic_gain_spread = 0.1;
    let mut world = build_world(&scenario, &cfg, wcfg);
    world.run_until(scenario.end() + SimDuration::from_secs_f64(10.0));

    let trace = world.trace();
    let exp = Experiment::new(trace, &scenario.sources, scenario.topology.positions());

    println!("vocal activity per 3 minutes (seconds of audio recorded):");
    for bin in 0..(SLICE_SECS / BIN_SECS) as u32 {
        let from = f64::from(bin) * BIN_SECS;
        let secs = exp.recorded_secs_between(from, from + BIN_SECS);
        let bar = "#".repeat((secs / 5.0).round() as usize);
        println!("  {} {:>6.1}s |{}", wall_clock_label(from), secs, bar);
    }

    // Storage after balancing: the road hotspot should have shed data.
    let topo = &scenario.topology;
    let stored: Vec<f64> = (0..topo.len())
        .map(|i| {
            f64::from(
                world
                    .app_as::<EnviroMicNode>(NodeId::from_index(i))
                    .expect("protocol node")
                    .stored_chunks(),
            )
        })
        .collect();
    let cells: Vec<(usize, usize)> = (0..topo.len()).map(|i| topo.cell_of(i)).collect();
    let grid = ContourGrid::from_node_values(topo.cols, topo.rows, &cells, &stored);
    println!(
        "\n{}",
        grid.render("stored chunks per plot cell (west road at the left edge)")
    );

    let migrations: u64 = (0..topo.len())
        .map(|i| {
            world
                .app_as::<EnviroMicNode>(NodeId::from_index(i))
                .expect("protocol node")
                .stats()
                .chunks_migrated_out
        })
        .sum();
    println!("chunks migrated for balance: {migrations}");
}
