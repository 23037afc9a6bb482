//! End-to-end telemetry pipeline: a cooperative recording run must
//! populate the protocol and physical-layer counters that the dashboard
//! and the JSON export are built on.

use enviromic::core::{Mode, NodeConfig};
use enviromic::harness::{indoor_world_config, run_scenario};
use enviromic::telemetry::TelemetryReport;
use enviromic::workloads::mobile_scenario;

#[test]
fn cooperative_run_populates_protocol_counters() {
    let scenario = mobile_scenario();
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let run = run_scenario(scenario, &cfg, indoor_world_config(1), 2.0);
    let t = &run.telemetry;

    assert!(
        t.counter_sum("core.election.") >= 1,
        "no election activity recorded: {:?}",
        t.counters
    );
    assert!(
        t.counter("core.task.assigned").unwrap_or(0) >= 1,
        "no task assignments recorded: {:?}",
        t.counters
    );
    assert!(t.counter("sim.packets.sent").unwrap_or(0) > 0);
    assert!(t.counter("sim.packets.delivered").unwrap_or(0) > 0);
    // World::finish ran the end-of-run flash wear scrape on every node.
    assert!(t.histogram("flash.block_writes").is_some());

    // The same report renders as text and survives the JSON export path.
    let dashboard = t.render_dashboard();
    assert!(dashboard.contains("core.task.assigned"));
    let back: TelemetryReport = serde::from_json(&serde::to_json(&t)).expect("export round-trips");
    assert_eq!(&back, t);
}
