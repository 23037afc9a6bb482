//! Experiment harness: assembles a [`World`] from a workload
//! [`Scenario`] and a node configuration, runs it, and hands back the
//! trace wired up for metric extraction.
//!
//! This is the one place where the paper's testbed conditions (radio
//! ranges, loss rates, MAC timing) are pinned down per environment, so
//! every example, test, and benchmark reproduces the same setups.

use enviromic_core::{EnviroMicNode, NodeConfig};
use enviromic_metrics::Experiment;
use enviromic_sim::{FaultPlan, Trace, World, WorldConfig};
use enviromic_telemetry::{TelemetryReport, TimelineReport};
use enviromic_types::{Position, SimDuration};
use enviromic_workloads::Scenario;

/// World configuration for the indoor testbed (§IV-A/B): 2 ft grid, radio
/// range a little over one grid diagonal so each event group shares one
/// leader, and MAC timing calibrated so the measured task-assignment delay
/// levels off around the paper's 70 ms.
#[must_use]
pub fn indoor_world_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::with_seed(seed);
    cfg.radio.range_ft = 3.2;
    cfg.radio.loss_prob = 0.05;
    cfg.radio.mac_delay_max = SimDuration::from_millis(60);
    cfg.radio.per_hop_latency = SimDuration::from_millis(5);
    cfg
}

/// World configuration for the forest deployment (§IV-C): sparser nodes,
/// longer radio range, lossier links.
#[must_use]
pub fn forest_world_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::with_seed(seed);
    cfg.radio.range_ft = 30.0;
    cfg.radio.loss_prob = 0.10;
    cfg.radio.mac_delay_max = SimDuration::from_millis(30);
    cfg.radio.per_hop_latency = SimDuration::from_millis(5);
    cfg
}

/// World configuration for the city-block deployment (the 10k-node scale
/// workload): lampposts roughly 150 ft apart along streets, so the radio
/// reaches the next lamppost and across an intersection but not much
/// further — groups stay block-local even at 10 000 nodes. Urban RF is
/// messier than the indoor testbed, hence the higher loss.
#[must_use]
pub fn city_world_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::with_seed(seed);
    cfg.radio.range_ft = 180.0;
    cfg.radio.loss_prob = 0.08;
    cfg.radio.mac_delay_max = SimDuration::from_millis(30);
    cfg.radio.per_hop_latency = SimDuration::from_millis(5);
    cfg
}

/// A completed run: the scenario that drove it, the trace it produced, and
/// the runtime telemetry collected while it executed.
#[derive(Debug)]
pub struct ExperimentRun {
    /// The workload that was executed.
    pub scenario: Scenario,
    /// The resulting simulation trace; digest-only (no records) when the
    /// world config turned [`WorldConfig::keep_trace_records`] off.
    pub trace: Trace,
    /// Snapshot of the run's telemetry registry: protocol counters,
    /// latency histograms, flash wear, and physical-layer statistics.
    pub telemetry: TelemetryReport,
    /// Sim-time metric timeline, present when the world config set
    /// [`WorldConfig::timeline_sample_period`].
    pub timeline: Option<TimelineReport>,
}

impl ExperimentRun {
    /// A metrics view over the run.
    #[must_use]
    pub fn experiment(&self) -> Experiment<'_> {
        Experiment::new(
            &self.trace,
            &self.scenario.sources,
            self.scenario.topology.positions(),
        )
    }

    /// Node positions in node-ID order.
    #[must_use]
    pub fn positions(&self) -> &[Position] {
        self.scenario.topology.positions()
    }
}

/// Builds the world for `scenario` with one [`EnviroMicNode`] per
/// topology position, ready to run. Use this when the caller needs to add
/// extra applications (e.g. a data mule) before running.
///
/// # Panics
///
/// Panics when the scenario is invalid.
#[must_use]
pub fn build_world(scenario: &Scenario, node_cfg: &NodeConfig, world_cfg: WorldConfig) -> World {
    scenario
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let mut world = World::new(world_cfg);
    for &pos in scenario.topology.positions() {
        world.add_node(pos, Box::new(EnviroMicNode::new(node_cfg.clone())));
    }
    for source in &scenario.sources {
        world
            .add_source(source.clone())
            .unwrap_or_else(|e| panic!("invalid source: {e}"));
    }
    world
}

/// Runs `scenario` to completion (plus `drain_secs` of quiet time for
/// in-flight transfers) and returns the trace.
///
/// # Panics
///
/// Panics when the scenario is invalid.
#[must_use]
pub fn run_scenario(
    scenario: Scenario,
    node_cfg: &NodeConfig,
    world_cfg: WorldConfig,
    drain_secs: f64,
) -> ExperimentRun {
    run_scenario_with_faults(scenario, node_cfg, world_cfg, drain_secs, &FaultPlan::new())
}

/// Like [`run_scenario`], with a schedule of injected faults (crashes,
/// reboots, blackouts, link degradation, bad flash blocks). An empty plan
/// is bit-identical to [`run_scenario`].
///
/// # Panics
///
/// Panics when the scenario or the fault plan is invalid.
#[must_use]
pub fn run_scenario_with_faults(
    scenario: Scenario,
    node_cfg: &NodeConfig,
    world_cfg: WorldConfig,
    drain_secs: f64,
    faults: &FaultPlan,
) -> ExperimentRun {
    let mut world = build_world(&scenario, node_cfg, world_cfg);
    world
        .inject_faults(faults)
        .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
    let end = scenario.end() + SimDuration::from_secs_f64(drain_secs);
    world.run_until(end);
    world.finish();
    let timeline = world.timeline_report();
    let (trace, telemetry) = world.into_parts();
    ExperimentRun {
        scenario,
        trace,
        telemetry,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_core::Mode;
    use enviromic_sim::TraceEvent;
    use enviromic_workloads::{mobile_scenario, MobileParams};

    #[test]
    fn mobile_run_produces_task_recordings() {
        let scenario = mobile_scenario(&MobileParams::default());
        let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
        let run = run_scenario(scenario, &cfg, indoor_world_config(1), 2.0);
        let recorded = run
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Recorded { .. }))
            .count();
        assert!(recorded > 0, "no recordings in the mobile scenario");
        let exp = run.experiment();
        let miss = exp.miss_ratio(13.0);
        assert!(miss < 0.6, "mobile run mostly missed: {miss}");
    }

    #[test]
    fn world_configs_differ_by_environment() {
        let indoor = indoor_world_config(1);
        let forest = forest_world_config(1);
        assert!(forest.radio.range_ft > indoor.radio.range_ft);
        assert!(forest.radio.loss_prob > indoor.radio.loss_prob);
    }
}
