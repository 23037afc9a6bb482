//! The §IV-C outdoor deployment figures.
//!
//! One 3-hour forest run drives Fig. 16 (recorded data over time, with the
//! two activity spikes), Fig. 17 (spatial contour of data generated per
//! location, showing the road and trail ridges), and Fig. 18 (where the
//! hotspot node's data migrated).

use enviromic::core::NodeConfig;
use enviromic::harness::{forest_world_config, run_scenario, ExperimentRun};
use enviromic::metrics::ContourGrid;
use enviromic::types::{NodeId, SimDuration};
use enviromic::workloads::{forest_scenario, wall_clock_label};

/// The completed outdoor run.
#[derive(Debug)]
pub struct OutdoorRun {
    /// The simulation run.
    pub run: ExperimentRun,
    /// Experiment duration, seconds.
    pub duration_secs: f64,
}

/// Runs the forest deployment with the full system. `duration_secs` is
/// 10 800 (3 h) in the paper.
#[must_use]
pub fn run(seed: u64, duration_secs: f64) -> OutdoorRun {
    let scenario = forest_scenario(duration_secs, seed);
    // Full 0.5 MB stores, like the deployed motes.
    let cfg = NodeConfig::default()
        .with_flash_chunks(2048)
        .with_beta_max(2.0);
    let mut wcfg = forest_world_config(seed);
    wcfg.mic_gain_spread = 0.10;
    wcfg.occupancy_snapshot_period = Some(SimDuration::from_secs_f64(300.0));
    let run = run_scenario(scenario, &cfg, wcfg, 30.0);
    OutdoorRun { run, duration_secs }
}

impl OutdoorRun {
    /// Fig. 16: seconds of audio recorded network-wide in each minute.
    #[must_use]
    pub fn fig16_activity_per_minute(&self) -> Vec<f64> {
        let exp = self.run.experiment();
        let minutes = (self.duration_secs / 60.0) as usize;
        (0..minutes)
            .map(|m| {
                let from = m as f64 * 60.0;
                exp.recorded_secs_between(from, from + 60.0)
            })
            .collect()
    }

    /// Fig. 17: contour of audio bytes recorded per location.
    #[must_use]
    pub fn fig17_generated_contour(&self) -> ContourGrid {
        let topo = &self.run.scenario.topology;
        let bytes = self.run.experiment().per_node_recorded_bytes();
        let cells: Vec<(usize, usize)> = (0..topo.len()).map(|i| topo.cell_of(i)).collect();
        let vals: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
        ContourGrid::from_node_values(topo.cols, topo.rows, &cells, &vals)
    }

    /// Fig. 18: the hotspot recorder and the final distribution (KB per
    /// node cell) of the data it recorded.
    #[must_use]
    pub fn fig18_migration_map(&self) -> (NodeId, ContourGrid) {
        let exp = self.run.experiment();
        let hotspot = exp.hotspot_recorder().unwrap_or(NodeId(0));
        let holdings = exp.final_holdings_of_origin(hotspot);
        let topo = &self.run.scenario.topology;
        let cells: Vec<(usize, usize)> = (0..topo.len()).map(|i| topo.cell_of(i)).collect();
        let vals: Vec<f64> = holdings.iter().map(|&b| b as f64 / 1024.0).collect();
        (
            hotspot,
            ContourGrid::from_node_values(topo.cols, topo.rows, &cells, &vals),
        )
    }
}

/// Renders Fig. 16 as the paper's time series (one-minute bins, labelled
/// with wall-clock times starting at 10:45).
#[must_use]
pub fn render_fig16(per_minute: &[f64]) -> String {
    let mut out = String::from(
        "Fig. 16 — amount of acoustic event data over time\n\
         (seconds of audio recorded per minute, wall clock from 10:45)\n\n",
    );
    let max = per_minute.iter().copied().fold(1e-9, f64::max);
    for (m, &v) in per_minute.iter().enumerate() {
        let bars = ((v / max) * 50.0).round() as usize;
        out.push_str(&format!(
            "  {} {:>7.1} |{}\n",
            wall_clock_label(m as f64 * 60.0),
            v,
            "#".repeat(bars)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_outdoor_run_produces_activity() {
        // A 10-minute slice keeps the test fast while exercising the whole
        // pipeline.
        let outdoor = run(11, 600.0);
        let series = outdoor.fig16_activity_per_minute();
        assert_eq!(series.len(), 10);
        let total: f64 = series.iter().sum();
        assert!(total > 10.0, "almost nothing recorded: {total:.1} s");
        let contour = outdoor.fig17_generated_contour();
        assert!(contour.max() > 0.0);
    }
}
