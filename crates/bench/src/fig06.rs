//! Fig. 6: recording miss ratio vs. the expected task assignment delay
//! `Dta` for three task periods `Trc`, and Fig. 7: one run's per-node
//! recording timeline.
//!
//! The workload is §IV-A's mobile target (one grid length per second,
//! 9-second event, sensing range about one grid length). Each parameter
//! combination runs 15 times; we report the mean and 90% confidence
//! interval, like the paper.

use enviromic::core::{Mode, NodeConfig};
use enviromic::harness::{indoor_world_config, run_scenario};
use enviromic::metrics::mean_ci90;
use enviromic::sim::{FaultPlan, RecordKind, TraceEvent};
use enviromic::sweep::{self, JobInput, ScenarioSpec, SweepPlan};
use enviromic::types::{NodeId, SimDuration};
use enviromic::workloads::mobile_scenario;
use serde::{Deserialize, Serialize};

/// The swept `Dta` values, milliseconds (the paper's x axis).
pub const DTA_MS: &[u64] = &[10, 30, 50, 70, 90, 110, 130];
/// The compared task periods, seconds.
pub const TRC_S: &[f64] = &[0.5, 1.0, 1.5];

/// One cell of the Fig. 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Task period `Trc`, seconds.
    pub trc_s: f64,
    /// Expected task assignment delay `Dta`, milliseconds.
    pub dta_ms: u64,
    /// Mean recording miss ratio over the runs.
    pub mean_miss: f64,
    /// 90% confidence-interval half width.
    pub ci90: f64,
}

/// Runs the full sweep with `runs` repetitions per point (15 in the
/// paper) as one sweep on `jobs` worker threads. Run `k` of a point uses
/// world seed `base_seed + k·1000 + Dta`, so the result does not depend
/// on `jobs`.
#[must_use]
pub fn run_sweep(base_seed: u64, runs: u64, jobs: usize) -> Vec<SweepPoint> {
    let points: Vec<(f64, u64)> = TRC_S
        .iter()
        .flat_map(|&trc| DTA_MS.iter().map(move |&dta| (trc, dta)))
        .collect();
    let specs = points
        .iter()
        .map(|&(trc_s, dta_ms)| {
            ScenarioSpec::new(format!("trc{trc_s}-dta{dta_ms}"), move |k| JobInput {
                scenario: mobile_scenario(),
                node_cfg: NodeConfig::default()
                    .with_mode(Mode::CooperativeOnly)
                    .with_trc(SimDuration::from_secs_f64(trc_s))
                    .with_dta(SimDuration::from_millis(dta_ms)),
                world_cfg: indoor_world_config(base_seed + k * 1000 + dta_ms),
                drain_secs: 1.0,
                faults: FaultPlan::new(),
            })
        })
        .collect();
    let out = sweep::run_sweep(&SweepPlan::new((0..runs).collect(), specs), jobs);
    // Jobs come back point-major in plan order: all runs of point 0, ...
    points
        .into_iter()
        .zip(out.jobs.chunks(runs as usize))
        .map(|((trc_s, dta_ms), point_jobs)| {
            let misses: Vec<f64> = point_jobs
                .iter()
                .map(|job| {
                    let horizon = job.run.scenario.duration.as_secs_f64();
                    job.run.experiment().miss_ratio(horizon)
                })
                .collect();
            let (mean_miss, ci90) = mean_ci90(&misses);
            SweepPoint {
                trc_s,
                dta_ms,
                mean_miss,
                ci90,
            }
        })
        .collect()
}

/// Renders the sweep as the paper's three curves.
#[must_use]
pub fn render_sweep(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Fig. 6 — recording miss ratio vs expected task assignment delay Dta\n\
         (mobile target, 9 s event; mean ± 90% CI)\n\n",
    );
    out.push_str(&format!("{:>9}", "Dta(ms)"));
    for &trc in TRC_S {
        out.push_str(&format!("        Trc={trc:.1}s      "));
    }
    out.push('\n');
    for &dta in DTA_MS {
        out.push_str(&format!("{dta:>9}"));
        for &trc in TRC_S {
            let p = points
                .iter()
                .find(|p| p.dta_ms == dta && (p.trc_s - trc).abs() < 1e-9)
                .expect("complete sweep");
            out.push_str(&format!("   {:6.3} ± {:5.3}    ", p.mean_miss, p.ci90));
        }
        out.push('\n');
    }
    out
}

/// One Fig. 7 timeline row: a node's recording interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineRow {
    /// Recording node.
    pub node: NodeId,
    /// Interval start, seconds.
    pub t0_s: f64,
    /// Interval end, seconds.
    pub t1_s: f64,
}

/// Fig. 7: runs one instance (Trc = 1 s, Dta = 70 ms) and extracts the
/// per-node recording timeline plus the event window.
#[must_use]
pub fn run_timeline(seed: u64) -> (Vec<TimelineRow>, (f64, f64)) {
    let scenario = mobile_scenario();
    let event = (
        scenario.sources[0].start.as_secs_f64(),
        scenario.sources[0].stop.as_secs_f64(),
    );
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let run = run_scenario(scenario, &cfg, indoor_world_config(seed), 1.0);
    let mut rows: Vec<TimelineRow> = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recorded {
                node,
                t0,
                t1,
                kind: RecordKind::Task,
                ..
            } => Some(TimelineRow {
                node: *node,
                t0_s: t0.as_secs_f64(),
                t1_s: t1.as_secs_f64(),
            }),
            _ => None,
        })
        .collect();
    rows.sort_by(|a, b| {
        a.t0_s
            .partial_cmp(&b.t0_s)
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    (rows, event)
}

/// Renders the Fig. 7 timeline.
#[must_use]
pub fn render_timeline(rows: &[TimelineRow], event: (f64, f64)) -> String {
    let mut out = format!(
        "Fig. 7 — recording a mobile acoustic object (one instance)\n\
         event active {:.2}s .. {:.2}s\n\n  node     recording interval\n",
        event.0, event.1
    );
    for r in rows {
        out.push_str(&format!(
            "  n{:<4}   {:6.2}s .. {:6.2}s\n",
            r.node.0, r.t0_s, r.t1_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_shows_rotating_recorders() {
        let (rows, event) = run_timeline(5);
        assert!(rows.len() >= 4, "expected several task slots: {rows:?}");
        // Multiple distinct nodes recorded.
        let mut nodes: Vec<u32> = rows.iter().map(|r| r.node.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(nodes.len() >= 2, "no rotation: {nodes:?}");
        // Rows fall inside (or just past) the event window.
        for r in &rows {
            assert!(r.t0_s >= event.0 - 0.2, "{r:?}");
            assert!(r.t1_s <= event.1 + 2.0, "{r:?}");
        }
    }
}
