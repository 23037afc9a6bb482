//! Parallel experiment sweeps with bit-identical per-seed runs.
//!
//! The paper's headline results are averages over many seeds and
//! scenarios. This module turns a [`SweepPlan`] — the cross product of
//! seeds × scenario/config points — into independent jobs executed on a
//! `std::thread` worker pool, where **each job owns its own `World`, RNG,
//! and telemetry registry**. Nothing is shared between jobs except the
//! job queue itself, so a seed's trace digest is bit-identical whether
//! the sweep runs on one worker or sixteen (the determinism contract;
//! see `tests/determinism.rs` and DESIGN.md §10).
//!
//! Results come back in **plan order** regardless of completion order:
//! per-job records (trace digest, event count, wall-clock) plus one
//! aggregated [`TelemetryReport`] merged job-by-job in plan order, so the
//! merged counters are themselves reproducible.
//!
//! # Examples
//!
//! ```
//! use enviromic::sweep::{run_sweep, ScenarioSpec, SweepPlan};
//!
//! let plan = SweepPlan::new(
//!     vec![1, 2],
//!     vec![ScenarioSpec::quick_indoor(20.0), ScenarioSpec::quick_forest(20.0)],
//! );
//! let serial = run_sweep(&plan, 1);
//! let pooled = run_sweep(&plan, 4);
//! assert_eq!(serial.summary().jobs, pooled.summary().jobs);
//! ```

use crate::harness::{
    city_world_config, forest_world_config, indoor_world_config, run_scenario_with_faults,
    ExperimentRun,
};
use enviromic_core::{Mode, NodeConfig};
use enviromic_sim::{FaultPlan, WorldConfig};
use enviromic_telemetry::TelemetryReport;
use enviromic_types::SimDuration;
use enviromic_workloads::{
    city_scenario, forest_scenario, indoor_scenario, mobile_scenario, Scenario,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything one job needs to stand up and run its own world.
#[derive(Debug)]
pub struct JobInput {
    /// The workload to execute.
    pub scenario: Scenario,
    /// Per-node protocol configuration.
    pub node_cfg: NodeConfig,
    /// World configuration; its seed governs every RNG stream of the run.
    pub world_cfg: WorldConfig,
    /// Quiet time appended after the scenario for in-flight transfers.
    pub drain_secs: f64,
    /// Scheduled fault injections (empty for fault-free points). Must be
    /// derived purely from the job's seed, like everything else here.
    pub faults: FaultPlan,
}

/// One named point of the sweep grid (a scenario plus its configuration).
///
/// The builder closure receives the job's seed and must derive *all*
/// randomness from it: two calls with the same seed must produce
/// identical inputs, or the determinism contract is void.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Label used in job tables and metric prefixes.
    pub label: String,
    build: Arc<dyn Fn(u64) -> JobInput + Send + Sync>,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl ScenarioSpec {
    /// Wraps a seed-to-input builder under `label`.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(u64) -> JobInput + Send + Sync + 'static,
    ) -> Self {
        ScenarioSpec {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// Builds the job input for `seed`.
    #[must_use]
    pub fn build(&self, seed: u64) -> JobInput {
        (self.build)(seed)
    }

    /// A testbed point: `world` builds the seed's scenario and world
    /// configuration, run with the full protocol, the default node
    /// configuration and a 5 s drain. With `chaos`, the run is under the
    /// seed's [`FaultPlan::chaos`] schedule over the scenario's nodes and
    /// length.
    fn testbed(
        label: &str,
        chaos: bool,
        world: impl Fn(u64) -> (Scenario, WorldConfig) + Send + Sync + 'static,
    ) -> ScenarioSpec {
        ScenarioSpec::new(label, move |seed| {
            let (scenario, world_cfg) = world(seed);
            let faults = if chaos {
                FaultPlan::chaos(seed, scenario.topology.len(), scenario.duration)
            } else {
                FaultPlan::new()
            };
            JobInput {
                scenario,
                node_cfg: NodeConfig::default().with_mode(Mode::Full),
                world_cfg,
                drain_secs: 5.0,
                faults,
            }
        })
    }

    /// The quick indoor point: the §IV-B testbed at `duration_secs`, full
    /// protocol, default node configuration. At 120 s this is byte-for-byte
    /// the run `tests/determinism.rs` pins to its golden digest.
    #[must_use]
    pub fn quick_indoor(duration_secs: f64) -> ScenarioSpec {
        ScenarioSpec::testbed("quick-indoor", false, move |seed| {
            (
                indoor_scenario(duration_secs, seed),
                indoor_world_config(seed),
            )
        })
    }

    /// The mobile-target point: the §IV-A moving acoustic source on the
    /// indoor grid, full protocol, default node configuration. The moving
    /// source exercises the waypoint re-bucketing of the audible-source
    /// index, so `tests/determinism.rs` pins this point's digest at seed
    /// 42 across worker counts.
    #[must_use]
    pub fn quick_mobile() -> ScenarioSpec {
        ScenarioSpec::testbed("quick-mobile", false, |seed| {
            (mobile_scenario(), indoor_world_config(seed))
        })
    }

    /// The quick forest point: the §IV-C deployment at `duration_secs`,
    /// full protocol, default node configuration.
    #[must_use]
    pub fn quick_forest(duration_secs: f64) -> ScenarioSpec {
        ScenarioSpec::testbed("quick-forest", false, move |seed| {
            (
                forest_scenario(duration_secs, seed),
                forest_world_config(seed),
            )
        })
    }

    /// The chaos indoor point: the quick-indoor workload with a
    /// seed-derived [`FaultPlan::chaos`] schedule injected — node crashes
    /// with later reboots, a radio blackout window, a link-degradation
    /// window, and bad flash blocks. Same determinism contract as every
    /// other point: the plan is a pure function of the seed.
    #[must_use]
    pub fn chaos_indoor(duration_secs: f64) -> ScenarioSpec {
        ScenarioSpec::testbed("chaos-indoor", true, move |seed| {
            (
                indoor_scenario(duration_secs, seed),
                indoor_world_config(seed),
            )
        })
    }

    /// The chaos forest point: the quick-forest workload under a
    /// seed-derived [`FaultPlan::chaos`] schedule.
    #[must_use]
    pub fn chaos_forest(duration_secs: f64) -> ScenarioSpec {
        ScenarioSpec::testbed("chaos-forest", true, move |seed| {
            (
                forest_scenario(duration_secs, seed),
                forest_world_config(seed),
            )
        })
    }

    /// The city scale point: the lamppost deployment at `nodes` total
    /// nodes for `duration_secs`, full protocol, labelled `city-{n}k`
    /// (e.g. `city-10k`). This is the workload behind the
    /// `BENCH_scale.json` rows and the 10k/40k-node jobs-1-vs-2
    /// determinism pins; like every other point it is a pure function of
    /// the seed.
    ///
    /// City nodes carry a small 64-chunk store: the scale ladder measures
    /// the event core, not storage capacity. Flash payloads allocate
    /// lazily on first write, so even the 100k-node rung constructs
    /// cheaply — but the 64-chunk figure is part of the pinned digests
    /// and must not change (store capacity feeds TTL arithmetic).
    ///
    /// City runs keep a digest-only trace
    /// ([`WorldConfig::keep_trace_records`] is off): their readers, the
    /// scale ladder and the city benchmark workloads, read only the
    /// digest and the record count, so a job's
    /// [`ExperimentRun::trace`](crate::harness::ExperimentRun::trace)
    /// holds no records.
    #[must_use]
    pub fn city(nodes: usize, duration_secs: f64) -> ScenarioSpec {
        let label = if nodes.is_multiple_of(1000) {
            format!("city-{}k", nodes / 1000)
        } else {
            format!("city-{nodes}")
        };
        ScenarioSpec::new(label, move |seed| JobInput {
            scenario: city_scenario(nodes, duration_secs, seed),
            node_cfg: NodeConfig::default()
                .with_mode(Mode::Full)
                .with_flash_chunks(64),
            world_cfg: WorldConfig {
                keep_trace_records: false,
                ..city_world_config(seed)
            },
            drain_secs: 2.0,
            faults: FaultPlan::new(),
        })
    }
}

/// The sweep grid: every scenario point run at every seed.
///
/// Jobs are ordered scenario-major (all seeds of the first point, then
/// all seeds of the second, ...); that order is the canonical result and
/// merge order.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// RNG seeds, one independent run per seed per scenario point.
    pub seeds: Vec<u64>,
    /// The scenario/config points of the grid.
    pub scenarios: Vec<ScenarioSpec>,
    /// If set, every job records a sim-time metric timeline at this
    /// cadence (seconds). Applied on top of whatever the spec builds, so
    /// stock points gain timelines without bespoke closures; per-seed
    /// trace digests are unaffected (the sampler is a passive observer).
    pub timeline_secs: Option<f64>,
}

impl SweepPlan {
    /// A plan over `seeds` and `scenarios`.
    #[must_use]
    pub fn new(seeds: Vec<u64>, scenarios: Vec<ScenarioSpec>) -> Self {
        SweepPlan {
            seeds,
            scenarios,
            timeline_secs: None,
        }
    }

    /// Enables per-job timeline sampling at `secs` of sim-time per sample.
    #[must_use]
    pub fn with_timeline(mut self, secs: f64) -> Self {
        self.timeline_secs = Some(secs);
        self
    }
}

/// One completed job, in full: the run itself plus its identity and cost.
#[derive(Debug)]
pub struct JobOutcome {
    /// Scenario point label.
    pub label: String,
    /// The job's seed.
    pub seed: u64,
    /// Order-sensitive FNV-1a digest of the run's trace.
    pub digest: u64,
    /// Number of trace records.
    pub events: usize,
    /// Wall-clock seconds the job took on its worker.
    pub wall_secs: f64,
    /// The completed run (trace, scenario, telemetry).
    pub run: ExperimentRun,
}

/// The result of [`run_sweep`]: per-job outcomes in plan order plus the
/// aggregate telemetry.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One outcome per job, in plan order (not completion order).
    pub jobs: Vec<JobOutcome>,
    /// Every job's telemetry merged in plan order.
    pub aggregate: TelemetryReport,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl SweepOutcome {
    /// The wall-clock-free summary (per-job table + aggregate) written to
    /// `BENCH_sweep.json`: byte-identical at any worker count.
    #[must_use]
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            jobs_total: self.jobs.len() as u64,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobRecord {
                    label: j.label.clone(),
                    seed: j.seed,
                    digest: format!("{:#018x}", j.digest),
                    events: j.events as u64,
                })
                .collect(),
            aggregate: self.aggregate.clone(),
        }
    }

    /// Renders the per-job table with its wall-clock column and the pool
    /// timing line, for terminal output only.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "sweep results\n\n  scenario        seed        digest              events   wall(s)\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "  {:<14} {:>5}  {:#018x}  {:>8}  {:>8.3}\n",
                j.label, j.seed, j.digest, j.events, j.wall_secs
            ));
        }
        // The serial cost of the plan: every job's wall-clock seconds.
        let serial: f64 = self.jobs.iter().map(|j| j.wall_secs).sum();
        out.push_str(&format!(
            "\n  {} jobs on {} workers: {:.3}s wall ({:.3}s serial, {:.2}x speedup)\n",
            self.jobs.len(),
            self.workers,
            self.wall_secs,
            serial,
            serial / self.wall_secs.max(1e-9)
        ));
        out
    }
}

/// Serializable per-job row of a [`SweepSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Scenario point label.
    pub label: String,
    /// The job's seed.
    pub seed: u64,
    /// Trace digest as a `0x`-prefixed hex string (kept textual so any
    /// JSON consumer preserves all 64 bits).
    pub digest: String,
    /// Number of trace records.
    pub events: u64,
}

/// The machine-readable sweep artifact: per-job digests plus the merged
/// telemetry, with no wall-clock field, so one plan writes the same bytes
/// at any worker count. Serialized to `BENCH_sweep.json` and
/// `BENCH_chaos.json` by the `artifacts` bin's `sweep` and `chaos` legs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Number of jobs executed.
    pub jobs_total: u64,
    /// Per-job rows in plan order.
    pub jobs: Vec<JobRecord>,
    /// Every job's telemetry merged in plan order.
    pub aggregate: TelemetryReport,
}

/// One queued unit of work.
struct SweepJob {
    index: usize,
    seed: u64,
    spec: ScenarioSpec,
    timeline_secs: Option<f64>,
}

/// Executes a single job: builds the world from the spec, runs it to
/// completion, and digests the trace.
fn execute(job: &SweepJob) -> JobOutcome {
    let started = Instant::now();
    let mut input = job.spec.build(job.seed);
    if let Some(secs) = job.timeline_secs {
        input.world_cfg.timeline_sample_period = Some(SimDuration::from_secs_f64(secs));
    }
    let run = run_scenario_with_faults(
        input.scenario,
        &input.node_cfg,
        input.world_cfg,
        input.drain_secs,
        &input.faults,
    );
    JobOutcome {
        label: job.spec.label.clone(),
        seed: job.seed,
        digest: run.trace.digest(),
        events: run.trace.len(),
        wall_secs: started.elapsed().as_secs_f64(),
        run,
    }
}

/// Runs every job of `plan` on a pool of `workers` threads and returns
/// the outcomes in plan order.
///
/// `workers` is clamped to `[1, number of jobs]`. Work distribution is a
/// shared `Mutex<VecDeque>` job queue (idle workers steal the next job),
/// which affects only *which thread* runs a job — never its result,
/// because each job owns all of its mutable state.
///
/// # Panics
///
/// Panics if a worker thread panics (a job's scenario was invalid).
#[must_use]
pub fn run_sweep(plan: &SweepPlan, workers: usize) -> SweepOutcome {
    let started = Instant::now();
    let jobs: VecDeque<SweepJob> = plan
        .scenarios
        .iter()
        .flat_map(|spec| plan.seeds.iter().map(move |&seed| (spec.clone(), seed)))
        .enumerate()
        .map(|(index, (spec, seed))| SweepJob {
            index,
            seed,
            spec,
            timeline_secs: plan.timeline_secs,
        })
        .collect();
    let total = jobs.len();
    let workers = workers.clamp(1, total.max(1));

    let queue = Mutex::new(jobs);
    let results: Mutex<Vec<Option<JobOutcome>>> = Mutex::new((0..total).map(|_| None).collect());

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let Some(job) = queue.lock().expect("job queue poisoned").pop_front() else {
                        break;
                    };
                    let outcome = execute(&job);
                    results.lock().expect("result table poisoned")[job.index] = Some(outcome);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sweep worker panicked");
        }
    });

    let jobs: Vec<JobOutcome> = results
        .into_inner()
        .expect("result table poisoned")
        .into_iter()
        .map(|slot| slot.expect("job finished without a result"))
        .collect();
    // Merge in plan order so the aggregate is independent of which worker
    // finished first.
    let mut aggregate = TelemetryReport::default();
    for job in &jobs {
        aggregate.merge(&job.run.telemetry);
    }
    SweepOutcome {
        jobs,
        aggregate,
        wall_secs: started.elapsed().as_secs_f64(),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan(seeds: Vec<u64>, duration_secs: f64) -> SweepPlan {
        SweepPlan::new(
            seeds,
            vec![
                ScenarioSpec::quick_indoor(duration_secs),
                ScenarioSpec::quick_forest(duration_secs),
            ],
        )
    }

    #[test]
    fn pool_size_does_not_change_results() {
        let plan = quick_plan(vec![1, 2], 20.0);
        let serial = run_sweep(&plan, 1);
        let pooled = run_sweep(&plan, 4);
        assert_eq!(serial.summary().jobs, pooled.summary().jobs);
        // Counters merge in plan order, so the aggregates agree too, and
        // the summary the `artifacts` bin commits is byte-identical.
        assert_eq!(serial.aggregate.counters, pooled.aggregate.counters);
        assert_eq!(serial.aggregate.histograms, pooled.aggregate.histograms);
        assert_eq!(
            serde::to_json(&serial.summary()),
            serde::to_json(&pooled.summary())
        );
    }

    #[test]
    fn jobs_come_back_in_plan_order() {
        let plan = quick_plan(vec![1, 2], 20.0);
        let out = run_sweep(&plan, 3);
        let idx: Vec<(String, u64)> = out.jobs.iter().map(|j| (j.label.clone(), j.seed)).collect();
        assert_eq!(
            idx,
            vec![
                ("quick-indoor".into(), 1),
                ("quick-indoor".into(), 2),
                ("quick-forest".into(), 1),
                ("quick-forest".into(), 2),
            ]
        );
        for j in &out.jobs {
            assert!(
                j.events > 0,
                "{}/{} produced an empty trace",
                j.label,
                j.seed
            );
        }
    }

    #[test]
    fn summary_round_trips_through_json() {
        let out = run_sweep(&quick_plan(vec![5], 10.0), 2);
        let summary = out.summary();
        let back: SweepSummary = serde::from_json(&serde::to_json(&summary)).expect("parses");
        assert_eq!(back, summary);
        assert_eq!(back.jobs.len(), 2);
        assert!(back.jobs[0].digest.starts_with("0x"));
        let rendered = out.render();
        assert!(rendered.contains("quick-indoor"));
        assert!(rendered.contains("workers"));
    }

    #[test]
    fn chaos_sweep_is_bit_identical_across_worker_counts() {
        let plan = SweepPlan::new(
            vec![3, 4],
            vec![
                ScenarioSpec::chaos_indoor(20.0),
                ScenarioSpec::chaos_forest(20.0),
            ],
        );
        let serial = run_sweep(&plan, 1);
        let pooled = run_sweep(&plan, 4);
        assert_eq!(serial.summary().jobs, pooled.summary().jobs);
        assert_eq!(serial.aggregate.counters, pooled.aggregate.counters);
        // The chaos plans actually did something in every job.
        for job in &serial.jobs {
            let faults = job
                .run
                .telemetry
                .counter("sim.faults.injected")
                .unwrap_or(0);
            assert!(faults > 0, "{}/{} injected no faults", job.label, job.seed);
        }
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let out = run_sweep(&quick_plan(vec![9], 5.0), 64);
        assert_eq!(out.workers, 2, "two jobs cannot use more than two workers");
    }
}
