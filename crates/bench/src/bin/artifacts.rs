//! Regenerates the committed `BENCH_*.json` artifacts.
//!
//! ```text
//! artifacts [LEG ...] [--jobs N] [--out DIR]
//!
//! LEG        sweep, chaos, policies, scale, retrieval or figures
//!            (default: every leg)
//! --jobs N   worker threads (default: available cores)
//! --out DIR  output directory (default target/bench)
//! ```
//!
//! Each leg is a name mapped to a function that runs one fixed plan and
//! returns the files it writes to `DIR`: `BENCH_<leg>.json`, plus
//! `sweep_timeline.json` for the sweep leg and seed 1's figure text,
//! `figures.txt`, for the figures leg. A leg's parameters are the
//! constants its committed artifact was generated with; ad-hoc seed,
//! policy and timeline sweeps belong to `enviromic --seeds N --policy P
//! --timeline S --timeline-out PATH`.
//!
//! No file holds a wall-clock figure, so a leg writes byte-identical
//! files at any `--jobs` value: CI runs each leg at `--jobs 1` and
//! `--jobs 2`, diffs the two directories, and diffs `BENCH_<leg>.json`
//! against the committed copy. Timings stay on the console.

use enviromic::observe::DumpFile;
use enviromic::sweep::{run_sweep, ScenarioSpec, SweepOutcome, SweepPlan};
use enviromic::{default_jobs, write_artifact};
use enviromic_bench::ablation::run_policy_matrix;
use enviromic_bench::retrieval::{run_retrieval, RetrievalOptions};
use enviromic_telemetry::log_info;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// The files a leg writes, as `(file name, contents)`.
type Files = Vec<(&'static str, String)>;

/// A leg: runs its plan on the given number of workers.
type Leg = fn(usize) -> Result<Files, String>;

/// Every leg by name. With no leg named, all run in this order.
const LEGS: [(&str, Leg); 6] = [
    ("sweep", sweep),
    ("chaos", chaos),
    ("policies", policies),
    ("scale", scale),
    ("retrieval", retrieval),
    ("figures", figures),
];

/// The first seed of every leg: the golden-digest seed.
const SEED: u64 = 42;

/// The city ladder's node counts. Flash payloads allocate on first
/// write, so even the 100k rung builds in seconds.
const CITY_SIZES: [usize; 5] = [1_000, 4_000, 10_000, 40_000, 100_000];

/// Sim-time of each city rung, seconds.
const CITY_SECS: f64 = 10.0;

/// `n` consecutive seeds from [`SEED`].
fn seeds(n: u64) -> Vec<u64> {
    (SEED..SEED + n).collect()
}

/// Runs `plan` on `jobs` workers and prints its job table.
fn run_plan(plan: &SweepPlan, jobs: usize) -> SweepOutcome {
    let outcome = run_sweep(plan, jobs);
    print!("{}", outcome.render());
    outcome
}

/// Seeds 42–45 of the quick indoor and forest points at 120 s, with a
/// timeline sample every 10 s.
fn sweep(jobs: usize) -> Result<Files, String> {
    let specs = vec![
        ScenarioSpec::quick_indoor(120.0),
        ScenarioSpec::quick_forest(120.0),
    ];
    let outcome = run_plan(&SweepPlan::new(seeds(4), specs).with_timeline(10.0), jobs);
    Ok(vec![
        ("BENCH_sweep.json", serde::to_json(&outcome.summary())),
        (
            "sweep_timeline.json",
            serde::to_json(&DumpFile::from_sweep(&outcome, false)),
        ),
    ])
}

/// Seeds 42–49 of the chaos indoor and forest points at 120 s.
fn chaos(jobs: usize) -> Result<Files, String> {
    let specs = vec![
        ScenarioSpec::chaos_indoor(120.0),
        ScenarioSpec::chaos_forest(120.0),
    ];
    let outcome = run_plan(&SweepPlan::new(seeds(8), specs), jobs);
    Ok(vec![(
        "BENCH_chaos.json",
        serde::to_json(&outcome.summary()),
    )])
}

/// Seeds 42–44 of every storage policy through the indoor, forest and
/// chaos-indoor families at 600 s.
fn policies(jobs: usize) -> Result<Files, String> {
    let matrix = run_policy_matrix(&seeds(3), 600.0, jobs);
    print!("{}", matrix.render());
    Ok(vec![("BENCH_policies.json", serde::to_json(&matrix))])
}

/// One `BENCH_scale.json` row.
#[derive(Serialize)]
struct ScaleRow {
    /// Scenario point label (`city-1k`, ...).
    scenario: String,
    /// Total nodes in the deployment.
    nodes: u64,
    /// The run's seed.
    seed: u64,
    /// Number of trace records.
    events: u64,
    /// Trace digest as a `0x`-prefixed hex string.
    digest: String,
}

/// `BENCH_scale.json`: the sim-time duration plus one row per rung.
#[derive(Serialize)]
struct ScaleReport {
    /// Per-run sim-time duration, seconds.
    duration_secs: f64,
    /// One row per node count, ascending.
    rows: Vec<ScaleRow>,
}

/// Seed 42 of the city at every ladder size. City runs keep digest-only
/// traces, so no rung holds its records in memory.
fn scale(jobs: usize) -> Result<Files, String> {
    let specs = CITY_SIZES
        .iter()
        .map(|&n| ScenarioSpec::city(n, CITY_SECS))
        .collect();
    let outcome = run_plan(&SweepPlan::new(vec![SEED], specs), jobs);
    let rows = CITY_SIZES
        .iter()
        .zip(&outcome.jobs)
        .map(|(&nodes, job)| ScaleRow {
            scenario: job.label.clone(),
            nodes: nodes as u64,
            seed: job.seed,
            events: job.events as u64,
            digest: format!("{:#018x}", job.digest),
        })
        .collect();
    let report = ScaleReport {
        duration_secs: CITY_SECS,
        rows,
    };
    Ok(vec![("BENCH_scale.json", serde::to_json(&report))])
}

/// The [`run_retrieval`] workload (600 queries, a 256-entry cache) over
/// the golden run's archive. Writes nothing unless the cached and
/// uncached passes agree and the cache hit at least once.
fn retrieval(jobs: usize) -> Result<Files, String> {
    let run = run_retrieval(&RetrievalOptions { jobs });
    if !run.cache_transparent() {
        return Err(format!(
            "cached digest {} != uncached digest {:#018x}",
            run.report.results.digest, run.uncached_digest
        ));
    }
    if run.report.cache.hits == 0 {
        return Err("the workload never hit the cache".into());
    }
    print!("{}", run.report.render());
    println!(
        "  serving   {:.3}s on {} workers ({:.0} queries/s)",
        run.outcome.wall_secs,
        run.outcome.workers,
        run.outcome.queries_per_sec(),
    );
    Ok(vec![("BENCH_retrieval.json", serde::to_json(&run.report))])
}

/// Every figure and the ablation table at seeds 1–4, with the paper's
/// run lengths ([`enviromic_bench::figures::run`]).
fn figures(jobs: usize) -> Result<Files, String> {
    let (report, text) = enviromic_bench::figures::run(jobs);
    Ok(vec![
        ("BENCH_figures.json", serde::to_json(&report)),
        ("figures.txt", text),
    ])
}

fn usage() -> ! {
    let legs: Vec<&str> = LEGS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: artifacts [{}]... [--jobs N] [--out DIR]",
        legs.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut legs = Vec::new();
    let mut jobs = default_jobs();
    let mut out = String::from("target/bench");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            name => legs.push(
                LEGS.iter()
                    .find(|(leg, _)| *leg == name)
                    .unwrap_or_else(|| usage()),
            ),
        }
    }
    if legs.is_empty() {
        legs = LEGS.iter().collect();
    }
    for (name, leg) in legs {
        let started = Instant::now();
        let files = leg(jobs).unwrap_or_else(|e| {
            eprintln!("artifacts: {name}: {e}");
            std::process::exit(1);
        });
        for (file, contents) in files {
            let path = Path::new(&out).join(file);
            if let Err(e) = write_artifact(&path, &contents) {
                eprintln!("artifacts: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
            log_info!("[artifacts] wrote {}", path.display());
        }
        log_info!(
            "[artifacts] {name}: {:.2}s on {jobs} workers",
            started.elapsed().as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::LEGS;
    use std::collections::BTreeSet;

    /// A committed artifact without a leg would have no CI diff.
    #[test]
    fn every_committed_artifact_has_a_leg() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let committed: BTreeSet<String> = std::fs::read_dir(root)
            .expect("repository root is readable")
            .map(|entry| {
                entry
                    .expect("directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        let legs: BTreeSet<String> = LEGS
            .iter()
            .map(|(name, _)| format!("BENCH_{name}.json"))
            .collect();
        assert_eq!(legs, committed);
    }
}
