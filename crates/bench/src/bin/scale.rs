//! Scale smoke driver: the city-block workload at 1k–100k nodes.
//!
//! ```text
//! scale [--seed S] [--jobs N] [--duration SECS] [--out PATH]
//!       [-q | --verbose]
//!
//! --seed S           seed for every run (default 42)
//! --jobs N           worker threads (default: available cores)
//! --duration SECS    per-run duration (default 10)
//! --out PATH         report JSON (default target/bench/BENCH_scale.json)
//! ```
//!
//! Runs [`ScenarioSpec::city`] at each node count through the sweep pool
//! and writes one row per size: node count, trace length, and trace
//! digest. The report contains no wall-clock data, so the same seed
//! produces a **byte-identical** file at any `--jobs` value — CI
//! regenerates the whole five-rung ladder at `--jobs 1` and `--jobs 2`,
//! diffs the two, and diffs the result against the committed
//! `BENCH_scale.json`. (Wall-clock throughput at these sizes lives in
//! `BENCH_world.json`, which is an uploaded artifact, not a diffed one.)

use enviromic::sweep::{run_sweep, ScenarioSpec, SweepPlan};
use enviromic::{default_jobs, write_artifact};
use enviromic_telemetry::{log, log_info, log_warn};
use serde::Serialize;

/// The node counts of the scale ladder. The 40k and 100k rungs exist
/// because of sparse flash backing: city nodes address 64 chunks each, and
/// payloads materialize only on write, so even a 100k-node world
/// constructs in seconds instead of first-touching gigabytes.
const SIZES: [usize; 5] = [1_000, 4_000, 10_000, 40_000, 100_000];

struct Options {
    seed: u64,
    jobs: usize,
    duration: f64,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: scale [--seed S] [--jobs N] [--duration SECS] [--out PATH] \
         [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 42,
        jobs: default_jobs(),
        duration: 10.0,
        out: String::from("target/bench/BENCH_scale.json"),
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--duration" => opts.duration = value().parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out = value(),
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    opts
}

/// One deterministic row of the scale report.
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

/// The scale report: sim-time duration plus one row per ladder size.
#[derive(Serialize)]
struct ScaleReport {
    /// Per-run sim-time duration, seconds.
    duration_secs: f64,
    /// One row per node count, ascending.
    rows: Vec<ScaleRow>,
}

fn main() {
    let opts = parse_args();
    let specs: Vec<ScenarioSpec> = SIZES
        .iter()
        .map(|&n| ScenarioSpec::city(n, opts.duration))
        .collect();
    log_info!(
        "[scale] city ladder {SIZES:?} at seed {} for {:.0}s on {} workers...",
        opts.seed,
        opts.duration,
        opts.jobs,
    );
    let out = run_sweep(&SweepPlan::new(vec![opts.seed], specs), opts.jobs);
    let rows: Vec<ScaleRow> = SIZES
        .iter()
        .zip(&out.jobs)
        .map(|(&nodes, job)| ScaleRow {
            scenario: job.label.clone(),
            nodes: nodes as u64,
            seed: job.seed,
            events: job.events as u64,
            digest: format!("{:#018x}", job.digest),
        })
        .collect();
    for r in &rows {
        println!(
            "  {:<10} {:>6} nodes  {:>9} events  {}",
            r.scenario, r.nodes, r.events, r.digest
        );
    }
    let report = ScaleReport {
        duration_secs: opts.duration,
        rows,
    };
    let json = serde::Serialize::to_value(&report).to_json_pretty();
    match write_artifact(&opts.out, &json) {
        Ok(()) => log_info!("[scale] wrote {}", opts.out),
        Err(e) => {
            log_warn!("could not write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }
}
