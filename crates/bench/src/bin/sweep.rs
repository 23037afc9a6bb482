//! Parallel experiment-sweep driver.
//!
//! ```text
//! sweep [--seeds N] [--seed-start S] [--jobs N] [--duration SECS]
//!       [--scenario indoor|forest|both] [--policy NAME] [--chaos]
//!       [--out PATH] [--timeline SECS] [--timeline-out PATH]
//!       [-q | --verbose]
//!
//! --seeds N            number of consecutive seeds (default 8)
//! --seed-start S       first seed (default 42, the golden-digest seed)
//! --jobs N             worker threads (default: available cores)
//! --duration SECS      per-run duration (default 120, the quick length)
//! --scenario WHICH     grid axis: indoor, forest, or both (default both)
//! --policy NAME        storage-balancing policy for every node: beta-ttl
//!                      (default), no-migration, coordinated, or flooding;
//!                      non-default policies relabel points "label+policy"
//! --chaos              inject a seed-derived fault schedule into every
//!                      run (crashes + reboots, a radio blackout, link
//!                      degradation, bad flash blocks)
//! --out PATH           machine-readable summary JSON
//!                      (default target/bench/BENCH_sweep.json)
//! --timeline SECS      sample a sim-time metric timeline every SECS in
//!                      every job (per-seed digests stay bit-identical)
//! --timeline-out PATH  write the per-job timelines as a `trace`-explorer
//!                      dump (digest + timeline per run, no event ledger)
//! ```
//!
//! Every job owns its own world, RNG, and telemetry registry, so the
//! per-seed trace digests printed here are bit-identical for any `--jobs`
//! value. The `--out` summary holds every job's digest and the merged
//! telemetry but no wall-clock figure, so it is **byte-identical** at any
//! `--jobs` value — CI regenerates it at `--jobs 1` and `--jobs 2`, diffs
//! the two, and diffs the result against the committed `BENCH_sweep.json`
//! (`BENCH_chaos.json` with `--chaos --seeds 8`). Timings stay on the
//! console.

use enviromic::observe::{DumpFile, RunDump};
use enviromic::sweep::{run_sweep, ScenarioSpec, SweepPlan};
use enviromic::{default_jobs, write_artifact};
use enviromic_core::PolicyKind;
use enviromic_telemetry::{log, log_info, log_warn};

struct Options {
    seeds: u64,
    seed_start: u64,
    jobs: usize,
    duration: f64,
    scenario: String,
    policy: PolicyKind,
    chaos: bool,
    out: String,
    timeline: Option<f64>,
    timeline_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--seeds N] [--seed-start S] [--jobs N] [--duration SECS] \
         [--scenario indoor|forest|both] [--policy beta-ttl|no-migration|coordinated|flooding] \
         [--chaos] [--out PATH] [--timeline SECS] [--timeline-out PATH] \
         [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seeds: 8,
        seed_start: 42,
        jobs: default_jobs(),
        duration: 120.0,
        scenario: "both".into(),
        policy: PolicyKind::default(),
        chaos: false,
        out: String::from("target/bench/BENCH_sweep.json"),
        timeline: None,
        timeline_out: None,
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seeds" => opts.seeds = value().parse().unwrap_or_else(|_| usage()),
            "--seed-start" => opts.seed_start = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--duration" => opts.duration = value().parse().unwrap_or_else(|_| usage()),
            "--scenario" => opts.scenario = value(),
            "--policy" => {
                opts.policy = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("sweep: {e}");
                    usage()
                });
            }
            "--chaos" => opts.chaos = true,
            "--out" => opts.out = value(),
            "--timeline" => {
                opts.timeline = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--timeline-out" => opts.timeline_out = Some(value()),
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    if opts.seeds == 0 {
        usage();
    }
    opts
}

fn write_or_exit(path: &str, contents: &str) {
    match write_artifact(path, contents) {
        Ok(()) => log_info!("[sweep] wrote {path}"),
        Err(e) => {
            log_warn!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = parse_args();
    let scenarios = if opts.chaos {
        match opts.scenario.as_str() {
            "indoor" => vec![ScenarioSpec::chaos_indoor(opts.duration)],
            "forest" => vec![ScenarioSpec::chaos_forest(opts.duration)],
            "both" => vec![
                ScenarioSpec::chaos_indoor(opts.duration),
                ScenarioSpec::chaos_forest(opts.duration),
            ],
            _ => usage(),
        }
    } else {
        match opts.scenario.as_str() {
            "indoor" => vec![ScenarioSpec::quick_indoor(opts.duration)],
            "forest" => vec![ScenarioSpec::quick_forest(opts.duration)],
            "both" => vec![
                ScenarioSpec::quick_indoor(opts.duration),
                ScenarioSpec::quick_forest(opts.duration),
            ],
            _ => usage(),
        }
    };
    let seeds: Vec<u64> = (opts.seed_start..opts.seed_start + opts.seeds).collect();
    let mut plan = SweepPlan::new(seeds, scenarios).with_policy(opts.policy);
    if let Some(secs) = opts.timeline {
        plan = plan.with_timeline(secs);
    }
    log_info!(
        "[sweep] {} seeds x {} scenarios = {} jobs on {} workers ({:.0}s each)...",
        plan.seeds.len(),
        plan.scenarios.len(),
        plan.job_count(),
        opts.jobs,
        opts.duration,
    );

    let outcome = run_sweep(&plan, opts.jobs);
    print!("{}", outcome.render());

    write_or_exit(&opts.out, &outcome.summary().to_json());
    if let Some(path) = &opts.timeline_out {
        // Digest + timeline per job; the event ledgers would dwarf the file.
        let dump = DumpFile {
            runs: outcome
                .jobs
                .iter()
                .map(|j| RunDump::from_run(&j.label, j.seed, &j.run, false))
                .collect(),
        };
        write_or_exit(path, &dump.to_json());
    }
}
