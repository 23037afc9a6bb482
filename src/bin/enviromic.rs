//! `enviromic` — command-line scenario runner.
//!
//! The tool a field scientist would script against: build a deployment,
//! run a recording campaign, and print the harvest report.
//!
//! ```text
//! enviromic [OPTIONS]
//!   --scenario indoor|mobile|forest|voice   workload (default indoor)
//!   --mode     full|coop|baseline           protocol mode (default full)
//!   --duration SECS                         override scenario length
//!                                           (indoor and forest only)
//!   --seed     N                            RNG seed (default 1)
//!   --seeds    N                            sweep N consecutive seeds from
//!                                           --seed (prints per-seed digests
//!                                           instead of the harvest report)
//!   --jobs     N                            sweep worker threads
//!                                           (default: available cores)
//!   --flash    CHUNKS                       per-node flash capacity
//!   --beta-max X                            balancer sensitivity bound
//!   --policy   NAME                         storage-balancing policy:
//!                                           beta-ttl (default),
//!                                           no-migration, coordinated,
//!                                           or flooding
//!   --prelude  SECS                         enable the prelude optimization
//!   --timeline SECS                         sample a sim-time metric
//!                                           timeline every SECS (digest
//!                                           stays bit-identical); with
//!                                           --seeds above 1, only with
//!                                           --timeline-out
//!   --timeline-out PATH                     write a run dump for the
//!                                           `trace` explorer: events and
//!                                           timeline of one seed, digest
//!                                           and timeline of each of N
//!   --series                                also print the miss-ratio series
//!                                           (one seed only)
//!   --stats                                 print the telemetry dashboard
//!                                           (and the timeline, if sampled)
//!   -q / --quiet                            suppress status lines
//! ```
//!
//! Every invocation is one sweep over `--seeds` consecutive seeds of one
//! [`ScenarioSpec`]; a single seed is a sweep of one job. The
//! `--timeline-out` dump is written before the report is printed, so
//! a reader that closes stdout early (`enviromic | head -1`) still gets
//! the file; the runner then stops writing and exits 0.

use enviromic::core::{Mode, NodeConfig, PolicyKind};
use enviromic::harness::{forest_world_config, indoor_world_config, ExperimentRun};
use enviromic::observe::DumpFile;
use enviromic::sim::{FaultPlan, RecordKind, TraceEvent, WorldConfig};
use enviromic::sweep::{run_sweep, JobInput, ScenarioSpec, SweepPlan};
use enviromic::types::SimDuration;
use enviromic::workloads::{
    forest_scenario, indoor_scenario, mobile_scenario, voice_scenario, Scenario,
};
use enviromic::{default_jobs, parse_sim_secs, write_artifact, write_stdout};
use enviromic_telemetry::{log, log_info};
use std::io::{self, Write};

#[derive(Debug, Clone)]
struct Options {
    scenario: String,
    mode: Mode,
    duration: Option<f64>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    flash: Option<u32>,
    beta_max: Option<f64>,
    policy: PolicyKind,
    prelude: Option<f64>,
    timeline: Option<f64>,
    timeline_out: Option<String>,
    series: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: enviromic [--scenario indoor|mobile|forest|voice] \
         [--mode full|coop|baseline] [--duration SECS] [--seed N] \
         [--seeds N] [--jobs N] \
         [--flash CHUNKS] [--beta-max X] \
         [--policy beta-ttl|no-migration|coordinated|flooding] \
         [--prelude SECS] [--timeline SECS] \
         [--timeline-out PATH] [--series] [--stats] [-q|--quiet]"
    );
    std::process::exit(2);
}

/// Parses the value of `flag`, or names the bad value and exits 2.
fn parsed<T>(flag: &str, value: String, parse: impl FnOnce(&str) -> Option<T>) -> T {
    parse(&value).unwrap_or_else(|| {
        eprintln!("enviromic: bad {flag} value {value:?}");
        usage()
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        scenario: "indoor".into(),
        mode: Mode::Full,
        duration: None,
        seed: 1,
        seeds: 1,
        jobs: default_jobs(),
        flash: None,
        beta_max: None,
        policy: PolicyKind::default(),
        prelude: None,
        timeline: None,
        timeline_out: None,
        series: false,
        stats: false,
    };
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scenario" => {
                opts.scenario = parsed(&arg, value(), |v| {
                    matches!(v, "indoor" | "mobile" | "forest" | "voice").then(|| v.to_owned())
                });
            }
            "--mode" => {
                opts.mode = parsed(&arg, value(), |v| match v {
                    "full" => Some(Mode::Full),
                    "coop" => Some(Mode::CooperativeOnly),
                    "baseline" => Some(Mode::Uncoordinated),
                    _ => None,
                });
            }
            "--duration" => opts.duration = Some(parsed(&arg, value(), parse_sim_secs)),
            "--seed" => opts.seed = parsed(&arg, value(), |v| v.parse().ok()),
            "--seeds" => opts.seeds = parsed(&arg, value(), |v| v.parse().ok().filter(|&n| n > 0)),
            "--jobs" => opts.jobs = parsed(&arg, value(), |v| v.parse().ok().filter(|&n| n > 0)),
            "--flash" => opts.flash = Some(parsed(&arg, value(), |v| v.parse().ok())),
            "--beta-max" => opts.beta_max = Some(parsed(&arg, value(), |v| v.parse().ok())),
            "--policy" => {
                opts.policy = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("enviromic: {e}");
                    usage()
                });
            }
            "--prelude" => opts.prelude = Some(parsed(&arg, value(), parse_sim_secs)),
            "--timeline" => opts.timeline = Some(parsed(&arg, value(), parse_sim_secs)),
            "--timeline-out" => opts.timeline_out = Some(value()),
            "--series" => opts.series = true,
            "--stats" => opts.stats = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("enviromic: unknown flag {arg:?}");
                usage()
            }
        }
    }
    // The mobile and voice workloads are the paper's fixed 9 s and 7 s
    // events: a length for them would be silently ignored.
    if opts.duration.is_some() && matches!(opts.scenario.as_str(), "mobile" | "voice") {
        eprintln!(
            "enviromic: --duration does not apply to --scenario {}",
            opts.scenario
        );
        usage();
    }
    // Several seeds print the digest table, not a harvest report: the
    // series would be silently dropped.
    if opts.series && opts.seeds > 1 {
        eprintln!(
            "enviromic: --series applies to one seed, not --seeds {}",
            opts.seeds
        );
        usage();
    }
    // Several seeds' timelines reach only the dump: without one, every
    // job would sample a timeline that nothing prints.
    if opts.timeline.is_some() && opts.timeline_out.is_none() && opts.seeds > 1 {
        eprintln!(
            "enviromic: --timeline with --seeds {} needs --timeline-out",
            opts.seeds
        );
        usage();
    }
    // A sweep runs seeds `seed..=seed + seeds - 1`: the last one must fit.
    if opts.seed.checked_add(opts.seeds - 1).is_none() {
        eprintln!(
            "enviromic: --seed {} --seeds {} runs past the last seed, {}",
            opts.seed,
            opts.seeds,
            u64::MAX
        );
        usage();
    }
    // Check the node flags together, before any run: a bad value must not
    // reach `EnviroMicNode::new`, which panics on it.
    if let Err(e) = node_config(&opts).validate() {
        eprintln!("enviromic: invalid node configuration: {e}");
        usage();
    }
    log::init_from_flags(quiet);
    opts
}

fn build_scenario(opts: &Options, seed: u64) -> (Scenario, WorldConfig) {
    match opts.scenario.as_str() {
        "indoor" => {
            let mut wcfg = indoor_world_config(seed);
            wcfg.mic_gain_spread = 0.10;
            (indoor_scenario(opts.duration.unwrap_or(1100.0), seed), wcfg)
        }
        "mobile" => (mobile_scenario(), indoor_world_config(seed)),
        "voice" => (voice_scenario(), indoor_world_config(seed)),
        "forest" => {
            let mut wcfg = forest_world_config(seed);
            wcfg.mic_gain_spread = 0.10;
            (forest_scenario(opts.duration.unwrap_or(1800.0), seed), wcfg)
        }
        other => unreachable!("parse_args rejects --scenario {other:?}"),
    }
}

fn node_config(opts: &Options) -> NodeConfig {
    let mut cfg = NodeConfig::default().with_mode(opts.mode);
    if let Some(chunks) = opts.flash {
        cfg = cfg.with_flash_chunks(chunks);
    }
    if let Some(beta) = opts.beta_max {
        cfg = cfg.with_beta_max(beta);
    }
    cfg = cfg.with_policy(opts.policy);
    if let Some(secs) = opts.prelude {
        cfg = cfg.with_prelude(SimDuration::from_secs_f64(secs));
    }
    cfg
}

/// Writes the run dump to `path`; a failed write exits 1.
fn write_dump(path: &str, contents: &str) {
    match write_artifact(path, contents) {
        Ok(()) => log_info!("[enviromic] run dump written to {path}"),
        Err(e) => {
            eprintln!("enviromic: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = parse_args();
    let shared = opts.clone();
    let spec = ScenarioSpec::new(opts.scenario.clone(), move |seed| {
        let (scenario, world_cfg) = build_scenario(&shared, seed);
        JobInput {
            scenario,
            node_cfg: node_config(&shared),
            world_cfg,
            drain_secs: 20.0,
            faults: FaultPlan::new(),
        }
    });
    log_info!(
        "[enviromic] running {} seed(s) of {} from seed {}, mode {:?}...",
        opts.seeds,
        opts.scenario,
        opts.seed,
        opts.mode,
    );
    let seeds = (opts.seed..=opts.seed + (opts.seeds - 1)).collect();
    let mut plan = SweepPlan::new(seeds, vec![spec]);
    if let Some(secs) = opts.timeline {
        plan = plan.with_timeline(secs);
    }
    let outcome = run_sweep(&plan, opts.jobs);
    // One seed dumps its events and prints its harvest report; several
    // dump each seed's digest and timeline and print the digest table.
    let single = opts.seeds == 1;

    // The dump first: a reader that closes stdout early ends the process.
    if let Some(path) = &opts.timeline_out {
        let dump = DumpFile::from_sweep(&outcome, single);
        write_dump(path, &serde::to_json(&dump));
    }
    write_stdout(|out| {
        if single {
            return write_report(out, &opts, &outcome.jobs[0].run);
        }
        write!(out, "{}", outcome.render())?;
        if opts.stats {
            writeln!(out)?;
            write!(out, "{}", outcome.aggregate.render_dashboard())?;
        }
        Ok(())
    });
}

/// The harvest report of `run`, plus the miss-ratio series and the
/// dashboards when `opts` asks for them.
fn write_report(out: &mut dyn Write, opts: &Options, run: &ExperimentRun) -> io::Result<()> {
    let horizon = run.scenario.duration.as_secs_f64();
    let exp = run.experiment();
    let kinds = exp.recorded_secs_by_kind();
    let by_kind = [
        ("cooperative tasks", kinds.get(&RecordKind::Task)),
        ("preludes", kinds.get(&RecordKind::Prelude)),
        ("baseline intervals", kinds.get(&RecordKind::Baseline)),
    ];
    // Added in the printed order, not the map's per-process one, and from
    // +0.0: `Iterator::sum` starts an `f64` sum from -0.0, which an
    // eventless run would print as "-0.0 s".
    let recorded = by_kind
        .iter()
        .filter_map(|(_, secs)| *secs)
        .fold(0.0, |sum, secs| sum + secs);
    let total_event = run.scenario.total_event_secs();
    let miss = exp.miss_ratio(horizon);
    let redundancy = exp
        .redundancy_series(horizon, horizon)
        .last()
        .map_or(0.0, |p| p.1);
    let packets = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::MessageSent { .. }))
        .count();
    let migrations: u64 = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                duplicated: false,
                chunks,
                ..
            } => Some(u64::from(*chunks)),
            _ => None,
        })
        .sum();

    writeln!(out, "harvest report")?;
    writeln!(out, "  event audio available : {total_event:>9.1} s")?;
    writeln!(out, "  audio recorded        : {recorded:>9.1} s")?;
    for (kind, secs) in by_kind {
        if let Some(secs) = secs {
            writeln!(out, "    {kind:<19} : {secs:>9.1} s")?;
        }
    }
    writeln!(out, "  miss ratio            : {miss:>9.3}")?;
    writeln!(out, "  stored redundancy     : {redundancy:>9.3}")?;
    writeln!(out, "  radio packets         : {packets:>9}")?;
    writeln!(out, "  chunks migrated       : {migrations:>9}")?;

    if opts.series {
        writeln!(out, "\nmiss-ratio series:")?;
        for (t, m) in exp.miss_ratio_series(horizon, horizon / 10.0) {
            writeln!(out, "  {t:>8.0}s  {m:.3}")?;
        }
    }

    if opts.stats {
        writeln!(out)?;
        write!(out, "{}", run.telemetry.render_dashboard())?;
        if let Some(tl) = &run.timeline {
            writeln!(out)?;
            write!(out, "{}", tl.render_dashboard(72))?;
        }
    }
    Ok(())
}
