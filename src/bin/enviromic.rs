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
//!                                           --seed (prints per-seed digests)
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
//!                                           stays bit-identical)
//!   --timeline-out PATH                     write a run dump (events +
//!                                           timeline) for the `trace`
//!                                           explorer
//!   --series                                also print the miss-ratio series
//!   --stats                                 print the telemetry dashboard
//!                                           (and the timeline, if sampled)
//!   -q / --quiet                            suppress status lines
//! ```

use enviromic::core::{Mode, NodeConfig, PolicyKind};
use enviromic::harness::{forest_world_config, indoor_world_config, run_scenario};
use enviromic::observe::{DumpFile, RunDump};
use enviromic::sim::{RecordKind, TraceEvent, WorldConfig};
use enviromic::sweep::{run_sweep, JobInput, ScenarioSpec, SweepPlan};
use enviromic::types::SimDuration;
use enviromic::workloads::{
    forest_scenario, indoor_scenario, mobile_scenario, voice_scenario, Scenario,
};
use enviromic::{default_jobs, parse_sim_secs, write_artifact};
use enviromic_telemetry::{log, log_info};

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
            "--scenario" => opts.scenario = value(),
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
        other => {
            eprintln!("enviromic: bad --scenario value {other:?}");
            usage()
        }
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

/// `--seeds N`: the same scenario replayed across N consecutive seeds on a
/// worker pool; prints the per-seed digest table instead of a harvest report.
fn run_seed_sweep(opts: &Options) {
    let shared = opts.clone();
    let spec = ScenarioSpec::new(opts.scenario.clone(), move |seed| {
        let (scenario, world_cfg) = build_scenario(&shared, seed);
        JobInput {
            scenario,
            node_cfg: node_config(&shared),
            world_cfg,
            drain_secs: 20.0,
            faults: enviromic_sim::FaultPlan::new(),
        }
    });
    let seeds: Vec<u64> = (opts.seed..=opts.seed + (opts.seeds - 1)).collect();
    log_info!(
        "[enviromic] sweeping {} seeds of {} on {} workers...",
        opts.seeds,
        opts.scenario,
        opts.jobs,
    );
    let mut plan = SweepPlan::new(seeds, vec![spec]);
    if let Some(secs) = opts.timeline {
        plan = plan.with_timeline(secs);
    }
    let outcome = run_sweep(&plan, opts.jobs);
    print!("{}", outcome.render());
    if opts.stats {
        println!();
        print!("{}", outcome.aggregate.render_dashboard());
    }
    if let Some(path) = &opts.timeline_out {
        write_dump(path, &serde::to_json(&DumpFile::sweep_timelines(&outcome)));
    }
}

fn main() {
    let opts = parse_args();
    if opts.seeds > 1 {
        run_seed_sweep(&opts);
        return;
    }
    let (scenario, mut world_cfg) = build_scenario(&opts, opts.seed);
    if let Some(secs) = opts.timeline {
        world_cfg.timeline_sample_period = Some(SimDuration::from_secs_f64(secs));
    }
    let horizon = scenario.duration.as_secs_f64();
    let cfg = node_config(&opts);

    log_info!(
        "[enviromic] {} scenario: {} nodes, {} events, {:.0}s, mode {:?}",
        opts.scenario,
        scenario.topology.len(),
        scenario.sources.len(),
        horizon,
        cfg.mode,
    );
    let run = run_scenario(scenario, &cfg, world_cfg, 20.0);
    let exp = run.experiment();

    // Harvest report.
    let kinds = exp.recorded_secs_by_kind();
    let recorded: f64 = kinds.values().sum();
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

    println!("harvest report");
    println!("  event audio available : {total_event:>9.1} s");
    println!("  audio recorded        : {recorded:>9.1} s");
    for (kind, secs) in [
        ("cooperative tasks", kinds.get(&RecordKind::Task)),
        ("preludes", kinds.get(&RecordKind::Prelude)),
        ("baseline intervals", kinds.get(&RecordKind::Baseline)),
    ] {
        if let Some(secs) = secs {
            println!("    {kind:<19} : {secs:>9.1} s");
        }
    }
    println!("  miss ratio            : {miss:>9.3}");
    println!("  stored redundancy     : {redundancy:>9.3}");
    println!("  radio packets         : {packets:>9}");
    println!("  chunks migrated       : {migrations:>9}");

    if opts.series {
        println!("\nmiss-ratio series:");
        for (t, m) in exp.miss_ratio_series(horizon, horizon / 10.0) {
            println!("  {t:>8.0}s  {m:.3}");
        }
    }

    if opts.stats {
        println!();
        print!("{}", run.telemetry.render_dashboard());
        if let Some(tl) = &run.timeline {
            println!();
            print!("{}", tl.render_dashboard(72));
        }
    }

    if let Some(path) = &opts.timeline_out {
        let dump = DumpFile {
            runs: vec![RunDump::from_run(&opts.scenario, opts.seed, &run, true)],
        };
        write_dump(path, &serde::to_json(&dump));
    }
}
