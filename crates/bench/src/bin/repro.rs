//! Figure-reproduction driver.
//!
//! ```text
//! repro [FIGURE ...] [--seed N] [--quick] [--jobs N] [-q | --verbose]
//!       [--telemetry-out PATH] [--timeline SECS] [--timeline-out PATH]
//!
//! FIGURE: fig3 fig6 fig7 fig8 fig10 fig11 fig12 fig13 fig14
//!         fig16 fig17 fig18 headline all    (default: all)
//! --seed N             root seed (default 1)
//! --quick              shortened runs (CI-friendly): 1/4 duration, 5 reps
//! --jobs N             sweep worker threads (default: available cores)
//! -q / --quiet         suppress status lines
//! -v / --verbose       extra detail + print the telemetry dashboard
//! --telemetry-out PATH telemetry JSON destination
//!                      (default target/telemetry/repro.json)
//! --timeline SECS      also run a quick-indoor capture with a sim-time
//!                      metric timeline sampled every SECS and dump it
//!                      (events + timeline) for the `trace` explorer
//! --timeline-out PATH  capture dump destination
//!                      (default target/telemetry/repro_timeline.json)
//! ```
//!
//! Each figure prints the same rows/series the paper plots; EXPERIMENTS.md
//! records how the output compares to the published results. Every run
//! also snapshots the runtime telemetry (protocol counters, latency
//! histograms, per-phase wall-clock spans) to `--telemetry-out`, giving
//! perf work a machine-readable baseline per invocation.

use enviromic::metrics::render_series;
use enviromic::observe::{DumpFile, RunDump};
use enviromic::{default_jobs, parse_sim_secs, write_artifact};
use enviromic_bench::{ablation, fig03, fig06, fig08, indoor, outdoor};
use enviromic_telemetry::{log, log_info, log_warn, Registry, TelemetryReport};
use std::collections::BTreeSet;

struct Options {
    figures: BTreeSet<&'static str>,
    seed: u64,
    quick: bool,
    jobs: usize,
    telemetry_out: String,
    timeline: Option<f64>,
    timeline_out: String,
}

/// Every figure `repro` can print; `all` (or naming none) selects them all.
const FIGURES: [&str; 14] = [
    "fig3", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig16", "fig17",
    "fig18", "headline", "ablation",
];

const USAGE: &str = "usage: repro [fig3 fig6 fig7 fig8 fig10 fig11 fig12 fig13 fig14 \
     fig16 fig17 fig18 headline ablation all] [--seed N] [--quick] \
     [--jobs N] [-q|--quiet] [-v|--verbose] [--telemetry-out PATH] \
     [--timeline SECS] [--timeline-out PATH]";

/// Rejects the command line: warns about `problem`, prints the usage and
/// exits 2.
fn usage(problem: &str) -> ! {
    log_warn!("{problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut figures = BTreeSet::new();
    let mut seed = 1u64;
    let mut quick = false;
    let mut jobs = default_jobs();
    let mut quiet = false;
    let mut verbose = false;
    let mut telemetry_out = String::from("target/telemetry/repro.json");
    let mut timeline = None;
    let mut timeline_out = String::from("target/telemetry/repro_timeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} expects a value")))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"));
            }
            "--jobs" => {
                jobs = value()
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--jobs expects a positive integer"));
            }
            "--quick" => quick = true,
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--telemetry-out" => telemetry_out = value(),
            "--timeline" => {
                let secs = parse_sim_secs(&value());
                timeline =
                    Some(secs.unwrap_or_else(|| usage("--timeline expects at least one jiffy")));
            }
            "--timeline-out" => timeline_out = value(),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "all" => figures.extend(FIGURES),
            name => {
                let figure = FIGURES
                    .iter()
                    .find(|&&f| f == name)
                    .unwrap_or_else(|| usage(&format!("unknown figure or flag {name}")));
                figures.insert(*figure);
            }
        }
    }
    log::init_from_flags(quiet, verbose);
    if figures.is_empty() {
        figures.extend(FIGURES);
    }
    Options {
        figures,
        seed,
        quick,
        jobs,
        telemetry_out,
        timeline,
        timeline_out,
    }
}

/// `--timeline SECS`: a dedicated quick-indoor capture run with sim-time
/// sampling on, dumped (events + timeline) for the `trace` explorer.
fn run_timeline_capture(opts: &Options, registry: &Registry) {
    use enviromic::core::{Mode, NodeConfig};
    use enviromic::harness::{indoor_world_config, run_scenario};
    use enviromic::types::SimDuration;
    use enviromic::workloads::{indoor_scenario, IndoorParams};

    let Some(secs) = opts.timeline else { return };
    let _phase = registry.span("timeline-capture");
    log_info!("[repro] timeline capture: quick-indoor 120s, sampled every {secs:.1}s...");
    let params = IndoorParams {
        duration_secs: 120.0,
        ..IndoorParams::default()
    };
    let scenario = indoor_scenario(&params, opts.seed);
    let cfg = NodeConfig::default().with_mode(Mode::Full);
    let mut wcfg = indoor_world_config(opts.seed);
    wcfg.timeline_sample_period = Some(SimDuration::from_secs_f64(secs));
    let run = run_scenario(scenario, &cfg, wcfg, 5.0);
    let dump = DumpFile {
        runs: vec![RunDump::from_run("quick-indoor", opts.seed, &run, true)],
    };
    match write_artifact(&opts.timeline_out, &dump.to_json()) {
        Ok(()) => log_info!("[repro] timeline dump written to {}", opts.timeline_out),
        Err(e) => log_warn!("could not write {}: {e}", opts.timeline_out),
    }
}

fn series_table(title: &str, labelled: &[(String, Vec<(f64, f64)>)]) -> String {
    let columns: Vec<&str> = labelled.iter().map(|(l, _)| l.as_str()).collect();
    let n = labelled.first().map_or(0, |(_, s)| s.len());
    let rows: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|i| {
            let x = labelled[0].1[i].0;
            let vals = labelled.iter().map(|(_, s)| s[i].1).collect();
            (x, vals)
        })
        .collect();
    format!("{title}\n{}", render_series("t(s)", &columns, &rows))
}

fn main() {
    let opts = parse_args();
    let wants = |f: &str| opts.figures.contains(f);
    let indoor_figures = ["fig10", "fig11", "fig12", "fig13", "fig14", "headline"];
    let needs_indoor = indoor_figures.iter().any(|f| wants(f));

    // Session registry: per-phase wall-clock spans, plus every run's
    // protocol/physical-layer metrics folded in. `totals` additionally
    // aggregates runs under their unprefixed metric names.
    let registry = Registry::new();
    let mut totals = TelemetryReport::default();

    if wants("fig3") {
        let _phase = registry.span("fig3");
        println!("{}", fig03::render(&fig03::run(opts.seed)));
    }
    if wants("fig6") {
        let _phase = registry.span("fig6");
        let runs = if opts.quick { 5 } else { 15 };
        log_info!("[repro] fig6: sweeping Dta x Trc ({runs} runs per point)...");
        let sweep = fig06::run_sweep(opts.seed, runs);
        println!("{}", fig06::render_sweep(&sweep));
    }
    if wants("fig7") {
        let _phase = registry.span("fig7");
        let (rows, event) = fig06::run_timeline(opts.seed);
        println!("{}", fig06::render_timeline(&rows, event));
    }
    if wants("fig8") {
        let _phase = registry.span("fig8");
        println!("{}", fig08::render(&fig08::run(opts.seed)));
    }

    if needs_indoor {
        let _phase = registry.span("indoor-suite");
        let duration = if opts.quick { 1100.0 } else { 4400.0 };
        log_info!(
            "[repro] indoor suite: 5 settings x {duration:.0}s on {} workers...",
            opts.jobs
        );
        let suite = indoor::run_suite_jobs(opts.seed, duration, opts.jobs);
        for (setting, run) in &suite.runs {
            registry.absorb(&setting.label(), &run.telemetry);
            totals.merge(&run.telemetry);
        }
        let sample = duration / 8.0;
        if wants("fig10") {
            println!(
                "{}",
                series_table(
                    "Fig. 10 — cumulative recording miss ratio",
                    &suite.fig10_miss_series(sample),
                )
            );
        }
        if wants("fig11") {
            println!(
                "{}",
                series_table(
                    "Fig. 11 — recording redundancy ratio",
                    &suite.fig11_redundancy_series(sample),
                )
            );
        }
        if wants("fig12") {
            println!(
                "{}",
                series_table(
                    "Fig. 12 — cumulative control messages",
                    &suite.fig12_message_series(sample),
                )
            );
        }
        if wants("fig13") {
            let marks = [duration * 0.34, duration * 0.68, duration * 1.0];
            for (t, grid) in suite.fig13_contours(&marks) {
                println!(
                    "{}",
                    grid.render(&format!(
                        "Fig. 13 — storage occupancy (chunks) at t = {t:.0} s, beta_max = 2"
                    ))
                );
            }
        }
        if wants("fig14") {
            println!(
                "{}",
                suite
                    .fig14_contour()
                    .render("Fig. 14 — control messages sent per node, beta_max = 2")
            );
        }
        if wants("headline") {
            println!("Headline — effective storage capacity vs uncoordinated recording");
            for (label, miss) in suite.final_miss_ratios() {
                println!(
                    "  {label:<12} final miss ratio {miss:.3}  (recorded {:.3})",
                    1.0 - miss
                );
            }
            let (miss_imp, data_imp) = suite.headline_improvement();
            println!("  miss-ratio improvement (baseline/lb-bmax2): {miss_imp:.2}x");
            println!("  recorded-data factor   (lb-bmax2/baseline): {data_imp:.2}x\n");
        }
    }

    if wants("ablation") {
        let _phase = registry.span("ablation");
        let duration = if opts.quick { 700.0 } else { 2200.0 };
        log_info!(
            "[repro] ablation battery: 7 configurations x {duration:.0}s on {} workers...",
            opts.jobs
        );
        println!(
            "{}",
            ablation::render(&ablation::run_jobs(opts.seed, duration, opts.jobs))
        );
    }

    if wants("fig16") || wants("fig17") || wants("fig18") {
        let _phase = registry.span("outdoor");
        let duration = if opts.quick { 2700.0 } else { 10_800.0 };
        log_info!("[repro] outdoor deployment: 36 nodes x {duration:.0}s...");
        let run = outdoor::run(opts.seed, duration);
        totals.merge(&run.run.telemetry);
        if wants("fig16") {
            println!(
                "{}",
                outdoor::render_fig16(&run.fig16_activity_per_minute())
            );
        }
        if wants("fig17") {
            println!(
                "{}",
                run.fig17_generated_contour()
                    .render("Fig. 17 — acoustic data generated per location (bytes)")
            );
        }
        if wants("fig18") {
            let (hotspot, grid) = run.fig18_migration_map();
            println!(
                "{}",
                grid.render(&format!(
                    "Fig. 18 — final holdings (KB) of data recorded by hotspot {hotspot}"
                ))
            );
        }
    }

    run_timeline_capture(&opts, &registry);

    // Telemetry export: spans + per-setting breakdown from the registry,
    // plus the unprefixed cross-run totals.
    let mut report = registry.report();
    report.merge(&totals);
    let dashboard = report.render_dashboard();
    if log::enabled(log::Level::Debug) {
        eprint!("{dashboard}");
    }
    match write_artifact(&opts.telemetry_out, &report.to_json()) {
        Ok(()) => log_info!("[repro] telemetry report written to {}", opts.telemetry_out),
        Err(e) => log_warn!("could not write {}: {e}", opts.telemetry_out),
    }
}
