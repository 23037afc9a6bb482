//! `trace` — offline run-dump explorer.
//!
//! Loads a [`DumpFile`] written by `enviromic --timeline-out` or the
//! `artifacts` sweep leg and answers the questions a debugging session
//! actually asks: *what did node 3 do between 40 s and 60 s?*, *how many
//! chunks migrated?*, *what did the energy curve look like?*
//!
//! ```text
//! trace DUMP.json [OPTIONS]
//!   --run SELECTOR      restrict to one run: an index (0), a label
//!                       (quick-indoor), or label/seed (quick-indoor/42)
//!   --node N            keep events involving node N
//!   --kind K            keep events of kind K: a variant name
//!                       (Migrated, MessageSent) or a protocol label
//!                       (TASK_REQUEST, CRASH), case-insensitive
//!   --from SECS         keep events at or after SECS of sim-time
//!   --to SECS           keep events at or before SECS of sim-time
//!   --ledger            print the filtered events, one line each
//!   --timeline          print the run's metric-timeline dashboard
//!   --series PREFIX     restrict the timeline to series under PREFIX
//!                       (e.g. node.3, sim., core.)
//!   --json              emit the filtered events as JSON
//!   -q / --quiet        suppress status lines
//! ```
//!
//! With no options, prints a per-run summary: digest, event count, time
//! span, and the event-kind census.
//!
//! A `--kind` outside that vocabulary (the 12 variant names, the 16
//! message labels and the 7 fault labels) or a `--from`/`--to` that is not
//! a finite number prints the usage line and exits 2. When the reader
//! closes the output early (`trace d.json --ledger | head`), the explorer
//! stops writing and exits 0.
//!
//! A dump's events are the run's `TraceEvent`s, read back exactly as
//! recorded; `--json` prints the filtered ones in the dump's JSON form.

use enviromic::observe::{kind_counts, render_ledger, DumpFile, RunDump, TraceFilter};
use enviromic::runtime::TraceEvent;
use enviromic::telemetry::TimelineReport;
use enviromic_telemetry::{log, log_warn};
use std::io::{self, BufWriter, Write};

struct Options {
    path: String,
    run: Option<String>,
    filter: TraceFilter,
    ledger: bool,
    timeline: bool,
    series: Option<String>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace DUMP.json [--run INDEX|LABEL|LABEL/SEED] [--node N] \
         [--kind K] [--from SECS] [--to SECS] [--ledger] [--timeline] \
         [--series PREFIX] [--json] [-q|--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        path: String::new(),
        run: None,
        filter: TraceFilter::default(),
        ledger: false,
        timeline: false,
        series: None,
        json: false,
    };
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--run" => opts.run = Some(value()),
            "--node" => opts.filter.node = value().parse().ok().or_else(|| usage()),
            "--kind" => {
                let kind = value();
                if !TraceFilter::known_kind(&kind) {
                    usage();
                }
                opts.filter.kind = Some(kind);
            }
            "--from" => opts.filter.from_secs = Some(finite_secs(&value())),
            "--to" => opts.filter.to_secs = Some(finite_secs(&value())),
            "--ledger" => opts.ledger = true,
            "--timeline" => opts.timeline = true,
            "--series" => opts.series = Some(value()),
            "--json" => opts.json = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage(),
            _ if opts.path.is_empty() && !arg.starts_with('-') => opts.path = arg,
            _ => usage(),
        }
    }
    log::init_from_flags(quiet);
    if opts.path.is_empty() {
        usage();
    }
    opts
}

/// `text` as a finite number of seconds; anything else is a usage error.
fn finite_secs(text: &str) -> f64 {
    text.parse::<f64>()
        .ok()
        .filter(|secs| secs.is_finite())
        .unwrap_or_else(|| usage())
}

/// Does `run` match the `--run` selector (index, label, or label/seed)?
fn selected(run: &RunDump, index: usize, selector: &str) -> bool {
    if selector.parse::<usize>() == Ok(index) {
        return true;
    }
    match selector.split_once('/') {
        Some((label, seed)) => run.label == label && seed.parse() == Ok(run.seed),
        None => run.label == selector,
    }
}

fn write_summary(
    out: &mut impl Write,
    run: &RunDump,
    events: &[&TraceEvent],
    filtered: bool,
) -> io::Result<()> {
    writeln!(
        out,
        "run {}/{}: digest {}  {} events{}",
        run.label,
        run.seed,
        run.digest,
        events.len(),
        if filtered {
            format!(" (of {} dumped)", run.events.len())
        } else {
            String::new()
        },
    )?;
    if let Some((lo, hi)) = run.span_secs() {
        writeln!(out, "  span {lo:.1}..{hi:.1}s")?;
    }
    let counts = kind_counts(events.iter().copied());
    if !counts.is_empty() {
        writeln!(out, "  events by kind:")?;
        for (kind, n) in counts {
            writeln!(out, "    {kind:<32} {n:>7}")?;
        }
    }
    match &run.timeline {
        Some(tl) => writeln!(
            out,
            "  timeline: {} samples every {:.1}s, {} series (use --timeline)",
            tl.times.len(),
            tl.interval_secs,
            tl.series.len(),
        ),
        None => writeln!(out, "  timeline: none (rerun with --timeline SECS)"),
    }
}

fn write_timeline(
    out: &mut impl Write,
    run: &RunDump,
    series_prefix: Option<&str>,
) -> io::Result<()> {
    let Some(tl) = &run.timeline else {
        return writeln!(out, "run {}/{}: no timeline in dump", run.label, run.seed);
    };
    let view = match series_prefix {
        Some(prefix) => TimelineReport {
            interval_secs: tl.interval_secs,
            times: tl.times.clone(),
            series: tl.series_with_prefix(prefix).into_iter().cloned().collect(),
        },
        None => tl.clone(),
    };
    if view.series.is_empty() {
        return writeln!(
            out,
            "run {}/{}: no timeline series match the prefix",
            run.label, run.seed
        );
    }
    write!(out, "{}", view.render_dashboard(72))
}

/// Writes every selected run the way the options ask.
fn write_runs(out: &mut impl Write, opts: &Options, runs: &[&RunDump]) -> io::Result<()> {
    let filtered = opts.filter != TraceFilter::default();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        let events = opts.filter.apply(&run.events);
        if opts.json {
            writeln!(
                out,
                "{}",
                serde::Serialize::to_value(&events).to_json_pretty()
            )?;
            continue;
        }
        write_summary(out, run, &events, filtered)?;
        if opts.ledger {
            write!(out, "{}", render_ledger(events.iter().copied()))?;
        }
        if opts.timeline || opts.series.is_some() {
            write_timeline(out, run, opts.series.as_deref())?;
        }
    }
    Ok(())
}

fn main() {
    let opts = parse_args();
    let text = std::fs::read_to_string(&opts.path).unwrap_or_else(|e| {
        log_warn!("could not read {}: {e}", opts.path);
        std::process::exit(1);
    });
    let dump: DumpFile = serde::from_json(&text).unwrap_or_else(|e| {
        log_warn!("could not parse {}: {e}", opts.path);
        std::process::exit(1);
    });

    let runs: Vec<&RunDump> = dump
        .runs
        .iter()
        .enumerate()
        .filter(|(i, r)| opts.run.as_deref().is_none_or(|sel| selected(r, *i, sel)))
        .map(|(_, r)| r)
        .collect();
    if runs.is_empty() {
        log_warn!(
            "no run matches {:?} ({} in dump)",
            opts.run.as_deref().unwrap_or("<any>"),
            dump.runs.len()
        );
        std::process::exit(1);
    }

    let mut out = BufWriter::new(io::stdout().lock());
    match write_runs(&mut out, &opts, &runs).and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader has what it wanted (`trace d.json | head`).
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            log_warn!("could not write to stdout: {e}");
            std::process::exit(1);
        }
    }
}
