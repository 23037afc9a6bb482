//! Diagnostic tool: dissects redundancy and balancing behaviour of one
//! indoor run, then prints the run's telemetry dashboard. Not part of the
//! figure set; useful when calibrating.
//!
//! ```text
//! diag [SECS] [coop|full|baseline] [-q|--quiet] [-v|--verbose]
//! diag mobile
//! ```

use enviromic::core::{Mode, NodeConfig};
use enviromic::harness::run_scenario;
use enviromic::sim::{RecordKind, TraceEvent};
use enviromic::types::MsgKind;
use enviromic::workloads::{indoor_scenario, IndoorParams};
use enviromic_bench::indoor::suite_world_config;
use enviromic_telemetry::{log, log_info};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "-q" || a == "--quiet");
    let verbose = args.iter().any(|a| a == "-v" || a == "--verbose");
    args.retain(|a| !matches!(a.as_str(), "-q" | "--quiet" | "-v" | "--verbose"));
    log::init_from_flags(quiet, verbose);
    let first = args.first().cloned().unwrap_or_else(|| "900".into());
    if first == "mobile" {
        diag_mobile();
        return;
    }
    let secs: f64 = first.parse().unwrap_or(900.0);
    let mode = args.get(1).cloned().unwrap_or_else(|| "coop".into());
    let params = IndoorParams {
        duration_secs: secs,
        ..IndoorParams::default()
    };
    let scenario = indoor_scenario(&params, 1);
    let cfg = match mode.as_str() {
        "baseline" => NodeConfig::default().with_mode(Mode::Uncoordinated),
        "full" => NodeConfig::default().with_mode(Mode::Full),
        _ => NodeConfig::default().with_mode(Mode::CooperativeOnly),
    }
    .with_flash_chunks(650);
    log_info!("[diag] indoor run: {secs:.0}s, mode {mode}...");
    let run = run_scenario(scenario, &cfg, suite_world_config(1), 20.0);
    let exp = run.experiment();

    // Pairwise overlap between task recordings attributed to one source.
    let mut recs: Vec<(u64, u64, u32, u32)> = Vec::new();
    for e in run.trace.iter() {
        if let TraceEvent::Recorded {
            node,
            t0,
            t1,
            kind,
            event,
            ..
        } = e
        {
            if *kind != RecordKind::Baseline || mode == "baseline" {
                let src = exp.attribute(*node, *t0, *t1);
                recs.push((
                    t0.as_jiffies(),
                    t1.as_jiffies(),
                    node.0,
                    src.map(|s| s.0).unwrap_or(u32::MAX),
                ));
            }
            let _ = event;
        }
    }
    recs.sort_unstable();
    let mut overlap_j = 0u64;
    let mut total_j = 0u64;
    for (i, a) in recs.iter().enumerate() {
        total_j += a.1 - a.0;
        for b in recs[i + 1..].iter() {
            if b.0 >= a.1 {
                break;
            }
            if a.3 == b.3 {
                overlap_j += a.1.min(b.1) - b.0;
            }
        }
    }
    println!(
        "recorded intervals: {}  total {:.1}s  pairwise same-source overlap {:.1}s ({:.1}%)",
        recs.len(),
        total_j as f64 / 32768.0,
        overlap_j as f64 / 32768.0,
        100.0 * overlap_j as f64 / total_j.max(1) as f64
    );
    let unattributed = recs.iter().filter(|r| r.3 == u32::MAX).count();
    println!("unattributed recordings: {unattributed}");

    let elections = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeaderElected { handoff: false, .. }))
        .count();
    let handoffs = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeaderElected { handoff: true, .. }))
        .count();
    println!(
        "events: {}  fresh elections: {}  handoffs: {}",
        run.scenario.sources.len(),
        elections,
        handoffs
    );

    let migrated: u32 = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                duplicated: false,
                chunks,
                ..
            } => Some(*chunks),
            _ => None,
        })
        .sum();
    let dup_chunks: u32 = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                duplicated: true,
                chunks,
                ..
            } => Some(*chunks),
            _ => None,
        })
        .sum();
    let dropped = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::RecordDropped { .. }))
        .count();
    println!("migrated chunks: {migrated}  possible-duplicate chunks: {dup_chunks}  drop events: {dropped}");
    let mut kinds: std::collections::BTreeMap<MsgKind, u64> = Default::default();
    for e in run.trace.iter() {
        if let TraceEvent::MessageSent { kind, .. } = e {
            *kinds.entry(*kind).or_default() += 1;
        }
    }
    println!("message census: {kinds:?}");
    println!(
        "final miss: {:.3}  redundancy: {:.3}",
        exp.miss_ratio(secs),
        exp.redundancy_series(secs, secs)
            .last()
            .map(|p| p.1)
            .unwrap_or(0.0)
    );
    println!();
    print!("{}", run.telemetry.render_dashboard());
}

/// Gap forensics for the Fig. 6 mobile workload: where inside the event
/// does coverage break, averaged over seeds?
fn diag_mobile() {
    use enviromic::harness::indoor_world_config;
    use enviromic::workloads::{mobile_scenario, MobileParams};
    let mut startup = Vec::new();
    let mut midgaps = Vec::new();
    let mut miss = Vec::new();
    for seed in 0..20u64 {
        let scenario = mobile_scenario(&MobileParams::default());
        let (ev0, ev1) = (
            scenario.sources[0].start.as_jiffies(),
            scenario.sources[0].stop.as_jiffies(),
        );
        let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
        let run = enviromic::harness::run_scenario(scenario, &cfg, indoor_world_config(seed), 1.0);
        let mut iv: Vec<(u64, u64)> = run
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recorded {
                    t0,
                    t1,
                    kind: RecordKind::Task,
                    ..
                } => Some((t0.as_jiffies().max(ev0), t1.as_jiffies().min(ev1))),
                _ => None,
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (a, b) in iv {
            match merged.last_mut() {
                Some((_, lb)) if a <= *lb => *lb = (*lb).max(b),
                _ => merged.push((a, b)),
            }
        }
        let first = merged.first().map(|&(a, _)| a).unwrap_or(ev1);
        startup.push((first - ev0) as f64 / 32768.0);
        let mut gap_total = 0u64;
        for w in merged.windows(2) {
            gap_total += w[1].0 - w[0].1;
        }
        let tail = ev1.saturating_sub(merged.last().map(|&(_, b)| b).unwrap_or(ev0));
        midgaps.push((gap_total + tail) as f64 / 32768.0);
        let covered: u64 = merged.iter().map(|(a, b)| b - a).sum();
        miss.push(1.0 - covered as f64 / (ev1 - ev0) as f64);
    }
    let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mobile gaps over {} seeds: startup {:.2}s  mid+tail {:.2}s  miss {:.3}",
        startup.len(),
        avg(&startup),
        avg(&midgaps),
        avg(&miss)
    );
}
