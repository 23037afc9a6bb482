//! The paper's shape claims, checked at every seed of the committed
//! `BENCH_figures.json`.
//!
//! CI regenerates the file with `artifacts figures` and diffs it against
//! the committed copy, so these tests read what the code produces today.
//! Only claims that hold at all four seeds are asserted here;
//! EXPERIMENTS.md lists the partial ones with their per-seed values.

use enviromic_bench::figures::{FiguresReport, SeedFigures, Series, SEEDS};

const COMMITTED: &str = include_str!("../../../BENCH_figures.json");

/// The committed report, which must hold every seed of [`SEEDS`].
fn report() -> FiguresReport {
    let report: FiguresReport = serde::from_json(COMMITTED).expect("BENCH_figures.json parses");
    let seeds: Vec<u64> = report.seeds.iter().map(|s| s.seed).collect();
    assert_eq!(seeds, SEEDS, "BENCH_figures.json seeds");
    report
}

/// Whole-run miss ratio of `label` in the headline.
fn final_miss(figures: &SeedFigures, label: &str) -> f64 {
    figures
        .headline
        .final_miss
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("seed {}: no {label} in the headline", figures.seed))
        .1
}

/// The values of `label` in `series`.
fn column<'a>(series: &'a Series, label: &str, seed: u64) -> &'a [f64] {
    &series
        .columns
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("seed {seed}: no {label} column"))
        .1
}

/// The last value of `label` in `series`.
fn last(series: &Series, label: &str, seed: u64) -> f64 {
    *column(series, label, seed)
        .last()
        .unwrap_or_else(|| panic!("seed {seed}: empty {label} column"))
}

const LOAD_BALANCING: [&str; 3] = ["lb-bmax4", "lb-bmax3", "lb-bmax2"];

#[test]
fn committed_report_round_trips_byte_for_byte() {
    assert_eq!(serde::to_json(&report()), COMMITTED);
}

/// Fig. 10: "more than a 4-fold miss ratio improvement".
#[test]
fn load_balancing_cuts_the_baseline_miss_ratio_at_least_fourfold() {
    for figures in report().seeds {
        let baseline = final_miss(&figures, "baseline");
        let lb2 = final_miss(&figures, "lb-bmax2");
        assert!(
            baseline / lb2 >= 4.0,
            "seed {}: baseline {baseline:.3} / lb-bmax2 {lb2:.3} = {:.2}, below 4",
            figures.seed,
            baseline / lb2
        );
    }
}

/// Fig. 10: uncoordinated recording fills its stores and then misses
/// nearly everything.
#[test]
fn baseline_misses_most_of_the_run() {
    for figures in report().seeds {
        let baseline = final_miss(&figures, "baseline");
        assert!(
            baseline > 0.8,
            "seed {}: baseline final miss {baseline:.3}, not above 0.8",
            figures.seed
        );
    }
}

/// Fig. 10: every load-balancing setting keeps its final miss ratio low.
#[test]
fn every_load_balancing_setting_ends_below_a_fifth() {
    for figures in report().seeds {
        for label in LOAD_BALANCING {
            let miss = final_miss(&figures, label);
            assert!(
                miss < 0.2,
                "seed {}: {label} final miss {miss:.3}, not below 0.2",
                figures.seed
            );
        }
    }
}

/// Fig. 11: the baseline records each event at several nodes, so its
/// redundancy is above every cooperative setting at every sample.
#[test]
fn baseline_redundancy_is_above_every_cooperative_setting() {
    for figures in report().seeds {
        let fig11 = &figures.fig11;
        let baseline = column(fig11, "baseline", figures.seed);
        for (label, values) in fig11.columns.iter().filter(|(l, _)| l != "baseline") {
            for ((t, base), other) in fig11.t_s.iter().zip(baseline).zip(values) {
                assert!(
                    base > other,
                    "seed {}: at {t} s baseline redundancy {base:.4} <= {label} {other:.4}",
                    figures.seed
                );
            }
        }
    }
}

/// Fig. 12: the smallest `β_max` balances hardest and sends the most
/// control messages.
#[test]
fn beta_max_2_sends_the_most_control_messages() {
    for figures in report().seeds {
        let seed = figures.seed;
        let lb2 = last(&figures.fig12, "lb-bmax2", seed);
        for label in ["lb-bmax3", "lb-bmax4"] {
            let other = last(&figures.fig12, label, seed);
            assert!(
                lb2 > other,
                "seed {seed}: lb-bmax2 sent {lb2} control messages, {label} {other}"
            );
        }
    }
}

/// Fig. 12: cooperative recording alone costs a small fraction of what
/// load balancing sends.
#[test]
fn cooperation_alone_sends_under_a_tenth_of_load_balancing() {
    for figures in report().seeds {
        let seed = figures.seed;
        let coop = last(&figures.fig12, "coop-only", seed);
        for label in LOAD_BALANCING {
            let lb = last(&figures.fig12, label, seed);
            assert!(
                coop * 10.0 < lb,
                "seed {seed}: coop-only sent {coop} control messages, {label} {lb}"
            );
        }
    }
}
