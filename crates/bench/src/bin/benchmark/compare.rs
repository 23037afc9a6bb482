//! `benchmark compare A.json B.json`: judges result B against baseline A
//! with the directions and bounds of `BENCHMARK.json`.
//!
//! Both files must come from the same benchmark version and seed. Every
//! workload of `BENCHMARK.json` must be in both, with every end-to-end
//! metric. Per workload and metric, B regresses when its value is worse
//! than A's by more than the metric's bound (a share of A's value). When
//! either side's own quartile spread is wider than the bound the
//! comparison is *unresolved* instead, unless every B run reads better
//! than every A run, or every B run reads worse and B's value is worse by
//! more than the bound. Exit status 1 on any regression, on a missing
//! workload or metric, and on any output mismatch recorded in either file.

use crate::spec::{MetricSpec, Spec};
use crate::stats::Summary;
use serde::Value;
use std::collections::BTreeMap;

/// What `compare` needs from a result file: its identity, and per
/// workload the output mismatch count and the end-to-end summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    pub version: u64,
    pub seed: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub digest_mismatches: u64,
    pub end_to_end: BTreeMap<String, Summary>,
}

impl Results {
    pub fn parse(text: &str) -> Result<Results, String> {
        let root = Value::from_json(text).map_err(|e| e.to_string())?;
        let number = |v: Option<&Value>, what: &str| {
            v.and_then(Value::as_u64)
                .ok_or_else(|| format!("no `{what}`"))
        };
        let mut out = Results {
            version: number(root.get("version"), "version")?,
            seed: number(
                root.get("provenance").and_then(|p| p.get("seed")),
                "provenance.seed",
            )?,
            ..Results::default()
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_map)
            .ok_or("no `workloads` map")?;
        for (name, w) in workloads {
            let mut result = WorkloadResult {
                digest_mismatches: number(w.get("digest_mismatches"), "digest_mismatches")
                    .map_err(|e| format!("{name}: {e}"))?,
                ..WorkloadResult::default()
            };
            let metrics = w
                .get("end_to_end")
                .and_then(Value::as_map)
                .ok_or_else(|| format!("{name}: no end_to_end map"))?;
            for (metric, m) in metrics {
                let summary = Summary::from_value(m).ok_or_else(|| {
                    format!("{name}/{metric}: needs a value and at least one sample")
                })?;
                result.end_to_end.insert(metric.clone(), summary);
            }
            out.workloads.insert(name.clone(), result);
        }
        Ok(out)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
}

fn judge(m: &MetricSpec, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let bound = m.bound.unwrap_or(0.0);
    // Positive = B is worse.
    let worse = if a.value == 0.0 {
        0.0
    } else if m.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    let (b_always_better, b_always_worse) = if m.lower_is_better {
        (b.max < a.min, b.min > a.max)
    } else {
        (b.min > a.max, b.max < a.min)
    };
    let verdict = if a.spread() > bound || b.spread() > bound {
        if b_always_better {
            Verdict::Better
        } else if b_always_worse && worse > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// The comparison table and the number of failures: regressions, output
/// mismatches, and workloads or metrics missing from either side. Files
/// from different benchmark versions or seeds are refused.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> Result<(String, usize), String> {
    if (a.version, a.seed) != (b.version, b.seed) {
        return Err(format!(
            "not comparable: A is version {} seed {}, B is version {} seed {}",
            a.version, a.seed, b.version, b.seed
        ));
    }
    let mut out = String::new();
    let mut failures = 0;
    for name in &spec.workloads {
        out.push_str(&format!("{name}\n"));
        let (Some(wa), Some(wb)) = (a.workloads.get(name), b.workloads.get(name)) else {
            failures += 1;
            out.push_str("  MISSING: the workload is not in both files\n");
            continue;
        };
        for (side, w) in [("A", wa), ("B", wb)] {
            if w.digest_mismatches > 0 {
                failures += 1;
                out.push_str(&format!(
                    "  MISMATCH: {side} recorded {} output mismatches\n",
                    w.digest_mismatches
                ));
            }
        }
        for m in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(&m.name), wb.end_to_end.get(&m.name))
            else {
                failures += 1;
                out.push_str(&format!("  {:<14} MISSING from one side\n", m.name));
                continue;
            };
            let (worse, verdict) = judge(m, sa, sb);
            if verdict == Verdict::Regression {
                failures += 1;
            }
            out.push_str(&format!(
                "  {:<14} A {:>12.6} [{:.6}, {:.6}]  B {:>12.6} [{:.6}, {:.6}] {:<6} {:>+7.2}% (bound {:.0}%)  {}\n",
                m.name,
                sa.value,
                sa.q1,
                sa.q3,
                sb.value,
                sb.q1,
                sb.q3,
                m.unit,
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok((out, failures))
}

/// Checks the judge itself. A result compared with itself passes. It
/// fails with any one end-to-end metric of one workload worsened by twice
/// its bound, with `run_s` worsened by 20%, with a workload or a metric
/// dropped, and with an output mismatch. A result of another seed is
/// refused.
pub fn self_test(spec: &Spec) -> Result<(), String> {
    let jitter = [1.0, 1.004, 0.996, 1.002, 0.998];
    let mut base = Results {
        version: 1,
        seed: 42,
        ..Results::default()
    };
    for w in &spec.workloads {
        let mut result = WorkloadResult::default();
        for m in &spec.end_to_end {
            let samples = jitter.iter().map(|j| 2.0 * j).collect();
            result
                .end_to_end
                .insert(m.name.clone(), Summary::of(samples));
        }
        base.workloads.insert(w.clone(), result);
    }
    let failures = |b: &Results| compare(spec, &base, b).map(|(_, n)| n);
    if let n @ 1.. = failures(&base)? {
        return Err(format!("identical results reported {n} failures"));
    }
    let workload = spec
        .workloads
        .first()
        .ok_or("BENCHMARK.json lists no workloads")?;
    let worsened = |metric: &str, step: f64| -> Result<Results, String> {
        let m = spec
            .end_to_end
            .iter()
            .find(|m| m.name == metric)
            .ok_or_else(|| format!("BENCHMARK.json has no {metric}"))?;
        let factor = if m.lower_is_better {
            1.0 + step
        } else {
            1.0 - step
        };
        let mut worse = base.clone();
        let summary = worse
            .workloads
            .get_mut(workload)
            .and_then(|w| w.end_to_end.get_mut(metric))
            .ok_or("the base result lacks a metric")?;
        *summary = Summary::of(summary.samples.iter().map(|x| x * factor).collect());
        Ok(worse)
    };
    let mut cases = vec![(
        "run_s worsened by 20%".to_string(),
        worsened("run_s", 0.20)?,
    )];
    for m in &spec.end_to_end {
        let step = 2.0 * m.bound.unwrap_or(0.0);
        cases.push((
            format!("{} worsened by {:.0}%", m.name, step * 100.0),
            worsened(&m.name, step)?,
        ));
    }
    let mut dropped = base.clone();
    dropped.workloads.remove(workload);
    cases.push((format!("{workload} dropped"), dropped));
    let mut dropped = base.clone();
    if let Some(w) = dropped.workloads.get_mut(workload) {
        w.end_to_end.pop_first();
    }
    cases.push(("a metric dropped".into(), dropped));
    let mut mismatched = base.clone();
    if let Some(w) = mismatched.workloads.get_mut(workload) {
        w.digest_mismatches = 1;
    }
    cases.push(("an output mismatch".into(), mismatched));
    for (what, b) in &cases {
        if failures(b)? == 0 {
            return Err(format!("{what} passed the comparison"));
        }
    }
    let other_seed = Results {
        seed: base.seed + 1,
        ..base.clone()
    };
    if failures(&other_seed).is_ok() {
        return Err("a result of another seed was compared".into());
    }
    Ok(())
}

pub fn main(spec: &Spec, args: &[String]) -> i32 {
    match args {
        [flag] if flag == "--self-test" => match self_test(spec) {
            Ok(()) => {
                println!(
                    "compare self-test: OK (identical results pass; a worsened metric, \
                     a dropped workload or metric and an output mismatch fail; \
                     another seed is refused)"
                );
                0
            }
            Err(e) => {
                eprintln!("compare self-test: FAILED: {e}");
                1
            }
        },
        [a, b] => {
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| Results::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            match (load(a), load(b)) {
                (Ok(ra), Ok(rb)) => match compare(spec, &ra, &rb) {
                    Ok((report, failures)) => {
                        print!("{report}");
                        println!("{failures} failure(s)");
                        i32::from(failures > 0)
                    }
                    Err(e) => {
                        eprintln!("benchmark compare: {e}");
                        2
                    }
                },
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("benchmark compare: {e}");
                    2
                }
            }
        }
        _ => {
            eprintln!("usage: benchmark compare A.json B.json | --self-test");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test(&Spec::builtin()).expect("the judge works");
    }

    #[test]
    fn wide_spread_is_unresolved_not_a_regression() {
        let m = MetricSpec {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        let a = Summary::of(vec![1.0, 1.0, 1.0]);
        let noisy = Summary::of(vec![0.9, 1.3, 1.6]);
        assert_eq!(judge(&m, &a, &noisy).1, Verdict::Unresolved);
        let fast = Summary::of(vec![0.5, 0.6, 0.7]);
        assert_eq!(judge(&m, &a, &fast).1, Verdict::Better);
        // Wide, but every run slower by more than the bound.
        let slow = Summary::of(vec![1.3, 1.5, 1.9]);
        assert_eq!(judge(&m, &a, &slow).1, Verdict::Regression);
    }
}
