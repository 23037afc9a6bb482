//! The repository benchmark: four workloads, end-to-end metrics, and a
//! traced per-layer split. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! benchmark all [--seed S] [--seconds N] [--out PATH]
//! benchmark compare A.json B.json
//! benchmark compare --self-test
//! ```
//!
//! `--workload` measures one workload and prints its metrics to stderr
//! and one JSON object as the last line of stdout: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `all` runs
//! both for every workload, prints every metric by name and unit, and
//! with `--out` writes a result file that `compare` reads. Every timed
//! measurement runs in a child process of this binary (one thread), so
//! peak memory belongs to that run alone. Timed runs refuse a debug
//! build (exit 2).

mod compare;
mod pins;
mod probe;
mod replay;
mod spec;
mod stats;
mod workloads;

use pins::{workload_pins, Pin, GOLDENS, PIN_SEED, RETRIEVAL_RESULT_DIGEST};
use probe::Probe;
use serde::Value;
use spec::{MetricSpec, Spec};
use stats::{number, Summary};
use std::collections::BTreeMap;
use std::process::{exit, Command, Stdio};
use std::time::Instant;
use workloads::{digest_job, RunDigest, Sample, Workload, FINISH, OPS, RUN, SETUP};

use enviromic::sweep::ScenarioSpec;

/// Bumped whenever a workload or a metric definition changes.
const VERSION: u64 = 2;
/// Untraced runs per measurement, at least; more while `--seconds` lasts.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 25;

const USAGE: &str = "usage: benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
       benchmark all [--seed S] [--seconds N] [--out PATH]
       benchmark compare A.json B.json | --self-test
workloads: city-wide, city-long, testbed, retrieval";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

#[derive(Debug)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_options(args: &[String], spec: &Spec) -> Options {
    let mut opts = Options {
        workload: None,
        seed: PIN_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(Workload::parse(value).unwrap_or_else(|| usage()));
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            _ => usage(),
        }
    }
    opts
}

fn refuse_debug_build() {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to time a debug build; build with --release");
        exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::builtin();
    match args.first().map(String::as_str) {
        Some("compare") => exit(compare::main(&spec, &args[1..])),
        Some("child") => {
            refuse_debug_build();
            let opts = parse_options(&args[1..], &spec);
            let workload = opts.workload.unwrap_or_else(|| usage());
            let sample = workload.run(opts.seed, opts.trace);
            println!("{}", sample_to_value(&sample).to_json());
        }
        Some("all") => {
            refuse_debug_build();
            let opts = parse_options(&args[1..], &spec);
            exit(run_all(&spec, &opts));
        }
        Some(_) => {
            refuse_debug_build();
            let opts = parse_options(&args, &spec);
            let workload = opts.workload.unwrap_or_else(|| usage());
            let m = measure(&spec, workload, opts.seed, opts.seconds, opts.trace);
            eprint!("{}{}", provenance_line(opts.seed), m.render());
            println!("{}", m.result_line().to_json());
        }
        None => usage(),
    }
}

// ----- child processes ------------------------------------------------------

fn sample_to_value(s: &Sample) -> Value {
    Value::Map(vec![
        (
            "values".into(),
            Value::Map(
                s.values
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            ),
        ),
        (
            "parts".into(),
            Value::Map(
                s.parts
                    .iter()
                    .map(|(k, xs)| {
                        (
                            k.clone(),
                            Value::Seq(xs.iter().map(|x| Value::F64(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "digests".into(),
            Value::Seq(
                s.digests
                    .iter()
                    .map(|d| {
                        Value::Map(vec![
                            ("label".into(), Value::Str(d.label.clone())),
                            ("seed".into(), Value::U64(d.seed)),
                            ("digest".into(), Value::Str(format!("{:#018x}", d.digest))),
                            ("records".into(), Value::U64(d.records)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("checks".into(), Value::U64(s.checks)),
        (
            "failures".into(),
            Value::Seq(s.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

fn sample_from_value(v: &Value) -> Option<Sample> {
    let values = v
        .get("values")?
        .as_map()?
        .iter()
        .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
        .collect::<Option<_>>()?;
    let parts = v
        .get("parts")?
        .as_map()?
        .iter()
        .map(|(k, xs)| {
            let xs = xs
                .as_seq()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?;
            Some((k.clone(), xs))
        })
        .collect::<Option<_>>()?;
    let digests = v
        .get("digests")?
        .as_seq()?
        .iter()
        .map(|d| {
            Some(RunDigest {
                label: d.get("label")?.as_str()?.to_string(),
                seed: d.get("seed")?.as_u64()?,
                digest: u64::from_str_radix(d.get("digest")?.as_str()?.strip_prefix("0x")?, 16)
                    .ok()?,
                records: d.get("records")?.as_u64()?,
            })
        })
        .collect::<Option<_>>()?;
    let failures = v
        .get("failures")?
        .as_seq()?
        .iter()
        .map(|f| f.as_str().map(str::to_string))
        .collect::<Option<_>>()?;
    Some(Sample {
        values,
        parts,
        digests,
        checks: v.get("checks")?.as_u64()?,
        failures,
    })
}

/// Runs one measurement in a child process of this binary and waits for
/// it. A child that fails or prints no sample ends the benchmark.
fn run_child(workload: Workload, seed: u64, traced: bool) -> Sample {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args([
            "child",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .expect("a child benchmark process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let sample = output
        .status
        .success()
        .then(|| stdout.lines().last())
        .flatten()
        .and_then(|line| Value::from_json(line).ok())
        .and_then(|v| sample_from_value(&v));
    sample.unwrap_or_else(|| {
        eprintln!(
            "benchmark: {} child (seed {seed}, trace {traced}) failed: {}",
            workload.name(),
            output.status
        );
        exit(1);
    })
}

// ----- output checks --------------------------------------------------------

/// Every comparison of a program output against what it must be.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    fn pin(&mut self, got: &RunDigest, pin: Pin) {
        let (label, seed, digest, records) = pin;
        self.expect(got.digest == digest && got.records == records, || {
            format!(
                "{label}/{seed}: {:#018x}/{} != pinned {digest:#018x}/{records}",
                got.digest, got.records
            )
        });
    }

    /// Every job that ran at a pinned (label, seed); at the pin seed,
    /// every pin must have run.
    fn pins(&mut self, workload: Workload, seed: u64, digests: &[RunDigest]) {
        for &pin in workload_pins(workload) {
            match digests.iter().find(|d| d.label == pin.0 && d.seed == pin.1) {
                Some(d) => self.pin(d, pin),
                None if seed == PIN_SEED => {
                    self.expect(false, || format!("{}/{} did not run", pin.0, pin.1));
                }
                None => {}
            }
        }
    }

    /// Two runs of one seed must produce identical outputs.
    fn same(&mut self, what: &str, first: &Sample, other: &Sample) {
        self.expect(first.digests == other.digests, || {
            format!("{what} run produced different digests than the first run")
        });
    }

    fn inner(&mut self, sample: &Sample) {
        self.attempted += sample.checks;
        self.failures.extend(sample.failures.iter().cloned());
    }
}

/// Runs before any timing: the golden runs through the layer probe (the
/// probe must not change behaviour), and the committed retrieval result.
fn preflight(workload: Workload, checks: &mut Checks) {
    let probe = Probe::default();
    for (spec, pin) in [
        (ScenarioSpec::quick_indoor(120.0), GOLDENS[0]),
        (ScenarioSpec::quick_mobile(), GOLDENS[1]),
    ] {
        checks.pin(&digest_job(&spec, pin.1, Some(&probe)), pin);
    }
    if workload == Workload::Retrieval {
        let run = enviromic_bench::retrieval::run_retrieval(&Default::default());
        let digest = run.report.results.digest;
        checks.expect(digest == RETRIEVAL_RESULT_DIGEST, || {
            format!("retrieval result digest {digest} != pinned {RETRIEVAL_RESULT_DIGEST}")
        });
    }
}

// ----- measurement ----------------------------------------------------------

/// One workload measured untraced (end-to-end metrics) or traced
/// (per-layer metrics).
struct Measured {
    workload: Workload,
    seed: u64,
    traced: bool,
    repeats: usize,
    metrics: Vec<(MetricSpec, Summary)>,
    checks: Checks,
}

fn measure(spec: &Spec, workload: Workload, seed: u64, seconds: f64, traced: bool) -> Measured {
    let mut checks = Checks::default();
    preflight(workload, &mut checks);
    let started = Instant::now();
    let (samples, metrics) = if traced {
        let untraced = run_child(workload, seed, false);
        let mut traced = run_child(workload, seed, true);
        checks.same("traced", &untraced, &traced);
        // Memory figures come from the untraced run: the probe's own
        // allocations would otherwise count as the program's.
        for (name, x) in &untraced.values {
            if name.starts_with("mem.") {
                traced.values.insert(name.clone(), *x);
            }
        }
        // Only simulated workloads carry the probe.
        if traced.values.contains_key("sim.loop_s") {
            let overhead = workloads::ratio(traced.values["run_s"], untraced.values["run_s"]);
            traced
                .values
                .insert("bench.trace_overhead".into(), overhead);
        }
        let metrics = spec
            .per_layer
            .iter()
            .map(|m| {
                let x = traced.values.get(&m.name).copied().unwrap_or(0.0);
                (m.clone(), Summary::of(vec![x]))
            })
            .collect();
        (vec![untraced, traced], metrics)
    } else {
        let mut samples = Vec::new();
        // Another repeat starts while it is expected to end within
        // `seconds`, judged by the mean repeat so far.
        while samples.len() < MIN_REPEATS
            || (samples.len() < MAX_REPEATS
                && started.elapsed().as_secs_f64() * (samples.len() + 1) as f64
                    / samples.len() as f64
                    <= seconds)
        {
            samples.push(run_child(workload, seed, false));
        }
        for s in &samples[1..] {
            checks.same("repeated", &samples[0], s);
        }
        let e2e = end_to_end(&samples);
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| {
                let summary = e2e.get(m.name.as_str()).cloned().unwrap_or_else(|| {
                    panic!("BENCHMARK.json lists {}, which is never computed", m.name)
                });
                (m.clone(), summary)
            })
            .collect();
        (samples, metrics)
    };
    for s in &samples {
        checks.inner(s);
    }
    checks.pins(workload, seed, &samples[0].digests);
    Measured {
        workload,
        seed,
        traced,
        repeats: samples.len(),
        metrics,
        checks,
    }
}

/// The end-to-end metrics of untraced repeats of one seed.
///
/// On a shared machine, other tenants slow this one in spells of seconds,
/// which hit different pieces of different repeats, and contention only
/// ever adds time. So each job's setup (itself the median of a repeat's
/// setups of that job), each slice of the event loops and each finish
/// takes its fastest repeat, and the pieces add up. The quartiles, min
/// and max are those of the per-repeat totals.
fn end_to_end(samples: &[Sample]) -> BTreeMap<&'static str, Summary> {
    let pieces =
        |key: &str| -> Vec<&[f64]> { samples.iter().map(|s| s.parts[key].as_slice()).collect() };
    let totals = |keys: &[&str]| -> Vec<f64> {
        samples
            .iter()
            .map(|s| keys.iter().flat_map(|k| &s.parts[*k]).sum())
            .collect()
    };
    let setup = stats::sum_of_pieces(&pieces(SETUP), stats::fastest);
    let run = stats::sum_of_pieces(&pieces(RUN), stats::fastest);
    let finish = stats::sum_of_pieces(&pieces(FINISH), stats::fastest);
    let ops = samples[0].values[OPS];
    let per_op = |s: f64| s * 1e9 / ops;
    BTreeMap::from([
        ("setup_s", Summary::with_value(setup, totals(&[SETUP]))),
        ("run_s", Summary::with_value(run, totals(&[RUN]))),
        (
            "job_s",
            Summary::with_value(setup + run + finish, totals(&[SETUP, RUN, FINISH])),
        ),
        (
            "ns_per_op",
            Summary::with_value(
                per_op(run),
                totals(&[RUN]).into_iter().map(per_op).collect(),
            ),
        ),
        (
            "peak_rss_mb",
            Summary::of(samples.iter().map(|s| s.values["peak_rss_mb"]).collect()),
        ),
    ])
}

impl Measured {
    fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    fn render(&self) -> String {
        let mut out = format!(
            "{} seed {} {} x{}: {}/{} output checks passed\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.repeats,
            self.checks.attempted - self.checks.failures.len() as u64,
            self.checks.attempted,
        );
        for f in &self.checks.failures {
            out.push_str(&format!("  MISMATCH {f}\n"));
        }
        for (m, s) in &self.metrics {
            out.push_str(&format!("  {:<36} {:>16.6} {:<6}", m.name, s.value, m.unit));
            if s.samples.len() > 1 {
                out.push_str(&format!("  [min {:.6} max {:.6}]", s.min, s.max));
            }
            out.push('\n');
        }
        out
    }

    /// The one-line machine-readable result: the output checks and every
    /// reported metric with its unit.
    fn result_line(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.checks.attempted)),
            (
                "failed".into(),
                Value::U64(self.checks.failures.len() as u64),
            ),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|(m, s)| {
                            (
                                m.name.clone(),
                                Value::Map(vec![
                                    ("value".into(), number(s.value)),
                                    ("unit".into(), Value::Str(m.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ----- `all` ----------------------------------------------------------------

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn provenance_line(seed: u64) -> String {
    format!(
        "benchmark v{VERSION} rev {} profile {} nproc {} seed {seed} repeats >= {MIN_REPEATS}\n",
        git_rev(),
        profile(),
        nproc()
    )
}

fn summary_value(m: &MetricSpec, s: &Summary) -> Value {
    let mut fields = vec![("unit".into(), Value::Str(m.unit.clone()))];
    fields.extend(s.fields());
    Value::Map(fields)
}

fn run_all(spec: &Spec, opts: &Options) -> i32 {
    print!("{}", provenance_line(opts.seed));
    let mut rows = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let e2e = measure(spec, workload, opts.seed, opts.seconds, false);
        print!("{}", e2e.render());
        let layers = measure(spec, workload, opts.seed, opts.seconds, true);
        print!("{}", layers.render());
        correct &= e2e.correct() && layers.correct();
        let metrics = |m: &Measured| {
            Value::Map(
                m.metrics
                    .iter()
                    .map(|(ms, s)| (ms.name.clone(), summary_value(ms, s)))
                    .collect(),
            )
        };
        rows.push((
            workload.name().to_string(),
            Value::Map(vec![
                ("repeats".into(), Value::U64(e2e.repeats as u64)),
                (
                    "attempted".into(),
                    Value::U64(e2e.checks.attempted + layers.checks.attempted),
                ),
                (
                    "digest_mismatches".into(),
                    Value::U64((e2e.checks.failures.len() + layers.checks.failures.len()) as u64),
                ),
                ("end_to_end".into(), metrics(&e2e)),
                ("per_layer".into(), metrics(&layers)),
            ]),
        ));
    }
    if let Some(path) = &opts.out {
        let result = Value::Map(vec![
            ("benchmark".into(), Value::Str("enviromic".into())),
            ("version".into(), Value::U64(VERSION)),
            (
                "provenance".into(),
                Value::Map(vec![
                    ("git_rev".into(), Value::Str(git_rev())),
                    ("profile".into(), Value::Str(profile().into())),
                    ("nproc".into(), Value::U64(nproc())),
                    ("seed".into(), Value::U64(opts.seed)),
                    ("min_repeats".into(), Value::U64(MIN_REPEATS as u64)),
                    ("seconds".into(), number(opts.seconds)),
                ]),
            ),
            ("workloads".into(), Value::Map(rows)),
        ]);
        if let Err(e) = std::fs::write(path, result.to_json_pretty()) {
            eprintln!("benchmark: could not write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    i32::from(!correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden runs through the probe, with the layer accounting
    /// checked against the simulator's own counters.
    fn traced_golden(spec: &ScenarioSpec, pin: Pin) -> workloads::Values {
        let sample = workloads::run_sim(&[(spec.clone(), pin.1)], true);
        let d = &sample.digests[0];
        assert_eq!((d.digest, d.records), (pin.2, pin.3), "{} digest", pin.0);
        assert_eq!(digest_job(spec, pin.1, None), *d, "traced == untraced");
        sample.values
    }

    #[test]
    fn probe_accounting_matches_the_simulator() {
        for (spec, pin) in [
            (ScenarioSpec::quick_indoor(120.0), GOLDENS[0]),
            (ScenarioSpec::quick_mobile(), GOLDENS[1]),
        ] {
            let v = traced_golden(&spec, pin);
            assert_eq!(v["core.packet.calls"], v["sim.packets.delivered"]);
            assert_eq!(v["core.timer.calls"], v["sim.timers.fired"]);
            assert!(v["sim.broadcast.calls"] >= v["sim.packets.sent"]);
            assert!(v["sim.packets.sent"] > 0.0);
        }
    }

    #[test]
    fn every_listed_metric_is_produced() {
        let spec = Spec::builtin();
        // Every testbed scenario point, shortened.
        let jobs: Vec<_> = [
            ScenarioSpec::quick_indoor(30.0),
            ScenarioSpec::quick_forest(30.0),
            ScenarioSpec::chaos_indoor(30.0),
            ScenarioSpec::chaos_forest(30.0),
        ]
        .into_iter()
        .map(|s| (s, 1))
        .collect();
        let sim = workloads::run_sim(&jobs, true);
        let retrieval = workloads::run_retrieval(1, 30.0, 200, true);
        for sample in [&sim, &retrieval] {
            let e2e = end_to_end(std::slice::from_ref(sample));
            for m in &spec.end_to_end {
                let s = e2e.get(m.name.as_str());
                assert!(s.is_some_and(|s| s.value > 0.0), "{} is never > 0", m.name);
            }
        }
        let mut produced = sim.values;
        produced.extend(retrieval.values);
        produced.insert("bench.trace_overhead".into(), 1.0);
        for m in &spec.per_layer {
            assert!(
                produced.contains_key(&m.name),
                "{} is never computed",
                m.name
            );
        }
        for w in &spec.workloads {
            assert!(Workload::parse(w).is_some(), "unknown workload {w}");
        }
        assert_eq!(spec.workloads.len(), Workload::ALL.len());
    }

    #[test]
    fn samples_round_trip_through_json() {
        let mut sample = Sample {
            checks: 2,
            failures: vec!["x".into()],
            ..Sample::default()
        };
        sample.values.insert("run_s".into(), 1.25);
        sample.parts.insert(RUN.into(), vec![0.5, 0.75]);
        sample.digests.push(RunDigest {
            label: "city-1k".into(),
            seed: 42,
            digest: 0xf7db_4793_5782_750d,
            records: 8996,
        });
        let text = sample_to_value(&sample).to_json();
        let back = sample_from_value(&Value::from_json(&text).unwrap()).unwrap();
        assert_eq!(back.values, sample.values);
        assert_eq!(back.parts, sample.parts);
        assert_eq!(back.digests, sample.digests);
        assert_eq!((back.checks, back.failures), (2, vec!["x".to_string()]));
    }
}
