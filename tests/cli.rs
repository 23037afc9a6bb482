//! The `enviromic` runner and the `trace` explorer reject bad flag values
//! up front: each one exits 2 with the usage line on stderr instead of
//! panicking mid-run, running with a NaN setting or matching nothing.
//! Both also end cleanly when their reader leaves early.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs `enviromic` with `args`; returns `None` when it exits 2 with the
/// usage line, else a description of what it did instead.
fn rejection_failure(args: &[&str]) -> Option<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_enviromic"))
        .args(args)
        .output()
        .expect("the enviromic binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let rejected = out.status.code() == Some(2) && stderr.contains("usage: enviromic");
    (!rejected).then(|| format!("{args:?} exited {:?}; stderr: {stderr}", out.status.code()))
}

#[test]
fn bad_flag_values_exit_2_with_the_usage_line() {
    // Every case but the `--duration 0` one runs a 1 s scenario or the
    // fixed 9 s and 7 s mobile and voice events, so a flag that slips
    // through fails the test quickly instead of running the default
    // 1,100 s indoor campaign.
    let cases: [&[&str]; 12] = [
        &["--duration", "1", "--flash", "0"],
        &["--duration", "1", "--beta-max", "0.5"],
        &["--duration", "1", "--beta-max", "NaN"],
        &["--duration", "1", "--beta-max", "inf"],
        &["--duration", "1", "--prelude", "-1"],
        &["--duration", "1", "--prelude", "NaN"],
        &["--duration", "1", "--timeline", "0"],
        &["--duration", "0"],
        &["--duration", "1", "--scenario", "nowhere"],
        &["--scenario", "mobile", "--duration", "100"],
        &["--scenario", "voice", "--duration", "5", "--seeds", "2"],
        &[
            "--duration",
            "1",
            "--seed",
            "18446744073709551615",
            "--seeds",
            "2",
        ],
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|args| rejection_failure(args))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Writes the 5 s seed-7 run dump to a file named after the calling test
/// (tests run in parallel) and returns its path.
fn seed_7_dump(test: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_enviromic"))
        .args(["--duration", "5", "--seed", "7", "--timeline", "5", "-q"])
        .arg("--timeline-out")
        .arg(&path)
        .output()
        .expect("the enviromic binary starts");
    assert!(out.status.success(), "enviromic exited {:?}", out.status);
    path
}

fn trace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace"))
}

#[test]
fn trace_rejects_unknown_kinds_and_non_finite_times() {
    let dump = seed_7_dump("trace_rejects_unknown_kinds_and_non_finite_times");
    let cases: [&[&str]; 3] = [&["--kind", "BOGUS"], &["--from", "NaN"], &["--to", "inf"]];
    for args in cases {
        let out = trace()
            .arg(&dump)
            .args(args)
            .output()
            .expect("the trace binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code() == Some(2) && stderr.contains("usage: trace"),
            "{args:?} exited {:?}; stderr: {stderr}",
            out.status.code()
        );
    }
}

/// A reader that stops after the first line (`trace d.json --ledger |
/// head -1`) ends the explorer with exit 0, not a broken-pipe panic.
#[test]
fn trace_exits_0_when_its_reader_closes_the_pipe() {
    let dump = seed_7_dump("trace_exits_0_when_its_reader_closes_the_pipe");
    // The ledger must outgrow a 64 KiB pipe buffer: a smaller one is
    // written whole before the reader leaves, and no write can fail.
    let whole = trace()
        .arg(&dump)
        .arg("--ledger")
        .output()
        .expect("the trace binary starts");
    assert!(whole.stdout.len() > 64 * 1024, "{} B", whole.stdout.len());
    let mut child = trace()
        .arg(&dump)
        .arg("--ledger")
        .stdout(Stdio::piped())
        .spawn()
        .expect("the trace binary starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("the first line reads");
    assert!(first.starts_with("run indoor/7: "), "{first}");
    let status = child.wait().expect("the trace binary ends");
    assert_eq!(status.code(), Some(0));
}

/// The 5 s forest run holds no acoustic event: its report prints in a
/// few milliseconds and must read `0.0 s`, not `-0.0 s`, of audio.
const EVENTLESS: [&str; 5] = ["--scenario", "forest", "--duration", "5", "-q"];

#[test]
fn an_eventless_report_reads_zero_seconds_without_a_sign() {
    let out = Command::new(env!("CARGO_BIN_EXE_enviromic"))
        .args(EVENTLESS)
        .output()
        .expect("the enviromic binary starts");
    assert!(out.status.success(), "enviromic exited {:?}", out.status);
    let report = String::from_utf8_lossy(&out.stdout);
    for label in ["event audio available", "audio recorded"] {
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no {label:?} line in:\n{report}"));
        assert!(line.ends_with(" 0.0 s"), "{line:?}");
    }
}

/// `enviromic ... | head -n 1` where `head` has already left: the report
/// meets a pipe without a reader, and the runner exits 0 instead of
/// panicking with 101. The reading end closes before the runner starts,
/// so every write fails.
#[test]
fn enviromic_exits_0_when_its_reader_closes_the_pipe() {
    let (reader, writer) = std::io::pipe().expect("a pipe opens");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_enviromic"))
        .args(EVENTLESS)
        .stdout(writer)
        .output()
        .expect("the enviromic binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
