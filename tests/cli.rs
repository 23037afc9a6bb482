//! The `enviromic` runner rejects bad flag values up front: each one exits
//! 2 with the usage line on stderr instead of panicking mid-run or running
//! with a NaN setting.

use std::process::Command;

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
    // Every case but the `--duration` one runs a 1 s scenario, so a flag
    // that slips through fails the test quickly instead of running the
    // default 1,100 s indoor campaign.
    let cases: [&[&str]; 9] = [
        &["--duration", "1", "--flash", "0"],
        &["--duration", "1", "--beta-max", "0.5"],
        &["--duration", "1", "--beta-max", "NaN"],
        &["--duration", "1", "--beta-max", "inf"],
        &["--duration", "1", "--prelude", "-1"],
        &["--duration", "1", "--prelude", "NaN"],
        &["--duration", "1", "--timeline", "0"],
        &["--duration", "0"],
        &["--duration", "1", "--scenario", "nowhere"],
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|args| rejection_failure(args))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
