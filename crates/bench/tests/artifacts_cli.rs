//! The `artifacts` driver rejects a bad command line before it runs any
//! leg: each usage error exits 2 with the usage line on stderr.

use std::path::Path;
use std::process::Command;

#[test]
fn usage_errors_exit_2_and_run_no_leg() {
    let cases: [&[&str]; 4] = [
        &["nowhere"],
        &["sweep", "--jobs", "0"],
        &["sweep", "--jobs"],
        &["sweep", "--out"],
    ];
    for (i, args) in cases.iter().enumerate() {
        // A fresh working directory: a leg that ran would leave its
        // default output directory, `target/bench`, in it.
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("artifacts_cli_{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the working directory is created");
        let out = Command::new(env!("CARGO_BIN_EXE_artifacts"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("the artifacts binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {stderr}");
        assert!(
            stderr.contains("usage: artifacts"),
            "{args:?}; stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let written = std::fs::read_dir(&dir)
            .expect("the working directory is readable")
            .count();
        assert_eq!(written, 0, "{args:?} wrote into its working directory");
    }
}
