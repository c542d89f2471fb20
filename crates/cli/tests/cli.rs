//! End-to-end checks of the `hcperf` binary: subcommand help and the
//! duration floor every run-type command inherits from the library.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `hcperf` with `args`, killing it if it outlives `limit` (a hang
/// is a failure, not a stuck test).
fn hcperf(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hcperf"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hcperf");
    let started = Instant::now();
    while child.try_wait().expect("poll hcperf").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            panic!("hcperf {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect hcperf output")
}

#[test]
fn subcommand_help_prints_the_help_and_succeeds() {
    for command in ["fleet", "run", "sweep", "motivation"] {
        for flag in ["--help", "-h"] {
            let out = hcperf(&[command, flag], Duration::from_secs(30));
            assert!(out.status.success(), "{command} {flag}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("fleet"), "{command} {flag}: {stdout}");
            assert!(out.stderr.is_empty(), "{command} {flag}: {out:?}");
        }
    }
}

#[test]
fn bad_durations_exit_nonzero_without_hanging() {
    for command in [
        &["run", "--scenario", "car-following"][..],
        &["run", "--scenario", "lane-keeping"],
        &["fleet", "--vehicles", "4"],
    ] {
        for duration in ["nan", "inf", "-inf", "0", "-1"] {
            let mut args = command.to_vec();
            args.extend(["--duration", duration]);
            let out = hcperf(&args, Duration::from_secs(60));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("invalid duration"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        }
    }
}
