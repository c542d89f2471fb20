//! End-to-end checks of the `hcperf` binary: subcommand help, the
//! duration and rate floors every run-type command inherits from the
//! library, fault plans the library rejects, and fleet output targets.

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
        &["trace"],
        &["sweep", "--from", "10", "--to", "10"],
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

#[test]
fn bad_rates_exit_nonzero_without_panicking() {
    for command in ["analyze", "trace"] {
        for rate in ["nan", "inf", "-inf", "0", "-1"] {
            let args = [command, "--rate", rate];
            let out = hcperf(&args, Duration::from_secs(60));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("invalid rate"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        }
    }
}

#[test]
fn fault_plan_ending_past_finite_time_exits_nonzero_without_panicking() {
    let plan = std::env::temp_dir().join(format!("hcperf-cli-big-{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"name":"big","faults":[{"kind":"processor-stall","processor":0,"probability":1,"window":[1e308,1e308],"duration":1e308}]}"#,
    )
    .expect("write fault plan");
    let plan_arg = plan.to_str().expect("utf-8 temp path");
    let mut args = vec!["fleet", "--vehicles", "2", "--duration", "1"];
    args.extend(["--faults", plan_arg]);
    let out = hcperf(&args, Duration::from_secs(60));
    let _ = std::fs::remove_file(&plan);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid fault spec"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fleet_output_to_a_device_succeeds() {
    let args = [
        "fleet",
        "--vehicles",
        "2",
        "--duration",
        "0.5",
        "--out",
        "/dev/null",
    ];
    let out = hcperf(&args, Duration::from_secs(60));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("fleet: 2 vehicles"), "{stdout}");
}

/// A step too small to move the rate is refused by counting the points
/// first; the probe never reaches the loop that builds the rate list.
#[test]
fn sweep_with_a_vanishing_step_exits_1_without_building_the_list() {
    for step in ["1e-300", "5e-324", "1e-6"] {
        let args = ["sweep", "--from", "10", "--to", "50", "--step", step];
        let out = hcperf(&args, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("at most 10000 are allowed"), "{stderr}");
        assert!(out.stdout.is_empty(), "{out:?}");
    }
}

/// A finite horizon whose history would need ~2x10^14 rows is refused
/// with a clean error instead of aborting on the allocation.
#[test]
fn huge_finite_durations_exit_1_without_allocating() {
    for scenario in ["car-following", "lane-keeping"] {
        let args = ["run", "--scenario", scenario, "--duration", "1e12"];
        let out = hcperf(&args, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("invalid duration 1000000000000"),
            "{stderr}"
        );
        assert!(stderr.contains("10^7 physics steps"), "{stderr}");
        assert!(!stderr.contains("memory allocation"), "{stderr}");
    }
}

/// A fleet horizon past the closed loop's step bound is refused before
/// any vehicle is submitted, instead of reporting every vehicle failed.
#[test]
fn fleet_with_a_huge_duration_exits_1_before_fan_out() {
    let args = ["fleet", "--vehicles", "2", "--duration", "1e12"];
    let out = hcperf(&args, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("10^7 physics steps"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}
