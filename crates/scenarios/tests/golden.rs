//! Golden digests of the closed-loop scenarios.
//!
//! Each test serializes one run with `serde_json` and pins the FNV-1a 64
//! digest of the text. The constants were generated before the three
//! scenario loops were folded into one driver and must never be edited:
//! a mismatch means a scenario's output changed, not that the constant
//! is stale.

use hcperf::Scheme;
use hcperf_faults::FaultPlan;
use hcperf_harness::seed::fnv1a64;
use hcperf_scenarios::car_following::{
    run_car_following, run_car_following_with_telemetry, CarFollowingConfig,
};
use hcperf_scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
use hcperf_scenarios::motivation::{run_motivation, MotivationConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};

fn digest<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a64(serde_json::to_string(value).unwrap().as_bytes())
}

fn assert_digest<T: serde::Serialize>(what: &str, value: &T, expected: u64) {
    let actual = digest(value);
    assert_eq!(
        actual, expected,
        "{what}: digest {actual:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn car_following_paper_simulation_is_pinned() {
    for (scheme, expected) in [
        (Scheme::HcPerf, 0xa70d4f9f82c324cfu64),
        (Scheme::Edf, 0xefee2b53c0416d72),
    ] {
        let mut config = CarFollowingConfig::paper_simulation(scheme);
        config.duration = 12.0;
        assert!(config.record_series);
        let result = run_car_following(&config).unwrap();
        assert_digest(&format!("car following {scheme}"), &result, expected);
    }
}

#[test]
fn car_following_hardware_is_pinned() {
    let mut config = CarFollowingConfig::hardware(Scheme::HcPerf);
    config.duration = 8.0;
    let result = run_car_following(&config).unwrap();
    assert_digest("hardware", &result, 0xd61fb740e6a9666f);
}

#[test]
fn chaos_car_following_with_telemetry_is_pinned() {
    let graph = apollo_graph(&GraphOptions::default()).unwrap();
    let mut config = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
    config.duration = 12.0;
    config.faults = FaultPlan::chaos()
        .materialize(&graph, CHAOS_VEHICLE, config.seed)
        .unwrap();
    config.faults.crash_at = None;
    // The pinned vehicle exercises every non-crash hook.
    assert!(!config.faults.sim.is_empty());
    assert!(!config.faults.sensor_dropouts.is_empty());
    assert!(!config.faults.feedback.is_empty());
    let (result, telemetry) = run_car_following_with_telemetry(&config).unwrap();
    assert!(telemetry.is_some());
    assert_digest(
        "chaos car following",
        &(result, telemetry),
        0xb7dbe9e327ae28f7,
    );
}

/// A chaos-plan vehicle whose draw includes simulator faults, a sensor
/// dropout and a feedback corruption window.
const CHAOS_VEHICLE: usize = 28;

#[test]
fn lane_keeping_is_pinned() {
    for (scheme, expected) in [
        (Scheme::HcPerf, 0x6852c0282c8e9045u64),
        (Scheme::Edf, 0x57d193ff729a966c),
    ] {
        let mut config = LaneKeepingConfig::paper_loop(scheme);
        config.duration = 40.0;
        let result = run_lane_keeping(&config).unwrap();
        assert_digest(&format!("lane keeping {scheme}"), &result, expected);
    }
}

#[test]
fn motivation_is_pinned() {
    for (scheme, expected) in [
        (Scheme::Apollo, 0x6ffa2d7ab529755cu64),
        (Scheme::HcPerf, 0x56c84176fa5dc34f),
    ] {
        let config = MotivationConfig {
            scheme,
            ..Default::default()
        };
        let result = run_motivation(&config).unwrap();
        assert_digest(&format!("motivation {scheme}"), &result, expected);
    }
}
