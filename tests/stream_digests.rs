//! Digests of the user-facing output streams.
//!
//! Each test pins the FNV-1a 64 digest of a whole stream: the paper
//! figure suite as `all_experiments` prints it, and one reduced fleet
//! JSONL stream per preset. The constants were generated before fleets
//! shared one task graph across vehicles and must never be edited: a
//! mismatch means an output changed, not that the constant is stale.

use hcperf_bench::experiments as ex;
use hcperf_suite::core::Scheme;
use hcperf_suite::harness::seed::fnv1a64;
use hcperf_suite::scenarios::fleet::{run_fleet, FleetConfig, FleetPreset};

/// Workers for the fan-out figures; results are identical at any count.
const WORKERS: usize = 2;

fn assert_digest(what: &str, bytes: &[u8], expected: u64) {
    let actual = fnv1a64(bytes);
    assert_eq!(
        actual, expected,
        "{what}: digest {actual:#018x}, pinned {expected:#018x}"
    );
}

/// Figs. 4 … 18 in `all_experiments` order; the same digest the
/// `paper-suite` benchmark workload reports.
#[test]
fn paper_figure_suite_is_pinned() {
    let mut out = String::new();
    out.push_str(&ex::fig04_motivation(WORKERS, None).unwrap());
    out.push_str(&ex::fig05_schedules());
    out.push_str(&ex::fig12_exec_times().unwrap());
    out.push_str(&ex::fig13_car_following(WORKERS, None).unwrap());
    out.push_str(&ex::fig14_lane_keeping(WORKERS, None).unwrap());
    out.push_str(&ex::fig15_hardware(WORKERS, None).unwrap());
    out.push_str(&ex::fig17_responsiveness().unwrap());
    out.push_str(&ex::fig18_ablation(WORKERS, None).unwrap());
    assert_digest("figure suite", out.as_bytes(), 0x61f24644e0c7675d);
}

/// One reduced fleet per preset, each under a different scheme (Apollo
/// runs the affinity-pinned graph).
#[test]
fn fleet_streams_are_pinned() {
    for (preset, scheme, expected) in [
        (
            FleetPreset::CarFollowing,
            Scheme::HcPerf,
            0x05b28a03551955a9u64,
        ),
        (
            FleetPreset::CarFollowingHardware,
            Scheme::Apollo,
            0xd981403303b9a74a,
        ),
        (FleetPreset::LaneKeeping, Scheme::Edf, 0xd1ce3902cfbeb4d3),
    ] {
        let mut config = FleetConfig::new(preset, 8);
        config.scheme = scheme;
        config.duration = 1.0;
        config.workers = WORKERS;
        config.aggregate_every = 4;
        let mut buf = Vec::new();
        let summary = run_fleet(&config, &mut buf).unwrap();
        assert_eq!(summary.ok, 8, "{}", preset.name());
        assert_digest(preset.name(), &buf, expected);
    }
}
