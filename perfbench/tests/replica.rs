//! The traced loops must reproduce `run_fleet` bit for bit, and every
//! count they report must repeat exactly, before any span is trusted.

use hcperf::Scheme;
use hcperf_perfbench::replica::{trace_fleet, Counts};
use hcperf_perfbench::workload::{
    churn, fleet_config, fleet_run, suite_vehicle_seconds, trace_rounds, verify_fleet, Workload,
};
use hcperf_scenarios::fleet::{FleetConfig, FleetPreset};

fn car_following(vehicles: usize) -> FleetConfig {
    fleet_config(FleetPreset::CarFollowing, Scheme::HcPerf, vehicles, 3.0, 7)
}

/// Lane keeping must run long enough to reach the first turn, or its
/// tracking error is exactly zero.
fn lane_keeping(vehicles: usize) -> FleetConfig {
    fleet_config(FleetPreset::LaneKeeping, Scheme::Edf, vehicles, 40.0, 7)
}

fn replica_matches(config: &FleetConfig) {
    let run = fleet_run(config, None).unwrap();
    let reference = verify_fleet(config, &run).unwrap();
    // trace_rounds fails unless every traced record serializes exactly
    // like the streamed one.
    let trace = trace_rounds(config, &reference, 0.0).unwrap();
    assert_eq!(trace.rounds, 1);
    assert_eq!(trace.counts.vehicles, config.vehicles as u64);
}

#[test]
fn traced_car_following_matches_run_fleet_bit_for_bit() {
    replica_matches(&car_following(6));
}

#[test]
fn traced_lane_keeping_matches_run_fleet_bit_for_bit() {
    replica_matches(&lane_keeping(3));
}

#[test]
fn traced_baseline_car_following_matches_run_fleet() {
    for scheme in [Scheme::Apollo, Scheme::Edf] {
        let mut config = car_following(3);
        config.scheme = scheme;
        replica_matches(&config);
    }
}

fn fleet_counts(config: &FleetConfig) -> Counts {
    let mut total = Counts::default();
    for v in trace_fleet(config).unwrap() {
        total.merge(&v.counts);
    }
    total
}

#[test]
fn counts_repeat_across_runs_and_worker_counts() {
    for base in [car_following(4), lane_keeping(2)] {
        let mut config = base.clone();
        config.workers = 1;
        let one = fleet_counts(&config);
        config.workers = 2;
        let two = fleet_counts(&config);
        let again = fleet_counts(&config);
        assert_eq!(one, two, "{:?}", base.preset);
        assert_eq!(two, again, "{:?}", base.preset);
        assert!(one.steps > 0 && one.select_calls > 0 && one.jobs_released > 0);
    }
}

#[test]
fn coordinator_layers_are_bypassed_without_hcperf() {
    let hcperf = fleet_counts(&car_following(2));
    assert!(
        hcperf.gamma_recomputes > 0 && hcperf.on_period_calls > 0,
        "{hcperf:?}"
    );
    let edf = fleet_counts(&lane_keeping(1));
    assert_eq!(
        (edf.gamma_recomputes, edf.on_period_calls, edf.rate_updates),
        (0, 0, 0)
    );
}

#[test]
fn silent_zero_tracking_error_is_refused() {
    // 20 s of lane keeping never leaves the first straight.
    let config = fleet_config(FleetPreset::LaneKeeping, Scheme::Edf, 2, 20.0, 7);
    let run = fleet_run(&config, None).unwrap();
    let err = verify_fleet(&config, &run).unwrap_err();
    assert!(err.contains("tracking_rmse is exactly 0"), "{err}");
}

#[test]
fn a_tampered_final_aggregate_is_caught() {
    let config = car_following(3);
    let mut run = fleet_run(&config, None).unwrap();
    let text = String::from_utf8(run.stream.clone()).unwrap();
    let tampered = text.replacen("\"collisions\":0}", "\"collisions\":1}", 1);
    assert_ne!(tampered, text);
    run.stream = tampered.into_bytes();
    let err = verify_fleet(&config, &run).unwrap_err();
    assert!(err.contains("final aggregate"), "{err}");
}

#[test]
fn resumed_store_pass_serves_every_vehicle_byte_identically() {
    let config = fleet_config(FleetPreset::CarFollowing, Scheme::HcPerf, 40, 0.05, 3);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-churn.jsonl");
    let (cold, resumed, verified) = churn(&config, &path, true).unwrap();
    assert_eq!((cold.hits, cold.puts), (0, 40));
    assert_eq!((resumed.hits, resumed.puts), (40, 0));
    assert_eq!(resumed.run.stream, cold.run.stream);
    assert_eq!(verified.record_json.len(), 40);
    assert!(!path.exists(), "the churn removes its log");
}

#[test]
fn workloads_round_trip_by_name() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
    assert!(Workload::PaperSuite.fleet(1).is_none());
    let store = Workload::StoreChurn.fleet(9).unwrap();
    assert_eq!(
        (store.vehicles, store.root_seed, store.workers),
        (10_000, 9, 2)
    );
}

#[test]
fn suite_simulates_the_paper_horizons() {
    // Fig. 4: 2 × 30 s, Fig. 13: 5 × 100 s, Fig. 14: 5 × 130 s,
    // Fig. 15: 15 × 20 s, Fig. 17: 40 s, Fig. 18: 2 × 100 s.
    assert_eq!(suite_vehicle_seconds(), 1750.0);
}
