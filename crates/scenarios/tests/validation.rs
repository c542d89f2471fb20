//! Every public scenario entry point rejects a non-finite, zero or
//! negative horizon with a typed error, before simulating anything.

use hcperf::Scheme;
use hcperf_scenarios::fleet::{run_fleet, FleetConfig, FleetPreset};
use hcperf_scenarios::{
    check_positive, rate_sweep_parallel, run_car_following, run_lane_keeping, run_motivation,
    CarFollowingConfig, LaneKeepingConfig, MotivationConfig, ScenarioError, SweepConfig,
};

const BAD: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0];

fn assert_invalid<T: std::fmt::Debug>(result: Result<T, ScenarioError>, field: &str) {
    match result {
        Err(ScenarioError::InvalidParameter { name, .. }) if name == field => {}
        other => panic!("expected invalid {field}, got {other:?}"),
    }
}

#[test]
fn bad_durations_and_steps_are_rejected_by_every_run() {
    for bad in BAD {
        let mut cf = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
        cf.duration = bad;
        assert_invalid(run_car_following(&cf), "duration");
        let mut cf = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
        cf.physics_dt = bad;
        assert_invalid(run_car_following(&cf), "physics_dt");

        let mut lk = LaneKeepingConfig::paper_loop(Scheme::Edf);
        lk.duration = bad;
        assert_invalid(run_lane_keeping(&lk), "duration");
        let mut lk = LaneKeepingConfig::paper_loop(Scheme::Edf);
        lk.physics_dt = bad;
        assert_invalid(run_lane_keeping(&lk), "physics_dt");

        let mv = MotivationConfig {
            duration: bad,
            ..Default::default()
        };
        assert_invalid(run_motivation(&mv), "duration");
        let mv = MotivationConfig {
            physics_dt: bad,
            ..Default::default()
        };
        assert_invalid(run_motivation(&mv), "physics_dt");

        let sweep = SweepConfig {
            duration: bad,
            ..Default::default()
        };
        assert_invalid(rate_sweep_parallel(&sweep, 1), "duration");
        let sweep = SweepConfig {
            rates_hz: vec![10.0, bad],
            ..Default::default()
        };
        assert_invalid(rate_sweep_parallel(&sweep, 1), "rate_hz");
        // The check `hcperf trace` runs before handing its horizon to the
        // simulator.
        assert_invalid(check_positive("duration", bad), "duration");
    }
}

#[test]
fn control_periods_below_the_physics_step_are_rejected() {
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0, 0.001] {
        let mut cf = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
        cf.control_period = bad;
        assert_invalid(run_car_following(&cf), "control_period");
        let mut lk = LaneKeepingConfig::paper_loop(Scheme::HcPerf);
        lk.control_period = bad;
        assert_invalid(run_lane_keeping(&lk), "control_period");
    }
}

#[test]
fn bad_fleets_are_rejected_before_any_vehicle_runs() {
    for preset in [FleetPreset::CarFollowing, FleetPreset::LaneKeeping] {
        for bad in BAD {
            let mut config = FleetConfig::new(preset, 4);
            config.duration = bad;
            let mut out = Vec::new();
            assert_invalid(run_fleet(&config, &mut out), "duration");
            assert!(out.is_empty());
        }
        let mut out = Vec::new();
        assert_invalid(
            run_fleet(&FleetConfig::new(preset, 0), &mut out),
            "vehicles",
        );
        assert!(out.is_empty());
    }
}
