//! A fleet builds one task graph and shares it across its vehicles.
//!
//! Every vehicle record of a fleet must equal a direct scenario call
//! that builds its own graph, with the config exactly as the fleet
//! derives it for that vehicle: the preset's paper config under the
//! fleet's scheme, the fleet's horizon, a warm-up capped at a quarter of
//! it, and the seed derived from `fleet/<preset>/vehicle=<i>`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcperf::Scheme;
use hcperf_faults::FaultPlan;
use hcperf_harness::json_escape;
use hcperf_harness::seed::derive_seed;
use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
use hcperf_scenarios::fleet::{run_fleet, FleetConfig, FleetPreset, VehicleRecord};
use hcperf_scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};

const VEHICLES: usize = 6;
const DURATION: f64 = 2.0;

fn fleet(preset: FleetPreset, scheme: Scheme, faults: FaultPlan) -> FleetConfig {
    let mut config = FleetConfig::new(preset, VEHICLES);
    config.scheme = scheme;
    config.duration = DURATION;
    config.workers = 2;
    config.faults = faults;
    config
}

/// Vehicle `i`'s record from a direct call, as the fleet's JSONL tail
/// after the seed: `"ok":true,"record":{..}}` or a panic's error line.
fn direct_tail(config: &FleetConfig, vehicle: usize, seed: u64) -> String {
    let warmup = |w: f64| w.min(config.duration * 0.25);
    let run = catch_unwind(AssertUnwindSafe(|| match config.preset {
        FleetPreset::CarFollowing | FleetPreset::CarFollowingHardware => {
            let mut c = match config.preset {
                FleetPreset::CarFollowing => CarFollowingConfig::paper_simulation(config.scheme),
                _ => CarFollowingConfig::hardware(config.scheme),
            };
            c.duration = config.duration;
            c.warmup = warmup(c.warmup);
            c.seed = seed;
            c.record_series = false;
            if !config.faults.is_empty() {
                let graph = apollo_graph(&GraphOptions::default()).unwrap();
                c.faults = config.faults.materialize(&graph, vehicle, seed).unwrap();
            }
            let r = run_car_following(&c).unwrap();
            VehicleRecord {
                scheme: r.scheme,
                tracking_rms: r.rms_speed_error,
                miss_ratio: r.overall_miss_ratio,
                mean_e2e_ms: r.mean_e2e_ms,
                e2e_p99_ms: r.e2e_p99_ms,
                commands: r.commands,
                collided: r.collision_time.is_some(),
            }
        }
        FleetPreset::LaneKeeping => {
            let mut c = LaneKeepingConfig::paper_loop(config.scheme);
            c.duration = config.duration;
            c.warmup = warmup(c.warmup);
            c.seed = seed;
            let r = run_lane_keeping(&c).unwrap();
            VehicleRecord {
                scheme: r.scheme,
                tracking_rms: r.rms_lateral_offset,
                miss_ratio: r.overall_miss_ratio,
                mean_e2e_ms: r.mean_e2e_ms,
                e2e_p99_ms: r.e2e_p99_ms,
                commands: r.commands,
                collided: false,
            }
        }
    }));
    match run {
        Ok(record) => format!(
            "\"ok\":true,\"record\":{}}}",
            serde_json::to_string(&record).unwrap()
        ),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            format!("\"ok\":false,\"panic\":\"{}\"}}", json_escape(&msg))
        }
    }
}

/// Checks every vehicle line against [`direct_tail`]; returns the stream.
fn assert_fleet_matches_direct_runs(config: &FleetConfig) -> String {
    let mut buf = Vec::new();
    run_fleet(config, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let vehicles: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"vehicle\""))
        .collect();
    assert_eq!(vehicles.len(), VEHICLES);
    for (i, line) in vehicles.into_iter().enumerate() {
        let key = format!("fleet/{}/vehicle={i}", config.preset.name());
        let seed = derive_seed(config.root_seed, &key);
        let head =
            format!("{{\"type\":\"vehicle\",\"index\":{i},\"key\":\"{key}\",\"seed\":{seed},");
        let expected = head + &direct_tail(config, i, seed);
        assert_eq!(line, expected, "{} {}", config.preset.name(), config.scheme);
    }
    text
}

#[test]
fn every_preset_and_scheme_matches_graph_per_vehicle_runs() {
    for preset in [
        FleetPreset::CarFollowing,
        FleetPreset::CarFollowingHardware,
        FleetPreset::LaneKeeping,
    ] {
        for scheme in [Scheme::HcPerf, Scheme::Edf, Scheme::Apollo] {
            assert_fleet_matches_direct_runs(&fleet(preset, scheme, FaultPlan::empty()));
        }
    }
}

#[test]
fn chaos_fleet_resolves_faults_like_a_standalone_graph() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = fleet(
        FleetPreset::CarFollowing,
        Scheme::HcPerf,
        FaultPlan::chaos(),
    );
    let outcome = catch_unwind(|| assert_fleet_matches_direct_runs(&config));
    std::panic::set_hook(prev);
    let text = outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    // The draw covers both a crashed vehicle and a faulted survivor.
    assert!(text.contains("\"ok\":false,\"panic\""), "{text}");
    assert!(text.contains("\"ok\":true"), "{text}");
}
