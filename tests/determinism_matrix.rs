//! The harness determinism matrix: every parallel evaluation surface,
//! run with 1, 2 and 8 workers, must be **bit-identical** to its
//! sequential counterpart. This is the contract that makes `--jobs N`
//! a pure wall-clock knob — CI runs this file explicitly.
//!
//! The matrix also covers resumption: a fleet run interrupted halfway
//! and resumed through an `hcperf-store` log must reproduce the
//! straight-through byte stream exactly, recomputing none of the cells
//! the interrupted run finished.

use std::io::{self, Write};

use hcperf_bench::experiments::{fig04_motivation, fig15_hardware};
use hcperf_suite::core::Scheme;
use hcperf_suite::scenarios::fleet::{
    run_fleet, run_fleet_with_cache, FleetConfig, FleetPreset, VehicleRecord,
};
use hcperf_suite::scenarios::sweep::{rate_sweep, rate_sweep_parallel, SweepConfig};
use hcperf_suite::scenarios::ScenarioError;
use hcperf_suite::store::{fingerprint, CellCache, Store};

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

#[test]
fn rate_sweep_is_bit_identical_across_worker_counts() {
    let config = SweepConfig {
        rates_hz: vec![10.0, 20.0, 30.0, 40.0],
        duration: 2.0,
        ..Default::default()
    };
    let sequential = rate_sweep(&config).unwrap();
    for workers in WORKER_MATRIX {
        let parallel = rate_sweep_parallel(&config, workers).unwrap();
        assert_eq!(parallel, sequential, "workers={workers}");
    }
}

/// Runs `produce` at every worker count of the matrix and asserts the
/// outputs are identical.
fn assert_same_at_every_worker_count<T: PartialEq + std::fmt::Debug>(
    what: &str,
    produce: impl Fn(usize) -> T,
) {
    let [(ref_workers, reference), rest @ ..] = WORKER_MATRIX.map(|w| (w, produce(w)));
    for (workers, output) in rest {
        assert_eq!(
            output, reference,
            "{what}: {workers} workers differ from {ref_workers}"
        );
    }
}

/// The figure fan-out that ships: the Fig. 4 report (two motivation
/// cells) and the Fig. 15 report (five schemes × three seeds of
/// hardware car following) print the same text at any worker count.
#[test]
fn fig04_report_is_bit_identical_across_worker_counts() {
    assert_same_at_every_worker_count("fig04", |workers| fig04_motivation(workers, None).unwrap());
}

#[test]
fn fig15_report_is_bit_identical_across_worker_counts() {
    assert_same_at_every_worker_count("fig15", |workers| fig15_hardware(workers, None).unwrap());
}

/// The fleet-service contract at scale: a 1000-vehicle run — every
/// vehicle its own simulation + coordinator stack with a key-derived
/// seed — streams **byte-identical** per-vehicle and aggregate JSONL for
/// 1, 2 and 8 workers, including through a bounded (backpressured)
/// result queue.
#[test]
fn fleet_jsonl_stream_is_bit_identical_across_worker_counts() {
    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 1000);
    config.duration = 0.5; // short per-vehicle horizon keeps 3×1000 sims fast
    config.aggregate_every = 250;
    config.queue_capacity = 64;

    let mut reference: Option<(String, usize)> = None;
    for workers in WORKER_MATRIX {
        config.workers = workers;
        let mut buf = Vec::new();
        let summary = run_fleet(&config, &mut buf).unwrap();
        assert_eq!(summary.vehicles, 1000, "workers={workers}");
        assert_eq!(summary.ok, 1000, "workers={workers}");
        assert_eq!(summary.panicked, 0, "workers={workers}");
        let text = String::from_utf8(buf).unwrap();
        // 1000 vehicle lines + aggregates at 250/500/750/1000.
        assert_eq!(text.lines().count(), 1004, "workers={workers}");
        match &reference {
            None => reference = Some((text, workers)),
            Some((reference, ref_workers)) => {
                assert_eq!(
                    &text, reference,
                    "fleet stream differs between {ref_workers} and {workers} workers"
                );
            }
        }
    }
}

/// Writer that fails after a byte budget — the fleet's output pipe
/// dying halfway through a run.
struct TruncatingWriter {
    written: usize,
    budget: usize,
}

impl Write for TruncatingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written >= self.budget {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn encode_vehicle(result: &Result<VehicleRecord, String>) -> Option<String> {
    match result {
        Ok(record) => Some(format!("ok:{}", serde_json::to_string(record).ok()?)),
        Err(msg) => Some(format!("err:{msg}")),
    }
}

fn decode_vehicle(payload: &str) -> Option<Result<VehicleRecord, String>> {
    if let Some(msg) = payload.strip_prefix("err:") {
        return Some(Err(msg.to_owned()));
    }
    let json = payload.strip_prefix("ok:")?;
    Some(Ok(serde_json::from_str::<VehicleRecord>(json).ok()?))
}

/// The resumability contract at scale: a 1000-vehicle fleet run whose
/// output pipe dies at ~50%, resumed through the store, streams the
/// exact bytes of a straight-through run — for 1, 2 and 8 workers —
/// and recomputes **zero** of the cells the interrupted run completed.
#[test]
fn resumed_fleet_is_bit_identical_and_recomputes_no_done_cells() {
    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 1000);
    config.duration = 0.5;
    config.aggregate_every = 250;
    config.queue_capacity = 64;

    // Straight-through reference, no store.
    let mut reference = Vec::new();
    run_fleet(&config, &mut reference).unwrap();

    for workers in WORKER_MATRIX {
        config.workers = workers;
        let path = std::env::temp_dir().join(format!(
            "hcperf_matrix_resume_{}_{workers}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // Interrupted run: the pipe dies after half the reference bytes.
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut dying = TruncatingWriter {
            written: 0,
            budget: reference.len() / 2,
        };
        let err = run_fleet_with_cache(&config, &mut dying, Some(&mut cache)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Sink(_)),
            "workers={workers}: {err:?}"
        );
        cache.finish().unwrap();
        drop(store);

        // Reopen (exercising log replay) and count what survived.
        let store_reopened = Store::open(&path).unwrap();
        let done_before = store_reopened.status().done;
        assert!(
            done_before > 0 && done_before < 1000,
            "workers={workers}: interruption should leave a partial store, got {done_before} done"
        );
        drop(store_reopened);

        // Resume: finished cells replay from disk, the rest simulate.
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut resumed = Vec::new();
        let summary = run_fleet_with_cache(&config, &mut resumed, Some(&mut cache)).unwrap();
        let run = cache.finish().unwrap();
        assert_eq!(summary.cached, done_before, "workers={workers}");
        assert_eq!(
            (run.hits, run.misses),
            (done_before, 1000 - done_before),
            "workers={workers}: every done cell must hit, nothing done may recompute"
        );
        assert_eq!(
            String::from_utf8(resumed).unwrap(),
            String::from_utf8(reference.clone()).unwrap(),
            "workers={workers}: resumed stream differs from straight-through"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// The supervised-fleet contract at scale: a 256-vehicle chaos fleet —
/// per-vehicle faults drawn from the root seed, crashed vehicles
/// retried with attempt-derived seeds and quarantined when retries run
/// out — streams **byte-identical** JSONL for 1, 2 and 8 workers, and a
/// run killed at ~50% of its output resumes through the store into the
/// exact straight-through bytes, retry outcomes and quarantine
/// aggregates included.
#[test]
fn faulted_fleet_is_bit_identical_across_workers_and_kill_resume() {
    use hcperf_suite::faults::FaultPlan;

    // The chaos plan injects deliberate vehicle crashes; silence the
    // default panic hook so the expected unwinds don't spam the log.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 256);
    config.duration = 0.5;
    config.aggregate_every = 64;
    config.queue_capacity = 32;
    config.faults = FaultPlan::chaos();
    config.max_retries = 2;

    // Straight-through reference (1 worker, no store).
    let mut reference = Vec::new();
    let ref_summary = run_fleet(&config, &mut reference).unwrap();
    assert!(
        ref_summary.retried > 0,
        "chaos over 256 vehicles should crash and retry some"
    );
    let reference = String::from_utf8(reference).unwrap();
    assert!(
        reference.contains("\"attempts\":"),
        "retries must be visible"
    );
    assert!(
        reference.contains("\"failed_vehicles\":"),
        "supervised aggregates must carry the quarantine count"
    );

    for workers in WORKER_MATRIX {
        config.workers = workers;
        let mut buf = Vec::new();
        let summary = run_fleet(&config, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            reference,
            "workers={workers}: faulted stream differs"
        );
        assert_eq!(summary.retried, ref_summary.retried, "workers={workers}");
        assert_eq!(summary.failed, ref_summary.failed, "workers={workers}");

        // Kill at ~50% of the byte stream, then resume through the store.
        let path = std::env::temp_dir().join(format!(
            "hcperf_matrix_chaos_{}_{workers}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-chaos-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut dying = TruncatingWriter {
            written: 0,
            budget: reference.len() / 2,
        };
        let err = run_fleet_with_cache(&config, &mut dying, Some(&mut cache)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Sink(_)),
            "workers={workers}: {err:?}"
        );
        cache.finish().unwrap();
        drop(store);

        let mut store = Store::open(&path).unwrap();
        let done_before = store.status().done;
        assert!(
            done_before > 0 && done_before < 256,
            "workers={workers}: expected a partial store, got {done_before} done"
        );
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-chaos-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut resumed = Vec::new();
        let summary = run_fleet_with_cache(&config, &mut resumed, Some(&mut cache)).unwrap();
        cache.finish().unwrap();
        assert_eq!(summary.cached, done_before, "workers={workers}");
        assert_eq!(summary.retried, ref_summary.retried, "workers={workers}");
        assert_eq!(
            String::from_utf8(resumed).unwrap(),
            reference,
            "workers={workers}: resumed chaos stream differs from straight-through"
        );
        let _ = std::fs::remove_file(&path);
    }

    std::panic::set_hook(prev);
}

/// A short lane-keeping fleet, every scheme: the second closed loop's
/// stream is byte-identical at any worker count.
#[test]
fn lane_keeping_fleet_is_bit_identical_across_worker_counts() {
    for scheme in Scheme::all() {
        assert_same_at_every_worker_count(&format!("lane keeping {scheme}"), |workers| {
            let mut config = FleetConfig::new(FleetPreset::LaneKeeping, 16);
            config.scheme = scheme;
            config.duration = 2.0;
            config.aggregate_every = 4;
            config.workers = workers;
            let mut buf = Vec::new();
            let summary = run_fleet(&config, &mut buf).unwrap();
            assert_eq!(summary.ok, 16, "{scheme} workers={workers}");
            String::from_utf8(buf).unwrap()
        });
    }
}
