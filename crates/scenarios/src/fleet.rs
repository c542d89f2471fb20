//! Fleet-scale simulation service (`hcperf fleet`).
//!
//! Runs N concurrent vehicle simulations — each with its own closed-loop
//! scenario, PDC/TRA coordinator stack and derived seed — sharded across
//! the [`hcperf_harness`] worker pool, and streams one JSON-Lines record
//! per vehicle plus running fleet aggregates to a sink.
//!
//! Three properties make this a *service* shape rather than a batch:
//!
//! * **streaming, bounded memory** — per-vehicle results are written and
//!   dropped ([`hcperf_harness::run_batch_streaming`]); the only per-fleet
//!   state is the aggregate accumulator (a few `f64`s per vehicle);
//! * **backpressure** — the result queue is bounded
//!   ([`FleetConfig::queue_capacity`]), so a slow sink throttles the
//!   simulation workers instead of letting results pile up;
//! * **bit-identical output for any worker count** — vehicle `i`'s seed is
//!   derived from the stable key `fleet/<preset>/vehicle=<i>` (never from
//!   scheduling), records are delivered in submission order, and every
//!   aggregate is a pure function of the submission-order prefix it covers.
//!
//! Vehicle failures stay inside their record: a panicking simulation
//! becomes an `"ok":false` line (the harness isolates it), and a worker
//! that dies without reporting surfaces as a structured
//! [`hcperf_harness::HarnessError`] — a fleet run never takes down the
//! service with a panic.

use std::io;
use std::sync::Arc;

use hcperf::Scheme;
use hcperf_faults::FaultPlan;
use hcperf_harness::{
    json_escape, run_batch_streaming, BatchOptions, Job, JobResult, JobStatus, RecordSink,
    ResultCache,
};
use hcperf_rtsim::percentile;
use hcperf_taskgraph::{GraphError, TaskGraph};

use crate::car_following::{run_car_following_on, CarFollowingConfig, ScenarioError};
use crate::closed_loop::check_positive;
use crate::lane_keeping::{run_lane_keeping_on, LaneKeepingConfig};

/// Which per-vehicle scenario the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPreset {
    /// § VII-B1 car following (simulation parameters).
    CarFollowing,
    /// § VII-B3 car following (scaled-hardware parameters).
    CarFollowingHardware,
    /// § VII-B2 lane keeping on the oval loop.
    LaneKeeping,
}

impl FleetPreset {
    /// Stable name used in job keys, CLI arguments and JSONL records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FleetPreset::CarFollowing => "car-following",
            FleetPreset::CarFollowingHardware => "car-following-hw",
            FleetPreset::LaneKeeping => "lane-keeping",
        }
    }

    /// Parses a preset name (the inverse of [`FleetPreset::name`],
    /// case-insensitive, underscores accepted).
    #[must_use]
    pub fn parse(name: &str) -> Option<FleetPreset> {
        match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "car-following" | "carfollowing" => Some(FleetPreset::CarFollowing),
            "car-following-hw" | "hardware" => Some(FleetPreset::CarFollowingHardware),
            "lane-keeping" | "lanekeeping" => Some(FleetPreset::LaneKeeping),
            _ => None,
        }
    }
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-vehicle scenario preset.
    pub preset: FleetPreset,
    /// Scheduling scheme every vehicle runs.
    pub scheme: Scheme,
    /// Number of vehicles to simulate.
    pub vehicles: usize,
    /// Per-vehicle simulated horizon in seconds (replaces the preset's
    /// paper-length duration; fleet runs favour many short vehicles).
    pub duration: f64,
    /// Root seed; vehicle `i` receives the seed derived from this root
    /// and the stable key `fleet/<preset>/vehicle=<i>`.
    pub root_seed: u64,
    /// Worker threads (`0` = available parallelism).
    pub workers: usize,
    /// Bound on the worker→sink result queue (`0` = unbounded). With a
    /// bound, workers block once this many finished vehicles are queued
    /// unwritten — backpressure instead of unbounded buffering.
    pub queue_capacity: usize,
    /// Emit a running aggregate record after every this-many vehicles
    /// (`0` = only the final aggregate).
    pub aggregate_every: usize,
    /// Include per-vehicle wall times in the stream. Off by default:
    /// wall time is the one field that breaks bit-reproducibility.
    pub timing: bool,
    /// Fault plan materialized per vehicle (empty by default). Each
    /// vehicle draws its faults from its own derived seed, so the fault
    /// sequence is byte-identical at any worker count — and a *retried*
    /// vehicle, whose seed is attempt-derived, re-draws them.
    pub faults: FaultPlan,
    /// Panicked vehicles (injected crashes included) are re-run up to
    /// this many extra times under attempt-derived seeds before being
    /// quarantined as failures (`0` = no retries, the pre-supervision
    /// behavior).
    pub max_retries: u32,
}

impl FleetConfig {
    /// A fleet of `vehicles` running `preset` with service-shaped
    /// defaults: HCPerf scheme, 20 s per-vehicle horizon, bounded result
    /// queue, aggregates every 100 vehicles, timing off.
    #[must_use]
    pub fn new(preset: FleetPreset, vehicles: usize) -> FleetConfig {
        FleetConfig {
            preset,
            scheme: Scheme::HcPerf,
            vehicles,
            duration: 20.0,
            root_seed: 0xF1EE7, // "FLEET"
            workers: 0,
            queue_capacity: 1024,
            aggregate_every: 100,
            timing: false,
            faults: FaultPlan::empty(),
            max_retries: 0,
        }
    }

    /// `true` when fault injection or crash retries are configured —
    /// the supervised fields (`attempts`, `failed_vehicles`, `retried`)
    /// then join the stream. Unsupervised runs keep the exact pre-fault
    /// byte layout.
    #[must_use]
    pub fn supervised(&self) -> bool {
        !self.faults.is_empty() || self.max_retries > 0
    }
}

/// Per-vehicle metrics, one JSONL record each (the `record` field of a
/// `"type":"vehicle"` line).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VehicleRecord {
    /// Scheme the vehicle ran.
    pub scheme: Scheme,
    /// Scenario tracking RMS after warm-up: speed error (m/s) for car
    /// following, lateral offset (m) for lane keeping.
    pub tracking_rms: f64,
    /// Whole-run deadline miss ratio.
    pub miss_ratio: f64,
    /// Mean end-to-end (source release → command) latency in ms.
    pub mean_e2e_ms: f64,
    /// 99th-percentile end-to-end latency in ms.
    pub e2e_p99_ms: f64,
    /// Control commands delivered.
    pub commands: u64,
    /// Whether the vehicle collided (car following) — always `false`
    /// for lane keeping.
    pub collided: bool,
}

/// Running fleet-wide aggregate over the submission-order prefix of
/// successful vehicles (a `"type":"aggregate"` JSONL line).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FleetAggregate {
    /// Successful vehicles included in this aggregate.
    pub vehicles: usize,
    /// Vehicles whose simulation failed or panicked so far.
    pub failures: usize,
    /// Median across vehicles of the per-vehicle mean e2e latency (ms).
    pub e2e_p50_ms: f64,
    /// 99th percentile across vehicles of per-vehicle mean e2e (ms).
    pub e2e_p99_ms: f64,
    /// Worst per-vehicle p99 e2e latency seen so far (ms).
    pub worst_e2e_p99_ms: f64,
    /// Mean of per-vehicle deadline-miss ratios.
    pub mean_miss_ratio: f64,
    /// Fleet tracking RMSE: root-mean-square of per-vehicle tracking RMS.
    pub tracking_rmse: f64,
    /// Vehicles that collided so far.
    pub collisions: usize,
}

/// What [`run_fleet`] reports after the stream is complete.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Vehicles submitted.
    pub vehicles: usize,
    /// Vehicles that completed their simulation.
    pub ok: usize,
    /// Vehicles whose scenario failed to construct or run (non-panic).
    pub failed: usize,
    /// Vehicles whose simulation panicked on every permitted attempt
    /// (isolated by the harness, quarantined from aggregates).
    pub panicked: usize,
    /// Vehicles that needed more than one attempt (recovered crashes
    /// plus quarantined ones); zero without [`FleetConfig::max_retries`].
    pub retried: usize,
    /// Vehicles that collided.
    pub collisions: usize,
    /// Vehicles served from the result cache instead of simulated
    /// (always zero without a cache — see [`run_fleet_with_cache`]).
    pub cached: usize,
    /// Final fleet-wide aggregate (`None` for an empty fleet).
    pub aggregate: Option<FleetAggregate>,
}

/// Runs one vehicle: preset → scenario config with the fleet's scheme,
/// horizon and this vehicle's derived seed. Dense series recording stays
/// off — a fleet retains aggregates, not trajectories.
///
/// `graph` is the fleet's one task graph ([`fleet_graph`]): the vehicle
/// runs it, and a fault plan resolves its task names against it, so the
/// per-vehicle path builds no graph. Faults are materialized from this
/// vehicle's *attempt* seed, so a retried crash re-draws its faults
/// instead of deterministically crashing again.
fn run_vehicle(
    config: &FleetConfig,
    graph: &Arc<TaskGraph>,
    vehicle: usize,
    seed: u64,
) -> Result<VehicleRecord, String> {
    match config.preset {
        FleetPreset::CarFollowing | FleetPreset::CarFollowingHardware => {
            let mut c = match config.preset {
                FleetPreset::CarFollowing => CarFollowingConfig::paper_simulation(config.scheme),
                _ => CarFollowingConfig::hardware(config.scheme),
            };
            c.duration = config.duration;
            c.warmup = c.warmup.min(config.duration * 0.25);
            c.seed = seed;
            c.record_series = false;
            if !config.faults.is_empty() {
                c.faults = config
                    .faults
                    .materialize(graph, vehicle, seed)
                    .map_err(|e| e.to_string())?;
            }
            let (r, _) = run_car_following_on(&c, Arc::clone(graph)).map_err(|e| e.to_string())?;
            Ok(VehicleRecord {
                scheme: r.scheme,
                tracking_rms: r.rms_speed_error,
                miss_ratio: r.overall_miss_ratio,
                mean_e2e_ms: r.mean_e2e_ms,
                e2e_p99_ms: r.e2e_p99_ms,
                commands: r.commands,
                collided: r.collision_time.is_some(),
            })
        }
        FleetPreset::LaneKeeping => {
            let mut c = LaneKeepingConfig::paper_loop(config.scheme);
            c.duration = config.duration;
            c.warmup = c.warmup.min(config.duration * 0.25);
            c.seed = seed;
            let r = run_lane_keeping_on(&c, Arc::clone(graph)).map_err(|e| e.to_string())?;
            Ok(VehicleRecord {
                scheme: r.scheme,
                tracking_rms: r.rms_lateral_offset,
                miss_ratio: r.overall_miss_ratio,
                mean_e2e_ms: r.mean_e2e_ms,
                e2e_p99_ms: r.e2e_p99_ms,
                commands: r.commands,
                collided: false,
            })
        }
    }
}

/// Streaming sink: writes vehicle and aggregate JSONL lines, accumulates
/// the aggregate state, and parks the first I/O error for [`run_fleet`]
/// to surface (later records are skipped once an error is parked).
struct FleetSink<'a> {
    out: &'a mut dyn io::Write,
    timing: bool,
    supervised: bool,
    aggregate_every: usize,
    /// Per-vehicle mean e2e latencies, the aggregate percentile basis.
    e2e_means: Vec<f64>,
    worst_e2e_p99_ms: f64,
    miss_sum: f64,
    tracking_sq_sum: f64,
    collisions: usize,
    ok: usize,
    failed: usize,
    retried: usize,
    seen: usize,
    error: Option<io::Error>,
}

impl<'a> FleetSink<'a> {
    fn new(out: &'a mut dyn io::Write, config: &FleetConfig) -> FleetSink<'a> {
        FleetSink {
            out,
            timing: config.timing,
            supervised: config.supervised(),
            aggregate_every: config.aggregate_every,
            e2e_means: Vec::with_capacity(config.vehicles.min(1 << 20)),
            worst_e2e_p99_ms: 0.0,
            miss_sum: 0.0,
            tracking_sq_sum: 0.0,
            collisions: 0,
            ok: 0,
            failed: 0,
            retried: 0,
            seen: 0,
            error: None,
        }
    }

    fn aggregate(&self) -> FleetAggregate {
        let n = self.ok;
        FleetAggregate {
            vehicles: n,
            failures: self.failed,
            e2e_p50_ms: percentile(&self.e2e_means, 0.5).unwrap_or(0.0),
            e2e_p99_ms: percentile(&self.e2e_means, 0.99).unwrap_or(0.0),
            worst_e2e_p99_ms: self.worst_e2e_p99_ms,
            mean_miss_ratio: if n > 0 { self.miss_sum / n as f64 } else { 0.0 },
            tracking_rmse: if n > 0 {
                (self.tracking_sq_sum / n as f64).sqrt()
            } else {
                0.0
            },
            collisions: self.collisions,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn write_aggregate(&mut self) {
        match serde_json::to_string(&self.aggregate()) {
            Ok(mut json) => {
                // Supervised runs make the quarantine partition explicit:
                // `failed_vehicles` are excluded from every mean above,
                // `retried` needed more than one attempt (recovered or
                // quarantined). Spliced (not serde fields) so
                // unsupervised streams keep the exact pre-supervision
                // byte layout.
                if self.supervised {
                    json.truncate(json.len() - 1);
                    json.push_str(&format!(
                        ",\"failed_vehicles\":{},\"retried\":{}}}",
                        self.failed, self.retried
                    ));
                }
                let line = format!("{{\"type\":\"aggregate\",\"aggregate\":{json}}}");
                self.write_line(&line);
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(io::Error::other(e));
                }
            }
        }
    }
}

impl RecordSink<Result<VehicleRecord, String>> for FleetSink<'_> {
    // hcperf-lint: det-sink(fleet-jsonl): per-vehicle JSONL lines must be byte-reproducible
    fn record(&mut self, result: &JobResult<Result<VehicleRecord, String>>) {
        self.seen += 1;
        let mut line = format!(
            "{{\"type\":\"vehicle\",\"index\":{},\"key\":\"{}\",\"seed\":{}",
            result.index,
            json_escape(&result.key),
            result.seed
        );
        if result.attempts > 1 {
            self.retried += 1;
            line.push_str(&format!(",\"attempts\":{}", result.attempts));
        }
        if self.timing {
            line.push_str(&format!(
                ",\"wall_ms\":{:.3}",
                result.wall.as_secs_f64() * 1e3
            ));
        }
        match &result.status {
            JobStatus::Ok(Ok(record)) => {
                self.ok += 1;
                self.e2e_means.push(record.mean_e2e_ms);
                self.worst_e2e_p99_ms = self.worst_e2e_p99_ms.max(record.e2e_p99_ms);
                self.miss_sum += record.miss_ratio;
                self.tracking_sq_sum += record.tracking_rms * record.tracking_rms;
                if record.collided {
                    self.collisions += 1;
                }
                match serde_json::to_string(record) {
                    Ok(json) => line.push_str(&format!(",\"ok\":true,\"record\":{json}")),
                    Err(e) => {
                        if self.error.is_none() {
                            self.error = Some(io::Error::other(e));
                        }
                        return;
                    }
                }
            }
            JobStatus::Ok(Err(msg)) => {
                self.failed += 1;
                line.push_str(&format!(",\"ok\":false,\"error\":\"{}\"", json_escape(msg)));
            }
            JobStatus::Panicked(msg) => {
                self.failed += 1;
                line.push_str(&format!(",\"ok\":false,\"panic\":\"{}\"", json_escape(msg)));
            }
        }
        line.push('}');
        self.write_line(&line);
        if self.aggregate_every > 0 && self.seen.is_multiple_of(self.aggregate_every) {
            self.write_aggregate();
        }
    }

    /// A dead writer aborts the fleet run instead of burning workers on
    /// records nobody will see; the delivered prefix stays replayable.
    fn keep_going(&self) -> bool {
        self.error.is_none()
    }
}

/// The task graph every vehicle of the fleet runs: the preset's scenario
/// graph under the fleet's scheme. Only per-vehicle fields (seed,
/// horizon, warm-up, series recording, faults) differ between vehicles,
/// and none of them enters the graph, so one build serves the fleet.
fn fleet_graph(config: &FleetConfig) -> Result<TaskGraph, GraphError> {
    match config.preset {
        FleetPreset::CarFollowing => CarFollowingConfig::paper_simulation(config.scheme).graph(),
        FleetPreset::CarFollowingHardware => CarFollowingConfig::hardware(config.scheme).graph(),
        FleetPreset::LaneKeeping => LaneKeepingConfig::paper_loop(config.scheme).graph(),
    }
}

/// Runs the fleet and streams JSONL to `out`: one `"type":"vehicle"`
/// line per vehicle in submission order, a `"type":"aggregate"` line
/// every [`FleetConfig::aggregate_every`] vehicles, and a final
/// aggregate after the last vehicle.
///
/// The stream is bit-identical for any [`FleetConfig::workers`] value
/// (with [`FleetConfig::timing`] off).
///
/// # Errors
///
/// [`ScenarioError::InvalidParameter`] for an empty fleet or a
/// non-finite or non-positive duration, before any vehicle runs;
/// [`ScenarioError::Job`] if the harness loses a worker,
/// [`ScenarioError::Sink`] if writing the stream fails. Per-vehicle
/// simulation failures do **not** error the run — they are `"ok":false`
/// records and counted in [`FleetSummary::failed`]/`panicked`.
pub fn run_fleet(
    config: &FleetConfig,
    out: &mut dyn io::Write,
) -> Result<FleetSummary, ScenarioError> {
    run_fleet_with_cache(config, out, None)
}

/// [`run_fleet`] with an optional result cache (`hcperf-store`'s
/// `CellCache` in production): finished vehicles are served from the
/// cache bit-identically instead of re-simulated, and freshly simulated
/// vehicles are offered back to it in submission order — which is what
/// makes an interrupted fleet run resumable where it stopped.
///
/// # Errors
///
/// Same contract as [`run_fleet`]. On *any* error path the delivered
/// JSONL prefix is flushed to `out` first, so an interrupted run always
/// leaves a replayable prefix behind.
pub fn run_fleet_with_cache(
    config: &FleetConfig,
    out: &mut dyn io::Write,
    cache: Option<&mut dyn ResultCache<Result<VehicleRecord, String>>>,
) -> Result<FleetSummary, ScenarioError> {
    check_positive("vehicles", config.vehicles as f64)?;
    check_positive("duration", config.duration)?;
    if !config.faults.is_empty() && config.preset == FleetPreset::LaneKeeping {
        return Err(ScenarioError::Job(
            "fault plans are not supported for the lane-keeping preset".to_string(),
        ));
    }
    // One graph for the whole fleet, shared by reference. A fault plan's
    // task names are validated against it before any vehicle simulates.
    let graph = Arc::new(fleet_graph(config)?);
    if !config.faults.is_empty() {
        config
            .faults
            .materialize(&graph, 0, config.root_seed)
            .map_err(|e| ScenarioError::Job(e.to_string()))?;
    }
    let jobs: Vec<Job<usize>> = (0..config.vehicles)
        .map(|i| Job::new(format!("fleet/{}/vehicle={i}", config.preset.name()), i))
        .collect();
    let mut sink = FleetSink::new(out, config);
    let run = {
        let mut opts = BatchOptions::with_workers(config.workers)
            .root_seed(config.root_seed)
            .queue_capacity(config.queue_capacity)
            .max_retries(config.max_retries)
            .stream_to(&mut sink);
        if let Some(cache) = cache {
            opts = opts.cached(cache);
        }
        run_batch_streaming(&jobs, opts, |&i, seed| run_vehicle(config, &graph, i, seed))
    };
    let summary = match run {
        Ok(summary) => summary,
        Err(e) => {
            // Flush the delivered prefix so an interrupted run is
            // resumable, then surface the cause: a parked write error
            // (which made the sink abort the batch) beats the abort
            // itself.
            let _ = sink.out.flush();
            if let Some(io_err) = sink.error.take() {
                return Err(ScenarioError::Sink(io_err.to_string()));
            }
            return Err(ScenarioError::Job(e.to_string()));
        }
    };
    // Close the stream with a final aggregate unless the cadence already
    // emitted one exactly at the end.
    let at_boundary = config.aggregate_every > 0
        && sink.seen > 0
        && sink.seen.is_multiple_of(config.aggregate_every);
    if sink.seen > 0 && !at_boundary {
        sink.write_aggregate();
    }
    if let Err(e) = sink.out.flush() {
        if sink.error.is_none() {
            sink.error = Some(e);
        }
    }
    if let Some(e) = sink.error.take() {
        return Err(ScenarioError::Sink(e.to_string()));
    }
    let aggregate = if sink.ok > 0 {
        Some(sink.aggregate())
    } else {
        None
    };
    Ok(FleetSummary {
        vehicles: config.vehicles,
        ok: sink.ok,
        failed: sink.failed - summary.panicked,
        panicked: summary.panicked,
        retried: sink.retried,
        collisions: sink.collisions,
        cached: summary.cached,
        aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(preset: FleetPreset, vehicles: usize) -> FleetConfig {
        let mut c = FleetConfig::new(preset, vehicles);
        c.duration = 0.5;
        c.aggregate_every = 4;
        c.workers = 2;
        c
    }

    fn stream(config: &FleetConfig) -> (String, FleetSummary) {
        let mut buf = Vec::new();
        let summary = run_fleet(config, &mut buf).unwrap();
        (String::from_utf8(buf).unwrap(), summary)
    }

    #[test]
    fn fleet_streams_vehicles_and_aggregates() {
        let config = small(FleetPreset::CarFollowing, 6);
        let (text, summary) = stream(&config);
        let vehicle_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"vehicle\""))
            .collect();
        let aggregate_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"aggregate\""))
            .collect();
        assert_eq!(vehicle_lines.len(), 6);
        // Cadence 4 over 6 vehicles: one at 4, one final at 6.
        assert_eq!(aggregate_lines.len(), 2);
        assert_eq!(summary.ok, 6);
        assert_eq!(summary.panicked, 0);
        let agg = summary.aggregate.unwrap();
        assert_eq!(agg.vehicles, 6);
        assert!(agg.e2e_p50_ms >= 0.0 && agg.e2e_p50_ms <= agg.e2e_p99_ms);
        // Vehicle lines arrive in submission order with per-vehicle keys.
        for (i, line) in vehicle_lines.iter().enumerate() {
            assert!(
                line.contains(&format!("\"key\":\"fleet/car-following/vehicle={i}\"")),
                "{line}"
            );
        }
    }

    #[test]
    fn fleet_stream_is_bit_identical_for_any_worker_count() {
        let mut config = small(FleetPreset::LaneKeeping, 5);
        let reference = {
            config.workers = 1;
            stream(&config).0
        };
        for workers in [2, 8] {
            config.workers = workers;
            let (text, _) = stream(&config);
            assert_eq!(text, reference, "workers={workers}");
        }
    }

    #[test]
    fn distinct_vehicles_get_distinct_seeds_and_outcomes() {
        let config = small(FleetPreset::CarFollowing, 4);
        let (text, _) = stream(&config);
        let mut seeds = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| l.contains("\"type\":\"vehicle\"")) {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(seeds.insert(v["seed"].as_u64().unwrap()), "{line}");
        }
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn write_failures_surface_as_sink_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let config = small(FleetPreset::CarFollowing, 2);
        let err = run_fleet(&config, &mut Failing).unwrap_err();
        assert!(matches!(err, ScenarioError::Sink(_)), "{err}");
    }

    #[test]
    fn unsupervised_aggregates_keep_the_pre_supervision_layout() {
        let config = small(FleetPreset::CarFollowing, 4);
        assert!(!config.supervised());
        let (text, summary) = stream(&config);
        assert_eq!(summary.retried, 0);
        assert!(!text.contains("failed_vehicles"), "{text}");
        assert!(!text.contains("\"attempts\""), "{text}");
    }

    #[test]
    fn chaos_fleet_is_supervised_and_bit_identical_for_any_worker_count() {
        let mut config = small(FleetPreset::CarFollowing, 8);
        config.faults = FaultPlan::chaos();
        config.max_retries = 2;
        assert!(config.supervised());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reference = {
            config.workers = 1;
            stream(&config)
        };
        let mut others = Vec::new();
        for workers in [2, 8] {
            config.workers = workers;
            others.push(stream(&config));
        }
        std::panic::set_hook(prev);
        let (ref_text, ref_summary) = reference;
        for (text, summary) in others {
            assert_eq!(text, ref_text);
            assert_eq!(summary, ref_summary);
        }
        // The chaos preset's vehicle crashes (p = 0.25 in the first
        // 0.4 s) force at least one retry across 8 vehicles; every
        // vehicle line is present and accounted for.
        assert_eq!(
            ref_summary.ok + ref_summary.failed + ref_summary.panicked,
            8
        );
        assert!(ref_summary.retried >= 1, "{ref_summary:?}");
        let vehicle_lines = ref_text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"vehicle\""))
            .count();
        assert_eq!(vehicle_lines, 8);
        assert!(ref_text.contains("\"attempts\":"), "{ref_text}");
        // Supervised aggregates expose the quarantine partition.
        let last_aggregate = ref_text
            .lines()
            .rfind(|l| l.starts_with("{\"type\":\"aggregate\""))
            .expect("final aggregate");
        assert!(
            last_aggregate.contains("\"failed_vehicles\":"),
            "{last_aggregate}"
        );
        assert!(last_aggregate.contains("\"retried\":"), "{last_aggregate}");
    }

    #[test]
    fn lane_keeping_rejects_fault_plans() {
        let mut config = small(FleetPreset::LaneKeeping, 2);
        config.faults = FaultPlan::chaos();
        let mut buf = Vec::new();
        let err = run_fleet(&config, &mut buf).unwrap_err();
        assert!(err.to_string().contains("lane-keeping"), "{err}");
    }

    #[test]
    fn preset_names_round_trip() {
        for preset in [
            FleetPreset::CarFollowing,
            FleetPreset::CarFollowingHardware,
            FleetPreset::LaneKeeping,
        ] {
            assert_eq!(FleetPreset::parse(preset.name()), Some(preset));
        }
        assert_eq!(FleetPreset::parse("no-such-preset"), None);
    }
}
