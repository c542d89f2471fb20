//! The four workloads, their correctness checks, and the metrics they
//! report with tracing off (end to end) and on (per layer).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hcperf::Scheme;
use hcperf_bench::experiments as ex;
use hcperf_harness::seed::fnv1a64;
use hcperf_harness::ResultCache;
use hcperf_rtsim::percentile;
use hcperf_scenarios::fleet::{
    run_fleet_with_cache, FleetAggregate, FleetConfig, FleetPreset, FleetSummary, VehicleRecord,
};
use hcperf_scenarios::{
    traffic_jam_config, CarFollowingConfig, LaneKeepingConfig, MotivationConfig,
};
use hcperf_store::{fingerprint, CellCache, RunSummary, Store};

use crate::host::{calibrate, usage, Calibration};
use crate::probe::{elapsed_ns, CountingWriter, TimedCache};
use crate::replica::{trace_fleet, Counts};
use crate::report::{Metric, Outcome};
use crate::spans::{Layer, Spans};
use crate::stats::{iqr_share, median};

/// Worker threads every workload runs with.
pub const WORKERS: usize = 2;
/// Rounds measured at least, however long they take.
pub const MIN_ROUNDS: usize = 3;
/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 5;
/// Vehicles in a fleet workload's warm-up batch.
pub const SETUP_VEHICLES: usize = 32;
/// Vehicles in `store-churn`'s warm-up cold and resumed passes.
pub const SETUP_STORE_VEHICLES: usize = 4_000;
/// `paper-suite`'s warm-up: its five short figures (4, 5, 12, 15, 17),
/// by index into [`FIGURES`].
pub const SETUP_FIGURES: [usize; 5] = [0, 1, 2, 5, 6];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `hcperf fleet` default: car following under HCPerf.
    CfHcperf,
    /// Lane keeping under EDF, long enough to reach the first turn.
    LkEdf,
    /// Short car-following vehicles through a fresh store, then resumed.
    StoreChurn,
    /// The `all_experiments` figure sequence.
    PaperSuite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CfHcperf,
        Workload::LkEdf,
        Workload::StoreChurn,
        Workload::PaperSuite,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CfHcperf => "cf-hcperf",
            Workload::LkEdf => "lk-edf",
            Workload::StoreChurn => "store-churn",
            Workload::PaperSuite => "paper-suite",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet the workload runs under root seed `seed`, at full size
    /// (`None` for the paper suite).
    #[must_use]
    pub fn fleet(self, seed: u64) -> Option<FleetConfig> {
        let (preset, scheme, vehicles, duration) = match self {
            Workload::CfHcperf => (FleetPreset::CarFollowing, Scheme::HcPerf, 200, 20.0),
            Workload::LkEdf => (FleetPreset::LaneKeeping, Scheme::Edf, 200, 40.0),
            Workload::StoreChurn => (FleetPreset::CarFollowing, Scheme::HcPerf, 10_000, 0.05),
            Workload::PaperSuite => return None,
        };
        Some(fleet_config(preset, scheme, vehicles, duration, seed))
    }
}

/// A fault-free fleet on [`WORKERS`] workers.
#[must_use]
pub fn fleet_config(
    preset: FleetPreset,
    scheme: Scheme,
    vehicles: usize,
    duration: f64,
    seed: u64,
) -> FleetConfig {
    let mut c = FleetConfig::new(preset, vehicles);
    c.scheme = scheme;
    c.duration = duration;
    c.root_seed = seed;
    c.workers = WORKERS;
    c
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload root seed.
    pub seed: u64,
    /// Seconds of measured rounds (at least [`MIN_ROUNDS`] rounds).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for store logs and figure CSVs.
    pub work_dir: PathBuf,
}

/// A finished run: the result line plus the facts printed above it.
#[derive(Debug, Clone)]
pub struct Report {
    /// The result line's content.
    pub outcome: Outcome,
    /// FNV-1a 64 of the workload's output stream (fleet JSONL or suite
    /// stdout), identical in every round.
    pub digest: u64,
    /// Extra facts for the summary line, `(name, JSON value)`.
    pub notes: Vec<(&'static str, String)>,
}

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("vehicle_s_per_s", "veh_s/s"),
    ("cpu_s_per_vehicle_s", "s/veh_s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("vehicle.steps", "count"),
    ("vehicle.step_ns", "ns"),
    ("vehicle.sense_ns", "ns"),
    ("vehicle.control_law_ns", "ns"),
    ("vehicle.share", "ratio"),
    ("rtsim.run_until_calls", "count"),
    ("rtsim.self_ns_per_step", "ns"),
    ("rtsim.share", "ratio"),
    ("rtsim.jobs_released", "count"),
    ("rtsim.jobs_completed", "count"),
    ("rtsim.jobs_missed", "count"),
    ("rtsim.commands", "count"),
    ("core.select_calls", "count"),
    ("core.select_ns", "ns"),
    ("core.select_idle_ratio", "ratio"),
    ("core.select_queue_len_mean", "jobs"),
    ("core.select_share", "ratio"),
    ("core.gamma_recomputes", "count"),
    ("core.gamma_recompute_us", "us"),
    ("core.gamma_share", "ratio"),
    ("core.on_period_calls", "count"),
    ("core.on_period_us", "us"),
    ("core.rate_updates", "count"),
    ("core.on_period_share", "ratio"),
    ("core.coordination_ms_per_sim_s", "ms/s"),
    ("scenarios.setup_us", "us"),
    ("scenarios.setup_share", "ratio"),
    ("taskgraph.build_us", "us"),
    ("scenarios.loop_self_share", "ratio"),
    ("scenarios.history_rows", "count"),
    ("harness.jobs", "count"),
    ("harness.job_ms_p50", "ms"),
    ("harness.job_ms_p95", "ms"),
    ("harness.worker_busy_ratio", "ratio"),
    ("fleet.jsonl_bytes", "B"),
    ("fleet.write_share", "ratio"),
    ("fleet.tracking_rmse", "rms"),
    ("fleet.mean_miss_ratio", "ratio"),
    ("fleet.sim_e2e_p99_ms", "ms"),
    ("fleet.collisions", "count"),
    ("store.open_ms", "ms"),
    ("store.log_bytes", "B"),
    ("store.get_us", "us"),
    ("store.hits", "count"),
    ("store.put_us", "us"),
    ("store.appended_bytes", "B"),
    ("store.finish_ms", "ms"),
    ("store.cold_vehicles_per_s", "1/s"),
    ("store.resume_vehicles_per_s", "1/s"),
    ("store.resume_vehicle_steps", "count"),
    ("bench.fig04_ms", "ms"),
    ("bench.fig05_ms", "ms"),
    ("bench.fig12_ms", "ms"),
    ("bench.fig13_ms", "ms"),
    ("bench.fig14_ms", "ms"),
    ("bench.fig15_ms", "ms"),
    ("bench.fig17_ms", "ms"),
    ("bench.fig18_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Runs `workload` with `settings`.
///
/// # Errors
///
/// The first failed correctness check or I/O error, as text. A failed
/// check fails the run; it is never reported as a metric.
pub fn run(workload: Workload, settings: &Settings) -> Result<Report, String> {
    std::fs::create_dir_all(&settings.work_dir).map_err(|e| io_error(&settings.work_dir, e))?;
    match (workload.fleet(settings.seed), workload, settings.trace) {
        (Some(config), Workload::StoreChurn, false) => store_churn(&config, settings),
        (Some(config), Workload::StoreChurn, true) => store_churn_traced(&config, settings),
        (Some(config), _, false) => fleet_workload(&config, settings),
        (Some(config), _, true) => fleet_traced(&config, settings).map(|(report, _)| report),
        (None, _, false) => paper_suite(settings),
        (None, _, true) => paper_suite_traced(settings),
    }
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn io_error(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calibration seconds host time is scaled to. A run reports its times
/// in reference seconds: each host interval is multiplied by this over
/// the mean of the calibration times ([`calibrate`]) measured just
/// before and just after it — wall time for wall intervals, CPU time per
/// thread for CPU intervals. On the 2-vCPU Xeon container the benchmark
/// was built on, the kernel takes about this long, so reference and host
/// seconds roughly agree there.
pub const REFERENCE_CALIBRATION_S: f64 = 0.028;

/// Factors that turn host seconds into reference seconds.
#[derive(Debug, Clone, Copy)]
struct Scale {
    wall: f64,
    cpu: f64,
}

/// Runs `f` between two calibrations; returns its result and the factors
/// for the host seconds it took.
fn calibrated<T>(
    before: &mut Calibration,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(Scale, T), String> {
    let out = f()?;
    let after = calibrate(WORKERS);
    let scale = Scale {
        wall: REFERENCE_CALIBRATION_S / (0.5 * (before.wall_s + after.wall_s)),
        cpu: REFERENCE_CALIBRATION_S / (0.5 * (before.cpu_s + after.cpu_s)),
    };
    *before = after;
    Ok((scale, out))
}

/// Median over [`SETUP_REPS`] repetitions of `once`, in reference
/// seconds.
fn setup_median(mut once: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut cal = calibrate(WORKERS);
    for _ in 0..SETUP_REPS {
        let (scale, wall) = calibrated(&mut cal, || {
            let start = Instant::now();
            once()?;
            Ok(start.elapsed().as_secs_f64())
        })?;
        walls.push(wall * scale.wall);
    }
    median(&walls).ok_or_else(|| "no set-up repetitions".to_owned())
}

/// One measured round, in host seconds.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The whole round.
    round_s: f64,
    /// The part of the round that simulated the workload's
    /// vehicle-seconds.
    sim_s: f64,
    /// CPU seconds of that part, all threads.
    cpu_s: f64,
}

/// Repeats `round` until `seconds` have passed and at least
/// [`MIN_ROUNDS`] rounds ran, calibrating the host between rounds.
/// Returns each round's sample with its host scale.
fn measure(
    seconds: f64,
    mut round: impl FnMut() -> Result<Sample, String>,
) -> Result<Vec<(Scale, Sample)>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut cal = calibrate(WORKERS);
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds.push(calibrated(&mut cal, &mut round)?);
    }
    Ok(rounds)
}

// ---------------------------------------------------------------------
// Fleet runs and their checks
// ---------------------------------------------------------------------

/// One `run_fleet_with_cache` call: its stream and what it cost.
#[derive(Debug)]
pub struct FleetRun {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Host CPU seconds, all threads.
    pub cpu_s: f64,
    /// What the program returned.
    pub summary: FleetSummary,
    /// The JSONL stream.
    pub stream: Vec<u8>,
    /// Bytes streamed.
    pub bytes: u64,
    /// Nanoseconds spent inside the stream writer.
    pub write_ns: u64,
}

/// Runs `config` once, streaming into memory.
///
/// # Errors
///
/// The program's error, as text.
pub fn fleet_run(
    config: &FleetConfig,
    cache: Option<&mut dyn ResultCache<Result<VehicleRecord, String>>>,
) -> Result<FleetRun, String> {
    let mut out = CountingWriter::new(Vec::with_capacity(config.vehicles * 320));
    let cpu = usage().cpu_s;
    let start = Instant::now();
    let summary = run_fleet_with_cache(config, &mut out, cache).map_err(text)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = usage().cpu_s - cpu;
    let (bytes, write_ns) = (out.bytes, out.write_ns);
    Ok(FleetRun {
        wall_s,
        cpu_s,
        summary,
        stream: out.into_inner(),
        bytes,
        write_ns,
    })
}

/// A fleet stream that passed every check.
#[derive(Debug, Clone)]
pub struct Verified {
    /// Each vehicle's `record` JSON exactly as streamed.
    pub record_json: Vec<String>,
    /// The final aggregate.
    pub aggregate: FleetAggregate,
    /// FNV-1a 64 of the whole stream.
    pub digest: u64,
}

const VEHICLE_LINE: &str = "{\"type\":\"vehicle\",";
const RECORD_FIELD: &str = ",\"ok\":true,\"record\":";
const AGGREGATE_LINE: &str = "{\"type\":\"aggregate\",\"aggregate\":";

/// The aggregate `run_fleet` must report for `records`, recomputed from
/// the records in stream order.
#[must_use]
pub fn aggregate_of(records: &[VehicleRecord]) -> FleetAggregate {
    let n = records.len();
    let means: Vec<f64> = records.iter().map(|r| r.mean_e2e_ms).collect();
    let mut worst = 0.0f64;
    let mut miss = 0.0;
    let mut tracking_sq = 0.0;
    let mut collisions = 0;
    for r in records {
        worst = worst.max(r.e2e_p99_ms);
        miss += r.miss_ratio;
        tracking_sq += r.tracking_rms * r.tracking_rms;
        collisions += usize::from(r.collided);
    }
    FleetAggregate {
        vehicles: n,
        failures: 0,
        e2e_p50_ms: percentile(&means, 0.5).unwrap_or(0.0),
        e2e_p99_ms: percentile(&means, 0.99).unwrap_or(0.0),
        worst_e2e_p99_ms: worst,
        mean_miss_ratio: if n > 0 { miss / n as f64 } else { 0.0 },
        tracking_rmse: if n > 0 {
            (tracking_sq / n as f64).sqrt()
        } else {
            0.0
        },
        collisions,
    }
}

/// Checks a fleet run: every vehicle is `ok`, the final aggregate equals
/// one recomputed from the vehicle records (in the stream and in the
/// returned summary), and the fleet's tracking RMSE is not a silent 0.
///
/// # Errors
///
/// The first check that failed.
pub fn verify_fleet(config: &FleetConfig, run: &FleetRun) -> Result<Verified, String> {
    let s = &run.summary;
    ensure(
        s.ok == config.vehicles && s.failed == 0 && s.panicked == 0,
        || format!("{} of {} vehicles ok ({s:?})", s.ok, config.vehicles),
    )?;
    let stream = std::str::from_utf8(&run.stream).map_err(text)?;
    let mut record_json = Vec::with_capacity(config.vehicles);
    let mut records = Vec::with_capacity(config.vehicles);
    let mut last_aggregate = None;
    for line in stream.lines() {
        if line.starts_with(VEHICLE_LINE) {
            let at = line
                .find(RECORD_FIELD)
                .ok_or_else(|| format!("vehicle line is not ok: {line}"))?;
            let json = &line[at + RECORD_FIELD.len()..line.len() - 1];
            records.push(serde_json::from_str::<VehicleRecord>(json).map_err(text)?);
            record_json.push(json.to_owned());
            last_aggregate = None;
        } else if let Some(rest) = line.strip_prefix(AGGREGATE_LINE) {
            last_aggregate = Some(&rest[..rest.len() - 1]);
        } else {
            return Err(format!("unexpected stream line: {line}"));
        }
    }
    ensure(records.len() == config.vehicles, || {
        format!(
            "{} vehicle lines for {} vehicles",
            records.len(),
            config.vehicles
        )
    })?;
    let aggregate = aggregate_of(&records);
    let expected = serde_json::to_string(&aggregate).map_err(text)?;
    ensure(last_aggregate == Some(expected.as_str()), || {
        format!("final aggregate {last_aggregate:?} differs from the recomputed {expected}")
    })?;
    ensure(s.aggregate.as_ref() == Some(&aggregate), || {
        format!(
            "summary aggregate {:?} differs from the recomputed {aggregate:?}",
            s.aggregate
        )
    })?;
    ensure(aggregate.tracking_rmse != 0.0, || {
        "tracking_rmse is exactly 0: the horizon never exercises the controller".to_owned()
    })?;
    Ok(Verified {
        record_json,
        aggregate,
        digest: fnv1a64(&run.stream),
    })
}

/// The simulated outcomes of a verified fleet: `(summary name, per-layer
/// name, value)`. A speed-only change must leave them identical.
fn sim_outcomes(v: &Verified) -> [(&'static str, &'static str, f64); 4] {
    let a = &v.aggregate;
    [
        ("tracking_rmse", "fleet.tracking_rmse", a.tracking_rmse),
        (
            "mean_miss_ratio",
            "fleet.mean_miss_ratio",
            a.mean_miss_ratio,
        ),
        ("sim_e2e_p99_ms", "fleet.sim_e2e_p99_ms", a.e2e_p99_ms),
        ("collisions", "fleet.collisions", a.collisions as f64),
    ]
}

fn sim_notes(v: &Verified) -> Vec<(&'static str, String)> {
    sim_outcomes(v)
        .iter()
        .map(|&(note, _, value)| (note, format!("{value}")))
        .collect()
}

fn sim_metrics(v: &Verified, m: &mut BTreeMap<&'static str, f64>) {
    for (_, name, value) in sim_outcomes(v) {
        m.insert(name, value);
    }
}

/// The end-to-end metrics: per-round values in reference seconds, and
/// their median over the rounds.
fn end_to_end(
    vehicle_s: f64,
    rounds: &[(Scale, Sample)],
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let of = |f: &dyn Fn(&Scale, &Sample) -> f64| {
        median(&rounds.iter().map(|(k, s)| f(k, s)).collect::<Vec<_>>())
    };
    let values = [
        of(&|k, s| vehicle_s / (s.sim_s * k.wall)),
        of(&|k, s| s.cpu_s * k.cpu / vehicle_s),
        of(&|k, s| s.round_s * k.wall),
        Some(usage().peak_rss_mb),
        Some(setup_s),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            value
                .map(|value| Metric { name, value, unit })
                .ok_or_else(|| format!("no samples for {name}"))
        })
        .collect()
}

/// The within-run spread of the calibrated round time and the
/// uncalibrated host figures, printed beside the metrics.
fn host_notes(vehicle_s: f64, rounds: &[(Scale, Sample)]) -> Vec<(&'static str, String)> {
    let host = |f: &dyn Fn(&(Scale, Sample)) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let round_s: Vec<f64> = rounds.iter().map(|(k, s)| s.round_s * k.wall).collect();
    vec![
        ("rounds", rounds.len().to_string()),
        (
            "round_s_iqr_share",
            format!("{}", iqr_share(&round_s).unwrap_or(0.0)),
        ),
        (
            "calibration_s",
            format!("{}", host(&|r| REFERENCE_CALIBRATION_S / r.0.wall)),
        ),
        ("host_round_s", format!("{}", host(&|r| r.1.round_s))),
        (
            "host_vehicle_s_per_s",
            format!("{}", host(&|r| vehicle_s / r.1.sim_s)),
        ),
    ]
}

fn per_layer(m: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: m.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn rounds_note(n: usize) -> (&'static str, String) {
    ("rounds", n.to_string())
}

// ---------------------------------------------------------------------
// cf-hcperf and lk-edf
// ---------------------------------------------------------------------

fn fleet_workload(config: &FleetConfig, s: &Settings) -> Result<Report, String> {
    let mut warm = config.clone();
    warm.vehicles = SETUP_VEHICLES;
    let setup_s = setup_median(|| verify_fleet(&warm, &fleet_run(&warm, None)?).map(drop))?;
    let mut first = None;
    let rounds = measure(s.seconds, || {
        let run = fleet_run(config, None)?;
        let verified = verify_fleet(config, &run)?;
        let reference = first.get_or_insert_with(|| verified.clone());
        ensure(verified.digest == reference.digest, || {
            format!(
                "stream digest {:#x} differs from round 1's {:#x}",
                verified.digest, reference.digest
            )
        })?;
        Ok(Sample {
            round_s: run.wall_s,
            sim_s: run.wall_s,
            cpu_s: run.cpu_s,
        })
    })?;
    let first = first.ok_or("no rounds")?;
    let vehicle_s = config.vehicles as f64 * config.duration;
    let mut notes = sim_notes(&first);
    notes.extend(host_notes(vehicle_s, &rounds));
    Ok(Report {
        outcome: Outcome {
            correct: true,
            attempted: (config.vehicles * rounds.len()) as u64,
            failed: 0,
            metrics: end_to_end(vehicle_s, &rounds, setup_s)?,
        },
        digest: first.digest,
        notes,
    })
}

/// Per-vehicle wall times from a `timing` stream's `wall_ms` fields.
fn job_wall_ms(stream: &[u8]) -> Result<Vec<f64>, String> {
    let stream = std::str::from_utf8(stream).map_err(text)?;
    stream
        .lines()
        .filter(|l| l.starts_with(VEHICLE_LINE))
        .map(|l| {
            let at = l
                .find("\"wall_ms\":")
                .ok_or("vehicle line without wall_ms")?;
            let rest = &l[at + 10..];
            let end = rest.find(',').unwrap_or(rest.len());
            rest[..end].parse::<f64>().map_err(text)
        })
        .collect()
}

/// Spans and counts of the traced fleet rounds, plus the interleaved
/// untraced rounds they are compared with.
#[derive(Debug)]
pub struct FleetTrace {
    /// Spans merged over every traced round.
    pub spans: Spans,
    /// Counts of one traced round (every round's are equal).
    pub counts: Counts,
    /// Traced rounds run.
    pub rounds: usize,
    /// Wall seconds of each traced round.
    pub traced_walls: Vec<f64>,
    /// Wall seconds of each untraced round.
    pub untraced_walls: Vec<f64>,
}

/// Traces `config`'s vehicles round after round, interleaved with
/// untraced `run_fleet` rounds, for at least `seconds`. Every traced
/// round must reproduce `reference`'s records bit for bit and repeat the
/// first round's counts exactly.
///
/// # Errors
///
/// The first mismatch, or the program's error.
pub fn trace_rounds(
    config: &FleetConfig,
    reference: &Verified,
    seconds: f64,
) -> Result<FleetTrace, String> {
    let start = Instant::now();
    let mut trace = FleetTrace {
        spans: Spans::default(),
        counts: Counts::default(),
        rounds: 0,
        traced_walls: Vec::new(),
        untraced_walls: Vec::new(),
    };
    loop {
        let round = Instant::now();
        let vehicles = trace_fleet(config)?;
        trace.traced_walls.push(round.elapsed().as_secs_f64());
        ensure(vehicles.len() == reference.record_json.len(), || {
            format!(
                "{} traced vehicles for {}",
                vehicles.len(),
                reference.record_json.len()
            )
        })?;
        let mut counts = Counts::default();
        for (i, (v, expected)) in vehicles.iter().zip(&reference.record_json).enumerate() {
            let got = serde_json::to_string(&v.record).map_err(text)?;
            ensure(&got == expected, || {
                format!("traced vehicle {i} differs from run_fleet: {got} vs {expected}")
            })?;
            counts.merge(&v.counts);
            trace.spans.merge(&v.spans);
        }
        if trace.rounds == 0 {
            trace.counts = counts;
        }
        ensure(counts == trace.counts, || {
            format!(
                "round {} counts {counts:?} differ from {:?}",
                trace.rounds + 1,
                trace.counts
            )
        })?;
        trace.rounds += 1;
        let untraced = fleet_run(config, None)?;
        ensure(fnv1a64(&untraced.stream) == reference.digest, || {
            "an untraced round's stream differs from the reference".to_owned()
        })?;
        trace.untraced_walls.push(untraced.wall_s);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(trace);
        }
    }
}

/// Per-layer metrics of the in-vehicle layers from traced rounds.
fn layer_metrics(t: &FleetTrace, config: &FleetConfig, m: &mut BTreeMap<&'static str, f64>) {
    let s = &t.spans;
    let c = &t.counts;
    let rounds = t.rounds as f64;
    let per_call = |layer: Layer| ratio(s.total_ns(layer) as f64, s.count(layer) as f64);
    let self_per_call = |layer: Layer| ratio(s.self_ns(layer) as f64, s.count(layer) as f64);
    let share = |layers: &[Layer]| layers.iter().map(|&l| s.self_share(l)).sum::<f64>();
    let sim_s = config.vehicles as f64 * config.duration * rounds;

    m.insert("vehicle.steps", c.steps as f64);
    m.insert("vehicle.step_ns", per_call(Layer::Step));
    m.insert("vehicle.sense_ns", per_call(Layer::Sense));
    m.insert("vehicle.control_law_ns", per_call(Layer::ControlLaw));
    m.insert(
        "vehicle.share",
        share(&[Layer::Sense, Layer::ControlLaw, Layer::Step]),
    );
    m.insert(
        "rtsim.run_until_calls",
        s.count(Layer::RunUntil) as f64 / rounds,
    );
    m.insert("rtsim.self_ns_per_step", self_per_call(Layer::RunUntil));
    m.insert("rtsim.share", share(&[Layer::RunUntil, Layer::RtsimOther]));
    m.insert("rtsim.jobs_released", c.jobs_released as f64);
    m.insert("rtsim.jobs_completed", c.jobs_completed as f64);
    m.insert("rtsim.jobs_missed", c.jobs_missed as f64);
    m.insert("rtsim.commands", c.commands as f64);
    m.insert("core.select_calls", c.select_calls as f64);
    m.insert("core.select_ns", self_per_call(Layer::Select));
    m.insert(
        "core.select_idle_ratio",
        ratio(c.select_idle as f64, c.select_calls as f64),
    );
    m.insert(
        "core.select_queue_len_mean",
        ratio(c.queue_len_sum as f64, c.select_calls as f64),
    );
    m.insert("core.select_share", share(&[Layer::Select]));
    m.insert("core.gamma_recomputes", c.gamma_recomputes as f64);
    m.insert("core.gamma_recompute_us", per_call(Layer::Gamma) * 1e-3);
    m.insert("core.gamma_share", share(&[Layer::Gamma]));
    m.insert("core.on_period_calls", c.on_period_calls as f64);
    m.insert("core.on_period_us", per_call(Layer::OnPeriod) * 1e-3);
    m.insert("core.rate_updates", c.rate_updates as f64);
    m.insert("core.on_period_share", share(&[Layer::OnPeriod]));
    m.insert(
        "core.coordination_ms_per_sim_s",
        ratio(
            (s.total_ns(Layer::OnPeriod) + s.total_ns(Layer::Gamma)) as f64 * 1e-6,
            sim_s,
        ),
    );
    m.insert("scenarios.setup_us", per_call(Layer::Setup) * 1e-3);
    m.insert(
        "scenarios.setup_share",
        share(&[Layer::Setup, Layer::GraphBuild]),
    );
    m.insert("taskgraph.build_us", per_call(Layer::GraphBuild) * 1e-3);
    m.insert("scenarios.loop_self_share", share(&[Layer::Vehicle]));
    m.insert(
        "scenarios.history_rows",
        ratio(c.history_rows as f64, c.vehicles as f64),
    );
    m.insert(
        "trace.overhead",
        ratio(
            median(&t.traced_walls).unwrap_or(0.0),
            median(&t.untraced_walls).unwrap_or(0.0),
        ),
    );
}

/// Harness and stream metrics from one `timing` run and one plain run.
fn harness_metrics(
    config: &FleetConfig,
    plain: &FleetRun,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut timed = config.clone();
    timed.timing = true;
    let run = fleet_run(&timed, None)?;
    verify_fleet(&timed, &run)?;
    let walls = job_wall_ms(&run.stream)?;
    m.insert("harness.jobs", walls.len() as f64);
    m.insert("harness.job_ms_p50", percentile(&walls, 0.5).unwrap_or(0.0));
    m.insert(
        "harness.job_ms_p95",
        percentile(&walls, 0.95).unwrap_or(0.0),
    );
    m.insert(
        "harness.worker_busy_ratio",
        ratio(
            walls.iter().sum::<f64>() * 1e-3,
            config.workers as f64 * run.wall_s,
        ),
    );
    m.insert("fleet.jsonl_bytes", plain.bytes as f64);
    m.insert(
        "fleet.write_share",
        ratio(plain.write_ns as f64 * 1e-9, plain.wall_s),
    );
    Ok(())
}

fn fleet_traced(config: &FleetConfig, s: &Settings) -> Result<(Report, FleetTrace), String> {
    let plain = fleet_run(config, None)?;
    let reference = verify_fleet(config, &plain)?;
    let mut m = BTreeMap::new();
    harness_metrics(config, &plain, &mut m)?;
    sim_metrics(&reference, &mut m);
    let trace = trace_rounds(config, &reference, s.seconds)?;
    layer_metrics(&trace, config, &mut m);
    let mut notes = sim_notes(&reference);
    notes.push(rounds_note(trace.rounds));
    let attempted = config.vehicles * (2 + 2 * trace.rounds);
    Ok((
        Report {
            outcome: Outcome {
                correct: true,
                attempted: attempted as u64,
                failed: 0,
                metrics: per_layer(&m),
            },
            digest: reference.digest,
            notes,
        },
        trace,
    ))
}

// ---------------------------------------------------------------------
// store-churn
// ---------------------------------------------------------------------

/// Code-version tag of `hcperf fleet --store`'s cell fingerprint.
const FLEET_CODE_VERSION: &str = "fleet-v1";

/// The cell fingerprint `hcperf fleet --store` gives an unsupervised
/// fleet.
fn fleet_fingerprint(config: &FleetConfig) -> String {
    fingerprint(&[
        "fleet",
        FLEET_CODE_VERSION,
        config.preset.name(),
        &config.scheme.to_string(),
        &format!("duration={}", config.duration),
        &format!("root_seed={:#x}", config.root_seed),
    ])
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
    Some(Ok(serde_json::from_str(payload.strip_prefix("ok:")?).ok()?))
}

type Encode = fn(&Result<VehicleRecord, String>) -> Option<String>;
type Decode = fn(&str) -> Option<Result<VehicleRecord, String>>;

/// One pass of a fleet through the store at `path`.
#[derive(Debug)]
pub struct StorePass {
    /// The fleet run, store open and finish included in its wall time.
    pub run: FleetRun,
    /// The cache's hit/miss summary.
    pub cached: RunSummary,
    /// `Store::open` (log replay) nanoseconds.
    pub open_ns: u64,
    /// `CellCache::finish` (summary append and fsync) nanoseconds.
    pub finish_ns: u64,
    /// Cache probes, hits and their nanoseconds (traced passes only).
    pub gets: u64,
    /// Cache probes served from the store.
    pub hits: u64,
    /// Nanoseconds in cache probes.
    pub get_ns: u64,
    /// Fresh results offered to the store.
    pub puts: u64,
    /// Nanoseconds storing fresh results.
    pub put_ns: u64,
    /// Log size after the pass, bytes.
    pub log_bytes: u64,
}

/// Opens the store at `path`, runs `config` through it, and seals it.
///
/// # Errors
///
/// Store and program errors, as text.
pub fn store_pass(config: &FleetConfig, path: &Path, timed: bool) -> Result<StorePass, String> {
    let cpu = usage().cpu_s;
    let start = Instant::now();
    let mut store = Store::open(path).map_err(text)?;
    let open_ns = elapsed_ns(start);
    let mut cache: CellCache<'_, _, Encode, Decode> = CellCache::new(
        &mut store,
        fleet_fingerprint(config),
        encode_vehicle,
        decode_vehicle,
    );
    let (mut run, probe) = if timed {
        let mut probe = TimedCache::new(&mut cache);
        let run = fleet_run(config, Some(&mut probe))?;
        let counts = [
            probe.gets,
            probe.hits,
            probe.get_ns,
            probe.puts,
            probe.put_ns,
        ];
        (run, counts)
    } else {
        (fleet_run(config, Some(&mut cache))?, [0; 5])
    };
    let finish = Instant::now();
    let cached = cache.finish().map_err(text)?;
    let finish_ns = elapsed_ns(finish);
    drop(store);
    run.wall_s = start.elapsed().as_secs_f64();
    run.cpu_s = usage().cpu_s - cpu;
    let log_bytes = std::fs::metadata(path)
        .map_err(|e| io_error(path, e))?
        .len();
    let [gets, hits, get_ns, puts, put_ns] = probe;
    Ok(StorePass {
        run,
        cached,
        open_ns,
        finish_ns,
        gets,
        hits,
        get_ns,
        puts,
        put_ns,
        log_bytes,
    })
}

/// A cold pass into a fresh store and a resumed pass out of it, checked:
/// the cold pass simulates every vehicle, the resumed pass serves every
/// vehicle from the store, and its stream is byte-identical.
///
/// # Errors
///
/// The first failed check, or a store or program error.
pub fn churn(
    config: &FleetConfig,
    path: &Path,
    timed: bool,
) -> Result<(StorePass, StorePass, Verified), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io_error(path, e)),
        _ => {}
    }
    let cold = store_pass(config, path, timed)?;
    let resumed = store_pass(config, path, timed)?;
    std::fs::remove_file(path).map_err(|e| io_error(path, e))?;
    let n = config.vehicles;
    ensure(cold.cached == RunSummary { hits: 0, misses: n }, || {
        format!("cold pass into a fresh store: {:?}", cold.cached)
    })?;
    ensure(
        resumed.cached == RunSummary { hits: n, misses: 0 } && resumed.run.summary.cached == n,
        || {
            format!(
                "resumed pass: {:?}, {} cached",
                resumed.cached, resumed.run.summary.cached
            )
        },
    )?;
    ensure(resumed.run.stream == cold.run.stream, || {
        "the resumed stream differs from the cold stream".to_owned()
    })?;
    let verified = verify_fleet(config, &cold.run)?;
    Ok((cold, resumed, verified))
}

fn store_path(s: &Settings) -> PathBuf {
    s.work_dir.join(format!("store-churn-{}.jsonl", s.seed))
}

fn store_churn(config: &FleetConfig, s: &Settings) -> Result<Report, String> {
    let path = store_path(s);
    let mut warm = config.clone();
    warm.vehicles = SETUP_STORE_VEHICLES;
    let setup_s = setup_median(|| churn(&warm, &path, false).map(drop))?;
    let mut first = None;
    let mut resume_rates = Vec::new();
    let rounds = measure(s.seconds, || {
        let (cold, resumed, verified) = churn(config, &path, false)?;
        let reference = first.get_or_insert_with(|| verified.clone());
        ensure(verified.digest == reference.digest, || {
            "a round's stream differs from round 1's".to_owned()
        })?;
        resume_rates.push(config.vehicles as f64 / resumed.run.wall_s);
        // Vehicle-seconds are simulated in the cold pass only; the round
        // is the cold pass plus the resumed one.
        Ok(Sample {
            round_s: cold.run.wall_s + resumed.run.wall_s,
            sim_s: cold.run.wall_s,
            cpu_s: cold.run.cpu_s,
        })
    })?;
    let first = first.ok_or("no rounds")?;
    let vehicle_s = config.vehicles as f64 * config.duration;
    let mut notes = sim_notes(&first);
    notes.extend(host_notes(vehicle_s, &rounds));
    notes.push((
        "host_resume_vehicles_per_s",
        format!("{}", median(&resume_rates).unwrap_or(0.0)),
    ));
    Ok(Report {
        outcome: Outcome {
            correct: true,
            attempted: (2 * config.vehicles * rounds.len()) as u64,
            failed: 0,
            metrics: end_to_end(vehicle_s, &rounds, setup_s)?,
        },
        digest: first.digest,
        notes,
    })
}

fn store_churn_traced(config: &FleetConfig, s: &Settings) -> Result<Report, String> {
    let (cold, resumed, verified) = churn(config, &store_path(s), true)?;
    let (mut report, trace) = fleet_traced(config, s)?;
    ensure(report.digest == verified.digest, || {
        "the store's stream differs from the plain fleet stream".to_owned()
    })?;
    let steps_per_vehicle = ratio(trace.counts.steps as f64, trace.counts.vehicles as f64);
    let n = config.vehicles as f64;
    let mut m: BTreeMap<&'static str, f64> = report
        .outcome
        .metrics
        .iter()
        .map(|metric| (metric.name, metric.value))
        .collect();
    m.insert("store.open_ms", resumed.open_ns as f64 * 1e-6);
    m.insert("store.log_bytes", resumed.log_bytes as f64);
    m.insert(
        "store.get_us",
        ratio(resumed.get_ns as f64, resumed.gets as f64) * 1e-3,
    );
    m.insert("store.hits", resumed.hits as f64);
    m.insert(
        "store.put_us",
        ratio(cold.put_ns as f64, cold.puts as f64) * 1e-3,
    );
    m.insert("store.appended_bytes", cold.log_bytes as f64);
    m.insert("store.finish_ms", cold.finish_ns as f64 * 1e-6);
    m.insert("store.cold_vehicles_per_s", n / cold.run.wall_s);
    m.insert("store.resume_vehicles_per_s", n / resumed.run.wall_s);
    m.insert(
        "store.resume_vehicle_steps",
        resumed.puts as f64 * steps_per_vehicle,
    );
    report.outcome.metrics = per_layer(&m);
    report.outcome.attempted += 2 * config.vehicles as u64;
    Ok(report)
}

// ---------------------------------------------------------------------
// paper-suite
// ---------------------------------------------------------------------

/// The figures of `all_experiments`, in its order.
pub const FIGURES: [&str; 8] = [
    "fig04", "fig05", "fig12", "fig13", "fig14", "fig15", "fig17", "fig18",
];

const FIGURE_METRICS: [&str; 8] = [
    "bench.fig04_ms",
    "bench.fig05_ms",
    "bench.fig12_ms",
    "bench.fig13_ms",
    "bench.fig14_ms",
    "bench.fig15_ms",
    "bench.fig17_ms",
    "bench.fig18_ms",
];

/// Figure `i`'s markdown report, as `all_experiments` prints it.
fn figure(i: usize) -> Result<String, String> {
    match i {
        0 => ex::fig04_motivation(WORKERS, None).map_err(text),
        1 => Ok(ex::fig05_schedules()),
        2 => ex::fig12_exec_times().map_err(text),
        3 => ex::fig13_car_following(WORKERS, None).map_err(text),
        4 => ex::fig14_lane_keeping(WORKERS, None).map_err(text),
        5 => ex::fig15_hardware(WORKERS, None).map_err(text),
        6 => ex::fig17_responsiveness().map_err(text),
        7 => ex::fig18_ablation(WORKERS, None).map_err(text),
        _ => Err(format!("no figure {i}")),
    }
}

/// Simulated vehicle-seconds in one suite round: the horizons of every
/// closed-loop run the figures make (Fig. 4: two schemes; Figs. 13/14:
/// five schemes; Fig. 15: five schemes × three seeds; Fig. 17: one jam;
/// Fig. 18: two ablation variants). Figs. 5 and 12 simulate no vehicle.
#[must_use]
pub fn suite_vehicle_seconds() -> f64 {
    let fig04 = [Scheme::Apollo, Scheme::HcPerf]
        .iter()
        .map(|&scheme| {
            MotivationConfig {
                scheme,
                ..Default::default()
            }
            .duration
        })
        .sum::<f64>();
    let per_scheme =
        |horizon: fn(Scheme) -> f64| Scheme::all().into_iter().map(horizon).sum::<f64>();
    let fig13 = per_scheme(|s| CarFollowingConfig::paper_simulation(s).duration);
    let fig14 = per_scheme(|s| LaneKeepingConfig::paper_loop(s).duration);
    let fig15 = 3.0 * per_scheme(|s| CarFollowingConfig::hardware(s).duration);
    let fig17 = traffic_jam_config(Scheme::HcPerf).duration;
    let fig18 = 2.0 * CarFollowingConfig::paper_simulation(Scheme::HcPerf).duration;
    fig04 + fig13 + fig14 + fig15 + fig17 + fig18
}

/// Runs the figures with the working directory inside the scratch
/// directory, so their CSV dumps land there.
fn in_dir<T>(dir: &Path, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let home = std::env::current_dir().map_err(text)?;
    std::env::set_current_dir(dir).map_err(|e| io_error(dir, e))?;
    let out = f();
    std::env::set_current_dir(&home).map_err(|e| io_error(&home, e))?;
    out
}

/// One untraced suite round: its stdout, wall and CPU seconds.
fn suite_round() -> Result<(String, f64, f64), String> {
    let cpu = usage().cpu_s;
    let start = Instant::now();
    let mut out = String::new();
    for i in 0..FIGURES.len() {
        out.push_str(&figure(i)?);
    }
    Ok((out, start.elapsed().as_secs_f64(), usage().cpu_s - cpu))
}

fn paper_suite(s: &Settings) -> Result<Report, String> {
    in_dir(&s.work_dir, || {
        let setup_s = setup_median(|| {
            for i in SETUP_FIGURES {
                figure(i)?;
            }
            Ok(())
        })?;
        let mut reference = None;
        let rounds = measure(s.seconds, || {
            let (out, wall, cpu) = suite_round()?;
            let reference = reference.get_or_insert_with(|| out.clone());
            ensure(&out == reference, || {
                "suite stdout differs between rounds".to_owned()
            })?;
            Ok(Sample {
                round_s: wall,
                sim_s: wall,
                cpu_s: cpu,
            })
        })?;
        let reference = reference.ok_or("no rounds")?;
        let vehicle_s = suite_vehicle_seconds();
        Ok(Report {
            outcome: Outcome {
                correct: true,
                attempted: (FIGURES.len() * rounds.len()) as u64,
                failed: 0,
                metrics: end_to_end(vehicle_s, &rounds, setup_s)?,
            },
            digest: fnv1a64(reference.as_bytes()),
            notes: host_notes(vehicle_s, &rounds),
        })
    })
}

fn paper_suite_traced(s: &Settings) -> Result<Report, String> {
    in_dir(&s.work_dir, || {
        let (reference, untraced, _) = suite_round()?;
        let mut untraced_walls = vec![untraced];
        let mut traced_walls = Vec::new();
        let mut figure_ms: [Vec<f64>; 8] = Default::default();
        let start = Instant::now();
        loop {
            let round = Instant::now();
            let mut out = String::new();
            for (i, samples) in figure_ms.iter_mut().enumerate() {
                let t = Instant::now();
                out.push_str(&figure(i)?);
                samples.push(t.elapsed().as_secs_f64() * 1e3);
            }
            traced_walls.push(round.elapsed().as_secs_f64());
            ensure(out == reference, || {
                "suite stdout differs between rounds".to_owned()
            })?;
            if start.elapsed().as_secs_f64() >= s.seconds && traced_walls.len() >= MIN_ROUNDS {
                break;
            }
            let (out, wall, _) = suite_round()?;
            ensure(out == reference, || {
                "suite stdout differs between rounds".to_owned()
            })?;
            untraced_walls.push(wall);
        }
        let mut m = BTreeMap::new();
        for (name, samples) in FIGURE_METRICS.iter().zip(&figure_ms) {
            m.insert(*name, median(samples).unwrap_or(0.0));
        }
        m.insert(
            "trace.overhead",
            ratio(
                median(&traced_walls).unwrap_or(0.0),
                median(&untraced_walls).unwrap_or(0.0),
            ),
        );
        Ok(Report {
            outcome: Outcome {
                correct: true,
                attempted: (FIGURES.len() * (traced_walls.len() + untraced_walls.len())) as u64,
                failed: 0,
                metrics: per_layer(&m),
            },
            digest: fnv1a64(reference.as_bytes()),
            notes: vec![rounds_note(traced_walls.len())],
        })
    })
}
