//! The traced closed loops: car following and lane keeping driven from the
//! benchmark's own code through the program's public entry points, with a
//! span around every call into a layer.
//!
//! Each loop mirrors the fault-free path of its scenario step for step —
//! sense, `Sim::run_until`, `drain_commands`, control law, plant `step`,
//! and `HcPerf::on_period` once per control period — so that it computes
//! the same `VehicleRecord` as `run_fleet`. The traced run checks that it
//! does, bit for bit, before it trusts a single span.

use std::time::Instant;

use hcperf::{HcPerf, PeriodInput};
use hcperf_harness::{run_batch, BatchOptions, Job};
use hcperf_rtsim::{JoinPolicy, Sim, SimConfig};
use hcperf_scenarios::fleet::{FleetConfig, FleetPreset, VehicleRecord};
use hcperf_scenarios::{CarFollowingConfig, LaneKeepingConfig};
use hcperf_taskgraph::graphs::{apollo_graph, with_fusion_step, GraphOptions};
use hcperf_taskgraph::{Rate, SimSpan, SimTime, TaskGraph, TaskId};
use hcperf_vehicle::{BicycleCar, CarFollowController, LongitudinalCar, NoisySensor, Track};

use crate::probe::TimedScheduler;
use crate::spans::{Layer, Spans};

/// Work counts of one or more traced vehicles. Every field is a pure
/// function of the fleet's inputs, so it repeats exactly across runs and
/// worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Vehicles traced.
    pub vehicles: u64,
    /// Physics steps (one `run_until` and one plant step each).
    pub steps: u64,
    /// Jobs the engine released.
    pub jobs_released: u64,
    /// Jobs that ran to completion, on time or late.
    pub jobs_completed: u64,
    /// Jobs that finished late or expired unrun.
    pub jobs_missed: u64,
    /// Control commands drained and acted on.
    pub commands: u64,
    /// `Scheduler::select` calls.
    pub select_calls: u64,
    /// `select` calls that returned no job.
    pub select_idle: u64,
    /// Sum over `select` calls of the ready-queue length.
    pub queue_len_sum: u64,
    /// γ recomputes (Eq. 11 searches).
    pub gamma_recomputes: u64,
    /// `HcPerf::on_period` calls.
    pub on_period_calls: u64,
    /// Source-rate updates applied from coordinator decisions.
    pub rate_updates: u64,
    /// Rows pushed to the sensed-history buffer.
    pub history_rows: u64,
}

impl Counts {
    /// Adds another vehicle's counts.
    pub fn merge(&mut self, o: &Counts) {
        self.vehicles += o.vehicles;
        self.steps += o.steps;
        self.jobs_released += o.jobs_released;
        self.jobs_completed += o.jobs_completed;
        self.jobs_missed += o.jobs_missed;
        self.commands += o.commands;
        self.select_calls += o.select_calls;
        self.select_idle += o.select_idle;
        self.queue_len_sum += o.queue_len_sum;
        self.gamma_recomputes += o.gamma_recomputes;
        self.on_period_calls += o.on_period_calls;
        self.rate_updates += o.rate_updates;
        self.history_rows += o.history_rows;
    }
}

/// One traced vehicle: the record `run_fleet` must also produce, plus the
/// spans and counts gathered on the way.
#[derive(Debug, Clone)]
pub struct VehicleTrace {
    /// The vehicle's fleet record.
    pub record: VehicleRecord,
    /// Per-layer span totals.
    pub spans: Spans,
    /// Work counts.
    pub counts: Counts,
}

/// Traces every vehicle of `config` on the harness pool, keyed and seeded
/// exactly as `run_fleet` keys and seeds them. Results come back in
/// vehicle order.
///
/// # Errors
///
/// Fault plans and retries are outside the traced path; a vehicle that
/// fails or panics fails the whole trace.
pub fn trace_fleet(config: &FleetConfig) -> Result<Vec<VehicleTrace>, String> {
    if config.supervised() {
        return Err("the traced loop covers fault-free, unsupervised fleets only".to_owned());
    }
    let jobs: Vec<Job<usize>> = (0..config.vehicles)
        .map(|i| Job::new(format!("fleet/{}/vehicle={i}", config.preset.name()), i))
        .collect();
    let opts = BatchOptions::with_workers(config.workers).root_seed(config.root_seed);
    run_batch(&jobs, opts, |_, seed| trace_vehicle(config, seed))
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|r| r.into_ok()?)
        .collect()
}

/// Traces one fleet vehicle running under `seed`, with the per-vehicle
/// scenario settings `run_fleet` applies.
///
/// # Errors
///
/// Scenario construction failures, as text.
pub fn trace_vehicle(config: &FleetConfig, seed: u64) -> Result<VehicleTrace, String> {
    let start = Instant::now();
    let mut trace = match config.preset {
        FleetPreset::CarFollowing | FleetPreset::CarFollowingHardware => {
            let mut c = if config.preset == FleetPreset::CarFollowing {
                CarFollowingConfig::paper_simulation(config.scheme)
            } else {
                CarFollowingConfig::hardware(config.scheme)
            };
            c.duration = config.duration;
            c.warmup = c.warmup.min(config.duration * 0.25);
            c.seed = seed;
            c.record_series = false;
            car_following(&c)?
        }
        FleetPreset::LaneKeeping => {
            let mut c = LaneKeepingConfig::paper_loop(config.scheme);
            c.duration = config.duration;
            c.warmup = c.warmup.min(config.duration * 0.25);
            c.seed = seed;
            lane_keeping(&c)?
        }
    };
    trace.spans.close(Layer::Vehicle, start);
    Ok(trace)
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Initial source rates: fraction-of-range for HCPerf, the fixed baseline
/// rate (clamped into range) otherwise.
fn initial_rates(
    sim: &Sim<TimedScheduler>,
    coordinated: bool,
    hcperf_fraction: f64,
    baseline_hz: f64,
) -> Vec<(TaskId, Rate)> {
    sim.source_rates()
        .iter()
        .map(|&(task, rate)| {
            let applied = match (coordinated, sim.graph().spec(task).rate_range()) {
                (true, Some(range)) => range.lerp(hcperf_fraction),
                (false, Some(range)) => range.clamp(Rate::from_hz(baseline_hz)),
                _ => rate,
            };
            (task, applied)
        })
        .collect()
}

/// Most recent history row at or before `t` (the first row if `t`
/// precedes the history).
fn lookup<T: Copy>(history: &[T], t: f64, time_of: impl Fn(&T) -> f64) -> T {
    match history.binary_search_by(|s| time_of(s).total_cmp(&t)) {
        Ok(i) => history[i],
        Err(0) => history[0],
        Err(i) => history[i - 1],
    }
}

/// Everything one control period does besides the coordinator itself:
/// the window statistics the coordinator consumes and the rate updates
/// it returns.
struct Period<'a> {
    sim: &'a mut Sim<TimedScheduler>,
    spans: &'a mut Spans,
    counts: &'a mut Counts,
}

impl Period<'_> {
    /// `take_window().miss_ratio()` for the period just ended.
    fn miss_ratio(&mut self) -> f64 {
        let start = Instant::now();
        let m_k = self.sim.stats_mut().take_window().miss_ratio();
        self.spans.close(Layer::RtsimOther, start);
        m_k
    }

    /// One `on_period` call and the actuation of its decision.
    fn coordinate(
        &mut self,
        coord: &mut HcPerf,
        fusion: TaskId,
        tracking_error: f64,
        miss_ratio: f64,
    ) -> Result<(), String> {
        let start = Instant::now();
        let rates = self.sim.source_rates();
        let exec_signal = self.sim.observed_exec(fusion).as_secs();
        self.spans.close(Layer::RtsimOther, start);
        let start = Instant::now();
        let decision = coord.on_period(PeriodInput {
            tracking_error,
            miss_ratio,
            exec_signal,
            current_rates: &rates,
        });
        self.spans.close(Layer::OnPeriod, start);
        self.counts.on_period_calls += 1;
        let start = Instant::now();
        self.sim.scheduler_mut().set_nominal_u(decision.nominal_u);
        for (task, rate) in decision.new_rates {
            self.sim.set_source_rate(task, rate).map_err(text)?;
            self.counts.rate_updates += 1;
        }
        self.spans.close(Layer::RtsimOther, start);
        Ok(())
    }
}

/// Final engine statistics folded into the counts.
fn finish_counts(sim: &Sim<TimedScheduler>, mut counts: Counts, spans: &mut Spans) -> Counts {
    let totals = sim.stats().totals();
    let sched = sim.scheduler();
    counts.vehicles = 1;
    counts.jobs_released = sim.stats().released();
    counts.jobs_completed = totals.met + totals.missed_late;
    counts.jobs_missed = totals.missed_late + totals.expired;
    counts.select_calls = sched.spans().count(Layer::Select);
    counts.select_idle = sched.idle_calls();
    counts.queue_len_sum = sched.queue_len_sum();
    counts.gamma_recomputes = sched.spans().count(Layer::Gamma);
    spans.merge(sched.spans());
    counts
}

fn e2e_ms(sim: &Sim<TimedScheduler>) -> (f64, f64) {
    let stats = sim.stats();
    (
        stats.mean_end_to_end().map_or(0.0, |d| d.as_millis()),
        stats
            .end_to_end_percentile(0.99)
            .map_or(0.0, |d| d.as_millis()),
    )
}

/// What the car-following pipeline saw at one instant.
#[derive(Debug, Clone, Copy)]
struct Sensed {
    t: f64,
    lead_speed: f64,
    own_speed: f64,
    gap: f64,
}

/// The fault-free car-following loop with spans.
fn car_following(config: &CarFollowingConfig) -> Result<VehicleTrace, String> {
    if !config.faults.is_empty() {
        return Err("the traced loop is fault-free".to_owned());
    }
    let mut spans = Spans::default();
    let mut counts = Counts::default();

    let setup = Instant::now();
    let build = Instant::now();
    let mut graph: TaskGraph = apollo_graph(&GraphOptions {
        jitter_frac: config.jitter_frac,
        with_affinity: config.scheme.uses_affinity(),
        processors: config.processors,
    })
    .map_err(text)?;
    if let Some((extra_ms, from, until)) = config.fusion_step {
        graph = with_fusion_step(
            &graph,
            "sensor_fusion",
            extra_ms,
            SimTime::from_secs(from),
            SimTime::from_secs(until),
        );
    }
    spans.close(Layer::GraphBuild, build);
    let fusion = graph.find("sensor_fusion").ok_or("no sensor_fusion task")?;
    let scheduler = TimedScheduler::new(config.scheme.build(config.dps))?;
    let sim_config = SimConfig {
        processors: config.processors,
        seed: config.seed,
        load: config.load.clone(),
        staleness_bound: Some(SimSpan::from_millis(config.staleness_ms)),
        release_jitter_frac: config.release_jitter_frac,
        join_policy: JoinPolicy::SameCycle,
        expire_queued_jobs: config.expire_queued_jobs,
        ..Default::default()
    };
    let mut coordinator = if config.scheme.uses_coordinators() {
        let mut cc = config.coordinator;
        cc.period = SimSpan::from_secs(config.control_period);
        Some(HcPerf::new(cc, &graph).map_err(text)?)
    } else {
        None
    };
    let mut sim = Sim::new(graph, sim_config, scheduler).map_err(text)?;
    for (task, rate) in initial_rates(
        &sim,
        config.scheme.uses_coordinators(),
        config.hcperf_initial_rate_fraction,
        config.baseline_rate_hz,
    ) {
        sim.set_source_rate(task, rate).map_err(text)?;
    }
    spans.close(Layer::Setup, setup);

    let dt = config.physics_dt;
    let mut follower =
        LongitudinalCar::with_state(config.vehicle, -config.initial_gap, config.initial_speed);
    let mut lead_position = 0.0f64;
    let mut controller = CarFollowController::new(config.follow);
    let mut lead_sensor = NoisySensor::new(config.speed_noise_std, config.seed ^ 0x1ead);
    let mut own_sensor = NoisySensor::new(config.speed_noise_std, config.seed ^ 0x0e1f);
    let mut history: Vec<Sensed> = Vec::with_capacity((config.duration / dt) as usize + 2);
    let mut held_accel = 0.0f64;
    let mut last_cmd_t = 0.0f64;
    let mut sq_speed = 0.0f64;
    let mut rms_count = 0u64;
    let mut collided = false;

    let steps = (config.duration / dt).round() as usize;
    let control_every = (config.control_period / dt).round().max(1.0) as usize;
    for step in 0..steps {
        let t = step as f64 * dt;

        let start = Instant::now();
        let lead_speed_true = config.lead.speed_at(t);
        let gap_true = lead_position - follower.position();
        history.push(Sensed {
            t,
            lead_speed: lead_sensor.measure(lead_speed_true),
            own_speed: own_sensor.measure(follower.speed()),
            gap: gap_true,
        });
        spans.close(Layer::Sense, start);

        let start = Instant::now();
        sim.run_until(SimTime::from_secs(t));
        spans.close(Layer::RunUntil, start);
        let start = Instant::now();
        let commands = sim.drain_commands();
        spans.close(Layer::RtsimOther, start);
        for cmd in commands {
            let sensed_t = cmd.chain_released_at.as_secs();
            let sensed = lookup(&history, sensed_t, |s| s.t);
            let earlier = lookup(&history, sensed_t - 0.1, |s| s.t);
            let dt_est = (sensed.t - earlier.t).max(dt);
            let lead_accel = (sensed.lead_speed - earlier.lead_speed) / dt_est;
            let dt_cmd = (cmd.emitted_at.as_secs() - last_cmd_t).max(dt);
            let start = Instant::now();
            held_accel = controller.command(
                sensed.lead_speed,
                lead_accel,
                sensed.own_speed,
                sensed.gap,
                dt_cmd,
            );
            spans.close(Layer::ControlLaw, start);
            last_cmd_t = cmd.emitted_at.as_secs();
            counts.commands += 1;
        }

        let start = Instant::now();
        let effective_accel = if t - last_cmd_t <= config.command_timeout {
            held_accel
        } else {
            0.0
        };
        follower.step(effective_accel, dt);
        lead_position += 0.5 * (lead_speed_true + config.lead.speed_at(t + dt)) * dt;
        spans.close(Layer::Step, start);

        let speed_err = lead_speed_true - follower.speed();
        if t >= config.warmup {
            sq_speed += speed_err * speed_err;
            rms_count += 1;
        }
        collided |= gap_true <= 0.0;

        if step % control_every == 0 {
            let mut period = Period {
                sim: &mut sim,
                spans: &mut spans,
                counts: &mut counts,
            };
            let m_k = period.miss_ratio();
            if let Some(coord) = coordinator.as_mut() {
                period.coordinate(coord, fusion, speed_err, m_k)?;
            }
        }
    }
    counts.steps = steps as u64;
    counts.history_rows = history.len() as u64;

    let (mean_e2e_ms, e2e_p99_ms) = e2e_ms(&sim);
    let record = VehicleRecord {
        scheme: config.scheme,
        tracking_rms: if rms_count > 0 {
            (sq_speed / rms_count as f64).sqrt()
        } else {
            0.0
        },
        miss_ratio: sim.stats().totals().miss_ratio(),
        mean_e2e_ms,
        e2e_p99_ms,
        commands: counts.commands,
        collided,
    };
    let counts = finish_counts(&sim, counts, &mut spans);
    Ok(VehicleTrace {
        record,
        spans,
        counts,
    })
}

/// What the lane-keeping pipeline saw at one instant.
#[derive(Debug, Clone, Copy)]
struct SensedFrenet {
    t: f64,
    lateral_offset: f64,
    heading_error: f64,
    curvature: f64,
}

/// The lane-keeping loop with spans.
fn lane_keeping(config: &LaneKeepingConfig) -> Result<VehicleTrace, String> {
    let mut spans = Spans::default();
    let mut counts = Counts::default();

    let setup = Instant::now();
    let build = Instant::now();
    let graph = apollo_graph(&GraphOptions {
        jitter_frac: config.jitter_frac,
        with_affinity: config.scheme.uses_affinity(),
        processors: config.processors,
    })
    .map_err(text)?;
    spans.close(Layer::GraphBuild, build);
    let fusion = graph.find("sensor_fusion").ok_or("no sensor_fusion task")?;
    let scheduler = TimedScheduler::new(config.scheme.build(config.dps))?;
    let sim_config = SimConfig {
        processors: config.processors,
        seed: config.seed,
        load: config.load.clone(),
        staleness_bound: Some(SimSpan::from_millis(60.0)),
        join_policy: JoinPolicy::SameCycle,
        expire_queued_jobs: false,
        release_jitter_frac: 0.15,
        ..Default::default()
    };
    let mut coordinator = if config.scheme.uses_coordinators() {
        let mut cc = config.coordinator;
        cc.period = SimSpan::from_secs(config.control_period);
        cc.pdc.error_scale *= 10.0;
        cc.pdc.deadband = 0.01;
        Some(HcPerf::new(cc, &graph).map_err(text)?)
    } else {
        None
    };
    let mut sim = Sim::new(graph, sim_config, scheduler).map_err(text)?;
    for (task, rate) in initial_rates(
        &sim,
        config.scheme.uses_coordinators(),
        config.hcperf_initial_rate_fraction,
        config.baseline_rate_hz,
    ) {
        sim.set_source_rate(task, rate).map_err(text)?;
    }
    spans.close(Layer::Setup, setup);

    let dt = config.physics_dt;
    let mut car = BicycleCar::new(config.bicycle);
    let mut held_steer = 0.0f64;
    let mut last_cmd_t = 0.0f64;
    let mut history: Vec<SensedFrenet> = Vec::with_capacity((config.duration / dt) as usize + 2);
    let mut sq = 0.0f64;
    let mut count = 0u64;

    let steps = (config.duration / dt).round() as usize;
    let control_every = (config.control_period / dt).round().max(1.0) as usize;
    for step in 0..steps {
        let t = step as f64 * dt;

        let start = Instant::now();
        history.push(SensedFrenet {
            t,
            lateral_offset: car.lateral_offset(),
            heading_error: car.heading_error(),
            curvature: config.track.curvature(car.arc_position()),
        });
        spans.close(Layer::Sense, start);

        let start = Instant::now();
        sim.run_until(SimTime::from_secs(t));
        spans.close(Layer::RunUntil, start);
        let start = Instant::now();
        let commands = sim.drain_commands();
        spans.close(Layer::RtsimOther, start);
        for cmd in commands {
            let sensed = lookup(&history, cmd.chain_released_at.as_secs(), |s| s.t);
            let start = Instant::now();
            held_steer = config.steer.steer(
                sensed.lateral_offset,
                sensed.heading_error,
                sensed.curvature,
            );
            spans.close(Layer::ControlLaw, start);
            last_cmd_t = cmd.emitted_at.as_secs();
            counts.commands += 1;
        }

        let start = Instant::now();
        let effective_steer = if t - last_cmd_t <= config.command_timeout {
            held_steer
        } else {
            held_steer * (0.2f64).powf((t - last_cmd_t - config.command_timeout).min(5.0))
        };
        car.step(config.speed, effective_steer, dt, &config.track);
        spans.close(Layer::Step, start);

        if t >= config.warmup {
            sq += car.lateral_offset().powi(2);
            count += 1;
        }

        if step % control_every == 0 {
            let mut period = Period {
                sim: &mut sim,
                spans: &mut spans,
                counts: &mut counts,
            };
            let m_k = period.miss_ratio();
            if let Some(coord) = coordinator.as_mut() {
                period.coordinate(coord, fusion, car.lateral_offset(), m_k)?;
            }
        }
    }
    counts.steps = steps as u64;
    counts.history_rows = history.len() as u64;

    let (mean_e2e_ms, e2e_p99_ms) = e2e_ms(&sim);
    let record = VehicleRecord {
        scheme: config.scheme,
        tracking_rms: if count > 0 {
            (sq / count as f64).sqrt()
        } else {
            0.0
        },
        miss_ratio: sim.stats().totals().miss_ratio(),
        mean_e2e_ms,
        e2e_p99_ms,
        commands: counts.commands,
        collided: false,
    };
    let counts = finish_counts(&sim, counts, &mut spans);
    Ok(VehicleTrace {
        record,
        spans,
        counts,
    })
}
