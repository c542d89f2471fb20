//! The one closed loop behind every scenario (the Fig. 9 testbed).
//!
//! [`ClosedLoop`] owns what the scenarios share: the simulator running
//! the task graph, the HCPerf coordinator, the sensing history, the
//! fault hooks, the command watchdog and the per-period coordinator step.
//! A scenario keeps its vehicle, sensors and result in local variables.
//! The invariant: a command reaches the vehicle only when the pipeline's
//! sink completes, and it was computed from the row sensed at its
//! chain's source release — deadline misses become stale, sparse
//! actuation.

use std::sync::Arc;

use hcperf::{CoordinatorConfig, DpsConfig, HcPerf, PeriodInput, SchedulerKind, Scheme};
use hcperf_faults::VehicleFaults;
use hcperf_rtsim::{ControlCommand, FaultCounters, JoinPolicy, Sim, SimConfig, WindowStats};
use hcperf_taskgraph::{LoadProfile, Rate, SimSpan, SimTime, TaskGraph, TaskId};

use crate::car_following::{DegradedTelemetry, ScenarioError};
use crate::metrics::TimeSeries;

/// How the sources start before the coordinator (if any) adapts them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum InitialRates {
    /// Every source at this rate in Hz.
    Fixed(f64),
    /// HCPerf starts `fraction` of the way into each source's range;
    /// baselines clamp `baseline_hz` into it.
    PerScheme { baseline_hz: f64, fraction: f64 },
}

/// Everything [`ClosedLoop::new`] builds a run from.
#[derive(Debug)]
pub(crate) struct LoopSpec<'a> {
    pub scheme: Scheme,
    /// Shared: a fleet builds one graph for all of its vehicles.
    pub graph: Arc<TaskGraph>,
    pub sim: SimConfig,
    pub dps: DpsConfig,
    /// Its period is set from `control_period`.
    pub coordinator: CoordinatorConfig,
    pub initial_rates: InitialRates,
    pub duration: f64,
    pub physics_dt: f64,
    pub control_period: f64,
    /// Commands older than this (seconds) trip the chassis watchdog.
    pub command_timeout: f64,
    pub faults: &'a VehicleFaults,
    /// Record the degraded-mode series of a faulted run.
    pub record_mode: bool,
}

/// The simulator settings every scenario shares: same-cycle joins, a
/// 60 ms freshness bound, 15 % release jitter, late jobs run anyway.
pub(crate) fn sim_config(processors: usize, seed: u64, load: &LoadProfile) -> SimConfig {
    SimConfig {
        processors,
        seed,
        load: load.clone(),
        staleness_bound: Some(SimSpan::from_millis(60.0)),
        release_jitter_frac: 0.15,
        join_policy: JoinPolicy::SameCycle,
        expire_queued_jobs: false,
        ..Default::default()
    }
}

/// A command as it reaches the vehicle.
#[derive(Debug)]
pub(crate) struct Delivery<'h, S> {
    pub command: ControlCommand,
    /// The row sensed at the chain release: what the command was
    /// computed from.
    pub sensed: (f64, S),
    /// Seconds since the previous command (since `t = 0` for the first).
    pub since_last: f64,
    history: &'h [(f64, S)],
}

impl<S: Copy> Delivery<'_, S> {
    /// The row sensed at or before `t` (the first row if `t` precedes
    /// the history).
    pub fn sensed_at(&self, t: f64) -> (f64, S) {
        lookup(self.history, t).unwrap_or(self.sensed)
    }
}

/// The latest row at or before `t`, else the first; `None` only for an
/// empty history.
fn lookup<S: Copy>(history: &[(f64, S)], t: f64) -> Option<(f64, S)> {
    let after = history.partition_point(|row| row.0 <= t);
    history.get(after.saturating_sub(1)).copied()
}

/// Rejects a horizon, step or rate that is non-finite or not positive.
///
/// # Errors
///
/// [`ScenarioError::InvalidParameter`] naming `name`.
pub fn check_positive(name: &'static str, value: f64) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        return Ok(());
    }
    let need = "a finite value > 0";
    Err(ScenarioError::InvalidParameter { name, value, need })
}

/// The most physics steps one closed loop runs: 10^7, about 13.9
/// simulated hours at the presets' 5 ms step. The sensing history is
/// reserved up front, one row per step, so a longer horizon is refused
/// instead of asking for that memory.
pub(crate) const MAX_LOOP_STEPS: usize = 10_000_000;

/// One vehicle's simulator, coordinator and sensing history.
#[derive(Debug)]
pub(crate) struct ClosedLoop<'a, S> {
    sim: Sim<SchedulerKind>,
    coordinator: Option<HcPerf>,
    fusion: TaskId,
    faults: &'a VehicleFaults,
    history: Vec<(f64, S)>,
    physics_dt: f64,
    steps: usize,
    control_every: usize,
    command_timeout: f64,
    last_command_t: f64,
    commands: u64,
    record_mode: bool,
    /// Whether this step's sensing held the last-known-good row.
    holding: bool,
    degraded: DegradedTelemetry,
}

impl<'a, S: Copy> ClosedLoop<'a, S> {
    /// Validates the timing, then builds the simulator (faults injected,
    /// initial rates applied) and, for HCPerf, the coordinator.
    pub fn new(spec: LoopSpec<'a>) -> Result<Self, ScenarioError> {
        let (dt, period) = (spec.physics_dt, spec.control_period);
        check_positive("duration", spec.duration)?;
        check_positive("physics_dt", dt)?;
        if spec.duration / dt > MAX_LOOP_STEPS as f64 {
            let need = "at most 10^7 physics steps (duration / physics_dt)";
            return Err(ScenarioError::InvalidParameter {
                name: "duration",
                value: spec.duration,
                need,
            });
        }
        if !(period.is_finite() && period >= dt) {
            let need = "a finite value >= physics_dt";
            return Err(ScenarioError::InvalidParameter {
                name: "control_period",
                value: period,
                need,
            });
        }
        let fusion = spec.graph.find("sensor_fusion");
        let fusion = fusion.ok_or(ScenarioError::MissingTask("sensor_fusion"))?;
        let coordinated = spec.scheme.uses_coordinators();
        let coordinator = if coordinated {
            let mut cc = spec.coordinator;
            cc.period = SimSpan::from_secs(period);
            Some(HcPerf::new(cc, &spec.graph)?)
        } else {
            None
        };
        let mut sim = Sim::new(spec.graph, spec.sim, spec.scheme.build(spec.dps))?;
        for window in &spec.faults.sim {
            sim.inject_fault(*window)?;
        }
        for (task, rate) in sim.source_rates() {
            use InitialRates::{Fixed, PerScheme};
            let applied = match (spec.initial_rates, sim.graph().spec(task).rate_range()) {
                (Fixed(hz), _) => Rate::from_hz(hz),
                (PerScheme { .. }, None) => rate,
                (PerScheme { fraction, .. }, Some(range)) if coordinated => range.lerp(fraction),
                (PerScheme { baseline_hz, .. }, Some(range)) => {
                    range.clamp(Rate::from_hz(baseline_hz))
                }
            };
            sim.set_source_rate(task, applied)?;
        }
        Ok(ClosedLoop {
            sim,
            coordinator,
            fusion,
            faults: spec.faults,
            history: Vec::with_capacity((spec.duration / dt) as usize + 2),
            physics_dt: dt,
            steps: (spec.duration / dt).round() as usize,
            control_every: (period / dt).round().max(1.0) as usize,
            command_timeout: spec.command_timeout,
            last_command_t: 0.0,
            commands: 0,
            record_mode: spec.record_mode && !spec.faults.is_empty(),
            holding: false,
            degraded: DegradedTelemetry {
                pdc_hold_ticks: 0,
                tra_floor_ticks: 0,
                corrupted_feedback_ticks: 0,
                fault: FaultCounters::default(),
                mode: TimeSeries::new("degraded_mode"),
            },
        })
    }

    /// Every physics step of the run with its simulated time.
    pub fn ticks(&self) -> impl Iterator<Item = (usize, f64)> {
        let dt = self.physics_dt;
        (0..self.steps).map(move |step| (step, step as f64 * dt))
    }

    /// Records what the pipeline sees at `t`. An injected crash panics
    /// here (the harness isolates it). Under an injected sensor dropout
    /// the last row is re-stamped instead of calling `measure`: a
    /// bounded-staleness hold, so commands computed from it act on stale
    /// data.
    pub fn sense(&mut self, t: f64, measure: impl FnOnce() -> S) {
        if self.faults.crash_at.is_some_and(|tc| t >= tc) {
            panic!("injected vehicle crash at t={t:.3}s");
        }
        let held = if self.faults.sensor_dropped_at(t) {
            self.history.last().map(|&(_, row)| row)
        } else {
            None
        };
        self.holding = held.is_some();
        self.degraded.pdc_hold_ticks += u64::from(self.holding);
        self.history.push((t, held.unwrap_or_else(measure)));
    }

    /// Advances the task pipeline to `t` and hands every command the sink
    /// completed to `on_command`, with the data it was computed from.
    pub fn actuate(&mut self, t: f64, mut on_command: impl FnMut(Delivery<'_, S>)) {
        self.sim.run_until(SimTime::from_secs(t));
        for command in self.sim.drain_commands() {
            let Some(sensed) = lookup(&self.history, command.chain_released_at.as_secs()) else {
                continue;
            };
            let emitted = command.emitted_at.as_secs();
            on_command(Delivery {
                command,
                sensed,
                since_last: emitted - self.last_command_t,
                history: &self.history,
            });
            self.last_command_t = emitted;
            self.commands += 1;
        }
    }

    /// The chassis watchdog: `None` while the last command is at most
    /// the timeout old, else how far past the timeout it is (seconds).
    pub fn stale_for(&self, t: f64) -> Option<f64> {
        let age = t - self.last_command_t;
        (age > self.command_timeout).then_some(age - self.command_timeout)
    }

    /// At each control period (`None` between them): closes the miss
    /// window and, for HCPerf, feeds the tracking error and miss ratio to
    /// the coordinator and applies its `u(t)` and source rates. Returns
    /// the window and the miss ratio the coordinator saw (an injected
    /// feedback corruption overrides the measured one).
    pub fn period(
        &mut self,
        step: usize,
        t: f64,
        tracking_error: f64,
    ) -> Result<Option<(WindowStats, f64)>, ScenarioError> {
        if !step.is_multiple_of(self.control_every) {
            return Ok(None);
        }
        let window = self.sim.stats_mut().take_window();
        let mut miss_ratio = window.miss_ratio();
        if let Some(forced) = self.faults.corrupted_feedback_at(t) {
            miss_ratio = forced;
            self.degraded.corrupted_feedback_ticks += 1;
        }
        let mut tra_floor = false;
        if let Some(coordinator) = self.coordinator.as_mut() {
            let rates = self.sim.source_rates();
            let decision = coordinator.on_period(PeriodInput {
                tracking_error,
                miss_ratio,
                exec_signal: self.sim.observed_exec(self.fusion).as_secs(),
                current_rates: &rates,
            });
            self.sim.scheduler_mut().set_nominal_u(decision.nominal_u);
            for (task, rate) in decision.new_rates {
                self.sim.set_source_rate(task, rate)?;
            }
            tra_floor = decision.tra_degraded;
            self.degraded.tra_floor_ticks += u64::from(tra_floor);
        }
        if self.record_mode {
            let mode = f64::from(u8::from(self.holding) | (u8::from(tra_floor) << 1));
            self.degraded.mode.push(t, mode);
        }
        Ok(Some((window, miss_ratio)))
    }

    /// The simulator, for statistics and scheduler state.
    pub fn sim(&self) -> &Sim<SchedulerKind> {
        &self.sim
    }

    /// Commands delivered so far.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// How the run degraded; `None` for a fault-free run.
    pub fn telemetry(self) -> Option<DegradedTelemetry> {
        let fault = self.sim.fault_counters();
        (!self.faults.is_empty()).then_some(DegradedTelemetry {
            fault,
            ..self.degraded
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_latest_at_or_before() {
        let history = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)];
        assert_eq!(lookup(&history, 1.5), Some((1.0, 2.0)));
        assert_eq!(lookup(&history, 2.5), Some((2.0, 3.0)));
        assert_eq!(lookup(&history, -1.0), Some((0.0, 1.0)));
        assert_eq!(lookup(&history, 1.0), Some((1.0, 2.0)));
        assert_eq!(lookup::<f64>(&[], 1.0), None);
    }

    /// A spec whose graph lacks `sensor_fusion`, so `ClosedLoop::new`
    /// fails right after validating the timing and allocates nothing.
    fn fusionless_spec(faults: &VehicleFaults, duration: f64) -> LoopSpec<'_> {
        use hcperf_taskgraph::{ExecModel, Priority, Stage, TaskSpec};
        let mut builder = TaskGraph::builder();
        builder.add_task(
            TaskSpec::builder("camera")
                .priority(Priority::new(1))
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .build()
                .unwrap(),
        );
        LoopSpec {
            scheme: Scheme::Edf,
            graph: Arc::new(builder.build().unwrap()),
            sim: sim_config(1, 0, &LoadProfile::constant(0.0)),
            dps: DpsConfig::default(),
            coordinator: CoordinatorConfig::default(),
            initial_rates: InitialRates::Fixed(10.0),
            duration,
            physics_dt: 0.005,
            control_period: 0.1,
            command_timeout: 0.3,
            faults,
            record_mode: false,
        }
    }

    #[test]
    fn a_graph_without_sensor_fusion_is_a_typed_error() {
        let faults = VehicleFaults::default();
        let err = ClosedLoop::<f64>::new(fusionless_spec(&faults, 1.0)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::MissingTask("sensor_fusion")),
            "{err}"
        );
    }

    #[test]
    fn horizons_past_the_step_bound_are_refused_before_any_allocation() {
        let faults = VehicleFaults::default();
        let at_bound = MAX_LOOP_STEPS as f64 * 0.005;
        for duration in [at_bound * 1.001, 1e12, f64::MAX] {
            let err = ClosedLoop::<f64>::new(fusionless_spec(&faults, duration)).unwrap_err();
            assert!(
                matches!(err, ScenarioError::InvalidParameter { name: "duration", value, .. } if value == duration),
                "{duration}: {err}"
            );
        }
        // The bound itself is accepted: the spec fails on its graph instead.
        let err = ClosedLoop::<f64>::new(fusionless_spec(&faults, at_bound)).unwrap_err();
        assert!(matches!(err, ScenarioError::MissingTask(_)), "{err}");
    }
}
