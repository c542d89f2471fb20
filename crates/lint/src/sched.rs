//! The schedulability audit: a build-time gate over every registered task
//! graph and scenario preset, at its reference operating point (`t = 0`,
//! the scenario's initial obstacle load). Every run starts there, so a
//! target that fails is misconfigured whatever the schedulers do:
//!
//! * **Eq. 9** — every task's scheduling deadline must be positive:
//!   `Dᵢ > cᵢᵐᵃˣ`, with `cᵢᵐᵃˣ` the execution model's worst case.
//! * **Eq. 11** — a critical-instant queue (one job of every task) must
//!   admit a non-empty feasible γ range on the configured cores. Eq. 11's
//!   `cᵢ` is the observed execution time, which starts at the model's
//!   nominal value, so the audit solves exactly the DPS's first-dispatch
//!   system, with the paper-literal `dps::reference::gamma_max` oracle in
//!   strict mode (the relaxed default drops doomed jobs and so can never
//!   report overload).
//!
//! Transient overload *inside* a scenario (obstacle spikes, fusion regime
//! steps) is the experiment itself, so the worst sampled transient margin
//! is reported as information, not as a gate.

use hcperf::dps::reference;
use hcperf::{DpsConfig, Scheme};
use hcperf_rtsim::{Job, JobId, SchedContext};
use hcperf_scenarios::{
    traffic_jam_config, CarFollowingConfig, LaneKeepingConfig, MotivationConfig,
};
use hcperf_taskgraph::graphs::{apollo_graph, motivation_graph, GraphOptions};
use hcperf_taskgraph::{ExecContext, GraphError, LoadProfile, SimSpan, SimTime, TaskGraph};

use crate::report::{exit, json_escape, json_opt_f64, tagged_finding_json, Section};

/// One graph/preset to audit.
#[derive(Debug)]
pub struct AuditTarget {
    /// Display name (`graphs::…` or `scenario::…`).
    pub name: String,
    /// The task graph, with any scenario regime steps applied.
    pub graph: TaskGraph,
    /// Core count the γ feasibility is checked on.
    pub processors: usize,
    /// Obstacle-count profile over the horizon.
    pub load: LoadProfile,
    /// Scenario horizon in seconds (0 for bare graphs).
    pub duration: f64,
    /// DPS configuration the preset runs with (γ ceiling, search).
    pub dps: DpsConfig,
}

/// Worst Eq. 9 margin over a target's tasks at one context.
#[derive(Debug, Clone)]
pub struct Eq9Worst {
    /// Task name.
    pub task: String,
    /// Relative deadline `Dᵢ` in ms.
    pub deadline_ms: f64,
    /// Worst-case execution `cᵢᵐᵃˣ` in ms.
    pub cmax_ms: f64,
}

impl Eq9Worst {
    /// `Dᵢ − cᵢᵐᵃˣ` in ms; must be positive.
    #[must_use]
    pub fn margin_ms(&self) -> f64 {
        self.deadline_ms - self.cmax_ms
    }
}

/// Audit outcome for one target.
#[derive(Debug)]
pub struct AuditResult {
    /// Target name.
    pub name: String,
    /// Core count audited on.
    pub processors: usize,
    /// Number of tasks in the graph.
    pub tasks: usize,
    /// Tightest Eq. 9 task at the reference context.
    pub eq9_worst: Eq9Worst,
    /// `γ_max` from the strict Eq. 11 oracle at the reference context
    /// (`None` = even γ = 0 infeasible → gate failure).
    pub gamma_max: Option<f64>,
    /// Tightest Eq. 9 margin (ms) seen anywhere on the sampled horizon.
    pub transient_min_margin_ms: f64,
    /// Time (s) of that tightest transient margin.
    pub transient_at_s: f64,
}

impl AuditResult {
    /// The gate: Eq. 9 positive and Eq. 11 non-empty at the reference
    /// operating point.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.eq9_worst.margin_ms() > 0.0 && self.gamma_max.is_some()
    }

    /// True when some sampled transient drives a task past Eq. 9 —
    /// expected for deliberately overloaded scenarios, reported as info.
    #[must_use]
    pub fn transient_overload(&self) -> bool {
        self.transient_min_margin_ms <= 0.0
    }
}

fn target(
    name: &str,
    graph: Result<TaskGraph, GraphError>,
    (processors, load, duration): (usize, &LoadProfile, f64),
    dps: DpsConfig,
) -> AuditTarget {
    AuditTarget {
        name: name.to_owned(),
        graph: graph.expect("builtin graphs are statically valid"),
        processors,
        load: load.clone(),
        duration,
        dps,
    }
}

/// Every graph registered in `taskgraph::graphs` plus every scenario
/// preset, exactly as the scenarios construct them.
#[must_use]
pub fn builtin_targets() -> Vec<AuditTarget> {
    let options = GraphOptions::default();
    let idle = (options.processors, &LoadProfile::constant(0.0), 0.0);
    let car = |name: &str, c: CarFollowingConfig| {
        let timing = (c.processors, &c.load, c.duration);
        target(&format!("scenario::{name}"), c.graph(), timing, c.dps)
    };
    let lk = LaneKeepingConfig::paper_loop(Scheme::HcPerf);
    let mv = MotivationConfig::default();
    vec![
        target(
            "graphs::motivation",
            motivation_graph(&options),
            idle,
            DpsConfig::default(),
        ),
        target(
            "graphs::apollo",
            apollo_graph(&options),
            idle,
            DpsConfig::default(),
        ),
        car(
            "car_following/paper_simulation",
            CarFollowingConfig::paper_simulation(Scheme::HcPerf),
        ),
        car(
            "car_following/hardware",
            CarFollowingConfig::hardware(Scheme::HcPerf),
        ),
        car("traffic_jam", traffic_jam_config(Scheme::HcPerf)),
        target(
            "scenario::lane_keeping/paper_loop",
            lk.graph(),
            (lk.processors, &lk.load, lk.duration),
            lk.dps,
        ),
        target(
            "scenario::motivation",
            mv.graph(),
            (mv.processors, &mv.load, mv.duration),
            DpsConfig::default(),
        ),
    ]
}

/// Tightest Eq. 9 task of `graph` at context `ctx`.
fn eq9_worst(graph: &TaskGraph, ctx: ExecContext) -> Eq9Worst {
    let mut worst: Option<(&str, f64, f64)> = None;
    for (_, spec) in graph.iter() {
        let mut cmax = spec.exec_model().worst_case(ctx);
        if let Some(gpu) = spec.gpu_model() {
            // GPU post-processing extends the task's occupancy of its
            // deadline window even though it frees the CPU.
            cmax += gpu.worst_case(ctx);
        }
        let (deadline_ms, cmax_ms) = (spec.relative_deadline().as_millis(), cmax.as_millis());
        if worst.is_none_or(|(_, d, c)| deadline_ms - cmax_ms < d - c) {
            worst = Some((spec.name(), deadline_ms, cmax_ms));
        }
    }
    let (task, deadline_ms, cmax_ms) = worst.expect("graphs are non-empty by construction");
    Eq9Worst {
        task: task.to_owned(),
        deadline_ms,
        cmax_ms,
    }
}

/// Strict Eq. 11 γ_max for a critical-instant queue of `graph` at `ctx`.
fn critical_instant_gamma(
    graph: &TaskGraph,
    processors: usize,
    ctx: ExecContext,
    dps: &DpsConfig,
) -> Option<f64> {
    let now = SimTime::ZERO;
    let mut queue = Vec::with_capacity(graph.len());
    let mut observed = vec![SimSpan::ZERO; graph.len()];
    for (id, spec) in graph.iter() {
        queue.push(Job::new(
            JobId::new(queue.len() as u64),
            id,
            0,
            now,
            spec.relative_deadline(),
            now,
        ));
        let mut c = spec.exec_model().nominal(ctx);
        if let Some(gpu) = spec.gpu_model() {
            c += gpu.nominal(ctx);
        }
        observed[id.index()] = c;
    }
    let candidates: Vec<usize> = (0..queue.len()).collect();
    let remaining = vec![SimSpan::ZERO; processors];
    let sched_ctx = SchedContext {
        now,
        graph,
        queue: &queue,
        candidates: &candidates,
        processor: 0,
        observed_exec: &observed,
        processor_remaining: &remaining,
    };
    let strict = DpsConfig {
        strict_eq11: true,
        ..*dps
    };
    reference::gamma_max(&sched_ctx, &strict)
}

/// Audits one target.
#[must_use]
pub fn audit(target: &AuditTarget) -> AuditResult {
    let ctx0 = ExecContext::new(SimTime::ZERO, target.load.at(SimTime::ZERO));
    let worst0 = eq9_worst(&target.graph, ctx0);
    let gamma = critical_instant_gamma(&target.graph, target.processors, ctx0, &target.dps);

    // Sample the horizon for the worst transient Eq. 9 margin (info only).
    let mut min_margin = worst0.margin_ms();
    let mut min_at = 0.0;
    let steps = (target.duration / 0.1).ceil() as usize;
    for k in 0..=steps {
        let t = SimTime::from_secs(0.1 * k as f64);
        let ctx = ExecContext::new(t, target.load.at(t));
        let w = eq9_worst(&target.graph, ctx);
        if w.margin_ms() < min_margin {
            min_margin = w.margin_ms();
            min_at = t.as_secs();
        }
    }

    AuditResult {
        name: target.name.clone(),
        processors: target.processors,
        tasks: target.graph.len(),
        eq9_worst: worst0,
        gamma_max: gamma,
        transient_min_margin_ms: min_margin,
        transient_at_s: min_at,
    }
}

/// Audits every builtin target.
#[must_use]
pub fn audit_all() -> Vec<AuditResult> {
    builtin_targets().iter().map(audit).collect()
}

/// Exit code for a set of audit results.
#[must_use]
pub fn exit_code(results: &[AuditResult]) -> i32 {
    if results.iter().all(AuditResult::ok) {
        exit::CLEAN
    } else {
        exit::SCHEDULABILITY
    }
}

/// Human rows of the audit, one per target plus transient notes.
fn human_rows(results: &[AuditResult]) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        let verdict = if r.ok() { "ok" } else { "FAIL" };
        out.push(format!(
            "{verdict:4} {} — {} tasks on {} cores: Eq.9 min margin {:.2} ms ({}), γ_max {}",
            r.name,
            r.tasks,
            r.processors,
            r.eq9_worst.margin_ms(),
            r.eq9_worst.task,
            r.gamma_max
                .map_or_else(|| "∅ (overloaded)".to_owned(), |g| format!("{g:.4}")),
        ));
        if r.transient_overload() {
            out.push(format!(
                "     note: designed transient overload — Eq.9 margin dips to {:.2} ms at t = {:.1} s",
                r.transient_min_margin_ms, r.transient_at_s
            ));
        }
    }
    out
}

/// Machine-readable findings for the audit, in the same
/// `rule`/`severity`/`target` schema as source findings: `sched-eq9`
/// (non-positive deadline margin) and `sched-eq11` (empty feasible γ
/// range) are errors that fail the gate; `sched-eq9-transient` (designed
/// overload somewhere on the horizon) is informational.
#[must_use]
pub fn findings_json(results: &[AuditResult]) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        let (worst, at) = (r.transient_min_margin_ms, r.transient_at_s);
        let checks = [
            (
                r.eq9_worst.margin_ms() <= 0.0,
                "sched-eq9",
                "error",
                format!(
                    "Eq. 9 margin is {:.2} ms for task `{}` at the reference operating point; \
                     deadlines must exceed worst-case execution",
                    r.eq9_worst.margin_ms(),
                    r.eq9_worst.task
                ),
            ),
            (
                r.gamma_max.is_none(),
                "sched-eq11",
                "error",
                format!(
                    "Eq. 11 admits no feasible γ on {} cores at the reference operating point",
                    r.processors
                ),
            ),
            (
                r.transient_overload(),
                "sched-eq9-transient",
                "info",
                format!("designed transient overload: Eq. 9 margin dips to {worst:.2} ms at t = {at:.1} s"),
            ),
        ];
        let fired = checks.iter().filter(|c| c.0);
        out.extend(
            fired.map(|(_, rule, severity, msg)| tagged_finding_json(rule, severity, &r.name, msg)),
        );
    }
    out
}

/// The `schedulability` section: every builtin target audited.
#[must_use]
pub fn section() -> Section {
    let results = audit_all();
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"processors\":{},\"tasks\":{},\"eq9_worst_task\":\"{}\",\"eq9_margin_ms\":{:.4},\"gamma_max\":{},\"transient_min_margin_ms\":{:.4},\"transient_at_s\":{:.1},\"ok\":{}}}",
                json_escape(&r.name),
                r.processors,
                r.tasks,
                json_escape(&r.eq9_worst.task),
                r.eq9_worst.margin_ms(),
                json_opt_f64(r.gamma_max),
                r.transient_min_margin_ms,
                r.transient_at_s,
                r.ok()
            )
        })
        .collect();
    let mut section = Section::new("schedulability", Vec::new(), Vec::new(), None);
    section.tagged = findings_json(&results);
    section.lines = human_rows(&results);
    let failed = results.iter().filter(|r| !r.ok()).count();
    section.lines.push(format!(
        "hcperf-lint schedulability: {}/{} targets feasible",
        results.len() - failed,
        results.len(),
    ));
    section.json = vec![format!("\"targets\":[{}]", rows.join(","))];
    section.exit_code = exit_code(&results);
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_targets_are_feasible() {
        let results = audit_all();
        assert_eq!(results.len(), 7);
        for r in &results {
            assert!(
                r.ok(),
                "{} infeasible: margin {:.3} ms, γ {:?}",
                r.name,
                r.eq9_worst.margin_ms(),
                r.gamma_max
            );
        }
        assert_eq!(exit_code(&results), exit::CLEAN);
    }

    #[test]
    fn traffic_jam_spike_is_reported_as_transient() {
        let results = audit_all();
        let jam = results
            .iter()
            .find(|r| r.name == "scenario::traffic_jam")
            .expect("traffic jam audited");
        // The § VII-C spike is a designed overload: fusion's worst case
        // exceeds its deadline while 14 obstacles are in view, but the
        // reference operating point stays feasible.
        assert!(jam.transient_overload());
        assert!(jam.ok());
    }

    #[test]
    fn an_impossible_deadline_fails_the_gate() {
        use hcperf_taskgraph::{ExecModel, Priority, Stage, TaskGraph, TaskSpec};
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("doomed")
                .priority(Priority::new(1))
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(10.0)))
                .relative_deadline(SimSpan::from_millis(5.0))
                .build()
                .expect("valid spec"),
        );
        let target = AuditTarget {
            name: "synthetic::doomed".to_owned(),
            graph: b.build().expect("valid graph"),
            processors: 1,
            load: LoadProfile::constant(0.0),
            duration: 0.0,
            dps: DpsConfig::default(),
        };
        let r = audit(&target);
        assert!(!r.ok());
        assert!(r.eq9_worst.margin_ms() < 0.0);
        assert!(r.gamma_max.is_none());
        let findings = findings_json(std::slice::from_ref(&r));
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].contains("\"rule\":\"sched-eq9\""));
        assert!(findings[0].contains("\"severity\":\"error\""));
        assert!(findings[0].contains("\"target\":\"synthetic::doomed\""));
        assert!(findings[1].contains("\"rule\":\"sched-eq11\""));
        assert!(findings[2].contains("\"rule\":\"sched-eq9-transient\""));
        assert!(findings[2].contains("\"severity\":\"info\""));
        assert_eq!(exit_code(&[r]), exit::SCHEDULABILITY);
    }

    #[test]
    fn feasible_targets_emit_only_transient_info_findings() {
        let results = audit_all();
        for f in findings_json(&results) {
            assert!(
                f.contains("\"rule\":\"sched-eq9-transient\"")
                    && f.contains("\"severity\":\"info\""),
                "unexpected error finding on a builtin target: {f}"
            );
        }
    }
}
