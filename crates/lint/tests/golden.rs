//! Golden pin of what `hcperf-lint` reports on the real workspace, one
//! section per analysis: the source rules, hot-path purity, Eq. coverage,
//! WCET certificates, det-flow sinks and the schedulability audit.
//!
//! [`report`] runs the one `--json` pass; [`digest`] flattens the
//! facts that matter into one line each (findings, waived sites, roots,
//! reachable count, certificates, sinks, equation rows, audit targets)
//! and the test compares that text with [`PINNED`]. A deliberate change
//! to any of these facts updates [`PINNED`] in the same commit.

use std::process::Command;

use serde_json::Value;

/// The one-pass `--json` report on the real workspace.
fn report() -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .arg("--json")
        .output()
        .expect("spawn hcperf-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    serde_json::from_str(&String::from_utf8(out.stdout).expect("utf8")).expect("valid JSON")
}

fn s(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(n) => format!("{n}"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_owned(),
        other => panic!("not a scalar: {other:?}"),
    }
}

fn fields(v: &Value, keys: &[&str]) -> String {
    let parts: Vec<String> = keys.iter().map(|k| format!("{k}={}", s(&v[*k]))).collect();
    parts.join(" ")
}

fn items(v: &Value) -> &[Value] {
    v.as_array().map_or(&[], Vec::as_slice)
}

/// One line per finding and waived site, then the ratchet delta counts.
fn findings(out: &mut Vec<String>, label: &str, section: &Value) {
    for key in ["findings", "waived"] {
        for f in items(&section[key]) {
            let mut line = format!(
                "{label} {key} {} {}:{}",
                s(&f["rule"]),
                s(&f["path"]),
                s(&f["line"])
            );
            if let Some(reason) = f["waived"].as_str() {
                line.push_str(&format!(" ({reason})"));
            }
            for hop in items(&f["chain"]) {
                line.push_str(&format!(" -> {}:{}", s(&hop["path"]), s(&hop["line"])));
            }
            out.push(line);
        }
    }
    if !section["ratchet"].is_null() {
        let len = |k: &str| items(&section["ratchet"][k]).len();
        out.push(format!(
            "{label} ratchet growth={} shrink={}",
            len("growth"),
            len("shrink")
        ));
    }
}

/// One line per pinned fact, section by section.
fn digest(doc: &Value) -> String {
    let mut out = Vec::new();
    let rows = |out: &mut Vec<String>, label: &str, list: &Value, keys: &[&str]| {
        out.extend(
            items(list)
                .iter()
                .map(|e| format!("{label} {}", fields(e, keys))),
        );
    };
    findings(&mut out, "source", &doc["source"]);

    let hot = &doc["hot_path"];
    out.extend(
        items(&hot["roots"])
            .iter()
            .map(|r| format!("hot-path root {}", s(r))),
    );
    out.push(format!("hot-path reachable {}", s(&hot["reachable_fns"])));
    findings(&mut out, "hot-path", hot);

    let eqs = &doc["eq_coverage"];
    let required = items(&eqs["equations"])
        .iter()
        .filter(|e| (2..=12).contains(&e["eq"].as_u64().expect("eq number")));
    out.extend(required.map(|e| {
        format!(
            "eq {}",
            fields(e, &["eq", "impl_sites", "test_sites", "ok"])
        )
    }));
    findings(&mut out, "eq-coverage", eqs);

    let wcet = &doc["wcet"];
    rows(
        &mut out,
        "wcet cert",
        &wcet["certificates"],
        &["root", "cost", "path"],
    );
    let loops = fields(
        &wcet["loops"],
        &["constant", "input_bounded", "waived", "unbounded"],
    );
    out.push(format!(
        "wcet reachable={} {loops}",
        s(&wcet["reachable_fns"])
    ));
    findings(&mut out, "wcet", wcet);

    let det = &doc["det_flow"];
    let keys = ["sink", "fn", "path", "line", "taints", "status"];
    rows(&mut out, "det-flow sink", &det["sinks"], &keys);
    out.push(format!("det-flow flows {}", s(&det["flows"])));
    findings(&mut out, "det-flow", det);

    let sched = &doc["schedulability"];
    let keys = [
        "name",
        "processors",
        "tasks",
        "eq9_worst_task",
        "eq9_margin_ms",
        "gamma_max",
        "transient_min_margin_ms",
        "transient_at_s",
        "ok",
    ];
    rows(&mut out, "schedulability target", &sched["targets"], &keys);
    let keys = ["rule", "severity", "target", "message"];
    rows(
        &mut out,
        "schedulability finding",
        &sched["findings"],
        &keys,
    );
    out.join("\n") + "\n"
}

const PINNED: &str = r#"source waived float-eq crates/control/src/filter.rs:68 (τ = 0 is a configured pass-through sentinel, never a computed value)
source waived float-eq crates/vehicle/src/sensor.rs:62 (σ = 0 is the configured noise-free mode, never a computed value)
source waived float-eq crates/vehicle/src/track.rs:85 (curvature is exactly 0.0 on straights by construction of the oval)
source waived float-eq crates/core/src/rate_adapter.rs:179 (the zero-miss bonus applies only to an exact 0/n window count)
source ratchet growth=0 shrink=0
hot-path root FifoScheduler::select
hot-path root Sim::try_dispatch
hot-path root GammaScratch::rank
hot-path root GammaScratch::feasible
hot-path root DynamicPriorityScheduler::gamma_max_cached
hot-path root gamma_max
hot-path root PerformanceDirectedController::step
hot-path reachable 140
hot-path ratchet growth=0 shrink=0
eq eq=2 impl_sites=2 test_sites=1 ok=true
eq eq=3 impl_sites=4 test_sites=1 ok=true
eq eq=4 impl_sites=2 test_sites=1 ok=true
eq eq=5 impl_sites=4 test_sites=1 ok=true
eq eq=6 impl_sites=4 test_sites=1 ok=true
eq eq=7 impl_sites=1 test_sites=1 ok=true
eq eq=8 impl_sites=1 test_sites=1 ok=true
eq eq=9 impl_sites=1 test_sites=1 ok=true
eq eq=10 impl_sites=5 test_sites=1 ok=true
eq eq=11 impl_sites=9 test_sites=2 ok=true
eq eq=12 impl_sites=4 test_sites=2 ok=true
wcet cert root=DynamicPriorityScheduler::gamma_max_cached cost=O(n^3) path=crates/core/src/dps.rs
wcet cert root=FifoScheduler::select cost=O(n) path=crates/rtsim/src/scheduler.rs
wcet cert root=GammaScratch::feasible cost=O(n) path=crates/core/src/dps.rs
wcet cert root=GammaScratch::rank cost=O(n^2) path=crates/core/src/dps.rs
wcet cert root=PerformanceDirectedController::step cost=O(n) path=crates/core/src/pdc.rs
wcet cert root=Sim::try_dispatch cost=O(n^5) path=crates/rtsim/src/sim.rs
wcet cert root=gamma_max cost=O(n^3) path=crates/core/src/dps.rs
wcet reachable=140 constant=0 input_bounded=23 waived=1 unbounded=0
wcet waived wcet-unbounded crates/rtsim/src/sim.rs:811 (each pass either places a ready job on an idle core or exits; bounded by min(queue depth, processors) passes)
wcet ratchet growth=0 shrink=0
det-flow sink sink=cli-stdout fn=main path=crates/cli/src/bin/hcperf.rs line=6 taints=0 status=clean
det-flow sink sink=fig04-stdout fn=main path=crates/bench/src/bin/fig04_motivation.rs line=3 taints=0 status=clean
det-flow sink sink=fig13-stdout fn=main path=crates/bench/src/bin/fig13_car_following.rs line=3 taints=0 status=clean
det-flow sink sink=fig14-stdout fn=main path=crates/bench/src/bin/fig14_lane_keeping.rs line=3 taints=0 status=clean
det-flow sink sink=fig15-stdout fn=main path=crates/bench/src/bin/fig15_hardware.rs line=3 taints=0 status=clean
det-flow sink sink=fig18-stdout fn=main path=crates/bench/src/bin/fig18_ablation.rs line=3 taints=0 status=clean
det-flow sink sink=fleet-jsonl fn=FleetSink::record path=crates/scenarios/src/fleet.rs line=379 taints=0 status=clean
det-flow sink sink=harness-jsonl fn=JsonlSink::record path=crates/harness/src/sink.rs line=128 taints=0 status=clean
det-flow sink sink=seed-derivation fn=derive_seed path=crates/harness/src/seed.rs line=43 taints=0 status=clean
det-flow sink sink=store-append fn=Store::append path=crates/store/src/store.rs line=280 taints=0 status=clean
det-flow sink sink=store-cell-id fn=cell_id path=crates/store/src/hash.rs line=58 taints=0 status=clean
det-flow sink sink=store-fingerprint fn=fingerprint path=crates/store/src/hash.rs line=42 taints=0 status=clean
det-flow flows 0
det-flow waived det-flow crates/bench/src/lib.rs:45 (worker count changes wall time only; results are bit-identical for any value)
det-flow waived det-flow crates/bench/src/lib.rs:72 (store location selects where bytes land, never what they are)
det-flow waived det-flow crates/harness/src/pool.rs:392 (membership-only duplicate check; iteration order never observed)
det-flow waived det-flow crates/harness/src/pool.rs:461 (wall time feeds only the documented-nondeterministic wall_ms field)
det-flow waived det-flow crates/harness/src/pool.rs:482 (wall_ms is the one documented-nondeterministic output field)
det-flow ratchet growth=0 shrink=0
schedulability target name=graphs::motivation processors=4 tasks=8 eq9_worst_task=control eq9_margin_ms=25.6 gamma_max=0.2 transient_min_margin_ms=25.6 transient_at_s=0 ok=true
schedulability target name=graphs::apollo processors=4 tasks=23 eq9_worst_task=chassis_command eq9_margin_ms=22.8 gamma_max=0.0025 transient_min_margin_ms=22.8 transient_at_s=0 ok=true
schedulability target name=scenario::car_following/paper_simulation processors=4 tasks=23 eq9_worst_task=sensor_fusion eq9_margin_ms=19.29 gamma_max=0.0025 transient_min_margin_ms=9.21 transient_at_s=12 ok=true
schedulability target name=scenario::car_following/hardware processors=4 tasks=23 eq9_worst_task=chassis_command eq9_margin_ms=22.7 gamma_max=0.0025 transient_min_margin_ms=4.865 transient_at_s=5 ok=true
schedulability target name=scenario::traffic_jam processors=4 tasks=23 eq9_worst_task=chassis_command eq9_margin_ms=22.8 gamma_max=0.0025 transient_min_margin_ms=-15.43 transient_at_s=10 ok=true
schedulability target name=scenario::lane_keeping/paper_loop processors=4 tasks=23 eq9_worst_task=chassis_command eq9_margin_ms=22.8 gamma_max=0.0025 transient_min_margin_ms=19.45 transient_at_s=20 ok=true
schedulability target name=scenario::motivation processors=2 tasks=8 eq9_worst_task=control eq9_margin_ms=25.6 gamma_max=0.2 transient_min_margin_ms=23.916 transient_at_s=12 ok=true
schedulability finding rule=sched-eq9-transient severity=info target=scenario::traffic_jam message=designed transient overload: Eq. 9 margin dips to -15.43 ms at t = 10.0 s
"#;

#[test]
fn one_report_reproduces_every_pinned_section() {
    let got = digest(&report());
    let missing: Vec<&str> = PINNED
        .lines()
        .filter(|p| !got.lines().any(|l| l == *p))
        .collect();
    let extra: Vec<&str> = got
        .lines()
        .filter(|l| !PINNED.lines().any(|p| p == *l))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty() && got == PINNED,
        "lint report drifted from the golden pin\nmissing: {missing:#?}\nunexpected: {extra:#?}"
    );
}
