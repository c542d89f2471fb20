//! Integration tests: fixture files for every rule, waiver handling, the
//! `--json` shape, ratchet growth/shrink, per-section and process exit
//! codes, and a clean run against the real workspace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use hcperf_lint::report::{exit, Rule};
use hcperf_lint::rules::{scan_file, FileScan, RuleSet};
use hcperf_lint::workspace::{DETERMINISTIC_CRATES, RATCHET_ONLY_ROOTS, WALL_CLOCK_ONLY_ROOTS};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan_fixture(name: &str) -> FileScan {
    scan_file(name, &fixture(name), RuleSet::FULL)
}

fn rules_of(findings: &[hcperf_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    let s = scan_fixture("clean.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert!(s.waived.is_empty());
    assert_eq!(s.unwrap_count, 0);
}

#[test]
fn wall_clock_fixture_positive_and_waived() {
    let s = scan_fixture("wall_clock_hit.rs");
    let r = rules_of(&s.findings);
    assert!(r.len() >= 3, "Instant, thread::sleep, SystemTime: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::WallClock));

    let s = scan_fixture("wall_clock_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 2);
    assert!(s.waived.iter().all(|f| f.waived.is_some()));
}

#[test]
fn unordered_fixture_positive_and_waived() {
    let s = scan_fixture("unordered_hit.rs");
    let r = rules_of(&s.findings);
    assert!(r.len() >= 4, "imports + constructions: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::UnorderedIteration));

    let s = scan_fixture("unordered_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn entropy_fixture_positive_and_waived() {
    let s = scan_fixture("entropy_hit.rs");
    let r = rules_of(&s.findings);
    assert_eq!(r.len(), 3, "thread_rng, from_entropy, RandomState: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::Entropy));

    let s = scan_fixture("entropy_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn float_eq_fixture_positive_and_waived() {
    let s = scan_fixture("float_eq_hit.rs");
    let r = rules_of(&s.findings);
    assert_eq!(r.len(), 3, "literal ==, literal !=, accessor ==: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::FloatEq));

    let s = scan_fixture("float_eq_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn unwrap_fixture_counts_library_code_only() {
    let s = scan_fixture("unwraps.rs");
    // Three countable sites; the waived one and the test-module one do not
    // count.
    assert_eq!(s.unwrap_count, 3);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
}

#[test]
fn malformed_waiver_fixture_is_flagged() {
    let s = scan_fixture("waiver_malformed.rs");
    let r = rules_of(&s.findings);
    assert!(r.contains(&Rule::WaiverSyntax), "{r:?}");
    // The float-eq underneath is NOT suppressed by a malformed waiver.
    assert!(r.contains(&Rule::FloatEq), "{r:?}");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: exit codes and --json shape on synthetic workspaces.
// ---------------------------------------------------------------------------

/// Builds a minimal valid workspace the binary can scan: every required
/// tree with an empty `lib.rs`. `files` maps workspace-relative paths to
/// contents; `ratchet` is the text of `crates/lint/ratchet.txt`.
fn mini_workspace(tag: &str, files: &[(&str, &str)], ratchet: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hcperf-lint-{}-{tag}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean stale fixture root");
    }
    let trees = DETERMINISTIC_CRATES.iter().chain(&WALL_CLOCK_ONLY_ROOTS);
    for dir in trees.chain(&RATCHET_ONLY_ROOTS) {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
        fs::write(root.join(dir).join("lib.rs"), "// empty\n").expect("seed lib.rs");
    }
    for (rel, text) in files {
        fs::write(root.join(rel), text).expect("write fixture file");
    }
    fs::write(root.join("crates/lint/ratchet.txt"), ratchet).expect("write ratchet");
    root
}

/// `v` as an array, or a panic naming it.
fn arr(v: &serde_json::Value) -> &Vec<serde_json::Value> {
    v.as_array()
        .unwrap_or_else(|| panic!("not an array: {v:?}"))
}

fn parse_json(out: &Output) -> serde_json::Value {
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    serde_json::from_str(&text).expect("binary emits valid JSON")
}

fn run_lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("spawn hcperf-lint")
}

/// Runs the binary on `root`, asserting its process exit code.
fn lint(root: &Path, args: &[&str], code: i32) -> Output {
    let out = run_lint(root, args);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
    out
}

/// The `--json` report of a run that exits with `code`.
fn lint_json(root: &Path, code: i32) -> serde_json::Value {
    parse_json(&lint(root, &["--json"], code))
}

const SECTIONS: [&str; 4] = ["source", "hot_path", "det_flow", "schedulability"];

/// Each section's own exit code, in report order.
fn section_codes(doc: &serde_json::Value) -> Vec<Option<f64>> {
    SECTIONS
        .iter()
        .map(|s| doc[*s]["exit_code"].as_f64())
        .collect()
}

fn code(c: i32) -> Option<f64> {
    Some(f64::from(c))
}

#[test]
fn binary_clean_workspace_exits_zero() {
    let root = mini_workspace("clean", &[], "");
    lint(&root, &[], exit::CLEAN);
    let doc = parse_json(&run_lint(&root, &["--json"]));
    assert_eq!(section_codes(&doc), vec![code(exit::CLEAN); 4]);
}

#[test]
fn binary_findings_exit_one_with_json_shape() {
    let root = mini_workspace(
        "dirty",
        &[(
            "crates/rtsim/src/bad.rs",
            "use std::collections::HashMap;\npub fn t() { std::thread::sleep(d); }\n",
        )],
        "",
    );
    let doc = lint_json(&root, exit::FINDINGS);
    assert_eq!(doc["schema_version"].as_f64(), Some(4.0));
    assert_eq!(doc["exit_code"].as_f64(), code(exit::FINDINGS));
    // Every section is always present, each with its own exit code.
    let codes = section_codes(&doc);
    assert_eq!(codes[0], code(exit::FINDINGS));
    assert!(
        codes[1..].iter().all(|c| *c == code(exit::CLEAN)),
        "{codes:?}"
    );
    let findings = arr(&doc["source"]["findings"]);
    assert_eq!(findings.len(), 2);
    for f in findings {
        for key in ["rule", "path", "line", "snippet", "message"] {
            assert!(!f[key].is_null(), "finding missing {key}: {f:?}");
        }
    }
    let rules: Vec<&str> = findings.iter().filter_map(|f| f["rule"].as_str()).collect();
    assert!(rules.contains(&"unordered-iteration"), "{rules:?}");
    assert!(rules.contains(&"wall-clock"), "{rules:?}");
}

#[test]
fn binary_ratchet_growth_exits_two_and_shrink_passes() {
    let unwrapping = "pub fn f(a: Option<u32>) -> u32 { a.unwrap() }\n";
    // The ratchet allows zero: one unwrap is growth.
    let root = mini_workspace(
        "ratchet-grow",
        &[("crates/core/src/bad.rs", unwrapping)],
        "",
    );
    let doc = lint_json(&root, exit::RATCHET);
    assert_eq!(doc["source"]["exit_code"].as_f64(), code(exit::RATCHET));
    let growth = arr(&doc["source"]["ratchet"]["growth"]);
    assert_eq!(growth.len(), 1);
    assert_eq!(growth[0]["path"].as_str(), Some("crates/core/src/bad.rs"));
    assert_eq!(growth[0]["current"].as_f64(), Some(1.0));

    // The ratchet allows five: one unwrap is shrink, which passes.
    let root = mini_workspace(
        "ratchet-shrink",
        &[("crates/core/src/bad.rs", unwrapping)],
        "unwrap\tunwrap-ratchet\t5\tcrates/core/src/bad.rs\n",
    );
    let doc = lint_json(&root, exit::CLEAN);
    let shrink = arr(&doc["source"]["ratchet"]["shrink"]);
    assert_eq!(shrink.len(), 1);
    assert_eq!(shrink[0]["baseline"].as_f64(), Some(5.0));
}

#[test]
fn binary_missing_baseline_is_usage_error() {
    let root = mini_workspace("no-baseline", &[], "");
    fs::remove_file(root.join("crates/lint/ratchet.txt")).expect("remove ratchet");
    lint(&root, &[], exit::USAGE);
}

#[test]
fn binary_update_baseline_round_trips() {
    let root = mini_workspace(
        "update",
        &[(
            "crates/vehicle/src/two.rs",
            "pub fn f(a: Option<u32>) -> u32 { a.unwrap() + a.expect(\"x\") }\n",
        )],
        "",
    );
    lint(&root, &[], exit::RATCHET);
    lint(&root, &["--update-baselines"], exit::CLEAN);
    let ratchet = fs::read_to_string(root.join("crates/lint/ratchet.txt")).expect("ratchet");
    assert!(
        ratchet.contains("unwrap\tunwrap-ratchet\t2\tcrates/vehicle/src/two.rs"),
        "{ratchet}"
    );
    // And the freshly recorded state now passes.
    lint(&root, &[], exit::CLEAN);
}

#[test]
fn binary_rejects_unknown_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn hcperf-lint");
    assert_eq!(out.status.code(), Some(exit::USAGE));
}

#[test]
fn binary_update_baselines_rejects_other_modes() {
    // The per-analysis mode flags are gone: every run is the one pass.
    let root = mini_workspace("baselines-usage", &[], "");
    for flag in [
        "--hot-path",
        "--eq-coverage",
        "--wcet",
        "--det-flow",
        "--schedulability",
        "--update-baseline",
    ] {
        for args in [vec![flag], vec!["--update-baselines", flag]] {
            let out = run_lint(&root, &args);
            assert_eq!(out.status.code(), Some(exit::USAGE), "{args:?}: {out:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Binary end-to-end: the call-graph-aware sections.
// ---------------------------------------------------------------------------

/// The declared roots of a report.
fn roots(doc: &serde_json::Value) -> Vec<&str> {
    let roots = arr(&doc["hot_path"]["roots"]);
    roots.iter().filter_map(|r| r.as_str()).collect()
}

#[test]
fn binary_hot_path_alloc_in_reachable_fn_fails_with_exact_line() {
    // The allocation is NOT in the root itself: it must be found through
    // the call-graph edge root_fn -> helper.
    let root = mini_workspace(
        "hotpath-alloc",
        &[(
            "crates/core/src/hot.rs",
            "// hcperf-lint: hot-path-root\n\
             pub fn root_fn(n: usize) -> usize {\n    helper(n)\n}\n\
             fn helper(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n",
        )],
        "",
    );
    let doc = lint_json(&root, exit::RATCHET);
    assert_eq!(roots(&doc), vec!["root_fn"]);
    assert_eq!(doc["hot_path"]["exit_code"].as_f64(), code(exit::RATCHET));
    let findings = arr(&doc["hot_path"]["findings"]);
    let alloc: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("hot-path-alloc"))
        .collect();
    assert_eq!(alloc.len(), 1, "{findings:?}");
    assert_eq!(alloc[0]["path"].as_str(), Some("crates/core/src/hot.rs"));
    assert_eq!(alloc[0]["line"].as_f64(), Some(6.0), "`vec![0u8; n]` line");
}

#[test]
fn binary_hot_path_alloc_outside_reachable_set_is_ignored() {
    // Same allocation, but no root marker on it: nothing is reachable, so
    // the site does not count and the run is clean.
    let root = mini_workspace(
        "hotpath-cold",
        &[(
            "crates/core/src/cold.rs",
            "pub fn cold(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n",
        )],
        "",
    );
    let doc = lint_json(&root, exit::CLEAN);
    assert_eq!(doc["hot_path"]["reachable_fns"].as_f64(), Some(0.0));
}

#[test]
fn binary_exit_code_follows_cross_section_precedence() {
    // Hot-path growth (2) and an unordered container (1): findings win.
    let files = [
        (
            "crates/core/src/hot.rs",
            "// hcperf-lint: hot-path-root\npub fn root_fn() -> Vec<u8> {\n    Vec::new()\n}\n",
        ),
        (
            "crates/rtsim/src/bad.rs",
            "use std::collections::HashMap;\npub fn q() {}\n",
        ),
    ];
    let root = mini_workspace("precedence", &files, "");
    let doc = lint_json(&root, exit::FINDINGS);
    let codes = section_codes(&doc);
    assert_eq!(codes[0], code(exit::FINDINGS), "source: {codes:?}");
    assert_eq!(codes[1], code(exit::RATCHET), "hot_path: {codes:?}");
    assert_eq!(doc["exit_code"].as_f64(), code(exit::FINDINGS));
}

#[test]
fn binary_hot_path_blocking_fails_with_exact_line_and_annotation() {
    // The channel wait sits in a helper the root calls: a finding of its own,
    // not a ratchet row, so the section fails with exit 1.
    let root = mini_workspace(
        "hotpath-blocking",
        &[(
            "crates/core/src/hot.rs",
            "// hcperf-lint: hot-path-root\n\
             pub fn root_fn() {\n    helper();\n}\n\
             fn helper() {\n    let _ = INBOX.recv();\n}\n",
        )],
        "",
    );
    let doc = lint_json(&root, exit::FINDINGS);
    let hot = &doc["hot_path"];
    assert_eq!(hot["exit_code"].as_f64(), code(exit::FINDINGS));
    assert!(arr(&hot["ratchet"]["growth"]).is_empty());
    let findings = arr(&hot["findings"]);
    let blocking: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("hot-path-blocking"))
        .collect();
    assert_eq!(blocking.len(), 1, "{findings:?}");
    assert_eq!(blocking[0]["line"].as_f64(), Some(6.0), "the recv's line");

    let out = run_lint(&root, &["--annotations"]);
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    let want = "::error file=crates/core/src/hot.rs,line=6,title=hcperf-lint hot-path-blocking::";
    assert!(text.contains(want), "{text}");

    // A waiver with a reason demotes it, under the same syntax as ever.
    let waived = "// hcperf-lint: hot-path-root\n\
         pub fn root_fn() {\n    helper();\n}\n\
         fn helper() {\n    // hcperf-lint: allow(hot-path-blocking): test pause\n    \
         let _ = INBOX.recv();\n}\n";
    fs::write(root.join("crates/core/src/hot.rs"), waived).expect("rewrite hot.rs");
    let doc = lint_json(&root, exit::CLEAN);
    assert_eq!(arr(&doc["hot_path"]["waived"]).len(), 1);
}

// ---------------------------------------------------------------------------
// Binary end-to-end: det-flow certificates and the taint-chain report.
// ---------------------------------------------------------------------------

/// A HashMap source two calls away from a declared det-sink: the taint
/// must travel gather -> shape -> emit and the finding must spell out
/// every hop with exact lines.
const TAINTED_FLOW: &str = "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m = HashMap::new();
    m.values().copied().collect()
}
fn shape() -> Vec<u32> {
    gather()
}
// hcperf-lint: det-sink(test-out): output bytes feed checked-in expectations
fn emit() {
    let v = shape();
    drop(v);
}
";

#[test]
fn binary_det_flow_taint_through_helper_trips_ratchet_with_chain() {
    let root = mini_workspace(
        "detflow-taint",
        &[("crates/core/src/flow.rs", TAINTED_FLOW)],
        "",
    );
    // The lexical unordered-iteration rule fires on the same HashMap in
    // the source section, and findings outrank the det-flow growth.
    let doc = lint_json(&root, exit::FINDINGS);
    assert_eq!(doc["source"]["exit_code"].as_f64(), code(exit::FINDINGS));
    assert_eq!(doc["schema_version"].as_f64(), Some(4.0));
    let det = &doc["det_flow"];
    assert_eq!(det["exit_code"].as_f64(), code(exit::RATCHET));
    let sinks = arr(&det["sinks"]);
    assert_eq!(sinks.len(), 1, "{sinks:?}");
    assert_eq!(sinks[0]["sink"].as_str(), Some("test-out"));
    assert_eq!(sinks[0]["status"].as_str(), Some("tainted:1"));
    let growth = arr(&det["ratchet"]["growth"]);
    assert_eq!(growth.len(), 1, "{growth:?}");

    // The finding anchors at the sink declaration and carries the full
    // interprocedural chain: source -> returned-through -> passed-into ->
    // sink, each hop with its exact line.
    let findings = arr(&det["findings"]);
    let flows: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("det-flow"))
        .collect();
    assert_eq!(flows.len(), 1, "{findings:?}");
    assert_eq!(flows[0]["path"].as_str(), Some("crates/core/src/flow.rs"));
    assert_eq!(flows[0]["line"].as_f64(), Some(10.0), "sink `fn emit` line");
    let msg = flows[0]["message"].as_str().expect("message");
    assert!(msg.contains("crates/core/src/flow.rs:3"), "{msg}");
    assert!(msg.contains("nothing (new sink)"), "{msg}");
    let chain = arr(&flows[0]["chain"]);
    let hops: Vec<(Option<f64>, &str)> = chain
        .iter()
        .map(|h| (h["line"].as_f64(), h["what"].as_str().unwrap_or("")))
        .collect();
    // HashMap source, gather() in shape, shape() in emit, sink declaration.
    let want = [
        (3.0, "HashMap"),
        (7.0, "returned through `gather`"),
        (11.0, ""),
        (10.0, "det-sink(test-out)"),
    ];
    assert_eq!(hops.len(), want.len(), "{chain:?}");
    for ((line, what), (want_line, want_what)) in hops.iter().zip(want) {
        assert_eq!(*line, Some(want_line), "{chain:?}");
        assert!(what.contains(want_what), "{chain:?}");
    }

    // The annotation anchors ::error at the sink line and appends the
    // chain to the message so the hops survive into the CI log.
    let out = run_lint(&root, &["--annotations"]);
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    assert!(
        text.contains("::error file=crates/core/src/flow.rs,line=10,title=hcperf-lint det-flow::"),
        "{text}"
    );
    assert!(text.contains("flow: crates/core/src/flow.rs:3"), "{text}");
}

#[test]
fn binary_update_baselines_clears_dirty_certificates_in_one_run() {
    // The recorded certificate says the sink is clean; the code now
    // taints it. In the harness tree no lexical source rule fires, so the
    // certificate growth alone decides: exit 2. One --update-baselines
    // run re-records it, and the follow-up run is clean again.
    let root = mini_workspace(
        "detflow-refresh",
        &[("crates/harness/src/flow.rs", TAINTED_FLOW)],
        "det-flow\ttest-out\tclean\tcrates/harness/src/flow.rs\n",
    );
    lint(&root, &[], exit::RATCHET);

    lint(&root, &["--update-baselines"], exit::CLEAN);
    let ratchet = fs::read_to_string(root.join("crates/lint/ratchet.txt")).expect("ratchet");
    assert!(
        ratchet.contains("det-flow\ttest-out\ttainted:1\tcrates/harness/src/flow.rs"),
        "{ratchet}"
    );

    let doc = lint_json(&root, exit::CLEAN);
    let growth = arr(&doc["det_flow"]["ratchet"]["growth"]);
    assert!(growth.is_empty(), "{growth:?}");
}

#[test]
fn binary_det_flow_sanitized_workspace_is_clean_and_update_writes_certs() {
    // Same flow, but shape() rebuilds through a sort before the sink:
    // the sanitizer kills the taint and the sink certifies clean.
    let sanitized = TAINTED_FLOW.replace(
        "fn shape() -> Vec<u32> {\n    gather()\n}",
        "fn shape() -> Vec<u32> {\n    let mut v = gather();\n    v.sort_unstable();\n    v\n}",
    );
    let root = mini_workspace(
        "detflow-sanitized",
        &[("crates/core/src/flow.rs", &sanitized)],
        "",
    );
    // The lexical HashMap findings still gate the run (section `source`);
    // the det-flow section is what this fixture is about.
    let out = lint(&root, &["--update-baselines", "--json"], exit::FINDINGS);
    assert_eq!(
        parse_json(&out)["det_flow"]["exit_code"].as_f64(),
        code(exit::CLEAN)
    );
    let ratchet = fs::read_to_string(root.join("crates/lint/ratchet.txt")).expect("ratchet");
    assert!(
        ratchet.contains("det-flow\ttest-out\tclean\tcrates/core/src/flow.rs"),
        "{ratchet}"
    );
    let doc = parse_json(&run_lint(&root, &["--json"]));
    assert_eq!(doc["det_flow"]["exit_code"].as_f64(), code(exit::CLEAN));
    assert_eq!(
        doc["det_flow"]["sinks"][0]["status"].as_str(),
        Some("clean")
    );
    assert_eq!(doc["det_flow"]["flows"].as_f64(), Some(0.0));
}

// ---------------------------------------------------------------------------
// The real workspace: every section must be clean (this is the CI gate).
// ---------------------------------------------------------------------------

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// The one-pass `--json` report on the real workspace, run once.
fn real_report() -> &'static serde_json::Value {
    static REPORT: OnceLock<serde_json::Value> = OnceLock::new();
    REPORT.get_or_init(|| {
        let out = run_lint(&real_root(), &["--json"]);
        let doc = parse_json(&out);
        assert_eq!(
            out.status.code(),
            Some(exit::CLEAN),
            "workspace must lint clean; section codes {:?}",
            section_codes(&doc)
        );
        doc
    })
}

/// A real-workspace section, asserted clean.
fn real_section(name: &str) -> &'static serde_json::Value {
    let section = &real_report()[name];
    assert_eq!(
        section["exit_code"].as_f64(),
        code(exit::CLEAN),
        "{name} must be clean: findings {:?}, ratchet {:?}",
        section["findings"],
        section["ratchet"]
    );
    section
}

#[test]
fn real_workspace_source_lint_is_clean() {
    let source = real_section("source");
    // The four reviewed float sentinels stay waived, not silently dropped.
    let waived = arr(&source["waived"]);
    assert!(waived.len() >= 4, "{waived:?}");
}

#[test]
fn real_workspace_schedulability_audit_is_clean() {
    let sched = real_section("schedulability");
    let targets = arr(&sched["targets"]);
    assert_eq!(targets.len(), 7, "two graphs + five scenario presets");
    for t in targets {
        assert_eq!(t["ok"].as_bool(), Some(true), "{t:?}");
        assert!(t["gamma_max"].as_f64().is_some(), "{t:?}");
    }
    // Schedulability findings share the source-finding shape: rule id,
    // severity, and the audited target as the finding's target key. On a
    // feasible workspace only informational transients may appear.
    let findings = arr(&sched["findings"]);
    let target_names: Vec<&str> = targets.iter().filter_map(|t| t["name"].as_str()).collect();
    for f in findings {
        assert_eq!(f["rule"].as_str(), Some("sched-eq9-transient"), "{f:?}");
        assert_eq!(f["severity"].as_str(), Some("info"), "{f:?}");
        let target = f["target"].as_str().expect("target key");
        assert!(target_names.contains(&target), "{f:?}");
    }
}

// The golden pin (`tests/golden.rs`) holds the exact roots, sinks and
// audit rows; these tests check each section's invariants.

#[test]
fn real_workspace_hot_path_is_clean() {
    // The dispatch pipeline's seven roots are declared, the
    // over-approximate reachable set stays far from "everything", and
    // nothing reachable blocks.
    let hot = real_section("hot_path");
    assert_eq!(hot["roots"].as_array().map(Vec::len), Some(7), "{hot:?}");
    let reachable = hot["reachable_fns"].as_f64().expect("reachable count");
    assert!((7.0..400.0).contains(&reachable), "{reachable}");
    let blocking = |f: &&serde_json::Value| f["rule"].as_str() == Some("hot-path-blocking");
    assert_eq!(arr(&hot["findings"]).iter().filter(blocking).count(), 0);
    assert_eq!(arr(&hot["waived"]).iter().filter(blocking).count(), 0);
}

#[test]
fn real_workspace_det_flow_certifies_every_sink_clean() {
    let det = real_section("det_flow");
    // Every declared output sink is certified clean: no nondeterminism
    // source reaches result bytes, cache identities, or seed derivation.
    let sinks = arr(&det["sinks"]);
    assert_eq!(sinks.len(), 12, "{sinks:?}");
    for s in sinks {
        assert_eq!(s["status"].as_str(), Some("clean"), "{s:?}");
    }

    // The reviewed waivers (wall_ms timing, env-selected worker count and
    // store path, membership-only HashSet) stay visible, not dropped.
    let waived = arr(&det["waived"]);
    assert!(waived.len() >= 5, "{waived:?}");
    for w in waived {
        assert!(
            !w["waived"].is_null(),
            "waiver must carry its reason: {w:?}"
        );
    }
}
