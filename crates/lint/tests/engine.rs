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

/// The scheduler kernels the schedulability audit needs certified, as
/// hot-path roots in every fixture workspace.
const KERNELS: [&str; 6] = [
    "gamma_max",
    "Sim::try_dispatch",
    "GammaScratch::rank",
    "GammaScratch::feasible",
    "DynamicPriorityScheduler::gamma_max_cached",
    "PerformanceDirectedController::step",
];

/// [`KERNELS`] as empty hot-path roots: a free fn, or a method in an
/// impl block of its type.
fn kernel_stubs() -> String {
    let root = "// hcperf-lint: hot-path-root";
    let stub = |k: &&str| match k.split_once("::") {
        Some((ty, f)) => format!("impl {ty} {{\n{root}\npub fn {f}(&self) {{}}\n}}\n"),
        None => format!("{root}\npub fn {k}() {{}}\n"),
    };
    KERNELS.iter().map(stub).collect()
}

/// Implementation and test tags for every required paper equation.
const PAPER_TAGS: &str = "\
//! Eq. 2–12 are implemented here.
pub fn paper() {}
#[cfg(test)]
mod tests {
    // Eq. 2–12 are tested here.
}
";

/// Builds a minimal valid workspace the binary can scan: every required
/// tree, the kernel stubs (certified O(1) in the ratchet file), and the
/// Eq. 2–12 tags. `files` maps workspace-relative paths to contents;
/// `ratchet` is appended to the kernel rows of `crates/lint/ratchet.txt`.
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
    let kernels = kernel_stubs();
    let stubs = [
        ("crates/core/src/kernels.rs", kernels.as_str()),
        ("crates/core/src/paper.rs", PAPER_TAGS),
    ];
    for (rel, text) in stubs.iter().chain(files) {
        fs::write(root.join(rel), text).expect("write fixture file");
    }
    let mut rows: String = KERNELS
        .iter()
        .map(|k| format!("wcet\t{k}\tO(1)\tcrates/core/src/kernels.rs\n"))
        .collect();
    rows.push_str(ratchet);
    fs::write(root.join("crates/lint/ratchet.txt"), rows).expect("write ratchet");
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

const SECTIONS: [&str; 6] = [
    "source",
    "hot_path",
    "eq_coverage",
    "wcet",
    "det_flow",
    "schedulability",
];

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
    assert_eq!(section_codes(&doc), vec![code(exit::CLEAN); 6]);
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
    assert_eq!(doc["schema_version"].as_f64(), Some(3.0));
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

/// The declared roots of a report other than the fixture kernels.
fn own_roots(doc: &serde_json::Value) -> Vec<&str> {
    let roots = arr(&doc["hot_path"]["roots"]);
    roots
        .iter()
        .filter_map(|r| r.as_str())
        .filter(|r| !KERNELS.contains(r))
        .collect()
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
        "wcet\troot_fn\tO(1)\tcrates/core/src/hot.rs\n",
    );
    let doc = lint_json(&root, exit::RATCHET);
    assert_eq!(own_roots(&doc), vec!["root_fn"]);
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
    // Same allocation, but no root marker on it: only the kernels are
    // reachable, so the site does not count and the run is clean.
    let root = mini_workspace(
        "hotpath-cold",
        &[(
            "crates/core/src/cold.rs",
            "pub fn cold(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n",
        )],
        "",
    );
    let doc = lint_json(&root, exit::CLEAN);
    assert_eq!(
        doc["hot_path"]["reachable_fns"].as_f64(),
        Some(KERNELS.len() as f64)
    );
}

#[test]
fn binary_untested_eq_tag_fails_eq_coverage_with_exact_line() {
    // Eq. 7 gets an impl site but no test anywhere in the mini workspace.
    let root = mini_workspace(
        "eqcov",
        &[(
            "crates/core/src/eq.rs",
            "// plain comment\n// Eq. 7: discrete quadrature lives here.\npub fn q() {}\n",
        )],
        "",
    );
    fs::remove_file(root.join("crates/core/src/paper.rs")).expect("drop the Eq. 2-12 tags");
    let doc = lint_json(&root, exit::FINDINGS);
    assert_eq!(
        doc["eq_coverage"]["exit_code"].as_f64(),
        code(exit::FINDINGS)
    );
    let findings = arr(&doc["eq_coverage"]["findings"]);
    assert!(
        findings
            .iter()
            .all(|f| f["rule"].as_str() == Some("eq-coverage")),
        "{findings:?}"
    );
    // The Eq. 7 finding anchors at the tag's exact location; the other
    // required equations (no sites at all) are also reported.
    let eq7: Vec<_> = findings
        .iter()
        .filter(|f| f["path"].as_str() == Some("crates/core/src/eq.rs"))
        .collect();
    assert_eq!(eq7.len(), 1, "{findings:?}");
    assert_eq!(eq7[0]["line"].as_f64(), Some(2.0));
    let msg = eq7[0]["message"].as_str().expect("message");
    assert!(msg.contains("test"), "points at the missing test: {msg}");
    assert!(findings.len() > 1, "untagged required equations also fail");
}

#[test]
fn binary_exit_code_follows_cross_section_precedence() {
    // Hot-path growth (2) and an orphaned Eq. tag (1): findings win.
    let files = [
        (
            "crates/core/src/hot.rs",
            "// hcperf-lint: hot-path-root\npub fn root_fn() -> Vec<u8> {\n    Vec::new()\n}\n",
        ),
        (
            "crates/core/src/eq.rs",
            "// Eq. 99 is not in the paper.\npub fn q() {}\n",
        ),
    ];
    let rows = "wcet\troot_fn\tO(1)\tcrates/core/src/hot.rs\n";
    let root = mini_workspace("precedence", &files, rows);
    let doc = lint_json(&root, exit::FINDINGS);
    let codes = section_codes(&doc);
    assert_eq!(codes[1], code(exit::RATCHET), "hot_path: {codes:?}");
    assert_eq!(codes[2], code(exit::FINDINGS), "eq_coverage: {codes:?}");
    assert_eq!(doc["exit_code"].as_f64(), code(exit::FINDINGS));

    // Without the kernel stubs the audit's Eq. 9 budgets lose their
    // certificates: an infeasible-target failure outranks the rest.
    fs::remove_file(root.join("crates/core/src/kernels.rs")).expect("drop kernels");
    let doc = lint_json(&root, exit::SCHEDULABILITY);
    let codes = section_codes(&doc);
    assert_eq!(codes[5], code(exit::SCHEDULABILITY), "{codes:?}");
    assert_eq!(codes[2], code(exit::FINDINGS), "{codes:?}");
    let sched = arr(&doc["schedulability"]["findings"]);
    assert!(
        sched
            .iter()
            .any(|f| f["rule"].as_str() == Some("sched-wcet")),
        "{sched:?}"
    );
}

// ---------------------------------------------------------------------------
// Binary end-to-end: WCET certificates and the ratchet.
// ---------------------------------------------------------------------------

/// A hot-path root whose dominant construct is the inner loop of an
/// O(n^2) nest on line 5.
const QUADRATIC_KERNEL: &str = "// hcperf-lint: hot-path-root\n\
     pub fn kernel(xs: &[u64]) -> u64 {\n\
    \x20   let mut acc = 0;\n\
    \x20   for a in xs {\n\
    \x20       for b in xs {\n\
    \x20           acc = acc + a + b;\n\
    \x20       }\n\
    \x20   }\n\
    \x20   acc\n\
     }\n";

/// The ratchet row that certifies [`QUADRATIC_KERNEL`] one degree too low.
const STALE_CERT: &str = "wcet\tkernel\tO(n)\tcrates/core/src/hot.rs\n";

#[test]
fn binary_wcet_regression_trips_cert_ratchet_with_exact_line() {
    // The certificate on disk promises O(n); the code regressed to an
    // O(n^2) nest. The ratchet must fire and anchor the finding at the
    // inner loop that raised the degree.
    let root = mini_workspace(
        "wcet-regress",
        &[("crates/core/src/hot.rs", QUADRATIC_KERNEL)],
        STALE_CERT,
    );
    let doc = lint_json(&root, exit::RATCHET);
    let findings = arr(&doc["wcet"]["findings"]);
    let cert: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("wcet-cert"))
        .collect();
    assert_eq!(cert.len(), 1, "{findings:?}");
    assert_eq!(cert[0]["path"].as_str(), Some("crates/core/src/hot.rs"));
    assert_eq!(cert[0]["line"].as_f64(), Some(5.0), "inner `for b` loop");
    let msg = cert[0]["message"].as_str().expect("message");
    assert!(msg.contains("O(n^2)") && msg.contains("O(n)"), "{msg}");
    let growth = arr(&doc["wcet"]["ratchet"]["growth"]);
    assert_eq!(growth.len(), 1, "{growth:?}");

    // The same findings surface as GitHub annotation lines.
    let out = run_lint(&root, &["--annotations"]);
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    assert!(
        text.contains("::error file=crates/core/src/hot.rs,line=5,title=hcperf-lint wcet-cert::"),
        "{text}"
    );
}

#[test]
fn binary_update_baselines_clears_dirty_certificates_in_one_run() {
    // Dirty ratchet -> exit 2; one --update-baselines run rewrites it;
    // the follow-up run is clean again.
    let root = mini_workspace(
        "wcet-refresh",
        &[("crates/core/src/hot.rs", QUADRATIC_KERNEL)],
        STALE_CERT,
    );
    lint(&root, &[], exit::RATCHET);

    lint(&root, &["--update-baselines"], exit::CLEAN);
    let ratchet = fs::read_to_string(root.join("crates/lint/ratchet.txt")).expect("ratchet");
    assert!(
        ratchet.contains("wcet\tkernel\tO(n^2)\tcrates/core/src/hot.rs"),
        "{ratchet}"
    );

    let doc = lint_json(&root, exit::CLEAN);
    let growth = arr(&doc["wcet"]["ratchet"]["growth"]);
    assert!(growth.is_empty(), "{growth:?}");
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
    assert_eq!(doc["schema_version"].as_f64(), Some(3.0));
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

// The golden pin (`tests/golden.rs`) holds the exact roots, certificates,
// sinks and equation rows; these tests check each section's invariants.

#[test]
fn real_workspace_wcet_gives_every_root_a_bounded_certificate() {
    let wcet = real_section("wcet");
    // Every declared hot-path root carries a bounded (non-saturated)
    // polynomial certificate.
    let certs = arr(&wcet["certificates"]);
    let roots = real_section("hot_path")["roots"].as_array().expect("roots");
    assert_eq!(
        certs.len(),
        roots.len(),
        "one certificate per root: {certs:?}"
    );
    assert_eq!(certs.len(), 7, "{certs:?}");
    for c in certs {
        let cost = c["cost"].as_str().expect("cost string");
        assert!(cost.starts_with("O("), "unbounded: {c:?}");
    }
    assert_eq!(wcet["loops"]["unbounded"].as_f64(), Some(0.0));
}

#[test]
fn real_workspace_hot_path_and_eq_coverage_are_clean() {
    // The dispatch pipeline's seven roots are declared, and the
    // over-approximate reachable set stays far from "everything".
    let hot = real_section("hot_path");
    assert_eq!(hot["roots"].as_array().map(Vec::len), Some(7), "{hot:?}");
    let reachable = hot["reachable_fns"].as_f64().expect("reachable count");
    assert!((7.0..400.0).contains(&reachable), "{reachable}");

    // Every required equation (Eq. 2-12) has at least one impl and one test.
    let eqs = real_section("eq_coverage")["equations"]
        .as_array()
        .expect("equations array");
    for eq in 2..=12u32 {
        let row = eqs
            .iter()
            .find(|e| e["eq"].as_f64() == Some(f64::from(eq)))
            .unwrap_or_else(|| panic!("Eq. {eq} absent from report"));
        assert_eq!(row["ok"].as_bool(), Some(true), "Eq. {eq}: {row:?}");
    }
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
