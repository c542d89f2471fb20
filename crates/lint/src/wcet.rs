//! Static WCET / loop-bound certificates for hot paths.
//!
//! Every loop in a hot-path-reachable fn is classified lexically
//! ([`crate::parse::LoopClass`]): constant, input-bounded, or unknown. An
//! unknown loop is a [`Rule::WcetUnbounded`] finding unless a waiver
//! asserts its bound, which demotes it to input-bounded. Costs live in
//! the single-variable abstraction `O(n^d log^l n) | unbounded`
//! ([`Cost`]): sequence takes the max, loop nesting and calls inside loops
//! multiply, and the degree saturates at [`MAX_DEGREE`] so the fixpoint
//! over the cyclic call graph terminates. Std calls with a contractual
//! cost are charged by [`external_cost`]; other external calls are O(1).
//! Each root's cost is a `wcet` row of [`crate::ratchet::RATCHET_PATH`].
//! Blocking constructs in reachable code are [`Rule::HotPathBlocking`]
//! findings. `docs/ARCHITECTURE.md` lists the approximations.

use std::collections::BTreeMap;

use crate::parse::LoopClass;
use crate::ratchet::{Analysis, Comparison, Rows, Value, RATCHET_PATH};
use crate::report::{json_escape, sort_findings, Finding, Hop, Rule, Section};
use crate::source::Words;
use crate::workspace::{Scope, SourceFile};

/// Polynomial degree past which a cost saturates to [`Cost::Unbounded`].
/// Real kernels here are ≤ O(n² log n); degree 7 only arises from cycles
/// in the over-approximate call graph, where saturation is what makes the
/// fixpoint terminate.
pub const MAX_DEGREE: u8 = 6;

/// Log factors saturate here (no further growth is meaningful).
pub const MAX_LOGS: u8 = 3;

/// Symbolic cost in the single-variable abstraction: `O(n^degree log^logs
/// n)` or unbounded. The derived ordering is the lattice order — degree
/// dominates, then log count, and `Unbounded` tops everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// `O(n^degree · log^logs n)`.
    Bounded {
        /// Polynomial degree (0 = constant in `n`).
        degree: u8,
        /// Number of log factors.
        logs: u8,
    },
    /// No static bound.
    Unbounded,
}

impl Cost {
    /// `O(1)`.
    pub const ONE: Cost = Cost::Bounded { degree: 0, logs: 0 };
    /// `O(n)`.
    pub const LINEAR: Cost = Cost::Bounded { degree: 1, logs: 0 };
    /// `O(log n)`.
    pub const LOG: Cost = Cost::Bounded { degree: 0, logs: 1 };
    /// `O(n log n)`.
    pub const N_LOG_N: Cost = Cost::Bounded { degree: 1, logs: 1 };

    /// Multiplicative composition (nesting): degrees and log counts add,
    /// saturating to [`Cost::Unbounded`] past [`MAX_DEGREE`].
    #[must_use]
    pub fn times(self, other: Cost) -> Cost {
        match (self, other) {
            (
                Cost::Bounded {
                    degree: d1,
                    logs: l1,
                },
                Cost::Bounded {
                    degree: d2,
                    logs: l2,
                },
            ) => {
                let degree = d1.saturating_add(d2);
                if degree > MAX_DEGREE {
                    Cost::Unbounded
                } else {
                    Cost::Bounded {
                        degree,
                        logs: l1.saturating_add(l2).min(MAX_LOGS),
                    }
                }
            }
            _ => Cost::Unbounded,
        }
    }

    /// Renders the certificate notation (`O(1)`, `O(n log n)`, `O(n^2)`,
    /// …, `unbounded`).
    #[must_use]
    pub fn render(self) -> String {
        let Cost::Bounded { degree, logs } = self else {
            return "unbounded".to_owned();
        };
        let poly = match degree {
            0 => String::new(),
            1 => "n".to_owned(),
            d => format!("n^{d}"),
        };
        let log = match logs {
            0 => String::new(),
            1 => "log n".to_owned(),
            l => format!("log^{l} n"),
        };
        match (poly.is_empty(), log.is_empty()) {
            (true, true) => "O(1)".to_owned(),
            (true, false) => format!("O({log})"),
            (false, true) => format!("O({poly})"),
            (false, false) => format!("O({poly} {log})"),
        }
    }

    /// Parses the notation [`Cost::render`] produces: the inverse of
    /// `render` over the finite lattice.
    #[must_use]
    pub fn parse(s: &str) -> Option<Cost> {
        let bounded = (0..=MAX_DEGREE)
            .flat_map(|degree| (0..=MAX_LOGS).map(move |logs| Cost::Bounded { degree, logs }));
        bounded
            .chain([Cost::Unbounded])
            .find(|c| c.render() == s.trim())
    }
}

/// Cost of a call with no workspace definition, by callee name. The table
/// covers std methods whose cost is part of their contract; everything
/// else is charged `O(1)` (documented under-approximation — explicit
/// loops and the alloc rule cover the rest).
#[must_use]
pub fn external_cost(name: &str) -> Cost {
    if name.starts_with("sort") {
        return Cost::N_LOG_N;
    }
    if name.starts_with("binary_search") || name == "partition_point" {
        return Cost::LOG;
    }
    const LINEAR: [&str; 28] = [
        "collect",
        "to_vec",
        "extend",
        "extend_from_slice",
        "resize",
        "fill",
        "dedup",
        "retain",
        "contains",
        "position",
        "rposition",
        "find",
        "find_map",
        "fold",
        "sum",
        "product",
        "count",
        "min",
        "max",
        "min_by",
        "max_by",
        "min_by_key",
        "max_by_key",
        "any",
        "all",
        "for_each",
        "copy_from_slice",
        "clone_from_slice",
    ];
    if LINEAR.contains(&name) {
        return Cost::LINEAR;
    }
    Cost::ONE
}

/// Blocking constructs forbidden in hot-path-reachable code: each one can
/// stall the dispatch loop for an unbounded *wall-clock* time even though
/// its iteration count is trivially bounded.
const BLOCKING_PATTERNS: [&str; 18] = [
    "Mutex",
    "RwLock",
    ".lock(",
    ".recv(",
    ".recv_timeout(",
    "thread::sleep",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "File::open",
    "File::create",
    "OpenOptions",
    "TcpStream",
    "UdpSocket",
    "stdin(",
    "stdout(",
    "read_to_string",
];

/// One hot-path root's certificate.
#[derive(Debug, Clone)]
pub struct CertRow {
    /// Qualified root name (`Type::fn` or `fn`).
    pub name: String,
    /// Workspace-relative path of the root's defining file.
    pub path: String,
    /// Propagated symbolic cost.
    pub cost: Cost,
    /// The dominant construct the cost traces to (`None` for O(1) roots).
    pub witness: Option<Hop>,
}

/// Loop-classification tallies over the reachable set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// `for` over literal ranges.
    pub constant: usize,
    /// Loops with a lexically visible input bound.
    pub input_bounded: usize,
    /// Unknown loops demoted to input-bounded by an inline waiver.
    pub waived: usize,
    /// Unknown loops with no waiver (each one is a finding).
    pub unbounded: usize,
}

/// Result of the WCET analysis.
#[derive(Debug)]
pub struct Wcet {
    /// Per-root certificates, sorted by (name, path).
    pub certs: Vec<CertRow>,
    /// Unwaived `wcet-unbounded` and `hot-path-blocking` findings.
    pub findings: Vec<Finding>,
    /// Waived sites with their reasons.
    pub waived: Vec<Finding>,
    /// Loop tallies over the reachable set.
    pub loop_stats: LoopStats,
    /// Reachable function count.
    pub reachable_fns: usize,
}

/// Classifies every reachable loop, propagates costs to the roots, and
/// scans the reachable set for blocking constructs.
#[must_use]
pub fn analyze(scope: &Scope<'_>) -> Wcet {
    let graph = &scope.graph;
    let reachable = graph.reachable_from_roots();

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut stats = LoopStats::default();

    // 1. Per loop of each reachable node, the cost factor of its
    //    iteration count after waiver resolution.
    let mut eff: BTreeMap<usize, Vec<Cost>> = BTreeMap::new();
    for &i in &reachable {
        let node = &graph.nodes[i];
        let src = scope.file_of(i);
        let mut classes = Vec::with_capacity(graph.loops[i].len());
        for l in graph.loops[i] {
            let e = match &l.class {
                LoopClass::Constant => {
                    stats.constant += 1;
                    Cost::ONE
                }
                LoopClass::InputBounded(_) => {
                    stats.input_bounded += 1;
                    Cost::LINEAR
                }
                LoopClass::Unknown => match src.masked.waiver(Rule::WcetUnbounded, l.line) {
                    Some(reason) => {
                        stats.waived += 1;
                        waived.push(loop_finding(node, l, src, Some(reason)));
                        Cost::LINEAR
                    }
                    None => {
                        stats.unbounded += 1;
                        findings.push(loop_finding(node, l, src, None));
                        Cost::Unbounded
                    }
                },
            };
            classes.push(e);
        }
        eff.insert(i, classes);
    }

    // Multiplier at a byte offset: product of the factors of every loop
    // whose span contains it.
    let mult_at = |i: usize, at: usize| -> Cost {
        let mut m = Cost::ONE;
        for (l, e) in graph.loops[i].iter().zip(&eff[&i]) {
            if l.span.0 < at && at < l.span.1 {
                m = m.times(*e);
            }
        }
        m
    };

    // 2. Intra-procedural seed: loops themselves plus external calls.
    let n = graph.nodes.len();
    let mut cost = vec![Cost::ONE; n];
    let mut wit: Vec<Option<Hop>> = vec![None; n];
    for &i in &reachable {
        let node = &graph.nodes[i];
        for (l, e) in graph.loops[i].iter().zip(&eff[&i]) {
            let total = mult_at(i, l.span.0).times(*e);
            if total > cost[i] {
                cost[i] = total;
                let bound = match &l.class {
                    LoopClass::InputBounded(s) => format!("`{}` loop over {s}", l.keyword),
                    _ => format!("`{}` loop", l.keyword),
                };
                wit[i] = Some(Hop {
                    path: node.path.clone(),
                    line: l.line,
                    what: bound,
                });
            }
        }
        for se in &graph.sites[i] {
            if !se.callees.is_empty() {
                continue;
            }
            let ext = external_cost(&se.site.name);
            if ext == Cost::ONE {
                continue;
            }
            let total = mult_at(i, se.site.offset).times(ext);
            if total > cost[i] {
                cost[i] = total;
                wit[i] = Some(Hop {
                    path: node.path.clone(),
                    line: se.site.line,
                    what: format!("`{}` call ({})", se.site.name, ext.render()),
                });
            }
        }
    }

    // 3. Interprocedural fixpoint. Monotone over a finite lattice (degree
    // saturates), so this terminates even on call-graph cycles.
    let mut changed = true;
    while changed {
        changed = false;
        for &i in &reachable {
            for se in &graph.sites[i] {
                if se.callees.is_empty() {
                    continue;
                }
                let mult = mult_at(i, se.site.offset);
                for &c in &se.callees {
                    let cand = mult.times(cost[c]);
                    if cand > cost[i] {
                        cost[i] = cand;
                        wit[i] = wit[c].clone().or_else(|| {
                            Some(Hop {
                                path: graph.nodes[i].path.clone(),
                                line: se.site.line,
                                what: format!("`{}` call", se.site.name),
                            })
                        });
                        changed = true;
                    }
                }
            }
        }
    }

    // 4. Blocking surface over the reachable set.
    let blocking = Words::new(BLOCKING_PATTERNS);
    for &i in &reachable {
        let node = &graph.nodes[i];
        let Some(body) = node.body else { continue };
        let src = scope.file_of(i);
        for (k, at) in blocking.find(&src.masked.masked, body) {
            let pat = BLOCKING_PATTERNS[k];
            let line = src.masked.lines.line_of(at);
            let construct = pat.trim_matches(|c| c == '.' || c == '(').to_owned();
            let message = format!(
                "`{construct}` can block in hot-path-reachable fn `{}`; the dispatch \
                 path must not wait on I/O, locks, channels or sleeps — move it out, \
                 or waive with `hcperf-lint: allow(hot-path-blocking)` and a reason",
                node.qualified()
            );
            let f = Finding::at(Rule::HotPathBlocking, src, line, message);
            match src.masked.waiver(Rule::HotPathBlocking, line) {
                Some(reason) => waived.push(f.waived(Some(reason))),
                None => findings.push(f),
            }
        }
    }

    // 5. Certificates per root.
    let mut certs: Vec<CertRow> = graph
        .roots()
        .iter()
        .map(|&r| CertRow {
            name: graph.nodes[r].qualified(),
            path: graph.nodes[r].path.clone(),
            cost: cost[r],
            witness: wit[r].clone(),
        })
        .collect();
    certs.sort_by(|a, b| (&a.name, &a.path).cmp(&(&b.name, &b.path)));

    // A root can be unbounded with no loop finding when degree saturates
    // through call-graph cycles; surface that at the root itself.
    let has_unbounded_finding = findings.iter().any(|f| f.rule == Rule::WcetUnbounded);
    for c in &certs {
        if c.cost == Cost::Unbounded && !has_unbounded_finding {
            let (line, what) = c
                .witness
                .as_ref()
                .map_or((1, "degree saturation".to_owned()), |w| {
                    (w.line, w.what.clone())
                });
            let message = format!(
                "hot-path root `{}` has no bounded certificate ({what}); every root must \
                 admit a symbolic cost bound",
                c.name
            );
            findings.push(scope.finding(Rule::WcetUnbounded, &c.path, line, message));
        }
    }

    sort_findings(&mut findings);
    Wcet {
        certs,
        findings,
        waived,
        loop_stats: stats,
        reachable_fns: reachable.len(),
    }
}

fn loop_finding(
    node: &crate::parse::FnItem,
    l: &crate::parse::LoopSite,
    src: &SourceFile,
    waived: Option<String>,
) -> Finding {
    let message = format!(
        "`{}` loop in hot-path-reachable fn `{}` has no lexically visible bound; \
         restructure it as a bounded loop, or assert the bound with \
         `hcperf-lint: allow(wcet-unbounded)` and a reason",
        l.keyword,
        node.qualified()
    );
    Finding::at(Rule::WcetUnbounded, src, l.line, message).waived(waived)
}

impl Wcet {
    /// The `wcet` ratchet rows: one certificate per root.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let row = |c: &CertRow| {
            (
                (Analysis::Wcet, c.name.clone(), c.path.clone()),
                Value::Cost(c.cost),
            )
        };
        self.certs.iter().map(row).collect()
    }

    /// The `wcet` section: any certificate growth becomes a
    /// [`Rule::WcetCert`] finding anchored at the root's dominant construct.
    #[must_use]
    pub fn section(self, cmp: &Comparison, scope: &Scope<'_>) -> Section {
        let cmp = cmp.of(Analysis::Wcet);
        let mut findings = self.findings;
        for g in &cmp.growth {
            let row = self
                .certs
                .iter()
                .find(|c| c.name == g.name() && c.path == g.path());
            let (path, line, what) = row.and_then(|c| c.witness.as_ref()).map_or_else(
                || (g.path().to_owned(), 1, "no dominant construct".to_owned()),
                |w| (w.path.clone(), w.line, w.what.clone()),
            );
            let render =
                |v: Option<Value>, none: &str| v.map_or_else(|| none.to_owned(), Value::render);
            let message = format!(
                "hot-path root `{}` now costs {}, certified {} in {RATCHET_PATH} \
                 (dominant: {what}); lower the cost, or regenerate certificates \
                 deliberately with --update-baselines",
                g.name(),
                render(g.current, "?"),
                render(g.baseline, "nothing (new root)"),
            );
            findings.push(scope.finding(Rule::WcetCert, &path, line, message));
        }
        sort_findings(&mut findings);

        let stats = self.loop_stats;
        let certs: Vec<String> = self
            .certs
            .iter()
            .map(|c| {
                format!(
                    "{{\"root\":\"{}\",\"cost\":\"{}\",\"path\":\"{}\"}}",
                    json_escape(&c.name),
                    c.cost.render(),
                    json_escape(&c.path)
                )
            })
            .collect();
        let mut lines: Vec<String> = self
            .certs
            .iter()
            .map(|c| format!("cert {:<50} {}", c.name, c.cost.render()))
            .collect();
        lines.push(format!(
            "hcperf-lint wcet: {} certificates, {} reachable fns, loops {}c/{}i/{}w/{}u, {} findings, {} waived",
            self.certs.len(),
            self.reachable_fns,
            stats.constant,
            stats.input_bounded,
            stats.waived,
            stats.unbounded,
            findings.len(),
            self.waived.len(),
        ));
        let mut section = Section::new("wcet", findings, self.waived, Some(cmp));
        section.json = vec![
            format!("\"certificates\":[{}]", certs.join(",")),
            format!("\"reachable_fns\":{}", self.reachable_fns),
            format!(
                "\"loops\":{{\"constant\":{},\"input_bounded\":{},\"waived\":{},\"unbounded\":{}}}",
                stats.constant, stats.input_bounded, stats.waived, stats.unbounded
            ),
        ];
        section.lines = lines;
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::{compare, parse, render};
    use crate::report::exit;

    fn analyze_src(raw: &str) -> Wcet {
        let file = SourceFile::new("k.rs", "crates/core/src", raw.to_owned());
        analyze(&Scope::new([&file]))
    }

    #[test]
    fn cost_lattice_orders_and_multiplies() {
        let n = Cost::LINEAR;
        let nlogn = Cost::N_LOG_N;
        let n2 = n.times(n);
        assert!(Cost::ONE < Cost::LOG);
        assert!(Cost::LOG < n);
        assert!(n < nlogn);
        assert!(nlogn < n2);
        assert!(n2 < n2.times(Cost::LOG));
        assert!(n2 < Cost::Unbounded);
        assert_eq!(n.times(Cost::Unbounded), Cost::Unbounded);
        // Degree saturation guarantees fixpoint termination on cycles.
        let mut c = n;
        for _ in 0..MAX_DEGREE + 1 {
            c = c.times(n);
        }
        assert_eq!(c, Cost::Unbounded);
    }

    #[test]
    fn cost_notation_round_trips() {
        let cases = [
            Cost::ONE,
            Cost::LOG,
            Cost::LINEAR,
            Cost::N_LOG_N,
            Cost::Bounded { degree: 2, logs: 0 },
            Cost::Bounded { degree: 2, logs: 1 },
            Cost::Bounded { degree: 3, logs: 2 },
            Cost::Unbounded,
        ];
        for c in cases {
            assert_eq!(Cost::parse(&c.render()), Some(c), "{}", c.render());
        }
        assert_eq!(Cost::parse("O(n log n)"), Some(Cost::N_LOG_N));
        assert_eq!(Cost::parse("garbage"), None);
        assert_eq!(Cost::parse("O(m)"), None);
    }

    /// A root over `depth` nested `for` loops (the innermost on line
    /// `2 + depth`).
    fn nest(depth: usize) -> Wcet {
        let mut src = "// hcperf-lint: hot-path-root\nfn root(xs: &[u32]) {\n".to_owned();
        src += &"for x in xs {\n".repeat(depth);
        src += &"}\n".repeat(depth + 1);
        analyze_src(&src)
    }

    #[test]
    fn certificates_round_trip_and_ratchet() {
        let recorded = nest(1).rows();
        assert_eq!(recorded.values().next(), Some(&Value::Cost(Cost::LINEAR)));
        assert_eq!(parse(&render(&recorded)).unwrap(), recorded);

        // Raising a degree trips the ratchet at the inner loop's line.
        let quadratic = nest(2);
        let cmp = compare(&quadratic.rows(), &recorded);
        assert_eq!(cmp.growth.len(), 1);
        assert_eq!(cmp.growth[0].name(), "root");
        let file = SourceFile::new("k.rs", "crates/core/src", String::new());
        let section = quadratic.section(&cmp, &Scope::new([&file]));
        assert_eq!(section.exit_code, exit::RATCHET);
        assert_eq!(section.findings.len(), 1);
        assert_eq!(section.findings[0].rule, Rule::WcetCert);
        assert_eq!(section.findings[0].line, 4);
        assert!(section.findings[0].message.contains("O(n^2)"));

        // Shrinking passes; a new root must be certified deliberately, and
        // a root that disappears is shrink.
        let cmp = compare(&nest(0).rows(), &recorded);
        assert!(cmp.growth.is_empty());
        assert_eq!(cmp.shrink.len(), 1);
        assert_eq!(compare(&recorded, &Rows::new()).growth[0].baseline, None);
        assert_eq!(compare(&Rows::new(), &recorded).shrink[0].current, None);
    }

    #[test]
    fn rejects_malformed_certificates() {
        assert!(parse("wcet\troot\tO(n!)\tx.rs").is_err());
        assert!(parse("wcet\troot\t3\tx.rs").is_err());
        assert!(parse("# comment\nwcet\troot\tO(n)\tx.rs\n").is_ok());
    }

    #[test]
    fn sort_call_yields_n_log_n_certificate() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn rank(xs: &mut [u32]) {
    xs.sort_unstable();
}
",
        );
        assert_eq!(a.certs.len(), 1);
        assert_eq!(a.certs[0].cost, Cost::N_LOG_N);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let w = a.certs[0].witness.as_ref().unwrap();
        assert_eq!(
            (w.line, w.what.as_str()),
            (3, "`sort_unstable` call (O(n log n))")
        );
    }

    #[test]
    fn nested_loops_multiply_and_propagate_through_calls() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn root(n: usize) {
    for _ in 0..n {
        helper(n);
    }
}
fn helper(n: usize) {
    for i in 0..n {
        touch(i);
    }
}
fn touch(_i: usize) {}
",
        );
        let root = a.certs.iter().find(|c| c.name == "root").unwrap();
        assert_eq!(root.cost, Cost::Bounded { degree: 2, logs: 0 });
        // The witness resolves transitively to the concrete inner loop.
        let w = root.witness.as_ref().unwrap();
        assert_eq!((w.path.as_str(), w.line), ("k.rs", 8));
    }

    #[test]
    fn unwaived_unbounded_loop_is_a_finding_and_unbounded_cert() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn root() {
    loop {
        if done() { break; }
    }
}
fn done() -> bool { true }
",
        );
        assert_eq!(a.certs[0].cost, Cost::Unbounded);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, Rule::WcetUnbounded);
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn waiver_demotes_unbounded_loop_to_input_bounded() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn root() {
    // hcperf-lint: allow(wcet-unbounded): each pass retires one job
    loop {
        if done() { break; }
    }
}
fn done() -> bool { true }
",
        );
        assert_eq!(a.certs[0].cost, Cost::LINEAR);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.waived.len(), 1);
        assert_eq!(a.loop_stats.waived, 1);
    }

    #[test]
    fn blocking_constructs_in_reachable_code_are_findings() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn root() {
    let m = std::sync::Mutex::new(0u32);
    let _ = m.lock();
    println!(\"dispatch\");
}
",
        );
        let rules: Vec<(usize, &str)> =
            a.findings.iter().map(|f| (f.line, f.rule.name())).collect();
        assert!(rules.contains(&(3, "hot-path-blocking")), "{rules:?}"); // Mutex type
        assert!(rules.contains(&(4, "hot-path-blocking")), "{rules:?}"); // .lock(
        assert!(rules.contains(&(5, "hot-path-blocking")), "{rules:?}"); // println!
    }

    #[test]
    fn unreachable_code_is_not_analyzed() {
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn root() {}

// far enough below the marker not to inherit it
fn cold() {
    loop { println!(\"spin\"); }
}
",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.certs[0].cost, Cost::ONE);
        assert_eq!(a.loop_stats, LoopStats::default());
    }

    #[test]
    fn recursion_without_loop_multipliers_stays_bounded() {
        // A depth-0 call cycle (mutual recursion) stabilizes at the max of
        // the intra costs instead of diverging — documented
        // under-approximation; cycles *through loops* saturate instead.
        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn even(n: usize) { odd(n); }

// not a root: outside the marker's 3-line window
fn odd(n: usize) { for i in 0..n { touch(i); } even(n); }
fn touch(_i: usize) {}
",
        );
        assert_eq!(a.certs[0].cost, Cost::LINEAR);

        let a = analyze_src(
            "\
// hcperf-lint: hot-path-root
fn spin(n: usize) { for _ in 0..n { spin(n); } }
",
        );
        assert_eq!(
            a.certs[0].cost,
            Cost::Unbounded,
            "loop-carried cycle saturates"
        );
    }
}
