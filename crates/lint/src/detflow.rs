//! Interprocedural determinism-taint dataflow with certified output
//! sinks.
//!
//! The lexical rules in [`crate::rules`] flag a `HashMap` where it is
//! written; this pass asks whether a nondeterminism source can reach a
//! serialized output: a fn marked `// hcperf-lint: det-sink(<name>)`.
//! A taint element is a source site `(path, line, pattern)`. Each body is
//! scanned in offset order: a source adds its site (unless waived with
//! `allow(det-flow)`), a sanitizer (`BTree*` rebuild, `sort*`, a call to
//! a `det-sanitizer` fn) clears the running set, and a call imports the
//! callee's `out` summary and forwards the running set into its `in`
//! summary. `out(f)` excludes param-inherited taint: that cuts
//! param→return flow, which over name-based resolution would flood every
//! caller of a common name, but keeps param→sink exact. Sets only grow
//! over a finite key space, so the fixpoint terminates. A sink's exposure
//! is `in ∪ out`, certified as a `det-flow` row of
//! [`crate::ratchet::RATCHET_PATH`]; each element keeps the first-found
//! chain of [`Hop`]s. `docs/ARCHITECTURE.md` lists the approximations.

use std::collections::BTreeMap;

use crate::ratchet::{Analysis, Comparison, Rows, Value, RATCHET_PATH};
use crate::report::{json_escape, sort_findings, Finding, Hop, Rule, Section};
use crate::source::Words;
use crate::workspace::Scope;

/// The kind of nondeterminism a source pattern introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `HashMap`/`HashSet`: iteration order is seeded per process.
    UnorderedIter,
    /// `thread::current()` / `ThreadId`: worker identity.
    ThreadId,
    /// Channel `recv` family: arrival order depends on scheduling.
    ChannelRecv,
    /// `Instant`/`SystemTime` *values* flowing into data.
    WallClock,
    /// Environment-variable reads (argv is a deterministic input; env is
    /// ambient machine state).
    EnvRead,
    /// `DefaultHasher`/`RandomState`: address- or entropy-seeded hashing.
    AddrHash,
    /// Rayon-style parallel iteration feeding an order-sensitive
    /// reduction (`sum`/`fold` over par-collected sets).
    UnorderedReduce,
}

impl TaintKind {
    /// Short human description used in messages and chain hops.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::UnorderedIter => "unordered container iteration",
            TaintKind::ThreadId => "thread identity",
            TaintKind::ChannelRecv => "channel arrival order",
            TaintKind::WallClock => "wall-clock value",
            TaintKind::EnvRead => "environment read",
            TaintKind::AddrHash => "address-seeded hashing",
            TaintKind::UnorderedReduce => "unordered parallel reduction",
        }
    }
}

/// Source patterns (matched word-boundary-aware in masked fn bodies).
const SOURCES: &[(&str, TaintKind)] = &[
    ("HashMap", TaintKind::UnorderedIter),
    ("HashSet", TaintKind::UnorderedIter),
    ("thread::current", TaintKind::ThreadId),
    ("ThreadId", TaintKind::ThreadId),
    (".recv(", TaintKind::ChannelRecv),
    (".try_recv(", TaintKind::ChannelRecv),
    (".recv_timeout(", TaintKind::ChannelRecv),
    (".recv_deadline(", TaintKind::ChannelRecv),
    ("Instant::now", TaintKind::WallClock),
    ("SystemTime::now", TaintKind::WallClock),
    (".elapsed(", TaintKind::WallClock),
    (".duration_since(", TaintKind::WallClock),
    ("UNIX_EPOCH", TaintKind::WallClock),
    ("env::var(", TaintKind::EnvRead),
    ("env::var_os(", TaintKind::EnvRead),
    ("env::vars(", TaintKind::EnvRead),
    ("DefaultHasher", TaintKind::AddrHash),
    ("RandomState", TaintKind::AddrHash),
    (".par_iter(", TaintKind::UnorderedReduce),
    (".into_par_iter(", TaintKind::UnorderedReduce),
    (".par_chunks(", TaintKind::UnorderedReduce),
    (".par_bridge(", TaintKind::UnorderedReduce),
];

/// Sanitizer patterns: any hit clears the running set at its offset.
/// A `BTreeMap`/`BTreeSet` rebuild imposes key order; an explicit sort
/// imposes element order. Marked `det-sanitizer` fns are trusted the same
/// way (their call sites clear, their bodies are not scanned).
const SANITIZERS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    ".sort(",
    ".sort_unstable(",
    ".sort_by(",
    ".sort_unstable_by(",
    ".sort_by_key(",
    ".sort_unstable_by_key(",
    ".sort_by_cached_key(",
];

/// Identity of a taint element: the source site that created it.
type Key = (String, usize, &'static str);

/// One live taint element with its provenance chain.
#[derive(Debug, Clone)]
struct Taint {
    kind: TaintKind,
    /// Source hop (`path`/`line` of the pattern hit).
    source: Hop,
    /// Interprocedural hops after the source, in order (sink hop excluded).
    chain: Vec<Hop>,
}

type Set = BTreeMap<Key, Taint>;

/// One declared sink's measured state.
#[derive(Debug, Clone)]
pub struct SinkRow {
    /// Declared sink name (the `det-sink(<name>)` argument).
    pub name: String,
    /// Qualified fn the marker attached to.
    pub fn_name: String,
    /// Workspace-relative path of the sink fn.
    pub path: String,
    /// 1-based line of the sink `fn` keyword.
    pub line: usize,
    /// Each source site reaching the sink: its kind and full chain (source
    /// hop, call hops, sink hop), in source order. Empty = clean.
    pub flows: Vec<(TaintKind, Vec<Hop>)>,
}

impl SinkRow {
    /// Distinct source sites reaching the sink (0 = clean).
    #[must_use]
    pub fn taints(&self) -> usize {
        self.flows.len()
    }
}

/// One body event, ordered by byte offset. At equal offsets sanitizers
/// apply before sources, and both before calls (variant order).
#[derive(Debug)]
enum Ev<'a> {
    Clean,
    Source {
        line: usize,
        pat: &'static str,
        kind: TaintKind,
    },
    Call {
        line: usize,
        callees: &'a [usize],
        name: &'a str,
    },
}

/// Result of the det-flow analysis.
#[derive(Debug)]
pub struct DetFlow {
    /// Declared sinks with their flows, sorted by (name, path).
    pub sinks: Vec<SinkRow>,
    /// Unwaived `det-sink` declaration findings.
    pub findings: Vec<Finding>,
    /// Waived source sites with their reasons.
    pub waived: Vec<Finding>,
    /// Functions in the call graph.
    pub fns_analyzed: usize,
}

/// Flows every unwaived source over the scope's call graph to its sinks.
#[must_use]
pub fn analyze(scope: &Scope<'_>) -> DetFlow {
    let graph = &scope.graph;

    let mut findings = Vec::new();
    let mut waived = Vec::new();

    // 1. Declaration checks: every marker must attach to a fn; sink names
    //    must be globally unique so certificate rows are addressable.
    let mut names_seen: BTreeMap<&str, (&str, usize)> = BTreeMap::new();
    for &src in &scope.files {
        let markers = src
            .masked
            .det_sinks
            .iter()
            .map(|(l, n)| (*l, n, "det-sink"))
            .chain(
                src.masked
                    .det_sanitizers
                    .iter()
                    .map(|(l, n)| (*l, n, "det-sanitizer")),
            );
        for (mline, name, what) in markers {
            let attached = graph
                .nodes
                .iter()
                .any(|n| n.path == src.rel && mline < n.line && n.line <= mline + 3);
            if !attached {
                let message = format!(
                    "`{what}({name})` marker does not attach to a `fn` item; the next \
                     fn must start within 3 lines below the marker"
                );
                findings.push(Finding::at(Rule::DetSink, src, mline, message));
            }
            if what == "det-sink" {
                if let Some((first_path, first_line)) =
                    names_seen.insert(name.as_str(), (src.rel.as_str(), mline))
                {
                    let message = format!(
                        "duplicate det-sink name `{name}` (first declared at \
                         {first_path}:{first_line}); sink names must be unique"
                    );
                    findings.push(Finding::at(Rule::DetSink, src, mline, message));
                }
            }
        }
    }

    // 2. Per-node event lists, offset-ordered. Waived sources are recorded
    //    and excluded before propagation — the waiver is load-bearing.
    let n = graph.nodes.len();
    let sources = Words::new(SOURCES.iter().map(|s| s.0));
    let sanitizers = Words::new(SANITIZERS.iter().copied());
    let mut events: Vec<Vec<(usize, Ev)>> = Vec::with_capacity(n);
    for (i, node) in graph.nodes.iter().enumerate() {
        let mut evs: Vec<(usize, Ev)> = Vec::new();
        let Some(body) = node.body else {
            events.push(evs);
            continue;
        };
        let src = scope.file_of(i);
        if node.sanitizer {
            // Trusted fn: body not scanned, summary forced empty.
            events.push(evs);
            continue;
        }
        for (k, at) in sources.find(&src.masked.masked, body) {
            let (pat, kind) = SOURCES[k];
            let line = src.masked.lines.line_of(at);
            match src.masked.waiver(Rule::DetFlow, line) {
                Some(reason) => {
                    let what = format!(
                        "nondeterminism source `{pat}` ({}) waived at the site",
                        kind.describe()
                    );
                    waived.push(Finding::at(Rule::DetFlow, src, line, what).waived(Some(reason)));
                }
                None => evs.push((at, Ev::Source { line, pat, kind })),
            }
        }
        for (_, at) in sanitizers.find(&src.masked.masked, body) {
            evs.push((at, Ev::Clean));
        }
        for se in &graph.sites[i] {
            evs.push((
                se.site.offset,
                Ev::Call {
                    line: se.site.line,
                    callees: &se.callees,
                    name: &se.site.name,
                },
            ));
        }
        evs.sort_by_key(|(at, ev)| {
            let rank = match ev {
                Ev::Clean => 0u8,
                Ev::Source { .. } => 1,
                Ev::Call { .. } => 2,
            };
            (*at, rank)
        });
        events.push(evs);
    }

    // 3. Fixpoint over `in`/`out` summaries. Sets only grow and the key
    //    space is finite, so chaotic iteration terminates.
    let mut ins: Vec<Set> = vec![Set::new(); n];
    let mut outs: Vec<Set> = vec![Set::new(); n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if graph.nodes[i].sanitizer {
                continue;
            }
            // Running set: key → (taint, inherited-from-params).
            let mut run: BTreeMap<Key, (Taint, bool)> = ins[i]
                .iter()
                .map(|(k, t)| (k.clone(), (t.clone(), true)))
                .collect();
            for (_, ev) in &events[i] {
                match ev {
                    Ev::Clean => run.clear(),
                    Ev::Source { line, pat, kind } => {
                        let key = (graph.nodes[i].path.clone(), *line, *pat);
                        run.entry(key).or_insert_with(|| {
                            (
                                Taint {
                                    kind: *kind,
                                    source: Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!("`{pat}` ({})", kind.describe()),
                                    },
                                    chain: Vec::new(),
                                },
                                false,
                            )
                        });
                    }
                    Ev::Call {
                        line,
                        callees,
                        name,
                    } => {
                        if callees.iter().any(|&g| graph.nodes[g].sanitizer) {
                            run.clear();
                            continue;
                        }
                        for &g in *callees {
                            for (k, t) in &outs[g] {
                                if !run.contains_key(k) {
                                    let mut t = t.clone();
                                    t.chain.push(Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!(
                                            "returned through `{name}` into `{}`",
                                            graph.nodes[i].qualified()
                                        ),
                                    });
                                    run.insert(k.clone(), (t, false));
                                }
                            }
                        }
                        for &g in *callees {
                            for (k, (t, _)) in &run {
                                if !ins[g].contains_key(k) {
                                    let mut t = t.clone();
                                    t.chain.push(Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!(
                                            "passed into `{}`",
                                            graph.nodes[g].qualified()
                                        ),
                                    });
                                    ins[g].insert(k.clone(), t);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            for (k, (t, from_param)) in run {
                if !from_param && !outs[i].contains_key(&k) {
                    outs[i].insert(k, t);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 4. Sink exposure = in ∪ out, each element with its full chain.
    let mut sinks = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(name) = &node.sink else { continue };
        let mut exposure: Set = ins[i].clone();
        for (k, t) in &outs[i] {
            exposure.entry(k.clone()).or_insert_with(|| t.clone());
        }
        let sink_hop = Hop {
            path: node.path.clone(),
            line: node.line,
            what: format!("det-sink({name}) `{}`", node.qualified()),
        };
        let flows = exposure.into_values().map(|t| {
            let mut chain = vec![t.source];
            chain.extend(t.chain);
            chain.push(sink_hop.clone());
            (t.kind, chain)
        });
        sinks.push(SinkRow {
            name: name.clone(),
            fn_name: node.qualified(),
            path: node.path.clone(),
            line: node.line,
            flows: flows.collect(),
        });
    }
    sinks.sort_by(|a, b| (&a.name, &a.path).cmp(&(&b.name, &b.path)));
    sort_findings(&mut findings);
    waived.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    DetFlow {
        sinks,
        findings,
        waived,
        fns_analyzed: n,
    }
}

impl DetFlow {
    /// The `det-flow` ratchet rows: one exposure certificate per sink.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let row = |s: &SinkRow| {
            (
                (Analysis::DetFlow, s.name.clone(), s.path.clone()),
                Value::Taints(s.taints()),
            )
        };
        self.sinks.iter().map(row).collect()
    }

    /// The `det_flow` section: exposure growth becomes one
    /// [`Rule::DetFlow`] finding per flow into the grown sink, anchored at
    /// the sink's declaration and carrying the full chain.
    #[must_use]
    pub fn section(self, cmp: &Comparison, scope: &Scope<'_>) -> Section {
        let cmp = cmp.of(Analysis::DetFlow);
        let mut findings = self.findings;
        for g in &cmp.growth {
            let certified = g
                .baseline
                .map_or_else(|| "nothing (new sink)".to_owned(), Value::render);
            let sink = self
                .sinks
                .iter()
                .find(|s| s.name == g.name() && s.path == g.path());
            for (kind, chain) in sink.iter().flat_map(|s| &s.flows) {
                let src_hop = &chain[0];
                let message = format!(
                    "{} from {} at {}:{} reaches det-sink({}) `{}`, certified {certified} in \
                     {RATCHET_PATH}; sanitize before emission (BTree rebuild / sort / \
                     index-tagged merge), waive at the source with \
                     `hcperf-lint: allow(det-flow)` and a reason, or regenerate \
                     certificates deliberately with --update-baselines",
                    kind.describe(),
                    src_hop.what,
                    src_hop.path,
                    src_hop.line,
                    g.name(),
                    sink.map_or("", |s| s.fn_name.as_str()),
                );
                let line = sink.map_or(1, |s| s.line);
                findings.push(Finding {
                    chain: chain.clone(),
                    ..scope.finding(Rule::DetFlow, g.path(), line, message)
                });
            }
        }
        sort_findings(&mut findings);

        let clean = self.sinks.iter().filter(|s| s.taints() == 0).count();
        let flows: usize = self.sinks.iter().map(SinkRow::taints).sum();
        let status = |s: &SinkRow| Value::Taints(s.taints()).render();
        let sinks: Vec<String> = self
            .sinks
            .iter()
            .map(|s| {
                format!(
                    "{{\"sink\":\"{}\",\"fn\":\"{}\",\"path\":\"{}\",\"line\":{},\"taints\":{},\"status\":\"{}\"}}",
                    json_escape(&s.name),
                    json_escape(&s.fn_name),
                    json_escape(&s.path),
                    s.line,
                    s.taints(),
                    status(s),
                )
            })
            .collect();
        let mut lines: Vec<String> = self
            .sinks
            .iter()
            .map(|s| {
                format!(
                    "sink {:<24} {:<12} {} @ {}:{}",
                    s.name,
                    status(s),
                    s.fn_name,
                    s.path,
                    s.line
                )
            })
            .collect();
        lines.push(format!(
            "hcperf-lint det-flow: {} sinks ({clean} clean), {} flows, {} fns, {} findings, {} waived",
            self.sinks.len(),
            flows,
            self.fns_analyzed,
            findings.len(),
            self.waived.len(),
        ));
        let mut section = Section::new("det_flow", findings, self.waived, Some(cmp));
        section.json = vec![
            format!("\"sinks\":[{}]", sinks.join(",")),
            format!("\"flows\":{flows}"),
            format!("\"fns_analyzed\":{}", self.fns_analyzed),
        ];
        section.lines = lines;
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::{compare, parse, render};
    use crate::workspace::SourceFile;

    fn analyze_src(rel: &str, raw: &str) -> DetFlow {
        let file = SourceFile::new(rel, "crates/core/src", raw.to_owned());
        analyze(&Scope::new([&file]))
    }

    #[test]
    fn taint_flows_through_helper_with_three_hop_chain() {
        let a = analyze_src(
            "crates/core/src/lib.rs",
            "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m = HashMap::new();
    m.values().copied().collect()
}
fn shape() -> Vec<u32> {
    gather()
}
// hcperf-lint: det-sink(out)
fn emit() {
    let v = shape();
    drop(v);
}
",
        );
        assert_eq!(a.sinks.len(), 1);
        assert_eq!(a.sinks[0].taints(), 1, "{:?}", a.sinks);
        let chain = &a.sinks[0].flows[0].1;
        // source (gather:3) -> shape's call (7) -> emit's call (11) -> sink decl (10)
        assert_eq!(chain[0].line, 3, "{chain:?}");
        assert!(chain[0].what.contains("HashMap"));
        assert_eq!(chain[1].line, 7, "{chain:?}");
        assert_eq!(chain[2].line, 11, "{chain:?}");
        assert_eq!(chain.last().unwrap().line, 10, "{chain:?}");
        assert!(chain.last().unwrap().what.contains("det-sink(out)"));
    }

    #[test]
    fn param_taint_reaches_sink_through_callee() {
        let a = analyze_src(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(out)
fn write_out(v: &[u32]) {
    drop(v);
}
fn forward(v: Vec<u32>) {
    write_out(&v);
}
fn produce() {
    let m = std::collections::HashMap::<u32, u32>::new();
    let v: Vec<u32> = m.into_values().collect();
    forward(v);
}
",
        );
        assert_eq!(a.sinks[0].taints(), 1, "{:?}", a.sinks);
        let whats: Vec<&str> = a.sinks[0].flows[0]
            .1
            .iter()
            .map(|h| h.what.as_str())
            .collect();
        assert!(
            whats.iter().any(|w| w.contains("passed into `forward`")),
            "{whats:?}"
        );
        assert!(
            whats.iter().any(|w| w.contains("passed into `write_out`")),
            "{whats:?}"
        );
    }

    #[test]
    fn sort_unstable_kills_taint_before_sink() {
        let a = analyze_src(
            "crates/core/src/lib.rs",
            "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut v: Vec<u32> = m.into_values().collect();
    v.sort_unstable();
    v
}
// hcperf-lint: det-sink(out)
fn emit() {
    let v = gather();
    drop(v);
}
",
        );
        assert_eq!(a.sinks[0].taints(), 0, "{:?}", a.sinks);
        assert!(a.sinks[0].flows.is_empty());
    }

    #[test]
    fn declared_sanitizer_fn_is_trusted_and_clears_callers() {
        let tainted = "\
fn gather(rx: Receiver<u32>) -> Vec<u32> {
    let mut v = Vec::new();
    while let Ok(x) = rx.recv() {
        v.push(x);
    }
    v
}
// hcperf-lint: det-sink(out)
fn emit(rx: Receiver<u32>) {
    let v = gather(rx);
    drop(v);
}
";
        let a = analyze_src("crates/core/src/lib.rs", tainted);
        assert_eq!(
            a.sinks[0].taints(),
            1,
            "recv order must taint: {:?}",
            a.sinks
        );

        let merged = "\
// hcperf-lint: det-sanitizer(index-tagged-merge)
fn gather(rx: Receiver<u32>) -> Vec<u32> {
    let mut v = Vec::new();
    while let Ok(x) = rx.recv() {
        v.push(x);
    }
    v
}
// hcperf-lint: det-sink(out)
fn emit(rx: Receiver<u32>) {
    let v = gather(rx);
    drop(v);
}
";
        let a = analyze_src("crates/core/src/lib.rs", merged);
        assert_eq!(a.sinks[0].taints(), 0, "{:?}", a.sinks);
    }

    #[test]
    fn waived_source_is_excluded_with_reason() {
        let a = analyze_src(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(out)
fn emit() {
    let m = std::collections::HashMap::<u32, u32>::new(); // hcperf-lint: allow(det-flow): membership only, never iterated
    drop(m);
}
",
        );
        assert_eq!(a.sinks[0].taints(), 0, "{:?}", a.sinks);
        assert_eq!(a.waived.len(), 1);
        assert_eq!(
            a.waived[0].waived.as_deref(),
            Some("membership only, never iterated")
        );
    }

    #[test]
    fn unattached_marker_and_duplicate_name_are_findings() {
        let a = analyze_src(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(orphan)

// (no fn follows within 3 lines)

// hcperf-lint: det-sink(dup)
fn a() {}
// hcperf-lint: det-sink(dup)
fn b() {}
",
        );
        let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(a.findings.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("does not attach"), "{msgs:?}");
        assert!(
            msgs[1].contains("duplicate det-sink name `dup`"),
            "{msgs:?}"
        );
    }

    #[test]
    fn certs_round_trip_and_ratchet_on_growth() {
        // A HashMap gathered into the sink, optionally sorted first.
        let flow = |sort: &str| {
            let src = format!(
                "fn gather() -> Vec<u32> {{\n    let m = std::collections::HashMap::<u32, u32>::new();\n    \
                 let mut v: Vec<u32> = m.into_values().collect();\n    {sort}\n    v\n}}\n\
                 // hcperf-lint: det-sink(out)\nfn emit() {{\n    let v = gather();\n    drop(v);\n}}\n"
            );
            analyze_src("crates/core/src/lib.rs", &src)
        };
        let recorded = flow("v.sort_unstable();").rows();
        assert_eq!(recorded.values().next(), Some(&Value::Taints(0)));
        assert_eq!(parse(&render(&recorded)).unwrap(), recorded);

        // clean -> tainted trips growth with the chain attached.
        let tainted = flow("");
        let tainted_rows = tainted.rows();
        let cmp = compare(&tainted_rows, &recorded);
        assert_eq!(cmp.growth.len(), 1);
        assert_eq!(cmp.growth[0].name(), "out");
        let file = SourceFile::new("crates/core/src/lib.rs", "crates/core/src", String::new());
        let section = tainted.section(&cmp, &Scope::new([&file]));
        assert_eq!(section.exit_code, crate::report::exit::RATCHET);
        assert_eq!(section.findings.len(), 1);
        assert_eq!(section.findings[0].line, 8, "sink declaration");
        assert!(section.findings[0].message.contains("certified clean"));
        assert_eq!(section.findings[0].chain.len(), 3);

        // tainted -> clean is shrink; a new sink is growth.
        let cmp = compare(&recorded, &tainted_rows);
        assert!(cmp.growth.is_empty());
        assert_eq!(cmp.shrink.len(), 1);
        assert_eq!(compare(&recorded, &Rows::new()).growth.len(), 1);
        assert!(parse("det-flow\tx\tbogus\tp.rs\n").is_err());
        assert!(parse("det-flow\tx\ttainted:0\tp.rs\n").is_err());
    }

    #[test]
    fn wall_clock_sources_taint_sinks_in_bench_too() {
        let body = "\
// hcperf-lint: det-sink(out)
fn emit() {
    let t = Instant::now();
    drop(t);
}
";
        let file = SourceFile::new("crates/bench/src/lib.rs", "crates/bench/src", body.into());
        let a = analyze(&Scope::new([&file]));
        assert_eq!(a.sinks[0].taints(), 1, "{:?}", a.sinks);
    }
}
