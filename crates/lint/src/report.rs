//! Rule identifiers, findings, report sections, and the human / JSON
//! renderers.

use std::fmt;

use crate::ratchet::{Comparison, Delta, Value};
use crate::workspace::SourceFile;

/// Version stamp carried by the `--json` report. Bump when a
/// consumer-visible key is added, removed, or retyped. Version 2 added
/// the `det_flow` section and structured `chain` arrays on findings;
/// version 3 made the report one document with every section, each with
/// its own findings, ratchet deltas and exit code; version 4 dropped the
/// `eq_coverage` and `wcet` sections.
pub const SCHEMA_VERSION: u32 = 4;

/// Process exit codes, one per failure class so CI logs are unambiguous.
pub mod exit {
    /// No findings, ratchet within baseline, every audit target feasible.
    pub const CLEAN: i32 = 0;
    /// Unwaived findings (including malformed waivers and markers).
    pub const FINDINGS: i32 = 1;
    /// A ratchet row grew past `crates/lint/ratchet.txt`.
    pub const RATCHET: i32 = 2;
    /// A task graph or scenario preset failed the schedulability audit.
    pub const SCHEDULABILITY: i32 = 3;
    /// Bad command line, unreadable workspace, or missing ratchet file.
    pub const USAGE: i32 = 4;

    /// The process exit code over per-section codes: the first of
    /// [`SCHEDULABILITY`], [`FINDINGS`], [`RATCHET`] any section reports,
    /// else [`CLEAN`]. A failed audit invalidates the paper's timing
    /// claim whatever else holds; a ratchet row can be re-recorded
    /// deliberately, so growth ranks last.
    #[must_use]
    pub fn combine(codes: impl IntoIterator<Item = i32>) -> i32 {
        let codes: Vec<i32> = codes.into_iter().collect();
        [SCHEDULABILITY, FINDINGS, RATCHET]
            .into_iter()
            .find(|c| codes.contains(c))
            .unwrap_or(CLEAN)
    }
}

/// The rules every analysis reports findings under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant` / `SystemTime` / `thread::sleep` outside `harness`/`store`.
    WallClock,
    /// `HashMap` / `HashSet` in deterministic crates: per-process order.
    UnorderedIteration,
    /// `thread_rng` / `from_entropy` / `RandomState`: ambient entropy.
    Entropy,
    /// `==` / `!=` against float operands outside approx helpers.
    FloatEq,
    /// `unwrap()` / `expect()` in library code, counted per file.
    UnwrapRatchet,
    /// A `hcperf-lint:` comment that does not parse as a waiver.
    WaiverSyntax,
    /// An allocation (`vec!`, `collect`, …) in hot-path-reachable code.
    HotPathAlloc,
    /// A panic source (`unwrap`, `panic!`, slice indexing) in
    /// hot-path-reachable code.
    HotPathPanic,
    /// Blocking (I/O, locks, channel `recv`, sleep, printing) in
    /// hot-path-reachable code: unbounded latency.
    HotPathBlocking,
    /// A nondeterminism source flows into a `det-sink` past its `det-flow`
    /// ratchet row. Waivable at the source; carries the call chain.
    DetFlow,
    /// A `det-sink(…)` / `det-sanitizer(…)` marker that attaches to no
    /// `fn`, or a sink name declared twice.
    DetSink,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 11] = [
        Rule::WallClock,
        Rule::UnorderedIteration,
        Rule::Entropy,
        Rule::FloatEq,
        Rule::UnwrapRatchet,
        Rule::WaiverSyntax,
        Rule::HotPathAlloc,
        Rule::HotPathPanic,
        Rule::HotPathBlocking,
        Rule::DetFlow,
        Rule::DetSink,
    ];

    /// The kebab-case name used in diagnostics and waiver comments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::Entropy => "entropy",
            Rule::FloatEq => "float-eq",
            Rule::UnwrapRatchet => "unwrap-ratchet",
            Rule::WaiverSyntax => "waiver-syntax",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathBlocking => "hot-path-blocking",
            Rule::DetFlow => "det-flow",
            Rule::DetSink => "det-sink",
        }
    }

    /// Parses a waiver rule name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// True for rules whose unwaived findings only ever report ratchet
    /// growth (a grown hot-path row's sites, a tainted sink); every
    /// other unwaived finding fails its section on its own.
    #[must_use]
    pub fn reports_growth(self) -> bool {
        matches!(
            self,
            Rule::HotPathAlloc | Rule::HotPathPanic | Rule::DetFlow
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One hop of an interprocedural det-flow chain: where taint entered,
/// passed through a call, or reached the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Workspace-relative path of the hop.
    pub path: String,
    /// 1-based line number of the hop.
    pub line: usize,
    /// What happened at this hop (source pattern, call, sink).
    pub what: String,
}

/// One diagnostic: a rule fired at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Waiver reason when the site carries a matching
    /// `// hcperf-lint: allow(<rule>): <reason>` comment.
    pub waived: Option<String>,
    /// For det-flow findings: the source→…→sink call chain, one hop per
    /// entry with exact file/line. Empty for every other rule.
    pub chain: Vec<Hop>,
}

impl Finding {
    /// An unwaived finding at 1-based `line` of `src`, quoting that line.
    #[must_use]
    pub fn at(rule: Rule, src: &SourceFile, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: src.rel.clone(),
            line,
            snippet: src.snippet(line),
            message,
            waived: None,
            chain: Vec::new(),
        }
    }

    /// The same finding, waived with `reason` (`None` leaves it unwaived).
    #[must_use]
    pub fn waived(self, reason: Option<String>) -> Finding {
        Finding {
            waived: reason,
            ..self
        }
    }

    /// Renders the `file:line: [rule] message` human diagnostic.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        );
        if let Some(reason) = &self.waived {
            s.push_str(&format!("\n    waived: {reason}"));
        }
        for hop in &self.chain {
            s.push_str(&format!("\n    -> {}:{} {}", hop.path, hop.line, hop.what));
        }
        s
    }
}

/// Sorts findings by (path, line, rule), the report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
}

/// Escapes a string for inclusion in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a finding as a JSON object. Every finding — file-anchored
/// or (via [`tagged_finding_json`]) from the schedulability audit —
/// carries the same `rule`/`severity`/`target` keys, so downstream
/// tooling parses one schema.
#[must_use]
pub fn finding_json(f: &Finding) -> String {
    let severity = if f.waived.is_some() {
        "waived"
    } else {
        "error"
    };
    let mut s = format!(
        "{{\"rule\":\"{}\",\"severity\":\"{severity}\",\"target\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"message\":\"{}\"",
        f.rule,
        json_escape(&f.path),
        json_escape(&f.path),
        f.line,
        json_escape(&f.snippet),
        json_escape(&f.message),
    );
    if let Some(reason) = &f.waived {
        s.push_str(&format!(",\"waived\":\"{}\"", json_escape(reason)));
    }
    if !f.chain.is_empty() {
        let hops: Vec<String> = f
            .chain
            .iter()
            .map(|h| {
                format!(
                    "{{\"path\":\"{}\",\"line\":{},\"what\":\"{}\"}}",
                    json_escape(&h.path),
                    h.line,
                    json_escape(&h.what),
                )
            })
            .collect();
        s.push_str(&format!(",\"chain\":[{}]", hops.join(",")));
    }
    s.push('}');
    s
}

/// Serializes a non-source finding (no file anchor) in the shared
/// `rule`/`severity`/`target` schema — used by the schedulability audit,
/// whose subjects are graphs and scenario presets rather than lines.
#[must_use]
pub fn tagged_finding_json(rule: &str, severity: &str, target: &str, message: &str) -> String {
    format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"target\":\"{}\",\"message\":\"{}\"}}",
        json_escape(rule),
        json_escape(severity),
        json_escape(target),
        json_escape(message),
    )
}

/// Formats an `Option<f64>` as JSON (`null` when absent).
#[must_use]
pub fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".to_owned(),
    }
}

/// One analysis's part of the report.
#[derive(Debug)]
pub struct Section {
    /// JSON key (`source`, `hot_path`, …).
    pub name: &'static str,
    /// Unwaived file-anchored findings.
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons.
    pub waived: Vec<Finding>,
    /// Findings without a file anchor (the schedulability audit's),
    /// rendered in the shared JSON finding schema.
    pub tagged: Vec<String>,
    /// This section's ratchet deltas; `None` when it has no ratchet rows.
    pub ratchet: Option<Comparison>,
    /// Section-specific JSON members, each `"key":value`.
    pub json: Vec<String>,
    /// Human lines after the findings and ratchet notes; the last one is
    /// the section summary.
    pub lines: Vec<String>,
    /// The section's own exit code.
    pub exit_code: i32,
}

impl Section {
    /// A section whose exit code follows from its findings and ratchet:
    /// [`exit::FINDINGS`] for any finding that is not a growth report,
    /// else [`exit::RATCHET`] for any growth, else clean.
    #[must_use]
    pub fn new(
        name: &'static str,
        findings: Vec<Finding>,
        waived: Vec<Finding>,
        ratchet: Option<Comparison>,
    ) -> Section {
        let exit_code = if findings.iter().any(|f| !f.rule.reports_growth()) {
            exit::FINDINGS
        } else if ratchet.as_ref().is_some_and(|r| !r.growth.is_empty()) {
            exit::RATCHET
        } else {
            exit::CLEAN
        };
        Section {
            name,
            findings,
            waived,
            tagged: Vec::new(),
            ratchet,
            json: Vec::new(),
            lines: Vec::new(),
            exit_code,
        }
    }

    /// Human diagnostics: findings, ratchet growth and shrink, then the
    /// section's own lines.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let show = |v: Option<Value>, none: &str| v.map_or_else(|| none.to_owned(), Value::render);
        for d in self.ratchet.iter().flat_map(|r| &r.growth) {
            out.push_str(&format!(
                "{}: [{} {}] {} grew past the ratchet ({})\n",
                d.path(),
                d.key.0.name(),
                d.name(),
                show(d.current, "?"),
                show(d.baseline, "no row"),
            ));
        }
        for d in self.ratchet.iter().flat_map(|r| &r.shrink) {
            out.push_str(&format!(
                "note: {}: [{} {}] shrank to {} (was {}); refresh with --update-baselines\n",
                d.path(),
                d.key.0.name(),
                d.name(),
                show(d.current, "nothing"),
                show(d.baseline, "?"),
            ));
        }
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The section's JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let mut members = self.json.clone();
        let findings = self.findings.iter().map(finding_json);
        members.push(format!(
            "\"findings\":{}",
            list(findings.chain(self.tagged.iter().cloned()).collect())
        ));
        members.push(format!(
            "\"waived\":{}",
            list(self.waived.iter().map(finding_json).collect())
        ));
        if let Some(r) = &self.ratchet {
            let rows = |ds: &[Delta]| list(ds.iter().map(delta_json).collect());
            members.push(format!(
                "\"ratchet\":{{\"growth\":{},\"shrink\":{}}}",
                rows(&r.growth),
                rows(&r.shrink)
            ));
        }
        members.push(format!("\"exit_code\":{}", self.exit_code));
        format!("{{{}}}", members.join(","))
    }
}

fn delta_json(d: &Delta) -> String {
    let value = |v: Option<Value>| v.map_or_else(|| "null".to_owned(), Value::json);
    format!(
        "{{\"name\":\"{}\",\"path\":\"{}\",\"baseline\":{},\"current\":{}}}",
        json_escape(d.name()),
        json_escape(d.path()),
        value(d.baseline),
        value(d.current),
    )
}

/// Renders unwaived findings as GitHub Actions workflow commands
/// (`::error file=…,line=…::…`) so lint hits surface inline on PRs.
/// Annotation property values must not contain `,`/`::` ambiguity, so the
/// message is percent-escaped per the workflow-command convention.
#[must_use]
pub fn render_annotations(findings: &[Finding]) -> String {
    let escape = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    let mut out = String::new();
    for f in findings.iter().filter(|f| f.waived.is_none()) {
        let mut message = f.message.clone();
        if !f.chain.is_empty() {
            let rendered: Vec<String> = f
                .chain
                .iter()
                .map(|h| format!("{}:{} {}", h.path, h.line, h.what))
                .collect();
            message.push_str(&format!("; flow: {}", rendered.join(" -> ")));
        }
        out.push_str(&format!(
            "::error file={},line={},title=hcperf-lint {}::{}\n",
            f.path,
            f.line,
            f.rule,
            escape(&message)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }

    #[test]
    fn exit_precedence_is_schedulability_findings_ratchet() {
        use exit::*;
        assert_eq!(combine([CLEAN, CLEAN]), CLEAN);
        assert_eq!(combine([RATCHET, CLEAN]), RATCHET);
        assert_eq!(combine([RATCHET, FINDINGS]), FINDINGS);
        assert_eq!(combine([FINDINGS, SCHEDULABILITY, RATCHET]), SCHEDULABILITY);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
