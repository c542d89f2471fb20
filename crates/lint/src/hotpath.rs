//! Hot-path purity and panic-surface analysis.
//!
//! HCPerf's dispatch/γ-search path must stay allocation-free, keep a
//! minimal panic surface and never block. This pass enforces all three
//! *structurally*: functions tagged `// hcperf-lint: hot-path-root` seed a
//! reachability query over the [`crate::callgraph`] call graph, and every
//! function in the reachable set is scanned for
//!
//! * **[`Rule::HotPathAlloc`]** — allocation constructs: `vec!`,
//!   `Vec::new`, `Box::new`, `to_vec`, `collect`, `format!`,
//!   `String::from`, `.clone()`;
//! * **[`Rule::HotPathPanic`]** — `unwrap`/`expect`/`panic!`-family macros
//!   and slice indexing (`x[i]`), each a potential panic;
//! * **[`Rule::HotPathBlocking`]** — locks, channel `recv`, sleeps, file and
//!   socket I/O and printing, each of which can stall dispatch for an
//!   unbounded wall-clock time. Every unwaived site is a finding.
//!
//! The alloc and panic rules ratchet per `(rule, file)` count in the
//! `hot-path` rows of [`crate::ratchet::RATCHET_PATH`], which may only
//! shrink. The call graph over-approximates (see `callgraph` docs), so
//! the ratchet also absorbs same-named functions that are not truly on a
//! hot path; individual sites of any of the three rules can be excused
//! with the ordinary `// hcperf-lint: allow(hot-path-alloc): <reason>`
//! waiver syntax.

use crate::ratchet::{Analysis, Comparison, Rows, Value};
use crate::report::{json_escape, sort_findings, Finding, Rule, Section};
use crate::rules::count_total;
use crate::source::{is_ident_byte, MaskedFile, Words};
use crate::workspace::Scope;

const ALLOC_PATTERNS: [&str; 8] = [
    "vec!",
    "Vec::new",
    "Box::new",
    "to_vec",
    "collect",
    "format!",
    "String::from",
    ".clone(",
];

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

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

/// Result of the hot-path analysis.
#[derive(Debug)]
pub struct HotPath {
    /// Qualified names of the declared roots, in graph order.
    pub roots: Vec<String>,
    /// Qualified names of every reachable function, in graph order.
    pub reachable: Vec<String>,
    /// Every unwaived alloc/panic site, with its exact line.
    pub sites: Vec<Finding>,
    /// Every unwaived blocking site; each one fails the section.
    pub blocking: Vec<Finding>,
    /// Sites suppressed by `allow(hot-path-…)` waivers.
    pub waived: Vec<Finding>,
}

/// Scans one function body (a byte range of masked text) for violation
/// sites: `(rule, line, construct)`.
fn scan_body(file: &MaskedFile, body: (usize, usize)) -> Vec<(Rule, usize, String)> {
    let (masked, lines) = (file.masked.as_str(), &file.lines);
    let bytes = masked.as_bytes();
    let words = Words::new(
        ALLOC_PATTERNS
            .into_iter()
            .chain(PANIC_PATTERNS)
            .chain(BLOCKING_PATTERNS),
    );
    let mut sites: Vec<(Rule, usize, String)> = words
        .find(masked, body)
        .into_iter()
        .map(|(k, at)| {
            let rule = if k < ALLOC_PATTERNS.len() {
                Rule::HotPathAlloc
            } else if k < ALLOC_PATTERNS.len() + PANIC_PATTERNS.len() {
                Rule::HotPathPanic
            } else {
                Rule::HotPathBlocking
            };
            (
                rule,
                lines.line_of(at),
                words.pattern(k).trim_end_matches('(').to_owned(),
            )
        })
        .collect();
    // Slice indexing: `[` whose previous non-space byte ends an expression
    // (identifier, `)`, or `]`). `#[attr]`, `vec![…]`, `&[T]` types and
    // array literals all fail that test.
    for at in (body.0..body.1).filter(|&at| bytes[at] == b'[') {
        let prev = bytes[..at].iter().rev().find(|b| !b.is_ascii_whitespace());
        if prev.is_some_and(|&p| is_ident_byte(p) || p == b')' || p == b']') {
            sites.push((
                Rule::HotPathPanic,
                lines.line_of(at),
                "slice-indexing".to_owned(),
            ));
        }
    }
    sites
}

/// Scans every function reachable from the declared roots.
#[must_use]
pub fn analyze(scope: &Scope<'_>) -> HotPath {
    let graph = &scope.graph;
    let reachable = graph.reachable_from_roots();
    let mut sites = Vec::new();
    let mut blocking = Vec::new();
    let mut waived = Vec::new();
    for &idx in &reachable {
        let node = &graph.nodes[idx];
        let Some(body) = node.body else { continue };
        let src = scope.file_of(idx);
        for (rule, line, construct) in scan_body(&src.masked, body) {
            let (what, fix) = match rule {
                Rule::HotPathAlloc => ("allocates", "hot paths must stay pure — restructure"),
                Rule::HotPathPanic => ("can panic", "hot paths must stay pure — restructure"),
                _ => (
                    "can block",
                    "the dispatch path must not wait on I/O, locks, channels or sleeps — move it out",
                ),
            };
            let message = format!(
                "`{construct}` {what} in hot-path-reachable fn `{}`; {fix}, or waive with \
                 `hcperf-lint: allow({rule})` and a reason",
                node.qualified(),
            );
            let f = Finding::at(rule, src, line, message);
            match src.masked.waiver(rule, line) {
                Some(reason) => waived.push(f.waived(Some(reason))),
                None if rule == Rule::HotPathBlocking => blocking.push(f),
                None => sites.push(f),
            }
        }
    }
    sort_findings(&mut sites);
    sort_findings(&mut blocking);
    let names = |idx: &[usize]| idx.iter().map(|&i| graph.nodes[i].qualified()).collect();
    HotPath {
        roots: names(&graph.roots()),
        reachable: names(&reachable),
        sites,
        blocking,
        waived,
    }
}

impl HotPath {
    /// The `hot-path` ratchet rows: unwaived sites per `(rule, file)`.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let mut rows = Rows::new();
        for f in &self.sites {
            let key = (Analysis::HotPath, f.rule.name().to_owned(), f.path.clone());
            let n = rows.entry(key).or_insert(Value::Count(0));
            if let Value::Count(n) = n {
                *n += 1;
            }
        }
        rows
    }

    /// The `hot_path` section. Every unwaived site in a grown row becomes
    /// a finding: the exact lines point the author at the sites, new and
    /// recorded alike. Every unwaived blocking site is a finding.
    #[must_use]
    pub fn section(self, cmp: &Comparison, recorded: &Rows) -> Section {
        let cmp = cmp.of(Analysis::HotPath);
        let current = count_total(&self.rows(), Analysis::HotPath);
        let grown = |f: &Finding| {
            cmp.growth
                .iter()
                .any(|g| g.name() == f.rule.name() && g.path() == f.path)
        };
        let mut findings: Vec<Finding> = self.sites.into_iter().filter(grown).collect();
        findings.extend(self.blocking);
        sort_findings(&mut findings);
        let summary = format!(
            "hcperf-lint hot-path: {} roots, {} reachable fns, {} findings, {} waived, sites {current}/{}",
            self.roots.len(),
            self.reachable.len(),
            findings.len(),
            self.waived.len(),
            count_total(recorded, Analysis::HotPath),
        );
        let roots: Vec<String> = self
            .roots
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect();
        let mut section = Section::new("hot_path", findings, self.waived, Some(cmp));
        section.json = vec![
            format!("\"roots\":[{}]", roots.join(",")),
            format!("\"reachable_fns\":{}", self.reachable.len()),
        ];
        section.lines.push(summary);
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file_marked;
    use crate::ratchet::{compare, parse, render};
    use crate::report::exit;
    use crate::source::mask;
    use crate::workspace::SourceFile;

    fn sites(src: &str) -> Vec<(Rule, usize, String)> {
        let m = mask(src);
        let parsed = parse_file_marked("t.rs", &m);
        let mut out = Vec::new();
        for item in &parsed.fns {
            if let Some(body) = item.body {
                out.extend(scan_body(&m, body));
            }
        }
        out
    }

    #[test]
    fn alloc_patterns_fire_with_exact_lines() {
        let src = "\
fn f() {
    let v = vec![1, 2];
    let b = Vec::new();
    let c = xs.iter().collect::<Vec<_>>();
    let d = buf.to_vec();
}
";
        let got = sites(src);
        let mut allocs: Vec<(usize, &str)> = got
            .iter()
            .filter(|(r, _, _)| *r == Rule::HotPathAlloc)
            .map(|(_, l, c)| (*l, c.as_str()))
            .collect();
        allocs.sort_unstable();
        assert_eq!(
            allocs,
            vec![(2, "vec!"), (3, "Vec::new"), (4, "collect"), (5, "to_vec")]
        );
    }

    #[test]
    fn panic_patterns_and_slice_indexing_fire() {
        let src = "\
fn f(xs: &[u32], i: usize) -> u32 {
    let a = xs[i];
    let b = opt.unwrap();
    panic!(\"boom\");
}
";
        let got = sites(src);
        let panics: Vec<(usize, &str)> = got
            .iter()
            .filter(|(r, _, _)| *r == Rule::HotPathPanic)
            .map(|(_, l, c)| (*l, c.as_str()))
            .collect();
        assert!(panics.contains(&(2, "slice-indexing")), "{panics:?}");
        assert!(panics.contains(&(3, ".unwrap()")), "{panics:?}");
        assert!(panics.contains(&(4, "panic!")), "{panics:?}");
    }

    #[test]
    fn attributes_types_and_macros_are_not_slice_indexing() {
        let src = "\
fn f(xs: &[u32]) -> [u8; 4] {
    #[allow(unused)]
    let v = vec![0u8; 4];
    let arr: [u8; 4] = [0; 4];
    arr
}
";
        let got = sites(src);
        let indexing = got.iter().filter(|(_, _, c)| c == "slice-indexing").count();
        assert_eq!(indexing, 0, "{got:?}");
    }

    #[test]
    fn collect_respects_word_boundaries() {
        let got = sites("fn f() { recollect(); let collected = 1; }");
        assert!(got.is_empty(), "{got:?}");
    }

    /// A root with `allocs` `to_vec` lines (lines 3..) and, optionally,
    /// one `unwrap` after them.
    fn hot(allocs: usize, unwrap: bool) -> HotPath {
        let mut src = "// hcperf-lint: hot-path-root\nfn root(xs: &[u32]) {\n".to_owned();
        src += &"    let v = xs.to_vec();\n".repeat(allocs);
        if unwrap {
            src += "    let _ = xs.first().unwrap();\n";
        }
        let file = SourceFile::new("crates/core/src/k.rs", "crates/core/src", src + "}\n");
        analyze(&Scope::new([&file]))
    }

    #[test]
    fn ruled_baseline_round_trips_and_compares() {
        let recorded = hot(2, true).rows();
        let counts: Vec<(&str, Value)> = recorded.iter().map(|(k, v)| (k.1.as_str(), *v)).collect();
        let want = [
            ("hot-path-alloc", Value::Count(2)),
            ("hot-path-panic", Value::Count(1)),
        ];
        assert_eq!(counts, want);
        assert_eq!(parse(&render(&recorded)).unwrap(), recorded);

        // A third allocation grows the alloc row, and the section reports
        // every site of that row with its line; the panic row is quiet.
        let grown = hot(3, true);
        let cmp = compare(&grown.rows(), &recorded);
        assert_eq!(cmp.growth.len(), 1);
        assert_eq!(cmp.growth[0].current, Some(Value::Count(3)));
        let section = grown.section(&cmp, &recorded);
        let lines: Vec<usize> = section.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 4, 5]);
        assert_eq!(section.exit_code, exit::RATCHET);

        // Dropping the unwrap removes the panic row: shrink, which passes.
        let shrunk = hot(2, false);
        let cmp = compare(&shrunk.rows(), &recorded);
        assert!(cmp.growth.is_empty());
        assert_eq!(cmp.shrink.len(), 1);
        assert_eq!(shrunk.section(&cmp, &recorded).exit_code, exit::CLEAN);
    }

    #[test]
    fn blocking_constructs_in_reachable_code_are_findings() {
        let src = "\
// hcperf-lint: hot-path-root
fn root() {
    let m = std::sync::Mutex::new(0u32);
    let _ = m.lock();
    println!(\"dispatch\");
}

// far enough below the marker not to inherit it
fn cold() {
    std::thread::sleep(d);
}
";
        let file = SourceFile::new("crates/core/src/k.rs", "crates/core/src", src.to_owned());
        let hot = analyze(&Scope::new([&file]));
        let lines: Vec<(usize, &str)> = hot
            .blocking
            .iter()
            .map(|f| (f.line, f.rule.name()))
            .collect();
        // The Mutex type, `.lock(` and `println!`; the unreachable sleep
        // is not scanned.
        let want = [
            (3, "hot-path-blocking"),
            (4, "hot-path-blocking"),
            (5, "hot-path-blocking"),
        ];
        assert_eq!(lines, want);
        assert!(hot.rows().is_empty(), "blocking sites are not ratchet rows");
        let section = hot.section(&Comparison::default(), &Rows::new());
        assert_eq!(section.exit_code, exit::FINDINGS);
        assert_eq!(section.findings.len(), 3);
    }

    #[test]
    fn rejects_malformed_baseline() {
        assert!(parse("hot-path\thot-path-alloc\ta.rs").is_err());
        assert!(parse("hot-path\thot-path-alloc\tx\ta.rs").is_err());
        assert!(parse("# c\nhot-path\thot-path-alloc\t3\ta.rs\n").is_ok());
    }
}
