//! The rule families, the per-file scan, and the source section: the
//! rules plus the unwrap ratchet over every file a rule set applies to.

use crate::ratchet::{Analysis, Comparison, Rows, Value};
use crate::report::{Finding, Rule, Section};
use crate::source::Words;
use crate::workspace::SourceFile;

/// Which rule families apply to a file (derived from its crate).
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// `Instant` / `SystemTime` / `thread::sleep`.
    pub wall_clock: bool,
    /// `HashMap` / `HashSet`, `thread_rng`-style entropy, and float `==`
    /// — the deterministic-crate rules.
    pub determinism: bool,
    /// The `unwrap()`/`expect()` ratchet (panic-surface accounting).
    pub unwrap_ratchet: bool,
}

impl RuleSet {
    /// Every rule family (the deterministic crates).
    pub const FULL: RuleSet = RuleSet {
        wall_clock: true,
        determinism: true,
        unwrap_ratchet: true,
    };
    /// Wall-clock only (crates that orchestrate but must not time things
    /// themselves: `cli`, `lint`, the umbrella `src/`).
    pub const WALL_CLOCK_ONLY: RuleSet = RuleSet {
        wall_clock: true,
        determinism: false,
        unwrap_ratchet: false,
    };
    /// Unwrap ratchet only: crates that legitimately read wall clocks
    /// (the harness times real execution) but whose library code must
    /// stay panic-free — a worker pool that panics takes a fleet run
    /// down with it.
    pub const RATCHET_ONLY: RuleSet = RuleSet {
        wall_clock: false,
        determinism: false,
        unwrap_ratchet: true,
    };
}

const WALL_CLOCK: &str =
    "wall-clock access breaks replayability; take times from the simulation clock";
const UNORDERED: &str =
    "iteration order is seeded per process; use BTreeMap/BTreeSet or an indexed Vec";
const ENTROPY: &str = "ambient entropy is not replayable; derive randomness from the scenario seed";

/// Identifier-style patterns with their rule and advice. Matched on
/// masked source with identifier boundaries on both sides, so `Instant`
/// does not fire inside `InstantLike` and never inside comments, strings,
/// or test modules.
const WORD_RULES: [(&str, Rule, &str); 8] = [
    ("Instant", Rule::WallClock, WALL_CLOCK),
    ("SystemTime", Rule::WallClock, WALL_CLOCK),
    ("thread::sleep", Rule::WallClock, WALL_CLOCK),
    ("HashMap", Rule::UnorderedIteration, UNORDERED),
    ("HashSet", Rule::UnorderedIteration, UNORDERED),
    ("thread_rng", Rule::Entropy, ENTROPY),
    ("from_entropy", Rule::Entropy, ENTROPY),
    ("RandomState", Rule::Entropy, ENTROPY),
];

/// Result of scanning one file.
#[derive(Debug)]
pub struct FileScan {
    /// Findings that no waiver covers (fail the run).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a matching waiver (reported, non-fatal).
    pub waived: Vec<Finding>,
    /// `unwrap()`/`expect()` occurrences in library code after waivers,
    /// fed into the ratchet comparison.
    pub unwrap_count: usize,
}

/// Scans one file's source text under `rules`.
#[must_use]
pub fn scan_file(path: &str, source: &str, rules: RuleSet) -> FileScan {
    scan(&SourceFile::new(path, "", source.to_owned()), rules)
}

/// Scans one loaded file under `rules`.
#[must_use]
pub fn scan(file: &SourceFile, rules: RuleSet) -> FileScan {
    let masked = &file.masked;
    let mut raw: Vec<Finding> = Vec::new();

    for w in &masked.waivers {
        if w.rule.is_none() {
            raw.push(Finding::at(
                Rule::WaiverSyntax,
                file,
                w.line,
                format!(
                    "malformed waiver `{}`; expected `hcperf-lint: allow(<rule>): <reason>`",
                    w.reason
                ),
            ));
        }
    }

    let words = Words::new(WORD_RULES.iter().map(|w| w.0));
    for (k, at) in words.find(&masked.masked, (0, masked.masked.len())) {
        let (pat, rule, message) = WORD_RULES[k];
        let on = if rule == Rule::WallClock {
            rules.wall_clock
        } else {
            rules.determinism
        };
        if on {
            let line = masked.lines.line_of(at);
            raw.push(Finding::at(rule, file, line, format!("`{pat}`: {message}")));
        }
    }
    // Waiver and word findings interleave; report in line order.
    raw.sort_by_key(|a| (a.line, a.rule));
    if rules.determinism {
        scan_float_eq(&mut raw, file);
    }

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for mut f in raw {
        match masked.waiver(f.rule, f.line) {
            Some(reason) => {
                f.waived = Some(reason);
                waived.push(f);
            }
            None => findings.push(f),
        }
    }

    let unwrap_count = if rules.unwrap_ratchet {
        count_unwraps(file)
    } else {
        0
    };

    FileScan {
        findings,
        waived,
        unwrap_count,
    }
}

/// The source rules over every loaded file a [`RuleSet`] applies to.
#[derive(Debug, Default)]
pub struct SourceLint {
    findings: Vec<Finding>,
    waived: Vec<Finding>,
    /// The unwrap ratchet rows: one per file with a nonzero count.
    rows: Rows,
    files_scanned: usize,
}

/// Scans every file with a rule set, in load order.
#[must_use]
pub fn analyze(files: &[SourceFile]) -> SourceLint {
    let mut lint = SourceLint::default();
    for file in files {
        let Some(rules) = file.rule_set() else {
            continue;
        };
        let scan = scan(file, rules);
        lint.files_scanned += 1;
        lint.findings.extend(scan.findings);
        lint.waived.extend(scan.waived);
        if scan.unwrap_count > 0 {
            let key = (
                Analysis::Unwrap,
                Rule::UnwrapRatchet.name().to_owned(),
                file.rel.clone(),
            );
            lint.rows.insert(key, Value::Count(scan.unwrap_count));
        }
    }
    lint
}

impl SourceLint {
    /// The unwrap ratchet rows.
    #[must_use]
    pub fn rows(&self) -> Rows {
        self.rows.clone()
    }

    /// The `source` section.
    #[must_use]
    pub fn section(self, cmp: &Comparison, recorded: &Rows) -> Section {
        let total = |rows: &Rows| count_total(rows, Analysis::Unwrap);
        let summary = format!(
            "hcperf-lint source: {} files, {} findings, {} waived, unwrap ratchet {}/{}",
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
            total(&self.rows),
            total(recorded),
        );
        let ratchet = Some(cmp.of(Analysis::Unwrap));
        let mut section = Section::new("source", self.findings, self.waived, ratchet);
        section.lines.push(summary);
        section
    }
}

/// Sum of the count rows of `analysis`.
#[must_use]
pub fn count_total(rows: &Rows, analysis: Analysis) -> usize {
    rows.iter()
        .filter(|(k, _)| k.0 == analysis)
        .map(|(_, v)| match v {
            Value::Count(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Flags `==`/`!=` where either operand is a float literal (or a known
/// float accessor). Exact float comparison is only sound against a value
/// stored verbatim, never a computed one — use the approx helpers instead.
fn scan_float_eq(out: &mut Vec<Finding>, file: &SourceFile) {
    let masked = file.masked.masked.as_str();
    let bytes = masked.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==";
        let is_ne = two == b"!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Reject <=, >=, pattern guards like `x !== …` (not Rust, but be
        // safe), and the trailing half of a previous `==`.
        let prev = i.checked_sub(1).map(|p| bytes[p]);
        if is_eq && matches!(prev, Some(b'=') | Some(b'!') | Some(b'<') | Some(b'>')) {
            i += 2;
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            i += 3;
            continue;
        }
        let left = token_before(masked, i);
        let right = token_after(masked, i + 2);
        if is_float_operand(&left) || is_float_operand(&right) {
            let line = file.masked.lines.line_of(i);
            out.push(Finding::at(
                Rule::FloatEq,
                file,
                line,
                format!(
                    "float `{}` comparison (`{left}` vs `{right}`); compare with an epsilon or justify the exact sentinel",
                    if is_eq { "==" } else { "!=" }
                ),
            ));
        }
        i += 2;
    }
}

const TOKEN_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.()";

fn token_before(masked: &str, op: usize) -> String {
    let bytes = masked.as_bytes();
    let mut end = op;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    loop {
        while start > 0 && TOKEN_BYTES.contains(&bytes[start - 1]) {
            start -= 1;
        }
        // Re-attach a signed exponent (`-` is not a token byte, so `1.5e-3`
        // would otherwise split at the sign and read back as just `3`).
        if start >= 3
            && matches!(bytes[start - 1], b'+' | b'-')
            && matches!(bytes[start - 2], b'e' | b'E')
            && bytes[start - 3].is_ascii_digit()
        {
            start -= 1;
        } else {
            break;
        }
    }
    masked[start..end].to_owned()
}

fn token_after(masked: &str, from: usize) -> String {
    let bytes = masked.as_bytes();
    let mut start = from;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    if bytes.get(end) == Some(&b'-') {
        end += 1;
    }
    loop {
        while end < bytes.len() && TOKEN_BYTES.contains(&bytes[end]) {
            end += 1;
        }
        // Re-attach a signed exponent, mirroring `token_before`.
        if end < bytes.len()
            && matches!(bytes[end], b'+' | b'-')
            && end >= start + 2
            && matches!(bytes[end - 1], b'e' | b'E')
            && bytes[end - 2].is_ascii_digit()
        {
            end += 1;
        } else {
            break;
        }
    }
    masked[start..end].to_owned()
}

/// Accessors that return `f64` on this workspace's newtypes; comparing
/// their results exactly is as fragile as comparing raw floats.
const FLOAT_ACCESSORS: [&str; 4] = [".as_secs()", ".as_millis()", ".as_hz()", ".as_meters()"];

fn is_float_operand(token: &str) -> bool {
    if FLOAT_ACCESSORS.iter().any(|a| token.ends_with(a)) {
        return true;
    }
    is_float_literal(token)
}

fn is_float_literal(token: &str) -> bool {
    let t = token.strip_prefix('-').unwrap_or(token);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    let t = t.strip_suffix('.').unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    // `1.0`, `1.5e-3`, `1e9` are floats; `10`, `0x1f`, `1_000` are not.
    let has_dot = t.contains('.');
    let has_exp = !t.starts_with("0x")
        && t.contains(['e', 'E'])
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, 'e' | 'E' | '+' | '-' | '.' | '_'));
    (has_dot || has_exp)
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-' | '_'))
}

/// Counts `.unwrap()` / `.expect(` in masked library code, skipping lines
/// covered by an `allow(unwrap-ratchet)` waiver.
fn count_unwraps(file: &SourceFile) -> usize {
    let text = file.masked.masked.as_str();
    let sites = text
        .match_indices(".unwrap()")
        .chain(text.match_indices(".expect("));
    let waived = |at: usize| {
        file.masked
            .waiver(Rule::UnwrapRatchet, file.masked.lines.line_of(at))
    };
    sites.filter(|&(at, _)| waived(at).is_none()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        scan_file("test.rs", src, RuleSet::FULL)
    }

    #[test]
    fn word_boundaries_respected() {
        let s = scan("struct InstantLike; fn f(x: MyHashMapper) {}\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        let s = scan("use std::time::Instant;\n");
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].rule, Rule::WallClock);
    }

    #[test]
    fn float_eq_detection() {
        let hits = [
            "if x == 0.0 {}",
            "if 1.5e-3 != y {}",
            "if t.as_secs() == u {}",
            "if x == -2.5f64 {}",
        ];
        for h in hits {
            let s = scan(h);
            assert_eq!(s.findings.len(), 1, "{h}");
            assert_eq!(s.findings[0].rule, Rule::FloatEq, "{h}");
        }
        let clean = [
            "if x == 0 {}",
            "if x <= 1.0 {}",
            "if x >= 1.0 {}",
            "let y = x == y;",
            "match x { 0 => 1, _ => 2 }",
        ];
        for c in clean {
            let s = scan(c);
            assert!(s.findings.is_empty(), "{c}: {:?}", s.findings);
        }
    }

    #[test]
    fn waiver_suppresses_only_matching_rule_nearby() {
        let src = "\
// hcperf-lint: allow(float-eq): exact sentinel by construction
if x == 0.0 {}
if y == 0.0 {}
";
        let s = scan(src);
        assert_eq!(s.waived.len(), 1);
        assert_eq!(s.waived[0].line, 2);
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].line, 3);
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "let m = HashMap::new(); // hcperf-lint: allow(unordered-iteration): scratch map, never iterated\n";
        let s = scan(src);
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
    }

    #[test]
    fn unwrap_count_skips_tests_and_waived_lines() {
        let src = "\
fn lib() {
    a.unwrap();
    b.expect(\"msg\");
    c.unwrap(); // hcperf-lint: allow(unwrap-ratchet): infallible by construction
}
#[cfg(test)]
mod tests {
    fn t() { z.unwrap(); }
}
";
        let s = scan(src);
        assert_eq!(s.unwrap_count, 2);
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let s = scan("let x = 1; // hcperf-lint: allow(float-eq)\n");
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].rule, Rule::WaiverSyntax);
    }
}
