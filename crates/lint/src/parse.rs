//! Token-tree extraction of `fn` items, `impl`/`trait` blocks, and call
//! sites from masked source (see [`crate::source::mask`]).
//!
//! This is not a Rust parser. It recognises exactly enough structure —
//! `impl`/`trait` headers, `fn` signatures, brace nesting, and the three
//! call shapes `name(…)` / `recv.name(…)` / `Seg::name(…)` — for
//! [`crate::callgraph`] to build an **over-approximate** call graph.
//! Anything it cannot classify it drops on the *precision* side, never the
//! *soundness* side: the resolver compensates by adding more candidate
//! edges, so hot-path reachability can gain false positives but not lose
//! true ones.
//!
//! Masked input is essential: comments, strings and `#[cfg(test)]` modules
//! are already spaces, so brace matching and keyword scans are safe, and
//! test-only functions simply do not exist here.

use crate::source::LineIndex;

/// One `fn` item found in a file: a node of the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`GammaScratch` for
    /// `impl GammaScratch { fn rank … }`; the *type*, not the trait, for
    /// `impl Scheduler for FifoScheduler`).
    pub impl_type: Option<String>,
    /// Parameter count, including a `self` receiver.
    pub arity: usize,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the `{ … }` body in the masked text (`None` for
    /// trait-method declarations without a default body).
    pub body: Option<(usize, usize)>,
    /// True when a `// hcperf-lint: hot-path-root` marker precedes the item.
    pub is_root: bool,
    /// Sink name when a `// hcperf-lint: det-sink(<name>)` marker precedes
    /// the item.
    pub sink: Option<String>,
    /// True when a `// hcperf-lint: det-sanitizer(<name>)` marker precedes
    /// the item.
    pub sanitizer: bool,
}

impl FnItem {
    /// `Type::name` for methods, `name` for free functions.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `name(…)` — a free function (or tuple-struct constructor).
    Free,
    /// `Seg::name(…)` — path call; the segment immediately before `::`.
    Path(String),
    /// `self.name(…)` — method on the enclosing impl type.
    SelfMethod,
    /// `expr.name(…)` — method on a receiver whose type is not inferable.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (the identifier before the parentheses).
    pub name: String,
    /// Argument count at the call site, excluding any method receiver.
    pub args: usize,
    /// Call shape.
    pub receiver: Receiver,
    /// 1-based line of the call.
    pub line: usize,
    /// Byte offset of the callee identifier in the masked text — lets the
    /// det-flow pass order the call among the body's sources and sanitizers.
    pub offset: usize,
}

/// Parse result for one file: items plus, per item, its call sites.
#[derive(Debug)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Call sites of `fns[i]` live in `calls[i]`.
    pub calls: Vec<Vec<CallSite>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Ident,
    Num,
    Punct(u8),
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: TokKind,
    start: usize,
    end: usize,
}

fn lex(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                start,
                end: i,
            });
        } else if b.is_ascii_digit() {
            // Numeric literal: one token, so `1.5` never reads as a method
            // call shape but `f(1)` still has a visible argument. A `.` is
            // part of the number only when a digit follows, so `0..n`
            // ranges and `self.0.push(x)` tuple-field calls survive.
            let start = i;
            while i < bytes.len() {
                let c = bytes[i];
                if c.is_ascii_alphanumeric() || c == b'_' {
                    i += 1;
                } else if c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 2;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                start,
                end: i,
            });
        } else {
            toks.push(Tok {
                kind: TokKind::Punct(b),
                start: i,
                end: i + 1,
            });
            i += 1;
        }
    }
    toks
}

const KEYWORDS: [&str; 20] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "let",
    "ref", "mut", "unsafe", "where", "dyn", "impl", "box", "await",
];

fn text<'a>(masked: &'a str, t: &Tok) -> &'a str {
    &masked[t.start..t.end]
}

fn is_punct(toks: &[Tok], at: usize, p: u8) -> bool {
    toks.get(at).is_some_and(|t| t.kind == TokKind::Punct(p))
}

/// Skips a balanced `<…>` generic list starting at the `<` token; returns
/// the index just past the closing `>`. `->` arrows never count as closers.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b'>') => {
                // `->` in an `Fn(…) -> R` bound: not a generics closer.
                let arrow = i > 0 && toks[i - 1].kind == TokKind::Punct(b'-');
                if !arrow {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skips a balanced `(…)` list starting at the `(` token; returns the index
/// just past the closing `)` plus the top-level comma count and whether a
/// top-level `self` identifier appears before the first comma.
fn scan_parens(toks: &[Tok], open: usize, masked: &str) -> (usize, usize, bool) {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut self_in_first = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, commas, self_in_first);
                }
            }
            TokKind::Punct(b',') if depth == 1 => commas += 1,
            TokKind::Ident if depth == 1 && commas == 0 && text(masked, &toks[i]) == "self" => {
                self_in_first = true;
            }
            _ => {}
        }
        i += 1;
    }
    (i, commas, self_in_first)
}

/// True when the parenthesised list `(…)` starting at `open` is empty.
fn parens_empty(toks: &[Tok], open: usize) -> bool {
    is_punct(toks, open + 1, b')')
}

/// Extracts the `impl`/`trait` header's subject type name and returns the
/// token index of the block's `{` (or past a terminating `;`).
fn parse_impl_header(toks: &[Tok], at: usize, masked: &str) -> (Option<String>, usize) {
    let mut i = at + 1;
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut last_top_ident: Option<String> = None;
    let mut collecting = true;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') if angle == 0 && paren == 0 => {
                return (last_top_ident, i);
            }
            TokKind::Punct(b';') if angle == 0 && paren == 0 => {
                return (last_top_ident, i + 1);
            }
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => {
                let arrow = i > 0 && toks[i - 1].kind == TokKind::Punct(b'-');
                if !arrow {
                    angle = angle.saturating_sub(1);
                }
            }
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren = paren.saturating_sub(1),
            TokKind::Ident if angle == 0 && paren == 0 => {
                let t = text(masked, &toks[i]);
                if t == "for" {
                    // `impl Trait for Type`: the subject restarts here.
                    last_top_ident = None;
                    collecting = true;
                } else if t == "where" {
                    collecting = false;
                } else if collecting {
                    last_top_ident = Some(t.to_owned());
                }
            }
            TokKind::Punct(b':')
                if angle == 0
                    && paren == 0
                    && !is_punct(toks, i + 1, b':')
                    && !(i > 0 && toks[i - 1].kind == TokKind::Punct(b':')) =>
            {
                // A lone `:` opens a supertrait/bound list (`trait Foo: Bar`);
                // whatever follows is not the subject. `::` path separators
                // (two colons) pass through untouched.
                collecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    (last_top_ident, i)
}

/// Finds the matching `}` for the `{` at token index `open`.
fn match_braces(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Extracts call sites from the body token slice `toks[from..to]`.
fn scan_calls(
    toks: &[Tok],
    from: usize,
    to: usize,
    masked: &str,
    lines: &LineIndex,
) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for k in from..to {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        // `foo(`, or `foo::<T>(` with a turbofish between name and parens.
        let mut open = k + 1;
        if is_punct(toks, k + 1, b':') && is_punct(toks, k + 2, b':') && is_punct(toks, k + 3, b'<')
        {
            open = skip_generics(toks, k + 3);
        }
        if !is_punct(toks, open, b'(') {
            continue;
        }
        let name = text(masked, &toks[k]);
        if KEYWORDS.contains(&name) {
            continue;
        }
        // `fn helper(` nested inside a body: a definition, not a call.
        if k > 0 && toks[k - 1].kind == TokKind::Ident && text(masked, &toks[k - 1]) == "fn" {
            continue;
        }
        let receiver = if k > 0 && toks[k - 1].kind == TokKind::Punct(b'.') {
            let self_recv = k >= 2
                && toks[k - 2].kind == TokKind::Ident
                && text(masked, &toks[k - 2]) == "self"
                && !(k >= 3 && toks[k - 3].kind == TokKind::Punct(b'.'));
            if self_recv {
                Receiver::SelfMethod
            } else {
                Receiver::Method
            }
        } else if k >= 2
            && toks[k - 1].kind == TokKind::Punct(b':')
            && toks[k - 2].kind == TokKind::Punct(b':')
        {
            match toks.get(k.wrapping_sub(3)) {
                Some(t) if k >= 3 && t.kind == TokKind::Ident => {
                    Receiver::Path(text(masked, t).to_owned())
                }
                _ => Receiver::Free,
            }
        } else {
            Receiver::Free
        };
        let args = if parens_empty(toks, open) {
            0
        } else {
            let (_, commas, _) = scan_parens(toks, open, masked);
            commas + 1
        };
        calls.push(CallSite {
            name: name.to_owned(),
            args,
            receiver,
            line: lines.line_of(toks[k].start),
            offset: toks[k].start,
        });
    }
    calls
}

/// Parses one masked file into items and call sites. A
/// `hot-path-root`, `det-sink(<name>)` or `det-sanitizer(<name>)` marker
/// ([`crate::source::MaskedFile`]) attaches to the next `fn` item within
/// 3 lines below it (attributes may sit between, doc comments should go
/// above the marker).
#[must_use]
pub fn parse_file_marked(path: &str, m: &crate::source::MaskedFile) -> ParsedFile {
    let masked = m.masked.as_str();
    let attaches = |marker: usize, line: usize| marker < line && line <= marker + 3;
    let toks = lex(masked);
    let lines = &m.lines;
    let mut fns = Vec::new();
    let mut calls = Vec::new();
    // Innermost pending impl/trait subject per open brace.
    let mut scopes: Vec<Option<String>> = Vec::new();
    let mut pending: Option<Option<String>> = None;
    let mut i = 0;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Ident => {
                let word = text(masked, &toks[i]);
                if word == "impl" || word == "trait" {
                    let (subject, next) = parse_impl_header(&toks, i, masked);
                    pending = Some(subject);
                    i = next;
                    continue;
                }
                if word == "fn" {
                    let (item, body_range, next) = parse_fn(&toks, i, masked, lines, &scopes);
                    if let Some(mut item) = item {
                        item.path = path.to_owned();
                        item.is_root = m.hot_path_roots.iter().any(|&r| attaches(r, item.line));
                        item.sink = m
                            .det_sinks
                            .iter()
                            .find(|(r, _)| attaches(*r, item.line))
                            .map(|(_, name)| name.clone());
                        item.sanitizer = m
                            .det_sanitizers
                            .iter()
                            .any(|(r, _)| attaches(*r, item.line));
                        let sites = body_range
                            .map(|(from, to)| scan_calls(&toks, from, to, masked, lines))
                            .unwrap_or_default();
                        fns.push(item);
                        calls.push(sites);
                    }
                    i = next;
                    continue;
                }
                i += 1;
            }
            TokKind::Punct(b'{') => {
                scopes.push(pending.take().flatten());
                i += 1;
            }
            TokKind::Punct(b'}') => {
                scopes.pop();
                i += 1;
            }
            _ => i += 1,
        }
    }
    ParsedFile { fns, calls }
}

/// Parses a `fn` item starting at the `fn` keyword token. Returns the item,
/// the body's *token* range for call scanning, and the next token index.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    masked: &str,
    lines: &LineIndex,
    scopes: &[Option<String>],
) -> (Option<FnItem>, Option<(usize, usize)>, usize) {
    let Some(name_tok) = toks.get(at + 1) else {
        return (None, None, at + 1);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, None, at + 1);
    }
    let name = text(masked, name_tok).to_owned();
    let mut j = at + 2;
    if is_punct(toks, j, b'<') {
        j = skip_generics(toks, j);
    }
    if !is_punct(toks, j, b'(') {
        return (None, None, at + 1);
    }
    let (past_params, commas, has_self) = scan_parens(toks, j, masked);
    let arity = if parens_empty(toks, j) { 0 } else { commas + 1 };
    // Scan past `-> Type` / `where …` for the body `{` or a trailing `;`.
    let mut k = past_params;
    let mut angle = 0usize;
    let mut body_open = None;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => {
                let arrow = k > 0 && toks[k - 1].kind == TokKind::Punct(b'-');
                if !arrow {
                    angle = angle.saturating_sub(1);
                }
            }
            TokKind::Punct(b'{') if angle == 0 => {
                body_open = Some(k);
                break;
            }
            TokKind::Punct(b';') if angle == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let span = body_open.map(|open| (open, match_braces(toks, open)));
    let item = FnItem {
        path: String::new(),
        name,
        impl_type: scopes.iter().rev().find_map(Clone::clone),
        arity,
        has_self,
        line: lines.line_of(toks[at].start),
        body: span.map(|(open, close)| (toks[open].start, toks[close].end)),
        is_root: false,
        sink: None,
        sanitizer: false,
    };
    let next = span.map_or(k + 1, |(_, close)| close + 1);
    (
        Some(item),
        span.map(|(open, close)| (open + 1, close)),
        next,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::mask;

    fn parse(src: &str) -> ParsedFile {
        parse_file_marked("t.rs", &mask(src))
    }

    #[test]
    fn extracts_free_and_impl_fns_with_arity() {
        let src = "\
pub fn free(a: u32, b: u32) -> u32 { a + b }
struct S;
impl S {
    pub fn method(&self, x: u32) -> u32 { x }
    fn no_body_here() {}
}
impl Scheduler for S {
    fn select(&mut self, ctx: &Ctx) -> Option<usize> { None }
}
";
        let p = parse(src);
        let names: Vec<(&str, Option<&str>, usize, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.arity, f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, 2, false),
                ("method", Some("S"), 2, true),
                ("no_body_here", Some("S"), 0, false),
                ("select", Some("S"), 2, true),
            ]
        );
        assert_eq!(p.fns[0].line, 1);
        assert_eq!(p.fns[3].line, 8);
    }

    #[test]
    fn classifies_call_shapes() {
        let src = "\
impl S {
    fn caller(&self) {
        helper(1, 2);
        self.rank();
        other.feasible(x);
        GammaScratch::load(s, ctx);
        free_generic::<u32>(v);
    }
}
";
        let p = parse(src);
        let calls = &p.calls[0];
        let shapes: Vec<(&str, usize, &Receiver)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.args, &c.receiver))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper", 2, &Receiver::Free),
                ("rank", 0, &Receiver::SelfMethod),
                ("feasible", 1, &Receiver::Method),
                ("load", 2, &Receiver::Path("GammaScratch".to_owned())),
                ("free_generic", 1, &Receiver::Free),
            ]
        );
        assert_eq!(calls[0].line, 3);
        assert_eq!(calls[3].line, 6);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "fn f(x: u32) { if cond(x) { vec![1]; assert!(x > 0); } match x { _ => () } }";
        let p = parse(src);
        let names: Vec<&str> = p.calls[0].iter().map(|c| c.name.as_str()).collect();
        // `cond` is a real call; `vec!`/`assert!` are macros (`!` breaks the
        // ident-then-paren shape), `if`/`match` are keywords.
        assert_eq!(names, vec!["cond"]);
    }

    #[test]
    fn root_marker_attaches_to_next_fn() {
        let src = "\
// hcperf-lint: hot-path-root
#[inline]
pub fn hot() {}

pub fn cold() {}
";
        let p = parse(src);
        assert!(p.fns[0].is_root, "{:?}", p.fns);
        assert!(!p.fns[1].is_root);
    }

    #[test]
    fn test_modules_are_invisible() {
        let src = "\
fn shipping() {}
#[cfg(test)]
mod tests {
    fn test_only() { shipping(); }
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "shipping");
    }

    #[test]
    fn chained_self_field_method_is_unknown_receiver() {
        let src = "impl P { fn step(&mut self) { self.mfc.step(e); self.reset(); } }";
        let p = parse(src);
        assert_eq!(p.calls[0][0].receiver, Receiver::Method);
        assert_eq!(p.calls[0][1].receiver, Receiver::SelfMethod);
    }
}
