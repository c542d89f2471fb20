//! The one load: every source tree any analysis reads, each file read,
//! masked and (for call-graph trees) parsed exactly once.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::parse::{parse_file_marked, ParsedFile};
use crate::report::{Finding, Rule};
use crate::rules::RuleSet;
use crate::source::{mask, MaskedFile};

/// Crates whose simulation results must be bit-reproducible: every rule
/// family applies to their `src/` trees, and they form the hot-path call
/// graph.
pub const DETERMINISTIC_CRATES: [&str; 7] = [
    "crates/taskgraph/src",
    "crates/rtsim/src",
    "crates/control/src",
    "crates/vehicle/src",
    "crates/scenarios/src",
    "crates/core/src",
    "crates/faults/src",
];

/// Crates that orchestrate runs but must not read wall clocks themselves.
/// (`crates/harness` times each job for its `wall_ms` field and is exempt
/// by the rule's definition; wall-clock measurement lives in `perfbench`,
/// outside the workspace.)
pub const WALL_CLOCK_ONLY_ROOTS: [&str; 4] = [
    "crates/cli/src",
    "crates/lint/src",
    "crates/bench/src",
    "src",
];

/// Crates covered only by the unwrap/expect ratchet: the harness times
/// real execution (wall-clock exempt) yet its library code must stay
/// panic-free, because a panic in collection kills a whole fleet run.
/// The store joins it for the same reason — a panic while appending or
/// replaying the log would forfeit the crash-safety it exists to give.
pub const RATCHET_ONLY_ROOTS: [&str; 2] = ["crates/harness/src", "crates/store/src"];

/// Trees det-flow reads *in addition to* [`DETERMINISTIC_CRATES`]: the
/// output sinks live in the harness/store/cli/bench layers. Optional, so
/// fixture workspaces without every crate still analyze.
pub const EXTRA_ROOTS: [&str; 5] = [
    "crates/harness/src",
    "crates/store/src",
    "crates/cli/src",
    "crates/bench/src",
    "src",
];

/// One loaded source file: raw text plus its masking and parse products.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The workspace-relative root the file was loaded from.
    pub tree: &'static str,
    /// Raw file contents.
    pub raw: String,
    /// Masked text, waivers and markers.
    pub masked: MaskedFile,
    /// Items and call sites; `None` outside the call-graph trees
    /// ([`DETERMINISTIC_CRATES`] and [`EXTRA_ROOTS`]).
    pub parsed: Option<ParsedFile>,
}

impl SourceFile {
    /// Masks `raw`, and parses it when `tree` feeds a call graph.
    #[must_use]
    pub fn new(rel: &str, tree: &'static str, raw: String) -> SourceFile {
        let masked = mask(&raw);
        let graph_tree = DETERMINISTIC_CRATES.contains(&tree) || EXTRA_ROOTS.contains(&tree);
        SourceFile {
            rel: rel.to_owned(),
            tree,
            parsed: graph_tree.then(|| parse_file_marked(rel, &masked)),
            raw,
            masked,
        }
    }

    /// True when the file was loaded from one of `roots`.
    #[must_use]
    pub fn in_tree(&self, roots: &[&str]) -> bool {
        roots.contains(&self.tree)
    }

    /// The source rules that apply to this file, by its tree.
    #[must_use]
    pub fn rule_set(&self) -> Option<RuleSet> {
        if self.in_tree(&DETERMINISTIC_CRATES) {
            Some(RuleSet::FULL)
        } else if self.in_tree(&WALL_CLOCK_ONLY_ROOTS) {
            Some(RuleSet::WALL_CLOCK_ONLY)
        } else if self.in_tree(&RATCHET_ONLY_ROOTS) {
            Some(RuleSet::RATCHET_ONLY)
        } else {
            None
        }
    }

    /// The trimmed raw text of 1-based `line` (empty past the end).
    #[must_use]
    pub fn snippet(&self, line: usize) -> String {
        let at = line.checked_sub(1).and_then(|l| self.raw.lines().nth(l));
        at.map_or("", str::trim).to_owned()
    }
}

/// Loads every `.rs` file under the analysis trees, in tree order
/// (deterministic crates first, then the wall-clock-only, ratchet-only
/// and det-flow trees), each file once even when several analyses read
/// its tree.
///
/// # Errors
///
/// Propagates I/O failures. A missing deterministic, wall-clock-only or
/// ratchet-only tree is an error; the det-flow trees are optional.
pub fn load(root: &Path) -> io::Result<Vec<SourceFile>> {
    let required = DETERMINISTIC_CRATES
        .iter()
        .chain(&WALL_CLOCK_ONLY_ROOTS)
        .chain(&RATCHET_ONLY_ROOTS)
        .map(|t| (*t, true));
    let optional = EXTRA_ROOTS.iter().map(|t| (*t, false));
    let mut files: Vec<SourceFile> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (tree, required) in required.chain(optional) {
        if seen.contains(&tree) {
            continue;
        }
        seen.push(tree);
        let dir = root.join(tree);
        if !dir.is_dir() {
            if required {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("expected source tree at {}", dir.display()),
                ));
            }
            continue;
        }
        for path in rust_files(&dir)? {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            let rel = rel.replace('\\', "/");
            files.push(SourceFile::new(&rel, tree, fs::read_to_string(&path)?));
        }
    }
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, sorted for reproducible
/// report order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A call graph over a subset of the loaded files, with each node's file
/// at hand. The hot-path scope is the deterministic crates; the
/// det-flow scope adds [`EXTRA_ROOTS`]. The scopes stay separate because
/// name-based resolution over the union would add false hot-path edges.
#[derive(Debug)]
pub struct Scope<'a> {
    /// The files in graph order.
    pub files: Vec<&'a SourceFile>,
    /// The call graph over their parsed items.
    pub graph: CallGraph<'a>,
    by_rel: BTreeMap<&'a str, &'a SourceFile>,
}

impl<'a> Scope<'a> {
    /// Builds the graph over `files` (unparsed files contribute nothing).
    #[must_use]
    pub fn new(files: impl IntoIterator<Item = &'a SourceFile>) -> Scope<'a> {
        let files: Vec<&SourceFile> = files.into_iter().collect();
        let graph = CallGraph::build(files.iter().filter_map(|f| f.parsed.as_ref()));
        let by_rel = files.iter().map(|f| (f.rel.as_str(), *f)).collect();
        Scope {
            files,
            graph,
            by_rel,
        }
    }

    /// The file that defines node `i`.
    #[must_use]
    pub fn file_of(&self, i: usize) -> &'a SourceFile {
        self.by_rel[self.graph.nodes[i].path.as_str()]
    }

    /// An unwaived finding at `line` of the in-scope file `rel`.
    #[must_use]
    pub fn finding(&self, rule: Rule, rel: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: rel.to_owned(),
            line,
            snippet: self
                .by_rel
                .get(rel)
                .map(|f| f.snippet(line))
                .unwrap_or_default(),
            message,
            waived: None,
            chain: Vec::new(),
        }
    }
}
