//! `hcperf-lint`: the workspace's determinism and schedulability gate.
//!
//! HCPerf's evaluation rests on bit-reproducible simulation and on sound
//! timing (the Eq. 9 deadlines and the Eq. 11 γ range). This crate checks
//! both statically in one pass ([`run`]): [`workspace::load`] reads and
//! masks every source file once ([`source`]: comments, string/char
//! literals and `#[cfg(test)]` modules blanked, waivers and markers
//! collected) and parses the call-graph trees once
//! ([`parse::parse_file_marked`]). Every analysis then runs over that
//! shared data and contributes one section of one report:
//!
//! 1. **`source`** ([`rules`]) — [`report::Rule::WallClock`],
//!    [`report::Rule::UnorderedIteration`], [`report::Rule::Entropy`] and
//!    [`report::Rule::FloatEq`] per crate family, plus the
//!    `unwrap()`/`expect()` count per library file.
//! 2. **`hot_path`** ([`hotpath`]) — [`callgraph`] resolves calls with
//!    over-approximating heuristics (receiver type when inferable, else
//!    name + arity) and computes the set reachable from functions marked
//!    `// hcperf-lint: hot-path-root`; allocation
//!    ([`report::Rule::HotPathAlloc`]) and panic
//!    ([`report::Rule::HotPathPanic`]) sites in it are counted, and
//!    blocking constructs ([`report::Rule::HotPathBlocking`]) are findings
//!    unless waived.
//! 3. **`det_flow`** ([`detflow`]) — nondeterminism sources (unordered
//!    iteration, wall-clock values, channel arrival order, thread
//!    identity, env reads, address-seeded hashing) flow to fixpoint
//!    through per-function summaries into `// hcperf-lint:
//!    det-sink(<name>)` fns, with sanitizers (`BTree*` rebuilds, `sort*`,
//!    `det-sanitizer` fns) killing taint; each sink gets an exposure
//!    certificate, and findings carry the source→…→sink chain.
//! 4. **`schedulability`** ([`sched`]) — every task graph in
//!    `taskgraph::graphs` and every scenario preset must have positive
//!    Eq. 9 deadlines and a non-empty strict Eq. 11 γ range at its
//!    reference operating point (decided by `dps::reference`).
//!
//! The hot-path graph spans the deterministic crates; det-flow's adds the
//! harness, store, CLI and bench trees where the sinks live. They stay
//! two graphs because name-based resolution over the union adds false
//! hot-path edges.
//!
//! Counts and det-flow certificates form one [`ratchet`] over
//! `crates/lint/ratchet.txt`: rows keyed by (analysis, name, path) that
//! may only shrink. Intentional sites carry
//! `// hcperf-lint: allow(<rule>): <reason>` waivers. Each section has
//! its own exit code; the process exit code follows one precedence
//! ([`report::exit::combine`]).
//!
//! # Examples
//!
//! ```
//! use hcperf_lint::rules::{scan_file, RuleSet};
//!
//! let scan = scan_file("demo.rs", "use std::time::Instant;\n", RuleSet::FULL);
//! assert_eq!(scan.findings.len(), 1);
//! ```

pub mod callgraph;
pub mod detflow;
pub mod hotpath;
pub mod parse;
pub mod pass;
pub mod ratchet;
pub mod report;
pub mod rules;
pub mod sched;
pub mod source;
pub mod workspace;

pub use pass::{run, Report};
pub use report::{Finding, Rule};
