//! The one pass: load and parse the workspace once, run every analysis
//! over that shared data, compare every ratchet row with one file, and
//! return one report.

use std::io;
use std::path::Path;

use crate::ratchet::{self, Rows, RATCHET_PATH};
use crate::report::{exit, json_escape, render_annotations, Section, SCHEMA_VERSION};
use crate::workspace::{self, Scope, SourceFile, DETERMINISTIC_CRATES, EXTRA_ROOTS};
use crate::{detflow, hotpath, rules, sched};

/// The report of one run: a section per analysis, in a fixed order.
#[derive(Debug)]
pub struct Report {
    /// `.rs` files loaded.
    pub files_scanned: usize,
    /// `source`, `hot_path`, `det_flow`, `schedulability`.
    pub sections: Vec<Section>,
    /// Every measured ratchet row (what `--update-baselines` writes).
    pub rows: Rows,
}

/// Runs every analysis over the workspace rooted at `root`.
///
/// With `against_file` the measured ratchet rows are compared with
/// [`RATCHET_PATH`]; without it (regeneration) they are compared with
/// themselves, so only structural findings and the audit can fail.
///
/// # Errors
///
/// I/O failures, a missing source tree, and a missing or malformed
/// ratchet file (so CI cannot silently skip the ratchet).
pub fn run(root: &Path, against_file: bool) -> io::Result<Report> {
    let files = workspace::load(root)?;
    let recorded = if against_file {
        Some(read_ratchet(root)?)
    } else {
        None
    };

    let source = rules::analyze(&files);
    let hot_scope = Scope::new(files.iter().filter(|f| f.in_tree(&DETERMINISTIC_CRATES)));
    let hot = hotpath::analyze(&hot_scope);
    let mut det_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.in_tree(&DETERMINISTIC_CRATES) || f.in_tree(&EXTRA_ROOTS))
        .collect();
    det_files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let det_scope = Scope::new(det_files);
    let det = detflow::analyze(&det_scope);

    let mut rows = source.rows();
    rows.extend(hot.rows());
    rows.extend(det.rows());
    let recorded = recorded.unwrap_or_else(|| rows.clone());
    let cmp = ratchet::compare(&rows, &recorded);

    let sections = vec![
        source.section(&cmp, &recorded),
        hot.section(&cmp, &recorded),
        det.section(&cmp, &det_scope),
        sched::section(),
    ];
    Ok(Report {
        files_scanned: files.len(),
        sections,
        rows,
    })
}

fn read_ratchet(root: &Path) -> io::Result<Rows> {
    let path = root.join(RATCHET_PATH);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "cannot read ratchet file {}: {e}; bootstrap with --update-baselines",
                path.display()
            ),
        )
    })?;
    ratchet::parse(&text).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
}

impl Report {
    /// The process exit code, by [`exit::combine`] over the sections.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        exit::combine(self.sections.iter().map(|s| s.exit_code))
    }

    /// Human diagnostics, section by section, then the verdict.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out: String = self.sections.iter().map(Section::render_human).collect();
        let code = self.exit_code();
        let verdict = match code {
            exit::CLEAN => "clean",
            exit::FINDINGS => "FINDINGS",
            exit::RATCHET => "RATCHET GROWTH",
            _ => "SCHEDULABILITY FAILED",
        };
        out.push_str(&format!(
            "hcperf-lint: {} files, {verdict} (exit {code})\n",
            self.files_scanned
        ));
        out
    }

    /// The machine-readable report: every section, each with its own
    /// findings, ratchet deltas and exit code.
    #[must_use]
    pub fn render_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| format!("\"{}\":{}", json_escape(s.name), s.render_json()))
            .collect();
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"files_scanned\":{},{},\"exit_code\":{}}}",
            self.files_scanned,
            sections.join(","),
            self.exit_code()
        )
    }

    /// GitHub `::error` workflow commands for every unwaived
    /// file-anchored finding.
    #[must_use]
    pub fn render_annotations(&self) -> String {
        let all: Vec<_> = self
            .sections
            .iter()
            .flat_map(|s| s.findings.iter().cloned())
            .collect();
        render_annotations(&all)
    }
}
