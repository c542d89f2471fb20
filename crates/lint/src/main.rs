//! The `hcperf-lint` binary: one pass over the workspace, one report.
//! See the library docs.

use std::path::PathBuf;
use std::process::ExitCode;

use hcperf_lint::ratchet::{self, RATCHET_PATH};
use hcperf_lint::report::exit;

const USAGE: &str = "\
hcperf-lint — determinism & schedulability gate for the HCPerf workspace

USAGE:
    hcperf-lint [--json] [--annotations] [--root <path>] [--update-baselines]

Loads the workspace once and reports one section per analysis: source
rules, hot_path, det_flow and schedulability. Counts and det-flow
certificates ratchet against crates/lint/ratchet.txt.

OPTIONS:
    --json              machine-readable report (every section)
    --annotations       also emit GitHub `::error file=…` workflow commands
                        for unwaived file-anchored findings
    --root <path>       workspace root (default: inferred from cargo)
    --update-baselines  rewrite crates/lint/ratchet.txt from this run

EXIT CODES (the first that any section reports, in this order):
    3 schedulability failure   1 findings   2 ratchet growth   0 clean
    4 usage (bad arguments, unreadable workspace or ratchet file)
";

struct Args {
    json: bool,
    annotations: bool,
    update: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        annotations: false,
        update: false,
        root: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--annotations" => args.annotations = true,
            "--update-baselines" => args.update = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root requires a path")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The workspace root: `--root`, else two levels above this crate's
/// manifest (set by cargo), else the current directory.
fn resolve_root(args: &Args) -> PathBuf {
    if let Some(r) = &args.root {
        return r.clone();
    }
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|m| PathBuf::from(m).ancestors().nth(2).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("hcperf-lint: {msg}\n\n{USAGE}");
            return code(exit::USAGE);
        }
    };
    let root = resolve_root(&args);
    let report = match hcperf_lint::run(&root, !args.update) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hcperf-lint: {e}");
            return code(exit::USAGE);
        }
    };
    if args.update {
        let path = root.join(RATCHET_PATH);
        if let Err(e) = std::fs::write(&path, ratchet::render(&report.rows)) {
            eprintln!("hcperf-lint: cannot write {}: {e}", path.display());
            return code(exit::USAGE);
        }
        eprintln!(
            "hcperf-lint: rewrote {RATCHET_PATH} ({} rows)",
            report.rows.len()
        );
    }
    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if args.annotations {
        print!("{}", report.render_annotations());
    }
    code(report.exit_code())
}

#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn code(c: i32) -> ExitCode {
    ExitCode::from(c as u8)
}
