//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint and the workload's stream digest and
//! simulated outcomes on one line, then the result object as the last
//! line. Exits 1 when a correctness check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use hcperf_harness::json_escape;
use hcperf_perfbench::host::Host;
use hcperf_perfbench::report::Outcome;
use hcperf_perfbench::workload::{run, Settings, Workload};

/// Scratch directory, relative to the working directory, for store logs
/// and figure CSVs; removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    settings: Settings,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings: Settings {
            seed,
            seconds,
            trace,
            work_dir: PathBuf::from(WORK_DIR),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let result = run(args.workload, &args.settings);
    let _ = std::fs::remove_dir_all(&args.settings.work_dir);
    let mut summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        args.workload.name(),
        args.settings.seed,
        args.settings.trace,
        host.nproc,
        json_escape(host.rustc),
        json_escape(&host.commit),
    );
    let (outcome, code) = match result {
        Ok(report) => {
            summary.push_str(&format!(", \"digest\": \"{:#018x}\"", report.digest));
            for (name, value) in &report.notes {
                summary.push_str(&format!(", \"{name}\": {value}"));
            }
            (report.outcome, ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: {e}");
            summary.push_str(&format!(", \"error\": \"{}\"", json_escape(&e)));
            let failed = Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
            (failed, ExitCode::from(1))
        }
    };
    println!("{summary}}}");
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            code
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
