//! Experiment binaries regenerating every table and figure of the HCPerf
//! paper's evaluation (§ II motivation and § VII).
//!
//! One binary per experiment:
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig04_motivation` | Fig. 4 — fixed priority vs red-light scene |
//! | `fig05_schedules` | Fig. 5 — adaptive vs preferred toy schedule |
//! | `fig12_exec_times` | Fig. 12 — execution-time distributions |
//! | `fig13_car_following` | Fig. 13 + Tables II/III |
//! | `fig14_lane_keeping` | Fig. 14 + Table IV |
//! | `fig15_hardware` | Fig. 15 + Tables V/VI |
//! | `fig17_responsiveness` | Fig. 16/17 — responsiveness vs throughput |
//! | `fig18_ablation` | Fig. 18 — external-coordinator ablation |
//! | `all_experiments` | everything above, in order |
//!
//! Performance numbers do not come from this crate: the `perfbench`
//! package at the repository root measures every end-to-end and
//! per-layer figure (its `paper-suite` workload times the functions in
//! [`experiments`]). Nothing here reads a clock (`hcperf-lint` enforces
//! it), so each figure's stdout depends only on the code and its seeds.
//!
//! Time-series CSVs land in `target/experiments/`.

pub mod experiments;
pub mod fig05;
pub mod paper;

/// Worker-pool size for the experiment binaries: `--jobs N` on the
/// command line, else the `HCPERF_JOBS` environment variable, else `0`
/// (the harness then uses the host's available parallelism). Results
/// are bit-identical for any value; only wall-clock time changes.
#[must_use]
pub fn jobs_from_cli() -> usize {
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--jobs" {
            if let Some(n) = argv.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    // hcperf-lint: allow(det-flow): worker count changes wall time only; results are bit-identical for any value
    std::env::var("HCPERF_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Optional result store for the experiment binaries: `--store PATH`
/// (or its alias `--resume PATH`) on the command line, else the
/// `HCPERF_STORE` environment variable, else no store. With a store,
/// figure cells already computed by an earlier (possibly interrupted)
/// run are served from disk bit-identically instead of re-simulated.
///
/// # Errors
///
/// Returns [`hcperf_store::StoreError`] if the store log exists but
/// cannot be opened or replayed.
pub fn store_from_cli() -> Result<Option<hcperf_store::Store>, hcperf_store::StoreError> {
    let mut argv = std::env::args().skip(1);
    let mut path = None;
    while let Some(arg) = argv.next() {
        if arg == "--store" || arg == "--resume" {
            if let Some(p) = argv.next() {
                path = Some(p);
            }
        }
    }
    // hcperf-lint: allow(det-flow): store location selects where bytes land, never what they are
    let path = path.or_else(|| std::env::var("HCPERF_STORE").ok());
    match path {
        Some(p) => hcperf_store::Store::open(p).map(Some),
        None => Ok(None),
    }
}
