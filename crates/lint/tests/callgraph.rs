//! Self-test of the call-graph analysis against the real workspace: the
//! hot-path reachable set must contain the dispatch-path functions the
//! paper's Eq. 9-12 pipeline runs through. If a rename or refactor breaks
//! the heuristic name resolution, this catches it before the ratchet
//! silently stops covering the hot path.

use std::path::{Path, PathBuf};

use hcperf_lint::hotpath;
use hcperf_lint::workspace::{load, Scope, DETERMINISTIC_CRATES};

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_hot_path_set_contains_the_dispatch_pipeline() {
    let files = load(&real_root()).expect("workspace loads");
    let scope = Scope::new(files.iter().filter(|f| f.in_tree(&DETERMINISTIC_CRATES)));
    let report = hotpath::analyze(&scope);

    assert_eq!(report.roots.len(), 7, "{:?}", report.roots);
    // Everything a `hot-path-root` marker names is itself reachable.
    for root in &report.roots {
        assert!(
            report.reachable.contains(root),
            "root {root} missing from reachable set"
        );
    }

    // The γ-search rank/feasibility kernel is reached from the markers in
    // `crates/core/src/dps.rs`, and the dispatch loop pulls the scheduler
    // plus the Pdc step in behind it.
    for expected in [
        "GammaScratch::rank",
        "GammaScratch::feasible",
        "DynamicPriorityScheduler::gamma_max_cached",
        "gamma_max",
        "FifoScheduler::select",
        "Sim::try_dispatch",
        "PerformanceDirectedController::step",
    ] {
        assert!(
            report.reachable.contains(&expected.to_owned()),
            "{expected} not reachable; reachable = {:?}",
            report.reachable
        );
    }

    // Over-approximation sanity: the reachable set is a strict superset of
    // the roots but far smaller than "every function in the workspace".
    assert!(report.reachable.len() > report.roots.len());
    assert!(
        report.reachable.len() < 400,
        "reachable set ballooned to {} fns — name resolution has gone \
         maximally imprecise",
        report.reachable.len()
    );
}
