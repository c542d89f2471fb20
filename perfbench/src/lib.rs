//! The HCPerf reproduction's benchmark.
//!
//! One command runs one workload and prints its metrics: the end-to-end
//! ones with tracing off, the per-layer ones in a separate traced run.
//! Layers are timed from outside, through public entry points only — a
//! timing `Scheduler` around `Scheme::build`, a traced copy of the
//! closed loops, a timing `ResultCache` around the store's `CellCache`
//! and a counting writer around the fleet stream. See `README.md` for the
//! metrics, the workloads and why each was chosen.

pub mod host;
pub mod probe;
pub mod replica;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
