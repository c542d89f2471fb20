//! `hcperf-store` — durable, resumable experiment graph.
//!
//! The evaluation matrix this workspace drives (fleet scale × scenario
//! × scheme × seed × rate) is a lattice of 10⁴–10⁶ independent cells,
//! and every cell is a *pure function* of its configuration fingerprint
//! and stable job key (see `hcperf-harness`: a job's seed is derived
//! from its key, never from scheduling). This crate exploits that
//! purity to make experiment runs durable and resumable:
//!
//! * [`cell_id`] — content-addressed cell identity: a 128-bit hash of
//!   `(fingerprint, key)` where the fingerprint covers the config, the
//!   root seed, and a code-relevant version tag ([`fingerprint`]);
//! * [`Store`] — an append-only, crash-safe JSON-Lines job store. Each
//!   cell carries a `pending → running → done/failed` lifecycle; state
//!   is replayed on [`Store::open`] by scanning the log, and a torn
//!   final record (the signature of a crash mid-append) is quarantined
//!   to a side file instead of poisoning the run;
//! * [`CellCache`] — the bridge to the harness: implements
//!   `hcperf_harness::ResultCache` over a [`Store`], serving `done`
//!   cells from disk bit-identically and persisting fresh results as
//!   they stream out in submission order.
//!
//! Because the harness delivers results in submission order and the
//! store is append-only, the log itself is deterministic for a given
//! interruption point — which is what makes "resume an interrupted
//! fleet run and diff against the straight-through output" a
//! byte-equality test rather than a statistical one.

mod cache;
mod hash;
mod record;
mod store;

pub use cache::CellCache;
pub use hash::{cell_id, fingerprint, CellId};
pub use store::{
    Bottlenecks, Cell, CellState, RunSummary, Store, StoreError, StoreStatus, SLOW_CELLS_DEFAULT,
};
