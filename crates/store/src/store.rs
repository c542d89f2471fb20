//! The append-only, crash-safe cell store.
//!
//! # Log format
//!
//! One JSON object per line, append-only, replayed on open. Five ops:
//!
//! ```text
//! {"op":"pending","cell":"<32hex>","key":"fleet/.../vehicle=3"}
//! {"op":"running","cell":"<32hex>"}
//! {"op":"done","cell":"<32hex>","wall_ms":1.234,"payload":"<json text>"}
//! {"op":"failed","cell":"<32hex>","error":"panicked: ..."}
//! {"op":"run","fingerprint":"<16hex>","hits":980,"misses":20}
//! ```
//!
//! `done` and `failed` ops may additionally carry `"attempts":N` when
//! the producing job needed more than one attempt (the harness retry
//! policy); its absence means one attempt, so pre-retry logs replay
//! unchanged and first-try runs append the exact bytes they always did.
//!
//! The payload of a `done` op is the *exact* JSON fragment the producer
//! serialized, embedded as an escaped JSON string — so replaying a cell
//! re-emits the producer's bytes, never a re-rendering of them.
//!
//! These shapes are the replay contract: [`Store::open`] streams the log
//! line by line and accepts exactly what the store writes (fixed key
//! order, no whitespace, `hcperf_harness::json_escape` strings, the
//! shortest round-trip rendering of `wall_ms`). A line outside that
//! grammar is corrupt, even if it is valid JSON.
//!
//! # Crash safety
//!
//! A crash mid-append leaves at most one torn final line (the file is
//! written through a single append handle). [`Store::open`] scans the
//! log; the first unparsable or unterminated line and everything after
//! it is moved to `<path>.quarantine` and the log is truncated back to
//! the last complete record. Every complete record survives, so an
//! interrupted run resumes from exactly the prefix it managed to
//! persist.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::hash::CellId;
use crate::record::Record;

/// Default number of slowest cells reported by [`Store::bottlenecks`].
pub const SLOW_CELLS_DEFAULT: usize = 10;

/// A store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure on the log or quarantine file.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// An op that violates the cell lifecycle (e.g. completing a cell
    /// that was never registered), or a cell-id/key mismatch.
    Lifecycle(String),
    /// A completion whose `wall_ms` is NaN or infinite, refused before
    /// anything is appended: replay could not read it back.
    NonFiniteWallMs(f64),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error on {}: {source}", path.display())
            }
            StoreError::Lifecycle(msg) => write!(f, "store lifecycle error: {msg}"),
            StoreError::NonFiniteWallMs(ms) => write!(f, "store refuses wall_ms {ms}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Lifecycle(_) | StoreError::NonFiniteWallMs(_) => None,
        }
    }
}

/// Lifecycle state of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Registered, not yet picked up by a worker.
    Pending,
    /// Claimed by a run; a crash leaves cells parked here.
    Running,
    /// Finished: wall time and the exact payload bytes.
    Done {
        /// Wall-clock milliseconds the producing job took.
        wall_ms: f64,
        /// The producer's serialized JSON payload, byte-exact.
        payload: String,
        /// Attempts the producing job took (1 = first try), replayed
        /// into resumed results so retry accounting survives a restart.
        attempts: u32,
    },
    /// The job panicked or its payload could not be encoded; retried
    /// (re-registered as pending) on the next run.
    Failed {
        /// The failure message.
        error: String,
        /// Attempts the job made before its failure became final.
        attempts: u32,
    },
}

impl CellState {
    /// The state's log/op name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CellState::Pending => "pending",
            CellState::Running => "running",
            CellState::Done { .. } => "done",
            CellState::Failed { .. } => "failed",
        }
    }
}

/// One cell: its stable job key plus lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The harness job key this cell caches (`"fleet/.../vehicle=3"`).
    pub key: String,
    /// Current lifecycle state.
    pub state: CellState,
}

/// The hit/miss summary appended by one harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells served from the store without recomputation.
    pub hits: usize,
    /// Cells that had to run.
    pub misses: usize,
}

impl RunSummary {
    /// Cache-hit ratio in `[0, 1]`; `None` for an empty run.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Counts per state plus run history, as reported by [`Store::status`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStatus {
    /// Cells registered but not yet claimed.
    pub pending: usize,
    /// Cells claimed by a run that has not finished them (after a
    /// crash these are the cells that were in flight).
    pub running: usize,
    /// Finished cells served from disk on the next run.
    pub done: usize,
    /// Cells whose job panicked; retried on the next run.
    pub failed: usize,
    /// Harness runs recorded against this store.
    pub runs: usize,
    /// The most recent run's hit/miss summary, if any run completed.
    pub last_run: Option<RunSummary>,
    /// Bytes quarantined from a torn tail when the store was opened.
    pub quarantined_bytes: usize,
}

impl StoreStatus {
    /// Total cells in the store.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pending + self.running + self.done + self.failed
    }
}

/// Slow/stuck-cell report, as produced by [`Store::bottlenecks`].
#[derive(Debug, Clone, PartialEq)]
pub struct Bottlenecks {
    /// The slowest `done` cells, `(wall_ms, key)`, slowest first.
    pub slowest_done: Vec<(f64, String)>,
    /// Keys of cells still `pending` or `running` — the shards an
    /// interrupted or partial run is blocked on.
    pub stuck: Vec<String>,
    /// Keys of `failed` cells awaiting retry.
    pub failed: Vec<String>,
}

/// The append-only cell store: replayed state plus an append handle.
pub struct Store {
    path: PathBuf,
    writer: BufWriter<File>,
    cells: BTreeMap<CellId, Cell>,
    runs: Vec<RunSummary>,
    quarantined_bytes: usize,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("cells", &self.cells.len())
            .field("runs", &self.runs.len())
            .field("quarantined_bytes", &self.quarantined_bytes)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (or creates) the store at `path`, replaying the log.
    ///
    /// The log is streamed one line at a time. A torn or corrupt tail —
    /// the first line that is unterminated or outside the log grammar,
    /// plus everything after it — is appended to `<path>.quarantine`
    /// and the log is truncated back to the last complete record.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; log damage is recovered, not fatal.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |source| StoreError::Io {
            path: path.clone(),
            source,
        };

        let mut cells = BTreeMap::new();
        let mut runs = Vec::new();
        let mut quarantined_bytes = 0;
        match File::open(&path) {
            Ok(f) => {
                let mut reader = BufReader::with_capacity(1 << 16, f);
                let (mut line, mut scratch) = (Vec::new(), String::new());
                // Offset of the first byte NOT covered by a valid record.
                let mut clean_end = 0u64;
                loop {
                    line.clear();
                    if reader.read_until(b'\n', &mut line).map_err(io_err)? == 0 {
                        break;
                    }
                    let replayed = line
                        .strip_suffix(b"\n") // an unterminated line is a torn tail
                        .and_then(|l| std::str::from_utf8(l).ok())
                        .and_then(|l| Record::parse(l, &mut scratch))
                        .is_some_and(|record| replay(&mut cells, &mut runs, record));
                    if !replayed {
                        quarantined_bytes = quarantine(&path, &line, &mut reader)?;
                        let f = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
                        f.set_len(clean_end).map_err(io_err)?;
                        f.sync_all().map_err(io_err)?;
                        break;
                    }
                    clean_end += line.len() as u64;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Store {
            path,
            writer: BufWriter::new(file),
            cells,
            runs,
            quarantined_bytes,
        })
    }

    // hcperf-lint: det-sink(store-append): every log line is replayed on resume; bytes must be stable
    fn append(
        writer: &mut BufWriter<File>,
        path: &Path,
        record: &Record<'_>,
    ) -> Result<(), StoreError> {
        record.write_to(writer).map_err(|source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// The log file this store appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes moved to the quarantine file when this store was opened
    /// (zero for a clean log).
    #[must_use]
    pub fn quarantined_bytes(&self) -> usize {
        self.quarantined_bytes
    }

    /// Looks up a cell by id.
    #[must_use]
    pub fn lookup(&self, id: &str) -> Option<&Cell> {
        self.cells.get(id)
    }

    /// Registers a cell as `pending`, appending a log record if the
    /// cell is new or is being retried after a failure. Returns `true`
    /// if a record was appended. `done` and already-`pending`/`running`
    /// cells are left untouched.
    ///
    /// # Errors
    ///
    /// Propagates append I/O failures.
    pub fn register(&mut self, id: &str, key: &str) -> Result<bool, StoreError> {
        let record = Record::Pending {
            cell: id.into(),
            key: key.into(),
        };
        match self.cells.entry(id.to_owned()) {
            Entry::Occupied(entry) => {
                let cell = entry.into_mut();
                if cell.key != key {
                    return Err(StoreError::Lifecycle(format!(
                        "cell {id} registered with key {:?} but already maps to {:?}",
                        key, cell.key
                    )));
                }
                if !matches!(cell.state, CellState::Failed { .. }) {
                    return Ok(false);
                }
                Store::append(&mut self.writer, &self.path, &record)?;
                cell.state = CellState::Pending;
            }
            Entry::Vacant(entry) => {
                Store::append(&mut self.writer, &self.path, &record)?;
                entry.insert(Cell {
                    key: key.to_owned(),
                    state: CellState::Pending,
                });
            }
        }
        Ok(true)
    }

    /// Marks a registered cell `running`.
    ///
    /// # Errors
    ///
    /// Fails on unregistered or already-`done` cells, and on append
    /// I/O failures.
    pub fn mark_running(&mut self, id: &str) -> Result<(), StoreError> {
        let cell = match self.cells.get_mut(id) {
            None => {
                return Err(StoreError::Lifecycle(format!(
                    "cell {id} marked running but was never registered"
                )))
            }
            Some(cell) if matches!(cell.state, CellState::Done { .. }) => {
                return Err(StoreError::Lifecycle(format!(
                    "cell {id} marked running but is already done"
                )))
            }
            Some(cell) => cell,
        };
        let record = Record::Running { cell: id.into() };
        Store::append(&mut self.writer, &self.path, &record)?;
        cell.state = CellState::Running;
        Ok(())
    }

    /// Completes a cell with the producer's exact payload bytes.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells, on a non-finite `wall_ms` and on
    /// append I/O failures.
    pub fn complete(&mut self, id: &str, wall_ms: f64, payload: &str) -> Result<(), StoreError> {
        self.complete_with_attempts(id, wall_ms, payload, 1)
    }

    /// [`Store::complete`] recording how many attempts the producing job
    /// took; `attempts > 1` is persisted so a resumed run replays the
    /// retry accounting byte-identically.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells, on a non-finite `wall_ms` and on
    /// append I/O failures.
    pub fn complete_with_attempts(
        &mut self,
        id: &str,
        wall_ms: f64,
        payload: &str,
        attempts: u32,
    ) -> Result<(), StoreError> {
        if !wall_ms.is_finite() {
            return Err(StoreError::NonFiniteWallMs(wall_ms));
        }
        let Some(cell) = self.cells.get_mut(id) else {
            return Err(StoreError::Lifecycle(format!(
                "cell {id} completed but was never registered"
            )));
        };
        let attempts = attempts.max(1);
        let record = Record::Done {
            cell: id.into(),
            wall_ms,
            payload: payload.into(),
            attempts,
        };
        Store::append(&mut self.writer, &self.path, &record)?;
        cell.state = CellState::Done {
            wall_ms,
            payload: payload.to_owned(),
            attempts,
        };
        Ok(())
    }

    /// Marks a cell `failed` (retried on the next run via
    /// [`Store::register`]).
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn fail(&mut self, id: &str, error: &str) -> Result<(), StoreError> {
        self.fail_with_attempts(id, error, 1)
    }

    /// [`Store::fail`] recording how many attempts the job made before
    /// its failure became final.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn fail_with_attempts(
        &mut self,
        id: &str,
        error: &str,
        attempts: u32,
    ) -> Result<(), StoreError> {
        let Some(cell) = self.cells.get_mut(id) else {
            return Err(StoreError::Lifecycle(format!(
                "cell {id} failed but was never registered"
            )));
        };
        let attempts = attempts.max(1);
        let record = Record::Failed {
            cell: id.into(),
            error: error.into(),
            attempts,
        };
        Store::append(&mut self.writer, &self.path, &record)?;
        cell.state = CellState::Failed {
            error: error.to_owned(),
            attempts,
        };
        Ok(())
    }

    /// Appends one harness run's hit/miss summary.
    ///
    /// # Errors
    ///
    /// Propagates append I/O failures.
    pub fn record_run(&mut self, fingerprint: &str, summary: RunSummary) -> Result<(), StoreError> {
        let record = Record::Run {
            fingerprint: fingerprint.into(),
            hits: summary.hits,
            misses: summary.misses,
        };
        Store::append(&mut self.writer, &self.path, &record)?;
        self.runs.push(summary);
        Ok(())
    }

    /// Flushes buffered appends and fsyncs the log to disk.
    ///
    /// # Errors
    ///
    /// Propagates flush/fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_all())
            .map_err(|source| StoreError::Io {
                path: self.path.clone(),
                source,
            })
    }

    /// Counts per state, run history, and quarantine info.
    #[must_use]
    pub fn status(&self) -> StoreStatus {
        let mut status = StoreStatus {
            pending: 0,
            running: 0,
            done: 0,
            failed: 0,
            runs: self.runs.len(),
            last_run: self.runs.last().copied(),
            quarantined_bytes: self.quarantined_bytes,
        };
        for cell in self.cells.values() {
            match cell.state {
                CellState::Pending => status.pending += 1,
                CellState::Running => status.running += 1,
                CellState::Done { .. } => status.done += 1,
                CellState::Failed { .. } => status.failed += 1,
            }
        }
        status
    }

    /// Every `failed` cell as `(key, attempts, error)`, sorted by key.
    ///
    /// This is the quarantine listing behind `hcperf store --failed`:
    /// the cells a `--resume` will re-register exactly once each.
    #[must_use]
    pub fn failed_cells(&self) -> Vec<(String, u32, String)> {
        let mut failed: Vec<(String, u32, String)> = self
            .cells
            .values()
            .filter_map(|c| match &c.state {
                CellState::Failed { error, attempts } => {
                    Some((c.key.clone(), *attempts, error.clone()))
                }
                _ => None,
            })
            .collect();
        failed.sort();
        failed
    }

    /// The `top` slowest `done` cells plus every stuck or failed shard.
    #[must_use]
    pub fn bottlenecks(&self, top: usize) -> Bottlenecks {
        let mut slowest_done: Vec<(f64, String)> = self
            .cells
            .values()
            .filter_map(|c| match &c.state {
                CellState::Done { wall_ms, .. } => Some((*wall_ms, c.key.clone())),
                _ => None,
            })
            .collect();
        // Sort slowest-first; ties break on key for determinism.
        slowest_done.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        slowest_done.truncate(top);
        let stuck = self
            .cells
            .values()
            .filter(|c| matches!(c.state, CellState::Pending | CellState::Running))
            .map(|c| c.key.clone())
            .collect();
        let failed = self
            .cells
            .values()
            .filter(|c| matches!(c.state, CellState::Failed { .. }))
            .map(|c| c.key.clone())
            .collect();
        Bottlenecks {
            slowest_done,
            stuck,
            failed,
        }
    }
}

impl Drop for Store {
    /// Best-effort flush so an abandoned store (early error return)
    /// still leaves every appended record on disk.
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Applies one replayed record; `false` marks it corrupt (an op on a
/// cell that was never registered).
fn replay(
    cells: &mut BTreeMap<CellId, Cell>,
    runs: &mut Vec<RunSummary>,
    record: Record<'_>,
) -> bool {
    let cell = match record {
        Record::Run { hits, misses, .. } => {
            runs.push(RunSummary { hits, misses });
            return true;
        }
        Record::Pending { cell, key } => {
            // Re-registering is a retry: done cells stay done.
            let entry = cells.entry(cell.into_owned()).or_insert_with(|| Cell {
                key: key.into_owned(),
                state: CellState::Pending,
            });
            if !matches!(entry.state, CellState::Done { .. }) {
                entry.state = CellState::Pending;
            }
            return true;
        }
        Record::Running { ref cell }
        | Record::Done { ref cell, .. }
        | Record::Failed { ref cell, .. } => cells.get_mut(cell.as_ref()),
    };
    let Some(cell) = cell else {
        return false;
    };
    let done = matches!(cell.state, CellState::Done { .. });
    match record {
        Record::Done {
            wall_ms,
            payload,
            attempts,
            ..
        } => {
            cell.state = CellState::Done {
                wall_ms,
                payload: payload.into_owned(),
                attempts,
            };
        }
        Record::Failed {
            error, attempts, ..
        } if !done => {
            cell.state = CellState::Failed {
                error: error.into_owned(),
                attempts,
            };
        }
        Record::Running { .. } if !done => cell.state = CellState::Running,
        _ => {}
    }
    true
}

/// Moves a corrupt tail — `line` plus everything `rest` still holds —
/// to the quarantine file, returning its length in bytes.
fn quarantine(path: &Path, line: &[u8], rest: &mut impl io::Read) -> Result<usize, StoreError> {
    let qpath = quarantine_path(path);
    let io_err = |source| StoreError::Io {
        path: qpath.clone(),
        source,
    };
    let mut q = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&qpath)
        .map_err(io_err)?;
    q.write_all(line).map_err(io_err)?;
    let copied = io::copy(rest, &mut q).map_err(io_err)?;
    q.sync_all().map_err(io_err)?;
    Ok(line.len() + copied as usize)
}

/// The side file torn tails are moved to.
#[must_use]
pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("store"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".quarantine");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{cell_id, fingerprint};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hcperf-store-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(quarantine_path(&p));
        p
    }

    #[test]
    fn lifecycle_round_trips_through_reopen() {
        let path = tmp("lifecycle");
        let fp = fingerprint(&["unit", "seed=1", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let b = cell_id(&fp, "cell/b");
        {
            let mut store = Store::open(&path).unwrap();
            assert!(store.register(&a, "cell/a").unwrap());
            assert!(store.register(&b, "cell/b").unwrap());
            assert!(!store.register(&a, "cell/a").unwrap(), "no duplicate op");
            store.mark_running(&a).unwrap();
            store.complete(&a, 1.5, "{\"x\":1}").unwrap();
            store.mark_running(&b).unwrap();
            store.fail(&b, "panicked: boom").unwrap();
            store
                .record_run(&fp, RunSummary { hits: 0, misses: 2 })
                .unwrap();
            store.sync().unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.quarantined_bytes(), 0);
        let cell = store.lookup(&a).unwrap();
        assert_eq!(cell.key, "cell/a");
        assert_eq!(
            cell.state,
            CellState::Done {
                wall_ms: 1.5,
                payload: "{\"x\":1}".into(),
                attempts: 1,
            }
        );
        assert!(matches!(
            store.lookup(&b).unwrap().state,
            CellState::Failed { .. }
        ));
        let status = store.status();
        assert_eq!((status.done, status.failed), (1, 1));
        assert_eq!(status.last_run, Some(RunSummary { hits: 0, misses: 2 }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_reregister_done_cells_do_not() {
        let path = tmp("retry");
        let fp = fingerprint(&["unit", "seed=1", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let mut store = Store::open(&path).unwrap();
        store.register(&a, "cell/a").unwrap();
        store.fail(&a, "boom").unwrap();
        assert!(store.register(&a, "cell/a").unwrap(), "failed cell retries");
        store.complete(&a, 0.1, "1").unwrap();
        assert!(!store.register(&a, "cell/a").unwrap(), "done cell sticks");
        assert!(store.mark_running(&a).is_err(), "done is terminal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn key_collision_is_a_lifecycle_error() {
        let path = tmp("collision");
        let mut store = Store::open(&path).unwrap();
        store.register("deadbeef", "cell/a").unwrap();
        assert!(matches!(
            store.register("deadbeef", "cell/b"),
            Err(StoreError::Lifecycle(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_wall_ms_is_refused_before_the_log_sees_it() {
        let path = tmp("nan-wall");
        let mut store = Store::open(&path).unwrap();
        store.register("0a", "cell/a").unwrap();
        store.register("0b", "cell/b").unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                store.complete("0a", bad, "1"),
                Err(StoreError::NonFiniteWallMs(_))
            ));
        }
        store.complete("0b", 2.5, "2").unwrap();
        store.sync().unwrap();
        drop(store);
        // Reopening replays every record: nothing is quarantined, `a`
        // is still pending and `b` kept its result.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.quarantined_bytes(), 0);
        assert_eq!(store.lookup("0a").unwrap().state, CellState::Pending);
        assert!(matches!(
            store.lookup("0b").unwrap().state,
            CellState::Done { wall_ms, .. } if wall_ms == 2.5
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_with_metacharacters_round_trips_exactly() {
        let path = tmp("escape");
        let payload = "{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":[1.5,null]}";
        let mut store = Store::open(&path).unwrap();
        store.register("00ff", "cell/esc").unwrap();
        store.complete("00ff", 0.0, payload).unwrap();
        store.sync().unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        match &store.lookup("00ff").unwrap().state {
            CellState::Done { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("expected done, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Attempt counts survive the log round trip, first-try ops keep
    /// their historical bytes, and the failed listing reports
    /// `(key, attempts, error)` sorted by key.
    #[test]
    fn attempts_round_trip_and_failed_listing() {
        let path = tmp("attempts");
        let fp = fingerprint(&["unit", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let b = cell_id(&fp, "cell/b");
        let c = cell_id(&fp, "cell/c");
        {
            let mut store = Store::open(&path).unwrap();
            store.register(&a, "cell/a").unwrap();
            store.register(&b, "cell/b").unwrap();
            store.register(&c, "cell/c").unwrap();
            store.complete_with_attempts(&a, 1.0, "1", 3).unwrap();
            store.fail_with_attempts(&b, "panicked: boom", 4).unwrap();
            store.fail(&c, "panicked: pow").unwrap();
            store.sync().unwrap();
        }
        let log = std::fs::read_to_string(&path).unwrap();
        assert!(log.contains("\"payload\":\"1\",\"attempts\":3"));
        assert!(
            log.contains("\"error\":\"panicked: pow\"}"),
            "first-try failure keeps the pre-retry byte layout"
        );
        let store = Store::open(&path).unwrap();
        assert_eq!(
            store.lookup(&a).unwrap().state,
            CellState::Done {
                wall_ms: 1.0,
                payload: "1".into(),
                attempts: 3,
            }
        );
        assert_eq!(
            store.failed_cells(),
            vec![
                ("cell/b".into(), 4, "panicked: boom".into()),
                ("cell/c".into(), 1, "panicked: pow".into()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bottlenecks_sort_slowest_first() {
        let path = tmp("bottlenecks");
        let mut store = Store::open(&path).unwrap();
        for (i, wall) in [(0, 1.0), (1, 9.0), (2, 4.0)] {
            let id = format!("{i:032x}");
            store.register(&id, &format!("cell/{i}")).unwrap();
            store.complete(&id, wall, "0").unwrap();
        }
        store
            .register("ff".repeat(16).as_str(), "cell/stuck")
            .unwrap();
        let b = store.bottlenecks(2);
        assert_eq!(
            b.slowest_done,
            vec![(9.0, "cell/1".into()), (4.0, "cell/2".into())]
        );
        assert_eq!(b.stuck, vec!["cell/stuck".to_string()]);
        let _ = std::fs::remove_file(&path);
    }
}
