//! Streaming result sinks.
//!
//! The pool feeds completed [`JobResult`]s to a sink *in submission
//! order* (out-of-order completions are buffered), so anything a sink
//! writes is bit-identical regardless of worker count — the same
//! contract as the in-memory result vector.

use std::io::{self, Write};

use crate::escape::json_escape;
use crate::job::{JobResult, JobStatus};

/// Receives results as they become deliverable in submission order.
pub trait RecordSink<O> {
    /// Called once per job, in index order.
    fn record(&mut self, result: &JobResult<O>);

    /// Polled by the pool after each [`RecordSink::record`]: returning
    /// `false` aborts the batch with a structured
    /// `HarnessError::Aborted`. The default keeps going; sinks that
    /// write to fallible I/O override this so a dead writer stops the
    /// run promptly (leaving a clean, resumable prefix) instead of
    /// simulating thousands of results nobody will ever see.
    fn keep_going(&self) -> bool {
        true
    }
}

/// Every `FnMut(&JobResult<O>)` is a sink.
impl<O, F: FnMut(&JobResult<O>)> RecordSink<O> for F {
    fn record(&mut self, result: &JobResult<O>) {
        self(result);
    }
}

/// Streams one JSON object per job to a writer (JSON Lines).
///
/// Each line carries the job envelope (`index`, `key`, `seed`, `ok`,
/// `wall_ms`, for retried jobs `attempts`, and, for panicked jobs,
/// `panic`) plus a `payload` field
/// produced by a caller-supplied serializer — the harness itself has no
/// serde dependency, so the payload arrives as a ready-made JSON
/// fragment.
///
/// `wall_ms` is the one field that legitimately differs between runs;
/// pass `timing: false` to omit it when the stream must be
/// bit-reproducible end to end.
///
/// Dropping the sink without calling [`JsonlSink::finish`] flushes the
/// writer best-effort, so an early exit (an error return unwinding past
/// the sink, an aborted batch) still leaves every delivered record on
/// disk — the replayable-prefix guarantee interrupted runs resume from.
pub struct JsonlSink<W: Write, F> {
    /// `None` only after [`JsonlSink::finish`] took the writer out.
    writer: Option<W>,
    payload: F,
    timing: bool,
    error: Option<io::Error>,
    records: usize,
}

impl<W: Write, F> std::fmt::Debug for JsonlSink<W, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("timing", &self.timing)
            .field("records", &self.records)
            .field("errored", &self.error.is_some())
            .finish_non_exhaustive()
    }
}

impl<W: Write, F> JsonlSink<W, F> {
    /// A sink writing to `writer`, serializing payloads with `payload`
    /// (which must return a valid JSON fragment, e.g. via `serde_json`).
    pub fn new(writer: W, payload: F) -> JsonlSink<W, F> {
        JsonlSink {
            writer: Some(writer),
            payload,
            timing: true,
            error: None,
            records: 0,
        }
    }

    /// Controls whether per-job wall times are written (default: yes).
    #[must_use]
    pub fn timing(mut self, timing: bool) -> JsonlSink<W, F> {
        self.timing = timing;
        self
    }

    /// Records written so far.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// Flushes and returns the writer, or the first I/O error hit while
    /// streaming.
    ///
    /// # Errors
    ///
    /// Propagates the first write/flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(mut writer) = self.writer.take() else {
            return Err(io::Error::other("writer already taken"));
        };
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write, F> Drop for JsonlSink<W, F> {
    /// Best-effort flush so an abandoned sink (early error return,
    /// aborted batch) leaves every recorded line on disk.
    fn drop(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl<O, W: Write, F: Fn(&O) -> String> RecordSink<O> for JsonlSink<W, F> {
    // hcperf-lint: det-sink(harness-jsonl): every JSONL byte written here must be taint-free
    fn record(&mut self, result: &JobResult<O>) {
        if self.error.is_some() {
            return;
        }
        let mut line = format!(
            "{{\"index\":{},\"key\":\"{}\",\"seed\":{}",
            result.index,
            json_escape(&result.key),
            result.seed
        );
        // Emitted only for retried jobs: a first-try result serializes
        // to exactly the bytes it did before retry policies existed.
        if result.attempts > 1 {
            line.push_str(&format!(",\"attempts\":{}", result.attempts));
        }
        if self.timing {
            line.push_str(&format!(
                ",\"wall_ms\":{:.3}",
                result.wall.as_secs_f64() * 1e3
            ));
        }
        match &result.status {
            JobStatus::Ok(o) => {
                line.push_str(",\"ok\":true,\"payload\":");
                line.push_str(&(self.payload)(o));
            }
            JobStatus::Panicked(msg) => {
                line.push_str(&format!(",\"ok\":false,\"panic\":\"{}\"", json_escape(msg)));
            }
        }
        line.push_str("}\n");
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        match writer.write_all(line.as_bytes()) {
            Ok(()) => self.records += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// A dead writer stops the batch instead of discarding the rest of
    /// the stream.
    fn keep_going(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result(index: usize, status: JobStatus<u32>) -> JobResult<u32> {
        JobResult {
            index,
            key: format!("job/{index}"),
            seed: 7,
            wall: Duration::from_millis(2),
            attempts: 1,
            status,
        }
    }

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn streams_ok_and_panic_records() {
        let mut sink = JsonlSink::new(Vec::new(), |o: &u32| o.to_string()).timing(false);
        sink.record(&result(0, JobStatus::Ok(42)));
        sink.record(&result(1, JobStatus::Panicked("boom \"x\"".into())));
        assert_eq!(sink.records(), 2);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"index\":0,\"key\":\"job/0\",\"seed\":7,\"ok\":true,\"payload\":42}\n\
             {\"index\":1,\"key\":\"job/1\",\"seed\":7,\"ok\":false,\"panic\":\"boom \\\"x\\\"\"}\n"
        );
    }

    /// `attempts` appears only when a job was actually retried, keeping
    /// first-try streams byte-identical to pre-retry output.
    #[test]
    fn attempts_field_is_emitted_only_when_retried() {
        let mut sink = JsonlSink::new(Vec::new(), |o: &u32| o.to_string()).timing(false);
        sink.record(&result(0, JobStatus::Ok(1)));
        let mut retried = result(1, JobStatus::Ok(2));
        retried.attempts = 3;
        sink.record(&retried);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"index\":0,\"key\":\"job/0\",\"seed\":7,\"ok\":true,\"payload\":1}\n\
             {\"index\":1,\"key\":\"job/1\",\"seed\":7,\"attempts\":3,\"ok\":true,\"payload\":2}\n"
        );
    }
}
