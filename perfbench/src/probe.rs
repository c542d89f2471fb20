//! Timing wrappers the benchmark slips around the program's public seams:
//! the scheduler a `Sim` is generic over, the result cache the harness
//! consults, and the writer a fleet streams into. Each wrapper delegates
//! every call unchanged and only counts and times it.

use std::io;
use std::time::Instant;

use hcperf::SchedulerKind;
use hcperf_harness::{JobResult, ResultCache};
use hcperf_rtsim::{SchedContext, Scheduler};
use hcperf_taskgraph::SimTime;

use crate::spans::{Layer, Spans};

/// A scheduler that times `select` around the scheme it wraps.
///
/// For HCPerf it also takes the γ recompute out of `select` so the two
/// can be timed apart: it mirrors the scheduler's public recompute rule
/// (recompute when a new nominal `u` arrived, or when
/// `DpsConfig::recompute_interval` has passed since the last one) and
/// calls the public `recompute_gamma` itself at exactly those dispatch
/// points. The wrapped `select` then finds γ fresh and skips its own
/// recompute, so the schedule is unchanged — which the traced run proves
/// by reproducing `run_fleet`'s records bit for bit.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: SchedulerKind,
    spans: Spans,
    idle: u64,
    queue_len_sum: u64,
    dirty: bool,
    last_recompute: Option<SimTime>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    ///
    /// # Errors
    ///
    /// An HCPerf scheduler with a zero recompute interval recomputes on
    /// every call; the wrapper cannot take that recompute out of
    /// `select` without running it twice, so it refuses.
    pub fn new(inner: SchedulerKind) -> Result<TimedScheduler, String> {
        if let SchedulerKind::HcPerf(dps) = &inner {
            if dps.config().recompute_interval <= hcperf_taskgraph::SimSpan::ZERO {
                return Err("a zero γ recompute interval cannot be traced".to_owned());
            }
        }
        Ok(TimedScheduler {
            inner,
            spans: Spans::default(),
            idle: 0,
            queue_len_sum: 0,
            dirty: true,
            last_recompute: None,
        })
    }

    /// Forwards the PDC's nominal `u`, which makes γ stale.
    pub fn set_nominal_u(&mut self, u: f64) {
        self.dirty = true;
        self.inner.set_nominal_u(u);
    }

    /// `select` and γ-recompute spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// `select` calls that returned no job.
    #[must_use]
    pub fn idle_calls(&self) -> u64 {
        self.idle
    }

    /// Sum over `select` calls of the ready-queue length.
    #[must_use]
    pub fn queue_len_sum(&self) -> u64 {
        self.queue_len_sum
    }
}

impl Scheduler for TimedScheduler {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        let start = Instant::now();
        self.queue_len_sum += ctx.queue.len() as u64;
        if let SchedulerKind::HcPerf(dps) = &mut self.inner {
            let interval = dps.config().recompute_interval;
            let stale = self.last_recompute.is_none_or(|t| ctx.now - t >= interval);
            if self.dirty || stale {
                let gamma = Instant::now();
                dps.recompute_gamma(ctx);
                self.spans.close(Layer::Gamma, gamma);
                self.dirty = false;
                self.last_recompute = Some(ctx.now);
            }
        }
        let pick = self.inner.select(ctx);
        if pick.is_none() {
            self.idle += 1;
        }
        self.spans.close(Layer::Select, start);
        pick
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A result cache that counts and times the cache it wraps.
pub struct TimedCache<'a, O> {
    inner: &'a mut dyn ResultCache<O>,
    /// Lookups made.
    pub gets: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Nanoseconds spent in lookups.
    pub get_ns: u64,
    /// Fresh results offered back.
    pub puts: u64,
    /// Nanoseconds spent storing fresh results.
    pub put_ns: u64,
}

impl<O> std::fmt::Debug for TimedCache<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedCache")
            .field("gets", &self.gets)
            .field("hits", &self.hits)
            .field("puts", &self.puts)
            .finish_non_exhaustive()
    }
}

impl<'a, O> TimedCache<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ResultCache<O>) -> TimedCache<'a, O> {
        TimedCache {
            inner,
            gets: 0,
            hits: 0,
            get_ns: 0,
            puts: 0,
            put_ns: 0,
        }
    }

    fn lookup<T>(&mut self, probe: impl FnOnce(&mut dyn ResultCache<O>) -> Option<T>) -> Option<T> {
        let start = Instant::now();
        let found = probe(&mut *self.inner);
        self.get_ns += elapsed_ns(start);
        self.gets += 1;
        self.hits += u64::from(found.is_some());
        found
    }
}

impl<O> ResultCache<O> for TimedCache<'_, O> {
    fn get(&mut self, key: &str) -> Option<O> {
        self.lookup(|c| c.get(key))
    }

    fn get_with_attempts(&mut self, key: &str) -> Option<(O, u32)> {
        self.lookup(|c| c.get_with_attempts(key))
    }

    fn put(&mut self, result: &JobResult<O>) {
        let start = Instant::now();
        self.inner.put(result);
        self.put_ns += elapsed_ns(start);
        self.puts += 1;
    }
}

/// A writer that counts the bytes and the time that pass through it.
#[derive(Debug, Default)]
pub struct CountingWriter<W> {
    inner: W,
    /// Bytes accepted.
    pub bytes: u64,
    /// Nanoseconds spent in `write` and `flush`.
    pub write_ns: u64,
}

impl<W: io::Write> CountingWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> CountingWriter<W> {
        CountingWriter {
            inner,
            bytes: 0,
            write_ns: 0,
        }
    }

    /// The wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> io::Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf);
        self.write_ns += elapsed_ns(start);
        let n = n?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.flush();
        self.write_ns += elapsed_ns(start);
        r
    }
}

/// Nanoseconds since `start`, saturating.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn counting_writer_counts_every_byte_it_passes_on() {
        let mut w = CountingWriter::new(Vec::new());
        w.write_all(b"hello ").unwrap();
        writeln!(w, "world {}", 42).unwrap();
        w.flush().unwrap();
        assert_eq!(w.bytes, 15);
        assert_eq!(w.into_inner(), b"hello world 42\n");
    }

    #[test]
    fn counting_writer_counts_only_accepted_bytes() {
        /// Accepts at most three bytes per call.
        struct Trickle(Vec<u8>);
        impl io::Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter::new(Trickle(Vec::new()));
        assert_eq!(w.write(b"abcdef").unwrap(), 3);
        w.write_all(b"ghijk").unwrap();
        assert_eq!(w.bytes, 8);
        assert_eq!(w.into_inner().0, b"abcghijk");
    }

    #[test]
    fn timed_cache_counts_hits_and_puts() {
        struct Evens;
        impl ResultCache<u32> for Evens {
            fn get(&mut self, key: &str) -> Option<u32> {
                key.parse::<u32>().ok().filter(|k| k % 2 == 0)
            }
            fn put(&mut self, _: &JobResult<u32>) {}
        }
        let mut inner = Evens;
        let mut cache = TimedCache::new(&mut inner);
        assert_eq!(cache.get("2"), Some(2));
        assert_eq!(cache.get_with_attempts("3"), None);
        assert_eq!(cache.get_with_attempts("4"), Some((4, 1)));
        cache.put(&JobResult {
            index: 0,
            key: "3".into(),
            seed: 0,
            wall: std::time::Duration::ZERO,
            attempts: 1,
            status: hcperf_harness::JobStatus::Ok(3),
        });
        assert_eq!((cache.gets, cache.hits, cache.puts), (3, 2, 1));
    }
}
