//! Host facts every result records (core count, compiler, commit) and the
//! process's CPU time and peak memory from `getrusage(2)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Instant;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit checked out in the working directory, if it is a git
    /// checkout.
    pub commit: String,
}

impl Host {
    /// Describes this host and the checkout in the working directory.
    #[must_use]
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit(Path::new(".git"))
                .unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        }
    }
}

/// Resolves `HEAD` by reading the repository files directly (no `git`
/// process, no search above the working directory).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// CPU time and peak resident memory of this process so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

/// How long a fixed, program-independent reference computation takes
/// on this host right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Wall seconds, averaged over the threads.
    pub wall_s: f64,
    /// CPU seconds per thread.
    pub cpu_s: f64,
}

/// Times the calibration kernel on `threads` threads at once.
///
/// The kernel is a miniature of the simulator's own work — an event heap
/// driving periodic job releases and completions, earliest-deadline
/// dispatch over a ready vector, a sensed-history buffer read back by
/// binary search — so that it slows down with the host the way the
/// workloads do. It depends on nothing in the program, so a change to the
/// program cannot move it. Each thread times itself and the wall times
/// are averaged, not maximized: the workloads' worker pools rebalance
/// jobs, so a stall on one thread costs them about its share, not all of
/// it.
#[must_use]
pub fn calibrate(threads: usize) -> Calibration {
    let cpu = usage().cpu_s;
    let walls: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let start = Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(t as u64)));
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    let n = walls.len().max(1) as f64;
    Calibration {
        wall_s: walls.iter().sum::<f64>() / n,
        cpu_s: (usage().cpu_s - cpu) / n,
    }
}

/// Events the calibration kernel handles per thread.
const KERNEL_EVENTS: u32 = 250_000;
/// Rows the kernel's history buffer grows to before it starts afresh.
const HISTORY_ROWS: u32 = 8_000;

/// An EDF simulation of 16 periodic tasks on 4 processors at about 70 %
/// utilization; returns the deadlines met.
fn kernel(seed: u64) -> f64 {
    const TASKS: usize = 16;
    const PROCS: usize = 4;
    let mut state = seed ^ 0x5eed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let periods: Vec<f64> = (0..TASKS).map(|i| 0.01 + 0.005 * i as f64).collect();
    // (time bits, kind, index): kind 0 releases task `index`, kind 1
    // completes the job on processor `index`.
    let mut events: BinaryHeap<Reverse<(u64, u8, usize)>> = periods
        .iter()
        .enumerate()
        .map(|(i, p)| Reverse((p.to_bits(), 0, i)))
        .collect();
    let mut ready: Vec<(f64, f64, usize)> = Vec::new(); // (deadline, exec, task)
    let mut running: [Option<f64>; PROCS] = [None; PROCS];
    let mut met = 0.0f64;
    // A sensed-history buffer read back by binary search, as the closed
    // loops keep one per vehicle.
    let mut history: Vec<(f64, f64)> = Vec::new();
    for event in 0..KERNEL_EVENTS {
        let Some(Reverse((bits, kind, idx))) = events.pop() else {
            break;
        };
        let now = f64::from_bits(bits);
        if event % HISTORY_ROWS == 0 {
            history = Vec::with_capacity(HISTORY_ROWS as usize);
        }
        history.push((now, met));
        let back = now - 0.1;
        let row = history.partition_point(|h| h.0 <= back);
        met += history.get(row).map_or(0.0, |h| h.1 * 1e-12);
        if kind == 0 {
            let exec = periods[idx] * (0.05 + (next() % 1000) as f64 * 2.5e-4);
            ready.push((now + periods[idx], exec, idx));
            events.push(Reverse(((now + periods[idx]).to_bits(), 0, idx)));
        } else if let Some(deadline) = running[idx].take() {
            met += f64::from(u8::from(now <= deadline));
        }
        for (p, slot) in running.iter_mut().enumerate() {
            if slot.is_some() || ready.is_empty() {
                continue;
            }
            let mut best = 0;
            for (j, job) in ready.iter().enumerate() {
                if (job.0, job.2) < (ready[best].0, ready[best].2) {
                    best = j;
                }
            }
            let (deadline, exec, _) = ready.swap_remove(best);
            *slot = Some(deadline);
            events.push(Reverse(((now + exec).to_bits(), 1, p)));
        }
    }
    met
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) through the 64-bit Linux ABI");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Reads this process's usage.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
#[must_use]
pub fn usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `RUSAGE_SELF` is a valid `who`; the call writes
    // only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&r.ru_utime) + secs(&r.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: r.ru_maxrss as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu_s > before.cpu_s, "{before:?} -> {after:?}");
        assert!(after.peak_rss_mb > 0.0);
    }

    #[test]
    fn host_names_its_compiler() {
        let host = Host::detect();
        assert!(host.nproc >= 1);
        assert!(host.rustc.starts_with("rustc "), "{}", host.rustc);
    }
}
