//! Wall-clock comparison of the sequential experiment loops against the
//! `hcperf-harness` worker pool, recorded as `BENCH_harness.json`.
//!
//! Two batches:
//!
//! * **simulation** — ≥ 16 independent car-following cells
//!   (scheme × seed), the exact shape `fig15_hardware` fans out.
//!   CPU-bound, so the speedup tracks the host's core count (a 1-core
//!   container measures ~1×; a 4-core host ≥ 2× — the acceptance shape
//!   for this batch).
//! * **latency** — the same batch size sleeping instead of simulating,
//!   isolating the pool's concurrency from the host's core budget.
//!
//! The binary also asserts that the parallel simulation results are
//! bit-identical to the sequential loop before trusting any timing.
//!
//! ```sh
//! cargo run --release -p hcperf-bench --bin bench_harness [-- --jobs N]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hcperf::Scheme;
use hcperf_harness::{available_workers, run_batch, BatchOptions, Job, JsonlSink};
use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig, CarFollowingResult};

const SEEDS: [u64; 4] = [42, 7, 1234, 99];

fn cells() -> Vec<Job<(Scheme, u64)>> {
    Scheme::all()
        .into_iter()
        .flat_map(|scheme| SEEDS.iter().map(move |&seed| (scheme, seed)))
        .map(|(scheme, seed)| {
            Job::with_seed(format!("scheme={scheme}/seed={seed}"), (scheme, seed), seed)
        })
        .collect()
}

fn cell_config(scheme: Scheme, seed: u64) -> CarFollowingConfig {
    let mut config = CarFollowingConfig::hardware(scheme);
    config.seed = seed;
    config.record_series = false;
    // Long enough that one cell is tens of milliseconds of real work,
    // so the comparison measures simulation throughput rather than
    // thread-pool constant overheads.
    config.duration = 120.0;
    config
}

fn run_cell(&(scheme, seed): &(Scheme, u64)) -> CarFollowingResult {
    run_car_following(&cell_config(scheme, seed)).expect("cell simulation")
}

/// Digest of one result for the bit-identity check (the full struct
/// carries time series; these scalars are derived from all of them).
fn digest(r: &CarFollowingResult) -> (u64, f64, f64, f64) {
    (
        r.commands,
        r.rms_speed_error,
        r.rms_distance_error,
        r.overall_miss_ratio,
    )
}

fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jobs = cells();
    let requested = hcperf_bench::jobs_from_cli();
    let workers = if requested == 0 {
        available_workers()
    } else {
        requested
    };
    println!(
        "harness speedup: {} simulation cells, {workers} workers (host reports {})",
        jobs.len(),
        available_workers()
    );

    // --- CPU-bound: the real simulation batch, sequential vs pool. ---
    let (seq_wall, seq_results) =
        time(|| jobs.iter().map(|j| run_cell(&j.input)).collect::<Vec<_>>());
    println!("  sequential: {:.2} s", seq_wall.as_secs_f64());

    let sink_path = hcperf_bench::experiments::output_dir().join("harness_batch.jsonl");
    let mut sink = JsonlSink::new(
        std::io::BufWriter::new(std::fs::File::create(&sink_path)?),
        |r: &CarFollowingResult| {
            let (commands, speed, dist, miss) = digest(r);
            format!(
                "{{\"commands\":{commands},\"rms_speed\":{speed},\"rms_distance\":{dist},\"miss\":{miss}}}"
            )
        },
    );
    let (par_wall, par_results) = time(|| {
        let opts = BatchOptions::with_workers(workers).stream_to(&mut sink);
        run_batch(&jobs, opts, |input, _| run_cell(input)).expect("batch")
    });
    sink.finish()?;
    println!(
        "  pool ({workers} workers): {:.2} s (streamed {} records to {})",
        par_wall.as_secs_f64(),
        jobs.len(),
        sink_path.display()
    );

    for (s, p) in seq_results.iter().zip(&par_results) {
        let p = match &p.status {
            hcperf_harness::JobStatus::Ok(r) => r,
            hcperf_harness::JobStatus::Panicked(m) => panic!("cell panicked: {m}"),
        };
        assert_eq!(digest(s), digest(p), "parallel must be bit-identical");
    }
    println!("  bit-identity: OK ({} cells)", jobs.len());
    let sim_speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64();

    // --- Latency-bound: same batch size, pure waiting. Isolates pool
    // concurrency from the host's core budget. ---
    let naps: Vec<Job<u64>> = (0..jobs.len())
        .map(|i| Job::new(format!("nap/{i}"), 50))
        .collect();
    let nap = |ms: &u64, _seed: u64| std::thread::sleep(Duration::from_millis(*ms));
    let (nap_seq, _) = time(|| naps.iter().for_each(|j| nap(&j.input, 0)));
    let (nap_par, _) = time(|| run_batch(&naps, BatchOptions::with_workers(8), nap).expect("naps"));
    let nap_speedup = nap_seq.as_secs_f64() / nap_par.as_secs_f64();
    println!(
        "  latency-bound control: {:.2} s sequential vs {:.2} s on 8 workers ({nap_speedup:.1}x)",
        nap_seq.as_secs_f64(),
        nap_par.as_secs_f64()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"title\": \"hcperf-harness: sequential vs worker-pool experiment execution\","
    );
    let _ = writeln!(
        json,
        "  \"methodology\": {{\n    \"batch\": \"{} independent car-following cells (5 schemes x {} seeds), CarFollowingConfig::hardware, record_series=false — the fig15 fan-out shape\",\n    \"parallel\": \"hcperf_harness::run_batch, {workers} workers, results asserted bit-identical to the sequential loop before timing is trusted\",\n    \"latency_control\": \"same batch size, each job sleeps 50 ms, 8 workers — isolates pool concurrency from the host core budget\",\n    \"host_available_parallelism\": {},\n    \"command\": \"cargo run --release -p hcperf-bench --bin bench_harness\"\n  }},",
        jobs.len(),
        SEEDS.len(),
        available_workers()
    );
    let _ = writeln!(json, "  \"results\": {{");
    let _ = writeln!(
        json,
        "    \"simulation_batch\": {{ \"jobs\": {}, \"workers\": {workers}, \"sequential_s\": {:.3}, \"pool_s\": {:.3}, \"speedup\": {sim_speedup:.2}, \"bit_identical\": true }},",
        jobs.len(),
        seq_wall.as_secs_f64(),
        par_wall.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "    \"latency_bound_batch\": {{ \"jobs\": {}, \"workers\": 8, \"sequential_s\": {:.3}, \"pool_s\": {:.3}, \"speedup\": {nap_speedup:.2} }}",
        naps.len(),
        nap_seq.as_secs_f64(),
        nap_par.as_secs_f64()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"note\": \"The CPU-bound speedup is bounded by the host's cores: on a >= 4-core host the simulation batch clears 2x; on a 1-core container it stays ~1x while the latency-bound control still demonstrates the pool's concurrency.\""
    );
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_harness.json", &json)?;
    println!("wrote BENCH_harness.json (simulation speedup {sim_speedup:.2}x)");
    Ok(())
}
