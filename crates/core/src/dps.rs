//! The Dynamic Priority Scheduler (§ V).
//!
//! Each ready job gets a **dynamic scheduling priority**
//!
//! ```text
//! P_i = γ·p_i + d_i                                      (paper Eq. 10)
//! ```
//!
//! where `p_i` is the static priority (smaller = more important) and `d_i`
//! is the *scheduling deadline* — the latest start delay that still meets
//! the deadline, `d_i = D_i − c_i` (Eq. 9), evaluated here as the job's
//! absolute laxity `release + D_i − now − c_i` so jobs released in different
//! cycles compare correctly. The job with the smallest `P_i` dispatches
//! first:
//!
//! * `γ = 0` → pure laxity/deadline order (throughput, guarantees);
//! * large `γ` → static-priority order (control-task responsiveness).
//!
//! **Deriving γ (Eq. 11–12).** The scheduler computes the largest γ for
//! which *every* ready job can still start in time under the γ-induced
//! order:
//!
//! ```text
//! c_j + ΣT_p/n_p + Σ_{P_i < P_j} c_i / n_p  <  D_j(remaining)   ∀ j
//! ```
//!
//! then clamps the PDC's nominal `u(t)` into `[0, γ_max]`. Two search
//! strategies are provided: a bisection that assumes the feasible set is the
//! interval `[0, γ_max]` (the paper's framing, and the default), and an
//! exact sweep over the *critical γ values* where the queue order changes —
//! the ablation benchmark compares them.
//!
//! **Probe cost.** A recompute evaluates Eq. 11 at up to `2 + iterations`
//! γ values against one queue snapshot. Everything γ-independent — static
//! priorities, laxities at `now`, observed execution times, absolute
//! deadlines — is gathered once into a scratch buffer owned by the
//! scheduler, the queue is ranked once with a full sort, and each further
//! probe only *re-ranks* the previous order with a single insertion pass
//! (adjacent probes reorder few jobs, so the pass is `O(n + inversions)`
//! rather than a fresh `O(n log n)` sort). The pre-optimization
//! sort-per-probe search is retained in [`reference`] as the benchmark
//! baseline and as an independent oracle in tests.

use std::cmp::Ordering;

use hcperf_rtsim::{Job, JobId, SchedContext, Scheduler};
use hcperf_taskgraph::{SimSpan, SimTime};

/// How the scheduler searches for `γ_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GammaSearch {
    /// Bisection over `[0, ceiling]` assuming interval-shaped feasibility
    /// (the paper's assumption). Cost `O(iter · n log n)`.
    Bisection {
        /// Number of bisection iterations (each halves the bracket).
        iterations: u32,
    },
    /// Exact sweep over the `O(n²)` pairwise crossover points of
    /// `P_i(γ) = P_j(γ)`; finds the true supremum of the feasible set.
    CriticalPoints,
}

impl Default for GammaSearch {
    fn default() -> Self {
        GammaSearch::Bisection { iterations: 24 }
    }
}

/// Configuration of the Dynamic Priority Scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpsConfig {
    /// Absolute upper bound of the γ search, in seconds of laxity per
    /// priority level.
    pub gamma_ceiling: f64,
    /// Search strategy for `γ_max`.
    pub search: GammaSearch,
    /// Minimum simulated time between γ recomputations (γ is also
    /// recomputed whenever a new nominal `u` arrives).
    pub recompute_interval: SimSpan,
    /// Paper-literal Eq. 11: if **any** ready job cannot meet its deadline
    /// under any order, treat the system as overloaded and force `γ = 0`.
    /// When `false` (default), jobs that are already doomed at `γ = 0` are
    /// excluded from the constraint set — no γ can save them, and keeping
    /// them would pin `γ = 0` through every transient.
    pub strict_eq11: bool,
}

impl Default for DpsConfig {
    fn default() -> Self {
        DpsConfig {
            gamma_ceiling: 0.2,
            search: GammaSearch::default(),
            recompute_interval: SimSpan::from_millis(5.0),
            strict_eq11: false,
        }
    }
}

/// The Dynamic Priority Scheduler.
///
/// Feed the nominal parameter from the Performance Directed Controller with
/// [`set_nominal_u`](DynamicPriorityScheduler::set_nominal_u) once per
/// control period; the scheduler derives and caches the actual coefficient
/// γ and dispatches by Eq. 10.
///
/// # Examples
///
/// ```
/// use hcperf::dps::{DpsConfig, DynamicPriorityScheduler};
/// use hcperf_rtsim::Scheduler;
///
/// let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
/// dps.set_nominal_u(0.05);
/// assert_eq!(dps.name(), "HCPerf");
/// ```
#[derive(Debug, Clone)]
pub struct DynamicPriorityScheduler {
    config: DpsConfig,
    nominal_u: f64,
    gamma: f64,
    gamma_max: f64,
    last_compute: Option<SimTime>,
    dirty: bool,
    scratch: GammaScratch,
}

/// Per-job constraint data cached for one γ recomputation, plus the ranking
/// maintained incrementally across probes. Owned by the scheduler so
/// steady-state recomputes allocate nothing.
#[derive(Debug, Clone, Default)]
struct GammaScratch {
    /// Static priority `p_i` per queue entry.
    prio: Vec<f64>,
    /// Laxity `d_i` at `now` (seconds) per queue entry.
    laxity: Vec<f64>,
    /// Observed execution time `c_i` (seconds) per queue entry.
    exec: Vec<f64>,
    /// Absolute deadline (seconds) per queue entry.
    deadline: Vec<f64>,
    /// Tie-break token per queue entry.
    id: Vec<JobId>,
    /// `γ·p_i + d_i` at the current probe.
    key: Vec<f64>,
    /// Queue indices ranked by `key` (ascending = higher priority).
    order: Vec<usize>,
    /// Jobs excluded from the Eq. 11 constraint set (relaxed mode).
    skip: Vec<bool>,
    /// Candidate γ values for the critical-point sweep.
    points: Vec<f64>,
    /// Work counted by `rank` and `feasible`, in test builds only.
    #[cfg(test)]
    tally: Tally,
}

/// The γ kernels' work, counted in test builds so property tests can
/// bound it on generated queues.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
struct Tally {
    /// `rank` calls (γ probes).
    probes: usize,
    /// Probes that repaired the previous order instead of sorting.
    repairs: usize,
    /// `feasible` calls.
    walks: usize,
    /// Jobs `feasible` visited, summed over its calls.
    visits: usize,
}

impl GammaScratch {
    /// Gathers the γ-independent job data; the ranking starts unordered.
    fn load(&mut self, ctx: &SchedContext<'_>) {
        let n = ctx.queue.len();
        self.prio.clear();
        self.laxity.clear();
        self.exec.clear();
        self.deadline.clear();
        self.id.clear();
        self.order.clear();
        for job in ctx.queue {
            let c = ctx.exec_of(job);
            self.prio
                .push(ctx.graph.spec(job.task()).priority().value() as f64);
            self.laxity.push(job.laxity(ctx.now, c).as_secs());
            self.exec.push(c.as_secs());
            self.deadline.push(job.absolute_deadline().as_secs());
            self.id.push(job.id());
        }
        self.key.clear();
        self.key.resize(n, 0.0);
        self.order.extend(0..n);
        self.skip.clear();
        self.skip.resize(n, false);
    }

    /// Ranks the queue for a probe at `gamma`. The first ranking of a
    /// recompute does a full sort; later probes repair the previous order
    /// with one insertion pass, `O(n + inversions)`.
    // hcperf-lint: hot-path-root
    fn rank(&mut self, gamma: f64, full: bool) {
        #[cfg(test)]
        {
            self.tally.probes += 1;
        }
        for ((k, &p), &l) in self.key.iter_mut().zip(&self.prio).zip(&self.laxity) {
            *k = gamma * p + l;
        }
        let key = &self.key;
        let id = &self.id;
        let ahead = |a: usize, b: usize| -> bool {
            match key[a].total_cmp(&key[b]) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => id[a] < id[b],
            }
        };
        if full {
            self.order.sort_unstable_by(|&a, &b| {
                key[a].total_cmp(&key[b]).then_with(|| id[a].cmp(&id[b]))
            });
        } else {
            #[cfg(test)]
            {
                self.tally.repairs += 1;
            }
            for i in 1..self.order.len() {
                let moving = self.order[i];
                let mut j = i;
                while j > 0 && ahead(moving, self.order[j - 1]) {
                    self.order[j] = self.order[j - 1];
                    j -= 1;
                }
                self.order[j] = moving;
            }
        }
    }

    /// The Eq. 11 feasibility walk over the current ranking: every
    /// non-skipped job must be able to start early enough.
    // hcperf-lint: hot-path-root
    fn feasible(&mut self, now: f64, base: f64, n_p: f64) -> bool {
        #[cfg(test)]
        {
            self.tally.walks += 1;
        }
        let mut higher_work = 0.0;
        for &i in &self.order {
            #[cfg(test)]
            {
                self.tally.visits += 1;
            }
            // `order` is rebuilt alongside the parallel vectors, so the
            // lookups cannot miss; checked access keeps the hot path
            // panic-free regardless.
            let (Some(&c), Some(&skip), Some(&deadline)) =
                (self.exec.get(i), self.skip.get(i), self.deadline.get(i))
            else {
                continue;
            };
            if !skip {
                let finish = now + base + higher_work / n_p + c;
                if finish > deadline {
                    return false;
                }
            }
            higher_work += c;
        }
        true
    }

    /// Marks jobs that miss their deadline even under the current (γ = 0)
    /// ranking — no γ can save them, so relaxed mode drops them from the
    /// constraint set.
    fn mark_doomed(&mut self, now: f64, base: f64, n_p: f64) {
        let mut higher_work = 0.0;
        for &i in &self.order {
            let (Some(&c), Some(&deadline), Some(skip)) =
                (self.exec.get(i), self.deadline.get(i), self.skip.get_mut(i))
            else {
                continue;
            };
            let finish = now + base + higher_work / n_p + c;
            *skip = *skip || finish > deadline;
            higher_work += c;
        }
    }
}

impl DynamicPriorityScheduler {
    /// Creates a scheduler with `γ = 0` (deadline-driven) until the first
    /// coordinator update.
    #[must_use]
    pub fn new(config: DpsConfig) -> Self {
        DynamicPriorityScheduler {
            config,
            nominal_u: 0.0,
            gamma: 0.0,
            gamma_max: 0.0,
            last_compute: None,
            dirty: true,
            scratch: GammaScratch::default(),
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> DpsConfig {
        self.config
    }

    /// Sets the nominal priority-adjustment parameter `u(t)` from the
    /// Performance Directed Controller; γ is re-derived at the next
    /// dispatch point.
    pub fn set_nominal_u(&mut self, u: f64) {
        self.nominal_u = u;
        self.dirty = true;
    }

    /// The current actual priority-adjustment coefficient γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The most recently derived `γ_max` bound.
    #[must_use]
    pub fn gamma_max(&self) -> f64 {
        self.gamma_max
    }

    /// The current nominal parameter `u`.
    #[must_use]
    pub fn nominal_u(&self) -> f64 {
        self.nominal_u
    }

    /// Derives `γ_max` for the current queue (Eq. 11) and clamps the
    /// nominal `u` into `[0, γ_max]` (Eq. 12). Exposed for benchmarks and
    /// diagnostics; [`select`](Scheduler::select) calls it automatically.
    pub fn recompute_gamma(&mut self, ctx: &SchedContext<'_>) {
        self.gamma_max = match self.gamma_max_cached(ctx) {
            Some(g) => g,
            None => {
                // Overloaded: no γ guarantees all deadlines (paper outcome 1).
                self.gamma = 0.0;
                self.gamma_max = 0.0;
                self.last_compute = Some(ctx.now);
                self.dirty = false;
                return;
            }
        };
        // Eq. 12: clamp u into [0, γ_max].
        self.gamma = self.nominal_u.clamp(0.0, self.gamma_max);
        self.last_compute = Some(ctx.now);
        self.dirty = false;
    }

    fn maybe_recompute(&mut self, ctx: &SchedContext<'_>) {
        let stale = match self.last_compute {
            None => true,
            Some(t) => ctx.now - t >= self.config.recompute_interval,
        };
        if self.dirty || stale {
            self.recompute_gamma(ctx);
        }
    }

    /// `γ_max` search against a cached snapshot of the queue (see the
    /// module docs). Returns `None` when even `γ = 0` is infeasible.
    // hcperf-lint: hot-path-root
    fn gamma_max_cached(&mut self, ctx: &SchedContext<'_>) -> Option<f64> {
        let config = self.config;
        if ctx.queue.is_empty() {
            return Some(config.gamma_ceiling);
        }
        let now = ctx.now.as_secs();
        let n_p = ctx.processor_count() as f64;
        let base = ctx.total_remaining().as_secs() / n_p;
        let s = &mut self.scratch;
        s.load(ctx);
        s.rank(0.0, true);
        if !config.strict_eq11 {
            s.mark_doomed(now, base, n_p);
        }
        if !s.feasible(now, base, n_p) {
            return None;
        }
        match config.search {
            GammaSearch::Bisection { iterations } => {
                s.rank(config.gamma_ceiling, false);
                if s.feasible(now, base, n_p) {
                    return Some(config.gamma_ceiling);
                }
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..iterations {
                    let mid = 0.5 * (lo + hi);
                    s.rank(mid, false);
                    if s.feasible(now, base, n_p) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(lo)
            }
            GammaSearch::CriticalPoints => {
                // γ values where two jobs swap order:
                // γ* = (d_b − d_a)/(p_a − p_b). Disjoint field borrows let
                // the pair walk read prio/laxity while pushing to points.
                let GammaScratch {
                    prio,
                    laxity,
                    points,
                    ..
                } = s;
                points.clear();
                for (a, (&pa, &la)) in prio.iter().zip(laxity.iter()).enumerate() {
                    for (&pb, &lb) in prio.iter().zip(laxity.iter()).skip(a + 1) {
                        if pa == pb {
                            continue;
                        }
                        let crossing = (lb - la) / (pa - pb);
                        if crossing > 0.0 && crossing < config.gamma_ceiling {
                            points.push(crossing);
                        }
                    }
                }
                points.push(config.gamma_ceiling);
                points.sort_by(f64::total_cmp);
                points.dedup();
                // The queue order is constant between consecutive crossover
                // points, so feasibility is constant on each interval. Walk
                // intervals from the top; the first feasible interval's
                // upper bound is the supremum of the feasible set. The
                // points vector is taken out for the walk (rank/feasible
                // borrow the rest of the scratch) and restored after so
                // its capacity is reused by the next recompute.
                let points = std::mem::take(&mut s.points);
                let mut supremum = 0.0;
                let uppers = points.iter().copied().rev();
                let lowers = points
                    .iter()
                    .copied()
                    .rev()
                    .skip(1)
                    .chain(std::iter::once(0.0));
                for (upper, lower) in uppers.zip(lowers) {
                    let probe = 0.5 * (lower + upper);
                    s.rank(probe, false);
                    if s.feasible(now, base, n_p) {
                        supremum = upper;
                        break;
                    }
                }
                s.points = points;
                Some(supremum)
            }
        }
    }
}

impl Scheduler for DynamicPriorityScheduler {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        self.maybe_recompute(ctx);
        let gamma = self.gamma;
        // Single pass evaluating each candidate's key exactly once; ties
        // break on (release, id) like the baselines. The winner's tie
        // token rides along in `best` so no candidate is re-indexed.
        let mut best: Option<(f64, (SimTime, JobId), usize)> = None;
        for &i in ctx.candidates {
            let Some(job) = ctx.queue.get(i) else {
                continue;
            };
            let key = priority_key_job(ctx, job, gamma);
            let tie = (job.release(), job.id());
            let better = match &best {
                None => true,
                Some((best_key, best_tie, _)) => match key.total_cmp(best_key) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => tie < *best_tie,
                },
            };
            if better {
                best = Some((key, tie, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    fn name(&self) -> &str {
        "HCPerf"
    }
}

/// `P_i = γ·p_i + d_i` for queue entry `index` (Eq. 10); `d_i` is the
/// absolute laxity in seconds. An out-of-range index (never produced by
/// the schedulers) compares worst rather than panicking.
fn priority_key(ctx: &SchedContext<'_>, index: usize, gamma: f64) -> f64 {
    ctx.queue
        .get(index)
        .map_or(f64::INFINITY, |job| priority_key_job(ctx, job, gamma))
}

/// [`priority_key`] for an already-resolved job.
fn priority_key_job(ctx: &SchedContext<'_>, job: &Job, gamma: f64) -> f64 {
    let p = ctx.graph.spec(job.task()).priority().value() as f64;
    let laxity = job.laxity(ctx.now, ctx.exec_of(job)).as_secs();
    gamma * p + laxity
}

/// The pre-optimization `γ_max` search, retained as the baseline.
///
/// Every feasibility probe rebuilds and re-sorts the whole ranking —
/// `O(n log n)` per probe, with fresh allocations. It exists for two
/// reasons: the `gamma_search/*_sort_per_probe` benchmarks measure it as
/// the *before* configuration, and the unit tests use it as an independent
/// oracle for the incremental implementation (both must return bit-equal
/// results, since they evaluate the same comparisons at the same probes).
/// Panic-surface cleanups (iterator walks instead of indexing) are the
/// only edits since; `incremental_search_matches_sort_per_probe_reference`
/// pins the bit-equality they must preserve.
pub mod reference {
    use super::{priority_key, DpsConfig, GammaSearch};
    use hcperf_rtsim::SchedContext;

    /// Checks the Eq. 11 constraint system at a fixed γ.
    ///
    /// Orders the whole ready queue by `P_i(γ)` and verifies each job can
    /// start early enough: `now + ΣT_p/n_p + Σ_{higher priority} c_i/n_p +
    /// c_j ≤ absolute deadline`. `skip` marks jobs excluded from the
    /// constraints.
    fn feasible(ctx: &SchedContext<'_>, gamma: f64, skip: &[bool]) -> bool {
        let n_p = ctx.processor_count() as f64;
        let base = ctx.total_remaining().as_secs() / n_p;
        let mut order: Vec<(usize, _)> = ctx.queue.iter().enumerate().collect();
        order.sort_by(|&(a, ja), &(b, jb)| {
            priority_key(ctx, a, gamma)
                .total_cmp(&priority_key(ctx, b, gamma))
                .then_with(|| ja.id().cmp(&jb.id()))
        });
        let mut higher_work = 0.0;
        for &(i, job) in &order {
            let c = ctx.exec_of(job).as_secs();
            if !skip.get(i).copied().unwrap_or(true) {
                let start_delay = base + higher_work / n_p;
                let finish = ctx.now.as_secs() + start_delay + c;
                if finish > job.absolute_deadline().as_secs() {
                    return false;
                }
            }
            higher_work += c;
        }
        true
    }

    /// Finds `γ_max` per the configured strategy, re-sorting on every
    /// probe. Returns `None` when even `γ = 0` is infeasible (overload).
    // hcperf-lint: hot-path-root
    #[must_use]
    pub fn gamma_max(ctx: &SchedContext<'_>, config: &DpsConfig) -> Option<f64> {
        if ctx.queue.is_empty() {
            return Some(config.gamma_ceiling);
        }
        // Constraint set: under strict Eq. 11 every job constrains;
        // otherwise drop jobs that are doomed even under the
        // deadline-optimal γ = 0 order.
        let no_skip = vec![false; ctx.queue.len()];
        let skip = if config.strict_eq11 {
            no_skip.clone()
        } else {
            doomed_at_zero(ctx)
        };
        if !feasible(ctx, 0.0, &skip) {
            return None;
        }
        match config.search {
            GammaSearch::Bisection { iterations } => {
                if feasible(ctx, config.gamma_ceiling, &skip) {
                    return Some(config.gamma_ceiling);
                }
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..iterations {
                    let mid = 0.5 * (lo + hi);
                    if feasible(ctx, mid, &skip) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(lo)
            }
            GammaSearch::CriticalPoints => {
                // γ values where two jobs swap order:
                // γ* = (d_b − d_a)/(p_a − p_b).
                let mut points: Vec<f64> = Vec::new();
                for (a, ja) in ctx.queue.iter().enumerate() {
                    let pa = ctx.graph.spec(ja.task()).priority().value() as f64;
                    let da = ja.laxity(ctx.now, ctx.exec_of(ja)).as_secs();
                    for jb in ctx.queue.iter().skip(a + 1) {
                        let pb = ctx.graph.spec(jb.task()).priority().value() as f64;
                        if pa == pb {
                            continue;
                        }
                        let db = jb.laxity(ctx.now, ctx.exec_of(jb)).as_secs();
                        let crossing = (db - da) / (pa - pb);
                        if crossing > 0.0 && crossing < config.gamma_ceiling {
                            points.push(crossing);
                        }
                    }
                }
                points.push(config.gamma_ceiling);
                points.sort_by(f64::total_cmp);
                points.dedup();
                // The order of the queue is constant between consecutive
                // crossover points, so feasibility is constant on each
                // interval. Walk intervals from the top; the first feasible
                // interval's upper bound is the supremum of the feasible
                // set.
                let uppers = points.iter().copied().rev();
                let lowers = points
                    .iter()
                    .copied()
                    .rev()
                    .skip(1)
                    .chain(std::iter::once(0.0));
                for (upper, lower) in uppers.zip(lowers) {
                    let probe = 0.5 * (lower + upper);
                    if feasible(ctx, probe, &skip) {
                        return Some(upper);
                    }
                }
                Some(0.0)
            }
        }
    }

    /// Marks jobs that cannot meet their deadline even under the γ = 0
    /// order.
    fn doomed_at_zero(ctx: &SchedContext<'_>) -> Vec<bool> {
        let n_p = ctx.processor_count() as f64;
        let base = ctx.total_remaining().as_secs() / n_p;
        let mut order: Vec<(usize, _)> = ctx.queue.iter().enumerate().collect();
        order.sort_by(|&(a, ja), &(b, jb)| {
            priority_key(ctx, a, 0.0)
                .total_cmp(&priority_key(ctx, b, 0.0))
                .then_with(|| ja.id().cmp(&jb.id()))
        });
        let mut doomed = vec![false; ctx.queue.len()];
        let mut higher_work = 0.0;
        for &(i, job) in &order {
            let c = ctx.exec_of(job).as_secs();
            let finish = ctx.now.as_secs() + base + higher_work / n_p + c;
            if let Some(slot) = doomed.get_mut(i) {
                *slot = finish > job.absolute_deadline().as_secs();
            }
            higher_work += c;
        }
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_rtsim::{Job, JobId};
    use hcperf_taskgraph::{Priority, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};

    /// Graph with 4 independent tasks of priorities 0..=3.
    fn graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        for (i, p) in (0..4).enumerate() {
            b.add_task(
                TaskSpec::builder(format!("t{i}"))
                    .priority(Priority::new(p))
                    .relative_deadline(SimSpan::from_millis(100.0))
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    fn job(id: u64, task: usize, release: f64, deadline_ms: f64) -> Job {
        Job::new(
            JobId::new(id),
            TaskId::new(task),
            0,
            SimTime::from_secs(release),
            SimSpan::from_millis(deadline_ms),
            SimTime::from_secs(release),
        )
    }

    struct Fixture {
        graph: TaskGraph,
        queue: Vec<Job>,
        observed: Vec<SimSpan>,
        remaining: Vec<SimSpan>,
        candidates: Vec<usize>,
    }

    impl Fixture {
        fn new(queue: Vec<Job>, exec_ms: f64, processors: usize) -> Self {
            let n = queue.len();
            Fixture {
                graph: graph(),
                observed: vec![SimSpan::from_millis(exec_ms); 4],
                remaining: vec![SimSpan::ZERO; processors],
                candidates: (0..n).collect(),
                queue,
            }
        }

        fn ctx(&self) -> SchedContext<'_> {
            SchedContext {
                now: SimTime::ZERO,
                graph: &self.graph,
                queue: &self.queue,
                candidates: &self.candidates,
                processor: 0,
                observed_exec: &self.observed,
                processor_remaining: &self.remaining,
            }
        }
    }

    #[test]
    fn gamma_zero_orders_by_laxity() {
        // Eq. 9 / Eq. 10: at γ = 0 the dynamic priority P_i = γ·p_i + d_i
        // reduces to the scheduling laxity d_i = D_i − c_i, so task 3
        // (lowest static priority) wins on its tightest deadline.
        let queue = vec![job(0, 0, 0.0, 100.0), job(1, 3, 0.0, 20.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.0);
        assert_eq!(dps.select(&fx.ctx()), Some(1));
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn large_u_orders_by_static_priority_when_feasible() {
        // Loose deadlines: γ can grow to the ceiling, and the γ·p_i term
        // (up to 0.2 s/level × 3 levels) outweighs the 0.2 s laxity gap, so
        // static priority wins.
        let queue = vec![job(0, 3, 0.0, 5000.0), job(1, 0, 0.0, 5200.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(10.0); // clamped to γ_max = ceiling
        let pick = dps.select(&fx.ctx());
        assert_eq!(pick, Some(1), "task with priority 0 should win");
        assert!((dps.gamma() - dps.config().gamma_ceiling).abs() < 1e-9);
    }

    #[test]
    fn gamma_is_clamped_into_feasible_range() {
        // Tight deadlines: γ_max < requested u; γ lands on γ_max.
        let queue = vec![
            job(0, 0, 0.0, 25.0),
            job(1, 1, 0.0, 25.0),
            job(2, 2, 0.0, 30.0),
            job(3, 3, 0.0, 22.0),
        ];
        let fx = Fixture::new(queue, 10.0, 1);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.5);
        dps.recompute_gamma(&fx.ctx());
        assert!(dps.gamma() <= dps.gamma_max() + 1e-12);
        assert!(dps.gamma_max() < 0.5, "γ_max {}", dps.gamma_max());
        assert!(dps.gamma() >= 0.0);
    }

    #[test]
    fn negative_u_clamps_to_zero() {
        let queue = vec![job(0, 0, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(-3.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn strict_overload_forces_gamma_zero() {
        // One job can never make it: 50 ms exec, 10 ms deadline.
        let queue = vec![job(0, 0, 0.0, 10.0), job(1, 1, 0.0, 500.0)];
        let mut fx = Fixture::new(queue, 50.0, 1);
        fx.observed = vec![SimSpan::from_millis(50.0); 4];
        let mut dps = DynamicPriorityScheduler::new(DpsConfig {
            strict_eq11: true,
            ..Default::default()
        });
        dps.set_nominal_u(1.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
        assert_eq!(dps.gamma_max(), 0.0);
    }

    #[test]
    fn relaxed_mode_ignores_doomed_jobs() {
        // Same overload, but the doomed job no longer pins γ at zero.
        let queue = vec![job(0, 0, 0.0, 10.0), job(1, 1, 0.0, 500.0)];
        let mut fx = Fixture::new(queue, 50.0, 1);
        fx.observed = vec![SimSpan::from_millis(50.0); 4];
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(1.0);
        dps.recompute_gamma(&fx.ctx());
        assert!(dps.gamma() > 0.0, "γ {} should be positive", dps.gamma());
    }

    #[test]
    fn bisection_and_critical_points_agree() {
        let queue = vec![
            job(0, 0, 0.0, 40.0),
            job(1, 1, 0.0, 35.0),
            job(2, 2, 0.0, 60.0),
            job(3, 3, 0.0, 30.0),
        ];
        let fx = Fixture::new(queue, 8.0, 2);
        let mut bis = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::Bisection { iterations: 40 },
            ..Default::default()
        });
        let mut crit = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::CriticalPoints,
            ..Default::default()
        });
        bis.set_nominal_u(10.0);
        crit.set_nominal_u(10.0);
        bis.recompute_gamma(&fx.ctx());
        crit.recompute_gamma(&fx.ctx());
        // The bisection converges to a point inside the top feasible
        // interval whose supremum the critical-point sweep reports.
        assert!(
            (bis.gamma_max() - crit.gamma_max()).abs() < 1e-3,
            "bisection {} vs critical {}",
            bis.gamma_max(),
            crit.gamma_max()
        );
    }

    #[test]
    fn empty_queue_gives_ceiling() {
        let fx = Fixture::new(vec![], 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(10.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma_max(), dps.config().gamma_ceiling);
    }

    #[test]
    fn recompute_respects_interval_and_dirty_flag() {
        let queue = vec![job(0, 0, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.05);
        let _ = dps.select(&fx.ctx());
        let g1 = dps.gamma();
        // Same time, not dirty: no recompute needed; gamma unchanged.
        let _ = dps.select(&fx.ctx());
        assert_eq!(dps.gamma(), g1);
        // New u marks dirty: recomputes immediately.
        dps.set_nominal_u(0.0);
        let _ = dps.select(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn dynamic_priority_is_monotone_in_gamma_for_fixed_job() {
        let queue = vec![job(0, 2, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let ctx = fx.ctx();
        let p_low = priority_key(&ctx, 0, 0.0);
        let p_mid = priority_key(&ctx, 0, 0.05);
        let p_high = priority_key(&ctx, 0, 0.2);
        assert!(p_low < p_mid && p_mid < p_high);
    }

    #[test]
    fn incremental_search_matches_sort_per_probe_reference() {
        // The cached/incremental γ_max must be bit-equal to the retained
        // sort-per-probe implementation: both evaluate the same comparisons
        // at the same probe values. Sweep queue shapes, processor counts,
        // strictness, and both strategies.
        let shapes: [&[(u64, usize, f64, f64)]; 4] = [
            &[(0, 0, 0.0, 40.0), (1, 1, 0.0, 35.0), (2, 2, 0.0, 60.0)],
            &[
                (0, 3, 0.0, 22.0),
                (1, 0, 0.0, 25.0),
                (2, 1, 0.0, 25.0),
                (3, 2, 0.0, 30.0),
            ],
            &[(5, 1, 0.0, 50.0), (3, 1, 0.0, 50.0)], // equal-priority tie
            &[(0, 0, 0.0, 10.0), (1, 1, 0.0, 500.0)], // one doomed job
        ];
        for jobs in shapes {
            let queue: Vec<Job> = jobs
                .iter()
                .map(|&(id, task, rel, dl)| job(id, task, rel, dl))
                .collect();
            for processors in [1usize, 2, 4] {
                for strict in [false, true] {
                    for search in [
                        GammaSearch::Bisection { iterations: 24 },
                        GammaSearch::CriticalPoints,
                    ] {
                        let fx = Fixture::new(queue.clone(), 10.0, processors);
                        let config = DpsConfig {
                            search,
                            strict_eq11: strict,
                            ..Default::default()
                        };
                        let mut dps = DynamicPriorityScheduler::new(config);
                        let expected = reference::gamma_max(&fx.ctx(), &config);
                        let got = dps.gamma_max_cached(&fx.ctx());
                        assert_eq!(
                            got, expected,
                            "jobs {jobs:?} processors {processors} strict {strict} {search:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_is_reused_across_recomputes() {
        // Two consecutive recomputes over queues of the same depth must not
        // regrow the scratch buffers (the zero-steady-state-allocation
        // contract: capacity is retained between recomputes).
        let queue = vec![job(0, 0, 0.0, 40.0), job(1, 1, 0.0, 35.0)];
        let fx = Fixture::new(queue, 10.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.1);
        dps.recompute_gamma(&fx.ctx());
        let caps = (
            dps.scratch.prio.capacity(),
            dps.scratch.order.capacity(),
            dps.scratch.skip.capacity(),
        );
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(
            caps,
            (
                dps.scratch.prio.capacity(),
                dps.scratch.order.capacity(),
                dps.scratch.skip.capacity(),
            )
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The γ kernels' work on generated queues: one full sort per
        /// recompute, at most `2 + iterations` probes per bisection
        /// recompute, and at most `n` jobs visited per `feasible` call.
        #[test]
        fn gamma_kernels_stay_within_their_work_bounds(
            jobs in proptest::collection::vec((0usize..4, 5.0f64..120.0), 1..40),
            exec in proptest::collection::vec(0.5f64..15.0, 4..5),
            processors in 1usize..5,
            iterations in 0u32..32,
            exact in proptest::arbitrary::any::<bool>(),
            strict in proptest::arbitrary::any::<bool>(),
        ) {
            let queue: Vec<Job> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(task, deadline_ms))| job(i as u64, task, 0.0, deadline_ms))
                .collect();
            let n = queue.len();
            let mut fx = Fixture::new(queue, 1.0, processors);
            fx.observed = exec.iter().map(|&ms| SimSpan::from_millis(ms)).collect();
            let search = if exact {
                GammaSearch::CriticalPoints
            } else {
                GammaSearch::Bisection { iterations }
            };
            let config = DpsConfig {
                search,
                strict_eq11: strict,
                ..Default::default()
            };
            let mut dps = DynamicPriorityScheduler::new(config);
            dps.set_nominal_u(0.1);
            // Twice: a warm scratch must not carry work over.
            for _ in 0..2 {
                dps.scratch.tally = Tally::default();
                dps.recompute_gamma(&fx.ctx());
                let t = &dps.scratch.tally;
                proptest::prop_assert_eq!(t.probes - t.repairs, 1, "full sorts: {:?}", t);
                if !exact {
                    let bound = 2 + iterations as usize;
                    proptest::prop_assert!(t.probes <= bound, "probes: {:?}", t);
                }
                proptest::prop_assert!(t.walks >= 1, "{:?}", t);
                proptest::prop_assert!(t.visits <= n * t.walks, "visits (n = {}): {:?}", n, t);
            }
        }
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        // Two identical jobs: the earlier JobId wins.
        let queue = vec![job(5, 1, 0.0, 50.0), job(3, 1, 0.0, 50.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        assert_eq!(dps.select(&fx.ctx()), Some(1));
    }
}
