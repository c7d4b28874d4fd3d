//! `BatchGrader` — parallel grading of a submission corpus.
//!
//! A classroom (or a MOOC) grades thousands of submissions against the
//! *same* assignment: one reference implementation, one error model, one
//! cached equivalence oracle.  All of that state is read-only during
//! grading, so a batch parallelises embarrassingly well: a pool of workers
//! (plain `std::thread`, no external dependencies) pulls submissions from a
//! shared queue, grades each one with a shared `&Autograder`, and reports
//! per-worker statistics that are merged when the batch completes.
//!
//! Results come back in submission order regardless of which worker graded
//! what, so serial and parallel runs are interchangeable whenever grading
//! itself is deterministic (searches bounded by candidate count rather
//! than wall-clock time) — a property the experiment harness (`afg-bench`)
//! relies on and tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cache::{FingerprintCache, GradeDisposition};
use crate::cluster::ClusterIndex;
use crate::grader::{Autograder, GradeOutcome};

/// The result of grading one submission within a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// The grading outcome.
    pub outcome: GradeOutcome,
    /// Wall-clock time spent grading this submission.
    pub elapsed: Duration,
    /// Index of the worker that graded it (0 for the serial path).
    pub worker: usize,
    /// Whether the fingerprint cache answered (`None` when the batch ran
    /// without a cache).
    pub cache_hit: Option<bool>,
    /// Whether a cluster repair transfer was tried, and whether the
    /// hypothesis verified (`None` when no transfer was attempted — see
    /// [`GradeDisposition::transfer`]).
    pub transfer: Option<bool>,
}

/// Statistics aggregated by one worker over the submissions it graded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Number of submissions this worker graded.
    pub graded: usize,
    /// Total time this worker spent grading (its busy time).
    pub busy: Duration,
    /// Submissions that failed to parse.
    pub syntax_errors: usize,
    /// Submissions equivalent to the reference.
    pub correct: usize,
    /// Incorrect submissions repaired by the error model.
    pub fixed: usize,
    /// Incorrect submissions the model could not repair.
    pub cannot_fix: usize,
    /// Submissions whose search budget ran out.
    pub timeouts: usize,
    /// Submissions answered from the fingerprint cache (0 when grading
    /// without one).
    pub cache_hits: usize,
    /// Submissions that consulted the fingerprint cache and missed (0 when
    /// grading without one).
    pub cache_misses: usize,
    /// Cluster warm starts the searches actually tried (0 when grading
    /// without a cluster index).
    pub transfer_attempts: usize,
    /// Tried warm starts whose hypothesis verified.
    pub transfer_hits: usize,
    /// Verification sweeps performed by this worker's fresh repairs
    /// (cache replays do no verification work and are not counted).
    pub sweeps: u64,
    /// Candidate executions across those sweeps — one per
    /// (assignment, input) pair the equivalence sessions ran.
    pub sweep_inputs: u64,
}

impl WorkerStats {
    /// `cache`: `None` when no cache was consulted, otherwise whether the
    /// lookup hit; `transfer` likewise for cluster repair transfer.
    fn record(
        &mut self,
        outcome: &GradeOutcome,
        elapsed: Duration,
        cache: Option<bool>,
        transfer: Option<bool>,
    ) {
        self.graded += 1;
        self.busy += elapsed;
        match outcome {
            GradeOutcome::SyntaxError(_) => self.syntax_errors += 1,
            GradeOutcome::Correct => self.correct += 1,
            GradeOutcome::Feedback(feedback) => {
                self.fixed += 1;
                // A cache hit replays the donor's recorded statistics; the
                // sweep counters track work *this* worker performed, so
                // only fresh grades contribute.
                if cache != Some(true) {
                    self.sweeps += feedback.stats.sweeps;
                    self.sweep_inputs += feedback.stats.sweep_inputs;
                }
            }
            GradeOutcome::CannotFix => self.cannot_fix += 1,
            GradeOutcome::Timeout => self.timeouts += 1,
        }
        match cache {
            Some(true) => self.cache_hits += 1,
            Some(false) => self.cache_misses += 1,
            None => {}
        }
        match transfer {
            Some(true) => {
                self.transfer_attempts += 1;
                self.transfer_hits += 1;
            }
            Some(false) => self.transfer_attempts += 1,
            None => {}
        }
    }

    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.graded += other.graded;
        self.busy += other.busy;
        self.syntax_errors += other.syntax_errors;
        self.correct += other.correct;
        self.fixed += other.fixed;
        self.cannot_fix += other.cannot_fix;
        self.timeouts += other.timeouts;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.transfer_attempts += other.transfer_attempts;
        self.transfer_hits += other.transfer_hits;
        self.sweeps += other.sweeps;
        self.sweep_inputs += other.sweep_inputs;
    }
}

/// The outcome of grading a whole corpus.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-submission results, in submission order.
    pub items: Vec<BatchItem>,
    /// Per-worker statistics, indexed by worker id.
    pub worker_stats: Vec<WorkerStats>,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
}

impl BatchReport {
    /// The merged statistics across all workers.
    pub fn totals(&self) -> WorkerStats {
        let mut totals = WorkerStats::default();
        for stats in &self.worker_stats {
            totals.merge(stats);
        }
        totals
    }

    /// Total busy time across workers — with N workers, a healthy batch has
    /// `wall_time` approaching `busy_time / N`.
    pub fn busy_time(&self) -> Duration {
        self.worker_stats.iter().map(|s| s.busy).sum()
    }
}

/// A parallel grading engine over a worker pool.
///
/// The pool size is fixed at construction; grading a corpus spawns that many
/// scoped threads (none for a single worker, which runs inline) sharing the
/// read-only [`Autograder`] and a lock-free work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchGrader {
    workers: usize,
}

impl BatchGrader {
    /// Creates an engine with an explicit worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> BatchGrader {
        BatchGrader {
            workers: workers.max(1),
        }
    }

    /// Creates an engine sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> BatchGrader {
        BatchGrader::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Grades every submission source against the shared grader.
    ///
    /// Results are returned in submission order; each item records which
    /// worker graded it and how long it took.
    pub fn grade_sources<S: AsRef<str> + Sync>(
        &self,
        grader: &Autograder,
        sources: &[S],
    ) -> BatchReport {
        self.grade_sources_with_cache(grader, sources, None)
    }

    /// Grades every submission source, optionally through a shared
    /// [`FingerprintCache`]; with a cache, per-worker stats additionally
    /// count hits and misses.
    pub fn grade_sources_with_cache<S: AsRef<str> + Sync>(
        &self,
        grader: &Autograder,
        sources: &[S],
        cache: Option<&FingerprintCache>,
    ) -> BatchReport {
        self.grade_sources_clustered(grader, sources, cache, None)
    }

    /// Grades every submission source through the cache *and* a cluster
    /// index: cache misses whose skeleton matches an already-repaired
    /// cluster-mate warm-start their search with the transferred repair
    /// (see [`ClusterIndex`]).  A cluster index without a cache is
    /// meaningless (the clustered path lives behind the cache lookup), so
    /// `clusters` is ignored when `cache` is `None`.
    pub fn grade_sources_clustered<S: AsRef<str> + Sync>(
        &self,
        grader: &Autograder,
        sources: &[S],
        cache: Option<&FingerprintCache>,
        clusters: Option<&ClusterIndex>,
    ) -> BatchReport {
        let start = Instant::now();
        if self.workers == 1 || sources.len() <= 1 {
            return self.grade_serial(grader, sources, cache, clusters, start);
        }

        let workers = self.workers.min(sources.len());
        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<(Vec<(usize, BatchItem)>, WorkerStats)> = Vec::new();

        // Propagate the caller's trace (if one is installed) into the
        // worker threads, so per-submission spans land under the batch
        // request's span tree instead of disappearing.
        let trace = afg_obs::current_handle();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let next = &next;
                let trace = trace.clone();
                handles.push(scope.spawn(move || {
                    let _trace_guard = trace.map(afg_obs::TraceHandle::install);
                    let mut worker_span = afg_obs::span("worker");
                    worker_span.attr("index", worker.to_string());
                    let mut items: Vec<(usize, BatchItem)> = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= sources.len() {
                            break;
                        }
                        let item_start = Instant::now();
                        let (outcome, disposition) =
                            grade_one(grader, sources[index].as_ref(), cache, clusters);
                        let elapsed = item_start.elapsed();
                        let hit = cache.map(|_| disposition.cache_hit);
                        stats.record(&outcome, elapsed, hit, disposition.transfer);
                        items.push((
                            index,
                            BatchItem {
                                outcome,
                                elapsed,
                                worker,
                                cache_hit: hit,
                                transfer: disposition.transfer,
                            },
                        ));
                    }
                    (items, stats)
                }));
            }
            per_worker.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
        });

        let mut slots: Vec<Option<BatchItem>> = vec![None; sources.len()];
        let mut worker_stats = Vec::with_capacity(workers);
        for (items, stats) in per_worker {
            for (index, item) in items {
                slots[index] = Some(item);
            }
            worker_stats.push(stats);
        }
        BatchReport {
            items: slots
                .into_iter()
                .map(|s| s.expect("every index graded"))
                .collect(),
            worker_stats,
            wall_time: start.elapsed(),
        }
    }

    fn grade_serial<S: AsRef<str> + Sync>(
        &self,
        grader: &Autograder,
        sources: &[S],
        cache: Option<&FingerprintCache>,
        clusters: Option<&ClusterIndex>,
        start: Instant,
    ) -> BatchReport {
        let mut stats = WorkerStats::default();
        let items = sources
            .iter()
            .map(|source| {
                let item_start = Instant::now();
                let (outcome, disposition) = grade_one(grader, source.as_ref(), cache, clusters);
                let elapsed = item_start.elapsed();
                let hit = cache.map(|_| disposition.cache_hit);
                stats.record(&outcome, elapsed, hit, disposition.transfer);
                BatchItem {
                    outcome,
                    elapsed,
                    worker: 0,
                    cache_hit: hit,
                    transfer: disposition.transfer,
                }
            })
            .collect();
        BatchReport {
            items,
            worker_stats: vec![stats],
            wall_time: start.elapsed(),
        }
    }
}

/// Grades one submission, through the cache (and cluster index) when
/// provided.
fn grade_one(
    grader: &Autograder,
    source: &str,
    cache: Option<&FingerprintCache>,
    clusters: Option<&ClusterIndex>,
) -> (GradeOutcome, GradeDisposition) {
    match cache {
        Some(cache) => grader.grade_source_clustered(source, cache, clusters),
        None => (grader.grade_source(source), GradeDisposition::default()),
    }
}

impl Default for BatchGrader {
    fn default() -> BatchGrader {
        BatchGrader::with_available_parallelism()
    }
}

// The engine shares one `&Autograder` across worker threads; this line makes
// "the grader is immutable shared state" a compile-time guarantee.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Autograder>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grader::GraderConfig;
    use afg_eml::library;

    const REFERENCE: &str = "\
def computeDeriv(poly_list_int):
    result = []
    for i in range(len(poly_list_int)):
        result += [i * poly_list_int[i]]
    if len(poly_list_int) == 1:
        return result
    else:
        return result[1:]
";

    fn grader() -> Autograder {
        // Candidate-bounded search budget: wall-clock budgets can flip a
        // submission between CannotFix and Timeout under CPU contention,
        // which would break the serial/parallel equality assertions below.
        let config = GraderConfig {
            synthesis: afg_synth::SynthesisConfig {
                max_cost: 3,
                max_candidates: 2_000,
                time_budget: std::time::Duration::from_secs(600),
            },
            ..GraderConfig::fast()
        };
        Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap()
    }

    fn sample_sources() -> Vec<String> {
        let correct = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        let off_by_one = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        let syntax = "def computeDeriv(poly)\n    return poly\n";
        let hopeless = "def computeDeriv(poly):\n    return 42\n";
        let mut sources = Vec::new();
        for _ in 0..3 {
            sources.push(correct.to_string());
            sources.push(off_by_one.to_string());
            sources.push(syntax.to_string());
            sources.push(hopeless.to_string());
        }
        sources
    }

    #[test]
    fn serial_and_parallel_agree_in_submission_order() {
        let grader = grader();
        let sources = sample_sources();
        let serial = BatchGrader::new(1).grade_sources(&grader, &sources);
        let parallel = BatchGrader::new(4).grade_sources(&grader, &sources);
        assert_eq!(serial.items.len(), sources.len());
        assert_eq!(parallel.items.len(), sources.len());
        for (i, (s, p)) in serial.items.iter().zip(parallel.items.iter()).enumerate() {
            // Outcomes match position by position; timing and worker ids
            // legitimately differ.
            match (&s.outcome, &p.outcome) {
                (GradeOutcome::Feedback(a), GradeOutcome::Feedback(b)) => {
                    assert_eq!(a.cost, b.cost, "submission {i}");
                    assert_eq!(a.corrections, b.corrections, "submission {i}");
                }
                (a, b) => assert_eq!(a, b, "submission {i}"),
            }
        }
    }

    #[test]
    fn worker_stats_partition_the_batch() {
        let grader = grader();
        let sources = sample_sources();
        let report = BatchGrader::new(3).grade_sources(&grader, &sources);
        let totals = report.totals();
        assert_eq!(totals.graded, sources.len());
        assert_eq!(totals.syntax_errors, 3);
        assert_eq!(totals.correct, 3);
        assert_eq!(totals.fixed, 3);
        assert_eq!(totals.cannot_fix + totals.timeouts, 3);
        assert_eq!(report.worker_stats.len(), 3);
        // Scheduling decides how the queue is split, so only the partition
        // invariant is asserted: worker counts sum to the batch exactly.
        assert_eq!(
            report.worker_stats.iter().map(|s| s.graded).sum::<usize>(),
            sources.len()
        );
        assert!(report.busy_time() >= report.worker_stats.iter().map(|s| s.busy).max().unwrap());
    }

    #[test]
    fn pool_clamps_and_reports_sizes() {
        assert_eq!(BatchGrader::new(0).workers(), 1);
        assert_eq!(BatchGrader::new(7).workers(), 7);
        assert!(BatchGrader::default().workers() >= 1);
        // More workers than submissions is fine.
        let report = BatchGrader::new(64)
            .grade_sources(&grader(), &["def computeDeriv(p):\n    return []\n"]);
        assert_eq!(report.items.len(), 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        let report = BatchGrader::new(4).grade_sources(&grader(), &Vec::<String>::new());
        assert!(report.items.is_empty());
        assert_eq!(report.totals().graded, 0);
    }

    #[test]
    fn cached_batch_counts_hits_and_agrees_with_the_uncached_run() {
        let grader = grader();
        let sources = sample_sources();
        let uncached = BatchGrader::new(2).grade_sources(&grader, &sources);
        // Warm the cache serially: each of the 4 distinct submissions
        // misses exactly once, and every repeat hits — deterministic,
        // unlike a parallel first pass where a duplicate can race its own
        // first occurrence.
        let cache = FingerprintCache::new();
        let warm = BatchGrader::new(1).grade_sources_with_cache(&grader, &sources, Some(&cache));
        let totals = warm.totals();
        assert_eq!(totals.cache_misses, 4);
        assert_eq!(totals.cache_hits, sources.len() - 4);

        // A parallel pass over the warm cache hits on every submission and
        // agrees with the uncached run position by position (rendered
        // feedback included).
        let cached = BatchGrader::new(2).grade_sources_with_cache(&grader, &sources, Some(&cache));
        assert_eq!(cached.totals().cache_hits, sources.len());
        for (u, c) in uncached.items.iter().zip(cached.items.iter()) {
            match (&u.outcome, &c.outcome) {
                (GradeOutcome::Feedback(a), GradeOutcome::Feedback(b)) => {
                    assert_eq!(a.to_string(), b.to_string());
                }
                (a, b) => assert_eq!(a, b),
            }
        }

        // The uncached run never consults a cache; the cache's own
        // counters line up with the engine's view.
        let uncached_totals = uncached.totals();
        assert_eq!(uncached_totals.cache_hits, 0);
        assert_eq!(uncached_totals.cache_misses, 0);
        let stats = cache.stats();
        assert_eq!(stats.hits, (totals.cache_hits + sources.len()) as u64);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 3); // correct, off-by-one, hopeless
        assert_eq!(stats.syntax_entries, 1);
    }
}
