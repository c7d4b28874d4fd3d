//! The concurrent problem registry: assignment id → ready-to-grade state.
//!
//! Each registration owns its model, budget, backend, fingerprint cache,
//! cluster index and counters.  Its grader's equivalence oracle is shared
//! with every live registration of an equal reference, entry and input
//! space (see [`Autograder::sharing`]), so the daemon's memory grows with
//! the number of distinct assignments, not of registrations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use afg_core::{Autograder, ClusterIndex, FingerprintCache, GradeOutcome};
use afg_json::{Json, ToJson};

/// Everything the daemon holds for one registered assignment.
pub struct ProblemEntry {
    /// The registered identifier.
    pub id: String,
    /// The read-only grading pipeline, shared by concurrent requests; its
    /// oracle may be shared with other registrations.
    pub grader: Autograder,
    /// The fingerprint cache (`None` when registered with `"cache": false`).
    pub cache: Option<FingerprintCache>,
    /// The skeleton cluster index for repair transfer (`None` when
    /// registered with `"clustering": false` or without a cache — the
    /// clustered path lives behind the cache lookup).
    pub clusters: Option<ClusterIndex>,
    /// Outcome counters over every submission this entry has graded.
    pub counters: OutcomeCounters,
}

/// Lock-free outcome counters (one instance per problem).  Alongside the
/// verdict buckets, solver-work totals (SAT conflicts, propagations, learnt
/// clauses) are accumulated from every `Feedback` outcome so
/// `/stats` consumers can track search effort per grade over time.
#[derive(Debug, Default)]
pub struct OutcomeCounters {
    graded: AtomicU64,
    syntax_errors: AtomicU64,
    correct: AtomicU64,
    fixed: AtomicU64,
    cannot_fix: AtomicU64,
    timeouts: AtomicU64,
    sat_conflicts: AtomicU64,
    sat_propagations: AtomicU64,
    sat_learnts: AtomicU64,
    sweeps: AtomicU64,
    sweep_inputs: AtomicU64,
    sweep_cache_hits: AtomicU64,
    sweep_cache_nodes: AtomicU64,
}

impl OutcomeCounters {
    /// Records one graded submission.  `from_cache` suppresses the
    /// solver-work accumulation: a cache hit replays the original run's
    /// stats without running a search, and counting them again would
    /// inflate the reported effort by the hit rate.
    pub fn record(&self, outcome: &GradeOutcome, from_cache: bool) {
        self.graded.fetch_add(1, Ordering::Relaxed);
        let bucket = match outcome {
            GradeOutcome::SyntaxError(_) => &self.syntax_errors,
            GradeOutcome::Correct => &self.correct,
            GradeOutcome::Feedback(_) => &self.fixed,
            GradeOutcome::CannotFix => &self.cannot_fix,
            GradeOutcome::Timeout => &self.timeouts,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if from_cache {
            return;
        }
        if let GradeOutcome::Feedback(feedback) = outcome {
            self.sat_conflicts
                .fetch_add(feedback.stats.sat_conflicts, Ordering::Relaxed);
            self.sat_propagations
                .fetch_add(feedback.stats.sat_propagations, Ordering::Relaxed);
            self.sat_learnts
                .fetch_add(feedback.stats.sat_learnts, Ordering::Relaxed);
            self.sweeps
                .fetch_add(feedback.stats.sweeps, Ordering::Relaxed);
            self.sweep_inputs
                .fetch_add(feedback.stats.sweep_inputs, Ordering::Relaxed);
            self.sweep_cache_hits
                .fetch_add(feedback.stats.sweep_cache_hits, Ordering::Relaxed);
            self.sweep_cache_nodes
                .fetch_max(feedback.stats.sweep_cache_nodes, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Json {
        Json::object([
            ("graded", self.graded.load(Ordering::Relaxed).to_json()),
            (
                "syntax_errors",
                self.syntax_errors.load(Ordering::Relaxed).to_json(),
            ),
            ("correct", self.correct.load(Ordering::Relaxed).to_json()),
            ("fixed", self.fixed.load(Ordering::Relaxed).to_json()),
            (
                "cannot_fix",
                self.cannot_fix.load(Ordering::Relaxed).to_json(),
            ),
            ("timeouts", self.timeouts.load(Ordering::Relaxed).to_json()),
        ])
    }

    fn solver_snapshot(&self) -> Json {
        Json::object([
            (
                "sat_conflicts",
                self.sat_conflicts.load(Ordering::Relaxed).to_json(),
            ),
            (
                "sat_propagations",
                self.sat_propagations.load(Ordering::Relaxed).to_json(),
            ),
            (
                "sat_learnts",
                self.sat_learnts.load(Ordering::Relaxed).to_json(),
            ),
        ])
    }

    /// Verification-sweep work accumulated from fresh (non-cache) grades.
    /// The verdict cache is
    /// the per-sweep trie memoising (program, input) verdicts: `inputs`
    /// counts every input considered (hits included), so misses — inputs
    /// that actually ran — are the difference, and `nodes` is the largest
    /// trie any single search grew.
    fn sweep_snapshot(&self) -> Json {
        let inputs = self.sweep_inputs.load(Ordering::Relaxed);
        let hits = self.sweep_cache_hits.load(Ordering::Relaxed);
        Json::object([
            ("sweeps", self.sweeps.load(Ordering::Relaxed).to_json()),
            ("sweep_inputs", inputs.to_json()),
            (
                "verdict_cache",
                Json::object([
                    ("hits", hits.to_json()),
                    ("misses", inputs.saturating_sub(hits).to_json()),
                    (
                        "max_nodes",
                        self.sweep_cache_nodes.load(Ordering::Relaxed).to_json(),
                    ),
                ]),
            ),
        ])
    }
}

impl ProblemEntry {
    /// The `/stats` rendering of this entry.
    pub fn stats_json(&self) -> Json {
        let config = self.grader.config();
        let mut pairs = vec![
            ("id".to_string(), Json::str(&self.id)),
            ("entry".to_string(), Json::str(self.grader.entry())),
            ("backend".to_string(), Json::str(config.backend.name())),
            (
                "budget".to_string(),
                Json::object([
                    ("max_cost", config.synthesis.max_cost.to_json()),
                    ("max_candidates", config.synthesis.max_candidates.to_json()),
                    ("time_budget_ms", config.synthesis.time_budget.to_json()),
                ]),
            ),
            ("outcomes".to_string(), self.counters.snapshot()),
            ("solver".to_string(), self.counters.solver_snapshot()),
            ("sweep".to_string(), self.counters.sweep_snapshot()),
        ];
        match &self.cache {
            Some(cache) => pairs.push(("cache".to_string(), cache.stats().to_json())),
            None => pairs.push(("cache".to_string(), Json::Null)),
        }
        match &self.clusters {
            Some(clusters) => pairs.push(("clusters".to_string(), clusters.stats().to_json())),
            None => pairs.push(("clusters".to_string(), Json::Null)),
        }
        Json::Object(pairs)
    }
}

/// The registry proper.  Problems are few and listed in `/stats`, so a
/// `BTreeMap` keeps the output deterministically ordered.
pub struct Registry {
    problems: RwLock<BTreeMap<String, Arc<ProblemEntry>>>,
    started: Instant,
}

impl Registry {
    /// An empty registry; `started` anchors the `/stats` uptime.
    pub fn new() -> Registry {
        Registry {
            problems: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Registers (or replaces) a problem.
    pub fn insert(&self, entry: ProblemEntry) {
        self.problems
            .write()
            .expect("registry lock")
            .insert(entry.id.clone(), Arc::new(entry));
    }

    /// Looks up a problem by id.
    pub fn get(&self, id: &str) -> Option<Arc<ProblemEntry>> {
        self.problems
            .read()
            .expect("registry lock")
            .get(id)
            .cloned()
    }

    /// Every registered problem, in id order.
    pub fn entries(&self) -> Vec<Arc<ProblemEntry>> {
        self.problems
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered problems.
    pub fn len(&self) -> usize {
        self.problems.read().expect("registry lock").len()
    }

    /// The `/stats` document.  `oracles` counts the distinct equivalence
    /// oracles the registrations hold: registrations of one assignment
    /// share one.
    pub fn stats_json(&self) -> Json {
        let problems = self.problems.read().expect("registry lock");
        let mut oracles: Vec<_> = problems
            .values()
            .map(|entry| std::ptr::from_ref(entry.grader.oracle()))
            .collect();
        oracles.sort_unstable();
        oracles.dedup();
        Json::object([
            ("uptime_ms", self.started.elapsed().to_json()),
            (
                "problems",
                Json::Array(problems.values().map(|entry| entry.stats_json()).collect()),
            ),
            ("oracles", oracles.len().to_json()),
        ])
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_core::GraderConfig;
    use afg_eml::library;

    fn entry(id: &str, cache: bool) -> ProblemEntry {
        let problem = afg_corpus::problems::compute_deriv();
        ProblemEntry {
            id: id.to_string(),
            grader: Autograder::new(
                problem.reference,
                problem.entry,
                library::compute_deriv_model(),
                GraderConfig::fast(),
            )
            .unwrap(),
            cache: cache.then(FingerprintCache::new),
            clusters: cache.then(ClusterIndex::new),
            counters: OutcomeCounters::default(),
        }
    }

    #[test]
    fn registration_lookup_and_replacement() {
        let registry = Registry::new();
        assert_eq!(registry.len(), 0);
        assert!(registry.get("deriv").is_none());
        registry.insert(entry("deriv", true));
        assert_eq!(registry.len(), 1);
        let first = registry.get("deriv").unwrap();
        assert_eq!(first.id, "deriv");
        assert!(first.cache.is_some());
        // Re-registering replaces the entry.
        registry.insert(entry("deriv", false));
        assert_eq!(registry.len(), 1);
        assert!(registry.get("deriv").unwrap().cache.is_none());
    }

    /// Registers `id` as the handler does: sharing the oracle of a live
    /// registration with an equal reference, entry and input space.
    fn register(registry: &Registry, id: &str, reference: &str, entry: &str, config: GraderConfig) {
        let live = registry.entries();
        let grader = Autograder::sharing(
            Autograder::parse_reference(reference).unwrap(),
            entry,
            library::compute_deriv_model(),
            config,
            live.iter().map(|problem| &problem.grader),
        )
        .unwrap();
        registry.insert(ProblemEntry {
            id: id.to_string(),
            grader,
            cache: None,
            clusters: None,
            counters: OutcomeCounters::default(),
        });
    }

    fn oracles(registry: &Registry) -> Option<i64> {
        registry.stats_json().get("oracles").and_then(Json::as_i64)
    }

    #[test]
    fn stats_counts_the_distinct_oracles() {
        let registry = Registry::new();
        assert_eq!(oracles(&registry), Some(0));
        let deriv = afg_corpus::problems::compute_deriv();
        let mut budget = GraderConfig::fast();
        budget.synthesis.max_candidates = 100;
        let mut enumerative = GraderConfig::fast();
        enumerative.backend = afg_core::Backend::Enumerative;
        for (id, config) in [
            ("a", GraderConfig::fast()),
            ("b", budget),
            ("c", enumerative),
        ] {
            register(&registry, id, deriv.reference, deriv.entry, config);
        }
        assert_eq!(oracles(&registry), Some(1));

        let double = "def double(x_int):\n    return 2 * x_int\n";
        register(&registry, "d", double, "double", GraderConfig::fast());
        assert_eq!(oracles(&registry), Some(2));

        // Replacing a registration keeps the count exact: the replaced
        // one's oracle leaves with it unless another registration holds it.
        register(
            &registry,
            "a",
            deriv.reference,
            deriv.entry,
            GraderConfig::fast(),
        );
        assert_eq!(oracles(&registry), Some(2));
        register(
            &registry,
            "d",
            deriv.reference,
            deriv.entry,
            GraderConfig::fast(),
        );
        assert_eq!(oracles(&registry), Some(1));
        register(&registry, "b", double, "double", GraderConfig::fast());
        assert_eq!(oracles(&registry), Some(2));
        assert_eq!(registry.len(), 4);
    }

    #[test]
    fn stats_counts_outcomes_per_problem() {
        let registry = Registry::new();
        registry.insert(entry("deriv", true));
        let problem = registry.get("deriv").unwrap();
        problem.counters.record(&GradeOutcome::Correct, false);
        problem.counters.record(&GradeOutcome::Correct, false);
        problem.counters.record(&GradeOutcome::CannotFix, true);

        let stats = registry.stats_json();
        let problems = stats.get("problems").and_then(Json::as_array).unwrap();
        assert_eq!(problems.len(), 1);
        let outcomes = problems[0].get("outcomes").unwrap();
        assert_eq!(outcomes.get("graded").and_then(Json::as_i64), Some(3));
        assert_eq!(outcomes.get("correct").and_then(Json::as_i64), Some(2));
        assert_eq!(outcomes.get("cannot_fix").and_then(Json::as_i64), Some(1));
        assert!(problems[0].get("cache").unwrap().get("hits").is_some());
    }
}
