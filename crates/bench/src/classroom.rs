//! Classroom-cohort workload: seeded mutant cohorts of N students over K
//! skeletons, graded cold vs warm.
//!
//! Real cohorts are clustered: students copy the same scaffold, make the
//! same mistake, and differ in incidentals — a leftover variable here, a
//! different filled-in constant there.  The generator reproduces exactly
//! that shape so the cluster index (`afg_core::ClusterIndex`) has
//! something real to exploit:
//!
//! * `K` **skeletons**: each is one of the problem's correct solutions
//!   with a single seeded mistake injected (`afg_corpus::mutate_program`)
//!   — the cohort's shared bug;
//! * `N` **students** spread over the skeletons: every student gets the
//!   skeleton verbatim plus a leftover `scratchpad = <constant>`
//!   assignment whose constant is unique per student.  The constant is
//!   semantically inert, so cluster-mates behave identically — but their
//!   canonical forms differ, so the fingerprint cache misses and the
//!   skeleton cluster is what collapses the work.
//!
//! [`run_classroom`] grades one cohort through a fresh cache (+ cluster
//! index when transfer is on) and reports the totals the acceptance
//! criterion compares: per-submission outcomes/costs (must be identical
//! cold vs warm), summed SAT conflicts of the actually-run searches, and
//! wall clock.

use std::time::Duration;

use afg_ast::{Expr, Stmt, StmtKind, Target};
use afg_core::{
    BatchGrader, ClusterIndex, ClusterStats, FingerprintCache, GradeOutcome, WorkerStats,
};
use afg_corpus::rng::StdRng;
use afg_corpus::{mutate_program, Problem};
use afg_json::{Json, ToJson};

/// Shape of one generated cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassroomSpec {
    /// Total submissions (students).
    pub students: usize,
    /// Distinct buggy skeletons the students are spread over.
    pub skeletons: usize,
    /// RNG seed; cohorts are fully reproducible.
    pub seed: u64,
}

impl ClassroomSpec {
    /// The acceptance-criterion cohort: 64 students over 8 skeletons.
    pub fn acceptance(seed: u64) -> ClassroomSpec {
        ClassroomSpec {
            students: 64,
            skeletons: 8,
            seed,
        }
    }
}

/// Generates the cohort sources, in arrival order (students of different
/// skeletons interleaved round-robin, the way submissions trickle in).
pub fn classroom_cohort(problem: &Problem, spec: &ClassroomSpec) -> Vec<String> {
    let skeletons = spec.skeletons.max(1);
    let seeds = problem.mutation_seeds();
    let mut skeleton_programs = Vec::with_capacity(skeletons);
    for k in 0..skeletons {
        let base = seeds[k % seeds.len()];
        let mut program = afg_parser::parse_program(base).expect("corpus seeds parse");
        let mut rng = StdRng::seed_from_u64(spec.seed ^ ((k as u64 + 1) << 24));
        mutate_program(&mut program, 1, &mut rng);
        skeleton_programs.push(program);
    }

    let mut sources = Vec::with_capacity(spec.students);
    for s in 0..spec.students {
        let k = s % skeletons;
        let mut program = skeleton_programs[k].clone();
        if let Some(func) = program.funcs.first_mut() {
            // The per-student incidental: a leftover assignment whose
            // constant is unique to the student.  Semantically inert
            // (never read), structurally identical across the cohort —
            // distinct canonical forms, one skeleton.
            let constant = 1 + (s / skeletons) as i64 + 1000 * (k as i64 + 1);
            func.body.insert(
                0,
                Stmt::new(
                    func.line + 1,
                    StmtKind::Assign(Target::Var("scratchpad".into()), Expr::Int(constant)),
                ),
            );
        }
        sources.push(afg_ast::pretty::program_to_string(&program));
    }
    sources
}

/// The comparable verdict of one submission: outcome tag plus repair cost.
pub type ClassroomVerdict = (&'static str, Option<usize>);

/// One cold or warm grading pass over a cohort.
#[derive(Debug, Clone)]
pub struct ClassroomRun {
    /// Per-submission verdicts, in cohort order.
    pub verdicts: Vec<ClassroomVerdict>,
    /// SAT conflicts summed over the searches that actually ran (cache
    /// hits replay the donor's stats and are excluded).
    pub sat_conflicts: u64,
    /// Candidate programs interpreted, same exclusion.
    pub candidates_checked: u64,
    /// Wall clock the actually-run searches spent inside the SAT solver
    /// (proposing candidates), same exclusion.
    pub sat_elapsed: Duration,
    /// Wall clock those searches spent verifying candidates against the
    /// bounded input space — the part compiled sweeps accelerate.
    pub verify_elapsed: Duration,
    /// Wall-clock time for the whole pass.
    pub wall: Duration,
    /// Merged per-worker counters (cache and transfer tallies included).
    pub totals: WorkerStats,
    /// The cluster index's view, when transfer was enabled.
    pub cluster: Option<ClusterStats>,
}

/// Grades `sources` once through a fresh fingerprint cache, with the
/// cluster index (repair transfer) on or off.
pub fn run_classroom(
    grader: &afg_core::Autograder,
    sources: &[String],
    workers: usize,
    transfer: bool,
) -> ClassroomRun {
    let cache = FingerprintCache::new();
    let clusters = transfer.then(ClusterIndex::new);
    let report = BatchGrader::new(workers).grade_sources_clustered(
        grader,
        sources,
        Some(&cache),
        clusters.as_ref(),
    );

    let mut sat_conflicts = 0u64;
    let mut candidates_checked = 0u64;
    let mut sat_elapsed = Duration::ZERO;
    let mut verify_elapsed = Duration::ZERO;
    let mut verdicts = Vec::with_capacity(report.items.len());
    for item in &report.items {
        let verdict = match &item.outcome {
            GradeOutcome::SyntaxError(_) => ("syntax_error", None),
            GradeOutcome::Correct => ("correct", None),
            GradeOutcome::Feedback(feedback) => {
                if item.cache_hit != Some(true) {
                    sat_conflicts += feedback.stats.sat_conflicts;
                    candidates_checked += feedback.stats.candidates_checked as u64;
                    sat_elapsed += feedback.stats.sat_elapsed;
                    verify_elapsed += feedback.stats.verify_elapsed;
                }
                ("feedback", Some(feedback.cost))
            }
            GradeOutcome::CannotFix => ("cannot_fix", None),
            GradeOutcome::Timeout => ("timeout", None),
        };
        verdicts.push(verdict);
    }
    ClassroomRun {
        verdicts,
        sat_conflicts,
        candidates_checked,
        sat_elapsed,
        verify_elapsed,
        wall: report.wall_time,
        totals: report.totals(),
        cluster: clusters.map(|index| index.stats()),
    }
}

/// The JSON document `loadgen --classroom` emits (and the CI smoke step
/// asserts on with `jq`).
pub fn classroom_json(
    problem: &Problem,
    spec: &ClassroomSpec,
    cold: &ClassroomRun,
    warm: Option<&ClassroomRun>,
) -> Json {
    let run_json = |run: &ClassroomRun| {
        let mut pairs = vec![
            ("sat_conflicts".to_string(), run.sat_conflicts.to_json()),
            (
                "candidates_checked".to_string(),
                run.candidates_checked.to_json(),
            ),
            ("wall_ms".to_string(), run.wall.to_json()),
            ("cache_hits".to_string(), run.totals.cache_hits.to_json()),
            (
                "transfer_attempts".to_string(),
                run.totals.transfer_attempts.to_json(),
            ),
            (
                "transfer_hits".to_string(),
                run.totals.transfer_hits.to_json(),
            ),
            (
                "sweep".to_string(),
                Json::object([
                    ("sweeps", run.totals.sweeps.to_json()),
                    ("sweep_inputs", run.totals.sweep_inputs.to_json()),
                    ("sat_ms", run.sat_elapsed.to_json()),
                    ("verify_ms", run.verify_elapsed.to_json()),
                ]),
            ),
        ];
        if let Some(cluster) = &run.cluster {
            pairs.push(("clusters".to_string(), cluster.to_json()));
        }
        Json::Object(pairs)
    };
    let mut pairs = vec![
        ("problem".to_string(), Json::str(problem.id)),
        ("students".to_string(), spec.students.to_json()),
        ("skeletons".to_string(), spec.skeletons.to_json()),
        ("seed".to_string(), spec.seed.to_json()),
        ("cold".to_string(), run_json(cold)),
    ];
    if let Some(warm) = warm {
        pairs.push(("warm".to_string(), run_json(warm)));
        pairs.push((
            "cost_identical".to_string(),
            Json::Bool(cold.verdicts == warm.verdicts),
        ));
        pairs.push((
            "conflicts_saved".to_string(),
            cold.sat_conflicts
                .saturating_sub(warm.sat_conflicts)
                .to_json(),
        ));
    }
    Json::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_core::GraderConfig;
    use afg_corpus::problems;

    /// Candidate-bounded (deterministic) and *small*: these run in debug
    /// CI, where every interpreted candidate counts.  Unfixable cohort
    /// members settle as candidate-budget timeouts, which compare fine.
    fn deterministic_config() -> GraderConfig {
        GraderConfig {
            synthesis: afg_synth::SynthesisConfig {
                max_cost: 2,
                max_candidates: 300,
                time_budget: Duration::from_secs(600),
            },
            ..GraderConfig::fast()
        }
    }

    #[test]
    fn cohorts_are_seeded_clustered_and_parse() {
        let problem = problems::compute_deriv();
        let spec = ClassroomSpec {
            students: 24,
            skeletons: 4,
            seed: 11,
        };
        let cohort = classroom_cohort(&problem, &spec);
        assert_eq!(cohort.len(), 24);
        assert_eq!(cohort, classroom_cohort(&problem, &spec), "reproducible");

        // Every member parses, and the cohort collapses onto exactly K
        // skeletons with (mostly) distinct canonical forms.
        let mut skeletons = std::collections::HashSet::new();
        let mut canonicals = std::collections::HashSet::new();
        for source in &cohort {
            let program = afg_parser::parse_program(source).expect("members parse");
            skeletons.insert(afg_ast::canon::skeleton_source(&program));
            canonicals.insert(afg_ast::canon::canonical_source(&program));
        }
        assert_eq!(skeletons.len(), 4, "one skeleton per cluster");
        assert_eq!(canonicals.len(), 24, "every student is a distinct miss");
    }

    #[test]
    fn warm_pass_transfers_and_matches_cold_verdicts() {
        // iterPower: the smallest benchmark (tiny input space, small
        // model), so the cold baseline stays cheap in debug builds.
        let problem = problems::iter_power();
        let spec = ClassroomSpec {
            students: 12,
            skeletons: 3,
            seed: 5,
        };
        let cohort = classroom_cohort(&problem, &spec);
        let grader = problem.autograder(deterministic_config());
        let cold = run_classroom(&grader, &cohort, 1, false);
        let warm = run_classroom(&grader, &cohort, 1, true);

        assert_eq!(cold.verdicts, warm.verdicts, "outcomes must be identical");
        assert!(cold.cluster.is_none());
        let cluster = warm.cluster.expect("transfer pass tracks clusters");
        assert!(cluster.clusters <= 3, "{cluster:?}");
        assert!(
            warm.totals.transfer_hits > 0,
            "cohort redundancy must produce transfer hits: {cluster:?}"
        );
        // The saving shows up as SAT conflicts: a verified hypothesis
        // starts the descent at its cost, skipping the proposals the cold
        // run refutes on the way down.  (Candidate counts can tie on tiny
        // problems — one hypothesis sweep replaces one proposal.)
        assert!(
            warm.sat_conflicts < cold.sat_conflicts,
            "warm {} vs cold {} SAT conflicts",
            warm.sat_conflicts,
            cold.sat_conflicts
        );
        assert!(warm.candidates_checked <= cold.candidates_checked);

        let doc = classroom_json(&problem, &spec, &cold, Some(&warm));
        assert_eq!(doc.get("cost_identical"), Some(&Json::Bool(true)));
        assert!(doc
            .get("warm")
            .and_then(|w| w.get("transfer_hits"))
            .is_some());

        // Both runs report their verification-sweep work: counts plus the
        // SAT-vs-verification wall-clock split.
        for pass in ["cold", "warm"] {
            let sweep = doc
                .get(pass)
                .and_then(|run| run.get("sweep"))
                .unwrap_or_else(|| panic!("{pass} run reports sweep work"));
            assert!(
                sweep.get("sweeps").and_then(Json::as_i64).unwrap_or(0) > 0,
                "{pass} run swept at least once: {sweep}"
            );
            assert!(sweep.get("sat_ms").is_some() && sweep.get("verify_ms").is_some());
        }
    }
}
