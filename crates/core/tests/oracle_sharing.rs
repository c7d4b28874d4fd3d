//! Sharing an equivalence oracle never changes a verdict: a grader that
//! reuses another's oracle grades exactly like one built cold with the
//! same configuration.

use std::time::Duration;

use afg_core::{Autograder, GradeOutcome, GraderConfig};
use afg_corpus::problems::{compute_deriv, prod_by_sum};
use afg_corpus::{generate_corpus, CorpusSpec, Problem};

/// A verdict minus its timings: the outcome kind, the repair's cost and
/// the rendered feedback text.
fn verdict(outcome: &GradeOutcome) -> (String, usize, String) {
    match outcome {
        GradeOutcome::Feedback(feedback) => {
            ("feedback".to_string(), feedback.cost, feedback.to_string())
        }
        other => (format!("{other:?}"), 0, String::new()),
    }
}

/// [`GraderConfig::fast`] with the wall clock lifted, so the candidate
/// budget alone ends a search and verdicts repeat exactly.
fn candidate_bounded() -> GraderConfig {
    let mut config = GraderConfig::fast();
    config.synthesis.time_budget = Duration::from_secs(3_600);
    config
}

fn check(problem: &Problem) {
    let reference = Autograder::parse_reference(problem.reference).unwrap();
    let cold = problem.autograder(candidate_bounded());
    let mut budget = candidate_bounded();
    budget.synthesis.max_candidates = 300;
    budget.synthesis.max_cost = 2;
    let variants = [
        (problem.model.clone(), candidate_bounded()),
        (problem.model.truncated(3), candidate_bounded()),
        (problem.model.clone(), budget),
    ];
    let submissions = generate_corpus(problem, &CorpusSpec::table1_like(20, 20130616));
    for (model, config) in variants {
        let shared = Autograder::sharing(
            reference.clone(),
            problem.entry,
            model.clone(),
            config.clone(),
            [&cold],
        )
        .unwrap();
        assert!(
            std::ptr::eq(shared.oracle(), cold.oracle()),
            "{}",
            problem.id
        );
        let own = Autograder::new(problem.reference, problem.entry, model, config).unwrap();
        assert!(!std::ptr::eq(own.oracle(), cold.oracle()));
        let mut repairs = 0;
        for submission in &submissions {
            let expected = verdict(&own.grade_source(&submission.source));
            repairs += usize::from(expected.0 == "feedback");
            assert_eq!(
                verdict(&shared.grade_source(&submission.source)),
                expected,
                "{}: {}",
                problem.id,
                submission.source
            );
        }
        // Not vacuous: every configuration repairs some submissions.
        assert!(repairs > 0, "{}: {}", problem.id, shared.model().name);
    }
}

#[test]
fn a_shared_oracle_grades_like_a_cold_one() {
    check(&compute_deriv());
    check(&prod_by_sum());
}
