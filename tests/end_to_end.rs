//! Workspace integration tests: the full pipeline (parser → error model →
//! synthesis → feedback) exercised across crates through the facade.

use autofeedback::corpus::{generate_corpus, problems, CorpusSpec, Origin};
use autofeedback::eml::{apply_error_model, library};
use autofeedback::interp::{EquivalenceConfig, EquivalenceOracle};
use autofeedback::parser::parse_program;
use autofeedback::synth::{Backend, SynthesisConfig};
use autofeedback::{Autograder, GradeOutcome, GraderConfig};

/// The paper's Figure 2(a) submission must be fixable and the repaired
/// program must be verified equivalent to the reference.
#[test]
fn figure_2a_submission_is_repaired_and_verified() {
    let problem = problems::compute_deriv();
    let grader = problem.autograder(GraderConfig::fast());
    let submission = "\
def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0, len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
";
    match grader.grade_source(submission) {
        GradeOutcome::Feedback(feedback) => {
            // The paper reports three coordinated corrections for this one.
            assert!(
                (1..=4).contains(&feedback.cost),
                "unexpected number of corrections: {}",
                feedback.cost
            );
            assert_eq!(feedback.cost, feedback.corrections.len());
            let rendered = feedback.to_string();
            assert!(rendered.contains("The program requires"));
        }
        other => panic!("expected feedback for the Figure 2(a) submission, got {other:?}"),
    }
}

/// Every correct variant of every benchmark problem grades as Correct, and
/// every conceptual mutant grades as incorrect (feedback or cannot-fix).
#[test]
fn benchmark_problems_grade_their_own_variants_consistently() {
    for problem in problems::all_problems() {
        let grader = problem.autograder(GraderConfig::fast());
        for variant in &problem.correct_variants {
            assert_eq!(
                grader.grade_source(variant),
                GradeOutcome::Correct,
                "correct variant of {} misgraded",
                problem.id
            );
        }
        for mutant in &problem.conceptual_mutants {
            match grader.grade_source(mutant) {
                GradeOutcome::Correct => {
                    panic!("conceptual mutant of {} graded as correct", problem.id)
                }
                GradeOutcome::SyntaxError(err) => {
                    panic!("conceptual mutant of {} does not parse: {err}", problem.id)
                }
                _ => {}
            }
        }
    }
}

/// The repaired program returned by the synthesizer really is equivalent to
/// the reference, for both back ends, and both find the same minimal cost.
#[test]
fn backends_agree_and_produce_verified_repairs() {
    let problem = problems::compute_deriv();
    let reference = parse_program(problem.reference).unwrap();
    let oracle = EquivalenceOracle::from_reference(
        &reference,
        EquivalenceConfig {
            entry: Some(problem.entry.to_string()),
            ..EquivalenceConfig::default()
        },
    );
    let student = parse_program(
        "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n",
    )
    .unwrap();
    let choices = apply_error_model(&student, Some(problem.entry), &problem.model).unwrap();

    let cegis = Backend::Cegis.synthesize(&choices, &oracle, &SynthesisConfig::fast());
    let enumerative = Backend::Enumerative.synthesize(&choices, &oracle, &SynthesisConfig::fast());
    let cegis_solution = cegis.solution().expect("cegis repairs the submission");
    let enum_solution = enumerative
        .solution()
        .expect("enumeration repairs the submission");
    assert_eq!(cegis_solution.cost, enum_solution.cost);

    for solution in [cegis_solution, enum_solution] {
        let repaired = choices.concretize(&solution.assignment);
        assert!(
            oracle.is_equivalent(&repaired),
            "repair is not equivalent to the reference"
        );
    }
}

/// Grading a small synthetic class end to end: counters are consistent and a
/// healthy fraction of the incorrect submissions receive feedback.
#[test]
fn synthetic_class_is_graded_with_consistent_counters() {
    let problem = problems::iter_power();
    let grader = problem.autograder(GraderConfig::fast());
    let corpus = generate_corpus(&problem, &CorpusSpec::table1_like(24, 99));
    assert_eq!(corpus.len(), 24);

    let mut syntax = 0;
    let mut correct = 0;
    let mut fixed = 0;
    let mut other = 0;
    for submission in &corpus {
        match grader.grade_source(&submission.source) {
            GradeOutcome::SyntaxError(_) => {
                syntax += 1;
                assert_eq!(
                    submission.origin,
                    Origin::SyntaxError,
                    "only corrupted sources may fail to parse"
                );
            }
            GradeOutcome::Correct => correct += 1,
            GradeOutcome::Feedback(feedback) => {
                fixed += 1;
                assert!(feedback.cost >= 1);
            }
            GradeOutcome::CannotFix | GradeOutcome::Timeout => other += 1,
        }
    }
    assert_eq!(syntax + correct + fixed + other, 24);
    assert!(
        fixed > 0,
        "at least one incorrect submission should be repaired"
    );
    assert!(correct > 0);
}

/// The textual EML front end and the programmatic library produce models
/// that can both drive the grader.
#[test]
fn textual_and_programmatic_models_both_grade() {
    let reference = problems::compute_deriv().reference;
    let textual = autofeedback::eml::parse_error_model(
        "simple",
        "RETR: return a -> [0]\nRANR: range(a0, a1) -> range(a0 + 1, a1)\nEQF: a0 == a1 -> False\n",
    )
    .unwrap();
    let grader_text =
        Autograder::new(reference, "computeDeriv", textual, GraderConfig::fast()).unwrap();
    let grader_lib = Autograder::new(
        reference,
        "computeDeriv",
        library::section_2_1_model(),
        GraderConfig::fast(),
    )
    .unwrap();

    let submission = "\
def computeDeriv(poly):
    deriv = []
    if len(poly) == 1:
        return deriv
    for e in range(0, len(poly)):
        deriv.append(poly[e] * e)
    return deriv
";
    let a = grader_text.grade_source(submission);
    let b = grader_lib.grade_source(submission);
    assert!(a.feedback().is_some(), "textual model failed: {a:?}");
    assert!(b.feedback().is_some(), "library model failed: {b:?}");
}

/// A mutating method call on an index receiver (`box[0].append(...)`)
/// lowers to bytecode like any other construct: every choice site compiles
/// to indexed dispatch, the search verifies candidates on the VM (its
/// verdict trie fills), and the repair is the one the tree walker's
/// semantics call for.
#[test]
fn index_receiver_submission_is_graded_on_the_vm() {
    use autofeedback::interp::CompiledProgram;

    let submission = "\
def computeDeriv(poly):
    box = [[]]
    if len(poly) == 1:
        return box[0]
    for e in range(0, len(poly)):
        box[0].append(poly[e]*e)
    return box[0]
";
    let problem = problems::compute_deriv();
    let mut config = GraderConfig::fast();
    // Candidate-bounded, so the verdict does not depend on machine load.
    config.synthesis.time_budget = std::time::Duration::from_secs(3600);
    let grader = problem.autograder(config);
    let student = parse_program(submission).unwrap();
    let choices = apply_error_model(&student, Some(grader.entry()), grader.model()).unwrap();
    let compiled = CompiledProgram::from_choice(&choices);
    assert_eq!(compiled.site_count(), choices.choices.len());

    match grader.grade_source(submission) {
        GradeOutcome::Feedback(feedback) => {
            assert!(feedback.stats.sweep_cache_nodes > 0, "verified on the VM");
            assert_eq!(feedback.cost, 2);
            assert_eq!(
                feedback.to_string(),
                "The program requires 2 changes:\n  \
                 * In the return statement return box[0] in line 4, replace box[0] with [0]\n  \
                 * In the expression 0 in line 5, change the range bounds to 0 + 1\n"
            );
        }
        other => panic!("expected feedback, got {other:?}"),
    }
}
