//! Cross-crate property-based tests of the pipeline's core invariants.
//!
//! The workspace carries no external dependencies, so instead of a proptest
//! shrinker these are exhaustive sweeps over seeded inputs — every case is
//! deterministic and a failure message names the seed that produced it.

use autofeedback::corpus::rng::StdRng;
use autofeedback::corpus::{mutate_program, problems};
use autofeedback::eml::{apply_error_model, ChoiceAssignment};
use autofeedback::interp::{EquivalenceConfig, EquivalenceOracle};
use autofeedback::parser::parse_program;

/// Pretty-printing any mutated benchmark solution and re-parsing it is a
/// fixed point: parse(print(p)) prints identically.
#[test]
fn mutated_programs_round_trip_through_the_printer() {
    let problem = problems::compute_deriv();
    for seed in 0..60u64 {
        let mutations = 1 + (seed as usize % 3);
        let mut program = parse_program(problem.reference).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mutate_program(&mut program, mutations, &mut rng);
        let printed = autofeedback::ast::pretty::program_to_string(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed program parses: {e}\n{printed}"));
        assert_eq!(
            printed,
            autofeedback::ast::pretty::program_to_string(&reparsed),
            "seed {seed}: printer round trip"
        );
    }
}

/// The error-model transformation is *conservative*: with every choice at
/// its default, the concretised program behaves exactly like the input
/// program on the bounded input space.
#[test]
fn default_concretisation_preserves_behaviour() {
    let problem = problems::compute_deriv();
    for seed in 0..24u64 {
        let mut student = parse_program(problem.reference).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mutate_program(&mut student, 2, &mut rng);

        let choices = apply_error_model(&student, Some(problem.entry), &problem.model).unwrap();
        let roundtrip = choices.original_program();

        // Build an oracle whose "reference" is the (possibly broken) student
        // program itself: the default concretisation must be equivalent to it.
        let oracle = EquivalenceOracle::from_reference(
            &parse_with_types(&student, problem.reference, problem.entry),
            EquivalenceConfig {
                entry: Some(problem.entry.to_string()),
                ..EquivalenceConfig::default()
            },
        );
        assert!(
            oracle.is_equivalent(&roundtrip),
            "seed {seed}: default concretisation drifted"
        );
    }
}

/// The fingerprint cache's guard rail: `pretty-print → parse → canonical
/// hash` is a fixpoint for every benchmark problem's reference, correct
/// variants and conceptual mutants, and across a seeded mutant sweep.  If
/// the parser or the printer ever drift apart (a normalisation one does
/// and the other undoes), an identical resubmission would stop hitting the
/// cache — this test turns that silent performance regression into a
/// loud failure.
#[test]
fn canonical_fingerprint_survives_a_print_parse_round_trip() {
    use autofeedback::ast::canon::{canonical_source, canonicalize, fingerprint64};
    use autofeedback::ast::pretty::program_to_string;

    let check = |program: &autofeedback::ast::Program, context: &str| {
        let printed = program_to_string(program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{context}: printed program parses: {e}\n{printed}"));
        assert_eq!(
            fingerprint64(program),
            fingerprint64(&reparsed),
            "{context}: fingerprint must survive print→parse\n{printed}"
        );
        // Canonicalisation is idempotent: hashing the canonical form again
        // changes nothing.
        assert_eq!(
            canonical_source(program),
            canonical_source(&canonicalize(program)),
            "{context}: canonicalisation must be idempotent"
        );
    };

    for problem in problems::all_problems() {
        let mut fixed_sources = problem.mutation_seeds();
        fixed_sources.extend(problem.conceptual_mutants.iter().copied());
        for (i, source) in fixed_sources.iter().enumerate() {
            let program = parse_program(source).expect("corpus sources parse");
            check(&program, &format!("{} source {i}", problem.id));
        }

        // Seeded mutant sweep: 1–3 injected mistakes per seed.
        for seed in 0..12u64 {
            let mut program = parse_program(problem.reference).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            mutate_program(&mut program, 1 + (seed as usize % 3), &mut rng);
            check(&program, &format!("{} mutant seed {seed}", problem.id));
        }
    }
}

/// The cluster index's guard rail, the skeleton analogue of the canonical
/// fixpoint above: `pretty-print → parse → skeleton fingerprint` is a
/// fixpoint over every corpus problem (reference, correct variants,
/// conceptual mutants and a seeded mutant sweep) — if the printer and
/// parser drifted, skeleton-mates would silently stop clustering.
#[test]
fn skeleton_fingerprint_survives_a_print_parse_round_trip() {
    use autofeedback::ast::canon::{skeleton_fingerprint64, skeleton_source, skeletonize};
    use autofeedback::ast::pretty::program_to_string;

    let check = |program: &autofeedback::ast::Program, context: &str| {
        let printed = program_to_string(program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{context}: printed program parses: {e}\n{printed}"));
        assert_eq!(
            skeleton_fingerprint64(program),
            skeleton_fingerprint64(&reparsed),
            "{context}: skeleton fingerprint must survive print→parse\n{printed}"
        );
        // Skeletonisation is idempotent.
        assert_eq!(
            skeleton_source(program),
            skeleton_source(&skeletonize(program)),
            "{context}: skeletonisation must be idempotent"
        );
    };

    for problem in problems::all_problems() {
        let mut fixed_sources = problem.mutation_seeds();
        fixed_sources.extend(problem.conceptual_mutants.iter().copied());
        for (i, source) in fixed_sources.iter().enumerate() {
            let program = parse_program(source).expect("corpus sources parse");
            check(&program, &format!("{} source {i}", problem.id));
        }
        for seed in 0..12u64 {
            let mut program = parse_program(problem.reference).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            mutate_program(&mut program, 1 + (seed as usize % 3), &mut rng);
            check(&program, &format!("{} mutant seed {seed}", problem.id));
        }
    }
}

/// Skeleton invariance: alpha-renaming every variable AND perturbing every
/// integer constant leaves the skeleton fingerprint unchanged (that is the
/// clustering contract), while the *canonical* fingerprint keeps the
/// constant-perturbed variant distinct (that is the cache's contract).
#[test]
fn skeleton_is_invariant_under_renaming_and_constant_perturbation() {
    use autofeedback::ast::canon::{canonicalize, fingerprint64, skeleton_fingerprint64};
    use autofeedback::ast::visit::map_exprs_in_stmts;
    use autofeedback::ast::Expr;

    for problem in problems::all_problems() {
        for (i, source) in problem.mutation_seeds().iter().enumerate() {
            let program = parse_program(source).expect("corpus sources parse");

            // Alpha-renaming: canonicalize() IS a renaming of every
            // variable, so it must preserve both fingerprints.
            let renamed = canonicalize(&program);
            assert_eq!(
                fingerprint64(&program),
                fingerprint64(&renamed),
                "{} source {i}: canonical fingerprint is alpha-invariant",
                problem.id
            );
            assert_eq!(
                skeleton_fingerprint64(&program),
                skeleton_fingerprint64(&renamed),
                "{} source {i}: skeleton fingerprint is alpha-invariant",
                problem.id
            );

            // Constant perturbation: shifts every integer literal, which
            // changes the canonical form (when the program has any
            // integer literal) but never the skeleton.
            for delta in [1, -3, 40] {
                let mut perturbed = program.clone();
                let mut perturb = |e: Expr| match e {
                    Expr::Int(v) => Expr::Int(v.wrapping_add(delta)),
                    other => other,
                };
                for func in &mut perturbed.funcs {
                    map_exprs_in_stmts(&mut func.body, &mut perturb);
                }
                assert_eq!(
                    skeleton_fingerprint64(&program),
                    skeleton_fingerprint64(&perturbed),
                    "{} source {i} delta {delta}: skeleton ignores constants",
                    problem.id
                );
                if perturbed != program {
                    assert_ne!(
                        fingerprint64(&program),
                        fingerprint64(&perturbed),
                        "{} source {i} delta {delta}: canonical form must \
                         still distinguish the constants",
                        problem.id
                    );
                }
            }
        }
    }
}

/// Cost accounting: the cost of an assignment equals the number of
/// non-default selections, and concretising the same assignment twice is
/// deterministic.
#[test]
fn assignment_cost_counts_non_default_choices() {
    let problem = problems::compute_deriv();
    let student = parse_program(problem.correct_variants[0]).unwrap();
    let choices = apply_error_model(&student, Some(problem.entry), &problem.model).unwrap();

    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignment = ChoiceAssignment::default_choices();
        let mut expected_cost = 0;
        for info in &choices.choices {
            if rng.gen_bool(0.5) && info.options.len() > 1 {
                assignment.select(info.id, 1);
                expected_cost += 1;
            }
        }
        assert_eq!(assignment.cost(), expected_cost, "seed {seed}");
        assert_eq!(
            choices.concretize(&assignment),
            choices.concretize(&assignment),
            "seed {seed}: concretisation must be deterministic"
        );
    }
}

/// The zero-materialisation differential property: a verification
/// session evaluating a candidate by loading its assignment into the
/// compiled choice program agrees with concretising the assignment and
/// interpreting the resulting program on the tree walker — for every
/// benchmark problem, across default, single-choice and random
/// multi-choice assignments, on the oracle's bounded inputs — and the
/// session's verdict cache answers every such check as the concretised
/// program would.
#[test]
fn choice_evaluation_agrees_with_concretisation_on_corpus_problems() {
    use autofeedback::core::GraderConfig;
    use autofeedback::interp::{ExecLimits, ExecResult};

    let limits = ExecLimits::fast();
    let mut cache_hits = 0;
    for problem in problems::all_problems() {
        let grader = problem.autograder(GraderConfig::fast());
        let compare_output = grader.config().equivalence.compare_output;
        let inputs = grader.oracle().inputs();
        for variant in problem.correct_variants.iter().take(2) {
            let student = parse_program(variant).expect("corpus variants parse");
            let Ok(choices) = apply_error_model(&student, Some(problem.entry), &problem.model)
            else {
                continue;
            };

            // Default, every single non-default selection, plus seeded
            // random multi-choice assignments.
            let mut assignments = vec![ChoiceAssignment::default_choices()];
            for info in &choices.choices {
                for option in 1..info.options.len() {
                    assignments.push(ChoiceAssignment::from_pairs([(info.id, option)]));
                }
            }
            let mut rng = StdRng::seed_from_u64(problem.id.len() as u64);
            for _ in 0..8 {
                let mut assignment = ChoiceAssignment::default_choices();
                for info in &choices.choices {
                    if info.options.len() > 1 && rng.gen_bool(0.3) {
                        assignment.select(info.id, rng.gen_range(1..info.options.len()));
                    }
                }
                assignments.push(assignment);
            }

            let session = grader.oracle().choice_session(&choices);
            // (assignment, input, the materialised program's verdict).
            let mut sampled = Vec::new();
            for (which, assignment) in assignments.iter().enumerate().take(24) {
                let concrete = choices.concretize(assignment);
                // Sample the bounded input space: small spaces are swept
                // exhaustively, large ones by stride, touching short and
                // long inputs alike.
                let stride = (inputs.len() / 64).max(1);
                for (index, args) in inputs.iter().enumerate().step_by(stride) {
                    let direct = session.observe(assignment, index);
                    let materialised =
                        ExecResult::observe(&concrete, Some(problem.entry), args, limits);
                    assert_eq!(
                        direct, materialised,
                        "{}: assignment #{which} diverged on {args:?}",
                        problem.id
                    );
                    let verdict = materialised
                        .matches(grader.oracle().reference_result(index), compare_output);
                    sampled.push((which, index, verdict));
                }
            }

            // The verdict cache answers a check from the first-consultation
            // keys of earlier runs.  In the first pass later assignments
            // meet a trie the earlier ones filled; in the second every
            // check is a lookup.  Each answer must be the materialised
            // program's verdict.
            for pass in 0..2 {
                for &(which, index, verdict) in &sampled {
                    assert_eq!(
                        session.check_input(&assignments[which], index),
                        verdict,
                        "{}: pass {pass}, assignment #{which}, input {index}",
                        problem.id
                    );
                }
            }
            cache_hits += session.sweep_stats().cache_hits;
        }
    }
    assert!(cache_hits > 0, "the verdict cache answered some checks");
}

/// The student program keeps its own parameter names, but the declared types
/// live on the reference; borrow them so the oracle enumerates the same
/// input space for both.
fn parse_with_types(
    student: &autofeedback::ast::Program,
    reference_source: &str,
    entry: &str,
) -> autofeedback::ast::Program {
    let reference = parse_program(reference_source).unwrap();
    let mut student = student.clone();
    if let (Some(student_func), Some(reference_func)) =
        (student.funcs.first_mut(), reference.entry(Some(entry)))
    {
        for (param, reference_param) in student_func
            .params
            .iter_mut()
            .zip(reference_func.params.iter())
        {
            param.ty = reference_param.ty.clone();
        }
    }
    student
}
