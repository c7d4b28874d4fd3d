//! Differential property suite: the bytecode VM must be observationally
//! identical to the tree-walking interpreter — same result, same printed
//! output, same fuel consumption — on every corpus program, on seeded
//! mutants of every corpus program, and on the arithmetic edge cases that
//! historically diverged between naive implementations (`0 ** 1000`,
//! `i64::MIN // -1`, sequence-repetition bounds).  Compiled choice
//! programs are held to the same standard: every single-site selection of
//! every corpus choice program must run exactly like its concretized
//! candidate on the tree walker.  A separate test pins
//! fuel-exhaustion parity across whole budget ranges, and another checks
//! that the sweep verdict cache never changes a `find_counterexample`
//! answer (the cached session ≡ the concretized candidate on the tree
//! walker, including repeated queries that exercise the hit path).

use afg_corpus::rng::StdRng;
use afg_corpus::{generate_corpus, mutate_program, problems, CorpusSpec, Origin};
use afg_eml::{apply_error_model, ChoiceAssignment};
use afg_interp::{
    CompiledProgram, EquivalenceConfig, EquivalenceOracle, ExecLimits, Interpreter, RuntimeError,
    Value, Vm,
};

/// Runs `program` on `args` under both back ends and asserts result,
/// output and fuel agreement.
fn assert_backends_agree(
    program: &afg_ast::Program,
    entry: &str,
    args: &[Value],
    limits: ExecLimits,
    context: &str,
) {
    let compiled = CompiledProgram::from_program(program, Some(entry))
        .unwrap_or_else(|| panic!("every program with an entry compiles ({context})"));
    assert_runs_agree(
        &mut Vm::new(limits),
        &compiled,
        program,
        entry,
        args,
        limits,
        context,
    );
}

/// Runs `compiled` on `vm` (with whatever selection it holds) and `program`
/// on the tree walker, and asserts result, output and fuel agreement.
fn assert_runs_agree(
    vm: &mut Vm,
    compiled: &CompiledProgram,
    program: &afg_ast::Program,
    entry: &str,
    args: &[Value],
    limits: ExecLimits,
    context: &str,
) {
    let vm_result = vm.run(compiled, args);
    let mut interp = Interpreter::with_limits(program, limits);
    let tree_result = interp.call_entry(Some(entry), args);
    match (&vm_result, &tree_result) {
        (Ok(vm_outcome), Ok(tree_outcome)) => {
            assert_eq!(vm_outcome.value, tree_outcome.value, "value: {context}");
            assert_eq!(vm_outcome.output, tree_outcome.output, "output: {context}");
        }
        (Err(vm_err), Err(tree_err)) => assert_eq!(vm_err, tree_err, "error: {context}"),
        _ => panic!("backends disagree ({context}): vm {vm_result:?} vs tree {tree_result:?}"),
    }
    assert_eq!(vm.fuel_used(), interp.fuel_used(), "fuel: {context}");
}

/// Every corpus program (reference, correct variants, conceptual mutants)
/// on its full bounded input deck, plus seeded mutants of each: the VM
/// must agree with the tree walker on result, output and fuel everywhere.
#[test]
fn vm_matches_tree_on_all_corpus_programs_and_seeded_mutants() {
    let limits = ExecLimits::fast();
    for problem in problems::all_problems() {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle = EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some(problem.entry.to_string()),
                limits,
                ..EquivalenceConfig::default()
            },
        );
        let inputs = oracle.inputs();

        let mut programs: Vec<afg_ast::Program> = Vec::new();
        programs.push(reference.clone());
        for source in problem
            .correct_variants
            .iter()
            .chain(problem.conceptual_mutants.iter())
        {
            programs.push(afg_parser::parse_program(source).expect("corpus programs parse"));
        }
        // Seeded single-mistake mutants of every seed program: buggy
        // submissions are what verification sweeps actually execute, so
        // the parity claim has to hold off the happy path too.
        for (m, seed_source) in problem.mutation_seeds().into_iter().enumerate() {
            let mut mutated = afg_parser::parse_program(seed_source).expect("seeds parse");
            let mut rng = StdRng::seed_from_u64(0x2013_0616 ^ ((m as u64 + 1) << 24));
            mutate_program(&mut mutated, 1, &mut rng);
            programs.push(mutated);
        }

        for (s, program) in programs.iter().enumerate() {
            // The deck is bounded; cap per-program work so the whole
            // corpus stays fast in debug builds.
            for (i, args) in inputs.iter().take(48).enumerate() {
                assert_backends_agree(
                    program,
                    problem.entry,
                    args,
                    limits,
                    &format!("{} program {s} input {i}", problem.id),
                );
            }
        }
    }
}

/// Grading compiles choice programs: every problem's model applied to its
/// `table1_like` submissions that were generated incorrect (mutated,
/// conceptual or trivial).  Under the all-default selection and every
/// single non-default selection, `Vm::select` + `run` must agree with the
/// tree walker on the concretized candidate — result, output and fuel —
/// on a prefix of the problem's input deck.
#[test]
fn choice_programs_match_their_concretizations_across_the_corpus() {
    let limits = ExecLimits::fast();
    let mut runs = 0;
    for problem in problems::all_problems() {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle = EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some(problem.entry.to_string()),
                limits,
                ..EquivalenceConfig::default()
            },
        );
        let inputs = &oracle.inputs()[..oracle.inputs().len().min(6)];
        let submissions = generate_corpus(&problem, &CorpusSpec::table1_like(20, 20130616));
        for (s, submission) in submissions.iter().enumerate() {
            if matches!(submission.origin, Origin::Correct | Origin::SyntaxError) {
                continue;
            }
            let program = afg_parser::parse_program(&submission.source)
                .expect("only syntax errors fail to parse");
            let Ok(choices) = apply_error_model(&program, Some(problem.entry), &problem.model)
            else {
                continue;
            };
            let compiled = CompiledProgram::from_choice(&choices);
            let mut selections = vec![ChoiceAssignment::default_choices()];
            for info in &choices.choices {
                for option in 1..info.options.len() {
                    selections.push(ChoiceAssignment::from_pairs([(info.id, option)]));
                }
            }
            let mut vm = Vm::new(limits);
            for (a, assignment) in selections.iter().enumerate() {
                let concrete = choices.concretize(assignment);
                vm.select(&compiled, assignment);
                for (i, args) in inputs.iter().enumerate() {
                    let context = format!("{} submission {s} selection {a} input {i}", problem.id);
                    assert_runs_agree(
                        &mut vm,
                        &compiled,
                        &concrete,
                        problem.entry,
                        args,
                        limits,
                        &context,
                    );
                    runs += 1;
                }
            }
        }
    }
    assert!(runs > 10_000, "only {runs} runs compared");
}

/// The arithmetic and sequence edge cases called out by the paper's error
/// classes: huge exponents with |base| <= 1, the `i64::MIN // -1` /
/// `i64::MIN % -1` overflow corner, and sequence repetition at the size
/// bounds.  All must agree across back ends — including which error is
/// raised and how much fuel the failing run burned.
#[test]
fn vm_matches_tree_on_arithmetic_and_repetition_edge_cases() {
    let limits = ExecLimits::default();
    let pow = "def f(a, b):\n    return a ** b\n";
    let floordiv = "def f(a, b):\n    return a // b\n";
    let modulo = "def f(a, b):\n    return a % b\n";
    let repeat = "def f(s, n):\n    return s * n\n";
    let cases: Vec<(&str, Vec<Value>)> = vec![
        (pow, vec![Value::Int(0), Value::Int(1000)]),
        (pow, vec![Value::Int(1), Value::Int(i64::MAX)]),
        (pow, vec![Value::Int(-1), Value::Int(i64::MAX)]),
        (pow, vec![Value::Int(2), Value::Int(63)]),
        (pow, vec![Value::Int(2), Value::Int(64)]),
        (pow, vec![Value::Int(i64::MIN), Value::Int(2)]),
        (floordiv, vec![Value::Int(i64::MIN), Value::Int(-1)]),
        (floordiv, vec![Value::Int(i64::MIN), Value::Int(1)]),
        (floordiv, vec![Value::Int(-7), Value::Int(2)]),
        (modulo, vec![Value::Int(i64::MIN), Value::Int(-1)]),
        (modulo, vec![Value::Int(-7), Value::Int(2)]),
        (repeat, vec![Value::Str("ab".into()), Value::Int(-3)]),
        (repeat, vec![Value::Str("ab".into()), Value::Int(1 << 40)]),
        (repeat, vec![Value::int_list([1, 2]), Value::Int(1 << 40)]),
        (repeat, vec![Value::int_list([1, 2]), Value::Int(0)]),
        (repeat, vec![Value::Int(3), Value::Str("ab".into())]),
    ];
    for (case, (source, args)) in cases.iter().enumerate() {
        let program = afg_parser::parse_program(source).expect("edge-case programs parse");
        assert_backends_agree(&program, "f", args, limits, &format!("edge case {case}"));
    }
}

/// Fuel-exhaustion parity: for every corpus reference and one input,
/// sweep the whole budget range from 1 fuel unit up and require byte-for-
/// byte agreement on where execution stops, what it reports, and how much
/// fuel was consumed.
#[test]
fn fuel_exhaustion_parity_across_budgets_on_corpus_references() {
    for problem in problems::all_problems() {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle = EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some(problem.entry.to_string()),
                limits: ExecLimits::fast(),
                ..EquivalenceConfig::default()
            },
        );
        let Some(args) = oracle.inputs().iter().max_by_key(|args| {
            // The most expensive deck input exercises the longest prefix
            // of the program under tiny budgets.
            let mut interp = Interpreter::with_limits(&reference, ExecLimits::fast());
            let _ = interp.call_entry(Some(problem.entry), args);
            interp.fuel_used()
        }) else {
            continue;
        };
        let compiled = CompiledProgram::from_program(&reference, Some(problem.entry))
            .expect("references compile");
        for fuel in 1..200 {
            let limits = ExecLimits {
                fuel,
                max_recursion: 32,
            };
            let mut vm = Vm::new(limits);
            let vm_result = vm.run(&compiled, args);
            let mut interp = Interpreter::with_limits(&reference, limits);
            let tree_result = interp.call_entry(Some(problem.entry), args);
            match (&vm_result, &tree_result) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.value, b.value, "{} fuel {fuel}", problem.id);
                    assert_eq!(a.output, b.output, "{} fuel {fuel}", problem.id);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{} fuel {fuel}", problem.id),
                _ => panic!(
                    "{} fuel {fuel}: vm {vm_result:?} vs tree {tree_result:?}",
                    problem.id
                ),
            }
            assert_eq!(
                vm.fuel_used(),
                interp.fuel_used(),
                "{} fuel {fuel}",
                problem.id
            );
            if !matches!(vm_result, Err(RuntimeError::FuelExhausted)) {
                // The budget stopped binding; larger budgets replay the
                // same complete run.
                break;
            }
        }
    }
}

/// The sweep verdict cache is an observational-equivalence memoization —
/// it must never change an answer.  For seeded buggy choice programs this
/// sweeps a candidate set through a session and requires the same
/// counterexample as the concretized candidate on the tree walker —
/// querying the session twice so the second pass answers from the trie.
#[test]
fn verdict_cache_never_changes_a_sweep_answer() {
    for problem in problems::all_problems() {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle = EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some(problem.entry.to_string()),
                limits: ExecLimits::fast(),
                ..EquivalenceConfig::default()
            },
        );

        for m in 0..2usize {
            let seeds = problem.mutation_seeds();
            let mut mutated =
                afg_parser::parse_program(seeds[m % seeds.len()]).expect("seeds parse");
            let mut rng = StdRng::seed_from_u64(0xCAC4E ^ ((m as u64 + 1) << 18));
            mutate_program(&mut mutated, 1, &mut rng);
            let Ok(choice_program) =
                apply_error_model(&mutated, Some(problem.entry), &problem.model)
            else {
                continue;
            };
            if choice_program.choices.is_empty() {
                continue;
            }

            let mut assignments = vec![ChoiceAssignment::default_choices()];
            for info in choice_program.choices.iter().take(6) {
                let mut single = ChoiceAssignment::default_choices();
                single.select(info.id, 1);
                assignments.push(single);
            }
            if choice_program.choices.len() >= 2 {
                let mut pair = ChoiceAssignment::default_choices();
                pair.select(choice_program.choices[0].id, 1);
                pair.select(choice_program.choices[1].id, 1);
                assignments.push(pair);
            }

            let cached_session = oracle.choice_session(&choice_program);
            for (a, assignment) in assignments.iter().enumerate() {
                let want = oracle.find_counterexample(&choice_program.concretize(assignment));
                let first = cached_session.find_counterexample(assignment, &[]);
                let second = cached_session.find_counterexample(assignment, &[]);
                assert_eq!(
                    want, first,
                    "{} mutant {m} assignment {a} (cold)",
                    problem.id
                );
                assert_eq!(
                    want, second,
                    "{} mutant {m} assignment {a} (warm)",
                    problem.id
                );
            }
            let stats = cached_session.sweep_stats();
            assert!(
                stats.cache_hits > 0,
                "{} mutant {m}: cache never hit across repeated sweeps",
                problem.id
            );
        }
    }
}
