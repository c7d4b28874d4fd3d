//! The autograder: the end-to-end pipeline of Figure 3.
//!
//! `student.py` → *Program Rewriter* (error model) → M̃PY → *Sketch
//! Translator / Solver* (choice encoding + CEGISMIN) → *Feedback Generator*.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use afg_ast::canon::fnv1a64;
use afg_ast::Program;
use afg_eml::{apply_error_model, ErrorModel, TransformError};
use afg_interp::{EquivalenceConfig, EquivalenceOracle};
use afg_parser::{parse_program, ParseError};
use afg_synth::{Backend, SynthesisConfig, SynthesisOutcome};

use crate::feedback::{corrections_from_assignment, Feedback};

/// Errors raised while *setting up* a grader (problems with the instructor's
/// inputs, not with student submissions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraderError {
    /// The reference implementation does not parse.
    ReferenceSyntax(ParseError),
    /// The reference implementation defines no function with the entry name.
    MissingEntry {
        /// The requested entry-function name.
        entry: String,
    },
    /// A parameter of the entry function lacks the type suffix that drives
    /// bounded input enumeration (`poly_list_int`, `n_int`, …).
    UntypedParam {
        /// The entry-function name.
        entry: String,
        /// The offending parameter, as written.
        param: String,
    },
    /// The error model is ill-formed.
    Model(TransformError),
}

impl fmt::Display for GraderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraderError::ReferenceSyntax(err) => write!(f, "reference implementation: {err}"),
            GraderError::MissingEntry { entry } => write!(
                f,
                "reference implementation: no function named '{entry}' \
                 (the graded entry function must be defined)"
            ),
            GraderError::UntypedParam { entry, param } => write!(
                f,
                "reference implementation: parameter '{param}' of '{entry}' has no \
                 type suffix; declare one (e.g. '{param}_int' or '{param}_list_int') \
                 so the equivalence oracle can enumerate bounded inputs"
            ),
            GraderError::Model(err) => write!(f, "error model: {err}"),
        }
    }
}

impl Error for GraderError {}

/// Configuration of the grading pipeline.
#[derive(Debug, Clone, Default)]
pub struct GraderConfig {
    /// Bounded input space and execution limits for equivalence checking.
    pub equivalence: EquivalenceConfig,
    /// Search budget for the synthesizer.
    pub synthesis: SynthesisConfig,
    /// Which synthesis back end to run.
    pub backend: Backend,
}

impl GraderConfig {
    /// A small budget suitable for tests.
    pub fn fast() -> GraderConfig {
        GraderConfig {
            equivalence: EquivalenceConfig::default(),
            synthesis: SynthesisConfig::fast(),
            backend: Backend::Cegis,
        }
    }
}

/// The result of grading one student submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradeOutcome {
    /// The submission does not parse (excluded from the paper's test set).
    SyntaxError(ParseError),
    /// The submission is behaviourally equivalent to the reference.
    Correct,
    /// The submission is incorrect and the tool found minimal corrections.
    Feedback(Feedback),
    /// The submission is incorrect and the error model cannot repair it
    /// (the paper's "completely incorrect / big conceptual error" bucket).
    CannotFix,
    /// The search exceeded its time or candidate budget.
    Timeout,
}

impl GradeOutcome {
    /// Whether feedback (or a correctness verdict) was produced.
    pub fn feedback(&self) -> Option<&Feedback> {
        match self {
            GradeOutcome::Feedback(feedback) => Some(feedback),
            _ => None,
        }
    }
}

/// Most selectors (non-default options, summed over choice sites) a
/// submission's choice program may have.  The choice encoding grows
/// quadratically in the selector count and is built before the search
/// looks at its budget, so a longer program answers
/// [`GradeOutcome::Timeout`] at once instead.  The corpus maximum is 143.
const MAX_SELECTORS: usize = 1_024;

/// The automated feedback generator for one assignment.
///
/// Holds the instructor's inputs — the reference implementation, the graded
/// function's name and the error model — plus the equivalence oracle, and
/// grades any number of student submissions against them.  The oracle (every
/// bounded input and the reference's result on it) depends only on the
/// reference, the entry name and the [`EquivalenceConfig`], so graders built
/// by [`Autograder::sharing`] hold one copy between them; the model, budget
/// and backend stay each grader's own.
#[derive(Debug, Clone)]
pub struct Autograder {
    reference: Program,
    entry: String,
    model: ErrorModel,
    config: GraderConfig,
    oracle: Arc<EquivalenceOracle>,
    /// Memoized [`Autograder::config_fingerprint`] (grading is hot; the
    /// configuration is fixed after construction modulo `set_model`).
    config_fingerprint: u64,
}

impl Autograder {
    /// Builds a grader from the reference implementation's source code.
    ///
    /// # Errors
    ///
    /// Returns [`GraderError::ReferenceSyntax`] if the reference does not
    /// parse, [`GraderError::MissingEntry`] if it defines no function named
    /// `entry`, and [`GraderError::UntypedParam`] if a parameter of the
    /// entry function lacks a type suffix — each is an instructor mistake
    /// better rejected at construction time than discovered as misbehaviour
    /// halfway through grading a class.
    pub fn new(
        reference_source: &str,
        entry: &str,
        model: ErrorModel,
        config: GraderConfig,
    ) -> Result<Autograder, GraderError> {
        let reference = Autograder::parse_reference(reference_source)?;
        Autograder::from_program(reference, entry, model, config)
    }

    /// Parses a reference implementation, reporting a syntax error as
    /// [`GraderError::ReferenceSyntax`].
    pub fn parse_reference(reference_source: &str) -> Result<Program, GraderError> {
        parse_program(reference_source).map_err(GraderError::ReferenceSyntax)
    }

    /// Builds a grader from an already-parsed reference implementation,
    /// applying the same validation as [`Autograder::new`].
    pub fn from_program(
        reference: Program,
        entry: &str,
        model: ErrorModel,
        config: GraderConfig,
    ) -> Result<Autograder, GraderError> {
        Autograder::sharing(reference, entry, model, config, [])
    }

    /// As [`Autograder::from_program`], but reuses the equivalence oracle of
    /// the first grader in `live` whose reference program, entry name and
    /// [`EquivalenceConfig`] equal this one's (exact `==`, so a shared
    /// oracle is the one this grader would have built).  Without such a
    /// grader it builds its own.  The oracle is freed with the last grader
    /// holding it.
    pub fn sharing<'a>(
        reference: Program,
        entry: &str,
        model: ErrorModel,
        config: GraderConfig,
        live: impl IntoIterator<Item = &'a Autograder>,
    ) -> Result<Autograder, GraderError> {
        validate_reference(&reference, entry)?;
        let donor = live.into_iter().find(|grader| {
            grader.entry == entry
                && grader.config.equivalence == config.equivalence
                && grader.reference == reference
        });
        let oracle = match donor {
            Some(grader) => Arc::clone(&grader.oracle),
            None => {
                let mut equivalence = config.equivalence.clone();
                equivalence.entry = Some(entry.to_string());
                Arc::new(EquivalenceOracle::from_reference(&reference, equivalence))
            }
        };
        let config_fingerprint = fingerprint_configuration(&reference, entry, &config, &model);
        Ok(Autograder {
            reference,
            entry: entry.to_string(),
            model,
            config,
            oracle,
            config_fingerprint,
        })
    }

    /// The reference implementation being graded against.
    pub fn reference(&self) -> &Program {
        &self.reference
    }

    /// The name of the graded function.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The error model in use.
    pub fn model(&self) -> &ErrorModel {
        &self.model
    }

    /// The equivalence oracle (exposed for experiment harnesses).
    pub fn oracle(&self) -> &EquivalenceOracle {
        &self.oracle
    }

    /// The grading configuration (backend, search budget, equivalence
    /// settings).
    pub fn config(&self) -> &GraderConfig {
        &self.config
    }

    /// A 64-bit fingerprint of everything that can change a verdict: the
    /// reference implementation and entry name, the full grading
    /// configuration (backend, search budget, equivalence/input-space
    /// settings) and the error model's content.
    /// The fingerprint cache mixes this into its keys so one cache can
    /// safely serve differently-configured graders.  Memoized at
    /// construction (and on [`Autograder::set_model`]).
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Replaces the error model (used by the Figure 14(b)/(c) experiments
    /// that sweep over models of increasing size).
    pub fn set_model(&mut self, model: ErrorModel) {
        self.model = model;
        self.config_fingerprint =
            fingerprint_configuration(&self.reference, &self.entry, &self.config, &self.model);
    }

    /// Grades a submission given as source text.
    pub fn grade_source(&self, student_source: &str) -> GradeOutcome {
        match parse_program(student_source) {
            Err(err) => GradeOutcome::SyntaxError(err),
            Ok(program) => self.grade_program(&program),
        }
    }

    /// Grades an already-parsed submission.
    pub fn grade_program(&self, student: &Program) -> GradeOutcome {
        self.grade_program_traced(student).outcome
    }

    /// Grades a submission and additionally returns what the fingerprint
    /// cache needs: the minimal choice assignment behind a
    /// [`GradeOutcome::Feedback`] (so an alpha-equivalent submission can
    /// *replay* the repair instead of re-running synthesis) and whether the
    /// verdict is deterministic enough to cache at all.
    pub(crate) fn grade_program_traced(&self, student: &Program) -> TracedGrade {
        self.grade_program_traced_warm(student, None)
    }

    /// As [`Autograder::grade_program_traced`], additionally offering a
    /// cluster representative's repair to the synthesizer as a warm start.
    /// The hypothesis is only handed over when this submission's choice
    /// program has the structural signature the donor search explored; the
    /// search re-verifies it before trusting it, so outcomes stay
    /// cost-identical to a cold grade (see [`crate::ClusterIndex`]).
    pub(crate) fn grade_program_traced_warm(
        &self,
        student: &Program,
        transfer: Option<&crate::cluster::ClusterRepair>,
    ) -> TracedGrade {
        let start = Instant::now();
        let choice_program = match apply_error_model(student, Some(&self.entry), &self.model) {
            Ok(cp) => cp,
            Err(TransformError::NoEntryFunction) => {
                return TracedGrade::cacheable(GradeOutcome::CannotFix)
            }
            Err(err) => {
                // An ill-formed model is an instructor error; surface it as
                // an unfixable submission rather than panicking mid-batch.
                debug_assert!(false, "error model rejected at grading time: {err}");
                return TracedGrade::cacheable(GradeOutcome::CannotFix);
            }
        };
        let signature = crate::cache::choice_signature(&choice_program);
        let selectors: usize = choice_program
            .choices
            .iter()
            .map(|site| site.options.len().saturating_sub(1))
            .sum();
        if selectors > MAX_SELECTORS {
            afg_obs::counter!(
                "afg_grade_oversized_total",
                "Submissions answered timeout unsearched: too many selectors"
            )
            .inc();
            // Like a candidate-budget timeout, a pure function of the
            // submission and the configuration.
            return TracedGrade {
                guard: Some(signature),
                ..TracedGrade::cacheable(GradeOutcome::Timeout)
            };
        }
        let backend = self.config.backend;
        let synthesis = &self.config.synthesis;
        // Whether the search tried / verified the transferred hypothesis,
        // for the cluster index's counters.
        let mut transfer_record = TransferRecord::default();
        // The transferred hypothesis applies only if this submission's
        // choice program has the shape the donor's search explored.
        let warm = transfer.and_then(|repair| {
            (repair.signature == signature).then(|| afg_synth::WarmStart {
                assignment: repair.assignment.clone(),
                counterexamples: repair.counterexamples.clone(),
            })
        });
        let mut search_span = afg_obs::stage_span!("search");
        let mut outcome =
            backend.synthesize_with_hint(&choice_program, &self.oracle, synthesis, warm.as_ref());
        let warm_attempted = outcome
            .stats()
            .is_some_and(|stats| stats.warm_start_attempted);
        if warm_attempted && !outcome.is_definitive() {
            // The budget truncated a warm-started search.  A truncated
            // descent explores a different trajectory than cold would (the
            // hypothesis sweep, its blocking clause and the pre-seeded
            // counterexamples all shift which candidates the budget
            // covers), so the best-so-far verdict could differ from cold
            // grading's — and verdicts must never depend on cluster arrival
            // order.  Re-grade cold and use that result; the transfer is
            // recorded as a (costly) miss.
            transfer_record.attempted = true;
            outcome = backend.synthesize_with_hint(&choice_program, &self.oracle, synthesis, None);
        } else if let Some(stats) = outcome.stats() {
            transfer_record.attempted |= stats.warm_start_attempted;
            transfer_record.verified |= stats.warm_start_verified;
        }
        if let Some(stats) = outcome.stats() {
            search_span.attr("strategy", stats.strategy);
            afg_obs::counter!("afg_sat_conflicts_total", "SAT conflicts across searches")
                .add(stats.sat_conflicts);
            afg_obs::counter!(
                "afg_sat_propagations_total",
                "SAT unit propagations across searches"
            )
            .add(stats.sat_propagations);
            afg_obs::counter!(
                "afg_sat_learnts_total",
                "SAT clauses learnt across searches"
            )
            .add(stats.sat_learnts);
        }
        drop(search_span);
        match outcome {
            SynthesisOutcome::AlreadyCorrect => TracedGrade {
                transfer: transfer_record,
                ..TracedGrade::cacheable(GradeOutcome::Correct)
            },
            SynthesisOutcome::Fixed(solution) => {
                let corrections =
                    corrections_from_assignment(&choice_program, &solution.assignment);
                // A proven-minimal repair is a deterministic verdict; a
                // best-so-far repair is only cacheable when the search
                // stopped on its candidate budget — if the wall clock cut
                // it short, an idle machine could find a cheaper repair,
                // and caching would pin this cost onto all alpha-equivalent
                // resubmissions.
                let cacheable = solution.minimal || !solution.stats.wall_clock_limited;
                let trace = RepairTrace {
                    signature,
                    assignment: solution.assignment,
                    counterexamples: solution.counterexamples,
                    stats: solution.stats.clone(),
                };
                TracedGrade {
                    outcome: GradeOutcome::Feedback(Feedback {
                        corrections,
                        cost: solution.cost,
                        elapsed: start.elapsed(),
                        stats: solution.stats,
                    }),
                    repair: Some(trace),
                    cacheable,
                    guard: None,
                    transfer: transfer_record,
                }
            }
            // A no-repair or timeout verdict is only a *property of the
            // submission* when the search exhausted its candidate budget
            // (or proved Unsat) — that replays identically anywhere.  A
            // wall-clock stop depends on machine load: caching it would pin
            // a transient verdict onto every future alpha-equivalent
            // submission.  The strategies record which one happened.
            SynthesisOutcome::NoRepairFound(stats) => TracedGrade {
                outcome: GradeOutcome::CannotFix,
                repair: None,
                cacheable: !stats.wall_clock_limited,
                guard: Some(signature),
                transfer: transfer_record,
            },
            SynthesisOutcome::Timeout(stats) => TracedGrade {
                outcome: GradeOutcome::Timeout,
                repair: None,
                cacheable: !stats.wall_clock_limited,
                guard: Some(signature),
                transfer: transfer_record,
            },
        }
    }
}

/// The result of [`Autograder::grade_program_traced`].
pub(crate) struct TracedGrade {
    pub outcome: GradeOutcome,
    /// The replayable repair, for `Feedback` outcomes.
    pub repair: Option<RepairTrace>,
    /// Whether the verdict may be stored in the fingerprint cache.
    pub cacheable: bool,
    /// Structural guard for cached `CannotFix`/`Timeout` verdicts: the
    /// signature of the choice program searched.  These verdicts depend
    /// on that program, and error models with hardcoded teacher names make
    /// choice programs alpha-variant, so replay onto another submission
    /// must confirm the structure matches (`None` = the verdict is
    /// structure-independent, e.g. a missing entry function).
    pub guard: Option<u64>,
    /// What happened to the offered cluster warm start, if any.
    pub transfer: TransferRecord,
}

/// Whether a transferred cluster hypothesis was tried / verified during
/// one grading run (for [`crate::ClusterIndex`]'s counters).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransferRecord {
    /// The search actually spent a verification sweep on the hypothesis.
    pub attempted: bool,
    /// The hypothesis verified and warm-started the descent.
    pub verified: bool,
}

impl TracedGrade {
    fn cacheable(outcome: GradeOutcome) -> TracedGrade {
        TracedGrade {
            outcome,
            repair: None,
            cacheable: true,
            guard: None,
            transfer: TransferRecord::default(),
        }
    }
}

/// The replayable part of a synthesis result (see
/// [`Autograder::grade_program_traced`]).
#[derive(Debug, Clone)]
pub(crate) struct RepairTrace {
    /// The minimal-cost selection of correction options.
    pub assignment: afg_eml::ChoiceAssignment,
    /// Structural signature of the choice program the assignment indexes
    /// into (rule names and option counts; alpha-invariant).
    pub signature: u64,
    /// The counterexample input indices the search accumulated, stored by
    /// the cluster index to pre-seed cluster-mates' warm starts.
    pub counterexamples: Vec<usize>,
    /// Synthesizer counters from the original run.
    pub stats: afg_synth::SynthesisStats,
}

/// Hashes everything that can change a verdict into a 64-bit fingerprint
/// (see [`Autograder::config_fingerprint`]): the canonical reference
/// source and entry name (they define the oracle), the full grading
/// configuration via its `Debug` rendering — equivalence/input-space
/// settings, budget, backend; a later field addition cannot
/// silently fall out of the key — and the error model's rule content.
fn fingerprint_configuration(
    reference: &Program,
    entry: &str,
    config: &GraderConfig,
    model: &ErrorModel,
) -> u64 {
    let description = format!(
        "{}\u{1f}{entry}\u{1f}{config:?}\u{1f}{model:?}",
        afg_ast::canon::canonical_source(reference)
    );
    fnv1a64(description.as_bytes())
}

/// Construction-time validation of the instructor's reference program.
fn validate_reference(reference: &Program, entry: &str) -> Result<(), GraderError> {
    let Some(func) = reference.funcs.iter().rev().find(|f| f.name == entry) else {
        return Err(GraderError::MissingEntry {
            entry: entry.to_string(),
        });
    };
    for param in &func.params {
        if param.ty == afg_ast::types::MpyType::Dynamic {
            return Err(GraderError::UntypedParam {
                entry: entry.to_string(),
                param: param.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            GraderConfig::fast(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_unparsable_reference() {
        let err = Autograder::new("def f(:\n", "f", ErrorModel::new("m"), GraderConfig::fast())
            .unwrap_err();
        assert!(matches!(err, GraderError::ReferenceSyntax(_)));
        assert!(err.to_string().contains("reference implementation"));
    }

    #[test]
    fn rejects_reference_without_the_entry_function() {
        let err = Autograder::new(
            "def helper(x_int):\n    return x_int\n",
            "computeDeriv",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraderError::MissingEntry {
                entry: "computeDeriv".to_string()
            }
        );
        assert!(
            err.to_string().contains("no function named 'computeDeriv'"),
            "{err}"
        );
    }

    #[test]
    fn rejects_reference_with_untyped_parameters() {
        let err = Autograder::new(
            "def f(poly):\n    return poly\n",
            "f",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraderError::UntypedParam {
                entry: "f".to_string(),
                param: "poly".to_string()
            }
        );
        let rendered = err.to_string();
        assert!(rendered.contains("parameter 'poly' of 'f'"), "{rendered}");
        assert!(rendered.contains("poly_int"), "{rendered}");

        // A mix of typed and untyped parameters names the untyped one.
        let err = Autograder::new(
            "def f(n_int, acc):\n    return acc\n",
            "f",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert!(matches!(err, GraderError::UntypedParam { param, .. } if param == "acc"));
    }

    #[test]
    fn classifies_syntax_errors() {
        let outcome = grader().grade_source("def computeDeriv(poly)\n    return poly\n");
        assert!(matches!(outcome, GradeOutcome::SyntaxError(_)));
    }

    #[test]
    fn classifies_correct_submissions() {
        let outcome = grader().grade_source(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n",
        );
        assert_eq!(outcome, GradeOutcome::Correct);
    }

    #[test]
    fn produces_feedback_for_off_by_one_iteration() {
        let outcome = grader().grade_source(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n",
        );
        let feedback = outcome.feedback().expect("expected feedback");
        // Several single-correction repairs exist (start the range at 1, or
        // drop the leading element of the result); the minimiser must find
        // one of them, i.e. exactly one correction.
        assert_eq!(feedback.cost, 1);
        assert_eq!(feedback.corrections.len(), 1);
        let rendered = feedback.to_string();
        assert!(
            rendered.contains("The program requires 1 change:"),
            "{rendered}"
        );
        assert!(rendered.contains("in line"), "{rendered}");
    }

    const OFF_BY_ONE: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";

    #[test]
    fn backend_budget_and_model_change_the_config_fingerprint() {
        let base = grader();
        let mut enum_config = GraderConfig::fast();
        enum_config.backend = Backend::Enumerative;
        let enumerative = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            enum_config,
        )
        .unwrap();
        let mut budget_config = GraderConfig::fast();
        budget_config.synthesis.max_candidates += 1;
        let budget = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            budget_config,
        )
        .unwrap();

        assert_eq!(base.config_fingerprint(), grader().config_fingerprint());
        assert_ne!(base.config_fingerprint(), enumerative.config_fingerprint());
        assert_ne!(base.config_fingerprint(), budget.config_fingerprint());
        assert_ne!(
            enumerative.config_fingerprint(),
            budget.config_fingerprint()
        );

        // The equivalence configuration changes verdicts (it defines the
        // bounded input space), so it must change the fingerprint too.
        let mut equiv_config = GraderConfig::fast();
        equiv_config.equivalence.limits.fuel += 1;
        let equiv = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            equiv_config,
        )
        .unwrap();
        assert_ne!(base.config_fingerprint(), equiv.config_fingerprint());

        // So does the error model's *content*, not just its name: swapping
        // the model via set_model refreshes the memoized fingerprint.
        let mut swapped = grader();
        let before = swapped.config_fingerprint();
        swapped.set_model(library::compute_deriv_model().truncated(1));
        assert_ne!(before, swapped.config_fingerprint());
    }

    #[test]
    fn enum_backend_grades_like_cegis() {
        let mut config = GraderConfig::fast();
        config.backend = Backend::Enumerative;
        let enumerative = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap();
        let outcome = enumerative.grade_source(OFF_BY_ONE);
        let feedback = outcome.feedback().expect("feedback");
        let cegis = grader().grade_source(OFF_BY_ONE);
        assert_eq!(feedback.cost, cegis.feedback().expect("feedback").cost);
        assert_eq!(feedback.cost, 1);
        assert_eq!(feedback.stats.strategy, "enum");
    }

    #[test]
    fn graders_share_an_oracle_only_with_an_equal_reference_entry_and_space() {
        // Two typed functions, so the same reference can have two entries.
        let source = format!(
            "{REFERENCE}def derivative(poly_list_int):\n    return computeDeriv(poly_list_int)\n"
        );
        let reference = Autograder::parse_reference(&source).unwrap();
        let model = library::compute_deriv_model();
        let cold = Autograder::from_program(
            reference.clone(),
            "computeDeriv",
            model.clone(),
            GraderConfig::fast(),
        )
        .unwrap();
        let share = |entry: &str, config: GraderConfig| {
            Autograder::sharing(
                reference.clone(),
                entry,
                model.truncated(2),
                config,
                [&cold],
            )
        };

        // A different model and budget still share: neither shapes the oracle.
        let mut budget = GraderConfig::fast();
        budget.synthesis.max_candidates = 100;
        let sharer = share("computeDeriv", budget).unwrap();
        assert!(Arc::ptr_eq(&sharer.oracle, &cold.oracle));
        assert_ne!(sharer.config_fingerprint(), cold.config_fingerprint());

        // A different entry or input space does not.
        let other_entry = share("derivative", GraderConfig::fast()).unwrap();
        assert!(!Arc::ptr_eq(&other_entry.oracle, &cold.oracle));
        let mut space = GraderConfig::fast();
        space.equivalence.space.max_seq_len -= 1;
        let other_space = share("computeDeriv", space).unwrap();
        assert!(!Arc::ptr_eq(&other_space.oracle, &cold.oracle));
        assert_ne!(other_space.oracle().inputs(), cold.oracle().inputs());

        // Validation still runs when a donor matches.
        assert!(matches!(
            share("missing", GraderConfig::fast()),
            Err(GraderError::MissingEntry { .. })
        ));
    }

    /// A `computeDeriv` submission whose 3-line loop is repeated `loops`
    /// times: 8 choice sites per loop under the compDeriv model.
    fn repeated_loops(loops: usize) -> String {
        let body = "    for i in range(1, len(poly)):\n        if poly[i] != 0:\n            d.append(i * poly[i])\n";
        format!(
            "def computeDeriv(poly):\n    d = []\n{}    return d\n",
            body.repeat(loops)
        )
    }

    #[test]
    fn oversized_choice_programs_time_out_without_an_encoding() {
        let student = parse_program(&repeated_loops(200)).unwrap();
        let model = library::compute_deriv_model();
        let choice = apply_error_model(&student, Some("computeDeriv"), &model).unwrap();
        assert_eq!(choice.num_choices(), 1_602);

        let before = afg_synth::instrument::encodings_created();
        for backend in Backend::ALL {
            let config = GraderConfig {
                backend,
                ..GraderConfig::fast()
            };
            let grader = Autograder::new(REFERENCE, "computeDeriv", model.clone(), config).unwrap();
            let traced = grader.grade_program_traced(&student);
            assert_eq!(traced.outcome, GradeOutcome::Timeout, "{backend:?}");
            // Cached like a candidate-budget timeout, guarded by structure.
            assert!(traced.cacheable, "{backend:?}");
            assert!(traced.guard.is_some(), "{backend:?}");
        }
        assert_eq!(afg_synth::instrument::encodings_created(), before);
    }

    #[test]
    fn unfixable_submissions_are_reported() {
        let outcome = grader().grade_source("def computeDeriv(poly):\n    return 42\n");
        assert!(matches!(
            outcome,
            GradeOutcome::CannotFix | GradeOutcome::Timeout
        ));
        // A program with no function at all cannot be graded either.
        let outcome = grader().grade_source("x = 1\n");
        assert!(matches!(
            outcome,
            GradeOutcome::SyntaxError(_) | GradeOutcome::CannotFix
        ));
    }
}
