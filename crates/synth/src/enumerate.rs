//! Enumerative branch-and-bound back end.
//!
//! The paper contrasts its symbolic search with brute-force enumeration
//! (§7.4: "[3] uses brute-force search").  This back end explores candidate
//! assignments in order of increasing cost (number of corrections), using
//! the accumulated counterexamples as a cheap filter before each full
//! verification — so the first equivalent candidate it finds is minimal.
//! It serves as the ablation baseline for the SAT-backed CEGIS solver and as
//! an independent check that both agree on minimal costs.

use std::time::Instant;

use afg_eml::{ChoiceAssignment, ChoiceProgram};
use afg_interp::{ChoiceSession, EquivalenceOracle};

use crate::bitset::IndexBitset;
use crate::config::{Solution, SynthesisConfig, SynthesisOutcome, SynthesisStats, WarmStart};
use crate::strategy::SearchStrategy;

/// Copies the session's verification-work counters into the final report
/// and attaches the verification share to the current trace (if any).
fn harvest_sweeps(stats: &mut SynthesisStats, session: &ChoiceSession) {
    let sweep = session.sweep_stats();
    stats.sweeps = sweep.sweeps;
    stats.sweep_inputs = sweep.inputs_run;
    stats.sweep_cache_hits = sweep.cache_hits;
    stats.sweep_cache_nodes = sweep.cache_nodes;
    afg_obs::record_span("verify", stats.verify_elapsed);
}

/// The enumerative synthesizer.
#[derive(Debug, Clone, Default)]
pub struct EnumerativeSolver;

impl EnumerativeSolver {
    /// Creates a solver.
    pub fn new() -> EnumerativeSolver {
        EnumerativeSolver
    }
}

impl SearchStrategy for EnumerativeSolver {
    fn name(&self) -> &'static str {
        "enum"
    }

    /// Searches candidates in order of increasing correction count.  A
    /// warm-start hint is ignored: cost order already makes the first
    /// accepted candidate minimal.
    fn synthesize_with_hint(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
        _warm: Option<&WarmStart>,
    ) -> SynthesisOutcome {
        let start = Instant::now();
        let mut stats = SynthesisStats {
            strategy: self.name(),
            ..SynthesisStats::default()
        };
        let session = oracle.choice_session(program);

        stats.candidates_checked += 1;
        let verify_start = Instant::now();
        let first_cex = session.find_counterexample(&ChoiceAssignment::default_choices(), &[]);
        stats.verify_elapsed += verify_start.elapsed();
        let first_cex = match first_cex {
            None => return SynthesisOutcome::AlreadyCorrect,
            Some(cex) => cex,
        };
        let mut counterexamples = vec![first_cex];
        let mut seen_counterexamples = IndexBitset::default();
        seen_counterexamples.insert(first_cex);
        stats.counterexamples = 1;

        // Per-site option counts in a stable order.
        let sites: Vec<(afg_eml::ChoiceId, usize)> = program
            .choices
            .iter()
            .map(|info| (info.id, info.options.len()))
            .collect();

        for cost in 1..=config.max_cost.min(sites.len()) {
            let mut combination = (0..cost).collect::<Vec<usize>>();
            loop {
                if start.elapsed() > config.time_budget {
                    stats.wall_clock_limited = true;
                    harvest_sweeps(&mut stats, &session);
                    stats.elapsed = start.elapsed();
                    return SynthesisOutcome::Timeout(stats);
                }
                if stats.candidates_checked > config.max_candidates {
                    harvest_sweeps(&mut stats, &session);
                    stats.elapsed = start.elapsed();
                    return SynthesisOutcome::Timeout(stats);
                }
                // Enumerate option selections for the chosen combination of
                // sites (each site picks one of its non-default options).
                let mut selection = vec![1usize; cost];
                'options: loop {
                    let mut assignment = ChoiceAssignment::default_choices();
                    for (slot, &site_index) in combination.iter().enumerate() {
                        assignment.select(sites[site_index].0, selection[slot]);
                    }
                    stats.candidates_checked += 1;
                    stats.cegis_iterations += 1;

                    // Zero-materialisation check: accumulated counterexamples
                    // first, then the rest of the bounded space.
                    let verify_start = Instant::now();
                    let verdict = session.find_counterexample(&assignment, &counterexamples);
                    stats.verify_elapsed += verify_start.elapsed();
                    match verdict {
                        None => {
                            harvest_sweeps(&mut stats, &session);
                            stats.elapsed = start.elapsed();
                            return SynthesisOutcome::Fixed(Solution {
                                assignment,
                                cost,
                                // Cost-ordered exploration: the first
                                // accepted candidate is provably minimal.
                                minimal: true,
                                counterexamples,
                                stats,
                            });
                        }
                        Some(cex) => {
                            if seen_counterexamples.insert(cex) {
                                counterexamples.push(cex);
                                stats.counterexamples += 1;
                            }
                        }
                    }
                    if start.elapsed() > config.time_budget {
                        stats.wall_clock_limited = true;
                        harvest_sweeps(&mut stats, &session);
                        stats.elapsed = start.elapsed();
                        return SynthesisOutcome::Timeout(stats);
                    }
                    if stats.candidates_checked > config.max_candidates {
                        harvest_sweeps(&mut stats, &session);
                        stats.elapsed = start.elapsed();
                        return SynthesisOutcome::Timeout(stats);
                    }

                    // Advance the per-site option counters (mixed-radix).
                    for slot in (0..cost).rev() {
                        let max_option = sites[combination[slot]].1 - 1;
                        if selection[slot] < max_option {
                            selection[slot] += 1;
                            for later in selection.iter_mut().skip(slot + 1) {
                                *later = 1;
                            }
                            continue 'options;
                        }
                    }
                    break;
                }

                // Advance to the next combination of `cost` sites.
                if !next_combination(&mut combination, sites.len()) {
                    break;
                }
            }
        }

        harvest_sweeps(&mut stats, &session);
        stats.elapsed = start.elapsed();
        SynthesisOutcome::NoRepairFound(stats)
    }
}

/// Advances `combination` (sorted indices into `0..n`) to the next
/// lexicographic combination; returns `false` when exhausted.
fn next_combination(combination: &mut [usize], n: usize) -> bool {
    let k = combination.len();
    if k == 0 || k > n {
        return false;
    }
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combination[i] < n - (k - i) {
            combination[i] += 1;
            for j in i + 1..k {
                combination[j] = combination[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cegis::CegisSolver;
    use afg_eml::{apply_error_model, library};
    use afg_interp::{EquivalenceConfig, EquivalenceOracle};
    use afg_parser::parse_program;

    #[test]
    fn next_combination_enumerates_n_choose_k() {
        let mut combo = vec![0, 1];
        let mut count = 1;
        while next_combination(&mut combo, 4) {
            count += 1;
        }
        assert_eq!(count, 6); // C(4, 2)
        assert!(!next_combination(&mut [], 3));
        assert!(!next_combination(&mut [0, 1, 2, 3], 3));
    }

    const REFERENCE: &str = "\
def iterPower(base_int, exp_int):
    result = 1
    for i in range(exp_int):
        result *= base_int
    return result
";

    fn oracle() -> EquivalenceOracle {
        let reference = parse_program(REFERENCE).unwrap();
        EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some("iterPower".into()),
                ..EquivalenceConfig::default()
            },
        )
    }

    #[test]
    fn enumerative_and_cegis_agree_on_minimal_cost() {
        // Student initialises the accumulator to 0 instead of 1.
        let student = parse_program(
            "def iterPower(base, exp):\n    result = 0\n    for i in range(exp):\n        result *= base\n    return result\n",
        )
        .unwrap();
        let model = afg_eml::ErrorModel::new("iterPower")
            .with_rule(library::initr())
            .with_rule(library::ranr1());
        let cp = apply_error_model(&student, Some("iterPower"), &model).unwrap();
        let oracle = oracle();
        let config = SynthesisConfig::fast();

        let enum_outcome = EnumerativeSolver::new().synthesize(&cp, &oracle, &config);
        let cegis_outcome = CegisSolver::new().synthesize(&cp, &oracle, &config);
        let enum_cost = enum_outcome
            .solution()
            .expect("enumerative finds a fix")
            .cost;
        let cegis_cost = cegis_outcome.solution().expect("cegis finds a fix").cost;
        assert_eq!(enum_cost, 1);
        assert_eq!(cegis_cost, 1);
    }

    #[test]
    fn already_correct_submission_short_circuits() {
        let student = parse_program(
            "def iterPower(base, exp):\n    result = 1\n    for i in range(exp):\n        result = result * base\n    return result\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("iterPower"),
            &afg_eml::ErrorModel::new("empty"),
        )
        .unwrap();
        let outcome = EnumerativeSolver::new().synthesize(&cp, &oracle(), &SynthesisConfig::fast());
        assert_eq!(outcome, SynthesisOutcome::AlreadyCorrect);
    }
}
