//! The [`SearchStrategy`] abstraction.
//!
//! Both synthesis back ends — SAT-backed CEGIS and enumerative
//! branch-and-bound — implement one trait, so the grading pipeline, the
//! service and the experiment harness select a search engine by value
//! instead of hard-coding entry points.  A search stops on its candidate
//! budget or its wall-clock budget, whichever comes first; nothing else
//! interrupts it.

use afg_eml::ChoiceProgram;
use afg_interp::EquivalenceOracle;

use crate::config::{SynthesisConfig, SynthesisOutcome, WarmStart};

/// A synthesis back end: searches the choice space of `program` for a
/// minimal-cost assignment accepted by the equivalence oracle.
pub trait SearchStrategy {
    /// Short stable identifier (`"cegis"`, `"enum"`), reported in
    /// [`crate::SynthesisStats::strategy`].
    fn name(&self) -> &'static str;

    /// Runs the search with an optional transferred [`WarmStart`]
    /// hypothesis from a cluster representative.  Strategies that can
    /// exploit it (CEGIS starts its minimisation descent at the verified
    /// hypothesis cost) do; others ignore it.  Either way the outcome must
    /// stay cost-identical to the hint-free search.
    fn synthesize_with_hint(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
        warm: Option<&WarmStart>,
    ) -> SynthesisOutcome;

    /// Runs the search without a hint.
    fn synthesize(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
    ) -> SynthesisOutcome {
        self.synthesize_with_hint(program, oracle, config, None)
    }
}
