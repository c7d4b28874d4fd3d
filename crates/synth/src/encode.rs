//! SAT encoding of the choice space.
//!
//! Every choice site of the M̃PY program gets one boolean *selector* variable
//! per non-default option (the paper's translation gives each expression
//! choice a SKETCH hole plus a boolean `choice_k` variable, §2.3).  The
//! encoding enforces at most one selected option per site; a site with no
//! selected option takes its default.  `totalCost` is the number of selector
//! variables set to true.  The cost bound is **not** baked into the clause
//! database: a [`afg_sat::Totalizer`] built once over the selectors exposes
//! one output literal per possible count, and CEGISMIN activates
//! `totalCost ≤ k` by passing the negated `k+1`-th output as an
//! *assumption* to each solve call — the whole minimisation descent then
//! runs on a single solver instance with all learnt clauses intact.

use std::collections::BTreeMap;

use afg_eml::{ChoiceAssignment, ChoiceId, ChoiceProgram};
use afg_sat::{add_at_most, Lit, Model, Solver, Totalizer, Var};

/// Per-thread instrumentation of encoding constructions.
///
/// The incremental-CEGISMIN acceptance criterion is "exactly one
/// [`ChoiceEncoding::new`] per synthesize call"; a thread-local counter
/// makes that checkable from a unit test without false positives from
/// concurrently running tests.
pub mod instrument {
    use std::cell::Cell;

    thread_local! {
        static ENCODINGS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record_encoding() {
        ENCODINGS.with(|count| count.set(count.get() + 1));
    }

    /// Number of [`super::ChoiceEncoding`] values constructed on this
    /// thread since it started.
    pub fn encodings_created() -> u64 {
        ENCODINGS.with(Cell::get)
    }
}

/// The selector variables for one synthesis run.
#[derive(Debug, Clone)]
pub struct ChoiceEncoding {
    /// For every choice site, the selector variable of each non-default
    /// option (`selectors[id][j]` selects option `j + 1`).
    selectors: BTreeMap<ChoiceId, Vec<Var>>,
    /// Unary counter over all selector literals; drives the assumption-based
    /// cost bounds.
    totalizer: Totalizer,
}

impl ChoiceEncoding {
    /// Creates selector variables, at-most-one constraints for every choice
    /// site, and the totalizer counting the total cost.
    ///
    /// The totalizer is built at full width: real choice programs have
    /// tens of selectors, so the O(n²) merge is ~1–2k clauses.  A
    /// bound-pruned totalizer (each node keeping only the counts below the
    /// largest queried bound) was measured and rejected: it perturbs the
    /// solver's model-enumeration order enough to cost more candidate
    /// verifications than the clause savings buy.  Revisit if error models
    /// ever grow to hundreds of selectors.
    pub fn new(solver: &mut Solver, program: &ChoiceProgram) -> ChoiceEncoding {
        instrument::record_encoding();
        let mut selectors = BTreeMap::new();
        for info in &program.choices {
            let non_default_options = info.options.len().saturating_sub(1);
            let vars = solver.new_vars(non_default_options);
            if vars.len() > 1 {
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                // At most one option per site (selecting none = default).
                add_at_most(solver, &lits, 1);
            }
            selectors.insert(info.id, vars);
        }
        let all_lits: Vec<Lit> = selectors
            .values()
            .flat_map(|vars| vars.iter().map(|v| v.positive()))
            .collect();
        let totalizer = Totalizer::new(solver, &all_lits);
        ChoiceEncoding {
            selectors,
            totalizer,
        }
    }

    /// All selector literals, used for the global cost bound.
    pub fn all_selector_lits(&self) -> Vec<Lit> {
        self.selectors
            .values()
            .flat_map(|vars| vars.iter().map(|v| v.positive()))
            .collect()
    }

    /// Total number of choice sites encoded.
    pub fn num_sites(&self) -> usize {
        self.selectors.len()
    }

    /// The assumptions activating `totalCost ≤ bound` for one solve call
    /// (the CEGISMIN refinement step enforces `totalCost < best` by passing
    /// `best - 1`).  Empty when the bound is vacuous.  Nothing is added to
    /// the solver: tightening the bound on the next call is free and every
    /// learnt clause remains valid.
    pub fn cost_bound_assumptions(&self, bound: usize) -> Vec<Lit> {
        self.totalizer.at_most(bound).into_iter().collect()
    }

    /// Decodes a SAT model into a choice assignment.
    pub fn decode(&self, model: &Model) -> ChoiceAssignment {
        let mut assignment = ChoiceAssignment::default_choices();
        for (&id, vars) in &self.selectors {
            for (j, var) in vars.iter().enumerate() {
                if model.value(*var) {
                    assignment.select(id, j + 1);
                    break;
                }
            }
        }
        assignment
    }

    /// Adds a clause excluding exactly this assignment (the CEGIS blocking
    /// clause added after a candidate fails a counterexample).
    pub fn block_assignment(&self, solver: &mut Solver, assignment: &ChoiceAssignment) -> bool {
        let mut clause: Vec<Lit> = Vec::new();
        for (&id, vars) in &self.selectors {
            let selected = assignment.selected(id);
            if selected == 0 {
                // The candidate kept the default here; a different candidate
                // must select *something* at this site...
                clause.extend(vars.iter().map(|v| v.positive()));
            } else {
                // ...or deselect the option chosen here.
                if let Some(var) = vars.get(selected - 1) {
                    clause.push(var.negative());
                }
            }
        }
        solver.add_clause(&clause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_eml::{CFuncDef, ChoiceInfo};
    use afg_sat::SatResult;

    fn toy_program(option_counts: &[usize]) -> ChoiceProgram {
        ChoiceProgram {
            func: CFuncDef {
                name: "f".into(),
                params: vec![],
                body: vec![],
                line: 1,
            },
            other_funcs: vec![],
            choices: option_counts
                .iter()
                .enumerate()
                .map(|(i, &n)| ChoiceInfo {
                    id: ChoiceId(i as u32),
                    line: 1,
                    rule: "R".into(),
                    original: "x".into(),
                    options: (0..n).map(|j| format!("opt{j}")).collect(),
                    message: None,
                })
                .collect(),
        }
    }

    #[test]
    fn encoding_allocates_one_var_per_non_default_option() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 2, 4]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        assert_eq!(encoding.num_sites(), 3);
        assert_eq!(encoding.all_selector_lits().len(), 2 + 1 + 3);
    }

    #[test]
    fn decode_respects_at_most_one_per_site() {
        let mut solver = Solver::new();
        let program = toy_program(&[4, 3]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        // Force some selection at site 0 to make the model interesting.
        let lits = encoding.all_selector_lits();
        solver.add_clause(&lits[0..3]);
        match solver.solve() {
            SatResult::Sat(model) => {
                let assignment = encoding.decode(&model);
                assert!(assignment.selected(ChoiceId(0)) >= 1);
                assert!(assignment.selected(ChoiceId(0)) <= 3);
                assert!(assignment.cost() >= 1);
            }
            SatResult::Unsat => panic!("toy encoding must be satisfiable"),
        }
    }

    #[test]
    fn cost_bound_zero_forces_the_default_program() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 3]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let assumptions = encoding.cost_bound_assumptions(0);
        assert_eq!(assumptions.len(), 1);
        match solver.solve_under_assumptions(&assumptions) {
            SatResult::Sat(model) => assert_eq!(encoding.decode(&model).cost(), 0),
            SatResult::Unsat => panic!("all-default must satisfy a zero cost bound"),
        }
        // The bound was an assumption: the same solver can still select.
        let lits = encoding.all_selector_lits();
        assert!(solver.add_clause(&lits[0..1]));
        match solver.solve() {
            SatResult::Sat(model) => assert!(encoding.decode(&model).cost() >= 1),
            SatResult::Unsat => panic!("unbounded solve must succeed"),
        }
    }

    #[test]
    fn tightening_bounds_by_assumption_reaches_unsat() {
        // Force a selection at both sites; bounds 2, 1, 0 then descend to
        // Unsat on one solver, the CEGISMIN shape.
        let mut solver = Solver::new();
        let program = toy_program(&[2, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let lits = encoding.all_selector_lits();
        for lit in &lits {
            assert!(solver.add_clause(&[*lit]));
        }
        assert!(solver
            .solve_under_assumptions(&encoding.cost_bound_assumptions(2))
            .is_sat());
        assert_eq!(
            solver.solve_under_assumptions(&encoding.cost_bound_assumptions(1)),
            SatResult::Unsat
        );
        assert_eq!(
            solver.solve_under_assumptions(&encoding.cost_bound_assumptions(0)),
            SatResult::Unsat
        );
        // Vacuous bound: no assumptions, still satisfiable.
        assert!(encoding.cost_bound_assumptions(2).len() <= 1);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn instrument_counts_encodings_per_thread() {
        let before = instrument::encodings_created();
        let mut solver = Solver::new();
        let _ = ChoiceEncoding::new(&mut solver, &toy_program(&[2]));
        let _ = ChoiceEncoding::new(&mut solver, &toy_program(&[3]));
        assert_eq!(instrument::encodings_created() - before, 2);
    }

    #[test]
    fn blocking_excludes_the_exact_assignment() {
        let mut solver = Solver::new();
        let program = toy_program(&[2, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        // Enumerate all models, blocking each; the space has 2*2 = 4
        // assignments (each site: default or its single alternative).
        let mut seen = Vec::new();
        loop {
            match solver.solve() {
                SatResult::Unsat => break,
                SatResult::Sat(model) => {
                    let assignment = encoding.decode(&model);
                    assert!(
                        !seen.contains(&assignment),
                        "assignment repeated: {assignment:?}"
                    );
                    seen.push(assignment.clone());
                    assert!(seen.len() <= 4);
                    encoding.block_assignment(&mut solver, &assignment);
                }
            }
        }
        assert_eq!(seen.len(), 4);
    }
}
