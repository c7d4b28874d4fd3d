//! Cardinality constraints: a sequential-counter encoding for one-shot
//! bounds and an incremental **totalizer** for assumption-activated bounds.
//!
//! CEGISMIN repeatedly tightens the bound "total number of corrections
//! `< k`" (paper Algorithm 1, line 13).  The synthesis encoding expresses
//! the total cost as the number of true choice-selector variables, so the
//! bound is an *at-most-(k−1)* cardinality constraint.  Two encodings are
//! provided:
//!
//! * [`add_at_most`]/[`add_at_least`] — the sequential counter (Sinz 2005),
//!   used where a bound is part of the formula itself (e.g. at-most-one
//!   constraints); small, propagates well, easy to audit.
//! * [`Totalizer`] (Bailleux & Boufkhad 2003) — built **once** per
//!   encoding, it exposes one output literal per possible count; the bound
//!   `≤ k` is then activated per solve call by *assuming* the negation of
//!   the `k+1`-th output ([`Totalizer::at_most`]) instead of adding hard
//!   clauses.  This is what lets the CEGISMIN minimisation descent tighten
//!   its bound on a single solver instance while keeping every learnt
//!   clause.

use crate::literal::Lit;
use crate::solver::Solver;

/// An incremental cardinality structure over a fixed set of input literals.
///
/// The totalizer is a balanced tree of unary counters: for `n` inputs it
/// defines output literals `o_1 … o_n` with clauses entailing
/// "at least `j` inputs are true → `o_j`".  Assuming `¬o_{k+1}` therefore
/// forbids more than `k` true inputs, and dropping the assumption on the
/// next solve relaxes the bound without touching the clause database.
#[derive(Debug, Clone)]
pub struct Totalizer {
    /// `outputs[j]` is entailed whenever at least `j + 1` inputs are true
    /// (one output per input literal).
    outputs: Vec<Lit>,
}

impl Totalizer {
    /// Builds the totalizer tree over `lits` (every count representable),
    /// adding its O(n²) merge clauses to the solver.
    pub fn new(solver: &mut Solver, lits: &[Lit]) -> Totalizer {
        Totalizer {
            outputs: build_tree(solver, lits),
        }
    }

    /// Number of input literals counted.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the totalizer counts no literals at all.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The output literals, in count order (`outputs()[j]` ⇔ count > `j`).
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// The assumption literal activating "at most `bound` inputs true", or
    /// `None` when the bound is vacuous (`bound ≥ n`).
    pub fn at_most(&self, bound: usize) -> Option<Lit> {
        self.outputs.get(bound).map(|output| output.negated())
    }
}

/// Recursively builds the totalizer tree and returns the output literals
/// of the root node.
fn build_tree(solver: &mut Solver, lits: &[Lit]) -> Vec<Lit> {
    match lits {
        [] => Vec::new(),
        // A leaf counts itself.
        [single] => vec![*single],
        _ => {
            let (left_half, right_half) = lits.split_at(lits.len() / 2);
            let left = build_tree(solver, left_half);
            let right = build_tree(solver, right_half);
            let width = left.len() + right.len();
            let outputs: Vec<Lit> = solver
                .new_vars(width)
                .iter()
                .map(|v| v.positive())
                .collect();
            // Merge clauses: left ≥ α ∧ right ≥ β → out ≥ α + β, i.e.
            // ¬L_α ∨ ¬R_β ∨ O_{α+β} (with the L/R part omitted when the
            // respective count is zero).
            for alpha in 0..=left.len() {
                for beta in 0..=right.len() {
                    if alpha + beta == 0 {
                        continue;
                    }
                    let mut clause = Vec::with_capacity(3);
                    if alpha > 0 {
                        clause.push(left[alpha - 1].negated());
                    }
                    if beta > 0 {
                        clause.push(right[beta - 1].negated());
                    }
                    clause.push(outputs[alpha + beta - 1]);
                    solver.add_clause(&clause);
                }
            }
            outputs
        }
    }
}

/// Adds clauses enforcing "at most `bound` of `lits` are true".
///
/// Uses the sequential-counter encoding with `lits.len() * bound` auxiliary
/// variables.  A `bound` of zero forces every literal false; a bound no
/// smaller than `lits.len()` adds nothing.
///
/// Returns `false` if the solver became unsatisfiable while adding clauses.
pub fn add_at_most(solver: &mut Solver, lits: &[Lit], bound: usize) -> bool {
    let n = lits.len();
    if bound >= n {
        return true;
    }
    if bound == 0 {
        for &lit in lits {
            if !solver.add_clause(&[lit.negated()]) {
                return false;
            }
        }
        return true;
    }

    // registers[i][j] ⇔ at least j+1 of lits[0..=i] are true.
    let mut registers: Vec<Vec<Lit>> = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<Lit> = (0..bound).map(|_| solver.new_var().positive()).collect();
        registers.push(row);
    }

    // First element: r[0][0] ⇔ lits[0]; higher counts impossible.
    if !solver.add_implication(lits[0], registers[0][0]) {
        return false;
    }
    for &register in registers[0].iter().skip(1) {
        if !solver.add_clause(&[register.negated()]) {
            return false;
        }
    }

    for i in 1..n {
        // Count carries over: r[i-1][j] → r[i][j].
        for (&prev, &cur) in registers[i - 1].iter().zip(&registers[i]) {
            if !solver.add_implication(prev, cur) {
                return false;
            }
        }
        // A true literal increments the count: lits[i] → r[i][0] and
        // lits[i] ∧ r[i-1][j-1] → r[i][j].
        if !solver.add_implication(lits[i], registers[i][0]) {
            return false;
        }
        for j in 1..bound {
            if !solver.add_clause(&[
                lits[i].negated(),
                registers[i - 1][j - 1].negated(),
                registers[i][j],
            ]) {
                return false;
            }
        }
        // Overflow is forbidden: lits[i] ∧ r[i-1][bound-1] → ⊥.
        if !solver.add_clause(&[lits[i].negated(), registers[i - 1][bound - 1].negated()]) {
            return false;
        }
    }
    true
}

/// Adds clauses enforcing "at least `bound` of `lits` are true", by the dual
/// at-most constraint on the negations.
///
/// Returns `false` if the solver became unsatisfiable while adding clauses.
pub fn add_at_least(solver: &mut Solver, lits: &[Lit], bound: usize) -> bool {
    if bound == 0 {
        return true;
    }
    if bound > lits.len() {
        // Impossible: force a contradiction.
        return solver.add_clause(&[]);
    }
    let negated: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
    add_at_most(solver, &negated, lits.len() - bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    fn count_true(model: &crate::literal::Model, lits: &[Lit]) -> usize {
        lits.iter().filter(|&&l| model.lit_is_true(l)).count()
    }

    #[test]
    fn at_most_bound_is_respected() {
        for bound in 0..=4 {
            let mut solver = Solver::new();
            let vars = solver.new_vars(4);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            assert!(add_at_most(&mut solver, &lits, bound));
            match solver.solve() {
                SatResult::Sat(model) => assert!(count_true(&model, &lits) <= bound),
                SatResult::Unsat => panic!("at-most-{bound} over 4 literals must be satisfiable"),
            }
        }
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        assert!(add_at_most(&mut solver, &lits, 0));
        let model = match solver.solve() {
            SatResult::Sat(m) => m,
            SatResult::Unsat => panic!("satisfiable"),
        };
        assert_eq!(count_true(&model, &lits), 0);
    }

    #[test]
    fn at_most_conflicts_with_forced_literals() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        for l in &lits {
            assert!(solver.add_clause(&[*l]));
        }
        add_at_most(&mut solver, &lits, 2);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_least_bound_is_respected() {
        for bound in 0..=3 {
            let mut solver = Solver::new();
            let vars = solver.new_vars(3);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            assert!(add_at_least(&mut solver, &lits, bound));
            match solver.solve() {
                SatResult::Sat(model) => assert!(count_true(&model, &lits) >= bound),
                SatResult::Unsat => panic!("at-least-{bound} over 3 literals must be satisfiable"),
            }
        }
    }

    #[test]
    fn at_least_more_than_available_is_unsat() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(2);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        add_at_least(&mut solver, &lits, 3);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn totalizer_bounds_hold_under_assumptions() {
        // One totalizer, every bound probed by assumption on the same
        // solver — no re-encoding between queries.
        let mut solver = Solver::new();
        let vars = solver.new_vars(5);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits);
        assert_eq!(totalizer.len(), 5);
        assert_eq!(totalizer.at_most(5), None, "bound ≥ n is vacuous");

        for bound in 0..5 {
            let assumptions: Vec<Lit> = totalizer.at_most(bound).into_iter().collect();
            match solver.solve_under_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    let count = count_true(&model, &lits);
                    assert!(count <= bound, "bound {bound} admitted {count}");
                }
                SatResult::Unsat => panic!("at-most-{bound} over free literals must be sat"),
            }
        }
        // The bounds were assumptions, not clauses: all-true is still a model.
        for lit in &lits {
            assert!(solver.add_clause(&[*lit]));
        }
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn totalizer_conflicts_name_the_bound_assumption() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(4);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits);
        // Force three inputs true; at-most-2 must then fail and the core
        // must blame the bound assumption.
        for lit in &lits[0..3] {
            assert!(solver.add_clause(&[*lit]));
        }
        let bound = totalizer.at_most(2).expect("non-vacuous bound");
        assert_eq!(solver.solve_under_assumptions(&[bound]), SatResult::Unsat);
        assert_eq!(solver.unsat_core(), &[bound]);
        // Relaxing to at-most-3 succeeds on the same solver.
        let relaxed: Vec<Lit> = totalizer.at_most(3).into_iter().collect();
        assert!(solver.solve_under_assumptions(&relaxed).is_sat());
    }

    #[test]
    fn totalizer_tightening_descends_like_cegismin() {
        // Mimics the minimisation descent: one encoding, bounds 3, 2, 1, 0
        // activated in turn, with a hard at-least-2 making bounds < 2 unsat.
        let mut solver = Solver::new();
        let vars = solver.new_vars(6);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits);
        assert!(add_at_least(&mut solver, &lits, 2));
        for bound in (0..=3usize).rev() {
            let assumptions: Vec<Lit> = totalizer.at_most(bound).into_iter().collect();
            let result = solver.solve_under_assumptions(&assumptions);
            if bound >= 2 {
                let model = result.model().expect("bound ≥ 2 is satisfiable");
                assert!(count_true(model, &lits) <= bound);
            } else {
                assert_eq!(result, SatResult::Unsat, "bound {bound}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_totalizers() {
        let mut solver = Solver::new();
        let empty = Totalizer::new(&mut solver, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.at_most(0), None);

        let var = solver.new_var();
        let single = Totalizer::new(&mut solver, &[var.positive()]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.at_most(0), Some(var.negative()));
        let result = solver.solve_under_assumptions(&[single.at_most(0).unwrap()]);
        assert!(!result.model().expect("sat").value(var));
    }

    #[test]
    fn combined_window_of_counts() {
        // Exactly 2 of 4 literals: at most 2 and at least 2.
        let mut solver = Solver::new();
        let vars = solver.new_vars(4);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        assert!(add_at_most(&mut solver, &lits, 2));
        assert!(add_at_least(&mut solver, &lits, 2));
        match solver.solve() {
            SatResult::Sat(model) => assert_eq!(count_true(&model, &lits), 2),
            SatResult::Unsat => panic!("exactly-2 of 4 must be satisfiable"),
        }
    }
}
