//! Property test of the solver's incremental interface against brute force.
//!
//! Random sessions over at most ten variables interleave `new_var`,
//! `add_clause` (duplicate, tautological, unit and empty clauses included)
//! and `solve_under_assumptions`.  Every answer is checked against an
//! exhaustive enumeration of assignments: models satisfy every clause added
//! and every assumption, each `Unsat` really has no model, each unsat core is
//! a subset of the assumptions that is unsatisfiable with the clauses, and a
//! final blocking-clause enumeration finds exactly the brute-force models.
//! After every step the solver's watch invariant is checked as well
//! ([`Solver::check_watches`]): a watcher whose blocker is not its clause's
//! other watched literal would otherwise show only as a changed search.

use afg_sat::{Lit, SatResult, Solver, Var};

/// Zero-dependency xorshift64 generator; the seed must be non-zero.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const MAX_VARS: usize = 10;

fn lit_true(assignment: u32, lit: Lit) -> bool {
    (assignment >> lit.var().index() & 1 == 1) == lit.is_positive()
}

/// The assignments of `num_vars` variables (bit `v` = variable `v`) that
/// satisfy every clause and every unit in `units`.
fn models(num_vars: usize, clauses: &[Vec<Lit>], units: &[Lit]) -> Vec<u32> {
    (0u32..1 << num_vars)
        .filter(|&a| {
            units.iter().all(|&l| lit_true(a, l))
                && clauses.iter().all(|c| c.iter().any(|&l| lit_true(a, l)))
        })
        .collect()
}

fn random_lit(rng: &mut XorShift, vars: &[Var]) -> Lit {
    let var = vars[rng.below(vars.len())];
    if rng.chance(50) {
        var.positive()
    } else {
        var.negative()
    }
}

/// A random clause: usually two to four literals drawn with replacement (so
/// duplicates occur), sometimes empty, a unit, or a forced tautology.
fn random_clause(rng: &mut XorShift, vars: &[Var]) -> Vec<Lit> {
    match rng.below(60) {
        0 => Vec::new(),
        1..=9 => vec![random_lit(rng, vars)],
        10..=15 => {
            let lit = random_lit(rng, vars);
            let mut clause = vec![lit, random_lit(rng, vars), lit.negated()];
            clause.rotate_left(rng.below(3));
            clause
        }
        _ => (0..2 + rng.below(3))
            .map(|_| random_lit(rng, vars))
            .collect(),
    }
}

/// How often each kind of answer came up, so the test cannot pass
/// vacuously.
#[derive(Default)]
struct Tally {
    sat: usize,
    unsat_core: usize,
    unsat_clauses: usize,
}

struct Session {
    solver: Solver,
    vars: Vec<Var>,
    clauses: Vec<Vec<Lit>>,
}

impl Session {
    fn new(rng: &mut XorShift) -> Session {
        let mut solver = Solver::new();
        let vars = solver.new_vars(1 + rng.below(4));
        Session {
            solver,
            vars,
            clauses: Vec::new(),
        }
    }

    fn add_clause(&mut self, clause: Vec<Lit>) {
        let accepted = self.solver.add_clause(&clause);
        self.solver.check_watches();
        self.clauses.push(clause);
        if !accepted {
            assert!(
                models(self.vars.len(), &self.clauses, &[]).is_empty(),
                "add_clause reported a contradiction in satisfiable {:?}",
                self.clauses
            );
        }
    }

    fn check_solve(&mut self, assumptions: &[Lit], tally: &mut Tally) {
        let expected = models(self.vars.len(), &self.clauses, assumptions);
        let result = self.solver.solve_under_assumptions(assumptions);
        self.solver.check_watches();
        match result {
            SatResult::Sat(model) => {
                tally.sat += 1;
                assert_eq!(model.len(), self.vars.len());
                for clause in &self.clauses {
                    assert!(
                        clause.iter().any(|&l| model.lit_is_true(l)),
                        "model violates clause {clause:?}"
                    );
                }
                for &lit in assumptions {
                    assert!(model.lit_is_true(lit), "model violates assumption {lit}");
                }
            }
            SatResult::Unsat => {
                assert!(
                    expected.is_empty(),
                    "Unsat under {assumptions:?} but brute force finds a model for {:?}",
                    self.clauses
                );
                let core = self.solver.unsat_core().to_vec();
                if core.is_empty() {
                    tally.unsat_clauses += 1;
                } else {
                    tally.unsat_core += 1;
                }
                for lit in &core {
                    assert!(
                        assumptions.contains(lit),
                        "core {core:?} not in {assumptions:?}"
                    );
                }
                assert!(
                    models(self.vars.len(), &self.clauses, &core).is_empty(),
                    "core {core:?} is satisfiable with {:?}",
                    self.clauses
                );
            }
        }
    }

    /// Blocks each model the solver returns; the count must equal the
    /// brute-force count.  Consumes the session's satisfiable clause set.
    fn enumerate(&mut self) {
        let expected = models(self.vars.len(), &self.clauses, &[]).len();
        let mut found = 0;
        while let SatResult::Sat(model) = self.solver.solve() {
            self.solver.check_watches();
            found += 1;
            assert!(found <= expected, "enumerated more models than exist");
            let blocking: Vec<Lit> = self
                .vars
                .iter()
                .map(|&v| {
                    if model.value(v) {
                        v.negative()
                    } else {
                        v.positive()
                    }
                })
                .collect();
            self.solver.add_clause(&blocking);
            self.solver.check_watches();
            self.clauses.push(blocking);
        }
        self.solver.check_watches();
        assert_eq!(found, expected);
    }
}

#[test]
fn incremental_sessions_agree_with_brute_force() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut tally = Tally::default();
    for _ in 0..400 {
        let mut session = Session::new(&mut rng);
        for _ in 0..24 {
            match rng.below(10) {
                0 if session.vars.len() < MAX_VARS => {
                    let var = session.solver.new_var();
                    session.solver.check_watches();
                    session.vars.push(var);
                }
                0..=5 => {
                    let clause = random_clause(&mut rng, &session.vars);
                    session.add_clause(clause);
                }
                _ => {
                    let assumptions: Vec<Lit> = (0..rng.below(4))
                        .map(|_| random_lit(&mut rng, &session.vars))
                        .collect();
                    session.check_solve(&assumptions, &mut tally);
                }
            }
        }
        session.enumerate();
    }
    assert!(
        tally.sat >= 500 && tally.unsat_core >= 100 && tally.unsat_clauses >= 100,
        "too few answers of some kind: sat {} unsat-with-core {} unsat-clauses {}",
        tally.sat,
        tally.unsat_core,
        tally.unsat_clauses
    );
}

#[test]
fn blocking_enumeration_counts_every_model_of_a_free_formula() {
    // No clauses at all: every one of the 2^n assignments is a model.
    for n in 0..=MAX_VARS {
        let mut solver = Solver::new();
        let vars = solver.new_vars(n);
        let mut session = Session {
            solver,
            vars,
            clauses: Vec::new(),
        };
        session.enumerate();
    }
}
