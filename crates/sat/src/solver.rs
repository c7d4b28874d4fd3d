//! A CDCL SAT solver.
//!
//! The paper delegates its search over correction choices to the SKETCH
//! synthesizer, whose inner loop is a SAT solver.  This module provides that
//! substrate: a conflict-driven clause-learning solver with two-literal
//! watching, first-UIP conflict analysis, VSIDS-style activity ordering via
//! an indexed max-heap, phase saving and **incremental solving under
//! assumptions** — the mechanism CEGISMIN uses to tighten its cost bound
//! without re-encoding (assumption literals are pseudo-decisions, so every
//! learnt clause remains a consequence of the clause database alone and
//! stays valid across `solve` calls).
//!
//! The kernel does not allocate on its hot paths.  Every clause, original or
//! learnt, lives in one flat literal arena and is named by a `u32` clause
//! reference; reasons hold those references.  Propagation hands each
//! processed watch list back in place, conflict analysis walks reason
//! clauses inside the arena with one solver-owned scratch mark per
//! variable, and a literal's value is one load from a per-literal table.
//!
//! Watch lists hold *exact blocker* watchers: a clause reference plus the
//! clause's other watched literal (MiniSat 2.2's blocker, after Chu, Harwood
//! & Stuckey, "Cache conscious data structures for Boolean satisfiability
//! solvers", JSAT 2009).  When the blocker is true, the clause is satisfied
//! and the visit never touches the arena.  Unlike MiniSat's lazy blockers,
//! these are never stale: a per-clause slot record keeps the list index of
//! both watchers, so a rewatch retargets the blocker of the watcher that
//! stays, and `swap_remove` re-records the index of the watcher it moves.
//! A skipped visit is therefore exactly a visit that would have found the
//! clause satisfied, and the search — decisions, propagation order, learnt
//! clauses, models — is the same step for step as with plain reference
//! watch lists.  The one thing a skip leaves undone is putting the
//! falsified watch at position 1; the next full examination does that, and
//! the clauses analysis reads (reasons and conflicts) come straight from a
//! full examination.  [`Solver::check_watches`] asserts the invariant in
//! tests.

use crate::literal::{Lit, Model, Var};

/// The answer to a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model is provided.
    Sat(Model),
    /// The formula is unsatisfiable (under the given assumptions, if any —
    /// see [`Solver::unsat_core`]).
    Unsat,
}

impl SatResult {
    /// Returns the model if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(model) => Some(model),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Counters describing the work a [`Solver`] has performed since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Clauses learnt (and kept — the solver never forgets).
    pub learnts: u64,
}

const UNASSIGNED: u8 = 2;

/// The reason of a variable no clause implied: a decision, an assumption, a
/// level-0 unit, or an unassigned variable.
const NO_REASON: u32 = u32::MAX;

/// Marker for a variable currently absent from the branching heap.
const NOT_IN_HEAP: usize = usize::MAX;

/// Where one clause's literals sit in the arena.
#[derive(Debug, Clone, Copy)]
struct ClauseSpan {
    start: u32,
    len: u32,
}

impl ClauseSpan {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One entry of a watch list: a clause watching the list's literal, and the
/// clause's *other* watched literal.
///
/// The blocker is exact — always the other watched literal, never a stale
/// one — so a true blocker is precisely the case in which examining the
/// clause would find it satisfied and keep watching, and propagation can
/// skip the visit without touching the clause's literals.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// Which of a clause's two [`WatchSlots`] entries belongs to the watched
/// literal `watched`, whose partner is `other`: the smaller literal owns
/// slot 0.
fn slot_of(watched: Lit, other: Lit) -> usize {
    usize::from(watched > other)
}

/// Where a clause's two watchers sit: for each of its watched literals, the
/// watcher's index in that literal's watch list, ordered by [`slot_of`].
type WatchSlots = [u32; 2];

/// An indexed binary max-heap over variable activities.
///
/// Replaces the former O(vars) linear scan in `pick_branch_var`: decisions
/// pop the most active variable in O(log n), activity bumps sift in place,
/// and backtracking lazily re-inserts freed variables.  Variables assigned
/// by propagation stay in the heap and are discarded on pop (lazy deletion).
#[derive(Debug, Default)]
struct VarOrder {
    /// Variable indices arranged as a binary max-heap on activity.
    heap: Vec<u32>,
    /// `pos[v]` is `v`'s position in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<usize>,
}

impl VarOrder {
    fn contains(&self, var: usize) -> bool {
        self.pos[var] != NOT_IN_HEAP
    }

    fn push_new_var(&mut self, var: u32, activity: &[f64]) {
        debug_assert_eq!(var as usize, self.pos.len());
        self.pos.push(NOT_IN_HEAP);
        self.insert(var, activity);
    }

    fn insert(&mut self, var: u32, activity: &[f64]) {
        if self.contains(var as usize) {
            return;
        }
        self.pos[var as usize] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap property after `var`'s activity increased.
    fn bumped(&mut self, var: u32, activity: &[f64]) {
        let position = self.pos[var as usize];
        if position != NOT_IN_HEAP {
            self.sift_up(position, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Moves the entry at `from` into the hole at `hole`.
    fn fill(&mut self, hole: usize, from: usize) {
        let var = self.heap[from];
        self.heap[hole] = var;
        self.pos[var as usize] = hole;
    }

    /// Sifts the entry at `index` towards the root.  The entry is lifted out
    /// and written once at its final place; each parent it passes moves down
    /// into the hole, so the layout is the one pairwise swaps would give.
    fn sift_up(&mut self, mut index: usize, activity: &[f64]) {
        let var = self.heap[index];
        let key = activity[var as usize];
        while index > 0 {
            let parent = (index - 1) / 2;
            if key <= activity[self.heap[parent] as usize] {
                break;
            }
            self.fill(index, parent);
            index = parent;
        }
        self.heap[index] = var;
        self.pos[var as usize] = index;
    }

    /// Sifts the entry at `index` towards the leaves, moving the larger child
    /// up into the hole at each level (the left one when the children tie).
    fn sift_down(&mut self, mut index: usize, activity: &[f64]) {
        let var = self.heap[index];
        let key = activity[var as usize];
        loop {
            let left = 2 * index + 1;
            let right = left + 1;
            let mut best = index;
            let mut best_key = key;
            if left < self.heap.len() && activity[self.heap[left] as usize] > best_key {
                best = left;
                best_key = activity[self.heap[left] as usize];
            }
            if right < self.heap.len() && activity[self.heap[right] as usize] > best_key {
                best = right;
            }
            if best == index {
                break;
            }
            self.fill(index, best);
            index = best;
        }
        self.heap[index] = var;
        self.pos[var as usize] = index;
    }
}

/// An incremental CDCL SAT solver.
///
/// Clauses may be added between `solve` calls; learnt clauses are kept, so
/// repeated solving (as done by the CEGIS loop, which adds blocking clauses)
/// is cheap.  [`Solver::solve_under_assumptions`] additionally decides
/// satisfiability under a conjunction of assumption literals without adding
/// them to the clause database — the CEGISMIN minimisation descent activates
/// successively tighter cost bounds this way, one encoding per grade.
#[derive(Debug)]
pub struct Solver {
    /// Literals of every clause, original and learnt, back to back.
    arena: Vec<Lit>,
    /// Each clause's place in `arena`, indexed by clause reference.
    spans: Vec<ClauseSpan>,
    /// For each literal index, the watchers of the clauses whose watched
    /// literal is that literal's negation (they need a look once it is true).
    watches: Vec<Vec<Watcher>>,
    /// Per clause reference, the list indices of its two watchers, so a
    /// rewatch can retarget the blocker of the watcher that stays.
    slots: Vec<WatchSlots>,
    /// Current value per literal index: 0 = false, 1 = true, or
    /// [`UNASSIGNED`].  Both literals of a variable are kept, so a value
    /// lookup is one load.
    values: Vec<u8>,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause reference for each assigned variable, or
    /// [`NO_REASON`].
    reason: Vec<u32>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    propagate_head: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    /// Activity-ordered branching heap.
    order: VarOrder,
    /// Current activity increment.
    var_inc: f64,
    /// False once a top-level conflict has been derived.
    ok: bool,
    /// Assumption subset responsible for the last assumption-driven `Unsat`.
    last_core: Vec<Lit>,
    /// Per-variable scratch marks, all zero between calls: conflict analysis
    /// marks the variables it has met, `add_clause` the polarity it kept.
    seen: Vec<u8>,
    /// The clause conflict analysis learns; slot 0 holds the UIP.
    learnt: Vec<Lit>,
    /// Statistics: number of conflicts analysed.
    conflicts: u64,
    /// Statistics: number of decisions.
    decisions: u64,
    /// Statistics: number of propagations.
    propagations: u64,
    /// Statistics: number of learnt clauses retained.
    learnts: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            spans: Vec::new(),
            watches: Vec::new(),
            slots: Vec::new(),
            values: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            order: VarOrder::default(),
            var_inc: 1.0,
            ok: true,
            last_core: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            learnts: 0,
        }
    }

    /// Number of variables currently allocated.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.spans.len()
    }

    /// Work counters since creation.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            decisions: self.decisions,
            propagations: self.propagations,
            conflicts: self.conflicts,
            learnts: self.learnts,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let index = u32::try_from(self.level.len()).expect("variable count fits in u32");
        self.values.extend([UNASSIGNED, UNASSIGNED]);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_new_var(index, &self.activity);
        Var(index)
    }

    /// Allocates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    fn lit_value(&self, lit: Lit) -> u8 {
        self.values[lit.index()]
    }

    /// Adds a clause.  Returns `false` if the clause makes the formula
    /// trivially unsatisfiable (empty clause, or a unit clause conflicting
    /// with the top-level assignment).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Adding clauses is only allowed at decision level 0.
        self.cancel_until(0);

        // Normalise at the arena's tail in one pass: the per-variable mark
        // records the polarity kept (1 positive, 2 negative), so a repeated
        // literal is dropped and x ∨ ¬x is caught.
        let start = self.arena.len();
        let mut tautology = false;
        for &lit in lits {
            let polarity = 1 + u8::from(!lit.is_positive());
            let mark = &mut self.seen[lit.var().index()];
            if *mark == 0 {
                *mark = polarity;
                self.arena.push(lit);
            } else if *mark != polarity {
                tautology = true;
                break;
            }
        }
        for &lit in &self.arena[start..] {
            self.seen[lit.var().index()] = 0;
        }
        if tautology {
            // x ∨ ¬x — trivially satisfied.
            self.arena.truncate(start);
            return true;
        }

        // Remove literals already false at level 0; a clause already true at
        // level 0 can be dropped.
        let mut kept = start;
        for k in start..self.arena.len() {
            let lit = self.arena[k];
            let at_root = self.level[lit.var().index()] == 0;
            match self.lit_value(lit) {
                0 if at_root => {}
                1 if at_root => {
                    self.arena.truncate(start);
                    return true;
                }
                _ => {
                    self.arena[kept] = lit;
                    kept += 1;
                }
            }
        }
        self.arena.truncate(kept);

        match kept - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.arena.pop().expect("one literal kept");
                if self.lit_value(unit) == 0 {
                    self.ok = false;
                    return false;
                }
                if self.lit_value(unit) == UNASSIGNED {
                    self.enqueue(unit, NO_REASON);
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(start);
                true
            }
        }
    }

    /// Registers the literals `arena[start..]` as a new clause watched by
    /// its first two literals, and returns its reference.
    fn attach_clause(&mut self, start: usize) -> u32 {
        let cref = u32::try_from(self.spans.len())
            .ok()
            .filter(|&cref| cref != NO_REASON)
            .expect("clause count fits in a u32 reference");
        let span = ClauseSpan {
            start: u32::try_from(start).expect("clause arena fits in u32 offsets"),
            len: u32::try_from(self.arena.len() - start).expect("clause length fits in u32"),
        };
        let (a, b) = (self.arena[start], self.arena[start + 1]);
        let mut slots = [0; 2];
        slots[slot_of(a, b)] = self.push_watcher(a, b, cref);
        slots[slot_of(b, a)] = self.push_watcher(b, a, cref);
        self.spans.push(span);
        self.slots.push(slots);
        cref
    }

    /// Appends a watcher of clause `cref` on `watched` (with the clause's
    /// other watched literal as its blocker) and returns its list index.
    fn push_watcher(&mut self, watched: Lit, blocker: Lit, cref: u32) -> u32 {
        let list = &mut self.watches[watched.negated().index()];
        list.push(Watcher { cref, blocker });
        // A list holds at most one watcher per clause, and clause
        // references fit in a u32.
        (list.len() - 1) as u32
    }

    /// Asserts the watch invariant: every clause has exactly one watcher in
    /// the list of each of its two watched literals (`clause[0]` and
    /// `clause[1]`), its slot record points at those watchers, and each
    /// watcher's blocker is the clause's other watched literal.  A test
    /// hook; call it between public operations.
    #[doc(hidden)]
    pub fn check_watches(&self) {
        assert_eq!(self.slots.len(), self.spans.len());
        for (cref, (span, slots)) in self.spans.iter().zip(&self.slots).enumerate() {
            let clause = &self.arena[span.range()];
            let (a, b) = (clause[0], clause[1]);
            assert_ne!(a, b, "clause {cref} watches one literal twice");
            for (watched, other) in [(a, b), (b, a)] {
                let index = slots[slot_of(watched, other)] as usize;
                let watcher = self.watches[watched.negated().index()].get(index);
                assert!(
                    watcher.is_some_and(|w| w.cref as usize == cref),
                    "clause {cref}: slot {index} of {watched}'s list holds {watcher:?}"
                );
                assert_eq!(
                    watcher.map(|w| w.blocker),
                    Some(other),
                    "clause {cref}: the blocker on {watched} is not the other watch"
                );
            }
        }
        // The slots name 2 × clauses distinct list positions, each holding
        // its own clause's watcher; with no other watcher anywhere, every
        // clause has exactly one watcher per watched literal.
        let watchers: usize = self.watches.iter().map(Vec::len).sum();
        assert_eq!(watchers, 2 * self.spans.len(), "stray watchers");
    }

    /// Adds the clause `a → b`, i.e. `¬a ∨ b`.
    pub fn add_implication(&mut self, a: Lit, b: Lit) -> bool {
        self.add_clause(&[a.negated(), b])
    }

    /// Adds clauses forcing exactly one of `lits` to be true.
    pub fn add_exactly_one(&mut self, lits: &[Lit]) -> bool {
        if !self.add_clause(lits) {
            return false;
        }
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                if !self.add_clause(&[lits[i].negated(), lits[j].negated()]) {
                    return false;
                }
            }
        }
        true
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let var = lit.var().index();
        debug_assert_eq!(self.values[lit.index()], UNASSIGNED);
        self.values[lit.index()] = 1;
        self.values[lit.negated().index()] = 0;
        self.phase[var] = lit.is_positive();
        self.level[var] = self.trail_lim.len() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation.  Returns the reference of a conflicting clause, if
    /// any.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.propagations += 1;

            // Clauses watching ¬lit need attention now that lit became true.
            // The list is taken out while it is walked and moved back after:
            // a rewatch never targets ¬lit (the clause's other literals
            // differ from it), so nothing lands in the emptied slot.  Its
            // indices stay valid meanwhile, and a retargeted blocker always
            // sits in another list.
            let falsified = lit.negated();
            let mut watch_list = std::mem::take(&mut self.watches[lit.index()]);
            let mut conflict = None;
            let mut i = 0;
            while i < watch_list.len() {
                let watcher = watch_list[i];
                // The other watch is true: the clause is satisfied, and the
                // visit never loads its literals.
                if self.values[watcher.blocker.index()] == 1 {
                    i += 1;
                    continue;
                }
                match self.examine_clause(watcher, falsified) {
                    WatchOutcome::KeepWatching => i += 1,
                    WatchOutcome::Rewatched => {
                        watch_list.swap_remove(i);
                        // The last watcher moved into the hole: record its
                        // new index.
                        if let Some(moved) = watch_list.get(i) {
                            let slot = slot_of(falsified, moved.blocker);
                            self.slots[moved.cref as usize][slot] = i as u32;
                        }
                    }
                    WatchOutcome::Conflict => {
                        conflict = Some(watcher.cref);
                        break;
                    }
                }
            }
            debug_assert!(self.watches[lit.index()].is_empty());
            self.watches[lit.index()] = watch_list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Examines the clause of `watcher`, whose watched literal `watched`
    /// just became false and whose other watch (the blocker) is not true.
    fn examine_clause(&mut self, watcher: Watcher, watched: Lit) -> WatchOutcome {
        let cref = watcher.cref;
        let clause = &mut self.arena[self.spans[cref as usize].range()];
        // Ensure the falsified literal is at position 1.  A skipped visit
        // may have left the two watches unswapped; this puts them back in
        // the order every full examination gives them.
        if clause[0] == watched {
            clause.swap(0, 1);
        }
        debug_assert_eq!(clause[1], watched);

        // The other watched literal is the blocker, which the caller found
        // not true.
        let first = clause[0];
        debug_assert_eq!(first, watcher.blocker, "stale blocker");
        debug_assert_ne!(self.values[first.index()], 1);

        // Look for a new literal to watch.
        for k in 2..clause.len() {
            let candidate = clause[k];
            if self.values[candidate.index()] != 0 {
                debug_assert_ne!(candidate, watched, "rewatch onto the walked list");
                clause.swap(1, k);
                // Watch `candidate` in place of `watched`, and make it the
                // blocker of the watcher on `first`, which stays put.
                let stays = self.slots[cref as usize][slot_of(first, watched)];
                self.watches[first.negated().index()][stays as usize].blocker = candidate;
                let added = self.push_watcher(candidate, first, cref);
                let mut slots = [0; 2];
                slots[slot_of(first, candidate)] = stays;
                slots[slot_of(candidate, first)] = added;
                self.slots[cref as usize] = slots;
                return WatchOutcome::Rewatched;
            }
        }

        // Clause is unit or conflicting.
        if self.values[first.index()] == 0 {
            WatchOutcome::Conflict
        } else {
            self.enqueue(first, cref);
            WatchOutcome::KeepWatching
        }
    }

    fn bump_activity(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            // Rescaling multiplies every activity by the same constant, so
            // the heap order is untouched.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(var.index() as u32, &self.activity);
    }

    /// First-UIP conflict analysis.  Leaves the learnt clause in
    /// `self.learnt` and returns the level to backtrack to.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let current_level = self.trail_lim.len() as u32;
        self.learnt.clear();
        // Slot 0 is reserved for the UIP, found last.
        self.learnt.push(Lit(0));
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut cref = conflict;
        let mut trail_index = self.trail.len();

        loop {
            // Skip the asserting literal itself when walking a reason clause.
            for k in self.spans[cref as usize].range() {
                let q = self.arena[k];
                if Some(q) == lit {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    self.seen[v.index()] = 1;
                    self.bump_activity(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail (at the current level) that
            // participates in the conflict.
            loop {
                trail_index -= 1;
                let trail_lit = self.trail[trail_index];
                if self.seen[trail_lit.var().index()] != 0 {
                    lit = Some(trail_lit);
                    break;
                }
            }
            let asserting = lit.expect("conflict analysis found a literal");
            counter -= 1;
            self.seen[asserting.var().index()] = 0;
            if counter == 0 {
                // First UIP found; it is asserted negated in the learnt clause.
                self.learnt[0] = asserting.negated();
                break;
            }
            cref = self.reason[asserting.var().index()];
            debug_assert_ne!(cref, NO_REASON, "non-decision literal must have a reason");
        }
        for &q in &self.learnt[1..] {
            self.seen[q.var().index()] = 0;
        }

        // Backtrack level = highest level among the other learnt literals.
        // That literal is moved to position 1 so that both watched literals
        // of the learnt clause are the last to become unassigned when
        // backtracking, preserving the watching invariant.
        let mut backtrack_level = 0;
        let mut second_watch = 1;
        for (offset, l) in self.learnt.iter().enumerate().skip(1) {
            let lvl = self.level[l.var().index()];
            if lvl > backtrack_level {
                backtrack_level = lvl;
                second_watch = offset;
            }
        }
        if self.learnt.len() > 1 {
            self.learnt.swap(1, second_watch);
        }
        backtrack_level
    }

    /// Computes the subset of assumptions responsible for forcing the
    /// assumption literal `failed` false (MiniSat's `analyzeFinal`): walks
    /// the implication graph from `¬failed` back to the pseudo-decisions.
    /// The result — `failed` plus every assumption reached — is a conjunction
    /// that is unsatisfiable with the clause database alone.
    fn analyze_final(&mut self, failed: Lit) {
        self.last_core.clear();
        self.last_core.push(failed);
        if self.trail_lim.is_empty() {
            return;
        }
        self.seen[failed.var().index()] = 1;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            if self.seen[lit.var().index()] == 0 {
                continue;
            }
            match self.reason[lit.var().index()] {
                // A pseudo-decision above level 0 is an assumption.
                NO_REASON => self.last_core.push(lit),
                cref => {
                    for k in self.spans[cref as usize].range() {
                        let q = self.arena[k];
                        if q.var() != lit.var() && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = 1;
                        }
                    }
                }
            }
            self.seen[lit.var().index()] = 0;
        }
        // Every mark above level 0 was cleared on the walk; `failed` itself
        // may have been forced at level 0, below the walk.
        self.seen[failed.var().index()] = 0;
    }

    /// The subset of assumption literals responsible for the most recent
    /// `Unsat` answer of [`Solver::solve_under_assumptions`].  Their
    /// conjunction is unsatisfiable together with the clause database; an
    /// empty core means the clauses are unsatisfiable on their own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    fn cancel_until(&mut self, target_level: u32) {
        while self.trail_lim.len() as u32 > target_level {
            let start = self.trail_lim.pop().expect("non-empty trail_lim");
            while self.trail.len() > start {
                let lit = self.trail.pop().expect("non-empty trail");
                let var = lit.var().index();
                self.values[lit.index()] = UNASSIGNED;
                self.values[lit.negated().index()] = UNASSIGNED;
                self.reason[var] = NO_REASON;
                // Lazy heap re-insertion: freed variables become branchable
                // again.
                self.order.insert(var as u32, &self.activity);
            }
        }
        self.propagate_head = self.propagate_head.min(self.trail.len());
    }

    /// Pops the most active unassigned variable (lazy deletion: entries
    /// assigned by propagation since insertion are discarded on the way).
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.lit_value(Var(var).positive()) == UNASSIGNED {
                return Some(Var(var));
            }
        }
        None
    }

    /// Decides satisfiability of the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under_assumptions(&[])
    }

    /// Decides satisfiability of the current clause set under the
    /// conjunction of `assumptions`.
    ///
    /// Assumptions are applied as pseudo-decisions (one per decision level,
    /// before any branching), so nothing is added to the clause database and
    /// every clause learnt during the search remains valid for later calls —
    /// this is what makes CEGISMIN's repeated bound tightening incremental.
    /// When the answer is `Unsat` because of the assumptions,
    /// [`Solver::unsat_core`] names the responsible subset and the solver
    /// stays usable; an `Unsat` with an empty core means the clauses
    /// themselves are contradictory and the solver is dead.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.last_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let backtrack_level = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                self.var_inc *= 1.05;
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    if self.lit_value(asserting) == 0 {
                        // False at level 0: contradictory clause database.
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.lit_value(asserting) == UNASSIGNED {
                        self.enqueue(asserting, NO_REASON);
                    }
                } else {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(&self.learnt);
                    let cref = self.attach_clause(start);
                    self.learnts += 1;
                    self.enqueue(asserting, cref);
                }
            } else {
                // Apply (or re-apply, after a deep backjump) the
                // next pending assumption as a pseudo-decision.
                if self.trail_lim.len() < assumptions.len() {
                    let lit = assumptions[self.trail_lim.len()];
                    match self.lit_value(lit) {
                        // Already entailed: push an empty decision level so
                        // assumption i always sits at level ≤ i + 1.
                        1 => self.trail_lim.push(self.trail.len()),
                        0 => {
                            // The clause database (plus earlier assumptions)
                            // forces this assumption false: unsat under
                            // assumptions, solver still healthy.
                            self.analyze_final(lit);
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(lit, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // All variables assigned: build the model.
                        let values = self.values.iter().step_by(2).map(|&v| v == 1).collect();
                        let model = Model { values };
                        // Leave the solver reusable for incremental calls.
                        self.cancel_until(0);
                        return SatResult::Sat(model);
                    }
                    Some(var) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[var.index()];
                        let lit = if phase {
                            var.positive()
                        } else {
                            var.negative()
                        };
                        self.enqueue(lit, NO_REASON);
                    }
                }
            }
        }
    }
}

enum WatchOutcome {
    KeepWatching,
    Rewatched,
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        solver.new_vars(n)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        assert!(s.solve().is_sat());

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(!s.add_clause(&[v[0].negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn default_solver_is_live() {
        let mut s = Solver::default();
        assert!(s.solve().is_sat());
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.solve().model().expect("satisfiable").value(v[1]));
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let clauses = vec![
            vec![v[0].positive(), v[1].positive()],
            vec![v[0].negative(), v[2].positive()],
            vec![v[1].negative(), v[3].positive()],
            vec![v[2].negative(), v[3].negative()],
        ];
        for c in &clauses {
            assert!(s.add_clause(c));
        }
        let result = s.solve();
        s.check_watches();
        let model = result.model().expect("satisfiable");
        for c in &clauses {
            assert!(
                c.iter().any(|&l| model.lit_is_true(l)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        assert!(s.add_clause(&[v[0].positive()]));
        for i in 0..4 {
            assert!(s.add_implication(v[i].positive(), v[i + 1].positive()));
        }
        let result = s.solve();
        let model = result.model().unwrap();
        for var in &v {
            assert!(model.value(*var));
        }
    }

    #[test]
    fn exactly_one_constraint() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        assert!(s.add_exactly_one(&all));
        let result = s.solve();
        let model = result.model().unwrap();
        let count = v.iter().filter(|x| model.value(**x)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes_is_unsat() {
        // p_{i,j}: pigeon i sits in hole j.
        let mut s = Solver::new();
        let mut p = vec![vec![]; 3];
        for row in p.iter_mut() {
            *row = s.new_vars(2);
        }
        // Every pigeon sits somewhere.
        for row in &p {
            assert!(s.add_clause(&[row[0].positive(), row[1].positive()]));
        }
        // No two pigeons share a hole.
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2usize {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    assert!(s.add_clause(&[p[i][hole].negative(), p[k][hole].negative()]));
                }
            }
        }
        s.check_watches();
        assert_eq!(s.solve(), SatResult::Unsat);
        s.check_watches();
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // 3 free variables -> 8 models; block each model as it is found.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // A tautological-ish clause mentioning the vars so they are branched on.
        assert!(s.add_clause(&[v[0].positive(), v[0].negative()]));
        assert!(s.add_clause(&[v[1].positive(), v[1].negative()]));
        assert!(s.add_clause(&[v[2].positive(), v[2].negative()]));
        let mut count = 0;
        loop {
            match s.solve() {
                SatResult::Unsat => break,
                SatResult::Sat(model) => {
                    count += 1;
                    assert!(count <= 8, "enumerated more models than exist");
                    let blocking: Vec<Lit> = v
                        .iter()
                        .map(|&var| {
                            if model.value(var) {
                                var.negative()
                            } else {
                                var.positive()
                            }
                        })
                        .collect();
                    s.add_clause(&blocking);
                    s.check_watches();
                }
            }
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn unsat_formula_with_learning() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b)
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        assert!(s.add_clause(&[v[0].positive(), v[1].negative()]));
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        // The last clause may already be decided unsat at add time or at solve time.
        let _ = s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.check_watches();
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_harmless() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[0].positive(), v[1].positive()]));
        assert!(s.add_clause(&[v[0].positive(), v[0].negative()]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions + stats.propagations > 0);
    }

    #[test]
    fn assumptions_restrict_models_without_adding_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        let clauses_before = s.num_clauses();

        // Under ¬a the only way to satisfy a ∨ b is b.
        let result = s.solve_under_assumptions(&[v[0].negative()]);
        let model = result.model().expect("sat under ¬a");
        assert!(!model.value(v[0]));
        assert!(model.value(v[1]));

        // The assumption was temporary: a is free again.
        let result = s.solve_under_assumptions(&[v[0].positive()]);
        assert!(result.model().expect("sat under a").value(v[0]));
        assert_eq!(s.num_clauses(), clauses_before);
    }

    #[test]
    fn failed_assumptions_yield_a_core_and_a_reusable_solver() {
        // a → b, so assuming {a, ¬b} is contradictory while the clause
        // database stays satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(s.add_implication(v[0].positive(), v[1].positive()));

        let result =
            s.solve_under_assumptions(&[v[2].positive(), v[0].positive(), v[1].negative()]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty(), "assumption failure must produce a core");
        // The irrelevant assumption on v[2] is not to blame.
        assert!(!core.contains(&v[2].positive()), "core {core:?}");
        assert!(core.contains(&v[1].negative()) || core.contains(&v[0].positive()));

        // The solver survives: the same query without the bad assumption
        // succeeds, as does an unconditional solve.
        assert!(s.solve_under_assumptions(&[v[0].positive()]).is_sat());
        assert!(s.solve().is_sat());
        s.check_watches();
    }

    #[test]
    fn directly_conflicting_assumptions_are_detected() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        let result = s.solve_under_assumptions(&[v[0].positive(), v[0].negative()]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&v[0].positive()) && core.contains(&v[0].negative()));
        assert!(s.solve().is_sat(), "solver must remain usable");
    }

    #[test]
    fn unsat_clause_database_reports_an_empty_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive()]));
        let _ = s.add_clause(&[v[0].negative()]);
        assert_eq!(
            s.solve_under_assumptions(&[v[0].positive()]),
            SatResult::Unsat
        );
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn learnt_clauses_survive_assumption_solves() {
        // A pigeonhole core reachable only when the `enable` assumption is
        // on.  Conflicts analysed under the assumption must produce learnt
        // clauses that are sound without it (assumptions are decisions, so
        // learning never depends on them being true).
        let mut s = Solver::new();
        let enable = s.new_var();
        let mut p = vec![vec![]; 3];
        for row in p.iter_mut() {
            *row = s.new_vars(2);
        }
        for row in &p {
            assert!(s.add_clause(&[enable.negative(), row[0].positive(), row[1].positive()]));
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2usize {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    assert!(s.add_clause(&[
                        enable.negative(),
                        p[i][hole].negative(),
                        p[k][hole].negative()
                    ]));
                }
            }
        }
        assert_eq!(
            s.solve_under_assumptions(&[enable.positive()]),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core(), &[enable.positive()]);
        s.check_watches();
        let learnts_after_first = s.stats().learnts;

        // Re-solving the same query reuses what was learnt: at least it must
        // not lose soundness, and without the assumption the formula is sat.
        assert_eq!(
            s.solve_under_assumptions(&[enable.positive()]),
            SatResult::Unsat
        );
        assert!(s.stats().learnts >= learnts_after_first);
        let model = s.solve().model().cloned().expect("sat without assumption");
        assert!(!model.value(enable));
        s.check_watches();
    }

    /// Zero-dependency xorshift64 generator; the seed must be non-zero.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn random_3sat_keeps_the_watch_invariant_across_solves() {
        // Near the satisfiability threshold (ratio ~4.2), with long
        // learnt clauses, frequent rewatches and moved watchers: after every
        // solve and every added blocking clause, each watcher sits where its
        // clause's slot record says and blocks on the clause's other watch.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut answers = [0usize; 2];
        for _ in 0..6 {
            let mut s = Solver::new();
            let v = s.new_vars(60);
            let mut clauses = Vec::new();
            for _ in 0..250 {
                let clause: Vec<Lit> = (0..3)
                    .map(|_| {
                        let var = v[xorshift(&mut state) as usize % v.len()];
                        if xorshift(&mut state) & 1 == 0 {
                            var.positive()
                        } else {
                            var.negative()
                        }
                    })
                    .collect();
                s.add_clause(&clause);
                clauses.push(clause);
            }
            s.check_watches();
            for _ in 0..20 {
                let assumptions: Vec<Lit> = (0..xorshift(&mut state) % 6)
                    .map(|_| v[xorshift(&mut state) as usize % v.len()].positive())
                    .collect();
                let result = s.solve_under_assumptions(&assumptions);
                s.check_watches();
                let Some(model) = result.model() else {
                    answers[1] += 1;
                    continue;
                };
                answers[0] += 1;
                assert!(clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| model.lit_is_true(l))));
                assert!(assumptions.iter().all(|&l| model.lit_is_true(l)));
                // Block the model on its first 20 variables.
                let blocking: Vec<Lit> = v[..20]
                    .iter()
                    .map(|&var| {
                        if model.value(var) {
                            var.negative()
                        } else {
                            var.positive()
                        }
                    })
                    .collect();
                s.add_clause(&blocking);
                s.check_watches();
                clauses.push(blocking);
            }
        }
        assert!(
            answers[0] > 10 && answers[1] > 10,
            "sat/unsat answers {answers:?}"
        );
    }
}
