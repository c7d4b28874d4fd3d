//! Compile-once, sweep-many verification core: a flat bytecode lowering of
//! MPY / M̃PY programs plus a loop-based VM.
//!
//! The synthesis inner loop evaluates one candidate space on thousands of
//! (assignment × input) pairs.  The tree walker re-resolves every local
//! through a `HashMap` frame and runs one concretized candidate at a time;
//! the compiler here does that work once per submission instead:
//!
//! * locals are resolved to dense frame **slots** at compile time,
//! * constants are interned into a constant pool,
//! * calls are resolved at compile time (entry / helper / builtin / print /
//!   input / `NameError`), and
//! * choice sites become **indexed dispatch** — a `ChoiceJump` through a
//!   per-site jump table, or an operator table lookup — over a dense
//!   per-candidate selection array, so no candidate AST is ever
//!   materialised and no `BTreeMap` is consulted mid-run.
//!
//! There is one lowering.  M̃PY is MPY plus sets of expressions and
//! statements, so each rule is written once, generic over a borrowed view
//! of the node ([`Expr`] or [`CExpr`], [`Stmt`] or [`CStmt`]): a plain
//! program is the choice-free instance, and a choice-free subtree of a
//! choice program (`CExpr::Plain`) lowers through the MPY instance.
//!
//! Fuel parity is by construction: a one-unit [`Instr::Charge`] is emitted
//! at exactly the points where [`crate::interp::Interpreter`] calls
//! `charge(1)` (statement entry, expression-node entry, loop iterations),
//! and choice constructs charge nothing, since they disappear when a
//! candidate is concretized.  The `properties` and `vm_differential`
//! integration tests enforce result + output + fuel agreement
//! differentially, for plain programs and for every single-site selection
//! of corpus choice programs.
//!
//! Compilation is total: every parsed program lowers, including mutating
//! method calls whose receiver is an index chain (`a[i].append(x)`) or is
//! itself choice-bearing, whose write-back re-evaluates the receiver's
//! location exactly like the tree walker's `assign`.  The tree walker
//! stays the semantic ground truth the differential tests and the `vm`
//! fuzz target check this VM against.

use std::collections::HashMap;

use afg_ast::ops::{BinOp, BoolOp, CmpOp, UnaryOp};
use afg_ast::{Expr, Param, Program, Stmt, StmtKind, Target};
use afg_eml::{CExpr, CStmt, CStmtKind, ChoiceAssignment, ChoiceId, ChoiceProgram, OpChoice};

use crate::builtins;
use crate::error::RuntimeError;
use crate::interp::{
    binary_op, compare_op, iterable_items, load_index, slice_value, store_index, unary_op,
    ExecLimits, Outcome,
};
use crate::value::Value;

/// One VM instruction.  Jump targets are absolute indices into the owning
/// function's code vector.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Spend one fuel unit (mirrors `Interpreter::charge(1)`).
    Charge,
    /// Spend `n` fuel units — the peephole fusion of `n` adjacent
    /// [`Instr::Charge`]s.  On shortfall the remaining fuel is drained
    /// before erroring, so `fuel_used` matches charging one unit at a time.
    ChargeN(u32),
    /// `Charge` + `Const` fused (every literal expression).
    ChargeConst(u32),
    /// `Charge` + `LoadSlot` fused (every variable read).
    ChargeLoad(u32),
    /// Push a clone of the interned constant.
    Const(u32),
    /// Push a clone of the slot value; `NameError` if unset.
    LoadSlot(u32),
    /// Pop into the slot.
    StoreSlot(u32),
    /// `NameError` when the slot is unset; no stack effect.  Emitted where
    /// a specialised instruction reads a slot *after* evaluating other
    /// operands, to keep the tree walker's error order.
    CheckSlot(u32),
    /// `[.., index]` → `[.., slot[index]]` — indexing a variable without
    /// cloning the whole container.  The slot is checked by a preceding
    /// `CheckSlot` and cannot be mutated in between (the compiler only
    /// emits this when the index expression contains no method call).
    LoadIndexSlot(u32),
    /// Push `len(slot)` without cloning the container (`NameError` /
    /// `TypeError` exactly like `LoadSlot` + the `len` builtin).
    LenSlot(u32),
    Pop,
    PopN(u32),
    Jump(usize),
    /// Pop; jump when falsy.
    JumpIfFalsePop(usize),
    /// Peek; jump when falsy keeping the value, else pop (Python `and`).
    JumpIfFalsePeek(usize),
    /// Peek; jump when truthy keeping the value, else pop (Python `or`).
    JumpIfTruePeek(usize),
    MakeList(u32),
    MakeTuple(u32),
    /// Pop `2n` key/value pairs, deduplicate by `py_eq` like a dict literal.
    MakeDict(u32),
    /// `[.., base, index]` → `[.., base[index]]`.
    LoadIndex,
    /// `[.., value, index, base]` → `[.., base']` (mutated container).
    StoreIndex,
    /// `[.., base, lower?, upper?]` → `[.., base[lower:upper]]`.
    Slice {
        has_lower: bool,
        has_upper: bool,
    },
    /// `[.., l, r]` → `[.., l op r]`.
    BinaryOp(BinOp),
    /// `[.., rhs, current]` → `[.., current op rhs]` (augmented assign).
    BinaryOpAug(BinOp),
    UnaryOpI(UnaryOp),
    CompareOpI(CmpOp),
    CompareOpChoice {
        site: u32,
        table: u32,
    },
    /// `[.., l]` → `[.., l op slot]` — the right operand is read from its
    /// slot by reference (no container clone; the big win is `x in v` on a
    /// list or string).  Raises the slot's `NameError` itself, at exactly
    /// the point the tree walker would evaluate the right-hand variable.
    CompareSlot {
        op: CmpOp,
        slot: u32,
    },
    /// [`Instr::CompareSlot`] with the operator chosen from a table by the
    /// candidate selection.
    CompareChoiceSlot {
        site: u32,
        table: u32,
        slot: u32,
    },
    /// Fused `CompareOpI` + `JumpIfFalsePop` (peephole; never spans a jump
    /// target thanks to the emit fence).
    CmpJumpFalse {
        op: CmpOp,
        target: usize,
    },
    /// Fused `CompareOpChoice` + `JumpIfFalsePop`.
    CmpChoiceJumpFalse {
        site: u32,
        table: u32,
        target: usize,
    },
    /// Fused `CompareSlot` + `JumpIfFalsePop`.
    CmpSlotJumpFalse {
        op: CmpOp,
        slot: u32,
        target: usize,
    },
    /// Pop `n` values, join their display strings, append an output line.
    PrintStmt(u32),
    /// Like `PrintStmt` but pushes `None` (the `print(...)` call form).
    PrintExpr(u32),
    /// Pop the next stdin value (or `ValueError` when exhausted).
    Input {
        raw: bool,
    },
    /// Call compiled function `func` with the top `argc` stack values.
    CallFunc {
        func: u32,
        argc: u32,
    },
    CallBuiltin {
        name: u32,
        argc: u32,
    },
    /// Method call.  `[.., receiver, args..]` → `[.., result, receiver']`
    /// falling through into the receiver's write-back code when the call
    /// mutated the receiver, else `[.., result]` and a jump to `skip`, past
    /// the write-back (the tree walker only re-assigns on mutation).
    CallMethod {
        name: u32,
        argc: u32,
        skip: usize,
    },
    /// Method call on a variable receiver, run **in place** on the slot —
    /// no receiver clone, no write-back (`v.append(x)` goes from O(len)
    /// to O(1)).  Requires a preceding `CheckSlot` and arguments that
    /// cannot mutate the slot; errors are terminal in MPY, so a partial
    /// in-place mutation before an error is unobservable.
    CallMethodSlot {
        name: u32,
        argc: u32,
        slot: u32,
    },
    /// Pop a sequence, push its `n` items (first item on top) for tuple
    /// unpacking; `TypeError` / `ValueError` like the tree walker.
    Unpack(u32),
    /// Raise the interned error.
    Raise(u32),
    /// Pop the return value and leave the frame.
    ReturnV,
    ReturnNone,
    /// Jump through a per-site jump table indexed by the selection array.
    ChoiceJump {
        site: u32,
        table: u32,
    },
    /// Pop an iterable, push its item iterator (eager, like the walker).
    IterPrep,
    /// Pop `argc` range arguments and push a **lazy** counting iterator —
    /// the `for v in range(...)` specialisation.  Validation, errors and
    /// the `MAX_RANGE` bound replicate the eager builtin exactly; only the
    /// list materialisation (the hottest allocation in a sweep) is gone.
    RangePrep(u32),
    /// Advance the innermost iterator: exhausted → jump `end`; else charge
    /// one unit and store the item into `slot`.
    ForNext {
        slot: u32,
        end: usize,
    },
    PopIter,
}

/// A function lowered to bytecode.
#[derive(Debug, Clone)]
struct CompiledFunc {
    name: String,
    /// Slot index for each parameter position, in declaration order.
    param_slots: Vec<u32>,
    n_slots: usize,
    /// Slot index → variable name, for `NameError` messages.
    slot_names: Vec<String>,
    code: Vec<Instr>,
    jump_tables: Vec<Vec<usize>>,
    cmp_tables: Vec<Vec<CmpOp>>,
}

/// A whole program (entry plus helpers) lowered to bytecode, reusable
/// across any number of (assignment × input) evaluations.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    funcs: Vec<CompiledFunc>,
    entry: usize,
    consts: Vec<Value>,
    names: Vec<String>,
    errors: Vec<RuntimeError>,
    /// Dense site index → original choice id (empty for plain programs).
    site_ids: Vec<ChoiceId>,
    /// Reverse of `site_ids`, so loading an assignment costs one lookup
    /// per *non-default* selection instead of one per site.
    site_map: HashMap<ChoiceId, u32>,
}

impl CompiledProgram {
    /// Compiles a plain MPY program around its entry function.  Every
    /// construct lowers; the result is `None` only when the program defines
    /// no function, so there is no entry to run.
    pub fn from_program(program: &Program, entry: Option<&str>) -> Option<CompiledProgram> {
        let entry_index = program
            .funcs
            .iter()
            .position(|f| Some(f) == program.entry(entry))?;
        let mut pools = Pools::default();
        let resolver = Resolver {
            choice_entry: None,
            func_names: program.funcs.iter().map(|f| f.name.clone()).collect(),
        };
        let funcs = program
            .funcs
            .iter()
            .map(|f| compile_func(&f.name, &f.params, &f.body, &resolver, &mut pools))
            .collect();
        Some(pools.finish(funcs, entry_index))
    }

    /// Compiles a choice program: the choice-bearing entry function plus
    /// the student's helpers.
    pub fn from_choice(program: &ChoiceProgram) -> CompiledProgram {
        let mut pools = Pools::default();
        let mut func_names = vec![program.func.name.clone()];
        func_names.extend(program.other_funcs.iter().map(|f| f.name.clone()));
        let resolver = Resolver {
            choice_entry: Some(program.func.name.clone()),
            func_names,
        };
        let entry = &program.func;
        let mut funcs = vec![compile_func(
            &entry.name,
            &entry.params,
            &entry.body,
            &resolver,
            &mut pools,
        )];
        for f in &program.other_funcs {
            funcs.push(compile_func(
                &f.name, &f.params, &f.body, &resolver, &mut pools,
            ));
        }
        pools.finish(funcs, 0)
    }

    /// Number of distinct choice sites compiled to indexed dispatch.
    pub fn site_count(&self) -> usize {
        self.site_ids.len()
    }
}

/// A live loop iterator: materialised items, or the lazy `range` form.
#[derive(Debug, Clone)]
enum VmIter {
    /// Items of a list / tuple / string / dict, in order.
    Items(std::vec::IntoIter<Value>),
    /// Lazy `range(...)`: no list is ever built.  `RangePrep` has already
    /// walked the whole index sequence (bounding and overflow checks
    /// included), so advancing with a wrapping add reproduces exactly the
    /// items the eager builtin would have materialised.
    Range {
        next: i64,
        step: i64,
        remaining: u64,
    },
}

impl VmIter {
    fn next(&mut self) -> Option<Value> {
        match self {
            VmIter::Items(items) => items.next(),
            VmIter::Range {
                next,
                step,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let item = Value::Int(*next);
                *next = next.wrapping_add(*step);
                Some(item)
            }
        }
    }
}

/// One recorded choice-site consultation: the site, the option count at
/// the consulting instruction (`bound`), and the effective (clamped)
/// option the run took.
///
/// A run records only the *first* consultation of each site.  The
/// selection array is fixed for the whole run, so a re-consultation reads
/// the same entry at the same option count and takes the same option: it
/// adds nothing to the key.  A run's behaviour is therefore a pure
/// function of its input and this sequence of first consultations, which
/// is what makes sweep verdicts cacheable across candidates (see
/// `equiv::VerdictCache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Choice-site index (into the compiled program's `site_ids`).
    pub site: u32,
    /// Option count at the consulting instruction; effective options are
    /// clamped to `bound - 1` exactly like dispatch does.
    pub bound: u32,
    /// The clamped option the run actually took.
    pub option: u32,
}

/// Reusable execution scratch: operand stack, slot arena, iterator stack
/// and the per-candidate selection array.  One `Vm` serves a whole sweep —
/// nothing is reallocated between runs.
#[derive(Debug, Clone)]
pub struct Vm {
    limits: ExecLimits,
    fuel: u64,
    depth: u32,
    /// Pooled print lines: only `output[..output_len]` belongs to the
    /// current run; the tail keeps its heap capacity for reuse.
    output: Vec<String>,
    output_len: usize,
    stack: Vec<Value>,
    slots: Vec<Option<Value>>,
    iters: Vec<VmIter>,
    selection: Vec<usize>,
    trace: Vec<TraceStep>,
    /// Per site: the run stamp and option count of its recorded
    /// consultation.  `seen[site].0 == run` ⇔ the current run already
    /// recorded `site`; bumping `run` forgets every site at once.
    seen: Vec<(u32, u32)>,
    run: u32,
    stdin: Vec<Value>,
    stdin_pos: usize,
}

impl Vm {
    /// Creates a VM with the given limits.
    pub fn new(limits: ExecLimits) -> Vm {
        Vm {
            limits,
            fuel: limits.fuel,
            depth: 0,
            output: Vec::new(),
            output_len: 0,
            stack: Vec::new(),
            slots: Vec::new(),
            iters: Vec::new(),
            selection: Vec::new(),
            trace: Vec::new(),
            seen: Vec::new(),
            run: 0,
            stdin: Vec::new(),
            stdin_pos: 0,
        }
    }

    /// The candidate selection loaded by [`Vm::select`].
    pub fn selection(&self) -> &[usize] {
        &self.selection
    }

    /// The first consultation of each choice site in the last run, in
    /// execution order (see [`TraceStep`]): no site appears twice.
    pub fn trace(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Reads the selected option for `site`, clamped to the consulting
    /// instruction's option count, and records the consultation if it is
    /// the run's first at `site`.
    #[inline]
    fn choose(&mut self, site: u32, bound: usize) -> usize {
        let option = self.selection[site as usize].min(bound - 1);
        let bound = bound as u32;
        let seen = &mut self.seen[site as usize];
        if *seen != (self.run, bound) {
            // Every instruction that consults a site dispatches over that
            // site's option list, so a re-consultation repeats the first
            // one's bound.  Were it ever to differ, recording it again
            // keeps the key sound.
            debug_assert!(seen.0 != self.run, "site {site} consulted at two bounds");
            *seen = (self.run, bound);
            self.trace.push(TraceStep {
                site,
                bound,
                option: option as u32,
            });
        }
        option
    }

    /// Loads the candidate selection for `program`'s choice sites.  Must be
    /// called before running a choice program; option indices are clamped
    /// per use site exactly like `concretize`.
    pub fn select(&mut self, program: &CompiledProgram, assignment: &ChoiceAssignment) {
        // Candidates differ from the default in at most a handful of
        // sites (the repair cost), so zero-fill plus the non-default
        // entries beats a per-site assignment lookup.
        self.selection.clear();
        self.selection.resize(program.site_ids.len(), 0);
        self.seen.resize(program.site_ids.len(), (0, 0));
        for (id, option) in assignment.non_default() {
            if let Some(&site) = program.site_map.get(&id) {
                self.selection[site as usize] = option;
            }
        }
    }

    /// Runs the program's entry function on `args`.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], with message and fuel parity with the tree
    /// walker.
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        args: &[Value],
    ) -> Result<Outcome, RuntimeError> {
        self.run_for_check(program, args)?;
        let value = self.stack.pop().unwrap_or(Value::None);
        let mut output = std::mem::take(&mut self.output);
        output.truncate(self.output_len);
        Ok(Outcome { value, output })
    }

    /// Like [`Vm::run`] but leaves the outcome inside the VM — return
    /// value on the stack, printed lines in the output buffer — so sweep
    /// checks can compare by reference instead of moving the output
    /// vector (and its heap capacity) out of the scratch on every run.
    pub fn run_for_check(
        &mut self,
        program: &CompiledProgram,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        self.fuel = self.limits.fuel;
        self.depth = 0;
        self.output_len = 0;
        self.trace.clear();
        // On wrap-around, stale stamps could alias the new run; reset them
        // (once every 2^32 runs) to keep the stamp trick sound.
        self.run = match self.run.checked_add(1) {
            Some(run) => run,
            None => {
                self.seen.fill((0, 0));
                1
            }
        };
        self.stack.clear();
        self.slots.clear();
        self.iters.clear();
        self.stdin_pos = 0;
        self.stack.extend(args.iter().cloned());
        self.call(program, program.entry, args.len())
    }

    /// Compares the outcome left by [`Vm::run_for_check`] against an
    /// expected one, with [`Outcome`]-matching semantics (`py_eq` on the
    /// value, line-exact output when `compare_output` is set).
    pub fn outcome_matches(&self, expected: &Outcome, compare_output: bool) -> bool {
        let value = self.stack.last().unwrap_or(&Value::None);
        value.py_eq(&expected.value)
            && (!compare_output || self.output[..self.output_len] == expected.output[..])
    }

    /// Fuel consumed by the last [`Vm::run`] (complete or not).
    pub fn fuel_used(&self) -> u64 {
        self.limits.fuel - self.fuel
    }

    fn call(
        &mut self,
        program: &CompiledProgram,
        func_idx: usize,
        argc: usize,
    ) -> Result<(), RuntimeError> {
        let func = &program.funcs[func_idx];
        // Depth before arity, like `Interpreter::call_func`.
        if self.depth >= self.limits.max_recursion {
            return Err(RuntimeError::RecursionLimit);
        }
        if func.param_slots.len() != argc {
            return Err(RuntimeError::Type(format!(
                "{}() takes {} arguments ({} given)",
                func.name,
                func.param_slots.len(),
                argc
            )));
        }
        let slot_base = self.slots.len();
        self.slots.resize(slot_base + func.n_slots, None);
        let args_start = self.stack.len() - argc;
        for (i, value) in self.stack.drain(args_start..).enumerate() {
            self.slots[slot_base + func.param_slots[i] as usize] = Some(value);
        }
        self.depth += 1;
        let result = self.exec(program, func, slot_base);
        self.depth -= 1;
        self.slots.truncate(slot_base);
        result.map(|value| self.stack.push(value))
    }

    fn exec(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunc,
        slot_base: usize,
    ) -> Result<Value, RuntimeError> {
        let stack_base = self.stack.len();
        let iter_base = self.iters.len();
        let result = self.exec_inner(program, func, slot_base);
        self.stack.truncate(stack_base);
        self.iters.truncate(iter_base);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inner(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunc,
        slot_base: usize,
    ) -> Result<Value, RuntimeError> {
        let code = &func.code;
        let mut pc = 0usize;
        loop {
            let instr = code[pc];
            pc += 1;
            match instr {
                Instr::Charge => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                }
                Instr::ChargeN(n) => {
                    let n = u64::from(n);
                    if self.fuel < n {
                        // Sequential one-unit charges would drain the tank
                        // before erroring; match their `fuel_used`.
                        self.fuel = 0;
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= n;
                }
                Instr::ChargeConst(i) => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                    self.stack.push(program.consts[i as usize].clone());
                }
                Instr::ChargeLoad(s) => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                    match &self.slots[slot_base + s as usize] {
                        Some(value) => {
                            let value = value.clone();
                            self.stack.push(value);
                        }
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[s as usize]
                            )))
                        }
                    }
                }
                Instr::Const(i) => self.stack.push(program.consts[i as usize].clone()),
                Instr::LoadSlot(s) => match &self.slots[slot_base + s as usize] {
                    Some(value) => {
                        let value = value.clone();
                        self.stack.push(value);
                    }
                    None => {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )))
                    }
                },
                Instr::StoreSlot(s) => {
                    let value = self.stack.pop().expect("store operand");
                    self.slots[slot_base + s as usize] = Some(value);
                }
                Instr::CheckSlot(s) => {
                    if self.slots[slot_base + s as usize].is_none() {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )));
                    }
                }
                Instr::LoadIndexSlot(s) => {
                    let index = self.stack.pop().expect("index operand");
                    let base = self.slots[slot_base + s as usize]
                        .as_ref()
                        .expect("slot checked before indexing");
                    let value = load_index(base, &index)?;
                    self.stack.push(value);
                }
                Instr::LenSlot(s) => match &self.slots[slot_base + s as usize] {
                    Some(value) => {
                        let len = match value {
                            Value::Str(s) => s.chars().count() as i64,
                            Value::List(items) | Value::Tuple(items) => items.len() as i64,
                            Value::Dict(items) => items.len() as i64,
                            other => {
                                return Err(RuntimeError::Type(format!(
                                    "object of type '{}' has no len()",
                                    other.type_name()
                                )))
                            }
                        };
                        self.stack.push(Value::Int(len));
                    }
                    None => {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )))
                    }
                },
                Instr::Pop => {
                    self.stack.pop();
                }
                Instr::PopN(n) => {
                    let keep = self.stack.len() - n as usize;
                    self.stack.truncate(keep);
                }
                Instr::Jump(t) => pc = t,
                Instr::JumpIfFalsePop(t) => {
                    let value = self.stack.pop().expect("condition");
                    if !value.is_truthy() {
                        pc = t;
                    }
                }
                Instr::JumpIfFalsePeek(t) => {
                    let truthy = self.stack.last().expect("operand").is_truthy();
                    if truthy {
                        self.stack.pop();
                    } else {
                        pc = t;
                    }
                }
                Instr::JumpIfTruePeek(t) => {
                    let truthy = self.stack.last().expect("operand").is_truthy();
                    if truthy {
                        pc = t;
                    } else {
                        self.stack.pop();
                    }
                }
                Instr::MakeList(n) => {
                    let start = self.stack.len() - n as usize;
                    let items: Vec<Value> = self.stack.drain(start..).collect();
                    self.stack.push(Value::List(items));
                }
                Instr::MakeTuple(n) => {
                    let start = self.stack.len() - n as usize;
                    let items: Vec<Value> = self.stack.drain(start..).collect();
                    self.stack.push(Value::Tuple(items));
                }
                Instr::MakeDict(n) => {
                    let start = self.stack.len() - 2 * n as usize;
                    let flat: Vec<Value> = self.stack.drain(start..).collect();
                    let mut entries: Vec<(Value, Value)> = Vec::with_capacity(n as usize);
                    let mut it = flat.into_iter();
                    while let (Some(key), Some(value)) = (it.next(), it.next()) {
                        if let Some(existing) = entries.iter_mut().find(|(k, _)| k.py_eq(&key)) {
                            existing.1 = value;
                        } else {
                            entries.push((key, value));
                        }
                    }
                    self.stack.push(Value::Dict(entries));
                }
                Instr::LoadIndex => {
                    let index = self.stack.pop().expect("index");
                    let base = self.stack.pop().expect("base");
                    self.stack.push(load_index(&base, &index)?);
                }
                Instr::StoreIndex => {
                    let mut base = self.stack.pop().expect("base");
                    let index = self.stack.pop().expect("index");
                    let value = self.stack.pop().expect("value");
                    store_index(&mut base, &index, value)?;
                    self.stack.push(base);
                }
                Instr::Slice {
                    has_lower,
                    has_upper,
                } => {
                    let upper = if has_upper { self.stack.pop() } else { None };
                    let lower = if has_lower { self.stack.pop() } else { None };
                    let base = self.stack.pop().expect("base");
                    self.stack
                        .push(slice_value(&base, lower.as_ref(), upper.as_ref())?);
                }
                Instr::BinaryOp(op) => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(binary_op(op, &l, &r)?);
                }
                Instr::BinaryOpAug(op) => {
                    let current = self.stack.pop().expect("current");
                    let rhs = self.stack.pop().expect("rhs");
                    self.stack.push(binary_op(op, &current, &rhs)?);
                }
                Instr::UnaryOpI(op) => {
                    let v = self.stack.pop().expect("operand");
                    self.stack.push(unary_op(op, &v)?);
                }
                Instr::CompareOpI(op) => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(compare_op(op, &l, &r)?);
                }
                Instr::CompareOpChoice { site, table } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(compare_op(op, &l, &r)?);
                }
                Instr::CompareSlot { op, slot } => {
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    self.stack.push(compare_op(op, &l, r)?);
                }
                Instr::CompareChoiceSlot { site, table, slot } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    self.stack.push(compare_op(op, &l, r)?);
                }
                Instr::CmpJumpFalse { op, target } => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    if !compare_op(op, &l, &r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::CmpChoiceJumpFalse {
                    site,
                    table,
                    target,
                } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    if !compare_op(op, &l, &r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::CmpSlotJumpFalse { op, slot, target } => {
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    if !compare_op(op, &l, r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::PrintStmt(n) | Instr::PrintExpr(n) => {
                    let start = self.stack.len() - n as usize;
                    if self.output_len == self.output.len() {
                        self.output.push(String::new());
                    }
                    let line = &mut self.output[self.output_len];
                    line.clear();
                    for (i, value) in self.stack[start..].iter().enumerate() {
                        if i > 0 {
                            line.push(' ');
                        }
                        value.display_into(line);
                    }
                    self.output_len += 1;
                    self.stack.truncate(start);
                    if matches!(instr, Instr::PrintExpr(_)) {
                        self.stack.push(Value::None);
                    }
                }
                Instr::Input { raw } => {
                    let value = self.stdin.get(self.stdin_pos).cloned().ok_or_else(|| {
                        RuntimeError::Value("input(): no more stdin values".to_string())
                    })?;
                    self.stdin_pos += 1;
                    self.stack.push(if raw {
                        Value::Str(value.display_str())
                    } else {
                        value
                    });
                }
                Instr::CallFunc { func, argc } => {
                    self.call(program, func as usize, argc as usize)?;
                }
                Instr::CallBuiltin { name, argc } => {
                    let start = self.stack.len() - argc as usize;
                    let name = &program.names[name as usize];
                    match builtins::call_builtin(name, &self.stack[start..]) {
                        Some(result) => {
                            let result = result?;
                            self.stack.truncate(start);
                            self.stack.push(result);
                        }
                        None => {
                            return Err(RuntimeError::Name(format!("name '{name}' is not defined")))
                        }
                    }
                }
                Instr::CallMethod { name, argc, skip } => {
                    let start = self.stack.len() - argc as usize;
                    let args: Vec<Value> = self.stack.drain(start..).collect();
                    let mut receiver = self.stack.pop().expect("receiver");
                    let (result, mutated) =
                        builtins::call_method(&mut receiver, &program.names[name as usize], &args)?;
                    self.stack.push(result);
                    if mutated {
                        self.stack.push(receiver);
                    } else {
                        pc = skip;
                    }
                }
                Instr::CallMethodSlot { name, argc, slot } => {
                    let start = self.stack.len() - argc as usize;
                    let receiver = self.slots[slot_base + slot as usize]
                        .as_mut()
                        .expect("slot checked before method call");
                    let (result, _mutated) = builtins::call_method(
                        receiver,
                        &program.names[name as usize],
                        &self.stack[start..],
                    )?;
                    self.stack.truncate(start);
                    self.stack.push(result);
                }
                Instr::Unpack(n) => {
                    let value = self.stack.pop().expect("unpack operand");
                    let items = match value {
                        Value::List(items) | Value::Tuple(items) => items,
                        other => {
                            return Err(RuntimeError::Type(format!(
                                "cannot unpack non-sequence {}",
                                other.type_name()
                            )))
                        }
                    };
                    if items.len() != n as usize {
                        return Err(RuntimeError::Value(format!(
                            "too {} values to unpack",
                            if items.len() > n as usize {
                                "many"
                            } else {
                                "few"
                            }
                        )));
                    }
                    for item in items.into_iter().rev() {
                        self.stack.push(item);
                    }
                }
                Instr::Raise(e) => return Err(program.errors[e as usize].clone()),
                Instr::ReturnV => return Ok(self.stack.pop().expect("return value")),
                Instr::ReturnNone => return Ok(Value::None),
                Instr::ChoiceJump { site, table } => {
                    let targets = &func.jump_tables[table as usize];
                    pc = targets[self.choose(site, targets.len())];
                }
                Instr::IterPrep => {
                    let value = self.stack.pop().expect("iterable");
                    // The popped value is this loop's snapshot, so lists and
                    // tuples can give up their backing vector instead of
                    // cloning every element like the by-reference helper.
                    let items = match value {
                        Value::List(items) | Value::Tuple(items) => items,
                        other => iterable_items(&other)?,
                    };
                    self.iters.push(VmIter::Items(items.into_iter()));
                }
                Instr::RangePrep(argc) => {
                    let base = self.stack.len() - argc as usize;
                    let iter = range_iter(&self.stack[base..]);
                    self.stack.truncate(base);
                    self.iters.push(iter?);
                }
                Instr::ForNext { slot, end } => {
                    match self.iters.last_mut().expect("iterator").next() {
                        None => pc = end,
                        Some(item) => {
                            if self.fuel < 1 {
                                return Err(RuntimeError::FuelExhausted);
                            }
                            self.fuel -= 1;
                            self.slots[slot_base + slot as usize] = Some(item);
                        }
                    }
                }
                Instr::PopIter => {
                    self.iters.pop();
                }
            }
        }
    }
}

/// Builds the lazy iterator for `RangePrep` — a faithful replica of
/// `builtins::call_builtin("range", ...)`: same argument validation, same
/// error messages in the same order, same `MAX_RANGE` bound, and the same
/// index arithmetic (the count pass below walks every increment the eager
/// builtin would perform, so even overflow behaviour lines up).
fn range_iter(args: &[Value]) -> Result<VmIter, RuntimeError> {
    let as_int = |v: &Value| {
        v.as_int().ok_or_else(|| {
            RuntimeError::Type(format!(
                "range() integer argument expected, got {}",
                v.type_name()
            ))
        })
    };
    let (start, stop, step) = match args.len() {
        1 => (0, as_int(&args[0])?, 1),
        2 => (as_int(&args[0])?, as_int(&args[1])?, 1),
        3 => (as_int(&args[0])?, as_int(&args[1])?, as_int(&args[2])?),
        n => {
            return Err(RuntimeError::Type(format!(
                "range expected at most 3 arguments, got {n}"
            )))
        }
    };
    if step == 0 {
        return Err(RuntimeError::Value(
            "range() arg 3 must not be zero".to_string(),
        ));
    }
    const MAX_RANGE: u64 = 100_000;
    let mut remaining = 0u64;
    let mut i = start;
    while (step > 0 && i < stop) || (step < 0 && i > stop) {
        remaining += 1;
        if remaining > MAX_RANGE {
            return Err(RuntimeError::FuelExhausted);
        }
        i += step;
    }
    Ok(VmIter::Range {
        next: start,
        step,
        remaining,
    })
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Pools {
    consts: Vec<Value>,
    names: Vec<String>,
    errors: Vec<RuntimeError>,
    site_ids: Vec<ChoiceId>,
    site_map: HashMap<ChoiceId, u32>,
}

impl Pools {
    fn const_idx(&mut self, value: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| *c == value) {
            return i as u32;
        }
        self.consts.push(value);
        (self.consts.len() - 1) as u32
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    fn error_idx(&mut self, error: RuntimeError) -> u32 {
        self.errors.push(error);
        (self.errors.len() - 1) as u32
    }

    fn site(&mut self, id: ChoiceId) -> u32 {
        if let Some(&i) = self.site_map.get(&id) {
            return i;
        }
        let i = self.site_ids.len() as u32;
        self.site_ids.push(id);
        self.site_map.insert(id, i);
        i
    }

    fn finish(self, funcs: Vec<CompiledFunc>, entry: usize) -> CompiledProgram {
        CompiledProgram {
            funcs,
            entry,
            consts: self.consts,
            names: self.names,
            errors: self.errors,
            site_ids: self.site_ids,
            site_map: self.site_map,
        }
    }
}

/// Compile-time call resolution, mirroring `Interpreter::call_named`'s
/// name-only lookup order.
struct Resolver {
    /// For choice programs: the entry name, which shadows helpers and
    /// builtins (funcs\[0\] in the compiled function table).
    choice_entry: Option<String>,
    /// Compiled function names in table order.
    func_names: Vec<String>,
}

enum Callee {
    Func(usize),
    Print,
    Input { raw: bool },
    Builtin,
    Undefined,
}

impl Resolver {
    fn resolve(&self, name: &str) -> Callee {
        if let Some(entry) = &self.choice_entry {
            if entry == name {
                return Callee::Func(0);
            }
            // Helpers are funcs[1..]; first match wins like `Program::func`.
            if let Some(i) = self.func_names[1..].iter().position(|n| n == name) {
                return Callee::Func(1 + i);
            }
        } else if let Some(i) = self.func_names.iter().position(|n| n == name) {
            return Callee::Func(i);
        }
        if name == "print" {
            return Callee::Print;
        }
        if name == "input" || name == "raw_input" {
            return Callee::Input {
                raw: name == "raw_input",
            };
        }
        // Builtin membership depends only on the name.
        if builtins::call_builtin(name, &[]).is_some() {
            return Callee::Builtin;
        }
        Callee::Undefined
    }
}

struct LoopCtx {
    continue_target: usize,
    break_patches: Vec<usize>,
}

/// An operator position: fixed, or chosen from a table by a choice site.
enum Op<'a, T> {
    Fixed(T),
    Choice(ChoiceId, &'a [T]),
}

/// One expression node, seen through the shape MPY's [`Expr`] and M̃PY's
/// [`CExpr`] share, so that each lowering rule is written once for both.
enum ExprView<'a, E> {
    /// A choice-free M̃PY subtree, lowered as the MPY expression it is.
    Plain(&'a Expr),
    /// A set of alternative expressions; option 0 is the default.
    Choice(ChoiceId, &'a [E]),
    Int(i64),
    Bool(bool),
    Str(&'a str),
    None,
    Var(&'a str),
    Dict(&'a [(Expr, Expr)]),
    List(&'a [E]),
    Tuple(&'a [E]),
    Index(&'a E, &'a E),
    Slice(&'a E, Option<&'a E>, Option<&'a E>),
    BinOp(BinOp, &'a E, &'a E),
    UnaryOp(UnaryOp, &'a E),
    Compare(Op<'a, CmpOp>, &'a E, &'a E),
    BoolExpr(BoolOp, &'a E, &'a E),
    Call(&'a str, &'a [E]),
    MethodCall(&'a E, &'a str, &'a [E]),
    IfExpr(&'a E, &'a E, &'a E),
}

/// An expression type the compiler lowers: [`Expr`] or [`CExpr`].  The
/// `view` implementations are `#[inline]` so that building a view and
/// matching on it fold into one match: without it, lowering measured
/// about 10% slower.
trait ExprNode: Sized {
    fn view(&self) -> ExprView<'_, Self>;

    /// The variable this node reads when it is a bare variable: the operand
    /// the slot-direct instructions read in place.
    fn as_var(&self) -> Option<&str> {
        match self.view() {
            ExprView::Var(name) => Some(name),
            ExprView::Plain(Expr::Var(name)) => Some(name),
            _ => None,
        }
    }
}

impl ExprNode for Expr {
    #[inline]
    fn view(&self) -> ExprView<'_, Expr> {
        match self {
            Expr::Int(v) => ExprView::Int(*v),
            Expr::Bool(b) => ExprView::Bool(*b),
            Expr::Str(s) => ExprView::Str(s),
            Expr::None => ExprView::None,
            Expr::Var(name) => ExprView::Var(name),
            Expr::Dict(items) => ExprView::Dict(items),
            Expr::List(items) => ExprView::List(items),
            Expr::Tuple(items) => ExprView::Tuple(items),
            Expr::Index(base, index) => ExprView::Index(base, index),
            Expr::Slice(base, lower, upper) => {
                ExprView::Slice(base, lower.as_deref(), upper.as_deref())
            }
            Expr::BinOp(op, l, r) => ExprView::BinOp(*op, l, r),
            Expr::UnaryOp(op, e) => ExprView::UnaryOp(*op, e),
            Expr::Compare(op, l, r) => ExprView::Compare(Op::Fixed(*op), l, r),
            Expr::BoolExpr(op, l, r) => ExprView::BoolExpr(*op, l, r),
            Expr::Call(name, args) => ExprView::Call(name, args),
            Expr::MethodCall(recv, method, args) => ExprView::MethodCall(recv, method, args),
            Expr::IfExpr(body, cond, orelse) => ExprView::IfExpr(body, cond, orelse),
        }
    }
}

impl ExprNode for CExpr {
    #[inline]
    fn view(&self) -> ExprView<'_, CExpr> {
        fn op<T: Copy>(op: &OpChoice<T>) -> Op<'_, T> {
            match op {
                OpChoice::Fixed(op) => Op::Fixed(*op),
                OpChoice::Choice(id, ops) => Op::Choice(*id, ops),
            }
        }
        match self {
            CExpr::Plain(e) => ExprView::Plain(e),
            CExpr::Choice(id, options) => ExprView::Choice(*id, options),
            CExpr::List(items) => ExprView::List(items),
            CExpr::Tuple(items) => ExprView::Tuple(items),
            CExpr::Index(base, index) => ExprView::Index(base, index),
            CExpr::Slice(base, lower, upper) => {
                ExprView::Slice(base, lower.as_deref(), upper.as_deref())
            }
            CExpr::BinOp(o, l, r) => ExprView::BinOp(*o, l, r),
            CExpr::UnaryOp(o, e) => ExprView::UnaryOp(*o, e),
            CExpr::Compare(o, l, r) => ExprView::Compare(op(o), l, r),
            CExpr::BoolExpr(o, l, r) => ExprView::BoolExpr(*o, l, r),
            CExpr::Call(name, args) => ExprView::Call(name, args),
            CExpr::MethodCall(recv, method, args) => ExprView::MethodCall(recv, method, args),
            CExpr::IfExpr(body, cond, orelse) => ExprView::IfExpr(body, cond, orelse),
        }
    }
}

/// One statement, seen through the shape MPY's [`Stmt`] and M̃PY's
/// [`CStmt`] share.
enum StmtView<'a, S: StmtNode> {
    /// A choice between alternative blocks; option 0 is the original.
    ChoiceBlock(ChoiceId, &'a [Vec<S>]),
    Assign(&'a Target, &'a S::Expr),
    AugAssign(&'a Target, BinOp, &'a S::Expr),
    ExprStmt(&'a S::Expr),
    If(&'a S::Expr, &'a [S], &'a [S]),
    While(&'a S::Expr, &'a [S]),
    For(&'a str, &'a S::Expr, &'a [S]),
    Return(Option<&'a S::Expr>),
    Print(&'a [S::Expr]),
    Pass,
    Break,
    Continue,
}

/// A statement type the compiler lowers: [`Stmt`] or [`CStmt`].
trait StmtNode: Sized {
    type Expr: ExprNode;
    fn view(&self) -> StmtView<'_, Self>;
}

impl StmtNode for Stmt {
    type Expr = Expr;
    #[inline]
    fn view(&self) -> StmtView<'_, Stmt> {
        match &self.kind {
            StmtKind::Assign(target, value) => StmtView::Assign(target, value),
            StmtKind::AugAssign(target, op, value) => StmtView::AugAssign(target, *op, value),
            StmtKind::ExprStmt(e) => StmtView::ExprStmt(e),
            StmtKind::If(cond, then_body, else_body) => StmtView::If(cond, then_body, else_body),
            StmtKind::While(cond, body) => StmtView::While(cond, body),
            StmtKind::For(var, iter, body) => StmtView::For(var, iter, body),
            StmtKind::Return(e) => StmtView::Return(e.as_ref()),
            StmtKind::Print(args) => StmtView::Print(args),
            StmtKind::Pass => StmtView::Pass,
            StmtKind::Break => StmtView::Break,
            StmtKind::Continue => StmtView::Continue,
        }
    }
}

impl StmtNode for CStmt {
    type Expr = CExpr;
    #[inline]
    fn view(&self) -> StmtView<'_, CStmt> {
        match &self.kind {
            CStmtKind::ChoiceBlock(id, options) => StmtView::ChoiceBlock(*id, options),
            CStmtKind::Assign(target, value) => StmtView::Assign(target, value),
            CStmtKind::AugAssign(target, op, value) => StmtView::AugAssign(target, *op, value),
            CStmtKind::ExprStmt(e) => StmtView::ExprStmt(e),
            CStmtKind::If(cond, then_body, else_body) => StmtView::If(cond, then_body, else_body),
            CStmtKind::While(cond, body) => StmtView::While(cond, body),
            CStmtKind::For(var, iter, body) => StmtView::For(var, iter, body),
            CStmtKind::Return(e) => StmtView::Return(e.as_ref()),
            CStmtKind::Print(args) => StmtView::Print(args),
            CStmtKind::Pass => StmtView::Pass,
            CStmtKind::Break => StmtView::Break,
            CStmtKind::Continue => StmtView::Continue,
        }
    }
}

struct FnCompiler<'a> {
    pools: &'a mut Pools,
    resolver: &'a Resolver,
    code: Vec<Instr>,
    slot_names: Vec<String>,
    slot_map: HashMap<String, u32>,
    jump_tables: Vec<Vec<usize>>,
    cmp_tables: Vec<Vec<CmpOp>>,
    loops: Vec<LoopCtx>,
    /// Code positions `< fence` may be jump targets; `emit` never fuses
    /// into them.
    fence: usize,
}

/// Compiles one function, plain (`S = Stmt`) or choice-bearing
/// (`S = CStmt`).
fn compile_func<S: StmtNode>(
    name: &str,
    params: &[Param],
    body: &[S],
    resolver: &Resolver,
    pools: &mut Pools,
) -> CompiledFunc {
    let mut c = FnCompiler::new(pools, resolver);
    let param_slots: Vec<u32> = params.iter().map(|p| c.slot(&p.name)).collect();
    c.block(body);
    c.emit(Instr::ReturnNone);
    c.finish(name.to_string(), param_slots)
}

impl<'a> FnCompiler<'a> {
    fn new(pools: &'a mut Pools, resolver: &'a Resolver) -> FnCompiler<'a> {
        FnCompiler {
            pools,
            resolver,
            code: Vec::new(),
            slot_names: Vec::new(),
            slot_map: HashMap::new(),
            jump_tables: Vec::new(),
            cmp_tables: Vec::new(),
            loops: Vec::new(),
            fence: 0,
        }
    }

    fn finish(self, name: String, param_slots: Vec<u32>) -> CompiledFunc {
        CompiledFunc {
            name,
            param_slots,
            n_slots: self.slot_names.len(),
            slot_names: self.slot_names,
            code: self.code,
            jump_tables: self.jump_tables,
            cmp_tables: self.cmp_tables,
        }
    }

    /// Appends an instruction, fusing the ubiquitous `Charge` prefix into
    /// its successor (`ChargeN` / `ChargeConst` / `ChargeLoad`) when the
    /// previous slot cannot be a jump target — `fence` marks the last
    /// position handed out as a label, and fusing across it would make the
    /// landing pad skip (or double-spend) a fuel charge.
    fn emit(&mut self, instr: Instr) -> usize {
        if self.code.len() > self.fence {
            let last = self.code.len() - 1;
            match (self.code[last], instr) {
                (Instr::Charge, Instr::Charge) => {
                    self.code[last] = Instr::ChargeN(2);
                    return last;
                }
                (Instr::ChargeN(n), Instr::Charge) => {
                    self.code[last] = Instr::ChargeN(n + 1);
                    return last;
                }
                (Instr::Charge, Instr::Const(c)) => {
                    self.code[last] = Instr::ChargeConst(c);
                    return last;
                }
                (Instr::Charge, Instr::LoadSlot(s)) => {
                    self.code[last] = Instr::ChargeLoad(s);
                    return last;
                }
                (Instr::CompareOpI(op), Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpJumpFalse { op, target };
                    return last;
                }
                (Instr::CompareOpChoice { site, table }, Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpChoiceJumpFalse {
                        site,
                        table,
                        target,
                    };
                    return last;
                }
                (Instr::CompareSlot { op, slot }, Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpSlotJumpFalse { op, slot, target };
                    return last;
                }
                _ => {}
            }
        }
        self.code.push(instr);
        self.code.len() - 1
    }

    fn here(&mut self) -> usize {
        self.fence = self.code.len();
        self.code.len()
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalsePop(t)
            | Instr::JumpIfFalsePeek(t)
            | Instr::JumpIfTruePeek(t)
            | Instr::CmpJumpFalse { target: t, .. }
            | Instr::CmpChoiceJumpFalse { target: t, .. }
            | Instr::CmpSlotJumpFalse { target: t, .. }
            | Instr::ForNext { end: t, .. }
            | Instr::CallMethod { skip: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slot_map.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.slot_map.insert(name.to_string(), s);
        s
    }

    fn block<S: StmtNode>(&mut self, stmts: &[S]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt<S: StmtNode>(&mut self, stmt: &S) {
        let view = stmt.view();
        // Statement-level choices splice the selected block without
        // charging, exactly like the concretized program.
        if let StmtView::ChoiceBlock(id, options) = view {
            return self.choice_dispatch(id, options.len(), |c, i| c.block(&options[i]));
        }
        self.emit(Instr::Charge);
        match view {
            StmtView::ChoiceBlock(..) => unreachable!("handled before charging"),
            StmtView::Assign(target, value) => {
                self.expr(value);
                self.assign_target(target)
            }
            StmtView::AugAssign(target, op, value) => {
                self.expr(value);
                self.read_target(target);
                self.emit(Instr::BinaryOpAug(op));
                self.assign_target(target)
            }
            StmtView::ExprStmt(expr) => {
                self.expr(expr);
                self.emit(Instr::Pop);
            }
            StmtView::If(cond, then_body, else_body) => {
                self.expr(cond);
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.block(then_body);
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.block(else_body);
                self.patch(jend);
            }
            StmtView::While(cond, body) => {
                let l_cond = self.here();
                self.expr(cond);
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                // Per-iteration charge after the condition is truthy.
                self.emit(Instr::Charge);
                self.loops.push(LoopCtx {
                    continue_target: l_cond,
                    break_patches: Vec::new(),
                });
                self.block(body);
                self.emit(Instr::Jump(l_cond));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(jf);
                for b in ctx.break_patches {
                    self.patch(b);
                }
            }
            StmtView::For(var, iter, body) => {
                self.iter_prep(iter);
                let slot = self.slot(var);
                let l_next = self.here();
                let fornext = self.emit(Instr::ForNext { slot, end: 0 });
                self.loops.push(LoopCtx {
                    continue_target: l_next,
                    break_patches: Vec::new(),
                });
                self.block(body);
                self.emit(Instr::Jump(l_next));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(fornext);
                for b in ctx.break_patches {
                    self.patch(b);
                }
                self.emit(Instr::PopIter);
            }
            StmtView::Return(expr) => match expr {
                Some(e) => {
                    self.expr(e);
                    self.emit(Instr::ReturnV);
                }
                None => {
                    self.emit(Instr::ReturnNone);
                }
            },
            StmtView::Print(args) => {
                for arg in args {
                    self.expr(arg);
                }
                self.emit(Instr::PrintStmt(args.len() as u32));
            }
            StmtView::Pass => {}
            StmtView::Break => {
                // `Flow::Break` outside a loop propagates to the function
                // boundary, which returns `None`.
                match self.loops.last_mut() {
                    Some(_) => {
                        let j = self.emit(Instr::Jump(0));
                        self.loops
                            .last_mut()
                            .expect("loop ctx")
                            .break_patches
                            .push(j);
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
            }
            StmtView::Continue => match self.loops.last() {
                Some(ctx) => {
                    let target = ctx.continue_target;
                    self.emit(Instr::Jump(target));
                }
                None => {
                    self.emit(Instr::ReturnNone);
                }
            },
        }
    }

    /// Compiles an assignment to `target`, consuming the value on top of
    /// the stack.  Mirrors `Interpreter::assign` exactly, including the
    /// index-then-base evaluation order and the re-evaluating write-back
    /// chain for nested index targets.
    fn assign_target(&mut self, target: &Target) {
        match target {
            Target::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::StoreSlot(slot));
            }
            Target::Index(base, index) => {
                self.expr(index);
                self.expr(base);
                self.emit(Instr::StoreIndex);
                self.assign_base(base)
            }
            Target::Tuple(targets) => {
                self.emit(Instr::Unpack(targets.len() as u32));
                for t in targets {
                    self.assign_target(t);
                }
            }
        }
    }

    /// Writes the mutated container on top of the stack back to `base`'s
    /// own location (`expr_as_target` semantics: variables and index
    /// chains are assignable, anything else silently drops the value).  A
    /// choice site dispatches into each option's own write-back, the
    /// location of `expr_as_target(concretize(base))`.
    fn assign_base<E: ExprNode>(&mut self, base: &E) {
        match base.view() {
            ExprView::Plain(e) => self.assign_base(e),
            ExprView::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::StoreSlot(slot));
            }
            ExprView::Index(inner, index) => {
                self.expr(index);
                self.expr(inner);
                self.emit(Instr::StoreIndex);
                self.assign_base(inner)
            }
            ExprView::Choice(id, options) => {
                self.choice_dispatch(id, options.len(), |c, i| c.assign_base(&options[i]));
            }
            _ => {
                self.emit(Instr::Pop);
            }
        }
    }

    /// Mirrors `Interpreter::read_target` (note: base before index, the
    /// opposite of the assignment order).
    fn read_target(&mut self, target: &Target) {
        match target {
            Target::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::LoadSlot(slot));
            }
            Target::Index(base, index) => {
                self.expr(base);
                self.expr(index);
                self.emit(Instr::LoadIndex);
            }
            Target::Tuple(_) => {
                let e = self.pools.error_idx(RuntimeError::Type(
                    "augmented assignment to a tuple target is not allowed".to_string(),
                ));
                self.emit(Instr::Raise(e));
            }
        }
    }

    /// `true` when evaluating the expression may write a local slot.
    /// Method calls are the only expression form with a slot write-back
    /// (user-function calls run in their own frame, and choice dispatch
    /// writes nothing), so this is the guard for slot-direct
    /// specialisations: a `CheckSlot`ed slot must stay set — and
    /// un-swapped — until the specialised read.
    fn mutates_slots<E: ExprNode>(expr: &E) -> bool {
        match expr.view() {
            ExprView::Int(_)
            | ExprView::Bool(_)
            | ExprView::Str(_)
            | ExprView::None
            | ExprView::Var(_) => false,
            ExprView::Plain(e) => Self::mutates_slots(e),
            ExprView::Choice(_, items) | ExprView::List(items) | ExprView::Tuple(items) => {
                items.iter().any(Self::mutates_slots)
            }
            ExprView::Dict(items) => items
                .iter()
                .any(|(k, v)| Self::mutates_slots(k) || Self::mutates_slots(v)),
            ExprView::Index(base, index) => Self::mutates_slots(base) || Self::mutates_slots(index),
            ExprView::Slice(base, lower, upper) => {
                Self::mutates_slots(base)
                    || lower.is_some_and(Self::mutates_slots)
                    || upper.is_some_and(Self::mutates_slots)
            }
            ExprView::BinOp(_, l, r) | ExprView::Compare(_, l, r) | ExprView::BoolExpr(_, l, r) => {
                Self::mutates_slots(l) || Self::mutates_slots(r)
            }
            ExprView::UnaryOp(_, e) => Self::mutates_slots(e),
            ExprView::Call(_, args) => args.iter().any(Self::mutates_slots),
            ExprView::MethodCall(..) => true,
            ExprView::IfExpr(a, b, c) => {
                Self::mutates_slots(a) || Self::mutates_slots(b) || Self::mutates_slots(c)
            }
        }
    }

    fn expr<E: ExprNode>(&mut self, expr: &E) {
        let view = expr.view();
        match view {
            // A choice-free subtree charges through the MPY lowering; a
            // choice node has no concrete counterpart and charges nothing.
            ExprView::Plain(e) => return self.expr(e),
            ExprView::Choice(id, options) => {
                return self.choice_dispatch(id, options.len(), |c, i| c.expr(&options[i]));
            }
            _ => {}
        }
        self.emit(Instr::Charge);
        match view {
            ExprView::Plain(_) | ExprView::Choice(..) => unreachable!("handled before charging"),
            ExprView::Int(v) => self.constant(Value::Int(v)),
            ExprView::Bool(b) => self.constant(Value::Bool(b)),
            ExprView::Str(s) => self.constant(Value::Str(s.to_string())),
            ExprView::None => self.constant(Value::None),
            ExprView::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::LoadSlot(slot));
            }
            ExprView::List(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeList(items.len() as u32));
            }
            ExprView::Tuple(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeTuple(items.len() as u32));
            }
            ExprView::Dict(items) => {
                for (k, v) in items {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Instr::MakeDict(items.len() as u32));
            }
            ExprView::Index(base, index) => {
                // `v[i]` with a mutation-free index reads the element
                // straight out of the slot instead of cloning the whole
                // container.  `CheckSlot` fires the base's `NameError`
                // before the index runs, matching tree-walker order; the
                // charges (entry + base var) fuse.
                if let Some(name) = base.as_var() {
                    if !Self::mutates_slots(index) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        self.expr(index);
                        self.emit(Instr::LoadIndexSlot(slot));
                        return;
                    }
                }
                self.expr(base);
                self.expr(index);
                self.emit(Instr::LoadIndex);
            }
            ExprView::Slice(base, lower, upper) => {
                self.expr(base);
                if let Some(e) = lower {
                    self.expr(e);
                }
                if let Some(e) = upper {
                    self.expr(e);
                }
                self.emit(Instr::Slice {
                    has_lower: lower.is_some(),
                    has_upper: upper.is_some(),
                });
            }
            ExprView::BinOp(op, left, right) => {
                self.expr(left);
                self.expr(right);
                self.emit(Instr::BinaryOp(op));
            }
            ExprView::UnaryOp(op, operand) => {
                self.expr(operand);
                self.emit(Instr::UnaryOpI(op));
            }
            ExprView::Compare(op, left, right) => {
                // A variable on the right is compared straight out of its
                // slot — the slot read sits exactly where the tree walker
                // evaluates the right operand, so error order and any
                // left-side mutation are observed identically.
                if let Some(name) = right.as_var() {
                    let slot = self.slot(name);
                    self.expr(left);
                    self.emit(Instr::Charge);
                    let instr = match op {
                        Op::Fixed(op) => Instr::CompareSlot { op, slot },
                        Op::Choice(id, ops) => {
                            let (site, table) = self.cmp_table(id, ops);
                            Instr::CompareChoiceSlot { site, table, slot }
                        }
                    };
                    self.emit(instr);
                    return;
                }
                self.expr(left);
                self.expr(right);
                let instr = match op {
                    Op::Fixed(op) => Instr::CompareOpI(op),
                    Op::Choice(id, ops) => {
                        let (site, table) = self.cmp_table(id, ops);
                        Instr::CompareOpChoice { site, table }
                    }
                };
                self.emit(instr);
            }
            ExprView::BoolExpr(op, left, right) => {
                self.expr(left);
                let j = match op {
                    BoolOp::And => self.emit(Instr::JumpIfFalsePeek(0)),
                    BoolOp::Or => self.emit(Instr::JumpIfTruePeek(0)),
                };
                self.expr(right);
                self.patch(j);
            }
            ExprView::Call(name, args) => {
                // `len(v)` on a variable measures the slot in place —
                // only when `len` really is the builtin.  One fused
                // charge pair (call + argument), same as the generic
                // path; `LenSlot` raises the variable's `NameError`
                // before the builtin's `TypeError`, like the walker.
                if let ("len", [arg]) = (name, args) {
                    if let Some(var) = arg.as_var() {
                        if matches!(self.resolver.resolve(name), Callee::Builtin) {
                            let slot = self.slot(var);
                            self.emit(Instr::Charge);
                            self.emit(Instr::LenSlot(slot));
                            return;
                        }
                    }
                }
                for arg in args {
                    self.expr(arg);
                }
                self.call_named(name, args.len());
            }
            ExprView::MethodCall(recv, method, args) => {
                // `v.m(...)` runs on the slot in place when no argument
                // can swap the slot out from under it; `CheckSlot` keeps
                // the receiver's `NameError` ahead of argument errors.
                if let Some(name) = recv.as_var() {
                    if !args.iter().any(Self::mutates_slots) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        for arg in args {
                            self.expr(arg);
                        }
                        let name = self.pools.name_idx(method);
                        self.emit(Instr::CallMethodSlot {
                            name,
                            argc: args.len() as u32,
                            slot,
                        });
                        return;
                    }
                }
                self.expr(recv);
                for arg in args {
                    self.expr(arg);
                }
                self.call_method(method, args.len(), |c| c.assign_base(recv));
            }
            ExprView::IfExpr(body, cond, orelse) => {
                self.expr(cond);
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.expr(body);
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.expr(orelse);
                self.patch(jend);
            }
        }
    }

    fn constant(&mut self, value: Value) {
        let c = self.pools.const_idx(value);
        self.emit(Instr::Const(c));
    }

    /// Interns the operator table of comparison choice site `id`.
    fn cmp_table(&mut self, id: ChoiceId, ops: &[CmpOp]) -> (u32, u32) {
        let site = self.pools.site(id);
        let table = self.cmp_tables.len() as u32;
        self.cmp_tables.push(ops.to_vec());
        (site, table)
    }

    /// Emits a `CallMethod` over the receiver and arguments already on the
    /// stack, followed by `writeback`, which stores the mutated receiver
    /// back to its location and runs only when the call mutated it —
    /// `Interpreter::eval`'s `expr_as_target` re-assignment, index chain
    /// re-evaluated and all.
    fn call_method(&mut self, method: &str, argc: usize, writeback: impl FnOnce(&mut Self)) {
        let name = self.pools.name_idx(method);
        let call = self.emit(Instr::CallMethod {
            name,
            argc: argc as u32,
            skip: 0,
        });
        writeback(self);
        self.patch(call);
    }

    /// Compiles a `for` statement's iterable, leaving an iterator on the
    /// iterator stack.  `for v in range(...)` — the dominant loop form in
    /// the benchmarks — gets the lazy `RangePrep` when `range` really is
    /// the builtin (a user function of that name shadows it); fuel parity
    /// holds because the call expression charges exactly as before and
    /// neither `CallBuiltin` nor `IterPrep` ever charged.  A choice over
    /// iterables dispatches into per-option preps, so a `range` under an
    /// error-model choice site still gets the lazy form.
    fn iter_prep<E: ExprNode>(&mut self, iter: &E) {
        match iter.view() {
            ExprView::Plain(e) => self.iter_prep(e),
            ExprView::Choice(id, options) => {
                self.choice_dispatch(id, options.len(), |c, i| c.iter_prep(&options[i]))
            }
            ExprView::Call(name, args)
                if name == "range" && matches!(self.resolver.resolve(name), Callee::Builtin) =>
            {
                self.emit(Instr::Charge);
                for arg in args {
                    self.expr(arg);
                }
                self.emit(Instr::RangePrep(args.len() as u32));
            }
            _ => {
                self.expr(iter);
                self.emit(Instr::IterPrep);
            }
        }
    }

    fn call_named(&mut self, name: &str, argc: usize) {
        match self.resolver.resolve(name) {
            Callee::Func(i) => {
                self.emit(Instr::CallFunc {
                    func: i as u32,
                    argc: argc as u32,
                });
            }
            Callee::Print => {
                self.emit(Instr::PrintExpr(argc as u32));
            }
            Callee::Input { raw } => {
                // Arguments are evaluated, then ignored.
                if argc > 0 {
                    self.emit(Instr::PopN(argc as u32));
                }
                self.emit(Instr::Input { raw });
            }
            Callee::Builtin => {
                let n = self.pools.name_idx(name);
                self.emit(Instr::CallBuiltin {
                    name: n,
                    argc: argc as u32,
                });
            }
            Callee::Undefined => {
                let e = self
                    .pools
                    .error_idx(RuntimeError::Name(format!("name '{name}' is not defined")));
                self.emit(Instr::Raise(e));
            }
        }
    }

    /// Emits a `ChoiceJump` dispatch over `count` alternatives, each
    /// compiled by `body`, all joining at the end.  Charges nothing — the
    /// choice node has no concrete counterpart.
    fn choice_dispatch(
        &mut self,
        id: ChoiceId,
        count: usize,
        mut body: impl FnMut(&mut Self, usize),
    ) {
        let site = self.pools.site(id);
        let dispatch = self.emit(Instr::ChoiceJump { site, table: 0 });
        let mut targets = Vec::with_capacity(count);
        let mut joins = Vec::with_capacity(count);
        for i in 0..count {
            targets.push(self.here());
            body(self, i);
            joins.push(self.emit(Instr::Jump(0)));
        }
        for j in joins {
            self.patch(j);
        }
        let table = self.jump_tables.len() as u32;
        self.jump_tables.push(targets);
        if let Instr::ChoiceJump { table: t, .. } = &mut self.code[dispatch] {
            *t = table;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_function;
    use afg_parser::parse_program;

    fn assert_same(source: &str, entry: &str, args: &[Value]) {
        let program = parse_program(source).unwrap();
        let compiled = CompiledProgram::from_program(&program, Some(entry)).expect("compiles");
        let mut vm = Vm::new(ExecLimits::default());
        let vm_result = vm.run(&compiled, args);
        let tree = run_function(&program, Some(entry), args, ExecLimits::default());
        match (&vm_result, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("VM and tree walker disagree: {vm_result:?} vs {tree:?}"),
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        assert_same(
            "def f(x):\n    y = x * 2 + 1\n    return y - 3\n",
            "f",
            &[Value::Int(10)],
        );
    }

    #[test]
    fn loops_recursion_and_builtins() {
        let source = "\
def recurPower(base, exp):
    if exp == 0:
        return 1
    return base * recurPower(base, exp - 1)
";
        assert_same(source, "recurPower", &[Value::Int(3), Value::Int(4)]);
        let source = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        result += [i * poly[i]]
    if len(poly) == 1:
        return result
    else:
        return result[1:]
";
        assert_same(source, "computeDeriv", &[Value::int_list([2, -3, 1, 4])]);
        assert_same(source, "computeDeriv", &[Value::int_list([7])]);
        assert_same(source, "computeDeriv", &[Value::List(vec![])]);
    }

    #[test]
    fn errors_match_the_tree_walker() {
        assert_same(
            "def f(xs):\n    return xs[10]\n",
            "f",
            &[Value::int_list([1, 2])],
        );
        assert_same("def f(x):\n    return x + missing\n", "f", &[Value::Int(1)]);
        assert_same("def f(x):\n    return x / 0\n", "f", &[Value::Int(1)]);
        assert_same("def f(x, y):\n    return x\n", "f", &[Value::Int(1)]);
    }

    #[test]
    fn mutating_methods_write_back() {
        assert_same(
            "def f(poly):\n    poly.pop(0)\n    return poly\n",
            "f",
            &[Value::int_list([1, 2, 3])],
        );
        assert_same(
            "def f(xs):\n    ys = xs\n    ys.append(9)\n    return xs + ys\n",
            "f",
            &[Value::int_list([1])],
        );
    }

    #[test]
    fn index_receiver_method_calls_write_back() {
        let nested = || {
            Value::List(vec![
                Value::List(vec![Value::int_list([1]), Value::int_list([2, 3])]),
                Value::List(vec![Value::int_list([4])]),
            ])
        };
        let cases: [(&str, Vec<Value>); 7] = [
            (
                "def f(xs):\n    xs[0].append(1)\n    return xs\n",
                vec![Value::List(vec![
                    Value::int_list([1]),
                    Value::int_list([2]),
                ])],
            ),
            (
                "def f(xs):\n    xs[0][1].append(2)\n    return xs\n",
                vec![nested()],
            ),
            (
                "def f(xs):\n    v = xs[len(xs)-1].pop()\n    return [v, xs]\n",
                vec![nested()],
            ),
            // Non-mutating: no write-back at all.
            (
                "def f(xs):\n    return xs[0].count(1) + len(xs)\n",
                vec![Value::List(vec![Value::int_list([1, 1])])],
            ),
            // The write-back re-runs the index expression, side effects
            // included: the second `ys.pop()` stores into `xs[1]`...
            (
                "def f(xs, ys):\n    xs[ys.pop()].append(9)\n    return [xs, ys]\n",
                vec![
                    Value::List(vec![Value::int_list([1]), Value::int_list([2])]),
                    Value::int_list([5, 1, 0]),
                ],
            ),
            // ...or out of range, failing in the write-back itself.
            (
                "def f(xs, ys):\n    xs[ys.pop()].append(9)\n    return xs\n",
                vec![
                    Value::List(vec![Value::int_list([1])]),
                    Value::int_list([5, 0]),
                ],
            ),
            // A receiver that is not a location drops the mutation.
            (
                "def f(xs):\n    (xs + [[7]])[1].append(8)\n    return xs\n",
                vec![Value::List(vec![Value::int_list([1])])],
            ),
        ];
        for (source, args) in &cases {
            assert_same(source, "f", args);
        }
        // The out-of-range case really errors, in the write-back.
        let program = parse_program(cases[5].0).unwrap();
        let compiled = CompiledProgram::from_program(&program, Some("f")).unwrap();
        assert!(matches!(
            Vm::new(ExecLimits::default()).run(&compiled, &cases[5].1),
            Err(RuntimeError::Index(_))
        ));
    }

    #[test]
    fn fuel_parity_across_budgets() {
        let looped = "\
def f(n):
    total = 0
    i = 0
    while i < n:
        total += i * i
        i = i + 1
    return total
";
        let write_back = "\
def f(n):
    xs = [[n], []]
    xs[0].append(1)
    xs[len(xs) - 1].append(xs[0].pop())
    return xs
";
        for source in [looped, write_back] {
            fuel_parity(source);
        }
    }

    fn fuel_parity(source: &str) {
        let program = parse_program(source).unwrap();
        let compiled = CompiledProgram::from_program(&program, Some("f")).unwrap();
        for fuel in 1..160 {
            let limits = ExecLimits {
                fuel,
                max_recursion: 32,
            };
            let mut vm = Vm::new(limits);
            let vm_result = vm.run(&compiled, &[Value::Int(5)]);
            let mut interp = crate::interp::Interpreter::with_limits(&program, limits);
            let tree = interp
                .call_entry(Some("f"), &[Value::Int(5)])
                .map(|o| o.value);
            match (&vm_result, &tree) {
                (Ok(a), Ok(b)) => assert_eq!(&a.value, b, "fuel {fuel}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "fuel {fuel}"),
                _ => panic!("fuel {fuel}: {vm_result:?} vs {tree:?}"),
            }
            assert_eq!(vm.fuel_used(), interp.fuel_used(), "fuel used at {fuel}");
        }
    }

    #[test]
    fn tuple_unpacking_and_nested_assignment() {
        assert_same(
            "def f(p):\n    a, b = p\n    return a - b\n",
            "f",
            &[Value::Tuple(vec![Value::Int(9), Value::Int(4)])],
        );
        assert_same(
            "def f(m):\n    m[0][1] = 7\n    return m\n",
            "f",
            &[Value::List(vec![
                Value::int_list([1, 2]),
                Value::int_list([3, 4]),
            ])],
        );
        assert_same(
            "def f(p):\n    a, b = p\n    return a\n",
            "f",
            &[Value::int_list([1, 2, 3])],
        );
    }

    #[test]
    fn short_circuit_and_conditional_expressions() {
        let source = "\
def f(x):
    y = 1 if x > 0 else -1
    return y * x or 99
";
        assert_same(source, "f", &[Value::Int(5)]);
        assert_same(source, "f", &[Value::Int(0)]);
    }

    /// Runs the compiled choice program under `assignment` and asserts it
    /// observes exactly what the concretized candidate does on the tree
    /// walker (value, output, or error kind).
    fn assert_choice_agrees(
        program: &ChoiceProgram,
        assignment: &ChoiceAssignment,
        args: &[Value],
        limits: ExecLimits,
    ) -> Result<Outcome, RuntimeError> {
        let compiled = CompiledProgram::from_choice(program);
        let mut vm = Vm::new(limits);
        vm.select(&compiled, assignment);
        let direct = vm.run(&compiled, args);
        let concrete = program.concretize(assignment);
        let tree = run_function(&concrete, Some(&program.func.name), args, limits);
        match (&direct, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "outcomes differ for {assignment:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "errors differ for {assignment:?}"),
            _ => panic!("engines disagree for {assignment:?}: {direct:?} vs {tree:?}"),
        }
        direct
    }

    fn figure_2a_choices() -> ChoiceProgram {
        let student = parse_program(
            "def computeDeriv(poly):\n    deriv = []\n    zero = 0\n    if (len(poly) == 1):\n        return deriv\n    for e in range(0, len(poly)):\n        if (poly[e] == 0):\n            zero += 1\n        else:\n            deriv.append(poly[e]*e)\n    return deriv\n",
        )
        .unwrap();
        afg_eml::apply_error_model(
            &student,
            Some("computeDeriv"),
            &afg_eml::library::compute_deriv_model(),
        )
        .unwrap()
    }

    #[test]
    fn compiled_choice_program_dispatches_on_selection() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        let student = parse_program(
            "def iterPower(base, exp):\n    result = 0\n    for i in range(exp):\n        result *= base\n    return result\n",
        )
        .unwrap();
        let model = ErrorModel::new("m")
            .with_rule(library::initr())
            .with_rule(library::ranr1());
        let cp = apply_error_model(&student, Some("iterPower"), &model).unwrap();
        let compiled = CompiledProgram::from_choice(&cp);
        assert!(compiled.site_count() > 0);
        let args = [Value::Int(3), Value::Int(2)];
        // Sweep every single-site selection and compare with the
        // concretized candidate on the tree walker, on result and output.
        let mut assignments = vec![ChoiceAssignment::default_choices()];
        for info in &cp.choices {
            for option in 0..info.options.len() + 1 {
                assignments.push(ChoiceAssignment::from_pairs([(info.id, option)]));
            }
        }
        for assignment in &assignments {
            let _ = assert_choice_agrees(&cp, assignment, &args, ExecLimits::fast());
        }
    }

    #[test]
    fn all_single_selections_agree_with_concretisation() {
        let cp = figure_2a_choices();
        let inputs = [
            vec![Value::int_list([2, -3, 1, 4])],
            vec![Value::int_list([7])],
            vec![Value::List(vec![])],
        ];
        for args in &inputs {
            assert_single_sites_agree(&cp, args);
        }
    }

    #[test]
    fn recursive_entry_calls_reenter_the_choice_function() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        // recurPower calls itself; the recursive call must see the same
        // choice assignment, not the original program.
        let student = parse_program(
            "def recurPower(base, exp):\n    acc = 0\n    if exp == 0:\n        return acc\n    return base * recurPower(base, exp - 1)\n",
        )
        .unwrap();
        let model = ErrorModel::new("m").with_rule(library::initr());
        let cp = apply_error_model(&student, Some("recurPower"), &model).unwrap();
        // Find the option replacing the erroneous initialiser `acc = 0`.
        let fix = cp
            .choices
            .iter()
            .find_map(|info| {
                info.options
                    .iter()
                    .position(|o| o == "1")
                    .map(|option| (info.id, option))
            })
            .expect("INITR offers constant 1 somewhere");
        let args = [Value::Int(3), Value::Int(2)];
        let limits = ExecLimits::fast();
        let broken =
            assert_choice_agrees(&cp, &ChoiceAssignment::default_choices(), &args, limits).unwrap();
        assert_eq!(broken.value, Value::Int(0), "default keeps the bug");
        let fixed =
            assert_choice_agrees(&cp, &ChoiceAssignment::from_pairs([fix]), &args, limits).unwrap();
        assert_eq!(
            fixed.value,
            Value::Int(9),
            "the recursive call sees the fixed base case"
        );
    }

    #[test]
    fn helper_functions_are_callable_from_the_choice_entry() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        let student = parse_program(
            "def helper(x):\n    return x * 2\ndef f(n):\n    return helper(n) + 0\n",
        )
        .unwrap();
        let model = ErrorModel::new("m").with_rule(library::const_tweak());
        let cp = apply_error_model(&student, Some("f"), &model).unwrap();
        let out = assert_choice_agrees(
            &cp,
            &ChoiceAssignment::default_choices(),
            &[Value::Int(5)],
            ExecLimits::fast(),
        )
        .unwrap();
        assert_eq!(out.value, Value::Int(10));
        for info in &cp.choices {
            for option in 1..info.options.len() {
                let _ = assert_choice_agrees(
                    &cp,
                    &ChoiceAssignment::from_pairs([(info.id, option)]),
                    &[Value::Int(5)],
                    ExecLimits::fast(),
                );
            }
        }
    }

    #[test]
    fn mutating_method_calls_write_back_through_choices() {
        use afg_eml::{apply_error_model, ErrorModel};
        // poly.pop(0) mutates the receiver; the write-back must hit the
        // same variable in a compiled choice program.
        let student = parse_program("def f(poly):\n    poly.pop(0)\n    return poly\n").unwrap();
        let cp = apply_error_model(&student, Some("f"), &ErrorModel::new("empty")).unwrap();
        let out = assert_choice_agrees(
            &cp,
            &ChoiceAssignment::default_choices(),
            &[Value::int_list([1, 2, 3])],
            ExecLimits::fast(),
        )
        .unwrap();
        assert_eq!(out.value, Value::int_list([2, 3]));
    }

    /// Every single-site assignment of `cp`, default included, agrees
    /// with its concretized candidate on `args`.
    fn assert_single_sites_agree(cp: &ChoiceProgram, args: &[Value]) {
        let _ = assert_choice_agrees(
            cp,
            &ChoiceAssignment::default_choices(),
            args,
            ExecLimits::fast(),
        );
        for info in &cp.choices {
            for option in 1..info.options.len() {
                let assignment = ChoiceAssignment::from_pairs([(info.id, option)]);
                let _ = assert_choice_agrees(cp, &assignment, args, ExecLimits::fast());
            }
        }
    }

    /// The receiver of the method call that is `cp`'s first statement.
    fn first_receiver(cp: &ChoiceProgram) -> &CExpr {
        match &cp.func.body[0].kind {
            CStmtKind::ExprStmt(CExpr::MethodCall(recv, ..)) => recv,
            other => panic!("expected a method-call statement, got {other:?}"),
        }
    }

    #[test]
    fn choice_receivers_write_back_through_the_selected_location() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        // The receiver itself is a choice site over `xs` / `ys`.
        let student =
            parse_program("def f(xs, ys):\n    xs.append(len(ys))\n    return [xs, ys]\n").unwrap();
        let model = ErrorModel::new("m").with_rule(library::var_swap());
        let cp = apply_error_model(&student, Some("f"), &model).unwrap();
        assert!(matches!(first_receiver(&cp), CExpr::Choice(..)));
        assert_single_sites_agree(&cp, &[Value::int_list([1]), Value::int_list([2, 3])]);

        // The receiver is an index chain whose indices hold choice sites.
        let student =
            parse_program("def f(xs):\n    xs[0][1].append(1)\n    xs[1].pop()\n    return xs\n")
                .unwrap();
        let model = ErrorModel::new("m").with_rule(library::const_tweak());
        let cp = apply_error_model(&student, Some("f"), &model).unwrap();
        let CExpr::Index(base, index) = first_receiver(&cp) else {
            panic!("expected an index receiver");
        };
        assert!(matches!(**index, CExpr::Choice(..)));
        assert!(
            matches!(**base, CExpr::Index(_, ref inner) if matches!(**inner, CExpr::Choice(..)))
        );
        let grid = Value::List(vec![
            Value::List(vec![
                Value::int_list([1]),
                Value::int_list([2]),
                Value::int_list([3]),
            ]),
            Value::List(vec![Value::int_list([4]), Value::int_list([5])]),
            Value::List(vec![Value::int_list([6])]),
        ]);
        assert_single_sites_agree(&cp, &[grid]);
    }

    #[test]
    fn fuel_accounting_matches_the_concrete_interpreter_exactly() {
        // Probe every fuel budget around the program's exact cost: at each
        // budget the VM and the concretized candidate must agree on whether
        // fuel runs out, and on the outcome when it does not.
        let cp = figure_2a_choices();
        let assignment = ChoiceAssignment::from_pairs(
            cp.choices
                .first()
                .map(|info| (info.id, 1))
                .into_iter()
                .collect::<Vec<_>>(),
        );
        let args = [Value::int_list([2, -3, 1, 4])];
        for fuel in 1..200u64 {
            let limits = ExecLimits {
                fuel,
                max_recursion: 32,
            };
            let _ = assert_choice_agrees(&cp, &assignment, &args, limits);
        }
    }

    #[test]
    fn trace_records_each_site_once_per_run() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        // One site (the constant 3), consulted once per loop iteration.
        let student = parse_program(
            "def f(n):\n    total = n\n    for i in range(n):\n        total += 3\n    return total\n",
        )
        .unwrap();
        let model = ErrorModel::new("m").with_rule(library::const_tweak());
        let cp = apply_error_model(&student, Some("f"), &model).unwrap();
        assert_eq!(cp.choices.len(), 1);
        let compiled = CompiledProgram::from_choice(&cp);
        let mut vm = Vm::new(ExecLimits::fast());
        let assignment = ChoiceAssignment::from_pairs([(cp.choices[0].id, 1)]);
        vm.select(&compiled, &assignment);
        // Every run starts a fresh key: the second run records the site
        // again, and a run that never reaches it records nothing.
        for (n, steps) in [(10, 1), (10, 1), (0, 0), (1, 1)] {
            let out = vm.run(&compiled, &[Value::Int(n)]).unwrap();
            assert_eq!(out.value, Value::Int(n + 4 * n), "option 1 adds 4");
            assert_eq!(vm.trace().len(), steps, "n = {n}");
        }
        assert_eq!(
            vm.trace(),
            [TraceStep {
                site: 0,
                bound: 3,
                option: 1
            }]
        );

        // No trace repeats a site, whatever the selection.
        let cp = figure_2a_choices();
        let compiled = CompiledProgram::from_choice(&cp);
        let mut assignments = vec![ChoiceAssignment::default_choices()];
        for info in &cp.choices {
            for option in 1..info.options.len() {
                assignments.push(ChoiceAssignment::from_pairs([(info.id, option)]));
            }
        }
        for assignment in &assignments {
            vm.select(&compiled, assignment);
            for poly in [vec![2, -3, 1, 4], vec![0, 0, 5], vec![7]] {
                let _ = vm.run(&compiled, &[Value::int_list(poly)]);
                let mut sites: Vec<u32> = vm.trace().iter().map(|step| step.site).collect();
                sites.sort_unstable();
                sites.dedup();
                assert_eq!(sites.len(), vm.trace().len(), "{assignment:?}");
            }
        }
    }

    #[test]
    fn choice_id_out_of_range_clamps_like_concretize() {
        let cp = figure_2a_choices();
        let args = [Value::int_list([1, 2])];
        // Selecting an absurd option index clamps to the last option, the
        // same as `concretize`.
        if let Some(info) = cp.choices.first() {
            let assignment = ChoiceAssignment::from_pairs([(info.id, 99)]);
            let _ = assert_choice_agrees(&cp, &assignment, &args, ExecLimits::fast());
        }
        // Selecting an unknown choice id is ignored by both paths.
        let assignment = ChoiceAssignment::from_pairs([(ChoiceId(9999), 1)]);
        let _ = assert_choice_agrees(&cp, &assignment, &args, ExecLimits::fast());
    }
}
