//! A definitional interpreter for MPY.
//!
//! The grader uses the interpreter in two roles:
//!
//! * as the **verification oracle** — candidate corrected programs are run
//!   against the reference implementation on every input of a bounded size
//!   (the paper performs the same bounded equivalence check symbolically
//!   inside SKETCH), and
//! * as the **baseline grader** — the test-case feedback approach simply runs
//!   the submission on a handful of inputs.
//!
//! Execution is bounded by a *fuel* budget (steps) and a recursion-depth
//! limit so that student infinite loops terminate deterministically; running
//! out of fuel surfaces as [`RuntimeError::FuelExhausted`].

use std::collections::HashMap;
use std::sync::Arc;

use afg_ast::ops::{BinOp, BoolOp, CmpOp, UnaryOp};
use afg_ast::{Expr, FuncDef, Program, Stmt, StmtKind, Target};

use crate::builtins::{self, normalise_index};
use crate::error::RuntimeError;
use crate::value::Value;

/// Resource bounds for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum number of interpreter steps (statements, expression nodes and
    /// loop iterations each cost one unit).
    pub fuel: u64,
    /// Maximum user-function call depth.
    pub max_recursion: u32,
}

impl Default for ExecLimits {
    fn default() -> ExecLimits {
        ExecLimits {
            fuel: 200_000,
            max_recursion: 64,
        }
    }
}

impl ExecLimits {
    /// A tighter budget suitable for the inner loop of synthesis, where
    /// millions of candidate executions may be needed.
    pub fn fast() -> ExecLimits {
        ExecLimits {
            fuel: 20_000,
            max_recursion: 32,
        }
    }
}

/// The observable result of running an MPY function: its return value plus
/// everything it printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The function's return value (`None` if it fell off the end).
    pub value: Value,
    /// Lines printed during execution, in order.
    pub output: Vec<String>,
}

/// Control-flow signal produced by executing a statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// A local frame.  Keyed by shared `Arc<str>` so hot binding sites (loop
/// variables) clone a pointer instead of the name's bytes.
type Frame = HashMap<Arc<str>, Value>;

/// An interpreter instance bound to one program.
pub struct Interpreter<'p> {
    program: &'p Program,
    limits: ExecLimits,
    fuel: u64,
    depth: u32,
    output: Vec<String>,
    stdin: Vec<Value>,
    stdin_pos: usize,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with default limits.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        Interpreter::with_limits(program, ExecLimits::default())
    }

    /// Creates an interpreter with explicit limits.
    pub fn with_limits(program: &'p Program, limits: ExecLimits) -> Interpreter<'p> {
        Interpreter {
            program,
            limits,
            fuel: limits.fuel,
            depth: 0,
            output: Vec::new(),
            stdin: Vec::new(),
            stdin_pos: 0,
        }
    }

    /// Provides values returned by successive `input()` / `raw_input()`
    /// calls (used by the stdin-driven benchmark problems).
    pub fn with_stdin(mut self, values: Vec<Value>) -> Interpreter<'p> {
        self.stdin = values;
        self
    }

    /// Calls the program's entry function on `args` and returns its outcome.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised during execution, including
    /// `FuelExhausted` for programs that loop too long and a `TypeError`
    /// when the function's arity does not match `args`.
    pub fn call_entry(
        &mut self,
        entry: Option<&str>,
        args: &[Value],
    ) -> Result<Outcome, RuntimeError> {
        let func = self
            .program
            .entry(entry)
            .ok_or_else(|| RuntimeError::Name("program defines no function".to_string()))?;
        self.fuel = self.limits.fuel;
        self.output.clear();
        self.stdin_pos = 0;
        let value = self.call_func(func, args.to_vec())?;
        Ok(Outcome {
            value,
            output: std::mem::take(&mut self.output),
        })
    }

    /// Runs the program's top-level statements (for print/stdin style
    /// problems) and returns the `None` value plus the captured output.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised during execution.
    pub fn run_top_level(&mut self) -> Result<Outcome, RuntimeError> {
        self.fuel = self.limits.fuel;
        self.output.clear();
        self.stdin_pos = 0;
        let mut frame = Frame::new();
        match self.exec_block(&self.program.top_level, &mut frame)? {
            Flow::Return(v) => Ok(Outcome {
                value: v,
                output: std::mem::take(&mut self.output),
            }),
            _ => Ok(Outcome {
                value: Value::None,
                output: std::mem::take(&mut self.output),
            }),
        }
    }

    /// Fuel consumed by the most recent entry-point call (complete or
    /// not), for differential fuel-parity checks against the bytecode VM.
    pub fn fuel_used(&self) -> u64 {
        self.limits.fuel - self.fuel
    }

    fn charge(&mut self, amount: u64) -> Result<(), RuntimeError> {
        if self.fuel < amount {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= amount;
        Ok(())
    }

    fn call_func(&mut self, func: &FuncDef, args: Vec<Value>) -> Result<Value, RuntimeError> {
        if self.depth >= self.limits.max_recursion {
            return Err(RuntimeError::RecursionLimit);
        }
        if func.params.len() != args.len() {
            return Err(RuntimeError::Type(format!(
                "{}() takes {} arguments ({} given)",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut frame = Frame::new();
        for (param, arg) in func.params.iter().zip(args) {
            frame.insert(Arc::from(param.name.as_str()), arg);
        }
        self.depth += 1;
        let flow = self.exec_block(&func.body, &mut frame);
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], frame: &mut Frame) -> Result<Flow, RuntimeError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> Result<Flow, RuntimeError> {
        self.charge(1)?;
        match &stmt.kind {
            StmtKind::Assign(target, value) => {
                afg_cov::cov_hit!();
                let value = self.eval(value, frame)?;
                self.assign(target, value, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::AugAssign(target, op, value) => {
                afg_cov::cov_hit!();
                let rhs = self.eval(value, frame)?;
                let current = self.read_target(target, frame)?;
                let updated = binary_op(*op, &current, &rhs)?;
                self.assign(target, updated, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::ExprStmt(expr) => {
                self.eval(expr, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::If(cond, then_body, else_body) => {
                afg_cov::cov_hit!();
                if self.eval(cond, frame)?.is_truthy() {
                    self.exec_block(then_body, frame)
                } else {
                    self.exec_block(else_body, frame)
                }
            }
            StmtKind::While(cond, body) => {
                afg_cov::cov_hit!();
                while self.eval(cond, frame)?.is_truthy() {
                    self.charge(1)?;
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(var, iter, body) => {
                afg_cov::cov_hit!();
                let items = iterable_items(&self.eval(iter, frame)?)?;
                let key: Arc<str> = Arc::from(var.as_str());
                for item in items {
                    self.charge(1)?;
                    frame.insert(Arc::clone(&key), item);
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(expr) => {
                afg_cov::cov_hit!();
                let value = match expr {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::None,
                };
                Ok(Flow::Return(value))
            }
            StmtKind::Print(args) => {
                afg_cov::cov_hit!();
                let mut parts = Vec::new();
                for arg in args {
                    parts.push(self.eval(arg, frame)?.display_str());
                }
                self.output.push(parts.join(" "));
                Ok(Flow::Normal)
            }
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn assign(
        &mut self,
        target: &Target,
        value: Value,
        frame: &mut Frame,
    ) -> Result<(), RuntimeError> {
        match target {
            Target::Var(name) => {
                frame.insert(Arc::from(name.as_str()), value);
                Ok(())
            }
            Target::Index(base, index) => {
                let index_value = self.eval(index, frame)?;
                let mut container = self.eval(base, frame)?;
                store_index(&mut container, &index_value, value)?;
                // Write the mutated container back to its own location when
                // the base is itself assignable (variable or nested index).
                if let Some(base_target) = expr_as_target(base) {
                    self.assign(&base_target, container, frame)?;
                }
                Ok(())
            }
            Target::Tuple(targets) => {
                let items = match &value {
                    Value::List(items) | Value::Tuple(items) => items.clone(),
                    other => {
                        return Err(RuntimeError::Type(format!(
                            "cannot unpack non-sequence {}",
                            other.type_name()
                        )))
                    }
                };
                if items.len() != targets.len() {
                    return Err(RuntimeError::Value(format!(
                        "too {} values to unpack",
                        if items.len() > targets.len() {
                            "many"
                        } else {
                            "few"
                        }
                    )));
                }
                for (t, v) in targets.iter().zip(items) {
                    self.assign(t, v, frame)?;
                }
                Ok(())
            }
        }
    }

    fn read_target(&mut self, target: &Target, frame: &mut Frame) -> Result<Value, RuntimeError> {
        match target {
            Target::Var(name) => frame
                .get(name.as_str())
                .cloned()
                .ok_or_else(|| RuntimeError::Name(format!("name '{name}' is not defined"))),
            Target::Index(base, index) => {
                let base_value = self.eval(base, frame)?;
                let index_value = self.eval(index, frame)?;
                load_index(&base_value, &index_value)
            }
            Target::Tuple(_) => Err(RuntimeError::Type(
                "augmented assignment to a tuple target is not allowed".to_string(),
            )),
        }
    }

    fn eval(&mut self, expr: &Expr, frame: &mut Frame) -> Result<Value, RuntimeError> {
        self.charge(1)?;
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::None => Ok(Value::None),
            Expr::Var(name) => frame
                .get(name.as_str())
                .cloned()
                .ok_or_else(|| RuntimeError::Name(format!("name '{name}' is not defined"))),
            Expr::List(items) => {
                let mut values = Vec::with_capacity(items.len());
                for item in items {
                    values.push(self.eval(item, frame)?);
                }
                Ok(Value::List(values))
            }
            Expr::Tuple(items) => {
                let mut values = Vec::with_capacity(items.len());
                for item in items {
                    values.push(self.eval(item, frame)?);
                }
                Ok(Value::Tuple(values))
            }
            Expr::Dict(items) => {
                let mut entries = Vec::with_capacity(items.len());
                for (k, v) in items {
                    let key = self.eval(k, frame)?;
                    let value = self.eval(v, frame)?;
                    if let Some(existing) = entries
                        .iter_mut()
                        .find(|(ek, _): &&mut (Value, Value)| ek.py_eq(&key))
                    {
                        existing.1 = value;
                    } else {
                        entries.push((key, value));
                    }
                }
                Ok(Value::Dict(entries))
            }
            Expr::Index(base, index) => {
                let base_value = self.eval(base, frame)?;
                let index_value = self.eval(index, frame)?;
                load_index(&base_value, &index_value)
            }
            Expr::Slice(base, lower, upper) => {
                let base_value = self.eval(base, frame)?;
                let lower = match lower {
                    Some(e) => Some(self.eval(e, frame)?),
                    None => None,
                };
                let upper = match upper {
                    Some(e) => Some(self.eval(e, frame)?),
                    None => None,
                };
                slice_value(&base_value, lower.as_ref(), upper.as_ref())
            }
            Expr::BinOp(op, left, right) => {
                let l = self.eval(left, frame)?;
                let r = self.eval(right, frame)?;
                binary_op(*op, &l, &r)
            }
            Expr::UnaryOp(op, operand) => {
                let v = self.eval(operand, frame)?;
                unary_op(*op, &v)
            }
            Expr::Compare(op, left, right) => {
                let l = self.eval(left, frame)?;
                let r = self.eval(right, frame)?;
                compare_op(*op, &l, &r)
            }
            Expr::BoolExpr(op, left, right) => {
                let l = self.eval(left, frame)?;
                match op {
                    BoolOp::And => {
                        if !l.is_truthy() {
                            Ok(l)
                        } else {
                            self.eval(right, frame)
                        }
                    }
                    BoolOp::Or => {
                        if l.is_truthy() {
                            Ok(l)
                        } else {
                            self.eval(right, frame)
                        }
                    }
                }
            }
            Expr::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval(arg, frame)?);
                }
                self.call_named(name, values)
            }
            Expr::MethodCall(recv, method, args) => {
                let mut receiver = self.eval(recv, frame)?;
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval(arg, frame)?);
                }
                let (result, mutated) = builtins::call_method(&mut receiver, method, &values)?;
                if mutated {
                    if let Some(target) = expr_as_target(recv) {
                        self.assign(&target, receiver, frame)?;
                    }
                }
                Ok(result)
            }
            Expr::IfExpr(body, cond, orelse) => {
                if self.eval(cond, frame)?.is_truthy() {
                    self.eval(body, frame)
                } else {
                    self.eval(orelse, frame)
                }
            }
        }
    }

    fn call_named(&mut self, name: &str, args: Vec<Value>) -> Result<Value, RuntimeError> {
        // User-defined functions shadow builtins, matching Python scoping.
        if let Some(func) = self.program.func(name) {
            return self.call_func(func, args);
        }
        if name == "print" {
            let line = args
                .iter()
                .map(Value::display_str)
                .collect::<Vec<_>>()
                .join(" ");
            self.output.push(line);
            return Ok(Value::None);
        }
        if name == "input" || name == "raw_input" {
            let value =
                self.stdin.get(self.stdin_pos).cloned().ok_or_else(|| {
                    RuntimeError::Value("input(): no more stdin values".to_string())
                })?;
            self.stdin_pos += 1;
            return Ok(if name == "raw_input" {
                Value::Str(value.display_str())
            } else {
                value
            });
        }
        match builtins::call_builtin(name, &args) {
            Some(result) => result,
            None => Err(RuntimeError::Name(format!("name '{name}' is not defined"))),
        }
    }
}

/// Runs `program`'s entry function on `args` with the given limits and
/// returns the outcome.  Convenience wrapper used throughout the workspace.
///
/// # Errors
///
/// Propagates any [`RuntimeError`] raised during execution.
pub fn run_function(
    program: &Program,
    entry: Option<&str>,
    args: &[Value],
    limits: ExecLimits,
) -> Result<Outcome, RuntimeError> {
    Interpreter::with_limits(program, limits).call_entry(entry, args)
}

/// The items an MPY `for` loop iterates over.
pub fn iterable_items(value: &Value) -> Result<Vec<Value>, RuntimeError> {
    match value {
        Value::List(items) | Value::Tuple(items) => Ok(items.clone()),
        Value::Str(s) => Ok(s.chars().map(|c| Value::Str(c.to_string())).collect()),
        Value::Dict(items) => Ok(items.iter().map(|(k, _)| k.clone()).collect()),
        other => Err(RuntimeError::Type(format!(
            "'{}' object is not iterable",
            other.type_name()
        ))),
    }
}

fn expr_as_target(expr: &Expr) -> Option<Target> {
    match expr {
        Expr::Var(name) => Some(Target::Var(name.clone())),
        Expr::Index(base, index) => Some(Target::Index((**base).clone(), (**index).clone())),
        _ => None,
    }
}

pub(crate) fn load_index(base: &Value, index: &Value) -> Result<Value, RuntimeError> {
    match base {
        Value::List(items) | Value::Tuple(items) => {
            let idx = index
                .as_int()
                .ok_or_else(|| RuntimeError::Type("list indices must be integers".to_string()))?;
            let pos = normalise_index(idx, items.len())
                .ok_or_else(|| RuntimeError::Index("list index out of range".to_string()))?;
            Ok(items[pos].clone())
        }
        Value::Str(s) => {
            let idx = index
                .as_int()
                .ok_or_else(|| RuntimeError::Type("string indices must be integers".to_string()))?;
            let chars: Vec<char> = s.chars().collect();
            let pos = normalise_index(idx, chars.len())
                .ok_or_else(|| RuntimeError::Index("string index out of range".to_string()))?;
            Ok(Value::Str(chars[pos].to_string()))
        }
        Value::Dict(entries) => entries
            .iter()
            .find(|(k, _)| k.py_eq(index))
            .map(|(_, v)| v.clone())
            .ok_or_else(|| RuntimeError::Key(index.repr())),
        other => Err(RuntimeError::Type(format!(
            "'{}' object is not subscriptable",
            other.type_name()
        ))),
    }
}

pub(crate) fn store_index(
    base: &mut Value,
    index: &Value,
    value: Value,
) -> Result<(), RuntimeError> {
    match base {
        Value::List(items) => {
            let idx = index
                .as_int()
                .ok_or_else(|| RuntimeError::Type("list indices must be integers".to_string()))?;
            let pos = normalise_index(idx, items.len()).ok_or_else(|| {
                RuntimeError::Index("list assignment index out of range".to_string())
            })?;
            items[pos] = value;
            Ok(())
        }
        Value::Dict(entries) => {
            if let Some(entry) = entries.iter_mut().find(|(k, _)| k.py_eq(index)) {
                entry.1 = value;
            } else {
                entries.push((index.clone(), value));
            }
            Ok(())
        }
        Value::Tuple(_) => Err(RuntimeError::Type(
            "'tuple' object does not support item assignment".to_string(),
        )),
        Value::Str(_) => Err(RuntimeError::Type(
            "'str' object does not support item assignment".to_string(),
        )),
        other => Err(RuntimeError::Type(format!(
            "'{}' object does not support item assignment",
            other.type_name()
        ))),
    }
}

pub(crate) fn slice_value(
    base: &Value,
    lower: Option<&Value>,
    upper: Option<&Value>,
) -> Result<Value, RuntimeError> {
    fn bounds(
        len: usize,
        lower: Option<&Value>,
        upper: Option<&Value>,
    ) -> Result<(usize, usize), RuntimeError> {
        let len = len as i64;
        let clamp = |v: i64| -> i64 {
            let adjusted = if v < 0 { v + len } else { v };
            adjusted.clamp(0, len)
        };
        let lo =
            match lower {
                Some(v) => clamp(v.as_int().ok_or_else(|| {
                    RuntimeError::Type("slice indices must be integers".to_string())
                })?),
                None => 0,
            };
        let hi =
            match upper {
                Some(v) => clamp(v.as_int().ok_or_else(|| {
                    RuntimeError::Type("slice indices must be integers".to_string())
                })?),
                None => len,
            };
        Ok((lo as usize, (hi.max(lo)) as usize))
    }
    match base {
        Value::List(items) => {
            let (lo, hi) = bounds(items.len(), lower, upper)?;
            Ok(Value::List(items[lo..hi].to_vec()))
        }
        Value::Tuple(items) => {
            let (lo, hi) = bounds(items.len(), lower, upper)?;
            Ok(Value::Tuple(items[lo..hi].to_vec()))
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let (lo, hi) = bounds(chars.len(), lower, upper)?;
            Ok(Value::Str(chars[lo..hi].iter().collect()))
        }
        other => Err(RuntimeError::Type(format!(
            "'{}' object cannot be sliced",
            other.type_name()
        ))),
    }
}

/// Evaluates a unary operator with Python semantics.
pub fn unary_op(op: UnaryOp, v: &Value) -> Result<Value, RuntimeError> {
    match op {
        UnaryOp::Neg => match v.as_int() {
            Some(i) => Ok(Value::Int(i.checked_neg().ok_or(RuntimeError::Overflow)?)),
            None => Err(RuntimeError::Type(format!(
                "bad operand type for unary -: '{}'",
                v.type_name()
            ))),
        },
        UnaryOp::Not => Ok(Value::Bool(!v.is_truthy())),
    }
}

/// Evaluates a binary arithmetic operator with Python semantics (Python-2
/// style integer division, sign-of-divisor modulo, sequence concatenation
/// and repetition).
pub fn binary_op(op: BinOp, left: &Value, right: &Value) -> Result<Value, RuntimeError> {
    use Value::{Int, List, Str, Tuple};
    let type_error = || {
        RuntimeError::Type(format!(
            "unsupported operand type(s) for {}: '{}' and '{}'",
            op.symbol(),
            left.type_name(),
            right.type_name()
        ))
    };
    match op {
        BinOp::Add => match (left, right) {
            _ if {
                afg_cov::cov_hit!();
                false
            } =>
            {
                unreachable!()
            }
            (Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
            (List(a), List(b)) => Ok(List(a.iter().cloned().chain(b.iter().cloned()).collect())),
            (Tuple(a), Tuple(b)) => Ok(Tuple(a.iter().cloned().chain(b.iter().cloned()).collect())),
            _ => match (left.as_int(), right.as_int()) {
                (Some(a), Some(b)) => Ok(Int(a.checked_add(b).ok_or(RuntimeError::Overflow)?)),
                _ => Err(type_error()),
            },
        },
        BinOp::Sub => {
            afg_cov::cov_hit!();
            match (left.as_int(), right.as_int()) {
                (Some(a), Some(b)) => Ok(Int(a.checked_sub(b).ok_or(RuntimeError::Overflow)?)),
                _ => Err(type_error()),
            }
        }
        BinOp::Mul => match (left, right) {
            (Str(s), other) | (other, Str(s)) if other.as_int().is_some() => {
                afg_cov::cov_hit!();
                let n = other.as_int().unwrap_or(0).max(0) as usize;
                if n.checked_mul(s.len()).is_none_or(|total| total > 10_000) {
                    return Err(RuntimeError::Overflow);
                }
                Ok(Str(s.repeat(n)))
            }
            (List(items), other) | (other, List(items)) if other.as_int().is_some() => {
                afg_cov::cov_hit!();
                let n = other.as_int().unwrap_or(0).max(0) as usize;
                if n.checked_mul(items.len())
                    .is_none_or(|total| total > 10_000)
                {
                    return Err(RuntimeError::Overflow);
                }
                let mut result = Vec::with_capacity(n * items.len());
                for _ in 0..n {
                    result.extend(items.iter().cloned());
                }
                Ok(List(result))
            }
            _ => match (left.as_int(), right.as_int()) {
                (Some(a), Some(b)) => Ok(Int(a.checked_mul(b).ok_or(RuntimeError::Overflow)?)),
                _ => Err(type_error()),
            },
        },
        BinOp::Div | BinOp::FloorDiv => match (left.as_int(), right.as_int()) {
            (Some(_), Some(0)) => {
                afg_cov::cov_hit!();
                Err(RuntimeError::ZeroDivision)
            }
            (Some(a), Some(b)) => {
                afg_cov::cov_hit!();
                // Python floor division rounds toward negative infinity.
                // `i64::MIN // -1` is the one quotient that does not fit.
                let q = a.checked_div(b).ok_or(RuntimeError::Overflow)?;
                let q = if a % b != 0 && (a < 0) != (b < 0) {
                    q - 1
                } else {
                    q
                };
                Ok(Int(q))
            }
            _ => Err(type_error()),
        },
        BinOp::Mod => match (left.as_int(), right.as_int()) {
            (Some(_), Some(0)) => {
                afg_cov::cov_hit!();
                Err(RuntimeError::ZeroDivision)
            }
            (Some(a), Some(b)) => {
                afg_cov::cov_hit!();
                // Python's % takes the sign of the divisor.  `checked_rem` is
                // `None` only for `i64::MIN % -1`, whose mathematical value
                // (0) fits fine — the truncated *quotient* is what overflows.
                let r = a.checked_rem(b).unwrap_or(0);
                let r = if r != 0 && (r < 0) != (b < 0) {
                    r + b
                } else {
                    r
                };
                Ok(Int(r))
            }
            _ => Err(type_error()),
        },
        BinOp::Pow => match (left.as_int(), right.as_int()) {
            (Some(a), Some(b)) => {
                afg_cov::cov_hit!();
                if b < 0 {
                    return Err(RuntimeError::Unsupported(
                        "negative exponents produce floats, which MPY does not support".to_string(),
                    ));
                }
                // Bases 0, 1 and -1 never leave {-1, 0, 1}, no matter how
                // large the exponent — students write `(-1) ** n` and
                // `1 ** big` on purpose, so these must not trip the
                // large-exponent overflow guard below.
                match a {
                    0 => return Ok(Int(if b == 0 { 1 } else { 0 })),
                    1 => return Ok(Int(1)),
                    -1 => return Ok(Int(if b % 2 == 0 { 1 } else { -1 })),
                    _ => {}
                }
                // |a| >= 2: any exponent above 63 overflows i64, and the
                // u32/checked_pow pair covers everything below.
                let exp = u32::try_from(b).map_err(|_| RuntimeError::Overflow)?;
                if exp > 63 {
                    return Err(RuntimeError::Overflow);
                }
                Ok(Int(a.checked_pow(exp).ok_or(RuntimeError::Overflow)?))
            }
            _ => Err(type_error()),
        },
    }
}

/// Evaluates a comparison operator with Python semantics.
pub fn compare_op(op: CmpOp, left: &Value, right: &Value) -> Result<Value, RuntimeError> {
    match op {
        CmpOp::Eq => Ok(Value::Bool(left.py_eq(right))),
        CmpOp::Ne => Ok(Value::Bool(!left.py_eq(right))),
        CmpOp::In | CmpOp::NotIn => {
            let contained = match right {
                Value::List(items) | Value::Tuple(items) => items.iter().any(|v| v.py_eq(left)),
                Value::Str(haystack) => match left {
                    Value::Str(needle) => haystack.contains(needle.as_str()),
                    other => {
                        return Err(RuntimeError::Type(format!(
                            "'in <string>' requires string as left operand, not {}",
                            other.type_name()
                        )))
                    }
                },
                Value::Dict(entries) => entries.iter().any(|(k, _)| k.py_eq(left)),
                other => {
                    return Err(RuntimeError::Type(format!(
                        "argument of type '{}' is not iterable",
                        other.type_name()
                    )))
                }
            };
            Ok(Value::Bool(if op == CmpOp::In {
                contained
            } else {
                !contained
            }))
        }
        _ => {
            let ordering = left.py_cmp(right).ok_or_else(|| {
                RuntimeError::Type(format!(
                    "'{}' not supported between instances of '{}' and '{}'",
                    op.symbol(),
                    left.type_name(),
                    right.type_name()
                ))
            })?;
            let result = match op {
                CmpOp::Lt => ordering.is_lt(),
                CmpOp::Le => ordering.is_le(),
                CmpOp::Gt => ordering.is_gt(),
                CmpOp::Ge => ordering.is_ge(),
                _ => unreachable!("handled above"),
            };
            Ok(Value::Bool(result))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_parser::parse_program;

    fn run(source: &str, entry: &str, args: &[Value]) -> Result<Outcome, RuntimeError> {
        let program = parse_program(source).expect("benchmark source parses");
        run_function(&program, Some(entry), args, ExecLimits::default())
    }

    #[test]
    fn runs_reference_compute_deriv() {
        let source = "\
def computeDeriv(poly_list_int):
    result = []
    for i in range(len(poly_list_int)):
        result += [i * poly_list_int[i]]
    if len(poly_list_int) == 1:
        return result
    else:
        return result[1:]
";
        // Paper example: [2, -3, 1, 4] -> [-3, 2, 12]
        let out = run(source, "computeDeriv", &[Value::int_list([2, -3, 1, 4])]).unwrap();
        assert_eq!(out.value, Value::int_list([-3, 2, 12]));
        // Note: for a single-element list the reference returns [0*c] = [0].
        let out = run(source, "computeDeriv", &[Value::int_list([7])]).unwrap();
        assert_eq!(out.value, Value::int_list([0]));
    }

    #[test]
    fn pow_with_unit_bases_never_overflows() {
        let pow = |a: i64, b: i64| binary_op(BinOp::Pow, &Value::Int(a), &Value::Int(b));
        // |base| <= 1 stays in {-1, 0, 1} for any exponent, including ones
        // far beyond the 63-bit guard for wider bases.
        assert_eq!(pow(1, 100).unwrap(), Value::Int(1));
        assert_eq!(pow(1, i64::MAX).unwrap(), Value::Int(1));
        assert_eq!(pow(-1, 101).unwrap(), Value::Int(-1));
        assert_eq!(pow(-1, 100).unwrap(), Value::Int(1));
        assert_eq!(pow(-1, i64::MAX).unwrap(), Value::Int(-1));
        assert_eq!(pow(0, 1000).unwrap(), Value::Int(0));
        assert_eq!(pow(0, 0).unwrap(), Value::Int(1));
        assert_eq!(pow(-1, 0).unwrap(), Value::Int(1));
        // Wider bases still hit the guard exactly where i64 gives out.
        assert_eq!(pow(2, 62).unwrap(), Value::Int(1 << 62));
        assert_eq!(pow(2, 63).unwrap_err(), RuntimeError::Overflow);
        assert_eq!(pow(-2, 63).unwrap(), Value::Int(i64::MIN));
        assert_eq!(pow(2, 64).unwrap_err(), RuntimeError::Overflow);
        assert_eq!(pow(3, 1_000_000).unwrap_err(), RuntimeError::Overflow);
        assert!(matches!(
            pow(1, -1).unwrap_err(),
            RuntimeError::Unsupported(_)
        ));
    }

    #[test]
    fn floor_division_and_modulo_survive_the_i64_min_corner() {
        let div = |a: i64, b: i64| binary_op(BinOp::FloorDiv, &Value::Int(a), &Value::Int(b));
        let rem = |a: i64, b: i64| binary_op(BinOp::Mod, &Value::Int(a), &Value::Int(b));
        // i64::MIN // -1 is the single quotient outside i64; the matching
        // remainder is mathematically 0 and must come back as 0, not a
        // panic or a bogus Overflow.
        assert_eq!(div(i64::MIN, -1).unwrap_err(), RuntimeError::Overflow);
        assert_eq!(rem(i64::MIN, -1).unwrap(), Value::Int(0));
        // Both-negative and mixed-sign corners keep Python semantics.
        assert_eq!(div(-7, -2).unwrap(), Value::Int(3));
        assert_eq!(rem(-7, -2).unwrap(), Value::Int(-1));
        assert_eq!(div(-7, 2).unwrap(), Value::Int(-4));
        assert_eq!(rem(-7, 2).unwrap(), Value::Int(1));
        assert_eq!(div(7, -2).unwrap(), Value::Int(-4));
        assert_eq!(rem(7, -2).unwrap(), Value::Int(-1));
        assert_eq!(div(i64::MIN, 1).unwrap(), Value::Int(i64::MIN));
        assert_eq!(rem(i64::MIN, 1).unwrap(), Value::Int(0));
    }

    #[test]
    fn runs_student_submission_with_mutating_pop() {
        // Figure 2(b): uses poly.pop(1) and a while loop.
        let source = "\
def computeDeriv(poly):
    idx = 1
    deriv = list([])
    plen = len(poly)
    while idx <= plen:
        coeff = poly.pop(1)
        deriv += [coeff * idx]
        idx = idx + 1
    if len(poly) < 2:
        return deriv
";
        // The submission crashes with an IndexError (pop(1) on a shrinking
        // list) for lists of length >= 2 — exactly why it is incorrect.
        let err = run(source, "computeDeriv", &[Value::int_list([2, -3, 1, 4])]).unwrap_err();
        assert_eq!(err.kind(), "IndexError");
        // For [x] it pops index 1 immediately -> IndexError as well.
        let err = run(source, "computeDeriv", &[Value::int_list([5])]).unwrap_err();
        assert_eq!(err.kind(), "IndexError");
    }

    #[test]
    fn recursion_works_and_is_bounded() {
        let source = "\
def recurPower(base, exp):
    if exp == 0:
        return 1
    return base * recurPower(base, exp - 1)
";
        let out = run(source, "recurPower", &[Value::Int(3), Value::Int(4)]).unwrap();
        assert_eq!(out.value, Value::Int(81));
        let err = run(source, "recurPower", &[Value::Int(3), Value::Int(-1)]).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::RecursionLimit | RuntimeError::FuelExhausted
        ));
    }

    #[test]
    fn infinite_loops_run_out_of_fuel() {
        let source = "\
def spin(n):
    while True:
        n = n + 1
    return n
";
        let program = parse_program(source).unwrap();
        let err =
            run_function(&program, Some("spin"), &[Value::Int(0)], ExecLimits::fast()).unwrap_err();
        assert_eq!(err, RuntimeError::FuelExhausted);
    }

    #[test]
    fn print_output_is_captured_in_order() {
        let source = "\
def report(n):
    print('value', n)
    print(n * 2)
    return None
";
        let out = run(source, "report", &[Value::Int(3)]).unwrap();
        assert_eq!(out.output, vec!["value 3".to_string(), "6".to_string()]);
    }

    #[test]
    fn top_level_stdin_programs_run() {
        let source = "\
price = input()
print(price * 2)
";
        let program = parse_program(source).unwrap();
        let mut interp = Interpreter::new(&program).with_stdin(vec![Value::Int(21)]);
        let out = interp.run_top_level().unwrap();
        assert_eq!(out.output, vec!["42".to_string()]);
    }

    #[test]
    fn falling_off_the_end_returns_none() {
        let source = "\
def f(x):
    y = x + 1
";
        let out = run(source, "f", &[Value::Int(1)]).unwrap();
        assert_eq!(out.value, Value::None);
    }

    #[test]
    fn name_errors_and_index_errors_surface() {
        let source = "\
def f(x):
    return x + undefined_variable
";
        assert_eq!(
            run(source, "f", &[Value::Int(1)]).unwrap_err().kind(),
            "NameError"
        );
        let source = "\
def f(xs):
    return xs[10]
";
        assert_eq!(
            run(source, "f", &[Value::int_list([1, 2])])
                .unwrap_err()
                .kind(),
            "IndexError"
        );
    }

    #[test]
    fn wrong_arity_is_a_type_error() {
        let source = "def f(x, y):\n    return x\n";
        let err = run(source, "f", &[Value::Int(1)]).unwrap_err();
        assert_eq!(err.kind(), "TypeError");
    }

    #[test]
    fn arithmetic_semantics_match_python() {
        assert_eq!(
            binary_op(BinOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            binary_op(BinOp::Div, &Value::Int(-7), &Value::Int(2)).unwrap(),
            Value::Int(-4)
        );
        assert_eq!(
            binary_op(BinOp::Mod, &Value::Int(-7), &Value::Int(3)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            binary_op(BinOp::Pow, &Value::Int(2), &Value::Int(10)).unwrap(),
            Value::Int(1024)
        );
        assert_eq!(
            binary_op(BinOp::Add, &Value::int_list([1]), &Value::int_list([2])).unwrap(),
            Value::int_list([1, 2])
        );
        assert_eq!(
            binary_op(BinOp::Mul, &Value::Str("ab".into()), &Value::Int(2)).unwrap(),
            Value::Str("abab".into())
        );
        assert!(binary_op(BinOp::Add, &Value::Int(1), &Value::int_list([1])).is_err());
        assert_eq!(
            binary_op(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap_err(),
            RuntimeError::ZeroDivision
        );
    }

    #[test]
    fn comparison_semantics() {
        assert_eq!(
            compare_op(
                CmpOp::In,
                &Value::Str("a".into()),
                &Value::Str("cat".into())
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            compare_op(CmpOp::NotIn, &Value::Int(5), &Value::int_list([1, 2])).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            compare_op(CmpOp::Lt, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert!(compare_op(CmpOp::Lt, &Value::Int(1), &Value::Str("a".into())).is_err());
    }

    #[test]
    fn slices_and_index_assignment() {
        let source = "\
def f(xs):
    xs[0] = 10
    return xs[1:3]
";
        let out = run(source, "f", &[Value::int_list([1, 2, 3, 4])]).unwrap();
        assert_eq!(out.value, Value::int_list([2, 3]));
    }

    #[test]
    fn hangman_style_string_manipulation() {
        let source = "\
def getGuessedWord(secretWord, lettersGuessed):
    result = ''
    for c in secretWord:
        if c in lettersGuessed:
            result = result + c
        else:
            result = result + '_'
    return result
";
        let out = run(
            source,
            "getGuessedWord",
            &[
                Value::Str("apple".into()),
                Value::List(vec![Value::Str("a".into()), Value::Str("p".into())]),
            ],
        )
        .unwrap();
        assert_eq!(out.value, Value::Str("app__".into()));
    }

    #[test]
    fn conditional_expressions_and_bool_ops() {
        let source = "\
def f(x):
    y = 1 if x > 0 else -1
    return y * x or 99
";
        assert_eq!(
            run(source, "f", &[Value::Int(5)]).unwrap().value,
            Value::Int(5)
        );
        assert_eq!(
            run(source, "f", &[Value::Int(0)]).unwrap().value,
            Value::Int(99)
        );
    }

    #[test]
    fn dict_literals_and_lookup() {
        let source = "\
def f(k):
    d = {1: 'one', 2: 'two'}
    d[3] = 'three'
    return d[k]
";
        assert_eq!(
            run(source, "f", &[Value::Int(3)]).unwrap().value,
            Value::Str("three".into())
        );
        assert_eq!(
            run(source, "f", &[Value::Int(9)]).unwrap_err().kind(),
            "KeyError"
        );
    }
}
