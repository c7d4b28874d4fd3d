//! The `T_E` transformation: applying an error model to a student program
//! (paper §3.3).
//!
//! Given an [`ErrorModel`] and a student submission, [`apply_error_model`]
//! produces a [`ChoiceProgram`]: the M̃PY program containing every candidate
//! correction the model allows, with option 0 of every choice being the
//! original, unmodified fragment.  The transformation is deterministic and —
//! for well-formed models (Definition 1/2) — guaranteed to terminate, which
//! is checked up front.

use std::error::Error;
use std::fmt;

use afg_ast::ops::CmpOp;
use afg_ast::pretty;
use afg_ast::visit::func_scope_vars;
use afg_ast::{Expr, Program, Stmt, StmtKind, Target};

use crate::choice::{
    concretize_expr, CExpr, CFuncDef, CStmt, CStmtKind, ChoiceAssignment, ChoiceId, ChoiceInfo,
    ChoiceProgram, OpChoice,
};
use crate::rules::{match_expr, Bindings, CmpTemplate, ErrorModel, Rule, RuleKind, Template};

/// Errors produced while applying an error model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The model violates the well-formedness conditions of Definition 1/2.
    NotWellFormed,
    /// The student program defines no function to grade.
    NoEntryFunction,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotWellFormed => write!(f, "error model is not well-formed"),
            TransformError::NoEntryFunction => write!(f, "student program defines no function"),
        }
    }
}

impl Error for TransformError {}

/// Applies an error model to a student submission, producing the M̃PY
/// choice program over the graded entry function.
///
/// # Errors
///
/// Returns [`TransformError::NotWellFormed`] if the model fails the paper's
/// well-formedness check and [`TransformError::NoEntryFunction`] if the
/// submission contains no function definition.
pub fn apply_error_model(
    student: &Program,
    entry: Option<&str>,
    model: &ErrorModel,
) -> Result<ChoiceProgram, TransformError> {
    if !model.is_well_formed() {
        return Err(TransformError::NotWellFormed);
    }
    let func = student
        .entry(entry)
        .ok_or(TransformError::NoEntryFunction)?;
    let other_funcs = student
        .funcs
        .iter()
        .filter(|f| !std::ptr::eq(*f, func))
        .cloned()
        .collect();

    let mut ctx = Ctx {
        model,
        scope_vars: func_scope_vars(func),
        next_id: 0,
        choices: Vec::new(),
        depth: 0,
    };

    let mut body = transform_block(&func.body, &mut ctx);

    // Statement-insertion rules attach one optional block at the top of the
    // function ("add the base case", Figure 2(e)).
    let insert_rules: Vec<&Rule> = model
        .rules
        .iter()
        .filter(|r| matches!(r.kind, RuleKind::InsertTop { .. }))
        .collect();
    for rule in insert_rules.into_iter().rev() {
        if let RuleKind::InsertTop { stmts } = &rule.kind {
            let inserted: Vec<CStmt> = stmts.iter().map(plain_stmt).collect();
            let rendered: String = stmts
                .iter()
                .map(|s| pretty::stmt_to_string(s, 0).trim_end().to_string())
                .collect::<Vec<_>>()
                .join("; ");
            let id = ctx.fresh();
            ctx.choices.push(ChoiceInfo {
                id,
                line: func.line,
                rule: rule.name.clone(),
                original: "(nothing inserted)".to_string(),
                options: vec!["(nothing inserted)".to_string(), rendered],
                message: rule.message.clone(),
            });
            body.insert(
                0,
                CStmt {
                    line: func.line,
                    kind: CStmtKind::ChoiceBlock(id, vec![vec![], inserted]),
                },
            );
        }
    }

    Ok(ChoiceProgram {
        func: CFuncDef {
            name: func.name.clone(),
            params: func.params.clone(),
            body,
            line: func.line,
        },
        other_funcs,
        choices: ctx.choices,
    })
}

struct Ctx<'a> {
    model: &'a ErrorModel,
    scope_vars: Vec<String>,
    next_id: u32,
    choices: Vec<ChoiceInfo>,
    depth: u32,
}

impl Ctx<'_> {
    fn fresh(&mut self) -> ChoiceId {
        let id = ChoiceId(self.next_id);
        self.next_id += 1;
        id
    }
}

fn plain_stmt(stmt: &Stmt) -> CStmt {
    let kind = match &stmt.kind {
        StmtKind::Assign(t, e) => CStmtKind::Assign(t.clone(), CExpr::plain(e.clone())),
        StmtKind::AugAssign(t, op, e) => {
            CStmtKind::AugAssign(t.clone(), *op, CExpr::plain(e.clone()))
        }
        StmtKind::ExprStmt(e) => CStmtKind::ExprStmt(CExpr::plain(e.clone())),
        StmtKind::If(c, a, b) => CStmtKind::If(
            CExpr::plain(c.clone()),
            a.iter().map(plain_stmt).collect(),
            b.iter().map(plain_stmt).collect(),
        ),
        StmtKind::While(c, b) => {
            CStmtKind::While(CExpr::plain(c.clone()), b.iter().map(plain_stmt).collect())
        }
        StmtKind::For(v, it, b) => CStmtKind::For(
            v.clone(),
            CExpr::plain(it.clone()),
            b.iter().map(plain_stmt).collect(),
        ),
        StmtKind::Return(e) => CStmtKind::Return(e.as_ref().map(|e| CExpr::plain(e.clone()))),
        StmtKind::Print(args) => {
            CStmtKind::Print(args.iter().map(|e| CExpr::plain(e.clone())).collect())
        }
        StmtKind::Pass => CStmtKind::Pass,
        StmtKind::Break => CStmtKind::Break,
        StmtKind::Continue => CStmtKind::Continue,
    };
    CStmt {
        line: stmt.line,
        kind,
    }
}

fn transform_block(stmts: &[Stmt], ctx: &mut Ctx<'_>) -> Vec<CStmt> {
    stmts.iter().map(|s| transform_stmt(s, ctx)).collect()
}

fn transform_stmt(stmt: &Stmt, ctx: &mut Ctx<'_>) -> CStmt {
    let line = stmt.line;
    let kind = match &stmt.kind {
        StmtKind::Assign(target, value) => {
            // INITR-style rules fire only on `v = <int constant>`.
            let init_applies = matches!((target, value), (Target::Var(_), Expr::Int(_)));
            if init_applies {
                let init_rules: Vec<&Rule> = ctx
                    .model
                    .rules
                    .iter()
                    .filter(|r| matches!(r.kind, RuleKind::Init { .. }))
                    .collect();
                if !init_rules.is_empty() {
                    let mut bindings = Bindings::default();
                    if let Target::Var(name) = target {
                        bindings.insert("v", Expr::var(name.clone()));
                    }
                    bindings.insert("n", value.clone());
                    let mut branches = Vec::new();
                    let mut rule_names = Vec::new();
                    let mut message = None;
                    for rule in init_rules {
                        if let RuleKind::Init { alternatives } = &rule.kind {
                            branches.extend(instantiate_alternatives(
                                alternatives,
                                &bindings,
                                value,
                                line,
                                rule,
                                ctx,
                            ));
                            rule_names.push(rule.name.clone());
                            message = message.or_else(|| rule.message.clone());
                        }
                    }
                    let value_choice = make_choice(
                        CExpr::plain(value.clone()),
                        branches,
                        value,
                        line,
                        &rule_names.join("+"),
                        message,
                        ctx,
                    );
                    return CStmt {
                        line,
                        kind: CStmtKind::Assign(target.clone(), value_choice),
                    };
                }
            }
            CStmtKind::Assign(target.clone(), transform_expr(value, line, ctx))
        }
        StmtKind::AugAssign(target, op, value) => {
            CStmtKind::AugAssign(target.clone(), *op, transform_expr(value, line, ctx))
        }
        StmtKind::ExprStmt(expr) => CStmtKind::ExprStmt(transform_expr(expr, line, ctx)),
        StmtKind::If(cond, then_body, else_body) => CStmtKind::If(
            transform_expr(cond, line, ctx),
            transform_block(then_body, ctx),
            transform_block(else_body, ctx),
        ),
        StmtKind::While(cond, body) => {
            CStmtKind::While(transform_expr(cond, line, ctx), transform_block(body, ctx))
        }
        StmtKind::For(var, iter, body) => CStmtKind::For(
            var.clone(),
            transform_expr(iter, line, ctx),
            transform_block(body, ctx),
        ),
        StmtKind::Return(Some(expr)) => {
            let return_rules: Vec<&Rule> = ctx
                .model
                .rules
                .iter()
                .filter(|r| matches!(r.kind, RuleKind::Return { .. }))
                .collect();
            let default = transform_expr(expr, line, ctx);
            if return_rules.is_empty() {
                CStmtKind::Return(Some(default))
            } else {
                let mut bindings = Bindings::default();
                bindings.insert("a", expr.clone());
                let mut branches = Vec::new();
                let mut rule_names = Vec::new();
                let mut message = None;
                for rule in return_rules {
                    if let RuleKind::Return { alternatives } = &rule.kind {
                        branches.extend(instantiate_alternatives(
                            alternatives,
                            &bindings,
                            expr,
                            line,
                            rule,
                            ctx,
                        ));
                        rule_names.push(rule.name.clone());
                        message = message.or_else(|| rule.message.clone());
                    }
                }
                let choice = make_choice(
                    default,
                    branches,
                    expr,
                    line,
                    &rule_names.join("+"),
                    message,
                    ctx,
                );
                CStmtKind::Return(Some(choice))
            }
        }
        StmtKind::Return(None) => CStmtKind::Return(None),
        StmtKind::Print(args) => {
            let transformed: Vec<CExpr> =
                args.iter().map(|e| transform_expr(e, line, ctx)).collect();
            let drop_rule = ctx
                .model
                .rules
                .iter()
                .find(|r| matches!(r.kind, RuleKind::DropPrint));
            if let Some(rule) = drop_rule {
                let id = ctx.fresh();
                let rendered = format!(
                    "print({})",
                    args.iter()
                        .map(pretty::expr_to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ctx.choices.push(ChoiceInfo {
                    id,
                    line,
                    rule: rule.name.clone(),
                    original: rendered.clone(),
                    options: vec![rendered, "(statement removed)".to_string()],
                    message: rule.message.clone(),
                });
                let kept = CStmt {
                    line,
                    kind: CStmtKind::Print(transformed),
                };
                return CStmt {
                    line,
                    kind: CStmtKind::ChoiceBlock(id, vec![vec![kept], vec![]]),
                };
            }
            CStmtKind::Print(transformed)
        }
        StmtKind::Pass => CStmtKind::Pass,
        StmtKind::Break => CStmtKind::Break,
        StmtKind::Continue => CStmtKind::Continue,
    };
    CStmt { line, kind }
}

/// The recursive expression transformation (the paper's `T_E`):
/// the default option recurses into sub-terms, and every matching
/// expression rule contributes its alternatives.
fn transform_expr(expr: &Expr, line: u32, ctx: &mut Ctx<'_>) -> CExpr {
    // Well-formed models terminate; the depth guard protects against
    // pathological hand-built models in release builds.
    if ctx.depth > 64 {
        return CExpr::plain(expr.clone());
    }
    ctx.depth += 1;
    let default = transform_children(expr, line, ctx);

    let mut branches = Vec::new();
    let mut rule_names = Vec::new();
    let mut message = None;
    let expr_rules: Vec<Rule> = ctx
        .model
        .rules
        .iter()
        .filter(|r| matches!(r.kind, RuleKind::Expr { .. }))
        .cloned()
        .collect();
    for rule in &expr_rules {
        if let RuleKind::Expr {
            pattern,
            alternatives,
        } = &rule.kind
        {
            if let Some(bindings) = match_expr(pattern, expr) {
                branches.extend(instantiate_alternatives(
                    alternatives,
                    &bindings,
                    expr,
                    line,
                    rule,
                    ctx,
                ));
                rule_names.push(rule.name.clone());
                message = message.or_else(|| rule.message.clone());
            }
        }
    }
    let result = make_choice(
        default,
        branches,
        expr,
        line,
        &rule_names.join("+"),
        message,
        ctx,
    );
    ctx.depth -= 1;
    result
}

/// Structural recursion used for the zero-cost default option.
fn transform_children(expr: &Expr, line: u32, ctx: &mut Ctx<'_>) -> CExpr {
    match expr {
        Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::None | Expr::Var(_) => {
            CExpr::plain(expr.clone())
        }
        Expr::List(items) => {
            CExpr::List(items.iter().map(|e| transform_expr(e, line, ctx)).collect())
        }
        Expr::Tuple(items) => {
            CExpr::Tuple(items.iter().map(|e| transform_expr(e, line, ctx)).collect())
        }
        Expr::Dict(_) => CExpr::plain(expr.clone()),
        Expr::Index(base, index) => CExpr::Index(
            Box::new(transform_expr(base, line, ctx)),
            Box::new(transform_expr(index, line, ctx)),
        ),
        Expr::Slice(base, lower, upper) => CExpr::Slice(
            Box::new(transform_expr(base, line, ctx)),
            lower
                .as_ref()
                .map(|l| Box::new(transform_expr(l, line, ctx))),
            upper
                .as_ref()
                .map(|u| Box::new(transform_expr(u, line, ctx))),
        ),
        Expr::BinOp(op, left, right) => CExpr::BinOp(
            *op,
            Box::new(transform_expr(left, line, ctx)),
            Box::new(transform_expr(right, line, ctx)),
        ),
        Expr::UnaryOp(op, operand) => {
            CExpr::UnaryOp(*op, Box::new(transform_expr(operand, line, ctx)))
        }
        Expr::Compare(op, left, right) => CExpr::Compare(
            OpChoice::Fixed(*op),
            Box::new(transform_expr(left, line, ctx)),
            Box::new(transform_expr(right, line, ctx)),
        ),
        Expr::BoolExpr(op, left, right) => CExpr::BoolExpr(
            *op,
            Box::new(transform_expr(left, line, ctx)),
            Box::new(transform_expr(right, line, ctx)),
        ),
        Expr::Call(name, args) => CExpr::Call(
            name.clone(),
            args.iter().map(|e| transform_expr(e, line, ctx)).collect(),
        ),
        Expr::MethodCall(recv, name, args) => CExpr::MethodCall(
            Box::new(transform_expr(recv, line, ctx)),
            name.clone(),
            args.iter().map(|e| transform_expr(e, line, ctx)).collect(),
        ),
        Expr::IfExpr(a, b, c) => CExpr::IfExpr(
            Box::new(transform_expr(a, line, ctx)),
            Box::new(transform_expr(b, line, ctx)),
            Box::new(transform_expr(c, line, ctx)),
        ),
    }
}

/// Instantiates a rule's alternative templates, expanding top-level `?a`
/// templates into one alternative per in-scope variable.
fn instantiate_alternatives(
    alternatives: &[Template],
    bindings: &Bindings,
    original: &Expr,
    line: u32,
    rule: &Rule,
    ctx: &mut Ctx<'_>,
) -> Vec<CExpr> {
    let mut out = Vec::new();
    for alt in alternatives {
        match alt {
            Template::AnyScopeVar => {
                for var in ctx.scope_vars.clone() {
                    let candidate = Expr::var(var);
                    if &candidate != original {
                        out.push(CExpr::plain(candidate));
                    }
                }
            }
            _ => out.push(instantiate(alt, bindings, original, line, rule, ctx)),
        }
    }
    out
}

fn instantiate(
    template: &Template,
    bindings: &Bindings,
    original: &Expr,
    line: u32,
    rule: &Rule,
    ctx: &mut Ctx<'_>,
) -> CExpr {
    match template {
        Template::Meta(name) => CExpr::plain(bindings.expr(name).cloned().unwrap_or(Expr::None)),
        Template::MetaPrime(name) => match bindings.expr(name) {
            Some(bound) => transform_expr(&bound.clone(), line, ctx),
            None => CExpr::plain(Expr::None),
        },
        Template::Original => CExpr::plain(original.clone()),
        Template::AnyScopeVar => {
            // Nested occurrence: a choice over every in-scope variable, the
            // first one acting as the default.
            let options: Vec<CExpr> = ctx
                .scope_vars
                .clone()
                .into_iter()
                .map(|v| CExpr::plain(Expr::var(v)))
                .collect();
            if options.is_empty() {
                return CExpr::plain(original.clone());
            }
            let rendered: Vec<String> = options
                .iter()
                .map(|o| {
                    pretty::expr_to_string(&concretize_expr(
                        o,
                        &ChoiceAssignment::default_choices(),
                    ))
                })
                .collect();
            let id = ctx.fresh();
            ctx.choices.push(ChoiceInfo {
                id,
                line,
                rule: rule.name.clone(),
                original: rendered[0].clone(),
                options: rendered,
                message: rule.message.clone(),
            });
            CExpr::Choice(id, options)
        }
        Template::SetOf(metavar, items) => {
            let default_expr = bindings.expr(metavar).cloned().unwrap_or(Expr::None);
            let mut options = vec![CExpr::plain(default_expr.clone())];
            for item in items {
                match item {
                    Template::AnyScopeVar => {
                        for var in ctx.scope_vars.clone() {
                            let candidate = Expr::var(var);
                            if candidate != default_expr {
                                options.push(CExpr::plain(candidate));
                            }
                        }
                    }
                    _ => options.push(instantiate(item, bindings, original, line, rule, ctx)),
                }
            }
            // Drop duplicates of the default produced by instantiation.
            let default_rendered = pretty::expr_to_string(&default_expr);
            let mut seen = vec![default_rendered.clone()];
            let mut unique = vec![options[0].clone()];
            for option in options.into_iter().skip(1) {
                let rendered = pretty::expr_to_string(&concretize_expr(
                    &option,
                    &ChoiceAssignment::default_choices(),
                ));
                if !seen.contains(&rendered) {
                    seen.push(rendered);
                    unique.push(option);
                }
            }
            if unique.len() == 1 {
                return unique.pop().expect("default option present");
            }
            let id = ctx.fresh();
            ctx.choices.push(ChoiceInfo {
                id,
                line,
                rule: rule.name.clone(),
                original: seen[0].clone(),
                options: seen,
                message: rule.message.clone(),
            });
            CExpr::Choice(id, unique)
        }
        Template::Int(v) => CExpr::plain(Expr::Int(*v)),
        Template::Bool(b) => CExpr::plain(Expr::Bool(*b)),
        Template::Str(s) => CExpr::plain(Expr::Str(s.clone())),
        Template::Var(name) => CExpr::plain(Expr::var(name.clone())),
        Template::List(items) => CExpr::List(
            items
                .iter()
                .map(|t| instantiate(t, bindings, original, line, rule, ctx))
                .collect(),
        ),
        Template::Index(base, index) => CExpr::Index(
            Box::new(instantiate(base, bindings, original, line, rule, ctx)),
            Box::new(instantiate(index, bindings, original, line, rule, ctx)),
        ),
        Template::Slice(base, lower, upper) => CExpr::Slice(
            Box::new(instantiate(base, bindings, original, line, rule, ctx)),
            lower
                .as_ref()
                .map(|l| Box::new(instantiate(l, bindings, original, line, rule, ctx))),
            upper
                .as_ref()
                .map(|u| Box::new(instantiate(u, bindings, original, line, rule, ctx))),
        ),
        Template::BinOp(op, left, right) => CExpr::BinOp(
            *op,
            Box::new(instantiate(left, bindings, original, line, rule, ctx)),
            Box::new(instantiate(right, bindings, original, line, rule, ctx)),
        ),
        Template::Compare(op_template, left, right) => {
            let original_op = bindings.cmp_op.unwrap_or(CmpOp::Eq);
            let op = match op_template {
                CmpTemplate::Fixed(op) => OpChoice::Fixed(*op),
                CmpTemplate::Original => OpChoice::Fixed(original_op),
                CmpTemplate::AnyRelational => {
                    let mut ops = vec![original_op];
                    for &candidate in CmpOp::relational() {
                        if candidate != original_op {
                            ops.push(candidate);
                        }
                    }
                    let id = ctx.fresh();
                    ctx.choices.push(ChoiceInfo {
                        id,
                        line,
                        rule: rule.name.clone(),
                        original: original_op.symbol().to_string(),
                        options: ops.iter().map(|o| o.symbol().to_string()).collect(),
                        message: rule.message.clone(),
                    });
                    OpChoice::Choice(id, ops)
                }
            };
            CExpr::Compare(
                op,
                Box::new(instantiate(left, bindings, original, line, rule, ctx)),
                Box::new(instantiate(right, bindings, original, line, rule, ctx)),
            )
        }
        Template::Call(name, args) => CExpr::Call(
            name.clone(),
            args.iter()
                .map(|t| instantiate(t, bindings, original, line, rule, ctx))
                .collect(),
        ),
        Template::MethodCall(recv, name, args) => CExpr::MethodCall(
            Box::new(instantiate(recv, bindings, original, line, rule, ctx)),
            name.clone(),
            args.iter()
                .map(|t| instantiate(t, bindings, original, line, rule, ctx))
                .collect(),
        ),
        Template::IfExpr(a, b, c) => CExpr::IfExpr(
            Box::new(instantiate(a, bindings, original, line, rule, ctx)),
            Box::new(instantiate(b, bindings, original, line, rule, ctx)),
            Box::new(instantiate(c, bindings, original, line, rule, ctx)),
        ),
    }
}

/// Combines the default option with the branches contributed by matching
/// rules.  When a single branch already contains the original as its nested
/// default (an "in-place" rewrite such as `RANR`), the branch replaces the
/// node directly and no extra choice is introduced.
fn make_choice(
    default: CExpr,
    branches: Vec<CExpr>,
    original: &Expr,
    line: u32,
    rule_names: &str,
    message: Option<String>,
    ctx: &mut Ctx<'_>,
) -> CExpr {
    if branches.is_empty() {
        return default;
    }
    let default_assignment = ChoiceAssignment::default_choices();
    if branches.len() == 1 {
        let branch_default = concretize_expr(&branches[0], &default_assignment);
        if &branch_default == original {
            return branches.into_iter().next().expect("one branch");
        }
    }
    let mut options = vec![default];
    options.extend(branches);
    let rendered: Vec<String> = options
        .iter()
        .map(|o| pretty::expr_to_string(&concretize_expr(o, &default_assignment)))
        .collect();
    let id = ctx.fresh();
    ctx.choices.push(ChoiceInfo {
        id,
        line,
        rule: rule_names.to_string(),
        original: rendered[0].clone(),
        options: rendered,
        message,
    });
    CExpr::Choice(id, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::rules::Pattern;
    use afg_parser::parse_program;

    /// Figure 2(a): the student submission used throughout Section 2.
    const STUDENT_2A: &str = "\
def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0, len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
";

    #[test]
    fn simple_model_induces_the_32_candidates_of_section_2() {
        // The simplified three-rule model of §2.1:
        //   return a        -> return [0]
        //   range(a1, a2)   -> range(a1 + 1, a2)
        //   a0 == a1        -> False
        let student = parse_program(STUDENT_2A).unwrap();
        let model = library::section_2_1_model();
        let cp = apply_error_model(&student, Some("computeDeriv"), &model).unwrap();
        // Two returns, one range call, two == comparisons -> 2*2*2*2*2 = 32.
        assert_eq!(cp.candidate_space_size(), 32.0);
        // The default assignment reproduces the original program.
        let original = cp.original_program();
        let printed = pretty::program_to_string(&original);
        assert!(printed.contains("range(0, len(poly))"));
        assert!(printed.contains("return deriv"));
    }

    #[test]
    fn default_concretisation_is_behaviour_preserving() {
        let student = parse_program(STUDENT_2A).unwrap();
        let model = library::compute_deriv_model();
        let cp = apply_error_model(&student, Some("computeDeriv"), &model).unwrap();
        let original = cp.original_program();
        // Same statement structure as the input program.
        assert_eq!(original.funcs[0].body.len(), student.funcs[0].body.len());
        assert_eq!(original.funcs[0].name, "computeDeriv");
    }

    #[test]
    fn fixing_figure_2a_is_expressible_with_three_corrections() {
        let student = parse_program(STUDENT_2A).unwrap();
        let model = library::section_2_1_model();
        let cp = apply_error_model(&student, Some("computeDeriv"), &model).unwrap();

        // Find the three choices the paper's feedback (Figure 2(d)) selects:
        //   line 5: return deriv      -> return [0]
        //   line 7: poly[e] == 0      -> False
        //   line 6: range(0, ...)     -> range(0 + 1, ...)
        let mut assignment = ChoiceAssignment::default_choices();
        for info in &cp.choices {
            if info.line == 5 && info.options.iter().any(|o| o == "[0]") {
                let idx = info.options.iter().position(|o| o == "[0]").unwrap();
                assignment.select(info.id, idx);
            }
            if info.line == 7 && info.options.iter().any(|o| o == "False") {
                let idx = info.options.iter().position(|o| o == "False").unwrap();
                assignment.select(info.id, idx);
            }
            if info.line == 6 && info.options.iter().any(|o| o.contains("0 + 1")) {
                let idx = info
                    .options
                    .iter()
                    .position(|o| o.contains("0 + 1"))
                    .unwrap();
                assignment.select(info.id, idx);
            }
        }
        assert_eq!(assignment.cost(), 3, "choices: {:#?}", cp.choices);
        let fixed = cp.concretize(&assignment);
        let printed = pretty::program_to_string(&fixed);
        assert!(printed.contains("return [0]"));
        assert!(printed.contains("if False:"));
        assert!(printed.contains("range(0 + 1, len(poly))"));
    }

    #[test]
    fn insert_top_rule_adds_an_optional_base_case() {
        let student =
            parse_program("def computeDeriv(poly):\n    deriv = []\n    return deriv\n").unwrap();
        let base_case =
            afg_parser::parse_program("def g(poly):\n    if len(poly) == 1:\n        return [0]\n")
                .unwrap();
        let rule = Rule::insert_top("BASE", base_case.funcs[0].body.clone())
            .with_message("add the base case at the top to return [0] for len(poly)=1".to_string());
        let model = ErrorModel::new("insert").with_rule(rule);
        let cp = apply_error_model(&student, None, &model).unwrap();
        assert_eq!(cp.num_choices(), 1);

        let inserted = cp.concretize(&ChoiceAssignment::from_pairs([(cp.choices[0].id, 1)]));
        let printed = pretty::program_to_string(&inserted);
        assert!(printed.contains("if len(poly) == 1:"));
        // The default keeps the program unchanged.
        let printed_default = pretty::program_to_string(&cp.original_program());
        assert!(!printed_default.contains("if len(poly) == 1:"));
    }

    #[test]
    fn drop_print_rule_makes_prints_optional() {
        let student = parse_program("def f(x):\n    print('debug', x)\n    return x\n").unwrap();
        let model = ErrorModel::new("prints").with_rule(Rule::drop_print("DROPPRINT"));
        let cp = apply_error_model(&student, None, &model).unwrap();
        assert_eq!(cp.num_choices(), 1);
        let without = cp.concretize(&ChoiceAssignment::from_pairs([(cp.choices[0].id, 1)]));
        assert_eq!(without.funcs[0].body.len(), 1);
        assert_eq!(cp.original_program().funcs[0].body.len(), 2);
    }

    #[test]
    fn ill_formed_models_are_rejected() {
        let student = parse_program("def f(x):\n    return x\n").unwrap();
        let bad_rule = Rule::expr(
            "BAD",
            Pattern::meta("a"),
            vec![Template::BinOp(
                afg_ast::ops::BinOp::Add,
                Box::new(Template::MetaPrime("a".into())),
                Box::new(Template::Int(1)),
            )],
        );
        let model = ErrorModel::new("bad").with_rule(bad_rule);
        assert_eq!(
            apply_error_model(&student, None, &model),
            Err(TransformError::NotWellFormed)
        );
    }

    #[test]
    fn programs_without_functions_are_rejected() {
        let student = parse_program("x = 1\n").unwrap();
        let model = ErrorModel::new("empty");
        assert_eq!(
            apply_error_model(&student, None, &model),
            Err(TransformError::NoEntryFunction)
        );
    }

    #[test]
    fn scope_variable_alternatives_exclude_the_original() {
        // INDR's ?a alternative should propose other variables, not v[a] itself.
        let student = parse_program("def f(xs, i, j):\n    return xs[i]\n").unwrap();
        let rule = Rule::expr(
            "INDR",
            Pattern::Index(
                Box::new(Pattern::AnyVar("v".into())),
                Box::new(Pattern::meta("a")),
            ),
            vec![Template::Index(
                Box::new(Template::meta("v")),
                Box::new(Template::SetOf(
                    "a".into(),
                    vec![
                        Template::meta_plus("a", 1),
                        Template::meta_plus("a", -1),
                        Template::AnyScopeVar,
                    ],
                )),
            )],
        );
        let model = ErrorModel::new("ind").with_rule(rule);
        let cp = apply_error_model(&student, None, &model).unwrap();
        assert_eq!(
            cp.num_choices(),
            1,
            "in-place rule should add exactly one choice"
        );
        let info = &cp.choices[0];
        assert!(info.options.contains(&"i + 1".to_string()));
        assert!(info.options.contains(&"j".to_string()));
        assert!(info.options.contains(&"xs".to_string()));
        // The default (index 0) is the original index expression.
        assert_eq!(info.options[0], "i");
    }
}
