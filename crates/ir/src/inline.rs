//! Bounded call inlining — multi-procedure programs for an
//! intra-procedural analysis.
//!
//! DiSE "is an intra-procedural, incremental analysis technique" and the
//! paper leaves inter-procedural analysis to future work (§7). This module
//! realizes the pragmatic middle ground: MJ programs may factor logic into
//! (void) procedures, and [`inline_program`] flattens the procedure under
//! analysis by recursively expanding every call before the DiSE pipeline
//! runs. The expansion:
//!
//! * binds each parameter as a fresh local initialized with the actual
//!   argument (call-by-value, evaluated once, in order);
//! * α-renames the callee's parameters and locals with a per-call-site
//!   prefix so names never collide (globals are shared, as in Java);
//! * rejects recursion (the expansion would not terminate) and `return`
//!   anywhere but the tail of a callee (a non-tail `return` would need a
//!   jump out of the inlined block);
//! * lays the result out once ([`layout_program`]): every statement and
//!   expression gets the span that parsing the canonical text would give
//!   it, so statement spans are unique again (each call site gets its own
//!   copies, which the differencing analysis must be able to tell apart)
//!   without printing and re-parsing the program.
//!
//! [`expand_calls`] is the expansion alone, before the layout.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::ast::{Block, Expr, ExprKind, Procedure, Program, Stmt, StmtKind};
use crate::pretty::layout_program;

/// Errors from inlining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// The requested procedure does not exist.
    MissingProcedure(String),
    /// A call targets a procedure that does not exist.
    UnknownCallee {
        /// The caller containing the bad call.
        caller: String,
        /// The missing callee.
        callee: String,
    },
    /// The call graph contains a cycle through this procedure.
    Recursive(String),
    /// A callee contains a `return` that is not its final statement.
    NonTailReturn(String),
    /// A call passes the wrong number of arguments (normally caught by the
    /// type checker first).
    ArityMismatch {
        /// The callee.
        callee: String,
        /// Parameters expected.
        expected: usize,
        /// Arguments found.
        found: usize,
    },
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::MissingProcedure(name) => write!(f, "procedure `{name}` not found"),
            InlineError::UnknownCallee { caller, callee } => {
                write!(f, "`{caller}` calls undeclared procedure `{callee}`")
            }
            InlineError::Recursive(name) => {
                write!(f, "recursive call cycle through `{name}` cannot be inlined")
            }
            InlineError::NonTailReturn(name) => write!(
                f,
                "`{name}` contains a non-tail `return` and cannot be inlined"
            ),
            InlineError::ArityMismatch {
                callee,
                expected,
                found,
            } => write!(
                f,
                "call to `{callee}` passes {found} argument(s), expected {expected}"
            ),
        }
    }
}

impl Error for InlineError {}

/// Returns a program whose `proc_name` procedure has every call expanded,
/// and whose other procedures are removed (they have been absorbed). The
/// result is laid out ([`layout_program`]): its spans are those of its
/// canonical text. Programs without calls are returned re-spanned but
/// otherwise unchanged.
///
/// # Errors
///
/// See [`InlineError`].
///
/// # Examples
///
/// ```
/// use dise_ir::inline::inline_program;
/// use dise_ir::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = parse_program(
///     "int total = 0;
///      proc add(int amount) {
///        if (amount > 0) { total = total + amount; }
///      }
///      proc main(int a, int b) {
///        add(a);
///        add(b);
///      }",
/// )?;
/// let flat = inline_program(&program, "main")?;
/// assert_eq!(flat.procs.len(), 1);
/// assert!(dise_ir::check_program(&flat).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn inline_program(program: &Program, proc_name: &str) -> Result<Program, InlineError> {
    let mut flat = expand_calls(program, proc_name)?;
    layout_program(&mut flat);
    Ok(flat)
}

/// The expansion step of [`inline_program`]: `proc_name` with every call
/// expanded, alone in a program with the original globals. Each copy of a
/// callee statement keeps its span in the callee and parameter bindings
/// have none, so the spans are not yet unique; [`layout_program`] makes
/// them so.
///
/// # Errors
///
/// See [`InlineError`].
pub fn expand_calls(program: &Program, proc_name: &str) -> Result<Program, InlineError> {
    let procedure = program
        .proc(proc_name)
        .ok_or_else(|| InlineError::MissingProcedure(proc_name.to_string()))?;
    let mut inliner = Inliner {
        program,
        in_progress: vec![proc_name.to_string()],
        counter: 0,
    };
    let body = inliner.expand_block(&procedure.body, proc_name)?;
    Ok(Program {
        globals: program.globals.clone(),
        procs: vec![Procedure {
            name: procedure.name.clone(),
            params: procedure.params.clone(),
            body,
            span: procedure.span,
        }],
    })
}

/// Does the program's `proc_name` procedure (transitively) contain calls?
pub fn contains_calls(program: &Program, proc_name: &str) -> bool {
    fn block_has_calls(block: &Block) -> bool {
        block.stmts.iter().any(|stmt| match &stmt.kind {
            StmtKind::Call { .. } => true,
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => block_has_calls(then_branch) || else_branch.as_ref().is_some_and(block_has_calls),
            StmtKind::While { body, .. } => block_has_calls(body),
            _ => false,
        })
    }
    program
        .proc(proc_name)
        .is_some_and(|p| block_has_calls(&p.body))
}

struct Inliner<'a> {
    program: &'a Program,
    /// Call stack of procedure names, for cycle detection.
    in_progress: Vec<String>,
    /// Per-expansion counter for fresh name prefixes.
    counter: usize,
}

impl Inliner<'_> {
    fn expand_block(&mut self, block: &Block, caller: &str) -> Result<Block, InlineError> {
        let mut out = Vec::with_capacity(block.stmts.len());
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Call { callee, args } => {
                    out.extend(self.expand_call(caller, callee, args)?);
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => out.push(Stmt {
                    kind: StmtKind::If {
                        cond: cond.clone(),
                        then_branch: self.expand_block(then_branch, caller)?,
                        else_branch: match else_branch {
                            Some(b) => Some(self.expand_block(b, caller)?),
                            None => None,
                        },
                    },
                    span: stmt.span,
                }),
                StmtKind::While { cond, body } => out.push(Stmt {
                    kind: StmtKind::While {
                        cond: cond.clone(),
                        body: self.expand_block(body, caller)?,
                    },
                    span: stmt.span,
                }),
                _ => out.push(stmt.clone()),
            }
        }
        Ok(Block::new(out))
    }

    fn expand_call(
        &mut self,
        caller: &str,
        callee_name: &str,
        args: &[Expr],
    ) -> Result<Vec<Stmt>, InlineError> {
        let callee = self
            .program
            .proc(callee_name)
            .ok_or_else(|| InlineError::UnknownCallee {
                caller: caller.to_string(),
                callee: callee_name.to_string(),
            })?;
        if self.in_progress.iter().any(|name| name == callee_name) {
            return Err(InlineError::Recursive(callee_name.to_string()));
        }
        if callee.params.len() != args.len() {
            return Err(InlineError::ArityMismatch {
                callee: callee_name.to_string(),
                expected: callee.params.len(),
                found: args.len(),
            });
        }

        // Recursively expand the callee's own calls first.
        self.in_progress.push(callee_name.to_string());
        let callee_body = self.expand_block(&callee.body, callee_name);
        self.in_progress.pop();
        let mut callee_body = callee_body?;

        // A tail `return` is redundant after inlining; any other `return`
        // cannot be expressed.
        if let Some(last) = callee_body.stmts.last() {
            if matches!(last.kind, StmtKind::Return) {
                callee_body.stmts.pop();
            }
        }
        if block_contains_return(&callee_body) {
            return Err(InlineError::NonTailReturn(callee_name.to_string()));
        }

        // Fresh names for parameters and locals.
        self.counter += 1;
        let prefix = format!("__{}_{}_", callee_name, self.counter);
        let mut renames: HashMap<String, String> = HashMap::new();
        let mut stmts = Vec::new();
        for (param, arg) in callee.params.iter().zip(args) {
            let fresh = format!("{prefix}{}", param.name);
            stmts.push(Stmt::new(StmtKind::Decl {
                ty: param.ty,
                name: fresh.clone(),
                init: arg.clone(),
            }));
            renames.insert(param.name.clone(), fresh);
        }
        rename_block(&mut callee_body, &prefix, &mut renames);
        stmts.extend(callee_body.stmts);
        Ok(stmts)
    }
}

fn block_contains_return(block: &Block) -> bool {
    block.stmts.iter().any(|stmt| match &stmt.kind {
        StmtKind::Return => true,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            block_contains_return(then_branch)
                || else_branch.as_ref().is_some_and(block_contains_return)
        }
        StmtKind::While { body, .. } => block_contains_return(body),
        _ => false,
    })
}

/// α-renames parameters/locals in an expanded callee body, in place.
/// `renames` maps original names to fresh ones; locals declared inside the
/// body are added as they are encountered (MJ forbids shadowing, so a
/// single map suffices). An assert keeps the text of its condition as
/// written in the callee as its label.
fn rename_block(block: &mut Block, prefix: &str, renames: &mut HashMap<String, String>) {
    for stmt in &mut block.stmts {
        match &mut stmt.kind {
            StmtKind::Decl { name, init, .. } => {
                rename_expr(init, renames);
                let fresh = format!("{prefix}{name}");
                renames.insert(std::mem::replace(name, fresh.clone()), fresh);
            }
            StmtKind::Assign { name, value } => {
                rename_var(name, renames);
                rename_expr(value, renames);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                rename_expr(cond, renames);
                rename_block(then_branch, prefix, renames);
                if let Some(else_block) = else_branch {
                    rename_block(else_block, prefix, renames);
                }
            }
            StmtKind::While { cond, body } => {
                rename_expr(cond, renames);
                rename_block(body, prefix, renames);
            }
            StmtKind::Assert { cond, label } => {
                label.get_or_insert_with(|| crate::pretty::pretty_expr(cond));
                rename_expr(cond, renames);
            }
            StmtKind::Assume { cond } => rename_expr(cond, renames),
            StmtKind::Call { args, .. } => {
                for arg in args {
                    rename_expr(arg, renames);
                }
            }
            StmtKind::Skip | StmtKind::Return => {}
        }
    }
}

fn rename_expr(expr: &mut Expr, renames: &HashMap<String, String>) {
    match &mut expr.kind {
        ExprKind::Var(name) => rename_var(name, renames),
        ExprKind::Unary { expr: inner, .. } => rename_expr(inner, renames),
        ExprKind::Binary { lhs, rhs, .. } => {
            rename_expr(lhs, renames);
            rename_expr(rhs, renames);
        }
        ExprKind::Int(_) | ExprKind::Bool(_) => {}
    }
}

fn rename_var(name: &mut String, renames: &HashMap<String, String>) {
    if let Some(fresh) = renames.get(name.as_str()) {
        name.clone_from(fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::pretty_program;
    use crate::typeck::check_program;

    fn inline_checked(src: &str, proc: &str) -> Program {
        let program = parse_program(src).unwrap();
        check_program(&program).unwrap();
        let flat = inline_program(&program, proc).unwrap();
        check_program(&flat).unwrap();
        flat
    }

    #[test]
    fn simple_call_is_expanded() {
        let flat = inline_checked(
            "int total = 0;
             proc add(int amount) {
               total = total + amount;
             }
             proc main(int a) {
               add(a + 1);
             }",
            "main",
        );
        assert_eq!(flat.procs.len(), 1);
        let printed = pretty_program(&flat);
        assert!(printed.contains("__add_1_amount = a + 1"));
        assert!(printed.contains("total = total + __add_1_amount"));
        assert!(!contains_calls(&flat, "main"));
    }

    #[test]
    fn two_call_sites_get_distinct_names() {
        let flat = inline_checked(
            "int total = 0;
             proc add(int amount) { total = total + amount; }
             proc main(int a, int b) { add(a); add(b); }",
            "main",
        );
        let printed = pretty_program(&flat);
        assert!(printed.contains("__add_1_amount"));
        assert!(printed.contains("__add_2_amount"));
    }

    #[test]
    fn nested_calls_expand_transitively() {
        let flat = inline_checked(
            "int g = 0;
             proc inner(int x) { g = g + x; }
             proc outer(int y) { inner(y * 2); }
             proc main(int a) { outer(a); }",
            "main",
        );
        let printed = pretty_program(&flat);
        assert!(printed.contains("g = g +"));
        assert!(!contains_calls(&flat, "main"));
        // Both layers of parameter bindings survive.
        assert!(printed.contains("outer"));
        assert!(printed.contains("inner"));
    }

    #[test]
    fn callee_locals_are_renamed() {
        let flat = inline_checked(
            "int g = 0;
             proc bump(int by) {
               int doubled = by * 2;
               g = g + doubled;
             }
             proc main(int a) {
               int doubled = a;
               bump(doubled);
             }",
            "main",
        );
        // The caller's `doubled` and the callee's `doubled` must coexist.
        check_program(&flat).unwrap();
        let printed = pretty_program(&flat);
        assert!(printed.contains("__bump_1_doubled"));
    }

    #[test]
    fn recursion_is_rejected() {
        let program = parse_program("proc f(int x) { f(x); }").unwrap();
        assert_eq!(
            inline_program(&program, "f").unwrap_err(),
            InlineError::Recursive("f".into())
        );
        let program = parse_program(
            "proc a(int x) { b(x); }
             proc b(int x) { a(x); }
             proc main(int x) { a(x); }",
        )
        .unwrap();
        assert!(matches!(
            inline_program(&program, "main").unwrap_err(),
            InlineError::Recursive(_)
        ));
    }

    #[test]
    fn tail_return_is_dropped_non_tail_rejected() {
        let flat = inline_checked(
            "int g = 0;
             proc set(int v) { g = v; return; }
             proc main(int a) { set(a); g = g + 1; }",
            "main",
        );
        let printed = pretty_program(&flat);
        assert!(!printed.contains("return"));

        let program = parse_program(
            "int g = 0;
             proc set(int v) { if (v > 0) { return; } g = v; }
             proc main(int a) { set(a); }",
        )
        .unwrap();
        assert_eq!(
            inline_program(&program, "main").unwrap_err(),
            InlineError::NonTailReturn("set".into())
        );
    }

    #[test]
    fn unknown_callee_and_missing_proc() {
        let program = parse_program("proc main(int a) { skip; }").unwrap();
        assert_eq!(
            inline_program(&program, "nope").unwrap_err(),
            InlineError::MissingProcedure("nope".into())
        );
    }

    #[test]
    fn call_free_program_is_preserved() {
        let src = "proc main(int a) { if (a > 0) { a = 1; } }";
        let program = parse_program(src).unwrap();
        let flat = inline_program(&program, "main").unwrap();
        assert!(program.procs[0].body.syn_eq(&flat.procs[0].body));
        assert!(!contains_calls(&program, "main"));
    }

    #[test]
    fn inlined_program_executes_like_handwritten() {
        // The inlined version must be semantically the hand-flattened one.
        let multi = inline_checked(
            "int total = 0;
             proc clamp(int hi) {
               if (total > hi) { total = hi; }
             }
             proc main(int a, int b) {
               total = a + b;
               clamp(100);
             }",
            "main",
        );
        let flat_src = "int total = 0;
             proc main(int a, int b) {
               total = a + b;
               int hi = 100;
               if (total > hi) { total = hi; }
             }";
        let flat = parse_program(flat_src).unwrap();
        // Same branching structure: both have exactly one conditional.
        let count = |p: &Program| {
            let mut n = 0;
            fn walk(b: &Block, n: &mut usize) {
                for s in &b.stmts {
                    if let StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } = &s.kind
                    {
                        *n += 1;
                        walk(then_branch, n);
                        if let Some(e) = else_branch {
                            walk(e, n);
                        }
                    }
                }
            }
            walk(&p.procs[0].body, &mut n);
            n
        };
        assert_eq!(count(&multi), count(&flat));
    }
}
