//! Symbolic evaluation of MJ expressions.
//!
//! Maps an AST [`Expr`] to a [`SymExpr`] under an [`Env`], using the
//! solver's smart constructors so concrete sub-computations fold away
//! (`2 + 3` never reaches a path condition).

use dise_ir::ast::{Expr, ExprKind};
use dise_solver::SymExpr;

use crate::env::Env;

/// Errors during symbolic evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was read that is not bound in the environment. Type
    /// checking prevents this for checked programs; it remains observable
    /// when executing unchecked ASTs.
    UnboundVariable(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `expr` to a symbolic value under `env`.
///
/// # Errors
///
/// [`EvalError::UnboundVariable`] if `expr` reads a name `env` does not
/// bind.
///
/// # Examples
///
/// ```
/// use dise_ir::parse_expr;
/// use dise_solver::{SymExpr, SymTy, VarPool};
/// use dise_symexec::env::Env;
/// use dise_symexec::eval::eval_symbolic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let x = pool.fresh("X", SymTy::Int);
/// let mut env = Env::new();
/// env.bind("x", SymExpr::var(&x));
/// let value = eval_symbolic(&parse_expr("x + 1 + 2")?, &env)?;
/// assert_eq!(value.to_string(), "X + 1 + 2");
/// let folded = eval_symbolic(&parse_expr("1 + 2")?, &env)?;
/// assert_eq!(folded, SymExpr::int(3));
/// # Ok(())
/// # }
/// ```
pub fn eval_symbolic(expr: &Expr, env: &Env) -> Result<SymExpr, EvalError> {
    match &expr.kind {
        ExprKind::Int(v) => Ok(SymExpr::int(*v)),
        ExprKind::Bool(b) => Ok(SymExpr::boolean(*b)),
        ExprKind::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
        ExprKind::Unary { op, expr: inner } => {
            let arg = eval_symbolic(inner, env)?;
            Ok(SymExpr::unary(*op, arg))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = eval_symbolic(lhs, env)?;
            let r = eval_symbolic(rhs, env)?;
            Ok(SymExpr::binary(*op, l, r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_expr;
    use dise_solver::{SymTy, VarPool};

    fn env_xy() -> (Env, VarPool) {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let mut env = Env::new();
        env.bind("x", SymExpr::var(&x));
        env.bind("y", SymExpr::var(&y));
        (env, pool)
    }

    #[test]
    fn concrete_subterms_fold() {
        let (env, _) = env_xy();
        let e = eval_symbolic(&parse_expr("x + (2 * 3)").unwrap(), &env).unwrap();
        assert_eq!(e.to_string(), "X + 6");
    }

    #[test]
    fn symbolic_update_builds_expression() {
        // The paper's testX: after `y = y + x`, y holds Y + X.
        let (mut env, _) = env_xy();
        let value = eval_symbolic(&parse_expr("y + x").unwrap(), &env).unwrap();
        env.bind("y", value);
        assert_eq!(env.get("y").unwrap().to_string(), "Y + X");
    }

    #[test]
    fn unbound_variable_errors() {
        let (env, _) = env_xy();
        let err = eval_symbolic(&parse_expr("z + 1").unwrap(), &env).unwrap_err();
        assert_eq!(err, EvalError::UnboundVariable("z".into()));
        assert!(err.to_string().contains("z"));
    }

    #[test]
    fn comparisons_and_logic() {
        let (env, _) = env_xy();
        let e = eval_symbolic(&parse_expr("x > 0 && y <= 10").unwrap(), &env).unwrap();
        assert_eq!(e.to_string(), "X > 0 && Y <= 10");
    }

    #[test]
    fn concrete_branch_condition_folds_to_constant() {
        let mut env = Env::new();
        env.bind("x", SymExpr::int(5));
        let e = eval_symbolic(&parse_expr("x > 0").unwrap(), &env).unwrap();
        assert_eq!(e, SymExpr::boolean(true));
    }
}
