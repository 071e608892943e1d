//! Linear forms and linear atoms.
//!
//! A [`LinExpr`] is `Σ cᵢ·xᵢ + k` with `i128` coefficients over symbolic
//! integer variables (identified by their [`crate::SymVar`] id). A [`LinAtom`]
//! is a normalized constraint `expr ≤ 0` or `expr = 0`; strict inequalities
//! over the integers are absorbed into `≤` (`e < 0 ⇔ e + 1 ≤ 0`), and `≥`,
//! `>` flip sides. Disequalities are *not* atoms — the incremental solver
//! evaluates them as residuals during model search, and case-splits them
//! into `<` and `>` only when the search leaves a path undecided.
//!
//! All arithmetic is checked; overflow makes extraction fail, which the
//! solver maps to [`crate::SatResult::Unknown`] (never to a wrong answer).

use std::collections::BTreeMap;
use std::fmt;

use crate::sym::{BinOp, SymExpr, SymTy, UnOp};

/// A linear expression `Σ cᵢ·xᵢ + k` (coefficients never zero).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<u32, i128>,
    constant: i128,
}

impl LinExpr {
    /// The constant `k`.
    pub fn constant_expr(k: i128) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: k,
        }
    }

    /// The single variable `x` (coefficient 1).
    pub fn variable(id: u32) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(id, 1);
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// The coefficient of variable `id` (zero if absent).
    pub fn coeff(&self, id: u32) -> i128 {
        self.coeffs.get(&id).copied().unwrap_or(0)
    }

    /// The additive constant.
    pub fn constant(&self) -> i128 {
        self.constant
    }

    /// Iterates over `(variable id, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (u32, i128)> + '_ {
        self.coeffs.iter().map(|(&id, &c)| (id, c))
    }

    /// Returns `true` if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        let mut out = self.clone();
        out.constant = out.constant.checked_add(other.constant)?;
        for (&id, &c) in &other.coeffs {
            let merged = out.coeff(id).checked_add(c)?;
            if merged == 0 {
                out.coeffs.remove(&id);
            } else {
                out.coeffs.insert(id, merged);
            }
        }
        Some(out)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &LinExpr) -> Option<LinExpr> {
        self.checked_add(&other.checked_scale(-1)?)
    }

    /// Checked scalar multiplication.
    pub fn checked_scale(&self, factor: i128) -> Option<LinExpr> {
        if factor == 0 {
            return Some(LinExpr::constant_expr(0));
        }
        let mut out = LinExpr {
            coeffs: BTreeMap::new(),
            constant: self.constant.checked_mul(factor)?,
        };
        for (&id, &c) in &self.coeffs {
            out.coeffs.insert(id, c.checked_mul(factor)?);
        }
        Some(out)
    }

    /// Removes variable `id`, returning its coefficient (zero if absent).
    pub fn remove_var(&mut self, id: u32) -> i128 {
        self.coeffs.remove(&id).unwrap_or(0)
    }

    /// Folds every variable `value` assigns into the constant, in id
    /// order. `None` on overflow.
    pub(crate) fn fold_assigned(&self, value: impl Fn(u32) -> Option<i64>) -> Option<LinExpr> {
        let mut out = LinExpr::constant_expr(self.constant);
        for (&id, &c) in &self.coeffs {
            match value(id) {
                Some(v) => {
                    out.constant = c
                        .checked_mul(v as i128)
                        .and_then(|t| out.constant.checked_add(t))?;
                }
                None => {
                    out.coeffs.insert(id, c);
                }
            }
        }
        Some(out)
    }

    /// Evaluates under a total integer assignment.
    pub fn eval(&self, assignment: &BTreeMap<u32, i64>) -> Option<i128> {
        let mut total = self.constant;
        for (&id, &c) in &self.coeffs {
            let v = *assignment.get(&id)?;
            total = total.checked_add(c.checked_mul(v as i128)?)?;
        }
        Some(total)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (&id, &c) in &self.coeffs {
            if first {
                if c == 1 {
                    write!(f, "v{id}")?;
                } else if c == -1 {
                    write!(f, "-v{id}")?;
                } else {
                    write!(f, "{c}*v{id}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + v{id}")?;
                } else {
                    write!(f, " + {c}*v{id}")?;
                }
            } else if c == -1 {
                write!(f, " - v{id}")?;
            } else {
                write!(f, " - {}*v{id}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// The relation of a normalized [`LinAtom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr ≤ 0`.
    Le,
    /// `expr = 0`.
    Eq,
}

/// A normalized linear constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinAtom {
    /// The linear expression constrained against zero.
    pub expr: LinExpr,
    /// The relation to zero.
    pub rel: Rel,
}

impl LinAtom {
    /// `expr ≤ 0`.
    pub fn le(expr: LinExpr) -> LinAtom {
        LinAtom { expr, rel: Rel::Le }
    }

    /// `expr = 0`.
    pub fn eq(expr: LinExpr) -> LinAtom {
        LinAtom { expr, rel: Rel::Eq }
    }

    /// For a constant atom, whether it is satisfied; `None` if the atom
    /// still has variables.
    pub fn constant_truth(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        Some(match self.rel {
            Rel::Le => self.expr.constant() <= 0,
            Rel::Eq => self.expr.constant() == 0,
        })
    }

    /// Evaluates under a total integer assignment.
    pub fn eval(&self, assignment: &BTreeMap<u32, i64>) -> Option<bool> {
        let value = self.expr.eval(assignment)?;
        Some(match self.rel {
            Rel::Le => value <= 0,
            Rel::Eq => value == 0,
        })
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rel {
            Rel::Le => write!(f, "{} <= 0", self.expr),
            Rel::Eq => write!(f, "{} == 0", self.expr),
        }
    }
}

/// Converts an *integer-typed* symbolic expression to a linear form.
/// Returns `None` for nonlinear expressions (`x*y`, `x/2`, `x%3`) or on
/// coefficient overflow.
pub fn linearize(expr: &SymExpr) -> Option<LinExpr> {
    match expr {
        SymExpr::Int(v) => Some(LinExpr::constant_expr(*v as i128)),
        SymExpr::Var(v) if v.ty() == SymTy::Int => Some(LinExpr::variable(v.id())),
        SymExpr::Var(_) => None,
        SymExpr::Unary { op: UnOp::Neg, arg } => linearize(arg)?.checked_scale(-1),
        SymExpr::Unary { .. } => None,
        SymExpr::Binary { op, lhs, rhs } => {
            let l = linearize(lhs);
            let r = linearize(rhs);
            match op {
                BinOp::Add => l?.checked_add(&r?),
                BinOp::Sub => l?.checked_sub(&r?),
                BinOp::Mul => {
                    let (l, r) = (l?, r?);
                    if l.is_constant() {
                        r.checked_scale(l.constant())
                    } else if r.is_constant() {
                        l.checked_scale(r.constant())
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        SymExpr::Bool(_) => None,
    }
}

/// Converts a comparison `lhs ⋈ rhs` over integers to normalized atoms.
///
/// Returns the atoms whose conjunction is equivalent:
/// * `<`, `≤`, `>`, `≥` and `=` produce one atom;
/// * `≠` produces `None` (the caller keeps it as a residual or
///   case-splits it).
pub fn atomize_cmp(op: BinOp, lhs: &SymExpr, rhs: &SymExpr) -> Option<LinAtom> {
    let l = linearize(lhs)?;
    let r = linearize(rhs)?;
    let diff = l.checked_sub(&r)?; // lhs - rhs ⋈ 0
    Some(match op {
        BinOp::Le => LinAtom::le(diff),
        BinOp::Lt => LinAtom::le(diff.checked_add(&LinExpr::constant_expr(1))?),
        BinOp::Ge => LinAtom::le(diff.checked_scale(-1)?),
        BinOp::Gt => LinAtom::le(
            diff.checked_scale(-1)?
                .checked_add(&LinExpr::constant_expr(1))?,
        ),
        BinOp::Eq => LinAtom::eq(diff),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::{SymTy, VarPool};

    fn vars() -> (VarPool, crate::sym::SymVar, crate::sym::SymVar) {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        (pool, x, y)
    }

    #[test]
    fn linearize_basic_shapes() {
        let (_, x, y) = vars();
        // 2*x - y + 3
        let e = SymExpr::add(
            SymExpr::sub(
                SymExpr::mul(SymExpr::int(2), SymExpr::var(&x)),
                SymExpr::var(&y),
            ),
            SymExpr::int(3),
        );
        let lin = linearize(&e).unwrap();
        assert_eq!(lin.coeff(x.id()), 2);
        assert_eq!(lin.coeff(y.id()), -1);
        assert_eq!(lin.constant(), 3);
        assert_eq!(lin.num_vars(), 2);
    }

    #[test]
    fn linearize_cancels_terms() {
        let (_, x, _) = vars();
        // x - x + 5 folds to 0 at construction (identical operands), so
        // exercise cancellation through distinct shapes: (x + 5) - x.
        let e = SymExpr::Binary {
            op: BinOp::Sub,
            lhs: SymExpr::add(SymExpr::var(&x), SymExpr::int(5)).into(),
            rhs: SymExpr::var(&x).into(),
        };
        let lin = linearize(&e).unwrap();
        assert!(lin.is_constant());
        assert_eq!(lin.constant(), 5);
    }

    #[test]
    fn linearize_rejects_nonlinear() {
        let (_, x, y) = vars();
        assert!(linearize(&SymExpr::Binary {
            op: BinOp::Mul,
            lhs: SymExpr::var(&x).into(),
            rhs: SymExpr::var(&y).into(),
        })
        .is_none());
        assert!(linearize(&SymExpr::Binary {
            op: BinOp::Div,
            lhs: SymExpr::var(&x).into(),
            rhs: SymExpr::int(2).into(),
        })
        .is_none());
        assert!(linearize(&SymExpr::Binary {
            op: BinOp::Rem,
            lhs: SymExpr::var(&x).into(),
            rhs: SymExpr::int(3).into(),
        })
        .is_none());
    }

    #[test]
    fn linearize_negation() {
        let (_, x, _) = vars();
        let lin = linearize(&SymExpr::neg(SymExpr::var(&x))).unwrap();
        assert_eq!(lin.coeff(x.id()), -1);
    }

    #[test]
    fn atomize_strict_comparison_tightens() {
        let (_, x, _) = vars();
        // x < 5 ⇔ x - 5 + 1 ≤ 0 ⇔ x - 4 ≤ 0
        let atom = atomize_cmp(BinOp::Lt, &SymExpr::var(&x), &SymExpr::int(5)).unwrap();
        assert_eq!(atom.rel, Rel::Le);
        assert_eq!(atom.expr.coeff(x.id()), 1);
        assert_eq!(atom.expr.constant(), -4);
    }

    #[test]
    fn atomize_flips_ge_gt() {
        let (_, x, _) = vars();
        // x > 5 ⇔ -x + 6 ≤ 0
        let atom = atomize_cmp(BinOp::Gt, &SymExpr::var(&x), &SymExpr::int(5)).unwrap();
        assert_eq!(atom.expr.coeff(x.id()), -1);
        assert_eq!(atom.expr.constant(), 6);
        // x >= 5 ⇔ -x + 5 ≤ 0
        let atom = atomize_cmp(BinOp::Ge, &SymExpr::var(&x), &SymExpr::int(5)).unwrap();
        assert_eq!(atom.expr.constant(), 5);
    }

    #[test]
    fn atomize_equality() {
        let (_, x, y) = vars();
        let atom = atomize_cmp(BinOp::Eq, &SymExpr::var(&x), &SymExpr::var(&y)).unwrap();
        assert_eq!(atom.rel, Rel::Eq);
        assert_eq!(atom.expr.coeff(x.id()), 1);
        assert_eq!(atom.expr.coeff(y.id()), -1);
    }

    #[test]
    fn atomize_disequality_is_refused() {
        let (_, x, _) = vars();
        assert!(atomize_cmp(BinOp::Ne, &SymExpr::var(&x), &SymExpr::int(0)).is_none());
    }

    #[test]
    fn atom_eval_and_constant_truth() {
        let (_, x, _) = vars();
        let atom = atomize_cmp(BinOp::Le, &SymExpr::var(&x), &SymExpr::int(5)).unwrap();
        assert_eq!(atom.constant_truth(), None);
        let mut assignment = BTreeMap::new();
        assignment.insert(x.id(), 5i64);
        assert_eq!(atom.eval(&assignment), Some(true));
        assignment.insert(x.id(), 6);
        assert_eq!(atom.eval(&assignment), Some(false));
        let trivially = LinAtom::le(LinExpr::constant_expr(-3));
        assert_eq!(trivially.constant_truth(), Some(true));
        let falsely = LinAtom::eq(LinExpr::constant_expr(2));
        assert_eq!(falsely.constant_truth(), Some(false));
    }

    #[test]
    fn scale_overflow_is_detected() {
        let big = LinExpr::constant_expr(i128::MAX);
        assert!(big.checked_scale(2).is_none());
        assert!(big.checked_add(&LinExpr::constant_expr(1)).is_none());
    }

    #[test]
    fn display_is_readable() {
        let (_, x, y) = vars();
        let e = SymExpr::sub(
            SymExpr::mul(SymExpr::int(2), SymExpr::var(&x)),
            SymExpr::var(&y),
        );
        let lin = linearize(&SymExpr::add(e, SymExpr::int(7))).unwrap();
        assert_eq!(lin.to_string(), format!("2*v{} - v{} + 7", x.id(), y.id()));
        assert_eq!(LinExpr::constant_expr(0).to_string(), "0");
    }
}
