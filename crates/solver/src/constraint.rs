//! Path conditions.
//!
//! A [`PathCondition`] is the conjunction of branch constraints accumulated
//! along one symbolic execution path, exactly as in §2.1 of the paper. It
//! prints the way the paper writes them (`X > 0 && !(Y <= 3)`), and its
//! canonical string form is what the regression-testing application
//! compares.

use std::fmt;

use crate::sym::SymExpr;

/// A conjunction of boolean symbolic expressions.
///
/// The empty conjunction is `true` (the initial path condition).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PathCondition {
    conjuncts: Vec<SymExpr>,
}

impl PathCondition {
    /// The initial path condition `true`.
    pub fn new() -> Self {
        PathCondition::default()
    }

    /// Appends `constraint` in place. Constant `true` conjuncts are
    /// dropped; everything else is appended in order (order is part of
    /// the canonical display).
    pub fn push(&mut self, constraint: SymExpr) {
        if constraint.as_bool() == Some(true) {
            return;
        }
        self.conjuncts.push(constraint);
    }

    /// The conjuncts, in accumulation order.
    pub fn conjuncts(&self) -> &[SymExpr] {
        &self.conjuncts
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Returns `true` for the trivial path condition `true`.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Returns `true` if some conjunct is the constant `false`.
    pub fn has_false(&self) -> bool {
        self.conjuncts.iter().any(|c| c.as_bool() == Some(false))
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return f.write_str("true");
        }
        for (i, conjunct) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" && ")?;
            }
            // Parenthesize nested disjunctions for unambiguous reading.
            match conjunct {
                SymExpr::Binary { op, .. } if op.is_logical() => {
                    write!(f, "({conjunct})")?;
                }
                _ => write!(f, "{conjunct}")?,
            }
        }
        Ok(())
    }
}

impl FromIterator<SymExpr> for PathCondition {
    fn from_iter<T: IntoIterator<Item = SymExpr>>(iter: T) -> Self {
        let mut pc = PathCondition::new();
        for c in iter {
            pc.push(c);
        }
        pc
    }
}

impl Extend<SymExpr> for PathCondition {
    fn extend<T: IntoIterator<Item = SymExpr>>(&mut self, iter: T) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::{SymTy, VarPool};

    #[test]
    fn empty_pc_displays_true() {
        assert_eq!(PathCondition::new().to_string(), "true");
        assert!(PathCondition::new().is_empty());
    }

    #[test]
    fn and_accumulates_in_order() {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let mut pc = PathCondition::new();
        pc.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        pc.push(SymExpr::le(SymExpr::var(&x), SymExpr::int(9)));
        assert_eq!(pc.len(), 2);
        assert_eq!(pc.to_string(), "X > 0 && X <= 9");
    }

    #[test]
    fn true_conjuncts_are_dropped() {
        let pc: PathCondition = [SymExpr::boolean(true)].into_iter().collect();
        assert!(pc.is_empty());
    }

    #[test]
    fn false_is_detected() {
        let pc: PathCondition = [SymExpr::boolean(false)].into_iter().collect();
        assert!(pc.has_false());
        assert_eq!(pc.to_string(), "false");
    }

    #[test]
    fn nested_disjunction_is_parenthesized() {
        let mut pool = VarPool::new();
        let a = pool.fresh("A", SymTy::Bool);
        let b = pool.fresh("B", SymTy::Bool);
        let pc: PathCondition = [SymExpr::or(SymExpr::var(&a), SymExpr::var(&b))]
            .into_iter()
            .collect();
        assert_eq!(pc.to_string(), "(A || B)");
    }

    #[test]
    fn collects_from_iterator() {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let pc: PathCondition = vec![
            SymExpr::boolean(true),
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(pc.len(), 1);
        let mut pc2 = PathCondition::new();
        pc2.extend([SymExpr::ge(SymExpr::var(&x), SymExpr::int(1))]);
        assert_eq!(pc, pc2);
    }
}
