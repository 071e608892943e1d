//! Path-condition simplification by bound subsumption.
//!
//! Symbolic execution accumulates one conjunct per branch, so loop-heavy
//! paths produce chains like `0 < N && 1 < N && … && 12 < N && 13 >= N`.
//! [`simplify_pc`] drops conjuncts implied by the rest:
//!
//! * per variable, only the tightest single-variable lower and upper bound
//!   survive (an equality pins both);
//! * detected single-variable contradictions collapse the whole condition
//!   to `false`;
//! * multi-variable and non-linear conjuncts are kept untouched (they may
//!   carry information no bound summarizes).
//!
//! The result is logically equivalent over the integers to the input. The
//! executor keeps the *raw* path condition (the golden traces compare
//! against the paper's accumulation order); simplification is a display /
//! reporting convenience.

use std::collections::BTreeMap;

use crate::constraint::PathCondition;
use crate::linear::linearize;
use crate::sym::{BinOp, SymExpr};

/// Per-variable bounds gathered from single-variable conjuncts.
#[derive(Debug, Clone, Copy, Default)]
struct Bounds {
    /// Tightest `v >= lo` seen, with the index of the conjunct providing it.
    lo: Option<(i128, usize)>,
    /// Tightest `v <= hi` seen, with the index of the conjunct providing it.
    hi: Option<(i128, usize)>,
}

/// Returns an equivalent path condition with subsumed single-variable
/// bounds removed.
///
/// # Examples
///
/// ```
/// use dise_solver::simplify::simplify_pc;
/// use dise_solver::{PathCondition, SymExpr, SymTy, VarPool};
///
/// let mut pool = VarPool::new();
/// let n = pool.fresh("N", SymTy::Int);
/// let pc: PathCondition = (0..5)
///     .map(|k| SymExpr::lt(SymExpr::int(k), SymExpr::var(&n)))
///     .collect();
/// assert_eq!(simplify_pc(&pc).to_string(), "4 < N");
/// ```
pub fn simplify_pc(pc: &PathCondition) -> PathCondition {
    // Classify every conjunct. For single-variable linear atoms
    // `c·v + k ⋈ 0`, fold into the per-variable bounds.
    let mut bounds: BTreeMap<u32, Bounds> = BTreeMap::new();
    let mut keep: Vec<bool> = vec![true; pc.len()];

    for (index, conjunct) in pc.conjuncts().iter().enumerate() {
        let Some((var, lo, hi)) = single_var_bounds(conjunct) else {
            continue;
        };
        keep[index] = false; // representable as bounds; re-emitted below
        let entry = bounds.entry(var).or_default();
        if let Some(lo) = lo {
            if entry.lo.is_none_or(|(best, _)| lo > best) {
                entry.lo = Some((lo, index));
            }
        }
        if let Some(hi) = hi {
            if entry.hi.is_none_or(|(best, _)| hi < best) {
                entry.hi = Some((hi, index));
            }
        }
    }

    // Contradiction: empty interval.
    for info in bounds.values() {
        if let (Some((lo, _)), Some((hi, _))) = (info.lo, info.hi) {
            if lo > hi {
                let mut out = PathCondition::new();
                out.push(SymExpr::boolean(false));
                return out;
            }
        }
    }

    // Re-emit: surviving bound conjuncts keep their original positions so
    // the output reads in accumulation order.
    for info in bounds.values() {
        if let Some((_, index)) = info.lo {
            keep[index] = true;
        }
        if let Some((_, index)) = info.hi {
            keep[index] = true;
        }
    }
    pc.conjuncts()
        .iter()
        .enumerate()
        .filter(|(i, _)| keep[*i])
        .map(|(_, c)| c.clone())
        .collect()
}

/// If `conjunct` is a single-variable linear comparison, returns
/// `(variable id, implied lower bound, implied upper bound)`.
fn single_var_bounds(conjunct: &SymExpr) -> Option<(u32, Option<i128>, Option<i128>)> {
    let SymExpr::Binary { op, lhs, rhs } = conjunct else {
        return None;
    };
    if !(op.is_ordering() || *op == BinOp::Eq) {
        return None;
    }
    let diff = linearize(lhs)?.checked_sub(&linearize(rhs)?)?;
    let mut terms = diff.terms();
    let (var, coeff) = terms.next()?;
    if terms.next().is_some() {
        return None; // multi-variable
    }
    drop(terms);
    let k = diff.constant();
    // c·v + k ⋈ 0  ⇔  v ⋈' -k/c (integer-rounded; sign of c flips order).
    let bound_le = |c: i128, k: i128| (-k).div_euclid(c); // v <= floor(-k/c), c > 0
    Some(match (op, coeff > 0) {
        // c·v + k <= 0
        (BinOp::Le, true) => (var, None, Some(bound_le(coeff, k))),
        // c < 0: v >= ceil(-k/c); `div_euclid` by a negative divisor leaves
        // a non-negative remainder, so its quotient is exactly the ceiling.
        (BinOp::Le, false) => (var, Some((-k).div_euclid(coeff)), None),
        // c·v + k < 0  ⇔  c·v + k + 1 <= 0 over the integers
        (BinOp::Lt, true) => (var, None, Some(bound_le(coeff, k + 1))),
        (BinOp::Lt, false) => (var, Some((-(k + 1)).div_euclid(coeff)), None),
        // c·v + k >= 0  ⇔  -c·v - k <= 0
        (BinOp::Ge, true) => (var, Some(k_div_ceil(-k, coeff)), None),
        (BinOp::Ge, false) => (var, None, Some(bound_le(-coeff, -k))),
        // c·v + k > 0
        (BinOp::Gt, true) => (var, Some(k_div_ceil(-k + 1, coeff)), None),
        (BinOp::Gt, false) => (var, None, Some(bound_le(-coeff, -(k - 1)))),
        // c·v + k == 0: pins v when divisible, else contradiction.
        (BinOp::Eq, _) => {
            if (-k).rem_euclid(coeff.abs()) == 0 {
                let v = (-k).div_euclid(coeff);
                (var, Some(v), Some(v))
            } else {
                // No integer solution: lo > hi forces `false` upstream.
                (var, Some(1), Some(0))
            }
        }
        _ => return None,
    })
}

/// `ceil(a / b)` for `b > 0`.
fn k_div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// Convenience: simplified display strings for a set of path conditions.
pub fn simplify_pc_strings<'a>(pcs: impl IntoIterator<Item = &'a PathCondition>) -> Vec<String> {
    pcs.into_iter()
        .map(|pc| simplify_pc(pc).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::{SymTy, SymVar, VarPool};
    use crate::Solver;

    fn var() -> (VarPool, SymVar) {
        let mut pool = VarPool::new();
        let n = pool.fresh("N", SymTy::Int);
        (pool, n)
    }

    #[test]
    fn loop_chain_collapses_to_tightest_bounds() {
        let (_, n) = var();
        let mut pc = PathCondition::new();
        for k in 0..13 {
            pc.push(SymExpr::lt(SymExpr::int(k), SymExpr::var(&n)));
        }
        pc.push(SymExpr::ge(SymExpr::int(13), SymExpr::var(&n)));
        let simplified = simplify_pc(&pc);
        assert_eq!(simplified.to_string(), "12 < N && 13 >= N");
    }

    #[test]
    fn equality_pins_and_subsumes() {
        let (_, n) = var();
        let pc: PathCondition = [
            SymExpr::gt(SymExpr::var(&n), SymExpr::int(0)),
            SymExpr::eq(SymExpr::var(&n), SymExpr::int(5)),
            SymExpr::le(SymExpr::var(&n), SymExpr::int(100)),
        ]
        .into_iter()
        .collect();
        let simplified = simplify_pc(&pc);
        assert_eq!(simplified.to_string(), "N == 5");
    }

    #[test]
    fn contradictions_collapse_to_false() {
        let (_, n) = var();
        let pc: PathCondition = [
            SymExpr::gt(SymExpr::var(&n), SymExpr::int(9)),
            SymExpr::lt(SymExpr::var(&n), SymExpr::int(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(simplify_pc(&pc).to_string(), "false");
    }

    #[test]
    fn multi_variable_conjuncts_are_preserved() {
        let mut pool = VarPool::new();
        let a = pool.fresh("A", SymTy::Int);
        let b = pool.fresh("B", SymTy::Int);
        let cross = SymExpr::lt(SymExpr::var(&a), SymExpr::var(&b));
        let pc: PathCondition = [
            SymExpr::gt(SymExpr::var(&a), SymExpr::int(0)),
            SymExpr::gt(SymExpr::var(&a), SymExpr::int(2)),
            cross.clone(),
        ]
        .into_iter()
        .collect();
        let simplified = simplify_pc(&pc);
        assert_eq!(simplified.to_string(), "A > 2 && A < B");
    }

    #[test]
    fn scaled_coefficients_round_correctly() {
        let (_, n) = var();
        // 2N > 7 ⇔ N >= 4; 2N <= 9 ⇔ N <= 4.
        let pc: PathCondition = [
            SymExpr::gt(
                SymExpr::mul(SymExpr::int(2), SymExpr::var(&n)),
                SymExpr::int(7),
            ),
            SymExpr::le(
                SymExpr::mul(SymExpr::int(2), SymExpr::var(&n)),
                SymExpr::int(9),
            ),
        ]
        .into_iter()
        .collect();
        let simplified = simplify_pc(&pc);
        // Both conjuncts survive (each provides one side), none are
        // contradictory.
        assert_eq!(simplified.len(), 2);
    }

    #[test]
    fn simplification_preserves_satisfiability() {
        // Equivalence spot-check via the solver on a mixed condition.
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let pc: PathCondition = [
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)),
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
            SymExpr::le(
                SymExpr::add(SymExpr::var(&x), SymExpr::var(&y)),
                SymExpr::int(20),
            ),
        ]
        .into_iter()
        .collect();
        let simplified = simplify_pc(&pc);
        let mut solver = Solver::new();
        let original = solver.check_pc(&pc);
        let reduced = solver.check_pc(&simplified);
        assert_eq!(original.result(), reduced.result());
        // The simplified model satisfies the original constraints.
        let model = reduced.model().unwrap();
        assert!(pc.conjuncts().iter().all(|c| model.satisfies(c)));
    }

    #[test]
    fn trivial_conditions_pass_through() {
        assert_eq!(simplify_pc(&PathCondition::new()).to_string(), "true");
        let mut pool = VarPool::new();
        let b = pool.fresh("B", SymTy::Bool);
        let pc: PathCondition = [SymExpr::var(&b)].into_iter().collect();
        assert_eq!(simplify_pc(&pc).to_string(), "B");
    }

    #[test]
    fn unsatisfiable_equality_is_detected() {
        let (_, n) = var();
        // 2N == 7 has no integer solution.
        let pc: PathCondition = [SymExpr::eq(
            SymExpr::mul(SymExpr::int(2), SymExpr::var(&n)),
            SymExpr::int(7),
        )]
        .into_iter()
        .collect();
        assert_eq!(simplify_pc(&pc).to_string(), "false");
    }
}
