//! Interval constraint propagation.
//!
//! Maintains a (possibly unbounded) integer interval per variable and
//! tightens the intervals against a set of [`LinAtom`]s: for each atom
//! `Σ cᵢ·xᵢ + k ≤ 0` and each variable `xⱼ`, the remaining terms' interval
//! bounds imply a bound on `xⱼ`. Propagation is an over-approximation —
//! it never removes integer solutions — so an empty interval proves
//! unsatisfiability, and the final intervals safely seed the model search.

use std::collections::BTreeMap;
use std::fmt;

use crate::linear::{LinAtom, LinExpr, Rel};

/// An integer interval; `None` bounds mean unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: Option<i64>,
    /// Inclusive upper bound.
    pub hi: Option<i64>,
}

impl Interval {
    /// The full interval `(-∞, +∞)`.
    pub fn top() -> Interval {
        Interval::default()
    }

    /// The interval `[lo, hi]`.
    pub fn bounded(lo: i64, hi: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// A single point.
    pub fn point(v: i64) -> Interval {
        Interval::bounded(v, v)
    }

    /// Is the interval empty (`lo > hi`)?
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: i64) -> bool {
        self.lo.is_none_or(|l| l <= v) && self.hi.is_none_or(|h| v <= h)
    }

    /// Intersection; may be empty.
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Tightens the lower bound to at least `v`. Returns `true` on change.
    pub fn tighten_lo(&mut self, v: i64) -> bool {
        if self.lo.is_none_or(|l| v > l) {
            self.lo = Some(v);
            true
        } else {
            false
        }
    }

    /// Tightens the upper bound to at most `v`. Returns `true` on change.
    pub fn tighten_hi(&mut self, v: i64) -> bool {
        if self.hi.is_none_or(|h| v < h) {
            self.hi = Some(v);
            true
        } else {
            false
        }
    }

    /// Width of the interval, saturating; `None` if unbounded.
    pub fn width(&self) -> Option<u64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l <= h => Some((h as i128 - l as i128) as u64),
            (Some(_), Some(_)) => Some(0),
            _ => None,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Some(l) => write!(f, "[{l}, ")?,
            None => write!(f, "(-inf, ")?,
        }
        match self.hi {
            Some(h) => write!(f, "{h}]"),
            None => write!(f, "+inf)"),
        }
    }
}

/// Outcome of interval propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagationResult {
    /// The intervals (one per variable appearing in the atoms) after
    /// tightening to a fixed point or the iteration cap.
    Bounds(BTreeMap<u32, Interval>),
    /// Some variable's interval became empty: the atoms are unsatisfiable
    /// over the integers.
    Empty,
}

/// Maximum sweeps; tightening is monotone so this only limits how long we
/// chase slow count-downs (`x ≤ y - 1 ∧ y ≤ x` style chains).
const MAX_SWEEPS: usize = 64;

/// Propagates `atoms` starting from `initial` bounds (variables absent from
/// `initial` start unbounded).
pub fn propagate(atoms: &[LinAtom], initial: &BTreeMap<u32, Interval>) -> PropagationResult {
    let mut bounds: BTreeMap<u32, Interval> = initial.clone();
    for atom in atoms {
        for (id, _) in atom.expr.terms() {
            bounds.entry(id).or_insert_with(Interval::top);
        }
    }

    // An equality `e = 0` is `e ≤ 0 ∧ -e ≤ 0`; one whose negation
    // overflows is skipped.
    let negated: Vec<Option<LinExpr>> = atoms
        .iter()
        .map(|atom| match atom.rel {
            Rel::Le => None,
            Rel::Eq => atom.expr.checked_scale(-1),
        })
        .collect();
    for _ in 0..MAX_SWEEPS {
        let mut changed = false;
        for (atom, negated) in atoms.iter().zip(&negated) {
            let pair;
            let exprs: &[&LinExpr] = match (atom.rel, negated) {
                (Rel::Le, _) => &[&atom.expr],
                (Rel::Eq, Some(negated)) => {
                    pair = [&atom.expr, negated];
                    &pair
                }
                (Rel::Eq, None) => continue,
            };
            for &expr in exprs {
                // For each xⱼ: cⱼ·xⱼ ≤ -k - Σ_{i≠j} cᵢ·xᵢ.
                for (j, cj) in expr.terms() {
                    // Upper bound of the RHS via interval arithmetic.
                    let mut rhs_max: Option<i128> = Some(-expr.constant());
                    for (i, ci) in expr.terms() {
                        if i == j {
                            continue;
                        }
                        let iv = bounds.get(&i).copied().unwrap_or_default();
                        // max of (-ci * xi) over xi's interval.
                        let term_max = if ci > 0 {
                            iv.lo.map(|l| -(ci * l as i128))
                        } else {
                            iv.hi.map(|h| -(ci * h as i128))
                        };
                        rhs_max = match (rhs_max, term_max) {
                            (Some(a), Some(b)) => a.checked_add(b),
                            _ => None,
                        };
                    }
                    let Some(rhs_max) = rhs_max else { continue };
                    let iv = bounds.get_mut(&j).expect("seeded above");
                    if cj > 0 {
                        // xⱼ ≤ floor(rhs_max / cⱼ)
                        let bound = rhs_max.div_euclid(cj);
                        if bound < i64::MIN as i128 {
                            return PropagationResult::Empty;
                        }
                        let clamped = bound.min(i64::MAX as i128) as i64;
                        changed |= iv.tighten_hi(clamped);
                    } else {
                        // cⱼ < 0: xⱼ ≥ ceil(rhs_max / cⱼ). `div_euclid`
                        // with a negative divisor leaves a non-negative
                        // remainder, so its quotient is exactly the ceiling.
                        let bound = rhs_max.div_euclid(cj);
                        if bound > i64::MAX as i128 {
                            return PropagationResult::Empty;
                        }
                        let clamped = bound.max(i64::MIN as i128) as i64;
                        changed |= iv.tighten_lo(clamped);
                    }
                    if iv.is_empty() {
                        return PropagationResult::Empty;
                    }
                }
                // Constant atoms decide themselves.
                if expr.is_constant() && expr.constant() > 0 {
                    return PropagationResult::Empty;
                }
            }
        }
        if !changed {
            break;
        }
    }
    PropagationResult::Bounds(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::atomize_cmp;
    use crate::sym::{BinOp, SymExpr, SymTy, SymVar, VarPool};

    fn two_vars() -> (SymVar, SymVar) {
        let mut pool = VarPool::new();
        (pool.fresh("X", SymTy::Int), pool.fresh("Y", SymTy::Int))
    }

    fn atom(op: BinOp, lhs: SymExpr, rhs: SymExpr) -> LinAtom {
        atomize_cmp(op, &lhs, &rhs).unwrap()
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::bounded(2, 5);
        assert!(iv.contains(2) && iv.contains(5) && !iv.contains(6));
        assert!(!iv.is_empty());
        assert!(Interval::bounded(3, 2).is_empty());
        assert_eq!(iv.width(), Some(3));
        assert_eq!(Interval::top().width(), None);
        assert_eq!(
            Interval::bounded(0, 10).intersect(&Interval::bounded(5, 20)),
            Interval::bounded(5, 10)
        );
        assert_eq!(Interval::point(4).to_string(), "[4, 4]");
        assert_eq!(Interval::top().to_string(), "(-inf, +inf)");
    }

    #[test]
    fn propagate_simple_bounds() {
        let (x, _) = two_vars();
        let atoms = vec![
            atom(BinOp::Gt, SymExpr::var(&x), SymExpr::int(0)),
            atom(BinOp::Le, SymExpr::var(&x), SymExpr::int(9)),
        ];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&x.id()], Interval::bounded(1, 9));
    }

    #[test]
    fn propagate_detects_empty() {
        let (x, _) = two_vars();
        let atoms = vec![
            atom(BinOp::Gt, SymExpr::var(&x), SymExpr::int(5)),
            atom(BinOp::Lt, SymExpr::var(&x), SymExpr::int(5)),
        ];
        assert_eq!(
            propagate(&atoms, &BTreeMap::new()),
            PropagationResult::Empty
        );
    }

    #[test]
    fn propagate_equality_pins_point() {
        let (x, _) = two_vars();
        let atoms = vec![atom(BinOp::Eq, SymExpr::var(&x), SymExpr::int(7))];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&x.id()], Interval::point(7));
    }

    #[test]
    fn propagate_through_chain() {
        let (x, y) = two_vars();
        // x ≥ 3 ∧ y ≥ x + 2 ⇒ y ≥ 5
        let atoms = vec![
            atom(BinOp::Ge, SymExpr::var(&x), SymExpr::int(3)),
            atom(
                BinOp::Ge,
                SymExpr::var(&y),
                SymExpr::add(SymExpr::var(&x), SymExpr::int(2)),
            ),
        ];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&y.id()].lo, Some(5));
    }

    #[test]
    fn propagate_scaled_coefficients_round_correctly() {
        let (x, _) = two_vars();
        // 2x ≤ 7 ⇒ x ≤ 3 (floor)
        let atoms = vec![atom(
            BinOp::Le,
            SymExpr::mul(SymExpr::int(2), SymExpr::var(&x)),
            SymExpr::int(7),
        )];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&x.id()].hi, Some(3));
        // 2x ≥ 7 ⇒ x ≥ 4 (ceil)
        let atoms = vec![atom(
            BinOp::Ge,
            SymExpr::mul(SymExpr::int(2), SymExpr::var(&x)),
            SymExpr::int(7),
        )];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&x.id()].lo, Some(4));
    }

    #[test]
    fn propagation_is_sound_never_drops_solutions() {
        let (x, y) = two_vars();
        // x + y ≤ 10 ∧ x ≥ 0 ∧ y ≥ 0; solution (3, 7) must stay inside.
        let atoms = vec![
            atom(
                BinOp::Le,
                SymExpr::add(SymExpr::var(&x), SymExpr::var(&y)),
                SymExpr::int(10),
            ),
            atom(BinOp::Ge, SymExpr::var(&x), SymExpr::int(0)),
            atom(BinOp::Ge, SymExpr::var(&y), SymExpr::int(0)),
        ];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &BTreeMap::new()) else {
            panic!("expected bounds");
        };
        assert!(bounds[&x.id()].contains(3));
        assert!(bounds[&y.id()].contains(7));
        assert_eq!(bounds[&x.id()], Interval::bounded(0, 10));
    }

    #[test]
    fn initial_bounds_are_respected() {
        let (x, _) = two_vars();
        let mut initial = BTreeMap::new();
        initial.insert(x.id(), Interval::bounded(0, 100));
        let atoms = vec![atom(BinOp::Le, SymExpr::var(&x), SymExpr::int(5))];
        let PropagationResult::Bounds(bounds) = propagate(&atoms, &initial) else {
            panic!("expected bounds");
        };
        assert_eq!(bounds[&x.id()], Interval::bounded(0, 5));
    }

    #[test]
    fn trivially_false_constant_atom() {
        let atoms = vec![LinAtom::le(LinExpr::constant_expr(3))];
        assert_eq!(
            propagate(&atoms, &BTreeMap::new()),
            PropagationResult::Empty
        );
    }
}
