//! Models (satisfying assignments) and bounded model search.
//!
//! A [`Model`] maps symbolic-variable ids to concrete values. The search
//! procedure assigns variables one at a time — most-constrained first —
//! drawing candidate values from the propagated intervals, re-propagating
//! after every assignment, and refuting a candidate as soon as a residual
//! (non-linear, disjunctive or disequality) atom evaluates to false under
//! the partial assignment. Search is deterministic: the
//! "random" probes come from a fixed xorshift sequence, so identical
//! queries yield identical models (important for reproducible test
//! generation).

use std::collections::BTreeMap;

use crate::interval::{propagate, Interval, PropagationResult};
use crate::linear::LinAtom;
use crate::sym::{BinOp, SymExpr, SymTy, SymVar, UnOp};

/// A concrete value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A (possibly partial) assignment of symbolic variables to values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<u32, Value>,
}

impl Model {
    /// The empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Sets the value of a variable id.
    pub fn set(&mut self, id: u32, value: Value) {
        self.values.insert(id, value);
    }

    /// The value of `var`, if assigned.
    pub fn value(&self, var: &SymVar) -> Option<Value> {
        self.values.get(&var.id()).copied()
    }

    /// The integer value of `var`, if assigned an integer.
    pub fn int_value(&self, var: &SymVar) -> Option<i64> {
        match self.value(var)? {
            Value::Int(v) => Some(v),
            Value::Bool(_) => None,
        }
    }

    /// The boolean value of `var`, if assigned a boolean.
    pub fn bool_value(&self, var: &SymVar) -> Option<bool> {
        match self.value(var)? {
            Value::Bool(b) => Some(b),
            Value::Int(_) => None,
        }
    }

    /// Iterates over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Value)> + '_ {
        self.values.iter().map(|(&id, &v)| (id, v))
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates `expr` under this model. Returns `None` when a variable is
    /// unassigned, on arithmetic overflow, or on division by zero — callers
    /// treat `None` as "candidate rejected".
    pub fn eval(&self, expr: &SymExpr) -> Option<Value> {
        eval_in(expr, &|id| self.get(id))
    }

    /// The value of the variable with id `id`, if assigned.
    pub(crate) fn get(&self, id: u32) -> Option<Value> {
        self.values.get(&id).copied()
    }

    /// Evaluates a boolean expression to `true` under this model.
    pub fn satisfies(&self, constraint: &SymExpr) -> bool {
        self.eval(constraint) == Some(Value::Bool(true))
    }
}

/// Evaluates `expr` with variable values taken from `lookup` (by id) —
/// [`Model::eval`] over any assignment, such as a shared model seen
/// through a few overriding values. `None` exactly where
/// [`Model::eval`] answers `None`.
pub(crate) fn eval_in<F: Fn(u32) -> Option<Value>>(expr: &SymExpr, lookup: &F) -> Option<Value> {
    match expr {
        SymExpr::Int(v) => Some(Value::Int(*v)),
        SymExpr::Bool(b) => Some(Value::Bool(*b)),
        SymExpr::Var(v) => lookup(v.id()),
        SymExpr::Unary { op, arg } => {
            let inner = eval_in(arg, lookup)?;
            match (op, inner) {
                (UnOp::Neg, Value::Int(v)) => v.checked_neg().map(Value::Int),
                (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
                _ => None,
            }
        }
        SymExpr::Binary { op, lhs, rhs } => {
            // Short-circuit booleans first.
            if *op == BinOp::And || *op == BinOp::Or {
                let Value::Bool(l) = eval_in(lhs, lookup)? else {
                    return None;
                };
                if *op == BinOp::And && !l {
                    return Some(Value::Bool(false));
                }
                if *op == BinOp::Or && l {
                    return Some(Value::Bool(true));
                }
                let Value::Bool(r) = eval_in(rhs, lookup)? else {
                    return None;
                };
                return Some(Value::Bool(r));
            }
            let l = eval_in(lhs, lookup)?;
            let r = eval_in(rhs, lookup)?;
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => match op {
                    BinOp::Add => a.checked_add(b).map(Value::Int),
                    BinOp::Sub => a.checked_sub(b).map(Value::Int),
                    BinOp::Mul => a.checked_mul(b).map(Value::Int),
                    BinOp::Div => a.checked_div(b).map(Value::Int),
                    BinOp::Rem => a.checked_rem(b).map(Value::Int),
                    BinOp::Eq => Some(Value::Bool(a == b)),
                    BinOp::Ne => Some(Value::Bool(a != b)),
                    BinOp::Lt => Some(Value::Bool(a < b)),
                    BinOp::Le => Some(Value::Bool(a <= b)),
                    BinOp::Gt => Some(Value::Bool(a > b)),
                    BinOp::Ge => Some(Value::Bool(a >= b)),
                    BinOp::And | BinOp::Or => None,
                },
                (Value::Bool(a), Value::Bool(b)) => match op {
                    BinOp::Eq => Some(Value::Bool(a == b)),
                    BinOp::Ne => Some(Value::Bool(a != b)),
                    _ => None,
                },
                _ => None,
            }
        }
    }
}

/// Tuning knobs for [`search_model`].
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum assignments tried before giving up.
    pub node_budget: usize,
    /// Default bounds substituted for unbounded intervals.
    pub default_bound: i64,
    /// Values enumerated exhaustively when an interval is at most this wide.
    pub enumerate_width: u64,
    /// Seed of the deterministic probe sequence.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            node_budget: 20_000,
            default_bound: 1_000_000,
            enumerate_width: 32,
            seed: 0x5eed_cafe_f00d_0001,
        }
    }
}

/// Deterministic xorshift64* probe generator.
struct Probe(u64);

impl Probe {
    fn next_in(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let offset = (self.0 as u128) % span;
        (lo as i128 + offset as i128) as i64
    }
}

/// Searches for an integer/boolean model of
/// `lin_atoms ∧ residuals ∧ bool_fixed`, starting from `bounds`.
///
/// * `lin_atoms` — linear atoms (checked incrementally and by propagation);
/// * `residuals` — arbitrary boolean [`SymExpr`]s (non-linear atoms,
///   disjunctions, disequalities), evaluated after every assignment: a
///   candidate is skipped as soon as one of them is false;
/// * `vars` — every variable that needs a value, keyed by id;
/// * `fixed` — pre-assigned values (e.g. boolean literals from the case
///   split).
///
/// Returns a model satisfying *all* inputs, or `None` if the budget is
/// exhausted (never a wrong model: everything is re-verified).
pub fn search_model(
    lin_atoms: &[LinAtom],
    residuals: &[SymExpr],
    vars: &BTreeMap<u32, SymVar>,
    bounds: &BTreeMap<u32, Interval>,
    fixed: &Model,
    config: &SearchConfig,
) -> Option<Model> {
    let mut searcher = Searcher {
        residuals,
        vars,
        config,
        probe: Probe(config.seed | 1),
        nodes: 0,
    };
    let mut model = fixed.clone();
    if searcher.refuted(&model) {
        return None;
    }
    // Specialize the linear atoms with the fixed assignments, then tighten
    // the starting intervals (callers may pass no bounds at all).
    let atoms = specialize(lin_atoms, fixed)?;
    let bounds = match propagate(&atoms, bounds) {
        PropagationResult::Empty => return None,
        PropagationResult::Bounds(b) => b,
    };
    let result = searcher.assign(&atoms, bounds, &mut model);
    result.filter(|m| {
        let assignment = int_assignment(m);
        lin_atoms
            .iter()
            .all(|a| a.eval(&assignment).unwrap_or(false))
            && residuals.iter().all(|r| m.satisfies(r))
    })
}

fn int_assignment(model: &Model) -> BTreeMap<u32, i64> {
    model
        .iter()
        .filter_map(|(id, v)| match v {
            Value::Int(i) => Some((id, i)),
            Value::Bool(_) => None,
        })
        .collect()
}

/// Folds assigned variables into the atoms' constants; `None` if an atom
/// becomes constant-false or a fold overflows.
fn specialize(atoms: &[LinAtom], model: &Model) -> Option<Vec<LinAtom>> {
    let mut out = Vec::new();
    for atom in atoms {
        let specialized = LinAtom {
            expr: atom.expr.fold_assigned(|id| match model.get(id) {
                Some(Value::Int(v)) => Some(v),
                _ => None,
            })?,
            rel: atom.rel,
        };
        match specialized.constant_truth() {
            Some(false) => return None,
            Some(true) => {}
            None => out.push(specialized),
        }
    }
    Some(out)
}

struct Searcher<'a> {
    residuals: &'a [SymExpr],
    vars: &'a BTreeMap<u32, SymVar>,
    config: &'a SearchConfig,
    probe: Probe,
    nodes: usize,
}

impl Searcher<'_> {
    fn assign(
        &mut self,
        atoms: &[LinAtom],
        bounds: BTreeMap<u32, Interval>,
        model: &mut Model,
    ) -> Option<Model> {
        self.nodes += 1;
        if self.nodes > self.config.node_budget {
            return None;
        }
        // Next unassigned variable: most constrained (narrowest interval)
        // first; booleans count as width 1.
        let next = self
            .vars
            .values()
            .filter(|v| model.value(v).is_none())
            .min_by_key(|v| match v.ty() {
                SymTy::Bool => 1,
                SymTy::Int => bounds
                    .get(&v.id())
                    .and_then(|iv| iv.width())
                    .unwrap_or(u64::MAX),
            });
        let Some(var) = next.cloned() else {
            // Everything assigned: verify residuals.
            if self.residuals.iter().all(|r| model.satisfies(r)) {
                return Some(model.clone());
            }
            return None;
        };

        match var.ty() {
            SymTy::Bool => {
                for candidate in [true, false] {
                    model.set(var.id(), Value::Bool(candidate));
                    if self.refuted(model) {
                        continue;
                    }
                    if let Some(found) = self.assign(atoms, bounds.clone(), model) {
                        return Some(found);
                    }
                }
                self.unset(model, var.id());
                None
            }
            SymTy::Int => {
                let iv = bounds.get(&var.id()).copied().unwrap_or_default();
                let lo = iv.lo.unwrap_or(-self.config.default_bound);
                let hi = iv.hi.unwrap_or(self.config.default_bound);
                if lo > hi {
                    return None;
                }
                for candidate in self.candidates(lo, hi) {
                    model.set(var.id(), Value::Int(candidate));
                    if self.refuted(model) {
                        continue;
                    }
                    // Re-propagate with the candidate pinned.
                    let Some(specialized) = specialize(atoms, model) else {
                        continue;
                    };
                    let mut pinned = bounds.clone();
                    pinned.insert(var.id(), Interval::point(candidate));
                    match propagate(&specialized, &pinned) {
                        PropagationResult::Empty => continue,
                        PropagationResult::Bounds(next_bounds) => {
                            if let Some(found) = self.assign(&specialized, next_bounds, model) {
                                return Some(found);
                            }
                        }
                    }
                }
                self.unset(model, var.id());
                None
            }
        }
    }

    /// Whether some residual is already false under the partial `model`.
    /// [`Model::eval`] answers only once every variable it reads is
    /// assigned, and assigning more variables never changes an answer, so
    /// no extension of a refuted model satisfies every residual: skipping
    /// it keeps the DFS order and only prunes dead subtrees.
    fn refuted(&self, model: &Model) -> bool {
        self.residuals
            .iter()
            .any(|r| model.eval(r) == Some(Value::Bool(false)))
    }

    fn unset(&self, model: &mut Model, id: u32) {
        model.values.remove(&id);
    }

    /// Candidate values for an integer variable in `[lo, hi]`.
    fn candidates(&mut self, lo: i64, hi: i64) -> Vec<i64> {
        let width = (hi as i128 - lo as i128) as u128;
        if width <= self.config.enumerate_width as u128 {
            // Small interval: enumerate from a "nice" order — zero and the
            // boundaries first.
            let mut all: Vec<i64> = (lo..=hi).collect();
            all.sort_by_key(|&v| (v != 0, v.unsigned_abs()));
            return all;
        }
        let mut picks = vec![lo, hi, 0, 1, -1, 2, -2, lo + 1, hi - 1];
        let mid = ((lo as i128 + hi as i128) / 2) as i64;
        picks.push(mid);
        for _ in 0..6 {
            picks.push(self.probe.next_in(lo, hi));
        }
        picks.retain(|&v| lo <= v && v <= hi);
        picks.sort_by_key(|&v| (v != 0, v.unsigned_abs()));
        picks.dedup();
        // Restore preference order after dedup (dedup needs sorted input,
        // and the sort above groups by magnitude which is what we want).
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::atomize_cmp;
    use crate::sym::VarPool;

    fn int_vars(n: usize) -> (VarPool, Vec<SymVar>) {
        let mut pool = VarPool::new();
        let vars = (0..n)
            .map(|i| pool.fresh(format!("X{i}"), SymTy::Int))
            .collect();
        (pool, vars)
    }

    fn atom(op: BinOp, lhs: SymExpr, rhs: SymExpr) -> LinAtom {
        atomize_cmp(op, &lhs, &rhs).unwrap()
    }

    fn var_map(vars: &[SymVar]) -> BTreeMap<u32, SymVar> {
        vars.iter().map(|v| (v.id(), v.clone())).collect()
    }

    #[test]
    fn model_eval_arithmetic() {
        let (_, vars) = int_vars(2);
        let mut m = Model::new();
        m.set(vars[0].id(), Value::Int(3));
        m.set(vars[1].id(), Value::Int(4));
        let e = SymExpr::Binary {
            op: BinOp::Mul,
            lhs: SymExpr::var(&vars[0]).into(),
            rhs: SymExpr::var(&vars[1]).into(),
        };
        assert_eq!(m.eval(&e), Some(Value::Int(12)));
        assert_eq!(m.int_value(&vars[0]), Some(3));
    }

    #[test]
    fn eval_division_by_zero_is_none() {
        let (_, vars) = int_vars(1);
        let mut m = Model::new();
        m.set(vars[0].id(), Value::Int(0));
        let e = SymExpr::Binary {
            op: BinOp::Div,
            lhs: SymExpr::int(1).into(),
            rhs: SymExpr::var(&vars[0]).into(),
        };
        assert_eq!(m.eval(&e), None);
    }

    #[test]
    fn eval_short_circuits() {
        let mut pool = VarPool::new();
        let b = pool.fresh("B", SymTy::Bool);
        let unassigned = pool.fresh("U", SymTy::Bool);
        let mut m = Model::new();
        m.set(b.id(), Value::Bool(false));
        // false && U evaluates without U.
        let e = SymExpr::Binary {
            op: BinOp::And,
            lhs: SymExpr::var(&b).into(),
            rhs: SymExpr::var(&unassigned).into(),
        };
        assert_eq!(m.eval(&e), Some(Value::Bool(false)));
    }

    #[test]
    fn search_finds_range_model() {
        let (_, vars) = int_vars(1);
        let atoms = vec![
            atom(BinOp::Gt, SymExpr::var(&vars[0]), SymExpr::int(5)),
            atom(BinOp::Lt, SymExpr::var(&vars[0]), SymExpr::int(100)),
        ];
        let m = search_model(
            &atoms,
            &[],
            &var_map(&vars),
            &BTreeMap::new(),
            &Model::new(),
            &SearchConfig::default(),
        )
        .unwrap();
        let v = m.int_value(&vars[0]).unwrap();
        assert!(v > 5 && v < 100);
    }

    #[test]
    fn search_solves_coupled_equalities() {
        let (_, vars) = int_vars(3);
        // x + y = 10, y = z, z ≥ 4, x ≥ 0
        let atoms = vec![
            atom(
                BinOp::Eq,
                SymExpr::add(SymExpr::var(&vars[0]), SymExpr::var(&vars[1])),
                SymExpr::int(10),
            ),
            atom(BinOp::Eq, SymExpr::var(&vars[1]), SymExpr::var(&vars[2])),
            atom(BinOp::Ge, SymExpr::var(&vars[2]), SymExpr::int(4)),
            atom(BinOp::Ge, SymExpr::var(&vars[0]), SymExpr::int(0)),
        ];
        let m = search_model(
            &atoms,
            &[],
            &var_map(&vars),
            &BTreeMap::new(),
            &Model::new(),
            &SearchConfig::default(),
        )
        .unwrap();
        let (x, y, z) = (
            m.int_value(&vars[0]).unwrap(),
            m.int_value(&vars[1]).unwrap(),
            m.int_value(&vars[2]).unwrap(),
        );
        assert_eq!(x + y, 10);
        assert_eq!(y, z);
        assert!(z >= 4 && x >= 0);
    }

    #[test]
    fn search_verifies_nonlinear_residuals() {
        let (_, vars) = int_vars(2);
        // x * y == 12 ∧ 1 ≤ x ≤ 12 ∧ 1 ≤ y ≤ 12 (nonlinear: residual only)
        let residual = SymExpr::Binary {
            op: BinOp::Eq,
            lhs: SymExpr::Binary {
                op: BinOp::Mul,
                lhs: SymExpr::var(&vars[0]).into(),
                rhs: SymExpr::var(&vars[1]).into(),
            }
            .into(),
            rhs: SymExpr::int(12).into(),
        };
        let atoms = vec![
            atom(BinOp::Ge, SymExpr::var(&vars[0]), SymExpr::int(1)),
            atom(BinOp::Le, SymExpr::var(&vars[0]), SymExpr::int(12)),
            atom(BinOp::Ge, SymExpr::var(&vars[1]), SymExpr::int(1)),
            atom(BinOp::Le, SymExpr::var(&vars[1]), SymExpr::int(12)),
        ];
        let m = search_model(
            &atoms,
            std::slice::from_ref(&residual),
            &var_map(&vars),
            &BTreeMap::new(),
            &Model::new(),
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(m.satisfies(&residual));
    }

    #[test]
    fn search_respects_fixed_assignments() {
        let mut pool = VarPool::new();
        let b = pool.fresh("B", SymTy::Bool);
        let x = pool.fresh("X", SymTy::Int);
        let mut fixed = Model::new();
        fixed.set(b.id(), Value::Bool(true));
        let atoms = vec![atom(BinOp::Eq, SymExpr::var(&x), SymExpr::int(3))];
        let mut vars = BTreeMap::new();
        vars.insert(b.id(), b.clone());
        vars.insert(x.id(), x.clone());
        let m = search_model(
            &atoms,
            &[],
            &vars,
            &BTreeMap::new(),
            &fixed,
            &SearchConfig::default(),
        )
        .unwrap();
        assert_eq!(m.bool_value(&b), Some(true));
        assert_eq!(m.int_value(&x), Some(3));
    }

    #[test]
    fn search_fails_on_unsatisfiable_ground_atoms() {
        let (_, vars) = int_vars(1);
        let atoms = vec![
            atom(BinOp::Ge, SymExpr::var(&vars[0]), SymExpr::int(5)),
            atom(BinOp::Le, SymExpr::var(&vars[0]), SymExpr::int(4)),
        ];
        assert!(search_model(
            &atoms,
            &[],
            &var_map(&vars),
            &BTreeMap::new(),
            &Model::new(),
            &SearchConfig::default(),
        )
        .is_none());
    }

    #[test]
    fn search_refutes_residuals_before_the_leaves() {
        // Phase >= 1 ∧ Phase != 1 plus four one-sided int variables. Every
        // variable is unbounded on one side, so Phase (lowest id) is
        // assigned first; a leaf-only residual check would try Phase = 1
        // under every combination of the other four and run out of nodes.
        let (_, vars) = int_vars(5);
        let phase = &vars[0];
        let mut atoms = vec![atom(BinOp::Ge, SymExpr::var(phase), SymExpr::int(1))];
        for (i, v) in vars[1..].iter().enumerate() {
            atoms.push(atom(
                BinOp::Le,
                SymExpr::var(v),
                SymExpr::int(10 * i as i64),
            ));
        }
        let residual = SymExpr::Binary {
            op: BinOp::Ne,
            lhs: SymExpr::var(phase).into(),
            rhs: SymExpr::int(1).into(),
        };
        let m = search_model(
            &atoms,
            std::slice::from_ref(&residual),
            &var_map(&vars),
            &BTreeMap::new(),
            &Model::new(),
            &SearchConfig::default(),
        )
        .expect("a model within the default node budget");
        assert!(m.satisfies(&residual));
        assert!(m.int_value(phase).unwrap() > 1);
    }

    #[test]
    fn search_is_deterministic() {
        let (_, vars) = int_vars(2);
        let atoms = vec![
            atom(
                BinOp::Le,
                SymExpr::add(SymExpr::var(&vars[0]), SymExpr::var(&vars[1])),
                SymExpr::int(100),
            ),
            atom(BinOp::Ge, SymExpr::var(&vars[0]), SymExpr::int(-50)),
            atom(BinOp::Ge, SymExpr::var(&vars[1]), SymExpr::int(-50)),
        ];
        let run = || {
            search_model(
                &atoms,
                &[],
                &var_map(&vars),
                &BTreeMap::new(),
                &Model::new(),
                &SearchConfig::default(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
