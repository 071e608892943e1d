//! The shared decision core and the one-shot [`Solver`] facade.
//!
//! Path conditions are decided by one procedure, the incremental solver
//! ([`crate::incremental::IncrementalSolver`]). This module holds the
//! parts of it that do not depend on the push/pop stack:
//!
//! 1. normalization: conjunctions are flattened and negations pushed
//!    inward (NNF — the smart constructors already keep comparisons in
//!    atom form), and each atom is classified as linear, a boolean
//!    assignment, or a residual;
//! 2. `decide_conjunction`: interval propagation (quick UNSAT), a search
//!    for an explicit integer/boolean model verified against the original
//!    constraints (sound SAT), and — only when none is found — equality
//!    substitution and Fourier–Motzkin (sound UNSAT);
//! 3. `split_alternatives`: the alternatives of a residual disjunction or
//!    integer disequality, for the incremental solver's case split.
//!
//! [`Solver::check`] serves the one-shot clients (witness replay, test
//! generation, simplification): it pushes every constraint onto a fresh
//! incremental solver and checks once.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::fm::{eliminate, substitute_equalities, FmResult, Substitution};
use crate::incremental::IncrementalSolver;
use crate::interval::{propagate, Interval, PropagationResult};
use crate::linear::{atomize_cmp, LinAtom};
use crate::model::{search_model, Model, SearchConfig, Value};
use crate::sym::{BinOp, SymExpr, SymTy, SymVar, UnOp};
use crate::PathCondition;

/// Three-valued satisfiability verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatResult {
    /// A verified model exists.
    Sat,
    /// Provably no solution.
    Unsat,
    /// The solver gave up (budget/overflow). The paper's prototype treats
    /// this as unsatisfiable (§4.1); the executor applies that policy.
    Unknown,
}

/// The result of a [`Solver::check`] call: the verdict plus a model when
/// satisfiable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    result: SatResult,
    model: Option<Model>,
}

impl CheckOutcome {
    /// The verdict.
    pub fn result(&self) -> SatResult {
        self.result
    }

    /// `true` iff the verdict is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        self.result == SatResult::Sat
    }

    /// `true` iff the verdict is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        self.result == SatResult::Unsat
    }

    /// The verifying model (present exactly when satisfiable).
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Maximum number of case-split leaves decided per query; `0`
    /// answers `Unknown` for every non-empty query.
    pub case_budget: usize,
    /// Maximum nodes in the incremental solver's prefix trie; beyond this
    /// the trie stops growing (checks still run, they just aren't
    /// memoized on new prefixes).
    pub prefix_trie_capacity: usize,
    /// Model-search configuration.
    pub search: SearchConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            case_budget: 256,
            prefix_trie_capacity: 1 << 16,
            search: SearchConfig::default(),
        }
    }
}

impl SolverConfig {
    /// A stable fingerprint of every verdict-relevant knob (budgets and
    /// search parameters; the trie capacity is excluded — it changes
    /// *when* answers are memoized, never what they are). Persistent-store
    /// consumers compare this before reusing another run's memoized
    /// verdicts: budgets flip `Unknown` results, so trie entries are only
    /// portable between identically-budgeted solvers. FNV-1a over the
    /// field values, stable across processes and platforms.
    pub fn cache_key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.case_budget as u64);
        eat(self.search.node_budget as u64);
        eat(self.search.default_bound as u64);
        eat(self.search.enumerate_width);
        eat(self.search.seed);
        hash
    }
}

/// Counters describing solver activity (reported by the benchmark harness
/// alongside the paper's time/state metrics), as returned by
/// [`crate::incremental::IncrementalSolver::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total `check` calls.
    pub checks: u64,
    /// Verdicts per kind.
    pub sat: u64,
    /// Provably-unsat verdicts.
    pub unsat: u64,
    /// Given-up verdicts.
    pub unknown: u64,
    /// Fourier–Motzkin eliminations actually run. FM runs only after the
    /// model search failed to produce a verified model, so a satisfiable
    /// system never costs one.
    pub fm_runs: u64,
    /// Model searches attempted.
    pub model_searches: u64,
    /// Checks that ran the decision pipeline (model reuse, search,
    /// Fourier–Motzkin, case split) rather than a memoized answer.
    pub incremental_checks: u64,
    /// Checks answered from the prefix trie (repeated-prefix re-checks).
    pub prefix_cache_hits: u64,
    /// Checks killed instantly because an ancestor frame was already UNSAT.
    pub prefix_unsat_kills: u64,
    /// SAT answers obtained by re-validating the parent frame's model
    /// against the new literal (no search at all).
    pub model_reuse_hits: u64,
    /// SAT verdicts recorded through
    /// [`crate::IncrementalSolver::push_verified`]: the caller supplied a
    /// model that was re-validated against the whole stack by direct
    /// evaluation, so no decision pipeline ran at all.
    pub assumed_sat: u64,
}

impl SolverStats {
    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SolverStats) {
        self.checks += other.checks;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.fm_runs += other.fm_runs;
        self.model_searches += other.model_searches;
        self.incremental_checks += other.incremental_checks;
        self.prefix_cache_hits += other.prefix_cache_hits;
        self.prefix_unsat_kills += other.prefix_unsat_kills;
        self.model_reuse_hits += other.model_reuse_hits;
        self.assumed_sat += other.assumed_sat;
    }

    /// Counter-wise difference `self - earlier` (saturating), for reporting
    /// per-run activity of a solver that persists across runs.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            checks: self.checks.saturating_sub(earlier.checks),
            sat: self.sat.saturating_sub(earlier.sat),
            unsat: self.unsat.saturating_sub(earlier.unsat),
            unknown: self.unknown.saturating_sub(earlier.unknown),
            fm_runs: self.fm_runs.saturating_sub(earlier.fm_runs),
            model_searches: self.model_searches.saturating_sub(earlier.model_searches),
            incremental_checks: self
                .incremental_checks
                .saturating_sub(earlier.incremental_checks),
            prefix_cache_hits: self
                .prefix_cache_hits
                .saturating_sub(earlier.prefix_cache_hits),
            prefix_unsat_kills: self
                .prefix_unsat_kills
                .saturating_sub(earlier.prefix_unsat_kills),
            model_reuse_hits: self
                .model_reuse_hits
                .saturating_sub(earlier.model_reuse_hits),
            assumed_sat: self.assumed_sat.saturating_sub(earlier.assumed_sat),
        }
    }

    /// Checks that ran the decision pipeline — the cost metric the
    /// benches and the profile exporter attribute to stages; trie answers
    /// are free.
    pub fn pipeline_checks(&self) -> u64 {
        self.incremental_checks
    }
}

/// The one-shot constraint solver: decides an arbitrary constraint vector
/// by pushing it onto a fresh [`IncrementalSolver`]. See the [module
/// documentation](self).
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver { config }
    }

    /// Checks a path condition.
    pub fn check_pc(&mut self, pc: &PathCondition) -> CheckOutcome {
        self.check(pc.conjuncts())
    }

    /// Checks the conjunction of `constraints`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_solver::{Solver, SymExpr, SymTy, VarPool};
    ///
    /// let mut pool = VarPool::new();
    /// let x = pool.fresh("X", SymTy::Int);
    /// let mut solver = Solver::new();
    /// let c = [
    ///     SymExpr::gt(SymExpr::var(&x), SymExpr::int(3)),
    ///     SymExpr::lt(SymExpr::var(&x), SymExpr::int(3)),
    /// ];
    /// assert!(solver.check(&c).is_unsat());
    /// ```
    pub fn check(&mut self, constraints: &[SymExpr]) -> CheckOutcome {
        let mut solver = IncrementalSolver::with_config(self.config);
        for constraint in constraints {
            solver.push(constraint.clone());
        }
        let result = solver.check();
        let model = (result == SatResult::Sat).then(|| solver.model().cloned().unwrap_or_default());
        CheckOutcome { result, model }
    }
}

/// Decides one conjunction-only case: interval propagation (quick sound
/// UNSAT), model search with verification against `originals` (sound
/// SAT), and — only when no verified model was found — equality
/// substitution + Fourier–Motzkin (sound UNSAT). This is the incremental
/// solver's per-frame check and the per-leaf check of its case split.
///
/// `initial_bounds` seeds propagation (the incremental solver passes the
/// parent frame's fixed point — sound, because the parent's bounds
/// over-approximate the prefix's solutions and the current system only
/// adds constraints). Returns the verdict together with the propagated
/// bounds for non-UNSAT outcomes (reused as the next frame's seed).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_conjunction(
    lin: &[LinAtom],
    residuals: &[SymExpr],
    vars: &BTreeMap<u32, SymVar>,
    fixed: &Model,
    initial_bounds: &BTreeMap<u32, Interval>,
    originals: &Originals<'_>,
    config: &SolverConfig,
    stats: &mut SolverStats,
) -> (CaseVerdict, Option<BTreeMap<u32, Interval>>) {
    // Interval propagation: quick unsat + bounds for the search.
    let bounds = match propagate(lin, initial_bounds) {
        PropagationResult::Empty => return (CaseVerdict::Unsat, None),
        PropagationResult::Bounds(bounds) => bounds,
    };

    // Model search. When there are no residual atoms we can search the
    // *reduced* system (fewer variables — coupled equalities are solved
    // exactly) and back-substitute; residuals mention eliminated
    // variables, so in their presence we search the original system and
    // substitute only if Fourier–Motzkin needs it.
    let substitution = residuals
        .is_empty()
        .then(|| substitute_equalities(lin.to_vec()));
    stats.model_searches += 1;
    let found = match &substitution {
        Some(Some(sub)) if !sub.eliminated.is_empty() => {
            search_reduced_system(sub, vars, fixed, &config.search)
        }
        _ => search_model(lin, residuals, vars, &bounds, fixed, &config.search),
    };
    if let Some(mut model) = found {
        // Default-fill variables that appear in the originals but not in
        // this case (dropped `true` conjuncts, other disjuncts), then
        // verify everything.
        for (&id, readers) in originals.readers {
            if model.get(id).is_none() {
                model.set(id, default_value(readers.var.ty()));
            }
        }
        if originals.verify(&model) {
            return (CaseVerdict::Sat(Arc::new(model)), Some(bounds));
        }
    }

    // No verified model: try for a sound UNSAT via Fourier–Motzkin over
    // the substituted linear atoms. UNSAT from the linear part alone is
    // sound even with residual atoms (a residual can only constrain
    // further). FM cannot refute a system that has a verified integer
    // model, so running it only now changes no verdict.
    let substitution = substitution.unwrap_or_else(|| substitute_equalities(lin.to_vec()));
    if let Some(sub) = &substitution {
        stats.fm_runs += 1;
        if eliminate(&sub.atoms) == FmResult::Unsat {
            return (CaseVerdict::Unsat, None);
        }
    }
    (CaseVerdict::Unknown, Some(bounds))
}

/// Searches the equality-reduced system and back-substitutes the
/// eliminated variables.
fn search_reduced_system(
    sub: &Substitution,
    vars: &BTreeMap<u32, SymVar>,
    fixed: &Model,
    search: &SearchConfig,
) -> Option<Model> {
    let surviving: BTreeMap<u32, SymVar> = vars
        .iter()
        .filter(|(id, _)| !sub.eliminated.iter().any(|(e, _)| e == *id))
        .map(|(id, v)| (*id, v.clone()))
        .collect();
    search_model(&sub.atoms, &[], &surviving, &BTreeMap::new(), fixed, search).and_then(|model| {
        let mut assignment: BTreeMap<u32, i64> = model
            .iter()
            .filter_map(|(id, v)| match v {
                Value::Int(i) => Some((id, i)),
                Value::Bool(_) => None,
            })
            .collect();
        sub.back_solve(&mut assignment)?;
        let mut full = model;
        for (id, value) in assignment {
            full.set(id, Value::Int(value));
        }
        Some(full)
    })
}

pub(crate) enum CaseVerdict {
    Sat(Arc<Model>),
    Unsat,
    Unknown,
}

/// The value a variable no constraint pins takes in a model: `0` or
/// `false`.
pub(crate) fn default_value(ty: SymTy) -> Value {
    match ty {
        SymTy::Int => Value::Int(0),
        SymTy::Bool => Value::Bool(false),
    }
}

/// The stacked literals that read one variable.
#[derive(Debug, Clone)]
pub(crate) struct Readers {
    /// The variable.
    pub(crate) var: SymVar,
    /// Stack indices of the literals that read it, ascending.
    pub(crate) lits: Vec<usize>,
}

/// What a candidate model must satisfy — a reused, searched or
/// caller-supplied one: every literal on the incremental solver's stack.
pub(crate) struct Originals<'a> {
    /// The stacked literals, bottom first.
    pub(crate) lits: &'a [SymExpr],
    /// For every variable a stacked literal reads, the literals that read
    /// it.
    pub(crate) readers: &'a HashMap<u32, Readers>,
    /// A verified model of every literal but the last, when the parent
    /// frame has one. A model is then verified by re-checking only the
    /// last literal and the literals that read a variable it changes;
    /// without one, every literal is checked.
    pub(crate) parent: Option<&'a Model>,
}

impl Originals<'_> {
    /// Whether `model` satisfies every literal.
    pub(crate) fn verify(&self, model: &Model) -> bool {
        let Some(parent) = self.parent else {
            return self.lits.iter().all(|lit| model.satisfies(lit));
        };
        let changed = model
            .iter()
            .filter(|&(id, value)| parent.get(id) != Some(value))
            .map(|(id, _)| id)
            .chain(
                parent
                    .iter()
                    .filter(|&(id, _)| model.get(id).is_none())
                    .map(|(id, _)| id),
            );
        let holds = self.holds_given(changed, |lit| model.satisfies(lit));
        debug_assert_eq!(
            holds,
            self.lits.iter().all(|lit| model.satisfies(lit)),
            "narrowed verification disagrees with the whole stack"
        );
        holds
    }

    /// Whether an assignment satisfies every literal, given that it
    /// differs from a verified model of all literals but the last only
    /// on the variable ids in `changed`: the last literal and the earlier
    /// literals that read a changed variable are the only ones that can
    /// fail. `holds` evaluates one literal under the assignment.
    pub(crate) fn holds_given(
        &self,
        changed: impl IntoIterator<Item = u32>,
        holds: impl Fn(&SymExpr) -> bool,
    ) -> bool {
        let Some((last, earlier)) = self.lits.split_last() else {
            return true;
        };
        if !holds(last) {
            return false;
        }
        let mut suspects: Vec<usize> = changed
            .into_iter()
            .filter_map(|id| self.readers.get(&id))
            .flat_map(|readers| readers.lits.iter().copied())
            .filter(|&index| index < earlier.len())
            .collect();
        suspects.sort_unstable();
        suspects.dedup();
        suspects.into_iter().all(|index| holds(&earlier[index]))
    }
}

/// Negation normal form: pushes `!` inward through `&&`/`||` (De Morgan)
/// and flips comparisons. `positive == false` means "return NNF of !e".
pub(crate) fn nnf(expr: &SymExpr, positive: bool) -> SymExpr {
    match expr {
        SymExpr::Unary { op: UnOp::Not, arg } => nnf(arg, !positive),
        SymExpr::Binary { op, lhs, rhs } if *op == BinOp::And || *op == BinOp::Or => {
            let flipped = match (op, positive) {
                (BinOp::And, true) | (BinOp::Or, false) => BinOp::And,
                _ => BinOp::Or,
            };
            SymExpr::binary(flipped, nnf(lhs, positive), nnf(rhs, positive))
        }
        other => {
            if positive {
                other.clone()
            } else {
                SymExpr::not(other.clone())
            }
        }
    }
}

/// Flattens nested `&&` into `out`. Returns `false` on a literal `false`.
pub(crate) fn flatten_conjunct(expr: &SymExpr, out: &mut Vec<SymExpr>) -> bool {
    match expr {
        SymExpr::Bool(true) => true,
        SymExpr::Bool(false) => false,
        SymExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => flatten_conjunct(lhs, out) && flatten_conjunct(rhs, out),
        other => {
            out.push(other.clone());
            true
        }
    }
}

/// The alternative branches contributed by one conjunct: a disjunction
/// splits, an integer `≠` becomes `<` or `>`, everything else is a single
/// alternative.
pub(crate) fn split_alternatives(expr: &SymExpr) -> Vec<Vec<SymExpr>> {
    match expr {
        SymExpr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => {
            let mut alts = split_alternatives(lhs);
            alts.extend(split_alternatives(rhs));
            alts
        }
        SymExpr::Binary {
            op: BinOp::Ne,
            lhs,
            rhs,
        } if lhs.ty() == SymTy::Int => {
            vec![
                vec![SymExpr::lt((**lhs).clone(), (**rhs).clone())],
                vec![SymExpr::gt((**lhs).clone(), (**rhs).clone())],
            ]
        }
        // A nested And below an Or: keep as one alternative, flattened by
        // the caller.
        other => vec![vec![other.clone()]],
    }
}

pub(crate) enum Classified {
    True,
    False,
    BoolAssign(SymVar, bool),
    Linear(LinAtom),
    Residual(SymExpr),
}

pub(crate) fn classify(atom: &SymExpr) -> Classified {
    match atom {
        SymExpr::Bool(true) => Classified::True,
        SymExpr::Bool(false) => Classified::False,
        SymExpr::Var(v) if v.ty() == SymTy::Bool => Classified::BoolAssign(v.clone(), true),
        SymExpr::Unary { op: UnOp::Not, arg } => match &**arg {
            SymExpr::Var(v) if v.ty() == SymTy::Bool => Classified::BoolAssign(v.clone(), false),
            _ => Classified::Residual(atom.clone()),
        },
        SymExpr::Binary { op, lhs, rhs }
            if (op.is_ordering() || *op == BinOp::Eq) && lhs.ty() == SymTy::Int =>
        {
            match atomize_cmp(*op, lhs, rhs) {
                Some(lin) => Classified::Linear(lin),
                None => Classified::Residual(atom.clone()),
            }
        }
        _ => Classified::Residual(atom.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::VarPool;

    fn setup() -> (VarPool, SymVar, SymVar, SymVar) {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let b = pool.fresh("B", SymTy::Bool);
        (pool, x, y, b)
    }

    #[test]
    fn trivial_truths() {
        let mut solver = Solver::new();
        assert!(solver.check(&[]).is_sat());
        assert!(solver.check(&[SymExpr::boolean(true)]).is_sat());
        assert!(solver.check(&[SymExpr::boolean(false)]).is_unsat());
    }

    #[test]
    fn simple_range_is_sat_with_model() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        let outcome = solver.check(&[
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)),
            SymExpr::le(SymExpr::var(&x), SymExpr::int(3)),
        ]);
        assert!(outcome.is_sat());
        let v = outcome.model().unwrap().int_value(&x).unwrap();
        assert!(v > 0 && v <= 3);
    }

    #[test]
    fn contradiction_is_unsat() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        let outcome = solver.check(&[
            SymExpr::eq(SymExpr::var(&x), SymExpr::int(2)),
            SymExpr::eq(SymExpr::var(&x), SymExpr::int(3)),
        ]);
        assert!(outcome.is_unsat());
    }

    #[test]
    fn integer_gap_is_unsat() {
        let (_, x, _, _) = setup();
        // x > 2 ∧ x < 3 has a rational solution but no integer one;
        // interval propagation catches the gap.
        let mut solver = Solver::new();
        let outcome = solver.check(&[
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(2)),
            SymExpr::lt(SymExpr::var(&x), SymExpr::int(3)),
        ]);
        assert!(outcome.is_unsat());
    }

    #[test]
    fn disequality_splits() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        // x ≠ 0 ∧ x ≥ 0 ⇒ x > 0
        let outcome = solver.check(&[
            SymExpr::Binary {
                op: BinOp::Ne,
                lhs: SymExpr::var(&x).into(),
                rhs: SymExpr::int(0).into(),
            },
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)),
        ]);
        assert!(outcome.is_sat());
        assert!(outcome.model().unwrap().int_value(&x).unwrap() > 0);
    }

    #[test]
    fn disjunction_explores_both_branches() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        // (x < -5 || x > 5) ∧ x ≥ 0 ⇒ x > 5
        let outcome = solver.check(&[
            SymExpr::or(
                SymExpr::lt(SymExpr::var(&x), SymExpr::int(-5)),
                SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
            ),
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)),
        ]);
        assert!(outcome.is_sat());
        assert!(outcome.model().unwrap().int_value(&x).unwrap() > 5);
    }

    #[test]
    fn negated_conjunction_de_morgans() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        // !(x ≥ 0 && x ≤ 10) ∧ x ≥ -3  ⇒ x ∈ [-3, -1] (or x > 10)
        let inside = SymExpr::Binary {
            op: BinOp::And,
            lhs: SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)).into(),
            rhs: SymExpr::le(SymExpr::var(&x), SymExpr::int(10)).into(),
        };
        let outcome = solver.check(&[
            SymExpr::Unary {
                op: UnOp::Not,
                arg: inside.into(),
            },
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(-3)),
        ]);
        assert!(outcome.is_sat());
        let v = outcome.model().unwrap().int_value(&x).unwrap();
        assert!((-3..0).contains(&v) || v > 10);
    }

    #[test]
    fn boolean_variables() {
        let (_, _, _, b) = setup();
        let mut solver = Solver::new();
        let outcome = solver.check(&[SymExpr::var(&b)]);
        assert!(outcome.is_sat());
        assert_eq!(outcome.model().unwrap().bool_value(&b), Some(true));
        let outcome = solver.check(&[SymExpr::var(&b), SymExpr::not(SymExpr::var(&b))]);
        assert!(outcome.is_unsat());
    }

    #[test]
    fn two_variable_system() {
        let (_, x, y, _) = setup();
        let mut solver = Solver::new();
        // x + y = 10 ∧ x - y = 4 ⇒ x = 7, y = 3
        let outcome = solver.check(&[
            SymExpr::eq(
                SymExpr::add(SymExpr::var(&x), SymExpr::var(&y)),
                SymExpr::int(10),
            ),
            SymExpr::eq(
                SymExpr::sub(SymExpr::var(&x), SymExpr::var(&y)),
                SymExpr::int(4),
            ),
        ]);
        assert!(outcome.is_sat());
        let m = outcome.model().unwrap();
        assert_eq!(m.int_value(&x), Some(7));
        assert_eq!(m.int_value(&y), Some(3));
    }

    #[test]
    fn unsat_linear_combination() {
        let (_, x, y, _) = setup();
        let mut solver = Solver::new();
        // x ≤ y ∧ y ≤ x ∧ x ≠ y
        let outcome = solver.check(&[
            SymExpr::le(SymExpr::var(&x), SymExpr::var(&y)),
            SymExpr::le(SymExpr::var(&y), SymExpr::var(&x)),
            SymExpr::Binary {
                op: BinOp::Ne,
                lhs: SymExpr::var(&x).into(),
                rhs: SymExpr::var(&y).into(),
            },
        ]);
        assert!(outcome.is_unsat());
    }

    #[test]
    fn nonlinear_constraints_are_searched() {
        let (_, x, y, _) = setup();
        let mut solver = Solver::new();
        // x*y = 6 ∧ 1 ≤ x ≤ 6 ∧ 1 ≤ y ≤ 6
        let outcome = solver.check(&[
            SymExpr::Binary {
                op: BinOp::Eq,
                lhs: SymExpr::Binary {
                    op: BinOp::Mul,
                    lhs: SymExpr::var(&x).into(),
                    rhs: SymExpr::var(&y).into(),
                }
                .into(),
                rhs: SymExpr::int(6).into(),
            },
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(1)),
            SymExpr::le(SymExpr::var(&x), SymExpr::int(6)),
            SymExpr::ge(SymExpr::var(&y), SymExpr::int(1)),
            SymExpr::le(SymExpr::var(&y), SymExpr::int(6)),
        ]);
        assert!(outcome.is_sat());
        let m = outcome.model().unwrap();
        assert_eq!(m.int_value(&x).unwrap() * m.int_value(&y).unwrap(), 6);
    }

    #[test]
    fn sat_models_always_verify() {
        // A mixed bag of shapes; every SAT answer must carry a model that
        // satisfies the original constraints (the solver re-verifies, so a
        // SAT here is self-validating; this test just pins the behaviour).
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let b = pool.fresh("B", SymTy::Bool);
        let mut solver = Solver::new();
        let cs = [
            SymExpr::or(
                SymExpr::var(&b),
                SymExpr::gt(SymExpr::var(&x), SymExpr::int(100)),
            ),
            SymExpr::le(SymExpr::var(&x), SymExpr::int(100)),
        ];
        let outcome = solver.check(&cs);
        assert!(outcome.is_sat());
        let m = outcome.model().unwrap();
        assert!(cs.iter().all(|c| m.satisfies(c)));
        assert_eq!(m.bool_value(&b), Some(true)); // forced by second conjunct
    }

    #[test]
    fn paper_fig1_branch_feasibility() {
        // testX: both PC `X > 0` and `!(X > 0)` are feasible.
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let mut solver = Solver::new();
        let taken = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
        assert!(solver.check(std::slice::from_ref(&taken)).is_sat());
        let not_taken = SymExpr::not(taken);
        assert!(solver.check(std::slice::from_ref(&not_taken)).is_sat());
    }
}
