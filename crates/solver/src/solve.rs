//! The monolithic [`Solver`] facade — the *fallback tier* of the two-tier
//! solving architecture.
//!
//! The solver crate decides path conditions at two tiers:
//!
//! * **Incremental tier** ([`crate::incremental::IncrementalSolver`]) —
//!   mirrors the executor's DFS with `push`/`pop`/`check`, retaining
//!   per-frame derived state (flattened atoms, interval bounds, boolean
//!   assignments, last verified model) so each check processes only the
//!   newly pushed branch literal and propagates deltas. Verdicts live in a
//!   prefix trie keyed by hash-consed [`crate::intern::TermId`]s, so a
//!   repeated prefix is answered without re-solving and an UNSAT prefix
//!   kills all of its extensions.
//! * **Monolithic tier** (this module) — the full pipeline over an
//!   arbitrary constraint vector. The incremental tier consults it only
//!   when its own decision comes back `Unknown` (the DNF case split may
//!   still decide a path the residual-evaluating search gave up on); it
//!   also serves the non-executor clients (witness replay, test
//!   generation, PC simplification).
//!
//! The monolithic pipeline over a conjunction of boolean symbolic
//! expressions:
//!
//! 1. flatten conjunctions and push negations inward (NNF — the smart
//!    constructors already keep comparisons in atom form);
//! 2. split disjunctions and integer disequalities into *cases* (DNF) under
//!    a budget;
//! 3. per case: extract linear atoms, propagate intervals (quick UNSAT),
//!    search for an explicit integer/boolean model (sound SAT), and only
//!    when none is found substitute equalities and run Fourier–Motzkin
//!    (sound UNSAT);
//! 4. verify any model against the original constraints before reporting
//!    [`SatResult::Sat`].
//!
//! Results are cached per constraint vector, keyed by interned
//! [`crate::intern::TermId`]s (O(1) hashing/equality instead of deep-tree
//! hashing). The cache is bounded: when it reaches
//! [`SolverConfig::cache_capacity`], the least-recently-used quarter is
//! evicted, so long executions no longer grow memory without bound.

use std::collections::{BTreeMap, HashMap};

use crate::fm::{eliminate, substitute_equalities, FmResult, Substitution};
use crate::intern::{Interner, TermId};
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

    fn sat(model: Model) -> Self {
        CheckOutcome {
            result: SatResult::Sat,
            model: Some(model),
        }
    }

    fn unsat() -> Self {
        CheckOutcome {
            result: SatResult::Unsat,
            model: None,
        }
    }

    fn unknown() -> Self {
        CheckOutcome {
            result: SatResult::Unknown,
            model: None,
        }
    }
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Maximum number of DNF cases explored per query.
    pub case_budget: usize,
    /// Maximum entries in the monolithic result cache; the least-recently
    /// used quarter is evicted when full. `0` disables caching.
    pub cache_capacity: usize,
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
            cache_capacity: 4096,
            prefix_trie_capacity: 1 << 16,
            search: SearchConfig::default(),
        }
    }
}

impl SolverConfig {
    /// A stable fingerprint of every verdict-relevant knob (budgets and
    /// search parameters; cache sizing is excluded — it changes *when*
    /// answers are memoized, never what they are). Persistent-store
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
/// alongside the paper's time/state metrics). The incremental tier's
/// counters are folded in by
/// [`crate::incremental::IncrementalSolver::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total `check` calls.
    pub checks: u64,
    /// Calls answered from the cache.
    pub cache_hits: u64,
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
    /// Checks decided by the incremental pipeline (no monolithic re-solve).
    pub incremental_checks: u64,
    /// Checks the incremental tier could not decide (`Unknown`) and
    /// handed to the monolithic pipeline. Each counts once here and not
    /// in [`SolverStats::incremental_checks`].
    pub fallback_checks: u64,
    /// Checks answered from the prefix trie (repeated-prefix re-checks).
    pub prefix_cache_hits: u64,
    /// Checks killed instantly because an ancestor frame was already UNSAT.
    pub prefix_unsat_kills: u64,
    /// SAT answers obtained by re-validating the parent frame's model
    /// against the new literal (no search at all).
    pub model_reuse_hits: u64,
    /// Entries evicted from the bounded monolithic result cache.
    pub cache_evictions: u64,
    /// SAT verdicts recorded through
    /// [`crate::IncrementalSolver::push_verified`]: the caller supplied a
    /// model that was re-validated against the whole stack by direct
    /// evaluation, so no decision pipeline ran at all.
    pub assumed_sat: u64,
}

impl SolverStats {
    /// Adds every counter of `other` into `self` (used to fold the
    /// incremental tier's counters into the fallback solver's).
    pub fn merge(&mut self, other: &SolverStats) {
        self.checks += other.checks;
        self.cache_hits += other.cache_hits;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.fm_runs += other.fm_runs;
        self.model_searches += other.model_searches;
        self.incremental_checks += other.incremental_checks;
        self.fallback_checks += other.fallback_checks;
        self.prefix_cache_hits += other.prefix_cache_hits;
        self.prefix_unsat_kills += other.prefix_unsat_kills;
        self.model_reuse_hits += other.model_reuse_hits;
        self.cache_evictions += other.cache_evictions;
        self.assumed_sat += other.assumed_sat;
    }

    /// Counter-wise difference `self - earlier` (saturating), for reporting
    /// per-run activity of a solver that persists across runs.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            checks: self.checks.saturating_sub(earlier.checks),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            sat: self.sat.saturating_sub(earlier.sat),
            unsat: self.unsat.saturating_sub(earlier.unsat),
            unknown: self.unknown.saturating_sub(earlier.unknown),
            fm_runs: self.fm_runs.saturating_sub(earlier.fm_runs),
            model_searches: self.model_searches.saturating_sub(earlier.model_searches),
            incremental_checks: self
                .incremental_checks
                .saturating_sub(earlier.incremental_checks),
            fallback_checks: self.fallback_checks.saturating_sub(earlier.fallback_checks),
            prefix_cache_hits: self
                .prefix_cache_hits
                .saturating_sub(earlier.prefix_cache_hits),
            prefix_unsat_kills: self
                .prefix_unsat_kills
                .saturating_sub(earlier.prefix_unsat_kills),
            model_reuse_hits: self
                .model_reuse_hits
                .saturating_sub(earlier.model_reuse_hits),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            assumed_sat: self.assumed_sat.saturating_sub(earlier.assumed_sat),
        }
    }

    /// Checks that ran an actual decision pipeline (incremental or
    /// monolithic fallback) — the cost metric the benches and the
    /// profile exporter attribute to stages; cache/trie answers are free.
    pub fn pipeline_checks(&self) -> u64 {
        self.incremental_checks + self.fallback_checks
    }

    /// Fraction of checks answered without running any decision pipeline
    /// (result cache + prefix trie + prefix-unsat kills); `None` when no
    /// checks ran.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.checks == 0 {
            return None;
        }
        let hits = self.cache_hits + self.prefix_cache_hits + self.prefix_unsat_kills;
        Some(hits as f64 / self.checks as f64)
    }
}

/// The monolithic constraint solver: a caching decision procedure for path
/// conditions. See the [module documentation](self) for the pipeline and
/// for its place in the two-tier architecture.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
    pub(crate) interner: Interner,
    cache: HashMap<Vec<TermId>, (CheckOutcome, u64)>,
    tick: u64,
    stats: SolverStats,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            ..Solver::default()
        }
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Clears the result cache (the statistics are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of cached results currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
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
        self.stats.checks += 1;
        let key: Vec<TermId> = constraints
            .iter()
            .map(|c| self.interner.intern(c))
            .collect();
        self.tick += 1;
        let tick = self.tick;
        if let Some((cached, stamp)) = self.cache.get_mut(&key) {
            *stamp = tick;
            self.stats.cache_hits += 1;
            return cached.clone();
        }
        let outcome = self.check_uncached(constraints);
        match outcome.result {
            SatResult::Sat => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
        self.cache_insert(key, outcome.clone());
        outcome
    }

    /// Inserts into the bounded result cache, evicting the least-recently
    /// used quarter when full.
    fn cache_insert(&mut self, key: Vec<TermId>, outcome: CheckOutcome) {
        let capacity = self.config.cache_capacity;
        if capacity == 0 {
            return;
        }
        if self.cache.len() >= capacity {
            let before = self.cache.len();
            // Keep the most recent ~3/4, leaving room for the new entry.
            let keep = capacity.saturating_sub(capacity / 4 + 1);
            if keep == 0 {
                self.cache.clear();
            } else {
                let mut stamps: Vec<u64> = self.cache.values().map(|(_, s)| *s).collect();
                stamps.sort_unstable();
                let threshold = stamps[stamps.len() - keep];
                self.cache.retain(|_, (_, stamp)| *stamp >= threshold);
            }
            self.stats.cache_evictions += (before - self.cache.len()) as u64;
        }
        self.cache.insert(key, (outcome, self.tick));
    }

    fn check_uncached(&mut self, constraints: &[SymExpr]) -> CheckOutcome {
        // 1. Flatten conjunctions, normalize negations.
        let mut conjuncts = Vec::new();
        for c in constraints {
            if !flatten_conjunct(&nnf(c, true), &mut conjuncts) {
                return CheckOutcome::unsat();
            }
        }

        // 2. Case split.
        let Some(cases) = expand_cases(&conjuncts, self.config.case_budget) else {
            return CheckOutcome::unknown();
        };

        // 3. Decide each case.
        let mut any_unknown = false;
        for case in &cases {
            match self.solve_case(case, constraints) {
                CaseVerdict::Sat(model) => return CheckOutcome::sat(model),
                CaseVerdict::Unsat => {}
                CaseVerdict::Unknown => any_unknown = true,
            }
        }
        if any_unknown {
            CheckOutcome::unknown()
        } else {
            CheckOutcome::unsat()
        }
    }

    fn solve_case(&mut self, case: &[SymExpr], originals: &[SymExpr]) -> CaseVerdict {
        let mut lin: Vec<LinAtom> = Vec::new();
        let mut residuals: Vec<SymExpr> = Vec::new();
        let mut fixed = Model::new();
        let mut vars: BTreeMap<u32, SymVar> = BTreeMap::new();

        for atom in case {
            atom.collect_vars(&mut vars);
            match classify(atom) {
                Classified::True => {}
                Classified::False => return CaseVerdict::Unsat,
                Classified::BoolAssign(var, value) => match fixed.value(&var) {
                    Some(Value::Bool(existing)) if existing != value => {
                        return CaseVerdict::Unsat;
                    }
                    _ => fixed.set(var.id(), Value::Bool(value)),
                },
                Classified::Linear(atom) => lin.push(atom),
                Classified::Residual(expr) => residuals.push(expr),
            }
        }

        decide_conjunction(
            &lin,
            &residuals,
            &vars,
            &fixed,
            &BTreeMap::new(),
            originals,
            &self.config,
            &mut self.stats,
        )
        .0
    }
}

/// Decides one conjunction-only case: interval propagation (quick sound
/// UNSAT), model search with verification against `originals` (sound
/// SAT), and — only when no verified model was found — equality
/// substitution + Fourier–Motzkin (sound UNSAT). This is the shared core
/// of the monolithic per-case decision and of the incremental solver's
/// per-frame check.
///
/// `initial_bounds` seeds propagation (the incremental tier passes the
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
    originals: &[SymExpr],
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
    // variables, so in their presence we search the original system.
    let substitution = substitute_equalities(lin.to_vec());
    stats.model_searches += 1;
    let found = match (&substitution, residuals.is_empty()) {
        (Some(sub), true) if !sub.eliminated.is_empty() => {
            search_reduced_system(sub, vars, fixed, &config.search)
        }
        _ => search_model(lin, residuals, vars, &bounds, fixed, &config.search),
    };
    if let Some(mut model) = found {
        // Default-fill variables that appear in the originals but not in
        // this case (dropped `true` conjuncts, other disjuncts), then
        // verify everything.
        let mut all_vars = BTreeMap::new();
        for c in originals {
            c.collect_vars(&mut all_vars);
        }
        for (id, var) in &all_vars {
            if model.value(var).is_none() {
                match var.ty() {
                    SymTy::Int => model.set(*id, Value::Int(0)),
                    SymTy::Bool => model.set(*id, Value::Bool(false)),
                }
            }
        }
        if originals.iter().all(|c| model.satisfies(c)) {
            return (CaseVerdict::Sat(model), Some(bounds));
        }
    }

    // No verified model: try for a sound UNSAT via Fourier–Motzkin over
    // the substituted linear atoms. UNSAT from the linear part alone is
    // sound even with residual atoms (a residual can only constrain
    // further). FM cannot refute a system that has a verified integer
    // model, so running it only now changes no verdict.
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
    Sat(Model),
    Unsat,
    Unknown,
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

/// Expands disjunctions and integer disequalities into a bounded set of
/// conjunction-only cases. Returns `None` if the budget is exceeded.
fn expand_cases(conjuncts: &[SymExpr], budget: usize) -> Option<Vec<Vec<SymExpr>>> {
    let mut cases: Vec<Vec<SymExpr>> = vec![Vec::new()];
    for conjunct in conjuncts {
        let alternatives = split_alternatives(conjunct);
        let mut next = Vec::with_capacity(cases.len() * alternatives.len());
        for case in &cases {
            for alt in &alternatives {
                let mut extended = case.clone();
                let mut ok = true;
                for atom in alt {
                    ok &= flatten_conjunct(atom, &mut extended);
                }
                if ok {
                    next.push(extended);
                }
                if next.len() > budget {
                    return None;
                }
            }
        }
        cases = next;
        if cases.is_empty() {
            // Every alternative was literally false: represent one
            // impossible case so the caller reports UNSAT.
            return Some(vec![vec![SymExpr::boolean(false)]]);
        }
    }
    Some(cases)
}

/// The alternative branches contributed by one conjunct: a disjunction
/// splits, an integer `≠` becomes `<` or `>`, everything else is a single
/// alternative.
fn split_alternatives(expr: &SymExpr) -> Vec<Vec<SymExpr>> {
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
    fn cache_hits_are_counted() {
        let (_, x, _, _) = setup();
        let mut solver = Solver::new();
        let constraints = [SymExpr::gt(SymExpr::var(&x), SymExpr::int(0))];
        solver.check(&constraints);
        solver.check(&constraints);
        assert_eq!(solver.stats().checks, 2);
        assert_eq!(solver.stats().cache_hits, 1);
        solver.clear_cache();
        solver.check(&constraints);
        assert_eq!(solver.stats().cache_hits, 1);
    }

    #[test]
    fn cache_is_bounded_with_lru_eviction() {
        let (_, x, _, _) = setup();
        let config = SolverConfig {
            cache_capacity: 8,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        for i in 0..50 {
            solver.check(&[SymExpr::gt(SymExpr::var(&x), SymExpr::int(i))]);
        }
        assert!(solver.cache_len() <= 8, "len = {}", solver.cache_len());
        assert!(solver.stats().cache_evictions > 0);
        // The most recent query is still resident.
        let hits = solver.stats().cache_hits;
        solver.check(&[SymExpr::gt(SymExpr::var(&x), SymExpr::int(49))]);
        assert_eq!(solver.stats().cache_hits, hits + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (_, x, _, _) = setup();
        let config = SolverConfig {
            cache_capacity: 0,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        let constraints = [SymExpr::gt(SymExpr::var(&x), SymExpr::int(0))];
        solver.check(&constraints);
        solver.check(&constraints);
        assert_eq!(solver.stats().cache_hits, 0);
        assert_eq!(solver.cache_len(), 0);
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
