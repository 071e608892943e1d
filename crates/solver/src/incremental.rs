//! The incremental solver — the crate's one decision procedure.
//!
//! [`IncrementalSolver`] mirrors the symbolic executor's DFS stack with a
//! `push(literal)` / `pop()` / `check()` API. Instead of re-running the
//! whole pipeline over the full path condition on every query, it retains
//! derived state per stack frame and only processes the newly pushed
//! branch literal:
//!
//! * **Hash-consed literals** — every pushed literal is interned to a
//!   [`TermId`], so prefix identity is a sequence of integers, not trees.
//! * **Per-frame derived state** — flattened linear atoms, residual
//!   (non-linear) atoms, boolean assignments, and the interval fixed point
//!   are kept on a shared undo stack; a `pop` truncates in O(frame size).
//! * **Model reuse** — the common DFS step extends a known-SAT prefix by
//!   one literal. If the parent frame's verified model already satisfies
//!   the new literal, `check` answers SAT with zero search. The parent
//!   model satisfies every literal below, so a check evaluates only the
//!   new literal and the literals that read a variable the candidate
//!   changes (an index from each variable to its reading literals); the
//!   same holds for verifying a searched model against a SAT parent.
//!   Models and interval fixed points are shared (`Arc`) between frames
//!   and the trie, never copied per check.
//! * **Prefix trie** — verdicts are memoized in a trie keyed by the
//!   `TermId` path. A re-checked prefix is answered without solving, and
//!   an UNSAT ancestor kills every extension instantly.
//! * **Residual atoms** — a pushed conjunct that is neither linear nor a
//!   boolean literal (a disjunction, an integer disequality, a non-linear
//!   comparison) is kept as a residual: interval propagation and
//!   Fourier–Motzkin ignore it, and the model search evaluates it as soon
//!   as its variables are assigned.
//! * **Case split** — only when the search and Fourier–Motzkin leave the
//!   path undecided does `check` split the first residual disjunction or
//!   integer disequality into its alternatives and decide each one, within
//!   [`SolverConfig::case_budget`] leaves.
//!
//! [`Solver::check`](crate::Solver::check) is this solver on a fresh stack:
//! push every constraint, check once.
//!
//! Soundness: `Unsat` only when provable, `Sat` only with a model verified
//! against every pushed literal, `Unknown` otherwise (budgets, overflow).
//! A `case_budget` of 0 starves the solver: any non-empty query returns
//! `Unknown`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::intern::{Interner, TermId};
use crate::linear::LinAtom;
use crate::model::{eval_in, Model, Value};
use crate::snapshot::{Bounds, TrieEntry, TrieSnapshot};
use crate::solve::{
    classify, decide_conjunction, default_value, flatten_conjunct, nnf, split_alternatives,
    CaseVerdict, Classified, Originals, Readers, SatResult, SolverConfig, SolverStats,
};
use crate::sym::{SymExpr, SymVar};

/// The interval fixed point of the empty path.
static EMPTY_BOUNDS: Bounds = BTreeMap::new();

/// One node of the prefix trie: verdicts memoized per `TermId` path.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: HashMap<TermId, usize>,
    verdict: Option<SatResult>,
    model: Option<Arc<Model>>,
    bounds: Option<Arc<Bounds>>,
}

/// One frame of the solver stack: the pushed literal plus the undo
/// information and memoized results for this depth.
#[derive(Debug, Clone)]
struct Frame {
    /// Trie node for this prefix (`None` once the trie hit capacity).
    trie_node: Option<usize>,
    /// Length of the shared `lin` vector before this frame's additions.
    lin_len: usize,
    /// Length of the shared `residuals` vector before this frame.
    residual_len: usize,
    /// Variable ids first seen in this frame (removed on pop).
    new_vars: Vec<u32>,
    /// All variable ids mentioned by this frame's literal (drives the
    /// pinned partial search: everything else keeps the parent's value).
    lit_vars: Vec<u32>,
    /// Every variable id the literal reads as pushed, before
    /// normalization: this frame's entries in the `readers` index.
    reads: Vec<u32>,
    /// Boolean assignments made by this frame: `(id, previous value)`.
    bool_undo: Vec<(u32, Option<bool>)>,
    /// The literal (or a boolean conflict) is a contradiction.
    contradiction: bool,
    /// Verdict computed at this depth, if `check` ran.
    verdict: Option<SatResult>,
    /// Verified model at this depth (present when the verdict is SAT),
    /// shared with the trie and with a child that reuses it unchanged.
    model: Option<Arc<Model>>,
    /// Interval fixed point at this depth (seeds the child's
    /// propagation), shared with the trie.
    bounds: Option<Arc<Bounds>>,
}

/// Incremental path-condition solver with push/pop/check and a prefix
/// trie. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    config: SolverConfig,
    interner: Interner,
    frames: Vec<Frame>,
    /// All pushed literals, in push order (the current path condition).
    lits: Vec<SymExpr>,
    /// Shared derived state, truncated on pop via per-frame lengths.
    lin: Vec<LinAtom>,
    residuals: Vec<SymExpr>,
    bools: BTreeMap<u32, bool>,
    vars: BTreeMap<u32, SymVar>,
    /// For every variable a stacked literal reads, the stack indices of
    /// those literals: a model that changes a few variables of a verified
    /// one is re-checked against their readers only.
    readers: HashMap<u32, Readers>,
    trie: Vec<TrieNode>,
    /// Shallowest frame known to be UNSAT (contradiction or verdict).
    unsat_depth: Option<usize>,
    stats: SolverStats,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// Creates an incremental solver with default configuration.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::with_config(SolverConfig::default())
    }

    /// Creates an incremental solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> IncrementalSolver {
        IncrementalSolver {
            config,
            interner: Interner::default(),
            frames: Vec::new(),
            lits: Vec::new(),
            lin: Vec::new(),
            residuals: Vec::new(),
            bools: BTreeMap::new(),
            vars: BTreeMap::new(),
            readers: HashMap::new(),
            trie: vec![TrieNode::default()],
            unsat_depth: None,
            stats: SolverStats::default(),
        }
    }

    /// Current stack depth (number of pushed literals).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The pushed literals, bottom of the stack first.
    pub fn literals(&self) -> &[SymExpr] {
        &self.lits
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The verified model at the current depth, when the last `check` at
    /// this depth answered SAT.
    pub fn model(&self) -> Option<&Model> {
        self.frames.last()?.model.as_deref()
    }

    /// Pops every frame (the stack returns to the empty path condition
    /// `true`). The prefix trie and caches are retained.
    pub fn reset(&mut self) {
        while !self.frames.is_empty() {
            self.pop();
        }
    }

    /// Pushes one branch literal onto the path.
    pub fn push(&mut self, lit: SymExpr) {
        let term = self.interner.intern(&lit);
        let trie_node = self.trie_child(term);
        let mut frame = Frame {
            trie_node,
            lin_len: self.lin.len(),
            residual_len: self.residuals.len(),
            new_vars: Vec::new(),
            lit_vars: Vec::new(),
            reads: Vec::new(),
            bool_undo: Vec::new(),
            contradiction: false,
            verdict: None,
            model: None,
            bounds: None,
        };

        // Normalize: NNF, then conjunction flattening.
        let mut conjuncts = Vec::new();
        if !flatten_conjunct(&nnf(&lit, true), &mut conjuncts) {
            frame.contradiction = true;
        }
        for conjunct in &conjuncts {
            if frame.contradiction {
                break;
            }
            let mut frame_vars = BTreeMap::new();
            conjunct.collect_vars(&mut frame_vars);
            for (id, var) in frame_vars {
                if !frame.lit_vars.contains(&id) {
                    frame.lit_vars.push(id);
                }
                if let std::collections::btree_map::Entry::Vacant(entry) = self.vars.entry(id) {
                    entry.insert(var);
                    frame.new_vars.push(id);
                }
            }
            match classify(conjunct) {
                Classified::True => {}
                Classified::False => frame.contradiction = true,
                Classified::BoolAssign(var, value) => match self.bools.get(&var.id()) {
                    Some(&existing) if existing != value => frame.contradiction = true,
                    Some(_) => {}
                    None => {
                        frame.bool_undo.push((var.id(), None));
                        self.bools.insert(var.id(), value);
                    }
                },
                Classified::Linear(atom) => self.lin.push(atom),
                Classified::Residual(expr) => self.residuals.push(expr),
            }
        }

        if frame.contradiction && self.unsat_depth.is_none() {
            self.unsat_depth = Some(self.frames.len());
        }
        let mut reads = BTreeMap::new();
        lit.collect_vars(&mut reads);
        for (id, var) in reads {
            self.readers
                .entry(id)
                .or_insert_with(|| Readers {
                    var,
                    lits: Vec::new(),
                })
                .lits
                .push(self.frames.len());
            frame.reads.push(id);
        }
        self.lits.push(lit);
        self.frames.push(frame);
    }

    /// Pops the most recently pushed literal, restoring all derived state.
    /// No-op on an empty stack.
    pub fn pop(&mut self) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        self.lits.pop();
        self.lin.truncate(frame.lin_len);
        self.residuals.truncate(frame.residual_len);
        for id in &frame.new_vars {
            self.vars.remove(id);
        }
        for id in &frame.reads {
            if let Some(readers) = self.readers.get_mut(id) {
                readers.lits.pop();
                if readers.lits.is_empty() {
                    self.readers.remove(id);
                }
            }
        }
        for (id, previous) in frame.bool_undo.iter().rev() {
            match previous {
                Some(value) => {
                    self.bools.insert(*id, *value);
                }
                None => {
                    self.bools.remove(id);
                }
            }
        }
        if self.unsat_depth == Some(self.frames.len()) {
            self.unsat_depth = None;
        }
    }

    /// Pushes `lit` and, when `model` satisfies *every* literal on the
    /// extended stack by direct evaluation (against a SAT parent frame,
    /// only the new literal and the readers of the variables `model`
    /// changes are evaluated), records a verified SAT verdict
    /// at the new depth without running any decision pipeline — the trie
    /// still learns the verdict, so later re-checks of this prefix are
    /// ordinary prefix hits.
    ///
    /// This is the summary-instantiation fast path: a procedure summary
    /// carries a witness model for each of its paths, and substituting the
    /// caller's actuals usually keeps the witness valid, turning a call
    /// site's guard pushes into pure evaluations.
    ///
    /// Returns `false` (leaving the literal pushed but undecided, exactly
    /// as a plain [`push`](Self::push) would) when the model does not
    /// verify or the stack is already contradictory; the caller should run
    /// [`check`](Self::check) as usual.
    pub fn push_verified(&mut self, lit: SymExpr, model: &Model) -> bool {
        self.push(lit);
        let top = self.frames.len() - 1;
        let parent = top
            .checked_sub(1)
            .map(|i| &self.frames[i])
            .filter(|frame| frame.verdict == Some(SatResult::Sat))
            .and_then(|frame| frame.model.as_deref());
        let originals = Originals {
            lits: &self.lits,
            readers: &self.readers,
            parent,
        };
        if self.frames[top].contradiction || self.unsat_depth.is_some() || !originals.verify(model)
        {
            return false;
        }
        self.stats.assumed_sat += 1;
        self.conclude(top, SatResult::Sat, Some(Arc::new(model.clone())), None);
        true
    }

    /// Decides the conjunction of all pushed literals.
    pub fn check(&mut self) -> SatResult {
        self.stats.checks += 1;
        if self.frames.is_empty() {
            self.stats.sat += 1;
            return SatResult::Sat;
        }
        let top = self.frames.len() - 1;

        // A memoized verdict at this exact depth (repeated check without
        // an intervening push/pop).
        if let Some(verdict) = self.frames[top].verdict {
            self.stats.prefix_cache_hits += 1;
            self.tally(verdict);
            return verdict;
        }

        // An UNSAT ancestor (or an UNSAT literal at the top) kills the
        // whole extension: conjunctions only ever get stronger.
        if let Some(depth) = self.unsat_depth {
            if depth < top {
                self.stats.prefix_unsat_kills += 1;
            }
            return self.conclude(top, SatResult::Unsat, None, None);
        }

        // Prefix trie: this exact literal sequence was decided before
        // (divergent-branch re-exploration, repeated runs).
        if let Some(node) = self.frames[top].trie_node {
            if let Some(verdict) = self.trie[node].verdict {
                self.stats.prefix_cache_hits += 1;
                let model = self.trie[node].model.clone();
                let bounds = self.trie[node].bounds.clone();
                self.frames[top].verdict = Some(verdict);
                self.frames[top].model = model;
                self.frames[top].bounds = bounds;
                self.note_unsat(top, verdict);
                self.tally(verdict);
                return verdict;
            }
        }

        // Starvation semantics: a zero case budget answers Unknown for any
        // non-empty query.
        if self.config.case_budget == 0 {
            self.stats.incremental_checks += 1;
            return self.conclude(top, SatResult::Unknown, None, None);
        }

        let (verdict, bounds) = match self.decide(top) {
            (CaseVerdict::Unknown, Some(bounds)) => {
                let (lin, residuals) = (self.lin.clone(), self.residuals.clone());
                let mut leaves = self.config.case_budget;
                let verdict =
                    self.split(&lin, &residuals, &self.fixed_model(), &bounds, &mut leaves);
                (verdict, Some(bounds))
            }
            decision => decision,
        };
        let (verdict, model) = match verdict {
            CaseVerdict::Sat(model) => (SatResult::Sat, Some(model)),
            CaseVerdict::Unsat => (SatResult::Unsat, None),
            CaseVerdict::Unknown => (SatResult::Unknown, None),
        };
        self.stats.incremental_checks += 1;
        let bounds = bounds.filter(|_| verdict != SatResult::Unsat).map(Arc::new);
        self.conclude(top, verdict, model, bounds)
    }

    /// The incremental decision at depth `top`: model reuse, then the
    /// per-frame pipeline over the retained atoms. Residual atoms only
    /// reach the model search, so `Unsat` here is always sound (it comes
    /// from propagation or Fourier–Motzkin over the linear atoms, and
    /// residuals can only add constraints) and `Sat` carries a model
    /// verified against every pushed literal.
    fn decide(&mut self, top: usize) -> (CaseVerdict, Option<Bounds>) {
        // Model reuse: does the parent's verified model (extended with
        // defaults for this frame's fresh variables) already satisfy the
        // whole path? This is the common DFS step — a SAT prefix extended
        // by a literal the old model happens to satisfy.
        if let Some(model) = self.reuse(top) {
            self.stats.model_reuse_hits += 1;
            return (CaseVerdict::Sat(model), None);
        }

        // Full per-frame decision, seeded with the parent's interval fixed
        // point (sound: the parent's bounds over-approximate the prefix's
        // solutions and this system only adds constraints).
        let parent = top.checked_sub(1).map(|i| &self.frames[i]);
        let parent_bounds = parent.and_then(|frame| frame.bounds.clone());
        let parent_bounds = parent_bounds.as_deref().unwrap_or(&EMPTY_BOUNDS);
        let parent_model = parent
            .filter(|frame| frame.verdict == Some(SatResult::Sat))
            .and_then(|frame| frame.model.clone());
        let originals = Originals {
            lits: &self.lits,
            readers: &self.readers,
            parent: parent_model.as_deref(),
        };
        let fixed = self.fixed_model();

        // Partial reuse: pin every variable this frame's literal does not
        // mention to the parent model's value, so the search only explores
        // the literal's own variables. UNSAT from this attempt is sound
        // (propagation and Fourier–Motzkin ignore the pins); only an
        // Unknown forces the unpinned retry — the pins may simply have
        // been an unlucky choice.
        let pinned = parent_model
            .as_deref()
            .map(|model| self.pinned_fixed(top, model, &fixed));
        let decision = decide_conjunction(
            &self.lin,
            &self.residuals,
            &self.vars,
            pinned.as_ref().unwrap_or(&fixed),
            parent_bounds,
            &originals,
            &self.config,
            &mut self.stats,
        );
        if pinned.is_none() || !matches!(decision.0, CaseVerdict::Unknown) {
            return decision;
        }
        decide_conjunction(
            &self.lin,
            &self.residuals,
            &self.vars,
            &fixed,
            parent_bounds,
            &originals,
            &self.config,
            &mut self.stats,
        )
    }

    /// Decides a path the searches and Fourier–Motzkin left undecided by
    /// splitting its first residual that [`split_alternatives`] divides (a
    /// disjunction or an integer `!=`). Each alternative replaces that
    /// residual and is decided by [`decide_conjunction`], seeded with the
    /// path's pre-split interval fixed point; an alternative that is still
    /// undecided is split again. At most `leaves` alternatives are tried.
    /// Any verified `Sat` wins, `Unsat` needs every alternative `Unsat`,
    /// and anything else is `Unknown`.
    fn split(
        &mut self,
        lin: &[LinAtom],
        residuals: &[SymExpr],
        fixed: &Model,
        seed: &Bounds,
        leaves: &mut usize,
    ) -> CaseVerdict {
        let Some((at, alternatives)) = residuals.iter().enumerate().find_map(|(at, residual)| {
            let alternatives = split_alternatives(residual);
            (alternatives.len() > 1).then_some((at, alternatives))
        }) else {
            return CaseVerdict::Unknown;
        };
        let mut undecided = false;
        for alternative in &alternatives {
            if *leaves == 0 {
                return CaseVerdict::Unknown;
            }
            *leaves -= 1;
            let mut atoms = Vec::new();
            if !alternative
                .iter()
                .all(|atom| flatten_conjunct(atom, &mut atoms))
            {
                continue;
            }
            let (mut lin, mut residuals, mut fixed) =
                (lin.to_vec(), residuals.to_vec(), fixed.clone());
            residuals.remove(at);
            let mut contradiction = false;
            for atom in &atoms {
                match classify(atom) {
                    Classified::True => {}
                    Classified::False => contradiction = true,
                    Classified::BoolAssign(var, value) => match fixed.value(&var) {
                        Some(Value::Bool(existing)) if existing != value => contradiction = true,
                        _ => fixed.set(var.id(), Value::Bool(value)),
                    },
                    Classified::Linear(atom) => lin.push(atom),
                    Classified::Residual(expr) => residuals.push(expr),
                }
            }
            if contradiction {
                continue;
            }
            let originals = Originals {
                lits: &self.lits,
                readers: &self.readers,
                parent: None,
            };
            let verdict = match decide_conjunction(
                &lin,
                &residuals,
                &self.vars,
                &fixed,
                seed,
                &originals,
                &self.config,
                &mut self.stats,
            )
            .0
            {
                CaseVerdict::Unknown => self.split(&lin, &residuals, &fixed, seed, leaves),
                decided => decided,
            };
            match verdict {
                CaseVerdict::Sat(model) => return CaseVerdict::Sat(model),
                CaseVerdict::Unsat => {}
                CaseVerdict::Unknown => undecided = true,
            }
        }
        if undecided {
            CaseVerdict::Unknown
        } else {
            CaseVerdict::Unsat
        }
    }

    /// Records a verdict at depth `top` (frame, trie, tallies).
    fn conclude(
        &mut self,
        top: usize,
        verdict: SatResult,
        model: Option<Arc<Model>>,
        bounds: Option<Arc<Bounds>>,
    ) -> SatResult {
        self.record(top, verdict, model, bounds);
        self.tally(verdict);
        verdict
    }

    /// Records a verdict at depth `top` in the frame and the tries.
    fn record(
        &mut self,
        top: usize,
        verdict: SatResult,
        model: Option<Arc<Model>>,
        bounds: Option<Arc<Bounds>>,
    ) {
        self.note_unsat(top, verdict);
        self.frames[top].verdict = Some(verdict);
        self.frames[top].model = model.clone();
        self.frames[top].bounds = bounds.clone();
        self.store_trie(top, verdict, model, bounds);
    }

    /// Records an UNSAT verdict at `depth` so later extensions die by the
    /// instant prefix kill instead of re-running any pipeline. Every path
    /// that produces a verdict (pipeline, trie restore) must
    /// route through this to keep the "UNSAT ancestor kills extensions"
    /// invariant.
    fn note_unsat(&mut self, depth: usize, verdict: SatResult) {
        if verdict == SatResult::Unsat && self.unsat_depth.is_none() {
            self.unsat_depth = Some(depth);
        }
    }

    fn tally(&mut self, verdict: SatResult) {
        match verdict {
            SatResult::Sat => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
    }

    fn store_trie(
        &mut self,
        top: usize,
        verdict: SatResult,
        model: Option<Arc<Model>>,
        bounds: Option<Arc<Bounds>>,
    ) {
        if let Some(node) = self.frames[top].trie_node {
            self.trie[node].verdict = Some(verdict);
            self.trie[node].model = model;
            self.trie[node].bounds = bounds;
        }
    }

    /// The trie node for the current prefix extended by `term`, creating
    /// it if capacity allows. `None` when the parent fell off the trie or
    /// the trie is full.
    fn trie_child(&mut self, term: TermId) -> Option<usize> {
        let parent = match self.frames.last() {
            Some(frame) => frame.trie_node?,
            None => 0,
        };
        self.trie_child_of(parent, term)
    }

    /// The trie node for the prefix at `parent` extended by `term`,
    /// creating it if capacity allows.
    fn trie_child_of(&mut self, parent: usize, term: TermId) -> Option<usize> {
        if let Some(&child) = self.trie[parent].children.get(&term) {
            return Some(child);
        }
        if self.trie.len() >= self.config.prefix_trie_capacity {
            return None;
        }
        let child = self.trie.len();
        self.trie.push(TrieNode::default());
        self.trie[parent].children.insert(term, child);
        Some(child)
    }

    /// Exports the interner and prefix trie as a portable
    /// [`TrieSnapshot`] — the persisted warm state of `dise store`
    /// directories. Undecided subtrees (no verdict anywhere below) are
    /// pruned; edge order is deterministic (ascending creation order,
    /// children keys visited in [`TermId`] order).
    pub fn export_trie(&self) -> TrieSnapshot {
        // Children are always created after their parent, so a single
        // reverse index sweep computes "subtree holds a verdict".
        let mut parent_of: Vec<Option<(usize, TermId)>> = vec![None; self.trie.len()];
        for (i, node) in self.trie.iter().enumerate() {
            for (&term, &child) in &node.children {
                parent_of[child] = Some((i, term));
            }
        }
        let mut keep: Vec<bool> = self
            .trie
            .iter()
            .map(|node| node.verdict.is_some())
            .collect();
        for i in (1..self.trie.len()).rev() {
            if keep[i] {
                if let Some((parent, _)) = parent_of[i] {
                    keep[parent] = true;
                }
            }
        }

        let mut entries = Vec::new();
        // Snapshot index of each kept trie node (root maps to 0; entry k
        // maps to k + 1).
        let mut mapped: Vec<Option<u32>> = vec![None; self.trie.len()];
        mapped[0] = Some(0);
        for i in 1..self.trie.len() {
            if !keep[i] {
                continue;
            }
            let (parent, term) = parent_of[i].expect("non-root trie nodes have parents");
            let Some(parent_idx) = mapped[parent] else {
                continue; // parent was dropped (capacity races cannot occur here)
            };
            let node = &self.trie[i];
            entries.push(TrieEntry {
                parent: parent_idx,
                term: term.index() as u32,
                verdict: node.verdict,
                model: node.model.as_deref().cloned(),
                bounds: node.bounds.as_deref().cloned(),
            });
            mapped[i] = Some(entries.len() as u32);
        }
        TrieSnapshot {
            terms: self.interner.terms().to_vec(),
            entries,
        }
    }

    /// Seeds the interner and prefix trie from a snapshot produced by
    /// [`IncrementalSolver::export_trie`] (possibly in another process —
    /// every term is re-interned, so snapshot ids and live ids need not
    /// coincide). Returns the number of decided prefixes restored.
    ///
    /// Only legal on an empty stack; a non-empty stack, an invalid
    /// snapshot ([`TrieSnapshot::validate`]), or a full trie restore
    /// nothing (`0`) — a warm start must never poison a solver. Existing
    /// verdicts are never overwritten.
    ///
    /// Soundness rests on the [determinism
    /// contract](crate::snapshot#determinism-contract): verdict, model,
    /// and bounds are deterministic functions of the literal path, so a
    /// restored entry is exactly what this solver would have computed —
    /// *provided the solver configuration matches* (case budgets flip
    /// `Unknown`s); gate reuse on [`crate::SolverConfig::cache_key`].
    pub fn import_trie(&mut self, snapshot: &TrieSnapshot) -> usize {
        if !self.frames.is_empty() || !snapshot.validate() {
            return 0;
        }
        let mut ids: Vec<TermId> = Vec::with_capacity(snapshot.terms.len());
        for term in &snapshot.terms {
            let mapped = match term {
                crate::intern::Term::Unary { op, arg } => crate::intern::Term::Unary {
                    op: *op,
                    arg: ids[arg.index()],
                },
                crate::intern::Term::Binary { op, lhs, rhs } => crate::intern::Term::Binary {
                    op: *op,
                    lhs: ids[lhs.index()],
                    rhs: ids[rhs.index()],
                },
                other => other.clone(),
            };
            ids.push(self.interner.intern_term(mapped));
        }
        let mut imported = 0;
        // Local node behind each snapshot index (0 = root).
        let mut nodes: Vec<Option<usize>> = vec![Some(0)];
        for entry in &snapshot.entries {
            let child = nodes[entry.parent as usize]
                .and_then(|parent| self.trie_child_of(parent, ids[entry.term as usize]));
            if let Some(node) = child {
                if self.trie[node].verdict.is_none() {
                    if let Some(verdict) = entry.verdict {
                        self.trie[node].verdict = Some(verdict);
                        self.trie[node].model = entry.model.clone().map(Arc::new);
                        self.trie[node].bounds = entry.bounds.clone().map(Arc::new);
                        imported += 1;
                    }
                }
            }
            nodes.push(child);
        }
        imported
    }

    /// Model reuse at depth `top`: the parent frame's verified model,
    /// extended with defaults for this frame's fresh variables and with
    /// this frame's boolean literal assignments, when that candidate
    /// satisfies every pushed literal.
    ///
    /// The candidate is never copied to be checked: it is the shared
    /// parent model seen through those few overriding values. The parent
    /// model satisfies every literal below the top, so only the top
    /// literal and the literals that read an overridden variable are
    /// evaluated (fresh variables appear in no earlier literal; a boolean
    /// this frame pins may). The candidate is materialized only when it
    /// is accepted and differs from the parent.
    fn reuse(&self, top: usize) -> Option<Arc<Model>> {
        let parent = match top {
            0 => Arc::new(Model::new()),
            _ => match self.frames[top - 1].verdict {
                Some(SatResult::Sat) => self.frames[top - 1].model.clone()?,
                _ => return None,
            },
        };
        let frame = &self.frames[top];
        let mut overrides: Vec<(u32, Value)> = Vec::new();
        let mut set = |id: u32, value: Value| match overrides.iter_mut().find(|(o, _)| *o == id) {
            Some(slot) => slot.1 = value,
            None => overrides.push((id, value)),
        };
        for id in &frame.new_vars {
            set(*id, default_value(self.vars.get(id)?.ty()));
        }
        for (id, _) in &frame.bool_undo {
            set(*id, Value::Bool(*self.bools.get(id)?));
        }
        overrides.retain(|&(id, value)| parent.get(id) != Some(value));
        let lookup = |id: u32| match overrides.iter().find(|(o, _)| *o == id) {
            Some(&(_, value)) => Some(value),
            None => parent.get(id),
        };
        let holds = |lit: &SymExpr| eval_in(lit, &lookup) == Some(Value::Bool(true));
        let originals = Originals {
            lits: &self.lits,
            readers: &self.readers,
            parent: Some(&parent),
        };
        let reused = originals.holds_given(overrides.iter().map(|&(id, _)| id), holds);
        debug_assert_eq!(
            reused,
            self.lits.iter().all(holds),
            "narrowed model reuse disagrees with the whole stack"
        );
        if !reused {
            return None;
        }
        if overrides.is_empty() {
            return Some(parent);
        }
        let mut model = (*parent).clone();
        for (id, value) in overrides {
            model.set(id, value);
        }
        Some(Arc::new(model))
    }

    /// The pinned `fixed` seed for the partial search: the SAT parent
    /// model's values for every variable the top frame's literal does not
    /// mention, overlaid with the hard boolean assignments.
    fn pinned_fixed(&self, top: usize, parent_model: &Model, fixed: &Model) -> Model {
        let lit_vars = &self.frames[top].lit_vars;
        let mut pinned = Model::new();
        for (id, value) in parent_model.iter() {
            if !lit_vars.contains(&id) {
                pinned.set(id, value);
            }
        }
        for (id, value) in fixed.iter() {
            pinned.set(id, value);
        }
        pinned
    }

    /// The boolean literal assignments as a [`Model`] (what the shared
    /// decision core expects as `fixed`).
    fn fixed_model(&self) -> Model {
        let mut fixed = Model::new();
        for (&id, &value) in &self.bools {
            fixed.set(id, Value::Bool(value));
        }
        fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::{BinOp, SymTy, VarPool};

    fn setup() -> (VarPool, SymVar, SymVar, SymVar) {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let b = pool.fresh("B", SymTy::Bool);
        (pool, x, y, b)
    }

    #[test]
    fn empty_stack_is_sat() {
        let mut solver = IncrementalSolver::new();
        assert_eq!(solver.check(), SatResult::Sat);
        assert_eq!(solver.depth(), 0);
    }

    #[test]
    fn push_check_pop_roundtrip() {
        let (_, x, _, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Sat);
        let model = solver.model().expect("sat has a model");
        assert!(model.int_value(&x).unwrap() > 0);
        solver.push(SymExpr::lt(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Unsat);
        solver.pop();
        assert_eq!(solver.check(), SatResult::Sat);
        solver.pop();
        assert_eq!(solver.depth(), 0);
    }

    #[test]
    fn unsat_prefix_kills_extensions() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)));
        solver.push(SymExpr::lt(SymExpr::var(&x), SymExpr::int(5)));
        assert_eq!(solver.check(), SatResult::Unsat);
        // Any extension of an UNSAT prefix is UNSAT without solving.
        solver.push(SymExpr::gt(SymExpr::var(&y), SymExpr::int(0)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Unsat);
        let after = solver.stats();
        assert_eq!(after.prefix_unsat_kills, before.prefix_unsat_kills + 1);
        assert_eq!(after.model_searches, before.model_searches);
        // Popping back above the conflict restores satisfiability.
        solver.pop();
        solver.pop();
        assert_eq!(solver.check(), SatResult::Sat);
    }

    #[test]
    fn trie_restored_unsat_still_kills_extensions() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        let conflict = [
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
            SymExpr::lt(SymExpr::var(&x), SymExpr::int(5)),
        ];
        for lit in &conflict {
            solver.push(lit.clone());
        }
        assert_eq!(solver.check(), SatResult::Unsat);
        solver.reset();
        // Replaying the prefix restores UNSAT from the trie; an extension
        // must then die by the instant prefix kill, not re-run a pipeline.
        for lit in &conflict {
            solver.push(lit.clone());
        }
        assert_eq!(solver.check(), SatResult::Unsat);
        solver.push(SymExpr::gt(SymExpr::var(&y), SymExpr::int(0)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Unsat);
        let after = solver.stats();
        assert_eq!(after.prefix_unsat_kills, before.prefix_unsat_kills + 1);
        assert_eq!(after.model_searches, before.model_searches);
        assert_eq!(after.fm_runs, before.fm_runs);
    }

    #[test]
    fn residual_unsat_still_kills_extensions() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        // A complex (disjunctive) literal that is UNSAT together with its
        // companion: x ∈ (-∞,-5)∪(5,∞) ∧ x = 0.
        solver.push(SymExpr::or(
            SymExpr::lt(SymExpr::var(&x), SymExpr::int(-5)),
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
        ));
        solver.push(SymExpr::eq(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Unsat);
        solver.push(SymExpr::gt(SymExpr::var(&y), SymExpr::int(0)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Unsat);
        let after = solver.stats();
        assert_eq!(after.prefix_unsat_kills, before.prefix_unsat_kills + 1);
    }

    #[test]
    fn model_reuse_answers_compatible_extensions() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Sat);
        // A constraint on a fresh variable that the default fill satisfies:
        // y <= 100 holds for y = 0.
        solver.push(SymExpr::le(SymExpr::var(&y), SymExpr::int(100)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Sat);
        let after = solver.stats();
        assert_eq!(after.model_reuse_hits, before.model_reuse_hits + 1);
        assert_eq!(after.model_searches, before.model_searches);
    }

    #[test]
    fn prefix_trie_answers_repeated_prefixes() {
        let (_, x, _, _) = setup();
        let lit = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
        let mut solver = IncrementalSolver::new();
        solver.push(lit.clone());
        assert_eq!(solver.check(), SatResult::Sat);
        solver.pop();
        // Re-pushing the same literal is a trie hit: no pipeline runs.
        solver.push(lit);
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Sat);
        let after = solver.stats();
        assert_eq!(after.prefix_cache_hits, before.prefix_cache_hits + 1);
        assert_eq!(after.model_searches, before.model_searches);
        assert_eq!(after.incremental_checks, before.incremental_checks);
    }

    #[test]
    fn disjunctions_decide_incrementally() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        let path = [
            SymExpr::or(
                SymExpr::lt(SymExpr::var(&x), SymExpr::int(-5)),
                SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
            ),
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)),
        ];
        for lit in &path {
            solver.push(lit.clone());
        }
        assert_eq!(solver.check(), SatResult::Sat);
        let stats = solver.stats();
        assert_eq!(stats.incremental_checks, 1, "{stats:?}");
        let model = solver.model().unwrap();
        assert!(path.iter().all(|lit| model.satisfies(lit)));
        assert!(model.int_value(&x).unwrap() > 5);
        // The disjunction stays on the stack and the next compatible
        // extension is answered by model reuse.
        solver.push(SymExpr::le(SymExpr::var(&y), SymExpr::int(100)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Sat);
        let after = solver.stats();
        assert_eq!(after.model_reuse_hits, before.model_reuse_hits + 1);
        assert_eq!(after.model_searches, before.model_searches);
    }

    #[test]
    fn integer_disequalities_decide_incrementally() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        let path = [
            SymExpr::Binary {
                op: BinOp::Ne,
                lhs: SymExpr::var(&x).into(),
                rhs: SymExpr::int(0).into(),
            },
            SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)),
        ];
        solver.push(path[0].clone());
        assert_eq!(solver.check(), SatResult::Sat);
        solver.push(path[1].clone());
        assert_eq!(solver.check(), SatResult::Sat);
        let stats = solver.stats();
        assert_eq!(stats.incremental_checks, 2, "{stats:?}");
        let model = solver.model().unwrap();
        assert!(path.iter().all(|lit| model.satisfies(lit)));
        assert!(model.int_value(&x).unwrap() > 0);
        solver.push(SymExpr::le(SymExpr::var(&y), SymExpr::int(100)));
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Sat);
        assert_eq!(solver.stats().model_reuse_hits, before.model_reuse_hits + 1);
    }

    #[test]
    fn undecided_disequality_splits_in_place() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        // Propagation pins x = 0, the search refutes its only candidate,
        // and FM over the linear atoms finds no conflict; splitting
        // x != 0 into x < 0 and x > 0 refutes both alternatives.
        solver.push(SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)));
        solver.push(SymExpr::le(SymExpr::var(&x), SymExpr::int(0)));
        solver.push(SymExpr::Binary {
            op: BinOp::Ne,
            lhs: SymExpr::var(&x).into(),
            rhs: SymExpr::int(0).into(),
        });
        assert_eq!(solver.check(), SatResult::Unsat);
        let stats = solver.stats();
        assert_eq!(stats.checks, 1, "{stats:?}");
        assert_eq!(stats.pipeline_checks(), 1, "{stats:?}");
        assert_eq!(stats.unsat, 1, "{stats:?}");
        // The split's UNSAT kills extensions like any other.
        solver.push(SymExpr::gt(SymExpr::var(&y), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Unsat);
        let after = solver.stats();
        assert_eq!(after.prefix_unsat_kills, 1);
        assert_eq!(after.pipeline_checks(), 1);
    }

    #[test]
    fn boolean_literals_and_conflicts() {
        let (_, _, _, b) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::var(&b));
        assert_eq!(solver.check(), SatResult::Sat);
        assert_eq!(solver.model().unwrap().bool_value(&b), Some(true));
        solver.push(SymExpr::not(SymExpr::var(&b)));
        assert_eq!(solver.check(), SatResult::Unsat);
        solver.pop();
        assert_eq!(solver.check(), SatResult::Sat);
    }

    #[test]
    fn equality_chains_decide_incrementally() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::eq(
            SymExpr::add(SymExpr::var(&x), SymExpr::var(&y)),
            SymExpr::int(10),
        ));
        assert_eq!(solver.check(), SatResult::Sat);
        solver.push(SymExpr::eq(
            SymExpr::sub(SymExpr::var(&x), SymExpr::var(&y)),
            SymExpr::int(4),
        ));
        assert_eq!(solver.check(), SatResult::Sat);
        let model = solver.model().unwrap();
        assert_eq!(model.int_value(&x), Some(7));
        assert_eq!(model.int_value(&y), Some(3));
        // x - y = 5 on top of x - y = 4 is a contradiction FM must find.
        solver.push(SymExpr::eq(
            SymExpr::sub(SymExpr::var(&x), SymExpr::var(&y)),
            SymExpr::int(5),
        ));
        assert_eq!(solver.check(), SatResult::Unsat);
    }

    #[test]
    fn starved_budget_answers_unknown() {
        let (_, x, _, _) = setup();
        let config = SolverConfig {
            case_budget: 0,
            ..SolverConfig::default()
        };
        let mut solver = IncrementalSolver::with_config(config);
        assert_eq!(solver.check(), SatResult::Sat); // empty query stays SAT
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Unknown);
    }

    #[test]
    fn nonlinear_residuals_are_searched() {
        let (_, x, y, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::ge(SymExpr::var(&x), SymExpr::int(1)));
        solver.push(SymExpr::le(SymExpr::var(&x), SymExpr::int(6)));
        solver.push(SymExpr::ge(SymExpr::var(&y), SymExpr::int(1)));
        solver.push(SymExpr::le(SymExpr::var(&y), SymExpr::int(6)));
        assert_eq!(solver.check(), SatResult::Sat);
        solver.push(SymExpr::Binary {
            op: BinOp::Eq,
            lhs: SymExpr::Binary {
                op: BinOp::Mul,
                lhs: SymExpr::var(&x).into(),
                rhs: SymExpr::var(&y).into(),
            }
            .into(),
            rhs: SymExpr::int(6).into(),
        });
        assert_eq!(solver.check(), SatResult::Sat);
        let m = solver.model().unwrap();
        assert_eq!(m.int_value(&x).unwrap() * m.int_value(&y).unwrap(), 6);
    }

    #[test]
    fn divergent_branches_via_pop_then_push() {
        let (_, x, _, _) = setup();
        let mut solver = IncrementalSolver::new();
        let cond = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
        solver.push(cond.clone());
        assert_eq!(solver.check(), SatResult::Sat);
        solver.pop();
        solver.push(SymExpr::not(cond));
        assert_eq!(solver.check(), SatResult::Sat);
        assert!(solver.model().unwrap().int_value(&x).unwrap() <= 0);
    }

    #[test]
    fn reset_clears_the_stack_but_keeps_the_trie() {
        let (_, x, _, _) = setup();
        let lit = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
        let mut solver = IncrementalSolver::new();
        solver.push(lit.clone());
        solver.push(SymExpr::lt(SymExpr::var(&x), SymExpr::int(10)));
        assert_eq!(solver.check(), SatResult::Sat);
        solver.reset();
        assert_eq!(solver.depth(), 0);
        solver.push(lit);
        let before = solver.stats();
        assert_eq!(solver.check(), SatResult::Sat);
        // First-depth literal was never checked directly before… but it
        // was recorded as a trie node; only its verdict may be absent.
        let after = solver.stats();
        assert!(after.checks == before.checks + 1);
    }

    #[test]
    fn snapshot_roundtrip_answers_without_solving() {
        let (_, x, y, _) = setup();
        let chain = [
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)),
            SymExpr::lt(SymExpr::var(&y), SymExpr::var(&x)),
        ];
        let mut producer = IncrementalSolver::new();
        for lit in &chain {
            producer.push(lit.clone());
            assert_eq!(producer.check(), SatResult::Sat);
        }
        let producer_model = producer.model().cloned().unwrap();
        producer.reset();
        let snapshot = producer.export_trie();
        assert!(snapshot.validate());
        assert_eq!(snapshot.decided(), 2);

        // A *fresh* solver (fresh interner, fresh everything) warm-started
        // from the snapshot answers the same chain from its trie — and
        // restores the identical model, so deeper exploration behaves
        // exactly like the producer's.
        let mut consumer = IncrementalSolver::new();
        assert_eq!(consumer.import_trie(&snapshot), 2);
        for lit in &chain {
            consumer.push(lit.clone());
            assert_eq!(consumer.check(), SatResult::Sat);
        }
        let stats = consumer.stats();
        assert_eq!(stats.prefix_cache_hits, 2, "{stats:?}");
        assert_eq!(stats.model_searches, 0);
        assert_eq!(stats.fm_runs, 0);
        assert_eq!(consumer.model().cloned().unwrap(), producer_model);
    }

    #[test]
    fn snapshot_restores_unsat_prefix_kills() {
        let (_, x, y, _) = setup();
        let conflict = [
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
            SymExpr::lt(SymExpr::var(&x), SymExpr::int(5)),
        ];
        let mut producer = IncrementalSolver::new();
        for lit in &conflict {
            producer.push(lit.clone());
        }
        assert_eq!(producer.check(), SatResult::Unsat);
        producer.reset();
        let snapshot = producer.export_trie();

        let mut consumer = IncrementalSolver::new();
        assert!(consumer.import_trie(&snapshot) >= 1);
        for lit in &conflict {
            consumer.push(lit.clone());
        }
        assert_eq!(consumer.check(), SatResult::Unsat);
        consumer.push(SymExpr::gt(SymExpr::var(&y), SymExpr::int(0)));
        let before = consumer.stats();
        assert_eq!(consumer.check(), SatResult::Unsat);
        let after = consumer.stats();
        assert_eq!(after.prefix_unsat_kills, before.prefix_unsat_kills + 1);
        assert_eq!(after.model_searches, before.model_searches);
    }

    #[test]
    fn export_prunes_undecided_subtrees() {
        let (_, x, _, _) = setup();
        let mut solver = IncrementalSolver::new();
        // Pushed but never checked: the prefix has a trie node with no
        // verdict anywhere below, so the snapshot drops it.
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        solver.reset();
        let snapshot = solver.export_trie();
        assert!(snapshot.is_empty());
        // Decided prefixes survive.
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        solver.check();
        solver.reset();
        let snapshot = solver.export_trie();
        assert_eq!(snapshot.entries.len(), 1);
        assert_eq!(snapshot.decided(), 1);
    }

    #[test]
    fn import_refuses_nonempty_stacks_and_invalid_snapshots() {
        let (_, x, _, _) = setup();
        let mut producer = IncrementalSolver::new();
        producer.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        producer.check();
        producer.reset();
        let snapshot = producer.export_trie();

        let mut busy = IncrementalSolver::new();
        busy.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(1)));
        assert_eq!(busy.import_trie(&snapshot), 0);

        let mut corrupt = snapshot.clone();
        corrupt.entries[0].term = 999;
        let mut fresh = IncrementalSolver::new();
        assert_eq!(fresh.import_trie(&corrupt), 0);
    }

    #[test]
    fn import_is_idempotent_and_respects_existing_verdicts() {
        let (_, x, _, _) = setup();
        let lit = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
        let mut producer = IncrementalSolver::new();
        producer.push(lit.clone());
        producer.check();
        producer.reset();
        let snapshot = producer.export_trie();

        let mut consumer = IncrementalSolver::new();
        assert_eq!(consumer.import_trie(&snapshot), 1);
        // A second import finds every verdict already present.
        assert_eq!(consumer.import_trie(&snapshot), 0);
        consumer.push(lit);
        assert_eq!(consumer.check(), SatResult::Sat);
    }

    #[test]
    fn stats_count_every_check_once() {
        let (_, x, _, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        assert_eq!(solver.check(), SatResult::Sat);
        solver.push(SymExpr::or(
            SymExpr::lt(SymExpr::var(&x), SymExpr::int(-5)),
            SymExpr::gt(SymExpr::var(&x), SymExpr::int(5)),
        ));
        assert_eq!(solver.check(), SatResult::Sat);
        // With x <= 6 and x != 6 added, the search refutes every candidate
        // in [1, 6], FM over the linear atoms finds no conflict, and the
        // case split proves UNSAT.
        solver.push(SymExpr::le(SymExpr::var(&x), SymExpr::int(6)));
        solver.push(SymExpr::Binary {
            op: BinOp::Ne,
            lhs: SymExpr::var(&x).into(),
            rhs: SymExpr::int(6).into(),
        });
        assert_eq!(solver.check(), SatResult::Unsat);
        let stats = solver.stats();
        assert_eq!(stats.checks, 3, "{stats:?}");
        assert_eq!(stats.incremental_checks, 3, "{stats:?}");
        assert_eq!(stats.pipeline_checks(), 3, "{stats:?}");
        assert_eq!(stats.sat, 2, "{stats:?}");
        assert_eq!(stats.unsat, 1, "{stats:?}");
    }
}
