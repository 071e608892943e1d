//! Portable snapshots of the incremental solver's warm state.
//!
//! A [`TrieSnapshot`] is the serializable image of an
//! [`crate::IncrementalSolver`]'s hash-consed interner and prefix-trie
//! verdict cache: the full term table (children before parents, exactly
//! the interner's insertion order) plus one [`TrieEntry`] per trie edge
//! that leads to a decided prefix. Edges are keyed by *canonical term
//! indices into the snapshot's own table*, never by live
//! [`TermId`](crate::intern::TermId)s — importing re-interns every term,
//! so a snapshot taken by one process warm-starts a solver in another
//! process (or a later run over a different program version) with the
//! same ids only where the structures actually coincide.
//!
//! # Determinism contract
//!
//! Restoring a snapshot is sound because a verdict, its verified model
//! and its interval fixed point are a deterministic function of the
//! literal sequence alone. The incremental pipeline at depth `k` reads
//! only the literals pushed so far and the state its own checks left at
//! the ancestor depths (model, bounds), and each of those was itself
//! produced by checking that ancestor's prefix. So a restored entry is
//! byte-for-byte what a fresh run would have computed for that prefix,
//! and every frame below it behaves identically whether its parent was
//! solved or restored. The only reuse gate is the solver
//! *configuration* (case budgets change `Unknown` verdicts), which
//! callers compare via [`crate::SolverConfig::cache_key`]. Store warm
//! starts and in-process handoffs between pipeline stages both rely on
//! this contract.
//!
//! `dise-store` serializes snapshots to disk with an integrity header;
//! this module stays I/O-free.

use std::collections::BTreeMap;

use crate::intern::Term;
use crate::interval::Interval;
use crate::model::Model;
use crate::solve::SatResult;
use crate::sym::{SymExpr, SymTy, SymVar};

/// Interval fixed point at a depth (the incremental solver seeds a child
/// frame's propagation with its parent's).
pub type Bounds = BTreeMap<u32, Interval>;

/// One trie edge of a [`TrieSnapshot`]: the parent node, the literal term
/// labelling the edge, and the decision memoized at the child (if any —
/// interior edges on the way to a decided descendant carry `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrieEntry {
    /// Parent node: `0` is the root (empty path); `k > 0` refers to
    /// `entries[k - 1]` of the same snapshot.
    pub parent: u32,
    /// Index into [`TrieSnapshot::terms`] of the edge's literal.
    pub term: u32,
    /// The memoized verdict at this prefix, if one was computed.
    pub verdict: Option<SatResult>,
    /// The verified model (present when the verdict is SAT).
    pub model: Option<Model>,
    /// The interval fixed point at this depth, if any.
    pub bounds: Option<Bounds>,
}

/// A portable image of an incremental solver's interner and prefix trie.
/// Produced by [`crate::IncrementalSolver::export_trie`], consumed by
/// [`crate::IncrementalSolver::import_trie`]. See the [module
/// docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrieSnapshot {
    /// The hash-consed term table, in interner insertion order (every
    /// term's children precede it).
    pub terms: Vec<Term>,
    /// The trie edges, parents before children.
    pub entries: Vec<TrieEntry>,
}

impl TrieSnapshot {
    /// Number of decided prefixes in the snapshot (entries carrying a
    /// verdict; interior edges are not counted).
    pub fn decided(&self) -> usize {
        self.entries.iter().filter(|e| e.verdict.is_some()).count()
    }

    /// Returns `true` when the snapshot holds no trie edges at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Structural well-formedness: every term references only earlier
    /// terms, every entry references an in-range term and an
    /// earlier-or-root parent. Import refuses snapshots that fail this
    /// (a checksum-valid but logically corrupt file must never poison a
    /// solver).
    pub fn validate(&self) -> bool {
        for (i, term) in self.terms.iter().enumerate() {
            let ok = match term {
                Term::Int(_) | Term::Bool(_) | Term::Var { .. } => true,
                Term::Unary { arg, .. } => arg.index() < i,
                Term::Binary { lhs, rhs, .. } => lhs.index() < i && rhs.index() < i,
            };
            if !ok {
                return false;
            }
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.parent as usize > i || entry.term as usize >= self.terms.len() {
                return false;
            }
        }
        true
    }
}

/// One explored path of a summarized procedure: the branch guards taken
/// (over the formal/global entry variables of [`SummarySnapshot`]), the
/// terminal outcome, the procedure's effect on every global, and a witness
/// model satisfying the guards (used by the instantiation fast path to
/// re-validate feasibility at a call site without solving).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryPathSnapshot {
    /// Branch literals in DFS push order, exactly as the serial inlined
    /// exploration would have pushed them inside the callee.
    pub guards: Vec<SymExpr>,
    /// `Some(message)` when the path ends in an `error` statement;
    /// `None` for a completed path.
    pub error: Option<String>,
    /// Final symbolic value of every global, over the same entry
    /// variables as the guards. Identity entries (global unchanged) are
    /// included — they substitute to a no-op.
    pub effects: Vec<(String, SymExpr)>,
    /// A model of the guard conjunction, when one was found.
    pub witness: Option<Model>,
}

/// A portable procedure summary: every feasible path of one callee,
/// explored once over fresh entry variables, ready to be instantiated at
/// any call site by substituting actuals for formals and the caller's
/// global values for the globals' entry variables.
///
/// Reuse gates mirror [`TrieSnapshot`]'s: the summary is a deterministic
/// function of the callee's flattened body (`fingerprint`, computed over
/// the callee with its own callees inlined) and the solver configuration
/// (`solver_key`); either changing invalidates the entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySnapshot {
    /// The summarized procedure's name.
    pub proc_name: String,
    /// Fingerprint of the callee's *flattened* body (its transitive
    /// callees inlined), so a change anywhere beneath the callee
    /// invalidates the summary.
    pub fingerprint: u64,
    /// [`crate::SolverConfig::cache_key`] of the solver that explored the
    /// callee (case budgets change `Unknown` verdicts, hence path sets).
    pub solver_key: u64,
    /// Formal parameters in declaration order, with the entry variable
    /// each one was bound to during summarization.
    pub formals: Vec<(String, SymVar)>,
    /// Globals with their entry variables (the callee sees every global
    /// symbolically; unread globals simply don't occur in any guard or
    /// effect).
    pub globals: Vec<(String, SymVar)>,
    /// Explored paths in serial DFS emission order — instantiation
    /// preserves this order so caller path emission matches the inlined
    /// run's.
    pub paths: Vec<SummaryPathSnapshot>,
}

impl SummarySnapshot {
    /// Structural well-formedness: guard expressions must be boolean and
    /// every variable mentioned anywhere must be one of the declared
    /// entry variables. Import refuses summaries that fail this.
    pub fn validate(&self) -> bool {
        let declared: std::collections::BTreeSet<u32> = self
            .formals
            .iter()
            .chain(self.globals.iter())
            .map(|(_, v)| v.id())
            .collect();
        let vars_ok = |expr: &SymExpr| {
            let mut vars = std::collections::BTreeMap::new();
            expr.collect_vars(&mut vars);
            vars.keys().all(|id| declared.contains(id))
        };
        self.paths.iter().all(|path| {
            path.guards
                .iter()
                .all(|g| g.ty() == SymTy::Bool && vars_ok(g))
                && path.effects.iter().all(|(_, e)| vars_ok(e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::TermId;
    use crate::sym::UnOp;

    fn entry(parent: u32, term: u32) -> TrieEntry {
        TrieEntry {
            parent,
            term,
            verdict: Some(SatResult::Sat),
            model: None,
            bounds: None,
        }
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let snapshot = TrieSnapshot::default();
        assert!(snapshot.validate());
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.decided(), 0);
    }

    #[test]
    fn forward_term_references_are_rejected() {
        let snapshot = TrieSnapshot {
            terms: vec![Term::Unary {
                op: UnOp::Not,
                arg: TermId::from_index(5),
            }],
            entries: Vec::new(),
        };
        assert!(!snapshot.validate());
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        let base = TrieSnapshot {
            terms: vec![Term::Bool(true)],
            entries: vec![entry(0, 0)],
        };
        assert!(base.validate());
        let bad_term = TrieSnapshot {
            entries: vec![entry(0, 3)],
            ..base.clone()
        };
        assert!(!bad_term.validate());
        let forward_parent = TrieSnapshot {
            entries: vec![entry(2, 0)],
            ..base
        };
        assert!(!forward_parent.validate());
    }
}
