//! A concurrent prefix-trie verdict cache shared between solvers.
//!
//! The parallel frontier engine runs one [`crate::IncrementalSolver`] per
//! worker; each worker explores a different segment of the DFS tree, but
//! the segments share long literal prefixes (everything above the fork
//! point) and stolen tasks re-check prefixes their victim already decided.
//! [`SharedTrie`] lets every worker publish and consume those verdicts:
//! it maps a *path* of pushed literals to the verdict, verified model, and
//! interval fixed point computed at that depth.
//!
//! Per-worker [`crate::intern::TermId`]s are private to each worker's
//! interner, so the shared trie cannot key on them. Instead an edge is
//! keyed by `(parent node id, literal)` where the literal is the
//! structural [`SymExpr`] itself (hash-consed `Arc` subtrees make the
//! clone cheap and `Eq`/`Hash` are structural with id-based variable
//! identity). Node ids are allocated from an atomic counter; the root
//! (empty path) is [`SharedTrie::ROOT`].
//!
//! The map is **sharded**: each `(parent, literal)` pair hashes to one of
//! `SHARDS` (64) independently locked hash maps, so concurrent workers on
//! different prefixes rarely contend.
//!
//! # Determinism contract
//!
//! Callers must only publish verdicts computed by a *root-contiguous*
//! chain of checks — i.e. the frame state (model, bounds) at every
//! ancestor depth was itself produced by checking that ancestor's path.
//! The incremental pipeline is deterministic given that chain, so any two
//! workers publishing the same path publish identical verdicts, models,
//! and bounds, and a reader restoring an entry observes exactly the state
//! it would have computed itself. This is what lets the parallel frontier
//! guarantee byte-identical summaries to a serial run.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::interval::Interval;
use crate::model::Model;
use crate::solve::SatResult;
use crate::sym::SymExpr;

/// Interval fixed point at a depth (the incremental solver seeds a child
/// frame's propagation with its parent's).
pub type Bounds = BTreeMap<u32, Interval>;

/// Number of independently locked shards. A power of two so the shard
/// index is a mask of the hash.
const SHARDS: usize = 64;

/// A decided entry restored from the trie.
#[derive(Debug, Clone)]
pub struct SharedVerdict {
    /// The memoized verdict.
    pub verdict: SatResult,
    /// The verified model (present when the verdict is SAT).
    pub model: Option<Model>,
    /// The interval fixed point computed at this depth, if any.
    pub bounds: Option<Bounds>,
}

#[derive(Debug)]
struct Entry {
    /// This edge's own node id (the parent id for one-deeper lookups).
    id: u64,
    /// The decision, once published.
    decided: Option<SharedVerdict>,
}

/// Lock-sharded concurrent prefix trie. See the [module docs](self).
#[derive(Debug)]
pub struct SharedTrie {
    shards: Vec<Mutex<HashMap<(u64, SymExpr), Entry>>>,
    next_id: AtomicU64,
    len: AtomicUsize,
    capacity: usize,
    hits: AtomicU64,
    publishes: AtomicU64,
}

impl SharedTrie {
    /// The node id of the empty path.
    pub const ROOT: u64 = 0;

    /// Creates a trie bounded to `capacity` edges; beyond it, new prefixes
    /// are no longer memoized (lookups and publishes on existing edges
    /// keep working).
    pub fn new(capacity: usize) -> SharedTrie {
        SharedTrie {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(Self::ROOT + 1),
            len: AtomicUsize::new(0),
            capacity,
            hits: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    fn shard(&self, parent: u64, lit: &SymExpr) -> &Mutex<HashMap<(u64, SymExpr), Entry>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        parent.hash(&mut hasher);
        lit.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// The node id for `parent` extended by `lit`, creating the edge if
    /// capacity allows. `None` once the trie is full and the edge is new.
    pub fn child(&self, parent: u64, lit: &SymExpr) -> Option<u64> {
        let shard = self.shard(parent, lit);
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = map.get(&(parent, lit.clone())) {
            return Some(entry.id);
        }
        if self.len.load(Ordering::Relaxed) >= self.capacity {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        map.insert((parent, lit.clone()), Entry { id, decided: None });
        self.len.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    /// The published decision on the edge `parent --lit-->`, if any.
    pub fn verdict(&self, parent: u64, lit: &SymExpr) -> Option<SharedVerdict> {
        let shard = self.shard(parent, lit);
        let map = shard.lock().unwrap_or_else(|e| e.into_inner());
        let decided = map.get(&(parent, lit.clone()))?.decided.clone()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(decided)
    }

    /// Publishes a decision on the edge `parent --lit-->`. Concurrent
    /// publishers of the same root-contiguous path write identical data
    /// (see the module docs), so last-write-wins is benign. No-op when the
    /// edge was never created (capacity).
    pub fn publish(
        &self,
        parent: u64,
        lit: &SymExpr,
        verdict: SatResult,
        model: Option<Model>,
        bounds: Option<Bounds>,
    ) {
        let shard = self.shard(parent, lit);
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = map.get_mut(&(parent, lit.clone())) {
            entry.decided = Some(SharedVerdict {
                verdict,
                model,
                bounds,
            });
            self.publishes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of edges currently stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` when no edge was stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered with a published decision.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Decisions published so far (republished edges count again).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::{SymTy, VarPool};
    use std::sync::Arc;

    fn lits(n: usize) -> Vec<SymExpr> {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        (0..n)
            .map(|i| SymExpr::gt(SymExpr::var(&x), SymExpr::int(i as i64)))
            .collect()
    }

    #[test]
    fn child_ids_are_stable() {
        let trie = SharedTrie::new(1024);
        let ls = lits(2);
        let a = trie.child(SharedTrie::ROOT, &ls[0]).unwrap();
        let b = trie.child(SharedTrie::ROOT, &ls[0]).unwrap();
        assert_eq!(a, b);
        let c = trie.child(a, &ls[1]).unwrap();
        assert_ne!(a, c);
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn publish_then_lookup_roundtrips() {
        let trie = SharedTrie::new(1024);
        let ls = lits(1);
        trie.child(SharedTrie::ROOT, &ls[0]).unwrap();
        assert!(trie.verdict(SharedTrie::ROOT, &ls[0]).is_none());
        trie.publish(SharedTrie::ROOT, &ls[0], SatResult::Unsat, None, None);
        let hit = trie.verdict(SharedTrie::ROOT, &ls[0]).unwrap();
        assert_eq!(hit.verdict, SatResult::Unsat);
        assert_eq!(trie.hits(), 1);
        assert_eq!(trie.publishes(), 1);
    }

    #[test]
    fn capacity_stops_growth_but_not_existing_edges() {
        let trie = SharedTrie::new(1);
        let ls = lits(2);
        let a = trie.child(SharedTrie::ROOT, &ls[0]).unwrap();
        assert_eq!(trie.child(SharedTrie::ROOT, &ls[1]), None);
        // The existing edge still resolves and accepts publishes.
        assert_eq!(trie.child(SharedTrie::ROOT, &ls[0]), Some(a));
        trie.publish(SharedTrie::ROOT, &ls[0], SatResult::Sat, None, None);
        assert!(trie.verdict(SharedTrie::ROOT, &ls[0]).is_some());
        // Publishing on the never-created edge is a no-op.
        trie.publish(SharedTrie::ROOT, &ls[1], SatResult::Sat, None, None);
        assert!(trie.verdict(SharedTrie::ROOT, &ls[1]).is_none());
    }

    #[test]
    fn concurrent_same_path_interning_agrees() {
        // Hammer the same chain from several threads: every thread must
        // observe the same node id per depth.
        let trie = Arc::new(SharedTrie::new(1 << 12));
        let ls = Arc::new(lits(16));
        let ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let trie = Arc::clone(&trie);
                    let ls = Arc::clone(&ls);
                    scope.spawn(move || {
                        let mut parent = SharedTrie::ROOT;
                        let mut path = Vec::new();
                        for lit in ls.iter() {
                            parent = trie.child(parent, lit).unwrap();
                            path.push(parent);
                        }
                        path
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
        assert_eq!(trie.len(), 16);
    }
}
