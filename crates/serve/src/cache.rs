//! The in-memory session cache: rendered analysis responses keyed by
//! content fingerprints, with byte-budgeted LRU eviction.
//!
//! The key deliberately contains no file paths, timestamps, or client
//! identity — only the *content* of the request: the analyzed
//! procedure, the fingerprints of every program version involved, and
//! the solver configuration key (`SolverConfig::cache_key` via
//! `ExecConfig`). Two clients analyzing the same change therefore
//! share one entry, and a re-upload of byte-identical sources from a
//! different path is still a hit.
//!
//! Fingerprinting parses, type-checks and inlines every version, so a
//! lookup probes the request's bytes first: each entry holds one byte
//! alias, the [`RequestBytes`] of the request whose exploration filled
//! it, and an index maps those bytes to the entry's key. A byte-identical
//! repeat is answered on exact equality of method, procedure, every
//! source text and solver key, without parsing; any other request falls
//! back to the fingerprint key, so whitespace-only edits still hit.
//!
//! Eviction is by *bytes*, not entry count: every entry is charged its
//! key overhead, its rendered body and the request bytes its alias
//! holds, and inserting past the budget evicts least-recently-used
//! entries (with their aliases) until the cache fits again. An entry
//! larger than the whole budget is admitted and then immediately
//! evicted — the cache never refuses a computation, it just cannot
//! retain one that big.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What a cached analysis response is keyed by. `fingerprints` holds
/// the [`dise_diff::proc_fingerprint`] of every program version in
/// request order (two for `analyze`/`evolve`, one per version for
/// `chain`), so any content change anywhere in the chain misses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// The request method (`analyze`, `evolve`, `chain`).
    pub method: &'static str,
    /// The analyzed procedure.
    pub proc: String,
    /// Content fingerprints of every program version, in order.
    pub fingerprints: Vec<u64>,
    /// The solver configuration key of the serving configuration.
    pub solver_key: u64,
}

impl SessionKey {
    /// The bookkeeping overhead an entry with this key costs beyond its
    /// body: the key's own heap footprint plus a fixed allowance for
    /// the map/order slots.
    fn overhead(&self) -> usize {
        self.proc.len() + self.fingerprints.len() * 8 + 64
    }
}

/// The bytes of an analysis request that decide its answer: method,
/// procedure, every version's source text in request order, and the
/// solver configuration key. Equal bytes always have equal
/// [`SessionKey`]s, so a byte-identical repeat may skip fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestBytes {
    /// The request method (`analyze`, `evolve`, `chain`).
    pub method: &'static str,
    /// The analyzed procedure.
    pub proc: String,
    /// Every version's source text, in order.
    pub sources: Vec<String>,
    /// The solver configuration key of the serving configuration.
    pub solver_key: u64,
}

impl RequestBytes {
    /// What holding these bytes costs an entry: the texts plus a fixed
    /// allowance for the index slot.
    fn cost(&self) -> usize {
        self.proc.len() + self.sources.iter().map(String::len).sum::<usize>() + 64
    }
}

/// A cached, fully rendered response body (the deterministic `result`
/// members of a JSON-RPC response), shared by reference with every
/// requester — leader, coalesced followers, and later cache hits all
/// serve the same bytes.
#[derive(Debug)]
pub struct CachedBody {
    /// The rendered JSON members (no surrounding braces).
    pub body: String,
    /// Pipeline solver calls the producing exploration spent — 0 for a
    /// store-warm rebuild; surfaced so benches can pin the warm-hit
    /// contract.
    pub pipeline_solver_calls: u64,
}

#[derive(Debug)]
struct Entry {
    body: Arc<CachedBody>,
    /// The entry's slot in [`ByteLruCache::order`].
    tick: u64,
    alias: Option<Arc<RequestBytes>>,
    cost: usize,
}

/// Byte-budgeted LRU over [`SessionKey`] → [`CachedBody`], with one
/// [`RequestBytes`] alias per entry.
#[derive(Debug)]
pub struct ByteLruCache {
    budget: usize,
    bytes: usize,
    entries: HashMap<SessionKey, Entry>,
    /// Recency order by tick, least-recently-used first.
    order: BTreeMap<u64, SessionKey>,
    next_tick: u64,
    /// Byte alias → the key of the entry holding it.
    aliases: HashMap<Arc<RequestBytes>, SessionKey>,
    evictions: u64,
}

impl ByteLruCache {
    /// An empty cache holding at most `budget` bytes of entries.
    pub fn new(budget: usize) -> ByteLruCache {
        ByteLruCache {
            budget,
            bytes: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
            aliases: HashMap::new(),
            evictions: 0,
        }
    }

    /// Looks `key` up, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &SessionKey) -> Option<Arc<CachedBody>> {
        let entry = self.entries.get_mut(key)?;
        let slot = self
            .order
            .remove(&entry.tick)
            .expect("every entry has a slot");
        entry.tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(entry.tick, slot);
        Some(Arc::clone(&entry.body))
    }

    /// Looks up the entry whose alias equals `bytes` exactly, marking it
    /// most-recently-used on a hit.
    pub fn probe(&mut self, bytes: &RequestBytes) -> Option<Arc<CachedBody>> {
        let key = self.aliases.get(bytes)?.clone();
        self.get(&key)
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until the cache fits its budget again.
    pub fn insert(&mut self, key: SessionKey, body: Arc<CachedBody>) {
        self.insert_aliased(key, body, None);
    }

    /// [`ByteLruCache::insert`], with `alias` as the entry's byte alias
    /// (charged to the entry).
    pub fn insert_aliased(
        &mut self,
        key: SessionKey,
        body: Arc<CachedBody>,
        alias: Option<RequestBytes>,
    ) {
        self.remove(&key);
        let cost = key.overhead() + body.body.len() + alias.as_ref().map_or(0, RequestBytes::cost);
        let alias = alias.map(|bytes| {
            // Equal bytes mean an equal key, whose entry was just
            // removed, so no other entry holds this alias.
            let bytes = Arc::new(bytes);
            self.aliases.insert(Arc::clone(&bytes), key.clone());
            bytes
        });
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, key.clone());
        self.entries.insert(
            key,
            Entry {
                body,
                tick,
                alias,
                cost,
            },
        );
        self.bytes += cost;
        while self.bytes > self.budget {
            let Some(victim) = self.order.values().next().cloned() else {
                break;
            };
            self.remove(&victim);
            self.evictions += 1;
        }
    }

    fn remove(&mut self, key: &SessionKey) {
        if let Some(entry) = self.entries.remove(key) {
            self.bytes -= entry.cost;
            self.order.remove(&entry.tick);
            if let Some(alias) = entry.alias {
                self.aliases.remove(&alias);
            }
        }
    }

    /// Drops every entry (the `evict` method with no procedure filter);
    /// returns `(entries_dropped, bytes_freed)`.
    pub fn clear(&mut self) -> (usize, usize) {
        let dropped = (self.entries.len(), self.bytes);
        self.entries.clear();
        self.order.clear();
        self.aliases.clear();
        self.bytes = 0;
        dropped
    }

    /// Drops every entry for `proc`, aliases included; returns
    /// `(entries_dropped, bytes_freed)`.
    pub fn clear_proc(&mut self, proc_name: &str) -> (usize, usize) {
        let victims: Vec<SessionKey> = self
            .entries
            .keys()
            .filter(|k| k.proc == proc_name)
            .cloned()
            .collect();
        let before = self.bytes;
        for key in &victims {
            self.remove(key);
        }
        (victims.len(), before - self.bytes)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current byte footprint (bodies, per-entry overhead and held
    /// request bytes).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Entries evicted by budget pressure since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(proc_name: &str, fp: u64) -> SessionKey {
        SessionKey {
            method: "analyze",
            proc: proc_name.to_string(),
            fingerprints: vec![fp, fp + 1],
            solver_key: 7,
        }
    }

    fn body(len: usize) -> Arc<CachedBody> {
        Arc::new(CachedBody {
            body: "x".repeat(len),
            pipeline_solver_calls: 0,
        })
    }

    #[test]
    fn eviction_honors_the_byte_budget() {
        let mut cache = ByteLruCache::new(1000);
        // Each entry costs ~100 body + ~78 overhead.
        for i in 0..10 {
            cache.insert(key(&format!("p{i}"), i), body(100));
            assert!(
                cache.bytes() <= cache.budget(),
                "cache at {} bytes exceeds budget {} after insert {i}",
                cache.bytes(),
                cache.budget()
            );
        }
        assert!(cache.evictions() > 0, "budget pressure must have evicted");
        assert!(cache.len() < 10);
    }

    #[test]
    fn lru_order_evicts_the_coldest_entry() {
        // Room for exactly two of these entries.
        let mut cache = ByteLruCache::new(400);
        cache.insert(key("a", 1), body(100));
        cache.insert(key("b", 2), body(100));
        // Touch `a`, making `b` the LRU victim.
        assert!(cache.get(&key("a", 1)).is_some());
        cache.insert(key("c", 3), body(100));
        assert!(cache.get(&key("a", 1)).is_some(), "recently used survives");
        assert!(cache.get(&key("b", 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key("c", 3)).is_some());
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_not_retained() {
        let mut cache = ByteLruCache::new(100);
        cache.insert(key("big", 1), body(500));
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn replacing_an_entry_reuses_its_budget() {
        let mut cache = ByteLruCache::new(1000);
        cache.insert(key("a", 1), body(100));
        let before = cache.bytes();
        cache.insert(key("a", 1), body(100));
        assert_eq!(cache.bytes(), before, "replacement does not leak bytes");
        assert_eq!(cache.len(), 1);
    }

    fn bytes_of(proc_name: &str, source: &str) -> RequestBytes {
        RequestBytes {
            method: "analyze",
            proc: proc_name.to_string(),
            sources: vec![source.to_string(), format!("{source} ")],
            solver_key: 7,
        }
    }

    #[test]
    fn a_byte_alias_hits_only_on_exact_bytes_and_is_charged() {
        let mut cache = ByteLruCache::new(10_000);
        cache.insert(key("a", 1), body(100));
        let plain = cache.bytes();
        cache.insert_aliased(key("a", 1), body(100), Some(bytes_of("a", "src")));
        let alias = bytes_of("a", "src");
        assert_eq!(
            cache.bytes(),
            plain + alias.cost(),
            "alias bytes are charged"
        );
        assert!(cache.probe(&alias).is_some());
        assert!(cache.probe(&bytes_of("a", "src ")).is_none());
        let other_key = RequestBytes {
            solver_key: 8,
            ..bytes_of("a", "src")
        };
        assert!(cache.probe(&other_key).is_none());
        // A replacement without an alias drops the old one.
        cache.insert(key("a", 1), body(100));
        assert!(cache.probe(&alias).is_none());
        assert_eq!(cache.bytes(), plain);
    }

    #[test]
    fn aliases_leave_with_their_entries() {
        // Room for two aliased entries.
        let mut cache = ByteLruCache::new(500);
        cache.insert_aliased(key("a", 1), body(100), Some(bytes_of("a", "1")));
        cache.insert_aliased(key("b", 2), body(100), Some(bytes_of("b", "2")));
        // A probe hit touches recency like `get`: `b` is now the victim.
        assert!(cache.probe(&bytes_of("a", "1")).is_some());
        cache.insert_aliased(key("c", 3), body(100), Some(bytes_of("c", "3")));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.aliases.len(), 2, "the victim's alias went too");
        assert!(cache.probe(&bytes_of("b", "2")).is_none(), "evicted");
        assert!(cache.probe(&bytes_of("a", "1")).is_some());
        cache.clear_proc("a");
        assert!(
            cache.probe(&bytes_of("a", "1")).is_none(),
            "cleared by proc"
        );
        assert_eq!(cache.aliases.len(), 1);
        assert!(cache.probe(&bytes_of("c", "3")).is_some());
        cache.clear();
        assert!(cache.probe(&bytes_of("c", "3")).is_none(), "cleared");
        assert!(cache.aliases.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn clear_proc_only_touches_that_procedure() {
        let mut cache = ByteLruCache::new(10_000);
        cache.insert(key("a", 1), body(100));
        cache.insert(key("a", 9), body(100));
        cache.insert(key("b", 2), body(100));
        let (dropped, freed) = cache.clear_proc("a");
        assert_eq!(dropped, 2);
        assert!(freed > 200);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("b", 2)).is_some());
        let (dropped, _) = cache.clear();
        assert_eq!(dropped, 1);
        assert!(cache.is_empty());
    }
}
