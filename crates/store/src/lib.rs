//! # dise-store — the persistent cross-version analysis store
//!
//! DiSE's promise is that analyzing program version *N* costs only what
//! changed since *N−1* — but every piece of incrementality built so far
//! (the hash-consed interner, the prefix-trie verdict cache) lived in
//! process memory and died with the run. This crate persists that warm state on disk, one file per
//! analyzed procedure, so a later `dise run` — same version re-analyzed,
//! or the *next* version of the program — starts with every previously
//! decided path-condition prefix already memoized.
//!
//! A store directory holds one [`ProcEntry`] per procedure:
//!
//! * the solver's [`TrieSnapshot`] — interner terms plus per-prefix
//!   verdict/model/bounds, keyed by canonical term indices so they
//!   survive re-interning in another process (see
//!   [`dise_solver::snapshot`]);
//! * the content fingerprints of the analyzed `(base, modified)` program
//!   pair plus the raw affected node sets, so a re-run of the *same* pair
//!   can skip the affected-location fixpoint entirely;
//! * bookkeeping (run count, path-condition count, summary digest) for
//!   `dise store stat`.
//!
//! ## Integrity and determinism contract
//!
//! Files are framed with a magic, format version, payload length, and an
//! FNV-1a checksum ([`format`](mod@format)); loads verify all four
//! before decoding,
//! and decoded snapshots are structurally validated again at import time.
//! Any failure is reported as a typed [`StoreError`] and treated by
//! callers as "no warm state": a damaged store degrades speed, never
//! results. Warm-started runs are byte-identical to cold runs because
//! every restored verdict is a deterministic function of its literal
//! path (the [determinism
//! contract](dise_solver::snapshot#determinism-contract)), gated on the solver
//! configuration via [`dise_solver::SolverConfig::cache_key`].

pub mod error;
pub mod format;

use std::path::{Path, PathBuf};

use dise_solver::model::{Model, Value};
use dise_solver::snapshot::{SummaryPathSnapshot, SummarySnapshot, TrieEntry, TrieSnapshot};
use dise_solver::sym::{BinOp, SymExpr, SymTy, SymVar, UnOp};
use dise_solver::{Bounds, Interval, SatResult, TermId};

pub use error::StoreError;
pub use format::FORMAT_VERSION;

use dise_solver::intern::Term;
use format::{Reader, Writer};

/// The persisted affected-location result for one `(base, modified)`
/// fingerprint pair: raw CFG node indices, reconstructed into
/// `AffectedSets` by `dise-core` when the fingerprints still match.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoredAffected {
    /// Opaque tag of the data-flow precision mode the sets were computed
    /// under (`dise-core`'s `DataflowPrecision`); reuse requires an exact
    /// match — the `--reaching-defs` ablation produces strictly smaller
    /// sets than the paper's `CfgPath` premise.
    pub precision: u8,
    /// Changed CFG nodes of the diff (Table 2's "Changed" column).
    pub changed_nodes: u64,
    /// Affected conditional nodes (`ACN`), as CFG node indices.
    pub acn: Vec<u32>,
    /// Affected write nodes (`AWN`), as CFG node indices.
    pub awn: Vec<u32>,
}

/// Everything the store knows about one analyzed procedure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcEntry {
    /// The analyzed procedure's name (also the file key).
    pub proc_name: String,
    /// [`dise_solver::SolverConfig::cache_key`] of the producing run;
    /// trie reuse requires an exact match (budgets flip `Unknown`s).
    pub solver_key: u64,
    /// Content fingerprint of the base program version.
    pub base_fingerprint: u64,
    /// Content fingerprint of the modified program version.
    pub mod_fingerprint: u64,
    /// Completed runs recorded into this entry.
    pub runs: u64,
    /// Path conditions of the last recorded run.
    pub pc_count: u64,
    /// Digest of the last run's summary (CI byte-identity checks).
    pub summary_digest: u64,
    /// Affected sets of the `(base, modified)` fingerprint pair.
    pub affected: Option<StoredAffected>,
    /// The solver's warm state.
    pub trie: TrieSnapshot,
    /// Procedure summaries built while analyzing this procedure, one per
    /// summarized callee, each keyed by the callee's flattened-body
    /// fingerprint (`SummarySnapshot::fingerprint`). A loaded summary is
    /// reused only when that fingerprint — and the summary's
    /// `solver_key` — still match the current run.
    pub summaries: Vec<SummarySnapshot>,
}

impl ProcEntry {
    /// The kinds of warm state this entry carries, as a `+`-joined list
    /// (`trie`, `summary`, `affected`), or
    /// `empty`. Printed by `dise store stat`.
    pub fn kinds(&self) -> String {
        let mut kinds = Vec::new();
        if !self.trie.entries.is_empty() {
            kinds.push("trie");
        }
        if !self.summaries.is_empty() {
            kinds.push("summary");
        }
        if self.affected.is_some() {
            kinds.push("affected");
        }
        if kinds.is_empty() {
            "empty".to_string()
        } else {
            kinds.join("+")
        }
    }
}

/// File name of the advisory writer lock inside a store directory.
const LOCK_FILE: &str = "store.lock";

/// How many times [`Store::save`] retries a contended advisory lock
/// before degrading, and how long it sleeps between attempts. The
/// window (~400 ms) comfortably covers another process's save — saves
/// are one buffered write plus a rename — without stalling a
/// degraded run noticeably.
const LOCK_ATTEMPTS: u32 = 50;
const LOCK_RETRY: std::time::Duration = std::time::Duration::from_millis(8);

/// A held advisory writer lock on a store directory; dropping it
/// releases the lock (removes the lock file).
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the process named in a lock file is still alive. On Linux
/// `/proc/<pid>` is authoritative; elsewhere a lock older than five
/// minutes is presumed abandoned (saves hold it for milliseconds).
fn lock_is_stale(path: &Path) -> bool {
    let holder = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok());
    if let Some(pid) = holder {
        if Path::new("/proc").is_dir() {
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(modified) => matches!(modified.elapsed(), Ok(age) if age.as_secs() > 300),
        Err(_) => true,
    }
}

/// The pid recorded in a lock file, for diagnostics (0 if unreadable).
fn lock_holder(path: &Path) -> u32 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .unwrap_or(0)
}

/// One store directory. Opening never touches the filesystem; the
/// directory is created on the first [`Store::save`].
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// A handle on `dir` (which need not exist yet).
    pub fn open(dir: impl Into<PathBuf>) -> Store {
        Store { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The advisory writer-lock path for this store.
    pub fn lock_path(&self) -> PathBuf {
        self.dir.join(LOCK_FILE)
    }

    /// Tries once to take the advisory writer lock. `Ok(None)` means
    /// another live process holds it. A lock left behind by a dead
    /// process is reclaimed transparently.
    pub fn try_lock(&self) -> Result<Option<StoreLock>, StoreError> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.dir)?;
        let path = self.lock_path();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(Some(StoreLock { path }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        // Reclaim and retry the create; a racing
                        // reclaimer simply loses the next create_new.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return Ok(None);
                }
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
    }

    /// Takes the advisory writer lock, retrying a contended one for
    /// ~400 ms before giving up with [`StoreError::Locked`].
    fn acquire_lock(&self) -> Result<StoreLock, StoreError> {
        for attempt in 0..LOCK_ATTEMPTS {
            if let Some(lock) = self.try_lock()? {
                return Ok(lock);
            }
            if attempt + 1 < LOCK_ATTEMPTS {
                std::thread::sleep(LOCK_RETRY);
            }
        }
        Err(StoreError::Locked(lock_holder(&self.lock_path())))
    }

    /// The entry file name for `proc_name` (without its shard
    /// directory).
    fn entry_file(proc_name: &str) -> String {
        let sanitized: String = proc_name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!(
            "{sanitized}-{:016x}.dise",
            format::fnv1a(proc_name.as_bytes())
        )
    }

    /// The shard subdirectory for `proc_name`: two hex digits of the
    /// name hash, so concurrent savers of different procedures touch
    /// different directories and listings stay cheap at corpus scale.
    fn shard(proc_name: &str) -> String {
        format!("{:02x}", format::fnv1a(proc_name.as_bytes()) & 0xff)
    }

    /// The file path for `proc_name`'s entry (sharded layout).
    pub fn entry_path(&self, proc_name: &str) -> PathBuf {
        self.dir
            .join(Self::shard(proc_name))
            .join(Self::entry_file(proc_name))
    }

    /// The pre-sharding flat path for `proc_name`'s entry; still read
    /// (and cleaned up on save) so stores written by older builds warm
    /// newer ones.
    fn legacy_entry_path(&self, proc_name: &str) -> PathBuf {
        self.dir.join(Self::entry_file(proc_name))
    }

    /// Loads an entry with the pipeline's degradation contract applied:
    /// every [`Store::load`] failure becomes `(None, Some(one-line
    /// warning))` instead of an error, because a damaged store must never
    /// change — or block — analysis results. The caller runs cold and
    /// reports the warning.
    pub fn load_warm(&self, proc_name: &str) -> (Option<ProcEntry>, Option<String>) {
        match self.load(proc_name) {
            Ok(entry) => (entry, None),
            Err(e) => (None, Some(format!("analysis store: {e}; running cold"))),
        }
    }

    /// Loads the entry for `proc_name`. `Ok(None)` when no entry exists;
    /// every integrity failure is a typed error the caller downgrades to
    /// a cold run.
    pub fn load(&self, proc_name: &str) -> Result<Option<ProcEntry>, StoreError> {
        let mut bytes = None;
        for path in [
            self.entry_path(proc_name),
            self.legacy_entry_path(proc_name),
        ] {
            match std::fs::read(&path) {
                Ok(b) => {
                    bytes = Some(b);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
        let Some(bytes) = bytes else { return Ok(None) };
        let entry = decode_entry(format::unframe(&bytes)?)?;
        if entry.proc_name != proc_name {
            return Err(StoreError::Corrupt("entry names a different procedure"));
        }
        Ok(Some(entry))
    }

    /// Persists `entry`, creating the directory (and its shard) if
    /// needed. Writes go through a process-unique temporary file and a
    /// rename, so a crash mid-save leaves a complete entry in place,
    /// never a torn file; the whole write additionally holds the
    /// store's advisory lock, so two *processes* (say, a resident
    /// `dise serve` and a one-shot CLI run sharing `--store`) can
    /// never interleave their saves. A lock still contended after
    /// ~400 ms fails with [`StoreError::Locked`], which callers treat
    /// as a read-only run — warm start intact, nothing recorded.
    pub fn save(&self, entry: &ProcEntry) -> Result<(), StoreError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;
        static SAVES: AtomicU64 = AtomicU64::new(0);
        // Saves within one process (serve worker threads finalizing
        // concurrently) serialize here; the file lock below only ever
        // mediates between processes, whose liveness it can check.
        static SAVE_GUARD: Mutex<()> = Mutex::new(());
        let _process_guard = SAVE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let _lock = self.acquire_lock()?;
        let path = self.entry_path(&entry.proc_name);
        std::fs::create_dir_all(path.parent().expect("entry path has a shard dir"))?;
        let bytes = format::frame(&encode_entry(entry));
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        // A successful sharded save supersedes any flat-layout entry a
        // pre-sharding build left behind (load prefers the shard).
        let legacy = self.legacy_entry_path(&entry.proc_name);
        if legacy.exists() {
            let _ = std::fs::remove_file(&legacy);
        }
        Ok(())
    }

    /// Every `.dise` entry file under the store — shard subdirectories
    /// plus any flat legacy files — as paths relative to the store
    /// directory. An absent directory is an empty store.
    fn entry_files(&self) -> Result<Vec<String>, StoreError> {
        let mut out = Vec::new();
        let dir = match std::fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let mut push = |path: &Path, prefix: &str| {
            if path.extension().and_then(|e| e.to_str()) != Some("dise") {
                return;
            }
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("<non-utf8>");
            out.push(format!("{prefix}{name}"));
        };
        for item in dir {
            let path = item?.path();
            if path.is_dir() {
                let shard = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("<non-utf8>")
                    .to_string();
                for item in std::fs::read_dir(&path)? {
                    push(&item?.path(), &format!("{shard}/"));
                }
            } else {
                push(&path, "");
            }
        }
        out.sort();
        Ok(out)
    }

    /// Every entry in the directory, with per-file decode outcomes so
    /// `dise store stat` can flag damage without hiding healthy entries.
    /// Names are paths relative to the store directory (`a3/f-….dise`).
    /// An absent directory is an empty store.
    #[allow(clippy::type_complexity)]
    pub fn entries(&self) -> Result<Vec<(String, Result<ProcEntry, StoreError>)>, StoreError> {
        let mut out = Vec::new();
        for name in self.entry_files()? {
            let outcome = std::fs::read(self.dir.join(&name))
                .map_err(StoreError::Io)
                .and_then(|bytes| format::unframe(&bytes).and_then(decode_entry));
            out.push((name, outcome));
        }
        Ok(out)
    }

    /// Deletes every entry file; returns how many were removed. An
    /// absent directory counts as already clear. The advisory lock
    /// file, if present, is left alone.
    pub fn clear(&self) -> Result<usize, StoreError> {
        let mut removed = 0;
        for name in self.entry_files()? {
            std::fs::remove_file(self.dir.join(&name))?;
            removed += 1;
        }
        Ok(removed)
    }
}

fn encode_entry(entry: &ProcEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&entry.proc_name);
    w.u64(entry.solver_key);
    w.u64(entry.base_fingerprint);
    w.u64(entry.mod_fingerprint);
    w.u64(entry.runs);
    w.u64(entry.pc_count);
    w.u64(entry.summary_digest);
    match &entry.affected {
        None => w.u8(0),
        Some(affected) => {
            w.u8(1);
            w.u8(affected.precision);
            w.u64(affected.changed_nodes);
            w.u32(affected.acn.len() as u32);
            for &node in &affected.acn {
                w.u32(node);
            }
            w.u32(affected.awn.len() as u32);
            for &node in &affected.awn {
                w.u32(node);
            }
        }
    }
    w.u32(entry.trie.terms.len() as u32);
    for term in &entry.trie.terms {
        encode_term(&mut w, term);
    }
    w.u32(entry.trie.entries.len() as u32);
    for edge in &entry.trie.entries {
        encode_edge(&mut w, edge);
    }
    w.u32(entry.summaries.len() as u32);
    for summary in &entry.summaries {
        encode_summary(&mut w, summary);
    }
    w.finish()
}

fn decode_entry(payload: &[u8]) -> Result<ProcEntry, StoreError> {
    let mut r = Reader::new(payload);
    let proc_name = r.str()?;
    let solver_key = r.u64()?;
    let base_fingerprint = r.u64()?;
    let mod_fingerprint = r.u64()?;
    let runs = r.u64()?;
    let pc_count = r.u64()?;
    let summary_digest = r.u64()?;
    let affected = match r.u8()? {
        0 => None,
        1 => {
            let precision = r.u8()?;
            let changed_nodes = r.u64()?;
            let acn_len = r.u32()?;
            let mut acn = Vec::new();
            for _ in 0..acn_len {
                acn.push(r.u32()?);
            }
            let awn_len = r.u32()?;
            let mut awn = Vec::new();
            for _ in 0..awn_len {
                awn.push(r.u32()?);
            }
            Some(StoredAffected {
                precision,
                changed_nodes,
                acn,
                awn,
            })
        }
        _ => return Err(StoreError::Corrupt("affected tag")),
    };
    let term_count = r.u32()?;
    let mut terms = Vec::new();
    for _ in 0..term_count {
        terms.push(decode_term(&mut r)?);
    }
    let edge_count = r.u32()?;
    let mut entries = Vec::new();
    for _ in 0..edge_count {
        entries.push(decode_edge(&mut r)?);
    }
    let summary_count = r.u32()?;
    let mut summaries = Vec::new();
    for _ in 0..summary_count {
        let summary = decode_summary(&mut r)?;
        if !summary.validate() {
            return Err(StoreError::Corrupt("summary snapshot fails validation"));
        }
        summaries.push(summary);
    }
    if !r.is_at_end() {
        return Err(StoreError::Corrupt("trailing payload bytes"));
    }
    let trie = TrieSnapshot { terms, entries };
    if !trie.validate() {
        return Err(StoreError::Corrupt("trie snapshot fails validation"));
    }
    Ok(ProcEntry {
        proc_name,
        solver_key,
        base_fingerprint,
        mod_fingerprint,
        runs,
        pc_count,
        summary_digest,
        affected,
        trie,
        summaries,
    })
}

fn encode_vars(w: &mut Writer, vars: &[(String, SymVar)]) {
    w.u32(vars.len() as u32);
    for (name, var) in vars {
        w.str(name);
        w.u32(var.id());
        w.str(var.name());
        w.u8(encode_ty(var.ty()));
    }
}

fn decode_vars(r: &mut Reader) -> Result<Vec<(String, SymVar)>, StoreError> {
    let len = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..len {
        let name = r.str()?;
        let id = r.u32()?;
        let var_name = r.str()?;
        let ty = decode_ty(r.u8()?)?;
        out.push((name, SymVar::from_raw(id, var_name, ty)));
    }
    Ok(out)
}

fn encode_model(w: &mut Writer, model: &Model) {
    w.u32(model.len() as u32);
    for (id, value) in model.iter() {
        w.u32(id);
        match value {
            Value::Int(v) => {
                w.u8(0);
                w.i64(v);
            }
            Value::Bool(b) => {
                w.u8(1);
                w.bool(b);
            }
        }
    }
}

fn decode_model(r: &mut Reader) -> Result<Model, StoreError> {
    let len = r.u32()?;
    let mut model = Model::new();
    for _ in 0..len {
        let id = r.u32()?;
        let value = match r.u8()? {
            0 => Value::Int(r.i64()?),
            1 => Value::Bool(r.bool()?),
            _ => return Err(StoreError::Corrupt("value tag")),
        };
        model.set(id, value);
    }
    Ok(model)
}

/// Recursive structural expression encoding — summary guards and effects
/// are free-standing [`SymExpr`] trees, unlike the trie's interned terms.
fn encode_expr(w: &mut Writer, expr: &SymExpr) {
    match expr {
        SymExpr::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        SymExpr::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        SymExpr::Var(var) => {
            w.u8(2);
            w.u32(var.id());
            w.str(var.name());
            w.u8(encode_ty(var.ty()));
        }
        SymExpr::Unary { op, arg } => {
            w.u8(3);
            w.u8(encode_unop(*op));
            encode_expr(w, arg.as_ref());
        }
        SymExpr::Binary { op, lhs, rhs } => {
            w.u8(4);
            w.u8(encode_binop(*op));
            encode_expr(w, lhs.as_ref());
            encode_expr(w, rhs.as_ref());
        }
    }
}

fn decode_expr(r: &mut Reader, depth: u32) -> Result<SymExpr, StoreError> {
    if depth > 10_000 {
        return Err(StoreError::Corrupt("expression nests too deep"));
    }
    Ok(match r.u8()? {
        0 => SymExpr::Int(r.i64()?),
        1 => SymExpr::Bool(r.bool()?),
        2 => {
            let id = r.u32()?;
            let name = r.str()?;
            let ty = decode_ty(r.u8()?)?;
            SymExpr::Var(SymVar::from_raw(id, name, ty))
        }
        3 => {
            let op = decode_unop(r.u8()?)?;
            let arg = decode_expr(r, depth + 1)?;
            SymExpr::Unary {
                op,
                arg: std::sync::Arc::new(arg),
            }
        }
        4 => {
            let op = decode_binop(r.u8()?)?;
            let lhs = decode_expr(r, depth + 1)?;
            let rhs = decode_expr(r, depth + 1)?;
            SymExpr::Binary {
                op,
                lhs: std::sync::Arc::new(lhs),
                rhs: std::sync::Arc::new(rhs),
            }
        }
        _ => return Err(StoreError::Corrupt("expression tag")),
    })
}

fn encode_summary(w: &mut Writer, summary: &SummarySnapshot) {
    w.str(&summary.proc_name);
    w.u64(summary.fingerprint);
    w.u64(summary.solver_key);
    encode_vars(w, &summary.formals);
    encode_vars(w, &summary.globals);
    w.u32(summary.paths.len() as u32);
    for path in &summary.paths {
        w.u32(path.guards.len() as u32);
        for guard in &path.guards {
            encode_expr(w, guard);
        }
        match &path.error {
            None => w.u8(0),
            Some(message) => {
                w.u8(1);
                w.str(message);
            }
        }
        w.u32(path.effects.len() as u32);
        for (name, effect) in &path.effects {
            w.str(name);
            encode_expr(w, effect);
        }
        match &path.witness {
            None => w.u8(0),
            Some(model) => {
                w.u8(1);
                encode_model(w, model);
            }
        }
    }
}

fn decode_summary(r: &mut Reader) -> Result<SummarySnapshot, StoreError> {
    let proc_name = r.str()?;
    let fingerprint = r.u64()?;
    let solver_key = r.u64()?;
    let formals = decode_vars(r)?;
    let globals = decode_vars(r)?;
    let path_count = r.u32()?;
    let mut paths = Vec::new();
    for _ in 0..path_count {
        let guard_count = r.u32()?;
        let mut guards = Vec::new();
        for _ in 0..guard_count {
            guards.push(decode_expr(r, 0)?);
        }
        let error = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            _ => return Err(StoreError::Corrupt("summary error tag")),
        };
        let effect_count = r.u32()?;
        let mut effects = Vec::new();
        for _ in 0..effect_count {
            let name = r.str()?;
            effects.push((name, decode_expr(r, 0)?));
        }
        let witness = match r.u8()? {
            0 => None,
            1 => Some(decode_model(r)?),
            _ => return Err(StoreError::Corrupt("summary witness tag")),
        };
        paths.push(SummaryPathSnapshot {
            guards,
            error,
            effects,
            witness,
        });
    }
    Ok(SummarySnapshot {
        proc_name,
        fingerprint,
        solver_key,
        formals,
        globals,
        paths,
    })
}

fn encode_term(w: &mut Writer, term: &Term) {
    match term {
        Term::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Term::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Term::Var { id, ty } => {
            w.u8(2);
            w.u32(*id);
            w.u8(encode_ty(*ty));
        }
        Term::Unary { op, arg } => {
            w.u8(3);
            w.u8(encode_unop(*op));
            w.u32(arg.index() as u32);
        }
        Term::Binary { op, lhs, rhs } => {
            w.u8(4);
            w.u8(encode_binop(*op));
            w.u32(lhs.index() as u32);
            w.u32(rhs.index() as u32);
        }
    }
}

fn decode_term(r: &mut Reader) -> Result<Term, StoreError> {
    Ok(match r.u8()? {
        0 => Term::Int(r.i64()?),
        1 => Term::Bool(r.bool()?),
        2 => Term::Var {
            id: r.u32()?,
            ty: decode_ty(r.u8()?)?,
        },
        3 => Term::Unary {
            op: decode_unop(r.u8()?)?,
            arg: TermId::from_index(r.u32()? as usize),
        },
        4 => Term::Binary {
            op: decode_binop(r.u8()?)?,
            lhs: TermId::from_index(r.u32()? as usize),
            rhs: TermId::from_index(r.u32()? as usize),
        },
        _ => return Err(StoreError::Corrupt("term tag")),
    })
}

fn encode_edge(w: &mut Writer, edge: &TrieEntry) {
    w.u32(edge.parent);
    w.u32(edge.term);
    w.u8(match edge.verdict {
        None => 0,
        Some(SatResult::Sat) => 1,
        Some(SatResult::Unsat) => 2,
        Some(SatResult::Unknown) => 3,
    });
    match &edge.model {
        None => w.u8(0),
        Some(model) => {
            w.u8(1);
            w.u32(model.len() as u32);
            for (id, value) in model.iter() {
                w.u32(id);
                match value {
                    Value::Int(v) => {
                        w.u8(0);
                        w.i64(v);
                    }
                    Value::Bool(b) => {
                        w.u8(1);
                        w.bool(b);
                    }
                }
            }
        }
    }
    match &edge.bounds {
        None => w.u8(0),
        Some(bounds) => {
            w.u8(1);
            w.u32(bounds.len() as u32);
            for (&id, interval) in bounds {
                w.u32(id);
                w.opt_i64(interval.lo);
                w.opt_i64(interval.hi);
            }
        }
    }
}

fn decode_edge(r: &mut Reader) -> Result<TrieEntry, StoreError> {
    let parent = r.u32()?;
    let term = r.u32()?;
    let verdict = match r.u8()? {
        0 => None,
        1 => Some(SatResult::Sat),
        2 => Some(SatResult::Unsat),
        3 => Some(SatResult::Unknown),
        _ => return Err(StoreError::Corrupt("verdict tag")),
    };
    let model = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()?;
            let mut model = Model::new();
            for _ in 0..len {
                let id = r.u32()?;
                let value = match r.u8()? {
                    0 => Value::Int(r.i64()?),
                    1 => Value::Bool(r.bool()?),
                    _ => return Err(StoreError::Corrupt("value tag")),
                };
                model.set(id, value);
            }
            Some(model)
        }
        _ => return Err(StoreError::Corrupt("model tag")),
    };
    let bounds = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()?;
            let mut bounds = Bounds::new();
            for _ in 0..len {
                let id = r.u32()?;
                let lo = r.opt_i64()?;
                let hi = r.opt_i64()?;
                bounds.insert(id, Interval { lo, hi });
            }
            Some(bounds)
        }
        _ => return Err(StoreError::Corrupt("bounds tag")),
    };
    Ok(TrieEntry {
        parent,
        term,
        verdict,
        model,
        bounds,
    })
}

fn encode_ty(ty: SymTy) -> u8 {
    match ty {
        SymTy::Int => 0,
        SymTy::Bool => 1,
    }
}

fn decode_ty(tag: u8) -> Result<SymTy, StoreError> {
    match tag {
        0 => Ok(SymTy::Int),
        1 => Ok(SymTy::Bool),
        _ => Err(StoreError::Corrupt("type tag")),
    }
}

fn encode_unop(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    }
}

fn decode_unop(tag: u8) -> Result<UnOp, StoreError> {
    match tag {
        0 => Ok(UnOp::Neg),
        1 => Ok(UnOp::Not),
        _ => Err(StoreError::Corrupt("unary operator tag")),
    }
}

fn encode_binop(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn decode_binop(tag: u8) -> Result<BinOp, StoreError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        _ => return Err(StoreError::Corrupt("binary operator tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_solver::{IncrementalSolver, SymExpr, VarPool};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store() -> (Store, PathBuf) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dise-store-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        (Store::open(&dir), dir)
    }

    fn sample_entry() -> ProcEntry {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let mut solver = IncrementalSolver::new();
        solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
        solver.check();
        solver.push(SymExpr::lt(SymExpr::var(&y), SymExpr::var(&x)));
        solver.check();
        solver.pop();
        solver.push(SymExpr::not(SymExpr::gt(SymExpr::var(&x), SymExpr::int(3))));
        solver.check();
        solver.reset();
        ProcEntry {
            proc_name: "update".into(),
            solver_key: 0x1234,
            base_fingerprint: 11,
            mod_fingerprint: 22,
            runs: 3,
            pc_count: 7,
            summary_digest: 0xfeed,
            affected: Some(StoredAffected {
                precision: 1,
                changed_nodes: 1,
                acn: vec![2, 5],
                awn: vec![3],
            }),
            trie: solver.export_trie(),
            summaries: Vec::new(),
        }
    }

    #[test]
    fn save_load_roundtrips() {
        let (store, dir) = temp_store();
        let entry = sample_entry();
        assert!(store.load("update").unwrap().is_none());
        store.save(&entry).unwrap();
        let loaded = store.load("update").unwrap().expect("entry exists");
        assert_eq!(loaded, entry);
        // The snapshot actually warm-starts a solver.
        let mut solver = IncrementalSolver::new();
        assert!(solver.import_trie(&loaded.trie) >= 3);
        std::fs::remove_dir_all(dir).ok();
    }

    fn sample_summary() -> SummarySnapshot {
        let mut pool = VarPool::new();
        let amount = pool.fresh("Amount", SymTy::Int);
        let total = pool.fresh("Total", SymTy::Int);
        let guard = SymExpr::gt(SymExpr::var(&amount), SymExpr::int(10));
        let mut witness = Model::new();
        witness.set(amount.id(), Value::Int(11));
        SummarySnapshot {
            proc_name: "clamp".into(),
            fingerprint: 0xabcd,
            solver_key: 0x1234,
            formals: vec![("amount".into(), amount)],
            globals: vec![("total".into(), total.clone())],
            paths: vec![SummaryPathSnapshot {
                guards: vec![guard],
                error: Some("assertion failed: amount >= 0".into()),
                effects: vec![(
                    "total".into(),
                    SymExpr::add(SymExpr::var(&total), SymExpr::int(10)),
                )],
                witness: Some(witness),
            }],
        }
    }

    #[test]
    fn summaries_roundtrip_with_the_entry() {
        let (store, dir) = temp_store();
        let mut entry = sample_entry();
        entry.summaries = vec![sample_summary()];
        store.save(&entry).unwrap();
        let loaded = store.load("update").unwrap().expect("entry exists");
        assert_eq!(loaded, entry);
        assert_eq!(loaded.summaries[0].paths[0].guards.len(), 1);
        assert_eq!(
            loaded.kinds(),
            "trie+summary+affected",
            "stat kinds reflect the stored payloads"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn invalid_summary_snapshots_are_corruption() {
        let (store, dir) = temp_store();
        let mut entry = sample_entry();
        let mut summary = sample_summary();
        // A guard over a variable that is neither a formal nor a global
        // fails SummarySnapshot::validate on load.
        let mut pool = VarPool::new();
        let _ = pool.fresh("Amount", SymTy::Int);
        let _ = pool.fresh("Total", SymTy::Int);
        let stray = pool.fresh("Stray", SymTy::Bool);
        summary.paths[0].guards.push(SymExpr::var(&stray));
        entry.summaries = vec![summary];
        store.save(&entry).unwrap();
        assert!(matches!(store.load("update"), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let (store, dir) = temp_store();
        let entry = sample_entry();
        store.save(&entry).unwrap();
        let path = store.entry_path("update");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.load("update"),
            Err(StoreError::Truncated) | Err(StoreError::ChecksumMismatch)
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn version_skew_is_rejected() {
        // A newer writer's file, and a file of the previous layout (3,
        // which still carried the sweep feedback and heuristic weights):
        // both are typed errors, and the warm path degrades to cold.
        for version in [FORMAT_VERSION + 1, 3] {
            let (store, dir) = temp_store();
            store.save(&sample_entry()).unwrap();
            let path = store.entry_path("update");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                store.load("update"),
                Err(StoreError::UnsupportedVersion(v)) if v == version
            ));
            let (entry, warning) = store.load_warm("update");
            assert!(entry.is_none(), "version {version} must load cold");
            assert_eq!(
                warning.as_deref(),
                Some(
                    format!(
                        "analysis store: unsupported store format version {version}; running cold"
                    )
                    .as_str()
                ),
            );
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let (store, dir) = temp_store();
        store.save(&sample_entry()).unwrap();
        let path = store.entry_path("update");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = format::HEADER_LEN + (bytes.len() - format::HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load("update"),
            Err(StoreError::ChecksumMismatch)
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn entries_and_clear_cover_the_directory() {
        let (store, dir) = temp_store();
        assert!(store.entries().unwrap().is_empty());
        assert_eq!(store.clear().unwrap(), 0);
        let mut entry = sample_entry();
        store.save(&entry).unwrap();
        entry.proc_name = "other".into();
        store.save(&entry).unwrap();
        let listed = store.entries().unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().all(|(_, outcome)| outcome.is_ok()));
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn entry_name_mismatch_is_corruption() {
        let (store, dir) = temp_store();
        let entry = sample_entry();
        store.save(&entry).unwrap();
        // Copy `update`'s file onto the slot another procedure would use.
        let source = store.entry_path("update");
        let target = store.entry_path("elsewhere");
        std::fs::create_dir_all(target.parent().unwrap()).unwrap();
        std::fs::copy(&source, &target).unwrap();
        assert!(matches!(
            store.load("elsewhere"),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn entries_are_sharded_by_name_hash() {
        let (store, dir) = temp_store();
        store.save(&sample_entry()).unwrap();
        let path = store.entry_path("update");
        assert!(path.exists());
        let shard = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
            .expect("entry lives in a shard directory");
        assert_eq!(shard.len(), 2, "shard is two hex digits, got {shard:?}");
        assert!(shard.chars().all(|c| c.is_ascii_hexdigit()));
        let listed = store.entries().unwrap();
        assert_eq!(listed.len(), 1);
        assert!(
            listed[0].0.starts_with(&format!("{shard}/")),
            "listing names are shard-relative paths"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn legacy_flat_entries_load_and_migrate_on_save() {
        let (store, dir) = temp_store();
        let entry = sample_entry();
        // Write the pre-sharding flat layout by hand.
        std::fs::create_dir_all(store.dir()).unwrap();
        let flat = store.legacy_entry_path("update");
        std::fs::write(&flat, format::frame(&encode_entry(&entry))).unwrap();
        assert_eq!(
            store.load("update").unwrap().expect("flat entry loads"),
            entry
        );
        assert_eq!(store.entries().unwrap().len(), 1);
        // A save migrates the entry into its shard and drops the flat file.
        store.save(&entry).unwrap();
        assert!(!flat.exists(), "save removes the superseded flat file");
        assert!(store.entry_path("update").exists());
        assert_eq!(store.entries().unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_held_lock_fails_saves_with_locked() {
        let (store, dir) = temp_store();
        std::fs::create_dir_all(store.dir()).unwrap();
        // A live holder: our own pid (the test thread never releases it).
        std::fs::write(store.lock_path(), format!("{}", std::process::id())).unwrap();
        match store.save(&sample_entry()) {
            Err(StoreError::Locked(pid)) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        // Loads are lock-free: reads see whole files thanks to the
        // tmp+rename protocol and must keep working under a held lock.
        assert!(store.load("update").unwrap().is_none());
        // Releasing the lock makes the next save succeed.
        std::fs::remove_file(store.lock_path()).unwrap();
        store.save(&sample_entry()).unwrap();
        assert!(store.load("update").unwrap().is_some());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stale_locks_are_reclaimed() {
        let (store, dir) = temp_store();
        std::fs::create_dir_all(store.dir()).unwrap();
        // Pid u32::MAX is far beyond any live process on Linux
        // (pid_max caps at 2^22), so the lock reads as abandoned.
        std::fs::write(store.lock_path(), format!("{}", u32::MAX)).unwrap();
        store.save(&sample_entry()).unwrap();
        assert!(store.load("update").unwrap().is_some());
        assert!(
            !store.lock_path().exists(),
            "a completed save releases the lock"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn try_lock_reports_contention_without_blocking() {
        let (store, dir) = temp_store();
        let held = store.try_lock().unwrap().expect("uncontended lock");
        assert!(store.try_lock().unwrap().is_none(), "second taker loses");
        drop(held);
        assert!(
            store.try_lock().unwrap().is_some(),
            "drop releases the lock"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
