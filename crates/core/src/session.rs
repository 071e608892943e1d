//! The staged analysis session — §3.1's pipeline as reusable artifacts.
//!
//! [`run_dise`](crate::dise::run_dise) packages the paper's pipeline as
//! one opaque call: flatten → diff → affected fixpoint → directed
//! exploration. That is the right shape for a single answer, but every
//! downstream consumer — the four evolution applications, the regression
//! selector, the CLI's report paths — needs *several* answers about the
//! *same* version pair, and with only the monolith available each one
//! re-ran the whole pipeline from scratch.
//!
//! [`AnalysisSession`] splits the monolith into explicit stage artifacts:
//!
//! ```text
//! open ──► Flattened ──► Diffed ──► Affected ──► Explored
//!            (programs)   (CFGs+diff)  (ACN/AWN)    (summary)
//! ```
//!
//! Each stage is computed lazily on first request, cached on the session,
//! and borrowable by any number of consumers; the full-exploration
//! summaries of either version (the regression baseline) are additional
//! cached artifacts. Running all four evolution applications against one
//! session therefore performs exactly one flatten, one diff, one affected
//! fixpoint, and one directed exploration.
//!
//! The persistent analysis store participates at the session boundary:
//! [`AnalysisSession::open`] loads the prior entry (warm trie, recorded
//! affected sets) and [`AnalysisSession::finalize`] records the run
//! back. Version *chains* reuse state without the disk round-trip:
//! [`AnalysisSession::advance`] hands the executor's warm trie to the
//! next hop's session via [`dise_symexec::WarmHandoff`].
//!
//! Stage reuse moves solver work around; it never changes results. Every
//! artifact a session hands out is byte-identical to what an independent
//! `run_dise`/`run_full_on` call would compute (pinned by
//! `tests/session_reuse.rs`).

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dise_cfg::{Cfg, NodeId, Reachability};
use dise_diff::{proc_fingerprint, CfgDiff};
use dise_ir::ast::Program;
use dise_ir::inline::{contains_calls, inline_program, InlineError};
use dise_store::{ProcEntry, Store, StoredAffected};
use dise_symexec::{
    ExecConfig, Executor, FullExploration, SummaryTable, SymbolicSummary, WarmHandoff,
};

use crate::affected::{AffectedSets, AffectedTimings, DataflowPrecision};
use crate::directed::DirectedStrategy;
use crate::dise::{DiseConfig, DiseError, DiseResult, StoreStatus};

/// Wall-clock cost of each pipeline stage, measured when the stage first
/// runs (a reused stage costs nothing and keeps its original timing).
/// Reported on [`DiseResult::stages`] and the CLI's `stages:` line so
/// reuse is visible without running the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Inlining both versions into call-free procedures (phase 0).
    pub flatten: Duration,
    /// CFG construction + structural differencing (§3.2 setup).
    pub diff: Duration,
    /// The affected-location fixpoint (§3.2), or ~0 when restored from
    /// the store.
    pub affected: Duration,
    /// The affected stage's sub-stages (all zero when restored from the
    /// store).
    pub affected_parts: AffectedTimings,
    /// Directed symbolic execution (§3.3).
    pub explore: Duration,
    /// The part of [`StageTimings::explore`] spent pushing, deciding and
    /// popping branch literals on the solver (zero unless a tracer is
    /// attached).
    pub explore_solver: Duration,
    /// The part of [`StageTimings::explore`] spent in the directed
    /// strategy's filter (zero unless a tracer is attached). The rest of
    /// the stage is state stepping.
    pub explore_filter: Duration,
}

impl StageTimings {
    /// The static-analysis share: everything before symbolic execution
    /// (the paper's "time spent computing the affected program
    /// locations").
    pub fn analysis(&self) -> Duration {
        self.flatten + self.diff + self.affected
    }

    /// Total across all stages (the paper's §4.2.2 reported time).
    pub fn total(&self) -> Duration {
        self.analysis() + self.explore
    }
}

/// The diff stage's artifacts: both CFGs plus the lifted change map.
#[derive(Debug, Clone)]
pub struct Diffed {
    /// The base version's CFG.
    pub cfg_base: Cfg,
    /// The modified version's CFG (the one the exploration runs on).
    pub cfg_mod: Cfg,
    /// The structural diff lifted onto the CFGs.
    pub diff: CfgDiff,
}

/// The exploration stage's artifacts.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The directed run's symbolic summary (affected path conditions).
    pub summary: SymbolicSummary,
    /// The Table 1 trace, when [`DiseConfig::trace_directed`] was set.
    pub directed_trace: Option<String>,
}

/// Shared borrows of every artifact up to the exploration stage, obtained
/// in one call so consumers can hold them together. See
/// [`AnalysisSession::explored_bundle`].
#[derive(Debug)]
pub struct ExploredBundle<'s> {
    /// The flattened base version.
    pub base: &'s Program,
    /// The flattened modified version.
    pub modified: &'s Program,
    /// The diff stage.
    pub diffed: &'s Diffed,
    /// The affected stage.
    pub affected: &'s AffectedSets,
    /// The directed exploration's summary.
    pub summary: &'s SymbolicSummary,
}

/// A staged DiSE pipeline over one `(base, modified, procedure)` triple.
///
/// See the [module docs](self) for the stage graph. The session owns the
/// flattened programs, the store connection, and every computed artifact;
/// stage accessors take `&mut self` (they may compute) and the artifacts
/// they return borrow from the session.
///
/// # Examples
///
/// ```
/// use dise_core::session::AnalysisSession;
/// use dise_core::dise::DiseConfig;
/// use dise_ir::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = parse_program("proc f(int x) { if (x == 0) { x = 1; } }")?;
/// let new = parse_program("proc f(int x) { if (x <= 0) { x = 1; } }")?;
/// let mut session = AnalysisSession::open(&base, &new, "f", DiseConfig::default())?;
/// // Any number of consumers share one exploration:
/// let pcs = session.explored()?.summary.pc_count();
/// let result = session.result()?; // same artifacts, no recompute
/// assert_eq!(result.summary.pc_count(), pcs);
/// session.finalize();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    proc_name: String,
    config: DiseConfig,
    /// Flattened (call-free) versions — the Flattened stage, computed at
    /// open so every later stage shares it.
    base: Program,
    modified: Program,
    /// The modified version as handed in, calls intact — the program the
    /// summary-mode full exploration runs on (the directed pipeline only
    /// ever sees the flattened versions above).
    raw_modified: Program,
    timings: StageTimings,

    // Persistent-store state, loaded at open, recorded at finalize.
    store: Option<Store>,
    status: Option<StoreStatus>,
    prior: Option<ProcEntry>,
    fingerprints: (u64, u64),
    saved: bool,

    /// In-process warm state handed over from the previous version hop
    /// ([`AnalysisSession::advance`]); supersedes the store's trie (it is
    /// a superset: the previous hop loaded the store before exploring).
    handoff: Option<WarmHandoff>,

    /// Procedure summaries carried over from the previous hop
    /// ([`AnalysisSession::advance`]); invalidated per callee against the
    /// new version's fingerprints before reuse.
    carried_summaries: Option<Arc<SummaryTable>>,

    // Lazily computed stages.
    diffed: Option<Diffed>,
    affected: Option<AffectedSets>,
    /// The modified CFG's reachability closure, built by the affected
    /// stage and consumed by the directed strategy.
    reach: Option<Reachability>,
    explored: Option<Explored>,
    executor: Option<Executor>,
    base_full: Option<SymbolicSummary>,
    modified_full: Option<SymbolicSummary>,
    /// The Summarized stage: the summary table the full exploration of
    /// the modified version used, when it routed through summaries.
    summaries: Option<crate::summaries::PreparedSummaries>,

    /// The session's root trace span — open from `open` until the first
    /// [`AnalysisSession::finalize`] after exploration. `None` when no
    /// tracer is attached (`ExecConfig::tracer`).
    root_span: Option<dise_trace::OpenSpan>,
}

impl AnalysisSession {
    /// Opens a session on the procedure `proc_name` of `base` →
    /// `modified`: flattens both versions (the Flattened stage) and, when
    /// [`DiseConfig::store`] is set, connects the store, loads the prior
    /// entry, and fingerprints the pair. No diffing or execution happens
    /// yet.
    ///
    /// # Errors
    ///
    /// [`DiseError::Inline`] when a version cannot be flattened (the
    /// procedure is missing or inlining exceeds its bound).
    pub fn open(
        base: &Program,
        modified: &Program,
        proc_name: &str,
        config: DiseConfig,
    ) -> Result<AnalysisSession, DiseError> {
        let tracer = config.exec.tracer.clone();
        let root = tracer.as_ref().map(|h| h.begin("session"));
        let flatten_span = match (&tracer, &root) {
            (Some(h), Some(root)) => Some(h.child(root.id()).begin("stage.flatten")),
            _ => None,
        };
        let start = Instant::now();
        let raw_modified = modified.clone();
        let base = flatten(base, proc_name)?.into_owned();
        let modified = flatten(modified, proc_name)?.into_owned();
        let flatten_time = start.elapsed();
        if let (Some(h), Some(span)) = (&tracer, flatten_span) {
            h.end(span);
        }
        Self::open_flat(
            base,
            modified,
            raw_modified,
            proc_name,
            config,
            flatten_time,
            root,
        )
    }

    /// [`AnalysisSession::open`] for already-flattened programs (chain
    /// hops reuse the previous hop's flattened modified version as the
    /// next base without re-inlining). `raw_modified` is the modified
    /// version with calls intact, kept for the summary-mode full
    /// exploration.
    fn open_flat(
        base: Program,
        modified: Program,
        raw_modified: Program,
        proc_name: &str,
        config: DiseConfig,
        flatten_time: Duration,
        root_span: Option<dise_trace::OpenSpan>,
    ) -> Result<AnalysisSession, DiseError> {
        let store = config.store.as_deref().map(Store::open);
        let status = store.as_ref().map(|_| StoreStatus::default());
        let mut session = AnalysisSession {
            proc_name: proc_name.to_string(),
            config,
            base,
            modified,
            raw_modified,
            timings: StageTimings {
                flatten: flatten_time,
                ..StageTimings::default()
            },
            store,
            status,
            prior: None,
            fingerprints: (0, 0),
            saved: false,
            handoff: None,
            carried_summaries: None,
            diffed: None,
            affected: None,
            reach: None,
            explored: None,
            executor: None,
            base_full: None,
            modified_full: None,
            summaries: None,
            root_span,
        };
        if let Some(store) = &session.store {
            // The programs are flattened already, so fingerprinting
            // cannot hit a fresh inline failure.
            session.fingerprints = (
                proc_fingerprint(&session.base, &session.proc_name).map_err(DiseError::Inline)?,
                proc_fingerprint(&session.modified, &session.proc_name)
                    .map_err(DiseError::Inline)?,
            );
            let span = session.begin_span("store.load");
            let (prior, warning) = store.load_warm(&session.proc_name);
            let (prefixes, summaries) = prior
                .as_ref()
                .map(|e| (e.trie.decided() as u64, e.summaries.len() as u64))
                .unwrap_or((0, 0));
            session.end_span(
                span,
                vec![
                    ("trie.prefixes".to_string(), prefixes),
                    ("summaries".to_string(), summaries),
                ],
            );
            session.prior = prior;
            if let Some(warning) = warning {
                session.warn(&warning);
            }
        }
        Ok(session)
    }

    /// Finalizes this session and opens the next hop of a version chain:
    /// `modified` becomes the next base, `next` the next modified, and
    /// the executor's warm trie transfers in process — the next hop's
    /// shared prefixes answer from memory even with no store configured.
    ///
    /// Advancing consumes this session's [`StoreStatus`] along with it;
    /// callers that need the hop's store outcome (the save flag, a
    /// save-failure warning) should call [`AnalysisSession::finalize`]
    /// and inspect its status *before* advancing — finalize is
    /// idempotent, so the internal call here stays a no-op.
    ///
    /// # Errors
    ///
    /// [`DiseError::Inline`] when `next` cannot be flattened.
    pub fn advance(mut self, next: &Program) -> Result<AnalysisSession, DiseError> {
        self.finalize();
        let handoff = self.executor.as_ref().map(Executor::warm_handoff);
        // Procedure summaries survive the hop in process; the next hop
        // invalidates them per callee against the new fingerprints.
        let summaries = self
            .summaries
            .take()
            .map(|p| p.table)
            .or(self.carried_summaries.take());
        let tracer = self.config.exec.tracer.clone();
        let root = tracer.as_ref().map(|h| h.begin("session"));
        let flatten_span = match (&tracer, &root) {
            (Some(h), Some(root)) => Some(h.child(root.id()).begin("stage.flatten")),
            _ => None,
        };
        let start = Instant::now();
        let next_flat = flatten(next, &self.proc_name)?.into_owned();
        let flatten_time = start.elapsed();
        if let (Some(h), Some(span)) = (&tracer, flatten_span) {
            h.end(span);
        }
        let mut session = Self::open_flat(
            self.modified,
            next_flat,
            next.clone(),
            &self.proc_name,
            self.config,
            flatten_time,
            root,
        )?;
        session.handoff = handoff;
        session.carried_summaries = summaries;
        Ok(session)
    }

    /// The analyzed procedure's name.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The session's configuration.
    pub fn config(&self) -> &DiseConfig {
        &self.config
    }

    /// The flattened base version (the Flattened stage).
    pub fn base_flat(&self) -> &Program {
        &self.base
    }

    /// The flattened modified version (the Flattened stage).
    pub fn mod_flat(&self) -> &Program {
        &self.modified
    }

    /// Per-stage wall-clock timings of everything computed so far.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// What the store contributed so far (`None` when no store is
    /// configured). [`StoreStatus::saved`] flips on
    /// [`AnalysisSession::finalize`].
    pub fn store_status(&self) -> Option<&StoreStatus> {
        self.status.as_ref()
    }

    /// Records a degradation warning: appended to the store status (the
    /// CLI prints those on stderr) when one exists, else printed to
    /// stderr directly — a chained hop without a store still surfaces
    /// why it ran cold.
    fn warn(&mut self, message: &str) {
        if let Some(h) = &self.config.exec.tracer {
            h.warning(message);
        }
        match self.status.as_mut() {
            Some(status) => {
                status.warning = Some(match status.warning.take() {
                    Some(prev) => format!("{prev}; {message}"),
                    None => message.to_string(),
                });
            }
            None => eprintln!("warning: {message}"),
        }
    }

    /// Opens a trace span nested under the session's root span; `None`
    /// without a tracer.
    fn begin_span(&self, name: &str) -> Option<dise_trace::OpenSpan> {
        let h = self.config.exec.tracer.as_ref()?;
        Some(match &self.root_span {
            Some(root) => h.child(root.id()).begin(name),
            None => h.begin(name),
        })
    }

    /// Closes a span opened by [`AnalysisSession::begin_span`].
    fn end_span(&self, span: Option<dise_trace::OpenSpan>, counters: Vec<(String, u64)>) {
        if let (Some(h), Some(span)) = (&self.config.exec.tracer, span) {
            h.end_with(span, counters);
        }
    }

    /// The Diffed stage: both CFGs plus the lifted change map, computed
    /// on first call.
    ///
    /// # Errors
    ///
    /// [`DiseError::Diff`] when the differencing fails.
    pub fn diffed(&mut self) -> Result<&Diffed, DiseError> {
        if self.diffed.is_none() {
            let span = self.begin_span("stage.diff");
            let start = Instant::now();
            let (cfg_base, cfg_mod, diff) =
                CfgDiff::from_programs(&self.base, &self.modified, &self.proc_name)?;
            self.timings.diff = start.elapsed();
            self.end_span(
                span,
                vec![(
                    "changed_nodes".to_string(),
                    diff.changed_node_count() as u64,
                )],
            );
            self.diffed = Some(Diffed {
                cfg_base,
                cfg_mod,
                diff,
            });
        }
        Ok(self.diffed.as_ref().expect("just computed"))
    }

    /// The Affected stage: the `ACN`/`AWN` fixpoint over the diff
    /// (§3.2), computed on first call — or restored from the store when
    /// the recorded `(base, modified)` fingerprint pair matches.
    ///
    /// # Errors
    ///
    /// [`DiseError::Diff`] when the prerequisite diff stage fails.
    pub fn affected(&mut self) -> Result<&AffectedSets, DiseError> {
        if self.affected.is_none() {
            self.diffed()?;
            let span = self.begin_span("stage.affected");
            let diffed = self.diffed.as_ref().expect("diff stage ensured");
            let start = Instant::now();
            let mut reused = 0u64;
            let sets = match reusable_affected(
                self.prior.as_ref(),
                self.fingerprints,
                &self.config,
                diffed.cfg_mod.len(),
            ) {
                Some(sets) => {
                    self.status
                        .as_mut()
                        .expect("reuse implies a store")
                        .affected_reused = true;
                    reused = 1;
                    sets
                }
                None => {
                    let trace = self
                        .config
                        .exec
                        .tracer
                        .as_ref()
                        .zip(span.as_ref())
                        .map(|(h, span)| h.child(span.id()));
                    let (sets, reach, parts) = AffectedSets::staged(
                        &diffed.cfg_base,
                        &diffed.cfg_mod,
                        &diffed.diff,
                        self.config.precision,
                        self.config.trace_affected,
                        trace.as_ref(),
                    );
                    self.timings.affected_parts = parts;
                    self.reach = Some(reach);
                    sets
                }
            };
            self.timings.affected = start.elapsed();
            self.end_span(
                span,
                vec![
                    ("affected_nodes".to_string(), sets.len() as u64),
                    ("reused_from_store".to_string(), reused),
                ],
            );
            self.affected = Some(sets);
        }
        Ok(self.affected.as_ref().expect("just computed"))
    }

    /// The Explored stage: directed symbolic execution of the modified
    /// version (§3.3), computed on first call. The executor warm-starts
    /// from the previous hop's [`WarmHandoff`] when one was chained in,
    /// else from the store's trie — both gated on the solver cache key,
    /// and neither ever changes the summary.
    ///
    /// # Errors
    ///
    /// Any [`DiseError`]: prerequisite stages may diff-fail, executor
    /// construction may exec-fail.
    pub fn explored(&mut self) -> Result<&Explored, DiseError> {
        if self.explored.is_none() {
            self.affected()?;
            let span = self.begin_span("stage.explore");
            let start = Instant::now();
            let solver_key = self.config.exec.solver.cache_key();
            let mut executor = Executor::new(
                &self.modified,
                &self.proc_name,
                reparented(&self.config.exec, &span),
            )?;
            let mut restored = None;
            let mut dropped: Option<&str> = None;
            if let Some(handoff) = &self.handoff {
                match executor.warm_start_from(handoff) {
                    Some(imported) => restored = Some(imported),
                    // A handoff produced under a different solver
                    // configuration is discarded — loudly, like every
                    // other degraded-to-cold path.
                    None => {
                        dropped =
                            Some("in-process warm handoff discarded (solver configuration changed)")
                    }
                }
            }
            if restored.is_none() {
                if let Some(entry) = &self.prior {
                    if entry.solver_key == solver_key {
                        restored = Some(executor.warm_start(&entry.trie));
                    } else if dropped.is_none() {
                        dropped = Some(
                            "stored trie discarded (solver configuration changed since it was \
                             recorded)",
                        );
                    }
                }
            }
            if let Some(what) = dropped {
                self.warn(&format!("analysis store: {what}; running cold"));
            }
            if let Some(status) = self.status.as_mut() {
                status.warm_trie_entries = restored.unwrap_or(0);
            }
            let diffed = self.diffed.as_ref().expect("diff stage ensured");
            let affected = self.affected.as_ref().expect("affected stage ensured");
            debug_assert_eq!(
                executor.cfg().len(),
                diffed.cfg_mod.len(),
                "CFG construction must be deterministic"
            );
            // Restored affected sets come without the closure.
            let reach = self
                .reach
                .take()
                .unwrap_or_else(|| Reachability::new(&diffed.cfg_mod));
            let mut strategy = DirectedStrategy::new(
                &diffed.cfg_mod,
                affected,
                &reach,
                self.config.trace_directed,
            );
            let summary = executor.explore(&mut strategy);
            let directed_trace = self.config.trace_directed.then(|| strategy.render_trace());
            self.timings.explore = start.elapsed();
            let s = summary.stats();
            self.timings.explore_solver = s.solver_time;
            self.timings.explore_filter = s.filter_time;
            self.end_span(
                span,
                vec![
                    ("states".to_string(), s.states_explored),
                    ("pc_count".to_string(), summary.pc_count() as u64),
                    ("solver.checks".to_string(), s.solver.checks),
                    (
                        "solver.pipeline_checks".to_string(),
                        s.solver.pipeline_checks(),
                    ),
                    (
                        "solver.cache_hits".to_string(),
                        s.solver.cache_hits + s.solver.prefix_cache_hits,
                    ),
                ],
            );
            self.executor = Some(executor);
            self.explored = Some(Explored {
                summary,
                directed_trace,
            });
        }
        Ok(self.explored.as_ref().expect("just computed"))
    }

    /// Every artifact through the Explored stage as one set of shared
    /// borrows (for the base version's full-exploration baseline, see
    /// [`AnalysisSession::base_full`] and
    /// [`AnalysisSession::regression_inputs`]).
    ///
    /// # Errors
    ///
    /// Whatever the prerequisite stages raise.
    pub fn explored_bundle(&mut self) -> Result<ExploredBundle<'_>, DiseError> {
        self.explored()?;
        Ok(ExploredBundle {
            base: &self.base,
            modified: &self.modified,
            diffed: self.diffed.as_ref().expect("diff stage ensured"),
            affected: self.affected.as_ref().expect("affected stage ensured"),
            summary: &self
                .explored
                .as_ref()
                .expect("explored stage ensured")
                .summary,
        })
    }

    /// Full (undirected) symbolic execution of the *base* version — the
    /// "existing suite" baseline of §5.2, cached like every other stage.
    /// Shares the session's Flattened stage and executor construction
    /// path with the directed run, so full and directed setups cannot
    /// drift.
    ///
    /// # Errors
    ///
    /// [`DiseError::Exec`] when the procedure cannot be executed.
    pub fn base_full(&mut self) -> Result<&SymbolicSummary, DiseError> {
        if self.base_full.is_none() {
            let span = self.begin_span("stage.full_base");
            let summary = full_exploration_flat(
                &self.base,
                &self.proc_name,
                &reparented(&self.config.exec, &span),
            )?;
            self.end_span(span, full_counters(&summary));
            self.base_full = Some(summary);
        }
        Ok(self.base_full.as_ref().expect("just computed"))
    }

    /// Full (undirected) symbolic execution of the *modified* version —
    /// the paper's control technique — cached on the session.
    ///
    /// When the [`SummaryMode`](dise_symexec::SummaryMode) gates allow it
    /// (see `--summaries`), this run routes procedure calls through
    /// interned callee summaries instead of the flattened program:
    /// verdicts (path conditions and outcomes) are byte-identical, the
    /// per-call-site exploration work is not re-paid. Any summarization
    /// failure falls back to the inlining pipeline silently.
    ///
    /// # Errors
    ///
    /// [`DiseError::Exec`] when the procedure cannot be executed.
    pub fn modified_full(&mut self) -> Result<&SymbolicSummary, DiseError> {
        if self.modified_full.is_none() {
            let span = self.begin_span("stage.full_modified");
            let exec = reparented(&self.config.exec, &span);
            let summary = match self.summarized_full(&exec) {
                Some(summary) => summary,
                None => full_exploration_flat(&self.modified, &self.proc_name, &exec)?,
            };
            self.end_span(span, full_counters(&summary));
            self.modified_full = Some(summary);
        }
        Ok(self.modified_full.as_ref().expect("just computed"))
    }

    /// The Summarized stage: full exploration of the raw modified version
    /// with calls dispatched through procedure summaries. `None` — the
    /// caller inlines instead — when the gates refuse or any callee
    /// cannot be summarized.
    fn summarized_full(&mut self, exec: &ExecConfig) -> Option<SymbolicSummary> {
        if !crate::summaries::applicable(&self.raw_modified, &self.proc_name, exec) {
            return None;
        }
        let stored = self
            .prior
            .as_ref()
            .map_or(&[][..], |e| e.summaries.as_slice());
        let prepare_span = exec.tracer.as_ref().map(|h| h.begin("summary.prepare"));
        let prepared = crate::summaries::prepare(
            &self.raw_modified,
            &self.proc_name,
            &reparented(exec, &prepare_span),
            stored,
            self.carried_summaries.as_deref(),
        );
        if let (Some(h), Some(span)) = (&exec.tracer, prepare_span) {
            let counters = match &prepared {
                Some(p) => vec![
                    ("built".to_string(), p.built as u64),
                    (
                        "revived_from_store".to_string(),
                        p.revived_from_store as u64,
                    ),
                    ("reused_in_memory".to_string(), p.reused_in_memory as u64),
                ],
                None => Vec::new(),
            };
            h.end_with(span, counters);
        }
        let prepared = prepared?;
        let summary = crate::summaries::full_with_summaries(
            &self.raw_modified,
            &self.proc_name,
            exec,
            Arc::clone(&prepared.table),
        )?;
        debug_assert_eq!(
            prepared.built + prepared.reused(),
            prepared.table.len(),
            "every callee is either reused or freshly built"
        );
        if let Some(status) = self.status.as_mut() {
            status.summaries_reused = prepared.reused() as u64;
        }
        self.summaries = Some(prepared);
        Some(summary)
    }

    /// The summary table the modified version's full exploration used,
    /// when it routed through procedure summaries — `None` before
    /// [`AnalysisSession::modified_full`] runs or when that run inlined.
    /// Exposed for the benchmark's build-cost accounting.
    pub fn summary_table(&self) -> Option<&Arc<SummaryTable>> {
        self.summaries.as_ref().map(|p| &p.table)
    }

    /// Assembles a [`DiseResult`] from the session's artifacts, computing
    /// any stage that has not run yet. Repeated calls reuse everything —
    /// the returned summaries are clones of one cached exploration.
    ///
    /// # Errors
    ///
    /// Whatever the prerequisite stages raise.
    pub fn result(&mut self) -> Result<DiseResult, DiseError> {
        self.explored()?;
        let diffed = self.diffed.as_ref().expect("diff stage ensured");
        let affected = self.affected.as_ref().expect("affected stage ensured");
        let explored = self.explored.as_ref().expect("explored stage ensured");
        Ok(DiseResult {
            summary: explored.summary.clone(),
            affected: affected.clone(),
            changed_nodes: diffed.diff.changed_node_count(),
            affected_nodes: affected.len(),
            analysis_time: self.timings.analysis(),
            total_time: self.timings.total(),
            directed_trace: explored.directed_trace.clone(),
            stages: self.timings,
            store: self.status.clone(),
        })
    }

    /// [`AnalysisSession::result`] for a session that is done: finalizes
    /// the store and *moves* the cached artifacts out instead of cloning
    /// them — the one-shot [`run_dise`](crate::dise::run_dise) path.
    ///
    /// # Errors
    ///
    /// Whatever the prerequisite stages raise.
    pub fn into_result(mut self) -> Result<DiseResult, DiseError> {
        self.explored()?;
        let status = self.finalize().cloned();
        let diffed = self.diffed.take().expect("diff stage ensured");
        let affected = self.affected.take().expect("affected stage ensured");
        let explored = self.explored.take().expect("explored stage ensured");
        Ok(DiseResult {
            summary: explored.summary,
            changed_nodes: diffed.diff.changed_node_count(),
            affected_nodes: affected.len(),
            affected,
            analysis_time: self.timings.analysis(),
            total_time: self.timings.total(),
            directed_trace: explored.directed_trace,
            stages: self.timings,
            store: status,
        })
    }

    /// The four artifacts the §5.2 regression application consumes, all
    /// ensured: `(base_flat, base_full_summary, mod_flat,
    /// directed_summary)` — the inputs of
    /// `dise_regression::regression_plan`, borrowed together in one
    /// call.
    ///
    /// # Errors
    ///
    /// Whatever the prerequisite stages raise.
    #[allow(clippy::type_complexity)]
    pub fn regression_inputs(
        &mut self,
    ) -> Result<(&Program, &SymbolicSummary, &Program, &SymbolicSummary), DiseError> {
        self.base_full()?;
        self.explored()?;
        Ok((
            &self.base,
            self.base_full.as_ref().expect("base_full ensured"),
            &self.modified,
            &self.explored.as_ref().expect("explored ensured").summary,
        ))
    }

    /// Records the session's warm state back to the store (trie snapshot,
    /// affected sets under their fingerprints) and returns the final
    /// store status. A no-op (returning the current status) when no store
    /// is configured, when the exploration never ran (there is nothing
    /// new to record), or when already finalized — calling it more than
    /// once is safe.
    pub fn finalize(&mut self) -> Option<&StoreStatus> {
        if self.saved {
            return self.status.as_ref();
        }
        // The root span closes on the first finalize after exploration —
        // including storeless sessions, which return early below.
        if self.explored.is_some() {
            if let Some(root) = self.root_span.take() {
                if let Some(h) = &self.config.exec.tracer {
                    h.end(root);
                }
            }
        }
        let (Some(store), Some(explored), Some(executor)) =
            (&self.store, &self.explored, &self.executor)
        else {
            return self.status.as_ref();
        };
        let diffed = self.diffed.as_ref().expect("explored implies diffed");
        let affected = self.affected.as_ref().expect("explored implies affected");
        let entry = ProcEntry {
            proc_name: self.proc_name.clone(),
            solver_key: self.config.exec.solver.cache_key(),
            base_fingerprint: self.fingerprints.0,
            mod_fingerprint: self.fingerprints.1,
            runs: self.prior.as_ref().map_or(0, |e| e.runs) + 1,
            pc_count: explored.summary.pc_count() as u64,
            summary_digest: summary_digest(&explored.summary),
            affected: Some(StoredAffected {
                precision: precision_tag(self.config.precision),
                changed_nodes: diffed.diff.changed_node_count() as u64,
                acn: affected.acn().iter().map(|n| n.index() as u32).collect(),
                awn: affected.awn().iter().map(|n| n.index() as u32).collect(),
            }),
            trie: executor.trie_snapshot(),
            // The summaries this session's full exploration used; a run
            // that never summarized keeps the prior snapshots (stale ones
            // are fingerprint-gated away on load, never misused).
            summaries: match &self.summaries {
                Some(prepared) => prepared.table.iter().map(|s| s.snap.clone()).collect(),
                None => self
                    .prior
                    .as_ref()
                    .map(|e| e.summaries.clone())
                    .unwrap_or_default(),
            },
        };
        let save_span = self.begin_span("store.save");
        let save_counters = vec![
            ("trie.prefixes".to_string(), entry.trie.decided() as u64),
            ("summaries".to_string(), entry.summaries.len() as u64),
        ];
        let save_result = store.save(&entry);
        self.end_span(save_span, save_counters);
        let status = self.status.as_mut().expect("status exists with a store");
        match save_result {
            Ok(()) => status.saved = true,
            Err(e) => {
                let note = format!("analysis store: save failed ({e})");
                status.warning = Some(match status.warning.take() {
                    Some(prev) => format!("{prev}; {note}"),
                    None => note,
                });
            }
        }
        self.saved = true;
        self.status.as_ref()
    }
}

/// Flattens multi-procedure programs before analysis; call-free programs
/// pass through untouched. DiSE is intra-procedural (§3.2), so calls are
/// expanded by bounded inlining — the pragmatic realization of the paper's
/// inter-procedural future work (§7).
pub(crate) fn flatten<'p>(
    program: &'p Program,
    proc_name: &str,
) -> Result<Cow<'p, Program>, InlineError> {
    if contains_calls(program, proc_name) {
        Ok(Cow::Owned(inline_program(program, proc_name)?))
    } else {
        Ok(Cow::Borrowed(program))
    }
}

/// Re-parents the exec config's trace handle under `span`, so spans the
/// layer below records (summary builds) nest there.
/// With no tracer or no open span this is a plain clone.
fn reparented(exec: &ExecConfig, span: &Option<dise_trace::OpenSpan>) -> ExecConfig {
    let mut exec = exec.clone();
    if let Some(span) = span {
        if let Some(h) = exec.tracer.take() {
            exec.tracer = Some(h.child(span.id()));
        }
    }
    exec
}

/// The counters a full-exploration stage span carries.
fn full_counters(summary: &SymbolicSummary) -> Vec<(String, u64)> {
    let s = summary.stats();
    vec![
        ("states".to_string(), s.states_explored),
        ("pc_count".to_string(), summary.pc_count() as u64),
        ("solver.checks".to_string(), s.solver.checks),
        (
            "solver.pipeline_checks".to_string(),
            s.solver.pipeline_checks(),
        ),
    ]
}

/// Full symbolic execution of an already-flattened program — the one
/// executor-construction path shared by the session's full stages and
/// [`run_full_on`](crate::dise::run_full_on).
fn full_exploration_flat(
    program: &Program,
    proc_name: &str,
    exec: &ExecConfig,
) -> Result<SymbolicSummary, DiseError> {
    let mut executor = Executor::new(program, proc_name, exec.clone())?;
    Ok(executor.explore(&mut FullExploration))
}

/// Full symbolic execution of `program` through the session's Flattened
/// stage — the implementation behind
/// [`run_full_on`](crate::dise::run_full_on). When the summary gates
/// allow it, calls are dispatched through freshly built procedure
/// summaries instead of the flattened program (byte-identical verdicts;
/// see [`crate::summaries`]); any summarization failure falls back to
/// inlining.
pub(crate) fn full_exploration(
    program: &Program,
    proc_name: &str,
    config: &DiseConfig,
) -> Result<SymbolicSummary, DiseError> {
    if crate::summaries::applicable(program, proc_name, &config.exec) {
        if let Some(summary) = crate::summaries::prepare(
            program,
            proc_name,
            &config.exec,
            &[],
            None,
        )
        .and_then(|prepared| {
            crate::summaries::full_with_summaries(program, proc_name, &config.exec, prepared.table)
        }) {
            return Ok(summary);
        }
    }
    let program = flatten(program, proc_name)?;
    full_exploration_flat(program.as_ref(), proc_name, &config.exec)
}

/// The on-disk tag of a [`DataflowPrecision`] mode. Part of the store's
/// reuse key: the `--reaching-defs` ablation computes strictly smaller
/// affected sets than the paper's `CfgPath` premise, so entries recorded
/// under one mode must never serve runs under the other.
fn precision_tag(precision: DataflowPrecision) -> u8 {
    match precision {
        DataflowPrecision::CfgPath => 0,
        DataflowPrecision::ReachingDefs => 1,
    }
}

/// The stored affected sets, when they can stand in for the fixpoint:
/// same `(base, modified)` fingerprint pair, same data-flow precision
/// mode, no trace requested (restored sets carry none), and every
/// recorded node id within the current CFG (a guard against fingerprint
/// collisions — reuse is an optimization, never a risk).
fn reusable_affected(
    prior: Option<&ProcEntry>,
    fingerprints: (u64, u64),
    config: &DiseConfig,
    cfg_len: usize,
) -> Option<AffectedSets> {
    let entry = prior?;
    if config.trace_affected
        || entry.base_fingerprint != fingerprints.0
        || entry.mod_fingerprint != fingerprints.1
    {
        return None;
    }
    let stored = entry.affected.as_ref()?;
    if stored.precision != precision_tag(config.precision) {
        return None;
    }
    let in_range = |nodes: &[u32]| nodes.iter().all(|&n| (n as usize) < cfg_len);
    if !in_range(&stored.acn) || !in_range(&stored.awn) {
        return None;
    }
    let to_set = |nodes: &[u32]| -> BTreeSet<NodeId> { nodes.iter().map(|&n| NodeId(n)).collect() };
    Some(AffectedSets::from_parts(
        to_set(&stored.acn),
        to_set(&stored.awn),
    ))
}

/// A stable digest of the summary's observable output (path conditions,
/// outcomes, and final environments) — what the CI warm-start job diffs
/// byte-for-byte, recorded per entry for `dise store stat`.
fn summary_digest(summary: &SymbolicSummary) -> u64 {
    let mut text = String::new();
    for path in summary.paths() {
        text.push_str(&path.pc.to_string());
        text.push('\x1f');
        text.push_str(&format!("{:?}", path.outcome));
        text.push('\x1f');
        for (var, value) in path.final_env.iter() {
            text.push_str(var);
            text.push('=');
            text.push_str(&value.to_string());
            text.push(';');
        }
        text.push('\n');
    }
    dise_store::format::fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affected::tests::FIG2_BASE_SRC;
    use crate::dise::run_dise;
    use dise_ir::parse_program;

    fn fig2_pair() -> (Program, Program) {
        let base = parse_program(FIG2_BASE_SRC).unwrap();
        let modified =
            parse_program(&FIG2_BASE_SRC.replace("PedalPos == 0", "PedalPos <= 0")).unwrap();
        (base, modified)
    }

    #[test]
    fn stages_compute_lazily_and_cache() {
        let (base, modified) = fig2_pair();
        let mut session =
            AnalysisSession::open(&base, &modified, "update", DiseConfig::default()).unwrap();
        assert!(session.diffed.is_none() && session.affected.is_none());
        let affected_len = session.affected().unwrap().len();
        assert!(session.explored.is_none(), "affected must not explore");
        let first = session.result().unwrap();
        let second = session.result().unwrap();
        assert_eq!(first.affected_nodes, affected_len);
        // Cached: the second result is a clone of the same exploration,
        // down to the measured wall-clock.
        assert_eq!(
            first.summary.stats().elapsed,
            second.summary.stats().elapsed
        );
        assert_eq!(first.summary.paths().len(), second.summary.paths().len());
    }

    #[test]
    fn session_result_matches_run_dise() {
        let (base, modified) = fig2_pair();
        let reference = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        let mut session =
            AnalysisSession::open(&base, &modified, "update", DiseConfig::default()).unwrap();
        let result = session.result().unwrap();
        assert_eq!(result.changed_nodes, reference.changed_nodes);
        assert_eq!(result.affected_nodes, reference.affected_nodes);
        assert_eq!(
            result.affected_pc_strings(),
            reference.affected_pc_strings()
        );
    }

    #[test]
    fn stage_timings_are_reported() {
        let (base, modified) = fig2_pair();
        let mut session =
            AnalysisSession::open(&base, &modified, "update", DiseConfig::default()).unwrap();
        let result = session.result().unwrap();
        assert!(result.stages.explore > Duration::ZERO);
        assert_eq!(result.analysis_time, result.stages.analysis());
        assert_eq!(result.total_time, result.stages.total());
        assert!(result.total_time >= result.analysis_time);
    }

    #[test]
    fn advance_chains_warm_state_in_process() {
        // base -> modified -> base again: hop 2 must warm-start from hop
        // 1's executor without any store, and its summary must equal an
        // independent run's.
        let (base, modified) = fig2_pair();
        let session =
            AnalysisSession::open(&base, &modified, "update", DiseConfig::default()).unwrap();
        let mut session = session; // explore hop 1
        session.explored().unwrap();
        let mut hop2 = session.advance(&base).unwrap();
        assert!(hop2.handoff.is_some(), "executor state must transfer");
        let chained = hop2.result().unwrap();
        let independent = run_dise(&modified, &base, "update", &DiseConfig::default()).unwrap();
        assert_eq!(
            chained.affected_pc_strings(),
            independent.affected_pc_strings()
        );
        // The handoff's decided prefixes were restored into hop 2's
        // solver (whether they answer checks depends on prefix overlap —
        // the solver-call reduction on genuinely overlapping hops is
        // pinned by tests/session_reuse.rs on the WBS chain).
        assert!(
            chained.summary.stats().warm_trie_entries > 0,
            "hop 2 must start with hop 1's trie"
        );
    }

    #[test]
    fn advance_without_exploration_is_a_cold_open() {
        let (base, modified) = fig2_pair();
        let session =
            AnalysisSession::open(&base, &modified, "update", DiseConfig::default()).unwrap();
        // No stage ran; advancing still works and carries nothing.
        let mut hop2 = session.advance(&base).unwrap();
        assert!(hop2.handoff.is_none());
        let chained = hop2.result().unwrap();
        let independent = run_dise(&modified, &base, "update", &DiseConfig::default()).unwrap();
        assert_eq!(
            chained.affected_pc_strings(),
            independent.affected_pc_strings()
        );
    }

    const MULTI_SRC: &str = "int Pressure = 0;
        proc clamp(int cmd) {
          if (cmd > 100) { Pressure = 3000; } else { Pressure = cmd * 30; }
        }
        proc main(int a, int b) { clamp(a); clamp(b); }";

    fn summary_config(store: Option<std::path::PathBuf>) -> DiseConfig {
        let mut config = DiseConfig {
            store,
            ..DiseConfig::default()
        };
        config.exec.summaries = dise_symexec::SummaryMode::On;
        config
    }

    #[test]
    fn summaries_round_trip_through_the_store() {
        let program = parse_program(MULTI_SRC).unwrap();
        let reordered =
            parse_program(&MULTI_SRC.replace("clamp(a); clamp(b);", "clamp(b); clamp(a);"))
                .unwrap();
        let dir =
            std::env::temp_dir().join(format!("dise-session-summaries-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = summary_config(Some(dir.clone()));

        // Hop 1 builds the callee summary and records it at finalize.
        let mut first = AnalysisSession::open(&program, &program, "main", config.clone()).unwrap();
        first.result().unwrap();
        let built = first.modified_full().unwrap();
        assert!(built.stats().summary.call_sites > 0);
        first.finalize();

        // A later process changes `main` but not `clamp`: the snapshot
        // revives and every call site answers off the stored witnesses.
        let mut second = AnalysisSession::open(&program, &reordered, "main", config).unwrap();
        let warm = second.modified_full().unwrap();
        assert_eq!(
            warm.stats().summary.fallback_checks,
            0,
            "an unchanged callee must cost zero solver calls at its call sites"
        );
        assert_eq!(
            warm.stats().summary.hint_verified,
            warm.stats().summary.paths_instantiated
        );
        let warm_pcs: Vec<String> = warm.paths().iter().map(|p| p.pc.to_string()).collect();
        assert_eq!(second.store_status().unwrap().summaries_reused, 1);

        // Verdicts stay byte-identical with plain inlining.
        let mut off = DiseConfig::default();
        off.exec.summaries = dise_symexec::SummaryMode::Off;
        let inlined = crate::dise::run_full_on(&reordered, "main", &off).unwrap();
        let inlined_pcs: Vec<String> = inlined.paths().iter().map(|p| p.pc.to_string()).collect();
        assert_eq!(warm_pcs, inlined_pcs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advance_carries_summaries_without_a_store() {
        let program = parse_program(MULTI_SRC).unwrap();
        let reordered =
            parse_program(&MULTI_SRC.replace("clamp(a); clamp(b);", "clamp(b); clamp(a);"))
                .unwrap();
        let mut session =
            AnalysisSession::open(&program, &program, "main", summary_config(None)).unwrap();
        session.modified_full().unwrap();
        let built = Arc::clone(
            session
                .summary_table()
                .expect("hop 1 ran summarized")
                .get("clamp")
                .expect("callee summarized"),
        );
        let mut hop2 = session.advance(&reordered).unwrap();
        hop2.modified_full().unwrap();
        let carried = hop2
            .summary_table()
            .expect("hop 2 ran summarized")
            .get("clamp")
            .expect("callee summarized");
        assert!(
            Arc::ptr_eq(&built, carried),
            "an unchanged callee's summary must survive the hop by identity"
        );
    }

    #[test]
    fn finalize_is_idempotent_and_saves_once() {
        let (base, modified) = fig2_pair();
        let dir =
            std::env::temp_dir().join(format!("dise-session-finalize-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        let mut session = AnalysisSession::open(&base, &modified, "update", config).unwrap();
        session.result().unwrap();
        let status = session.finalize().expect("store configured").clone();
        assert!(status.saved);
        let runs_after_first = Store::open(&dir)
            .load("update")
            .unwrap()
            .expect("entry recorded")
            .runs;
        session.finalize();
        assert_eq!(
            Store::open(&dir).load("update").unwrap().unwrap().runs,
            runs_after_first,
            "double finalize must not double-record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
