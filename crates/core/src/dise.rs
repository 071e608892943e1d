//! The end-to-end DiSE driver — thin wrappers over the staged
//! [`AnalysisSession`].
//!
//! [`run_dise`] ties the pipeline together exactly as §3.1 describes:
//! diff the two program versions, lift the diff onto the CFGs, compute
//! affected locations (including removed-node effects), then run directed
//! symbolic execution on the modified version. The reported time covers
//! both the static analysis and the symbolic execution, matching the
//! paper's "time spent computing the affected program locations and the
//! time spent performing symbolic execution" (§4.2.2).
//!
//! Since PR 5 the pipeline itself lives in
//! [`crate::session`]: `run_dise` opens a session, drives every stage,
//! finalizes the store, and returns — one call, one exploration, same
//! results as always. Consumers that need *several* artifacts of the same
//! version pair (the evolution applications, multi-version chains) should
//! hold the session instead and share its stages.
//!
//! With [`DiseConfig::store`] set, the run participates in the persistent
//! cross-version analysis store (`dise-store`): it warm-starts the
//! incremental solver from the procedure's recorded prefix-trie verdicts,
//! reuses the recorded affected sets when the `(base, modified)`
//! fingerprint pair is unchanged, and records everything back on
//! completion. Store damage of any kind downgrades to
//! a cold run ([`StoreStatus::warning`]) — warm starts change wall-clock
//! and solver-call counts, never summaries.

use std::time::Duration;

use dise_diff::DiffError;
use dise_ir::ast::Program;
use dise_ir::inline::InlineError;
use dise_symexec::{ExecConfig, ExecError, SymbolicSummary};

use crate::affected::{AffectedSets, DataflowPrecision};
use crate::session::{AnalysisSession, StageTimings};

/// Configuration of a DiSE run.
#[derive(Debug, Clone, Default)]
pub struct DiseConfig {
    /// Symbolic-execution settings (depth bound, solver, recording).
    pub exec: ExecConfig,
    /// The data-flow premise of rules (3)/(4); the paper uses
    /// [`DataflowPrecision::CfgPath`].
    pub precision: DataflowPrecision,
    /// Capture the Fig. 5(b) fixpoint trace.
    pub trace_affected: bool,
    /// Capture the Table 1 directed-search trace.
    pub trace_directed: bool,
    /// Persistent analysis store directory (CLI `--store` / `DISE_STORE`).
    /// `None` (the default) runs cold with no persistence.
    pub store: Option<std::path::PathBuf>,
}

/// What the persistent store contributed to (and learned from) one run.
/// `None` on [`DiseResult::store`] means no store was configured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStatus {
    /// Decided path-condition prefixes restored into the solver's trie —
    /// from the store, or from the previous hop of an in-process session
    /// chain.
    pub warm_trie_entries: u64,
    /// The affected-location fixpoint was skipped in favor of the
    /// recorded sets (same `(base, modified)` fingerprint pair).
    pub affected_reused: bool,
    /// Procedure summaries the full exploration reused instead of
    /// rebuilding — revived from store snapshots or carried over from
    /// the previous hop of a session chain (unchanged callees only).
    pub summaries_reused: u64,
    /// The run's warm state was recorded back successfully.
    pub saved: bool,
    /// One-line description of why warm state was (partially) unusable —
    /// truncation, version skew, checksum mismatch, I/O. The run it
    /// annotates fell back to cold behavior for the affected part.
    pub warning: Option<String>,
}

/// Errors from the DiSE pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiseError {
    /// Differencing failed (missing procedure or ambiguous spans).
    Diff(DiffError),
    /// Symbolic execution setup failed.
    Exec(ExecError),
    /// A multi-procedure program could not be inlined.
    Inline(InlineError),
}

impl std::fmt::Display for DiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiseError::Diff(e) => write!(f, "diff error: {e}"),
            DiseError::Exec(e) => write!(f, "execution error: {e}"),
            DiseError::Inline(e) => write!(f, "inline error: {e}"),
        }
    }
}

impl std::error::Error for DiseError {}

impl From<DiffError> for DiseError {
    fn from(e: DiffError) -> Self {
        DiseError::Diff(e)
    }
}

impl From<ExecError> for DiseError {
    fn from(e: ExecError) -> Self {
        DiseError::Exec(e)
    }
}

impl From<InlineError> for DiseError {
    fn from(e: InlineError) -> Self {
        DiseError::Inline(e)
    }
}

/// The result of a DiSE run.
#[derive(Debug, Clone)]
pub struct DiseResult {
    /// The symbolic summary of the directed run: its path conditions are
    /// the *affected* path conditions.
    pub summary: SymbolicSummary,
    /// The computed affected sets (over the modified version's CFG).
    pub affected: AffectedSets,
    /// Number of changed CFG nodes (changed/added in mod + removed in
    /// base) — Table 2's "Changed" column.
    pub changed_nodes: usize,
    /// Number of affected CFG nodes — Table 2's "Affected" column.
    pub affected_nodes: usize,
    /// Time spent in differencing + static analysis
    /// ([`StageTimings::analysis`]).
    pub analysis_time: Duration,
    /// Total pipeline time (static analysis + directed execution;
    /// [`StageTimings::total`]).
    pub total_time: Duration,
    /// The Table 1 trace, when requested.
    pub directed_trace: Option<String>,
    /// Per-stage wall-clock breakdown (flatten / diff / affected /
    /// explore) — the CLI's `stages:` line.
    pub stages: StageTimings,
    /// Persistent-store activity (`None` when no store was configured).
    pub store: Option<StoreStatus>,
}

impl DiseResult {
    /// The affected path conditions as display strings (the canonical form
    /// consumed by the regression application).
    pub fn affected_pc_strings(&self) -> Vec<String> {
        self.summary
            .path_conditions()
            .map(|pc| pc.to_string())
            .collect()
    }
}

/// Runs DiSE on the procedure `proc_name` of `base` → `modified`.
///
/// Equivalent to opening an [`AnalysisSession`], taking its
/// [`result`](AnalysisSession::result), and
/// [`finalizing`](AnalysisSession::finalize) it.
///
/// # Errors
///
/// [`DiseError::Diff`] when the differencing fails,
/// [`DiseError::Exec`] when the procedure cannot be executed.
///
/// # Examples
///
/// ```
/// use dise_core::dise::{run_dise, DiseConfig};
/// use dise_ir::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = parse_program("proc f(int x) { if (x == 0) { x = 1; } }")?;
/// let new = parse_program("proc f(int x) { if (x <= 0) { x = 1; } }")?;
/// let result = run_dise(&base, &new, "f", &DiseConfig::default())?;
/// assert_eq!(result.changed_nodes, 1);
/// assert!(result.summary.pc_count() > 0);
/// # Ok(())
/// # }
/// ```
pub fn run_dise(
    base: &Program,
    modified: &Program,
    proc_name: &str,
    config: &DiseConfig,
) -> Result<DiseResult, DiseError> {
    AnalysisSession::open(base, modified, proc_name, config.clone())?.into_result()
}

/// Runs *full* symbolic execution on `program` with the same executor
/// settings — the paper's control technique. Routed through the session's
/// Flattened stage and executor-construction path, so full and directed
/// runs cannot drift in setup.
///
/// # Errors
///
/// [`DiseError::Exec`] when the procedure cannot be executed.
pub fn run_full_on(
    program: &Program,
    proc_name: &str,
    config: &DiseConfig,
) -> Result<SymbolicSummary, DiseError> {
    crate::session::full_exploration(program, proc_name, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affected::tests::FIG2_BASE_SRC;
    use dise_ir::parse_program;

    fn fig2_pair() -> (Program, Program) {
        let base = parse_program(FIG2_BASE_SRC).unwrap();
        let modified =
            parse_program(&FIG2_BASE_SRC.replace("PedalPos == 0", "PedalPos <= 0")).unwrap();
        (base, modified)
    }

    #[test]
    fn fig2_end_to_end_counts() {
        let (base, modified) = fig2_pair();
        let result = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        assert_eq!(result.changed_nodes, 1);
        assert_eq!(result.affected_nodes, 11);
        let full = run_full_on(&modified, "update", &DiseConfig::default()).unwrap();
        assert!(result.summary.pc_count() < full.pc_count());
        assert!(result.total_time >= result.analysis_time);
    }

    #[test]
    fn identical_versions_yield_no_affected_pcs() {
        let (base, _) = fig2_pair();
        let result = run_dise(&base, &base, "update", &DiseConfig::default()).unwrap();
        assert_eq!(result.changed_nodes, 0);
        assert_eq!(result.affected_nodes, 0);
        assert_eq!(result.summary.pc_count(), 0);
        // The straight-line prefix up to the first choice point is
        // executed, then everything is pruned (SPF-faithful filter scope).
        assert_eq!(result.summary.stats().states_explored, 2);
    }

    #[test]
    fn traces_are_captured_on_request() {
        let (base, modified) = fig2_pair();
        let config = DiseConfig {
            trace_affected: true,
            trace_directed: true,
            ..DiseConfig::default()
        };
        let result = run_dise(&base, &modified, "update", &config).unwrap();
        assert!(!result.affected.trace().is_empty());
        let directed = result.directed_trace.as_ref().unwrap();
        assert!(directed.contains("UnExCond"));
    }

    #[test]
    fn affected_pc_strings_are_canonical() {
        let (base, modified) = fig2_pair();
        let result = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        let strings = result.affected_pc_strings();
        assert_eq!(strings.len(), result.summary.pc_count());
        assert!(strings.iter().all(|s| !s.is_empty()));
        // The changed constraint shows up in some affected PC.
        assert!(strings.iter().any(|s| s.contains("PedalPos <= 0")));
    }

    #[test]
    fn missing_procedure_is_a_diff_error() {
        let (base, modified) = fig2_pair();
        let err = run_dise(&base, &modified, "nope", &DiseConfig::default()).unwrap_err();
        assert!(matches!(err, DiseError::Diff(_)));
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dise-core-store-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn assert_same_summary(a: &SymbolicSummary, b: &SymbolicSummary) {
        assert_eq!(a.paths().len(), b.paths().len());
        for (x, y) in a.paths().iter().zip(b.paths()) {
            assert_eq!(x.pc, y.pc);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.final_env, y.final_env);
            assert_eq!(x.trace, y.trace);
        }
    }

    #[test]
    fn store_warm_run_is_byte_identical_and_skips_solving() {
        let (base, modified) = fig2_pair();
        let dir = temp_store_dir("warm");
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        let cold = run_dise(&base, &modified, "update", &config).unwrap();
        let cold_status = cold.store.as_ref().expect("store configured");
        assert_eq!(cold_status.warm_trie_entries, 0);
        assert!(!cold_status.affected_reused);
        assert!(cold_status.saved);
        assert!(cold_status.warning.is_none());

        let warm = run_dise(&base, &modified, "update", &config).unwrap();
        let warm_status = warm.store.as_ref().expect("store configured");
        assert!(warm_status.warm_trie_entries > 0);
        assert!(warm_status.affected_reused);
        assert!(warm_status.saved);
        assert_eq!(warm.affected_nodes, cold.affected_nodes);
        assert_eq!(warm.changed_nodes, cold.changed_nodes);
        assert_same_summary(&cold.summary, &warm.summary);
        assert_eq!(warm.affected.acn(), cold.affected.acn());
        assert_eq!(warm.affected.awn(), cold.affected.awn());
        // The warm run answered every serial check without a pipeline run.
        let cold_solves =
            cold.summary.stats().solver.model_searches + cold.summary.stats().solver.fm_runs;
        let warm_solves =
            warm.summary.stats().solver.model_searches + warm.summary.stats().solver.fm_runs;
        assert!(
            warm_solves < cold_solves,
            "warm {warm_solves} must beat cold {cold_solves}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_outlives_version_changes() {
        // Warm-start version N from version N-1's store entry: the trie
        // transfers (structural keys), the affected sets do not (the
        // fingerprint pair changed).
        let (base, modified) = fig2_pair();
        let dir = temp_store_dir("evolve");
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        run_dise(&base, &base, "update", &config).unwrap();
        let next = run_dise(&base, &modified, "update", &config).unwrap();
        let status = next.store.as_ref().unwrap();
        assert!(!status.affected_reused, "pair fingerprints changed");
        let reference = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        assert_same_summary(&reference.summary, &next.summary);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_store_degrades_to_cold_with_a_warning() {
        let (base, modified) = fig2_pair();
        let dir = temp_store_dir("corrupt");
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        run_dise(&base, &modified, "update", &config).unwrap();
        // Truncate the entry file in place.
        let store = dise_store::Store::open(&dir);
        let path = store.entry_path("update");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let damaged = run_dise(&base, &modified, "update", &config).unwrap();
        let status = damaged.store.as_ref().unwrap();
        assert_eq!(status.warm_trie_entries, 0);
        assert!(!status.affected_reused);
        assert!(status.warning.is_some(), "damage must surface a warning");
        assert!(status.saved, "the damaged entry is rewritten");
        let reference = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        assert_same_summary(&reference.summary, &damaged.summary);
        // The rewrite healed the store: the next run warm-starts again.
        let healed = run_dise(&base, &modified, "update", &config).unwrap();
        assert!(healed.store.as_ref().unwrap().warm_trie_entries > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn precision_skew_blocks_affected_reuse() {
        // A changed definition that is killed before its only use: the
        // CfgPath premise flags the downstream conditional as affected,
        // ReachingDefs does not. An entry recorded under one mode must
        // never serve the other — reusing CfgPath sets would inflate a
        // --reaching-defs run's results.
        let base =
            parse_program("int b;\nproc f() {\n  int a = 1;\n  a = b;\n  if (a > 0) { b = 1; }\n}")
                .unwrap();
        let modified =
            parse_program("int b;\nproc f() {\n  int a = 7;\n  a = b;\n  if (a > 0) { b = 1; }\n}")
                .unwrap();
        let dir = temp_store_dir("precision");
        let record = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        run_dise(&base, &modified, "f", &record).unwrap();

        let precise = DiseConfig {
            precision: DataflowPrecision::ReachingDefs,
            ..record.clone()
        };
        let warm = run_dise(&base, &modified, "f", &precise).unwrap();
        assert!(
            !warm.store.as_ref().unwrap().affected_reused,
            "CfgPath sets must not serve a ReachingDefs run"
        );
        let cold = run_dise(
            &base,
            &modified,
            "f",
            &DiseConfig {
                precision: DataflowPrecision::ReachingDefs,
                ..DiseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(warm.affected_nodes, cold.affected_nodes);
        assert_eq!(warm.affected.acn(), cold.affected.acn());
        assert_eq!(warm.affected.awn(), cold.affected.awn());
        assert_same_summary(&cold.summary, &warm.summary);
        // Sanity: the two modes genuinely disagree on this program, so
        // the gate is doing real work.
        let coarse = run_dise(&base, &modified, "f", &DiseConfig::default()).unwrap();
        assert_ne!(coarse.affected_nodes, cold.affected_nodes);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solver_config_skew_blocks_trie_reuse() {
        let (base, modified) = fig2_pair();
        let dir = temp_store_dir("skew");
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        run_dise(&base, &modified, "update", &config).unwrap();
        let mut skewed = config.clone();
        skewed.exec.solver.case_budget = 7;
        let run = run_dise(&base, &modified, "update", &skewed).unwrap();
        let status = run.store.as_ref().unwrap();
        assert_eq!(
            status.warm_trie_entries, 0,
            "differently budgeted solvers must not share verdicts"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solver_config_skew_warns_instead_of_dropping_silently() {
        // The cache-key gate is correct but used to be silent: a skewed
        // run looked like a plain cold start. It must now carry the same
        // style of degradation warning the corruption path produces.
        let (base, modified) = fig2_pair();
        let dir = temp_store_dir("skew-warn");
        let config = DiseConfig {
            store: Some(dir.clone()),
            ..DiseConfig::default()
        };
        run_dise(&base, &modified, "update", &config).unwrap();
        let mut skewed = config.clone();
        skewed.exec.solver.case_budget = 7;
        let run = run_dise(&base, &modified, "update", &skewed).unwrap();
        let status = run.store.as_ref().unwrap();
        let warning = status
            .warning
            .as_ref()
            .expect("dropped trie reuse must surface a warning");
        assert!(warning.starts_with("analysis store:"), "{warning}");
        assert!(warning.contains("solver configuration"), "{warning}");
        assert!(warning.contains("running cold"), "{warning}");
        // An un-skewed run against the (rewritten) entry stays quiet.
        let clean = run_dise(&base, &modified, "update", &skewed).unwrap();
        assert!(clean.store.as_ref().unwrap().warning.is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn summarized_full_run_matches_inlined_verdicts() {
        use dise_symexec::SummaryMode;
        let two_clamps = "int Pressure = 0;
             proc clamp(int cmd) {
               if (cmd > 100) { Pressure = 3000; } else { Pressure = cmd * 30; }
             }
             proc main(int a, int b) { clamp(a); clamp(b); }";
        // Four dispatches of a three-path callee: inlining re-explores the
        // callee at every call site (3^4 = 81 leaf paths), summaries
        // explore it once and instantiate.
        let four_brakes = "int Pressure = 0;
             proc apply_brake(int cmd) {
               if (cmd > 100) {
                 Pressure = 3000;
               } else {
                 if (cmd > 95) { Pressure = 2900; } else { Pressure = cmd * 30; }
               }
             }
             proc main(int a, int b, int c, int d) {
               apply_brake(a); apply_brake(b); apply_brake(c); apply_brake(d);
             }";
        let mut on = DiseConfig::default();
        on.exec.summaries = SummaryMode::On;
        let mut off = DiseConfig::default();
        off.exec.summaries = SummaryMode::Off;
        for source in [two_clamps, four_brakes] {
            let program = parse_program(source).unwrap();
            let summarized = run_full_on(&program, "main", &on).unwrap();
            let inlined = run_full_on(&program, "main", &off).unwrap();
            assert!(
                summarized.stats().summary.call_sites > 0,
                "the summarized run must actually dispatch through summaries"
            );
            assert_eq!(inlined.stats().summary.call_sites, 0);
            assert_eq!(summarized.paths().len(), inlined.paths().len());
            for (s, i) in summarized.paths().iter().zip(inlined.paths()) {
                assert_eq!(s.pc.to_string(), i.pc.to_string());
                assert_eq!(s.outcome, i.outcome);
            }
            if source == four_brakes {
                // Pipeline checks exclude trie and cache answers. The
                // summarized cost includes building the callee's summary,
                // so the reduction is not an accounting trick.
                let build_checks: u64 =
                    crate::summaries::prepare(&program, "main", &on.exec, &[], None)
                        .expect("the callee summarizes")
                        .table
                        .iter()
                        .map(|summary| summary.build_stats.pipeline_checks())
                        .sum();
                let summarized_checks = summarized.stats().solver.pipeline_checks() + build_checks;
                let inlined_checks = inlined.stats().solver.pipeline_checks();
                assert!(
                    3 * summarized_checks <= inlined_checks,
                    "summaries must cost at most a third of inlining's pipeline checks \
                     ({summarized_checks} vs {inlined_checks})"
                );
            }
        }
    }

    #[test]
    fn theorem_3_10_holds_end_to_end() {
        let (base, modified) = fig2_pair();
        let result = run_dise(&base, &modified, "update", &DiseConfig::default()).unwrap();
        let full = run_full_on(&modified, "update", &DiseConfig::default()).unwrap();
        crate::theorem::check_theorem_3_10(&full, &result.summary, &result.affected).unwrap();
    }
}
