//! Brokering of procedure summaries for full explorations.
//!
//! `dise-symexec` provides the mechanism — [`build_summary`] explores a
//! callee once, [`Executor::with_summaries`] instantiates the results at
//! call sites — but deliberately leaves the *policy* to this crate: when
//! summaries are equivalent to inlining, where a previously built summary
//! can be reused, and when the whole run must fall back to the inlining
//! pipeline. This module is that policy.
//!
//! A summary for callee `f` is keyed by `f`'s flattened-body fingerprint
//! (`dise-diff`'s [`proc_fingerprint`]) plus the solver cache key it was
//! built under. [`prepare`] resolves each direct callee of the analyzed
//! procedure through three tiers:
//!
//! 1. **in memory** — a table carried over from the previous hop of a
//!    version chain ([`SummaryTable::retain_matching`] drops entries whose
//!    callee changed);
//! 2. **from the store** — a [`SummarySnapshot`] recorded by an earlier
//!    process run, revived when both the fingerprint and the solver key
//!    match (zero build cost, which is where the cross-version
//!    "unchanged callee ⇒ zero solver calls at its call sites" win comes
//!    from);
//! 3. **built fresh** — [`build_summary`], whose solver cost is recorded
//!    on the summary and amortized over every later instantiation.
//!
//! Any failure at any tier (recursion, depth-bounded callee, executor
//! error) abandons summaries for the *whole run* — the caller inlines
//! instead. Summaries accelerate; they never decide.

use std::collections::BTreeMap;
use std::sync::Arc;

use dise_diff::proc_fingerprint;
use dise_ir::ast::Program;
use dise_ir::inline::contains_calls;
use dise_solver::SummarySnapshot;
use dise_symexec::{
    build_summary, ExecConfig, Executor, FullExploration, ProcSummary, SummaryTable,
    SymbolicSummary,
};

use crate::interproc::CallGraph;

/// Where the summaries of one prepared table came from. The counts feed
/// [`StoreStatus::summaries_reused`](crate::dise::StoreStatus) and the
/// benchmark's zero-build-cost check.
#[derive(Debug, Clone)]
pub(crate) struct PreparedSummaries {
    /// The table covering every direct callee of the analyzed procedure.
    pub table: Arc<SummaryTable>,
    /// Entries reused from the previous hop's in-memory table.
    pub reused_in_memory: usize,
    /// Entries revived from store snapshots (no build cost this process).
    pub revived_from_store: usize,
    /// Entries explored fresh this run.
    pub built: usize,
}

impl PreparedSummaries {
    /// Entries that did not need a fresh callee exploration.
    pub fn reused(&self) -> usize {
        self.reused_in_memory + self.revived_from_store
    }
}

/// Whether a full exploration of `proc_name` may route calls through
/// summaries under `exec`. The gates guarantee byte-identical verdicts
/// with the inlining pipeline:
///
/// * the mode permits it (`--summaries off` wins unconditionally);
/// * the procedure actually contains calls (else there is nothing to
///   summarize and the flattened program *is* the program);
/// * no depth bound and no state cap — both are measured along the
///   flattened walk, so a summarized run would meter them differently;
/// * no execution-tree capture (the tree renders flattened nodes).
///
/// Directed (DiSE) runs and the regression application always inline:
/// their affected-location analysis is defined over the flattened CFG.
pub(crate) fn applicable(program: &Program, proc_name: &str, exec: &ExecConfig) -> bool {
    exec.summaries.enabled()
        && exec.depth_bound.is_none()
        && exec.max_states.is_none()
        && !exec.record_tree
        && contains_calls(program, proc_name)
}

/// Resolves a summary for every direct callee of `proc_name`, reusing
/// `carried` (previous hop) and `stored` (store snapshots) where the
/// fingerprints allow. Returns `None` — fall back to inlining — when any
/// callee cannot be fingerprinted or summarized.
pub(crate) fn prepare(
    program: &Program,
    proc_name: &str,
    exec: &ExecConfig,
    stored: &[SummarySnapshot],
    carried: Option<&SummaryTable>,
) -> Option<PreparedSummaries> {
    let graph = CallGraph::new(program);
    let callees: Vec<&str> = graph.callees(proc_name).collect();
    if callees.is_empty() {
        return None;
    }
    let mut fingerprints = BTreeMap::new();
    for callee in &callees {
        // Recursion (or a call to a missing procedure) surfaces here,
        // before any exploration is attempted.
        let fp = proc_fingerprint(program, callee).ok()?;
        fingerprints.insert((*callee).to_string(), fp);
    }

    // Tier 1: the carried table, invalidated against the fresh
    // fingerprints — an unchanged callee survives the hop.
    let mut survivors = carried.cloned().unwrap_or_default();
    let reused_in_memory = if survivors.is_empty() {
        0
    } else {
        survivors.retain_matching(&fingerprints)
    };

    let solver_key = exec.solver.cache_key();
    let mut table = SummaryTable::new();
    let mut revived_from_store = 0;
    let mut built = 0;
    for callee in &callees {
        let fingerprint = fingerprints[*callee];
        if let Some(summary) = survivors.get(callee) {
            table.insert(Arc::clone(summary));
            continue;
        }
        // Tier 2: a store snapshot with matching fingerprint AND solver
        // key — differently budgeted solvers must not share verdicts.
        if let Some(snap) = stored.iter().find(|s| {
            s.proc_name == *callee && s.fingerprint == fingerprint && s.solver_key == solver_key
        }) {
            table.insert(Arc::new(ProcSummary {
                snap: snap.clone(),
                build_stats: Default::default(),
            }));
            revived_from_store += 1;
            continue;
        }
        // Tier 3: explore the callee once.
        match build_summary(program, callee, fingerprint, exec) {
            Ok(summary) => {
                table.insert(Arc::new(summary));
                built += 1;
            }
            Err(_) => return None,
        }
    }
    Some(PreparedSummaries {
        table: Arc::new(table),
        reused_in_memory,
        revived_from_store,
        built,
    })
}

/// Full exploration of the *unflattened* `program` with calls dispatched
/// through `table`. Returns `None` — fall back to inlining — when the
/// summary-mode executor cannot be constructed (e.g. a call-bearing
/// procedure whose callee the table does not cover).
pub(crate) fn full_with_summaries(
    program: &Program,
    proc_name: &str,
    exec: &ExecConfig,
    table: Arc<SummaryTable>,
) -> Option<SymbolicSummary> {
    let mut executor = Executor::with_summaries(program, proc_name, exec.clone(), table).ok()?;
    Some(executor.explore(&mut FullExploration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;
    use dise_symexec::SummaryMode;

    const CALLS: &str = "int g;
        proc bump(int v) { if (v > 0) { g = g + v; } }
        proc main(int a, int b) { bump(a); bump(b); }";

    fn exec(mode: SummaryMode) -> ExecConfig {
        ExecConfig {
            summaries: mode,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn gates_refuse_bounded_or_call_free_runs() {
        let program = parse_program(CALLS).unwrap();
        let on = exec(SummaryMode::On);
        assert!(applicable(&program, "main", &on));
        assert!(!applicable(&program, "bump", &on), "no calls to summarize");
        assert!(!applicable(&program, "main", &exec(SummaryMode::Off)));
        let bounded = ExecConfig {
            depth_bound: Some(10),
            ..on.clone()
        };
        assert!(!applicable(&program, "main", &bounded));
        let capped = ExecConfig {
            max_states: Some(10),
            ..on.clone()
        };
        assert!(!applicable(&program, "main", &capped));
        let tree = ExecConfig {
            record_tree: true,
            ..on
        };
        assert!(!applicable(&program, "main", &tree));
    }

    #[test]
    fn prepare_builds_once_and_reuses_across_hops() {
        let program = parse_program(CALLS).unwrap();
        let cfg = exec(SummaryMode::On);
        let first = prepare(&program, "main", &cfg, &[], None).expect("summarizable");
        assert_eq!(first.built, 1);
        assert_eq!(first.reused(), 0);

        // Same program next hop: the carried table survives wholesale.
        let second =
            prepare(&program, "main", &cfg, &[], Some(&first.table)).expect("summarizable");
        assert_eq!(second.built, 0);
        assert_eq!(second.reused_in_memory, 1);

        // The callee changed: the carried entry is invalidated, rebuilt.
        let changed = parse_program(&CALLS.replace("g + v", "g + v + 1")).unwrap();
        let third = prepare(&changed, "main", &cfg, &[], Some(&first.table)).expect("summarizable");
        assert_eq!(third.built, 1);
        assert_eq!(third.reused(), 0);
    }

    #[test]
    fn store_snapshots_revive_without_building() {
        let program = parse_program(CALLS).unwrap();
        let cfg = exec(SummaryMode::On);
        let first = prepare(&program, "main", &cfg, &[], None).unwrap();
        let snaps: Vec<SummarySnapshot> = first.table.iter().map(|s| s.snap.clone()).collect();
        let revived = prepare(&program, "main", &cfg, &snaps, None).unwrap();
        assert_eq!(revived.revived_from_store, 1);
        assert_eq!(revived.built, 0);

        // A solver-key skew blocks revival; the summary is rebuilt.
        let mut skewed = cfg.clone();
        skewed.solver.case_budget = 7;
        let rebuilt = prepare(&program, "main", &skewed, &snaps, None).unwrap();
        assert_eq!(rebuilt.revived_from_store, 0);
        assert_eq!(rebuilt.built, 1);
    }

    #[test]
    fn recursion_falls_back_to_inlining() {
        let program = parse_program(
            "proc rec(int x) { if (x > 0) { rec(x); } }
             proc main(int a) { rec(a); }",
        )
        .unwrap();
        assert!(prepare(&program, "main", &exec(SummaryMode::On), &[], None).is_none());
    }
}
