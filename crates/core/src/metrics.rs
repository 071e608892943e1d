//! Registry builders: project the pipeline's stats structs onto the
//! typed [`MetricsRegistry`] from `dise-trace`, so the CLI lines, the
//! `--stats json` dump, and the trace exporters all read one source of
//! truth.
//!
//! # Naming scheme
//!
//! Metrics are namespaced by the subsystem that produced them:
//!
//! | prefix      | source                      | stability |
//! |-------------|-----------------------------|-----------|
//! | `exec.*`    | [`ExecStats`] path counters | stable¹   |
//! | `solver.*`  | `SolverStats`               | volatile  |
//! | `summary.*` | `SummaryStats` (via exec)   | volatile  |
//! | `stage.*`   | [`StageTimings`] (ns)       | volatile  |
//! | `pipeline.*`| [`DiseResult`] structure    | stable    |
//! | `affected.*`| [`FixpointStats`]           | stable    |
//! | `store.*`   | [`StoreStatus`]             | stable¹   |
//!
//! ¹ except `exec.elapsed_ns`, and `exec.warm_trie_entries` and
//! `store.warm_trie_entries`, whose values depend on what an earlier run
//! recorded (a warm store or an earlier pipeline stage).
//!
//! [`FixpointStats`]: crate::affected::FixpointStats
//!
//! # The determinism contract
//!
//! **Stable** metrics are structural facts of the analysis — states,
//! paths, changed/affected nodes, path-condition counts — and are
//! byte-identical across warm and cold stores and with summaries on or
//! off; the determinism tests and the CI byte-diff legs compare exactly
//! [`MetricsRegistry::stable_json`]. **Volatile** metrics (solver
//! attribution, warm-start sizes, timings) are real but depend on
//! caching and the clock.

use dise_symexec::ExecStats;
use dise_trace::{MetricsRegistry, Stability};

use crate::dise::{DiseResult, StoreStatus};
use crate::session::StageTimings;

/// Projects an exploration's [`ExecStats`] (including its nested
/// solver and summary stats) onto a registry.
pub fn exec_registry(stats: &ExecStats) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    // Structural path counters: identical across warm and cold runs.
    reg.set_counter(
        "exec.states_explored",
        stats.states_explored,
        Stability::Stable,
    );
    reg.set_counter(
        "exec.paths_completed",
        stats.paths_completed,
        Stability::Stable,
    );
    reg.set_counter("exec.paths_error", stats.paths_error, Stability::Stable);
    reg.set_counter(
        "exec.paths_depth_bounded",
        stats.paths_depth_bounded,
        Stability::Stable,
    );
    reg.set_counter("exec.infeasible", stats.infeasible, Stability::Stable);
    reg.set_counter("exec.pruned", stats.pruned, Stability::Stable);
    reg.set_flag("exec.truncated", stats.truncated, Stability::Stable);
    reg.set_counter(
        "exec.elapsed_ns",
        stats.elapsed.as_nanos() as u64,
        Stability::Volatile,
    );
    reg.set_counter(
        "exec.warm_trie_entries",
        stats.warm_trie_entries,
        Stability::Volatile,
    );

    // Solver attribution: which tier answered varies with warm state.
    let s = &stats.solver;
    reg.set_counter("solver.checks", s.checks, Stability::Volatile);
    reg.set_counter(
        "solver.incremental_checks",
        s.incremental_checks,
        Stability::Volatile,
    );
    reg.set_counter(
        "solver.fallback_checks",
        s.fallback_checks,
        Stability::Volatile,
    );
    reg.set_counter("solver.cache_hits", s.cache_hits, Stability::Volatile);
    reg.set_counter(
        "solver.prefix_cache_hits",
        s.prefix_cache_hits,
        Stability::Volatile,
    );
    reg.set_counter(
        "solver.prefix_unsat_kills",
        s.prefix_unsat_kills,
        Stability::Volatile,
    );
    reg.set_counter(
        "solver.model_reuse_hits",
        s.model_reuse_hits,
        Stability::Volatile,
    );
    reg.set_counter(
        "solver.cache_evictions",
        s.cache_evictions,
        Stability::Volatile,
    );
    reg.set_counter("solver.assumed_sat", s.assumed_sat, Stability::Volatile);
    reg.set_counter(
        "solver.model_searches",
        s.model_searches,
        Stability::Volatile,
    );
    reg.set_counter("solver.fm_runs", s.fm_runs, Stability::Volatile);
    reg.set_counter("solver.sat", s.sat, Stability::Volatile);
    reg.set_counter("solver.unsat", s.unsat, Stability::Volatile);
    reg.set_counter("solver.unknown", s.unknown, Stability::Volatile);

    // Summary instantiation: counts follow the exploration order.
    let m = &stats.summary;
    reg.set_counter("summary.call_sites", m.call_sites, Stability::Volatile);
    reg.set_counter(
        "summary.paths_instantiated",
        m.paths_instantiated,
        Stability::Volatile,
    );
    reg.set_counter(
        "summary.hint_verified",
        m.hint_verified,
        Stability::Volatile,
    );
    reg.set_counter(
        "summary.fallback_checks",
        m.fallback_checks,
        Stability::Volatile,
    );
    reg
}

/// Projects per-stage wall-clock timings onto `stage.*_ns` metrics
/// (always volatile — it's the clock).
pub fn stage_registry(stages: &StageTimings) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let ns = |d: std::time::Duration| d.as_nanos() as u64;
    reg.set_counter("stage.flatten_ns", ns(stages.flatten), Stability::Volatile);
    reg.set_counter("stage.diff_ns", ns(stages.diff), Stability::Volatile);
    reg.set_counter(
        "stage.affected_ns",
        ns(stages.affected),
        Stability::Volatile,
    );
    let parts = &stages.affected_parts;
    for (name, spent) in [
        ("seeds", parts.seeds),
        ("postdom", parts.postdom),
        ("control_deps", parts.control_deps),
        ("defuse", parts.defuse),
        ("reach", parts.reach),
        ("fixpoint", parts.fixpoint),
    ] {
        reg.set_counter(
            &format!("stage.affected.{name}_ns"),
            ns(spent),
            Stability::Volatile,
        );
    }
    reg.set_counter("stage.explore_ns", ns(stages.explore), Stability::Volatile);
    // The explore split is measured on traced runs only; untraced
    // registries (and the serve responses built from them) leave it out.
    if !(stages.explore_solver + stages.explore_filter).is_zero() {
        reg.set_counter(
            "stage.explore.solver_ns",
            ns(stages.explore_solver),
            Stability::Volatile,
        );
        reg.set_counter(
            "stage.explore.filter_ns",
            ns(stages.explore_filter),
            Stability::Volatile,
        );
    }
    reg.set_counter(
        "pipeline.analysis_ns",
        ns(stages.analysis()),
        Stability::Volatile,
    );
    reg.set_counter("pipeline.total_ns", ns(stages.total()), Stability::Volatile);
    reg
}

/// Projects persistent-store activity onto `store.*` metrics. The reuse
/// flags and counts are structural (they describe what the store held
/// for this version pair); the warm-trie entry count depends on what an
/// earlier run recorded and is volatile.
pub fn store_registry(status: &StoreStatus) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_flag("store.configured", true, Stability::Stable);
    reg.set_counter(
        "store.warm_trie_entries",
        status.warm_trie_entries,
        Stability::Volatile,
    );
    reg.set_flag(
        "store.affected_reused",
        status.affected_reused,
        Stability::Stable,
    );
    reg.set_counter(
        "store.summaries_reused",
        status.summaries_reused,
        Stability::Stable,
    );
    reg.set_flag("store.saved", status.saved, Stability::Stable);
    reg
}

/// The whole pipeline's registry: exploration stats, stage timings,
/// pipeline structure (changed/affected node counts, path-condition
/// count), and store activity when a store was configured.
pub fn result_registry(result: &DiseResult) -> MetricsRegistry {
    let mut reg = exec_registry(result.summary.stats());
    reg.set_counter(
        "pipeline.pc_count",
        result.summary.pc_count() as u64,
        Stability::Stable,
    );
    reg.set_counter(
        "pipeline.changed_nodes",
        result.changed_nodes as u64,
        Stability::Stable,
    );
    reg.set_counter(
        "pipeline.affected_nodes",
        result.affected_nodes as u64,
        Stability::Stable,
    );
    let fixpoint = result.affected.stats();
    reg.set_counter(
        "affected.nodes_added",
        fixpoint.nodes_added,
        Stability::Stable,
    );
    reg.set_counter("affected.phases", fixpoint.phases, Stability::Stable);
    reg.merge(&stage_registry(&result.stages));
    if let Some(status) = &result.store {
        reg.merge(&store_registry(status));
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_registry_classifies_structure_as_stable() {
        let mut stats = ExecStats {
            states_explored: 12,
            ..ExecStats::default()
        };
        stats.solver.checks = 7;
        let reg = exec_registry(&stats);
        let stable = reg.stable_json();
        assert!(stable.contains("\"exec.states_explored\":12"), "{stable}");
        assert!(!stable.contains("solver."), "{stable}");
        let volatile = reg.volatile_json();
        assert!(volatile.contains("\"solver.checks\":7"), "{volatile}");
    }

    #[test]
    fn store_registry_marks_configuration() {
        let status = StoreStatus {
            warm_trie_entries: 3,
            summaries_reused: 2,
            saved: true,
            ..StoreStatus::default()
        };
        let reg = store_registry(&status);
        assert!(reg.flag("store.configured"));
        assert!(reg.flag("store.saved"));
        assert_eq!(reg.counter("store.summaries_reused"), 2);
        // Warm-trie counts depend on the writer's schedule.
        assert!(!reg.stable_json().contains("warm_trie_entries"));
    }

    #[test]
    fn stage_registry_totals_compose() {
        use std::time::Duration;
        let stages = StageTimings {
            flatten: Duration::from_micros(150),
            diff: Duration::from_millis(2),
            affected: Duration::from_micros(4500),
            explore: Duration::from_millis(120),
            ..StageTimings::default()
        };
        let reg = stage_registry(&stages);
        assert_eq!(reg.counter("pipeline.analysis_ns"), 6_650_000);
        assert_eq!(reg.counter("pipeline.total_ns"), 126_650_000);
    }
}
