//! Plain-text table rendering, shared by the trace renderers and the
//! benchmark harness (which regenerates the paper's tables on stdout),
//! plus the solver-activity line for the CLI.

use std::collections::BTreeSet;
use std::time::Duration;

use dise_cfg::NodeId;
use dise_trace::MetricsRegistry;

/// A simple fixed-width text table: header row, separator, data rows.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> TextTable {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row. Short rows are padded with empty cells; long
    /// rows are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column-aligned padding:
    ///
    /// ```text
    /// A   | B
    /// ----+---
    /// 1   | 2
    /// ```
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', widths[i] - cell.len()));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        for (i, width) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("-+-");
            }
            out.extend(std::iter::repeat_n('-', *width));
        }
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

/// Formats a node set the way the paper prints them: `{n0, n2, n10}`.
pub fn node_set(set: &BTreeSet<NodeId>) -> String {
    let mut out = String::from("{");
    for (i, node) in set.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&node.to_string());
    }
    out.push('}');
    out
}

/// Formats a duration as the paper's `mm:ss` plus millisecond precision
/// for the sub-second runs our reproduction produces.
pub fn duration_mmss(d: std::time::Duration) -> String {
    let total_ms = d.as_millis();
    let minutes = total_ms / 60_000;
    let seconds = (total_ms % 60_000) / 1000;
    let millis = total_ms % 1000;
    format!("{minutes:02}:{seconds:02}.{millis:03}")
}

/// The deterministic verdict block of a directed run: one two-space
/// indented line per affected path condition. This is exactly what a
/// one-shot `dise run … --stats json` leaves on stdout once the
/// registry dumps are stripped (`grep -v '^{'`), so every consumer
/// that promises byte-identical verdicts — the CLI, `dise serve`
/// responses, CI diff legs — renders through this one function.
pub fn verdict_pc_block<T: std::fmt::Display>(pcs: impl IntoIterator<Item = T>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for pc in pcs {
        let _ = writeln!(out, "  {pc}");
    }
    out
}

/// One-line summary of solver activity for the CLI: total checks, how many
/// ran the decision pipeline, and the combined prefix-trie hit rate. Reads
/// the `solver.*` metrics of a registry built by
/// [`crate::metrics::exec_registry`].
pub fn solver_stats_line(reg: &MetricsRegistry) -> String {
    let checks = reg.counter("solver.checks");
    let hits = reg.counter("solver.prefix_cache_hits") + reg.counter("solver.prefix_unsat_kills");
    let hit_rate = if checks == 0 {
        "n/a".to_string()
    } else {
        format!("{:.0}%", hits as f64 / checks as f64 * 100.0)
    };
    format!(
        "{} checks ({} incremental, {} model-reuse), \
         {} prefix-trie hits, {} unsat-prefix kills, hit rate {}",
        checks,
        reg.counter("solver.incremental_checks"),
        reg.counter("solver.model_reuse_hits"),
        reg.counter("solver.prefix_cache_hits"),
        reg.counter("solver.prefix_unsat_kills"),
        hit_rate,
    )
}

/// One-line summary of procedure-summary activity for the CLI's
/// `summaries:` line: call-site dispatches, summary paths instantiated,
/// how many successors the witness fast path admitted without running a
/// decision pipeline (and the solver's matching `assumed-sat` count),
/// and the pipeline checks the fallbacks cost. Returns `None` when the
/// run used no summaries (inlined mode, or a call-free procedure).
/// Reads the `summary.*` and `solver.*` metrics of a registry built by
/// [`crate::metrics::exec_registry`].
pub fn summary_stats_line(reg: &MetricsRegistry) -> Option<String> {
    let call_sites = reg.counter("summary.call_sites");
    if call_sites == 0 {
        return None;
    }
    Some(format!(
        "{} call sites, {} paths instantiated, {} witness-verified \
         ({} assumed sat), {} fallback pipeline checks",
        call_sites,
        reg.counter("summary.paths_instantiated"),
        reg.counter("summary.hint_verified"),
        reg.counter("solver.assumed_sat"),
        reg.counter("summary.fallback_checks"),
    ))
}

/// One-line per-stage timing breakdown for the CLI's `stages:` line —
/// flatten / diff / affected / explore in milliseconds, so stage reuse
/// (a ~0 ms entry on the second consumer of a session) is visible
/// without running the benchmark. Reads the `stage.*_ns` metrics of a
/// registry built by [`crate::metrics::stage_registry`].
pub fn stage_stats_line(reg: &MetricsRegistry) -> String {
    let ms = |name: &str| format!("{:.1}", reg.counter(name) as f64 / 1e6);
    format!(
        "flatten {} ms, diff {} ms, affected {} ms, explore {} ms",
        ms("stage.flatten_ns"),
        ms("stage.diff_ns"),
        ms("stage.affected_ns"),
        ms("stage.explore_ns"),
    )
}

/// One-line split of the explore stage for `dise profile`: time spent on
/// the solver (pushing, deciding and popping branch literals), in the
/// strategy's filter, and stepping states (the remainder), in
/// milliseconds, then the stage's cost per explored state. Reads the
/// `stage.explore*` metrics of a registry built by
/// [`crate::metrics::stage_registry`]; the split is only measured on
/// traced runs. `states` is the directed run's explored-state count.
pub fn explore_split_line(reg: &MetricsRegistry, states: u64) -> String {
    let explore = reg.counter("stage.explore_ns");
    let solver = reg.counter("stage.explore.solver_ns");
    let filter = reg.counter("stage.explore.filter_ns");
    let stepping = explore.saturating_sub(solver + filter);
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
    format!(
        "solver {} ms, filter {} ms, stepping {} ms (of {} ms), {}",
        ms(solver),
        ms(filter),
        ms(stepping),
        ms(explore),
        per_state(explore, states),
    )
}

/// One-line cost of a full exploration for `dise profile --full`: its
/// elapsed time and the time per explored state.
pub fn full_explore_line(elapsed: Duration, states: u64) -> String {
    let ns = elapsed.as_nanos() as u64;
    format!("{:.1} ms, {}", ns as f64 / 1e6, per_state(ns, states))
}

/// `ns` spread over `states` states, in microseconds per state.
fn per_state(ns: u64, states: u64) -> String {
    let us = match states {
        0 => 0.0,
        _ => ns as f64 / 1e3 / states as f64,
    };
    format!("{us:.2} µs/state over {states} states")
}

/// One-line summary of persistent-store activity for the CLI: what was
/// restored, what was reused, whether the run was recorded back, and any
/// degradation warning (shown separately on stderr by the CLI). Reads
/// the `store.*` metrics of a registry built by
/// [`crate::metrics::store_registry`]; returns `None` when the registry
/// carries no store activity (no store was configured).
pub fn store_stats_line(reg: &MetricsRegistry) -> Option<String> {
    if !reg.flag("store.configured") {
        return None;
    }
    let mut parts = Vec::new();
    let warm_trie_entries = reg.counter("store.warm_trie_entries");
    if warm_trie_entries > 0 {
        parts.push(format!(
            "warm start ({warm_trie_entries} trie prefixes restored)"
        ));
    } else {
        parts.push("cold start".to_string());
    }
    if reg.flag("store.affected_reused") {
        parts.push("affected sets reused".to_string());
    }
    let summaries_reused = reg.counter("store.summaries_reused");
    if summaries_reused > 0 {
        parts.push(format!(
            "{} procedure summar{} reused",
            summaries_reused,
            if summaries_reused == 1 { "y" } else { "ies" }
        ));
    }
    parts.push(if reg.flag("store.saved") {
        "saved".to_string()
    } else {
        "not saved".to_string()
    });
    Some(parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Version".into(), "PCs".into()]);
        t.row(vec!["v1".into(), "1728".into()]);
        t.row(vec!["v10".into(), "3".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Version | PCs"));
        assert!(lines[1].starts_with("--------+----"));
        assert!(lines[2].starts_with("v1      | 1728"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["A".into(), "B".into(), "C".into()]);
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.lines().count() == 3);
    }

    #[test]
    fn node_set_formats_like_paper() {
        let set: BTreeSet<NodeId> = [NodeId(0), NodeId(2), NodeId(10)].into_iter().collect();
        assert_eq!(node_set(&set), "{n0, n2, n10}");
        assert_eq!(node_set(&BTreeSet::new()), "{}");
    }

    #[test]
    fn solver_stats_line_summarizes_activity() {
        use crate::metrics::exec_registry;
        use dise_symexec::ExecStats;
        let mut stats = ExecStats::default();
        stats.solver.checks = 10;
        stats.solver.incremental_checks = 6;
        stats.solver.model_reuse_hits = 4;
        stats.solver.prefix_cache_hits = 2;
        stats.solver.prefix_unsat_kills = 1;
        let line = solver_stats_line(&exec_registry(&stats));
        assert!(line.contains("10 checks"), "{line}");
        assert!(line.contains("6 incremental"), "{line}");
        assert!(line.contains("hit rate 30%"), "{line}");
        assert!(line.contains("2 prefix-trie hits"), "{line}");
        assert_eq!(
            solver_stats_line(&exec_registry(&ExecStats::default())),
            "0 checks (0 incremental, 0 model-reuse), \
             0 prefix-trie hits, 0 unsat-prefix kills, hit rate n/a"
        );
        // An empty registry renders the same quiescent line.
        assert_eq!(
            solver_stats_line(&MetricsRegistry::new()),
            solver_stats_line(&exec_registry(&ExecStats::default())),
        );
    }

    #[test]
    fn stage_stats_line_prints_milliseconds() {
        use crate::metrics::stage_registry;
        use crate::session::StageTimings;
        let stages = StageTimings {
            flatten: Duration::from_micros(150),
            diff: Duration::from_millis(2),
            affected: Duration::from_micros(4500),
            explore: Duration::from_millis(120),
            ..StageTimings::default()
        };
        let line = stage_stats_line(&stage_registry(&stages));
        assert_eq!(
            line,
            "flatten 0.1 ms, diff 2.0 ms, affected 4.5 ms, explore 120.0 ms"
        );
        assert_eq!(stages.analysis(), Duration::from_micros(6650));
        assert_eq!(stages.total(), Duration::from_micros(126_650));
    }

    #[test]
    fn explore_split_line_reports_the_remainder_as_stepping() {
        use crate::metrics::stage_registry;
        use crate::session::StageTimings;
        let stages = StageTimings {
            explore: Duration::from_millis(30),
            explore_solver: Duration::from_millis(12),
            explore_filter: Duration::from_micros(2500),
            ..StageTimings::default()
        };
        assert_eq!(
            explore_split_line(&stage_registry(&stages), 4000),
            "solver 12.0 ms, filter 2.5 ms, stepping 15.5 ms (of 30.0 ms), \
             7.50 µs/state over 4000 states"
        );
        assert_eq!(
            full_explore_line(Duration::from_micros(8800), 1100),
            "8.8 ms, 8.00 µs/state over 1100 states"
        );
        assert!(explore_split_line(&stage_registry(&stages), 0)
            .ends_with("0.00 µs/state over 0 states"));
    }

    #[test]
    fn store_stats_line_covers_the_states() {
        use crate::dise::StoreStatus;
        use crate::metrics::store_registry;
        // No store activity in the registry → no line at all.
        assert_eq!(store_stats_line(&MetricsRegistry::new()), None);
        let cold = StoreStatus::default();
        assert_eq!(
            store_stats_line(&store_registry(&cold)).unwrap(),
            "cold start, not saved"
        );
        let warm = StoreStatus {
            warm_trie_entries: 17,
            affected_reused: true,
            summaries_reused: 2,
            saved: true,
            warning: None,
        };
        let line = store_stats_line(&store_registry(&warm)).unwrap();
        assert!(
            line.contains("warm start (17 trie prefixes restored)"),
            "{line}"
        );
        assert!(line.contains("affected sets reused"), "{line}");
        assert!(line.contains("2 procedure summaries reused"), "{line}");
        assert!(line.ends_with("saved"), "{line}");
    }

    #[test]
    fn summary_stats_line_is_silent_without_summaries() {
        use crate::metrics::exec_registry;
        use dise_symexec::ExecStats;
        assert_eq!(
            summary_stats_line(&exec_registry(&ExecStats::default())),
            None
        );
        let mut stats = ExecStats::default();
        stats.summary.call_sites = 3;
        stats.summary.paths_instantiated = 6;
        stats.summary.hint_verified = 6;
        stats.summary.fallback_checks = 0;
        stats.solver.assumed_sat = 6;
        let line = summary_stats_line(&exec_registry(&stats)).unwrap();
        assert!(line.contains("3 call sites"), "{line}");
        assert!(line.contains("6 paths instantiated"), "{line}");
        assert!(
            line.contains("6 witness-verified (6 assumed sat)"),
            "{line}"
        );
        assert!(line.contains("0 fallback pipeline checks"), "{line}");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(
            duration_mmss(std::time::Duration::from_millis(17 * 60_000 + 19_000)),
            "17:19.000"
        );
        assert_eq!(
            duration_mmss(std::time::Duration::from_millis(215)),
            "00:00.215"
        );
    }
}
