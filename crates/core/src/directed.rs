//! Directed symbolic execution (§3.3, Fig. 6).
//!
//! [`DirectedStrategy`] plugs into the [`dise_symexec`] engine through the
//! [`Strategy`] hooks and implements the paper's pseudocode verbatim:
//!
//! * four global sets — `ExCond`, `ExWrite` (explored) and `UnExCond`,
//!   `UnExWrite` (unexplored), initialized from `ACN`/`AWN`;
//! * `UpdateExploredSet` on every state entry ([`Strategy::on_enter`]);
//! * `AffectedLocIsReachable` on every feasible successor
//!   ([`Strategy::should_explore`]): the successor is explored only if it
//!   can still reach an unexplored affected node; explored nodes reachable
//!   from that unexplored node are *reset* to unexplored so every affected
//!   node sequence gets its one witness path (Theorem 3.10);
//! * `CheckLoops`: entering a loop-entry node resets the explored members
//!   of its strongly connected component.
//!
//! With trace capture enabled, every `on_enter` appends a Table 1-style
//! row (the current state sequence plus the four sets).

use std::collections::BTreeSet;

use dise_cfg::{Cfg, NodeId, Reachability, Sccs};
use dise_symexec::Strategy;

use crate::affected::AffectedSets;

/// One row of the Table 1 trace: the state sequence and the four sets
/// right after `UpdateExploredSet` ran for the entered node.
#[derive(Debug, Clone)]
pub struct DirectedTraceRow {
    /// CFG nodes of the current symbolic-state path, root to current.
    pub state_seq: Vec<NodeId>,
    /// `ExWrite` after the update.
    pub ex_write: BTreeSet<NodeId>,
    /// `ExCond` after the update.
    pub ex_cond: BTreeSet<NodeId>,
    /// `UnExWrite` after the update.
    pub unex_write: BTreeSet<NodeId>,
    /// `UnExCond` after the update.
    pub unex_cond: BTreeSet<NodeId>,
}

/// A node set as bitset words over node indices (the layout of a
/// [`Reachability::row`]).
type Words = Vec<u64>;

fn has(words: &[u64], n: NodeId) -> bool {
    words[n.index() / 64] & (1 << (n.index() % 64)) != 0
}

fn insert(words: &mut [u64], n: NodeId) {
    words[n.index() / 64] |= 1 << (n.index() % 64);
}

fn remove(words: &mut [u64], n: NodeId) -> bool {
    let present = has(words, n);
    words[n.index() / 64] &= !(1 << (n.index() % 64));
    present
}

/// The nodes of `word`, the `w`-th word of a set.
fn word_members(w: usize, mut word: u64) -> impl Iterator<Item = NodeId> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            NodeId((w * 64 + bit) as u32)
        })
    })
}

fn to_set(words: &[u64]) -> BTreeSet<NodeId> {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| word_members(w, word))
        .collect()
}

/// Moves `nodes` that are in `from` over to `to`.
fn transfer(from: &mut [u64], to: &mut [u64], w: usize, nodes: u64) {
    let moved = from[w] & nodes;
    from[w] &= !moved;
    to[w] |= moved;
}

/// The Fig. 6 exploration strategy.
///
/// The four sets are bitsets over node indices, so `AffectedLocIsReachable`
/// works a word at a time against the shared [`Reachability`] rows; they
/// become `BTreeSet`s only in Table 1 trace rows.
///
/// Deliberately not forkable ([`Strategy::fork`] keeps its `None`
/// default): the explored-set resets depend on which sibling subtree ran
/// first, so forked copies would diverge from the serial result. The
/// executor therefore runs it serially at any `jobs`.
#[derive(Debug, Clone)]
pub struct DirectedStrategy<'r> {
    reach: &'r Reachability,
    sccs: Sccs,
    /// Terminal nodes (exit / assertion-error): path conditions are
    /// emitted when a path terminates, so these bypass the
    /// `AffectedLocIsReachable` filter — under a literal reading the exit
    /// node can never "reach an unexplored affected node" and no path
    /// would ever complete, contradicting the paper's own Table 1 run
    /// (which emits seven fully-formed path conditions).
    terminal: Vec<bool>,
    ex_cond: Words,
    ex_write: Words,
    unex_cond: Words,
    unex_write: Words,
    /// Scratch for `should_explore`: `(word, explored nodes of the word
    /// not yet known to need a reset, nodes to reset)`.
    pending: Vec<(usize, u64, u64)>,
    current_path: Vec<NodeId>,
    trace: Option<Vec<DirectedTraceRow>>,
}

impl<'r> DirectedStrategy<'r> {
    /// Builds the strategy for `cfg` from the affected sets and the
    /// CFG's reachability closure (the one the affected stage built).
    /// Non-write affected "steering" nodes (see [`crate::affected`]) live
    /// in the write sets, matching their `AWN` seeding.
    pub fn new(
        cfg: &Cfg,
        affected: &AffectedSets,
        reach: &'r Reachability,
        record_trace: bool,
    ) -> DirectedStrategy<'r> {
        let mut terminal = vec![false; cfg.len()];
        for n in cfg.node_ids() {
            use dise_cfg::NodeKind;
            terminal[n.index()] =
                matches!(cfg.node(n).kind, NodeKind::End | NodeKind::Error { .. });
        }
        let empty = vec![0; cfg.len().div_ceil(64)];
        let mut unex_cond = empty.clone();
        let mut unex_write = empty.clone();
        for &n in affected.acn() {
            insert(&mut unex_cond, n);
        }
        for &n in affected.awn() {
            insert(&mut unex_write, n);
        }
        DirectedStrategy {
            reach,
            sccs: Sccs::new(cfg),
            terminal,
            ex_cond: empty.clone(),
            ex_write: empty,
            unex_cond,
            unex_write,
            pending: Vec::new(),
            current_path: Vec::new(),
            trace: record_trace.then(Vec::new),
        }
    }

    /// The captured Table 1 trace (empty unless enabled).
    pub fn trace(&self) -> &[DirectedTraceRow] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Renders the captured trace as a Table 1-style text table.
    pub fn render_trace(&self) -> String {
        let mut table = crate::report::TextTable::new(vec![
            "CFG Nodes for symbolic states".into(),
            "ExWrite".into(),
            "ExCond".into(),
            "UnExWrite".into(),
            "UnExCond".into(),
        ]);
        for row in self.trace() {
            let seq = row
                .state_seq
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            table.row(vec![
                format!("<{seq}>"),
                crate::report::node_set(&row.ex_write),
                crate::report::node_set(&row.ex_cond),
                crate::report::node_set(&row.unex_write),
                crate::report::node_set(&row.unex_cond),
            ]);
        }
        table.render()
    }

    /// `ResetUnExploredSet` (Fig. 6 lines 37–42).
    fn reset_unexplored(&mut self, n: NodeId) {
        if remove(&mut self.ex_write, n) {
            insert(&mut self.unex_write, n);
        }
        if remove(&mut self.ex_cond, n) {
            insert(&mut self.unex_cond, n);
        }
    }

    /// `UpdateExploredSet` (Fig. 6 lines 30–35).
    fn update_explored(&mut self, n: NodeId) {
        if remove(&mut self.unex_write, n) {
            insert(&mut self.ex_write, n);
        }
        if remove(&mut self.unex_cond, n) {
            insert(&mut self.ex_cond, n);
        }
    }

    /// `CheckLoops` (Fig. 6 lines 26–28).
    fn check_loops(&mut self, n: NodeId) {
        if self.sccs.is_loop_entry(n) {
            for &member in self.sccs.scc_of(n).to_vec().iter() {
                self.reset_unexplored(member);
            }
        }
    }
}

impl Strategy for DirectedStrategy<'_> {
    fn on_enter(&mut self, node: NodeId) {
        self.update_explored(node);
        self.current_path.push(node);
        if let Some(trace) = &mut self.trace {
            trace.push(DirectedTraceRow {
                state_seq: self.current_path.clone(),
                ex_write: to_set(&self.ex_write),
                ex_cond: to_set(&self.ex_cond),
                unex_write: to_set(&self.unex_write),
                unex_cond: to_set(&self.unex_cond),
            });
        }
    }

    fn on_leave(&mut self, _node: NodeId) {
        self.current_path.pop();
    }

    /// `AffectedLocIsReachable` (Fig. 6 lines 13–24): is some unexplored
    /// node `nj` reachable from `node`? Every explored `nk` such an `nj`
    /// reaches is reset to unexplored. The resets are decided against the
    /// sets as they were on entry and applied at the end, as the paper's
    /// loop over snapshots does. An `nk` reached from `nj` is reached
    /// from `node` too, so only explored nodes in `node`'s row can reset,
    /// and the scan stops once all of them have.
    fn should_explore(&mut self, node: NodeId) -> bool {
        // A path that has come this far emits its path condition when it
        // terminates; terminal states are never filtered.
        if self.terminal[node.index()] {
            return true;
        }
        self.check_loops(node);
        let row = self.reach.row(node);
        let mut is_reachable = false;
        self.pending.clear();
        for (w, &reached) in row.iter().enumerate() {
            if (self.unex_write[w] | self.unex_cond[w]) & reached != 0 {
                is_reachable = true;
            }
            let explored = (self.ex_write[w] | self.ex_cond[w]) & reached;
            if explored != 0 {
                self.pending.push((w, explored, 0));
            }
        }
        if !is_reachable || self.pending.is_empty() {
            return is_reachable;
        }
        let mut open = self.pending.len();
        'scan: for (w, &reached) in row.iter().enumerate() {
            let unexplored = (self.unex_write[w] | self.unex_cond[w]) & reached;
            for nj in word_members(w, unexplored) {
                let nj_row = self.reach.row(nj);
                for (pw, left, reset) in self.pending.iter_mut() {
                    let hit = *left & nj_row[*pw];
                    if hit != 0 {
                        *reset |= hit;
                        *left &= !hit;
                        if *left == 0 {
                            open -= 1;
                        }
                    }
                }
                if open == 0 {
                    break 'scan;
                }
            }
        }
        for &(w, _, reset) in &self.pending {
            transfer(&mut self.ex_write, &mut self.unex_write, w, reset);
            transfer(&mut self.ex_cond, &mut self.unex_cond, w, reset);
        }
        is_reachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affected::tests::{fig2_mod, paper_node};
    use crate::affected::{AffectedSets, DataflowPrecision};
    use dise_cfg::build_cfg;
    use dise_symexec::{ExecConfig, Executor, FullExploration};

    /// What a DiSE run on the Fig. 2 example leaves behind.
    struct Fig2Run {
        trace: Vec<DirectedTraceRow>,
        rendered: String,
        summary: dise_symexec::SymbolicSummary,
        cfg: Cfg,
    }

    /// Runs DiSE on the Fig. 2 example with the Table 1 trace on.
    fn run_fig2() -> Fig2Run {
        let base = crate::affected::tests::fig2_base();
        let modified = fig2_mod();
        let (cfg_base, cfg_mod, diff) =
            dise_diff::CfgDiff::from_programs(&base, &modified, "update").unwrap();
        let affected = crate::removed::affected_locations(
            &cfg_base,
            &cfg_mod,
            &diff,
            DataflowPrecision::CfgPath,
            false,
        );
        let reach = Reachability::new(&cfg_mod);
        let mut strategy = DirectedStrategy::new(&cfg_mod, &affected, &reach, true);
        let mut executor = Executor::new(&modified, "update", ExecConfig::default()).unwrap();
        let summary = executor.explore(&mut strategy);
        Fig2Run {
            trace: strategy.trace().to_vec(),
            rendered: strategy.render_trace(),
            summary,
            cfg: cfg_mod,
        }
    }

    #[test]
    fn fig2_dise_prunes_paths_versus_full() {
        let dise_summary = run_fig2().summary;
        let modified = fig2_mod();
        let mut executor = Executor::new(&modified, "update", ExecConfig::default()).unwrap();
        let full = executor.explore(&mut FullExploration);
        // §2.2: DiSE generates 7 path conditions versus 21 for full
        // symbolic execution. Our engine's exact counts are pinned by the
        // golden test below; the invariants here are the paper's claims.
        assert!(dise_summary.pc_count() < full.pc_count());
        assert!(dise_summary.stats().pruned > 0);
        assert!(dise_summary.stats().states_explored < full.stats().states_explored);
    }

    #[test]
    fn fig2_dise_path_count_golden() {
        let dise_summary = run_fig2().summary;
        // Golden value for our engine: 8 affected path conditions out of
        // 24 full ones — the paper reports 7 of 21 on its Java bytecode
        // artifact (same 3× reduction; the feasible affected sequences of
        // the MJ model are 3 first-block × {3,3,2} last-block options =
        // 8). See ARCHITECTURE.md, "Fidelity notes".
        assert_eq!(dise_summary.pc_count(), 8);
    }

    #[test]
    fn motivating_example_prunes_p1() {
        // §2.2: p0 = <n0,n1,n5,n6,n7,n10,n11> explored; p1, which differs
        // only in unaffected nodes <n6,n8,n9>, is pruned. Check that no two
        // DiSE paths have the same affected-node sequence.
        let Fig2Run {
            summary: dise_summary,
            cfg,
            ..
        } = run_fig2();
        let base = crate::affected::tests::fig2_base();
        let modified = fig2_mod();
        let (cfg_base, cfg_mod, diff) =
            dise_diff::CfgDiff::from_programs(&base, &modified, "update").unwrap();
        let affected = crate::removed::affected_locations(
            &cfg_base,
            &cfg_mod,
            &diff,
            DataflowPrecision::CfgPath,
            false,
        );
        let _ = cfg_mod;
        let mut seen = std::collections::BTreeSet::new();
        for path in dise_summary.paths() {
            let seq: Vec<NodeId> = path
                .trace
                .iter()
                .copied()
                .filter(|&n| affected.contains(n))
                .collect();
            assert!(
                seen.insert(seq.clone()),
                "duplicate affected sequence {seq:?} in {}",
                cfg.proc_name()
            );
        }
    }

    #[test]
    fn table1_trace_rows_match_paper_prefix() {
        let Fig2Run { trace, cfg, .. } = run_fig2();
        assert!(!trace.is_empty());
        // Row 2 of Table 1: state sequence <n0>, n0 moved to ExCond.
        // (Our row 2 includes the begin node in the state sequence; the
        // paper elides it.)
        let n0 = paper_node(&cfg, 0);
        let row = trace
            .iter()
            .find(|r| r.state_seq.last() == Some(&n0))
            .expect("n0 is entered");
        assert!(row.ex_cond.contains(&n0));
        assert!(!row.unex_cond.contains(&n0));
        // Initially unexplored: all seven AWN members (Table 1 row 1).
        let first = &trace[0];
        assert_eq!(first.unex_write.len(), 7);
        assert_eq!(first.unex_cond.len(), 4);
        assert!(first.ex_write.is_empty() && first.ex_cond.is_empty());
    }

    #[test]
    fn table1_reset_behaviour_on_backtrack_to_n2() {
        // Table 1 row 11: upon entering n2 after backtracking, explored
        // nodes reachable from the unexplored {n3, n4} (i.e. n5, n10, n11,
        // n12, n13, n14) move back to unexplored; n1 stays explored.
        let Fig2Run { trace, cfg, .. } = run_fig2();
        let n1 = paper_node(&cfg, 1);
        let n2 = paper_node(&cfg, 2);
        let row = trace
            .iter()
            .find(|r| r.state_seq.last() == Some(&n2))
            .expect("n2 is entered");
        assert!(row.ex_cond.contains(&n2));
        assert!(row.ex_write.contains(&n1), "n1 must stay explored");
        // n5 was reset to unexplored before n2 was entered.
        let n5 = paper_node(&cfg, 5);
        assert!(row.unex_write.contains(&n5), "n5 must be reset");
        // n10, n12 back to unexplored conditionals.
        let n10 = paper_node(&cfg, 10);
        let n12 = paper_node(&cfg, 12);
        assert!(row.unex_cond.contains(&n10));
        assert!(row.unex_cond.contains(&n12));
        assert_eq!(row.ex_cond.len(), 2); // {n0, n2}
    }

    #[test]
    fn empty_affected_sets_prune_at_the_first_choice_point() {
        let modified = fig2_mod();
        let cfg = build_cfg(modified.proc("update").unwrap());
        let empty = AffectedSets::compute(&cfg, [], DataflowPrecision::CfgPath, false);
        let reach = Reachability::new(&cfg);
        let mut strategy = DirectedStrategy::new(&cfg, &empty, &reach, false);
        let mut executor = Executor::new(&modified, "update", ExecConfig::default()).unwrap();
        let summary = executor.explore(&mut strategy);
        // Under the SPF-faithful ChoicePoints scope, the straight-line
        // prefix up to the first symbolic branch is executed (begin + n0),
        // then both arms are pruned.
        assert_eq!(summary.stats().states_explored, 2);
        assert_eq!(summary.pc_count(), 0);
        assert_eq!(summary.stats().pruned, 2);

        // The literal Fig. 6 reading filters every state: only the initial
        // state is entered.
        let mut strategy = DirectedStrategy::new(&cfg, &empty, &reach, false);
        let config = ExecConfig {
            filter_scope: dise_symexec::FilterScope::AllStates,
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&modified, "update", config).unwrap();
        let summary = executor.explore(&mut strategy);
        assert_eq!(summary.stats().states_explored, 1);
        assert_eq!(summary.pc_count(), 0);
    }

    #[test]
    fn whole_body_affected_widens_but_need_not_reach_full() {
        // Seeding every node makes every distinct path a distinct affected
        // sequence — yet Fig. 6 still prunes sibling paths whose divergent
        // arm contains no *unexplored* node (the explored-set resets of
        // line 23 only fire when an unexplored node is reachable). This is
        // a genuine property of the paper's algorithm: Theorem 3.10's
        // Case I proof appeals to those resets and quietly assumes the
        // next affected node is unexplored at divergence time. We pin the
        // faithful behaviour: more paths than the normal DiSE run, but
        // fewer than full exploration.
        let modified = fig2_mod();
        let cfg = build_cfg(modified.proc("update").unwrap());
        let all: Vec<NodeId> = cfg
            .node_ids()
            .filter(|&n| !cfg.node(n).span.is_dummy())
            .collect();
        let affected = AffectedSets::compute(&cfg, all, DataflowPrecision::CfgPath, false);
        let reach = Reachability::new(&cfg);
        let mut strategy = DirectedStrategy::new(&cfg, &affected, &reach, false);
        let mut executor = Executor::new(&modified, "update", ExecConfig::default()).unwrap();
        let dise = executor.explore(&mut strategy);
        let mut executor = Executor::new(&modified, "update", ExecConfig::default()).unwrap();
        let full = executor.explore(&mut FullExploration);
        assert!(
            dise.pc_count() > 8,
            "should widen beyond the normal DiSE run"
        );
        assert!(dise.pc_count() <= full.pc_count());
        assert_eq!(dise.pc_count(), 16); // golden for our engine
        assert_eq!(full.pc_count(), 24);
    }

    #[test]
    fn loops_are_reset_via_scc() {
        // A changed write inside a loop: CheckLoops must allow revisiting
        // the loop's affected nodes on each unrolling so sequences through
        // the loop are generated.
        let src = "proc f(int x) {
  while (x > 0) {
    x = x - 2;
  }
}";
        let modified = dise_ir::parse_program(src).unwrap();
        let cfg = build_cfg(modified.proc("f").unwrap());
        let write = cfg.write_nodes().next().unwrap();
        let affected = AffectedSets::compute(&cfg, [write], DataflowPrecision::CfgPath, false);
        let reach = Reachability::new(&cfg);
        let mut strategy = DirectedStrategy::new(&cfg, &affected, &reach, false);
        let config = ExecConfig {
            depth_bound: Some(10),
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&modified, "f", config).unwrap();
        let summary = executor.explore(&mut strategy);
        // Multiple unrollings are explored, not just the first.
        assert!(summary.stats().states_explored > 5);
        assert!(summary.pc_count() >= 2);
    }

    #[test]
    fn render_trace_has_table1_columns() {
        let rendered = run_fig2().rendered;
        assert!(rendered.contains("ExWrite"));
        assert!(rendered.contains("UnExCond"));
        assert!(rendered.contains('<'));
    }
}
