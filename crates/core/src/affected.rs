//! Computing affected locations (§3.2).
//!
//! Two sets of `CFG_mod` nodes are computed to a fixed point:
//!
//! * `ACN` — *affected conditional nodes*: conditional branches that
//!   "directly lead to the generation of affected path conditions";
//! * `AWN` — *affected write nodes*: writes that "indirectly lead" to
//!   them, by defining a variable later read at an affected branch or by
//!   being control-dependent on one.
//!
//! The update rules (Fig. 3 / Fig. 4):
//!
//! ```text
//! (1) ni ∈ ACN ∧ nj ∈ Cond  ∧ controlD(ni, nj)                        ⇒ ACN ∪= {nj}
//! (2) ni ∈ ACN ∧ nj ∈ Write ∧ controlD(ni, nj)                        ⇒ AWN ∪= {nj}
//! (3) ni ∈ AWN ∧ nj ∈ Cond  ∧ Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj)   ⇒ ACN ∪= {nj}
//! (4) ni ∈ Write ∧ nj ∈ ACN ∪ AWN ∧ Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj) ⇒ AWN ∪= {ni}
//! ```
//!
//! Rules (1)–(3) run to a fixed point first, then rule (4) (Fig. 4) runs
//! to a fixed point; the pair is repeated until globally stable (a
//! conservative superset of the paper's single pass — on the paper's own
//! example the result is identical, which the golden tests pin down).
//!
//! One deliberate deviation, documented in DESIGN.md: changed/added nodes
//! that are neither writes nor conditionals (`skip`, `return` markers) are
//! seeded into `AWN` so the directed phase still steers exploration toward
//! them; having `Def = ⊥` they trigger no data-flow rules.
//!
//! The optional [`DataflowPrecision::ReachingDefs`] mode replaces the
//! `Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj)` premise of rules (3)/(4) with a
//! real reaching-definitions query — a strictly more precise ablation
//! measured by the benchmark harness.

use std::collections::BTreeSet;
use std::fmt;

use dise_cfg::dataflow::ReachingDefs;
use dise_cfg::{Cfg, ControlDeps, DefUse, NodeId, PostDomTree, Reachability};

/// Which rule fired (for the Fig. 5(b) trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Eq. (1): conditional control-dependent on an affected conditional.
    Eq1,
    /// Eq. (2): write control-dependent on an affected conditional.
    Eq2,
    /// Eq. (3): conditional using a variable defined at an affected write.
    Eq3,
    /// Eq. (4): write whose definition reaches an affected node.
    Eq4,
    /// Chain rule: write using a variable defined at an affected write.
    /// Rules (3)/(4) require the same variable at both ends of a flow, so
    /// without this closure a change propagating through a copy chain
    /// (`A = changed; B = A; if (B > 0) …`) never reaches the downstream
    /// conditional and the affected region is cut short (historically:
    /// zero affected path conditions on the WBS/OAE artifacts). Runs in
    /// both precision modes, under the mode's data-flow premise.
    Chain,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Eq1 => f.write_str("Eq. (1)"),
            Rule::Eq2 => f.write_str("Eq. (2)"),
            Rule::Eq3 => f.write_str("Eq. (3)"),
            Rule::Eq4 => f.write_str("Eq. (4)"),
            Rule::Chain => f.write_str("chain"),
        }
    }
}

/// One row of the fixpoint trace (Fig. 5(b)): the sets after a rule
/// application, plus the nodes and rule involved.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// `ACN` after the application.
    pub acn: BTreeSet<NodeId>,
    /// `AWN` after the application.
    pub awn: BTreeSet<NodeId>,
    /// The premise node `ni` (`None` for the initialization row).
    pub ni: Option<NodeId>,
    /// The added node `nj` (`None` for the initialization row).
    pub nj: Option<NodeId>,
    /// The rule that fired (`None` for the initialization row).
    pub rule: Option<Rule>,
}

/// The data-flow premise used by rules (3)/(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataflowPrecision {
    /// The paper's formulation: `Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj)`.
    #[default]
    CfgPath,
    /// Ablation: a genuine reaching-definitions query (kills respected).
    ReachingDefs,
}

/// The affected-location analysis result.
#[derive(Debug, Clone)]
pub struct AffectedSets {
    acn: BTreeSet<NodeId>,
    awn: BTreeSet<NodeId>,
    trace: Vec<TraceRow>,
}

impl AffectedSets {
    /// Computes the affected sets on `cfg` from seed nodes (the
    /// changed/added nodes of the diff, possibly augmented by
    /// [`crate::removed`]). `record_trace` captures Fig. 5(b)-style rows.
    pub fn compute(
        cfg: &Cfg,
        seeds: impl IntoIterator<Item = NodeId>,
        precision: DataflowPrecision,
        record_trace: bool,
    ) -> AffectedSets {
        let postdom = PostDomTree::new(cfg);
        let control = ControlDeps::new(cfg, &postdom);
        let defuse = DefUse::new(cfg);
        let reach = Reachability::new(cfg);
        let reaching = match precision {
            DataflowPrecision::CfgPath => None,
            DataflowPrecision::ReachingDefs => Some(ReachingDefs::new(cfg, &defuse)),
        };

        let mut acn = BTreeSet::new();
        let mut awn = BTreeSet::new();
        for seed in seeds {
            let node = cfg.node(seed);
            if node.kind.is_cond() {
                acn.insert(seed);
            } else {
                // Writes — and, conservatively, changed no-op/return/error
                // nodes (Def = ⊥, so they only steer the directed search).
                awn.insert(seed);
            }
        }

        let mut result = AffectedSets {
            acn,
            awn,
            trace: Vec::new(),
        };
        if record_trace {
            result.trace.push(TraceRow {
                acn: result.acn.clone(),
                awn: result.awn.clone(),
                ni: None,
                nj: None,
                rule: None,
            });
        }

        // The data-flow premise of rules (3) and (4).
        let flows = |ni: NodeId, nj: NodeId| -> bool {
            if !defuse.def_feeds_use(ni, nj) {
                return false;
            }
            match &reaching {
                None => reach.is_cfg_path(ni, nj),
                Some(rd) => rd.reaches(ni, nj),
            }
        };

        loop {
            let mut global_change = false;

            // Fig. 3 rules to a fixed point.
            loop {
                let mut changed = false;
                // Eq. (1) and Eq. (2).
                for ni in result.acn.clone() {
                    for &nj in control.dependents(ni) {
                        let node = cfg.node(nj);
                        if node.kind.is_cond() && result.acn.insert(nj) {
                            changed = true;
                            result.record(record_trace, ni, nj, Rule::Eq1);
                        } else if node.kind.is_write() && result.awn.insert(nj) {
                            changed = true;
                            result.record(record_trace, ni, nj, Rule::Eq2);
                        }
                    }
                }
                // Eq. (3).
                for ni in result.awn.clone() {
                    for nj in cfg.cond_nodes() {
                        if flows(ni, nj) && result.acn.insert(nj) {
                            changed = true;
                            result.record(record_trace, ni, nj, Rule::Eq3);
                        }
                    }
                }
                if !changed {
                    break;
                }
                global_change = true;
            }

            // Fig. 4 rule to a fixed point.
            loop {
                let mut changed = false;
                for ni in cfg.write_nodes() {
                    if result.awn.contains(&ni) {
                        continue;
                    }
                    let affected_use = result
                        .acn
                        .iter()
                        .chain(result.awn.iter())
                        .any(|&nj| flows(ni, nj));
                    if affected_use && result.awn.insert(ni) {
                        changed = true;
                        // For the trace, report the first affected node the
                        // definition flows to.
                        let nj = result
                            .acn
                            .iter()
                            .chain(result.awn.iter())
                            .copied()
                            .find(|&nj| nj != ni && flows(ni, nj));
                        if record_trace {
                            result.trace.push(TraceRow {
                                acn: result.acn.clone(),
                                awn: result.awn.clone(),
                                ni: Some(ni),
                                nj,
                                rule: Some(Rule::Eq4),
                            });
                        }
                    }
                }
                if !changed {
                    break;
                }
                global_change = true;
            }

            // Chain rule, after the Fig. 4 pass: close affected flows
            // through intermediate writes. Rules (3)/(4) require the
            // *same* variable at both ends of a flow, so a change
            // propagating through a copy chain (`A = changed; B = A;
            // if (B > 0)`) is invisible to them — the copy defines a
            // variable no affected node mentions, and the downstream
            // conditional reads the copy, not the changed definition.
            // Without this closure the affected region stops at the first
            // copy and the directed search prunes every path at the next
            // choice point past it: zero path conditions on the WBS/OAE
            // artifacts, whose command values flow through
            // `AntiSkidCmd = BrakeCmd`-style staging writes. Running it
            // after Eq. (4) keeps the Fig. 5(b) trace order on programs
            // whose flows the paper's rules already cover; `flows` applies
            // the active precision mode's data-flow premise.
            loop {
                let mut changed = false;
                for ni in result.awn.clone() {
                    for nj in cfg.write_nodes() {
                        if flows(ni, nj) && result.awn.insert(nj) {
                            changed = true;
                            result.record(record_trace, ni, nj, Rule::Chain);
                        }
                    }
                }
                if !changed {
                    break;
                }
                global_change = true;
            }

            if !global_change {
                break;
            }
        }
        result
    }

    /// Rebuilds an `AffectedSets` from raw node sets — the persistent
    /// store's path back into the pipeline when the `(base, modified)`
    /// fingerprint pair matches a recorded run. The fixpoint is
    /// deterministic, so restoring its result is equivalent to recomputing
    /// it; restored sets carry no trace.
    pub fn from_parts(acn: BTreeSet<NodeId>, awn: BTreeSet<NodeId>) -> AffectedSets {
        AffectedSets {
            acn,
            awn,
            trace: Vec::new(),
        }
    }

    fn record(&mut self, enabled: bool, ni: NodeId, nj: NodeId, rule: Rule) {
        if enabled {
            self.trace.push(TraceRow {
                acn: self.acn.clone(),
                awn: self.awn.clone(),
                ni: Some(ni),
                nj: Some(nj),
                rule: Some(rule),
            });
        }
    }

    /// The affected conditional nodes.
    pub fn acn(&self) -> &BTreeSet<NodeId> {
        &self.acn
    }

    /// The affected write nodes.
    pub fn awn(&self) -> &BTreeSet<NodeId> {
        &self.awn
    }

    /// Is `node` in either affected set?
    pub fn contains(&self, node: NodeId) -> bool {
        self.acn.contains(&node) || self.awn.contains(&node)
    }

    /// Total number of affected nodes (`|ACN| + |AWN|`; the sets are
    /// disjoint) — the "Affected" column of Table 2.
    pub fn len(&self) -> usize {
        self.acn.len() + self.awn.len()
    }

    /// Returns `true` when nothing is affected.
    pub fn is_empty(&self) -> bool {
        self.acn.is_empty() && self.awn.is_empty()
    }

    /// The captured fixpoint trace (empty unless requested).
    pub fn trace(&self) -> &[TraceRow] {
        &self.trace
    }

    /// Renders the trace as a Fig. 5(b)-style text table.
    pub fn render_trace(&self, cfg: &Cfg) -> String {
        let _ = cfg;
        let mut table = crate::report::TextTable::new(vec![
            "ACN".into(),
            "AWN".into(),
            "ni".into(),
            "nj".into(),
            "Rule".into(),
        ]);
        for row in &self.trace {
            table.row(vec![
                crate::report::node_set(&row.acn),
                crate::report::node_set(&row.awn),
                row.ni.map(|n| n.to_string()).unwrap_or_default(),
                row.nj.map(|n| n.to_string()).unwrap_or_default(),
                row.rule.map(|r| r.to_string()).unwrap_or_default(),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dise_diff::CfgDiff;
    use dise_ir::parse_program;

    /// The simplified WBS of Fig. 2, with the Fig. 2(a) change applied
    /// (`PedalPos == 0` → `PedalPos <= 0`). Statement lines are chosen so
    /// the CFG node numbering matches the paper's `n0..n14`.
    pub(crate) fn fig2_base() -> dise_ir::Program {
        parse_program(FIG2_BASE_SRC).unwrap()
    }

    pub(crate) fn fig2_mod() -> dise_ir::Program {
        parse_program(&FIG2_BASE_SRC.replace("PedalPos == 0", "PedalPos <= 0")).unwrap()
    }

    pub(crate) const FIG2_BASE_SRC: &str = "int AltPress = 0;
int Meter = 2;
proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos == 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
  if (BSwitch == 0) {
    Meter = 1;
  } else if (BSwitch == 1) {
    Meter = 2;
  }
  if (PedalCmd == 2) {
    AltPress = 0;
  } else if (PedalCmd == 3) {
    AltPress = 25;
  } else {
    AltPress = 50;
  }
}
";

    /// Maps paper node names (`n0`…`n14`) to CFG nodes via source lines.
    pub(crate) fn paper_node(cfg: &Cfg, paper_index: usize) -> NodeId {
        // Paper node -> source line in FIG2_BASE_SRC (1-based).
        const LINES: [u32; 15] = [4, 5, 6, 7, 9, 11, 12, 13, 14, 15, 17, 18, 19, 20, 22];
        let line = LINES[paper_index];
        cfg.node_ids()
            .find(|&n| cfg.node(n).span.line == line)
            .unwrap_or_else(|| panic!("no node at line {line}"))
    }

    fn affected_for_fig2(precision: DataflowPrecision) -> (Cfg, AffectedSets) {
        let base = fig2_base();
        let modified = fig2_mod();
        let (_, cfg_mod, diff) = CfgDiff::from_programs(&base, &modified, "update").unwrap();
        let seeds: Vec<NodeId> = diff.changed_or_added_mod().collect();
        let sets = AffectedSets::compute(&cfg_mod, seeds, precision, true);
        (cfg_mod, sets)
    }

    #[test]
    fn fig5b_final_sets_match_paper() {
        let (cfg, sets) = affected_for_fig2(DataflowPrecision::CfgPath);
        let expect_acn: BTreeSet<NodeId> = [0, 2, 10, 12]
            .iter()
            .map(|&i| paper_node(&cfg, i))
            .collect();
        let expect_awn: BTreeSet<NodeId> = [1, 3, 4, 5, 11, 13, 14]
            .iter()
            .map(|&i| paper_node(&cfg, i))
            .collect();
        assert_eq!(sets.acn(), &expect_acn, "ACN mismatch");
        assert_eq!(sets.awn(), &expect_awn, "AWN mismatch");
        assert_eq!(sets.len(), 11);
    }

    #[test]
    fn fig5b_trace_starts_with_seed_and_applies_eq4_last() {
        let (cfg, sets) = affected_for_fig2(DataflowPrecision::CfgPath);
        let trace = sets.trace();
        // Init row: ACN = {n0}, AWN = {}.
        assert_eq!(trace[0].acn.len(), 1);
        assert!(trace[0].acn.contains(&paper_node(&cfg, 0)));
        assert!(trace[0].awn.is_empty());
        assert_eq!(trace[0].rule, None);
        // Exactly one Eq. (4) application: n5.
        let eq4: Vec<_> = trace.iter().filter(|r| r.rule == Some(Rule::Eq4)).collect();
        assert_eq!(eq4.len(), 1);
        assert_eq!(eq4[0].ni, Some(paper_node(&cfg, 5)));
        // And it is the last row.
        assert_eq!(trace.last().unwrap().rule, Some(Rule::Eq4));
        // Paper's trace has 11 rows; ours must have the same number of
        // applications (1 init + 9 Fig.3 rules + 1 Eq.4).
        assert_eq!(trace.len(), 11);
    }

    #[test]
    fn reaching_defs_precision_agrees_on_fig2() {
        // On the loop-free Fig. 2 example every definition reaches its
        // uses, so both precisions coincide.
        let (_, cfg_path) = affected_for_fig2(DataflowPrecision::CfgPath);
        let (_, rd) = affected_for_fig2(DataflowPrecision::ReachingDefs);
        assert_eq!(cfg_path.acn(), rd.acn());
        assert_eq!(cfg_path.awn(), rd.awn());
    }

    #[test]
    fn reaching_defs_is_more_precise_with_kills() {
        // g is rewritten before the conditional reads it, so the changed
        // write cannot affect the branch under reaching-defs.
        let src_base = "int g = 0;
proc f(int x) {
  g = 1;
  g = x;
  if (g > 0) { g = 5; }
}";
        let src_mod = src_base.replace("g = 1;", "g = 2;");
        let base = parse_program(src_base).unwrap();
        let modified = parse_program(&src_mod).unwrap();
        let (_, cfg_mod, diff) = CfgDiff::from_programs(&base, &modified, "f").unwrap();
        let seeds: Vec<NodeId> = diff.changed_or_added_mod().collect();
        let conservative =
            AffectedSets::compute(&cfg_mod, seeds.clone(), DataflowPrecision::CfgPath, false);
        let precise =
            AffectedSets::compute(&cfg_mod, seeds, DataflowPrecision::ReachingDefs, false);
        // The paper's rule marks the branch affected (a CFG path exists);
        // reaching-defs knows `g = x` kills the changed definition.
        assert!(conservative.len() > precise.len());
        assert_eq!(precise.len(), 1); // only the changed write itself
    }

    #[test]
    fn empty_seeds_give_empty_sets() {
        let modified = fig2_mod();
        let cfg = dise_cfg::build_cfg(modified.proc("update").unwrap());
        let sets = AffectedSets::compute(&cfg, [], DataflowPrecision::CfgPath, false);
        assert!(sets.is_empty());
        assert_eq!(sets.len(), 0);
    }

    #[test]
    fn changed_write_pulls_in_dependent_conditionals() {
        let src = "int g = 0;
proc f(int x) {
  g = x;
  if (g > 0) {
    g = 1;
  }
}";
        let modified = parse_program(src).unwrap();
        let cfg = dise_cfg::build_cfg(modified.proc("f").unwrap());
        let write = cfg
            .write_nodes()
            .find(|&n| cfg.node(n).span.line == 3)
            .unwrap();
        let sets = AffectedSets::compute(&cfg, [write], DataflowPrecision::CfgPath, false);
        // Eq.(3) adds the branch; Eq.(2) adds the inner write.
        assert_eq!(sets.acn().len(), 1);
        assert_eq!(sets.awn().len(), 2);
    }

    #[test]
    fn loop_back_edge_flows_into_condition() {
        let src = "proc f(int x) {
  while (x > 0) {
    x = x - 1;
  }
}";
        let modified = parse_program(src).unwrap();
        let cfg = dise_cfg::build_cfg(modified.proc("f").unwrap());
        let write = cfg.write_nodes().next().unwrap();
        let sets = AffectedSets::compute(&cfg, [write], DataflowPrecision::CfgPath, false);
        // The write feeds the loop condition via the back edge: Eq.(3).
        assert_eq!(sets.acn().len(), 1);
        assert!(sets.contains(cfg.cond_nodes().next().unwrap()));
    }

    #[test]
    fn render_trace_produces_table() {
        let (cfg, sets) = affected_for_fig2(DataflowPrecision::CfgPath);
        let rendered = sets.render_trace(&cfg);
        assert!(rendered.contains("ACN"));
        assert!(rendered.contains("Eq. (1)"));
        assert!(rendered.contains("Eq. (4)"));
        assert_eq!(rendered.lines().count(), 11 + 2); // rows + header + rule line
    }
}
