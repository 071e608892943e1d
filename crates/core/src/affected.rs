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
//! plus a chain rule ([`Rule::Chain`]) that closes flows through copies.
//!
//! # The phased worklist
//!
//! The rules run in three phases, repeated until none adds a node: rules
//! (1)–(3) to a fixed point, then rule (4) (Fig. 4) to a fixed point, then
//! the chain rule to a fixed point. This is a conservative superset of
//! the paper's single pass; on the paper's own example the result is
//! identical, which the golden tests pin down.
//!
//! Every added node goes onto one insertion log, and each rule keeps a
//! cursor into it, so a phase looks only at the nodes added since it last
//! ran. Each premise is a lookup, not a scan:
//!
//! * rules (1)/(2) read [`ControlDeps::dependents`] of a new `ACN` node;
//! * rule (3) and the chain rule read the users of a new `AWN` node's
//!   definition ([`DefUse::fed_by`]);
//! * rule (4) reads the definitions of each variable a new affected node
//!   uses ([`DefUse::feeding`]);
//!
//! and the `IsCFGPath` half of the data-flow premise is one bit test in
//! the shared [`Reachability`]. So the fixpoint costs about the size of
//! the control-dependence and def-use relations it walks, instead of one
//! round of `|AWN|·|Cond| + |Write|·|ACN ∪ AWN|` premise tests per round.
//! [`ControlDeps::new`] is a post-dominator tree walk of the same order.
//!
//! Each phase replays the rounds of a plain "re-test every pair" loop —
//! nodes in ascending order, each round against the sets as they were at
//! its start, rule (4) as one ascending scan of the writes per round — so
//! nodes enter in the same order, under the same rule, as in that loop,
//! and the Fig. 5(b) trace comes out row for row the same.
//! `tests/affected_worklist.rs` keeps that loop as an oracle and checks
//! both against each other.
//!
//! One deliberate deviation (ARCHITECTURE.md, "Affected locations"):
//! changed/added nodes that are neither writes nor conditionals (`skip`,
//! `return` markers) are seeded into `AWN` so the directed phase still
//! steers exploration toward them; having `Def = ⊥` they trigger no
//! data-flow rules.
//!
//! The optional [`DataflowPrecision::ReachingDefs`] mode replaces the
//! `Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj)` premise of rules (3)/(4) with a
//! real reaching-definitions query — a strictly more precise ablation
//! measured by the benchmark harness.

use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

use dise_cfg::dataflow::ReachingDefs;
use dise_cfg::{Cfg, ControlDeps, DefUse, NodeId, PostDomTree, Reachability};
use dise_diff::CfgDiff;
use dise_trace::TraceHandle;

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
    /// zero affected path conditions on the WBS/OAE artifacts, whose
    /// command values flow through `AntiSkidCmd = BrakeCmd`-style staging
    /// writes). Runs after Eq. (4), which keeps the Fig. 5(b) trace order
    /// on programs whose flows the paper's rules already cover, and in
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

/// Wall time of each sub-stage of the affected stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AffectedTimings {
    /// The seeds: changed/added nodes plus the removed-node effects of
    /// Fig. 5(a), which run the rules on the base CFG.
    pub seeds: Duration,
    /// Post-dominator tree.
    pub postdom: Duration,
    /// Control dependence.
    pub control_deps: Duration,
    /// `Def`/`Use` maps and their index (plus reaching definitions under
    /// [`DataflowPrecision::ReachingDefs`]).
    pub defuse: Duration,
    /// The `IsCFGPath` closure.
    pub reach: Duration,
    /// The ACN/AWN fixpoint itself.
    pub fixpoint: Duration,
}

/// The static facts the rules read, built once per CFG.
#[derive(Debug, Clone)]
struct CfgFacts {
    /// `controlD` (Definition 3.9).
    control: ControlDeps,
    /// `Def`/`Use` (Definitions 3.6–3.7) with the per-variable index.
    defuse: DefUse,
    /// `IsCFGPath` (Definition 3.2).
    reach: Reachability,
    /// Reaching definitions, under [`DataflowPrecision::ReachingDefs`].
    reaching: Option<ReachingDefs>,
    /// How long each fact took to build (`seeds` and `fixpoint` stay
    /// zero).
    timings: AffectedTimings,
}

impl CfgFacts {
    /// Builds the facts for `cfg`. With a `trace` handle, each analysis
    /// gets its own span (`affected.postdom`, `affected.control_deps`,
    /// `affected.defuse`, `affected.reach`) under the handle's parent.
    fn new(cfg: &Cfg, precision: DataflowPrecision, trace: Option<&TraceHandle>) -> CfgFacts {
        let mut timings = AffectedTimings::default();
        let postdom = sub_stage(trace, "affected.postdom", &mut timings.postdom, || {
            PostDomTree::new(cfg)
        });
        let control = sub_stage(
            trace,
            "affected.control_deps",
            &mut timings.control_deps,
            || ControlDeps::new(cfg, &postdom),
        );
        let (defuse, reaching) = sub_stage(trace, "affected.defuse", &mut timings.defuse, || {
            let defuse = DefUse::new(cfg);
            let reaching = (precision == DataflowPrecision::ReachingDefs)
                .then(|| ReachingDefs::new(cfg, &defuse));
            (defuse, reaching)
        });
        let reach = sub_stage(trace, "affected.reach", &mut timings.reach, || {
            Reachability::new(cfg)
        });
        CfgFacts {
            control,
            defuse,
            reach,
            reaching,
            timings,
        }
    }

    /// The data-flow premise of rules (3)/(4) and the chain rule, for a
    /// pair already known to satisfy `Def(ni) ∈ Use(nj)`.
    fn flows(&self, ni: NodeId, nj: NodeId) -> bool {
        match &self.reaching {
            None => self.reach.is_cfg_path(ni, nj),
            Some(rd) => rd.reaches(ni, nj),
        }
    }
}

/// Runs `f` as the sub-stage `name`: a span under `trace`'s parent when
/// tracing, and its wall time into `spent` always.
fn sub_stage<T>(
    trace: Option<&TraceHandle>,
    name: &str,
    spent: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let span = trace.map(|h| h.begin(name));
    let start = Instant::now();
    let value = f();
    *spent = start.elapsed();
    if let (Some(h), Some(span)) = (trace, span) {
        h.end(span);
    }
    value
}

/// What the fixpoint did: stable structural counts, independent of
/// scheduling and the clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Nodes the rules added on top of the seeds.
    pub nodes_added: u64,
    /// Phases run (three per pass over Fig. 3, Fig. 4 and the chain rule).
    pub phases: u64,
}

/// The affected-location analysis result.
#[derive(Debug, Clone)]
pub struct AffectedSets {
    acn: BTreeSet<NodeId>,
    awn: BTreeSet<NodeId>,
    trace: Vec<TraceRow>,
    stats: FixpointStats,
}

/// The fixpoint's working state: the sets, the insertion log the rule
/// cursors walk, and the optional trace.
struct Worklist<'a> {
    cfg: &'a Cfg,
    facts: &'a CfgFacts,
    sets: AffectedSets,
    /// `affected[n]`: `n ∈ ACN ∪ AWN` (the sets are disjoint: conditionals
    /// only ever join `ACN`, everything else only `AWN`).
    affected: Vec<bool>,
    /// Every member, in insertion order.
    log: Vec<NodeId>,
    record_trace: bool,
}

impl<'a> Worklist<'a> {
    fn is_cond(&self, n: NodeId) -> bool {
        self.cfg.node(n).kind.is_cond()
    }

    fn is_write(&self, n: NodeId) -> bool {
        self.cfg.node(n).kind.is_write()
    }

    /// Adds `n` to `ACN` (conditionals) or `AWN` (everything else);
    /// `false` when it was already there.
    fn add(&mut self, n: NodeId) -> bool {
        if std::mem::replace(&mut self.affected[n.index()], true) {
            return false;
        }
        if self.is_cond(n) {
            self.sets.acn.insert(n);
        } else {
            self.sets.awn.insert(n);
        }
        self.log.push(n);
        true
    }

    fn record(&mut self, ni: Option<NodeId>, nj: Option<NodeId>, rule: Option<Rule>) {
        if self.record_trace {
            self.sets.trace.push(TraceRow {
                acn: self.sets.acn.clone(),
                awn: self.sets.awn.clone(),
                ni,
                nj,
                rule,
            });
        }
    }

    /// The members logged since `*cursor` that `keep` accepts, ascending;
    /// advances the cursor to the end of the log.
    fn take_new(&self, cursor: &mut usize, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let mut fresh: Vec<NodeId> = self.log[*cursor..]
            .iter()
            .copied()
            .filter(|&n| keep(n))
            .collect();
        *cursor = self.log.len();
        fresh.sort_unstable();
        fresh
    }

    /// Rules (1)–(3) to a fixed point. Each round handles the `ACN` nodes
    /// that were new at its start (Eq. 1/2), then the `AWN` nodes new
    /// after that (Eq. 3).
    fn fig3_phase(&mut self, eq12: &mut usize, eq3: &mut usize) {
        loop {
            let before = self.log.len();
            for ni in self.take_new(eq12, |n| self.is_cond(n)) {
                let facts = self.facts;
                for &nj in facts.control.dependents(ni) {
                    if self.is_cond(nj) && self.add(nj) {
                        self.record(Some(ni), Some(nj), Some(Rule::Eq1));
                    } else if self.is_write(nj) && self.add(nj) {
                        self.record(Some(ni), Some(nj), Some(Rule::Eq2));
                    }
                }
            }
            for ni in self.take_new(eq3, |n| !self.is_cond(n)) {
                let facts = self.facts;
                for &nj in facts.defuse.fed_by(ni) {
                    if self.is_cond(nj) && facts.flows(ni, nj) && self.add(nj) {
                        self.record(Some(ni), Some(nj), Some(Rule::Eq3));
                    }
                }
            }
            if self.log.len() == before {
                return;
            }
        }
    }

    /// Rule (4) to a fixed point. A round is one ascending scan of the
    /// writes in which a write joins `AWN` if its definition flows to a
    /// member; a write made eligible by a member added at a later scan
    /// position joins in the same round, one made eligible behind the
    /// scan position in the next.
    fn eq4_phase(&mut self, cursor: &mut usize) {
        let facts = self.facts;
        let mut round = BTreeSet::new();
        for nj in self.take_new(cursor, |_| true) {
            round.extend(self.eligible_defs(nj));
        }
        let mut next = BTreeSet::new();
        while !round.is_empty() {
            while let Some(ni) = round.pop_first() {
                if !self.add(ni) {
                    continue;
                }
                if self.record_trace {
                    // Report the first affected node (ACN, then AWN) the
                    // definition flows to.
                    let flows_to = |cond: bool| {
                        facts.defuse.fed_by(ni).iter().copied().find(|&nj| {
                            self.is_cond(nj) == cond
                                && nj != ni
                                && self.affected[nj.index()]
                                && facts.flows(ni, nj)
                        })
                    };
                    let target = flows_to(true).or_else(|| flows_to(false));
                    self.record(Some(ni), target, Some(Rule::Eq4));
                }
                for nk in self.eligible_defs(ni) {
                    if nk > ni {
                        round.insert(nk);
                    } else {
                        next.insert(nk);
                    }
                }
            }
            std::mem::swap(&mut round, &mut next);
        }
        *cursor = self.log.len();
    }

    /// The non-member writes whose definition flows to `nj`.
    fn eligible_defs(&self, nj: NodeId) -> Vec<NodeId> {
        self.facts
            .defuse
            .feeding(nj)
            .filter(|&ni| !self.affected[ni.index()] && self.facts.flows(ni, nj))
            .collect()
    }

    /// The chain rule to a fixed point, a round over the `AWN` nodes new
    /// at its start.
    fn chain_phase(&mut self, cursor: &mut usize) {
        loop {
            let before = self.log.len();
            for ni in self.take_new(cursor, |n| !self.is_cond(n)) {
                let facts = self.facts;
                for &nj in facts.defuse.fed_by(ni) {
                    if self.is_write(nj) && facts.flows(ni, nj) && self.add(nj) {
                        self.record(Some(ni), Some(nj), Some(Rule::Chain));
                    }
                }
            }
            if self.log.len() == before {
                return;
            }
        }
    }
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
        let facts = CfgFacts::new(cfg, precision, None);
        Self::compute_with(cfg, &facts, seeds, record_trace)
    }

    /// The session's affected stage on a diffed pair:
    /// [`crate::removed::affected_seeds`], the facts of `cfg_mod`, then the
    /// fixpoint, each timed as a sub-stage — a span under `trace`'s parent
    /// when tracing, the fixpoint's carrying its [`FixpointStats`]. Also
    /// returns `cfg_mod`'s reachability closure, which the directed
    /// strategy reuses.
    pub(crate) fn staged(
        cfg_base: &Cfg,
        cfg_mod: &Cfg,
        diff: &CfgDiff,
        precision: DataflowPrecision,
        record_trace: bool,
        trace: Option<&TraceHandle>,
    ) -> (AffectedSets, Reachability, AffectedTimings) {
        let mut seeds_time = Duration::ZERO;
        let seeds = sub_stage(trace, "affected.seeds", &mut seeds_time, || {
            crate::removed::affected_seeds(cfg_base, diff, precision)
        });
        let facts = CfgFacts::new(cfg_mod, precision, trace);
        let span = trace.map(|h| h.begin("affected.fixpoint"));
        let start = Instant::now();
        let sets = Self::compute_with(cfg_mod, &facts, seeds, record_trace);
        let timings = AffectedTimings {
            seeds: seeds_time,
            fixpoint: start.elapsed(),
            ..facts.timings
        };
        if let (Some(h), Some(span)) = (trace, span) {
            let counters = vec![
                ("nodes_added".to_string(), sets.stats.nodes_added),
                ("phases".to_string(), sets.stats.phases),
            ];
            h.end_with(span, counters);
        }
        (sets, facts.reach, timings)
    }

    /// [`AffectedSets::compute`] over facts already built for `cfg` (the
    /// precision is the one the facts were built for).
    fn compute_with(
        cfg: &Cfg,
        facts: &CfgFacts,
        seeds: impl IntoIterator<Item = NodeId>,
        record_trace: bool,
    ) -> AffectedSets {
        let mut work = Worklist {
            cfg,
            facts,
            sets: AffectedSets::from_parts(BTreeSet::new(), BTreeSet::new()),
            affected: vec![false; cfg.len()],
            log: Vec::new(),
            record_trace,
        };
        // Conditionals seed ACN; writes — and, conservatively, changed
        // no-op/return/error nodes (Def = ⊥, so they only steer the
        // directed search) — seed AWN.
        for seed in seeds {
            work.add(seed);
        }
        let seeded = work.log.len();
        work.record(None, None, None);

        let mut cursors = [0usize; 4];
        loop {
            let before = work.log.len();
            let [eq12, eq3, eq4, chain] = &mut cursors;
            work.fig3_phase(eq12, eq3);
            work.eq4_phase(eq4);
            work.chain_phase(chain);
            work.sets.stats.phases += 3;
            if work.log.len() == before {
                break;
            }
        }
        work.sets.stats.nodes_added = (work.log.len() - seeded) as u64;
        work.sets
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
            stats: FixpointStats::default(),
        }
    }

    /// What the fixpoint did (all zero for restored sets).
    pub fn stats(&self) -> FixpointStats {
        self.stats
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
