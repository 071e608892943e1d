//! The `Def` and `Use` maps (Definitions 3.6 and 3.7) and the variable set
//! `Vars` (Definition 3.3), plus the per-variable index that answers
//! "who reads/writes `v`" without scanning every node.

use std::collections::{BTreeMap, BTreeSet};

use crate::build::{Cfg, NodeKind};
use crate::graph::NodeId;

/// Per-node definition/use information for one CFG.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// `def[n]` = the variable defined at `n`, if any (Definition 3.6).
    def: Vec<Option<String>>,
    /// `uses[n]` = the variables read at `n` (Definition 3.7).
    uses: Vec<BTreeSet<String>>,
    /// All variables read or written in the procedure (Definition 3.3).
    vars: BTreeSet<String>,
    /// `readers[v]` = the nodes with `v ∈ Use(n)`, ascending.
    readers: BTreeMap<String, Vec<NodeId>>,
    /// `writers[v]` = the nodes with `Def(n) = v`, ascending.
    writers: BTreeMap<String, Vec<NodeId>>,
}

impl DefUse {
    /// Computes `Def`/`Use` for every node of `cfg`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_cfg::{build_cfg, DefUse};
    /// use dise_ir::parse_program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("proc f(int x) { x = x + 1; }")?;
    /// let cfg = build_cfg(&p.procs[0]);
    /// let du = DefUse::new(&cfg);
    /// let write = cfg.write_nodes().next().unwrap();
    /// assert_eq!(du.def(write), Some("x"));
    /// assert!(du.uses(write).contains("x"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: &Cfg) -> DefUse {
        let len = cfg.len();
        let mut def = vec![None; len];
        let mut uses = vec![BTreeSet::new(); len];
        let mut vars = BTreeSet::new();
        for id in cfg.node_ids() {
            match &cfg.node(id).kind {
                NodeKind::Assign { var, value } => {
                    def[id.index()] = Some(var.clone());
                    vars.insert(var.clone());
                    for v in value.vars() {
                        vars.insert(v.clone());
                        uses[id.index()].insert(v);
                    }
                }
                NodeKind::Branch { cond } | NodeKind::Assume { cond } => {
                    for v in cond.vars() {
                        vars.insert(v.clone());
                        uses[id.index()].insert(v);
                    }
                }
                // A call node reads its arguments. No defs are modelled:
                // the affected analyses only ever run over flattened
                // (call-free) CFGs, so this arm exists for completeness.
                NodeKind::Call { args, .. } => {
                    for arg in args {
                        for v in arg.vars() {
                            vars.insert(v.clone());
                            uses[id.index()].insert(v);
                        }
                    }
                }
                NodeKind::Begin | NodeKind::End | NodeKind::Error { .. } | NodeKind::Nop => {}
            }
        }
        let mut readers: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        let mut writers: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for id in cfg.node_ids() {
            if let Some(var) = &def[id.index()] {
                writers.entry(var.clone()).or_default().push(id);
            }
            for var in &uses[id.index()] {
                readers.entry(var.clone()).or_default().push(id);
            }
        }
        DefUse {
            def,
            uses,
            vars,
            readers,
            writers,
        }
    }

    /// `Def(n)`: the variable defined at `n`, or `None` (the paper's `⊥`).
    pub fn def(&self, n: NodeId) -> Option<&str> {
        self.def[n.index()].as_deref()
    }

    /// `Use(n)`: the set of variables read at `n` (empty for the paper's
    /// `⊥`).
    pub fn uses(&self, n: NodeId) -> &BTreeSet<String> {
        &self.uses[n.index()]
    }

    /// `Vars`: every variable read or written in the procedure.
    pub fn vars(&self) -> &BTreeSet<String> {
        &self.vars
    }

    /// The nodes reading `var`, ascending.
    pub(crate) fn uses_of(&self, var: &str) -> &[NodeId] {
        self.readers.get(var).map_or(&[], Vec::as_slice)
    }

    /// The nodes defining `var`, ascending.
    pub(crate) fn defs_of(&self, var: &str) -> &[NodeId] {
        self.writers.get(var).map_or(&[], Vec::as_slice)
    }

    /// The nodes `nj` with [`DefUse::def_feeds_use`]`(ni, nj)`, ascending.
    pub fn fed_by(&self, ni: NodeId) -> &[NodeId] {
        self.def(ni).map_or(&[], |var| self.uses_of(var))
    }

    /// The nodes `ni` with [`DefUse::def_feeds_use`]`(ni, nj)`: the
    /// definitions of each variable `nj` reads, grouped by variable.
    pub fn feeding(&self, nj: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.uses(nj)
            .iter()
            .flat_map(|var| self.defs_of(var))
            .copied()
    }

    /// Returns `true` if the definition at `ni` is used at `nj`
    /// (`Def(ni) ∈ Use(nj) ∧ Def(ni) ≠ ⊥` — the data-flow premise of rules
    /// Eq. (3) and Eq. (4)).
    pub fn def_feeds_use(&self, ni: NodeId, nj: NodeId) -> bool {
        match self.def(ni) {
            Some(var) => self.uses(nj).contains(var),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use dise_ir::parse_program;

    fn setup(src: &str) -> (Cfg, DefUse) {
        let cfg = build_cfg(&parse_program(src).unwrap().procs[0]);
        let du = DefUse::new(&cfg);
        (cfg, du)
    }

    #[test]
    fn paper_example_def_and_use() {
        // §3.2: "Def(n9) returns the variable Meter which is defined at
        // line 13. Similarly the map Uses(n10) returns PedalCmd."
        let (cfg, du) = setup(
            "int Meter = 2;
             int AltPress = 0;
             proc update(int PedalCmd, int BSwitch) {
               if (BSwitch == 1) { Meter = 2; }
               if (PedalCmd == 2) { AltPress = 0; }
             }",
        );
        let meter_write = cfg
            .write_nodes()
            .find(|&n| du.def(n) == Some("Meter"))
            .unwrap();
        assert_eq!(du.def(meter_write), Some("Meter"));
        assert!(du.uses(meter_write).is_empty());
        let pedal_cond = cfg
            .cond_nodes()
            .find(|&n| du.uses(n).contains("PedalCmd"))
            .unwrap();
        assert_eq!(du.uses(pedal_cond).len(), 1);
        assert_eq!(du.def(pedal_cond), None);
    }

    #[test]
    fn vars_contains_reads_and_writes() {
        let (_, du) = setup("int g = 0; proc f(int a, int b) { g = a + b; }");
        let vars: Vec<_> = du.vars().iter().cloned().collect();
        assert_eq!(vars, vec!["a", "b", "g"]);
    }

    #[test]
    fn begin_end_have_no_def_use() {
        let (cfg, du) = setup("proc f(int x) { x = 1; }");
        assert_eq!(du.def(cfg.begin()), None);
        assert_eq!(du.def(cfg.end()), None);
        assert!(du.uses(cfg.begin()).is_empty());
    }

    #[test]
    fn def_feeds_use_checks_data_flow() {
        let (cfg, du) = setup("proc f(int x, int y) { x = y + 1; assert(x > 0); }");
        let write = cfg.write_nodes().next().unwrap();
        let cond = cfg.cond_nodes().next().unwrap();
        assert!(du.def_feeds_use(write, cond));
        assert!(!du.def_feeds_use(cond, write)); // Def(cond) = ⊥
        assert!(!du.def_feeds_use(write, write)); // x = y+1 does not read x
    }

    #[test]
    fn index_agrees_with_def_feeds_use() {
        let (cfg, du) = setup(
            "proc f(int x, int y) { x = y + 1; if (x > y) { y = x; } x = x + y; assert(y > 0); }",
        );
        for ni in cfg.node_ids() {
            let fed: Vec<NodeId> = cfg
                .node_ids()
                .filter(|&nj| du.def_feeds_use(ni, nj))
                .collect();
            assert_eq!(du.fed_by(ni), fed.as_slice());
            let mut feeding: Vec<NodeId> = du.feeding(ni).collect();
            feeding.sort();
            let expected: Vec<NodeId> = cfg
                .node_ids()
                .filter(|&nk| du.def_feeds_use(nk, ni))
                .collect();
            assert_eq!(feeding, expected);
        }
        assert_eq!(du.defs_of("x").len(), 2);
        assert_eq!(du.uses_of("y").len(), 4);
        assert!(du.uses_of("z").is_empty());
    }

    #[test]
    fn self_feeding_assignment() {
        let (cfg, du) = setup("proc f(int x) { x = x + 1; }");
        let write = cfg.write_nodes().next().unwrap();
        assert!(du.def_feeds_use(write, write));
    }

    #[test]
    fn assume_uses_condition_vars() {
        let (cfg, du) = setup("proc f(int a, int b) { assume(a < b); }");
        let assume = cfg.cond_nodes().next().unwrap();
        assert!(du.uses(assume).contains("a"));
        assert!(du.uses(assume).contains("b"));
    }
}
