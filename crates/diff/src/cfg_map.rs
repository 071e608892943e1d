//! Mapping statement-level diff results onto CFG nodes.
//!
//! This is the "pre-processing step" of §3.1: DiSE "maps the change
//! information to the corresponding nodes in each CFG", marking nodes in
//! `CFG_base` as removed/changed/unchanged and nodes in `CFG_mod` as
//! added/changed/unchanged, and computing the `diffMap` from base nodes to
//! mod nodes (removed base nodes map to nothing).
//!
//! A single statement can own several CFG nodes (a desugared `assert` owns
//! a branch and an error node); the [`dise_cfg::OriginRole`] discriminator keeps the
//! mapping exact. The lift indexes `CFG_mod` by `(span, role)` once, so it
//! is linear in the size of the two CFGs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dise_cfg::{Cfg, NodeId, OriginRole};
use dise_ir::Span;

use crate::stmt_diff::{BaseMark, ModMark, ProcDiff};

/// The diff lifted to CFG-node granularity.
#[derive(Debug, Clone, Default)]
pub struct CfgDiff {
    changed_mod: BTreeSet<NodeId>,
    added_mod: BTreeSet<NodeId>,
    removed_base: BTreeSet<NodeId>,
    changed_base: BTreeSet<NodeId>,
    diff_map: BTreeMap<NodeId, NodeId>,
}

impl CfgDiff {
    /// Lifts `diff` onto the two CFGs.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_cfg::build_cfg;
    /// use dise_diff::{CfgDiff, stmt_diff::diff_programs};
    /// use dise_ir::parse_program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let base = parse_program("proc f(int x) { if (x == 0) { x = 1; } }")?;
    /// let new = parse_program("proc f(int x) { if (x <= 0) { x = 1; } }")?;
    /// let diff = diff_programs(&base, &new, "f")?;
    /// let cfg_base = build_cfg(base.proc("f").unwrap());
    /// let cfg_mod = build_cfg(new.proc("f").unwrap());
    /// let cfg_diff = CfgDiff::new(&diff, &cfg_base, &cfg_mod);
    /// assert_eq!(cfg_diff.changed_mod().count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(diff: &ProcDiff, cfg_base: &Cfg, cfg_mod: &Cfg) -> CfgDiff {
        let mut out = CfgDiff::default();

        // Mod-side marks, and the origin index the diffMap looks up.
        let mut by_origin: HashMap<(Span, OriginRole), NodeId> =
            HashMap::with_capacity(cfg_mod.len());
        for id in cfg_mod.node_ids() {
            let node = cfg_mod.node(id);
            if node.span.is_dummy() {
                continue; // begin/end
            }
            // Statement spans are unique, so a key has one node; should
            // one repeat, the lowest id stands.
            by_origin.entry((node.span, node.role)).or_insert(id);
            match diff.mod_mark(node.span) {
                Some(ModMark::Changed) => {
                    out.changed_mod.insert(id);
                }
                Some(ModMark::Added) => {
                    out.added_mod.insert(id);
                }
                Some(ModMark::Unchanged) | None => {}
            }
        }

        // Base-side marks + diffMap.
        for id in cfg_base.node_ids() {
            let node = cfg_base.node(id);
            if node.span.is_dummy() {
                continue;
            }
            match diff.base_mark(node.span) {
                Some(BaseMark::Removed) => {
                    out.removed_base.insert(id);
                }
                mark => {
                    if mark == Some(BaseMark::Changed) {
                        out.changed_base.insert(id);
                    }
                    if let Some(mod_span) = diff.map_span(node.span) {
                        if let Some(&mod_id) = by_origin.get(&(mod_span, node.role)) {
                            out.diff_map.insert(id, mod_id);
                        }
                    }
                }
            }
        }
        // Virtual nodes correspond to each other.
        out.diff_map.insert(cfg_base.begin(), cfg_mod.begin());
        out.diff_map.insert(cfg_base.end(), cfg_mod.end());
        out
    }

    /// Builds the full diff pipeline for one procedure of two programs:
    /// statement diff, both CFGs, and the node-level lift.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::stmt_diff::DiffError`] from the statement diff.
    pub fn from_programs(
        base: &dise_ir::Program,
        modified: &dise_ir::Program,
        proc_name: &str,
    ) -> Result<(Cfg, Cfg, CfgDiff), crate::stmt_diff::DiffError> {
        let diff = crate::stmt_diff::diff_programs(base, modified, proc_name)?;
        let cfg_base = dise_cfg::build_cfg(
            base.proc(proc_name)
                .expect("diff_programs verified existence"),
        );
        let cfg_mod = dise_cfg::build_cfg(
            modified
                .proc(proc_name)
                .expect("diff_programs verified existence"),
        );
        let cfg_diff = CfgDiff::new(&diff, &cfg_base, &cfg_mod);
        Ok((cfg_base, cfg_mod, cfg_diff))
    }

    /// Changed nodes in `CFG_mod`.
    pub fn changed_mod(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.changed_mod.iter().copied()
    }

    /// Added nodes in `CFG_mod`.
    pub fn added_mod(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.added_mod.iter().copied()
    }

    /// Changed-or-added nodes in `CFG_mod` — the seeds of the affected-set
    /// analysis.
    pub fn changed_or_added_mod(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.changed_mod
            .iter()
            .chain(self.added_mod.iter())
            .copied()
    }

    /// Removed nodes in `CFG_base` — the seeds of the `removeNodes`
    /// algorithm (Fig. 5a).
    pub fn removed_base(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.removed_base.iter().copied()
    }

    /// Changed nodes in `CFG_base`.
    pub fn changed_base(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.changed_base.iter().copied()
    }

    /// `diffMap.get(n)`: the `CFG_mod` node corresponding to base node `n`
    /// (`None` for removed nodes).
    pub fn map_node(&self, base_node: NodeId) -> Option<NodeId> {
        self.diff_map.get(&base_node).copied()
    }

    /// Number of changed-or-added mod nodes plus removed base nodes — the
    /// "CFG Nodes Changed" column of Table 2.
    pub fn changed_node_count(&self) -> usize {
        self.changed_mod.len() + self.added_mod.len() + self.removed_base.len()
    }

    /// Is anything different at all?
    pub fn is_identical(&self) -> bool {
        self.changed_node_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    fn lift(base: &str, modified: &str) -> (Cfg, Cfg, CfgDiff) {
        let b = parse_program(base).unwrap();
        let m = parse_program(modified).unwrap();
        CfgDiff::from_programs(&b, &m, "f").unwrap()
    }

    #[test]
    fn identical_lift_is_identity() {
        let src = "proc f(int x) { if (x > 0) { x = 1; } }";
        let (cfg_base, _, d) = lift(src, src);
        assert!(d.is_identical());
        // Every base node (incl. begin/end) maps somewhere.
        for id in cfg_base.node_ids() {
            assert!(d.map_node(id).is_some(), "{id} unmapped");
        }
    }

    #[test]
    fn changed_condition_marks_one_mod_node() {
        let (_, cfg_mod, d) = lift(
            "proc f(int x) { if (x == 0) { x = 1; } }",
            "proc f(int x) { if (x <= 0) { x = 1; } }",
        );
        let changed: Vec<NodeId> = d.changed_mod().collect();
        assert_eq!(changed.len(), 1);
        assert!(cfg_mod.node(changed[0]).kind.is_cond());
        assert_eq!(d.changed_node_count(), 1);
    }

    #[test]
    fn removed_nodes_have_no_mapping() {
        let (cfg_base, _, d) = lift(
            "proc f(int x) {\n  x = 1;\n  x = x + 5;\n}",
            "proc f(int x) {\n  x = 1;\n}",
        );
        let removed: Vec<NodeId> = d.removed_base().collect();
        assert_eq!(removed.len(), 1);
        assert_eq!(d.map_node(removed[0]), None);
        assert!(cfg_base.node(removed[0]).kind.is_write());
    }

    #[test]
    fn assert_statement_maps_both_roles() {
        let (cfg_base, cfg_mod, d) = lift(
            "proc f(int x) {\n  x = 1;\n  assert(x > 0);\n}",
            "proc f(int x) {\n  x = 2;\n  assert(x > 0);\n}",
        );
        // The assert owns two nodes; both must be mapped.
        let branch = cfg_base
            .cond_nodes()
            .next()
            .expect("assert produces a cond node");
        let error = cfg_base.false_succ(branch);
        let mapped_branch = d.map_node(branch).unwrap();
        let mapped_error = d.map_node(error).unwrap();
        assert!(cfg_mod.node(mapped_branch).kind.is_cond());
        assert!(cfg_mod.node(mapped_error).kind.is_error());
        assert_eq!(cfg_mod.node(mapped_branch).role, OriginRole::Primary);
        assert_eq!(cfg_mod.node(mapped_error).role, OriginRole::AssertError);
    }

    #[test]
    fn added_node_is_reported() {
        let (_, cfg_mod, d) = lift(
            "proc f(int x) {\n  x = 1;\n}",
            "proc f(int x) {\n  x = 1;\n  if (x > 0) {\n    x = 2;\n  }\n}",
        );
        // The added if + its body assignment = 2 added nodes.
        assert_eq!(d.added_mod().count(), 2);
        assert_eq!(d.changed_or_added_mod().count(), 2);
        let kinds: Vec<bool> = d
            .added_mod()
            .map(|n| cfg_mod.node(n).kind.is_cond())
            .collect();
        assert!(kinds.contains(&true));
    }

    #[test]
    fn begin_end_always_map() {
        let (cfg_base, cfg_mod, d) = lift("proc f(int x) { x = 1; }", "proc f(int x) { x = 2; }");
        assert_eq!(d.map_node(cfg_base.begin()), Some(cfg_mod.begin()));
        assert_eq!(d.map_node(cfg_base.end()), Some(cfg_mod.end()));
    }

    #[test]
    fn statements_map_to_their_nodes_by_role() {
        let src = "proc f(int x) {\n  x = 1;\n  assert(x > 0);\n}";
        let (cfg_base, cfg_mod, d) = lift(src, src);
        let node_of = |cfg: &Cfg, line: u32, role: OriginRole| {
            cfg.node_ids()
                .find(|&id| cfg.node(id).span.line == line && cfg.node(id).role == role)
        };
        // The assignment owns one primary node and no error node.
        let assign = node_of(&cfg_base, 2, OriginRole::Primary).expect("assign node");
        assert!(node_of(&cfg_base, 2, OriginRole::AssertError).is_none());
        assert_eq!(
            d.map_node(assign),
            node_of(&cfg_mod, 2, OriginRole::Primary)
        );
        // The assert owns a primary branch and an error node, each mapped
        // onto the node of the same role.
        for role in [OriginRole::Primary, OriginRole::AssertError] {
            let base_node = node_of(&cfg_base, 3, role).expect("assert node");
            let mod_node = node_of(&cfg_mod, 3, role).expect("assert node");
            assert_eq!(d.map_node(base_node), Some(mod_node), "{role:?}");
        }
    }
}
