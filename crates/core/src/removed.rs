//! Handling removed instructions: the `removeNodes` algorithm of
//! Fig. 5(a).
//!
//! A statement deleted from the base version has no node in `CFG_mod`, but
//! its disappearance can still affect the modified version's behaviour.
//! The algorithm:
//!
//! 1. seed the affected sets with the *removed* nodes of `CFG_base`;
//! 2. run the same fixpoint rules (Fig. 3 / Fig. 4) **on the base CFG**;
//! 3. map every resulting base node through the `diffMap` into `CFG_mod`
//!    (removed nodes map to nothing — "the get method on diffMap returns
//!    the empty set");
//! 4. the caller unions the mapped nodes with the changed/added seeds and
//!    re-runs the affected-location analysis on `CFG_mod`.

use std::collections::BTreeSet;

use dise_cfg::{Cfg, NodeId};
use dise_diff::CfgDiff;

use crate::affected::{AffectedSets, DataflowPrecision};

/// Computes the `CFG_mod` nodes affected by the instructions removed from
/// the base version (steps 1–3 above). Returns an empty set when nothing
/// was removed.
pub fn removed_effects(
    cfg_base: &Cfg,
    diff: &CfgDiff,
    precision: DataflowPrecision,
) -> BTreeSet<NodeId> {
    let removed: Vec<NodeId> = diff.removed_base().collect();
    if removed.is_empty() {
        return BTreeSet::new();
    }
    let base_sets = AffectedSets::compute(cfg_base, removed, precision, false);
    let mut mapped = BTreeSet::new();
    for &base_node in base_sets.acn().iter().chain(base_sets.awn().iter()) {
        if let Some(mod_node) = diff.map_node(base_node) {
            mapped.insert(mod_node);
        }
    }
    mapped
}

/// The seeds of the fixpoint on `CFG_mod`: the changed/added nodes
/// unioned with the removed-node effects (Fig. 5a).
pub fn affected_seeds(
    cfg_base: &Cfg,
    diff: &CfgDiff,
    precision: DataflowPrecision,
) -> BTreeSet<NodeId> {
    let mut seeds: BTreeSet<NodeId> = diff.changed_or_added_mod().collect();
    seeds.extend(removed_effects(cfg_base, diff, precision));
    seeds
}

/// The full affected-location pipeline of §3.2: [`affected_seeds`],
/// then the fixpoint on `CFG_mod`.
pub fn affected_locations(
    cfg_base: &Cfg,
    cfg_mod: &Cfg,
    diff: &CfgDiff,
    precision: DataflowPrecision,
    record_trace: bool,
) -> AffectedSets {
    let seeds = affected_seeds(cfg_base, diff, precision);
    AffectedSets::compute(cfg_mod, seeds, precision, record_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    fn pipeline(base: &str, modified: &str) -> (Cfg, AffectedSets) {
        let b = parse_program(base).unwrap();
        let m = parse_program(modified).unwrap();
        let (cfg_base, cfg_mod, diff) = CfgDiff::from_programs(&b, &m, "f").unwrap();
        let sets = affected_locations(
            &cfg_base,
            &cfg_mod,
            &diff,
            DataflowPrecision::CfgPath,
            false,
        );
        (cfg_mod, sets)
    }

    #[test]
    fn no_removals_no_extra_seeds() {
        let src = "proc f(int x) { if (x > 0) { x = 1; } }";
        let (_, sets) = pipeline(src, src);
        assert!(sets.is_empty());
    }

    #[test]
    fn removed_write_marks_surviving_reader() {
        // Base writes g twice; the mod removes the second write. The
        // conditional reading g survives in both versions and must become
        // affected through the removed definition.
        let (cfg_mod, sets) = pipeline(
            "int g = 0;
proc f(int x) {
  g = x;
  g = x + 1;
  if (g > 0) { g = 9; }
}",
            "int g = 0;
proc f(int x) {
  g = x;
  if (g > 0) { g = 9; }
}",
        );
        let branch = cfg_mod.cond_nodes().next().unwrap();
        assert!(sets.contains(branch), "branch must be affected: {sets:?}");
        // The surviving definition `g = x` feeds the affected branch: Eq.(4).
        let write = cfg_mod
            .write_nodes()
            .find(|&n| cfg_mod.node(n).span.line == 3)
            .unwrap();
        assert!(sets.contains(write));
    }

    #[test]
    fn removed_conditional_propagates_through_base_rules() {
        // Removing an entire if-statement: nodes control-dependent on the
        // removed branch (in base) map to nothing, but writes that fed the
        // removed condition survive and matter.
        let (cfg_mod, sets) = pipeline(
            "int g = 0;
proc f(int x) {
  g = x;
  if (g > 0) { g = 1; }
  if (x > 5) { g = 2; }
}",
            "int g = 0;
proc f(int x) {
  g = x;
  if (x > 5) { g = 2; }
}",
        );
        // `g = x` fed the removed condition in base ⇒ affected in mod.
        let write = cfg_mod
            .write_nodes()
            .find(|&n| cfg_mod.node(n).span.line == 3)
            .unwrap();
        assert!(sets.contains(write));
    }

    #[test]
    fn pure_removal_with_no_survivors_yields_seedless_mod() {
        // Removing an isolated write whose variable nobody reads: nothing
        // in mod is affected.
        let (_, sets) = pipeline(
            "int g = 0;
int h = 0;
proc f(int x) {
  h = 5;
  if (x > 0) { g = 1; }
}",
            "int g = 0;
int h = 0;
proc f(int x) {
  if (x > 0) { g = 1; }
}",
        );
        assert!(sets.is_empty(), "{sets:?}");
    }

    #[test]
    fn removed_effects_empty_for_identical_programs() {
        let src = "proc f(int x) { x = 1; }";
        let b = parse_program(src).unwrap();
        let m = parse_program(src).unwrap();
        let (cfg_base, _, diff) = CfgDiff::from_programs(&b, &m, "f").unwrap();
        assert!(removed_effects(&cfg_base, &diff, DataflowPrecision::CfgPath).is_empty());
    }
}
