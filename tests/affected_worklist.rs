//! The affected-set fixpoint and control dependence against their
//! definitions.
//!
//! `AffectedSets::compute` is a phased worklist over a def→use index.
//! This file keeps the loop it replaced as a reference: every round
//! re-tests every premise pair of every rule. On every case both must
//! agree byte for byte — the same `ACN`/`AWN` and the same Fig. 5(b)
//! trace, row for row, so the same number of rows per rule. The cases:
//!
//! * the 200 corpus pairs of `tests/generated_corpus.rs`;
//! * the 14 WBS/OAE/ASW versions;
//! * three pairs at the 30x generated tier;
//! * dense synthetic seeds (every seventh node) on the artifacts;
//!
//! each under both data-flow precisions, through the removed-node path on
//! the base CFG (Fig. 5a) whenever the diff removed a node.
//!
//! `ControlDeps::new` walks the post-dominator tree; here it is checked
//! against Definition 3.9 verbatim on every corpus CFG.

use std::collections::BTreeSet;

use dise::cfg::dataflow::ReachingDefs;
use dise::cfg::{Cfg, ControlDeps, DefUse, NodeId, PostDomTree, Reachability};
use dise::core::affected::{AffectedSets, DataflowPrecision, Rule, TraceRow};
use dise::core::dise::DiseConfig;
use dise::core::removed::affected_seeds;
use dise::core::session::AnalysisSession;
use dise::diff::CfgDiff;
use dise::gen::{evolve, GenParams, Scenario, PROC_NAME};
use dise::ir::Program;

const PRECISIONS: [DataflowPrecision; 2] =
    [DataflowPrecision::CfgPath, DataflowPrecision::ReachingDefs];

/// The reference fixpoint: Fig. 3 rules to quiescence, then Eq. (4), then
/// the chain rule, repeated until stable, each round re-testing every
/// pair.
fn oracle(cfg: &Cfg, seeds: &BTreeSet<NodeId>, precision: DataflowPrecision) -> Vec<TraceRow> {
    let postdom = PostDomTree::new(cfg);
    let control = ControlDeps::new(cfg, &postdom);
    let defuse = DefUse::new(cfg);
    let reach = Reachability::new(cfg);
    let reaching =
        (precision == DataflowPrecision::ReachingDefs).then(|| ReachingDefs::new(cfg, &defuse));
    let flows = |ni: NodeId, nj: NodeId| {
        defuse.def_feeds_use(ni, nj)
            && match &reaching {
                None => reach.is_cfg_path(ni, nj),
                Some(rd) => rd.reaches(ni, nj),
            }
    };

    let (mut acn, mut awn) = (BTreeSet::new(), BTreeSet::new());
    for &seed in seeds {
        if cfg.node(seed).kind.is_cond() {
            acn.insert(seed);
        } else {
            awn.insert(seed);
        }
    }
    let mut trace = Vec::new();
    let row = |acn: &BTreeSet<NodeId>, awn: &BTreeSet<NodeId>, ni, nj, rule| TraceRow {
        acn: acn.clone(),
        awn: awn.clone(),
        ni,
        nj,
        rule,
    };
    trace.push(row(&acn, &awn, None, None, None));

    loop {
        let mut global_change = false;
        loop {
            let mut changed = false;
            for ni in acn.clone() {
                for &nj in control.dependents(ni) {
                    let node = cfg.node(nj);
                    if node.kind.is_cond() && acn.insert(nj) {
                        trace.push(row(&acn, &awn, Some(ni), Some(nj), Some(Rule::Eq1)));
                        changed = true;
                    } else if node.kind.is_write() && awn.insert(nj) {
                        trace.push(row(&acn, &awn, Some(ni), Some(nj), Some(Rule::Eq2)));
                        changed = true;
                    }
                }
            }
            for ni in awn.clone() {
                for nj in cfg.cond_nodes() {
                    if flows(ni, nj) && acn.insert(nj) {
                        trace.push(row(&acn, &awn, Some(ni), Some(nj), Some(Rule::Eq3)));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            global_change = true;
        }
        loop {
            let mut changed = false;
            for ni in cfg.write_nodes() {
                if awn.contains(&ni) || !acn.iter().chain(&awn).any(|&nj| flows(ni, nj)) {
                    continue;
                }
                awn.insert(ni);
                let nj = acn
                    .iter()
                    .chain(&awn)
                    .copied()
                    .find(|&nj| nj != ni && flows(ni, nj));
                trace.push(row(&acn, &awn, Some(ni), nj, Some(Rule::Eq4)));
                changed = true;
            }
            if !changed {
                break;
            }
            global_change = true;
        }
        loop {
            let mut changed = false;
            for ni in awn.clone() {
                for nj in cfg.write_nodes() {
                    if flows(ni, nj) && awn.insert(nj) {
                        trace.push(row(&acn, &awn, Some(ni), Some(nj), Some(Rule::Chain)));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            global_change = true;
        }
        if !global_change {
            return trace;
        }
    }
}

type RowKey = (
    BTreeSet<NodeId>,
    BTreeSet<NodeId>,
    Option<NodeId>,
    Option<NodeId>,
    Option<String>,
);

fn key(row: &TraceRow) -> RowKey {
    (
        row.acn.clone(),
        row.awn.clone(),
        row.ni,
        row.nj,
        row.rule.map(|r| r.to_string()),
    )
}

fn rule_counts(trace: &[TraceRow]) -> Vec<usize> {
    [Rule::Eq1, Rule::Eq2, Rule::Eq3, Rule::Eq4, Rule::Chain]
        .iter()
        .map(|&rule| trace.iter().filter(|r| r.rule == Some(rule)).count())
        .collect()
}

/// Runs both fixpoints from `seeds` and asserts they agree; returns the
/// affected nodes.
fn assert_agree(
    what: &str,
    cfg: &Cfg,
    seeds: &BTreeSet<NodeId>,
    precision: DataflowPrecision,
) -> BTreeSet<NodeId> {
    let sets = AffectedSets::compute(cfg, seeds.iter().copied(), precision, true);
    let expected = oracle(cfg, seeds, precision);
    let last = expected.last().expect("the oracle records its seed row");
    assert_eq!(sets.acn(), &last.acn, "{what} ({precision:?}): ACN");
    assert_eq!(sets.awn(), &last.awn, "{what} ({precision:?}): AWN");
    assert_eq!(
        rule_counts(sets.trace()),
        rule_counts(&expected),
        "{what} ({precision:?}): rows per rule"
    );
    let rows: Vec<RowKey> = sets.trace().iter().map(key).collect();
    let expected_rows: Vec<RowKey> = expected.iter().map(key).collect();
    assert!(
        rows == expected_rows,
        "{what} ({precision:?}): traces differ"
    );
    assert_eq!(
        sets.stats().nodes_added as usize,
        expected.len() - 1,
        "{what} ({precision:?}): nodes added"
    );
    last.acn.union(&last.awn).copied().collect()
}

/// Checks one version pair in both precisions — the removed-node fixpoint
/// on the base CFG, the seeds it yields, and the fixpoint on the modified
/// CFG — and returns whether the diff removed anything.
fn check_pair(what: &str, base: &Program, modified: &Program, proc_name: &str) -> bool {
    let mut session = AnalysisSession::open(base, modified, proc_name, DiseConfig::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let diffed = session.diffed().unwrap_or_else(|e| panic!("{what}: {e}"));
    let (cfg_base, cfg_mod, diff) = (&diffed.cfg_base, &diffed.cfg_mod, &diffed.diff);
    let removed: BTreeSet<NodeId> = diff.removed_base().collect();
    for precision in PRECISIONS {
        let mut seeds: BTreeSet<NodeId> = diff.changed_or_added_mod().collect();
        if !removed.is_empty() {
            let base_affected = assert_agree(
                &format!("{what}, removed nodes on the base CFG"),
                cfg_base,
                &removed,
                precision,
            );
            seeds.extend(base_affected.iter().filter_map(|&n| diff.map_node(n)));
        }
        assert_eq!(
            affected_seeds(cfg_base, diff, precision),
            seeds,
            "{what} ({precision:?}): seeds"
        );
        assert_agree(what, cfg_mod, &seeds, precision);
    }
    !removed.is_empty()
}

/// The corpus shapes of `tests/generated_corpus.rs`.
fn params_for(seed: u64) -> GenParams {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    GenParams {
        seed,
        arms: 2 + (mix % 3) as usize,
        guard_depth: 1 + ((mix >> 8) % 2) as usize,
        helpers: ((mix >> 16) % 3) as usize,
        call_depth: 1 + ((mix >> 24) % 2) as usize,
        globals: 2 + ((mix >> 32) % 2) as usize,
    }
}

/// The corpus pairs of `tests/generated_corpus.rs`: 4 blocks of 50 seeds.
fn corpus_pairs() -> impl Iterator<Item = (u64, Program, Program)> {
    (0..4u64)
        .flat_map(|block| (0..50).map(move |i| block * 1_000_000 + i))
        .map(|seed| {
            let base = Scenario::generate(&params_for(seed));
            let evolution = evolve(&base, seed, 1 + (seed % 3) as usize);
            (seed, base.program(), evolution.modified.program())
        })
}

fn artifacts() -> Vec<dise::artifacts::Artifact> {
    vec![
        dise::artifacts::wbs::artifact(),
        dise::artifacts::oae::artifact(),
        dise::artifacts::asw::artifact(),
    ]
}

#[test]
fn worklist_matches_oracle_on_the_generated_corpus() {
    let mut with_removals = 0;
    for (seed, base, modified) in corpus_pairs() {
        if check_pair(&format!("corpus seed {seed}"), &base, &modified, PROC_NAME) {
            with_removals += 1;
        }
    }
    assert!(with_removals > 0, "no corpus pair exercised removed nodes");
}

#[test]
fn worklist_matches_oracle_on_the_artifacts() {
    let mut versions = 0;
    for artifact in artifacts() {
        for version in &artifact.versions {
            let what = format!("{}/{}", artifact.name, version.id);
            check_pair(&what, &artifact.base, &version.program, artifact.proc_name);
            versions += 1;
        }
    }
    assert_eq!(versions, 14);
}

#[test]
fn worklist_matches_oracle_at_the_30x_tier() {
    for seed in 2024..2027 {
        let base = Scenario::generate(&GenParams {
            seed,
            arms: 72,
            guard_depth: 2,
            helpers: 3,
            call_depth: 2,
            globals: 3,
        });
        let evolution = evolve(&base, seed, 2);
        check_pair(
            &format!("30x seed {seed}"),
            &base.program(),
            &evolution.modified.program(),
            PROC_NAME,
        );
    }
}

#[test]
fn worklist_matches_oracle_on_dense_seeds() {
    for artifact in artifacts() {
        let mut session = AnalysisSession::open(
            &artifact.base,
            &artifact.base,
            artifact.proc_name,
            DiseConfig::default(),
        )
        .expect("artifact flattens");
        let cfg = &session.diffed().expect("artifact diffs").cfg_mod;
        for offset in 0..3 {
            let seeds: BTreeSet<NodeId> = cfg.node_ids().skip(offset).step_by(7).collect();
            for precision in PRECISIONS {
                let what = format!("{} every 7th node from {offset}", artifact.name);
                assert_agree(&what, cfg, &seeds, precision);
            }
        }
    }
}

/// Definition 3.9 verbatim: `controlD(ni, nj)` iff some successor of
/// `ni` is post-dominated by `nj` and another is not.
fn assert_control_deps_match_definition(what: &str, cfg: &Cfg) {
    let postdom = PostDomTree::new(cfg);
    let cd = ControlDeps::new(cfg, &postdom);
    for ni in cfg.node_ids() {
        let succs: Vec<NodeId> = cfg.succs(ni).iter().map(|&(s, _)| s).collect();
        let expected: Vec<NodeId> = cfg
            .node_ids()
            .filter(|&nj| {
                succs.iter().any(|&nk| {
                    succs.iter().any(|&nl| {
                        nk != nl
                            && postdom.post_dominates(nk, nj)
                            && !postdom.post_dominates(nl, nj)
                    })
                })
            })
            .collect();
        assert_eq!(cd.dependents(ni), expected.as_slice(), "{what}: {ni}");
    }
    for nj in cfg.node_ids() {
        let expected: Vec<NodeId> = cfg
            .node_ids()
            .filter(|&ni| cd.dependents(ni).contains(&nj))
            .collect();
        assert_eq!(cd.deps_of(nj), expected.as_slice(), "{what}: deps of {nj}");
    }
}

#[test]
fn control_deps_match_definition_on_the_generated_corpus() {
    for (seed, base, modified) in corpus_pairs() {
        let (cfg_base, cfg_mod, _) = CfgDiff::from_programs(
            &dise::ir::inline::inline_program(&base, PROC_NAME).expect("base flattens"),
            &dise::ir::inline::inline_program(&modified, PROC_NAME).expect("mod flattens"),
            PROC_NAME,
        )
        .expect("corpus pair diffs");
        assert_control_deps_match_definition(&format!("seed {seed} base"), &cfg_base);
        assert_control_deps_match_definition(&format!("seed {seed} mod"), &cfg_mod);
    }
}
