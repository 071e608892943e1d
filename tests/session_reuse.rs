//! The staged `AnalysisSession`'s end-to-end invariants, pinned on the
//! paper's artifact corpus:
//!
//! * **byte identity** — a session's result, and every evolution
//!   application run `_with` a shared session, equals the independent
//!   `run_dise`/standalone-application output path for path (stage
//!   reuse moves solver work, never results);
//! * **one exploration** — all four evolution applications off one
//!   session perform exactly one directed exploration (the session's
//!   cached summary is handed out, not recomputed);
//! * **chain equivalence** — a 3-version `v1 → v2 → v3` chain produces
//!   the same per-hop summaries as two independent pairwise runs, while
//!   hop 2 warm-starts in process from hop 1's executor.

use dise::artifacts::{asw, figures, oae, wbs, Artifact};
use dise::core::dise::{run_dise, DiseConfig, DiseResult};
use dise::core::session::AnalysisSession;
use dise::evolution::diffsum::DiffSumConfig;
use dise::evolution::localize::LocalizeConfig;
use dise::evolution::report::ImpactConfig;
use dise::evolution::witness::WitnessConfig;
use dise::evolution::{
    classify_changes, classify_changes_with, find_witnesses, find_witnesses_with, impact_report,
    impact_report_with, localize_change, localize_change_with,
};
use dise::ir::Program;
use dise::symexec::SymbolicSummary;

fn assert_identical(context: &str, a: &SymbolicSummary, b: &SymbolicSummary) {
    assert_eq!(a.paths().len(), b.paths().len(), "{context}: paths");
    for (i, (x, y)) in a.paths().iter().zip(b.paths()).enumerate() {
        assert_eq!(x.pc, y.pc, "{context}: path {i} pc");
        assert_eq!(x.outcome, y.outcome, "{context}: path {i} outcome");
        assert_eq!(x.final_env, y.final_env, "{context}: path {i} env");
        assert_eq!(x.trace, y.trace, "{context}: path {i} trace");
    }
    assert_eq!(
        a.stats().states_explored,
        b.stats().states_explored,
        "{context}: states"
    );
    assert_eq!(a.stats().pruned, b.stats().pruned, "{context}: pruned");
    assert_eq!(
        a.stats().infeasible,
        b.stats().infeasible,
        "{context}: infeasible"
    );
}

fn evolution_pairs() -> Vec<(String, &'static str, Program, Program)> {
    let mut pairs = vec![(
        "fig2".to_string(),
        "update",
        figures::fig2_base(),
        figures::fig2_modified(),
    )];
    let suites: [(Artifact, &[&str]); 3] = [
        (wbs::artifact(), &["v2", "v4"]),
        (oae::artifact(), &["v2", "v4"]),
        (asw::artifact(), &["v2", "v8"]),
    ];
    for (artifact, versions) in suites {
        for &version in versions {
            pairs.push((
                format!("{} {version}", artifact.name),
                artifact.proc_name,
                artifact.base.clone(),
                artifact.version(version).unwrap().program.clone(),
            ));
        }
    }
    pairs
}

#[test]
fn session_results_are_byte_identical_to_run_dise_at_jobs_1_and_4() {
    for (name, proc_name, base, modified) in evolution_pairs() {
        let context = name.to_string();
        let mut session =
            AnalysisSession::open(&base, &modified, proc_name, DiseConfig::default()).unwrap();
        let shared = session.result().unwrap();
        let independent = run_dise(&base, &modified, proc_name, &DiseConfig::default()).unwrap();
        assert_identical(&context, &independent.summary, &shared.summary);
        assert_eq!(shared.changed_nodes, independent.changed_nodes, "{context}");
        assert_eq!(
            shared.affected_nodes, independent.affected_nodes,
            "{context}"
        );
        assert_eq!(
            shared.affected.acn(),
            independent.affected.acn(),
            "{context}"
        );
        assert_eq!(
            shared.affected.awn(),
            independent.affected.awn(),
            "{context}"
        );
        // The session caches: a second result() hands out the same
        // exploration (down to its measured wall-clock), not a rerun.
        let again = session.result().unwrap();
        assert_eq!(
            shared.summary.stats().elapsed,
            again.summary.stats().elapsed,
            "{context}: result() must not re-explore"
        );
    }
}

#[test]
fn four_applications_on_one_session_match_the_standalone_runs() {
    for (name, proc_name, base, modified) in [
        (
            "fig2",
            "update",
            figures::fig2_base(),
            figures::fig2_modified(),
        ),
        (
            "wbs v4",
            wbs::artifact().proc_name,
            wbs::artifact().base.clone(),
            wbs::artifact().version("v4").unwrap().program.clone(),
        ),
    ] {
        let context = name.to_string();
        let mut session =
            AnalysisSession::open(&base, &modified, proc_name, DiseConfig::default()).unwrap();
        let witness_cfg = WitnessConfig {
            dise: DiseConfig::default(),
            ..WitnessConfig::default()
        };
        let diffsum_cfg = DiffSumConfig {
            dise: DiseConfig::default(),
            ..DiffSumConfig::default()
        };
        let localize_cfg = LocalizeConfig {
            dise: DiseConfig::default(),
            ..LocalizeConfig::default()
        };
        let impact_cfg = ImpactConfig {
            dise: DiseConfig::default(),
            ..ImpactConfig::default()
        };

        let w_shared = find_witnesses_with(&mut session, &witness_cfg).unwrap();
        let c_shared = classify_changes_with(&mut session, &diffsum_cfg).unwrap();
        let l_shared = localize_change_with(&mut session, &localize_cfg).unwrap();
        let r_shared = impact_report_with(&mut session, &impact_cfg).unwrap();

        let w = find_witnesses(&base, &modified, proc_name, &witness_cfg).unwrap();
        let c = classify_changes(&base, &modified, proc_name, &diffsum_cfg).unwrap();
        let l = localize_change(&base, &modified, proc_name, &localize_cfg).unwrap();
        let r = impact_report(&base, &modified, proc_name, &impact_cfg).unwrap();

        assert_eq!(
            format!("{:?}", w_shared.witnesses),
            format!("{:?}", w.witnesses),
            "{context}: witnesses"
        );
        assert_eq!(w_shared.affected_pcs, w.affected_pcs, "{context}");
        assert_eq!(c_shared.render(), c.render(), "{context}: classify");
        assert_eq!(
            dise::evolution::localize::render_ranking(&l_shared.report, None, usize::MAX),
            dise::evolution::localize::render_ranking(&l.report, None, usize::MAX),
            "{context}: localize ranking"
        );
        assert_eq!(
            l_shared.best_changed_rank, l.best_changed_rank,
            "{context}: rank"
        );
        assert_eq!(r_shared, r, "{context}: impact report");
    }
}

#[test]
fn three_version_chain_matches_independent_pairwise_runs() {
    let artifact = wbs::artifact();
    let v2 = artifact.version("v2").unwrap().program.clone();
    let v4 = artifact.version("v4").unwrap().program.clone();
    let versions = [artifact.base.clone(), v2, v4];
    let proc_name = artifact.proc_name;

    let context = "chain".to_string();
    let mut session =
        AnalysisSession::open(&versions[0], &versions[1], proc_name, DiseConfig::default())
            .unwrap();
    let hop1 = session.result().unwrap();
    let mut session = session.advance(&versions[2]).unwrap();
    let hop2 = session.result().unwrap();

    let ind1 = run_dise(
        &versions[0],
        &versions[1],
        proc_name,
        &DiseConfig::default(),
    )
    .unwrap();
    let ind2 = run_dise(
        &versions[1],
        &versions[2],
        proc_name,
        &DiseConfig::default(),
    )
    .unwrap();
    assert_identical(&format!("{context} hop1"), &ind1.summary, &hop1.summary);
    assert_identical(&format!("{context} hop2"), &ind2.summary, &hop2.summary);

    // Hop 2 warm-started in process from hop 1's executor — no store
    // involved.
    assert!(
        hop2.summary.stats().warm_trie_entries > 0,
        "{context}: hop 2 must inherit hop 1's trie"
    );
}

#[test]
fn chained_hop_never_solves_more_than_an_independent_run() {
    let solver_calls = |r: &DiseResult| {
        let s = &r.summary.stats().solver;
        s.incremental_checks + s.fallback_checks
    };
    for (artifact, from, to) in [(wbs::artifact(), "v2", "v4"), (oae::artifact(), "v2", "v4")] {
        let a = artifact.version(from).unwrap().program.clone();
        let b = artifact.version(to).unwrap().program.clone();
        let mut session = AnalysisSession::open(
            &artifact.base,
            &a,
            artifact.proc_name,
            DiseConfig::default(),
        )
        .unwrap();
        session.result().unwrap();
        let mut session = session.advance(&b).unwrap();
        let chained = session.result().unwrap();
        let independent = run_dise(&a, &b, artifact.proc_name, &DiseConfig::default()).unwrap();
        assert_identical(
            &format!("{} {from}->{to}", artifact.name),
            &independent.summary,
            &chained.summary,
        );
        assert!(
            solver_calls(&chained) <= solver_calls(&independent),
            "{} {from}->{to}: chained {} > independent {}",
            artifact.name,
            solver_calls(&chained),
            solver_calls(&independent)
        );
    }
}
