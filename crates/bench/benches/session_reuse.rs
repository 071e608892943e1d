//! Session-reuse benchmarks: the evolve-all workload (witness +
//! differential summary + localization + impact report on one version
//! pair) through one shared `AnalysisSession` versus four standalone
//! application calls, recorded to `BENCH_session_reuse.json` at the
//! workspace root.
//!
//! Before the session refactor every application re-ran the whole DiSE
//! pipeline — four flattens, four diffs, four fixpoints, four directed
//! explorations of the *same* pair. The session computes each stage once
//! and hands the cached artifacts to every application. Recorded per
//! pair:
//!
//! * *directed-exploration solver checks* — the session performs exactly
//!   one directed exploration, so its check count is 1x the single-run
//!   cost while the standalone path pays 4x. Acceptance bar: ≥3x fewer
//!   on every pair;
//! * wall clock of both workloads (`standalone_ms` / `session_ms`) —
//!   smaller than 4x because the applications also replay concretely and
//!   solve equivalence queries, which reuse cannot remove;
//! * a determinism check — every application's output must be
//!   byte-identical between the two paths.
//!
//! A second section records the 3-version chain (`wbs base → v2 → v4`):
//! hop 2 inherits hop 1's warm trie in process and never solves more
//! than an independent pairwise run.

use criterion::{criterion_group, Criterion};
use dise_artifacts::{asw, figures, oae, wbs};
use dise_core::dise::{run_dise, DiseConfig, DiseResult};
use dise_core::session::AnalysisSession;
use dise_evolution::diffsum::DiffSumConfig;
use dise_evolution::localize::LocalizeConfig;
use dise_evolution::report::ImpactConfig;
use dise_evolution::witness::WitnessConfig;
use dise_evolution::{
    classify_changes, classify_changes_with, find_witnesses, find_witnesses_with, impact_report,
    impact_report_with, localize_change, localize_change_with,
};
use dise_ir::Program;
use std::hint::black_box;
use std::time::Instant;

struct Case {
    name: &'static str,
    version: String,
    proc_name: &'static str,
    base: Program,
    modified: Program,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case {
        name: "fig2",
        version: "mod".to_string(),
        proc_name: "update",
        base: figures::fig2_base(),
        modified: figures::fig2_modified(),
    }];
    for (artifact, versions) in [
        (wbs::artifact(), &["v2", "v4"][..]),
        (oae::artifact(), &["v2", "v4"][..]),
        (asw::artifact(), &["v2", "v8"][..]),
    ] {
        for &version in versions {
            let modified = artifact
                .version(version)
                .unwrap_or_else(|| panic!("{} {version} exists", artifact.name))
                .program
                .clone();
            cases.push(Case {
                name: artifact.name,
                version: version.to_string(),
                proc_name: artifact.proc_name,
                base: artifact.base.clone(),
                modified,
            });
        }
    }
    cases
}

/// The four applications' rendered outputs, for the byte-identity check.
struct AppOutputs {
    witness: String,
    classify: String,
    localize: String,
    report: String,
}

fn run_standalone(case: &Case) -> AppOutputs {
    let w = find_witnesses(
        &case.base,
        &case.modified,
        case.proc_name,
        &WitnessConfig::default(),
    )
    .expect("witnesses run");
    let c = classify_changes(
        &case.base,
        &case.modified,
        case.proc_name,
        &DiffSumConfig::default(),
    )
    .expect("classification runs");
    let l = localize_change(
        &case.base,
        &case.modified,
        case.proc_name,
        &LocalizeConfig::default(),
    )
    .expect("localization runs");
    let r = impact_report(
        &case.base,
        &case.modified,
        case.proc_name,
        &ImpactConfig::default(),
    )
    .expect("report runs");
    AppOutputs {
        witness: format!("{:?} {:?}", w.affected_pcs, w.witnesses),
        classify: c.render(),
        localize: dise_evolution::localize::render_ranking(&l.report, None, usize::MAX),
        report: r,
    }
}

fn run_shared(session: &mut AnalysisSession) -> AppOutputs {
    let w = find_witnesses_with(session, &WitnessConfig::default()).expect("witnesses run");
    let c = classify_changes_with(session, &DiffSumConfig::default()).expect("classification runs");
    let l = localize_change_with(session, &LocalizeConfig::default()).expect("localization runs");
    let r = impact_report_with(session, &ImpactConfig::default()).expect("report runs");
    AppOutputs {
        witness: format!("{:?} {:?}", w.affected_pcs, w.witnesses),
        classify: c.render(),
        localize: dise_evolution::localize::render_ranking(&l.report, None, usize::MAX),
        report: r,
    }
}

/// Directed-exploration solver checks of one `run_dise`-shaped result.
fn checks(result: &DiseResult) -> u64 {
    result.summary.stats().solver.checks
}

fn benches(c: &mut Criterion) {
    let artifact = wbs::artifact();
    let version = artifact.version("v4").expect("WBS v4 exists").clone();
    let case = Case {
        name: "wbs",
        version: "v4".to_string(),
        proc_name: artifact.proc_name,
        base: artifact.base.clone(),
        modified: version.program.clone(),
    };
    c.bench_function("session_reuse/evolve_all_standalone", |b| {
        b.iter(|| black_box(run_standalone(&case).report.len()))
    });
    c.bench_function("session_reuse/evolve_all_shared", |b| {
        b.iter(|| {
            let mut session = AnalysisSession::open(
                &case.base,
                &case.modified,
                case.proc_name,
                DiseConfig::default(),
            )
            .expect("session opens");
            black_box(run_shared(&mut session).report.len())
        })
    });
}

fn record_session_reuse() {
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut all_meet_3x = true;
    let mut reductions: Vec<f64> = Vec::new();

    for case in cases() {
        // Independent path: the four explorations the standalone
        // applications each trigger.
        let mut independent_checks = 0u64;
        for _ in 0..4 {
            let result = run_dise(
                &case.base,
                &case.modified,
                case.proc_name,
                &DiseConfig::default(),
            )
            .expect("pipeline runs");
            independent_checks += checks(&result);
        }
        let standalone_start = Instant::now();
        let standalone = run_standalone(&case);
        let standalone_ms = standalone_start.elapsed().as_secs_f64() * 1000.0;

        // Session path: one exploration serves all four applications.
        let session_start = Instant::now();
        let mut session = AnalysisSession::open(
            &case.base,
            &case.modified,
            case.proc_name,
            DiseConfig::default(),
        )
        .expect("session opens");
        let shared = run_shared(&mut session);
        let session_ms = session_start.elapsed().as_secs_f64() * 1000.0;
        let session_checks = checks(&session.result().expect("cached result"));

        let identical = standalone.witness == shared.witness
            && standalone.classify == shared.classify
            && standalone.localize == shared.localize
            && standalone.report == shared.report;
        all_identical &= identical;
        let reduction = independent_checks as f64 / session_checks.max(1) as f64;
        reductions.push(reduction);
        all_meet_3x &= reduction >= 3.0;

        println!(
            "{} {}: exploration checks {} -> {} ({reduction:.1}x), evolve-all wall \
             {standalone_ms:.1} -> {session_ms:.1} ms (identical: {identical})",
            case.name, case.version, independent_checks, session_checks,
        );
        rows.push(format!(
            "    {{\n      \"artifact\": \"{}\",\n      \"version\": \"{}\",\n      \
             \"independent_explorations\": 4,\n      \"session_explorations\": 1,\n      \
             \"independent_solver_checks\": {independent_checks},\n      \
             \"session_solver_checks\": {session_checks},\n      \
             \"check_reduction\": {reduction:.2},\n      \
             \"standalone_ms\": {standalone_ms:.2},\n      \"session_ms\": {session_ms:.2},\n      \
             \"identical\": {identical}\n    }}",
            case.name, case.version,
        ));
    }

    // The 3-version chain: wbs base -> v2 -> v4 with in-process handoff.
    let artifact = wbs::artifact();
    let v2 = artifact.version("v2").expect("v2").program.clone();
    let v4 = artifact.version("v4").expect("v4").program.clone();
    let pipeline_calls = |r: &DiseResult| {
        r.summary.stats().solver.incremental_checks + r.summary.stats().solver.fallback_checks
    };
    let mut session = AnalysisSession::open(
        &artifact.base,
        &v2,
        artifact.proc_name,
        DiseConfig::default(),
    )
    .expect("session opens");
    session.result().expect("hop 1 runs");
    let mut session = session.advance(&v4).expect("chain advances");
    let chained = session.result().expect("hop 2 runs");
    let independent =
        run_dise(&v2, &v4, artifact.proc_name, &DiseConfig::default()).expect("pipeline runs");
    let chain_warm = chained.summary.stats().warm_trie_entries;
    let (chain_calls, independent_calls) = (pipeline_calls(&chained), pipeline_calls(&independent));

    let max_reduction = reductions.iter().cloned().fold(0.0f64, f64::max);
    let min_reduction = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let json = format!(
        "{{\n  \"benchmark\": \"session_reuse\",\n  \
         {host},\n  \
         \"cases\": [\n{rows}\n  ],\n  \
         \"min_check_reduction\": {min_reduction:.2},\n  \
         \"max_check_reduction\": {max_reduction:.2},\n  \
         \"meets_3x_bar\": {all_meet_3x},\n  \
         \"all_identical\": {all_identical},\n  \
         \"chain\": {{\n    \"route\": \"wbs base -> v2 -> v4\",\n    \
         \"hop2_warm_trie_entries\": {chain_warm},\n    \
         \"hop2_chained_pipeline_calls\": {chain_calls},\n    \
         \"hop2_independent_pipeline_calls\": {independent_calls}\n  }},\n  \
         \"note\": \"independent = four run_dise explorations (what the four standalone \
         evolution applications each triggered before the session refactor); session = one \
         AnalysisSession serving witness + classify + localize + report off a single \
         flatten/diff/fixpoint/exploration. Wall-clock gains are smaller than the 4x check \
         reduction because concrete replays and equivalence solving are per-application work \
         reuse cannot remove. The chain block shows hop 2 of a multi-version run inheriting \
         hop 1's warm trie in process.\"\n}}\n",
        rows = rows.join(",\n"),
        host = dise_bench::host_metadata_json(),
    );
    dise_bench::write_bench_json("BENCH_session_reuse.json", &json);
    println!(
        "session reuse: check reductions {min_reduction:.1}x..{max_reduction:.1}x \
         (>=3x everywhere: {all_meet_3x}); outputs identical: {all_identical}; \
         chain hop 2: {chain_warm} warm prefixes, {chain_calls} vs {independent_calls} pipeline calls"
    );
}

criterion_group!(session_reuse, benches);

fn main() {
    session_reuse();
    record_session_reuse();
}
