//! Persistent-store warm-start benchmarks: cold vs warm `run_dise` for
//! the fig / WBS / OAE / ASW evolution pairs, recorded to
//! `BENCH_store_warm.json` at the workspace root.
//!
//! For every pair the harness runs the directed pipeline twice against a
//! fresh store directory: the *cold* run populates the store (a plain
//! cold run plus a save), the *warm* run loads it and answers its
//! feasibility checks from the restored prefix trie. Recorded per pair:
//!
//! * wall clock of both runs (`cold_ms` / `warm_ms`);
//! * *solver calls* — checks that ran a decision pipeline
//!   (`incremental_checks + fallback_checks`; trie and cache answers
//!   excluded). The acceptance bar: warm issues **strictly fewer** calls
//!   than cold on every pair, at least one pair ≥3x fewer;
//! * `warm_trie_entries` — decided prefixes restored from disk;
//! * a determinism check — the warm summary must be byte-identical to
//!   the cold one.

use criterion::{criterion_group, Criterion};
use dise_artifacts::{asw, figures, oae, wbs};
use dise_core::dise::{run_dise, DiseConfig, DiseResult};
use dise_ir::Program;
use dise_symexec::SymbolicSummary;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn config(store: Option<PathBuf>) -> DiseConfig {
    DiseConfig {
        store,
        ..DiseConfig::default()
    }
}

fn run(base: &Program, modified: &Program, proc_name: &str, cfg: &DiseConfig) -> DiseResult {
    run_dise(base, modified, proc_name, cfg).expect("artifact pipeline runs")
}

fn identical(a: &SymbolicSummary, b: &SymbolicSummary) -> bool {
    a.paths().len() == b.paths().len()
        && a.paths().iter().zip(b.paths()).all(|(x, y)| {
            x.pc == y.pc
                && x.outcome == y.outcome
                && x.final_env == y.final_env
                && x.trace == y.trace
        })
        && a.stats().states_explored == b.stats().states_explored
        && a.stats().pruned == b.stats().pruned
        && a.stats().infeasible == b.stats().infeasible
}

/// Pipeline solver calls of a run: checks decided by actually running the
/// incremental pipeline or the monolithic fallback (cache/trie answers
/// excluded) — the work warm starts exist to avoid.
fn solver_calls(result: &DiseResult) -> u64 {
    let solver = &result.summary.stats().solver;
    solver.incremental_checks + solver.fallback_checks
}

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

fn fresh_store_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dise-store-bench-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn benches(c: &mut Criterion) {
    let artifact = oae::artifact();
    let version = artifact.version("v4").expect("OAE v4 exists").clone();
    c.bench_function("store_warm/oae_v4_cold", |b| {
        b.iter(|| {
            let cfg = config(None);
            black_box(
                run(&artifact.base, &version.program, artifact.proc_name, &cfg)
                    .summary
                    .pc_count(),
            )
        })
    });
    let dir = fresh_store_dir("criterion");
    // Populate once; every iteration below is a pure warm start.
    run(
        &artifact.base,
        &version.program,
        artifact.proc_name,
        &config(Some(dir.clone())),
    );
    c.bench_function("store_warm/oae_v4_warm", |b| {
        b.iter(|| {
            let cfg = config(Some(dir.clone()));
            black_box(
                run(&artifact.base, &version.program, artifact.proc_name, &cfg)
                    .summary
                    .pc_count(),
            )
        })
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn record_store_warm_comparison() {
    let mut rows = Vec::new();
    let mut all_deterministic = true;
    let mut all_strictly_fewer = true;
    let mut reductions: Vec<f64> = Vec::new();

    for case in cases() {
        let dir = fresh_store_dir("record");
        let store_cfg = config(Some(dir.clone()));

        let cold_start = Instant::now();
        let cold = run(&case.base, &case.modified, case.proc_name, &store_cfg);
        let cold_ms = cold_start.elapsed().as_secs_f64() * 1000.0;

        let warm_start = Instant::now();
        let warm = run(&case.base, &case.modified, case.proc_name, &store_cfg);
        let warm_ms = warm_start.elapsed().as_secs_f64() * 1000.0;
        std::fs::remove_dir_all(&dir).ok();

        let cold_calls = solver_calls(&cold);
        let warm_calls = solver_calls(&warm);
        let warm_status = warm.store.as_ref().expect("store configured");
        let deterministic = identical(&cold.summary, &warm.summary);
        all_deterministic &= deterministic;
        all_strictly_fewer &= warm_calls < cold_calls;
        let reduction = cold_calls as f64 / warm_calls.max(1) as f64;
        reductions.push(reduction);

        println!(
            "{} {}: solver calls {} -> {} ({reduction:.1}x), wall {cold_ms:.1} -> {warm_ms:.1} ms, \
             {} trie prefixes restored, affected reused: {} (deterministic: {deterministic})",
            case.name,
            case.version,
            cold_calls,
            warm_calls,
            warm_status.warm_trie_entries,
            warm_status.affected_reused,
        );
        rows.push(format!(
            "    {{\n      \"artifact\": \"{}\",\n      \"version\": \"{}\",\n      \
             \"cold_ms\": {cold_ms:.2},\n      \"warm_ms\": {warm_ms:.2},\n      \
             \"cold_solver_calls\": {cold_calls},\n      \"warm_solver_calls\": {warm_calls},\n      \
             \"solve_reduction\": {reduction:.2},\n      \
             \"warm_trie_entries\": {},\n      \"affected_reused\": {},\n      \
             \"deterministic\": {deterministic}\n    }}",
            case.name,
            case.version,
            warm_status.warm_trie_entries,
            warm_status.affected_reused,
        ));
    }

    let max_reduction = reductions.iter().cloned().fold(0.0f64, f64::max);
    let min_reduction = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let json = format!(
        "{{\n  \"benchmark\": \"store_warm_vs_cold\",\n  \
         {host},\n  \
         \"cases\": [\n{rows}\n  ],\n  \
         \"warm_strictly_fewer_solver_calls\": {all_strictly_fewer},\n  \
         \"min_solve_reduction\": {min_reduction:.2},\n  \
         \"max_solve_reduction\": {max_reduction:.2},\n  \
         \"all_deterministic\": {all_deterministic},\n  \
         \"note\": \"solver calls = checks that ran a decision pipeline (trie/cache answers \
         excluded); the warm run restores the cold run's prefix-trie verdicts from the store, \
         so the directed pass re-derives its summary without re-solving — byte-identical \
         output, pure constant-factor savings\"\n}}\n",
        rows = rows.join(",\n"),
        host = dise_bench::host_metadata_json(),
    );
    dise_bench::write_bench_json("BENCH_store_warm.json", &json);
    println!(
        "store warm-start: strictly fewer solver calls everywhere: {all_strictly_fewer}; \
         reductions {min_reduction:.1}x..{max_reduction:.1}x; deterministic: {all_deterministic}"
    );
}

criterion_group!(store_warm, benches);

fn main() {
    store_warm();
    record_store_warm_comparison();
}
