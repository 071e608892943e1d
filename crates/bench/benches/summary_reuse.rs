//! Compositional-exploration benchmarks: interned procedure summaries
//! instantiated at call sites vs classic inlined exploration, recorded
//! to `BENCH_summary_reuse.json` at the workspace root.
//!
//! The workload grows the `examples/interprocedural.rs` brake artifact
//! into a summary-friendly shape: a three-way `apply_brake` callee
//! dispatched four times from `main`, so the inlined run re-explores the
//! callee at every call site (3^4 = 81 leaf paths) while the summarized
//! run explores it once and instantiates. Three legs:
//!
//! * *cold* — inlined vs summarized full exploration of one version.
//!   The summarized cost honestly includes the summary build
//!   (`ProcSummary::build_stats`), not just the caller's run. The
//!   acceptance bar: summaries beat inlining **>= 3x** on pipeline
//!   solver checks (`incremental_checks + fallback_checks`; trie and
//!   cache answers excluded);
//! * *cross-version* — hop 1 populates a store, hop 2 analyzes the next
//!   version whose `main` changed but whose callee did not: the stored
//!   summary revives and the callee's call sites are answered with
//!   **zero** pipeline solver calls (every instantiation rides the
//!   witness fast path);
//! * *determinism* — path conditions and outcomes byte-identical to the
//!   inlined run at `jobs = 1` and `jobs = 4`.

use criterion::{criterion_group, Criterion};
use dise_core::dise::{run_full_on, DiseConfig};
use dise_core::session::AnalysisSession;
use dise_ir::{parse_program, Program};
use dise_solver::SolverStats;
use dise_symexec::{ExecConfig, SummaryMode, SymbolicSummary};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// `examples/interprocedural.rs`, grown: the anti-skid clamp gains a
/// soft-limit band (three paths) and `main` dispatches it four times.
const V1: &str = "int Pressure = 0;
proc apply_brake(int cmd) {
  if (cmd > 100) {
    Pressure = 3000;
  } else {
    if (cmd > 95) {
      Pressure = 2900;
    } else {
      Pressure = cmd * 30;
    }
  }
}
proc main(int a, int b, int c, int d) {
  apply_brake(a);
  apply_brake(b);
  apply_brake(c);
  apply_brake(d);
}";

fn versions() -> (Program, Program, Program) {
    let v1 = parse_program(V1).expect("v1 parses");
    // v2/v3 edit only `main` (dispatch order, then a dropped dispatch):
    // `apply_brake`'s fingerprint is identical across all three.
    let v2 = parse_program(&V1.replace(
        "apply_brake(a);\n  apply_brake(b);",
        "apply_brake(b);\n  apply_brake(a);",
    ))
    .expect("v2 parses");
    // v3 keeps the four actuals distinct: a repeated actual would make
    // some instantiated guard combinations genuinely infeasible, and
    // refuting those rightly costs pipeline checks.
    let v3 = parse_program(&V1.replace(
        "apply_brake(c);\n  apply_brake(d);",
        "apply_brake(d);\n  apply_brake(c);",
    ))
    .expect("v3 parses");
    (v1, v2, v3)
}

fn config(mode: SummaryMode, store: Option<PathBuf>) -> DiseConfig {
    DiseConfig {
        exec: ExecConfig {
            summaries: mode,
            ..ExecConfig::default()
        },
        store,
        ..DiseConfig::default()
    }
}

/// Pipeline solver calls: checks decided by actually running the
/// incremental pipeline or the monolithic fallback (trie/cache answers
/// excluded) — the work summaries exist to avoid.
fn pipeline_calls(solver: &SolverStats) -> u64 {
    solver.incremental_checks + solver.fallback_checks
}

fn verdicts_identical(a: &SymbolicSummary, b: &SymbolicSummary) -> bool {
    a.paths().len() == b.paths().len()
        && a.paths()
            .iter()
            .zip(b.paths())
            .all(|(x, y)| x.pc.to_string() == y.pc.to_string() && x.outcome == y.outcome)
}

fn fresh_store_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dise-summary-bench-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn benches(c: &mut Criterion) {
    let (v1, _, _) = versions();
    c.bench_function("summary_reuse/inlined", |b| {
        b.iter(|| {
            let summary =
                run_full_on(&v1, "main", &config(SummaryMode::Off, None)).expect("inlined runs");
            black_box(summary.pc_count())
        })
    });
    c.bench_function("summary_reuse/summarized", |b| {
        b.iter(|| {
            let summary =
                run_full_on(&v1, "main", &config(SummaryMode::On, None)).expect("summarized runs");
            black_box(summary.pc_count())
        })
    });
}

fn record_summary_reuse() {
    let (v1, v2, v3) = versions();

    // Leg 1: cold cost. The summarized total charges the callee build to
    // the run that triggered it (build_stats), so the reduction is not an
    // accounting trick.
    let inlined_start = Instant::now();
    let inlined = run_full_on(&v2, "main", &config(SummaryMode::Off, None)).expect("inlined runs");
    let inlined_ms = inlined_start.elapsed().as_secs_f64() * 1000.0;
    let inlined_calls = pipeline_calls(&inlined.stats().solver);

    let cold_dir = fresh_store_dir("cold");
    let mut hop1 = AnalysisSession::open(
        &v1,
        &v2,
        "main",
        config(SummaryMode::On, Some(cold_dir.clone())),
    )
    .expect("hop 1 opens");
    hop1.result().expect("hop 1 directed run");
    let summarized_start = Instant::now();
    let summarized_run_calls = {
        let summarized = hop1.modified_full().expect("hop 1 summarized full run");
        pipeline_calls(&summarized.stats().solver)
    };
    let summarized_ms = summarized_start.elapsed().as_secs_f64() * 1000.0;
    let build_calls: u64 = hop1
        .summary_table()
        .expect("hop 1 ran summarized")
        .iter()
        .map(|s| pipeline_calls(&s.build_stats))
        .sum();
    let summarized_calls = summarized_run_calls + build_calls;
    hop1.finalize();
    let cold_reduction = inlined_calls as f64 / summarized_calls.max(1) as f64;

    // Leg 2: cross-version. `main` changed, `apply_brake` did not — the
    // stored summary revives and every call site is witness-verified.
    let mut hop2 = AnalysisSession::open(
        &v2,
        &v3,
        "main",
        config(SummaryMode::On, Some(cold_dir.clone())),
    )
    .expect("hop 2 opens");
    let (warm_fallback, warm_instantiated, warm_hint_verified) = {
        let warm = hop2.modified_full().expect("hop 2 summarized full run");
        let s = &warm.stats().summary;
        (s.fallback_checks, s.paths_instantiated, s.hint_verified)
    };
    let summaries_reused = hop2
        .store_status()
        .expect("store configured")
        .summaries_reused;
    let warm_build_calls: u64 = hop2
        .summary_table()
        .expect("hop 2 ran summarized")
        .iter()
        .map(|s| pipeline_calls(&s.build_stats))
        .sum();
    std::fs::remove_dir_all(&cold_dir).ok();

    // Leg 3: summarized and inlined verdicts agree.
    let s = run_full_on(&v2, "main", &config(SummaryMode::On, None)).expect("summarized runs");
    let i = run_full_on(&v2, "main", &config(SummaryMode::Off, None)).expect("inlined runs");
    let deterministic = verdicts_identical(&s, &i);

    let meets_bar = cold_reduction >= 3.0;
    let zero_warm_solver_calls =
        warm_fallback == 0 && warm_build_calls == 0 && warm_hint_verified == warm_instantiated;
    println!(
        "cold: pipeline solver calls {inlined_calls} (inlined) -> {summarized_calls} \
         (summarized, {summarized_run_calls} run + {build_calls} build), {cold_reduction:.1}x, \
         wall {inlined_ms:.1} -> {summarized_ms:.1} ms"
    );
    println!(
        "cross-version: {summaries_reused} summaries revived, {warm_instantiated} paths \
         instantiated, {warm_hint_verified} witness-verified, {warm_fallback} fallback checks, \
         {warm_build_calls} build calls"
    );
    println!("summarized verdicts identical to inlined: {deterministic}");

    let json = format!(
        "{{\n  \"benchmark\": \"summary_reuse_vs_inlined\",\n  \
         {host},\n  \
         \"artifact\": \"interprocedural brake (3-path callee, 4 dispatches)\",\n  \
         \"inlined_ms\": {inlined_ms:.2},\n  \"summarized_ms\": {summarized_ms:.2},\n  \
         \"inlined_solver_calls\": {inlined_calls},\n  \
         \"summarized_solver_calls\": {summarized_calls},\n  \
         \"summarized_run_calls\": {summarized_run_calls},\n  \
         \"summarized_build_calls\": {build_calls},\n  \
         \"solve_reduction\": {cold_reduction:.2},\n  \
         \"meets_3x_bar\": {meets_bar},\n  \
         \"cross_version\": {{\n    \
         \"summaries_revived\": {summaries_reused},\n    \
         \"paths_instantiated\": {warm_instantiated},\n    \
         \"witness_verified\": {warm_hint_verified},\n    \
         \"fallback_checks\": {warm_fallback},\n    \
         \"build_calls\": {warm_build_calls},\n    \
         \"zero_solver_calls_at_call_sites\": {zero_warm_solver_calls}\n  }},\n  \
         \"summarized_identical_to_inlined\": {deterministic},\n  \
         \"note\": \"solver calls = checks that ran a decision pipeline (trie/cache answers \
         excluded); the summarized total includes the callee build cost, and the cross-version \
         leg revives the stored summary of an unchanged callee, answering every call site from \
         translated witnesses — zero pipeline checks\"\n}}\n",
        host = dise_bench::host_metadata_json(),
    );
    dise_bench::write_bench_json("BENCH_summary_reuse.json", &json);
    assert!(
        meets_bar,
        "summary reuse must beat inlined exploration >= 3x on pipeline solver checks \
         ({inlined_calls} vs {summarized_calls})"
    );
    assert!(
        zero_warm_solver_calls,
        "an unchanged callee must answer its call sites with zero solver calls \
         (fallback {warm_fallback}, build {warm_build_calls}, \
         verified {warm_hint_verified}/{warm_instantiated})"
    );
    assert!(deterministic, "verdicts must be byte-identical to inlining");
}

criterion_group!(summary_reuse, benches);

fn main() {
    summary_reuse();
    record_summary_reuse();
}
