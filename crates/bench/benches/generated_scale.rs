//! Generated-corpus scaling benchmark: directed incremental exploration
//! vs full re-exploration on generator-produced pairs at 10x, 30x, and
//! 100x the hand-written artifacts' size, recorded to
//! `BENCH_generated_scale.json` at the workspace root.
//!
//! The paper's economics in one number: a version change touches a
//! bounded region, so the directed run's cost tracks the *change* while
//! full re-exploration tracks the *program*. Each tier generates a
//! scenario with `dise_gen`, applies a fixed two-edit evolution, then
//! measures pipeline solver calls (`incremental_checks +
//! fallback_checks`; trie/cache answers excluded) for `run_dise` against
//! `run_full_on` on the modified version. The acceptance bar: the
//! full/directed call factor **grows** from the 10x tier to the 100x
//! tier — directed incremental wins by more the bigger the program gets.

use criterion::{criterion_group, Criterion};
use dise_core::dise::{run_dise, run_full_on, DiseConfig};
use dise_gen::{evolve, Evolution, GenParams, Scenario, PROC_NAME};
use dise_solver::SolverStats;
use std::hint::black_box;
use std::time::Instant;

/// One size tier: `factor` ~ statement-count multiple of the hand-written
/// WBS/OAE artifacts (~20 statements each).
struct Tier {
    label: &'static str,
    factor: u32,
    params: GenParams,
}

const GENERATOR_SEED: u64 = 2024;
const EDITS: usize = 2;

/// Arms scale the program linearly (each arm is an independent dispatch
/// lattice region); guard depth, helpers, and globals stay fixed so the
/// tiers differ in *size*, not shape.
fn tiers() -> Vec<Tier> {
    let shape = |arms: usize| GenParams {
        seed: GENERATOR_SEED,
        arms,
        guard_depth: 2,
        helpers: 3,
        call_depth: 2,
        globals: 3,
    };
    vec![
        Tier {
            label: "10x",
            factor: 10,
            params: shape(24),
        },
        Tier {
            label: "30x",
            factor: 30,
            params: shape(72),
        },
        Tier {
            label: "100x",
            factor: 100,
            params: shape(240),
        },
    ]
}

/// Pipeline solver calls: checks decided by actually running the
/// incremental pipeline or the monolithic fallback — the work directed
/// exploration exists to avoid.
fn pipeline_calls(solver: &SolverStats) -> u64 {
    solver.incremental_checks + solver.fallback_checks
}

/// The first edit seed at or above [`GENERATOR_SEED`] whose evolution is
/// arm-local (touches no helper-body site). A helper edit's affected
/// region covers every calling arm — a *global* change full re-exploration
/// handles no worse — while the paper's economics concern *localized*
/// changes, so that is what this benchmark measures. The scan is
/// deterministic: same base, same seed.
fn arm_local_evolution(base: &Scenario) -> (u64, Evolution) {
    (GENERATOR_SEED..)
        .find_map(|seed| {
            let evolution = evolve(base, seed, EDITS);
            evolution.is_arm_local().then_some((seed, evolution))
        })
        .expect("edit-seed scan finds an arm-local evolution")
}

struct TierResult {
    label: &'static str,
    factor: u32,
    edit_seed: u64,
    stmts: usize,
    directed_ms: f64,
    full_ms: f64,
    directed_calls: u64,
    full_calls: u64,
    directed_paths: usize,
    full_paths: usize,
    call_factor: f64,
}

fn measure(tier: &Tier) -> TierResult {
    let base = Scenario::generate(&tier.params);
    let (edit_seed, evolution) = arm_local_evolution(&base);
    let base_program = base.program();
    let modified_program = evolution.modified.program();

    let directed_start = Instant::now();
    let directed = run_dise(
        &base_program,
        &modified_program,
        PROC_NAME,
        &DiseConfig::default(),
    )
    .expect("directed run succeeds");
    let directed_ms = directed_start.elapsed().as_secs_f64() * 1000.0;

    let full_start = Instant::now();
    let full = run_full_on(&modified_program, PROC_NAME, &DiseConfig::default())
        .expect("full run succeeds");
    let full_ms = full_start.elapsed().as_secs_f64() * 1000.0;

    let directed_calls = pipeline_calls(&directed.summary.stats().solver);
    let full_calls = pipeline_calls(&full.stats().solver);
    TierResult {
        label: tier.label,
        factor: tier.factor,
        edit_seed,
        stmts: base.stmt_count(),
        directed_ms,
        full_ms,
        directed_calls,
        full_calls,
        directed_paths: directed.summary.pc_count(),
        full_paths: full.pc_count(),
        call_factor: full_calls as f64 / directed_calls.max(1) as f64,
    }
}

fn benches(c: &mut Criterion) {
    // Wall-clock sampling on the smallest tier only: the 100x full run is
    // the point of the recorded leg, not something to sample repeatedly.
    let tier = &tiers()[0];
    let base = Scenario::generate(&tier.params);
    let (_, evolution) = arm_local_evolution(&base);
    let base_program = base.program();
    let modified_program = evolution.modified.program();
    c.bench_function("generated_scale/directed_10x", |b| {
        b.iter(|| {
            let result = run_dise(
                &base_program,
                &modified_program,
                PROC_NAME,
                &DiseConfig::default(),
            )
            .expect("directed run succeeds");
            black_box(result.summary.pc_count())
        })
    });
    c.bench_function("generated_scale/full_10x", |b| {
        b.iter(|| {
            let summary = run_full_on(&modified_program, PROC_NAME, &DiseConfig::default())
                .expect("full run succeeds");
            black_box(summary.pc_count())
        })
    });
}

fn record_generated_scale() {
    let results: Vec<TierResult> = tiers().iter().map(measure).collect();
    for r in &results {
        println!(
            "{}: {} stmts (edit seed {}), pipeline solver calls {} (full) vs {} (directed) \
             = {:.1}x, paths {} vs {}, wall {:.1} vs {:.1} ms",
            r.label,
            r.stmts,
            r.edit_seed,
            r.full_calls,
            r.directed_calls,
            r.call_factor,
            r.full_paths,
            r.directed_paths,
            r.full_ms,
            r.directed_ms,
        );
    }

    let growing = results
        .windows(2)
        .all(|pair| pair[1].call_factor > pair[0].call_factor);

    let tier_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"tier\": \"{}\", \"size_factor\": {}, \"statements\": {}, \
                 \"edit_seed\": {}, \
                 \"directed_ms\": {:.2}, \"full_ms\": {:.2}, \
                 \"directed_solver_calls\": {}, \"full_solver_calls\": {}, \
                 \"directed_paths\": {}, \"full_paths\": {}, \
                 \"full_over_directed_calls\": {:.2}}}",
                r.label,
                r.factor,
                r.stmts,
                r.edit_seed,
                r.directed_ms,
                r.full_ms,
                r.directed_calls,
                r.full_calls,
                r.directed_paths,
                r.full_paths,
                r.call_factor,
            )
        })
        .collect();
    let host_extra = format!(
        "\"generator_seed\": {GENERATOR_SEED}, \"generator_edits\": {EDITS}, \
         \"generator_shape\": \"guard_depth 2, helpers 3, call_depth 2, globals 3, \
         arms 24/72/240\""
    );
    let json = format!(
        "{{\n  \"benchmark\": \"generated_scale\",\n  \
         {host},\n  \
         \"artifact\": \"dise-gen scenarios at 10x/30x/100x the hand-written artifacts\",\n  \
         \"tiers\": [\n{tiers}\n  ],\n  \
         \"factor_grows_with_size\": {growing},\n  \
         \"note\": \"solver calls = checks that ran a decision pipeline (trie/cache answers \
         excluded); both runs execute the same flattened modified program, and the \
         directed run's cost tracks the two-edit change while the full run's cost tracks \
         program size, so the full/directed factor grows from the 10x tier to the 100x \
         tier\"\n}}\n",
        host = dise_bench::host_metadata_json_with(&host_extra),
        tiers = tier_json.join(",\n"),
    );
    dise_bench::write_bench_json("BENCH_generated_scale.json", &json);
    assert!(
        growing,
        "directed incremental must beat full re-exploration by a growing factor: {:?}",
        results
            .iter()
            .map(|r| (r.label, r.call_factor))
            .collect::<Vec<_>>()
    );
}

criterion_group!(generated_scale, benches);

fn main() {
    generated_scale();
    record_generated_scale();
}
