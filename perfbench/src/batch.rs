//! The batch workloads, `gen_wide` and `paper_artifacts`: a fixed list of
//! `(base, modified)` pairs, run round after round in a fixed order.
//!
//! One operation is one directed pipeline on one pair, in a fresh
//! session with no store, followed at once by the control (full
//! symbolic execution of the modified version). Each operation is
//! checked against references that do not come from the directed run
//! itself:
//!
//! * Theorem 3.10 soundness of the directed summary against the control
//!   run made right after it (`check_theorem_3_10`; only the theorem's
//!   two documented gaps, coverage and uniqueness, are tolerated);
//! * the generator's ground-truth markers lie in `ACN ∪ AWN`
//!   (`dise_gen::nodes_with_marker`), on generated pairs;
//! * both runs are complete: no solver `Unknown`, no truncation, no
//!   depth-bounded path;
//! * the determinism gate: the stable counts and the verdict digests of
//!   every operation equal those of the set-up pass on the same pair.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use dise_cfg::{ControlDeps, DefUse, PostDomTree, Reachability};
use dise_core::dise::{run_full_on, DiseConfig, DiseResult};
use dise_core::metrics::{exec_registry, result_registry};
use dise_core::session::AnalysisSession;
use dise_gen::{evolve, nodes_with_marker, render_verdicts, GenParams, Scenario, PROC_NAME};
use dise_ir::Program;
use dise_symexec::SymbolicSummary;

use crate::report::{Outcome, SpanLog};
use crate::rng::{fnv1a, SplitMix, FNV_OFFSET};
use crate::stats::Keyed;
use crate::{dise_config, ms, repeated_setup, serve_mix, Args};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2024;

/// Edits applied to every generated pair.
pub const GEN_EDITS: usize = 2;

/// `gen_wide`: the ROADMAP's 30x generated tier (72 dispatch arms, guard
/// depth 2, a 3-wide, 2-deep helper call graph, 3 globals, 2 edits): the
/// first [`GEN_WIDE_PAIRS`] pairs at or after [`GEN_WIDE_FIRST_SEED`]
/// (pair `s` is what `dise gen --seed s --pairs 1` writes) whose edits
/// reach a helper body, run in a seed-shuffled order.
///
/// Why this workload: a helper edit is inlined into every calling arm, so
/// the affected region is wide and the affected stage does about half of
/// a 70–120 ms directed op (2-vCPU 2.1 GHz Xeon VM), where DiSE loses to
/// its ~65 ms control. A near-linear affected stage (ROADMAP item 2) shows
/// here first. Arm-local edits are left out: they cost a third as much,
/// and a set mixing the two has its median on the gap between them. The
/// pairs are fixed and the seed only orders them, because pairs at this
/// tier differ up to 3x in cost: with seed-chosen pairs, runs with
/// different seeds spread 18% in `op_ms_p50` and 28% in `ops_per_s` from
/// the choice of pairs alone. 30x rather than 100x because one 100x op
/// takes about a second, which leaves too few samples per run for a tail.
pub const GEN_WIDE_SHAPE: GenParams = GenParams {
    seed: 0,
    arms: 72,
    guard_depth: 2,
    helpers: 3,
    call_depth: 2,
    globals: 3,
};

/// Pairs in `gen_wide`.
pub const GEN_WIDE_PAIRS: usize = 8;

/// Where `gen_wide`'s pairs start: the ROADMAP's measurement seed.
pub const GEN_WIDE_FIRST_SEED: u64 = 2024;

/// Rounds every measurement makes at least, however short `--seconds`.
const MIN_ROUNDS: usize = 3;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// See [`GEN_WIDE_SHAPE`].
    GenWide,
    /// See [`paper_artifact_cases`].
    PaperArtifacts,
}

/// One `(base, modified)` pair.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub proc_name: String,
    /// The MJ sources of base and modified, for the parse and
    /// fingerprint probes and for serve requests.
    pub sources: [String; 2],
    pub base: Program,
    pub modified: Program,
    /// Ground-truth marker constants of the edits (generated pairs only).
    pub markers: BTreeSet<i64>,
}

/// The generated pair `dise gen --seed seed --pairs 1 --edits edits`
/// writes for `shape`.
pub fn gen_case(shape: &GenParams, seed: u64, edits: usize) -> Case {
    gen_pair(shape, seed, edits).0
}

/// [`gen_case`], and whether every edit stayed inside a dispatch arm.
fn gen_pair(shape: &GenParams, seed: u64, edits: usize) -> (Case, bool) {
    let scenario = Scenario::generate(&GenParams {
        seed,
        ..shape.clone()
    });
    let evolution = evolve(&scenario, seed, edits);
    let arm_local = evolution.is_arm_local();
    let case = Case {
        name: format!("gen-a{}-s{seed}", shape.arms),
        proc_name: PROC_NAME.to_string(),
        sources: [scenario.source(), evolution.modified.source()],
        base: scenario.program(),
        modified: evolution.modified.program(),
        markers: evolution.ground_truth_markers(),
    };
    (case, arm_local)
}

/// The `gen_wide` pairs in their run order for `seed` (see
/// [`GEN_WIDE_SHAPE`]).
pub fn gen_wide_cases(seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = (0..)
        .map(|k| gen_pair(&GEN_WIDE_SHAPE, GEN_WIDE_FIRST_SEED + k, GEN_EDITS))
        .filter(|(_, arm_local)| !arm_local)
        .map(|(case, _)| case)
        .take(GEN_WIDE_PAIRS)
        .collect();
    SplitMix::new(seed).shuffle(&mut cases);
    cases
}

/// `paper_artifacts`: every version of WBS (5), OAE (3) and ASW (6)
/// against its base — the paper's own subjects — in a seed-shuffled
/// order (the seed changes only the order).
///
/// Why this workload: exploration and solving take about 85% of a 2–3 ms
/// directed op and the affected stage only a few percent, so a change to
/// the affected stage should not move it, while an executor or solver
/// change should. DiSE beats its control here (OAE: ~3 ms vs ~22 ms).
pub fn paper_artifact_cases(seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    for artifact in [
        dise_artifacts::wbs::artifact(),
        dise_artifacts::oae::artifact(),
        dise_artifacts::asw::artifact(),
    ] {
        let base_src = dise_ir::pretty::pretty_program(&artifact.base);
        for version in &artifact.versions {
            cases.push(Case {
                name: format!("{}/{}", artifact.name, version.id),
                proc_name: artifact.proc_name.to_string(),
                sources: [
                    base_src.clone(),
                    dise_ir::pretty::pretty_program(&version.program),
                ],
                base: artifact.base.clone(),
                modified: version.program.clone(),
                markers: BTreeSet::new(),
            });
        }
    }
    SplitMix::new(seed).shuffle(&mut cases);
    cases
}

/// The facts of one operation that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stable {
    pub cfg_nodes: u64,
    pub changed_nodes: u64,
    pub affected_nodes: u64,
    pub states: u64,
    pub pruned: u64,
    pub infeasible: u64,
    pub solver_checks: u64,
    pub pipeline_checks: u64,
    pub pc_count: u64,
    pub full_states: u64,
    pub full_checks: u64,
    /// FNV-1a of `render_verdicts` of the directed summary.
    pub verdicts: u64,
    /// FNV-1a of `render_verdicts` of the control summary.
    pub full_verdicts: u64,
}

/// Counts of one operation that are reported but not gated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Loose {
    pub model_reuse_hits: u64,
    pub unknown: u64,
}

/// Per-stage times of one traced operation, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    flatten: f64,
    diff: f64,
    affected: f64,
    explore: f64,
    postdom: f64,
    control_deps: f64,
    defuse: f64,
    reach: f64,
    parse: f64,
    fingerprint: f64,
}

/// One operation's measurements and outputs.
struct OpRun {
    directed: Duration,
    control: Duration,
    stages: Option<Stages>,
    stable: Stable,
    loose: Loose,
}

fn verdict_digest(summary: &SymbolicSummary) -> u64 {
    fnv1a(FNV_OFFSET, render_verdicts(summary).as_bytes())
}

/// Runs one operation: the directed pipeline, then the control, then —
/// when `spans` is given — the layer probes, then the checks. Only the
/// directed pipeline and the control are timed into the result's
/// end-to-end durations.
fn run_op(
    case: &Case,
    config: &DiseConfig,
    spans: Option<(&mut SpanLog, u64)>,
) -> Result<OpRun, String> {
    let stage = |name: &'static str| move |e: dise_core::dise::DiseError| format!("{name}: {e}");
    let traced = spans.is_some();
    let mut marks = [Instant::now(); 5];
    let start = Instant::now();
    let mut session =
        AnalysisSession::open(&case.base, &case.modified, &case.proc_name, config.clone())
            .map_err(stage("open"))?;
    if traced {
        marks[1] = Instant::now();
    }
    session.diffed().map_err(stage("diffed"))?;
    if traced {
        marks[2] = Instant::now();
    }
    session.affected().map_err(stage("affected"))?;
    if traced {
        marks[3] = Instant::now();
    }
    session.explored().map_err(stage("explored"))?;
    let directed = start.elapsed();
    marks[0] = start;
    marks[4] = start + directed;

    let control_start = Instant::now();
    let full = run_full_on(&case.modified, &case.proc_name, config).map_err(stage("control"))?;
    let control = control_start.elapsed();

    let stages = match spans {
        Some((log, op)) => {
            let mut s = Stages::default();
            log.record(op, "pipeline", None, marks[0], marks[4]);
            s.flatten = log.record(op, "ir.flatten", Some("pipeline"), marks[0], marks[1]);
            s.diff = log.record(op, "diff.diff", Some("pipeline"), marks[1], marks[2]);
            s.affected = log.record(op, "core.affected", Some("pipeline"), marks[2], marks[3]);
            s.explore = log.record(op, "symexec.explore", Some("pipeline"), marks[3], marks[4]);
            log.record(
                op,
                "symexec.full",
                None,
                control_start,
                control_start + control,
            );
            let cfg = &session.diffed().map_err(stage("diffed"))?.cfg_mod;
            let t0 = Instant::now();
            let postdom = PostDomTree::new(cfg);
            let t1 = Instant::now();
            black_box(ControlDeps::new(cfg, &postdom));
            let t2 = Instant::now();
            black_box(DefUse::new(cfg));
            let t3 = Instant::now();
            black_box(Reachability::new(cfg));
            let t4 = Instant::now();
            black_box(postdom);
            s.postdom = log.record(op, "cfg.postdom", None, t0, t1);
            s.control_deps = log.record(op, "cfg.control_deps", None, t1, t2);
            s.defuse = log.record(op, "cfg.defuse", None, t2, t3);
            s.reach = log.record(op, "cfg.reach", None, t3, t4);
            let (parse, fingerprint) =
                parse_and_fingerprint(log, op, &case.sources, &case.proc_name)?;
            s.parse = parse;
            s.fingerprint = fingerprint;
            Some(s)
        }
        None => None,
    };

    let result = session.result().map_err(stage("result"))?;
    let cfg_nodes = session.diffed().map_err(stage("diffed"))?.cfg_mod.len() as u64;
    check(case, &mut session, &result, &full)?;
    let reg = result_registry(&result);
    let full_reg = exec_registry(full.stats());
    Ok(OpRun {
        directed,
        control,
        stages,
        stable: Stable {
            cfg_nodes,
            changed_nodes: reg.counter("pipeline.changed_nodes"),
            affected_nodes: reg.counter("pipeline.affected_nodes"),
            states: reg.counter("exec.states_explored"),
            pruned: reg.counter("exec.pruned"),
            infeasible: reg.counter("exec.infeasible"),
            solver_checks: reg.counter("solver.checks"),
            pipeline_checks: reg.counter("solver.incremental_checks")
                + reg.counter("solver.fallback_checks"),
            pc_count: reg.counter("pipeline.pc_count"),
            full_states: full_reg.counter("exec.states_explored"),
            full_checks: full_reg.counter("solver.checks"),
            verdicts: verdict_digest(&result.summary),
            full_verdicts: verdict_digest(&full),
        },
        loose: Loose {
            model_reuse_hits: reg.counter("solver.model_reuse_hits"),
            unknown: reg.counter("solver.unknown") + full_reg.counter("solver.unknown"),
        },
    })
}

/// Times `parse_program` on both sources and `proc_fingerprint` on both
/// parsed versions (the per-version work every serve request pays).
pub fn parse_and_fingerprint(
    log: &mut SpanLog,
    op: u64,
    sources: &[String],
    proc_name: &str,
) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let programs = sources
        .iter()
        .map(|s| dise_ir::parse_program(s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    for program in &programs {
        black_box(
            dise_diff::proc_fingerprint(program, proc_name)
                .map_err(|e| format!("fingerprint: {e}"))?,
        );
    }
    let t2 = Instant::now();
    Ok((
        log.record(op, "ir.parse", None, t0, t1),
        log.record(op, "diff.fingerprint", None, t1, t2),
    ))
}

/// The correctness checks of one operation (see the module docs).
fn check(
    case: &Case,
    session: &mut AnalysisSession,
    result: &DiseResult,
    full: &SymbolicSummary,
) -> Result<(), String> {
    for (what, summary) in [("directed", &result.summary), ("control", full)] {
        let s = summary.stats();
        if s.solver.unknown != 0 || s.truncated || s.paths_depth_bounded != 0 {
            return Err(format!(
                "{what} run incomplete: {} solver unknowns, truncated {}, {} depth-bounded paths",
                s.solver.unknown, s.truncated, s.paths_depth_bounded
            ));
        }
    }
    if let Err(message) = dise_core::check_theorem_3_10(full, &result.summary, &result.affected) {
        if !(message.contains("DiSE missed") || message.contains("same affected sequence")) {
            return Err(format!("Theorem 3.10 soundness: {message}"));
        }
    }
    let cfg = &session
        .diffed()
        .map_err(|e| format!("diffed: {e}"))?
        .cfg_mod;
    for &marker in &case.markers {
        let nodes = nodes_with_marker(cfg, marker);
        if nodes.is_empty() {
            return Err(format!(
                "edited marker {marker} has no node in the modified CFG"
            ));
        }
        if let Some(node) = nodes.iter().find(|&&n| !result.affected.contains(n)) {
            return Err(format!(
                "ground-truth node {} (marker {marker}) is not in ACN ∪ AWN",
                node.index()
            ));
        }
    }
    Ok(())
}

/// Samples of one measured phase.
#[derive(Debug, Default)]
struct Samples {
    op: Keyed,
    control: Keyed,
    layers: BTreeMap<&'static str, Keyed>,
    rounds: usize,
}

/// Runs whole rounds over `cases` until `seconds` have passed (at least
/// [`MIN_ROUNDS`] of each kind), checking each operation against `refs`.
/// With a span log, rounds alternate between untraced and traced, so
/// both see the same host conditions; returns `(untraced, traced)`.
fn measure(
    cases: &[Case],
    refs: &[Stable],
    seconds: f64,
    mut log: Option<&mut SpanLog>,
    outcome: &mut Outcome,
) -> (Samples, Samples) {
    let config = dise_config();
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let start = Instant::now();
    while untraced.rounds < MIN_ROUNDS
        || (log.is_some() && traced.rounds < MIN_ROUNDS)
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = log.is_some() && untraced.rounds > traced.rounds;
        let samples = if tracing { &mut traced } else { &mut untraced };
        for (i, case) in cases.iter().enumerate() {
            outcome.attempted += 1;
            let spans = log.as_deref_mut().filter(|_| tracing).map(|log| {
                let op = log.next_op();
                (log, op)
            });
            let run = match run_op(case, &config, spans) {
                Ok(run) => run,
                Err(e) => {
                    outcome.fail(&case.name, &e);
                    continue;
                }
            };
            if run.stable != refs[i] {
                outcome.fail(
                    &case.name,
                    &format!(
                        "determinism gate: stable counts changed from set-up\n  set-up: {:?}\n  now:    {:?}",
                        refs[i], run.stable
                    ),
                );
                continue;
            }
            samples.op.push(i, samples.rounds, ms(run.directed));
            samples.control.push(i, samples.rounds, ms(run.control));
            if let Some(s) = run.stages {
                let fixpoint = s.affected - (s.postdom + s.control_deps + s.defuse + s.reach);
                for (name, value) in [
                    ("ir.flatten_ms", s.flatten),
                    ("diff.diff_ms", s.diff),
                    ("core.affected_ms", s.affected),
                    ("core.fixpoint_ms", fixpoint),
                    ("cfg.postdom_ms", s.postdom),
                    ("cfg.control_deps_ms", s.control_deps),
                    ("cfg.defuse_ms", s.defuse),
                    ("cfg.reach_ms", s.reach),
                    ("symexec.explore_ms", s.explore),
                    ("symexec.full_ms", ms(run.control)),
                    ("ir.parse_ms", s.parse),
                    ("diff.fingerprint_ms", s.fingerprint),
                ] {
                    samples
                        .layers
                        .entry(name)
                        .or_default()
                        .push(i, samples.rounds, value);
                }
            }
        }
        samples.rounds += 1;
    }
    (untraced, traced)
}

/// The set-up pass: one untraced, checked operation per pair. Its stable
/// counts are the references every later operation must reproduce.
pub fn reference_pass(cases: &[Case]) -> Result<(Vec<Stable>, Vec<Loose>), String> {
    let config = dise_config();
    let mut stable = Vec::with_capacity(cases.len());
    let mut loose = Vec::with_capacity(cases.len());
    for case in cases {
        let run = run_op(case, &config, None).map_err(|e| format!("{}: {e}", case.name))?;
        stable.push(run.stable);
        loose.push(run.loose);
    }
    Ok((stable, loose))
}

/// Stable counts summed over one round of `refs`, as per-layer counts.
pub fn count_metrics(refs: &[Stable], loose: &[Loose], outcome: &mut Outcome) {
    let sum = |f: fn(&Stable) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    outcome.metric("cfg.nodes", sum(|s| s.cfg_nodes), "count");
    outcome.metric("diff.changed_nodes", sum(|s| s.changed_nodes), "count");
    outcome.metric("core.affected_nodes", sum(|s| s.affected_nodes), "count");
    outcome.metric("symexec.states", sum(|s| s.states), "count");
    outcome.metric("symexec.pruned", sum(|s| s.pruned), "count");
    outcome.metric("symexec.infeasible", sum(|s| s.infeasible), "count");
    outcome.metric("symexec.full_states", sum(|s| s.full_states), "count");
    let checks = sum(|s| s.solver_checks);
    outcome.metric("solver.checks", checks, "count");
    outcome.metric(
        "solver.pipeline_checks",
        sum(|s| s.pipeline_checks),
        "count",
    );
    outcome.metric(
        "solver.unknown",
        loose.iter().map(|l| l.unknown).sum::<u64>() as f64,
        "count",
    );
    let reuse = loose.iter().map(|l| l.model_reuse_hits).sum::<u64>() as f64;
    outcome.metric(
        "solver.model_reuse_ratio",
        if checks > 0.0 { reuse / checks } else { 0.0 },
        "ratio",
    );
    outcome.metric("solver.full_checks", sum(|s| s.full_checks), "count");
}

/// A digest of every pair's stable counts: runs with equal seeds must
/// print equal digests.
pub fn stable_digest(refs: &[Stable]) -> String {
    format!(
        "\"{:016x}\"",
        fnv1a(FNV_OFFSET, format!("{refs:?}").as_bytes())
    )
}

/// Runs a batch workload end to end (see the crate docs for the output).
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut outcome = Outcome::default();
    let ((cases, refs), setup_s) = repeated_setup(|| {
        let cases = match kind {
            Kind::GenWide => gen_wide_cases(seed),
            Kind::PaperArtifacts => paper_artifact_cases(seed),
        };
        let refs = reference_pass(&cases);
        (cases, refs)
    });
    outcome.info("seed", seed.to_string());
    outcome.info(
        "pairs",
        format!(
            "[{}]",
            cases
                .iter()
                .map(|c| crate::report::json_str(&c.name))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    if kind == Kind::GenWide {
        outcome.info(
            "shape",
            format!(
                "{{\"arms\": {}, \"guard_depth\": {}, \"helpers\": {}, \"call_depth\": {}, \"globals\": {}, \"edits\": {GEN_EDITS}}}",
                GEN_WIDE_SHAPE.arms,
                GEN_WIDE_SHAPE.guard_depth,
                GEN_WIDE_SHAPE.helpers,
                GEN_WIDE_SHAPE.call_depth,
                GEN_WIDE_SHAPE.globals
            ),
        );
    }
    let (refs, loose) = match refs {
        Ok(refs) => refs,
        Err(e) => {
            outcome.attempted = cases.len() as u64;
            outcome.fail("set-up", &e);
            return outcome;
        }
    };
    outcome.info("stable_digest", stable_digest(&refs));

    if !args.trace {
        let (samples, _) = measure(&cases, &refs, args.seconds, None, &mut outcome);
        push_end_to_end(
            &samples.op,
            &samples.control,
            samples.rounds,
            setup_s,
            &mut outcome,
        );
        return outcome;
    }

    let mut log = SpanLog::new();
    let (untraced, traced) = measure(&cases, &refs, args.seconds, Some(&mut log), &mut outcome);
    outcome.info("samples_untraced", untraced.op.len().to_string());
    outcome.info("samples_traced", traced.op.len().to_string());
    push_layers(&traced, &[], &mut outcome);
    count_metrics(&refs, &loose, &mut outcome);
    outcome.metric(
        "pipeline.speedup_vs_full",
        untraced.control.sum() / untraced.op.sum(),
        "ratio",
    );
    outcome.metric(
        "trace.overhead_pct",
        overhead_pct(&traced.op, &untraced.op),
        "%",
    );
    serve_mix::probe(&cases, &mut outcome);
    match log.write(&format!("trace-{}-seed{seed}.jsonl", args.workload)) {
        Ok(path) => outcome.info("span_log", crate::report::json_str(&path)),
        Err(e) => eprintln!("perfbench: {e}"),
    }
    outcome
}

/// Pushes the per-layer times of a traced phase (except those named in
/// `skip`) and the affected stage's share of the directed op.
fn push_layers(traced: &Samples, skip: &[&str], outcome: &mut Outcome) {
    for (name, keyed) in &traced.layers {
        if !skip.contains(name) {
            outcome.metric(name, keyed.p50().unwrap_or(0.0), "ms");
        }
    }
    let affected = traced
        .layers
        .get("core.affected_ms")
        .map_or(0.0, Keyed::sum);
    outcome.metric(
        "pipeline.affected_share",
        affected / traced.op.sum(),
        "ratio",
    );
}

/// The pipeline's per-layer metrics on `cases`, for a workload whose own
/// operation does not expose the stages: a checked reference pass, then
/// [`MIN_ROUNDS`] traced rounds.
pub fn pipeline_layers(cases: &[Case], log: &mut SpanLog, outcome: &mut Outcome, skip: &[&str]) {
    match reference_pass(cases) {
        Ok((refs, loose)) => {
            let (_, traced) = measure(cases, &refs, 0.0, Some(log), outcome);
            push_layers(&traced, skip, outcome);
            count_metrics(&refs, &loose, outcome);
        }
        Err(e) => {
            outcome.attempted += 1;
            outcome.fail("pipeline layers", &e);
        }
    }
}

/// Traced over untraced `op` p50, as a percentage above 100%.
pub fn overhead_pct(traced: &Keyed, untraced: &Keyed) -> f64 {
    match (traced.p50(), untraced.p50()) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// The end-to-end metrics every workload reports, from its op and
/// control samples (see [`crate::stats`] for p50, tail and rate).
pub fn push_end_to_end(
    op: &Keyed,
    control: &Keyed,
    rounds: usize,
    setup_s: f64,
    outcome: &mut Outcome,
) {
    let (op_tail, op_pct, cells) = op.tail().unwrap_or((0.0, 0.0, 0));
    let (control_tail, control_pct, _) = control.tail().unwrap_or((0.0, 0.0, 0));
    outcome.metric("op_ms_p50", op.p50().unwrap_or(0.0), "ms");
    outcome.metric("op_ms_tail", op_tail, "ms");
    outcome.metric("control_ms_p50", control.p50().unwrap_or(0.0), "ms");
    outcome.metric("control_ms_tail", control_tail, "ms");
    outcome.metric("ops_per_s", op.rate().unwrap_or(0.0), "1/s");
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    outcome.info("rounds", rounds.to_string());
    outcome.info("op_samples", op.len().to_string());
    outcome.info("op_tail_cells", cells.to_string());
    outcome.info("op_tail_percentile", format!("{op_pct:.3}"));
    outcome.info("control_samples", control.len().to_string());
    outcome.info("control_tail_percentile", format!("{control_pct:.3}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(cases: &[Case]) -> Vec<[String; 2]> {
        cases.iter().map(|c| c.sources.clone()).collect()
    }

    #[test]
    fn gen_wide_inputs_are_a_function_of_the_seed() {
        let a = gen_wide_cases(7);
        assert_eq!(a.len(), GEN_WIDE_PAIRS);
        assert_eq!(sources(&a), sources(&gen_wide_cases(7)));
        // Another seed runs the same pairs in another order.
        let b = gen_wide_cases(8);
        assert_ne!(sources(&a), sources(&b));
        let (mut sorted_a, mut sorted_b) = (sources(&a), sources(&b));
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b);
        for case in &a {
            let seed: u64 = case.name.rsplit('s').next().unwrap().parse().unwrap();
            let (again, arm_local) = gen_pair(&GEN_WIDE_SHAPE, seed, GEN_EDITS);
            assert!(!arm_local, "{} edits no helper body", case.name);
            assert_eq!(again.sources, case.sources);
        }
    }

    #[test]
    fn paper_artifacts_are_every_version_in_a_seeded_order() {
        let names = |seed| -> Vec<String> {
            paper_artifact_cases(seed)
                .into_iter()
                .map(|c| c.name)
                .collect()
        };
        let a = names(1);
        assert_eq!(a.len(), 5 + 3 + 6);
        assert_eq!(a, names(1));
        assert_ne!(a, names(2));
        let (mut sorted_a, mut sorted_b) = (a.clone(), names(2));
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b);
    }

    #[test]
    fn checked_operations_repeat_their_reference_exactly() {
        let cases: Vec<Case> = paper_artifact_cases(0).into_iter().take(3).collect();
        let (refs, _) = reference_pass(&cases).unwrap();
        let mut outcome = Outcome::default();
        let (samples, _) = measure(&cases, &refs, 0.0, None, &mut outcome);
        assert_eq!(outcome.attempted, (MIN_ROUNDS * cases.len()) as u64);
        assert_eq!(outcome.failed, 0);
        assert_eq!(samples.op.len(), MIN_ROUNDS * cases.len());

        // A reference that disagrees fails every operation of its pair.
        let mut wrong = refs.clone();
        wrong[1].states += 1;
        let mut outcome = Outcome::default();
        measure(&cases, &wrong, 0.0, None, &mut outcome);
        assert_eq!(outcome.failed, MIN_ROUNDS as u64);
    }
}
