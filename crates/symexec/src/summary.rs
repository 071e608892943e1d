//! Procedure summaries: explore each callee once, instantiate everywhere.
//!
//! The inlining pipeline pays for a call by re-descending into the callee
//! body on every caller path, every version, every call site. A
//! [`ProcSummary`] is the compositional alternative: the callee is
//! explored *once* over fresh entry variables (its formals and every
//! global), producing one `(guards, effects, witness)` triple per path.
//! At a call site the executor instantiates the summary instead of
//! descending: substitute the actuals for the formals and the caller's
//! current global values for the globals' entry variables
//! ([`dise_solver::substitute`]), conjoin the substituted guards onto the
//! path condition, and apply the substituted effects to the caller's
//! environment.
//!
//! # Determinism contract
//!
//! Summary-instantiated exploration emits *byte-identical* verdicts to
//! inlined exploration: the same path conditions (substitution rebuilds
//! through the same folding smart constructors the evaluator uses, so the
//! two pipelines produce literally equal expression trees), the same
//! outcomes, and the same final environments modulo the `__`-prefixed
//! α-renamed callee temporaries that only the inlined run materializes.
//! Summary paths are instantiated in the callee's serial DFS order, so the
//! caller's path emission order matches the inlined run's depth-first
//! product order.
//!
//! Structural counters (`states_explored`, `infeasible`) are *not* part of
//! the contract — the two modes take different numbers of steps by design.
//!
//! # Fallback rules
//!
//! Summaries are only used when they are provably equivalent to inlining.
//! [`build_summary`] refuses (and the caller falls back to the inlining
//! pipeline) when:
//!
//! * the call graph is recursive ([`InlineError::Recursive`] — MJ rejects
//!   this everywhere, but the gate is re-checked here);
//! * the callee's exploration was depth-bounded or truncated (a bound
//!   measured from the callee's entry is not the bound the inlined run
//!   would apply at the call site's depth);
//! * a callee path ends in a depth-bound or pruned outcome for any other
//!   reason.
//!
//! The executor-level gates (`depth_bound`/`max_states` must be unset,
//! the strategy must be a full exploration) live in `dise-core`, which
//! decides per run whether to route through summaries.
//!
//! # The witness fast path
//!
//! Each summary path carries a witness model of its guards. At a call
//! site the witness is translated through the substitution (entries whose
//! substituted image is a plain caller variable carry over) and overlaid
//! on the parent frame's model; if the combined candidate satisfies the
//! whole solver stack plus the new guards by direct evaluation, the
//! literals are admitted via
//! [`IncrementalSolver::push_verified`](dise_solver::IncrementalSolver::push_verified)
//! — zero decision-pipeline work, while the solver's trie still learns
//! the verdicts for future runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use dise_ir::ast::{Expr, Program};
use dise_ir::inline::{contains_calls, inline_program, InlineError};
use dise_solver::{
    substitute, Model, SolverStats, SummaryPathSnapshot, SummarySnapshot, SymExpr, SymTy,
};

use crate::env::Env;
use crate::eval::eval_symbolic;
use crate::executor::{ExecConfig, ExecError, Executor, FullExploration, PathOutcome};

/// Per-run counters for summary instantiation, folded into
/// [`crate::ExecStats`]. All zero when the run used no summaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct SummaryStats {
    /// Call-node entries dispatched to a summary.
    pub call_sites: u64,
    /// Summary paths turned into successor candidates (feasible after
    /// substitution; concretely-false guards drop the path before this
    /// count).
    pub paths_instantiated: u64,
    /// Instantiated successors admitted entirely through the witness fast
    /// path (`push_verified`) — no decision pipeline ran.
    pub hint_verified: u64,
    /// Decision-pipeline `check` calls spent on instantiated successors
    /// whose witness did not verify. The cross-version benchmark's
    /// "zero solver calls at unchanged call sites" criterion is this
    /// counter staying zero.
    pub fallback_checks: u64,
}

/// Whether full explorations route calls through procedure summaries.
/// Parsed from `--summaries on|off|auto` / `DISE_SUMMARIES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryMode {
    /// Never summarize; always inline.
    Off,
    /// Summarize every full exploration of a call-bearing program,
    /// falling back to inlining per run when a gate refuses (recursion,
    /// depth bound, state cap, non-full strategy).
    On,
    /// Like `On`, but framed as a policy default: summaries apply exactly
    /// when the configuration guarantees byte-identical verdicts. The
    /// default.
    #[default]
    Auto,
}

impl SummaryMode {
    /// Parses `on`/`off`/`auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<SummaryMode> {
        match s.to_ascii_lowercase().as_str() {
            "on" => Some(SummaryMode::On),
            "off" => Some(SummaryMode::Off),
            "auto" => Some(SummaryMode::Auto),
            _ => None,
        }
    }

    /// Whether this mode permits summary use at all.
    pub fn enabled(self) -> bool {
        !matches!(self, SummaryMode::Off)
    }
}

impl std::fmt::Display for SummaryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryMode::Off => f.write_str("off"),
            SummaryMode::On => f.write_str("on"),
            SummaryMode::Auto => f.write_str("auto"),
        }
    }
}

/// One procedure's summary: the portable snapshot (paths, entry
/// variables, invalidation keys) plus what it cost to build — reported
/// once per build, amortized over every instantiation.
#[derive(Debug, Clone)]
pub struct ProcSummary {
    /// The portable payload (also what the store persists).
    pub snap: SummarySnapshot,
    /// Solver activity spent exploring the callee and deriving witnesses.
    /// Zero for summaries loaded from a store.
    pub build_stats: SolverStats,
}

/// The summaries available to one executor, keyed by callee name. Shared
/// (via [`Arc`]) between executors and carried across version hops by
/// `dise-core`'s session.
#[derive(Debug, Clone, Default)]
pub struct SummaryTable {
    entries: BTreeMap<String, Arc<ProcSummary>>,
}

impl SummaryTable {
    /// An empty table.
    pub fn new() -> SummaryTable {
        SummaryTable::default()
    }

    /// The summary for `callee`, if present.
    pub fn get(&self, callee: &str) -> Option<&Arc<ProcSummary>> {
        self.entries.get(callee)
    }

    /// Inserts (or replaces) the summary for its procedure.
    pub fn insert(&mut self, summary: Arc<ProcSummary>) {
        self.entries.insert(summary.snap.proc_name.clone(), summary);
    }

    /// The fingerprint the stored summary for `callee` was built against.
    pub fn fingerprint_of(&self, callee: &str) -> Option<u64> {
        self.entries.get(callee).map(|s| s.snap.fingerprint)
    }

    /// Drops every entry whose callee is *not* listed in `fresh` with a
    /// matching fingerprint — the cross-hop invalidation step: an
    /// unchanged callee survives the hop, a changed one is rebuilt.
    /// Returns the number of entries that survived.
    pub fn retain_matching(&mut self, fresh: &BTreeMap<String, u64>) -> usize {
        self.entries
            .retain(|name, s| fresh.get(name) == Some(&s.snap.fingerprint));
        self.entries.len()
    }

    /// Iterates over the summaries in callee-name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ProcSummary>> {
        self.entries.values()
    }

    /// Number of summaries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the table holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Why a callee could not be summarized (the caller falls back to the
/// inlining pipeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryBuildError {
    /// Flattening the callee failed (recursion, unknown nested callee…).
    Inline(InlineError),
    /// Constructing the callee executor failed.
    Exec(ExecError),
    /// The callee's exploration hit the depth bound — entry-relative
    /// bounds are not call-site-relative bounds, so the summary would not
    /// be equivalent to inlining.
    DepthBounded,
    /// The callee's exploration was truncated by the state cap.
    Truncated,
}

impl std::fmt::Display for SummaryBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryBuildError::Inline(e) => write!(f, "flattening failed: {e}"),
            SummaryBuildError::Exec(e) => write!(f, "callee executor: {e}"),
            SummaryBuildError::DepthBounded => {
                f.write_str("callee exploration hit the depth bound")
            }
            SummaryBuildError::Truncated => f.write_str("callee exploration was truncated"),
        }
    }
}

impl std::error::Error for SummaryBuildError {}

impl From<InlineError> for SummaryBuildError {
    fn from(e: InlineError) -> Self {
        SummaryBuildError::Inline(e)
    }
}

impl From<ExecError> for SummaryBuildError {
    fn from(e: ExecError) -> Self {
        SummaryBuildError::Exec(e)
    }
}

/// Explores `callee` once into a [`ProcSummary`].
///
/// The callee (flattened first, so nested calls are folded in) is
/// explored serially with a full strategy over a *fully symbolic* entry
/// environment: every formal **and every global** is bound to a fresh
/// entry variable — unlike a top-level run, where initialized globals
/// start concrete — because a call site may be reached with any global
/// state. Witness models are then derived per path by re-pushing the
/// path's guards into a fresh solver (one check per path; this cost is
/// part of [`ProcSummary::build_stats`] and is amortized over every
/// instantiation).
///
/// `fingerprint` is the callee's flattened-body fingerprint
/// (`dise-diff`'s `proc_fingerprint`), stored for cross-version
/// invalidation; this crate treats it as an opaque key.
pub fn build_summary(
    program: &Program,
    callee: &str,
    fingerprint: u64,
    config: &ExecConfig,
) -> Result<ProcSummary, SummaryBuildError> {
    let flat;
    let program = if contains_calls(program, callee) {
        flat = inline_program(program, callee)?;
        &flat
    } else {
        program
    };
    let procedure = program
        .proc(callee)
        .ok_or_else(|| InlineError::MissingProcedure(callee.to_string()))?;

    // Entry environment: formals and *all* globals symbolic.
    let mut pool = dise_solver::VarPool::new();
    let mut env = Env::new();
    let mut formals = Vec::new();
    let mut globals = Vec::new();
    for param in &procedure.params {
        let ty = match param.ty {
            dise_ir::Type::Int => SymTy::Int,
            dise_ir::Type::Bool => SymTy::Bool,
        };
        let var = pool.fresh(crate::executor::symbolic_name(&param.name), ty);
        env.bind(&param.name, SymExpr::var(&var));
        formals.push((param.name.clone(), var));
    }
    for global in &program.globals {
        let ty = match global.ty {
            dise_ir::Type::Int => SymTy::Int,
            dise_ir::Type::Bool => SymTy::Bool,
        };
        let var = pool.fresh(crate::executor::symbolic_name(&global.name), ty);
        env.bind(&global.name, SymExpr::var(&var));
        globals.push((global.name.clone(), var));
    }

    // Trace-free exploration; the caller's solver tuning applies (the
    // summary's solver_key records it).
    let mut callee_config = config.clone();
    callee_config.record_traces = false;
    callee_config.record_tree = false;
    callee_config.record_pruned = false;
    let solver_key = callee_config.solver.cache_key();
    let inputs: Vec<_> = formals.iter().chain(globals.iter()).cloned().collect();
    let mut executor = Executor::from_parts(
        callee.to_string(),
        dise_cfg::build_cfg(procedure),
        env,
        inputs,
        pool,
        callee_config,
    );
    let span = config
        .tracer
        .as_ref()
        .map(|h| h.begin(&format!("summary.build.{callee}")));
    let explored = executor.explore(&mut FullExploration);
    if let (Some(h), Some(span)) = (&config.tracer, span) {
        h.end_with(
            span,
            vec![
                ("paths".to_string(), explored.paths().len() as u64),
                ("solver.checks".to_string(), explored.stats().solver.checks),
                (
                    "solver.pipeline_checks".to_string(),
                    explored.stats().solver.pipeline_checks(),
                ),
            ],
        );
    }
    if explored.stats().truncated {
        return Err(SummaryBuildError::Truncated);
    }
    if explored.stats().paths_depth_bounded > 0 {
        return Err(SummaryBuildError::DepthBounded);
    }
    let mut build_stats = explored.stats().solver;

    // Witness derivation: one fresh solver, one check per path.
    let mut witness_solver = dise_solver::IncrementalSolver::with_config(config.solver);
    let mut paths = Vec::new();
    for path in explored.paths() {
        let guards: Vec<SymExpr> = path.pc.conjuncts().to_vec();
        let error = match &path.outcome {
            PathOutcome::Completed => None,
            PathOutcome::Error(message) => Some(message.clone()),
            // Ruled out above (depth-bounded) / by the full strategy
            // (pruned).
            PathOutcome::DepthBounded | PathOutcome::Pruned => {
                return Err(SummaryBuildError::DepthBounded)
            }
        };
        let effects: Vec<(String, SymExpr)> = globals
            .iter()
            .map(|(name, var)| {
                let value = path
                    .final_env
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| SymExpr::var(var));
                (name.clone(), value)
            })
            .collect();
        let witness = {
            witness_solver.reset();
            for guard in &guards {
                witness_solver.push(guard.clone());
            }
            match witness_solver.check() {
                dise_solver::SatResult::Sat => witness_solver.model().cloned(),
                _ => None,
            }
        };
        paths.push(SummaryPathSnapshot {
            guards,
            error,
            effects,
            witness,
        });
    }
    build_stats.merge(&witness_solver.stats());

    Ok(ProcSummary {
        snap: SummarySnapshot {
            proc_name: callee.to_string(),
            fingerprint,
            solver_key,
            formals,
            globals,
            paths,
        },
        build_stats,
    })
}

/// One summary path rewritten into the caller's expression space.
pub(crate) struct InstantiatedPath {
    /// Substituted guards, trivially-true conjuncts dropped (mirroring
    /// [`dise_solver::PathCondition::push`]). A guard that substituted to
    /// the constant `false` drops the whole path instead (the inlined run
    /// would never have forked that arm).
    pub lits: Vec<SymExpr>,
    /// The caller environment with the path's effects applied.
    pub env: Env,
    /// The callee-side assertion failure this path ends in, if any.
    pub error: Option<String>,
    /// The path's witness translated through the substitution (entries
    /// whose image is a plain caller variable), for the `push_verified`
    /// fast path.
    pub hint: Option<Model>,
}

/// Instantiates `summary` at a call site: actuals `args` evaluated in
/// `caller_env`. Returns the feasible-after-substitution paths in summary
/// (= callee serial DFS) order.
pub(crate) fn instantiate(
    summary: &ProcSummary,
    args: &[Expr],
    caller_env: &Env,
) -> Vec<InstantiatedPath> {
    let snap = &summary.snap;
    // σ: callee entry variable id → caller-side expression.
    let mut sigma: BTreeMap<u32, SymExpr> = BTreeMap::new();
    for ((_, var), actual) in snap.formals.iter().zip(args) {
        let value = eval_symbolic(actual, caller_env)
            .expect("type-checked program has no unbound variables");
        sigma.insert(var.id(), value);
    }
    for (name, var) in &snap.globals {
        let value = caller_env
            .get(name)
            .cloned()
            .unwrap_or_else(|| SymExpr::var(var));
        sigma.insert(var.id(), value);
    }

    let mut out = Vec::new();
    'paths: for path in &snap.paths {
        let mut lits = Vec::new();
        for guard in &path.guards {
            match substitute(guard, &sigma) {
                // The inlined run folds these the same way: a true guard
                // adds no literal, a false guard means the branch arm is
                // concrete and never forked.
                SymExpr::Bool(true) => {}
                SymExpr::Bool(false) => continue 'paths,
                lit => lits.push(lit),
            }
        }
        let mut env = caller_env.clone();
        for (name, effect) in &path.effects {
            env.bind(name, substitute(effect, &sigma));
        }
        let hint = path.witness.as_ref().map(|witness| {
            let mut hint = Model::default();
            for (id, value) in witness.iter() {
                if let Some(SymExpr::Var(v)) = sigma.get(&id) {
                    hint.set(v.id(), value);
                }
            }
            hint
        });
        out.push(InstantiatedPath {
            lits,
            env,
            error: path.error.clone(),
            hint,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::{check_program, parse_program};

    /// Builds a summary table covering every procedure `main` calls.
    fn table_for(program: &Program, main: &str, config: &ExecConfig) -> SummaryTable {
        let mut table = SummaryTable::new();
        for procedure in &program.procs {
            if procedure.name != main {
                let summary = build_summary(program, &procedure.name, 0, config)
                    .expect("test callee is summarizable");
                table.insert(Arc::new(summary));
            }
        }
        table
    }

    /// Explores `main` both ways and returns `(inlined, summarized)`.
    fn run_both(src: &str, main: &str) -> (crate::SymbolicSummary, crate::SymbolicSummary) {
        let program = parse_program(src).unwrap();
        check_program(&program).unwrap();
        let config = ExecConfig::default();
        let flat = inline_program(&program, main).unwrap();
        let mut inlined = Executor::new(&flat, main, config.clone()).unwrap();
        let inlined_run = inlined.explore(&mut FullExploration);
        let table = Arc::new(table_for(&program, main, &config));
        let mut summarized = Executor::with_summaries(&program, main, config, table).unwrap();
        let summarized_run = summarized.explore(&mut FullExploration);
        (inlined_run, summarized_run)
    }

    /// The byte-identity contract: same pc strings, same outcomes, same
    /// final environments modulo `__`-prefixed inlined temporaries.
    fn assert_equivalent(inlined: &crate::SymbolicSummary, summarized: &crate::SymbolicSummary) {
        assert_eq!(inlined.paths().len(), summarized.paths().len());
        for (a, b) in inlined.paths().iter().zip(summarized.paths()) {
            assert_eq!(a.pc.to_string(), b.pc.to_string());
            assert_eq!(a.outcome, b.outcome);
            let visible = |env: &Env| {
                env.iter()
                    .filter(|(name, _)| !name.starts_with("__"))
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(visible(&a.final_env), visible(&b.final_env));
        }
    }

    const BRANCHING: &str = "int total = 0;
         proc clamp(int amount) {
           if (amount > 10) { total = total + 10; }
           else { total = total + amount; }
         }
         proc main(int a, int b) { clamp(a); clamp(b); }";

    #[test]
    fn summary_matches_inlined_on_branching_callee() {
        let (inlined, summarized) = run_both(BRANCHING, "main");
        assert_eq!(inlined.paths().len(), 4);
        assert_equivalent(&inlined, &summarized);
        // Dispatches, not static sites: the second call node is entered
        // once per feasible path through the first (1 + 2).
        assert_eq!(summarized.stats().summary.call_sites, 3);
        assert!(summarized.stats().summary.paths_instantiated >= 4);
    }

    #[test]
    fn summary_propagates_callee_errors() {
        let src = "proc check(int v) { assert(v >= 0); }
             proc main(int a) { check(a); }";
        let (inlined, summarized) = run_both(src, "main");
        assert_eq!(inlined.stats().paths_error, 1);
        assert_eq!(summarized.stats().paths_error, 1);
        assert_equivalent(&inlined, &summarized);
    }

    #[test]
    fn witness_fast_path_answers_pure_formal_guards_without_pipeline() {
        // Guards reference only formals and actuals are distinct caller
        // variables, so every instantiated path's witness translates
        // completely and verifies by evaluation.
        let src = "int log = 0;
             proc gate(int v) {
               if (v > 0) { log = log + 1; }
               else { log = log - 1; }
             }
             proc main(int a, int b) { gate(a); gate(b); }";
        let program = parse_program(src).unwrap();
        check_program(&program).unwrap();
        let config = ExecConfig::default();
        let table = Arc::new(table_for(&program, "main", &config));
        let mut executor = Executor::with_summaries(&program, "main", config, table).unwrap();
        let run = executor.explore(&mut FullExploration);
        let stats = run.stats().summary;
        assert_eq!(stats.call_sites, 3);
        assert_eq!(stats.fallback_checks, 0, "all sites should hint-verify");
        assert_eq!(stats.hint_verified, stats.paths_instantiated);
        assert_eq!(run.stats().solver.assumed_sat, stats.hint_verified);
    }

    #[test]
    fn concrete_false_guard_drops_path_silently() {
        // `main` passes a constant, so one summary path's guard folds to
        // false: the inlined run never forks there either.
        let src = "int out = 0;
             proc pick(int v) {
               if (v > 0) { out = 1; } else { out = 2; }
             }
             proc main() { pick(5); }";
        let (inlined, summarized) = run_both(src, "main");
        assert_eq!(inlined.paths().len(), 1);
        assert_equivalent(&inlined, &summarized);
    }

    #[test]
    fn build_refuses_recursive_callee() {
        let src = "proc spin(int n) { if (n > 0) { spin(n - 1); } }
             proc main(int a) { spin(a); }";
        let program = parse_program(src).unwrap();
        let err = build_summary(&program, "spin", 0, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, SummaryBuildError::Inline(_)));
    }

    #[test]
    fn missing_summary_is_reported() {
        let program = parse_program("proc f(int x) { } proc main(int a) { f(a); }").unwrap();
        check_program(&program).unwrap();
        let err = Executor::with_summaries(
            &program,
            "main",
            ExecConfig::default(),
            Arc::new(SummaryTable::new()),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MissingSummary(name) if name == "f"));
    }

    #[test]
    fn retain_matching_invalidates_changed_fingerprints() {
        let program =
            parse_program("proc f(int x) { } proc g(int x) { } proc main(int a) { f(a); g(a); }")
                .unwrap();
        let config = ExecConfig::default();
        let mut table = SummaryTable::new();
        table.insert(Arc::new(build_summary(&program, "f", 11, &config).unwrap()));
        table.insert(Arc::new(build_summary(&program, "g", 22, &config).unwrap()));
        let fresh: BTreeMap<String, u64> = [("f".to_string(), 11), ("g".to_string(), 99)].into();
        assert_eq!(table.retain_matching(&fresh), 1);
        assert!(table.get("f").is_some());
        assert!(table.get("g").is_none());
    }
}
