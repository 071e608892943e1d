//! The symbolic execution engine.
//!
//! See the [crate documentation](crate) for the SPF-equivalence notes. The
//! engine walks the CFG depth-first with explicit frames that mimic the
//! recursion of the paper's Fig. 6, so [`Strategy`] hook side effects are
//! observed in exactly the pseudocode's order.

use std::time::{Duration, Instant};

use dise_cfg::{build_cfg, build_cfg_with_calls, Cfg, NodeKind};
use dise_ir::ast::Program;
use dise_solver::{
    IncrementalSolver, Model, PathCondition, SatResult, SolverConfig, SolverStats, SymExpr, SymTy,
    SymVar, TrieSnapshot, VarPool,
};

use crate::env::Env;
use crate::eval::{eval_symbolic, EvalError};
use crate::state::SymState;
use crate::summary::{SummaryMode, SummaryStats, SummaryTable};
use crate::tree::ExecTree;
use dise_cfg::NodeId;
use std::sync::Arc;

/// Exploration hooks. The trivial implementation ([`FullExploration`])
/// yields standard full symbolic execution; `dise-core` provides the
/// directed strategy of Fig. 6.
pub trait Strategy {
    /// Called when a state is entered (the paper's `UpdateExploredSet`,
    /// Fig. 6 line 7).
    fn on_enter(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Decides whether a feasible successor state at `node` should be
    /// explored (the paper's `AffectedLocIsReachable`, Fig. 6 line 9).
    /// May mutate strategy state (the reset of explored sets happens inside
    /// this check in the paper's pseudocode).
    fn should_explore(&mut self, node: NodeId) -> bool {
        let _ = node;
        true
    }

    /// Called when the search backtracks past a state (its subtree is
    /// complete). Purely observational — used by trace renderers.
    fn on_leave(&mut self, node: NodeId) {
        let _ = node;
    }
}

/// An executor's transferable warm state: the decided prefix trie, tagged
/// with the producing solver's [`SolverConfig::cache_key`]. Produced by
/// [`Executor::warm_handoff`], consumed by [`Executor::warm_start_from`].
#[derive(Debug, Clone)]
pub struct WarmHandoff {
    trie: TrieSnapshot,
    solver_key: u64,
}

impl WarmHandoff {
    /// Number of decided path-condition prefixes the handoff carries.
    pub fn decided(&self) -> usize {
        self.trie.decided()
    }
}

/// Standard full symbolic execution: explore every feasible successor.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullExploration;

impl Strategy for FullExploration {}

/// Which successors are submitted to [`Strategy::should_explore`].
///
/// The paper's prototype lives inside Symbolic PathFinder, where symbolic
/// states exist only at *choice generators* — symbolic branches with more
/// than one feasible outcome. Straight-line code and branches whose
/// condition is concrete never create states, so the
/// `AffectedLocIsReachable` filter of Fig. 6 is only ever consulted at
/// choice points. [`FilterScope::ChoicePoints`] reproduces that behaviour
/// and is the default; [`FilterScope::AllStates`] applies the filter at
/// every CFG node (the literal reading of the pseudocode, kept for the
/// fidelity comparison; see ARCHITECTURE.md, "Fidelity notes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterScope {
    /// Filter only successors produced by a symbolic two-way fork
    /// (SPF-faithful; the default).
    #[default]
    ChoicePoints,
    /// Filter every successor state.
    AllStates,
}

/// The former speculative sweep's token budget. Nothing reads it: kept
/// only because `perfbench` sets [`ExecConfig::sweep_budget`], and goes
/// with the next change to `perfbench`.
#[derive(Debug, Clone, Copy)]
pub enum SweepBudget {
    /// A token count.
    Tokens(u64),
}

impl Default for SweepBudget {
    fn default() -> Self {
        SweepBudget::Tokens(0)
    }
}

/// The former speculative sweep's arm-ordering heuristic. Nothing reads
/// it: kept only because `perfbench` sets [`ExecConfig::heuristic`], and
/// goes with the next change to `perfbench`.
#[derive(Debug, Clone, Copy, Default)]
pub enum HeuristicChoice {
    /// Distance to the nearest affected node.
    #[default]
    Distance,
}

/// Configuration of an execution run.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum path depth (states along one path); `None` = unbounded,
    /// like the paper's loop-free case studies.
    pub depth_bound: Option<u32>,
    /// Treat [`SatResult::Unknown`] as feasible. Default `false`, matching
    /// SPF's "solver timeout ⇒ unsatisfiable" rule (§4.1).
    pub unknown_is_sat: bool,
    /// Abort after this many states (safety valve). `None` = unbounded.
    pub max_states: Option<u64>,
    /// Record the node trace of every path (needed by the regression
    /// application and the Table 1 renderer; costs memory on huge runs).
    pub record_traces: bool,
    /// Record strategy-pruned path prefixes as [`PathOutcome::Pruned`]
    /// entries (used by the Theorem 3.10 checker; they never contribute
    /// path conditions).
    pub record_pruned: bool,
    /// Capture the full symbolic execution tree (Fig. 1 rendering).
    pub record_tree: bool,
    /// Which successors the strategy filter applies to.
    pub filter_scope: FilterScope,
    /// Unused: every exploration is the serial DFS. Kept only because
    /// `perfbench` sets it, and goes with the next change to `perfbench`.
    pub jobs: usize,
    /// Unused; kept only because `perfbench` sets it (see
    /// [`SweepBudget`]).
    pub sweep_budget: SweepBudget,
    /// Whether full explorations of call-bearing programs route calls
    /// through procedure summaries instead of inlining (see
    /// [`crate::summary`]). The executor itself only honors an attached
    /// [`SummaryTable`] ([`Executor::with_summaries`]); this knob is the
    /// *policy* consulted by `dise-core` when deciding whether to attach
    /// one. The default honors the `DISE_SUMMARIES` environment variable
    /// (`on`, `off`, or `auto`), falling back to
    /// [`SummaryMode::Auto`].
    pub summaries: SummaryMode,
    /// Unused; kept only because `perfbench` sets it (see
    /// [`HeuristicChoice`]).
    pub heuristic: HeuristicChoice,
    /// Constraint-solver tuning.
    pub solver: SolverConfig,
    /// Observability hook: when set, pipeline stages and summary builds
    /// record hierarchical spans through this handle (see `dise-trace`).
    /// Layers re-parent the handle before passing the config down, which
    /// is how explore spans nest under their stage.
    /// `None` (the default) records nothing and costs nothing.
    pub tracer: Option<dise_trace::TraceHandle>,
}

/// The `DISE_SUMMARIES` default, read once per process.
fn default_summaries() -> SummaryMode {
    static MODE: std::sync::OnceLock<SummaryMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("DISE_SUMMARIES")
            .ok()
            .and_then(|v| SummaryMode::parse(&v))
            .unwrap_or_default()
    })
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            depth_bound: None,
            unknown_is_sat: false,
            max_states: None,
            record_traces: true,
            record_pruned: false,
            record_tree: false,
            filter_scope: FilterScope::default(),
            jobs: 1,
            sweep_budget: SweepBudget::default(),
            summaries: default_summaries(),
            heuristic: HeuristicChoice::default(),
            solver: SolverConfig::default(),
            tracer: None,
        }
    }
}

/// Errors constructing an executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program has no procedure with the requested name.
    MissingProcedure(String),
    /// The procedure contains procedure calls; inline them first
    /// ([`dise_ir::inline::inline_program`]).
    ContainsCalls(String),
    /// Summary-mode construction found a call to a procedure the supplied
    /// [`SummaryTable`] has no entry for.
    MissingSummary(String),
    /// Evaluating a global initializer failed (unchecked program).
    Eval(EvalError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingProcedure(name) => {
                write!(f, "procedure `{name}` not found")
            }
            ExecError::ContainsCalls(name) => write!(
                f,
                "procedure `{name}` contains calls; inline first (dise_ir::inline)"
            ),
            ExecError::MissingSummary(name) => {
                write!(f, "no summary for callee `{name}` in the supplied table")
            }
            ExecError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e)
    }
}

/// How a recorded path ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathOutcome {
    /// Reached the procedure exit.
    Completed,
    /// Reached an error node (failed assertion).
    Error(String),
    /// Stopped by the depth bound.
    DepthBounded,
    /// Rejected by the exploration strategy (DiSE pruning); the recorded
    /// path is the prefix up to and including the rejected successor.
    Pruned,
}

/// One explored execution path.
#[derive(Debug, Clone)]
pub struct PathSummary {
    /// The path condition characterizing the path.
    pub pc: PathCondition,
    /// How the path ended.
    pub outcome: PathOutcome,
    /// Symbolic values of all variables at the end of the path.
    pub final_env: Env,
    /// The CFG nodes visited, in order (empty when trace recording is
    /// disabled).
    pub trace: Vec<NodeId>,
}

/// Counters for one execution run (the dependent variables of §4.2.2).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Symbolic states entered (the paper's "states explored").
    pub states_explored: u64,
    /// Paths that reached the exit node.
    pub paths_completed: u64,
    /// Paths that reached an error node.
    pub paths_error: u64,
    /// Paths cut off by the depth bound.
    pub paths_depth_bounded: u64,
    /// Successors discarded as infeasible by the solver.
    pub infeasible: u64,
    /// Successors discarded by the strategy (DiSE pruning).
    pub pruned: u64,
    /// `true` if `max_states` stopped the run early.
    pub truncated: bool,
    /// Wall-clock time of the exploration.
    pub elapsed: Duration,
    /// The part of [`ExecStats::elapsed`] spent pushing branch literals,
    /// deciding them and popping them again. Measured by the serial
    /// engine only when [`ExecConfig::tracer`] is set (zero otherwise:
    /// untraced runs take no extra clock reads).
    pub solver_time: Duration,
    /// The part of [`ExecStats::elapsed`] spent in
    /// [`Strategy::should_explore`], under the same conditions as
    /// [`ExecStats::solver_time`].
    pub filter_time: Duration,
    /// Solver activity during the run.
    pub solver: SolverStats,
    /// Decided prefixes the executor's solver was warm-started with
    /// ([`Executor::warm_start`]) before this run.
    pub warm_trie_entries: u64,
    /// Summary-instantiation activity (all zero on inlined runs).
    pub summary: SummaryStats,
}

/// The result of a run: "a symbolic summary … made up of path conditions
/// that represent the feasible execution paths" (§2.1).
#[derive(Debug, Clone)]
pub struct SymbolicSummary {
    pub(crate) proc_name: String,
    pub(crate) inputs: Vec<(String, SymVar)>,
    pub(crate) paths: Vec<PathSummary>,
    pub(crate) stats: ExecStats,
    pub(crate) tree: Option<ExecTree>,
}

impl SymbolicSummary {
    /// The analyzed procedure's name.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The symbolic inputs: `(program variable, symbolic variable)` for
    /// every parameter and uninitialized global, in declaration order
    /// (parameters first).
    pub fn inputs(&self) -> &[(String, SymVar)] {
        &self.inputs
    }

    /// All recorded paths.
    pub fn paths(&self) -> &[PathSummary] {
        &self.paths
    }

    /// The path conditions of *terminated* paths (completed or error) —
    /// what the paper counts as "path conditions generated".
    pub fn path_conditions(&self) -> impl Iterator<Item = &PathCondition> {
        self.paths
            .iter()
            .filter(|p| !matches!(p.outcome, PathOutcome::DepthBounded | PathOutcome::Pruned))
            .map(|p| &p.pc)
    }

    /// Number of generated path conditions.
    pub fn pc_count(&self) -> usize {
        self.path_conditions().count()
    }

    /// Execution counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The captured execution tree, when [`ExecConfig::record_tree`] was
    /// set.
    pub fn tree(&self) -> Option<&ExecTree> {
        self.tree.as_ref()
    }
}

/// The symbolic executor for one procedure of one program.
///
/// The executor owns an [`IncrementalSolver`] whose push/pop stack mirrors
/// the DFS: each branch literal is pushed exactly once per tree edge and
/// popped on backtrack, so feasibility checks reuse the prefix's solver
/// state instead of re-submitting the whole path condition. The solver
/// (and its prefix trie) persists across [`Executor::explore`] calls, so
/// repeated explorations answer repeated prefixes from the trie.
#[derive(Debug, Clone)]
pub struct Executor {
    proc_name: String,
    cfg: Cfg,
    init_env: Env,
    inputs: Vec<(String, SymVar)>,
    pool: VarPool,
    config: ExecConfig,
    solver: IncrementalSolver,
    /// Decided prefixes restored by [`Executor::warm_start`] (reported as
    /// [`ExecStats::warm_trie_entries`]).
    warm_trie_entries: u64,
    /// Procedure summaries for call-node dispatch. `None` for inlined
    /// (call-free) executors; `Some` only via
    /// [`Executor::with_summaries`].
    summaries: Option<Arc<SummaryTable>>,
}

impl Executor {
    /// Prepares symbolic execution of `proc_name` in `program`: builds the
    /// CFG and the initial environment (parameters and uninitialized
    /// globals become symbolic inputs; initialized globals start concrete).
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingProcedure`] if the procedure does not exist;
    /// [`ExecError::Eval`] if a global initializer is unevaluable.
    pub fn new(
        program: &Program,
        proc_name: &str,
        config: ExecConfig,
    ) -> Result<Executor, ExecError> {
        let procedure = program
            .proc(proc_name)
            .ok_or_else(|| ExecError::MissingProcedure(proc_name.to_string()))?;
        if dise_ir::inline::contains_calls(program, proc_name) {
            return Err(ExecError::ContainsCalls(proc_name.to_string()));
        }
        let cfg = build_cfg(procedure);
        let (env, inputs, pool) = toplevel_env(program, procedure)?;
        Ok(Executor::from_parts(
            proc_name.to_string(),
            cfg,
            env,
            inputs,
            pool,
            config,
        ))
    }

    /// Prepares *compositional* symbolic execution of `proc_name`: calls
    /// are kept as opaque CFG nodes and dispatched to the supplied
    /// [`SummaryTable`] during exploration instead of being inlined. The
    /// initial environment is built exactly as [`Executor::new`] builds it
    /// for the flattened program, so the two modes explore from identical
    /// starting states.
    ///
    /// # Errors
    ///
    /// Everything [`Executor::new`] reports, plus
    /// [`ExecError::MissingSummary`] when the body calls a procedure the
    /// table has no entry for (recursion, failed builds — the caller
    /// should fall back to the inlining pipeline).
    pub fn with_summaries(
        program: &Program,
        proc_name: &str,
        config: ExecConfig,
        summaries: Arc<SummaryTable>,
    ) -> Result<Executor, ExecError> {
        let procedure = program
            .proc(proc_name)
            .ok_or_else(|| ExecError::MissingProcedure(proc_name.to_string()))?;
        let cfg = build_cfg_with_calls(procedure);
        for id in cfg.node_ids() {
            if let NodeKind::Call { callee, .. } = &cfg.node(id).kind {
                if summaries.get(callee).is_none() {
                    return Err(ExecError::MissingSummary(callee.clone()));
                }
            }
        }
        let (env, inputs, pool) = toplevel_env(program, procedure)?;
        let mut executor =
            Executor::from_parts(proc_name.to_string(), cfg, env, inputs, pool, config);
        executor.summaries = Some(summaries);
        Ok(executor)
    }

    /// Assembles an executor from pre-built parts (summary builds use a
    /// custom all-symbolic entry environment that [`Executor::new`] does
    /// not produce).
    pub(crate) fn from_parts(
        proc_name: String,
        cfg: Cfg,
        init_env: Env,
        inputs: Vec<(String, SymVar)>,
        pool: VarPool,
        config: ExecConfig,
    ) -> Executor {
        let solver = IncrementalSolver::with_config(config.solver);
        Executor {
            proc_name,
            cfg,
            init_env,
            inputs,
            pool,
            config,
            solver,
            warm_trie_entries: 0,
            summaries: None,
        }
    }

    /// Warm-starts this executor from persisted state: seeds the
    /// incremental solver's interner and prefix trie from `snapshot`
    /// (terms are re-interned, so snapshots survive process boundaries).
    /// Returns the number of decided prefixes restored.
    ///
    /// Restored verdicts are byte-for-byte what this executor would have
    /// computed itself (the [determinism
    /// contract](dise_solver::snapshot#determinism-contract)), **provided
    /// the snapshot was produced under the same
    /// solver configuration** — callers gate on
    /// [`SolverConfig::cache_key`]. Call before the first
    /// [`Executor::explore`]; an invalid snapshot restores nothing.
    pub fn warm_start(&mut self, snapshot: &TrieSnapshot) -> u64 {
        let imported = self.solver.import_trie(snapshot) as u64;
        self.warm_trie_entries += imported;
        imported
    }

    /// Exports the solver's warm state (interner + decided prefix-trie
    /// entries) for persistence — the payload of a `dise --store`
    /// directory entry.
    pub fn trie_snapshot(&self) -> TrieSnapshot {
        self.solver.export_trie()
    }

    /// Packages this executor's warm state for an in-process handoff to
    /// the executor of a *later pipeline stage or version hop*: the trie
    /// snapshot and the solver cache key it was produced under. The
    /// in-memory analogue of a store round-trip, used by `dise-core`'s
    /// `AnalysisSession` to chain multi-version runs without touching
    /// disk.
    pub fn warm_handoff(&self) -> WarmHandoff {
        WarmHandoff {
            trie: self.trie_snapshot(),
            solver_key: self.config.solver.cache_key(),
        }
    }

    /// Warm-starts this executor from a [`WarmHandoff`]. Returns the
    /// number of decided prefixes restored, or `None` (restoring nothing)
    /// when the handoff was produced under a different solver
    /// configuration — differently budgeted solvers must not share
    /// verdicts.
    pub fn warm_start_from(&mut self, handoff: &WarmHandoff) -> Option<u64> {
        if handoff.solver_key != self.config.solver.cache_key() {
            return None;
        }
        Some(self.warm_start(&handoff.trie))
    }

    /// The CFG being executed (shared with the static analyses in
    /// `dise-core`).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The symbolic-variable pool (for callers that need fresh variables
    /// consistent with this run).
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// The initial symbolic environment: parameters and uninitialized
    /// globals bound to fresh symbolic variables, initialized globals bound
    /// to their concrete initial values.
    pub fn init_env(&self) -> &Env {
        &self.init_env
    }

    /// The symbolic inputs: `(program variable, symbolic variable)` in
    /// declaration order (parameters first), same shape as
    /// [`SymbolicSummary::inputs`].
    pub fn inputs(&self) -> &[(String, SymVar)] {
        &self.inputs
    }

    /// Runs the exploration with the given strategy: one depth-first walk
    /// whose solver stack mirrors the current path.
    ///
    /// The reported [`ExecStats::solver`] counters cover this run only,
    /// even though the solver itself (with its prefix trie and caches)
    /// persists across runs of the same executor.
    pub fn explore(&mut self, strategy: &mut dyn Strategy) -> SymbolicSummary {
        let start = Instant::now();
        let solver_before = self.solver.stats();
        let mut run = Run {
            cfg: &self.cfg,
            config: &self.config,
            solver: &mut self.solver,
            strategy,
            paths: Vec::new(),
            stats: ExecStats::default(),
            tree: if self.config.record_tree {
                Some(ExecTree::new())
            } else {
                None
            },
            trace: Vec::new(),
            summaries: self.summaries.as_deref(),
        };
        let initial = SymState::initial(self.cfg.begin(), self.init_env.clone());
        run.dfs(initial);
        let mut stats = run.stats;
        let paths = run.paths;
        let tree = run.tree;
        // Unwind anything a truncated run left on the solver stack.
        self.solver.reset();
        stats.elapsed = start.elapsed();
        stats.solver = self.solver.stats().delta_since(&solver_before);
        stats.warm_trie_entries = self.warm_trie_entries;
        SymbolicSummary {
            proc_name: self.proc_name.clone(),
            inputs: self.inputs.clone(),
            paths,
            stats,
            tree,
        }
    }
}

/// The entry environment, the named symbolic inputs, and the pool that
/// minted them.
type EntryEnv = (Env, Vec<(String, SymVar)>, VarPool);

/// Builds the top-level entry environment shared by [`Executor::new`] and
/// [`Executor::with_summaries`]: parameters and uninitialized globals get
/// fresh symbolic variables, initialized globals their concrete values.
fn toplevel_env(program: &Program, procedure: &dise_ir::Procedure) -> Result<EntryEnv, ExecError> {
    let mut pool = VarPool::new();
    let mut env = Env::new();
    let mut inputs = Vec::new();
    for param in &procedure.params {
        let ty = match param.ty {
            dise_ir::Type::Int => SymTy::Int,
            dise_ir::Type::Bool => SymTy::Bool,
        };
        let var = pool.fresh(symbolic_name(&param.name), ty);
        env.bind(&param.name, SymExpr::var(&var));
        inputs.push((param.name.clone(), var));
    }
    for global in &program.globals {
        match &global.init {
            Some(init) => {
                let value = eval_symbolic(init, &Env::new())?;
                env.bind(&global.name, value);
            }
            None => {
                let ty = match global.ty {
                    dise_ir::Type::Int => SymTy::Int,
                    dise_ir::Type::Bool => SymTy::Bool,
                };
                let var = pool.fresh(symbolic_name(&global.name), ty);
                env.bind(&global.name, SymExpr::var(&var));
                inputs.push((global.name.clone(), var));
            }
        }
    }
    Ok((env, inputs, pool))
}

/// The symbolic-input naming convention: the paper writes the symbolic
/// value of variable `x` as `X`.
pub(crate) fn symbolic_name(program_name: &str) -> String {
    let mut chars = program_name.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

/// A successor candidate: the state, the branch literals it adds to the
/// path condition (pushed onto the incremental solver before the
/// feasibility check — branches and symbolic assumes contribute exactly
/// one, instantiated summary paths zero or more), and whether it came
/// from a symbolic fork (a choice point).
struct Succ {
    state: SymState,
    lits: Vec<SymExpr>,
    /// A witness model for `lits` recorded when the summary was built,
    /// translated to caller variables. When it checks out against the
    /// whole solver stack by evaluation, the feasibility checks are
    /// answered without any solver pipeline work.
    hint: Option<Model>,
    forked: bool,
    /// Whether this candidate came from a summary instantiation (for
    /// [`SummaryStats`] attribution).
    from_call: bool,
}

impl Succ {
    fn plain(state: SymState) -> Succ {
        Succ {
            state,
            lits: Vec::new(),
            hint: None,
            forked: false,
            from_call: false,
        }
    }

    fn with_lit(state: SymState, lit: SymExpr, forked: bool) -> Succ {
        Succ {
            state,
            lits: vec![lit],
            hint: None,
            forked,
            from_call: false,
        }
    }
}

/// Outcome of pushing a successor's literals onto the solver.
struct PushResult {
    /// How many literals are now on the stack (all of them when feasible;
    /// the prefix up to and including the failing one when not — the
    /// caller pops exactly this many).
    pushed: usize,
    feasible: bool,
    /// Whether every literal was discharged through the witness-hint fast
    /// path (no solver pipeline work at all).
    hint_verified: bool,
    /// Solver pipeline checks (incremental + fallback) spent on these
    /// literals.
    checks: u64,
}

/// Pushes a successor's literals, answering feasibility via the witness
/// hint when possible. The hint candidate is the solver's current model
/// overlaid with the hint's assignments (hint wins); if it satisfies every
/// literal already on the stack plus all new ones by direct evaluation,
/// each literal is recorded as SAT with that model (and learned by the
/// prefix trie) without touching the solver pipeline. Any miss falls back
/// to the ordinary push + check sequence for the remaining literals.
fn push_succ_lits(
    solver: &mut IncrementalSolver,
    lits: Vec<SymExpr>,
    hint: Option<&Model>,
    unknown_is_sat: bool,
) -> PushResult {
    if lits.is_empty() {
        return PushResult {
            pushed: 0,
            feasible: true,
            hint_verified: false,
            checks: 0,
        };
    }
    let candidate = hint.map(|hint| {
        let mut model = solver.model().cloned().unwrap_or_default();
        for (id, value) in hint.iter() {
            model.set(id, value);
        }
        model
    });
    let before = solver.stats();
    let mut pushed = 0;
    let mut hint_verified = candidate.is_some();
    for lit in lits {
        let verified = match &candidate {
            Some(model) if hint_verified => solver.push_verified(lit, model),
            _ => {
                solver.push(lit);
                false
            }
        };
        pushed += 1;
        if !verified {
            hint_verified = false;
            let feasible = match solver.check() {
                SatResult::Sat => true,
                SatResult::Unsat => false,
                SatResult::Unknown => unknown_is_sat,
            };
            if !feasible {
                let delta = solver.stats().delta_since(&before);
                return PushResult {
                    pushed,
                    feasible: false,
                    hint_verified: false,
                    checks: delta.pipeline_checks(),
                };
            }
        }
    }
    let delta = solver.stats().delta_since(&before);
    PushResult {
        pushed,
        feasible: true,
        hint_verified,
        checks: delta.pipeline_checks(),
    }
}

/// How a just-entered state is classified, in the order Fig. 6 fixes:
/// error and depth-bound terminate *before* the strategy is notified
/// (line 5), the exit node notifies and completes, everything else is an
/// interior state with successors.
enum EntryKind {
    /// A failed assertion: terminate, never notify the strategy.
    Error(String),
    /// The depth bound cut the path off: terminate, never notify.
    DepthBounded,
    /// The procedure exit: notify, then complete the path.
    Completed,
    /// An interior state: notify, then generate successors.
    Interior,
}

/// Classifies a just-entered state. See [`EntryKind`].
fn classify_entry(cfg: &Cfg, config: &ExecConfig, state: &SymState) -> EntryKind {
    // An error inherited from an instantiated summary path terminates the
    // state exactly as the callee's own error node would have under
    // inlining.
    if let Some(message) = &state.pending_error {
        return EntryKind::Error(message.clone());
    }
    let node = cfg.node(state.node);
    if let NodeKind::Error { message } = &node.kind {
        return EntryKind::Error(message.clone());
    }
    if let Some(bound) = config.depth_bound {
        if state.depth >= bound && !matches!(node.kind, NodeKind::End) {
            return EntryKind::DepthBounded;
        }
    }
    if matches!(node.kind, NodeKind::End) {
        return EntryKind::Completed;
    }
    EntryKind::Interior
}

/// The feasible-successor candidates of `state`, in the order Fig. 6
/// explores them (true branch before false branch). `infeasible` is bumped
/// when a concretely false `assume` kills the path.
fn successor_candidates(
    cfg: &Cfg,
    state: &SymState,
    infeasible: &mut u64,
    summaries: Option<&SummaryTable>,
    sstats: &mut SummaryStats,
) -> Vec<Succ> {
    let plain = Succ::plain;
    let node = cfg.node(state.node);
    match &node.kind {
        NodeKind::Begin | NodeKind::Nop => cfg
            .succs(state.node)
            .iter()
            .map(|&(succ, _)| plain(state.step_to(succ)))
            .collect(),
        NodeKind::Assign { var, value } => {
            let value = eval_symbolic(value, &state.env)
                .expect("type-checked program has no unbound variables");
            let succ = cfg.succs(state.node)[0].0;
            let mut next = state.step_to(succ);
            next.env = state.env.with(var.clone(), value);
            vec![plain(next)]
        }
        NodeKind::Assume { cond } => {
            let cond = eval_symbolic(cond, &state.env)
                .expect("type-checked program has no unbound variables");
            match cond.as_bool() {
                Some(true) => {
                    let succ = cfg.succs(state.node)[0].0;
                    vec![plain(state.step_to(succ))]
                }
                Some(false) => {
                    *infeasible += 1;
                    Vec::new()
                }
                None => {
                    let succ = cfg.succs(state.node)[0].0;
                    let mut next = state.step_to(succ);
                    next.pc = state.pc.and(cond.clone());
                    vec![Succ::with_lit(next, cond, false)]
                }
            }
        }
        NodeKind::Branch { cond } => {
            let cond = eval_symbolic(cond, &state.env)
                .expect("type-checked program has no unbound variables");
            let true_succ = cfg.true_succ(state.node);
            let false_succ = cfg.false_succ(state.node);
            match cond.as_bool() {
                // A concrete condition is not a choice point: SPF
                // would simply continue executing.
                Some(true) => vec![plain(state.step_to(true_succ))],
                Some(false) => vec![plain(state.step_to(false_succ))],
                None => {
                    let negated = SymExpr::not(cond.clone());
                    let mut taken = state.step_to(true_succ);
                    taken.pc = state.pc.and(cond.clone());
                    let mut not_taken = state.step_to(false_succ);
                    not_taken.pc = state.pc.and(negated.clone());
                    vec![
                        Succ::with_lit(taken, cond, true),
                        Succ::with_lit(not_taken, negated, true),
                    ]
                }
            }
        }
        NodeKind::Call { callee, args } => {
            let summary = summaries
                .and_then(|table| table.get(callee))
                .expect("call node reached without a summary: with_summaries validates the table");
            sstats.call_sites += 1;
            let succ_node = cfg.succs(state.node)[0].0;
            let paths = crate::summary::instantiate(summary, args, &state.env);
            let mut out = Vec::new();
            for path in paths {
                sstats.paths_instantiated += 1;
                let mut next = state.step_to(succ_node);
                next.env = path.env;
                for lit in &path.lits {
                    next.pc = next.pc.and(lit.clone());
                }
                next.pending_error = path.error;
                out.push(Succ {
                    state: next,
                    lits: path.lits,
                    hint: path.hint,
                    forked: false,
                    from_call: true,
                });
            }
            // Multiple feasible summary paths are a choice point exactly
            // like a symbolic branch inside the inlined callee.
            if out.len() > 1 {
                for succ in &mut out {
                    succ.forked = true;
                }
            }
            out
        }
        NodeKind::End | NodeKind::Error { .. } => Vec::new(),
    }
}

/// Adds the time since `mark` to `share` (no-op for an untimed run).
fn charge(share: &mut Duration, mark: Option<Instant>) {
    if let Some(mark) = mark {
        *share += mark.elapsed();
    }
}

struct Frame {
    node: NodeId,
    /// Remaining successors, in *reverse* exploration order — the next
    /// candidate is `successors.pop()`, which hands out ownership without
    /// cloning the state.
    successors: Vec<Succ>,
    tree_index: Option<usize>,
    /// Whether [`Strategy::on_enter`] ran for this state (Fig. 6 line 5
    /// returns *before* `UpdateExploredSet` for depth-bounded and error
    /// states, so those never notify the strategy).
    notified: bool,
    /// How many of this state's branch literals are on the solver stack
    /// (popped when the frame completes). Branches push one; instantiated
    /// summary paths can push several.
    pushed: usize,
}

struct Run<'a> {
    cfg: &'a Cfg,
    config: &'a ExecConfig,
    solver: &'a mut IncrementalSolver,
    strategy: &'a mut dyn Strategy,
    paths: Vec<PathSummary>,
    stats: ExecStats,
    tree: Option<ExecTree>,
    trace: Vec<NodeId>,
    summaries: Option<&'a SummaryTable>,
}

impl Run<'_> {
    /// A start mark for the solver or filter share of the run's time
    /// ([`ExecStats::solver_time`], [`ExecStats::filter_time`]); `None` on
    /// untraced runs.
    fn mark(&self) -> Option<Instant> {
        self.config.tracer.is_some().then(Instant::now)
    }

    /// Pops `count` literals off the solver stack, charged to the solver
    /// share.
    fn pop_lits(&mut self, count: usize) {
        let mark = self.mark();
        for _ in 0..count {
            self.solver.pop();
        }
        charge(&mut self.stats.solver_time, mark);
    }

    fn dfs(&mut self, initial: SymState) {
        let mut stack: Vec<Frame> = Vec::new();
        let root = self.enter(initial, None);
        stack.push(root);
        while let Some(top) = stack.last_mut() {
            if self.stats.truncated {
                break;
            }
            let Some(succ) = top.successors.pop() else {
                let node = top.node;
                let notified = top.notified;
                let pushed = top.pushed;
                stack.pop();
                self.pop_lits(pushed);
                if notified {
                    self.strategy.on_leave(node);
                }
                if self.config.record_traces {
                    self.trace.pop();
                }
                continue;
            };
            let parent_tree = top.tree_index;
            let Succ {
                state: succ,
                lits,
                hint,
                forked,
                from_call,
            } = succ;
            // Push the branch literals and check the extended prefix; the
            // solver only processes the delta. Summary-path literals carry
            // a witness hint that usually answers the checks by evaluation.
            let had_lits = !lits.is_empty();
            let mark = self.mark();
            let result =
                push_succ_lits(self.solver, lits, hint.as_ref(), self.config.unknown_is_sat);
            charge(&mut self.stats.solver_time, mark);
            if from_call && had_lits {
                if result.hint_verified {
                    self.stats.summary.hint_verified += 1;
                }
                self.stats.summary.fallback_checks += result.checks;
            }
            let pushed = result.pushed;
            if !result.feasible {
                self.stats.infeasible += 1;
                self.pop_lits(pushed);
                continue;
            }
            let filtered = match self.config.filter_scope {
                FilterScope::AllStates => true,
                FilterScope::ChoicePoints => forked,
            };
            let explore = !filtered || {
                let mark = self.mark();
                let explore = self.strategy.should_explore(succ.node);
                charge(&mut self.stats.filter_time, mark);
                explore
            };
            if !explore {
                self.stats.pruned += 1;
                if self.config.record_pruned {
                    let mut trace = self.trace.clone();
                    trace.push(succ.node);
                    self.paths.push(PathSummary {
                        pc: succ.pc,
                        outcome: PathOutcome::Pruned,
                        final_env: succ.env,
                        trace,
                    });
                }
                self.pop_lits(pushed);
                continue;
            }
            let mut frame = self.enter(succ, parent_tree);
            frame.pushed = pushed;
            stack.push(frame);
        }
        // Unwind any remaining trace entries (possible after truncation;
        // the caller resets the solver stack).
        self.trace.clear();
    }

    /// State entry: counting, hooks, terminal detection, successor
    /// generation. Returns the frame to push.
    fn enter(&mut self, state: SymState, parent_tree: Option<usize>) -> Frame {
        self.stats.states_explored += 1;
        if let Some(max) = self.config.max_states {
            if self.stats.states_explored >= max {
                self.stats.truncated = true;
            }
        }
        if self.config.record_traces {
            self.trace.push(state.node);
        }
        let tree_index = self
            .tree
            .as_mut()
            .map(|tree| tree.record(parent_tree, &state, self.cfg));

        // Fig. 6 line 5: depth-bounded and error states return *before*
        // `UpdateExploredSet` runs — they never notify the strategy.
        match classify_entry(self.cfg, self.config, &state) {
            EntryKind::Error(message) => {
                self.stats.paths_error += 1;
                self.record_path(&state, PathOutcome::Error(message));
                return Frame {
                    node: state.node,
                    successors: Vec::new(),
                    tree_index,
                    notified: false,
                    pushed: 0,
                };
            }
            EntryKind::DepthBounded => {
                self.stats.paths_depth_bounded += 1;
                self.record_path(&state, PathOutcome::DepthBounded);
                return Frame {
                    node: state.node,
                    successors: Vec::new(),
                    tree_index,
                    notified: false,
                    pushed: 0,
                };
            }
            EntryKind::Completed => {
                self.strategy.on_enter(state.node);
                self.stats.paths_completed += 1;
                self.record_path(&state, PathOutcome::Completed);
                return Frame {
                    node: state.node,
                    successors: Vec::new(),
                    tree_index,
                    notified: true,
                    pushed: 0,
                };
            }
            EntryKind::Interior => {}
        }
        self.strategy.on_enter(state.node);

        // Successors are stored reversed so the DFS can take ownership of
        // the next candidate with a pop() instead of a clone.
        let mut successors = self.successors(&state);
        successors.reverse();
        Frame {
            node: state.node,
            successors,
            tree_index,
            notified: true,
            pushed: 0,
        }
    }

    fn record_path(&mut self, state: &SymState, outcome: PathOutcome) {
        self.paths.push(PathSummary {
            pc: state.pc.clone(),
            outcome,
            final_env: state.env.clone(),
            trace: if self.config.record_traces {
                self.trace.clone()
            } else {
                Vec::new()
            },
        });
    }

    /// The feasible-successor candidates of a state, in the order Fig. 6
    /// explores them (true branch before false branch).
    fn successors(&mut self, state: &SymState) -> Vec<Succ> {
        successor_candidates(
            self.cfg,
            state,
            &mut self.stats.infeasible,
            self.summaries,
            &mut self.stats.summary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    fn run_full(src: &str, proc: &str) -> SymbolicSummary {
        let program = parse_program(src).unwrap();
        dise_ir::check_program(&program).unwrap();
        let mut executor = Executor::new(&program, proc, ExecConfig::default()).unwrap();
        executor.explore(&mut FullExploration)
    }

    #[test]
    fn figure1_testx_has_two_paths() {
        let summary = run_full(
            "int y;
             proc testX(int x) {
               if (x > 0) { y = y + x; } else { y = y - x; }
             }",
            "testX",
        );
        assert_eq!(summary.pc_count(), 2);
        let pcs: Vec<String> = summary.path_conditions().map(|pc| pc.to_string()).collect();
        assert_eq!(pcs, vec!["X > 0", "X <= 0"]);
        // Final env on the first path: y = Y + X (Fig. 1).
        let first = &summary.paths()[0];
        assert_eq!(first.final_env.get("y").unwrap().to_string(), "Y + X");
        assert_eq!(
            summary.paths()[1].final_env.get("y").unwrap().to_string(),
            "Y - X"
        );
    }

    #[test]
    fn infeasible_paths_are_dropped() {
        let summary = run_full(
            "proc f(int x) {
               if (x > 5) {
                 if (x < 3) { x = 1; } else { x = 2; }
               }
             }",
            "f",
        );
        // Feasible paths: x>5 (inner else) and x≤5; x>5 ∧ x<3 is pruned.
        assert_eq!(summary.pc_count(), 2);
        assert!(summary.stats().infeasible >= 1);
    }

    #[test]
    fn nested_branching_multiplies_paths() {
        let summary = run_full(
            "proc f(int a, int b, int c) {
               if (a > 0) { skip; }
               if (b > 0) { skip; }
               if (c > 0) { skip; }
             }",
            "f",
        );
        assert_eq!(summary.pc_count(), 8);
    }

    #[test]
    fn concrete_branches_do_not_fork() {
        let summary = run_full(
            "proc f(int x) {
               int t = 3;
               if (t > 0) { x = 1; } else { x = 2; }
             }",
            "f",
        );
        // `t > 0` folds to true: one path, no solver involvement.
        assert_eq!(summary.pc_count(), 1);
        assert_eq!(summary.stats().solver.checks, 0);
    }

    #[test]
    fn assertion_failure_produces_error_path() {
        let summary = run_full(
            "proc f(int x) {
               assert(x > 0);
               x = x + 1;
             }",
            "f",
        );
        assert_eq!(summary.stats().paths_error, 1);
        assert_eq!(summary.stats().paths_completed, 1);
        assert_eq!(summary.pc_count(), 2);
        let error_path = summary
            .paths()
            .iter()
            .find(|p| matches!(p.outcome, PathOutcome::Error(_)))
            .unwrap();
        assert_eq!(error_path.pc.to_string(), "X <= 0");
    }

    #[test]
    fn assume_prunes_half_the_space() {
        let summary = run_full(
            "proc f(int x) {
               assume(x > 0);
               if (x > 10) { skip; }
             }",
            "f",
        );
        assert_eq!(summary.pc_count(), 2);
        for pc in summary.path_conditions() {
            assert!(pc.to_string().starts_with("X > 0"));
        }
    }

    #[test]
    fn loop_requires_depth_bound() {
        let program = parse_program(
            "proc f(int x) {
               while (x > 0) { x = x - 1; }
             }",
        )
        .unwrap();
        let config = ExecConfig {
            depth_bound: Some(12),
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&program, "f", config).unwrap();
        let summary = executor.explore(&mut FullExploration);
        // Some paths complete (x ≤ 0, x = 1, …); at least one hits the bound.
        assert!(summary.stats().paths_completed > 0);
        assert!(summary.stats().paths_depth_bounded > 0);
        // Depth-bounded paths do not contribute path conditions.
        assert_eq!(
            summary.pc_count() as u64,
            summary.stats().paths_completed + summary.stats().paths_error
        );
    }

    #[test]
    fn loop_unrolls_within_bound() {
        let program = parse_program(
            "proc f(int x) {
               int n = 0;
               while (n < x) { n = n + 1; }
             }",
        )
        .unwrap();
        let config = ExecConfig {
            depth_bound: Some(50),
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&program, "f", config).unwrap();
        let summary = executor.explore(&mut FullExploration);
        // Completed paths: x ≤ 0 (no iterations), x = 1, x = 2, …
        assert!(summary.stats().paths_completed >= 5);
        // The zero-iteration path is among them (DFS takes the true branch
        // first, so it is the last completed path, not the first).
        assert!(summary
            .paths()
            .iter()
            .any(|p| p.outcome == PathOutcome::Completed && p.pc.to_string() == "0 >= X"));
    }

    #[test]
    fn initialized_globals_start_concrete() {
        let summary = run_full(
            "int g = 7;
             proc f(int x) {
               if (g > 0) { x = 1; } else { x = 2; }
             }",
            "f",
        );
        // g is concrete ⇒ no branching on it.
        assert_eq!(summary.pc_count(), 1);
        assert_eq!(summary.inputs().len(), 1); // only x
    }

    #[test]
    fn uninitialized_globals_are_symbolic_inputs() {
        let summary = run_full(
            "int g;
             proc f(int x) {
               if (g > x) { skip; }
             }",
            "f",
        );
        assert_eq!(summary.pc_count(), 2);
        let names: Vec<&str> = summary.inputs().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "g"]);
    }

    #[test]
    fn max_states_truncates() {
        let program = parse_program("proc f(int x) { while (x > 0) { x = x - 1; } }").unwrap();
        let config = ExecConfig {
            depth_bound: Some(1000),
            max_states: Some(20),
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&program, "f", config).unwrap();
        let summary = executor.explore(&mut FullExploration);
        assert!(summary.stats().truncated);
        assert!(summary.stats().states_explored <= 21);
    }

    #[test]
    fn missing_procedure_errors() {
        let program = parse_program("proc f() { skip; }").unwrap();
        assert_eq!(
            Executor::new(&program, "g", ExecConfig::default()).unwrap_err(),
            ExecError::MissingProcedure("g".into())
        );
    }

    #[test]
    fn traces_follow_cfg_paths() {
        let summary = run_full(
            "proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }",
            "f",
        );
        for path in summary.paths() {
            let trace = &path.trace;
            assert!(!trace.is_empty());
            // Each consecutive pair is a CFG edge.
            for pair in trace.windows(2) {
                let program =
                    parse_program("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }")
                        .unwrap();
                let cfg = build_cfg(program.proc("f").unwrap());
                assert!(
                    cfg.succs(pair[0]).iter().any(|&(s, _)| s == pair[1]),
                    "{} -> {} is not an edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn pruning_strategy_cuts_exploration() {
        struct PruneEverything;
        impl Strategy for PruneEverything {
            fn should_explore(&mut self, _node: NodeId) -> bool {
                false
            }
        }
        let program =
            parse_program("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }").unwrap();
        let mut executor = Executor::new(&program, "f", ExecConfig::default()).unwrap();
        let summary = executor.explore(&mut PruneEverything);
        // Under the default ChoicePoints scope the straight-line prefix
        // (begin + the branch node) is entered, then both symbolic arms
        // are pruned.
        assert_eq!(summary.stats().states_explored, 2);
        assert_eq!(summary.pc_count(), 0);
        assert_eq!(summary.stats().pruned, 2);

        // The literal AllStates scope filters the very first successor.
        let config = ExecConfig {
            filter_scope: FilterScope::AllStates,
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&program, "f", config).unwrap();
        let summary = executor.explore(&mut PruneEverything);
        assert_eq!(summary.stats().states_explored, 1);
        assert_eq!(summary.pc_count(), 0);
    }

    #[test]
    fn solver_stats_expose_incremental_activity() {
        let program = parse_program(
            "proc f(int x, int y) {
               if (x > 0) { skip; }
               if (y > 0) { skip; }
             }",
        )
        .unwrap();
        dise_ir::check_program(&program).unwrap();
        let mut executor = Executor::new(&program, "f", ExecConfig::default()).unwrap();
        let summary = executor.explore(&mut FullExploration);
        let solver = &summary.stats().solver;
        // Every feasibility check was decided by the incremental tier; none
        // came back Unknown, so no monolithic fallback.
        assert_eq!(solver.checks, solver.incremental_checks);
        assert_eq!(solver.fallback_checks, 0);
        // Extending a SAT prefix with an independent branch literal is the
        // model-reuse case.
        assert!(solver.model_reuse_hits > 0, "{solver:?}");
    }

    #[test]
    fn repeated_exploration_answers_from_the_prefix_trie() {
        let program = parse_program(
            "proc f(int x, int y) {
               if (x > 0) { skip; }
               if (y > x) { skip; }
             }",
        )
        .unwrap();
        let mut executor = Executor::new(&program, "f", ExecConfig::default()).unwrap();
        let first = executor.explore(&mut FullExploration);
        let second = executor.explore(&mut FullExploration);
        assert_eq!(second.pc_count(), first.pc_count());
        let solver = &second.stats().solver;
        // The solver (and its prefix trie) persists across runs: every
        // re-checked prefix is answered from the trie, with no pipeline
        // activity at all.
        assert_eq!(solver.checks, first.stats().solver.checks);
        assert!(solver.prefix_cache_hits > 0, "{solver:?}");
        assert_eq!(solver.model_searches, 0, "{solver:?}");
        assert_eq!(solver.fm_runs, 0, "{solver:?}");
    }

    #[test]
    fn strategy_hooks_fire_in_dfs_order() {
        #[derive(Default)]
        struct Recorder {
            entered: Vec<NodeId>,
        }
        impl Strategy for Recorder {
            fn on_enter(&mut self, node: NodeId) {
                self.entered.push(node);
            }
        }
        let program =
            parse_program("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }").unwrap();
        let mut executor = Executor::new(&program, "f", ExecConfig::default()).unwrap();
        let cfg_len = executor.cfg().len();
        let mut recorder = Recorder::default();
        let summary = executor.explore(&mut recorder);
        assert_eq!(
            recorder.entered.len() as u64,
            summary.stats().states_explored
        );
        // Every CFG node is visited at least once in this tiny program;
        // the join (end) twice.
        assert!(recorder.entered.len() > cfg_len - 2);
    }
}
