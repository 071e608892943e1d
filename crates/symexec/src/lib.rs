//! # dise-symexec — the symbolic execution engine
//!
//! A from-scratch equivalent of the Symbolic PathFinder substrate the paper
//! builds on (§4.1), operating on MJ CFGs:
//!
//! * **stateless search** — no state matching, exactly like SPF;
//! * **depth bound** — loops and recursion are bounded by a user-specified
//!   depth (the artifacts in the paper's study are loop-free, so their runs
//!   use no bound);
//! * **solver policy** — when the solver cannot decide a path condition,
//!   the path is treated as infeasible by default (SPF's timeout rule),
//!   configurable via [`ExecConfig::unknown_is_sat`];
//! * **pluggable strategy** — the engine exposes the two hooks the DiSE
//!   algorithm of Fig. 6 needs: a state-entry callback
//!   ([`Strategy::on_enter`] ⇒ `UpdateExploredSet`) and a successor filter
//!   ([`Strategy::should_explore`] ⇒ `AffectedLocIsReachable`). Full
//!   symbolic execution is the trivial strategy that always explores.
//!
//! The engine mimics the recursive structure of Fig. 6 with explicit
//! frames, so hook side effects observe exactly the same order as the
//! paper's pseudocode (a successor's filter runs only after the previous
//! successor's entire subtree finished).
//!
//! Every exploration, directed or full, runs on this one serial engine:
//! the directed strategy's decisions depend on exploration order, and one
//! depth-first walk keeps a single incremental solver stack in step with
//! the path.
//!
//! Two companion engines share the CFG and the evaluation semantics:
//!
//! * [`concrete`] — runs a procedure on actual values (test replay,
//!   differential testing, coverage spectra), with arithmetic matching
//!   the solver's model evaluation exactly;
//! * [`concolic`] — single-path symbolic execution steered by a concrete
//!   input, regenerating the full engine's path condition for the path
//!   that input drives.
//!
//! # Examples
//!
//! ```
//! use dise_ir::parse_program;
//! use dise_symexec::{ExecConfig, Executor, FullExploration};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "int y;
//!      proc testX(int x) {
//!        if (x > 0) { y = y + x; } else { y = y - x; }
//!      }",
//! )?;
//! let mut executor = Executor::new(&program, "testX", ExecConfig::default())?;
//! let summary = executor.explore(&mut FullExploration);
//! assert_eq!(summary.path_conditions().count(), 2);
//! # Ok(())
//! # }
//! ```

pub mod concolic;
pub mod concrete;
pub mod env;
pub mod eval;
pub mod executor;
pub mod state;
pub mod summary;
pub mod tree;

pub use concolic::{ConcolicExecutor, ConcolicRun};
pub use concrete::{ConcreteConfig, ConcreteExecutor, ConcreteOutcome, ConcreteRun, ValueEnv};
pub use env::Env;
pub use executor::{
    ExecConfig, ExecError, ExecStats, Executor, FilterScope, FullExploration, HeuristicChoice,
    PathOutcome, PathSummary, Strategy, SweepBudget, SymbolicSummary, WarmHandoff,
};
pub use state::SymState;
pub use summary::{
    build_summary, ProcSummary, SummaryBuildError, SummaryMode, SummaryStats, SummaryTable,
};
pub use tree::ExecTree;
