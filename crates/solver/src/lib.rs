//! # dise-solver — symbolic expressions and two-tier constraint solving
//!
//! The paper's prototype delegates path-condition satisfiability to the
//! Choco solver. This crate is the equivalent substrate, built from
//! scratch, organized as a **two-tier decision architecture**:
//!
//! * the **incremental tier** ([`incremental::IncrementalSolver`]) mirrors
//!   the symbolic executor's DFS with `push`/`pop`/`check`. It retains
//!   per-frame derived state (flattened atoms, interval fixed points,
//!   boolean assignments, the last verified model) so each check processes
//!   only the newly pushed branch literal; verdicts are memoized in a
//!   prefix trie keyed by hash-consed [`intern::TermId`]s, so repeated
//!   prefixes are answered without solving and an UNSAT prefix kills all
//!   of its extensions;
//! * the **monolithic tier** ([`solve::Solver`]) runs the full pipeline
//!   over an arbitrary constraint vector, with a bounded (LRU-evicting)
//!   result cache keyed by interned term ids. The incremental tier decides
//!   every literal itself (disjunctions and disequalities are evaluated by
//!   its model search) and consults this tier only when its own decision
//!   comes back `Unknown`; the non-executor clients (witness replay, test
//!   generation, simplification) use it directly.
//!
//! Module map:
//!
//! * [`sym`] — symbolic expressions ([`SymExpr`]) over typed symbolic
//!   variables, with eagerly-folding smart constructors;
//! * [`intern`] — hash-consing of [`SymExpr`] trees into [`intern::TermId`]s
//!   with O(1) equality/hash (cache keys, prefix-trie edges);
//! * [`constraint`] — path conditions (conjunctions of boolean symbolic
//!   expressions) as accumulated during symbolic execution;
//! * [`linear`] — extraction of linear atoms `Σ cᵢ·xᵢ + k ⋈ 0`;
//! * [`interval`] — interval constraint propagation (fast bounds and quick
//!   unsatisfiability);
//! * [`fm`] — Fourier–Motzkin elimination (sound UNSAT answers over the
//!   integers; rational-SAT answers are confirmed by model search);
//! * [`model`] — integer/boolean model construction by bounded backtracking
//!   search over propagated intervals;
//! * [`solve`] — the monolithic [`Solver`] facade: normalization, case
//!   splitting, bounded caching, statistics, and the SPF-compatible
//!   "unknown ⇒ unsat" policy (§4.1 of the paper; configurable);
//! * [`incremental`] — the [`IncrementalSolver`] described above;
//! * [`snapshot`] — portable images of the incremental solver's prefix
//!   trie (store warm starts and in-process handoffs) and their
//!   determinism contract;
//! * [`simplify`] — path-condition subsumption for display.
//!
//! Decision-procedure soundness contract (both tiers):
//!
//! * [`SatResult::Unsat`] is only returned when the constraint system
//!   provably has no integer/boolean solution;
//! * [`SatResult::Sat`] is only returned together with a verified model
//!   (the incremental tier exposes it via
//!   [`incremental::IncrementalSolver::model`]);
//! * everything else is [`SatResult::Unknown`], which the symbolic executor
//!   maps according to its configured policy.
//!
//! # Examples
//!
//! Monolithic one-shot check:
//!
//! ```
//! use dise_solver::{Solver, SymExpr, SymTy, VarPool};
//!
//! let mut pool = VarPool::new();
//! let x = pool.fresh("X", SymTy::Int);
//! let constraint = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
//! let mut solver = Solver::new();
//! let outcome = solver.check(std::slice::from_ref(&constraint));
//! assert!(outcome.is_sat());
//! let model = outcome.model().unwrap();
//! assert!(model.int_value(&x).unwrap() > 0);
//! ```
//!
//! Incremental push/pop along a DFS path:
//!
//! ```
//! use dise_solver::{IncrementalSolver, SatResult, SymExpr, SymTy, VarPool};
//!
//! let mut pool = VarPool::new();
//! let x = pool.fresh("X", SymTy::Int);
//! let mut solver = IncrementalSolver::new();
//! solver.push(SymExpr::gt(SymExpr::var(&x), SymExpr::int(0)));
//! assert_eq!(solver.check(), SatResult::Sat);
//! solver.push(SymExpr::lt(SymExpr::var(&x), SymExpr::int(0)));
//! assert_eq!(solver.check(), SatResult::Unsat);
//! solver.pop(); // back to the SAT prefix
//! assert_eq!(solver.check(), SatResult::Sat);
//! ```

pub mod constraint;
pub mod fm;
pub mod incremental;
pub mod intern;
pub mod interval;
pub mod linear;
pub mod model;
pub mod simplify;
pub mod snapshot;
pub mod solve;
pub mod subst;
pub mod sym;

pub use constraint::PathCondition;
pub use incremental::IncrementalSolver;
pub use intern::{Interner, TermId};
pub use interval::Interval;
pub use model::Model;
pub use simplify::simplify_pc;
pub use snapshot::{Bounds, SummaryPathSnapshot, SummarySnapshot, TrieEntry, TrieSnapshot};
pub use solve::{CheckOutcome, SatResult, Solver, SolverConfig, SolverStats};
pub use subst::substitute;
pub use sym::{SymExpr, SymTy, SymVar, VarPool};
