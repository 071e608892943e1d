//! # dise-solver — symbolic expressions and incremental constraint solving
//!
//! The paper's prototype delegates path-condition satisfiability to the
//! Choco solver. This crate is the equivalent substrate, built from
//! scratch around **one decision procedure**, the incremental solver
//! ([`incremental::IncrementalSolver`]). It mirrors the symbolic
//! executor's DFS with `push`/`pop`/`check` and retains per-frame derived
//! state (flattened atoms, interval fixed points, boolean assignments, the
//! last verified model), so each check processes only the newly pushed
//! branch literal. Verdicts are memoized in a prefix trie keyed by
//! hash-consed [`intern::TermId`]s, so repeated prefixes are answered
//! without solving and an UNSAT prefix kills all of its extensions. The
//! one-shot [`solve::Solver`] (witness replay, test generation,
//! simplification) pushes a whole constraint vector onto a fresh
//! incremental solver and checks once.
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
//! * [`solve`] — the shared decision core (normalization, per-case
//!   decision, case-split alternatives), verdicts, statistics, and the
//!   one-shot [`Solver`] facade;
//! * [`incremental`] — the [`IncrementalSolver`] described above;
//! * [`snapshot`] — portable images of the incremental solver's prefix
//!   trie (store warm starts and in-process handoffs) and their
//!   determinism contract;
//! * [`simplify`] — path-condition subsumption for display.
//!
//! Decision-procedure soundness contract:
//!
//! * [`SatResult::Unsat`] is only returned when the constraint system
//!   provably has no integer/boolean solution;
//! * [`SatResult::Sat`] is only returned together with a verified model
//!   (the incremental solver exposes it via
//!   [`incremental::IncrementalSolver::model`]);
//! * everything else is [`SatResult::Unknown`], which the symbolic executor
//!   maps according to its configured policy (the SPF-compatible
//!   "unknown ⇒ unsat" by default, §4.1 of the paper).
//!
//! # Examples
//!
//! One-shot check:
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
