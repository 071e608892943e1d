//! # dise-cfg — control-flow graphs and static analyses
//!
//! Builds the per-procedure control-flow graph (CFG) of Definition 3.1 from
//! MJ procedures and provides every static analysis the DiSE algorithms
//! consume:
//!
//! * [`graph`] — a small directed-graph arena with labelled edges;
//! * [`build`] — CFG construction (with `assert` desugared to a branch plus
//!   an error node, mirroring the paper's §5.1 discussion of Java bytecode);
//! * [`dominator`] — dominators and post-dominators (iterative
//!   Cooper–Harvey–Kennedy on reverse post-order);
//! * [`control_dep`] — the control-dependence relation of Definition 3.9;
//! * [`defuse`] — the `Def`/`Use` maps of Definitions 3.6–3.7;
//! * [`reach`] — the reflexive-transitive `IsCFGPath` relation of
//!   Definition 3.2 (bitset transitive closure);
//! * [`scc`] — Tarjan's strongly-connected components and the loop-entry
//!   predicate used by the `CheckLoops` procedure (Fig. 6);
//! * [`dataflow`] — a generic bitvector dataflow framework plus reaching
//!   definitions (used by the precision ablation of the affected-set rules);
//! * [`dot`] — Graphviz export used to regenerate Fig. 2(b).
//!
//! # Examples
//!
//! ```
//! use dise_cfg::build_cfg;
//! use dise_ir::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "proc f(int x) { if (x > 0) { x = x - 1; } else { x = x + 1; } }",
//! )?;
//! let cfg = build_cfg(&program.procs[0]);
//! assert_eq!(cfg.cond_nodes().count(), 1);
//! assert_eq!(cfg.write_nodes().count(), 2);
//! # Ok(())
//! # }
//! ```

pub mod build;
pub mod control_dep;
pub mod dataflow;
pub mod defuse;
pub mod dominator;
pub mod dot;
pub mod graph;
pub mod reach;
pub mod scc;

pub use build::{build_cfg, build_cfg_with_calls, Cfg, CfgNode, NodeKind, OriginRole};
pub use control_dep::ControlDeps;
pub use defuse::DefUse;
pub use dominator::PostDomTree;
pub use graph::{EdgeLabel, NodeId};
pub use reach::Reachability;
pub use scc::Sccs;
