//! # dise-core — Directed Incremental Symbolic Execution
//!
//! The paper's primary contribution, end to end:
//!
//! * [`affected`] — the affected-location analysis: the `ACN`/`AWN`
//!   fixpoint over the rules Eq. (1)–(3) of Fig. 3 and the
//!   reaching-definition rule Eq. (4) of Fig. 4, with an optional
//!   trace capture reproducing Fig. 5(b);
//! * [`removed`] — the `removeNodes` algorithm of Fig. 5(a): the effects
//!   of statements deleted from the base version, mapped into the modified
//!   version through the `diffMap`;
//! * [`directed`] — the directed symbolic execution strategy of Fig. 6
//!   (explored/unexplored sets, `AffectedLocIsReachable`, `CheckLoops`),
//!   plugged into the [`dise_symexec`] engine, with an optional trace
//!   capture reproducing Table 1;
//! * [`session`] — the staged pipeline: an [`AnalysisSession`] computes
//!   explicit `Flattened → Diffed → Affected → Explored` artifacts
//!   lazily, caches them, and shares them across any number of
//!   consumers, applications, and version hops;
//! * [`dise`] — the driver: diff two program versions, compute affected
//!   locations, run directed symbolic execution, and report the affected
//!   path conditions plus all the §4.2.2 metrics (a thin wrapper over
//!   one session);
//! * `summaries` (internal) — the procedure-summary policy: full
//!   explorations of call-bearing programs route calls through interned
//!   callee summaries instead of inlining when the `--summaries` gates
//!   guarantee byte-identical verdicts, reusing summaries across version
//!   hops and store round-trips;
//! * [`theorem`] — an executable check of Theorem 3.10 used by the test
//!   suites;
//! * [`metrics`] — registry builders projecting every stats struct onto
//!   the typed `dise-trace` metrics registry (one source of truth for
//!   the CLI lines, `--stats json`, and the exporters);
//! * [`report`] — plain-text table rendering shared with the benchmark
//!   harness, plus the registry-derived one-line stats renderers.
//!
//! # Examples
//!
//! ```
//! use dise_core::dise::{run_dise, run_full_on, DiseConfig};
//! use dise_ir::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = parse_program(
//!     "int g; proc f(int x) { if (x == 0) { g = 1; } if (g > 5) { g = 2; } }",
//! )?;
//! let modified = parse_program(
//!     "int g; proc f(int x) { if (x <= 0) { g = 1; } if (g > 5) { g = 2; } }",
//! )?;
//! let result = run_dise(&base, &modified, "f", &DiseConfig::default())?;
//! let full = run_full_on(&modified, "f", &DiseConfig::default())?;
//! assert!(result.summary.pc_count() <= full.pc_count());
//! # Ok(())
//! # }
//! ```

pub mod affected;
pub mod directed;
pub mod dise;
pub mod interproc;
pub mod metrics;
pub mod removed;
pub mod report;
pub mod session;
mod summaries;
pub mod theorem;

pub use affected::{AffectedSets, DataflowPrecision, Rule};
pub use directed::DirectedStrategy;
pub use dise::{run_dise, run_full_on, DiseConfig, DiseError, DiseResult};
pub use interproc::{
    run_dise_system, system_impact, CallGraph, ImpactReason, SystemConfig, SystemDiseResult,
    SystemImpact,
};
pub use session::{AnalysisSession, StageTimings};
pub use theorem::check_theorem_3_10;
