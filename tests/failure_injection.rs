//! Failure injection: starve the constraint solver and check that every
//! layer degrades the way §4.1 of the paper prescribes.
//!
//! "If the solver is unable to determine the satisfiability of the path
//! condition within a certain time bound, SPF treats the path condition as
//! unsatisfiable … this limitation of constraint solvers could affect
//! DiSE, causing it to miss generating affected path conditions." The
//! reproduction makes the budget explicit (`SolverConfig::case_budget`)
//! and the policy switchable (`ExecConfig::unknown_is_sat`), so the
//! degradation is testable instead of anecdotal.

use dise::core::dise::{run_dise, run_full_on, DiseConfig};
use dise::evolution::diffsum::{classify_changes, DiffSumConfig, PathClass};
use dise::ir::parse_program;

use dise::solver::sym::BinOp;
use dise::solver::{SatResult, Solver, SolverConfig, SymExpr, SymTy, VarPool};
use dise::symexec::ExecConfig;

/// A solver budget so small every nontrivial query comes back `Unknown`.
fn starved() -> SolverConfig {
    SolverConfig {
        case_budget: 0,
        ..SolverConfig::default()
    }
}

const BASE: &str = "int out;
     proc f(int x) { if (x > 0) { out = 1; } else { out = 2; } }";
const MODIFIED: &str = "int out;
     proc f(int x) { if (x >= 0) { out = 1; } else { out = 2; } }";

#[test]
fn starved_solver_answers_unknown() {
    let mut solver = Solver::with_config(starved());
    let mut pool = VarPool::new();
    let x = pool.fresh("X", SymTy::Int);
    let constraint = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
    let outcome = solver.check(std::slice::from_ref(&constraint));
    assert_eq!(outcome.result(), SatResult::Unknown);
    assert!(outcome.model().is_none());
}

#[test]
fn unknown_as_unsat_prunes_every_symbolic_branch() {
    // SPF's rule: timeout ⇒ infeasible. With a starved solver and the
    // default policy, both arms of the symbolic branch are discarded and
    // no path condition survives.
    let program = parse_program(MODIFIED).unwrap();
    let config = DiseConfig {
        exec: ExecConfig {
            solver: starved(),
            ..ExecConfig::default()
        },
        ..DiseConfig::default()
    };
    let summary = run_full_on(&program, "f", &config).unwrap();
    assert_eq!(summary.pc_count(), 0);
    assert!(summary.stats().infeasible > 0, "branches were discarded");
    assert!(summary.stats().solver.unknown > 0, "the solver gave up");
}

#[test]
fn unknown_as_sat_keeps_exploring() {
    // The conservative policy: treat Unknown as feasible. All paths are
    // explored even though the solver can no longer decide anything.
    let program = parse_program(MODIFIED).unwrap();
    let starved_config = DiseConfig {
        exec: ExecConfig {
            solver: starved(),
            unknown_is_sat: true,
            ..ExecConfig::default()
        },
        ..DiseConfig::default()
    };
    let healthy = run_full_on(&program, "f", &DiseConfig::default()).unwrap();
    let degraded = run_full_on(&program, "f", &starved_config).unwrap();
    assert_eq!(degraded.pc_count(), healthy.pc_count());
}

#[test]
fn starved_dise_misses_affected_paths_exactly_as_documented() {
    let base = parse_program(BASE).unwrap();
    let modified = parse_program(MODIFIED).unwrap();
    let config = DiseConfig {
        exec: ExecConfig {
            solver: starved(),
            ..ExecConfig::default()
        },
        ..DiseConfig::default()
    };
    let result = run_dise(&base, &modified, "f", &config).unwrap();
    // The static phase is unaffected (it never calls the solver)…
    assert!(result.affected_nodes > 0);
    // …but the directed phase generates nothing: the paper's documented
    // failure mode ("causing it to miss generating affected path
    // conditions").
    assert_eq!(result.summary.pc_count(), 0);
}

#[test]
fn starved_equivalence_checks_degrade_to_undecided_not_preserving() {
    // The DiSE run uses a healthy solver; only the equivalence checker is
    // starved. Comparisons that need the solver must come back Undecided —
    // claiming EffectPreserving without a proof would be unsound — while
    // comparisons decided syntactically (identical effects fold to
    // `false`) remain sound verdicts even without a solver.
    let base = parse_program(
        "int out;
         proc f(int x) {
           if (x > 0) { out = x; } else { out = 0 - x; }
           if (out > 5) { out = 5; } else { skip; }
         }",
    )
    .unwrap();
    let modified = parse_program(
        "int out;
         proc f(int x) {
           if (x > 0) { out = x + 1; } else { out = 0 - x; }
           if (out > 5) { out = 5; } else { skip; }
         }",
    )
    .unwrap();
    let config = DiffSumConfig {
        solver: starved(),
        ..DiffSumConfig::default()
    };
    let summary = classify_changes(&base, &modified, "f", &config).unwrap();
    assert!(!summary.paths.is_empty());
    // The uncapped then-path compares `X` against `X + 1`: solver needed,
    // budget gone → Undecided.
    assert!(summary.undecided_count() >= 1);
    // No divergence can be claimed without a proof or a fold.
    assert_eq!(summary.diverging_count(), 0);
    // Any preserving verdicts under starvation come only from syntactic
    // identity (the else-arm and the clamped paths), which needs no
    // solver and stays sound.
    for path in &summary.paths {
        match &path.class {
            PathClass::Undecided { var } => assert_eq!(var, "out"),
            PathClass::EffectPreserving => {}
            other => panic!("starved run claimed {other:?}"),
        }
    }
}

#[test]
fn tiny_but_nonzero_budget_still_decides_trivial_queries() {
    // A budget of one case decides single-atom queries but gives up on a
    // two-way split — the degradation is gradual, not all-or-nothing.
    let tiny = |case_budget| {
        Solver::with_config(SolverConfig {
            case_budget,
            ..SolverConfig::default()
        })
    };
    let mut pool = VarPool::new();
    let x = pool.fresh("X", SymTy::Int);
    let atom = SymExpr::gt(SymExpr::var(&x), SymExpr::int(0));
    assert_eq!(
        tiny(1).check(std::slice::from_ref(&atom)).result(),
        SatResult::Sat
    );
    // `x >= 0 && x <= 0 && x != 0`: the search and Fourier–Motzkin leave
    // it undecided, and only splitting `x != 0` into `x < 0` and `x > 0`
    // refutes it — two leaves, over a budget of one.
    let pinned_disequality = [
        SymExpr::ge(SymExpr::var(&x), SymExpr::int(0)),
        SymExpr::le(SymExpr::var(&x), SymExpr::int(0)),
        SymExpr::binary(BinOp::Ne, SymExpr::var(&x), SymExpr::int(0)),
    ];
    assert_eq!(
        tiny(1).check(&pinned_disequality).result(),
        SatResult::Unknown
    );
    assert_eq!(
        tiny(2).check(&pinned_disequality).result(),
        SatResult::Unsat
    );
}
