//! The narrowed checks over deep stacks.
//!
//! Model reuse and post-search verification evaluate only the literals
//! that can fail: the top literal and the earlier literals that read a
//! variable whose value differs from the parent frame's verified model.
//! A narrowed check evaluates a subset of the stack, so it can only
//! differ from a whole-stack check by accepting a model that fails some
//! stacked literal. These tests drive push/pop/check sequences past depth
//! 200 and assert, after every check:
//!
//! * a `Sat` model satisfies every stacked literal — the whole-stack
//!   check, so every decision the solver made is the one a whole-stack
//!   solver would have made;
//! * the verdict and model equal those of a reference solver that pushes
//!   the same literals with a check after each push, as the executor's
//!   DFS does (the determinism contract of `dise_solver::snapshot`);
//! * at the end, both solvers export the same prefix trie.
//!
//! In debug builds the solver's own `debug_assert_eq!` oracles also
//! compare every narrowed answer with the whole-stack evaluation.
//!
//! The literals cover the cases where narrowing can go wrong: a boolean
//! pinned by a later frame that an early disjunction reads, searches that
//! move variables early literals read (one of them into a model only the
//! original literal, not the search's atoms, rejects), fresh variables
//! introduced deep in the stack, and disequalities that force the case
//! split.

use dise_solver::model::{SearchConfig, Value};
use dise_solver::sym::BinOp;
use dise_solver::{
    IncrementalSolver, Model, SatResult, SolverConfig, SymExpr, SymTy, SymVar, VarPool,
};

/// Deterministic splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn constant(&mut self) -> i64 {
        self.below(41) as i64 - 20
    }
}

struct Vars {
    ints: Vec<SymVar>,
    bools: Vec<SymVar>,
}

fn vars() -> Vars {
    let mut pool = VarPool::new();
    Vars {
        ints: (0..8)
            .map(|i| pool.fresh(format!("X{i}"), SymTy::Int))
            .collect(),
        bools: (0..4)
            .map(|i| pool.fresh(format!("B{i}"), SymTy::Bool))
            .collect(),
    }
}

fn ne(lhs: SymExpr, rhs: SymExpr) -> SymExpr {
    SymExpr::Binary {
        op: BinOp::Ne,
        lhs: lhs.into(),
        rhs: rhs.into(),
    }
}

/// A random literal over the first `window` integer variables (the
/// window grows with depth, so fresh variables keep appearing deep in
/// the stack).
fn literal(g: &mut Gen, v: &Vars, window: usize) -> SymExpr {
    let int = |g: &mut Gen| SymExpr::var(&v.ints[g.below(window as u64) as usize]);
    let boolean = |g: &mut Gen| SymExpr::var(&v.bools[g.below(v.bools.len() as u64) as usize]);
    let cmp = |g: &mut Gen| {
        let lhs = match g.below(3) {
            0 => int(g),
            1 => SymExpr::add(int(g), SymExpr::int(g.constant())),
            _ => SymExpr::add(int(g), int(g)),
        };
        let rhs = SymExpr::int(g.constant());
        match g.below(5) {
            0 => SymExpr::lt(lhs, rhs),
            1 => SymExpr::le(lhs, rhs),
            2 => SymExpr::gt(lhs, rhs),
            3 => SymExpr::ge(lhs, rhs),
            _ => SymExpr::eq(lhs, rhs),
        }
    };
    match g.below(12) {
        // A boolean literal: pins a boolean an earlier disjunction may read.
        0 => boolean(g),
        1 => SymExpr::not(boolean(g)),
        // A disjunction reading a boolean.
        2 => SymExpr::or(boolean(g), cmp(g)),
        3 => SymExpr::or(SymExpr::not(boolean(g)), cmp(g)),
        // Residuals the search evaluates and the split divides.
        4 => SymExpr::or(cmp(g), cmp(g)),
        5 | 6 => ne(int(g), SymExpr::int(g.constant())),
        _ => cmp(g),
    }
}

/// A literal `target` satisfies: most pushes keep the stack satisfiable,
/// so the path can grow past depth 200.
fn satisfied_literal(g: &mut Gen, v: &Vars, window: usize, target: &Model) -> SymExpr {
    loop {
        let lit = literal(g, v, window);
        if lit.as_bool().is_some() {
            continue;
        }
        if target.satisfies(&lit) {
            return lit;
        }
        let negated = SymExpr::not(lit);
        if target.satisfies(&negated) {
            return negated;
        }
    }
}

fn target(g: &mut Gen, v: &Vars) -> Model {
    let mut model = Model::new();
    for x in &v.ints {
        model.set(x.id(), Value::Int(g.constant()));
    }
    for b in &v.bools {
        model.set(b.id(), Value::Bool(g.below(2) == 0));
    }
    model
}

/// The solver under test plus the replay reference and the path both
/// hold.
struct Run {
    solver: IncrementalSolver,
    reference: IncrementalSolver,
    path: Vec<SymExpr>,
    checks: usize,
}

impl Run {
    fn new(config: SolverConfig) -> Run {
        Run {
            solver: IncrementalSolver::with_config(config),
            reference: IncrementalSolver::with_config(config),
            path: Vec::new(),
            checks: 0,
        }
    }

    /// Pushes `lit`, checks, and compares the answer against the whole
    /// stack and the replay reference. Returns the verdict.
    fn push_check(&mut self, lit: SymExpr) -> SatResult {
        self.path.push(lit.clone());
        self.solver.push(lit);
        let verdict = self.solver.check();
        self.checks += 1;
        let model = self.solver.model();
        if verdict == SatResult::Sat {
            let model = model.expect("SAT carries a model");
            for (i, lit) in self.path.iter().enumerate() {
                assert!(
                    model.satisfies(lit),
                    "depth {}: the model fails stacked literal {i} `{lit}`",
                    self.path.len()
                );
            }
        }
        // The reference replays the whole path, checking after every
        // push; prefixes it decided before answer from its trie.
        self.reference.reset();
        for lit in &self.path {
            self.reference.push(lit.clone());
            self.reference.check();
        }
        assert_eq!(
            self.reference.check(),
            verdict,
            "depth {}: verdict differs from the replay",
            self.path.len()
        );
        assert_eq!(
            self.reference.model(),
            model,
            "depth {}: model differs from the replay",
            self.path.len()
        );
        verdict
    }

    fn pop(&mut self) {
        self.path.pop();
        self.solver.pop();
    }
}

/// A DFS-shaped random walk: descend with mostly satisfiable literals,
/// try an infeasible-looking branch now and then, and backtrack a few
/// frames (sibling branches, re-pushed prefixes) — or, once past depth
/// 220, anywhere down the stack.
fn random_walk(seed: u64) {
    let v = vars();
    let mut g = Gen(seed);
    let target = target(&mut g, &v);
    // A small search budget keeps undecided checks cheap at depth 200
    // (an exhausted search re-specializes the whole stack per node); the
    // narrowed checks do not depend on it.
    let mut run = Run::new(SolverConfig {
        case_budget: 16,
        search: SearchConfig {
            node_budget: 200,
            ..SearchConfig::default()
        },
        ..SolverConfig::default()
    });
    let mut deepest = 0;
    let mut popped: Vec<SymExpr> = Vec::new();
    while run.checks < 900 {
        let depth = run.path.len();
        let window = (2 + depth / 30).min(v.ints.len());
        let roll = g.below(100);
        if depth > 0 && roll < 12 {
            let back = match depth >= 220 {
                true => 1 + g.below(depth as u64) as usize,
                false => 1 + g.below(3.min(depth as u64)) as usize,
            };
            popped.clear();
            for _ in 0..back {
                popped.push(run.path.last().cloned().expect("non-empty"));
                run.pop();
            }
        } else if roll < 20 && !popped.is_empty() {
            // Re-push a popped literal or its negation: trie hits and
            // divergent siblings.
            let lit = popped.pop().expect("non-empty");
            let lit = if g.below(2) == 0 {
                SymExpr::not(lit)
            } else {
                lit
            };
            if run.push_check(lit) != SatResult::Sat {
                run.pop();
            }
        } else if roll < 26 {
            // A literal the target may violate: often UNSAT, then popped.
            let lit = literal(&mut g, &v, window);
            if lit.as_bool().is_some() {
                continue;
            }
            if run.push_check(lit) != SatResult::Sat {
                run.pop();
            }
        } else {
            let lit = satisfied_literal(&mut g, &v, window, &target);
            if run.push_check(lit) != SatResult::Sat {
                run.pop();
            }
        }
        deepest = deepest.max(run.path.len());
    }
    assert!(
        deepest >= 200,
        "seed {seed}: the walk only reached depth {deepest}"
    );
    let stats = run.solver.stats();
    assert!(stats.model_reuse_hits > 0, "{stats:?}");
    assert!(stats.model_searches > 0, "{stats:?}");
    run.solver.reset();
    run.reference.reset();
    assert_eq!(
        run.solver.export_trie(),
        run.reference.export_trie(),
        "seed {seed}: the tries differ"
    );
}

#[test]
fn random_deep_walks_match_the_whole_stack_and_the_replay() {
    for seed in 1..=3 {
        random_walk(seed);
    }
}

/// `depth` satisfiable literals over `X0..X3`, none reading `X4`, `X5`
/// or any boolean.
fn deep_prefix(run: &mut Run, v: &Vars, depth: usize) {
    for i in 0..depth {
        let x = SymExpr::var(&v.ints[i % 4]);
        let lit = match i % 3 {
            0 => SymExpr::ge(x, SymExpr::int(-1000 - i as i64)),
            1 => SymExpr::le(x, SymExpr::int(1000 + i as i64)),
            _ => ne(x, SymExpr::int(5000 + i as i64)),
        };
        assert_eq!(run.push_check(lit), SatResult::Sat);
    }
}

#[test]
fn a_boolean_pinned_late_rechecks_the_early_disjunction_that_reads_it() {
    let v = vars();
    let (b, x) = (&v.bools[0], &v.ints[4]);
    let mut run = Run::new(SolverConfig::default());
    // `!B0 || X4 > 5`: satisfied with B0 = false, X4 = 0.
    let early = SymExpr::or(
        SymExpr::not(SymExpr::var(b)),
        SymExpr::gt(SymExpr::var(x), SymExpr::int(5)),
    );
    assert_eq!(run.push_check(early), SatResult::Sat);
    assert_eq!(run.solver.model().unwrap().bool_value(b), Some(false));
    deep_prefix(&mut run, &v, 210);
    // Pinning B0 = true deep in the stack falsifies the early literal
    // under the reused model: reuse must see it and search instead.
    let before = run.solver.stats();
    assert_eq!(run.push_check(SymExpr::var(b)), SatResult::Sat);
    let after = run.solver.stats();
    assert_eq!(after.model_reuse_hits, before.model_reuse_hits);
    assert!(after.model_searches > before.model_searches);
    let model = run.solver.model().unwrap();
    assert_eq!(model.bool_value(b), Some(true));
    assert!(model.int_value(x).unwrap() > 5);
}

#[test]
fn a_search_that_moves_an_early_variable_rechecks_its_readers() {
    let v = vars();
    let (x, y) = (&v.ints[4], &v.ints[5]);
    let mut run = Run::new(SolverConfig::default());
    // Early literals that read X4 and X5, satisfied at X4 = X5 = 0.
    let early = [
        SymExpr::le(
            SymExpr::add(SymExpr::var(x), SymExpr::var(y)),
            SymExpr::int(10),
        ),
        ne(SymExpr::var(x), SymExpr::int(8)),
        SymExpr::or(
            SymExpr::lt(SymExpr::var(y), SymExpr::int(-3)),
            SymExpr::gt(SymExpr::var(x), SymExpr::int(-1)),
        ),
    ];
    for lit in early {
        assert_eq!(run.push_check(lit), SatResult::Sat);
    }
    deep_prefix(&mut run, &v, 210);
    // Forcing X4 up moves it in the search; the verified model must
    // still satisfy every early literal that reads it.
    let before = run.solver.stats();
    assert_eq!(
        run.push_check(SymExpr::ge(SymExpr::var(x), SymExpr::int(7))),
        SatResult::Sat
    );
    assert_eq!(run.solver.stats().model_searches, before.model_searches + 1);
    let model = run.solver.model().unwrap();
    let (xv, yv) = (model.int_value(x).unwrap(), model.int_value(y).unwrap());
    assert!(xv >= 7 && xv != 8 && xv + yv <= 10, "X4 = {xv}, X5 = {yv}");
}

#[test]
fn deep_case_splits_agree_with_the_whole_stack() {
    let v = vars();
    let (x, y) = (&v.ints[4], &v.ints[5]);
    let mut run = Run::new(SolverConfig::default());
    deep_prefix(&mut run, &v, 210);
    // Propagation pins X4 = 0, the search refutes it, Fourier–Motzkin
    // finds no conflict: only the split of `X4 != 0` proves UNSAT.
    for lit in [
        SymExpr::ge(SymExpr::var(x), SymExpr::int(0)),
        SymExpr::le(SymExpr::var(x), SymExpr::int(0)),
    ] {
        assert_eq!(run.push_check(lit), SatResult::Sat);
    }
    let before = run.solver.stats();
    assert_eq!(
        run.push_check(ne(SymExpr::var(x), SymExpr::int(0))),
        SatResult::Unsat
    );
    assert_eq!(
        run.solver.stats().incremental_checks,
        before.incremental_checks + 1
    );
    // The split's UNSAT kills an extension without another pipeline run.
    assert_eq!(
        run.push_check(SymExpr::gt(SymExpr::var(y), SymExpr::int(0))),
        SatResult::Unsat
    );
    run.pop();
    run.pop();
    // Back above the conflict, the residuals are decided by the search
    // again and the model satisfies the whole deep stack.
    for lit in [
        SymExpr::or(
            SymExpr::lt(SymExpr::var(y), SymExpr::int(-5)),
            SymExpr::gt(SymExpr::var(y), SymExpr::int(5)),
        ),
        SymExpr::le(SymExpr::var(y), SymExpr::int(6)),
        ne(SymExpr::var(y), SymExpr::int(6)),
        SymExpr::ge(SymExpr::var(y), SymExpr::int(-7)),
    ] {
        assert_eq!(run.push_check(lit), SatResult::Sat);
    }
    let model = run.solver.model().expect("SAT carries a model");
    assert!(matches!(model.int_value(y), Some(-7 | -6)));
}

#[test]
fn a_searched_model_an_early_literal_rejects_is_refused() {
    let v = vars();
    let x = &v.ints[4];
    let mut run = Run::new(SolverConfig::default());
    // Linear over the integers, but evaluating it overflows `i64` once
    // X4 exceeds 1000: the search's atoms accept such a model, the
    // verification against the original literal must not.
    let early = SymExpr::ge(
        SymExpr::add(SymExpr::var(x), SymExpr::int(i64::MAX - 1000)),
        SymExpr::int(0),
    );
    assert_eq!(run.push_check(early), SatResult::Sat);
    deep_prefix(&mut run, &v, 210);
    assert_eq!(
        run.push_check(SymExpr::ge(SymExpr::var(x), SymExpr::int(2000))),
        SatResult::Unknown
    );
}

#[test]
fn push_verified_rechecks_the_readers_of_what_the_model_changes() {
    let v = vars();
    let (x, y) = (&v.ints[4], &v.ints[5]);
    let mut run = Run::new(SolverConfig::default());
    let early = SymExpr::le(
        SymExpr::add(SymExpr::var(x), SymExpr::var(y)),
        SymExpr::int(10),
    );
    assert_eq!(run.push_check(early.clone()), SatResult::Sat);
    deep_prefix(&mut run, &v, 210);
    let lit = SymExpr::ge(SymExpr::var(x), SymExpr::int(7));
    let overlay = |x_value: i64| {
        let mut model = run.solver.model().cloned().expect("SAT parent");
        model.set(x.id(), Value::Int(x_value));
        model
    };
    // X4 = 20 satisfies the new literal but not the early one that reads
    // X4: the fast path must refuse it and leave the literal undecided.
    let (rejected, accepted) = (overlay(20), overlay(8));
    assert!(!rejected.satisfies(&early));
    let before = run.solver.stats();
    assert!(!run.solver.push_verified(lit.clone(), &rejected));
    assert_eq!(run.solver.stats().assumed_sat, before.assumed_sat);
    assert_eq!(run.solver.check(), SatResult::Sat);
    run.solver.pop();
    // X4 = 8 satisfies both: recorded as SAT without any pipeline work.
    assert!(run.solver.push_verified(lit, &accepted));
    let after = run.solver.stats();
    assert_eq!(after.assumed_sat, before.assumed_sat + 1);
    assert_eq!(after.incremental_checks, before.incremental_checks + 1);
    assert_eq!(run.solver.model(), Some(&accepted));
}
