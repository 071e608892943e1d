//! Differential property tests: the incremental solver's push/pop/check
//! against a brute-force oracle on randomized path conditions, including
//! pop-then-push divergent branches.
//!
//! The oracle enumerates every assignment in a small box (each integer in
//! `[-BOX, BOX]`, each boolean both ways) and records the deepest prefix
//! of the path that some point satisfies. The incremental verdict must
//! agree with it in both directions the box can witness:
//!
//! * incremental `Unsat` ⇒ no point in the box satisfies the prefix;
//! * a point in the box satisfies the prefix ⇒ incremental `Sat`.
//!
//! A prefix whose solutions all lie outside the box constrains neither
//! direction. In addition, every incremental `Sat` must come with a model
//! that satisfies every pushed literal.

use dise_solver::model::Value;
use dise_solver::sym::BinOp;
use dise_solver::{IncrementalSolver, Model, SatResult, SymExpr, SymTy, SymVar, VarPool};
use proptest::prelude::*;

/// Deterministic splitmix64 stream for literal construction (the proptest
/// stub hands us one seed per case).
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

    fn small_const(&mut self) -> i64 {
        self.below(21) as i64 - 10
    }
}

struct Fixture {
    ints: Vec<SymVar>,
    bools: Vec<SymVar>,
}

fn fixture() -> (VarPool, Fixture) {
    let mut pool = VarPool::new();
    let ints = (0..3)
        .map(|i| pool.fresh(format!("X{i}"), SymTy::Int))
        .collect();
    let bools = (0..2)
        .map(|i| pool.fresh(format!("B{i}"), SymTy::Bool))
        .collect();
    (pool, Fixture { ints, bools })
}

/// A linear integer operand: variable, constant, or var ± const / var + var.
fn int_operand(g: &mut Gen, f: &Fixture) -> SymExpr {
    let x = &f.ints[g.below(f.ints.len() as u64) as usize];
    match g.below(4) {
        0 => SymExpr::var(x),
        1 => SymExpr::int(g.small_const()),
        2 => SymExpr::add(SymExpr::var(x), SymExpr::int(g.small_const())),
        _ => {
            let y = &f.ints[g.below(f.ints.len() as u64) as usize];
            SymExpr::add(SymExpr::var(x), SymExpr::var(y))
        }
    }
}

fn comparison(g: &mut Gen, f: &Fixture) -> SymExpr {
    let lhs = int_operand(g, f);
    let rhs = int_operand(g, f);
    let op = match g.below(5) {
        0 => BinOp::Lt,
        1 => BinOp::Le,
        2 => BinOp::Gt,
        3 => BinOp::Ge,
        _ => BinOp::Eq,
    };
    SymExpr::binary(op, lhs, rhs)
}

/// One branch literal, occasionally disjunctive/disequal (residual atoms,
/// split only when the search leaves a path undecided) or negated.
fn literal(g: &mut Gen, f: &Fixture) -> SymExpr {
    match g.below(10) {
        0 => {
            let b = &f.bools[g.below(f.bools.len() as u64) as usize];
            SymExpr::var(b)
        }
        1 => {
            let b = &f.bools[g.below(f.bools.len() as u64) as usize];
            SymExpr::not(SymExpr::var(b))
        }
        2 => SymExpr::or(comparison(g, f), comparison(g, f)),
        3 => SymExpr::Binary {
            op: BinOp::Ne,
            lhs: int_operand(g, f).into(),
            rhs: int_operand(g, f).into(),
        },
        4 => SymExpr::not(comparison(g, f)),
        _ => comparison(g, f),
    }
}

/// A non-constant literal (constants fold away before reaching the solver:
/// the executor never pushes them).
fn symbolic_literal(g: &mut Gen, f: &Fixture) -> SymExpr {
    loop {
        let lit = literal(g, f);
        if lit.as_bool().is_none() {
            return lit;
        }
    }
}

/// Half-width of the oracle's box: literal constants lie in `[-10, 10]`.
const BOX: i64 = 12;

/// The length of the longest prefix of `path` that some point of the box
/// satisfies (0 when not even the first literal is satisfiable there).
fn witnessed_prefix(f: &Fixture, path: &[SymExpr]) -> usize {
    let mut point = Model::new();
    let mut deepest = 0;
    for code in 0..(2 * BOX + 1).pow(3) * 4 {
        let mut rest = code;
        for x in &f.ints {
            point.set(x.id(), Value::Int(rest % (2 * BOX + 1) - BOX));
            rest /= 2 * BOX + 1;
        }
        for b in &f.bools {
            point.set(b.id(), Value::Bool(rest % 2 == 1));
            rest /= 2;
        }
        let depth = path.iter().take_while(|lit| point.satisfies(lit)).count();
        deepest = deepest.max(depth);
        if deepest == path.len() {
            break;
        }
    }
    deepest
}

/// Checks the incremental verdict for the prefix of length `len` against
/// the oracle's deepest witnessed prefix.
fn agrees(verdict: SatResult, len: usize, witnessed: usize) -> bool {
    match verdict {
        SatResult::Unsat => witnessed < len,
        _ if witnessed >= len => verdict == SatResult::Sat,
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_agrees_with_box_oracle_along_random_paths(seed in any::<u64>()) {
        let (_pool, f) = fixture();
        let mut g = Gen(seed | 1);
        let depth = 2 + g.below(9) as usize;
        let lits: Vec<SymExpr> = (0..depth).map(|_| symbolic_literal(&mut g, &f)).collect();
        let witnessed = witnessed_prefix(&f, &lits);

        let mut incremental = IncrementalSolver::new();
        for d in 0..lits.len() {
            incremental.push(lits[d].clone());
            let iv = incremental.check();
            prop_assert!(
                agrees(iv, d + 1, witnessed),
                "prefix {:?}: incremental {iv:?}, box witnesses {witnessed} literals",
                &lits[..=d].iter().map(|l| l.to_string()).collect::<Vec<_>>()
            );
            if iv == SatResult::Sat {
                let model = incremental.model().expect("SAT carries a model");
                prop_assert!(
                    lits[..=d].iter().all(|l| model.satisfies(l)),
                    "model does not satisfy the pushed path"
                );
            }
        }
    }

    #[test]
    fn pop_then_push_divergent_branches_agree(seed in any::<u64>()) {
        let (_pool, f) = fixture();
        let mut g = Gen(seed | 1);
        let depth = 3 + g.below(6) as usize;
        let lits: Vec<SymExpr> = (0..depth).map(|_| symbolic_literal(&mut g, &f)).collect();

        let mut incremental = IncrementalSolver::new();
        for lit in &lits {
            incremental.push(lit.clone());
            incremental.check();
        }
        // Backtrack a random amount (at least one frame) and explore a
        // divergent branch, exactly like the executor's DFS.
        let keep = g.below(depth as u64) as usize;
        while incremental.depth() > keep {
            incremental.pop();
        }
        let branch_depth = 1 + g.below(4) as usize;
        let mut path: Vec<SymExpr> = lits[..keep].to_vec();
        for _ in 0..branch_depth {
            // Half the time, negate a previously seen literal (the classic
            // divergent DFS sibling); otherwise a fresh literal.
            let lit = if g.below(2) == 0 {
                SymExpr::not(lits[g.below(depth as u64) as usize].clone())
            } else {
                symbolic_literal(&mut g, &f)
            };
            path.push(lit);
        }
        let witnessed = witnessed_prefix(&f, &path);
        for len in keep + 1..=path.len() {
            incremental.push(path[len - 1].clone());
            let iv = incremental.check();
            prop_assert!(
                agrees(iv, len, witnessed),
                "divergent path {:?}: incremental {iv:?}, box witnesses {witnessed} literals",
                path[..len].iter().map(|l| l.to_string()).collect::<Vec<_>>()
            );
            if iv == SatResult::Sat {
                let model = incremental.model().expect("SAT carries a model");
                prop_assert!(path[..len].iter().all(|l| model.satisfies(l)));
            }
        }
    }

    #[test]
    fn repeated_paths_hit_the_prefix_trie(seed in any::<u64>()) {
        let (_pool, f) = fixture();
        let mut g = Gen(seed | 1);
        let depth = 2 + g.below(5) as usize;
        let lits: Vec<SymExpr> = (0..depth).map(|_| symbolic_literal(&mut g, &f)).collect();

        let mut incremental = IncrementalSolver::new();
        let mut first = Vec::new();
        for lit in &lits {
            incremental.push(lit.clone());
            first.push(incremental.check());
        }
        incremental.reset();
        let busy_before = {
            let s = incremental.stats();
            s.model_searches + s.fm_runs
        };
        // Replaying the same path must answer every check from memoized
        // state (trie or unsat-prefix kill), never re-solving.
        for (i, lit) in lits.iter().enumerate() {
            incremental.push(lit.clone());
            let verdict = incremental.check();
            prop_assert_eq!(verdict, first[i], "replay diverged at depth {}", i);
        }
        let busy_after = {
            let s = incremental.stats();
            s.model_searches + s.fm_runs
        };
        prop_assert_eq!(busy_before, busy_after, "replay re-ran the pipeline");
    }
}
