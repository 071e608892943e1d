//! Differential property test for compositional exploration: on
//! randomized call graphs, a full exploration that instantiates interned
//! procedure summaries at call sites must be indistinguishable — path
//! conditions, outcomes, observable effects, and witness sets — from the
//! classic run that inlines every callee.
//!
//! The generator mixes actual-argument shapes deliberately: plain caller
//! formals (the witness fast path), constants, and compound expressions
//! (which force the instantiation through the fallback pipeline checks).
//! Summaries may only move solver work around; any observable divergence
//! is a bug in substitution, effect application, or the broker gates.

use dise_core::dise::{run_full_on, DiseConfig};
use dise_ir::{check_program, parse_program};
use dise_solver::{SatResult, Solver};
use dise_symexec::{PathSummary, SummaryMode};
use proptest::prelude::*;

/// Deterministic splitmix64 stream (the proptest stub hands us one seed
/// per case).
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
}

/// A callee body: one or two branches over the formal and a global, with
/// global writes on the arms (so summaries carry real effects).
fn callee_body(g: &mut Gen) -> String {
    let k = g.below(12) as i64 - 4;
    match g.below(4) {
        0 => format!("if (v > {k}) {{ G0 = G0 + v; }} else {{ G1 = v; }}"),
        1 => format!(
            "if (v > G0) {{ G0 = v; if (v > {}) {{ G1 = G1 + 1; }} }}",
            g.below(8)
        ),
        2 => format!("if (v == {k}) {{ G0 = {}; }} G1 = G1 + v;", g.below(5)),
        _ => format!(
            "if (v >= {k}) {{ G0 = v * 2; }} if (G1 > {}) {{ G1 = 0; }}",
            g.below(6)
        ),
    }
}

/// A random multi-procedure program: 1–3 callees, a `main` issuing 2–4
/// sequential calls with mixed actual shapes.
fn random_program(g: &mut Gen) -> String {
    let n_callees = 1 + g.below(3);
    let mut src = String::from("int G0 = 0;\nint G1 = 1;\n");
    for i in 0..n_callees {
        src.push_str(&format!("proc c{i}(int v) {{ {} }}\n", callee_body(g)));
    }
    let n_calls = 2 + g.below(3);
    let mut calls = String::new();
    for _ in 0..n_calls {
        let callee = g.below(n_callees);
        let actual = match g.below(5) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => format!("{}", g.below(12) as i64 - 4),
            3 => format!("a + {}", g.below(5)),
            _ => "a + b".to_string(),
        };
        calls.push_str(&format!("c{callee}({actual}); "));
    }
    src.push_str(&format!("proc main(int a, int b) {{ {calls}}}\n"));
    src
}

fn paths_agree(summarized: &PathSummary, inlined: &PathSummary) {
    assert_eq!(summarized.pc.to_string(), inlined.pc.to_string());
    assert_eq!(summarized.outcome, inlined.outcome);
    // The observable effect: the globals' symbolic final values.
    for global in ["G0", "G1"] {
        let s = summarized.final_env.get(global).map(|e| e.to_string());
        let i = inlined.final_env.get(global).map(|e| e.to_string());
        assert_eq!(s, i, "final value of {global} diverged");
    }
    // Witness agreement: the summarized path's conjuncts must be exactly
    // as solvable as the inlined path's, and a witness for one must
    // satisfy the other (structural equality of strings is not enough to
    // know the solver sees the same constraint set).
    let mut solver = Solver::new();
    let s_outcome = solver.check_pc(&summarized.pc);
    let i_outcome = solver.check_pc(&inlined.pc);
    assert_eq!(s_outcome.result(), i_outcome.result());
    if s_outcome.result() == SatResult::Sat {
        let witness = s_outcome.model().expect("sat comes with a model");
        for conjunct in inlined.pc.conjuncts() {
            assert!(
                witness.satisfies(conjunct),
                "summarized witness fails inlined conjunct {conjunct}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn summarized_exploration_equals_inlined_on_random_call_graphs(seed in any::<u64>()) {
        let src = random_program(&mut Gen(seed | 1));
        let program = parse_program(&src).unwrap();
        check_program(&program).unwrap();
        let mut on = DiseConfig::default();
        on.exec.summaries = SummaryMode::On;
        let mut off = on.clone();
        off.exec.summaries = SummaryMode::Off;
        let summarized = run_full_on(&program, "main", &on).unwrap();
        let inlined = run_full_on(&program, "main", &off).unwrap();
        prop_assert!(
            summarized.stats().summary.call_sites > 0,
            "generator produced a program the gates refused:\n{src}"
        );
        prop_assert_eq!(summarized.paths().len(), inlined.paths().len());
        for (s, i) in summarized.paths().iter().zip(inlined.paths()) {
            paths_agree(s, i);
        }
    }
}
