//! Flattening lays the inlined program out in one pass instead of
//! printing it and parsing the text back. These tests pin that the two are
//! interchangeable: `inline_program` returns exactly (spans included, by
//! derived equality) what the round trip returns.

use dise::artifacts::figures;
use dise::artifacts::random::{random_program, GenConfig};
use dise::gen::{evolve, GenParams, Scenario, PROC_NAME};
use dise::ir::ast::{Block, Program, StmtKind};
use dise::ir::builder::{
    add, assert_stmt, assign, gt, int, mul, neg, sub, var, while_loop, ProgramBuilder,
};
use dise::ir::inline::{contains_calls, expand_calls, inline_program};
use dise::ir::parse_program;
use dise::ir::pretty::pretty_program;
use dise::ir::Type;
use proptest::prelude::*;

/// The round trip flattening used before the layout pass: print the
/// expanded program, parse the text back, and graft the assert labels
/// (which have no surface syntax) onto the re-parse.
fn round_trip(program: &Program, proc_name: &str) -> Program {
    let expanded = expand_calls(program, proc_name).expect("the program inlines");
    let mut reparsed =
        parse_program(&pretty_program(&expanded)).expect("pretty-printed program re-parses");
    for (from, to) in expanded.procs.iter().zip(&mut reparsed.procs) {
        copy_assert_labels(&from.body, &mut to.body);
    }
    reparsed
}

/// Copies assert labels from `from` onto the structurally identical `to`.
fn copy_assert_labels(from: &Block, to: &mut Block) {
    for (f, t) in from.stmts.iter().zip(&mut to.stmts) {
        match (&f.kind, &mut t.kind) {
            (StmtKind::Assert { label: f_label, .. }, StmtKind::Assert { label: t_label, .. }) => {
                t_label.clone_from(f_label);
            }
            (
                StmtKind::If {
                    then_branch: f_then,
                    else_branch: f_else,
                    ..
                },
                StmtKind::If {
                    then_branch: t_then,
                    else_branch: t_else,
                    ..
                },
            ) => {
                copy_assert_labels(f_then, t_then);
                if let (Some(f_else), Some(t_else)) = (f_else, t_else) {
                    copy_assert_labels(f_else, t_else);
                }
            }
            (StmtKind::While { body: f_body, .. }, StmtKind::While { body: t_body, .. }) => {
                copy_assert_labels(f_body, t_body);
            }
            _ => {}
        }
    }
}

fn assert_layout_matches_round_trip(program: &Program, proc_name: &str, what: &str) {
    let flat = inline_program(program, proc_name).expect("the program inlines");
    let expected = round_trip(program, proc_name);
    assert!(
        flat == expected,
        "{what}: the layout differs from the round trip\nlayout text:\n{}",
        pretty_program(&flat)
    );
}

const INTERPROC_BASE: &str = "int Pressure = 0;
int Warnings = 0;
proc apply_brake(int cmd) {
  if (cmd > 100) {
    Pressure = 3000;
  } else {
    Pressure = cmd * 30;
  }
}
proc check_limits(int threshold) {
  if (Pressure > threshold) {
    Warnings = Warnings + 1;
  }
}
proc main(int left, int right) {
  apply_brake(left);
  check_limits(2500);
  apply_brake(right);
  check_limits(2900);
}
";

#[test]
fn fig2_lays_out_like_the_round_trip() {
    assert_layout_matches_round_trip(&figures::fig2_base(), "update", "fig2 base");
    assert_layout_matches_round_trip(&figures::fig2_modified(), "update", "fig2 modified");
}

#[test]
fn interproc_fixture_lays_out_like_the_round_trip() {
    let base = parse_program(INTERPROC_BASE).unwrap();
    let modified = parse_program(&INTERPROC_BASE.replace("cmd > 100", "cmd > 95")).unwrap();
    assert_layout_matches_round_trip(&base, "main", "interproc base");
    assert_layout_matches_round_trip(&modified, "main", "interproc modified");
}

#[test]
fn example_programs_with_calls_lay_out_like_the_round_trip() {
    // Every string literal in examples/ that parses as a program is a
    // candidate; each procedure that calls another is flattened.
    let mut flattened = 0;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for literal in text.split('"').skip(1).step_by(2) {
            let Ok(program) = parse_program(literal) else {
                continue;
            };
            for procedure in &program.procs {
                if contains_calls(&program, &procedure.name) {
                    let what = format!("{} `{}`", file.display(), procedure.name);
                    assert_layout_matches_round_trip(&program, &procedure.name, &what);
                    flattened += 1;
                }
            }
        }
    }
    // interprocedural.rs (main) and system_impact.rs (route, tick).
    assert!(
        flattened >= 3,
        "only {flattened} example procedures with calls"
    );
}

#[test]
fn generated_tiers_lay_out_like_the_round_trip() {
    // The 10x/30x/100x tiers: `dise gen --seed 2024 --edits 2
    // --guard-depth 2 --helpers 3 --call-depth 2 --globals 3 --arms N`.
    for arms in [24, 72, 240] {
        let scenario = Scenario::generate(&GenParams {
            seed: 2024,
            arms,
            guard_depth: 2,
            helpers: 3,
            call_depth: 2,
            globals: 3,
        });
        let evolution = evolve(&scenario, 2024, 2);
        for (version, source) in [
            ("base", scenario.source()),
            ("modified", evolution.modified.source()),
        ] {
            let program = parse_program(&source).unwrap();
            let what = format!("gen --arms {arms} {version}");
            assert_layout_matches_round_trip(&program, PROC_NAME, &what);
        }
    }
}

#[test]
fn every_statement_kind_and_label_lays_out_like_the_round_trip() {
    let program = parse_program(
        "int g;
         bool flag = true;
         int limit = 10 - 3;
         proc check(int v) {
           assume(v >= 0);
           assert(v < 1000);
           while (v > limit && !flag) {
             v = v - 1;
           }
           if (v == 0) {
             skip;
           } else if (v == 1) {
             g = -(v + 1);
           } else if (v == 2) {
             g = (v - 1) * -v;
           } else if (v == 3) {
             g = v % 2;
           } else {
             bool odd = v % 2 == 1;
             if (odd || flag) { g = g / 2; }
           }
           return;
         }
         proc main(int a, bool b) {
           check(a);
           if (b) { check(a * 2 + 1); } else { check(-a); }
           assert(g != 5);
         }",
    )
    .unwrap();
    assert_layout_matches_round_trip(&program, "main", "statement tour");
}

#[test]
fn negative_literals_become_negations_as_a_reparse_reads_them() {
    // Negative literals only arise in built ASTs: `-5`, `(-5)` and the
    // magnitude each get the spans of the re-parsed negation.
    let program = ProgramBuilder::new()
        .global_int("g", Some(-7))
        .proc(
            "f",
            [("x", Type::Int)],
            vec![
                assign("x", add(var("x"), int(-5))),
                assign("x", mul(int(-2), neg(int(-3)))),
                assign("x", sub(var("x"), neg(neg(int(-1))))),
                while_loop(
                    gt(var("x"), int(-4)),
                    vec![assign("x", sub(var("x"), int(1)))],
                ),
                assert_stmt(gt(var("x"), int(-100))),
            ],
        )
        .build();
    let flat = inline_program(&program, "f").unwrap();
    assert!(flat == round_trip(&program, "f"));
    assert_eq!(flat, parse_program(&pretty_program(&program)).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_lay_out_like_the_round_trip(seed in any::<u64>()) {
        let program = random_program(&GenConfig {
            int_params: 2,
            bool_params: 1,
            globals: 1,
            max_depth: 3,
            max_stmts: 4,
            seed,
        });
        let flat = inline_program(&program, "f").unwrap();
        prop_assert!(flat == round_trip(&program, "f"));
    }
}
