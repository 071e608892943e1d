//! End-to-end regression for long equality dispatch chains.
//!
//! An `else if (Mode == i)` chain puts one integer disequality per earlier
//! arm on the path condition. The solver must decide those paths without
//! giving up: under the paper's "solver unknown ⇒ unsat" policy (§4.1) an
//! `Unknown` silently drops every deeper arm, and with it any edit there.
//! The modified version edits arm 33 of 40, so DiSE only reports the
//! change if arms past the first few dozen stay feasible.

use std::collections::BTreeSet;

use dise::core::dise::{run_dise, run_full_on, DiseConfig};
use dise::gen::render_verdicts;
use dise::ir::{parse_program, Program};
use dise::symexec::ExecConfig;

const ARMS: usize = 40;
const EDITED_ARM: usize = 33;

/// `if (Mode == 0) { if (Level > 0) { g = g + 0; } } else if (Mode == 1)
/// …` with `ARMS` arms; `edited` replaces the update of arm `EDITED_ARM`.
fn dispatch_chain(edited: bool) -> Program {
    let mut src = String::from("int g;\nproc f(int Mode, int Level) {\n");
    for i in 0..ARMS {
        let keyword = if i == 0 { "  if" } else { "  } else if" };
        let update = if edited && i == EDITED_ARM {
            format!("g = g - {i};")
        } else {
            format!("g = g + {i};")
        };
        src.push_str(&format!(
            "{keyword} (Mode == {i}) {{\n    if (Level > {i}) {{ {update} }}\n"
        ));
    }
    src.push_str("  }\n}\n");
    parse_program(&src).expect("generated chain parses")
}

fn config() -> DiseConfig {
    DiseConfig {
        exec: ExecConfig {
            record_pruned: true,
            ..ExecConfig::default()
        },
        ..DiseConfig::default()
    }
}

#[test]
fn every_arm_of_a_long_equality_chain_stays_feasible() {
    let modified = dispatch_chain(true);
    let full = run_full_on(&modified, "f", &config()).expect("full runs");
    // Two paths per arm (Level above or not above the arm's index) plus
    // the fall-through past the last arm.
    assert_eq!(full.pc_count(), 2 * ARMS + 1);
    assert_eq!(full.stats().solver.unknown, 0, "{:?}", full.stats().solver);
}

#[test]
fn dise_reports_an_edit_deep_in_the_chain() {
    let base = dispatch_chain(false);
    let modified = dispatch_chain(true);
    let dise = run_dise(&base, &modified, "f", &config()).expect("dise runs");
    assert_eq!(dise.changed_nodes, 1);
    assert_eq!(dise.summary.pc_count(), 2);
    assert_eq!(dise.summary.stats().solver.unknown, 0);
    let edited = format!("Mode == {EDITED_ARM}");
    for pc in dise.summary.path_conditions() {
        assert!(pc.to_string().contains(&edited), "{pc}");
    }

    // Affected path conditions are real path conditions of the modified
    // program, and the directed search satisfies Theorem 3.10.
    let full = run_full_on(&modified, "f", &config()).expect("full runs");
    let full_pcs: BTreeSet<String> = full.path_conditions().map(|pc| pc.to_string()).collect();
    for pc in dise.summary.path_conditions() {
        assert!(full_pcs.contains(&pc.to_string()), "{pc}");
    }
    dise::core::check_theorem_3_10(&full, &dise.summary, &dise.affected)
        .expect("Theorem 3.10 holds on the dispatch chain");
}

#[test]
fn dispatch_chain_verdicts_are_identical_cold_warm_and_storeless() {
    // The disequality verdicts survive a store round trip: a warm run
    // restores them from the persisted trie and reports the same paths.
    let base = dispatch_chain(false);
    let modified = dispatch_chain(true);
    let dir = std::env::temp_dir().join(format!("dise-dispatch-chain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stored = DiseConfig {
        store: Some(dir.clone()),
        ..config()
    };
    let cold = run_dise(&base, &modified, "f", &stored).expect("cold dise runs");
    let warm = run_dise(&base, &modified, "f", &stored).expect("warm dise runs");
    std::fs::remove_dir_all(&dir).ok();
    let status = warm.store.as_ref().expect("store configured");
    assert!(status.warm_trie_entries > 0, "{status:?}");
    assert_eq!(
        render_verdicts(&cold.summary),
        render_verdicts(&warm.summary)
    );
    let plain = run_dise(&base, &modified, "f", &config()).expect("dise runs");
    assert_eq!(
        render_verdicts(&plain.summary),
        render_verdicts(&warm.summary)
    );
}
