//! The precision ablation (ARCHITECTURE.md, "Affected locations"): the
//! paper's `IsCFGPath` data-flow premise versus precise reaching
//! definitions (with the write-chain closure) in the affected-location
//! rules.

use dise_artifacts::{asw, oae, wbs, Artifact};
use dise_core::dise::{run_dise, DiseConfig};
use dise_core::report::TextTable;
use dise_core::DataflowPrecision;

fn heading(title: &str) {
    println!("\n==== {title} ====\n");
}

/// Compares affected-set sizes and resulting DiSE path counts under both
/// precisions, for every artifact version.
pub fn run() {
    heading("Ablation — affected-location data-flow premise (paper IsCFGPath vs reaching-defs)");
    for artifact in [asw::artifact(), wbs::artifact(), oae::artifact()] {
        println!("{}:", artifact.name);
        let mut table = TextTable::new(vec![
            "Version".into(),
            "Affected (paper)".into(),
            "Affected (reach-defs)".into(),
            "PCs (paper)".into(),
            "PCs (reach-defs)".into(),
            "States (paper)".into(),
            "States (reach-defs)".into(),
        ]);
        for row in measure(&artifact) {
            table.row(row);
        }
        print!("{}", table.render());
        println!();
    }
    println!("reaching-defs kills definitions overwritten before any use (smaller sets, fewer");
    println!("witness paths) but also closes write-to-write chains the paper's Eq. (3) cannot");
    println!("see (a change flowing A -> B -> cond), so the two modes are incomparable in");
    println!("general: precision where definitions die, extra soundness where values chain.");
}

/// The fidelity ablation: how badly does the *literal* reading of Fig. 6
/// (filter every successor state, `FilterScope::AllStates`) break the
/// paper's numbers, compared to the SPF-faithful choice-point scope?
pub fn filter_scope() {
    heading("Ablation — Fig. 6 filter scope (SPF choice points vs literal all-states)");
    let mut table = TextTable::new(vec![
        "Artifact/version".into(),
        "PCs (choice points)".into(),
        "PCs (all states)".into(),
        "States (choice points)".into(),
        "States (all states)".into(),
    ]);
    let choice = DiseConfig::default();
    let literal = DiseConfig {
        exec: dise_symexec::ExecConfig {
            filter_scope: dise_symexec::FilterScope::AllStates,
            ..Default::default()
        },
        ..DiseConfig::default()
    };
    for artifact in [asw::artifact(), wbs::artifact(), oae::artifact()] {
        for id in ["v1", "v2", "v4"] {
            let Some(version) = artifact.version(id) else {
                continue;
            };
            let a = run_dise(
                &artifact.base,
                &version.program,
                artifact.proc_name,
                &choice,
            )
            .expect("artifact runs");
            let b = run_dise(
                &artifact.base,
                &version.program,
                artifact.proc_name,
                &literal,
            )
            .expect("artifact runs");
            table.row(vec![
                format!("{} {id}", artifact.name),
                a.summary.pc_count().to_string(),
                b.summary.pc_count().to_string(),
                a.summary.stats().states_explored.to_string(),
                b.summary.stats().states_explored.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!();
    println!("Under the literal reading every straight-line successor is filtered too. On");
    println!("OAE v1/v2 most paths are then pruned at a successor that is not a choice point,");
    println!("before the exit (65 -> 2 PCs, 348 -> 221 states); WBS and ASW keep their PC");
    println!("counts. The paper's full Table 2 is only reproducible with choice-point states");
    println!("(ARCHITECTURE.md, fidelity notes) — the OAE rows are the measured justification");
    println!("for that reading.");
}

fn measure(artifact: &Artifact) -> Vec<Vec<String>> {
    let paper = DiseConfig::default();
    let precise = DiseConfig {
        precision: DataflowPrecision::ReachingDefs,
        ..DiseConfig::default()
    };
    artifact
        .versions
        .iter()
        .map(|version| {
            let a = run_dise(&artifact.base, &version.program, artifact.proc_name, &paper)
                .expect("artifact runs");
            let b = run_dise(
                &artifact.base,
                &version.program,
                artifact.proc_name,
                &precise,
            )
            .expect("artifact runs");
            vec![
                version.id.clone(),
                a.affected_nodes.to_string(),
                b.affected_nodes.to_string(),
                a.summary.pc_count().to_string(),
                b.summary.pc_count().to_string(),
                a.summary.stats().states_explored.to_string(),
                b.summary.stats().states_explored.to_string(),
            ]
        })
        .collect()
}
