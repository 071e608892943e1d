//! Regenerating Tables 2 and 3 and the §4.2.5 aggregate analysis.

use dise_artifacts::{asw, oae, wbs, Artifact};
use dise_core::dise::{run_dise, run_full_on, DiseConfig, DiseResult};
use dise_core::report::{duration_mmss, TextTable};
use dise_regression::{generate_tests, select_and_augment};
use dise_symexec::SymbolicSummary;

fn heading(title: &str) {
    println!("\n==== {title} ====\n");
}

fn artifacts_for(filter: &str) -> Vec<Artifact> {
    match filter {
        "wbs" => vec![wbs::artifact()],
        "oae" => vec![oae::artifact()],
        "asw" => vec![asw::artifact()],
        _ => vec![asw::artifact(), wbs::artifact(), oae::artifact()],
    }
}

/// One measured row of Table 2.
pub struct Row {
    version: String,
    changed: usize,
    affected: usize,
    dise: DiseResult,
    full: SymbolicSummary,
}

/// Runs DiSE and full symbolic execution on every version of an artifact.
pub fn measure(artifact: &Artifact) -> Vec<Row> {
    let config = DiseConfig::default();
    artifact
        .versions
        .iter()
        .map(|version| {
            let dise = run_dise(
                &artifact.base,
                &version.program,
                artifact.proc_name,
                &config,
            )
            .expect("artifact runs");
            let full =
                run_full_on(&version.program, artifact.proc_name, &config).expect("artifact runs");
            Row {
                version: version.id.clone(),
                changed: dise.changed_nodes,
                affected: dise.affected_nodes,
                dise,
                full,
            }
        })
        .collect()
}

/// Table 2: cost (time, states) and effectiveness (path conditions) of
/// DiSE versus full symbolic execution, per artifact version.
pub fn table2(filter: &str) {
    for artifact in artifacts_for(filter) {
        heading(&format!(
            "Table 2 — DiSE and Symbolic Execution Results: {} ({})",
            artifact.name, artifact.proc_name
        ));
        let mut table = TextTable::new(vec![
            "Version".into(),
            "Changed".into(),
            "Affected".into(),
            "Time DiSE".into(),
            "Time Full".into(),
            "States DiSE".into(),
            "States Full".into(),
            "PCs DiSE".into(),
            "PCs Full".into(),
        ]);
        for row in measure(&artifact) {
            table.row(vec![
                row.version,
                row.changed.to_string(),
                row.affected.to_string(),
                duration_mmss(row.dise.total_time),
                duration_mmss(row.full.stats().elapsed),
                row.dise.summary.stats().states_explored.to_string(),
                row.full.stats().states_explored.to_string(),
                row.dise.summary.pc_count().to_string(),
                row.full.pc_count().to_string(),
            ]);
        }
        print!("{}", table.render());
    }
}

/// Table 3: regression test selection and augmentation per version.
pub fn table3(filter: &str) {
    for artifact in artifacts_for(filter) {
        heading(&format!(
            "Table 3 — Regression Testing Results: {}",
            artifact.name
        ));
        let config = DiseConfig::default();
        // The existing suite: full symbolic execution of the base version.
        let base_summary =
            run_full_on(&artifact.base, artifact.proc_name, &config).expect("base runs");
        let base_suite = generate_tests(&artifact.base, &base_summary);
        println!(
            "existing suite (full symbolic execution of v0): {} tests\n",
            base_suite.len()
        );

        let mut table = TextTable::new(vec![
            "Version".into(),
            "# Changes".into(),
            "Selected".into(),
            "Added".into(),
            "Total Tests".into(),
        ]);
        for version in &artifact.versions {
            let dise = run_dise(
                &artifact.base,
                &version.program,
                artifact.proc_name,
                &config,
            )
            .expect("artifact runs");
            let dise_suite = generate_tests(&version.program, &dise.summary);
            let selection = select_and_augment(&base_suite, &dise_suite);
            table.row(vec![
                version.id.clone(),
                version.num_changes.to_string(),
                selection.selected.len().to_string(),
                selection.added.len().to_string(),
                selection.total().to_string(),
            ]);
        }
        print!("{}", table.render());
    }
}

/// §4.2.5 aggregates: RQ1 (cost) and RQ2 (effectiveness) ratios.
pub fn summary() {
    heading("Summary — RQ1 (cost) and RQ2 (effectiveness) aggregates");
    let mut table = TextTable::new(vec![
        "Artifact".into(),
        "Versions".into(),
        "DiSE wins (states)".into(),
        "Median state ratio".into(),
        "Median PC ratio".into(),
        "Versions at full PCs".into(),
        "Versions at 0 PCs".into(),
    ]);
    for artifact in artifacts_for("all") {
        let rows = measure(&artifact);
        let mut state_ratios: Vec<f64> = Vec::new();
        let mut pc_ratios: Vec<f64> = Vec::new();
        let mut wins = 0usize;
        let mut at_full = 0usize;
        let mut at_zero = 0usize;
        for row in &rows {
            let ds = row.dise.summary.stats().states_explored as f64;
            let fs = row.full.stats().states_explored.max(1) as f64;
            let dp = row.dise.summary.pc_count() as f64;
            let fp = row.full.pc_count().max(1) as f64;
            state_ratios.push(ds / fs);
            pc_ratios.push(dp / fp);
            if row.dise.summary.stats().states_explored < row.full.stats().states_explored {
                wins += 1;
            }
            if row.dise.summary.pc_count() == row.full.pc_count() {
                at_full += 1;
            }
            if row.dise.summary.pc_count() == 0 {
                at_zero += 1;
            }
        }
        table.row(vec![
            artifact.name.to_string(),
            rows.len().to_string(),
            format!("{wins}/{}", rows.len()),
            format!("{:.3}", median(&mut state_ratios)),
            format!("{:.3}", median(&mut pc_ratios)),
            at_full.to_string(),
            at_zero.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper's headline (§4.2.5): when changes affect only a subset of paths, DiSE takes");
    println!("at most 20% of full symbolic execution; when everything is affected, DiSE pays a");
    println!("9–30% overhead for the static analysis.");
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    values[values.len() / 2]
}
