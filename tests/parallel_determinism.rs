//! Parallel-frontier determinism: on every artifact of the corpus, a
//! `jobs = 4` exploration must produce a summary whose paths, path
//! conditions, outcomes, environments, traces, and structural counters
//! are byte-identical to the serial run's — for full exploration (fork
//! mode) and for the directed DiSE pipeline alike. Only timing and
//! solver-cache counters of full runs may differ: the directed strategy
//! is order-dependent, so it runs on the serial engine at any `jobs` and
//! does exactly the serial run's solver work.

use dise::artifacts::{asw, figures, oae, wbs};
use dise::core::dise::{run_dise, run_full_on, DiseConfig};
use dise::ir::Program;
use dise::symexec::{ExecConfig, SymbolicSummary};

fn config(jobs: usize) -> DiseConfig {
    DiseConfig {
        exec: ExecConfig {
            jobs,
            ..ExecConfig::default()
        },
        ..DiseConfig::default()
    }
}

fn assert_identical(context: &str, serial: &SymbolicSummary, parallel: &SymbolicSummary) {
    assert_eq!(
        serial.paths().len(),
        parallel.paths().len(),
        "{context}: path count"
    );
    for (i, (a, b)) in serial.paths().iter().zip(parallel.paths()).enumerate() {
        assert_eq!(a.pc, b.pc, "{context}: path {i} pc");
        assert_eq!(a.outcome, b.outcome, "{context}: path {i} outcome");
        assert_eq!(a.final_env, b.final_env, "{context}: path {i} env");
        assert_eq!(a.trace, b.trace, "{context}: path {i} trace");
    }
    assert_eq!(serial.inputs(), parallel.inputs(), "{context}: inputs");
    let (s, p) = (serial.stats(), parallel.stats());
    assert_eq!(
        s.states_explored, p.states_explored,
        "{context}: states_explored"
    );
    assert_eq!(
        s.paths_completed, p.paths_completed,
        "{context}: paths_completed"
    );
    assert_eq!(s.paths_error, p.paths_error, "{context}: paths_error");
    assert_eq!(
        s.paths_depth_bounded, p.paths_depth_bounded,
        "{context}: paths_depth_bounded"
    );
    assert_eq!(s.infeasible, p.infeasible, "{context}: infeasible");
    assert_eq!(s.pruned, p.pruned, "{context}: pruned");
    assert_eq!(s.truncated, p.truncated, "{context}: truncated");
}

fn check_full(name: &str, program: &Program, proc_name: &str) {
    let serial = run_full_on(program, proc_name, &config(1)).expect("serial full runs");
    let parallel = run_full_on(program, proc_name, &config(4)).expect("parallel full runs");
    assert!(
        parallel.stats().frontier.workers == 4,
        "{name}: parallel mode must engage"
    );
    assert_identical(&format!("{name} full"), &serial, &parallel);
}

fn check_dise(name: &str, base: &Program, modified: &Program, proc_name: &str) {
    let serial = run_dise(base, modified, proc_name, &config(1)).expect("serial dise runs");
    let parallel = run_dise(base, modified, proc_name, &config(4)).expect("parallel dise runs");
    assert_eq!(serial.changed_nodes, parallel.changed_nodes);
    assert_eq!(serial.affected_nodes, parallel.affected_nodes);
    assert_identical(&format!("{name} dise"), &serial.summary, &parallel.summary);
    let (s, p) = (serial.summary.stats(), parallel.summary.stats());
    assert_eq!(
        p.frontier.workers, 0,
        "{name}: directed runs must not engage the frontier"
    );
    assert_eq!(
        s.solver.pipeline_checks(),
        p.solver.pipeline_checks(),
        "{name}: jobs 4 must do exactly the serial solver work"
    );
}

#[test]
fn figure_artifacts_are_deterministic_under_parallelism() {
    let test_x = figures::test_x();
    check_full("fig1 testX", &test_x, "testX");
    let base = figures::fig2_base();
    let modified = figures::fig2_modified();
    check_full("fig2 modified", &modified, "update");
    check_dise("fig2", &base, &modified, "update");
}

#[test]
fn wbs_versions_are_deterministic_under_parallelism() {
    let artifact = wbs::artifact();
    check_full("WBS base", &artifact.base, artifact.proc_name);
    for version in &artifact.versions {
        check_dise(
            &format!("WBS {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

#[test]
fn oae_versions_are_deterministic_under_parallelism() {
    let artifact = oae::artifact();
    check_full("OAE base", &artifact.base, artifact.proc_name);
    for version in &artifact.versions {
        check_dise(
            &format!("OAE {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

#[test]
fn asw_versions_are_deterministic_under_parallelism() {
    let artifact = asw::artifact();
    check_full("ASW base", &artifact.base, artifact.proc_name);
    for version in artifact.versions.iter().take(4) {
        check_dise(
            &format!("ASW {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    // Scheduling is nondeterministic; the merged output must not be. Two
    // parallel runs of the path-explosive artifact must agree exactly.
    let artifact = oae::artifact();
    let first = run_full_on(&artifact.base, artifact.proc_name, &config(4)).expect("runs");
    let second = run_full_on(&artifact.base, artifact.proc_name, &config(4)).expect("runs");
    assert_identical("OAE repeated parallel", &first, &second);
    assert_eq!(first.pc_count(), 528, "OAE base full path count");
}
