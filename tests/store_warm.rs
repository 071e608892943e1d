//! The persistent store's end-to-end invariants, pinned on the paper's
//! artifact corpus:
//!
//! * **byte identity** — warm-started summaries equal cold summaries,
//!   path for path (the store only moves solver work, never results);
//! * **strictly fewer solver calls** — a warm run of the same evolution
//!   pair re-derives its summary from restored trie verdicts without
//!   running a decision pipeline;
//! * **cross-version transfer** — version N warm-starts from version
//!   N−1's entry (the trie is structurally keyed, so shared prefixes
//!   survive the program change);
//! * **corruption never poisons** — truncated files, version skew, and
//!   checksum mismatches all degrade to a cold run with a one-line
//!   warning, and the damaged entry is healed by the save-back.

use std::path::PathBuf;

use dise::artifacts::{asw, figures, oae, wbs, Artifact};
use dise::core::dise::{run_dise, DiseConfig, DiseResult};
use dise::ir::Program;
use dise::store::{format::FORMAT_VERSION, Store};
use dise::symexec::SymbolicSummary;

fn config(store: Option<PathBuf>) -> DiseConfig {
    DiseConfig {
        store,
        ..DiseConfig::default()
    }
}

fn run(base: &Program, modified: &Program, proc_name: &str, cfg: &DiseConfig) -> DiseResult {
    run_dise(base, modified, proc_name, cfg).expect("pipeline runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dise-store-it-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_identical(context: &str, cold: &SymbolicSummary, warm: &SymbolicSummary) {
    assert_eq!(cold.paths().len(), warm.paths().len(), "{context}: paths");
    for (i, (a, b)) in cold.paths().iter().zip(warm.paths()).enumerate() {
        assert_eq!(a.pc, b.pc, "{context}: path {i} pc");
        assert_eq!(a.outcome, b.outcome, "{context}: path {i} outcome");
        assert_eq!(a.final_env, b.final_env, "{context}: path {i} env");
        assert_eq!(a.trace, b.trace, "{context}: path {i} trace");
    }
    let (c, w) = (cold.stats(), warm.stats());
    assert_eq!(c.states_explored, w.states_explored, "{context}: states");
    assert_eq!(c.pruned, w.pruned, "{context}: pruned");
    assert_eq!(c.infeasible, w.infeasible, "{context}: infeasible");
    assert_eq!(c.truncated, w.truncated, "{context}: truncated");
}

fn solver_calls(result: &DiseResult) -> u64 {
    result.summary.stats().solver.pipeline_checks()
}

fn evolution_pairs() -> Vec<(String, &'static str, Program, Program)> {
    let mut pairs = vec![(
        "fig2".to_string(),
        "update",
        figures::fig2_base(),
        figures::fig2_modified(),
    )];
    let suites: [(Artifact, &[&str]); 3] = [
        (wbs::artifact(), &["v2", "v4"]),
        (oae::artifact(), &["v2", "v4"]),
        (asw::artifact(), &["v2", "v8"]),
    ];
    for (artifact, versions) in suites {
        for &version in versions {
            pairs.push((
                format!("{} {version}", artifact.name),
                artifact.proc_name,
                artifact.base.clone(),
                artifact.version(version).unwrap().program.clone(),
            ));
        }
    }
    pairs
}

#[test]
fn warm_runs_are_byte_identical_to_cold() {
    for (name, proc_name, base, modified) in evolution_pairs() {
        let dir = temp_dir("identity");
        let store_cfg = config(Some(dir.clone()));
        let cold = run(&base, &modified, proc_name, &store_cfg);
        let warm = run(&base, &modified, proc_name, &store_cfg);
        let context = name.to_string();
        assert_identical(&context, &cold.summary, &warm.summary);
        assert_eq!(cold.affected_nodes, warm.affected_nodes, "{context}");
        assert_eq!(cold.changed_nodes, warm.changed_nodes, "{context}");
        let status = warm.store.as_ref().expect("store configured");
        assert!(status.warning.is_none(), "{context}: {:?}", status.warning);
        assert!(status.affected_reused, "{context}: affected reuse");
        assert!(
            status.warm_trie_entries > 0,
            "{context}: trie must warm-start"
        );
        // A reference run with no store at all agrees too.
        let plain = run(&base, &modified, proc_name, &config(None));
        assert_identical(
            &format!("{context} vs plain"),
            &plain.summary,
            &warm.summary,
        );
        assert!(plain.store.is_none());
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn warm_runs_issue_strictly_fewer_solver_calls() {
    for (name, proc_name, base, modified) in evolution_pairs() {
        let dir = temp_dir("calls");
        let store_cfg = config(Some(dir.clone()));
        let cold = run(&base, &modified, proc_name, &store_cfg);
        let warm = run(&base, &modified, proc_name, &store_cfg);
        let (cold_calls, warm_calls) = (solver_calls(&cold), solver_calls(&warm));
        assert!(
            warm_calls < cold_calls,
            "{name}: warm {warm_calls} must be strictly fewer than cold {cold_calls}"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn the_store_transfers_across_program_versions() {
    // The DiSE claim, persisted: analyze v_{n-1}, then warm-start v_n
    // from its store entry. Shared path prefixes answer from the
    // restored trie even though the program changed.
    let artifact = wbs::artifact();
    let v2 = &artifact.version("v2").unwrap().program;
    let v4 = &artifact.version("v4").unwrap().program;
    let dir = temp_dir("transfer");
    let store_cfg = config(Some(dir.clone()));

    run(&artifact.base, v2, artifact.proc_name, &store_cfg);
    let next = run(&artifact.base, v4, artifact.proc_name, &store_cfg);
    let status = next.store.as_ref().expect("store configured");
    assert!(
        status.warm_trie_entries > 0,
        "v4 must warm-start from v2's entry"
    );
    assert!(
        !status.affected_reused,
        "the (base, modified) pair changed, so affected sets recompute"
    );
    let reference = run(&artifact.base, v4, artifact.proc_name, &config(None));
    assert_identical("v2->v4 transfer", &reference.summary, &next.summary);
    std::fs::remove_dir_all(dir).ok();
}

/// Every corruption mode must fall back to a cold run with a warning —
/// and produce the byte-identical summary.
#[test]
fn corruption_falls_back_to_cold_without_poisoning_results() {
    let (_, proc_name, base, modified) = evolution_pairs().remove(0);
    let reference = run(&base, &modified, proc_name, &config(None));

    type Damage = fn(&[u8]) -> Vec<u8>;
    let truncate: Damage = |bytes| bytes[..bytes.len() / 2].to_vec();
    let version_skew: Damage = |bytes| {
        let mut out = bytes.to_vec();
        out[8..12].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        out
    };
    let bit_flip: Damage = |bytes| {
        let mut out = bytes.to_vec();
        let mid = 28 + (out.len() - 28) / 2;
        out[mid] ^= 0x10;
        out
    };
    let not_a_store: Damage = |_| b"definitely not a store file".to_vec();

    for (what, damage) in [
        ("truncated", truncate),
        ("version skew", version_skew),
        ("bit flip", bit_flip),
        ("bad magic", not_a_store),
    ] {
        let dir = temp_dir("damage");
        let store_cfg = config(Some(dir.clone()));
        run(&base, &modified, proc_name, &store_cfg);
        let store = Store::open(&dir);
        let path = store.entry_path(proc_name);
        let bytes = std::fs::read(&path).expect("entry exists");
        std::fs::write(&path, damage(&bytes)).unwrap();

        let damaged = run(&base, &modified, proc_name, &store_cfg);
        let status = damaged.store.as_ref().expect("store configured");
        assert_eq!(status.warm_trie_entries, 0, "{what}: no warm state");
        assert!(!status.affected_reused, "{what}: no affected reuse");
        let warning = status
            .warning
            .as_ref()
            .unwrap_or_else(|| panic!("{what}: damage must surface a warning"));
        assert!(
            !warning.contains('\n'),
            "{what}: warning must be one line, got {warning:?}"
        );
        assert_identical(what, &reference.summary, &damaged.summary);

        // The save-back healed the entry: the next run warm-starts.
        assert!(status.saved, "{what}: rewrite");
        let healed = run(&base, &modified, proc_name, &store_cfg);
        assert!(
            healed.store.as_ref().unwrap().warm_trie_entries > 0,
            "{what}: store must heal"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
