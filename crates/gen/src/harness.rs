//! The ground-truth differential harness — three checks per
//! `(base, modified)` pair.
//!
//! [`check_pair`] runs the full DiSE pipeline on a generated scenario and
//! its evolution and verifies, in order:
//!
//! 1. **Ground-truth coverage** — every CFG node of the flattened
//!    modified version that carries an edited marker constant (see
//!    [`nodes_with_marker`]) is contained in the computed affected sets
//!    (`ACN ∪ AWN`), and every edited marker is actually present in the
//!    flattened CFG (so the check can never pass vacuously).
//! 2. **Summary equivalence** — full exploration of the modified version
//!    with procedure summaries forced on produces the same path
//!    conditions and outcomes as with summaries forced off (skipped for
//!    call-free scenarios, where the modes coincide trivially).
//! 3. **Session ≡ cold ≡ warm** — the directed verdicts (path
//!    conditions, outcomes, final environments, traces) of the session
//!    from check 1 are byte-identical to an independent one-shot run
//!    against a fresh persistent store, and re-running against that
//!    store reuses the recorded affected sets and still produces
//!    byte-identical verdicts.
//!
//! Every run pins trace recording and the summary mode explicitly, so
//! the harness does not depend on environment defaults.

use std::sync::atomic::{AtomicU64, Ordering};

use dise_cfg::{Cfg, NodeId, NodeKind};
use dise_core::dise::{run_dise, run_full_on, DiseConfig};
use dise_core::session::AnalysisSession;
use dise_ir::ast::{Expr, ExprKind};
use dise_symexec::{SummaryMode, SymbolicSummary};

use crate::edits::Evolution;
use crate::scenario::{Scenario, PROC_NAME};

/// A failed harness check: which check and a reproduction-grade detail
/// string (dumped alongside the pair's sources by the corpus test).
#[derive(Debug, Clone)]
pub struct HarnessFailure {
    /// The check that failed: `"pipeline"`, `"ground-truth"`,
    /// `"summaries"`, or `"warm-store"`.
    pub check: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for HarnessFailure {}

/// What a passing [`check_pair`] observed — consumed by the corpus test's
/// aggregate assertions and the `dise gen --verify` report.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// Markers in the evolution's ground truth.
    pub ground_truth_markers: usize,
    /// Flattened-CFG nodes those markers identify (≥ markers when callee
    /// edits were inlined more than once).
    pub ground_truth_nodes: usize,
    /// Computed `|ACN| + |AWN|` of the pair.
    pub affected_nodes: usize,
    /// Paths the directed exploration recorded.
    pub directed_paths: usize,
    /// Paths the full exploration recorded (0 when the summary check was
    /// skipped for a call-free scenario).
    pub full_paths: usize,
    /// Whether the warm rerun reused the stored affected sets.
    pub warm_affected_reused: bool,
}

/// Renders a summary's observable verdicts one path per line:
/// `pc|outcome|var=value;…|trace`. Two summaries are byte-identical in
/// the determinism-contract sense exactly when these strings are equal.
pub fn render_verdicts(summary: &SymbolicSummary) -> String {
    let mut out = String::new();
    for path in summary.paths() {
        out.push_str(&path.pc.to_string());
        out.push('|');
        out.push_str(&format!("{:?}", path.outcome));
        out.push('|');
        for (var, value) in path.final_env.iter() {
            out.push_str(var);
            out.push('=');
            out.push_str(&value.to_string());
            out.push(';');
        }
        out.push('|');
        for node in &path.trace {
            out.push_str(&node.index().to_string());
            out.push(',');
        }
        out.push('\n');
    }
    out
}

/// The CFG nodes whose expression embeds the integer literal `marker`:
/// `Assign` right-hand sides, `Branch`/`Assume` conditions. This is how
/// ground truth survives flattening — the inliner re-parses programs (so
/// spans regenerate) but copies expressions verbatim, once per inlined
/// call.
pub fn nodes_with_marker(cfg: &Cfg, marker: i64) -> Vec<NodeId> {
    cfg.node_ids()
        .filter(|&id| match &cfg.node(id).kind {
            NodeKind::Assign { value, .. } => expr_contains_int(value, marker),
            NodeKind::Branch { cond } | NodeKind::Assume { cond } => {
                expr_contains_int(cond, marker)
            }
            _ => false,
        })
        .collect()
}

fn expr_contains_int(expr: &Expr, literal: i64) -> bool {
    match &expr.kind {
        ExprKind::Int(v) => *v == literal,
        ExprKind::Bool(_) | ExprKind::Var(_) => false,
        ExprKind::Unary { expr, .. } => expr_contains_int(expr, literal),
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_contains_int(lhs, literal) || expr_contains_int(rhs, literal)
        }
    }
}

/// A deterministic executor configuration: traces recorded. The one
/// knob that honors an environment default (`DISE_SUMMARIES`) only
/// matters to full explorations, whose callers pin it explicitly.
fn pinned_config() -> DiseConfig {
    let mut config = DiseConfig::default();
    config.exec.record_traces = true;
    config
}

/// A fresh per-call store directory under the system temp dir.
fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dise-gen-{tag}-{}-{n}", std::process::id()))
}

/// Runs all three differential checks on one generated pair. Returns the
/// observations on success, the first failing check otherwise.
///
/// # Errors
///
/// [`HarnessFailure`] names the violated check; pipeline errors (parse,
/// inline, diff, exec) surface as the `"pipeline"` check.
pub fn check_pair(base: &Scenario, evolution: &Evolution) -> Result<HarnessReport, HarnessFailure> {
    let pipeline = |e: dise_core::dise::DiseError| HarnessFailure {
        check: "pipeline",
        detail: e.to_string(),
    };
    let base_prog = base.program();
    let mod_prog = evolution.modified.program();
    let mut report = HarnessReport::default();

    // Check 1: ground-truth coverage. The session gives us the flattened
    // modified CFG and the affected sets of the same run.
    let mut session = AnalysisSession::open(&base_prog, &mod_prog, PROC_NAME, pinned_config())
        .map_err(pipeline)?;
    let affected = session.affected().map_err(pipeline)?.clone();
    let diffed = session.diffed().map_err(pipeline)?;
    report.affected_nodes = affected.len();
    let markers = evolution.ground_truth_markers();
    report.ground_truth_markers = markers.len();
    for marker in &markers {
        let nodes = nodes_with_marker(&diffed.cfg_mod, *marker);
        if nodes.is_empty() {
            return Err(HarnessFailure {
                check: "ground-truth",
                detail: format!(
                    "edited marker {marker} has no node in the flattened modified CFG \
                     (generator/inliner bug — the check would be vacuous)"
                ),
            });
        }
        for node in nodes {
            report.ground_truth_nodes += 1;
            if !affected.contains(node) {
                return Err(HarnessFailure {
                    check: "ground-truth",
                    detail: format!(
                        "node {} (marker {marker}, kind {:?}) is edited ground truth but \
                         missing from ACN ∪ AWN ({} affected of {} nodes)",
                        node.index(),
                        diffed.cfg_mod.node(node).kind,
                        affected.len(),
                        diffed.cfg_mod.len()
                    ),
                });
            }
        }
    }

    let explored = &session.explored().map_err(pipeline)?.summary;
    let session_verdicts = render_verdicts(explored);
    report.directed_paths = explored.paths().len();

    // Check 2: summaries-on ≡ summaries-off on the modified version's
    // full exploration. Path conditions and outcomes are the contract;
    // final environments may α-rename call-local temporaries.
    if base.params().helpers > 0 {
        let mut on = pinned_config();
        on.exec.summaries = SummaryMode::On;
        let mut off = pinned_config();
        off.exec.summaries = SummaryMode::Off;
        let with = run_full_on(&mod_prog, PROC_NAME, &on).map_err(pipeline)?;
        let without = run_full_on(&mod_prog, PROC_NAME, &off).map_err(pipeline)?;
        report.full_paths = without.paths().len();
        let observable = |s: &SymbolicSummary| -> Vec<(String, String)> {
            s.paths()
                .iter()
                .map(|p| (p.pc.to_string(), format!("{:?}", p.outcome)))
                .collect()
        };
        if observable(&with) != observable(&without) {
            return Err(HarnessFailure {
                check: "summaries",
                detail: format!(
                    "full-exploration verdicts differ between summary modes:\n--- on\n{:?}\n\
                     --- off\n{:?}",
                    observable(&with),
                    observable(&without)
                ),
            });
        }
    }

    // Check 3: the cold-store one-shot run reproduces the session's
    // verdicts, and a warm-store rerun reuses the recorded affected sets
    // and reproduces them again, byte for byte.
    let dir = temp_store_dir("store");
    std::fs::remove_dir_all(&dir).ok();
    let store_config = || DiseConfig {
        store: Some(dir.clone()),
        ..pinned_config()
    };
    let result = (|| {
        let cold = run_dise(&base_prog, &mod_prog, PROC_NAME, &store_config()).map_err(pipeline)?;
        let warm = run_dise(&base_prog, &mod_prog, PROC_NAME, &store_config()).map_err(pipeline)?;
        let status = warm.store.as_ref().expect("store configured");
        if !status.affected_reused {
            return Err(HarnessFailure {
                check: "warm-store",
                detail: format!(
                    "second run on an unchanged pair did not reuse the recorded affected \
                     sets (status: {status:?})"
                ),
            });
        }
        let cold = render_verdicts(&cold.summary);
        if cold != session_verdicts {
            return Err(HarnessFailure {
                check: "warm-store",
                detail: format!(
                    "cold one-shot verdicts differ from the session's:\n--- session\n\
                     {session_verdicts}--- cold\n{cold}"
                ),
            });
        }
        let warm = render_verdicts(&warm.summary);
        if cold != warm {
            return Err(HarnessFailure {
                check: "warm-store",
                detail: format!(
                    "warm rerun verdicts differ from cold run:\n--- cold\n{cold}--- warm\n{warm}"
                ),
            });
        }
        report.warm_affected_reused = true;
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result?;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::evolve;
    use crate::scenario::GenParams;

    fn pair(seed: u64) -> (Scenario, Evolution) {
        let base = Scenario::generate(&GenParams {
            seed,
            ..GenParams::default()
        });
        let evolution = evolve(&base, seed, 2);
        (base, evolution)
    }

    #[test]
    fn markers_are_recoverable_from_the_flattened_cfg() {
        let (base, evolution) = pair(3);
        let mod_prog = evolution.modified.program();
        let mut session =
            AnalysisSession::open(&base.program(), &mod_prog, PROC_NAME, pinned_config()).unwrap();
        let diffed = session.diffed().unwrap();
        for marker in evolution.ground_truth_markers() {
            assert!(
                !nodes_with_marker(&diffed.cfg_mod, marker).is_empty(),
                "marker {marker} lost in flattening"
            );
        }
    }

    #[test]
    fn check_pair_accepts_generated_pairs() {
        for seed in 0..4 {
            let (base, evolution) = pair(seed);
            let report =
                check_pair(&base, &evolution).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            assert!(report.ground_truth_nodes >= report.ground_truth_markers);
            assert!(report.directed_paths > 0);
            assert!(report.warm_affected_reused);
        }
    }

    #[test]
    fn render_verdicts_distinguishes_different_summaries() {
        let (base, evolution) = pair(5);
        let config = pinned_config();
        let directed = run_dise(
            &base.program(),
            &evolution.modified.program(),
            PROC_NAME,
            &config,
        )
        .unwrap();
        let full = run_full_on(&evolution.modified.program(), PROC_NAME, &config).unwrap();
        // Directed prunes unaffected paths, so the renderings must differ
        // whenever pruning actually happened.
        if directed.summary.paths().len() != full.paths().len() {
            assert_ne!(render_verdicts(&directed.summary), render_verdicts(&full));
        }
        assert_eq!(
            render_verdicts(&directed.summary),
            render_verdicts(&directed.summary)
        );
    }
}
