//! The generated-corpus PR gate: every determinism contract, checked over
//! hundreds of generated `(base, modified)` pairs instead of the four
//! hand-written paper artifacts.
//!
//! Each pair runs the three-check differential harness
//! (`dise::gen::check_pair`): ground-truth affected-node coverage,
//! summaries-on ≡ summaries-off, and session ≡ cold-store ≡ warm-store
//! byte-identity. The corpus is deterministic from fixed seeds — a
//! red run here is a red run everywhere.
//!
//! Scaling: the PR gate checks 4 blocks × 50 seeds = 200 pairs. The
//! nightly job sets `DISE_CORPUS_SCALE=10` to multiply every block.
//! On failure, the offending pair's sources and the harness verdict are
//! dumped under `DISE_CORPUS_FAILURE_DIR` (default
//! `target/corpus-failures/<seed>/`) so the seed can be replayed with
//! `dise gen --seed <seed> --verify`.

use dise::gen::{check_pair, evolve, GenParams, Scenario};

/// Per-block seed count multiplier (`DISE_CORPUS_SCALE`, default 1).
fn scale() -> u64 {
    std::env::var("DISE_CORPUS_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

const BLOCK: u64 = 50;

/// Derives a diverse scenario shape from the seed: arms 2–4, guard depth
/// 1–2, helpers 0–2 (0 = call-free, exercising the no-summary path),
/// call depth 1–2, globals 2–3. Small sizes keep the debug-mode gate
/// fast; the 10–100x sizes are covered by `scaled_smoke_pair` below and
/// the `generated_scale` benchmark.
fn params_for(seed: u64) -> GenParams {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    GenParams {
        seed,
        arms: 2 + (mix % 3) as usize,
        guard_depth: 1 + ((mix >> 8) % 2) as usize,
        helpers: ((mix >> 16) % 3) as usize,
        call_depth: 1 + ((mix >> 24) % 2) as usize,
        globals: 2 + ((mix >> 32) % 2) as usize,
    }
}

/// Dumps a failing pair for offline replay and returns the dump path.
fn dump_failure(seed: u64, base: &Scenario, modified: &Scenario, detail: &str) -> String {
    let root = std::env::var("DISE_CORPUS_FAILURE_DIR")
        .unwrap_or_else(|_| "target/corpus-failures".to_string());
    let dir = std::path::Path::new(&root).join(seed.to_string());
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("base.mj"), base.source())?;
        std::fs::write(dir.join("mod.mj"), modified.source())?;
        std::fs::write(dir.join("failure.txt"), detail)?;
        Ok(())
    };
    match write() {
        Ok(()) => dir.display().to_string(),
        Err(e) => format!("<dump failed: {e}>"),
    }
}

/// Runs the harness over one block of seeds, dumping and panicking on the
/// first failure.
fn run_block(block: u64) {
    let count = BLOCK * scale();
    for i in 0..count {
        // Spread blocks across disjoint, scale-independent seed ranges so
        // nightly (scale 10) strictly extends the PR gate's seeds.
        let seed = block * 1_000_000 + i;
        let base = Scenario::generate(&params_for(seed));
        let edits = 1 + (seed % 3) as usize;
        let evolution = evolve(&base, seed, edits);
        if let Err(failure) = check_pair(&base, &evolution) {
            let detail = format!(
                "seed: {seed}\nparams: {:?}\nedits: {:?}\n\n{failure}\n",
                base.params(),
                evolution
                    .edits
                    .iter()
                    .map(|e| e.description.as_str())
                    .collect::<Vec<_>>()
            );
            let dump = dump_failure(seed, &base, &evolution.modified, &detail);
            panic!("corpus pair failed (seed {seed}, dumped to {dump}):\n{detail}");
        }
    }
}

#[test]
fn corpus_block_0() {
    run_block(0);
}

#[test]
fn corpus_block_1() {
    run_block(1);
}

#[test]
fn corpus_block_2() {
    run_block(2);
}

#[test]
fn corpus_block_3() {
    run_block(3);
}

/// The harness verdicts themselves are deterministic: re-checking the
/// same pair observes identical structural counts.
#[test]
fn corpus_is_deterministic() {
    let seed = 424_242;
    let base = Scenario::generate(&params_for(seed));
    let evolution = evolve(&base, seed, 2);
    let a = check_pair(&base, &evolution).expect("pair passes");
    let b = check_pair(&base, &evolution).expect("pair passes again");
    assert_eq!(a.ground_truth_markers, b.ground_truth_markers);
    assert_eq!(a.ground_truth_nodes, b.ground_truth_nodes);
    assert_eq!(a.affected_nodes, b.affected_nodes);
    assert_eq!(a.directed_paths, b.directed_paths);
    assert_eq!(a.full_paths, b.full_paths);
}

/// One pair at ~10x the hand-written artifacts' size: the contracts must
/// hold at scale, not just on toy programs (the 100x sizes run in the
/// `generated_scale` benchmark, where wall-clock is budgeted for).
#[test]
fn scaled_smoke_pair() {
    let base = Scenario::generate(&GenParams {
        seed: 77,
        arms: 24,
        guard_depth: 3,
        helpers: 4,
        call_depth: 2,
        globals: 3,
    });
    assert!(
        base.stmt_count() >= 200,
        "smoke pair too small: {} statements",
        base.stmt_count()
    );
    let evolution = evolve(&base, 77, 4);
    let report = check_pair(&base, &evolution).expect("scaled pair passes all three checks");
    assert!(report.ground_truth_nodes >= report.ground_truth_markers);
    assert!(report.directed_paths > 0);
    assert!(report.warm_affected_reused);
}
