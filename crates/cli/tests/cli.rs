//! End-to-end tests of the `dise` binary: every subcommand, the error
//! paths, and the exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_fixture(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).expect("fixture writes");
    path
}

struct Fixture {
    _dir: tempdir::TempDir,
    base: PathBuf,
    modified: PathBuf,
}

/// Minimal stand-in for the `tempdir` crate: a unique directory under the
/// target tmp dir, removed on drop.
mod tempdir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new(prefix: &str) -> std::io::Result<TempDir> {
            let unique = format!(
                "{prefix}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            );
            let path = std::env::temp_dir().join(unique);
            std::fs::create_dir_all(&path)?;
            Ok(TempDir(path))
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn fixture() -> Fixture {
    let dir = tempdir::TempDir::new("dise-cli-test").expect("temp dir");
    let base = write_fixture(
        dir.path(),
        "base.mj",
        "int out;\nproc f(int x) { if (x > 0) { out = 1; } else { out = 2; } }\n",
    );
    let modified = write_fixture(
        dir.path(),
        "modified.mj",
        "int out;\nproc f(int x) { if (x >= 0) { out = 1; } else { out = 2; } }\n",
    );
    Fixture {
        _dir: dir,
        base,
        modified,
    }
}

fn dise(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dise"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The `.dise` entry files of a store directory, wherever the sharding
/// layout put them (top level for legacy stores, `xx/` subdirs today).
fn store_entry_files(dir: &std::path::Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .flat_map(|p| {
            if p.is_dir() {
                std::fs::read_dir(&p)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .collect()
            } else {
                vec![p]
            }
        })
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("dise"))
        .collect()
}

#[test]
fn run_reports_affected_path_conditions() {
    let fx = fixture();
    let out = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--full",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("affected path conditions"), "{text}");
    assert!(text.contains("X >= 0"), "{text}");
    assert!(text.contains("full symbolic execution"), "{text}");
}

#[test]
fn run_rejects_unknown_flags_and_bad_positionals() {
    let fx = fixture();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    // A typo'd flag must not be silently ignored, nor may the flags of
    // the deleted speculative sweep.
    for flag in [
        &["--job", "4"][..],
        &["--sweep-budget=0"][..],
        &["--heuristic=distance"][..],
    ] {
        let args = [&["run", base, modified, "f"][..], flag].concat();
        let out = dise(&args);
        assert!(!out.status.success(), "{flag:?}");
        assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
    }
    // Too few positionals trigger the usage error.
    let out = dise(&["run", base, "f"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    // In the multi-version grammar everything before the procedure is a
    // version file; a stray word makes `f` a (missing) file.
    let out = dise(&["run", base, modified, "f", "extra"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read `f`"), "{}", stderr(&out));
}

#[test]
fn run_chains_multiple_versions_with_identical_per_hop_output() {
    let fx = fixture();
    let dir = tempdir::TempDir::new("dise-cli-chain").expect("temp dir");
    // A third version: flip the boundary back but change the else value.
    let v3 = write_fixture(
        dir.path(),
        "v3.mj",
        "int out;\nproc f(int x) { if (x >= 0) { out = 1; } else { out = 3; } }\n",
    );
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    let v3 = v3.to_str().unwrap();

    let chained = dise(&["run", base, modified, v3, "f"]);
    assert!(chained.status.success(), "{}", stderr(&chained));
    let text = stdout(&chained);
    assert!(
        text.contains(&format!("=== {base} -> {modified} ===")),
        "{text}"
    );
    assert!(
        text.contains(&format!("=== {modified} -> {v3} ===")),
        "{text}"
    );

    // Per-hop path conditions equal the independent pairwise runs'.
    let pcs = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(str::to_owned)
            .collect()
    };
    let hop1 = dise(&["run", base, modified, "f"]);
    let hop2 = dise(&["run", modified, v3, "f"]);
    let mut expected = pcs(&hop1);
    expected.extend(pcs(&hop2));
    assert_eq!(pcs(&chained), expected, "chaining must not change results");
}

#[test]
fn evolve_rejects_flags() {
    let fx = fixture();
    let out = dise(&[
        "evolve",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--store=/tmp/nope",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
}

#[test]
fn evolve_output_matches_the_four_standalone_subcommands() {
    let fx = fixture();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    let evolve = dise(&["evolve", base, modified, "f"]);
    assert!(evolve.status.success(), "{}", stderr(&evolve));

    let mut standalone = String::new();
    for cmd in ["witness", "classify", "localize", "report"] {
        let out = dise(&[cmd, base, modified, "f"]);
        assert!(out.status.success(), "{cmd}: {}", stderr(&out));
        standalone.push_str(&stdout(&out));
    }
    assert_eq!(
        stdout(&evolve),
        standalone,
        "evolve must be byte-identical to the standalone subcommands"
    );
}

#[test]
fn tests_selects_and_augments() {
    let fx = fixture();
    let out = dise(&[
        "tests",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("existing suite"), "{text}");
    assert!(text.contains("selected"), "{text}");
}

#[test]
fn inspect_describes_and_dots() {
    let fx = fixture();
    let out = dise(&["inspect", fx.modified.to_str().unwrap(), "f"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("CFG with"), "{}", stdout(&out));

    let dot = dise(&["inspect", fx.modified.to_str().unwrap(), "f", "--dot"]);
    assert!(dot.status.success());
    assert!(stdout(&dot).starts_with("digraph"), "{}", stdout(&dot));
}

#[test]
fn witness_prints_the_boundary_input() {
    let fx = fixture();
    let out = dise(&[
        "witness",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 diverge"), "{text}");
    assert!(text.contains("[x = 0] out: 2 -> 1"), "{text}");
}

#[test]
fn classify_prints_verdicts() {
    let fx = fixture();
    let out = dise(&[
        "classify",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("diverges on out"), "{text}");
    assert!(text.contains("preserving"), "{text}");
}

#[test]
fn localize_accepts_formula_flag() {
    let fx = fixture();
    let out = dise(&[
        "localize",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--formula",
        "tarantula",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("formula tarantula"),
        "{}",
        stdout(&out)
    );

    let bad = dise(&[
        "localize",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--formula",
        "nonsense",
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("unknown formula"), "{}", stderr(&bad));
}

#[test]
fn impact_lists_and_dots() {
    let fx = fixture();
    let out = dise(&[
        "impact",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("f: body changed"), "{}", stdout(&out));

    let dot = dise(&[
        "impact",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "--dot",
    ]);
    assert!(dot.status.success());
    assert!(
        stdout(&dot).starts_with("digraph impact"),
        "{}",
        stdout(&dot)
    );
}

#[test]
fn report_renders_markdown() {
    let fx = fixture();
    let out = dise(&[
        "report",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("# Change impact: `f`"), "{text}");
    assert!(text.contains("## Regression suite"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dise(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = dise(&["run", "/nonexistent/a.mj", "/nonexistent/b.mj", "f"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn parse_error_points_at_the_file() {
    let dir = tempdir::TempDir::new("dise-cli-parse").expect("temp dir");
    let bad = write_fixture(dir.path(), "bad.mj", "proc f( { }");
    let out = dise(&["run", bad.to_str().unwrap(), bad.to_str().unwrap(), "f"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad.mj"), "{}", stderr(&out));
}

#[test]
fn run_with_store_warm_starts_and_matches_cold_output() {
    let fx = fixture();
    let store_dir = tempdir::TempDir::new("dise-cli-store").expect("temp dir");
    let store = store_dir.path().to_str().unwrap();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();

    let pcs = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(str::to_owned)
            .collect()
    };

    let cold = dise(&["run", base, modified, "f", "--store", store]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let cold_text = stdout(&cold);
    assert!(cold_text.contains("store: cold start"), "{cold_text}");
    assert!(cold_text.contains("saved"), "{cold_text}");

    let warm = dise(&["run", base, modified, "f", &format!("--store={store}")]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    let warm_text = stdout(&warm);
    assert!(warm_text.contains("store: warm start"), "{warm_text}");
    assert!(warm_text.contains("affected sets reused"), "{warm_text}");
    assert_eq!(pcs(&cold), pcs(&warm), "summaries must be byte-identical");

    // `store stat` sees the recorded entry; `store clear` empties it.
    let stat = dise(&["store", "stat", store]);
    assert!(stat.status.success(), "{}", stderr(&stat));
    let stat_text = stdout(&stat);
    assert!(stat_text.contains("1 entry"), "{stat_text}");
    assert!(stat_text.contains("f: 2 run(s)"), "{stat_text}");

    let clear = dise(&["store", "clear", store]);
    assert!(clear.status.success(), "{}", stderr(&clear));
    assert!(
        stdout(&clear).contains("removed 1 entry"),
        "{}",
        stdout(&clear)
    );
    let stat = dise(&["store", "stat", store]);
    assert!(stdout(&stat).contains("0 entries"), "{}", stdout(&stat));
}

#[test]
fn corrupt_store_entries_warn_and_fall_back_cold() {
    let fx = fixture();
    let store_dir = tempdir::TempDir::new("dise-cli-store-corrupt").expect("temp dir");
    let store = store_dir.path().to_str().unwrap();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();

    let cold = dise(&["run", base, modified, "f", "--store", store]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    // Truncate the single entry file (entries live in shard subdirs).
    let entry = store_entry_files(store_dir.path())
        .into_iter()
        .next()
        .expect("entry file exists");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let damaged = dise(&["run", base, modified, "f", "--store", store]);
    assert!(damaged.status.success(), "{}", stderr(&damaged));
    assert!(
        stderr(&damaged).contains("warning: analysis store:"),
        "{}",
        stderr(&damaged)
    );
    let text = stdout(&damaged);
    assert!(text.contains("store: cold start"), "{text}");
    // Same path conditions as the healthy cold run.
    let pcs = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(pcs(&cold), pcs(&damaged));
}

#[test]
fn store_command_requires_a_directory() {
    let out = Command::new(env!("CARGO_BIN_EXE_dise"))
        .args(["store", "stat"])
        .env_remove("DISE_STORE")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("DISE_STORE"), "{}", stderr(&out));
}

#[test]
fn dise_store_env_var_enables_persistence() {
    let fx = fixture();
    let store_dir = tempdir::TempDir::new("dise-cli-store-env").expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_dise"))
        .args([
            "run",
            fx.base.to_str().unwrap(),
            fx.modified.to_str().unwrap(),
            "f",
        ])
        .env("DISE_STORE", store_dir.path())
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("store: cold start"),
        "{}",
        stdout(&out)
    );
    assert_eq!(store_entry_files(store_dir.path()).len(), 1);
}

#[test]
fn run_stats_json_replaces_stats_lines_with_registry_dumps() {
    let fx = fixture();
    let out = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--full",
        "--stats",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // No prose stats lines in json mode — only registry dumps plus the
    // verdict lines (path conditions, section headers).
    for prose in ["DiSE:", "solver:", "stages:", "full stats:"] {
        assert!(!text.contains(prose), "{text}");
    }
    let dumps: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    // dise stable + volatile, full stable + volatile.
    assert_eq!(dumps.len(), 4, "{text}");
    for dump in &dumps {
        assert!(dump.contains(r#""type":"stats""#), "{dump}");
        assert!(dump.contains(r#""schema":1"#), "{dump}");
    }
    assert!(dumps[0].contains(r#""scope":"dise""#), "{}", dumps[0]);
    assert!(dumps[0].contains(r#""kind":"stable""#), "{}", dumps[0]);
    assert!(dumps[2].contains(r#""scope":"full""#), "{}", dumps[2]);
    // Path conditions still print for byte-diffing.
    assert!(text.contains("X >= 0"), "{text}");
    // The stable dump is byte-identical with summaries on or off — the
    // contract the CI byte-diff legs build on.
    let stable = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.contains(r#""kind":"stable""#))
            .map(str::to_owned)
            .collect()
    };
    let inlined = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--full",
        "--stats=json",
        "--summaries=off",
    ]);
    assert!(inlined.status.success(), "{}", stderr(&inlined));
    assert_eq!(stable(&out), stable(&inlined));
}

#[test]
fn run_rejects_a_bad_stats_value() {
    let fx = fixture();
    let out = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--stats",
        "yaml",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--stats"), "{}", stderr(&out));
}

#[test]
fn trace_json_export_validates_and_chrome_export_is_json() {
    let fx = fixture();
    let dir = tempdir::TempDir::new("dise-cli-trace").expect("temp dir");
    let trace_path = dir.path().join("trace.jsonl");
    let chrome_path = dir.path().join("chrome.json");
    let out = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--trace-json",
        trace_path.to_str().unwrap(),
        "--trace-chrome",
        chrome_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let log = std::fs::read_to_string(&trace_path).expect("trace log written");
    assert!(log.lines().next().unwrap().contains(r#""type":"meta""#));
    assert!(log.contains(r#""name":"stage.explore""#), "{log}");
    // Every line is one JSON object; `dise trace validate` agrees.
    let validated = dise(&["trace", "validate", trace_path.to_str().unwrap()]);
    assert!(validated.status.success(), "{}", stderr(&validated));
    assert!(
        stdout(&validated).contains("valid trace log"),
        "{}",
        stdout(&validated)
    );

    let chrome = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    assert!(chrome.trim_start().starts_with('['), "{chrome}");
    assert!(chrome.contains(r#""ph":"X""#), "{chrome}");
}

#[test]
fn trace_validate_rejects_damaged_logs() {
    let dir = tempdir::TempDir::new("dise-cli-trace-bad").expect("temp dir");
    let path = dir.path().join("bad.jsonl");
    std::fs::write(&path, "{\"type\":\"span\"}\n").unwrap();
    let out = dise(&["trace", "validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad.jsonl"), "{}", stderr(&out));
}

#[test]
fn profile_prints_the_span_tree_and_full_attribution() {
    let fx = fixture();
    let out = dise(&[
        "profile",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("session"), "{text}");
    for stage in [
        "stage.flatten",
        "stage.diff",
        "stage.affected",
        "stage.explore",
    ] {
        assert!(text.contains(&format!("  {stage}")), "{text}");
    }
    // Our instrumentation attributes every pipeline check to a stage.
    assert!(text.contains("(100.0%)"), "{text}");

    // --full adds the full-exploration span to the tree.
    let full = dise(&[
        "profile",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--full",
    ]);
    assert!(full.status.success(), "{}", stderr(&full));
    let text = stdout(&full);
    assert!(text.contains("stage.full_modified"), "{text}");
    assert!(text.contains("(100.0%)"), "{text}");
}

#[test]
fn store_stat_reports_unreadable_entries_on_stderr() {
    let fx = fixture();
    let store_dir = tempdir::TempDir::new("dise-cli-store-stat-warn").expect("temp dir");
    let store = store_dir.path().to_str().unwrap();
    let seeded = dise(&[
        "run",
        fx.base.to_str().unwrap(),
        fx.modified.to_str().unwrap(),
        "f",
        "--store",
        store,
    ]);
    assert!(seeded.status.success(), "{}", stderr(&seeded));
    // Truncate the entry so `store stat` cannot read it.
    let entry = store_entry_files(store_dir.path())
        .into_iter()
        .next()
        .expect("entry file exists");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let stat = dise(&["store", "stat", store]);
    assert!(stat.status.success(), "{}", stderr(&stat));
    // The listing itself stays on stdout; the damage report is a warning
    // on stderr, keeping stdout machine-readable.
    assert!(!stdout(&stat).contains("unreadable"), "{}", stdout(&stat));
    assert!(
        stderr(&stat).contains("warning:") && stderr(&stat).contains("unreadable"),
        "{}",
        stderr(&stat)
    );
}

#[test]
fn gen_is_deterministic_and_writes_pairs() {
    let dir = tempdir::TempDir::new("dise-gen-out").expect("temp dir");
    let out_a = dir.path().join("a");
    let out_b = dir.path().join("b");
    for out in [&out_a, &out_b] {
        let run = dise(&[
            "gen",
            "--seed",
            "11",
            "--pairs",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(run.status.success(), "{}", stderr(&run));
        assert!(stdout(&run).contains("pair 0000"), "{}", stdout(&run));
    }
    for name in [
        "pair0000_base.mj",
        "pair0000_mod.mj",
        "pair0001_base.mj",
        "pair0001_mod.mj",
        "manifest.json",
    ] {
        let a = std::fs::read(out_a.join(name)).expect(name);
        let b = std::fs::read(out_b.join(name)).expect(name);
        assert_eq!(a, b, "{name} differs between identical invocations");
    }
    // Base and modified genuinely differ, and both load back through the
    // normal `run` path (the generated pair is a valid version pair).
    assert_ne!(
        std::fs::read(out_a.join("pair0000_base.mj")).unwrap(),
        std::fs::read(out_a.join("pair0000_mod.mj")).unwrap()
    );
    let run = dise(&[
        "run",
        out_a.join("pair0000_base.mj").to_str().unwrap(),
        out_a.join("pair0000_mod.mj").to_str().unwrap(),
        "step",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert!(
        stdout(&run).contains("affected path conditions"),
        "{}",
        stdout(&run)
    );
}

#[test]
fn gen_verify_runs_the_differential_harness() {
    let out = dise(&["gen", "--seed", "5", "--pairs", "1", "--verify"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("verify: ok"), "{text}");
    assert!(text.contains("ground-truth node(s) covered"), "{text}");
}

#[test]
fn gen_rejects_unknown_flags_and_bad_values() {
    for bad in [
        &["gen", "--bogus"][..],
        &["gen", "--pairs", "many"][..],
        &["gen", "--seed"][..],
        &["gen", "stray"][..],
    ] {
        let out = dise(bad);
        assert!(!out.status.success(), "{bad:?}");
    }
}

#[test]
fn zero_procedure_programs_fail_with_a_clear_error() {
    let dir = tempdir::TempDir::new("dise-empty-prog").expect("temp dir");
    let empty = write_fixture(dir.path(), "empty.mj", "int out;\n");
    let fx = fixture();
    // `run` and `evolve` both reject the degenerate file with the same
    // one-line diagnostic, whichever side of the pair it appears on.
    for args in [
        &[
            "run",
            empty.to_str().unwrap(),
            fx.modified.to_str().unwrap(),
            "f",
        ][..],
        &[
            "run",
            fx.base.to_str().unwrap(),
            empty.to_str().unwrap(),
            "f",
        ][..],
        &[
            "evolve",
            empty.to_str().unwrap(),
            fx.modified.to_str().unwrap(),
            "f",
        ][..],
    ] {
        let out = dise(args);
        assert!(!out.status.success(), "{args:?}");
        let err = stderr(&out);
        assert!(
            err.contains("program declares no procedures (nothing to analyze)"),
            "{args:?}: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// `dise serve` — the resident analysis service over stdin/stdout.

/// Spawns `dise serve`, pipes `requests` (one JSON-RPC line each), closes
/// stdin, and returns the response lines.
fn serve_session(args: &[&str], requests: &[String]) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let mut child = Command::new(env!("CARGO_BIN_EXE_dise"))
        .arg("serve")
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        for request in requests {
            writeln!(stdin, "{request}").expect("request writes");
        }
        // Dropping stdin closes the pipe; the server drains and exits.
    }
    let stdout = child.stdout.take().expect("stdout piped");
    let lines: Vec<String> = BufReader::new(stdout)
        .lines()
        .map(|l| l.expect("response line reads"))
        .collect();
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    lines
}

/// Finds the response with the given numeric id among out-of-order lines.
fn response_with_id(lines: &[String], id: u64) -> dise_trace::json::JsonValue {
    for line in lines {
        let value = dise_trace::json::parse(line)
            .unwrap_or_else(|e| panic!("response `{line}` parses: {e}"));
        if value
            .get("id")
            .and_then(dise_trace::json::JsonValue::as_u64)
            == Some(id)
        {
            return value;
        }
    }
    panic!("no response with id {id} in {lines:?}");
}

fn result_str(value: &dise_trace::json::JsonValue, key: &str) -> String {
    value
        .get("result")
        .and_then(|r| r.get(key))
        .and_then(dise_trace::json::JsonValue::as_str)
        .unwrap_or_else(|| panic!("result.{key} missing in {value:?}"))
        .to_string()
}

#[test]
fn serve_analyze_output_is_byte_identical_to_the_one_shot_residue() {
    let fx = fixture();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    // The one-shot verdict residue: `--stats json` stdout minus the
    // registry lines.
    let one_shot = dise(&["run", base, modified, "f", "--stats", "json"]);
    assert!(one_shot.status.success(), "{}", stderr(&one_shot));
    let residue: String = stdout(&one_shot)
        .lines()
        .filter(|l| !l.starts_with('{'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!residue.is_empty());

    let request = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"analyze\",\"params\":{{\
         \"request_id\":\"e2e\",\"proc\":\"f\",\"base_path\":{base:?},\"mod_path\":{modified:?}}}}}",
    );
    let lines = serve_session(&[], &[request.clone(), request]);
    assert_eq!(lines.len(), 2, "one response per request: {lines:?}");
    let value = response_with_id(&lines, 1);
    assert_eq!(
        result_str(&value, "output"),
        residue,
        "serve output must be byte-identical to the one-shot residue"
    );
    assert_eq!(result_str(&value, "request_id"), "e2e");
    // The repeat is a cache hit or coalesced follower: same bytes.
    assert_eq!(lines[0], lines[1], "identical requests, identical bytes");
}

#[test]
fn serve_evolve_output_is_byte_identical_to_dise_evolve() {
    let fx = fixture();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    let one_shot = dise(&["evolve", base, modified, "f"]);
    assert!(one_shot.status.success(), "{}", stderr(&one_shot));

    let request = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"evolve\",\"params\":{{\
         \"proc\":\"f\",\"base_path\":{base:?},\"mod_path\":{modified:?}}}}}",
    );
    let lines = serve_session(&[], &[request]);
    let value = response_with_id(&lines, 4);
    assert_eq!(
        result_str(&value, "output"),
        stdout(&one_shot),
        "serve evolve must render exactly what `dise evolve` prints"
    );
}

#[test]
fn serve_shares_a_store_with_one_shot_runs() {
    let fx = fixture();
    let store_dir = tempdir::TempDir::new("dise-cli-serve-store").expect("temp dir");
    let store = store_dir.path().to_str().unwrap();
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();

    // The server's exploration populates the shared store (saves take
    // the store's advisory lock)...
    let request = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"analyze\",\"params\":{{\
         \"proc\":\"f\",\"base_path\":{base:?},\"mod_path\":{modified:?}}}}}",
    );
    let lines = serve_session(&["--store", store], &[request]);
    assert!(lines[0].contains("\"result\""), "{lines:?}");

    // ...and a one-shot run warm-starts from it afterwards.
    let warm = dise(&["run", base, modified, "f", "--store", store]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(
        stdout(&warm).contains("store: warm start"),
        "{}",
        stdout(&warm)
    );
    let stat = dise(&["store", "stat", store]);
    assert!(stdout(&stat).contains("1 entry"), "{}", stdout(&stat));
}

#[test]
fn serve_status_shutdown_and_bad_requests() {
    let requests = vec![
        "nonsense".to_string(),
        r#"{"jsonrpc":"2.0","id":2,"method":"status"}"#.to_string(),
        r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#.to_string(),
    ];
    let lines = serve_session(&[], &requests);
    assert!(
        lines.iter().any(|l| l.contains("-32700")),
        "parse error reported: {lines:?}"
    );
    let status = response_with_id(&lines, 2);
    assert!(
        status
            .get("result")
            .and_then(|r| r.get("cache_budget"))
            .is_some(),
        "{status:?}"
    );
    let bye = response_with_id(&lines, 3);
    assert!(
        bye.get("result")
            .and_then(|r| r.get("ok"))
            .and_then(dise_trace::json::JsonValue::as_bool)
            == Some(true),
        "{bye:?}"
    );
}

#[test]
fn serve_writes_one_validated_trace_log_per_request() {
    let fx = fixture();
    let trace_dir = tempdir::TempDir::new("dise-cli-serve-trace").expect("temp dir");
    let base = fx.base.to_str().unwrap();
    let modified = fx.modified.to_str().unwrap();
    let request = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"analyze\",\"params\":{{\
         \"request_id\":\"traced-1\",\"proc\":\"f\",\"base_path\":{base:?},\"mod_path\":{modified:?}}}}}",
    );
    let trace = trace_dir.path().to_str().unwrap();
    serve_session(&["--trace-json", trace], &[request]);
    let log = trace_dir.path().join("traced-1.jsonl");
    assert!(log.exists(), "per-request trace log written");
    let validated = dise(&["trace", "validate", log.to_str().unwrap()]);
    assert!(
        validated.status.success(),
        "trace log validates: {}",
        stderr(&validated)
    );
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(
        text.contains("request.traced-1"),
        "root span carries the request id"
    );
    assert!(
        text.contains("\"scope\":\"traced-1.dise\""),
        "stats records are scoped by the request id"
    );
}
