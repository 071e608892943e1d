//! `dise` — the command-line front end.
//!
//! ```text
//! dise run <v1.mj> <v2.mj> [<v3.mj> …] <proc> [--full] [--trace] [--simplify]
//!          [--reaching-defs] [--summaries on|off]
//!          [--store DIR] [--stats json|text]
//!          [--trace-json FILE] [--trace-chrome FILE]
//!     Diff consecutive program versions and report the affected path
//!     conditions of each hop. With two files this is the classic single
//!     run; with more, the hops chain through one analysis session per
//!     pair and the solver's warm trie transfers hop-to-hop in process
//!     (results are byte-identical to independent runs — chaining only
//!     moves solver work).
//!     --full           also run full symbolic execution for comparison
//!     --trace          print the Fig. 5(b) and Table 1 style traces
//!     --simplify       subsume redundant bounds in printed path conditions
//!     --reaching-defs  use the precise data-flow premise (ablation mode)
//!     --summaries      procedure-summary mode for the --full run (default
//!                      `on`): `on` explores each callee once and instantiates
//!                      the interned summary at every call site, `off`
//!                      always inlines. Path conditions are byte-identical
//!                      across modes; summaries only remove solver work.
//!                      Directed (DiSE) runs always inline — their
//!                      affected-location analysis is defined over the
//!                      flattened CFG
//!     --store DIR      persistent analysis store (default: the DISE_STORE
//!                      environment variable; unset = no persistence):
//!                      warm-starts the solver from the previous run of
//!                      this procedure — same version or an earlier one —
//!                      and records this run's state back. Output is
//!                      byte-identical to a cold run; a damaged store
//!                      degrades to cold with a one-line warning
//!     --stats json|text stats output format (default `text`): `text`
//!                      prints the classic `solver:`/`stages:`/`store:`
//!                      lines, `json` replaces every stats line
//!                      with machine-readable metrics-registry dumps (one
//!                      JSON object per line — strip with `grep -v '^{'`
//!                      to byte-diff the analysis verdict). Both formats
//!                      read the same registry
//!     --trace-json FILE  write the run's structured trace — spans,
//!                      warnings, and registry dumps, one versioned JSON
//!                      object per line — to FILE (validate with
//!                      `dise trace validate FILE`)
//!     --trace-chrome FILE  write the run's spans as a Chrome
//!                      `trace_event` document loadable in
//!                      `chrome://tracing` or Perfetto
//!
//! dise profile <base.mj> <modified.mj> <proc> [--full]
//!     Run the pipeline with tracing enabled and print the hierarchical
//!     span tree — per-stage wall clock with solver-call and cache-hit
//!     attribution — plus how many pipeline solver checks the named
//!     stages account for, and the directed explore stage split into
//!     solver / filter / stepping time with its cost per state. --full
//!     also profiles the full exploration (summary builds included) and
//!     prints its cost per state.
//!
//! dise trace validate <FILE>
//!     Check a `--trace-json` log against the trace-event schema.
//!
//! dise evolve <base.mj> <modified.mj> <proc>
//!     All four evolution applications — witness generation, differential
//!     summarization, fault localization, and the impact report — off ONE
//!     shared analysis session: a single flatten/diff/fixpoint/exploration
//!     serves every application, with output byte-identical to running
//!     the four standalone subcommands.
//!
//! dise gen [--seed N] [--pairs N] [--edits N] [--arms N] [--guard-depth N]
//!          [--helpers N] [--call-depth N] [--globals N] [--out DIR] [--verify]
//!     Generate deterministic (base, modified) scenario pairs with
//!     marker-tracked ground truth (see `dise-gen`). Pair k uses seed
//!     `--seed + k`; equal arguments produce byte-identical programs.
//!     --out DIR   write pairNNNN_base.mj / pairNNNN_mod.mj plus a
//!                 manifest.json recording params, edits, and ground-truth
//!                 markers
//!     --verify    run the three-check differential harness on every pair
//!                 (ground-truth coverage, summaries on/off
//!                 equivalence, warm ≡ cold ≡ session) and fail on the
//!                 first violation
//!
//! dise serve [--cache-bytes N] [--request-workers N]
//!            [--store DIR] [--trace-json DIR] [--listen ADDR]
//!     Resident analysis service: newline-delimited JSON-RPC 2.0 over
//!     stdin/stdout (or a TCP listener with --listen). Methods `analyze`,
//!     `evolve`, and `chain` expose the corresponding subcommands;
//!     identical requests answer from an in-memory session cache or
//!     coalesce onto one in-flight exploration, and `status`, `evict`,
//!     and `shutdown` administer the server. Responses may arrive out of
//!     order — clients match on the echoed `id`. The deterministic
//!     members of each response are byte-identical to the one-shot
//!     subcommand's output (for `analyze`, the indented PC block of
//!     `dise run … --stats json` minus the registry lines).
//!     --cache-bytes N    session-cache byte budget (default 64 MiB)
//!     --request-workers N request-handler threads, and so the bound on
//!                        concurrent explorations (default: available
//!                        parallelism + 2, at most 32)
//!     --store DIR        shared persistent store (default DISE_STORE);
//!                        saves take the store's advisory lock, so the
//!                        server can share DIR with one-shot runs
//!     --trace-json DIR   write one validated trace log per request to
//!                        DIR/<request_id>.jsonl
//!     --listen ADDR      serve TCP connections on ADDR (e.g.
//!                        127.0.0.1:7645) instead of stdin/stdout
//!
//! dise store stat [DIR]
//! dise store clear [DIR]
//!     Inspect or empty a persistent analysis store (DIR defaults to the
//!     DISE_STORE environment variable).
//!
//! dise tests <base.mj> <modified.mj> <proc>
//!     Regression-testing mode (§5.2): generate the old suite, select and
//!     augment for the new version.
//!
//! dise inspect <file.mj> <proc> [--dot]
//!     Parse, type-check, and describe one procedure; --dot emits the CFG
//!     as Graphviz.
//!
//! dise witness <base.mj> <modified.mj> <proc>
//!     Solve every affected path condition, replay it on both versions,
//!     and report the inputs on which the versions observably differ.
//!
//! dise localize <base.mj> <modified.mj> <proc> [--formula ochiai|tarantula|jaccard|dstar2]
//!     Spectrum fault localization: replay the DiSE-derived suite on the
//!     modified version and rank statements by suspiciousness.
//!
//! dise classify <base.mj> <modified.mj> <proc>
//!     Differential summarization: solver-checked classification of every
//!     affected path as effect-preserving or diverging.
//!
//! dise impact <base.mj> <modified.mj> [--dot]
//!     System-level change impact: call-graph propagation plus per-
//!     procedure DiSE on every impacted procedure; --dot emits the call
//!     graph with the impact overlaid.
//!
//! dise report <base.mj> <modified.mj> <proc>
//!     Render the Markdown change-impact report.
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use dise_core::dise::DiseConfig;
use dise_core::metrics::{exec_registry, result_registry, stage_registry};
use dise_core::report::{
    duration_mmss, explore_split_line, full_explore_line, solver_stats_line, stage_stats_line,
    store_stats_line, summary_stats_line, verdict_pc_block,
};
use dise_core::session::AnalysisSession;
use dise_core::DataflowPrecision;
use dise_ir::Program;
use dise_trace::{stats_record, MetricsRegistry, Stability, TraceHandle, Tracer};

/// The one warning channel: every CLI warning goes to stderr with the
/// same prefix, so stdout stays byte-diffable.
fn warn(message: &str) {
    eprintln!("warning: {message}");
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    for arg in &args {
        if arg.starts_with("--") {
            flags.push(arg.as_str());
        } else {
            positional.push(arg.as_str());
        }
    }
    match positional.first().copied() {
        Some("run") => run_command(&args),
        Some("profile") => profile_command(&positional[1..], &flags),
        Some("trace") => trace_command(&positional[1..]),
        Some("evolve") => evolve_command(&positional[1..], &flags),
        Some("gen") => gen_command(&args),
        Some("serve") => serve_command(&args),
        Some("store") => store_command(&positional[1..]),
        Some("tests") => tests_command(&positional[1..]),
        Some("inspect") => inspect_command(&positional[1..], &flags),
        Some("witness") => witness_command(&positional[1..]),
        Some("classify") => classify_command(&positional[1..]),
        Some("localize") => localize_command(&positional[1..], &args),
        Some("impact") => impact_command(&positional[1..], &flags),
        Some("report") => report_command(&positional[1..]),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

const USAGE: &str = "usage:
  dise run <v1.mj> <v2.mj> [<v3.mj> ...] <proc> [--full] [--trace] [--simplify] [--reaching-defs] [--summaries on|off] [--store DIR] [--stats json|text] [--trace-json FILE] [--trace-chrome FILE]
  dise profile <base.mj> <modified.mj> <proc> [--full]
  dise trace validate <FILE>
  dise evolve <base.mj> <modified.mj> <proc>
  dise gen [--seed N] [--pairs N] [--edits N] [--arms N] [--guard-depth N] [--helpers N] [--call-depth N] [--globals N] [--out DIR] [--verify]
  dise serve [--cache-bytes N] [--request-workers N] [--store DIR] [--trace-json DIR] [--listen ADDR]
  dise store stat|clear [DIR]
  dise tests <base.mj> <modified.mj> <proc>
  dise inspect <file.mj> <proc> [--dot]
  dise witness <base.mj> <modified.mj> <proc>
  dise classify <base.mj> <modified.mj> <proc>
  dise localize <base.mj> <modified.mj> <proc> [--formula <name>]
  dise impact <base.mj> <modified.mj> [--dot]
  dise report <base.mj> <modified.mj> <proc>";

fn load(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let program = dise_ir::parse_program(&source).map_err(|e| format!("{path}: {e}"))?;
    dise_ir::check_program(&program).map_err(|e| format!("{path}: {e}"))?;
    if program.procs.is_empty() {
        return Err(format!(
            "{path}: program declares no procedures (nothing to analyze)"
        ));
    }
    Ok(program)
}

fn parse_summaries_value(value: &str) -> Result<dise_symexec::SummaryMode, String> {
    dise_symexec::SummaryMode::parse(value)
        .ok_or_else(|| "--summaries expects `on` or `off`".to_string())
}

/// `--stats json|text` → whether stats go out as registry dumps.
fn parse_stats_value(value: &str) -> Result<bool, String> {
    match value {
        "json" => Ok(true),
        "text" => Ok(false),
        _ => Err("--stats expects `json` or `text`".to_string()),
    }
}

/// `run` parses its own arguments: `--summaries` and others take a
/// value (`--summaries on` or `--summaries=on`), so the generic
/// flag/positional split of [`dispatch`] would misfile the value as a
/// positional; unknown flags and stray positionals are rejected instead
/// of silently ignored.
fn run_command(args: &[String]) -> Result<(), String> {
    const KNOWN_FLAGS: [&str; 4] = ["--full", "--trace", "--simplify", "--reaching-defs"];
    let mut summaries = dise_symexec::ExecConfig::default().summaries;
    let mut store: Option<std::path::PathBuf> = std::env::var_os("DISE_STORE")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from);
    let mut stats_json = false;
    let mut trace_json: Option<std::path::PathBuf> = None;
    let mut trace_chrome: Option<std::path::PathBuf> = None;
    let mut flags: Vec<&str> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut seen_command = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = arg.strip_prefix("--summaries=") {
            summaries = parse_summaries_value(value)?;
        } else if arg == "--summaries" {
            let value = iter
                .next()
                .ok_or_else(|| "--summaries expects `on` or `off`".to_string())?;
            summaries = parse_summaries_value(value)?;
        } else if let Some(value) = arg.strip_prefix("--store=") {
            store = Some(std::path::PathBuf::from(value));
        } else if arg == "--store" {
            let value = iter
                .next()
                .ok_or_else(|| "--store expects a directory path".to_string())?;
            store = Some(std::path::PathBuf::from(value));
        } else if let Some(value) = arg.strip_prefix("--stats=") {
            stats_json = parse_stats_value(value)?;
        } else if arg == "--stats" {
            let value = iter
                .next()
                .ok_or_else(|| "--stats expects `json` or `text`".to_string())?;
            stats_json = parse_stats_value(value)?;
        } else if let Some(value) = arg.strip_prefix("--trace-json=") {
            trace_json = Some(std::path::PathBuf::from(value));
        } else if arg == "--trace-json" {
            let value = iter
                .next()
                .ok_or_else(|| "--trace-json expects an output file path".to_string())?;
            trace_json = Some(std::path::PathBuf::from(value));
        } else if let Some(value) = arg.strip_prefix("--trace-chrome=") {
            trace_chrome = Some(std::path::PathBuf::from(value));
        } else if arg == "--trace-chrome" {
            let value = iter
                .next()
                .ok_or_else(|| "--trace-chrome expects an output file path".to_string())?;
            trace_chrome = Some(std::path::PathBuf::from(value));
        } else if arg.starts_with("--") {
            if !KNOWN_FLAGS.contains(&arg.as_str()) {
                return Err(format!("unknown flag `{arg}` for `run`\n{USAGE}"));
            }
            flags.push(arg.as_str());
        } else if !seen_command && arg == "run" {
            seen_command = true;
        } else {
            positional.push(arg.as_str());
        }
    }
    let flags = &flags;
    // `run v1 v2 [v3 …] proc`: at least two version files, last
    // positional is the procedure.
    if positional.len() < 3 {
        return Err(USAGE.to_string());
    }
    let proc_name = positional[positional.len() - 1];
    let version_paths = &positional[..positional.len() - 1];
    let versions: Vec<Program> = version_paths
        .iter()
        .map(|path| load(path))
        .collect::<Result<_, _>>()?;
    let tracer = if trace_json.is_some() || trace_chrome.is_some() {
        Some(Arc::new(Tracer::new()))
    } else {
        None
    };
    let config = DiseConfig {
        exec: dise_symexec::ExecConfig {
            summaries,
            tracer: tracer.as_ref().map(|t| TraceHandle::new(t.clone())),
            ..Default::default()
        },
        precision: if flags.contains(&"--reaching-defs") {
            DataflowPrecision::ReachingDefs
        } else {
            DataflowPrecision::CfgPath
        },
        trace_affected: flags.contains(&"--trace"),
        trace_directed: flags.contains(&"--trace"),
        store,
    };

    // One session per hop; hop N+1 inherits hop N's warm solver state in
    // process via AnalysisSession::advance.
    let mut session = AnalysisSession::open(&versions[0], &versions[1], proc_name, config)
        .map_err(|e| e.to_string())?;
    let hops = versions.len() - 1;
    let mut scopes: Vec<(String, MetricsRegistry)> = Vec::new();
    for hop in 0..hops {
        if hops > 1 {
            if hop > 0 {
                println!();
            }
            println!(
                "=== {} -> {} ===",
                version_paths[hop],
                version_paths[hop + 1]
            );
        }
        let scope_prefix = if hops > 1 {
            format!("hop{}.", hop + 1)
        } else {
            String::new()
        };
        print_hop(&mut session, flags, stats_json, &scope_prefix, &mut scopes)?;
        if hop + 2 <= hops {
            session = session
                .advance(&versions[hop + 2])
                .map_err(|e| e.to_string())?;
        }
    }
    if let Some(tracer) = &tracer {
        let events = tracer.events();
        if let Some(path) = &trace_json {
            let log = dise_trace::event_log(&events, &scopes, &format!("dise run {proc_name}"));
            std::fs::write(path, log)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        }
        if let Some(path) = &trace_chrome {
            std::fs::write(path, dise_trace::chrome_trace(&events))
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Runs one session hop to completion and prints the standard `run`
/// report — the single invocation/report path every `run`-shaped command
/// shares. Every stats line is derived from the hop's metrics registry;
/// `stats_json` swaps the human-readable lines for the registry dump
/// itself (one JSON object per line). The registries are appended to
/// `scopes` for the trace exporters.
fn print_hop(
    session: &mut AnalysisSession,
    flags: &[&str],
    stats_json: bool,
    scope_prefix: &str,
    scopes: &mut Vec<(String, MetricsRegistry)>,
) -> Result<(), String> {
    let mut result = session.result().map_err(|e| e.to_string())?;
    if flags.contains(&"--full") {
        // Run (and cache) the full exploration before finalizing so the
        // summaries it built reach the store entry; printed further down.
        session.modified_full().map_err(|e| e.to_string())?;
    }
    let status = session.finalize().cloned();
    if let Some(warning) = status.as_ref().and_then(|s| s.warning.as_ref()) {
        warn(warning);
    }
    // The result was computed before finalize ran; fold the final store
    // status (save outcome included) into it so the registry sees it.
    result.store = status;
    let registry = result_registry(&result);
    let dise_scope = format!("{scope_prefix}dise");
    if stats_json {
        println!(
            "{}",
            stats_record(&dise_scope, Stability::Stable, &registry)
        );
        println!(
            "{}",
            stats_record(&dise_scope, Stability::Volatile, &registry)
        );
    } else {
        println!(
            "changed CFG nodes: {}   affected CFG nodes: {}",
            result.changed_nodes, result.affected_nodes
        );
        println!(
            "DiSE: {} affected path conditions, {} states, {}",
            result.summary.pc_count(),
            result.summary.stats().states_explored,
            duration_mmss(result.total_time)
        );
        println!("solver: {}", solver_stats_line(&registry));
        println!("stages: {}", stage_stats_line(&registry));
        if let Some(line) = store_stats_line(&registry) {
            println!("store: {line}");
        }
    }
    scopes.push((dise_scope, registry));
    // The verdict block every byte-identity consumer shares (see
    // `dise_core::report::verdict_pc_block`); `dise serve` renders its
    // responses through the same function.
    if flags.contains(&"--simplify") {
        print!(
            "{}",
            verdict_pc_block(dise_solver::simplify::simplify_pc_strings(
                result.summary.path_conditions()
            ))
        );
    } else {
        print!("{}", verdict_pc_block(result.affected_pc_strings()));
    }
    if flags.contains(&"--trace") {
        println!("\naffected-set fixpoint trace:");
        let cfg_mod = &session.diffed().map_err(|e| e.to_string())?.cfg_mod;
        print!("{}", result.affected.render_trace(cfg_mod));
        if let Some(trace) = &result.directed_trace {
            println!("\ndirected-search trace:");
            print!("{trace}");
        }
    }
    if flags.contains(&"--full") {
        let full = session.modified_full().map_err(|e| e.to_string())?;
        let mut full_registry = exec_registry(full.stats());
        full_registry.set_counter(
            "pipeline.pc_count",
            full.pc_count() as u64,
            Stability::Stable,
        );
        // Path conditions are the mode-independent verdict (CI diffs them
        // byte-for-byte across --summaries on/off); states and solver
        // work legitimately differ by mode and go on filterable lines.
        println!(
            "\nfull symbolic execution: {} path conditions",
            full.pc_count()
        );
        let full_scope = format!("{scope_prefix}full");
        if stats_json {
            println!(
                "{}",
                stats_record(&full_scope, Stability::Stable, &full_registry)
            );
            println!(
                "{}",
                stats_record(&full_scope, Stability::Volatile, &full_registry)
            );
        } else {
            println!(
                "full stats: {} states, {}",
                full.stats().states_explored,
                duration_mmss(full.stats().elapsed)
            );
            println!("solver: {}", solver_stats_line(&full_registry));
            if let Some(line) = summary_stats_line(&full_registry) {
                println!("summaries: {line}");
            }
        }
        print!("{}", verdict_pc_block(full.path_conditions()));
        scopes.push((full_scope, full_registry));
    }
    Ok(())
}

/// `dise profile` — run the pipeline with tracing on and print the
/// hierarchical span tree, then account for how many pipeline solver
/// checks landed inside a named stage span, and print the explore
/// split and the per-state cost of each exploration.
fn profile_command(positional: &[&str], flags: &[&str]) -> Result<(), String> {
    for flag in flags {
        if *flag != "--full" {
            return Err(format!("unknown flag `{flag}` for `profile`\n{USAGE}"));
        }
    }
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let tracer = Arc::new(Tracer::new());
    let mut config = DiseConfig::default();
    config.exec.tracer = Some(TraceHandle::new(tracer.clone()));
    let mut session =
        AnalysisSession::open(&base, &modified, proc_name, config).map_err(|e| e.to_string())?;
    let result = session.result().map_err(|e| e.to_string())?;
    let split = explore_split_line(
        &stage_registry(&result.stages),
        result.summary.stats().states_explored,
    );
    let mut total = result.summary.stats().solver.pipeline_checks();
    let mut full_line = None;
    if flags.contains(&"--full") {
        let full = session.modified_full().map_err(|e| e.to_string())?.stats();
        total += full.solver.pipeline_checks();
        full_line = Some(full_explore_line(full.elapsed, full.states_explored));
    }
    session.finalize();
    let events = tracer.events();
    print!("{}", dise_trace::render_profile(&events));
    // Stage spans carry their exploration's pipeline-check counter;
    // summary builds are excluded here because their solver work is not
    // part of the pipeline totals above.
    let attributed: u64 = events
        .iter()
        .filter_map(|event| match event {
            dise_trace::TraceEvent::Span(span)
                if matches!(
                    span.name.as_str(),
                    "stage.explore" | "stage.full_base" | "stage.full_modified"
                ) =>
            {
                Some(span)
            }
            _ => None,
        })
        .flat_map(|span| &span.counters)
        .filter(|(name, _)| name == "solver.pipeline_checks")
        .map(|(_, value)| value)
        .sum();
    let share = if total == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", attributed as f64 / total as f64 * 100.0)
    };
    println!(
        "attribution: {attributed} of {total} pipeline solver checks attributed to stage spans ({share})"
    );
    println!("explore split: {split}");
    if let Some(line) = full_line {
        println!("full explore: {line}");
    }
    Ok(())
}

/// `dise trace validate FILE` — check a `--trace-json` log against the
/// trace-event schema.
fn trace_command(positional: &[&str]) -> Result<(), String> {
    let ["validate", path] = positional else {
        return Err(USAGE.to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = dise_trace::validate_log(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid trace log (schema {}, {} span(s), {} warning(s), {} stats record(s))",
        dise_trace::TRACE_SCHEMA_VERSION,
        summary.spans,
        summary.warnings,
        summary.stats_records
    );
    Ok(())
}

/// `dise evolve` — all four evolution applications off one shared
/// analysis session. The printers are the ones the standalone
/// subcommands use, so the concatenated output is byte-identical to
/// running `witness`, `classify`, `localize`, `report` back to back
/// (CI pins this).
fn evolve_command(positional: &[&str], flags: &[&str]) -> Result<(), String> {
    // The standalone subcommands evolve mirrors take no flags either;
    // silently ignoring one (say, a misplaced --store) would diverge the
    // two paths CI pins as byte-identical.
    if let Some(flag) = flags.first() {
        return Err(format!("unknown flag `{flag}` for `evolve`\n{USAGE}"));
    }
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let mut session = AnalysisSession::open(&base, &modified, proc_name, DiseConfig::default())
        .map_err(|e| e.to_string())?;

    let witnesses = dise_evolution::witness::find_witnesses_with(
        &mut session,
        &dise_evolution::witness::WitnessConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print_witness_report(&witnesses);

    let summary = dise_evolution::diffsum::classify_changes_with(
        &mut session,
        &dise_evolution::diffsum::DiffSumConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print!("{}", summary.render());

    let localization = dise_evolution::localize::localize_change_with(
        &mut session,
        &dise_evolution::localize::LocalizeConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print_localization(&localization);

    let report = dise_evolution::report::impact_report_with(
        &mut session,
        &dise_evolution::report::ImpactConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print!("{report}");

    session.finalize();
    Ok(())
}

/// Parses a `--flag N` / `--flag=N` numeric value for `gen`.
fn parse_gen_count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} expects a non-negative integer"))
}

/// `dise gen` — emit deterministic scenario pairs and (optionally) run
/// the differential harness on them. Like `run`, it parses its own
/// arguments because every size knob takes a value.
fn gen_command(args: &[String]) -> Result<(), String> {
    let mut base_seed: u64 = 0;
    let mut pairs: usize = 1;
    let mut edits: usize = 2;
    let mut params = dise_gen::GenParams::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut verify = false;
    let mut seen_command = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // Every value flag accepts both `--flag value` and `--flag=value`.
        let mut value_of = |arg: &str, name: &str| -> Result<Option<String>, String> {
            if let Some(value) = arg.strip_prefix(&format!("{name}=")) {
                return Ok(Some(value.to_string()));
            }
            if arg == name {
                return iter
                    .next()
                    .map(|v| Some(v.clone()))
                    .ok_or_else(|| format!("{name} expects a value"));
            }
            Ok(None)
        };
        if let Some(value) = value_of(arg, "--seed")? {
            base_seed = value
                .parse::<u64>()
                .map_err(|_| "--seed expects a non-negative integer".to_string())?;
        } else if let Some(value) = value_of(arg, "--pairs")? {
            pairs = parse_gen_count("--pairs", &value)?;
        } else if let Some(value) = value_of(arg, "--edits")? {
            edits = parse_gen_count("--edits", &value)?;
        } else if let Some(value) = value_of(arg, "--arms")? {
            params.arms = parse_gen_count("--arms", &value)?;
        } else if let Some(value) = value_of(arg, "--guard-depth")? {
            params.guard_depth = parse_gen_count("--guard-depth", &value)?;
        } else if let Some(value) = value_of(arg, "--helpers")? {
            params.helpers = parse_gen_count("--helpers", &value)?;
        } else if let Some(value) = value_of(arg, "--call-depth")? {
            params.call_depth = parse_gen_count("--call-depth", &value)?;
        } else if let Some(value) = value_of(arg, "--globals")? {
            params.globals = parse_gen_count("--globals", &value)?;
        } else if let Some(value) = value_of(arg, "--out")? {
            out = Some(std::path::PathBuf::from(value));
        } else if arg == "--verify" {
            verify = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}` for `gen`\n{USAGE}"));
        } else if !seen_command && arg == "gen" {
            seen_command = true;
        } else {
            return Err(format!("unexpected argument `{arg}` for `gen`\n{USAGE}"));
        }
    }
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    let mut manifest_pairs = Vec::new();
    for k in 0..pairs {
        let seed = base_seed.wrapping_add(k as u64);
        let scenario = dise_gen::Scenario::generate(&dise_gen::GenParams {
            seed,
            ..params.clone()
        });
        let evolution = dise_gen::evolve(&scenario, seed, edits);
        let edit_tags: Vec<String> = evolution
            .edits
            .iter()
            .map(|e| format!("{}({})", e.kind.tag(), render_markers(&e.markers)))
            .collect();
        println!(
            "pair {k:04}: seed={seed} stmts={} procs={} edits=[{}]",
            scenario.stmt_count(),
            scenario.program().procs.len(),
            edit_tags.join(", ")
        );
        if let Some(dir) = &out {
            let base_file = format!("pair{k:04}_base.mj");
            let mod_file = format!("pair{k:04}_mod.mj");
            std::fs::write(dir.join(&base_file), scenario.source())
                .map_err(|e| format!("cannot write `{base_file}`: {e}"))?;
            std::fs::write(dir.join(&mod_file), evolution.modified.source())
                .map_err(|e| format!("cannot write `{mod_file}`: {e}"))?;
            let edits_json: Vec<String> = evolution
                .edits
                .iter()
                .map(|e| {
                    format!(
                        "{{\"kind\": \"{}\", \"markers\": [{}], \"description\": {}}}",
                        e.kind.tag(),
                        render_markers(&e.markers),
                        json_string(&e.description)
                    )
                })
                .collect();
            let gt: Vec<String> = evolution
                .ground_truth_markers()
                .iter()
                .map(|m| m.to_string())
                .collect();
            manifest_pairs.push(format!(
                "    {{\"seed\": {seed}, \"base\": \"{base_file}\", \"modified\": \"{mod_file}\", \
                 \"ground_truth_markers\": [{}], \"edits\": [{}]}}",
                gt.join(", "),
                edits_json.join(", ")
            ));
        }
        if verify {
            match dise_gen::check_pair(&scenario, &evolution) {
                Ok(report) => println!(
                    "  verify: ok ({} ground-truth node(s) covered, {} affected, \
                     {} directed path(s), warm reuse {})",
                    report.ground_truth_nodes,
                    report.affected_nodes,
                    report.directed_paths,
                    report.warm_affected_reused
                ),
                Err(failure) => {
                    return Err(format!("pair {k:04} (seed {seed}) failed: {failure}"));
                }
            }
        }
    }
    if let Some(dir) = &out {
        let manifest = format!(
            "{{\n  \"generator\": \"dise-gen\",\n  \"proc\": \"{}\",\n  \"params\": \
             {{\"seed\": {base_seed}, \"pairs\": {pairs}, \"edits\": {edits}, \"arms\": {}, \
             \"guard_depth\": {}, \"helpers\": {}, \"call_depth\": {}, \"globals\": {}}},\n  \
             \"pairs\": [\n{}\n  ]\n}}\n",
            dise_gen::PROC_NAME,
            params.arms,
            params.guard_depth,
            params.helpers,
            params.call_depth,
            params.globals,
            manifest_pairs.join(",\n")
        );
        std::fs::write(dir.join("manifest.json"), manifest)
            .map_err(|e| format!("cannot write manifest.json: {e}"))?;
        println!("wrote {pairs} pair(s) + manifest.json to {}", dir.display());
    }
    Ok(())
}

fn render_markers(markers: &[i64]) -> String {
    markers
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Minimal JSON string escaping for manifest descriptions (the generator
/// emits ASCII, but quoting defensively costs nothing).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `dise serve` — the resident analysis service (see `dise-serve`).
/// Parses its own arguments for the same reason `run` does: most flags
/// take a value.
fn serve_command(args: &[String]) -> Result<(), String> {
    let mut config = dise_serve::ServeConfig {
        store: std::env::var_os("DISE_STORE")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from),
        ..dise_serve::ServeConfig::default()
    };
    let mut request_workers = 0usize; // 0 = front-end default
    let mut listen: Option<String> = None;
    let parse_count = |flag: &str, value: &str| -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} expects a count of at least 1")),
        }
    };
    let mut seen_command = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            match arg.strip_prefix(&format!("{flag}=")) {
                Some(value) => Ok(value.to_string()),
                None => iter
                    .next()
                    .map(|v| v.to_string())
                    .ok_or_else(|| format!("{flag} expects a value")),
            }
        };
        if arg == "--cache-bytes" || arg.starts_with("--cache-bytes=") {
            config.cache_bytes = parse_count("--cache-bytes", &value_of("--cache-bytes")?)?;
        } else if arg == "--request-workers" || arg.starts_with("--request-workers=") {
            request_workers = parse_count("--request-workers", &value_of("--request-workers")?)?;
        } else if arg == "--store" || arg.starts_with("--store=") {
            config.store = Some(std::path::PathBuf::from(value_of("--store")?));
        } else if arg == "--trace-json" || arg.starts_with("--trace-json=") {
            config.trace_dir = Some(std::path::PathBuf::from(value_of("--trace-json")?));
        } else if arg == "--listen" || arg.starts_with("--listen=") {
            listen = Some(value_of("--listen")?);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}` for `serve`\n{USAGE}"));
        } else if !seen_command && arg == "serve" {
            seen_command = true;
        } else {
            return Err(format!("unexpected argument `{arg}` for `serve`\n{USAGE}"));
        }
    }
    let server = Arc::new(dise_serve::Server::new(config));
    match listen {
        Some(addr) => dise_serve::serve_tcp(server, &addr, request_workers, |bound| {
            eprintln!("dise serve: listening on {bound}");
        }),
        None => dise_serve::serve_stdio(server, request_workers),
    }
    .map_err(|e| format!("serve: {e}"))
}

/// `dise store stat|clear [DIR]` — inspect or empty a persistent
/// analysis store. `DIR` falls back to the `DISE_STORE` environment
/// variable.
fn store_command(positional: &[&str]) -> Result<(), String> {
    let (action, dir) = match positional {
        [action] => (*action, None),
        [action, dir] => (*action, Some(*dir)),
        _ => return Err(USAGE.to_string()),
    };
    let dir = match dir.map(std::path::PathBuf::from).or_else(|| {
        std::env::var_os("DISE_STORE")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    }) {
        Some(dir) => dir,
        None => {
            return Err("no store directory: pass one or set DISE_STORE".to_string());
        }
    };
    let store = dise_store::Store::open(&dir);
    match action {
        "stat" => {
            let entries = store.entries().map_err(|e| e.to_string())?;
            println!(
                "store {}: {} entr{}",
                dir.display(),
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            for (file, outcome) in entries {
                match outcome {
                    Ok(entry) => {
                        let sets = match &entry.affected {
                            Some(affected) => format!(
                                "{} changed / {} affected node(s)",
                                affected.changed_nodes,
                                affected.acn.len() + affected.awn.len()
                            ),
                            None => "no affected sets".to_string(),
                        };
                        let bytes = std::fs::metadata(dir.join(&file))
                            .map(|m| m.len())
                            .unwrap_or(0);
                        println!(
                            "  {}: {} run(s), {} affected pc(s), {sets}, {} decided prefix(es), \
                             versions {:08x}->{:08x}, summary {:016x}, kinds {}, {} bytes",
                            entry.proc_name,
                            entry.runs,
                            entry.pc_count,
                            entry.trie.decided(),
                            entry.base_fingerprint as u32,
                            entry.mod_fingerprint as u32,
                            entry.summary_digest,
                            entry.kinds(),
                            bytes,
                        )
                    }
                    // A damaged entry is a warning about the store, not
                    // part of its listing — stderr, like every other
                    // degradation warning.
                    Err(e) => warn(&format!("{file}: unreadable ({e})")),
                }
            }
            Ok(())
        }
        "clear" => {
            let removed = store.clear().map_err(|e| e.to_string())?;
            println!(
                "removed {removed} entr{} from {}",
                if removed == 1 { "y" } else { "ies" },
                dir.display()
            );
            Ok(())
        }
        other => Err(format!("unknown store action `{other}`\n{USAGE}")),
    }
}

fn tests_command(positional: &[&str]) -> Result<(), String> {
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    // The regression application rides the same staged session as every
    // other consumer: base full run, directed run, and both flattened
    // programs come from one pipeline.
    let mut session = AnalysisSession::open(&base, &modified, proc_name, DiseConfig::default())
        .map_err(|e| e.to_string())?;
    let plan = {
        let (base_flat, base_full, mod_flat, dise_summary) =
            session.regression_inputs().map_err(|e| e.to_string())?;
        dise_regression::regression_plan(base_flat, base_full, mod_flat, dise_summary)
    };
    session.finalize();
    println!("existing suite ({} tests)", plan.existing.len());
    println!(
        "selected {} existing test(s); {} new test(s) required",
        plan.selection.selected.len(),
        plan.selection.added.len()
    );
    for test in &plan.selection.selected {
        println!("  selected: {test}");
    }
    for test in &plan.selection.added {
        println!("  new:      {test}");
    }
    Ok(())
}

fn inspect_command(positional: &[&str], flags: &[&str]) -> Result<(), String> {
    let [path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let program = load(path)?;
    let flat = dise_ir::inline::inline_program(&program, proc_name).map_err(|e| e.to_string())?;
    let procedure = flat
        .proc(proc_name)
        .ok_or_else(|| format!("procedure `{proc_name}` not found"))?;
    let cfg = dise_cfg::build_cfg(procedure);
    if flags.contains(&"--dot") {
        print!("{}", dise_cfg::dot::to_dot(&cfg, &Default::default()));
        return Ok(());
    }
    println!(
        "{}: {} statements, CFG with {} nodes ({} conditionals, {} writes)",
        proc_name,
        procedure.body.stmt_count(),
        cfg.len(),
        cfg.cond_nodes().count(),
        cfg.write_nodes().count()
    );
    for id in cfg.node_ids() {
        let succs: Vec<String> = cfg
            .succs(id)
            .iter()
            .map(|(s, label)| match label {
                dise_cfg::EdgeLabel::Seq => s.to_string(),
                other => format!("{s}[{other}]"),
            })
            .collect();
        println!("  {id}: {:<40} -> {}", cfg.label(id), succs.join(", "));
    }
    Ok(())
}

fn witness_command(positional: &[&str]) -> Result<(), String> {
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let report = dise_evolution::witness::find_witnesses(
        &base,
        &modified,
        proc_name,
        &dise_evolution::witness::WitnessConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print_witness_report(&report);
    Ok(())
}

/// The `witness` report rendering, shared verbatim with `evolve` and
/// `dise serve` (see `dise_evolution::witness::render_report`).
fn print_witness_report(report: &dise_evolution::witness::WitnessReport) {
    print!("{}", dise_evolution::witness::render_report(report));
}

fn localize_command(positional: &[&str], args: &[String]) -> Result<(), String> {
    // `--formula <name>` contributes a bare value to the positional list;
    // only the first three positionals are paths and the procedure.
    let [base_path, mod_path, proc_name, ..] = positional else {
        return Err(USAGE.to_string());
    };
    let formula = match args
        .iter()
        .position(|a| a == "--formula")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("ochiai") => dise_evolution::localize::Formula::Ochiai,
        Some("tarantula") => dise_evolution::localize::Formula::Tarantula,
        Some("jaccard") => dise_evolution::localize::Formula::Jaccard,
        Some("dstar2") => dise_evolution::localize::Formula::DStar2,
        Some(other) => return Err(format!("unknown formula `{other}`")),
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let config = dise_evolution::localize::LocalizeConfig {
        formula,
        ..Default::default()
    };
    let outcome = dise_evolution::localize::localize_change(&base, &modified, proc_name, &config)
        .map_err(|e| e.to_string())?;
    print_localization(&outcome);
    Ok(())
}

/// The `localize` ranking rendering, shared verbatim with `evolve` and
/// `dise serve` (see `dise_evolution::localize::render_localization`).
fn print_localization(outcome: &dise_evolution::localize::ChangeLocalization) {
    print!("{}", dise_evolution::localize::render_localization(outcome));
}

fn classify_command(positional: &[&str]) -> Result<(), String> {
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let summary = dise_evolution::diffsum::classify_changes(
        &base,
        &modified,
        proc_name,
        &dise_evolution::diffsum::DiffSumConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print!("{}", summary.render());
    Ok(())
}

fn impact_command(positional: &[&str], flags: &[&str]) -> Result<(), String> {
    let [base_path, mod_path] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let result = dise_core::interproc::run_dise_system(
        &base,
        &modified,
        &dise_core::interproc::SystemConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    if flags.contains(&"--dot") {
        print!("{}", result.impact.to_dot());
        return Ok(());
    }
    println!("impacted procedures:");
    for proc_result in &result.procedures {
        println!(
            "  {}: {} — {} affected PCs, {} states",
            proc_result.name,
            proc_result.reason,
            proc_result.result.summary.pc_count(),
            proc_result.result.summary.stats().states_explored
        );
    }
    for (name, err) in &result.failed {
        println!("  {name}: impacted but not analyzable ({err})");
    }
    if !result.skipped.is_empty() {
        println!("skipped (unimpacted): {}", result.skipped.join(", "));
    }
    if !result.impact.removed.is_empty() {
        println!(
            "removed in modified version: {}",
            result.impact.removed.join(", ")
        );
    }
    println!(
        "total: {} affected path conditions, {} states, {}",
        result.total_affected_pcs(),
        result.total_states(),
        duration_mmss(result.total_time)
    );
    Ok(())
}

fn report_command(positional: &[&str]) -> Result<(), String> {
    let [base_path, mod_path, proc_name] = positional else {
        return Err(USAGE.to_string());
    };
    let base = load(base_path)?;
    let modified = load(mod_path)?;
    let text = dise_evolution::report::impact_report(
        &base,
        &modified,
        proc_name,
        &dise_evolution::report::ImpactConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}
