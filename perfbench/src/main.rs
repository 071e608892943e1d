//! perfbench — directed incremental symbolic execution against its
//! control, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload gen_wide|paper_artifacts|serve_mix \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload calls the library in process, on one thread, at
//! `jobs = 1`. One *operation* is one directed pipeline on one pair
//! (`AnalysisSession::open` → `diffed` → `affected` → `explored`, fresh
//! session, no store) or, on `serve_mix`, one request through
//! `Server::handle_line`. Right after each operation (on `serve_mix`,
//! after each round of requests) the paper's control runs on the same
//! input — full symbolic execution of each modified version — so both
//! see the same host conditions. Every operation's output is checked (see
//! [`batch`] and [`serve_mix`]); a failed check counts as a failed
//! operation.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced rounds with rounds that time every
//! layer's public entry point from outside, and prints the per-layer
//! metrics. The last stdout line is the result object; the line
//! before it records the run's inputs, shapes and sample counts.

mod batch;
mod report;
mod rng;
mod serve_mix;
mod stats;

use std::time::{Duration, Instant};

use dise_core::dise::DiseConfig;
use dise_symexec::{ExecConfig, HeuristicChoice, SummaryMode, SweepBudget};

use report::Outcome;

/// Environment variables the library reads for its defaults. They are
/// removed before anything runs, so `ExecConfig::default()` inside the
/// server resolves the same way on every host.
const DISE_ENV: [&str; 5] = [
    "DISE_JOBS",
    "DISE_SWEEP_BUDGET",
    "DISE_HEURISTIC",
    "DISE_SUMMARIES",
    "DISE_STORE",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The one configuration every directed run and control run uses, built
/// field by field rather than from the environment: serial, no
/// speculative sweep, the distance heuristic, no procedure summaries (the
/// control is plain full symbolic execution of the flattened modified
/// version, as in the paper), traces recorded for the Theorem 3.10
/// check, no depth or state bound, and no store.
pub fn dise_config() -> DiseConfig {
    DiseConfig {
        exec: ExecConfig {
            jobs: 1,
            sweep_budget: SweepBudget::Tokens(0),
            heuristic: HeuristicChoice::Distance,
            summaries: SummaryMode::Off,
            record_traces: true,
            depth_bound: None,
            max_states: None,
            ..ExecConfig::default()
        },
        store: None,
        ..DiseConfig::default()
    }
}

/// `config` as recorded in the run-info line.
fn config_info(config: &DiseConfig) -> String {
    let exec = &config.exec;
    format!(
        "{{\"jobs\": {}, \"sweep_budget\": \"{:?}\", \"heuristic\": \"{:?}\", \"summaries\": \"{:?}\", \"record_traces\": {}, \"depth_bound\": \"{:?}\", \"max_states\": \"{:?}\", \"store\": \"{:?}\"}}",
        exec.jobs,
        exec.sweep_budget,
        exec.heuristic,
        exec.summaries,
        exec.record_traces,
        exec.depth_bound,
        exec.max_states,
        config.store
    )
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median wall time in seconds. Each repeat does the same work, so
/// the median is a steady figure.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one repeat");
    (last.expect("at least one repeat"), median)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    for var in DISE_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload gen_wide|paper_artifacts|serve_mix --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "gen_wide" => batch::run(batch::Kind::GenWide, &args),
        "paper_artifacts" => batch::run(batch::Kind::PaperArtifacts, &args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut info = outcome.info.clone();
    info.insert(0, ("config".to_string(), config_info(&dise_config())));
    info.insert(0, ("nproc".to_string(), nproc().to_string()));
    info.insert(0, ("trace".to_string(), (args.trace as u8).to_string()));
    info.insert(0, ("seconds".to_string(), args.seconds.to_string()));
    info.insert(
        0,
        ("workload".to_string(), report::json_str(&args.workload)),
    );
    println!("{}", report::info_line(&info));
    println!("{}", outcome.result_line());
}
