//! Shared helpers for the `dise-bench` binaries and bench targets.
//!
//! Two pieces every `BENCH_*.json` emitter used to duplicate:
//!
//! * the host-metadata fragment — benchmark numbers recorded on a
//!   single-core container and on a 16-core workstation are not
//!   comparable, and the difference used to live in prose notes only;
//!   machine-readable metadata lets downstream tooling (and the
//!   ROADMAP's multicore item) filter by environment instead of relying
//!   on tribal knowledge;
//! * the emission path itself ([`write_bench_json`]) — resolve the
//!   workspace root from `CARGO_MANIFEST_DIR`, write the file, report
//!   the outcome.

/// Version of the `host` metadata block's own schema (bump when fields
/// change meaning, independently of each benchmark's payload).
/// Version 2 added `trace_schema_version`; version 3 dropped `dise_jobs`.
pub const BENCH_METADATA_VERSION: u32 = 3;

/// The `"host": {...}` JSON fragment recorded by every `BENCH_*.json`
/// emitter: logical core count, the metadata schema version, and the
/// trace-event schema version the toolchain speaks (so a bench payload
/// can be correlated with `--trace-json` logs from the same checkout).
///
/// # Examples
///
/// ```
/// let host = dise_bench::host_metadata_json();
/// assert!(host.starts_with("\"host\": {\"logical_cores\":"));
/// assert!(host.contains("\"bench_metadata_version\": 3"));
/// assert!(host.contains("\"trace_schema_version\": 1"));
/// ```
pub fn host_metadata_json() -> String {
    host_metadata_json_with("")
}

/// [`host_metadata_json`] with extra comma-separated JSON members spliced
/// into the `host` object — benchmarks whose workload is *generated*
/// record the generator seed and size parameters here, so a recorded
/// number can be traced back to the exact program it measured.
///
/// # Examples
///
/// ```
/// let host = dise_bench::host_metadata_json_with("\"generator_seed\": 7");
/// assert!(host.contains("\"generator_seed\": 7}"));
/// ```
pub fn host_metadata_json_with(extra: &str) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let extra = if extra.is_empty() {
        String::new()
    } else {
        format!(", {extra}")
    };
    format!(
        "\"host\": {{\"logical_cores\": {cores}, \
         \"bench_metadata_version\": {BENCH_METADATA_VERSION}, \
         \"trace_schema_version\": {}{extra}}}",
        dise_trace::TRACE_SCHEMA_VERSION
    )
}

/// Writes a benchmark's JSON payload to `file_name` at the workspace
/// root (falling back to the current directory outside cargo) and
/// reports the outcome on stdout/stderr — the shared tail of every
/// `BENCH_*.json` emitter.
pub fn write_bench_json(file_name: &str, json: &str) {
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => format!("{dir}/../../{file_name}"),
        Err(_) => file_name.to_string(),
    };
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_reports_at_least_one_core() {
        let fragment = host_metadata_json();
        assert!(fragment.contains("\"logical_cores\": "));
        let cores: usize = fragment
            .split("\"logical_cores\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("parsable core count");
        assert!(cores >= 1);
    }

    #[test]
    fn metadata_fragment_is_valid_json() {
        // The fragment is an object member; wrap it to parse it.
        let doc = format!("{{{}}}", host_metadata_json());
        let parsed = dise_trace::json::parse(&doc).expect("host fragment parses");
        let host = parsed.get("host").expect("host key");
        assert_eq!(
            host.get("trace_schema_version").and_then(|v| v.as_u64()),
            Some(u64::from(dise_trace::TRACE_SCHEMA_VERSION))
        );
        assert_eq!(
            host.get("bench_metadata_version").and_then(|v| v.as_u64()),
            Some(u64::from(BENCH_METADATA_VERSION))
        );
    }
}
