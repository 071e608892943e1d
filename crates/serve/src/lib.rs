//! # dise-serve — the resident analysis service
//!
//! Every cache layer below this crate (the persistent store, the staged
//! [`AnalysisSession`], interned procedure summaries) still paid
//! process-startup and store-deserialization costs per invocation. This
//! crate keeps them resident: a long-running server speaking
//! newline-delimited JSON-RPC (see [`protocol`]) that answers many
//! concurrent analysis requests from one process.
//!
//! Three mechanisms make it scale:
//!
//! * **The session cache** ([`cache`]): rendered responses keyed by
//!   `(method, proc, version fingerprints, solver key)` with
//!   byte-budgeted LRU eviction. A warm hit answers without touching
//!   the pipeline at all — zero solver calls, zero exploration.
//! * **Request coalescing**: identical in-flight requests admit one
//!   leader; followers block on the leader's flight and are answered
//!   with the same shared bytes (counted as `coalesced`). A thundering
//!   herd of N identical requests costs exactly one exploration.
//! * **Bounded request workers**: the front ends hand request lines to
//!   a fixed pool of request workers (see `default_request_workers`),
//!   and each exploration runs serially on the worker that leads it, so
//!   that pool size is the bound on concurrent explorations.
//!
//! Responses are deterministic by construction: the `output` field of
//! an `analyze` response is rendered by the same
//! [`dise_core::report::verdict_pc_block`] the CLI prints, so it is
//! byte-identical to the one-shot `dise run … --stats json` residue
//! (stdout minus the `^{` registry lines); `evolve` responses render
//! through the same functions as `dise evolve`. Store persistence is
//! concurrent-safe: saves hold `dise-store`'s advisory lock, so a
//! resident server and one-shot CLI runs can share a `--store`
//! directory without interleaving a save.

pub mod cache;
pub mod protocol;
mod server;

pub use server::{serve_stdio, serve_tcp};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cache::{ByteLruCache, CachedBody, SessionKey};
use dise_core::dise::{DiseConfig, DiseResult};
use dise_core::metrics::result_registry;
use dise_core::report::verdict_pc_block;
use dise_core::session::AnalysisSession;
use dise_ir::Program;
use dise_trace::json::{quote, JsonValue};
use dise_trace::{stats_record, MetricsRegistry, Stability, TraceHandle, Tracer};
use protocol::{
    error_response, parse_request, response, Request, ANALYSIS_ERROR, INVALID_PARAMS,
    METHOD_NOT_FOUND,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unused: every exploration is serial. Kept only because
    /// `perfbench` sets it, and goes with the next change to `perfbench`.
    pub jobs: usize,
    /// Unused, like [`ServeConfig::jobs`]; kept for the same reason.
    pub pool: usize,
    /// Session-cache byte budget.
    pub cache_bytes: usize,
    /// Persistent store directory shared with one-shot runs.
    pub store: Option<PathBuf>,
    /// Directory for per-request trace logs (`<request_id>.jsonl`,
    /// `dise trace validate`-clean). `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            jobs: 1,
            pool: 1,
            cache_bytes: 64 << 20,
            store: None,
            trace_dir: None,
        }
    }
}

/// Aggregate server counters, readable via [`Server::metrics`] and the
/// `status` method. Monotonic over the server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests received (every parsed line, any method).
    pub requests: u64,
    /// Analysis requests answered from the session cache.
    pub cache_hits: u64,
    /// Analysis requests coalesced onto another request's in-flight
    /// exploration.
    pub coalesced: u64,
    /// Explorations actually run (cache misses that led).
    pub explorations: u64,
    /// Cache entries evicted by byte-budget pressure.
    pub evictions: u64,
    /// Requests answered with a JSON-RPC error.
    pub errors: u64,
    /// Pipeline solver calls spent by all explorations (incremental +
    /// fallback decisions; cache/trie answers excluded). Warm-hit
    /// requests add 0 here — the bench pins that.
    pub pipeline_solver_calls: u64,
    /// Live cache entries.
    pub cache_entries: u64,
    /// Live cache bytes.
    pub cache_bytes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    explorations: AtomicU64,
    errors: AtomicU64,
    pipeline_solver_calls: AtomicU64,
}

/// One in-flight leader computation; followers wait on `done`.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<CachedBody>, String>>>,
    finished: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<Arc<CachedBody>, String> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while done.is_none() {
            done = self.finished.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        done.clone().expect("loop exits only when set")
    }

    fn complete(&self, result: Result<Arc<CachedBody>, String>) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = Some(result);
        drop(done);
        self.finished.notify_all();
    }
}

/// How an analysis request was admitted.
enum Admission {
    /// Answered from the cache.
    Hit(Arc<CachedBody>),
    /// This request leads: it runs the computation and completes the
    /// flight.
    Lead(Arc<Flight>),
    /// Another identical request is in flight; this one waits for it.
    Follow(Arc<Flight>),
}

/// The resident analysis server. Thread-safe: [`Server::handle_line`]
/// may be called from any number of threads concurrently (the stdio
/// and TCP front ends, [`serve_stdio`] and [`serve_tcp`], do exactly
/// that).
pub struct Server {
    config: ServeConfig,
    cache: Mutex<ByteLruCache>,
    inflight: Mutex<HashMap<SessionKey, Arc<Flight>>>,
    counters: Counters,
    shutdown: AtomicBool,
}

impl Server {
    /// A server with the given configuration.
    pub fn new(config: ServeConfig) -> Server {
        let cache = Mutex::new(ByteLruCache::new(config.cache_bytes));
        Server {
            config,
            cache,
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether a `shutdown` request has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A snapshot of the server's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            requests: self.counters.requests.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            explorations: self.counters.explorations.load(Ordering::Relaxed),
            evictions: cache.evictions(),
            errors: self.counters.errors.load(Ordering::Relaxed),
            pipeline_solver_calls: self.counters.pipeline_solver_calls.load(Ordering::Relaxed),
            cache_entries: cache.len() as u64,
            cache_bytes: cache.bytes() as u64,
        }
    }

    /// Handles one request line, returning the response line.
    pub fn handle_line(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(rejection) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                return rejection.render();
            }
        };
        match self.dispatch(&request) {
            Ok(body) => response(&request.id, &body),
            Err((code, message)) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                error_response(&request.id, code, &message)
            }
        }
    }

    fn dispatch(&self, request: &Request) -> Result<String, (i64, String)> {
        match request.method.as_str() {
            "analyze" | "evolve" | "chain" => self.handle_analysis(request),
            "status" => Ok(self.handle_status()),
            "evict" => Ok(self.handle_evict(request)),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok("\"method\":\"shutdown\",\"ok\":true".to_string())
            }
            other => Err((METHOD_NOT_FOUND, format!("unknown method `{other}`"))),
        }
    }

    fn handle_status(&self) -> String {
        let m = self.metrics();
        format!(
            "\"method\":\"status\",\"requests\":{},\"cache_hits\":{},\"coalesced\":{},\
             \"explorations\":{},\"evictions\":{},\"errors\":{},\
             \"pipeline_solver_calls\":{},\
             \"cache_entries\":{},\"cache_bytes\":{},\"cache_budget\":{}",
            m.requests,
            m.cache_hits,
            m.coalesced,
            m.explorations,
            m.evictions,
            m.errors,
            m.pipeline_solver_calls,
            m.cache_entries,
            m.cache_bytes,
            self.config.cache_bytes,
        )
    }

    fn handle_evict(&self, request: &Request) -> String {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let (dropped, freed) = match request.params.get("proc").and_then(JsonValue::as_str) {
            Some(proc_name) => cache.clear_proc(proc_name),
            None => cache.clear(),
        };
        format!("\"method\":\"evict\",\"evicted\":{dropped},\"freed_bytes\":{freed}")
    }

    /// The admission layer: cache hit, coalesce onto an in-flight
    /// leader, or lead.
    fn admit(&self, key: &SessionKey) -> Admission {
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
        {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Admission::Hit(hit);
        }
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(flight) = inflight.get(key) {
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return Admission::Follow(Arc::clone(flight));
        }
        // A leader may have completed between the cache probe and the
        // inflight lock: it filled the cache before clearing its
        // flight, so re-probe the cache before leading.
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
        {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Admission::Hit(hit);
        }
        let flight = Arc::new(Flight::default());
        inflight.insert(key.clone(), Arc::clone(&flight));
        Admission::Lead(flight)
    }

    /// Runs `compute` as the leader for `key`: publishes the result to
    /// the cache, wakes followers, and clears the flight — in that
    /// order, so no moment exists where the result is in neither
    /// structure. Panics in the pipeline are converted into an error
    /// result so followers can never deadlock.
    fn lead(
        &self,
        key: &SessionKey,
        flight: &Flight,
        compute: impl FnOnce() -> Result<CachedBody, String> + std::panic::UnwindSafe,
    ) -> Result<Arc<CachedBody>, String> {
        let outcome = match std::panic::catch_unwind(compute) {
            Ok(result) => result.map(Arc::new),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "analysis panicked".to_string());
                Err(format!("analysis panicked: {message}"))
            }
        };
        if let Ok(body) = &outcome {
            self.cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key.clone(), Arc::clone(body));
        }
        flight.complete(outcome.clone());
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
        outcome
    }

    fn handle_analysis(&self, request: &Request) -> Result<String, (i64, String)> {
        let spec = AnalysisSpec::from_request(request)?;
        let key = spec.key()?;
        let body = match self.admit(&key) {
            Admission::Hit(body) => Ok(body),
            Admission::Follow(flight) => flight.wait(),
            Admission::Lead(flight) => self.lead(&key, &flight, {
                let spec = &spec;
                let request_id = request.request_id.as_str();
                std::panic::AssertUnwindSafe(move || self.compute(spec, request_id))
            }),
        }
        .map_err(|message| (ANALYSIS_ERROR, message))?;
        Ok(format!(
            "\"request_id\":{},{}",
            quote(&request.request_id),
            body.body
        ))
    }

    /// The leader computation for one analysis request.
    fn compute(&self, spec: &AnalysisSpec, request_id: &str) -> Result<CachedBody, String> {
        let trace = self.config.trace_dir.as_ref().map(|dir| {
            let tracer = Arc::new(Tracer::new());
            let root = tracer.begin(&format!("request.{request_id}"), None);
            (dir.clone(), tracer, root)
        });
        let mut config = DiseConfig {
            store: self.config.store.clone(),
            ..Default::default()
        };
        if let Some((_, tracer, root)) = &trace {
            config.exec.tracer = Some(TraceHandle::new(Arc::clone(tracer)).child(root.id()));
        }

        let outcome = spec.run(config, request_id)?;
        self.counters.explorations.fetch_add(1, Ordering::Relaxed);
        self.counters
            .pipeline_solver_calls
            .fetch_add(outcome.pipeline_solver_calls, Ordering::Relaxed);
        for warning in &outcome.warnings {
            eprintln!("warning: [{request_id}] {warning}");
        }
        if let Some((dir, tracer, root)) = trace {
            tracer.end_with(
                root,
                vec![(
                    "solver.pipeline_checks".to_string(),
                    outcome.pipeline_solver_calls,
                )],
            );
            let log = dise_trace::event_log(
                &tracer.events(),
                &outcome.scopes,
                &format!("dise serve {} {request_id}", spec.method),
            );
            let file = dir.join(format!("{}.jsonl", sanitize(request_id)));
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, log))
            {
                eprintln!(
                    "warning: [{request_id}] cannot write trace `{}`: {e}",
                    file.display()
                );
            }
        }
        Ok(CachedBody {
            body: outcome.body,
            pipeline_solver_calls: outcome.pipeline_solver_calls,
        })
    }
}

/// A file-system-safe rendering of a request id.
fn sanitize(request_id: &str) -> String {
    request_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A validated analysis request: the method, the parsed program
/// versions, and the target procedure.
struct AnalysisSpec {
    method: &'static str,
    versions: Vec<Program>,
    proc_name: String,
}

/// What a leader run produced: the cacheable body plus server-side
/// bookkeeping.
struct RunOutcome {
    body: String,
    pipeline_solver_calls: u64,
    warnings: Vec<String>,
    scopes: Vec<(String, MetricsRegistry)>,
}

impl AnalysisSpec {
    fn from_request(request: &Request) -> Result<AnalysisSpec, (i64, String)> {
        let invalid = |message: String| (INVALID_PARAMS, message);
        let params = &request.params;
        if params.as_object().is_none() {
            return Err(invalid("params must be an object".to_string()));
        }
        let proc_name = params
            .get("proc")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| invalid("missing string param \"proc\"".to_string()))?
            .to_string();
        let method: &'static str = match request.method.as_str() {
            "analyze" => "analyze",
            "evolve" => "evolve",
            "chain" => "chain",
            _ => unreachable!("dispatch only routes analysis methods here"),
        };
        let mut sources: Vec<(String, String)> = Vec::new();
        if method == "chain" {
            match (params.get("versions"), params.get("version_paths")) {
                (Some(JsonValue::Array(items)), _) => {
                    for (i, item) in items.iter().enumerate() {
                        let source = item.as_str().ok_or_else(|| {
                            invalid(format!("\"versions\"[{i}] must be a string"))
                        })?;
                        sources.push((format!("versions[{i}]"), source.to_string()));
                    }
                }
                (_, Some(JsonValue::Array(items))) => {
                    for (i, item) in items.iter().enumerate() {
                        let path = item.as_str().ok_or_else(|| {
                            invalid(format!("\"version_paths\"[{i}] must be a string"))
                        })?;
                        sources.push((path.to_string(), read_source(path).map_err(invalid)?));
                    }
                }
                _ => {
                    return Err(invalid(
                        "chain needs \"versions\" (inline sources) or \"version_paths\""
                            .to_string(),
                    ))
                }
            }
            if sources.len() < 2 {
                return Err(invalid("chain needs at least two versions".to_string()));
            }
        } else {
            for (inline_key, path_key) in [("base", "base_path"), ("modified", "mod_path")] {
                let source = match (params.get(inline_key), params.get(path_key)) {
                    (Some(JsonValue::Str(source)), _) => (inline_key.to_string(), source.clone()),
                    (_, Some(JsonValue::Str(path))) => {
                        (path.clone(), read_source(path).map_err(invalid)?)
                    }
                    _ => {
                        return Err(invalid(format!(
                            "missing string param \"{inline_key}\" (inline source) or \
                             \"{path_key}\""
                        )))
                    }
                };
                sources.push(source);
            }
        }
        let mut versions = Vec::new();
        for (origin, source) in &sources {
            versions.push(load_program(origin, source).map_err(invalid)?);
        }
        Ok(AnalysisSpec {
            method,
            versions,
            proc_name,
        })
    }

    /// The session-cache key: method + procedure + every version's
    /// content fingerprint + the solver configuration key.
    fn key(&self) -> Result<SessionKey, (i64, String)> {
        let mut fingerprints = Vec::with_capacity(self.versions.len());
        for version in &self.versions {
            fingerprints.push(
                dise_diff::proc_fingerprint(version, &self.proc_name)
                    .map_err(|e| (INVALID_PARAMS, e.to_string()))?,
            );
        }
        Ok(SessionKey {
            method: self.method,
            proc: self.proc_name.clone(),
            fingerprints,
            solver_key: dise_symexec::ExecConfig::default().solver.cache_key(),
        })
    }

    fn run(&self, config: DiseConfig, request_id: &str) -> Result<RunOutcome, String> {
        match self.method {
            "analyze" => self.run_analyze(config, request_id),
            "evolve" => self.run_evolve(config, request_id),
            "chain" => self.run_chain(config, request_id),
            _ => unreachable!(),
        }
    }

    fn run_analyze(&self, config: DiseConfig, request_id: &str) -> Result<RunOutcome, String> {
        let mut session = AnalysisSession::open(
            &self.versions[0],
            &self.versions[1],
            &self.proc_name,
            config,
        )
        .map_err(|e| e.to_string())?;
        let (body, outcome) = hop_body(&mut session, request_id, "")?;
        Ok(RunOutcome {
            body: format!(
                "\"method\":\"analyze\",\"proc\":{},{body}",
                quote(&self.proc_name)
            ),
            ..outcome
        })
    }

    fn run_chain(&self, config: DiseConfig, request_id: &str) -> Result<RunOutcome, String> {
        let mut session = AnalysisSession::open(
            &self.versions[0],
            &self.versions[1],
            &self.proc_name,
            config,
        )
        .map_err(|e| e.to_string())?;
        let hops = self.versions.len() - 1;
        let mut rendered = Vec::new();
        let mut pipeline_solver_calls = 0;
        let mut warnings = Vec::new();
        let mut scopes = Vec::new();
        for hop in 0..hops {
            let (body, outcome) = hop_body(&mut session, request_id, &format!("hop{}.", hop + 1))?;
            rendered.push(format!("{{{body}}}"));
            pipeline_solver_calls += outcome.pipeline_solver_calls;
            warnings.extend(outcome.warnings);
            scopes.extend(outcome.scopes);
            if hop + 2 <= hops {
                session = session
                    .advance(&self.versions[hop + 2])
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(RunOutcome {
            body: format!(
                "\"method\":\"chain\",\"proc\":{},\"hops\":[{}]",
                quote(&self.proc_name),
                rendered.join(",")
            ),
            pipeline_solver_calls,
            warnings,
            scopes,
        })
    }

    fn run_evolve(&self, config: DiseConfig, request_id: &str) -> Result<RunOutcome, String> {
        let mut session = AnalysisSession::open(
            &self.versions[0],
            &self.versions[1],
            &self.proc_name,
            config,
        )
        .map_err(|e| e.to_string())?;
        // The four applications off one session, rendered by the same
        // functions `dise evolve` prints through — output is
        // byte-identical to that one-shot run by construction.
        let witnesses = dise_evolution::witness::find_witnesses_with(
            &mut session,
            &dise_evolution::witness::WitnessConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let mut output = dise_evolution::witness::render_report(&witnesses);
        let summary = dise_evolution::diffsum::classify_changes_with(
            &mut session,
            &dise_evolution::diffsum::DiffSumConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        output.push_str(&summary.render());
        let localization = dise_evolution::localize::localize_change_with(
            &mut session,
            &dise_evolution::localize::LocalizeConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        output.push_str(&dise_evolution::localize::render_localization(
            &localization,
        ));
        let report = dise_evolution::report::impact_report_with(
            &mut session,
            &dise_evolution::report::ImpactConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        output.push_str(&report);

        let mut result = session.result().map_err(|e| e.to_string())?;
        let status = session.finalize().cloned();
        let mut warnings = Vec::new();
        if let Some(warning) = status.as_ref().and_then(|s| s.warning.clone()) {
            warnings.push(warning);
        }
        result.store = status;
        let (records, scope, registry, pipeline) = result_records(&result, request_id, "");
        Ok(RunOutcome {
            body: format!(
                "\"method\":\"evolve\",\"proc\":{},\"pc_count\":{},\"output\":{},\"stats\":[{records}]",
                quote(&self.proc_name),
                result.summary.pc_count(),
                quote(&output),
            ),
            pipeline_solver_calls: pipeline,
            warnings,
            scopes: vec![(scope, registry)],
        })
    }
}

/// Runs one directed hop of `session` to completion and renders the
/// hop's deterministic body members. Shared by `analyze` (one hop) and
/// `chain` (many).
fn hop_body(
    session: &mut AnalysisSession,
    request_id: &str,
    scope_prefix: &str,
) -> Result<(String, RunOutcome), String> {
    let mut result = session.result().map_err(|e| e.to_string())?;
    let status = session.finalize().cloned();
    let mut warnings = Vec::new();
    if let Some(warning) = status.as_ref().and_then(|s| s.warning.clone()) {
        warnings.push(warning);
    }
    result.store = status;
    let output = verdict_pc_block(result.affected_pc_strings());
    let (records, scope, registry, pipeline) = result_records(&result, request_id, scope_prefix);
    let body = format!(
        "\"changed_nodes\":{},\"affected_nodes\":{},\"pc_count\":{},\"states\":{},\
         \"output\":{},\"stats\":[{records}]",
        result.changed_nodes,
        result.affected_nodes,
        result.summary.pc_count(),
        result.summary.stats().states_explored,
        quote(&output),
    );
    Ok((
        body,
        RunOutcome {
            body: String::new(),
            pipeline_solver_calls: pipeline,
            warnings,
            scopes: vec![(scope, registry)],
        },
    ))
}

/// The stable + volatile stats records of a hop's result registry,
/// scoped by the originating request id (`<request_id>.dise`), plus
/// the registry itself for the trace exporter.
fn result_records(
    result: &DiseResult,
    request_id: &str,
    scope_prefix: &str,
) -> (String, String, MetricsRegistry, u64) {
    let registry = result_registry(result);
    let scope = format!("{request_id}.{scope_prefix}dise");
    let records = format!(
        "{},{}",
        stats_record(&scope, Stability::Stable, &registry),
        stats_record(&scope, Stability::Volatile, &registry)
    );
    let solver = &result.summary.stats().solver;
    let pipeline = solver.incremental_checks + solver.fallback_checks;
    (records, scope, registry, pipeline)
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Parse + type-check + non-emptiness, mirroring the CLI's `load`.
fn load_program(origin: &str, source: &str) -> Result<Program, String> {
    let program = dise_ir::parse_program(source).map_err(|e| format!("{origin}: {e}"))?;
    dise_ir::check_program(&program).map_err(|e| format!("{origin}: {e}"))?;
    if program.procs.is_empty() {
        return Err(format!(
            "{origin}: program declares no procedures (nothing to analyze)"
        ));
    }
    Ok(program)
}
