//! Integration tests for the resident analysis service: coalescing,
//! cache-hit byte-identity, evict-then-reissue store-warm rebuilds, and
//! the front-end protocol.

use std::sync::{Arc, Barrier};

use dise_serve::{ServeConfig, Server};
use dise_trace::json::{parse, quote, JsonValue};

/// A fig2 `analyze` request line with inline sources.
fn fig2_analyze_line(id: u64, request_id: &str) -> String {
    let base = dise_ir::pretty::pretty_program(&dise_artifacts::figures::fig2_base());
    let modified = dise_ir::pretty::pretty_program(&dise_artifacts::figures::fig2_modified());
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"analyze\",\"params\":{{\
         \"request_id\":{},\"proc\":\"update\",\"base\":{},\"modified\":{}}}}}",
        quote(request_id),
        quote(&base),
        quote(&modified),
    )
}

fn server(store: Option<std::path::PathBuf>) -> Server {
    Server::new(ServeConfig {
        store,
        ..ServeConfig::default()
    })
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dise-serve-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn result_field<'a>(response: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    response.get("result").and_then(|r| r.get(key))
}

#[test]
fn analyze_answers_match_the_pipeline() {
    let server = server(None);
    let response = server.handle_line(&fig2_analyze_line(1, "t1"));
    let value = parse(&response).unwrap_or_else(|e| panic!("response parses: {e}"));
    assert_eq!(
        value.get("id").and_then(JsonValue::as_u64),
        Some(1),
        "id echoed"
    );
    let output = result_field(&value, "output")
        .and_then(JsonValue::as_str)
        .expect("output field");
    // The deterministic verdict residue: indented PC lines only.
    assert!(!output.is_empty());
    for line in output.lines() {
        assert!(line.starts_with("  "), "PC lines are indented: {line:?}");
    }
    let expected = {
        let result = dise_core::dise::run_dise(
            &dise_artifacts::figures::fig2_base(),
            &dise_artifacts::figures::fig2_modified(),
            "update",
            &dise_core::dise::DiseConfig::default(),
        )
        .expect("pipeline runs");
        dise_core::report::verdict_pc_block(result.affected_pc_strings())
    };
    assert_eq!(output, expected, "serve output = one-shot verdict block");
    assert_eq!(
        result_field(&value, "request_id").and_then(JsonValue::as_str),
        Some("t1")
    );
    let stats = result_field(&value, "stats")
        .and_then(JsonValue::as_array)
        .expect("stats records");
    assert_eq!(stats.len(), 2, "one stable + one volatile record");
    for record in stats {
        assert_eq!(
            record.get("scope").and_then(JsonValue::as_str),
            Some("t1.dise"),
            "stats scoped by the client's request_id"
        );
    }
}

#[test]
fn coalesced_identical_requests_run_one_exploration() {
    let server = Arc::new(server(None));
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let line = fig2_analyze_line(3, "storm");
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let line = line.clone();
            std::thread::spawn(move || {
                barrier.wait();
                server.handle_line(&line)
            })
        })
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for response in &responses {
        assert_eq!(
            response, &responses[0],
            "identical requests get byte-identical responses"
        );
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics.explorations, 1,
        "the herd coalesces onto one exploration"
    );
    assert_eq!(
        metrics.cache_hits + metrics.coalesced,
        clients as u64 - 1,
        "everyone else was a hit or a follower"
    );
    assert_eq!(metrics.errors, 0);
}

#[test]
fn evicted_entries_rebuild_store_warm_with_zero_pipeline_solver_calls() {
    let dir = fresh_dir("warm");
    let server = server(Some(dir.clone()));
    let line = fig2_analyze_line(5, "warm");

    let cold = server.handle_line(&line);
    let after_cold = server.metrics();
    assert_eq!(after_cold.explorations, 1);
    assert!(
        after_cold.pipeline_solver_calls > 0,
        "the cold run pays pipeline solver calls"
    );

    // A repeat is a pure cache hit: same bytes, no new exploration.
    let hit = server.handle_line(&line);
    assert_eq!(hit, cold, "cache hits serve the leader's bytes");
    let after_hit = server.metrics();
    assert_eq!(after_hit.explorations, 1);
    assert_eq!(after_hit.cache_hits, 1);
    assert_eq!(
        after_hit.pipeline_solver_calls, after_cold.pipeline_solver_calls,
        "a warm hit costs zero pipeline solver calls"
    );

    // Evict, reissue: the exploration reruns, but every feasibility
    // check answers from the store-warmed trie — zero pipeline calls.
    let evicted = server
        .handle_line(r#"{"jsonrpc":"2.0","id":6,"method":"evict","params":{"proc":"update"}}"#);
    assert!(evicted.contains("\"evicted\":1"), "got: {evicted}");
    let rebuilt = server.handle_line(&line);
    let after_rebuild = server.metrics();
    assert_eq!(after_rebuild.explorations, 2, "the rebuild re-explores");
    assert_eq!(
        after_rebuild.pipeline_solver_calls, after_cold.pipeline_solver_calls,
        "the store-warm rebuild adds zero pipeline solver calls"
    );
    // The deterministic members match the cold response; only the
    // volatile stats record may differ between explorations.
    let cold_output = result_field(&parse(&cold).unwrap(), "output")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let rebuilt_output = result_field(&parse(&rebuilt).unwrap(), "output")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    assert_eq!(cold_output, rebuilt_output);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chain_walks_versions_and_evolve_renders_all_applications() {
    let wbs = dise_artifacts::wbs::artifact();
    let base = dise_ir::pretty::pretty_program(&wbs.base);
    let v2 = dise_ir::pretty::pretty_program(&wbs.version("v2").expect("v2").program);
    let v4 = dise_ir::pretty::pretty_program(&wbs.version("v4").expect("v4").program);
    let server = server(None);

    let chain = server.handle_line(&format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"chain\",\"params\":{{\
         \"proc\":{},\"versions\":[{},{},{}]}}}}",
        quote(wbs.proc_name),
        quote(&base),
        quote(&v2),
        quote(&v4),
    ));
    let value = parse(&chain).unwrap_or_else(|e| panic!("chain response parses: {e}"));
    let hops = result_field(&value, "hops")
        .and_then(JsonValue::as_array)
        .expect("hops array");
    assert_eq!(hops.len(), 2, "three versions make two hops");
    for hop in hops {
        assert!(hop.get("pc_count").and_then(JsonValue::as_u64).is_some());
        assert!(hop.get("output").and_then(JsonValue::as_str).is_some());
    }

    let evolve = server.handle_line(&format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"evolve\",\"params\":{{\
         \"proc\":{},\"base\":{},\"modified\":{}}}}}",
        quote(wbs.proc_name),
        quote(&base),
        quote(&v2),
    ));
    let value = parse(&evolve).unwrap_or_else(|e| panic!("evolve response parses: {e}"));
    let output = result_field(&value, "output")
        .and_then(JsonValue::as_str)
        .expect("evolve output");
    // All four applications are present in one rendering.
    assert!(output.contains("witness"), "witness report: {output}");
    assert!(output.contains("affected path(s)"), "diffsum: {output}");
    assert!(output.contains("impact"), "impact report: {output}");
}

#[test]
fn protocol_errors_and_admin_methods() {
    let server = server(None);
    let bad = server.handle_line("not json at all");
    assert!(bad.contains("-32700"), "parse error code: {bad}");
    let unknown = server.handle_line(r#"{"jsonrpc":"2.0","id":1,"method":"frobnicate"}"#);
    assert!(unknown.contains("-32601"), "method not found: {unknown}");
    let invalid = server.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"analyze","params":{}}"#);
    assert!(invalid.contains("-32602"), "invalid params: {invalid}");

    let status = server.handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"status"}"#);
    let value = parse(&status).unwrap();
    assert_eq!(
        result_field(&value, "errors").and_then(JsonValue::as_u64),
        Some(3),
        "protocol rejections count as errors too: {status}"
    );
    assert!(result_field(&value, "cache_budget").is_some());

    assert!(!server.shutdown_requested());
    let bye = server.handle_line(r#"{"jsonrpc":"2.0","id":4,"method":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "shutdown acks: {bye}");
    assert!(server.shutdown_requested());
}

#[test]
fn tcp_front_end_serves_and_shuts_down() {
    use std::io::{BufRead, BufReader, Write};

    let server = Arc::new(server(None));
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let front = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            dise_serve::serve_tcp(server, "127.0.0.1:0", 2, move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("listener binds");

    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{}", fig2_analyze_line(1, "tcp")).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let value = parse(response.trim()).expect("response parses");
    assert_eq!(value.get("id").and_then(JsonValue::as_u64), Some(1));
    assert!(result_field(&value, "output").is_some());

    writeln!(stream, r#"{{"jsonrpc":"2.0","id":2,"method":"shutdown"}}"#).unwrap();
    response.clear();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"));
    drop(reader);
    drop(stream);
    front
        .join()
        .expect("front end joins")
        .expect("tcp loop exits cleanly");
}

/// A fig2 `analyze` request line with the given inline sources.
fn analyze_line(id: u64, base: &str, modified: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"analyze\",\"params\":{{\
         \"proc\":\"update\",\"base\":{},\"modified\":{}}}}}",
        quote(base),
        quote(modified),
    )
}

fn fig2_sources() -> (String, String) {
    (
        dise_ir::pretty::pretty_program(&dise_artifacts::figures::fig2_base()),
        dise_ir::pretty::pretty_program(&dise_artifacts::figures::fig2_modified()),
    )
}

fn output_of(response: &str) -> String {
    let value = parse(response).unwrap_or_else(|e| panic!("response parses: {e}"));
    result_field(&value, "output")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no output in {response}"))
        .to_string()
}

#[test]
fn byte_identical_repeats_skip_the_fingerprint() {
    let server = server(None);
    let line = fig2_analyze_line(1, "same");
    let first = server.handle_line(&line);
    assert_eq!(server.handle_line(&line), first);
    assert_eq!(server.handle_line(&line), first);
    let metrics = server.metrics();
    assert_eq!(metrics.fingerprinted, 1, "only the first request parses");
    assert_eq!(metrics.cache_hits, 2);
    assert_eq!(metrics.explorations, 1);
    let status = server.handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"status"}"#);
    assert!(status.contains("\"fingerprinted\":1,"), "status: {status}");
}

#[test]
fn a_whitespace_only_edit_hits_through_the_fingerprint() {
    let server = server(None);
    let (base, modified) = fig2_sources();
    let first = server.handle_line(&analyze_line(1, &base, &modified));
    let reformatted = modified.replace('\n', " \n\n\t");
    assert_ne!(reformatted, modified);
    let second = server.handle_line(&analyze_line(2, &base, &reformatted));
    let metrics = server.metrics();
    assert_eq!(
        metrics.fingerprinted, 2,
        "the reformatted bytes miss the probe"
    );
    assert_eq!(metrics.cache_hits, 1, "but its fingerprint hits");
    assert_eq!(metrics.explorations, 1);
    assert_eq!(output_of(&second), output_of(&first));
}

#[test]
fn a_changed_source_file_misses_the_probe() {
    let dir = fresh_dir("paths");
    std::fs::create_dir_all(&dir).unwrap();
    let (base, modified) = fig2_sources();
    let (base_path, mod_path) = (dir.join("base.mj"), dir.join("mod.mj"));
    std::fs::write(&base_path, &base).unwrap();
    std::fs::write(&mod_path, &modified).unwrap();
    let line = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"analyze\",\"params\":{{\
         \"proc\":\"update\",\"base_path\":{},\"mod_path\":{}}}}}",
        quote(&base_path.display().to_string()),
        quote(&mod_path.display().to_string()),
    );
    let server = server(None);
    let first = server.handle_line(&line);
    // Same paths, new content: the file is read again and misses.
    std::fs::write(&mod_path, &base).unwrap();
    let second = server.handle_line(&line);
    let metrics = server.metrics();
    assert_eq!(metrics.cache_hits, 0, "a changed file is not a hit");
    assert_eq!(metrics.fingerprinted, 2);
    assert_eq!(metrics.explorations, 2);
    assert_ne!(output_of(&second), output_of(&first));
    // Unchanged since the last request: a byte hit.
    assert_eq!(server.handle_line(&line), second);
    assert_eq!(server.metrics().fingerprinted, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_invalid_source_fails_every_time() {
    let server = server(None);
    let (base, _) = fig2_sources();
    let line = analyze_line(1, &base, "proc update( {");
    let first = server.handle_line(&line);
    let value = parse(&first).unwrap();
    let error = value
        .get("error")
        .unwrap_or_else(|| panic!("an error: {first}"));
    assert_eq!(
        error.get("code"),
        Some(&JsonValue::Int(-32602)),
        "invalid params: {first}"
    );
    let message = error.get("message").and_then(JsonValue::as_str).unwrap();
    assert!(message.starts_with("modified: "), "origin named: {message}");
    assert_eq!(server.handle_line(&line), first, "the same error again");
    let metrics = server.metrics();
    assert_eq!(metrics.errors, 2);
    assert_eq!(metrics.fingerprinted, 2);
    assert_eq!(metrics.cache_hits, 0);
    assert_eq!(metrics.cache_entries, 0);
}

#[test]
fn evict_by_proc_drops_the_byte_aliases() {
    let server = server(None);
    let line = fig2_analyze_line(1, "alias");
    server.handle_line(&line);
    let other = server
        .handle_line(r#"{"jsonrpc":"2.0","id":2,"method":"evict","params":{"proc":"other"}}"#);
    assert!(other.contains("\"evicted\":0"), "got: {other}");
    server.handle_line(&line);
    assert_eq!(
        server.metrics().fingerprinted,
        1,
        "another proc's evict keeps it"
    );
    let evicted = server
        .handle_line(r#"{"jsonrpc":"2.0","id":3,"method":"evict","params":{"proc":"update"}}"#);
    assert!(evicted.contains("\"evicted\":1"), "got: {evicted}");
    assert_eq!(server.metrics().cache_bytes, 0, "alias bytes freed too");
    server.handle_line(&line);
    let metrics = server.metrics();
    assert_eq!(metrics.fingerprinted, 2, "the alias went with its entry");
    assert_eq!(metrics.explorations, 2);
    assert_eq!(metrics.cache_hits, 1);
}
