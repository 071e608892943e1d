//! Resident-service benchmarks: cold exploration vs warm cache hit vs
//! coalesced herd through `dise-serve`, recorded to `BENCH_serve.json`
//! at the workspace root.
//!
//! Per artifact pair the harness measures:
//!
//! * `cold_ms` — the first request: full exploration;
//! * `warm_hit_us` — a repeat request: answered from the session cache.
//!   The contract pinned here: a warm hit adds **0** pipeline solver
//!   calls and returns the cold request's bytes verbatim;
//! * the coalescing ratio of an 8-client identical-request herd fired
//!   at a fresh server: `coalesced + cache_hits` over `requests`, with
//!   exactly one exploration.

use criterion::{criterion_group, Criterion};
use dise_artifacts::{figures, oae, wbs};
use dise_ir::pretty::pretty_program;
use dise_ir::Program;
use dise_serve::{ServeConfig, Server};
use dise_trace::json::quote;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

struct Case {
    name: &'static str,
    proc_name: &'static str,
    base: Program,
    modified: Program,
}

fn cases() -> Vec<Case> {
    let wbs = wbs::artifact();
    let oae = oae::artifact();
    vec![
        Case {
            name: "fig2",
            proc_name: "update",
            base: figures::fig2_base(),
            modified: figures::fig2_modified(),
        },
        Case {
            name: "WBS_v2",
            proc_name: wbs.proc_name,
            modified: wbs.version("v2").expect("v2").program.clone(),
            base: wbs.base,
        },
        Case {
            name: "OAE_v4",
            proc_name: oae.proc_name,
            modified: oae.version("v4").expect("v4").program.clone(),
            base: oae.base,
        },
    ]
}

fn analyze_line(case: &Case, id: u64) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"analyze\",\"params\":{{\
         \"request_id\":\"bench\",\"proc\":{},\"base\":{},\"modified\":{}}}}}",
        quote(case.proc_name),
        quote(&pretty_program(&case.base)),
        quote(&pretty_program(&case.modified)),
    )
}

fn server() -> Server {
    Server::new(ServeConfig::default())
}

fn benches(c: &mut Criterion) {
    let case = &cases()[0];
    let line = analyze_line(case, 1);
    c.bench_function("serve/fig2_cold", |b| {
        b.iter(|| {
            let server = server();
            black_box(server.handle_line(&line).len())
        })
    });
    let resident = server();
    resident.handle_line(&line);
    c.bench_function("serve/fig2_warm_hit", |b| {
        b.iter(|| black_box(resident.handle_line(&line).len()))
    });
}

fn record_serve_throughput() {
    let mut rows = Vec::new();
    let mut all_warm_zero = true;
    let mut all_coalesced_once = true;
    let herd = 8usize;

    for case in cases() {
        let server = Arc::new(server());
        let line = analyze_line(&case, 1);

        let cold_start = Instant::now();
        let cold_response = server.handle_line(&line);
        let cold_ms = cold_start.elapsed().as_secs_f64() * 1000.0;
        let after_cold = server.metrics();

        let warm_start = Instant::now();
        let warm_response = server.handle_line(&line);
        let warm_hit_us = warm_start.elapsed().as_secs_f64() * 1e6;
        let after_warm = server.metrics();
        let warm_solver_calls = after_warm.pipeline_solver_calls - after_cold.pipeline_solver_calls;
        let warm_zero =
            warm_solver_calls == 0 && after_warm.explorations == after_cold.explorations;
        all_warm_zero &= warm_zero;
        assert_eq!(warm_response, cold_response, "warm hits serve cached bytes");

        // The herd: 8 identical requests against a fresh server.
        let fresh = Arc::new(self::server());
        let barrier = Arc::new(Barrier::new(herd));
        let handles: Vec<_> = (0..herd)
            .map(|_| {
                let fresh = Arc::clone(&fresh);
                let barrier = Arc::clone(&barrier);
                let line = line.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    fresh.handle_line(&line)
                })
            })
            .collect();
        let herd_responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let herd_metrics = fresh.metrics();
        let coalesced_once = herd_metrics.explorations == 1
            && herd_metrics.cache_hits + herd_metrics.coalesced == herd as u64 - 1
            && herd_responses.iter().all(|r| r == &herd_responses[0]);
        all_coalesced_once &= coalesced_once;
        let coalescing_ratio =
            (herd_metrics.cache_hits + herd_metrics.coalesced) as f64 / herd as f64;

        println!(
            "{}: cold {cold_ms:.1} ms, warm hit {warm_hit_us:.0} us \
             ({warm_solver_calls} solver calls), herd of {herd}: {} exploration(s), \
             coalescing ratio {coalescing_ratio:.2}",
            case.name, herd_metrics.explorations,
        );
        rows.push(format!(
            "    {{\n      \"artifact\": \"{}\",\n      \
             \"cold_ms\": {cold_ms:.2},\n      \"warm_hit_us\": {warm_hit_us:.1},\n      \
             \"cold_solver_calls\": {},\n      \"warm_hit_solver_calls\": {warm_solver_calls},\n      \
             \"herd_clients\": {herd},\n      \"herd_explorations\": {},\n      \
             \"coalescing_ratio\": {coalescing_ratio:.3}\n    }}",
            case.name, after_cold.pipeline_solver_calls, herd_metrics.explorations,
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"serve_throughput\",\n  {host},\n  \
         \"cases\": [\n{rows}\n  ],\n  \
         \"warm_hits_zero_solver_calls\": {all_warm_zero},\n  \
         \"herds_coalesce_to_one_exploration\": {all_coalesced_once},\n  \
         \"note\": \"warm_hit_us = answering a repeat request from the session cache (0 \
         explorations, 0 pipeline solver calls); the herd fires 8 byte-identical concurrent \
         requests at a fresh server and must coalesce onto exactly one exploration with every \
         response byte-identical\"\n}}\n",
        rows = rows.join(",\n"),
        host = dise_bench::host_metadata_json(),
    );
    dise_bench::write_bench_json("BENCH_serve.json", &json);
    println!(
        "serve: warm hits zero solver calls: {all_warm_zero}; herds coalesce: \
         {all_coalesced_once}"
    );
}

criterion_group!(serve_throughput, benches);

fn main() {
    serve_throughput();
    record_serve_throughput();
}
