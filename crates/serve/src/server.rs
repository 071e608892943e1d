//! Front ends: the stdio loop (`dise serve`) and the optional TCP
//! listener (`dise serve --listen ADDR`).
//!
//! Both speak the same newline-delimited protocol and share one
//! [`Server`], so a TCP client and a stdio client hit the same session
//! cache and coalesce with each other. Requests are handled by a small
//! pool of request workers, which means responses can leave in a
//! different order than their requests arrived — clients match on the
//! echoed `id`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::Server;

/// How many request-worker threads a front end runs: one exploration per
/// available core plus slack for cache hits and coalesced followers,
/// bounded so a request flood cannot spawn unbounded threads. Each
/// exploration runs serially on its worker, so this is also the bound on
/// concurrent explorations.
fn default_request_workers() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores + 2).clamp(2, 32)
}

/// Serves newline-delimited JSON-RPC over stdin/stdout until stdin
/// closes or a `shutdown` request is processed. `workers` request
/// threads handle lines concurrently (0 picks a default); one response
/// line is written per request, in completion order.
pub fn serve_stdio(server: Arc<Server>, workers: usize) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let reader = BufReader::new(stdin.lock());
    let stdout: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    serve_lines(server, reader, stdout, workers)
}

/// The shared request loop: reads lines from `input`, answers each on
/// `output` (one line per request, under the output lock, flushed).
fn serve_lines(
    server: Arc<Server>,
    input: impl BufRead,
    output: Arc<Mutex<Box<dyn Write + Send>>>,
    workers: usize,
) -> std::io::Result<()> {
    let workers = if workers == 0 {
        default_request_workers()
    } else {
        workers
    };
    let (tx, rx) = mpsc::channel::<String>();
    let rx = Arc::new(Mutex::new(rx));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let server = Arc::clone(&server);
            let rx = Arc::clone(&rx);
            let output = Arc::clone(&output);
            std::thread::spawn(move || loop {
                let line = {
                    let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
                    rx.recv()
                };
                let Ok(line) = line else { break };
                let response = server.handle_line(&line);
                let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
                let _ = writeln!(out, "{response}");
                let _ = out.flush();
            })
        })
        .collect();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if tx.send(line).is_err() {
            break;
        }
        if server.shutdown_requested() {
            break;
        }
    }
    // Dropping the sender drains the queue and stops the workers.
    drop(tx);
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Serves the same protocol on a TCP listener, one connection-handler
/// thread per client, until a `shutdown` request is processed (checked
/// every 50ms between accepts). Returns the bound local address via
/// `on_bound` before accepting — tests use it to learn an ephemeral
/// port.
pub fn serve_tcp(
    server: Arc<Server>,
    addr: &str,
    workers: usize,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);
    let mut handles = Vec::new();
    loop {
        if server.shutdown_requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                handles.push(std::thread::spawn(move || {
                    stream.set_nonblocking(false).ok();
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(read_half) => read_half,
                        Err(_) => return,
                    });
                    let output: Arc<Mutex<Box<dyn Write + Send>>> =
                        Arc::new(Mutex::new(Box::new(stream)));
                    let _ = serve_lines(server, reader, output, workers);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}
