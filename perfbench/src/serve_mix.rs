//! `serve_mix`: one closed-loop client driving `Server::handle_line` in
//! process, with `ServeConfig { jobs: 1, pool: 1 }`, a fresh store
//! directory per round, and a session-cache budget well below the
//! working set.
//!
//! Why this workload: it is the only one through `serve`, `store`,
//! parse and fingerprint, and it has all three request classes — cache
//! hit, cold miss (explores, writes the store) and store-warm rebuild
//! after eviction (explores, reads the store). Its control is full
//! symbolic execution of each modified version a request names, run
//! after the round, as a client without the service would have to.
//!
//! A round is a fixed template over the round's keys (40 `analyze` pairs
//! and 16 three-version `chain`s, in a seed-shuffled order): each key is
//! introduced once (cold), re-requested twice within the next few
//! requests (hits), and every second key is re-requested once more after
//! 24 newer keys have pushed it out of the cache (rebuild). The pairs are
//! fixed and the seed picks only the order, so the class of every
//! position, and so the mix (56 cold, 109 hits, 16 rebuilds per round),
//! is the same for every seed; pairs chosen by the seed would move the
//! tails and the throughput with the pairs' sizes. Hits make up 60% of
//! the requests, so p50 lies inside the hit class, and the tail (the 11th
//! slowest position) is a cold or rebuilt chain, far from any class
//! boundary.
//!
//! The cache evicts by bytes, and response bodies carry timings whose
//! digit counts vary from run to run. So the budget is derived in set-up
//! from measured entry sizes: every hit's reuse distance (the bytes of
//! distinct keys requested since that key's last use) must lie at least
//! [`MIN_MARGIN_BYTES`] below the budget, every rebuild's at least that
//! far above it, and the budget sits midway between two entries of the
//! final recency stack, so the number of evictions cannot change either.
//! Rounds then reproduce the same classes and evictions exactly, and the
//! benchmark checks that they do.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dise_core::dise::{run_dise, run_full_on};
use dise_core::report::verdict_pc_block;
use dise_gen::{evolve, render_verdicts, GenParams, Scenario, PROC_NAME};
use dise_ir::Program;
use dise_serve::{MetricsSnapshot, ServeConfig, Server};
use dise_trace::json::{parse, quote, JsonValue};

use crate::batch::{self, Case};
use crate::report::{json_str, Outcome, SpanLog, OUT_DIR};
use crate::rng::{fnv1a, SplitMix, FNV_OFFSET};
use crate::stats::Keyed;
use crate::{dise_config, ms, repeated_setup, Args};

/// Shape of the serve pairs: `dise-gen`'s default scenario (4 arms,
/// guard depth 2, 2 helpers one level deep, 2 globals) — small programs,
/// so parsing and fingerprinting are a visible part of each request.
pub const SERVE_SHAPE: GenParams = GenParams {
    seed: 0,
    arms: 4,
    guard_depth: 2,
    helpers: 2,
    call_depth: 1,
    globals: 2,
};

/// `analyze` keys per round (one generated pair each).
pub const SERVE_PAIRS: usize = 40;

/// Seed of the first serve pair; pair `k` has seed `SERVE_FIRST_SEED + k`.
pub const SERVE_FIRST_SEED: u64 = 2024;

/// `chain` keys per round: pair `i`'s base and modified version plus a
/// second evolution of the modified version, for `i < SERVE_CHAINS`.
pub const SERVE_CHAINS: usize = 16;

/// Newer keys introduced between a key's introduction and its rebuild.
pub const LONG_REUSE: usize = 24;

/// Least distance in bytes between the budget and any reuse distance or
/// final-stack boundary; measured timing-digit jitter is a few bytes per
/// entry.
pub const MIN_MARGIN_BYTES: usize = 1024;

/// Seed offset of the chains' second evolution.
const CHAIN_SEED_OFFSET: u64 = 1 << 32;

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// From the session cache.
    Hit,
    /// First request for its key: explored, store written.
    Cold,
    /// Requested before but evicted since: explored again, store read.
    Rebuild,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit",
            Class::Cold => "serve.cold",
            Class::Rebuild => "serve.rebuild",
        }
    }
}

/// Classifies one request from the server's counters before and after
/// it. `seen` says whether the key was requested before in this server's
/// lifetime. Anything but exactly one hit or exactly one exploration,
/// with no error and no coalescing, is an error.
pub fn classify(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    seen: bool,
) -> Result<Class, String> {
    let hits = after.cache_hits - before.cache_hits;
    let explorations = after.explorations - before.explorations;
    let errors = after.errors - before.errors;
    let coalesced = after.coalesced - before.coalesced;
    match (hits, explorations, errors, coalesced) {
        (1, 0, 0, 0) if seen => Ok(Class::Hit),
        (0, 1, 0, 0) if seen => Ok(Class::Rebuild),
        (0, 1, 0, 0) => Ok(Class::Cold),
        _ => Err(format!(
            "unexpected counter deltas: {hits} hits, {explorations} explorations, \
             {errors} errors, {coalesced} coalesced (seen before: {seen})"
        )),
    }
}

/// A hop's deterministic response members, from a one-shot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub changed_nodes: u64,
    pub affected_nodes: u64,
    pub pc_count: u64,
    pub states: u64,
    pub output: String,
}

/// One distinct request content (one session-cache key).
#[derive(Debug, Clone)]
pub struct Target {
    pub method: &'static str,
    pub proc_name: String,
    pub sources: Vec<String>,
    pub programs: Vec<Program>,
}

/// One position of the round template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub target: usize,
    pub class: Class,
}

/// The round template over keys in `order` (see the module docs).
pub fn template(order: &[usize]) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut push = |target: usize, class: Class| steps.push(Step { target, class });
    for j in 0..order.len() {
        push(order[j], Class::Cold);
        if j >= 1 {
            push(order[j - 1], Class::Hit);
        }
        if j >= LONG_REUSE && (j - LONG_REUSE).is_multiple_of(2) {
            push(order[j - LONG_REUSE], Class::Rebuild);
        }
        if j >= 2 {
            push(order[j - 2], Class::Hit);
        }
    }
    steps
}

/// The round's keys: `analyze` on each pair, then the chains.
pub fn targets() -> Vec<Target> {
    let mut targets = Vec::new();
    let mut chains = Vec::new();
    for k in 0..SERVE_PAIRS {
        let pair_seed = SERVE_FIRST_SEED + k as u64;
        let scenario = Scenario::generate(&GenParams {
            seed: pair_seed,
            ..SERVE_SHAPE.clone()
        });
        let first = evolve(&scenario, pair_seed, batch::GEN_EDITS);
        targets.push(Target {
            method: "analyze",
            proc_name: PROC_NAME.to_string(),
            sources: vec![scenario.source(), first.modified.source()],
            programs: vec![scenario.program(), first.modified.program()],
        });
        if k < SERVE_CHAINS {
            let second = evolve(
                &first.modified,
                pair_seed.wrapping_add(CHAIN_SEED_OFFSET),
                batch::GEN_EDITS,
            );
            chains.push(Target {
                method: "chain",
                proc_name: PROC_NAME.to_string(),
                sources: vec![
                    scenario.source(),
                    first.modified.source(),
                    second.modified.source(),
                ],
                programs: vec![
                    scenario.program(),
                    first.modified.program(),
                    second.modified.program(),
                ],
            });
        }
    }
    targets.extend(chains);
    targets
}

/// The JSON-RPC request line for `target` at position `id`.
pub fn request_line(target: &Target, id: usize) -> String {
    let params = match target.method {
        "chain" => format!(
            "\"versions\":[{}]",
            target
                .sources
                .iter()
                .map(|s| quote(s))
                .collect::<Vec<_>>()
                .join(",")
        ),
        _ => format!(
            "\"base\":{},\"modified\":{}",
            quote(&target.sources[0]),
            quote(&target.sources[1])
        ),
    };
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{}\",\"params\":{{\"proc\":{},{params},\"request_id\":\"p{id}\"}}}}",
        target.method,
        quote(&target.proc_name)
    )
}

/// One-shot references of a target: each hop's response members and
/// each modified version's control `(states, verdict digest)`.
#[derive(Debug, Clone)]
pub struct Reference {
    pub hops: Vec<Hop>,
    pub controls: Vec<(u64, u64)>,
}

fn one_shot(target: &Target) -> Result<Reference, String> {
    let config = dise_config();
    let mut hops = Vec::new();
    let mut controls = Vec::new();
    for pair in target.programs.windows(2) {
        let result = run_dise(&pair[0], &pair[1], PROC_NAME, &config).map_err(|e| e.to_string())?;
        hops.push(Hop {
            changed_nodes: result.changed_nodes as u64,
            affected_nodes: result.affected_nodes as u64,
            pc_count: result.summary.pc_count() as u64,
            states: result.summary.stats().states_explored,
            output: verdict_pc_block(result.affected_pc_strings()),
        });
        controls.push(control_run(&pair[1])?.1);
    }
    Ok(Reference { hops, controls })
}

/// The control of one modified version: full symbolic execution, timed.
fn control_run(program: &Program) -> Result<(f64, (u64, u64)), String> {
    let start = Instant::now();
    let full = run_full_on(program, PROC_NAME, &dise_config()).map_err(|e| e.to_string())?;
    let elapsed = ms(start.elapsed());
    let s = full.stats();
    if s.solver.unknown != 0 || s.truncated || s.paths_depth_bounded != 0 {
        return Err("control run incomplete".to_string());
    }
    Ok((
        elapsed,
        (
            s.states_explored,
            fnv1a(FNV_OFFSET, render_verdicts(&full).as_bytes()),
        ),
    ))
}

/// Checks a response line against the one-shot reference.
pub fn check_response(line: &str, method: &str, reference: &Reference) -> Result<(), String> {
    let value = parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let result = value
        .get("result")
        .ok_or_else(|| format!("error response: {line:.300}"))?;
    let hops: Vec<&JsonValue> = match method {
        "chain" => result
            .get("hops")
            .and_then(JsonValue::as_array)
            .ok_or("chain response without hops")?
            .iter()
            .collect(),
        _ => vec![result],
    };
    if hops.len() != reference.hops.len() {
        return Err(format!(
            "{} hops, one-shot has {}",
            hops.len(),
            reference.hops.len()
        ));
    }
    for (k, (got, want)) in hops.iter().zip(&reference.hops).enumerate() {
        for (field, expected) in [
            ("changed_nodes", want.changed_nodes),
            ("affected_nodes", want.affected_nodes),
            ("pc_count", want.pc_count),
            ("states", want.states),
        ] {
            let actual = got.get(field).and_then(JsonValue::as_u64);
            if actual != Some(expected) {
                return Err(format!("hop {k}: {field} {actual:?}, one-shot {expected}"));
            }
        }
        if got.get("output").and_then(JsonValue::as_str) != Some(want.output.as_str()) {
            return Err(format!("hop {k}: output differs from the one-shot output"));
        }
    }
    Ok(())
}

/// Bytes of distinct keys requested since each step's key was last
/// requested, including the key itself (`None` on a key's first
/// request): the LRU reuse distance.
pub fn reuse_distances(steps: &[Step], costs: &[usize]) -> Vec<Option<usize>> {
    let mut stack: Vec<usize> = Vec::new(); // most recent last
    steps
        .iter()
        .map(|step| {
            let distance = stack
                .iter()
                .position(|&t| t == step.target)
                .map(|at| stack[at..].iter().map(|&t| costs[t]).sum::<usize>());
            stack.retain(|&t| t != step.target);
            stack.push(step.target);
            distance
        })
        .collect()
}

/// A replica of the server's byte-budgeted LRU: the class of every step
/// and the evictions, for `costs` and `budget`.
pub fn simulate(steps: &[Step], costs: &[usize], budget: usize) -> (Vec<Class>, u64) {
    let mut resident: Vec<usize> = Vec::new(); // least recent first
    let mut seen = vec![false; costs.len()];
    let mut bytes = 0;
    let mut evictions = 0;
    let classes = steps
        .iter()
        .map(|step| {
            let t = step.target;
            if let Some(at) = resident.iter().position(|&r| r == t) {
                resident.remove(at);
                resident.push(t);
                return Class::Hit;
            }
            let class = if seen[t] { Class::Rebuild } else { Class::Cold };
            seen[t] = true;
            resident.push(t);
            bytes += costs[t];
            while bytes > budget && !resident.is_empty() {
                bytes -= costs[resident.remove(0)];
                evictions += 1;
            }
            class
        })
        .collect();
    (classes, evictions)
}

/// The cache budget for `steps` given measured entry `costs` (see the
/// module docs), or why none is safe.
pub fn choose_budget(steps: &[Step], costs: &[usize]) -> Result<usize, String> {
    let distances = reuse_distances(steps, costs);
    let mut short_max = 0;
    let mut long_min = usize::MAX;
    for (step, distance) in steps.iter().zip(&distances) {
        match (step.class, distance) {
            (Class::Hit, Some(d)) => short_max = short_max.max(*d),
            (Class::Rebuild, Some(d)) => long_min = long_min.min(*d),
            (Class::Cold, None) => {}
            _ => return Err(format!("template step {step:?} contradicts its history")),
        }
    }
    let low = short_max + MIN_MARGIN_BYTES;
    let high = long_min.saturating_sub(MIN_MARGIN_BYTES);
    if low >= high {
        return Err(format!(
            "hit reuse distances reach {short_max} B and rebuild ones start at {long_min} B"
        ));
    }
    // The final recency stack, most recent first, and the midpoints
    // between its prefix sums that lie inside [low, high].
    let mut order: Vec<usize> = Vec::new();
    for step in steps {
        order.retain(|&t| t != step.target);
        order.insert(0, step.target);
    }
    let target = (low + high) / 2;
    let mut sum = 0;
    let mut best: Option<usize> = None;
    for pair in order.windows(2) {
        sum += costs[pair[0]];
        let next = costs[pair[1]];
        let mid = sum + next / 2;
        let fits = mid >= low && mid <= high && next / 2 >= MIN_MARGIN_BYTES;
        if fits && best.is_none_or(|b| mid.abs_diff(target) < b.abs_diff(target)) {
            best = Some(mid);
        }
    }
    best.ok_or_else(|| format!("no final-stack boundary between {low} B and {high} B"))
}

/// Everything a serve run needs, built in set-up.
pub struct Mix {
    pub targets: Vec<Target>,
    pub references: Vec<Reference>,
    pub steps: Vec<Step>,
    pub lines: Vec<String>,
    pub budget: usize,
    pub evictions: u64,
}

/// Measured entry sizes: each target once through a fresh server whose
/// budget holds everything; also checks each first response.
fn entry_costs(
    targets: &[Target],
    references: &[Reference],
    dir: &Path,
) -> Result<Vec<usize>, String> {
    let server = fresh_server(usize::MAX / 2, dir)?;
    let mut costs = Vec::new();
    for (i, target) in targets.iter().enumerate() {
        let before = server.metrics();
        let response = server.handle_line(&request_line(target, i));
        let after = server.metrics();
        check_response(&response, target.method, &references[i])
            .map_err(|e| format!("sizing request {i}: {e}"))?;
        costs.push((after.cache_bytes - before.cache_bytes) as usize);
    }
    remove_dir(dir);
    Ok(costs)
}

/// Set-up: inputs, one-shot references, entry sizes, the budget.
pub fn build_mix(seed: u64, dir: &Path) -> Result<Mix, String> {
    let targets = targets();
    let references = targets
        .iter()
        .map(one_shot)
        .collect::<Result<Vec<_>, _>>()?;
    let mut order: Vec<usize> = (0..targets.len()).collect();
    SplitMix::new(seed).shuffle(&mut order);
    let steps = template(&order);
    let lines = steps
        .iter()
        .enumerate()
        .map(|(pos, step)| request_line(&targets[step.target], pos))
        .collect();
    let costs = entry_costs(&targets, &references, dir)?;
    let budget = choose_budget(&steps, &costs)?;
    let (classes, evictions) = simulate(&steps, &costs, budget);
    if let Some(pos) = (0..steps.len()).find(|&p| classes[p] != steps[p].class) {
        return Err(format!(
            "budget {budget} B does not reproduce the template at position {pos}"
        ));
    }
    Ok(Mix {
        targets,
        references,
        steps,
        lines,
        budget,
        evictions,
    })
}

fn fresh_server(budget: usize, dir: &Path) -> Result<Server, String> {
    remove_dir(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    Ok(Server::new(ServeConfig {
        jobs: 1,
        pool: 1,
        cache_bytes: budget,
        store: Some(dir.to_path_buf()),
        trace_dir: None,
    }))
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A store directory private to this process.
fn store_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("store-{tag}-{}", std::process::id()))
}

/// What one round observed beyond its samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundFacts {
    pub classes: BTreeMap<Class, u64>,
    pub evictions: u64,
    pub pipeline_solver_calls: u64,
    pub store_entries: u64,
    pub store_bytes: u64,
}

/// Samples of one measured phase, keyed by position in the round.
#[derive(Debug, Default)]
struct Samples {
    op: Keyed,
    control: Keyed,
    by_class: BTreeMap<Class, Keyed>,
    parse: Keyed,
    fingerprint: Keyed,
    rounds: usize,
}

/// Runs one round; returns its facts, or `None` when set-up of the
/// round itself failed (counted as one failed operation).
fn round(
    mix: &Mix,
    dir: &Path,
    samples: &mut Samples,
    mut spans: Option<&mut SpanLog>,
    outcome: &mut Outcome,
) -> Option<RoundFacts> {
    let server = match fresh_server(mix.budget, dir) {
        Ok(server) => server,
        Err(e) => {
            outcome.attempted += 1;
            outcome.fail("serve round", &e);
            return None;
        }
    };
    let mut seen = vec![false; mix.targets.len()];
    let mut facts = RoundFacts::default();
    for (pos, step) in mix.steps.iter().enumerate() {
        let target = &mix.targets[step.target];
        outcome.attempted += 1;
        let before = server.metrics();
        let start = Instant::now();
        let response = server.handle_line(&mix.lines[pos]);
        let elapsed = start.elapsed();
        let after = server.metrics();
        let class = classify(&before, &after, seen[step.target]);
        seen[step.target] = true;
        let what = format!("serve position {pos} ({})", target.method);
        let class = match class {
            Ok(class) if class == step.class => class,
            Ok(class) => {
                outcome.fail(
                    &what,
                    &format!(
                        "determinism gate: answered as {class:?}, template says {:?}",
                        step.class
                    ),
                );
                continue;
            }
            Err(e) => {
                outcome.fail(&what, &e);
                continue;
            }
        };
        if let Err(e) = check_response(&response, target.method, &mix.references[step.target]) {
            outcome.fail(&what, &e);
            continue;
        }
        *facts.classes.entry(class).or_default() += 1;
        samples.op.push(pos, samples.rounds, ms(elapsed));
        samples
            .by_class
            .entry(class)
            .or_default()
            .push(pos, samples.rounds, ms(elapsed));
        if let Some(log) = spans.as_deref_mut() {
            let op = log.next_op();
            log.record(op, class.span(), None, start, start + elapsed);
            match batch::parse_and_fingerprint(log, op, &target.sources, PROC_NAME) {
                Ok((parse_ms, fingerprint_ms)) => {
                    samples.parse.push(pos, samples.rounds, parse_ms);
                    samples
                        .fingerprint
                        .push(pos, samples.rounds, fingerprint_ms);
                }
                Err(e) => outcome.fail(&what, &e),
            }
        }
    }
    let metrics = server.metrics();
    facts.evictions = metrics.evictions;
    facts.pipeline_solver_calls = metrics.pipeline_solver_calls;
    (facts.store_entries, facts.store_bytes) = store_size(dir);
    drop(server);
    remove_dir(dir);
    // The control of every request, after the round: run between
    // requests, its allocations doubled the share of requests slowed 2x.
    for (pos, step) in mix.steps.iter().enumerate() {
        let target = &mix.targets[step.target];
        let mut control_ms = 0.0;
        let mut checked = Ok(());
        for (k, program) in target.programs[1..].iter().enumerate() {
            match control_run(program) {
                Ok((t, facts)) if facts == mix.references[step.target].controls[k] => {
                    control_ms += t
                }
                Ok(_) => checked = Err("control counts changed from set-up".to_string()),
                Err(e) => checked = Err(e),
            }
        }
        match checked {
            Ok(()) => samples.control.push(pos, samples.rounds, control_ms),
            Err(e) => outcome.fail(&format!("serve control {pos}"), &e),
        }
    }
    samples.rounds += 1;
    Some(facts)
}

/// `(entries, bytes)` of the store in `dir`.
fn store_size(dir: &Path) -> (u64, u64) {
    let store = dise_store::Store::open(dir);
    let names: Vec<String> = store
        .entries()
        .map(|entries| entries.into_iter().map(|(name, _)| name).collect())
        .unwrap_or_default();
    let bytes = names
        .iter()
        .filter_map(|name| std::fs::metadata(dir.join(name)).ok())
        .map(|m| m.len())
        .sum();
    (names.len() as u64, bytes)
}

/// Runs rounds for `seconds` (at least two of each kind); every round's
/// facts must equal the first round's, and its evictions the set-up's
/// prediction. With a span log, rounds alternate between untraced and
/// traced; returns `(untraced, traced, first round's facts)`.
fn measure(
    mix: &Mix,
    seconds: f64,
    mut log: Option<&mut SpanLog>,
    outcome: &mut Outcome,
) -> (Samples, Samples, Option<RoundFacts>) {
    let dir = store_dir("mix");
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut first: Option<RoundFacts> = None;
    let start = Instant::now();
    while untraced.rounds < 2
        || (log.is_some() && traced.rounds < 2)
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = log.is_some() && untraced.rounds > traced.rounds;
        let samples = if tracing { &mut traced } else { &mut untraced };
        let spans = log.as_deref_mut().filter(|_| tracing);
        let Some(facts) = round(mix, &dir, samples, spans, outcome) else {
            break;
        };
        if facts.evictions != mix.evictions {
            outcome.attempted += 1;
            outcome.fail(
                "serve round",
                &format!(
                    "determinism gate: {} evictions, set-up predicted {}",
                    facts.evictions, mix.evictions
                ),
            );
        }
        match &first {
            None => first = Some(facts),
            Some(reference) if *reference != facts => {
                outcome.attempted += 1;
                outcome.fail(
                    "serve round",
                    &format!(
                        "determinism gate: round facts changed\n  first: {reference:?}\n  now:   {facts:?}"
                    ),
                );
            }
            Some(_) => {}
        }
    }
    (untraced, traced, first)
}

fn push_facts(facts: &RoundFacts, outcome: &mut Outcome) {
    let class = |c: Class| facts.classes.get(&c).copied().unwrap_or(0) as f64;
    outcome.metric("serve.hits", class(Class::Hit), "count");
    outcome.metric("serve.cold", class(Class::Cold), "count");
    outcome.metric("serve.rebuilds", class(Class::Rebuild), "count");
    outcome.metric("serve.evictions", facts.evictions as f64, "count");
    outcome.metric(
        "serve.pipeline_solver_calls",
        facts.pipeline_solver_calls as f64,
        "count",
    );
    outcome.metric("store.entries", facts.store_entries as f64, "count");
    outcome.metric("store.bytes", facts.store_bytes as f64, "B");
}

fn push_class_times(samples: &Samples, outcome: &mut Outcome) {
    for (name, class) in [
        ("serve.hit_ms_p50", Class::Hit),
        ("serve.cold_ms_p50", Class::Cold),
        ("serve.rebuild_ms_p50", Class::Rebuild),
    ] {
        let p50 = samples
            .by_class
            .get(&class)
            .and_then(Keyed::p50)
            .unwrap_or(0.0);
        outcome.metric(name, p50, "ms");
    }
}

/// The serve layer measured on a batch workload's pairs: each pair
/// requested cold and then again (hit), the cache emptied with the
/// `evict` method, and each pair requested once more (store-warm
/// rebuild). Pushes the `serve.*` and `store.*` per-layer metrics.
pub fn probe(cases: &[Case], outcome: &mut Outcome) {
    let dir = store_dir("probe");
    let server = match fresh_server(usize::MAX / 2, &dir) {
        Ok(server) => server,
        Err(e) => {
            outcome.attempted += 1;
            outcome.fail("serve probe", &e);
            return;
        }
    };
    let targets: Vec<Target> = cases
        .iter()
        .map(|c| Target {
            method: "analyze",
            proc_name: c.proc_name.clone(),
            sources: c.sources.to_vec(),
            programs: vec![c.base.clone(), c.modified.clone()],
        })
        .collect();
    let mut samples = Samples::default();
    let mut facts = RoundFacts::default();
    let evict = "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"evict\"}";
    let plan: Vec<Option<(usize, Class)>> = (0..targets.len())
        .flat_map(|i| [Some((i, Class::Cold)), Some((i, Class::Hit))])
        .chain([None])
        .chain((0..targets.len()).map(|i| Some((i, Class::Rebuild))))
        .collect();
    let mut seen = vec![false; targets.len()];
    for (pos, entry) in plan.into_iter().enumerate() {
        let Some((i, expected)) = entry else {
            server.handle_line(evict);
            continue;
        };
        let line = request_line(&targets[i], pos);
        let before = server.metrics();
        let start = Instant::now();
        let response = server.handle_line(&line);
        let elapsed = ms(start.elapsed());
        let after = server.metrics();
        let class = classify(&before, &after, seen[i]);
        seen[i] = true;
        let checked = class.and_then(|class| {
            if class != expected {
                return Err(format!("answered as {class:?}, expected {expected:?}"));
            }
            let value = parse(&response).map_err(|e| e.to_string())?;
            if value.get("result").is_none() {
                return Err(format!("error response: {response:.300}"));
            }
            Ok(class)
        });
        match checked {
            Ok(class) => {
                *facts.classes.entry(class).or_default() += 1;
                samples
                    .by_class
                    .entry(class)
                    .or_default()
                    .push(pos, 0, elapsed);
            }
            Err(e) => {
                outcome.attempted += 1;
                outcome.fail(&format!("serve probe {}", cases[i].name), &e);
            }
        }
    }
    let metrics = server.metrics();
    facts.evictions = metrics.evictions;
    facts.pipeline_solver_calls = metrics.pipeline_solver_calls;
    (facts.store_entries, facts.store_bytes) = store_size(&dir);
    drop(server);
    remove_dir(&dir);
    push_class_times(&samples, outcome);
    push_facts(&facts, outcome);
}

/// Runs `serve_mix` end to end.
pub fn run(args: &Args) -> Outcome {
    let seed = args.seed.unwrap_or(batch::DEFAULT_SEED);
    let mut outcome = Outcome::default();
    let (mix, setup_s) = repeated_setup(|| build_mix(seed, &store_dir("setup")));
    outcome.info("seed", seed.to_string());
    outcome.info(
        "shape",
        format!(
            "{{\"arms\": {}, \"guard_depth\": {}, \"helpers\": {}, \"call_depth\": {}, \"globals\": {}, \"edits\": {}, \"pairs\": {SERVE_PAIRS}, \"chains\": {SERVE_CHAINS}}}",
            SERVE_SHAPE.arms,
            SERVE_SHAPE.guard_depth,
            SERVE_SHAPE.helpers,
            SERVE_SHAPE.call_depth,
            SERVE_SHAPE.globals,
            batch::GEN_EDITS
        ),
    );
    let mix = match mix {
        Ok(mix) => mix,
        Err(e) => {
            outcome.attempted = 1;
            outcome.fail("serve set-up", &e);
            return outcome;
        }
    };
    outcome.info("round_requests", mix.steps.len().to_string());
    outcome.info(
        "serve_config",
        format!(
            "{{\"jobs\": 1, \"pool\": 1, \"cache_bytes\": {}, \"store\": \"fresh per round\"}}",
            mix.budget
        ),
    );
    outcome.info("clients", "1".to_string());
    outcome.info("loop", json_str("closed"));

    if !args.trace {
        let (samples, _, facts) = measure(&mix, args.seconds, None, &mut outcome);
        if let Some(facts) = &facts {
            outcome.info("stable_digest", facts_digest(facts, &mix));
        }
        batch::push_end_to_end(
            &samples.op,
            &samples.control,
            samples.rounds,
            setup_s,
            &mut outcome,
        );
        return outcome;
    }

    let mut log = SpanLog::new();
    let (untraced, traced, facts) = measure(&mix, args.seconds, Some(&mut log), &mut outcome);
    outcome.info("samples_untraced", untraced.op.len().to_string());
    outcome.info("samples_traced", traced.op.len().to_string());
    push_class_times(&traced, &mut outcome);
    if let Some(facts) = &facts {
        push_facts(facts, &mut outcome);
    }
    outcome.metric("ir.parse_ms", traced.parse.p50().unwrap_or(0.0), "ms");
    outcome.metric(
        "diff.fingerprint_ms",
        traced.fingerprint.p50().unwrap_or(0.0),
        "ms",
    );
    outcome.metric(
        "pipeline.speedup_vs_full",
        untraced.control.sum() / untraced.op.sum(),
        "ratio",
    );
    outcome.metric(
        "trace.overhead_pct",
        batch::overhead_pct(&traced.op, &untraced.op),
        "%",
    );
    // The pipeline layers, on this workload's pairs, straight through the
    // library (the server hides its stages).
    let cases: Vec<Case> = (0..SERVE_PAIRS)
        .map(|k| batch::gen_case(&SERVE_SHAPE, SERVE_FIRST_SEED + k as u64, batch::GEN_EDITS))
        .collect();
    batch::pipeline_layers(
        &cases,
        &mut log,
        &mut outcome,
        &["ir.parse_ms", "diff.fingerprint_ms"],
    );
    match log.write(&format!("trace-serve_mix-seed{seed}.jsonl")) {
        Ok(path) => outcome.info("span_log", json_str(&path)),
        Err(e) => eprintln!("perfbench: {e}"),
    }
    outcome
}

/// A digest of the round's stable facts and the budget's prediction.
fn facts_digest(facts: &RoundFacts, mix: &Mix) -> String {
    let text = format!(
        "{:?} {:?} {}",
        facts.classes, facts.pipeline_solver_calls, mix.evictions
    );
    format!("\"{:016x}\"", fnv1a(FNV_OFFSET, text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(cache_hits: u64, explorations: u64, errors: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits,
            explorations,
            errors,
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn classify_reads_the_counter_deltas() {
        let before = snapshot(3, 5, 0);
        assert_eq!(classify(&before, &snapshot(4, 5, 0), true), Ok(Class::Hit));
        assert_eq!(
            classify(&before, &snapshot(3, 6, 0), false),
            Ok(Class::Cold)
        );
        assert_eq!(
            classify(&before, &snapshot(3, 6, 0), true),
            Ok(Class::Rebuild)
        );
        // A hit on a key never requested, an error, or no work at all.
        assert!(classify(&before, &snapshot(4, 5, 0), false).is_err());
        assert!(classify(&before, &snapshot(3, 5, 1), true).is_err());
        assert!(classify(&before, &snapshot(3, 5, 0), true).is_err());
    }

    #[test]
    fn classify_agrees_with_a_real_server() {
        let dir = std::env::temp_dir().join(format!("perfbench-classify-{}", std::process::id()));
        let server = fresh_server(usize::MAX / 2, &dir).unwrap();
        let target = &targets()[0];
        let line = request_line(target, 0);
        let answer = |seen: bool| {
            let before = server.metrics();
            server.handle_line(&line);
            classify(&before, &server.metrics(), seen)
        };
        assert_eq!(answer(false), Ok(Class::Cold));
        assert_eq!(answer(true), Ok(Class::Hit));
        server.handle_line("{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"evict\"}");
        assert_eq!(answer(true), Ok(Class::Rebuild));
        drop(server);
        remove_dir(&dir);
    }

    #[test]
    fn template_has_a_seed_independent_mix() {
        let keys = SERVE_PAIRS + SERVE_CHAINS;
        for seed in [1, 2024] {
            let mut order: Vec<usize> = (0..keys).collect();
            SplitMix::new(seed).shuffle(&mut order);
            let steps = template(&order);
            let count = |c: Class| steps.iter().filter(|s| s.class == c).count();
            assert_eq!(count(Class::Cold), keys);
            assert_eq!(count(Class::Hit), 2 * keys - 3);
            assert_eq!(count(Class::Rebuild), (keys - LONG_REUSE).div_ceil(2));
            assert!(
                count(Class::Hit) * 2 > steps.len(),
                "p50 must fall among hits"
            );
        }
    }

    #[test]
    fn chosen_budget_reproduces_the_template_under_jitter() {
        let keys = SERVE_PAIRS + SERVE_CHAINS;
        let mut order: Vec<usize> = (0..keys).collect();
        SplitMix::new(9).shuffle(&mut order);
        let steps = template(&order);
        // Analyze entries about 2.7 KB, chains twice that.
        let costs: Vec<usize> = (0..keys)
            .map(|k| {
                if k < SERVE_PAIRS {
                    2200 + 37 * (k % 19)
                } else {
                    5400 + 53 * (k % 7)
                }
            })
            .collect();
        let budget = choose_budget(&steps, &costs).unwrap();
        let (classes, evictions) = simulate(&steps, &costs, budget);
        let wanted: Vec<Class> = steps.iter().map(|s| s.class).collect();
        assert_eq!(classes, wanted);
        for shift in [-40i64, 40] {
            let jittered: Vec<usize> = costs
                .iter()
                .enumerate()
                .map(|(k, &c)| (c as i64 + if k % 2 == 0 { shift } else { -shift }) as usize)
                .collect();
            assert_eq!(
                simulate(&steps, &jittered, budget),
                (wanted.clone(), evictions)
            );
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let dir = std::env::temp_dir().join(format!("perfbench-mix-{}", std::process::id()));
        let a = build_mix(11, &dir).unwrap();
        let b = build_mix(11, &dir).unwrap();
        let c = build_mix(12, &dir).unwrap();
        assert_eq!(a.targets.len(), SERVE_PAIRS + SERVE_CHAINS);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.steps, b.steps);
        // The seed orders the requests; the pairs are the same.
        assert!(a.lines != c.lines && a.steps != c.steps);
        let sources = |m: &Mix| {
            m.targets
                .iter()
                .map(|t| t.sources.clone())
                .collect::<Vec<_>>()
        };
        assert!(sources(&a) == sources(&c));
        remove_dir(&dir);
    }
}
