//! Observability invariants across the corpus.
//!
//! 1. The **stable** half of the metrics registry — structural counters
//!    like states, paths, changed/affected nodes, and path-condition
//!    counts — must be byte-identical with summaries on or off and with
//!    a tracer attached or not, on every artifact pair. This is the
//!    contract the CI registry byte-diff legs build on
//!    (`--stats json | grep '"kind":"stable"'`).
//! 2. A session run with a tracer attached records the full span
//!    hierarchy, the event-log exporter's output round-trips through the
//!    schema validator, and the spans attribute every pipeline solver
//!    check of the run.

use std::sync::Arc;

use dise::artifacts::{asw, figures, oae, wbs};
use dise::core::dise::{run_dise, DiseConfig};
use dise::core::metrics::result_registry;
use dise::core::session::AnalysisSession;
use dise::ir::Program;
use dise::symexec::SummaryMode;
use dise::trace::{
    chrome_trace, event_log, render_profile, validate_log, SpanRecord, TraceEvent, TraceHandle,
    Tracer,
};

fn check_stable_dump(name: &str, base: &Program, modified: &Program, proc_name: &str) {
    let mut summarized = DiseConfig::default();
    summarized.exec.summaries = SummaryMode::On;
    let mut inlined = DiseConfig::default();
    inlined.exec.summaries = SummaryMode::Off;
    let mut traced = DiseConfig::default();
    traced.exec.tracer = Some(TraceHandle::new(Arc::new(Tracer::new())));
    let expected = result_registry(
        &run_dise(base, modified, proc_name, &summarized).expect("summarized dise runs"),
    )
    .stable_json();
    for (what, config) in [("summaries off", inlined), ("traced", traced)] {
        let result = run_dise(base, modified, proc_name, &config).expect("dise runs");
        assert_eq!(
            result_registry(&result).stable_json(),
            expected,
            "{name}: stable registry dump must not move ({what})"
        );
    }
}

#[test]
fn stable_registry_dump_is_jobs_invariant_on_figures() {
    check_stable_dump(
        "fig2",
        &figures::fig2_base(),
        &figures::fig2_modified(),
        "update",
    );
}

#[test]
fn stable_registry_dump_is_jobs_invariant_on_wbs() {
    let artifact = wbs::artifact();
    for version in &artifact.versions {
        check_stable_dump(
            &format!("WBS {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

#[test]
fn stable_registry_dump_is_jobs_invariant_on_oae() {
    let artifact = oae::artifact();
    for version in &artifact.versions {
        check_stable_dump(
            &format!("OAE {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

#[test]
fn stable_registry_dump_is_jobs_invariant_on_asw() {
    let artifact = asw::artifact();
    for version in artifact.versions.iter().take(4) {
        check_stable_dump(
            &format!("ASW {}", version.id),
            &artifact.base,
            &version.program,
            artifact.proc_name,
        );
    }
}

fn spans_of(events: &[TraceEvent]) -> Vec<&SpanRecord> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            TraceEvent::Warning { .. } => None,
        })
        .collect()
}

#[test]
fn traced_session_records_the_stage_hierarchy() {
    let base = figures::fig2_base();
    let modified = figures::fig2_modified();
    let tracer = Arc::new(Tracer::new());
    let mut config = DiseConfig::default();
    config.exec.tracer = Some(TraceHandle::new(tracer.clone()));
    let mut session =
        AnalysisSession::open(&base, &modified, "update", config).expect("session opens");
    let result = session.result().expect("pipeline runs");
    session.finalize();

    let events = tracer.events();
    let spans = spans_of(&events);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "session",
        "stage.flatten",
        "stage.diff",
        "stage.affected",
        "stage.explore",
    ] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    // Every stage nests under the session root.
    let root = spans.iter().find(|s| s.name == "session").expect("root");
    for span in &spans {
        if span.name.starts_with("stage.") {
            assert_eq!(span.parent, Some(root.id), "{} parent", span.name);
        }
    }
    // The explore stage attributes the run's pipeline solver checks
    // exactly (the `dise profile` acceptance bar is >= 95%).
    let explore = spans
        .iter()
        .find(|s| s.name == "stage.explore")
        .expect("explore");
    let attributed = explore
        .counters
        .iter()
        .find(|(name, _)| name == "solver.pipeline_checks")
        .map(|(_, value)| *value)
        .expect("explore span carries solver.pipeline_checks");
    assert_eq!(
        attributed,
        result.summary.stats().solver.pipeline_checks(),
        "stage.explore must attribute every pipeline solver check"
    );
}

#[test]
fn event_log_round_trips_through_the_validator() {
    let base = figures::fig2_base();
    let modified = figures::fig2_modified();
    let tracer = Arc::new(Tracer::new());
    let mut config = DiseConfig::default();
    config.exec.tracer = Some(TraceHandle::new(tracer.clone()));
    let mut session =
        AnalysisSession::open(&base, &modified, "update", config).expect("session opens");
    let result = session.result().expect("pipeline runs");
    session.finalize();

    let events = tracer.events();
    let registry = result_registry(&result);
    let log = event_log(
        &events,
        &[("dise".to_string(), registry)],
        "observability test",
    );
    let summary = validate_log(&log).expect("exporter output validates against the schema");
    assert_eq!(summary.spans, spans_of(&events).len());
    assert_eq!(summary.stats_records, 2);

    // The Chrome export is a well-formed JSON document with one complete
    // event per span.
    let chrome = chrome_trace(&events);
    let parsed = dise::trace::json::parse(&chrome).expect("chrome trace parses");
    assert_eq!(
        parsed.as_array().expect("array").len(),
        events.len(),
        "one chrome event per trace event"
    );

    // The profile tree renders the root first with stages indented.
    let profile = render_profile(&events);
    let first = profile.lines().next().expect("non-empty profile");
    assert!(first.starts_with("session"), "{first}");
    assert!(profile.contains("\n  stage.explore"), "{profile}");
}
