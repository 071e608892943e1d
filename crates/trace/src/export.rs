//! Exporters over a recorded event log: the versioned JSONL event log
//! (`--trace-json`), a Chrome `trace_event` document (`--trace-chrome`,
//! loadable in `chrome://tracing` / Perfetto), and the top-down profile
//! tree `dise profile` prints.

use crate::json::{format_f64, quote};
use crate::metrics::{MetricsRegistry, Stability};
use crate::span::{SpanRecord, TraceEvent};
use crate::TRACE_SCHEMA_VERSION;

/// One `{"type":"stats",...}` line: the registry dump for one scope at
/// one stability class. This exact line is also what `--stats json`
/// prints, so the CLI and the event log share a single format.
pub fn stats_record(scope: &str, kind: Stability, registry: &MetricsRegistry) -> String {
    let kind_name = match kind {
        Stability::Stable => "stable",
        Stability::Volatile => "volatile",
    };
    let metrics = match kind {
        Stability::Stable => registry.stable_json(),
        Stability::Volatile => registry.volatile_json(),
    };
    format!(
        r#"{{"type":"stats","schema":{TRACE_SCHEMA_VERSION},"scope":{},"kind":"{kind_name}","metrics":{metrics}}}"#,
        quote(scope)
    )
}

fn span_line(span: &SpanRecord) -> String {
    let parent = match span.parent {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    let mut counters = String::from("{");
    for (i, (name, value)) in span.counters.iter().enumerate() {
        if i > 0 {
            counters.push(',');
        }
        counters.push_str(&quote(name));
        counters.push(':');
        counters.push_str(&value.to_string());
    }
    counters.push('}');
    format!(
        r#"{{"type":"span","schema":{TRACE_SCHEMA_VERSION},"id":{},"parent":{parent},"name":{},"tid":{},"start_ns":{},"dur_ns":{},"counters":{counters}}}"#,
        span.id,
        quote(&span.name),
        span.tid,
        span.start_ns,
        span.dur_ns
    )
}

/// The structured event log: one JSON object per line. The first line is
/// a `meta` record carrying the schema version and event counts; then one
/// `span`/`warning` line per event in recording order; then one `stats`
/// line per (scope, stability) registry dump.
pub fn event_log(
    events: &[TraceEvent],
    stats: &[(String, MetricsRegistry)],
    label: &str,
) -> String {
    let spans = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span(_)))
        .count();
    let warnings = events.len() - spans;
    let mut out = format!(
        r#"{{"type":"meta","schema":{TRACE_SCHEMA_VERSION},"label":{},"spans":{spans},"warnings":{warnings}}}"#,
        quote(label)
    );
    out.push('\n');
    for event in events {
        match event {
            TraceEvent::Span(span) => out.push_str(&span_line(span)),
            TraceEvent::Warning { message, at_ns } => out.push_str(&format!(
                r#"{{"type":"warning","schema":{TRACE_SCHEMA_VERSION},"message":{},"at_ns":{at_ns}}}"#,
                quote(message)
            )),
        }
        out.push('\n');
    }
    for (scope, registry) in stats {
        out.push_str(&stats_record(scope, Stability::Stable, registry));
        out.push('\n');
        out.push_str(&stats_record(scope, Stability::Volatile, registry));
        out.push('\n');
    }
    out
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// A Chrome `trace_event` JSON document: complete (`"ph":"X"`) events for
/// spans, instant events for warnings. Timestamps are microseconds with
/// the nanosecond remainder kept as a fraction.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        match event {
            TraceEvent::Span(span) => out.push_str(&format!(
                r#"{{"name":{},"ph":"X","pid":1,"tid":{},"ts":{},"dur":{},"args":{{"id":{}}}}}"#,
                quote(&span.name),
                span.tid,
                micros(span.start_ns),
                micros(span.dur_ns),
                span.id
            )),
            TraceEvent::Warning { message, at_ns } => out.push_str(&format!(
                r#"{{"name":{},"ph":"i","s":"g","pid":1,"tid":0,"ts":{}}}"#,
                quote(&format!("warning: {message}")),
                micros(*at_ns)
            )),
        }
    }
    out.push_str("\n]\n");
    out
}

/// Renders the span tree top-down: children indented under their parent,
/// siblings ordered by start time, per-span counters in brackets.
/// Warnings are appended after the tree.
pub fn render_profile(events: &[TraceEvent]) -> String {
    let spans: Vec<&SpanRecord> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            TraceEvent::Warning { .. } => None,
        })
        .collect();
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let mut out = String::new();
    // Roots: no parent, or a parent that was never closed (and so is
    // absent from the log).
    for &i in &order {
        if spans[i].parent.is_none_or(|p| !known.contains(&p)) {
            render_span(&mut out, &spans, &order, spans[i], 0);
        }
    }
    for event in events {
        if let TraceEvent::Warning { message, .. } = event {
            out.push_str(&format!("warning: {message}\n"));
        }
    }
    out
}

fn render_span(
    out: &mut String,
    spans: &[&SpanRecord],
    order: &[usize],
    span: &SpanRecord,
    depth: usize,
) {
    let label = format!("{}{}", "  ".repeat(depth), span.name);
    let ms = format_f64(span.dur_ns as f64 / 1e6);
    let mut counters = String::new();
    if !span.counters.is_empty() {
        let parts: Vec<String> = span
            .counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        counters = format!("  [{}]", parts.join(", "));
    }
    out.push_str(&format!("{label:<36} {ms:>10} ms{counters}\n"));
    for &i in order {
        if spans[i].parent == Some(span.id) {
            render_span(out, spans, order, spans[i], depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample_events() -> Vec<TraceEvent> {
        let tracer = Tracer::new();
        let root = tracer.begin("session", None);
        let child = tracer.begin("stage.explore", Some(root.id()));
        tracer.end_with(child, vec![("solver.checks".into(), 9)]);
        tracer.warning("running cold");
        tracer.end(root);
        tracer.events()
    }

    #[test]
    fn event_log_is_one_json_object_per_line() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("exec.states_explored", 4, Stability::Stable);
        let log = event_log(&sample_events(), &[("dise".to_string(), reg)], "test run");
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 6); // meta + 2 spans + warning + 2 stats
        for line in &lines {
            crate::json::parse(line).unwrap();
        }
        assert!(lines[0].contains(r#""type":"meta""#));
        assert!(lines[0].contains(r#""spans":2"#));
        assert!(lines[0].contains(r#""warnings":1"#));
        assert!(lines[4].contains(r#""kind":"stable""#));
        assert!(lines[4].contains(r#""exec.states_explored":4"#));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let doc = chrome_trace(&sample_events());
        let parsed = crate::json::parse(&doc).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("X"));
    }

    #[test]
    fn profile_indents_children_under_parents() {
        let rendered = render_profile(&sample_events());
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("session"));
        assert!(lines[1].starts_with("  stage.explore"));
        assert!(lines[1].contains("[solver.checks=9]"));
        assert_eq!(lines[2], "warning: running cold");
    }
}
