//! The result line, the run-info line, and the in-memory span log of a
//! traced run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where traced runs write their span logs, relative to the working
/// directory (the repository root).
pub const OUT_DIR: &str = "perfbench/out";

/// What a workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted (directed ops, or requests).
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(key, raw JSON value)` pairs for the info line.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn info(&mut self, key: &str, raw_json: String) {
        self.info.push((key.to_string(), raw_json));
    }

    /// Records a failed operation and says why on stderr.
    pub fn fail(&mut self, what: &str, detail: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {detail}");
    }

    /// The final stdout line.
    pub fn result_line(&self) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number; non-finite values (a ratio over nothing) print as 0.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    dise_trace::json::quote(s)
}

/// The run-info line: `{"perfbench": {...}}`.
pub fn info_line(info: &[(String, String)]) -> String {
    let members: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"perfbench\": {{{}}}}}", members.join(", "))
}

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u128,
    end_ns: u128,
}

/// Spans of a traced run, kept in memory and written once at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    ops: u64,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id: spans of one operation share it.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    /// Records `name` (child of `parent`, within operation `op`) from
    /// `start` to `end`; returns its duration in milliseconds.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> f64 {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos(),
            end_ns: end.duration_since(self.origin).as_nanos(),
        });
        crate::ms(end.duration_since(start))
    }

    /// Writes the spans as JSON lines to `OUT_DIR/<file>`; returns the
    /// path written, or the error.
    pub fn write(&self, file: &str) -> Result<String, String> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map(json_str).unwrap_or_else(|| "null".to_string());
            let _ = writeln!(
                text,
                "{{\"op\":{},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        let path = Path::new(OUT_DIR).join(file);
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}
