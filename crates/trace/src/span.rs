//! Hierarchical spans with monotonic timing.
//!
//! A [`Tracer`] owns a monotonic epoch, an id counter, and the recorded
//! event log. Opening a span ([`Tracer::begin`]) is lock-free: it hands
//! back an [`OpenSpan`] by value, and nothing is written to the log until
//! the span is closed ([`Tracer::end_with`]). A dropped `OpenSpan` simply
//! never appears in the log, so abandoned work (an early error return)
//! costs nothing and corrupts nothing.
//!
//! [`TraceHandle`] is the piece that threads through the pipeline: a
//! cheap clone of `Arc<Tracer>` plus the parent span new spans should
//! nest under. Each pipeline layer re-parents with [`TraceHandle::child`]
//! before handing the config to the layer below, which is how explore
//! and summary-build spans end up nested under their stage without the
//! executor knowing anything about sessions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Opaque identifier of a span within one [`Tracer`]'s log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A span that has been entered but not yet closed. Returned by value;
/// dropping it without calling [`Tracer::end_with`] discards the span.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
}

impl OpenSpan {
    /// The id child spans should use as their parent.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }
}

/// A closed span as it appears in the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Logical thread. Always 0: every span is opened on the thread that
    /// runs the pipeline. Kept so the JSONL schema and the Chrome export
    /// stay unchanged.
    pub tid: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Counters attributed to this span, in the order the instrumentation
    /// supplied them.
    pub counters: Vec<(String, u64)>,
}

/// One recorded event: a closed span or a warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Span(SpanRecord),
    Warning { message: String, at_ns: u64 },
}

/// The event sink: monotonic clock, id allocator, and the log itself.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds elapsed since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. Lock-free.
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.0),
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span with no counters.
    pub fn end(&self, span: OpenSpan) -> SpanId {
        self.end_with(span, Vec::new())
    }

    /// Closes a span, attaching `counters`, and appends it to the log.
    pub fn end_with(&self, span: OpenSpan, counters: Vec<(String, u64)>) -> SpanId {
        let dur_ns = self.now_ns().saturating_sub(span.start_ns);
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            tid: 0,
            start_ns: span.start_ns,
            dur_ns,
            counters,
        };
        let id = SpanId(record.id);
        self.push(TraceEvent::Span(record));
        id
    }

    /// Records a warning event at the current time.
    pub fn warning(&self, message: &str) {
        self.push(TraceEvent::Warning {
            message: message.to_string(),
            at_ns: self.now_ns(),
        });
    }

    /// Snapshot of the log so far, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn push(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }
}

/// A shareable reference to a [`Tracer`] plus the parent span that new
/// spans opened through this handle nest under.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    tracer: Arc<Tracer>,
    parent: Option<SpanId>,
}

impl TraceHandle {
    /// A root handle: spans opened through it have no parent.
    pub fn new(tracer: Arc<Tracer>) -> TraceHandle {
        TraceHandle {
            tracer,
            parent: None,
        }
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A handle whose spans nest under `parent`.
    pub fn child(&self, parent: SpanId) -> TraceHandle {
        TraceHandle {
            tracer: Arc::clone(&self.tracer),
            parent: Some(parent),
        }
    }

    /// Opens a span under this handle's parent.
    pub fn begin(&self, name: &str) -> OpenSpan {
        self.tracer.begin(name, self.parent)
    }

    /// Closes a span with no counters.
    pub fn end(&self, span: OpenSpan) -> SpanId {
        self.tracer.end(span)
    }

    /// Closes a span, attaching `counters`.
    pub fn end_with(&self, span: OpenSpan, counters: Vec<(String, u64)>) -> SpanId {
        self.tracer.end_with(span, counters)
    }

    /// Records a warning event.
    pub fn warning(&self, message: &str) {
        self.tracer.warning(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_in_close_order() {
        let tracer = Tracer::new();
        let root = tracer.begin("session", None);
        let child = tracer.begin("stage.diff", Some(root.id()));
        let child_id = tracer.end_with(child, vec![("changed_nodes".into(), 3)]);
        let root_id = tracer.end(root);
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        let TraceEvent::Span(first) = &events[0] else {
            panic!("expected span");
        };
        assert_eq!(first.id, child_id.0);
        assert_eq!(first.name, "stage.diff");
        assert_eq!(first.parent, Some(root_id.0));
        assert_eq!(first.counters, vec![("changed_nodes".to_string(), 3)]);
        let TraceEvent::Span(second) = &events[1] else {
            panic!("expected span");
        };
        assert_eq!(second.id, root_id.0);
        assert_eq!(second.parent, None);
    }

    #[test]
    fn dropped_open_span_is_never_recorded() {
        let tracer = Tracer::new();
        let span = tracer.begin("abandoned", None);
        drop(span);
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn handles_reparent_without_touching_the_tracer() {
        let tracer = Arc::new(Tracer::new());
        let handle = TraceHandle::new(Arc::clone(&tracer));
        let root = handle.begin("root");
        let nested = handle.child(root.id());
        let explore = nested.begin("stage.explore");
        nested.end(explore);
        let root_id = handle.end(root);
        let events = tracer.events();
        let TraceEvent::Span(explore) = &events[0] else {
            panic!("expected span");
        };
        assert_eq!(explore.tid, 0);
        assert_eq!(explore.parent, Some(root_id.0));
    }

    #[test]
    fn warnings_carry_a_timestamp() {
        let tracer = Tracer::new();
        tracer.warning("running cold");
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        let TraceEvent::Warning { message, .. } = &events[0] else {
            panic!("expected warning");
        };
        assert_eq!(message, "running cold");
    }
}
