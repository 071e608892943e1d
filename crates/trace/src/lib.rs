//! `dise-trace` — the observability layer: hierarchical spans, the typed
//! metrics registry, and trace exporters.
//!
//! The crate has three pieces:
//!
//! * **Spans** ([`Tracer`], [`TraceHandle`], [`OpenSpan`]): monotonic
//!   enter/exit timing over every pipeline stage and summary build.
//!   A [`TraceHandle`] threads through `ExecConfig`; when it is absent
//!   (the default) instrumentation is a `None` check and nothing else.
//! * **Metrics** ([`MetricsRegistry`]): a sorted name → value map with a
//!   [`Stability`] class per metric. The *stable* subset is byte-identical
//!   across warm/cold stores and summaries on/off; timings and solver
//!   activity are *volatile*. The human-readable `solver:`/`stages:`/`store:`/
//!   `summaries:` stat lines are re-derived from this registry.
//! * **Exporters** ([`event_log`], [`chrome_trace`], [`render_profile`],
//!   [`stats_record`]): the versioned `--trace-json` JSONL log (schema
//!   [`TRACE_SCHEMA_VERSION`], checked by [`validate_log`]), a Chrome
//!   `trace_event` document, and the `dise profile` span tree.
//!
//! No external dependencies: JSON emission and parsing are in [`json`].

pub mod export;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod span;

pub use export::{chrome_trace, event_log, render_profile, stats_record};
pub use metrics::{MetricValue, MetricsRegistry, Stability};
pub use schema::{validate_line, validate_log, LogSummary};
pub use span::{OpenSpan, SpanId, SpanRecord, TraceEvent, TraceHandle, Tracer};

/// Version stamped into every emitted trace record; bump on any
/// breaking change to the event-log format.
pub const TRACE_SCHEMA_VERSION: u32 = 1;
