//! The typed metrics registry: one named, sorted map subsuming the
//! scattered stats structs (`SolverStats`, `ExecStats`, `SummaryStats`,
//! stage timings, store status).
//!
//! Every metric carries a [`Stability`] class. *Stable* metrics are part
//! of the determinism contract: their values are byte-identical across
//! warm and cold stores and with summaries on or off (structural
//! counters, pipeline node counts). *Volatile* metrics are real but
//! runtime-dependent (timings, solver activity, warm-start sizes).
//! Consumers that diff output across configurations — the CI byte-diff
//! legs, the determinism tests — compare only the stable dump
//! ([`MetricsRegistry::stable_json`]).
//!
//! Aggregation is deterministic by construction: the map is a `BTreeMap`
//! (sorted emission) and [`MetricsRegistry::merge`] folds one registry
//! into another in a fixed order.

use std::collections::BTreeMap;

use crate::json;

/// A metric value: monotonically accumulated counter, point-in-time
/// gauge, or boolean flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Flag(bool),
}

/// Whether a metric participates in the cross-configuration determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Byte-identical across warm/cold stores, summaries on/off, and
    /// repeat runs.
    Stable,
    /// Runtime-dependent: timings, solver activity.
    Volatile,
}

/// A sorted name → (value, stability) map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, (MetricValue, Stability)>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn set_counter(&mut self, name: &str, value: u64, stability: Stability) {
        self.metrics
            .insert(name.to_string(), (MetricValue::Counter(value), stability));
    }

    pub fn set_gauge(&mut self, name: &str, value: f64, stability: Stability) {
        self.metrics
            .insert(name.to_string(), (MetricValue::Gauge(value), stability));
    }

    pub fn set_flag(&mut self, name: &str, value: bool, stability: Stability) {
        self.metrics
            .insert(name.to_string(), (MetricValue::Flag(value), stability));
    }

    /// The counter's value, or 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some((MetricValue::Counter(v), _)) => *v,
            _ => 0,
        }
    }

    /// The gauge's value, or 0.0 when absent or not a gauge.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some((MetricValue::Gauge(v), _)) => *v,
            _ => 0.0,
        }
    }

    /// The flag's value, or false when absent or not a flag.
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.metrics.get(name), Some((MetricValue::Flag(true), _)))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue, Stability)> {
        self.metrics
            .iter()
            .map(|(name, (value, stability))| (name.as_str(), *value, *stability))
    }

    /// Merges a shard into this registry: counters add, flags OR, gauges
    /// take the shard's value (callers merge in a fixed order, so the
    /// result is deterministic).
    pub fn merge(&mut self, shard: &MetricsRegistry) {
        for (name, (value, stability)) in &shard.metrics {
            match (self.metrics.get_mut(name), value) {
                (Some((MetricValue::Counter(mine), _)), MetricValue::Counter(theirs)) => {
                    *mine += theirs;
                }
                (Some((MetricValue::Flag(mine), _)), MetricValue::Flag(theirs)) => {
                    *mine |= theirs;
                }
                (Some((slot, _)), _) => *slot = *value,
                (None, _) => {
                    self.metrics.insert(name.clone(), (*value, *stability));
                }
            }
        }
    }

    /// The full registry as one sorted JSON object.
    pub fn to_json(&self) -> String {
        self.json_of(None)
    }

    /// Only the [`Stability::Stable`] subset, as one sorted JSON object.
    /// This is the dump the determinism contract covers.
    pub fn stable_json(&self) -> String {
        self.json_of(Some(Stability::Stable))
    }

    /// Only the [`Stability::Volatile`] subset.
    pub fn volatile_json(&self) -> String {
        self.json_of(Some(Stability::Volatile))
    }

    fn json_of(&self, filter: Option<Stability>) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, (value, stability)) in &self.metrics {
            if filter.is_some_and(|f| f != *stability) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&json::quote(name));
            out.push(':');
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&json::format_f64(*v)),
                MetricValue::Flag(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_name_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("solver.checks", 7, Stability::Volatile);
        reg.set_counter("exec.states_explored", 3, Stability::Stable);
        reg.set_flag("store.saved", true, Stability::Stable);
        assert_eq!(
            reg.to_json(),
            r#"{"exec.states_explored":3,"solver.checks":7,"store.saved":true}"#
        );
        assert_eq!(
            reg.stable_json(),
            r#"{"exec.states_explored":3,"store.saved":true}"#
        );
        assert_eq!(reg.volatile_json(), r#"{"solver.checks":7}"#);
    }

    #[test]
    fn merge_adds_counters_and_ors_flags() {
        let mut a = MetricsRegistry::new();
        a.set_counter("solver.checks", 5, Stability::Volatile);
        a.set_flag("sweep.exhausted", false, Stability::Volatile);
        let mut b = MetricsRegistry::new();
        b.set_counter("solver.checks", 2, Stability::Volatile);
        b.set_counter("solver.prefix_cache_hits", 4, Stability::Volatile);
        b.set_flag("sweep.exhausted", true, Stability::Volatile);
        a.merge(&b);
        assert_eq!(a.counter("solver.checks"), 7);
        assert_eq!(a.counter("solver.prefix_cache_hits"), 4);
        assert!(a.flag("sweep.exhausted"));
    }

    #[test]
    fn merge_is_order_insensitive_for_counters_and_flags() {
        let shard = |checks: u64, flag: bool| {
            let mut r = MetricsRegistry::new();
            r.set_counter("c", checks, Stability::Volatile);
            r.set_flag("f", flag, Stability::Volatile);
            r
        };
        let shards = [shard(1, false), shard(2, true), shard(3, false)];
        let mut fwd = MetricsRegistry::new();
        let mut rev = MetricsRegistry::new();
        for s in &shards {
            fwd.merge(s);
        }
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.to_json(), rev.to_json());
    }

    #[test]
    fn gauges_render_with_a_decimal_point() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("sweep.feedback_ratio", 0.5, Stability::Volatile);
        reg.set_gauge("whole", 2.0, Stability::Volatile);
        assert_eq!(reg.to_json(), r#"{"sweep.feedback_ratio":0.5,"whole":2.0}"#);
    }
}
