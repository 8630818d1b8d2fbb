//! What one benchmark run found: metrics, correctness gates, failures.

use serde::Value;

use crate::stats::Tally;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the number was obtained (sample count, percentile, ...).
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub gates: Vec<Gate>,
    /// The metrics `BENCHMARK.json` names: end-to-end (untraced) or
    /// per-layer (traced).
    pub metrics: Vec<Metric>,
    /// The workload's end-to-end metrics under their own names
    /// (`mine_s`, `query_p99_ms`, `cluster_publish_s`, ...).
    pub named: Vec<Metric>,
    /// Anything else worth keeping in the results file.
    pub detail: Vec<(String, Value)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Every gate passed and at least one operation was attempted.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.gates.iter().all(|g| g.ok)
    }
}

pub fn num(x: f64) -> Value {
    Value::Float(x)
}

pub fn int(x: u64) -> Value {
    Value::Int(i128::from(x))
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The metrics as a `{"name": {"value": .., "unit": ..}}` object.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect(),
    )
}
