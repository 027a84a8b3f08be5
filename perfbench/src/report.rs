//! The result a run prints: named metrics with units, the correctness
//! tally, and the final one-line JSON object.

use serde_json::{json, Map, Value};

/// Metrics in the order they were recorded, plus the check tally.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Checks and requests attempted.
    pub attempted: u64,
    /// Failure messages (each one failed check or request).
    pub failures: Vec<String>,
    /// Context printed beside the metrics: sample counts, repetitions.
    notes: Map,
}

impl Report {
    /// Records metric `name` with `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a note for the detail line.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.insert(key.to_string(), value);
    }

    /// The detail line printed before the result: the notes, the
    /// error rate and the first few failures.
    #[must_use]
    pub fn detail(&self) -> Value {
        let mut d = self.notes.clone();
        d.insert("error_rate".into(), json!(self.error_rate()));
        let first: Vec<&String> = self.failures.iter().take(10).collect();
        d.insert("failures".into(), json!(first));
        json!({"detail": Value::Object(d)})
    }

    /// Counts `attempted` checks with their `failures`.
    pub fn tally(&mut self, attempted: u64, failures: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Metric names and units, in order.
    pub fn names(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.metrics.iter().map(|m| (m.0, m.2))
    }

    /// Did every check pass (and every metric read as a finite number)?
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Failed checks over attempted ones.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The final result line.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            metrics.insert((*name).to_string(), json!({"value": *value, "unit": *unit}));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failures.len() as u64,
            "metrics": Value::Object(metrics),
        })
    }
}
