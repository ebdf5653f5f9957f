//! The metric tables — read from `BENCHMARK.json`, the one place that names
//! them — and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::json::{self, Value};
use crate::timing::Better;

/// One named metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// The name later issues cite.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    /// What a user of the system sees; every workload reports all of them
    /// from its untraced run (README, "End-to-end metrics").
    pub end_to_end: Vec<MetricDef>,
    /// Numbers of single layers, from the traced run. A layer a workload does
    /// not exercise reports 0 there.
    pub per_layer: Vec<MetricDef>,
}

fn metric_list(spec: &Value, key: &str) -> Vec<MetricDef> {
    let entries = spec.get(key).and_then(Value::as_array);
    let entries = entries.unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"));
    entries
        .iter()
        .map(|entry| {
            let text = |field: &str| {
                let value = entry.get(field).and_then(Value::as_str);
                value.unwrap_or_else(|| panic!("a `{key}` entry has no `{field}`"))
            };
            MetricDef {
                name: text("name").to_string(),
                unit: text("unit").to_string(),
                better: match text("better") {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("`better` is `{other}`"),
                },
                bound: entry.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// `BENCHMARK.json` as it was when this binary was built.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let parsed = json::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        Spec {
            end_to_end: metric_list(&parsed, "end_to_end"),
            per_layer: metric_list(&parsed, "per_layer"),
        }
    })
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations issued (and checked), warm-up included.
    pub attempted: u64,
    /// Operations shed, answered with an error, or answered wrongly.
    pub failed: u64,
    /// Did every correctness check hold? A failed check fails the run.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The human-readable report printed above the result line.
    pub report: String,
}

impl Outcome {
    /// An outcome no check has failed yet.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a metric value; `name` must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let spec = spec();
        let mut listed = spec.end_to_end.iter().chain(&spec.per_layer);
        assert!(
            listed.any(|def| def.name == name),
            "`{name}` is not a metric of BENCHMARK.json"
        );
        self.metrics.insert(name, value);
    }

    /// Append a line to the human-readable report.
    pub fn note(&mut self, line: impl AsRef<str>) {
        self.report.push_str(line.as_ref());
        self.report.push('\n');
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, holds: bool, what: impl AsRef<str>) {
        if !holds {
            self.correct = false;
            self.note(format!("CHECK FAILED: {}", what.as_ref()));
        }
    }

    /// The value reported for `def`: end-to-end metrics must all be present; a
    /// per-layer metric the workload did not touch reads 0.
    pub fn value(&self, def: &MetricDef) -> f64 {
        match self.metrics.get(def.name.as_str()) {
            Some(&value) => value,
            None if def.bound.is_some() => panic!("workload did not report `{}`", def.name),
            None => 0.0,
        }
    }

    /// The result line: every metric of `table`, by name, with its unit.
    pub fn result_line(&self, table: &[MetricDef]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, def) in table.iter().enumerate() {
            let value = self.value(def);
            assert!(value.is_finite(), "`{}` is not finite", def.name);
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut outcome = Outcome::new();
        outcome.set("wal.fsync_us", 12.5);
        let table = &spec().per_layer;
        let parsed = json::parse(&outcome.result_line(table)).unwrap();
        let metrics = parsed.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), table.len());
        let fsync = parsed.get("metrics").unwrap().get("wal.fsync_us").unwrap();
        assert_eq!(fsync.get("value").and_then(Value::as_f64), Some(12.5));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        assert!(spec().end_to_end.iter().all(|def| def.bound.is_some()));
        assert!(spec().per_layer.iter().all(|def| def.bound.is_none()));
    }
}
