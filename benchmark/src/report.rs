//! The metric catalog (read from `BENCHMARK.json`, its single source) and
//! the shapes results are printed and stored in.

use crate::layers::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// `BENCHMARK.json`, compiled in: it names every metric with its unit,
/// direction and bound.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Definition {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Definition {
    pub fn load() -> Definition {
        let doc = layers::parse_json(DEFINITION).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricDef> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("BENCHMARK.json lists metrics")
                .iter()
                .map(|m| MetricDef {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .expect("metric unit")
                        .to_string(),
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Definition {
            workloads: doc
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json lists workloads")
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// One workload's run: the verdict and every metric it reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer matched its oracle and every anchor held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind each percentile, for the human-readable lines.
    pub samples: BTreeMap<String, String>,
    /// Daemon counters from the final scrape (kept in result files).
    pub counters: BTreeMap<String, f64>,
    /// The first few failures.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a percentile with its sample count; flag it when fewer than
    /// ten samples lie beyond it.
    pub fn percentile(&mut self, name: &str, sorted: &[f64], q: f64, scale: f64) {
        self.set(name, crate::stats::quantile(sorted, q) * scale);
        let beyond = ((1.0 - q) * sorted.len() as f64).floor() as usize;
        let flag = if beyond < 10 { " FEW-BEYOND" } else { "" };
        self.samples.insert(
            name.to_string(),
            format!("n={} beyond={beyond}{flag}", sorted.len()),
        );
    }
}

/// A number as JSON: full precision, and never NaN or infinity.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `{"name":{"value":…,"unit":"…"},…}` over `defs`, in their order.
pub fn metrics_json(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = outcome.metrics.get(&d.name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&d.name),
                num(v),
                quote(&d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line of a single run: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome, defs)
    )
}

/// `workload metric value unit [samples]` lines.
pub fn human_lines(workload: &str, outcome: &Outcome, defs: &[MetricDef]) -> Vec<String> {
    defs.iter()
        .map(|d| {
            let v = outcome.metrics.get(&d.name).copied().unwrap_or(0.0);
            let extra = outcome
                .samples
                .get(&d.name)
                .map(|s| format!(" {s}"))
                .unwrap_or_default();
            format!("{workload} {} {v:.6} {}{extra}", d.name, d.unit)
        })
        .collect()
}

/// Write `text` under the results directory, creating it.
pub fn write_result(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_names_six_workloads_and_seven_end_to_end_metrics() {
        let def = Definition::load();
        let names: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(def.workloads, names);
        assert_eq!(def.end_to_end.len(), 7);
        let setup = def
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &def.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(def.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
