//! The benchmark definition, read from the repository's `BENCHMARK.json`
//! at compile time: the workloads and every metric's name, unit,
//! direction and regression bound. The code computes values by metric
//! name; this file decides which names are reported and how they are
//! judged.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = root
        .get(key)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("`{key}` is not a list"))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{key}` entry lacks `{k}`"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, not {better}"));
            }
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Value::from_json(text).map_err(|e| e.to_string())?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_seq)
            .ok_or("`workloads` is not a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "a workload lacks `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("`run_seconds` is not a whole number")?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// The definition this binary was built with.
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }
}
