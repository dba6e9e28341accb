//! The names the benchmark reports under. `BENCHMARK.json` at the root of the
//! checkout is the one place that holds every metric's unit, direction and
//! regression bound; the benchmark reads it, and refuses to report a run
//! whose metrics are not exactly the ones it lists, so the file and the code
//! cannot drift. What each per-layer metric should move is the table in
//! `benchmark/README.md`.

use crate::json::Json;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// The share of the parent's median by which an end-to-end metric may
    /// get worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics_of(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .ok_or(format!("BENCHMARK.json: no {key}"))?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("BENCHMARK.json: a metric of {key} has no {k}"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    /// `BENCHMARK.json` of the working directory: `run.sh` starts the
    /// benchmark at the root of the checkout.
    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json at the root of the checkout: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Manifest {
            run_seconds: doc.num("run_seconds"),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_owned))
                .collect(),
            end_to_end: metrics_of(&doc, "end_to_end")?,
            per_layer: metrics_of(&doc, "per_layer")?,
        })
    }

    /// The metrics a run of this mode has to report, in the file's order.
    pub fn of_mode(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
