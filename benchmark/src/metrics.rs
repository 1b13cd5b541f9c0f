//! Metric values, and the declarations of `BENCHMARK.json` they answer to.

use yafim::cluster::json::{self, JsonValue};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is always reported"))
        .value
}

/// The parts of `BENCHMARK.json` the harness reads at run time: it is the
/// one place where the run length and the regression bounds are written.
pub struct Schema {
    pub run_seconds: f64,
    /// End-to-end metric name and the share of the parent's median by which
    /// it may get worse.
    bounds: Vec<(String, f64)>,
}

/// The `BENCHMARK.json` this binary was built next to.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

impl Schema {
    pub fn load() -> Schema {
        Schema::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Schema, String> {
        let doc = json::parse(text)?;
        let bounds = doc
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .ok_or("missing `end_to_end`")?
            .iter()
            .map(|v| {
                let name = v.get("name").and_then(JsonValue::as_str);
                let bound = v.get("bound").and_then(JsonValue::as_f64);
                Some((name?.to_string(), bound?))
            })
            .collect::<Option<_>>()
            .ok_or("an end-to-end metric lacks its name or bound")?;
        Ok(Schema {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("missing `run_seconds`")?,
            bounds,
        })
    }

    pub fn bound_of(&self, name: &str) -> f64 {
        self.bounds
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCHMARK.json bounds {name}"))
            .1
    }
}

/// The result line the driver reads: `correct`, `attempted`, `failed` and
/// the metrics by name.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> JsonValue {
    JsonValue::object(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(name, m)| {
                        (
                            name.clone(),
                            JsonValue::object(vec![
                                ("value", m.value.into()),
                                ("unit", m.unit.into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Metric::new("mine_wall_s", "s", 0.75);
        let line = result_line(12, 0, &[("mine_wall_s".to_string(), &m)]).to_string();
        assert_eq!(
            line,
            r#"{"attempted":12,"correct":true,"failed":0,"metrics":{"mine_wall_s":{"unit":"s","value":0.75}}}"#
        );
        assert!(result_line(12, 1, &[])
            .to_string()
            .contains(r#""correct":false"#));
    }

    /// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let text = |v: &JsonValue, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();
        doc.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| {
                (
                    text(v, "name"),
                    text(v, if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn schema_reads_the_committed_file() {
        let schema = Schema::load();
        assert!(schema.run_seconds >= 1.0 && schema.run_seconds <= 60.0);
        assert!(schema.bound_of("mine_wall_s") <= 0.25);
        assert!(schema.bound_of("setup_s") >= schema.bound_of("mine_wall_s"));
    }

    /// Every workload and metric `BENCHMARK.json` names is reported exactly
    /// once per workload, under that name and with that unit, and nothing
    /// else is.
    #[test]
    fn reported_names_and_units_are_the_declared_ones() {
        let workloads: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, declared("workloads"));
        assert_eq!(
            reported(&crate::e2e::end_to_end_metrics(1.0, 1.0, 1.0, 1.0, 1.0)),
            declared("end_to_end")
        );
        assert_eq!(
            reported(&crate::layers::Measured::default().metrics()),
            declared("per_layer")
        );
    }
}
