//! Versioned, machine-readable run manifests.
//!
//! A [`RunManifest`] is the contract between a bench binary and the
//! regression gate: one JSON document per run carrying the schema version,
//! the dataset parameters, the configuration (plus a fingerprint over
//! both), and a **flat map of scalar metrics** — virtual makespan,
//! critical-path buckets, recovery counters, registry counters — that the
//! gate compares against a committed baseline with per-metric tolerance
//! bands. A nested `detail` object keeps the full critical-path report and
//! registry snapshot for humans; the gate only reads `metrics`.
//!
//! Only *deterministic* quantities belong in `metrics` (virtual time,
//! counters, byte totals). Wall-clock numbers vary run to run and must stay
//! in the text reports / `detail`, never where the gate can see them.
//!
//! The fingerprint is an FxHash over the canonical JSON of `dataset` and
//! `config`: two manifests with different fingerprints describe different
//! experiments, and the gate refuses to compare them.

use crate::critical::critical_path;
use crate::hash::fx_hash64;
use crate::json::JsonValue;
use crate::SimCluster;
use std::collections::BTreeMap;

/// Manifest schema version. Bump when the metric names or the layout
/// change incompatibly; the gate refuses cross-version comparisons.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// One run's machine-readable summary.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// [`MANIFEST_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Bench binary / experiment name, e.g. `"pipeline"`.
    pub bench: String,
    /// Engine variant the run measured, e.g. `"fused"`.
    pub engine: String,
    /// Dataset parameters (JSON object).
    pub dataset: JsonValue,
    /// Configuration knobs (JSON object).
    pub config: JsonValue,
    /// Fingerprint over `dataset` + `config`.
    pub fingerprint: String,
    /// Flat scalar metrics the regression gate compares. Deterministic
    /// quantities only.
    pub metrics: BTreeMap<String, f64>,
    /// Full critical-path report, registry snapshot, and anything else
    /// worth keeping for humans. Not compared by the gate.
    pub detail: JsonValue,
}

impl RunManifest {
    /// The canonical fingerprint over dataset and config JSON.
    pub fn fingerprint_of(dataset: &JsonValue, config: &JsonValue) -> String {
        format!("{:016x}", fx_hash64(&format!("{dataset}\u{0}{config}")))
    }

    /// Build a manifest from a finished run on `cluster`: captures the
    /// virtual clock, critical-path buckets, recovery counters and the
    /// typed-registry counters into `metrics`, and the full reports into
    /// `detail`. Benches add their own scalars with
    /// [`RunManifest::push_metric`] afterwards.
    pub fn capture(
        bench: impl Into<String>,
        engine: impl Into<String>,
        dataset: JsonValue,
        config: JsonValue,
        cluster: &SimCluster,
    ) -> RunManifest {
        let report = critical_path(cluster.metrics(), cluster.cost());
        let registry = cluster.registry().snapshot();
        let snap = cluster.metrics().snapshot();

        let mut metrics = BTreeMap::new();
        metrics.insert("virtual_seconds".to_string(), snap.now.as_secs());
        metrics.insert("jobs".to_string(), snap.jobs as f64);
        metrics.insert("stages".to_string(), snap.stages as f64);
        metrics.insert("tasks".to_string(), snap.tasks as f64);
        for (name, secs) in report.buckets.named() {
            metrics.insert(format!("bucket.{name}"), secs);
        }
        // Every row of the three recovery tables, under its group's prefix.
        let r = &snap.recovery;
        let mut put = |group: &str, f: crate::fault::CounterField| {
            metrics.insert(format!("{group}.{}", f.key), f.value as f64);
        };
        r.fields().for_each(|f| put("recovery", f));
        r.integrity.fields().for_each(|f| put("integrity", f));
        r.mem.fields().for_each(|f| put("mem", f));
        for (name, v) in &registry.counters {
            metrics.insert(format!("counter.{name}"), *v as f64);
        }
        for (name, v) in &registry.gauges {
            metrics.insert(format!("gauge.{name}"), *v);
        }
        for (name, h) in &registry.histograms {
            metrics.insert(format!("hist.{name}.count"), h.count as f64);
            metrics.insert(format!("hist.{name}.sum"), h.sum);
        }

        let fingerprint = Self::fingerprint_of(&dataset, &config);
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            bench: bench.into(),
            engine: engine.into(),
            dataset,
            config,
            fingerprint,
            metrics,
            detail: JsonValue::object(vec![
                ("critical_path", report.to_json()),
                ("registry", registry.to_json()),
            ]),
        }
    }

    /// Add a bench-specific scalar metric (deterministic quantities only).
    pub fn push_metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Serialize to the manifest JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema_version", JsonValue::from(self.schema_version)),
            ("bench", JsonValue::from(self.bench.as_str())),
            ("engine", JsonValue::from(self.engine.as_str())),
            ("dataset", self.dataset.clone()),
            ("config", self.config.clone()),
            ("fingerprint", JsonValue::from(self.fingerprint.as_str())),
            (
                "metrics",
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
                        .collect(),
                ),
            ),
            ("detail", self.detail.clone()),
        ])
    }

    /// Parse a manifest back from JSON (strict on the fields the gate
    /// needs, lenient on `detail`).
    pub fn from_json(v: &JsonValue) -> Result<RunManifest, String> {
        let obj = v.as_object().ok_or("manifest is not an object")?;
        let schema_version = v
            .get("schema_version")
            .and_then(JsonValue::as_f64)
            .ok_or("missing schema_version")? as u64;
        let bench = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing bench")?
            .to_string();
        let engine = v
            .get("engine")
            .and_then(JsonValue::as_str)
            .ok_or("missing engine")?
            .to_string();
        let dataset = v.get("dataset").cloned().ok_or("missing dataset")?;
        let config = v.get("config").cloned().ok_or("missing config")?;
        let fingerprint = v
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or("missing fingerprint")?
            .to_string();
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("missing metrics")?
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| format!("metric '{k}' is not a number"))
            })
            .collect::<Result<BTreeMap<String, f64>, String>>()?;
        let detail = obj.get("detail").cloned().unwrap_or(JsonValue::Null);
        Ok(RunManifest {
            schema_version,
            bench,
            engine,
            dataset,
            config,
            fingerprint,
            metrics,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EventKind, StageExecution, TaskExecution};
    use crate::spec::{ClusterSpec, NodeId};
    use crate::time::SimDuration;
    use crate::work::TaskProfile;
    use crate::CostModel;

    fn small_cluster_with_work() -> SimCluster {
        let c =
            SimCluster::with_threads(ClusterSpec::new(2, 2, 1 << 30), CostModel::hadoop_era(), 1);
        c.registry().counter("executor.tasks").inc(2);
        c.registry().histogram("executor.task_seconds").observe(1.0);
        let mut profile = TaskProfile::new();
        profile.work.add_records_in(100);
        c.metrics().record_stage(StageExecution {
            label: "s".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::from_secs(0.5),
            trailing: SimDuration::ZERO,
            tasks: vec![TaskExecution {
                partition: 0,
                node: NodeId(0),
                core: 0,
                start: SimDuration::ZERO,
                duration: SimDuration::from_secs(1.0),
                profile,
            }],
        });
        c
    }

    #[test]
    fn capture_round_trips_through_json() {
        let c = small_cluster_with_work();
        let dataset = JsonValue::object(vec![("name", "toy".into()), ("records", 100u64.into())]);
        let config = JsonValue::object(vec![("mode", "fused".into())]);
        let mut m = RunManifest::capture("pipeline", "fused", dataset, config, &c);
        m.push_metric("pipeline.records", 100.0);

        let text = m.to_json().to_string();
        let back = RunManifest::from_json(&crate::json::parse(&text).expect("parses")).expect("ok");
        assert_eq!(back, m);
        assert_eq!(back.schema_version, MANIFEST_SCHEMA_VERSION);
        assert_eq!(back.metrics["virtual_seconds"], 1.5);
        assert_eq!(back.metrics["counter.executor.tasks"], 2.0);
        assert_eq!(
            back.metrics["mem.spills"], 0.0,
            "mem.* keys exist (zero-valued) even without an armed governor"
        );
        assert_eq!(back.metrics["mem.peak_execution_bytes"], 0.0);
        assert_eq!(back.metrics["hist.executor.task_seconds.count"], 1.0);
        assert_eq!(back.metrics["pipeline.records"], 100.0);
    }

    #[test]
    fn bucket_metrics_sum_to_makespan() {
        let c = small_cluster_with_work();
        let m = RunManifest::capture(
            "b",
            "e",
            JsonValue::object(vec![]),
            JsonValue::object(vec![]),
            &c,
        );
        let total: f64 = m
            .metrics
            .iter()
            .filter(|(k, _)| k.starts_with("bucket."))
            .map(|(_, v)| v)
            .sum();
        assert!((total - m.metrics["virtual_seconds"]).abs() < 1e-6);
    }

    #[test]
    fn fingerprint_tracks_dataset_and_config() {
        let d1 = JsonValue::object(vec![("n", 1u64.into())]);
        let d2 = JsonValue::object(vec![("n", 2u64.into())]);
        let c1 = JsonValue::object(vec![("mode", "a".into())]);
        assert_eq!(
            RunManifest::fingerprint_of(&d1, &c1),
            RunManifest::fingerprint_of(&d1, &c1)
        );
        assert_ne!(
            RunManifest::fingerprint_of(&d1, &c1),
            RunManifest::fingerprint_of(&d2, &c1)
        );
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let v = crate::json::parse("{\"bench\":\"x\"}").unwrap();
        assert!(RunManifest::from_json(&v).is_err());
    }
}
