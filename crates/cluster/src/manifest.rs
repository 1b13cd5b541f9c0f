//! Versioned, machine-readable run manifests.
//!
//! A [`RunManifest`] is one JSON document per run carrying the schema
//! version, the dataset parameters, the configuration (plus a fingerprint
//! over both), and a **flat map of scalar metrics** — virtual makespan,
//! critical-path buckets, and every row of the run's counter tables, each
//! under one key. A nested `detail` object keeps the full critical-path
//! report for humans. The committed manifests in `results/` are
//! regenerated and diffed by git, so only *deterministic* quantities
//! belong in one (virtual time, counters, byte totals); wall-clock numbers
//! vary run to run and never enter it.
//!
//! A manifest is written checked: [`RunManifest::check`] holds the
//! coherence rules its counters must satisfy, and both writers (`repro`
//! and `yafim-cli --manifest`) refuse to write one that breaks them.
//!
//! The fingerprint is an FxHash over the canonical JSON of `dataset` and
//! `config`: two manifests with different fingerprints describe different
//! experiments.

use crate::critical::critical_path;
use crate::hash::fx_hash64;
use crate::json::JsonValue;
use crate::{MetricsSnapshot, SimCluster};
use std::collections::BTreeMap;

/// Manifest schema version. Bump when the metric names or the layout
/// change incompatibly.
pub const MANIFEST_SCHEMA_VERSION: u64 = 2;

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
    /// Flat scalar metrics. Deterministic quantities only.
    pub metrics: BTreeMap<String, f64>,
    /// Full critical-path report, and anything else worth keeping for
    /// humans.
    pub detail: JsonValue,
}

/// Every row of every counter table in `snap` under its manifest key: the
/// recovery tables' rows under their group (`recovery.`, `integrity.`,
/// `mem.`), the task profile's attribution rows and the engine table's
/// under the keys their rows name.
pub(crate) fn counter_rows(snap: &MetricsSnapshot) -> impl Iterator<Item = (String, u64)> {
    let r = &snap.recovery;
    let grouped = r.fields().map(|f| ("recovery.", f));
    let grouped = grouped.chain(r.integrity.fields().map(|f| ("integrity.", f)));
    let grouped = grouped.chain(r.mem.fields().map(|f| ("mem.", f)));
    let named = snap.profile.fields().chain(snap.engine.fields());
    let rows = grouped.chain(named.map(|f| ("", f)));
    rows.map(|(group, f)| (format!("{group}{}", f.key), f.value))
}

impl RunManifest {
    /// The canonical fingerprint over dataset and config JSON.
    pub(crate) fn fingerprint_of(dataset: &JsonValue, config: &JsonValue) -> String {
        format!("{:016x}", fx_hash64(&format!("{dataset}\u{0}{config}")))
    }

    /// Build a manifest from a finished run on `cluster`: captures the
    /// virtual clock, critical-path buckets and every counter-table row
    /// into `metrics`, and the full critical-path report into `detail`.
    /// Benches add their own scalars with [`RunManifest::push_metric`]
    /// afterwards.
    pub fn capture(
        bench: impl Into<String>,
        engine: impl Into<String>,
        dataset: JsonValue,
        config: JsonValue,
        cluster: &SimCluster,
    ) -> RunManifest {
        let report = critical_path(cluster.metrics(), cluster.cost());
        let mut metrics = Self::counters(&cluster.metrics().snapshot());
        for (name, secs) in report.buckets.named() {
            metrics.insert(format!("bucket.{name}"), secs);
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
            detail: JsonValue::object(vec![("critical_path", report.to_json())]),
        }
    }

    /// The virtual clock, the run's totals and every row of every counter
    /// table in `snap`, each under exactly one key ([`counter_rows`]). The
    /// key set is the same on every run.
    fn counters(snap: &MetricsSnapshot) -> BTreeMap<String, f64> {
        let mut metrics = BTreeMap::new();
        metrics.insert("virtual_seconds".to_string(), snap.now.as_secs());
        metrics.insert("jobs".to_string(), snap.jobs as f64);
        metrics.insert("stages".to_string(), snap.stages as f64);
        metrics.insert("tasks".to_string(), snap.tasks as f64);
        metrics.extend(counter_rows(snap).map(|(key, value)| (key, value as f64)));
        metrics
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

    /// The coherence rules every manifest must satisfy; both writers
    /// (`repro` and `yafim-cli --manifest`) call this before a byte reaches
    /// disk.
    pub fn check(&self) -> Result<(), String> {
        self.check_integrity()?;
        self.check_bitmap()?;
        self.check_memory()
    }

    /// A metric that may be absent (a bench-pushed one, or any in a
    /// hand-built manifest) counts as zero.
    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Silent corruption is only ever *observed* at detection time, so
    /// detected == injected; nothing undetected can be repaired; and every
    /// repair went down exactly one repair path.
    fn check_integrity(&self) -> Result<(), String> {
        let get = |name: &str| -> Result<f64, String> {
            self.metrics
                .get(name)
                .copied()
                .ok_or_else(|| format!("missing integrity metric '{name}'"))
        };
        let injected = get("integrity.corruptions_injected")?;
        let detected = get("integrity.corruptions_detected")?;
        let repaired = get("integrity.corruptions_repaired")?;
        let via = get("integrity.repaired_via_replica")?
            + get("integrity.repaired_via_recompute")?
            + get("integrity.repaired_via_resubmit")?;
        if detected != injected {
            return Err(format!(
                "integrity.corruptions_detected ({detected}) != corruptions_injected ({injected})"
            ));
        }
        if repaired > detected {
            return Err(format!(
                "integrity.corruptions_repaired ({repaired}) exceeds corruptions_detected ({detected})"
            ));
        }
        if via != repaired {
            return Err(format!(
                "integrity repair paths sum to {via} but corruptions_repaired is {repaired}"
            ));
        }
        Ok(())
    }

    /// Intersecting words requires a columnar store to have been built;
    /// builds always register their arena bytes; a run that both fell back
    /// *and* built columnar partitions caught the density guard flapping;
    /// and the columnar arenas live in the cache, so their build bytes can
    /// never exceed the cache's peak (when the manifest reports one).
    fn check_bitmap(&self) -> Result<(), String> {
        let words = self.metric("counter.bitmap.words_intersected");
        let built = self.metric("counter.bitmap.partitions_built");
        let bytes = self.metric("counter.bitmap.build_bytes");
        let fallbacks = self.metric("counter.bitmap.fallbacks");
        if words > 0.0 && built == 0.0 {
            return Err(format!(
                "counter.bitmap.words_intersected ({words}) without any \
                 counter.bitmap.partitions_built"
            ));
        }
        if (built > 0.0) != (bytes > 0.0) {
            return Err(format!(
                "counter.bitmap.partitions_built ({built}) and \
                 counter.bitmap.build_bytes ({bytes}) must be zero or nonzero together"
            ));
        }
        if fallbacks > 0.0 && built > 0.0 {
            return Err(format!(
                "counter.bitmap.fallbacks ({fallbacks}) alongside \
                 counter.bitmap.partitions_built ({built}): the density guard flapped"
            ));
        }
        if built > 0.0 {
            if let Some(&peak) = self.metrics.get("peak_cache_bytes") {
                if bytes > peak {
                    return Err(format!(
                        "counter.bitmap.build_bytes ({bytes}) exceeds peak_cache_bytes \
                         ({peak}): columnar arenas must live in the cache"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every injected OOM is resolved exactly once (killed or survived by
    /// degradation); spilled bytes imply spill events; and no task's
    /// execution peak can exceed the hard budget cap the governor
    /// advertised (when one was armed).
    fn check_memory(&self) -> Result<(), String> {
        let injected = self.metric("mem.oom_injected");
        let killed = self.metric("mem.oom_killed");
        let survived = self.metric("mem.oom_survived_by_degradation");
        if injected != killed + survived {
            return Err(format!(
                "mem.oom_injected ({injected}) != mem.oom_killed ({killed}) + \
                 mem.oom_survived_by_degradation ({survived})"
            ));
        }
        let spill_bytes = self.metric("mem.spill_bytes");
        if spill_bytes > 0.0 && self.metric("mem.spills") == 0.0 {
            return Err(format!(
                "mem.spill_bytes ({spill_bytes}) without any mem.spills"
            ));
        }
        let budget = self.metric("gauge.mem.task_budget_bytes");
        let peak = self.metric("mem.peak_execution_bytes");
        if budget > 0.0 && peak > budget {
            return Err(format!(
                "mem.peak_execution_bytes ({peak}) exceeds the governor's hard \
                 cap gauge.mem.task_budget_bytes ({budget})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{StageExecution, StageKind, TaskExecution};
    use crate::spec::{ClusterSpec, NodeId};
    use crate::time::SimDuration;
    use crate::work::TaskProfile;
    use crate::CostModel;

    fn small_cluster_with_work() -> SimCluster {
        let c =
            SimCluster::with_threads(ClusterSpec::new(2, 2, 1 << 30), CostModel::hadoop_era(), 1);
        let mut profile = TaskProfile::new();
        profile.work.add_records_in(100);
        c.metrics().record_stage_with_recovery(
            StageExecution {
                label: "s".into(),
                kind: StageKind::Result,
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
            },
            Default::default(),
        );
        c
    }

    #[test]
    fn capture_emits_a_coherent_parseable_document() {
        let c = small_cluster_with_work();
        let dataset = JsonValue::object(vec![("name", "toy".into()), ("records", 100u64.into())]);
        let config = JsonValue::object(vec![("mode", "fused".into())]);
        let mut m = RunManifest::capture("pipeline", "fused", dataset, config, &c);
        m.push_metric("pipeline.records", 100.0);
        assert_eq!(m.check(), Ok(()));

        let back = crate::json::parse(&m.to_json().to_string()).expect("parses");
        let schema = back.get("schema_version").and_then(JsonValue::as_f64);
        assert_eq!(schema, Some(MANIFEST_SCHEMA_VERSION as f64));
        let metric = |k: &str| back.get("metrics").and_then(|o| o.get(k)?.as_f64());
        assert_eq!(metric("virtual_seconds"), Some(1.5));
        assert_eq!(metric("tasks"), Some(1.0));
        // Every row's key exists (zero-valued) whatever the run touched.
        for key in [
            "mem.spills",
            "gauge.mem.task_budget_bytes",
            "counter.bitmap.passes",
        ] {
            assert_eq!(metric(key), Some(0.0), "{key}");
        }
        assert_eq!(metric("pipeline.records"), Some(100.0));
        let detail = back.get("detail").and_then(JsonValue::as_object);
        assert_eq!(detail.map(|d| d.len()), Some(1), "critical_path only");
    }

    #[test]
    fn one_nonzero_row_per_table_is_one_value_under_one_key() {
        let mut snap = MetricsSnapshot::default();
        snap.recovery.fetch_retries = 1001;
        snap.recovery.integrity.repaired_via_replica = 1002;
        snap.recovery.mem.spills = 1003;
        snap.profile.cache_hits = 1004;
        snap.engine.task_budget_bytes = 1005;
        let metrics = RunManifest::counters(&snap);
        for (value, key) in [
            (1001.0, "recovery.fetch_retries"),
            (1002.0, "integrity.repaired_via_replica"),
            (1003.0, "mem.spills"),
            (1004.0, "counter.cache.hits"),
            (1005.0, "gauge.mem.task_budget_bytes"),
        ] {
            let keys: Vec<&str> = metrics
                .iter()
                .filter(|&(_, &v)| v == value)
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, [key]);
        }
        assert_eq!(metrics.values().filter(|&&v| v != 0.0).count(), 5);
        // No two rows share a key: the clock and three totals, then a key
        // per row.
        let r = &snap.recovery;
        let rows = r.fields().count()
            + r.integrity.fields().count()
            + r.mem.fields().count()
            + snap.profile.fields().count()
            + snap.engine.fields().count();
        assert_eq!(metrics.len(), 4 + rows);
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

    /// A manifest holding `metrics` and nothing else the rules read.
    fn toy_manifest(metrics: &[(&str, f64)]) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            bench: "toy".into(),
            engine: "toy".into(),
            dataset: JsonValue::Null,
            config: JsonValue::Null,
            fingerprint: String::new(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            detail: JsonValue::Null,
        }
    }

    #[test]
    fn integrity_metrics_must_be_present_and_consistent() {
        let mut m = toy_manifest(&[]);
        assert!(m
            .check_integrity()
            .unwrap_err()
            .contains("missing integrity metric"));

        m = toy_manifest(&[
            ("integrity.corruptions_injected", 4.0),
            ("integrity.corruptions_detected", 4.0),
            ("integrity.corruptions_repaired", 4.0),
            ("integrity.repaired_via_replica", 1.0),
            ("integrity.repaired_via_recompute", 1.0),
            ("integrity.repaired_via_resubmit", 2.0),
        ]);
        assert_eq!(m.check(), Ok(()));

        m.push_metric("integrity.corruptions_detected", 3.0);
        assert!(m.check().unwrap_err().contains("!= corruptions_injected"));

        m.push_metric("integrity.corruptions_detected", 4.0);
        m.push_metric("integrity.repaired_via_resubmit", 5.0);
        assert!(m.check().unwrap_err().contains("repair paths sum"));
    }

    #[test]
    fn bitmap_metrics_must_cohere() {
        // A manifest without the counters passes.
        let mut m = toy_manifest(&[]);
        assert_eq!(m.check_bitmap(), Ok(()));

        m = toy_manifest(&[
            ("counter.bitmap.words_intersected", 5000.0),
            ("counter.bitmap.partitions_built", 8.0),
            ("counter.bitmap.build_bytes", 4096.0),
            ("counter.bitmap.fallbacks", 0.0),
            ("peak_cache_bytes", 100_000.0),
        ]);
        assert_eq!(m.check_bitmap(), Ok(()));

        // Words counted without a columnar store is impossible.
        m.push_metric("counter.bitmap.partitions_built", 0.0);
        assert!(m.check_bitmap().unwrap_err().contains("without any"));

        // Builds always register bytes (and vice versa).
        m.push_metric("counter.bitmap.partitions_built", 8.0);
        m.push_metric("counter.bitmap.build_bytes", 0.0);
        assert!(m
            .check_bitmap()
            .unwrap_err()
            .contains("zero or nonzero together"));

        // Falling back and building in the same run means the guard flapped.
        m.push_metric("counter.bitmap.build_bytes", 4096.0);
        m.push_metric("counter.bitmap.fallbacks", 1.0);
        assert!(m.check_bitmap().unwrap_err().contains("flapped"));

        // Columnar arenas live in the cache, bounded by its peak.
        m.push_metric("counter.bitmap.fallbacks", 0.0);
        m.push_metric("peak_cache_bytes", 100.0);
        assert!(m
            .check_bitmap()
            .unwrap_err()
            .contains("exceeds peak_cache_bytes"));
    }

    #[test]
    fn memory_metrics_must_cohere() {
        // A manifest without the counters passes.
        let mut m = toy_manifest(&[]);
        assert_eq!(m.check_memory(), Ok(()));

        m = toy_manifest(&[
            ("mem.oom_injected", 6.0),
            ("mem.oom_killed", 4.0),
            ("mem.oom_survived_by_degradation", 2.0),
            ("mem.spills", 3.0),
            ("mem.spill_bytes", 12288.0),
            ("mem.peak_execution_bytes", 50_000.0),
            ("gauge.mem.task_budget_bytes", 100_000.0),
        ]);
        assert_eq!(m.check_memory(), Ok(()));

        // Every injected OOM is resolved exactly once.
        m.push_metric("mem.oom_killed", 5.0);
        assert!(m.check_memory().unwrap_err().contains("mem.oom_injected"));

        // Spilled bytes without spill events is impossible.
        m.push_metric("mem.oom_killed", 4.0);
        m.push_metric("mem.spills", 0.0);
        assert!(m
            .check_memory()
            .unwrap_err()
            .contains("without any mem.spills"));

        // A task peak above the governor's hard cap means the ledger leaked.
        m.push_metric("mem.spills", 3.0);
        m.push_metric("mem.peak_execution_bytes", 200_000.0);
        assert!(m
            .check_memory()
            .unwrap_err()
            .contains("exceeds the governor's hard cap"));

        // An unarmed governor (budget gauge 0) bounds nothing.
        m.push_metric("gauge.mem.task_budget_bytes", 0.0);
        assert_eq!(m.check_memory(), Ok(()));
    }
}
