//! Parity and materialization check of fused iterator pipelines against the
//! retained naive-eager reference evaluator (`ExecMode`). Deterministic:
//! wall clock is measured by `benchmark/`, not here.
//!
//! The workload is the shape fusion targets: a clone-heavy
//! `flatMap → map → filter` chain over `String` records — the narrow
//! prefix of YAFIM's Phase I `flatMap → map → reduceByKey` hot loop. The
//! eager reference collapses the partition into a fresh buffer at every
//! operator boundary (the pre-fusion engine's allocation pattern); the
//! fused engine streams each record through the whole chain and buffers
//! nothing until the action.
//!
//! Both modes `collect` the same lineage and the results are compared
//! element-for-element — the experiment panics on any divergence.

use yafim_cluster::json::JsonValue;
use yafim_cluster::{ClusterSpec, CostModel, RunManifest, SimCluster};
use yafim_rdd::{Context, ExecMode, Rdd, RddConfig};

/// splitmix64 — deterministic synthetic data without a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `lines` space-separated pseudo-words, ~`words_per_line` words each.
fn synthetic_lines(lines: usize, words_per_line: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    (0..lines)
        .map(|_| {
            let n = words_per_line / 2 + (rng.next() as usize) % words_per_line;
            (0..n.max(1))
                .map(|_| format!("w{:06x}", rng.next() & 0xff_ffff))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn ctx_with(mode: ExecMode) -> Context {
    let cluster =
        SimCluster::with_threads(ClusterSpec::new(4, 4, 1 << 30), CostModel::hadoop_era(), 8);
    let mut config = RddConfig::for_cluster(&cluster);
    config.exec_mode = mode;
    Context::with_config(cluster, config)
}

/// The checked chain: flatMap (split into words) → map (clone-heavy
/// transform) → filter.
fn chain(c: &Context, data: &[String], parts: usize) -> Rdd<String> {
    c.parallelize_with_partitions(data.to_vec(), parts)
        .flat_map(|line| line.split(' ').map(str::to_string).collect::<Vec<String>>())
        .map(|w| {
            let mut s = w;
            s.push('!');
            s
        })
        .filter(|w| w.as_bytes()[1] % 4 != 0)
}

struct ModeRun {
    label: &'static str,
    /// Records that flowed through operator inputs during one run
    /// (identical across modes by construction).
    pipeline_records: u64,
    /// Largest `bytes_materialized` of any single stage.
    peak_stage_bytes: u64,
    total_bytes: u64,
}

fn run_mode(
    mode: ExecMode,
    label: &'static str,
    data: &[String],
    parts: usize,
) -> (ModeRun, Vec<String>, Context) {
    let c = ctx_with(mode);
    let collected = chain(&c, data, parts).collect();
    let snap = c.metrics().snapshot();
    let pipeline_records = snap.profile.work.records_in;
    let peak_stage_bytes = c
        .metrics()
        .stage_spans()
        .iter()
        .map(|s| s.profile.bytes_materialized)
        .max()
        .unwrap_or(0);
    let total_bytes = snap.profile.bytes_materialized;

    (
        ModeRun {
            label,
            pipeline_records,
            peak_stage_bytes,
            total_bytes,
        },
        collected,
        c,
    )
}

/// The report for `results/pipeline.txt` and the manifest captured from
/// the fused context.
pub fn pipeline() -> (String, RunManifest) {
    let (lines, words, parts) = (20_000, 8, 16);
    let data = synthetic_lines(lines, words, 7);

    let (eager, eager_out, _eager_ctx) =
        run_mode(ExecMode::Eager, "eager (per-op buffers)", &data, parts);
    let (fused, fused_out, fused_ctx) =
        run_mode(ExecMode::Fused, "fused (pipelined)", &data, parts);

    // The whole point of keeping the eager evaluator: it is the reference.
    assert_eq!(
        eager.pipeline_records, fused.pipeline_records,
        "record accounting diverged between modes"
    );
    assert!(
        fused_out == eager_out,
        "fused results diverge from the eager reference ({} vs {} records)",
        fused_out.len(),
        eager_out.len()
    );

    let mut report = String::new();
    say!(
        report,
        "== Pipeline fusion: flatMap -> map -> filter over {} lines ({} source records, {} partitions) ==",
        lines,
        data.len(),
        parts
    );
    say!(
        report,
        "{:<26} {:>16} {:>16}",
        "mode",
        "peak stage mat.",
        "total mat."
    );
    for m in [&eager, &fused] {
        say!(
            report,
            "{:<26} {:>14} B {:>14} B",
            m.label,
            m.peak_stage_bytes,
            m.total_bytes
        );
    }
    say!(
        report,
        "\nrecords through pipeline per run: {} | parity: ok ({} output records)",
        fused.pipeline_records,
        fused_out.len()
    );

    let dataset_doc = JsonValue::object(vec![
        ("name", "synthetic-lines".into()),
        ("lines", lines.into()),
        ("words_per_line", words.into()),
        ("partitions", parts.into()),
        ("seed", 7u64.into()),
    ]);
    let config_doc = JsonValue::object(vec![
        ("chain", "flatMap -> map -> filter".into()),
        ("cluster", "4 nodes x 4 cores".into()),
        ("engine", "fused".into()),
        ("reference", "eager".into()),
    ]);
    let mut manifest = RunManifest::capture(
        "pipeline",
        "fused",
        dataset_doc,
        config_doc,
        fused_ctx.cluster(),
    );
    manifest.push_metric("pipeline.records", fused.pipeline_records as f64);
    manifest.push_metric("pipeline.output_records", fused_out.len() as f64);
    manifest.push_metric(
        "fused.peak_stage_bytes_materialized",
        fused.peak_stage_bytes as f64,
    );
    manifest.push_metric("fused.total_bytes_materialized", fused.total_bytes as f64);
    manifest.push_metric(
        "eager.peak_stage_bytes_materialized",
        eager.peak_stage_bytes as f64,
    );
    manifest.push_metric("eager.total_bytes_materialized", eager.total_bytes as f64);
    (report, manifest)
}
