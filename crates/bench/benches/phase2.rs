//! Wall-clock sweep of YAFIM's Phase-II plans over the workload of
//! `repro ablation_matching` (which holds the virtual side): one row per
//! [`Phase2Plan`], pass 2 isolated as `median wall(max_passes=2) − median
//! wall(max_passes=1)` and the `k ≥ 3` matching tail as `median wall(all
//! passes) − median wall(max_passes=2)`. The transaction count is the
//! numerator for every plan, so records/sec ratios equal time ratios.
//!
//! Prints the table and rewrites `BENCH_phase2.json` at the repo root.
//! Host seconds vary run to run; nothing here decides an exit code.
//!
//! `cargo bench -p yafim-bench --bench phase2`

use std::time::Instant;
use yafim_bench::{phase2_label, phase2_workload};
use yafim_cluster::json::{self, JsonValue};
use yafim_cluster::{ClusterSpec, CostModel, SimCluster, MANIFEST_SCHEMA_VERSION};
use yafim_core::{MinerRun, Phase2Plan, Support, Yafim, YafimConfig};
use yafim_data::{to_lines, QuestGenerator};
use yafim_rdd::Context;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const SAMPLES: usize = 5;

/// One `mine` limited to `max_passes` on a fresh cluster: wall seconds of
/// the call alone, the run, and the cache's peak footprint.
fn mine_once(
    lines: &[String],
    support: Support,
    plan: Phase2Plan,
    max_passes: usize,
) -> (f64, MinerRun, u64) {
    let c = SimCluster::with_threads(ClusterSpec::new(4, 4, 1 << 30), CostModel::hadoop_era(), 8);
    c.hdfs().put_overwrite("q.dat", lines.to_vec());
    let cfg = YafimConfig {
        max_passes,
        ..YafimConfig::with_plan(support, plan)
    };
    let ctx = Context::new(c);
    let miner = Yafim::new(ctx.clone(), cfg);
    let t0 = Instant::now();
    let run = std::hint::black_box(miner.mine("q.dat").expect("dataset written"));
    (
        t0.elapsed().as_secs_f64(),
        run,
        ctx.cache().stats().peak_bytes,
    )
}

/// Median wall seconds over [`SAMPLES`] runs, with the last run's results.
fn median_wall(
    lines: &[String],
    support: Support,
    plan: Phase2Plan,
    max_passes: usize,
) -> (f64, MinerRun, u64) {
    let mut samples: Vec<_> = (0..SAMPLES)
        .map(|_| mine_once(lines, support, plan, max_passes))
        .collect();
    let mut times: Vec<f64> = samples.iter().map(|s| s.0).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let (_, run, peak) = samples.pop().expect("SAMPLES > 0");
    (times[times.len() / 2], run, peak)
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else {
        format!("{:.1} k/s", r / 1e3)
    }
}

fn main() {
    let (quest, support_frac, dataset_doc) = phase2_workload();
    let items = quest.items;
    let tx = QuestGenerator::new(quest).generate();
    let lines = to_lines(&tx);
    let support = Support::Fraction(support_frac);

    println!(
        "== YAFIM Phase-II hot path, wall clock ({} QUEST transactions, {items} items, \
         minsup {:.1}%) ==",
        tx.len(),
        support_frac * 100.0
    );
    println!(
        "{:<27} {:>12} {:>14} {:>12} {:>11} {:>14} {:>12}",
        "configuration",
        "pass 2 (s)",
        "p2 records/s",
        "p2 speedup",
        "k>=3 (s)",
        "k3 records/s",
        "total (s)"
    );
    let mut base_p2 = f64::NAN;
    let mut k3 = Vec::new();
    let mut configs = Vec::new();
    let mut reference = None;
    for plan in Phase2Plan::ALL {
        let (one, ..) = median_wall(&lines, support, plan, 1);
        let (two, ..) = median_wall(&lines, support, plan, 2);
        let (total, run, peak_cache_bytes) = median_wall(&lines, support, plan, 0);
        let pass2 = (two - one).max(1e-9);
        // The k≥3 tail carries the columnar build for the bitmap plan
        // (nothing is projected before pass 3), so it charges build +
        // counting against the hash tree's pure matching time.
        let tail = (total - two).max(1e-9);
        if plan == Phase2Plan::Paper {
            base_p2 = pass2;
        }
        let (p2_rate, k3_rate) = (tx.len() as f64 / pass2, tx.len() as f64 / tail);
        println!(
            "{:<27} {:>10.3} s {:>14} {:>11.2}x {:>9.3} s {:>14} {:>10.3} s",
            phase2_label(plan),
            pass2,
            fmt_rate(p2_rate),
            base_p2 / pass2,
            tail,
            fmt_rate(k3_rate),
            total,
        );
        k3.push((plan, tail));
        let reference = reference.get_or_insert_with(|| run.result.clone());
        assert_eq!(*reference, run.result, "{} diverges", phase2_label(plan));
        let passes = run.passes.iter().map(|p| {
            JsonValue::object(vec![
                ("pass", p.pass.into()),
                ("last", p.last.into()),
                ("virtual_seconds", JsonValue::Number(p.seconds)),
                ("candidates", p.candidates.into()),
                ("frequent", p.frequent.into()),
            ])
        });
        configs.push((
            phase2_label(plan),
            JsonValue::object(vec![
                ("pass2_seconds", JsonValue::Number(pass2)),
                ("pass2_records_per_sec", JsonValue::Number(p2_rate)),
                ("pass2_speedup", JsonValue::Number(base_p2 / pass2)),
                ("k3_seconds", JsonValue::Number(tail)),
                ("k3_records_per_sec", JsonValue::Number(k3_rate)),
                ("peak_cache_bytes", peak_cache_bytes.into()),
                ("total_wall_seconds", JsonValue::Number(total)),
                ("passes", JsonValue::Array(passes.collect())),
            ]),
        ));
    }
    let best = configs
        .iter()
        .filter_map(|(_, c)| c.get("pass2_speedup")?.as_f64())
        .fold(f64::NAN, f64::max);
    let k3_of = |plan| k3.iter().find(|(p, _)| *p == plan).expect("swept").1;
    let (tree_k3, bitmap_k3) = (k3_of(Phase2Plan::Projected), k3_of(Phase2Plan::Bitmap));
    println!(
        "\nk>=3 matching tail: bitmap {bitmap_k3:.3} s vs hash tree {tree_k3:.3} s \
         ({:.2}x, columnar build included)\n\
         best pass-2 speedup over the paper engine: {best:.2}x",
        tree_k3 / bitmap_k3
    );

    // The committed manifest of the same workload names the experiment.
    let manifest = std::fs::read_to_string(format!("{ROOT}/results/phase2.manifest.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .expect("results/phase2.manifest.json is committed");
    let fingerprint = manifest.get("fingerprint").cloned().expect("fingerprint");
    let doc = JsonValue::object(vec![
        ("bench", "phase2".into()),
        ("schema_version", MANIFEST_SCHEMA_VERSION.into()),
        ("dataset", dataset_doc),
        ("config_fingerprint", fingerprint),
        ("transactions", tx.len().into()),
        ("items", (items as usize).into()),
        (
            "frequent_itemsets",
            reference.expect("plans swept").total().into(),
        ),
        ("configs", JsonValue::object(configs)),
        ("best_pass2_speedup", JsonValue::Number(best)),
        (
            "bitmap_k3_speedup_vs_hash_tree",
            JsonValue::Number(tree_k3 / bitmap_k3),
        ),
        ("parity", "ok".into()),
    ]);
    let path = format!("{ROOT}/BENCH_phase2.json");
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("wrote BENCH_phase2.json"),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}
