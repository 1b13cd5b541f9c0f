//! Wall-clock sweep of YAFIM's Phase-II plans over the workload of
//! `repro ablation_matching` (which holds the virtual side): one row per
//! [`Phase2Plan`]. A sample is three fresh-cluster runs back to back: pass 1
//! alone, passes 1–2, every pass. Pass 2 is the second less the first, the
//! `k ≥ 3` matching tail the third less the second, and every plan's
//! samples take turns with the other plans', so a slow stretch of the host
//! lands on all of them. Each column is the median of [`SAMPLES`] samples
//! with its quartiles. The transaction count is the numerator for every
//! plan, so records/sec ratios equal time ratios. A pass-2 speedup whose
//! plan's quartile range overlaps another plan's reads `unresolved`: the
//! samples cannot rank the two.
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
const SAMPLES: usize = 15;

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

/// Lower quartile, median and upper quartile.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[(xs.len() - 1) * q / 4])
}

/// A column's median and its `[q1, median, q3]`, as JSON.
fn column(name: &'static str, q: [f64; 3]) -> [(String, JsonValue); 2] {
    let quartiles = q.iter().map(|&x| JsonValue::Number(x)).collect();
    [
        (name.to_string(), JsonValue::Number(q[1])),
        (format!("{name}_quartiles"), JsonValue::Array(quartiles)),
    ]
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

    // Per plan: each sample's (pass 1, passes 1–2, all passes) walls, and
    // the last full run with its peak cache bytes.
    let mut walls = vec![Vec::with_capacity(SAMPLES); Phase2Plan::ALL.len()];
    let mut last = Vec::new();
    for sample in 0..SAMPLES {
        for (p, plan) in Phase2Plan::ALL.into_iter().enumerate() {
            let (one, ..) = mine_once(&lines, support, plan, 1);
            let (two, ..) = mine_once(&lines, support, plan, 2);
            let (total, run, peak) = mine_once(&lines, support, plan, 0);
            walls[p].push([one, two, total]);
            if sample + 1 == SAMPLES {
                last.push((run, peak));
            }
        }
    }
    let column_of = |p: usize, f: fn(&[f64; 3]) -> f64| quartiles(walls[p].iter().map(f).collect());
    let pass2: Vec<[f64; 3]> = (0..walls.len())
        .map(|p| column_of(p, |w| w[1] - w[0]))
        .collect();
    // A plan's pass-2 speedup over the paper plan, unless its quartile
    // range overlaps another plan's.
    let overlaps = |p: usize| {
        let [lo, _, hi] = pass2[p];
        (0..pass2.len()).any(|o| o != p && pass2[o][0] <= hi && lo <= pass2[o][2])
    };
    let paper = Phase2Plan::ALL
        .iter()
        .position(|&p| p == Phase2Plan::Paper)
        .expect("swept");
    let speedup = |p: usize| (!overlaps(p)).then(|| pass2[paper][1] / pass2[p][1].max(1e-9));

    println!(
        "== YAFIM Phase-II hot path, wall clock ({} QUEST transactions, {items} items, \
         minsup {:.1}%, {SAMPLES} interleaved samples; medians, [q1 q3]) ==",
        tx.len(),
        support_frac * 100.0
    );
    println!(
        "{:<27} {:>26} {:>13} {:>12} {:>26} {:>13} {:>10}",
        "configuration",
        "pass 2 (ms)",
        "p2 records/s",
        "p2 speedup",
        "k>=3 (ms)",
        "k3 records/s",
        "total (s)"
    );
    let ms = |[q1, q2, q3]: [f64; 3]| format!("{:.2} [{:.2} {:.2}]", q2 * 1e3, q1 * 1e3, q3 * 1e3);
    let mut k3 = Vec::new();
    let mut configs = Vec::new();
    let reference = last[0].0.result.clone();
    for (p, plan) in Phase2Plan::ALL.into_iter().enumerate() {
        // The k≥3 tail carries the columnar build for the bitmap plan
        // (nothing is projected before pass 3), so it charges build +
        // counting against the hash tree's pure matching time.
        let tail = column_of(p, |w| w[2] - w[1]);
        let total = column_of(p, |w| w[2]);
        let (p2_rate, k3_rate) = (
            tx.len() as f64 / pass2[p][1].max(1e-9),
            tx.len() as f64 / tail[1].max(1e-9),
        );
        let speedup = speedup(p);
        println!(
            "{:<27} {:>26} {:>13} {:>12} {:>26} {:>13} {:>8.3} s",
            phase2_label(plan),
            ms(pass2[p]),
            fmt_rate(p2_rate),
            speedup.map_or("unresolved".to_string(), |x| format!("{x:.2}x")),
            ms(tail),
            fmt_rate(k3_rate),
            total[1],
        );
        k3.push((plan, tail[1].max(1e-9)));
        let (run, peak_cache_bytes) = &last[p];
        assert_eq!(reference, run.result, "{} diverges", phase2_label(plan));
        let passes = run.passes.iter().map(|p| {
            JsonValue::object(vec![
                ("pass", p.pass.into()),
                ("last", p.last.into()),
                ("virtual_seconds", JsonValue::Number(p.seconds)),
                ("candidates", p.candidates.into()),
                ("frequent", p.frequent.into()),
            ])
        });
        let mut config: Vec<(String, JsonValue)> = Vec::new();
        config.extend(column("pass2_seconds", pass2[p]));
        config.push(("pass2_records_per_sec".into(), JsonValue::Number(p2_rate)));
        let speedup = speedup.map_or("unresolved".into(), JsonValue::Number);
        config.push(("pass2_speedup".into(), speedup));
        config.extend(column("k3_seconds", tail));
        config.push(("k3_records_per_sec".into(), JsonValue::Number(k3_rate)));
        config.push(("peak_cache_bytes".into(), (*peak_cache_bytes).into()));
        config.extend(column("total_wall_seconds", total));
        config.push(("passes".into(), JsonValue::Array(passes.collect())));
        configs.push((
            phase2_label(plan),
            JsonValue::Object(config.into_iter().collect()),
        ));
    }
    let others = (0..pass2.len()).filter(|&p| p != paper);
    let best = others.filter_map(speedup).fold(f64::NAN, f64::max);
    let best = if best.is_nan() {
        "unresolved".into()
    } else {
        JsonValue::Number(best)
    };
    let k3_of = |plan| k3.iter().find(|(p, _)| *p == plan).expect("swept").1;
    let (tree_k3, bitmap_k3) = (k3_of(Phase2Plan::Projected), k3_of(Phase2Plan::Bitmap));
    println!(
        "\nk>=3 matching tail: bitmap {bitmap_k3:.3} s vs hash tree {tree_k3:.3} s \
         ({:.2}x, columnar build included)\n\
         best resolved pass-2 speedup over the paper engine: {best}",
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
        ("samples", SAMPLES.into()),
        ("frequent_itemsets", reference.total().into()),
        ("configs", JsonValue::object(configs)),
        ("best_pass2_speedup", best),
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
