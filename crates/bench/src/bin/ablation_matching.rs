//! Ablation: candidate matching and the Phase-II hot path.
//!
//! Two sections:
//!
//! 1. **MR-Apriori matcher** — hash tree vs naive list-scan in the MapReduce
//!    baseline: quantifies how much of YAFIM's win comes from the framework
//!    rather than the hash tree data structure.
//! 2. **YAFIM Phase II** — one row per [`Phase2Plan`]: the paper-faithful
//!    hash-tree engine vs projection + triangular pass 2 + trie +
//!    cross-pass trimming vs the vertical TID-bitmap counter (projection +
//!    triangle + columnar word-wise counting for `k ≥ 3`), on a
//!    pass-2-dominated QUEST-style workload (dense alphabet, low support, so
//!    `|C_2| = |L1|·(|L1|−1)/2` dwarfs every other pass). Wall-clock
//!    pass 2 is isolated as `median wall(max_passes=2) − median
//!    wall(max_passes=1)`, and the `k ≥ 3` matching tail as
//!    `median wall(all passes) − median wall(max_passes=2)`; the
//!    transaction count is the numerator for every plan, so records/sec
//!    ratios equal time ratios.
//!
//! Every plan must return byte-identical itemsets, supports and
//! per-pass candidate/frequent counts — the bench *fails* on any
//! divergence, which is what the CI smoke step leans on.
//!
//! Output:
//! * stdout + `results/ablation_matching.txt` — human-readable report
//!   (wall-clock numbers vary run to run; everything else is deterministic);
//! * `BENCH_phase2.json` — machine-readable: per-pass virtual stats,
//!   pass-2 and `k ≥ 3` wall records/sec, peak cache bytes, pass-2
//!   speedup, bitmap-vs-trie `k ≥ 3` speedup;
//! * a [`RunManifest`] for the regression gate, captured from the
//!   bitmap plan's accounting run: smoke runs write
//!   `target/manifests/phase2.smoke.manifest.json` (compared by CI
//!   against the committed `results/phase2.smoke.manifest.json`), full
//!   runs write `results/phase2.manifest.json`.
//!
//! Usage: `cargo run -p yafim-bench --release --bin ablation_matching
//! [--scale X] [--smoke]`

use std::fmt::Write as _;
use std::time::Instant;
use yafim_bench::{bench_dataset, experiment_cluster, load_dataset, write_manifest};
use yafim_cluster::json::JsonValue;
use yafim_cluster::{ClusterSpec, CostModel, RunManifest, SimCluster, MANIFEST_SCHEMA_VERSION};
use yafim_core::{
    apriori, MinerRun, MrApriori, MrAprioriConfig, MrMatching, Phase2Plan, SequentialConfig,
    Support, Yafim, YafimConfig,
};
use yafim_data::{to_lines, PaperDataset, QuestConfig, QuestGenerator};
use yafim_rdd::Context;

/// The row label of a plan (also the manifest's engine and config names).
fn label(plan: Phase2Plan) -> &'static str {
    match plan {
        Phase2Plan::Paper => "hash tree (paper)",
        Phase2Plan::Trie => "triangle + trie + trim",
        Phase2Plan::Bitmap => "triangle + bitmap + trim",
    }
}

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 4, 1 << 30), CostModel::hadoop_era(), 8)
}

/// Deterministic accounting run: full mining, returning the run (virtual
/// per-pass stats), the peak cache footprint, and the cluster (so the last
/// plan's metrics can feed the run manifest).
fn accounting_run(
    lines: &[String],
    support: Support,
    phase2: Phase2Plan,
) -> (MinerRun, u64, SimCluster) {
    let c = cluster();
    c.hdfs().put_overwrite("q.dat", lines.to_vec());
    let ctx = Context::new(c.clone());
    let run = Yafim::new(ctx.clone(), YafimConfig::with_plan(support, phase2))
        .mine("q.dat")
        .expect("dataset written");
    (run, ctx.cache().stats().peak_bytes, c)
}

/// Median wall-clock seconds of a full `mine` limited to `max_passes`,
/// fresh cluster per sample.
fn wall_seconds(
    lines: &[String],
    support: Support,
    phase2: Phase2Plan,
    max_passes: usize,
    samples: usize,
) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let c = cluster();
            c.hdfs().put_overwrite("q.dat", lines.to_vec());
            let cfg = YafimConfig {
                max_passes,
                ..YafimConfig::with_plan(support, phase2)
            };
            let m = Yafim::new(Context::new(c.clone()), cfg);
            let t0 = Instant::now();
            std::hint::black_box(m.mine("q.dat").expect("dataset written"));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

struct ConfigRun {
    plan: Phase2Plan,
    run: MinerRun,
    peak_cache_bytes: u64,
    /// Isolated pass-2 wall seconds (`wall(2 passes) − wall(1 pass)`).
    pass2_seconds: f64,
    /// Transactions through pass 2 per wall second (same numerator for
    /// every config: the raw dataset size).
    pass2_records_per_sec: f64,
    /// Isolated `k ≥ 3` matching wall seconds
    /// (`wall(all passes) − wall(2 passes)`): the tail the trie and the
    /// columnar bitmap compete on.
    k3_seconds: f64,
    /// Transactions through the `k ≥ 3` tail per wall second (same
    /// numerator for every config, so ratios equal time ratios).
    k3_records_per_sec: f64,
    total_wall_seconds: f64,
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else {
        format!("{:.1} k/s", r / 1e3)
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 0.05 } else { 0.25 });

    let mut report = String::new();

    // ---- Section 1: MR-Apriori matcher ----
    let _ = writeln!(
        report,
        "== Ablation 1: MR-Apriori candidate matching strategy =="
    );
    let _ = writeln!(
        report,
        "{:<12} {:>16} {:>16} {:>10}",
        "dataset", "hash tree (s)", "naive scan (s)", "penalty"
    );
    for ds in [PaperDataset::Mushroom, PaperDataset::T10I4D100K] {
        let data = bench_dataset(ds, scale);
        let mut totals = Vec::new();
        let mut results = Vec::new();
        for matching in [MrMatching::HashTree, MrMatching::NaiveScan] {
            let cluster = experiment_cluster(ClusterSpec::paper());
            load_dataset(&cluster, "input.dat", &data.transactions);
            let mut cfg = MrAprioriConfig::new(data.support);
            cfg.matching = matching;
            let run = MrApriori::new(cluster, cfg)
                .mine("input.dat")
                .expect("dataset written");
            totals.push(run.total_seconds);
            results.push(run.result);
        }
        if results[0] != results[1] {
            eprintln!("FAIL: MR matchers diverge on {}", data.name);
            std::process::exit(1);
        }
        let _ = writeln!(
            report,
            "{:<12} {:>16.2} {:>16.2} {:>9.2}x",
            data.name,
            totals[0],
            totals[1],
            totals[1] / totals[0]
        );
    }

    // ---- Section 2: YAFIM Phase-II hot path ----
    //
    // Dense alphabet + low support → |L1| ≈ items, so pass 2 counts
    // |L1|·(|L1|−1)/2 pairs and dominates the run: exactly the regime the
    // triangular counter targets. Planted QUEST patterns keep L2/L3
    // non-empty so trie matching runs too.
    let (transactions, items, support_frac, samples) = if smoke {
        (800, 80u32, 0.02, 1)
    } else {
        (6000, 300u32, 0.008, 5)
    };
    let support = Support::Fraction(support_frac);
    let tx = QuestGenerator::new(QuestConfig {
        transactions,
        items,
        avg_transaction_len: 12.0,
        avg_pattern_len: 4.0,
        patterns: 40,
        correlation: 0.25,
        keep_fraction: 0.7,
        seed: 0xab1a_7104,
    })
    .generate();
    let lines = to_lines(&tx);

    // Parity gate: every configuration against the sequential reference —
    // identical itemsets, supports and per-pass metadata.
    let reference = apriori(&tx, &SequentialConfig::new(support));
    let mut runs: Vec<ConfigRun> = Vec::new();
    let mut manifest_cluster: Option<SimCluster> = None;
    for plan in Phase2Plan::ALL {
        let (run, peak_cache_bytes, c) = accounting_run(&lines, support, plan);
        if run.result != reference {
            eprintln!(
                "FAIL: '{}' diverges from the sequential reference",
                label(plan)
            );
            std::process::exit(1);
        }
        // Phase2Plan::ALL ends with the bitmap plan; keep its cluster.
        manifest_cluster = Some(c);
        runs.push(ConfigRun {
            plan,
            run,
            peak_cache_bytes,
            pass2_seconds: f64::NAN,
            pass2_records_per_sec: f64::NAN,
            k3_seconds: f64::NAN,
            k3_records_per_sec: f64::NAN,
            total_wall_seconds: f64::NAN,
        });
    }
    let baseline_passes: Vec<_> = runs[0]
        .run
        .passes
        .iter()
        .map(|p| (p.pass, p.candidates, p.frequent))
        .collect();
    for r in &runs[1..] {
        let got: Vec<_> = r
            .run
            .passes
            .iter()
            .map(|p| (p.pass, p.candidates, p.frequent))
            .collect();
        if got != baseline_passes {
            eprintln!(
                "FAIL: '{}' pass metadata diverges from the paper engine",
                label(r.plan)
            );
            std::process::exit(1);
        }
    }

    // Regression-gate manifest: captured from the bitmap configuration's
    // accounting run (deterministic: virtual time, counters, byte totals —
    // including the `bitmap.*` build and word counters).
    let dataset_doc = JsonValue::object(vec![
        ("generator", "quest".into()),
        ("transactions", transactions.into()),
        ("items", (items as u64).into()),
        ("support_frac", JsonValue::Number(support_frac)),
        ("avg_transaction_len", JsonValue::Number(12.0)),
        ("patterns", 40u64.into()),
        ("seed", "0xab1a7104".into()),
        ("smoke", JsonValue::Bool(smoke)),
    ]);
    let featured = runs.last().expect("plans swept");
    let config_doc = JsonValue::object(vec![
        ("phase2", label(featured.plan).into()),
        ("cluster", "4 nodes x 4 cores".into()),
    ]);
    let mut manifest = RunManifest::capture(
        "phase2",
        label(featured.plan),
        dataset_doc.clone(),
        config_doc,
        manifest_cluster.as_ref().expect("plans swept"),
    );
    manifest.push_metric("frequent_itemsets", reference.total() as f64);
    manifest.push_metric("passes", featured.run.passes.len() as f64);
    manifest.push_metric("peak_cache_bytes", featured.peak_cache_bytes as f64);
    for p in &featured.run.passes {
        manifest.push_metric(format!("pass.{}.virtual_seconds", p.pass), p.seconds);
        manifest.push_metric(format!("pass.{}.candidates", p.pass), p.candidates as f64);
        manifest.push_metric(format!("pass.{}.frequent", p.pass), p.frequent as f64);
    }
    let manifest_path = if smoke {
        "target/manifests/phase2.smoke.manifest.json"
    } else {
        "results/phase2.manifest.json"
    };
    write_manifest(&manifest, manifest_path);

    if smoke {
        print!("{report}");
        println!(
            "\n== Ablation 2: YAFIM Phase-II hot path ==\n\
             smoke mode: {} configs byte-identical to the sequential reference \
             on {} QUEST transactions ({} frequent itemsets, {} passes); \
             wrote {manifest_path}; skipping wall-clock sweep and result files",
            runs.len(),
            tx.len(),
            reference.total(),
            runs[0].run.passes.len()
        );
        return;
    }

    // Wall-clock sweep: isolate pass 2 and the k≥3 tail per config.
    for r in &mut runs {
        let one = wall_seconds(&lines, support, r.plan, 1, samples);
        let two = wall_seconds(&lines, support, r.plan, 2, samples);
        r.total_wall_seconds = wall_seconds(&lines, support, r.plan, 0, samples);
        r.pass2_seconds = (two - one).max(1e-9);
        r.pass2_records_per_sec = tx.len() as f64 / r.pass2_seconds;
        // The k≥3 tail carries the columnar build for the bitmap config
        // (nothing is projected before pass 3), so the comparison below
        // charges build + counting against the trie's pure matching time.
        r.k3_seconds = (r.total_wall_seconds - two).max(1e-9);
        r.k3_records_per_sec = tx.len() as f64 / r.k3_seconds;
    }

    let _ = writeln!(
        report,
        "\n== Ablation 2: YAFIM Phase-II hot path ({} QUEST transactions, {} items, \
         minsup {:.1}%, |C2| = {}) ==",
        tx.len(),
        items,
        support_frac * 100.0,
        runs[0].run.passes.get(1).map_or(0, |p| p.candidates)
    );
    let _ = writeln!(
        report,
        "{:<24} {:>12} {:>14} {:>12} {:>11} {:>14} {:>14} {:>12}",
        "configuration",
        "pass 2 (s)",
        "p2 records/s",
        "p2 speedup",
        "k>=3 (s)",
        "k3 records/s",
        "peak cache",
        "total (s)"
    );
    let base_p2 = runs[0].pass2_seconds;
    for r in &runs {
        let _ = writeln!(
            report,
            "{:<24} {:>10.3} s {:>14} {:>11.2}x {:>9.3} s {:>14} {:>12} B {:>10.3} s",
            label(r.plan),
            r.pass2_seconds,
            fmt_rate(r.pass2_records_per_sec),
            base_p2 / r.pass2_seconds,
            r.k3_seconds,
            fmt_rate(r.k3_records_per_sec),
            r.peak_cache_bytes,
            r.total_wall_seconds,
        );
    }
    let _ = writeln!(
        report,
        "\nper-pass (virtual, identical candidates/frequent across configs):"
    );
    for p in &runs[0].run.passes {
        let _ = writeln!(
            report,
            "  pass {}: {} candidates, {} frequent",
            p.pass, p.candidates, p.frequent
        );
    }
    let best = runs
        .iter()
        .map(|r| base_p2 / r.pass2_seconds)
        .fold(f64::NAN, f64::max);
    let k3_of = |plan: Phase2Plan| {
        runs.iter()
            .find(|r| r.plan == plan)
            .expect("every plan swept")
            .k3_seconds
    };
    let trie_k3 = k3_of(Phase2Plan::Trie);
    let bitmap_k3 = k3_of(Phase2Plan::Bitmap);
    let _ = writeln!(
        report,
        "\nk>=3 matching tail: bitmap {bitmap_k3:.3} s vs trie {trie_k3:.3} s \
         ({:.2}x, columnar build included)",
        trie_k3 / bitmap_k3
    );
    let _ = writeln!(
        report,
        "best pass-2 speedup over the paper engine: {best:.2}x | parity: ok \
         ({} frequent itemsets, every config byte-identical)",
        reference.total()
    );
    print!("{report}");

    if best < 1.5 {
        eprintln!("FAIL: specialized pass 2 must be at least 1.5x the hash-tree baseline");
        std::process::exit(1);
    }
    if bitmap_k3 >= trie_k3 {
        eprintln!(
            "FAIL: bitmap counting must beat trie matching on the k>=3 wall clock \
             ({bitmap_k3:.3} s vs {trie_k3:.3} s)"
        );
        std::process::exit(1);
    }

    std::fs::write("results/ablation_matching.txt", &report)
        .expect("write results/ablation_matching.txt");

    let config_json = |r: &ConfigRun| {
        JsonValue::object(vec![
            ("pass2_seconds", JsonValue::Number(r.pass2_seconds)),
            (
                "pass2_records_per_sec",
                JsonValue::Number(r.pass2_records_per_sec),
            ),
            (
                "pass2_speedup",
                JsonValue::Number(base_p2 / r.pass2_seconds),
            ),
            ("k3_seconds", JsonValue::Number(r.k3_seconds)),
            (
                "k3_records_per_sec",
                JsonValue::Number(r.k3_records_per_sec),
            ),
            ("peak_cache_bytes", r.peak_cache_bytes.into()),
            (
                "total_wall_seconds",
                JsonValue::Number(r.total_wall_seconds),
            ),
            (
                "passes",
                JsonValue::Array(
                    r.run
                        .passes
                        .iter()
                        .map(|p| {
                            JsonValue::object(vec![
                                ("pass", p.pass.into()),
                                ("virtual_seconds", JsonValue::Number(p.seconds)),
                                ("candidates", p.candidates.into()),
                                ("frequent", p.frequent.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let json = JsonValue::object(vec![
        ("bench", "phase2".into()),
        ("schema_version", MANIFEST_SCHEMA_VERSION.into()),
        ("dataset", dataset_doc),
        ("config_fingerprint", manifest.fingerprint.as_str().into()),
        ("transactions", tx.len().into()),
        ("items", (items as usize).into()),
        ("frequent_itemsets", reference.total().into()),
        (
            "configs",
            JsonValue::object(
                runs.iter()
                    .map(|r| (label(r.plan), config_json(r)))
                    .collect(),
            ),
        ),
        ("best_pass2_speedup", JsonValue::Number(best)),
        (
            "bitmap_k3_speedup_vs_trie",
            JsonValue::Number(trie_k3 / bitmap_k3),
        ),
        ("parity", "ok".into()),
    ]);
    std::fs::write("BENCH_phase2.json", format!("{json}\n")).expect("write BENCH_phase2.json");
    println!("\nwrote results/ablation_matching.txt, {manifest_path} and BENCH_phase2.json");
}
