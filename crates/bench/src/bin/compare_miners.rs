//! Extension comparison (beyond the paper's figures): every parallel miner
//! in the repository on the same dataset and cluster — YAFIM (k-phase,
//! Spark-style), MR-Apriori/SPC (k-phase, MapReduce), SON (one-phase,
//! MapReduce) and PFP (no candidate generation, Spark-style) — the four
//! corners of the design space the paper's related-work section sketches.
//!
//! Usage: `cargo run -p yafim-bench --release --bin compare_miners [--scale X]`

use yafim_bench::{bench_dataset, run};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, MiningResult, Phase2Plan};
use yafim_data::PaperDataset;

/// What each row is called: family and decomposition, the design-space
/// corner the miner stands for.
const LABELS: [(Miner, &str); 4] = [
    (Miner::Spark(Phase2Plan::Paper), "YAFIM (Spark, k-phase)"),
    (Miner::MapReduce, "MR-Apriori/SPC (k-phase)"),
    (Miner::Son, "SON (MapReduce, one-phase)"),
    (Miner::Pfp, "PFP (Spark, FP-Growth)"),
];

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    for ds in [PaperDataset::Mushroom, PaperDataset::Medical] {
        let data = bench_dataset(ds, scale);
        println!(
            "\n== miner comparison: {} (sup per paper, scale {scale}) ==",
            data.name
        );
        println!(
            "{:<28} {:>8} {:>12} {:>10}",
            "miner", "jobs", "total (s)", "itemsets"
        );

        let mut reference: Option<MiningResult> = None;
        for (miner, label) in LABELS {
            let spec = ClusterSpec::paper();
            let (mined, cluster) = run(miner, spec, &data.transactions, data.support, None)
                .expect("a fault-free run over a file just written");
            if let Some(r) = &reference {
                assert_eq!(r, &mined.result, "{label} diverges");
            }
            println!(
                "{:<28} {:>8} {:>12.2} {:>10}",
                label,
                cluster.metrics().snapshot().jobs,
                mined.total_seconds,
                mined.result.total()
            );
            reference.get_or_insert(mined.result);
        }
    }
    println!("\n(All miners are asserted to produce identical itemsets.)");
}
