//! Fig. 4 reproduction: sizeup. Core count fixed at 48 (6 nodes × 8); each
//! dataset is replicated 1–6× and both miners run over the enlarged data.
//! The paper's shape: MR-Apriori "increases sharply and almost grows
//! linearly" while YAFIM "grows slowly and keeps nearly flat".
//!
//! Usage: `cargo run -p yafim-bench --release --bin fig4 [--scale X]`
//! (default base scale 1.0; T10I4D100K defaults to 0.2 so the ×6 point
//! stays tractable on a single host — shapes are scale-invariant.)

use yafim_bench::{bench_dataset, run};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, Phase2Plan};
use yafim_data::{replicate, PaperDataset};

const PANELS: [(PaperDataset, f64); 4] = [
    (PaperDataset::Mushroom, 1.0),
    (PaperDataset::T10I4D100K, 0.2),
    (PaperDataset::Chess, 1.0),
    (PaperDataset::PumsbStar, 0.5),
];

fn main() {
    let sizeup = ClusterSpec::paper_sizeup();
    let scale_override: Option<f64> = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok());

    for (ds, default_scale) in PANELS {
        let scale = scale_override.unwrap_or(default_scale);
        let data = bench_dataset(ds, scale);
        println!(
            "\n== Fig. 4: {} sizeup (48 cores, base scale {scale}) ==",
            data.name
        );
        println!(
            "{:>10}  {:>12}  {:>12}  {:>10}",
            "replicas", "YAFIM (s)", "MR (s)", "MR/YAFIM"
        );
        let mut first: Option<(f64, f64)> = None;
        let mut last: Option<(f64, f64)> = None;
        for times in 1..=6usize {
            let enlarged = replicate(&data.transactions, times);
            let clean = |miner| {
                run(miner, sizeup.clone(), &enlarged, data.support, None)
                    .expect("a fault-free run over a file just written")
                    .0
            };
            let yafim = clean(Miner::Spark(Phase2Plan::Paper));
            let mr = clean(Miner::MapReduce);
            assert_eq!(
                yafim.result.level_sizes(),
                mr.result.level_sizes(),
                "{} x{times}",
                data.name
            );
            println!(
                "{:>10}  {:>12.2}  {:>12.2}  {:>9.1}x",
                times,
                yafim.total_seconds,
                mr.total_seconds,
                mr.total_seconds / yafim.total_seconds
            );
            if times == 1 {
                first = Some((yafim.total_seconds, mr.total_seconds));
            }
            if times == 6 {
                last = Some((yafim.total_seconds, mr.total_seconds));
            }
        }
        if let (Some((y1, m1)), Some((y6, m6))) = (first, last) {
            println!(
                "   growth 1x -> 6x: YAFIM {:.2}x, MR {:.2}x (paper: YAFIM nearly flat, MR ~linear)",
                y6 / y1,
                m6 / m1
            );
        }
    }
}
