//! Fig. 3 reproduction: per-iteration execution time of YAFIM vs MR-Apriori
//! on the four benchmark datasets, at the paper's support thresholds, on
//! the paper's 12-node × 8-core cluster. Also prints the §V.B headline
//! numbers (totals, last-pass times, speedups) next to the paper's targets.
//!
//! Usage: `cargo run -p yafim-bench --release --bin fig3 [--scale X]`
//! (`--scale` scales every dataset's transaction count; default 1.0 except
//! T10I4D100K which defaults to 0.25 to keep single-host wall time sane —
//! relative shapes are scale-invariant, see EXPERIMENTS.md.)

use yafim_bench::{assert_same_results, bench_dataset, print_pass_table, run};
use yafim_cluster::{iteration_report, ClusterSpec};
use yafim_core::{Miner, Phase2Plan};
use yafim_data::PaperDataset;

/// (dataset, default scale, paper total-speedup target, paper last-pass speedup target)
const PANELS: [(PaperDataset, f64, f64, Option<f64>); 4] = [
    (PaperDataset::Mushroom, 1.0, 21.0, Some(37.0)),
    (PaperDataset::T10I4D100K, 0.25, 10.0, None),
    (PaperDataset::Chess, 1.0, 21.0, Some(55.0)),
    (PaperDataset::PumsbStar, 1.0, 21.0, None),
];

fn main() {
    let scale_override: Option<f64> = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok());

    let mut speedups = Vec::new();
    for (ds, default_scale, paper_total, paper_last) in PANELS {
        let scale = scale_override.unwrap_or(default_scale);
        let data = bench_dataset(ds, scale);
        let tx = &data.transactions;
        let clean = |miner| {
            run(miner, ClusterSpec::paper(), tx, data.support, None)
                .expect("a fault-free run over a file just written")
        };
        let (yafim, yafim_cluster) = clean(Miner::Spark(Phase2Plan::Paper));
        let (mr, _) = clean(Miner::MapReduce);
        assert_same_results(data.name, &yafim, &mr);

        let title = format!(
            "Fig. 3: {} (sup per paper, scale {scale}) — per-pass execution time",
            data.name
        );
        print_pass_table(&title, &yafim, &mr);
        println!("\n   YAFIM per-iteration report (virtual timeline):");
        for line in iteration_report(yafim_cluster.metrics()).lines() {
            println!("   {line}");
        }

        let total_speedup = mr.total_seconds / yafim.total_seconds;
        speedups.push(total_speedup);
        println!("   paper target: ~{paper_total:.0}x total speedup; measured {total_speedup:.1}x");
        if let (Some(target), Some(y), Some(m)) =
            (paper_last, yafim.passes.last(), mr.passes.last())
        {
            println!(
                "   last pass: paper ~{target:.0}x; measured {:.1}x ({:.2}s vs {:.2}s)",
                m.seconds / y.seconds,
                y.seconds,
                m.seconds
            );
        }
    }

    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("\n== summary ==");
    println!("average total speedup across benchmarks: {avg:.1}x (paper: ~18x)");
}
