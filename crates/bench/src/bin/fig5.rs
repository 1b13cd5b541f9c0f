//! Fig. 5 reproduction: node scalability of YAFIM. Dataset fixed, node
//! count swept through 4, 6, 8, 10, 12 (32–96 cores). The paper reports
//! near-linear speedup ("the time cost for YAFIM goes near-linear").
//!
//! Deviation note (see EXPERIMENTS.md): scalability is only visible where
//! per-pass *compute* dominates the per-pass scheduling floor (job/stage
//! dispatch, broadcast), which is constant in cluster size. At the original
//! Table I sizes the benchmarks are megabytes and YAFIM is floor-bound, so
//! this binary sweeps the 6×-replicated datasets by default (`--replicate N`
//! to change, `--replicate 1` for the originals; `--scale X` scales the base
//! dataset).
//!
//! Usage: `cargo run -p yafim-bench --release --bin fig5 [--scale X] [--replicate N]`

use yafim_bench::{bench_dataset, run};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, Phase2Plan};
use yafim_data::{replicate, PaperDataset};

const PANELS: [(PaperDataset, f64); 4] = [
    (PaperDataset::Mushroom, 1.0),
    (PaperDataset::T10I4D100K, 0.25),
    (PaperDataset::Chess, 1.0),
    (PaperDataset::PumsbStar, 1.0),
];

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let scale_override: Option<f64> = arg("--scale").and_then(|s| s.parse().ok());
    let replicas: usize = arg("--replicate")
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
        .max(1);

    for (ds, default_scale) in PANELS {
        let scale = scale_override.unwrap_or(default_scale);
        let data = bench_dataset(ds, scale);
        let enlarged = replicate(&data.transactions, replicas);
        println!(
            "\n== Fig. 5: {} node scalability (scale {scale}, {replicas}x replicated) ==",
            data.name
        );
        println!(
            "{:>8} {:>8}  {:>12}  {:>14}",
            "nodes", "cores", "YAFIM (s)", "vs 32 cores"
        );
        let mut base: Option<f64> = None;
        for spec in ClusterSpec::paper_speedup_sweep() {
            let cores = spec.total_cores();
            let nodes = spec.nodes;
            let yafim = Miner::Spark(Phase2Plan::Paper);
            let (yafim, _) = run(yafim, spec, &enlarged, data.support, None)
                .expect("a fault-free run over a file just written");
            let baseline = *base.get_or_insert(yafim.total_seconds);
            println!(
                "{:>8} {:>8}  {:>12.2}  {:>13.2}x",
                nodes,
                cores,
                yafim.total_seconds,
                baseline / yafim.total_seconds
            );
        }
        println!("   (paper: time decreases near-linearly with added nodes; ideal 96/32 = 3x)");
    }
}
