//! Ablation over the related-work job-combining schemes (Lin et al., the
//! paper's ref \[17\]): SPC (one job per pass) vs FPC (fixed passes combined)
//! vs DPC (dynamic passes combined). Combining passes amortizes Hadoop's
//! per-job overhead at the price of counting speculative candidates — the
//! related-work attempt to mitigate exactly the overhead YAFIM removes by
//! switching frameworks.
//!
//! Usage: `cargo run -p yafim-bench --release --bin ablation_phase_combine [--scale X]`

use yafim_bench::{bench_dataset, experiment_cluster, load_dataset, run};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, MrApriori, MrAprioriConfig, MrVariant, Phase2Plan};
use yafim_data::PaperDataset;

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    let data = bench_dataset(PaperDataset::Medical, scale);
    println!("== Ablation: MR job-combining variants, medical dataset sup=3% ==");
    println!(
        "{:<28} {:>8} {:>12} {:>16}",
        "variant", "jobs", "total (s)", "vs SPC"
    );

    let mut spc_total = None;
    let mut reference = None;
    for (label, variant) in [
        ("SPC (one job per pass)", MrVariant::Spc),
        (
            "FPC (2 passes per job)",
            MrVariant::Fpc { passes_per_job: 2 },
        ),
        (
            "FPC (3 passes per job)",
            MrVariant::Fpc { passes_per_job: 3 },
        ),
        (
            "DPC (<= 3000 candidates/job)",
            MrVariant::Dpc {
                max_candidates: 3000,
            },
        ),
    ] {
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &data.transactions);
        let mut cfg = MrAprioriConfig::new(data.support);
        cfg.variant = variant;
        let run = MrApriori::new(cluster.clone(), cfg)
            .mine("input.dat")
            .expect("dataset written");
        match &reference {
            None => reference = Some(run.result.clone()),
            Some(r) => assert_eq!(r, &run.result, "{label} diverges"),
        }
        let base = *spc_total.get_or_insert(run.total_seconds);
        println!(
            "{:<28} {:>8} {:>12.2} {:>15.2}x",
            label,
            cluster.metrics().snapshot().jobs,
            run.total_seconds,
            base / run.total_seconds
        );
    }

    let (yafim, spec) = (Miner::Spark(Phase2Plan::Paper), ClusterSpec::paper());
    let (yafim, _) = run(yafim, spec, &data.transactions, data.support, None)
        .expect("a fault-free run over a file just written");
    println!(
        "{:<28} {:>8} {:>12.2} {:>15.2}x   <- framework switch beats job combining",
        "YAFIM (Spark engine)",
        "-",
        yafim.total_seconds,
        spc_total.expect("SPC ran") / yafim.total_seconds
    );
}
