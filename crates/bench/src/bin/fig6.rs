//! Fig. 6 reproduction: the real-world medical application (§V.D).
//! Medical case data at Sup = 3%, YAFIM vs MR-Apriori per iteration; the
//! paper reports ~25× overall and notes both that every YAFIM iteration is
//! far cheaper than MR's and that YAFIM's iterations get cheaper as the
//! frequent-itemset levels shrink.
//!
//! Usage: `cargo run -p yafim-bench --release --bin fig6 [--scale X]`

use yafim_bench::{assert_same_results, bench_dataset, print_pass_table, run};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, Phase2Plan};
use yafim_data::PaperDataset;

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    let data = bench_dataset(PaperDataset::Medical, scale);
    let tx = &data.transactions;
    let clean = |miner| {
        run(miner, ClusterSpec::paper(), tx, data.support, None)
            .expect("a fault-free run over a file just written")
            .0
    };
    let yafim = clean(Miner::Spark(Phase2Plan::Paper));
    let mr = clean(Miner::MapReduce);
    assert_same_results("medical", &yafim, &mr);

    print_pass_table(
        &format!(
            "Fig. 6: medical case data, Sup = 3% ({} cases)",
            data.transactions.len()
        ),
        &yafim,
        &mr,
    );
    println!(
        "\npaper target: ~25x total speedup; measured {:.1}x",
        mr.total_seconds / yafim.total_seconds
    );

    // The paper's qualitative claim: YAFIM iterations shrink over time.
    let y = &yafim.passes;
    let head = y.iter().take(3).map(|p| p.seconds).sum::<f64>() / 3.0;
    let tail_n = y.len().saturating_sub(3).max(1);
    let tail = y.iter().skip(3).map(|p| p.seconds).sum::<f64>() / tail_n as f64;
    println!(
        "YAFIM early passes avg {head:.2}s vs later passes avg {tail:.2}s \
         (paper: per-iteration time decreases with the iterations)"
    );
}
