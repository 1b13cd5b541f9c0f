//! Shared harness utilities for the `repro` binary, whose experiments each
//! regenerate one table or figure of the paper (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`), and for the plain-timer benches: building clusters,
//! loading datasets onto simulated HDFS, running a miner, and rendering
//! aligned series.

pub mod microbench;

use std::fmt::Write as _;
use yafim_cluster::json::JsonValue;
use yafim_cluster::{ClusterSpec, CostModel, FaultPlan, SimCluster};
use yafim_core::{MineError, Miner, MinerRun, Phase2Plan, Support};
use yafim_data::{to_text, PaperDataset, QuestConfig, Transaction};

/// A cluster of shape `spec` under the experiments' cost model, with
/// `transactions` on its HDFS as `input.dat`.
///
/// HDFS keeps its real 64 MiB default block size. This matters for fidelity:
/// the benchmark datasets are megabytes, so a stock Hadoop deployment hands
/// MapReduce only one or two map tasks per job — a large part of why the
/// paper's MR baseline scales so poorly and grows linearly under
/// replication, while Spark (whose `textFile(path, minPartitions)` splits
/// below block granularity) keeps the whole cluster busy.
pub fn loaded_cluster(spec: ClusterSpec, transactions: &[Transaction]) -> SimCluster {
    let cluster = SimCluster::new(spec, CostModel::hadoop_era());
    let text = to_text(transactions);
    cluster.hdfs().put_overwrite("input.dat", text);
    cluster
}

/// Run `miner` over `transactions` on a fresh cluster of shape `spec`,
/// under `plan` if there is one, and hand back the cluster with the run so
/// callers can read its metrics (span log, per-stage report, manifest).
pub fn run(
    miner: Miner,
    spec: ClusterSpec,
    transactions: &[Transaction],
    support: Support,
    plan: Option<FaultPlan>,
) -> Result<(MinerRun, SimCluster), MineError> {
    let cluster = loaded_cluster(spec, transactions);
    if let Some(plan) = plan {
        cluster.faults().set_plan(plan);
    }
    let run = miner.mine(&cluster, "input.dat", support)?;
    Ok((run, cluster))
}

/// [`run`] with no fault plan: over a file just written it cannot fail.
pub fn run_clean(
    miner: Miner,
    spec: ClusterSpec,
    transactions: &[Transaction],
    support: Support,
) -> (MinerRun, SimCluster) {
    run(miner, spec, transactions, support, None)
        .expect("a fault-free run over a file just written")
}

/// Generated dataset with its paper metadata, shared by the experiments.
pub struct BenchDataset {
    /// Display name.
    pub name: &'static str,
    /// Paper support threshold.
    pub support: Support,
    /// The generated transactions.
    pub transactions: Vec<Transaction>,
}

/// Generate one benchmark dataset at `scale` (1.0 = Table I size).
pub fn bench_dataset(dataset: PaperDataset, scale: f64) -> BenchDataset {
    let profile = dataset.profile();
    BenchDataset {
        name: profile.name,
        support: Support::Fraction(profile.support),
        transactions: dataset.generate_scaled(scale),
    }
}

/// A per-pass comparison of two runs as an aligned text table (the
/// paper's Fig. 3 / Fig. 6 panels, one row per pass).
pub fn pass_table(title: &str, yafim: &MinerRun, mr: &MinerRun) -> String {
    let mut out = format!(
        "\n== {title} ==\n{:>4}  {:>12}  {:>12}  {:>8}  {:>10}  {:>10}\n",
        "pass", "YAFIM (s)", "MR (s)", "speedup", "candidates", "frequent"
    );
    let passes = yafim.passes.len().max(mr.passes.len());
    for i in 0..passes {
        let y = yafim.passes.get(i);
        let m = mr.passes.get(i);
        let ys = y.map_or(f64::NAN, |p| p.seconds);
        let ms = m.map_or(f64::NAN, |p| p.seconds);
        let _ = writeln!(
            out,
            "{:>4}  {:>12.2}  {:>12.2}  {:>7.1}x  {:>10}  {:>10}",
            i + 1,
            ys,
            ms,
            ms / ys,
            y.or(m).map_or(0, |p| p.candidates),
            y.or(m).map_or(0, |p| p.frequent),
        );
    }
    let _ = writeln!(
        out,
        "{:>4}  {:>12.2}  {:>12.2}  {:>7.1}x   total frequent itemsets: {}",
        "all",
        yafim.total_seconds,
        mr.total_seconds,
        mr.total_seconds / yafim.total_seconds,
        yafim.result.total()
    );
    out
}

/// The Phase-II ablation's workload, shared by `repro ablation_matching`
/// (virtual side) and `benches/phase2.rs` (wall clock): the QUEST
/// generator's parameters, the support fraction and the manifest's dataset
/// document. Dense alphabet + low support → |L1| ≈ items, so pass 2 counts
/// |L1|·(|L1|−1)/2 pairs and dominates the run: exactly the regime the
/// triangular counter targets. Planted patterns keep L2/L3 non-empty so
/// `k ≥ 3` matching runs too.
pub fn phase2_workload() -> (QuestConfig, f64, JsonValue) {
    let quest = QuestConfig {
        transactions: 6000,
        items: 300,
        avg_transaction_len: 12.0,
        avg_pattern_len: 4.0,
        patterns: 40,
        correlation: 0.25,
        keep_fraction: 0.7,
        seed: 0xab1a_7104,
    };
    let support_frac = 0.008;
    let dataset_doc = JsonValue::object(vec![
        ("generator", "quest".into()),
        ("transactions", quest.transactions.into()),
        ("items", (quest.items as u64).into()),
        ("support_frac", JsonValue::Number(support_frac)),
        ("avg_transaction_len", JsonValue::Number(12.0)),
        ("patterns", 40u64.into()),
        ("seed", "0xab1a7104".into()),
    ]);
    (quest, support_frac, dataset_doc)
}

/// The row label of a Phase-II plan (also the `phase2` manifest's engine
/// and config names).
pub fn phase2_label(plan: Phase2Plan) -> &'static str {
    match plan {
        Phase2Plan::Paper => "hash tree (paper)",
        Phase2Plan::Projected => "triangle + hash tree + trim",
        Phase2Plan::Bitmap => "triangle + bitmap + trim",
    }
}

/// Assert both miners found identical itemsets — the paper's correctness
/// check ("all the experimental results of YAFIM are exactly same as
/// MRApriori"). Panics with a diagnostic on mismatch.
pub fn assert_same_results(name: &str, yafim: &MinerRun, mr: &MinerRun) {
    assert_eq!(
        yafim.result.level_sizes(),
        mr.result.level_sizes(),
        "{name}: level sizes diverge"
    );
    assert_eq!(yafim.result, mr.result, "{name}: itemsets diverge");
}
