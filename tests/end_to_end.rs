//! Workspace-level integration tests: the whole stack — generators →
//! simulated HDFS → both engines → miners → rules — exercised through the
//! public `yafim` facade, the way a downstream user would.

use yafim::cluster::{ClusterSpec, CostModel, SimCluster};
use yafim::data::{stats, to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{
    apriori, generate_rules, Itemset, MrApriori, MrAprioriConfig, Support, Yafim, YafimConfig,
};

fn small_cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

#[test]
fn full_pipeline_yafim_vs_mr_on_generated_data() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.05);
    let support = Support::Fraction(0.35);

    let spark = small_cluster();
    spark.hdfs().put_overwrite("m.dat", to_lines(&tx));
    let yafim = Yafim::new(Context::new(spark.clone()), YafimConfig::new(support))
        .mine("m.dat")
        .expect("written");

    let hadoop = small_cluster();
    hadoop.hdfs().put_overwrite("m.dat", to_lines(&tx));
    let mr = MrApriori::new(hadoop.clone(), MrAprioriConfig::new(support))
        .mine("m.dat")
        .expect("written");

    // Identical itemsets; YAFIM wins on virtual time; both clocked.
    assert_eq!(yafim.result, mr.result);
    assert!(yafim.result.total() > 0);
    assert!(
        yafim.total_seconds < mr.total_seconds,
        "YAFIM {} vs MR {}",
        yafim.total_seconds,
        mr.total_seconds
    );
    assert!(spark.metrics().now().as_secs() > 0.0);
    assert!(hadoop.metrics().now().as_secs() > 0.0);
}

#[test]
fn rules_from_distributed_mining_match_sequential_mining() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);

    let cluster = small_cluster();
    cluster.hdfs().put_overwrite("med.dat", to_lines(&tx));
    let run = Yafim::new(Context::new(cluster), YafimConfig::new(support))
        .mine("med.dat")
        .expect("written");
    let seq = apriori(&tx, support);

    let from_dist = generate_rules(&run.result, tx.len() as u64, 0.7);
    let from_seq = generate_rules(&seq, tx.len() as u64, 0.7);
    assert_eq!(from_dist, from_seq);
}

#[test]
fn dataset_stats_flow_through_hdfs_unchanged() {
    let tx = PaperDataset::T10I4D100K.generate_scaled(0.01);
    let s_before = stats(&tx);

    let cluster = small_cluster();
    cluster.hdfs().put_overwrite("t.dat", to_lines(&tx));
    let ctx = Context::new(cluster);
    let roundtrip: Vec<Vec<u32>> = ctx
        .text_file("t.dat", 8)
        .expect("written")
        .map(|l| yafim::parse_transaction(&l))
        .collect();
    assert_eq!(stats(&roundtrip), s_before);
    assert_eq!(roundtrip, tx);
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-and-run check that the documented entry points exist.
    let cluster = SimCluster::paper_cluster();
    assert_eq!(cluster.spec().total_cores(), 96);
    let ctx = Context::new(cluster);
    let run = yafim::mine_in_memory(
        &ctx,
        &[vec![1, 2], vec![1, 2], vec![2, 3]],
        YafimConfig::new(Support::Count(2)),
    );
    assert_eq!(run.result.support_of(&Itemset::new(vec![1, 2])), Some(2));
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    // The load-bearing property of the whole evaluation: identical inputs
    // give bit-identical virtual timings.
    let tx = PaperDataset::Mushroom.generate_scaled(0.02);
    let mut totals = Vec::new();
    for _ in 0..2 {
        let cluster = small_cluster();
        cluster.hdfs().put_overwrite("m.dat", to_lines(&tx));
        let run = Yafim::new(
            Context::new(cluster),
            YafimConfig::new(Support::Fraction(0.35)),
        )
        .mine("m.dat")
        .expect("written");
        totals.push((run.total_seconds, run.pass_seconds()));
    }
    assert_eq!(totals[0], totals[1], "virtual time must be deterministic");
}
