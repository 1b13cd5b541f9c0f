//! Root-level determinism smoke: the number of *host* threads driving the
//! simulated cluster must be invisible. Each Phase-II plan mines the same
//! small Quest input on 1, 2 and 8 pool threads and has to return exactly
//! what sequential Apriori returns, at bit-identical virtual seconds.

use yafim::cluster::{ClusterSpec, CostModel, SimCluster};
use yafim::data::{to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{apriori, Phase2Plan, SequentialConfig, Support, Yafim, YafimConfig};

#[test]
fn every_plan_is_identical_at_1_2_and_8_pool_threads() {
    // 2 000 Quest baskets at 1 %: nine levels, so the triangle (pass 2),
    // the store and the bitmap emitters (k >= 3) all run several passes.
    let tx = PaperDataset::T10I4D100K.generate_scaled(0.02);
    let support = Support::Fraction(0.01);
    let reference = apriori(&tx, &SequentialConfig::new(support));
    assert!(
        reference.max_len() >= 4,
        "input must reach the k >= 3 passes"
    );

    for phase2 in Phase2Plan::ALL {
        let name = phase2.name();
        let plan = YafimConfig::with_plan(support, phase2);
        let mut virtual_secs: Option<(u64, u64)> = None;
        for threads in [1, 2, 8] {
            let cluster = SimCluster::with_threads(
                ClusterSpec::new(4, 2, 1 << 30),
                CostModel::hadoop_era(),
                threads,
            );
            cluster.hdfs().put_overwrite("quest.dat", to_lines(&tx));
            let run = Yafim::new(Context::new(cluster.clone()), plan.clone())
                .mine("quest.dat")
                .expect("written");
            assert_eq!(run.result, reference, "{name} plan, {threads} threads");

            let secs = (
                run.total_seconds.to_bits(),
                cluster.metrics().now().as_secs().to_bits(),
            );
            let first = *virtual_secs.get_or_insert(secs);
            assert_eq!(
                secs, first,
                "{name} plan: virtual time moved at {threads} threads"
            );
        }
    }
}

/// The miner plans above never share a cached partition inside a stage;
/// this lineage does (tasks `i` and `i + 4` both read cached partition
/// `i`), which used to make the clock and the hit/miss split depend on
/// which task the host ran first. `crates/rdd/tests/pipelines.rs` holds the
/// long version.
#[test]
fn a_stage_sharing_cached_partitions_is_identical_at_1_2_and_8_pool_threads() {
    let mut first: Option<String> = None;
    for threads in [1, 2, 8] {
        for run in 0..200 {
            let cluster = SimCluster::with_threads(
                ClusterSpec::new(3, 2, 1 << 30),
                CostModel::hadoop_era(),
                threads,
            );
            let c = Context::new(cluster);
            let r = c
                .parallelize_with_partitions((0..10u32).collect(), 4)
                .cache();
            assert_eq!(r.union(&r).collect().len(), 20);
            let seen = format!("{:?} {:?}", c.metrics().snapshot(), c.cache().stats());
            let first = first.get_or_insert_with(|| seen.clone());
            assert_eq!(&seen, first, "run {run} on {threads} pool threads");
        }
    }
}
