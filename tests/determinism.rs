//! Root-level determinism smoke: the number of *host* threads driving the
//! simulated cluster must be invisible. Each Phase-II plan and each
//! MapReduce miner mines the same small Quest input on 1, 2 and 8 pool
//! threads and has to return exactly what sequential Apriori returns, at
//! bit-identical virtual seconds and counters.

use yafim::cluster::{ClusterSpec, CostModel, FaultPlan, SimCluster};
use yafim::data::{to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{
    apriori, Item, MinerRun, MiningResult, MrApriori, MrAprioriConfig, MrMatching, MrVariant,
    Phase2Plan, Son, Support, Yafim, YafimConfig,
};

/// Mine `tx`, in HDFS blocks of `block_size` bytes when one is given, with
/// `mine` on clusters of 1, 2 and 8 pool threads: every run must return
/// `reference` and leave the same virtual clock (by bits) and the same
/// metrics snapshot behind.
fn assert_host_threads_invisible(
    name: &str,
    tx: &[Vec<Item>],
    block_size: Option<u64>,
    reference: &MiningResult,
    plan: Option<&FaultPlan>,
    mine: impl Fn(&SimCluster) -> MinerRun,
) {
    let mut first: Option<(u64, u64, String)> = None;
    for threads in [1, 2, 8] {
        let cluster = SimCluster::with_threads(
            ClusterSpec::new(4, 2, 1 << 30),
            CostModel::hadoop_era(),
            threads,
        );
        if let Some(plan) = plan {
            cluster.faults().set_plan(plan.clone());
        }
        if let Some(bytes) = block_size {
            cluster.hdfs().set_block_size(bytes);
        }
        cluster.hdfs().put_overwrite("in.dat", to_lines(tx));
        let run = mine(&cluster);
        assert_eq!(&run.result, reference, "{name}, {threads} threads");
        let seen = (
            run.total_seconds.to_bits(),
            cluster.metrics().now().as_secs().to_bits(),
            format!("{:?}", cluster.metrics().snapshot()),
        );
        let first = first.get_or_insert_with(|| seen.clone());
        assert_eq!(&seen, first, "{name}: the model moved at {threads} threads");
    }
}

#[test]
fn every_plan_is_identical_at_1_2_and_8_pool_threads() {
    // 2 000 Quest baskets at 1 %: nine levels, so the triangle (pass 2),
    // the store and the bitmap emitters (k >= 3) all run several passes.
    // MushRoom at 5 % of its size, 35 %: dense, so the bitmap plan counts pass 2
    // over the columnar store it builds there.
    let inputs = [
        (
            PaperDataset::T10I4D100K.generate_scaled(0.02),
            0.01,
            "triangle",
        ),
        (PaperDataset::Mushroom.generate_scaled(0.05), 0.35, "bitmap"),
    ];
    for (tx, support, bitmap_pass_2) in inputs {
        let support = Support::Fraction(support);
        let reference = apriori(&tx, support);
        assert!(
            reference.max_len() >= 4,
            "input must reach the k >= 3 passes"
        );
        for phase2 in Phase2Plan::ALL {
            let plan = YafimConfig::with_plan(support, phase2);
            assert_host_threads_invisible(phase2.name(), &tx, None, &reference, None, |cluster| {
                let run = Yafim::new(Context::new(cluster.clone()), plan.clone())
                    .mine("in.dat")
                    .expect("written");
                if phase2 == Phase2Plan::Bitmap {
                    assert_eq!(run.passes[1].counter, bitmap_pass_2);
                }
                run
            });
        }
    }
}

/// The MapReduce engine cuts a map task's lines into host units when the
/// pool has threads to spare (one split: up to 8 units here) and not
/// otherwise (six splits); neither may show.
#[test]
fn the_mapreduce_miners_are_identical_at_1_2_and_8_pool_threads() {
    // Dense and narrow (MushRoom profile), so the candidate levels FPC and
    // DPC chain from *candidates* stay small.
    let tx = PaperDataset::Mushroom.generate_scaled(0.15);
    let support = Support::Fraction(0.4);
    let reference = apriori(&tx, support);
    let bytes: u64 = to_lines(&tx).iter().map(|l| l.len() as u64 + 1).sum();
    assert!(
        bytes >= 4 * 16 * 1024,
        "one split must be worth several units"
    );

    let mr = |variant, matching, cluster: &SimCluster| {
        let config = MrAprioriConfig {
            variant,
            matching,
            ..MrAprioriConfig::new(support)
        };
        MrApriori::new(cluster.clone(), config)
            .mine("in.dat")
            .expect("written")
    };
    for block_size in [None, Some(bytes / 6)] {
        for variant in [
            MrVariant::Spc,
            MrVariant::Fpc { passes_per_job: 2 },
            MrVariant::Dpc {
                max_candidates: 500,
            },
        ] {
            for matching in [MrMatching::HashTree, MrMatching::NaiveScan] {
                let name = format!("{variant:?} {matching:?} block {block_size:?}");
                assert_host_threads_invisible(
                    &name,
                    &tx,
                    block_size,
                    &reference,
                    None,
                    |cluster| mr(variant, matching, cluster),
                );
            }
        }
        let name = format!("son block {block_size:?}");
        assert_host_threads_invisible(&name, &tx, block_size, &reference, None, |cluster| {
            Son::new(cluster.clone(), support)
                .mine("in.dat")
                .expect("written")
        });
        // Crashes, silent corruption and injected OOMs roll once per task,
        // never per unit.
        let plan = FaultPlan::seeded(42)
            .crash_tasks(0.2)
            .corrupt_hdfs(0.2)
            .corrupt_shuffle(0.2)
            .inject_oom(0.3)
            .with_mem_budget(24 << 20);
        let name = format!("spc under faults, block {block_size:?}");
        assert_host_threads_invisible(&name, &tx, block_size, &reference, Some(&plan), |cluster| {
            let run = mr(MrVariant::Spc, MrMatching::HashTree, cluster);
            let recovery = cluster.metrics().snapshot().recovery;
            assert!(recovery.task_retries > 0 && recovery.mem.oom_injected > 0);
            assert!(recovery.integrity.corruptions_repaired > 0);
            run
        });
    }
}

/// Eight units over a three-line split (long lines: a unit is sized by
/// bytes) leave five of them an empty line range, and the one unit of an
/// empty file's one split has nothing to map at all.
#[test]
fn units_with_no_lines_are_harmless() {
    let long_line = |first: Item| [1, 2, 3].into_iter().chain(first..first + 9_000).collect();
    let three: Vec<Vec<Item>> = vec![long_line(10_000), long_line(20_000), long_line(30_000)];
    for tx in [three, Vec::new()] {
        let support = Support::Count(2);
        let reference = apriori(&tx, support);
        assert_eq!(reference.total(), if tx.is_empty() { 0 } else { 7 });
        assert_host_threads_invisible("mapreduce", &tx, None, &reference, None, |cluster| {
            MrApriori::new(cluster.clone(), MrAprioriConfig::new(support))
                .mine("in.dat")
                .expect("written")
        });
        assert_host_threads_invisible("son", &tx, None, &reference, None, |cluster| {
            Son::new(cluster.clone(), support)
                .mine("in.dat")
                .expect("written")
        });
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
