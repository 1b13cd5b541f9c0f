//! Cross-checks between the fused iterator pipelines (the default engine)
//! and the retained naive-eager reference evaluator: random narrow-operator
//! lineages must produce identical results, identical virtual time, and
//! identical shuffle/cache/record accounting in both modes — only
//! `bytes_materialized` (what fusion exists to shrink) may differ, and then
//! only downward. Every plan starts at a randomly chosen source (a
//! `parallelize`d collection, or an HDFS text file whose split lends its
//! lines to a per-element or a whole-partition parser) and ends in two
//! `collect`s and one `aggregate`.
//! Plus regressions for incremental `take`, for lineage recompute through
//! pipelines after node loss, and for a starved memory budget (spilled
//! combine buffers, a disk-tier cache, a planted node loss) moving virtual
//! time only.

use yafim_cluster::{
    ClusterSpec, CostModel, FaultPlan, MetricsSnapshot, NodeId, SimCluster, SimDuration, SimInstant,
};
use yafim_rdd::{Context, ExecMode, FaultInjection, PartialSize, Rdd, RddConfig, StorageLevel};

fn ctx_with(mode: ExecMode) -> Context {
    let cluster =
        SimCluster::with_threads(ClusterSpec::new(3, 2, 1 << 30), CostModel::hadoop_era(), 2);
    let mut config = RddConfig::for_cluster(&cluster);
    config.exec_mode = mode;
    Context::with_config(cluster, config)
}

/// Tiny deterministic generator for test inputs (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn data(&mut self, max_len: u64) -> Vec<u32> {
        let n = self.range(0, max_len) as usize;
        (0..n).map(|_| self.next() as u32).collect()
    }
}

const CASES: usize = 24;

/// One randomly chosen narrow operator, with its parameters pinned so the
/// exact same lineage can be rebuilt under both execution modes.
#[derive(Clone, Copy, Debug)]
enum Op {
    Map(u32),
    Filter(u32),
    FlatMap(u32),
    MapPartitions(u32),
    Sample(u64),
    Coalesce(usize),
    Cache,
    UnionSelf,
}

/// Where a plan's `Rdd<u32>` comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// Chunks of a driver-side collection, shared with the tasks.
    Parallelize,
    /// A text file's lines, cloned one by one as `map` pulls them.
    TextMap,
    /// The same lines, lent to `map_partitions` as one slice per split.
    TextMapPartitions,
}

fn random_source(rng: &mut Rng) -> Source {
    [
        Source::Parallelize,
        Source::TextMap,
        Source::TextMapPartitions,
    ][rng.range(0, 3) as usize]
}

fn source(c: &Context, from: Source, data: &[u32], parts: usize) -> Rdd<u32> {
    let parse = |line: &String| line.parse::<u32>().expect("a decimal line");
    let lines = || {
        let lines: Vec<String> = data.iter().map(u32::to_string).collect();
        c.cluster().hdfs().put_overwrite("in.txt", lines);
        c.text_file("in.txt", parts).expect("just written")
    };
    match from {
        Source::Parallelize => c.parallelize_with_partitions(data.to_vec(), parts),
        Source::TextMap => lines().map(move |line| parse(&line)),
        Source::TextMapPartitions => {
            lines().map_partitions(move |lines, _| lines.iter().map(parse).collect())
        }
    }
}

fn random_plan(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.range(0, 8) {
            0 => Op::Map(rng.next() as u32),
            1 => Op::Filter(rng.next() as u32),
            2 => Op::FlatMap(rng.next() as u32),
            3 => Op::MapPartitions(rng.next() as u32),
            4 => Op::Sample(rng.next()),
            5 => Op::Coalesce(rng.range(1, 6) as usize),
            6 => Op::Cache,
            _ => Op::UnionSelf,
        })
        .collect()
}

fn apply(rdd: Rdd<u32>, op: Op) -> Rdd<u32> {
    match op {
        Op::Map(k) => rdd.map(move |x| x.wrapping_mul(2_654_435_761).wrapping_add(k)),
        Op::Filter(m) => rdd.filter(move |x| x % (m % 7 + 2) != 0),
        Op::FlatMap(k) => rdd.flat_map(move |x| {
            (0..x.wrapping_add(k) % 3)
                .map(move |i| x.wrapping_add(i))
                .collect::<Vec<u32>>()
        }),
        Op::MapPartitions(k) => rdd.map_partitions(move |s, _| s.iter().map(|x| x ^ k).collect()),
        Op::Sample(seed) => rdd.sample(0.6, seed),
        Op::Coalesce(n) => rdd.coalesce(n),
        Op::Cache => rdd.cache(),
        Op::UnionSelf => rdd.union(&rdd),
    }
}

/// The planned lineage over `c`, with one shuffle in the middle if asked.
fn build(
    c: &Context,
    from: Source,
    data: &[u32],
    parts: usize,
    plan: &[Op],
    shuffle: bool,
) -> Rdd<u32> {
    let mut rdd = source(c, from, data, parts);
    for (i, op) in plan.iter().enumerate() {
        rdd = apply(rdd, *op);
        if shuffle && i == plan.len() / 2 {
            rdd = rdd
                .map(|x| (x % 64, x as u64))
                .reduce_by_key(|a, b| a.wrapping_add(b))
                .map(|(k, v)| k.wrapping_add(v as u32));
        }
    }
    rdd
}

/// Build the planned lineage and run `collect` twice (the second pass
/// exercises cache hits and shuffle reuse), then `aggregate`. Returns both
/// collections and the final metrics snapshot.
fn run_plan(
    mode: ExecMode,
    from: Source,
    data: &[u32],
    parts: usize,
    plan: &[Op],
    shuffle: bool,
) -> (Vec<u32>, Vec<u32>, MetricsSnapshot) {
    let c = ctx_with(mode);
    let rdd = build(&c, from, data, parts, plan, shuffle);
    let first = rdd.collect();
    let second = rdd.collect();
    assert_eq!(checksum(&rdd), checksum_of(&first), "aggregate vs collect");
    (first, second, c.metrics().snapshot())
}

/// `(wrapping sum, count)` of the elements, by the `aggregate` action: every
/// random plan ends in it, and so does the interleaving regression below.
fn checksum(rdd: &Rdd<u32>) -> (u32, u64) {
    rdd.try_aggregate(
        || (0u32, 0u64),
        |acc, part, _| {
            let (sum, n) = checksum_of(part);
            *acc = (acc.0.wrapping_add(sum), acc.1 + n);
            PartialSize {
                records: 1,
                bytes: 12,
            }
        },
        |a, b| (a.0.wrapping_add(b.0), a.1 + b.1),
    )
    .expect("no fault plan")
}

fn checksum_of(elements: &[u32]) -> (u32, u64) {
    let sum = elements.iter().fold(0u32, |a, &x| a.wrapping_add(x));
    (sum, elements.len() as u64)
}

/// Everything observable except `bytes_materialized` must be identical
/// between the two modes; `bytes_materialized` must never grow under fusion.
fn assert_modes_agree(fused: &MetricsSnapshot, eager: &MetricsSnapshot, case: usize) {
    assert_eq!(fused.now, eager.now, "virtual time diverged (case {case})");
    assert_eq!(fused.jobs, eager.jobs, "job count diverged (case {case})");
    assert_eq!(
        fused.stages, eager.stages,
        "stage count diverged (case {case})"
    );
    assert_eq!(
        fused.tasks, eager.tasks,
        "task count diverged (case {case})"
    );
    let (f, e) = (&fused.profile, &eager.profile);
    assert_eq!(f.records_read, e.records_read, "records_read (case {case})");
    assert_eq!(
        f.records_written, e.records_written,
        "records_written (case {case})"
    );
    assert_eq!(
        f.shuffle_read_bytes, e.shuffle_read_bytes,
        "shuffle_read_bytes (case {case})"
    );
    assert_eq!(
        f.shuffle_write_bytes, e.shuffle_write_bytes,
        "shuffle_write_bytes (case {case})"
    );
    assert_eq!(f.cache_hits, e.cache_hits, "cache_hits (case {case})");
    assert_eq!(f.cache_misses, e.cache_misses, "cache_misses (case {case})");
    assert_eq!(
        fused.profile.work.records_in, eager.profile.work.records_in,
        "records_in (case {case})"
    );
    assert_eq!(
        fused.profile.work.records_out, eager.profile.work.records_out,
        "records_out (case {case})"
    );
    assert!(
        f.bytes_materialized <= e.bytes_materialized,
        "fusion materialized more than eager: {} > {} (case {case})",
        f.bytes_materialized,
        e.bytes_materialized
    );
}

#[test]
fn fused_and_eager_agree_on_narrow_chains() {
    let mut rng = Rng(seed(1));
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 6) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let (f1, f2, fs) = run_plan(ExecMode::Fused, from, &data, parts, &plan, false);
        let (e1, e2, es) = run_plan(ExecMode::Eager, from, &data, parts, &plan, false);
        let plan = (from, plan);
        assert_eq!(f1, e1, "first collect diverged (case {case}: {plan:?})");
        assert_eq!(f2, e2, "second collect diverged (case {case}: {plan:?})");
        assert_eq!(f1, f2, "fused collect not stable (case {case}: {plan:?})");
        assert_modes_agree(&fs, &es, case);
    }
}

/// The smallest lineage that used to make the virtual clock depend on the
/// host scheduler (case 23 of the narrow-chain plans above, shrunk): tasks
/// `i` and `i + n` of the one stage both read cached partition `i`, so who
/// computed it, who got a hit, and whether both missed was a race (8 runs
/// in 2 000 on four partitions, 26 on three). What a task sees of the cache
/// must be a function of the plan alone: every run, on any number of pool
/// threads, ends in the same metrics and the same cache stats.
#[test]
fn union_over_a_cached_rdd_is_interleaving_independent() {
    const RUNS: usize = 2000;
    for parts in [3, 4] {
        let mut first: Option<String> = None;
        for threads in [1, 2, 8] {
            for run in 0..RUNS {
                let cluster = SimCluster::with_threads(
                    ClusterSpec::new(3, 2, 1 << 30),
                    CostModel::hadoop_era(),
                    threads,
                );
                let c = Context::new(cluster);
                let r = c
                    .parallelize_with_partitions((0..10u32).collect(), parts)
                    .cache();
                let twice: Vec<u32> = (0..10).chain(0..10).collect();
                assert_eq!(r.union(&r).collect(), twice);
                assert_eq!(checksum(&r.union(&r)), (90, 20));
                let seen = format!("{:?} {:?}", c.metrics().snapshot(), c.cache().stats());
                let first = first.get_or_insert_with(|| seen.clone());
                assert_eq!(
                    &seen, first,
                    "run {run}: {parts} partitions, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn fused_and_eager_agree_through_shuffles() {
    let mut rng = Rng(seed(2));
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let (f1, f2, fs) = run_plan(ExecMode::Fused, from, &data, parts, &plan, true);
        let (e1, e2, es) = run_plan(ExecMode::Eager, from, &data, parts, &plan, true);
        let plan = (from, plan);
        assert_eq!(f1, e1, "first collect diverged (case {case}: {plan:?})");
        assert_eq!(f2, e2, "second collect diverged (case {case}: {plan:?})");
        // An upstream filter can legitimately empty the shuffle input; only
        // a non-empty result proves bytes crossed the boundary.
        if !f1.is_empty() {
            assert!(
                fs.profile.shuffle_write_bytes > 0,
                "shuffle never ran (case {case})"
            );
        }
        assert_modes_agree(&fs, &es, case);
    }
}

/// PR 2's invariant, re-proven through the pipelined path: losing a node
/// (cached partitions and map outputs included) and recomputing through
/// lineage yields byte-identical results — in both execution modes.
#[test]
fn node_loss_recompute_is_identical_through_pipelines() {
    let mut rng = Rng(seed(3));
    for case in 0..CASES {
        let n = rng.range(1, 120) as usize;
        let data: Vec<u32> = (0..n).map(|_| rng.range(0, 500) as u32).collect();
        let parts = rng.range(2, 8) as usize;
        let victim = rng.range(0, 3);
        for mode in [ExecMode::Fused, ExecMode::Eager] {
            let c = ctx_with(mode);
            let cached = c
                .parallelize_with_partitions(data.clone(), parts)
                .flat_map(|x| vec![x, x.wrapping_add(1)])
                .cache();
            let reduced = cached.map(|x| (x % 16, 1u64)).reduce_by_key(|a, b| a + b);
            let healthy = reduced.collect();

            c.lose_node(yafim_cluster::NodeId(victim as u32));
            let recovered = reduced.collect();
            assert_eq!(
                healthy, recovered,
                "recompute diverged (case {case}, {mode:?})"
            );
            assert_eq!(cached.collect().len(), data.len() * 2);
        }
    }
}

/// A starved memory budget on one cluster: at 1 byte per node the governor's
/// per-task slice rounds to zero, so every shuffle combine buffer spills
/// through local disk; a zero-byte cache demotes every `MemoryAndDisk`
/// partition to the disk tier; and a node is lost on top. Every result
/// stays byte-identical to an unbudgeted, fault-free run in both modes:
/// memory pressure, like faults, may only move virtual time, never data.
#[test]
fn a_tight_budget_spills_and_matches_the_unbudgeted_run() {
    let mut rng = Rng(seed(5));
    let mut spilled = 0;
    for case in 0..CASES / 4 {
        let data = rng.data(120);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let fault_seed = rng.next();

        for mode in [ExecMode::Fused, ExecMode::Eager] {
            let run = |starved: bool| {
                let cluster = SimCluster::with_threads(
                    ClusterSpec::new(3, 2, 1 << 30),
                    CostModel::hadoop_era(),
                    2,
                );
                let mut config = RddConfig::for_cluster(&cluster);
                config.exec_mode = mode;
                if starved {
                    cluster.faults().set_plan(
                        FaultPlan::seeded(fault_seed)
                            .with_mem_budget(1)
                            .lose_node_at(
                                NodeId(0),
                                SimInstant::EPOCH + SimDuration::from_secs(0.01),
                            ),
                    );
                    config.cache_capacity_per_node = Some(0);
                }
                let c = Context::with_config(cluster, config);
                let rdd =
                    build(&c, from, &data, parts, &plan, true).persist(StorageLevel::MemoryAndDisk);
                let first = rdd.collect();
                assert_eq!(first, rdd.collect(), "re-read (case {case}, {mode:?})");
                let recovery = c.metrics().snapshot().recovery;
                (first, recovery, c.cache().stats().disk_hits)
            };
            let (reference, _, _) = run(false);
            let (tight, rec, disk_hits) = run(true);
            assert_eq!(tight, reference, "case {case}, {mode:?}: {plan:?}");
            assert_eq!(rec.mem.oom_killed, 0, "degradable spills never kill");
            assert!(
                rec.nodes_lost >= 1,
                "case {case}: the node loss never fired"
            );
            // A filter can empty the shuffle input; only a non-empty result
            // proves a combine buffer filled and a partition was stored.
            if !reference.is_empty() {
                assert!(
                    rec.mem.spills > 0 && rec.mem.spill_bytes > 0,
                    "case {case}, {mode:?}: no combine buffer spilled"
                );
                assert!(disk_hits > 0, "case {case}, {mode:?}: no disk-tier hit");
                spilled += 1;
            }
        }
    }
    assert!(spilled > 0, "every plan filtered to nothing");
}

#[test]
fn take_matches_collect_prefix() {
    let mut rng = Rng(seed(4));
    for case in 0..CASES {
        let data = rng.data(150);
        let parts = rng.range(1, 12) as usize;
        let n = rng.range(0, 40) as usize;
        let c = ctx_with(ExecMode::Fused);
        let rdd = c
            .parallelize_with_partitions(data.clone(), parts)
            .map(|x| x / 2)
            .filter(|x| x % 3 != 1);
        let full = rdd.collect();
        let prefix: Vec<u32> = full.iter().take(n).copied().collect();
        assert_eq!(rdd.take(n), prefix, "case {case}");
    }
}

/// With plenty of rows in partition 0, `take(small)` must touch only the
/// first partition — later ones are never computed.
#[test]
fn take_skips_later_partitions_when_early_ones_fill() {
    let c = ctx_with(ExecMode::Fused);
    let data: Vec<u32> = (0..800).collect();
    let rdd = c.parallelize_with_partitions(data, 8); // 100 rows per partition
    let out = rdd.take(5);
    assert_eq!(out, vec![0, 1, 2, 3, 4]);
    let snap = c.metrics().snapshot();
    assert_eq!(snap.tasks, 1, "take(5) should run exactly one task");
    // Only partition 0's rows ever entered a pipeline.
    assert!(
        snap.profile.records_read <= 100,
        "later partitions were computed: {} records read",
        snap.profile.records_read
    );
}

/// When early partitions under-fill, `take` keeps ramping through later
/// ones and still returns the correct prefix.
#[test]
fn take_ramps_through_underfilled_partitions() {
    let c = ctx_with(ExecMode::Fused);
    // Partitions 0..6 filter to nothing; only the tail survives.
    let data: Vec<u32> = (0..400).collect();
    let rdd = c.parallelize_with_partitions(data, 8).filter(|x| *x >= 390);
    assert_eq!(rdd.take(4), vec![390, 391, 392, 393]);
}

#[test]
fn take_zero_runs_no_job() {
    let c = ctx_with(ExecMode::Fused);
    let rdd = c.parallelize_with_partitions((0..100u32).collect(), 4);
    assert_eq!(rdd.take(0), Vec::<u32>::new());
    assert_eq!(c.metrics().snapshot().jobs, 0);
}

/// Seed helper so each test's stream is distinct but stable.
fn seed(n: u64) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(n).wrapping_add(n)
}
