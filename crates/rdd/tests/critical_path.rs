//! Property test for the critical-path analyzer's tiling invariant: over
//! randomized operator lineages (the same harness `pipelines.rs` uses),
//! the attribution buckets must sum to the makespan within 1e-6 virtual
//! seconds — on clean runs, through shuffles, after node loss, and under
//! transient fetch/HDFS faults. The buckets partition the timeline by
//! construction; this test keeps that claim honest end to end, where real
//! executor schedules (overlapping stages, retries, recomputation) feed
//! the analyzer instead of hand-built spans.

use yafim_cluster::{
    critical_path, ClusterSpec, CostModel, CriticalPathReport, FaultPlan, NodeId, SimCluster,
};
use yafim_rdd::{Context, FaultInjection, Rdd};

fn ctx() -> Context {
    Context::new(SimCluster::with_threads(
        ClusterSpec::new(3, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ))
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

const CASES: usize = 16;

/// One randomly chosen narrow operator, parameters pinned for rebuilding.
#[derive(Clone, Copy, Debug)]
enum Op {
    Map(u32),
    Filter(u32),
    FlatMap(u32),
    MapPartitions(u32),
    Cache,
    UnionSelf,
}

fn random_plan(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.range(0, 6) {
            0 => Op::Map(rng.next() as u32),
            1 => Op::Filter(rng.next() as u32),
            2 => Op::FlatMap(rng.next() as u32),
            3 => Op::MapPartitions(rng.next() as u32),
            4 => Op::Cache,
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
        Op::Cache => rdd.cache(),
        Op::UnionSelf => rdd.union(&rdd),
    }
}

/// Build the lineage, optionally injecting a shuffle halfway through.
fn build(c: &Context, data: &[u32], parts: usize, plan: &[Op], shuffle: bool) -> Rdd<u32> {
    let mut rdd = c.parallelize_with_partitions(data.to_vec(), parts);
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

/// The tiling invariant plus basic sanity on every bucket.
fn assert_sums_to_makespan(c: &Context, case: usize, what: &str) -> CriticalPathReport {
    let report = critical_path(c.metrics(), c.cluster().cost());
    let makespan = c.metrics().now().as_secs();
    assert!(
        (report.makespan - makespan).abs() < 1e-9,
        "report makespan != clock ({what}, case {case})"
    );
    let total = report.buckets.total();
    assert!(
        (total - makespan).abs() < 1e-6,
        "buckets sum to {total}, makespan {makespan}, delta {} ({what}, case {case}): {:?}",
        total - makespan,
        report.buckets
    );
    for (name, v) in report.buckets.named() {
        assert!(
            v >= 0.0,
            "negative bucket {name} = {v} ({what}, case {case})"
        );
    }
    report
}

#[test]
fn buckets_tile_makespan_on_random_narrow_chains() {
    let mut rng = Rng(0xc417_1ca1);
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 6) as usize;
        let plan = random_plan(&mut rng, len);
        let c = ctx();
        let rdd = build(&c, &data, parts, &plan, false);
        rdd.collect();
        rdd.collect();
        assert_sums_to_makespan(&c, case, "narrow");
    }
}

#[test]
fn buckets_tile_makespan_through_shuffles() {
    let mut rng = Rng(0x51ab_1234_5678);
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let c = ctx();
        let rdd = build(&c, &data, parts, &plan, true);
        rdd.collect();
        let report = assert_sums_to_makespan(&c, case, "shuffle");
        if !rdd.collect().is_empty() {
            // A second collect reuses shuffle output and cache entries.
            assert_sums_to_makespan(&c, case, "shuffle-reuse");
        }
        assert!(!report.partial, "nothing should drop here (case {case})");
    }
}

#[test]
fn buckets_tile_makespan_after_node_loss() {
    let mut rng = Rng(0xdead_10cc);
    for case in 0..CASES {
        let n = rng.range(1, 120) as usize;
        let data: Vec<u32> = (0..n).map(|_| rng.range(0, 500) as u32).collect();
        let parts = rng.range(2, 8) as usize;
        let victim = rng.range(0, 3) as u32;
        let c = ctx();
        let cached = c
            .parallelize_with_partitions(data.clone(), parts)
            .flat_map(|x| vec![x, x.wrapping_add(1)])
            .cache();
        let reduced = cached.map(|x| (x % 16, 1u64)).reduce_by_key(|a, b| a + b);
        let healthy = reduced.collect();

        c.lose_node(NodeId(victim));
        let recovered = reduced.collect();
        assert_eq!(healthy, recovered, "recompute diverged (case {case})");
        assert_sums_to_makespan(&c, case, "node-loss");
    }
}

#[test]
fn buckets_tile_makespan_under_transient_faults() {
    let mut rng = Rng(0xf1a6_60e5);
    for case in 0..CASES {
        let data = rng.data(100);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 4) as usize;
        let plan = random_plan(&mut rng, len);
        let c = ctx();
        c.cluster().faults().set_plan(
            FaultPlan::seeded(rng.next())
                .flaky_fetches(0.4)
                .flaky_hdfs(0.4),
        );
        let rdd = build(&c, &data, parts, &plan, true);
        rdd.collect();
        assert_sums_to_makespan(&c, case, "transient-faults");
    }
}

#[test]
fn buckets_tile_makespan_under_silent_corruption() {
    let mut rng = Rng(0xbadd_c0de_5eed);
    for case in 0..CASES {
        let data = rng.data(100);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 4) as usize;
        let plan = random_plan(&mut rng, len);
        let rate = rng.range(1, 40) as f64 / 100.0;
        let reference = {
            let c = ctx();
            build(&c, &data, parts, &plan, true).collect()
        };
        let c = ctx();
        c.cluster().faults().set_plan(
            FaultPlan::seeded(rng.next())
                .corrupt_shuffle(rate)
                .corrupt_cache(rate)
                .corrupt_hdfs(rate),
        );
        let rdd = build(&c, &data, parts, &plan, true);
        assert_eq!(
            rdd.collect(),
            reference,
            "corruption repair diverged (case {case})"
        );
        // Verification, repair stalls and resubmitted map work must all
        // land inside the bucket tiling.
        assert_sums_to_makespan(&c, case, "silent-corruption");
        let rec = c.cluster().metrics().snapshot().recovery;
        assert_eq!(
            rec.integrity.corruptions_detected, rec.integrity.corruptions_injected,
            "case {case}: detection must be total"
        );
        // A second collect re-verifies (now-healed) data: still clean.
        rdd.collect();
        assert_sums_to_makespan(&c, case, "silent-corruption-reuse");
    }
}
