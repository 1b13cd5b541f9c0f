//! The `aggregate` action against the shuffle it replaces in the miner: a
//! dense vector folded per worker and summed at the driver must hold what
//! `reduce_by_key(+)` produces, and what the virtual cluster sees of the
//! action (the modelled per-task partial, DESIGN.md §5) must not depend on
//! how many host threads shared the accumulators.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_rdd::{Context, PartialSize, Rdd};

const KEYS: usize = 97;

fn ctx(threads: usize) -> Context {
    Context::new(SimCluster::with_threads(
        ClusterSpec::new(3, 2, 1 << 30),
        CostModel::hadoop_era(),
        threads,
    ))
}

/// Seeded `(key, value)` records (splitmix64), keys below [`KEYS`].
fn records(seed: u64, n: usize) -> Vec<(u32, u64)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| ((next() % KEYS as u64) as u32, next() % 1000))
        .collect()
}

/// Add a partition into a dense vector over the keys; its partial is one
/// `(u32, u64)` record per distinct key it holds.
fn add_partition(acc: &mut [u64], part: &[(u32, u64)]) -> PartialSize {
    let mut seen = [false; KEYS];
    for &(k, v) in part {
        acc[k as usize] += v;
        seen[k as usize] = true;
    }
    let records = seen.iter().filter(|&&s| s).count() as u64;
    PartialSize {
        records,
        bytes: 12 * records,
    }
}

fn sum(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
    a
}

fn dense_sum(rdd: &Rdd<(u32, u64)>) -> Vec<u64> {
    rdd.try_aggregate(
        || vec![0u64; KEYS],
        |acc, part, _| add_partition(acc, part),
        sum,
    )
    .expect("no fault plan")
}

#[test]
fn a_dense_aggregate_equals_reduce_by_key_at_1_2_and_8_threads() {
    for (seed, n, parts) in [
        (1u64, 0usize, 3usize),
        (2, 40, 1),
        (3, 900, 7),
        (4, 5000, 64),
    ] {
        let data = records(seed, n);
        let mut seen = None;
        for threads in [1, 2, 8] {
            let c = ctx(threads);
            let rdd = c.parallelize_with_partitions(data.clone(), parts);
            let dense = dense_sum(&rdd);
            let snap = c.metrics().snapshot();

            let mut scattered = vec![0u64; KEYS];
            for (k, v) in rdd.reduce_by_key(|a, b| a + b).collect() {
                scattered[k as usize] = v;
            }
            assert_eq!(dense, scattered, "seed {seed}, {threads} threads");

            assert_eq!((snap.jobs, snap.stages, snap.tasks), (1, 1, parts as u64));
            let virtual_side = (
                snap.now.as_secs().to_bits(),
                snap.profile.records_written,
                snap.profile.work,
            );
            assert_eq!(
                *seen.get_or_insert(virtual_side),
                virtual_side,
                "seed {seed}: the clock saw the host at {threads} threads"
            );
        }
    }
}

#[test]
fn an_empty_rdd_aggregates_to_zero() {
    let c = ctx(2);
    let empty = c.parallelize_with_partitions(Vec::<(u32, u64)>::new(), 4);
    assert_eq!(dense_sum(&empty), vec![0u64; KEYS]);
}

#[test]
fn one_action_makes_at_most_one_accumulator_per_pool_thread() {
    for threads in [1, 2, 8] {
        let c = ctx(threads);
        assert_eq!(c.cluster().pool().size(), threads);
        let data = records(5, 4000);
        let rdd = c.parallelize_with_partitions(data.clone(), 64);
        let made = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&made);
        let zero = move || {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![0u64; KEYS]
        };
        let dense = rdd
            .try_aggregate(zero, |acc, part, _| add_partition(acc, part), sum)
            .expect("clean");
        assert_eq!(
            dense.iter().sum::<u64>(),
            data.iter().map(|(_, v)| v).sum::<u64>()
        );
        let made = made.load(Ordering::SeqCst);
        assert!(
            (1..=threads).contains(&made),
            "{made} accumulators for 64 partitions on {threads} threads"
        );
    }
}

#[test]
fn a_panicking_seq_propagates_and_leaves_nothing_behind() {
    let c = ctx(2);
    let rdd = c.parallelize_with_partitions(records(6, 600), 8);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        rdd.try_aggregate(
            || vec![0u64; KEYS],
            |acc, part, tc| {
                let size = add_partition(acc, part);
                assert_ne!(tc.partition, 5, "boom in partition 5");
                size
            },
            sum,
        )
    }));
    let payload = unwound.expect_err("the task's panic reaches the caller");
    let message = payload.downcast_ref::<String>().expect("assert message");
    assert!(message.contains("boom in partition 5"), "{message}");

    // The same pool, the next action: every accumulator starts from zero.
    let mut expected = vec![0u64; KEYS];
    for (k, v) in records(6, 600) {
        expected[k as usize] += v;
    }
    assert_eq!(dense_sum(&rdd), expected);
}
