//! `reduce_by_key` picks its map-side strategy from the key order it sees
//! (ascending run vs hash combiner). That choice must be invisible: the
//! same records, presented to each map task in any order and through any
//! kind of upstream pipe, give the same `collect()` output and the same
//! metrics — virtual time, shuffle bytes, record counts.

use yafim_cluster::{ClusterSpec, CostModel, MetricsSnapshot, NodeId, SimCluster};
use yafim_rdd::{Context, FaultInjection, Rdd};

type Rec = (u32, u64);

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

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

const CASES: usize = 16;

/// How a map task's records reach the shuffle's map side.
#[derive(Clone, Copy, Debug)]
enum Upstream {
    /// A fused narrow chain (`Pipe::Iter`).
    Fused,
    /// A `map_partitions` result the task owns (`Pipe::Owned`).
    Owned,
    /// A cached partition, stored by an earlier job (`Pipe::Shared`).
    Cached,
}

/// One partition per inner `Vec`, its records in exactly the given order.
fn reduce(c: &Context, upstream: Upstream, partitions: &[Vec<Rec>]) -> Rdd<Rec> {
    let source = c.parallelize_with_partitions(partitions.to_vec(), partitions.len());
    let records = match upstream {
        Upstream::Fused => source.flat_map(|p| p),
        Upstream::Owned => source.map_partitions(|ps, _| ps.iter().flatten().copied().collect()),
        Upstream::Cached => {
            let cached = source.flat_map(|p| p).cache();
            cached.count();
            cached
        }
    };
    records.reduce_by_key(|a, b| a + b)
}

fn run(upstream: Upstream, partitions: &[Vec<Rec>]) -> (Vec<Rec>, MetricsSnapshot) {
    let c = ctx();
    let out = reduce(&c, upstream, partitions).collect();
    (out, c.metrics().snapshot())
}

fn assert_same_metrics(a: &MetricsSnapshot, b: &MetricsSnapshot, what: &str) {
    assert_eq!(a.now, b.now, "virtual time ({what})");
    assert_eq!(
        (a.jobs, a.stages, a.tasks),
        (b.jobs, b.stages, b.tasks),
        "{what}"
    );
    assert_eq!(a.profile, b.profile, "task profile ({what})");
}

/// Strictly ascending distinct keys for one partition.
fn ascending(rng: &mut Rng) -> Vec<Rec> {
    let mut key = 0u32;
    (0..rng.range(0, 200))
        .map(|_| {
            key += rng.range(1, 40) as u32;
            (key, rng.range(1, 1000))
        })
        .collect()
}

#[test]
fn presentation_order_and_upstream_kind_are_invisible() {
    let mut rng = Rng(0x5eed);
    for case in 0..CASES {
        let parts = rng.range(1, 7) as usize;
        // (a) every partition strictly ascending: the run path throughout.
        let sorted: Vec<Vec<Rec>> = (0..parts).map(|_| ascending(&mut rng)).collect();
        // (b) shuffled: the hash combiner after a record or two.
        let mut shuffled = sorted.clone();
        shuffled.iter_mut().for_each(|p| rng.shuffle(p));
        // (c) ascending with one key moved to the end: a long run handed
        // over to the hash combiner by the very last record.
        let mut late = sorted.clone();
        for p in late.iter_mut().filter(|p| p.len() >= 2) {
            let moved = p.remove(rng.range(0, p.len() as u64 - 1) as usize);
            p.push(moved);
        }

        let mut reference: Option<Vec<Rec>> = None;
        for upstream in [Upstream::Fused, Upstream::Owned, Upstream::Cached] {
            let (out, metrics) = run(upstream, &sorted);
            for (other, name) in [(&shuffled, "shuffled"), (&late, "late key")] {
                let (o, m) = run(upstream, other);
                assert_eq!(out, o, "case {case} {upstream:?} {name}");
                assert_same_metrics(&metrics, &m, &format!("case {case} {upstream:?} {name}"));
            }
            let reference = reference.get_or_insert_with(|| out.clone());
            assert_eq!(&out, reference, "case {case} {upstream:?}");
        }

        // (d) duplicates: split some records in two. However the halves are
        // arranged, the result is that of the unsplit records.
        let mut split: Vec<Vec<Rec>> = sorted
            .iter()
            .map(|p| {
                p.iter()
                    .flat_map(|&(k, v)| match rng.range(0, 3) {
                        0 => vec![(k, v)],
                        _ => vec![(k, v / 2), (k, v - v / 2)],
                    })
                    .collect()
            })
            .collect();
        let mut split_shuffled = split.clone();
        split_shuffled.iter_mut().for_each(|p| rng.shuffle(p));
        // Non-decreasing: the first repeated key ends the run.
        split.iter_mut().for_each(|p| p.sort_unstable());
        for upstream in [Upstream::Fused, Upstream::Owned, Upstream::Cached] {
            let (out, metrics) = run(upstream, &split);
            let (o, m) = run(upstream, &split_shuffled);
            assert_eq!(Some(&out), reference.as_ref(), "case {case} {upstream:?}");
            assert_eq!(out, o, "case {case} {upstream:?} duplicates");
            assert_same_metrics(
                &metrics,
                &m,
                &format!("case {case} {upstream:?} duplicates"),
            );
        }
    }
}

/// A node dies between the map and the reduce side of a run-path shuffle:
/// the lost map outputs are resubmitted and patched in, and every reduce
/// partition reads exactly what it would have read from a healthy run.
#[test]
fn node_loss_on_a_run_path_shuffle_patches_to_the_identical_result() {
    let mut rng = Rng(0x10_55);
    let mut outputs_lost = 0;
    for case in 0..CASES {
        let parts = rng.range(2, 9) as usize;
        let partitions: Vec<Vec<Rec>> = (0..parts).map(|_| ascending(&mut rng)).collect();
        let (healthy, _) = run(Upstream::Owned, &partitions);

        let c = ctx();
        let reduced = reduce(&c, Upstream::Owned, &partitions);
        // Materialize the map side only (a count runs the reduce tasks, but
        // keeps nothing a second action could reuse).
        assert_eq!(reduced.count(), healthy.len() as u64, "case {case}");
        outputs_lost += c.lose_node(NodeId(rng.range(0, 3) as u32)).map_outputs_lost;
        assert_eq!(reduced.collect(), healthy, "case {case}");
    }
    assert!(outputs_lost > 0, "no case lost a map output");
}
