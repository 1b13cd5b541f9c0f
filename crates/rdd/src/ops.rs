//! Extended operator set: the rest of the classic RDD API surface —
//! `distinct`, `sample`, `coalesce`, pair-RDD helpers (`map_values`, `keys`,
//! `values`, `group_by_key`, `join`) and the aggregate actions (`reduce`,
//! `fold`, `first`).
//!
//! The paper's YAFIM only needs the Fig. 1/Fig. 2 operators (in
//! [`crate::rdd`]); these complete the engine to the level a downstream user
//! of a "mini-Spark" expects, and the extension miners (parallel FP-Growth,
//! SON) are built on them.

use crate::rdd::{materialize, Counted, Data, Pipe, Rdd, RddImpl, RddMeta};
use crate::shuffle::ShuffleStage;
use crate::task::TaskContext;
use crate::PartialSize;
use std::hash::Hash;
use std::sync::Arc;
use yafim_cluster::{fx_hash64, ByteSize, NodeId};

impl<T: Data> Rdd<T> {
    /// Deterministic Bernoulli sample of roughly `fraction` of the elements
    /// (seeded; same seed → same sample, independent of partitioning of the
    /// *execution*, dependent only on element positions).
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        let imp = Arc::new(SampleRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            fraction,
            seed,
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Merge partitions down to at most `n` (contiguous ranges; a narrow
    /// dependency, like Spark's `coalesce` without shuffle).
    pub fn coalesce(&self, n: usize) -> Rdd<T> {
        let n = n.max(1).min(self.num_partitions().max(1));
        let imp = Arc::new(CoalesceRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            partitions: n,
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Action: combine all elements with `f` (`None` on an empty RDD).
    /// `f` must be associative and commutative, as in Spark. One
    /// [`Rdd::try_aggregate`] whose tasks each ship the one record their
    /// partition reduces to, if it has any.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Option<T> {
        let f = Arc::new(f);
        let g = Arc::clone(&f);
        let merge = move |a: Option<T>, b: Option<T>| match (a, b) {
            (Some(a), Some(b)) => Some(f(a, b)),
            (a, b) => a.or(b),
        };
        let merge_into = merge.clone();
        self.try_aggregate(
            || None,
            move |acc: &mut Option<T>, part, _tc| {
                let partial = part.iter().cloned().reduce(|a, b| g(a, b));
                let records = partial.is_some() as u64;
                let bytes = partial.as_ref().map_or(0, T::byte_size);
                *acc = merge_into(acc.take(), partial);
                PartialSize { records, bytes }
            },
            merge,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Action: [`Rdd::reduce`], or `zero` on an empty RDD. As in Spark,
    /// `zero` must be an identity of `f`; it is never folded into elements.
    pub fn fold(&self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> T {
        self.reduce(f).unwrap_or(zero)
    }

    /// Action: the first element in partition order (`None` if empty).
    pub fn first(&self) -> Option<T> {
        self.take(1).into_iter().next()
    }
}

impl<T> Rdd<T>
where
    T: Data + Hash + Ord,
{
    /// Remove duplicates (one shuffle, like Spark's `distinct`).
    pub fn distinct(&self) -> Rdd<T> {
        self.map(|t| (t, ()))
            .reduce_by_key(|a, _b| a)
            .map(|(t, ())| t)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Transform values, keeping keys (narrow).
    pub fn map_values<W: Data>(&self, f: impl Fn(V) -> W + Send + Sync + 'static) -> Rdd<(K, W)> {
        self.map(move |(k, v)| (k, f(v)))
    }

    /// Project keys (narrow).
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k)
    }

    /// Project values (narrow).
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v)
    }

    /// Group all values per key (one shuffle). Value order within a group is
    /// deterministic (map-task order, as this engine's shuffle is).
    pub fn group_by_key(&self) -> Rdd<(K, Vec<V>)>
    where
        K: Ord,
    {
        self.map(|(k, v)| (k, vec![v]))
            .reduce_by_key(|mut a, mut b| {
                a.append(&mut b);
                a
            })
    }

    /// Inner join on the key (one shuffle over both sides). For each key,
    /// every pair of a left and a right value is produced.
    pub fn join<W: Data>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, (V, W))>
    where
        K: Ord,
    {
        let left = self.map(|(k, v)| (k, JoinSide::Left(v)));
        let right = other.map(|(k, w)| (k, JoinSide::Right(w)));
        left.union(&right)
            .group_by_key()
            .flat_map(|(k, sides): (K, Vec<JoinSide<V, W>>)| {
                let mut ls = Vec::new();
                let mut rs = Vec::new();
                for s in sides {
                    match s {
                        JoinSide::Left(v) => ls.push(v),
                        JoinSide::Right(w) => rs.push(w),
                    }
                }
                let mut out = Vec::with_capacity(ls.len() * rs.len());
                for l in &ls {
                    for r in &rs {
                        out.push((k.clone(), (l.clone(), r.clone())));
                    }
                }
                out
            })
    }

    /// Action: collect into per-key counts — `count_by_key` (drives the
    /// Phase I frequency table in user code).
    pub fn count_by_key(&self) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        self.map(|(k, _)| (k, 1u64))
            .reduce_by_key(|a, b| a + b)
            .collect()
    }
}

/// Tag for the two sides of a join while they travel one shuffle together.
#[derive(Clone)]
enum JoinSide<V, W> {
    Left(V),
    Right(W),
}

impl<V: ByteSize, W: ByteSize> ByteSize for JoinSide<V, W> {
    fn byte_size(&self) -> u64 {
        1 + match self {
            JoinSide::Left(v) => v.byte_size(),
            JoinSide::Right(w) => w.byte_size(),
        }
    }
}

// ---------------------------------------------------------------------------
// Operator nodes
// ---------------------------------------------------------------------------

struct SampleRdd<T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<T>>,
    fraction: f64,
    seed: u64,
}

impl<T: Data> RddImpl<T> for SampleRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent.preferred_node(part)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        // Position-keyed hash → uniform in [0,1), fully deterministic: the
        // streamed element positions are the same positions the eager
        // evaluator enumerates, so the sample is identical.
        let threshold = (self.fraction * u64::MAX as f64) as u64;
        let seed = self.seed;
        let inp = Counted::pulled(materialize(&self.parent, part, tc).into_iter(), tc);
        Pipe::Iter(Box::new(Counted::produced(
            inp.enumerate()
                .filter(move |(i, _)| fx_hash64(&(seed, part as u64, *i as u64)) <= threshold)
                .map(|(_, t)| t),
            tc,
        )))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }
}

struct CoalesceRdd<T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<T>>,
    partitions: usize,
}

impl<T: Data> CoalesceRdd<T> {
    /// Contiguous range of parent partitions backing output partition `i`.
    fn parent_range(&self, i: usize) -> std::ops::Range<usize> {
        let total = self.parent.num_partitions();
        let per = total.div_ceil(self.partitions);
        let start = i * per;
        start..(start + per).min(total)
    }
}

impl<T: Data> RddImpl<T> for CoalesceRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent_range(part)
            .next()
            .and_then(|p| self.parent.preferred_node(p))
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        // Chain the parent partitions lazily: a later parent partition is
        // only materialized when the pipeline actually reaches it (an
        // incremental `take` that fills up early never computes it).
        let parent = &self.parent;
        let it = self
            .parent_range(part)
            .flat_map(move |p| Counted::pulled(materialize(parent, p, tc).into_iter(), tc));
        Pipe::Iter(Box::new(Counted::produced(it, tc)))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }
}

#[cfg(test)]
mod tests {
    use crate::Context;
    use yafim_cluster::{ClusterSpec, CostModel, SimCluster};

    fn ctx() -> Context {
        Context::new(SimCluster::with_threads(
            ClusterSpec::new(4, 2, 1 << 30),
            CostModel::hadoop_era(),
            2,
        ))
    }

    #[test]
    fn distinct_removes_duplicates() {
        let c = ctx();
        let mut out = c
            .parallelize_with_partitions(vec![1u32, 2, 2, 3, 1, 3, 3], 3)
            .distinct()
            .collect();
        out.sort();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn sample_is_deterministic_and_roughly_sized() {
        let c = ctx();
        let rdd = c.parallelize_with_partitions((0u32..10_000).collect(), 8);
        let a = rdd.sample(0.3, 42).collect();
        let b = rdd.sample(0.3, 42).collect();
        assert_eq!(a, b, "same seed, same sample");
        let frac = a.len() as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&frac), "got fraction {frac}");
        let other = rdd.sample(0.3, 43).collect();
        assert_ne!(a, other, "different seed, different sample");
    }

    #[test]
    fn sample_edges() {
        let c = ctx();
        let rdd = c.parallelize((0u32..100).collect());
        assert_eq!(rdd.sample(0.0, 1).count(), 0);
        assert_eq!(rdd.sample(1.0, 1).count(), 100);
    }

    #[test]
    fn coalesce_preserves_order_and_contents() {
        let c = ctx();
        let data: Vec<u32> = (0..97).collect();
        let rdd = c.parallelize_with_partitions(data.clone(), 13).coalesce(4);
        assert_eq!(rdd.num_partitions(), 4);
        assert_eq!(rdd.collect(), data);
        // Coalescing below 1 clamps.
        assert_eq!(
            c.parallelize_with_partitions(data.clone(), 5)
                .coalesce(0)
                .num_partitions(),
            1
        );
    }

    #[test]
    fn reduce_and_fold() {
        let c = ctx();
        let rdd = c.parallelize_with_partitions((1u64..=100).collect(), 7);
        assert_eq!(rdd.reduce(|a, b| a + b), Some(5050));
        assert_eq!(rdd.fold(0, |a, b| a + b), 5050);
        let empty = c.parallelize(Vec::<u64>::new());
        assert_eq!(empty.reduce(|a, b| a + b), None);
        // As in Spark, `zero` must be an identity of `f`: one that is not
        // is what an empty RDD folds to and is ignored by any other.
        assert_eq!(empty.fold(0, |a, b| a + b), 0);
        assert_eq!(empty.fold(7, |a, b| a.max(b)), 7);
        assert_eq!(rdd.fold(1000, |a, b| a.max(b)), 100);
    }

    #[test]
    fn first_in_partition_order() {
        let c = ctx();
        assert_eq!(c.parallelize(vec![9u32, 1, 5]).first(), Some(9));
        assert_eq!(c.parallelize(Vec::<u32>::new()).first(), None);
    }

    #[test]
    fn map_values_keys_values() {
        let c = ctx();
        let rdd = c.parallelize(vec![(1u32, 10u64), (2, 20)]);
        assert_eq!(rdd.map_values(|v| v + 1).collect(), vec![(1, 11), (2, 21)]);
        assert_eq!(rdd.keys().collect(), vec![1, 2]);
        assert_eq!(rdd.values().collect(), vec![10, 20]);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let c = ctx();
        let pairs: Vec<(u32, u32)> = vec![(1, 1), (2, 9), (1, 2), (1, 3), (2, 8)];
        let mut grouped = c
            .parallelize_with_partitions(pairs, 3)
            .group_by_key()
            .collect();
        grouped.sort();
        assert_eq!(grouped.len(), 2);
        let (k1, mut v1) = grouped[0].clone();
        v1.sort();
        assert_eq!((k1, v1), (1, vec![1, 2, 3]));
        let (k2, mut v2) = grouped[1].clone();
        v2.sort();
        assert_eq!((k2, v2), (2, vec![8, 9]));
    }

    #[test]
    fn join_is_inner_product_per_key() {
        let c = ctx();
        let left = c.parallelize(vec![(1u32, "a"), (1, "b"), (2, "c"), (3, "d")]);
        let right = c.parallelize(vec![(1u32, 10u32), (2, 20), (2, 21), (4, 40)]);
        let mut out = left.join(&right).collect();
        out.sort();
        assert_eq!(
            out,
            vec![
                (1, ("a", 10)),
                (1, ("b", 10)),
                (2, ("c", 20)),
                (2, ("c", 21)),
            ]
        );
    }

    #[test]
    fn count_by_key_counts() {
        let c = ctx();
        let mut out = c
            .parallelize((0u32..30).map(|i| (i % 3, ())).collect())
            .count_by_key();
        out.sort();
        assert_eq!(out, vec![(0, 10), (1, 10), (2, 10)]);
    }

    #[test]
    fn distinct_then_count_pipeline() {
        let c = ctx();
        let n = c
            .parallelize((0u32..1000).map(|i| i % 50).collect())
            .distinct()
            .count();
        assert_eq!(n, 50);
    }
}
