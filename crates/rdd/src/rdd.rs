//! The typed RDD and its narrow operators, executed as fused iterator
//! pipelines.
//!
//! An [`Rdd<T>`] is a handle to an immutable, partitioned, lazily-computed
//! dataset. Transformations build a lineage graph of operator nodes; actions
//! ([`Rdd::collect`], [`Rdd::count`]) hand the graph to the executor in
//! [`crate::exec`], which first materializes any shuffle dependencies
//! (stages) and then computes the final stage.
//!
//! Within one stage, narrow operators do **not** materialize intermediate
//! partitions: [`RddImpl::compute`] returns a [`Pipe`] — a streaming
//! partition that composes `map`/`flat_map`/`filter`/`union` chains into a
//! single pass, exactly like Spark's whole-stage iterator pipelining.
//! Partition buffers exist only at the true pipeline breakers:
//!
//! * **shuffle map-side writes** ([`crate::shuffle`]) — buckets must be
//!   registered for the reduce side,
//! * **cache inserts and reads** ([`crate::cache`]) — a stored partition is
//!   a `Vec` behind an `Arc`; a hit streams straight out of that `Arc`
//!   without copying it,
//! * **`map_partitions` and `aggregate`**, whose closures take the whole
//!   partition as a slice,
//! * **driver-fetch actions** ([`crate::exec`]) — results are serialized
//!   and shipped to the driver.
//!
//! Lineage is also the fault-tolerance story, exactly as in the paper's
//! description of Spark: a lost cached partition is simply recomputed from
//! its parents, through the same pipeline path.

use crate::context::Context;
use crate::exec::{self, PartialSize};
use crate::shuffle::{ReduceByKeyRdd, ShuffleStage};
use crate::task::TaskContext;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use yafim_cluster::{
    slice_bytes, slice_records, ByteSize, DfsFile, Lines, NodeId, RecoveryCounters, Split,
};

/// Marker bound for RDD element types: cheap to clone, shareable across the
/// worker pool, and byte-sizeable for shuffle/cache accounting.
pub trait Data: Clone + Send + Sync + ByteSize + 'static {}
impl<T: Clone + Send + Sync + ByteSize + 'static> Data for T {}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// One partition's data as it flows through a stage: either already
/// materialized (shared or owned) or a lazy iterator chain borrowing
/// the operator nodes and the [`TaskContext`] for the duration of the task.
pub(crate) enum Pipe<'a, T: Data> {
    /// A stable buffer shared with the cache or the driver (cache hits,
    /// `parallelize` chunks). Elements are cloned lazily as they are pulled.
    Shared(Arc<Vec<T>>),
    /// A buffer this task owns (breaker outputs like the shuffle reduce
    /// side, or `map_partitions` closure results). Elements move out.
    Owned(Vec<T>),
    /// A fused chain of narrow operators: nothing is computed until the
    /// consumer pulls.
    Iter(Box<dyn Iterator<Item = T> + 'a>),
}

impl<'a, T: Data> Pipe<'a, T> {
    /// Drain into a `Vec`, sized once: returns it with its `slice_bytes`.
    /// `bytes_materialized` is charged whenever the engine copies elements
    /// into a new buffer (a lazy chain collapsing, or a stable buffer being
    /// deep-cloned into a cache entry). An owned buffer passes through for
    /// free — no copy happens.
    pub(crate) fn into_vec(self, tc: &TaskContext) -> (Vec<T>, u64) {
        let copied = !matches!(self, Pipe::Owned(_));
        let v: Vec<T> = match self {
            Pipe::Owned(v) => v,
            Pipe::Shared(a) => a.to_vec(),
            Pipe::Iter(it) => it.collect(),
        };
        let bytes = slice_bytes(&v);
        if copied {
            tc.note_materialized(bytes);
        }
        (v, bytes)
    }

    /// Collapse to a shared partition buffer (a breaker), reusing the
    /// allocation when the data is already materialized.
    pub(crate) fn into_arc(self, tc: &TaskContext) -> Arc<Vec<T>> {
        match self {
            Pipe::Shared(a) => a,
            Pipe::Owned(v) => Arc::new(v),
            other => Arc::new(other.into_vec(tc).0),
        }
    }

    /// Hand the whole partition to `f` as a slice (for `map_partitions`).
    /// Zero-copy when the data is already materialized — in particular, a
    /// cache hit passes the cached buffer itself, which is the YAFIM Phase
    /// II hot path.
    pub(crate) fn with_slice<R>(self, tc: &TaskContext, f: impl FnOnce(&[T]) -> R) -> R {
        match self {
            Pipe::Shared(a) => f(&a),
            Pipe::Owned(v) => f(&v),
            other => f(&other.into_vec(tc).0),
        }
    }

    /// Number of elements, consuming the pipe. Already-materialized buffers
    /// answer without touching elements; a lazy chain is drained (the
    /// upstream work still runs, and still gets counted).
    pub(crate) fn count(self) -> u64 {
        match self {
            Pipe::Shared(a) => a.len() as u64,
            Pipe::Owned(v) => v.len() as u64,
            Pipe::Iter(it) => it.count() as u64,
        }
    }
}

/// Streaming element source for a [`Pipe`].
pub(crate) enum PipeIter<'a, T: Data> {
    Shared(Arc<Vec<T>>, usize),
    Owned(std::vec::IntoIter<T>),
    Boxed(Box<dyn Iterator<Item = T> + 'a>),
}

impl<'a, T: Data> IntoIterator for Pipe<'a, T> {
    type Item = T;
    type IntoIter = PipeIter<'a, T>;
    fn into_iter(self) -> PipeIter<'a, T> {
        match self {
            Pipe::Shared(a) => PipeIter::Shared(a, 0),
            Pipe::Owned(v) => PipeIter::Owned(v.into_iter()),
            Pipe::Iter(b) => PipeIter::Boxed(b),
        }
    }
}

impl<T: Data> Iterator for PipeIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            PipeIter::Shared(a, i) => {
                let item = a.get(*i).cloned();
                if item.is_some() {
                    *i += 1;
                }
                item
            }
            PipeIter::Owned(it) => it.next(),
            PipeIter::Boxed(it) => it.next(),
        }
    }
}

/// Counts the elements passing through and flushes the count when the
/// pipeline is dropped (end of task): around an operator's upstream pipe as
/// its `records_in` ([`Counted::pulled`]), around what it emits as its
/// `records_out` ([`Counted::produced`]). Every action drains its pipes, so
/// the totals are what a sequential evaluation of the same operators over
/// `Vec`s counts.
pub(crate) struct Counted<'a, I> {
    inner: I,
    tc: &'a TaskContext,
    n: u64,
    flush: fn(&TaskContext, u64),
}

impl<'a, I> Counted<'a, I> {
    fn new(inner: I, tc: &'a TaskContext, flush: fn(&TaskContext, u64)) -> Self {
        let n = 0;
        Counted {
            inner,
            tc,
            n,
            flush,
        }
    }

    pub(crate) fn pulled(inner: I, tc: &'a TaskContext) -> Self {
        Self::new(inner, tc, TaskContext::add_records_in)
    }

    pub(crate) fn produced(inner: I, tc: &'a TaskContext) -> Self {
        Self::new(inner, tc, TaskContext::add_records_out)
    }
}

impl<I: Iterator> Iterator for Counted<'_, I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.n += 1;
        }
        item
    }
}

impl<I> Drop for Counted<'_, I> {
    fn drop(&mut self) {
        (self.flush)(self.tc, self.n);
    }
}

/// Identity and bookkeeping shared by every operator node.
pub(crate) struct RddMeta {
    pub(crate) id: u64,
    pub(crate) ctx: Context,
    /// Set by [`Rdd::cache`], cleared by [`Rdd::unpersist`].
    cached: AtomicBool,
}

impl RddMeta {
    pub(crate) fn new(ctx: &Context) -> Self {
        RddMeta {
            id: ctx.new_id(),
            ctx: ctx.clone(),
            cached: AtomicBool::new(false),
        }
    }
}

/// Internal operator-node interface. One implementation per operator.
pub(crate) trait RddImpl<T: Data>: Send + Sync + 'static {
    /// Identity/bookkeeping.
    fn meta(&self) -> &RddMeta;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Locality preference for a partition, if any.
    fn preferred_node(&self, part: usize) -> Option<NodeId>;
    /// Produce one partition as a streaming pipe, from scratch (never
    /// consults the cache — that is [`materialize`]'s job). Narrow
    /// operators return a lazy chain over their parent's pipe; breakers
    /// return materialized buffers.
    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T>;
    /// Append the shuffle stages this lineage depends on (nearest only; each
    /// stage pulls in its own ancestors when prepared).
    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>);
    /// Id of the shuffle whose output the stage computing this RDD reads,
    /// if any. Narrow operators delegate to their parent (they pipeline into
    /// the same stage); shuffle boundaries and sources stop the walk.
    fn shuffle_read_id(&self) -> Option<u64> {
        None
    }
    /// Number of operator nodes a from-scratch recomputation of this RDD
    /// replays within its stage: 1 for sources and stage boundaries
    /// (shuffle reads, checkpoint reads — recovery restarts from their
    /// materialized output), parent + 1 for narrow operators. This is the
    /// "lineage replay depth" the recovery counters report, and what
    /// checkpointing truncates.
    fn lineage_len(&self) -> u64 {
        1
    }
    /// Verify, before a stage runs and after the node losses due by then
    /// are applied, that every replicated source partition (HDFS split,
    /// checkpoint block) has a replica left that passes its checksum; other
    /// operators delegate to their parents. With none there is nothing to
    /// replay, so the job fails typed
    /// ([`yafim_cluster::ExecError::IntegrityFailure`]) rather than ever
    /// return wrong results.
    fn preflight(&self) -> Result<(), yafim_cluster::ExecError> {
        Ok(())
    }
}

/// The node a partition's task runs on: its locality preference, or its
/// round-robin home.
pub(crate) fn node_for<T: Data>(imp: &Arc<dyn RddImpl<T>>, part: usize) -> NodeId {
    imp.preferred_node(part)
        .unwrap_or_else(|| imp.meta().ctx.cluster().spec().home_node(part))
}

/// Produce a partition's pipe, going through the cache when the RDD is
/// marked cached: hit → charge a memory scan and stream out of the stored
/// `Arc` without copying it; miss → compute via lineage, collapse the pipe
/// (a cache insert is a breaker), and store on the partition's home node
/// (possibly evicting LRU entries). The task reads the cache as of its
/// stage's start, so tasks of one stage that share a cached partition all
/// miss and all compute it; the stored copy serves later stages.
pub(crate) fn materialize<'a, T: Data>(
    imp: &'a Arc<dyn RddImpl<T>>,
    part: usize,
    tc: &'a TaskContext,
) -> Pipe<'a, T> {
    let meta = imp.meta();
    if !meta.cached.load(Ordering::Relaxed) {
        return imp.compute(part, tc);
    }
    if let Some((data, bytes)) = meta.ctx.cache().get::<T>(meta.id, part, tc.cache_as_of) {
        // Verify the stored block's checksum before trusting it.
        let cluster = meta.ctx.cluster();
        tc.add_stall_micros(cluster.checksum_micros(bytes));
        let rotten = cluster.cached_copy_rotten(meta.id, part);
        tc.add_mem_read(bytes);
        if !rotten {
            tc.note_cache_hit();
            tc.note_records_read(slice_records(&data));
            return Pipe::Shared(data);
        }
        // The only repair of a cached block is lineage recompute: evict the
        // poisoned entry and fall through to the miss path below, which
        // recomputes and re-caches a clean copy.
        meta.ctx.cache().evict(meta.id, part);
    }
    tc.note_cache_miss();
    if meta.ctx.cache().take_lost(meta.id, part) {
        // This miss recomputes a partition a node loss destroyed: the whole
        // narrow chain down to the nearest stable input (source, shuffle or
        // checkpoint) replays. Report how deep that replay went.
        meta.ctx.metrics().note_recovery(&RecoveryCounters {
            max_replay_depth: imp.lineage_len(),
            ..RecoveryCounters::default()
        });
    }
    let (data, payload) = imp.compute(part, tc).into_vec(tc);
    let data = Arc::new(data);
    tc.note_records_written(slice_records(&data));
    let bytes = 8 + payload;
    let node = node_for(imp, part).index();
    meta.ctx
        .cache()
        .put(meta.id, part, node, Arc::clone(&data), bytes);
    // Checksum the block at write time so later reads can verify it.
    tc.add_stall_micros(meta.ctx.cluster().checksum_micros(bytes));
    Pipe::Shared(data)
}

/// A resilient distributed dataset: the public handle. Cheap to clone.
pub struct Rdd<T: Data> {
    pub(crate) ctx: Context,
    pub(crate) imp: Arc<dyn RddImpl<T>>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            imp: Arc::clone(&self.imp),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn from_impl(ctx: Context, imp: Arc<dyn RddImpl<T>>) -> Self {
        Rdd { ctx, imp }
    }

    /// Unique id of this RDD in its context (used by fault injection).
    pub fn id(&self) -> u64 {
        self.imp.meta().id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.imp.num_partitions()
    }

    /// Mark this RDD for in-memory caching: the first materialization of
    /// each partition stores it on the partition's home node; later reads
    /// hit memory instead of recomputing the lineage; an evicted or lost
    /// partition is recomputed. Spark's `MEMORY_ONLY`, what the paper uses
    /// for the transactions RDD.
    pub fn cache(&self) -> Rdd<T> {
        self.imp.meta().cached.store(true, Ordering::Relaxed);
        self.clone()
    }

    /// Drop cached partitions and stop caching.
    pub fn unpersist(&self) {
        self.imp.meta().cached.store(false, Ordering::Relaxed);
        self.ctx.cache().evict_rdd(self.id());
    }

    /// Materialize this RDD to replicated simulated HDFS and return a new
    /// RDD reading from the checkpoint, with its lineage truncated: the
    /// returned RDD has no ancestors, so recovery after a node loss re-reads
    /// the replicated blocks instead of replaying the chain that produced
    /// them. This is Spark's *eager* `checkpoint()` (compute-now, as
    /// `localCheckpoint`/`checkpoint`+action does), run as one job with one
    /// write stage.
    ///
    /// Panics if the checkpoint job aborts under an active fault plan; use
    /// [`Rdd::try_checkpoint`] for the fallible variant.
    pub fn checkpoint(&self) -> Rdd<T> {
        self.try_checkpoint().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Rdd::checkpoint`]; see [`Rdd::try_collect`].
    pub fn try_checkpoint(&self) -> Result<Rdd<T>, yafim_cluster::ExecError> {
        exec::try_checkpoint(self)
    }

    /// Drop this RDD's checkpoint blocks from simulated HDFS (cleanup once
    /// a newer checkpoint supersedes it). A no-op for RDDs that are not
    /// checkpoint readers.
    pub fn discard_checkpoint(&self) -> usize {
        self.ctx
            .cluster()
            .hdfs()
            .checkpoint_remove(self.imp.meta().id)
    }

    /// A narrow one-parent operator: `op` turns this RDD's pipe into the new
    /// one's, partition by partition.
    fn narrow<U: Data>(
        &self,
        op: impl for<'a> Fn(Pipe<'a, T>, &'a TaskContext) -> Pipe<'a, U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let imp = Arc::new(NarrowRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            op: Box::new(op),
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Transform every element.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let f = Arc::new(f);
        self.narrow(move |input, tc| {
            let f = Arc::clone(&f);
            let inp = Counted::pulled(input.into_iter(), tc);
            Pipe::Iter(Box::new(Counted::produced(inp.map(move |p| f(p)), tc)))
        })
    }

    /// Transform every element into zero or more elements.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> Rdd<U>
    where
        I: IntoIterator<Item = U>,
    {
        let f = Arc::new(f);
        self.narrow(move |input, tc| {
            let f = Arc::clone(&f);
            let inp = Counted::pulled(input.into_iter(), tc);
            let out = inp.flat_map(move |p| f(p).into_iter().collect::<Vec<U>>());
            Pipe::Iter(Box::new(Counted::produced(out, tc)))
        })
    }

    /// Keep only elements satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let f = Arc::new(f);
        self.narrow(move |input, tc| {
            let f = Arc::clone(&f);
            let inp = Counted::pulled(input.into_iter(), tc);
            Pipe::Iter(Box::new(Counted::produced(inp.filter(move |t| f(t)), tc)))
        })
    }

    /// Transform a whole partition at once, with access to the
    /// [`TaskContext`] for custom CPU-work accounting (YAFIM uses this for
    /// hash-tree traversal counting). The closure sees the partition as one
    /// slice, so this operator collapses a lazy upstream chain — but a
    /// cached parent streams its stored buffer in zero-copy, and so does
    /// [`Context::text_splits`]. Records are counted by what the elements
    /// stand for ([`ByteSize::records`]) on the way in and on the way out.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T], &TaskContext) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow(move |input, tc| {
            let out = input.with_slice(tc, |s| {
                tc.add_records_in(slice_records(s));
                f(s, tc)
            });
            tc.add_records_out(slice_records(&out));
            Pipe::Owned(out)
        })
    }

    /// Concatenate two RDDs (partitions of `self` first).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let imp = Arc::new(UnionRdd {
            meta: RddMeta::new(&self.ctx),
            parents: vec![Arc::clone(&self.imp), Arc::clone(&other.imp)],
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Action: gather every element to the driver, in partition order.
    ///
    /// Panics if the job aborts under an active fault plan; use
    /// [`Rdd::try_collect`] to handle that case.
    pub fn collect(&self) -> Vec<T> {
        self.try_collect().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `collect`: a job can abort when an active
    /// [`yafim_cluster::FaultPlan`] exhausts a task's retry budget.
    pub fn try_collect(&self) -> Result<Vec<T>, yafim_cluster::ExecError> {
        exec::try_collect(self)
    }

    /// Action: number of elements.
    ///
    /// Panics if the job aborts under an active fault plan.
    pub fn count(&self) -> u64 {
        exec::try_count(self).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Action: Spark's `aggregate`, under Spark's contract: `seq` and `comb`
    /// associative and commutative, `zero()` an identity of both. Tasks fold
    /// whole partitions into accumulators with `seq` (a task may be handed
    /// one that earlier partitions were folded into) and the driver merges
    /// the accumulators with `comb`. What `seq` returns is charged as its
    /// task's result, see [`PartialSize`]. No partitions aggregate to `zero()`.
    /// `cells` is the result's count-cell key space, the size of the cells
    /// the caller keeps, and the pass that names a note: with two or more
    /// cells the partials are summed in a reduce stage where that is cheaper
    /// than the driver's fetch (DESIGN.md §5); one cell is the fetch.
    pub fn try_aggregate<A: Send + 'static>(
        &self,
        zero: impl Fn() -> A + Send + Sync + 'static,
        seq: impl Fn(&mut A, &[T], &TaskContext) -> PartialSize + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A,
        cells: exec::Cells<'_, A>,
    ) -> Result<A, yafim_cluster::ExecError> {
        exec::try_aggregate(self, zero, seq, comb, cells)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Data + Hash + Ord,
    V: Data,
{
    /// Shuffle: combine values per key with `f`, map-side combining first.
    /// Output has as many partitions as the parent. Keys need `Ord` so the
    /// map side can recognise an already-combined (strictly ascending)
    /// stream and the reduce side can order its output by key alone.
    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Rdd<(K, V)> {
        self.reduce_by_key_with_partitions(f, self.num_partitions())
    }

    /// [`Rdd::reduce_by_key`] with an explicit reduce-partition count.
    pub fn reduce_by_key_with_partitions(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        partitions: usize,
    ) -> Rdd<(K, V)> {
        let imp = ReduceByKeyRdd::new(
            &self.ctx,
            Arc::clone(&self.imp),
            Arc::new(f),
            partitions.max(1),
        );
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Group all values per key (one shuffle). Value order within a group is
    /// deterministic (map-task order, as this engine's shuffle is).
    pub fn group_by_key(&self) -> Rdd<(K, Vec<V>)> {
        self.map(|(k, v)| (k, vec![v]))
            .reduce_by_key(|mut a, mut b| {
                a.append(&mut b);
                a
            })
    }
}

// ---------------------------------------------------------------------------
// Operator nodes
// ---------------------------------------------------------------------------

/// Source: an in-memory collection pre-chunked on the driver. Each chunk is
/// behind its own `Arc`, so computing a partition shares the driver's buffer
/// with the pipeline instead of cloning it.
pub(crate) struct ParallelizeRdd<T: Data> {
    pub(crate) meta: RddMeta,
    pub(crate) chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Data> RddImpl<T> for ParallelizeRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.chunks.len()
    }

    fn preferred_node(&self, _part: usize) -> Option<NodeId> {
        None
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let chunk = &self.chunks[part];
        // The driver ships the whole chunk to the worker on every compute,
        // regardless of how much of it the pipeline ends up pulling.
        tc.add_net(slice_bytes(chunk));
        tc.add_records_out(chunk.len() as u64);
        tc.note_records_read(chunk.len() as u64);
        Pipe::Shared(Arc::clone(chunk))
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}
}

/// Source: a text file in simulated HDFS, a partition per split. What a
/// split's lines become is the node's one parameter: a `String` each
/// ([`Context::text_file`]), or the [`Lines`] themselves as one element that
/// stands for a record per line ([`Context::text_splits`]).
pub(crate) struct HdfsTextRdd<T: Data> {
    pub(crate) meta: RddMeta,
    pub(crate) file: DfsFile,
    pub(crate) splits: Vec<Split>,
    pub(crate) elements: fn(Lines) -> Pipe<'static, T>,
}

/// A `String` per line, made as the consumer pulls it.
pub(crate) fn owned_lines(lines: Lines) -> Pipe<'static, String> {
    let indices = 0..lines.len();
    Pipe::Iter(Box::new(
        indices.map(move |i| lines.get(i).expect("in range").to_owned()),
    ))
}

/// The split as it lies in the file's buffer: nothing is copied.
pub(crate) fn whole_split(lines: Lines) -> Pipe<'static, Lines> {
    Pipe::Shared(Arc::new(vec![lines]))
}

impl<T: Data> RddImpl<T> for HdfsTextRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.splits.len()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        Some(self.splits[part].preferred_node)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let split = &self.splits[part];
        if split.preferred_node == tc.node {
            tc.add_disk_read(split.bytes);
        } else {
            // Non-local read: the bytes cross the network from a replica.
            tc.add_net(split.bytes);
        }
        let replicas = self.file.replicas_at(split.lines.start);
        let cluster = self.meta.ctx.cluster();
        tc.add_work(&cluster.read_replicated(self.meta.id, part, split.bytes, replicas, true));
        let lines = self.file.lines().slice(split.lines.clone());
        tc.add_records_out(lines.len() as u64);
        tc.note_records_read(lines.len() as u64);
        (self.elements)(lines)
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}

    fn preflight(&self) -> Result<(), yafim_cluster::ExecError> {
        let (cluster, id) = (self.meta.ctx.cluster(), self.meta.id);
        for (part, split) in self.splits.iter().enumerate() {
            let replicas = self.file.replicas_at(split.lines.start);
            cluster.refuse_unreadable(id, part, replicas, || {
                format!(
                    "hdfs file `{}` rdd{id} split {part}: all {replicas} replicas failed \
                     checksum verification — no clean copy reachable",
                    self.file.name()
                )
            })?;
        }
        Ok(())
    }
}

/// Source: an RDD materialized to simulated HDFS by [`Rdd::checkpoint`].
/// Its partitions are read back from replicated checkpoint blocks, and its
/// lineage is *empty* — `collect_shuffle_deps` reports nothing and
/// `lineage_len` is 1, so recovery after a loss re-reads the checkpoint
/// instead of replaying the ancestor chain. This is the truncation.
pub(crate) struct CheckpointRdd<T: Data> {
    pub(crate) meta: RddMeta,
    partitions: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Data> CheckpointRdd<T> {
    pub(crate) fn new(ctx: &Context, partitions: usize) -> Self {
        CheckpointRdd {
            meta: RddMeta::new(ctx),
            partitions,
            _elem: PhantomData,
        }
    }
}

impl<T: Data> RddImpl<T> for CheckpointRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        // The primary replica — wherever it lives *now* (a node loss can
        // drop the original primary, promoting the next replica).
        self.meta
            .ctx
            .cluster()
            .hdfs()
            .checkpoint_get(self.meta.id, part)
            .and_then(|b| b.replicas.first().copied())
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let ctx = &self.meta.ctx;
        let block = ctx
            .cluster()
            .hdfs()
            .checkpoint_get(self.meta.id, part)
            .expect("a stage whose checkpoint block is gone is refused before it runs");
        let data: Arc<Vec<T>> = block
            .data
            .downcast()
            .expect("a reader has its writer's type");
        if block.replicas.contains(&tc.node) {
            tc.add_disk_read(block.bytes);
        } else {
            tc.add_net(block.bytes);
        }
        tc.add_ser(block.bytes); // deserialize the stored block
        let replicas = block.replicas.len().max(1) as u32;
        let cluster = ctx.cluster();
        tc.add_work(&cluster.read_replicated(self.meta.id, part, block.bytes, replicas, true));
        ctx.metrics().note_recovery(&RecoveryCounters {
            checkpoint_reads: 1,
            ..RecoveryCounters::default()
        });
        let records = slice_records(&data);
        tc.add_records_out(records);
        tc.note_records_read(records);
        Pipe::Shared(data)
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}

    fn preflight(&self) -> Result<(), yafim_cluster::ExecError> {
        let (cluster, id) = (self.meta.ctx.cluster(), self.meta.id);
        for part in 0..self.partitions {
            // A block disappears once every replica's node is lost: it has
            // no copy left, which is refused like a poisoned one.
            let block = cluster.hdfs().checkpoint_get(id, part);
            let replicas = block.map_or(0, |b| b.replicas.len().max(1) as u32);
            cluster.refuse_unreadable(id, part, replicas, || match replicas {
                0 => format!(
                    "checkpoint rdd{id} partition {part}: every replica's node was lost and \
                     lineage was truncated — nothing left to replay"
                ),
                _ => format!(
                    "checkpoint rdd{id} partition {part}: all {replicas} replicas failed \
                     checksum verification and lineage was truncated — nothing left to replay"
                ),
            })?;
        }
        Ok(())
    }
}

/// What a [`NarrowRdd`] does to its parent's pipe.
type NarrowOp<P, T> = dyn for<'a> Fn(Pipe<'a, P>, &'a TaskContext) -> Pipe<'a, T> + Send + Sync;

/// The narrow one-parent operators (`map`, `flat_map`, `filter`,
/// `map_partitions`): `op` is the operator, everything else the parent's.
pub(crate) struct NarrowRdd<P: Data, T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<P>>,
    op: Box<NarrowOp<P, T>>,
}

impl<P: Data, T: Data> RddImpl<T> for NarrowRdd<P, T> {
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
        (self.op)(materialize(&self.parent, part, tc), tc)
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        self.parent.shuffle_read_id()
    }

    fn lineage_len(&self) -> u64 {
        self.parent.lineage_len() + 1
    }

    fn preflight(&self) -> Result<(), yafim_cluster::ExecError> {
        self.parent.preflight()
    }
}

pub(crate) struct UnionRdd<T: Data> {
    meta: RddMeta,
    parents: Vec<Arc<dyn RddImpl<T>>>,
}

impl<T: Data> UnionRdd<T> {
    /// Map a union partition index to `(parent, parent-local partition)`.
    fn locate(&self, part: usize) -> (&Arc<dyn RddImpl<T>>, usize) {
        let mut p = part;
        for parent in &self.parents {
            if p < parent.num_partitions() {
                return (parent, p);
            }
            p -= parent.num_partitions();
        }
        panic!("union partition {part} out of range");
    }
}

impl<T: Data> RddImpl<T> for UnionRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parents.iter().map(|p| p.num_partitions()).sum()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        let (parent, local) = self.locate(part);
        parent.preferred_node(local)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let (parent, local) = self.locate(part);
        Pipe::Iter(Box::new(Counted::pulled(
            materialize(parent, local, tc).into_iter(),
            tc,
        )))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        for p in &self.parents {
            p.collect_shuffle_deps(out);
        }
    }

    fn lineage_len(&self) -> u64 {
        self.parents
            .iter()
            .map(|p| p.lineage_len())
            .max()
            .unwrap_or(0)
            + 1
    }

    fn preflight(&self) -> Result<(), yafim_cluster::ExecError> {
        for p in &self.parents {
            p.preflight()?;
        }
        Ok(())
    }
}
