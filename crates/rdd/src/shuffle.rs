//! Shuffle machinery: `reduceByKey` and the registry of materialized map
//! outputs.
//!
//! A [`ReduceByKeyRdd`] is both an RDD (its partitions are the reduce side)
//! and a [`ShuffleStage`] (the map side that must run first). The executor
//! collects the shuffle stages in a lineage, prepares them bottom-up, and
//! only then computes the consuming stage — exactly Spark's DAG scheduler
//! split at shuffle boundaries.
//!
//! The shuffle carries *real* data: map tasks hash-partition their map-side
//! combined output into buckets held in the [`ShuffleRegistry`]; reduce tasks
//! merge the buckets. Virtual costs: map side pays serialization plus a local
//! shuffle-file write; reduce side pays fetch (1/nodes local disk, the rest
//! network), deserialization, and the merge CPU.
//!
//! Map output is kept *per map task* — one flat, bucket-grouped block behind
//! its own `Arc` — tagged with the node the winning attempt ran on. When that
//! node dies the registry marks just those map outputs lost (a reduce task
//! would hit a fetch failure); the next `prepare` resubmits only the missing
//! map partitions — Spark's partial-stage resubmission — and patches them
//! back in. Reduce tasks read buckets in map-task order, so a patched shuffle
//! is byte-identical to one materialized in a single healthy run.
//!
//! The map side picks its combine strategy from the stream it sees: while
//! keys arrive strictly ascending the records are already combined and are
//! kept as they come (one comparison per record, no hashing); the first
//! out-of-order key hands everything over to a hash combiner. Either way a
//! key occurs at most once per map output, and the reduce side folds map
//! outputs in map-task order and sorts its result by `(key hash, key)`, so
//! the order of records *inside* a bucket can reach neither a reducer nor a
//! result — the map side therefore routes without sorting.

use crate::context::Context;
use crate::exec;
use crate::rdd::{materialize, Data, Pipe, RddImpl, RddMeta};
use crate::task::TaskContext;
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::{Arc, Weak};
use yafim_cluster::sync::Mutex;
use yafim_cluster::{
    bucket_of, fx_hash64, slice_bytes, BucketLoss, ExecError, FxHashMap, NodeId, RecoveryCounters,
    Site, StageKind,
};

/// A shuffle's map side, to be run before any stage that reads it.
pub(crate) trait ShuffleStage: Send + Sync {
    /// Shuffle id (equals the owning RDD's id).
    fn shuffle_id(&self) -> u64;
    /// Run ancestor shuffles, then this shuffle's map stage (or just its
    /// lost map partitions), unless already complete.
    fn prepare(&self) -> Result<(), ExecError>;
}

/// One map task's combined output: every record in one flat block, grouped
/// by reduce partition. A key occurs at most once per map output.
pub(crate) struct MapOutput<K, V> {
    records: Vec<(K, V)>,
    /// Bucket `r` is `records[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    /// Serialized byte estimate of each bucket.
    bytes: Vec<u64>,
}

impl<K: Data + Hash, V: Data> MapOutput<K, V> {
    /// Group `records` by reduce partition, in place: hash each key once,
    /// count bucket sizes, then cycle every record into its bucket's range.
    /// The order inside a bucket is unspecified (see the module docs).
    fn route(mut records: Vec<(K, V)>, reduces: usize) -> Self {
        records.shrink_to_fit();
        let mut ids: Vec<u32> = records
            .iter()
            .map(|(k, _)| bucket_of(k, reduces) as u32)
            .collect();
        let mut offsets = vec![0usize; reduces + 1];
        for &b in &ids {
            offsets[b as usize + 1] += 1;
        }
        for r in 0..reduces {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets[..reduces].to_vec();
        for b in 0..reduces {
            while next[b] < offsets[b + 1] {
                let i = next[b];
                let home = ids[i] as usize;
                if home != b {
                    records.swap(i, next[home]);
                    ids.swap(i, next[home]);
                }
                next[home] += 1;
            }
        }
        let bytes = offsets
            .windows(2)
            .map(|w| slice_bytes(&records[w[0]..w[1]]))
            .collect();
        MapOutput {
            records,
            offsets,
            bytes,
        }
    }
}

impl<K, V> MapOutput<K, V> {
    fn bucket(&self, part: usize) -> &[(K, V)] {
        &self.records[self.offsets[part]..self.offsets[part + 1]]
    }
}

/// Materialized map output of one shuffle, kept per map task so individual
/// map outputs can be invalidated and recomputed.
pub(crate) struct Materialized<K, V> {
    /// `per_map[m]` = what map task `m` produced. Each output sits behind
    /// its own `Arc`, so patching a few lost maps clones pointers, not data.
    per_map: Vec<Arc<MapOutput<K, V>>>,
    /// Serialized byte estimate per reduce partition (summed over maps).
    pub bucket_bytes: Vec<u64>,
}

impl<K, V> Materialized<K, V> {
    fn new(per_map: Vec<Arc<MapOutput<K, V>>>) -> Self {
        let reduces = per_map.first().map_or(0, |m| m.bytes.len());
        let bucket_bytes = (0..reduces)
            .map(|r| per_map.iter().map(|m| m.bytes[r]).sum())
            .collect();
        Materialized {
            per_map,
            bucket_bytes,
        }
    }

    /// Reduce partition `part`'s buckets, one per map task, in map-task
    /// order.
    fn buckets(&self, part: usize) -> impl Iterator<Item = &[(K, V)]> {
        self.per_map.iter().map(move |m| m.bucket(part))
    }
}

/// A recomputed map output: `(map partition, its output, node the
/// resubmitted attempt ran on)`.
pub(crate) type RecomputedMap<K, V> = (usize, MapOutput<K, V>, NodeId);

/// One registered shuffle: the typed map output plus provenance — which node
/// produced each map task's output, and which outputs are currently lost.
struct ShuffleEntry {
    data: Arc<dyn Any + Send + Sync>,
    /// Node the winning attempt of each map task ran on.
    map_nodes: Vec<NodeId>,
    /// Map partitions whose output died with their node. Non-empty ⇒ a
    /// reduce task would hit a fetch failure; `prepare` resubmits them.
    lost: BTreeSet<usize>,
}

/// Registry of materialized shuffles, keyed by shuffle id.
pub(crate) struct ShuffleRegistry {
    inner: Mutex<FxHashMap<u64, ShuffleEntry>>,
}

impl ShuffleRegistry {
    pub(crate) fn new() -> Self {
        ShuffleRegistry {
            inner: Mutex::new(FxHashMap::default()),
        }
    }

    pub(crate) fn has(&self, id: u64) -> bool {
        self.inner.lock().contains_key(&id)
    }

    /// Materialized *and* no map outputs lost.
    pub(crate) fn is_complete(&self, id: u64) -> bool {
        self.inner
            .lock()
            .get(&id)
            .is_some_and(|e| e.lost.is_empty())
    }

    /// Map partitions whose output is currently lost (ascending order).
    pub(crate) fn lost_maps(&self, id: u64) -> Vec<usize> {
        self.inner
            .lock()
            .get(&id)
            .map(|e| e.lost.iter().copied().collect())
            .unwrap_or_default()
    }

    pub(crate) fn get<K, V>(&self, id: u64) -> Option<Arc<Materialized<K, V>>>
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.inner.lock().get(&id).map(|e| {
            Arc::clone(&e.data)
                .downcast::<Materialized<K, V>>()
                .expect("shuffle type mismatch")
        })
    }

    pub(crate) fn insert<K, V>(&self, id: u64, mat: Materialized<K, V>, map_nodes: Vec<NodeId>)
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        assert_eq!(mat.per_map.len(), map_nodes.len());
        self.inner.lock().insert(
            id,
            ShuffleEntry {
                data: Arc::new(mat),
                map_nodes,
                lost: BTreeSet::new(),
            },
        );
    }

    /// Replace the lost map outputs of shuffle `id` with freshly recomputed
    /// ones and record their new home nodes. Clears the lost set. Surviving
    /// map outputs are shared with the previous entry, not copied.
    pub(crate) fn patch<K, V>(&self, id: u64, recomputed: Vec<RecomputedMap<K, V>>)
    where
        K: Data,
        V: Data,
    {
        let mut g = self.inner.lock();
        let entry = g
            .get_mut(&id)
            .expect("patching a shuffle that was never materialized");
        let old = Arc::clone(&entry.data)
            .downcast::<Materialized<K, V>>()
            .expect("shuffle type mismatch");
        let mut per_map = old.per_map.clone();
        for (m, output, node) in recomputed {
            per_map[m] = Arc::new(output);
            entry.map_nodes[m] = node;
        }
        entry.data = Arc::new(Materialized::new(per_map));
        entry.lost.clear();
    }

    /// Drop a materialized shuffle (fault injection): the next action that
    /// needs it re-runs the whole map stage through the lineage.
    pub(crate) fn invalidate(&self, id: u64) -> bool {
        self.inner.lock().remove(&id).is_some()
    }

    /// Mark every map output produced on `node` as lost, across all
    /// registered shuffles. Returns how many map outputs were newly lost.
    pub(crate) fn mark_node_lost(&self, node: NodeId) -> usize {
        let mut g = self.inner.lock();
        let mut newly = 0;
        for e in g.values_mut() {
            for (m, n) in e.map_nodes.iter().enumerate() {
                if *n == node && e.lost.insert(m) {
                    newly += 1;
                }
            }
        }
        newly
    }

    /// Number of materialized shuffles.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

/// Why a combiner slot is never observed empty.
const FOLDED: &str = "a combiner slot is only empty while its reducer call runs";

/// Fold `v` into an occupied combiner slot without cloning the accumulated
/// value: the reducer takes it by value, so it is moved out and back.
fn fold_into<V>(slot: &mut Option<V>, v: V, reducer: &(dyn Fn(V, V) -> V + Send + Sync)) {
    let prev = slot.take().expect(FOLDED);
    *slot = Some(reducer(prev, v));
}

/// Map-side combine of one parent partition. Returns the number of records
/// pulled and the combined records, each key at most once.
///
/// A strictly ascending key stream is already combined, so records are kept
/// as they arrive for as long as each key exceeds the one before it; an
/// owned upstream buffer is checked in place and reused. The first
/// out-of-order key moves the run into a hash combiner, which takes the rest
/// of the stream.
fn combine<K, V>(
    pipe: Pipe<'_, (K, V)>,
    reducer: &(dyn Fn(V, V) -> V + Send + Sync),
) -> (u64, Vec<(K, V)>)
where
    K: Data + Hash + Ord,
    V: Data,
{
    let mut stream = match pipe {
        Pipe::Owned(v) if v.windows(2).all(|w| w[0].0 < w[1].0) => return (v.len() as u64, v),
        other => other.into_iter(),
    };
    let mut run: Vec<(K, V)> = Vec::new();
    let late = loop {
        let Some((k, v)) = stream.next() else {
            return (run.len() as u64, run);
        };
        if run.last().is_some_and(|(last, _)| *last >= k) {
            break (k, v);
        }
        run.push((k, v));
    };

    let mut records_in = 0u64;
    let mut combined: FxHashMap<K, Option<V>> = FxHashMap::default();
    combined.reserve(run.len());
    for (k, v) in run.into_iter().chain(Some(late)).chain(stream) {
        records_in += 1;
        match combined.entry(k) {
            Entry::Occupied(mut e) => fold_into(e.get_mut(), v, reducer),
            Entry::Vacant(e) => {
                e.insert(Some(v));
            }
        }
    }
    let combined = combined
        .into_iter()
        .map(|(k, v)| (k, v.expect(FOLDED)))
        .collect();
    (records_in, combined)
}

/// The `reduceByKey` operator node.
pub(crate) struct ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Ord,
    V: Data,
{
    meta: RddMeta,
    parent: Arc<dyn RddImpl<(K, V)>>,
    reducer: Arc<dyn Fn(V, V) -> V + Send + Sync>,
    partitions: usize,
    weak_self: Weak<Self>,
}

impl<K, V> ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Ord,
    V: Data,
{
    pub(crate) fn new(
        ctx: &Context,
        parent: Arc<dyn RddImpl<(K, V)>>,
        reducer: Arc<dyn Fn(V, V) -> V + Send + Sync>,
        partitions: usize,
    ) -> Arc<Self> {
        Arc::new_cyclic(|weak| ReduceByKeyRdd {
            meta: RddMeta::new(ctx),
            parent,
            reducer,
            partitions,
            weak_self: weak.clone(),
        })
    }

    fn ctx(&self) -> &Context {
        &self.meta.ctx
    }

    /// Run the map side: map-side combine each parent partition, hash-
    /// partition into buckets, register the per-map buckets. With
    /// `only = Some(lost)`, recompute just those map partitions and patch
    /// them into the existing entry (partial stage resubmission).
    fn run_map_stage(&self, only: Option<&[usize]>) -> Result<(), ExecError> {
        let ctx = self.ctx().clone();
        let parent = Arc::clone(&self.parent);
        let reducer = Arc::clone(&self.reducer);
        let out_parts = self.partitions;

        // Which original map partitions this stage computes: all of them on
        // a fresh run, just the lost ones on a resubmission.
        let map_parts: Vec<usize> = match only {
            Some(lost) => lost.to_vec(),
            None => (0..parent.num_partitions()).collect(),
        };
        let label = match only {
            Some(_) => format!("shuffle {} map (resubmit)", self.meta.id),
            None => format!("shuffle {} map", self.meta.id),
        };
        let preferred: Vec<Option<NodeId>> = map_parts
            .iter()
            .map(|&p| parent.preferred_node(p))
            .collect();

        let task_parts = map_parts.clone();
        let cluster = ctx.cluster().clone();
        let (results, executed_on): (Vec<MapOutput<K, V>>, Vec<NodeId>) = exec::try_run_stage(
            &ctx,
            label,
            StageKind::ShuffleMap,
            Some(self.meta.id),
            preferred,
            &|| self.parent.preflight(),
            Arc::new(move |idx: usize, tc: &TaskContext| {
                let part = task_parts[idx];

                // Map-side combine (Spark's aggregator): the parent's fused
                // pipeline streams straight into the combiner — the shuffle
                // write is the first pipeline breaker in the stage, so no
                // intermediate partition buffer exists.
                let (records_in, combined) =
                    combine(materialize(&parent, part, tc), reducer.as_ref());
                tc.add_records_in(records_in);

                let output = MapOutput::route(combined, out_parts);
                let total_records = output.records.len() as u64;
                let total_bytes: u64 = output.bytes.iter().sum();
                // The combine buffer is execution memory; when the governor
                // denies it (budget overflow or injected OOM) the buffer
                // spills through local disk — `try_reserve` charges the
                // extra round trip, results are unchanged.
                tc.try_reserve(total_bytes, Site::ShuffleCombine);
                tc.add_records_out(total_records);
                tc.add_ser(total_bytes);
                tc.add_disk_write(total_bytes); // shuffle file write
                tc.add_stall_micros(cluster.checksum_micros(total_bytes)); // verified by fetches
                tc.note_shuffle_write(total_bytes);
                tc.note_records_written(total_records);
                tc.note_materialized(total_bytes);

                output
            }),
        )?;

        let records = results.iter().map(|output| output.records.len() as u64);
        ctx.metrics().note_shipped(0, records.sum());
        match only {
            Some(_) => {
                let recomputed = map_parts
                    .iter()
                    .zip(results)
                    .zip(executed_on)
                    .map(|((&m, output), node)| (m, output, node))
                    .collect();
                self.ctx().shuffles().patch(self.meta.id, recomputed);
            }
            None => {
                let mat = Materialized::new(results.into_iter().map(Arc::new).collect());
                self.ctx().shuffles().insert(self.meta.id, mat, executed_on);
            }
        }
        Ok(())
    }
}

impl<K, V> ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Ord,
    V: Data,
{
    /// Resubmit a (deterministically chosen) victim map task per reduce
    /// bucket that cannot be fetched as written, as the driver does on a
    /// fetch failure, patching its output back in like a node-loss hole.
    /// Escalated fetches are picked once per materialization, right after
    /// the initial map stage; rotten buckets at every preparation (each is
    /// found once: its repair rewrites it clean).
    fn resubmit_failed_buckets(&self, loss: BucketLoss) -> Result<(), ExecError> {
        let maps = self.parent.num_partitions();
        if maps == 0 {
            return Ok(());
        }
        let cluster = self.ctx().cluster();
        let failed = cluster.failed_buckets(loss, self.meta.id, self.partitions);
        if failed.is_empty() {
            return Ok(());
        }
        let salt: u64 = match loss {
            BucketLoss::Rotten => 0xbadd,
            BucketLoss::Escalated => 0x5e5c,
        };
        let victims = failed
            .iter()
            .map(|&r| fx_hash64(&(self.meta.id, r as u64, salt)) as usize % maps);
        let lost: Vec<usize> = victims.collect::<BTreeSet<usize>>().into_iter().collect();
        let (n, resubmitted) = (failed.len() as u64, lost.len() as u64);
        cluster.metrics().note_recovery(&match loss {
            BucketLoss::Escalated => RecoveryCounters {
                fetch_failures: n,
                recomputed_partitions: resubmitted,
                ..RecoveryCounters::default()
            },
            BucketLoss::Rotten => RecoveryCounters::resubmit_repairs(n, resubmitted),
        });
        self.run_map_stage(Some(&lost))
    }
}

impl<K, V> ShuffleStage for ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Ord,
    V: Data,
{
    fn shuffle_id(&self) -> u64 {
        self.meta.id
    }

    fn prepare(&self) -> Result<(), ExecError> {
        if self.ctx().shuffles().is_complete(self.meta.id) {
            return Ok(());
        }
        // Ancestors first (deduplicated by the completeness check above).
        let mut deps: Vec<Arc<dyn ShuffleStage>> = Vec::new();
        self.parent.collect_shuffle_deps(&mut deps);
        for d in deps {
            d.prepare()?;
        }

        if self.ctx().shuffles().has(self.meta.id) {
            // Materialized but holed: a node died and took some map outputs
            // with it. A reduce task would fetch-fail on each hole — charge
            // the failures and resubmit just the missing map partitions.
            let lost = self.ctx().shuffles().lost_maps(self.meta.id);
            if !lost.is_empty() {
                let resubmits = RecoveryCounters::lost_map_resubmits(lost.len() as u64);
                self.ctx().metrics().note_recovery(&resubmits);
                self.run_map_stage(Some(&lost))?;
            }
            return self.resubmit_failed_buckets(BucketLoss::Rotten);
        }
        self.run_map_stage(None)?;
        self.resubmit_failed_buckets(BucketLoss::Escalated)?;
        self.resubmit_failed_buckets(BucketLoss::Rotten)
    }
}

impl<K, V> RddImpl<(K, V)> for ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Ord,
    V: Data,
{
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn preferred_node(&self, _part: usize) -> Option<NodeId> {
        None
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, (K, V)> {
        let mat = self
            .ctx()
            .shuffles()
            .get::<K, V>(self.meta.id)
            .expect("shuffle map stage must run before reduce tasks");

        // Rotten buckets were rewritten, and escalated fetches' victim map
        // tasks resubmitted, at preparation; the fetch still pays for its
        // check and its retries.
        let bytes = mat.bucket_bytes[part];
        let cluster = self.ctx().cluster();
        tc.add_work(&cluster.read_shuffle(self.meta.id, part, bytes, true));
        tc.note_shuffle_read(bytes);

        // Fold the buckets in map-task order, one probe per record. A key
        // occurs at most once per map output, so the largest bucket is a
        // lower bound on the distinct keys.
        let mut records = 0u64;
        let mut agg: FxHashMap<K, Option<V>> = FxHashMap::default();
        agg.reserve(mat.buckets(part).map(<[_]>::len).max().unwrap_or(0));
        for bucket in mat.buckets(part) {
            records += bucket.len() as u64;
            for (k, v) in bucket {
                match agg.get_mut(k) {
                    Some(slot) => fold_into(slot, v.clone(), self.reducer.as_ref()),
                    None => {
                        agg.insert(k.clone(), Some(v.clone()));
                    }
                }
            }
        }
        tc.add_records_in(records);
        tc.note_records_read(records);
        // Pin down output order for run-to-run determinism: by key hash
        // (computed once per key), ties by the key itself, so the order is a
        // function of the key set alone. The sort makes the reduce output a
        // genuine pipeline breaker: it owns one materialized buffer, which
        // downstream narrow operators then stream out of.
        let mut keyed: Vec<(u64, K, V)> = agg
            .into_iter()
            .map(|(k, v)| (fx_hash64(&k), k, v.expect(FOLDED)))
            .collect();
        keyed.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let out: Vec<(K, V)> = keyed.into_iter().map(|(_, k, v)| (k, v)).collect();
        tc.add_records_out(out.len() as u64);
        tc.note_materialized(slice_bytes(&out));
        Pipe::Owned(out)
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        let me = self
            .weak_self
            .upgrade()
            .expect("RDD alive while collecting deps");
        out.push(me as Arc<dyn ShuffleStage>);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        // A stage whose pipeline starts at this RDD fetches this shuffle's
        // map output.
        Some(self.meta.id)
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(a: u64, b: u64) -> u64 {
        a + b
    }

    #[test]
    fn an_ascending_owned_buffer_is_kept_as_is() {
        let records: Vec<(u32, u64)> = (0..100).map(|k| (k * 3, k as u64)).collect();
        let buffer = records.as_ptr();
        let (n, combined) = combine(Pipe::Owned(records.clone()), &add);
        assert_eq!((n, &combined), (100, &records));
        let (_, reused) = combine(Pipe::Owned(records), &add);
        assert_eq!(
            reused.as_ptr(),
            buffer,
            "run path must reuse the upstream buffer"
        );
        assert_eq!(reused, combined);
    }

    #[test]
    fn a_late_key_hands_the_run_over_to_the_hash_combiner() {
        // Ascending up to the last record, which repeats an earlier key.
        let mut records: Vec<(u32, u64)> = (0..50).map(|k| (k, 1)).collect();
        records.push((7, 41));
        for pipe in [
            Pipe::Owned(records.clone()),
            Pipe::Shared(Arc::new(records.clone())),
            Pipe::Iter(Box::new(records.clone().into_iter())),
        ] {
            let (n, mut combined) = combine(pipe, &add);
            combined.sort_unstable();
            let expected: Vec<(u32, u64)> =
                (0..50).map(|k| (k, if k == 7 { 42 } else { 1 })).collect();
            assert_eq!((n, combined), (51, expected));
        }
    }

    #[test]
    fn route_groups_every_record_into_its_bucket() {
        for reduces in [1, 2, 7, 64] {
            let records: Vec<(u32, u64)> = (0..500).map(|k| (k * 7 + 1, k as u64)).collect();
            let out = MapOutput::route(records.clone(), reduces);
            assert_eq!(out.offsets.len(), reduces + 1);
            assert_eq!(out.records.capacity(), out.records.len());
            let mut seen = Vec::new();
            for r in 0..reduces {
                let bucket = out.bucket(r);
                assert!(bucket.iter().all(|(k, _)| bucket_of(k, reduces) == r));
                assert_eq!(out.bytes[r], slice_bytes(bucket));
                seen.extend_from_slice(bucket);
            }
            seen.sort_unstable();
            assert_eq!(seen, records);
        }
        let empty = MapOutput::<u32, u64>::route(Vec::new(), 3);
        assert_eq!(empty.bytes, vec![0, 0, 0]);
        assert!(empty.bucket(2).is_empty());
    }
}
