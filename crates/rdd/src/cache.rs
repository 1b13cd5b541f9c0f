//! The block-manager equivalent: storage for cached RDD partitions.
//!
//! Each cached partition lives on its home node and counts against that
//! node's memory budget. When a node's budget is exceeded the least recently
//! used partition on that node is evicted: dropped, so that a later read
//! recomputes it through the lineage (Spark's `MEMORY_ONLY`, which is what
//! the paper's YAFIM caches its transactions with). A partition larger than
//! the whole budget is never stored.
//!
//! The cache is also a *pipeline breaker*: a cache insert materializes the
//! partition into an `Arc<Vec<T>>`, and a cache hit hands that shared buffer
//! straight to the reader's fused pipeline without cloning it.
//!
//! Lookups are counted once, by the task that makes them
//! (`TaskProfile::cache_hits`/`cache_misses`); the manager only reports what
//! it holds. This is what makes the "memory utilization" discussion of the
//! paper's §IV.B (and the cache ablation bench) observable.

use std::any::Any;
use std::sync::Arc;
use yafim_cluster::sync::Mutex;
use yafim_cluster::{ClusterSpec, FxHashMap, FxHashSet};

/// What the cache holds, and has held, over a manager's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Partitions dropped to make room for another (LRU).
    pub evictions: u64,
    /// Partitions currently stored.
    pub entries: usize,
    /// Bytes currently held across all nodes.
    pub used_bytes: u64,
    /// High-water mark of bytes held across all nodes — what the cluster
    /// actually had to provision for this workload (replaced RDDs count
    /// until unpersisted).
    pub peak_bytes: u64,
}

struct Entry {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    node: usize,
    last_use: u64,
    /// Tick of the `put` that stored it (see [`CacheManager::watermark`]).
    written: u64,
}

struct Inner {
    entries: FxHashMap<(u64, usize), Entry>,
    used: Vec<u64>,
    tick: u64,
    evictions: u64,
    peak_bytes: u64,
    /// Partitions dropped by a node loss and not yet re-read. The next
    /// cache miss on one of these is a genuine lineage *replay*, which the
    /// recovery counters attribute with its replay depth.
    lost: FxHashSet<(u64, usize)>,
}

/// Thread-safe cache of `(rdd id, partition) → Arc<Vec<T>>`.
pub struct CacheManager {
    inner: Mutex<Inner>,
    capacity_per_node: u64,
    nodes: usize,
}

impl CacheManager {
    /// Cache sized as `storage_fraction` of node memory — the scheduler
    /// config's storage/execution split. The 0.6 default reproduces the
    /// historical `* 6 / 10` integer math bit-for-bit (see
    /// [`yafim_cluster::storage_capacity`]).
    pub(crate) fn with_fraction(spec: &ClusterSpec, storage_fraction: f64) -> Self {
        Self::with_capacity(
            spec.nodes as usize,
            yafim_cluster::storage_capacity(spec.memory_per_node, storage_fraction),
        )
    }

    /// Explicit per-node capacity (tests and the cache-pressure ablation).
    pub(crate) fn with_capacity(nodes: usize, capacity_per_node: u64) -> Self {
        CacheManager {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                used: vec![0; nodes],
                tick: 0,
                evictions: 0,
                peak_bytes: 0,
                lost: FxHashSet::default(),
            }),
            capacity_per_node,
            nodes,
        }
    }

    /// The cache's write clock right now. The executor reads it once when a
    /// stage starts and every task of the stage passes it to
    /// [`CacheManager::get`], so the stage sees exactly the entries that
    /// existed before it began, however the host interleaves its tasks.
    pub(crate) fn watermark(&self) -> u64 {
        self.inner.lock().tick
    }

    /// Look up a cached partition: the shared data and its byte size. An
    /// entry written after `as_of` (a [`CacheManager::watermark`]) is not
    /// there yet for this reader.
    pub(crate) fn get<T: Send + Sync + 'static>(
        &self,
        rdd: u64,
        part: usize,
        as_of: u64,
    ) -> Option<(Arc<Vec<T>>, u64)> {
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        let e = g
            .entries
            .get_mut(&(rdd, part))
            .filter(|e| e.written <= as_of)?;
        e.last_use = tick;
        let data = Arc::clone(&e.data)
            .downcast::<Vec<T>>()
            .expect("cached partition type mismatch");
        Some((data, e.bytes))
    }

    /// Store a partition on `node`'s memory budget, dropping LRU entries on
    /// that node as needed. Returns `false` (and stores nothing) if the
    /// partition alone exceeds the node budget.
    pub(crate) fn put<T: Send + Sync + 'static>(
        &self,
        rdd: u64,
        part: usize,
        node: usize,
        data: Arc<Vec<T>>,
        bytes: u64,
    ) -> bool {
        assert!(node < self.nodes, "node out of range");
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;

        // Replacing an existing entry frees its bytes first.
        if let Some(old) = g.entries.remove(&(rdd, part)) {
            g.used[old.node] -= old.bytes;
        }
        if bytes > self.capacity_per_node {
            return false;
        }

        while g.used[node] + bytes > self.capacity_per_node {
            // Drop the least recently used entry on this node (the size
            // guard above means there always is one).
            let victim = g
                .entries
                .iter()
                .filter(|(_, e)| e.node == node)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let e = g.entries.remove(&victim).expect("victim exists");
            g.used[e.node] -= e.bytes;
            g.evictions += 1;
        }

        g.used[node] += bytes;
        let total: u64 = g.used.iter().sum();
        g.peak_bytes = g.peak_bytes.max(total);
        g.entries.insert(
            (rdd, part),
            Entry {
                data,
                bytes,
                node,
                last_use: tick,
                written: tick,
            },
        );
        true
    }

    /// Drop one cached partition (fault injection, a rotten block). Returns
    /// whether it was present.
    pub(crate) fn evict(&self, rdd: u64, part: usize) -> bool {
        let mut g = self.inner.lock();
        let Some(e) = g.entries.remove(&(rdd, part)) else {
            return false;
        };
        g.used[e.node] -= e.bytes;
        true
    }

    /// Drop every partition held on one node — what losing the node's
    /// executor means for the block manager. Returns how many partitions
    /// were lost (each will be recomputed through its lineage on the next
    /// read).
    pub fn evict_node(&self, node: usize) -> usize {
        let mut g = self.inner.lock();
        let keys: Vec<_> = g
            .entries
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            let e = g.entries.remove(k).expect("key just listed");
            g.used[e.node] -= e.bytes;
            g.lost.insert(*k);
        }
        keys.len()
    }

    /// Whether `(rdd, part)` was dropped by a node loss and not yet
    /// recomputed. Clears the mark — the first recomputation after the loss
    /// is the lineage replay; later misses are ordinary cache churn.
    pub(crate) fn take_lost(&self, rdd: u64, part: usize) -> bool {
        self.inner.lock().lost.remove(&(rdd, part))
    }

    /// Drop every cached partition of an RDD (unpersist).
    pub(crate) fn evict_rdd(&self, rdd: u64) -> usize {
        let mut g = self.inner.lock();
        let keys: Vec<_> = g
            .entries
            .keys()
            .filter(|(r, _)| *r == rdd)
            .copied()
            .collect();
        for k in &keys {
            let e = g.entries.remove(k).expect("key just listed");
            g.used[e.node] -= e.bytes;
        }
        // An unpersisted RDD's pending replay marks are moot.
        g.lost.retain(|(r, _)| *r != rdd);
        keys.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock();
        CacheStats {
            evictions: g.evictions,
            entries: g.entries.len(),
            used_bytes: g.used.iter().sum(),
            peak_bytes: g.peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(cap: u64) -> CacheManager {
        CacheManager::with_capacity(2, cap)
    }

    /// Read as of now: everything stored so far is visible.
    fn get<T: Send + Sync + 'static>(
        c: &CacheManager,
        rdd: u64,
        part: usize,
    ) -> Option<(Arc<Vec<T>>, u64)> {
        c.get(rdd, part, c.watermark())
    }

    fn put(c: &CacheManager, rdd: u64, part: usize, node: usize, bytes: u64) -> bool {
        c.put(rdd, part, node, Arc::new(vec![0u8]), bytes)
    }

    #[test]
    fn put_get_roundtrip() {
        let c = mgr(1000);
        assert!(c.put(1, 0, 0, Arc::new(vec![1u32, 2, 3]), 12));
        let (data, bytes) = get::<u32>(&c, 1, 0).expect("hit");
        assert_eq!(*data, vec![1, 2, 3]);
        assert_eq!(bytes, 12);
        assert!(get::<u32>(&c, 1, 1).is_none());
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn a_stage_sees_only_what_was_stored_before_it_began() {
        let c = mgr(1000);
        let stage = c.watermark();
        assert!(put(&c, 1, 0, 0, 12));
        assert!(
            c.get::<u8>(1, 0, stage).is_none(),
            "written during the stage: not there yet for its tasks"
        );
        assert!(put(&c, 1, 0, 0, 12), "a second task's put replaces");
        assert!(c.get::<u8>(1, 0, stage).is_none());
        assert!(
            c.get::<u8>(1, 0, c.watermark()).is_some(),
            "next stage hits"
        );
        let s = c.stats();
        assert_eq!((s.entries, s.used_bytes), (1, 12));
    }

    #[test]
    fn oversized_memory_only_partition_is_rejected() {
        let c = mgr(10);
        assert!(!put(&c, 1, 0, 0, 100));
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_per_node() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 60));
        assert!(put(&c, 1, 1, 0, 30));
        // Touch (1,0) so (1,1) becomes LRU.
        get::<u8>(&c, 1, 0);
        assert!(put(&c, 1, 2, 0, 30));
        assert!(get::<u8>(&c, 1, 1).is_none(), "LRU entry dropped");
        assert!(get::<u8>(&c, 1, 0).is_some(), "recently used survives");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn nodes_have_independent_budgets() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 80));
        assert!(put(&c, 1, 1, 1, 80));
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().used_bytes, 160);
    }

    #[test]
    fn peak_bytes_is_a_high_water_mark() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 40));
        assert!(put(&c, 2, 0, 1, 50));
        assert_eq!(c.stats().peak_bytes, 90);
        c.evict_rdd(1);
        assert_eq!(c.stats().used_bytes, 50);
        // The peak remembers the overlap even after eviction.
        assert_eq!(c.stats().peak_bytes, 90);
        assert!(put(&c, 3, 0, 0, 10));
        assert_eq!(c.stats().peak_bytes, 90);
    }

    #[test]
    fn replacing_entry_frees_old_bytes() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 90));
        assert!(put(&c, 1, 0, 0, 90));
        assert_eq!(c.stats().used_bytes, 90);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn evict_rdd_drops_that_rdd_only() {
        let c = mgr(100);
        for p in 0..3 {
            assert!(put(&c, 7, p, 0, 30));
        }
        assert!(put(&c, 8, 0, 1, 4));
        assert_eq!(c.evict_rdd(7), 3);
        let s = c.stats();
        assert_eq!((s.entries, s.used_bytes), (1, 4));
        assert!(get::<u8>(&c, 8, 0).is_some());
    }

    #[test]
    fn evict_node_drops_that_node_only() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 40));
        assert!(put(&c, 1, 1, 0, 40));
        assert!(put(&c, 2, 0, 1, 10));
        assert_eq!(c.evict_node(0), 2, "both partitions on node 0");
        assert!(get::<u8>(&c, 1, 0).is_none());
        assert!(get::<u8>(&c, 1, 1).is_none());
        assert!(get::<u8>(&c, 2, 0).is_some(), "node 1 untouched");
        let s = c.stats();
        assert_eq!((s.entries, s.used_bytes), (1, 10));
        assert_eq!(c.evict_node(0), 0, "idempotent");
    }

    #[test]
    fn node_loss_marks_partitions_lost_once() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 10));
        assert!(put(&c, 1, 1, 1, 10));
        c.evict_node(0);
        assert!(c.take_lost(1, 0), "dropped by the loss");
        assert!(!c.take_lost(1, 0), "replay attributed once");
        assert!(!c.take_lost(1, 1), "node 1 survived");
        // LRU eviction is ordinary churn, never a replay.
        let c2 = mgr(10);
        assert!(put(&c2, 1, 0, 0, 8));
        assert!(put(&c2, 1, 1, 0, 8)); // evicts (1,0)
        assert!(!c2.take_lost(1, 0));
        // Unpersist clears pending marks.
        let c3 = mgr(100);
        assert!(put(&c3, 2, 0, 0, 10));
        c3.evict_node(0);
        c3.evict_rdd(2);
        assert!(!c3.take_lost(2, 0));
    }

    #[test]
    fn explicit_evict_drops_the_entry() {
        let c = mgr(100);
        assert!(put(&c, 1, 0, 0, 40));
        assert!(put(&c, 1, 1, 0, 40));
        assert!(c.evict(1, 0));
        assert!(!c.evict(1, 0));
        assert!(get::<u32>(&c, 1, 0).is_none());
        assert_eq!(c.stats().used_bytes, 40);
    }
}
