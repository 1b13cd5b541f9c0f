//! The block-manager equivalent: storage for cached RDD partitions.
//!
//! Each cached partition lives on its home node and counts against that
//! node's memory budget. When a node's budget is exceeded the least recently
//! used partition on that node is evicted; what eviction *means* depends on
//! the partition's [`StorageLevel`]:
//!
//! * [`StorageLevel::MemoryOnly`] (Spark's default, and what the paper's
//!   YAFIM uses) — the partition is dropped and a later read recomputes it
//!   through the lineage;
//! * [`StorageLevel::MemoryAndDisk`] — the partition is demoted to the
//!   node-local disk tier; later reads pay a disk scan instead of a
//!   recompute.
//!
//! The cache is also a *pipeline breaker*: a cache insert materializes the
//! partition into an `Arc<Vec<T>>`, and a cache hit hands that shared buffer
//! straight to the reader's fused pipeline without cloning it.
//!
//! This is what makes the "memory utilization" discussion of the paper's
//! §IV.B (and the cache ablation bench) observable.

use std::any::Any;
use std::sync::Arc;
use yafim_cluster::sync::Mutex;
use yafim_cluster::{ClusterSpec, FxHashMap, FxHashSet};

/// How a cached partition behaves under memory pressure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageLevel {
    /// Keep in memory; evict = drop (recompute later). Spark's default.
    #[default]
    MemoryOnly,
    /// Keep in memory; evict = spill to node-local disk.
    MemoryAndDisk,
}

/// Where a cache hit was served from (drives the virtual I/O charge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory hit: charged as a memory scan.
    Memory,
    /// Disk-tier hit: charged as a node-local disk read.
    Disk,
}

/// Statistics over the lifetime of a cache manager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful in-memory lookups.
    pub hits: u64,
    /// Successful disk-tier lookups.
    pub disk_hits: u64,
    /// Lookups that missed entirely (never stored, or dropped).
    pub misses: u64,
    /// Partitions evicted from memory (dropped or spilled).
    pub evictions: u64,
    /// Partitions currently in memory.
    pub entries: usize,
    /// Partitions currently on the disk tier.
    pub disk_entries: usize,
    /// Bytes currently held in memory across all nodes.
    pub used_bytes: u64,
    /// Bytes currently held on the disk tier across all nodes.
    pub disk_bytes: u64,
    /// High-water mark of in-memory bytes across all nodes — what the
    /// cluster actually had to provision for this workload (replaced RDDs
    /// count until unpersisted).
    pub peak_bytes: u64,
}

struct Entry {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    node: usize,
    last_use: u64,
    /// Tick of the `put` that stored it (see [`CacheManager::watermark`]).
    written: u64,
    level: StorageLevel,
}

struct DiskEntry {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    /// Tick of the `put` that first stored it, kept across the spill.
    written: u64,
    /// Node whose local disk holds the spilled partition (node loss drops
    /// the disk tier too).
    node: usize,
}

struct Inner {
    entries: FxHashMap<(u64, usize), Entry>,
    disk: FxHashMap<(u64, usize), DiskEntry>,
    used: Vec<u64>,
    disk_used: u64,
    tick: u64,
    hits: u64,
    disk_hits: u64,
    misses: u64,
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
    /// Cache sized from the cluster spec (a fraction of node memory is
    /// reserved for execution, as in Spark; storage gets the default 60%).
    pub fn new(spec: &ClusterSpec) -> Self {
        Self::with_fraction(spec, yafim_cluster::sched::DEFAULT_STORAGE_FRACTION)
    }

    /// Cache sized as `storage_fraction` of node memory — the scheduler
    /// config's storage/execution split. The 0.6 default reproduces the
    /// historical `* 6 / 10` integer math bit-for-bit (see
    /// [`yafim_cluster::storage_capacity`]).
    pub fn with_fraction(spec: &ClusterSpec, storage_fraction: f64) -> Self {
        Self::with_capacity(
            spec.nodes as usize,
            yafim_cluster::storage_capacity(spec.memory_per_node, storage_fraction),
        )
    }

    /// Explicit per-node capacity (tests and the cache-pressure ablation).
    pub fn with_capacity(nodes: usize, capacity_per_node: u64) -> Self {
        CacheManager {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                disk: FxHashMap::default(),
                used: vec![0; nodes],
                disk_used: 0,
                tick: 0,
                hits: 0,
                disk_hits: 0,
                misses: 0,
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
    pub fn watermark(&self) -> u64 {
        self.inner.lock().tick
    }

    /// Look up a cached partition in memory, then on the disk tier. Returns
    /// the shared data, its byte size, and the tier that served it. An
    /// entry written after `as_of` (a [`CacheManager::watermark`]) is not
    /// there yet for this reader: it counts, and is charged, as a miss.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        rdd: u64,
        part: usize,
        as_of: u64,
    ) -> Option<(Arc<Vec<T>>, u64, CacheTier)> {
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        let in_memory = g.entries.get_mut(&(rdd, part));
        if let Some(e) = in_memory.filter(|e| e.written <= as_of) {
            e.last_use = tick;
            let data = Arc::clone(&e.data)
                .downcast::<Vec<T>>()
                .expect("cached partition type mismatch");
            let bytes = e.bytes;
            g.hits += 1;
            return Some((data, bytes, CacheTier::Memory));
        }
        if let Some(e) = g.disk.get(&(rdd, part)).filter(|e| e.written <= as_of) {
            let data = Arc::clone(&e.data)
                .downcast::<Vec<T>>()
                .expect("cached partition type mismatch");
            let bytes = e.bytes;
            g.disk_hits += 1;
            return Some((data, bytes, CacheTier::Disk));
        }
        g.misses += 1;
        None
    }

    /// Store a partition on `node`'s memory budget at the given level,
    /// evicting LRU entries on that node as needed (drop or spill according
    /// to each victim's own level). Returns `false` (and stores nothing in
    /// memory) if the partition alone exceeds the node budget — except that
    /// a `MemoryAndDisk` partition then goes straight to disk and `true` is
    /// returned.
    pub fn put<T: Send + Sync + 'static>(
        &self,
        rdd: u64,
        part: usize,
        node: usize,
        data: Arc<Vec<T>>,
        bytes: u64,
        level: StorageLevel,
    ) -> bool {
        assert!(node < self.nodes, "node out of range");
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;

        // Replacing an existing entry frees its bytes first.
        if let Some(old) = g.entries.remove(&(rdd, part)) {
            g.used[old.node] -= old.bytes;
        }
        if let Some(old) = g.disk.remove(&(rdd, part)) {
            g.disk_used -= old.bytes;
        }

        if bytes > self.capacity_per_node {
            return match level {
                StorageLevel::MemoryOnly => false,
                StorageLevel::MemoryAndDisk => {
                    g.disk_used += bytes;
                    let written = tick;
                    let spilled = DiskEntry {
                        data,
                        bytes,
                        written,
                        node,
                    };
                    g.disk.insert((rdd, part), spilled);
                    true
                }
            };
        }

        while g.used[node] + bytes > self.capacity_per_node {
            // Evict the least recently used entry on this node.
            let victim = g
                .entries
                .iter()
                .filter(|(_, e)| e.node == node)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let e = g.entries.remove(&k).expect("victim exists");
                    g.used[e.node] -= e.bytes;
                    g.evictions += 1;
                    if e.level == StorageLevel::MemoryAndDisk {
                        g.disk_used += e.bytes;
                        g.disk.insert(
                            k,
                            DiskEntry {
                                data: e.data,
                                bytes: e.bytes,
                                written: e.written,
                                node: e.node,
                            },
                        );
                    }
                }
                None => break, // nothing left to evict; shouldn't happen given the size guard
            }
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
                level,
            },
        );
        true
    }

    /// Drop one cached partition from every tier (fault injection /
    /// unpersist). Returns whether it was present anywhere.
    pub fn evict(&self, rdd: u64, part: usize) -> bool {
        let mut g = self.inner.lock();
        let mut found = false;
        if let Some(e) = g.entries.remove(&(rdd, part)) {
            g.used[e.node] -= e.bytes;
            found = true;
        }
        if let Some(e) = g.disk.remove(&(rdd, part)) {
            g.disk_used -= e.bytes;
            found = true;
        }
        found
    }

    /// Drop every partition held on one node, both tiers — what losing the
    /// node's executor and its local disk means for the block manager.
    /// Returns how many partitions were lost (each will be recomputed
    /// through its lineage on the next read).
    pub fn evict_node(&self, node: usize) -> usize {
        let mut g = self.inner.lock();
        let mem_keys: Vec<_> = g
            .entries
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(k, _)| *k)
            .collect();
        for k in &mem_keys {
            let e = g.entries.remove(k).expect("key just listed");
            g.used[e.node] -= e.bytes;
        }
        let disk_keys: Vec<_> = g
            .disk
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(k, _)| *k)
            .collect();
        for k in &disk_keys {
            let e = g.disk.remove(k).expect("key just listed");
            g.disk_used -= e.bytes;
        }
        for k in mem_keys.iter().chain(&disk_keys) {
            g.lost.insert(*k);
        }
        mem_keys.len() + disk_keys.len()
    }

    /// Whether `(rdd, part)` was dropped by a node loss and not yet
    /// recomputed. Clears the mark — the first recomputation after the loss
    /// is the lineage replay; later misses are ordinary cache churn.
    pub fn take_lost(&self, rdd: u64, part: usize) -> bool {
        self.inner.lock().lost.remove(&(rdd, part))
    }

    /// Drop every cached partition of an RDD, both tiers (unpersist).
    pub fn evict_rdd(&self, rdd: u64) -> usize {
        let mut g = self.inner.lock();
        let mem_keys: Vec<_> = g
            .entries
            .keys()
            .filter(|(r, _)| *r == rdd)
            .copied()
            .collect();
        for k in &mem_keys {
            let e = g.entries.remove(k).expect("key just listed");
            g.used[e.node] -= e.bytes;
        }
        let disk_keys: Vec<_> = g.disk.keys().filter(|(r, _)| *r == rdd).copied().collect();
        for k in &disk_keys {
            let e = g.disk.remove(k).expect("key just listed");
            g.disk_used -= e.bytes;
        }
        // An unpersisted RDD's pending replay marks are moot.
        g.lost.retain(|(r, _)| *r != rdd);
        mem_keys.len() + disk_keys.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock();
        CacheStats {
            hits: g.hits,
            disk_hits: g.disk_hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.entries.len(),
            disk_entries: g.disk.len(),
            used_bytes: g.used.iter().sum(),
            disk_bytes: g.disk_used,
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
    ) -> Option<(Arc<Vec<T>>, u64, CacheTier)> {
        c.get(rdd, part, c.watermark())
    }

    fn mem_put(c: &CacheManager, rdd: u64, part: usize, node: usize, bytes: u64) -> bool {
        c.put(
            rdd,
            part,
            node,
            Arc::new(vec![0u8]),
            bytes,
            StorageLevel::MemoryOnly,
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let c = mgr(1000);
        assert!(c.put(
            1,
            0,
            0,
            Arc::new(vec![1u32, 2, 3]),
            12,
            StorageLevel::MemoryOnly
        ));
        let (data, bytes, tier) = get::<u32>(&c, 1, 0).expect("hit");
        assert_eq!(*data, vec![1, 2, 3]);
        assert_eq!(bytes, 12);
        assert_eq!(tier, CacheTier::Memory);
        assert!(get::<u32>(&c, 1, 1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn a_stage_sees_only_what_was_stored_before_it_began() {
        let c = mgr(1000);
        let stage = c.watermark();
        assert!(mem_put(&c, 1, 0, 0, 12));
        assert!(
            c.get::<u8>(1, 0, stage).is_none(),
            "written during the stage: not there yet for its tasks"
        );
        assert!(mem_put(&c, 1, 0, 0, 12), "a second task's put replaces");
        assert!(c.get::<u8>(1, 0, stage).is_none());
        assert!(
            c.get::<u8>(1, 0, c.watermark()).is_some(),
            "next stage hits"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.used_bytes), (1, 2, 1, 12));
    }

    #[test]
    fn oversized_memory_only_partition_is_rejected() {
        let c = mgr(10);
        assert!(!mem_put(&c, 1, 0, 0, 100));
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn oversized_memory_and_disk_partition_goes_to_disk() {
        let c = mgr(10);
        assert!(c.put(
            1,
            0,
            0,
            Arc::new(vec![7u8]),
            100,
            StorageLevel::MemoryAndDisk
        ));
        let (_, _, tier) = get::<u8>(&c, 1, 0).expect("disk hit");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(c.stats().disk_entries, 1);
        assert_eq!(c.stats().disk_bytes, 100);
    }

    #[test]
    fn lru_eviction_per_node() {
        let c = mgr(100);
        assert!(mem_put(&c, 1, 0, 0, 60));
        assert!(mem_put(&c, 1, 1, 0, 30));
        // Touch (1,0) so (1,1) becomes LRU.
        get::<u8>(&c, 1, 0);
        assert!(mem_put(&c, 1, 2, 0, 30));
        assert!(
            get::<u8>(&c, 1, 1).is_none(),
            "LRU MemoryOnly entry dropped"
        );
        assert!(get::<u8>(&c, 1, 0).is_some(), "recently used survives");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn memory_and_disk_spills_instead_of_dropping() {
        let c = mgr(100);
        assert!(c.put(
            1,
            0,
            0,
            Arc::new(vec![1u8]),
            60,
            StorageLevel::MemoryAndDisk
        ));
        assert!(c.put(
            1,
            1,
            0,
            Arc::new(vec![2u8]),
            60,
            StorageLevel::MemoryAndDisk
        ));
        // (1,0) was evicted to disk.
        let (_, _, tier0) = get::<u8>(&c, 1, 0).expect("spilled, not lost");
        assert_eq!(tier0, CacheTier::Disk);
        let (_, _, tier1) = get::<u8>(&c, 1, 1).expect("resident");
        assert_eq!(tier1, CacheTier::Memory);
        let s = c.stats();
        assert_eq!((s.entries, s.disk_entries, s.evictions), (1, 1, 1));
    }

    #[test]
    fn nodes_have_independent_budgets() {
        let c = mgr(100);
        assert!(mem_put(&c, 1, 0, 0, 80));
        assert!(mem_put(&c, 1, 1, 1, 80));
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().used_bytes, 160);
    }

    #[test]
    fn peak_bytes_is_a_high_water_mark() {
        let c = mgr(100);
        assert!(mem_put(&c, 1, 0, 0, 40));
        assert!(mem_put(&c, 2, 0, 1, 50));
        assert_eq!(c.stats().peak_bytes, 90);
        c.evict_rdd(1);
        assert_eq!(c.stats().used_bytes, 50);
        // The peak remembers the overlap even after eviction.
        assert_eq!(c.stats().peak_bytes, 90);
        assert!(mem_put(&c, 3, 0, 0, 10));
        assert_eq!(c.stats().peak_bytes, 90);
    }

    #[test]
    fn replacing_entry_frees_old_bytes() {
        let c = mgr(100);
        assert!(mem_put(&c, 1, 0, 0, 90));
        assert!(mem_put(&c, 1, 0, 0, 90));
        assert_eq!(c.stats().used_bytes, 90);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn evict_rdd_clears_both_tiers() {
        let c = mgr(100);
        for p in 0..3 {
            c.put(
                7,
                p,
                0,
                Arc::new(vec![p as u32]),
                60,
                StorageLevel::MemoryAndDisk,
            );
        }
        mem_put(&c, 8, 0, 1, 4);
        assert_eq!(c.evict_rdd(7), 3, "one resident + two spilled");
        let s = c.stats();
        assert_eq!((s.entries, s.disk_entries), (1, 0));
        assert!(get::<u8>(&c, 8, 0).is_some());
    }

    #[test]
    fn evict_node_drops_both_tiers_on_that_node_only() {
        let c = mgr(100);
        // Node 0: one resident, one spilled (second put evicts the first to
        // disk, both on node 0). Node 1: untouched resident.
        c.put(
            1,
            0,
            0,
            Arc::new(vec![1u32]),
            60,
            StorageLevel::MemoryAndDisk,
        );
        c.put(
            1,
            1,
            0,
            Arc::new(vec![2u32]),
            60,
            StorageLevel::MemoryAndDisk,
        );
        assert!(mem_put(&c, 2, 0, 1, 10));
        assert_eq!(c.evict_node(0), 2, "resident + spilled on node 0");
        assert!(get::<u32>(&c, 1, 0).is_none());
        assert!(get::<u32>(&c, 1, 1).is_none());
        assert!(get::<u8>(&c, 2, 0).is_some(), "node 1 untouched");
        let s = c.stats();
        assert_eq!((s.entries, s.disk_entries, s.disk_bytes), (1, 0, 0));
        assert_eq!(c.evict_node(0), 0, "idempotent");
    }

    #[test]
    fn node_loss_marks_partitions_lost_once() {
        let c = mgr(100);
        assert!(mem_put(&c, 1, 0, 0, 10));
        assert!(mem_put(&c, 1, 1, 1, 10));
        c.evict_node(0);
        assert!(c.take_lost(1, 0), "dropped by the loss");
        assert!(!c.take_lost(1, 0), "replay attributed once");
        assert!(!c.take_lost(1, 1), "node 1 survived");
        // LRU eviction is ordinary churn, never a replay.
        let c2 = mgr(10);
        assert!(mem_put(&c2, 1, 0, 0, 8));
        assert!(mem_put(&c2, 1, 1, 0, 8)); // evicts (1,0)
        assert!(!c2.take_lost(1, 0));
        // Unpersist clears pending marks.
        let c3 = mgr(100);
        assert!(mem_put(&c3, 2, 0, 0, 10));
        c3.evict_node(0);
        c3.evict_rdd(2);
        assert!(!c3.take_lost(2, 0));
    }

    #[test]
    fn explicit_evict_clears_both_tiers() {
        let c = mgr(100);
        c.put(
            1,
            0,
            0,
            Arc::new(vec![1u32]),
            60,
            StorageLevel::MemoryAndDisk,
        );
        c.put(
            1,
            1,
            0,
            Arc::new(vec![2u32]),
            60,
            StorageLevel::MemoryAndDisk,
        );
        assert!(c.evict(1, 0), "spilled entry evictable");
        assert!(!c.evict(1, 0));
        assert!(get::<u32>(&c, 1, 0).is_none());
        assert_eq!(c.stats().disk_bytes, 0);
    }
}
