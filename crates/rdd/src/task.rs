//! Per-task execution context.

use std::cell::Cell;
use yafim_cluster::{MemGrant, MemoryBudget, NodeId, OomAbort, TaskMemory, TaskProfile};

/// Handed to every task closure. Carries the task's identity and the work
//  counters that drive virtual-time accounting, plus attribution counters
//  (shuffle/broadcast bytes, cache behaviour, pipeline records) for the
//  observability layer.
///
/// Counters live behind a [`Cell`] so a fused iterator pipeline — whose
/// adapters each borrow the context for the whole stage — can keep charging
/// work through a shared `&TaskContext` while elements stream through.
pub struct TaskContext {
    /// Partition index this task computes.
    pub partition: usize,
    /// Virtual node the task runs on (locality decision made by the driver).
    pub node: NodeId,
    profile: Cell<TaskProfile>,
    /// The cache's [`crate::cache::CacheManager::watermark`] when this task's
    /// stage began: the task reads the cache as of then.
    pub(crate) cache_as_of: u64,
    /// Execution-memory ledger (inert unless the fault plan arms the
    /// governor).
    memory: TaskMemory,
}

impl TaskContext {
    /// New context carrying the stage's execution-memory budget (`None`
    /// keeps the governor inert) and cache watermark. `stage_key` seeds the
    /// OOM rolls so one plan always denies the same acquisitions of the
    /// same stage.
    pub(crate) fn with_memory(
        partition: usize,
        node: NodeId,
        budget: Option<MemoryBudget>,
        stage_key: u64,
        cache_as_of: u64,
    ) -> Self {
        TaskContext {
            partition,
            node,
            cache_as_of,
            profile: Cell::new(TaskProfile::new()),
            memory: TaskMemory::new(budget, stage_key, partition),
        }
    }

    /// Reserve `bytes` of execution memory for the structure tagged `site`
    /// (see [`yafim_cluster::memgov::site`]). Applies the governor's
    /// deterministic effects — counters, pressure stalls, spill disk I/O —
    /// to this task's profile and returns the grant decision. A free
    /// [`MemGrant::Granted`] no-op when the governor is unarmed.
    pub fn try_reserve(&self, bytes: u64, site: u64, degradable: bool) -> MemGrant {
        if !self.memory.armed() {
            return MemGrant::Granted;
        }
        let (grant, fx) = self.memory.try_reserve(bytes, site, degradable);
        self.update(|p| fx.charge(p));
        grant
    }

    /// Whether some reservation exhausted its OOM retry ladder: the stage
    /// must abort with a typed out-of-memory error.
    pub(crate) fn oom_abort(&self) -> Option<OomAbort> {
        self.memory.abort()
    }

    fn update(&self, f: impl FnOnce(&mut TaskProfile)) {
        let mut p = self.profile.get();
        f(&mut p);
        self.profile.set(p);
    }

    /// Record `n` records flowing into an operator.
    pub fn add_records_in(&self, n: u64) {
        self.update(|p| p.work.add_records_in(n));
    }

    /// Record `n` records produced by an operator.
    pub fn add_records_out(&self, n: u64) {
        self.update(|p| p.work.add_records_out(n));
    }

    /// Record extra CPU work units (hash-tree visits, comparisons…).
    pub fn add_cpu(&self, units: u64) {
        self.update(|p| p.work.add_cpu(units));
    }

    /// Record a node-local disk read.
    pub(crate) fn add_disk_read(&self, bytes: u64) {
        self.update(|p| p.work.add_disk_read(bytes));
    }

    /// Record a node-local disk write.
    pub(crate) fn add_disk_write(&self, bytes: u64) {
        self.update(|p| p.work.add_disk_write(bytes));
    }

    /// Record a scan of cached in-memory data.
    pub fn add_mem_read(&self, bytes: u64) {
        self.update(|p| p.work.add_mem_read(bytes));
    }

    /// Record a network fetch.
    pub(crate) fn add_net(&self, bytes: u64) {
        self.update(|p| p.work.add_net(bytes));
    }

    /// Record bytes crossing a serialization boundary.
    pub(crate) fn add_ser(&self, bytes: u64) {
        self.update(|p| p.work.add_ser(bytes));
    }

    /// Add a whole set of work counters (what a fault-checked read cost).
    pub(crate) fn add_work(&self, work: &yafim_cluster::WorkCounters) {
        self.update(|p| p.work.merge(work));
    }

    /// Record virtual time the task spent stalled waiting (transient-fetch
    /// retry backoff), in integer microseconds.
    pub(crate) fn add_stall_micros(&self, micros: u64) {
        self.update(|p| p.work.add_stall_micros(micros));
    }

    /// Attribute bytes already charged to the physical counters as a
    /// shuffle fetch (local + remote).
    pub(crate) fn note_shuffle_read(&self, bytes: u64) {
        self.update(|p| p.shuffle_read_bytes += bytes);
    }

    /// Attribute bytes already charged to the physical counters as a
    /// map-side shuffle-file write.
    pub(crate) fn note_shuffle_write(&self, bytes: u64) {
        self.update(|p| p.shuffle_write_bytes += bytes);
    }

    /// Attribute bytes already charged to the physical counters as a read
    /// of a broadcast variable.
    pub fn note_broadcast_read(&self, bytes: u64) {
        self.update(|p| p.broadcast_read_bytes += bytes);
    }

    /// Count a partition read served from the cache (any tier).
    pub(crate) fn note_cache_hit(&self) {
        self.update(|p| p.cache_hits += 1);
    }

    /// Count a partition read that missed the cache and recomputed.
    pub(crate) fn note_cache_miss(&self) {
        self.update(|p| p.cache_misses += 1);
    }

    /// Attribute `n` records entering the pipeline from a stable input
    /// (source partition, cache hit, shuffle fetch). Time-neutral.
    pub(crate) fn note_records_read(&self, n: u64) {
        self.update(|p| p.records_read += n);
    }

    /// Attribute `n` records leaving the pipeline through a breaker
    /// (shuffle write, cache insert, driver fetch). Time-neutral.
    pub(crate) fn note_records_written(&self, n: u64) {
        self.update(|p| p.records_written += n);
    }

    /// Attribute `bytes` buffered into a `Vec` at a pipeline breaker (or,
    /// in the eager reference evaluator, at every operator). Time-neutral:
    /// the physical cost of moving those bytes is charged separately.
    pub(crate) fn note_materialized(&self, bytes: u64) {
        self.update(|p| p.bytes_materialized += bytes);
    }

    /// Consume the context, yielding the full profile.
    pub(crate) fn into_profile(self) -> TaskProfile {
        self.profile.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_cluster::WorkCounters;

    /// A context without an armed memory governor, reading an empty cache.
    fn unarmed(partition: usize, node: NodeId) -> TaskContext {
        TaskContext::with_memory(partition, node, None, 0, 0)
    }

    #[test]
    fn counters_accumulate() {
        let tc = unarmed(3, NodeId(1));
        tc.add_records_in(2);
        tc.add_cpu(10);
        tc.add_mem_read(100);
        assert_eq!(tc.partition, 3);
        let work = tc.into_profile().work;
        assert_eq!(work.records_in, 2);
        assert_eq!(work.cpu_units, 12);
        assert_eq!(work.mem_read_bytes, 100);
    }

    #[test]
    fn attribution_never_touches_physical_counters() {
        let tc = unarmed(0, NodeId(0));
        tc.note_shuffle_read(100);
        tc.note_shuffle_write(200);
        tc.note_broadcast_read(300);
        tc.note_cache_hit();
        tc.note_cache_miss();
        tc.note_records_read(5);
        tc.note_records_written(4);
        tc.note_materialized(64);
        let p = tc.into_profile();
        assert_eq!(p.shuffle_read_bytes, 100);
        assert_eq!(p.shuffle_write_bytes, 200);
        assert_eq!(p.broadcast_read_bytes, 300);
        assert_eq!(p.cache_hits, 1);
        assert_eq!(p.cache_misses, 1);
        assert_eq!(p.records_read, 5);
        assert_eq!(p.records_written, 4);
        assert_eq!(p.bytes_materialized, 64);
        assert_eq!(p.work, WorkCounters::new(), "attribution is time-neutral");
    }

    #[test]
    fn unarmed_context_reserves_for_free() {
        let tc = unarmed(0, NodeId(0));
        assert_eq!(
            tc.try_reserve(u64::MAX, yafim_cluster::memgov::site::TRIANGLE, false),
            MemGrant::Granted
        );
        assert!(tc.oom_abort().is_none());
        let p = tc.into_profile();
        assert_eq!(p, TaskProfile::new(), "inert governor leaves no trace");
    }

    #[test]
    fn armed_context_applies_governor_effects_to_the_profile() {
        use yafim_cluster::{ClusterSpec, CostModel, FaultPlan};
        let plan = FaultPlan::seeded(0).with_mem_budget(1000);
        let budget = MemoryBudget::from_plan(
            &ClusterSpec::new(1, 1, yafim_cluster::spec::GIB),
            0.6,
            &CostModel::default(),
            &plan,
        );
        let tc = TaskContext::with_memory(0, NodeId(0), budget, 1, 0);
        // Fits the 400-byte execution slice: peak tracked, nothing else.
        assert_eq!(
            tc.try_reserve(100, yafim_cluster::memgov::site::TRIANGLE, false),
            MemGrant::Granted
        );
        // A 5000-byte combine buffer cannot fit: spills through disk.
        assert_eq!(
            tc.try_reserve(5000, yafim_cluster::memgov::site::SHUFFLE_COMBINE, true),
            MemGrant::Spill
        );
        let p = tc.into_profile();
        assert_eq!(p.mem.peak_execution_bytes, 100);
        assert_eq!(p.mem.spills, 1);
        assert_eq!(p.mem.spill_bytes, 5000);
        assert_eq!(p.work.disk_write_bytes, 5000, "spill round trip charged");
        assert_eq!(p.work.disk_read_bytes, 5000);
    }

    #[test]
    fn shared_reference_charges_through_cell() {
        // A fused pipeline holds one `&TaskContext` in several adapters at
        // once; charging through any of them must be visible to all.
        let tc = unarmed(0, NodeId(0));
        let a: &TaskContext = &tc;
        let b: &TaskContext = &tc;
        a.add_records_in(1);
        b.add_records_out(2);
        let work = tc.into_profile().work;
        assert_eq!(work.records_in, 1);
        assert_eq!(work.records_out, 2);
        assert_eq!(work.cpu_units, 3);
    }
}
