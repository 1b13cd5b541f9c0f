//! Per-task work counters.
//!
//! Tasks running on either engine record *what they did* — records in/out,
//! abstract CPU units, bytes touched per medium — into a [`WorkCounters`].
//! The counters are exact functions of the input data, which is what makes
//! the virtual timing deterministic.

use crate::costmodel::CostModel;
use crate::fault::counter_table;
use crate::time::SimDuration;

counter_table! {
    /// Everything a task did, in engine-neutral units.
    pub struct WorkCounters {
        /// Records consumed from the task's input iterator.
        records_in: sum,
        /// Records produced by the task.
        records_out: sum,
        /// Abstract CPU work units beyond per-record bookkeeping
        /// (hash-tree node visits, candidate comparisons, sort comparisons…).
        cpu_units: sum,
        /// Bytes read from node-local disk (HDFS-local block reads, spill reads).
        disk_read_bytes: sum,
        /// Bytes written to node-local disk (spills).
        disk_write_bytes: sum,
        /// Bytes scanned from the in-memory cache.
        mem_read_bytes: sum,
        /// Bytes fetched over the network (remote blocks, shuffle fetches).
        net_bytes: sum,
        /// Bytes passed through a serialization boundary.
        ser_bytes: sum,
        /// Microseconds the task spent stalled waiting (transient-fetch retry
        /// backoff). Kept in integer microseconds so the counters stay `Eq`.
        stall_micros: sum,
    }
}

impl WorkCounters {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` input records. Each input record costs one CPU unit of
    /// per-record bookkeeping on top of whatever the operator adds.
    pub fn add_records_in(&mut self, n: u64) {
        self.records_in += n;
        self.cpu_units += n;
    }

    /// Record `n` output records (one CPU unit each).
    pub fn add_records_out(&mut self, n: u64) {
        self.records_out += n;
        self.cpu_units += n;
    }

    /// Record extra CPU work (data-structure traversal, comparisons…).
    pub fn add_cpu(&mut self, units: u64) {
        self.cpu_units += units;
    }

    /// Record a node-local disk read.
    pub fn add_disk_read(&mut self, bytes: u64) {
        self.disk_read_bytes += bytes;
    }

    /// Record a node-local disk write.
    pub fn add_disk_write(&mut self, bytes: u64) {
        self.disk_write_bytes += bytes;
    }

    /// Record a cached-memory scan.
    pub fn add_mem_read(&mut self, bytes: u64) {
        self.mem_read_bytes += bytes;
    }

    /// Record a network fetch.
    pub fn add_net(&mut self, bytes: u64) {
        self.net_bytes += bytes;
    }

    /// Record bytes crossing a serialization boundary.
    pub fn add_ser(&mut self, bytes: u64) {
        self.ser_bytes += bytes;
    }

    /// Record time the task spent stalled (retry backoff), in microseconds
    /// of virtual time.
    pub fn add_stall_micros(&mut self, micros: u64) {
        self.stall_micros += micros;
    }

    /// Convert the counters into a virtual duration under `model`, *excluding*
    /// framework per-task overheads (the engine adds those, because they
    /// differ between MapReduce and Spark). Stall time (retry backoff) is
    /// model-independent wall waiting and is added as-is.
    pub fn data_time(&self, model: &CostModel) -> SimDuration {
        model.cpu(self.cpu_units)
            + model.disk_read(self.disk_read_bytes)
            + model.disk_write(self.disk_write_bytes)
            + model.mem_scan(self.mem_read_bytes)
            + model.net_transfer(self.net_bytes)
            + model.serialize(self.ser_bytes)
            + SimDuration::from_secs(self.stall_micros as f64 / 1e6)
    }
}

counter_table! {
    /// Full per-task profile: physical work plus the engine-level attribution
    /// the observability layer reports (shuffle/broadcast bytes, cache
    /// behaviour). The physical side of every attributed byte is *also* charged
    /// to [`WorkCounters`] — the attribution fields say *why* the bytes moved,
    /// not *that* they moved, so merging a profile never double-counts time.
    pub struct TaskProfile {
        /// Bytes fetched from shuffle map outputs (local + remote).
        shuffle_read_bytes: sum "counter.shuffle.read_bytes",
        /// Bytes written to shuffle files on the map side.
        shuffle_write_bytes: sum "counter.shuffle.write_bytes",
        /// Bytes of broadcast variables read by the task.
        broadcast_read_bytes: sum "counter.broadcast.read_bytes",
        /// Partition reads served from the cache (any tier).
        cache_hits: sum "counter.cache.hits",
        /// Partition reads that missed the cache and recomputed.
        cache_misses: sum "counter.cache.misses",
        /// Records entering the task's pipeline from a stable input: a source
        /// partition, a cache hit, or a shuffle fetch.
        records_read: sum "counter.executor.records_read",
        /// Records leaving the task through a pipeline breaker: a shuffle
        /// map-side write, a cache insert, or a driver fetch.
        records_written: sum "counter.executor.records_written",
        /// Bytes the task buffered into `Vec`s at pipeline breakers. Fused
        /// stages only materialize at breakers; the eager reference evaluator
        /// materializes at every operator, so this counter is the direct
        /// measure of what fusion saves.
        bytes_materialized: sum "counter.executor.bytes_materialized",
    }
    nested {
        /// Physical work counters (drive virtual time).
        work: WorkCounters,
        /// Execution-memory governor outcomes for this task (peak bytes held,
        /// spills, OOM events). All-zero unless the fault plan arms the
        /// governor.
        mem: crate::fault::MemoryCounters,
    }
}

impl TaskProfile {
    /// A fresh, all-zero profile.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_merge_adds_attribution() {
        let mut a = TaskProfile::new();
        a.work.add_records_in(2);
        a.shuffle_read_bytes = 10;
        a.cache_hits = 1;
        let mut b = TaskProfile::new();
        b.work.add_records_in(3);
        b.shuffle_write_bytes = 20;
        b.cache_misses = 2;
        b.records_read = 7;
        b.records_written = 4;
        b.bytes_materialized = 64;
        a.mem.peak_execution_bytes = 500;
        a.mem.spills = 1;
        b.mem.peak_execution_bytes = 300;
        b.mem.spills = 2;
        a.merge(&b);
        assert_eq!(a.work.records_in, 5);
        assert_eq!(a.mem.peak_execution_bytes, 500, "peak merges with max");
        assert_eq!(a.mem.spills, 3);
        assert_eq!(a.shuffle_read_bytes, 10);
        assert_eq!(a.shuffle_write_bytes, 20);
        assert_eq!(a.cache_hits, 1);
        assert_eq!(a.cache_misses, 2);
        assert_eq!(a.records_read, 7);
        assert_eq!(a.records_written, 4);
        assert_eq!(a.bytes_materialized, 64);
    }

    #[test]
    fn records_also_cost_cpu() {
        let mut w = WorkCounters::new();
        w.add_records_in(10);
        w.add_records_out(5);
        assert_eq!(w.records_in, 10);
        assert_eq!(w.records_out, 5);
        assert_eq!(w.cpu_units, 15);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = WorkCounters::new();
        a.add_records_in(3);
        a.add_disk_read(100);
        let mut b = WorkCounters::new();
        b.add_records_in(4);
        b.add_net(50);
        a.merge(&b);
        assert_eq!(a.records_in, 7);
        assert_eq!(a.disk_read_bytes, 100);
        assert_eq!(a.net_bytes, 50);
    }

    #[test]
    fn data_time_is_sum_of_components() {
        let m = CostModel::zero_overhead();
        let mut w = WorkCounters::new();
        w.add_cpu(10_000_000); // 1s at 100ns/unit
        w.add_disk_read(100_000_000); // 1s at 100 MB/s
        let t = w.data_time(&m);
        assert!((t.as_secs() - 2.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn zero_counters_cost_nothing() {
        let m = CostModel::hadoop_era();
        assert_eq!(WorkCounters::new().data_time(&m), SimDuration::ZERO);
    }
}
