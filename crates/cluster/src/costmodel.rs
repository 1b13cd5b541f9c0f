//! The calibrated cost model: every conversion from *work* (records, bytes,
//! hash-tree visits) into *virtual time* lives here.
//!
//! This is the single file to edit when calibrating experiment shapes against
//! the paper (see `EXPERIMENTS.md`). The defaults, [`CostModel::hadoop_era`],
//! describe commodity hardware and framework overheads of the 2013/2014 era
//! the paper measured on:
//!
//! * spinning disks around 100 MB/s sequential,
//! * 1 GbE interconnect (~117 MiB/s),
//! * Hadoop 1.x jobs paying tens of seconds of fixed setup (JobTracker
//!   scheduling, JVM spawning per task, heartbeat-based slot assignment),
//! * Spark 0.7 stages paying tens of *milliseconds* of fixed setup.
//!
//! That asymmetry — per-iteration fixed cost plus mandatory HDFS round trips
//! for MapReduce versus in-memory reuse for Spark — is precisely the effect
//! YAFIM's evaluation measures, so it must be modelled explicitly rather than
//! emerge from host hardware.

use crate::time::SimDuration;

/// All virtual-time constants.
///
/// Engines never hard-code a cost: they count work and call the conversion
/// helpers on this struct.
#[derive(Clone, Debug)]
pub struct CostModel {
    // ---- hardware ----
    /// Sequential disk read bandwidth per node, bytes/s.
    pub disk_read_bw: f64,
    /// Sequential disk write bandwidth per node, bytes/s.
    pub disk_write_bw: f64,
    /// Network bandwidth per node link, bytes/s.
    pub net_bw: f64,
    /// Per-transfer network latency (connection setup etc.).
    pub net_latency: f64,
    /// Memory scan bandwidth per core, bytes/s (reading cached partitions).
    pub mem_scan_bw: f64,
    /// Seconds per abstract CPU work unit (one record touch, one hash-tree
    /// node visit, one candidate comparison). JVM-era constant; identical for
    /// both engines — the frameworks differ in overheads, not in per-record
    /// compute.
    pub cpu_unit: f64,
    /// Serialization/deserialization throughput, bytes/s (applies at shuffle
    /// and broadcast boundaries on both engines).
    pub ser_bw: f64,
    /// Block-checksum throughput, bytes/s (fx-hash64 over serialized bytes;
    /// charged at every checksummed write and every verified read when a
    /// corruption plan is active).
    pub checksum_bw: f64,

    // ---- MapReduce (Hadoop 1.x) framework ----
    /// Fixed per-job overhead: submission, JobTracker setup, output commit.
    pub mr_job_overhead: f64,
    /// Per-task overhead: JVM launch + task setup.
    pub mr_task_overhead: f64,
    /// Scheduling latency per task wave (heartbeat-based slot assignment).
    pub mr_wave_latency: f64,
    /// HDFS replication factor for committed output (pipeline writes).
    pub hdfs_replication: u32,
    /// Multiplier on map-output bytes for local spill traffic
    /// (write + merge read; 2.0 = one spill pass).
    pub mr_spill_factor: f64,

    // ---- Spark (0.7-era) framework ----
    /// Fixed per-job (action) overhead at the driver.
    pub spark_job_overhead: f64,
    /// Per-stage overhead: DAG scheduling + task-set dispatch.
    pub spark_stage_overhead: f64,
    /// Per-task overhead: deserialize closure, launch in existing executor.
    pub spark_task_overhead: f64,
}

impl CostModel {
    /// Constants calibrated to the paper's 2014 testbed (see module docs).
    pub fn hadoop_era() -> Self {
        CostModel {
            disk_read_bw: 100.0e6,
            disk_write_bw: 80.0e6,
            net_bw: 117.0e6,
            net_latency: 1.0e-3,
            mem_scan_bw: 4.0e9,
            cpu_unit: 100.0e-9,
            ser_bw: 400.0e6,
            checksum_bw: 8.0e9,
            mr_job_overhead: 20.0,
            mr_task_overhead: 1.5,
            mr_wave_latency: 4.0,
            hdfs_replication: 3,
            mr_spill_factor: 2.0,
            spark_job_overhead: 0.4,
            spark_stage_overhead: 0.5,
            spark_task_overhead: 0.02,
        }
    }

    /// A cost model with all fixed overheads zeroed — useful in unit tests
    /// that want to reason about pure data-dependent costs.
    pub fn zero_overhead() -> Self {
        CostModel {
            mr_job_overhead: 0.0,
            mr_task_overhead: 0.0,
            mr_wave_latency: 0.0,
            spark_job_overhead: 0.0,
            spark_stage_overhead: 0.0,
            spark_task_overhead: 0.0,
            net_latency: 0.0,
            ..Self::hadoop_era()
        }
    }

    // ---- conversion helpers ----

    /// Time to read `bytes` sequentially from a node-local disk.
    pub fn disk_read(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.disk_read_bw)
    }

    /// Time to write `bytes` sequentially to a node-local disk.
    pub(crate) fn disk_write(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.disk_write_bw)
    }

    /// Time to move `bytes` across one network link.
    pub fn net_transfer(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs(self.net_latency + bytes as f64 / self.net_bw)
    }

    /// Time to scan `bytes` from the in-memory cache on one core.
    pub(crate) fn mem_scan(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.mem_scan_bw)
    }

    /// Time for `units` abstract CPU work units on one core.
    pub fn cpu(&self, units: u64) -> SimDuration {
        SimDuration::from_secs(units as f64 * self.cpu_unit)
    }

    /// Time to (de)serialize `bytes` on one core.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.ser_bw)
    }

    /// Time to fx-hash64-checksum `bytes` on one core (block write
    /// checksumming and read-time verification).
    pub fn checksum(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.checksum_bw)
    }

    /// Time to commit `bytes` to HDFS with pipeline replication: one local
    /// disk write plus `replication - 1` network hops plus the remote disk
    /// writes, pipelined (bounded by the slowest stage of the pipeline).
    pub fn hdfs_write(&self, bytes: u64) -> SimDuration {
        let disk = self.disk_write(bytes);
        let net = self.net_transfer(bytes) * (self.hdfs_replication.saturating_sub(1)) as f64;
        disk.max(net) + self.disk_write(bytes) // pipeline bound + final replica write
    }

    /// Time to build a vertical TID-bitmap arena: write `words` `u64`s of
    /// zeroed bitset rows (memory bandwidth) plus one cheap CPU touch per
    /// bit set (`set_bits` = item occurrences in the partition). The
    /// per-task charge of the columnar Phase-II projection.
    pub fn bitmap_build(&self, words: u64, set_bits: u64) -> SimDuration {
        self.mem_scan(words * 8) + self.cpu(set_bits)
    }

    /// Time for a BitTorrent-style broadcast of `bytes` to `nodes` nodes
    /// (Spark's broadcast variables): the data is chunked and re-shared, so
    /// total time grows logarithmically in the node count.
    pub fn broadcast_torrent(&self, bytes: u64, nodes: u32) -> SimDuration {
        if nodes == 0 || bytes == 0 {
            return SimDuration::ZERO;
        }
        let rounds = (nodes as f64).log2().ceil().max(1.0);
        self.serialize(bytes) + self.net_transfer(bytes) * rounds
    }

    /// Time for the naive alternative the paper calls out in §IV.C: the
    /// driver ships the shared data with *every task*, serialized through the
    /// master's single uplink, which becomes the bottleneck.
    pub fn broadcast_naive(&self, bytes: u64, tasks: usize) -> SimDuration {
        self.serialize(bytes) + self.net_transfer(bytes) * tasks as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::hadoop_era()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let m = CostModel::hadoop_era();
        assert!((m.disk_read(100_000_000).as_secs() - 1.0).abs() < 1e-9);
        assert!((m.cpu(10_000_000).as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(m.net_transfer(0), SimDuration::ZERO);
    }

    #[test]
    fn hdfs_write_more_expensive_than_local() {
        let m = CostModel::hadoop_era();
        assert!(m.hdfs_write(1_000_000) > m.disk_write(1_000_000));
    }

    #[test]
    fn torrent_beats_naive_for_many_tasks() {
        let m = CostModel::hadoop_era();
        let bytes = 10_000_000;
        let torrent = m.broadcast_torrent(bytes, 12);
        let naive = m.broadcast_naive(bytes, 96 * 2);
        assert!(
            torrent < naive,
            "torrent {torrent:?} should beat naive {naive:?}"
        );
    }

    #[test]
    fn torrent_scales_logarithmically() {
        let m = CostModel::hadoop_era();
        let b4 = m.broadcast_torrent(1_000_000, 4);
        let b16 = m.broadcast_torrent(1_000_000, 16);
        // 4 nodes → 2 rounds, 16 nodes → 4 rounds: exactly 2× the net term.
        let net = m.net_transfer(1_000_000);
        assert!((b16.as_secs() - b4.as_secs() - (net * 2.0).as_secs()).abs() < 1e-9);
    }

    #[test]
    fn checksum_is_cheaper_than_serialization() {
        let m = CostModel::hadoop_era();
        let bytes = 1_000_000;
        assert!(m.checksum(bytes) > SimDuration::ZERO);
        assert!(m.checksum(bytes) < m.serialize(bytes));
    }

    #[test]
    fn bitmap_build_sums_arena_write_and_bit_sets() {
        let m = CostModel::hadoop_era();
        let t = m.bitmap_build(1_000_000, 500_000);
        let expect = m.mem_scan(8_000_000) + m.cpu(500_000);
        assert!((t.as_secs() - expect.as_secs()).abs() < 1e-12);
        assert_eq!(m.bitmap_build(0, 0), SimDuration::ZERO);
    }

    #[test]
    fn zero_overhead_keeps_hardware() {
        let m = CostModel::zero_overhead();
        assert_eq!(m.mr_job_overhead, 0.0);
        assert_eq!(m.disk_read_bw, CostModel::hadoop_era().disk_read_bw);
    }
}
