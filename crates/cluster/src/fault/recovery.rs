//! The recovery ladder both engines walk, said once: what a fault-checked
//! block read or write costs, which counters each repair rung bumps, when a
//! block has no readable copy left, which shuffle buckets cannot be fetched,
//! and the one call that schedules and files a stage. A clean plan pays
//! nothing here, so fault-free timelines stay byte-identical.

use super::controller::ExecError;
use super::counters::{IntegrityCounters, RecoveryCounters};
use super::plan::{IntegrityTier, TransientKind};
use crate::metrics::{EngineCounters, StageExecution, StageKind, TaskExecution};
use crate::sched::TaskSpec;
use crate::spec::NodeId;
use crate::time::SimDuration;
use crate::work::{TaskProfile, WorkCounters};
use crate::SimCluster;

/// Why a shuffle bucket cannot be fetched as its map task wrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BucketLoss {
    /// Its checksum fails: the shuffle file rotted on disk.
    Rotten,
    /// Every retry of its fetch's seeded transient ladder failed.
    Escalated,
}

/// How an engine frames a stage for [`SimCluster::schedule_and_record`].
#[derive(Default)]
pub struct StageFrame<'a> {
    /// Stage label (a MapReduce wave is `"<job>: map"` or `"<job>: reduce"`).
    pub label: String,
    /// Result or shuffle-map stage.
    pub kind: StageKind,
    /// Shuffle id this stage writes or reads, if any.
    pub shuffle_id: Option<u64>,
    /// Launch cost before the first task (Spark's stage overhead). The task
    /// window, which node-loss instants are anchored to, opens after it.
    pub overhead: SimDuration,
    /// Charged past the last task once per wave (MapReduce's heartbeat).
    pub wave_latency: SimDuration,
    /// Added to every retry of task `i` (MapReduce's replica re-read).
    pub retry_extra: Option<&'a [SimDuration]>,
    /// Recovery the engine already owes this stage.
    pub recovery: RecoveryCounters,
}

impl RecoveryCounters {
    /// `n` rotten copies repaired from the next replica (HDFS blocks,
    /// checkpoint copies).
    pub(crate) fn replica_repairs(n: u64) -> Self {
        Self::repairs(n, 0, |i| i.repaired_via_replica = n)
    }

    /// `n` rotten cached partitions evicted and recomputed through lineage.
    pub(crate) fn recompute_repairs(n: u64) -> Self {
        Self::repairs(n, n, |i| i.repaired_via_recompute = n)
    }

    /// `n` rotten shuffle buckets repaired by resubmitting `maps` map tasks.
    pub fn resubmit_repairs(n: u64, maps: u64) -> Self {
        Self::repairs(n, maps, |i| i.repaired_via_resubmit = n)
    }

    /// `n` rotten copies repaired on the rung `rung` names.
    fn repairs(n: u64, recomputed: u64, rung: impl FnOnce(&mut IntegrityCounters)) -> Self {
        let mut integrity = IntegrityCounters {
            corruptions_injected: n,
            corruptions_detected: n,
            corruptions_repaired: n,
            ..IntegrityCounters::default()
        };
        rung(&mut integrity);
        RecoveryCounters {
            recomputed_partitions: recomputed,
            integrity,
            ..RecoveryCounters::default()
        }
    }
}

impl SimCluster {
    /// Virtual microseconds to checksum `bytes` (a block's write, or one
    /// copy's read-time check): 0 unless the plan can corrupt.
    pub fn checksum_micros(&self, bytes: u64) -> u64 {
        if !self.faults().integrity_active() {
            return 0;
        }
        (self.cost().checksum(bytes).as_secs() * 1e6) as u64
    }

    /// Walk the seeded transient ladder of a fetch that rolls one, file its
    /// retries and backoff, and return the extra full fetches it costs and
    /// the backoff. An escalated HDFS read counts its fetch failure here; an
    /// escalated shuffle fetch where its victim map task is resubmitted.
    fn transient_fetch(&self, kind: Option<TransientKind>, id: u64, part: usize) -> (u64, u64) {
        let Some(kind) = kind else { return (0, 0) };
        let t = self.faults().transient(kind, id, part);
        if t.any() {
            self.metrics().note_recovery(&RecoveryCounters {
                fetch_retries: t.retries,
                backoff_micros: t.backoff_micros,
                fetch_failures: u64::from(t.escalated && kind == TransientKind::HdfsRead),
                ..RecoveryCounters::default()
            });
        }
        (t.retries + u64::from(t.escalated), t.backoff_micros)
    }

    /// What reading a block of `bytes` with `replicas` copies costs a task
    /// beyond its clean fetch. With `transient` (the RDD engine's reads) the
    /// seeded HDFS ladder comes first: each retry or escalation re-fetches
    /// the block and the backoff stalls the task. Then the copies are
    /// checked in turn until one verifies; a rotten one is re-fetched from
    /// the next replica and rewritten clean.
    pub fn read_replicated(
        &self,
        id: u64,
        part: usize,
        bytes: u64,
        replicas: u32,
        transient: bool,
    ) -> WorkCounters {
        let ladder = transient.then_some(TransientKind::HdfsRead);
        let (refetches, backoff) = self.transient_fetch(ladder, id, part);
        let mut w = WorkCounters::new();
        w.add_net(bytes * refetches);
        w.add_stall_micros(backoff);
        let faults = self.faults();
        let rotten = |copy| faults.take_corruption(IntegrityTier::Hdfs, id, part, copy);
        let repairs = (0..replicas).take_while(|&copy| rotten(copy)).count() as u64;
        // The walk checks every rotten copy and the clean one after them.
        let checked = (repairs + 1).min(u64::from(replicas));
        w.add_stall_micros(self.checksum_micros(bytes) * checked);
        if repairs > 0 {
            w.add_net(bytes * repairs);
            let repaired = RecoveryCounters::replica_repairs(repairs);
            self.metrics().note_recovery(&repaired);
        }
        w
    }

    /// What a reduce task pays to fetch its partition's `bytes` of map
    /// output: 1/nodes of them from local shuffle files, the rest over the
    /// network, all deserialized and checksummed. With `transient` (the RDD
    /// engine's fetches) the seeded fetch ladder follows: each retry or
    /// escalation fetches the partition again and the backoff stalls.
    pub fn read_shuffle(&self, id: u64, part: usize, bytes: u64, transient: bool) -> WorkCounters {
        let ladder = transient.then_some(TransientKind::ShuffleFetch);
        let (refetches, backoff) = self.transient_fetch(ladder, id, part);
        let local = bytes / u64::from(self.spec().nodes).max(1);
        let mut w = WorkCounters::new();
        w.add_disk_read(local * (1 + refetches));
        w.add_net((bytes - local) * (1 + refetches));
        w.add_ser(bytes);
        w.add_stall_micros(self.checksum_micros(bytes) + backoff);
        w
    }

    /// Whether a cached partition fails its checksum. Its one repair is
    /// lineage recompute, which the caller runs and this files.
    pub fn cached_copy_rotten(&self, id: u64, part: usize) -> bool {
        let rotten = self
            .faults()
            .take_corruption(IntegrityTier::Cache, id, part, 0);
        if rotten {
            let repaired = RecoveryCounters::recompute_repairs(1);
            self.metrics().note_recovery(&repaired);
        }
        rotten
    }

    /// The refusal for a replicated block no copy of which is readable:
    /// all of its `copies` fail checksum verification, or none is left (a
    /// checkpoint block whose every replica's node was lost). `detail`
    /// names the block in the caller's words.
    pub fn refuse_unreadable(
        &self,
        id: u64,
        part: usize,
        copies: u32,
        detail: impl FnOnce() -> String,
    ) -> Result<(), ExecError> {
        let faults = self.faults();
        if (0..copies).any(|copy| !faults.corrupted(IntegrityTier::Hdfs, id, part, copy)) {
            return Ok(());
        }
        Err(ExecError::IntegrityFailure { detail: detail() })
    }

    /// The reduce buckets `0..reduces` of shuffle `id` that cannot be
    /// fetched as written, ascending (a rotten one is found once).
    pub fn failed_buckets(&self, loss: BucketLoss, id: u64, reduces: usize) -> Vec<usize> {
        let (faults, fetch) = (self.faults(), TransientKind::ShuffleFetch);
        let failed = |r: usize| match loss {
            BucketLoss::Rotten => faults.take_corruption(IntegrityTier::Shuffle, id, r, 0),
            BucketLoss::Escalated => faults.transient(fetch, id, r).escalated,
        };
        (0..reduces).filter(|&r| failed(r)).collect()
    }

    /// Schedule a stage whose tasks ran on the host under the installed
    /// plan, and file it, for either engine: task `i` ran partition
    /// `tasks[i].0` with profile `tasks[i].1`, whose governor outcomes join
    /// the stage's recovery block. Returns each winning attempt's node.
    pub fn schedule_and_record(
        &self,
        frame: StageFrame<'_>,
        specs: &[TaskSpec],
        tasks: impl IntoIterator<Item = (usize, TaskProfile)>,
    ) -> Result<Vec<NodeId>, ExecError> {
        let (scheduler, extra) = (self.stage_admission(), frame.retry_extra);
        let window_start = self.metrics().now() + frame.overhead;
        let fs = self
            .faults()
            .schedule_stage(&scheduler, specs, extra, window_start)
            .map_err(|source| ExecError::StageAborted {
                stage: frame.label.clone(),
                source,
            })?;
        // The stage's duration comes from its task spans, so what the
        // schedule ran past the last success (failed attempts that outlived
        // it, the healthy-plan floor) is charged as trailing time.
        let (outcome, placements) = (&fs.schedule.outcome, &fs.schedule.placements);
        let ends = placements.iter().map(|p| p.start + p.duration);
        let pad = outcome.makespan - ends.fold(SimDuration::ZERO, SimDuration::max);
        let trailing = frame.wave_latency * outcome.waves as f64 + pad;
        let mut recovery = frame.recovery;
        recovery.merge(&fs.recovery);
        let mut executions = Vec::with_capacity(placements.len());
        for (pl, (partition, profile)) in placements.iter().zip(tasks) {
            recovery.mem.merge(&profile.mem);
            executions.push(TaskExecution {
                partition,
                node: pl.node,
                core: pl.core,
                start: pl.start,
                duration: pl.duration,
                profile,
            });
        }
        let stage = StageExecution {
            label: frame.label,
            kind: frame.kind,
            shuffle_id: frame.shuffle_id,
            overhead: frame.overhead,
            trailing,
            tasks: executions,
        };
        self.metrics().record_stage_with_recovery(stage, recovery);
        self.metrics().note_engine(&EngineCounters {
            sched_decision_units: fs.schedule.decision_units,
            ..EngineCounters::default()
        });
        Ok(placements.iter().map(|p| p.node).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, GIB};
    use crate::{CostModel, FaultPlan};

    const BYTES: u64 = 3 << 20;

    /// A cluster whose plan rots the first `copies` replicas of block
    /// `(id, part)`, and nothing else.
    fn rotting(seed: u64, id: u64, part: usize, copies: u32) -> SimCluster {
        let cluster =
            SimCluster::with_threads(ClusterSpec::new(4, 2, GIB), CostModel::hadoop_era(), 1);
        cluster.faults().set_plan(FaultPlan {
            targeted_corruptions: vec![(IntegrityTier::Hdfs, id, part, copies)],
            ..FaultPlan::seeded(seed)
        });
        cluster
    }

    #[test]
    fn the_replica_walk_repairs_each_leading_rotten_copy_once() {
        for seed in 0..4u64 {
            let (id, part) = (seed * 7 + 1, seed as usize);
            for replicas in 1..=4u32 {
                for copies in 0..=replicas {
                    let cluster = rotting(seed, id, part, copies);
                    let refused = cluster.refuse_unreadable(id, part, replicas, String::new);
                    assert_eq!(refused.is_err(), copies == replicas, "{copies}/{replicas}");

                    let one = cluster.checksum_micros(BYTES);
                    assert!(one > 0);
                    let w = cluster.read_replicated(id, part, BYTES, replicas, true);
                    let repairs = cluster.metrics().snapshot().recovery.integrity;
                    assert_eq!(repairs.repaired_via_replica, u64::from(copies));
                    assert_eq!(repairs.corruptions_detected, u64::from(copies));
                    assert_eq!(w.net_bytes, u64::from(copies) * BYTES);
                    let checked = u64::from((copies + 1).min(replicas));
                    assert_eq!(w.stall_micros, checked * one);

                    // Every rotten copy healed: the next read checks one.
                    let again = cluster.read_replicated(id, part, BYTES, replicas, true);
                    assert_eq!((again.net_bytes, again.stall_micros), (0, one));
                    assert!(cluster
                        .refuse_unreadable(id, part, replicas, String::new)
                        .is_ok());
                }
            }
        }
    }

    #[test]
    fn an_inactive_plan_charges_nothing_and_refuses_only_a_block_with_no_copy() {
        let cluster = SimCluster::paper_cluster();
        assert_eq!(cluster.checksum_micros(BYTES), 0);
        let w = cluster.read_replicated(1, 0, BYTES, 3, true);
        assert_eq!(w, WorkCounters::default());
        assert!(!cluster.metrics().snapshot().recovery.any());
        assert!(cluster.failed_buckets(BucketLoss::Rotten, 1, 8).is_empty());
        assert!(cluster.refuse_unreadable(1, 0, 1, String::new).is_ok());
        let gone = cluster.refuse_unreadable(1, 0, 0, || "no copy".to_string());
        assert!(matches!(gone, Err(ExecError::IntegrityFailure { detail }) if detail == "no copy"));
    }
}
