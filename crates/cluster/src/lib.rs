//! # yafim-cluster — deterministic virtual-cluster substrate
//!
//! The YAFIM paper evaluates on a 12-node Hadoop/Spark cluster. This crate is
//! the stand-in for that hardware: a *virtual* cluster whose time is computed
//! from deterministic work counters through a calibrated cost model, while the
//! actual data processing runs for real on local threads.
//!
//! The split is deliberate:
//!
//! * **Correctness is real.** Every byte of every dataset is actually parsed,
//!   hashed, counted and shuffled by the engines built on top of this crate
//!   ([`yafim-rdd`](https://docs.rs), [`yafim-mapreduce`](https://docs.rs)).
//! * **Time is virtual.** Each task accumulates [`WorkCounters`]
//!   (records, CPU units, bytes from disk / memory / network); a
//!   [`CostModel`] converts counters into a virtual duration; and
//!   [`VirtualScheduler`] list-schedules task durations onto
//!   `nodes × cores` virtual cores to obtain a stage makespan.
//!
//! Because counters are exact functions of the data and the scheduler is
//! deterministic, experiment output is bit-for-bit reproducible on any host.
//!
//! Modules:
//!
//! * `time` — virtual time arithmetic ([`SimDuration`], [`SimInstant`]).
//! * [`spec`] — cluster topology ([`spec::ClusterSpec`], [`spec::NodeId`]).
//! * `costmodel` — calibrated constants ([`CostModel`]).
//! * `work` — per-task work counters.
//! * `sched` — the virtual list scheduler.
//! * `fault` — seeded fault injection (crashes, node loss, stragglers) and
//!   Spark-style recovery scheduling (retries, blacklisting, speculation).
//! * `hdfs` — simulated HDFS with real file contents, blocks and replicas.
//! * `metrics` — the virtual clock, the run's counter tables and its
//!   record: spans (job → stage → task), passes and driver-side events.
//! * `critical` — critical-path analysis: decompose the makespan into
//!   exhaustive attribution buckets, per pass and in total, plus per-stage
//!   skew metrics.
//! * `manifest` — versioned machine-readable run manifests for the
//!   bench-regression gate.
//! * [`memgov`] — the unified execution-memory governor: region split,
//!   per-task budgets, OOM injection and the graceful-degradation ladder.
//! * `trace` — Chrome trace event exporter (Perfetto / chrome://tracing).
//! * `report` — the text view of the record: anomalies, passes, stages.
//! * `pool` — the real worker thread pool used to execute tasks.

mod bytes;
mod costmodel;
mod critical;
mod fault;
mod hash;
mod hdfs;
pub mod json;
mod manifest;
pub mod memgov;
mod metrics;
mod pool;
mod report;
mod sched;
pub mod spec;
pub mod sync;
mod time;
mod trace;
mod work;

pub use bytes::{slice_bytes, slice_records, ByteSize};
pub use costmodel::CostModel;
pub use critical::{critical_path, CriticalPathBuckets, CriticalPathReport, StageSkew};
pub use fault::{
    BucketLoss, ExecError, FaultController, FaultError, FaultPlan, IntegrityCounters,
    IntegrityTier, MemoryCounters, RecoveryCounters, StageFrame,
};
pub use hash::{bucket_of, fx_hash64, FxHashMap, FxHashSet, FxHasher};
pub use hdfs::{BlockInfo, CheckpointBlock, DfsError, DfsFile, Lines, SimHdfs, Split};
pub use manifest::{RunManifest, MANIFEST_SCHEMA_VERSION};
pub use memgov::{
    storage_region, MemEffect, MemoryBudget, MemoryRefusal, OomAbort, Site, TaskMemory,
    SPILL_GRANULE,
};
pub use metrics::{
    DropCounts, EngineCounters, Event, EventKind, JobSpan, Metrics, MetricsCapacity,
    MetricsSnapshot, PassTiming, StageKind, StageSpan, TaskSpan,
};
pub use pool::ThreadPool;
pub use report::full_report;
pub use sched::{ScheduleOutcome, TaskSpec, VirtualScheduler};
pub use spec::{ClusterSpec, NodeId};
pub use time::{SimDuration, SimInstant};
pub use trace::chrome_trace;
pub use work::{TaskProfile, WorkCounters};

use std::sync::Arc;

/// A handle bundling everything that describes one virtual cluster: its
/// topology, its cost model, its distributed file system, the shared metrics
/// sink, and the real thread pool used to execute tasks.
///
/// Engines (`yafim-rdd`, `yafim-mapreduce`) are constructed over a
/// `SimCluster` and charge all their virtual time to its [`Metrics`].
#[derive(Clone)]
pub struct SimCluster {
    inner: Arc<ClusterInner>,
}

struct ClusterInner {
    spec: ClusterSpec,
    cost: CostModel,
    hdfs: SimHdfs,
    metrics: Metrics,
    pool: ThreadPool,
    faults: FaultController,
}

impl SimCluster {
    /// Create a cluster with the given topology and cost model.
    ///
    /// The real thread pool is sized to the host's parallelism (not the
    /// virtual core count): virtual cores only exist inside the scheduler.
    pub fn new(spec: ClusterSpec, cost: CostModel) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_threads(spec, cost, threads)
    }

    /// Like [`SimCluster::new`] but with an explicit real-thread count
    /// (useful in tests to force sequential execution).
    pub fn with_threads(spec: ClusterSpec, cost: CostModel, threads: usize) -> Self {
        let hdfs = SimHdfs::new(spec.clone(), cost.clone());
        SimCluster {
            inner: Arc::new(ClusterInner {
                spec,
                cost,
                hdfs,
                metrics: Metrics::new(),
                pool: ThreadPool::new(threads.max(1)),
                faults: FaultController::new(),
            }),
        }
    }

    /// The cluster used throughout the paper: 12 nodes, two quad-core Xeons
    /// each (8 cores/node, 96 cores total), 24 GB memory per node.
    pub fn paper_cluster() -> Self {
        Self::new(ClusterSpec::paper(), CostModel::hadoop_era())
    }

    /// Cluster topology.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Cost model used for all virtual-time conversions.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The simulated distributed file system.
    pub fn hdfs(&self) -> &SimHdfs {
        &self.inner.hdfs
    }

    /// Shared metrics sink (virtual clock, counters, the run's record).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The real thread pool tasks execute on.
    pub fn pool(&self) -> &ThreadPool {
        &self.inner.pool
    }

    /// Fault injection controller (inert until a [`FaultPlan`] is set or a
    /// node is killed).
    pub fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    /// The execution-memory budget the governor enforces for this cluster,
    /// or `None` when the installed fault plan does not arm it (no
    /// `oom_prob`, no `mem_budget_override`) — the inert path charges and
    /// counts nothing, keeping unconstrained runs byte-identical.
    pub fn memory_budget(&self) -> Option<MemoryBudget> {
        if !self.inner.faults.active() {
            return None;
        }
        let plan = self.inner.faults.plan();
        MemoryBudget::from_plan(&self.inner.spec, &self.inner.cost, &plan)
    }
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("spec", &self.inner.spec)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_topology() {
        let c = SimCluster::paper_cluster();
        assert_eq!(c.spec().nodes, 12);
        assert_eq!(c.spec().cores_per_node, 8);
        assert_eq!(c.spec().total_cores(), 96);
    }

    #[test]
    fn cluster_is_cheaply_cloneable() {
        let c = SimCluster::paper_cluster();
        let c2 = c.clone();
        c.metrics().advance(SimDuration::from_secs(1.0));
        // Clones share the same metrics sink.
        assert_eq!(c2.metrics().now().as_secs(), 1.0);
    }
}
