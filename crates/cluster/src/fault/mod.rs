//! Deterministic fault injection and Spark-style recovery scheduling.
//!
//! The paper's fault-tolerance story (§II.B) is lineage: lost data is
//! recomputed, not replicated. To *exercise* that story the cluster needs
//! failures, and to keep experiments bit-for-bit reproducible the failures
//! must be part of the virtual timeline, not the host's. A [`FaultPlan`] is
//! a seeded description of everything that goes wrong in a run:
//!
//! * **task crashes** — attempt `a` of partition `p` in stage `s` crashes
//!   iff a hash of `(seed, s, p, a)` falls under the crash probability, so
//!   the same plan always kills the same attempts;
//! * **node losses** — a node dies at a fixed virtual instant; running
//!   attempts fail at the instant of death, and the node takes no further
//!   tasks (engines additionally invalidate its cached partitions and
//!   shuffle map outputs);
//! * **slow nodes** — a degradation factor stretches every task the node
//!   runs, modelling the heterogeneous/degraded workers of Aouad et al.;
//! * **transient fetch failures** — a shuffle fetch or HDFS/checkpoint block
//!   read fails *transiently* (network hiccup, busy serving node) and is
//!   retried in place with deterministic exponential backoff + seeded
//!   jitter; only after a fixed number of retries exhaust does the failure
//!   escalate to real data-loss recovery (map-output resubmission /
//!   remote-replica reads).
//!
//! Node losses are *detected*, not oracle-known: nodes emit virtual-time
//! heartbeats at a fixed interval, and the driver only declares a node lost
//! once [`FaultPlan::heartbeat_timeout`] elapses past its last beat (with a
//! zero timeout — the default — detection is instantaneous).
//!
//! The [`FaultController`] evaluates a plan while scheduling a stage: failed
//! attempts are retried after a resubmission delay (up to
//! [`FaultPlan::max_task_failures`], Spark's default 4), nodes accumulating
//! failures are blacklisted (stage-scoped by default; across stages with an
//! expiry when [`FaultPlan::blacklist_expiry`] is set), and — when
//! speculative execution is enabled — straggler attempts on slow nodes get
//! a duplicate launched on a healthy node, first finisher wins. Real data
//! processing still happens exactly once on the host pool; failures exist
//! purely on the virtual timeline, so mining results stay byte-identical
//! while virtual time grows.
//!
//! Four files, each list written once: `plan` holds the [`FaultPlan`] field
//! table (struct, defaults, JSON codec and range checks derive from it),
//! `counters` the counter tables ([`RecoveryCounters`] and its two nested
//! structs: struct, `merge`, `fields()`), `controller` the scheduler, and
//! `recovery` the repair ladder and stage recorder both engines share.

mod controller;
mod counters;
mod plan;
mod recovery;

pub use controller::{ExecError, FaultController, FaultError};
pub(crate) use counters::counter_table;
pub use counters::{CounterField, IntegrityCounters, MemoryCounters, RecoveryCounters};
pub(crate) use plan::RESUBMIT_DELAY;
pub use plan::{FaultPlan, IntegrityTier};
pub use recovery::{BucketLoss, StageFrame};
