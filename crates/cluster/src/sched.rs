//! The virtual list scheduler.
//!
//! A stage (Spark) or task wave (MapReduce) is a bag of tasks with known
//! virtual durations. The scheduler assigns them to `nodes × cores_per_node`
//! virtual cores and reports the makespan — the virtual wall-clock time the
//! stage would have taken on the paper's cluster.
//!
//! Placement rules (deterministic):
//!
//! * a task with a preferred node (its input partition is cached there, or an
//!   HDFS replica is local) runs on the earliest-available core *of that
//!   node* — unless that core only frees up after the **locality wait**, in
//!   which case the task spills over to the globally earliest core. This is
//!   Spark's delay scheduling (`spark.locality.wait`): without it, a stage
//!   whose 192 partitions all come from one HDFS block would serialize onto
//!   a single node's cores;
//! * a task with no preference runs on the earliest-available core anywhere,
//!   ties broken by core index.
//!
//! The global earliest-core search runs on a binary heap with lazy
//! deletion ordered by `(free_time, core_index)`, which reproduces the
//! linear scan's lowest-index tie-break while doing O(log cores) work per
//! decision instead of O(cores). [`DetailedSchedule::decision_units`]
//! counts the heap operations actually performed, so benches can assert
//! the scheduler's decision overhead stays sublinear in cluster size
//! without touching the host clock.

use crate::spec::{ClusterSpec, NodeId};
use crate::time::{SimDuration, SimInstant};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How long a task waits for a core on its preferred node before it spills
/// to any free core (`spark.locality.wait`); every stage is placed with it.
const DEFAULT_LOCALITY_WAIT: f64 = 0.3;

/// Heartbeat-based liveness detection.
///
/// Every node emits a heartbeat to the driver at `t = 0, interval,
/// 2·interval, …` on the virtual timeline. A node that dies at instant `d`
/// sends its last beat at the latest multiple of `interval` not after `d`;
/// the driver declares it lost only once `timeout` has elapsed since that
/// beat without hearing another. This replaces the oracle view of PR 2
/// (where a planned loss was visible the instant it happened) with what a
/// real driver can actually observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HeartbeatMonitor {
    interval: SimDuration,
    timeout: SimDuration,
}

impl HeartbeatMonitor {
    /// A monitor with the given beat interval and missed-beat timeout.
    /// The interval must be positive; the timeout may be zero (detection
    /// at the last beat plus nothing — clamped to the death itself).
    pub(crate) fn new(interval: SimDuration, timeout: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "heartbeat interval must be positive"
        );
        HeartbeatMonitor { interval, timeout }
    }

    /// Instant of the last heartbeat a node dying at `death` managed to
    /// send: the latest beat at or before the death.
    pub(crate) fn last_beat(&self, death: SimInstant) -> SimInstant {
        let beats = (death.as_secs() / self.interval.as_secs()).floor();
        SimInstant::from_secs(beats * self.interval.as_secs())
    }

    /// Instant the driver declares a node dying at `death` lost: `timeout`
    /// past its last beat, clamped to never precede the death itself (the
    /// driver cannot know about a failure before it happens).
    pub(crate) fn detection_instant(&self, death: SimInstant) -> SimInstant {
        (self.last_beat(death) + self.timeout).max(death)
    }
}

/// One task to be scheduled.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Full virtual duration (engine overhead + data time).
    pub duration: SimDuration,
    /// Node the task prefers to run on (data locality), if any.
    pub preferred_node: Option<NodeId>,
}

impl TaskSpec {
    /// A task with no locality preference.
    pub fn anywhere(duration: SimDuration) -> Self {
        TaskSpec {
            duration,
            preferred_node: None,
        }
    }

    /// A task pinned to the node holding its input.
    pub fn local(duration: SimDuration, node: NodeId) -> Self {
        TaskSpec {
            duration,
            preferred_node: Some(node),
        }
    }
}

/// Result of scheduling one bag of tasks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleOutcome {
    /// Virtual time until the last task finishes.
    pub makespan: SimDuration,
    /// Total busy core-time (sum of all task durations).
    pub total_busy: SimDuration,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Maximum number of tasks any single core executed ("waves" for a
    /// uniform bag). MapReduce charges its heartbeat latency per wave.
    pub waves: usize,
}

/// Where and when one task ran, relative to stage submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct TaskPlacement {
    /// Node the task executed on (after any locality spill-over).
    pub node: NodeId,
    /// Core index *within* its node.
    pub core: usize,
    /// Launch time relative to stage submission — the task's queue wait.
    pub start: SimDuration,
    /// The task's virtual duration (as passed in).
    pub duration: SimDuration,
}

/// [`ScheduleOutcome`] plus per-task placements, in input task order.
#[derive(Clone, Debug)]
pub(crate) struct DetailedSchedule {
    /// Aggregate outcome (makespan, busy time, waves).
    pub outcome: ScheduleOutcome,
    /// One placement per input task.
    pub placements: Vec<TaskPlacement>,
    /// Deterministic count of scheduler decisions taken (heap pushes and
    /// pops for the heap path, cores examined for the fault-aware linear
    /// path). A pure measure of scheduling overhead: independent of the
    /// host clock, comparable across cluster sizes.
    pub decision_units: u64,
}

/// Greedy earliest-core list scheduler over the virtual cluster.
#[derive(Clone, Debug)]
pub struct VirtualScheduler {
    spec: ClusterSpec,
    locality_wait: SimDuration,
}

impl VirtualScheduler {
    /// A scheduler for the given topology with the default locality wait.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_locality_wait(spec, SimDuration::from_secs(DEFAULT_LOCALITY_WAIT))
    }

    /// A scheduler with an explicit locality wait (`SimDuration::ZERO`
    /// disables locality entirely; a very large value pins tasks strictly).
    pub(crate) fn with_locality_wait(spec: ClusterSpec, locality_wait: SimDuration) -> Self {
        VirtualScheduler {
            spec,
            locality_wait,
        }
    }

    /// Topology this scheduler simulates.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Delay-scheduling wait before a task gives up on locality.
    pub(crate) fn locality_wait(&self) -> SimDuration {
        self.locality_wait
    }

    /// First core of the node a task prefers. Every producer in the tree
    /// (HDFS replicas, checkpoint replicas, round-robin homes) names a node
    /// of this topology; a foreign id wraps around rather than index out of
    /// bounds.
    pub(crate) fn first_core_of(&self, node: NodeId) -> usize {
        node.index() % self.spec.nodes as usize * self.spec.cores_per_node as usize
    }

    /// Schedule `tasks` (in order) and return the outcome.
    pub fn schedule(&self, tasks: &[TaskSpec]) -> ScheduleOutcome {
        self.schedule_detailed(tasks).outcome
    }

    /// Like [`VirtualScheduler::schedule`], also reporting where and when
    /// each task ran — the raw material for per-task spans and traces.
    pub(crate) fn schedule_detailed(&self, tasks: &[TaskSpec]) -> DetailedSchedule {
        let cores_per_node = self.spec.cores_per_node as usize;
        let total_cores = self.spec.nodes as usize * cores_per_node;

        // free[i]: time core i becomes free. Cores are grouped by node:
        // node n owns cores n*cores_per_node .. (n+1)*cores_per_node.
        let mut free = vec![SimDuration::ZERO; total_cores];
        let mut count = vec![0usize; total_cores];

        // Min-heap over (free_time, core) with lazy deletion: every core
        // always has exactly one *current* entry (matching free[core]);
        // superseded entries are dropped when they surface. Lexicographic
        // order reproduces the linear scan's lowest-index tie-break.
        let mut heap: BinaryHeap<Reverse<(SimDuration, usize)>> = (0..total_cores)
            .map(|c| Reverse((SimDuration::ZERO, c)))
            .collect();
        let mut units = 0u64;
        // The current global earliest core, discarding stale entries.
        let valid_top = |heap: &mut BinaryHeap<Reverse<(SimDuration, usize)>>,
                         free: &[SimDuration],
                         units: &mut u64|
         -> (SimDuration, usize) {
            loop {
                let Reverse((t, c)) = *heap.peek().expect("every core keeps a live entry");
                if t == free[c] {
                    return (t, c);
                }
                heap.pop();
                *units += 1;
            }
        };

        let earliest_in = |free: &[SimDuration], lo: usize, hi: usize| -> usize {
            let mut best = lo;
            for i in lo + 1..hi {
                if free[i] < free[best] {
                    best = i;
                }
            }
            best
        };

        let mut total_busy = SimDuration::ZERO;
        let mut placements = Vec::with_capacity(tasks.len());
        for t in tasks {
            let core = match t.preferred_node {
                Some(node) => {
                    let lo = self.first_core_of(node);
                    let local = earliest_in(&free, lo, lo + cores_per_node);
                    units += 1;
                    if free[local] <= self.locality_wait {
                        local
                    } else {
                        // Delay scheduling expired: run anywhere. (The input
                        // bytes a spilled task reads remotely are a rounding
                        // error next to its compute; the duration is kept.)
                        let (global_free, global) = valid_top(&mut heap, &free, &mut units);
                        if free[local] <= global_free {
                            local
                        } else {
                            global
                        }
                    }
                }
                None => valid_top(&mut heap, &free, &mut units).1,
            };
            placements.push(TaskPlacement {
                node: NodeId((core / cores_per_node) as u32),
                core: core % cores_per_node,
                start: free[core],
                duration: t.duration,
            });
            free[core] += t.duration;
            heap.push(Reverse((free[core], core)));
            units += 1;
            count[core] += 1;
            total_busy += t.duration;
        }

        let makespan = free
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        let waves = count.iter().copied().max().unwrap_or(0);

        DetailedSchedule {
            outcome: ScheduleOutcome {
                makespan,
                total_busy,
                tasks: tasks.len(),
                waves,
            },
            placements,
            decision_units: units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GIB;

    fn spec(nodes: u32, cores: u32) -> ClusterSpec {
        ClusterSpec::new(nodes, cores, GIB)
    }

    #[test]
    fn empty_bag_is_instant() {
        let s = VirtualScheduler::new(spec(2, 2));
        let out = s.schedule(&[]);
        assert_eq!(out.makespan, SimDuration::ZERO);
        assert_eq!(out.waves, 0);
    }

    #[test]
    fn perfectly_parallel_bag() {
        let s = VirtualScheduler::new(spec(2, 2));
        let tasks: Vec<_> = (0..4)
            .map(|_| TaskSpec::anywhere(SimDuration::from_secs(1.0)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(out.makespan.as_secs(), 1.0);
        assert_eq!(out.waves, 1);
        assert_eq!(out.total_busy.as_secs(), 4.0);
    }

    #[test]
    fn two_waves() {
        let s = VirtualScheduler::new(spec(1, 2));
        let tasks: Vec<_> = (0..4)
            .map(|_| TaskSpec::anywhere(SimDuration::from_secs(1.0)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(out.makespan.as_secs(), 2.0);
        assert_eq!(out.waves, 2);
    }

    #[test]
    fn strict_locality_pins_to_node() {
        // With an effectively infinite locality wait, node 0's single core
        // serializes its 3 one-second tasks while node 1 idles.
        let s = VirtualScheduler::with_locality_wait(spec(2, 1), SimDuration::from_secs(1e9));
        let tasks: Vec<_> = (0..3)
            .map(|_| TaskSpec::local(SimDuration::from_secs(1.0), NodeId(0)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(out.makespan.as_secs(), 3.0, "strict locality serializes");
    }

    #[test]
    fn delay_scheduling_spills_over_after_wait() {
        // Default wait (0.3s): the first task runs local; the rest find the
        // local core busy past the wait and spread across the cluster.
        let s = VirtualScheduler::new(spec(2, 1));
        let tasks: Vec<_> = (0..2)
            .map(|_| TaskSpec::local(SimDuration::from_secs(1.0), NodeId(0)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(out.makespan.as_secs(), 1.0, "second task ran on node 1");
    }

    #[test]
    fn zero_locality_wait_disables_delay_scheduling() {
        // wait = 0: the *second* task already finds its node's core busy
        // (queue > 0) and spills immediately — the "no locality" extreme.
        let s = VirtualScheduler::with_locality_wait(spec(2, 1), SimDuration::ZERO);
        let tasks: Vec<_> = (0..2)
            .map(|_| TaskSpec::local(SimDuration::from_secs(0.1), NodeId(0)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(
            out.makespan.as_secs(),
            0.1,
            "with zero wait even a 0.1s queue spills the task over"
        );
        // Default wait keeps the same bag local (queue 0.1 <= 0.3).
        let local = VirtualScheduler::new(spec(2, 1)).schedule(&tasks);
        assert!((local.makespan.as_secs() - 0.2).abs() < 1e-9, "{local:?}");
    }

    #[test]
    fn short_queue_stays_local() {
        // A queue shorter than the wait keeps tasks on their node.
        let s = VirtualScheduler::new(spec(2, 1));
        let tasks: Vec<_> = (0..3)
            .map(|_| TaskSpec::local(SimDuration::from_secs(0.1), NodeId(0)))
            .collect();
        let out = s.schedule(&tasks);
        assert!((out.makespan.as_secs() - 0.3).abs() < 1e-9, "{out:?}");
        assert_eq!(out.waves, 3);
    }

    #[test]
    fn round_robin_locality_balances() {
        let s = VirtualScheduler::new(spec(4, 2));
        let tasks: Vec<_> = (0..16)
            .map(|i| TaskSpec::local(SimDuration::from_secs(1.0), NodeId(i % 4)))
            .collect();
        let out = s.schedule(&tasks);
        assert_eq!(out.makespan.as_secs(), 2.0);
    }

    #[test]
    fn makespan_bounds_hold() {
        let s = VirtualScheduler::new(spec(3, 2));
        let tasks: Vec<_> = (0..17)
            .map(|i| TaskSpec::anywhere(SimDuration::from_secs(0.1 * (i % 5 + 1) as f64)))
            .collect();
        let out = s.schedule(&tasks);
        let max_task = tasks
            .iter()
            .map(|t| t.duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        let lower = out.total_busy / 6.0;
        assert!(out.makespan >= lower.max(max_task));
        assert!(out.makespan <= lower + max_task + SimDuration::from_secs(1e-9));
    }

    #[test]
    fn detailed_placements_match_outcome_and_never_overlap() {
        let s = VirtualScheduler::new(spec(2, 2));
        let tasks: Vec<_> = (0..9)
            .map(|i| TaskSpec::anywhere(SimDuration::from_secs(0.1 * (i % 4 + 1) as f64)))
            .collect();
        let d = s.schedule_detailed(&tasks);
        assert_eq!(d.placements.len(), tasks.len());
        assert_eq!(d.outcome, s.schedule(&tasks));
        // End of the latest placement is the makespan.
        let end = d
            .placements
            .iter()
            .map(|p| p.start + p.duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        assert_eq!(end, d.outcome.makespan);
        // Per-core intervals must not overlap.
        let mut by_core: std::collections::HashMap<(u32, usize), Vec<&TaskPlacement>> =
            std::collections::HashMap::new();
        for p in &d.placements {
            by_core.entry((p.node.0, p.core)).or_default().push(p);
        }
        for ps in by_core.values_mut() {
            ps.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
            for w in ps.windows(2) {
                assert!(
                    w[0].start + w[0].duration <= w[1].start,
                    "overlap on a core"
                );
            }
        }
    }

    #[test]
    fn detailed_respects_locality_node() {
        let s = VirtualScheduler::with_locality_wait(spec(2, 1), SimDuration::from_secs(1e9));
        let tasks: Vec<_> = (0..2)
            .map(|_| TaskSpec::local(SimDuration::from_secs(1.0), NodeId(1)))
            .collect();
        let d = s.schedule_detailed(&tasks);
        assert!(d.placements.iter().all(|p| p.node == NodeId(1)));
        assert_eq!(d.placements[1].start.as_secs(), 1.0, "second task queued");
    }

    /// Reference implementation: the pre-heap linear scan, kept verbatim to
    /// pin the heap path's placements bit-for-bit.
    fn linear_reference(s: &VirtualScheduler, tasks: &[TaskSpec]) -> Vec<TaskPlacement> {
        let cores_per_node = s.spec().cores_per_node as usize;
        let total_cores = s.spec().nodes as usize * cores_per_node;
        let mut free = vec![SimDuration::ZERO; total_cores];
        let earliest_in = |free: &[SimDuration], lo: usize, hi: usize| -> usize {
            let mut best = lo;
            for i in lo + 1..hi {
                if free[i] < free[best] {
                    best = i;
                }
            }
            best
        };
        let mut placements = Vec::new();
        for t in tasks {
            let core = match t.preferred_node {
                Some(node) => {
                    let lo = s.first_core_of(node);
                    let local = earliest_in(&free, lo, lo + cores_per_node);
                    if free[local] <= s.locality_wait() {
                        local
                    } else {
                        let global = earliest_in(&free, 0, total_cores);
                        if free[local] <= free[global] {
                            local
                        } else {
                            global
                        }
                    }
                }
                None => earliest_in(&free, 0, total_cores),
            };
            placements.push(TaskPlacement {
                node: NodeId((core / cores_per_node) as u32),
                core: core % cores_per_node,
                start: free[core],
                duration: t.duration,
            });
            free[core] += t.duration;
        }
        placements
    }

    #[test]
    fn heap_path_matches_linear_reference_bit_for_bit() {
        // Pseudo-random mixed bags across several topologies: the heap's
        // (free, core) ordering must reproduce the linear scan exactly,
        // including lowest-index tie-breaks on fully idle clusters.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (nodes, cores) in [(1u32, 1u32), (3, 2), (8, 4), (13, 3)] {
            let s = VirtualScheduler::new(spec(nodes, cores));
            let tasks: Vec<TaskSpec> = (0..200)
                .map(|_| {
                    let dur = SimDuration::from_secs((next() % 50) as f64 * 0.01);
                    if next() % 3 == 0 {
                        TaskSpec::local(dur, NodeId((next() % nodes as u64) as u32))
                    } else {
                        TaskSpec::anywhere(dur)
                    }
                })
                .collect();
            let d = s.schedule_detailed(&tasks);
            assert_eq!(
                d.placements,
                linear_reference(&s, &tasks),
                "{nodes}x{cores}: heap diverged from the linear reference"
            );
        }
    }

    #[test]
    fn decision_units_stay_sublinear_in_cluster_size() {
        // Same bag, 100 vs 1000 nodes: per-task decisions are O(log cores),
        // so the counted units must grow far slower than the 10x node count.
        let tasks: Vec<_> = (0..512)
            .map(|i| TaskSpec::anywhere(SimDuration::from_secs(0.01 * (i % 7 + 1) as f64)))
            .collect();
        let small = VirtualScheduler::new(spec(100, 8)).schedule_detailed(&tasks);
        let large = VirtualScheduler::new(spec(1000, 8)).schedule_detailed(&tasks);
        assert!(small.decision_units > 0);
        assert!(
            large.decision_units <= small.decision_units * 2,
            "units {} -> {} across a 10x node sweep",
            small.decision_units,
            large.decision_units
        );
    }

    #[test]
    fn heartbeat_detection_follows_last_beat() {
        let hb = HeartbeatMonitor::new(SimDuration::from_secs(0.5), SimDuration::from_secs(1.0));
        // Death at 1.3s: last beat at 1.0s, detected at 2.0s.
        assert_eq!(
            hb.detection_instant(SimInstant::from_secs(1.3)),
            SimInstant::from_secs(2.0)
        );
        // Death exactly on a beat: that beat still went out.
        assert_eq!(
            hb.last_beat(SimInstant::from_secs(1.5)),
            SimInstant::from_secs(1.5)
        );
        assert_eq!(
            hb.detection_instant(SimInstant::from_secs(1.5)),
            SimInstant::from_secs(2.5)
        );
        // Detection never precedes the death itself.
        let tight = HeartbeatMonitor::new(SimDuration::from_secs(10.0), SimDuration::ZERO);
        assert_eq!(
            tight.detection_instant(SimInstant::from_secs(3.0)),
            SimInstant::from_secs(3.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_heartbeat_interval_rejected() {
        HeartbeatMonitor::new(SimDuration::ZERO, SimDuration::from_secs(1.0));
    }

    #[test]
    fn more_cores_never_slower() {
        let tasks: Vec<_> = (0..50)
            .map(|i| TaskSpec::anywhere(SimDuration::from_secs((i % 7 + 1) as f64 * 0.01)))
            .collect();
        let m_small = VirtualScheduler::new(spec(2, 2)).schedule(&tasks).makespan;
        let m_big = VirtualScheduler::new(spec(4, 4)).schedule(&tasks).makespan;
        assert!(m_big <= m_small);
    }
}
