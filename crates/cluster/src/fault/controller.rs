//! The fault controller: evaluates a [`FaultPlan`] while scheduling stages.

use super::counters::RecoveryCounters;
use super::plan::{FaultPlan, IntegrityTier, TransientKind, TransientOutcome};
use crate::hash::{FxHashMap, FxHashSet};
use crate::hdfs::DfsError;
use crate::memgov::{MemoryRefusal, Site};
use crate::sched::{DetailedSchedule, ScheduleOutcome, TaskPlacement, TaskSpec, VirtualScheduler};
use crate::spec::NodeId;
use crate::sync::Mutex;
use crate::time::{SimDuration, SimInstant};
use std::sync::Arc;

/// Why a fault-aware schedule could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// One task exhausted its retry budget.
    TaskAborted {
        /// Partition whose task kept failing.
        partition: usize,
        /// Crash failures accumulated.
        failures: u32,
        /// The budget that was exceeded.
        max_task_failures: u32,
    },
    /// No node is left alive (and un-blacklisted) to run a task.
    NoHealthyNodes {
        /// Partition that could not be placed.
        partition: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::TaskAborted {
                partition,
                failures,
                max_task_failures,
            } => write!(
                f,
                "task for partition {partition} failed {failures} times, exceeding \
                 max_task_failures = {max_task_failures}; aborting the stage \
                 (raise FaultPlan::with_max_task_failures or lower the crash probability)"
            ),
            FaultError::NoHealthyNodes { partition } => write!(
                f,
                "no healthy node left to run partition {partition}: every node is \
                 dead or blacklisted"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Why an engine's job could not complete. Both engines (`yafim-rdd`,
/// `yafim-mapreduce`) return this one type, so a cause reads the same
/// whichever engine met it.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// The job's input is missing from simulated HDFS.
    Dfs(DfsError),
    /// A stage aborted: some task exhausted its retry budget or no healthy
    /// node was left to run it.
    StageAborted {
        /// Label of the stage that aborted (a MapReduce wave is
        /// `"<job>: map"` or `"<job>: reduce"`).
        stage: String,
        /// The underlying scheduler failure.
        source: FaultError,
    },
    /// A block has no readable copy: every replica is poisoned or gone
    /// with its node, and there is no lineage (truncated, or MapReduce
    /// input) to recompute a clean copy from. The engine refuses to return
    /// possibly-wrong results.
    IntegrityFailure {
        /// What was corrupted and why it is unrepairable.
        detail: String,
    },
    /// A task exhausted its OOM retry ladder: even the whole-node memory
    /// slice (each retry doubles the grant, modelling reduced concurrency)
    /// could not satisfy an acquisition. The job is killed rather than
    /// returning a partial result.
    OutOfMemory {
        /// Label of the stage whose task died.
        stage: String,
        /// Partition whose task exhausted its retries.
        partition: usize,
        /// Acquisition site that overflowed.
        site: Site,
        /// Bytes the failing acquisition asked for.
        bytes: u64,
        /// Attempts consumed (first run plus retries).
        attempts: u32,
    },
    /// Driver-side admission control refused the job before running it:
    /// its smallest viable per-task footprint cannot fit the execution
    /// budget even with full borrowing from storage.
    MemoryRefused {
        /// Required vs available bytes per task.
        refusal: MemoryRefusal,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Dfs(e) => write!(f, "{e}"),
            ExecError::StageAborted { stage, source } => {
                write!(f, "stage `{stage}` aborted: {source}")
            }
            ExecError::IntegrityFailure { detail } => {
                write!(f, "data integrity failure: {detail}")
            }
            ExecError::OutOfMemory {
                stage,
                partition,
                site,
                bytes,
                attempts,
            } => write!(
                f,
                "stage `{stage}` out of memory: partition {partition} could not \
                 acquire {bytes} bytes for its {} after {attempts} attempts",
                site.name()
            ),
            ExecError::MemoryRefused { refusal } => write!(f, "{refusal}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Dfs(e) => Some(e),
            ExecError::StageAborted { source, .. } => Some(source),
            ExecError::IntegrityFailure { .. }
            | ExecError::OutOfMemory { .. }
            | ExecError::MemoryRefused { .. } => None,
        }
    }
}

/// A fault-aware schedule: the winning placement per task plus what it took
/// to get there.
#[derive(Clone, Debug)]
pub(crate) struct FaultySchedule {
    /// Final (winning) placements, in input task order.
    pub(crate) schedule: DetailedSchedule,
    /// Failures, retries and speculation accumulated by this stage.
    pub(crate) recovery: RecoveryCounters,
}

#[derive(Default)]
struct FaultInner {
    plan: FaultPlan,
    enabled: bool,
    /// All node losses (plan plus manual kills), by virtual instant.
    losses: Vec<(NodeId, SimInstant)>,
    /// Nodes whose data-loss side effects the engine already applied.
    applied: FxHashSet<u32>,
    /// Cross-stage blacklist entries (node → expiry instant). Only used
    /// when the plan sets a nonzero [`FaultPlan::blacklist_expiry`].
    blacklist: FxHashMap<u32, SimInstant>,
    /// Corrupted copies already detected and repaired (scrub-on-read):
    /// `(tier tag, id, partition, copy)`. A healed copy never rots again —
    /// the rewrite stored fresh, clean bytes.
    healed: FxHashSet<CopyKey>,
    stage_counter: u64,
}

/// One stored copy: `(tier tag, id, partition, copy)`.
type CopyKey = (u64, u64, u64, u64);

impl FaultInner {
    /// The copy's key when the installed plan rots it.
    fn rot(&self, tier: IntegrityTier, id: u64, part: usize, copy: u32) -> Option<CopyKey> {
        let rots = self.enabled
            && self.plan.integrity_active()
            && self.plan.corruption_roll(tier, id, part, copy);
        rots.then(|| (tier.tag(), id, part as u64, u64::from(copy)))
    }
}

/// Shared handle evaluating one [`FaultPlan`] over a cluster's lifetime.
/// Lives on the [`crate::SimCluster`]; inert (and free) until a plan is set
/// or a node is killed. Cheap to clone.
#[derive(Clone, Default)]
pub struct FaultController {
    inner: Arc<Mutex<FaultInner>>,
}

impl FaultController {
    /// A controller with no plan (inert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a fault plan. Replaces any previous plan; nodes whose loss
    /// was already applied stay dead.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut g = self.inner.lock();
        let mut losses = plan.node_losses.clone();
        losses.extend(
            g.losses
                .iter()
                .filter(|(n, _)| g.applied.contains(&n.0))
                .copied(),
        );
        g.plan = plan;
        g.losses = losses;
        g.enabled = true;
    }

    /// Copy of the installed plan.
    pub fn plan(&self) -> FaultPlan {
        self.inner.lock().plan.clone()
    }

    /// Whether fault-aware scheduling is on (a plan was set or a node was
    /// killed manually).
    pub fn active(&self) -> bool {
        self.inner.lock().enabled
    }

    /// Kill a node at virtual instant `at` (manual fault injection). Returns
    /// `false` if the node was already dead. The caller is responsible for
    /// invalidating the node's data (the loss is marked applied).
    pub fn kill_node(&self, node: NodeId, at: SimInstant) -> bool {
        let mut g = self.inner.lock();
        if g.losses.iter().any(|(n, t)| *n == node && *t <= at) {
            return false;
        }
        g.losses.push((node, at));
        g.applied.insert(node.0);
        g.enabled = true;
        true
    }

    /// Nodes whose loss is newly detected at `at` and whose data-loss side
    /// effects (cache / shuffle / broadcast invalidation) have not been
    /// applied yet. Marks them applied — each loss is surfaced exactly once.
    pub fn take_new_losses(&self, at: SimInstant) -> Vec<NodeId> {
        let mut g = self.inner.lock();
        let mut fresh: Vec<NodeId> = g
            .losses
            .iter()
            .filter(|(n, t)| g.plan.detection_instant(*t) <= at && !g.applied.contains(&n.0))
            .map(|(n, _)| *n)
            .collect();
        fresh.sort_by_key(|n| n.0);
        fresh.dedup();
        for n in &fresh {
            g.applied.insert(n.0);
        }
        fresh
    }

    /// Whether the installed plan can inject silent corruption: readers use
    /// this to decide whether to charge checksum verification time at all.
    /// `false` on clean runs keeps fault-free timelines byte-identical.
    pub(crate) fn integrity_active(&self) -> bool {
        let g = self.inner.lock();
        g.enabled && g.plan.integrity_active()
    }

    /// Whether the identified stored copy is rotten *right now*: the plan's
    /// seeded roll says it rotted and no reader has repaired it yet. Pure
    /// query; a read uses [`FaultController::take_corruption`].
    pub(crate) fn corrupted(&self, tier: IntegrityTier, id: u64, part: usize, copy: u32) -> bool {
        let g = self.inner.lock();
        g.rot(tier, id, part, copy)
            .is_some_and(|key| !g.healed.contains(&key))
    }

    /// Read-site corruption check: `true` exactly once per rotten copy (the
    /// verifying read detects the rot; its repair rewrites clean bytes, so
    /// the copy is marked healed and later reads verify clean).
    pub(crate) fn take_corruption(
        &self,
        tier: IntegrityTier,
        id: u64,
        part: usize,
        copy: u32,
    ) -> bool {
        let mut g = self.inner.lock();
        g.rot(tier, id, part, copy)
            .is_some_and(|key| g.healed.insert(key))
    }

    /// Walk the seeded transient-failure ladder for one fetch site, or an
    /// all-zero outcome when no plan is active. See
    /// [`FaultPlan::transient_outcome`].
    pub(crate) fn transient(&self, kind: TransientKind, id: u64, part: usize) -> TransientOutcome {
        let g = self.inner.lock();
        if !g.enabled {
            return TransientOutcome::default();
        }
        g.plan.transient_outcome(kind, id, part)
    }

    /// Schedule one stage under the installed plan: per-task attempt loops
    /// with bounded retries, blacklisting, node deaths on the virtual
    /// timeline and optional speculative duplicates. `retry_extra[i]`, when
    /// given, is added to every retry attempt of task `i` (MapReduce charges
    /// the HDFS re-read from a surviving replica there). `now` anchors
    /// absolute node-loss instants to the stage-relative clock.
    ///
    /// While the controller is inactive (no plan set, no node killed) this
    /// *is* `VirtualScheduler::schedule_detailed` with no recovery and no
    /// trailing pad, so the stage recorder makes this one call either way
    /// ([`crate::SimCluster::schedule_and_record`]); an installed
    /// but inert plan walks the fault path and reproduces it
    /// placement-for-placement.
    pub(crate) fn schedule_stage(
        &self,
        scheduler: &VirtualScheduler,
        tasks: &[TaskSpec],
        retry_extra: Option<&[SimDuration]>,
        now: SimInstant,
    ) -> Result<FaultySchedule, FaultError> {
        let (stage_seed, plan, losses, carried_blacklist) = {
            let mut g = self.inner.lock();
            if !g.enabled {
                return Ok(FaultySchedule {
                    schedule: scheduler.schedule_detailed(tasks),
                    recovery: RecoveryCounters::default(),
                });
            }
            g.stage_counter += 1;
            // With a nonzero expiry the blacklist outlives stages: entries
            // still alive at this stage's start seed the stage-local set;
            // expired ones are dropped so healed nodes return to service.
            let carried: Vec<u32> = if g.plan.blacklist_expiry > SimDuration::ZERO {
                g.blacklist.retain(|_, expiry| *expiry > now);
                g.blacklist.keys().copied().collect()
            } else {
                Vec::new()
            };
            (g.stage_counter, g.plan.clone(), g.losses.clone(), carried)
        };

        let spec = scheduler.spec();
        let nodes = spec.nodes as usize;
        let cores_per_node = spec.cores_per_node as usize;
        let total_cores = nodes * cores_per_node;
        let locality_wait = scheduler.locality_wait();
        let far = SimDuration::from_secs(f64::MAX / 4.0);
        let mut units: u64 = 0;

        // Stage-relative *detected* death time per node (None = survives the
        // stage). With a heartbeat timeout the node keeps receiving tasks
        // until the driver notices the silence; `actual` is when the machine
        // really stopped, which is when its attempts stop making progress.
        let died = |at: &dyn Fn(SimInstant) -> SimInstant| -> Vec<Option<SimDuration>> {
            let losses_of = |n| losses.iter().filter(move |(id, _)| id.index() == n);
            (0..nodes)
                .map(|n| losses_of(n).map(|(_, t)| at(*t).since(now)).min())
                .collect()
        };
        let death = died(&|t| plan.detection_instant(t));
        let actual_death = died(&|t| t);
        let slow: Vec<f64> = (0..nodes)
            .map(|n| plan.slow_factor(NodeId(n as u32)))
            .collect();

        // Blacklisting is stage-scoped by default, like Spark's stage-level
        // blacklisting: a node accumulating `blacklist_after` crash failures
        // in this stage takes no further tasks this stage. With a nonzero
        // `blacklist_expiry`, entries carried from earlier stages start the
        // stage blacklisted, and new entries are written back with an expiry.
        let mut node_failures: FxHashMap<u32, u32> = FxHashMap::default();
        let mut blacklisted: FxHashSet<u32> = carried_blacklist.iter().copied().collect();
        let mut expiry_updates: Vec<(u32, SimDuration)> = Vec::new();

        let mut free = vec![SimDuration::ZERO; total_cores];
        let mut count = vec![0usize; total_cores];
        let mut total_busy = SimDuration::ZERO;
        let mut last_activity = SimDuration::ZERO;
        let mut recovery = RecoveryCounters::default();
        let mut placements: Vec<TaskPlacement> = Vec::with_capacity(tasks.len());

        // Median base duration, the speculation straggler threshold.
        let median = {
            let mut durs: Vec<SimDuration> = tasks.iter().map(|t| t.duration).collect();
            durs.sort();
            durs.get(durs.len() / 2)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        };

        // Whether a task launched at `start` on this core can begin at all.
        let node_of = |core: usize| core / cores_per_node;
        let usable = |bl: &FxHashSet<u32>,
                      death: &[Option<SimDuration>],
                      core: usize,
                      start: SimDuration| {
            let n = node_of(core);
            !bl.contains(&(n as u32)) && death[n].is_none_or(|d| start < d)
        };

        for (i, t) in tasks.iter().enumerate() {
            let extra = retry_extra.map_or(SimDuration::ZERO, |e| e[i]);
            let mut failures = 0u32;
            let mut launches = 0u32;
            let mut earliest = SimDuration::ZERO; // resubmission delay gate
            let max_launches = plan.max_task_failures + nodes as u32 + 1;

            'attempts: loop {
                launches += 1;
                if failures >= plan.max_task_failures {
                    return Err(FaultError::TaskAborted {
                        partition: i,
                        failures,
                        max_task_failures: plan.max_task_failures,
                    });
                }
                if launches > max_launches {
                    return Err(FaultError::NoHealthyNodes { partition: i });
                }
                if launches > 1 {
                    recovery.task_retries += 1;
                }

                // Core choice: the base scheduler's delay-scheduling rule,
                // restricted to cores whose node is alive at launch time.
                let eff = |free: &[SimDuration], c: usize| free[c].max(earliest);
                let earliest_usable =
                    |free: &[SimDuration], bl: &FxHashSet<u32>, lo: usize, hi: usize| {
                        let mut best: Option<usize> = None;
                        for c in lo..hi {
                            if usable(bl, &death, c, eff(free, c))
                                && best.is_none_or(|b| eff(free, c) < eff(free, b))
                            {
                                best = Some(c);
                            }
                        }
                        best
                    };
                let local = t
                    .preferred_node
                    .map(|n| scheduler.first_core_of(n))
                    .and_then(|lo| {
                        units += cores_per_node as u64;
                        earliest_usable(&free, &blacklisted, lo, lo + cores_per_node)
                    });
                let core = match local {
                    Some(l) if eff(&free, l) <= locality_wait => Some(l),
                    Some(l) => {
                        units += total_cores as u64;
                        match earliest_usable(&free, &blacklisted, 0, total_cores) {
                            Some(gl) if eff(&free, l) <= eff(&free, gl) => Some(l),
                            other => other,
                        }
                    }
                    None => {
                        units += total_cores as u64;
                        earliest_usable(&free, &blacklisted, 0, total_cores)
                    }
                };
                let Some(core) = core else {
                    return Err(FaultError::NoHealthyNodes { partition: i });
                };
                let node = node_of(core);
                let start = eff(&free, core);
                let mut dur = t.duration * slow[node];
                if launches > 1 {
                    dur += extra;
                }
                let end = start + dur;

                // Earliest failure: the node dying mid-attempt, or the
                // seeded crash roll. An attempt overlapping the *actual*
                // death hangs until the driver declares the node lost at the
                // *detected* instant (with a zero heartbeat timeout the two
                // coincide and this is the legacy behaviour).
                let death_at = actual_death[node]
                    .filter(|d| *d < end)
                    .and_then(|_| death[node]);
                let crash_at = plan
                    .crash_point(stage_seed, i, launches)
                    .map(|frac| start + dur * frac);
                let fail_at = match (death_at, crash_at) {
                    (Some(d), Some(c)) => Some(d.min(c)),
                    (d, c) => d.or(c),
                };

                if let Some(fail) = fail_at {
                    let is_death = death_at.is_some_and(|d| d <= fail);
                    recovery.task_failures += 1;
                    if !is_death {
                        failures += 1;
                        let nf = node_failures.entry(node as u32).or_insert(0);
                        *nf += 1;
                        // Never blacklist the last node still able to run
                        // tasks — the plan's crashes are cluster-wide, not
                        // evidence against one machine.
                        let healthy_elsewhere = (0..nodes).any(|n| {
                            n != node
                                && !blacklisted.contains(&(n as u32))
                                && death[n].is_none_or(|d| fail < d)
                        });
                        if *nf >= plan.blacklist_after
                            && healthy_elsewhere
                            && blacklisted.insert(node as u32)
                        {
                            recovery.nodes_blacklisted += 1;
                            if plan.blacklist_expiry > SimDuration::ZERO {
                                expiry_updates.push((node as u32, fail + plan.blacklist_expiry));
                            }
                        }
                    }
                    total_busy += fail - start;
                    free[core] = if is_death { far } else { fail };
                    count[core] += 1;
                    last_activity = last_activity.max(fail);
                    earliest = fail + plan.resubmit_delay;
                    continue 'attempts;
                }

                // The attempt will finish. Straggling on a slow node may get
                // a speculative copy on the earliest healthy fast node.
                let mut spec_copy: Option<(usize, SimDuration, SimDuration)> = None;
                if plan.speculation
                    && slow[node] > 1.0
                    && median > SimDuration::ZERO
                    && dur >= median * plan.speculation_multiplier
                {
                    let mut best: Option<usize> = None;
                    for c in 0..total_cores {
                        let n = node_of(c);
                        if n == node || slow[n] > 1.0 {
                            continue;
                        }
                        let s = free[c].max(start);
                        if !usable(&blacklisted, &death, c, s)
                            || death[n].is_some_and(|d| d < s + t.duration)
                        {
                            continue;
                        }
                        if best.is_none_or(|b| s < free[b].max(start)) {
                            best = Some(c);
                        }
                    }
                    if let Some(c) = best {
                        let s = free[c].max(start);
                        if s + t.duration < end {
                            spec_copy = Some((c, s, t.duration));
                            recovery.speculative_launched += 1;
                        }
                    }
                }

                match spec_copy {
                    Some((copy_core, copy_start, copy_dur)) => {
                        let copy_end = copy_start + copy_dur;
                        // First finisher wins; the loser is killed then.
                        recovery.speculative_wins += 1;
                        placements.push(TaskPlacement {
                            node: NodeId(node_of(copy_core) as u32),
                            core: copy_core % cores_per_node,
                            start: copy_start,
                            duration: copy_dur,
                        });
                        free[copy_core] = copy_end;
                        free[core] = copy_end; // original killed at copy finish
                        count[copy_core] += 1;
                        count[core] += 1;
                        total_busy += copy_dur + (copy_end - start);
                        last_activity = last_activity.max(copy_end);
                    }
                    None => {
                        placements.push(TaskPlacement {
                            node: NodeId(node as u32),
                            core: core % cores_per_node,
                            start,
                            duration: dur,
                        });
                        free[core] = end;
                        count[core] += 1;
                        total_busy += dur;
                        last_activity = last_activity.max(end);
                    }
                }
                break 'attempts;
            }
        }

        if !expiry_updates.is_empty() {
            let mut g = self.inner.lock();
            for (node, rel_expiry) in expiry_updates {
                let abs = now + rel_expiry;
                let e = g.blacklist.entry(node).or_insert(abs);
                *e = (*e).max(abs);
            }
        }

        let waves = count.iter().copied().max().unwrap_or(0);
        // Killing the congested data-local node can accidentally "improve"
        // placement (its queue evaporates and delay scheduling stops
        // waiting for it). Real recovery never beats the healthy plan — the
        // survivors still have to re-fetch everything the dead node held —
        // so the fault-free makespan is a floor on stage time.
        let healthy = scheduler.schedule_detailed(tasks);
        units += healthy.decision_units;
        Ok(FaultySchedule {
            schedule: DetailedSchedule {
                outcome: ScheduleOutcome {
                    makespan: last_activity.max(healthy.outcome.makespan),
                    total_busy,
                    tasks: tasks.len(),
                    waves,
                },
                placements,
                decision_units: units,
            },
            recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, GIB};

    fn sched(nodes: u32, cores: u32) -> VirtualScheduler {
        VirtualScheduler::new(ClusterSpec::new(nodes, cores, GIB))
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn uniform(n: usize, dur: f64) -> Vec<TaskSpec> {
        (0..n).map(|_| TaskSpec::anywhere(secs(dur))).collect()
    }

    #[test]
    fn inert_plan_matches_plain_scheduler() {
        let s = sched(3, 2);
        let tasks: Vec<TaskSpec> = (0..17)
            .map(|i| {
                if i % 3 == 0 {
                    TaskSpec::local(secs(0.1 * (i % 5 + 1) as f64), NodeId(i as u32 % 3))
                } else {
                    TaskSpec::anywhere(secs(0.1 * (i % 5 + 1) as f64))
                }
            })
            .collect();
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(7)); // enabled but inert
        let faulty = fc
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("inert plan cannot abort");
        let base = s.schedule_detailed(&tasks);
        assert_eq!(faulty.schedule.outcome, base.outcome);
        assert_eq!(faulty.schedule.placements, base.placements);
        assert!(!faulty.recovery.any());
        // With no plan at all the controller is the plain scheduler, to the
        // decision unit, so engines need no branch of their own.
        let plain = FaultController::new()
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("an inactive controller cannot abort");
        assert_eq!(plain.schedule.outcome, base.outcome);
        assert_eq!(plain.schedule.placements, base.placements);
        assert_eq!(plain.schedule.decision_units, base.decision_units);
        let ends = plain
            .schedule
            .placements
            .iter()
            .map(|p| p.start + p.duration);
        let last_end = ends.fold(SimDuration::ZERO, SimDuration::max);
        assert_eq!(last_end, plain.schedule.outcome.makespan, "no trailing pad");
        assert!(!plain.recovery.any());
    }

    #[test]
    fn crashes_are_retried_and_counted() {
        let s = sched(2, 2);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(11)
                .crash_tasks(0.4)
                .with_max_task_failures(10),
        );
        let out = fc
            .schedule_stage(&s, &uniform(40, 1.0), None, SimInstant::EPOCH)
            .expect("40% crash rate stays well under a 10-attempt budget");
        assert!(out.recovery.task_failures > 0, "{:?}", out.recovery);
        assert_eq!(out.recovery.task_failures, out.recovery.task_retries);
        // Failed attempt time counts as busy time on top of the real work.
        assert!(out.schedule.outcome.total_busy > secs(40.0));
        assert_eq!(out.schedule.placements.len(), 40);
    }

    #[test]
    fn crash_decisions_are_deterministic() {
        let run = |seed| {
            let fc = FaultController::new();
            fc.set_plan(
                FaultPlan::seeded(seed)
                    .crash_tasks(0.3)
                    .with_max_task_failures(10),
            );
            let out = fc
                .schedule_stage(&sched(2, 2), &uniform(30, 1.0), None, SimInstant::EPOCH)
                .expect("under budget");
            (out.recovery, out.schedule.outcome)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0, "different seeds crash differently");
    }

    #[test]
    fn certain_crash_aborts_with_descriptive_error() {
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(1).crash_tasks(1.0));
        let err = fc
            .schedule_stage(&sched(2, 2), &uniform(3, 1.0), None, SimInstant::EPOCH)
            .expect_err("every attempt crashes");
        match &err {
            FaultError::TaskAborted {
                failures,
                max_task_failures,
                ..
            } => {
                assert_eq!(*failures, *max_task_failures);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("max_task_failures"));
    }

    #[test]
    fn dead_node_takes_no_tasks() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::EPOCH));
        let out = fc
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        assert_eq!(out.schedule.outcome.makespan, secs(4.0));
    }

    #[test]
    fn mid_stage_death_fails_running_attempts() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        // Node 0 dies half-way through the first wave.
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let out = fc
            .schedule_stage(&s, &uniform(2, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert_eq!(out.recovery.task_failures, 1);
        assert_eq!(out.recovery.task_retries, 1);
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        // The retry waits for the resubmission delay and node 1's queue.
        assert!(out.schedule.outcome.makespan > secs(1.0));
    }

    #[test]
    fn all_nodes_dead_is_an_error() {
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(0)
                .lose_node_at(NodeId(0), SimInstant::EPOCH)
                .lose_node_at(NodeId(1), SimInstant::EPOCH),
        );
        let err = fc
            .schedule_stage(&sched(2, 2), &uniform(2, 1.0), None, SimInstant::EPOCH)
            .expect_err("nowhere to run");
        assert!(matches!(err, FaultError::NoHealthyNodes { .. }));
        assert!(err.to_string().contains("dead or blacklisted"));
    }

    #[test]
    fn repeated_failures_blacklist_the_node() {
        let s = sched(4, 1);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.5)
                .with_blacklist_after(2)
                .with_max_task_failures(20),
        );
        let mut total = RecoveryCounters::default();
        for _ in 0..6 {
            let out = fc
                .schedule_stage(&s, &uniform(16, 1.0), None, SimInstant::EPOCH)
                .expect("budget of 10 is generous");
            total.merge(&out.recovery);
        }
        assert!(total.nodes_blacklisted > 0, "{total:?}");
    }

    #[test]
    fn slow_node_stretches_tasks_and_speculation_rescues_them() {
        let s = sched(4, 1);
        let tasks = uniform(4, 1.0);
        let base = FaultPlan::seeded(0).slow_node(NodeId(0), 10.0);

        let fc_slow = FaultController::new();
        fc_slow.set_plan(base.clone());
        let slow = fc_slow
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("no crashes");
        assert_eq!(slow.schedule.outcome.makespan, secs(10.0), "straggler");

        let fc_spec = FaultController::new();
        fc_spec.set_plan(base.with_speculation());
        let spec = fc_spec
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("no crashes");
        assert!(spec.recovery.speculative_launched >= 1);
        assert_eq!(
            spec.recovery.speculative_wins,
            spec.recovery.speculative_launched
        );
        assert!(
            spec.schedule.outcome.makespan < slow.schedule.outcome.makespan,
            "speculative copy beats the straggler: {:?} vs {:?}",
            spec.schedule.outcome.makespan,
            slow.schedule.outcome.makespan
        );
        // The winning placement is on a fast node.
        assert!(spec.schedule.placements.iter().all(|p| p.node != NodeId(0)));
    }

    #[test]
    fn retry_extra_charges_reread_on_retries_only() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let tasks = vec![
            TaskSpec::local(secs(1.0), NodeId(0)),
            TaskSpec::local(secs(1.0), NodeId(1)),
        ];
        let extras = vec![secs(5.0), secs(5.0)];
        let out = fc
            .schedule_stage(&s, &tasks, Some(&extras), SimInstant::EPOCH)
            .expect("node 1 survives");
        // Task 0 failed at 0.5s, retried on node 1 with the 5s re-read.
        let retried = &out.schedule.placements[0];
        assert_eq!(retried.node, NodeId(1));
        assert_eq!(retried.duration, secs(6.0));
        // Task 1 never failed: no extra.
        assert_eq!(out.schedule.placements[1].duration, secs(1.0));
    }

    #[test]
    fn manual_kill_and_queries() {
        let fc = FaultController::new();
        assert!(!fc.active());
        assert!(fc.kill_node(NodeId(2), SimInstant::from_secs(1.0)));
        assert!(
            !fc.kill_node(NodeId(2), SimInstant::from_secs(2.0)),
            "already dead"
        );
        assert!(fc.active());
        // Manual kills are pre-applied: the engine already invalidated data.
        assert!(fc.take_new_losses(SimInstant::from_secs(5.0)).is_empty());
    }

    #[test]
    fn planned_losses_surface_exactly_once() {
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(1), SimInstant::from_secs(2.0)));
        assert!(fc.take_new_losses(SimInstant::from_secs(1.0)).is_empty());
        assert_eq!(
            fc.take_new_losses(SimInstant::from_secs(3.0)),
            vec![NodeId(1)]
        );
        assert!(fc.take_new_losses(SimInstant::from_secs(4.0)).is_empty());
    }

    #[test]
    fn inert_plan_never_rolls_transient_failures() {
        let fc = FaultController::new();
        assert!(!fc.transient(TransientKind::ShuffleFetch, 1, 2).any());
        fc.set_plan(FaultPlan::seeded(1));
        assert!(!fc.transient(TransientKind::HdfsRead, 1, 2).any());
    }

    #[test]
    fn heartbeat_timeout_delays_detection() {
        let death = SimInstant::from_secs(1.3);
        // Zero timeout: detection is the death itself (legacy behaviour).
        let instant = FaultPlan::seeded(0);
        assert_eq!(instant.detection_instant(death), death);
        // Beats every 0.5s (last at 1.0s), timeout 1.0s → detected at 2.0s.
        let hb = FaultPlan::seeded(0)
            .with_heartbeat(SimDuration::from_secs(0.5), SimDuration::from_secs(1.0));
        assert_eq!(hb.detection_instant(death), SimInstant::from_secs(2.0));

        // The loss's side effects surface only at the detection instant.
        let fc = FaultController::new();
        fc.set_plan(hb.lose_node_at(NodeId(1), death));
        assert!(fc.take_new_losses(SimInstant::from_secs(1.9)).is_empty());
        assert_eq!(
            fc.take_new_losses(SimInstant::from_secs(2.0)),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn undetected_death_still_takes_tasks_and_fails_them() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        // Node 0 dies at 0.5s but the driver only notices at 2.0s: the
        // doomed node keeps receiving work until then.
        fc.set_plan(
            FaultPlan::seeded(0)
                .with_heartbeat(SimDuration::from_secs(0.5), SimDuration::from_secs(1.5))
                .lose_node_at(NodeId(0), SimInstant::from_secs(0.5)),
        );
        let out = fc
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        // Attempts placed on node 0 before detection (2.0s) fail there.
        assert!(out.recovery.task_failures >= 1, "{:?}", out.recovery);
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        // Compared to instant detection, the delayed version wastes time.
        let fc_instant = FaultController::new();
        fc_instant
            .set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let instant = fc_instant
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert!(
            out.schedule.outcome.makespan >= instant.schedule.outcome.makespan,
            "late detection can only cost time"
        );
    }

    #[test]
    fn blacklist_expiry_carries_and_heals_across_stages() {
        let s = sched(4, 1);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.5)
                .with_blacklist_after(2)
                .with_max_task_failures(20)
                .with_blacklist_expiry(SimDuration::from_secs(50.0)),
        );
        // Accumulate failures until some node is blacklisted.
        let mut total = RecoveryCounters::default();
        for _ in 0..6 {
            let out = fc
                .schedule_stage(&s, &uniform(16, 1.0), None, SimInstant::EPOCH)
                .expect("generous budget");
            total.merge(&out.recovery);
        }
        assert!(total.nodes_blacklisted > 0, "{total:?}");

        // A crash-free follow-up stage *before* expiry still avoids the
        // blacklisted node(s); *after* expiry every node serves again.
        let clean = |at: SimInstant| {
            let g = fc
                .schedule_stage(&s, &uniform(8, 1.0), None, at)
                .expect("no crashes rolled in a fresh stage can abort");
            let mut nodes: Vec<u32> = g.schedule.placements.iter().map(|p| p.node.0).collect();
            nodes.sort();
            nodes.dedup();
            nodes.len()
        };
        // Note: crash rolls are per-stage-seed, so later stages may still
        // crash; what matters is node coverage, checked via a plan swap.
        fc.set_plan(FaultPlan::seeded(3).with_blacklist_expiry(SimDuration::from_secs(50.0)));
        assert!(
            clean(SimInstant::from_secs(1.0)) < 4,
            "pre-expiry stages must avoid the blacklisted node"
        );
        assert_eq!(
            clean(SimInstant::from_secs(100.0)),
            4,
            "post-expiry stages use the healed node again"
        );
    }

    #[test]
    fn take_corruption_detects_once_then_heals() {
        let fc = FaultController::new();
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "inert controller never rots"
        );
        fc.set_plan(FaultPlan {
            targeted_corruptions: vec![(IntegrityTier::Cache, 1, 0, 1)],
            ..FaultPlan::seeded(0)
        });
        assert!(fc.corrupted(IntegrityTier::Cache, 1, 0, 0));
        assert!(
            fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "first read detects"
        );
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "repaired copy stays clean"
        );
        assert!(!fc.corrupted(IntegrityTier::Cache, 1, 0, 0), "healed");
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 1, 0),
            "other copies clean"
        );
    }
}
