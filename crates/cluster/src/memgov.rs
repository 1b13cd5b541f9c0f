//! Spark-style unified execution-memory governor.
//!
//! The storage side of a node's memory has always had a budget (the LRU
//! cache), but execution memory — triangular pair arrays, CSR tries, bitmap
//! arenas, shuffle combine buffers — was unbounded and unaccounted. This
//! module splits `memory_per_node` into an **execution region** and a
//! **storage region** ([`storage_region`]: 60 %, the share the cache manager
//! gets too), and hands every task a deterministic [`MemoryBudget`] slice of
//! the execution region.
//!
//! Like Spark's unified memory manager, execution can *borrow* from storage:
//! cached blocks are evictable down to a floor (half the storage region),
//! so a task's hard cap is its execution slice plus its share of the
//! borrowable storage. Borrowed bytes are not free — each byte borrowed
//! evicts a cached byte to local disk, charged as a pressure stall on the
//! borrowing task (which the critical-path analyzer buckets as
//! `fault_stall`).
//!
//! Overflow walks a graceful-degradation ladder *before* anything fails:
//!
//! 1. **Spill** — combine buffers (the sites that [`Site::spills`]) stream
//!    through local disk in [`SPILL_GRANULE`] chunks, charged via the cost
//!    model;
//! 2. **Step down** — Phase-II matchers degrade bitmap → trie → hash-tree
//!    at pass granularity when the preferred structure's footprint estimate
//!    does not fit (`mem.degradations`);
//! 3. **Kill + retry** — an injected-or-real OOM at any other site
//!    kills the task attempt; the retry runs at a doubled memory slice
//!    (modelling reduced concurrency), bounded by the plan's
//!    `max_task_failures`;
//! 4. **Refuse** — admission control rejects jobs whose pass-1 footprint
//!    cannot fit even with borrowing, as a typed driver-side error — never
//!    a wrong or silently-partial result.
//!
//! Determinism: the governor never tracks live cross-task node occupancy
//! (host threads interleave nondeterministically). Each task is checked
//! against its own per-task slice, OOM injections hash
//! `(seed, stage key, partition, roll, site, attempt)`, and the node-level
//! peak is the max over per-task peaks — all independent of host
//! interleaving, so mining results and virtual time stay byte-identical
//! for a given plan.

use crate::costmodel::CostModel;
use crate::fault::{FaultPlan, MemoryCounters};
use crate::hash::fx_hash64;
use crate::spec::ClusterSpec;
use crate::work::TaskProfile;
use std::cell::Cell;

/// Smallest buffer worth spilling: a task slice below this cannot make
/// progress even by streaming through disk, so admission control refuses
/// the job outright.
pub const SPILL_GRANULE: u64 = 64 * 1024;

/// Where a task acquires execution memory. The discriminant is the site's
/// tag in the OOM rolls' hash, so the order is fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Shuffle map-side combine buffer, or the same combined pairs as one
    /// task's partial of an `aggregate`.
    ShuffleCombine = 1,
    /// Phase-2 triangular candidate-pair count array.
    Triangle = 2,
    /// Candidate-store count array (hash-tree / trie / bitmap passes).
    CandidateStore = 3,
    /// Vertical bitmap arena (columnar partition).
    BitmapArena = 4,
    /// MapReduce map-side combine buffer.
    MrCombine = 5,
}

impl Site {
    /// Human-readable name (error messages, reports).
    pub fn name(self) -> &'static str {
        match self {
            Site::ShuffleCombine => "shuffle combine buffer",
            Site::Triangle => "triangle count array",
            Site::CandidateStore => "candidate store",
            Site::BitmapArena => "bitmap arena",
            Site::MrCombine => "map-side combine buffer",
        }
    }

    /// Whether a denial here streams the buffer through local disk (the
    /// combine buffers) rather than killing the attempt.
    pub fn spills(self) -> bool {
        matches!(self, Site::ShuffleCombine | Site::MrCombine)
    }
}

/// Why the governor refused to admit a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRefusal {
    /// Bytes the smallest viable footprint needs per task.
    pub required: u64,
    /// Hard per-task cap the budget can offer (with full borrowing).
    pub available: u64,
}

impl std::fmt::Display for MemoryRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget refused: needs {} bytes per task but the governor \
             can offer at most {} (raise the budget)",
            self.required, self.available
        )
    }
}

/// One node's memory regions plus the per-task slice every task reserves
/// against. Cheap to copy; carried by `TaskContext`.
#[derive(Clone, Copy, Debug)]
pub struct MemoryBudget {
    /// Plan seed (OOM roll hash domain).
    pub seed: u64,
    /// Per-acquisition injected-OOM probability.
    pub oom_prob: f64,
    /// Total bytes the node pretends to have (override or spec).
    pub node_total: u64,
    /// Bytes reserved for execution (total minus storage region).
    pub execution_region: u64,
    /// Bytes reserved for cached blocks ([`storage_region`]).
    pub storage_region: u64,
    /// Storage bytes execution can never evict (half the storage region).
    pub storage_floor: u64,
    /// Fair execution slice per task (execution region / cores per node).
    pub per_task_quota: u64,
    /// Hard per-task cap: quota plus this task's share of borrowable
    /// storage.
    pub per_task_limit: u64,
    /// Whole-node cap a fully-backed-off retry may grow into.
    pub node_limit: u64,
    /// Retry budget for OOM-killed attempts (the plan's
    /// `max_task_failures`).
    pub max_oom_retries: u32,
    /// Virtual microseconds one kill-and-resubmit costs.
    pub resubmit_micros: u64,
    /// Virtual microseconds to evict one borrowed byte to local disk.
    pub evict_micros_per_byte: f64,
}

impl MemoryBudget {
    /// Build the budget for one node from the cluster spec and the fault
    /// plan's knobs. Returns `None` when the plan does not arm the governor
    /// — the inert path charges and counts nothing, keeping unconstrained
    /// runs byte-identical.
    pub fn from_plan(
        spec: &ClusterSpec,
        cost: &CostModel,
        plan: &FaultPlan,
    ) -> Option<MemoryBudget> {
        if !plan.memory_active() {
            return None;
        }
        let node_total = plan.mem_budget_override.unwrap_or(spec.memory_per_node);
        let storage_region = storage_region(node_total);
        let execution_region = node_total - storage_region;
        let storage_floor = storage_region / 2;
        let borrowable = storage_region - storage_floor;
        let cores = u64::from(spec.cores_per_node.max(1));
        let node_limit = execution_region + borrowable;
        Some(MemoryBudget {
            seed: plan.seed,
            oom_prob: plan.oom_prob,
            node_total,
            execution_region,
            storage_region,
            storage_floor,
            per_task_quota: execution_region / cores,
            per_task_limit: node_limit / cores,
            node_limit,
            max_oom_retries: plan.max_task_failures,
            resubmit_micros: (plan.resubmit_delay.as_secs() * 1e6).round() as u64,
            evict_micros_per_byte: 1e6 / cost.disk_write_bw,
        })
    }

    /// Per-task cap for retry `attempt`: each retry doubles the slice
    /// (fewer concurrent tasks share the node), saturating at the whole
    /// node's evictable memory.
    pub(crate) fn attempt_cap(&self, attempt: u32) -> u64 {
        self.per_task_limit
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.node_limit)
    }

    /// Admission control: can a task that needs `required` bytes (its
    /// smallest viable footprint) run at all, even with full borrowing?
    pub fn admit(&self, required: u64) -> Result<(), MemoryRefusal> {
        if required <= self.per_task_limit {
            Ok(())
        } else {
            Err(MemoryRefusal {
                required,
                available: self.per_task_limit,
            })
        }
    }

    /// Pressure-stall charge for pushing `bytes` of cached data out of the
    /// borrowable storage region, in virtual microseconds.
    pub(crate) fn evict_micros(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.evict_micros_per_byte).round() as u64
    }
}

impl MemoryBudget {
    /// Seed-deterministic OOM decision for one execution-memory acquisition
    /// attempt. `roll` indexes the acquisition within its task, `site` is
    /// the kind of structure being built, and `attempt` is the retry index —
    /// each retry runs at a doubled memory slice, so the injected
    /// probability halves per attempt. Pure: the same plan always denies
    /// the same acquisitions.
    pub(crate) fn oom_roll(
        &self,
        stage_key: u64,
        partition: usize,
        roll: u64,
        site: Site,
        attempt: u32,
    ) -> bool {
        let prob = self.oom_prob * 0.5f64.powi(attempt as i32);
        if prob <= 0.0 {
            return false;
        }
        let key = (
            self.seed,
            0x006du64, // OOM hash domain
            stage_key,
            partition as u64,
            roll,
            site as u64,
            attempt as u64,
        );
        let r = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        r < prob
    }
}

/// A task attempt that exhausted its OOM retry ladder. The stage must
/// abort with a typed out-of-memory error — never return a partial result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OomAbort {
    /// Partition whose task kept dying.
    pub partition: usize,
    /// Where the task asked.
    pub site: Site,
    /// Bytes the final attempt asked for.
    pub bytes: u64,
    /// Attempts burned (1 + the plan's `max_task_failures` retries).
    pub attempts: u32,
}

/// The deterministic side effects of one reservation, for the caller to
/// apply to its counters: governor bookkeeping to merge, stall time to
/// charge (the critical path buckets it as `fault_stall`), and spill
/// bytes to round-trip through local disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemEffect {
    /// Governor counter deltas (peak, spills, OOM outcomes).
    pub mem: MemoryCounters,
    /// Virtual microseconds of pressure stall (evictions, kill/resubmit).
    pub stall_micros: u64,
    /// Bytes to charge as one local-disk write + read (the spill round
    /// trip).
    pub spill_disk_bytes: u64,
}

impl MemEffect {
    /// Apply these effects to a task's profile, as both engines do.
    pub fn charge(&self, profile: &mut TaskProfile) {
        profile.mem.merge(&self.mem);
        profile.work.add_stall_micros(self.stall_micros);
        profile.work.add_disk_write(self.spill_disk_bytes);
        profile.work.add_disk_read(self.spill_disk_bytes);
    }
}

/// Per-task execution-memory ledger: the engine-neutral state machine both
/// engines drive their reservations through. Unarmed (`budget == None`) it
/// is completely inert — every reservation is a free no-op grant — so
/// unconstrained runs stay byte-identical.
pub struct TaskMemory {
    budget: Option<MemoryBudget>,
    stage_key: u64,
    partition: usize,
    acquired: Cell<u64>,
    rolls: Cell<u64>,
    abort: Cell<Option<OomAbort>>,
}

impl TaskMemory {
    /// A ledger for `partition` of the stage identified by `stage_key`.
    pub fn new(budget: Option<MemoryBudget>, stage_key: u64, partition: usize) -> Self {
        TaskMemory {
            budget,
            stage_key,
            partition,
            acquired: Cell::new(0),
            rolls: Cell::new(0),
            abort: Cell::new(None),
        }
    }

    /// Whether the governor is armed for this task.
    pub fn armed(&self) -> bool {
        self.budget.is_some()
    }

    /// Reserve `bytes` of execution memory at `site`. A site that
    /// [`Site::spills`] does so on denial; the rest walk
    /// the kill-and-retry ladder, each retry at a doubled slice, and mark
    /// the task for a typed abort when the ladder exhausts. Returns the
    /// counter/stall/disk effects for the caller to apply: a spill is its
    /// disk round trip, never a different result.
    pub fn try_reserve(&self, bytes: u64, site: Site) -> MemEffect {
        let mut fx = MemEffect::default();
        let Some(b) = &self.budget else {
            return fx;
        };
        let roll = self.rolls.get();
        self.rolls.set(roll + 1);
        let held = self.acquired.get();
        let over = |attempt: u32| held.saturating_add(bytes) > b.attempt_cap(attempt);
        let injected = b.oom_roll(self.stage_key, self.partition, roll, site, 0);
        if !injected && !over(0) {
            self.grant(bytes, b, &mut fx);
            return fx;
        }
        if site.spills() {
            // Rung 1 of the ladder: stream the buffer through local disk.
            // An injected denial is an OOM event the spill survived; a real
            // over-budget buffer is ordinary pressure — a plain spill.
            if injected {
                fx.mem.oom_injected += 1;
                fx.mem.oom_survived_by_degradation += 1;
            }
            fx.mem.spills += 1;
            fx.mem.spill_bytes += bytes;
            fx.spill_disk_bytes += bytes;
            return fx;
        }
        // Rung 3: the attempt dies. Retries model Spark's "rerun at reduced
        // concurrency": each one owns a doubled slice, and each failed
        // attempt costs a kill-and-resubmit round trip of stall time.
        fx.mem.oom_injected += 1;
        fx.mem.oom_killed += 1;
        for attempt in 1..=b.max_oom_retries {
            fx.stall_micros += b.resubmit_micros;
            if !b.oom_roll(self.stage_key, self.partition, roll, site, attempt) && !over(attempt) {
                self.grant(bytes, b, &mut fx);
                return fx;
            }
        }
        self.abort.set(Some(OomAbort {
            partition: self.partition,
            site,
            bytes,
            attempts: b.max_oom_retries + 1,
        }));
        // The computation continues (its result is discarded): the driver
        // sees the abort mark and fails the stage with a typed error.
        fx
    }

    /// The abort mark, if any reservation exhausted its retry ladder.
    pub fn abort(&self) -> Option<OomAbort> {
        self.abort.get()
    }

    fn grant(&self, bytes: u64, b: &MemoryBudget, fx: &mut MemEffect) {
        let prev = self.acquired.get();
        let now = prev + bytes;
        self.acquired.set(now);
        fx.mem.peak_execution_bytes = fx.mem.peak_execution_bytes.max(now);
        // Crossing the fair quota borrows from the storage region: each
        // borrowed byte evicts a cached byte to disk, charged as a
        // pressure stall on the borrower.
        if now > b.per_task_quota {
            let newly = now.min(b.node_limit) - prev.max(b.per_task_quota);
            if newly > 0 {
                fx.stall_micros += b.evict_micros(newly);
            }
        }
    }
}

/// Bytes of a node's memory given to the storage (cache) region: the cache
/// manager's capacity and the governor's storage region alike.
pub fn storage_region(memory_per_node: u64) -> u64 {
    memory_per_node * 6 / 10
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GIB;
    use crate::time::SimDuration;

    fn spec() -> ClusterSpec {
        ClusterSpec::new(4, 8, 8 * GIB)
    }

    #[test]
    fn inert_plan_yields_no_budget() {
        let plan = FaultPlan::seeded(3).crash_tasks(0.5);
        assert!(MemoryBudget::from_plan(&spec(), &CostModel::default(), &plan).is_none());
    }

    #[test]
    fn regions_split_and_per_task_slices_follow_cores() {
        let plan = FaultPlan::seeded(0).with_mem_budget(1000);
        let b = MemoryBudget::from_plan(&spec(), &CostModel::default(), &plan)
            .expect("override arms the governor");
        assert_eq!(b.node_total, 1000);
        assert_eq!(b.storage_region, 600);
        assert_eq!(b.execution_region, 400);
        assert_eq!(b.storage_floor, 300);
        assert_eq!(b.node_limit, 700);
        assert_eq!(b.per_task_quota, 400 / 8);
        assert_eq!(b.per_task_limit, 700 / 8);
        // Retries double the slice, saturating at the node.
        assert_eq!(b.attempt_cap(0), 87);
        assert_eq!(b.attempt_cap(1), 174);
        assert_eq!(b.attempt_cap(10), 700);
    }

    #[test]
    fn admission_refuses_oversized_footprints_with_a_typed_reason() {
        let plan = FaultPlan::seeded(0).with_mem_budget(1024);
        let b = MemoryBudget::from_plan(&spec(), &CostModel::default(), &plan).unwrap();
        assert!(b.admit(b.per_task_limit).is_ok());
        let err = b.admit(SPILL_GRANULE).expect_err("tiny budget refuses");
        assert_eq!(err.required, SPILL_GRANULE);
        assert_eq!(err.available, b.per_task_limit);
        assert!(err.to_string().contains("memory budget refused"));
    }

    #[test]
    fn site_tags_keep_their_order_and_only_combine_buffers_spill() {
        // The tags are hashed into every OOM roll: renumbering one would
        // move which acquisitions a seeded plan denies.
        let sites = [
            Site::ShuffleCombine,
            Site::Triangle,
            Site::CandidateStore,
            Site::BitmapArena,
            Site::MrCombine,
        ];
        assert_eq!(sites.map(|s| s as u64), [1, 2, 3, 4, 5]);
        let spilling: Vec<Site> = sites.into_iter().filter(|s| s.spills()).collect();
        assert_eq!(spilling, [Site::ShuffleCombine, Site::MrCombine]);
    }

    fn budget_of(total: u64, oom_prob: f64, retries: u32) -> MemoryBudget {
        let mut plan = FaultPlan::seeded(7)
            .with_mem_budget(total)
            .with_max_task_failures(retries);
        plan.oom_prob = oom_prob;
        MemoryBudget::from_plan(&ClusterSpec::new(1, 1, GIB), &CostModel::default(), &plan)
            .expect("armed")
    }

    #[test]
    fn oom_rolls_are_deterministic_and_halve_per_attempt() {
        let budget = budget_of(GIB, 0.5, 4);
        let a: Vec<bool> = (0..64)
            .map(|p| budget.oom_roll(9, p, 0, Site::ShuffleCombine, 0))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|p| budget.oom_roll(9, p, 0, Site::ShuffleCombine, 0))
            .collect();
        assert_eq!(a, b, "same plan denies the same acquisitions");
        assert!(
            a.iter().any(|x| *x) && a.iter().any(|x| !*x),
            "mixed at 50%"
        );
        // Distinct sites and rolls are independent hash domains.
        let other_site: Vec<bool> = (0..64)
            .map(|p| budget.oom_roll(9, p, 0, Site::Triangle, 0))
            .collect();
        assert_ne!(a, other_site);
        // Retry attempts are denied at a halved rate (doubled slice).
        let denials = |attempt: u32| {
            (0..4096)
                .filter(|p| budget.oom_roll(9, *p, 0, Site::ShuffleCombine, attempt))
                .count()
        };
        let (d0, d1) = (denials(0), denials(1));
        assert!(
            d1 * 3 < d0 * 2,
            "attempt 1 should deny roughly half as often: {d0} vs {d1}"
        );
        assert!(
            !budget_of(GIB, 0.0, 4).oom_roll(9, 0, 0, Site::ShuffleCombine, 0),
            "inert"
        );
    }

    #[test]
    fn inert_ledger_grants_everything_for_free() {
        let tm = TaskMemory::new(None, 0, 0);
        assert!(!tm.armed());
        let fx = tm.try_reserve(u64::MAX, Site::Triangle);
        assert_eq!(fx, MemEffect::default(), "no counters, no charges");
        assert!(tm.abort().is_none());
    }

    #[test]
    fn within_quota_grants_track_peak_only() {
        let tm = TaskMemory::new(Some(budget_of(1000, 0.0, 4)), 1, 0);
        // quota = execution 400 / 1 core = 400.
        let fx = tm.try_reserve(100, Site::Triangle);
        assert_eq!(fx.mem.spills, 0);
        assert_eq!(fx.mem.peak_execution_bytes, 100);
        assert_eq!(fx.stall_micros, 0, "no borrowing, no stall");
        let fx2 = tm.try_reserve(200, Site::BitmapArena);
        assert_eq!(fx2.mem.peak_execution_bytes, 300, "peak is cumulative");
        assert!(tm.abort().is_none());
    }

    #[test]
    fn borrowing_past_quota_charges_a_pressure_stall() {
        let tm = TaskMemory::new(Some(budget_of(1000, 0.0, 4)), 1, 0);
        // quota 400, limit 700: 500 bytes borrows 100 from storage.
        let fx = tm.try_reserve(500, Site::Triangle);
        assert_eq!(fx.mem.spills, 0);
        assert!(fx.stall_micros > 0, "borrowed bytes evict cached data");
        assert_eq!(fx.mem.oom_injected, 0, "borrowing is not an OOM");
    }

    #[test]
    fn degradable_overflow_spills_without_an_oom_event() {
        let tm = TaskMemory::new(Some(budget_of(1000, 0.0, 4)), 1, 0);
        let fx = tm.try_reserve(5000, Site::ShuffleCombine);
        assert_eq!(fx.mem.spills, 1);
        assert_eq!(fx.mem.spill_bytes, 5000);
        assert_eq!(fx.spill_disk_bytes, 5000);
        assert_eq!(fx.mem.oom_injected, 0, "real pressure is a plain spill");
        assert!(tm.abort().is_none());
    }

    #[test]
    fn injected_oom_at_degradable_site_is_survived_by_spilling() {
        // oom_prob = 1: every acquisition is denied.
        let tm = TaskMemory::new(Some(budget_of(GIB, 1.0, 4)), 1, 0);
        let fx = tm.try_reserve(10, Site::ShuffleCombine);
        assert_eq!(fx.mem.oom_injected, 1);
        assert_eq!(fx.mem.oom_survived_by_degradation, 1);
        assert_eq!(fx.mem.oom_killed, 0);
        assert_eq!(fx.mem.spills, 1);
    }

    #[test]
    fn injected_oom_at_rigid_site_kills_then_retries_at_doubled_slice() {
        // 50% prob: some acquisition both rolls OOM at attempt 0 and gets
        // through on a later attempt (halved prob per retry).
        let b = budget_of(GIB, 0.5, 6);
        let mut survived_after_kill = false;
        for part in 0..64 {
            let tm = TaskMemory::new(Some(b), 1, part);
            let fx = tm.try_reserve(10, Site::Triangle);
            assert_eq!(fx.mem.spills, 0);
            if fx.mem.oom_killed == 1 && tm.abort().is_none() {
                survived_after_kill = true;
                assert_eq!(fx.mem.oom_injected, 1);
                assert!(
                    fx.stall_micros >= b.resubmit_micros,
                    "every failed attempt stalls a resubmit round trip"
                );
            }
        }
        assert!(survived_after_kill, "50% over 64 tasks must kill some");
    }

    #[test]
    fn exhausted_retry_ladder_marks_a_typed_abort() {
        // An ask bigger than the whole node can never fit, no matter how
        // often the slice doubles: the ladder exhausts deterministically.
        let b = budget_of(1000, 0.0, 3);
        let tm = TaskMemory::new(Some(b), 1, 5);
        let ask = b.node_limit + 1;
        let fx = tm.try_reserve(ask, Site::BitmapArena);
        assert_eq!(fx.mem.oom_killed, 1);
        let abort = tm.abort().expect("over-node ask never fits");
        assert_eq!(abort.partition, 5);
        assert_eq!(abort.site, Site::BitmapArena);
        assert_eq!(abort.bytes, ask);
        assert_eq!(abort.attempts, 4, "1 launch + 3 retries");
        assert_eq!(fx.stall_micros, 3 * b.resubmit_micros);
    }

    #[test]
    fn real_overflow_at_rigid_site_survives_once_the_slice_doubles_enough() {
        // 150-byte ask against an 87-byte limit: attempt 1 (174) fits.
        let tm = TaskMemory::new(Some(budget_of(1000, 0.0, 4)), 1, 0);
        let tm = TaskMemory::new(
            Some(MemoryBudget {
                per_task_quota: 50,
                per_task_limit: 87,
                ..tm.budget.unwrap()
            }),
            1,
            0,
        );
        let fx = tm.try_reserve(150, Site::Triangle);
        assert_eq!(fx.mem.spills, 0);
        assert_eq!(fx.mem.oom_injected, 1, "real overflow is an OOM event");
        assert_eq!(fx.mem.oom_killed, 1);
        assert!(tm.abort().is_none(), "the doubled slice fits");
        assert_eq!(
            fx.mem.oom_injected,
            fx.mem.oom_killed + fx.mem.oom_survived_by_degradation
        );
    }

    #[test]
    fn reservations_roll_independently_and_deterministically() {
        let b = budget_of(GIB, 0.5, 4);
        let run = || {
            let tm = TaskMemory::new(Some(b), 9, 3);
            (0..16)
                .map(|_| tm.try_reserve(10, Site::ShuffleCombine).mem.spills == 1)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same ledger replays identically");
        assert!(a.contains(&true) && a.contains(&false));
    }

    #[test]
    fn eviction_and_resubmit_charges_are_deterministic() {
        let plan = FaultPlan::seeded(0)
            .with_mem_budget(GIB)
            .with_resubmit_delay(SimDuration::from_secs(0.2));
        let b = MemoryBudget::from_plan(&spec(), &CostModel::default(), &plan).unwrap();
        assert_eq!(b.resubmit_micros, 200_000);
        assert_eq!(b.evict_micros(0), 0);
        assert!(b.evict_micros(1 << 20) > 0);
        assert_eq!(b.evict_micros(1 << 20), b.evict_micros(1 << 20));
    }
}
