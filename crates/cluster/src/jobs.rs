//! Multi-job scheduling: pools, the job queue, and executor grants.
//!
//! One `SimCluster` per job keeps each job's *virtual timeline* independent
//! (virtual clocks never interleave), while a shared [`JobQueue`] decides how
//! much of the physical topology each job may use and in what order FIFO
//! jobs start. Grants are **node slices** — contiguous runs of nodes — that
//! a job's [`crate::sched::VirtualScheduler`] is restricted to.
//!
//! Determinism contract: grants are a pure function of (topology, registered
//! pools, the set of jobs submitted when the grant is read). Benches submit
//! every job on the driver thread *before* any job binds its grant, so the
//! division is identical run-to-run regardless of how the real OS threads
//! interleave afterwards. Completion state never influences grants; FIFO
//! queue offsets are sums of predecessors' reported final virtual times,
//! which are themselves deterministic.
//!
//! Pool semantics:
//!
//! * **Fair** pools share the cluster: each active pool (one with at least
//!   one submitted job) receives a contiguous node range proportional to its
//!   weight, floored at `max(1, min_share_nodes)`, remainders assigned by
//!   largest fractional part (ties to registration order). Jobs inside a
//!   fair pool split the pool's range evenly and start immediately.
//! * **FIFO** pools serialize: every job gets the whole pool range, but job
//!   k blocks in [`JobTicket::await_start`] until jobs 0..k of the pool have
//!   completed, and is charged their summed virtual makespans as
//!   `scheduler_queue` time on its first stage.
//!
//! The queue also owns the cluster-wide shared blacklist: node blacklistings
//! published by one job's fault handling are visible to concurrent jobs'
//! placement (a genuinely bad node is bad for everyone), but never silently —
//! each foreign exclusion is attributed to the consuming job's
//! `sched.blacklist_shared_hits` counter. Entries retire when the publishing
//! job completes.

use crate::sync::{Condvar, Mutex};
use crate::time::SimDuration;
use std::sync::Arc;

/// Default share of a node's memory given to the storage (cache) region —
/// the `* 6 / 10` the cache manager has always used.
pub const DEFAULT_STORAGE_FRACTION: f64 = 0.6;

/// Tunable scheduler behavior, attached to a `SimCluster`.
///
/// The default configuration reproduces the pre-multi-job scheduler
/// bit-for-bit: default locality wait, the historical cache split.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Delay-scheduling wait in virtual seconds (`spark.locality.wait`).
    /// `0` disables locality preference entirely; a very large value pins
    /// tasks strictly to their preferred node.
    pub locality_wait: f64,
    /// Fraction of each node's memory given to the storage (cache) region;
    /// the rest is execution memory (`spark.memory.storageFraction`). Must
    /// lie in `(0, 1]`. The 0.6 default reproduces the historical
    /// `memory_per_node * 6 / 10` cache capacity bit-for-bit.
    pub storage_fraction: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            locality_wait: crate::sched::DEFAULT_LOCALITY_WAIT,
            storage_fraction: DEFAULT_STORAGE_FRACTION,
        }
    }
}

/// How jobs inside one pool share the pool's executor grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Jobs serialize: one at a time, in submission order, each holding the
    /// whole pool range; successors are charged queue time.
    Fifo,
    /// Jobs run concurrently, splitting the pool range evenly.
    Fair,
}

/// One scheduling pool: a named share of the cluster.
#[derive(Clone, Debug)]
pub struct PoolSpec {
    /// Pool name, used as the tag on per-pool metrics
    /// (`sched.pool.<name>.jobs`).
    pub name: String,
    /// Intra-pool policy.
    pub policy: PoolPolicy,
    /// Relative share of the cluster versus other active pools.
    pub weight: f64,
    /// Minimum nodes the pool receives while it has any job, regardless of
    /// weight arithmetic (best-effort once floors exceed the cluster).
    pub min_share_nodes: u32,
}

impl PoolSpec {
    /// A fair pool with the given relative weight and no min share.
    pub fn fair(name: &str, weight: f64) -> Self {
        PoolSpec {
            name: name.to_string(),
            policy: PoolPolicy::Fair,
            weight: weight.max(f64::MIN_POSITIVE),
            min_share_nodes: 0,
        }
    }

    /// A FIFO pool with the given relative weight.
    pub fn fifo(name: &str, weight: f64) -> Self {
        PoolSpec {
            name: name.to_string(),
            policy: PoolPolicy::Fifo,
            weight: weight.max(f64::MIN_POSITIVE),
            min_share_nodes: 0,
        }
    }

    /// Set the pool's minimum node share.
    pub fn min_share(mut self, nodes: u32) -> Self {
        self.min_share_nodes = nodes;
        self
    }
}

/// Identifier of one submitted job, unique within its queue.
pub type JobId = u64;

struct JobRecord {
    pool: usize,
    #[allow(dead_code)]
    name: String,
    done: bool,
    final_virtual: SimDuration,
}

struct QueueState {
    pools: Vec<PoolSpec>,
    jobs: Vec<JobRecord>,
    completed: u64,
}

struct QueueShared {
    state: Mutex<QueueState>,
    cv: Condvar,
    nodes: u32,
    blacklist: SharedBlacklist,
}

/// The cluster-wide multi-job queue. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct JobQueue {
    shared: Arc<QueueShared>,
}

impl JobQueue {
    /// A queue scheduling over `total_nodes` nodes, with a single default
    /// fair pool named `"default"` (weight 1).
    pub fn new(total_nodes: u32) -> Self {
        let q = JobQueue {
            shared: Arc::new(QueueShared {
                state: Mutex::new(QueueState {
                    pools: Vec::new(),
                    jobs: Vec::new(),
                    completed: 0,
                }),
                cv: Condvar::new(),
                nodes: total_nodes.max(1),
                blacklist: SharedBlacklist::new(),
            }),
        };
        q.add_pool(PoolSpec::fair("default", 1.0));
        q
    }

    /// Register a pool. Re-registering a name replaces its spec (so tests
    /// can reweight); grants of already-submitted jobs change accordingly
    /// the next time they are read.
    pub fn add_pool(&self, spec: PoolSpec) {
        let mut st = self.shared.state.lock();
        if let Some(p) = st.pools.iter_mut().find(|p| p.name == spec.name) {
            *p = spec;
        } else {
            st.pools.push(spec);
        }
    }

    /// Nodes this queue schedules over.
    pub fn nodes(&self) -> u32 {
        self.shared.nodes
    }

    /// Submit a job to `pool` (auto-registered as a weight-1 fair pool if
    /// unknown). Returns the ticket the job binds to its cluster.
    pub fn submit(&self, pool: &str, name: &str) -> JobTicket {
        let mut st = self.shared.state.lock();
        let pool_idx = match st.pools.iter().position(|p| p.name == pool) {
            Some(i) => i,
            None => {
                st.pools.push(PoolSpec::fair(pool, 1.0));
                st.pools.len() - 1
            }
        };
        let id = st.jobs.len() as JobId;
        st.jobs.push(JobRecord {
            pool: pool_idx,
            name: name.to_string(),
            done: false,
            final_virtual: SimDuration::ZERO,
        });
        JobTicket {
            queue: self.clone(),
            id,
            pool: pool.to_string(),
        }
    }

    /// Number of jobs submitted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.shared.state.lock().jobs.len() as u64
    }

    /// Number of jobs completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.state.lock().completed
    }

    /// The cluster-owned shared blacklist.
    pub fn shared_blacklist(&self) -> &SharedBlacklist {
        &self.shared.blacklist
    }

    /// Per-pool contiguous node ranges `(lo, count)`, indexed like
    /// `state.pools`; inactive pools (no submitted job) get `(0, 0)`.
    fn pool_ranges(&self, st: &QueueState) -> Vec<(usize, usize)> {
        let nodes = self.shared.nodes as usize;
        let active: Vec<usize> = (0..st.pools.len())
            .filter(|&i| st.jobs.iter().any(|j| j.pool == i))
            .collect();
        let mut counts = vec![0usize; st.pools.len()];
        if active.is_empty() {
            return counts.iter().map(|_| (0, 0)).collect();
        }
        let total_w: f64 = active.iter().map(|&i| st.pools[i].weight).sum();
        // Largest-remainder apportionment of `nodes` across active pools.
        let mut leftover = nodes;
        let mut fracs: Vec<(f64, usize)> = Vec::new();
        for &i in &active {
            let ideal = nodes as f64 * st.pools[i].weight / total_w;
            let base = (ideal.floor() as usize).min(leftover);
            counts[i] = base;
            leftover -= base;
            fracs.push((ideal - ideal.floor(), i));
        }
        // Stable: larger fraction first, registration order breaks ties.
        fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite fractions"));
        for (_, i) in fracs {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        // Best-effort floors: raise starved pools to max(1, min_share),
        // taking nodes from the pool furthest above its own floor.
        for &i in &active {
            let floor = (st.pools[i].min_share_nodes as usize).max(1).min(nodes);
            while counts[i] < floor {
                let donor = active
                    .iter()
                    .copied()
                    .filter(|&j| j != i)
                    .max_by_key(|&j| {
                        let f = (st.pools[j].min_share_nodes as usize).max(1);
                        counts[j].saturating_sub(f)
                    })
                    .filter(|&j| {
                        let f = (st.pools[j].min_share_nodes as usize).max(1);
                        counts[j] > f
                    });
                match donor {
                    Some(j) => {
                        counts[j] -= 1;
                        counts[i] += 1;
                    }
                    None => break,
                }
            }
        }
        // Lay active pools out contiguously in registration order.
        let mut lo = 0usize;
        let mut ranges = vec![(0usize, 0usize); st.pools.len()];
        for &i in &active {
            ranges[i] = (lo.min(nodes.saturating_sub(1)), counts[i]);
            lo += counts[i];
        }
        ranges
    }

    /// The node slice `(node_lo, node_count)` job `id` holds right now —
    /// a pure function of the submitted-job set (see module docs).
    pub fn grant_for(&self, id: JobId) -> (usize, usize) {
        let st = self.shared.state.lock();
        let job = &st.jobs[id as usize];
        let (pool_lo, pool_count) = self.pool_ranges(&st)[job.pool];
        let pool_count = pool_count.max(1);
        match st.pools[job.pool].policy {
            // FIFO jobs hold the whole pool range, one at a time.
            PoolPolicy::Fifo => (pool_lo, pool_count),
            PoolPolicy::Fair => {
                let peers: Vec<JobId> = st
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.pool == job.pool)
                    .map(|(i, _)| i as JobId)
                    .collect();
                let k = peers.len().max(1);
                let rank = peers.iter().position(|&p| p == id).expect("job in pool");
                let per = (pool_count / k).max(1);
                // Oversubscription (more jobs than nodes) overlaps slices;
                // harmless since each job has its own virtual timeline.
                let lo = pool_lo + (rank * per).min(pool_count - per.min(pool_count));
                (lo, per)
            }
        }
    }

    /// Block until job `id` may start (immediately for fair pools), and
    /// return the virtual queue time to charge to its first stage: the sum
    /// of the final virtual times of the FIFO predecessors it waited on.
    pub fn await_start(&self, id: JobId) -> SimDuration {
        let mut st = self.shared.state.lock();
        let pool = st.jobs[id as usize].pool;
        if st.pools[pool].policy == PoolPolicy::Fair {
            return SimDuration::ZERO;
        }
        loop {
            let pending: Vec<usize> = st
                .jobs
                .iter()
                .enumerate()
                .filter(|&(i, j)| j.pool == pool && (i as JobId) < id && !j.done)
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                return st
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|&(i, j)| j.pool == pool && (i as JobId) < id)
                    .map(|(_, j)| j.final_virtual)
                    .fold(SimDuration::ZERO, |a, b| a + b);
            }
            st = self.shared.cv.wait(st);
        }
    }

    /// Mark job `id` complete at final virtual time `final_virtual`, wake
    /// FIFO successors, and retire the job's shared-blacklist entries.
    pub fn complete(&self, id: JobId, final_virtual: SimDuration) {
        {
            let mut st = self.shared.state.lock();
            let job = &mut st.jobs[id as usize];
            if job.done {
                return;
            }
            job.done = true;
            job.final_virtual = final_virtual;
            st.completed += 1;
        }
        self.shared.blacklist.remove_job(id);
        self.shared.cv.notify_all();
    }
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("JobQueue")
            .field("nodes", &self.shared.nodes)
            .field("pools", &st.pools.len())
            .field("jobs", &st.jobs.len())
            .field("completed", &st.completed)
            .finish()
    }
}

/// One job's handle into the queue. Clone-able; all clones refer to the
/// same submitted job.
#[derive(Clone)]
pub struct JobTicket {
    queue: JobQueue,
    id: JobId,
    pool: String,
}

impl JobTicket {
    /// This job's queue-wide id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Name of the pool the job was submitted to.
    pub fn pool(&self) -> &str {
        &self.pool
    }

    /// The owning queue.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Current executor grant (see [`JobQueue::grant_for`]).
    pub fn grant(&self) -> (usize, usize) {
        self.queue.grant_for(self.id)
    }

    /// Block until the job may start; returns the queue time to charge.
    pub fn await_start(&self) -> SimDuration {
        self.queue.await_start(self.id)
    }

    /// Report completion at `final_virtual` (idempotent).
    pub fn complete(&self, final_virtual: SimDuration) {
        self.queue.complete(self.id, final_virtual);
    }
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("id", &self.id)
            .field("pool", &self.pool)
            .finish()
    }
}

/// Cluster-owned blacklist visible across jobs: `(node, publishing job)`
/// pairs. A consuming job excludes *foreign* entries from placement and
/// counts each exclusion into its `sched.blacklist_shared_hits` counter —
/// sharing is deliberate, silence is not.
#[derive(Clone, Default)]
pub struct SharedBlacklist {
    entries: Arc<Mutex<Vec<(u32, JobId)>>>,
}

impl SharedBlacklist {
    /// An empty shared blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish: `job` blacklisted `node`.
    pub fn publish(&self, node: u32, job: JobId) {
        let mut g = self.entries.lock();
        if !g.iter().any(|&(n, j)| n == node && j == job) {
            g.push((node, job));
        }
    }

    /// Nodes blacklisted by jobs *other than* `job`, deduplicated, sorted.
    pub fn foreign_nodes(&self, job: JobId) -> Vec<u32> {
        let g = self.entries.lock();
        let mut nodes: Vec<u32> = g
            .iter()
            .filter(|&&(_, j)| j != job)
            .map(|&(n, _)| n)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Retire every entry published by `job` (called on job completion).
    pub fn remove_job(&self, job: JobId) {
        self.entries.lock().retain(|&(_, j)| j != job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_legacy_scheduler() {
        let c = SchedulerConfig::default();
        assert_eq!(c.locality_wait, crate::sched::DEFAULT_LOCALITY_WAIT);
        assert_eq!(c.storage_fraction, 0.6, "legacy 60% cache split");
    }

    #[test]
    fn fair_pools_split_by_weight() {
        let q = JobQueue::new(12);
        q.add_pool(PoolSpec::fair("interactive", 2.0));
        q.add_pool(PoolSpec::fair("batch", 1.0));
        let a = q.submit("interactive", "a");
        let b = q.submit("batch", "b");
        assert_eq!(a.grant(), (0, 8), "weight 2 of 3 over 12 nodes");
        assert_eq!(b.grant(), (8, 4), "weight 1 of 3, after interactive");
    }

    #[test]
    fn inactive_pools_get_nothing() {
        let q = JobQueue::new(10);
        q.add_pool(PoolSpec::fair("idle", 100.0));
        let a = q.submit("default", "only");
        assert_eq!(
            a.grant(),
            (0, 10),
            "idle pool has no jobs, default gets all"
        );
    }

    #[test]
    fn jobs_within_a_fair_pool_split_evenly() {
        let q = JobQueue::new(8);
        let a = q.submit("default", "a");
        let b = q.submit("default", "b");
        assert_eq!(a.grant(), (0, 4));
        assert_eq!(b.grant(), (4, 4));
        // A third job narrows everyone (8/3 = 2 each, contiguous).
        let c = q.submit("default", "c");
        assert_eq!(a.grant(), (0, 2));
        assert_eq!(b.grant(), (2, 2));
        assert_eq!(c.grant(), (4, 2));
    }

    #[test]
    fn min_share_floors_hold() {
        let q = JobQueue::new(10);
        q.add_pool(PoolSpec::fair("big", 100.0));
        q.add_pool(PoolSpec::fair("small", 0.001).min_share(3));
        let a = q.submit("big", "a");
        let b = q.submit("small", "b");
        assert_eq!(a.grant().1 + b.grant().1, 10);
        assert!(b.grant().1 >= 3, "min share honored: {:?}", b.grant());
    }

    #[test]
    fn oversubscribed_fair_pool_still_grants_a_node() {
        let q = JobQueue::new(2);
        let tickets: Vec<_> = (0..5)
            .map(|i| q.submit("default", &format!("j{i}")))
            .collect();
        for t in &tickets {
            let (lo, count) = t.grant();
            assert_eq!(count, 1);
            assert!(lo < 2);
        }
    }

    #[test]
    fn fifo_pool_serializes_and_charges_queue_time() {
        let q = JobQueue::new(4);
        q.add_pool(PoolSpec::fifo("etl", 1.0));
        let a = q.submit("etl", "first");
        let b = q.submit("etl", "second");
        // Both hold the whole pool range.
        assert_eq!(a.grant(), b.grant());
        assert_eq!(a.await_start(), SimDuration::ZERO);
        // b blocks until a completes; run the wait on a helper thread.
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.await_start());
        a.complete(SimDuration::from_secs(7.5));
        assert_eq!(h.join().expect("waiter"), SimDuration::from_secs(7.5));
        assert_eq!(q.jobs_completed(), 1);
    }

    #[test]
    fn fifo_offsets_accumulate_across_predecessors() {
        let q = JobQueue::new(4);
        q.add_pool(PoolSpec::fifo("etl", 1.0));
        let a = q.submit("etl", "a");
        let b = q.submit("etl", "b");
        let c = q.submit("etl", "c");
        a.complete(SimDuration::from_secs(2.0));
        b.complete(SimDuration::from_secs(3.0));
        assert_eq!(c.await_start(), SimDuration::from_secs(5.0));
    }

    #[test]
    fn complete_is_idempotent() {
        let q = JobQueue::new(4);
        let a = q.submit("default", "a");
        a.complete(SimDuration::from_secs(1.0));
        a.complete(SimDuration::from_secs(9.0));
        assert_eq!(q.jobs_completed(), 1);
    }

    #[test]
    fn shared_blacklist_attributes_and_retires() {
        let bl = SharedBlacklist::new();
        bl.publish(3, 0);
        bl.publish(5, 0);
        bl.publish(3, 0); // duplicate ignored
        bl.publish(7, 1);
        assert_eq!(bl.foreign_nodes(1), vec![3, 5], "job 1 sees job 0's nodes");
        assert_eq!(bl.foreign_nodes(0), vec![7]);
        bl.remove_job(0);
        assert!(
            bl.foreign_nodes(1).is_empty(),
            "entries retire with the job"
        );
    }

    #[test]
    fn grants_tile_the_cluster_for_many_pools() {
        let q = JobQueue::new(100);
        q.add_pool(PoolSpec::fair("a", 3.0));
        q.add_pool(PoolSpec::fair("b", 2.0));
        q.add_pool(PoolSpec::fifo("c", 1.0));
        let ja = q.submit("a", "ja");
        let jb = q.submit("b", "jb");
        let jc = q.submit("c", "jc");
        let (alo, ac) = ja.grant();
        let (blo, bc) = jb.grant();
        let (clo, cc) = jc.grant();
        assert_eq!(ac + bc + cc, 100, "active pools tile the cluster");
        assert_eq!(alo, 0);
        assert_eq!(blo, ac);
        assert_eq!(clo, ac + bc);
        assert_eq!(ac, 50);
        assert_eq!(bc, 33);
        assert_eq!(cc, 17);
    }
}
