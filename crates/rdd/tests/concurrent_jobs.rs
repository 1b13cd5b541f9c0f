//! Property test for the multi-job scheduler's core promise: N jobs
//! running *concurrently* — bound to one shared [`JobQueue`], each
//! restricted to its pool's executor grant, FIFO pools serializing, one
//! job recovering from a seeded node loss — produce results byte-identical
//! to the same lineages run sequentially on unbound clusters. Randomized
//! operator lineages, both exec modes. Pool grants, queue waits and
//! fault recovery may only ever move virtual time, never data.

use yafim_cluster::{
    critical_path, ClusterSpec, CostModel, FaultPlan, JobQueue, NodeId, PoolSpec, SimCluster,
    SimDuration, SimInstant,
};
use yafim_rdd::{Context, ExecMode, Rdd, RddConfig, StorageLevel};

/// Tiny deterministic generator for test inputs (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn data(&mut self, max_len: u64) -> Vec<u32> {
        let n = self.range(8, max_len) as usize;
        (0..n).map(|_| self.next() as u32).collect()
    }
}

const CASES: usize = 8;
const NODES: u32 = 6;

/// One randomly chosen operator, parameters pinned for rebuilding the
/// identical lineage on every cluster.
#[derive(Clone, Copy, Debug)]
enum Op {
    Map(u32),
    Filter(u32),
    FlatMap(u32),
    Cache,
    UnionSelf,
}

fn random_plan(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.range(0, 5) {
            0 => Op::Map(rng.next() as u32),
            1 => Op::Filter(rng.next() as u32),
            2 => Op::FlatMap(rng.next() as u32),
            3 => Op::Cache,
            _ => Op::UnionSelf,
        })
        .collect()
}

fn apply(rdd: Rdd<u32>, op: Op) -> Rdd<u32> {
    match op {
        Op::Map(k) => rdd.map(move |x| x.wrapping_mul(2_654_435_761).wrapping_add(k)),
        Op::Filter(m) => rdd.filter(move |x| x % (m % 7 + 2) != 0),
        Op::FlatMap(k) => rdd.flat_map(move |x| {
            (0..x.wrapping_add(k) % 3)
                .map(move |i| x.wrapping_add(i))
                .collect::<Vec<u32>>()
        }),
        Op::Cache => rdd.cache(),
        Op::UnionSelf => rdd.union(&rdd),
    }
}

/// The lineage under test: random narrow ops with one shuffle in the
/// middle, so jobs exercise map-output provenance under their grants.
fn build(c: &Context, data: &[u32], parts: usize, plan: &[Op]) -> Rdd<u32> {
    let mut rdd = c.parallelize_with_partitions(data.to_vec(), parts);
    for (i, op) in plan.iter().enumerate() {
        rdd = apply(rdd, *op);
        if i == plan.len() / 2 {
            rdd = rdd
                .map(|x| (x % 32, x as u64))
                .reduce_by_key(|a, b| a.wrapping_add(b))
                .map(|(k, v)| k.wrapping_add(v as u32));
        }
    }
    rdd
}

fn ctx_on(cluster: SimCluster, mode: ExecMode) -> Context {
    let mut config = RddConfig::for_cluster(&cluster);
    config.exec_mode = mode;
    Context::with_config(cluster, config)
}

fn small_cluster() -> SimCluster {
    SimCluster::with_threads(
        ClusterSpec::new(NODES, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    )
}

/// N concurrent jobs over one queue == the same jobs run sequentially on
/// unbound clusters, byte for byte — with a fair 2:1 pool split, a FIFO
/// pool serializing two jobs, and one job losing a node mid-run.
#[test]
fn concurrent_jobs_match_sequential_runs_bit_for_bit() {
    let mut rng = Rng(0x0c0_c0de);
    for case in 0..CASES {
        let data = rng.data(100);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let fault_seed = rng.next();

        for mode in [ExecMode::Fused, ExecMode::Eager] {
            // Sequential reference: unbound cluster, no queue, no faults.
            let reference = {
                let c = ctx_on(small_cluster(), mode);
                build(&c, &data, parts, &plan).collect()
            };

            let queue = JobQueue::new(NODES);
            queue.add_pool(PoolSpec::fair("interactive", 2.0));
            queue.add_pool(PoolSpec::fair("batch", 1.0));
            queue.add_pool(PoolSpec::fifo("etl", 1.0));
            // Submit everything before any job binds: grants are a pure
            // function of the submitted set.
            let defs = [
                ("interactive", false),
                ("batch", true), // the node-loss probe
                ("etl", false),
                ("etl", false), // FIFO successor: waits for the one above
            ];
            let tickets: Vec<_> = defs
                .iter()
                .map(|(pool, _)| queue.submit(pool, "prop"))
                .collect();

            let handles: Vec<_> = defs
                .iter()
                .zip(tickets)
                .map(|(&(pool, faulted), ticket)| {
                    let data = data.clone();
                    let plan = plan.clone();
                    std::thread::spawn(move || {
                        let cluster = small_cluster();
                        if faulted {
                            let (lo, _) = ticket.grant();
                            cluster
                                .faults()
                                .set_plan(FaultPlan::seeded(fault_seed).lose_node_at(
                                    NodeId(lo as u32),
                                    SimInstant::EPOCH + SimDuration::from_secs(0.01),
                                ));
                        }
                        cluster.attach_job(&ticket);
                        let guard = cluster.acquire_job(pool);
                        let c = ctx_on(cluster.clone(), mode);
                        let out = build(&c, &data, parts, &plan);
                        let collected = out.collect();
                        drop(guard);
                        let report = critical_path(cluster.metrics(), cluster.cost());
                        (collected, report, cluster)
                    })
                })
                .collect();

            for (i, h) in handles.into_iter().enumerate() {
                let (collected, report, cluster) = h.join().unwrap();
                let (pool, faulted) = defs[i];
                assert_eq!(
                    collected, reference,
                    "case {case} {mode:?}: job {i} ({pool}) diverged from sequential run"
                );
                // Bucket tiling holds per job, queue wait included.
                let makespan = cluster.metrics().now().as_secs();
                assert!(
                    (report.buckets.total() - makespan).abs() < 1e-6,
                    "case {case} {mode:?}: job {i} buckets {} != makespan {makespan}",
                    report.buckets.total()
                );
                // Fault recovery stays inside the faulted job.
                let lost = cluster.metrics().snapshot().recovery.nodes_lost;
                if faulted {
                    assert!(lost >= 1, "case {case}: planted node loss never fired");
                } else {
                    assert_eq!(lost, 0, "case {case}: job {i} ({pool}) lost a node");
                }
                // The second FIFO job waited for the first.
                if i == 3 {
                    assert!(
                        report.buckets.scheduler_queue > 0.0,
                        "case {case} {mode:?}: FIFO successor charged no queue time"
                    );
                }
            }
            assert_eq!(queue.jobs_completed(), defs.len() as u64);
        }
    }
}

/// Fair-pool jobs under a starved memory budget: the governor's per-task
/// slice rounds to zero so every shuffle combine buffer spills through
/// local disk, a 64-byte cache demotes every `MemoryAndDisk` partition to
/// the disk tier, and one job additionally loses a node — yet every
/// result stays byte-identical to an unbound, unbudgeted solo run.
/// Memory pressure, like pool grants and faults, may only move virtual
/// time, never data.
#[test]
fn tight_budget_jobs_spill_and_match_solo_runs() {
    // 1 byte/node: storage rounds to 0, the per-core execution slice to 0,
    // so any non-empty combine buffer overflows and takes the spill rung.
    const TIGHT_BUDGET: u64 = 1;

    let mut rng = Rng(0xb007_1e55);
    for case in 0..CASES / 2 {
        let data = rng.data(100);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let fault_seed = rng.next();

        for mode in [ExecMode::Fused, ExecMode::Eager] {
            // Solo reference: unbound cluster, no queue, no budget.
            let reference = {
                let c = ctx_on(small_cluster(), mode);
                let rdd = build(&c, &data, parts, &plan).persist(StorageLevel::MemoryAndDisk);
                let once = rdd.collect();
                assert_eq!(once, rdd.collect(), "solo re-read must be stable");
                once
            };

            let queue = JobQueue::new(NODES);
            queue.add_pool(PoolSpec::fair("interactive", 2.0));
            queue.add_pool(PoolSpec::fair("batch", 1.0));
            // The node loss rides on the interactive job: its 4-node fair
            // grant survives losing one; a 1-node batch grant would not.
            let defs = [("interactive", true), ("batch", false), ("batch", false)];
            let tickets: Vec<_> = defs
                .iter()
                .map(|(pool, _)| queue.submit(pool, "tight"))
                .collect();

            let handles: Vec<_> = defs
                .iter()
                .zip(tickets)
                .map(|(&(pool, faulted), ticket)| {
                    let data = data.clone();
                    let plan = plan.clone();
                    std::thread::spawn(move || {
                        let cluster = small_cluster();
                        let mut fp = FaultPlan::seeded(fault_seed).with_mem_budget(TIGHT_BUDGET);
                        if faulted {
                            let (lo, _) = ticket.grant();
                            fp = fp.lose_node_at(
                                NodeId(lo as u32),
                                SimInstant::EPOCH + SimDuration::from_secs(0.01),
                            );
                        }
                        cluster.faults().set_plan(fp);
                        cluster.attach_job(&ticket);
                        let guard = cluster.acquire_job(pool);
                        let mut config = RddConfig::for_cluster(&cluster);
                        config.exec_mode = mode;
                        // A zero-byte cache: every non-empty MemoryAndDisk
                        // partition demotes straight to the disk tier.
                        config.cache_capacity_per_node = Some(0);
                        let c = Context::with_config(cluster.clone(), config);
                        let rdd =
                            build(&c, &data, parts, &plan).persist(StorageLevel::MemoryAndDisk);
                        let first = rdd.collect();
                        let second = rdd.collect();
                        drop(guard);
                        let disk_hits = c.cache().stats().disk_hits;
                        (first, second, disk_hits, cluster)
                    })
                })
                .collect();

            for (i, h) in handles.into_iter().enumerate() {
                let (first, second, disk_hits, cluster) = h.join().unwrap();
                let (pool, faulted) = defs[i];
                assert_eq!(
                    first, reference,
                    "case {case} {mode:?}: job {i} ({pool}) diverged under the tight budget"
                );
                assert_eq!(
                    second, reference,
                    "case {case} {mode:?}: job {i} ({pool}) re-read diverged"
                );
                let rec = cluster.metrics().snapshot().recovery;
                assert!(
                    rec.mem.spills > 0 && rec.mem.spill_bytes > 0,
                    "case {case} {mode:?}: job {i} ({pool}) never spilled a combine buffer"
                );
                assert_eq!(
                    rec.mem.oom_killed, 0,
                    "case {case} {mode:?}: degradable spills must never kill a task"
                );
                if !reference.is_empty() {
                    assert!(
                        disk_hits > 0,
                        "case {case} {mode:?}: job {i} ({pool}) never served a \
                         MemoryAndDisk partition from the disk tier"
                    );
                }
                if faulted {
                    assert!(
                        rec.nodes_lost >= 1,
                        "case {case}: planted node loss never fired"
                    );
                } else {
                    assert_eq!(
                        rec.nodes_lost, 0,
                        "case {case}: job {i} ({pool}) lost a node"
                    );
                }
            }
            assert_eq!(queue.jobs_completed(), defs.len() as u64);
        }
    }
}
