//! The executor: runs stages on the real thread pool and charges virtual
//! time for them.
//!
//! An action is one *job*. A job is: per-job driver overhead, then every
//! shuffle stage in the lineage (bottom-up, deduplicated), then the final
//! stage, then the cost of fetching results to the driver.
//!
//! Each stage runs its tasks for real (pool-parallel), gathers per-task
//! [`yafim_cluster::WorkCounters`], converts them into virtual durations
//! under the cost model, list-schedules those durations onto the virtual
//! cluster, and advances the shared virtual clock by the stage overhead plus
//! the makespan.
//!
//! Under a [`yafim_cluster::FaultPlan`] the cluster's stage recorder
//! retries, reschedules and speculates on the virtual timeline only, so
//! results stay byte-identical. Node losses also invalidate data *between*
//! stages: cached partitions are evicted (recomputed through lineage on the
//! next read), shuffle map outputs are marked lost (resubmitted by the next
//! consumer), and broadcast blocks are re-fetched.

use crate::context::Context;
use crate::rdd::{materialize, node_for, CheckpointRdd, Data, Pipe, Rdd, RddImpl};
use crate::shuffle::ShuffleStage;
use crate::task::TaskContext;
use std::sync::Arc;
use yafim_cluster::sync::Mutex;
use yafim_cluster::{
    fx_hash64, slice_bytes, slice_records, EngineCounters, EventKind, ExecError, NodeId,
    RecoveryCounters, SimCluster, SimDuration, StageFrame, StageKind, TaskProfile, TaskSpec,
    VirtualScheduler, WorkCounters,
};

/// What one node loss took with it (returned by
/// [`FaultInjection::lose_node`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLossReport {
    /// The node that died.
    pub node: NodeId,
    /// Cached partitions the node held; each will be recomputed through its
    /// lineage on the next read.
    pub cached_partitions_dropped: usize,
    /// Shuffle map outputs the node held; the next consumer resubmits just
    /// those map tasks.
    pub map_outputs_lost: usize,
}

/// A task body: partition index + task context → per-partition result. The
/// context is shared (`&TaskContext`): a fused pipeline's adapters all hold
/// it while elements stream through, charging work via interior mutability.
pub(crate) type TaskFn<R> = Arc<dyn Fn(usize, &TaskContext) -> R + Send + Sync>;

/// Run one stage: apply pending node losses, refuse it if `readable` finds
/// a block its tasks would read with no readable copy left, run `task` once
/// per partition on the pool, and schedule and file it on the cluster clock
/// ([`yafim_cluster::SimCluster::schedule_and_record`]). Returns results in
/// partition order, plus the node each task's *winning* attempt ran on
/// (shuffle map-output provenance).
pub(crate) fn try_run_stage<R: Send + 'static>(
    ctx: &Context,
    label: String,
    kind: StageKind,
    shuffle_id: Option<u64>,
    preferred: Vec<Option<NodeId>>,
    readable: &dyn Fn() -> Result<(), ExecError>,
    task: TaskFn<R>,
) -> Result<(Vec<R>, Vec<NodeId>), ExecError> {
    let cluster = ctx.cluster().clone();
    let spec = cluster.spec().clone();

    sync_node_losses(ctx);
    readable()?;

    // One memory budget and OOM hash key per stage: every task reserves
    // against the same deterministic slice, and rolls are keyed by
    // (stage, partition, attempt) so a given plan always denies the same
    // acquisitions regardless of host-thread interleaving.
    let budget = cluster.memory_budget();
    let stage_key = fx_hash64(&(label.as_str(), cluster.metrics().now().as_secs().to_bits()));

    // Every task reads the cache as of now, so a partition one task caches
    // is not there yet for its siblings: who hits and who computes is a
    // function of the plan, never of how the host interleaves the tasks.
    let cache_as_of = ctx.cache().watermark();

    let (parts, preferred_for_tasks) = ((0..preferred.len()).collect(), preferred.clone());
    let outcomes: Vec<(R, TaskProfile, Option<yafim_cluster::OomAbort>)> =
        cluster.pool().map(parts, move |_, part| {
            let node = preferred_for_tasks[part].unwrap_or_else(|| spec.home_node(part));
            let tc = TaskContext::with_memory(part, node, budget, stage_key, cache_as_of);
            let r = task(part, &tc);
            let abort = tc.oom_abort();
            (r, tc.into_profile(), abort)
        });

    // A task that exhausted its OOM retry ladder kills the whole job with a
    // typed error; partial results never escape. Scanned in partition order
    // so the reported task is deterministic.
    if let Some(abort) = outcomes.iter().find_map(|(_, _, a)| *a) {
        return Err(ExecError::OutOfMemory {
            stage: label,
            partition: abort.partition,
            site: abort.site,
            bytes: abort.bytes,
            attempts: abort.attempts,
        });
    }

    let cost = cluster.cost();
    let specs: Vec<TaskSpec> = outcomes
        .iter()
        .zip(&preferred)
        .map(|((_, profile, _), pref)| TaskSpec {
            duration: SimDuration::from_secs(cost.spark_task_overhead)
                + profile.work.data_time(cost),
            preferred_node: *pref,
        })
        .collect();
    let frame = StageFrame {
        label,
        kind,
        shuffle_id,
        overhead: SimDuration::from_secs(cost.spark_stage_overhead),
        ..StageFrame::default()
    };
    let profiles = outcomes.iter().map(|(_, profile, _)| *profile);
    let executed_on = cluster.schedule_and_record(frame, &specs, profiles.enumerate())?;
    cluster.metrics().note_engine(&EngineCounters {
        cache_peak_bytes: ctx.cache().stats().peak_bytes,
        task_budget_bytes: budget.map_or(0, |b| b.node_limit),
        ..EngineCounters::default()
    });

    Ok((
        outcomes.into_iter().map(|(r, _, _)| r).collect(),
        executed_on,
    ))
}

/// Apply the data-loss side effects of every planned node loss whose virtual
/// instant has passed (each exactly once): evict the node's cached
/// partitions, mark its shuffle map outputs lost, charge the broadcast
/// re-fetch. Returns one report per newly-applied loss.
pub(crate) fn sync_node_losses(ctx: &Context) -> Vec<NodeLossReport> {
    let losses = ctx.cluster().faults().take_new_losses(ctx.metrics().now());
    let apply = |node| apply_node_loss(ctx, node);
    losses.into_iter().map(apply).collect()
}

/// Invalidate everything `node` held and charge the recovery traffic. The
/// lost data is *not* recomputed here — lineage does that lazily: the next
/// cache read recomputes the partition, the next shuffle consumer resubmits
/// the lost map tasks.
pub(crate) fn apply_node_loss(ctx: &Context, node: NodeId) -> NodeLossReport {
    let cached = ctx.cache().evict_node(node.index());
    let map_lost = ctx.shuffles().mark_node_lost(node);
    // Checkpoint replicas on the node are gone too; remaining replicas keep
    // serving reads (a block only disappears when every replica is lost).
    ctx.cluster().hdfs().checkpoint_drop_node(node);
    let metrics = ctx.metrics().clone();
    let cost = ctx.cluster().cost().clone();

    let mut rec = RecoveryCounters {
        nodes_lost: 1,
        recomputed_partitions: cached as u64,
        cached_partitions_dropped: cached as u64,
        map_outputs_lost: map_lost as u64,
        ..RecoveryCounters::default()
    };

    // Torrent blocks the dead executor served are re-replicated from the
    // survivors: charge the dead node's share of the broadcasts still
    // referenced (a dropped one is never read again).
    let bcast = ctx.live_broadcast_bytes();
    let nodes = ctx.cluster().spec().nodes as u64;
    let refetch = bcast / nodes.max(1);
    if refetch > 0 {
        metrics.advance_with_event(
            cost.net_transfer(refetch),
            EventKind::Broadcast,
            format!("broadcast re-fetch after {node} loss ({refetch}B)"),
        );
        rec.broadcast_refetches = 1;
        rec.broadcast_refetch_bytes = refetch;
    }

    metrics.advance_with_event(
        SimDuration::ZERO,
        EventKind::Other,
        format!(
            "{node} lost: {cached} cached partitions dropped, \
             {map_lost} shuffle map outputs lost"
        ),
    );
    metrics.note_recovery(&rec);
    NodeLossReport {
        node,
        cached_partitions_dropped: cached,
        map_outputs_lost: map_lost,
    }
}

/// Prepare (run) every shuffle stage the lineage of `imp` depends on, and
/// keep repairing until all of them are complete: preparing advances the
/// virtual clock, so a planned node loss can trigger *while* preparing and
/// invalidate map outputs just produced.
fn prepare_shuffles<T: Data>(ctx: &Context, imp: &Arc<dyn RddImpl<T>>) -> Result<(), ExecError> {
    loop {
        let mut deps: Vec<Arc<dyn ShuffleStage>> = Vec::new();
        imp.collect_shuffle_deps(&mut deps);
        // The same shuffle can appear twice in one lineage (e.g. a union of
        // two branches over the same reduced RDD); prepare it once.
        let mut seen = std::collections::HashSet::new();
        for d in &deps {
            if seen.insert(d.shuffle_id()) {
                d.prepare()?;
            }
        }
        let no_new_losses = sync_node_losses(ctx).is_empty();
        let all_complete = deps
            .iter()
            .all(|d| ctx.shuffles().is_complete(d.shuffle_id()));
        if no_new_losses && all_complete {
            return Ok(());
        }
    }
}

/// Run the final stage of a job over the partitions `only` names, or all
/// of them: `task` consumes each partition's pipeline (the job's last
/// pipeline breaker) and its result goes to the driver. Also returns the
/// node each task's winning attempt ran on.
fn run_final_stage<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    label: String,
    only: Option<Vec<usize>>,
    task: impl for<'a> Fn(Pipe<'a, T>, &'a TaskContext) -> R + Send + Sync + 'static,
) -> Result<(Vec<R>, Vec<NodeId>), ExecError> {
    let imp = Arc::clone(&rdd.imp);
    let parts = only.unwrap_or_else(|| (0..imp.num_partitions()).collect());
    let preferred: Vec<Option<NodeId>> = parts
        .iter()
        .map(|&p| imp.preferred_node(p).or_else(|| Some(node_for(&imp, p))))
        .collect();
    let shuffle_read = imp.shuffle_read_id();
    try_run_stage(
        &rdd.ctx,
        label,
        StageKind::Result,
        shuffle_read,
        preferred,
        &|| rdd.imp.preflight(),
        Arc::new(move |i, tc: &TaskContext| task(materialize(&imp, parts[i], tc), tc)),
    )
}

/// Run `body` as one job called `name`: the job span and the per-job
/// driver overhead, every shuffle stage the lineage depends on, then `body`
/// — the final stage and what the driver pays for its results. Losses that
/// triggered during the final stage surface inside this job rather than
/// lingering until the next action.
fn run_job<T: Data, R>(
    rdd: &Rdd<T>,
    name: &str,
    body: impl FnOnce() -> Result<R, ExecError>,
) -> Result<R, ExecError> {
    let ctx = &rdd.ctx;
    let job = ctx.metrics().begin_job(name);
    ctx.metrics().advance(SimDuration::from_secs(
        ctx.cluster().cost().spark_job_overhead,
    ));
    let result = (|| {
        prepare_shuffles(ctx, &rdd.imp)?;
        let out = body()?;
        sync_node_losses(ctx);
        Ok(out)
    })();
    ctx.metrics().end_job(job);
    result
}

/// The `collect` action.
pub(crate) fn try_collect<T: Data>(rdd: &Rdd<T>) -> Result<Vec<T>, ExecError> {
    let name = format!("collect rdd{}", rdd.id());
    let parts = run_job(rdd, &name, || {
        // Each partition's pipeline collapses into a buffer for the fetch.
        let (parts, _) = run_final_stage(rdd, name.clone(), None, |pipe, tc| {
            let data = pipe.into_arc(tc);
            tc.note_records_written(slice_records(&data));
            data
        })?;

        // Results are serialized on the workers and fetched to the driver.
        let result_bytes: u64 = parts.iter().map(|p| slice_bytes(p)).sum();
        let cost = rdd.ctx.cluster().cost();
        let fetch = cost.serialize(result_bytes) + cost.net_transfer(result_bytes);
        rdd.ctx.metrics().advance(fetch);
        Ok(parts)
    })?;
    let mut out = Vec::new();
    for p in parts {
        out.extend(p.iter().cloned());
    }
    Ok(out)
}

/// The `checkpoint` action: materialize every partition of `rdd` to
/// replicated blocks in simulated HDFS and return a [`CheckpointRdd`] that
/// reads them back. One job, one write stage; each task serializes its partition, writes the
/// primary replica to local disk and ships the remaining replicas over the
/// network (pipelined, like an HDFS block write).
pub(crate) fn try_checkpoint<T: Data>(rdd: &Rdd<T>) -> Result<Rdd<T>, ExecError> {
    let ctx = &rdd.ctx;
    run_job(rdd, &format!("checkpoint rdd{}", rdd.id()), || {
        let partitions = rdd.num_partitions();
        let cp = CheckpointRdd::<T>::new(ctx, partitions);
        let cp_id = cp.meta.id;
        let cluster = ctx.cluster().clone();
        let replication = cluster.hdfs().replication() as u64;
        let label = format!("checkpoint rdd{} -> rdd{cp_id}", rdd.id());
        run_final_stage(rdd, label, None, move |pipe, tc| {
            let data = pipe.into_arc(tc);
            let bytes = slice_bytes(&data);
            tc.add_ser(bytes); // serialize the block for stable storage
            tc.add_disk_write(bytes); // primary replica, node-local
            tc.add_net(bytes * replication.saturating_sub(1)); // pipeline to the others
            tc.add_stall_micros(cluster.checksum_micros(bytes)); // verified by replica reads
            tc.note_records_written(slice_records(&data));
            cluster
                .hdfs()
                .checkpoint_put(cp_id, tc.partition, data, bytes, tc.node);
        })
        // Every task wrote its block for real before the virtual schedule
        // could abort the stage: a refused checkpoint leaves none behind.
        .inspect_err(|_| {
            ctx.cluster().hdfs().checkpoint_remove(cp_id);
        })?;
        ctx.metrics().note_recovery(&RecoveryCounters {
            checkpoint_writes: partitions as u64,
            ..RecoveryCounters::default()
        });
        Ok(Rdd::from_impl(ctx.clone(), Arc::new(cp)))
    })
}

/// The `count` action: computes every partition but only its length crosses
/// the network.
pub(crate) fn try_count<T: Data>(rdd: &Rdd<T>) -> Result<u64, ExecError> {
    let name = format!("count rdd{}", rdd.id());
    // Each pipeline is drained without buffering; only lengths are fetched.
    let count = |pipe: Pipe<'_, T>, _: &TaskContext| pipe.count();
    let (lens, _) = run_job(rdd, &name, || {
        run_final_stage(rdd, name.clone(), None, count)
    })?;
    Ok(lens.iter().sum())
}

/// Size of the partial result one task of [`Rdd::try_aggregate`] would have
/// shipped to the driver. A *modelled quantity* (DESIGN.md §5): the host
/// folds each partition straight into a per-worker accumulator, so no
/// per-task partial exists to be measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialSize {
    /// Records in the partial.
    pub records: u64,
    /// Their serialized size.
    pub bytes: u64,
}

/// Reduce task `i` of `n`'s even share of a total `x`.
fn share(x: u64, i: usize, n: usize) -> u64 {
    let upto = |i: usize| (u128::from(x) * i as u128 / n as u128) as u64;
    upto(i + 1) - upto(i)
}

/// What reduce task `i` of `n` does: fetch its even share of the partials
/// `sum` over the node links, deserialize it and pay one CPU unit per record.
fn reduce_work(sum: PartialSize, i: usize, n: usize) -> WorkCounters {
    let mut work = WorkCounters::new();
    work.add_net(share(sum.bytes, i, n));
    work.add_ser(share(sum.bytes, i, n));
    work.add_records_in(share(sum.records, i, n));
    work
}

/// An aggregate's count cells, the size of those its caller keeps, and the
/// pass that names its note ([`Rdd::try_aggregate`]).
pub(crate) type Cells<'a, A> = (u64, &'a dyn Fn(&A) -> PartialSize, &'a str);

/// What the two finishes of an aggregate cost on a clean cluster, given
/// its partials' `sum` and the `kept` cells the driver needs: its serial
/// fetch of every partial, and a stage of `reducers` tasks (`reduce_work`)
/// plus the fetch of `kept`. Returns the first, and the second when it is
/// lower (never with fewer than two reducers).
pub(crate) fn combine_price(
    cluster: &SimCluster,
    reducers: usize,
    sum: PartialSize,
    kept: PartialSize,
) -> (SimDuration, Option<SimDuration>) {
    let cost = cluster.cost();
    let fetch = cost.serialize(sum.bytes) + cost.net_transfer(sum.bytes) + cost.cpu(sum.records);
    if reducers < 2 {
        return (fetch, None);
    }
    let launch = SimDuration::from_secs(cost.spark_task_overhead);
    let task = |i| TaskSpec::anywhere(launch + reduce_work(sum, i, reducers).data_time(cost));
    let specs: Vec<TaskSpec> = (0..reducers).map(task).collect();
    let makespan = VirtualScheduler::new(cluster.spec().clone())
        .schedule(&specs)
        .makespan;
    let reduce = SimDuration::from_secs(cost.spark_stage_overhead)
        + makespan
        + cost.serialize(kept.bytes)
        + cost.net_transfer(kept.bytes);
    (fetch, (reduce < fetch).then_some(reduce))
}

/// The `aggregate` action: one stage whose tasks fold their partitions into
/// accumulators checked out of a per-action pool. A task makes one only when
/// none is idle, so at most one exists per pool worker, and a task that
/// unwinds drops the one it holds. Then the driver fetches every partial, or,
/// with two count cells or more ([`Cells`]) and where [`combine_price`] finds
/// it cheaper, notes both prices and sums them in a reduce stage. A lost
/// node's partials are counted, and resubmitted if that stage has yet to run
/// (into a throwaway accumulator: their counts are in).
pub(crate) fn try_aggregate<T: Data, A: Send + 'static>(
    rdd: &Rdd<T>,
    zero: impl Fn() -> A + Send + Sync + 'static,
    seq: impl Fn(&mut A, &[T], &TaskContext) -> PartialSize + Send + Sync + 'static,
    comb: impl Fn(A, A) -> A,
    (keys, kept, pass): Cells<'_, A>,
) -> Result<A, ExecError> {
    let (ctx, name) = (&rdd.ctx, format!("aggregate rdd{}", rdd.id()));
    let (zero, seq) = (Arc::new(zero), Arc::new(seq));
    let accumulators: Arc<Mutex<Vec<A>>> = Arc::default();
    let fold = |pooled: bool| {
        let (zero, seq) = (Arc::clone(&zero), Arc::clone(&seq));
        let pool = Arc::clone(&accumulators);
        move |pipe: Pipe<'_, T>, tc: &TaskContext| {
            let idle = pooled.then(|| pool.lock().pop()).flatten();
            let mut acc = idle.unwrap_or_else(|| zero());
            let partial = pipe.with_slice(tc, |part| {
                tc.add_records_in(slice_records(part));
                seq(&mut acc, part, tc)
            });
            tc.add_records_out(partial.records);
            tc.note_records_written(partial.records);
            pooled.then(|| pool.lock().push(acc));
            partial
        }
    };
    run_job(rdd, &name, || {
        let (partials, mut holders) = run_final_stage(rdd, name.clone(), None, fold(true))?;
        let sum = PartialSize {
            records: partials.iter().map(|p| p.records).sum(),
            bytes: partials.iter().map(|p| p.bytes).sum(),
        };
        ctx.metrics().note_shipped(sum.records, 0);
        let merged = accumulators.lock().drain(..).reduce(comb);
        let merged = merged.unwrap_or_else(|| zero());
        let n = (ctx.config().default_parallelism as u64).min(keys) as usize;
        let kept = if n < 2 {
            PartialSize::default()
        } else {
            kept(&merged)
        };
        let (fetch, reduce) = combine_price(ctx.cluster(), n, sum, kept);
        let Some(reduce) = reduce else {
            ctx.metrics().advance(fetch);
            return Ok(merged);
        };
        let (r, f) = (reduce.as_secs(), fetch.as_secs());
        let note = format!("{pass} combine: reduce stage ({r:.3} s) vs driver fetch ({f:.3} s)");
        ctx.metrics()
            .advance_with_event(SimDuration::ZERO, EventKind::Other, note);
        // The partials of the nodes lost since the map stage, counted.
        let lost_from = |holders: &[NodeId]| {
            let dead: Vec<NodeId> = sync_node_losses(ctx).iter().map(|l| l.node).collect();
            let lost = (0..holders.len()).filter(|&m| dead.contains(&holders[m]));
            let lost: Vec<usize> = lost.collect();
            ctx.metrics().note_recovery(&RecoveryCounters {
                map_outputs_lost: lost.len() as u64,
                ..RecoveryCounters::default()
            });
            lost
        };
        let mut lost = lost_from(&holders);
        while !lost.is_empty() {
            let resubmits = RecoveryCounters::lost_map_resubmits(lost.len() as u64);
            ctx.metrics().note_recovery(&resubmits);
            let label = format!("{name} (resubmit)");
            let (_, on) = run_final_stage(rdd, label, Some(lost.clone()), fold(false))?;
            lost.iter().zip(on).for_each(|(&m, node)| holders[m] = node);
            lost = lost_from(&holders);
        }
        let task = Arc::new(move |i: usize, tc: &TaskContext| {
            tc.add_work(&reduce_work(sum, i, n));
            tc.note_records_read(share(sum.records, i, n));
            tc.note_records_written(share(kept.records, i, n));
        });
        let (label, pref) = (format!("{name} (reduce)"), vec![None; n]);
        try_run_stage(ctx, label, StageKind::Result, None, pref, &|| Ok(()), task)?;
        lost_from(&holders);
        let cost = ctx.cluster().cost();
        ctx.metrics()
            .advance(cost.serialize(kept.bytes) + cost.net_transfer(kept.bytes));
        Ok(merged)
    })
}

/// Fault injection helpers, exposed on [`Context`] via an extension trait so
/// tests, the chaos bench and the fault-tolerance example can knock pieces
/// out mid-run.
pub trait FaultInjection {
    /// Drop one cached partition, as if its executor was lost. Returns
    /// whether anything was dropped. The next read recomputes via lineage.
    fn drop_cached_partition(&self, rdd_id: u64, partition: usize) -> bool;

    /// Drop a materialized shuffle output. The next action that reads it
    /// re-runs the map stage. Returns whether anything was dropped.
    fn drop_shuffle(&self, shuffle_id: u64) -> bool;

    /// Kill a node *now* (at the current virtual time): the node takes no
    /// further tasks, its cached partitions and shuffle map outputs are
    /// invalidated, and broadcast blocks are re-fetched. Idempotent — a
    /// second kill of the same node reports nothing new.
    fn lose_node(&self, node: NodeId) -> NodeLossReport;

    /// Number of currently materialized shuffles (observability for tests).
    fn materialized_shuffles(&self) -> usize;
}

impl FaultInjection for Context {
    fn drop_cached_partition(&self, rdd_id: u64, partition: usize) -> bool {
        self.cache().evict(rdd_id, partition)
    }

    fn drop_shuffle(&self, shuffle_id: u64) -> bool {
        self.shuffles().invalidate(shuffle_id)
    }

    fn lose_node(&self, node: NodeId) -> NodeLossReport {
        let now = self.metrics().now();
        if self.cluster().faults().kill_node(node, now) {
            apply_node_loss(self, node)
        } else {
            // Already dead: its data was already invalidated.
            NodeLossReport {
                node,
                cached_partitions_dropped: 0,
                map_outputs_lost: 0,
            }
        }
    }

    fn materialized_shuffles(&self) -> usize {
        self.shuffles().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_cluster::{ClusterSpec, CostModel};

    /// A seeded draw in `lo..=hi` (splitmix64).
    fn drawer(mut state: u64) -> impl FnMut(u64, u64) -> u64 {
        move |lo, hi| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + (z ^ (z >> 31)) % (hi - lo + 1)
        }
    }

    /// The two finishes' prices over seeded draws of map tasks and their
    /// partials, count cells, survivors and cluster shapes, under both cost
    /// models. The charge picked is never above the driver fetch, and is the
    /// fetch, to the bit, whenever the fetch wins. With every launch cost
    /// zeroed the reduce stage wins whenever there is something to sum in
    /// parallel: two cores and two cells at least, survivors at most a
    /// quarter of the records (a threshold that keeps them all makes the
    /// driver fetch the same bytes again; one core or one cell makes the
    /// stage the fetch with a launch on top).
    #[test]
    fn the_charge_picked_is_never_above_the_driver_fetch() {
        let mut draw = drawer(42);
        let (mut reduced, mut fetched) = (0, 0);
        for case in 0..4000 {
            let zero_overhead = case % 2 == 1;
            let cost = [CostModel::hadoop_era(), CostModel::zero_overhead()][case % 2].clone();
            let spec = ClusterSpec::new(draw(1, 16) as u32, draw(1, 8) as u32, 1 << 30);
            let cores = u64::from(spec.total_cores());
            let cluster = SimCluster::with_threads(spec, cost.clone(), 1);
            // Per-task partials of one record size; some tasks touch nothing.
            let (tasks, record) = (draw(1, 400), draw(4, 32));
            let mut sum = PartialSize::default();
            for _ in 0..tasks {
                let records = draw(0, 1) * draw(0, [100, 100_000][case % 4 / 2]);
                sum.records += records;
                sum.bytes += records * record;
            }
            let bits = draw(1, 24);
            let keys = draw(1, 1 << bits);
            let most = [sum.records, sum.records / 4][case % 2];
            let survivors = draw(0, keys.min(most));
            let kept = PartialSize {
                records: survivors,
                bytes: survivors * record,
            };
            let (fetch, reduce) =
                combine_price(&cluster, (2 * cores).min(keys) as usize, sum, kept);
            let serial =
                cost.serialize(sum.bytes) + cost.net_transfer(sum.bytes) + cost.cpu(sum.records);
            let case = format!("case {case}: {tasks} tasks, {sum:?}, {keys} keys, {kept:?}");
            assert_eq!(
                fetch.as_secs().to_bits(),
                serial.as_secs().to_bits(),
                "{case}"
            );
            let charge = reduce.unwrap_or(fetch);
            assert!(charge <= fetch, "{case}: {charge:?} above {fetch:?}");
            if reduce.is_none() {
                assert_eq!(charge.as_secs().to_bits(), fetch.as_secs().to_bits());
            }
            if zero_overhead && sum.records > 0 && cores >= 2 && keys >= 2 {
                assert!(
                    reduce.is_some(),
                    "{case}: the fetch won with no launch cost"
                );
            }
            *[&mut fetched, &mut reduced][usize::from(reduce.is_some())] += 1;
        }
        assert!(
            reduced > 500 && fetched > 500,
            "{reduced} reduced, {fetched} fetched"
        );
    }

    /// What the engine charges after the map stage is the price it picked:
    /// the reduce stage's on a wide aggregate (2 M records per task, 96
    /// cells), the fetch's on a narrow one, each on a clean cluster.
    #[test]
    fn the_engine_charges_the_finish_it_priced() {
        for (per_task, reduces) in [(2_000_000, true), (1_000, false)] {
            let ctx = Context::new(SimCluster::with_threads(
                ClusterSpec::new(4, 2, 1 << 30),
                CostModel::hadoop_era(),
                2,
            ));
            let rdd = ctx.parallelize_with_partitions((0..64u32).collect(), 8);
            let size = |records: u64| PartialSize {
                records,
                bytes: 12 * records,
            };
            let kept = |n: &u64| size(*n % 97);
            let seq = move |n: &mut u64, part: &[u32], _: &TaskContext| {
                *n += part.len() as u64;
                size(per_task)
            };
            let n = try_aggregate(&rdd, || 0, seq, |a, b| a + b, (96, &kept, "pass 2"));
            assert_eq!(n.expect("clean"), 64);
            let spans = ctx.metrics().stage_spans();
            let finish = ctx.metrics().now().since(spans[0].end()).as_secs();
            let reducers = ctx.config().default_parallelism.min(96);
            let (fetch, reduce) =
                combine_price(ctx.cluster(), reducers, size(8 * per_task), size(64));
            assert_eq!(
                (reduce.is_some(), spans.len()),
                (reduces, 1 + usize::from(reduces))
            );
            let priced = reduce.unwrap_or(fetch).as_secs();
            assert!(
                (finish - priced).abs() < 1e-9,
                "{finish} charged, {priced} priced"
            );
        }
    }
}
