//! Checkpointing, lineage truncation, and the transient-fault ladder at the
//! RDD level: checkpointed data round-trips byte-identically, survives node
//! loss through replication, bounds replay depth after a loss, and seeded
//! transient fetch failures cost virtual time without ever changing results,
//! and a block with no replica left is a typed refusal.

use yafim_cluster::{ClusterSpec, CostModel, ExecError, FaultPlan, NodeId, SimCluster};
use yafim_rdd::{Context, FaultInjection};

fn ctx() -> Context {
    Context::new(SimCluster::with_threads(
        ClusterSpec::new(4, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ))
}

/// A lineage `depth` narrow operators deep over `parts` partitions.
fn deep_chain(c: &Context, depth: usize, parts: usize) -> yafim_rdd::Rdd<u32> {
    let data: Vec<u32> = (0..200u32).collect();
    let mut rdd = c.parallelize_with_partitions(data, parts);
    for _ in 0..depth {
        rdd = rdd.map(|x| x.wrapping_add(1));
    }
    rdd
}

#[test]
fn checkpoint_round_trips_and_counts_writes() {
    let c = ctx();
    let rdd = deep_chain(&c, 5, 6);
    let expected = rdd.collect();

    let cp = rdd.checkpoint();
    assert_eq!(cp.collect(), expected, "checkpoint must be transparent");

    let rec = c.metrics().snapshot().recovery;
    assert_eq!(rec.checkpoint_writes, 6, "one write per partition");
    let (blocks, bytes) = c.cluster().hdfs().checkpoint_stats();
    assert_eq!(blocks, 6);
    assert!(bytes > 0);

    assert_eq!(cp.discard_checkpoint(), 6);
    assert_eq!(c.cluster().hdfs().checkpoint_stats().0, 0);
}

#[test]
fn checkpoint_blocks_survive_node_loss() {
    let c = ctx();
    let rdd = deep_chain(&c, 3, 8);
    let expected = rdd.collect();
    let cp = rdd.checkpoint();

    // Default 3x replication: one node loss never loses a block.
    c.lose_node(NodeId(1));
    assert_eq!(
        cp.collect(),
        expected,
        "replicated checkpoint must survive one node loss"
    );
    let rec = c.metrics().snapshot().recovery;
    assert!(
        rec.checkpoint_reads >= 8,
        "reads after the loss come from the checkpoint, got {}",
        rec.checkpoint_reads
    );
}

#[test]
fn a_checkpoint_block_whose_every_replica_is_lost_is_refused_not_panicked() {
    let c = ctx();
    let cp = deep_chain(&c, 3, 8).checkpoint();
    let block = c.cluster().hdfs().checkpoint_get(cp.id(), 0);
    let replicas = block.expect("just written").replicas;
    assert_eq!(replicas.len(), 3, "default 3x replication on 4 nodes");
    for node in replicas {
        c.lose_node(node);
    }
    match cp.try_collect() {
        Err(ExecError::IntegrityFailure { detail }) => {
            let start = format!("checkpoint rdd{} partition 0: ", cp.id());
            assert!(detail.starts_with(&start), "{detail}");
        }
        other => panic!("expected an integrity refusal, got {other:?}"),
    }
}

#[test]
fn checkpoint_truncates_replay_depth_after_loss() {
    const DEPTH: usize = 8;

    // Control: a deep cached lineage with no checkpoint. Losing a node
    // forces the evicted partitions to replay the whole ancestor chain.
    let ctl = ctx();
    let cached = deep_chain(&ctl, DEPTH, 8).cache();
    let expected = cached.collect();
    ctl.lose_node(NodeId(1));
    assert_eq!(cached.collect(), expected);
    let deep_replay = ctl.metrics().snapshot().recovery.max_replay_depth;
    assert!(
        deep_replay >= DEPTH as u64,
        "without a checkpoint the replay walks the whole chain, got {deep_replay}"
    );

    // Checkpointed: the same lineage truncated at the checkpoint. Recovery
    // re-reads the materialized blocks instead of replaying ancestors.
    let c = ctx();
    let cached = deep_chain(&c, DEPTH, 8).checkpoint().cache();
    assert_eq!(cached.collect(), expected);
    c.lose_node(NodeId(1));
    assert_eq!(cached.collect(), expected, "results stay byte-identical");
    let truncated_replay = c.metrics().snapshot().recovery.max_replay_depth;
    assert_eq!(
        truncated_replay, 1,
        "a checkpoint reader is its own source: replay depth 1"
    );
}

#[test]
fn transient_fetch_ladder_preserves_results_and_costs_time() {
    let run = |plan: Option<FaultPlan>| {
        let c = ctx();
        if let Some(p) = plan {
            c.cluster().faults().set_plan(p);
        }
        let mut out = deep_chain(&c, 2, 6)
            .map(|x| (x % 16, 1u64))
            .reduce_by_key(|a, b| a + b)
            .collect();
        out.sort_unstable();
        (out, c.metrics().now(), c.metrics().snapshot().recovery)
    };

    let (clean, clean_t, _) = run(None);
    let (flaky, flaky_t, rec) = run(Some(
        FaultPlan::seeded(7).flaky_fetches(1.0).flaky_hdfs(1.0),
    ));

    assert_eq!(clean, flaky, "transient faults must never change data");
    assert!(
        flaky_t > clean_t,
        "retries, backoff and escalations only add virtual time"
    );
    assert!(rec.fetch_retries > 0, "ladder must have retried");
    assert!(rec.backoff_micros > 0, "retries must have backed off");
    assert!(
        rec.recomputed_partitions > 0,
        "prob-1.0 ladders escalate to map resubmission"
    );
}

#[test]
fn seeded_transient_plans_are_fully_deterministic() {
    let run = || {
        let c = ctx();
        c.cluster()
            .faults()
            .set_plan(FaultPlan::seeded(11).flaky_fetches(0.3).flaky_hdfs(0.3));
        let out = deep_chain(&c, 3, 5)
            .map(|x| (x % 8, x as u64))
            .reduce_by_key(|a, b| a.wrapping_add(b))
            .collect();
        (out, c.metrics().now(), c.metrics().snapshot().recovery)
    };
    let (a, ta, ra) = run();
    let (b, tb, rb) = run();
    assert_eq!(a, b, "same seed, same data");
    assert_eq!(ta, tb, "same seed, same virtual timeline");
    assert_eq!(ra, rb, "same seed, same recovery counters");
}

/// A stage abort is decided by the virtual schedule, after every task of
/// the checkpoint job wrote its block for real: a refused checkpoint must
/// take those blocks with it, since no reader exists to discard them.
#[test]
fn a_checkpoint_refused_mid_stage_leaves_no_blocks() {
    let mut refused = 0;
    for seed in 0..20 {
        let c = ctx();
        c.cluster().faults().set_plan(
            FaultPlan::seeded(seed)
                .crash_tasks(0.2)
                .with_max_task_failures(1),
        );
        match deep_chain(&c, 2, 8).try_checkpoint() {
            Ok(cp) => assert_eq!(cp.discard_checkpoint(), 8, "seed {seed}"),
            Err(e) => {
                assert!(e.to_string().contains("stage `checkpoint rdd"), "{e}");
                refused += 1;
            }
        }
        assert_eq!(c.cluster().hdfs().checkpoint_stats(), (0, 0), "seed {seed}");
    }
    assert!(refused > 0, "the plan must abort some checkpoint job");
}
