//! Fault-injection invariance: mining results must not depend on the fault
//! plan. Any seeded plan whose failures stay below the retry budget yields
//! byte-identical results to the fault-free run on both engines — recovery
//! only ever adds virtual time. Exhausting the budget aborts with a
//! descriptive error instead of returning wrong results.

use yafim_cluster::{
    ClusterSpec, CostModel, FaultPlan, NodeId, SimCluster, SimDuration, SimInstant,
};
use yafim_core::{
    apriori, Miner, MrApriori, MrAprioriConfig, Phase2Plan, Support, Yafim, YafimConfig,
};
use yafim_data::{to_lines, PaperDataset};
use yafim_rdd::Context;

fn dataset() -> (Vec<Vec<u32>>, Support) {
    (
        PaperDataset::Medical.generate_scaled(0.01),
        Support::Fraction(0.05),
    )
}

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

/// A representative plan for `seed`: background task crashes, one node lost
/// mid-run, one degraded node with speculation enabled. Failure counts stay
/// far below the (raised) retry budget.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .crash_tasks(0.1)
        .with_max_task_failures(10)
        .lose_node_at(
            NodeId((seed % 4) as u32),
            SimInstant::EPOCH + SimDuration::from_secs(1.0 + seed as f64 * 0.7),
        )
        .slow_node(NodeId(((seed + 2) % 4) as u32), 3.0)
        .with_speculation()
}

#[test]
fn yafim_results_survive_any_below_budget_plan() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, support);

    let healthy = cluster();
    healthy.hdfs().put_overwrite("d.dat", to_lines(&tx));
    let baseline = Yafim::new(Context::new(healthy), YafimConfig::new(support))
        .mine("d.dat")
        .expect("written");
    assert_eq!(reference, baseline.result);

    for seed in 0..4u64 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(plan(seed));
        let run = Yafim::new(Context::new(c.clone()), YafimConfig::new(support))
            .mine("d.dat")
            .expect("below-budget faults must not abort the job");
        assert_eq!(
            reference, run.result,
            "seed {seed}: faults changed mining results"
        );
        assert!(
            run.total_seconds >= baseline.total_seconds,
            "seed {seed}: recovery must only add virtual time \
             ({} < {})",
            run.total_seconds,
            baseline.total_seconds
        );
        let rec = c.metrics().snapshot().recovery;
        assert!(rec.any(), "seed {seed}: the plan must actually fire");
        assert_eq!(rec.nodes_lost, 1, "seed {seed}");
    }
}

#[test]
fn mr_results_survive_any_below_budget_plan() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, support);

    let healthy = cluster();
    healthy.hdfs().put_overwrite("d.dat", to_lines(&tx));
    let baseline = MrApriori::new(healthy, MrAprioriConfig::new(support))
        .mine("d.dat")
        .expect("written");
    assert_eq!(reference, baseline.result);

    for seed in 0..4u64 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(plan(seed));
        let run = MrApriori::new(c.clone(), MrAprioriConfig::new(support))
            .mine("d.dat")
            .expect("below-budget faults must not abort the job");
        assert_eq!(
            reference, run.result,
            "seed {seed}: faults changed mining results"
        );
        assert!(
            run.total_seconds >= baseline.total_seconds,
            "seed {seed}: recovery must only add virtual time \
             ({} < {})",
            run.total_seconds,
            baseline.total_seconds
        );
        assert!(
            c.metrics().snapshot().recovery.any(),
            "seed {seed}: the plan must actually fire"
        );
    }
}

#[test]
fn chaos_runs_are_reproducible() {
    let (tx, support) = dataset();
    let mut reports = Vec::new();
    for _ in 0..2 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(plan(1));
        let run = Yafim::new(Context::new(c.clone()), YafimConfig::new(support))
            .mine("d.dat")
            .expect("below budget");
        let snap = c.metrics().snapshot();
        reports.push((run.result, run.total_seconds, snap.recovery));
    }
    assert_eq!(
        reports[0], reports[1],
        "same seed must reproduce results, virtual time and recovery counters bit-for-bit"
    );
}

#[test]
fn transient_and_heartbeat_faults_are_invisible_to_results() {
    // The full transient taxonomy at once: flaky shuffle fetches and HDFS
    // reads (retried with exponential backoff, escalating to map
    // resubmission), heartbeat-delayed node-loss detection, and
    // plan-driven checkpointing. None of it may change a single support.
    let (tx, support) = dataset();
    let reference = apriori(&tx, support);

    for seed in 0..3u64 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(seed)
                .flaky_fetches(0.2)
                .flaky_hdfs(0.2)
                .with_heartbeat_timeout(SimDuration::from_secs(1.0))
                .with_checkpoint_interval(1)
                .lose_node_at(
                    NodeId((seed % 4) as u32),
                    SimInstant::EPOCH + SimDuration::from_secs(2.0 + seed as f64),
                ),
        );
        let run = Yafim::new(Context::new(c.clone()), YafimConfig::new(support))
            .mine("d.dat")
            .expect("transients and one loss stay below the retry budget");
        assert_eq!(
            reference, run.result,
            "seed {seed}: transient faults changed mining results"
        );
        let rec = c.metrics().snapshot().recovery;
        assert!(
            rec.fetch_retries > 0,
            "seed {seed}: flaky plan must have retried fetches"
        );
        assert!(
            rec.backoff_micros > 0,
            "seed {seed}: retries must have backed off"
        );
        assert!(
            rec.checkpoint_writes > 0,
            "seed {seed}: plan-driven checkpointing must have fired"
        );
    }
}

#[test]
fn transient_chaos_runs_are_reproducible() {
    let (tx, support) = dataset();
    let mut reports = Vec::new();
    for _ in 0..2 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(9)
                .flaky_fetches(0.3)
                .flaky_hdfs(0.3)
                .with_checkpoint_interval(2),
        );
        let run = Yafim::new(
            Context::new(c.clone()),
            YafimConfig::with_plan(support, Phase2Plan::Projected),
        )
        .mine("d.dat")
        .expect("transients never abort");
        reports.push((
            run.result,
            run.total_seconds,
            c.metrics().snapshot().recovery,
        ));
    }
    assert_eq!(
        reports[0], reports[1],
        "same transient seed must reproduce results, time and counters bit-for-bit"
    );
}

#[test]
fn every_distributed_miner_exceeding_its_retry_budget_aborts_descriptively() {
    let (tx, support) = dataset();
    for miner in Miner::ALL.into_iter().filter(|m| m.is_distributed()) {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(FaultPlan::seeded(5).crash_tasks(1.0));
        let err = miner
            .mine(&c, "d.dat", support)
            .expect_err("every attempt crashes");
        let msg = err.to_string();
        assert!(msg.contains("max_task_failures"), "{miner:?}: {msg}");
        assert!(msg.contains("aborted"), "{miner:?}: {msg}");
        assert_eq!(msg.lines().count(), 1, "{miner:?}: the CLI prints one line");
    }
}
