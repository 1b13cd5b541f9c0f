//! A wide pass summed on the cluster: with every launch cost zeroed
//! (`CostModel::zero_overhead`) a reduce stage is cheaper than the driver's
//! serial fetch of the per-task partials whenever there is something to sum,
//! so the projecting plans take it on every wide pass. The run must still
//! mine what sequential Apriori mines, leave the same clock and manifest at
//! 1, 2 and 8 pool threads, keep its manifest coherent and its critical
//! path tiling the makespan, and survive a node lost before or inside the
//! reduce stage with its lost partials counted.

use yafim::cluster::{critical_path, ClusterSpec, CostModel, FaultPlan, NodeId, SimCluster};
use yafim::cluster::{RunManifest, SimInstant};
use yafim::data::{to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{apriori, Item, MiningResult, Phase2Plan, Support, Yafim, YafimConfig};

const SUPPORT: Support = Support::Fraction(0.01);

/// Mine `tx` under `plan` (and `faults`) on a 4 × 2 zero-overhead cluster
/// of `threads` pool threads; returns the result and the cluster.
fn mine(
    tx: &[Vec<Item>],
    plan: Phase2Plan,
    faults: Option<&FaultPlan>,
    threads: usize,
) -> (MiningResult, SimCluster) {
    let spec = ClusterSpec::new(4, 2, 1 << 30);
    let cluster = SimCluster::with_threads(spec, CostModel::zero_overhead(), threads);
    if let Some(faults) = faults {
        cluster.faults().set_plan(faults.clone());
    }
    cluster.hdfs().put_overwrite("in.dat", to_lines(tx));
    let config = YafimConfig::with_plan(SUPPORT, plan);
    let run = Yafim::new(Context::new(cluster.clone()), config)
        .mine("in.dat")
        .expect("the run completes");
    (run.result, cluster)
}

/// The notes the run logged for passes summed on the cluster.
fn reduce_notes(cluster: &SimCluster) -> Vec<String> {
    let events = cluster.metrics().events().into_iter().map(|e| e.label);
    events
        .filter(|l| l.contains(" combine: reduce stage ("))
        .collect()
}

/// The widest reduce stage's `(start, end)` on the virtual clock, the
/// midpoint of its map stage's, and the node that ran most of those maps.
fn widest_reduce(cluster: &SimCluster) -> ((f64, f64), f64, NodeId) {
    let stages = cluster.metrics().stage_spans();
    let reduces = stages.iter().filter(|s| s.label.ends_with("(reduce)"));
    let reduce = reduces
        .max_by_key(|s| s.profile.records_read)
        .expect("a reduce stage ran");
    let map = stages
        .iter()
        .rev()
        .find(|s| s.end() <= reduce.start)
        .expect("its map stage");
    let tasks = cluster.metrics().task_spans();
    let on = |n: &NodeId| {
        tasks
            .iter()
            .filter(|t| t.stage_id == map.stage_id && t.node == *n)
            .count()
    };
    let nodes = (0..cluster.spec().nodes).map(NodeId);
    let busiest = nodes
        .max_by_key(|n| (on(n), std::cmp::Reverse(n.0)))
        .expect("nodes");
    let window = (reduce.start.as_secs(), reduce.end().as_secs());
    (
        window,
        (map.start.as_secs() + map.end().as_secs()) / 2.0,
        busiest,
    )
}

fn input() -> Vec<Vec<Item>> {
    PaperDataset::T10I4D100K.generate_scaled(0.02)
}

#[test]
fn a_reduce_stage_sums_the_wide_passes_and_the_host_cannot_tell() {
    let tx = input();
    let reference = apriori(&tx, SUPPORT);
    for plan in [Phase2Plan::Projected, Phase2Plan::Bitmap] {
        let mut first: Option<(u64, String)> = None;
        for threads in [1, 2, 8] {
            let case = format!("{} at {threads} threads", plan.name());
            let (result, cluster) = mine(&tx, plan, None, threads);
            assert_eq!(result, reference, "{case}");
            let notes = reduce_notes(&cluster);
            assert!(
                notes.iter().any(|n| n.starts_with("pass 2 combine")),
                "{case}: {notes:?}"
            );

            let empty = yafim::cluster::json::JsonValue::object(vec![]);
            let manifest = RunManifest::capture("combine", "spark", empty.clone(), empty, &cluster);
            assert_eq!(manifest.check(), Ok(()), "{case}");
            let report = critical_path(cluster.metrics(), cluster.cost());
            let tiled = report.buckets.total() - report.makespan;
            assert!(
                tiled.abs() < 1e-6,
                "{case}: buckets miss the makespan by {tiled}"
            );

            let seen = (
                cluster.metrics().now().as_secs().to_bits(),
                manifest.to_json().to_string(),
            );
            let first = first.get_or_insert_with(|| seen.clone());
            assert_eq!(
                &seen, first,
                "{case}: the model moved with the host threads"
            );
        }
    }
}

#[test]
fn partials_a_lost_node_held_are_resubmitted_or_counted() {
    let tx = input();
    let reference = apriori(&tx, SUPPORT);
    let flaky = FaultPlan {
        task_crash_prob: 0.1,
        max_task_failures: 10,
        ..FaultPlan::seeded(7)
    };
    let (_, cluster) = mine(&tx, Phase2Plan::Bitmap, Some(&flaky), 1);
    let ((start, end), map_middle, node) = widest_reduce(&cluster);

    // Inside the reduce stage the lost partials are counted; inside its map
    // stage they are also resubmitted before the reduce stage runs.
    for (at, resubmitted) in [((start + end) / 2.0, false), (map_middle, true)] {
        let mut faults = flaky.clone();
        faults.node_losses = vec![(node, SimInstant::from_secs(at))];
        for threads in [1, 8] {
            let case = format!("{node} lost at {at:.6} s, {threads} threads");
            let (result, cluster) = mine(&tx, Phase2Plan::Bitmap, Some(&faults), threads);
            assert_eq!(result, reference, "{case}");
            let recovery = cluster.metrics().snapshot().recovery;
            assert_eq!(recovery.nodes_lost, 1, "{case}");
            assert!(recovery.map_outputs_lost > 0, "{case}: {recovery:?}");
            let stages = cluster.metrics().stage_spans();
            let resubmits = stages.iter().filter(|s| s.label.ends_with("(resubmit)"));
            assert_eq!(resubmits.count() > 0, resubmitted, "{case}");
            if resubmitted {
                assert!(
                    recovery.fetch_failures >= recovery.map_outputs_lost,
                    "{case}"
                );
            }
        }
    }
}
