//! Observability invariants, checked over *real* engine runs: the virtual
//! clock only moves forward, task spans nest inside their stage and job,
//! no two tasks overlap on one virtual core, attribution counters land where
//! the engine moved bytes, and the Chrome trace export round-trips through
//! a JSON parser with sane timestamps.

use std::collections::HashMap;
use yafim_cluster::{
    chrome_trace, json, ClusterSpec, CostModel, SimCluster, SimInstant, StageKind,
};
use yafim_rdd::Context;

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(3, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

/// A small two-job workload with a cache and a shuffle: the same shape as
/// one YAFIM pass (broadcast → flatMap → reduceByKey → collect).
fn run_workload(ctx: &Context) {
    let nums = ctx
        .parallelize_with_partitions((0..600u64).collect(), 6)
        .cache();
    nums.count();
    let counts = nums
        .map(|n| (n % 7, 1u64))
        .reduce_by_key(|a, b| a + b)
        .collect();
    assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 600);
}

#[test]
fn virtual_clock_is_monotonic_and_events_are_ordered() {
    let c = cluster();
    let ctx = Context::new(c.clone());
    run_workload(&ctx);

    let now = c.metrics().now();
    assert!(now > SimInstant::EPOCH);
    // Spans are filed when they complete, so completion times are
    // non-decreasing (starts are not: a job's span begins before the stages
    // it contains).
    let stages: Vec<_> = c.metrics().stage_spans().iter().map(|s| s.end()).collect();
    let jobs: Vec<_> = c.metrics().job_spans().iter().map(|j| j.end()).collect();
    assert!(!stages.is_empty() && !jobs.is_empty());
    for ends in [&stages, &jobs] {
        for pair in ends.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "spans logged out of clock order: {pair:?}"
            );
        }
        assert!(
            ends.iter().all(|&end| end <= now),
            "a span ends after the clock"
        );
    }
}

#[test]
fn task_spans_nest_inside_stage_and_job_spans() {
    let c = cluster();
    let ctx = Context::new(c.clone());
    run_workload(&ctx);

    let jobs: HashMap<u64, _> = c
        .metrics()
        .job_spans()
        .into_iter()
        .map(|j| (j.job_id, j))
        .collect();
    let stages: HashMap<u64, _> = c
        .metrics()
        .stage_spans()
        .into_iter()
        .map(|s| (s.stage_id, s))
        .collect();
    let tasks = c.metrics().task_spans();
    assert_eq!(jobs.len(), 2, "count + collect");
    assert!(!tasks.is_empty());

    for t in &tasks {
        let stage = &stages[&t.stage_id];
        assert!(t.start >= stage.start, "task starts before its stage");
        assert!(t.end() <= stage.end(), "task ends after its stage");
        assert_eq!(t.job_id, stage.job_id, "task and stage disagree on job");
        let job = &jobs[&stage.job_id];
        assert!(stage.start >= job.start, "stage starts before its job");
        assert!(stage.end() <= job.end(), "stage ends after its job");
    }
}

#[test]
fn per_core_task_spans_never_overlap() {
    let c = cluster();
    let ctx = Context::new(c.clone());
    run_workload(&ctx);

    let mut lanes: HashMap<(u32, usize), Vec<(SimInstant, SimInstant)>> = HashMap::new();
    for t in c.metrics().task_spans() {
        assert!(
            t.core < c.spec().cores_per_node as usize,
            "core out of range"
        );
        lanes
            .entry((t.node.0, t.core))
            .or_default()
            .push((t.start, t.end()));
    }
    assert!(!lanes.is_empty());
    for ((node, core), mut spans) in lanes {
        spans.sort();
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "tasks overlap on node {node} core {core}: {pair:?}"
            );
        }
    }
}

#[test]
fn shuffle_and_cache_attribution_is_recorded() {
    let c = cluster();
    let ctx = Context::new(c.clone());
    run_workload(&ctx);

    let stages = c.metrics().stage_spans();
    let map_stages: Vec<_> = stages
        .iter()
        .filter(|s| s.kind == StageKind::ShuffleMap)
        .collect();
    assert_eq!(
        map_stages.len(),
        1,
        "one reduceByKey → one shuffle map stage"
    );
    let map = map_stages[0];
    assert!(
        map.shuffle_id.is_some(),
        "shuffle map stage labeled with its id"
    );
    assert!(map.profile.shuffle_write_bytes > 0);
    assert_eq!(map.profile.shuffle_read_bytes, 0);

    let read_stage = stages
        .iter()
        .find(|s| s.shuffle_id == map.shuffle_id && s.stage_id != map.stage_id)
        .expect("the collect stage reads the shuffle");
    assert_eq!(
        read_stage.profile.shuffle_read_bytes, map.profile.shuffle_write_bytes,
        "every shuffled byte written is read back exactly once"
    );

    // The cached RDD is materialized once per partition (6 misses: count),
    // then hit once per partition by the shuffle map stage.
    let snap = c.metrics().snapshot();
    assert_eq!(snap.profile.cache_misses, 6);
    assert_eq!(snap.profile.cache_hits, 6);
}

#[test]
fn chrome_trace_round_trips_with_valid_timestamps() {
    let c = cluster();
    let ctx = Context::new(c.clone());
    run_workload(&ctx);

    let text = chrome_trace(c.metrics(), c.spec());
    let doc = json::parse(&text).expect("trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();

    let mut tasks = 0usize;
    for e in events {
        match e.get("ph").unwrap().as_str().unwrap() {
            "X" => {
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= 0.0 && dur >= 0.0, "bad interval: {e:?}");
                if e.get("cat").and_then(json::JsonValue::as_str) == Some("task") {
                    tasks += 1;
                    let pid = e.get("pid").unwrap().as_f64().unwrap();
                    assert!(pid >= 1.0, "tasks run on node processes, not the driver");
                }
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(tasks as u64, c.metrics().snapshot().tasks);
    // Emission is deterministic: exporting twice gives identical bytes.
    assert_eq!(text, chrome_trace(c.metrics(), c.spec()));
}
