//! Chrome trace event exporter.
//!
//! Serialises the span log ([`Metrics`]) into the Trace Event JSON format
//! understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`. The mapping onto the trace model:
//!
//! * **pid** — one process per simulated node (`pid = node + 1`), plus
//!   `pid 0` for the driver;
//! * **tid** — one thread per core within a node (`tid = core + 1`);
//!   driver-side tracks use `tid 1` for jobs, `tid 2` for stages, and
//!   `tid 3` for the passes and the flat event log;
//! * **X events** — every job, stage and task span, pass and driver-side
//!   event becomes a "complete" event with `ts`/`dur` in microseconds of
//!   *virtual* time;
//! * **M events** — process/thread name metadata so the UI labels rows
//!   "node 3" / "core 1".
//!
//! Events on a single tid always nest correctly: tasks on one core never
//! overlap (the scheduler hands each core a sequential timeline), and the
//! driver tracks hold jobs, stages and passes on separate tids (a pass holds
//! the driver-side events inside it).

use crate::json::JsonValue;
use crate::metrics::Metrics;
use crate::spec::ClusterSpec;
use crate::time::{SimDuration, SimInstant};
use crate::work::TaskProfile;

/// The driver's pid in the exported trace.
const DRIVER_PID: u64 = 0;
/// Driver tid carrying job spans.
const DRIVER_TID_JOBS: u64 = 1;
/// Driver tid carrying stage spans.
const DRIVER_TID_STAGES: u64 = 2;
/// Driver tid carrying the passes and the flat event log.
const DRIVER_TID_EVENTS: u64 = 3;

fn micros(t: SimInstant) -> JsonValue {
    JsonValue::Number(t.as_secs() * 1e6)
}

fn micros_dur(d: SimDuration) -> JsonValue {
    JsonValue::Number(d.as_secs() * 1e6)
}

fn meta(name: &str, pid: u64, tid: Option<u64>, label: String) -> JsonValue {
    let mut pairs = vec![
        ("ph", "M".into()),
        ("name", name.into()),
        ("pid", pid.into()),
        ("args", JsonValue::object(vec![("name", label.into())])),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", tid.into()));
    }
    JsonValue::object(pairs)
}

fn complete(
    name: String,
    cat: &str,
    pid: u64,
    tid: u64,
    ts: SimInstant,
    dur: SimDuration,
    args: Vec<(&str, JsonValue)>,
) -> JsonValue {
    JsonValue::object(vec![
        ("ph", "X".into()),
        ("name", name.into()),
        ("cat", cat.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("ts", micros(ts)),
        ("dur", micros_dur(dur)),
        ("args", JsonValue::object(args)),
    ])
}

/// `(key, value)` span args for the named counter fields of `$of`. The
/// trace picks which counters a span shows; each key is its field's name.
macro_rules! field_args {
    ($of:expr; $($field:ident),*) => {
        [$( (stringify!($field), JsonValue::from($of.$field)) ),*]
    };
}

fn profile_args(p: &TaskProfile) -> Vec<(&'static str, JsonValue)> {
    let work = field_args!(p.work; records_in, records_out);
    let attribution = field_args!(
        p; shuffle_read_bytes, shuffle_write_bytes, broadcast_read_bytes, cache_hits, cache_misses
    );
    work.into_iter().chain(attribution).collect()
}

/// Build the Chrome trace document for a run as a [`JsonValue`].
///
/// `spec` supplies the node/core topology for the process and thread
/// metadata rows.
pub(crate) fn chrome_trace_value(metrics: &Metrics, spec: &ClusterSpec) -> JsonValue {
    let mut events = Vec::new();

    // Metadata: driver process and its tracks.
    events.push(meta("process_name", DRIVER_PID, None, "driver".to_string()));
    for (tid, label) in [
        (DRIVER_TID_JOBS, "jobs"),
        (DRIVER_TID_STAGES, "stages"),
        (DRIVER_TID_EVENTS, "events"),
    ] {
        events.push(meta(
            "thread_name",
            DRIVER_PID,
            Some(tid),
            label.to_string(),
        ));
    }

    // Metadata: one process per node, one thread per core.
    for node in spec.node_ids() {
        let pid = node.0 as u64 + 1;
        events.push(meta("process_name", pid, None, format!("node {}", node.0)));
        for core in 0..spec.cores_per_node {
            events.push(meta(
                "thread_name",
                pid,
                Some(core as u64 + 1),
                format!("core {core}"),
            ));
        }
    }

    for job in metrics.job_spans() {
        events.push(complete(
            format!("job {}: {}", job.job_id, job.label),
            "job",
            DRIVER_PID,
            DRIVER_TID_JOBS,
            job.start,
            job.duration,
            vec![("job_id", job.job_id.into())],
        ));
    }

    for stage in metrics.stage_spans() {
        let mut args = vec![
            ("stage_id", stage.stage_id.into()),
            ("job_id", stage.job_id.into()),
            ("tasks", stage.tasks.into()),
        ];
        if let Some(sid) = stage.shuffle_id {
            args.push(("shuffle_id", sid.into()));
        }
        args.extend(profile_args(&stage.profile));
        // Recovery work attributed to this stage — only emitted when the
        // stage actually recovered from something, so clean traces stay
        // byte-identical to pre-fault exports.
        let r = &stage.recovery;
        if r.any() {
            args.extend(field_args!(
                r; task_failures, task_retries, speculative_launched, fetch_retries,
                checkpoint_writes, checkpoint_reads
            ));
            args.push(("backoff_us", r.backoff_micros.into()));
            // Silent-corruption counters, only when the integrity layer
            // actually fired — clean-but-recovering stages keep the
            // pre-integrity arg set byte-identical.
            if r.integrity.any() {
                args.extend(r.integrity.fields().map(|f| (f.key, f.value.into())));
            }
        }
        events.push(complete(
            format!("stage {}: {}", stage.stage_id, stage.label),
            "stage",
            DRIVER_PID,
            DRIVER_TID_STAGES,
            stage.start,
            stage.duration,
            args,
        ));
    }

    for task in metrics.task_spans() {
        let mut args = vec![
            ("stage_id", task.stage_id.into()),
            ("job_id", task.job_id.into()),
            ("partition", task.partition.into()),
            (
                "queue_wait_us",
                JsonValue::Number(task.queue_wait.as_secs() * 1e6),
            ),
        ];
        args.extend(profile_args(&task.profile));
        events.push(complete(
            format!("task s{}.{}", task.stage_id, task.partition),
            "task",
            task.node.0 as u64 + 1,
            task.core as u64 + 1,
            task.start,
            task.duration,
            args,
        ));
    }

    // The passes and the flat event log (broadcasts, HDFS, driver work) on
    // one driver track, so Fig. 3 passes are visible as top-level bands.
    for p in metrics.passes() {
        let args = field_args!(p; candidates, frequent);
        events.push(complete(
            format!("pass {}", p.span()),
            "pass",
            DRIVER_PID,
            DRIVER_TID_EVENTS,
            p.start,
            SimDuration::from_secs(p.seconds),
            [("counter", p.counter.into())]
                .into_iter()
                .chain(args)
                .collect(),
        ));
    }
    for e in metrics.events() {
        events.push(complete(
            e.label.clone(),
            &format!("{:?}", e.kind).to_lowercase(),
            DRIVER_PID,
            DRIVER_TID_EVENTS,
            e.start,
            e.duration,
            vec![],
        ));
    }

    let dropped = metrics.dropped().fields().map(|f| (f.key, f.value.into()));
    let other = [("clock", "virtual".into())].into_iter().chain(dropped);
    JsonValue::object(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", "ms".into()),
        ("otherData", JsonValue::object(other.collect())),
    ])
}

/// Render the Chrome trace document for a run as a JSON string, ready to be
/// written to a `.json` file and loaded in Perfetto.
pub fn chrome_trace(metrics: &Metrics, spec: &ClusterSpec) -> String {
    chrome_trace_value(metrics, spec).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::{EventKind, StageExecution, StageKind, TaskExecution};
    use crate::spec::NodeId;

    fn sample_metrics() -> Metrics {
        let m = Metrics::new();
        let job = m.begin_job("collect rdd3");
        m.record_stage_with_recovery(
            StageExecution {
                label: "shuffle 0 map".into(),
                kind: StageKind::ShuffleMap,
                shuffle_id: Some(0),
                overhead: SimDuration::from_secs(0.1),
                trailing: SimDuration::ZERO,
                tasks: vec![
                    TaskExecution {
                        partition: 0,
                        node: NodeId(0),
                        core: 0,
                        start: SimDuration::ZERO,
                        duration: SimDuration::from_secs(1.0),
                        profile: TaskProfile::new(),
                    },
                    TaskExecution {
                        partition: 1,
                        node: NodeId(1),
                        core: 1,
                        start: SimDuration::ZERO,
                        duration: SimDuration::from_secs(2.0),
                        profile: TaskProfile::new(),
                    },
                ],
            },
            Default::default(),
        );
        m.end_job(job);
        m
    }

    #[test]
    fn trace_round_trips_and_has_valid_times() {
        let m = sample_metrics();
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let text = chrome_trace(&m, &spec);
        let doc = json::parse(&text).expect("exporter emits valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "X" {
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= 0.0, "negative ts: {e:?}");
                assert!(dur >= 0.0, "negative dur: {e:?}");
            }
        }
    }

    #[test]
    fn tasks_land_on_their_node_and_core() {
        let m = sample_metrics();
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let task_on_node1: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(JsonValue::as_str) == Some("task")
                    && e.get("pid").and_then(JsonValue::as_f64) == Some(2.0)
            })
            .collect();
        assert_eq!(task_on_node1.len(), 1);
        assert_eq!(task_on_node1[0].get("tid").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn metadata_names_every_node_and_core() {
        let m = Metrics::new();
        let spec = ClusterSpec::new(3, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let process_names = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("process_name"))
            .count();
        let thread_names = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .count();
        assert_eq!(process_names, 4, "driver + 3 nodes");
        assert_eq!(
            thread_names,
            3 + 3 * 2,
            "3 driver tracks + 3 nodes x 2 cores"
        );
    }

    #[test]
    fn recovering_stage_exports_recovery_args() {
        use crate::fault::RecoveryCounters;
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "flaky".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![TaskExecution {
                    partition: 0,
                    node: NodeId(0),
                    core: 0,
                    start: SimDuration::ZERO,
                    duration: SimDuration::from_secs(1.0),
                    profile: TaskProfile::new(),
                }],
            },
            RecoveryCounters {
                fetch_retries: 5,
                backoff_micros: 700,
                checkpoint_writes: 2,
                ..RecoveryCounters::default()
            },
        );
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let stage = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
            .expect("stage event present");
        let args = stage.get("args").unwrap();
        assert_eq!(args.get("fetch_retries").unwrap().as_f64(), Some(5.0));
        assert_eq!(args.get("backoff_us").unwrap().as_f64(), Some(700.0));
        assert_eq!(args.get("checkpoint_writes").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn passes_and_driver_events_share_a_track_that_copies_no_span() {
        let m = sample_metrics();
        m.record_pass(1..=1, "items", Metrics::new().pass_start(), 4, 3);
        m.advance_with_event(SimDuration::from_secs(0.5), EventKind::Broadcast, "b");
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let track: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .filter(|e| e.get("tid").and_then(JsonValue::as_f64) == Some(3.0))
            .filter(|e| e.get("pid").and_then(JsonValue::as_f64) == Some(0.0))
            .collect();
        let cats: Vec<&str> = track
            .iter()
            .filter_map(|e| e.get("cat")?.as_str())
            .collect();
        assert_eq!(cats, ["pass", "broadcast"]);
        let pass = track[0];
        assert_eq!(pass.get("dur").unwrap().as_f64(), Some(2.1e6));
        let args = pass.get("args").unwrap();
        assert_eq!(args.get("counter").unwrap().as_str(), Some("items"));
        assert_eq!(args.get("candidates").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn clean_stage_exports_no_recovery_args() {
        let m = sample_metrics();
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let stage = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
            .expect("stage event present");
        assert!(stage.get("args").unwrap().get("fetch_retries").is_none());
    }

    #[test]
    fn arbitrary_stage_labels_survive_json_escaping() {
        // Labels flow user/engine strings straight into event names; the
        // exporter must escape them so the document still parses and the
        // label round-trips byte-for-byte.
        let hostile = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\u{1} unicode:\u{2603}";
        let m = Metrics::new();
        let job = m.begin_job(hostile);
        m.record_stage_with_recovery(
            StageExecution {
                label: hostile.into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![TaskExecution {
                    partition: 0,
                    node: NodeId(0),
                    core: 0,
                    start: SimDuration::ZERO,
                    duration: SimDuration::from_secs(1.0),
                    profile: TaskProfile::new(),
                }],
            },
            Default::default(),
        );
        m.end_job(job);
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let text = chrome_trace(&m, &spec);
        let doc = json::parse(&text).expect("hostile labels must not break the document");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let stage = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("stage"))
            .expect("stage event present");
        let name = stage.get("name").unwrap().as_str().unwrap();
        assert!(
            name.ends_with(hostile),
            "label did not round-trip: {name:?}"
        );
    }

    #[test]
    fn identical_runs_export_byte_identical_traces() {
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let a = chrome_trace(&sample_metrics(), &spec);
        let b = chrome_trace(&sample_metrics(), &spec);
        assert_eq!(a, b, "trace export must be deterministic");
    }

    #[test]
    fn drop_counters_are_reported_in_other_data() {
        let m = sample_metrics();
        let spec = ClusterSpec::new(2, 2, 1 << 30);
        let doc = json::parse(&chrome_trace(&m, &spec)).unwrap();
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped.tasks").unwrap().as_f64(), Some(0.0));
        assert_eq!(other.get("clock").unwrap().as_str(), Some("virtual"));
    }
}
