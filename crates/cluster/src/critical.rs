//! Critical-path analysis over the recorded span log.
//!
//! [`critical_path`] walks the stage → task spans plus the flat event log
//! and decomposes the run's makespan into **exhaustive, mutually
//! exclusive** attribution buckets — compute, shuffle read/write, broadcast,
//! cache, checkpoint, fault stall/recovery, scheduler idle, driver work,
//! HDFS I/O, and an explicit `unattributed` remainder. The load-bearing
//! invariant, checked by unit tests here and by a randomized-lineage
//! property test in `yafim-rdd`, is that the buckets **sum to the makespan**
//! (within 1e-6 virtual seconds), fault injection included. Nothing is
//! counted twice and nothing falls on the floor: every answer to "where did
//! the time go?" is a complete partition of the timeline.
//!
//! The decomposition works by tiling `[0, now]` with *primitive intervals*:
//!
//! * **stage spans** — decomposed internally: the pre-window (stage
//!   overhead) and post-window (trailing heartbeats) go to scheduler idle,
//!   all-cores-idle holes inside the task window go to fault recovery (when
//!   the stage recorded failures) or scheduler idle, and the busy time —
//!   the union of task intervals — is split proportionally by cost-model
//!   weights derived from the merged [`TaskProfile`];
//! * **flat events** (broadcasts, HDFS traffic, driver/projection work,
//!   checkpoints) — mapped whole to one bucket by kind;
//! * **gaps** between primitives — plain clock advances (job-submission
//!   overhead, driver result fetches) are attributed to the driver; if the
//!   ring buffers dropped a stage or event, the time up to the end of the
//!   newest one dropped is unknowable history and lands in `unattributed`.
//!
//! The same primitives are filed a second time per Apriori pass (each under
//! the pass its midpoint falls in; gaps, the only intervals that can
//! straddle a pass boundary, are clipped at it), so the report's pass table
//! joins |C_k| and |L_k| with where each pass's time went.
//!
//! Per-stage skew metrics (task-time p50/p95/max, straggler ratio,
//! partition-size CV) ride along in the same report, because the skew the
//! distributed-Apriori literature blames for poor scaling lives exactly in
//! the gap between `p50` and `max`.

use crate::costmodel::CostModel;
use crate::fault::RecoveryCounters;
use crate::json::JsonValue;
use crate::metrics::{EventKind, Metrics, PassTiming, StageSpan, TaskSpan};
use crate::work::TaskProfile;
use std::collections::BTreeMap;

/// Exhaustive, mutually exclusive makespan decomposition, in virtual
/// seconds. The fields sum to the makespan (see [`CriticalPathBuckets::total`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CriticalPathBuckets {
    /// CPU work inside tasks (records, hash-tree visits, comparisons) plus
    /// task-local disk I/O not attributed to shuffle.
    pub compute: f64,
    /// Fetching shuffle map outputs (local and remote).
    pub shuffle_read: f64,
    /// Writing and serializing shuffle files on the map side.
    pub shuffle_write: f64,
    /// Broadcast distribution and task-side broadcast reads.
    pub broadcast: f64,
    /// Scanning cached partitions.
    pub cache: f64,
    /// Checkpoint writes and reads (lineage truncation).
    pub checkpoint: f64,
    /// Task time spent stalled in retry backoff (transient faults).
    pub fault_stall: f64,
    /// All-cores-idle time inside stages that recorded failures: resubmit
    /// delays, blacklisting windows, recomputation waves.
    pub fault_recovery: f64,
    /// Stage overhead, trailing waves, and all-cores-idle scheduling holes
    /// in fault-free stages.
    pub scheduler_idle: f64,
    /// Driver-side work: job submission overhead, candidate generation,
    /// projection planning, result fetches.
    pub driver: f64,
    /// HDFS reads and writes outside stages.
    pub hdfs_io: f64,
    /// Time the retained logs cannot explain (dropped ring-buffer history,
    /// [`EventKind::Other`] markers).
    pub unattributed: f64,
}

impl CriticalPathBuckets {
    /// Sum of all buckets — equals the makespan within float rounding.
    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    /// The buckets with their canonical names, in report order.
    pub fn named(&self) -> [(&'static str, f64); 12] {
        [
            ("compute", self.compute),
            ("shuffle_read", self.shuffle_read),
            ("shuffle_write", self.shuffle_write),
            ("broadcast", self.broadcast),
            ("cache", self.cache),
            ("checkpoint", self.checkpoint),
            ("fault_stall", self.fault_stall),
            ("fault_recovery", self.fault_recovery),
            ("scheduler_idle", self.scheduler_idle),
            ("driver", self.driver),
            ("hdfs_io", self.hdfs_io),
            ("unattributed", self.unattributed),
        ]
    }

    /// JSON object `{bucket: seconds}` (deterministic key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(
            self.named()
                .iter()
                .map(|(k, v)| (*k, JsonValue::from(*v)))
                .collect(),
        )
    }
}

/// Task-time distribution and partition balance for one stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSkew {
    /// Stage id from the span log.
    pub stage_id: u64,
    /// Stage label.
    pub label: String,
    /// Stage wall duration (virtual seconds).
    pub duration: f64,
    /// Retained task count.
    pub tasks: usize,
    /// Median task duration (nearest rank).
    pub p50: f64,
    /// 95th-percentile task duration (nearest rank).
    pub p95: f64,
    /// Longest task duration.
    pub max: f64,
    /// `max / p50` — 1.0 for perfectly balanced stages; large values mean
    /// one straggler set the stage makespan.
    pub straggler_ratio: f64,
    /// Coefficient of variation (stddev/mean) of per-task records read — 0
    /// for perfectly even partitions.
    pub partition_cv: f64,
}

impl StageSkew {
    /// JSON object for manifests.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("stage_id", JsonValue::from(self.stage_id)),
            ("label", JsonValue::from(self.label.as_str())),
            ("duration", JsonValue::from(self.duration)),
            ("tasks", JsonValue::from(self.tasks)),
            ("p50", JsonValue::from(self.p50)),
            ("p95", JsonValue::from(self.p95)),
            ("max", JsonValue::from(self.max)),
            ("straggler_ratio", JsonValue::from(self.straggler_ratio)),
            ("partition_cv", JsonValue::from(self.partition_cv)),
        ])
    }
}

/// Everything [`critical_path`] computes.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Total virtual time of the run.
    pub makespan: f64,
    /// The makespan decomposition.
    pub buckets: CriticalPathBuckets,
    /// Per-stage skew, in stage order (only stages with retained tasks).
    pub stages: Vec<StageSkew>,
    /// True when ring-buffer drops mean the decomposition was reconstructed
    /// from an incomplete log (the unexplained history sits in
    /// `buckets.unattributed`).
    pub partial: bool,
    /// Each retained pass with its share of the decomposition, in pass
    /// order. Together with `outside` the rows sum to `buckets`.
    pub passes: Vec<(PassTiming, CriticalPathBuckets)>,
    /// The time outside every pass: the dense dictionary, trim plans,
    /// checkpoint jobs.
    pub outside: CriticalPathBuckets,
}

impl CriticalPathReport {
    /// JSON object for manifests (deterministic key order). The per-pass
    /// rows stay out: they are a view, the buckets are the record.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("makespan", JsonValue::from(self.makespan)),
            ("partial", JsonValue::Bool(self.partial)),
            ("buckets", self.buckets.to_json()),
            (
                "stages",
                JsonValue::Array(self.stages.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

/// What one primitive interval on the timeline attributes its time to.
enum Attribution<'a> {
    /// A stage span, decomposed internally.
    Stage(&'a StageSpan),
    /// A flat event, mapped whole to one bucket.
    Kind(EventKind),
}

/// Decompose the recorded run into [`CriticalPathBuckets`] and per-stage
/// skew metrics. Pure read: the metrics sink is not modified.
pub fn critical_path(metrics: &Metrics, cost: &CostModel) -> CriticalPathReport {
    let makespan = metrics.now().as_secs();
    let stage_spans = metrics.stage_spans();
    let task_spans = metrics.task_spans();
    let events = metrics.events();
    let partial = metrics.dropped().any();
    let lost_until = metrics.lost_until().as_secs();

    let mut tasks_by_stage: BTreeMap<u64, Vec<&TaskSpan>> = BTreeMap::new();
    for t in &task_spans {
        tasks_by_stage.entry(t.stage_id).or_default().push(t);
    }

    let mut prims: Vec<(f64, f64, Attribution)> = Vec::new();
    for s in &stage_spans {
        prims.push((s.start.as_secs(), s.end().as_secs(), Attribution::Stage(s)));
    }
    for e in &events {
        let (start, end) = (e.start.as_secs(), e.end().as_secs());
        prims.push((start, end, Attribution::Kind(e.kind)));
    }
    prims.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

    let mut buckets = CriticalPathBuckets::default();
    let mut rows = PassRows::new(metrics.passes());
    let mut cursor = 0.0_f64;
    for (start, end, attr) in prims {
        if start > cursor {
            add_gap(&mut buckets, &mut rows, cursor, start, lost_until);
        }
        let effective = (end - start.max(cursor)).max(0.0);
        if effective > 0.0 {
            // `scale < 1` only if primitives ever overlapped (they cannot,
            // every record advances the shared clock); kept for safety so
            // the sum invariant survives adversarial inputs.
            let scale = effective / (end - start);
            let row = rows.at((start.max(cursor) + end) / 2.0);
            match attr {
                Attribution::Stage(span) => {
                    let tasks = tasks_by_stage
                        .get(&span.stage_id)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    add_stage(&mut buckets, span, tasks, cost, scale);
                    add_stage(row, span, tasks, cost, scale);
                }
                Attribution::Kind(kind) => {
                    *flat_bucket(&mut buckets, kind) += effective;
                    *flat_bucket(row, kind) += effective;
                }
            }
        }
        cursor = cursor.max(end);
    }
    if makespan > cursor {
        // The run ends with driver-side work (final result fetch, rule
        // generation) recorded as a plain advance.
        add_gap(&mut buckets, &mut rows, cursor, makespan, lost_until);
    }

    let mut stages = Vec::new();
    for s in &stage_spans {
        if let Some(tasks) = tasks_by_stage.get(&s.stage_id) {
            if tasks.len() as u64 == s.tasks && !tasks.is_empty() {
                stages.push(stage_skew(s, tasks));
            }
        }
    }

    CriticalPathReport {
        makespan,
        buckets,
        stages,
        partial,
        passes: rows.passes.into_iter().zip(rows.rows).collect(),
        outside: rows.outside,
    }
}

/// The per-pass rows: a second accumulation over the same primitives.
struct PassRows {
    passes: Vec<PassTiming>,
    rows: Vec<CriticalPathBuckets>,
    outside: CriticalPathBuckets,
}

impl PassRows {
    fn new(passes: Vec<PassTiming>) -> Self {
        PassRows {
            rows: vec![CriticalPathBuckets::default(); passes.len()],
            passes,
            outside: CriticalPathBuckets::default(),
        }
    }

    /// The pass's interval in seconds.
    fn bounds(p: &PassTiming) -> (f64, f64) {
        (p.start.as_secs(), p.start.as_secs() + p.seconds)
    }

    /// The row of a primitive whose midpoint is `mid` (passes are filed in
    /// clock order and never overlap).
    fn at(&mut self, mid: f64) -> &mut CriticalPathBuckets {
        let after = self.passes.partition_point(|p| p.start.as_secs() <= mid);
        match after.checked_sub(1) {
            Some(i) if mid < Self::bounds(&self.passes[i]).1 => &mut self.rows[i],
            _ => &mut self.outside,
        }
    }

    /// Spread the interval `[from, to)` over the rows it crosses.
    fn spread(&mut self, from: f64, to: f64, add: impl Fn(&mut CriticalPathBuckets, f64)) {
        let mut left = to - from;
        for (p, row) in self.passes.iter().zip(&mut self.rows) {
            let (start, end) = Self::bounds(p);
            let overlap = to.min(end) - from.max(start);
            if overlap > 0.0 {
                add(row, overlap);
                left -= overlap;
            }
        }
        if left > 0.0 {
            add(&mut self.outside, left);
        }
    }
}

/// A stretch of clock no retained record covers: plain advances (job
/// submission overhead, driver result fetches) are driver time, except
/// before `lost_until`, where a dropped record once said what happened.
fn add_gap(b: &mut CriticalPathBuckets, rows: &mut PassRows, from: f64, to: f64, lost_until: f64) {
    let lost = (to.min(lost_until) - from).max(0.0);
    b.unattributed += lost;
    b.driver += (to - from) - lost;
    rows.spread(from, from + lost, |r, s| r.unattributed += s);
    rows.spread(from + lost, to, |r, s| r.driver += s);
}

/// Which bucket a flat event belongs to.
fn flat_bucket(b: &mut CriticalPathBuckets, kind: EventKind) -> &mut f64 {
    match kind {
        EventKind::Broadcast => &mut b.broadcast,
        EventKind::HdfsRead | EventKind::HdfsWrite => &mut b.hdfs_io,
        EventKind::Driver | EventKind::Projection => &mut b.driver,
        EventKind::Checkpoint => &mut b.checkpoint,
        EventKind::Other => &mut b.unattributed,
    }
}

/// Decompose one stage interval. `scale` is 1.0 unless the interval was
/// clipped against an overlap (never, in practice).
fn add_stage(
    b: &mut CriticalPathBuckets,
    span: &StageSpan,
    tasks: &[&TaskSpan],
    cost: &CostModel,
    scale: f64,
) {
    let stage_start = span.start.as_secs();
    let stage_end = span.end().as_secs();
    // With tasks missing from the ring the window reconstruction would be
    // wrong; fall back to a proportional split of the whole interval using
    // the (complete) merged stage profile.
    if tasks.is_empty() || tasks.len() as u64 != span.tasks {
        let total = (stage_end - stage_start) * scale;
        split_busy(b, total, &span.profile, &span.recovery, cost);
        return;
    }

    let window_start = tasks
        .iter()
        .map(|t| t.start.as_secs())
        .fold(f64::INFINITY, f64::min);
    let window_end = tasks
        .iter()
        .map(|t| t.end().as_secs())
        .fold(f64::NEG_INFINITY, f64::max);

    // The pre-window time is stage overhead; with the trailing time
    // (heartbeat waves) it is scheduler bookkeeping.
    let pre_window = (window_start - stage_start).max(0.0);
    b.scheduler_idle += (pre_window + (stage_end - window_end).max(0.0)) * scale;

    // Union of task intervals: wall time with at least one task running.
    let mut intervals: Vec<(f64, f64)> = tasks
        .iter()
        .map(|t| (t.start.as_secs(), t.end().as_secs()))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut busy = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                busy += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    if let Some((os, oe)) = open {
        busy += oe - os;
    }

    // All-cores-idle holes inside the window: the fault scheduler's
    // resubmit delays and recomputation waves for faulty stages; plain
    // scheduling gaps otherwise.
    let holes = ((window_end - window_start) - busy).max(0.0);
    if span.recovery.any() {
        b.fault_recovery += holes * scale;
    } else {
        b.scheduler_idle += holes * scale;
    }

    split_busy(b, busy * scale, &span.profile, &span.recovery, cost);
}

/// Split `busy` wall seconds across the work buckets proportionally to the
/// cost-model weight of each activity in the merged profile. The weights
/// are normalized so the split sums to exactly `busy`.
fn split_busy(
    b: &mut CriticalPathBuckets,
    busy: f64,
    profile: &TaskProfile,
    recovery: &RecoveryCounters,
    cost: &CostModel,
) {
    if busy <= 0.0 {
        return;
    }
    let stall = profile.work.stall_micros as f64 / 1e6;
    let shuffle_read = cost.net_transfer(profile.shuffle_read_bytes).as_secs();
    let shuffle_write = (cost.disk_write(profile.shuffle_write_bytes)
        + cost.serialize(profile.shuffle_write_bytes))
    .as_secs();
    let broadcast = cost.net_transfer(profile.broadcast_read_bytes).as_secs();
    let cache = cost.mem_scan(profile.work.mem_read_bytes).as_secs();
    let data = profile.work.data_time(cost).as_secs();
    let compute = (data - stall - shuffle_read - shuffle_write - broadcast - cache).max(0.0);
    let sum = stall + shuffle_read + shuffle_write + broadcast + cache + compute;
    if sum <= 0.0 {
        // A stage that did no attributable work (empty task set, pure
        // overhead): idle from the scheduler's point of view — unless it
        // recorded failures, in which case the time is recovery.
        if recovery.any() {
            b.fault_recovery += busy;
        } else {
            b.scheduler_idle += busy;
        }
        return;
    }
    let k = busy / sum;
    b.fault_stall += stall * k;
    b.shuffle_read += shuffle_read * k;
    b.shuffle_write += shuffle_write * k;
    b.broadcast += broadcast * k;
    b.cache += cache * k;
    b.compute += compute * k;
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn stage_skew(span: &StageSpan, tasks: &[&TaskSpan]) -> StageSkew {
    let mut durations: Vec<f64> = tasks.iter().map(|t| t.duration.as_secs()).collect();
    durations.sort_by(f64::total_cmp);
    let p50 = percentile(&durations, 0.50);
    let p95 = percentile(&durations, 0.95);
    let max = *durations.last().unwrap_or(&0.0);
    let straggler_ratio = if p50 > 0.0 { max / p50 } else { 1.0 };

    let sizes: Vec<f64> = tasks
        .iter()
        .map(|t| t.profile.records_read as f64)
        .collect();
    let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
    let partition_cv = if mean > 0.0 {
        let var = sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sizes.len() as f64;
        var.sqrt() / mean
    } else {
        0.0
    };

    StageSkew {
        stage_id: span.stage_id,
        label: span.label.clone(),
        duration: span.duration.as_secs(),
        tasks: tasks.len(),
        p50,
        p95,
        max,
        straggler_ratio,
        partition_cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsCapacity, StageExecution, StageKind, TaskExecution};
    use crate::spec::NodeId;
    use crate::time::SimDuration;
    use std::time::Instant;

    const EPS: f64 = 1e-6;

    fn task(partition: usize, node: u32, core: usize, start: f64, dur: f64) -> TaskExecution {
        TaskExecution {
            partition,
            node: NodeId(node),
            core,
            start: SimDuration::from_secs(start),
            duration: SimDuration::from_secs(dur),
            profile: TaskProfile::new(),
        }
    }

    fn worked_task(
        partition: usize,
        start: f64,
        dur: f64,
        records: u64,
        shuffle_read: u64,
    ) -> TaskExecution {
        let mut t = task(partition, 0, partition, start, dur);
        t.profile.work.add_records_in(records);
        t.profile.records_read = records;
        t.profile.work.add_net(shuffle_read);
        t.profile.shuffle_read_bytes = shuffle_read;
        t
    }

    fn assert_sums(m: &Metrics) -> CriticalPathReport {
        let report = critical_path(m, &CostModel::hadoop_era());
        assert!(
            (report.buckets.total() - report.makespan).abs() < EPS,
            "buckets {:?} total {} != makespan {}",
            report.buckets,
            report.buckets.total(),
            report.makespan
        );
        report
    }

    #[test]
    fn empty_run_is_all_zero() {
        let m = Metrics::new();
        let r = assert_sums(&m);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.buckets, CriticalPathBuckets::default());
        assert!(!r.partial);
    }

    #[test]
    fn stage_overhead_and_gaps_are_attributed() {
        let m = Metrics::new();
        // A plain advance: job submission overhead → driver.
        m.advance(SimDuration::from_secs(1.0));
        m.record_stage_with_recovery(
            StageExecution {
                label: "s".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::from_secs(0.5),
                trailing: SimDuration::from_secs(0.25),
                tasks: vec![worked_task(0, 0.0, 2.0, 100, 0)],
            },
            Default::default(),
        );
        // Trailing driver fetch.
        m.advance(SimDuration::from_secs(0.5));
        let r = assert_sums(&m);
        assert!((r.makespan - 4.25).abs() < EPS);
        assert!((r.buckets.driver - 1.5).abs() < EPS, "{:?}", r.buckets);
        assert!(
            (r.buckets.scheduler_idle - 0.75).abs() < EPS,
            "{:?}",
            r.buckets
        );
        assert!((r.buckets.compute - 2.0).abs() < EPS, "{:?}", r.buckets);
    }

    #[test]
    fn busy_time_splits_by_profile_weights() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "fetchy".into(),
                kind: StageKind::Result,
                shuffle_id: Some(1),
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                // All network bytes are shuffle reads: the busy time should be
                // dominated by the shuffle_read bucket.
                tasks: vec![worked_task(0, 0.0, 3.0, 10, 200_000_000)],
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        assert!(r.buckets.shuffle_read > r.buckets.compute);
        assert!(r.buckets.shuffle_read > 2.0, "{:?}", r.buckets);
    }

    #[test]
    fn flat_events_map_to_their_buckets() {
        let m = Metrics::new();
        m.advance_with_event(SimDuration::from_secs(1.0), EventKind::Broadcast, "b");
        m.advance_with_event(SimDuration::from_secs(2.0), EventKind::HdfsRead, "r");
        m.advance_with_event(SimDuration::from_secs(0.5), EventKind::Checkpoint, "c");
        m.advance_with_event(SimDuration::from_secs(0.25), EventKind::Projection, "p");
        let r = assert_sums(&m);
        assert!((r.buckets.broadcast - 1.0).abs() < EPS);
        assert!((r.buckets.hdfs_io - 2.0).abs() < EPS);
        assert!((r.buckets.checkpoint - 0.5).abs() < EPS);
        assert!((r.buckets.driver - 0.25).abs() < EPS);
    }

    #[test]
    fn pass_rows_and_the_outside_row_tile_the_run() {
        let m = Metrics::new();
        let stage = |label: &str| StageExecution {
            label: label.into(),
            kind: StageKind::Result,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![worked_task(0, 0.0, 1.0, 10, 0)],
        };
        let job = m.begin_job("j");
        let start = m.now();
        m.advance(SimDuration::from_secs(0.5)); // job overhead, inside pass 1
        m.record_stage_with_recovery(stage("s1"), Default::default());
        m.end_job(job);
        m.record_pass(1..=1, "items", (start, Instant::now()), 3, 2);
        m.advance_with_event(SimDuration::from_secs(0.25), EventKind::Projection, "p");
        // Two plain advances are one gap, and it straddles pass 2's start.
        m.advance(SimDuration::from_secs(0.25));
        let start = m.now();
        m.advance(SimDuration::from_secs(0.25));
        m.record_stage_with_recovery(stage("s2"), Default::default());
        m.record_pass(2..=2, "trie", (start, Instant::now()), 1, 1);
        let r = assert_sums(&m);
        assert!((r.makespan - 3.25).abs() < EPS, "a pass adds no time");
        assert_eq!(r.passes.len(), 2);
        for (pass, row) in &r.passes {
            assert!((row.total() - pass.seconds).abs() < EPS, "{pass:?} {row:?}");
        }
        assert!((r.passes[0].1.driver - 0.5).abs() < EPS);
        assert!((r.passes[1].1.driver - 0.25).abs() < EPS);
        assert!((r.outside.driver - 0.5).abs() < EPS, "{:?}", r.outside);
        let mut rows: Vec<CriticalPathBuckets> = r.passes.iter().map(|(_, b)| *b).collect();
        rows.push(r.outside);
        for (k, (name, total)) in r.buckets.named().into_iter().enumerate() {
            let sum: f64 = rows.iter().map(|b| b.named()[k].1).sum();
            assert!((sum - total).abs() < EPS, "{name}: {sum} vs {total}");
        }
    }

    #[test]
    fn holes_in_faulty_stages_are_recovery() {
        let m = Metrics::new();
        let recovery = RecoveryCounters {
            task_failures: 1,
            task_retries: 1,
            ..RecoveryCounters::default()
        };
        m.record_stage_with_recovery(
            StageExecution {
                label: "faulty".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                // Attempt at [0,1), resubmit delay, retry at [2,3): the
                // all-idle hole [1,2) is recovery time.
                tasks: vec![
                    worked_task(0, 0.0, 1.0, 10, 0),
                    worked_task(0, 2.0, 1.0, 10, 0),
                ],
            },
            recovery,
        );
        let r = assert_sums(&m);
        assert!(
            (r.buckets.fault_recovery - 1.0).abs() < EPS,
            "{:?}",
            r.buckets
        );
        assert!((r.buckets.compute - 2.0).abs() < EPS, "{:?}", r.buckets);
    }

    #[test]
    fn same_hole_without_recovery_is_scheduler_idle() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "gappy".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![
                    worked_task(0, 0.0, 1.0, 10, 0),
                    worked_task(1, 2.0, 1.0, 10, 0),
                ],
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        assert!(
            (r.buckets.scheduler_idle - 1.0).abs() < EPS,
            "{:?}",
            r.buckets
        );
    }

    #[test]
    fn stage_with_dropped_tasks_splits_the_whole_interval() {
        let m = Metrics::with_capacity(MetricsCapacity {
            events: 16,
            jobs: 16,
            stages: 16,
            tasks: 1,
        });
        // Two tasks but capacity one: the span survives, a task is dropped,
        // forcing the proportional fallback path.
        m.record_stage_with_recovery(
            StageExecution {
                label: "truncated".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::from_secs(2.0),
                trailing: SimDuration::ZERO,
                tasks: vec![
                    worked_task(0, 0.0, 1.0, 10, 0),
                    worked_task(1, 0.0, 1.0, 10, 0),
                ],
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        assert!((r.makespan - 3.0).abs() < EPS);
        assert!(r.buckets.compute > 0.0, "{:?}", r.buckets);
    }

    #[test]
    fn stall_micros_become_fault_stall() {
        let m = Metrics::new();
        let mut t = task(0, 0, 0, 0.0, 2.0);
        t.profile.work.add_stall_micros(1_000_000); // 1s of backoff
        t.profile.work.add_cpu(10_000_000); // 1s of CPU at hadoop_era
        m.record_stage_with_recovery(
            StageExecution {
                label: "stalled".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![t],
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        assert!(r.buckets.fault_stall > 0.5, "{:?}", r.buckets);
        assert!(r.buckets.compute > 0.5, "{:?}", r.buckets);
    }

    #[test]
    fn dropped_history_goes_to_unattributed() {
        let m = Metrics::with_capacity(MetricsCapacity {
            events: 2,
            jobs: 2,
            stages: 2,
            tasks: 4,
        });
        for i in 0..5 {
            m.record_stage_with_recovery(
                StageExecution {
                    label: format!("s{i}"),
                    kind: StageKind::Result,
                    shuffle_id: None,
                    overhead: SimDuration::ZERO,
                    trailing: SimDuration::ZERO,
                    tasks: vec![worked_task(0, 0.0, 1.0, 10, 0)],
                },
                Default::default(),
            );
        }
        let r = assert_sums(&m);
        assert!(r.partial);
        // The three dropped 1s stages are unexplained history.
        assert!(
            (r.buckets.unattributed - 3.0).abs() < EPS,
            "{:?}",
            r.buckets
        );
    }

    #[test]
    fn dropped_stages_between_kept_events_are_unattributed() {
        let m = Metrics::with_capacity(MetricsCapacity {
            stages: 2,
            ..MetricsCapacity::default()
        });
        for i in 0..5 {
            let label = format!("b{i}");
            m.advance_with_event(SimDuration::from_secs(0.5), EventKind::Broadcast, label);
            m.record_stage_with_recovery(
                StageExecution {
                    label: format!("s{i}"),
                    kind: StageKind::Result,
                    shuffle_id: None,
                    overhead: SimDuration::ZERO,
                    trailing: SimDuration::ZERO,
                    tasks: vec![worked_task(0, 0.0, 1.0, 10, 0)],
                },
                Default::default(),
            );
        }
        let r = assert_sums(&m);
        assert!(r.partial);
        // s0..s2 are gone; the broadcasts around them survive.
        let b = r.buckets;
        assert!((b.unattributed - 3.0).abs() < EPS, "{b:?}");
        assert!((b.broadcast - 2.5).abs() < EPS, "{b:?}");
        assert!(b.driver.abs() < EPS, "{b:?}");
    }

    #[test]
    fn skew_metrics_match_known_distribution() {
        let m = Metrics::new();
        let mut tasks = Vec::new();
        for p in 0..10 {
            let mut t = worked_task(p, 0.0, 1.0, 100, 0);
            if p == 9 {
                t.duration = SimDuration::from_secs(4.0);
                t.profile.records_read = 400;
                t.profile.work.add_records_in(300);
            }
            tasks.push(t);
        }
        m.record_stage_with_recovery(
            StageExecution {
                label: "skewed".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks,
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        assert_eq!(r.stages.len(), 1);
        let s = &r.stages[0];
        assert_eq!(s.tasks, 10);
        assert!((s.p50 - 1.0).abs() < EPS);
        assert!((s.max - 4.0).abs() < EPS);
        assert!((s.straggler_ratio - 4.0).abs() < EPS);
        assert!(s.partition_cv > 0.5, "{s:?}");
        // p95 with nearest-rank over 10 samples is the 10th value.
        assert!((s.p95 - 4.0).abs() < EPS);
    }

    #[test]
    fn report_serializes() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "s".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::from_secs(0.5),
                trailing: SimDuration::ZERO,
                tasks: vec![worked_task(0, 0.0, 1.0, 10, 0)],
            },
            Default::default(),
        );
        let r = assert_sums(&m);
        let json = r.to_json();
        let parsed = crate::json::parse(&json.to_string()).expect("round-trips");
        assert_eq!(
            parsed.get("buckets").and_then(|b| b.get("compute")),
            json.get("buckets").and_then(|b| b.get("compute"))
        );
        let total: f64 = parsed
            .get("buckets")
            .and_then(|b| b.as_object())
            .map(|o| o.values().filter_map(|v| v.as_f64()).sum())
            .unwrap_or(0.0);
        assert!((total - r.makespan).abs() < EPS);
    }
}
