//! Shared metrics: the virtual clock, aggregate counters, and the run's
//! record of intervals on the virtual timeline.
//!
//! Both engines charge all their virtual time here, so an experiment can run
//! a YAFIM job and an MR-Apriori job against separate clusters and compare
//! `metrics().now()` readings, or read back the passes to reconstruct the
//! per-iteration series of the paper's Fig. 3/Fig. 6.
//!
//! Every interval is filed once, in one of three logs on the same clock:
//!
//! * **spans** — [`JobSpan`] / [`StageSpan`] / [`TaskSpan`], parented
//!   job → stage → task, each task attributed to a simulated node and core
//!   with queue wait and a full [`TaskProfile`];
//! * **passes** — [`PassTiming`], one per Apriori pass, filed by the
//!   miner's driver loop through [`Metrics::record_pass`];
//! * **events** — flat driver-side intervals ([`Event`]) that no span
//!   covers: broadcasts, HDFS traffic, driver and projection work.
//!
//! The **aggregates** ([`MetricsSnapshot`]) hold every count a manifest
//! reports, each a row of one counter table.
//!
//! Every log is a bounded ring buffer: when full, the *oldest* entries are
//! dropped and counted in [`DropCounts`], never silently (the text report
//! prints them), and the end of the newest dropped interval is kept so the
//! critical path can tell lost history from driver time. Engines record
//! stages through [`Metrics::record_stage_with_recovery`], which advances
//! the clock and files the stage and its tasks atomically.

use crate::fault::{counter_table, RecoveryCounters};
use crate::spec::NodeId;
use crate::sync::Mutex;
use crate::time::{SimDuration, SimInstant};
use crate::work::TaskProfile;
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What kind of driver-side activity an [`Event`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A broadcast of shared data to the workers.
    Broadcast,
    /// Reading a file from simulated HDFS.
    HdfsRead,
    /// Committing a file to simulated HDFS.
    HdfsWrite,
    /// Driver-side computation (candidate generation etc.).
    Driver,
    /// Dataset projection / trimming work (dense re-encoding dictionary
    /// builds, cross-pass trim planning) — attributed separately from
    /// generic driver work so reports can show what the re-encoding costs.
    Projection,
    /// Checkpoint traffic outside any stage.
    Checkpoint,
    /// Anything else.
    Other,
}

/// What a stage's tasks produce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StageKind {
    /// The last stage of a job: its tasks' results go to the driver (or,
    /// for a checkpoint, to stable storage).
    #[default]
    Result,
    /// A shuffle map stage, writing shuffle files for a `reduceByKey`.
    ShuffleMap,
}

/// One interval on the virtual timeline.
#[derive(Clone, Debug)]
pub struct Event {
    /// Category of the interval.
    pub kind: EventKind,
    /// Human-readable label, e.g. `"ap_gen pass 3"`.
    pub label: String,
    /// Start of the interval.
    pub start: SimInstant,
    /// Length of the interval.
    pub duration: SimDuration,
}

impl Event {
    /// End of the interval.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }
}

/// One engine job (action / MR job) on the virtual timeline.
#[derive(Clone, Debug)]
pub struct JobSpan {
    /// Job id, unique per metrics sink.
    pub job_id: u64,
    /// Label, e.g. `"collect rdd7"`.
    pub label: String,
    /// Start of the job interval.
    pub start: SimInstant,
    /// Length of the job interval.
    pub duration: SimDuration,
}

impl JobSpan {
    /// End of the job interval.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }
}

/// One scheduler stage, parented to a job.
#[derive(Clone, Debug)]
pub struct StageSpan {
    /// Stage id, unique per metrics sink.
    pub stage_id: u64,
    /// Owning job id (0 when the stage ran outside any open job).
    pub job_id: u64,
    /// Stage label.
    pub label: String,
    /// Result or shuffle-map stage.
    pub kind: StageKind,
    /// Shuffle id, for map stages of a `reduceByKey` and for stages reading
    /// shuffle output.
    pub shuffle_id: Option<u64>,
    /// Start of the stage interval (including overhead).
    pub start: SimInstant,
    /// Length of the stage interval.
    pub duration: SimDuration,
    /// Number of tasks the stage ran.
    pub tasks: u64,
    /// Merged profile over the stage's tasks.
    pub profile: TaskProfile,
    /// Failures, retries and speculation this stage went through (all zero
    /// for a fault-free stage).
    pub recovery: RecoveryCounters,
}

impl StageSpan {
    /// End of the stage interval.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }
}

/// One task, parented to a stage, attributed to a simulated node and core.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    /// Owning stage id.
    pub stage_id: u64,
    /// Owning job id (0 when outside any open job).
    pub job_id: u64,
    /// Partition index the task computed.
    pub partition: usize,
    /// Node the task ran on.
    pub node: NodeId,
    /// Core *within* the node.
    pub core: usize,
    /// Time the task spent queued after stage submission.
    pub queue_wait: SimDuration,
    /// Launch time on the virtual timeline.
    pub start: SimInstant,
    /// Run time.
    pub duration: SimDuration,
    /// Everything the task did.
    pub profile: TaskProfile,
}

impl TaskSpan {
    /// End of the task interval.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }
}

/// Timing and size facts about one Apriori pass — one point of the paper's
/// Fig. 3 / Fig. 6 per-iteration series. Built only by
/// [`Metrics::record_pass`].
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// Pass number (1 = the frequent-items pass); the first level of a
    /// job that counted several.
    pub pass: usize,
    /// The last level the pass's job counted: `pass` itself unless the job
    /// combined passes (MR's FPC and DPC, the bitmap plan's chain).
    pub last: usize,
    /// What counted the pass: `items` for pass 1, the matcher after it
    /// (`hash tree`, `triangle`, `bitmap`), or the phase for the
    /// miners that run two.
    pub counter: &'static str,
    /// Start of the pass on the virtual timeline.
    pub start: SimInstant,
    /// Virtual seconds the pass took.
    pub seconds: f64,
    /// Candidates counted in the pass (pass 1: distinct items seen).
    pub candidates: usize,
    /// Frequent itemsets surviving the pass.
    pub frequent: usize,
    /// Host time the pass took: not in `==`, the manifest or the trace.
    pub wall: Duration,
    /// Host time the pass spent outside its stages' task batches: `wall`
    /// less the time the driver waited on the worker pool. Host-only, like
    /// `wall`.
    pub driver: Duration,
}

/// Where a pass began, as [`Metrics::pass_start`] reads it: on the virtual
/// clock, on the host's, and in the host time spent in task batches so far.
#[derive(Clone, Copy, Debug)]
pub struct PassStart {
    at: SimInstant,
    wall: Instant,
    in_batches: Duration,
}

impl PartialEq for PassTiming {
    fn eq(&self, o: &Self) -> bool {
        let key = |p: &Self| (p.pass, p.last, p.counter, p.start, p.seconds, p.candidates);
        key(self) == key(o) && self.frequent == o.frequent
    }
}

impl PassTiming {
    /// The levels the pass covers, as the report prints them: `3`, or
    /// `3-10` for a job that counted levels 3 to 10.
    pub(crate) fn span(&self) -> String {
        let last = (self.last > self.pass).then(|| format!("-{}", self.last));
        format!("{}{}", self.pass, last.unwrap_or_default())
    }
}

/// One task's execution record, as reported by an engine to
/// [`Metrics::record_stage_with_recovery`]. Times are relative to the start
/// of the stage's task window (after the stage overhead).
#[derive(Clone, Debug)]
pub(crate) struct TaskExecution {
    /// Partition index.
    pub partition: usize,
    /// Node the task ran on.
    pub node: NodeId,
    /// Core within the node.
    pub core: usize,
    /// Launch offset from the task window start (the queue wait).
    pub start: SimDuration,
    /// Task duration.
    pub duration: SimDuration,
    /// Everything the task did.
    pub profile: TaskProfile,
}

/// One stage's execution record: clock accounting plus per-task placements.
///
/// The stage charges `overhead + max(start + duration over tasks) +
/// trailing` to the virtual clock. `overhead` models driver/stage setup
/// before the first task launches; `trailing` models per-wave latencies
/// charged after the last task (MapReduce heartbeats).
#[derive(Clone, Debug)]
pub(crate) struct StageExecution {
    /// Stage label.
    pub label: String,
    /// Result or shuffle-map stage.
    pub kind: StageKind,
    /// Shuffle id this stage writes or reads, if any.
    pub shuffle_id: Option<u64>,
    /// Setup time before the first task can launch.
    pub overhead: SimDuration,
    /// Extra time charged after the last task finishes.
    pub trailing: SimDuration,
    /// Per-task execution records.
    pub tasks: Vec<TaskExecution>,
}

counter_table! {
    /// What the engines count outside any task profile or stage recovery
    /// block: broadcast shipping, the bitmap counter's work, placement
    /// decisions and two high-water marks. Noted with
    /// [`Metrics::note_engine`]; every row names its manifest key.
    pub struct EngineCounters {
        /// Bytes shipped through broadcasts: the basis of the re-fetch
        /// charge when a node (and its torrent blocks) is lost.
        broadcast_ship_bytes: sum "counter.broadcast.ship_bytes",
        /// Broadcast variables created.
        broadcast_variables: sum "counter.broadcast.variables",
        /// Phase-II passes counted through the columnar bitmaps.
        bitmap_passes: sum "counter.bitmap.passes",
        /// Candidates those passes counted.
        bitmap_candidates_counted: sum "counter.bitmap.candidates_counted",
        /// Words AND-ed and popcounted by the bitmap tasks.
        bitmap_words_intersected: sum "counter.bitmap.words_intersected",
        /// Columnar partitions built (a lineage recompute builds again).
        bitmap_partitions_built: sum "counter.bitmap.partitions_built",
        /// Arena bytes of those builds.
        bitmap_build_bytes: sum "counter.bitmap.build_bytes",
        /// Bitmap runs the density guard sent to the hash tree instead.
        bitmap_fallbacks: sum "counter.bitmap.fallbacks",
        /// Placement decision units the virtual scheduler spent.
        sched_decision_units: sum "counter.sched.decision_units",
        /// Most bytes the partition cache held, as of any stage's end.
        cache_peak_bytes: max "gauge.cache.peak_bytes",
        /// The governor's hard per-task cap (the node's evictable memory; 0
        /// when unarmed): no task's execution peak may exceed it.
        task_budget_bytes: max "gauge.mem.task_budget_bytes",
    }
}

/// Aggregate counters over a whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// Current virtual time.
    pub now: SimInstant,
    /// Jobs executed.
    pub jobs: u64,
    /// Stages executed.
    pub stages: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Merged full profile across all tasks.
    pub profile: TaskProfile,
    /// Merged failure/retry/speculation counters across all stages.
    pub recovery: RecoveryCounters,
    /// Merged engine-side counters.
    pub engine: EngineCounters,
    /// [`Metrics::note_shipped`]'s counts; no manifest rows.
    pub shipped: (u64, u64),
}

counter_table! {
    /// How many entries each bounded log has discarded (oldest first).
    pub struct DropCounts {
        /// Dropped flat events.
        events: sum "dropped.events",
        /// Dropped job spans.
        jobs: sum "dropped.jobs",
        /// Dropped stage spans.
        stages: sum "dropped.stages",
        /// Dropped task spans.
        tasks: sum "dropped.tasks",
        /// Dropped pass records.
        passes: sum "dropped.passes",
    }
}

/// Ring-buffer capacities for the in-memory logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MetricsCapacity {
    /// Max retained flat events.
    pub events: usize,
    /// Max retained job spans.
    pub jobs: usize,
    /// Max retained stage spans.
    pub stages: usize,
    /// Max retained task spans.
    pub tasks: usize,
}

impl Default for MetricsCapacity {
    fn default() -> Self {
        // Sized so every paper-figure run fits with room to spare, while a
        // pathological long-running job tops out around tens of MB.
        MetricsCapacity {
            events: 16_384,
            jobs: 4_096,
            stages: 16_384,
            tasks: 262_144,
        }
    }
}

/// A bounded log: ring buffer plus a count of entries dropped at the front.
struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append `item`, returning the oldest entry if it had to make room.
    fn push(&mut self, item: T) -> Option<T> {
        let mut evicted = None;
        if self.buf.len() == self.capacity {
            evicted = self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        evicted
    }
}

struct MetricsInner {
    now: SimInstant,
    jobs: u64,
    stages: u64,
    tasks: u64,
    profile: TaskProfile,
    recovery: RecoveryCounters,
    engine: EngineCounters,
    shipped: (u64, u64),
    next_job_id: u64,
    next_stage_id: u64,
    /// Innermost-last stack of jobs opened via [`Metrics::begin_job`].
    open_jobs: Vec<(u64, String, SimInstant)>,
    events: Ring<Event>,
    job_spans: Ring<JobSpan>,
    stage_spans: Ring<StageSpan>,
    task_spans: Ring<TaskSpan>,
    passes: Ring<PassTiming>,
    /// End of the newest interval a ring dropped: what the retained logs
    /// say about the time before it is incomplete.
    lost_until: SimInstant,
}

impl MetricsInner {
    fn new(capacity: MetricsCapacity) -> Self {
        MetricsInner {
            now: SimInstant::EPOCH,
            jobs: 0,
            stages: 0,
            tasks: 0,
            profile: TaskProfile::new(),
            recovery: RecoveryCounters::default(),
            engine: EngineCounters::default(),
            shipped: (0, 0),
            next_job_id: 1,
            next_stage_id: 1,
            open_jobs: Vec::new(),
            events: Ring::new(capacity.events),
            job_spans: Ring::new(capacity.jobs),
            stage_spans: Ring::new(capacity.stages),
            task_spans: Ring::new(capacity.tasks),
            // Every pass runs at least one job, so the job ring's capacity
            // keeps at least as many passes as jobs.
            passes: Ring::new(capacity.jobs),
            lost_until: SimInstant::EPOCH,
        }
    }
}

/// Thread-safe handle to the virtual clock and the logs. Cheap to clone.
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
    /// Host nanoseconds the driver has waited on task batches
    /// ([`ThreadPool::map`](crate::ThreadPool::map)), shared with the pool.
    in_batches: Arc<AtomicU64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh metrics sink at virtual time zero with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(MetricsCapacity::default())
    }

    /// A fresh metrics sink with explicit ring-buffer capacities.
    pub(crate) fn with_capacity(capacity: MetricsCapacity) -> Self {
        Metrics {
            inner: Arc::new(Mutex::new(MetricsInner::new(capacity))),
            in_batches: Arc::default(),
        }
    }

    /// The counter the worker pool adds the host time of each batch to.
    pub(crate) fn batch_clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.in_batches)
    }

    /// Where a pass beginning now begins, for [`Metrics::record_pass`].
    pub fn pass_start(&self) -> PassStart {
        let in_batches = Duration::from_nanos(self.in_batches.load(Ordering::Relaxed));
        PassStart {
            at: self.now(),
            wall: Instant::now(),
            in_batches,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.inner.lock().now
    }

    /// Advance the virtual clock by `d`, returning the interval's
    /// `(start, end)`.
    pub fn advance(&self, d: SimDuration) -> (SimInstant, SimInstant) {
        let mut g = self.inner.lock();
        let start = g.now;
        g.now += d;
        (start, g.now)
    }

    /// Advance the clock and record an [`Event`] covering the interval.
    pub fn advance_with_event(
        &self,
        d: SimDuration,
        kind: EventKind,
        label: impl Into<String>,
    ) -> (SimInstant, SimInstant) {
        let mut g = self.inner.lock();
        let start = g.now;
        g.now += d;
        let end = g.now;
        let event = Event {
            kind,
            label: label.into(),
            start,
            duration: d,
        };
        if let Some(lost) = g.events.push(event) {
            g.lost_until = g.lost_until.max(lost.end());
        }
        (start, end)
    }

    /// File the Apriori passes `levels` (one level, or the levels one job
    /// counted) that began at `start` and end now, counted by `counter`, and
    /// return their record for the miner's series.
    pub fn record_pass(
        &self,
        levels: RangeInclusive<usize>,
        counter: &'static str,
        start: PassStart,
        candidates: usize,
        frequent: usize,
    ) -> PassTiming {
        let wall = start.wall.elapsed();
        let in_batches = self.pass_start().in_batches - start.in_batches;
        let mut g = self.inner.lock();
        let timing = PassTiming {
            pass: *levels.start(),
            last: *levels.end(),
            counter,
            start: start.at,
            seconds: g.now.since(start.at).as_secs(),
            candidates,
            frequent,
            wall,
            driver: wall.saturating_sub(in_batches),
        };
        g.passes.push(timing.clone());
        timing
    }

    /// Open a job span at the current virtual time. Stages recorded before
    /// the matching [`Metrics::end_job`] are parented to it. Returns the job
    /// id.
    pub fn begin_job(&self, label: impl Into<String>) -> u64 {
        let mut g = self.inner.lock();
        let id = g.next_job_id;
        g.next_job_id += 1;
        let now = g.now;
        g.open_jobs.push((id, label.into(), now));
        id
    }

    /// Close a job opened with [`Metrics::begin_job`]: files the
    /// [`JobSpan`] and bumps the job counter. Out-of-order ids are
    /// tolerated (the matching entry is removed wherever it sits on the
    /// stack).
    pub fn end_job(&self, job_id: u64) {
        let mut g = self.inner.lock();
        let Some(pos) = g.open_jobs.iter().position(|(id, _, _)| *id == job_id) else {
            return;
        };
        let (id, label, start) = g.open_jobs.remove(pos);
        let duration = g.now.since(start);
        g.job_spans.push(JobSpan {
            job_id: id,
            label,
            start,
            duration,
        });
        g.jobs += 1;
    }

    /// Record one executed stage: advances the clock by
    /// `overhead + makespan + trailing`, files the stage span and its task
    /// spans, and merges the profiles and the stage's
    /// failure/retry/speculation counters into the aggregates.
    /// Returns the assigned stage id.
    pub(crate) fn record_stage_with_recovery(
        &self,
        exec: StageExecution,
        recovery: RecoveryCounters,
    ) -> u64 {
        let mut g = self.inner.lock();
        let stage_id = g.next_stage_id;
        g.next_stage_id += 1;
        let job_id = g.open_jobs.last().map_or(0, |(id, _, _)| *id);

        let stage_start = g.now;
        let makespan = exec
            .tasks
            .iter()
            .map(|t| t.start + t.duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        let duration = exec.overhead + makespan + exec.trailing;
        g.now = stage_start + duration;

        let window_start = stage_start + exec.overhead;
        let mut merged = TaskProfile::new();
        for t in &exec.tasks {
            merged.merge(&t.profile);
            g.task_spans.push(TaskSpan {
                stage_id,
                job_id,
                partition: t.partition,
                node: t.node,
                core: t.core,
                queue_wait: t.start,
                start: window_start + t.start,
                duration: t.duration,
                profile: t.profile,
            });
        }

        let span = StageSpan {
            stage_id,
            job_id,
            label: exec.label,
            kind: exec.kind,
            shuffle_id: exec.shuffle_id,
            start: stage_start,
            duration,
            tasks: exec.tasks.len() as u64,
            profile: merged,
            recovery,
        };
        if let Some(lost) = g.stage_spans.push(span) {
            g.lost_until = g.lost_until.max(lost.end());
        }
        g.stages += 1;
        g.tasks += exec.tasks.len() as u64;
        g.profile.merge(&merged);
        g.recovery.merge(&recovery);
        stage_id
    }

    /// Merge engine-level recovery counters (node losses, fetch failures,
    /// lineage recomputations) into the aggregates, outside any stage.
    pub fn note_recovery(&self, counters: &RecoveryCounters) {
        self.inner.lock().recovery.merge(counters);
    }

    /// Merge engine-side counters into the aggregates; callable from the
    /// driver and from inside tasks alike (every row merges commutatively).
    pub fn note_engine(&self, counters: &EngineCounters) {
        self.inner.lock().engine.merge(counters);
    }

    /// Count records written as aggregate partials and as shuffle output.
    pub fn note_shipped(&self, partial: u64, shuffle: u64) {
        let mut g = self.inner.lock();
        g.shipped.0 += partial;
        g.shipped.1 += shuffle;
    }

    /// Copy of the aggregate counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock();
        MetricsSnapshot {
            now: g.now,
            jobs: g.jobs,
            stages: g.stages,
            tasks: g.tasks,
            profile: g.profile,
            recovery: g.recovery,
            engine: g.engine,
            shipped: g.shipped,
        }
    }

    /// Copy of the event log.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.buf.iter().cloned().collect()
    }

    /// Copy of the retained job spans, in completion order.
    pub fn job_spans(&self) -> Vec<JobSpan> {
        self.inner.lock().job_spans.buf.iter().cloned().collect()
    }

    /// Copy of the retained stage spans, in completion order.
    pub fn stage_spans(&self) -> Vec<StageSpan> {
        self.inner.lock().stage_spans.buf.iter().cloned().collect()
    }

    /// Copy of the retained task spans, grouped by stage in stage order.
    pub fn task_spans(&self) -> Vec<TaskSpan> {
        self.inner.lock().task_spans.buf.iter().cloned().collect()
    }

    /// Copy of the retained pass records, in pass order.
    pub fn passes(&self) -> Vec<PassTiming> {
        self.inner.lock().passes.buf.iter().cloned().collect()
    }

    /// How many entries each log has dropped to stay within capacity.
    pub fn dropped(&self) -> DropCounts {
        let g = self.inner.lock();
        DropCounts {
            events: g.events.dropped,
            jobs: g.job_spans.dropped,
            stages: g.stage_spans.dropped,
            tasks: g.task_spans.dropped,
            passes: g.passes.dropped,
        }
    }

    /// End of the newest event or stage the rings dropped (the epoch when
    /// none was): the retained logs cannot explain the time before it.
    pub(crate) fn lost_until(&self) -> SimInstant {
        self.inner.lock().lost_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn clock_advances() {
        let m = Metrics::new();
        let (s, e) = m.advance(SimDuration::from_secs(2.0));
        assert_eq!(s, SimInstant::EPOCH);
        assert_eq!(e.as_secs(), 2.0);
        assert_eq!(m.now().as_secs(), 2.0);
    }

    #[test]
    fn events_are_logged_in_order() {
        let m = Metrics::new();
        m.advance_with_event(SimDuration::from_secs(1.0), EventKind::Broadcast, "b0");
        m.advance_with_event(SimDuration::from_secs(0.5), EventKind::Driver, "ap_gen");
        let ev = m.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].label, "b0");
        assert_eq!(ev[1].start.as_secs(), 1.0);
        assert_eq!(ev[1].end().as_secs(), 1.5);
    }

    #[test]
    fn a_pass_is_filed_once_and_returned() {
        let m = Metrics::new();
        m.advance(SimDuration::from_secs(0.5));
        let start = m.pass_start();
        m.advance(SimDuration::from_secs(0.25));
        m.advance(SimDuration::from_secs(0.75));
        let pass = m.record_pass(2..=2, "hash tree", start, 10, 4);
        assert_eq!((pass.start, pass.seconds), (start.at, 1.0));
        assert_eq!(
            (pass.counter, pass.candidates, pass.frequent),
            ("hash tree", 10, 4)
        );
        assert_eq!(m.passes(), vec![pass]);
        assert!(m.events().is_empty(), "a pass is not also an event");
    }

    #[test]
    fn record_stage_files_all_granularities() {
        let m = Metrics::new();
        let job = m.begin_job("job a");
        let stage_id = m.record_stage_with_recovery(
            StageExecution {
                label: "stage one".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::from_secs(0.5),
                trailing: SimDuration::ZERO,
                tasks: vec![task(0, 0, 0, 0.0, 1.0), task(1, 1, 0, 0.0, 2.0)],
            },
            Default::default(),
        );
        m.end_job(job);

        // Clock: 0.5 overhead + 2.0 makespan.
        assert_eq!(m.now().as_secs(), 2.5);

        let stages = m.stage_spans();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage_id, stage_id);
        assert_eq!(stages[0].job_id, job);
        assert_eq!(stages[0].tasks, 2);
        assert_eq!(stages[0].duration.as_secs(), 2.5);

        let tasks = m.task_spans();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].start.as_secs(), 0.5, "task starts after overhead");
        assert_eq!(tasks[1].end().as_secs(), 2.5);
        assert!(tasks
            .iter()
            .all(|t| t.stage_id == stage_id && t.job_id == job));

        let jobs = m.job_spans();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].duration.as_secs(), 2.5);
        assert!(m.events().is_empty(), "spans are not also events");

        let snap = m.snapshot();
        assert_eq!((snap.jobs, snap.stages, snap.tasks), (1, 1, 2));
    }

    #[test]
    fn trailing_time_extends_the_stage() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "map wave".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::from_secs(3.0),
                tasks: vec![task(0, 0, 0, 0.0, 1.0)],
            },
            Default::default(),
        );
        assert_eq!(m.now().as_secs(), 4.0);
        assert_eq!(m.stage_spans()[0].duration.as_secs(), 4.0);
    }

    #[test]
    fn stage_outside_job_gets_job_zero() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "orphan".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![task(0, 0, 0, 0.0, 1.0)],
            },
            Default::default(),
        );
        assert_eq!(m.stage_spans()[0].job_id, 0);
    }

    #[test]
    fn shuffle_stage_keeps_its_identity() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "shuffle 9 map".into(),
                kind: StageKind::ShuffleMap,
                shuffle_id: Some(9),
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![],
            },
            Default::default(),
        );
        let s = &m.stage_spans()[0];
        assert_eq!(s.kind, StageKind::ShuffleMap);
        assert_eq!(s.shuffle_id, Some(9));
    }

    #[test]
    fn ring_buffers_drop_oldest_and_count() {
        let m = Metrics::with_capacity(MetricsCapacity {
            events: 2,
            jobs: 2,
            stages: 2,
            tasks: 3,
        });
        for i in 0..5 {
            m.record_stage_with_recovery(
                StageExecution {
                    label: format!("s{i}"),
                    kind: StageKind::Result,
                    shuffle_id: None,
                    overhead: SimDuration::ZERO,
                    trailing: SimDuration::ZERO,
                    tasks: vec![task(0, 0, 0, 0.0, 1.0)],
                },
                Default::default(),
            );
        }
        let d = m.dropped();
        let expected = DropCounts {
            stages: 3,
            tasks: 2,
            ..DropCounts::default()
        };
        assert_eq!(d, expected, "a stage is not also an event");
        assert_eq!(m.lost_until().as_secs(), 3.0, "end of the newest drop");
        // Newest entries survive.
        let labels: Vec<String> = m.stage_spans().into_iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["s3".to_string(), "s4".to_string()]);
        // Aggregates are not affected by dropping.
        assert_eq!(m.snapshot().stages, 5);
        assert_eq!(m.snapshot().tasks, 5);
    }

    #[test]
    fn nested_jobs_parent_to_innermost() {
        let m = Metrics::new();
        let outer = m.begin_job("outer");
        let inner = m.begin_job("inner");
        m.record_stage_with_recovery(
            StageExecution {
                label: "s".into(),
                kind: StageKind::Result,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![task(0, 0, 0, 0.0, 1.0)],
            },
            Default::default(),
        );
        m.end_job(inner);
        m.end_job(outer);
        assert_eq!(m.stage_spans()[0].job_id, inner);
        assert_eq!(m.job_spans().len(), 2);
    }

    #[test]
    fn end_job_with_unknown_id_is_a_noop() {
        let m = Metrics::new();
        m.end_job(42);
        assert!(m.job_spans().is_empty());
        assert_eq!(m.snapshot().jobs, 0);
    }
}
