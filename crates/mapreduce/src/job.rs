//! Job description: the typed mapper/combiner/reducer closures, side data
//! and output. The runner decides the task counts: one map task per HDFS
//! block of the input, one reduce task per virtual core.

use crate::emitter::Emitter;
use std::sync::Arc;
use yafim_cluster::{ByteSize, Lines, WorkCounters};

/// Bound for intermediate/output keys: hashable (partitioning), ordered
/// (Hadoop's sort-based shuffle presents keys in sorted order), sizeable
/// (shuffle byte accounting).
pub trait MrKey: Clone + Send + Sync + std::hash::Hash + Eq + Ord + ByteSize + 'static {}
impl<T: Clone + Send + Sync + std::hash::Hash + Eq + Ord + ByteSize + 'static> MrKey for T {}

/// Bound for intermediate/output values.
pub trait MrValue: Clone + Send + Sync + ByteSize + 'static {}
impl<T: Clone + Send + Sync + ByteSize + 'static> MrValue for T {}

/// Mapper over a run of lines: `(first line offset, the lines, collector,
/// work counters)`.
pub(crate) type LinesMapFn<KM, VM> =
    Arc<dyn Fn(u64, &Lines, &mut Emitter<KM, VM>, &mut WorkCounters) + Send + Sync>;

/// The map phase: per host unit or per split.
pub(crate) enum MapPhase<KM, VM> {
    /// Called once per host unit, a run of consecutive lines of one split,
    /// for a mapper whose emissions do not depend on how lines group (a
    /// per-line mapper, or one that batches lines; the runner cuts a task
    /// into units across spare pool threads).
    Unit(LinesMapFn<KM, VM>),
    /// Called once per input split with all its lines — for algorithms that
    /// need the whole split at once (SON's local mining phase; the
    /// equivalent of doing the work in Hadoop's `cleanup()` after
    /// buffering).
    Split(LinesMapFn<KM, VM>),
}
/// Combiner: fold two of one key's map-local values into one
/// (`reduce_by_key`'s shape). Must be associative and commutative, as in
/// Hadoop: host units fold a key's values in their own order.
pub(crate) type CombineFn<VM> = Arc<dyn Fn(VM, VM) -> VM + Send + Sync>;
/// Reducer: `(key, all values, collector, work counters)`.
pub(crate) type ReduceFn<KM, VM, KO, VO> =
    Arc<dyn Fn(&KM, Vec<VM>, &mut Emitter<KO, VO>, &mut WorkCounters) + Send + Sync>;
/// A counting job's declared intermediate keys, and how a key's count
/// becomes its value (the identity: only `u64`-valued jobs declare one).
pub(crate) type KeyTable<KM, VM> = (Arc<[KM]>, fn(u64) -> VM);
/// Text output format for committed results.
pub(crate) type FormatFn<KO, VO> = Arc<dyn Fn(&KO, &VO) -> String + Send + Sync>;

/// Where and how a job commits its output to HDFS.
pub(crate) struct OutputSpec<KO, VO> {
    /// HDFS path of the (single, for simplicity) output part file.
    pub path: String,
    /// Formats one output pair as a line of text.
    pub format: FormatFn<KO, VO>,
}

/// A complete MapReduce job over text input.
///
/// Type parameters: `KM`/`VM` are the intermediate (map output) pair,
/// `KO`/`VO` the final (reduce output) pair.
pub struct MapReduceJob<KM, VM, KO, VO> {
    /// Human-readable job name (event log label).
    pub name: String,
    /// HDFS path of the text input.
    pub input: String,
    /// Bytes of side data shipped to every node via the distributed cache
    /// before the job starts (MR-Apriori ships the candidate set this way).
    pub side_data_bytes: u64,
    pub(crate) mapper: MapPhase<KM, VM>,
    pub(crate) combiner: Option<CombineFn<VM>>,
    pub(crate) key_table: Option<KeyTable<KM, VM>>,
    pub(crate) reducer: ReduceFn<KM, VM, KO, VO>,
    pub(crate) output: Option<OutputSpec<KO, VO>>,
}

impl<KM: MrKey, VM: MrValue, KO: MrValue, VO: MrValue> MapReduceJob<KM, VM, KO, VO> {
    /// A job with the two mandatory phases. The runner gives it one map task
    /// per HDFS block of the input and one reduce task per virtual core;
    /// there is no combiner and no committed output until one is added.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        mapper: impl Fn(u64, &str, &mut Emitter<KM, VM>, &mut WorkCounters) + Send + Sync + 'static,
        reducer: impl Fn(&KM, Vec<VM>, &mut Emitter<KO, VO>, &mut WorkCounters) + Send + Sync + 'static,
    ) -> Self {
        let per_line = move |start: u64, lines: &Lines, em: &mut Emitter<KM, VM>, w: &mut _| {
            for (j, line) in lines.iter().enumerate() {
                mapper(start + j as u64, &line, em, w);
            }
        };
        Self::new_per_unit(name, input, per_line, reducer)
    }

    /// Like [`MapReduceJob::new`] but with a mapper that takes a run of
    /// consecutive lines of one split at a time: the runner cuts a task into
    /// one such run per spare pool thread, so the mapper may batch lines but
    /// its emissions must not depend on how they group.
    pub fn new_per_unit(
        name: impl Into<String>,
        input: impl Into<String>,
        mapper: impl Fn(u64, &Lines, &mut Emitter<KM, VM>, &mut WorkCounters) + Send + Sync + 'static,
        reducer: impl Fn(&KM, Vec<VM>, &mut Emitter<KO, VO>, &mut WorkCounters) + Send + Sync + 'static,
    ) -> Self {
        Self::with_mapper(name, input, MapPhase::Unit(Arc::new(mapper)), reducer)
    }

    /// Like [`MapReduceJob::new`] but with a split-level mapper that sees a
    /// whole input split at once, for algorithms that need it (SON's local
    /// mining phase).
    pub fn new_per_split(
        name: impl Into<String>,
        input: impl Into<String>,
        mapper: impl Fn(u64, &Lines, &mut Emitter<KM, VM>, &mut WorkCounters) + Send + Sync + 'static,
        reducer: impl Fn(&KM, Vec<VM>, &mut Emitter<KO, VO>, &mut WorkCounters) + Send + Sync + 'static,
    ) -> Self {
        Self::with_mapper(name, input, MapPhase::Split(Arc::new(mapper)), reducer)
    }

    fn with_mapper(
        name: impl Into<String>,
        input: impl Into<String>,
        mapper: MapPhase<KM, VM>,
        reducer: impl Fn(&KM, Vec<VM>, &mut Emitter<KO, VO>, &mut WorkCounters) + Send + Sync + 'static,
    ) -> Self {
        MapReduceJob {
            name: name.into(),
            input: input.into(),
            side_data_bytes: 0,
            mapper,
            combiner: None,
            key_table: None,
            reducer: Arc::new(reducer),
            output: None,
        }
    }

    /// Add a map-side combiner. Panics on a job with a key table, whose
    /// counts fold by `+` and nothing else.
    pub fn with_combiner(
        mut self,
        combiner: impl Fn(VM, VM) -> VM + Send + Sync + 'static,
    ) -> Self {
        assert!(self.key_table.is_none(), "a key table's counts fold by +");
        self.combiner = Some(Arc::new(combiner));
        self
    }

    /// Ship `bytes` of side data to every node (distributed cache).
    pub fn with_side_data(mut self, bytes: u64) -> Self {
        self.side_data_bytes = bytes;
        self
    }

    /// Commit output to HDFS at `path`, one formatted line per pair.
    pub fn with_output(mut self, path: impl Into<String>, format: FormatFn<KO, VO>) -> Self {
        self.output = Some(OutputSpec {
            path: path.into(),
            format,
        });
        self
    }
}

impl<KM: MrKey, KO: MrValue, VO: MrValue> MapReduceJob<KM, u64, KO, VO> {
    /// Declare the intermediate keys up front (in any order, unused ones are
    /// fine), so the mapper can count one emission of `table[index]` with
    /// [`Emitter::emit_at`] (or many, [`Emitter::count_into`]). The job's
    /// combiner becomes `+`. Results, counters and virtual time are those of
    /// emitting `(table[index].clone(), 1)` under that combiner.
    pub fn with_key_table(mut self, table: Arc<[KM]>) -> Self {
        self.key_table = Some((table, |n| n));
        self.combiner = Some(Arc::new(|a, b| a + b));
        self
    }
}
