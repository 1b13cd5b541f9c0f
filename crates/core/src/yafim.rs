//! YAFIM — the paper's algorithm (§IV), on the mini-Spark engine.
//!
//! **Phase I** (Algorithm 2, Fig. 1): load the transactional dataset from
//! HDFS into a *cached* RDD, then
//! `flatMap(items) → map(item → (item, 1)) → reduceByKey(+)`, filtering by
//! `MinSup`, to obtain the frequent items `L1`.
//!
//! **Phase II** (Algorithm 3, Fig. 2): iteratively, on the driver, generate
//! candidates `C_{k+1} = ap_gen(L_k)`, build a candidate store over them and
//! *broadcast* it (§IV.C); then over the cached transactions RDD count each
//! candidate's occurrences
//! (`flatMap(subset(C_k, t)) → map(c → (c, 1)) → reduceByKey(+)`) and keep
//! those reaching `MinSup`.
//!
//! The transactions RDD is read from HDFS exactly once and reused from
//! cluster memory in every later pass — the key memory-utilization property
//! of §IV.B that the MapReduce baseline lacks.
//!
//! # The data plane
//!
//! Under every plan a transactions RDD holds one `TxBlock` per partition
//! (all rows' items in one arena), and every step over transactions is one
//! kernel per partition, in `map_partitions` or an `aggregate` fold: the
//! parse, pass 1's item count, the projection and the trims, every counting
//! fold, the columnar build. The per-record operators of Algorithms 2 and 3
//! that a kernel stands for (Phase I's `flatMap → map` into the combiner,
//! the `map → filter` of a projection) are charged to the virtual clock in
//! bulk and exactly, as a modelled quantity (DESIGN.md §5); root
//! `tests/block_parity.rs` keeps the per-record pipeline as the oracle.
//!
//! # The Phase-II hot path ([`Phase2Plan`])
//!
//! All iterative cost lives in subset-matching every cached transaction
//! against `C_k`. Phase II runs as one of three plans, all invisible to
//! results: [`Phase2Plan::Paper`] is the paper-faithful engine (hash tree,
//! raw alphabet, untrimmed RDD); [`Phase2Plan::Projected`] and
//! [`Phase2Plan::Bitmap`] share the three techniques below and differ in
//! what counts the `k ≥ 3` passes (see the variants).
//!
//! * **dense projection** — after pass 1, re-encode the cached transactions
//!   once ([`DenseEncoder`]): drop infrequent items, remap survivors to
//!   dense ranks `0..|L1|`, drop now-short transactions, and re-cache. The
//!   projection is a narrow block → block kernel that fuses into pass 2's
//!   pipeline, and the re-cache keeps §IV.B's memory property.
//! * **specialized pass 2** — `|C_2| = |L1|·(|L1|−1)/2` makes pass 2 the
//!   dominant iteration; over dense ranks it needs no candidate store at
//!   all, just a flat triangular count array indexed by item pair, filled
//!   row by row; under [`Phase2Plan::Bitmap`] on dense data, when pass 1's
//!   totals price the columns below the rows ([`pass2_bounds`]), `C_2` is
//!   instead the first level of a bitmap job, which may count level 3 too.
//! * **cross-pass trimming** — after each `L_k` a DHP-style trim drops items
//!   that occur in no frequent `k`-itemset plus transactions too short to
//!   hold a `(k+1)`-candidate, re-caching the shrunken RDD (and unpersisting
//!   the one it replaces) so later passes stream monotonically less data.
//!
//! Which structure actually counts a given pass — the plan's own, or a
//! smaller one when a size guard or the memory governor rules it out — is
//! decided in one place, `Yafim::choose_counter`; how the partitions' counts
//! combine in another, `Yafim::count_pass` (and `count_items_pass` for
//! pass 1): `Paper` shuffles them through `reduceByKey` as Algorithms 2 and
//! 3 do, a projecting plan aggregates into per-worker accumulators.

use crate::audit::{audit_survivors, job_levels};
use crate::bitmap::{bitmap_fits, chained_levels, pass2_bounds, BitmapScratch, ColumnarPartition};
use crate::block::TxBlock;
use crate::candidates::{
    ap_gen_bounded, job_candidates, join_and_prune, CandidateList, Chain, Level,
};
use crate::encode::{add_pairs, tri_len, tri_pair, DenseEncoder, TrimMask, TRIANGLE_MAX_CELLS};
use crate::hashtree::{HashTree, MatchScratch};
use crate::miner::MineError;
use crate::types::{
    Item, MinerRun, MiningResult, Support, JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS,
    JVM_TREE_VISIT_UNITS,
};
use std::cell::RefCell;
use std::sync::Arc;
use yafim_cluster::{
    slice_records, ByteSize, EngineCounters, EventKind, ExecError, FxHashMap, Lines,
    RecoveryCounters, SimDuration, Site, SPILL_GRANULE,
};
use yafim_rdd::{Context, Data, PartialSize, Rdd, TaskContext};

/// Driver-side footprint estimates for the memory-degradation ladder.
/// Deliberately coarse: they only need to rank the counting structures
/// (bitmap arena, triangle) and catch order-of-magnitude
/// overflows *before* a pass runs — the task-side governor still enforces
/// the real reservations.
fn triangle_footprint(n_dense: usize) -> u64 {
    8 * tri_len(n_dense) as u64
}

/// Per-task columnar arena estimate: one `u64` bitset row per dense rank
/// over the partition's share of the transactions.
fn bitmap_footprint(n_dense: usize, lines: usize, partitions: usize) -> u64 {
    let row_words = (lines / partitions.max(1)) as u64 / 64 + 1;
    8 * n_dense as u64 * row_words
}

/// How Phase II counts. Every plan returns byte-identical mining results;
/// only the cost of getting there moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase2Plan {
    /// The paper's Phase II exactly: a broadcast candidate hash tree
    /// (Agrawal & Srikant) on every pass, raw alphabet, untrimmed RDD.
    Paper,
    /// The paper's plan plus one axis: dense projection, triangular pass 2,
    /// the broadcast hash tree for `k ≥ 3`, and a DHP-style trim of the
    /// cached RDD after every pass.
    Projected,
    /// Like [`Phase2Plan::Projected`], but `k ≥ 3` passes count through vertical
    /// TID bitmaps: each partition is projected once into a
    /// [`ColumnarPartition`] (one `u64` bitset row per dense rank) and
    /// candidates are counted by word-wise AND + popcount of item rows — no
    /// broadcast store, no per-transaction descent — and trimming stops
    /// once that store is built. A bitmap job from pass 3 on, or from a
    /// pass 2 priced onto the columns, counts every level the priced
    /// candidate chain admits
    /// ([`chained_levels`](crate::bitmap::chained_levels)) in one stage,
    /// and its pass record spans them. An alphabet beyond
    /// [`BITMAP_MAX_WORDS`](crate::bitmap::BITMAP_MAX_WORDS) counts with the
    /// hash tree instead and bumps the `bitmap.fallbacks` counter.
    Bitmap,
}

impl Phase2Plan {
    /// Every plan, paper-faithful first.
    pub const ALL: [Phase2Plan; 3] = [Phase2Plan::Paper, Phase2Plan::Projected, Phase2Plan::Bitmap];

    /// The plan's CLI name (`--phase2 <paper|opt|bitmap>`).
    pub fn name(self) -> &'static str {
        match self {
            Phase2Plan::Paper => "paper",
            Phase2Plan::Projected => "opt",
            Phase2Plan::Bitmap => "bitmap",
        }
    }

    /// The plan called `name`, if any.
    pub fn parse(name: &str) -> Option<Phase2Plan> {
        Phase2Plan::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the plan re-encodes the cached transactions to dense ranks
    /// after pass 1 — what the triangle, the trims and the bitmaps rest on.
    fn projects(self) -> bool {
        self != Phase2Plan::Paper
    }

    /// What pass 2's memory guards price per task under this plan, for
    /// `n_dense` frequent items over `lines` lines in `partitions` tasks:
    /// the triangle array, and the columnar arena when the plan may build
    /// one. A plan steps its counter down when either exceeds the per-task
    /// limit; the paper plan reserves neither (`None`).
    pub fn pass2_footprint(
        self,
        n_dense: usize,
        lines: usize,
        partitions: usize,
    ) -> Option<(u64, Option<u64>)> {
        let columns = self == Phase2Plan::Bitmap && bitmap_fits(n_dense, lines, partitions);
        let arena = columns.then(|| bitmap_footprint(n_dense, lines, partitions));
        self.projects()
            .then(|| (triangle_footprint(n_dense), arena))
    }
}

/// The structure that counts one Phase-II pass, as picked by
/// `Yafim::choose_counter`, with the pass's candidates.
enum Counter {
    /// Flat pair array over dense ranks (pass 2 only; `C_2` stays implicit),
    /// filled row by row.
    Pairs,
    /// Word-wise AND + popcount over the cached columnar store, of one
    /// level or every level of the priced chain.
    Bitmap(Vec<CandidateList>),
    /// A broadcast hash tree, to be built over the pass's candidates.
    Tree(CandidateList),
}

impl Counter {
    /// What the pass record says counted the pass.
    fn name(&self) -> &'static str {
        match self {
            Counter::Pairs => "triangle",
            Counter::Bitmap(_) => "bitmap",
            Counter::Tree(..) => "hash tree",
        }
    }
}

/// Everything a run holds in cluster memory or checkpoint blocks. Dropping
/// it releases all of it, so a typed refusal (`?`) leaves the cluster as
/// clean as a completed run does.
struct Held {
    /// The transactions RDD every counting job runs on, one [`TxBlock`] per
    /// partition: the parsed input (cached by pass 1), then its projection
    /// to dense ranks when the plan projects, its trims and its checkpoint
    /// readers.
    work: Rdd<TxBlock>,
    /// The RDD the current `work` supersedes (`Held::supersede`). A
    /// superseded RDD stays cached until the job that materializes its
    /// successor has run — the next counting job for the projection and
    /// the trims, the checkpoint job for a checkpoint — and is then
    /// unpersisted (`Held::settle`): the §IV.B memory property with correct
    /// cache accounting for replaced RDDs.
    replaced: Option<Rdd<TxBlock>>,
    /// The columnar store, built lazily by the first bitmap-counted pass
    /// and reused (from cache) by every later one.
    columnar: Option<Rdd<ColumnarPartition>>,
    /// The latest checkpoint reader, whose blocks are live in HDFS. No
    /// checkpoint follows the columnar build, so when the store was built
    /// over a checkpoint, this is that one, and its blocks go when the run
    /// ends.
    checkpointed: Option<Rdd<TxBlock>>,
}

impl Held {
    /// Make `next` the working RDD; the current one becomes `replaced`.
    fn supersede(&mut self, next: Rdd<TxBlock>) {
        self.replaced = Some(std::mem::replace(&mut self.work, next));
    }

    /// A job has materialized `work`: release what it superseded.
    fn settle(&mut self) {
        if let Some(old) = self.replaced.take() {
            old.unpersist();
        }
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.settle();
        if let Some(col) = &self.columnar {
            col.unpersist();
        }
        self.work.unpersist();
        if let Some(cp) = &self.checkpointed {
            cp.discard_checkpoint();
        }
    }
}

/// Options for a YAFIM run. The transactions RDD has the context's
/// `RddConfig::default_parallelism` partitions.
#[derive(Clone, Debug)]
pub struct YafimConfig {
    /// Minimum support threshold.
    pub min_support: Support,
    /// Stop after this many passes (0 = run to fixpoint).
    pub max_passes: usize,
    /// Which Phase II runs.
    pub phase2: Phase2Plan,
}

impl YafimConfig {
    /// Defaults: run to fixpoint, the paper's Phase II.
    pub fn new(min_support: Support) -> Self {
        YafimConfig::with_plan(min_support, Phase2Plan::Paper)
    }

    /// Like [`YafimConfig::new`] but with every Phase-II optimization on,
    /// counting `k ≥ 3` passes through the vertical TID bitmaps
    /// ([`Phase2Plan::Bitmap`]).
    pub fn bitmap(min_support: Support) -> Self {
        YafimConfig::with_plan(min_support, Phase2Plan::Bitmap)
    }

    /// Like [`YafimConfig::new`] but running Phase II as `phase2`.
    pub fn with_plan(min_support: Support, phase2: Phase2Plan) -> Self {
        YafimConfig {
            min_support,
            max_passes: 0,
            phase2,
        }
    }
}

/// Outcome of one counting job: `|C_k|` summed over the levels it counted,
/// and each level's `L_k` in work space, audited.
type JobOutcome = (usize, Vec<Level>);

/// The YAFIM miner bound to one driver [`Context`].
pub struct Yafim {
    ctx: Context,
    config: YafimConfig,
}

impl Yafim {
    /// A miner over `ctx` with `config`.
    pub fn new(ctx: Context, config: YafimConfig) -> Self {
        Yafim { ctx, config }
    }

    /// Mine the text dataset at `input` (one whitespace-separated
    /// transaction per line) on simulated HDFS. An engine failure under an
    /// active fault plan (stage abort, unrepairable corruption,
    /// out-of-memory, the memory governor's refusal when the job's smallest
    /// viable footprint cannot fit the execution budget) is a
    /// [`MineError::Exec`], a level rejected by the mining-invariant audit a
    /// [`MineError::Audit`]; either way the run has released what it held.
    pub fn mine(&self, input: &str) -> Result<MinerRun, MineError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        let plan = self.config.phase2;
        let partitions = ctx.config().default_parallelism;

        // The driver knows the dataset size from HDFS metadata; resolve a
        // fractional MinSup without an extra counting job.
        let file = ctx.cluster().hdfs().get(input)?;
        let min_sup = self.config.min_support.resolve(file.num_lines() as u64);
        // ... and whether every split's items fit one block (`TxBlock::ends`).
        let splits = file.splits(partitions.max(1));
        if let Some(s) = splits.iter().find(|s| s.bytes / 2 > u64::from(u32::MAX)) {
            return Err(MineError::SplitTooLarge(s.bytes));
        }

        // ---- Admission control (degradation ladder, last rung) ----
        //
        // The smallest viable footprint of any pass is one spill granule of
        // a pass-1 task's combined item counts (combine buffer or aggregate
        // partial): below that a task cannot make progress even by streaming
        // through disk, so running the job could only end in OOM kills.
        // Refuse it up front, typed — never a wrong or silently-partial result.
        if let Some(budget) = ctx.cluster().memory_budget() {
            if let Err(refusal) = budget.admit(SPILL_GRANULE) {
                return Err(MineError::Exec(ExecError::MemoryRefused { refusal }));
            }
        }

        let run_start = metrics.now();
        let mut passes = Vec::new();

        // ---- Phase I: load + cache + frequent items ----
        let pass1_start = metrics.pass_start();
        // From here on every exit, `?` included, releases what the run holds.
        let mut held = Held {
            work: ctx
                .text_splits(input, partitions)?
                .map_partitions(parse_lines)
                .cache(),
            replaced: None,
            columnar: None,
            checkpointed: None,
        };

        let mut l1 = self.count_items_pass(&held.work, min_sup)?;
        l1.sort_unstable();

        // |C_1| is the distinct frequent items: C1 is implicit.
        passes.push(metrics.record_pass(1..=1, "items", pass1_start, l1.len(), l1.len()));

        if l1.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes,
            });
        }

        // ---- Projection: re-encode the cached RDD to dense ranks ----
        let encoder = plan.projects().then(|| {
            let encoder = Arc::new(DenseEncoder::new(l1.iter().map(|&(i, _)| i).collect()));
            metrics.advance_with_event(
                cost.cpu(encoder.len() as u64),
                EventKind::Projection,
                "build dense dictionary",
            );
            let bc_enc = ctx.broadcast(DenseEncoder::clone(&encoder));
            let enc = bc_enc.value();
            // A narrow block → block kernel: it fuses into the next pass's
            // pipeline and materializes only at its own cache insert.
            let project = move |t: &[Item], out: &mut Vec<Item>| enc.encode_into(t, out);
            let dense = held
                .work
                .map_partitions(move |part, tc| rewrite_rows(part, tc, 2, &project))
                .cache();
            held.supersede(dense);
            encoder
        });

        // Work-space L1: ranks 0..n when projecting (l1 is item-sorted, so
        // rank order equals item order and counts carry over positionally).
        let items: Vec<Item> = match &encoder {
            Some(_) => (0..l1.len() as Item).collect(),
            None => l1.iter().map(|&(i, _)| i).collect(),
        };
        let l1_work = Level {
            sets: CandidateList::from_sets(1, items.chunks(1)),
            supports: l1.iter().map(|&(_, c)| c).collect(),
        };

        // ---- Phase II: iterate L_k → C_{k+1} → L_{k+1}, in work space ----
        //
        // Checkpoint cadence comes from the active fault plan (chaos runs
        // flip checkpointing on without touching the miner config).
        let ckpt_every = ctx.cluster().faults().plan().checkpoint_interval;
        let mut jobs = 0usize;
        let mut ckpt_due = false;

        // Bitmap density guard, decided once from driver-side metadata
        // (mirrors the pass-2 triangle guard): the columnar projection must
        // fit BITMAP_MAX_WORDS across all partitions, or the hash tree counts
        // instead. `Some(estimated per-task arena bytes)` when it may run.
        let n_dense = encoder.as_ref().map_or(0, |e| e.len());
        let lines = file.num_lines();
        let footprint = plan.pass2_footprint(n_dense, lines, partitions);
        let bitmap_arena = footprint.and_then(|(_, arena)| arena);
        if plan == Phase2Plan::Bitmap && bitmap_arena.is_none() {
            metrics.note_engine(&EngineCounters {
                bitmap_fallbacks: 1,
                ..EngineCounters::default()
            });
        }
        // The store's shape prices pass 2's layouts and the bitmap chain;
        // L1's supports sum to the items' dense occurrences.
        let occurrences = l1_work.supports.iter().sum();
        let shape = (lines, splits.len(), occurrences);

        let mut levels: Vec<Level> = vec![l1_work];
        let mut pass = 2usize;
        loop {
            if self.config.max_passes != 0 && pass > self.config.max_passes {
                break;
            }
            let pass_start = metrics.pass_start();

            let built = held.columnar.is_some();
            let Some(counter) =
                self.choose_counter(pass, n_dense, bitmap_arena, shape, built, &levels)
            else {
                break; // nothing to count: |L1| < 2, or ap_gen came up empty
            };

            // ---- Checkpoint: truncate lineage every `ckpt_every` jobs ----
            //
            // The checkpoint job materializes `work` into replicated HDFS
            // blocks and swaps in a reader whose lineage is one level deep.
            // A node loss in a later pass then re-reads the blocks instead
            // of replaying every projection/trim back to the input file —
            // recovery work is bounded by the checkpoint interval. A due
            // checkpoint is written only here, once the job that reads it
            // is known: after the run's last job there is none.
            if std::mem::take(&mut ckpt_due) {
                let cp = held.work.try_checkpoint()?.cache();
                // The checkpoint job materialized `work` and what it
                // superseded; the previous checkpoint's blocks are stale.
                held.settle();
                held.supersede(cp.clone());
                held.settle();
                if let Some(prev) = held.checkpointed.replace(cp) {
                    prev.discard_checkpoint();
                }
            }
            // Every counter audits the levels it counted before it hands
            // any back (`job_levels`, `pass2`): the last-line tripwire
            // behind the storage integrity layer.
            let counted_by = counter.name();
            let below = &levels[levels.len() - 1];
            let (n_candidates, counted) = match counter {
                Counter::Pairs => self.pass2(&held.work, below, min_sup)?,
                Counter::Bitmap(gens) => {
                    self.pass_bitmap(&mut held, n_dense, gens, (pass, below), min_sup)?
                }
                Counter::Tree(gen) => {
                    self.pass_with_store(&held.work, gen, (pass, below), min_sup)?
                }
            };
            held.settle();

            let last = pass + counted.len() - 1;
            let found = counted.iter().map(Level::len).sum();
            let timing =
                metrics.record_pass(pass..=last, counted_by, pass_start, n_candidates, found);
            passes.push(timing);
            // The levels up to the first empty one: nothing above an empty
            // level is frequent, so the run ends there.
            levels.extend(counted.into_iter().take_while(|lk| lk.len() > 0));
            let Some(lk) = levels.get(last - 1) else {
                break;
            };

            // ---- Cross-pass trimming (DHP-style) ----
            //
            // Any item in no frequent k-itemset is in no frequent
            // (k+1)-itemset (monotonicity), and a transaction with fewer
            // than k+1 surviving items holds no (k+1)-candidate — so both
            // can be dropped from the cached RDD without changing a single
            // later count.
            //
            // Once the columnar bitmap store exists, no later job reads
            // `work` (the bitmap counter never rescans the transactions
            // RDD), so neither a trim nor a checkpoint of it would save
            // anything (after a row-counted pass 2 the trim still runs: it
            // shrinks the columnar build).
            let work_read_later = held.columnar.is_none();
            if plan.projects() && work_read_later {
                let mask = TrimMask::from_items(n_dense, &lk.sets.items);
                metrics.advance_with_event(
                    cost.cpu((lk.len() * last) as u64 + n_dense as u64),
                    EventKind::Projection,
                    format!(
                        "trim plan pass {last} ({} of {} items live)",
                        mask.alive(),
                        n_dense
                    ),
                );
                let bc_mask = ctx.broadcast(mask);
                let keep = bc_mask.value();
                let retain = move |t: &[Item], out: &mut Vec<Item>| {
                    out.extend(t.iter().filter(|&&r| keep.keep[r as usize]));
                };
                let trimmed = held
                    .work
                    .map_partitions(move |part, tc| rewrite_rows(part, tc, last + 1, &retain))
                    .cache();
                held.supersede(trimmed);
            }

            jobs += 1;
            ckpt_due = ckpt_every != 0 && jobs.is_multiple_of(ckpt_every) && work_read_later;
            pass = last + 1;
        }

        drop(held);

        // Decode rank-space results back to the original alphabet, one
        // itemset each, once; the monotone encoding preserves itemset
        // order, so every level stays ascending.
        let decode = |r| encoder.as_ref().map_or(r, |enc| enc.item(r));
        let levels = levels.into_iter().map(|l| l.into_pairs(decode)).collect();

        Ok(MinerRun {
            result: MiningResult { levels },
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes,
        })
    }

    /// Decide what counts pass `pass` and generate its candidates: the
    /// plan's own counter, or the next smaller one when a size guard or the
    /// armed governor's per-task limit rules it out (each governor
    /// step-down is noted, ladder rung 2, *before* the pass runs).
    ///
    /// | plan        | pass 2                                   | `k ≥ 3`            |
    /// |-------------|------------------------------------------|--------------------|
    /// | `Paper`     | hash tree                                | hash tree          |
    /// | `Projected` | triangle → hash tree                     | hash tree          |
    /// | `Bitmap`    | columns or triangle → bitmap → hash tree | bitmap → hash tree |
    ///
    /// `bitmap_arena` is the per-task columnar arena estimate when the run
    /// may count through bitmaps at all, and the store has `lines` lines in
    /// `tasks` tasks with `occ` dense occurrences: a `Bitmap` pass 2 counts
    /// columns when [`pass2_bounds`] prices them below the rows and the
    /// arena plus the triangle fit the task limit, rows otherwise (not a
    /// step-down: nothing degraded). A columnar pass 2 and every bitmap pass
    /// from 3 on count every level [`chained_levels`] admits; every other
    /// counter counts one.
    /// `known` is every level so far, `L_{pass−1}` last: a projecting plan
    /// generates a job's first level with the support bound
    /// ([`ap_gen_bounded`]), noting what it dropped; `Paper` keeps the
    /// paper's `ap_gen`. Returns `None` when there is nothing to count.
    fn choose_counter(
        &self,
        pass: usize,
        n_dense: usize,
        mut bitmap_arena: Option<u64>,
        (lines, tasks, occ): (usize, usize, u64),
        columnar_built: bool,
        known: &[Level],
    ) -> Option<Counter> {
        let ctx = &self.ctx;
        let plan = self.config.phase2;
        // Hard per-task memory cap when the governor is armed.
        let limit = ctx.cluster().memory_budget().map(|b| b.per_task_limit);
        let over_limit = |bytes: u64| limit.is_some_and(|l| bytes > l);

        let n_pairs = tri_len(n_dense);
        let mut columns = false;
        if pass == 2 && plan.projects() && n_pairs <= TRIANGLE_MAX_CELLS {
            let triangle = triangle_footprint(n_dense);
            if over_limit(triangle) {
                self.note_degradation(pass, "triangle array -> candidate store");
            } else if n_pairs == 0 {
                return None; // |L1| < 2: no pairs to count
            } else {
                // Columns hold the arena and the pairs' counts in one task.
                let admissible = bitmap_arena.map(|arena| !over_limit(arena + triangle));
                let units = pass2_bounds(n_dense, lines, tasks, occ);
                columns = admissible.is_some_and(|a| self.pass2_layout(units, a));
                if !columns {
                    return Some(Counter::Pairs);
                }
            }
        }

        // An arena already built and cached keeps serving — only its
        // construction is budgeted.
        if !columnar_built && bitmap_arena.is_some_and(over_limit) {
            self.note_degradation(pass, "bitmap arena -> hash tree");
            bitmap_arena = None;
        }

        // Candidate generation (join + prune, and the support bound when the
        // plan projects), charged as driver CPU — one charge whichever
        // counter runs, so their pass metadata agrees.
        let (cluster, max) = (ctx.cluster(), self.config.max_passes);
        let min_sup = self.config.min_support.resolve(lines as u64);
        let (mut levels, work) = if bitmap_arena.is_some() && (pass >= 3 || columns) {
            chained_levels(known, pass, max, cluster, lines, tasks, min_sup)
        } else {
            let first = if plan.projects() {
                ap_gen_bounded(known, lines as u64, min_sup)
            } else {
                join_and_prune(&known[known.len() - 1].sets, None)
            };
            job_candidates(first, pass, max, Chain::Levels(1))
        };
        let cpu = work.units() + levels.iter().map(|l| l.len() as u64).sum::<u64>();
        let label = format!("ap_gen pass {pass}");
        ctx.metrics()
            .advance_with_event(cluster.cost().cpu(cpu), EventKind::Driver, label);
        if work.bounded > 0 {
            let kept = levels.first().map_or(0, CandidateList::len);
            let (dropped, of) = (work.bounded, work.bounded as usize + kept);
            let note = format!("pass {pass} support bound: {dropped} of {of} candidates dropped");
            ctx.metrics()
                .advance_with_event(SimDuration::ZERO, EventKind::Other, note);
        }
        if levels.is_empty() {
            return None;
        }
        if bitmap_arena.is_some() {
            return Some(Counter::Bitmap(levels));
        }
        Some(Counter::Tree(levels.swap_remove(0)))
    }

    /// Whether `Bitmap`'s pass 2 counts columns: the rule's `(columns, rows)`
    /// bounds price them lower and the arena is `admissible`. Logged with
    /// both bounds as a zero-cost event.
    fn pass2_layout(&self, (columns, rows): (u64, u64), admissible: bool) -> bool {
        let wins = admissible && columns < rows;
        let c = format!("columns (≤ {:.2} M word units)", columns as f64 / 1e6);
        let r = format!("rows (≥ {:.2} M pair units)", rows as f64 / 1e6);
        let (chosen, other) = if wins { (c, r) } else { (r, c) };
        let why = ["; the arena is over the task limit", ""][usize::from(admissible)];
        let note = format!("pass 2 layout: {chosen} vs {other}{why}");
        self.ctx
            .metrics()
            .advance_with_event(SimDuration::ZERO, EventKind::Other, note);
        wins
    }

    /// Record one driver-side counting-structure step-down (ladder rung 2):
    /// bump `mem.degradations` in the run's recovery block, and log the
    /// decision as a zero-cost event.
    fn note_degradation(&self, pass: usize, what: &str) {
        let mut rec = RecoveryCounters::default();
        rec.mem.degradations = 1;
        self.ctx.metrics().note_recovery(&rec);
        self.ctx.metrics().advance_with_event(
            SimDuration::ZERO,
            EventKind::Other,
            format!("memory step-down pass {pass}: {what}"),
        );
    }

    /// Specialized pass 2 over dense ranks: a flat triangular count array
    /// indexed by item pair — no candidate store, no broadcast, no
    /// per-candidate allocation — filled row by row over `work`
    /// ([`count_pairs`]). Triangle cell `tri_index(a, b)` coincides with
    /// `ap_gen(L1)`'s candidate index for `{a, b}`, so counts (and the
    /// reported candidate total) are identical to the store path. The
    /// audit reads the bound by rank: `σ(a, b) ≤ min(σ(a), σ(b))`.
    ///
    /// Returns `(|C2|, [L2 in rank space])`.
    fn pass2(
        &self,
        work: &Rdd<TxBlock>,
        l1: &Level,
        min_sup: u64,
    ) -> Result<JobOutcome, MineError> {
        let n_dense = l1.len();
        let metrics = self.ctx.metrics().clone();
        let cost = self.ctx.cluster().cost().clone();
        let n_candidates = tri_len(n_dense);
        metrics.advance_with_event(
            cost.cpu(n_dense as u64),
            EventKind::Driver,
            format!("pass 2 triangle setup ({n_candidates} pairs)"),
        );
        let counted = self.count_pass(work, 2, n_candidates, min_sup, move |acc, txs, tc| {
            // The triangle is each task's execution memory; an injected (or
            // real) denial kills the attempt into the retry ladder.
            tc.try_reserve(8 * n_candidates as u64, Site::Triangle);
            let (pairs, cells) = count_pairs(acc, txs, n_dense);
            // One cheap array touch per pair, plus one emission per
            // nonzero cell — no tree descent, no subset checks.
            tc.add_cpu(pairs * JVM_PAIR_COUNT_UNITS);
            tc.add_cpu(cells);
            cells
        })?;

        Ok((n_candidates, vec![pairs_level(&counted, l1, min_sup)?]))
    }

    /// One Phase-II pass through a [`HashTree`] built over `candidates` and
    /// broadcast — the generic path for `k ≥ 3`, and for pass 2 without the
    /// triangle — its level audited against `below`, the level it was joined
    /// from.
    ///
    /// Returns `(|C_k|, [L_k in work space])`.
    fn pass_with_store(
        &self,
        work: &Rdd<TxBlock>,
        candidates: CandidateList,
        (pass, below): (usize, &Level),
        min_sup: u64,
    ) -> Result<JobOutcome, MineError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        let n_candidates = candidates.len();

        // Driver: charge the store build and broadcast it to the workers.
        metrics.advance_with_event(
            cost.cpu(2 * n_candidates as u64),
            EventKind::Driver,
            format!("build hash tree pass {pass}"),
        );
        let bc = ctx.broadcast(HashTree::build(candidates.to_itemsets()));
        let store_for_tasks = bc.value();
        let store_bytes = bc.bytes();

        // Workers: count candidate occurrences over the cached
        // transactions, pre-aggregated per partition (as Spark's
        // reduceByKey map-side combine would).
        let counted = self.count_pass(work, pass, n_candidates, min_sup, move |acc, txs, tc| {
            // Each task reads the broadcast store (already paid for
            // once, virtually, at broadcast time).
            tc.note_broadcast_read(store_bytes);
            // The deserialized store plus the count array are this
            // task's execution memory.
            tc.try_reserve(store_bytes + 8 * n_candidates as u64, Site::CandidateStore);
            let (visits, matches, cells) = count_matches(acc, txs, &store_for_tasks);
            // Store traversal plus one emission per match — the
            // flatMap cost of Algorithm 3, lines 4-9.
            tc.add_cpu(visits * JVM_TREE_VISIT_UNITS + matches);
            cells
        })?;

        let levels = job_levels(&counted, &[candidates], (pass, below), min_sup)?;
        Ok((n_candidates, levels))
    }

    /// Count one pass over `rdd`: `fold` adds a partition's support counts
    /// into a dense slice over `C_k` and returns how many cells it touched.
    /// The plan picks how the partitions combine, here and in
    /// [`Yafim::count_items_pass`] (pass 1), nowhere else. A projecting plan
    /// knows every key before the job starts, so it aggregates into `C_k`'s
    /// cells, thresholded by index: a task's partial is one `(u32, u64)`
    /// record per touched cell, summed where it is cheaper (the driver or a
    /// reduce stage, noted for `pass`). The paper's plan is Algorithm 3: every
    /// task emits its nonzero cells into `reduceByKey(+)`, a filter, a collect.
    ///
    /// Returns the surviving `(candidate index, count)` records, ascending.
    fn count_pass<T: Data>(
        &self,
        rdd: &Rdd<T>,
        pass: usize,
        n_candidates: usize,
        min_sup: u64,
        fold: impl Fn(&mut [u64], &[T], &TaskContext) -> u64 + Send + Sync + 'static,
    ) -> Result<Vec<(u32, u64)>, ExecError> {
        if self.config.phase2.projects() {
            let size = |n| PartialSize {
                records: n as u64,
                bytes: n as u64 * (0u32, 0u64).byte_size(),
            };
            let kept = |counts: &Vec<u64>| size(counts.iter().filter(|&&c| c >= min_sup).count());
            let counts = rdd.try_aggregate(
                move || vec![0u64; n_candidates],
                move |acc: &mut Vec<u64>, part, tc| size(fold(acc, part, tc) as usize),
                |mut a, b| {
                    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                    a
                },
                (n_candidates as u64, &kept, &format!("pass {pass}")),
            )?;
            return Ok(cells_at_least(&counts, min_sup));
        }
        let mut counted = rdd
            .map_partitions(move |part, tc| {
                let mut counts = vec![0u64; n_candidates];
                fold(&mut counts, part, tc);
                cells_at_least(&counts, 1)
            })
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;
        counted.sort_unstable_by_key(|&(idx, _)| idx);
        Ok(counted)
    }

    /// Pass 1: every item occurring at least `min_sup` times, with its
    /// count; each partition counts in [`count_items`]. A projecting plan
    /// aggregates over the whole `u32` alphabet: a task merges its ascending
    /// `(item, count)` pairs into its worker's ascending list and ships them
    /// as its partial, summed and thresholded where it is cheaper; no item
    /// id sizes an allocation. `Paper` runs Algorithm 2: `reduceByKey(+)`,
    /// a filter, a collect.
    fn count_items_pass(
        &self,
        rdd: &Rdd<TxBlock>,
        min_sup: u64,
    ) -> Result<Vec<(Item, u64)>, ExecError> {
        if self.config.phase2.projects() {
            let record_bytes = (Item::default(), 0u64).byte_size();
            let size = move |n| PartialSize {
                records: n as u64,
                bytes: n as u64 * record_bytes,
            };
            let kept =
                |counts: &Vec<_>| size(counts.iter().filter(|&&(_, c)| c >= min_sup).count());
            let counts = rdd.try_aggregate(
                Vec::new,
                move |acc: &mut Vec<(Item, u64)>, part, tc| {
                    let pairs = count_items(part, tc, false);
                    let partial = size(pairs.len());
                    // Execution memory, as in a combine buffer: denied, it spills.
                    tc.try_reserve(partial.bytes, Site::ShuffleCombine);
                    *acc = merge_counts(std::mem::take(acc), &pairs);
                    partial
                },
                |a, b| merge_counts(a, &b),
                (1 << Item::BITS, &kept, "pass 1"),
            )?;
            return Ok(counts.into_iter().filter(|&(_, c)| c >= min_sup).collect());
        }
        rdd.map_partitions(|part, tc| count_items(part, tc, true))
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()
    }

    /// Project `held.work` into the cached columnar bitmap store, kept in
    /// `held.columnar`: one job, one [`ColumnarPartition`] element per
    /// partition, build bytes and CPU charged to the tasks and the arena
    /// registered with the cache manager like any other cached block
    /// (checksummed, evictable, recomputable from lineage).
    fn build_columnar(&self, held: &mut Held, n_dense: usize) -> Rdd<ColumnarPartition> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        metrics.advance_with_event(
            cost.cpu(n_dense as u64),
            EventKind::Projection,
            format!("columnar bitmap projection plan ({n_dense} rows)"),
        );
        let columnar = held.work.map_partitions(move |txs, tc| {
            let n_tids = slice_records(txs) as usize;
            let col = ColumnarPartition::from_rows(n_dense, n_tids, rows_of(txs));
            // The arena is execution memory while it is being built (it
            // only becomes a budgeted cache block once inserted).
            tc.try_reserve(8 * col.arena_words() as u64, Site::BitmapArena);
            // Physical build: write the arena once, touch one bit per item
            // occurrence.
            tc.add_mem_read(8 * col.arena_words() as u64);
            tc.add_cpu(col.build_cost_units());
            metrics.note_engine(&EngineCounters {
                bitmap_partitions_built: 1,
                bitmap_build_bytes: col.byte_size(),
                ..EngineCounters::default()
            });
            vec![col]
        });
        held.columnar.insert(columnar.cache()).clone()
    }

    /// One Phase-II job counted through the vertical TID bitmaps: the
    /// chain's `levels`, from `pass` on, in one stage. The columnar store is
    /// built (and cached) by the first such pass and reused from cluster
    /// memory afterwards; only the candidates, one flat list per level, are
    /// broadcast, and their count cells follow each other in one array.
    /// The first level is audited against `below`, each later one against
    /// the level before it.
    ///
    /// Returns `(|C_k| summed, [L_k in work space] per level)`.
    fn pass_bitmap(
        &self,
        held: &mut Held,
        n_dense: usize,
        levels: Vec<CandidateList>,
        (pass, below): (usize, &Level),
        min_sup: u64,
    ) -> Result<JobOutcome, MineError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        let n_candidates = levels.iter().map(CandidateList::len).sum();

        // First bitmap pass: materialize the columnar store.
        let columnar = match &held.columnar {
            Some(columnar) => columnar.clone(),
            None => self.build_columnar(held, n_dense),
        };

        // Driver: no store to build — just broadcast the sorted candidate
        // lists (indices into them are the count cells, exactly as with the
        // stores).
        metrics.advance_with_event(
            cost.cpu(n_candidates as u64),
            EventKind::Driver,
            format!("broadcast candidate list pass {pass}"),
        );
        metrics.note_engine(&EngineCounters {
            bitmap_passes: levels.len() as u64,
            bitmap_candidates_counted: n_candidates as u64,
            ..EngineCounters::default()
        });
        let bc = ctx.broadcast(ChainLists(levels));
        let cands_for_tasks = bc.value();
        let cand_bytes = bc.bytes();

        // Workers: word-wise AND + popcount per candidate over the cached
        // bitset rows.
        let counted = self.count_pass(
            &columnar,
            pass,
            n_candidates,
            min_sup,
            move |acc, cols, tc| {
                tc.note_broadcast_read(cand_bytes);
                // The count array is this task's execution memory.
                tc.try_reserve(8 * n_candidates as u64, Site::CandidateStore);
                let (words, cells) = count_bitmaps(acc, cols, &cands_for_tasks.0);
                // One AND+popcount per word, one emission per nonzero
                // count — the whole per-task cost of the pass.
                tc.add_cpu(words * JVM_BITMAP_WORD_UNITS + cells);
                metrics.note_engine(&EngineCounters {
                    bitmap_words_intersected: words,
                    ..EngineCounters::default()
                });
                cells
            },
        )?;

        let levels = job_levels(&counted, &bc.0, (pass, below), min_sup)?;
        Ok((n_candidates, levels))
    }
}

/// A bitmap job's candidate levels as one broadcast: a flat list per level,
/// each level's count cells after the previous one's. Sized as its lists,
/// so a job of one level ships what that level's list is.
struct ChainLists(Vec<CandidateList>);

impl ByteSize for ChainLists {
    fn byte_size(&self) -> u64 {
        self.0.iter().map(ByteSize::byte_size).sum()
    }
}

/// `L_2` from the triangle's survivors `counted`, `(cell, count)` over the
/// pairs of `l1`'s ranks, audited before it is kept as `job_levels` audits:
/// cells strictly ascending below `|C_2|`, every support at least `min_sup`
/// and at most `min(σ(a), σ(b))`, read by rank.
fn pairs_level(counted: &[(u32, u64)], l1: &Level, min_sup: u64) -> Result<Level, MineError> {
    let (n, sup) = (l1.len(), &l1.supports);
    let bound = |i| {
        let (a, b) = tri_pair(n, i);
        sup[a].min(sup[b])
    };
    audit_survivors(counted, 0..tri_len(n), min_sup, bound)
        .map_err(|violation| MineError::Audit { pass: 2, violation })?;
    let mut l2 = Level::new(2);
    for &(i, c) in counted {
        let (a, b) = tri_pair(n, i as usize);
        l2.push(&[a as Item, b as Item], c);
    }
    Ok(l2)
}

/// The `(index, count)` record of every cell of `counts` holding at least
/// `min`, in ascending index order.
pub(crate) fn cells_at_least(counts: &[u64], min: u64) -> Vec<(u32, u64)> {
    let cells = counts.iter().enumerate().filter(|&(_, &c)| c >= min);
    cells.map(|(i, &c)| (i as u32, c)).collect()
}

/// Two ascending `(item, count)` lists as one, shared items' counts summed;
/// the stable sort merges the two runs it finds in linear time.
fn merge_counts(mut a: Vec<(Item, u64)>, b: &[(Item, u64)]) -> Vec<(Item, u64)> {
    a.extend_from_slice(b);
    a.sort_by_key(|&(item, _)| item);
    a.dedup_by(|next, kept| (next.0 == kept.0).then(|| kept.1 += next.1).is_some());
    a
}

thread_local! {
    /// The counting kernels' scratch, one per pool thread: a stage of many
    /// small partitions would grow one afresh in every task. [`with_scratch`]
    /// takes it out and puts it back, so a task that unwinds in between drops
    /// it and the next task on the thread starts from a fresh one.
    static SCRATCH: RefCell<MatchScratch> = RefCell::default();
}

/// Run `count` on this thread's scratch.
fn with_scratch<R>(count: impl FnOnce(&mut MatchScratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let out = count(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// Every row of a partition's blocks, in order.
fn rows_of(part: &[TxBlock]) -> impl Iterator<Item = &[Item]> {
    part.iter().flat_map(TxBlock::rows)
}

/// One split's lines as blocks, a row per line: views of the loaded
/// input's arenas, nothing copied (a file put as text is parsed, a line
/// without items staying a row, as it stayed a transaction).
fn parse_lines(part: &[Lines], _: &TaskContext) -> Vec<TxBlock> {
    part.iter().flat_map(TxBlock::of_lines).collect()
}

/// Pass 1 over one partition: each distinct item with its count, ascending,
/// as a map-side combiner left the `flatMap → map` chain this kernel stands
/// for. That chain's operators are a modelled quantity (DESIGN.md §5): over
/// `I` items, `D` distinct, flatMap's `I` outputs, map's `I` in and out and
/// the combiner's `I` inputs, `2·I` each way. The engine counts the `D`
/// pairs out; when they go on into a shuffle (`shuffled`), its map side
/// counts them in and out once more, so those `D` come off here.
///
/// Counted by index when the partition's largest id (the largest last item:
/// rows ascend) is below its own item count, so that zeroing the array never
/// costs more than filling it, and through a map otherwise.
fn count_items(part: &[TxBlock], tc: &TaskContext, shuffled: bool) -> Vec<(Item, u64)> {
    let items: usize = part.iter().map(|block| block.items().len()).sum();
    let all_items = || part.iter().flat_map(|block| block.items());
    let top = rows_of(part).filter_map(|row| row.last()).max();
    let pairs: Vec<(Item, u64)> = match top {
        Some(&top) if (top as usize) < items => {
            let mut counts = vec![0u64; top as usize + 1];
            for &item in all_items() {
                counts[item as usize] += 1;
            }
            cells_at_least(&counts, 1)
        }
        _ => {
            let mut counts: FxHashMap<Item, u64> = FxHashMap::default();
            for &item in all_items() {
                *counts.entry(item).or_default() += 1;
            }
            let mut pairs: Vec<(Item, u64)> = counts.into_iter().collect();
            pairs.sort_unstable();
            pairs
        }
    };
    let chain = (2 * items - if shuffled { pairs.len() } else { 0 }) as u64;
    tc.add_records_in(chain);
    tc.add_records_out(chain);
    pairs
}

/// Projection and the DHP trims over one partition: `rewrite` appends what
/// it keeps of each row, and a row left shorter than `min_len` is dropped.
/// Stands for a fused `map → filter` over `n` rows, modelled like pass 1's
/// chain: the map's `n` outputs, the filter's `n` inputs.
fn rewrite_rows(
    part: &[TxBlock],
    tc: &TaskContext,
    min_len: usize,
    rewrite: &impl Fn(&[Item], &mut Vec<Item>),
) -> Vec<TxBlock> {
    let rows = slice_records(part);
    tc.add_records_in(rows);
    tc.add_records_out(rows);
    let items = part.iter().map(|b| b.items().len()).sum();
    TxBlock::build(rows as usize, items, |block| {
        for row in rows_of(part) {
            block.push_row(min_len, |kept| rewrite(row, kept));
        }
    })
}

/// Add every item pair of the dense-rank transactions `txs` into `acc`, a
/// triangular array over `n_dense` ranks. Returns the number of pair
/// increments and of distinct cells they hit.
fn count_pairs(acc: &mut [u64], txs: &[TxBlock], n_dense: usize) -> (u64, u64) {
    let mut pairs = 0u64;
    let cells = with_scratch(|scratch| {
        scratch.tally(acc.len(), |_, touched| {
            for t in rows_of(txs) {
                pairs += add_pairs(acc, touched, n_dense, t);
            }
        })
    });
    (pairs, cells)
}

/// Add one to `acc[i]` for every candidate `i` of `store` contained in each
/// transaction of `txs`. Returns the store's visit count, the number of
/// matches and the number of distinct candidates matched.
fn count_matches(acc: &mut [u64], txs: &[TxBlock], store: &HashTree) -> (u64, u64, u64) {
    with_scratch(|scratch| store.count_rows(rows_of(txs), scratch, acc))
}

/// Add each candidate's support in the columnar partitions `cols` into
/// `acc`, the cells of each list of `lists` after the previous list's.
/// Returns the number of words intersected and of nonzero supports found
/// (one per candidate and partition at most, so no cell repeats).
fn count_bitmaps(
    acc: &mut [u64],
    cols: &[ColumnarPartition],
    lists: &[CandidateList],
) -> (u64, u64) {
    let mut scratch = BitmapScratch::default();
    let (mut words, mut cells) = (0, 0);
    for col in cols {
        let mut rest = &mut acc[..];
        for list in lists {
            let (cells_of_list, tail) = rest.split_at_mut(list.len());
            let (w, c) = col.count_list(list, &mut scratch, cells_of_list);
            (words, cells, rest) = (words + w, cells + c, tail);
        }
    }
    (words, cells)
}

/// Convenience: one-call YAFIM over an in-memory transaction list, writing
/// it to the cluster's HDFS first (used by tests and examples).
pub fn mine_in_memory(ctx: &Context, transactions: &[Vec<Item>], config: YafimConfig) -> MinerRun {
    let path = format!("yafim-inmem-{}.dat", std::process::id());
    let text = yafim_data::to_text(transactions);
    let file = ctx.cluster().hdfs().put_overwrite(&path, text);
    let hdfs_write_cost = ctx.cluster().cost().hdfs_write(file.bytes());
    ctx.metrics()
        .advance_with_event(hdfs_write_cost, EventKind::HdfsWrite, path.clone());
    let run = Yafim::new(ctx.clone(), config)
        .mine(&path)
        .expect("file exists");
    let _ = ctx.cluster().hdfs().delete(&path);
    // Dropping the input is instantaneous metadata work.
    ctx.metrics().advance(SimDuration::ZERO);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_of;
    use crate::candidates::tests::{generated, level_of};
    use crate::candidates::{ap_gen, GenWork};
    use crate::encode::tri_index;
    use crate::sequential::apriori;
    use crate::types::Itemset;
    use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
    use yafim_data::rng::StdRng;

    fn ctx() -> Context {
        Context::new(SimCluster::with_threads(
            ClusterSpec::new(4, 2, 1 << 30),
            CostModel::hadoop_era(),
            4,
        ))
    }

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn plan_names_round_trip_and_constructors_pick_their_plan() {
        for plan in Phase2Plan::ALL {
            assert_eq!(Phase2Plan::parse(plan.name()), Some(plan));
        }
        assert_eq!(Phase2Plan::parse("turbo"), None);
        let s = Support::Count(2);
        assert_eq!(YafimConfig::new(s).phase2, Phase2Plan::Paper);
        assert_eq!(YafimConfig::bitmap(s).phase2, Phase2Plan::Bitmap);
    }

    #[test]
    fn every_plan_matches_sequential_on_toy() {
        let seq = apriori(&toy(), Support::Count(2));
        for plan in Phase2Plan::ALL {
            let c = ctx();
            let run = mine_in_memory(&c, &toy(), YafimConfig::with_plan(Support::Count(2), plan));
            assert_eq!(run.result, seq, "{plan:?}");
            assert_eq!(run.result.level_sizes(), vec![4, 4, 1], "{plan:?}");
            let stats = c.cache().stats();
            assert_eq!(
                stats.entries, 0,
                "{plan:?}: replaced RDDs and columnar blocks released"
            );
            assert_eq!(stats.used_bytes, 0, "{plan:?}");
        }
    }

    #[test]
    fn fault_plan_supplies_checkpoint_cadence() {
        use yafim_cluster::FaultPlan;
        let seq = apriori(&toy(), Support::Count(2));
        // Phase II runs two jobs: pass 2, then pass 3. A checkpoint is due
        // after every `interval`-th job that a later job follows, so only
        // the one after pass 2 is ever written (the bitmap plan's pass 3
        // builds its columnar store over it).
        for (interval, due) in [(1, [1, 1, 1]), (2, [0, 0, 0])] {
            for (plan, due) in Phase2Plan::ALL.into_iter().zip(due) {
                let c = ctx();
                c.cluster()
                    .faults()
                    .set_plan(FaultPlan::seeded(3).with_checkpoint_interval(interval));
                let run =
                    mine_in_memory(&c, &toy(), YafimConfig::with_plan(Support::Count(2), plan));
                assert_eq!(run.result, seq, "interval={interval} {plan:?}");
                let spans = c.metrics().stage_spans();
                let written = spans.iter().filter(|s| s.label.starts_with("checkpoint"));
                assert_eq!(
                    written.count(),
                    due,
                    "interval={interval} {plan:?}: the plan sets the cadence, not the config"
                );
                assert_eq!(
                    c.cluster().hdfs().checkpoint_stats().0,
                    0,
                    "stale checkpoint blocks released at run end"
                );
                assert_eq!(c.cache().stats().entries, 0, "no leaked cached partitions");
            }
        }
    }

    #[test]
    fn a_paper_pass_runs_beside_no_earlier_pass_shuffle() {
        use yafim_rdd::FaultInjection;
        let c = ctx();
        let miner = Yafim::new(c.clone(), YafimConfig::new(Support::Count(1)));
        let rdd = c.parallelize_with_partitions((0u32..100).collect(), 4);
        for pass in 2..5 {
            let live = c.clone();
            let fold = move |acc: &mut [u64], part: &[u32], _: &TaskContext| {
                // This pass's map stage: its own shuffle is not in yet.
                assert_eq!(live.materialized_shuffles(), 0, "pass {pass}");
                part.iter().for_each(|&x| acc[x as usize % 10] += 1);
                part.len() as u64
            };
            let counted = miner.count_pass(&rdd, pass, 10, 1, fold).expect("clean");
            assert_eq!(counted, (0..10).map(|i| (i, 10)).collect::<Vec<_>>());
            assert_eq!(c.materialized_shuffles(), 0, "pass {pass}");
        }
    }

    #[test]
    fn a_typed_refusal_releases_cache_and_checkpoint_blocks() {
        use yafim_cluster::{json, FaultPlan};
        use yafim_data::{to_lines, PaperDataset};
        use yafim_rdd::FaultInjection;
        let tx = PaperDataset::Medical.generate_scaled(0.01);
        // Each pass's shuffle goes with the pass's RDDs, through a node
        // loss too: a finished run holds none.
        let doc = json::parse(include_str!("../../../results/nodeloss.fault.json"));
        let nodeloss = FaultPlan::from_json(&doc.expect("committed")).expect("valid");
        for fault in [None, Some(nodeloss)] {
            let c = ctx();
            c.cluster().hdfs().put_overwrite("d.dat", to_lines(&tx));
            let lossy = fault.is_some();
            if let Some(plan) = fault {
                c.cluster().faults().set_plan(plan);
            }
            let config = YafimConfig::new(Support::Fraction(0.05));
            Yafim::new(c.clone(), config)
                .mine("d.dat")
                .expect("completes");
            let lost = c.metrics().snapshot().recovery.nodes_lost;
            assert_eq!(lost, u64::from(lossy));
            assert_eq!(c.materialized_shuffles(), 0, "node loss: {lossy}");
        }
        for plan in Phase2Plan::ALL {
            let mut refused = 0;
            for seed in 0..40 {
                let c = ctx();
                c.cluster().hdfs().put_overwrite("d.dat", to_lines(&tx));
                // One crash aborts the stage, so most seeds die mid-run —
                // some with a checkpoint already written, some inside the
                // checkpoint job itself.
                c.cluster().faults().set_plan(
                    FaultPlan::seeded(seed)
                        .crash_tasks(0.02)
                        .with_max_task_failures(1)
                        .with_checkpoint_interval(1),
                );
                let miner = Yafim::new(
                    c.clone(),
                    YafimConfig::with_plan(Support::Fraction(0.05), plan),
                );
                if let Err(e) = miner.mine("d.dat") {
                    assert!(matches!(e, MineError::Exec(_)), "{plan:?} seed {seed}: {e}");
                    refused += 1;
                }
                let stats = c.cache().stats();
                assert_eq!(stats.entries, 0, "{plan:?} seed {seed}: cached partitions");
                assert_eq!(stats.used_bytes, 0, "{plan:?} seed {seed}: cache bytes");
                assert_eq!(
                    c.cluster().hdfs().checkpoint_stats().0,
                    0,
                    "{plan:?} seed {seed}: checkpoint blocks"
                );
                let shuffles = c.materialized_shuffles();
                assert_eq!(shuffles, 0, "{plan:?} seed {seed}: shuffles");
            }
            assert!(refused > 0, "{plan:?}: the fault plan must refuse some run");
        }
    }

    #[test]
    fn pass_timings_recorded() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(2)));
        // Passes 1..=3 produce itemsets; pass 4 generates no candidates
        // (single L3 itemset), so exactly 3 timed passes.
        assert_eq!(run.passes.len(), 3);
        assert!(run.passes.iter().all(|p| p.seconds > 0.0));
        assert_eq!(run.passes[0].pass, 1);
        assert!(run.total_seconds >= run.passes.iter().map(|p| p.seconds).sum::<f64>());
    }

    #[test]
    fn empty_result_when_support_too_high() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(50)));
        assert_eq!(run.result.total(), 0);
        assert_eq!(run.passes.len(), 1, "only the L1 pass runs");
    }

    #[test]
    fn max_passes_truncates_under_every_plan() {
        for plan in Phase2Plan::ALL {
            let cfg = YafimConfig {
                max_passes: 2,
                ..YafimConfig::with_plan(Support::Count(2), plan)
            };
            let run = mine_in_memory(&ctx(), &toy(), cfg);
            assert_eq!(run.result.max_len(), 2, "{plan:?}");
        }
    }

    #[test]
    fn fractional_support_resolves_against_dataset() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Fraction(0.5)));
        let seq = apriori(&toy(), Support::Count(2));
        assert_eq!(run.result, seq);
    }

    #[test]
    fn single_frequent_item_stops_cleanly_when_optimized() {
        // |L1| = 1: the triangle has no cells and Phase II must exit
        // without running a job (and without leaking cached partitions).
        let tx = vec![vec![7], vec![7, 9], vec![7], vec![7]];
        let c = ctx();
        let run = mine_in_memory(
            &c,
            &tx,
            YafimConfig::with_plan(Support::Count(3), Phase2Plan::Projected),
        );
        assert_eq!(run.result.level_sizes(), vec![1]);
        assert_eq!(
            c.cache().stats().entries,
            0,
            "all cached partitions released"
        );
    }

    #[test]
    fn a_columnar_pass_2_counts_level_3_in_its_job_and_rows_count_pass_2_alone() {
        // About seven of eight items a line: the columns price far below
        // the rows. `toy()` is sparse, so its rows price below the columns.
        let dense: Vec<Vec<Item>> = (0..640u32)
            .map(|i| (1..=8).filter(|x| (i + x) % 7 != 0).collect())
            .collect();
        for (txs, counter, last) in [(dense, "bitmap", 3), (toy(), "triangle", 2)] {
            let support = Support::Fraction(0.5);
            let run = mine_in_memory(&ctx(), &txs, YafimConfig::bitmap(support));
            assert_eq!(run.result, apriori(&txs, support), "{counter}");
            let pass2 = &run.passes[1];
            assert_eq!((pass2.pass, pass2.last, pass2.counter), (2, last, counter));
        }
    }

    #[test]
    fn bitmap_run_counts_through_the_columnar_store() {
        let c = ctx();
        mine_in_memory(&c, &toy(), YafimConfig::bitmap(Support::Count(2)));
        let engine = c.metrics().snapshot().engine;
        assert!(
            engine.bitmap_partitions_built > 0,
            "the k=3 pass must have built the columnar store"
        );
        assert!(engine.bitmap_words_intersected > 0);
        assert_eq!(engine.bitmap_fallbacks, 0);
    }

    /// What one task used to ship: `(index, count)` per nonzero cell. The
    /// emitters the folds replaced stay below as oracles (DESIGN.md §5,
    /// "Modelled quantities"), each with its counter's work figures.
    type Sparse = Vec<(u32, u64)>;

    /// A fresh zeroed triangle per task, scanned end to end.
    fn count_pairs_dense(txs: &[Vec<Item>], n_dense: usize) -> (u64, Sparse) {
        let mut counts = vec![0u64; tri_len(n_dense)];
        let mut pairs = 0u64;
        for t in txs {
            for (i, &a) in t.iter().enumerate() {
                for &b in &t[i + 1..] {
                    counts[tri_index(n_dense, a as usize, b as usize)] += 1;
                    pairs += 1;
                }
            }
        }
        (pairs, cells_at_least(&counts, 1))
    }

    /// A fresh zeroed count array per task, row by row through
    /// [`HashTree::for_each_match`]; matches are its sum.
    fn count_matches_sparse(txs: &[Vec<Item>], tree: &HashTree) -> (u64, u64, Sparse) {
        let mut counts = vec![0u64; tree.len()];
        let mut scratch = MatchScratch::default();
        let mut visits = 0u64;
        for t in txs {
            visits += tree.for_each_match(t, &mut scratch, &mut |idx| counts[idx] += 1);
        }
        (visits, counts.iter().sum(), cells_at_least(&counts, 1))
    }

    /// One pushed record per nonzero support.
    fn count_bitmaps_sparse(cols: &[ColumnarPartition], cands: &[Itemset]) -> (u64, Sparse) {
        let mut scratch = BitmapScratch::default();
        let mut out = Vec::new();
        let mut words = 0u64;
        for col in cols {
            words += col.count_candidates(cands, &mut scratch, &mut |i, c| {
                out.push((i as u32, c));
            });
        }
        (words, out)
    }

    /// Run `fold` on an accumulator earlier partitions were already folded
    /// into: what it returned, and the sparse records it added.
    fn folded<W>(n_cells: usize, fold: impl FnOnce(&mut [u64]) -> W) -> (W, Sparse) {
        let mut acc: Vec<u64> = (0..n_cells as u64).map(|i| i % 5).collect();
        let work = fold(&mut acc);
        let fresh: Vec<u64> = (0..n_cells).map(|i| acc[i] - i as u64 % 5).collect();
        (work, cells_at_least(&fresh, 1))
    }

    fn random_dense_partition(rng: &mut StdRng, n_dense: usize) -> Vec<Vec<Item>> {
        (0..rng.gen_range(0..60usize))
            .map(|_| {
                let mut t: Vec<Item> = (0..rng.gen_range(0..9usize))
                    .map(|_| rng.gen_range(0..n_dense) as Item)
                    .collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect()
    }

    #[test]
    fn every_fold_adds_what_its_sparse_emitter_emitted() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        // Back to back on this one thread, so every call after the first
        // runs on a reused touched bitset — with `n_dense` (and with it
        // every cell count) growing, shrinking and at its minimum of 2, and
        // with empty partitions in between.
        for n_dense in [40, 2, 130, 7, 2, 65, 64, 3] {
            // C_2 over the first ranks and the C_3 it generates.
            let singles: Vec<Itemset> = (0..n_dense.min(9) as u32).map(Itemset::single).collect();
            let pairs = ap_gen(&singles).0;
            let levels = [ap_gen(&pairs).0, pairs];
            let partitions = (0..6)
                .map(|_| random_dense_partition(&mut rng, n_dense))
                .chain([Vec::new()]);
            for txs in partitions {
                let label = format!("n_dense={n_dense} txs={txs:?}");
                // The folds scan the block, the oracles the nested rows.
                let block = block_of(&txs);
                let fold = |acc: &mut [u64]| count_pairs(acc, &block, n_dense);
                let (new, added) = folded(tri_len(n_dense), fold);
                let (pairs, sparse) = count_pairs_dense(&txs, n_dense);
                assert_eq!(new, (pairs, sparse.len() as u64), "{label}");
                assert_eq!(added, sparse, "{label}");

                let cols = [ColumnarPartition::build(n_dense, &txs)];
                for candidates in levels.iter().filter(|l| !l.is_empty()) {
                    let tree = HashTree::build(candidates.clone());
                    let fold = |acc: &mut [u64]| count_matches(acc, &block, &tree);
                    let (new, added) = folded(candidates.len(), fold);
                    let (visits, matches, sparse) = count_matches_sparse(&txs, &tree);
                    assert_eq!(new, (visits, matches, sparse.len() as u64), "tree {label}");
                    assert_eq!(added, sparse, "tree {label}");
                    let list = [CandidateList::new(candidates)];
                    let fold = |acc: &mut [u64]| count_bitmaps(acc, &cols, &list);
                    let (new, added) = folded(candidates.len(), fold);
                    let (words, sparse) = count_bitmaps_sparse(&cols, candidates);
                    assert_eq!(new, (words, sparse.len() as u64), "bitmap {label}");
                    assert_eq!(added, sparse, "bitmap {label}");
                }
            }
        }
    }

    #[test]
    fn an_unwound_task_leaks_no_touched_cells_into_the_next() {
        let good = vec![vec![0, 1, 4], vec![1, 4]];
        // Rank 30 indexes past a 5-rank triangle: the task dies mid-count,
        // after it already touched cells.
        let poisoned = vec![vec![0, 1, 2, 3], vec![0, 30]];
        let count = |txs| count_pairs(&mut vec![0; tri_len(5)], &block_of(txs), 5);
        count(&good);
        let unwound = std::panic::catch_unwind(|| count(&poisoned));
        assert!(unwound.is_err(), "out-of-range rank must not be counted");
        assert_eq!(count(&good).1, count_pairs_dense(&good, 5).1.len() as u64);
        // The hash tree's chunk counts run on the same thread's scratch.
        let unwound = std::panic::catch_unwind(|| count(&poisoned));
        assert!(unwound.is_err());
        let pairs = ap_gen(&(0..5).map(Itemset::single).collect::<Vec<_>>()).0;
        for tree in [HashTree::build(ap_gen(&pairs).0), HashTree::build(pairs)] {
            let counted = count_matches(&mut vec![0; tree.len()], &block_of(&good), &tree);
            let (visits, matches, sparse) = count_matches_sparse(&good, &tree);
            assert_eq!(counted, (visits, matches, sparse.len() as u64));
        }
    }

    #[test]
    fn a_poisoned_level_is_refused_typed() {
        /// Refused as an audit naming `pass`, in one line.
        fn refused<T>(outcome: Result<T, MineError>, pass: usize, case: &str) {
            let Err(err) = outcome else {
                panic!("{case}: accepted");
            };
            let named = matches!(err, MineError::Audit { pass: p, .. } if p == pass);
            assert!(named, "{case}: {err:?}");
            let line = err.to_string();
            let prefix = format!("mining-invariant audit failed after pass {pass}: ");
            assert!(line.starts_with(&prefix), "{case}: {line}");
            assert_eq!(line.lines().count(), 1, "the CLI prints this as one line");
        }
        let pairs = |n: u32| {
            let all = (0..n).flat_map(move |a| (a + 1..n).map(move |b| Itemset::new(vec![a, b])));
            all.collect::<Vec<_>>()
        };
        let level = |sets: &[Itemset], supports: &[u64]| Level {
            supports: supports.to_vec(),
            ..level_of(sets)
        };

        // Pass 2 by the triangle over ranks 0, 1, 2 (σ 5, 4, 4): cells
        // {0,1}, {0,2}, {1,2}.
        let l1 = level(&[0, 1, 2].map(Itemset::single), &[5, 4, 4]);
        let triangle = |counted: &[(u32, u64)]| pairs_level(counted, &l1, 2);
        let sound = triangle(&[(0, 4), (2, 2)]).expect("sound");
        assert_eq!(
            sound.sets.to_itemsets(),
            [&pairs(3)[0], &pairs(3)[2]].map(Itemset::clone)
        );
        refused(triangle(&[(0, 5)]), 2, "σ{0,1} above σ{1}");
        refused(triangle(&[(0, 1)]), 2, "below MinSup");
        refused(triangle(&[(2, 3), (0, 3)]), 2, "out of order");
        refused(triangle(&[(3, 2)]), 2, "past |C_2|");

        // A job's first level: C_3 = {0,1,2} from L_2 (σ 4, 3, 3), then the
        // four triples of every pair of 4 items.
        let (below, first) = (level(&pairs(3), &[4, 3, 3]), [generated(&pairs(3)).0]);
        let job = |counted: &[(u32, u64)]| job_levels(counted, &first, (3, &below), 2);
        assert_eq!(job(&[(0, 3)]).expect("sound")[0].supports, [3]);
        refused(job(&[(0, 4)]), 3, "σ{0,1,2} above σ{0,2}");
        refused(job(&[(0, 1)]), 3, "below MinSup");
        refused(job(&[(1, 2)]), 3, "past |C_3|");
        let (below, c3) = (level(&pairs(4), &[6; 6]), generated(&pairs(4)).0);
        let triples = std::slice::from_ref(&c3);
        refused(
            job_levels(&[(1, 2), (0, 2)], triples, (3, &below), 2),
            3,
            "out of order",
        );

        // A speculative level: C_4 = {0,1,2,3} from those triples, counted
        // in the same job: cells 0..4 (each σ 5 here), then cell 4.
        let c4 = job_candidates((c3, GenWork::default()), 3, 0, Chain::Levels(2)).0;
        let chain = |counted: &[(u32, u64)]| job_levels(counted, &c4, (3, &below), 2);
        let after_c3 =
            |tail: &[(u32, u64)]| chain(&[&[(0, 5), (1, 5), (2, 5), (3, 5)], tail].concat());
        let sound = after_c3(&[(4, 5)]).expect("sound");
        assert_eq!(sound.iter().map(Level::len).collect::<Vec<_>>(), [4, 1]);
        refused(after_c3(&[(4, 6)]), 4, "σ{0,1,2,3} above its triples'");
        refused(after_c3(&[(4, 1)]), 4, "below MinSup");
        refused(after_c3(&[(5, 3)]), 4, "past |C_4|");
        refused(after_c3(&[(4, 3), (4, 3)]), 4, "out of order");
        // {1,2,3} (cell 3) fell short, so {0,1,2,3} cannot be frequent.
        refused(
            chain(&[(0, 5), (1, 5), (2, 5), (4, 3)]),
            4,
            "downward closure",
        );
    }

    #[test]
    fn later_passes_cheaper_than_first() {
        // With caching, pass 2+ skips the HDFS load; on a non-trivial
        // dataset the first pass dominates.
        let tx: Vec<Vec<Item>> = (0..2000)
            .map(|i| {
                let mut t = vec![1, 2, 3];
                t.push(4 + (i % 7));
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let run = mine_in_memory(&ctx(), &tx, YafimConfig::new(Support::Fraction(0.9)));
        assert!(run.passes.len() >= 2);
        let last = run.passes.last().expect("has passes");
        assert!(
            last.seconds < run.passes[0].seconds * 2.0,
            "later passes must not blow up: {:?}",
            run.pass_seconds()
        );
    }
}
