//! The fused iterator pipelines against a sequential oracle: random
//! narrow-operator lineages, evaluated by the engine and by [`Model`] — the
//! same operators applied to plain `Vec` partitions, one partition at a
//! time — must produce identical elements and identical records in and out
//! (summed over every operator, shuffle side and action), and must look the
//! cache up as often. Every plan starts at a randomly chosen source (a
//! `parallelize`d collection, or an HDFS text file whose split lends its
//! lines to a per-element or a whole-partition parser) and ends in two
//! `collect`s and one `aggregate`.
//! Plus regressions for lineage recompute through pipelines after node loss,
//! and for a starved memory budget (spilled combine buffers, a cache that
//! stores nothing, a planted node loss) moving virtual time only.

use std::collections::{BTreeMap, HashMap, HashSet};
use yafim_cluster::{
    bucket_of, fx_hash64, ClusterSpec, CostModel, FaultPlan, MetricsSnapshot, NodeId, SimCluster,
    SimDuration, SimInstant,
};
use yafim_rdd::{Context, FaultInjection, PartialSize, Rdd, RddConfig};

fn ctx() -> Context {
    Context::new(SimCluster::with_threads(
        ClusterSpec::new(3, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ))
}

/// Tiny deterministic generator for test inputs (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn data(&mut self, max_len: u64) -> Vec<u32> {
        let n = self.range(0, max_len) as usize;
        (0..n).map(|_| self.next() as u32).collect()
    }
}

const CASES: usize = 24;

/// One randomly chosen narrow operator, with its parameters pinned so the
/// exact same lineage can be built on the engine and in the model.
#[derive(Clone, Copy, Debug)]
enum Op {
    Map(u32),
    Filter(u32),
    FlatMap(u32),
    MapPartitions(u32),
    Cache,
    UnionSelf,
}

/// Where a plan's `Rdd<u32>` comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    /// Chunks of a driver-side collection, shared with the tasks.
    Parallelize,
    /// A text file's lines, cloned one by one as `map` pulls them.
    TextMap,
    /// The same lines, lent to `map_partitions` as one slice per split.
    TextMapPartitions,
}

fn random_source(rng: &mut Rng) -> Source {
    [
        Source::Parallelize,
        Source::TextMap,
        Source::TextMapPartitions,
    ][rng.range(0, 3) as usize]
}

fn source(c: &Context, from: Source, data: &[u32], parts: usize) -> Rdd<u32> {
    let parse = |line: &String| line.parse::<u32>().expect("a decimal line");
    let lines = || {
        let lines: Vec<String> = data.iter().map(u32::to_string).collect();
        c.cluster().hdfs().put_overwrite("in.txt", lines);
        c.text_file("in.txt", parts).expect("just written")
    };
    match from {
        Source::Parallelize => c.parallelize_with_partitions(data.to_vec(), parts),
        Source::TextMap => lines().map(move |line| parse(&line)),
        Source::TextMapPartitions => {
            lines().map_partitions(move |lines, _| lines.iter().map(parse).collect())
        }
    }
}

fn random_plan(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.range(0, 6) {
            0 => Op::Map(rng.next() as u32),
            1 => Op::Filter(rng.next() as u32),
            2 => Op::FlatMap(rng.next() as u32),
            3 => Op::MapPartitions(rng.next() as u32),
            4 => Op::Cache,
            _ => Op::UnionSelf,
        })
        .collect()
}

fn mix(x: u32, k: u32) -> u32 {
    x.wrapping_mul(2_654_435_761).wrapping_add(k)
}

fn keep(x: u32, m: u32) -> bool {
    !x.is_multiple_of(m % 7 + 2)
}

fn spread(x: u32, k: u32) -> Vec<u32> {
    (0..x.wrapping_add(k) % 3)
        .map(|i| x.wrapping_add(i))
        .collect()
}

fn apply(rdd: Rdd<u32>, op: Op) -> Rdd<u32> {
    match op {
        Op::Map(k) => rdd.map(move |x| mix(x, k)),
        Op::Filter(m) => rdd.filter(move |&x| keep(x, m)),
        Op::FlatMap(k) => rdd.flat_map(move |x| spread(x, k)),
        Op::MapPartitions(k) => rdd.map_partitions(move |s, _| s.iter().map(|x| x ^ k).collect()),
        Op::Cache => rdd.cache(),
        Op::UnionSelf => rdd.union(&rdd),
    }
}

/// Where a plan with a shuffle puts it: right after this operator.
fn shuffles_after(i: usize, plan: &[Op], shuffle: bool) -> bool {
    shuffle && i == plan.len() / 2
}

/// The planned lineage over `c`, with one shuffle in the middle if asked.
fn build(
    c: &Context,
    from: Source,
    data: &[u32],
    parts: usize,
    plan: &[Op],
    shuffle: bool,
) -> Rdd<u32> {
    let mut rdd = source(c, from, data, parts);
    for (i, op) in plan.iter().enumerate() {
        rdd = apply(rdd, *op);
        if shuffles_after(i, plan, shuffle) {
            rdd = rdd
                .map(|x| (x % 64, x as u64))
                .reduce_by_key(|a, b| a.wrapping_add(b))
                .map(|(k, v)| k.wrapping_add(v as u32));
        }
    }
    rdd
}

/// A node of the model's lineage.
enum Node {
    /// Source partitions; a text source also counts its parser.
    Source { parts: Vec<Vec<u32>>, text: bool },
    /// `map`, `filter`, `flat_map` or `map_partitions`.
    Narrow { parent: usize, op: Op },
    /// `union` with itself: partitions of the parent, twice over.
    Union { parent: usize },
    /// `map` to a pair → `reduce_by_key` → `map` back, as in [`build`].
    Shuffle { parent: usize, reduces: usize },
}

/// The sequential oracle: the plan's lineage evaluated over `Vec`
/// partitions, one partition after another, with the engine's stage rules
/// (a cache entry serves a stage only if it was stored before the stage
/// began; a shuffle's map side runs once) and the engine's record
/// accounting (what each operator pulls is its records in, what it emits
/// its records out; a `union` only pulls).
#[derive(Default)]
struct Model {
    nodes: Vec<(Node, bool)>,
    stored: HashMap<(usize, usize), Vec<u32>>,
    /// Per shuffle node, each map task's combined output.
    map_outputs: HashMap<usize, Vec<BTreeMap<u32, u64>>>,
    records_in: u64,
    records_out: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Model {
    /// The lineage [`build`] makes, its source cut as `c` cuts it.
    fn build(
        c: &Context,
        from: Source,
        data: &[u32],
        parts: usize,
        plan: &[Op],
        shuffle: bool,
    ) -> (Model, usize) {
        let cut = match from {
            Source::Parallelize => {
                let chunk = data.len().div_ceil(parts).max(1);
                let mut rest = data.iter().copied();
                (0..parts)
                    .map(|_| rest.by_ref().take(chunk).collect())
                    .collect()
            }
            _ => {
                let file = c.cluster().hdfs().get("in.txt").expect("written");
                let splits = file.splits(parts);
                splits
                    .iter()
                    .map(|s| data[s.lines.clone()].to_vec())
                    .collect()
            }
        };
        let mut m = Model::default();
        let text = from != Source::Parallelize;
        let mut at = m.push(Node::Source { parts: cut, text });
        for (i, &op) in plan.iter().enumerate() {
            at = match op {
                Op::Cache => {
                    m.nodes[at].1 = true;
                    at
                }
                Op::UnionSelf => m.push(Node::Union { parent: at }),
                _ => m.push(Node::Narrow { parent: at, op }),
            };
            if shuffles_after(i, plan, shuffle) {
                let reduces = m.parts(at).max(1);
                at = m.push(Node::Shuffle {
                    parent: at,
                    reduces,
                });
            }
        }
        (m, at)
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push((node, false));
        self.nodes.len() - 1
    }

    fn parts(&self, at: usize) -> usize {
        match self.nodes[at].0 {
            Node::Source { ref parts, .. } => parts.len(),
            Node::Narrow { parent, .. } => self.parts(parent),
            Node::Union { parent } => 2 * self.parts(parent),
            Node::Shuffle { reduces, .. } => reduces,
        }
    }

    fn count(&mut self, records_in: usize, records_out: usize) {
        self.records_in += records_in as u64;
        self.records_out += records_out as u64;
    }

    /// One partition, through the cache if the node is cached; `stage` is
    /// what was stored when the stage began.
    fn read(&mut self, at: usize, part: usize, stage: &HashSet<(usize, usize)>) -> Vec<u32> {
        if !self.nodes[at].1 {
            return self.compute(at, part, stage);
        }
        if stage.contains(&(at, part)) {
            self.cache_hits += 1;
            return self.stored[&(at, part)].clone();
        }
        self.cache_misses += 1;
        let data = self.compute(at, part, stage);
        self.stored.insert((at, part), data.clone());
        data
    }

    fn compute(&mut self, at: usize, part: usize, stage: &HashSet<(usize, usize)>) -> Vec<u32> {
        match self.nodes[at].0 {
            Node::Source { ref parts, text } => {
                let data = parts[part].clone();
                if text {
                    self.count(data.len(), data.len());
                }
                self.count(0, data.len());
                data
            }
            Node::Narrow { parent, op } => {
                let input = self.read(parent, part, stage);
                let out: Vec<u32> = input
                    .iter()
                    .flat_map(|&x| match op {
                        Op::Map(k) => vec![mix(x, k)],
                        Op::Filter(m) => [x].into_iter().filter(|&x| keep(x, m)).collect(),
                        Op::FlatMap(k) => spread(x, k),
                        Op::MapPartitions(k) => vec![x ^ k],
                        Op::Cache | Op::UnionSelf => unreachable!("not a narrow node"),
                    })
                    .collect();
                self.count(input.len(), out.len());
                out
            }
            Node::Union { parent } => {
                let input = self.read(parent, part % self.parts(parent), stage);
                self.count(input.len(), 0);
                input
            }
            Node::Shuffle { reduces, .. } => {
                let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
                let mut fetched = 0;
                for output in &self.map_outputs[&at] {
                    for (&k, &v) in output
                        .iter()
                        .filter(|(k, _)| bucket_of(*k, reduces) == part)
                    {
                        fetched += 1;
                        let sum = sums.entry(k).or_insert(0);
                        *sum = sum.wrapping_add(v);
                    }
                }
                let mut reduced: Vec<(u32, u64)> = sums.into_iter().collect();
                reduced.sort_by_key(|&(k, _)| (fx_hash64(&k), k));
                self.count(fetched, reduced.len());
                self.count(reduced.len(), reduced.len());
                reduced
                    .into_iter()
                    .map(|(k, v)| k.wrapping_add(v as u32))
                    .collect()
            }
        }
    }

    /// Run the map side of every shuffle `at` depends on, once each.
    fn prepare(&mut self, at: usize) {
        match self.nodes[at].0 {
            Node::Source { .. } => {}
            Node::Narrow { parent, .. } | Node::Union { parent } => self.prepare(parent),
            Node::Shuffle { parent, .. } => {
                if self.map_outputs.contains_key(&at) {
                    return;
                }
                self.prepare(parent);
                let stage = self.stored.keys().copied().collect();
                let outputs = (0..self.parts(parent))
                    .map(|m| {
                        let input = self.read(parent, m, &stage);
                        let mut combined = BTreeMap::new();
                        for &x in &input {
                            let sum: &mut u64 = combined.entry(x % 64).or_default();
                            *sum = sum.wrapping_add(x as u64);
                        }
                        self.count(input.len(), input.len()); // the pair `map`
                        self.count(input.len(), combined.len()); // the combiner
                        combined
                    })
                    .collect();
                self.map_outputs.insert(at, outputs);
            }
        }
    }

    /// One action over `at`: its shuffles, then its final stage. An
    /// `aggregate` pulls each partition and ships one partial per task.
    fn action(&mut self, at: usize, aggregate: bool) -> Vec<u32> {
        self.prepare(at);
        let stage = self.stored.keys().copied().collect();
        let mut all = Vec::new();
        for part in 0..self.parts(at) {
            let data = self.read(at, part, &stage);
            if aggregate {
                self.count(data.len(), 1);
            }
            all.extend(data);
        }
        all
    }
}

/// Build the planned lineage on the engine and in the model, and run
/// `collect` twice (the second pass exercises cache hits and shuffle reuse),
/// then `aggregate`, on both: elements, records in and out and cache
/// lookups must agree. Returns both engine collections and its metrics.
fn run_plan(
    from: Source,
    data: &[u32],
    parts: usize,
    plan: &[Op],
    shuffle: bool,
) -> (Vec<u32>, Vec<u32>, MetricsSnapshot) {
    let c = ctx();
    let rdd = build(&c, from, data, parts, plan, shuffle);
    let first = rdd.collect();
    let second = rdd.collect();
    assert_eq!(checksum(&rdd), checksum_of(&first), "aggregate vs collect");
    let snap = c.metrics().snapshot();

    let (mut model, root) = Model::build(&c, from, data, parts, plan, shuffle);
    let plan = (from, plan);
    assert_eq!(first, model.action(root, false), "first collect {plan:?}");
    assert_eq!(second, model.action(root, false), "second collect {plan:?}");
    model.action(root, true);
    let work = snap.profile.work;
    assert_eq!(
        (work.records_in, work.records_out),
        (model.records_in, model.records_out),
        "records in/out {plan:?}"
    );
    assert_eq!(
        (snap.profile.cache_hits, snap.profile.cache_misses),
        (model.cache_hits, model.cache_misses),
        "cache lookups {plan:?}"
    );
    (first, second, snap)
}

/// `(wrapping sum, count)` of the elements, by the `aggregate` action: every
/// random plan ends in it, and so does the interleaving regression below.
fn checksum(rdd: &Rdd<u32>) -> (u32, u64) {
    rdd.try_aggregate(
        || (0u32, 0u64),
        |acc, part, _| {
            let (sum, n) = checksum_of(part);
            *acc = (acc.0.wrapping_add(sum), acc.1 + n);
            PartialSize {
                records: 1,
                bytes: 12,
            }
        },
        |a, b| (a.0.wrapping_add(b.0), a.1 + b.1),
    )
    .expect("no fault plan")
}

fn checksum_of(elements: &[u32]) -> (u32, u64) {
    let sum = elements.iter().fold(0u32, |a, &x| a.wrapping_add(x));
    (sum, elements.len() as u64)
}

#[test]
fn narrow_chains_match_the_sequential_model() {
    let mut rng = Rng(seed(1));
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 6) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let (first, second, _) = run_plan(from, &data, parts, &plan, false);
        assert_eq!(first, second, "collect not stable (case {case}: {plan:?})");
    }
}

/// The smallest lineage that used to make the virtual clock depend on the
/// host scheduler (case 23 of the narrow-chain plans above, shrunk): tasks
/// `i` and `i + n` of the one stage both read cached partition `i`, so who
/// computed it, who got a hit, and whether both missed was a race (8 runs
/// in 2 000 on four partitions, 26 on three). What a task sees of the cache
/// must be a function of the plan alone: every run, on any number of pool
/// threads, ends in the same metrics and the same cache stats.
#[test]
fn union_over_a_cached_rdd_is_interleaving_independent() {
    const RUNS: usize = 2000;
    for parts in [3, 4] {
        let mut first: Option<String> = None;
        for threads in [1, 2, 8] {
            for run in 0..RUNS {
                let cluster = SimCluster::with_threads(
                    ClusterSpec::new(3, 2, 1 << 30),
                    CostModel::hadoop_era(),
                    threads,
                );
                let c = Context::new(cluster);
                let r = c
                    .parallelize_with_partitions((0..10u32).collect(), parts)
                    .cache();
                let twice: Vec<u32> = (0..10).chain(0..10).collect();
                assert_eq!(r.union(&r).collect(), twice);
                assert_eq!(checksum(&r.union(&r)), (90, 20));
                let seen = format!("{:?} {:?}", c.metrics().snapshot(), c.cache().stats());
                let first = first.get_or_insert_with(|| seen.clone());
                assert_eq!(
                    &seen, first,
                    "run {run}: {parts} partitions, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn shuffles_match_the_sequential_model() {
    let mut rng = Rng(seed(2));
    for case in 0..CASES {
        let data = rng.data(120);
        let parts = rng.range(1, 10) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let (first, second, snap) = run_plan(from, &data, parts, &plan, true);
        assert_eq!(first, second, "collect not stable (case {case}: {plan:?})");
        // An upstream filter can legitimately empty the shuffle input; only
        // a non-empty result proves bytes crossed the boundary.
        if !first.is_empty() {
            assert!(
                snap.profile.shuffle_write_bytes > 0,
                "shuffle never ran (case {case})"
            );
        }
    }
}

/// PR 2's invariant, re-proven through the pipelined path: losing a node
/// (cached partitions and map outputs included) and recomputing through
/// lineage yields byte-identical results.
#[test]
fn node_loss_recompute_is_identical_through_pipelines() {
    let mut rng = Rng(seed(3));
    for case in 0..CASES {
        let n = rng.range(1, 120) as usize;
        let data: Vec<u32> = (0..n).map(|_| rng.range(0, 500) as u32).collect();
        let parts = rng.range(2, 8) as usize;
        let victim = rng.range(0, 3);
        let c = ctx();
        let cached = c
            .parallelize_with_partitions(data.clone(), parts)
            .flat_map(|x| vec![x, x.wrapping_add(1)])
            .cache();
        let reduced = cached.map(|x| (x % 16, 1u64)).reduce_by_key(|a, b| a + b);
        let healthy = reduced.collect();

        c.lose_node(yafim_cluster::NodeId(victim as u32));
        let recovered = reduced.collect();
        assert_eq!(healthy, recovered, "recompute diverged (case {case})");
        assert_eq!(cached.collect().len(), data.len() * 2);
    }
}

/// A starved memory budget on one cluster: at 1 byte per node the governor's
/// per-task slice rounds to zero, so every shuffle combine buffer spills
/// through local disk; a zero-byte cache stores nothing, so every read of a
/// cached partition recomputes it; and a node is lost on top. Every result
/// stays byte-identical to an unbudgeted, fault-free run: memory pressure,
/// like faults, may only move virtual time, never data.
#[test]
fn a_tight_budget_spills_and_matches_the_unbudgeted_run() {
    let mut rng = Rng(seed(5));
    let mut spilled = 0;
    for case in 0..CASES / 4 {
        let data = rng.data(120);
        let parts = rng.range(2, 8) as usize;
        let len = rng.range(1, 5) as usize;
        let plan = random_plan(&mut rng, len);
        let from = random_source(&mut rng);
        let fault_seed = rng.next();

        let run = |starved: bool| {
            let cluster = SimCluster::with_threads(
                ClusterSpec::new(3, 2, 1 << 30),
                CostModel::hadoop_era(),
                2,
            );
            let mut config = RddConfig::for_cluster(&cluster);
            if starved {
                cluster.faults().set_plan(
                    FaultPlan::seeded(fault_seed)
                        .with_mem_budget(1)
                        .lose_node_at(NodeId(0), SimInstant::EPOCH + SimDuration::from_secs(0.01)),
                );
                config.cache_capacity_per_node = Some(0);
            }
            let c = Context::with_config(cluster, config);
            let rdd = build(&c, from, &data, parts, &plan, true).cache();
            let first = rdd.collect();
            assert_eq!(first, rdd.collect(), "re-read (case {case})");
            (first, c.metrics().snapshot())
        };
        let (reference, _) = run(false);
        let (tight, snap) = run(true);
        assert_eq!(tight, reference, "case {case}: {plan:?}");
        let rec = snap.recovery;
        assert_eq!(rec.mem.oom_killed, 0, "degradable spills never kill");
        assert!(
            rec.nodes_lost >= 1,
            "case {case}: the node loss never fired"
        );
        assert_eq!(
            snap.profile.cache_hits, 0,
            "case {case}: nothing was stored"
        );
        assert!(snap.profile.cache_misses > 0, "case {case}: no cache read");
        // A filter can empty the shuffle input; only a non-empty result
        // proves a combine buffer filled.
        if !reference.is_empty() {
            assert!(
                rec.mem.spills > 0 && rec.mem.spill_bytes > 0,
                "case {case}: no combine buffer spilled"
            );
            spilled += 1;
        }
    }
    assert!(spilled > 0, "every plan filtered to nothing");
}

/// Seed helper so each test's stream is distinct but stable.
fn seed(n: u64) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(n).wrapping_add(n)
}
