//! Randomized-but-deterministic tests over the MapReduce engine: job
//! semantics must match the in-memory equivalents for arbitrary inputs and
//! configurations.

use std::collections::HashMap;
use std::sync::Arc;
use yafim_cluster::{ClusterSpec, CostModel, FaultPlan, Lines, SimCluster};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(3, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

/// One node with `reduce_tasks` cores: a job has one reduce task per core.
fn reducers(reduce_tasks: usize) -> SimCluster {
    let spec = ClusterSpec::new(1, reduce_tasks as u32, 1 << 30);
    SimCluster::with_threads(spec, CostModel::hadoop_era(), 2)
}

/// [`cluster`] with `block_size`-byte HDFS blocks: one map task per block.
fn blocks(block_size: u64) -> SimCluster {
    let c = cluster();
    c.hdfs().set_block_size(block_size);
    c
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

    /// Lines of small integer tokens.
    fn corpus(&mut self) -> Vec<String> {
        let rows = self.range(0, 40) as usize;
        (0..rows)
            .map(|_| {
                let len = self.range(0, 8) as usize;
                (0..len)
                    .map(|_| self.range(0, 20).to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }
}

fn expected_counts(lines: &[String]) -> HashMap<u32, u64> {
    let mut m = HashMap::new();
    for l in lines {
        for t in l.split_whitespace() {
            *m.entry(t.parse::<u32>().expect("numeric token"))
                .or_insert(0u64) += 1;
        }
    }
    m
}

fn count_job(input: &str) -> MapReduceJob<u32, u64, u32, u64> {
    MapReduceJob::new(
        "count",
        input,
        |_o, line: &str, em: &mut Emitter<u32, u64>, _w| {
            for t in line.split_whitespace() {
                em.emit(t.parse().expect("numeric token"), 1);
            }
        },
        |k: &u32, vs: Vec<u64>, em: &mut Emitter<u32, u64>, _w| em.emit(*k, vs.into_iter().sum()),
    )
}

const CASES: usize = 16;

#[test]
fn counting_matches_hashmap() {
    let mut rng = Rng(30);
    for _ in 0..CASES {
        let lines = rng.corpus();
        let c = reducers(rng.range(1, 8) as usize);
        c.hdfs().put_overwrite("in.txt", lines.clone());
        let result = MrRunner::new(c)
            .run(count_job("in.txt"))
            .expect("input exists");
        let expected = expected_counts(&lines);
        assert_eq!(result.pairs.len(), expected.len());
        for (k, v) in result.pairs {
            assert_eq!(expected.get(&k), Some(&v));
        }
    }
}

#[test]
fn combiner_never_changes_results() {
    let mut rng = Rng(31);
    for _ in 0..CASES {
        let lines = rng.corpus();
        let block_size = rng.range(16, 512);
        let run = |with_combiner: bool| {
            let c = blocks(block_size);
            c.hdfs().put_overwrite("in.txt", lines.clone());
            let job = count_job("in.txt");
            let job = if with_combiner {
                job.with_combiner(|a, b| a + b)
            } else {
                job
            };
            let mut pairs = MrRunner::new(c).run(job).expect("input exists").pairs;
            pairs.sort();
            pairs
        };
        assert_eq!(run(false), run(true));
    }
}

#[test]
fn per_split_mapper_equals_per_line_mapper() {
    let mut rng = Rng(32);
    for _ in 0..CASES {
        let lines = rng.corpus();
        let block_size = rng.range(16, 512);
        let per_line = {
            let c = blocks(block_size);
            c.hdfs().put_overwrite("in.txt", lines.clone());
            let mut p = MrRunner::new(c)
                .run(count_job("in.txt"))
                .expect("input exists")
                .pairs;
            p.sort();
            p
        };
        let per_split = {
            let c = blocks(block_size);
            c.hdfs().put_overwrite("in.txt", lines.clone());
            let job = MapReduceJob::new_per_split(
                "count",
                "in.txt",
                |_o, lines: &Lines, em: &mut Emitter<u32, u64>, _w| {
                    for line in lines.iter() {
                        for t in line.split_whitespace() {
                            em.emit(t.parse().expect("numeric token"), 1);
                        }
                    }
                },
                |k: &u32, vs: Vec<u64>, em: &mut Emitter<u32, u64>, _w| {
                    em.emit(*k, vs.into_iter().sum())
                },
            );
            let mut p = MrRunner::new(c).run(job).expect("input exists").pairs;
            p.sort();
            p
        };
        assert_eq!(per_line, per_split);
    }
}

#[test]
fn virtual_time_deterministic() {
    let mut rng = Rng(33);
    for _ in 0..CASES {
        let lines = rng.corpus();
        let run = || {
            let c = cluster();
            c.hdfs().put_overwrite("in.txt", lines.clone());
            MrRunner::new(c.clone())
                .run(count_job("in.txt"))
                .expect("input exists");
            c.metrics().now().as_secs()
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn reduce_task_count_only_affects_time() {
    let mut rng = Rng(34);
    for _ in 0..CASES {
        let lines = rng.corpus();
        let run = |reduce_tasks: usize| {
            let c = reducers(reduce_tasks);
            c.hdfs().put_overwrite("in.txt", lines.clone());
            let mut p = MrRunner::new(c)
                .run(count_job("in.txt"))
                .expect("input exists")
                .pairs;
            p.sort();
            p
        };
        assert_eq!(run(1), run(7));
    }
}

// ---- key-table jobs: `emit_at(i)` is `emit(table[i].clone(), 1)` under `+` ----

/// Everything of one job run the model (or a caller) can see: pairs,
/// `JobStats`, committed lines, metrics snapshot, clock bits, and (typed, to
/// tell whether a plan fired) corruptions repaired and OOMs survived.
type Observed = Result<
    (
        Vec<(Vec<u32>, u64)>,
        String,
        String,
        String,
        u64,
        (u64, u64),
    ),
    String,
>;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Build the key, emit it with a `1`, fold by a `+` combiner.
    Keyed,
    /// Count the key's index into the declared table.
    Indexed,
}

fn example_plan(json: &str) -> FaultPlan {
    FaultPlan::from_json(&yafim_cluster::json::parse(json).expect("committed plan parses"))
        .expect("committed plan is valid")
}

/// Count, per table entry, the lines that hold all its tokens, on a
/// `nodes` x `cores` cluster (one reduce task per core) whose HDFS cuts the
/// input into `block_size`-byte blocks (one map task per block).
fn run_subset_count(
    shape: Shape,
    threads: usize,
    lines: &[String],
    table: &[Vec<u32>],
    block_size: u64,
    (nodes, cores): (u32, u32),
    plan: Option<&FaultPlan>,
) -> Observed {
    let c = SimCluster::with_threads(
        ClusterSpec::new(nodes, cores, 1 << 30),
        CostModel::hadoop_era(),
        threads,
    );
    if let Some(plan) = plan {
        c.faults().set_plan(plan.clone());
    }
    c.hdfs().set_block_size(block_size);
    c.hdfs().put_overwrite("in.txt", lines.to_vec());
    let table: Arc<[Vec<u32>]> = table.into();
    let for_map = Arc::clone(&table);
    let job = MapReduceJob::new(
        "subset-count",
        "in.txt",
        move |_o, line: &str, em: &mut Emitter<Vec<u32>, u64>, w| {
            let tokens: Vec<u32> = line
                .split_whitespace()
                .map(|t| t.parse().expect("numeric token"))
                .collect();
            w.add_cpu(for_map.len() as u64);
            for (i, key) in for_map.iter().enumerate() {
                if key.iter().all(|t| tokens.contains(t)) {
                    match shape {
                        Shape::Keyed => em.emit(key.clone(), 1),
                        Shape::Indexed => em.emit_at(i),
                    }
                }
            }
        },
        |k: &Vec<u32>, vs: Vec<u64>, em: &mut Emitter<Vec<u32>, u64>, _w| {
            em.emit(k.clone(), vs.into_iter().sum())
        },
    )
    .with_output(
        "out/part",
        Arc::new(|k: &Vec<u32>, v: &u64| format!("{k:?} {v}")),
    );
    let job = match shape {
        Shape::Keyed => job.with_combiner(|a, b| a + b),
        Shape::Indexed => job.with_key_table(table),
    };
    let result = MrRunner::new(c.clone())
        .run(job)
        .map_err(|e| format!("{e:?}"))?;
    let snapshot = c.metrics().snapshot();
    Ok((
        result.pairs,
        format!("{:?}", result.stats),
        result
            .output_file
            .expect("job commits")
            .lines()
            .text()
            .into_owned(),
        format!("{snapshot:?}"),
        c.metrics().now().as_secs().to_bits(),
        (
            snapshot.recovery.integrity.corruptions_repaired,
            snapshot.recovery.mem.oom_survived_by_degradation,
        ),
    ))
}

/// Singles then pairs over tokens `0..20` (each level sorted, the
/// concatenation not: the FPC/DPC table shape), plus `[99]`, which no line
/// holds.
fn level_table(rng: &mut Rng) -> Vec<Vec<u32>> {
    let mut singles: Vec<Vec<u32>> = (0..20)
        .filter(|_| rng.range(0, 3) > 0)
        .map(|t| vec![t])
        .collect();
    singles.push(vec![99]);
    let pairs = (0..20u32)
        .flat_map(|a| (a + 1..20).map(move |b| vec![a, b]))
        .filter(|_| rng.range(0, 6) == 0);
    singles.into_iter().chain(pairs).collect()
}

#[test]
fn emitting_an_index_is_emitting_its_key() {
    let corruption = example_plan(include_str!("../../../results/corruption.fault.json"));
    // The committed 5 % would deny none of these few tiny tasks.
    let oom = FaultPlan {
        oom_prob: 0.5,
        ..example_plan(include_str!("../../../results/oom.fault.json"))
    };
    let (mut corrupted, mut denied) = (false, false);
    let mut rng = Rng(35);
    for case in 0..6 {
        let lines = rng.corpus();
        let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let mut table = level_table(&mut rng);
        match case {
            // Any order at all, not just level order, and a key twice.
            1 | 4 => {
                table.push(table[0].clone());
                for i in (1..table.len()).rev() {
                    table.swap(i, rng.range(0, i as u64 + 1) as usize);
                }
            }
            2 => table.clear(),
            _ => {}
        }
        // One line per split, something in between, the whole file; 1, 3
        // and 96 reduce tasks.
        for block_size in [1, rng.range(16, 256), bytes.max(1)] {
            for shape in [(1, 1), (1, 3), (12, 8)] {
                for plan in [None, Some(&corruption), Some(&oom)] {
                    let run =
                        |emit| run_subset_count(emit, 2, &lines, &table, block_size, shape, plan);
                    let (keyed, indexed) = (run(Shape::Keyed), run(Shape::Indexed));
                    assert_eq!(
                        keyed, indexed,
                        "case {case}, block {block_size}, {shape:?} cluster, plan {plan:?}"
                    );
                    if let Ok((pairs, .., (repaired, survived))) = &indexed {
                        assert!(pairs.iter().all(|(k, v)| *k != [99] && *v > 0));
                        corrupted |= *repaired > 0;
                        denied |= *survived > 0;
                    }
                }
            }
        }
    }
    assert!(corrupted && denied, "both plans must have fired somewhere");
}

#[test]
#[should_panic(expected = "a key table's counts fold by +")]
fn a_key_table_folds_by_plus_and_nothing_else() {
    let job = count_job("in.txt").with_key_table(Arc::new([1, 2]));
    let _ = job.with_combiner(|a, b| a.max(b));
}

/// Enough lines for a one-split job to be cut into eight host units: the
/// indexed job on eight pool threads is the keyed job on one.
#[test]
fn host_units_are_invisible_to_both_emit_shapes() {
    let mut rng = Rng(36);
    let lines: Vec<String> = (0..800).flat_map(|_| rng.corpus()).collect();
    let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
    assert!(
        bytes >= 8 * 16 * 1024,
        "{bytes} bytes is too few for 8 units"
    );
    let table = level_table(&mut rng);
    let oom = example_plan(include_str!("../../../results/oom.fault.json"));
    for plan in [None, Some(&oom)] {
        let reference = run_subset_count(Shape::Keyed, 1, &lines, &table, bytes, (3, 1), plan);
        assert!(reference.is_ok());
        for (shape, threads) in [(Shape::Indexed, 1), (Shape::Keyed, 8), (Shape::Indexed, 8)] {
            let seen = run_subset_count(shape, threads, &lines, &table, bytes, (3, 1), plan);
            assert_eq!(seen, reference, "{shape:?} on {threads} threads");
        }
    }
}
