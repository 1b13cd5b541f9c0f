//! MR-Apriori — the MapReduce baseline the paper compares YAFIM against.
//!
//! The default variant, [`MrVariant::Spc`], is the PApriori / SPC scheme
//! (Li et al. 2012; Lin et al. 2012, refs \[16\]/\[17\]): **one MapReduce job per
//! Apriori pass**. Every job re-reads the full transactional dataset from
//! HDFS, ships the candidate set to the mappers through the distributed
//! cache, counts occurrences, and commits the frequent itemsets back to
//! HDFS — the per-iteration I/O round trip whose cost YAFIM's evaluation
//! quantifies.
//!
//! Candidate matching defaults to the classic Apriori hash tree — the
//! paper's MR baseline is overhead-bound, not matching-bound, on every
//! dataset (its per-pass floor sits around 34 s regardless of workload), so
//! it clearly used an efficient `subset(C_k, t)`. A naive
//! scan-the-candidate-list matcher ([`MrMatching::NaiveScan`]) is kept as a
//! config option for the matching ablation bench.
//!
//! Two pass-combining variants from Lin et al. are included for the
//! ablation benches:
//!
//! * [`MrVariant::Fpc`] — *fixed passes combined*: each job counts `p`
//!   consecutive candidate levels at once (candidates of level `k+1`
//!   generated from the level-`k` *candidates*, keeping completeness).
//! * [`MrVariant::Dpc`] — *dynamic passes combined*: keep adding levels to a
//!   job while the combined candidate count stays under a threshold.

use crate::candidates::{job_candidates, Chain};
use crate::hashtree::{HashTree, MatchScratch};
use crate::miner::MineError;
use crate::types::{Item, Itemset, MinerRun, MiningResult, Support, JVM_TREE_VISIT_UNITS};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use yafim_cluster::{slice_bytes, ByteSize, EventKind, FxHashMap, SimCluster, WorkCounters};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};

/// Abstract CPU units per naive candidate subset-check (a short merge scan
/// over two sorted lists in the Java baseline).
const NAIVE_CHECK_UNITS: u64 = 6;

/// How candidate occurrences are found in a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MrMatching {
    /// The classic Apriori hash tree (default — see module docs).
    #[default]
    HashTree,
    /// Scan the candidate list per transaction (pair enumeration at
    /// `k = 2`); the matching ablation's slow path.
    NaiveScan,
}

impl MrMatching {
    /// What the pass record says counted the pass.
    fn name(self) -> &'static str {
        match self {
            MrMatching::HashTree => "hash tree",
            MrMatching::NaiveScan => "naive scan",
        }
    }
}

/// A built matcher for one candidate level. Matches are reported as the
/// candidate's index within the level.
enum LevelMatching {
    /// Hash-tree descent.
    Tree(HashTree),
    /// `k = 2` naive: enumerate item pairs and probe a map to the index.
    Pairs(FxHashMap<(Item, Item), usize>),
    /// `k ≥ 3` naive: linear scan with subset tests.
    Scan(Vec<Itemset>),
}

impl LevelMatching {
    fn new(candidates: Vec<Itemset>, matching: MrMatching) -> Self {
        match matching {
            MrMatching::HashTree => LevelMatching::Tree(HashTree::build(candidates)),
            MrMatching::NaiveScan => {
                if candidates.first().is_some_and(|c| c.len() == 2) {
                    LevelMatching::Pairs(
                        candidates
                            .iter()
                            .enumerate()
                            .map(|(idx, c)| ((c.items()[0], c.items()[1]), idx))
                            .collect(),
                    )
                } else {
                    LevelMatching::Scan(candidates)
                }
            }
        }
    }

    /// Call `hit` with the index of every contained candidate; returns the
    /// CPU units spent.
    fn for_each_match(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        mut hit: impl FnMut(usize),
    ) -> u64 {
        match self {
            LevelMatching::Tree(tree) => {
                tree.for_each_match(t, scratch, hit) * JVM_TREE_VISIT_UNITS
            }
            LevelMatching::Pairs(pairs) => {
                let mut units = 0;
                for i in 0..t.len() {
                    for j in i + 1..t.len() {
                        units += 2;
                        if let Some(&idx) = pairs.get(&(t[i], t[j])) {
                            hit(idx);
                        }
                    }
                }
                units
            }
            LevelMatching::Scan(candidates) => {
                for (idx, c) in candidates.iter().enumerate() {
                    if c.is_subset_of_sorted(t) {
                        hit(idx);
                    }
                }
                candidates.len() as u64 * NAIVE_CHECK_UNITS
            }
        }
    }
}

thread_local! {
    /// One row buffer and one match scratch per worker thread: the hot
    /// allocations of a per-line mapper.
    static BUFFERS: RefCell<(Vec<Item>, MatchScratch)> = RefCell::default();
}

/// Scan `line` into this thread's row buffer and hand it and the thread's
/// match scratch to `map`; charge a CPU unit per item plus what `map`
/// returns.
fn with_row(line: &str, w: &mut WorkCounters, map: impl FnOnce(&[Item], &mut MatchScratch) -> u64) {
    BUFFERS.with(|buffers| {
        let (items, scratch) = &mut *buffers.borrow_mut();
        items.clear();
        yafim_data::scan_line(line, items);
        w.add_cpu(items.len() as u64 + map(items, scratch));
    });
}

/// Pass 1's map key: one item, standing for `Itemset::single(item)`. It
/// hashes (hence `bucket_of`), orders and weighs as that itemset does, so
/// pass 1 is charged as with `Itemset` keys but allocates none per emission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ItemKey(Item);

impl Hash for ItemKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // As `Vec<Item>` hashes: a slice, its length first.
        std::slice::from_ref(&self.0).hash(state);
    }
}

impl ByteSize for ItemKey {
    fn byte_size(&self) -> u64 {
        8 + 4 // `Itemset::byte_size` of one item
    }
}

/// The counting job MR-Apriori (passes ≥ 2) and SON (phase 2) share: count
/// every candidate of `levels` over `input`, keep those reaching `min_sup`,
/// commit them to `output`. The candidates ship through the distributed
/// cache and double as the job's key table (the levels concatenated), so
/// the mapper counts one index per match and never builds an `Itemset`.
pub(crate) fn counting_job(
    name: String,
    input: &str,
    output: String,
    levels: Vec<Vec<Itemset>>,
    matching: MrMatching,
    min_sup: u64,
) -> MapReduceJob<Itemset, u64, Itemset, u64> {
    // Serialized itemset text, as PApriori ships it.
    let side_bytes: u64 = levels.iter().map(|l| slice_bytes(l)).sum();
    let table: Arc<[Itemset]> = levels.iter().flatten().cloned().collect();
    let mut base = 0;
    let matchers: Vec<(usize, LevelMatching)> = levels
        .into_iter()
        .map(|level| {
            base += level.len();
            (base - level.len(), LevelMatching::new(level, matching))
        })
        .collect();
    MapReduceJob::new(
        name,
        input,
        move |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
            with_row(line, w, |items, scratch| {
                let units = matchers.iter().map(|(base, matcher)| {
                    matcher.for_each_match(items, scratch, |idx| em.emit_at(base + idx))
                });
                units.sum()
            });
        },
        move |k: &Itemset, vs: Vec<u64>, em: &mut Emitter<Itemset, u64>, _w| {
            let sum: u64 = vs.into_iter().sum();
            if sum >= min_sup {
                em.emit(k.clone(), sum);
            }
        },
    )
    .with_key_table(table)
    .with_side_data(side_bytes)
    .with_output(output, Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")))
}

/// Which job-combining scheme to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MrVariant {
    /// One job per pass (PApriori / SPC) — the paper's baseline.
    Spc,
    /// Combine a fixed number of consecutive passes per job (≥ 1).
    Fpc {
        /// Passes per job after the first.
        passes_per_job: usize,
    },
    /// Combine passes while the job's total candidate count stays below the
    /// threshold.
    Dpc {
        /// Maximum combined candidates per job.
        max_candidates: usize,
    },
}

/// Options for an MR-Apriori run.
#[derive(Clone, Debug)]
pub struct MrAprioriConfig {
    /// Minimum support threshold.
    pub min_support: Support,
    /// Stop after this many passes (0 = run to fixpoint).
    pub max_passes: usize,
    /// Job-combining scheme.
    pub variant: MrVariant,
    /// Candidate-matching strategy.
    pub matching: MrMatching,
}

impl MrAprioriConfig {
    /// The paper's baseline setup: SPC, block splits, auto reduce tasks.
    pub fn new(min_support: Support) -> Self {
        MrAprioriConfig {
            min_support,
            max_passes: 0,
            variant: MrVariant::Spc,
            matching: MrMatching::HashTree,
        }
    }
}

/// The MR-Apriori miner bound to one virtual cluster.
pub struct MrApriori {
    runner: MrRunner,
    config: MrAprioriConfig,
}

impl MrApriori {
    /// A miner over `cluster` with `config`.
    pub fn new(cluster: SimCluster, config: MrAprioriConfig) -> Self {
        MrApriori {
            runner: MrRunner::new(cluster),
            config,
        }
    }

    /// Mine the text dataset at `input` on simulated HDFS.
    pub fn mine(&self, input: &str) -> Result<MinerRun, MineError> {
        let cluster = self.runner.cluster().clone();
        let metrics = cluster.metrics().clone();
        let cost = cluster.cost().clone();
        let file = cluster.hdfs().get(input)?;
        let min_sup = self.config.min_support.resolve(file.num_lines() as u64);

        let run_start = metrics.now();
        let mut passes = Vec::new();

        // ---- pass 1: frequent items, one job, keyed by one item ----
        let pass1_start = (metrics.now(), Instant::now());
        let job = MapReduceJob::new(
            "MR-Apriori pass 1",
            input,
            |_off, line: &str, em: &mut Emitter<ItemKey, u64>, w| {
                with_row(line, w, |items, _| {
                    items.iter().for_each(|&item| em.emit(ItemKey(item), 1));
                    0
                });
            },
            move |k: &ItemKey, vs: Vec<u64>, em: &mut Emitter<Itemset, u64>, _w| {
                let sum: u64 = vs.into_iter().sum();
                if sum >= min_sup {
                    em.emit(Itemset::single(k.0), sum);
                }
            },
        )
        .with_combiner(|a, b| a + b)
        .with_output(
            format!("{input}.L1"),
            Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")),
        );
        let result = self.runner.run(job)?;

        let mut l1: Vec<(Itemset, u64)> = result.pairs;
        l1.sort_by(|a, b| a.0.cmp(&b.0));
        passes.push(metrics.record_pass(1..=1, "items", pass1_start, l1.len(), l1.len()));

        if l1.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes,
            });
        }

        // ---- passes ≥ 2 ----
        let mut levels: Vec<Vec<(Itemset, u64)>> = vec![l1];
        let mut next_pass = 2usize;
        loop {
            if self.config.max_passes != 0 && next_pass > self.config.max_passes {
                break;
            }

            let pass_start = (metrics.now(), Instant::now());

            // Driver: generate the candidate levels this job will count.
            let seed: Vec<Itemset> = levels
                .last()
                .expect("levels never empty here")
                .iter()
                .map(|(s, _)| s.clone())
                .collect();
            let chain = match self.config.variant {
                MrVariant::Spc => Chain::Levels(1),
                MrVariant::Fpc { passes_per_job } => Chain::Levels(passes_per_job.max(1)),
                MrVariant::Dpc { max_candidates } => Chain::Candidates(max_candidates),
            };
            let max_passes = self.config.max_passes;
            let (level_candidates, gen_units) = job_candidates(&seed, next_pass, max_passes, chain);
            metrics.advance_with_event(
                cost.cpu(gen_units),
                EventKind::Driver,
                format!("ap_gen pass {next_pass}"),
            );
            if level_candidates.is_empty() {
                break;
            }
            let n_levels = level_candidates.len();
            let total_candidates: usize = level_candidates.iter().map(Vec::len).sum();

            let label = match n_levels {
                1 => format!("MR-Apriori pass {next_pass}"),
                n => format!("MR-Apriori passes {next_pass}-{}", next_pass + n - 1),
            };
            let job = counting_job(
                label,
                input,
                format!("{input}.L{next_pass}"),
                level_candidates,
                self.config.matching,
                min_sup,
            );
            let result = self.runner.run(job)?;

            // Split the job's output back into per-length levels.
            let mut new_levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); n_levels];
            for (set, c) in result.pairs {
                let slot = set.len() - next_pass;
                new_levels[slot].push((set, c));
            }
            let found: usize = new_levels.iter().map(Vec::len).sum();

            let matching = self.config.matching.name();
            let counted = next_pass..=next_pass + n_levels - 1;
            let timing =
                metrics.record_pass(counted, matching, pass_start, total_candidates, found);
            passes.push(timing);

            // Append levels until the first empty one; everything after an
            // empty level is unreachable by monotonicity.
            let full = new_levels.into_iter().take_while(|l| !l.is_empty());
            let before = levels.len();
            levels.extend(full.map(|mut level| {
                level.sort_by(|a, b| a.0.cmp(&b.0));
                level
            }));
            if levels.len() - before < n_levels {
                break;
            }
            next_pass += n_levels;
        }

        Ok(MinerRun {
            result: MiningResult::from_levels(levels),
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::apriori;
    use crate::types::Item;
    use yafim_cluster::{bucket_of, fx_hash64, ClusterSpec, CostModel};

    fn cluster() -> SimCluster {
        SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 4)
    }

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    fn put(cluster: &SimCluster, tx: &[Vec<Item>]) -> String {
        let lines: Vec<String> = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        cluster.hdfs().put_overwrite("mr-in.dat", lines);
        "mr-in.dat".to_string()
    }

    #[test]
    fn spc_matches_sequential() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c, MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        let seq = apriori(&toy(), Support::Count(2));
        assert_eq!(run.result, seq);
        assert_eq!(
            run.passes.len(),
            3,
            "pass 4 generates no candidates, so no job runs"
        );
    }

    #[test]
    fn each_pass_is_one_job_under_spc() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        assert_eq!(c.metrics().snapshot().jobs as usize, run.passes.len());
        // Each job pays the Hadoop fixed overhead.
        for p in &run.passes {
            assert!(p.seconds >= c.cost().mr_job_overhead, "pass {p:?}");
        }
    }

    #[test]
    fn intermediate_results_committed_to_hdfs() {
        let c = cluster();
        let path = put(&c, &toy());
        MrApriori::new(c.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        assert!(c.hdfs().exists("mr-in.dat.L1"));
        assert!(c.hdfs().exists("mr-in.dat.L2"));
        assert!(c.hdfs().exists("mr-in.dat.L3"));
    }

    #[test]
    fn fpc_matches_spc_results_with_fewer_jobs() {
        let c_spc = cluster();
        let c_fpc = cluster();
        let path_spc = put(&c_spc, &toy());
        let path_fpc = put(&c_fpc, &toy());

        let spc = MrApriori::new(c_spc.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path_spc)
            .unwrap();
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.variant = MrVariant::Fpc { passes_per_job: 3 };
        let fpc = MrApriori::new(c_fpc.clone(), cfg).mine(&path_fpc).unwrap();

        assert_eq!(spc.result, fpc.result);
        assert!(
            c_fpc.metrics().snapshot().jobs < c_spc.metrics().snapshot().jobs,
            "FPC must run fewer jobs"
        );
    }

    #[test]
    fn dpc_matches_spc_results() {
        let c = cluster();
        let path = put(&c, &toy());
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.variant = MrVariant::Dpc {
            max_candidates: 100,
        };
        let dpc = MrApriori::new(c, cfg).mine(&path).unwrap();
        let seq = apriori(&toy(), Support::Count(2));
        assert_eq!(dpc.result, seq);
    }

    #[test]
    fn max_passes_truncates() {
        let c = cluster();
        let path = put(&c, &toy());
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.max_passes = 2;
        let run = MrApriori::new(c, cfg).mine(&path).unwrap();
        assert_eq!(run.result.max_len(), 2);
    }

    #[test]
    fn nothing_frequent() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c, MrAprioriConfig::new(Support::Count(50)))
            .mine(&path)
            .unwrap();
        assert_eq!(run.result.total(), 0);
        assert_eq!(run.passes.len(), 1);
    }

    #[test]
    fn an_item_key_is_its_single_itemset() {
        let sample = (1..64).map(|i: Item| i.wrapping_mul(0x9e37_79b9)); // Fibonacci hashing
        let edges = [0, 1, 255, 256, 65_535, 65_536, Item::MAX];
        let items: Vec<Item> = edges.into_iter().chain(sample).collect();
        for &a in &items {
            let (key, set) = (ItemKey(a), Itemset::single(a));
            assert_eq!(fx_hash64(&key), fx_hash64(&set), "{a}");
            for n in [1, 3, 96] {
                assert_eq!(bucket_of(&key, n), bucket_of(&set, n), "{a} into {n}");
            }
            assert_eq!(key.byte_size(), set.byte_size());
            for &b in &items {
                assert_eq!(key.cmp(&ItemKey(b)), set.cmp(&Itemset::single(b)));
            }
        }
    }
}
