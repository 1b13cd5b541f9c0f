//! PFP — Parallel FP-Growth on the RDD engine (Li et al. 2008; the scheme
//! behind Spark MLlib's `FPGrowth`).
//!
//! The paper's related work contrasts Apriori-based miners with FP-Growth
//! ("mining frequent patterns without candidate generation", ref \[9\]); PFP
//! is its standard parallelization and serves here as the extension miner
//! showing that the `yafim-rdd` engine carries algorithms beyond YAFIM:
//!
//! 1. count item frequencies (one `reduceByKey` job), keep the frequent
//!    items, and rank them by descending frequency;
//! 2. partition the frequent items into `G` groups (`group = rank mod G`);
//! 3. re-express every transaction as *group-dependent shards*: for each
//!    group present in the (rank-sorted) transaction, ship the prefix ending
//!    at that group's last item — `groupByKey` gathers each group's shard;
//! 4. run local in-memory FP-Growth per group, keeping only patterns whose
//!    least-frequent item belongs to the group (each pattern is thus
//!    produced by exactly one group, with its exact global support);
//! 5. collect.
//!
//! Identical results to every Apriori-family miner in this crate, via a
//! completely different parallel decomposition — the strongest correctness
//! oracle in the cross-miner test suite.

use crate::fpgrowth::fp_growth;
use crate::miner::MineError;
use crate::types::{
    parse_transaction, Item, Itemset, MinerRun, MiningResult, Support, JVM_TREE_VISIT_UNITS,
};
use yafim_cluster::FxHashMap;
use yafim_rdd::{Context, Rdd};

/// The PFP miner bound to one driver [`Context`]. The transactions RDD has
/// the context's default parallelism in partitions, and the frequent items
/// fall into as many groups, capped by their count.
pub struct Pfp {
    ctx: Context,
    min_support: Support,
}

impl Pfp {
    /// A miner over `ctx` at `min_support`.
    pub fn new(ctx: Context, min_support: Support) -> Self {
        Pfp { ctx, min_support }
    }

    /// Mine the text dataset at `input` on simulated HDFS.
    pub fn mine(&self, input: &str) -> Result<MinerRun, MineError> {
        let ctx = &self.ctx;
        let file = ctx.cluster().hdfs().get(input)?;
        let min_sup = self.min_support.resolve(file.num_lines() as u64);

        let transactions: Rdd<Vec<Item>> = ctx
            .text_file(input, ctx.config().default_parallelism)?
            .map(|line| parse_transaction(&line))
            .cache();
        // A typed refusal releases the cached input as a finished run does.
        let run = self.mine_cached(&transactions, min_sup);
        transactions.unpersist();
        run
    }

    /// Steps 1 to 5 over the (lazily) cached, parsed input.
    fn mine_cached(
        &self,
        transactions: &Rdd<Vec<Item>>,
        min_sup: u64,
    ) -> Result<MinerRun, MineError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let run_start = metrics.now();

        // ---- step 1: frequent items and ranking ----
        let count_start = metrics.pass_start();
        let mut counts: Vec<(Item, u64)> = transactions
            .flat_map(|t| t)
            .map(|i| (i, 1u64))
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let ranking: Vec<(Item, u32)> = counts
            .iter()
            .enumerate()
            .map(|(rank, &(item, _))| (item, rank as u32))
            .collect();
        let ranked = ranking.len();
        let count_pass = metrics.record_pass(1..=1, "PFP count", count_start, ranked, ranked);

        if ranking.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes: vec![count_pass],
            });
        }

        let groups = ctx.config().default_parallelism.min(ranking.len()).max(1) as u32;

        // ---- step 2+3: group-dependent shards ----
        let mine_start = metrics.pass_start();
        let bc = ctx.broadcast(ranking);
        let rank_for_shards = bc.value();
        let shards: Rdd<(u32, Vec<Item>)> = transactions.map_partitions(move |txs, tc| {
            let rank: FxHashMap<Item, u32> = rank_for_shards.iter().copied().collect();
            let mut out = Vec::new();
            let mut work = 0u64;
            for t in txs {
                let mut sorted: Vec<Item> =
                    t.iter().copied().filter(|i| rank.contains_key(i)).collect();
                sorted.sort_by_key(|i| rank[i]);
                work += sorted.len() as u64;
                let mut emitted = yafim_cluster::FxHashSet::default();
                for i in (0..sorted.len()).rev() {
                    let g = rank[&sorted[i]] % groups;
                    if emitted.insert(g) {
                        out.push((g, sorted[..=i].to_vec()));
                    }
                }
            }
            tc.add_cpu(work * 2);
            out
        });

        // ---- step 4: per-group local FP-Growth ----
        let rank_for_mining = bc.value();
        let mined: Rdd<(Itemset, u64)> =
            shards.group_by_key().map_partitions(move |entries, tc| {
                let rank: FxHashMap<Item, u32> = rank_for_mining.iter().copied().collect();
                let mut out = Vec::new();
                for (g, shard) in entries {
                    let local = fp_growth(shard, Support::Count(min_sup));
                    // FP-tree construction + mining effort estimate.
                    let volume: u64 = shard.iter().map(|t| t.len() as u64).sum();
                    tc.add_cpu((volume + local.total() as u64) * JVM_TREE_VISIT_UNITS);
                    for (set, sup) in local.iter() {
                        let bottom = set
                            .items()
                            .iter()
                            .map(|i| rank[i])
                            .max()
                            .expect("itemsets are non-empty");
                        if bottom % groups == *g {
                            out.push((set.clone(), *sup));
                        }
                    }
                }
                out
            });

        let all = mined.try_collect()?;

        let max_len = all.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        let mut levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); max_len];
        for (set, sup) in all {
            levels[set.len() - 1].push((set, sup));
        }
        let result = MiningResult::from_levels(levels);
        let found = result.total();
        let mine_pass = metrics.record_pass(2..=2, "PFP mine", mine_start, found, found);

        Ok(MinerRun {
            result,
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes: vec![count_pass, mine_pass],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::apriori;
    use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
    use yafim_rdd::{Context, RddConfig};

    fn ctx() -> Context {
        Context::new(SimCluster::with_threads(
            ClusterSpec::new(4, 2, 1 << 30),
            CostModel::hadoop_era(),
            2,
        ))
    }

    fn put(ctx: &Context, tx: &[Vec<u32>]) -> String {
        let lines: Vec<String> = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        ctx.cluster().hdfs().put_overwrite("pfp-in.dat", lines);
        "pfp-in.dat".to_string()
    }

    fn toy() -> Vec<Vec<u32>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn pfp_matches_sequential_on_toy() {
        let c = ctx();
        let path = put(&c, &toy());
        let run = Pfp::new(c, Support::Count(2)).mine(&path).unwrap();
        let seq = apriori(&toy(), Support::Count(2));
        assert_eq!(run.result, seq);
    }

    #[test]
    fn pfp_group_count_does_not_change_results() {
        let tx: Vec<Vec<u32>> = toy().into_iter().cycle().take(60).collect();
        let seq = apriori(&tx, Support::Fraction(0.4));
        for groups in [1usize, 2, 3, 7] {
            let cluster = ctx().cluster().clone();
            let config = RddConfig {
                default_parallelism: groups,
                ..RddConfig::for_cluster(&cluster)
            };
            let c = Context::with_config(cluster, config);
            let path = put(&c, &tx);
            let run = Pfp::new(c, Support::Fraction(0.4)).mine(&path).unwrap();
            assert_eq!(run.result, seq, "groups = {groups}");
        }
    }

    #[test]
    fn nothing_frequent() {
        let c = ctx();
        let path = put(&c, &toy());
        let run = Pfp::new(c, Support::Count(50)).mine(&path).unwrap();
        assert_eq!(run.result.total(), 0);
    }

    #[test]
    fn a_typed_refusal_releases_the_cached_input() {
        let c = ctx();
        let path = put(&c, &toy());
        let plan = yafim_cluster::FaultPlan::seeded(5).crash_tasks(1.0);
        c.cluster().faults().set_plan(plan);
        let err = Pfp::new(c.clone(), Support::Count(2))
            .mine(&path)
            .expect_err("every attempt crashes");
        assert!(matches!(err, MineError::Exec(_)), "{err}");
        assert_eq!(c.cache().stats().entries, 0, "cached partitions");
    }
}
