//! SON on MapReduce — the *one-phase* algorithm family of the paper's
//! related work (§III: "One-phase algorithms need only one phase (e.g., a
//! MapReduce job) to find all frequent k-itemsets"; PSON, Xiao et al. 2011).
//!
//! The Savasere–Omiecinski–Navathe scheme finds *all* frequent itemsets in
//! two jobs, independent of the longest pattern:
//!
//! 1. **Local mining job** — each mapper mines its input split completely
//!    (here with the in-memory Eclat miner) at the proportionally scaled
//!    support threshold, emitting its locally frequent itemsets as global
//!    *candidates*. Any globally frequent itemset must be locally frequent
//!    in at least one split, so the candidate set is complete.
//! 2. **Counting job** — exact global supports of all candidates are counted
//!    over the whole dataset and filtered by the true threshold.
//!
//! The related-work caveat the paper quotes — "the one-phase algorithm needs
//! to generate many redundant itemsets during processing, which may lead
//! \[to\] memory overflow and too much execution time for large data sets" —
//! is observable here: skewed splits at low support explode the local
//! mining step (see the `compare_miners` bench).

use crate::eclat::eclat;
use crate::miner::MineError;
use crate::mrapriori::{counting_job, MrMatching};
use crate::types::{
    parse_transaction, Itemset, MinerRun, MiningResult, Support, JVM_TREE_VISIT_UNITS,
};
use yafim_cluster::{FxHashSet, Lines, SimCluster};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};

/// The SON miner bound to one virtual cluster. Its local-mining job has one
/// split per HDFS block: smaller blocks mean more parallel local miners but
/// more redundant candidates.
pub struct Son {
    runner: MrRunner,
    min_support: Support,
}

impl Son {
    /// A miner over `cluster` at `min_support` (global).
    pub fn new(cluster: SimCluster, min_support: Support) -> Self {
        Son {
            runner: MrRunner::new(cluster),
            min_support,
        }
    }

    /// Mine the text dataset at `input` on simulated HDFS (two jobs total).
    pub fn mine(&self, input: &str) -> Result<MinerRun, MineError> {
        let cluster = self.runner.cluster().clone();
        let metrics = cluster.metrics().clone();
        let file = cluster.hdfs().get(input)?;
        let total_lines = file.num_lines() as u64;
        let min_sup = self.min_support.resolve(total_lines);

        let run_start = metrics.now();

        // ---- job 1: local mining per split ----
        let phase1_start = metrics.pass_start();
        let job1 = MapReduceJob::new_per_split(
            "SON phase 1 (local mining)",
            input,
            move |_off, lines: &Lines, em: &mut Emitter<Itemset, u64>, w| {
                let local: Vec<Vec<u32>> = lines.iter().map(parse_transaction).collect();
                // Scale the threshold to the split share, rounding *down* so
                // no globally frequent itemset can be missed.
                let local_sup =
                    ((min_sup as f64) * (local.len() as f64 / total_lines as f64)).floor() as u64;
                let result = eclat(&local, Support::Count(local_sup.max(1)));
                // Local mining cost: roughly one tid-list touch per support
                // unit of every mined itemset.
                let units: u64 = result.iter().map(|(_, sup)| *sup).sum();
                w.add_cpu(units * JVM_TREE_VISIT_UNITS);
                for (set, _) in result.iter() {
                    em.emit(set.clone(), 1);
                }
            },
            // Reducer: deduplicate candidates.
            |k: &Itemset, _vs, em: &mut Emitter<Itemset, u64>, _w| em.emit(k.clone(), 0),
        );
        let candidates: Vec<Itemset> = self
            .runner
            .run(job1)?
            .pairs
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let phase1 = metrics.record_pass(1..=1, "SON phase 1", phase1_start, candidates.len(), 0);

        if candidates.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes: vec![phase1],
            });
        }

        // ---- job 2: exact counting of all candidates at once ----
        let phase2_start = metrics.pass_start();
        let n_candidates = candidates.len();

        // One hash tree per candidate length.
        let max_len = candidates
            .iter()
            .map(Itemset::len)
            .max()
            .expect("non-empty");
        let mut by_len: Vec<Vec<Itemset>> = vec![Vec::new(); max_len];
        for c in candidates {
            by_len[c.len() - 1].push(c);
        }
        let job2 = counting_job(
            "SON phase 2 (global counting)".to_string(),
            input,
            format!("{input}.SON"),
            by_len.iter().filter(|l| !l.is_empty()).cloned().collect(),
            MrMatching::HashTree,
            min_sup,
        );
        let levels = read_back(self.runner.run(job2)?.pairs, &by_len)?;
        let found: usize = levels.iter().map(Vec::len).sum();
        let phase2 = metrics.record_pass(2..=2, "SON phase 2", phase2_start, n_candidates, found);

        Ok(MinerRun {
            result: MiningResult::from_levels(levels),
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes: vec![phase1, phase2],
        })
    }
}

/// The counting job's outputs `pairs` split by length, each checked
/// against the candidate union `by_len` (the `k`-sets at `by_len[k - 1]`):
/// an output that is no candidate, or one reported twice, is refused as an
/// audit of pass 2, the counting job.
fn read_back(
    pairs: Vec<(Itemset, u64)>,
    by_len: &[Vec<Itemset>],
) -> Result<Vec<Vec<(Itemset, u64)>>, MineError> {
    let mut unseen: FxHashSet<&Itemset> = by_len.iter().flatten().collect();
    let mut levels = vec![Vec::new(); by_len.len()];
    for (set, support) in pairs {
        if !unseen.remove(&set) {
            let violation = format!("{set} is no candidate of the job or counted twice");
            return Err(MineError::Audit { pass: 2, violation });
        }
        levels[set.len() - 1].push((set, support));
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::apriori;
    use yafim_cluster::{ClusterSpec, CostModel};

    fn cluster() -> SimCluster {
        SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
    }

    fn put(cluster: &SimCluster, tx: &[Vec<u32>]) -> String {
        let lines: Vec<String> = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        cluster.hdfs().put_overwrite("son-in.dat", lines);
        "son-in.dat".to_string()
    }

    fn toy() -> Vec<Vec<u32>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn son_matches_sequential_single_split() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = Son::new(c, Support::Count(2)).mine(&path).unwrap();
        let seq = apriori(&toy(), Support::Count(2));
        assert_eq!(run.result, seq);
    }

    #[test]
    fn son_matches_sequential_many_splits() {
        // Repeat the toy data and force tiny splits: local thresholds kick
        // in and the candidate set becomes a strict superset, but the final
        // result must still be exact.
        let tx: Vec<Vec<u32>> = toy().into_iter().cycle().take(40).collect();
        let c = cluster();
        c.hdfs().set_block_size(32); // a handful of lines per split
        let path = put(&c, &tx);
        let run = Son::new(c, Support::Fraction(0.5)).mine(&path).unwrap();
        let seq = apriori(&tx, Support::Fraction(0.5));
        assert_eq!(run.result, seq);
        assert!(
            run.passes[0].candidates >= seq.total(),
            "local mining must produce a candidate superset"
        );
    }

    #[test]
    fn exactly_two_jobs() {
        let c = cluster();
        let path = put(&c, &toy());
        Son::new(c.clone(), Support::Count(2)).mine(&path).unwrap();
        assert_eq!(c.metrics().snapshot().jobs, 2, "SON is a two-job scheme");
    }

    #[test]
    fn a_forged_or_repeated_output_is_refused() {
        let set = |items: &[u32]| Itemset::from_sorted(items.to_vec());
        let by_len = vec![vec![set(&[1]), set(&[2])], vec![set(&[1, 2])]];
        let good = vec![(set(&[1, 2]), 3), (set(&[2]), 4)];
        let levels = read_back(good, &by_len).expect("every output a candidate, once");
        assert_eq!(levels, vec![vec![(set(&[2]), 4)], vec![(set(&[1, 2]), 3)]]);
        for forged in [
            vec![(set(&[1, 3]), 3)],
            vec![(set(&[1, 2, 3]), 3)],
            vec![(set(&[1]), 2), (set(&[1]), 2)],
        ] {
            let err = read_back(forged, &by_len).expect_err("refused");
            assert!(matches!(err, MineError::Audit { pass: 2, .. }), "{err}");
        }
    }

    #[test]
    fn nothing_frequent() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = Son::new(c, Support::Count(50)).mine(&path).unwrap();
        assert_eq!(run.result.total(), 0);
    }
}
