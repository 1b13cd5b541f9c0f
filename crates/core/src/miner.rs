//! Every miner in the repository behind one name: [`Miner`] is the list the
//! paper's correctness check ("all the experimental results of YAFIM are
//! exactly same as MRApriori") loops over, and [`MineError`] is the one way
//! any of them declines to answer.
//!
//! The engine types ([`Yafim`], [`MrApriori`], [`Son`], [`Pfp`]) and the free
//! functions ([`apriori`], [`eclat`], [`fp_growth`]) stay public for callers
//! that set what [`Miner::mine`] leaves at its default: a `max_passes`,
//! MR-Apriori's variant or matching, or an `RddConfig`.

use crate::eclat::eclat;
use crate::fpgrowth::fp_growth;
use crate::mrapriori::{MrApriori, MrAprioriConfig};
use crate::pfp::Pfp;
use crate::sequential::apriori;
use crate::son::Son;
use crate::types::{parse_transaction, MinerRun, MiningResult, Support};
use crate::yafim::{Phase2Plan, Yafim, YafimConfig};
use yafim_cluster::{DfsError, ExecError, SimCluster};
use yafim_data::Transaction;
use yafim_rdd::Context;

/// Why a mining run could not complete. Never a partial result: a miner
/// returns every frequent itemset or one of these.
#[derive(Debug)]
pub enum MineError {
    /// The engine failed: the input path is missing from simulated HDFS,
    /// or, under the active fault plan, a stage aborted, a corruption
    /// proved unrepairable, a task exhausted its OOM retry ladder, or
    /// admission control refused the job's memory footprint.
    Exec(ExecError),
    /// A counted level broke an Apriori invariant
    /// ([`audit_survivors`](crate::audit::audit_survivors)): the run was
    /// about to record wrong results and is refused instead.
    Audit {
        /// The pass whose level failed the audit.
        pass: usize,
        /// The first violated invariant, human-readable.
        violation: String,
    },
    /// An input split of this many bytes could hold more items (two bytes
    /// each at least) than the `u32` offsets of one cached YAFIM block
    /// address: refused before any job runs.
    SplitTooLarge(u64),
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MineError::Exec(e) => write!(f, "{e}"),
            MineError::Audit { pass, violation } => {
                write!(
                    f,
                    "mining-invariant audit failed after pass {pass}: {violation}"
                )
            }
            MineError::SplitTooLarge(bytes) => write!(
                f,
                "an input split of {bytes} bytes is more than one cached block addresses: \
                 mine it in more partitions"
            ),
        }
    }
}

impl std::error::Error for MineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MineError::Exec(e) => Some(e),
            MineError::Audit { .. } | MineError::SplitTooLarge(_) => None,
        }
    }
}

impl From<DfsError> for MineError {
    fn from(e: DfsError) -> Self {
        MineError::Exec(ExecError::Dfs(e))
    }
}

impl From<ExecError> for MineError {
    fn from(e: ExecError) -> Self {
        MineError::Exec(e)
    }
}

/// Which miner runs. On the same input and support every one of them
/// returns the same [`MiningResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miner {
    /// Single-node reference Apriori (Algorithm 1).
    Sequential,
    /// Single-node Eclat (vertical TID-lists).
    Eclat,
    /// Single-node FP-Growth.
    FpGrowth,
    /// YAFIM on the RDD engine, the paper's algorithm, under one of the
    /// three Phase-II plans.
    Spark(Phase2Plan),
    /// MR-Apriori (SPC) on the MapReduce engine, the paper's baseline.
    MapReduce,
    /// SON on the MapReduce engine: two jobs whatever the longest pattern.
    Son,
    /// Parallel FP-Growth on the RDD engine.
    Pfp,
}

impl Miner {
    /// Every miner, single-node first; `Spark` once per Phase-II plan,
    /// paper-faithful first.
    pub const ALL: [Miner; 9] = [
        Miner::Sequential,
        Miner::Eclat,
        Miner::FpGrowth,
        Miner::Spark(Phase2Plan::Paper),
        Miner::Spark(Phase2Plan::Projected),
        Miner::Spark(Phase2Plan::Bitmap),
        Miner::MapReduce,
        Miner::Son,
        Miner::Pfp,
    ];

    /// The miner's CLI name (`--miner <name>`); the Phase-II plan of
    /// `Spark` is spelled separately ([`Miner::plan`], `--phase2`).
    pub fn name(self) -> &'static str {
        match self {
            Miner::Sequential => "sequential",
            Miner::Eclat => "eclat",
            Miner::FpGrowth => "fpgrowth",
            Miner::Spark(_) => "spark",
            Miner::MapReduce => "mapreduce",
            Miner::Son => "son",
            Miner::Pfp => "pfp",
        }
    }

    /// The miner `--miner name --phase2 plan` spells, if any. Only `Spark`
    /// has a plan; whether to refuse one given next to another miner is the
    /// caller's call.
    pub fn parse(name: &str, plan: Phase2Plan) -> Option<Miner> {
        let spelled = |m: &Miner| m.name() == name && m.plan().is_none_or(|p| p == plan);
        Miner::ALL.into_iter().find(spelled)
    }

    /// The Phase-II plan, for the one miner that has one.
    pub fn plan(self) -> Option<Phase2Plan> {
        match self {
            Miner::Spark(plan) => Some(plan),
            _ => None,
        }
    }

    /// The miner itself when it is a single-node one, for a caller that
    /// already holds the transactions; `None` when it needs a cluster.
    pub fn in_memory(self) -> Option<fn(&[Transaction], Support) -> MiningResult> {
        match self {
            Miner::Sequential => Some(apriori),
            Miner::Eclat => Some(eclat),
            Miner::FpGrowth => Some(fp_growth),
            Miner::Spark(_) | Miner::MapReduce | Miner::Son | Miner::Pfp => None,
        }
    }

    /// Whether the miner runs on the simulated cluster and so reports
    /// virtual time, spans and a manifest.
    pub fn is_distributed(self) -> bool {
        self.in_memory().is_none()
    }

    /// Mine the text dataset at `input` (one whitespace-separated
    /// transaction per line) on `cluster`'s HDFS, with the engine's default
    /// configuration. A single-node miner reads the file and leaves the
    /// virtual clock alone: its run has no passes and takes no virtual time.
    pub fn mine(
        self,
        cluster: &SimCluster,
        input: &str,
        support: Support,
    ) -> Result<MinerRun, MineError> {
        let ctx = || Context::new(cluster.clone());
        match self {
            Miner::Spark(plan) => {
                Yafim::new(ctx(), YafimConfig::with_plan(support, plan)).mine(input)
            }
            Miner::MapReduce => {
                MrApriori::new(cluster.clone(), MrAprioriConfig::new(support)).mine(input)
            }
            Miner::Son => Son::new(cluster.clone(), support).mine(input),
            Miner::Pfp => Pfp::new(ctx(), support).mine(input),
            Miner::Sequential | Miner::Eclat | Miner::FpGrowth => {
                let file = cluster.hdfs().get(input)?;
                let transactions: Vec<Transaction> =
                    file.lines().iter().map(parse_transaction).collect();
                let mine = self.in_memory().expect("a single-node miner");
                Ok(MinerRun {
                    result: mine(&transactions, support),
                    ..MinerRun::default()
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_miner_round_trips_through_its_cli_spelling() {
        for m in Miner::ALL {
            // `--phase2` defaults to the paper's plan and only `Spark` reads it.
            let plan = m.plan().unwrap_or(Phase2Plan::Paper);
            let phase2 = Phase2Plan::parse(plan.name()).expect("a known plan");
            assert_eq!(Miner::parse(m.name(), phase2), Some(m));
        }
        assert_eq!(Miner::parse("turbo", Phase2Plan::Paper), None);
        assert_eq!(Miner::ALL.iter().filter(|m| m.is_distributed()).count(), 6);
    }

    #[test]
    fn every_miner_refuses_a_missing_input_the_same_way() {
        for m in Miner::ALL {
            let err = m.mine(&SimCluster::paper_cluster(), "nope.dat", Support::Count(1));
            let err = err.expect_err("no such file");
            let missing = DfsError::NotFound("nope.dat".to_string());
            assert!(
                matches!(&err, MineError::Exec(ExecError::Dfs(e)) if *e == missing),
                "{m:?}: {err}"
            );
        }
    }
}
