//! The four workloads, and how `--seed` turns into an input file.

use yafim::data::rng::StdRng;
use yafim::data::{PaperDataset, Transaction};
use yafim::Support;

/// Which engine and Phase-II strategy the CLI is asked for; the traced run
/// replays the same plan in-process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `--phase2 bitmap`: dense projection, triangular pass 2, TID bitmaps.
    SparkBitmap,
    /// `--phase2 paper` (the default): broadcast hash tree on every pass.
    SparkPaper,
    /// `--miner mapreduce`: one Hadoop-style job per pass, hash tree.
    MapReduce,
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: PaperDataset,
    /// Support in percent, as passed to `--support`.
    pub support_pct: f64,
    pub plan: Plan,
    /// Why this workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "t10_bitmap",
        dataset: PaperDataset::T10I4D100K,
        support_pct: 0.25,
        plan: Plan::SparkBitmap,
        why: "sparse, deep (10 passes) and wide (305k pair cells): counting kernels, reduce_by_key and ap_gen dominate, I/O is ~11%",
    },
    Workload {
        name: "pumsb_bitmap",
        dataset: PaperDataset::PumsbStar,
        support_pct: 65.0,
        plan: Plan::SparkBitmap,
        why: "same plan, dense and shallow (4 levels): read_dat/to_lines and the pass-1 text parse dominate, counting kernels should not show",
    },
    Workload {
        name: "mushroom_paper",
        dataset: PaperDataset::Mushroom,
        support_pct: 35.0,
        plan: Plan::SparkPaper,
        why: "the paper's own algorithm: hash-tree build, broadcast and match on k>=3 dominate; bitmap, trie and I/O changes must not move it",
    },
    Workload {
        name: "mushroom_mr",
        dataset: PaperDataset::Mushroom,
        support_pct: 35.0,
        plan: Plan::MapReduce,
        why: "the MapReduce baseline on the same file: catches a Spark-path gain paid for by the MR path and gives the paper's headline ratio",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn support(&self) -> Support {
        Support::percent(self.support_pct)
    }

    /// The arguments after `mine --input FILE`.
    pub fn cli_tail(&self) -> Vec<String> {
        let mut tail = vec!["--support".to_string(), format!("{}%", self.support_pct)];
        let extra: &[&str] = match self.plan {
            Plan::SparkBitmap => &["--phase2", "bitmap"],
            Plan::SparkPaper => &["--phase2", "paper"],
            Plan::MapReduce => &["--miner", "mapreduce"],
        };
        tail.extend(extra.iter().map(|s| s.to_string()));
        tail
    }

    /// The name the CLI prints in front of its summary line.
    pub fn miner_label(&self) -> &'static str {
        match self.plan {
            Plan::MapReduce => "mapreduce",
            Plan::SparkBitmap | Plan::SparkPaper => "spark",
        }
    }

    /// The workload's transactions for `seed`.
    ///
    /// Seed 0 is the `PaperDataset` profile exactly as `yafim-cli generate`
    /// writes it. Any other seed shuffles the transaction order: a different
    /// file, other partitions, the same multiset of transactions, so the
    /// work (file size, itemsets per level, candidates) does not depend on
    /// the seed. Both richer perturbations were tried and measured, and both
    /// change the work. Re-seeding the generators redraws the pattern pool
    /// and the per-attribute probabilities, which moves the itemset count by
    /// integer factors. Renaming the items (even among ids of equal width)
    /// reshapes the hash tree: on MushRoom the paper plan then takes 16–18 %
    /// longer than on the profile's own ids, and 0.36 to 0.45 s from one
    /// renaming to the next. No bound on run time could be told apart from
    /// the choice of seed on such inputs.
    pub fn transactions(&self, seed: u64) -> Vec<Transaction> {
        let mut tx = self.dataset.generate();
        if seed != 0 {
            shuffle(&mut tx, &mut StdRng::seed_from_u64(seed));
        }
        tx
    }
}

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim::data::{to_lines, write_dat};

    fn mushroom() -> &'static Workload {
        Workload::by_name("mushroom_paper").unwrap()
    }

    #[test]
    fn seed_zero_is_what_the_cli_generates_byte_for_byte() {
        // `yafim-cli generate` is `write_dat(out, dataset.generate_scaled(1.0))`.
        let dir = std::env::temp_dir().join(format!("yafim-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ours, cli) = (dir.join("ours.dat"), dir.join("cli.dat"));
        write_dat(&ours, &mushroom().transactions(0)).unwrap();
        write_dat(&cli, &PaperDataset::Mushroom.generate_scaled(1.0)).unwrap();
        assert_eq!(std::fs::read(&ours).unwrap(), std::fs::read(&cli).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_seeds_keep_the_shape_and_change_the_file() {
        let base = mushroom().transactions(0);
        let a = mushroom().transactions(7);
        assert_eq!(a, mushroom().transactions(7), "same seed, same input");
        assert_ne!(a, base);
        assert_ne!(a, mushroom().transactions(8));
        assert_eq!(a.len(), base.len());
        let bytes = |tx: &[Transaction]| to_lines(tx).iter().map(|l| l.len() + 1).sum::<usize>();
        assert_eq!(bytes(&a), bytes(&base));
        // The same transactions in another order, so the same answer.
        let sorted = |tx: &[Transaction]| {
            let mut tx = tx.to_vec();
            tx.sort();
            tx
        };
        assert_eq!(sorted(&a), sorted(&base));
    }

    #[test]
    fn cli_tails_match_the_issue_table() {
        let tails: Vec<String> = WORKLOADS.iter().map(|w| w.cli_tail().join(" ")).collect();
        assert_eq!(
            tails,
            [
                "--support 0.25% --phase2 bitmap",
                "--support 65% --phase2 bitmap",
                "--support 35% --phase2 paper",
                "--support 35% --miner mapreduce",
            ]
        );
    }
}
