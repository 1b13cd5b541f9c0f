//! The paper's correctness check, generalized: every miner in the
//! repository ([`Miner::ALL`]: sequential Apriori, Eclat, FP-Growth, YAFIM
//! under each Phase-II plan, MR-Apriori, SON, PFP) must produce *identical*
//! frequent itemsets on the same input and support.
//!
//! Datasets are scaled-down versions of the paper's Table I profiles, so
//! all five generator families and both engines are exercised; the
//! adversarial shapes at the end are the ones a generator never draws.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::encode::DIRECT_MAX_ITEMS;
use yafim_core::{apriori, Miner, MiningResult, MrApriori, MrAprioriConfig, MrVariant, Support};
use yafim_data::{to_lines, PaperDataset};

fn cluster(threads: usize) -> SimCluster {
    SimCluster::with_threads(
        ClusterSpec::new(4, 2, 1 << 30),
        CostModel::hadoop_era(),
        threads,
    )
}

fn mine(miner: Miner, transactions: &[Vec<u32>], support: Support, threads: usize) -> MiningResult {
    let c = cluster(threads);
    c.hdfs().put_overwrite("in.dat", to_lines(transactions));
    let run = miner.mine(&c, "in.dat", support);
    run.unwrap_or_else(|e| panic!("{miner:?} refused a clean run: {e}"))
        .result
}

fn check_all_miners(name: &str, transactions: &[Vec<u32>], support: Support) {
    let reference = mine(Miner::Sequential, transactions, support, 2);
    for miner in Miner::ALL {
        let got = mine(miner, transactions, support, 2);
        assert_eq!(reference, got, "{name}: {miner:?} diverges");
    }
}

#[test]
fn mushroom_profile_all_miners_agree() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.02);
    check_all_miners("mushroom", &tx, Support::Fraction(0.35));
}

#[test]
fn chess_profile_all_miners_agree() {
    let tx = PaperDataset::Chess.generate_scaled(0.05);
    check_all_miners("chess", &tx, Support::Fraction(0.85));
}

#[test]
fn quest_profile_all_miners_agree() {
    let tx = PaperDataset::T10I4D100K.generate_scaled(0.01);
    // 1000 transactions at 1% support keeps the candidate space small.
    check_all_miners("t10i4", &tx, Support::Fraction(0.01));
}

#[test]
fn pumsb_profile_all_miners_agree() {
    let tx = PaperDataset::PumsbStar.generate_scaled(0.01);
    check_all_miners("pumsb_star", &tx, Support::Fraction(0.65));
}

#[test]
fn medical_profile_all_miners_agree() {
    let tx = PaperDataset::Medical.generate_scaled(0.02);
    check_all_miners("medical", &tx, Support::Fraction(0.03));
}

#[test]
fn mr_variants_agree_on_medical() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let reference = apriori(&tx, Support::Fraction(0.05));

    for variant in [
        MrVariant::Spc,
        MrVariant::Fpc { passes_per_job: 2 },
        MrVariant::Dpc {
            max_candidates: 500,
        },
    ] {
        let c = cluster(2);
        c.hdfs().put_overwrite("in.dat", to_lines(&tx));
        let mut cfg = MrAprioriConfig::new(Support::Fraction(0.05));
        cfg.variant = variant;
        let run = MrApriori::new(c, cfg).mine("in.dat").expect("input exists");
        assert_eq!(reference, run.result, "variant {variant:?} diverges");
    }
}

#[test]
fn replication_preserves_results_and_scales_supports() {
    // The sizeup methodology (Fig. 4) relies on this invariant.
    let tx = PaperDataset::Mushroom.generate_scaled(0.01);
    let tripled = yafim_data::replicate(&tx, 3);
    let a = apriori(&tx, Support::Fraction(0.35));
    let b = apriori(&tripled, Support::Fraction(0.35));
    assert_eq!(a.level_sizes(), b.level_sizes());
    for (set, sup) in a.iter() {
        assert_eq!(b.support_of(set), Some(sup * 3), "{set}");
    }
}

/// One adversarial input: what it is called, the transactions, the
/// threshold, and the frequent itemsets per level it must give.
struct Shape<'a> {
    name: &'a str,
    transactions: &'a [Vec<u32>],
    support: Support,
    levels: &'a [usize],
}

/// The shapes no generator draws, at 1, 2 and 8 pool threads: every miner
/// against sequential Apriori, and sequential Apriori against what the
/// shape must give.
#[test]
fn adversarial_shapes_all_miners_agree_at_1_2_and_8_pool_threads() {
    let identical = vec![vec![3, 5, 9]; 40];
    let tiny = vec![vec![1, 2], vec![2, 3], vec![1, 2, 3], vec![4]];
    let disjoint: Vec<Vec<u32>> = (0..30).map(|i| vec![2 * i, 2 * i + 1]).collect();
    // Ids on both sides of where `DenseEncoder` stops indexing by item.
    let edge = DIRECT_MAX_ITEMS as u32;
    let below = [
        vec![0, edge - 1, edge],
        vec![0, edge - 1, edge + 1],
        vec![0, edge - 1, u32::MAX],
        vec![0, edge - 1],
    ];
    let at = [vec![0, edge], vec![0, edge], vec![0, edge, edge + 1]];
    let mut across = vec![vec![0, edge - 1, edge, edge + 1, u32::MAX]; 3];
    across.push(vec![0, u32::MAX]);
    let shape = |name, transactions, support, levels| Shape {
        name,
        transactions,
        support,
        levels,
    };
    let shapes = [
        shape(
            "one transaction",
            &identical[..1],
            Support::Count(1),
            &[3, 3, 1],
        ),
        shape(
            "all identical",
            &identical,
            Support::Fraction(1.0),
            &[3, 3, 1],
        ),
        shape("minsup = 1", &tiny, Support::Count(1), &[4, 3, 1]),
        shape("minsup = |D|", &tiny, Support::Count(4), &[]),
        shape(
            "minsup = |D|, one item in all",
            &tiny[..3],
            Support::Count(3),
            &[1],
        ),
        shape("empty L1", &disjoint, Support::Count(2), &[]),
        shape(
            "largest frequent id = the constant - 1",
            &below,
            Support::Count(3),
            &[2, 1],
        ),
        shape(
            "largest frequent id = the constant",
            &at,
            Support::Count(2),
            &[2, 1],
        ),
        shape(
            "ids across the constant",
            &across,
            Support::Count(3),
            &[5, 10, 10, 5, 1],
        ),
    ];
    for s in shapes {
        let reference = mine(Miner::Sequential, s.transactions, s.support, 1);
        assert_eq!(reference.level_sizes(), s.levels, "{}", s.name);
        for threads in [1, 2, 8] {
            for miner in Miner::ALL {
                let got = mine(miner, s.transactions, s.support, threads);
                assert_eq!(reference, got, "{}: {miner:?} at {threads} threads", s.name);
            }
        }
    }
}
