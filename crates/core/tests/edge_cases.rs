//! Edge-case matrix across the miners: degenerate databases, extreme
//! thresholds, and pathological transaction shapes. Every miner must handle
//! all of them and agree.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::{
    apriori, eclat, fp_growth, generate_rules, mine_in_memory, Itemset, MiningResult, Support,
    YafimConfig,
};
use yafim_rdd::Context;

fn all_single_node(tx: &[Vec<u32>], support: Support) -> Vec<(&'static str, MiningResult)> {
    vec![
        ("apriori", apriori(tx, support)),
        ("eclat", eclat(tx, support)),
        ("fp_growth", fp_growth(tx, support)),
    ]
}

fn assert_all_agree(tx: &[Vec<u32>], support: Support) -> MiningResult {
    let results = all_single_node(tx, support);
    for (name, r) in &results[1..] {
        assert_eq!(&results[0].1, r, "{name} diverges");
    }
    let ctx = Context::new(SimCluster::with_threads(
        ClusterSpec::new(2, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ));
    let y = mine_in_memory(&ctx, tx, YafimConfig::new(support));
    assert_eq!(results[0].1, y.result, "yafim diverges");
    results.into_iter().next().expect("non-empty").1
}

#[test]
fn single_transaction_database() {
    let r = assert_all_agree(&[vec![1, 2, 3]], Support::Count(1));
    assert_eq!(r.total(), 7, "all non-empty subsets");
    assert_eq!(r.max_len(), 3);
}

#[test]
fn single_item_transactions() {
    let tx: Vec<Vec<u32>> = (0..10).map(|i| vec![i % 3]).collect();
    let r = assert_all_agree(&tx, Support::Count(3));
    assert_eq!(r.max_len(), 1);
    assert_eq!(r.level(1).len(), 3);
}

#[test]
fn identical_transactions() {
    let tx = vec![vec![5, 10, 15]; 20];
    let r = assert_all_agree(&tx, Support::Count(20));
    assert_eq!(r.total(), 7);
    for (_, sup) in r.iter() {
        assert_eq!(*sup, 20);
    }
}

#[test]
fn disjoint_transactions_have_no_pairs() {
    let tx: Vec<Vec<u32>> = (0u32..8).map(|i| vec![2 * i, 2 * i + 1]).collect();
    let r = assert_all_agree(&tx, Support::Count(2));
    assert_eq!(r.total(), 0, "every item unique to one transaction");
}

#[test]
fn support_one_finds_everything_present() {
    let tx = vec![vec![1, 2], vec![3]];
    let r = assert_all_agree(&tx, Support::Count(1));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 2])), Some(1));
    assert_eq!(r.support_of(&Itemset::single(3)), Some(1));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 3])), None);
}

#[test]
fn full_support_fraction() {
    let tx = vec![vec![1, 2], vec![1, 2], vec![1, 2, 3]];
    let r = assert_all_agree(&tx, Support::Fraction(1.0));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 2])), Some(3));
    assert_eq!(r.support_of(&Itemset::single(3)), None);
}

#[test]
fn large_item_ids() {
    let tx = vec![vec![u32::MAX - 1, u32::MAX], vec![u32::MAX - 1, u32::MAX]];
    let r = assert_all_agree(&tx, Support::Count(2));
    assert_eq!(
        r.support_of(&Itemset::new(vec![u32::MAX - 1, u32::MAX])),
        Some(2)
    );
}

#[test]
fn huge_item_ids_through_split_hash_trees() {
    // Nine ids spread up to `u32::MAX`: C2 (36 pairs) and C3 (84 triples)
    // overflow one leaf, so the hash tree splits and descends on ids no
    // array could be indexed by. A structure sized by the largest id would
    // not survive this test; the counts say the matches are right.
    let mut ids: Vec<u32> = (1..9u32).map(|i| u32::MAX / 9 * i + i % 2).collect();
    ids.push(u32::MAX);
    let mut tx = vec![ids.clone(); 4];
    tx.extend((0..9).map(|skip| {
        let mut t = ids.clone();
        t.remove(skip);
        t
    }));
    tx.push(vec![0, 1, u32::MAX - 1]);
    let r = assert_all_agree(&tx, Support::Count(4));
    assert_eq!(r.max_len(), 9);
    assert_eq!(r.support_of(&Itemset::new(ids.clone())), Some(4));
    assert_eq!(r.support_of(&Itemset::new(ids[..8].to_vec())), Some(5));
    assert_eq!(
        r.support_of(&Itemset::new(vec![ids[0], u32::MAX])),
        Some(11)
    );
    assert_eq!(r.support_of(&Itemset::single(u32::MAX - 1)), None);
}

#[test]
fn wide_transaction_deep_levels() {
    // One 12-item transaction repeated: levels up to 12 — exercises deep
    // candidate generation and tree descent.
    let t: Vec<u32> = (0..12).collect();
    let tx = vec![t; 3];
    let r = assert_all_agree(&tx, Support::Count(3));
    assert_eq!(r.max_len(), 12);
    assert_eq!(r.total(), (1usize << 12) - 1);
}

#[test]
fn rules_on_degenerate_results() {
    // No itemsets → no rules; single-level results → no rules.
    let empty = MiningResult::default();
    assert!(generate_rules(&empty, 10, 0.5).is_empty());

    let tx: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
    let singles = apriori(&tx, Support::Count(1));
    assert!(generate_rules(&singles, 4, 0.0).is_empty());
}

#[test]
fn unparseable_lines_are_skipped_gracefully() {
    let ctx = Context::new(SimCluster::with_threads(
        ClusterSpec::new(2, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ));
    ctx.cluster().hdfs().put_overwrite(
        "noisy.dat",
        vec![
            "1 2 3".to_string(),
            "not a transaction".to_string(),
            "".to_string(),
            "2 3".to_string(),
        ],
    );
    let run = yafim_core::Yafim::new(ctx, YafimConfig::new(Support::Count(2)))
        .mine("noisy.dat")
        .expect("written");
    // Two parseable transactions share {2,3}; noise lines contribute nothing.
    assert_eq!(run.result.support_of(&Itemset::new(vec![2, 3])), Some(2));
}
