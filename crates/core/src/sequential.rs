//! Single-node reference Apriori (the paper's Algorithm 1).
//!
//! This is the ground truth every parallel miner is checked against, and the
//! sequential baseline for speedup measurements. It uses the same hash tree
//! and candidate generation as YAFIM, but runs in one thread with no engine
//! underneath.

use crate::candidates::ap_gen;
use crate::hashtree::{HashTree, MatchScratch};
use crate::types::{Item, Itemset, MiningResult, Support};
use yafim_cluster::FxHashMap;

/// Mine all frequent itemsets of `transactions`. Each row is sorted and
/// duplicate-free, as `parse_transaction` and every generator emit it: the
/// counting kernels add a row's pairs, and a repeated item would count
/// twice.
///
/// ```
/// use yafim_core::{apriori, Itemset, Support};
///
/// let tx = vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]];
/// let result = apriori(&tx, Support::Count(2));
/// assert_eq!(result.level_sizes(), vec![4, 4, 1]);
/// assert_eq!(result.support_of(&Itemset::new(vec![2, 3, 5])), Some(2));
/// ```
pub fn apriori(transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
    debug_assert!(
        transactions
            .iter()
            .all(|t| t.windows(2).all(|w| w[0] < w[1])),
        "rows must be sorted and duplicate-free"
    );
    let min_sup = min_support.resolve(transactions.len() as u64);
    let mut levels: Vec<Vec<(Itemset, u64)>> = Vec::new();

    // Pass 1: frequent items by direct counting.
    let mut counts: FxHashMap<Item, u64> = FxHashMap::default();
    for t in transactions {
        for &item in t {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut l1: Vec<(Itemset, u64)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_sup)
        .map(|(i, c)| (Itemset::single(i), c))
        .collect();
    l1.sort_by(|a, b| a.0.cmp(&b.0));
    if l1.is_empty() {
        return MiningResult::default();
    }
    levels.push(l1);

    // Passes k ≥ 2: generate candidates (ascending), count with the hash
    // tree, filter.
    loop {
        let prev: Vec<Itemset> = levels
            .last()
            .expect("at least L1 exists")
            .iter()
            .map(|(s, _)| s.clone())
            .collect();
        let (candidates, _work) = ap_gen(&prev);
        if candidates.is_empty() {
            break;
        }

        let tree = HashTree::build(candidates);
        let mut counts = vec![0u64; tree.len()];
        let rows = transactions.iter().map(Vec::as_slice);
        tree.count_rows(rows, &mut MatchScratch::default(), &mut counts);

        let lk: Vec<(Itemset, u64)> = tree
            .candidates()
            .iter()
            .zip(&counts)
            .filter(|&(_, &c)| c >= min_sup)
            .map(|(s, &c)| (s.clone(), c))
            .collect();
        if lk.is_empty() {
            break;
        }
        levels.push(lk);
    }

    MiningResult::from_levels(levels)
}

/// Exhaustive miner for tests: count *every* subset of every transaction up
/// to length `max_len`. Exponential; only usable on tiny inputs, but
/// obviously correct.
pub fn brute_force(
    transactions: &[Vec<Item>],
    min_support: Support,
    max_len: usize,
) -> MiningResult {
    let min_sup = min_support.resolve(transactions.len() as u64);
    let mut counts: FxHashMap<Itemset, u64> = FxHashMap::default();
    for t in transactions {
        let n = t.len();
        // All non-empty subsets up to max_len via bitmask (n ≤ ~20).
        assert!(n <= 20, "brute_force is for tiny transactions only");
        for mask in 1u32..(1 << n) {
            if (mask.count_ones() as usize) > max_len {
                continue;
            }
            let items: Vec<Item> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| t[i])
                .collect();
            *counts.entry(Itemset::from_sorted(items)).or_insert(0) += 1;
        }
    }
    let mut levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); max_len];
    for (set, c) in counts {
        if c >= min_sup {
            levels[set.len() - 1].push((set, c));
        }
    }
    MiningResult::from_levels(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example found in most Apriori texts.
    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn toy_dataset_known_answer() {
        let r = apriori(&toy(), Support::Count(2));
        assert_eq!(r.level_sizes(), vec![4, 4, 1]);
        assert_eq!(r.support_of(&Itemset::new(vec![2, 3, 5])), Some(2));
        assert_eq!(r.support_of(&Itemset::new(vec![1, 3])), Some(2));
        assert_eq!(r.support_of(&Itemset::new(vec![4])), None, "support 1 < 2");
    }

    #[test]
    fn agrees_with_brute_force() {
        let tx = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![1, 3, 4],
            vec![2, 3, 4, 5],
            vec![1, 2, 3, 4],
            vec![2, 5],
            vec![1, 2],
        ];
        for sup in [2u64, 3, 4] {
            let a = apriori(&tx, Support::Count(sup));
            let b = brute_force(&tx, Support::Count(sup), 6);
            assert_eq!(a, b, "min support {sup}");
        }
    }

    #[test]
    fn empty_database() {
        let r = apriori(&[], Support::Count(1));
        assert_eq!(r.total(), 0);
        assert_eq!(r.max_len(), 0);
    }

    #[test]
    fn support_above_everything_yields_nothing() {
        let r = apriori(&toy(), Support::Count(100));
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn fraction_support() {
        // 50% of 4 transactions = 2.
        let a = apriori(&toy(), Support::Fraction(0.5));
        let b = apriori(&toy(), Support::Count(2));
        assert_eq!(a, b);
    }

    #[test]
    fn monotonicity_holds() {
        // Every subset of a frequent itemset is frequent with ≥ support.
        let r = apriori(&toy(), Support::Count(2));
        for (set, sup) in r.iter() {
            for sub in set.one_item_removed() {
                if sub.is_empty() {
                    continue;
                }
                let sub_sup = r.support_of(&sub).expect("subset must be frequent");
                assert!(sub_sup >= *sup);
            }
        }
    }
}
