//! FP-Growth (Han, Pei & Yin, the paper's ref \[9\]): frequent itemset mining
//! without candidate generation, via the FP-tree.
//!
//! Third independent oracle for the cross-miner tests, and the classic
//! single-node alternative the paper's related-work section discusses.

use crate::types::{Item, Itemset, MiningResult, Support};
use yafim_cluster::FxHashMap;

#[derive(Clone, Debug)]
struct FpNode {
    item: Item,
    count: u64,
    parent: usize,
    children: Vec<usize>,
}

/// A prefix tree of (reordered) transactions with per-item node links.
struct FpTree {
    nodes: Vec<FpNode>,
    /// item → indices of every node carrying that item.
    header: FxHashMap<Item, Vec<usize>>,
}

const ROOT: usize = 0;

impl FpTree {
    /// Build from weighted transactions, keeping only items in `order` and
    /// sorting each transaction by descending global frequency (`rank`).
    fn build(transactions: &[(Vec<Item>, u64)], rank: &FxHashMap<Item, usize>) -> Self {
        let mut tree = FpTree {
            nodes: vec![FpNode {
                item: 0,
                count: 0,
                parent: ROOT,
                children: Vec::new(),
            }],
            header: FxHashMap::default(),
        };
        for (items, weight) in transactions {
            let mut filtered: Vec<Item> = items
                .iter()
                .copied()
                .filter(|i| rank.contains_key(i))
                .collect();
            filtered.sort_by_key(|i| rank[i]);
            tree.insert(&filtered, *weight);
        }
        tree
    }

    fn insert(&mut self, items: &[Item], weight: u64) {
        let mut node = ROOT;
        for &item in items {
            let child = self.nodes[node]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].item == item);
            node = match child {
                Some(c) => {
                    self.nodes[c].count += weight;
                    c
                }
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(FpNode {
                        item,
                        count: weight,
                        parent: node,
                        children: Vec::new(),
                    });
                    self.nodes[node].children.push(id);
                    self.header.entry(item).or_default().push(id);
                    id
                }
            };
        }
    }

    /// The conditional pattern base of `item`: for every node carrying it,
    /// the path to the root with the node's count.
    fn pattern_base(&self, item: Item) -> Vec<(Vec<Item>, u64)> {
        let mut base = Vec::new();
        for &node in self.header.get(&item).map(Vec::as_slice).unwrap_or(&[]) {
            let count = self.nodes[node].count;
            let mut path = Vec::new();
            let mut cur = self.nodes[node].parent;
            while cur != ROOT {
                path.push(self.nodes[cur].item);
                cur = self.nodes[cur].parent;
            }
            path.reverse();
            if !path.is_empty() {
                base.push((path, count));
            }
        }
        base
    }

    fn item_support(&self, item: Item) -> u64 {
        self.header
            .get(&item)
            .map(|nodes| nodes.iter().map(|&n| self.nodes[n].count).sum())
            .unwrap_or(0)
    }
}

/// Mine all frequent itemsets with FP-Growth.
pub fn fp_growth(transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
    let min_sup = min_support.resolve(transactions.len() as u64);

    let mut counts: FxHashMap<Item, u64> = FxHashMap::default();
    for t in transactions {
        for &i in t {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    let rank = ranking(&counts, min_sup);

    let weighted: Vec<(Vec<Item>, u64)> = transactions.iter().map(|t| (t.clone(), 1)).collect();
    let tree = FpTree::build(&weighted, &rank);

    let mut found: Vec<(Itemset, u64)> = Vec::new();
    mine(&tree, &rank, &[], min_sup, &mut found);

    let max_len = found.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); max_len];
    for (set, sup) in found {
        levels[set.len() - 1].push((set, sup));
    }
    MiningResult::from_levels(levels)
}

/// Frequency rank over frequent items (most frequent first; ties broken by
/// item id for determinism).
fn ranking(counts: &FxHashMap<Item, u64>, min_sup: u64) -> FxHashMap<Item, usize> {
    let mut items: Vec<(Item, u64)> = counts
        .iter()
        .filter(|&(_, &c)| c >= min_sup)
        .map(|(&i, &c)| (i, c))
        .collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items
        .into_iter()
        .enumerate()
        .map(|(rank, (item, _))| (item, rank))
        .collect()
}

/// Recursive FP-Growth over conditional trees.
fn mine(
    tree: &FpTree,
    rank: &FxHashMap<Item, usize>,
    suffix: &[Item],
    min_sup: u64,
    out: &mut Vec<(Itemset, u64)>,
) {
    // Process items bottom-up (least frequent first).
    let mut items: Vec<Item> = rank.keys().copied().collect();
    items.sort_by_key(|i| std::cmp::Reverse(rank[i]));

    for item in items {
        let support = tree.item_support(item);
        if support < min_sup {
            continue;
        }
        let mut set: Vec<Item> = suffix.to_vec();
        set.push(item);
        out.push((Itemset::new(set.clone()), support));

        let base = tree.pattern_base(item);
        if base.is_empty() {
            continue;
        }
        // Conditional frequent items and tree.
        let mut cond_counts: FxHashMap<Item, u64> = FxHashMap::default();
        for (path, w) in &base {
            for &i in path {
                *cond_counts.entry(i).or_insert(0) += w;
            }
        }
        let cond_rank = ranking(&cond_counts, min_sup);
        if cond_rank.is_empty() {
            continue;
        }
        let cond_tree = FpTree::build(&base, &cond_rank);
        mine(&cond_tree, &cond_rank, &set, min_sup, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eclat::eclat;
    use crate::sequential::apriori;

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn agrees_with_apriori_and_eclat() {
        for sup in [1u64, 2, 3] {
            let f = fp_growth(&toy(), Support::Count(sup));
            let a = apriori(&toy(), Support::Count(sup));
            let e = eclat(&toy(), Support::Count(sup));
            assert_eq!(f, a, "vs apriori, support {sup}");
            assert_eq!(f, e, "vs eclat, support {sup}");
        }
    }

    #[test]
    fn textbook_example() {
        // Han & Kamber's canonical FP-growth example (minsup 3).
        let tx = vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ];
        let r = fp_growth(&tx, Support::Count(2));
        let a = apriori(&tx, Support::Count(2));
        assert_eq!(r, a);
        assert_eq!(r.support_of(&Itemset::new(vec![1, 2, 5])), Some(2));
        assert_eq!(r.support_of(&Itemset::new(vec![1, 2, 3])), Some(2));
    }

    #[test]
    fn empty_database() {
        assert_eq!(fp_growth(&[], Support::Count(1)).total(), 0);
    }

    #[test]
    fn single_path_tree() {
        let tx = vec![vec![1, 2, 3]; 5];
        let r = fp_growth(&tx, Support::Count(5));
        assert_eq!(r.total(), 7, "all non-empty subsets of {{1,2,3}}");
    }
}
