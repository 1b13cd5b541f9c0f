//! Eclat (Zaki et al., the paper's ref \[3\]): vertical-layout frequent
//! itemset mining by tid-list intersection.
//!
//! Included as a single-node comparator (and as an independent oracle in the
//! cross-miner correctness tests): it computes the same answer as Apriori
//! through an entirely different algorithm, so agreement between the two is
//! strong evidence both are right.

use crate::types::{Item, Itemset, MiningResult, Support};
use yafim_cluster::FxHashMap;

/// Mine all frequent itemsets with Eclat.
pub fn eclat(transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
    let min_sup = min_support.resolve(transactions.len() as u64);

    // Vertical layout: item → sorted tid list.
    let mut tidlists: FxHashMap<Item, Vec<u32>> = FxHashMap::default();
    for (tid, t) in transactions.iter().enumerate() {
        for &item in t {
            // Transactions are deduplicated, so each (tid, item) is unique.
            tidlists.entry(item).or_default().push(tid as u32);
        }
    }

    let mut atoms: Vec<(Item, Vec<u32>)> = tidlists
        .into_iter()
        .filter(|(_, tids)| tids.len() as u64 >= min_sup)
        .collect();
    atoms.sort_by_key(|(item, _)| *item);

    let mut found: Vec<(Itemset, u64)> = Vec::new();
    extend(&Itemset::new(Vec::new()), &atoms, min_sup, &mut found);

    let max_len = found.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); max_len];
    for (set, sup) in found {
        levels[set.len() - 1].push((set, sup));
    }
    MiningResult::from_levels(levels)
}

/// Depth-first search over the equivalence class `atoms` sharing `prefix`.
fn extend(
    prefix: &Itemset,
    atoms: &[(Item, Vec<u32>)],
    min_sup: u64,
    out: &mut Vec<(Itemset, u64)>,
) {
    for (i, (item, tids)) in atoms.iter().enumerate() {
        let set = {
            let mut items = prefix.items().to_vec();
            items.push(*item);
            Itemset::from_sorted(items)
        };
        out.push((set.clone(), tids.len() as u64));

        // Build the next equivalence class by intersecting tid lists.
        let mut next: Vec<(Item, Vec<u32>)> = Vec::new();
        for (other, other_tids) in &atoms[i + 1..] {
            let inter = intersect_sorted(tids, other_tids);
            if inter.len() as u64 >= min_sup {
                next.push((*other, inter));
            }
        }
        if !next.is_empty() {
            extend(&set, &next, min_sup, out);
        }
    }
}

/// Intersection of two sorted tid lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::apriori;

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn intersect_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[3]), Vec::<u32>::new());
    }

    #[test]
    fn agrees_with_apriori_on_toy() {
        for sup in [1u64, 2, 3] {
            let e = eclat(&toy(), Support::Count(sup));
            let a = apriori(&toy(), Support::Count(sup));
            assert_eq!(e, a, "support {sup}");
        }
    }

    #[test]
    fn empty_database() {
        assert_eq!(eclat(&[], Support::Count(1)).total(), 0);
    }

    #[test]
    fn deep_itemsets_found() {
        // One transaction repeated: the whole set is frequent at sup 3.
        let tx = vec![vec![1, 2, 3, 4]; 3];
        let r = eclat(&tx, Support::Count(3));
        assert_eq!(r.max_len(), 4);
        assert_eq!(r.total(), 15, "all non-empty subsets of a 4-set");
        assert_eq!(r.support_of(&Itemset::new(vec![1, 2, 3, 4])), Some(3));
    }
}
