//! Core vocabulary of frequent itemset mining: items, itemsets,
//! transactions, support thresholds and mining results.
//!
//! Following the paper's §II.A: items are drawn from a set
//! `I = {i1 … in}` (here: `u32` ids), a transaction is a subset of `I`, the
//! support of an itemset is the number of transactions containing it, and an
//! itemset is *frequent* when its support reaches `MinSup`.

use std::fmt;
use yafim_cluster::{ByteSize, PassTiming};

/// An item identifier.
pub type Item = u32;

/// A set of items, stored sorted and deduplicated.
///
/// The sorted representation makes prefix-based candidate joining
/// (`ap_gen`), subset tests and hash-tree descent all linear scans.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itemset {
    items: Vec<Item>,
}

impl Itemset {
    /// Build from any item collection (sorts and deduplicates).
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset { items }
    }

    /// Build from items already sorted and deduplicated.
    ///
    /// Debug-asserts the invariant; use [`Itemset::new`] when unsure.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Itemset { items }
    }

    /// A singleton itemset.
    pub fn single(item: Item) -> Self {
        Itemset { items: vec![item] }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, sorted ascending.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Whether `item` is a member (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether every item of `self` occurs in the sorted slice `other`
    /// (merge-style subset test, O(|self| + |other|)).
    pub fn is_subset_of_sorted(&self, other: &[Item]) -> bool {
        let mut it = other.iter();
        'outer: for &needed in &self.items {
            for &have in it.by_ref() {
                match have.cmp(&needed) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// All subsets obtained by removing exactly one item (the `k-1`-subsets
    /// used by the Apriori prune step).
    pub fn one_item_removed(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |skip| {
            let mut v = Vec::with_capacity(self.items.len() - 1);
            for (i, &item) in self.items.iter().enumerate() {
                if i != skip {
                    v.push(item);
                }
            }
            Itemset { items: v }
        })
    }

    /// Extend by one item strictly larger than the current maximum.
    /// Panics (debug) otherwise — used by the prefix join, which guarantees
    /// the order.
    pub fn extended_with(&self, item: Item) -> Itemset {
        debug_assert!(self.items.last().is_none_or(|&last| item > last));
        let mut v = self.items.clone();
        v.push(item);
        Itemset { items: v }
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl ByteSize for Itemset {
    fn byte_size(&self) -> u64 {
        8 + 4 * self.items.len() as u64
    }
}

impl FromIterator<Item> for Itemset {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Itemset::new(iter.into_iter().collect())
    }
}

/// Parse one whitespace-separated transaction line (the `.dat` format used
/// by the FIMI / UCI repositories) into a sorted, deduplicated item vector.
/// Unparseable tokens are skipped. The rule itself is `yafim-data`'s, the
/// one that cleaned the file on its way in; a line it drops has no items.
pub fn parse_transaction(line: &str) -> Vec<Item> {
    let mut items = Vec::new();
    yafim_data::scan_line(line, &mut items);
    items
}

/// A minimum-support threshold, absolute or relative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Support {
    /// Absolute transaction count.
    Count(u64),
    /// Fraction of the transaction count, in `(0, 1]` — the paper quotes
    /// thresholds this way ("Sup = 35%").
    Fraction(f64),
}

impl Support {
    /// Resolve to an absolute count for a database of `n` transactions
    /// (fractions round up; at least 1).
    pub fn resolve(&self, n: u64) -> u64 {
        match *self {
            Support::Count(c) => c.max(1),
            Support::Fraction(f) => {
                assert!(f > 0.0 && f <= 1.0, "support fraction out of range: {f}");
                ((n as f64 * f).ceil() as u64).max(1)
            }
        }
    }

    /// Convenience constructor from a percentage (e.g. `35.0` → 35 %).
    pub fn percent(p: f64) -> Self {
        Support::Fraction(p / 100.0)
    }
}

/// All frequent itemsets, grouped by size: `levels[k-1]` holds the frequent
/// `k`-itemsets with their supports, sorted by itemset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiningResult {
    /// `levels[k-1]` = frequent `k`-itemsets, each with its support count.
    pub levels: Vec<Vec<(Itemset, u64)>>,
}

impl MiningResult {
    /// Build from per-level pair lists, dropping empty trailing levels and
    /// sorting each level (so results from different miners compare with
    /// `==`).
    pub fn from_levels(mut levels: Vec<Vec<(Itemset, u64)>>) -> Self {
        while levels.last().is_some_and(|l| l.is_empty()) {
            levels.pop();
        }
        for level in &mut levels {
            level.sort_by(|a, b| a.0.cmp(&b.0));
        }
        MiningResult { levels }
    }

    /// Length of the longest frequent itemset (0 if none).
    pub fn max_len(&self) -> usize {
        self.levels.len()
    }

    /// Total number of frequent itemsets across all sizes.
    pub fn total(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The frequent `k`-itemsets (empty slice if none).
    pub fn level(&self, k: usize) -> &[(Itemset, u64)] {
        assert!(k >= 1, "levels are 1-indexed by itemset size");
        self.levels.get(k - 1).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Support of a specific itemset, if frequent.
    pub fn support_of(&self, itemset: &Itemset) -> Option<u64> {
        let level = self.levels.get(itemset.len().checked_sub(1)?)?;
        level
            .binary_search_by(|(i, _)| i.cmp(itemset))
            .ok()
            .map(|idx| level[idx].1)
    }

    /// Iterate over every frequent itemset with its support.
    pub fn iter(&self) -> impl Iterator<Item = &(Itemset, u64)> {
        self.levels.iter().flatten()
    }

    /// Per-level sizes, e.g. `[119, 354, …]` — the series a miner logs.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }
}

/// Abstract CPU units charged per hash-tree node visit / leaf subset check.
///
/// The cost model's base unit (`CostModel::cpu_unit`, 100 ns) describes one
/// simple record touch in 2014-era JVM code; a hash-tree visit there is a
/// method call plus hash computation plus boxed comparisons — several times
/// that. Applied identically to YAFIM and the MapReduce baseline, since both
/// ran on the JVM.
pub const JVM_TREE_VISIT_UNITS: u64 = 8;

/// Virtual CPU units per pair touch in the specialized triangular pass-2
/// counter: one add plus one array increment over a flat primitive array —
/// far cheaper than a tree visit, but still above the raw cost-model unit
/// (bounds check + memory traffic on the JVM).
pub const JVM_PAIR_COUNT_UNITS: u64 = 2;

/// Virtual CPU units per `u64` word touched by the vertical bitmap counter:
/// a load, an AND and a popcount over primitive longs — the cheapest loop a
/// JVM can emit, so it gets the raw cost-model unit. Each word covers up to
/// 64 transactions, which is where the strategy's advantage comes from.
pub const JVM_BITMAP_WORD_UNITS: u64 = 1;

/// A full mining run: the itemsets plus the per-pass timing series.
#[derive(Clone, Debug, Default)]
pub struct MinerRun {
    /// All frequent itemsets.
    pub result: MiningResult,
    /// One entry per executed pass, in order.
    pub passes: Vec<PassTiming>,
    /// Total virtual seconds (sum of passes plus any setup).
    pub total_seconds: f64,
}

impl MinerRun {
    /// Per-pass virtual seconds, in pass order.
    pub fn pass_seconds(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.seconds).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itemset_sorts_and_dedups() {
        let s = Itemset::new(vec![3, 1, 2, 3, 1]);
        assert_eq!(s.items(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(9));
    }

    #[test]
    fn subset_of_sorted() {
        let s = Itemset::new(vec![2, 5]);
        assert!(s.is_subset_of_sorted(&[1, 2, 3, 5, 8]));
        assert!(!s.is_subset_of_sorted(&[1, 2, 3, 8]));
        assert!(!s.is_subset_of_sorted(&[5]));
        assert!(Itemset::new(vec![]).is_subset_of_sorted(&[]));
        assert!(!Itemset::new(vec![1]).is_subset_of_sorted(&[]));
    }

    #[test]
    fn one_item_removed_enumerates_k_minus_1_subsets() {
        let s = Itemset::new(vec![1, 2, 3]);
        let subs: Vec<Itemset> = s.one_item_removed().collect();
        assert_eq!(
            subs,
            vec![
                Itemset::new(vec![2, 3]),
                Itemset::new(vec![1, 3]),
                Itemset::new(vec![1, 2]),
            ]
        );
    }

    #[test]
    fn extended_with_appends() {
        let s = Itemset::new(vec![1, 2]);
        assert_eq!(s.extended_with(7).items(), &[1, 2, 7]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Itemset::new(vec![3, 1]).to_string(), "{1 3}");
        assert_eq!(Itemset::new(vec![]).to_string(), "{}");
    }

    #[test]
    fn parse_transaction_handles_noise() {
        assert_eq!(parse_transaction("5 3 3 1"), vec![1, 3, 5]);
        assert_eq!(parse_transaction("  7  "), vec![7]);
        assert_eq!(parse_transaction(""), Vec::<Item>::new());
        assert_eq!(parse_transaction("2 x 4"), vec![2, 4]);
    }

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Count(5).resolve(100), 5);
        assert_eq!(Support::Count(0).resolve(100), 1);
        assert_eq!(Support::Fraction(0.35).resolve(100), 35);
        assert_eq!(Support::Fraction(0.251).resolve(100), 26, "rounds up");
        assert_eq!(Support::percent(35.0).resolve(8124), 2844);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fraction_panics() {
        Support::Fraction(1.5).resolve(10);
    }

    #[test]
    fn mining_result_lookup() {
        let r = MiningResult::from_levels(vec![
            vec![(Itemset::single(2), 8), (Itemset::single(1), 9)],
            vec![(Itemset::new(vec![1, 2]), 5)],
            vec![],
        ]);
        assert_eq!(r.max_len(), 2, "trailing empty level dropped");
        assert_eq!(r.total(), 3);
        assert_eq!(r.level(1)[0].0, Itemset::single(1), "levels sorted");
        assert_eq!(r.support_of(&Itemset::new(vec![1, 2])), Some(5));
        assert_eq!(r.support_of(&Itemset::new(vec![1, 3])), None);
        assert_eq!(r.support_of(&Itemset::new(vec![1, 2, 3])), None);
        assert_eq!(r.level_sizes(), vec![2, 1]);
    }

    #[test]
    fn byte_size_scales() {
        assert_eq!(Itemset::new(vec![1, 2, 3]).byte_size(), 8 + 12);
    }
}
