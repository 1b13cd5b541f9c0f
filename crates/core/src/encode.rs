//! Dense re-encoding of transactions after pass 1, plus the triangular
//! pair-index arithmetic used by the specialized pass-2 counter.
//!
//! After the frequent items `L1` are known, every infrequent item is dead
//! weight: it can never occur in a frequent itemset of any later pass
//! (Apriori monotonicity). The [`DenseEncoder`] therefore projects each
//! cached transaction once — dropping infrequent items and remapping the
//! survivors to dense ranks `0..|L1|` — so every later pass streams compact,
//! branch-friendly `u32` ranks instead of the sparse original alphabet.
//!
//! The rank assignment is *monotone* (ranks are assigned in ascending item
//! order), which is what makes the whole optimization invisible to results:
//! sorted transactions stay sorted after encoding, itemset order is
//! preserved under both encode and decode, and `ap_gen`'s prefix join sees
//! the same structure in either alphabet. Mining in rank space and decoding
//! at the end is a bijection on the frequent-itemset lattice.

use crate::item_table::ItemTable;
use crate::types::{Item, Itemset};
use yafim_cluster::ByteSize;

/// Monotone `item ↔ dense rank` dictionary over the frequent items of pass 1.
///
/// ```
/// use yafim_core::encode::DenseEncoder;
///
/// let enc = DenseEncoder::new(vec![3, 8, 40]);
/// assert_eq!(enc.encode(&[2, 3, 9, 40]), vec![0, 2]); // 3 → rank 0, 40 → rank 2
/// assert_eq!(enc.item(2), 40);
/// ```
///
/// The way from an item to its rank is an index of the host's own. What
/// ships is `items`, and that is all [`byte_size`](ByteSize::byte_size)
/// sees: a receiver rebuilds it.
#[derive(Clone, Debug)]
pub struct DenseEncoder {
    /// Frequent items, strictly ascending; the rank of `items[r]` is `r`.
    items: Vec<Item>,
    ranks: Ranks,
}

/// The O(1) way from an item to its rank, one per dictionary.
#[derive(Clone, Debug)]
enum Ranks {
    /// `direct[item]` is the item's rank, or [`NO_RANK`]: while the largest
    /// frequent id is below [`DIRECT_MAX_ITEMS`].
    Direct(Vec<u32>),
    /// Beyond, where memory must follow the number of items and not their
    /// magnitude: as in the hash tree, an item's index is its rank.
    Table(ItemTable),
}

/// No rank: a dictionary holds fewer than `u32::MAX` items.
const NO_RANK: u32 = u32::MAX;

impl DenseEncoder {
    /// Build from the frequent items, which must be strictly ascending
    /// (the order `L1` is produced in).
    pub fn new(items: Vec<Item>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "frequent items must be strictly ascending"
        );
        let ranks = match items.last() {
            Some(&top) if (top as usize) < DIRECT_MAX_ITEMS => {
                let mut direct = vec![NO_RANK; top as usize + 1];
                let ranked = (0u32..).zip(&items);
                ranked.for_each(|(rank, &item)| direct[item as usize] = rank);
                Ranks::Direct(direct)
            }
            _ => Ranks::Table(ItemTable::new(items.iter().copied())),
        };
        DenseEncoder { items, ranks }
    }

    /// Number of frequent items (the dense alphabet size).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Dense rank of `item`, if frequent.
    #[inline]
    pub fn rank(&self, item: Item) -> Option<u32> {
        match &self.ranks {
            Ranks::Direct(direct) => direct.get(item as usize).copied().filter(|&r| r != NO_RANK),
            Ranks::Table(table) => table.get(item),
        }
    }

    /// The original item at `rank`.
    pub fn item(&self, rank: Item) -> Item {
        self.items[rank as usize]
    }

    /// Project a sorted transaction: drop infrequent items, map survivors to
    /// ranks. Output is sorted because the rank assignment is monotone.
    pub fn encode(&self, t: &[Item]) -> Vec<Item> {
        let mut out = Vec::with_capacity(t.len().min(self.items.len()));
        self.encode_into(t, &mut out);
        out
    }

    /// [`DenseEncoder::encode`], appending to `out`.
    pub(crate) fn encode_into(&self, t: &[Item], out: &mut Vec<Item>) {
        let Ranks::Direct(direct) = &self.ranks else {
            return out.extend(t.iter().filter_map(|&item| self.rank(item)));
        };
        // Every item writes its rank; only a hit moves the write position.
        let mut n = out.len();
        out.resize(n + t.len(), 0);
        for &item in t {
            let rank = direct.get(item as usize).copied().unwrap_or(NO_RANK);
            out[n] = rank;
            n += usize::from(rank != NO_RANK);
        }
        out.truncate(n);
    }

    /// Map a rank-space itemset back to the original alphabet. Monotonicity
    /// keeps the items sorted.
    pub fn decode_itemset(&self, dense: &Itemset) -> Itemset {
        Itemset::from_sorted(dense.items().iter().map(|&r| self.item(r)).collect())
    }
}

impl ByteSize for DenseEncoder {
    fn byte_size(&self) -> u64 {
        8 + 4 * self.items.len() as u64
    }
}

/// Per-item keep/drop bitmap shipped to the workers for cross-pass
/// trimming (DHP-style): after `L_k` is known, items in no frequent
/// `k`-itemset can never appear in a frequent `(k+1)`-itemset and are
/// dropped from every cached transaction.
#[derive(Clone, Debug)]
pub struct TrimMask {
    /// `keep[rank]` — whether the dense item survives into the next pass.
    pub keep: Vec<bool>,
}

impl TrimMask {
    /// Mask keeping exactly the items that occur in `frequent` (rank space),
    /// over a dense alphabet of `n` items.
    pub fn from_frequent(n: usize, frequent: &[(Itemset, u64)]) -> Self {
        Self::from_items(n, frequent.iter().flat_map(|(set, _)| set.items()))
    }

    /// Mask keeping exactly `items` (rank space), over a dense alphabet of
    /// `n` items.
    pub(crate) fn from_items<'a>(n: usize, items: impl IntoIterator<Item = &'a Item>) -> Self {
        let mut keep = vec![false; n];
        for &r in items {
            keep[r as usize] = true;
        }
        TrimMask { keep }
    }

    /// How many items survive.
    pub(crate) fn alive(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }
}

impl ByteSize for TrimMask {
    // Ships as a bitmap.
    fn byte_size(&self) -> u64 {
        8 + self.keep.len().div_ceil(8) as u64
    }
}

/// Number of cells in the strict upper triangle over `n` items — exactly
/// `|C_2| = n·(n−1)/2`, since every pair of frequent items survives the
/// Apriori prune at `k = 2`.
pub fn tri_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Flat index of the pair `(a, b)` with `a < b < n` in row-major upper
/// triangular order — the same order `ap_gen` emits `C_2` in, so triangle
/// indices and hash-tree candidate indices coincide.
pub fn tri_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    a * (2 * n - a - 1) / 2 + (b - a - 1)
}

/// Inverse of [`tri_index`]: the pair `(a, b)` at `idx`. Row `a` starts at
/// `s(a) = a·(2n − a − 1)/2`, so `a` is the largest with `s(a) ≤ idx`: the
/// quadratic's smaller root, floored, then corrected for rounding.
pub fn tri_pair(n: usize, idx: usize) -> (usize, usize) {
    debug_assert!(idx < tri_len(n));
    let start = |a: usize| a * (2 * n - a - 1) / 2;
    let m = 2.0 * n as f64 - 1.0;
    let mut a = (((m - (m * m - 8.0 * idx as f64).sqrt()) / 2.0) as usize).min(n - 1);
    while start(a) > idx {
        a -= 1;
    }
    while start(a + 1) <= idx {
        a += 1;
    }
    (a, a + 1 + idx - start(a))
}

/// Add every pair of the ascending ranks `t`, each below `n`, into `acc`,
/// the triangle over `n` ranks, setting each cell's bit in `touched`.
/// Returns the number of pairs.
pub(crate) fn add_pairs(acc: &mut [u64], touched: &mut [u64], n: usize, t: &[Item]) -> u64 {
    for i in 0..t.len().saturating_sub(1) {
        // Row-relative addressing keeps the inner loop a single add +
        // increment.
        let base = tri_index(n, t[i] as usize, t[i] as usize + 1);
        for &b in &t[i + 1..] {
            let cell = base + (b - t[i]) as usize - 1;
            acc[cell] += 1;
            touched[cell / 64] |= 1 << (cell % 64);
        }
    }
    (t.len() * t.len().saturating_sub(1) / 2) as u64
}

/// Largest triangle the specialized pass-2 counter will allocate per task
/// (cells, 8 bytes each). Beyond this, pass 2 falls back to the candidate
/// store — counts are identical either way, only the constant factor moves.
/// The `k ≥ 3` vertical bitmap counter has the same shape of guard over its
/// arena: [`BITMAP_MAX_WORDS`](crate::bitmap::BITMAP_MAX_WORDS).
pub const TRIANGLE_MAX_CELLS: usize = 1 << 24;

/// The ids a [`DenseEncoder`] indexes directly (4 bytes each, on the host
/// only): a dictionary whose largest frequent id is this or more probes a
/// table of its items instead. Every benchmark alphabet is thousands of ids.
pub const DIRECT_MAX_ITEMS: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_drops_and_remaps_monotonically() {
        let enc = DenseEncoder::new(vec![2, 5, 9, 40]);
        assert_eq!(enc.len(), 4);
        assert_eq!(enc.encode(&[1, 2, 5, 7, 40, 41]), vec![0, 1, 3]);
        assert_eq!(enc.encode(&[3, 4, 6]), Vec::<Item>::new());
        assert_eq!(enc.encode(&[]), Vec::<Item>::new());
        assert_eq!(enc.rank(9), Some(2));
        assert_eq!(enc.rank(10), None);
    }

    #[test]
    fn decode_round_trips() {
        let enc = DenseEncoder::new(vec![10, 20, 30]);
        let dense = Itemset::from_sorted(vec![0, 2]);
        assert_eq!(enc.decode_itemset(&dense), Itemset::new(vec![10, 30]));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_dictionary_rejected() {
        DenseEncoder::new(vec![5, 2]);
    }

    #[test]
    fn tri_index_is_a_bijection() {
        for n in [2usize, 3, 5, 17, 600] {
            let mut seen = vec![false; tri_len(n)];
            for a in 0..n {
                for b in a + 1..n {
                    let idx = tri_index(n, a, b);
                    assert!(!seen[idx], "collision at ({a},{b}) in n={n}");
                    seen[idx] = true;
                    assert_eq!(tri_pair(n, idx), (a, b), "inverse at n={n}");
                }
            }
            assert!(seen.iter().all(|&s| s), "gaps for n={n}");
        }
        // Every row's ends at the triangle's largest size.
        let n = 5794;
        for a in 0..n - 1 {
            let (first, last) = (tri_index(n, a, a + 1), tri_index(n, a, n - 1));
            assert_eq!(
                (tri_pair(n, first), tri_pair(n, last)),
                ((a, a + 1), (a, n - 1))
            );
        }
    }

    #[test]
    fn tri_order_matches_lexicographic_pairs() {
        // ap_gen over singletons emits pairs in lexicographic order; the
        // triangle must index them identically.
        let n = 6;
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                pairs.push((a, b));
            }
        }
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(tri_index(n, a, b), idx);
        }
    }

    #[test]
    fn trim_mask_tracks_frequent_items() {
        let lk = vec![
            (Itemset::from_sorted(vec![0, 2]), 5u64),
            (Itemset::from_sorted(vec![2, 3]), 4),
        ];
        let mask = TrimMask::from_frequent(5, &lk);
        assert_eq!(mask.keep, vec![true, false, true, true, false]);
        assert_eq!(mask.alive(), 3);
        assert!(mask.byte_size() < 24);
    }

    #[test]
    fn tri_len_edge_cases() {
        assert_eq!(tri_len(0), 0);
        assert_eq!(tri_len(1), 0);
        assert_eq!(tri_len(2), 1);
        assert_eq!(tri_len(100), 4950);
    }
}
