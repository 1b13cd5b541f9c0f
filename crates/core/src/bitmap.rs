//! Vertical TID-bitmap counting — the columnar Phase-II store.
//!
//! The hash tree and the trie are *horizontal*: every pass walks every
//! cached transaction and descends a per-transaction index over `C_k`. The
//! [`ColumnarPartition`] turns the layout 90°: after the dense projection,
//! each partition is materialized **once** as one fixed-width `u64` bitset
//! row per frequent item rank, TIDs local to the partition. Counting a
//! candidate `{a, b, c}` is then three row intersections word-by-word with
//! an accumulated popcount — branch-free, no per-transaction descent, and
//! cost proportional to `|C_k| · words_per_item` instead of
//! `|D| · depth(C_k)`.
//!
//! Two properties make the strategy invisible to results:
//!
//! * transactions are sorted and deduplicated sets, so the popcount of an
//!   intersection of item rows *is* the support of the itemset in the
//!   partition — the same number the store path's subset matching emits;
//! * candidates are counted in `ap_gen`'s sorted order and reported by
//!   index into that order, so the shuffle keys coincide with the store
//!   path's keys exactly.
//!
//! The sorted order also pays for itself: candidates sharing a `(k-1)`-item
//! prefix are adjacent, so the [`BitmapScratch`] keeps the running prefix
//! intersections and `{a, b}`'s AND is computed once for all `{a, b, *}`
//! extensions.

use crate::encode::tri_len;
use crate::types::{Item, Itemset, JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS};
use yafim_cluster::ByteSize;

/// Largest total bitset arena (in `u64` words, across all partitions) the
/// bitmap strategy will materialize — 2²⁴ words = 128 MiB, mirroring
/// [`TRIANGLE_MAX_CELLS`](crate::encode::TRIANGLE_MAX_CELLS). Beyond this
/// the engine falls back to the trie: counts are identical either way, only
/// the constant factor moves.
pub const BITMAP_MAX_WORDS: usize = 1 << 24;

/// Driver-side density guard: would the columnar projection of `num_lines`
/// transactions over `n_items` dense ranks, split across `partitions`
/// tasks, stay within [`BITMAP_MAX_WORDS`]?
///
/// Uses an upper bound the driver can compute from HDFS metadata alone
/// (`Σ_p n_items · ⌈tids_p / 64⌉ ≤ n_items · (⌈lines / 64⌉ + partitions)`),
/// so the decision is made once, deterministically, before any job runs.
pub fn bitmap_fits(n_items: usize, num_lines: usize, partitions: usize) -> bool {
    let words_bound = (n_items as u64) * (num_lines.div_ceil(64) as u64 + partitions as u64);
    words_bound <= BITMAP_MAX_WORDS as u64
}

/// Pass 2's two layouts priced from pass 1's totals: `n_items` frequent
/// items occurring `occ` times (their supports' sum) over `lines` lines in
/// `partitions` tasks. Returns `(columns, rows)`: at most what a columnar
/// pass 2 charges (`n(n−1)/2 · W` words, `W` as in [`bitmap_fits`], plus the
/// arena build, `n · W + occ`), at least what the row triangle charges
/// (`occ · (occ/lines − 1) / 2` pairs, by Jensen on `Σ C(|t|, 2)`). Both
/// also charge a unit per nonzero cell, the same cells, left out of both.
pub fn pass2_bounds(n_items: usize, lines: usize, partitions: usize, occ: u64) -> (u64, u64) {
    let (n, w) = (n_items as u128, (lines.div_ceil(64) + partitions) as u128);
    let columns = JVM_BITMAP_WORD_UNITS as u128 * tri_len(n_items) as u128 * w + n * w;
    let (occ, lines) = (occ as u128, lines.max(1) as u128);
    let rows = JVM_PAIR_COUNT_UNITS as u128 * (occ * occ.saturating_sub(lines) / (2 * lines));
    let clamp = |units: u128| units.min(u64::MAX.into()) as u64;
    (clamp(columns + occ), clamp(rows))
}

/// One partition of the vertical store: a row-major `Vec<u64>` arena with
/// one `words_per_item`-wide bitset row per dense item rank; bit `t` of row
/// `r` is set iff partition-local transaction `t` contains rank `r`.
#[derive(Clone, Debug)]
pub struct ColumnarPartition {
    n_items: usize,
    words_per_item: usize,
    /// `rows[r * words_per_item .. (r + 1) * words_per_item]` is row `r`.
    rows: Vec<u64>,
    /// Bits set during the build (one per item occurrence), kept for cost
    /// accounting.
    set_bits: u64,
}

impl ColumnarPartition {
    /// Project one partition of dense-rank transactions into bitset rows.
    /// Every rank in `txs` must be `< n_items`.
    pub fn build(n_items: usize, txs: &[Vec<Item>]) -> Self {
        Self::from_rows(n_items, txs.len(), txs.iter().map(Vec::as_slice))
    }

    /// [`ColumnarPartition::build`] over the `n_tids` transactions of `txs`,
    /// whatever holds them.
    pub(crate) fn from_rows<'a>(
        n_items: usize,
        n_tids: usize,
        txs: impl Iterator<Item = &'a [Item]>,
    ) -> Self {
        let words_per_item = n_tids.div_ceil(64);
        let mut rows = vec![0u64; n_items * words_per_item];
        let mut set_bits = 0u64;
        for (tid, t) in txs.enumerate() {
            let (word, bit) = (tid / 64, 1u64 << (tid % 64));
            for &r in t {
                rows[r as usize * words_per_item + word] |= bit;
            }
            set_bits += t.len() as u64;
        }
        ColumnarPartition {
            n_items,
            words_per_item,
            rows,
            set_bits,
        }
    }

    /// Total arena size in words.
    pub fn arena_words(&self) -> usize {
        self.rows.len()
    }

    /// The bitset row for `rank`.
    pub fn row(&self, rank: usize) -> &[u64] {
        &self.rows[rank * self.words_per_item..(rank + 1) * self.words_per_item]
    }

    /// Physical build work: one word zeroed per arena word plus one bit set
    /// per item occurrence (what the build task charges as CPU on top of
    /// the arena's memory traffic).
    pub fn build_cost_units(&self) -> u64 {
        self.rows.len() as u64 + self.set_bits
    }

    /// Count every candidate's support in this partition.
    ///
    /// `candidates` must be sorted (the order `ap_gen` emits) and all of
    /// one length `k ≥ 2`; `f(index, count)` is invoked for each candidate
    /// with a non-zero partition-local count. Returns the number of `u64`
    /// words intersected — the work estimate virtual time is charged from.
    ///
    /// Adjacent candidates share prefix intersections through `scratch`:
    /// level `d` of the scratch holds `row(c[0]) ∧ … ∧ row(c[d+1])` and is
    /// recomputed only from the first position where the candidate departs
    /// from its predecessor.
    pub fn count_candidates(
        &self,
        candidates: &[Itemset],
        scratch: &mut BitmapScratch,
        f: &mut dyn FnMut(usize, u64),
    ) -> u64 {
        let w = self.words_per_item;
        let mut words = 0u64;
        scratch.prev.clear();
        for (ci, cand) in candidates.iter().enumerate() {
            let items = cand.items();
            let k = items.len();
            debug_assert!(k >= 2, "bitmap counting starts at pass 2");
            // Stored prefix levels this candidate needs: level d covers
            // items[0..=d+1], so a k-candidate uses levels 0..k-2 and
            // streams the final intersection without storing it.
            let needed = k - 2;
            if scratch.levels.len() < needed {
                scratch.levels.resize_with(needed, Vec::new);
            }
            // Levels valid from the previous candidate: level d survives
            // iff the first d+2 items are unchanged.
            let common = scratch
                .prev
                .iter()
                .zip(items.iter())
                .take_while(|(a, b)| a == b)
                .count();
            let first_stale = common.saturating_sub(1).min(needed);
            for d in first_stale..needed {
                let (done, rest) = scratch.levels.split_at_mut(d);
                let left: &[u64] = if d == 0 {
                    self.row(items[0] as usize)
                } else {
                    &done[d - 1]
                };
                let right = self.row(items[d + 1] as usize);
                let dst = &mut rest[0];
                dst.clear();
                dst.extend(left.iter().zip(right).map(|(a, b)| a & b));
                words += w as u64;
            }
            let prefix: &[u64] = if needed == 0 {
                self.row(items[0] as usize)
            } else {
                &scratch.levels[needed - 1]
            };
            let last = self.row(items[k - 1] as usize);
            let count: u64 = prefix
                .iter()
                .zip(last)
                .map(|(a, b)| (a & b).count_ones() as u64)
                .sum();
            words += w as u64;
            if count > 0 {
                f(ci, count);
            }
            scratch.prev.clear();
            scratch.prev.extend_from_slice(items);
        }
        words
    }

    /// Add every pair `{a, b}`'s support into `acc[tri_index(a, b)]`
    /// ([`tri_index`](crate::encode::tri_index)), `C_2` implicit. Returns the
    /// words intersected, `n(n−1)/2 · words_per_item`, and the pairs found.
    pub fn add_pairs(&self, acc: &mut [u64]) -> (u64, u64) {
        let n = self.n_items;
        debug_assert_eq!(acc.len(), tri_len(n), "a triangle over this store's ranks");
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
        let mut found = 0;
        for (cell, (a, b)) in acc.iter_mut().zip(pairs) {
            let words = self.row(a).iter().zip(self.row(b));
            let count: u64 = words.map(|(x, y)| (x & y).count_ones() as u64).sum();
            *cell += count;
            found += u64::from(count > 0);
        }
        ((tri_len(n) * self.words_per_item) as u64, found)
    }
}

impl ByteSize for ColumnarPartition {
    fn byte_size(&self) -> u64 {
        32 + 8 * self.rows.len() as u64
    }
}

/// Reusable intersection buffers for [`ColumnarPartition::count_candidates`]
/// — one row-width buffer per prefix depth, plus the previous candidate for
/// prefix-run detection. One scratch per task; it grows to the pass's `k`
/// and is reused across every candidate.
#[derive(Default)]
pub struct BitmapScratch {
    levels: Vec<Vec<u64>>,
    prev: Vec<Item>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_naive(txs: &[Vec<Item>], cand: &Itemset) -> u64 {
        txs.iter()
            .filter(|t| cand.items().iter().all(|i| t.binary_search(i).is_ok()))
            .count() as u64
    }

    fn txs() -> Vec<Vec<Item>> {
        // 70 transactions so rows span two words; ranks 0..6.
        (0..70u32)
            .map(|i| {
                let mut t: Vec<Item> = (0..6).filter(|&r| (i + r) % (r + 2) == 0).collect();
                t.push((i % 6) as Item);
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect()
    }

    #[test]
    fn build_sets_the_right_bits() {
        let txs = vec![vec![0, 2], vec![1], vec![0, 1, 2]];
        let col = ColumnarPartition::build(3, &txs);
        assert_eq!(col.row(0).len(), 1);
        assert_eq!(col.row(0), &[0b101]);
        assert_eq!(col.row(1), &[0b110]);
        assert_eq!(col.row(2), &[0b101]);
        assert_eq!(col.build_cost_units(), 3 + 6);
        assert_eq!(col.byte_size(), 32 + 24);
    }

    #[test]
    fn counts_match_naive_subset_counting() {
        let txs = txs();
        let col = ColumnarPartition::build(6, &txs);
        assert_eq!(col.row(0).len(), 2);
        for k in [2usize, 3, 4] {
            // Every sorted k-combination of the 6 ranks, in lexicographic
            // (= ap_gen) order.
            let mut cands: Vec<Itemset> = Vec::new();
            fn combos(n: u32, k: usize, start: u32, cur: &mut Vec<u32>, out: &mut Vec<Itemset>) {
                if cur.len() == k {
                    out.push(Itemset::from_sorted(cur.clone()));
                    return;
                }
                for i in start..n {
                    cur.push(i);
                    combos(n, k, i + 1, cur, out);
                    cur.pop();
                }
            }
            combos(6, k, 0, &mut Vec::new(), &mut cands);

            let mut scratch = BitmapScratch::default();
            let mut got = vec![0u64; cands.len()];
            let words = col.count_candidates(&cands, &mut scratch, &mut |i, c| got[i] = c);
            assert!(words > 0);
            for (cand, &c) in cands.iter().zip(&got) {
                assert_eq!(c, count_naive(&txs, cand), "k={k} candidate {cand}");
            }
        }
    }

    #[test]
    fn prefix_reuse_charges_fewer_words_than_rescan() {
        // All C(8,4) candidates share long prefixes; with reuse the charge
        // must be well below the no-reuse bound of k·w per candidate.
        let txs: Vec<Vec<Item>> = (0..64u32).map(|_| (0..8).collect()).collect();
        let col = ColumnarPartition::build(8, &txs);
        let mut cands = Vec::new();
        fn combos(n: u32, k: usize, start: u32, cur: &mut Vec<u32>, out: &mut Vec<Itemset>) {
            if cur.len() == k {
                out.push(Itemset::from_sorted(cur.clone()));
                return;
            }
            for i in start..n {
                cur.push(i);
                combos(n, k, i + 1, cur, out);
                cur.pop();
            }
        }
        combos(8, 4, 0, &mut Vec::new(), &mut cands);
        let mut scratch = BitmapScratch::default();
        let mut hits = 0usize;
        let words = col.count_candidates(&cands, &mut scratch, &mut |_, c| {
            assert_eq!(c, 64);
            hits += 1;
        });
        assert_eq!(hits, cands.len());
        let w = col.row(0).len() as u64;
        let no_reuse = cands.len() as u64 * 3 * w; // k-1 intersections each
        assert!(
            words < no_reuse,
            "prefix reuse must beat rescan: {words} vs {no_reuse}"
        );
    }

    #[test]
    fn empty_partition_counts_nothing() {
        let col = ColumnarPartition::build(4, &[]);
        assert_eq!(col.row(0).len(), 0);
        assert_eq!(col.arena_words(), 0);
        let cands = vec![Itemset::from_sorted(vec![0, 1])];
        let mut scratch = BitmapScratch::default();
        let mut called = false;
        let words = col.count_candidates(&cands, &mut scratch, &mut |_, _| called = true);
        assert_eq!(words, 0);
        assert!(!called, "zero counts are never emitted");
    }

    #[test]
    fn scratch_is_reusable_across_passes() {
        let txs = txs();
        let col = ColumnarPartition::build(6, &txs);
        let mut scratch = BitmapScratch::default();
        let c4 = vec![Itemset::from_sorted(vec![0, 1, 2, 3])];
        let c2 = vec![Itemset::from_sorted(vec![0, 2])];
        let mut a = 0u64;
        col.count_candidates(&c4, &mut scratch, &mut |_, c| a = c);
        let mut b = 0u64;
        col.count_candidates(&c2, &mut scratch, &mut |_, c| b = c);
        assert_eq!(a, count_naive(&txs, &c4[0]));
        assert_eq!(b, count_naive(&txs, &c2[0]));
    }

    #[test]
    fn density_guard_mirrors_triangle_guard() {
        assert!(bitmap_fits(300, 6000, 32));
        assert!(bitmap_fits(0, 0, 0));
        // 2M items × 2M lines would need ~2^31+ words.
        assert!(!bitmap_fits(1 << 21, 1 << 21, 16));
    }
}
