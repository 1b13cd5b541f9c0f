//! Vertical TID-bitmap counting — the columnar Phase-II store.
//!
//! The hash tree is *horizontal*: every pass walks every
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
//!
//! A pass's candidates travel as one flat `k`-strided [`CandidateList`],
//! pass 2's pairs included, and the count over it is one loop with no call
//! per candidate. That loop is compiled twice, portable and for hardware
//! popcount; a task's scratch picks one when it is made. Nothing modelled
//! can tell which ran.

use crate::candidates::{ap_gen_bounded, job_candidates, CandidateList, Chain, GenWork, Level};
use crate::encode::tri_len;
use crate::types::{Item, Itemset, JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS};
use yafim_cluster::{ByteSize, SimCluster, SimDuration};

/// Largest total bitset arena (in `u64` words, across all partitions) the
/// bitmap strategy will materialize — 2²⁴ words = 128 MiB, mirroring
/// [`TRIANGLE_MAX_CELLS`](crate::encode::TRIANGLE_MAX_CELLS). Beyond this
/// the engine falls back to the hash tree: counts are identical either way, only
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

/// The virtual time one speculative level adds to a bitmap job on
/// `cluster` were all its candidates infrequent: at most `joins` (`J`)
/// `k`-candidates, counted by `tasks` tasks over `words` words per item row
/// (`W`, summed over the tasks). Priced as the driver's join and prune
/// (`J·(k+2)` units), the broadcast of `J·(8+4k)` bytes and its
/// preparation, the result combine of `J` cells from every task (what
/// `try_aggregate` charges for `(u32, u64)` records) and the task words
/// `J·(k−1)·W` spread over the cores.
pub(crate) fn level_price(
    cluster: &SimCluster,
    k: u64,
    joins: u64,
    tasks: u64,
    words: u64,
) -> SimDuration {
    let (cost, spec) = (cluster.cost(), cluster.spec());
    let bytes = joins.saturating_mul(8 + 4 * k);
    let records = joins.saturating_mul(tasks);
    let combined = records.saturating_mul((0u32, 0u64).byte_size());
    let word_units = joins.saturating_mul(k - 1).saturating_mul(words);
    let cores = f64::from(spec.nodes * spec.cores_per_node);
    cost.cpu(joins.saturating_mul(k + 2))
        + (cost.broadcast_torrent(bytes, spec.nodes) + cost.cpu(joins))
        + (cost.serialize(combined) + cost.net_transfer(combined) + cost.cpu(records))
        + cost.cpu(word_units.saturating_mul(JVM_BITMAP_WORD_UNITS)) / cores
}

/// The candidate levels one bitmap job counts from `known` = `L_1 …
/// L_{pass−1}` with their supports, over a store of `lines` lines in
/// `tasks` tasks on `cluster`: the first level by the support-bounded
/// `ap_gen` (`σ(∅) = lines`, MinSup `min_sup`; from pass 2 on, `C_2` is
/// every pair of `L_1`), then the candidate chain, which admits no
/// speculative level from the candidate level `from` when `J` (`ap_gen`'s
/// join pairs over `from`) is 0, when `from` is itself speculative and `J`
/// passes `|from|` (speculation would compound), when the job's count
/// array, its cells so far plus `J`, would pass the armed governor's
/// per-task limit, or when the levels' summed [`level_price`] would pass
/// one launch (`spark_job_overhead + spark_stage_overhead`): speculation
/// never costs more than the job it saves. Returns the levels and their
/// `ap_gen` work.
pub(crate) fn chained_levels(
    known: &[Level],
    pass: usize,
    max_passes: usize,
    cluster: &SimCluster,
    lines: usize,
    tasks: usize,
    min_sup: u64,
) -> (Vec<CandidateList>, GenWork) {
    let cost = cluster.cost();
    let words = (lines.div_ceil(64) + tasks) as u64;
    let limit = cluster.memory_budget().map(|b| b.per_task_limit);
    let launch = SimDuration::from_secs(cost.spark_job_overhead + cost.spark_stage_overhead);
    let (mut cells, mut spent) = (0u64, SimDuration::ZERO);
    let admit = &mut |from: &CandidateList, joins: u64| {
        // The first level is counted either way; a level grown from it may
        // be wider, one grown from a speculative level may not.
        let first = cells == 0;
        cells += from.len() as u64;
        let k = from.k as u64 + 1;
        spent += level_price(cluster, k, joins, tasks as u64, words);
        joins >= 1
            && (first || joins <= from.len() as u64)
            && limit.is_none_or(|limit| 8 * (cells + joins) <= limit)
            && spent <= launch
    };
    let first = ap_gen_bounded(known, lines as u64, min_sup);
    job_candidates(first, pass, max_passes, Chain::Priced(admit))
}

/// [`chained_levels`] for a caller outside the crate, over `known` held as
/// `(itemset, support)` pairs, each level ascending; the candidate levels
/// come back as itemsets.
pub fn chained_candidates(
    known: &[Vec<(Itemset, u64)>],
    pass: usize,
    max_passes: usize,
    cluster: &SimCluster,
    lines: usize,
    tasks: usize,
    min_sup: u64,
) -> (Vec<Vec<Itemset>>, GenWork) {
    let known: Vec<Level> = (1..)
        .zip(known)
        .map(|(k, l)| Level::from_pairs(k, l))
        .collect();
    let (levels, work) = chained_levels(&known, pass, max_passes, cluster, lines, tasks, min_sup);
    (
        levels.iter().map(CandidateList::to_itemsets).collect(),
        work,
    )
}

/// One partition of the vertical store: a row-major `Vec<u64>` arena with
/// one `words_per_item`-wide bitset row per dense item rank; bit `t` of row
/// `r` is set iff partition-local transaction `t` contains rank `r`.
#[derive(Clone, Debug)]
pub struct ColumnarPartition {
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
    /// with a non-zero partition-local count, in index order. Returns the
    /// number of `u64` words intersected — the work estimate virtual time
    /// is charged from. [`ColumnarPartition::count_list`] over the
    /// candidates flattened.
    pub fn count_candidates(
        &self,
        candidates: &[Itemset],
        scratch: &mut BitmapScratch,
        f: &mut dyn FnMut(usize, u64),
    ) -> u64 {
        let mut acc = vec![0u64; candidates.len()];
        let (words, _) = self.count_list(&CandidateList::new(candidates), scratch, &mut acc);
        for (i, &count) in acc.iter().enumerate().filter(|&(_, &c)| c > 0) {
            f(i, count);
        }
        words
    }

    /// Add each candidate of `list`'s support in this partition into
    /// `acc[index]` (`acc` holds one cell per candidate). Returns the number
    /// of `u64` words intersected — the work estimate virtual time is
    /// charged from — and of candidates found (nonzero supports).
    ///
    /// Adjacent candidates share prefix intersections through `scratch`:
    /// level `d` of the scratch holds `row(c[0]) ∧ … ∧ row(c[d+1])` and is
    /// recomputed only from the first position where the candidate departs
    /// from its predecessor.
    pub fn count_list(
        &self,
        list: &CandidateList,
        scratch: &mut BitmapScratch,
        acc: &mut [u64],
    ) -> (u64, u64) {
        let mut found = 0;
        let words = self.count_with(list, scratch, acc, |_, count| {
            found += u64::from(count > 0);
        });
        (words, found)
    }

    /// [`ColumnarPartition::count_list`] that also hands each candidate's
    /// index and support to `seen`, in index order. Returns the words
    /// intersected.
    pub(crate) fn count_with(
        &self,
        list: &CandidateList,
        scratch: &mut BitmapScratch,
        acc: &mut [u64],
        seen: impl FnMut(usize, u64),
    ) -> u64 {
        assert_ne!(list.k, 1, "bitmap counting starts at pass 2");
        assert_eq!(acc.len(), list.len(), "one count cell per candidate");
        #[cfg(target_arch = "x86_64")]
        if scratch.popcnt {
            // SAFETY: `popcnt` is set only by `BitmapScratch::default`, and
            // only when the host reports the feature.
            return unsafe { count_list_popcnt(self, list, &mut scratch.levels, acc, seen) };
        }
        count_list_body(self, list, &mut scratch.levels, acc, seen)
    }
}

impl ByteSize for ColumnarPartition {
    fn byte_size(&self) -> u64 {
        32 + 8 * self.rows.len() as u64
    }
}

/// The columnar count, one flat loop: `list`'s candidates in order, the
/// stored prefix levels in one `(k−2)·w` buffer, each support added
/// straight into its cell and handed to `seen` with its candidate's index. Level `d` holds `row(c[0]) ∧ … ∧
/// row(c[d+1])`, so a `k`-candidate keeps levels `0..k-2` and streams the
/// final intersection; the top level, when stale, is recomputed in the same
/// sweep as the final intersection it feeds. `words` charges `w` per level
/// recomputed plus `w` for the final intersection, whatever the host's
/// instructions do.
#[inline(always)]
fn count_list_body(
    col: &ColumnarPartition,
    list: &CandidateList,
    levels: &mut Vec<u64>,
    acc: &mut [u64],
    mut seen: impl FnMut(usize, u64),
) -> u64 {
    let (k, w) = (list.k, col.words_per_item);
    if list.items.is_empty() {
        return 0;
    }
    let top = k - 2;
    levels.clear();
    levels.resize(top * w, 0);
    let row = |item: Item| col.row(item as usize);
    let mut words = 0u64;
    let cands = list.items.chunks_exact(k).zip(&list.stale);
    for (i, ((cand, &stale), cell)) in cands.zip(acc).enumerate() {
        let stale = stale as usize;
        words += ((top - stale + 1) * w) as u64;
        let last = row(cand[k - 1]);
        let count = if top == 0 {
            and_count(row(cand[0]), last)
        } else {
            for d in stale..top - 1 {
                let (done, rest) = levels.split_at_mut(d * w);
                let left = if d == 0 {
                    row(cand[0])
                } else {
                    &done[(d - 1) * w..]
                };
                let pairs = rest[..w].iter_mut().zip(left).zip(row(cand[d + 1]));
                pairs.for_each(|((dst, a), b)| *dst = a & b);
            }
            let (below, level) = levels.split_at_mut((top - 1) * w);
            if stale < top {
                let left = if top == 1 {
                    row(cand[0])
                } else {
                    &below[(top - 2) * w..]
                };
                let sweep = level.iter_mut().zip(left).zip(row(cand[top])).zip(last);
                let counts = sweep.map(|(((dst, a), b), c)| {
                    *dst = a & b;
                    u64::from((*dst & c).count_ones())
                });
                counts.sum()
            } else {
                and_count(level, last)
            }
        };
        *cell += count;
        seen(i, count);
    }
    words
}

/// `popcount(a ∧ b)`, word by word.
#[inline(always)]
fn and_count(a: &[u64], b: &[u64]) -> u64 {
    let words = a.iter().zip(b);
    words.map(|(x, y)| u64::from((x & y).count_ones())).sum()
}

/// [`count_list_body`] compiled a second time, for hardware popcount: the
/// whole loop, so every `count_ones` in it is one instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn count_list_popcnt(
    col: &ColumnarPartition,
    list: &CandidateList,
    levels: &mut Vec<u64>,
    acc: &mut [u64],
    seen: impl FnMut(usize, u64),
) -> u64 {
    count_list_body(col, list, levels, acc, seen)
}

/// One task's state for the columnar kernel: the prefix levels of
/// [`ColumnarPartition::count_list`], reused across candidates and passes,
/// and the instruction set the kernel runs on, picked when the scratch is
/// made: hardware popcount where the host has it, the portable body
/// elsewhere. Counts and words are the same either way.
pub struct BitmapScratch {
    levels: Vec<u64>,
    popcnt: bool,
}

impl Default for BitmapScratch {
    fn default() -> Self {
        #[cfg(target_arch = "x86_64")]
        let popcnt = is_x86_feature_detected!("popcnt");
        #[cfg(not(target_arch = "x86_64"))]
        let popcnt = false;
        let levels = Vec::new();
        BitmapScratch { levels, popcnt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_data::rng::StdRng;

    /// The `Vec<Itemset>` a [`CandidateList`] flattens, sized as it was
    /// when it was broadcast as such.
    struct CandidateListOf<'a>(&'a [Itemset]);

    impl ByteSize for CandidateListOf<'_> {
        fn byte_size(&self) -> u64 {
            8 + self.0.iter().map(ByteSize::byte_size).sum::<u64>()
        }
    }

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

    /// The words `count_list` charges: `w` per prefix level recomputed
    /// (every level for the first candidate, those from the first changed
    /// position on afterwards) plus `w` for the final intersection.
    fn charged_words(cands: &[Itemset], w: usize) -> u64 {
        let mut prev: &[Item] = &[];
        let mut words = 0;
        for cand in cands {
            let (items, levels) = (cand.items(), cand.len() - 2);
            let common = prev.iter().zip(items).take_while(|(a, b)| a == b).count();
            words += (levels - common.saturating_sub(1).min(levels) + 1) * w;
            prev = items;
        }
        words as u64
    }

    /// Up to 40 sorted, distinct `k`-sets over `0..n`: runs sharing their
    /// first `k − 1` items (shape 0), sets of distinct first items, so no
    /// two share a prefix (shape 1), or uniform draws.
    fn random_candidates(rng: &mut StdRng, n: u32, k: usize, shape: usize) -> Vec<Itemset> {
        let mut sets = std::collections::BTreeSet::new();
        for draw in 0..40 {
            let items: Vec<Item> = match shape {
                0 => {
                    let base = rng.gen_range(0..n - k as u32);
                    let mut run: Vec<Item> = (base..base + k as u32 - 1).collect();
                    run.push(rng.gen_range(base + k as u32 - 1..n));
                    run
                }
                1 => {
                    let first = draw % (n - k as u32 + 1);
                    let mut rest: Vec<Item> = (first + 1..n).collect();
                    while rest.len() > k - 1 {
                        rest.remove(rng.gen_range(0..rest.len()));
                    }
                    [vec![first], rest].concat()
                }
                _ => {
                    let mut t: Vec<Item> = Vec::new();
                    while t.len() < k {
                        let item = rng.gen_range(0..n);
                        if !t.contains(&item) {
                            t.push(item);
                        }
                    }
                    t
                }
            };
            sets.insert(Itemset::new(items));
        }
        sets.into_iter().collect()
    }

    #[test]
    fn the_flat_kernel_counts_what_subset_counting_counts() {
        let mut rng = StdRng::seed_from_u64(0xb17_3a9);
        let n = 12u32;
        // 0, 1, 9 and 65 words per row.
        for n_tids in [0usize, 37, 521, 4100] {
            let txs: Vec<Vec<Item>> = (0..n_tids)
                .map(|_| (0..n).filter(|_| rng.gen_range(0..10u32) < 6).collect())
                .collect();
            let col = ColumnarPartition::build(n as usize, &txs);
            let w = n_tids.div_ceil(64);
            let mut scratch = BitmapScratch::default();
            for k in 2..=6 {
                for shape in 0..3 {
                    let cands = random_candidates(&mut rng, n, k, shape);
                    let label = format!("{n_tids} tids, k={k}, shape {shape}");
                    let list = CandidateList::new(&cands);
                    assert_eq!(list.len(), cands.len());
                    assert_eq!(list.byte_size(), CandidateListOf(&cands).byte_size());

                    let naive: Vec<u64> = cands.iter().map(|c| count_naive(&txs, c)).collect();
                    let found = naive.iter().filter(|&&c| c > 0).count() as u64;
                    let expected = (charged_words(&cands, w), found);
                    // Both bodies, on an accumulator already holding counts.
                    let mut portable = BitmapScratch {
                        levels: Vec::new(),
                        popcnt: false,
                    };
                    for body in [&mut portable, &mut scratch] {
                        let mut acc: Vec<u64> = (0..cands.len() as u64).collect();
                        let got = col.count_list(&list, body, &mut acc);
                        assert_eq!(got, expected, "{label}, popcnt {}", body.popcnt);
                        let counts = acc.iter().zip(0..).map(|(c, i)| c - i);
                        assert!(counts.eq(naive.iter().copied()), "{label}");
                    }

                    // The public entry reports the same cells and words.
                    let mut calls = Vec::new();
                    let f = &mut |i, c| calls.push((i, c));
                    let words = col.count_candidates(&cands, &mut scratch, f);
                    let nonzero = naive.iter().enumerate().filter(|&(_, &c)| c > 0);
                    assert_eq!(words, expected.0, "{label}");
                    assert_eq!(calls, nonzero.map(|(i, &c)| (i, c)).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn the_chain_stops_where_it_would_grow_cost_a_launch_or_pass_the_limit() {
        use crate::candidates::join_pairs;
        use crate::candidates::tests::{generated, itemsets, level_of, random_level};
        use yafim_cluster::{ClusterSpec, CostModel, FaultPlan};
        let cluster = || SimCluster::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        let pairs = |n| (0..n).flat_map(move |a| (a + 1..n).map(move |b| Itemset::new(vec![a, b])));
        // `seed` alone, sorted: no lower level, so the bound keeps everything.
        let known = |seed: &[Itemset]| [level_of(seed)];
        let levels = |seed: &[Itemset], max, c: &SimCluster, tasks| {
            chained_levels(&known(seed), 3, max, c, 1000, tasks, 1)
                .0
                .len()
        };
        // Every pair of 4 items: 4 triples join once into 1 quadruple, then
        // nothing; every pair of 8: 56 triples join 70 times, and from there
        // the chain narrows.
        let (small, wide): (Vec<_>, Vec<_>) = (pairs(4).collect(), pairs(8).collect());
        assert_eq!(levels(&small, 0, &cluster(), 8), 2);
        let unpriced = job_candidates(generated(&wide), 3, 0, Chain::Levels(usize::MAX)).0;
        assert_eq!(unpriced.len(), 6);
        assert_eq!(levels(&wide, 0, &cluster(), 8), 6, "grown from the first");
        assert_eq!(levels(&small, 3, &cluster(), 8), 1, "max_passes");
        // Ten million tasks' result combine costs more than a launch.
        assert_eq!(levels(&small, 0, &cluster(), 10_000_000), 1, "priced out");
        // A 4-cell count array is over a 16-byte node's per-task limit.
        let tight = cluster();
        let plan = FaultPlan::seeded(1).with_mem_budget(16);
        tight.faults().set_plan(plan);
        assert_eq!(levels(&small, 0, &tight, 8), 1, "the governor's limit");

        let mut rng = yafim_data::rng::StdRng::seed_from_u64(0x5bec);
        for (k, tasks) in (2..=4).flat_map(|k| [1, 8, 64].map(|tasks| (k, tasks))) {
            let seed = random_level(&mut rng, k, 6 + 2 * k as u32);
            let full = job_candidates(generated(&seed), k + 1, 0, Chain::Levels(usize::MAX)).0;
            let (chain, _) = chained_levels(&known(&seed), k + 1, 0, &cluster(), 1000, tasks, 1);
            assert_eq!(
                itemsets(&chain)[..],
                itemsets(&full)[..chain.len()],
                "a prefix"
            );
            // Only a level grown from a speculative one is held to `J ≤ |from|`.
            for (i, from) in chain[..chain.len().saturating_sub(1)].iter().enumerate() {
                let most = if i == 0 { u64::MAX } else { from.len() as u64 };
                assert!((1..=most).contains(&join_pairs(from)));
            }
        }
    }

    #[test]
    fn a_level_grown_from_the_first_may_be_wider_but_speculation_never_compounds() {
        use crate::candidates::join_pairs;
        use yafim_cluster::{ClusterSpec, CostModel};
        let cluster = SimCluster::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        // Pass 2 over 8 frequent items: `C_2` is their 28 pairs, which join
        // 56 times into every triple; the 56 triples would join 70 times.
        let l1: Vec<_> = (0..8).map(|i| (Itemset::single(i), 100)).collect();
        let known = [Level::from_pairs(1, &l1)];
        let chain = |tasks| chained_levels(&known, 2, 0, &cluster, 1000, tasks, 1).0;
        let levels = chain(8);
        let sizes: Vec<usize> = levels.iter().map(CandidateList::len).collect();
        assert_eq!(sizes, [28, 56], "level 3 admitted, level 4 refused");
        assert!(join_pairs(&levels[0]) > 28 && join_pairs(&levels[1]) > 56);
        let words = (1000usize.div_ceil(64) + 8) as u64;
        let launch = cluster.cost().spark_job_overhead + cluster.cost().spark_stage_overhead;
        assert!(level_price(&cluster, 3, 56, 8, words).as_secs() <= launch);
        // Priced over a launch, level 3 is not admitted either.
        assert_eq!(chain(10_000_000).len(), 1);
    }

    #[test]
    fn a_level_is_priced_monotone_in_its_joins() {
        use yafim_cluster::{ClusterSpec, CostModel};
        let cluster = SimCluster::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        for k in 3..=8 {
            let price = |joins| level_price(&cluster, k, joins, 16, 200);
            assert_eq!(price(0), SimDuration::ZERO);
            for joins in (0..5000).step_by(7) {
                assert!(price(joins) < price(joins + 1), "k={k} J={joins}");
            }
        }
    }

    #[test]
    fn density_guard_mirrors_triangle_guard() {
        assert!(bitmap_fits(300, 6000, 32));
        assert!(bitmap_fits(0, 0, 0));
        // 2M items × 2M lines would need ~2^31+ words.
        assert!(!bitmap_fits(1 << 21, 1 << 21, 16));
    }
}
