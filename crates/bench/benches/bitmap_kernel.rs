//! Microbench: vertical TID-bitmap counting vs trie matching — the two
//! `k ≥ 3` Phase-II strategies, head to head on the raw kernel.
//!
//! The bitmap side intersects one `u64` row per candidate item and
//! popcounts the final level (with the prefix-reuse scratch exploiting the
//! sorted candidate order); the trie side walks every transaction through
//! the candidate trie. Two density regimes bound the crossover:
//!
//! * **dense** — QUEST-like: small alphabet, long transactions (~25% of
//!   the rows set), the regime the columnar layout targets;
//! * **sparse** — T10-like: wide alphabet, short transactions (~2% set),
//!   where most intersected words are zero and the trie's early exits
//!   shine.
//!
//! Also prints the [`CostModel::bitmap_build`] virtual estimate next to
//! the measured build time, so the simulator's charge can be sanity-checked
//! against the real kernel.
//!
//! Then pass 2 of the bitmap plan, rows against columns, on one partition
//! shaped like a Pumsb_star 65 % task (255 rows of ~21 of 25 items) and one
//! like a T10I4D100K 0.25 % task (520 rows of ~11.5 of 782): the row
//! triangle (the engine's loop: row-relative cells and a touched bit per
//! cell) against the columnar build plus every pair's AND + popcount
//! ([`ColumnarPartition::add_pairs`]), next to the two bounds
//! [`pass2_bounds`] prices this one partition at. The faster layout on the
//! host should be the one the rule picks.
//!
//! Last, a whole `k ≥ 3` pass as T10I4D100K 0.25 % runs it: 192 partitions
//! of 521 TIDs over 782 ranks against 3 848 sorted 3-candidates, counted by
//! [`ColumnarPartition::count_list`] over one flat [`CandidateList`], in ns
//! per (candidate × partition). The draws share few prefixes, so nearly
//! every candidate pays both of its intersections.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_cluster::CostModel;
use yafim_core::bitmap::pass2_bounds;
use yafim_core::encode::{tri_index, tri_len};
use yafim_core::{BitmapScratch, CandidateList, CandidateTrie, ColumnarPartition, Itemset};
use yafim_data::rng::StdRng;

/// Dense-encoded transactions: `n` sorted, deduped draws over `0..items`.
fn transactions(n: usize, len: usize, items: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..items)).collect();
            t.sort_unstable();
            t.dedup();
            t.truncate(len);
            t
        })
        .collect()
}

/// `n` distinct k-itemsets over `0..items`, sorted like `ap_gen` output so
/// the bitmap's prefix-reuse scratch sees realistic candidate ordering.
fn candidates(n: usize, k: usize, items: u32, seed: u64) -> Vec<Itemset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = std::collections::HashSet::new();
    while out.len() < n {
        let mut picks = Vec::with_capacity(k);
        while picks.len() < k {
            let i = rng.gen_range(0..items);
            if !picks.contains(&i) {
                picks.push(i);
            }
        }
        out.insert(Itemset::new(picks));
    }
    let mut sorted: Vec<Itemset> = out.into_iter().collect();
    sorted.sort();
    sorted
}

fn regime(name: &str, txs: &[Vec<u32>], items: u32, cands: &[Itemset]) {
    let col = ColumnarPartition::build(items as usize, txs);
    let set_bits = col.build_cost_units() - col.arena_words() as u64;
    let density = set_bits as f64 / (64 * col.arena_words()) as f64;
    let virt = CostModel::hadoop_era().bitmap_build(col.arena_words() as u64, set_bits);
    println!(
        "\n-- {name}: {} tx, {items} items, density {:.1}%, |C| = {} \
         (virtual build estimate: {virt}) --",
        txs.len(),
        density * 100.0,
        cands.len()
    );

    header(&format!("{name}/build"));
    bench("columnar build", 20, || {
        ColumnarPartition::build(items as usize, black_box(txs))
    });
    bench("trie build", 20, || {
        CandidateTrie::build(black_box(cands.to_vec()))
    });

    header(&format!("{name}/count"));
    bench("bitmap intersect+popcount", 20, || {
        let mut scratch = BitmapScratch::default();
        let mut hits = 0u64;
        let words = col.count_candidates(cands, &mut scratch, &mut |_, c| hits += c);
        black_box((words, hits))
    });
    let trie = CandidateTrie::build(cands.to_vec());
    bench("trie per-transaction match", 20, || {
        let mut counts = vec![0u64; cands.len()];
        let mut visits = 0u64;
        for t in txs {
            visits += trie.for_each_match(t, &mut |i| counts[i] += 1);
        }
        black_box((visits, counts))
    });
}

/// The row triangle over one partition: every pair of every row, counted
/// in its cell with the cell's touched bit set, then the touched cells
/// popcounted and cleared (the records the partition ships).
fn rows_pass_2(txs: &[Vec<u32>], n: usize, acc: &mut [u64], touched: &mut [u64]) -> u64 {
    for t in txs {
        for i in 0..t.len().saturating_sub(1) {
            let base = tri_index(n, t[i] as usize, t[i] as usize + 1);
            for &b in &t[i + 1..] {
                let cell = base + (b - t[i]) as usize - 1;
                acc[cell] += 1;
                touched[cell / 64] |= 1 << (cell % 64);
            }
        }
    }
    touched
        .iter_mut()
        .map(|w| std::mem::take(w).count_ones() as u64)
        .sum()
}

fn pass_2(name: &str, txs: &[Vec<u32>], n: usize) {
    let occ = txs.iter().map(|t| t.len() as u64).sum();
    let (columns, rows) = pass2_bounds(n, txs.len(), 1, occ);
    let pick = if columns < rows { "columns" } else { "rows" };
    header(&format!(
        "{name}/pass 2: columns <= {columns} units, rows >= {rows} units: the rule picks {pick}"
    ));
    let mut acc = vec![0u64; tri_len(n)];
    let mut touched = vec![0u64; tri_len(n).div_ceil(64)];
    let by_rows = bench("rows: triangle fill", 50, || {
        rows_pass_2(black_box(txs), n, &mut acc, &mut touched)
    });
    let by_columns = bench("columns: build + AND/popcount every pair", 50, || {
        let col = ColumnarPartition::build(n, black_box(txs));
        col.add_pairs(&BitmapScratch::default(), &mut acc)
    });
    let faster = if by_columns < by_rows {
        "columns"
    } else {
        "rows"
    };
    let (by_rows, by_columns) = (by_rows * 1e9, by_columns * 1e9);
    println!(
        "host: {faster} faster, rows {by_rows:.0} ns vs columns {by_columns:.0} ns a partition"
    );
}

fn pass_3_t10() {
    let cols: Vec<ColumnarPartition> = (0..192)
        .map(|p| ColumnarPartition::build(782, &transactions(521, 12, 782, 100 + p)))
        .collect();
    let cands = candidates(3_848, 3, 782, 7);
    let list = CandidateList::new(&cands);
    header("t10-shaped/pass 3: 192 partitions x 3 848 candidates");
    let mut acc = vec![0u64; cands.len()];
    let secs = bench("flat kernel, every partition", 20, || {
        let mut scratch = BitmapScratch::default();
        let words = cols
            .iter()
            .map(|col| col.count_list(&list, &mut scratch, &mut acc).0);
        black_box(words.sum::<u64>())
    });
    let evaluations = (cands.len() * cols.len()) as f64;
    println!(
        "host: {:.1} ns per (candidate x partition)",
        secs * 1e9 / evaluations
    );
}

fn main() {
    // Dense: QUEST-style regime where pass-3+ candidates stay numerous.
    let dense_items = 120u32;
    let dense_txs = transactions(4_000, 30, dense_items, 1);
    let dense_cands = candidates(20_000, 3, dense_items, 2);
    regime("dense", &dense_txs, dense_items, &dense_cands);

    // Sparse: T10-style regime — wide alphabet, short transactions.
    let sparse_items = 500u32;
    let sparse_txs = transactions(4_000, 10, sparse_items, 3);
    let sparse_cands = candidates(20_000, 3, sparse_items, 4);
    regime("sparse", &sparse_txs, sparse_items, &sparse_cands);

    // Pass 2, one task's partition of each benchmark dataset.
    pass_2("pumsb-shaped", &transactions(255, 21, 25, 5), 25);
    pass_2("t10-shaped", &transactions(520, 12, 782, 6), 782);

    pass_3_t10();
}
