//! Microbench: hash-tree construction and subset matching vs the naive
//! scan — the data-structure half of YAFIM's Phase II — and the per-row
//! match (`for_each_match`) beside the chunk count the engines run
//! (`count_rows`), and on complete pair sets the columnar kernel beside the
//! triangle `count_rows` picks for them.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_core::hashtree::CHUNK_ROWS;
use yafim_core::{
    BitmapScratch, CandidateList, ColumnarPartition, HashTree, Itemset, MatchScratch,
};
use yafim_data::rng::StdRng;

fn candidates(n: usize, k: usize, universe: u32, seed: u64) -> Vec<Itemset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = std::collections::HashSet::new();
    while out.len() < n {
        let mut items = Vec::with_capacity(k);
        while items.len() < k {
            let i = rng.gen_range(0..universe);
            if !items.contains(&i) {
                items.push(i);
            }
        }
        out.insert(Itemset::new(items));
    }
    out.into_iter().collect()
}

fn transactions(n: usize, len: usize, universe: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..universe)).collect();
            t.sort_unstable();
            t.dedup();
            t.truncate(len);
            t
        })
        .collect()
}

/// Input shaped like the paper's dense datasets: `attrs` attributes of
/// `values` values each, every transaction holding one value per attribute
/// (skewed towards the first two), and `n` distinct `k`-candidates over the
/// two common values of the first `hot` attributes. MushRoom is 23 × 5 with
/// frequent values everywhere, Pumsb_star 50 × 41 with few of them. Dense
/// transactions over few frequent items make descent paths collide, which is
/// the regime the paper's own datasets put the tree in.
fn dense_shaped(
    (attrs, values, hot): (u32, u32, u32),
    n: usize,
    k: usize,
    seed: u64,
) -> (Vec<Itemset>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cands = std::collections::BTreeSet::new();
    while cands.len() < n {
        let set: Itemset = (0..k)
            .map(|_| rng.gen_range(0..hot) * values + rng.gen_range(0..2u32))
            .collect();
        if set.len() == k {
            cands.insert(set);
        }
    }
    let txs = (0..1_000)
        .map(|_| {
            (0..attrs)
                .map(|attr| {
                    let value = match rng.gen_range(0..10u32) {
                        0..=5 => 0,
                        6..=8 => 1,
                        _ => rng.gen_range(2..values),
                    };
                    attr * values + value
                })
                .collect()
        })
        .collect();
    (cands.into_iter().collect(), txs)
}

const MUSHROOM: (u32, u32, u32) = (23, 5, 23);
const PUMSB_STAR: (u32, u32, u32) = (50, 41, 12);

/// Match every transaction; returns `(matches, visits)`.
fn match_all(tree: &HashTree, txs: &[Vec<u32>]) -> (u64, u64) {
    let mut scratch = MatchScratch::default();
    let (mut hits, mut visits) = (0u64, 0u64);
    for t in txs {
        visits += tree.for_each_match(t, &mut scratch, |_| hits += 1);
    }
    (hits, visits)
}

/// Count every row of `txs` a chunk at a time, as the engines do; returns
/// `(matches, visits)`.
fn count_all(tree: &HashTree, txs: &[Vec<u32>]) -> (u64, u64) {
    let mut acc = vec![0u64; tree.len()];
    let rows = txs.iter().map(Vec::as_slice);
    let (visits, matches, _) = tree.count_rows(rows, &mut MatchScratch::default(), &mut acc);
    (matches, visits)
}

/// Time matching every row of `txs` row by row and a chunk at a time, and
/// print visits and host ns per row of both.
fn match_shaped(name: &str, tree: &HashTree, txs: &[Vec<u32>]) {
    let (matches, visits) = match_all(tree, txs);
    assert_eq!(count_all(tree, txs), (matches, visits), "{name}");
    let per_row = |median: f64| median * 1e9 / txs.len() as f64;
    let rows = bench(name, 20, || match_all(black_box(tree), txs));
    let chunks = bench(&format!("{name}/chunks"), 20, || {
        count_all(black_box(tree), txs)
    });
    println!(
        "    {} visits per transaction over {} nodes; ns per transaction: {:.0} by rows, {:.0} by chunks",
        visits / txs.len() as u64,
        tree.num_nodes(),
        per_row(rows),
        per_row(chunks),
    );
}

/// Every pair of `items` (ascending) in `ap_gen` order, as pass 2 counts
/// them: time `count_rows` (the sweep, then the triangle) beside the columnar
/// kernel alone over the same rows in [`CHUNK_ROWS`]-row chunks, the kernel a
/// pair set that is not complete gets, and print ns per row of both.
fn pairs_shaped(name: &str, items: &[u32], txs: &[Vec<u32>]) {
    let pairs: Vec<Itemset> = items
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| {
            items[i + 1..]
                .iter()
                .map(move |&b| Itemset::new(vec![a, b]))
        })
        .collect();
    let list = CandidateList::new(&pairs);
    let n_items = txs
        .iter()
        .flatten()
        .chain(items)
        .max()
        .map_or(0, |&m| m as usize + 1);
    let columns_all = || {
        let (mut acc, mut scratch) = (vec![0u64; pairs.len()], BitmapScratch::default());
        for chunk in txs.chunks(CHUNK_ROWS) {
            ColumnarPartition::build(n_items, chunk).count_list(&list, &mut scratch, &mut acc);
        }
        acc.iter().sum::<u64>()
    };
    let tree = HashTree::build(pairs.clone());
    assert_eq!(columns_all(), count_all(&tree, txs).0, "{name}");
    let per_row = |median: f64| median * 1e9 / txs.len() as f64;
    match_shaped(name, &tree, txs);
    let columns = bench(&format!("{name}/columns"), 20, || black_box(columns_all()));
    println!(
        "    {} pairs; ns per transaction: {:.0} by the columnar kernel alone (no sweep)",
        pairs.len(),
        per_row(columns),
    );
}

fn main() {
    header("hashtree_build");
    for &n in &[1_000usize, 10_000, 50_000] {
        let cands = candidates(n, 3, 500, 1);
        bench(&format!("build/{n}"), 20, || {
            HashTree::build(black_box(cands.clone()))
        });
    }

    header("hashtree_match_1k_tx");
    let txs = transactions(1_000, 20, 500, 2);
    for &n in &[1_000usize, 10_000] {
        let tree = HashTree::build(candidates(n, 3, 500, 1));
        bench(&format!("tree/{n}"), 10, || {
            match_all(black_box(&tree), &txs)
        });
        bench(&format!("naive/{n}"), 10, || {
            let mut hits = 0usize;
            for t in &txs {
                hits += tree.matches_naive(t).len();
            }
            black_box(hits)
        });
    }

    // Visits are the hash paths a walk of the tree follows, nodes what there
    // is to process: their ratio is what counting the paths (PR 21) removes.
    for (shape, name, ks) in [
        (MUSHROOM, "mushroom", 3..=5),
        (PUMSB_STAR, "pumsb_star", 3..=4),
    ] {
        header(&format!("hashtree_match_{name}_shaped_1k_tx"));
        for k in ks {
            let (cands, txs) = dense_shaped(shape, 500, k, 3);
            match_shaped(&format!("tree/500/k{k}"), &HashTree::build(cands), &txs);
        }
    }

    // The other regime: T10I4D100K's pass 2 under the paper plan, every pair
    // of 782 frequent items (305 k candidates, branching 139) against
    // 11-item rows. Few paths per row over a wide tree, so any cost per node
    // reached, rather than per path, shows here.
    header("hashtree_match_t10_shaped_1k_tx");
    let items: Vec<u32> = (0..782).collect();
    pairs_shaped("tree/305k/k2", &items, &transactions(1_000, 11, 782, 5));

    // MushRoom's pass 2: every pair of the two common values of each of the
    // 23 attributes (1 035 candidates, pairs within one attribute included,
    // as `ap_gen(L1)` emits them) against 23-item rows.
    header("hashtree_match_mushroom_pass2_1k_tx");
    let (attrs, values, _) = MUSHROOM;
    let items: Vec<u32> = (0..attrs)
        .flat_map(|a| [a * values, a * values + 1])
        .collect();
    pairs_shaped("tree/1035/k2", &items, &dense_shaped(MUSHROOM, 1, 2, 6).1);

    // 12 candidates fit the root leaf: no descent, so no slot per item —
    // only the membership stamps are precomputed.
    header("hashtree_match_root_leaf_1k_tx");
    let (cands, txs) = dense_shaped(MUSHROOM, 12, 4, 4);
    let tree = HashTree::build(cands);
    assert_eq!(tree.num_nodes(), 1);
    bench("tree/12/k4", 50, || match_all(black_box(&tree), &txs));
}
