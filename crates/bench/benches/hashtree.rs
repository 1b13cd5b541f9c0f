//! Microbench: hash-tree construction and subset matching vs the naive
//! scan — the data-structure half of YAFIM's Phase II.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_core::{HashTree, Itemset, MatchScratch};
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

/// Time matching every row of `txs` and print visits and host ns per row.
fn match_shaped(name: &str, tree: &HashTree, txs: &[Vec<u32>]) {
    let visits = match_all(tree, txs).1 / txs.len() as u64;
    let median = bench(name, 20, || match_all(black_box(tree), txs));
    println!(
        "    {visits} visits per transaction over {} nodes, {:.0} ns per transaction",
        tree.num_nodes(),
        median * 1e9 / txs.len() as f64
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
    let pairs = (0..782u32)
        .flat_map(|a| (a + 1..782).map(move |b| Itemset::new(vec![a, b])))
        .collect();
    let txs = transactions(1_000, 11, 782, 5);
    match_shaped("tree/305k/k2", &HashTree::build(pairs), &txs);

    // 12 candidates fit the root leaf: no descent, so no slot per item —
    // only the membership stamps are precomputed.
    header("hashtree_match_root_leaf_1k_tx");
    let (cands, txs) = dense_shaped(MUSHROOM, 12, 4, 4);
    let tree = HashTree::build(cands);
    assert_eq!(tree.num_nodes(), 1);
    bench("tree/12/k4", 50, || match_all(black_box(&tree), &txs));
}
