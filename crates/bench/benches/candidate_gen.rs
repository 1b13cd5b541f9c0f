//! Microbench: `ap_gen` candidate generation (join + prune), the
//! driver-side step of every YAFIM pass.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_core::{ap_gen, Itemset};
use yafim_data::rng::StdRng;

/// All 2-itemsets over `n` items — the worst-case dense L2.
fn dense_l2(n: u32) -> Vec<Itemset> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            out.push(Itemset::from_sorted(vec![a, b]));
        }
    }
    out
}

/// Sparse L3: grouped 3-itemsets with shared prefixes.
fn sparse_l3(groups: u32) -> Vec<Itemset> {
    let mut out = Vec::new();
    for g in 0..groups {
        let base = g * 10;
        for x in 2..7u32 {
            out.push(Itemset::from_sorted(vec![base, base + 1, base + x]));
        }
    }
    out
}

/// Sparse L2 the size of T10I4D100K 0.25 %'s: 3 203 distinct pairs over
/// 782 items.
fn t10_l2() -> Vec<Itemset> {
    let mut rng = StdRng::seed_from_u64(10);
    let mut pairs = std::collections::BTreeSet::new();
    while pairs.len() < 3_203 {
        let (a, b) = (rng.gen_range(0..782u32), rng.gen_range(0..782u32));
        if a != b {
            pairs.insert(Itemset::new(vec![a, b]));
        }
    }
    pairs.into_iter().collect()
}

fn main() {
    header("ap_gen");
    for &n in &[30u32, 60, 120] {
        let l2 = dense_l2(n);
        bench(&format!("dense_l2/{}", l2.len()), 20, || {
            ap_gen(black_box(&l2))
        });
    }
    let l2 = t10_l2();
    bench(&format!("t10_sparse_l2/{}", l2.len()), 20, || {
        ap_gen(black_box(&l2))
    });
    for &groups in &[100u32, 1000] {
        let l3 = sparse_l3(groups);
        bench(&format!("sparse_l3/{}", l3.len()), 20, || {
            ap_gen(black_box(&l3))
        });
    }
}
