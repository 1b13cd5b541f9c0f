//! Randomized-but-deterministic tests over the mining core.
//!
//! Strategy: small seeded transaction databases and candidate sets, checked
//! against independent oracles — brute force, naive matchers, and the
//! algebraic invariants of frequent itemset mining.

use yafim_core::candidates::{ap_gen, ap_gen_naive};
use yafim_core::{
    apriori, brute_force, eclat, fp_growth, generate_rules, HashTree, Itemset, MatchScratch,
    Support,
};
use yafim_data::rng::StdRng;

/// A random transaction over a small universe: sorted, deduplicated,
/// non-empty subsets of 0..12.
fn transaction(rng: &mut StdRng) -> Vec<u32> {
    let n = rng.gen_range(1usize..8);
    let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..12)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn database(rng: &mut StdRng) -> Vec<Vec<u32>> {
    let n = rng.gen_range(1usize..24);
    (0..n).map(|_| transaction(rng)).collect()
}

/// A random candidate set of equal-length itemsets.
fn candidate_set(rng: &mut StdRng, k: usize) -> Vec<Itemset> {
    let n = rng.gen_range(0usize..30);
    let mut seen = std::collections::HashSet::new();
    (0..n)
        .map(|_| {
            let raw: Vec<u32> = (0..k).map(|_| rng.gen_range(0u32..15)).collect();
            Itemset::new(raw)
        })
        .filter(|s| s.len() == k && seen.insert(s.clone()))
        .collect()
}

fn raw_items(rng: &mut StdRng, max_len: usize, universe: u32) -> Vec<u32> {
    let n = rng.gen_range(0usize..max_len.max(1));
    (0..n).map(|_| rng.gen_range(0u32..universe)).collect()
}

fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

const CASES: usize = 64;

#[test]
fn itemset_new_is_sorted_dedup() {
    let mut rng = StdRng::seed_from_u64(50);
    for _ in 0..CASES {
        let items = raw_items(&mut rng, 20, 100);
        let s = Itemset::new(items.clone());
        assert!(s.items().windows(2).all(|w| w[0] < w[1]));
        for i in items {
            assert!(s.contains(i));
        }
    }
}

#[test]
fn subset_test_matches_hashset_semantics() {
    let mut rng = StdRng::seed_from_u64(51);
    for _ in 0..CASES {
        let a = raw_items(&mut rng, 8, 20);
        let b = raw_items(&mut rng, 12, 20);
        let sub = Itemset::new(a);
        let sup = sorted_dedup(b);
        let expected = sub.items().iter().all(|i| sup.contains(i));
        assert_eq!(sub.is_subset_of_sorted(&sup), expected);
    }
}

#[test]
fn hash_tree_agrees_with_naive() {
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..CASES {
        let cands = candidate_set(&mut rng, 3);
        let t = sorted_dedup(raw_items(&mut rng, 12, 15));
        let tree = HashTree::build(cands);
        let mut fast = Vec::new();
        let mut scratch = MatchScratch::default();
        tree.for_each_match(&t, &mut scratch, |i| fast.push(i));
        fast.sort_unstable();
        let mut naive = tree.matches_naive(&t);
        naive.sort_unstable();
        assert_eq!(fast, naive);
    }
}

#[test]
fn hash_tree_never_double_counts() {
    let mut rng = StdRng::seed_from_u64(53);
    for _ in 0..CASES {
        let cands = candidate_set(&mut rng, 2);
        let t = sorted_dedup(raw_items(&mut rng, 12, 15));
        let tree = HashTree::build(cands);
        let mut counts = vec![0u32; tree.len()];
        let mut scratch = MatchScratch::default();
        tree.for_each_match(&t, &mut scratch, |i| counts[i] += 1);
        assert!(counts.iter().all(|&c| c <= 1));
    }
}

#[test]
fn ap_gen_agrees_with_naive() {
    let mut rng = StdRng::seed_from_u64(54);
    for _ in 0..CASES {
        let cands = candidate_set(&mut rng, 2);
        let (fast, _) = ap_gen(&cands);
        assert_eq!(fast, ap_gen_naive(&cands));
    }
}

#[test]
fn ap_gen_output_has_length_k_plus_1() {
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..CASES {
        let cands = candidate_set(&mut rng, 3);
        let (out, _) = ap_gen(&cands);
        assert!(out.iter().all(|s| s.len() == 4));
        // Sorted and unique.
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn apriori_equals_brute_force() {
    let mut rng = StdRng::seed_from_u64(56);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let sup = rng.gen_range(1u64..6);
        let a = apriori(&db, Support::Count(sup));
        let b = brute_force(&db, Support::Count(sup), 8);
        assert_eq!(a, b);
    }
}

#[test]
fn three_miners_agree() {
    let mut rng = StdRng::seed_from_u64(57);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let sup = rng.gen_range(1u64..6);
        let a = apriori(&db, Support::Count(sup));
        let e = eclat(&db, Support::Count(sup));
        let f = fp_growth(&db, Support::Count(sup));
        assert_eq!(&a, &e);
        assert_eq!(&a, &f);
    }
}

#[test]
fn monotonicity_of_support() {
    let mut rng = StdRng::seed_from_u64(58);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let sup = rng.gen_range(1u64..5);
        let r = apriori(&db, Support::Count(sup));
        for (set, s) in r.iter() {
            assert!(*s >= sup);
            for sub in set.one_item_removed() {
                if sub.is_empty() {
                    continue;
                }
                let sub_sup = r.support_of(&sub);
                assert!(sub_sup.is_some(), "subset {sub} of {set} missing");
                assert!(sub_sup.expect("checked") >= *s);
            }
        }
    }
}

#[test]
fn support_counts_are_exact() {
    let mut rng = StdRng::seed_from_u64(59);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let sup = rng.gen_range(1u64..5);
        let r = apriori(&db, Support::Count(sup));
        for (set, s) in r.iter() {
            let actual = db.iter().filter(|t| set.is_subset_of_sorted(t)).count() as u64;
            assert_eq!(*s, actual, "support of {} wrong", set);
        }
    }
}

#[test]
fn raising_support_shrinks_results() {
    let mut rng = StdRng::seed_from_u64(60);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let lo = apriori(&db, Support::Count(1));
        let hi = apriori(&db, Support::Count(3));
        assert!(hi.total() <= lo.total());
        // Everything frequent at the high threshold is frequent at the low.
        for (set, s) in hi.iter() {
            assert_eq!(lo.support_of(set), Some(*s));
        }
    }
}

#[test]
fn rules_are_consistent() {
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let conf: f64 = rng.gen();
        let r = apriori(&db, Support::Count(1));
        let rules = generate_rules(&r, db.len() as u64, conf);
        for rule in rules {
            assert!(rule.confidence >= conf - 1e-9);
            assert!(rule.confidence <= 1.0 + 1e-9);
            assert!(rule.lift > 0.0);
            // support(A ∪ B) really is the rule's support.
            let joint: Itemset = rule
                .antecedent
                .items()
                .iter()
                .chain(rule.consequent.items())
                .copied()
                .collect();
            assert_eq!(r.support_of(&joint), Some(rule.support));
        }
    }
}

#[test]
fn fraction_and_count_supports_agree() {
    let mut rng = StdRng::seed_from_u64(63);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let n = db.len() as u64;
        let frac = apriori(&db, Support::Fraction(0.5));
        let count = apriori(&db, Support::Count((n as f64 * 0.5).ceil() as u64));
        assert_eq!(frac, count);
    }
}
