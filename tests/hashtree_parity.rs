//! The hash tree, differentially: the flat arena in `yafim_core::hashtree`,
//! which counts the descent paths in one sweep over a row's positions and
//! verifies its leaves against its one list of candidate ids, 64 entries at
//! a time, against the pointer tree that walks them, which lives on here as
//! the oracle.
//!
//! `visits` feeds the virtual-time cost model and the node count sizes the
//! modelled broadcast, so both must stay exactly what the pointer tree
//! produced. The order of the match callbacks is not part of the contract
//! (DESIGN.md §5): a MapReduce mapper folds each one into a slot of the
//! job's key table and YAFIM's tasks add it into a dense accumulator, so
//! nothing downstream sees a sequence. The callbacks are compared as a sorted
//! multiset, which still says no candidate is reported twice (the oracle's
//! are checked against `matches_naive`).
//!
//! Inputs are seeded random candidate sets and transactions from the in-repo
//! RNG plus the shapes either layout treats specially: empty tree,
//! root-is-a-leaf, `|t| < k`, `|t| = k`, one very long transaction, huge item
//! ids, arrival counts far above the node count (and above what any walk
//! could finish), every item in one slot, leaves that span several 64-entry
//! mask chunks, a callback that panics mid-row, and one scratch carried
//! across trees of different branching.

use yafim::cluster::{fx_hash64, ByteSize};
use yafim::data::rng::StdRng;
use yafim::{HashTree, Item, Itemset, MatchScratch};

/// The pre-arena `HashTree`, kept verbatim apart from names: a `Vec` per
/// node, `hash % branching` on every visit, a merge per leaf entry.
mod oracle {
    use super::{fx_hash64, ByteSize, Item, Itemset};

    enum Node {
        Interior { children: Vec<Option<u32>> },
        Leaf { entries: Vec<u32> },
    }

    pub struct PointerTree {
        k: usize,
        branching: usize,
        max_leaf: usize,
        nodes: Vec<Node>,
        candidates: Vec<Itemset>,
    }

    #[derive(Default)]
    pub struct Scratch {
        stamp: Vec<u32>,
        version: u32,
    }

    impl PointerTree {
        pub fn build(candidates: Vec<Itemset>) -> Self {
            let k = candidates.first().map_or(1, Itemset::len).max(1);
            let target_leaves = (candidates.len() as f64 / 16.0).max(1.0);
            let branching = target_leaves.powf(1.0 / k as f64).ceil().clamp(8.0, 512.0) as usize;
            Self::with_params(candidates, branching, 16)
        }

        pub fn with_params(candidates: Vec<Itemset>, branching: usize, max_leaf: usize) -> Self {
            let k = candidates.first().map_or(0, Itemset::len);
            let mut tree = PointerTree {
                k,
                branching,
                max_leaf,
                nodes: vec![Node::Leaf {
                    entries: Vec::new(),
                }],
                candidates,
            };
            for idx in 0..tree.candidates.len() {
                tree.insert(idx as u32, 0, 0);
            }
            tree
        }

        pub fn num_nodes(&self) -> usize {
            self.nodes.len()
        }

        pub fn store_bytes(&self) -> u64 {
            let cands: u64 = self.candidates.iter().map(ByteSize::byte_size).sum();
            cands + 16 * self.nodes.len() as u64
        }

        fn hash_slot(&self, item: Item) -> usize {
            (fx_hash64(&item) % self.branching as u64) as usize
        }

        fn insert(&mut self, cand: u32, node: u32, depth: usize) {
            let is_leaf = matches!(self.nodes[node as usize], Node::Leaf { .. });
            if is_leaf {
                let full = match &mut self.nodes[node as usize] {
                    Node::Leaf { entries } => {
                        entries.push(cand);
                        entries.len() > self.max_leaf
                    }
                    Node::Interior { .. } => unreachable!("checked leaf above"),
                };
                if full && depth < self.k {
                    self.split_leaf(node, depth);
                }
                return;
            }

            let item = self.candidates[cand as usize].items()[depth];
            let slot = self.hash_slot(item);
            let existing = match &self.nodes[node as usize] {
                Node::Interior { children } => children[slot],
                Node::Leaf { .. } => unreachable!("checked interior above"),
            };
            let child = match existing {
                Some(c) => c,
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf {
                        entries: Vec::new(),
                    });
                    match &mut self.nodes[node as usize] {
                        Node::Interior { children } => children[slot] = Some(id),
                        Node::Leaf { .. } => unreachable!("node was interior"),
                    }
                    id
                }
            };
            self.insert(cand, child, depth + 1);
        }

        fn split_leaf(&mut self, node: u32, depth: usize) {
            let entries = match std::mem::replace(
                &mut self.nodes[node as usize],
                Node::Interior {
                    children: vec![None; self.branching],
                },
            ) {
                Node::Leaf { entries } => entries,
                Node::Interior { .. } => unreachable!("split target is a leaf"),
            };
            for cand in entries {
                self.insert(cand, node, depth);
            }
        }

        pub fn for_each_match(
            &self,
            t: &[Item],
            scratch: &mut Scratch,
            mut f: impl FnMut(usize),
        ) -> u64 {
            if self.k == 0 || t.len() < self.k {
                return 0;
            }
            scratch.version = scratch.version.wrapping_add(1);
            if scratch.version == 0 {
                scratch.stamp.clear();
                scratch.version = 1;
            }
            scratch.stamp.resize(self.nodes.len(), 0);
            let mut visits = 0u64;
            self.descend(0, t, 0, 1, scratch, &mut visits, &mut f);
            visits
        }

        #[allow(clippy::too_many_arguments)]
        fn descend(
            &self,
            node: u32,
            t: &[Item],
            pos: usize,
            depth: usize,
            scratch: &mut Scratch,
            visits: &mut u64,
            f: &mut impl FnMut(usize),
        ) {
            *visits += 1;
            match &self.nodes[node as usize] {
                Node::Leaf { entries } => {
                    if scratch.stamp[node as usize] == scratch.version {
                        return;
                    }
                    scratch.stamp[node as usize] = scratch.version;
                    for &cand in entries {
                        *visits += 1;
                        if self.candidates[cand as usize].is_subset_of_sorted(t) {
                            f(cand as usize);
                        }
                    }
                }
                Node::Interior { children } => {
                    let remaining_needed = self.k - depth;
                    let last = t.len() - remaining_needed;
                    for i in pos..last {
                        if let Some(child) = children[self.hash_slot(t[i])] {
                            self.descend(child, t, i + 1, depth + 1, scratch, visits, f);
                        }
                    }
                }
            }
        }
    }
}

use oracle::PointerTree;

/// `n` distinct `k`-itemsets (fewer if `items` cannot supply them) drawn from
/// `items`, in random order — the trees number candidates by position.
fn random_candidates(rng: &mut StdRng, items: &[Item], n: usize, k: usize) -> Vec<Itemset> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..n * 4 {
        if out.len() == n {
            break;
        }
        let set: Itemset = (0..k * 3)
            .map(|_| items[rng.gen_range(0..items.len())])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .take(k)
            .collect();
        if set.len() == k && seen.insert(set.clone()) {
            out.push(set);
        }
    }
    out
}

/// A sorted, duplicate-free transaction of about `len` items of `items`.
fn random_transaction(rng: &mut StdRng, items: &[Item], len: usize) -> Vec<Item> {
    let mut t: Vec<Item> = (0..len)
        .map(|_| items[rng.gen_range(0..items.len())])
        .collect();
    t.sort_unstable();
    t.dedup();
    t
}

/// Everything observable about matching `t`: the visit count and the
/// callbacks, sorted.
type Seen = (u64, Vec<usize>);

/// One scratch per tree; the tests carry a pair across trees on purpose.
type Scratches = (MatchScratch, oracle::Scratch);

/// The arena and the oracle over the same candidates.
struct Pair {
    new: HashTree,
    old: PointerTree,
}

impl Pair {
    fn of(new: HashTree, old: PointerTree, what: &str) -> Self {
        assert_eq!(new.num_nodes(), old.num_nodes(), "num_nodes, {what}");
        assert_eq!(new.byte_size(), old.store_bytes(), "byte_size, {what}");
        Pair { new, old }
    }

    fn build(cands: &[Itemset], what: &str) -> Self {
        Self::of(
            HashTree::build(cands.to_vec()),
            PointerTree::build(cands.to_vec()),
            what,
        )
    }

    fn with_params(cands: &[Itemset], branching: usize, max_leaf: usize, what: &str) -> Self {
        Self::of(
            HashTree::with_params(cands.to_vec(), branching, max_leaf),
            PointerTree::with_params(cands.to_vec(), branching, max_leaf),
            what,
        )
    }

    /// Match `t` on both trees and require the same visits and the same
    /// callbacks, as a multiset; also checks the matches are right.
    fn check(&self, t: &[Item], scratch: &mut Scratches, what: &str) -> Seen {
        let mut got = Vec::new();
        let visits = self.new.for_each_match(t, &mut scratch.0, |i| got.push(i));
        let mut want = Vec::new();
        let want_visits = self.old.for_each_match(t, &mut scratch.1, |i| want.push(i));
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "callbacks, {what}, t = {t:?}");
        assert_eq!(visits, want_visits, "visits, {what}, t = {t:?}");
        assert_eq!(got, self.new.matches_naive(t), "matches, {what}");
        (visits, got)
    }
}

#[test]
fn random_trees_visit_and_call_back_as_the_pointer_tree_did() {
    let mut rng = StdRng::seed_from_u64(0x15);
    let mut s = Scratches::default();
    let mut total_visits = 0u64;
    let mut total_matches = 0usize;
    for round in 0..240 {
        let k = 1 + round % 6;
        let universe: Vec<Item> = (0..rng.gen_range(k as u32 + 2..80))
            .map(|i| i * 3)
            .collect();
        let n = rng.gen_range(1..400usize);
        let cands = random_candidates(&mut rng, &universe, n, k);
        let branching = [2, 3, 8, 17, 64, 512][rng.gen_range(0..6usize)];
        let max_leaf = [1, 2, 5, 16, 32][rng.gen_range(0..5usize)];
        let what = format!("round {round}: k {k}, {n} candidates, {branching}/{max_leaf}");
        let pair = if round % 4 == 0 {
            Pair::build(&cands, &what)
        } else {
            Pair::with_params(&cands, branching, max_leaf, &what)
        };
        // The one scratch pair is never reset: every round sees stamps left
        // by trees of other node counts and other dictionaries.
        // Items between the candidates' (the universe is every third id)
        // exercise the dictionary misses.
        let wide: Vec<Item> = (0..universe.len() as u32 * 3 + 5).collect();
        // A binary tree descends on every k-subset of `t`: keep C(|t|, k)
        // affordable in a debug build.
        let max_len = [200, 200, 60, 36, 28, 24][k - 1];
        for _ in 0..12 {
            let draws = rng.gen_range(0..2 * universe.len() + 8);
            let mut t = random_transaction(&mut rng, &wide, draws);
            t.truncate(max_len);
            let (v, m) = pair.check(&t, &mut s, &what);
            total_visits += v;
            total_matches += m.len();
        }
        // |t| < k is refused without a visit; |t| = k on a candidate's own
        // items finds it.
        let own = cands[rng.gen_range(0..cands.len())].items().to_vec();
        let (v, _) = pair.check(&own[..k - 1], &mut s, &what);
        assert_eq!(v, 0, "|t| < k, {what}");
        let (_, m) = pair.check(&own, &mut s, &what);
        assert_eq!(m.len(), 1, "|t| = k, {what}");
    }
    assert!(
        total_visits > 100_000 && total_matches > 1_000,
        "the sweep must reach deep trees: {total_visits} visits, {total_matches} matches"
    );
}

#[test]
fn every_branching_and_leaf_size_keeps_the_shape() {
    let mut rng = StdRng::seed_from_u64(7);
    let universe: Vec<Item> = (0..40).collect();
    let cands = random_candidates(&mut rng, &universe, 300, 3);
    let txs: Vec<Vec<Item>> = (0..6)
        .map(|_| random_transaction(&mut rng, &universe, 18))
        .collect();
    let mut s = Scratches::default();
    for branching in (2..=16).chain([31, 32, 33, 100, 511, 512]) {
        for max_leaf in 1..=32 {
            let what = format!("{branching}/{max_leaf}");
            let pair = Pair::with_params(&cands, branching, max_leaf, &what);
            for t in &txs {
                pair.check(t, &mut s, &what);
            }
        }
    }
}

#[test]
fn degenerate_trees() {
    let mut s = Scratches::default();

    let empty = Pair::build(&[], "empty");
    assert_eq!(empty.new.num_nodes(), 1);
    assert_eq!(empty.check(&[1, 2, 3], &mut s, "empty"), (0, vec![]));
    assert_eq!(empty.check(&[], &mut s, "empty"), (0, vec![]));

    // 12 candidates under the leaf capacity: the root is the only node, and
    // a visit is the root plus one check per entry whatever `t` holds.
    let cands: Vec<Itemset> = (0..12u32)
        .map(|i| Itemset::new(vec![i, i + 1, 20 + i]))
        .collect();
    let leaf = Pair::build(&cands, "root leaf");
    assert_eq!(leaf.new.num_nodes(), 1);
    let t: Vec<Item> = (0..40).collect();
    let (visits, matches) = leaf.check(&t, &mut s, "root leaf");
    assert_eq!((visits, matches.len()), (13, 12));
    assert_eq!(
        leaf.check(&[100, 200, 300], &mut s, "root leaf"),
        (13, vec![])
    );
    assert_eq!(leaf.check(&[0, 1], &mut s, "root leaf, short"), (0, vec![]));

    // Candidates that collide on every level end in one oversized leaf at
    // depth k, which cannot split.
    let same_path: Vec<Itemset> = (0..40u32)
        .map(|i| Itemset::new(vec![2 * i, 2 * i + 100]))
        .collect();
    let deep = Pair::with_params(&same_path, 2, 1, "depth-k leaves");
    let t: Vec<Item> = (0..200).collect();
    deep.check(&t, &mut s, "depth-k leaves");

    // Zero-length candidates: k = 0 matches nothing, as it always did.
    let nothing = Pair::build(&[Itemset::new(vec![])], "k = 0");
    assert_eq!(nothing.new.for_each_match(&[1, 2], &mut s.0, |_| ()), 0);
    assert_eq!(nothing.old.for_each_match(&[1, 2], &mut s.1, |_| ()), 0);
}

#[test]
fn one_five_hundred_item_transaction() {
    let mut rng = StdRng::seed_from_u64(500);
    let universe: Vec<Item> = (0..700).collect();
    let mut s = Scratches::default();
    for k in [2, 3] {
        let cands = random_candidates(&mut rng, &universe, 2_000, k);
        let pair = Pair::build(&cands, "long transaction");
        let mut t = random_transaction(&mut rng, &universe, 2_000);
        t.truncate(500);
        assert_eq!(t.len(), 500);
        let (visits, matches) = pair.check(&t, &mut s, "long transaction");
        assert!(visits > 2_000 && !matches.is_empty());
    }
}

#[test]
fn huge_item_ids_match_as_small_ones_do() {
    // The same candidate structure over ids 0..30 and over ids spread up to
    // `u32::MAX` must need the same scratch: the arena ranks the candidate
    // items, it never indexes by id.
    let mut rng = StdRng::seed_from_u64(0xffff_ffff);
    let small: Vec<Item> = (0..30).collect();
    let mut huge: Vec<Item> = (0..28).map(|i| u32::MAX / 29 * (i + 1) + i).collect();
    huge.extend([u32::MAX - 1, u32::MAX]);
    huge.sort_unstable();
    assert_eq!(huge.len(), small.len());
    let mut s = Scratches::default();
    for k in 1..=4 {
        let cands = random_candidates(&mut rng, &small, 200, k);
        let lifted: Vec<Itemset> = cands
            .iter()
            .map(|c| c.items().iter().map(|&i| huge[i as usize]).collect())
            .collect();
        let pair = Pair::with_params(&lifted, 4, 3, "huge ids");
        for _ in 0..20 {
            let t = random_transaction(&mut rng, &huge, 25);
            pair.check(&t, &mut s, "huge ids");
        }
        // Ids around the candidates' that the tree has never seen.
        let strangers = [
            0,
            1,
            huge[3] - 1,
            huge[3],
            huge[3] + 1,
            u32::MAX - 2,
            u32::MAX,
        ];
        pair.check(&strangers, &mut s, "huge ids, strangers");
        let top = Itemset::new(huge[30 - k..].to_vec());
        let with_max = Pair::build(std::slice::from_ref(&top), "u32::MAX candidate");
        let (_, m) = with_max.check(top.items(), &mut s, "u32::MAX candidate");
        assert_eq!(m, vec![0]);
    }
}

/// `C(n, r)`, exact while it fits.
fn binomial(n: u128, r: u128) -> u128 {
    (0..r).fold(1, |c, i| c * (n - i) / (i + 1))
}

/// The first `n` items that hash to slot 0 of a `branching`-way node.
fn items_in_slot_zero(branching: u64, n: usize) -> Vec<Item> {
    let in_slot = |i: &Item| fx_hash64(i).is_multiple_of(branching);
    (0..).filter(in_slot).take(n).collect()
}

#[test]
fn arrival_counts_far_above_the_node_count() {
    // A binary tree under a 60-item transaction: a few hundred nodes, each
    // arrived at along thousands of paths.
    let mut rng = StdRng::seed_from_u64(21);
    let universe: Vec<Item> = (0..70).collect();
    let cands = random_candidates(&mut rng, &universe, 400, 5);
    let pair = Pair::with_params(&cands, 2, 2, "binary, k = 5");
    let mut s = Scratches::default();
    let t: Vec<Item> = (5..65).collect();
    let (visits, matches) = pair.check(&t, &mut s, "binary, k = 5");
    let nodes = pair.new.num_nodes() as u64;
    assert!(visits > 1_000 * nodes, "{visits} visits, {nodes} nodes");
    assert!(!matches.is_empty());
    // |t| = k: every node on the one path left is first arrived at one short
    // of its `last` (a parent stops there, so no node is met later than
    // that) and goes on from that single position.
    for c in cands.iter().take(40) {
        let (_, m) = pair.check(c.items(), &mut s, "|t| = k, binary");
        assert_eq!(m.len(), 1);
    }
}

#[test]
fn every_item_in_one_slot() {
    // Candidates and transaction collide on every level: the tree is a chain
    // of one-child nodes down to one oversized leaf at depth k, and the node
    // `d` items down is arrived at C(|t| − k + d, d) times — the paths that
    // leave k − d items after them.
    let mut s = Scratches::default();
    for (branching, k, t_len) in [(2u64, 4usize, 40usize), (3, 3, 60), (8, 5, 24)] {
        let items = items_in_slot_zero(branching, t_len);
        let cands: Vec<Itemset> = (0..6)
            .map(|i| Itemset::new(items[i..i + k].to_vec()))
            .collect();
        let what = format!("one slot, {branching}-way, k {k}");
        let pair = Pair::with_params(&cands, branching as usize, 1, &what);
        assert_eq!(pair.new.num_nodes(), k + 1, "{what}");
        let (visits, matches) = pair.check(&items, &mut s, &what);
        assert_eq!(matches.len(), cands.len(), "{what}");
        // Σ_{d ≤ k} C(|t| − k + d, d) = C(|t| + 1, k), plus the leaf's entries.
        let arrivals = binomial(t_len as u128 + 1, k as u128);
        assert_eq!(u128::from(visits), arrivals + cands.len() as u128, "{what}");
    }

    // The same chain where no walk could follow: C(101, 12) ≈ 1.2e15 paths
    // is past `u32::MAX` and still exact; C(301, 12) ≈ 1.1e21 is past
    // `u64::MAX` and saturates instead of overflowing. The matches are the
    // same handful either way.
    let mut scratch = MatchScratch::default();
    for (t_len, saturates) in [(100usize, false), (300, true)] {
        let items = items_in_slot_zero(2, t_len);
        let cands: Vec<Itemset> = (0..6)
            .map(|i| Itemset::new(items[7 * i..7 * i + 12].to_vec()))
            .collect();
        let tree = HashTree::with_params(cands, 2, 1);
        let mut found = Vec::new();
        let visits = tree.for_each_match(&items, &mut scratch, |i| found.push(i));
        found.sort_unstable();
        assert_eq!(found, tree.matches_naive(&items));
        assert_eq!(found.len(), 6);
        if saturates {
            assert_eq!(visits, u64::MAX);
        } else {
            assert_eq!(u128::from(visits), binomial(101, 12) + 6);
            assert!(visits > u64::from(u32::MAX));
        }
    }
}

#[test]
fn one_scratch_across_trees_of_different_branching() {
    // The scratch keeps per-slot and per-position state between calls; a
    // wide tree, a binary one, a root leaf and a wide one again must each
    // see it as a fresh one would.
    let mut rng = StdRng::seed_from_u64(0xb2a);
    let universe: Vec<Item> = (0..90).collect();
    let mut carried = Scratches::default();
    for round in 0..30 {
        let k = 2 + round % 3;
        let (branching, n, max_leaf) = [
            (512, 300, 3),
            (2, 120, 1),
            (8, 10, 16),
            (139, 300, 3),
            (3, 200, 2),
        ][round % 5];
        let cands = random_candidates(&mut rng, &universe, n, k);
        let what = format!("round {round}: {branching}-way, k {k}");
        let pair = Pair::with_params(&cands, branching, max_leaf, &what);
        assert_eq!(pair.new.num_nodes() == 1, n == 10, "{what}");
        for len in [40, k, 25] {
            let mut t = random_transaction(&mut rng, &universe, 2 * len);
            t.truncate(len);
            let seen = pair.check(&t, &mut carried, &what);
            assert_eq!(seen, pair.check(&t, &mut Scratches::default(), &what));
        }
    }
}

#[test]
fn leaves_that_span_several_mask_chunks() {
    // A leaf is verified 64 entries at a time, each chunk's hits one 64-bit
    // mask. Root leaves (k = 1 under a capacity of 200) and one depth-k leaf
    // under a routing chain, of sizes either side of a chunk boundary.
    let mut rng = StdRng::seed_from_u64(64);
    let mut s = Scratches::default();
    for n in [63usize, 64, 65, 129] {
        let singles: Vec<Itemset> = (0..n as u32).map(|i| Itemset::new(vec![i])).collect();
        let what = format!("{n} entries, root leaf");
        let root = Pair::with_params(&singles, 2, 200, &what);
        assert_eq!(root.new.num_nodes(), 1, "{what}");
        let items = items_in_slot_zero(2, n + 1);
        let pairs: Vec<Itemset> = (0..n)
            .map(|i| Itemset::new(vec![items[0], items[i + 1]]))
            .collect();
        let what = format!("{n} entries at depth k");
        let deep = Pair::with_params(&pairs, 2, 1, &what);
        assert_eq!(deep.new.num_nodes(), 3, "{what}");
        for (pair, universe) in [(&root, (0..n as u32).collect()), (&deep, items)] {
            let every_other: Vec<Item> = universe.iter().copied().step_by(2).collect();
            let (_, m) = pair.check(&universe, &mut s, &what);
            assert_eq!(m.len(), n, "{what}");
            pair.check(&every_other, &mut s, &what);
            pair.check(&universe[universe.len() - 2..], &mut s, &what);
            for _ in 0..8 {
                let t = random_transaction(&mut rng, &universe, n / 2);
                pair.check(&t, &mut s, &what);
            }
        }
    }
}

#[test]
fn a_callback_that_panics_leaves_the_scratch_usable() {
    let mut rng = StdRng::seed_from_u64(0x9a11c);
    let universe: Vec<Item> = (0..40).collect();
    let cands = random_candidates(&mut rng, &universe, 300, 3);
    let pair = Pair::with_params(&cands, 3, 2, "binary-ish, k = 3");
    let other = Pair::build(&random_candidates(&mut rng, &universe, 200, 2), "k = 2");
    let t: Vec<Item> = (0..30).collect();
    let mut s = Scratches::default();
    let mut calls = 0;
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pair.new.for_each_match(&t, &mut s.0, |_| {
            calls += 1;
            assert!(calls < 3, "the third match panics");
        })
    }));
    assert!(unwound.is_err() && calls == 3);
    // The same scratch on the next row of the same tree, then on another.
    let next = random_transaction(&mut rng, &universe, 30);
    let (_, m) = pair.check(&next, &mut s, "after the panic");
    assert!(!m.is_empty());
    pair.check(&t, &mut s, "the row that panicked");
    other.check(&t, &mut s, "another tree after the panic");
}

// ---- the chunk count against the per-row reference ----

/// What a count over many rows reports: visits, per-candidate counts,
/// matches and distinct candidates matched.
type Counted = (u64, Vec<u64>, u64, u64);

/// The per-row reference: `for_each_match` on every row, into a fresh array.
fn count_each(tree: &HashTree, rows: &[Vec<Item>], s: &mut MatchScratch) -> Counted {
    let mut counts = vec![0u64; tree.len()];
    let mut visits = 0u64;
    for t in rows {
        visits = visits.saturating_add(tree.for_each_match(t, s, |i| counts[i] += 1));
    }
    let matches = counts.iter().sum();
    let cells = counts.iter().filter(|&&c| c > 0).count() as u64;
    (visits, counts, matches, cells)
}

/// `count_rows` into an array that already holds counts, less those.
fn count_chunks(tree: &HashTree, rows: &[Vec<Item>], s: &mut MatchScratch) -> Counted {
    let before: Vec<u64> = (0..tree.len() as u64).map(|i| i % 3).collect();
    let mut acc = before.clone();
    let (visits, matches, cells) = tree.count_rows(rows.iter().map(Vec::as_slice), s, &mut acc);
    let counts = acc.iter().zip(&before).map(|(a, b)| a - b).collect();
    (visits, counts, matches, cells)
}

/// Count `rows` both ways, the chunk count on the carried scratch `s`.
fn check_chunks(tree: &HashTree, rows: &[Vec<Item>], s: &mut MatchScratch, what: &str) -> Counted {
    let want = count_each(tree, rows, &mut MatchScratch::default());
    let got = count_chunks(tree, rows, s);
    assert_eq!(got.0, want.0, "visits, {what}");
    assert!(got.1 == want.1, "counts, {what}");
    assert_eq!(
        (got.2, got.3),
        (want.2, want.3),
        "matches and cells, {what}"
    );
    got
}

/// Every pair of `items`, in `ap_gen` order.
fn all_pairs(items: &[Item]) -> Vec<Itemset> {
    let pairs = (0..items.len()).flat_map(|a| (a + 1..items.len()).map(move |b| (a, b)));
    pairs
        .map(|(a, b)| Itemset::new(vec![items[a], items[b]]))
        .collect()
}

#[test]
fn the_chunk_count_adds_what_the_rows_add() {
    use yafim::hashtree::CHUNK_ROWS as C;
    let mut rng = StdRng::seed_from_u64(0xc4a2);
    let mut s = MatchScratch::default();
    let sizes = [0, 1, C - 1, C, C + 1, 3 * C + 5];
    let (mut total_matches, mut total_cells) = (0u64, 0u64);
    for round in 0..36 {
        let k = 2 + round % 9;
        let branching = [2, 3, 8, 17, 64, 512][round % 6];
        let universe: Vec<Item> = (0..rng.gen_range(k as u32 + 6..60))
            .map(|i| 2 * i)
            .collect();
        let n = rng.gen_range(1..300usize);
        let cands = match round % 4 {
            // Every pair of some items, in `ap_gen` order, and shuffled.
            0 if k == 2 => all_pairs(&universe[..rng.gen_range(2..universe.len())]),
            1 if k == 2 => {
                let mut pairs = all_pairs(&universe[..12]);
                pairs.reverse();
                pairs
            }
            // A SON-style union: every pair of one group, some of another.
            2 if k == 2 => {
                let mut union = all_pairs(&universe[..8]);
                let more = random_candidates(&mut rng, &universe[4..], n, 2);
                let new: Vec<Itemset> = more.into_iter().filter(|c| !union.contains(c)).collect();
                union.extend(new);
                union
            }
            _ => random_candidates(&mut rng, &universe, n, k),
        };
        let max_leaf = [1, 2, 5, 16][round % 4];
        let tree = HashTree::with_params(cands.clone(), branching, max_leaf);
        let what = format!(
            "round {round}: k {k}, {} candidates, {branching}/{max_leaf}",
            cands.len()
        );
        // Items between the candidates' (the universe is every other id) and
        // past them exercise the dictionary misses; rows shorter than k add
        // nothing. A binary tree's deep rows stay short in a debug build.
        let wide: Vec<Item> = (0..2 * universe.len() as u32 + 9).collect();
        let max_len = if branching <= 3 { 16 + k } else { 40 };
        let n_rows = sizes[round % sizes.len()];
        let rows: Vec<Vec<Item>> = (0..n_rows)
            .map(|i| {
                let draws = rng.gen_range(0..2 * max_len);
                let mut t = random_transaction(&mut rng, &wide, draws);
                t.truncate(if i % 7 == 0 { k - 1 } else { max_len });
                t
            })
            .collect();
        let (_, _, matches, cells) = check_chunks(&tree, &rows, &mut s, &what);
        total_matches += matches;
        total_cells += cells;
    }
    assert!(
        total_matches > 10_000 && total_cells > 1_000,
        "{total_matches} matches, {total_cells} cells"
    );
}

#[test]
fn every_chunk_boundary_on_both_kernels() {
    use yafim::hashtree::CHUNK_ROWS as C;
    let mut rng = StdRng::seed_from_u64(0xb0d);
    let universe: Vec<Item> = (0..24).collect();
    let trees = [
        HashTree::build(all_pairs(&universe)),
        HashTree::with_params(all_pairs(&universe[..10]), 2, 1),
        HashTree::build(random_candidates(&mut rng, &universe, 150, 2)),
        HashTree::build(random_candidates(&mut rng, &universe, 200, 3)),
        HashTree::with_params(random_candidates(&mut rng, &universe, 120, 5), 3, 2),
    ];
    let mut s = MatchScratch::default();
    for n_rows in [0, 1, C - 1, C, C + 1, 3 * C + 5] {
        let rows: Vec<Vec<Item>> = (0..n_rows)
            .map(|_| random_transaction(&mut rng, &universe, 14))
            .collect();
        for (i, tree) in trees.iter().enumerate() {
            let (visits, _, _, _) =
                check_chunks(tree, &rows, &mut s, &format!("tree {i}, {n_rows} rows"));
            assert_eq!(visits == 0, n_rows == 0, "tree {i}, {n_rows} rows");
        }
    }
    // Candidates of one item count row by row; an empty tree counts nothing.
    let singles: Vec<Itemset> = universe.iter().map(|&i| Itemset::single(i)).collect();
    let rows: Vec<Vec<Item>> = (0..40)
        .map(|_| random_transaction(&mut rng, &universe, 9))
        .collect();
    check_chunks(&HashTree::build(singles), &rows, &mut s, "k = 1");
    assert_eq!(
        count_chunks(&HashTree::build(Vec::new()), &rows, &mut s),
        (0, vec![], 0, 0)
    );
}

#[test]
fn chunk_visits_past_u32_max_are_the_rows_summed() {
    // The one-slot chain of `every_item_in_one_slot`: C(101, 12) + 6 visits
    // a row, past `u32::MAX`; at 300 items a row saturates `u64`.
    let mut s = MatchScratch::default();
    for (t_len, saturates) in [(100usize, false), (300, true)] {
        let items = items_in_slot_zero(2, t_len);
        let cands: Vec<Itemset> = (0..6)
            .map(|i| Itemset::new(items[7 * i..7 * i + 12].to_vec()))
            .collect();
        let tree = HashTree::with_params(cands, 2, 1);
        let rows = vec![items.clone(), items[..11].to_vec(), items];
        let (visits, counts, matches, _) = check_chunks(&tree, &rows, &mut s, "one slot");
        assert_eq!((counts, matches), (vec![2; 6], 12));
        if saturates {
            assert_eq!(visits, u64::MAX);
        } else {
            assert_eq!(u128::from(visits), 2 * (binomial(101, 12) + 6));
        }
    }
}

#[test]
fn a_count_that_unwinds_mid_chunk_leaves_the_scratch_as_new() {
    use yafim::hashtree::CHUNK_ROWS as C;
    let mut rng = StdRng::seed_from_u64(0x0dd);
    let universe: Vec<Item> = (0..30).collect();
    let rows: Vec<Vec<Item>> = (0..2 * C)
        .map(|_| random_transaction(&mut rng, &universe, 16))
        .collect();
    let trees = [
        HashTree::build(random_candidates(&mut rng, &universe, 250, 3)),
        HashTree::build(all_pairs(&universe)),
    ];
    for tree in &trees {
        let mut s = MatchScratch::default();
        // The first chunk is counted and the second half full when a row
        // cannot be produced.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let failing = rows.iter().enumerate().map(|(i, t)| {
                assert!(i < C + C / 2, "row {i} cannot be read");
                t.as_slice()
            });
            tree.count_rows(failing, &mut s, &mut vec![0; tree.len()])
        }));
        assert!(unwound.is_err());
        // The next count on the same scratch, of other rows, and of the
        // same ones, is what a fresh scratch counts.
        check_chunks(tree, &rows[C..], &mut s, "after the unwind");
        check_chunks(tree, &rows, &mut s, "the rows that unwound");
        let mut found = Vec::new();
        tree.for_each_match(&rows[0], &mut s, |i| found.push(i));
        found.sort_unstable();
        assert_eq!(found, tree.matches_naive(&rows[0]));
    }
}
