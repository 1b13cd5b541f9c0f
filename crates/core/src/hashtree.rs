//! The candidate hash tree (Agrawal & Srikant), used by both YAFIM
//! (broadcast to the workers, paper §IV.A Phase II) and the MapReduce
//! baseline to find which candidate `k`-itemsets occur in a transaction
//! without testing every candidate.
//!
//! Interior nodes hash the transaction's items at the current depth; leaves
//! hold candidate itemsets to be verified with a subset test. Because the
//! descent branches on *every* remaining transaction item, the same leaf can
//! be reached along several paths — a per-call leaf stamp prevents double
//! counting.
//!
//! The tree is one flat arena, and what every visit needs of the transaction
//! (the hash slot of each item, which candidate items it holds) is computed
//! once per call into [`MatchScratch`].
//!
//! Traversal work is reported as a node-visit count, which the engines feed
//! into the virtual-time cost model: one unit per node reached and one per
//! leaf entry verified, as a pointer tree would spend them — a modelled
//! quantity, not what this layout costs the host.

use crate::item_table::ItemTable;
use crate::types::{Item, Itemset};
use yafim_cluster::{fx_hash64, ByteSize, FxHashSet};

/// Default fan-out of interior nodes.
pub const DEFAULT_BRANCHING: usize = 8;
/// Default maximum candidates per leaf before it splits.
pub const DEFAULT_MAX_LEAF: usize = 16;

/// Tag bit of a node reference: set, the other bits are a leaf number;
/// clear, they are the offset of an interior node's slots in `children`.
const LEAF: u32 = 1 << 31;
/// An interior slot no candidate hashes to.
const NO_CHILD: u32 = u32::MAX;

/// A hash tree over candidate itemsets, all of the same length `k`.
///
/// A node at depth `d` is a leaf while at most `max_leaf` candidates share
/// its hash path (or at `d = k`, where no item is left to split on);
/// otherwise it routes on the hash of each candidate's `d`-th item.
///
/// ```
/// use yafim_core::{HashTree, Itemset, MatchScratch};
///
/// let tree = HashTree::build(vec![
///     Itemset::new(vec![1, 2]),
///     Itemset::new(vec![2, 3]),
///     Itemset::new(vec![4, 5]),
/// ]);
/// let mut scratch = MatchScratch::default();
/// let mut found = Vec::new();
/// tree.for_each_match(&[1, 2, 3], &mut scratch, |idx| {
///     found.push(tree.candidates()[idx].clone());
/// });
/// found.sort();
/// assert_eq!(found, vec![Itemset::new(vec![1, 2]), Itemset::new(vec![2, 3])]);
/// ```
pub struct HashTree {
    k: usize,
    branching: usize,
    root: u32,
    /// `branching` node references per interior node.
    children: Vec<u32>,
    /// Leaf `l` holds entries `leaf_start[l]..leaf_start[l + 1]`, ascending
    /// by candidate index.
    leaf_start: Vec<u32>,
    /// Per entry, the candidate's index into `candidates`.
    entry_cand: Vec<u32>,
    /// Per entry, the ids of the candidate's `k` items (see `items`).
    entry_items: Vec<u32>,
    /// The candidates' distinct items; an item's index there is its id.
    items: ItemTable,
    candidates: Vec<Itemset>,
}

/// Reusable per-caller scratch space for [`HashTree::for_each_match`]. One
/// per task; never shared across threads. It may go from one tree to the
/// next: a stamp only counts while it equals `version`.
#[derive(Default)]
pub struct MatchScratch {
    /// `leaf_seen[l] == version`: leaf `l` was verified for this transaction.
    leaf_seen: Vec<u32>,
    /// `present[id] == version`: the transaction holds that candidate item.
    present: Vec<u32>,
    /// Hash slot of each transaction item.
    slots: Vec<u32>,
    version: u32,
}

impl MatchScratch {
    /// Start a transaction against a tree of `leaves` leaves and `ids` item
    /// ids; returns the stamp that marks it.
    fn begin(&mut self, leaves: usize, ids: usize) -> u32 {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            // Wrapped: clear stale stamps that would now falsely match.
            self.leaf_seen.clear();
            self.present.clear();
            self.version = 1;
        }
        // Grow only: stamps beyond this tree's range are older than `version`.
        self.leaf_seen.resize(self.leaf_seen.len().max(leaves), 0);
        self.present.resize(self.present.len().max(ids), 0);
        self.version
    }
}

impl HashTree {
    /// Build a tree over `candidates`, choosing the branching factor
    /// adaptively: interior nodes can only split down to depth `k`, so the
    /// fan-out must satisfy `branching^k ≈ candidates / max_leaf` or leaves
    /// at depth `k` degenerate into long linear scans (acute for the huge
    /// `C2` of sparse datasets like T10I4D100K).
    ///
    /// Every candidate must have the same length; panics otherwise.
    pub fn build(candidates: Vec<Itemset>) -> Self {
        let k = candidates.first().map_or(1, Itemset::len).max(1);
        let target_leaves = (candidates.len() as f64 / DEFAULT_MAX_LEAF as f64).max(1.0);
        let branching = target_leaves
            .powf(1.0 / k as f64)
            .ceil()
            .clamp(DEFAULT_BRANCHING as f64, 512.0) as usize;
        Self::with_params(candidates, branching, DEFAULT_MAX_LEAF)
    }

    /// Build with explicit branching factor and leaf capacity.
    pub fn with_params(candidates: Vec<Itemset>, branching: usize, max_leaf: usize) -> Self {
        assert!(branching >= 2, "branching must be at least 2");
        assert!(max_leaf >= 1, "leaves must hold at least one candidate");
        let k = candidates.first().map_or(0, Itemset::len);
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "all candidates must have equal length"
        );
        let n_items = candidates.len().saturating_mul(k.max(1));
        assert!(n_items < LEAF as usize, "too many candidate items");
        let distinct: FxHashSet<Item> =
            candidates.iter().flat_map(|c| c.items()).copied().collect();
        let mut tree = HashTree {
            k,
            branching,
            root: NO_CHILD,
            children: Vec::new(),
            leaf_start: vec![0],
            entry_cand: Vec::with_capacity(candidates.len()),
            entry_items: Vec::with_capacity(n_items),
            items: ItemTable::new(distinct.into_iter()),
            candidates,
        };
        let all: Vec<u32> = (0..tree.candidates.len() as u32).collect();
        tree.root = tree.lay_out(&all, 0, max_leaf);
        tree
    }

    /// Candidate length `k` (0 for an empty tree).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The candidates, in insertion order — match callbacks receive indices
    /// into this slice.
    pub fn candidates(&self) -> &[Itemset] {
        &self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of tree nodes (observability / tests).
    pub fn num_nodes(&self) -> usize {
        self.children.len() / self.branching + self.leaf_start.len() - 1
    }

    #[inline]
    fn hash_slot(&self, item: Item) -> usize {
        (fx_hash64(&item) % self.branching as u64) as usize
    }

    /// Append the subtree over `cands` — the candidates, ascending by index,
    /// that share one hash path of length `depth` — and return its reference.
    fn lay_out(&mut self, cands: &[u32], depth: usize, max_leaf: usize) -> u32 {
        if cands.len() <= max_leaf || depth == self.k {
            for &cand in cands {
                for &item in self.candidates[cand as usize].items() {
                    let id = self.items.get(item).expect("every item was added");
                    self.entry_items.push(id);
                }
            }
            self.entry_cand.extend_from_slice(cands);
            self.leaf_start.push(self.entry_cand.len() as u32);
            return LEAF | (self.leaf_start.len() - 2) as u32;
        }
        let base = self.children.len();
        assert!(
            base + self.branching < LEAF as usize,
            "too many interior nodes"
        );
        self.children.resize(base + self.branching, NO_CHILD);
        let mut by_slot = vec![Vec::new(); self.branching];
        for &cand in cands {
            let item = self.candidates[cand as usize].items()[depth];
            by_slot[self.hash_slot(item)].push(cand);
        }
        for (slot, group) in by_slot.iter().enumerate() {
            if !group.is_empty() {
                self.children[base + slot] = self.lay_out(group, depth + 1, max_leaf);
            }
        }
        base as u32
    }

    /// Invoke `f(candidate index)` once for every candidate contained in the
    /// sorted transaction `t`. Returns the number of tree-node visits plus
    /// subset checks performed (the CPU work estimate).
    pub fn for_each_match(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        f: impl FnMut(usize),
    ) -> u64 {
        if self.k == 0 || t.len() < self.k {
            return 0;
        }
        let version = scratch.begin(self.leaf_start.len() - 1, self.items.len());
        let descends = self.root & LEAF == 0;
        scratch.slots.clear();
        for &item in t {
            if let Some(id) = self.items.get(item) {
                scratch.present[id as usize] = version;
            }
            if descends {
                scratch.slots.push(self.hash_slot(item) as u32);
            }
        }
        let mut walk = Walk {
            tree: self,
            t_len: t.len(),
            slots: &scratch.slots,
            present: &scratch.present,
            leaf_seen: &mut scratch.leaf_seen,
            version,
            visits: 0,
            f,
        };
        walk.visit(self.root, 0, 1);
        walk.visits
    }

    /// Brute-force reference: indices of all candidates contained in `t`.
    /// Used by tests and the hash-tree ablation benchmark.
    pub fn matches_naive(&self, t: &[Item]) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_subset_of_sorted(t))
            .map(|(i, _)| i)
            .collect()
    }
}

/// One transaction's descent: the per-transaction precompute and the
/// running visit count.
struct Walk<'a, F> {
    tree: &'a HashTree,
    t_len: usize,
    slots: &'a [u32],
    present: &'a [u32],
    leaf_seen: &'a mut [u32],
    version: u32,
    visits: u64,
    f: F,
}

impl<F: FnMut(usize)> Walk<'_, F> {
    /// `depth` is 1-based: the items consumed on the path so far, plus one.
    fn visit(&mut self, node: u32, pos: usize, depth: usize) {
        self.visits += 1;
        let (tree, version) = (self.tree, self.version);
        if node & LEAF != 0 {
            let leaf = (node ^ LEAF) as usize;
            if std::mem::replace(&mut self.leaf_seen[leaf], version) == version {
                return; // already checked for this transaction
            }
            let lo = tree.leaf_start[leaf] as usize;
            let hi = tree.leaf_start[leaf + 1] as usize;
            self.visits += (hi - lo) as u64;
            let items = tree.entry_items[lo * tree.k..hi * tree.k].chunks_exact(tree.k);
            for (&cand, ids) in tree.entry_cand[lo..hi].iter().zip(items) {
                // No early exit: on dense data a miss is a coin flip, and a
                // mispredicted branch costs more than the loads it saves.
                let held = |all, &id| all & (self.present[id as usize] == version);
                if ids.iter().fold(true, held) {
                    (self.f)(cand as usize);
                }
            }
            return;
        }
        // Descend on every transaction item that could be the `depth`-th
        // item of a candidate, leaving enough items to complete one.
        let children = &tree.children[node as usize..][..tree.branching];
        let last = self.t_len - (tree.k - depth);
        for i in pos..last {
            let child = children[self.slots[i] as usize];
            if child != NO_CHILD {
                self.visit(child, i + 1, depth + 1);
            }
        }
    }
}

impl crate::candidates::CandidateStore for HashTree {
    fn k(&self) -> usize {
        self.k
    }

    fn len(&self) -> usize {
        self.candidates.len()
    }

    fn candidates(&self) -> &[Itemset] {
        &self.candidates
    }

    fn into_candidates(self: Box<Self>) -> Vec<Itemset> {
        self.candidates
    }

    fn for_each_match_dyn(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        f: &mut dyn FnMut(usize),
    ) -> u64 {
        self.for_each_match(t, scratch, f)
    }

    fn store_bytes(&self) -> u64 {
        self.byte_size()
    }

    fn name(&self) -> &'static str {
        "hash tree"
    }
}

impl ByteSize for HashTree {
    /// The modelled size of the shipped tree (candidates plus 16 bytes per
    /// node), which the broadcast is charged on — not the arena's.
    fn byte_size(&self) -> u64 {
        let cands: u64 = self.candidates.iter().map(ByteSize::byte_size).sum();
        cands + 16 * self.num_nodes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[Item]]) -> Vec<Itemset> {
        raw.iter().map(|s| Itemset::new(s.to_vec())).collect()
    }

    fn sorted_matches(tree: &HashTree, t: &[Item]) -> Vec<usize> {
        let mut s = MatchScratch::default();
        let mut out = Vec::new();
        tree.for_each_match(t, &mut s, |i| out.push(i));
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_tree_matches_nothing() {
        let tree = HashTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(sorted_matches(&tree, &[1, 2, 3]), Vec::<usize>::new());
    }

    #[test]
    fn single_candidate() {
        let tree = HashTree::build(sets(&[&[1, 3]]));
        assert_eq!(sorted_matches(&tree, &[1, 2, 3]), vec![0]);
        assert_eq!(sorted_matches(&tree, &[1, 2]), Vec::<usize>::new());
        assert_eq!(sorted_matches(&tree, &[3]), Vec::<usize>::new());
    }

    #[test]
    fn matches_agree_with_naive_small() {
        let cands = sets(&[&[1, 2], &[1, 3], &[2, 3], &[2, 4], &[3, 4]]);
        let tree = HashTree::build(cands);
        for t in [
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![1, 4],
            vec![],
            vec![1, 2, 3, 4, 5],
        ] {
            let mut naive = tree.matches_naive(&t);
            naive.sort_unstable();
            assert_eq!(sorted_matches(&tree, &t), naive, "transaction {t:?}");
        }
    }

    #[test]
    fn no_double_counting_through_multiple_paths() {
        // Small branching forces shared leaves and repeated descents.
        let cands: Vec<Itemset> = (0u32..30)
            .map(|i| Itemset::new(vec![i % 6, 6 + (i % 5), 11 + (i % 4)]))
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let tree = HashTree::with_params(cands, 2, 2);
        let t: Vec<Item> = (0..15).collect();
        let mut counts = vec![0u32; tree.len()];
        let mut s = MatchScratch::default();
        tree.for_each_match(&t, &mut s, |i| counts[i] += 1);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c <= 1, "candidate {i} counted {c} times");
        }
        let mut found: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 1)
            .map(|(i, _)| i)
            .collect();
        found.sort_unstable();
        let mut naive = tree.matches_naive(&t);
        naive.sort_unstable();
        assert_eq!(found, naive);
    }

    #[test]
    fn deep_split_tree_still_correct() {
        let cands: Vec<Itemset> = (0u32..200)
            .map(|i| Itemset::new(vec![i % 10, 10 + (i / 10) % 10, 20 + i % 7, 30 + i % 3]))
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let n = cands.len();
        let tree = HashTree::with_params(cands, 3, 2);
        assert!(tree.num_nodes() > 1, "tree must have split");
        assert_eq!(tree.len(), n);
        for seed in 0u32..20 {
            let t: Vec<Item> = (0..40).filter(|x| (x * 7 + seed) % 3 != 0).collect();
            let mut naive = tree.matches_naive(&t);
            naive.sort_unstable();
            assert_eq!(sorted_matches(&tree, &t), naive, "seed {seed}");
        }
    }

    #[test]
    fn scratch_is_reusable_across_transactions() {
        let tree = HashTree::build(sets(&[&[1, 2], &[3, 4]]));
        let mut s = MatchScratch::default();
        let mut out = Vec::new();
        tree.for_each_match(&[1, 2], &mut s, |i| out.push(i));
        tree.for_each_match(&[3, 4], &mut s, |i| out.push(i));
        tree.for_each_match(&[1, 2, 3, 4], &mut s, |i| out.push(i));
        out.sort_unstable();
        assert_eq!(out, vec![0, 0, 1, 1]);
    }

    #[test]
    fn visits_are_positive_work_estimate() {
        let tree = HashTree::build(sets(&[&[1, 2], &[2, 3]]));
        let mut s = MatchScratch::default();
        let visits = tree.for_each_match(&[1, 2, 3], &mut s, |_| {});
        assert!(visits >= 2, "at least root + leaf checks, got {visits}");
        // Too-short transactions are rejected without any traversal.
        assert_eq!(tree.for_each_match(&[1], &mut s, |_| {}), 0);
    }

    /// `(visits, callbacks in order)` of one call.
    fn observe(tree: &HashTree, t: &[Item], s: &mut MatchScratch) -> (u64, Vec<usize>) {
        let mut out = Vec::new();
        let visits = tree.for_each_match(t, s, |i| out.push(i));
        (visits, out)
    }

    #[test]
    fn version_wrap_clears_leaf_and_item_stamps() {
        // Small branching: shared leaves, so the leaf stamps matter too.
        let cands: Vec<Itemset> = (0u32..40)
            .map(|i| Itemset::new(vec![i % 8, 8 + i % 5, 13 + i % 7]))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let tree = HashTree::with_params(cands, 2, 2);
        let txs: [Vec<Item>; 3] = [
            (0..20).collect(),
            (0..20).step_by(2).collect(),
            vec![1, 9, 14, 15],
        ];
        let fresh: Vec<_> = txs
            .iter()
            .map(|t| observe(&tree, t, &mut MatchScratch::default()))
            .collect();
        assert!(fresh.iter().all(|(_, found)| !found.is_empty()));

        // Stamp everything with `u32::MAX`, wrap on the next call, then go on
        // past the wrap: at no point may a stamp of an earlier call count.
        let mut s = MatchScratch {
            version: u32::MAX - 1,
            ..MatchScratch::default()
        };
        assert_eq!(observe(&tree, &txs[0], &mut s), fresh[0]);
        assert_eq!(s.version, u32::MAX);
        assert_eq!(observe(&tree, &txs[1], &mut s), fresh[1]);
        assert_eq!(s.version, 1, "wrapped past 0");
        assert!(s.leaf_seen.iter().chain(&s.present).all(|&v| v <= 1));
        assert_eq!(observe(&tree, &txs[2], &mut s), fresh[2]);
        assert_eq!(observe(&tree, &txs[0], &mut s), fresh[0]);

        // A stamp that survived the wrap would hide these: an array full of
        // 1s left over from before must not read as "seen in call 1".
        let mut s = MatchScratch {
            version: u32::MAX,
            leaf_seen: vec![1; tree.num_nodes()],
            present: vec![1; tree.items.len()],
            ..MatchScratch::default()
        };
        assert_eq!(observe(&tree, &txs[2], &mut s), fresh[2]);
    }

    #[test]
    fn scratch_is_bounded_by_the_candidate_set_not_by_the_ids() {
        let ids = [7, 1 << 20, u32::MAX / 2, u32::MAX - 1, u32::MAX];
        let cands: Vec<Itemset> = (0..ids.len())
            .flat_map(|a| (a + 1..ids.len()).map(move |b| Itemset::new(vec![ids[a], ids[b]])))
            .collect();
        let tree = HashTree::with_params(cands, 2, 1);
        assert!(tree.num_nodes() > 1);
        let mut s = MatchScratch::default();
        let t = [0, 7, 8, 1 << 20, u32::MAX - 2, u32::MAX];
        let (_, mut found) = observe(&tree, &t, &mut s);
        found.sort_unstable();
        assert_eq!(found, tree.matches_naive(&t));
        assert_eq!(found.len(), 3, "{{7, 2^20}}, {{7, MAX}}, {{2^20, MAX}}");
        assert!(s.leaf_seen.len() <= tree.num_nodes());
        assert!(s.present.len() <= 4 * ids.len());
        assert_eq!(s.slots.len(), t.len());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mixed_length_candidates_rejected() {
        HashTree::build(sets(&[&[1], &[1, 2]]));
    }
}
