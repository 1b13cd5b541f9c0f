//! The candidate hash tree (Agrawal & Srikant), used by both YAFIM
//! (broadcast to the workers, paper §IV.A Phase II) and the MapReduce
//! baseline to find which candidate `k`-itemsets occur in a transaction
//! without testing every candidate.
//!
//! Interior nodes hash the transaction's items at the current depth; leaves
//! hold candidate itemsets to be verified with a subset test. The descent
//! branches on *every* remaining transaction item at every level: walked
//! out, it follows thousands of hash paths per dense transaction over a tree
//! of a few hundred nodes.
//!
//! This module counts those paths instead. A node at depth `d` is *arrived
//! at* at position `p` once per path that consumed `d − 1` items, the last of
//! them `t[p − 1]`. With `A[p]` the arrivals by position, the root has
//! `A[0] = 1` and the child in slot `s` of a node has
//!
//! ```text
//! A_child[i + 1] = [slot(t[i]) = s and i < last] · Σ_{p ≤ i} A_node[p]
//! ```
//!
//! (`last` leaves enough items to complete a candidate). A node has one
//! parent, which takes all positions of a slot together, so a node's arrivals
//! are complete once its parent is done and every reachable node, leaf or
//! not, is processed once per transaction, from its first arrival on: no
//! table of nodes seen, no leaf stamp. The tree is one flat arena, and what
//! the count needs of the transaction (the hash slot of each item, which
//! candidate items it holds) is computed once per call into [`MatchScratch`].
//!
//! Traversal work is reported as the visit count of the walk, which the
//! engines feed into the virtual-time cost model: every arrival at every
//! node plus one per leaf entry verified. It is an exact function of (tree,
//! transaction): a modelled quantity, not what this layout costs the host.

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
/// per thread. It may go from one tree to the next: a stamp only counts
/// while it equals `version`, and the rest is rewritten before it is read.
#[derive(Default)]
pub struct MatchScratch {
    /// `present[id] == version`: the transaction holds that candidate item.
    present: Vec<u32>,
    /// Hash slot of each transaction item.
    slots: Vec<u32>,
    /// Per slot, the arrivals bound for the child there while one node is
    /// processed; all zero between nodes.
    bound: Vec<u64>,
    /// One row of `|t| + 1` per depth: `sums[p]` is the number of arrivals
    /// at the node being processed there at positions `≤ p`.
    sums: Vec<u64>,
    /// One row of `|t| + 1` per depth, for the children reached from the node
    /// being processed there: the child, the first position it is reached
    /// from (it is arrived at one later) and its arrivals from all of them.
    reached: Vec<(u32, u32, u64)>,
    version: u32,
}

impl MatchScratch {
    /// Start transaction `t` against `tree`: stamp the candidate items it
    /// holds and, if the root routes, note each item's hash slot.
    fn begin(&mut self, tree: &HashTree, t: &[Item]) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            // Wrapped: clear stale stamps that would now falsely match.
            self.present.clear();
            self.version = 1;
        }
        // Grow only: stamps beyond this tree's range are older than `version`.
        self.present
            .resize(self.present.len().max(tree.items.len()), 0);
        let routes = tree.root & LEAF == 0;
        self.slots.clear();
        if routes {
            self.bound.resize(self.bound.len().max(tree.branching), 0);
            let cells = tree.k * (t.len() + 1);
            self.sums.resize(self.sums.len().max(cells), 0);
            self.reached
                .resize(self.reached.len().max(cells), (0, 0, 0));
        }
        for &item in t {
            // One hash per item: its remainder picks the slot, its high half
            // probes the item table.
            let hash = fx_hash64(&item);
            if let Some(id) = tree.items.get_hashed(item, hash) {
                self.present[id as usize] = self.version;
            }
            if routes {
                self.slots.push((hash % tree.branching as u64) as u32);
            }
        }
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
            by_slot[(fx_hash64(&item) % self.branching as u64) as usize].push(cand);
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
        scratch.begin(self, t);
        let mut count = Count {
            tree: self,
            slots: &scratch.slots,
            present: &scratch.present,
            bound: &mut scratch.bound,
            sums: &mut scratch.sums,
            reached: &mut scratch.reached,
            version: scratch.version,
            visits: 1,
            f,
        };
        if self.root & LEAF != 0 {
            count.leaf((self.root ^ LEAF) as usize);
        } else {
            // The root is arrived at once, at position 0.
            count.sums[..=t.len() - self.k].fill(1);
            count.node(self.root, 0, 1);
        }
        count.visits
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

/// One transaction's count: the per-transaction precompute and the running
/// visit total (the root's one arrival included from the start). Totals
/// saturate: a count that large is one the walk could never have finished.
struct Count<'a, F> {
    tree: &'a HashTree,
    slots: &'a [u32],
    present: &'a [u32],
    bound: &'a mut [u64],
    sums: &'a mut [u64],
    reached: &'a mut [(u32, u32, u64)],
    version: u32,
    visits: u64,
    f: F,
}

impl<F: FnMut(usize)> Count<'_, F> {
    /// Process the interior node `node`, first arrived at at position `first`;
    /// row `depth − 1` of `sums` holds its arrival sums from there on.
    /// `depth` is 1-based: the items consumed on the path so far, plus one.
    fn node(&mut self, node: u32, first: usize, depth: usize) {
        let tree = self.tree;
        let children = &tree.children[node as usize..][..tree.branching];
        // A path goes on through every later item that could be the
        // `depth`-th of a candidate, leaving enough items to complete one.
        let width = self.slots.len() + 1;
        let last = width - 1 - (tree.k - depth);
        let slots = &self.slots[..last];
        let row = (depth - 1) * width;
        // All positions of one slot lead to one child: add up what is bound
        // for it, then collect the children there are, in the order the walk
        // first reached them. Neither loop branches on what it finds.
        for (&slot, &sum) in slots[first..].iter().zip(&self.sums[row + first..]) {
            let to = &mut self.bound[slot as usize];
            *to = to.saturating_add(sum);
        }
        let mut end = row;
        for i in first..last {
            let arrivals = std::mem::take(&mut self.bound[slots[i] as usize]);
            let child = children[slots[i] as usize];
            self.reached[end] = (child, i as u32, arrivals);
            end += usize::from(arrivals != 0 && child != NO_CHILD);
        }
        for at in row..end {
            let (child, from, arrivals) = self.reached[at];
            self.visits = self.visits.saturating_add(arrivals);
            if child & LEAF != 0 {
                self.leaf((child ^ LEAF) as usize);
                continue;
            }
            // The child's sums, in the row below: it is arrived at after
            // each position of its slot, once per arrival here up to then.
            let (from, slot) = (from as usize, slots[from as usize]);
            let (mine, below) = self.sums[row..].split_at_mut(width);
            let mut sum = 0u64;
            for p in from..last {
                if slots[p] == slot {
                    sum = sum.saturating_add(mine[p]);
                }
                below[p + 1] = sum;
            }
            self.node(child, from + 1, depth + 1);
        }
    }

    /// Verify leaf `leaf`'s entries.
    fn leaf(&mut self, leaf: usize) {
        let (tree, version) = (self.tree, self.version);
        let lo = tree.leaf_start[leaf] as usize;
        let hi = tree.leaf_start[leaf + 1] as usize;
        self.visits = self.visits.saturating_add((hi - lo) as u64);
        // No early exit and no branch per entry: on dense data a hit is a
        // coin flip, and a mispredicted branch costs more than the loads it
        // saves. The hits of 64 entries gather in a mask, last entry first
        // so that the first ends in bit 0, and drain by bit. Entries are
        // sliced by hand: `chunks_exact` divides by `k` on every call.
        for base in (lo..hi).step_by(64) {
            let end = hi.min(base + 64);
            let mut hits = 0u64;
            for entry in (base..end).rev() {
                let ids = &tree.entry_items[entry * tree.k..][..tree.k];
                let held = |all, &id| all & (self.present[id as usize] == version);
                hits = hits << 1 | u64::from(ids.iter().fold(true, held));
            }
            while hits != 0 {
                (self.f)(tree.entry_cand[base + hits.trailing_zeros() as usize] as usize);
                hits &= hits - 1;
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
        // Small branching: every leaf is reached along many paths.
        let cands: Vec<Itemset> = (0u32..30)
            .map(|i| Itemset::new(vec![i % 6, 6 + (i % 5), 11 + (i % 4)]))
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let tree = HashTree::with_params(cands, 2, 2);
        let t: Vec<Item> = (0..15).collect();
        // `sorted_matches` keeps duplicates: a candidate met twice would show.
        assert_eq!(sorted_matches(&tree, &t), tree.matches_naive(&t));
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
    fn version_wrap_clears_item_stamps() {
        // Small branching: every leaf is reached along many paths.
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
        assert!(s.present.iter().all(|&v| v <= 1));
        assert_eq!(observe(&tree, &txs[2], &mut s), fresh[2]);
        assert_eq!(observe(&tree, &txs[0], &mut s), fresh[0]);

        // A stamp that survived the wrap would hide these: an array full of
        // 1s left over from before must not read as "seen in call 1".
        let mut s = MatchScratch {
            version: u32::MAX,
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
        assert!(s.present.len() <= 4 * ids.len());
        assert_eq!(s.slots.len(), t.len());
        assert_eq!(s.bound, [0, 0], "one cell per slot, zero at rest");
        assert_eq!(s.sums.len(), 2 * (t.len() + 1));
        assert_eq!(s.reached.len(), s.sums.len());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mixed_length_candidates_rejected() {
        HashTree::build(sets(&[&[1], &[1, 2]]));
    }
}
