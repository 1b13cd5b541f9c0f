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
//! them `t[p − 1]`. With `cum[N]` a node's arrivals at positions `≤ j`, the
//! root starts at `cum = 1` and one sweep over the positions does
//!
//! ```text
//! at position j, for every node N arrived at so far with j < last(N),
//! deepest first:   cum[child(N, slot(t[j]))] += cum[N]
//! ```
//!
//! (`last` leaves enough items to complete a candidate; deepest first, so a
//! child has gone on from `j` before the arrivals at `j + 1` join it). A
//! node's `cum` after the sweep is all its arrivals, and only the nodes
//! arrived at, listed per depth as they are first reached, are ever read:
//! the row's work follows the nodes it reaches and its length, not its
//! paths. The tree is one flat arena, and what the count needs of the
//! transaction (the hash slot of each item, which candidate items it holds)
//! is computed once per call into [`MatchScratch`].
//!
//! Traversal work is reported as the visit count of the walk, which the
//! engines feed into the virtual-time cost model: every arrival at every
//! node plus one per leaf entry verified. It is an exact function of (tree,
//! transaction) that models the JVM walk: a modelled quantity, not what
//! this layout costs the host.
//!
//! Which candidates a row holds does not depend on the tree, so the engines
//! count [`CHUNK_ROWS`] rows at a time ([`HashTree::count_rows`]): every row
//! is still swept for its visits, and the counts come from a kernel over the
//! candidates in item-id space (ids ascend with items). When the candidates
//! are every pair of their items in `ap_gen` order, each row's pairs are
//! added into the triangle, whose cell `i` is candidate `i`; otherwise the
//! chunk is laid out as a [`ColumnarPartition`] and counted by the bitmap
//! kernel over the tree's one id list. [`HashTree::for_each_match`] verifies
//! the leaves a row reaches against that same list, 64 entries at a time:
//! the per-row reference, which the parity tests and the 1-itemset count
//! call.

use crate::bitmap::{BitmapScratch, ColumnarPartition};
use crate::candidates::CandidateList;
use crate::encode::{add_pairs, tri_len};
use crate::item_table::ItemTable;
use crate::types::{Item, Itemset};
use yafim_cluster::{fx_hash64, ByteSize, FxHashSet};

/// Default fan-out of interior nodes.
pub(crate) const DEFAULT_BRANCHING: usize = 8;
/// Default maximum candidates per leaf before it splits.
pub(crate) const DEFAULT_MAX_LEAF: usize = 16;
/// Rows [`HashTree::count_rows`] lays out as one columnar chunk: 8 words a
/// bitset row, and a chunk's arena stays small whatever the split size.
pub const CHUNK_ROWS: usize = 512;

/// While the tree is laid out, a node reference with this bit set is a leaf
/// number; clear, it is an interior node's id.
const LEAF: u32 = 1 << 31;
/// While the tree is laid out, an interior slot no candidate hashes to.
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
    /// Node ids: interior nodes first, then leaf `l` as `interior + l`, then
    /// the sink, `num_nodes()`, which stands for "no child".
    root: u32,
    /// `branching` child ids per interior node.
    children: Vec<u32>,
    /// Leaf `l` holds entries `leaf_start[l]..leaf_start[l + 1]`, ascending
    /// by candidate index.
    leaf_start: Vec<u32>,
    /// Per entry, the candidate's index into `candidates`.
    entry_cand: Vec<u32>,
    /// The candidates' distinct items, ascending; an item's index there is
    /// its id, so ids ascend with items.
    items: ItemTable,
    candidates: Vec<Itemset>,
    /// The candidates over the item ids, `k`-strided: what the leaves
    /// verify and the columnar kernel counts. Host state only, which the
    /// modelled size does not see.
    ids: CandidateList,
    /// Whether the candidates are every pair of their ids in `ap_gen`
    /// order, so that [`HashTree::count_rows`] counts candidate `i` in
    /// triangle cell `i`.
    triangle: bool,
}

/// Reusable per-caller scratch space for [`HashTree::for_each_match`] and
/// the counts over many rows. One per thread. It may go from one tree to the
/// next: a stamp only counts while it equals `version`, `cum` is all zero
/// between calls (before the first callback of one), and the rest is
/// rewritten or cleared before it is read.
#[derive(Default)]
pub struct MatchScratch {
    /// `present[id] == version`: the transaction holds that candidate item.
    present: Vec<u32>,
    /// Hash slot of each transaction item.
    slots: Vec<u32>,
    /// Per node id, its arrivals so far; the sink's is `u64::MAX` during a
    /// sweep, so that it never reads as first reached.
    cum: Vec<u64>,
    /// One row per depth of the interior nodes arrived at, in the order they
    /// were first reached, plus one row that takes what depth `k` writes.
    active: Vec<u32>,
    /// Used length of each row of `active`.
    lens: Vec<usize>,
    /// The leaves arrived at, as node ids; one cell spare.
    leaves: Vec<u32>,
    version: u32,
    /// The ids of the candidate items each row holds, row after row.
    ids: Vec<Item>,
    /// Where each row of a columnar chunk ends in `ids`.
    ends: Vec<usize>,
    /// One bit per candidate a count over many rows matched.
    touched: Vec<u64>,
    bitmap: BitmapScratch,
}

impl MatchScratch {
    /// Start transaction `t` against `tree`: append the ids of the candidate
    /// items it holds to `ids`, size the sweep's lists and, if the root
    /// routes, note each item's hash slot.
    fn begin(&mut self, tree: &HashTree, t: &[Item]) {
        // Grow only: every `cum` is zero.
        self.cum.resize(self.cum.len().max(tree.num_nodes() + 1), 0);
        let cells = (tree.k + 1) * (tree.interior() + 1);
        self.active.resize(self.active.len().max(cells), 0);
        let leaves = tree.leaf_start.len();
        self.leaves.resize(self.leaves.len().max(leaves), 0);
        self.lens.clear();
        self.lens.resize(tree.k + 1, 0);
        let routes = (tree.root as usize) < tree.interior();
        self.slots.clear();
        for &item in t {
            // One hash per item: its remainder picks the slot, its high half
            // probes the item table.
            let hash = fx_hash64(&item);
            if let Some(id) = tree.items.get_hashed(item, hash) {
                self.ids.push(id);
            }
            if routes {
                self.slots.push((hash % tree.branching as u64) as u32);
            }
        }
    }

    /// Stamp the ids in `ids` present, under a new `version`, in a table of
    /// at least `n_items` cells.
    fn stamp(&mut self, n_items: usize) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            // Wrapped: clear stale stamps that would now falsely match.
            self.present.clear();
            self.version = 1;
        }
        // Grow only: stamps beyond this tree's range are older than
        // `version`.
        self.present.resize(self.present.len().max(n_items), 0);
        for &id in &self.ids {
            self.present[id as usize] = self.version;
        }
    }

    /// Run `count` on this scratch and a zeroed bitset of `n_cells` bits;
    /// returns how many bits it set. Cleared on the way in, so a count that
    /// unwound leaves nothing behind.
    pub(crate) fn tally(
        &mut self,
        n_cells: usize,
        count: impl FnOnce(&mut Self, &mut [u64]),
    ) -> u64 {
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        touched.resize(n_cells.div_ceil(64), 0);
        count(self, &mut touched);
        let cells = touched.iter().map(|w| u64::from(w.count_ones())).sum();
        self.touched = touched;
        cells
    }

    /// Count the rows of the chunk in `ids` and `ends`, `n_items` ids wide,
    /// against `list`: add each candidate's support into `acc` and mark it in
    /// `touched` when nonzero. Empties the chunk; returns the matches.
    fn count_chunk(
        &mut self,
        list: &CandidateList,
        n_items: usize,
        acc: &mut [u64],
        touched: &mut [u64],
    ) -> u64 {
        if self.ends.is_empty() {
            return 0;
        }
        let ids = &self.ids;
        let rows = self
            .ends
            .iter()
            .scan(0, |at, &end| Some(&ids[std::mem::replace(at, end)..end]));
        let col = ColumnarPartition::from_rows(n_items, self.ends.len(), rows);
        let mut matches = 0;
        col.count_with(list, &mut self.bitmap, acc, |i, count| {
            touched[i / 64] |= u64::from(count > 0) << (i % 64);
            matches += count;
        });
        self.ids.clear();
        self.ends.clear();
        matches
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
        let mut distinct: Vec<Item> = distinct.into_iter().collect();
        distinct.sort_unstable();
        let items = ItemTable::new(distinct.into_iter());
        let to_id = |item: &Item| items.get(*item).expect("every item was added");
        let flat: Vec<Item> = candidates
            .iter()
            .flat_map(|c| c.items())
            .map(to_id)
            .collect();
        let m = items.len() as Item;
        let mut pairs = (0..m).flat_map(|a| (a + 1..m).map(move |b| [a, b]));
        let triangle = k == 2
            && flat.len() == 2 * tri_len(m as usize)
            && flat
                .chunks_exact(2)
                .all(|c| pairs.next().is_some_and(|p| c == p));
        let mut tree = HashTree {
            k,
            branching,
            root: NO_CHILD,
            children: Vec::new(),
            leaf_start: vec![0],
            entry_cand: Vec::with_capacity(candidates.len()),
            items,
            candidates,
            ids: CandidateList::from_sets(k, flat.chunks_exact(k.max(1))),
            triangle,
        };
        let all: Vec<u32> = (0..tree.candidates.len() as u32).collect();
        let root = tree.lay_out(&all, 0, max_leaf);
        // Leaves take the ids after the interior nodes, and every slot no
        // candidate hashes to leads to the sink.
        let (interior, sink) = (tree.interior() as u32, tree.num_nodes() as u32);
        let id = |r: u32| match r {
            NO_CHILD => sink,
            _ if r & LEAF != 0 => interior + (r ^ LEAF),
            _ => r,
        };
        tree.root = id(root);
        tree.children.iter_mut().for_each(|c| *c = id(*c));
        tree
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
        self.interior() + self.leaf_start.len() - 1
    }

    /// Number of interior nodes, whose ids are `0..interior()`.
    fn interior(&self) -> usize {
        self.children.len() / self.branching
    }

    /// Append the subtree over `cands` — the candidates, ascending by index,
    /// that share one hash path of length `depth` — and return its reference.
    fn lay_out(&mut self, cands: &[u32], depth: usize, max_leaf: usize) -> u32 {
        if cands.len() <= max_leaf || depth == self.k {
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
        (base / self.branching) as u32
    }

    /// Invoke `f(candidate index)` once for every candidate contained in the
    /// sorted transaction `t`. Returns the number of tree-node visits plus
    /// subset checks performed (the CPU work estimate).
    pub fn for_each_match(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        mut f: impl FnMut(usize),
    ) -> u64 {
        if self.k == 0 || t.len() < self.k {
            return 0;
        }
        scratch.ids.clear();
        let (visits, reached) = self.visit(t, scratch);
        let s = scratch;
        s.stamp(self.items.len());
        let interior = self.interior();
        for &leaf in &s.leaves[..reached] {
            self.verify(leaf as usize - interior, &s.present, s.version, &mut f);
        }
        visits
    }

    /// Add one to `acc[i]` (one cell per candidate) for every candidate `i`
    /// contained in each sorted, duplicate-free row of `rows`. Returns the
    /// visits, the sum of what [`HashTree::for_each_match`] returns for each
    /// row, the matches and the number of distinct candidates matched.
    ///
    /// Each row is swept for its visits alone. A pair tree whose candidates
    /// are every pair of their items in `ap_gen` order adds each row's pairs
    /// into `acc` as a triangle; any other tree of `k ≥ 2` lays
    /// [`CHUNK_ROWS`] rows at a time out as bitset columns, one per
    /// candidate item, and counts them with the bitmap kernel.
    pub fn count_rows<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [Item]>,
        scratch: &mut MatchScratch,
        acc: &mut [u64],
    ) -> (u64, u64, u64) {
        assert_eq!(acc.len(), self.len(), "one count cell per candidate");
        if self.k < 2 {
            // No pairs to count: each row goes through the leaves.
            let (mut visits, mut matches) = (0u64, 0u64);
            let cells = scratch.tally(acc.len(), |s, touched| {
                for t in rows {
                    let row = self.for_each_match(t, s, &mut |i| {
                        acc[i] += 1;
                        touched[i / 64] |= 1u64 << (i % 64);
                        matches += 1;
                    });
                    visits = visits.saturating_add(row);
                }
            });
            return (visits, matches, cells);
        }
        let list = (!self.triangle).then_some(&self.ids);
        let (k, m) = (self.k, self.items.len());
        let (mut visits, mut matches) = (0u64, 0u64);
        let cells = scratch.tally(acc.len(), |s, touched| {
            s.ids.clear();
            s.ends.clear();
            for t in rows.into_iter().filter(|t| t.len() >= k) {
                let start = s.ids.len();
                visits = visits.saturating_add(self.visit(t, s).0);
                match list {
                    None => {
                        matches += add_pairs(acc, touched, m, &s.ids[start..]);
                        s.ids.truncate(start);
                    }
                    Some(_) if s.ids.len() - start < k => s.ids.truncate(start),
                    Some(list) => {
                        s.ends.push(s.ids.len());
                        if s.ends.len() == CHUNK_ROWS {
                            matches += s.count_chunk(list, m, acc, touched);
                        }
                    }
                }
            }
            if let Some(list) = list {
                matches += s.count_chunk(list, m, acc, touched);
            }
        });
        (visits, matches, cells)
    }

    /// Sweep the row `t`, at least `k` items long, for its visits: the
    /// root's one arrival, every arrival below it and one per entry of each
    /// leaf reached. Appends the ids of the candidate items it holds to
    /// `s.ids` and leaves the leaves reached in `s.leaves`; returns the
    /// visits and the number of leaves.
    fn visit(&self, t: &[Item], s: &mut MatchScratch) -> (u64, usize) {
        s.begin(self, t);
        let interior = self.interior();
        let reached = if (self.root as usize) < interior {
            self.sweep(s)
        } else {
            s.leaves[0] = self.root;
            1
        };
        // Each `cum` read goes back to zero.
        let mut visits = 1u64;
        for d in 1..self.k {
            for &node in &s.active[d * (interior + 1)..][..s.lens[d]] {
                visits = visits.saturating_add(std::mem::take(&mut s.cum[node as usize]));
            }
        }
        s.cum[self.root as usize] = 0;
        s.cum[self.num_nodes()] = 0;
        for &leaf in &s.leaves[..reached] {
            let l = leaf as usize - interior;
            let entries = u64::from(self.leaf_start[l + 1] - self.leaf_start[l]);
            let arrivals = std::mem::take(&mut s.cum[leaf as usize]);
            visits = visits.saturating_add(arrivals).saturating_add(entries);
        }
        (visits, reached)
    }

    /// One pass over the positions of the row in `s.slots`: leaves every
    /// node's arrivals in `s.cum`, the interior nodes reached in `s.active`
    /// by depth and the leaves reached in `s.leaves`, whose number it returns.
    fn sweep(&self, s: &mut MatchScratch) -> usize {
        let (k, n) = (self.k, s.slots.len());
        let interior = self.interior() as u32;
        let width = interior as usize + 1;
        s.cum[self.root as usize] = 1;
        s.cum[self.num_nodes()] = u64::MAX;
        s.active[0] = self.root;
        s.lens[0] = 1;
        let mut reached = 0;
        for (j, &slot) in s.slots.iter().enumerate() {
            // A node `d` items down is first arrived at at position `d`, and
            // goes on while `k − d − 1` items are left after `t[j]`.
            for d in ((j + k).saturating_sub(n)..k.min(j + 1)).rev() {
                let (row, below) = s.active[d * width..].split_at_mut(width);
                let mut next = s.lens[d + 1];
                for &node in &row[..s.lens[d]] {
                    let arrivals = s.cum[node as usize];
                    let child = self.children[node as usize * self.branching + slot as usize];
                    let before = s.cum[child as usize];
                    s.cum[child as usize] = before.saturating_add(arrivals);
                    // No branch: list the child where it belongs, and keep
                    // it there only on its first arrival.
                    let (first, inner) = (before == 0, child < interior);
                    below[next] = child;
                    next += usize::from(first & inner);
                    s.leaves[reached] = child;
                    reached += usize::from(first & !inner);
                }
                s.lens[d + 1] = next;
            }
        }
        reached
    }

    /// Report leaf `leaf`'s entries whose items `present` all stamps.
    fn verify(&self, leaf: usize, present: &[u32], version: u32, f: &mut impl FnMut(usize)) {
        let entries =
            &self.entry_cand[self.leaf_start[leaf] as usize..self.leaf_start[leaf + 1] as usize];
        for part in entries.chunks(64) {
            // No branch per item or entry: on dense data a hit is a coin
            // flip. Entry `i` sets bit `i` when the row holds all its items.
            let mut hits = 0u64;
            for (bit, &cand) in part.iter().enumerate() {
                let ids = self.ids.get(cand as usize);
                let held = ids
                    .iter()
                    .fold(true, |all, &id| all & (present[id as usize] == version));
                hits |= u64::from(held) << bit;
            }
            while hits != 0 {
                f(part[hits.trailing_zeros() as usize] as usize);
                hits &= hits - 1;
            }
        }
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
        assert_eq!(s.cum.len(), tree.num_nodes() + 1, "one cell per node");
        assert!(s.cum.iter().all(|&c| c == 0), "zero at rest");
        assert_eq!(s.leaves.len(), tree.leaf_start.len());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mixed_length_candidates_rejected() {
        HashTree::build(sets(&[&[1], &[1, 2]]));
    }
}
