//! Contiguous-arena prefix trie over candidate `k`-itemsets — the second
//! matcher behind [`CandidateStore`](crate::candidates::CandidateStore).
//!
//! Singh et al. ("A Data Structure Perspective to the RDD-based Apriori
//! Algorithm") observe that the candidate data structure dominates Phase II
//! runtime and that tries beat the classic hash tree. This trie stores all
//! nodes in flat arrays (CSR layout): each node's children occupy one
//! contiguous, item-sorted range of `child_item`/`child_node`, so matching a
//! sorted transaction against a node is a two-pointer merge with no hashing,
//! no pointer chasing between allocations, and — because each candidate is
//! reachable along exactly one root-to-leaf path — no per-transaction
//! bookkeeping (the hash tree reaches a leaf along many hash paths).
//!
//! Built from the sorted candidate list `ap_gen` produces; candidate `i` of
//! the input is reported as match index `i`, the same contract as
//! [`HashTree`](crate::hashtree::HashTree).

use crate::candidates::CandidateStore;
use crate::hashtree::{count_each_row, MatchScratch};
use crate::types::{Item, Itemset};
use yafim_cluster::ByteSize;

/// Sentinel for "this node carries no candidate" (interior node).
const NO_CANDIDATE: u32 = u32::MAX;

/// A prefix trie over candidates of equal length `k`, arena-allocated.
///
/// ```
/// use yafim_core::{CandidateTrie, Itemset};
///
/// let trie = CandidateTrie::build(vec![
///     Itemset::new(vec![1, 2]),
///     Itemset::new(vec![2, 3]),
///     Itemset::new(vec![4, 5]),
/// ]);
/// let mut found = Vec::new();
/// trie.for_each_match(&[1, 2, 3], &mut |idx| found.push(idx));
/// assert_eq!(found, vec![0, 1]);
/// ```
pub struct CandidateTrie {
    k: usize,
    /// CSR ranges: children of node `i` are `child_start[i]..child_start[i+1]`.
    child_start: Vec<u32>,
    /// Edge labels, ascending within each node's range.
    child_item: Vec<Item>,
    /// Edge targets, parallel to `child_item`.
    child_node: Vec<u32>,
    /// Candidate index at depth-`k` nodes, [`NO_CANDIDATE`] elsewhere.
    candidate_at: Vec<u32>,
    candidates: Vec<Itemset>,
}

/// Adjacency built during the recursive construction, flattened to CSR after.
struct BuildNode {
    children: Vec<(Item, u32)>,
    candidate: u32,
}

impl CandidateTrie {
    /// Build over `candidates`, which must be sorted ascending, distinct,
    /// and of equal length (exactly what `ap_gen` returns). Panics otherwise.
    pub fn build(candidates: Vec<Itemset>) -> Self {
        let k = candidates.first().map_or(0, Itemset::len);
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "all candidates must have equal length"
        );
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be sorted and distinct"
        );

        let mut nodes: Vec<BuildNode> = Vec::with_capacity(candidates.len() * 2 + 1);
        nodes.push(BuildNode {
            children: Vec::new(),
            candidate: NO_CANDIDATE,
        });
        if !candidates.is_empty() {
            build_rec(&candidates, 0, candidates.len(), 0, 0, k, &mut nodes);
        }

        // Flatten the adjacency lists into the CSR arena.
        let mut child_start = Vec::with_capacity(nodes.len() + 1);
        let mut child_item = Vec::new();
        let mut child_node = Vec::new();
        let mut candidate_at = Vec::with_capacity(nodes.len());
        let mut acc = 0u32;
        for n in &nodes {
            child_start.push(acc);
            acc += n.children.len() as u32;
            for &(item, node) in &n.children {
                child_item.push(item);
                child_node.push(node);
            }
            candidate_at.push(n.candidate);
        }
        child_start.push(acc);

        CandidateTrie {
            k,
            child_start,
            child_item,
            child_node,
            candidate_at,
            candidates,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the trie holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of trie nodes (observability / tests).
    pub fn num_nodes(&self) -> usize {
        self.candidate_at.len()
    }

    /// Invoke `f(candidate index)` once per candidate contained in the
    /// sorted transaction `t`. Returns the edge-probe count (CPU estimate).
    pub fn for_each_match(&self, t: &[Item], f: &mut dyn FnMut(usize)) -> u64 {
        if self.k == 0 || t.len() < self.k || self.candidates.is_empty() {
            return 0;
        }
        let mut visits = 0u64;
        self.descend(0, t, 0, 0, &mut visits, f);
        visits
    }

    fn descend(
        &self,
        node: u32,
        t: &[Item],
        pos: usize,
        depth: usize,
        visits: &mut u64,
        f: &mut dyn FnMut(usize),
    ) {
        if depth == self.k {
            *visits += 1;
            f(self.candidate_at[node as usize] as usize);
            return;
        }
        // Two-pointer merge of this node's sorted edge labels against the
        // remaining transaction items, leaving enough items to complete a
        // candidate.
        let remaining_needed = self.k - depth;
        let last = t.len() - (remaining_needed - 1);
        let mut ci = self.child_start[node as usize] as usize;
        let ce = self.child_start[node as usize + 1] as usize;
        let mut ti = pos;
        while ci < ce && ti < last {
            *visits += 1;
            match self.child_item[ci].cmp(&t[ti]) {
                std::cmp::Ordering::Less => ci += 1,
                std::cmp::Ordering::Greater => ti += 1,
                std::cmp::Ordering::Equal => {
                    self.descend(self.child_node[ci], t, ti + 1, depth + 1, visits, f);
                    ci += 1;
                    ti += 1;
                }
            }
        }
    }

    /// Brute-force reference: indices of all candidates contained in `t`.
    pub fn matches_naive(&self, t: &[Item]) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_subset_of_sorted(t))
            .map(|(i, _)| i)
            .collect()
    }
}

fn build_rec(
    candidates: &[Itemset],
    lo: usize,
    hi: usize,
    depth: usize,
    node: u32,
    k: usize,
    nodes: &mut Vec<BuildNode>,
) {
    if depth == k {
        debug_assert_eq!(hi, lo + 1, "sorted distinct candidates share no full path");
        nodes[node as usize].candidate = lo as u32;
        return;
    }
    // Candidates are sorted, so equal items at `depth` form contiguous runs
    // (within a shared prefix), giving item-sorted child ranges for free.
    let mut i = lo;
    while i < hi {
        let item = candidates[i].items()[depth];
        let mut j = i + 1;
        while j < hi && candidates[j].items()[depth] == item {
            j += 1;
        }
        let child = nodes.len() as u32;
        nodes.push(BuildNode {
            children: Vec::new(),
            candidate: NO_CANDIDATE,
        });
        nodes[node as usize].children.push((item, child));
        build_rec(candidates, i, j, depth + 1, child, k, nodes);
        i = j;
    }
}

impl CandidateStore for CandidateTrie {
    fn count_rows_dyn(
        &self,
        rows: &mut dyn Iterator<Item = &[Item]>,
        scratch: &mut MatchScratch,
        acc: &mut [u64],
    ) -> (u64, u64, u64) {
        // Unique paths: nothing to keep per row.
        count_each_row(rows, scratch, acc, |t, _, f| self.for_each_match(t, f))
    }

    fn name(&self) -> &'static str {
        "trie"
    }
}

impl ByteSize for CandidateTrie {
    fn byte_size(&self) -> u64 {
        let cands: u64 = self.candidates.iter().map(ByteSize::byte_size).sum();
        cands
            + 4 * (self.child_start.len()
                + self.child_item.len()
                + self.child_node.len()
                + self.candidate_at.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[Item]]) -> Vec<Itemset> {
        let mut v: Vec<Itemset> = raw.iter().map(|s| Itemset::new(s.to_vec())).collect();
        v.sort();
        v
    }

    fn matches(trie: &CandidateTrie, t: &[Item]) -> Vec<usize> {
        let mut out = Vec::new();
        trie.for_each_match(t, &mut |i| out.push(i));
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let trie = CandidateTrie::build(Vec::new());
        assert!(trie.is_empty());
        assert_eq!(matches(&trie, &[1, 2, 3]), Vec::<usize>::new());
    }

    #[test]
    fn single_candidate() {
        let trie = CandidateTrie::build(sets(&[&[1, 3]]));
        assert_eq!(matches(&trie, &[1, 2, 3]), vec![0]);
        assert_eq!(matches(&trie, &[1, 2]), Vec::<usize>::new());
        assert_eq!(matches(&trie, &[3]), Vec::<usize>::new());
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let trie = CandidateTrie::build(sets(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4]]));
        // root + {1} + {1,2} + {1,2,3} + {1,2,4} + {1,3} + {1,3,4} = 7
        assert_eq!(trie.num_nodes(), 7);
        assert_eq!(matches(&trie, &[1, 2, 3, 4]), vec![0, 1, 2]);
        assert_eq!(matches(&trie, &[1, 3, 4]), vec![2]);
    }

    #[test]
    fn each_candidate_reported_at_most_once() {
        let cands = sets(&[
            &[0, 6, 11],
            &[1, 7, 12],
            &[2, 8, 13],
            &[0, 7, 13],
            &[1, 6, 11],
        ]);
        let n = cands.len();
        let trie = CandidateTrie::build(cands);
        let t: Vec<Item> = (0..15).collect();
        let mut counts = vec![0u32; n];
        trie.for_each_match(&t, &mut |i| counts[i] += 1);
        assert!(counts.iter().all(|&c| c == 1), "counts {counts:?}");
    }

    #[test]
    fn agrees_with_naive_on_random_shapes() {
        let cands: Vec<Itemset> = {
            let mut v: Vec<Itemset> = (0u32..160)
                .map(|i| Itemset::new(vec![i % 11, 11 + (i / 3) % 9, 20 + i % 7, 27 + i % 5]))
                .collect::<std::collections::HashSet<_>>()
                .into_iter()
                .collect();
            v.sort();
            v
        };
        let trie = CandidateTrie::build(cands);
        for seed in 0u32..25 {
            let t: Vec<Item> = (0..32).filter(|x| (x * 5 + seed) % 3 != 0).collect();
            let mut naive = trie.matches_naive(&t);
            naive.sort_unstable();
            assert_eq!(matches(&trie, &t), naive, "seed {seed}");
        }
    }

    #[test]
    fn visits_are_positive_work_estimate() {
        let trie = CandidateTrie::build(sets(&[&[1, 2], &[2, 3]]));
        let visits = trie.for_each_match(&[1, 2, 3], &mut |_| {});
        assert!(visits >= 2, "got {visits}");
        assert_eq!(trie.for_each_match(&[1], &mut |_| {}), 0);
    }

    #[test]
    fn store_trait_round_trip() {
        let cands = sets(&[&[1, 2], &[2, 3]]);
        let boxed: Box<dyn CandidateStore> = Box::new(CandidateTrie::build(cands));
        let rows: [&[Item]; 3] = [&[1, 2, 3], &[2, 3], &[1]];
        let mut acc = vec![0; 2];
        let mut s = MatchScratch::default();
        let (_, matches, cells) = boxed.count_rows_dyn(&mut rows.into_iter(), &mut s, &mut acc);
        assert_eq!((acc, matches, cells), (vec![1, 2], 3, 2));
        assert!(boxed.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_candidates_rejected() {
        CandidateTrie::build(vec![Itemset::new(vec![2, 3]), Itemset::new(vec![1, 2])]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mixed_length_candidates_rejected() {
        CandidateTrie::build(vec![Itemset::new(vec![1]), Itemset::new(vec![1, 2])]);
    }
}
