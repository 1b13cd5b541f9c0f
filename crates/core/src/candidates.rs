//! Candidate generation — `ap_gen` in the paper's Algorithm 3, line 2.
//!
//! `C_k = { a ∪ {b} | a ∈ L_{k-1}, b ∈ L_{k-1}, a and b share their first
//! k-2 items }`, followed by the monotonicity prune: drop any candidate with
//! an infrequent `(k-1)`-subset (Apriori's key search-space reduction,
//! Algorithm 1 line 5 / §II.A).

use crate::hashtree::MatchScratch;
use crate::types::{Item, Itemset};
use yafim_cluster::{ByteSize, FxHashSet};

/// A broadcastable candidate index answering `subset(C_k, t)` — which
/// candidates occur in a transaction. Implemented by the classic
/// [`HashTree`](crate::hashtree::HashTree) (the paper-faithful reference,
/// §IV.C) and the arena [`CandidateTrie`](crate::trie::CandidateTrie);
/// the run's [`Phase2Plan`](crate::yafim::Phase2Plan) (and, under an armed
/// memory governor, the per-task limit) selects which one Phase II
/// broadcasts. Both report matches as indices into the same sorted candidate
/// list, so the engines are byte-identical across stores.
pub trait CandidateStore: Send + Sync {
    /// Candidate length `k` (0 for an empty store).
    fn k(&self) -> usize;

    /// Number of candidates.
    fn len(&self) -> usize;

    /// Whether the store holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidates, in insertion (= sorted) order; match callbacks
    /// receive indices into this slice.
    fn candidates(&self) -> &[Itemset];

    /// Consume the store, handing back the candidate list without cloning —
    /// how the driver drains the broadcast store once per pass.
    fn into_candidates(self: Box<Self>) -> Vec<Itemset>;

    /// Invoke `f(candidate index)` once per candidate contained in the
    /// sorted transaction `t`. Returns the node-visit/probe count (the
    /// virtual CPU work estimate).
    fn for_each_match_dyn(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        f: &mut dyn FnMut(usize),
    ) -> u64;

    /// Serialized size for broadcast accounting.
    fn store_bytes(&self) -> u64;

    /// Short label for span/report attribution (`"hash tree"`, `"trie"`).
    fn name(&self) -> &'static str;
}

impl ByteSize for Box<dyn CandidateStore> {
    fn byte_size(&self) -> u64 {
        self.store_bytes()
    }
}

/// A bare sorted candidate list, broadcastable as-is — what the vertical
/// bitmap strategy ships instead of a [`CandidateStore`]: the columnar
/// layout needs no per-transaction index, only the candidates themselves in
/// `ap_gen` order (indices into this list are the shuffle keys, exactly as
/// with the stores).
pub struct CandidateList(pub Vec<Itemset>);

impl ByteSize for CandidateList {
    fn byte_size(&self) -> u64 {
        8 + self.0.iter().map(ByteSize::byte_size).sum::<u64>()
    }
}

/// Work performed by one candidate-generation call, for driver-side CPU
/// accounting in the engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenWork {
    /// Join pairs examined.
    pub join_comparisons: u64,
    /// Subset lookups performed by the prune step.
    pub prune_checks: u64,
}

impl GenWork {
    /// Total abstract CPU units.
    pub fn units(&self) -> u64 {
        self.join_comparisons + self.prune_checks
    }
}

/// Generate the pruned candidate `(k+1)`-itemsets from the frequent
/// `k`-itemsets. `frequent` need not be sorted.
///
/// Returns the candidates (sorted) and the work counters.
///
/// ```
/// use yafim_core::{ap_gen, Itemset};
///
/// let l2: Vec<Itemset> = [[1, 2], [1, 3], [2, 3], [2, 4]]
///     .into_iter()
///     .map(|s| Itemset::new(s.to_vec()))
///     .collect();
/// let (c3, _work) = ap_gen(&l2);
/// // {1,2,3} joins and survives the prune; {2,3,4} dies ({3,4} infrequent).
/// assert_eq!(c3, vec![Itemset::new(vec![1, 2, 3])]);
/// ```
pub fn ap_gen(frequent: &[Itemset]) -> (Vec<Itemset>, GenWork) {
    let mut work = GenWork::default();
    if frequent.is_empty() {
        return (Vec::new(), work);
    }
    let k = frequent[0].len();
    debug_assert!(frequent.iter().all(|s| s.len() == k));

    let mut sorted: Vec<&Itemset> = frequent.iter().collect();
    sorted.sort();

    let lookup: FxHashSet<&Itemset> = frequent.iter().collect();

    let mut out = Vec::new();
    // Sorted order groups itemsets sharing a (k-1)-prefix contiguously.
    let mut i = 0;
    while i < sorted.len() {
        // Find the prefix-equal run [i, j).
        let prefix = &sorted[i].items()[..k - 1];
        let mut j = i + 1;
        while j < sorted.len() && &sorted[j].items()[..k - 1] == prefix {
            j += 1;
        }
        // Join every ordered pair within the run.
        for a in i..j {
            for b in a + 1..j {
                work.join_comparisons += 1;
                let last = sorted[b].items()[k - 1];
                let cand = sorted[a].extended_with(last);

                // Prune: every k-subset must be frequent. The two subsets
                // that produced the join are frequent by construction.
                let mut keep = true;
                for sub in cand.one_item_removed() {
                    work.prune_checks += 1;
                    if !lookup.contains(&sub) {
                        keep = false;
                        break;
                    }
                }
                if keep {
                    out.push(cand);
                }
            }
        }
        i = j;
    }
    out.sort();
    (out, work)
}

/// Reference implementation for tests: enumerate all `(k+1)`-itemsets over
/// the items appearing in `frequent` and keep those whose every `k`-subset
/// is frequent. Exponentially slower, obviously correct.
pub fn ap_gen_naive(frequent: &[Itemset]) -> Vec<Itemset> {
    if frequent.is_empty() {
        return Vec::new();
    }
    let k = frequent[0].len();
    let lookup: FxHashSet<&Itemset> = frequent.iter().collect();
    let mut items: Vec<u32> = frequent
        .iter()
        .flat_map(|s| s.items().iter().copied())
        .collect();
    items.sort_unstable();
    items.dedup();

    let mut out = Vec::new();
    let mut choice = vec![0usize; k + 1];
    // Enumerate strictly increasing index tuples of length k+1.
    fn rec(
        items: &[u32],
        choice: &mut Vec<usize>,
        depth: usize,
        start: usize,
        k1: usize,
        lookup: &FxHashSet<&Itemset>,
        out: &mut Vec<Itemset>,
    ) {
        if depth == k1 {
            let cand = Itemset::from_sorted(choice.iter().map(|&i| items[i]).collect());
            if cand.one_item_removed().all(|s| lookup.contains(&s)) {
                out.push(cand);
            }
            return;
        }
        for i in start..items.len() {
            choice[depth] = i;
            rec(items, choice, depth + 1, i + 1, k1, lookup, out);
        }
    }
    rec(&items, &mut choice, 0, 0, k + 1, &lookup, &mut out);
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[u32]]) -> Vec<Itemset> {
        raw.iter().map(|s| Itemset::new(s.to_vec())).collect()
    }

    #[test]
    fn join_from_singletons() {
        let (c, w) = ap_gen(&sets(&[&[1], &[2], &[3]]));
        assert_eq!(c, sets(&[&[1, 2], &[1, 3], &[2, 3]]));
        assert_eq!(w.join_comparisons, 3);
    }

    #[test]
    fn prune_removes_candidates_with_infrequent_subsets() {
        // {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3} (all subsets frequent)
        // and {2,3,4} (subset {3,4} missing → pruned).
        let (c, _) = ap_gen(&sets(&[&[1, 2], &[1, 3], &[2, 3], &[2, 4]]));
        assert_eq!(c, sets(&[&[1, 2, 3]]));
    }

    #[test]
    fn empty_input() {
        let (c, w) = ap_gen(&[]);
        assert!(c.is_empty());
        assert_eq!(w.units(), 0);
    }

    #[test]
    fn single_itemset_generates_nothing() {
        let (c, _) = ap_gen(&sets(&[&[1, 2]]));
        assert!(c.is_empty());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let (a, _) = ap_gen(&sets(&[&[3], &[1], &[2]]));
        let (b, _) = ap_gen(&sets(&[&[1], &[2], &[3]]));
        assert_eq!(a, b);
    }

    #[test]
    fn agrees_with_naive_reference() {
        let frequents = [
            sets(&[&[1], &[2], &[4], &[7]]),
            sets(&[&[1, 2], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[3, 4]]),
            sets(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[2, 3, 4], &[2, 3, 5]]),
        ];
        for f in &frequents {
            let (fast, _) = ap_gen(f);
            assert_eq!(fast, ap_gen_naive(f), "input {f:?}");
        }
    }

    #[test]
    fn full_l2_joins_to_full_c3() {
        // All six 2-subsets of {1..4} frequent → all four 3-subsets survive.
        let (c, _) = ap_gen(&sets(&[
            &[1, 2],
            &[1, 3],
            &[1, 4],
            &[2, 3],
            &[2, 4],
            &[3, 4],
        ]));
        assert_eq!(c, sets(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[2, 3, 4]]));
    }
}
