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
    pub(crate) fn units(&self) -> u64 {
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

    let lookup: FxHashSet<&[Item]> = frequent.iter().map(Itemset::items).collect();

    let mut out = Vec::new();
    // The joined candidate and the subset being probed, reused: only the
    // candidates kept are allocated.
    let (mut cand, mut sub) = (Vec::with_capacity(k + 1), Vec::with_capacity(k));
    for run in sorted.chunk_by(|a, b| same_prefix(a, b)) {
        // Join every ordered pair within the run.
        for (a, head) in run.iter().enumerate() {
            for tail in &run[a + 1..] {
                work.join_comparisons += 1;
                cand.clear();
                cand.extend_from_slice(head.items());
                cand.push(tail.items()[k - 1]);

                // Prune: every k-subset must be frequent. The two subsets
                // that produced the join are frequent by construction.
                let mut keep = true;
                for skip in 0..=k {
                    work.prune_checks += 1;
                    sub.clear();
                    sub.extend_from_slice(&cand[..skip]);
                    sub.extend_from_slice(&cand[skip + 1..]);
                    if !lookup.contains(sub.as_slice()) {
                        keep = false;
                        break;
                    }
                }
                if keep {
                    out.push(Itemset::from_sorted(cand.clone()));
                }
            }
        }
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

/// Whether two itemsets of one length share all but their last item: in
/// sorted order such runs are contiguous, and `ap_gen` joins within them.
fn same_prefix(a: &Itemset, b: &Itemset) -> bool {
    let k = a.len();
    a.items()[..k - 1] == b.items()[..k - 1]
}

/// `J`, the pairs `ap_gen` would join over the sorted level `level`:
/// `Σ g(g−1)/2` over its prefix runs. Exactly
/// [`GenWork::join_comparisons`], so an upper bound on the candidates it
/// would generate, found without generating them.
pub(crate) fn join_pairs(level: &[Itemset]) -> u64 {
    let runs = level
        .chunk_by(same_prefix)
        .map(|run| run.len() * (run.len() - 1) / 2);
    runs.sum::<usize>() as u64
}

/// How far one counting job's candidate chain reaches past its first level.
pub(crate) enum Chain<'a> {
    /// At most this many levels: 1 for one pass per job (MR's SPC, YAFIM's
    /// `Paper` and `opt`, every trie or hash-tree fallback), `p` for FPC.
    Levels(usize),
    /// Levels while their candidates total at most this many (DPC); the
    /// level that would cross it is generated, charged and dropped.
    Candidates(usize),
    /// Levels while `admit(from, J)` holds, asked before a level is
    /// generated from the candidate level `from`, `J` being its
    /// [`join_pairs`]: the bitmap plan's priced rule.
    Priced(&'a mut dyn FnMut(&[Itemset], u64) -> bool),
}

/// The candidate levels one counting job counts, from `seed` =
/// `L_{first−1}`: level `first` is `ap_gen(seed)`, and each further level,
/// while `chain` admits it, is `ap_gen` of the previous *candidate* level,
/// which keeps the result complete (candidates are a superset of the
/// frequent sets). No level past `max_passes` (0: no cap), none after an
/// empty one. Returns the levels and the `GenWork` units of every `ap_gen`.
pub(crate) fn job_candidates(
    seed: &[Itemset],
    first: usize,
    max_passes: usize,
    mut chain: Chain,
) -> (Vec<Vec<Itemset>>, u64) {
    let (mut out, mut units, mut total) = (Vec::<Vec<Itemset>>::new(), 0, 0);
    while max_passes == 0 || first + out.len() <= max_passes {
        let from = out.last().map_or(seed, Vec::as_slice);
        let more = out.is_empty()
            || match &mut chain {
                Chain::Levels(n) => out.len() < *n,
                Chain::Candidates(_) => true,
                Chain::Priced(admit) => admit(from, join_pairs(from)),
            };
        if !more {
            break;
        }
        let (cands, work) = ap_gen(from);
        units += work.units();
        let crosses = |max| !out.is_empty() && total + cands.len() > max;
        if cands.is_empty() || matches!(chain, Chain::Candidates(max) if crosses(max)) {
            break;
        }
        total += cands.len();
        out.push(cands);
    }
    (out, units)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use yafim_data::rng::StdRng;

    /// `ap_gen` as it was before its prune stopped allocating: a fresh
    /// `Itemset` per join and per probed subset. The oracle for what the
    /// driver is charged, both `GenWork` counters.
    fn ap_gen_allocating(frequent: &[Itemset]) -> (Vec<Itemset>, GenWork) {
        let mut work = GenWork::default();
        if frequent.is_empty() {
            return (Vec::new(), work);
        }
        let k = frequent[0].len();
        let mut sorted: Vec<&Itemset> = frequent.iter().collect();
        sorted.sort();
        let lookup: FxHashSet<&Itemset> = frequent.iter().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let prefix = &sorted[i].items()[..k - 1];
            let mut j = i + 1;
            while j < sorted.len() && &sorted[j].items()[..k - 1] == prefix {
                j += 1;
            }
            for a in i..j {
                for b in a + 1..j {
                    work.join_comparisons += 1;
                    let mut items = sorted[a].items().to_vec();
                    items.push(sorted[b].items()[k - 1]);
                    let cand = Itemset::from_sorted(items);
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

    /// A random `L_k` over `0..n`: the `k`-subsets of a few random sets,
    /// each kept with probability 3/4 (so joins survive the prune and fail
    /// it), plus a few uniform draws, shuffled.
    pub(crate) fn random_level(rng: &mut StdRng, k: usize, n: u32) -> Vec<Itemset> {
        let mut level = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1..5usize) {
            let mut base: Vec<Item> = (0..n).collect();
            while base.len() > k + 2 {
                base.remove(rng.gen_range(0..base.len()));
            }
            for mask in 0..1u32 << base.len() {
                let subset = (0..base.len()).filter(|&i| mask >> i & 1 == 0);
                let items: Vec<Item> = subset.map(|i| base[i]).collect();
                if items.len() == k && rng.gen_range(0..4u32) > 0 {
                    level.insert(Itemset::from_sorted(items));
                }
            }
        }
        for _ in 0..rng.gen_range(0..8usize) {
            let items: Vec<Item> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            let set = Itemset::new(items);
            if set.len() == k {
                level.insert(set);
            }
        }
        let mut level: Vec<Itemset> = level.into_iter().collect();
        for i in (1..level.len()).rev() {
            level.swap(i, rng.gen_range(0..i + 1));
        }
        level
    }

    #[test]
    fn the_prune_charges_what_the_allocating_loop_charged() {
        let mut rng = StdRng::seed_from_u64(0xa9_6e2);
        for k in 1..=5 {
            // One prefix group: every set shares its first k - 1 items.
            let group: Vec<Itemset> = (k as u32 - 1..k as u32 + 6)
                .map(|last| Itemset::from_sorted((0..k as u32 - 1).chain([last]).collect()))
                .collect();
            let random = (0..40).map(|_| random_level(&mut rng, k, 7 + 2 * k as u32));
            for mut level in [Vec::new(), group].into_iter().chain(random) {
                let (candidates, work) = ap_gen(&level);
                // `J` counts the joins without making them, and bounds them.
                level.sort();
                assert_eq!(join_pairs(&level), work.join_comparisons);
                assert!(work.join_comparisons >= candidates.len() as u64);
                assert_eq!(
                    (candidates, work),
                    ap_gen_allocating(&level),
                    "k={k} {level:?}"
                );
            }
        }
    }

    #[test]
    fn a_chain_holds_every_level_apriori_reaches_and_stops_at_max_passes() {
        let mut rng = StdRng::seed_from_u64(0xc4a1);
        for k in (1..=4).flat_map(|k| [k; 30]) {
            let (seed, first) = (random_level(&mut rng, k, 6 + 2 * k as u32), k + 1);
            let chain = |cap| job_candidates(&seed, first, cap, Chain::Levels(usize::MAX)).0;
            let full = chain(0);
            // Any frequent level is a subset of the candidates; the next
            // one Apriori generates from it is in the chain's next level.
            let mut frequent = seed.clone();
            for level in &full {
                let reached = ap_gen(&frequent).0;
                assert!(reached.iter().all(|c| level.binary_search(c).is_ok()));
                let kept = level.iter().filter(|_| rng.gen_range(0..3u32) > 0);
                frequent = kept.cloned().collect();
            }
            for cap in first..first + 3 {
                assert_eq!(chain(cap)[..], full[..full.len().min(cap + 1 - first)]);
            }
        }
    }

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
