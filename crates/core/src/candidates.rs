//! Candidate generation — `ap_gen` in the paper's Algorithm 3, line 2.
//!
//! `C_k = { a ∪ {b} | a ∈ L_{k-1}, b ∈ L_{k-1}, a and b share their first
//! k-2 items }`, followed by the monotonicity prune: drop any candidate with
//! an infrequent `(k-1)`-subset (Apriori's key search-space reduction,
//! Algorithm 1 line 5 / §II.A). The projecting plans also drop a candidate
//! whose subsets' supports bound its own below MinSup (`ap_gen_bounded`).

use crate::hashtree::{count_each_row, MatchScratch};
use crate::types::{Item, Itemset};
use yafim_cluster::{ByteSize, FxHashMap, FxHashSet};

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

    /// Add one to `acc[i]` (one cell per candidate) for every candidate `i`
    /// contained in each sorted row of `rows`. Returns the visits (what
    /// [`for_each_match_dyn`](Self::for_each_match_dyn) returns, summed over
    /// the rows), the matches and the number of distinct candidates matched.
    /// One row at a time unless the store counts many at once (the hash
    /// tree does).
    fn count_rows_dyn(
        &self,
        rows: &mut dyn Iterator<Item = &[Item]>,
        scratch: &mut MatchScratch,
        acc: &mut [u64],
    ) -> (u64, u64, u64) {
        count_each_row(rows, scratch, acc, |t, s, f| {
            self.for_each_match_dyn(t, s, f)
        })
    }

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
    /// Binary searches into the lower levels for the support bound: per
    /// join run of `g` members, `σ(p)`, `σ(X)` unless `X` is empty, and the
    /// `g` supports `σ(X ∪ y)`.
    pub bound_lookups: u64,
    /// Candidates that passed the prune and that the support bound dropped.
    pub bounded: u64,
}

impl GenWork {
    /// Total abstract CPU units.
    pub(crate) fn units(&self) -> u64 {
        self.join_comparisons + self.prune_checks + self.bound_lookups
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
    let mut sorted: Vec<(&[Item], u64)> = frequent.iter().map(|s| (s.items(), 0)).collect();
    sorted.sort_unstable();
    join_and_prune(&sorted, &[], 0, None)
}

/// `ap_gen` over the last of `levels` (`levels[i]` is `L_{i+1}`, sorted,
/// with exact supports), dropping every candidate whose support its
/// subsets bound below `min_sup`: a candidate `c = X ∪ {a, y1, y2}` of the
/// join run with prefix `p = X ∪ {a}` has, by inclusion–exclusion over the
/// rows holding `X`, `σ(c) = UB − #(rows ⊇ X holding none of a, y1, y2)`,
/// where `UB = σ(p∪y1) + σ(p∪y2) + σ(X∪y1y2) − σ(p) − σ(X∪y1) − σ(X∪y2)
/// + σ(X)` and `σ(∅) = lines`, the input's line count. A term the levels
/// lack keeps the candidate. Dropped candidates are infrequent, so the
/// level stays a superset of `L_{k+1}`.
pub(crate) fn ap_gen_bounded(
    levels: &[Vec<(Itemset, u64)>],
    lines: u64,
    min_sup: u64,
) -> (Vec<Itemset>, GenWork) {
    let top = levels.last().map_or(&[][..], Vec::as_slice);
    debug_assert!(top.windows(2).all(|w| w[0].0 < w[1].0), "L_k is sorted");
    let sorted: Vec<(&[Item], u64)> = top.iter().map(|(s, c)| (s.items(), *c)).collect();
    join_and_prune(&sorted, levels, lines, Some(min_sup))
}

/// The join and prune over the sorted level `sorted`, each set with its
/// support, then, given a `min_sup`, the bound over `levels` and `lines` as
/// [`ap_gen_bounded`] takes them.
fn join_and_prune(
    sorted: &[(&[Item], u64)],
    levels: &[Vec<(Itemset, u64)>],
    lines: u64,
    min_sup: Option<u64>,
) -> (Vec<Itemset>, GenWork) {
    let mut work = GenWork::default();
    let Some(k) = sorted.first().map(|(s, _)| s.len()) else {
        return (Vec::new(), work);
    };
    debug_assert!(sorted.iter().all(|(s, _)| s.len() == k));
    // The bound needs a prefix item `a`: from `L_2` on.
    let wide = |n: u64| i128::from(n);
    let min_sup = min_sup.filter(|_| k >= 2).map(wide);
    let lookup: FxHashMap<&[Item], u64> = sorted.iter().copied().collect();

    let mut out = Vec::new();
    // The joined candidate, the subset being probed and `X ∪ {y}`, reused:
    // only the candidates kept are allocated.
    let (mut cand, mut sub, mut x_y) = (Vec::with_capacity(k + 1), Vec::new(), Vec::new());
    // Per run under the bound, `σ(X) − σ(p)` and each member's
    // `σ(p ∪ y) − σ(X ∪ y)`: `UB` is their sum for `y1, y2` plus `σ(X ∪ y1y2)`.
    let (mut base, mut deltas) = (None, Vec::new());
    for run in sorted.chunk_by(|a, b| a.0[..k - 1] == b.0[..k - 1]) {
        if min_sup.is_some() && run.len() > 1 {
            let (p, x) = (&run[0].0[..k - 1], &run[0].0[..k - 2]);
            work.bound_lookups += 1 + u64::from(!x.is_empty()) + run.len() as u64;
            let (s_x, s_p) = (support_in(levels, lines, x), support_in(levels, lines, p));
            base = s_x.zip(s_p).map(|(x, p)| wide(x) - wide(p));
            deltas.clear();
            deltas.extend(run.iter().map(|&(set, s)| {
                x_y.clear();
                x_y.extend_from_slice(x);
                x_y.push(set[k - 1]);
                support_in(levels, lines, &x_y).map(|s_xy| wide(s) - wide(s_xy))
            }));
        }
        // Join every ordered pair within the run.
        for (a, (head, _)) in run.iter().enumerate() {
            for (b, (tail, _)) in run.iter().enumerate().skip(a + 1) {
                work.join_comparisons += 1;
                cand.clear();
                cand.extend_from_slice(head);
                cand.push(tail[k - 1]);

                // Prune: every k-subset must be frequent. The two subsets
                // that produced the join are frequent by construction. The
                // one without `a` (position k − 2) is `X ∪ {y1, y2}`.
                let (mut keep, mut s_xyy) = (true, None);
                for skip in 0..=k {
                    work.prune_checks += 1;
                    sub.clear();
                    sub.extend_from_slice(&cand[..skip]);
                    sub.extend_from_slice(&cand[skip + 1..]);
                    let Some(&s) = lookup.get(sub.as_slice()) else {
                        keep = false;
                        break;
                    };
                    s_xyy = s_xyy.or((skip + 2 == k).then_some(s));
                }
                let ub = || Some(base? + deltas[a]? + deltas[b]? + wide(s_xyy?));
                if keep && min_sup.is_some_and(|min| ub().is_some_and(|ub| ub < min)) {
                    work.bounded += 1;
                } else if keep {
                    out.push(Itemset::from_sorted(cand.clone()));
                }
            }
        }
    }
    out.sort();
    (out, work)
}

/// The support of `set` in `levels` (`levels[i]` sorted, of `(i+1)`-sets)
/// if it is there, `lines` for the empty set.
fn support_in(levels: &[Vec<(Itemset, u64)>], lines: u64, set: &[Item]) -> Option<u64> {
    if set.is_empty() {
        return Some(lines);
    }
    let level = levels.get(set.len() - 1)?;
    let at = level.binary_search_by(|(s, _)| s.items().cmp(set)).ok()?;
    Some(level[at].1)
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

/// The candidate levels one counting job counts, from its first level
/// `first_level` (pass `first`'s candidates, as the caller generated them:
/// [`ap_gen`] or [`ap_gen_bounded`]): each further level, while `chain`
/// admits it, is `ap_gen` of the previous *candidate* level, which keeps the
/// result complete (candidates are a superset of the frequent sets). No
/// level past `max_passes` (0: no cap; the caller has checked `first`), none
/// after an empty one. Returns the levels and the work of every `ap_gen`.
pub(crate) fn job_candidates(
    first_level: (Vec<Itemset>, GenWork),
    first: usize,
    max_passes: usize,
    mut chain: Chain,
) -> (Vec<Vec<Itemset>>, GenWork) {
    let (mut level, mut work) = first_level;
    let (mut out, mut total) = (Vec::<Vec<Itemset>>::new(), 0);
    while !level.is_empty() {
        total += level.len();
        out.push(level);
        let from = out.last().map_or(&[][..], Vec::as_slice);
        let more = (max_passes == 0 || first + out.len() <= max_passes)
            && match &mut chain {
                Chain::Levels(n) => out.len() < *n,
                Chain::Candidates(_) => true,
                Chain::Priced(admit) => admit(from, join_pairs(from)),
            };
        if !more {
            break;
        }
        let (next, plain) = ap_gen(from);
        work.join_comparisons += plain.join_comparisons;
        work.prune_checks += plain.prune_checks;
        level = next;
        if matches!(chain, Chain::Candidates(max) if total + level.len() > max) {
            break;
        }
    }
    (out, work)
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
            let chain =
                |cap| job_candidates(ap_gen(&seed), first, cap, Chain::Levels(usize::MAX)).0;
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

    /// `L_1, L_2, …` of `rows` (bitmasks over `0..n`) at `min_sup`, sorted,
    /// and every set's support, by brute force.
    fn brute_force(rows: &[u32], n: u32, min_sup: u64) -> (Vec<Vec<(Itemset, u64)>>, Vec<u64>) {
        let support: Vec<u64> = (0..1u32 << n)
            .map(|set| rows.iter().filter(|&&r| r & set == set).count() as u64)
            .collect();
        let mut levels = vec![Vec::new(); n as usize];
        for (set, &s) in (0..1u32 << n)
            .zip(&support)
            .skip(1)
            .filter(|(_, &s)| s >= min_sup)
        {
            let items = (0..n).filter(|i| set >> i & 1 == 1).collect();
            levels[set.count_ones() as usize - 1].push((Itemset::from_sorted(items), s));
        }
        levels.iter_mut().for_each(|level| level.sort());
        levels.retain(|level| !level.is_empty());
        (levels, support)
    }

    /// The bound from its definition, `c = X ∪ {a, y1, y2}` its last three
    /// items, over the supports `sigma` knows and `σ(∅) = lines`.
    fn upper_bound(c: &[Item], lines: u64, sigma: &dyn Fn(&[Item]) -> Option<u64>) -> Option<i128> {
        let (x, &[a, y1, y2]) = c.split_at(c.len() - 3) else {
            unreachable!()
        };
        let s = |extra: &[Item]| match [x, extra].concat() {
            set if set.is_empty() => Some(i128::from(lines)),
            set => sigma(&set).map(i128::from),
        };
        let plus = s(&[a, y1])? + s(&[a, y2])? + s(&[y1, y2])? + s(&[])?;
        Some(plus - s(&[a])? - s(&[y1])? - s(&[y2])?)
    }

    #[test]
    fn the_support_bound_drops_only_infrequent_candidates_and_keeps_what_it_cannot_price() {
        let mut rng = StdRng::seed_from_u64(0xb0_0d);
        let mut dropped = 0;
        for _ in 0..300 {
            // Empty and single-item rows too: `σ(∅) = lines` counts them,
            // and every 3-item candidate's bound uses it.
            let (n, density) = (rng.gen_range(4..8u32), rng.gen_range(3..8u32));
            let bits = (0..rng.gen_range(10..60u32) * n).map(|_| rng.gen_range(0..10u32) < density);
            let bits: Vec<u32> = bits.map(u32::from).collect();
            let row = |bits: &[u32]| bits.iter().rev().fold(0, |m, &b| m << 1 | b);
            let rows: Vec<u32> = bits.chunks(n as usize).map(row).collect();
            let (lines, min_sup) = (rows.len() as u64, rng.gen_range(1..8u64));
            let (levels, support) = brute_force(&rows, n, min_sup);
            let sigma = |s: &[Item]| support[s.iter().fold(0, |m, &i| m | 1 << i)];
            for k in 2..=levels.len() {
                let top: Vec<Itemset> = levels[k - 1].iter().map(|(s, _)| s.clone()).collect();
                let (plain, plain_work) = ap_gen(&top);
                let (bounded, work) = ap_gen_bounded(&levels[..k], lines, min_sup);
                // Forget some lower supports: a candidate they priced is kept.
                let mut doctored = levels[..k].to_vec();
                let forget =
                    |level: &mut Vec<(Itemset, u64)>| level.retain(|_| rng.gen_range(0..4u32) > 0);
                doctored[..k - 1].iter_mut().for_each(forget);
                let (partial, _) = ap_gen_bounded(&doctored, lines, min_sup);
                let known = |s: &[Item]| {
                    doctored[s.len() - 1]
                        .iter()
                        .find(|(t, _)| t.items() == s)
                        .map(|e| e.1)
                };
                for c in &plain {
                    let ub = upper_bound(c.items(), lines, &|s| Some(sigma(s))).expect("all known");
                    let kept = bounded.binary_search(c).is_ok();
                    assert!(ub >= i128::from(sigma(c.items())), "{c}: {ub}");
                    assert_eq!(kept, ub >= i128::from(min_sup), "{c}: {ub}");
                    assert!(kept || sigma(c.items()) < min_sup, "{c} dropped");
                    let priced = upper_bound(c.items(), lines, &known);
                    let keep = priced.is_none_or(|ub| ub >= i128::from(min_sup));
                    assert_eq!(partial.binary_search(c).is_ok(), keep, "{c}");
                }
                // bounded ⊆ ap_gen, and bounded ⊇ L_{k+1}.
                assert!(bounded.iter().all(|c| plain.binary_search(c).is_ok()));
                let next = levels.get(k).map_or(&[][..], Vec::as_slice);
                assert!(next.iter().all(|(c, _)| bounded.binary_search(c).is_ok()));
                assert_eq!(work.bounded as usize, plain.len() - bounded.len());
                let pair = |w: GenWork| (w.join_comparisons, w.prune_checks);
                assert_eq!(pair(work), pair(plain_work));
                dropped += work.bounded;
                // No level below the top where it belongs: plain `ap_gen`.
                let alone = [vec![], levels[k - 1].clone()];
                assert_eq!(ap_gen_bounded(&alone, lines, min_sup).0, plain);
            }
        }
        assert!(dropped > 100, "the bound must bite: {dropped}");
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
