//! Candidate generation — `ap_gen` in the paper's Algorithm 3, line 2.
//!
//! `C_k = { a ∪ {b} | a ∈ L_{k-1}, b ∈ L_{k-1}, a and b share their first
//! k-2 items }`, followed by the monotonicity prune: drop any candidate with
//! an infrequent `(k-1)`-subset (Apriori's key search-space reduction,
//! Algorithm 1 line 5 / §II.A). The projecting plans also drop a candidate
//! whose subsets' supports bound its own below MinSup (`ap_gen_bounded`).
//!
//! Every level the YAFIM driver and MR-Apriori hold, candidate or frequent,
//! is one flat `k`-strided [`CandidateList`] from its generation to the
//! run's result: no heap allocation per itemset, and ascending by
//! construction.

use crate::types::{Item, Itemset};
use std::cmp::Ordering;
use std::ops::Range;
use yafim_cluster::{ByteSize, FxHashMap, FxHashSet};

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

/// One level's `k`-sets as one `k`-strided arena, in the order pushed
/// (ascending, for every level a miner holds): set `i` is
/// `items[i·k .. (i+1)·k]`, and `i` is its count cell. A job's candidate
/// levels are these, and a frequent level (`Level`) is one with
/// supports; it is what the bitmap plan broadcasts instead of a
/// hash tree: the columnar layout needs no per-transaction index,
/// only the candidates.
pub struct CandidateList {
    pub(crate) k: usize,
    pub(crate) items: Vec<Item>,
    /// Per set, the first prefix level of the columnar kernel its
    /// predecessor's does not serve: `min(s − 1, k − 2)` for `s` shared
    /// leading items, 0 for the first. The same in every partition, so it
    /// is worked out once here; like `DenseEncoder`'s item array, a host
    /// index that `byte_size` does not see.
    pub(crate) stale: Vec<u32>,
    /// As [`join_and_prune`] made the list: per set, the cells its prune
    /// found the set's `k` subsets at in the level it joined from, in the
    /// order it looked — what the audit reads each survivor's bound from.
    /// Empty otherwise; unsized too.
    subsets: Vec<u32>,
}

impl CandidateList {
    /// Flatten `candidates`, all of one length, in the order given.
    pub fn new(candidates: &[Itemset]) -> Self {
        let k = candidates.first().map_or(0, Itemset::len);
        assert!(candidates.iter().all(|c| c.len() == k), "one length");
        Self::from_sets(k, candidates.iter().map(Itemset::items))
    }

    /// The list of the `k`-sets `sets`, in the order given.
    pub(crate) fn from_sets<'a>(k: usize, sets: impl Iterator<Item = &'a [Item]>) -> Self {
        let mut list = CandidateList::empty(k);
        sets.for_each(|set| list.push(set));
        list
    }

    /// A list of `k`-sets with none yet.
    pub(crate) fn empty(k: usize) -> Self {
        let (items, stale, subsets) = (Vec::new(), Vec::new(), Vec::new());
        CandidateList {
            k,
            items,
            stale,
            subsets,
        }
    }

    /// Append the `k`-set `set`.
    pub(crate) fn push(&mut self, set: &[Item]) {
        debug_assert_eq!(set.len(), self.k, "one length");
        let prev = &self.items[self.items.len().saturating_sub(self.k)..];
        let common = prev.iter().zip(set).take_while(|(x, y)| x == y).count();
        let stale = common.saturating_sub(1).min(self.k.saturating_sub(2));
        self.stale.push(stale as u32);
        self.items.extend_from_slice(set);
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.stale.len()
    }

    /// Set `i`.
    pub(crate) fn get(&self, i: usize) -> &[Item] {
        &self.items[i * self.k..(i + 1) * self.k]
    }

    /// The sets, in order.
    pub(crate) fn sets(&self) -> std::slice::ChunksExact<'_, Item> {
        self.items.chunks_exact(self.k.max(1))
    }

    /// The cell of `set` in the ascending list, by binary search.
    pub(crate) fn position(&self, set: &[Item]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.get(mid).cmp(set) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The cells of each run of sets sharing their first `k − 1` items, in
    /// order: in an ascending list the runs are contiguous, and `ap_gen`
    /// joins within them.
    fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let prefix = |i| &self.get(i)[..self.k - 1];
        let mut start = 0;
        std::iter::from_fn(move || {
            let end = (start + 1..self.len()).find(|&j| prefix(j) != prefix(start));
            let run = start..end.unwrap_or(self.len());
            start = run.end;
            (!run.is_empty()).then_some(run)
        })
    }

    /// The sets as itemsets, for a consumer that takes them so: a hash tree
    /// at its build, MapReduce's key table.
    pub(crate) fn to_itemsets(&self) -> Vec<Itemset> {
        let set = |s: &[Item]| Itemset::from_sorted(s.to_vec());
        self.sets().map(set).collect()
    }

    /// The least of `supports` (one per cell of the level the list was
    /// joined from) over set `i`'s subsets: by anti-monotonicity, the most
    /// its own support can be.
    pub(crate) fn bound(&self, i: usize, supports: &[u64]) -> u64 {
        let cells = &self.subsets[i * self.k..(i + 1) * self.k];
        cells
            .iter()
            .map(|&c| supports[c as usize])
            .min()
            .unwrap_or(0)
    }
}

impl ByteSize for CandidateList {
    /// The `Vec<Itemset>` the arena flattens, as a `TxBlock` sizes as its
    /// rows: 8 bytes of length, then 8 + 4k per candidate.
    fn byte_size(&self) -> u64 {
        8 + 8 * self.len() as u64 + 4 * self.items.len() as u64
    }
}

/// A frequent level: its sets, ascending, with their supports.
pub(crate) struct Level {
    pub(crate) sets: CandidateList,
    pub(crate) supports: Vec<u64>,
}

impl Level {
    /// A level of `k`-sets with none yet.
    pub(crate) fn new(k: usize) -> Self {
        let (sets, supports) = (CandidateList::empty(k), Vec::new());
        Level { sets, supports }
    }

    /// The level of the `k`-sets of `pairs`, in the order given.
    pub(crate) fn from_pairs(k: usize, pairs: &[(Itemset, u64)]) -> Self {
        let mut level = Level::new(k);
        pairs
            .iter()
            .for_each(|(set, c)| level.push(set.items(), *c));
        level
    }

    /// Append the `k`-set `set` with its support.
    pub(crate) fn push(&mut self, set: &[Item], support: u64) {
        self.sets.push(set);
        self.supports.push(support);
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.supports.len()
    }

    /// Each set, its items mapped through `decode`, with its support: what
    /// a run's result holds.
    pub(crate) fn into_pairs(self, decode: impl Fn(Item) -> Item) -> Vec<(Itemset, u64)> {
        let decoded = |s: &[Item]| Itemset::from_sorted(s.iter().map(|&i| decode(i)).collect());
        self.sets.sets().map(decoded).zip(self.supports).collect()
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
    let mut sorted: Vec<&[Item]> = frequent.iter().map(Itemset::items).collect();
    sorted.sort_unstable();
    let k = sorted.first().map_or(0, |s| s.len());
    let from = CandidateList::from_sets(k, sorted.into_iter());
    let (candidates, work) = join_and_prune(&from, None);
    (candidates.to_itemsets(), work)
}

/// `ap_gen` over the last of `levels` (`levels[i]` is `L_{i+1}`, with exact
/// supports), dropping every candidate whose support its subsets bound
/// below `min_sup`: a candidate `c = X ∪ {a, y1, y2}` of the join run with
/// prefix `p = X ∪ {a}` has, by inclusion–exclusion over the rows holding
/// `X`, `σ(c) = UB − #(rows ⊇ X holding none of a, y1, y2)`, where
/// `UB = σ(p∪y1) + σ(p∪y2) + σ(X∪y1y2) − σ(p) − σ(X∪y1) − σ(X∪y2)
/// + σ(X)` and `σ(∅) = lines`, the input's line count. A term the levels
/// lack keeps the candidate. Dropped candidates are infrequent, so the
/// level stays a superset of `L_{k+1}`.
pub(crate) fn ap_gen_bounded(
    levels: &[Level],
    lines: u64,
    min_sup: u64,
) -> (CandidateList, GenWork) {
    let top = levels.last().expect("at least L_1");
    join_and_prune(&top.sets, Some((levels, lines, min_sup)))
}

/// The join and prune over the ascending level `from`, then, given
/// `bound` = `(levels, lines, min_sup)` with `from` the last of `levels`,
/// the support bound as [`ap_gen_bounded`] takes it. The candidates come
/// out ascending: runs in order, then heads within a run, then tails.
pub(crate) fn join_and_prune(
    from: &CandidateList,
    bound: Option<(&[Level], u64, u64)>,
) -> (CandidateList, GenWork) {
    let (mut work, k) = (GenWork::default(), from.k);
    let mut out = CandidateList::empty(k + 1);
    if from.len() == 0 {
        return (out, work);
    }
    // The bound needs a prefix item `a`: from `L_2` on.
    let wide = |n: u64| i128::from(n);
    let bound = bound.filter(|_| k >= 2);
    let top = bound.map(|(levels, ..)| &levels[levels.len() - 1].supports[..]);
    let lookup: FxHashMap<&[Item], u32> = from.sets().zip(0..).collect();

    // The joined candidate, the subset being probed and `X ∪ {y}`, reused.
    let (mut cand, mut sub, mut x_y) = (Vec::with_capacity(k + 1), Vec::new(), Vec::new());
    // Per run under the bound, `σ(X) − σ(p)` and each member's
    // `σ(p ∪ y) − σ(X ∪ y)`: `UB` is their sum for `y1, y2` plus `σ(X ∪ y1y2)`.
    let (mut base, mut deltas) = (None, Vec::new());
    for run in from.runs() {
        if let Some((levels, lines, _)) = bound.filter(|_| run.len() > 1) {
            let head = from.get(run.start);
            let (p, x) = (&head[..k - 1], &head[..k - 2]);
            work.bound_lookups += 1 + u64::from(!x.is_empty()) + run.len() as u64;
            let (s_x, s_p) = (support_in(levels, lines, x), support_in(levels, lines, p));
            base = s_x.zip(s_p).map(|(x, p)| wide(x) - wide(p));
            deltas.clear();
            deltas.extend(run.clone().map(|i| {
                x_y.clear();
                x_y.extend_from_slice(x);
                x_y.push(from.get(i)[k - 1]);
                let s = top.map_or(0, |top| top[i]);
                support_in(levels, lines, &x_y).map(|s_xy| wide(s) - wide(s_xy))
            }));
        }
        // Join every ordered pair within the run.
        for a in run.clone() {
            for b in a + 1..run.end {
                work.join_comparisons += 1;
                cand.clear();
                cand.extend_from_slice(from.get(a));
                cand.push(from.get(b)[k - 1]);

                // Prune: every k-subset must be frequent. The last two
                // probed are the join's own sets, `b` (without position
                // k − 1) and `a` (without position k), there by
                // construction; the one without `a` (position k − 2) is
                // `X ∪ {y1, y2}`.
                let (mark, mut s_xyy) = (out.subsets.len(), None);
                let mut keep = true;
                for skip in 0..k - 1 {
                    work.prune_checks += 1;
                    sub.clear();
                    sub.extend_from_slice(&cand[..skip]);
                    sub.extend_from_slice(&cand[skip + 1..]);
                    let Some(&cell) = lookup.get(sub.as_slice()) else {
                        keep = false;
                        break;
                    };
                    out.subsets.push(cell);
                    s_xyy = s_xyy.or((skip + 2 == k).then_some(cell as usize));
                }
                if keep {
                    work.prune_checks += 2;
                    out.subsets.extend([b as u32, a as u32]);
                }
                let (da, db) = (a - run.start, b - run.start);
                let ub = || Some(base? + deltas[da]? + deltas[db]? + wide(top?[s_xyy?]));
                if keep && bound.is_some_and(|(.., min)| ub().is_some_and(|ub| ub < wide(min))) {
                    work.bounded += 1;
                    keep = false;
                }
                if keep {
                    out.push(&cand);
                } else {
                    out.subsets.truncate(mark);
                }
            }
        }
    }
    (out, work)
}

/// The support of `set` in `levels` (`levels[i]` ascending, of `(i+1)`-sets)
/// if it is there, `lines` for the empty set.
fn support_in(levels: &[Level], lines: u64, set: &[Item]) -> Option<u64> {
    if set.is_empty() {
        return Some(lines);
    }
    let level = levels.get(set.len() - 1)?;
    level.sets.position(set).map(|i| level.supports[i])
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

/// `J`, the pairs `ap_gen` would join over the ascending level `level`:
/// `Σ g(g−1)/2` over its prefix runs. Exactly
/// [`GenWork::join_comparisons`], so an upper bound on the candidates it
/// would generate, found without generating them.
pub(crate) fn join_pairs(level: &CandidateList) -> u64 {
    let runs = level.runs().map(|run| run.len() * (run.len() - 1) / 2);
    runs.sum::<usize>() as u64
}

/// How far one counting job's candidate chain reaches past its first level.
pub(crate) enum Chain<'a> {
    /// At most this many levels: 1 for one pass per job (MR's SPC, YAFIM's
    /// `Paper` and `opt`, every hash-tree fallback), `p` for FPC.
    Levels(usize),
    /// Levels while their candidates total at most this many (DPC); the
    /// level that would cross it is generated, charged and dropped.
    Candidates(usize),
    /// Levels while `admit(from, J)` holds, asked before a level is
    /// generated from the candidate level `from`, `J` being its
    /// [`join_pairs`]: the bitmap plan's priced rule.
    Priced(&'a mut dyn FnMut(&CandidateList, u64) -> bool),
}

/// The candidate levels one counting job counts, from its first level
/// `first_level` (pass `first`'s candidates, as the caller generated them:
/// [`join_and_prune`] or [`ap_gen_bounded`]): each further level, while
/// `chain` admits it, is the join and prune of the previous *candidate*
/// level, which keeps the result complete (candidates are a superset of the
/// frequent sets), its subsets' cells in that level. No level past
/// `max_passes` (0: no cap; the caller has checked `first`), none after an
/// empty one. Returns the levels and the work of every join and prune.
pub(crate) fn job_candidates(
    first_level: (CandidateList, GenWork),
    first: usize,
    max_passes: usize,
    mut chain: Chain,
) -> (Vec<CandidateList>, GenWork) {
    let (mut level, mut work) = first_level;
    let (mut out, mut total) = (Vec::<CandidateList>::new(), 0);
    while level.len() > 0 {
        total += level.len();
        out.push(level);
        let from = &out[out.len() - 1];
        let more = (max_passes == 0 || first + out.len() <= max_passes)
            && match &mut chain {
                Chain::Levels(n) => out.len() < *n,
                Chain::Candidates(_) => true,
                Chain::Priced(admit) => admit(from, join_pairs(from)),
            };
        if !more {
            break;
        }
        let (next, plain) = join_and_prune(from, None);
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

    /// `sets` as the ascending level they make, every support 0.
    pub(crate) fn level_of(sets: &[Itemset]) -> Level {
        let mut pairs: Vec<(Itemset, u64)> = sets.iter().map(|s| (s.clone(), 0)).collect();
        pairs.sort();
        Level::from_pairs(pairs.first().map_or(0, |(s, _)| s.len()), &pairs)
    }

    /// `ap_gen` over `sets` as a job's first level, no bound.
    pub(crate) fn generated(sets: &[Itemset]) -> (CandidateList, GenWork) {
        join_and_prune(&level_of(sets).sets, None)
    }

    /// The sets of `levels`, as itemsets.
    pub(crate) fn itemsets(levels: &[CandidateList]) -> Vec<Vec<Itemset>> {
        levels.iter().map(CandidateList::to_itemsets).collect()
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

    /// What lets the driver keep every level as generated, unsorted: on
    /// random levels `ap_gen`, `ap_gen_bounded` and every level of a chain
    /// come out strictly ascending, charged the joins and probes the
    /// allocating oracle charged.
    #[test]
    fn every_generator_emits_ascending_levels_charged_as_the_oracle() {
        let mut rng = StdRng::seed_from_u64(0x50_47ed);
        let ascending = |sets: &[Itemset]| sets.windows(2).all(|w| w[0] < w[1]);
        let pair = |w: GenWork| (w.join_comparisons, w.prune_checks);
        for k in 1..=5 {
            // One prefix group: every set shares its first k - 1 items.
            let group = (k as u32 - 1..k as u32 + 6)
                .map(|last| Itemset::from_sorted((0..k as u32 - 1).chain([last]).collect()));
            let random = (0..40).map(|_| random_level(&mut rng, k, 6 + 2 * k as u32));
            let seeds: Vec<Vec<Itemset>> = [vec![], group.collect()]
                .into_iter()
                .chain(random)
                .collect();
            for seed in seeds {
                let (oracle, oracle_work) = ap_gen_allocating(&seed);
                let (plain, work) = ap_gen(&seed);
                assert!(ascending(&plain), "k={k} {seed:?}");
                assert_eq!((&plain, work), (&oracle, oracle_work), "k={k} {seed:?}");
                // `J` counts the joins without making them, and bounds them.
                assert_eq!(join_pairs(&level_of(&seed).sets), work.join_comparisons);
                assert!(work.join_comparisons >= plain.len() as u64);

                // Below the seed, every subset of its sets, random supports.
                let mut levels: Vec<Level> = (1..k)
                    .map(|j| {
                        let mut subsets: Vec<Itemset> = seed.iter().map(Itemset::clone).collect();
                        for _ in j..k {
                            subsets = subsets.iter().flat_map(Itemset::one_item_removed).collect();
                        }
                        subsets.sort();
                        subsets.dedup();
                        let pairs: Vec<_> = subsets
                            .into_iter()
                            .map(|s| (s, rng.gen_range(1..60u64)))
                            .collect();
                        Level::from_pairs(j, &pairs)
                    })
                    .collect();
                let mut top = level_of(&seed);
                top.supports
                    .iter_mut()
                    .for_each(|s| *s = rng.gen_range(1..40u64));
                levels.push(top);
                let (bounded, work) = ap_gen_bounded(&levels, 60, rng.gen_range(1..30u64));
                let bounded = bounded.to_itemsets();
                assert!(ascending(&bounded), "k={k} {seed:?}");
                assert_eq!(pair(work), pair(oracle_work), "k={k} {seed:?}");
                assert_eq!(work.bounded as usize, oracle.len() - bounded.len());
                assert!(bounded.iter().all(|c| oracle.binary_search(c).is_ok()));

                // A chain to its end: each level the oracle's of the one before.
                let (chain, work) =
                    job_candidates(generated(&seed), k + 1, 0, Chain::Levels(usize::MAX));
                let (mut from, mut charged) = (seed.clone(), GenWork::default());
                for level in itemsets(&chain).iter().map(Some).chain([None]) {
                    let (next, step) = ap_gen_allocating(&from);
                    charged.join_comparisons += step.join_comparisons;
                    charged.prune_checks += step.prune_checks;
                    assert!(ascending(&next), "k={k} {seed:?}");
                    match level {
                        Some(level) => assert_eq!(level, &next, "k={k} {seed:?}"),
                        None => assert!(next.is_empty(), "k={k} {seed:?}"),
                    }
                    from = next;
                }
                assert_eq!(pair(work), pair(charged), "k={k} {seed:?}");
            }
        }
    }

    #[test]
    fn a_chain_holds_every_level_apriori_reaches_and_stops_at_max_passes() {
        let mut rng = StdRng::seed_from_u64(0xc4a1);
        for k in (1..=4).flat_map(|k| [k; 30]) {
            let (seed, first) = (random_level(&mut rng, k, 6 + 2 * k as u32), k + 1);
            let chain = |cap| {
                let levels =
                    job_candidates(generated(&seed), first, cap, Chain::Levels(usize::MAX));
                itemsets(&levels.0)
            };
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
            let bounded_over = |levels: &[Vec<(Itemset, u64)>]| {
                let flat: Vec<Level> = (1..)
                    .zip(levels)
                    .map(|(k, l)| Level::from_pairs(k, l))
                    .collect();
                ap_gen_bounded(&flat, lines, min_sup)
            };
            for k in 2..=levels.len() {
                let top: Vec<Itemset> = levels[k - 1].iter().map(|(s, _)| s.clone()).collect();
                let (plain, plain_work) = ap_gen(&top);
                let (generated, work) = bounded_over(&levels[..k]);
                let bounded = generated.to_itemsets();
                // Each candidate's subset cells are its subsets in `L_k`,
                // and its bound is their least support.
                let supports: Vec<u64> = levels[k - 1].iter().map(|&(_, c)| c).collect();
                for (i, c) in bounded.iter().enumerate() {
                    let cells = &generated.subsets[i * (k + 1)..(i + 1) * (k + 1)];
                    let mut subsets: Vec<&Itemset> =
                        cells.iter().map(|&j| &top[j as usize]).collect();
                    subsets.sort_by(|a, b| b.cmp(a));
                    assert!(subsets.into_iter().cloned().eq(c.one_item_removed()), "{c}");
                    let least = c.one_item_removed().map(|s| sigma(s.items())).min();
                    assert_eq!(Some(generated.bound(i, &supports)), least, "{c}");
                }
                // Forget some lower supports: a candidate they priced is kept.
                let mut doctored = levels[..k].to_vec();
                let forget =
                    |level: &mut Vec<(Itemset, u64)>| level.retain(|_| rng.gen_range(0..4u32) > 0);
                doctored[..k - 1].iter_mut().for_each(forget);
                let partial = bounded_over(&doctored).0.to_itemsets();
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
                let alone = [Level::new(k - 1), Level::from_pairs(k, &levels[k - 1])];
                assert_eq!(
                    ap_gen_bounded(&alone, lines, min_sup).0.to_itemsets(),
                    plain
                );
            }
        }
        assert!(dropped > 100, "the bound must bite: {dropped}");
    }

    #[test]
    fn hand_made_levels_join_and_prune_as_written() {
        let sets = |raw: &[&[u32]]| -> Vec<Itemset> {
            raw.iter().map(|s| Itemset::new(s.to_vec())).collect()
        };
        // Singletons, unsorted, join into every pair; {2,3,4} dies ({3,4}
        // is infrequent); a full L_2 joins to a full C_3; one set or none
        // joins nothing.
        type Sets = &'static [&'static [u32]];
        let cases: [(Sets, Sets); 5] = [
            (&[&[3], &[1], &[2]], &[&[1, 2], &[1, 3], &[2, 3]]),
            (&[&[1, 2], &[1, 3], &[2, 3], &[2, 4]], &[&[1, 2, 3]]),
            (
                &[&[1, 2], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[3, 4]],
                &[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[2, 3, 4]],
            ),
            (&[&[1, 2]], &[]),
            (&[], &[]),
        ];
        for (level, expected) in cases {
            let (candidates, _) = ap_gen(&sets(level));
            assert_eq!(candidates, sets(expected), "{level:?}");
            assert_eq!(candidates, ap_gen_naive(&sets(level)), "{level:?}");
        }
    }
}
