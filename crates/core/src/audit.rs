//! Online mining-invariant auditor — the last-line tripwire behind the
//! data-integrity layer.
//!
//! The runtime's checksums catch corrupted *bytes*; this auditor catches
//! corrupted *mining state* that somehow slipped past them. After each
//! Phase-II pass it checks, in `O(|L_k| · k² · log|L_{k-1}|)` driver time,
//! the Apriori invariants that any correct frequent-itemset level must
//! satisfy:
//!
//! * **cardinality** — `|L_k| ≤ |C_k|`: a level cannot hold more frequent
//!   itemsets than candidates were counted;
//! * **downward closure** — every `(k-1)`-subset of every `L_k` member is
//!   itself frequent (a member of `L_{k-1}`);
//! * **support anti-monotonicity** — an itemset's support never exceeds
//!   the support of any of its `(k-1)`-subsets.
//!
//! A violation means the engine was about to return wrong results, so the
//! caller escalates (the YAFIM driver refuses the run with
//! [`MineError::Audit`](crate::miner::MineError::Audit) rather than
//! returning a poisoned [`crate::types::MiningResult`]).

use crate::types::Itemset;

/// Audit one Phase-II level against its predecessor.
///
/// `prev` is `L_{k-1}` and `lk` is `L_k`, both in the same item space and
/// **sorted by itemset** (the driver sorts every level before recording
/// it); `n_candidates` is `|C_k|` for the pass. Returns `Err` with a
/// human-readable description of the first violated invariant.
pub fn audit_level(
    prev: &[(Itemset, u64)],
    lk: &[(Itemset, u64)],
    n_candidates: usize,
) -> Result<(), String> {
    if lk.len() > n_candidates {
        return Err(format!(
            "|L_k| = {} exceeds |C_k| = {n_candidates}",
            lk.len()
        ));
    }
    for (set, support) in lk {
        let items = set.items();
        let k = items.len();
        if k < 2 {
            continue; // L1 members have no proper subsets to check
        }
        let mut subset = Vec::with_capacity(k - 1);
        for drop in 0..k {
            subset.clear();
            subset.extend(items.iter().enumerate().filter_map(|(i, &it)| {
                if i == drop {
                    None
                } else {
                    Some(it)
                }
            }));
            match prev.binary_search_by(|(s, _)| s.items().cmp(subset.as_slice())) {
                Ok(pos) => {
                    let parent_support = prev[pos].1;
                    if *support > parent_support {
                        return Err(format!(
                            "support {support} of {set:?} exceeds support \
                             {parent_support} of its subset {:?}",
                            prev[pos].0
                        ));
                    }
                }
                Err(_) => {
                    return Err(format!(
                        "downward closure violated: {set:?} is frequent but \
                         its subset {subset:?} is not in L_{}",
                        k - 1
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Audit a complete multi-level mining result (levels in item space, each
/// level sorted). Used by offline checks and tests; the online driver
/// audits level by level as they are produced. `min_sup` additionally
/// bounds every support from below.
pub fn audit_levels(levels: &[Vec<(Itemset, u64)>], min_sup: u64) -> Result<(), String> {
    for (idx, level) in levels.iter().enumerate() {
        if let Some((set, support)) = level.iter().find(|(_, c)| *c < min_sup) {
            return Err(format!(
                "level {}: {set:?} has support {support} below MinSup {min_sup}",
                idx + 1
            ));
        }
        if idx > 0 {
            audit_level(&levels[idx - 1], level, usize::MAX)
                .map_err(|e| format!("level {}: {e}", idx + 1))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Support;

    fn set(items: &[u32]) -> Itemset {
        Itemset::from_sorted(items.to_vec())
    }

    fn l1() -> Vec<(Itemset, u64)> {
        vec![(set(&[1]), 3), (set(&[2]), 4), (set(&[3]), 2)]
    }

    #[test]
    fn clean_levels_pass() {
        let l2 = vec![(set(&[1, 2]), 3), (set(&[2, 3]), 2)];
        assert!(audit_level(&l1(), &l2, 3).is_ok());
        assert!(audit_levels(&[l1(), l2], 2).is_ok());
    }

    #[test]
    fn cardinality_violation_caught() {
        let l2 = vec![(set(&[1, 2]), 3), (set(&[2, 3]), 2)];
        let err = audit_level(&l1(), &l2, 1).unwrap_err();
        assert!(err.contains("exceeds |C_k|"), "{err}");
    }

    #[test]
    fn downward_closure_violation_caught() {
        // {1, 4} is "frequent" but {4} is not in L1.
        let l2 = vec![(set(&[1, 4]), 2)];
        let err = audit_level(&l1(), &l2, 10).unwrap_err();
        assert!(err.contains("downward closure"), "{err}");
    }

    #[test]
    fn support_monotonicity_violation_caught() {
        // {1, 2} cannot be more frequent than {1}.
        let l2 = vec![(set(&[1, 2]), 5)];
        let err = audit_level(&l1(), &l2, 10).unwrap_err();
        assert!(err.contains("exceeds support"), "{err}");
    }

    #[test]
    fn min_support_floor_enforced() {
        let err = audit_levels(&[l1()], 3).unwrap_err();
        assert!(err.contains("below MinSup"), "{err}");
    }

    #[test]
    fn fractional_support_resolves() {
        assert!(audit_levels(&[l1()], Support::Fraction(0.5).resolve(4)).is_ok());
        assert!(audit_levels(&[l1()], Support::Fraction(0.9).resolve(4)).is_err());
    }
}
