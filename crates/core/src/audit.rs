//! Online mining-invariant auditor — the last-line tripwire behind the
//! data-integrity layer.
//!
//! The runtime's checksums catch corrupted *bytes*; this auditor catches
//! corrupted *mining state* that somehow slipped past them. Before a
//! Phase-II job's levels are recorded, it checks each level's survivors
//! (the `(candidate cell, support)` records its count kept) against what
//! candidate generation already looked up, in `O(|L_k| · k)` driver time
//! and no search:
//!
//! * **cardinality** — survivor cells strictly ascending and below
//!   `|C_k|`, so no candidate is kept twice and `|L_k| ≤ |C_k|`;
//! * **minimum support** — every support at least MinSup;
//! * **support anti-monotonicity** — every support at most its candidate's
//!   bound, the least support of its `(k-1)`-subsets at the cells the prune
//!   found them in the level it joined from;
//! * **downward closure** — every `(k-1)`-subset of every `L_k` member is
//!   itself frequent. A job's first level is joined from `L_{k-1}`, and the
//!   prune keeps only candidates with every subset there, so it holds by
//!   construction. A speculative level is joined from the candidate level
//!   below, whose infrequent cells read support 0 in the bound, below any
//!   survivor's: the anti-monotonicity check refuses a broken closure too.
//!
//! A violation means the engine was about to return wrong results, so the
//! caller escalates (the YAFIM driver refuses the run with
//! [`MineError::Audit`](crate::miner::MineError::Audit) rather than
//! returning a poisoned [`crate::types::MiningResult`]).

use std::ops::Range;

/// Audit one level's survivors `counted`, `(cell, support)` records over
/// the candidate cells `cells` (the levels of one job lay their cells end
/// to end): cells strictly ascending within `cells`, every support at least
/// `min_sup` and at most `bound(i)` for the level's candidate `i`. Returns
/// the first violated invariant, described.
pub(crate) fn audit_survivors(
    counted: &[(u32, u64)],
    cells: Range<usize>,
    min_sup: u64,
    bound: impl Fn(usize) -> u64,
) -> Result<(), String> {
    let (mut next, n) = (cells.start, cells.len());
    for &(cell, support) in counted {
        let cell = cell as usize;
        if cell >= cells.end {
            return Err(format!("survivor cell {cell} is past |C_k| = {n}"));
        }
        if cell < next {
            return Err(format!(
                "survivor cell {cell} is out of order: cells ascend from {next}"
            ));
        }
        next = cell + 1;
        let i = cell - cells.start;
        if support < min_sup {
            return Err(format!(
                "candidate {i} has support {support} below MinSup {min_sup}"
            ));
        }
        let most = bound(i);
        if support > most {
            return Err(format!(
                "support {support} of candidate {i} exceeds {most}, the least support of its subsets"
            ));
        }
    }
    Ok(())
}
