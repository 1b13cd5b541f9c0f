//! Online mining-invariant auditor — the last-line tripwire behind the
//! data-integrity layer.
//!
//! The runtime's checksums catch corrupted *bytes*; this auditor catches
//! corrupted *mining state* that somehow slipped past them. Before a
//! counting job's levels are recorded, it checks each level's survivors
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
//! caller escalates: the YAFIM and MR-Apriori drivers read their counting
//! jobs back through [`job_levels`] (YAFIM's triangle pass 2 through its
//! own `pairs_level`; SON checks membership only, in `son::read_back`)
//! and refuse the run with [`MineError::Audit`] rather than return a
//! poisoned [`crate::types::MiningResult`].

use crate::candidates::{CandidateList, Level};
use crate::miner::MineError;
use std::borrow::Cow;
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

/// A job's frequent levels from its survivors `counted`, `(cell, count)`
/// ascending over the candidate levels `levels` laid end to end (the first
/// is pass `pass`), each audited before any is kept: the last-line tripwire
/// behind the storage integrity layer, a typed refusal naming the level's
/// pass. A level's bound reads the supports of the level it was joined
/// from: `below` for the first, the counts just taken for each later one
/// (0 where a candidate fell short), so a speculative survivor with an
/// infrequent subset is refused too.
pub(crate) fn job_levels(
    counted: &[(u32, u64)],
    levels: &[CandidateList],
    (pass, below): (usize, &Level),
    min_sup: u64,
) -> Result<Vec<Level>, MineError> {
    let (mut rest, mut start) = (counted, 0);
    let mut supports = Cow::Borrowed(&below.supports[..]);
    let mut out = Vec::with_capacity(levels.len());
    for (level, candidates) in (pass..).zip(levels) {
        let (n, last) = (candidates.len(), out.len() + 1 == levels.len());
        let end = start + n;
        let here = rest
            .iter()
            .take_while(|&&(c, _)| last || (c as usize) < end);
        let (here, tail) = rest.split_at(here.count());
        let bound = |i| candidates.bound(i, &supports);
        audit_survivors(here, start..end, min_sup, bound).map_err(|violation| {
            MineError::Audit {
                pass: level,
                violation,
            }
        })?;
        let (mut lk, mut counts) = (Level::new(candidates.k), vec![0; n]);
        for &(cell, c) in here {
            let i = cell as usize - start;
            lk.push(candidates.get(i), c);
            counts[i] = c;
        }
        (supports, rest, start) = (Cow::Owned(counts), tail, end);
        out.push(lk);
    }
    Ok(out)
}
