//! # yafim-core — frequent itemset mining, with YAFIM as the centerpiece
//!
//! This crate implements the paper's contribution and everything it is
//! evaluated against:
//!
//! * [`types`] — items, [`Itemset`], transactions, [`Support`] thresholds,
//!   [`MiningResult`].
//! * [`hashtree`] — the candidate hash tree used for `subset(C_k, t)`.
//! * [`candidates`] — `ap_gen` candidate generation (join + prune).
//! * [`sequential`] — single-node reference Apriori (Algorithm 1).
//! * [`yafim`] — **the paper's algorithm**: Apriori as two phases of RDD
//!   jobs with a cached transactions RDD and broadcast hash trees
//!   (Algorithms 2 and 3, Figs. 1 and 2).
//! * [`mrapriori`] — the MapReduce baseline (PApriori / SPC), one Hadoop job
//!   per pass, plus the FPC and DPC pass-combining variants from related
//!   work (Lin et al.).
//! * [`mod@eclat`] / [`fpgrowth`] — the classic single-node comparators cited by
//!   the paper (its refs 3 and 9).
//! * [`rules`] — association-rule generation on top of a mining result
//!   (used by the medical application example).
//! * [`miner`] — [`Miner`], the closed list of all of the above behind one
//!   `mine`, and [`MineError`], the one way any of them refuses a run.
//!
//! All miners return a [`MiningResult`]; on the same input and support they
//! return *identical* results (the paper's correctness check), which the
//! test suite enforces over [`Miner::ALL`] across every generator family.

pub mod audit;
pub mod bitmap;
mod block;
pub mod candidates;
pub mod eclat;
pub mod encode;
pub mod fpgrowth;
pub mod hashtree;
mod item_table;
pub mod miner;
pub mod mrapriori;
pub mod pfp;
pub mod rules;
pub mod sequential;
pub mod son;
pub mod trie;
pub mod types;
pub mod yafim;

pub use audit::{audit_level, audit_levels};
pub use bitmap::{bitmap_fits, BitmapScratch, CandidateList, ColumnarPartition, BITMAP_MAX_WORDS};
pub use candidates::{ap_gen, CandidateStore, GenWork};
pub use eclat::eclat;
pub use encode::{DenseEncoder, TrimMask};
pub use fpgrowth::fp_growth;
pub use hashtree::{HashTree, MatchScratch};
pub use miner::{MineError, Miner};
pub use mrapriori::{MrApriori, MrAprioriConfig, MrMatching, MrVariant};
pub use pfp::{Pfp, PfpConfig};
pub use rules::{generate_rules, Rule, RuleConfig};
pub use sequential::{apriori, brute_force, SequentialConfig};
pub use son::{Son, SonConfig};
pub use trie::CandidateTrie;
pub use types::{parse_transaction, Item, Itemset, MinerRun, MiningResult, Support};
pub use yafim::{mine_in_memory, Phase2Plan, Yafim, YafimConfig};
pub use yafim_cluster::PassTiming;
