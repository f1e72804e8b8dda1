//! # f3m-core — Fast Focused Function Merging
//!
//! The primary contribution of the paper "F3M: Fast Focused Function
//! Merging" (CGO 2022), reimplemented over the [`f3m_ir`] substrate:
//!
//! - [`align`] — sequence alignment (whole-function Needleman–Wunsch for
//!   statistics, HyFM's linear block alignment for merging),
//! - [`block_pairing`] — block-level merge planning,
//! - [`codegen`] — merged-function generation with `%fid` guards,
//!   operand selects, per-edge dispatch, phi reconstruction and SSA
//!   dominance repair (including the Section III-E bug fixes),
//! - [`rank`] — the [`CandidateSearch`](rank::CandidateSearch) seam with
//!   the exhaustive (HyFM) and LSH (F3M) search structures,
//! - [`commit`] — the incremental reference index and profitability-checked
//!   commit of a planned merge,
//! - [`report`] — per-stage timing, counters and the JSON report,
//! - [`pass`] — the thin driver looping rank → align → codegen/commit over
//!   HyFM / F3M-static / F3M-adaptive strategies,
//! - [`corpus`] — the resident multi-module corpus with incremental
//!   (epoch-versioned) indexing behind the `f3m-serve` daemon,
//! - [`global`] — cross-module merging: the pass over the combined corpus
//!   plus whole-corpus verification,
//! - [`analysis`] — exhaustive pairwise metrics behind Figures 4/6/10.
//!
//! # Examples
//!
//! ```
//! use f3m_core::pass::{run_pass, PassConfig};
//! use f3m_ir::parser::parse_module;
//!
//! let mut m = parse_module(r#"
//! module "demo" {
//! define @a(i32 %0) -> i32 {
//! bb0:
//!   %1 = add i32 %0, 1
//!   %2 = mul i32 %1, 3
//!   %3 = xor i32 %2, 255
//!   %4 = sub i32 %3, %0
//!   %5 = add i32 %4, 10
//!   %6 = shl i32 %5, 2
//!   %7 = and i32 %6, 4095
//!   %8 = or i32 %7, 5
//!   %9 = sub i32 %8, %1
//!   %10 = mul i32 %9, 7
//!   ret i32 %10
//! }
//! define @b(i32 %0) -> i32 {
//! bb0:
//!   %1 = add i32 %0, 1
//!   %2 = mul i32 %1, 3
//!   %3 = xor i32 %2, 255
//!   %4 = sub i32 %3, %0
//!   %5 = add i32 %4, 10
//!   %6 = shl i32 %5, 2
//!   %7 = and i32 %6, 4095
//!   %8 = or i32 %7, 5
//!   %9 = sub i32 %8, %1
//!   %10 = mul i32 %9, 7
//!   ret i32 %10
//! }
//! }
//! "#).unwrap();
//! let report = run_pass(&mut m, &PassConfig::f3m());
//! assert_eq!(report.stats.merges_committed, 1);
//! assert!(report.stats.size_after < report.stats.size_before);
//! ```

#![forbid(unsafe_code)]

pub mod align;
pub mod analysis;
pub mod block_pairing;
pub mod codegen;
pub mod commit;
pub mod corpus;
pub mod dce;
pub mod global;
pub mod pass;
pub mod profile;
pub mod rank;
pub mod report;

pub use codegen::{MergeConfig, MergeError, RepairMode};
pub use corpus::{combine_modules, Corpus, CorpusConfig, CorpusStats, QueryResult};
pub use global::{
    global_merge, GlobalMergeReport, GlobalPlanConfig, GlobalStats, GLOBAL_STATS_JSON_KEYS,
};
pub use pass::{run_pass, run_pass_traced, MergeReport, MergeStats, PassConfig, Strategy};
pub use profile::Profile;
pub use rank::{
    CandidateSearch, ExhaustiveOpcodeSearch, IndexStats, LshBackendSearch, SearchScratch,
};
pub use report::STATS_JSON_KEYS;
