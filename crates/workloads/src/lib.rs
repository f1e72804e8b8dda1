//! # f3m-workloads — synthetic benchmark-suite generator
//!
//! Stands in for the paper's Table I evaluation corpus (SPEC CPU2006/2017,
//! the Linux kernel and Chromium, none of which are available to this
//! reproduction). Modules are generated deterministically from seeds, with
//! *function families* — clones drifted by controlled mutation — providing
//! the cross-function redundancy that function merging exploits.
//!
//! See [`gen`] for the two-stream (structure vs mutation) generation
//! scheme and [`suite`] for the Table I specifications, including the
//! scaled `linux-scale` (45k functions) and `chrome-scale` (120k)
//! workloads.

#![forbid(unsafe_code)]

pub mod gen;
pub mod suite;

pub use gen::{declare_externals, generate_function, MutationProfile, ShapeParams};
pub use suite::{build_module, mini_suite, summarize, table1, SizeClass, WorkloadSpec};
