//! # f3m-ledger — the repo's performance ledger
//!
//! Two workloads, eleven end-to-end metrics, and a per-layer table that
//! says which layer should move which of them. `README.md` is the
//! reference; the modules here are what both binaries share:
//!
//! - [`api`] — the short list of product calls the end-to-end binary uses,
//! - [`workload`] — the workload table, the seed's role, input generation,
//! - [`pass`], [`serve`] — the legs and their correctness oracles,
//! - [`irtext`] — body-swap edits on printed IR,
//! - [`stats`], [`procfs`], [`calib`], [`tally`], [`report`] — measuring
//!   and reporting,
//! - [`cli`], [`selftest`] — the run arguments, and `ledger selftest`.
//!
//! The per-layer probes reach into the product's internals and therefore
//! live in the `ledger-layers` binary, not here: a change to an internal
//! signature must not stop the end-to-end `ledger` binary from building.

pub mod api;
pub mod calib;
pub mod cli;
pub mod irtext;
pub mod pass;
pub mod procfs;
pub mod report;
pub mod selftest;
pub mod serve;
pub mod stats;
pub mod tally;
pub mod workload;
