//! # f3m-fuzz — differential fuzzing for the merging pipeline
//!
//! The merging pass is exercised end-to-end against randomly *mutated*
//! workload modules, not just generator output: structural mutators
//! ([`mutate`]) reshape valid IR in ways the generator never produces
//! (split blocks, parallel CFG edges, perturbed constants, cloned
//! functions, extra call edges), and the merge oracle ([`oracle`])
//! cross-checks every strategy at several worker counts with a verifier,
//! an interpreter differential, and a printer round-trip. Failures are
//! minimized by a delta-debugging reducer ([`reduce`]) and written to a
//! corpus for replay; [`campaign`] ties it together deterministically,
//! seed in, JSON summary out. Surfaced on the command line as `f3m fuzz`.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod global;
pub mod mutate;
pub mod oracle;
pub mod protocol;
pub mod reduce;

pub use campaign::{
    iteration_seed, run_campaign, run_campaign_traced, run_campaign_with, CampaignConfig,
    CampaignSummary, FailureRecord,
};
pub use global::{
    build_module_set, check_module_set, replay_global_case, run_global_campaign,
    GlobalCampaignConfig, GlobalCampaignSummary, GlobalFailure,
};
pub use mutate::{apply_random, Mutator, MUTATORS};
pub use protocol::{
    replay_case, run_protocol_campaign, ProtocolCampaignConfig, ProtocolFailure, ProtocolSummary,
};
pub use oracle::{
    check_module, check_module_with, FailureKind, OracleConfig, OracleFailure, OracleOutcome,
    StrategyKind,
};
pub use reduce::{reduce, ReductionStats};
