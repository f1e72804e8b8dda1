//! # f3m — Fast Focused Function Merging (CGO 2022), reproduced in Rust
//!
//! Facade crate re-exporting the complete reproduction:
//!
//! - [`ir`]: the SSA IR substrate (types, functions, parser/printer,
//!   CFG/dominators, verifier, size model),
//! - [`interp`]: an IR interpreter with dynamic instruction counting,
//! - [`fingerprint`]: opcode-frequency (HyFM) and MinHash fingerprints,
//!   LSH search, and the adaptive parameter equations,
//! - [`core`]: alignment, merged-function code generation and the merging
//!   pass itself,
//! - [`workloads`]: the synthetic Table I benchmark-suite generator,
//! - [`fuzz`]: differential fuzzing of the whole pipeline — IR mutators,
//!   a merge oracle, deterministic campaigns and a delta-debugging
//!   reducer (`f3m fuzz` on the command line),
//! - [`serve`]: the resident merge daemon — a persistent LSH-indexed
//!   corpus with epoch-versioned ingestion behind a length-prefixed JSON
//!   TCP protocol (`f3m serve` / `f3m client` on the command line),
//! - [`trace`]: pipeline observability — structured span tracing with a
//!   Chrome `trace_event` exporter, a typed metrics registry, and the
//!   baseline machinery behind the perf-regression gate
//!   (`--trace chrome:<path>` / `--metrics <path>` on the command line).
//!
//! # Quickstart
//!
//! ```
//! use f3m::prelude::*;
//!
//! // Build a synthetic workload and merge it with F3M.
//! let spec = f3m::workloads::table1()[0].scaled(0.5);
//! let mut module = f3m::workloads::build_module(&spec);
//! let report = run_pass(&mut module, &PassConfig::f3m());
//! assert!(report.stats.size_after <= report.stats.size_before);
//! f3m::ir::verify::verify_module(&module).unwrap();
//! ```

#![forbid(unsafe_code)]

pub use f3m_core as core;
pub use f3m_fingerprint as fingerprint;
pub use f3m_fuzz as fuzz;
pub use f3m_interp as interp;
pub use f3m_ir as ir;
pub use f3m_serve as serve;
pub use f3m_trace as trace;
pub use f3m_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use f3m_core::pass::{
        run_pass, run_pass_traced, MergeReport, MergeStats, PassConfig, Strategy,
    };
    pub use f3m_core::{MergeConfig, RepairMode};
    pub use f3m_fingerprint::adaptive::MergeParams;
    pub use f3m_fingerprint::{
        minhash_signature, BackendKind, LshIndex, LshParams, OpcodeFingerprint,
    };
    pub use f3m_interp::{Interpreter, Limits, Outcome, Trap, Val};
    pub use f3m_ir::prelude::*;
    pub use f3m_trace::{MetricsRegistry, Tracer};
    pub use f3m_workloads::{build_module, table1, MutationProfile, ShapeParams, WorkloadSpec};
}
