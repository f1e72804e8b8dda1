//! # f3m-interp — IR interpreter with dynamic instruction counting
//!
//! Executes [`f3m_ir`] modules over a flat memory model. Used by the F3M
//! reproduction in two roles:
//!
//! - **differential testing**: a merged module must behave identically to
//!   the original module (same return values and `ext_sink` checksums),
//! - **Fig. 17**: merged functions carry guard/select overhead; the
//!   dynamic instruction count measures the runtime impact of merging
//!   without needing native codegen.
//!
//! External functions follow a naming convention: `ext_src*` are
//! deterministic pure value sources, `ext_sink*` accumulate a checksum.
//! Anything else traps, keeping workloads honest.

#![forbid(unsafe_code)]

pub mod interp;
pub mod memory;
pub mod oracle;
pub mod trap;
pub mod value;

pub use interp::{Interpreter, Limits, Outcome};
pub use oracle::{observe, Observation};
pub use trap::Trap;
pub use value::Val;
