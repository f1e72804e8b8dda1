//! Public observation entry point for differential oracles.
//!
//! A differential oracle needs a *total* notion of "what a call did" — a
//! plain `Result<Outcome, Trap>` is awkward to compare because resource
//! traps are legitimately perturbed by transformations: a merged function
//! executes extra guard instructions (fuel), carries both originals'
//! allocas (memory) and calls through thunks (stack depth). [`observe`]
//! folds a call into an [`Observation`] that classifies those traps
//! separately so callers can skip the comparison instead of reporting a
//! false mismatch, while genuine semantic traps (division by zero, memory
//! faults, undef uses...) remain comparable by class.

use f3m_ir::module::Module;

use crate::interp::{Interpreter, Limits};
use crate::trap::Trap;
use crate::value::Val;

/// What a single top-level call did, folded for comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Observation {
    /// The call returned normally.
    Completed {
        /// Return value (`None` for `void`).
        ret: Option<Val>,
        /// `ext_sink` checksum accumulated during the call.
        checksum: u64,
    },
    /// The call hit an execution limit (fuel, memory, or call depth).
    /// Transformations change resource consumption without changing
    /// semantics, so two observations are incomparable when either side
    /// is a resource limit.
    ResourceLimit(Trap),
    /// The call raised a semantic trap. Only the trap *class* is kept:
    /// payloads such as fault addresses shift when a transformation
    /// relayouts allocations, but the class of the first fault must be
    /// preserved.
    Trapped(&'static str),
}

impl Observation {
    /// True for [`Observation::ResourceLimit`].
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, Observation::ResourceLimit(_))
    }

    /// The differential verdict: `None` when either side hit a resource
    /// limit (incomparable, skip the probe), otherwise whether the two
    /// calls did the same thing. Float results compare bit-for-bit — the
    /// derived `==` would call a NaN returned on both sides a mismatch.
    pub fn agrees(&self, other: &Observation) -> Option<bool> {
        use Observation::Completed;
        if self.is_resource_limit() || other.is_resource_limit() {
            return None;
        }
        Some(match (self, other) {
            (
                Completed { ret: Some(Val::Float(x)), checksum: c1 },
                Completed { ret: Some(Val::Float(y)), checksum: c2 },
            ) => x.to_bits() == y.to_bits() && c1 == c2,
            _ => self == other,
        })
    }
}

/// The payload-free class of a trap, used by [`Observation::Trapped`].
pub fn trap_class(t: &Trap) -> &'static str {
    match t {
        Trap::OutOfFuel => "out-of-fuel",
        Trap::OutOfMemory => "out-of-memory",
        Trap::MemoryFault { .. } => "memory-fault",
        Trap::DivideByZero => "divide-by-zero",
        Trap::UndefUsed { .. } => "undef-used",
        Trap::BadIndirectCall { .. } => "bad-indirect-call",
        Trap::UnknownExternal { .. } => "unknown-external",
        Trap::StackOverflow => "stack-overflow",
        Trap::UnreachableExecuted => "unreachable-executed",
        Trap::CallMismatch { .. } => "call-mismatch",
    }
}

/// Runs `func(args)` on a fresh interpreter over `m` and folds the result
/// into an [`Observation`]. An unknown function name observes as a
/// `Trapped("unknown-external")`, keeping the function total over
/// arbitrary modules.
pub fn observe(m: &Module, func: &str, args: &[Val], limits: Limits) -> Observation {
    let mut interp = Interpreter::with_limits(m, limits);
    match interp.call_by_name(func, args) {
        Ok(out) => Observation::Completed { ret: out.ret, checksum: out.checksum },
        Err(t @ (Trap::OutOfFuel | Trap::OutOfMemory | Trap::StackOverflow)) => {
            Observation::ResourceLimit(t)
        }
        Err(t) => Observation::Trapped(trap_class(&t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::parser::parse_module;

    #[test]
    fn completion_and_traps_fold_into_observations() {
        let m = parse_module(
            r#"
module "t" {
define @ok(i64 %0) -> i64 {
bb0:
  ret i64 %0
}
define @boom(i64 %0) -> i64 {
bb0:
  %1 = sdiv i64 %0, 0
  ret i64 %1
}
}
"#,
        )
        .unwrap();
        let lim = Limits::default();
        assert_eq!(
            observe(&m, "ok", &[Val::Int(7)], lim),
            Observation::Completed { ret: Some(Val::Int(7)), checksum: 0 }
        );
        assert_eq!(observe(&m, "boom", &[Val::Int(1)], lim), Observation::Trapped("divide-by-zero"));
        assert_eq!(observe(&m, "missing", &[], lim), Observation::Trapped("unknown-external"));
    }

    #[test]
    fn resource_traps_are_incomparable_not_mismatches() {
        let m = parse_module(
            r#"
module "t" {
define @spin() -> void {
bb0:
  br bb1
bb1:
  br bb1
}
}
"#,
        )
        .unwrap();
        let obs = observe(
            &m,
            "spin",
            &[],
            Limits { fuel: 100, memory: 1 << 16, max_depth: 8 },
        );
        assert!(obs.is_resource_limit());
        assert_eq!(obs, Observation::ResourceLimit(Trap::OutOfFuel));
        assert_eq!(obs.agrees(&obs), None, "a resource limit is a skip, not a verdict");
    }

    #[test]
    fn agreement_compares_floats_by_bits() {
        let done = |ret| Observation::Completed { ret: Some(ret), checksum: 3 };
        let nan = done(Val::Float(f64::NAN));
        assert_ne!(nan, nan, "the derived equality is the trap `agrees` exists for");
        assert_eq!(nan.agrees(&nan), Some(true));
        assert_eq!(done(Val::Float(0.0)).agrees(&done(Val::Float(-0.0))), Some(false));
        assert_eq!(done(Val::Int(1)).agrees(&done(Val::Int(1))), Some(true));
        assert_eq!(done(Val::Int(1)).agrees(&done(Val::Int(2))), Some(false));
        assert_eq!(done(Val::Int(1)).agrees(&Observation::Trapped("divide-by-zero")), Some(false));
    }
}
