//! SSA values.
//!
//! A [`Value`] is anything that can appear as an instruction operand:
//! function arguments, instruction results, constants, `undef`, and
//! references to module-level entities (functions, globals). Only the
//! constant-like ones are stored: an argument is its position in the
//! parameter list and a result is its instruction, so
//! [`crate::function::Function::value`] makes their `Value`s from the
//! parameter's and the instruction's type when asked. Each constant an
//! operand names is a value of its own in the function's constant arena:
//! two constants are the same when their [`Value`]s are equal, whatever
//! their ids.

use crate::ids::{FuncId, GlobalId, InstId};
use crate::types::TypeId;

/// What a value is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueKind {
    /// The `i`-th formal parameter of the enclosing function.
    Arg(u32),
    /// The result of an instruction.
    Inst(InstId),
    /// Integer constant. The payload is the two's-complement bit pattern
    /// truncated to the type's width; stored sign-extended to 64 bits.
    /// Every `ConstInt` a function holds is normalized so — it equals
    /// [`normalize_int`] of itself at its type's width — because
    /// [`crate::function::Function::const_int`] normalizes what it makes
    /// and every other constant is a copy of one it made.
    ConstInt(i64),
    /// Floating-point constant, stored as the IEEE-754 bit pattern of the
    /// `f64` value (also used for `f32` constants, converted on use).
    ConstFloat(u64),
    /// An undefined value of the given type.
    Undef,
    /// Address of a function in the enclosing module.
    FuncRef(FuncId),
    /// Address of a global variable in the enclosing module.
    GlobalRef(GlobalId),
}

/// What a [`crate::ids::ValueId`] names: its structure and type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// Structure of the value.
    pub kind: ValueKind,
    /// Type of the value.
    pub ty: TypeId,
}

impl Value {
    /// True if this value is a constant, `undef`, or a module-entity
    /// reference — i.e. anything that does not depend on control flow and
    /// can be freely rematerialized in a merged function.
    pub fn is_constant_like(&self) -> bool {
        matches!(
            self.kind,
            ValueKind::ConstInt(_)
                | ValueKind::ConstFloat(_)
                | ValueKind::Undef
                | ValueKind::FuncRef(_)
                | ValueKind::GlobalRef(_)
        )
    }
}

/// Truncates a 64-bit pattern to `bits` and sign-extends back; the canonical
/// representation used for [`ValueKind::ConstInt`] payloads.
pub fn normalize_int(value: i64, bits: u32) -> i64 {
    if bits >= 64 {
        return value;
    }
    let shift = 64 - bits;
    (value << shift) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeStore;

    #[test]
    fn normalize_int_wraps_to_width() {
        assert_eq!(normalize_int(255, 8), -1);
        assert_eq!(normalize_int(127, 8), 127);
        assert_eq!(normalize_int(128, 8), -128);
        assert_eq!(normalize_int(1, 1), -1);
        assert_eq!(normalize_int(0, 1), 0);
        assert_eq!(normalize_int(i64::MAX, 64), i64::MAX);
    }

    #[test]
    fn constant_likeness() {
        let ty = TypeStore::new().int(8);
        let c = Value { kind: ValueKind::ConstInt(3), ty };
        assert!(c.is_constant_like());
        let a = Value { kind: ValueKind::Arg(0), ty };
        assert!(!a.is_constant_like());
        let i = Value { kind: ValueKind::Inst(InstId::from_index(0)), ty };
        assert!(!i.is_constant_like());
    }

    #[test]
    fn constants_distinguish_types() {
        let mut ts = TypeStore::new();
        let (i8t, i16t) = (ts.int(8), ts.int(16));
        let a = Value { kind: ValueKind::ConstInt(1), ty: i8t };
        let b = Value { kind: ValueKind::ConstInt(1), ty: i16t };
        assert_ne!(a, b);
        assert_eq!(a, Value { kind: ValueKind::ConstInt(1), ty: ts.int(8) });
    }
}
