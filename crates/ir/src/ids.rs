//! Lightweight entity handles.
//!
//! All IR entities live in per-function or per-module arenas and are referred
//! to by dense `u32` indices. Handles are only meaningful together with the
//! function or module that produced them; mixing handles across functions is
//! a logic error. An instruction is where its block's list puts it: the
//! verifier refuses a use of one that no block of the function lists, and
//! one that blocks list twice.
//!
//! A [`ValueId`] says what it names: an argument by its position, an
//! instruction's result by the instruction's [`InstId`], or a constant by
//! its slot in the function's constant arena. It packs that into two tag
//! bits over a 30-bit index, so it stays 4 bytes, one cell of a function's
//! operand pool. Only [`crate::function::Function`] and the import make one.

use std::fmt;

macro_rules! entity_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Constructs a handle from a raw index.
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("arena index overflow"))
            }

            /// Raw index of this handle inside its arena.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

entity_id!(
    /// Handle to an [`crate::inst::Instruction`] inside a function.
    InstId,
    "inst"
);
entity_id!(
    /// Handle to a basic block inside a function.
    BlockId,
    "bb"
);
entity_id!(
    /// Handle to a function inside a [`crate::module::Module`].
    FuncId,
    "fn"
);
entity_id!(
    /// Handle to a global variable inside a [`crate::module::Module`].
    GlobalId,
    "g"
);

/// Handle to a value of a function: an argument, an instruction's result
/// or a constant (see the module docs). [`crate::function::Function::value`]
/// reads what it names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) u32);

/// What a [`ValueId`] names, unpacked; the variant's position is its tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ValueSlot {
    /// The argument at this position.
    Arg(usize),
    /// The result of this instruction.
    Inst(InstId),
    /// This slot of the constant arena.
    Const(usize),
}

impl ValueId {
    /// Bits of the index; the two above them are the tag.
    const INDEX_BITS: u32 = 30;

    fn tagged(tag: u32, index: usize) -> Self {
        match u32::try_from(index) {
            Ok(i) if i >> Self::INDEX_BITS == 0 => ValueId(tag << Self::INDEX_BITS | i),
            _ => panic!(
                "value index {index} does not fit in {} bits",
                Self::INDEX_BITS
            ),
        }
    }

    /// The value of the argument at position `i`.
    pub(crate) fn arg(i: usize) -> Self {
        Self::tagged(0, i)
    }

    /// The result of instruction `id`.
    pub(crate) fn inst(id: InstId) -> Self {
        Self::tagged(1, id.index())
    }

    /// The constant in slot `slot` of the constant arena.
    pub(crate) fn constant(slot: usize) -> Self {
        Self::tagged(2, slot)
    }

    /// What this id names; `None` for an id no function made (the hole
    /// in an operand list's unused slots).
    pub(crate) fn try_slot(self) -> Option<ValueSlot> {
        let index = (self.0 & ((1 << Self::INDEX_BITS) - 1)) as usize;
        match self.0 >> Self::INDEX_BITS {
            0 => Some(ValueSlot::Arg(index)),
            1 => Some(ValueSlot::Inst(InstId(index as u32))),
            2 => Some(ValueSlot::Const(index)),
            _ => None,
        }
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_slot() {
            Some(ValueSlot::Arg(i)) => write!(f, "arg{i}"),
            Some(ValueSlot::Inst(id)) => write!(f, "{id:?}"),
            Some(ValueSlot::Const(c)) => write!(f, "const{c}"),
            None => write!(f, "hole"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let b = BlockId::from_index(7);
        assert_eq!(b.index(), 7);
        assert_eq!(format!("{b:?}"), "bb7");
    }

    #[test]
    fn value_ids_say_what_they_name() {
        let max = (1 << ValueId::INDEX_BITS) - 1;
        for (id, slot, debug) in [
            (ValueId::arg(0), ValueSlot::Arg(0), "arg0"),
            (ValueId::arg(max), ValueSlot::Arg(max), "arg1073741823"),
            (
                ValueId::inst(InstId::from_index(5)),
                ValueSlot::Inst(InstId::from_index(5)),
                "inst5",
            ),
            (
                ValueId::constant(max),
                ValueSlot::Const(max),
                "const1073741823",
            ),
        ] {
            assert_eq!(id.try_slot(), Some(slot));
            assert_eq!(format!("{id:?}"), debug);
        }
        assert_ne!(ValueId::arg(3), ValueId::inst(InstId::from_index(3)));
        assert_ne!(ValueId::arg(3), ValueId::constant(3));
        assert_eq!(std::mem::size_of::<ValueId>(), 4);
        assert_eq!(
            (
                ValueId(u32::MAX).try_slot(),
                format!("{:?}", ValueId(u32::MAX))
            ),
            (None, "hole".into())
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn value_indices_are_checked_when_made() {
        ValueId::constant(1 << ValueId::INDEX_BITS);
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(InstId::from_index(1) < InstId::from_index(2));
    }
}
