//! Instructions and opcodes.
//!
//! The opcode set mirrors the LLVM instructions that occur in the programs
//! the F3M paper evaluates on. Each instruction has a result type (possibly
//! `void`), a flat operand list, a list of target blocks (for terminators
//! and for phi incoming blocks; often empty), an optional comparison
//! predicate and an optional auxiliary type (`alloca`'s allocated type,
//! `load`'s loaded type, `gep`'s element type, casts' source type is implied
//! by the operand).

use crate::ids::{BlockId, ValueId};
use crate::types::TypeId;

/// Instruction opcodes.
///
/// The discriminant doubles as the "integer LLVM associates with each
/// opcode" in the paper's instruction-encoding scheme (Section III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Opcode {
    // Terminators.
    Ret = 1,
    Br,
    CondBr,
    Invoke,
    Unreachable,
    // Integer arithmetic.
    Add,
    Sub,
    Mul,
    UDiv,
    SDiv,
    URem,
    SRem,
    // Bitwise.
    Shl,
    LShr,
    AShr,
    And,
    Or,
    Xor,
    // Floating point arithmetic.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FRem,
    FNeg,
    // Memory.
    Alloca,
    Load,
    Store,
    Gep,
    // Casts.
    Trunc,
    ZExt,
    SExt,
    FPTrunc,
    FPExt,
    FPToUI,
    FPToSI,
    UIToFP,
    SIToFP,
    PtrToInt,
    IntToPtr,
    BitCast,
    // Other.
    ICmp,
    FCmp,
    Phi,
    Select,
    Call,
}

impl Opcode {
    /// Numeric code used by the fingerprint encoding.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Number of distinct opcodes (the dimensionality of the opcode
    /// frequency fingerprint used by HyFM).
    pub const COUNT: usize = Self::ALL.len();

    /// True for instructions that must terminate a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Ret | Opcode::Br | Opcode::CondBr | Opcode::Invoke | Opcode::Unreachable
        )
    }

    /// True for two-operand integer arithmetic/bitwise operations.
    pub fn is_int_binary(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::UDiv
                | Opcode::SDiv
                | Opcode::URem
                | Opcode::SRem
                | Opcode::Shl
                | Opcode::LShr
                | Opcode::AShr
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
        )
    }

    /// True for two-operand floating-point operations.
    pub fn is_float_binary(self) -> bool {
        matches!(
            self,
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv | Opcode::FRem
        )
    }

    /// True for any two-operand arithmetic/bitwise operation.
    pub fn is_binary(self) -> bool {
        self.is_int_binary() || self.is_float_binary()
    }

    /// True for cast operations (single operand, result type differs).
    pub fn is_cast(self) -> bool {
        matches!(
            self,
            Opcode::Trunc
                | Opcode::ZExt
                | Opcode::SExt
                | Opcode::FPTrunc
                | Opcode::FPExt
                | Opcode::FPToUI
                | Opcode::FPToSI
                | Opcode::UIToFP
                | Opcode::SIToFP
                | Opcode::PtrToInt
                | Opcode::IntToPtr
                | Opcode::BitCast
        )
    }

    /// Every opcode with its mnemonic, in discriminant order; the one place
    /// an opcode is named besides its variant.
    const ALL: &'static [(Opcode, &'static str)] = &[
        (Opcode::Ret, "ret"),
        (Opcode::Br, "br"),
        (Opcode::CondBr, "condbr"),
        (Opcode::Invoke, "invoke"),
        (Opcode::Unreachable, "unreachable"),
        (Opcode::Add, "add"),
        (Opcode::Sub, "sub"),
        (Opcode::Mul, "mul"),
        (Opcode::UDiv, "udiv"),
        (Opcode::SDiv, "sdiv"),
        (Opcode::URem, "urem"),
        (Opcode::SRem, "srem"),
        (Opcode::Shl, "shl"),
        (Opcode::LShr, "lshr"),
        (Opcode::AShr, "ashr"),
        (Opcode::And, "and"),
        (Opcode::Or, "or"),
        (Opcode::Xor, "xor"),
        (Opcode::FAdd, "fadd"),
        (Opcode::FSub, "fsub"),
        (Opcode::FMul, "fmul"),
        (Opcode::FDiv, "fdiv"),
        (Opcode::FRem, "frem"),
        (Opcode::FNeg, "fneg"),
        (Opcode::Alloca, "alloca"),
        (Opcode::Load, "load"),
        (Opcode::Store, "store"),
        (Opcode::Gep, "gep"),
        (Opcode::Trunc, "trunc"),
        (Opcode::ZExt, "zext"),
        (Opcode::SExt, "sext"),
        (Opcode::FPTrunc, "fptrunc"),
        (Opcode::FPExt, "fpext"),
        (Opcode::FPToUI, "fptoui"),
        (Opcode::FPToSI, "fptosi"),
        (Opcode::UIToFP, "uitofp"),
        (Opcode::SIToFP, "sitofp"),
        (Opcode::PtrToInt, "ptrtoint"),
        (Opcode::IntToPtr, "inttoptr"),
        (Opcode::BitCast, "bitcast"),
        (Opcode::ICmp, "icmp"),
        (Opcode::FCmp, "fcmp"),
        (Opcode::Phi, "phi"),
        (Opcode::Select, "select"),
        (Opcode::Call, "call"),
    ];

    /// Textual mnemonic as used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        Self::ALL[self as usize - 1].1
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        lookup(Self::ALL, &OPCODE_SLOTS, s)
    }

    /// Iterates over every opcode.
    pub fn iter() -> impl Iterator<Item = Opcode> {
        Self::ALL.iter().map(|&(op, _)| op)
    }
}

/// Slots of a mnemonic table's hash; a power of two, so a slot is the top
/// byte of a 32-bit hash.
const SLOTS: usize = 256;

/// A perfect hash of one mnemonic table, found at compile time: under
/// `seed` every mnemonic of the table has a slot of its own, and `index`
/// maps each slot to its entry's position in the table (`u8::MAX` when no
/// mnemonic hashes there). The table stays the one place a mnemonic is
/// spelt; this is derived from it.
struct Slots {
    seed: u32,
    index: [u8; SLOTS],
}

static OPCODE_SLOTS: Slots = perfect_hash(Opcode::ALL);
static INT_PREDICATE_SLOTS: Slots = perfect_hash(IntPredicate::ALL);
static FLOAT_PREDICATE_SLOTS: Slots = perfect_hash(FloatPredicate::ALL);

/// The slot of `s` under `seed`: FNV-1a over its bytes from a seeded
/// offset basis, top byte.
const fn slot(seed: u32, s: &[u8]) -> usize {
    let mut h: u32 = 0x811c_9dc5 ^ seed;
    let mut i = 0;
    while i < s.len() {
        h = (h ^ s[i] as u32).wrapping_mul(0x0100_0193);
        i += 1;
    }
    (h >> 24) as usize
}

/// The first seed from zero up under which `table`'s mnemonics take
/// distinct slots. A seed serves a table of n with odds of about
/// e^(−n²/512) — one in fifty for the 45 opcodes — so the search, run by
/// the compiler, tries tens of seeds.
const fn perfect_hash<T>(table: &[(T, &str)]) -> Slots {
    assert!(table.len() < u8::MAX as usize, "slot indices are bytes");
    let mut seed = 0;
    'seeds: loop {
        let mut index = [u8::MAX; SLOTS];
        let mut i = 0;
        while i < table.len() {
            let s = slot(seed, table[i].1.as_bytes());
            if index[s] != u8::MAX {
                seed += 1;
                continue 'seeds;
            }
            index[s] = i as u8;
            i += 1;
        }
        return Slots { seed, index };
    }
}

/// The entry of a mnemonic table that is spelt `s`: one hash and one
/// comparison, however long the table.
fn lookup<T: Copy>(table: &[(T, &str)], slots: &Slots, s: &str) -> Option<T> {
    let at = slots.index[slot(slots.seed, s.as_bytes())];
    let &(item, spelt) = table.get(usize::from(at))?;
    (spelt == s).then_some(item)
}

/// Integer comparison predicates (subset of LLVM's `icmp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntPredicate {
    Eq,
    Ne,
    Ugt,
    Uge,
    Ult,
    Ule,
    Sgt,
    Sge,
    Slt,
    Sle,
}

impl IntPredicate {
    /// Every predicate with its mnemonic, in declaration order.
    const ALL: &'static [(IntPredicate, &'static str)] = &[
        (IntPredicate::Eq, "eq"),
        (IntPredicate::Ne, "ne"),
        (IntPredicate::Ugt, "ugt"),
        (IntPredicate::Uge, "uge"),
        (IntPredicate::Ult, "ult"),
        (IntPredicate::Ule, "ule"),
        (IntPredicate::Sgt, "sgt"),
        (IntPredicate::Sge, "sge"),
        (IntPredicate::Slt, "slt"),
        (IntPredicate::Sle, "sle"),
    ];

    /// Textual form (`eq`, `slt`, ...).
    pub fn mnemonic(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Parses a predicate mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        lookup(Self::ALL, &INT_PREDICATE_SLOTS, s)
    }

    /// Small integer used by the fingerprint encoding to distinguish
    /// predicates.
    pub fn code(self) -> u32 {
        self as u32 + 1
    }
}

/// Floating-point comparison predicates (ordered subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FloatPredicate {
    Oeq,
    One,
    Ogt,
    Oge,
    Olt,
    Ole,
}

impl FloatPredicate {
    /// Every predicate with its mnemonic, in declaration order.
    const ALL: &'static [(FloatPredicate, &'static str)] = &[
        (FloatPredicate::Oeq, "oeq"),
        (FloatPredicate::One, "one"),
        (FloatPredicate::Ogt, "ogt"),
        (FloatPredicate::Oge, "oge"),
        (FloatPredicate::Olt, "olt"),
        (FloatPredicate::Ole, "ole"),
    ];

    /// Textual form (`oeq`, `olt`, ...).
    pub fn mnemonic(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Parses a predicate mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        lookup(Self::ALL, &FLOAT_PREDICATE_SLOTS, s)
    }

    /// Small integer used by the fingerprint encoding.
    pub fn code(self) -> u32 {
        self as u32 + 1
    }
}

/// Comparison predicate attached to `icmp`/`fcmp` instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Integer predicate for [`Opcode::ICmp`].
    Int(IntPredicate),
    /// Float predicate for [`Opcode::FCmp`].
    Float(FloatPredicate),
}

impl Predicate {
    /// Small integer used by the fingerprint encoding.
    pub fn code(self) -> u32 {
        match self {
            Predicate::Int(p) => p.code(),
            Predicate::Float(p) => 16 + p.code(),
        }
    }
}

/// A single IR instruction, as [`crate::function::Function::inst`] reads
/// it and [`crate::function::Function::append_inst`] takes it: its lists
/// are slices, of the function's id pools or of the caller's ids.
///
/// An instruction links to neither its block nor its result: the block
/// whose `insts` lists it is where it is (read by
/// [`crate::function::Function::placement`]), and its result, if it has
/// one, is [`crate::function::Function::result`] of its id.
///
/// Operand conventions by opcode:
///
/// | opcode      | operands                                   | blocks                      |
/// |-------------|--------------------------------------------|-----------------------------|
/// | `ret`       | `[]` (void) or `[value]`                   | —                           |
/// | `br`        | `[]`                                       | `[target]`                  |
/// | `condbr`    | `[cond]`                                   | `[then, else]`              |
/// | `invoke`    | `[callee, args...]`                        | `[normal, unwind]`          |
/// | binary ops  | `[lhs, rhs]`                               | —                           |
/// | `fneg`      | `[x]`                                      | —                           |
/// | `alloca`    | `[]` (`aux_ty` = allocated type)           | —                           |
/// | `load`      | `[ptr]`                                    | —                           |
/// | `store`     | `[value, ptr]`                             | —                           |
/// | `gep`       | `[ptr, index]` (`aux_ty` = element type)   | —                           |
/// | casts       | `[x]`                                      | —                           |
/// | `icmp/fcmp` | `[lhs, rhs]` + `pred`                      | —                           |
/// | `phi`       | `[v0, v1, ...]`                            | `[bb0, bb1, ...]` (parallel)|
/// | `select`    | `[cond, if_true, if_false]`                | —                           |
/// | `call`      | `[callee, args...]`                        | —                           |
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instruction<'a> {
    /// What the instruction does.
    pub op: Opcode,
    /// Result type (`void` for `store`, `br`, etc.).
    pub ty: TypeId,
    /// Value operands (see table above).
    pub operands: &'a [ValueId],
    /// Block operands: branch targets, or phi incoming blocks.
    pub blocks: &'a [BlockId],
    /// Comparison predicate for `icmp`/`fcmp`.
    pub pred: Option<Predicate>,
    /// Auxiliary type: allocated type for `alloca`, element type for `gep`.
    pub aux_ty: Option<TypeId>,
}

impl<'a> Instruction<'a> {
    /// An instruction with no predicate and no auxiliary type.
    pub fn new(op: Opcode, ty: TypeId, operands: &'a [ValueId], blocks: &'a [BlockId]) -> Self {
        Instruction { op, ty, operands, blocks, pred: None, aux_ty: None }
    }

    /// True if this instruction ends its block.
    pub fn is_terminator(self) -> bool {
        self.op.is_terminator()
    }

    /// Successor blocks if this is a terminator (empty for `ret` and
    /// `unreachable`). Phi incoming blocks are *not* successors.
    pub fn successors(self) -> &'a [BlockId] {
        if self.is_terminator() {
            self.blocks
        } else {
            &[]
        }
    }

    /// For `phi` instructions, the `(incoming block, incoming value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a phi.
    pub fn phi_incomings(self) -> impl Iterator<Item = (BlockId, ValueId)> + 'a {
        assert_eq!(self.op, Opcode::Phi, "phi_incomings on non-phi");
        self.blocks.iter().copied().zip(self.operands.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip_all_opcodes() {
        for op in Opcode::iter() {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op), "{op:?}");
        }
    }

    /// The tables are indexed by discriminant, and `code()` values are in
    /// every fingerprint: neither may move.
    #[test]
    fn mnemonic_tables_are_in_discriminant_order_and_round_trip() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            table: &[(T, &str)],
            first: usize,
            index: fn(T) -> usize,
            mnemonic: fn(T) -> &'static str,
            parse: fn(&str) -> Option<T>,
        ) {
            let mut seen = std::collections::HashSet::new();
            for (i, &(item, spelt)) in table.iter().enumerate() {
                assert_eq!(index(item), i + first, "{item:?} is out of order");
                assert!(seen.insert(spelt), "mnemonic `{spelt}` appears twice");
                assert_eq!(mnemonic(item), spelt);
                assert_eq!(parse(mnemonic(item)), Some(item));
                // A hash slot is one comparison: near misses must not land
                // on the slot's entry.
                let near = (0..spelt.len()).map(|n| spelt[..n].to_string());
                let near = near.chain(["x", "_", "0"].map(|tail| format!("{spelt}{tail}")));
                for word in near.chain([spelt.to_uppercase()]) {
                    let listed = table.iter().find(|&&(_, s)| s == word).map(|&(item, _)| item);
                    assert_eq!(parse(&word), listed, "{word}");
                }
            }
            assert_eq!(parse("no-such-mnemonic"), None);
        }
        check(Opcode::ALL, 1, |op| op as usize, Opcode::mnemonic, Opcode::from_mnemonic);
        use {FloatPredicate as Fp, IntPredicate as Ip};
        check(Ip::ALL, 0, |p| p as usize, Ip::mnemonic, Ip::from_mnemonic);
        check(Fp::ALL, 0, |p| p as usize, Fp::mnemonic, Fp::from_mnemonic);
        assert_eq!((Opcode::COUNT, Opcode::Call.code()), (45, 45));
        assert_eq!((IntPredicate::Sle.code(), FloatPredicate::Ole.code()), (10, 6));
    }

    #[test]
    fn opcode_codes_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::iter() {
            assert!(seen.insert(op.code()), "duplicate code for {op:?}");
        }
        assert_eq!(seen.len(), 45);
    }

    #[test]
    fn terminator_classification() {
        assert!(Opcode::Ret.is_terminator());
        assert!(Opcode::CondBr.is_terminator());
        assert!(Opcode::Invoke.is_terminator());
        assert!(!Opcode::Call.is_terminator());
        assert!(!Opcode::Phi.is_terminator());
    }

    #[test]
    fn binary_classification() {
        assert!(Opcode::Add.is_int_binary());
        assert!(Opcode::FMul.is_float_binary());
        assert!(Opcode::Add.is_binary());
        assert!(!Opcode::FNeg.is_binary());
        assert!(!Opcode::ICmp.is_binary());
    }

    #[test]
    fn predicate_mnemonics_round_trip() {
        for p in [
            IntPredicate::Eq,
            IntPredicate::Ne,
            IntPredicate::Ugt,
            IntPredicate::Uge,
            IntPredicate::Ult,
            IntPredicate::Ule,
            IntPredicate::Sgt,
            IntPredicate::Sge,
            IntPredicate::Slt,
            IntPredicate::Sle,
        ] {
            assert_eq!(IntPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
        for p in [
            FloatPredicate::Oeq,
            FloatPredicate::One,
            FloatPredicate::Ogt,
            FloatPredicate::Oge,
            FloatPredicate::Olt,
            FloatPredicate::Ole,
        ] {
            assert_eq!(FloatPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
    }

    #[test]
    fn predicate_codes_distinct_between_int_and_float() {
        let i = Predicate::Int(IntPredicate::Eq).code();
        let f = Predicate::Float(FloatPredicate::Oeq).code();
        assert_ne!(i, f);
    }
}
