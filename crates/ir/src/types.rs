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

/// Handle to an interned type inside a [`TypeStore`].
///
/// The numeric value of a `TypeId` is stable for the lifetime of the store
/// and is used directly by the fingerprint encoding as the "unique number
/// assigned to each type" described in Section III-B of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// `void` in every store [`TypeStore::new`] builds: the scalars it
    /// pre-interns get their ids by construction.
    pub const VOID: TypeId = TypeId(0);
    /// `i1` in every store [`TypeStore::new`] builds.
    pub const BOOL: TypeId = TypeId(1);
    /// The opaque pointer type in every store [`TypeStore::new`] builds.
    pub const PTR: TypeId = TypeId(8);

    /// Raw index of this type inside its store.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable small integer used by the instruction encoding scheme.
    pub fn encoding_number(self) -> u32 {
        // Offset by a small prime so that multiplying operand type numbers
        // (as the paper does) never collapses to zero/one for real types.
        self.0 + 3
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
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
    /// their `TypeId`s (and therefore encoding numbers) are stable across
    /// stores, which keeps fingerprints comparable between modules.
    pub fn new() -> Self {
        let mut ts = TypeStore { kinds: Vec::new(), lookup: HashMap::new() };
        // Pre-intern in a fixed order.
        ts.intern(TypeKind::Void);
        ts.intern(TypeKind::Int(1));
        ts.intern(TypeKind::Int(8));
        ts.intern(TypeKind::Int(16));
        ts.intern(TypeKind::Int(32));
        ts.intern(TypeKind::Int(64));
        ts.intern(TypeKind::F32);
        ts.intern(TypeKind::F64);
        ts.intern(TypeKind::Ptr);
        ts
    }

    /// Interns `kind`, returning the canonical id.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.lookup.get(&kind) {
            return id;
        }
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.lookup.insert(kind, id);
        id
    }

    /// Whether one store's table is a prefix of the other's. A type is
    /// interned after the types it is built from, so equal kinds at equal
    /// indices are the same type: `true` means every type both stores hold
    /// has the same id — hence encoding number — in both. `false` is
    /// conservative: the tables may diverge only in types they do not share.
    pub fn same_numbering(&self, other: &TypeStore) -> bool {
        let n = self.kinds.len().min(other.kinds.len());
        self.kinds[..n] == other.kinds[..n]
    }

    /// Returns the structure of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this store.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.0 as usize]
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
        match self.kind(id) {
            TypeKind::Void => "void".to_string(),
            TypeKind::Int(b) => format!("i{b}"),
            TypeKind::F32 => "f32".to_string(),
            TypeKind::F64 => "f64".to_string(),
            TypeKind::Ptr => "ptr".to_string(),
            TypeKind::Array { elem, len } => format!("[{} x {}]", len, self.display(*elem)),
            TypeKind::Struct { fields } => {
                let inner: Vec<String> = fields.iter().map(|f| self.display(*f)).collect();
                format!("{{{}}}", inner.join(", "))
            }
            TypeKind::Func { params, ret } => {
                let inner: Vec<String> = params.iter().map(|p| self.display(*p)).collect();
                format!("fn({}) -> {}", inner.join(", "), self.display(*ret))
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
}
