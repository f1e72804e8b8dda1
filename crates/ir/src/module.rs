//! Modules: the unit the merging pass operates on.

use std::collections::HashMap;

use crate::ids::{FuncId, GlobalId, InstId, ValueId};
use crate::function::Function;
use crate::inst::Instruction;
use crate::types::{TypeId, TypeStore};
use crate::value::{Value, ValueKind::*};

/// A module-level global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Type of the value stored in the global.
    pub ty: TypeId,
    /// Initial value interpreted as raw little-endian bytes of the type
    /// (zero-filled if shorter than the type size).
    pub init: Vec<u8>,
}

/// A whole program: types, globals, and functions.
///
/// # Examples
///
/// ```
/// use f3m_ir::module::Module;
/// use f3m_ir::function::Function;
///
/// let mut m = Module::new("demo");
/// let i32t = m.types.int(32);
/// let f = Function::new("id", vec![i32t], i32t);
/// let fid = m.add_function(f);
/// assert_eq!(m.function(fid).name, "id");
/// assert_eq!(m.lookup_function("id"), Some(fid));
/// ```
#[derive(Clone, Debug)]
pub struct Module {
    /// Module identifier (used in diagnostics only).
    pub name: String,
    /// The type interner shared by all functions of the module.
    pub types: TypeStore,
    funcs: Vec<Function>,
    globals: Vec<Global>,
    func_names: HashMap<String, FuncId>,
    global_names: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            types: TypeStore::new(),
            funcs: Vec::new(),
            globals: Vec::new(),
            func_names: HashMap::new(),
            global_names: HashMap::new(),
        }
    }

    /// Adds a function, registering its name.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        assert!(
            !self.func_names.contains_key(&f.name),
            "duplicate function name {}",
            f.name
        );
        let id = FuncId::from_index(self.funcs.len());
        self.func_names.insert(f.name.clone(), id);
        self.funcs.push(f);
        id
    }

    /// Adds a global variable.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name already exists.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        assert!(
            !self.global_names.contains_key(&g.name),
            "duplicate global name {}",
            g.name
        );
        let id = GlobalId::from_index(self.globals.len());
        self.global_names.insert(g.name.clone(), id);
        self.globals.push(g);
        id
    }

    /// Looks up a function by id.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable function access.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Splits the borrow: mutable access to one function together with
    /// shared access to the type store. Needed by code that appends typed
    /// instructions to a function owned by this module.
    pub fn func_mut_and_types(&mut self, id: FuncId) -> (&mut Function, &TypeStore) {
        let Module { funcs, types, .. } = self;
        (&mut funcs[id.index()], &*types)
    }

    /// Replaces the function at `id` wholesale (used when a body is
    /// replaced by a thunk). The new function must keep the same name.
    ///
    /// # Panics
    ///
    /// Panics if the replacement's name differs from the original's.
    pub fn replace_function(&mut self, id: FuncId, f: Function) {
        assert_eq!(self.funcs[id.index()].name, f.name, "replace_function must keep the name");
        self.funcs[id.index()] = f;
    }

    /// Renames the function at `id`, keeping the name registry in sync.
    /// Safe for any function: call sites reference callees through
    /// [`FuncId`]s, never by name, so no body rewriting is needed. Used to
    /// namespace symbols when modules from different origins are combined
    /// into one corpus.
    ///
    /// # Panics
    ///
    /// Panics if `new_name` is already taken by a different function.
    pub fn rename_function(&mut self, id: FuncId, new_name: impl Into<String>) {
        let new_name = new_name.into();
        let old = self.funcs[id.index()].name.clone();
        if old == new_name {
            return;
        }
        assert!(
            !self.func_names.contains_key(&new_name),
            "rename target {new_name} already exists"
        );
        self.func_names.remove(&old);
        self.func_names.insert(new_name.clone(), id);
        self.funcs[id.index()].name = new_name;
    }

    /// Removes the most recently added function. Used by the merging pass
    /// to discard a freshly built merged function that turned out to be
    /// unprofitable, before anything can reference it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the last function in the module.
    pub fn remove_last_function(&mut self, id: FuncId) {
        assert_eq!(
            id.index() + 1,
            self.funcs.len(),
            "remove_last_function on a non-last function"
        );
        let f = self.funcs.pop().expect("non-empty function list");
        self.func_names.remove(&f.name);
    }

    /// Looks up a global by id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Resolves a function name.
    pub fn lookup_function(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// Resolves a global name.
    pub fn lookup_global(&self, name: &str) -> Option<GlobalId> {
        self.global_names.get(name).copied()
    }

    /// Number of functions (definitions + declarations).
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }

    /// Number of globals.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// Iterates over `(id, function)` pairs.
    pub fn functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs.iter().enumerate().map(|(i, f)| (FuncId::from_index(i), f))
    }

    /// Iterates over `(id, global)` pairs.
    pub fn globals(&self) -> impl Iterator<Item = (GlobalId, &Global)> {
        self.globals.iter().enumerate().map(|(i, g)| (GlobalId::from_index(i), g))
    }

    /// Ids of all function *definitions* (bodies the merger may touch).
    pub fn defined_functions(&self) -> Vec<FuncId> {
        self.functions()
            .filter(|(_, f)| !f.is_declaration)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of the definitions a merge may take part in — those with at
    /// least one linked instruction — in function order. The one
    /// eligibility rule of the pass and the corpus.
    pub fn merge_eligible(&self) -> Vec<FuncId> {
        self.functions()
            .filter(|(_, f)| !f.is_declaration && f.num_linked_insts() > 0)
            .map(|(id, _)| id)
            .collect()
    }

    /// Total number of linked instructions across all definitions.
    pub fn total_insts(&self) -> usize {
        self.funcs.iter().filter(|f| !f.is_declaration).map(|f| f.num_linked_insts()).sum()
    }

    /// Generates a fresh function name with the given prefix that does not
    /// collide with any existing symbol.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = self.funcs.len();
        loop {
            let candidate = format!("{prefix}.{i}");
            if !self.func_names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

/// Copies `from`'s function `id` for a module whose types are `types`, as
/// a parse of its print there would read it: types are interned into
/// `types` by structure, each function or global it references becomes
/// the one `funcs` or `globals` maps it to (resolved by name by the
/// caller), and the body is numbered in layout order, one constant to a
/// constant operand, without the instructions no block lists. A reference
/// a map leaves unresolved is refused as `unknown symbol @name`, and a
/// body no print describes (a use of an unlinked instruction, a target
/// outside the block order) as malformed.
pub fn import_function(
    from: &Module,
    id: FuncId,
    types: &mut TypeStore,
    funcs: impl Fn(FuncId) -> Option<FuncId>,
    globals: impl Fn(GlobalId) -> Option<GlobalId>,
) -> Result<Function, String> {
    let src = from.function(id);
    let malformed = || format!("@{}: a body no print describes", src.name);
    let unknown = |name: &str| format!("unknown symbol @{name}");
    let mut ty = |t| types.import(&from.types, t);
    let params = src.params.iter().map(|&p| ty(p)).collect();
    let mut f = Function::new(src.name.clone(), params, ty(src.ret_ty));
    (f.linkage, f.is_declaration) = (src.linkage, src.is_declaration);
    let mut block_of = vec![None; src.block_arena_len()];
    src.block_order.iter().for_each(|&bb| block_of[bb.index()] = Some(f.add_block()));
    let mut inst_of = vec![None; src.num_insts()];
    for (n, (i, _)) in src.linked_insts().enumerate() {
        inst_of[i.index()] = Some(ValueId::inst(InstId::from_index(n)));
    }
    let mut ops = Vec::new();
    for (&bb, at) in src.block_order.iter().zip(f.block_order.clone()) {
        for (_, inst) in src.block_insts(bb) {
            ops.clear();
            for &v in inst.operands {
                let value = src.value(v);
                ops.push(match value.kind {
                    Arg(_) => v,
                    Inst(def) => inst_of[def.index()].ok_or_else(malformed)?,
                    FuncRef(g) => f.func_ref(funcs(g).ok_or_else(|| unknown(&from.function(g).name))?),
                    GlobalRef(g) => f.global_ref(globals(g).ok_or_else(|| unknown(&from.global(g).name))?),
                    _ => f.push_const(Value { ty: ty(value.ty), ..value }),
                });
            }
            let targets = inst.blocks.iter().map(|b| block_of[b.index()].ok_or_else(malformed));
            let blocks = &targets.collect::<Result<Vec<_>, _>>()?;
            let (ty, aux_ty) = (ty(inst.ty), inst.aux_ty.map(&mut ty));
            f.append_inst(at, Instruction { ty, aux_ty, operands: &ops, blocks, ..inst });
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new("m");
        let i32t = m.types.int(32);
        let id = m.add_function(Function::new("f", vec![i32t], i32t));
        assert_eq!(m.lookup_function("f"), Some(id));
        assert_eq!(m.lookup_function("g"), None);
        assert_eq!(m.num_functions(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_panics() {
        let mut m = Module::new("m");
        let v = m.types.void();
        m.add_function(Function::new("f", vec![], v));
        m.add_function(Function::new("f", vec![], v));
    }

    #[test]
    fn globals_round_trip() {
        let mut m = Module::new("m");
        let i64t = m.types.int(64);
        let g = m.add_global(Global { name: "g0".into(), ty: i64t, init: vec![1, 0, 0, 0, 0, 0, 0, 0] });
        assert_eq!(m.global(g).name, "g0");
        assert_eq!(m.lookup_global("g0"), Some(g));
        assert_eq!(m.num_globals(), 1);
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut m = Module::new("m");
        let v = m.types.void();
        m.add_function(Function::new("merged.0", vec![], v));
        let name = m.fresh_name("merged");
        assert_ne!(name, "merged.0");
        assert!(m.lookup_function(&name).is_none());
    }

    #[test]
    fn rename_function_updates_registry() {
        let mut m = Module::new("m");
        let v = m.types.void();
        let id = m.add_function(Function::new("f", vec![], v));
        m.rename_function(id, "ns.f");
        assert_eq!(m.function(id).name, "ns.f");
        assert_eq!(m.lookup_function("ns.f"), Some(id));
        assert_eq!(m.lookup_function("f"), None);
        // Renaming to the current name is a no-op.
        m.rename_function(id, "ns.f");
        assert_eq!(m.lookup_function("ns.f"), Some(id));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn rename_to_taken_name_panics() {
        let mut m = Module::new("m");
        let v = m.types.void();
        let id = m.add_function(Function::new("f", vec![], v));
        m.add_function(Function::new("g", vec![], v));
        m.rename_function(id, "g");
    }

    /// The destination of the imports below: `@f`, called by `@caller`,
    /// and a global.
    const DEST: &str = "module \"t\" {\nglobal @g : i64 = [1]\n\
        define @f(i32 %0) -> i32 {\nbb0:\n  ret i32 %0\n}\n\
        define @caller(i32 %0) -> i32 {\nbb0:\n  %1 = call i32 @f(i32 %0)\n  ret i32 %1\n}\n}\n";

    /// `from`'s `@f` imported for `to`, its symbols resolved among `to`'s
    /// by name, with the store it lives in.
    fn import_f(from: &Module, to: &Module) -> Result<(Function, TypeStore), String> {
        let mut types = to.types.clone();
        let id = from.lookup_function("f").unwrap();
        let f = import_function(
            from,
            id,
            &mut types,
            |g| to.lookup_function(&from.function(g).name),
            |g| to.lookup_global(&from.global(g).name),
        )?;
        Ok((f, types))
    }

    /// An import interns the types new to the destination, and only
    /// those, in a store where every old id keeps its type; installed,
    /// the function verifies and prints as it did in its own module.
    /// A new signature is then checked at every call; a reference to a
    /// symbol the destination lacks is refused by name.
    #[test]
    fn import_reinterns_types_and_resolves_symbols_by_name() {
        use crate::parser::parse_module;
        use crate::printer::{print_function, print_module};
        use crate::verify::{verify_module, verify_replacement};
        let dest = parse_module(DEST).unwrap();
        let fid = dest.lookup_function("f").unwrap();
        let body = "define internal @f(i32 %0) -> i32 {\nbb0:\n  %1 = alloca [4 x i64]\n  \
                    %2 = load i64, @g\n  store i64 %2, %1\n  %3 = call i32 @f(i32 %0)\n  ret i32 %3\n}\n";
        // The source interns other types first, so its ids differ.
        let src = parse_module(&format!(
            "module \"s\" {{\ndeclare @h(f32, {{ i8, i16 }}) -> void\nglobal @g : i64 = [1]\n{body}}}\n"
        ))
        .unwrap();
        let (f, types) = import_f(&src, &dest).unwrap();
        assert_eq!(types.len(), dest.types.len() + 1, "the store grew by `[4 x i64]` alone");
        let (g, old) = (dest.global(GlobalId::from_index(0)), dest.function(fid));
        for t in old.params.iter().copied().chain([old.ret_ty, g.ty, TypeId::VOID, TypeId::PTR]) {
            assert_eq!(types.kind(t), dest.types.kind(t), "{t:?}");
        }
        let mut spliced = dest.clone();
        spliced.types = types;
        spliced.replace_function(fid, f);
        assert!(verify_module(&spliced).is_ok());
        let printed = print_function(&src, src.lookup_function("f").unwrap());
        assert_eq!(print_function(&spliced, fid), printed);
        assert!(print_module(&spliced).contains("@caller"));

        let resigned = "module \"s\" {\ndefine @f(i64 %0) -> i64 {\nbb0:\n  ret i64 %0\n}\n}\n";
        let (f, types) = import_f(&parse_module(resigned).unwrap(), &dest).unwrap();
        let err = verify_replacement(&dest, &types, fid, &f).unwrap_err()[0].to_string();
        assert!(err.contains("caller/") && err.contains("signature mismatch"), "{err}");

        let body = body.replace("@g", "@k");
        let dangling = parse_module(&format!("module \"s\" {{\nglobal @k : i64 = [1]\n{body}}}\n")).unwrap();
        assert_eq!(import_f(&dangling, &dest).unwrap_err(), "unknown symbol @k");
    }

    /// An import numbers a body as a parse of its print does, also when
    /// the body's ids are not in layout order.
    #[test]
    fn import_numbers_a_body_in_layout_order() {
        use crate::parser::parse_module;
        use crate::printer::print_module;
        let mut m = parse_module(
            "module \"t\" {\ndefine @f(i1 %0) -> i32 {\nbb0:\n  condbr %0, bb1, bb2\nbb1:\n  br bb3\n\
             bb2:\n  br bb3\nbb3:\n  %1 = phi i32 [ 1, bb1 ], [ 2, bb2 ]\n  ret i32 %1\n}\n}\n",
        )
        .unwrap();
        let id = m.lookup_function("f").unwrap();
        m.function_mut(id).block_order.swap(1, 3);
        let mut to = Module::new("t");
        let f = import_function(&m, id, &mut to.types, Some, |_| None).unwrap();
        to.add_function(f);
        let printed = print_module(&m);
        assert!(printed.contains("bb0:\n  condbr %0, bb1, bb2\nbb3:"), "{printed}");
        assert_eq!(print_module(&to), print_module(&parse_module(&printed).unwrap()));
    }

    #[test]
    fn defined_functions_excludes_declarations() {
        let mut m = Module::new("m");
        let v = m.types.void();
        m.add_function(Function::new_declaration("ext", vec![], v));
        let d = m.add_function(Function::new("def", vec![], v));
        assert_eq!(m.defined_functions(), vec![d]);
    }
}
