//! Modules: the unit the merging pass operates on.

use std::collections::HashMap;

use crate::ids::{FuncId, GlobalId};
use crate::function::Function;
use crate::types::{TypeId, TypeStore};

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

    #[test]
    fn defined_functions_excludes_declarations() {
        let mut m = Module::new("m");
        let v = m.types.void();
        m.add_function(Function::new_declaration("ext", vec![], v));
        let d = m.add_function(Function::new("def", vec![], v));
        assert_eq!(m.defined_functions(), vec![d]);
    }
}
