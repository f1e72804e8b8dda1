//! # f3m-ir — SSA intermediate representation substrate
//!
//! A compact, LLVM-flavoured SSA IR built for the [F3M function-merging
//! reproduction](https://github.com/f3m-rs/f3m). It provides exactly what
//! the merging pipeline needs:
//!
//! - a [type interner](types::TypeStore) and ~45 [opcodes](inst::Opcode)
//!   mirroring the LLVM instructions used by the paper's workloads,
//! - [functions](function::Function) with explicit basic blocks and
//!   phi-nodes, owned by a [module](module::Module),
//! - an [IR builder](builder::FunctionBuilder),
//! - a [textual printer](printer) and a [`parser`] that round-trip,
//! - [CFG](cfg::Cfg) and [dominator-tree](dom::DomTree) analyses,
//! - a strict [verifier](verify) (structure, types, SSA dominance),
//! - a [code-size model](size) standing in for object-file sizes.
//!
//! # Examples
//!
//! ```
//! use f3m_ir::prelude::*;
//!
//! let mut m = Module::new("demo");
//! let i32t = m.types.int(32);
//! let mut f = Function::new("square", vec![i32t], i32t);
//! {
//!     let mut b = FunctionBuilder::new(&mut m.types, &mut f);
//!     let entry = b.create_block();
//!     b.position_at_end(entry);
//!     let x = b.func().arg(0);
//!     let sq = b.mul(x, x);
//!     b.ret(Some(sq));
//! }
//! m.add_function(f);
//! f3m_ir::verify::verify_module(&m).unwrap();
//! let text = f3m_ir::printer::print_module(&m);
//! let reparsed = f3m_ir::parser::parse_module(&text).unwrap();
//! assert_eq!(reparsed.num_functions(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod ids;
pub mod inst;
pub mod function;
pub mod module;
pub mod parser;
pub mod printer;
pub mod size;
pub mod types;
pub mod value;
pub mod verify;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::builder::FunctionBuilder;
    pub use crate::cfg::Cfg;
    pub use crate::dom::DomTree;
    pub use crate::ids::{BlockId, FuncId, GlobalId, InstId, ValueId};
    pub use crate::inst::{FloatPredicate, Instruction, IntPredicate, Opcode, Predicate};
    pub use crate::function::{Function, Linkage};
    pub use crate::module::{Global, Module};
    pub use crate::types::{TypeId, TypeKind, TypeStore};
    pub use crate::value::{Value, ValueKind};
}
