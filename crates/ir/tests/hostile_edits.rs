//! The verifier and the parser accept the same modules. A seeded mutator
//! makes the edits the `Function` API allows — unlink, insert, move within
//! and across blocks, list an instruction twice, point an operand at any
//! value, retype, drop or duplicate a terminator — and each edited module
//! must verify exactly when its printed text parses, and an accepted text
//! must print again as it was.
//!
//! Three edits make states the text cannot carry, and the mutator leaves
//! them out: a new type for an instruction the text writes without one
//! (a terminator, a store, an `alloca` or `gep`, or a compare, whose
//! operands' type it writes), which the verifier refuses; a constant
//! operand typed other than the value it replaces, or a new type for an
//! instruction whose operands are all constants (the text types a
//! constant by its use); and a second listing of an instruction without a
//! result, which reads back as a second, equal instruction.
//!
//! The debug build runs a tier-1-sized sweep; the release build runs ten
//! times the seeds.

use f3m_ir::function::Function;
use f3m_ir::ids::{BlockId, FuncId, InstId, ValueId};
use f3m_ir::inst::{Instruction, Opcode};
use f3m_ir::module::Module;
use f3m_ir::parser::parse_module;
use f3m_ir::printer::print_module;
use f3m_ir::types::TypeId;
use f3m_ir::verify::verify_module;
use f3m_prng::SmallRng;

/// One edit, as a failure names it.
#[derive(Clone, Copy, Debug)]
enum Edit {
    Unlink,
    Insert,
    Move,
    ListTwice,
    Repoint,
    Retype,
    DropTerminator,
    DuplicateTerminator,
}

const EDITS: [Edit; 8] = [
    Edit::Unlink,
    Edit::Insert,
    Edit::Move,
    Edit::ListTwice,
    Edit::Repoint,
    Edit::Retype,
    Edit::DropTerminator,
    Edit::DuplicateTerminator,
];

/// A random linked instruction of `f`, with its block.
fn linked(rng: &mut SmallRng, f: &Function) -> Option<(BlockId, InstId)> {
    let blocks: Vec<BlockId> =
        f.block_order.iter().copied().filter(|&bb| !f.block(bb).insts.is_empty()).collect();
    let bb = *blocks.get(rng.gen_range(0..blocks.len().max(1)))?;
    let pos = rng.gen_range(0..f.block(bb).insts.len());
    Some((bb, f.block(bb).insts[pos]))
}

/// A random block of `f`'s order and a position in it (its end included).
fn place(rng: &mut SmallRng, f: &Function) -> (BlockId, usize) {
    let bb = f.block_order[rng.gen_range(0..f.block_order.len())];
    (bb, rng.gen_range(0..=f.block(bb).insts.len()))
}

/// A new instruction with the fields and lists of `id`.
fn copy_of(f: &mut Function, bb: BlockId, pos: usize, id: InstId) {
    let inst = f.inst(id);
    let (ops, bbs) = (inst.operands.to_vec(), inst.blocks.to_vec());
    let copy = Instruction { operands: &ops, blocks: &bbs, ..inst };
    f.insert_inst(bb, pos, copy);
}

/// Any value `f` can name: an argument, a result (of a linked instruction
/// or not) or one of its constants.
fn any_value(rng: &mut SmallRng, f: &Function) -> Option<ValueId> {
    let mut values: Vec<ValueId> = (0..f.num_args()).map(|i| f.arg(i)).collect();
    values.extend((0..f.num_insts()).filter_map(|i| f.result(InstId::from_index(i))));
    values.extend(f.constants().map(|(id, _)| id));
    values.get(rng.gen_range(0..values.len().max(1))).copied()
}

/// Applies `edit` to `f`; `types` are what a retype may pick. Returns
/// whether anything changed.
fn apply(rng: &mut SmallRng, f: &mut Function, edit: Edit, types: &[TypeId]) -> bool {
    let Some((bb, id)) = linked(rng, f) else { return false };
    match edit {
        Edit::Unlink => f.unlink_inst(bb, id),
        Edit::Insert => {
            let (to, at) = place(rng, f);
            let proto = InstId::from_index(rng.gen_range(0..f.num_insts()));
            copy_of(f, to, at, proto);
        }
        Edit::Move => {
            f.unlink_inst(bb, id);
            let (to, at) = place(rng, f);
            f.block_mut(to).insts.insert(at, id);
        }
        Edit::ListTwice => {
            if f.result(id).is_none() {
                return false;
            }
            let (to, at) = place(rng, f);
            f.block_mut(to).insts.insert(at, id);
        }
        Edit::Repoint => {
            let n = f.inst(id).operands.len();
            let Some(v) = any_value(rng, f) else { return false };
            if n == 0 {
                return false;
            }
            let k = rng.gen_range(0..n);
            let old = f.value(f.inst(id).operands[k]);
            if f.value(v).is_constant_like() && f.value(v).ty != old.ty {
                return false;
            }
            f.operands_mut(id)[k] = v;
        }
        Edit::Retype => {
            use Opcode::*;
            let inst = f.inst(id);
            let constants = inst.operands.iter().all(|&v| f.value(v).is_constant_like());
            let implied =
                matches!(inst.op, ICmp | FCmp | Ret | Br | CondBr | Unreachable | Store | Alloca | Gep);
            if implied || (constants && !inst.operands.is_empty()) {
                return false;
            }
            f.set_ty(id, types[rng.gen_range(0..types.len())]);
        }
        Edit::DropTerminator | Edit::DuplicateTerminator => {
            let Some((term, _)) = f.terminator(bb) else { return false };
            if matches!(edit, Edit::DropTerminator) {
                f.unlink_inst(bb, term);
            } else {
                let at = rng.gen_range(0..=f.block(bb).insts.len());
                copy_of(f, bb, at, term);
            }
        }
    }
    true
}

/// The modules the edits start from: generated programs, printed and
/// parsed, so every one is a module this crate's parser made.
fn bases() -> Vec<Module> {
    ["429.mcf", "462.libquantum"]
        .iter()
        .map(|name| {
            let spec = f3m_workloads::table1().into_iter().find(|s| s.name == *name).unwrap();
            parse_module(&print_module(&f3m_workloads::build_module(&spec))).unwrap()
        })
        .collect()
}

/// `m` verifies exactly when its text parses, and a text that parses
/// prints again as it was.
fn agree(m: &Module, what: &str) {
    let verified = verify_module(m);
    let text = print_module(m);
    let reparsed = parse_module(&text);
    assert_eq!(
        verified.is_ok(),
        reparsed.is_ok(),
        "{what}: verify says {:?}, parse says {:?}",
        verified.err().map(|e| e[0].to_string()),
        reparsed.as_ref().err()
    );
    if let Ok(r) = reparsed {
        assert_eq!(print_module(&r), text, "{what}: the reparse prints differently");
    }
}

#[test]
fn verifier_and_parser_accept_the_same_edited_modules() {
    let seeds = if cfg!(debug_assertions) { 100 } else { 2_000 };
    for mut base in bases() {
        let types = {
            let t = &mut base.types;
            [t.void(), t.bool(), t.int(32), t.int(64), t.f64(), t.ptr()]
        };
        let defined: Vec<FuncId> =
            base.functions().filter(|(_, f)| !f.is_declaration).map(|(id, _)| id).collect();
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = base.clone();
            let fid = defined[rng.gen_range(0..defined.len())];
            let mut done = Vec::new();
            for _ in 0..rng.gen_range(1..=2usize) {
                let edit = EDITS[rng.gen_range(0..EDITS.len())];
                if apply(&mut rng, m.function_mut(fid), edit, &types) {
                    done.push(edit);
                }
            }
            let what = format!("{} seed {seed}: @{} {done:?}", m.name, m.function(fid).name);
            agree(&m, &what);
        }
    }
}
