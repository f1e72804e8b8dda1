//! Randomized property tests of the IR substrate.
//!
//! Random programs are built through the public builder API from seeded
//! "recipes", then checked against the core invariants: the verifier
//! accepts them, the printer/parser round-trips them, and the analyses
//! agree with first-principles definitions. Driven by `f3m-prng` (the
//! workspace builds offline, so no proptest — each test sweeps a fixed
//! number of deterministic random cases).

use f3m_ir::builder::FunctionBuilder;
use f3m_ir::cfg::Cfg;
use f3m_ir::dom::DomTree;
use f3m_core::pass::{run_pass, PassConfig};
use f3m_ir::ids::{BlockId, InstId, ValueId};
use f3m_ir::inst::{IntPredicate, Opcode};
use f3m_ir::function::{Block, Function};
use f3m_ir::module::Module;
use f3m_ir::printer::print_module;
use f3m_ir::parser::parse_module;
use f3m_ir::value::{normalize_int, Value, ValueKind};
use f3m_ir::verify::verify_module;
use f3m_prng::SmallRng;

/// One step of a straight-line function recipe.
#[derive(Clone, Debug)]
enum Step {
    Binary(u8, u8, u8),   // opcode selector, lhs pick, rhs pick
    Cmp(u8, u8, u8),      // predicate selector, lhs, rhs
    Const(i64),
    MemRoundTrip(u8, u8), // index, value pick
    Diamond(u8, u8),      // cond picks
}

fn random_step(rng: &mut SmallRng) -> Step {
    let b = |rng: &mut SmallRng| rng.gen_range(0..=255u8);
    match rng.gen_range(0..5u32) {
        0 => Step::Binary(b(rng), b(rng), b(rng)),
        1 => Step::Cmp(b(rng), b(rng), b(rng)),
        2 => Step::Const(rng.next_u64() as i64),
        3 => Step::MemRoundTrip(b(rng), b(rng)),
        _ => Step::Diamond(b(rng), b(rng)),
    }
}

fn random_recipe(rng: &mut SmallRng, max_len: usize) -> Vec<Step> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| random_step(rng)).collect()
}

const BIN_OPS: [Opcode; 9] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::LShr,
    Opcode::AShr,
];

const PREDS: [IntPredicate; 4] =
    [IntPredicate::Slt, IntPredicate::Sgt, IntPredicate::Eq, IntPredicate::Ule];

/// Builds a verifier-clean module from a recipe.
fn build_from_recipe(steps: &[Step]) -> Module {
    let mut m = Module::new("prop");
    let i32t = m.types.int(32);
    let mut f = Function::new("f", vec![i32t, i32t], i32t);
    {
        let mut b = FunctionBuilder::new(&mut m.types, &mut f);
        let entry = b.create_block();
        b.position_at_end(entry);
        let arr_ty = b.types().array(i32t, 4);
        let scratch = b.alloca(arr_ty);
        let mut pool: Vec<ValueId> = vec![b.func().arg(0), b.func().arg(1)];
        let pick = |pool: &[ValueId], sel: u8| pool[sel as usize % pool.len()];
        for step in steps {
            match *step {
                Step::Binary(op, l, r) => {
                    let lhs = pick(&pool, l);
                    let rhs = pick(&pool, r);
                    let v = b.binary(BIN_OPS[op as usize % BIN_OPS.len()], lhs, rhs);
                    pool.push(v);
                }
                Step::Cmp(p, l, r) => {
                    let lhs = pick(&pool, l);
                    let rhs = pick(&pool, r);
                    let c = b.icmp(PREDS[p as usize % PREDS.len()], lhs, rhs);
                    let v = b.select(c, lhs, rhs);
                    pool.push(v);
                }
                Step::Const(x) => {
                    let v = b.const_int(i32t, x);
                    pool.push(v);
                }
                Step::MemRoundTrip(idx, val) => {
                    let iv = b.const_int(i32t, (idx % 4) as i64);
                    let p = b.gep(i32t, scratch, iv);
                    let v = pick(&pool, val);
                    b.store(v, p);
                    let l = b.load(i32t, p);
                    pool.push(l);
                }
                Step::Diamond(c1, c2) => {
                    let x = pick(&pool, c1);
                    let y = pick(&pool, c2);
                    let cond = b.icmp(IntPredicate::Slt, x, y);
                    let then_bb = b.create_block();
                    let else_bb = b.create_block();
                    let join = b.create_block();
                    b.cond_br(cond, then_bb, else_bb);
                    b.position_at_end(then_bb);
                    let tv = b.add(x, y);
                    b.br(join);
                    b.position_at_end(else_bb);
                    let ev = b.sub(x, y);
                    b.br(join);
                    b.position_at_end(join);
                    let phi = b.phi(i32t, &[(tv, then_bb), (ev, else_bb)]);
                    pool.push(phi);
                }
            }
        }
        let ret = *pool.last().expect("non-empty pool");
        b.ret(Some(ret));
    }
    m.add_function(f);
    m
}

#[test]
fn built_modules_always_verify() {
    let mut rng = SmallRng::seed_from_u64(10);
    for _ in 0..64 {
        let steps = random_recipe(&mut rng, 40);
        let m = build_from_recipe(&steps);
        assert!(verify_module(&m).is_ok(), "{steps:?}");
    }
}

#[test]
fn print_parse_print_is_a_fixpoint() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..64 {
        let steps = random_recipe(&mut rng, 40);
        let m = build_from_recipe(&steps);
        let p1 = print_module(&m);
        let m2 = parse_module(&p1).expect("reparse");
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
    }
}

#[test]
fn reparsed_module_has_same_shape() {
    let mut rng = SmallRng::seed_from_u64(12);
    for _ in 0..64 {
        let steps = random_recipe(&mut rng, 40);
        let m = build_from_recipe(&steps);
        let m2 = parse_module(&print_module(&m)).unwrap();
        let f1 = m.function(m.lookup_function("f").unwrap());
        let f2 = m2.function(m2.lookup_function("f").unwrap());
        assert_eq!(f1.num_blocks(), f2.num_blocks());
        assert_eq!(f1.num_linked_insts(), f2.num_linked_insts());
        assert_eq!(
            f3m_ir::size::function_size(f1),
            f3m_ir::size::function_size(f2),
            "size model stable across round trip"
        );
    }
}

/// A parsed text with a declaration, a function with no arguments and an
/// internal one with three.
const THREE_FUNCTIONS: &str = r#"
module "t" {
declare @ext(i64, f64, ptr) -> void
define @none() -> void {
bb0:
  ret
}
define internal @three(i32 %0, i64 %1, f64 %2) -> i64 {
entry:
  %3 = add i64 %1, 7
  br exit
exit:
  ret i64 %3
}
}
"#;

/// Modules of every kind of function the value model must hold for:
/// parsed ones, recipe-built ones and their reparse, and 429.mcf after a
/// pass under each strategy — its merged functions, and the thunks left
/// in place of the originals they absorbed.
fn functions_of_every_kind() -> Vec<Module> {
    let mut out = vec![parse_module(THREE_FUNCTIONS).unwrap()];
    let mut rng = SmallRng::seed_from_u64(13);
    for _ in 0..16 {
        let m = build_from_recipe(&random_recipe(&mut rng, 20));
        out.push(parse_module(&print_module(&m)).unwrap());
        out.push(m);
    }
    let spec = f3m_workloads::table1().into_iter().find(|s| s.name == "429.mcf").unwrap();
    let generated = f3m_workloads::build_module(&spec);
    out.push(parse_module(&print_module(&generated)).unwrap());
    let (mut merged, mut thunks) = (0, 0);
    for strategy in PassConfig::STRATEGY_NAMES {
        let mut m = generated.clone();
        run_pass(&mut m, &PassConfig::from_strategy_name(strategy).unwrap());
        let is_merged = |f: &Function| f.name.starts_with("__merged");
        let calls_merged = |f: &Function| {
            f.constants().any(|(_, v)| match v.kind {
                ValueKind::FuncRef(g) => is_merged(m.function(g)),
                _ => false,
            })
        };
        merged += m.functions().filter(|(_, f)| is_merged(f)).count();
        thunks += m.functions().filter(|(_, f)| !is_merged(f) && calls_merged(f)).count();
        out.push(m);
    }
    assert!(merged > 0 && thunks > 0, "429.mcf merges: {merged} merged, {thunks} thunks");
    out
}

/// Argument `i` is the value of kind `Arg(i)` with the `i`-th parameter's
/// type, and no other argument's id.
fn assert_args_by_position(f: &Function) {
    assert_eq!(f.num_args(), f.params.len(), "@{}", f.name);
    for i in 0..f.num_args() {
        let want = Value { kind: ValueKind::Arg(i as u32), ty: f.params[i] };
        assert_eq!(f.value(f.arg(i)), want, "@{} arg {i}", f.name);
        assert!((0..i).all(|j| f.arg(j) != f.arg(i)), "@{} arg {i}", f.name);
    }
}

#[test]
fn blocks_are_their_lists_and_arguments_their_positions() {
    // A block is a borrowed view of its list and nothing else: no label.
    assert_eq!(std::mem::size_of::<Block>(), std::mem::size_of::<&[InstId]>());
    for m in functions_of_every_kind() {
        m.functions().for_each(|(_, f)| assert_args_by_position(f));
    }
}

/// A result is its instruction: exactly the instructions of a first-class
/// type other than stores have one, it is the value of kind `Inst(i)`
/// with the instruction's type, and every operand naming an instruction
/// names one that has a result.
#[test]
fn results_are_their_instructions() {
    for m in functions_of_every_kind() {
        for (_, f) in m.functions() {
            for i in (0..f.num_insts()).map(InstId::from_index) {
                let inst = f.inst(i);
                let valued = m.types.is_first_class(inst.ty) && inst.op != Opcode::Store;
                assert_eq!(f.result(i).is_some(), valued, "@{} {i:?}", f.name);
                if let Some(r) = f.result(i) {
                    let want = Value { kind: ValueKind::Inst(i), ty: inst.ty };
                    assert_eq!(f.value(r), want, "@{} {i:?}", f.name);
                }
            }
            for &op in f.linked_insts().flat_map(|(_, inst)| inst.operands.iter()) {
                if let ValueKind::Inst(def) = f.value(op).kind {
                    assert_eq!(f.result(def), Some(op), "@{} {op:?}", f.name);
                }
            }
        }
    }
}

/// A parser writes each list once, straight into its pool: a parsed
/// module's pools hold the lists of its instructions and blocks and no
/// dead cell, so a clone (which compacts) is no smaller.
#[test]
fn parsed_pools_hold_no_dead_cells() {
    for m in functions_of_every_kind() {
        let m = parse_module(&print_module(&m)).unwrap();
        for (_, f) in m.functions() {
            let targets: usize =
                (0..f.num_insts()).map(|i| f.inst(InstId::from_index(i)).blocks.len()).sum();
            let insts: usize =
                (0..f.block_arena_len()).map(|b| f.block(BlockId::from_index(b)).insts.len()).sum();
            let [operands, ..] = f.live_cells();
            assert_eq!(f.pool_lens(), [operands, targets, insts], "@{}", f.name);
            assert_eq!(f.clone().pool_lens(), f.pool_lens(), "@{}", f.name);
        }
    }
}

/// Each constant an operand names is a value of its own: a parsed
/// function holds exactly as many constants as its linked instructions
/// have constant operand slots, however often one constant repeats. The
/// arena of every kind of function holds nothing but constants, and each
/// integer constant is normalized to its type's width, so codegen
/// compares two by `==`.
#[test]
fn constants_are_operands() {
    let spec = f3m_workloads::table1().into_iter().find(|s| s.name == "429.mcf").unwrap();
    let m = parse_module(&print_module(&f3m_workloads::build_module(&spec))).unwrap();
    let mut total = 0;
    for (_, f) in m.functions().filter(|(_, f)| !f.is_declaration) {
        let slots = f
            .linked_insts()
            .flat_map(|(_, inst)| inst.operands.iter())
            .filter(|&&v| f.value(v).is_constant_like())
            .count();
        assert_eq!(f.num_constants(), slots, "@{}", f.name);
        total += slots;
    }
    assert!(total > 0, "429.mcf names constants");
    for m in functions_of_every_kind() {
        for (_, f) in m.functions() {
            for (id, v) in f.constants() {
                assert!(v.is_constant_like(), "@{} {id:?}", f.name);
                if let (ValueKind::ConstInt(x), Some(bits)) = (v.kind, m.types.int_bits(v.ty)) {
                    assert_eq!(normalize_int(x, bits), x, "@{} {id:?}", f.name);
                }
            }
        }
    }
}

#[test]
fn dominator_tree_matches_first_principles() {
    // First-principles dominance: A dominates B iff removing A from
    // the graph disconnects B from the entry. An instruction dominates a
    // use in another block when its block dominates the use's, one later
    // in its own block when it comes first, and a phi use when its block
    // dominates the end of the incoming block.
    let mut rng = SmallRng::seed_from_u64(13);
    for _ in 0..48 {
        let steps = random_recipe(&mut rng, 25);
        let m = build_from_recipe(&steps);
        let f = m.function(m.lookup_function("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let blocks: Vec<_> =
            f.block_order.iter().copied().filter(|&b| cfg.is_reachable(b)).collect();
        let mut dominates = std::collections::HashMap::new();
        for &a in &blocks {
            for &b in &blocks {
                // BFS from entry avoiding `a`.
                let mut reach = std::collections::HashSet::new();
                let mut queue = std::collections::VecDeque::new();
                if f.entry() != a {
                    queue.push_back(f.entry());
                    reach.insert(f.entry());
                }
                while let Some(x) = queue.pop_front() {
                    for &s in cfg.succs(x) {
                        if s != a && reach.insert(s) {
                            queue.push_back(s);
                        }
                    }
                }
                let expected = a == b || !reach.contains(&b);
                assert_eq!(dt.dominates(a, b), expected, "dominates({a:?}, {b:?})");
                dominates.insert((a, b), expected);
            }
        }
        let placed = f.placement().unwrap();
        let mut linked = Vec::new();
        for &bb in &f.block_order {
            for (pos, &i) in f.block(bb).insts.iter().enumerate() {
                assert_eq!(placed.of(i), Some((bb, pos)), "{i:?}");
                if cfg.is_reachable(bb) {
                    linked.push((i, bb, pos));
                }
            }
        }
        for &(def, db, dpos) in &linked {
            for &(user, ub, upos) in &linked {
                let expected = if db == ub { dpos < upos } else { dominates[&(db, ub)] };
                let found = dt.dominates_inst(&placed, def, user);
                assert_eq!(found, expected, "{def:?} before {user:?}");
            }
            for &incoming in &blocks {
                let expected = dominates[&(db, incoming)];
                let found = dt.dominates_phi_use(&placed, def, incoming);
                assert_eq!(found, expected, "{def:?} at {incoming:?}");
            }
        }
    }
}

#[test]
fn normalize_int_is_idempotent_and_bounded() {
    let mut rng = SmallRng::seed_from_u64(14);
    for _ in 0..512 {
        let x = rng.next_u64() as i64;
        let bits = rng.gen_range(1..=64u32);
        let once = normalize_int(x, bits);
        assert_eq!(normalize_int(once, bits), once, "idempotent");
        if bits < 64 {
            let bound = 1i64 << (bits - 1);
            assert!(once >= -bound && once < bound, "{once} not in i{bits} range");
        }
    }
}

#[test]
fn rpo_is_a_valid_topological_like_order() {
    // Every block except the entry has at least one predecessor that
    // appears earlier in RPO (true for reducible graphs, which the
    // builder produces).
    let mut rng = SmallRng::seed_from_u64(15);
    for _ in 0..64 {
        let steps = random_recipe(&mut rng, 25);
        let m = build_from_recipe(&steps);
        let f = m.function(m.lookup_function("f").unwrap());
        let cfg = Cfg::compute(f);
        for &bb in cfg.rpo.iter().skip(1) {
            let my_idx = cfg.rpo_index(bb).unwrap();
            let has_earlier_pred = cfg
                .preds(bb)
                .iter()
                .any(|&p| cfg.rpo_index(p).is_some_and(|pi| pi < my_idx));
            assert!(has_earlier_pred, "{bb:?} has no earlier pred in RPO");
        }
    }
}

#[test]
fn interpreter_agrees_across_round_trip() {
    let mut rng = SmallRng::seed_from_u64(16);
    for _ in 0..48 {
        let steps = random_recipe(&mut rng, 30);
        let a = rng.gen_range(-100..100i64);
        let b = rng.gen_range(-100..100i64);
        // The parsed-back module must behave identically (uses the
        // interpreter crate through the dev-dependency).
        let m = build_from_recipe(&steps);
        let m2 = parse_module(&print_module(&m)).unwrap();
        let run = |m: &Module| {
            let mut i = f3m_interp::Interpreter::with_limits(
                m,
                f3m_interp::Limits { fuel: 100_000, memory: 1 << 16, max_depth: 8 },
            );
            i.call_by_name("f", &[f3m_interp::Val::Int(a), f3m_interp::Val::Int(b)])
                .map(|o| o.ret)
        };
        assert_eq!(run(&m), run(&m2));
    }
}
