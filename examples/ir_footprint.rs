//! Where a module's memory goes, layer by layer: instruction structs,
//! their operand and target lists (in place, or spilled to the heap),
//! constants (the only values stored: an argument is its position and a
//! result its instruction), blocks, and function metadata (the struct,
//! the name and the parameter list, a row each). Bytes are counted from `size_of` and
//! element counts alone (no allocator hook), so they leave out malloc's
//! per-chunk overhead; the heap allocations each layer makes are counted
//! beside its bytes for that reason. Last, the `VmRSS` one
//! more clone of the module adds, read from `/proc/self/status`.
//!
//! It runs on the two pass inputs of the performance ledger: the eleven
//! small Table I programs, and one `linux-scale` module of 10 000
//! functions.
//!
//! Run with: `cargo run --release -p f3m --example ir_footprint`

use std::mem::size_of;

use f3m::ir::function::Block;
use f3m::prelude::*;
use f3m::workloads::suite::SizeClass;

/// Bytes and heap allocations of one layer.
#[derive(Clone, Copy, Default)]
struct Layer {
    bytes: usize,
    allocs: usize,
}

impl Layer {
    fn add(&mut self, bytes: usize, allocs: usize) {
        self.bytes += bytes;
        self.allocs += allocs;
    }
}

/// A heap buffer of `n` elements of `T`: its bytes, and one allocation
/// unless it is empty.
fn buffer<T>(n: usize) -> (usize, usize) {
    (n * size_of::<T>(), usize::from(n > 0))
}

/// Lists of one kind: how many, how many spilled, and spilled lists that
/// would have fit in place (there should be none).
#[derive(Default)]
struct Lists {
    total: usize,
    spilled: usize,
    spilled_short: usize,
    spill: Layer,
}

impl Lists {
    /// Counts one list of `len` ids, of which `in_place` fit inline.
    fn count(&mut self, len: usize, in_place: usize, spilled: bool, heap_bytes: usize) {
        self.total += 1;
        if spilled {
            self.spilled += 1;
            self.spilled_short += usize::from(len <= in_place);
            // The box and the buffer it points to.
            self.spill.add(heap_bytes, 2);
        }
    }
}

#[derive(Default)]
struct Footprint {
    functions: usize,
    insts: Layer,
    operands: Lists,
    targets: Lists,
    constants: Layer,
    blocks: Layer,
    structs: Layer,
    names: Layer,
    params: Layer,
    inst_count: usize,
    constant_count: usize,
}

impl Footprint {
    fn of(modules: &[Module]) -> Footprint {
        let mut fp = Footprint::default();
        for m in modules {
            for (_, f) in m.functions() {
                fp.function(f);
            }
        }
        fp
    }

    fn function(&mut self, f: &Function) {
        self.functions += 1;
        self.inst_count += f.num_insts();
        self.constant_count += f.num_constants();
        let (bytes, allocs) = buffer::<Instruction>(f.num_insts());
        self.insts.add(bytes, allocs);
        for i in 0..f.num_insts() {
            let inst = f.inst(InstId::from_index(i));
            let (ops, targets) = (&inst.operands, &inst.blocks);
            self.operands
                .count(ops.len(), 3, ops.is_spilled(), ops.heap_bytes());
            self.targets
                .count(targets.len(), 2, targets.is_spilled(), targets.heap_bytes());
        }
        let (bytes, allocs) = buffer::<Value>(f.num_constants());
        self.constants.add(bytes, allocs);

        // Blocks: the arena, the order, and each block's list.
        let (bytes, allocs) = buffer::<Block>(f.block_arena_len());
        self.blocks.add(bytes, allocs);
        let (bytes, allocs) = buffer::<BlockId>(f.block_order.len());
        self.blocks.add(bytes, allocs);
        for b in 0..f.block_arena_len() {
            let block = f.block(BlockId::from_index(b));
            let (bytes, allocs) = buffer::<InstId>(block.insts.len());
            self.blocks.add(bytes, allocs);
        }

        // Metadata: the struct, the name and the parameters.
        self.structs.add(size_of::<Function>(), 0);
        let (bytes, allocs) = buffer::<u8>(f.name.len());
        self.names.add(bytes, allocs);
        let (bytes, allocs) = buffer::<TypeId>(f.params.len());
        self.params.add(bytes, allocs);
    }

    fn print(&self, name: &str) {
        let mb = |b: usize| b as f64 / 1e6;
        let lists = |what: &str, l: &Lists| {
            println!(
                "  {what:<22}  {:>8.2} MB  {:>7} allocs  ({} lists, {} spilled, {} of them \
                 short enough to fit in place)",
                mb(l.spill.bytes),
                l.spill.allocs,
                l.total,
                l.spilled,
                l.spilled_short
            );
        };
        println!(
            "{name}: {} functions, {} instructions, {} constants",
            self.functions, self.inst_count, self.constant_count
        );
        println!(
            "  instruction structs     {:>8.2} MB  {:>7} allocs  ({} B each, {} B of it the lists)",
            mb(self.insts.bytes),
            self.insts.allocs,
            size_of::<Instruction>(),
            size_of::<Operands>() + size_of::<Targets>()
        );
        lists("spilled operand lists", &self.operands);
        lists("spilled target lists", &self.targets);
        let rows = [
            ("constants", self.constants),
            ("blocks", self.blocks),
            ("function structs", self.structs),
            ("function names", self.names),
            ("parameter lists", self.params),
        ];
        for (what, layer) in rows {
            println!(
                "  {what:<22}  {:>8.2} MB  {:>7} allocs",
                mb(layer.bytes),
                layer.allocs
            );
        }
        let total = self.insts.bytes
            + self.operands.spill.bytes
            + self.targets.spill.bytes
            + rows.iter().map(|(_, l)| l.bytes).sum::<usize>();
        let allocs = self.insts.allocs
            + self.operands.spill.allocs
            + self.targets.spill.allocs
            + rows.iter().map(|(_, l)| l.allocs).sum::<usize>();
        println!(
            "  total                   {:>8.2} MB  {:>7} allocs  ({:.0} B a function)",
            mb(total),
            allocs,
            total as f64 / self.functions as f64
        );
    }
}

/// This process's resident set, in bytes, from `/proc/self/status`
/// (`None` where there is no such file).
fn vm_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The `VmRSS` one more clone of `modules` adds, in MB. A first clone
/// is made and kept before the one measured, so the memory that building
/// the modules freed is taken up before the measurement starts.
fn clone_rss_mb(modules: &[Module]) -> Option<f64> {
    let first = std::hint::black_box(modules.to_vec());
    let before = vm_rss()?;
    let second = std::hint::black_box(modules.to_vec());
    let after = vm_rss()?;
    drop((first, second));
    Some(after.saturating_sub(before) as f64 / 1e6)
}

fn main() {
    let specs = table1();
    let small: Vec<Module> = specs
        .iter()
        .filter(|s| s.class == SizeClass::Small)
        .map(build_module)
        .collect();
    let mut linux = specs
        .into_iter()
        .find(|s| s.name == "linux-scale")
        .expect("Table I row");
    linux.functions = 10_000;
    let large = vec![build_module(&linux)];

    for (name, modules) in [("small", &small), ("large", &large)] {
        Footprint::of(modules).print(name);
        match clone_rss_mb(modules) {
            Some(mb) => println!("  one more clone adds {mb:.1} MB of VmRSS"),
            None => println!("  one more clone adds: no /proc/self/status here"),
        }
    }
}
