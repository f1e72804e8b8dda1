//! Where a module's memory goes, layer by layer: the instruction arena,
//! the two id pools that hold every instruction's operand and target lists
//! (live cells, and dead ones that lists which grew left behind),
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

#[derive(Default)]
struct Footprint {
    functions: usize,
    insts: Layer,
    pools: Layer,
    live_cells: usize,
    dead_cells: usize,
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
        self.insts.add(f.num_insts() * Function::INST_BYTES, usize::from(f.num_insts() > 0));
        let (operands, targets) = f.pool_lens();
        let (bytes, allocs) = buffer::<ValueId>(operands);
        self.pools.add(bytes, allocs);
        let (bytes, allocs) = buffer::<BlockId>(targets);
        self.pools.add(bytes, allocs);
        let live: usize = (0..f.num_insts())
            .map(|i| f.inst(InstId::from_index(i)))
            .map(|inst| inst.operands.len() + inst.blocks.len())
            .sum();
        self.live_cells += live;
        self.dead_cells += operands + targets - live;
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
        println!(
            "{name}: {} functions, {} instructions, {} constants",
            self.functions, self.inst_count, self.constant_count
        );
        println!(
            "  instruction arena       {:>8.2} MB  {:>7} allocs  ({} B each)",
            mb(self.insts.bytes),
            self.insts.allocs,
            Function::INST_BYTES
        );
        println!(
            "  id pools                {:>8.2} MB  {:>7} allocs  ({} live cells, {} dead)",
            mb(self.pools.bytes),
            self.pools.allocs,
            self.live_cells,
            self.dead_cells
        );
        println!(
            "  instructions with pools {:>8.2} MB            ({:.1} B an instruction)",
            mb(self.insts.bytes + self.pools.bytes),
            (self.insts.bytes + self.pools.bytes) as f64 / self.inst_count as f64
        );
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
        let total =
            self.insts.bytes + self.pools.bytes + rows.iter().map(|(_, l)| l.bytes).sum::<usize>();
        let allocs = self.insts.allocs
            + self.pools.allocs
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
