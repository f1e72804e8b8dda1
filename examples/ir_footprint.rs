//! Where a module's memory goes, layer by layer: the instruction arrays
//! (opcode, type and list span, each indexed by instruction), the two id
//! pools that hold every instruction's side cells, operands and targets
//! (live cells, and dead ones that lists which grew left behind),
//! constants (the only values stored: an argument is its position and a
//! result its instruction), blocks (a span each of one block pool), and
//! function metadata (the struct, the name and the parameter list, a row
//! each). Bytes are counted from `size_of` and element counts alone, so
//! they leave out malloc's per-chunk overhead; the heap allocations each
//! layer makes are counted beside its bytes for that reason. Then the
//! `VmRSS` one more clone of the module adds, read from
//! `/proc/self/status`.
//!
//! Last, the adaptive pass's own layers over the same input, each measured
//! as the heap bytes it leaves live (a counting allocator wraps the
//! system's): the packed fingerprint store's pools, the `FlatIndex` over
//! its keys, and the `Committer`'s reference index. Then one whole pass
//! over a fresh clone: its heap peak above what was live before the clone,
//! and the growth of the process's `VmHWM`.
//!
//! It runs on the two pass inputs of the performance ledger: the eleven
//! small Table I programs, and one `linux-scale` module of 10 000
//! functions.
//!
//! Run with: `cargo run --release -p f3m --example ir_footprint`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::mem::size_of;

use f3m::core::commit::Committer;
use f3m::fingerprint::{FlatIndex, PackedFingerprintStore};
use f3m::prelude::*;
use f3m::workloads::suite::SizeClass;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes live now.
fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

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
    dead_block_cells: usize,
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
        // Three arrays: opcodes, types and list spans.
        self.insts.add(f.num_insts() * Function::INST_BYTES, 3 * usize::from(f.num_insts() > 0));
        let [operands, targets, insts] = f.pool_lens();
        let [live_operands, live_targets, live_insts] = f.live_cells();
        let (bytes, allocs) = buffer::<ValueId>(operands);
        self.pools.add(bytes, allocs);
        let (bytes, allocs) = buffer::<BlockId>(targets);
        self.pools.add(bytes, allocs);
        self.live_cells += live_operands + live_targets;
        self.dead_cells += operands + targets - live_operands - live_targets;
        let (bytes, allocs) = buffer::<Value>(f.num_constants());
        self.constants.add(bytes, allocs);

        // Blocks: a span each, the order, and the block pool.
        let (bytes, allocs) = buffer::<[u32; 2]>(f.block_arena_len());
        self.blocks.add(bytes, allocs);
        let (bytes, allocs) = buffer::<BlockId>(f.block_order.len());
        self.blocks.add(bytes, allocs);
        let (bytes, allocs) = buffer::<InstId>(insts);
        self.blocks.add(bytes, allocs);
        self.dead_block_cells += insts - live_insts;

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
            "  instruction arrays      {:>8.2} MB  {:>7} allocs  ({} B each)",
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
        println!(
            "  blocks                  {:>8.2} MB  {:>7} allocs  ({} dead list cells)",
            mb(self.blocks.bytes),
            self.blocks.allocs,
            self.dead_block_cells
        );
        let rows = [
            ("constants", self.constants),
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
        let layers = [self.insts, self.pools, self.blocks].into_iter().chain(rows.map(|(_, l)| l));
        let (total, allocs) = layers.fold((0, 0), |(b, a), l| (b + l.bytes, a + l.allocs));
        println!(
            "  total                   {:>8.2} MB  {:>7} allocs  ({:.0} B a function)",
            mb(total),
            allocs,
            total as f64 / self.functions as f64
        );
    }
}

/// This process's `field` (`VmRSS`, `VmHWM`), in bytes, from
/// `/proc/self/status` (`None` where there is no such file).
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn vm_rss() -> Option<u64> {
    status_bytes("VmRSS")
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

/// The adaptive pass's layers over `modules`, as the heap bytes each
/// leaves live (summed over the modules; the store's build also at its
/// peak), and one pass at a time over a fresh clone of each module: the
/// heap peak above what was live before, and the `VmHWM` growth.
fn pass_layers(modules: &[Module]) {
    let mb = |b: usize| b as f64 / 1e6;
    let (mut store_bytes, mut store_peak, mut index_bytes, mut committer_bytes) = (0, 0, 0, 0);
    for m in modules {
        let funcs = m.merge_eligible();
        let params = MergeParams::adaptive(funcs.len());
        let backend = f3m::fingerprint::backend_for(params.backend, params.k);
        let before = live();
        PEAK.store(before, Ordering::Relaxed);
        let store = PackedFingerprintStore::of_functions(m, &funcs, &*backend, params.lsh, 1);
        store_bytes += live() - before;
        store_peak = store_peak.max(PEAK.load(Ordering::Relaxed) - before);
        let before = live();
        let index = FlatIndex::build(params.lsh, store.key_pool());
        index_bytes += live() - before;
        let before = live();
        let committer = Committer::build(m, 1);
        committer_bytes += live() - before;
        drop((store, index, committer));
    }
    println!(
        "  pass: packed store pools {:>7.2} MB  (a module's build peaks at {:.2} MB)",
        mb(store_bytes),
        mb(store_peak)
    );
    println!("  pass: FlatIndex arrays   {:>7.2} MB", mb(index_bytes));
    println!("  pass: Committer          {:>7.2} MB", mb(committer_bytes));
    let hwm = status_bytes("VmHWM");
    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    for m in modules {
        let mut m = m.clone();
        run_pass(&mut m, &PassConfig::f3m_adaptive().with_jobs(1));
    }
    let peak = PEAK.load(Ordering::Relaxed) - before;
    print!("  one adaptive pass (clone included): heap peak {:.2} MB", mb(peak));
    match (hwm, status_bytes("VmHWM")) {
        (Some(a), Some(b)) => println!(", VmHWM grows {:.1} MB", (b - a) as f64 / 1e6),
        _ => println!(", no /proc/self/status here"),
    }
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
        pass_layers(modules);
    }
}
