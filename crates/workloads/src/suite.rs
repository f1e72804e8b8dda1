//! Workload specifications mirroring Table I of the paper.
//!
//! The paper evaluates on C/C++ benchmarks from SPEC CPU2006/CPU2017 plus
//! two large real applications (the Linux kernel and Google Chrome). Those
//! codebases are not available here, so each entry is reproduced as a
//! *synthetic* module with a comparable function count and a family
//! structure that produces the same merging phenomenology: most functions
//! belong to families of drifted clones, a tail of singletons does not,
//! and a small fraction of families are same-shape/different-type clones
//! (the `perf_trace_destroy` vs `perf_kprobe_destroy` situation of
//! Figure 5).
//!
//! Chrome's 1.2M functions are scaled to 120k (`chrome-scale`) so the
//! quadratic-vs-linear ranking contrast remains several orders of
//! magnitude while staying runnable; every bench prints the actual counts.

use f3m_prng::SmallRng;

use f3m_ir::builder::FunctionBuilder;
use f3m_ir::inst::Opcode;
use f3m_ir::function::{Function, Linkage};
use f3m_ir::module::Module;

use crate::gen::{
    declare_externals, generate_function, MutationProfile, ShapeParams,
};

/// Specification of one synthetic workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Display name (mirrors the paper's benchmark names).
    pub name: &'static str,
    /// Number of function definitions to generate.
    pub functions: usize,
    /// Mean instructions per function.
    pub mean_insts: usize,
    /// Fraction of functions that belong to a clone family.
    pub family_fraction: f64,
    /// Mean family size (geometric-ish).
    pub mean_family_size: usize,
    /// Fraction of generated functions that keep external linkage (must
    /// survive as symbols; the rest are module-private).
    pub external_fraction: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Size class used by figure groupings.
    pub class: SizeClass,
}

/// Paper-style size classes (Figure groupings use these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// 100–1k functions.
    Small,
    /// 1k–10k functions.
    Medium,
    /// 10k+ functions.
    Large,
}

impl WorkloadSpec {
    /// Returns this spec scaled by `factor` (function count only;
    /// everything else is preserved). Used by benches to bound runtime.
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        let mut s = self.clone();
        s.functions = ((s.functions as f64 * factor).round() as usize).max(8);
        s
    }
}

/// The full synthetic suite mirroring Table I (SPEC CPU2006 + CPU2017
/// benchmarks, the Linux kernel, Chromium).
pub fn table1() -> Vec<WorkloadSpec> {
    let mk = |name, functions, mean_insts, seed, class| WorkloadSpec {
        name,
        functions,
        mean_insts,
        family_fraction: 0.65,
        mean_family_size: 4,
        external_fraction: 0.15,
        seed,
        class,
    };
    vec![
        mk("429.mcf", 40, 42, 101, SizeClass::Small),
        mk("462.libquantum", 115, 30, 102, SizeClass::Small),
        mk("401.bzip2", 100, 48, 103, SizeClass::Small),
        mk("458.sjeng", 144, 40, 104, SizeClass::Small),
        mk("470.lbm", 30, 60, 105, SizeClass::Small),
        mk("433.milc", 235, 34, 106, SizeClass::Small),
        mk("444.namd", 100, 80, 107, SizeClass::Small),
        mk("508.namd_r", 120, 80, 108, SizeClass::Small),
        mk("456.hmmer", 538, 36, 109, SizeClass::Small),
        mk("464.h264ref", 590, 46, 110, SizeClass::Small),
        mk("482.sphinx3", 369, 33, 111, SizeClass::Small),
        mk("400.perlbench", 1837, 38, 112, SizeClass::Medium),
        mk("445.gobmk", 2679, 28, 113, SizeClass::Medium),
        mk("447.dealII", 7380, 26, 114, SizeClass::Medium),
        mk("453.povray", 2200, 34, 115, SizeClass::Medium),
        mk("471.omnetpp", 2500, 26, 116, SizeClass::Medium),
        mk("403.gcc", 5577, 36, 117, SizeClass::Medium),
        mk("510.parest_r", 9000, 26, 118, SizeClass::Medium),
        mk("620.omnetpp_s", 9200, 26, 119, SizeClass::Medium),
        mk("623.xalancbmk_s", 13500, 24, 120, SizeClass::Large),
        mk("526.blender_r", 28000, 24, 121, SizeClass::Large),
        mk("linux-scale", 45000, 22, 122, SizeClass::Large),
        mk("chrome-scale", 120000, 20, 123, SizeClass::Large),
    ]
}

/// A small suite for tests and quick demos.
pub fn mini_suite() -> Vec<WorkloadSpec> {
    table1().into_iter().take(4).map(|s| s.scaled(0.5)).collect()
}

/// Builds the synthetic module for a spec, including the external driver
/// function `@__driver(i64) -> i64` that exercises a sample of the
/// generated functions (used by the interpreter-based experiments).
pub fn build_module(spec: &WorkloadSpec) -> Module {
    let mut m = Module::new(spec.name);
    let externals = declare_externals(&mut m);
    let mut rng = SmallRng::seed_from_u64(spec.seed);

    let mut generated: Vec<f3m_ir::ids::FuncId> = Vec::new();
    let mut produced = 0usize;
    let mut family_idx = 0usize;
    while produced < spec.functions {
        let in_family = rng.gen_bool(spec.family_fraction);
        let members = if in_family {
            let geometric = 2 + rng.gen_range(0..spec.mean_family_size * 2);
            geometric.min(spec.functions - produced).max(1)
        } else {
            1
        };
        let struct_seed = spec.seed ^ (family_idx as u64).wrapping_mul(0x9E37_79B9);
        let shape = ShapeParams {
            target_insts: sample_size(&mut rng, spec.mean_insts),
            int_bits: *[16u32, 32, 32, 32, 64, 64].get(rng.gen_range(0..6usize)).unwrap(),
            int_params: rng.gen_range(1..=3usize),
            float_params: usize::from(rng.gen_bool(0.2)),
            float_mix: if rng.gen_bool(0.25) { 0.4 } else { 0.1 },
            cfg_density: rng.gen_range(0.1..0.4),
            call_density: 0.08,
            mem_density: 0.10,
            allow_invoke: rng.gen_bool(0.15),
        };
        // Family mutation intensity varies per family.
        let base_profile = match rng.gen_range(0..10) {
            0..=3 => MutationProfile::identical(),
            4..=6 => MutationProfile::light(),
            7..=8 => MutationProfile::medium(),
            _ => MutationProfile::heavy(),
        };
        for member in 0..members {
            let mut profile = if member == 0 {
                MutationProfile::identical()
            } else {
                base_profile
            };
            // A small fraction of family members are retyped clones: near
            // perfect structural matches that must NOT merge (Figure 5's
            // counterexample, and the "identical fingerprints, no
            // alignment" corner of Figure 10).
            if member > 0 && rng.gen_bool(0.06) {
                profile.retype = true;
            }
            // ...and some are order-shuffled clones: identical opcode
            // histograms (fingerprint distance ~0 for HyFM) with degraded
            // sequence alignment — the other half of the Figure 5 trap.
            if member > 0 && rng.gen_bool(0.18) {
                profile.shuffle = true;
            }
            let linkage = if rng.gen_bool(spec.external_fraction) {
                Linkage::External
            } else {
                Linkage::Internal
            };
            let name = format!("f{family_idx}_{member}");
            let member_seed = struct_seed ^ (member as u64 + 1).wrapping_mul(0xA24B_AED4);
            let f = generate_function(
                &mut m.types,
                &externals,
                &name,
                &shape,
                struct_seed,
                member_seed,
                &profile,
                linkage,
            );
            generated.push(m.add_function(f));
            produced += 1;
            if produced >= spec.functions {
                break;
            }
        }
        family_idx += 1;
    }

    build_driver(&mut m, &generated, spec.seed);
    m
}

fn sample_size(rng: &mut SmallRng, mean: usize) -> usize {
    // Skewed distribution: many small functions, a long tail of large ones.
    let base = rng.gen_range(mean / 2..=mean + mean / 2);
    if rng.gen_bool(0.08) {
        base * 3
    } else {
        base
    }
}

/// Adds `@__driver(i64) -> i64`: calls a deterministic sample of generated
/// functions, sinks their results, and returns a folded value. Gives the
/// interpreter-based experiments a single entry point.
fn build_driver(m: &mut Module, generated: &[f3m_ir::ids::FuncId], seed: u64) {
    let i64t = m.types.int(64);
    let f64t = m.types.f64();
    let void = m.types.void();
    let sink64 = m.lookup_function("ext_sink_i64").expect("externals declared");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1E5_C0DE);
    let sample: Vec<f3m_ir::ids::FuncId> = if generated.len() <= 24 {
        generated.to_vec()
    } else {
        (0..24).map(|_| generated[rng.gen_range(0..generated.len())]).collect()
    };

    // Collect signatures first to avoid borrow conflicts.
    let sigs: Vec<(f3m_ir::ids::FuncId, Vec<f3m_ir::types::TypeId>, f3m_ir::types::TypeId)> =
        sample
            .iter()
            .map(|&id| {
                let f = m.function(id);
                (id, f.params.clone(), f.ret_ty)
            })
            .collect();

    let mut d = Function::new("__driver", vec![i64t], i64t);
    {
        let mut b = FunctionBuilder::new(&mut m.types, &mut d);
        let entry = b.create_block();
        b.position_at_end(entry);
        let x = b.func().arg(0);
        let mut acc = x;
        for (k, (callee, params, ret_ty)) in sigs.iter().enumerate() {
            // Derive per-call arguments from the accumulator.
            let salt = b.const_int(i64t, k as i64 + 1);
            let seed64 = b.binary(Opcode::Xor, acc, salt);
            let args: Vec<_> = params
                .iter()
                .map(|&p| {
                    if p == i64t {
                        seed64
                    } else if p == f64t {
                        b.cast(Opcode::SIToFP, seed64, f64t)
                    } else if b.types().int_bits(p).is_some() {
                        b.cast(Opcode::Trunc, seed64, p)
                    } else {
                        b.func_mut().undef(p)
                    }
                })
                .collect();
            let cref = b.func_mut().func_ref(*callee);
            let r = b.call(cref, &args, *ret_ty);
            if let Some(r) = r {
                // Fold the result into the accumulator.
                let widened = if *ret_ty == i64t {
                    r
                } else if *ret_ty == f64t {
                    b.cast(Opcode::FPToSI, r, i64t)
                } else if b.types().int_bits(*ret_ty).is_some() {
                    b.cast(Opcode::SExt, r, i64t)
                } else {
                    b.const_int(i64t, 0)
                };
                acc = b.binary(Opcode::Add, acc, widened);
            }
        }
        let sref = b.func_mut().func_ref(sink64);
        b.call(sref, &[acc], void);
        b.ret(Some(acc));
    }
    m.add_function(d);
}

/// Convenience: the instruction shape of an entire suite, for Table I
/// style reporting.
#[derive(Clone, Debug)]
pub struct WorkloadSummary {
    /// Workload name.
    pub name: &'static str,
    /// Function definitions generated.
    pub functions: usize,
    /// Total linked instructions.
    pub instructions: usize,
    /// Estimated text size in bytes.
    pub size_bytes: u64,
}

/// Builds a module and summarizes it (used by the `table1` bench binary).
pub fn summarize(spec: &WorkloadSpec) -> (Module, WorkloadSummary) {
    let m = build_module(spec);
    let summary = WorkloadSummary {
        name: spec.name,
        functions: m.defined_functions().len(),
        instructions: m.total_insts(),
        size_bytes: f3m_ir::size::module_size(&m),
    };
    (m, summary)
}


#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::verify::verify_module;
    use f3m_interp::{Interpreter, Limits, Val};

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            functions: 40,
            mean_insts: 24,
            family_fraction: 0.7,
            mean_family_size: 4,
            external_fraction: 0.2,
            seed: 7,
            class: SizeClass::Small,
        }
    }

    #[test]
    fn built_modules_verify() {
        let m = build_module(&tiny_spec());
        verify_module(&m).unwrap();
        assert!(m.defined_functions().len() >= 40, "driver included");
    }

    #[test]
    fn module_is_deterministic() {
        let a = f3m_ir::printer::print_module(&build_module(&tiny_spec()));
        let b = f3m_ir::printer::print_module(&build_module(&tiny_spec()));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = tiny_spec();
        s2.seed = 8;
        let a = f3m_ir::printer::print_module(&build_module(&tiny_spec()));
        let b = f3m_ir::printer::print_module(&build_module(&s2));
        assert_ne!(a, b);
    }

    #[test]
    fn driver_runs_to_completion() {
        let m = build_module(&tiny_spec());
        let mut i = Interpreter::with_limits(
            &m,
            Limits { fuel: 10_000_000, memory: 1 << 22, max_depth: 128 },
        );
        let out = i.call_by_name("__driver", &[Val::Int(42)]).unwrap();
        assert!(out.steps > 100, "driver exercised generated code: {}", out.steps);
        // Deterministic.
        let mut i2 = Interpreter::with_limits(
            &m,
            Limits { fuel: 10_000_000, memory: 1 << 22, max_depth: 128 },
        );
        let out2 = i2.call_by_name("__driver", &[Val::Int(42)]).unwrap();
        assert_eq!(out.ret, out2.ret);
        assert_eq!(out.checksum, out2.checksum);
    }

    #[test]
    fn scaled_specs_shrink() {
        let s = table1()[0].scaled(0.25);
        assert_eq!(s.functions, 10);
        let floor = table1()[0].scaled(0.0);
        assert_eq!(floor.functions, 8, "scale floor");
    }

    #[test]
    fn table1_covers_all_size_classes() {
        let t = table1();
        assert!(t.iter().any(|s| s.class == SizeClass::Small));
        assert!(t.iter().any(|s| s.class == SizeClass::Medium));
        assert!(t.iter().any(|s| s.class == SizeClass::Large));
        assert_eq!(t.last().unwrap().name, "chrome-scale");
        assert_eq!(t.last().unwrap().functions, 120_000);
    }

    #[test]
    fn summaries_report_counts() {
        let (_, s) = summarize(&tiny_spec());
        assert_eq!(s.name, "tiny");
        assert!(s.instructions > 40 * 10);
        assert!(s.size_bytes > 0);
    }
}
