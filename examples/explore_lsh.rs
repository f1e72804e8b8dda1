//! Explore the MinHash + LSH machinery directly: fingerprint a family of
//! drifted clones, watch similarity fall with mutation intensity, and
//! compare measured bucket-collision rates against the analytic
//! probability `1 - (1 - s^r)^b` (Equation 2 of the paper).
//!
//! Run with: `cargo run --release -p f3m --example explore_lsh`

use f3m::fingerprint::encode::encode_function;
use f3m::fingerprint::fnv::xor_constants;
use f3m::fingerprint::lsh::collision_probability;
use f3m::fingerprint::signature_similarity;
use f3m::prelude::*;

fn main() {
    let mut module = Module::new("explore");
    let externals = f3m::workloads::declare_externals(&mut module);
    let shape = ShapeParams { target_insts: 40, ..Default::default() };

    // One base function plus clones at increasing mutation intensity.
    let profiles: Vec<(&str, MutationProfile)> = vec![
        ("identical", MutationProfile::identical()),
        ("light", MutationProfile::light()),
        ("medium", MutationProfile::medium()),
        ("heavy", MutationProfile::heavy()),
        ("retyped", MutationProfile { retype: true, ..MutationProfile::identical() }),
    ];
    let mut ids = Vec::new();
    for (i, (label, profile)) in profiles.iter().enumerate() {
        let f = f3m::workloads::generate_function(
            &mut module.types,
            &externals,
            &format!("clone_{label}"),
            &shape,
            /* struct_seed */ 2024,
            /* member_seed */ 1000 + i as u64,
            profile,
            Linkage::External,
        );
        ids.push(module.add_function(f));
    }
    f3m::ir::verify::verify_module(&module).unwrap();

    let k = 200;
    let consts = xor_constants(k);
    let fps: Vec<Vec<u64>> = ids
        .iter()
        .map(|&id| minhash_signature(&consts, &encode_function(&module.types, module.function(id))))
        .collect();
    let opcode_fps: Vec<OpcodeFingerprint> =
        ids.iter().map(|&id| OpcodeFingerprint::of(module.function(id))).collect();

    println!("similarity of each clone to the identical base (k = {k}):");
    println!("{:>10} {:>16} {:>16}", "clone", "minhash Jaccard", "opcode similarity");
    for (i, (label, _)) in profiles.iter().enumerate() {
        println!(
            "{:>10} {:>16.3} {:>16.3}",
            label,
            signature_similarity(&fps[0], &fps[i]),
            opcode_fps[0].similarity(&opcode_fps[i]),
        );
    }
    println!(
        "\nNote the retyped clone: opcode similarity stays ~1.0 (same opcodes!)\n\
         while MinHash correctly reports low similarity — the Figure 5 trap."
    );

    // LSH banding: measured collisions vs Equation 2.
    let params = LshParams { rows: 2, bands: 100, bucket_cap: 100 };
    let mut index: LshIndex<usize> = LshIndex::new(params);
    for (i, fp) in fps.iter().enumerate() {
        index.insert(i, fp);
    }
    println!("\nLSH (r = {}, b = {}): does each clone share a bucket with base?", params.rows, params.bands);
    let (cands, _) = index.candidates(&fps[0], 0);
    for (i, (label, _)) in profiles.iter().enumerate().skip(1) {
        let s = signature_similarity(&fps[0], &fps[i]);
        println!(
            "{:>10}: collided = {:5}, Eq.2 predicts p = {:.3} at s = {:.3}",
            label,
            cands.contains(&i),
            collision_probability(s, params.rows, params.bands),
            s
        );
    }
}
