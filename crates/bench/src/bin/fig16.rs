//! Figure 16: the bucket-search cap.
//!
//! Over-populated LSH buckets (very common instruction subsequences) make
//! the within-bucket search quadratic. The paper shows that on Linux,
//! buckets with ≥128 entries are under 0.03% of all buckets yet absorb
//! ~75% of fingerprint comparisons — and that capping comparisons per
//! bucket at 100 (or even 2) costs no code size while cutting compile
//! time.

use f3m_bench::{fmt_dur, print_table, BenchOpts};
use f3m_core::pass::{run_pass, PassConfig, Strategy};
use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::lsh::{LshIndex, LshParams};
use f3m_fingerprint::fnv::xor_constants;
use f3m_fingerprint::minhash::minhash_signature;
use f3m_workloads::suite::table1;

const CAPS: [usize; 5] = [1, 2, 10, 100, usize::MAX];

fn main() {
    let opts = BenchOpts::from_args();
    let spec = table1().into_iter().find(|s| s.name == "linux-scale").unwrap();
    let m = opts.build(&spec);
    let n = m.defined_functions().len();
    println!("workload: {} ({} functions)", spec.name, n);

    // Bucket population census (uncapped index, default banding).
    let params = MergeParams::static_default();
    let mut index: LshIndex<usize> =
        LshIndex::new(LshParams { bucket_cap: usize::MAX, ..params.lsh });
    let consts = xor_constants(params.k);
    let fps: Vec<Vec<u64>> = m
        .defined_functions()
        .iter()
        .map(|&f| {
            minhash_signature(&consts, &encode_function(&m.types, m.function(f)))
        })
        .collect();
    for (i, fp) in fps.iter().enumerate() {
        index.insert(i, fp);
    }
    let sizes = index.bucket_sizes();
    let total_buckets = sizes.len();
    let over = sizes.iter().filter(|&&s| s >= 128).count();
    let comparisons: u64 = sizes.iter().map(|&s| (s as u64) * (s as u64 - 1) / 2).sum();
    let over_comparisons: u64 = sizes
        .iter()
        .filter(|&&s| s >= 128)
        .map(|&s| (s as u64) * (s as u64 - 1) / 2)
        .sum();
    println!(
        "buckets: {total_buckets}; over-populated (≥128): {over} ({:.3}%); \
         share of pairwise comparisons in them: {:.1}%",
        100.0 * over as f64 / total_buckets as f64,
        100.0 * over_comparisons as f64 / comparisons.max(1) as f64,
    );

    // Cap sweep.
    let mut rows = Vec::new();
    for cap in CAPS {
        let mut p = MergeParams::static_default();
        p.lsh.bucket_cap = cap;
        let config = PassConfig { strategy: Strategy::F3m(p), ..Default::default() };
        let mut mm = m.clone();
        let t0 = std::time::Instant::now();
        let report = run_pass(&mut mm, &config);
        let pass = t0.elapsed();
        rows.push(vec![
            if cap == usize::MAX { "∞".to_string() } else { cap.to_string() },
            fmt_dur(pass),
            report.stats.fingerprint_comparisons.to_string(),
            format!("{:.2}%", report.stats.size_reduction() * 100.0),
            report.stats.merges_committed.to_string(),
        ]);
    }
    print_table(
        "Figure 16: bucket-cap sweep on linux-scale",
        &["cap", "merge-pass time", "fingerprint comparisons", "size reduction", "merges"],
        &rows,
    );
    println!(
        "\nExpected shape: size reduction is flat across caps (highly similar\n\
         functions share many buckets, so capped buckets still match through\n\
         less crowded ones) while comparisons and pass time drop with the cap."
    );
}
