//! Offline analyses used by the figure benches.
//!
//! These reproduce the *measurement* side of the paper's Figures 4, 6 and
//! 10: exhaustive pairwise comparisons of fingerprint similarity against
//! ground-truth alignment quality. They are deliberately outside the pass —
//! the pass never does exhaustive work; these exist to evaluate the
//! metrics themselves.

use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::backend::signature_similarity;
use f3m_fingerprint::fnv::xor_constants;
use f3m_fingerprint::minhash::minhash_signature;
use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;

use crate::align::needleman_wunsch;

/// One sampled function pair.
#[derive(Clone, Copy, Debug)]
pub struct PairSample {
    /// First function.
    pub f1: FuncId,
    /// Second function.
    pub f2: FuncId,
    /// Normalized opcode-frequency similarity (HyFM's metric, Fig. 4).
    pub sim_opcode: f64,
    /// Estimated Jaccard similarity of MinHash fingerprints (Fig. 10).
    pub sim_minhash: f64,
    /// Ground truth: Needleman–Wunsch alignment ratio.
    pub align_ratio: f64,
}

/// Computes similarity/alignment samples for all pairs of defined
/// functions (or every `stride`-th pair, to bound quadratic cost on large
/// modules; `stride = 1` means all pairs).
///
/// # Panics
///
/// Panics if `k` or `stride` is zero.
pub fn sample_pairs(m: &Module, k: usize, stride: usize) -> Vec<PairSample> {
    assert!(k > 0 && stride > 0);
    let funcs = m.defined_functions();
    let encoded: Vec<Vec<u32>> =
        funcs.iter().map(|&f| encode_function(&m.types, m.function(f))).collect();
    let opcode_fps: Vec<OpcodeFingerprint> =
        funcs.iter().map(|&f| OpcodeFingerprint::of(m.function(f))).collect();
    let consts = xor_constants(k);
    let minhash_fps: Vec<Vec<u64>> =
        encoded.iter().map(|e| minhash_signature(&consts, e)).collect();

    let mut out = Vec::new();
    let mut counter = 0usize;
    for i in 0..funcs.len() {
        for j in (i + 1)..funcs.len() {
            counter += 1;
            if !counter.is_multiple_of(stride) {
                continue;
            }
            let align = needleman_wunsch(&encoded[i], &encoded[j]);
            out.push(PairSample {
                f1: funcs[i],
                f2: funcs[j],
                sim_opcode: opcode_fps[i].similarity(&opcode_fps[j]),
                sim_minhash: signature_similarity(&minhash_fps[i], &minhash_fps[j]),
                align_ratio: align.ratio(),
            });
        }
    }
    out
}

/// Pearson correlation coefficient of two equal-length samples.
/// Returns 0 when either side has zero variance or fewer than two points.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson on unequal-length samples");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(xs), mean(ys));
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Discretizes `(x, y)` samples into a `bins × bins` heatmap over
/// `[0,1] × [0,1]` — the representation behind Figures 4 and 10.
pub fn heatmap(samples: &[(f64, f64)], bins: usize) -> Vec<Vec<u64>> {
    let mut grid = vec![vec![0u64; bins]; bins];
    for &(x, y) in samples {
        let bx = ((x * bins as f64) as usize).min(bins - 1);
        let by = ((y * bins as f64) as usize).min(bins - 1);
        grid[by][bx] += 1;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_identical_series_is_one() {
        let xs = [0.1, 0.4, 0.5, 0.9];
        assert!((pearson(&xs, &xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_inverted_series_is_minus_one() {
        let xs = [0.1, 0.4, 0.5, 0.9];
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - x).collect();
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_handles_degenerate_input() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[0.2, 0.9]), 0.0);
    }

    #[test]
    fn heatmap_bins_cover_unit_square() {
        let samples = [(0.0, 0.0), (0.999, 0.999), (1.0, 1.0), (0.5, 0.25)];
        let grid = heatmap(&samples, 4);
        assert_eq!(grid[0][0], 1);
        assert_eq!(grid[3][3], 2, "1.0 clamps into the last bin");
        assert_eq!(grid[1][2], 1);
        let total: u64 = grid.iter().flatten().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn sample_pairs_produces_all_pairs_with_stride_one() {
        use f3m_ir::parser::parse_module;
        let m = parse_module(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  ret i32 %1
}
define @b(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  ret i32 %1
}
define @c(f64 %0) -> f64 {
bb0:
  %1 = fadd f64 %0, %0
  ret f64 %1
}
}
"#,
        )
        .unwrap();
        let samples = sample_pairs(&m, 64, 1);
        assert_eq!(samples.len(), 3);
        // a-b are identical: perfect everything.
        let ab = &samples[0];
        assert_eq!(ab.align_ratio, 1.0);
        assert_eq!(ab.sim_minhash, 1.0);
        assert_eq!(ab.sim_opcode, 1.0);
        // a-c are disjoint in types: alignment ratio 0.
        let ac = &samples[1];
        assert_eq!(ac.align_ratio, 0.0);
    }
}
