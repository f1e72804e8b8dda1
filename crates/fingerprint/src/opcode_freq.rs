//! HyFM-style opcode-frequency fingerprints.
//!
//! The baseline fingerprint (Section II-A): "a vector representing the
//! frequencies of all the instruction opcodes in its function body".
//! Similarity between two fingerprints is the Manhattan distance,
//! normalized into `[0, 1]` for reporting (Figures 4 and 6 of the paper
//! plot this normalized similarity).

use f3m_ir::inst::Opcode;
use f3m_ir::function::Function;

/// Frequency-vector fingerprint over the opcode alphabet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpcodeFingerprint {
    counts: [u32; Opcode::COUNT],
    total: u32,
}

impl OpcodeFingerprint {
    /// Builds the fingerprint of a function body.
    pub fn of(f: &Function) -> OpcodeFingerprint {
        let mut counts = [0u32; Opcode::COUNT];
        let mut total = 0;
        for (_, inst) in f.linked_insts() {
            counts[(inst.op.code() as usize - 1) % Opcode::COUNT] += 1;
            total += 1;
        }
        OpcodeFingerprint { counts, total }
    }

    /// Number of instructions fingerprinted.
    pub fn magnitude(&self) -> u32 {
        self.total
    }

    /// Manhattan (L1) distance between two fingerprints. Zero means the two
    /// functions have identical opcode frequencies (but possibly completely
    /// different structure — the paper's core criticism).
    pub fn distance(&self, other: &OpcodeFingerprint) -> u32 {
        self.counts
            .iter()
            .zip(other.counts.iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum()
    }

    /// Normalized similarity in `[0, 1]`:
    /// `1 - distance / (|self| + |other|)`.
    pub fn similarity(&self, other: &OpcodeFingerprint) -> f64 {
        let denom = self.total + other.total;
        if denom == 0 {
            return 1.0;
        }
        1.0 - self.distance(other) as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::builder::FunctionBuilder;
    use f3m_ir::module::Module;
    use f3m_ir::function::Function;

    fn fp_of(n_adds: usize, n_muls: usize) -> OpcodeFingerprint {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("f", vec![i32t, i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let e = b.create_block();
            b.position_at_end(e);
            let mut acc = b.func().arg(0);
            for _ in 0..n_adds {
                acc = b.add(acc, b.func().arg(1));
            }
            for _ in 0..n_muls {
                acc = b.mul(acc, b.func().arg(1));
            }
            b.ret(Some(acc));
        }
        OpcodeFingerprint::of(&f)
    }

    #[test]
    fn identical_functions_have_distance_zero() {
        let a = fp_of(3, 2);
        let b = fp_of(3, 2);
        assert_eq!(a.distance(&b), 0);
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn distance_counts_opcode_differences() {
        let a = fp_of(3, 2);
        let b = fp_of(2, 3);
        // one add fewer, one mul more -> distance 2.
        assert_eq!(a.distance(&b), 2);
        assert_eq!(b.distance(&a), 2, "symmetric");
    }

    #[test]
    fn similarity_decreases_with_distance() {
        let a = fp_of(5, 0);
        let close = fp_of(4, 1);
        let far = fp_of(0, 5);
        assert!(a.similarity(&close) > a.similarity(&far));
        assert!(a.similarity(&far) >= 0.0);
    }

    #[test]
    fn structure_blindness_demonstrated() {
        // Same opcode histogram, different order: fingerprints identical.
        // (This is exactly the weakness Figure 5 of the paper shows.)
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mk = |m: &mut Module, name: &str, add_first: bool| {
            let mut f = Function::new(name, vec![i32t, i32t], i32t);
            {
                let mut b = FunctionBuilder::new(&mut m.types, &mut f);
                let e = b.create_block();
                b.position_at_end(e);
                let (x, y) = (b.func().arg(0), b.func().arg(1));
                let r = if add_first {
                    let t = b.add(x, y);
                    b.mul(t, y)
                } else {
                    let t = b.mul(x, y);
                    b.add(t, y)
                };
                b.ret(Some(r));
            }
            f
        };
        let f1 = mk(&mut m, "a", true);
        let f2 = mk(&mut m, "b", false);
        assert_eq!(OpcodeFingerprint::of(&f1).distance(&OpcodeFingerprint::of(&f2)), 0);
    }

    #[test]
    fn magnitude_counts_instructions() {
        assert_eq!(fp_of(3, 2).magnitude(), 6); // 5 ops + ret
    }
}
