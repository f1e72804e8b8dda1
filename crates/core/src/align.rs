//! Sequence alignment of instruction streams.
//!
//! Two alignment granularities are provided, mirroring the lineage of the
//! paper's systems:
//!
//! - [`needleman_wunsch`] aligns whole-function encoded streams (as SalSSA
//!   does). The merging pass uses it only for *statistics* — the
//!   "alignment ratio" plotted in Figures 4 and 10.
//! - [`linear_block_align`] is HyFM's cheap linear pass over two blocks'
//!   instruction sequences; the code generator merges the aligned runs.
//!
//! Both have allocation-free variants ([`needleman_wunsch_with`] /
//! [`linear_block_align_with`]) that reuse an [`AlignScratch`]'s DP table
//! and entries buffer across calls and return a borrowed [`AlignRef`];
//! the owning signatures are thin wrappers over a fresh scratch. The
//! merge loop holds one scratch for the whole pass, so the alignment hot
//! path performs no per-call allocation.

/// One column of an alignment: a matched pair or a one-sided gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignEntry {
    /// Instructions at these positions are equivalent (same encoding).
    Match(usize, usize),
    /// Left instruction has no counterpart.
    GapRight(usize),
    /// Right instruction has no counterpart.
    GapLeft(usize),
}

/// Result of aligning two sequences.
#[derive(Clone, Debug, Default)]
pub struct Alignment {
    /// Alignment columns in order.
    pub entries: Vec<AlignEntry>,
    /// Number of matched pairs.
    pub matches: usize,
    /// `len(left) + len(right)`.
    pub total: usize,
}

impl Alignment {
    /// Fraction of instructions that participate in a match:
    /// `2 * matches / (len_l + len_r)`; `1.0` for two empty sequences.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        2.0 * self.matches as f64 / self.total as f64
    }
}

/// Reusable alignment working memory: the Needleman–Wunsch DP table and a
/// staging buffer for alignment entries. One scratch reused across calls
/// makes the alignment hot path allocation-free: candidate alignments are
/// scored through the borrowed [`AlignRef`] view and discarded, and only
/// the winning alignment is materialized with [`AlignRef::to_owned`].
#[derive(Debug, Default)]
pub struct AlignScratch {
    dp: Vec<u32>,
    entries: Vec<AlignEntry>,
    stats: AlignScratchStats,
}

/// Work counters accumulated by a scratch across alignment calls.
///
/// `cells` is a pure function of the aligned sequence lengths, so summing
/// it over all alignments of a pass is deterministic and job-count
/// independent. `dp_grows` depends on which pairs a particular scratch
/// happened to see before, so it is *per-scratch* telemetry only — never
/// aggregate it into jobs-invariant stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlignScratchStats {
    /// DP cells computed by [`needleman_wunsch_with`] plus positions
    /// advanced by [`linear_block_align_with`] — the alignment work count.
    pub cells: u64,
    /// Times the DP buffer had to grow (capacity reallocation). A healthy
    /// reuse pattern grows a handful of times then plateaus.
    pub dp_grows: u64,
}

impl AlignScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused across calls.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> AlignScratchStats {
        self.stats
    }

    /// Resets the work counters (buffer capacity is retained).
    pub fn reset_stats(&mut self) {
        self.stats = AlignScratchStats::default();
    }
}

/// An alignment whose entries live in an [`AlignScratch`], valid until the
/// scratch's next alignment call.
#[derive(Debug)]
pub struct AlignRef<'a> {
    /// Alignment columns in order, borrowed from the scratch.
    pub entries: &'a [AlignEntry],
    /// Number of matched pairs.
    pub matches: usize,
    /// `len(left) + len(right)`.
    pub total: usize,
}

impl AlignRef<'_> {
    /// Copies the borrowed alignment into an owned [`Alignment`].
    pub fn to_owned(&self) -> Alignment {
        Alignment { entries: self.entries.to_vec(), matches: self.matches, total: self.total }
    }

    /// Same as [`Alignment::ratio`].
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        2.0 * self.matches as f64 / self.total as f64
    }
}

/// Global alignment maximizing the number of matched (equal-encoding)
/// pairs — Needleman–Wunsch with unit match score and zero gap penalty,
/// i.e. a longest-common-subsequence alignment.
///
/// Quadratic in the sequence lengths; use on function-sized inputs only.
pub fn needleman_wunsch(left: &[u32], right: &[u32]) -> Alignment {
    needleman_wunsch_with(&mut AlignScratch::new(), left, right).to_owned()
}

/// [`needleman_wunsch`] into reusable buffers: no allocation once the
/// scratch has grown to the working-set size.
pub fn needleman_wunsch_with<'a>(
    scratch: &'a mut AlignScratch,
    left: &[u32],
    right: &[u32],
) -> AlignRef<'a> {
    let (n, m) = (left.len(), right.len());
    scratch.stats.cells += (n as u64) * (m as u64);
    // dp[i][j] = best matches aligning left[i..] with right[j..].
    scratch.dp.clear();
    if scratch.dp.capacity() < (n + 1) * (m + 1) {
        scratch.stats.dp_grows += 1;
    }
    scratch.dp.resize((n + 1) * (m + 1), 0);
    let dp = &mut scratch.dp;
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            let mut best = dp[idx(i + 1, j)].max(dp[idx(i, j + 1)]);
            if left[i] == right[j] {
                best = best.max(dp[idx(i + 1, j + 1)] + 1);
            }
            dp[idx(i, j)] = best;
        }
    }
    // Traceback.
    scratch.entries.clear();
    let entries = &mut scratch.entries;
    let (mut i, mut j) = (0, 0);
    let mut matches = 0usize;
    while i < n && j < m {
        if left[i] == right[j] && dp[idx(i, j)] == dp[idx(i + 1, j + 1)] + 1 {
            entries.push(AlignEntry::Match(i, j));
            matches += 1;
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            entries.push(AlignEntry::GapRight(i));
            i += 1;
        } else {
            entries.push(AlignEntry::GapLeft(j));
            j += 1;
        }
    }
    while i < n {
        entries.push(AlignEntry::GapRight(i));
        i += 1;
    }
    while j < m {
        entries.push(AlignEntry::GapLeft(j));
        j += 1;
    }
    AlignRef { entries: &scratch.entries, matches, total: n + m }
}

/// HyFM's linear block alignment: a single greedy pass that matches equal
/// encodings in order. Runs in `O(n + m)`; strictly weaker than
/// [`needleman_wunsch`] but what HyFM (and therefore F3M) uses for merging.
///
/// The two-pointer scheme advances over both sequences: on a mismatch it
/// skips the side whose *next* instruction re-synchronizes sooner (peeking
/// one ahead), which handles single insertions/deletions — the dominant
/// mutation between similar functions.
pub fn linear_block_align(left: &[u32], right: &[u32]) -> Alignment {
    linear_block_align_with(&mut AlignScratch::new(), left, right).to_owned()
}

/// [`linear_block_align`] into a reusable entries buffer: no allocation
/// once the scratch has grown to the working-set size.
pub fn linear_block_align_with<'a>(
    scratch: &'a mut AlignScratch,
    left: &[u32],
    right: &[u32],
) -> AlignRef<'a> {
    let (n, m) = (left.len(), right.len());
    // The linear pass touches each position once; count both sides as its
    // work contribution, commensurable with the DP cell count.
    scratch.stats.cells += (n + m) as u64;
    scratch.entries.clear();
    let entries = &mut scratch.entries;
    let (mut i, mut j) = (0, 0);
    let mut matches = 0usize;
    while i < n && j < m {
        if left[i] == right[j] {
            entries.push(AlignEntry::Match(i, j));
            matches += 1;
            i += 1;
            j += 1;
            continue;
        }
        // Peek: does skipping one on either side resynchronize?
        let skip_left_syncs = i + 1 < n && left[i + 1] == right[j];
        let skip_right_syncs = j + 1 < m && left[i] == right[j + 1];
        if skip_left_syncs && !skip_right_syncs {
            entries.push(AlignEntry::GapRight(i));
            i += 1;
        } else if skip_right_syncs && !skip_left_syncs {
            entries.push(AlignEntry::GapLeft(j));
            j += 1;
        } else {
            // Mutual mismatch: emit both as gaps.
            entries.push(AlignEntry::GapRight(i));
            entries.push(AlignEntry::GapLeft(j));
            i += 1;
            j += 1;
        }
    }
    while i < n {
        entries.push(AlignEntry::GapRight(i));
        i += 1;
    }
    while j < m {
        entries.push(AlignEntry::GapLeft(j));
        j += 1;
    }
    AlignRef { entries: &scratch.entries, matches, total: n + m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_fully_match() {
        let s = [1u32, 2, 3, 4];
        let a = needleman_wunsch(&s, &s);
        assert_eq!(a.matches, 4);
        assert_eq!(a.ratio(), 1.0);
        let l = linear_block_align(&s, &s);
        assert_eq!(l.matches, 4);
    }

    #[test]
    fn disjoint_sequences_never_match() {
        let a = needleman_wunsch(&[1, 2, 3], &[4, 5, 6]);
        assert_eq!(a.matches, 0);
        assert_eq!(a.ratio(), 0.0);
    }

    #[test]
    fn nw_finds_lcs_through_insertion() {
        // right = left with an insertion in the middle.
        let left = [1u32, 2, 3, 4, 5];
        let right = [1u32, 2, 9, 3, 4, 5];
        let a = needleman_wunsch(&left, &right);
        assert_eq!(a.matches, 5);
        assert!((a.ratio() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn nw_handles_substitution() {
        let left = [1u32, 2, 3, 4];
        let right = [1u32, 9, 3, 4];
        let a = needleman_wunsch(&left, &right);
        assert_eq!(a.matches, 3);
    }

    #[test]
    fn linear_align_recovers_from_single_insertion() {
        let left = [1u32, 2, 3, 4, 5];
        let right = [1u32, 2, 9, 3, 4, 5];
        let a = linear_block_align(&left, &right);
        assert_eq!(a.matches, 5, "resyncs after the inserted 9");
    }

    #[test]
    fn linear_align_handles_substitution_runs() {
        let left = [1u32, 2, 3, 4, 5];
        let right = [1u32, 8, 9, 4, 5];
        let a = linear_block_align(&left, &right);
        assert!(a.matches >= 3, "prefix and suffix still match: {:?}", a.entries);
    }

    #[test]
    fn linear_is_never_better_than_nw() {
        // NW is optimal; the linear heuristic is a lower bound.
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3, 4], &[4, 3, 2, 1]),
            (&[1, 1, 2, 2], &[2, 2, 1, 1]),
            (&[5, 6, 7], &[7, 5, 6]),
            (&[1, 2, 3, 1, 2, 3], &[3, 2, 1]),
        ];
        for (l, r) in cases {
            let nw = needleman_wunsch(l, r);
            let lin = linear_block_align(l, r);
            assert!(lin.matches <= nw.matches, "{l:?} vs {r:?}");
        }
    }

    #[test]
    fn empty_sequences() {
        let a = needleman_wunsch(&[], &[]);
        assert_eq!(a.ratio(), 1.0);
        let b = needleman_wunsch(&[1, 2], &[]);
        assert_eq!(b.matches, 0);
        assert_eq!(b.entries.len(), 2);
    }

    #[test]
    fn scratch_variants_match_allocating_variants_across_reuse() {
        // One scratch reused over inputs of varying sizes (including
        // shrinking ones) must produce identical results to fresh calls.
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3, 4, 5], &[1, 2, 9, 3, 4, 5]),
            (&[1, 2], &[]),
            (&[], &[]),
            (&[7, 8, 9, 1, 2, 3, 4], &[9, 1, 2, 4]),
            (&[5], &[5]),
        ];
        let mut scratch = AlignScratch::new();
        for (l, r) in cases {
            let owned_nw = needleman_wunsch(l, r);
            let view_nw = needleman_wunsch_with(&mut scratch, l, r);
            assert_eq!(view_nw.entries, owned_nw.entries.as_slice());
            assert_eq!(view_nw.matches, owned_nw.matches);
            assert_eq!(view_nw.total, owned_nw.total);
            assert_eq!(view_nw.to_owned().entries, owned_nw.entries);

            let owned_lin = linear_block_align(l, r);
            let view_lin = linear_block_align_with(&mut scratch, l, r);
            assert_eq!(view_lin.entries, owned_lin.entries.as_slice());
            assert_eq!(view_lin.matches, owned_lin.matches);
            assert!((view_lin.ratio() - owned_lin.ratio()).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_counts_cells_and_grows() {
        let mut scratch = AlignScratch::new();
        assert_eq!(scratch.stats(), AlignScratchStats::default());
        needleman_wunsch_with(&mut scratch, &[1, 2, 3], &[1, 2]);
        let s1 = scratch.stats();
        assert_eq!(s1.cells, 6, "3x2 DP cells");
        assert_eq!(s1.dp_grows, 1, "first call grows the empty buffer");
        // A smaller follow-up fits in the existing capacity.
        needleman_wunsch_with(&mut scratch, &[1], &[1]);
        assert_eq!(scratch.stats().cells, 7);
        assert_eq!(scratch.stats().dp_grows, 1, "reuse must not re-grow");
        // Linear alignment counts positions, not a DP product.
        linear_block_align_with(&mut scratch, &[1, 2], &[1, 2, 3]);
        assert_eq!(scratch.stats().cells, 12);
        scratch.reset_stats();
        assert_eq!(scratch.stats(), AlignScratchStats::default());
    }

    #[test]
    fn alignment_entries_cover_both_sequences() {
        let left = [1u32, 2, 3, 7, 8];
        let right = [2u32, 3, 4, 7];
        for a in [needleman_wunsch(&left, &right), linear_block_align(&left, &right)] {
            let mut li = 0;
            let mut rj = 0;
            for e in &a.entries {
                match e {
                    AlignEntry::Match(i, j) => {
                        assert_eq!((*i, *j), (li, rj));
                        li += 1;
                        rj += 1;
                    }
                    AlignEntry::GapRight(i) => {
                        assert_eq!(*i, li);
                        li += 1;
                    }
                    AlignEntry::GapLeft(j) => {
                        assert_eq!(*j, rj);
                        rj += 1;
                    }
                }
            }
            assert_eq!(li, left.len());
            assert_eq!(rj, right.len());
        }
    }
}
