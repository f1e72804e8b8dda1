//! Execution profiles for performance-aware merging.
//!
//! Section IV-F of the paper: merging "may merge a function with a
//! frequently used function, even if another similarly good and rarely
//! used candidate exists. A more performance-aware implementation of
//! function merging would use profiling information to influence candidate
//! selection towards infrequently used functions." This module implements
//! that proposed extension: a [`Profile`] carries per-function dynamic
//! execution weights, and the pass (when given one) breaks near-ties in
//! candidate similarity toward the coldest candidate.

use std::collections::HashMap;

use f3m_ir::ids::FuncId;

/// Per-function dynamic execution weights (e.g. interpreter step counts,
/// sample counts, or call frequencies).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    weights: HashMap<FuncId, u64>,
}

impl Profile {
    /// Builds a profile from explicit `(function, weight)` pairs.
    pub fn from_counts(counts: impl IntoIterator<Item = (FuncId, u64)>) -> Profile {
        Profile { weights: counts.into_iter().collect() }
    }

    /// The weight of a function (0 when never observed — cold).
    pub fn weight(&self, f: FuncId) -> u64 {
        self.weights.get(&f).copied().unwrap_or(0)
    }

    /// Whether the profile has any observations.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of profiled functions.
    pub fn len(&self) -> usize {
        self.weights.len()
    }
}

/// Streaming candidate selector: keeps every candidate whose similarity is
/// within `eps` of the best seen so far, so a profile can break near-ties
/// toward cold functions without a second ranking pass.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    eps: f64,
    best: f64,
    items: Vec<(usize, f64)>,
}

impl CandidateSet {
    /// Creates an empty set with the given near-tie tolerance.
    pub fn new(eps: f64) -> CandidateSet {
        CandidateSet { eps, best: f64::NEG_INFINITY, items: Vec::new() }
    }

    /// Offers one candidate.
    pub fn push(&mut self, idx: usize, sim: f64) {
        if sim > self.best {
            self.best = sim;
            self.items.retain(|&(_, s)| s >= self.best - self.eps);
        }
        if sim >= self.best - self.eps {
            self.items.push((idx, sim));
        }
    }

    /// The similarity below which [`Self::push`] drops a candidate right
    /// now (`-inf` while the set is empty). It only ever rises.
    pub(crate) fn near_tie_cut(&self) -> f64 {
        self.best - self.eps
    }

    /// Resolves the selection: without a profile, the highest-similarity
    /// candidate; with one, the *coldest* near-tied candidate (similarity
    /// breaking ties back).
    pub fn choose(
        &self,
        profile: Option<&Profile>,
        func_of: impl Fn(usize) -> FuncId,
    ) -> Option<(usize, f64)> {
        if self.items.is_empty() {
            return None;
        }
        match profile {
            None => self
                .items
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1)),
            Some(p) => self
                .items
                .iter()
                .copied()
                .min_by(|&(ia, sa), &(ib, sb)| {
                    let wa = p.weight(func_of(ia));
                    let wb = p.weight(func_of(ib));
                    wa.cmp(&wb).then(sb.total_cmp(&sa))
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: usize) -> FuncId {
        FuncId::from_index(i)
    }

    #[test]
    fn without_profile_picks_max_similarity() {
        let mut cs = CandidateSet::new(0.05);
        cs.push(0, 0.7);
        cs.push(1, 0.9);
        cs.push(2, 0.88);
        assert_eq!(cs.choose(None, fid), Some((1, 0.9)));
    }

    #[test]
    fn profile_breaks_near_ties_toward_cold() {
        let mut cs = CandidateSet::new(0.05);
        cs.push(0, 0.90); // hot
        cs.push(1, 0.88); // cold, near-tied
        let p = Profile::from_counts([(fid(0), 100_000), (fid(1), 3)]);
        assert_eq!(cs.choose(Some(&p), fid).map(|(i, _)| i), Some(1));
    }

    #[test]
    fn profile_does_not_cross_the_tolerance() {
        let mut cs = CandidateSet::new(0.05);
        cs.push(0, 0.90); // hot but clearly better
        cs.push(1, 0.70); // cold but far worse
        let p = Profile::from_counts([(fid(0), 100_000), (fid(1), 0)]);
        assert_eq!(cs.choose(Some(&p), fid).map(|(i, _)| i), Some(0));
    }

    #[test]
    fn later_better_candidate_prunes_stale_near_ties() {
        let mut cs = CandidateSet::new(0.05);
        cs.push(0, 0.5);
        cs.push(1, 0.9); // 0.5 is no longer near-tied
        let p = Profile::from_counts([(fid(1), 100), (fid(0), 0)]);
        assert_eq!(cs.choose(Some(&p), fid).map(|(i, _)| i), Some(1));
    }

    #[test]
    fn empty_set_chooses_nothing() {
        let cs = CandidateSet::new(0.05);
        assert_eq!(cs.choose(None, fid), None);
    }

    #[test]
    fn unobserved_functions_are_cold() {
        let p = Profile::from_counts([(fid(0), 10)]);
        assert_eq!(p.weight(fid(1)), 0);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(Profile::default().is_empty());
    }
}
