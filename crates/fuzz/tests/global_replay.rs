//! Replays the checked-in global-merge reproducer corpus.
//!
//! Every line of `corpus/global/seeds.txt` is one case seed of the
//! global fuzzer ([`f3m_fuzz::replay_global_case`]); each replay
//! reconstructs that seeded multi-module set and enforces the full
//! oracle — jobs 1/2/8 byte-identity of `global_merge`, verifier and
//! print/parse fixpoint on the merged module, and the cross-module
//! `__driver` differential. The corpus is a regression net: any global
//! merge bug found by a campaign gets its case seed appended here.

use std::path::PathBuf;

fn corpus_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/global/seeds.txt")
}

fn corpus_seeds() -> Vec<u64> {
    let text = std::fs::read_to_string(corpus_file()).expect("corpus/global/seeds.txt exists");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.parse().expect("seed lines are u64"))
        .collect()
}

#[test]
fn checked_in_global_corpus_replays_clean() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 8, "corpus should carry a representative seed set");
    let mut cross_module = 0u64;
    let mut intra_only = 0u64;
    for seed in seeds {
        match f3m_fuzz::replay_global_case(seed) {
            Ok(scenario) => {
                println!("seed {seed} -> {scenario}");
                if scenario.contains("cross_module=0") {
                    intra_only += 1;
                } else {
                    cross_module += 1;
                }
            }
            Err(e) => panic!("reproducer seed {seed} violated the global oracle: {e}"),
        }
    }
    // The corpus must exercise both regimes: sets where global merging
    // wins across module boundaries, and sets where it degenerates to
    // per-module behaviour.
    assert!(cross_module >= 4, "corpus should carry cross-module scenarios");
    assert!(intra_only >= 1, "corpus should carry an intra-module-only scenario");
}
