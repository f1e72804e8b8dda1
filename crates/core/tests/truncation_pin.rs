//! The pass under heavy bucket truncation, pinned: a bucket cap of 3 over
//! 400 generated functions cuts most probed buckets, so which ids a probe
//! sees, in which order and with how many hits decides most merges. Any
//! drift in the cap window, the querier skip, the dedup rule or discovery
//! order moves the merged module or a counter, and fails here.
//!
//! The bucket digest was recorded with the hash-map band index the pass
//! used before its flat index; the module and stats digests were
//! re-recorded when the merge loop became one serial turn per function.
//! All three hold for every job count.

use std::time::Duration;

use f3m_core::pass::{run_pass, MergeReport, PassConfig, StageTime, Strategy};
use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::fnv::fnv1a;
use f3m_ir::printer::print_module;

/// FNV-1a of the printed merged module.
const MODULE_DIGEST: u64 = 10707159922644516126;
/// FNV-1a of the report's `stats` JSON with every wall-clock field zeroed.
const STATS_DIGEST: u64 = 6326975936262850644;
/// FNV-1a of the built index's bucket sizes, ascending, in `Debug` form.
const BUCKETS_DIGEST: u64 = 5460974215694785092;

/// The report's deterministic part: the `stats` object with the stage
/// times zeroed, and no attempt log (it carries per-pair times).
fn stats_json(report: &MergeReport) -> String {
    let mut stats = report.stats.clone();
    stats.preprocess = Duration::ZERO;
    stats.rank = StageTime::default();
    stats.align = StageTime::default();
    stats.codegen = StageTime::default();
    MergeReport { stats, ..MergeReport::default() }.to_json()
}

#[test]
fn pass_under_a_bucket_cap_of_three_is_pinned() {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 400;
    let base = f3m_workloads::build_module(&spec);
    let strategy = Strategy::F3m(MergeParams::custom(64, 2, 0.0, 3));
    for jobs in [1, 4] {
        let mut m = base.clone();
        let config = PassConfig { strategy: strategy.clone(), jobs, ..PassConfig::default() };
        let report = run_pass(&mut m, &config);
        let stats = stats_json(&report);
        assert!(report.stats.bucket_evictions > 0, "the cap must cut probed buckets");
        assert_eq!(
            (
                fnv1a(print_module(&m).as_bytes()),
                fnv1a(stats.as_bytes()),
                fnv1a(format!("{:?}", report.lsh_bucket_sizes).as_bytes())
            ),
            (MODULE_DIGEST, STATS_DIGEST, BUCKETS_DIGEST),
            "jobs {jobs}: {stats}"
        );
    }
}
