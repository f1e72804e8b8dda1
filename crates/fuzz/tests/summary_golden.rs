//! Golden renderings captured from the hand-rolled renderers as they were
//! *before* they moved onto `f3m_trace::json::Writer` (ISSUE 15). The
//! expected strings are literals on purpose — re-deriving them from the
//! writer would only prove the writer agrees with itself.

use f3m_fuzz::campaign::{CampaignSummary, FailureRecord};
use f3m_fuzz::global::{GlobalCampaignSummary, GlobalFailure};
use f3m_fuzz::protocol::{ProtocolFailure, ProtocolSummary};

#[test]
fn campaign_summary_renders_the_captured_bytes() {
    let fail = |artifact: Option<&str>| FailureRecord {
        iteration: 3,
        iter_seed: 0xBEEF,
        kind: "differential".into(),
        strategy: "f3m".into(),
        jobs: 8,
        detail: "driver(1) base \"x\"\nvs\tmerged \\".into(),
        mutations: vec!["split-block", "rewire-phi"],
        functions_before: 12,
        functions_after: 2,
        insts_before: 300,
        insts_after: 41,
        artifact: artifact.map(str::to_string),
    };
    let s = CampaignSummary {
        iterations: 5,
        mutations_applied: 9,
        histogram: vec![("split-block", 4), ("rewire-phi", 5)],
        mutator_time_ns: vec![("split-block", 100), ("rewire-phi", 200)],
        resource_skips: 2,
        failures: vec![
            fail(Some("corpus/fail-00003-differential.ir")),
            FailureRecord { insts_before: 0, ..fail(None) },
        ],
    };
    assert_eq!(
        s.to_json(),
        "{\n  \"iterations\": 5,\n  \"mutations_applied\": 9,\n  \"mutator_histogram\": {\"split-block\": 4, \"rewire-phi\": 5},\n  \"resource_skips\": 2,\n  \"failure_count\": 2,\n  \"failures\": [\n    {\"iteration\": 3, \"seed\": \"0xbeef\", \"kind\": \"differential\", \"strategy\": \"f3m\", \"jobs\": 8, \"detail\": \"driver(1) base \\\"x\\\"\\nvs\\tmerged \\\\\", \"mutations\": [\"split-block\", \"rewire-phi\"], \"functions_before\": 12, \"functions_after\": 2, \"insts_before\": 300, \"insts_after\": 41, \"reduction_ratio\": 0.1367, \"artifact\": \"corpus/fail-00003-differential.ir\"},\n    {\"iteration\": 3, \"seed\": \"0xbeef\", \"kind\": \"differential\", \"strategy\": \"f3m\", \"jobs\": 8, \"detail\": \"driver(1) base \\\"x\\\"\\nvs\\tmerged \\\\\", \"mutations\": [\"split-block\", \"rewire-phi\"], \"functions_before\": 12, \"functions_after\": 2, \"insts_before\": 0, \"insts_after\": 41, \"reduction_ratio\": 1.0000, \"artifact\": null}\n  ]\n}"
    );
    assert_eq!(
        CampaignSummary { failures: vec![], ..s }.to_json(),
        "{\n  \"iterations\": 5,\n  \"mutations_applied\": 9,\n  \"mutator_histogram\": {\"split-block\": 4, \"rewire-phi\": 5},\n  \"resource_skips\": 2,\n  \"failure_count\": 0,\n  \"failures\": []\n}"
    );
}

#[test]
fn global_summary_renders_the_captured_bytes() {
    let g = GlobalCampaignSummary {
        iterations: 4,
        modules_built: 11,
        mutations_applied: 7,
        resource_skips: 1,
        verified_total: 18,
        cross_module_merges_total: 6,
        failures: vec![
            GlobalFailure {
                iteration: 2,
                iter_seed: 0xABC,
                kind: "jobs-divergence".into(),
                jobs: 8,
                detail: "planner \"out\"\n".into(),
                modules: 3,
            },
            GlobalFailure {
                iteration: 3,
                iter_seed: 1,
                kind: "round-trip".into(),
                jobs: 1,
                detail: "d".into(),
                modules: 2,
            },
        ],
    };
    assert_eq!(
        g.to_json(),
        "{\n  \"iterations\": 4,\n  \"modules_built\": 11,\n  \"mutations_applied\": 7,\n  \"resource_skips\": 1,\n  \"verified_total\": 18,\n  \"cross_module_merges_total\": 6,\n  \"failure_count\": 2,\n  \"failures\": [\n    {\"iteration\": 2, \"seed\": \"0xabc\", \"kind\": \"jobs-divergence\", \"jobs\": 8, \"modules\": 3, \"detail\": \"planner \\\"out\\\"\\n\"},\n    {\"iteration\": 3, \"seed\": \"0x1\", \"kind\": \"round-trip\", \"jobs\": 1, \"modules\": 2, \"detail\": \"d\"}\n  ]\n}"
    );
    assert_eq!(
        GlobalCampaignSummary { failures: vec![], ..g }.to_json(),
        "{\n  \"iterations\": 4,\n  \"modules_built\": 11,\n  \"mutations_applied\": 7,\n  \"resource_skips\": 1,\n  \"verified_total\": 18,\n  \"cross_module_merges_total\": 6,\n  \"failure_count\": 0,\n  \"failures\": []\n}"
    );
}

#[test]
fn protocol_summary_renders_the_captured_bytes() {
    let p = ProtocolSummary {
        cases: 3,
        frames_sent: 10,
        responses_checked: 9,
        failures: vec![ProtocolFailure {
            case: 2,
            case_seed: 77,
            scenario: "slowloris",
            detail: "no \"answer\"\n".into(),
        }],
        scenario_counts: vec![("slowloris", 2), ("pipelined-burst", 1)],
    };
    assert_eq!(
        p.to_json(),
        "{\"cases\":3,\"frames_sent\":10,\"responses_checked\":9,\"scenarios\":{\"slowloris\":2,\"pipelined-burst\":1},\"failures\":[{\"case\":2,\"case_seed\":77,\"scenario\":\"slowloris\",\"detail\":\"no \\\"answer\\\"\\n\"}]}"
    );
}
