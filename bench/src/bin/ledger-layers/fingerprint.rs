//! Probes of `f3m_fingerprint`: encode → signature → band keys → bucket
//! probe → similarity on the pass modules' functions, the sharded index
//! the corpus uses, and the snapshot / resident store on the read corpus.

use std::hint::black_box;
use std::path::Path;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_fingerprint::backend::{backend_for, signature_similarity};
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::lsh::{band_keys_for, BandKey, LshIndex, QueryScratch};
use f3m_fingerprint::pager::PagerKind;
use f3m_fingerprint::resident::ResidentStore;
use f3m_fingerprint::sharded::ShardedLshIndex;
use f3m_fingerprint::snapshot::{open_snapshot, open_snapshot_meta, save_snapshot};
use f3m_fingerprint::MergeParams;
use f3m_ledger::report::Report;

use crate::spans::{timed, Spans};
use crate::Data;

/// Functions the per-function probes run over at most.
const FN_CAP: usize = 4000;
/// Shards of the daemon's default corpus.
const SHARDS: usize = 8;
/// In-place key swaps timed for `apply_delta`.
const DELTAS: usize = 256;
/// Pair comparisons timed for the similarity estimate.
const SIMILARITY_PAIRS: usize = 400_000;

/// The nanosecond-scale probes time a whole batch under one span: a span
/// per call would cost more than the call.
pub fn probe_pipeline(data: &Data, spans: &Spans, report: &mut Report) {
    let s = Some(spans);
    let params = MergeParams::static_default();
    let backend = backend_for(params.backend, params.k);
    let funcs: Vec<_> = data
        .pass_modules
        .iter()
        .flat_map(|m| m.defined_functions().into_iter().map(move |f| (m, f)))
        .filter(|(m, f)| m.function(*f).num_linked_insts() > 0)
        .take(FN_CAP)
        .collect();
    let n = funcs.len();
    let per_fn = |secs: f64, scale: f64| secs * scale / n as f64;

    let (encoded, secs) = timed(s, "fingerprint.encode.encode_function", || {
        funcs
            .iter()
            .map(|(m, f)| encode_function(&m.types, m.function(*f)))
            .collect::<Vec<_>>()
    });
    report.value("fingerprint.encode.ns_per_fn", "ns", per_fn(secs, 1e9));
    let (sigs, secs) = timed(s, "fingerprint.minhash.signature", || {
        encoded
            .iter()
            .map(|e| backend.signature(e))
            .collect::<Vec<_>>()
    });
    report.value("fingerprint.minhash.sig_us_per_fn", "us", per_fn(secs, 1e6));
    let (keys, secs) = timed(s, "fingerprint.lsh.band_keys_for", || {
        sigs.iter()
            .map(|sig| band_keys_for(params.lsh, sig))
            .collect::<Vec<Vec<BandKey>>>()
    });
    report.value(
        "fingerprint.lsh.band_keys_ns_per_fn",
        "ns",
        per_fn(secs, 1e9),
    );

    let mut index: LshIndex<usize> = LshIndex::new(params.lsh);
    for (i, k) in keys.iter().enumerate() {
        index.insert_with_keys(i, k);
    }
    let mut scratch = QueryScratch::new();
    let (found, secs) = timed(s, "fingerprint.lsh.probe_keys_into", || {
        (0..n)
            .map(|i| {
                index.probe_keys_into(&keys[i], i, &mut scratch);
                scratch.out.len()
            })
            .sum::<usize>()
    });
    report.value("fingerprint.lsh.probe_us", "us", per_fn(secs, 1e6));
    report.value(
        "fingerprint.lsh.candidates_per_probe",
        "count",
        found as f64 / n as f64,
    );
    report.value(
        "fingerprint.lsh.max_bucket",
        "count",
        index.max_bucket_size() as f64,
    );

    let (sum, secs) = timed(s, "fingerprint.backend.signature_similarity", || {
        (0..SIMILARITY_PAIRS)
            .map(|p| signature_similarity(&sigs[p % n], &sigs[(p * 7 + 1) % n]))
            .sum::<f64>()
    });
    black_box(sum);
    report.value(
        "fingerprint.backend.similarity_ns_per_pair",
        "ns",
        secs * 1e9 / SIMILARITY_PAIRS as f64,
    );

    let sharded: ShardedLshIndex<usize> = ShardedLshIndex::new(params.lsh, SHARDS);
    let ((), secs) = timed(s, "fingerprint.sharded.insert_with_keys", || {
        keys.iter()
            .enumerate()
            .for_each(|(i, k)| sharded.insert_with_keys(i, k));
    });
    report.value(
        "fingerprint.sharded.insert_ns_per_fn",
        "ns",
        per_fn(secs, 1e9),
    );
    let (found, secs) = timed(s, "fingerprint.sharded.probe_keys_into", || {
        (0..n)
            .map(|i| {
                sharded.probe_keys_into(&keys[i], i, &mut scratch);
                scratch.out.len()
            })
            .sum::<usize>()
    });
    report.value("fingerprint.sharded.probe_us", "us", per_fn(secs, 1e6));
    report.value(
        "fingerprint.sharded.candidates_per_probe",
        "count",
        found as f64 / n as f64,
    );
    // One update's index work: a function's keys out, another's in — and
    // back again, so the index ends as it began.
    let (dirty, secs) = timed(s, "fingerprint.sharded.apply_delta", || {
        (0..DELTAS.min(n))
            .map(|d| {
                let (i, j) = (d * (n / DELTAS.min(n)), (d * 31 + 17) % n);
                let there = sharded.apply_delta(&[(i, keys[i].clone())], &[(i, keys[j].clone())]);
                let back = sharded.apply_delta(&[(i, keys[j].clone())], &[(i, keys[i].clone())]);
                there.len() + back.len()
            })
            .sum::<usize>()
    });
    black_box(dirty);
    report.value(
        "fingerprint.sharded.apply_delta_us",
        "us",
        secs * 1e6 / (2 * DELTAS.min(n)) as f64,
    );
    let ((), secs) = timed(s, "fingerprint.sharded.remove_with_keys", || {
        keys.iter()
            .enumerate()
            .for_each(|(i, k)| sharded.remove_with_keys(i, k));
    });
    report.value(
        "fingerprint.sharded.remove_ns_per_fn",
        "ns",
        per_fn(secs, 1e9),
    );
}

/// Snapshot and resident-store probes over `snapshot`, the read corpus as
/// saved by the corpus probe.
pub fn probe_snapshot(
    snapshot: &Path,
    resaved: &Path,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), String> {
    let s = Some(spans);
    let dbg = |e: &dyn std::fmt::Debug| format!("{e:?}");
    let (file, secs) = timed(s, "fingerprint.snapshot.open_snapshot", || {
        open_snapshot(snapshot)
    });
    let file = file.map_err(|e| dbg(&e))?;
    report.value("fingerprint.snapshot.open_ms", "ms", secs * 1e3);
    let (meta, secs) = timed(s, "fingerprint.snapshot.open_snapshot_meta", || {
        open_snapshot_meta(snapshot)
    });
    let meta = meta.map_err(|e| dbg(&e))?;
    report.value("fingerprint.snapshot.open_meta_ms", "ms", secs * 1e3);
    let (saved, secs) = timed(s, "fingerprint.snapshot.save_snapshot", || {
        save_snapshot(
            resaved,
            &file.header,
            &file.store,
            &file.buckets,
            &file.payload,
        )
    });
    saved.map_err(|e| dbg(&e))?;
    report.value("fingerprint.snapshot.save_ms", "ms", secs * 1e3);
    let entries = file.header.entries.max(1);
    report.value(
        "fingerprint.snapshot.bytes_per_fn",
        "B",
        meta.layout.file_len as f64 / entries as f64,
    );

    let (opened, secs) = timed(s, "fingerprint.resident.open", || {
        ResidentStore::open(snapshot, PagerKind::Auto, 0)
    });
    let (_, store) = opened.map_err(|e| dbg(&e))?;
    report.value("fingerprint.resident.load_ms", "ms", secs * 1e3);
    let touch = |store: &ResidentStore| {
        (0..store.len())
            .map(|i| store.row(i).sig()[0])
            .fold(0u64, u64::wrapping_add)
    };
    black_box(touch(&store)); // fault every shard in
    let (sum, secs) = timed(s, "fingerprint.resident.row", || touch(&store));
    black_box(sum);
    report.value(
        "fingerprint.resident.row_ns_hot",
        "ns",
        secs * 1e9 / store.len().max(1) as f64,
    );

    // Shards a first module-wide query faults in on a resident restore.
    let cfg = CorpusConfig {
        jobs: 1,
        ..CorpusConfig::default()
    };
    let resident =
        Corpus::load_snapshot_resident(snapshot, cfg, PagerKind::Auto, 0).map_err(|e| dbg(&e))?;
    resident.query_module("m0", f3m_ledger::serve::QUERY_K)?;
    let faults = resident.residency().map_or(0, |(_, c)| c.shard_faults);
    report.value(
        "fingerprint.resident.faults_per_query",
        "count",
        faults as f64,
    );
    Ok(())
}
