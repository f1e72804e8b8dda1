//! The `candidates` renderer [`super::render_response`] replaced, kept as
//! the reference it is held to: every key, name and similarity written
//! through the [`Writer`], which places the commas and formats each
//! similarity anew.
//!
//! [`render_matches_the_writer_reference`] requires the one-buffer
//! renderer to write every generated response byte for byte as this one
//! does.

use std::sync::Arc;

use f3m_core::corpus::{QueryResult, RankedCandidate};
use f3m_prng::SmallRng;
use f3m_trace::json::Writer;

use super::{render_response, Response};

/// Renders a `candidates` response as `render_response` did before it
/// laid out its own keys.
pub fn render_candidates(id: Option<u64>, epoch: u64, results: &[QueryResult]) -> String {
    let mut w = Writer::with_capacity(128);
    w.begin_object().key("type").str("candidates");
    if let Some(id) = id {
        w.key("id").u64(id);
    }
    w.key("epoch").u64(epoch).key("results").begin_array();
    for r in results {
        w.begin_object().key("func").str(&r.func).key("candidates").begin_array();
        for c in &r.candidates {
            w.begin_object().key("func").str(&c.func);
            w.key("similarity").f64(c.similarity).end_object();
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Name pieces: plain symbol text, the bytes JSON escapes (quote,
/// backslash, control bytes) and non-ASCII text, which it does not.
const PIECES: &[&str] = &[
    "m", "f0_1", ".", "__driver", // plain
    "\"", "\\", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "関数", "\u{1F600}",
];

fn name(rng: &mut SmallRng) -> Arc<str> {
    let plain = rng.gen_bool(0.5);
    let pool = if plain { 4 } else { PIECES.len() };
    let n = rng.gen_range(0..6usize);
    (0..n).map(|_| PIECES[rng.gen_range(0..pool)]).collect::<String>().into()
}

/// A similarity as the daemon computes it (`e / k` for k ∈ {114, 200}
/// slots), a value JSON cannot spell, a tiny one, or any bit pattern.
fn similarity(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..6usize)],
        1 => f64::from_bits(rng.next_u64()),
        2 => rng.gen_f64() * 1e-300,
        _ => {
            let k = if rng.gen_bool(0.5) { 114 } else { 200 };
            f64::from(rng.gen_range(0..=k)) / f64::from(k)
        }
    }
}

fn response(rng: &mut SmallRng) -> (Option<u64>, u64, Vec<QueryResult>) {
    let id = rng.gen_bool(0.5).then(|| rng.next_u64() >> rng.gen_range(0..64u32));
    let results = (0..rng.gen_range(0..12usize))
        .map(|_| QueryResult {
            func: name(rng),
            candidates: (0..rng.gen_range(0..6usize))
                .map(|_| RankedCandidate { func: name(rng), similarity: similarity(rng) })
                .collect(),
        })
        .collect();
    (id, rng.next_u64() >> rng.gen_range(0..64u32), results)
}

/// The one-buffer renderer writes what the writer-driven one wrote, over
/// generated responses (names needing escapes; every similarity a
/// signature of k ∈ {114, 200} slots can give, NaN and ±∞; with and
/// without `id`; empty results and empty lists), and one list that holds
/// every similarity of both signature lengths.
#[test]
fn render_matches_the_writer_reference() {
    let cases = if cfg!(debug_assertions) { 300 } else { 20_000 };
    let mut rng = SmallRng::seed_from_u64(0xF3F3);
    let mut fixed = vec![
        (None, 0, vec![]),
        (Some(7), 3, vec![QueryResult { func: "m.f".into(), candidates: vec![] }]),
    ];
    let every = [114, 200]
        .into_iter()
        .flat_map(|k| (0..=k).map(move |e| f64::from(e) / f64::from(k)));
    let candidates = every.map(|similarity| RankedCandidate { func: "m.g".into(), similarity });
    let one_of_each = QueryResult { func: "m.f".into(), candidates: candidates.collect() };
    fixed.push((Some(0), 9, vec![one_of_each]));
    for (id, epoch, results) in fixed.into_iter().chain((0..cases).map(|_| response(&mut rng))) {
        let want = render_candidates(id, epoch, &results);
        let got = render_response(id, &Response::Candidates { epoch, results });
        assert_eq!(got, want);
    }
}
