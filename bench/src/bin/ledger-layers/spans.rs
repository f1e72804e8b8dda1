//! Spans around the calls into each layer, recorded from the benchmark's
//! side of the boundary.
//!
//! Every span carries its own id, the id of the span that was open when
//! it started (`parent`, 0 at top level) and the id of the request it
//! belongs to (`req`), as numeric args on an `f3m_trace` complete event —
//! so the Chrome trace written at exit can be regrouped by request or by
//! layer. A layer's self time is its spans' duration minus their
//! children's.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use f3m_trace::Tracer;

pub struct Spans {
    tracer: Tracer,
    next_id: Cell<u64>,
    open: RefCell<Vec<u64>>,
    request: Cell<u64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            tracer: Tracer::new(),
            next_id: Cell::new(1),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// The product's own tracer hooks (`run_pass_traced`) record into the
    /// same buffer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Spans opened from now on belong to a new request.
    pub fn next_request(&self) {
        self.request.set(self.request.get() + 1);
    }

    fn record<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.replace(self.next_id.get() + 1);
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        self.open.borrow_mut().push(id);
        let start = self.tracer.now_ns();
        let out = f();
        let dur = self.tracer.now_ns().saturating_sub(start);
        self.open.borrow_mut().pop();
        // The layer is the name's first component: `core.corpus.update` → `core`.
        let cat: &'static str = name.split('.').next().unwrap_or(name);
        let args = vec![("id", id), ("parent", parent), ("req", self.request.get())];
        self.tracer.complete(cat, name, 0, start, dur, args);
        out
    }

    /// Per-name totals over everything recorded so far:
    /// `(name, calls, total seconds, self seconds)`, largest self time
    /// first. Only spans recorded here (they carry an `id`) take part.
    pub fn self_times(&self) -> Vec<(String, u64, f64, f64)> {
        let events = self.tracer.events();
        let mut children: HashMap<u64, u64> = HashMap::new();
        for e in &events {
            if let (Some(parent), Some(dur)) = (e.arg("parent"), e.dur_ns()) {
                if e.arg("id").is_some() && parent != 0 {
                    *children.entry(parent).or_default() += dur;
                }
            }
        }
        let mut by_name: HashMap<&str, (u64, u64, u64)> = HashMap::new();
        for e in &events {
            if let (Some(id), Some(dur)) = (e.arg("id"), e.dur_ns()) {
                let row = by_name.entry(e.name.as_str()).or_default();
                row.0 += 1;
                row.1 += dur;
                row.2 += dur.saturating_sub(children.get(&id).copied().unwrap_or(0));
            }
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (calls, total, own))| {
                (n.to_string(), calls, total as f64 / 1e9, own as f64 / 1e9)
            })
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    pub fn chrome_json(&self) -> String {
        self.tracer.to_chrome_json()
    }
}

/// Runs `f` inside a span named `name` when tracing is on, and returns its
/// result with the seconds it took either way.
pub fn timed<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = match spans {
        Some(s) => s.record(name, f),
        None => f(),
    };
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = Spans::new();
        spans.next_request();
        timed(Some(&spans), "serve.request", || {
            timed(Some(&spans), "core.corpus.query_module", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            timed(Some(&spans), "serve.protocol.render_response", || ());
        });
        let rows = spans.self_times();
        let row = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().clone();
        let (_, calls, total, own) = row("serve.request");
        assert_eq!(calls, 1);
        let inner = row("core.corpus.query_module");
        assert!(inner.2 >= 0.005 && total >= inner.2);
        assert!(
            own <= total - inner.2 + 1e-9,
            "self {own} total {total} child {}",
            inner.2
        );
        let events = spans.tracer().events();
        let parent_of = |n: &str| events.iter().find(|e| e.name == n).unwrap().arg("parent");
        let id_of = |n: &str| events.iter().find(|e| e.name == n).unwrap().arg("id");
        assert_eq!(
            parent_of("core.corpus.query_module"),
            id_of("serve.request")
        );
        assert_eq!(parent_of("serve.request"), Some(0));
        assert!(events.iter().all(|e| e.arg("req") == Some(1)));
        assert!(spans.chrome_json().contains("\"traceEvents\""));
    }

    #[test]
    fn untraced_timing_records_nothing() {
        let (v, secs) = timed(None, "ir.parser.parse", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
