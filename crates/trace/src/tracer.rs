//! Structured trace events and the Chrome `trace_event` exporter.
//!
//! The event model is deliberately small: *complete spans* (a name, a
//! category, a start timestamp and a duration), *instants* (a point in
//! time) and *counter samples* (a point in time carrying numeric series
//! values). Every event lives on a logical track (`tid`); track 0 is the
//! serial driver thread, other tracks are documented by their emitters
//! (the pass lays per-pair rank/align durations end-to-end on track 1,
//! since the real work ran concurrently on a worker pool).
//!
//! Events are recorded behind a mutex; recording is cheap (one lock, one
//! `Vec` push) and entirely absent when no tracer is installed — the
//! instrumented code paths take `Option<&Tracer>` and skip everything on
//! `None`, keeping the no-observability configuration at its pre-tracing
//! cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, MonotonicClock};
use crate::json::Writer;

/// What kind of trace event a [`TraceEvent`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: work that started at `ts_ns` and took `dur_ns`.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A counter sample; the series values live in
    /// [`TraceEvent::args`].
    Counter,
}

/// One structured trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (span/instant/counter series name).
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Logical track the event renders on.
    pub tid: u32,
    /// Start timestamp in nanoseconds (tracer-clock origin).
    pub ts_ns: u64,
    /// Span, instant or counter.
    pub kind: EventKind,
    /// Numeric arguments (counter values, sizes, indices).
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// The span duration, if this event is a span.
    pub fn dur_ns(&self) -> Option<u64> {
        match self.kind {
            EventKind::Span { dur_ns } => Some(dur_ns),
            _ => None,
        }
    }

    /// Looks up a numeric argument by name.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// Thread-safe structured-event collector.
///
/// Construct one per observed run ([`Tracer::new`] for wall-clock timing,
/// [`Tracer::with_clock`] to inject a [`FakeClock`](crate::FakeClock) in
/// tests), hand `Option<&Tracer>` to the instrumented code, then export
/// with [`Tracer::to_chrome_json`].
pub struct Tracer {
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

/// Hard ceiling on buffered events so a runaway campaign cannot exhaust
/// memory; overflow increments [`Tracer::dropped_events`] instead.
const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer over a fresh [`MonotonicClock`].
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A tracer over an injected clock (tests use
    /// [`FakeClock`](crate::FakeClock)).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            clock,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            capacity: DEFAULT_EVENT_CAPACITY,
        }
    }

    /// The tracer clock's current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Starts a span; it is recorded when the guard drops (or on
    /// [`SpanGuard::finish`]).
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: Some(self),
            cat,
            name: name.into(),
            tid: 0,
            start_ns: self.now_ns(),
            args: Vec::new(),
        }
    }

    /// Records a complete span with explicit timing, for work measured
    /// elsewhere (e.g. durations captured on worker threads).
    pub fn complete(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        tid: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns },
            args,
        });
    }

    /// Records an instant marker at the current time.
    pub fn instant(&self, cat: &'static str, name: impl Into<String>, args: Vec<(&'static str, u64)>) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            tid: 0,
            ts_ns: self.now_ns(),
            kind: EventKind::Instant,
            args,
        });
    }

    /// Records a counter sample at the current time. Chrome renders each
    /// arg as one series of a stacked counter track.
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, args: Vec<(&'static str, u64)>) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            tid: 0,
            ts_ns: self.now_ns(),
            kind: EventKind::Counter,
            args,
        });
    }

    fn push(&self, e: TraceEvent) {
        let mut events = self.events.lock().expect("tracer poisoned");
        if events.len() >= self.capacity {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(e);
    }

    /// Number of events dropped on buffer overflow.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("tracer poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("tracer poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports all events as Chrome `trace_event` JSON (the object form
    /// with a `traceEvents` array), loadable in `chrome://tracing` and
    /// Perfetto. Timestamps and durations are microseconds with
    /// nanosecond precision, as the format specifies.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().expect("tracer poisoned");
        let mut w = Writer::with_capacity(256 + events.len() * 96);
        w.begin_object().key("traceEvents").begin_array();
        w.begin_object().key("name").str("process_name").key("ph").str("M");
        w.key("pid").u64(1).key("tid").u64(0);
        w.key("args").begin_object().key("name").str("f3m").end_object().end_object();
        for e in events.iter() {
            let ph = match e.kind {
                EventKind::Span { .. } => "X",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            };
            w.begin_object().key("name").str(&e.name).key("cat").str(e.cat).key("ph").str(ph);
            w.key("pid").u64(1).key("tid").raw(e.tid);
            micros(w.key("ts"), e.ts_ns);
            match e.kind {
                EventKind::Span { dur_ns } => micros(w.key("dur"), dur_ns),
                EventKind::Instant => {
                    w.key("s").str("t");
                }
                EventKind::Counter => {}
            }
            w.key("args").begin_object();
            for (k, v) in &e.args {
                w.key(k).u64(*v);
            }
            w.end_object().end_object();
        }
        w.end_array().key("displayTimeUnit").str("ms").end_object();
        w.finish()
    }
}

/// Nanoseconds rendered as fractional microseconds (`123.456`).
fn micros(w: &mut Writer, ns: u64) {
    w.raw(format_args!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// An in-progress span; records a complete event when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    cat: &'static str,
    name: String,
    tid: u32,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// Attaches a numeric argument to the span.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        self.args.push((key, value));
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            let end = t.now_ns();
            t.complete(
                self.cat,
                std::mem::take(&mut self.name),
                self.tid,
                self.start_ns,
                end.saturating_sub(self.start_ns),
                std::mem::take(&mut self.args),
            );
        }
    }
}

/// Starts a span on `tracer` if one is installed; the returned guard is
/// inert on `None`. This is the one-liner instrumented code uses:
///
/// ```
/// # use f3m_trace::{tracer::span_on, Tracer};
/// let tracer = Tracer::new();
/// let mut s = span_on(Some(&tracer), "pass", "preprocess");
/// s.arg("functions", 42);
/// drop(s);
/// assert_eq!(tracer.events()[0].arg("functions"), Some(42));
/// ```
pub fn span_on<'a>(
    tracer: Option<&'a Tracer>,
    cat: &'static str,
    name: impl Into<String>,
) -> SpanGuard<'a> {
    match tracer {
        Some(t) => t.span(cat, name),
        None => SpanGuard {
            tracer: None,
            cat,
            name: String::new(),
            tid: 0,
            start_ns: 0,
            args: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    fn fake_tracer() -> (Arc<FakeClock>, Tracer) {
        let clock = Arc::new(FakeClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        (clock, tracer)
    }

    #[test]
    fn span_guard_measures_with_injected_clock() {
        let (clock, tracer) = fake_tracer();
        clock.set(1_000);
        {
            let mut s = tracer.span("cat", "work");
            s.arg("n", 7);
            clock.advance(250);
        }
        let e = &tracer.events()[0];
        assert_eq!(e.name, "work");
        assert_eq!(e.ts_ns, 1_000);
        assert_eq!(e.dur_ns(), Some(250));
        assert_eq!(e.arg("n"), Some(7));
        assert_eq!(e.arg("missing"), None);
    }

    #[test]
    fn span_on_none_records_nothing() {
        let mut s = span_on(None, "cat", "ghost");
        s.arg("n", 1);
        drop(s);
        // No tracer, nothing observable — this must simply not panic.
    }

    #[test]
    fn chrome_json_shape_is_loadable() {
        let (clock, tracer) = fake_tracer();
        {
            let _s = tracer.span("pass", "rank");
            clock.advance(1_234);
        }
        tracer.instant("pass", "marker", vec![("wave", 3)]);
        tracer.counter("pass", "counters", vec![("hits", 10), ("misses", 2)]);
        let json = tracer.to_chrome_json();
        for needle in [
            "\"traceEvents\":[",
            "\"ph\":\"M\"",
            "\"ph\":\"X\"",
            "\"dur\":1.234",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"hits\":10",
            "\"displayTimeUnit\":\"ms\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn complete_records_external_timing() {
        let (_clock, tracer) = fake_tracer();
        tracer.complete("pass", "align", 1, 500, 200, vec![("cells", 42)]);
        let e = &tracer.events()[0];
        assert_eq!((e.tid, e.ts_ns, e.dur_ns()), (1, 500, Some(200)));
    }

    #[test]
    fn names_with_quotes_are_escaped() {
        let (_clock, tracer) = fake_tracer();
        tracer.instant("cat", "we \"quote\" here", vec![]);
        assert!(tracer.to_chrome_json().contains("we \\\"quote\\\" here"));
    }

    #[test]
    fn capacity_overflow_drops_instead_of_growing() {
        let (_clock, tracer) = fake_tracer();
        let small = Tracer { capacity: 2, ..tracer };
        small.instant("c", "a", vec![]);
        small.instant("c", "b", vec![]);
        small.instant("c", "c", vec![]);
        assert_eq!(small.len(), 2);
        assert_eq!(small.dropped_events(), 1);
    }
}
