//! In-memory span and counter recorder.
//!
//! A span wraps one call into a crate's public function: its name, start
//! and end (nanoseconds since the recorder started), the span that was
//! open when it began (its parent) and the request it belongs to. Spans
//! stay in memory until [`write`] dumps them with the counters as one JSON
//! document; `perfbench/run.py` turns them into per-layer self times.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
        counts: BTreeMap::new(),
    });
}

fn now_ns(r: &Recorder) -> u64 {
    u64::try_from(r.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` inside a span called `name`, nested under whichever span is
/// open on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = now_ns(&r);
        let span = Span {
            name,
            parent: r.open.last().copied(),
            request: r.request,
            start_ns,
            end_ns: start_ns,
        };
        r.spans.push(span);
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        let end_ns = now_ns(&r);
        r.spans[idx].end_ns = end_ns;
    });
    out
}

/// Tags the spans opened from now on with request id `id`.
pub fn set_request(id: u64) {
    REC.with(|r| r.borrow_mut().request = id);
}

/// Adds `delta` to counter `name`.
pub fn count(name: &'static str, delta: f64) {
    REC.with(|r| *r.borrow_mut().counts.entry(name).or_insert(0.0) += delta);
}

/// Writes every recorded span and counter to `path` as JSON:
/// `{"spans": [[id, parent, request, name, start_ns, end_ns], ...],
/// "counts": {name: value, ...}}`, with parent -1 for a root span.
pub fn write(path: &str) -> Result<(), String> {
    let text = REC.with(|r| {
        let r = r.borrow();
        let mut out = String::from("{\"spans\": [");
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[{i}, {parent}, {}, \"{}\", {}, {}]",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n], \"counts\": {");
        for (i, (name, value)) in r.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n\"{name}\": {value}");
        }
        out.push_str("\n}}\n");
        out
    });
    std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))
}
