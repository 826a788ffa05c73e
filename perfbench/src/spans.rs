//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one span — name, start, end, parent, op id —
//! around each public layer call the benchmark makes, keeps them in
//! memory while the op runs, and writes them out as JSON lines at the
//! end. Self time (a span's duration minus its children's) is what the
//! per-layer report attributes to a layer.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `planner.plan`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Number of spans.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
    /// Each span's wall duration, ns (for percentiles).
    pub samples_ns: Vec<u64>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregates the spans recorded since index `from`, by name.
    pub fn stats_since(&self, from: usize) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
            e.samples_ns.push(s.duration_ns());
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out
    }
}

/// Runs `f`, inside a span named `name` when `tracer` is given.
pub fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.stats_since(0);
        let outer = &s["outer"];
        let inner = &s["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }
}
