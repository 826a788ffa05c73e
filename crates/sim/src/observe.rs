//! Observability: Chrome-trace export and time attribution.
//!
//! Two facilities, both dependency-free and deterministic:
//!
//! 1. [`ChromeTraceWriter`] — renders one or more solved [`Timeline`]s as
//!    Chrome trace-event JSON (the format understood by `ui.perfetto.dev`
//!    and `chrome://tracing`). One track per resource, complete (`"X"`)
//!    events for operations, flow events along cross-resource dependency
//!    edges, and counter (`"C"`) tracks for sampled quantities such as
//!    the [`crate::memprof`] memory/bandwidth profiles. Output is
//!    byte-stable: same graph + timeline ⇒ same bytes, regardless of
//!    solver thread count or host.
//! 2. [`attribute`] — classifies every nanosecond of every resource into
//!    one of five [`Category`]s (compute, pipeline comm, data-parallel
//!    comm, comm-wait, bubble) and rolls the result into a [`Breakdown`]
//!    whose categories tile the timeline exactly:
//!    `sum over categories == makespan × num_resources`, asserted.
//!
//! Counts and wall-clock spans of the system itself (searches, retries,
//! sweeps, planner sessions) are not kept here: they all go to the one
//! registry, [`crate::metrics::MetricsRegistry`].
//!
//! The classification of *busy* intervals is caller-defined (the simulator
//! does not know what an op tag means): [`attribute`] and
//! [`ChromeTraceWriter::add_timeline`] both take closures mapping ops to
//! an [`OpCategory`]. Idle gaps are classified by the solver semantics
//! alone — see [`attribute`] for the binding-dependency rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::graph::{OpGraph, OpId, ResourceId};
use crate::json::{escape, Value};
use crate::solver::Timeline;
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// The class of work a *busy* interval performs.
///
/// This is the caller-supplied half of attribution: the simulator knows
/// when each op runs, the caller knows what kind of op it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpCategory {
    /// A kernel: forward/backward work on a compute stream.
    Compute,
    /// Point-to-point pipeline-parallel communication (activations/grads).
    PpComm,
    /// Data-parallel collective communication (all-gather / reduce-scatter).
    DpComm,
}

impl OpCategory {
    /// Short lowercase name, used as the Chrome-trace `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            OpCategory::Compute => "compute",
            OpCategory::PpComm => "pp-comm",
            OpCategory::DpComm => "dp-comm",
        }
    }

    fn as_category(self) -> Category {
        match self {
            OpCategory::Compute => Category::Compute,
            OpCategory::PpComm => Category::PpComm,
            OpCategory::DpComm => Category::DpComm,
        }
    }
}

/// Full attribution category of an interval on a resource.
///
/// The first three mirror [`OpCategory`] (busy time); the last two
/// partition idle time by *why* the resource was idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Busy running a kernel.
    Compute,
    /// Busy doing pipeline-parallel (point-to-point) communication.
    PpComm,
    /// Busy doing data-parallel collective communication.
    DpComm,
    /// Idle, where the operation that eventually ran was released by a
    /// communication op finishing: the resource was *waiting on comm*.
    CommWait,
    /// Idle with no communication to blame: a pipeline bubble (ramp-up /
    /// ramp-down, dependency stalls on compute, or trailing idle).
    Bubble,
}

impl Category {
    /// All categories, in rendering order.
    pub const ALL: [Category; 5] = [
        Category::Compute,
        Category::PpComm,
        Category::DpComm,
        Category::CommWait,
        Category::Bubble,
    ];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::PpComm => "pp-comm",
            Category::DpComm => "dp-comm",
            Category::CommWait => "comm-wait",
            Category::Bubble => "bubble",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::PpComm => 1,
            Category::DpComm => 2,
            Category::CommWait => 3,
            Category::Bubble => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------------

/// Per-resource attribution totals. Produced by [`attribute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBreakdown {
    resource: ResourceId,
    name: String,
    by: [SimDuration; 5],
}

impl ResourceBreakdown {
    /// The resource these totals describe.
    pub fn resource(&self) -> ResourceId {
        self.resource
    }

    /// The resource's name (as registered on the graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time attributed to `cat` on this resource.
    pub fn time(&self, cat: Category) -> SimDuration {
        self.by[cat.index()]
    }

    /// Sum over all categories; equals the timeline makespan.
    pub fn total(&self) -> SimDuration {
        self.by.iter().copied().sum()
    }
}

/// Exact, category-complete accounting of a solved [`Timeline`].
///
/// Invariant (asserted at construction): for every resource the five
/// category totals sum to the makespan, so the grand total is
/// `makespan × num_resources`. There is no "other" bucket and no
/// rounding — all arithmetic is integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    resources: Vec<ResourceBreakdown>,
    makespan: SimDuration,
}

impl Breakdown {
    /// Per-resource rows, in [`ResourceId`] order.
    pub fn per_resource(&self) -> &[ResourceBreakdown] {
        &self.resources
    }

    /// The timeline's makespan.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// Number of resources covered.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Total time attributed to `cat` across all resources.
    pub fn total(&self, cat: Category) -> SimDuration {
        self.resources.iter().map(|r| r.time(cat)).sum()
    }

    /// Grand total over all categories and resources.
    /// Always equals `makespan × num_resources`.
    pub fn grand_total(&self) -> SimDuration {
        self.makespan * self.resources.len() as u64
    }

    /// Fraction of all resource-time attributed to `cat` (0.0 when the
    /// timeline is empty).
    pub fn fraction(&self, cat: Category) -> f64 {
        self.total(cat).ratio(self.grand_total())
    }

    /// Renders a small fixed-width table of the breakdown, one row per
    /// resource plus a totals row. Intended for logs and examples.
    pub fn render_table(&self) -> String {
        let name_w = self
            .resources
            .iter()
            .map(|r| r.name.len())
            .chain(["total".len()])
            .max()
            .unwrap_or(5)
            .max(8);
        let mut out = String::new();
        let _ = write!(out, "{:name_w$}", "resource");
        for cat in Category::ALL {
            let _ = write!(out, " {:>12}", cat.name());
        }
        out.push('\n');
        for row in &self.resources {
            let _ = write!(out, "{:name_w$}", row.name);
            for cat in Category::ALL {
                let _ = write!(out, " {:>12}", row.time(cat).to_string());
            }
            out.push('\n');
        }
        let _ = write!(out, "{:name_w$}", "total");
        for cat in Category::ALL {
            let _ = write!(out, " {:>12}", self.total(cat).to_string());
        }
        out.push('\n');
        out
    }
}

/// Attributes every interval of every resource in `timeline` to a
/// [`Category`], using `classify` for busy intervals.
///
/// Rules (see DESIGN.md §10 for the rationale):
///
/// * A **busy** interval `[start, end)` of an op is attributed to the
///   op's own [`OpCategory`].
/// * An **idle gap** before an op is attributed by the op's *binding
///   dependency* — the dependency whose completion released the op.
///   Because resources are FIFO, an op starts at
///   `max(previous op's end, max over deps of dep end)`; when a gap
///   exists, the binding dependency is any dep finishing exactly at the
///   op's start. If at least one binding dependency is a communication
///   op ([`OpCategory::PpComm`] / [`OpCategory::DpComm`]) the gap is
///   [`Category::CommWait`]; otherwise (compute-bound or no dependency
///   information) it is a [`Category::Bubble`].
/// * **Leading and trailing idle** (before a resource's first op, after
///   its last, or the whole makespan for an empty resource) is a
///   [`Category::Bubble`].
///
/// The returned [`Breakdown`] reconciles exactly: per resource the five
/// categories sum to the makespan (asserted), so the grand total is
/// `makespan × num_resources`.
///
/// # Panics
///
/// Panics if `timeline` was not produced by solving `graph` (mismatched
/// op or resource counts break the tiling invariant).
pub fn attribute<T>(
    graph: &OpGraph<T>,
    timeline: &Timeline,
    mut classify: impl FnMut(OpId, &T) -> OpCategory,
) -> Breakdown {
    assert_eq!(
        graph.num_resources(),
        timeline.num_resources(),
        "attribute: timeline does not match graph (resource count)"
    );
    let makespan = timeline.makespan();
    let mut resources = Vec::with_capacity(graph.num_resources());
    for r in graph.resource_ids() {
        let mut by = [SimDuration::ZERO; 5];
        let mut cursor = crate::time::SimTime::ZERO;
        for &op in graph.resource_queue(r) {
            let start = timeline.start_of(op);
            let end = timeline.end_of(op);
            let gap = start.duration_since(cursor);
            if !gap.is_zero() {
                // The op waited. Find what released it: any dependency
                // finishing exactly at `start` is a binding dependency
                // (FIFO semantics guarantee one exists when the gap is
                // not caused by the previous op on this resource —
                // which it cannot be, since cursor == previous end).
                let mut comm_bound = false;
                for &d in graph.deps_of(op) {
                    if timeline.end_of(d) == start {
                        let cat = classify(d, graph.op(d).tag());
                        if matches!(cat, OpCategory::PpComm | OpCategory::DpComm) {
                            comm_bound = true;
                            break;
                        }
                    }
                }
                let idle = if comm_bound {
                    Category::CommWait
                } else {
                    Category::Bubble
                };
                by[idle.index()] += gap;
            }
            let busy = classify(op, graph.op(op).tag()).as_category();
            by[busy.index()] += end.duration_since(start);
            cursor = end;
        }
        // Trailing idle up to the makespan is ramp-down bubble.
        let end_of_time = crate::time::SimTime::ZERO + makespan;
        by[Category::Bubble.index()] += end_of_time.duration_since(cursor);
        let total: SimDuration = by.iter().copied().sum();
        assert_eq!(
            total,
            makespan,
            "attribute: categories do not tile resource {:?} ({})",
            r,
            graph.resource_name(r)
        );
        resources.push(ResourceBreakdown {
            resource: r,
            name: graph.resource_name(r).to_string(),
            by,
        });
    }
    let breakdown = Breakdown {
        resources,
        makespan,
    };
    debug_assert_eq!(
        Category::ALL
            .iter()
            .map(|&c| breakdown.total(c))
            .sum::<SimDuration>(),
        breakdown.grand_total()
    );
    breakdown
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

/// A value in a trace event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (bytes, flops, ids).
    U64(u64),
    /// Float (rates, fractions). Rendered with Rust's shortest-roundtrip
    /// formatting, which is platform-independent.
    F64(f64),
    /// String (names, labels). JSON-escaped on render.
    Str(String),
}

/// Description of one op for the exporter: display name, category and
/// optional `args` rendered into the event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Event name shown on the slice (escaped on render; quotes and
    /// newlines are safe).
    pub name: String,
    /// Busy category; becomes the event's `cat` field and its track
    /// colouring in Perfetto.
    pub category: OpCategory,
    /// Extra key/value pairs for the event's `args` object, rendered in
    /// the given order.
    pub args: Vec<(String, ArgValue)>,
}

/// Where a resource's events land in the trace: Perfetto groups tracks
/// by `pid` (one "process" per device works well) and labels each `tid`
/// as a named thread ("compute" / "pp" / "dp" streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Process id. All resources of one device should share a pid.
    pub pid: u32,
    /// Process display name (e.g. `"gpu0"`). First writer wins per pid.
    pub process: String,
    /// Thread display name (e.g. `"compute"`).
    pub thread: String,
}

/// Streaming builder for Chrome trace-event JSON.
///
/// Add one or more solved timelines with [`add_timeline`] (and,
/// optionally, counter samples with [`add_counter`]), then call
/// [`finish`] for the JSON document. Output ordering is deterministic:
/// metadata events sorted by (pid, tid), then op events in op-id order
/// per timeline, then counter samples in call order, then flow events in
/// discovery order — so the bytes are stable across runs and solver
/// thread counts.
///
/// [`add_timeline`]: ChromeTraceWriter::add_timeline
/// [`add_counter`]: ChromeTraceWriter::add_counter
/// [`finish`]: ChromeTraceWriter::finish
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    op_events: Vec<String>,
    counter_events: Vec<String>,
    flow_events: Vec<String>,
    processes: BTreeMap<u32, String>,
    threads: BTreeMap<(u32, u32), (String, u32)>,
    next_flow_id: u64,
}

/// Formats nanoseconds as the microsecond decimal Chrome traces expect,
/// using integer math only (no float formatting in timestamps).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn render_arg(value: &ArgValue) -> String {
    match value {
        ArgValue::U64(v) => v.to_string(),
        ArgValue::F64(v) if v.is_finite() => v.to_string(),
        ArgValue::F64(_) => "null".to_string(),
        ArgValue::Str(s) => format!("\"{}\"", escape(s)),
    }
}

impl ChromeTraceWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders `timeline` (a solution of `graph`) into the trace.
    ///
    /// `track_of` maps each resource to its [`Track`] (pid/process name/
    /// thread name); `describe` maps each op to its display [`TraceOp`].
    /// Cross-resource dependency edges become flow arrows; same-resource
    /// edges are implied by FIFO order and are omitted to keep traces
    /// readable.
    ///
    /// Distinct `add_timeline` calls should use disjoint pid ranges so
    /// the schedules appear as separate process groups.
    pub fn add_timeline<T>(
        &mut self,
        graph: &OpGraph<T>,
        timeline: &Timeline,
        mut track_of: impl FnMut(ResourceId) -> Track,
        mut describe: impl FnMut(OpId, &T) -> TraceOp,
    ) {
        // Register tracks in resource order; thread_sort_index keeps the
        // Perfetto display in resource order rather than alphabetical.
        let mut tids = Vec::with_capacity(graph.num_resources());
        for r in graph.resource_ids() {
            let track = track_of(r);
            let tid = r.index() as u32;
            self.processes
                .entry(track.pid)
                .or_insert_with(|| track.process.clone());
            self.threads
                .entry((track.pid, tid))
                .or_insert_with(|| (track.thread.clone(), tid));
            tids.push((track.pid, tid));
        }
        // Complete ("X") events, one per op, in op-id order.
        for op in graph.op_ids() {
            let r = graph.op(op).resource();
            let (pid, tid) = tids[r.index()];
            let desc = describe(op, graph.op(op).tag());
            let start = timeline.start_of(op).as_nanos();
            let dur = timeline.end_of(op).as_nanos() - start;
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
                escape(&desc.name),
                desc.category.name(),
                fmt_us(start),
                fmt_us(dur),
                pid,
                tid,
            );
            if !desc.args.is_empty() {
                ev.push_str(",\"args\":{");
                for (i, (key, value)) in desc.args.iter().enumerate() {
                    if i > 0 {
                        ev.push(',');
                    }
                    let _ = write!(ev, "\"{}\":{}", escape(key), render_arg(value));
                }
                ev.push('}');
            }
            ev.push('}');
            self.op_events.push(ev);
        }
        // Flow events along cross-resource dependency edges.
        for op in graph.op_ids() {
            let (dst_pid, dst_tid) = tids[graph.op(op).resource().index()];
            for &dep in graph.deps_of(op) {
                let dep_res = graph.op(dep).resource();
                if dep_res == graph.op(op).resource() {
                    continue;
                }
                let (src_pid, src_tid) = tids[dep_res.index()];
                let id = self.next_flow_id;
                self.next_flow_id += 1;
                self.flow_events.push(format!(
                    "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    id,
                    fmt_us(timeline.end_of(dep).as_nanos().saturating_sub(1)),
                    src_pid,
                    src_tid,
                ));
                self.flow_events.push(format!(
                    "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    id,
                    fmt_us(timeline.start_of(op).as_nanos()),
                    dst_pid,
                    dst_tid,
                ));
            }
        }
    }

    /// Appends one counter (`"ph":"C"`) sample: the value of each named
    /// series under `name`'s counter track of process `pid` at `ts_ns`.
    ///
    /// Multiple series in one sample render as a *stacked* counter track
    /// in Perfetto (the memory profile uses one series per buffer class).
    /// Samples are emitted in call order, so callers must add them in
    /// ascending time per counter for a well-formed track; the bytes are
    /// a pure function of the arguments (integer-only formatting).
    pub fn add_counter(
        &mut self,
        pid: u32,
        process: &str,
        name: &str,
        ts_ns: u64,
        values: &[(&str, u64)],
    ) {
        self.processes
            .entry(pid)
            .or_insert_with(|| process.to_string());
        let mut ev = format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"args\":{{",
            escape(name),
            fmt_us(ts_ns),
            pid,
        );
        for (i, (key, value)) in values.iter().enumerate() {
            if i > 0 {
                ev.push(',');
            }
            let _ = write!(ev, "\"{}\":{}", escape(key), value);
        }
        ev.push_str("}}");
        self.counter_events.push(ev);
    }

    /// Assembles the final JSON document.
    pub fn finish(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(
            self.processes.len()
                + self.threads.len() * 2
                + self.op_events.len()
                + self.counter_events.len()
                + self.flow_events.len(),
        );
        for (pid, name) in &self.processes {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                escape(name)
            ));
        }
        for ((pid, tid), (name, sort)) in &self.threads {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                tid,
                escape(name)
            ));
            events.push(format!(
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"sort_index\":{}}}}}",
                pid, tid, sort
            ));
        }
        events.extend(self.op_events.iter().cloned());
        events.extend(self.counter_events.iter().cloned());
        events.extend(self.flow_events.iter().cloned());
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, ev) in events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// JSON well-formedness checker (for tests / examples)
// ---------------------------------------------------------------------------

/// Validates that `s` is a single well-formed JSON value.
///
/// A call into the workspace's one parser ([`crate::json`]: strict
/// RFC 8259 grammar, nesting capped at [`crate::json::MAX_DEPTH`]), so
/// trace and metrics output can be schema-checked in tests without a
/// JSON dependency. Returns the byte offset and a message on the first
/// error.
pub fn validate_json(s: &str) -> Result<(), String> {
    Value::parse(s).map(drop).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpGraph, SimDuration};

    /// A two-resource graph with a compute op waiting on a comm op and a
    /// later dependency-free gap (pure bubble).
    fn comm_wait_graph() -> (OpGraph<OpCategory>, OpId, OpId, OpId) {
        let mut g: OpGraph<OpCategory> = OpGraph::new();
        let compute = g.add_resource("compute");
        let net = g.add_resource("net");
        let a = g.add_op(
            compute,
            SimDuration::from_micros(5),
            &[],
            OpCategory::Compute,
        );
        let send = g.add_op(net, SimDuration::from_micros(7), &[a], OpCategory::PpComm);
        // b waits 2us on the wire after a finishes: comm-wait.
        let b = g.add_op(
            compute,
            SimDuration::from_micros(5),
            &[send],
            OpCategory::Compute,
        );
        (g, a, send, b)
    }

    fn tag_classify(_: OpId, tag: &OpCategory) -> OpCategory {
        *tag
    }

    #[test]
    fn attribution_tiles_and_classifies_comm_wait() {
        let (g, _, _, _) = comm_wait_graph();
        let tl = g.solve().unwrap();
        let bd = attribute(&g, &tl, tag_classify);
        // makespan = 5 + 7 + 5 = 17us.
        assert_eq!(bd.makespan(), SimDuration::from_micros(17));
        assert_eq!(bd.grand_total(), SimDuration::from_micros(34));
        let sum: SimDuration = Category::ALL.iter().map(|&c| bd.total(c)).sum();
        assert_eq!(sum, bd.grand_total());
        // compute stream: a runs [0,5), send runs [5,12) on the wire,
        // b waits for it and runs [12,17): 10us busy + 7us comm-wait.
        let compute_row = &bd.per_resource()[0];
        assert_eq!(
            compute_row.time(Category::Compute),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            compute_row.time(Category::CommWait),
            SimDuration::from_micros(7)
        );
        assert_eq!(compute_row.time(Category::Bubble), SimDuration::ZERO);
        // net stream: 7us busy pp-comm, 5us leading bubble, 5us trailing.
        let net_row = &bd.per_resource()[1];
        assert_eq!(net_row.time(Category::PpComm), SimDuration::from_micros(7));
        assert_eq!(net_row.time(Category::Bubble), SimDuration::from_micros(10));
    }

    #[test]
    fn attribution_compute_bound_gap_is_bubble() {
        let mut g: OpGraph<OpCategory> = OpGraph::new();
        let r0 = g.add_resource("r0");
        let r1 = g.add_resource("r1");
        let a = g.add_op(r0, SimDuration::from_micros(9), &[], OpCategory::Compute);
        let _b = g.add_op(r1, SimDuration::from_micros(4), &[a], OpCategory::Compute);
        let tl = g.solve().unwrap();
        let bd = attribute(&g, &tl, tag_classify);
        // r1 idles 9us waiting on a *compute* dep: bubble, not comm-wait.
        let r1_row = &bd.per_resource()[1];
        assert_eq!(r1_row.time(Category::Bubble), SimDuration::from_micros(9));
        assert_eq!(r1_row.time(Category::CommWait), SimDuration::ZERO);
    }

    #[test]
    fn exporter_escapes_hostile_names() {
        let mut g: OpGraph<String> = OpGraph::new();
        let r = g.add_resource("gpu0.compute");
        g.add_op(
            r,
            SimDuration::from_micros(1),
            &[],
            "fwd \"quoted\"\nline2\ttab\\slash".to_string(),
        );
        let tl = g.solve().unwrap();
        let mut w = ChromeTraceWriter::new();
        w.add_timeline(
            &g,
            &tl,
            |_| Track {
                pid: 0,
                process: "gpu\"0\"".to_string(),
                thread: "compute\nstream".to_string(),
            },
            |_, tag| TraceOp {
                name: tag.clone(),
                category: OpCategory::Compute,
                args: vec![("label".to_string(), ArgValue::Str("a\"b\nc".to_string()))],
            },
        );
        let json = w.finish();
        validate_json(&json).expect("escaped output must stay well-formed");
        assert!(json.contains("fwd \\\"quoted\\\"\\nline2\\ttab\\\\slash"));
        assert!(json.contains("gpu\\\"0\\\""));
        assert!(json.contains("compute\\nstream"));
        assert!(json.contains("a\\\"b\\nc"));
    }

    #[test]
    fn exporter_emits_flow_events_for_cross_resource_edges() {
        let (g, _, _, _) = comm_wait_graph();
        let tl = g.solve().unwrap();
        let mut w = ChromeTraceWriter::new();
        w.add_timeline(
            &g,
            &tl,
            |r| Track {
                pid: 0,
                process: "gpu0".to_string(),
                thread: format!("r{}", r.index()),
            },
            |_, tag| TraceOp {
                name: tag.name().to_string(),
                category: *tag,
                args: vec![],
            },
        );
        let json = w.finish();
        validate_json(&json).unwrap();
        // a -> send and send -> b are both cross-resource: two flows.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn exporter_is_deterministic() {
        let (g, _, _, _) = comm_wait_graph();
        let export = || {
            let tl = g.solve().unwrap();
            let mut w = ChromeTraceWriter::new();
            w.add_timeline(
                &g,
                &tl,
                |r| Track {
                    pid: 7,
                    process: "gpu7".to_string(),
                    thread: format!("r{}", r.index()),
                },
                |op, tag| TraceOp {
                    name: format!("op{}", op.index()),
                    category: *tag,
                    args: vec![("i".to_string(), ArgValue::U64(op.index() as u64))],
                },
            );
            w.finish()
        };
        assert_eq!(export(), export());
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}").unwrap();
        validate_json("  [ ]  ").unwrap();
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_err());
        assert!(validate_json("{\"a\":1} trailing").is_err());
        assert!(validate_json("\"bad\u{1}ctl\"").is_err());
    }

    #[test]
    fn breakdown_table_renders_totals() {
        let (g, _, _, _) = comm_wait_graph();
        let tl = g.solve().unwrap();
        let bd = attribute(&g, &tl, tag_classify);
        let table = bd.render_table();
        assert!(table.contains("resource"));
        assert!(table.contains("compute"));
        assert!(table.contains("total"));
    }
}
