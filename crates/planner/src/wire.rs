//! The daemon's wire schema: NDJSON request parsing and response-line
//! building, factored out of the `planner_daemon` binary so every
//! branch — including the malformed-input ones the supervision story
//! depends on — is unit-testable without a subprocess.
//!
//! One JSON object per line in; one JSON object per line out. Inbound
//! lines are either a planning request (`{"model": ..., "batch": ...}`
//! plus options — see the `planner_daemon` docs for the full field
//! list, including the elastic `"delta"` object that re-plans a
//! topology change) or a control line:
//!
//! * `{"drain": true}` — cancel and join every live session, answer
//!   with a `drained` line of the metrics registry's session outcome
//!   counters, exit cleanly;
//! * `{"ping": true}` — liveness probe, answered immediately with a
//!   `pong` carrying the daemon's version;
//! * `{"stats": true}` — introspection: answered with a `stats` line
//!   carrying the full telemetry snapshot (counters, gauges, histogram
//!   summaries), without disturbing live sessions.
//!
//! Outbound lines are typed by their `"event"` field:
//!
//! * `improved` — a new best-so-far from the deterministic reduction;
//! * `progress` — a periodic heartbeat for a live session (candidates
//!   visited, pruned split, best-so-far), emitted between events when
//!   the daemon runs with `--progress-every-ms`;
//! * `done` — terminal: the winner (or `"ok":false`), the report
//!   counters, and the `cancelled` / `timed_out` flags;
//! * `failed` — terminal: the session panicked; the supervisor
//!   quarantined its caches and stringified the panic payload;
//! * `rejected` — terminal: admission control declined the request
//!   (`reason` carries the typed [`RejectReason`] rendering);
//! * `pong` / `stats` — answers to the control probes above;
//! * `error` — the line never became a session: malformed JSON (with
//!   the byte offset of the failure in `"at"`) or an invalid field.
//!   The daemon emits this and keeps reading — bad input is answered,
//!   never fatal.
//!
//! Field checking is strict: an absent optional field takes its
//! default, but a present one that has the wrong type (`"nodes":"2"`),
//! is fractional where an integer is expected (`"deadline_ms":0.5`), or
//! is outside the range its constructor accepts (`"jitter":1.5`,
//! `"nodes":0`) is an `error` naming the field — never a silent default
//! and never a panic on the daemon's read loop.

use std::time::Duration;

use bfpp_cluster::{presets as clusters, ClusterSpec, NodeId, NodeSpec};
use bfpp_exec::search::{Method, ProgressSnapshot, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::{KernelModel, MetricsSnapshot};
use bfpp_sim::json::{escape, Value};
use bfpp_sim::Perturbation;

use crate::{ClusterDelta, PlanRequest, RejectReason};

/// One parsed inbound line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a planning session.
    Plan {
        /// The client's `"id"`, or the caller-supplied fallback
        /// (`line-N`) when absent — echoed on every response line.
        id: String,
        /// The request to run.
        req: Box<PlanRequest>,
        /// An elastic topology change to apply before planning
        /// (`"delta":{"drop_node":N}` / `{"add_node":"<node-preset>"}`):
        /// the line's `cluster`/`nodes` fields name the *pre-delta*
        /// topology, and the daemon plans its post-delta form through
        /// [`crate::Planner::apply_delta`].
        delta: Option<ClusterDelta>,
    },
    /// `{"drain": true}`: stop admitting, cancel and join every live
    /// session, report the session outcome counters, exit 0.
    Drain,
    /// `{"ping": true}`: liveness probe; answered with
    /// [`pong_line`] and nothing else changes.
    Ping,
    /// `{"stats": true}`: telemetry introspection; answered with
    /// [`stats_line`] built from a fresh registry snapshot.
    Stats,
}

/// Why an inbound line did not become a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The id to echo (the request's own if it parsed far enough to
    /// have one, else the fallback).
    pub id: String,
    /// Byte offset of a JSON syntax failure, when that is what broke.
    pub at: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

/// Parses one inbound NDJSON line. `fallback_id` names the line (the
/// daemon uses `line-N`) when the client supplied no `"id"`.
///
/// # Errors
///
/// Returns a [`WireError`] — with the byte offset of the failure for
/// JSON syntax errors — for anything that cannot become a [`Request`].
pub fn parse_line(line: &str, fallback_id: &str) -> Result<Request, WireError> {
    let v = match Value::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Err(WireError {
                id: fallback_id.to_string(),
                at: Some(e.at),
                msg: e.msg,
            })
        }
    };
    if v.get("drain").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Drain);
    }
    if v.get("ping").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Ping);
    }
    if v.get("stats").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Stats);
    }
    let id = match field(&v, "id", STRING, Value::as_str) {
        Ok(id) => id.unwrap_or(fallback_id).to_string(),
        Err(msg) => {
            return Err(WireError {
                id: fallback_id.to_string(),
                at: None,
                msg,
            })
        }
    };
    match build_request(&v).and_then(|req| Ok((req, delta_of(&v)?))) {
        Ok((req, delta)) => Ok(Request::Plan {
            id,
            req: Box::new(req),
            delta,
        }),
        Err(msg) => Err(WireError { id, at: None, msg }),
    }
}

/// The largest `nodes` the two mixed presets accept. Both build one
/// node spec per node on the daemon's read loop, and the asymmetric
/// preset also adds a fabric link per cross-island node pair, so a huge
/// count would stall every line queued behind it or exhaust memory. At
/// this bound the asymmetric build takes about 0.1 s.
const MAX_MIXED_NODES: u32 = 256;

const STRING: &str = "a string";
const NUMBER: &str = "a number";
const INTEGER: &str = "a non-negative integer of at most 9e15";

/// Reads the optional field `name` of `v` through `read` (one of
/// [`Value`]'s typed accessors): `Ok(None)` when the field is absent,
/// and an error naming the field when it is present but not `what` — a
/// mistyped value never silently becomes the default.
fn field<'v, T>(
    v: &'v Value,
    name: &str,
    what: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(name)
        .map(|x| read(x).ok_or_else(|| format!("field \"{name}\" must be {what}")))
        .transpose()
}

/// An optional integer field that must fit a `u32`: an oversized value
/// is a typed error, never a silent truncation.
fn u32_field(v: &Value, name: &str) -> Result<Option<u32>, String> {
    field(v, name, INTEGER, Value::as_u64)?
        .map(|n| u32::try_from(n).map_err(|_| format!("field \"{name}\" too large")))
        .transpose()
}

/// A perturbation slow-down multiplier: finite and at least 1, the
/// range [`Perturbation`]'s constructors accept.
fn slowdown(name: &str, m: f64) -> Result<f64, String> {
    if m >= 1.0 && m.is_finite() {
        Ok(m)
    } else {
        Err(format!(
            "field \"{name}\" must be a finite number >= 1, got {m}"
        ))
    }
}

fn build_request(v: &Value) -> Result<PlanRequest, String> {
    let model_name =
        field(v, "model", STRING, Value::as_str)?.ok_or("missing string field \"model\"")?;
    let model = bfpp_model::presets::by_name(model_name)
        .ok_or_else(|| format!("unknown model {model_name:?}"))?;

    let nodes = match u32_field(v, "nodes")? {
        Some(0) => return Err("field \"nodes\" must be at least 1".to_string()),
        Some(n) => n,
        None => 8,
    };
    let cluster = cluster_by_name(
        field(v, "cluster", STRING, Value::as_str)?.unwrap_or("dgx1_v100"),
        nodes,
    )?;

    let method = match field(v, "method", STRING, Value::as_str)?.unwrap_or("breadth_first") {
        "breadth_first" | "breadth-first" => Method::BreadthFirst,
        "depth_first" | "depth-first" => Method::DepthFirst,
        "non_looped" | "non-looped" => Method::NonLooped,
        "no_pipeline" | "no-pipeline" => Method::NoPipeline,
        other => return Err(format!("unknown method {other:?}")),
    };

    let kernel = match field(v, "kernel", STRING, Value::as_str)?.unwrap_or("v100") {
        "v100" => KernelModel::v100(),
        "a100" => KernelModel::a100(),
        "ideal" => KernelModel::ideal(),
        other => return Err(format!("unknown kernel model {other:?}")),
    };

    let global_batch =
        field(v, "batch", INTEGER, Value::as_u64)?.ok_or("missing integer field \"batch\"")?;

    let mut opts = SearchOptions::default();
    if let Some(t) = field(v, "threads", INTEGER, Value::as_u64)? {
        opts.threads = usize::try_from(t).map_err(|_| "field \"threads\" too large")?;
    }
    if let Some(m) = u32_field(v, "max_microbatch")? {
        opts.max_microbatch = m;
    }
    if let Some(l) = u32_field(v, "max_loop")? {
        opts.max_loop = l;
    }
    if let Some(a) = field(v, "max_actions", INTEGER, Value::as_u64)? {
        opts.max_actions = a;
    }
    if let Some(d) = field(v, "deadline_ms", INTEGER, Value::as_u64)? {
        opts.deadline = Some(Duration::from_millis(d));
    }
    opts.max_candidates = field(v, "max_candidates", INTEGER, Value::as_u64)?;
    opts.perturbation = perturbation_of(v)?;
    Ok(PlanRequest {
        model,
        cluster,
        method,
        global_batch,
        kernel,
        opts,
        objective: Default::default(),
        fault: None,
    })
}

fn cluster_by_name(name: &str, nodes: u32) -> Result<ClusterSpec, String> {
    // The mixed presets split `nodes` into a V100 island and an A100
    // island (V100s take the extra node when odd).
    let islands = || {
        if nodes < 2 {
            return Err(format!("cluster {name:?} needs at least 2 nodes"));
        }
        if nodes > MAX_MIXED_NODES {
            return Err(format!(
                "cluster {name:?} takes at most {MAX_MIXED_NODES} nodes, got {nodes}"
            ));
        }
        Ok((nodes - nodes / 2, nodes / 2))
    };
    Ok(match name {
        "dgx1_v100" => clusters::dgx1_v100(nodes),
        "dgx1_v100_ethernet" => clusters::dgx1_v100_ethernet(nodes),
        "dgx_a100" => clusters::dgx_a100(nodes),
        "dgx_a100_80gb" => clusters::dgx_a100_80gb(nodes),
        "mixed_v100_a100" => {
            let (v, a) = islands()?;
            clusters::mixed_v100_a100(v, a)
        }
        "mixed_v100_a100_asym" => {
            let (v, a) = islands()?;
            clusters::mixed_v100_a100_asym(v, a)
        }
        "paper" => clusters::paper_cluster(),
        "figure1" => clusters::figure1_cluster(),
        other => return Err(format!("unknown cluster {other:?}")),
    })
}

fn node_by_name(name: &str) -> Result<NodeSpec, String> {
    Ok(match name {
        "dgx1_v100" => NodeSpec::dgx1_v100(),
        "dgx1_v100_ethernet" => NodeSpec::dgx1_v100_ethernet(),
        "dgx_a100_40gb" => NodeSpec::dgx_a100_40gb(),
        "dgx_a100_80gb" => NodeSpec::dgx_a100_80gb(),
        other => return Err(format!("unknown node preset {other:?}")),
    })
}

/// Parses the optional `"delta"` object: `{"drop_node": N}` or
/// `{"add_node": "<node-preset>"}`.
fn delta_of(v: &Value) -> Result<Option<ClusterDelta>, String> {
    let Some(d) = v.get("delta") else {
        return Ok(None);
    };
    if let Some(node) = u32_field(d, "drop_node")? {
        return Ok(Some(ClusterDelta::drop_node(NodeId(node))));
    }
    if let Some(name) = field(d, "add_node", STRING, Value::as_str)? {
        return Ok(Some(ClusterDelta::add_node(node_by_name(name)?)));
    }
    Err("delta needs integer \"drop_node\" or string \"add_node\"".to_string())
}

/// Parses the perturbation fields. Each value is range-checked here, so
/// the `Perturbation` constructors' asserts can never fire on wire
/// input.
fn perturbation_of(v: &Value) -> Result<Perturbation, String> {
    let seed = field(v, "seed", INTEGER, Value::as_u64)?.unwrap_or(0);
    let mut p = Perturbation::with_seed(seed);
    if let Some(s) = v.get("straggler") {
        let device = u32_field(s, "device")?.ok_or("straggler needs integer \"device\"")?;
        let factor = field(s, "factor", NUMBER, Value::as_f64)?
            .ok_or("straggler needs number \"factor\"")?;
        p = p.with_straggler(device, slowdown("factor", factor)?);
    }
    if let Some(j) = field(v, "jitter", NUMBER, Value::as_f64)? {
        if !(0.0..1.0).contains(&j) {
            return Err(format!("field \"jitter\" must be in [0, 1), got {j}"));
        }
        p = p.with_jitter(j);
    }
    if let Some(l) = field(v, "link_degradation", NUMBER, Value::as_f64)? {
        p = p.with_link_degradation(slowdown("link_degradation", l)?);
    }
    Ok(p)
}

fn config_fields(r: &SearchResult) -> String {
    format!(
        "\"tflops\":{:.4},\"dp\":{},\"tp\":{},\"pp\":{},\"loops\":{},\"microbatch\":{},\"kind\":\"{:?}\"",
        r.measurement.tflops_per_gpu,
        r.cfg.grid.n_dp,
        r.cfg.grid.n_tp,
        r.cfg.grid.n_pp,
        r.cfg.placement.n_loop(),
        r.cfg.batch.microbatch_size,
        r.kind,
    )
}

/// The `improved` response line.
pub fn improved_line(id: &str, r: &SearchResult) -> String {
    format!(
        "{{\"id\":\"{}\",\"event\":\"improved\",{}}}",
        escape(id),
        config_fields(r)
    )
}

/// The terminal `done` response line.
pub fn done_line(id: &str, result: Option<&SearchResult>, report: &SearchReport) -> String {
    let body = match result {
        Some(r) => format!("\"ok\":true,{}", config_fields(r)),
        None => "\"ok\":false".to_string(),
    };
    format!(
        "{{\"id\":\"{}\",\"event\":\"done\",{},\"enumerated\":{},\"simulated\":{},\
         \"warm_start\":{},\"warm_hits\":{},\"cancelled\":{},\"timed_out\":{}}}",
        escape(id),
        body,
        report.enumerated,
        report.simulated,
        report.warm_start,
        report.warm_hits,
        report.cancelled,
        report.timed_out,
    )
}

/// The terminal `failed` response line (the session panicked and was
/// isolated).
pub fn failed_line(id: &str, error: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"event\":\"failed\",\"error\":\"{}\"}}",
        escape(id),
        escape(error)
    )
}

/// The terminal `rejected` response line (admission control declined).
pub fn rejected_line(id: &str, reason: &RejectReason) -> String {
    format!(
        "{{\"id\":\"{}\",\"event\":\"rejected\",\"reason\":\"{}\"}}",
        escape(id),
        escape(&reason.to_string())
    )
}

/// The `pong` response line: liveness plus the daemon's crate version.
pub fn pong_line() -> String {
    format!(
        "{{\"event\":\"pong\",\"version\":\"{}\"}}",
        escape(env!("CARGO_PKG_VERSION"))
    )
}

/// The `progress` heartbeat line for one live session: candidates
/// visited so far (with the pruned split), best-so-far throughput, and
/// elapsed wall time. Everything except `elapsed_ms` is deterministic
/// (mirrors of the engine's thread-count-invariant counters).
pub fn progress_line(id: &str, p: &ProgressSnapshot, elapsed_ms: u64) -> String {
    let best = if p.best_millitflops > 0 {
        format!(",\"best_tflops\":{:.3}", p.best_millitflops as f64 / 1e3)
    } else {
        String::new()
    };
    format!(
        "{{\"id\":\"{}\",\"event\":\"progress\",\"enumerated\":{},\"pruned_memory\":{},\
         \"pruned_throughput\":{},\"simulated\":{},\"warm_start\":{}{},\"elapsed_ms\":{}}}",
        escape(id),
        p.enumerated,
        p.pruned_memory,
        p.pruned_throughput,
        p.simulated,
        p.warm_start,
        best,
        elapsed_ms,
    )
}

/// The `stats` response line: the whole telemetry snapshot as one JSON
/// object — counters and gauges verbatim, histograms summarized as
/// `{count, sum, min, max, p50, p90, p99}` (quantiles are bucket upper
/// bounds, so they are integral and deterministic for deterministic
/// inputs). Iteration is over `BTreeMap`s, so the rendering of equal
/// snapshots is byte-identical.
pub fn stats_line(snap: &MetricsSnapshot) -> String {
    let mut s = String::from("{\"event\":\"stats\",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", escape(name), v));
    }
    s.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", escape(name), v));
    }
    s.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{}",
            escape(name),
            h.count(),
            h.sum()
        ));
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            s.push_str(&format!(
                ",\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                min,
                max,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99)
            ));
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The `error` response line for input that never became a session.
/// Includes `"at"` (the byte offset of the failure) for JSON syntax
/// errors.
pub fn error_line(err: &WireError) -> String {
    match err.at {
        Some(at) => format!(
            "{{\"id\":\"{}\",\"event\":\"error\",\"at\":{},\"message\":\"{}\"}}",
            escape(&err.id),
            at,
            escape(&err.msg)
        ),
        None => format!(
            "{{\"id\":\"{}\",\"event\":\"error\",\"message\":\"{}\"}}",
            escape(&err.id),
            escape(&err.msg)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_minimal_request_parses_with_defaults() {
        let r = parse_line(r#"{"model":"bert-6.6b","batch":16}"#, "line-1").unwrap();
        match r {
            Request::Plan { id, req, delta } => {
                assert_eq!(id, "line-1");
                assert_eq!(req.global_batch, 16);
                assert_eq!(req.method, Method::BreadthFirst);
                assert_eq!(req.opts.deadline, None);
                assert_eq!(req.opts.max_candidates, None);
                assert!(req.fault.is_none());
                assert!(delta.is_none());
            }
            other => panic!("not a plan line: {other:?}"),
        }
    }

    #[test]
    fn budgets_ride_the_wire() {
        let r = parse_line(
            r#"{"id":"b","model":"bert-6.6b","batch":16,"deadline_ms":250,"max_candidates":64}"#,
            "line-1",
        )
        .unwrap();
        match r {
            Request::Plan { id, req, .. } => {
                assert_eq!(id, "b");
                assert_eq!(req.opts.deadline, Some(Duration::from_millis(250)));
                assert_eq!(req.opts.max_candidates, Some(64));
            }
            other => panic!("not a plan line: {other:?}"),
        }
    }

    #[test]
    fn mixed_clusters_and_deltas_ride_the_wire() {
        let r = parse_line(
            r#"{"id":"e1","model":"bert-6.6b","cluster":"mixed_v100_a100","nodes":2,
                "batch":16,"delta":{"drop_node":1}}"#,
            "line-1",
        )
        .unwrap();
        match r {
            Request::Plan { req, delta, .. } => {
                assert!(req.cluster.is_hetero(), "mixed preset is heterogeneous");
                assert_eq!(req.cluster.num_nodes, 2);
                assert_eq!(delta, Some(ClusterDelta::drop_node(NodeId(1))));
            }
            other => panic!("not a plan line: {other:?}"),
        }

        let r = parse_line(
            r#"{"model":"bert-6.6b","cluster":"mixed_v100_a100_asym","nodes":3,
                "batch":16,"delta":{"add_node":"dgx_a100_40gb"}}"#,
            "line-2",
        )
        .unwrap();
        match r {
            Request::Plan { req, delta, .. } => {
                // Odd node counts give the V100 island the extra node.
                assert_eq!(req.cluster.num_nodes, 3);
                assert_eq!(
                    delta,
                    Some(ClusterDelta::add_node(NodeSpec::dgx_a100_40gb()))
                );
            }
            other => panic!("not a plan line: {other:?}"),
        }

        // Typed failures: undersized mixed fleets, unknown node presets,
        // and deltas missing both verbs.
        for bad in [
            r#"{"model":"bert-6.6b","cluster":"mixed_v100_a100","nodes":1,"batch":16}"#,
            r#"{"model":"bert-6.6b","batch":16,"delta":{"add_node":"abacus"}}"#,
            r#"{"model":"bert-6.6b","batch":16,"delta":{}}"#,
        ] {
            let err = parse_line(bad, "line-3").unwrap_err();
            assert_eq!(err.at, None, "{}", err.msg);
        }
    }

    #[test]
    fn drain_control_line_is_recognized() {
        assert!(matches!(
            parse_line(r#"{"drain": true}"#, "line-1"),
            Ok(Request::Drain)
        ));
        // `"drain": false` is not a drain request — it falls through to
        // request parsing (and fails on the missing model).
        assert!(parse_line(r#"{"drain": false}"#, "line-1").is_err());
    }

    #[test]
    fn ping_and_stats_control_lines_are_recognized() {
        assert!(matches!(
            parse_line(r#"{"ping": true}"#, "line-1"),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_line(r#"{"stats": true}"#, "line-1"),
            Ok(Request::Stats)
        ));
        // Like drain, `false` is not a probe — it falls through to
        // request parsing and fails on the missing model.
        assert!(parse_line(r#"{"ping": false}"#, "line-1").is_err());
        assert!(parse_line(r#"{"stats": false}"#, "line-1").is_err());
    }

    #[test]
    fn pong_progress_and_stats_lines_are_valid_json() {
        let pong = pong_line();
        let v = Value::parse(&pong).expect("pong parses");
        assert_eq!(v.get("event").and_then(Value::as_str), Some("pong"));
        assert_eq!(
            v.get("version").and_then(Value::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );

        let p = ProgressSnapshot {
            enumerated: 100,
            pruned_memory: 30,
            pruned_throughput: 20,
            simulated: 10,
            best_millitflops: 12_345,
            warm_start: true,
            finished: false,
        };
        let line = progress_line("s1", &p, 250);
        let v = Value::parse(&line).expect("progress parses");
        assert_eq!(v.get("event").and_then(Value::as_str), Some("progress"));
        assert_eq!(v.get("enumerated").and_then(Value::as_u64), Some(100));
        assert_eq!(v.get("pruned_memory").and_then(Value::as_u64), Some(30));
        assert_eq!(v.get("simulated").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("best_tflops").and_then(Value::as_f64), Some(12.345));
        assert_eq!(v.get("warm_start").and_then(Value::as_bool), Some(true));
        // No winner yet → the field is absent, not 0.0.
        let quiet = progress_line("s1", &ProgressSnapshot::default(), 1);
        assert!(!quiet.contains("best_tflops"), "{quiet}");

        let m = bfpp_exec::MetricsRegistry::new();
        m.counter_add("planner_requests_completed_total", 3);
        m.gauge_set("planner_in_flight", 2);
        m.observe("planner_queue_wait_ns", 1000);
        m.observe("planner_queue_wait_ns", 9);
        let line = stats_line(&m.snapshot());
        let v = Value::parse(&line).expect("stats parses");
        assert_eq!(v.get("event").and_then(Value::as_str), Some("stats"));
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("planner_requests_completed_total")
                .and_then(Value::as_u64),
            Some(3)
        );
        let gauges = v.get("gauges").expect("gauges object");
        assert_eq!(
            gauges.get("planner_in_flight").and_then(Value::as_u64),
            Some(2)
        );
        let hist = v
            .get("histograms")
            .and_then(|h| h.get("planner_queue_wait_ns"))
            .expect("histogram summary");
        assert_eq!(hist.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(Value::as_u64), Some(1009));
        assert_eq!(hist.get("min").and_then(Value::as_u64), Some(9));
        assert_eq!(hist.get("max").and_then(Value::as_u64), Some(1000));
        // Empty registry still renders a closed, parseable object.
        let empty = stats_line(&bfpp_exec::MetricsRegistry::new().snapshot());
        Value::parse(&empty).expect("empty stats parses");
    }

    #[test]
    fn malformed_json_names_the_byte_position() {
        let err = parse_line(r#"{"model": }"#, "line-7").unwrap_err();
        assert_eq!(err.id, "line-7");
        let at = err.at.expect("syntax errors carry a position");
        assert_eq!(at, 10, "offset of the unexpected '}}'");
        let line = error_line(&err);
        assert!(line.contains("\"event\":\"error\""), "{line}");
        assert!(line.contains("\"at\":10"), "{line}");
    }

    #[test]
    fn deeply_nested_lines_fail_typed_instead_of_overflowing() {
        let deep = "[".repeat(50_000);
        let err = parse_line(&deep, "line-4").unwrap_err();
        assert_eq!(err.id, "line-4");
        assert_eq!(err.at, Some(bfpp_sim::json::MAX_DEPTH));
        assert!(err.msg.contains("nesting"), "{}", err.msg);
        assert!(error_line(&err).contains("\"event\":\"error\""));
        // A deep value inside an otherwise valid request fails the same way.
        let line = format!(
            r#"{{"model":"bert-6.6b","batch":16,"x":{}}}"#,
            "[".repeat(50_000)
        );
        assert!(parse_line(&line, "line-5").unwrap_err().at.is_some());
    }

    #[test]
    fn oversized_u32_fields_fail_typed_instead_of_truncating() {
        for (field, line) in [
            (
                "max_microbatch",
                r#"{"id":"m","model":"bert-6.6b","batch":16,"max_microbatch":4294967297}"#,
            ),
            (
                "max_loop",
                r#"{"id":"m","model":"bert-6.6b","batch":16,"max_loop":4294967304}"#,
            ),
            (
                "device",
                r#"{"id":"m","model":"bert-6.6b","batch":16,"straggler":{"device":4294967300,"factor":1.5}}"#,
            ),
            (
                "nodes",
                r#"{"id":"m","model":"bert-6.6b","batch":16,"nodes":4294967296}"#,
            ),
            (
                "drop_node",
                r#"{"id":"m","model":"bert-6.6b","batch":16,"delta":{"drop_node":4294967296}}"#,
            ),
        ] {
            let err = parse_line(line, "line-1").unwrap_err();
            assert_eq!(err.id, "m", "{field}");
            assert_eq!(err.at, None, "{field}: a field error, not a syntax error");
            assert!(
                err.msg.contains(field) && err.msg.contains("too large"),
                "{field}: {}",
                err.msg
            );
        }
        // The largest u32 still fits.
        let r = parse_line(
            r#"{"model":"bert-6.6b","batch":16,"max_loop":4294967295,
                "straggler":{"device":4294967295,"factor":1.5}}"#,
            "line-1",
        )
        .unwrap();
        match r {
            Request::Plan { req, .. } => assert_eq!(req.opts.max_loop, u32::MAX),
            other => panic!("not a plan line: {other:?}"),
        }
    }

    /// Parses `line` expecting a field error (not a syntax error) that
    /// echoes the request id and names `field`.
    fn field_error(line: &str, field: &str) -> String {
        let err = parse_line(line, "line-1").unwrap_err();
        assert_eq!(err.id, "f", "{line}");
        assert_eq!(err.at, None, "{line}: a field error, not a syntax error");
        assert!(err.msg.contains(field), "{line}: {}", err.msg);
        err.msg
    }

    #[test]
    fn out_of_range_values_fail_typed_instead_of_panicking() {
        // Each of these reached an assert in `Perturbation::with_*` or
        // `ClusterSpec::new` and killed the daemon's read loop.
        for (field, value) in [
            ("jitter", r#""jitter":1.5"#),
            ("jitter", r#""jitter":-0.1"#),
            ("factor", r#""straggler":{"device":0,"factor":0.5}"#),
            ("factor", r#""straggler":{"device":0,"factor":1e999}"#),
            ("link_degradation", r#""link_degradation":1e999"#),
            ("link_degradation", r#""link_degradation":0.5"#),
            ("nodes", r#""nodes":0"#),
        ] {
            field_error(
                &format!(r#"{{"id":"f","model":"bert-6.6b","batch":16,{value}}}"#),
                field,
            );
        }
        // The edges of each range still parse.
        let ok = r#"{"model":"bert-6.6b","batch":16,"nodes":1,"jitter":0,
                     "straggler":{"device":0,"factor":1},"link_degradation":1}"#;
        assert!(matches!(parse_line(ok, "line-1"), Ok(Request::Plan { .. })));
    }

    #[test]
    fn mistyped_fields_fail_typed_instead_of_defaulting() {
        for (field, value) in [
            // Planned the default 8 nodes.
            ("nodes", r#""nodes":"2""#),
            // Ran with no deadline at all.
            ("deadline_ms", r#""deadline_ms":0.5"#),
            ("max_candidates", r#""max_candidates":-1"#),
            ("threads", r#""threads":true"#),
            ("seed", r#""seed":"7""#),
            ("jitter", r#""jitter":"0.5""#),
            ("cluster", r#""cluster":7"#),
            ("method", r#""method":null"#),
            ("kernel", r#""kernel":["a100"]"#),
        ] {
            field_error(
                &format!(r#"{{"id":"f","model":"bert-6.6b","batch":16,{value}}}"#),
                field,
            );
        }
        // A batch past the exact-integer range of the wire's numbers is
        // named as invalid, not as missing.
        let msg = field_error(r#"{"id":"f","model":"bert-6.6b","batch":1e16}"#, "batch");
        assert!(!msg.contains("missing"), "{msg}");
        // A non-string id cannot be echoed: the error names it under the
        // fallback id.
        let err = parse_line(r#"{"id":5,"model":"bert-6.6b","batch":16}"#, "line-9").unwrap_err();
        assert_eq!(err.id, "line-9");
        assert!(err.msg.contains("\"id\""), "{}", err.msg);
    }

    #[test]
    fn mixed_presets_bound_their_node_count() {
        for cluster in ["mixed_v100_a100", "mixed_v100_a100_asym"] {
            for nodes in [u64::from(MAX_MIXED_NODES) + 1, u64::from(u32::MAX)] {
                let msg = field_error(
                    &format!(
                        r#"{{"id":"f","model":"bert-6.6b","batch":16,"cluster":"{cluster}","nodes":{nodes}}}"#
                    ),
                    cluster,
                );
                assert!(msg.contains("at most"), "{msg}");
            }
        }
        let r = parse_line(
            &format!(
                r#"{{"model":"bert-6.6b","batch":16,"cluster":"mixed_v100_a100","nodes":{MAX_MIXED_NODES}}}"#
            ),
            "line-1",
        )
        .unwrap();
        match r {
            Request::Plan { req, .. } => assert_eq!(req.cluster.num_nodes, MAX_MIXED_NODES),
            other => panic!("not a plan line: {other:?}"),
        }
    }

    #[test]
    fn a_legacy_eval_field_is_ignored() {
        // Lines written for an older daemon that took an `eval` field
        // still parse; like every other unknown field, it is ignored.
        for eval in ["batched", "per-candidate", "anything"] {
            let line = format!(r#"{{"model":"bert-6.6b","batch":16,"eval":"{eval}"}}"#);
            assert!(matches!(
                parse_line(&line, "line-1"),
                Ok(Request::Plan { .. })
            ));
        }
    }

    #[test]
    fn invalid_fields_echo_the_request_id_without_a_position() {
        let err = parse_line(r#"{"id":"x","model":"gpt-5","batch":8}"#, "line-2").unwrap_err();
        assert_eq!(err.id, "x");
        assert_eq!(err.at, None);
        assert!(err.msg.contains("unknown model"), "{}", err.msg);
        assert!(!error_line(&err).contains("\"at\":"));
    }

    #[test]
    fn terminal_lines_are_typed_by_event() {
        let failed = failed_line("s1", "injected fault: session panic before search");
        assert!(failed.contains("\"event\":\"failed\""), "{failed}");
        assert!(failed.contains("injected fault"), "{failed}");
        let rejected = rejected_line(
            "s2",
            &RejectReason::Saturated {
                in_flight: 4,
                limit: 4,
            },
        );
        assert!(rejected.contains("\"event\":\"rejected\""), "{rejected}");
        assert!(rejected.contains("4 of 4 sessions"), "{rejected}");
    }

    #[test]
    fn done_line_carries_the_timed_out_and_warm_start_flags() {
        let report = SearchReport {
            timed_out: true,
            warm_start: true,
            ..SearchReport::default()
        };
        let line = done_line("t", None, &report);
        assert!(line.contains("\"timed_out\":true"), "{line}");
        assert!(line.contains("\"warm_start\":true"), "{line}");
        assert!(line.contains("\"ok\":false"), "{line}");
    }
}
