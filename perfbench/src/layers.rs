//! The per-layer report of the traced run: which metric, from which
//! source, and which end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use crate::registry::RegistryTotals;
use crate::replica::LayerCalls;
use crate::spans::SpanStats;
use crate::stats::quantile;
use crate::workloads::Traced;

/// One per-layer metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name, `<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric a change here should move.
    pub moves: &'static str,
    /// Workloads from most to least work in this layer.
    pub workloads: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
        workloads,
    }
}

// End-to-end metrics a layer should move.
const LAT: &str = "op_ms_p50";
const BOTH: &str = "op_ms_p50,ops_per_s";
const TPUT: &str = "ops_per_s";
const TPUT_RSS: &str = "ops_per_s,peak_rss_mib";
const LAT_RSS: &str = "op_ms_p50,peak_rss_mib";

// Workloads from most to least work in a layer.
const ALL: &str = "all";
const PLAN: &str = "whatif_5a>cold_1t";
const WHATIF: &str = "whatif_5a";
const COLD: &str = "cold_1t>whatif_5a";
const PRUNE: &str = "regen_paper>cold_1t";
const PERTURB: &str = "cold_1t,whatif_5a>regen_paper";
const REGEN: &str = "regen_paper";

/// Every per-layer metric, in report order.
#[rustfmt::skip]
pub const LAYERS: [LayerDef; 51] = [
    def("planner.plan_ms",                   "ms",    "lower",  BOTH,     PLAN),
    def("planner.requests",                  "count", "lower",  BOTH,     PLAN),
    def("planner.warm_start_ratio",          "ratio", "higher", BOTH,     PLAN),
    def("planner.elastic.drop_ms",           "ms",    "lower",  BOTH,     WHATIF),
    def("planner.elastic.readd_ms",          "ms",    "lower",  BOTH,     WHATIF),
    def("planner.elastic.quarantined",       "count", "lower",  BOTH,     WHATIF),
    def("planner.wire.parse_us",             "us",    "lower",  LAT,      PLAN),
    def("planner.wire.render_us",            "us",    "lower",  LAT,      PLAN),
    def("exec.search.enumerate_ms",          "ms",    "lower",  LAT,      ALL),
    def("exec.search.prune_ms",              "ms",    "lower",  LAT,      ALL),
    def("exec.search.evaluate_ms",           "ms",    "lower",  LAT,      ALL),
    def("exec.search.probe_ms",              "ms",    "lower",  LAT,      ALL),
    def("exec.search.other_ms",              "ms",    "lower",  LAT,      ALL),
    def("exec.search.enumerated",            "count", "lower",  LAT,      ALL),
    def("exec.search.simulated",             "count", "lower",  LAT,      ALL),
    def("exec.prune.memory",                 "count", "higher", LAT,      PRUNE),
    def("exec.prune.throughput",             "count", "higher", LAT,      PRUNE),
    def("exec.prune.simulated_ratio",        "ratio", "lower",  LAT,      PRUNE),
    def("core.schedule_ms",                  "ms",    "lower",  LAT,      COLD),
    def("core.schedules",                    "count", "lower",  LAT,      COLD),
    def("core.schedule_cache_hit_ratio",     "ratio", "higher", LAT,      COLD),
    def("exec.lower.ms",                     "ms",    "lower",  TPUT_RSS, COLD),
    def("exec.lower.calls",                  "count", "lower",  TPUT_RSS, COLD),
    def("exec.lower.ops",                    "count", "lower",  TPUT_RSS, COLD),
    def("sim.solver.csr_ms",                 "ms",    "lower",  LAT,      COLD),
    def("sim.solver.discovery_ms",           "ms",    "lower",  LAT,      COLD),
    def("sim.solver.discovery_solves",       "count", "lower",  LAT,      COLD),
    def("sim.solver.replay_ms",              "ms",    "lower",  LAT,      PLAN),
    def("sim.solver.replays",                "count", "lower",  LAT,      PLAN),
    def("sim.perturb.rows",                  "count", "lower",  LAT,      PERTURB),
    def("exec.batch.classes",                "count", "lower",  LAT,      PRUNE),
    def("exec.batch.members_per_class",      "ratio", "higher", LAT,      PRUNE),
    def("exec.batch.class_cache_hit_ratio",  "ratio", "higher", LAT,      PRUNE),
    def("exec.measure.ms",                   "ms",    "lower",  LAT,      ALL),
    def("exec.measure.calls",                "count", "lower",  LAT,      ALL),
    def("exec.warm.hit_ratio",               "ratio", "higher", LAT_RSS,  PLAN),
    def("exec.warm.records",                 "count", "lower",  LAT_RSS,  PLAN),
    def("exec.executor.busy_ms",             "ms",    "lower",  TPUT,     COLD),
    def("exec.executor.tasks",               "count", "lower",  TPUT,     COLD),
    def("exec.executor.steals",              "count", "lower",  TPUT,     COLD),
    def("exec.executor.parallel_efficiency", "ratio", "higher", TPUT,     COLD),
    def("exec.memprof.ms",                   "ms",    "lower",  LAT,      REGEN),
    def("exec.memprof.profiles",             "count", "lower",  LAT,      REGEN),
    def("bench.fig5_sweeps_ms",              "ms",    "lower",  LAT,      REGEN),
    def("bench.fig6_ms",                     "ms",    "lower",  LAT,      REGEN),
    def("bench.stragglers_ms",               "ms",    "lower",  LAT,      REGEN),
    def("bench.analytic_ms",                 "ms",    "lower",  LAT,      REGEN),
    def("bench.render_ms",                   "ms",    "lower",  LAT,      REGEN),
    def("trace.overhead_ms",                 "ms",    "lower",  LAT,      ALL),
    def("trace.untraced_op_ms_p50",          "ms",    "lower",  LAT,      ALL),
    def("trace.traced_op_ms_p50",            "ms",    "lower",  LAT,      ALL),
];

/// One reported per-layer value.
#[derive(Debug, Clone, Default)]
pub struct LayerValue {
    /// The metric value.
    pub value: f64,
    /// The layer's self time per op, ms, for time metrics.
    pub self_ms: Option<f64>,
    /// p90 of one call, ms, where the layer has one span per call.
    pub p90_ms: Option<f64>,
    /// Samples behind the value: calls when span-timed, else ops.
    pub samples: u64,
}

/// Everything the report is computed from.
pub struct LayerInputs<'a> {
    /// Traced ops in the measurement window.
    pub ops: u64,
    /// Their spans, by name.
    pub op_spans: &'a BTreeMap<&'static str, SpanStats>,
    /// The replica's spans (one op), by name.
    pub replica_spans: &'a BTreeMap<&'static str, SpanStats>,
    /// The replica's call counts.
    pub calls: &'a LayerCalls,
    /// Registry deltas and planner-side tallies of the traced ops.
    pub traced: &'a Traced<'a>,
    /// Median op latency without tracing, ms.
    pub untraced_p50_ms: f64,
    /// Median op latency with tracing, ms.
    pub traced_p50_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A span-timed layer: total per op (ms), p90 per call, call count.
fn spanned(spans: &BTreeMap<&'static str, SpanStats>, name: &str, per: f64) -> LayerValue {
    match spans.get(name) {
        Some(s) => {
            let ms = s.total_ns as f64 / 1e6 / per;
            let samples: Vec<f64> = s.samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            LayerValue {
                value: ms,
                self_ms: Some(s.self_ns as f64 / 1e6 / per),
                p90_ms: Some(quantile(&samples, 0.9)),
                samples: s.count,
            }
        }
        None => LayerValue {
            self_ms: Some(0.0),
            ..LayerValue::default()
        },
    }
}

/// Computes every [`LAYERS`] value.
pub fn compute(inp: &LayerInputs<'_>) -> Vec<(LayerDef, LayerValue)> {
    let ops = inp.ops.max(1) as f64;
    let r: &RegistryTotals = &inp.traced.registry;
    let per_op = |v: f64| LayerValue {
        value: v / ops,
        self_ms: None,
        p90_ms: None,
        samples: inp.ops,
    };
    let ms_per_op = |ns: f64| LayerValue {
        value: ns / 1e6 / ops,
        self_ms: Some(ns / 1e6 / ops),
        p90_ms: None,
        samples: inp.ops,
    };
    let plain = |v: f64| LayerValue {
        value: v,
        samples: inp.ops,
        ..LayerValue::default()
    };
    let replica = |name: &str| spanned(inp.replica_spans, name, 1.0);
    let op_span = |name: &str| spanned(inp.op_spans, name, ops);
    let per_call_us = |name: &str| {
        let mut v = op_span(name);
        v.value = ratio(v.value * ops * 1e3, v.samples as f64);
        v
    };

    let session_ns =
        r.get("planner_session_ns_completed_cold") + r.get("planner_session_ns_completed_warm");
    let wall_ns = r.get("search_wall_ns");
    let phases: [f64; 4] = [
        "search_phase_enumerate_ns",
        "search_phase_prune_ns",
        "search_phase_evaluate_ns",
        "search_phase_probe_ns",
    ]
    .map(|n| r.get(n));
    let enumerated = r.get("search_candidates_enumerated_total");
    let simulated = r.get("search_candidates_simulated_total");
    let (sched_hits, sched_misses) = (
        r.get("search_cache_hits_total"),
        r.get("search_cache_misses_total"),
    );
    let (class_hits, class_misses) = (
        r.get("class_cache_hits_total"),
        r.get("class_cache_misses_total"),
    );
    let busy_ns = r.get("executor_busy_ns_total") + r.get("executor_helper_busy_ns_total");
    let c = inp.calls;

    LAYERS
        .iter()
        .map(|d| {
            let v = match d.name {
                "planner.plan_ms" => {
                    let mut v = ms_per_op(session_ns);
                    v.self_ms = Some((session_ns - wall_ns).max(0.0) / 1e6 / ops);
                    if let Some(s) = inp.op_spans.get("Planner::plan") {
                        let calls: Vec<f64> =
                            s.samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
                        v.p90_ms = Some(quantile(&calls, 0.9));
                        v.samples = s.count;
                    }
                    v
                }
                "planner.requests" => per_op(r.get("planner_requests_submitted_total")),
                "planner.warm_start_ratio" => plain(ratio(
                    r.get("search_warm_starts_total"),
                    r.get("search_requests_total"),
                )),
                "planner.elastic.drop_ms" => op_span("Planner::replan(drop)"),
                "planner.elastic.readd_ms" => op_span("Planner::replan(add)"),
                "planner.elastic.quarantined" => per_op(inp.traced.quarantined),
                "planner.wire.parse_us" => per_call_us("wire::parse_line"),
                "planner.wire.render_us" => per_call_us("wire::done_line"),
                "exec.search.enumerate_ms" => ms_per_op(phases[0]),
                "exec.search.prune_ms" => ms_per_op(phases[1]),
                "exec.search.evaluate_ms" => ms_per_op(phases[2]),
                "exec.search.probe_ms" => ms_per_op(phases[3]),
                "exec.search.other_ms" => {
                    ms_per_op((wall_ns - phases.iter().sum::<f64>()).max(0.0))
                }
                "exec.search.enumerated" => per_op(enumerated),
                "exec.search.simulated" => per_op(simulated),
                "exec.prune.memory" => per_op(r.get("search_candidates_pruned_memory_total")),
                "exec.prune.throughput" => {
                    per_op(r.get("search_candidates_pruned_throughput_total"))
                }
                "exec.prune.simulated_ratio" => plain(ratio(simulated, enumerated)),
                "core.schedule_ms" => replica("Schedule::generate"),
                "core.schedules" => per_op(sched_misses),
                "core.schedule_cache_hit_ratio" => {
                    plain(ratio(sched_hits, sched_hits + sched_misses))
                }
                "exec.lower.ms" => replica("exec::lower"),
                "exec.lower.calls" => plain(c.class_builds as f64),
                "exec.lower.ops" => plain(c.lowered_ops as f64),
                "sim.solver.csr_ms" => replica("Solver::new"),
                "sim.solver.discovery_ms" => replica("Solver::solve_makespan"),
                "sim.solver.discovery_solves" => plain(c.class_builds as f64),
                "sim.solver.replay_ms" => replica("SolveScratch::replay_stats_into"),
                "sim.solver.replays" => plain(c.replays as f64),
                // The engine fills one duration row per replay from a
                // class template no public call exposes: a count only.
                "sim.perturb.rows" => plain(c.replays as f64),
                "exec.batch.classes" => per_op(class_hits + class_misses),
                "exec.batch.members_per_class" => {
                    plain(ratio(simulated, class_hits + class_misses))
                }
                "exec.batch.class_cache_hit_ratio" => {
                    plain(ratio(class_hits, class_hits + class_misses))
                }
                "exec.measure.ms" => replica("measure_stats"),
                "exec.measure.calls" => plain(c.replays as f64),
                "exec.warm.hit_ratio" => plain(ratio(r.get("search_warm_hits_total"), simulated)),
                "exec.warm.records" => per_op(inp.traced.warm_records),
                "exec.executor.busy_ms" => ms_per_op(busy_ns),
                "exec.executor.tasks" => per_op(r.get("executor_tasks_total")),
                "exec.executor.steals" => per_op(r.get("executor_steals_total")),
                "exec.executor.parallel_efficiency" => {
                    plain(ratio(busy_ns, r.executor_threads * phases[2]))
                }
                "exec.memprof.ms" => replica("memory_profile"),
                "exec.memprof.profiles" => plain(c.memory_profiles as f64),
                "bench.fig5_sweeps_ms" => op_span("figure5_sweep_with"),
                "bench.fig6_ms" => op_span("figure6"),
                "bench.stragglers_ms" => op_span("straggler_sweep"),
                "bench.analytic_ms" => op_span("analytic"),
                "bench.render_ms" => op_span("render"),
                "trace.overhead_ms" => plain(inp.traced_p50_ms - inp.untraced_p50_ms),
                "trace.untraced_op_ms_p50" => plain(inp.untraced_p50_ms),
                "trace.traced_op_ms_p50" => plain(inp.traced_p50_ms),
                other => unreachable!("no source for layer metric {other}"),
            };
            (*d, v)
        })
        .collect()
}

/// The human-readable report: one row per metric with its unit, value,
/// self time, per-call p90 and sample count, and what it should move.
pub fn render_table(workload: &str, rows: &[(LayerDef, LayerValue)]) -> String {
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
    let mut out = format!(
        "{workload}: per-layer metrics (per op unless the unit says per call)\n\
         {:<36} {:<6} {:>12} {:>11} {:>10} {:>8}  {:<24} {}\n",
        "metric", "unit", "value", "self ms/op", "p90 ms", "n", "moves", "most > little work"
    );
    for (d, v) in rows {
        out.push_str(&format!(
            "{:<36} {:<6} {:>12.4} {:>11} {:>10} {:>8}  {:<24} {}\n",
            d.name,
            d.unit,
            v.value,
            opt(v.self_ms),
            opt(v.p90_ms),
            v.samples,
            d.moves,
            d.workloads
        ));
    }
    out
}
