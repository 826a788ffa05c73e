//! Reads the program's own metrics registry from outside, through
//! `Planner::metrics_snapshot()`, and accumulates what the traced ops
//! added to it.

use std::collections::BTreeMap;

use bfpp_exec::MetricsSnapshot;

/// Registry counters the per-layer report reads (deltas over the ops).
pub const COUNTERS: [&str; 16] = [
    "planner_requests_submitted_total",
    "search_requests_total",
    "search_candidates_enumerated_total",
    "search_candidates_pruned_memory_total",
    "search_candidates_pruned_throughput_total",
    "search_candidates_simulated_total",
    "search_warm_starts_total",
    "search_warm_hits_total",
    "search_cache_hits_total",
    "search_cache_misses_total",
    "class_cache_hits_total",
    "class_cache_misses_total",
    "executor_steals_total",
    "executor_tasks_total",
    "executor_busy_ns_total",
    "executor_helper_busy_ns_total",
];

/// Registry histograms whose sums the report reads (ns).
pub const HISTOGRAMS: [&str; 7] = [
    "search_phase_enumerate_ns",
    "search_phase_prune_ns",
    "search_phase_evaluate_ns",
    "search_phase_probe_ns",
    "search_wall_ns",
    "planner_session_ns_completed_cold",
    "planner_session_ns_completed_warm",
];

/// Summed registry deltas over a set of ops.
#[derive(Debug, Clone, Default)]
pub struct RegistryTotals {
    values: BTreeMap<&'static str, f64>,
    /// The executor's worker count, as last seen.
    pub executor_threads: f64,
}

impl RegistryTotals {
    /// Adds what happened between two snapshots of one planner's
    /// registry.
    pub fn add_delta(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for name in COUNTERS {
            let d = after.counter(name).saturating_sub(before.counter(name));
            *self.values.entry(name).or_default() += d as f64;
        }
        let sum = |s: &MetricsSnapshot, n: &str| s.histogram(n).map_or(0, |h| h.sum());
        for name in HISTOGRAMS {
            let d = sum(after, name).saturating_sub(sum(before, name));
            *self.values.entry(name).or_default() += d as f64;
        }
        self.executor_threads = after.gauge("executor_threads") as f64;
    }

    /// The summed delta of `name` (a [`COUNTERS`] or [`HISTOGRAMS`] entry).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}
