//! Straggler-sensitivity experiment: how gracefully each pipeline
//! schedule degrades when one mid-pipeline device runs slow.
//!
//! A single multiplicative straggler is injected on one device via the
//! deterministic [`Perturbation`] model and swept over a severity range;
//! throughput and utilization stay credited against the *fault-free*
//! ideal, so everything the straggler costs shows up as lost
//! utilization. Each schedule's *retention* at a severity is its
//! throughput relative to its own unperturbed baseline — the degradation
//! curve the `reproduce_stragglers` binary prints.

use std::time::Instant;

use bfpp_cluster::ClusterSpec;
use bfpp_core::ScheduleKind;
use bfpp_exec::search::{Method, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::{lower, measure_stats, KernelModel, Measurement, OverlapConfig, Perturbation};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
use bfpp_planner::{PlanRequest, Planner};
use bfpp_sim::{MetricsRegistry, SimDuration, Solver};

use crate::report::Table;

/// The default severity sweep: a 1.0 baseline plus three degraded
/// points, up to a device running at half speed.
pub const SEVERITIES: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// The straggling device: mid-pipeline, where both the forward and the
/// backward wave must pass through it.
pub const STRAGGLER_DEVICE: u32 = 4;

/// One point of a degradation curve.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// The schedule under test.
    pub schedule: ScheduleKind,
    /// Straggler duration multiplier on [`STRAGGLER_DEVICE`] (1.0 =
    /// fault-free baseline).
    pub straggler: f64,
    /// The perturbed measurement.
    pub measurement: Measurement,
    /// Throughput retained vs this schedule's own 1.0 baseline, in
    /// `(0, 1]`.
    pub retention: f64,
}

/// The fixed eight-device configuration each schedule is measured in:
/// `N_PP = 8`, `TP = 8`, 16 micro-batches, looping placement where the
/// schedule supports it (the paper's small-β regime, where schedules
/// differ most).
fn config_for(kind: ScheduleKind) -> ParallelConfig {
    let placement = if kind.supports_looping() {
        Placement::looping(8, 8)
    } else {
        Placement::linear(8)
    };
    ParallelConfig::new(
        Grid::new(1, 8, 8),
        placement,
        BatchConfig::new(16, 1),
        DataParallelism::Unsharded,
    )
}

/// Runs the sweep: every schedule at every severity, deterministic
/// (seeded perturbation, no jitter — the straggler is the only fault).
///
/// Each schedule is lowered *once*; every severity point then recomputes
/// the per-op durations ([`bfpp_exec::LoweredGraph::perturbed_durations`])
/// and re-solves the fixed topology through
/// [`Solver::solve_stats_with_durations`] — bit-identical to re-lowering
/// under the perturbation, at a fraction of the cost.
///
/// # Panics
///
/// Panics if the fixed configurations fail to simulate (they are valid
/// on any 8-GPU cluster).
pub fn straggler_sweep(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    severities: &[f64],
) -> Vec<RobustnessRow> {
    straggler_sweep_instrumented(model, cluster, severities, &MetricsRegistry::new())
}

/// [`straggler_sweep`], recording what the sweep did into `metrics`:
/// the `robustness_lowerings_total` / `robustness_points_total` counts
/// and one `robustness_lower_ns` / `robustness_resolve_ns` wall-clock
/// sample per lowering and per re-solve — the numbers behind the "lower
/// once, re-solve per point" claim (see DESIGN.md §9).
///
/// # Panics
///
/// As [`straggler_sweep`].
pub fn straggler_sweep_instrumented(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    severities: &[f64],
    metrics: &MetricsRegistry,
) -> Vec<RobustnessRow> {
    let kernel = KernelModel::v100();
    let mut rows = Vec::new();
    let mut durations: Vec<SimDuration> = Vec::new();
    for kind in ScheduleKind::ALL {
        let cfg = config_for(kind);
        metrics.counter_incr("robustness_lowerings_total");
        let started = Instant::now();
        let lowered = lower(model, cluster, &cfg, kind, OverlapConfig::full(), &kernel)
            .expect("straggler-sweep configurations are valid");
        metrics.observe_duration("robustness_lower_ns", started.elapsed());
        let mut solver = Solver::new(&lowered.graph);
        let mut baseline = None;
        for &severity in severities {
            metrics.counter_incr("robustness_points_total");
            let perturbation =
                Perturbation::with_seed(0xB1F).with_straggler(STRAGGLER_DEVICE, severity);
            let started = Instant::now();
            lowered.perturbed_durations(&perturbation, &mut durations);
            let stats = solver
                .solve_stats_with_durations(&durations)
                .expect("lowered graphs are acyclic by construction");
            metrics.observe_duration("robustness_resolve_ns", started.elapsed());
            let m = measure_stats(model, cluster, &cfg, &lowered, &stats);
            let base = *baseline.get_or_insert(m.tflops_per_gpu);
            rows.push(RobustnessRow {
                schedule: kind,
                straggler: severity,
                retention: m.tflops_per_gpu / base,
                measurement: m,
            });
        }
    }
    rows
}

/// One point of a warm re-planning sweep: the *search winner* under a
/// straggler severity, found through the planner service.
#[derive(Debug, Clone)]
pub struct ReplanRow {
    /// Straggler duration multiplier on [`STRAGGLER_DEVICE`].
    pub severity: f64,
    /// The best configuration the (re-)planned search found.
    pub result: Option<SearchResult>,
    /// What the search did — `warm_hits > 0` on every severity after the
    /// first when the planner's warm store is live.
    pub report: SearchReport,
}

/// The service-path counterpart of [`straggler_sweep`]: instead of
/// re-measuring *fixed* configurations under each severity, this asks
/// the planner to *re-search* the configuration space per severity — the
/// "one device went slow, re-plan around it" workflow. The first
/// severity runs cold and records a warm-start base; every later
/// severity replays the recorded enumeration and re-times the recorded
/// topology-class bases only, so the sweep's cost is one search plus
/// cheap replays (and each row's winner is bit-identical to a
/// from-scratch perturbed search).
pub fn replan_sweep(
    planner: &Planner,
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    severities: &[f64],
    opts: &SearchOptions,
) -> Vec<ReplanRow> {
    let kernel = KernelModel::v100();
    severities
        .iter()
        .map(|&severity| {
            let mut opts = opts.clone();
            opts.perturbation =
                Perturbation::with_seed(0xB1F).with_straggler(STRAGGLER_DEVICE, severity);
            let req = PlanRequest {
                opts,
                ..PlanRequest::new(
                    model.clone(),
                    cluster.clone(),
                    method,
                    global_batch,
                    kernel.clone(),
                )
            };
            let (result, report) = planner.plan(&req);
            ReplanRow {
                severity,
                result,
                report,
            }
        })
        .collect()
}

/// Exports every schedule's *perturbed* timeline at `severity` as one
/// Chrome-trace JSON document (one process group per schedule, labelled
/// with the straggler multiplier). The straggler's inflated ops and the
/// waits they induce downstream are directly visible in
/// `ui.perfetto.dev`.
///
/// # Panics
///
/// As [`straggler_sweep`].
pub fn straggler_trace(model: &TransformerConfig, cluster: &ClusterSpec, severity: f64) -> String {
    straggler_trace_impl(model, cluster, severity, false)
}

/// [`straggler_trace`] with the memory and bandwidth counter tracks.
/// Peak memory is invariant under the straggler (the FIFO streams replay
/// the same op order, so the same buffer counts coincide), but the
/// *instant* of peak shifts with the inflated ops — which the counter
/// tracks make visible next to the time tracks.
pub fn straggler_mem_trace(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    severity: f64,
) -> String {
    straggler_trace_impl(model, cluster, severity, true)
}

fn straggler_trace_impl(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    severity: f64,
    with_memory: bool,
) -> String {
    let kernel = KernelModel::v100();
    let mut builder = bfpp_exec::TraceBuilder::new();
    let mut durations: Vec<SimDuration> = Vec::new();
    for kind in ScheduleKind::ALL {
        let cfg = config_for(kind);
        let lowered = lower(model, cluster, &cfg, kind, OverlapConfig::full(), &kernel)
            .expect("straggler-sweep configurations are valid");
        let perturbation =
            Perturbation::with_seed(0xB1F).with_straggler(STRAGGLER_DEVICE, severity);
        lowered.perturbed_durations(&perturbation, &mut durations);
        let timeline = Solver::new(&lowered.graph)
            .solve_with_durations(&durations)
            .expect("lowered graphs are acyclic by construction");
        let label = format!("{kind} x{severity}");
        if with_memory {
            builder.add_with_memory(Some(&label), &lowered, &timeline);
        } else {
            builder.add(Some(&label), &lowered, &timeline);
        }
    }
    builder.finish()
}

/// Renders the degradation curves as a table.
pub fn robustness_table(rows: &[RobustnessRow]) -> Table {
    let mut t = Table::new([
        "schedule",
        "straggler_mult",
        "tflops_per_gpu",
        "utilization_pct",
        "retention_pct",
    ]);
    for r in rows {
        t.push([
            r.schedule.to_string(),
            format!("{:.2}", r.straggler),
            format!("{:.2}", r.measurement.tflops_per_gpu),
            format!("{:.1}", r.measurement.utilization * 100.0),
            format!("{:.1}", r.retention * 100.0),
        ]);
    }
    t
}

/// The schedule that degrades most gracefully: the one with the highest
/// worst-case (minimum over severities) retention. Ties resolve to the
/// first schedule in [`ScheduleKind::ALL`] order.
pub fn most_graceful(rows: &[RobustnessRow]) -> Option<(ScheduleKind, f64)> {
    let mut best: Option<(ScheduleKind, f64)> = None;
    for kind in ScheduleKind::ALL {
        let worst = rows
            .iter()
            .filter(|r| r.schedule == kind)
            .map(|r| r.retention)
            .fold(f64::INFINITY, f64::min);
        if worst.is_finite() && best.is_none_or(|(_, b)| worst > b) {
            best = Some((kind, worst));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets::dgx1_v100;
    use bfpp_model::presets::bert_52b;

    #[test]
    fn sweep_covers_all_schedules_and_degrades_monotonically() {
        let rows = straggler_sweep(&bert_52b(), &dgx1_v100(8), &SEVERITIES);
        assert_eq!(rows.len(), ScheduleKind::ALL.len() * SEVERITIES.len());
        for kind in ScheduleKind::ALL {
            let curve: Vec<&RobustnessRow> = rows.iter().filter(|r| r.schedule == kind).collect();
            assert_eq!(curve.len(), SEVERITIES.len());
            assert!((curve[0].retention - 1.0).abs() < 1e-12, "{kind}: baseline");
            for pair in curve.windows(2) {
                assert!(
                    pair[1].measurement.utilization <= pair[0].measurement.utilization + 1e-12,
                    "{kind}: utilization must not rise with straggler severity"
                );
                assert!(
                    pair[1].retention <= pair[0].retention + 1e-12,
                    "{kind}: retention must not rise with straggler severity"
                );
            }
        }
        let table = robustness_table(&rows);
        assert_eq!(table.len(), rows.len());
        assert!(table
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("retention_pct"));
        let (_, worst) = most_graceful(&rows).expect("non-empty sweep");
        assert!(worst > 0.0 && worst <= 1.0);
    }

    #[test]
    fn instrumented_sweep_counts_lowerings_and_points() {
        let severities = [1.0, 1.5];
        let metrics = MetricsRegistry::new();
        let rows = straggler_sweep_instrumented(&bert_52b(), &dgx1_v100(8), &severities, &metrics);
        assert_eq!(rows.len(), ScheduleKind::ALL.len() * severities.len());
        let lowerings = metrics.counter("robustness_lowerings_total");
        assert_eq!(lowerings, ScheduleKind::ALL.len() as u64);
        assert_eq!(
            metrics.counter("robustness_points_total"),
            rows.len() as u64
        );
        let lower = metrics
            .histogram("robustness_lower_ns")
            .expect("lowerings timed");
        assert_eq!(lower.count(), lowerings);
        let resolve = metrics
            .histogram("robustness_resolve_ns")
            .expect("re-solves timed");
        assert_eq!(resolve.count(), rows.len() as u64);
    }

    #[test]
    fn straggler_trace_is_valid_and_labelled() {
        let json = straggler_trace(&bert_52b(), &dgx1_v100(8), 1.5);
        bfpp_sim::observe::validate_json(&json).expect("straggler trace must be valid JSON");
        assert!(json.contains("breadth-first x1.5/gpu0"));
        assert!(json.contains("gpipe x1.5/gpu7"));
    }

    #[test]
    fn straggler_mem_trace_is_valid_and_carries_counters() {
        let json = straggler_mem_trace(&bert_52b(), &dgx1_v100(8), 1.5);
        bfpp_sim::observe::validate_json(&json).expect("straggler mem-trace must be valid JSON");
        assert!(json.contains("breadth-first x1.5/gpu0"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("memory (bytes)"));
        assert!(json.contains("pp MB/s"));
        // Byte-determinism: the perturbation is seeded, so the whole
        // document — counters included — reproduces exactly.
        assert_eq!(json, straggler_mem_trace(&bert_52b(), &dgx1_v100(8), 1.5));
    }

    #[test]
    fn fast_resolve_path_matches_full_relowering() {
        // The duration-only re-solve must reproduce, bit for bit, what
        // re-lowering under each perturbation produces.
        let model = bert_52b();
        let cluster = dgx1_v100(8);
        let severities = [1.0, 1.5, 2.0];
        let rows = straggler_sweep(&model, &cluster, &severities);
        let kernel = KernelModel::v100();
        for row in &rows {
            let perturbation =
                Perturbation::with_seed(0xB1F).with_straggler(STRAGGLER_DEVICE, row.straggler);
            let slow = bfpp_exec::simulate_perturbed(
                &model,
                &cluster,
                &config_for(row.schedule),
                row.schedule,
                OverlapConfig::full(),
                &kernel,
                &perturbation,
            )
            .unwrap();
            assert_eq!(row.measurement, slow, "{}@{}", row.schedule, row.straggler);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let model = bert_52b();
        let cluster = dgx1_v100(8);
        let severities = [1.0, 1.5];
        let a = straggler_sweep(&model, &cluster, &severities);
        let b = straggler_sweep(&model, &cluster, &severities);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.measurement, y.measurement);
            assert_eq!(x.retention, y.retention);
        }
    }

    #[test]
    fn replan_sweep_warm_starts_and_matches_cold_searches() {
        let model = bfpp_model::presets::bert_6_6b();
        let cluster = dgx1_v100(1);
        let opts = SearchOptions {
            max_microbatch: 8,
            max_loop: 16,
            max_actions: 60_000,
            ..SearchOptions::default()
        };
        let planner = Planner::new();
        let severities = [1.0, 1.5, 2.0];
        let rows = replan_sweep(
            &planner,
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &severities,
            &opts,
        );
        assert_eq!(rows.len(), severities.len());
        // The clean first point records the warm base; each later point
        // re-plans from it instead of re-lowering from scratch...
        assert_eq!(rows[0].report.warm_hits, 0);
        for row in &rows[1..] {
            assert!(row.report.warm_hits > 0, "severity {}", row.severity);
        }
        // ...and every warm winner is bit-identical to a from-scratch
        // perturbed search (fresh planner, nothing cached).
        for row in &rows {
            let cold = Planner::new();
            let fresh = replan_sweep(
                &cold,
                &model,
                &cluster,
                Method::BreadthFirst,
                16,
                &[row.severity],
                &opts,
            );
            assert_eq!(row.result, fresh[0].result, "severity {}", row.severity);
            assert_eq!(
                (row.report.enumerated, row.report.simulated),
                (fresh[0].report.enumerated, fresh[0].report.simulated),
            );
        }
    }
}
