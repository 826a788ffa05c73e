//! Drivers that regenerate each figure's data.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bfpp_analytic::efficiency::{EffMethod, EfficiencyModel};
use bfpp_analytic::tradeoff::{OperatingPoint, TradeoffModel};
use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_exec::executor::ScopedTask;
use bfpp_exec::search::{Method, SearchEnv, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::{lower, KernelModel, LoweredGraph, OverlapConfig, TraceBuilder};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
use bfpp_planner::{PlanRequest, Planner};
use bfpp_sim::AsciiTimelineOptions;

use crate::report::Table;

/// Figure 2: theoretical efficiency vs batch size per GPU, for the four
/// methods, with (`2a`) and without (`2b`) network overlap.
pub fn figure2() -> Table {
    let model = EfficiencyModel::figure2();
    let mut t = Table::new(["beta", "method", "overlap", "efficiency"]);
    let betas: Vec<f64> = (1..=64).map(|i| i as f64 * 0.25).collect();
    for overlap in [true, false] {
        for method in EffMethod::ALL {
            for &beta in &betas {
                let e = model.efficiency(method, beta, overlap);
                t.push([
                    format!("{beta:.2}"),
                    format!("{method:?}"),
                    overlap.to_string(),
                    format!("{e:.4}"),
                ]);
            }
        }
    }
    t
}

/// Figure 3: the standard and looping layer placements for a 16-layer
/// model on 4 devices, rendered as text.
pub fn figure3() -> String {
    let mut out = String::new();
    for (name, placement) in [
        ("standard (3a)", Placement::linear(4)),
        ("looping (3b)", Placement::looping(4, 2)),
    ] {
        out.push_str(&format!("{name}: {placement}\n"));
        for d in 0..4 {
            let stages = placement.stages_of_device(d);
            let parts: Vec<String> = stages
                .iter()
                .map(|s| {
                    let r = placement.layers_of_stage(*s, 16);
                    format!("stage {} = layers {}..{}", s.0, r.start, r.end)
                })
                .collect();
            out.push_str(&format!("  device {d}: {}\n", parts.join(", ")));
        }
    }
    out
}

/// The Figure 4 toy model: 16 identical layers, small enough to read.
fn figure4_model() -> TransformerConfig {
    TransformerConfig::new("fig4-toy", 16, 16, 64, 1024, 1000)
}

/// The four Figure 4 cases (16 layers, `N_PP = 4`, 8 micro-batches,
/// with data parallelism), lowered onto the simulator. Shared by the
/// ASCII rendering ([`figure4`]) and the Chrome-trace export
/// ([`figure4_trace`]) so both views describe the same graphs.
fn figure4_lowerings() -> Vec<(ScheduleKind, LoweredGraph)> {
    let model = figure4_model();
    let cluster = bfpp_cluster::presets::dgx1_v100(1);
    let kernel = KernelModel::v100();
    [
        (ScheduleKind::GPipe, Placement::linear(4)),
        (ScheduleKind::OneFOneB, Placement::linear(4)),
        (ScheduleKind::DepthFirst, Placement::looping(4, 4)),
        (ScheduleKind::BreadthFirst, Placement::looping(4, 4)),
    ]
    .into_iter()
    .map(|(kind, placement)| {
        let cfg = ParallelConfig::new(
            Grid::new(2, 1, 4),
            placement,
            BatchConfig::new(8, 1),
            DataParallelism::Unsharded,
        );
        let lowered = lower(&model, &cluster, &cfg, kind, OverlapConfig::full(), &kernel)
            .expect("figure 4 configs are valid");
        (kind, lowered)
    })
    .collect()
}

/// Figure 4: timelines of the four schedules (16 layers, `N_PP = 4`,
/// 8 micro-batches, with data parallelism). Returns the rendered ASCII
/// chart and a makespan table.
pub fn figure4() -> (String, Table) {
    let mut art = String::new();
    let mut t = Table::new(["schedule", "makespan_ms", "speedup_vs_gpipe"]);
    let mut gpipe_ms = None;
    for (kind, lowered) in figure4_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        let ms = timeline.makespan().as_secs_f64() * 1e3;
        let gp = *gpipe_ms.get_or_insert(ms);
        art.push_str(&format!("== {kind} ==\n"));
        art.push_str(&timeline.render_ascii(
            &lowered.graph,
            &AsciiTimelineOptions {
                width: 96,
                idle_char: '.',
            },
            |tag| tag.glyph(),
        ));
        art.push('\n');
        t.push([
            kind.to_string(),
            format!("{ms:.3}"),
            format!("{:.2}", gp / ms),
        ]);
    }
    (art, t)
}

/// The Figure 4 schedules as one Chrome-trace JSON document: each
/// schedule becomes its own process group (`<schedule>/gpu<d>`), so all
/// four timelines can be compared side by side in `ui.perfetto.dev`.
pub fn figure4_trace() -> String {
    let mut builder = TraceBuilder::new();
    for (kind, lowered) in figure4_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        builder.add(Some(&kind.to_string()), &lowered, &timeline);
    }
    builder.finish()
}

/// [`figure4_trace`] with the memory and bandwidth counter tracks: each
/// schedule's per-device memory timeline (stacked by buffer class) and
/// PP/DP link utilization, aligned with its time tracks under the same
/// process ids.
pub fn figure4_mem_trace() -> String {
    let mut builder = TraceBuilder::new();
    for (kind, lowered) in figure4_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        builder.add_with_memory(Some(&kind.to_string()), &lowered, &timeline);
    }
    builder.finish()
}

/// One row of a Figure 5 / Table E sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The method.
    pub method: Method,
    /// Global batch size.
    pub batch: u64,
    /// The winning configuration, when one fits.
    pub result: Option<SearchResult>,
    /// What the search did to find it (enumeration/pruning counters).
    pub report: SearchReport,
}

/// The batch sizes of each Figure 5 panel.
pub fn figure5_batches(model: &str, ethernet: bool) -> Vec<u64> {
    if ethernet {
        vec![64, 96, 128, 192, 256, 384, 512]
    } else if model.contains("52") {
        vec![8, 9, 12, 16, 24, 32, 48, 64, 128, 256, 512]
    } else {
        vec![8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]
    }
}

/// Runs the Figure 5 sweep: best configuration per (method, batch).
///
/// A one-shot client of the planner: a fresh [`Planner`] over a private
/// environment ([`SearchEnv::private`]) serves every cell over the
/// process-wide topology-class cache and keeps no warm-start store, so
/// a sweep whose cells are all distinct publishes no record that
/// nothing would replay. Each cell's result and report are
/// value-identical to calling [`bfpp_exec::search::search`] over a
/// private environment (the shared class cache only substitutes equal
/// values). [`figure5_sweep_with`] plans on a caller's service planner
/// instead, for repeat sweeps that warm-start.
pub fn figure5_sweep(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    batches: &[u64],
    opts: &SearchOptions,
) -> Vec<SweepRow> {
    let planner = Planner::over(SearchEnv::private());
    figure5_sweep_with(&planner, model, cluster, batches, opts)
}

/// [`figure5_sweep`] over a caller-supplied planner — the service path:
/// the sweep's requests share the planner's caches with every other
/// client, and a repeat sweep under a new perturbation warm-starts from
/// this one's records.
///
/// The `(method, batch)` cells are independent, so they run side by
/// side on `opts.effective_threads()` lanes (at most one per cell) on
/// the planner's worker pool. Each lane pulls the next cell from a
/// shared cursor, since cell costs span ~100×, and plans it serially
/// (`threads: 1`): a cell's own evaluate stage would otherwise stop at
/// a barrier every 32 candidates, often with too few survivors to
/// share. Rows come back in cell order and equal a serial loop's: a
/// search's answer and counters do not depend on its thread count or on
/// what the class cache holds, and the warm-record key leaves out the
/// thread count. One lane plans the cells in order.
pub fn figure5_sweep_with(
    planner: &Planner,
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    batches: &[u64],
    opts: &SearchOptions,
) -> Vec<SweepRow> {
    let kernel = KernelModel::v100();
    let cells: Vec<(Method, u64)> = Method::ALL
        .into_iter()
        .flat_map(|method| batches.iter().map(move |&batch| (method, batch)))
        .collect();
    let serial = SearchOptions {
        threads: 1,
        ..opts.clone()
    };
    let plan_cell = |(method, batch): (Method, u64)| {
        let req = PlanRequest {
            opts: serial.clone(),
            ..PlanRequest::new(
                model.clone(),
                cluster.clone(),
                method,
                batch,
                kernel.clone(),
            )
        };
        let (result, report) = planner.plan(&req);
        SweepRow {
            method,
            batch,
            result,
            report,
        }
    };
    let lanes = opts.effective_threads().min(cells.len());
    // The cursor only hands out cell indices; each row reaches this
    // thread through its cell's slot, read after `scope_run` returns.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<SweepRow>> = cells.iter().map(|_| OnceLock::new()).collect();
    let lane = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&cell) = cells.get(i) else { break };
        slots[i]
            .set(plan_cell(cell))
            .expect("the cursor hands each cell to one lane");
    };
    planner.env().executor.scope_run(
        (0..lanes)
            .map(|_| Box::new(lane) as ScopedTask<'_>)
            .collect(),
    );
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every cell is planned"))
        .collect()
}

/// Renders sweep rows in the Figure 5 shape (utilization vs batch),
/// with the search's observability counters as trailing columns.
pub fn figure5_table(rows: &[SweepRow], num_gpus: u32) -> Table {
    let mut t = Table::new(
        [
            "method",
            "batch",
            "beta",
            "tflops_per_gpu",
            "utilization_pct",
        ]
        .into_iter()
        .chain(SearchReport::csv_header().split(',')),
    );
    for r in rows {
        let head = [
            r.method.label().to_string(),
            r.batch.to_string(),
            format!("{:.3}", r.batch as f64 / num_gpus as f64),
        ];
        let metrics = match &r.result {
            Some(res) => [
                format!("{:.2}", res.measurement.tflops_per_gpu),
                format!("{:.1}", res.measurement.utilization * 100.0),
            ],
            None => ["-".to_string(), "-".to_string()],
        };
        let report: Vec<String> = r.report.csv_row().split(',').map(String::from).collect();
        t.push(head.into_iter().chain(metrics).chain(report));
    }
    t
}

/// Re-lowers each method's best configuration from a Figure 5 sweep
/// (highest Tflop/s per GPU over the swept batches) and exports the
/// winners as one Chrome-trace JSON document — the "inspect the winning
/// config" path of EXPERIMENTS.md. Methods where nothing fit are
/// skipped.
pub fn sweep_trace(model: &TransformerConfig, cluster: &ClusterSpec, rows: &[SweepRow]) -> String {
    sweep_trace_impl(model, cluster, rows, false)
}

/// [`sweep_trace`] with the memory and bandwidth counter tracks: each
/// winner's per-device memory timeline (stacked by buffer class) and
/// PP/DP link utilization, aligned with its time tracks under the same
/// process ids.
pub fn sweep_mem_trace(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    rows: &[SweepRow],
) -> String {
    sweep_trace_impl(model, cluster, rows, true)
}

fn sweep_trace_impl(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    rows: &[SweepRow],
    with_memory: bool,
) -> String {
    let kernel = KernelModel::v100();
    let mut builder = TraceBuilder::new();
    for method in Method::ALL {
        let best = rows
            .iter()
            .filter(|r| r.method == method)
            .filter_map(|r| r.result.as_ref().map(|res| (r.batch, res)))
            .max_by(|a, b| {
                a.1.measurement
                    .tflops_per_gpu
                    .total_cmp(&b.1.measurement.tflops_per_gpu)
            });
        let Some((batch, res)) = best else {
            continue;
        };
        let lowered = lower(model, cluster, &res.cfg, res.kind, res.overlap, &kernel)
            .expect("winning configurations re-lower");
        let timeline = lowered.graph.solve().expect("acyclic");
        let label = format!("{} b{batch}", method.label());
        if with_memory {
            builder.add_with_memory(Some(&label), &lowered, &timeline);
        } else {
            builder.add(Some(&label), &lowered, &timeline);
        }
    }
    builder.finish()
}

/// Extracts each method's operating points (β, utilization) from a sweep.
pub fn operating_points(rows: &[SweepRow], num_gpus: u32, method: Method) -> Vec<OperatingPoint> {
    rows.iter()
        .filter(|r| r.method == method)
        .filter_map(|r| {
            r.result.as_ref().map(|res| OperatingPoint {
                beta: r.batch as f64 / num_gpus as f64,
                utilization: res.measurement.utilization,
            })
        })
        .collect()
}

/// Figure 6: the cost/time trade-off per method over a range of cluster
/// sizes, extrapolated from the Figure 5 sweep.
///
/// The `memory_gib` column is the *event-level* per-device peak of the
/// configuration whose β each frontier point extrapolates: the winner is
/// re-lowered, solved, and its memory profile walked
/// ([`bfpp_exec::memory_profile`]) rather than read off the closed-form
/// Eq. 10–14 estimate. The two reconcile byte-exactly (asserted in
/// `bfpp-exec`'s tests), but the figure's pedigree is the event timeline.
pub fn figure6(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    rows: &[SweepRow],
    num_gpus: u32,
    tradeoff: &TradeoffModel,
    cluster_sizes: &[u32],
) -> Table {
    let kernel = KernelModel::v100();
    let mut t = Table::new([
        "method",
        "n_gpus",
        "beta",
        "global_batch",
        "time_days",
        "cost_gpu_days",
        "memory_gib",
    ]);
    // Event-level peaks memoized by (method, batch): one frontier β is
    // shared by many cluster sizes, so each winner is lowered and solved
    // once.
    let mut peaks: Vec<((Method, u64), f64)> = Vec::new();
    for method in Method::ALL {
        let points = operating_points(rows, num_gpus, method);
        if points.is_empty() {
            continue;
        }
        for p in tradeoff.frontier(&points, cluster_sizes) {
            // The sweep row whose configuration realized this β.
            let mem = rows
                .iter()
                .filter(|r| r.method == method)
                .filter_map(|r| r.result.as_ref().map(|res| (r.batch, res)))
                .find(|(_, res)| (res.measurement.batch_per_gpu - p.beta).abs() < 1e-9)
                .map(|(batch, res)| {
                    if let Some((_, bytes)) = peaks.iter().find(|(k, _)| *k == (method, batch)) {
                        return *bytes;
                    }
                    let lowered = lower(model, cluster, &res.cfg, res.kind, res.overlap, &kernel)
                        .expect("winning configurations re-lower");
                    let timeline = lowered.graph.solve().expect("acyclic");
                    let bytes = bfpp_exec::memory_profile(&lowered, &timeline)
                        .peak()
                        .total_bytes;
                    peaks.push(((method, batch), bytes));
                    bytes
                });
            t.push([
                method.label().to_string(),
                p.n_gpus.to_string(),
                format!("{:.3}", p.beta),
                format!("{:.0}", p.global_batch),
                format!("{:.1}", p.time_days),
                format!("{:.0}", p.cost_gpu_days),
                mem.map(|m| format!("{:.1}", m / (1u64 << 30) as f64))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

/// Figure 1: predicted training time (a) and per-device memory (b) for
/// the 52 B model on a 4096-GPU cluster, per method.
pub fn figure1(rows: &[SweepRow], num_gpus: u32, tradeoff: &TradeoffModel) -> Table {
    let mut t = Table::new(["method", "beta", "time_days", "cost_gpu_days", "memory_gib"]);
    for method in Method::ALL {
        let points = operating_points(rows, num_gpus, method);
        if points.is_empty() {
            continue;
        }
        let frontier = tradeoff.frontier(&points, &[4096]);
        let Some(best) = frontier.first() else {
            continue;
        };
        // Memory of the configuration whose β was chosen.
        let mem = rows
            .iter()
            .filter(|r| r.method == method)
            .filter_map(|r| r.result.as_ref())
            .find(|res| (res.measurement.batch_per_gpu - best.beta).abs() < 1e-9)
            .map(|res| res.measurement.memory_gib());
        t.push([
            method.label().to_string(),
            format!("{:.3}", best.beta),
            format!("{:.1}", best.time_days),
            format!("{:.0}", best.cost_gpu_days),
            mem.map(|m| format!("{m:.1}")).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// The four Figure 7 cases (gradient accumulation without a pipeline:
/// one device hosting all 8 stage-groups, depth-first vs breadth-first
/// order under `DP_0` and `DP_FS`), lowered onto the simulator. Shared
/// by [`figure7`] and [`figure7_trace`].
fn figure7_lowerings() -> Vec<(String, DataParallelism, LoweredGraph)> {
    let model = figure4_model();
    let cluster = bfpp_cluster::presets::dgx1_v100(1);
    let kernel = KernelModel::v100();
    let mut out = Vec::new();
    for (label, kind) in [
        ("depth-first", ScheduleKind::DepthFirst),
        ("breadth-first", ScheduleKind::BreadthFirst),
    ] {
        for dp in [DataParallelism::Unsharded, DataParallelism::FullySharded] {
            let cfg = ParallelConfig::new(
                Grid::new(8, 1, 1),
                Placement::looping(1, 8),
                BatchConfig::new(4, 1),
                dp,
            );
            let lowered = lower(&model, &cluster, &cfg, kind, OverlapConfig::full(), &kernel)
                .expect("figure 7 configs are valid");
            out.push((label.to_string(), dp, lowered));
        }
    }
    out
}

/// Figure 7 / Appendix C: gradient accumulation without a pipeline —
/// depth-first vs breadth-first order under `DP_0` and `DP_FS`. Returns
/// the rendered timelines and a makespan table.
pub fn figure7() -> (String, Table) {
    let mut art = String::new();
    let mut t = Table::new(["accumulation", "sharding", "batch_ms"]);
    // One device hosting all 8 stage-groups (a looping pipeline of depth
    // one): gradient accumulation with per-layer-group reductions, the
    // exact setting of the paper's Figure 7.
    for (label, dp, lowered) in figure7_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        art.push_str(&format!("== {label} + {dp} ==\n"));
        art.push_str(&timeline.render_ascii(
            &lowered.graph,
            &AsciiTimelineOptions {
                width: 96,
                idle_char: '.',
            },
            |tag| tag.glyph(),
        ));
        art.push('\n');
        t.push([
            label,
            dp.to_string(),
            format!("{:.3}", timeline.makespan().as_secs_f64() * 1e3),
        ]);
    }
    (art, t)
}

/// The Figure 7 accumulation variants as one Chrome-trace JSON document
/// (one process group per `<accumulation> <sharding>` case).
pub fn figure7_trace() -> String {
    let mut builder = TraceBuilder::new();
    for (label, dp, lowered) in figure7_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        builder.add(Some(&format!("{label} {dp}")), &lowered, &timeline);
    }
    builder.finish()
}

/// [`figure7_trace`] with the memory and bandwidth counter tracks — the
/// sharding contrast is directly visible: under `DP_FS` the weight and
/// optimizer series shrink by the sharding factor while the `dp MB/s`
/// track lights up with the per-group gathers.
pub fn figure7_mem_trace() -> String {
    let mut builder = TraceBuilder::new();
    for (label, dp, lowered) in figure7_lowerings() {
        let timeline = lowered.graph.solve().expect("acyclic");
        builder.add_with_memory(Some(&format!("{label} {dp}")), &lowered, &timeline);
    }
    builder.finish()
}

/// The pipeline-schedule ASCII rendering used by the `schedule_viz`
/// example: unit-cost timing straight from `bfpp-core` (no hardware).
pub fn schedule_unit_timelines(n_pp: u32, n_loop: u32, n_mb: u32) -> String {
    let mut out = String::new();
    for kind in ScheduleKind::ALL {
        let placement = if kind.supports_looping() {
            Placement::looping(n_pp, n_loop)
        } else {
            Placement::linear(n_pp)
        };
        let Ok(s) = Schedule::generate(kind, placement, n_mb) else {
            out.push_str(&format!("== {kind}: not generable for this shape ==\n"));
            continue;
        };
        let timing = s.exact_timing(1, 2);
        out.push_str(&format!(
            "== {kind} (makespan {} slots, bubble {:.1}%) ==\n",
            timing.makespan(),
            timing.bubble_overhead() * 100.0
        ));
        for d in 0..n_pp {
            let mut line = vec!['.'; timing.makespan() as usize];
            for at in timing.device_timings(d) {
                let glyph = char::from_digit(at.action.microbatch % 10, 10).unwrap_or('?');
                let glyph = if at.action.dir == bfpp_core::Direction::Forward {
                    glyph
                } else {
                    // Backwards drawn as letters a..j to distinguish.
                    (b'a' + (at.action.microbatch % 10) as u8) as char
                };
                for c in line
                    .iter_mut()
                    .take(at.end as usize)
                    .skip(at.start as usize)
                {
                    *c = glyph;
                }
            }
            out.push_str(&format!(
                "  dev{d} |{}|\n",
                line.into_iter().collect::<String>()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_model::presets;

    #[test]
    fn figure2_covers_all_series() {
        let t = figure2();
        // 64 betas x 4 methods x 2 overlap settings.
        assert_eq!(t.len(), 64 * 4 * 2);
    }

    #[test]
    fn figure3_describes_both_placements() {
        let s = figure3();
        assert!(s.contains("standard"));
        assert!(s.contains("looping"));
        assert!(s.contains("stage 7 = layers 14..16"));
    }

    #[test]
    fn figure4_breadth_first_is_fastest() {
        let (art, t) = figure4();
        assert!(art.contains("breadth-first"));
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        // The last row (breadth-first) must have the largest speedup.
        let speedups: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        let bf = speedups[3];
        assert!(
            speedups[..3].iter().all(|s| *s <= bf + 1e-9),
            "{speedups:?}"
        );
    }

    #[test]
    fn figure5_quick_sweep_has_rows() {
        let model = presets::bert_6_6b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let opts = SearchOptions {
            max_microbatch: 4,
            max_loop: 8,
            max_actions: 30_000,
            threads: 0,
            ..SearchOptions::default()
        };
        let rows = figure5_sweep(&model, &cluster, &[64], &opts);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.report.enumerated > 0));
        let t = figure5_table(&rows, cluster.num_gpus());
        assert_eq!(t.len(), 4);
        let json = sweep_trace(&model, &cluster, &rows);
        bfpp_sim::observe::validate_json(&json).expect("sweep trace must be valid JSON");
        assert!(json.contains(" b64/gpu0"));
        let mem_json = sweep_mem_trace(&model, &cluster, &rows);
        bfpp_sim::observe::validate_json(&mem_json).expect("sweep mem-trace must be valid JSON");
        assert!(mem_json.contains("memory (bytes)"));
        assert!(mem_json.contains("\"checkpoints\":"));
        assert!(t
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("retention_pct"));
        let points = operating_points(&rows, 64, Method::BreadthFirst);
        assert_eq!(points.len(), 1);
    }

    #[test]
    fn figure6_memory_column_comes_from_event_level_peaks() {
        let model = presets::bert_6_6b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let opts = SearchOptions {
            max_microbatch: 4,
            max_loop: 8,
            max_actions: 30_000,
            threads: 0,
            ..SearchOptions::default()
        };
        let rows = figure5_sweep(&model, &cluster, &[64], &opts);
        let peak = cluster.node.gpu.peak_fp16_flops;
        let tradeoff = TradeoffModel::paper_6_6b(&model, peak);
        let t = figure6(
            &model,
            &cluster,
            &rows,
            cluster.num_gpus(),
            &tradeoff,
            &[1024, 4096],
        );
        let csv = t.to_csv();
        assert!(csv.lines().next().unwrap().ends_with("memory_gib"));
        // Every frontier row extrapolates a swept winner, so the memory
        // column is populated; and since event peaks reconcile with the
        // closed form byte-exactly, it must equal the measurement's GiB.
        for line in csv.lines().skip(1) {
            let mem = line.rsplit(',').next().unwrap();
            assert_ne!(mem, "-", "frontier row without a memory peak: {line}");
            let method = line.split(',').next().unwrap();
            let reported: f64 = mem.parse().unwrap();
            let closed_form = rows
                .iter()
                .filter(|r| r.method.label() == method)
                .filter_map(|r| r.result.as_ref())
                .map(|res| res.measurement.memory_gib())
                .next()
                .expect("winner exists");
            assert!(
                (reported - closed_form).abs() < 0.05 + 1e-9,
                "{method}: event-level {reported} vs closed-form {closed_form}"
            );
        }
    }

    #[test]
    fn sweep_trace_is_thread_count_invariant() {
        // The search winner is bit-identical for any worker count, so
        // the traces of the winners — time-only and memory variants —
        // must be too, byte for byte.
        let model = presets::bert_6_6b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let traces_with = |threads| {
            let opts = SearchOptions {
                max_microbatch: 4,
                max_loop: 8,
                max_actions: 30_000,
                threads,
                ..SearchOptions::default()
            };
            let rows = figure5_sweep(&model, &cluster, &[64], &opts);
            (
                sweep_trace(&model, &cluster, &rows),
                sweep_mem_trace(&model, &cluster, &rows),
            )
        };
        assert_eq!(traces_with(1), traces_with(3));
    }

    /// Search limits small enough for a test sweep.
    fn lane_opts(threads: usize) -> SearchOptions {
        SearchOptions {
            max_microbatch: 4,
            max_loop: 8,
            max_actions: 30_000,
            threads,
            ..SearchOptions::default()
        }
    }

    /// A row without the report fields that are wall-clock (`wall_time`,
    /// `phases`) or describe concurrent use of the shared class cache
    /// (`warm_hits`).
    fn outcome(row: &SweepRow) -> (Method, u64, Option<SearchResult>, SearchReport) {
        let report = SearchReport {
            wall_time: std::time::Duration::ZERO,
            phases: bfpp_exec::PhaseSpans::default(),
            warm_hits: 0,
            ..row.report.clone()
        };
        (row.method, row.batch, row.result.clone(), report)
    }

    #[test]
    fn sweep_lanes_match_a_serial_plan_loop() {
        // Eight cells of uneven cost: three lanes divide them unevenly.
        let model = presets::bert_6_6b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let batches = [16, 256];
        let planner = Planner::new();
        let mut serial = Vec::new();
        for method in Method::ALL {
            for batch in batches {
                let req = PlanRequest {
                    opts: lane_opts(1),
                    ..PlanRequest::new(
                        model.clone(),
                        cluster.clone(),
                        method,
                        batch,
                        KernelModel::v100(),
                    )
                };
                let (result, report) = planner.plan(&req);
                serial.push(outcome(&SweepRow {
                    method,
                    batch,
                    result,
                    report,
                }));
            }
        }
        assert!(serial.iter().any(|(.., result, _)| result.is_some()));
        for threads in [1, 3, 4] {
            let rows = figure5_sweep_with(
                &Planner::new(),
                &model,
                &cluster,
                &batches,
                &lane_opts(threads),
            );
            let lanes: Vec<_> = rows.iter().map(outcome).collect();
            assert_eq!(lanes, serial, "threads {threads}");
        }
    }

    #[test]
    fn a_repeat_sweep_warm_starts_every_cell() {
        let model = presets::bert_6_6b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let batches = [16, 256];
        let planner = Planner::new();
        let opts = lane_opts(3);
        let cold = figure5_sweep_with(&planner, &model, &cluster, &batches, &opts);
        let warm = figure5_sweep_with(&planner, &model, &cluster, &batches, &opts);
        assert_eq!(warm.len(), cold.len());
        for (cold, warm) in cold.iter().map(outcome).zip(warm.iter().map(outcome)) {
            assert!(!cold.3.warm_start, "{:?} b{}", cold.0, cold.1);
            assert!(warm.3.warm_start, "{:?} b{}", warm.0, warm.1);
            let warm = (
                warm.0,
                warm.1,
                warm.2,
                SearchReport {
                    warm_start: false,
                    ..warm.3
                },
            );
            assert_eq!(warm, cold, "a warm start answers like its cold search");
        }
    }

    #[test]
    fn figure7_breadth_first_fs_beats_depth_first_fs() {
        let (_, t) = figure7();
        let csv = t.to_csv();
        let find = |acc: &str, dp: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(acc) && l.contains(dp))
                .and_then(|l| l.rsplit(',').next())
                .and_then(|v| v.parse().ok())
                .expect("row present")
        };
        let df_fs = find("depth-first", "DP_FS");
        let bf_fs = find("breadth-first", "DP_FS");
        assert!(
            bf_fs < df_fs,
            "Appendix C: BF accumulation must beat DF under DP_FS: {bf_fs} vs {df_fs}"
        );
    }

    #[test]
    fn figure4_trace_is_valid_and_reconciles() {
        let json = figure4_trace();
        bfpp_sim::observe::validate_json(&json).expect("figure 4 trace must be valid JSON");
        // One process group per schedule, with annotated events.
        assert!(json.contains("breadth-first/gpu0"));
        assert!(json.contains("gpipe/gpu0"));
        assert!(json.contains("\"flops\""));
        // The time attribution behind the trace tiles each solved
        // timeline exactly: busy + wait + bubble == makespan per
        // resource (also asserted inside `attribute`).
        for (kind, lowered) in figure4_lowerings() {
            let timeline = lowered.graph.solve().expect("acyclic");
            let bd = bfpp_exec::attribution(&lowered, &timeline);
            assert_eq!(
                bd.grand_total(),
                bd.makespan() * bd.num_resources() as u64,
                "{kind}: attribution must reconcile with the makespan"
            );
        }
    }

    #[test]
    fn figure7_trace_is_valid() {
        let json = figure7_trace();
        bfpp_sim::observe::validate_json(&json).expect("figure 7 trace must be valid JSON");
        assert!(json.contains("breadth-first DP_FS/gpu0"));
        assert!(json.contains("depth-first DP_0/gpu0"));
    }

    #[test]
    fn mem_traces_are_valid_and_carry_counter_tracks() {
        for (name, json) in [
            ("figure 4", figure4_mem_trace()),
            ("figure 7", figure7_mem_trace()),
        ] {
            bfpp_sim::observe::validate_json(&json)
                .unwrap_or_else(|e| panic!("{name} mem-trace must be valid JSON: {e}"));
            // Time tracks are still present, and the counter tracks ride
            // alongside them.
            assert!(json.contains("\"ph\":\"X\""), "{name}: time tracks");
            assert!(json.contains("\"ph\":\"C\""), "{name}: counter tracks");
            assert!(json.contains("memory (bytes)"), "{name}: memory track");
            assert!(json.contains("\"activations\":"), "{name}: class series");
        }
        // Figure 4 has a real pipeline, so its PP links carry traffic.
        assert!(figure4_mem_trace().contains("pp MB/s"));
        // Figure 7 is pure gradient accumulation (no pipeline) under DP,
        // so its DP links carry traffic instead.
        assert!(figure7_mem_trace().contains("dp MB/s"));
    }

    #[test]
    fn schedule_unit_timelines_render() {
        let s = schedule_unit_timelines(4, 4, 8);
        assert!(s.contains("gpipe"));
        assert!(s.contains("breadth-first"));
        assert!(s.contains("dev3"));
    }

    #[test]
    fn batch_lists_match_paper() {
        assert_eq!(figure5_batches("52b", false).len(), 11);
        assert!(figure5_batches("6.6b", false).contains(&384));
        assert_eq!(figure5_batches("6.6b", true)[0], 64);
    }
}
