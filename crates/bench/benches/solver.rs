//! Criterion: throughput of the timeline solver itself.
//!
//! Benches the solver core against the round-robin reference
//! oracle (`reference-solver` feature) across pipeline shapes, plus the
//! duration-only re-solve fast path, the batched SoA trace-replay path
//! behind topology-class candidate evaluation, and the robustness-sweep
//! pattern they accelerate (lower once + re-solve vs. re-lower + solve
//! per point). Headline numbers are recorded in `BENCH_solver.json` at
//! the repo root; regenerate them by re-running
//! `cargo bench -p bfpp-bench --bench solver` on a quiet host and
//! copying the printed ns/iter figures into that file.

use bfpp_cluster::presets::dgx1_v100;
use bfpp_core::ScheduleKind;
use bfpp_exec::{lower, KernelModel, OverlapConfig, Perturbation};
use bfpp_model::presets::bert_52b;
use bfpp_parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
use bfpp_sim::{DurationMatrix, OpGraph, OpId, SimDuration, Solver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// How many microbatches a device runs ahead of the backward wave — the
/// 1F1B in-flight window (small, as in the paper's memory-bound regime).
const WINDOW: usize = 4;

/// Builds a pipeline-shaped graph mirroring what `exec::lower` emits:
/// `devices` pipeline devices, each with a compute resource plus a link
/// resource carrying explicit stage-boundary sends; `len` compute ops per
/// device queue (`len / 2` microbatches, each a forward wave ascending
/// the devices and a backward wave descending them), interleaved 1F1B
/// with [`WINDOW`] microbatches in flight.
///
/// Backward waves travel *against* the resource scan order, which is the
/// regime where the reference round-robin solver degenerates into its
/// O(resources × ops) rescan worst case.
fn pipeline_graph(devices: usize, len: usize) -> OpGraph<u32> {
    let microbatches = len / 2;
    let mut g: OpGraph<u32> =
        OpGraph::with_capacity(2 * devices, 2 * devices * len, 3 * devices * len);
    let compute: Vec<_> = (0..devices)
        .map(|d| g.add_resource(format!("d{d}.compute")))
        .collect();
    let link: Vec<_> = (0..devices)
        .map(|d| g.add_resource(format!("d{d}.link")))
        .collect();
    let mut fwd_send = vec![vec![None; microbatches]; devices];
    let mut bwd = vec![vec![None; microbatches]; devices];
    let mut bwd_send: Vec<Vec<Option<OpId>>> = vec![vec![None; microbatches]; devices];
    for d in 0..devices {
        // Per-device queue order: warm up with WINDOW forwards, then
        // alternate backward/forward, then drain the backward tail.
        let mut queue: Vec<(bool, usize)> = Vec::new();
        for m in 0..WINDOW.min(microbatches) {
            queue.push((true, m));
        }
        for m in 0..microbatches.saturating_sub(WINDOW) {
            queue.push((false, m));
            queue.push((true, m + WINDOW));
        }
        for m in microbatches.saturating_sub(WINDOW)..microbatches {
            queue.push((false, m));
        }
        for (is_fwd, m) in queue {
            if is_fwd {
                let deps: Vec<OpId> = if d > 0 {
                    vec![fwd_send[d - 1][m].unwrap()]
                } else {
                    Vec::new()
                };
                let f = g.add_op(compute[d], SimDuration::from_nanos(10), &deps, m as u32);
                if d + 1 < devices {
                    fwd_send[d][m] =
                        Some(g.add_op(link[d], SimDuration::from_nanos(3), &[f], m as u32));
                }
            } else {
                let b = g.add_op(compute[d], SimDuration::from_nanos(10), &[], m as u32);
                bwd[d][m] = Some(b);
                if d > 0 {
                    bwd_send[d][m] =
                        Some(g.add_op(link[d], SimDuration::from_nanos(3), &[b], m as u32));
                }
            }
        }
    }
    // Backward-wave wiring points "forwards" in creation order, exactly
    // like the cross-device edges the lowering adds late.
    for d in 0..devices - 1 {
        for m in 0..microbatches {
            g.add_dep(bwd[d][m].unwrap(), bwd_send[d + 1][m].unwrap());
        }
    }
    g
}

/// The shapes swept: the original three plus wide (many resources) and
/// deep (long chains) extremes.
const SHAPES: [(usize, usize); 5] = [(8, 100), (8, 1000), (32, 1000), (256, 100), (8, 10000)];

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for (chains, len) in SHAPES {
        let g = pipeline_graph(chains, len);
        group.bench_with_input(
            BenchmarkId::new("solve", format!("{chains}x{len}")),
            &g,
            |b, g| b.iter(|| g.solve().unwrap().makespan()),
        );
        group.bench_with_input(
            BenchmarkId::new("solve_reference", format!("{chains}x{len}")),
            &g,
            |b, g| b.iter(|| g.solve_reference().unwrap().makespan()),
        );
        group.bench_with_input(
            BenchmarkId::new("solve_makespan", format!("{chains}x{len}")),
            &g,
            |b, g| {
                let mut solver = Solver::new(g);
                b.iter(|| solver.solve_makespan().unwrap())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("resolve_durations", format!("{chains}x{len}")),
            &g,
            |b, g| {
                let mut solver = Solver::new(g);
                let durations: Vec<SimDuration> =
                    g.op_ids().map(|id| g.op(id).duration() * 2).collect();
                b.iter(|| solver.solve_makespan_with_durations(&durations).unwrap())
            },
        );
        // The batched candidate-evaluation pattern: one prebuilt solver
        // workspace re-timed against an 8-row SoA duration matrix by
        // trace replay. Per-candidate cost is this arm divided by 8.
        group.bench_with_input(
            BenchmarkId::new("replay_batch8", format!("{chains}x{len}")),
            &g,
            |b, g| {
                let mut solver = Solver::new(g);
                let mut batch = DurationMatrix::new(g.num_ops());
                for k in 0..8u64 {
                    let row = batch.push_row();
                    for (i, id) in g.op_ids().enumerate() {
                        row[i] = g.op(id).duration() * (k + 1);
                    }
                }
                b.iter(|| {
                    let mut acc = SimDuration::ZERO;
                    solver
                        .solve_batch(&batch, |_, stats| acc += stats.makespan)
                        .unwrap();
                    acc
                })
            },
        );
    }
    group.finish();
}

/// The robustness-sweep pattern: one complete severity point — lowered
/// graph to [`bfpp_exec::Measurement`] — as the old path computed it
/// (`simulate_perturbed`: re-lower, solve, measure the timeline) vs. the
/// new duration-only re-solve (perturb cached durations, re-solve into
/// [`bfpp_sim::SolveStats`], measure those) over a lowering done once
/// outside the loop.
fn bench_robustness_point(c: &mut Criterion) {
    let model = bert_52b();
    let cluster = dgx1_v100(8);
    let cfg = ParallelConfig::new(
        Grid::new(1, 8, 8),
        Placement::looping(8, 8),
        BatchConfig::new(16, 1),
        DataParallelism::Unsharded,
    );
    let kernel = KernelModel::v100();
    let kind = ScheduleKind::BreadthFirst;
    let perturbation = Perturbation::with_seed(0xB1F).with_straggler(4, 1.5);

    let mut group = c.benchmark_group("robustness_point");
    group.bench_function("full_lower_and_solve", |b| {
        b.iter(|| {
            bfpp_exec::simulate_perturbed(
                &model,
                &cluster,
                &cfg,
                kind,
                OverlapConfig::full(),
                &kernel,
                &perturbation,
            )
            .unwrap()
        })
    });
    let lowered = lower(&model, &cluster, &cfg, kind, OverlapConfig::full(), &kernel).unwrap();
    let mut solver = Solver::new(&lowered.graph);
    let mut durations: Vec<SimDuration> = Vec::new();
    group.bench_function("duration_only_resolve", |b| {
        b.iter(|| {
            lowered.perturbed_durations(&perturbation, &mut durations);
            let stats = solver.solve_stats_with_durations(&durations).unwrap();
            bfpp_exec::measure_stats(&model, &cluster, &cfg, &lowered, &stats)
        })
    });
    group.finish();
}

fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_solver, bench_robustness_point
}
criterion_main!(benches);
