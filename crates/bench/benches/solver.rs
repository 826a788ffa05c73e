//! Criterion: throughput of the timeline solver itself.
//!
//! Benches the solver core against the round-robin reference
//! oracle (`reference-solver` feature) across pipeline shapes, plus the
//! duration-only re-solve fast path, the shared-workspace trace replay
//! of (kind × resource) duration tables behind topology-class candidate
//! evaluation, and the robustness-sweep
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
use bfpp_sim::{DurationTable, OpGraph, OpId, ReplayWorkspace, SimDuration, SolveStats, Solver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// How many microbatches a device runs ahead of the backward wave — the
/// 1F1B in-flight window (small, as in the paper's memory-bound regime).
const WINDOW: usize = 4;

/// Every compute op's duration, and every send's, in nanoseconds.
const COMPUTE_NS: u64 = 10;
const SEND_NS: u64 = 3;

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
                let f = g.add_op(
                    compute[d],
                    SimDuration::from_nanos(COMPUTE_NS),
                    &deps,
                    m as u32,
                );
                if d + 1 < devices {
                    fwd_send[d][m] =
                        Some(g.add_op(link[d], SimDuration::from_nanos(SEND_NS), &[f], m as u32));
                }
            } else {
                let b = g.add_op(
                    compute[d],
                    SimDuration::from_nanos(COMPUTE_NS),
                    &[],
                    m as u32,
                );
                bwd[d][m] = Some(b);
                if d > 0 {
                    bwd_send[d][m] =
                        Some(g.add_op(link[d], SimDuration::from_nanos(SEND_NS), &[b], m as u32));
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

/// The graph-free replay workspace of `g`, as a topology class builds
/// one: each op's resource and its `deps_of` row.
fn workspace<T>(g: &OpGraph<T>) -> ReplayWorkspace {
    let op_resource = g.op_ids().map(|id| g.op(id).resource().index() as u32);
    let mut dep_indptr = vec![0];
    let mut deps = Vec::new();
    for id in g.op_ids() {
        deps.extend(g.deps_of(id).iter().map(|d| d.index() as u32));
        dep_indptr.push(deps.len() as u32);
    }
    ReplayWorkspace::discover(g.num_resources(), op_resource.collect(), dep_indptr, deps)
        .expect("pipeline graphs are acyclic")
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
                b.iter(|| solver.solve_stats_with_durations(&durations).unwrap())
            },
        );
        // The topology-class evaluation pattern: 8 members, each a
        // (kind × resource) duration table — a compute kind and a send
        // kind here — re-timed through one immutable replay workspace
        // whose ops carry their kinds. Per-candidate cost is this arm
        // divided by 8.
        group.bench_with_input(
            BenchmarkId::new("replay_batch8", format!("{chains}x{len}")),
            &g,
            |b, g| {
                // Compute resources come first (`0..chains`), links after.
                let kinds = g
                    .op_ids()
                    .map(|id| u8::from(g.op(id).resource().index() >= chains))
                    .collect();
                let ws = workspace(g).with_kinds(2, kinds);
                let tables: Vec<SimDuration> = (1..=8u64)
                    .flat_map(|k| {
                        [COMPUTE_NS, SEND_NS].into_iter().flat_map(move |ns| {
                            std::iter::repeat_n(SimDuration::from_nanos(ns * k), g.num_resources())
                        })
                    })
                    .collect();
                let mut stats = SolveStats {
                    makespan: SimDuration::ZERO,
                    busy: Vec::new(),
                    peak_memory: None,
                };
                b.iter(|| {
                    let mut acc = SimDuration::ZERO;
                    for cells in tables.chunks_exact(ws.table_len()) {
                        ws.replay_table_into(DurationTable { cells, draws: None }, &mut stats);
                        acc += stats.makespan;
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

/// The robustness-sweep pattern: one complete severity point — lowered
/// graph to [`bfpp_exec::Measurement`] — re-lowered per point
/// (`simulate_perturbed`: lower, perturb the clean duration row, solve it
/// on a freshly built [`Solver`], measure the stats) vs. the
/// duration-only re-solve (perturb the row, re-solve into
/// [`bfpp_sim::SolveStats`] on one reused solver, measure those) over a
/// lowering done once outside the loop.
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
