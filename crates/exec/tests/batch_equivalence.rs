//! Property tests of the batched topology-class evaluator.
//!
//! Per class: a base built straight from `(ClassKey, Schedule)` must
//! agree with a full `lower_with_schedule` + `Solver` over the member's
//! `OpGraph` — a member's duration table, expanded per op through the
//! replay's own read, equals `LoweredGraph::perturbed_durations`, its
//! replay equals `solve_stats_with_durations`, and a class fails exactly
//! when the graph fails — for random kind, placement, micro-batch
//! count, DP mode, DP activity, overlap flags and zero/non-zero
//! transfers, on homogeneous and mixed fleets. Under a slow-only
//! perturbation a member never replays shorter than its clean self.
//!
//! Per search: for random methods, batch sizes, limits and
//! perturbations, the engine (pruning, one replay workspace per shape
//! class, (kind × resource) duration tables, trace replay) must be
//! **bit-identical** to `best_config_exhaustive` (lower + full solve of
//! every candidate) — same winner, same measurement to the bit, same
//! robustness probe — with every candidate accounted for and the same
//! counters at every thread count.
//!
//! Per shared base: threads replaying one `Arc<ClassBase>` at once get
//! exactly the serial answers, since replay never writes to the base.

use std::sync::{Arc, Barrier};

use bfpp_cluster::presets::{dgx1_v100, mixed_v100_a100, mixed_v100_a100_asym};
use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_exec::batch::{ClassBase, ClassKey, MemberTables};
use bfpp_exec::search::{
    best_config_exhaustive, search, Method, SearchEnv, SearchHooks, SearchOptions, SearchResult,
};
use bfpp_exec::{
    lower_with_schedule, measure_stats, simulate_perturbed, Candidate, Durations, KernelModel,
    OverlapConfig, SplitStrategy,
};
use bfpp_model::presets::bert_6_6b;
use bfpp_parallel::{BatchConfig, DataParallelism, Grid, Placement};
use bfpp_sim::{Perturbation, SimDuration, SolveStats, Solver};
use proptest::prelude::*;

/// One class to build: a candidate on a fleet under an overlap setting.
#[derive(Debug, Clone)]
struct ClassCase {
    cluster: ClusterSpec,
    cand: Candidate,
    overlap: OverlapConfig,
}

fn class_cases() -> impl Strategy<Value = ClassCase> {
    (
        (
            proptest::sample::select(vec![
                dgx1_v100(1),
                dgx1_v100(2),
                mixed_v100_a100(1, 1),
                mixed_v100_a100_asym(1, 1),
            ]),
            proptest::sample::select(ScheduleKind::ALL.to_vec()),
            proptest::sample::select(vec![1u32, 2, 4, 8]),
            proptest::sample::select(vec![1u32, 2, 4]),
        ),
        proptest::sample::select(vec![1u32, 2, 3, 4, 6, 8]),
        proptest::sample::select(vec![
            DataParallelism::Unsharded,
            DataParallelism::PartiallySharded,
            DataParallelism::FullySharded,
        ]),
        proptest::sample::select(vec![1u32, 2, 4, 8]),
        (any::<bool>(), any::<bool>()),
        // A zero multiplier zeroes every transfer: no sends, free DP.
        proptest::sample::select(vec![1.0f64, 2.5, 0.0]),
        proptest::sample::select(vec![
            SplitStrategy::Uniform,
            SplitStrategy::SpeedProportional,
        ]),
    )
        .prop_map(
            |((cluster, kind, n_pp, n_loop), n_mb, dp, n_tp, (ov_dp, ov_pp), mult, split)| {
                let n_dp = (cluster.num_gpus() / (n_pp * n_tp)).max(1);
                let placement = if n_loop == 1 {
                    Placement::linear(n_pp)
                } else {
                    Placement::looping(n_pp, n_loop)
                };
                ClassCase {
                    cluster,
                    cand: Candidate {
                        grid: Grid::new(n_dp, n_tp, n_pp),
                        placement,
                        batch: BatchConfig::new(n_mb, 1),
                        kind,
                        dp,
                        split,
                    },
                    overlap: OverlapConfig {
                        dp: ov_dp,
                        pp: ov_pp,
                        comm_multiplier: mult,
                    },
                }
            },
        )
}

fn empty_stats() -> SolveStats {
    SolveStats {
        makespan: SimDuration::ZERO,
        busy: Vec::new(),
        peak_memory: None,
    }
}

fn perturbations() -> Vec<Perturbation> {
    vec![
        Perturbation::none(),
        Perturbation::with_seed(42),
        Perturbation::with_seed(7).with_straggler(0, 1.4),
        Perturbation::with_seed(9)
            .with_jitter(0.1)
            .with_link_degradation(1.2),
    ]
}

/// The robustness columns the engine must report for `winner`: its
/// throughput under [`Perturbation::reference_probe`], from a full
/// lowering re-timed under the probe's duration row (the graph path,
/// independent of the engine's class bases), and that over its clean
/// throughput.
fn probe_oracle(
    model: &bfpp_model::TransformerConfig,
    cluster: &ClusterSpec,
    kernel: &KernelModel,
    winner: &SearchResult,
) -> (f64, f64) {
    let robust = simulate_perturbed(
        model,
        cluster,
        &winner.cfg,
        winner.kind,
        winner.overlap,
        kernel,
        &Perturbation::reference_probe(),
    )
    .expect("the winner simulates under the probe")
    .tflops_per_gpu;
    (robust, robust / winner.measurement.tflops_per_gpu)
}

fn searches() -> impl Strategy<Value = (Method, u64, SearchOptions)> {
    (
        proptest::sample::select(Method::ALL.to_vec()),
        proptest::sample::select(vec![8u64, 16, 24, 48]),
        proptest::sample::select(vec![2u32, 4]),
        proptest::sample::select(vec![4u32, 8]),
        proptest::sample::select(perturbations()),
    )
        .prop_map(|(method, batch, max_microbatch, max_loop, perturbation)| {
            (
                method,
                batch,
                SearchOptions {
                    max_microbatch,
                    max_loop,
                    max_actions: 20_000,
                    perturbation,
                    ..SearchOptions::default()
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A class built from its key and schedule is the member's lowered
    /// graph up to representation: same durations under every
    /// perturbation, same replayed timeline aggregates, same failures.
    #[test]
    fn direct_class_build_matches_full_lowering(case in class_cases()) {
        let model = bert_6_6b();
        let kernel = KernelModel::v100();
        let ClassCase { cluster, cand, overlap } = case;
        // Shapes the fleet cannot host are skipped (the speed-proportional
        // split is only defined for a grid that fits).
        if cand.config().validate(&model, &cluster).is_err() {
            return;
        }
        let cfg = cand.config_on(&model, &cluster);
        if cfg.validate(&model, &cluster).is_err() {
            return;
        }
        let schedule = match Schedule::generate(cand.kind, cand.placement, cand.batch.num_microbatches) {
            Ok(s) => Arc::new(s),
            Err(_) => {
                // Unschedulable: lowering the member fails too.
                prop_assert!(bfpp_exec::lower(&model, &cluster, &cfg, cand.kind, overlap, &kernel).is_err());
                return;
            }
        };
        let d = Durations::new(&model, &cluster, &cfg, &kernel, overlap);
        let key = ClassKey::of(&cand, overlap, &d);
        let base = ClassBase::build(&key, &schedule);
        let lowered = lower_with_schedule(&model, &cluster, &cfg, Arc::clone(&schedule), overlap, &kernel)
            .expect("a valid configuration lowers");
        let mut solver = Solver::new(&lowered.graph);
        let solved = solver.solve_makespan();
        let Some(base) = base else {
            prop_assert!(solved.is_err(), "class failed but the graph solves: {cand:?}");
            return;
        };
        prop_assert!(solved.is_ok(), "graph deadlocks but the class built: {cand:?}");
        prop_assert_eq!(base.num_ops(), lowered.graph.num_ops());

        let mut row = Vec::new();
        let mut expect = Vec::new();
        let mut stats = empty_stats();
        for p in [
            Perturbation::none(),
            Perturbation::with_seed(11).with_straggler(cand.grid.n_pp - 1, 1.4),
            Perturbation::with_seed(5).with_jitter(0.2).with_link_degradation(1.3),
            Perturbation::with_seed(23)
                .with_straggler(0, 1.2)
                .with_jitter(0.5)
                .with_stalls(0.1, SimDuration::from_micros(50)),
        ] {
            let mut tables = MemberTables::new(&p);
            base.fill_tables([&d], &mut tables);
            let table = tables.member(0);
            base.workspace().table_durations(table, &mut row);
            lowered.perturbed_durations(&p, &mut expect);
            prop_assert_eq!(&row, &expect, "{:?} under {:?}", cand, p);
            base.workspace().replay_table_into(table, &mut stats);
            let full = solver.solve_stats_with_durations(&row).expect("solvable");
            prop_assert_eq!(stats.makespan, full.makespan, "{:?} under {:?}", cand, p);
            prop_assert_eq!(&stats.busy, &full.busy, "{:?} under {:?}", cand, p);
        }
    }

    /// A slow-only perturbation — stragglers and link degradation, every
    /// factor ≥ 1, no jitter or stalls — never shortens a replay: end
    /// times are non-decreasing in every duration, and the trace does
    /// not depend on durations. The member-table replay also equals the
    /// row-based graph solve of `simulate_perturbed` on the clean
    /// lowering.
    #[test]
    fn slow_only_perturbations_never_shorten_a_replay(
        case in class_cases(),
        stragglers in proptest::collection::vec((0u32..8, 1.0f64..3.0), 0..4),
        link in proptest::sample::select(vec![1.0f64, 1.0, 1.3, 2.0]),
        seed in 0u64..1_000_000,
    ) {
        let model = bert_6_6b();
        let kernel = KernelModel::v100();
        let ClassCase { cluster, cand, overlap } = case;
        if cand.config().validate(&model, &cluster).is_err() {
            return;
        }
        let cfg = cand.config_on(&model, &cluster);
        if cfg.validate(&model, &cluster).is_err() {
            return;
        }
        let Ok(schedule) = Schedule::generate(cand.kind, cand.placement, cand.batch.num_microbatches) else {
            return;
        };
        let d = Durations::new(&model, &cluster, &cfg, &kernel, overlap);
        let key = ClassKey::of(&cand, overlap, &d);
        let Some(base) = ClassBase::build(&key, &schedule) else {
            return;
        };
        let slow = stragglers
            .iter()
            .fold(Perturbation::with_seed(seed), |p, &(dev, m)| p.with_straggler(dev, m))
            .with_link_degradation(link);
        prop_assert!(!slow.has_randomness() && slow.max_speedup() == 1.0);

        let replay = |p: &Perturbation| {
            let mut tables = MemberTables::new(p);
            base.fill_tables([&d], &mut tables);
            let mut stats = empty_stats();
            base.workspace().replay_table_into(tables.member(0), &mut stats);
            stats
        };
        let (clean, slowed) = (replay(&Perturbation::none()), replay(&slow));
        prop_assert!(
            slowed.makespan >= clean.makespan,
            "{:?} under {:?}: {:?} < {:?}",
            cand,
            slow,
            slowed.makespan,
            clean.makespan
        );

        let lowered = bfpp_exec::lower(&model, &cluster, &cfg, cand.kind, overlap, &kernel)
            .expect("a class that builds lowers");
        let graph = simulate_perturbed(&model, &cluster, &cfg, cand.kind, overlap, &kernel, &slow)
            .expect("a class that builds simulates");
        prop_assert_eq!(
            measure_stats(&model, &cluster, &cfg, &lowered, &slowed),
            graph,
            "{:?} under {:?}",
            cand,
            slow
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pruning, grouping candidates into topology classes and re-timing
    /// them by trace replay must never change the answer: at every
    /// thread count the engine returns the exhaustive reference's
    /// winner, probes it exactly as a full lowering would, accounts for
    /// every candidate, and reports the same counters.
    #[test]
    fn engine_equals_exhaustive((method, batch, opts) in searches()) {
        let model = bert_6_6b();
        let cluster = dgx1_v100(1);
        let kernel = KernelModel::v100();
        let reference = best_config_exhaustive(&model, &cluster, method, batch, &kernel, &opts);
        let probed = reference
            .as_ref()
            .map(|r| probe_oracle(&model, &cluster, &kernel, r));
        let mut counters = None;
        for threads in [1usize, 2, 4] {
            let (engine, report) = search(
                &model,
                &cluster,
                method,
                batch,
                &kernel,
                &SearchOptions { threads, ..opts.clone() },
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            prop_assert_eq!(
                &engine,
                &reference,
                "winner: {} @ batch {} threads {} with {:?}",
                method,
                batch,
                threads,
                &opts
            );
            prop_assert_eq!(
                report.best,
                reference.as_ref().map(|r| r.measurement.tflops_per_gpu)
            );
            prop_assert_eq!(
                report.robust_tflops.zip(report.retention),
                probed,
                "probe: {} @ batch {} threads {}",
                method,
                batch,
                threads
            );
            prop_assert_eq!(
                report.enumerated,
                report.pruned_memory + report.pruned_throughput + report.simulated
            );
            let these = (
                report.enumerated,
                report.pruned_memory,
                report.pruned_throughput,
                report.simulated,
            );
            prop_assert_eq!(*counters.get_or_insert(these), these, "threads {}", threads);
        }
    }
}

/// The winner's full measurement — makespan, memory, utilization — must
/// match the exhaustive reference to the bit on a known-nontrivial cell
/// (the paper's Fig. 5a shape), not merely compare equal through the
/// throughput ordering.
#[test]
fn fig5a_cell_winner_measurement_is_bit_identical() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();
    let opts = SearchOptions::default();
    let reference =
        best_config_exhaustive(&model, &cluster, Method::BreadthFirst, 16, &kernel, &opts)
            .expect("Fig. 5a cell has a winner");
    let probed = probe_oracle(&model, &cluster, &kernel, &reference);
    for threads in [1usize, 2, 4] {
        let (engine, report) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &kernel,
            &SearchOptions {
                threads,
                ..opts.clone()
            },
            &SearchEnv::private(),
            SearchHooks::default(),
        );
        let engine = engine.expect("the engine finds the same winner");
        assert_eq!(engine.cfg, reference.cfg, "threads={threads}");
        assert_eq!(
            engine.measurement, reference.measurement,
            "threads={threads}: measurement must be bit-identical"
        );
        assert_eq!(
            report.robust_tflops.zip(report.retention),
            Some(probed),
            "threads={threads}: probe must be bit-identical"
        );
    }
}

/// A cached class base is shared by concurrent sessions with no lock:
/// replay reads the base and writes only the calling thread's buffers.
/// Eight jittered member tables, drawn per op in the replay, replayed
/// from four threads at once, each starting at a different table, must
/// give every thread the serial stats bit for bit.
#[test]
fn a_shared_base_replays_bit_identically_from_concurrent_threads() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(4);
    let kernel = KernelModel::v100();
    let overlap = OverlapConfig::full();
    let member = |n_dp: u32, n_tp: u32, s_mb: u32| Candidate {
        grid: Grid::new(n_dp, n_tp, 4),
        placement: Placement::looping(4, 2),
        batch: BatchConfig::new(8, s_mb),
        kind: ScheduleKind::BreadthFirst,
        dp: DataParallelism::FullySharded,
        split: SplitStrategy::Uniform,
    };
    let members = [
        member(4, 2, 1),
        member(2, 4, 1),
        member(8, 1, 2),
        member(4, 2, 2),
    ];
    let parts: Vec<(ClassKey, Durations)> = members
        .iter()
        .map(|cand| {
            let cfg = cand.config_on(&model, &cluster);
            cfg.validate(&model, &cluster).expect("a valid member");
            let d = Durations::new(&model, &cluster, &cfg, &kernel, overlap);
            (ClassKey::of(cand, overlap, &d), d)
        })
        .collect();
    let key = parts[0].0;
    assert!(parts.iter().all(|(k, _)| *k == key), "one class");
    let schedule = Schedule::generate(key.schedule_kind(), key.placement(), key.num_microbatches())
        .expect("schedulable");
    let base = Arc::new(ClassBase::build(&key, &schedule).expect("acyclic"));

    let perturbations: Vec<Perturbation> = (0..8)
        .map(|k| {
            Perturbation::with_seed(100 + k as u64)
                .with_straggler(k as u32 % 4, 1.3)
                .with_jitter(0.5)
        })
        .collect();
    let tables: Vec<MemberTables> = perturbations
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let mut tables = MemberTables::new(p);
            base.fill_tables([&parts[k % parts.len()].1], &mut tables);
            tables
        })
        .collect();
    let serial: Vec<SolveStats> = tables
        .iter()
        .map(|tables| {
            let mut stats = empty_stats();
            base.workspace()
                .replay_table_into(tables.member(0), &mut stats);
            stats
        })
        .collect();
    assert!(
        serial.windows(2).any(|w| w[0] != w[1]),
        "the jittered tables time differently"
    );

    let start = Barrier::new(4);
    let per_thread: Vec<Vec<SolveStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (base, tables, start) = (Arc::clone(&base), &tables, &start);
                s.spawn(move || {
                    start.wait();
                    let mut got = vec![empty_stats(); 8];
                    for round in 0..4 {
                        for k in 0..8 {
                            let k = (k + 2 * t + round) % 8;
                            base.workspace()
                                .replay_table_into(tables[k].member(0), &mut got[k]);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in per_thread.iter().enumerate() {
        assert_eq!(got, &serial, "thread {t}");
    }
}
