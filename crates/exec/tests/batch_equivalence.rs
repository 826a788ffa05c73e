//! Property tests of the batched topology-class evaluator.
//!
//! Per class: a base built straight from `(ClassKey, Schedule)` must
//! agree with a full `lower_with_schedule` + `Solver` over the member's
//! `OpGraph` — row fill equals `LoweredGraph::perturbed_durations`,
//! replay equals `solve_stats_with_durations`, and a class fails exactly
//! when the graph fails — for random kind, placement, micro-batch
//! count, DP mode, DP activity, overlap flags and zero/non-zero
//! transfers, on homogeneous and mixed fleets.
//!
//! Per search: for random methods, batch sizes, limits and
//! perturbations, `EvalMode::Batched` (one replay workspace per shape
//! class, SoA duration rows, trace replay) must be **bit-identical** to
//! `EvalMode::PerCandidate` (lower + full solve per candidate) — same
//! winner, same measurement to the bit, same prune counters — at every
//! thread count.

use std::sync::Arc;

use bfpp_cluster::presets::{dgx1_v100, mixed_v100_a100, mixed_v100_a100_asym};
use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_exec::batch::{ClassBase, ClassKey};
use bfpp_exec::search::{best_config_with_report, EvalMode, Method, SearchOptions};
use bfpp_exec::{
    lower_with_schedule, Candidate, Durations, KernelModel, OverlapConfig, SplitStrategy,
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

        let mut row = vec![SimDuration::ZERO; base.num_ops()];
        let mut factors = Vec::new();
        let mut expect = Vec::new();
        let mut stats = empty_stats();
        for p in [
            Perturbation::none(),
            Perturbation::with_seed(11).with_straggler(cand.grid.n_pp - 1, 1.4),
            Perturbation::with_seed(5).with_jitter(0.2).with_link_degradation(1.3),
        ] {
            base.fill_row(&d, &p, &mut factors, &mut row);
            lowered.perturbed_durations(&p, &mut expect);
            prop_assert_eq!(&row, &expect, "{:?} under {:?}", cand, p);
            base.lock_replay().replay_stats_into(&row, &mut stats);
            let full = solver.solve_stats_with_durations(&row).expect("solvable");
            prop_assert_eq!(stats.makespan, full.makespan, "{:?} under {:?}", cand, p);
            prop_assert_eq!(&stats.busy, &full.busy, "{:?} under {:?}", cand, p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Grouping candidates into topology classes and re-timing them by
    /// trace replay must never change the answer or the accounting.
    #[test]
    fn batched_equals_per_candidate((method, batch, opts) in searches()) {
        let model = bert_6_6b();
        let cluster = dgx1_v100(1);
        let kernel = KernelModel::v100();
        let reference = best_config_with_report(
            &model,
            &cluster,
            method,
            batch,
            &kernel,
            &SearchOptions { eval: EvalMode::PerCandidate, threads: 1, ..opts.clone() },
        );
        for threads in [1usize, 2, 4] {
            let batched = best_config_with_report(
                &model,
                &cluster,
                method,
                batch,
                &kernel,
                &SearchOptions { eval: EvalMode::Batched, threads, ..opts.clone() },
            );
            prop_assert_eq!(
                &batched.0,
                &reference.0,
                "winner: {} @ batch {} threads {} with {:?}",
                method,
                batch,
                threads,
                &opts
            );
            prop_assert_eq!(
                (
                    batched.1.enumerated,
                    batched.1.pruned_memory,
                    batched.1.pruned_throughput,
                    batched.1.simulated,
                    batched.1.best,
                    batched.1.robust_tflops,
                    batched.1.retention,
                ),
                (
                    reference.1.enumerated,
                    reference.1.pruned_memory,
                    reference.1.pruned_throughput,
                    reference.1.simulated,
                    reference.1.best,
                    reference.1.robust_tflops,
                    reference.1.retention,
                ),
                "report: {} @ batch {} threads {}",
                method,
                batch,
                threads
            );
        }
    }
}

/// The winner's full measurement — makespan, memory, utilization — must
/// match to the bit on a known-nontrivial cell (the paper's Fig. 5a
/// shape), not merely compare equal through the throughput ordering.
#[test]
fn fig5a_cell_winner_measurement_is_bit_identical() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();
    let mk = |eval: EvalMode, threads: usize| SearchOptions {
        eval,
        threads,
        ..SearchOptions::default()
    };
    let (reference, _) = best_config_with_report(
        &model,
        &cluster,
        Method::BreadthFirst,
        16,
        &kernel,
        &mk(EvalMode::PerCandidate, 1),
    );
    let reference = reference.expect("Fig. 5a cell has a winner");
    for threads in [1usize, 2, 4] {
        let (batched, _) = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &kernel,
            &mk(EvalMode::Batched, threads),
        );
        let batched = batched.expect("batched search finds the same winner");
        assert_eq!(batched.cfg, reference.cfg, "threads={threads}");
        assert_eq!(
            batched.measurement, reference.measurement,
            "threads={threads}: measurement must be bit-identical"
        );
    }
}
