//! Property test of the search engine's soundness: for random methods,
//! batch sizes, limits and thread counts, the layered engine (analytic
//! pruning + class cache + worker pool) must return *exactly* the
//! result of the exhaustive serial reference, and its report must
//! account for every enumerated candidate.

use bfpp_cluster::presets::dgx1_v100;
use bfpp_exec::search::{
    best_config_exhaustive, search, Method, SearchEnv, SearchHooks, SearchOptions,
};
use bfpp_exec::KernelModel;
use bfpp_model::presets::bert_6_6b;
use bfpp_sim::Perturbation;
use proptest::prelude::*;

/// The perturbations the property test samples: identity, seeded
/// identity (must behave exactly like identity), and genuinely degraded
/// timelines (the engine must stay exhaustive-equivalent under all).
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
        1usize..5,
        proptest::sample::select(perturbations()),
    )
        .prop_map(
            |(method, batch, max_microbatch, max_loop, threads, perturbation)| {
                (
                    method,
                    batch,
                    SearchOptions {
                        max_microbatch,
                        max_loop,
                        max_actions: 20_000,
                        threads,
                        perturbation,
                        ..SearchOptions::default()
                    },
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pruning and parallelism must never change the answer: same
    /// winner (bit-identical measurement included), and every enumerated
    /// candidate either pruned or simulated.
    #[test]
    fn engine_equals_exhaustive_reference((method, batch, opts) in searches()) {
        let model = bert_6_6b();
        let cluster = dgx1_v100(1);
        let kernel = KernelModel::v100();
        let reference =
            best_config_exhaustive(&model, &cluster, method, batch, &kernel, &opts);
        let (engine, report) = search(
            &model,
            &cluster,
            method,
            batch,
            &kernel,
            &opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
        prop_assert_eq!(
            &engine,
            &reference,
            "{} @ batch {} with {:?}",
            method,
            batch,
            &opts
        );
        prop_assert_eq!(
            report.enumerated,
            report.pruned_memory + report.pruned_throughput + report.simulated
        );
        prop_assert_eq!(
            report.best,
            engine.as_ref().map(|r| r.measurement.tflops_per_gpu)
        );
    }
}

/// A fixed perturbation seed must produce bit-identical timelines — and
/// therefore bit-identical search results and counters — across repeated
/// runs and across every worker thread count.
#[test]
fn fixed_seed_is_bit_identical_across_runs_and_threads() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(1);
    let kernel = KernelModel::v100();
    let mk = |threads: usize| SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 20_000,
        threads,
        perturbation: Perturbation::with_seed(0xB1F)
            .with_straggler(0, 1.5)
            .with_jitter(0.08),
        ..SearchOptions::default()
    };
    let (first, first_report) = search(
        &model,
        &cluster,
        Method::NonLooped,
        16,
        &kernel,
        &mk(1),
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    assert!(first.is_some(), "perturbed search must still find a winner");
    for threads in [1usize, 2, 4] {
        for _run in 0..2 {
            let (r, report) = search(
                &model,
                &cluster,
                Method::NonLooped,
                16,
                &kernel,
                &mk(threads),
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            assert_eq!(r, first, "threads={threads}: winner must be bit-identical");
            assert_eq!(
                (
                    report.enumerated,
                    report.pruned_memory,
                    report.pruned_throughput,
                    report.simulated,
                    report.best,
                    report.robust_tflops,
                    report.retention,
                ),
                (
                    first_report.enumerated,
                    first_report.pruned_memory,
                    first_report.pruned_throughput,
                    first_report.simulated,
                    first_report.best,
                    first_report.robust_tflops,
                    first_report.retention,
                ),
                "threads={threads}: report must be bit-identical"
            );
        }
    }
}

/// A zero-magnitude (seeded but empty) perturbation is the identity:
/// the perturbed engine must reproduce the unperturbed one bit-for-bit.
#[test]
fn zero_magnitude_equals_unperturbed() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(1);
    let kernel = KernelModel::v100();
    let base = SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 20_000,
        threads: 2,
        ..SearchOptions::default()
    };
    let seeded = SearchOptions {
        perturbation: Perturbation::with_seed(31337),
        ..base.clone()
    };
    let clean = search(
        &model,
        &cluster,
        Method::NonLooped,
        16,
        &kernel,
        &base,
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    let zeroed = search(
        &model,
        &cluster,
        Method::NonLooped,
        16,
        &kernel,
        &seeded,
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    assert_eq!(clean.0, zeroed.0);
    assert_eq!(clean.1.best, zeroed.1.best);
    assert_eq!(clean.1.simulated, zeroed.1.simulated);
}
