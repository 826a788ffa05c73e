//! Property test of the search engine's soundness: for random methods,
//! batch sizes, limits and thread counts, the layered engine (analytic
//! pruning + class cache + worker pool) must return *exactly* the
//! result of the exhaustive serial reference, and its report must
//! account for every enumerated candidate. Warm what-ifs, which reuse
//! the answers a record's cold search measured, must equal fresh
//! searches too.

use std::sync::Arc;

use bfpp_cluster::presets::dgx1_v100;
use bfpp_exec::candidates::enumerate;
use bfpp_exec::search::{
    best_config_exhaustive, search, Method, SearchEnv, SearchHooks, SearchOptions,
};
use bfpp_exec::{ClassCache, KernelModel, SearchReport};
use bfpp_model::presets::bert_6_6b;
use bfpp_model::TransformerConfig;
use bfpp_sim::{Perturbation, SimDuration};
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

/// The report fields a warm replay must share with a fresh search.
type Counters = (u64, u64, u64, u64, Option<f64>, Option<f64>, Option<f64>);

fn counters(r: &SearchReport) -> Counters {
    (
        r.enumerated,
        r.pruned_memory,
        r.pruned_throughput,
        r.simulated,
        r.best,
        r.robust_tflops,
        r.retention,
    )
}

fn small_opts(threads: usize) -> SearchOptions {
    SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 20_000,
        threads,
        ..SearchOptions::default()
    }
}

/// A cold request, clean or under a straggler, then the what-ifs a warm
/// replay of it runs: identity, a straggler inside or beyond the
/// candidates' pipelines (on `dgx1_v100(1)` they span at most 8
/// devices), link degradation, stalls without jitter, and jitter.
fn warm_cases() -> impl Strategy<Value = (Method, u64, usize, Perturbation, Vec<Perturbation>)> {
    (
        proptest::sample::select(Method::ALL.to_vec()),
        proptest::sample::select(vec![8u64, 16, 24, 48]),
        1usize..5,
        (any::<bool>(), 0u32..8, 1.1f64..2.0),
        (0u32..10, 1.1f64..2.0, 0u64..1000),
    )
        .prop_map(|(method, batch, threads, cold, (device, factor, seed))| {
            let (slow, cold_device, cold_factor) = cold;
            let cold = if slow {
                Perturbation::with_seed(seed).with_straggler(cold_device, cold_factor)
            } else {
                Perturbation::none()
            };
            let what_ifs = vec![
                Perturbation::with_seed(seed),
                Perturbation::with_seed(seed).with_straggler(device, factor),
                Perturbation::with_seed(seed).with_link_degradation(factor),
                Perturbation::with_seed(seed).with_stalls(0.05, SimDuration::from_micros(200)),
                Perturbation::with_seed(seed).with_jitter(0.1),
            ];
            (method, batch, threads, cold, what_ifs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every warm what-if returns exactly what a fresh search of the
    /// same request returns — winner, measurement and every counter,
    /// whatever the record's cold perturbation — at any thread count,
    /// and its winner is the exhaustive reference's.
    #[test]
    fn warm_what_ifs_equal_fresh_searches(
        (method, batch, threads, cold, what_ifs) in warm_cases()
    ) {
        let model = bert_6_6b();
        let cluster = dgx1_v100(1);
        let kernel = KernelModel::v100();
        let env = SearchEnv::service();
        let cold_opts = SearchOptions {
            perturbation: cold,
            ..small_opts(threads)
        };
        let (_, cold_rep) = search(
            &model, &cluster, method, batch, &kernel, &cold_opts, &env, SearchHooks::default(),
        );
        prop_assert!(!cold_rep.warm_start);
        for perturbation in what_ifs {
            let opts = SearchOptions {
                perturbation,
                ..small_opts(threads)
            };
            let (warm, warm_rep) = search(
                &model, &cluster, method, batch, &kernel, &opts, &env, SearchHooks::default(),
            );
            prop_assert!(warm_rep.warm_start);
            for fresh_threads in [1, 3] {
                let fresh_opts = SearchOptions {
                    threads: fresh_threads,
                    ..opts.clone()
                };
                let (fresh, fresh_rep) = search(
                    &model,
                    &cluster,
                    method,
                    batch,
                    &kernel,
                    &fresh_opts,
                    &SearchEnv::private(),
                    SearchHooks::default(),
                );
                prop_assert_eq!(
                    &warm,
                    &fresh,
                    "{} @ {} after {:?}: {:?}",
                    method,
                    batch,
                    &cold_opts.perturbation,
                    &opts
                );
                prop_assert_eq!(counters(&warm_rep), counters(&fresh_rep), "{:?}", &opts);
            }
            let reference = best_config_exhaustive(&model, &cluster, method, batch, &kernel, &opts);
            prop_assert_eq!(&warm, &reference, "{:?}", &opts);
        }
    }
}

/// A warm replay whose perturbation touches no candidate's pipeline —
/// identity, or a straggler beyond the deepest one — takes every answer
/// from the record: it returns the fresh search's answer and builds no
/// class, the probe's included, so an emptied class cache stays empty.
#[test]
fn untouched_replays_reuse_the_record_and_build_nothing() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(2);
    let kernel = KernelModel::v100();
    let opts = small_opts(2);
    for method in Method::ALL {
        let classes = Arc::new(ClassCache::new());
        let env = SearchEnv {
            classes: Arc::clone(&classes),
            ..SearchEnv::service()
        };
        let (cold, _) = search(
            &model,
            &cluster,
            method,
            16,
            &kernel,
            &opts,
            &env,
            SearchHooks::default(),
        );
        assert!(cold.is_some(), "{method}");
        assert!(
            !classes.is_empty(),
            "{method}: the cold search built classes"
        );
        classes.clear();
        let deepest = enumerate(&model, &cluster, method, 16, &opts)
            .map(|c| c.grid.n_pp)
            .max()
            .expect("candidates");
        for perturbation in [
            Perturbation::none(),
            Perturbation::with_seed(5).with_straggler(deepest, 2.0),
        ] {
            let opts = SearchOptions {
                perturbation,
                ..opts.clone()
            };
            let (warm, rep) = search(
                &model,
                &cluster,
                method,
                16,
                &kernel,
                &opts,
                &env,
                SearchHooks::default(),
            );
            let (fresh, fresh_rep) = search(
                &model,
                &cluster,
                method,
                16,
                &kernel,
                &opts,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            assert_eq!(warm, fresh, "{method}: {:?}", opts.perturbation);
            assert_eq!(counters(&rep), counters(&fresh_rep), "{method}");
            assert!(rep.warm_start && rep.warm_hits == rep.simulated, "{rep:?}");
            assert!(
                classes.is_empty(),
                "{method}: {:?} built a class",
                opts.perturbation
            );
        }
    }
}

/// A model literal with a zero dimension skips the check
/// `TransformerConfig::new` panics on. Neither the engine nor the
/// exhaustive reference may panic on it: no candidate is enumerated,
/// and nothing wins.
#[test]
fn a_model_with_a_zero_dimension_has_no_candidate() {
    let cluster = dgx1_v100(1);
    let kernel = KernelModel::v100();
    let opts = small_opts(2);
    let zeroes: [fn(&mut TransformerConfig); 7] = [
        |m| m.num_layers = 0,
        |m| m.num_heads = 0,
        |m| m.head_size = 0,
        |m| m.hidden_size = 0,
        |m| m.mlp_size = 0,
        |m| m.seq_length = 0,
        |m| m.vocab_size = 0,
    ];
    for zero in zeroes {
        let mut model = bert_6_6b();
        zero(&mut model);
        let field = model.check().expect_err("a zero dimension fails the check");
        for method in Method::ALL {
            let (r, rep) = search(
                &model,
                &cluster,
                method,
                16,
                &kernel,
                &opts,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            assert!(r.is_none(), "{field}: {method}");
            assert_eq!(rep.enumerated, 0, "{field}: {method}");
            assert!(
                best_config_exhaustive(&model, &cluster, method, 16, &kernel, &opts).is_none(),
                "{field}: {method}"
            );
        }
    }
}
