//! Heterogeneous-fleet counterparts of the engine equivalence suites:
//! on mixed V100+A100 fleets (flat and asymmetric fabrics) the layered
//! engine — pruning, topology-class batching and trace replay — must
//! equal the exhaustive serial reference bit-for-bit, and every answer
//! must be bit-identical across worker thread counts — including under
//! straggler/jitter perturbations composed on top of the hardware map.

use bfpp_cluster::presets::{dgx1_v100, mixed_v100_a100, mixed_v100_a100_asym};
use bfpp_cluster::ClusterSpec;
use bfpp_exec::search::{
    best_config_exhaustive, search, Method, SearchEnv, SearchHooks, SearchOptions,
};
use bfpp_exec::{simulate_perturbed, KernelModel};
use bfpp_model::presets::bert_6_6b;
use bfpp_sim::Perturbation;
use proptest::prelude::*;

fn fleets() -> Vec<ClusterSpec> {
    vec![
        mixed_v100_a100(1, 1),
        mixed_v100_a100_asym(1, 1),
        mixed_v100_a100_asym(2, 2),
    ]
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

fn searches() -> impl Strategy<Value = (ClusterSpec, Method, u64, SearchOptions)> {
    (
        proptest::sample::select(fleets()),
        proptest::sample::select(Method::ALL.to_vec()),
        proptest::sample::select(vec![16u64, 32, 48]),
        proptest::sample::select(vec![2u32, 4]),
        proptest::sample::select(vec![2u32, 4]),
        proptest::sample::select(perturbations()),
    )
        .prop_map(
            |(cluster, method, batch, max_microbatch, max_loop, perturbation)| {
                (
                    cluster,
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
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pruning, class batching and parallelism must stay sound when
    /// stage speeds differ: at every thread count the layered engine
    /// equals the exhaustive reference on mixed fleets — winner,
    /// robustness probe and retention to the bit — every enumerated
    /// candidate is accounted for, and the counters do not depend on
    /// the thread count.
    #[test]
    fn engine_equals_exhaustive_on_mixed_fleets(
        (cluster, method, batch, opts) in searches()
    ) {
        let model = bert_6_6b();
        let kernel = KernelModel::v100();
        let reference =
            best_config_exhaustive(&model, &cluster, method, batch, &kernel, &opts);
        let probed = reference.as_ref().map(|r| {
            let robust = simulate_perturbed(
                &model,
                &cluster,
                &r.cfg,
                r.kind,
                r.overlap,
                &kernel,
                &Perturbation::reference_probe(),
            )
            .expect("the winner simulates under the probe")
            .tflops_per_gpu;
            (robust, robust / r.measurement.tflops_per_gpu)
        });
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
                "{} on {} @ batch {} threads {} with {:?}",
                method,
                cluster.name,
                batch,
                threads,
                &opts
            );
            prop_assert_eq!(
                report.robust_tflops.zip(report.retention),
                probed,
                "probe: {} on {} @ batch {} threads {}",
                method,
                cluster.name,
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

/// A heterogeneous search with a straggler composed on top of the
/// hardware map must be bit-identical across repeated runs and across
/// every worker thread count — the Fig. 5a-shaped smoke of the ISSUE's
/// determinism requirement.
#[test]
fn mixed_fleet_search_is_bit_identical_across_threads() {
    let model = bert_6_6b();
    let cluster = mixed_v100_a100_asym(1, 1);
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
        Method::BreadthFirst,
        16,
        &kernel,
        &mk(1),
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    assert!(first.is_some(), "mixed-fleet search must find a winner");
    for threads in [1usize, 2, 4] {
        for _run in 0..2 {
            let (r, report) = search(
                &model,
                &cluster,
                Method::BreadthFirst,
                16,
                &kernel,
                &mk(threads),
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            assert_eq!(r, first, "threads={threads}: winner must be bit-identical");
            assert_eq!(
                (report.enumerated, report.simulated, report.best),
                (
                    first_report.enumerated,
                    first_report.simulated,
                    first_report.best
                ),
                "threads={threads}: report must be bit-identical"
            );
        }
    }
}

/// Homogeneous behavior is untouched: the same search on a homogeneous
/// fleet enumerates no speed-proportional candidates, and a mixed fleet
/// enumerates strictly more points than its homogeneous twin only
/// through the split axis (everything else about the space is equal).
#[test]
fn homogeneous_fleets_keep_their_candidate_stream() {
    let model = bert_6_6b();
    let kernel = KernelModel::v100();
    let opts = SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 20_000,
        threads: 2,
        ..SearchOptions::default()
    };
    let homogeneous = dgx1_v100(2);
    let mixed = mixed_v100_a100(1, 1);
    let (_, hom_report) = search(
        &model,
        &homogeneous,
        Method::BreadthFirst,
        16,
        &kernel,
        &opts,
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    let (_, mixed_report) = search(
        &model,
        &mixed,
        Method::BreadthFirst,
        16,
        &kernel,
        &opts,
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    assert!(
        mixed_report.enumerated > hom_report.enumerated,
        "the split axis adds candidates on a speed-diverse fleet \
         ({} !> {})",
        mixed_report.enumerated,
        hom_report.enumerated
    );
    // And the winner a mixed fleet reports resolves its split: either a
    // uniform config (layer_split stays Uniform) or a per-device one —
    // both must validate against the fleet that produced them.
    let (winner, _) = search(
        &model,
        &mixed,
        Method::BreadthFirst,
        16,
        &kernel,
        &opts,
        &SearchEnv::private(),
        SearchHooks::default(),
    );
    let winner = winner.expect("mixed fleet finds a winner");
    assert!(winner.cfg.validate(&model, &mixed).is_ok());
}
