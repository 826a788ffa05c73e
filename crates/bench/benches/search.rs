//! Criterion: one simulation, the layered search engine against the
//! exhaustive serial loop it replaced (same Figure 5a cell, same answer,
//! different amounts of work), and the planner service cold vs warm —
//! the same sweep re-planned under a perturbation from a recorded
//! warm-start base instead of from scratch.

use std::time::Instant;

use bfpp_cluster::presets::dgx1_v100;
use bfpp_cluster::NodeId;
use bfpp_core::ScheduleKind;
use bfpp_exec::search::{best_config, best_config_exhaustive, Method, SearchOptions};
use bfpp_exec::{simulate, ClassCache, KernelModel, OverlapConfig, Perturbation};
use bfpp_model::presets::bert_52b;
use bfpp_parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
use bfpp_planner::{ClusterDelta, PlanRequest, Planner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_simulate(c: &mut Criterion) {
    let model = bert_52b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();
    let cfg = ParallelConfig::new(
        Grid::new(4, 2, 8),
        Placement::looping(8, 8),
        BatchConfig::new(12, 1),
        DataParallelism::FullySharded,
    );
    c.bench_function("simulate_one_config", |b| {
        b.iter(|| {
            simulate(
                &model,
                &cluster,
                &cfg,
                ScheduleKind::BreadthFirst,
                OverlapConfig::full(),
                &kernel,
            )
            .unwrap()
            .tflops_per_gpu
        })
    });
}

fn quick_search_opts(threads: usize) -> SearchOptions {
    SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 30_000,
        threads,
        ..SearchOptions::default()
    }
}

/// The Figure 5a sweep cell both engines race on: the 52 B model at
/// batch 48, every method.
fn run_sweep(search: impl Fn(Method) -> f64) -> f64 {
    Method::ALL.iter().map(|&m| search(m)).sum()
}

fn bench_search(c: &mut Criterion) {
    let model = bert_52b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();

    let mut group = c.benchmark_group("search_fig5a_b48");
    group.bench_function("exhaustive_serial", |b| {
        let opts = quick_search_opts(1);
        b.iter(|| {
            run_sweep(|m| {
                best_config_exhaustive(&model, &cluster, m, 48, &kernel, &opts)
                    .map(|r| r.measurement.tflops_per_gpu)
                    .unwrap_or(0.0)
            })
        })
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("layered", threads),
            &threads,
            |b, &threads| {
                let opts = quick_search_opts(threads);
                b.iter(|| {
                    run_sweep(|m| {
                        best_config(&model, &cluster, m, 48, &kernel, &opts)
                            .map(|r| r.measurement.tflops_per_gpu)
                            .unwrap_or(0.0)
                    })
                })
            },
        );
    }
    group.finish();
}

fn plan_request(method: Method, perturbation: Perturbation) -> PlanRequest {
    let mut opts = quick_search_opts(1);
    opts.perturbation = perturbation;
    PlanRequest {
        opts,
        ..PlanRequest::new(bert_52b(), dgx1_v100(8), method, 48, KernelModel::v100())
    }
}

/// Planner service: the same perturbed Figure 5a sweep (a straggler
/// appeared — re-plan around it) planned cold (fresh planner: every
/// candidate enumerated and every topology class built from scratch) vs
/// warm (from the clean run's record: replayed pruning and recorded
/// class bases, row fill and trace replay only). The ratio is what
/// warm-start re-planning saves on the identical request.
fn bench_planner(c: &mut Criterion) {
    let probe = Perturbation::with_seed(0xB1F).with_straggler(4, 1.5);
    let mut group = c.benchmark_group("planner_fig5a_b48");
    group.bench_function("cold", |b| {
        b.iter(|| {
            // A fresh planner alone is no longer cold: topology-class
            // bases live in a process-global cache. Clear it so this
            // arm keeps measuring a genuinely cold plan.
            ClassCache::global().clear();
            let planner = Planner::new();
            run_sweep(|m| {
                planner
                    .plan(&plan_request(m, probe.clone()))
                    .0
                    .map(|r| r.measurement.tflops_per_gpu)
                    .unwrap_or(0.0)
            })
        })
    });
    group.bench_function("warm_replan", |b| {
        let planner = Planner::new();
        // Prime the warm store with the clean sweep once; every
        // iteration then re-plans the perturbed variant from it.
        run_sweep(|m| {
            planner
                .plan(&plan_request(m, Perturbation::none()))
                .0
                .map(|r| r.measurement.tflops_per_gpu)
                .unwrap_or(0.0)
        });
        b.iter(|| {
            run_sweep(|m| {
                let (result, report) = planner.plan(&plan_request(m, probe.clone()));
                assert!(report.warm_start);
                result.map(|r| r.measurement.tflops_per_gpu).unwrap_or(0.0)
            })
        })
    });
    group.finish();
}

/// Emits end-to-end candidate throughput — enumerated candidates per
/// second of wall clock — for the Figure 5a sweep, planned cold (empty
/// global class cache, fresh planner every iteration) and warm (one
/// planner re-planning the perturbed sweep from its recorded base).
/// These are the `candidates_per_sec` fields of `BENCH_search.json` at
/// the repo root; regenerate that file from this bench's output on a
/// quiet host after perf-relevant changes.
fn bench_candidate_throughput(_c: &mut Criterion) {
    let probe = Perturbation::with_seed(0xB1F).with_straggler(4, 1.5);
    let iters = 10u32;

    let mut cold_cands = 0u64;
    let cold_start = Instant::now();
    for _ in 0..iters {
        ClassCache::global().clear();
        let planner = Planner::new();
        for &m in Method::ALL.iter() {
            let (_, report) = planner.plan(&plan_request(m, probe.clone()));
            cold_cands += report.enumerated;
        }
    }
    let cold_rate = cold_cands as f64 / cold_start.elapsed().as_secs_f64();

    let planner = Planner::new();
    for &m in Method::ALL.iter() {
        let _ = planner.plan(&plan_request(m, Perturbation::none()));
    }
    let mut warm_cands = 0u64;
    let warm_start = Instant::now();
    for _ in 0..iters {
        for &m in Method::ALL.iter() {
            let (_, report) = planner.plan(&plan_request(m, probe.clone()));
            warm_cands += report.enumerated;
        }
    }
    let warm_rate = warm_cands as f64 / warm_start.elapsed().as_secs_f64();

    println!(
        "bench {:<48} {:>12.0} candidates/sec",
        "planner_fig5a_b48/candidates_per_sec/cold", cold_rate
    );
    println!(
        "bench {:<48} {:>12.0} candidates/sec",
        "planner_fig5a_b48/candidates_per_sec/warm", warm_rate
    );
}

/// Elastic re-planning latency on the Figure 5a shape: a node drops out
/// of a 4-node fleet mid-run and the planner must produce a placement
/// for the 3 survivors (three nodes still admit valid grids at batch
/// 48 through `N_DP = 3`; a 7-node survivor fleet would not). The
/// *cold* arm measures the first such drop (the degraded topology has
/// never been planned: quarantine, enumerate, prune, simulate from
/// scratch). The *warm* arm measures the drop of a flapping node — the
/// degraded topology's sweep record survived the re-add, so the re-plan
/// replays it instead of re-searching. These are the
/// `elastic_fig5a_b48` fields of `BENCH_search.json`; both arms are
/// asserted to return bit-identical winners.
fn bench_elastic(_c: &mut Criterion) {
    let iters = 20u32;
    let drop = ClusterDelta::drop_node(NodeId(3));
    let mut req = plan_request(Method::BreadthFirst, Perturbation::none());
    req.cluster = dgx1_v100(4);

    // Cold: every iteration starts a fresh planner on the full fleet,
    // then times the first drop — the re-plan has nothing to replay.
    let mut cold_ns = 0u128;
    let mut cold_winner = None;
    for _ in 0..iters {
        ClassCache::global().clear();
        let planner = Planner::new();
        planner.plan(&req);
        let t = Instant::now();
        let (_, result, report) = planner.replan(&req, &drop).expect("drop applies");
        cold_ns += t.elapsed().as_nanos();
        assert_eq!(report.warm_hits, 0, "first drop must plan cold");
        cold_winner = result;
    }
    let cold_ns = cold_ns / u128::from(iters);

    // Warm: one planner rides a full flap (drop, re-add) untimed, so
    // the degraded topology's record is warm; then every timed drop of
    // the same node replays that record.
    ClassCache::global().clear();
    let planner = Planner::new();
    planner.plan(&req);
    let (degraded, _, _) = planner.replan(&req, &drop).expect("drop applies");
    let (restored, _, _) = planner
        .replan(&degraded, &ClusterDelta::add_node(req.cluster.node.clone()))
        .expect("add applies");
    assert_eq!(restored.cluster, req.cluster, "flap restores the fleet");
    let mut warm_ns = 0u128;
    for _ in 0..iters {
        let t = Instant::now();
        let (_, result, report) = planner.replan(&restored, &drop).expect("drop applies");
        warm_ns += t.elapsed().as_nanos();
        assert!(report.warm_hits > 0, "flapped drop must warm-hit");
        assert_eq!(result, cold_winner, "warm replay equals the cold plan");
    }
    let warm_ns = warm_ns / u128::from(iters);

    println!(
        "bench {:<48} {:>12} ns/iter",
        "elastic_fig5a_b48/cold_replan", cold_ns
    );
    println!(
        "bench {:<48} {:>12} ns/iter",
        "elastic_fig5a_b48/warm_replan", warm_ns
    );
    println!(
        "bench {:<48} {:>12.1} x",
        "elastic_fig5a_b48/speedup_warm_vs_cold",
        cold_ns as f64 / warm_ns as f64
    );
}

/// Telemetry overhead guard: the identical Figure 5a sweep through
/// `search_streaming`, once with `env.metrics = None` and once with a
/// live registry. Instrumentation touches the registry once per request
/// (request-end roll-up) and a handful of relaxed atomics per 32
/// candidates, so the claim is <2% overhead on this workload; the
/// assertion allows 25% so scheduler noise on a busy CI host can never
/// flake it — a regression that *matters* (per-candidate registry
/// traffic) shows up as 2-10x, not 1.25x. Compare the printed rates
/// against the `candidates_per_sec` baselines in `BENCH_search.json`
/// when reading results from a quiet host.
fn bench_telemetry_overhead(_c: &mut Criterion) {
    use bfpp_exec::search::{search_streaming, SearchEnv};
    use bfpp_exec::MetricsRegistry;
    use std::sync::Arc;

    let model = bert_52b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();
    let opts = quick_search_opts(1);
    let iters = 10u32;

    let run = |env: &SearchEnv| {
        let mut cands = 0u64;
        let t = Instant::now();
        for _ in 0..iters {
            for &m in Method::ALL.iter() {
                let (_, report) =
                    search_streaming(&model, &cluster, m, 48, &kernel, &opts, env, None, None);
                cands += report.enumerated;
            }
        }
        (cands as f64 / t.elapsed().as_secs_f64(), cands)
    };

    // Both arms share the process-global class cache (pre-warmed by the
    // first arm's first iteration either way) and use no warm store, so
    // the only difference between them is the registry.
    let off = SearchEnv::private();
    let mut on = SearchEnv::private();
    let registry = Arc::new(MetricsRegistry::new());
    on.metrics = Some(Arc::clone(&registry));
    let (_, _) = run(&off); // warm the shared caches so neither arm pays cold costs
    let (rate_off, cands_off) = run(&off);
    let (rate_on, cands_on) = run(&on);
    assert_eq!(cands_off, cands_on, "telemetry must not change the search");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("search_requests_total"),
        u64::from(iters) * Method::ALL.len() as u64,
        "every instrumented request reached the registry"
    );

    let overhead = rate_off / rate_on - 1.0;
    println!(
        "bench {:<48} {:>12.0} candidates/sec",
        "search_fig5a_b48/telemetry_off", rate_off
    );
    println!(
        "bench {:<48} {:>12.0} candidates/sec",
        "search_fig5a_b48/telemetry_on", rate_on
    );
    println!(
        "bench {:<48} {:>12.2} %",
        "search_fig5a_b48/telemetry_overhead",
        overhead * 100.0
    );
    assert!(
        rate_on > rate_off / 1.25,
        "telemetry overhead out of bounds: off={rate_off:.0}/s on={rate_on:.0}/s \
         ({:.1}% > 25% budget)",
        overhead * 100.0
    );
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
    targets = bench_simulate, bench_search, bench_planner, bench_candidate_throughput,
        bench_elastic, bench_telemetry_overhead
}
criterion_main!(benches);
