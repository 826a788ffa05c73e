//! Service-level guarantees: concurrent sessions return exactly what
//! serial runs return, and cancellation neither deadlocks nor poisons
//! the shared infrastructure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfpp_exec::search::{Method, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::KernelModel;
use bfpp_planner::{PlanEvent, PlanRequest, Planner};
use bfpp_sim::Perturbation;
use proptest::prelude::*;

fn quick_opts(threads: usize, severity: f64) -> SearchOptions {
    let mut opts = SearchOptions {
        max_microbatch: 4,
        max_loop: 8,
        max_actions: 30_000,
        threads,
        ..SearchOptions::default()
    };
    if severity > 1.0 {
        opts.perturbation = Perturbation::with_seed(7).with_straggler(2, severity);
    }
    opts
}

fn request(method: Method, batch: u64, threads: usize, severity: f64) -> PlanRequest {
    PlanRequest {
        opts: quick_opts(threads, severity),
        ..PlanRequest::new(
            bfpp_model::presets::bert_6_6b(),
            bfpp_cluster::presets::dgx1_v100(1),
            method,
            batch,
            KernelModel::v100(),
        )
    }
}

/// The bit-stable slice of a session's outcome: the winner and every
/// thread-count-invariant counter (`warm_hits` and wall-clock spans are
/// explicitly excluded from the cross-request guarantee).
fn stable(outcome: &(Option<SearchResult>, SearchReport)) -> (Option<SearchResult>, [u64; 4]) {
    let (result, report) = outcome;
    (
        result.clone(),
        [
            report.enumerated,
            report.pruned_memory,
            report.pruned_throughput,
            report.simulated,
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N concurrent sessions on one shared planner (shared worker pool,
    /// schedule cache and warm store, sessions racing to populate them)
    /// return exactly what N serial runs on fresh private planners
    /// return.
    #[test]
    fn concurrent_sessions_match_serial_runs(
        specs in proptest::collection::vec(
            (
                0usize..4,
                proptest::sample::select(vec![8u64, 16, 24]),
                1usize..3,
                proptest::sample::select(vec![1.0f64, 1.5]),
            ),
            2..5,
        )
    ) {
        let requests: Vec<PlanRequest> = specs
            .iter()
            .map(|&(m, batch, threads, severity)| {
                request(Method::ALL[m], batch, threads, severity)
            })
            .collect();

        let serial: Vec<_> = requests
            .iter()
            .map(|req| {
                let private = Planner::new();
                stable(&private.plan(req))
            })
            .collect();

        let shared = Arc::new(Planner::new());
        let handles: Vec<_> = requests
            .iter()
            .map(|req| shared.submit(req.clone()))
            .collect();
        let concurrent: Vec<_> = handles
            .into_iter()
            .map(|h| stable(&h.wait()))
            .collect();

        prop_assert_eq!(serial, concurrent);
    }
}

/// Runs `f` under a watchdog: panics if it does not finish in `limit`
/// (a hang here means a planner deadlock — fail fast, don't stall CI).
fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("watchdog: {what} did not finish within {limit:?}"))
}

#[test]
fn cancellation_neither_deadlocks_nor_poisons_the_planner() {
    let planner = Arc::new(Planner::new());

    // Cancel a burst of sessions at assorted points in their lifetime.
    let cancelled = Arc::clone(&planner);
    with_watchdog(Duration::from_secs(120), "cancelled sessions", move || {
        for i in 0..4 {
            let handle = cancelled.submit(request(Method::BreadthFirst, 16, 1, 1.0));
            if i % 2 == 0 {
                handle.cancel();
            }
            // Draining after cancel must terminate: the session always
            // emits Done, even for an already-cancelled search.
            let (_, report) = handle.wait();
            assert!(
                report.enumerated >= report.simulated,
                "a cancelled prefix still accounts consistently"
            );
        }
        // Dropping a live handle (cancel + join in Drop) must not hang.
        let dropped = cancelled.submit(request(Method::BreadthFirst, 16, 1, 1.0));
        drop(dropped);
    });

    // The shared infrastructure survives: a fresh request on the same
    // planner completes and matches a fresh private run bit-exactly.
    let after = planner.plan(&request(Method::BreadthFirst, 16, 1, 1.5));
    let fresh = Planner::new().plan(&request(Method::BreadthFirst, 16, 1, 1.5));
    assert_eq!(after.0, fresh.0);
    assert_eq!(
        (after.1.enumerated, after.1.simulated),
        (fresh.1.enumerated, fresh.1.simulated)
    );
    assert!(after.0.is_some());
}

#[test]
fn truncated_budget_sessions_are_deterministic_across_planners_and_threads() {
    // A `max_candidates` budget truncates at a chunk boundary, which is
    // a deterministic place: the truncated outcome (winner and
    // counters) must be bit-identical across thread counts and across
    // shared/private planners, exactly like a completed search.
    let mut req = request(Method::BreadthFirst, 24, 1, 1.0);
    req.opts.max_candidates = Some(32);
    let baseline = stable(&Planner::new().plan(&req));
    for threads in [1usize, 2, 3] {
        let mut again = req.clone();
        again.opts.threads = threads;
        let shared = Arc::new(Planner::new());
        let outcome = shared.submit(again).wait();
        assert!(outcome.1.timed_out, "budget must report as timed_out");
        assert_eq!(stable(&outcome), baseline, "threads={threads}");
        assert_eq!(
            shared.metrics().counter("planner_requests_timed_out_total"),
            1
        );
    }
}

#[test]
fn improvement_stream_is_ordered_and_consistent_with_the_final_result() {
    let planner = Arc::new(Planner::new());
    let handle = planner.submit(request(Method::BreadthFirst, 16, 2, 1.0));
    let started = Instant::now();
    let mut last: Option<f64> = None;
    let mut done = None;
    let deadline = Duration::from_secs(120);
    let saw_improvement = Arc::new(AtomicBool::new(false));
    while let Some(ev) = handle.recv() {
        assert!(started.elapsed() < deadline, "stream did not terminate");
        match ev {
            PlanEvent::Improved(r) => {
                let t = r.measurement.tflops_per_gpu;
                assert!(last.is_none_or(|prev| t > prev), "strictly improving");
                last = Some(t);
                saw_improvement.store(true, Ordering::Relaxed);
            }
            PlanEvent::Done { result, report } => {
                done = Some((result, report));
            }
            PlanEvent::Failed { error } => panic!("clean session failed: {error}"),
        }
    }
    let (result, report) = done.expect("stream ends with Done");
    assert!(saw_improvement.load(Ordering::Relaxed));
    assert!(!report.cancelled);
    assert_eq!(
        result.map(|r| r.measurement.tflops_per_gpu),
        last,
        "the last streamed improvement is the winner"
    );
}
