//! The chaos soak: one shared, admission-capped planner under a seeded
//! storm of hostile sessions — injected panics, pre-search stalls,
//! deadline storms, slow and disconnecting clients — while the worker
//! pool itself is sabotaged with injected worker deaths and stalls.
//!
//! The supervision invariants under test (DESIGN.md §13):
//!
//! 1. **No hang**: the whole soak runs under a watchdog; every admitted
//!    session reaches a terminal event and the in-flight census drains
//!    to zero.
//! 2. **Typed failure**: every session sabotaged with a pre-search
//!    panic ends in `Failed` (never a silent drop), and the metrics
//!    registry's outcome counters account for every admitted session
//!    exactly once.
//! 3. **Self-healing capacity**: after injected worker deaths the pool
//!    respawns back to full strength and keeps serving.
//! 4. **Blast containment**: surviving clean sessions return the exact
//!    stable slice an isolated single-session planner returns,
//!    bit-for-bit — chaos next door may cost recomputation, never an
//!    answer.
//! 5. **Cache hygiene**: after the storm, a warm-started re-plan on the
//!    survivor equals a fresh cold planner's answer bit-for-bit.
//!
//! The storm is dealt by a seeded [`ChaosPlan`]; a failing run is
//! reproduced by re-running with the printed `BFPP_CHAOS_SEED`.

use std::sync::Arc;
use std::time::Duration;

use bfpp_exec::search::{Method, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::KernelModel;
use bfpp_planner::chaos::{ChaosPlan, ClientBehavior, PanicPoint, SessionFault};
use bfpp_planner::{PlanRequest, Planner, SessionOutcome};

/// ≥ 8 concurrent chaotic sessions, per the supervision contract.
const SESSIONS: u64 = 12;
const POOL_THREADS: usize = 3;

fn seed_from_env() -> u64 {
    std::env::var("BFPP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A05)
}

fn request(method: Method, batch: u64, threads: usize) -> PlanRequest {
    PlanRequest {
        opts: SearchOptions {
            max_microbatch: 4,
            max_loop: 8,
            max_actions: 30_000,
            threads,
            ..SearchOptions::default()
        },
        ..PlanRequest::new(
            bfpp_model::presets::bert_6_6b(),
            bfpp_cluster::presets::dgx1_v100(1),
            method,
            batch,
            KernelModel::v100(),
        )
    }
}

/// The bit-stable slice of an outcome (winner + thread-count-invariant
/// counters; `warm_hits` and wall-clock excluded).
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

/// Runs `f` under a watchdog thread: a soak that does not finish in
/// `limit` is a deadlock — fail fast instead of stalling CI (the CI
/// job adds an outer `timeout` as the second line of defense).
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

fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..2000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

/// Silences the default panic hook for *injected* panics only (they
/// are the test's working fluid, not noise worth a backtrace each);
/// every other panic still reports normally.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected fault") {
            default(info);
        }
    }));
}

#[test]
fn chaos_soak_planner_survives_a_seeded_storm() {
    let seed = seed_from_env();
    // Printed unconditionally so a CI failure names its reproduction.
    println!("chaos soak: BFPP_CHAOS_SEED={seed}");
    quiet_injected_panics();
    let plan = ChaosPlan::new(seed);

    let planner = Arc::new(Planner::with_admission(POOL_THREADS, SESSIONS as usize + 4));

    // Deal the storm: every session gets a method/batch cell plus its
    // seeded fault, deadline, and client behavior.
    let deals: Vec<(u64, PlanRequest)> = (0..SESSIONS)
        .map(|i| {
            let method = Method::ALL[(i as usize) % Method::ALL.len()];
            let batch = [8u64, 16, 24][(i as usize) % 3];
            let mut req = request(method, batch, 1 + (i as usize) % 2);
            req.fault = plan.fault_for(i);
            req.opts.deadline = plan.deadline_for(i);
            (i, req)
        })
        .collect();

    // Isolated baselines for the sessions whose results are promised
    // bit-identical: no panic fault, no deadline, a client that drains.
    // (A pre-search stall delays a session but cannot change its
    // answer, so stalled sessions count as survivors too.)
    let comparable: Vec<(u64, PlanRequest)> = deals
        .iter()
        .filter(|(i, req)| {
            !matches!(req.fault, Some(SessionFault::Panic(_)))
                && req.opts.deadline.is_none()
                && plan.client_for(*i) != ClientBehavior::Disconnect
        })
        .map(|(i, req)| {
            let mut clean = req.clone();
            clean.fault = None;
            (*i, clean)
        })
        .collect();
    assert!(
        !comparable.is_empty(),
        "seed {seed} dealt no surviving sessions; pick another default"
    );
    let baselines: Vec<(u64, _)> = comparable
        .iter()
        .map(|(i, req)| (*i, stable(&Planner::with_threads(2).plan(req))))
        .collect();

    let storm_planner = Arc::clone(&planner);
    let outcomes = with_watchdog(Duration::from_secs(240), "chaos storm", move || {
        // Launch every session concurrently, each with its own client
        // thread behaving as dealt (prompt, slow, or disconnecting).
        let clients: Vec<_> = deals
            .into_iter()
            .map(|(i, req)| {
                let behavior = plan.client_for(i);
                let handle = storm_planner
                    .try_submit(req)
                    .expect("admission cap exceeds the storm size");
                std::thread::spawn(move || match behavior {
                    ClientBehavior::Prompt => Some((i, handle.wait_outcome())),
                    ClientBehavior::Slow(pause) => {
                        // A slow consumer: sleep between receives; the
                        // unbounded stream buffers, the session finishes
                        // at its own pace.
                        while handle.events().try_recv().is_ok() {
                            std::thread::sleep(pause);
                        }
                        Some((i, handle.wait_outcome()))
                    }
                    ClientBehavior::Disconnect => {
                        let _ = handle.recv();
                        drop(handle);
                        None
                    }
                })
            })
            .collect();

        // Mid-storm, sabotage the pool itself: two workers die, one
        // stalls. Searches must still complete (the submitting session
        // helps; survivors steal) and the pool must heal afterwards.
        let executor = &storm_planner.env().executor;
        executor.inject_worker_exit(2);
        executor.inject_worker_stall(Duration::from_millis(20), 1);

        clients
            .into_iter()
            .filter_map(|c| c.join().expect("client threads do not panic"))
            .collect::<Vec<(u64, SessionOutcome)>>()
    });

    // (1) Liveness: every session terminal, census drained.
    eventually("in-flight census drains to zero", || {
        planner.in_flight() == 0
    });

    // (2) Typed failure: a pre-search panic can never be outrun by a
    // deadline or cancellation — those sessions must end Failed.
    for (i, outcome) in &outcomes {
        let dealt = plan.fault_for(*i);
        if matches!(dealt, Some(SessionFault::Panic(PanicPoint::BeforeSearch))) {
            assert!(
                matches!(outcome, SessionOutcome::Failed { .. }),
                "session {i}: pre-search panic must end Failed, got {outcome:?}"
            );
        }
    }
    // The registry accounts exactly, even under chaos: no session lost,
    // none double-counted, and every terminal session left one sample
    // in a session-duration histogram.
    let snap = planner.metrics_snapshot();
    let submitted = snap.counter("planner_requests_submitted_total");
    assert_eq!(submitted, SESSIONS);
    let terminal: u64 = ["completed", "cancelled", "timed_out", "failed"]
        .iter()
        .map(|outcome| snap.counter(&format!("planner_requests_{outcome}_total")))
        .sum();
    assert_eq!(
        terminal, submitted,
        "every admitted session accounted exactly once: {snap:?}"
    );
    let session_samples: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("planner_session_ns_"))
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(
        session_samples, submitted,
        "one session-duration sample per admitted session"
    );

    // (3) Self-healing: the pool returns to full strength. A fresh
    // scope triggers respawn; spin until the census settles.
    eventually("worker pool heals to full strength", || {
        planner.env().executor.respawn_dead();
        planner.env().executor.live_workers() == POOL_THREADS
    });
    assert!(planner.env().executor.workers_respawned() >= 2);

    // (4) Blast containment: survivors match their isolated baselines
    // bit-for-bit.
    let by_index: std::collections::BTreeMap<u64, &SessionOutcome> =
        outcomes.iter().map(|(i, o)| (*i, o)).collect();
    for ((i, baseline), (bi, _)) in baselines.iter().zip(comparable.iter()) {
        assert_eq!(i, bi);
        let Some(outcome) = by_index.get(i) else {
            panic!("survivor session {i} produced no outcome")
        };
        match outcome {
            SessionOutcome::Done { result, report } => {
                assert_eq!(
                    &stable(&(result.clone(), report.clone())),
                    baseline,
                    "seed {seed}: session {i} diverged from its isolated run"
                );
            }
            SessionOutcome::Failed { error } => {
                panic!("seed {seed}: clean session {i} failed: {error}")
            }
        }
    }

    // (5) Cache hygiene: post-storm, a completed plan's warm replay on
    // the survivor planner equals a fresh cold planner bit-for-bit.
    let probe = comparable[0].1.clone();
    let first = planner.plan(&probe);
    let warm = planner.plan(&probe);
    assert!(warm.1.warm_hits > 0, "second identical plan warm-starts");
    let cold = Planner::with_threads(2).plan(&probe);
    assert_eq!(
        stable(&warm),
        stable(&cold),
        "seed {seed}: post-chaos warm-start diverged from cold"
    );
    assert_eq!(stable(&first), stable(&cold));
}

/// Deadline storm: a burst of sessions whose deadlines are all zero
/// must every one terminate promptly as `timed_out` — and the planner
/// must remain able to run a full search afterwards.
#[test]
fn deadline_storm_terminates_every_session() {
    quiet_injected_panics();
    let planner = Arc::new(Planner::with_threads(2));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let mut req = request(Method::ALL[i % Method::ALL.len()], 16, 1);
            req.opts.deadline = Some(Duration::ZERO);
            planner.submit(req)
        })
        .collect();
    with_watchdog(Duration::from_secs(120), "deadline storm", move || {
        for handle in handles {
            let (_, report) = handle.wait();
            assert!(report.timed_out);
        }
    });
    assert_eq!(
        planner
            .metrics()
            .counter("planner_requests_timed_out_total"),
        8
    );
    let (r, report) = planner.plan(&request(Method::BreadthFirst, 16, 2));
    assert!(r.is_some() && !report.timed_out, "planner still serves");
}
