//! Property test of the quarantine contract: a session that panics or
//! is cancelled midway must leave *no* `WarmCache` / `ClassCache`
//! entry that changes any subsequent result. The observable statement:
//! after arbitrary failures on a shared planner, re-planning the same
//! cell — warm-started or not — returns bit-for-bit what a fresh,
//! cold, private planner returns.

use std::sync::Arc;
use std::time::Duration;

use bfpp_exec::search::{Method, SearchEnv, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::{ClassCache, Executor, KernelModel};
use bfpp_planner::chaos::{PanicPoint, SessionFault};
use bfpp_planner::{PlanRequest, Planner, SessionOutcome};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Failure {
    PanicEarly,
    PanicMid(u32),
    Cancel,
    Clean,
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

fn failures() -> impl Strategy<Value = Failure> {
    proptest::sample::select(vec![
        Failure::PanicEarly,
        Failure::PanicMid(1),
        Failure::PanicMid(2),
        Failure::Cancel,
        Failure::Clean,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random sequences of (cell, failure mode), every post-failure
    /// re-plan on the battered shared planner equals a fresh cold
    /// private run, bit-for-bit.
    #[test]
    fn failed_sessions_never_change_subsequent_results(
        specs in proptest::collection::vec(
            (
                0usize..4,
                proptest::sample::select(vec![8u64, 16, 24]),
                failures(),
            ),
            2..5,
        )
    ) {
        quiet_injected_panics();
        let shared = Arc::new(Planner::with_threads(2));

        // Phase 1: batter the shared planner. Each spec's session runs
        // with its failure mode; terminal events are required, outcomes
        // otherwise unconstrained.
        for &(m, batch, failure) in &specs {
            let mut req = request(Method::ALL[m], batch, 1);
            match failure {
                Failure::PanicEarly => {
                    req.fault = Some(SessionFault::Panic(PanicPoint::BeforeSearch));
                }
                Failure::PanicMid(n) => {
                    req.fault = Some(SessionFault::Panic(PanicPoint::AfterImprovements(n)));
                }
                Failure::Cancel | Failure::Clean => {}
            }
            let handle = shared.submit(req);
            if matches!(failure, Failure::Cancel) {
                handle.cancel();
            }
            match handle.wait_outcome() {
                SessionOutcome::Done { report, .. } => {
                    prop_assert!(!matches!(failure, Failure::PanicEarly));
                    prop_assert!(
                        report.enumerated
                            >= report.pruned_memory
                                + report.pruned_throughput
                                + report.simulated
                    );
                }
                SessionOutcome::Failed { error } => {
                    prop_assert!(
                        matches!(failure, Failure::PanicEarly | Failure::PanicMid(_)),
                        "unexpected failure: {}",
                        error
                    );
                }
            }
        }

        // Phase 2: every cell the storm touched must now re-plan to the
        // fresh-cold answer — twice, so the second (possibly
        // warm-started) pass is held to the same bit-for-bit standard.
        for &(m, batch, _) in &specs {
            let req = request(Method::ALL[m], batch, 1);
            let cold = Planner::with_threads(2).plan(&req);
            let after = shared.plan(&req);
            prop_assert_eq!(stable(&after), stable(&cold), "first post-failure re-plan");
            let warm = shared.plan(&req);
            prop_assert_eq!(stable(&warm), stable(&cold), "warm post-failure re-plan");
        }
    }
}

/// The direct statement of the quarantine contract: a panicked session
/// leaves no warm record (the quarantine dropped anything it might have
/// been writing), so the next identical request runs cold and completes
/// — and only *that* completed run repopulates the store. The planner
/// has a class cache of its own: a warm start counts hits on bases it
/// finds there, and the proptest above quarantines breadth-first bases
/// in the process-global cache concurrently.
#[test]
fn panicked_session_leaves_no_warm_record() {
    quiet_injected_panics();
    let planner = Arc::new(Planner::over(SearchEnv {
        executor: Executor::new(2),
        classes: Arc::new(ClassCache::new()),
        ..SearchEnv::service()
    }));
    let mut req = request(Method::BreadthFirst, 16, 1);
    req.fault = Some(SessionFault::Panic(PanicPoint::AfterImprovements(1)));
    match planner.submit(req.clone()).wait_outcome() {
        SessionOutcome::Failed { .. } => {}
        SessionOutcome::Done { .. } => panic!("sabotaged session must fail"),
    }
    assert_eq!(
        planner.warm().unwrap().len(),
        0,
        "no warm record survives a panicked session"
    );
    req.fault = None;
    let (_, report) = planner.plan(&req);
    assert_eq!(report.warm_hits, 0, "post-panic run is cold");
    let (_, second) = planner.plan(&req);
    assert!(second.warm_hits > 0, "the completed run repopulates");
    // Give the detached machinery nothing to leak: census drains.
    for _ in 0..1000 {
        if planner.in_flight() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("in-flight census failed to drain");
}
