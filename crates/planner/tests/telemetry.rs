//! Service-telemetry integration: a scripted daemon-shaped run (mixed
//! warm/cold requests, a deadline timeout, an admission rejection, a
//! panicked session) whose metrics snapshot must reconcile *exactly*
//! with the observed per-session events; Prometheus export validity;
//! and bit-identical deterministic snapshots across worker thread
//! counts.

use std::sync::Arc;
use std::time::Duration;

use bfpp_exec::search::{Method, SearchOptions};
use bfpp_exec::{ClassCache, Executor, KernelModel, MetricsSnapshot, SearchEnv};
use bfpp_planner::chaos::{PanicPoint, SessionFault};
use bfpp_planner::{PlanEvent, PlanRequest, Planner, RejectReason, SessionOutcome};
use bfpp_sim::metrics::validate_prometheus;
use bfpp_sim::observe::validate_json;

fn quick_req(method: Method, batch: u64, threads: usize) -> PlanRequest {
    PlanRequest {
        opts: SearchOptions {
            max_microbatch: 8,
            max_loop: 16,
            max_actions: 60_000,
            threads,
            ..SearchOptions::default()
        },
        ..PlanRequest::new(
            bfpp_model::presets::bert_6_6b(),
            bfpp_cluster::presets::dgx1_v100(8),
            method,
            batch,
            KernelModel::v100(),
        )
    }
}

fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..1000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

/// The acceptance script: N mixed warm/cold requests, one deadline
/// timeout, one admission rejection, one panicked session. Every
/// counter and histogram count in the snapshot must reconcile exactly
/// with the events the script observed — no lost sessions, no
/// double-counting.
#[test]
fn snapshot_reconciles_exactly_with_observed_events() {
    let planner = Arc::new(Planner::with_admission(2, 1));

    // One rejection: a stalled holder saturates the single slot. Its
    // cell (no_pipeline, 8) is distinct from every later request, so
    // the cold/warm split below stays unambiguous.
    let mut holder = quick_req(Method::NoPipeline, 8, 0);
    holder.fault = Some(SessionFault::StallBeforeSearch(Duration::from_millis(200)));
    let held = planner.submit(holder);
    match planner.try_submit(quick_req(Method::DepthFirst, 8, 0)) {
        Err(RejectReason::Saturated { .. }) => {}
        other => panic!("saturated planner must reject, got {other:?}"),
    }
    let (held_result, _) = held.wait();
    assert!(held_result.is_some());
    eventually("holder slot drains", || planner.in_flight() == 0);

    // Mixed warm/cold traffic: the same cell twice (cold then warm),
    // plus a distinct cold cell.
    let req = quick_req(Method::BreadthFirst, 16, 0);
    let (_, cold_rep) = planner.plan(&req);
    assert!(!cold_rep.warm_start);
    let (_, warm_rep) = planner.plan(&req);
    assert!(warm_rep.warm_hits > 0);
    planner.plan(&quick_req(Method::DepthFirst, 8, 0));

    // One deadline timeout.
    let mut late = quick_req(Method::BreadthFirst, 32, 0);
    late.opts.deadline = Some(Duration::ZERO);
    let (none, late_rep) = planner.plan(&late);
    assert!(none.is_none() && late_rep.timed_out);

    // One panicked session.
    let mut bad = quick_req(Method::NonLooped, 8, 0);
    bad.fault = Some(SessionFault::Panic(PanicPoint::BeforeSearch));
    match planner.submit(bad).wait_outcome() {
        SessionOutcome::Failed { .. } => {}
        SessionOutcome::Done { .. } => panic!("sabotaged session must fail"),
    }
    eventually("census drains", || planner.in_flight() == 0);

    // The script observed: 6 admitted (holder, cold, warm, depth-first,
    // timeout, panic), 1 rejected; of the admitted — 4 completed,
    // 1 timed out, 1 failed.
    let snap = planner.metrics_snapshot();
    assert_eq!(snap.counter("planner_requests_submitted_total"), 6);
    assert_eq!(snap.counter("planner_requests_completed_total"), 4);
    assert_eq!(snap.counter("planner_requests_timed_out_total"), 1);
    assert_eq!(snap.counter("planner_requests_failed_total"), 1);
    assert_eq!(snap.counter("planner_requests_cancelled_total"), 0);
    assert_eq!(snap.counter("planner_requests_rejected_total"), 1);
    // The panicked session's quarantine dropped every warm record of its
    // (model, cluster): the no-pipeline, breadth-first and depth-first
    // cells (the timed-out request recorded none). No session leaked.
    assert_eq!(snap.counter("planner_quarantined_warm_records_total"), 3);
    assert_eq!(snap.counter("planner_sessions_leaked_total"), 0);
    // The reconciliation invariant: submitted == Σ terminal outcomes.
    assert_eq!(
        snap.counter("planner_requests_completed_total")
            + snap.counter("planner_requests_cancelled_total")
            + snap.counter("planner_requests_timed_out_total")
            + snap.counter("planner_requests_failed_total"),
        snap.counter("planner_requests_submitted_total"),
    );

    // The engine ran once per non-panicked admitted session (the
    // pre-search panic never reached it; the deadline-0 request still
    // ran — it reported a timed-out empty prefix).
    assert_eq!(snap.counter("search_requests_total"), 5);
    assert_eq!(
        snap.counter("search_warm_starts_total"),
        1,
        "exactly the repeated cell replayed warm"
    );
    assert!(snap.counter("search_warm_hits_total") >= warm_rep.warm_hits);

    // Histogram counts reconcile too: one per-request candidate sample
    // per engine run, one session-duration sample per admitted session,
    // one queue-wait sample per *streamed* session (plan() runs on the
    // caller's thread — no queue).
    let per_request = snap
        .histogram("search_enumerated_per_request")
        .expect("per-request histogram present");
    assert_eq!(per_request.count(), 5);
    let session_samples: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("planner_session_ns_"))
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(session_samples, 6);
    assert_eq!(
        snap.histogram("planner_queue_wait_ns").map(|h| h.count()),
        Some(2),
        "two streamed sessions (holder, panic)"
    );

    // Gauges settle: nothing in flight, the cap is visible.
    assert_eq!(snap.gauge("planner_in_flight"), 0);
    assert_eq!(snap.gauge("planner_admission_limit"), 1);

    // Both renderers stay valid on a real, busy snapshot.
    validate_prometheus(&snap.render_prometheus()).expect("prometheus exposition parses");
    for line in snap.render_ndjson().lines() {
        validate_json(line).expect("ndjson line parses");
    }
}

/// The deterministic subset of a snapshot: outcome/candidate-flow
/// counters and the per-request candidate histograms. Wall-clock
/// histograms (`*_ns`), executor mirrors, and racy cache hit/miss
/// diagnostics are excluded by design — see DESIGN.md §16.
fn deterministic_subset(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let keep = name.starts_with("planner_requests_")
            || name.starts_with("search_candidates_")
            || name.starts_with("search_warm_")
            || name == "search_requests_total";
        if keep {
            out.push_str(&format!("{name} {v}\n"));
        }
    }
    for (name, h) in &snap.histograms {
        if name == "search_enumerated_per_request" || name == "search_simulated_per_request" {
            out.push_str(&format!("{name} count={} sum={}\n", h.count(), h.sum()));
            for i in 0..bfpp_sim::metrics::BUCKETS {
                if h.bucket(i) > 0 {
                    out.push_str(&format!("  bucket[{i}]={}\n", h.bucket(i)));
                }
            }
        }
    }
    out
}

/// Deterministic fields of the snapshot are bit-identical across worker
/// thread counts: same requests → same counters, same histogram
/// buckets, same rendered bytes.
#[test]
fn deterministic_fields_are_bit_identical_across_thread_counts() {
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let planner = Arc::new(Planner::with_threads(threads));
            let req = quick_req(Method::BreadthFirst, 16, threads);
            planner.plan(&req);
            planner.plan(&req); // warm replay
            let mut late = quick_req(Method::DepthFirst, 8, threads);
            late.opts.max_candidates = Some(64);
            planner.plan(&late); // budget-bounded prefix
            deterministic_subset(&planner.metrics_snapshot())
        })
        .collect();
    assert_eq!(runs[0], runs[1], "threads=1 vs threads=2");
    assert_eq!(runs[0], runs[2], "threads=1 vs threads=4");
    assert!(
        runs[0].contains("search_requests_total 3"),
        "subset is not vacuously empty:\n{}",
        runs[0]
    );
}

/// A live session's progress cell converges to the final report's
/// tallies exactly once the terminal event lands.
#[test]
fn progress_snapshot_matches_the_final_report() {
    let planner = Arc::new(Planner::with_threads(2));
    let handle = planner.submit(quick_req(Method::BreadthFirst, 16, 2));
    let mut final_report = None;
    while let Some(ev) = handle.recv() {
        match ev {
            PlanEvent::Improved(_) => {}
            PlanEvent::Done { report, .. } => {
                final_report = Some(report);
                break;
            }
            PlanEvent::Failed { error } => panic!("clean session failed: {error}"),
        }
    }
    let report = final_report.expect("session ends with Done");
    let p = handle.progress();
    assert!(p.finished);
    assert_eq!(p.enumerated, report.enumerated);
    assert_eq!(p.pruned_memory, report.pruned_memory);
    assert_eq!(p.pruned_throughput, report.pruned_throughput);
    assert_eq!(p.simulated, report.simulated);
    assert!(!p.warm_start);
    assert!(p.best_millitflops > 0, "a winner was streamed");
    assert_eq!(p.visited(), report.enumerated, "every candidate decided");
}

/// Class construction is counted at class granularity: on a planner
/// whose class cache starts private and empty, a cold request builds
/// exactly one base per class-cache miss, and times each build once.
/// A warm replay of the same cell builds nothing.
#[test]
fn cold_request_counts_one_class_build_per_cache_miss() {
    let classes = Arc::new(ClassCache::new());
    let planner = Planner::over(SearchEnv {
        executor: Executor::new(2),
        classes: Arc::clone(&classes),
        ..SearchEnv::service()
    });
    let req = quick_req(Method::BreadthFirst, 16, 2);
    let (_, report) = planner.plan(&req);
    let snap = planner.metrics_snapshot();
    let builds = snap.counter("search_class_builds_total");
    assert!(builds > 0, "a cold request builds classes");
    assert!(
        builds <= report.simulated,
        "at most one class per simulated config"
    );
    assert_eq!(builds, snap.counter("class_cache_misses_total"));
    assert_eq!(builds, classes.misses());
    assert_eq!(classes.len() as u64, builds, "every built base is cached");
    let timed = snap
        .histogram("search_class_build_ns")
        .expect("class builds are timed");
    assert_eq!(timed.count(), builds, "one build-time sample per class");

    planner.plan(&req);
    let warm = planner.metrics_snapshot();
    assert_eq!(warm.counter("search_warm_starts_total"), 1);
    assert_eq!(
        warm.counter("search_class_builds_total"),
        builds,
        "a warm replay resolves every class from its record"
    );
}
