//! # bfpp-planner — the configuration search as a long-running service
//!
//! The paper's contribution is a *search* (§5.1: "we tested a wide
//! variety of configurations in each case and selected the fastest
//! one"); the `reproduce_*` binaries run that search as a batch job and
//! exit. This crate turns it into a session layer over the engine in
//! [`bfpp_exec::search`]:
//!
//! * a [`Planner`] owns the long-lived infrastructure — the process
//!   worker pool ([`bfpp_exec::Executor`]), the process-wide
//!   [`bfpp_exec::ClassCache`], the one store of topology-class bases,
//!   and the [`bfpp_exec::WarmCache`] of replayable sweep records (each
//!   a cold search's classified candidate outcomes, no bases);
//! * a [`PlanRequest`] is one unit of demand: model + cluster +
//!   [`Method`] + batch + [`SearchOptions`] (which
//!   carries the perturbation — the "what if device 4 runs 1.5× slow"
//!   re-planning axis — and the request's deadline/candidate budgets);
//! * [`Planner::submit`] runs the request on its own session thread and
//!   returns a [`PlanHandle`] that streams [`PlanEvent`]s — each
//!   best-so-far improvement as the deterministic reduction finds it,
//!   then a terminal `Done` or `Failed` — and supports graceful
//!   cancellation;
//! * [`Planner::plan`] is the blocking single-request path the
//!   reproduction binaries use: byte-identical to calling the engine
//!   directly (same `SearchResult`, same `SearchReport` columns).
//!
//! ## Supervision (DESIGN.md §13)
//!
//! A long-running service must outlive its worst request, so the
//! session layer is *supervised*:
//!
//! * **Panic isolation** — a session body runs under `catch_unwind`; a
//!   panic (the request's own, or one re-raised from an evaluation
//!   worker) becomes a terminal [`PlanEvent::Failed`], never a silent
//!   hang. Because the panic may have interrupted cache writes, the
//!   supervisor *quarantines* what the session could have touched in
//!   either store: its `(model, cluster)` warm records and the
//!   class-cache bases of its method's
//!   [`ScheduleKind`](bfpp_core::ScheduleKind)s. The executor
//!   self-heals dead workers on the next scope
//!   ([`bfpp_exec::Executor::respawn_dead`]).
//! * **Deadlines and budgets** — [`SearchOptions::deadline`] /
//!   [`SearchOptions::max_candidates`] terminate a search with its
//!   best-so-far winner and [`SearchReport::timed_out`] set, on the
//!   same cooperative chunk-boundary path as cancellation.
//! * **Admission control** — [`Planner::with_admission`] bounds live
//!   sessions; [`Planner::try_submit`] returns a typed
//!   [`RejectReason`] instead of queueing unboundedly.
//! * **Bounded teardown** — dropping a [`PlanHandle`] cancels and joins
//!   the session but never blocks past [`PlanHandle::set_drop_timeout`];
//!   a session that outlives the bound is detached and surfaced as the
//!   `planner_sessions_leaked_total` registry counter, the same
//!   deadline-wait discipline as `bfpp_collectives` timeouts.
//!
//! ## Accounting
//!
//! The planner books every session event once, in the
//! [`MetricsRegistry`] the engine also records its per-request search
//! metrics into ([`Planner::metrics_snapshot`]; DESIGN.md §16): outcome
//! counters (`planner_requests_*_total`), session-duration histograms,
//! leaked sessions, quarantine drops and elastic deltas.
//!
//! The [`chaos`] module provides the seeded fault instruments
//! ([`chaos::SessionFault`], [`chaos::ChaosPlan`]) these promises are
//! soak-tested against (`tests/chaos.rs`).
//!
//! ## Elastic re-planning (DESIGN.md §15)
//!
//! A [`ClusterDelta`] names a mid-run topology change — a node died
//! ([`ClusterChange::DropNode`]) or a spare joined
//! ([`ClusterChange::AddNode`]) — and [`Planner::replan`] turns the
//! current request into the post-delta one, quarantines exactly the warm
//! records the change invalidates, and plans the new topology. Because
//! topology rollbacks restore the cluster spec byte-for-byte, the second
//! occurrence of a topology replays its recorded sweep instead of
//! re-simulating:
//!
//! ```
//! use bfpp_cluster::{presets, NodeId};
//! use bfpp_exec::search::Method;
//! use bfpp_exec::KernelModel;
//! use bfpp_planner::{ClusterDelta, PlanRequest, Planner};
//!
//! let planner = Planner::with_threads(2);
//! let mut req = PlanRequest::new(
//!     bfpp_model::presets::bert_6_6b(),
//!     presets::dgx1_v100(2),
//!     Method::BreadthFirst,
//!     16,
//!     KernelModel::v100(),
//! );
//! req.opts.max_actions = 20_000; // keep the doc-test quick
//!
//! let (cold, _) = planner.plan(&req); // records the 2-node sweep
//!
//! // Node 1 drops out: re-plan on the survivor, old records quarantined.
//! let delta = ClusterDelta::drop_node(NodeId(1));
//! let (degraded_req, survivor_plan, report) =
//!     planner.replan(&req, &delta).expect("node 1 exists");
//! assert!(survivor_plan.is_some());
//! assert_eq!(report.warm_hits, 0, "first time on this topology");
//!
//! // The node returns: the restored spec equals the original exactly.
//! let back = ClusterDelta::add_node(req.cluster.node.clone());
//! let (restored, _, _) = planner.replan(&degraded_req, &back).unwrap();
//! assert_eq!(restored.cluster, req.cluster);
//! # let _ = cold;
//! ```
//!
//! Determinism is inherited, not re-proven: the engine's winner and
//! headline counters are bit-identical for any thread count and any
//! interleaving, and the shared caches only ever substitute equal values
//! (class bases, held only by the class cache, are pure functions of
//! their key; warm records hold and replay the exact outcome list a cold
//! run would recompute). N concurrent
//! requests therefore return exactly what N serial private-cache runs
//! would — property-tested in this crate — and quarantine preserves
//! that: dropping cache entries can only force recomputation, never
//! change a value.
//!
//! The wire-facing half is `planner_daemon` (`src/bin`): newline-
//! delimited JSON requests on stdin, streamed NDJSON events on stdout —
//! see [`bfpp_sim::json`] for the dependency-free parser, [`wire`] for
//! the request/response schema, and DESIGN.md §12–§13 for the
//! architecture.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfpp_cluster::ClusterSpec;
use bfpp_exec::search::{
    search, Method, ProgressSnapshot, SearchEnv, SearchHooks, SearchOptions, SearchProgress,
    SearchReport, SearchResult,
};
use bfpp_exec::{Executor, KernelModel, MetricsRegistry, MetricsSnapshot, WarmCache};
use bfpp_model::TransformerConfig;

use crate::chaos::{PanicPoint, SessionFault};

pub mod chaos;
pub mod elastic;
pub mod wire;

pub use elastic::{ClusterChange, ClusterDelta};

/// How long a dropped [`PlanHandle`] waits for its session to honor
/// cancellation before detaching it (and counting
/// `planner_sessions_leaked_total`).
/// Generous: a healthy session notices the flag at the next chunk
/// boundary, milliseconds away.
pub const DEFAULT_DROP_TIMEOUT: Duration = Duration::from_secs(5);

/// One unit of planning demand: everything the engine needs to search
/// one (method, batch) cell of one model on one cluster.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The model to place.
    pub model: TransformerConfig,
    /// The cluster to place it on.
    pub cluster: ClusterSpec,
    /// The schedule family to search.
    pub method: Method,
    /// Global batch size.
    pub global_batch: u64,
    /// The kernel-efficiency model of the accelerator.
    pub kernel: KernelModel,
    /// Enumeration limits, worker threads, deadline/candidate budgets,
    /// and the perturbation (the duration-affecting axis a warm start
    /// may vary).
    pub opts: SearchOptions,
    /// Injected sabotage, for supervision tests. `None` (the default)
    /// runs the session clean; see [`chaos::SessionFault`].
    pub fault: Option<SessionFault>,
}

impl PlanRequest {
    /// A request with default options.
    pub fn new(
        model: TransformerConfig,
        cluster: ClusterSpec,
        method: Method,
        global_batch: u64,
        kernel: KernelModel,
    ) -> Self {
        PlanRequest {
            model,
            cluster,
            method,
            global_batch,
            kernel,
            opts: SearchOptions::default(),
            fault: None,
        }
    }
}

/// One event on a request's stream.
#[derive(Debug, Clone)]
pub enum PlanEvent {
    /// The reduction replaced its incumbent: a new best-so-far, emitted
    /// in deterministic candidate order.
    Improved(SearchResult),
    /// The search finished (completed, cancelled, or out of budget —
    /// see [`SearchReport::cancelled`] / [`SearchReport::timed_out`]).
    /// A terminal event.
    Done {
        /// The winner, if anything fit.
        result: Option<SearchResult>,
        /// What the search did.
        report: SearchReport,
    },
    /// The session panicked. The supervisor caught the unwind,
    /// quarantined the caches the session could have touched, and
    /// converted the panic payload into this terminal event — a failed
    /// request is an answer, not a hang.
    Failed {
        /// The panic payload, stringified.
        error: String,
    },
}

/// How a session ended, from [`PlanHandle::wait_outcome`].
/// (The variant size difference mirrors the payloads themselves: a
/// report is big, an error string is small — boxing would only push
/// the cost onto every success path.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum SessionOutcome {
    /// The search ran to a terminal `Done` (possibly cancelled or
    /// timed out — the report says which).
    Done {
        /// The winner, if anything fit.
        result: Option<SearchResult>,
        /// What the search did.
        report: SearchReport,
    },
    /// The session panicked and was isolated.
    Failed {
        /// The panic payload, stringified.
        error: String,
    },
}

/// Why [`Planner::try_submit`] declined a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The planner is at its admission limit: `in_flight` sessions are
    /// live against a cap of `limit`. Retry after one finishes.
    Saturated {
        /// Live sessions at the time of the decision.
        in_flight: usize,
        /// The admission cap.
        limit: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Saturated { in_flight, limit } => {
                write!(
                    f,
                    "planner saturated: {in_flight} of {limit} sessions in flight"
                )
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// A cloneable cancellation token shared between a [`PlanHandle`] and
/// anything else that may need to stop the session (the daemon's drain
/// path, a deadline supervisor). Cancellation is cooperative: the
/// engine checks at chunk boundaries and still emits its terminal
/// event.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    fn flag(&self) -> &AtomicBool {
        &self.flag
    }
}

/// A live (or finished) planning session: the consumer half of
/// [`Planner::submit`].
#[derive(Debug)]
pub struct PlanHandle {
    events: Receiver<PlanEvent>,
    cancel: CancelToken,
    worker: Option<JoinHandle<()>>,
    metrics: Arc<MetricsRegistry>,
    drop_timeout: Duration,
    progress: Arc<SearchProgress>,
}

impl PlanHandle {
    /// Requests graceful cancellation: the session stops at the next
    /// chunk boundary and still emits its terminal event.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A cloneable token that cancels this session — hand it to a
    /// supervisor (the daemon's drain path does) without borrowing the
    /// handle.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Bounds how long [`Drop`] waits for the cancelled session to
    /// finish before detaching it (default
    /// [`DEFAULT_DROP_TIMEOUT`]).
    pub fn set_drop_timeout(&mut self, timeout: Duration) {
        self.drop_timeout = timeout;
    }

    /// Blocks for the next event; `None` once the stream is exhausted
    /// (after the terminal event has been consumed).
    pub fn recv(&self) -> Option<PlanEvent> {
        self.events.recv().ok()
    }

    /// The event stream itself, for callers that poll with `try_recv` /
    /// `recv_timeout`.
    pub fn events(&self) -> &Receiver<PlanEvent> {
        &self.events
    }

    /// A point-in-time view of the live session: candidates visited,
    /// pruned split, best-so-far throughput. The engine publishes at
    /// chunk boundaries, so a snapshot can trail the search by at most
    /// one chunk; once a terminal event has been emitted the snapshot
    /// equals the final report's tallies. The daemon's heartbeat
    /// emitter polls this between events.
    pub fn progress(&self) -> ProgressSnapshot {
        self.progress.snapshot()
    }

    /// Drains the stream to completion and returns the final result —
    /// the blocking "just give me the answer" path.
    ///
    /// # Panics
    ///
    /// Panics if the session itself panicked ([`PlanEvent::Failed`]) —
    /// callers that supervise failures use
    /// [`wait_outcome`](PlanHandle::wait_outcome) instead — or if the session thread
    /// died without a terminal event (impossible by construction: the
    /// supervisor emits one on every path).
    pub fn wait(self) -> (Option<SearchResult>, SearchReport) {
        match self.wait_outcome() {
            SessionOutcome::Done { result, report } => (result, report),
            SessionOutcome::Failed { error } => {
                panic!("planning session failed: {error}")
            }
        }
    }

    /// Drains the stream to completion and returns how the session
    /// ended — the failure-aware sibling of [`wait`](PlanHandle::wait).
    pub fn wait_outcome(mut self) -> SessionOutcome {
        let mut outcome = None;
        while let Ok(ev) = self.events.recv() {
            match ev {
                PlanEvent::Improved(_) => {}
                PlanEvent::Done { result, report } => {
                    outcome = Some(SessionOutcome::Done { result, report });
                }
                PlanEvent::Failed { error } => {
                    outcome = Some(SessionOutcome::Failed { error });
                }
            }
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        outcome.expect("a planning session always ends with a terminal event")
    }
}

impl Drop for PlanHandle {
    fn drop(&mut self) {
        // Dropping the handle abandons interest: cancel the session so
        // its thread winds down promptly, then wait — but only up to
        // the drop bound. An unbounded join here would let one wedged
        // session hang every dropper (the daemon's pump threads, test
        // teardown); past the bound the thread is detached and the leak
        // is surfaced as a counter instead.
        self.cancel.cancel();
        let Some(worker) = self.worker.take() else {
            return;
        };
        let deadline = Instant::now() + self.drop_timeout;
        loop {
            if worker.is_finished() {
                let _ = worker.join();
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                self.metrics.counter_incr("planner_sessions_leaked_total");
                return;
            }
            // Drain (and discard) buffered events while waiting so the
            // wait doubles as stream teardown; timeout keeps each step
            // bounded.
            let step = (deadline - now).min(Duration::from_millis(5));
            let _ = self.events.recv_timeout(step);
        }
    }
}

/// Decrements the planner's in-flight census when a session ends, on
/// every path — normal return, panic, or detachment by a bounded drop.
struct InFlightSlot {
    planner: Arc<Planner>,
}

impl Drop for InFlightSlot {
    fn drop(&mut self) {
        self.planner.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.planner.metrics.gauge_add("planner_in_flight", -1);
    }
}

/// The service: shared infrastructure plus its metrics registry. Create
/// one per process (or one per test — every piece is self-contained)
/// and submit requests from any thread.
#[derive(Debug)]
pub struct Planner {
    env: SearchEnv,
    /// The telemetry registry — the same `Arc` installed in
    /// `env.metrics`, so the engine's per-request search metrics and the
    /// planner's lifecycle metrics land in one snapshot.
    metrics: Arc<MetricsRegistry>,
    in_flight: AtomicUsize,
    max_in_flight: Option<usize>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner over the process-shared executor and class cache, a
    /// fresh warm-start store and a fresh registry. No admission
    /// limit.
    pub fn new() -> Planner {
        Planner::over(SearchEnv::service())
    }

    /// A planner over its own worker pool of `threads` workers (`0` =
    /// available parallelism) — for embedding several isolated planners
    /// in one process (tests do this).
    pub fn with_threads(threads: usize) -> Planner {
        Planner::over(SearchEnv {
            executor: Executor::new(threads),
            ..SearchEnv::service()
        })
    }

    /// A planner with its own pool and an admission cap: at most
    /// `limit` sessions live at once;
    /// [`try_submit`](Planner::try_submit) rejects the rest with a typed
    /// [`RejectReason`] instead of queueing unboundedly.
    pub fn with_admission(threads: usize, limit: usize) -> Planner {
        let planner = Planner {
            max_in_flight: Some(limit.max(1)),
            ..Planner::with_threads(threads)
        };
        planner
            .metrics
            .gauge_set("planner_admission_limit", limit.max(1) as i64);
        planner
    }

    /// A planner over a caller-built environment (its own executor,
    /// caches and warm store), with no admission limit. Adopts the
    /// environment's metrics registry, or installs one, so engine-side
    /// and planner-side metrics share one snapshot.
    pub fn over(mut env: SearchEnv) -> Planner {
        let metrics = match &env.metrics {
            Some(m) => Arc::clone(m),
            None => {
                let m = Arc::new(MetricsRegistry::new());
                env.metrics = Some(Arc::clone(&m));
                m
            }
        };
        Planner {
            env,
            metrics,
            in_flight: AtomicUsize::new(0),
            max_in_flight: None,
        }
    }

    /// The environment requests run over (shared caches, executor).
    pub fn env(&self) -> &SearchEnv {
        &self.env
    }

    /// The telemetry registry — shared with the engine via
    /// `env.metrics`, so search-side counters and histograms land here
    /// too. For a coherent read use
    /// [`metrics_snapshot`](Planner::metrics_snapshot), which refreshes
    /// the mirrored executor and class-cache counters first.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A full telemetry snapshot: planner lifecycle counters and
    /// histograms (outcomes, leaked sessions, quarantine drops, elastic
    /// deltas), engine search metrics, plus point-in-time mirrors of
    /// the executor (queue depth, live workers, tasks, busy time) and the
    /// process-global topology-class cache. Outcome counters reconcile
    /// exactly — `planner_requests_submitted_total` equals the sum of
    /// the four terminal outcome counters once all sessions are
    /// terminal; rejected requests are counted separately (they were
    /// never admitted).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.env.executor.export_metrics(&self.metrics);
        self.metrics
            .counter_set("class_cache_hits_total", self.env.classes.hits());
        self.metrics
            .counter_set("class_cache_misses_total", self.env.classes.misses());
        self.metrics
            .gauge_set("planner_in_flight", self.in_flight() as i64);
        self.metrics.snapshot()
    }

    /// Sessions currently live (admitted and not yet terminal).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The admission cap, if this planner has one.
    pub fn admission_limit(&self) -> Option<usize> {
        self.max_in_flight
    }

    /// Runs one request to completion on the calling thread. Exactly
    /// the engine's [`bfpp_exec::search::search`] semantics with no
    /// hooks — plus the planner's shared caches and accounting.
    /// Bypasses admission (the caller's thread is the capacity) and
    /// ignores any injected fault.
    pub fn plan(&self, req: &PlanRequest) -> (Option<SearchResult>, SearchReport) {
        self.metrics
            .counter_incr("planner_requests_submitted_total");
        let t0 = Instant::now();
        let out = search(
            &req.model,
            &req.cluster,
            req.method,
            req.global_batch,
            &req.kernel,
            &req.opts,
            &self.env,
            SearchHooks::default(),
        );
        self.finish_accounting(&out.1, t0);
        out
    }

    /// Starts a session for `req` on its own thread and returns the
    /// streaming handle. The session shares this planner's caches and
    /// worker pool with every other live session.
    ///
    /// # Panics
    ///
    /// Panics if this planner has an admission limit and is saturated —
    /// capped planners submit through
    /// [`try_submit`](Planner::try_submit).
    pub fn submit(self: &Arc<Self>, req: PlanRequest) -> PlanHandle {
        self.try_submit(req)
            .expect("submit on a saturated planner; use try_submit")
    }

    /// Starts a session for `req` if the planner has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RejectReason::Saturated`] (and counts
    /// `planner_requests_rejected_total`) when the admission cap is
    /// reached. The request is returned to the caller by value loss
    /// only — nothing was queued, nothing runs.
    pub fn try_submit(self: &Arc<Self>, req: PlanRequest) -> Result<PlanHandle, RejectReason> {
        if let Some(limit) = self.max_in_flight {
            let admitted = self
                .in_flight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < limit).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                self.metrics.counter_incr("planner_requests_rejected_total");
                return Err(RejectReason::Saturated {
                    in_flight: limit,
                    limit,
                });
            }
        } else {
            self.in_flight.fetch_add(1, Ordering::AcqRel);
        }
        self.metrics
            .counter_incr("planner_requests_submitted_total");
        self.metrics.gauge_add("planner_in_flight", 1);
        let submitted = Instant::now();
        let (tx, rx) = channel::<PlanEvent>();
        let cancel = CancelToken::new();
        let progress = Arc::new(SearchProgress::new());
        let planner = Arc::clone(self);
        let token = cancel.clone();
        let session_progress = Arc::clone(&progress);
        let slot = InFlightSlot {
            planner: Arc::clone(self),
        };
        let worker = std::thread::Builder::new()
            .name("bfpp-plan".to_string())
            .spawn(move || {
                let _slot = slot;
                planner.run_session(req, tx, token, submitted, &session_progress);
            })
            .expect("spawning a planning session thread");
        Ok(PlanHandle {
            events: rx,
            cancel,
            worker: Some(worker),
            metrics: Arc::clone(&self.metrics),
            drop_timeout: DEFAULT_DROP_TIMEOUT,
            progress,
        })
    }

    /// The supervised session body. Everything that can unwind — the
    /// request's own fault, a panic re-raised from an evaluation worker
    /// by `scope_run`, a bug in the engine — is caught here and turned
    /// into a terminal event; the thread itself never dies mid-protocol.
    fn run_session(
        &self,
        req: PlanRequest,
        tx: Sender<PlanEvent>,
        cancel: CancelToken,
        submitted: Instant,
        progress: &SearchProgress,
    ) {
        let t0 = Instant::now();
        // Thread-spawn latency between admission and the session body —
        // the service's "queue wait". Sessions start immediately today,
        // so this histogram doubles as a regression tripwire if a queue
        // ever appears in between.
        self.metrics
            .observe_duration("planner_queue_wait_ns", submitted.elapsed());
        // First-improvement latency, captured inside the closure (which
        // must stay `Send`) and classified warm/cold after the report
        // lands. `0` = no improvement seen (nothing fit).
        let first_improve_ns = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match req.fault {
                Some(SessionFault::Panic(PanicPoint::BeforeSearch)) => {
                    panic!("injected fault: session panic before search")
                }
                Some(SessionFault::StallBeforeSearch(stall)) => std::thread::sleep(stall),
                Some(SessionFault::Panic(PanicPoint::AfterImprovements(_))) | None => {}
            }
            let improved_tx = tx.clone();
            let mut improvements = 0u32;
            let first_improve = &first_improve_ns;
            let mut on_improve = |r: &SearchResult| {
                improvements += 1;
                if first_improve.load(Ordering::Relaxed) == 0 {
                    let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    first_improve.store(ns.max(1), Ordering::Relaxed);
                }
                // A gone receiver is not an error: the session still
                // runs to its cancellation check.
                let _ = improved_tx.send(PlanEvent::Improved(r.clone()));
                if let Some(SessionFault::Panic(PanicPoint::AfterImprovements(n))) = req.fault {
                    if improvements >= n {
                        panic!("injected fault: session panic after {improvements} improvements")
                    }
                }
            };
            search(
                &req.model,
                &req.cluster,
                req.method,
                req.global_batch,
                &req.kernel,
                &req.opts,
                &self.env,
                SearchHooks {
                    cancel: Some(cancel.flag()),
                    on_improve: Some(&mut on_improve),
                    progress: Some(progress),
                },
            )
        }));
        match outcome {
            Ok((result, report)) => {
                let warmth = if report.warm_start { "warm" } else { "cold" };
                let first = first_improve_ns.load(Ordering::Relaxed);
                if first > 0 {
                    self.metrics.observe(
                        &format!("planner_time_to_first_candidate_ns_{warmth}"),
                        first,
                    );
                }
                self.finish_accounting(&report, t0);
                let _ = tx.send(PlanEvent::Done { result, report });
            }
            Err(payload) => {
                self.quarantine(&req);
                self.metrics.counter_incr("planner_requests_failed_total");
                self.metrics
                    .observe_duration("planner_session_ns_failed", t0.elapsed());
                let _ = tx.send(PlanEvent::Failed {
                    error: panic_message(payload),
                });
            }
        }
    }

    /// Drops every cache entry a failed session could have been writing
    /// when it died: its `(model, cluster)` warm records and the class
    /// bases of its method's schedule kinds. Over-approximate on purpose
    /// — caches only ever substitute equal values, so quarantine can
    /// cost clean sessions a recomputation but never an answer.
    fn quarantine(&self, req: &PlanRequest) {
        let warm_dropped = self.invalidate(&req.model, &req.cluster);
        let classes_dropped: usize = req
            .method
            .kinds()
            .iter()
            .map(|kind| self.env.classes.invalidate_kind(*kind))
            .sum();
        self.metrics.counter_add(
            "planner_quarantined_warm_records_total",
            warm_dropped as u64,
        );
        self.metrics
            .counter_add("planner_quarantined_classes_total", classes_dropped as u64);
    }

    fn finish_accounting(&self, report: &SearchReport, t0: Instant) {
        let outcome = if report.cancelled {
            "cancelled"
        } else if report.timed_out {
            "timed_out"
        } else {
            "completed"
        };
        self.metrics
            .counter_incr(&format!("planner_requests_{outcome}_total"));
        let warmth = if report.warm_start { "warm" } else { "cold" };
        self.metrics.observe_duration(
            &format!("planner_session_ns_{outcome}_{warmth}"),
            t0.elapsed(),
        );
    }

    /// Drops every warm record for `(model, cluster)` — issue this when
    /// a cluster's topology or a model's definition changes underneath
    /// cached sweeps (the elastic re-planning path). Returns how many
    /// records were dropped.
    pub fn invalidate(&self, model: &TransformerConfig, cluster: &ClusterSpec) -> usize {
        match &self.env.warm {
            Some(w) => w.invalidate(model, cluster),
            None => 0,
        }
    }

    /// The warm-start store (always present on a planner).
    pub fn warm(&self) -> Option<&Arc<WarmCache>> {
        self.env.warm.as_ref()
    }
}

/// Renders a caught panic payload — `&str` and `String` payloads (all
/// of `panic!`'s) verbatim, anything else by type-erased placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "session panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets;
    use bfpp_model::presets as models;

    fn quick_req(method: Method, batch: u64) -> PlanRequest {
        PlanRequest {
            opts: SearchOptions {
                max_microbatch: 8,
                max_loop: 16,
                max_actions: 60_000,
                ..SearchOptions::default()
            },
            ..PlanRequest::new(
                models::bert_6_6b(),
                presets::dgx1_v100(8),
                method,
                batch,
                KernelModel::v100(),
            )
        }
    }

    /// Spin until `cond` holds (bounded): supervision state (in-flight
    /// census, detached session teardown) settles asynchronously.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..1000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for: {what}");
    }

    #[test]
    fn plan_matches_the_engine_exactly() {
        let planner = Planner::new();
        let req = quick_req(Method::BreadthFirst, 16);
        let (r, report) = planner.plan(&req);
        let (engine_r, engine_report) = search(
            &req.model,
            &req.cluster,
            req.method,
            req.global_batch,
            &req.kernel,
            &req.opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
        assert_eq!(r, engine_r);
        assert_eq!(
            (report.enumerated, report.simulated, report.best),
            (
                engine_report.enumerated,
                engine_report.simulated,
                engine_report.best
            )
        );
        let m = planner.metrics();
        assert_eq!(m.counter("planner_requests_submitted_total"), 1);
        assert_eq!(m.counter("planner_requests_completed_total"), 1);
    }

    #[test]
    fn submit_streams_improvements_then_done() {
        let planner = Arc::new(Planner::new());
        let handle = planner.submit(quick_req(Method::BreadthFirst, 16));
        let mut improvements = 0u32;
        let mut done = None;
        while let Some(ev) = handle.recv() {
            match ev {
                PlanEvent::Improved(r) => {
                    improvements += 1;
                    assert!(r.measurement.tflops_per_gpu > 0.0);
                }
                PlanEvent::Done { result, report } => {
                    done = Some((result, report));
                    break;
                }
                PlanEvent::Failed { error } => panic!("clean session failed: {error}"),
            }
        }
        let (result, report) = done.expect("stream ends with Done");
        assert!(result.is_some());
        assert!(!report.cancelled);
        assert!(improvements > 0, "at least the winner streams");
        assert_eq!(
            planner
                .metrics()
                .counter("planner_requests_completed_total"),
            1
        );
        eventually("in-flight census drains", || planner.in_flight() == 0);
    }

    #[test]
    fn second_identical_request_warm_starts() {
        let planner = Arc::new(Planner::new());
        let req = quick_req(Method::BreadthFirst, 16);
        let (cold, cold_rep) = planner.plan(&req);
        let (warm, warm_rep) = planner.plan(&req);
        assert_eq!(cold, warm);
        assert_eq!(cold_rep.enumerated, warm_rep.enumerated);
        assert!(warm_rep.warm_hits > 0, "{warm_rep:?}");
        assert_eq!(planner.metrics().counter("search_warm_starts_total"), 1);
        assert!(planner.metrics().counter("search_warm_hits_total") > 0);
    }

    #[test]
    fn invalidation_forces_the_next_request_cold() {
        let planner = Arc::new(Planner::new());
        let req = quick_req(Method::BreadthFirst, 16);
        planner.plan(&req);
        assert_eq!(planner.invalidate(&req.model, &req.cluster), 1);
        let (_, rep) = planner.plan(&req);
        assert_eq!(rep.warm_hits, 0, "record was dropped: cold again");
        assert!(!rep.warm_start);
    }

    #[test]
    fn cancelled_session_reports_cancellation() {
        let planner = Arc::new(Planner::new());
        let handle = planner.submit(quick_req(Method::BreadthFirst, 16));
        handle.cancel();
        let (_, report) = handle.wait();
        // Either the search finished before the flag landed (tiny quick
        // sweep) or it reports a cancelled prefix; both must account.
        let m = planner.metrics();
        assert_eq!(
            m.counter("planner_requests_completed_total")
                + m.counter("planner_requests_cancelled_total"),
            1
        );
        assert!(
            report.enumerated >= report.pruned_memory + report.pruned_throughput + report.simulated
        );
    }

    #[test]
    fn panicked_session_becomes_a_failed_event_and_quarantines() {
        // A private, empty class cache: every class of the seeding plan
        // is built here, so the quarantine finds classes to drop no
        // matter what other tests left in the process-global one.
        let classes = Arc::new(bfpp_exec::ClassCache::new());
        let planner = Arc::new(Planner::over(SearchEnv {
            executor: Executor::new(2),
            classes: Arc::clone(&classes),
            ..SearchEnv::service()
        }));
        let req = quick_req(Method::BreadthFirst, 16);
        // Seed every cache so the quarantine has something to drop.
        planner.plan(&req);
        assert!(!classes.is_empty());
        assert_eq!(planner.warm().unwrap().len(), 1);

        let mut sabotaged = req.clone();
        sabotaged.fault = Some(SessionFault::Panic(PanicPoint::AfterImprovements(1)));
        match planner.submit(sabotaged).wait_outcome() {
            SessionOutcome::Failed { error } => {
                assert!(error.contains("injected fault"), "{error}")
            }
            SessionOutcome::Done { .. } => panic!("sabotaged session must fail"),
        }

        let snap = planner.metrics_snapshot();
        assert_eq!(snap.counter("planner_requests_failed_total"), 1);
        for dropped in ["classes", "warm_records"] {
            let name = format!("planner_quarantined_{dropped}_total");
            assert!(snap.counter(&name) > 0, "{name}: {snap:?}");
        }
        assert_eq!(planner.warm().unwrap().len(), 0, "warm record quarantined");

        // The planner is still serviceable, and a re-plan (now cold
        // again) reproduces the original answer bit-for-bit.
        let (again, _) = planner.plan(&req);
        let fresh = Arc::new(Planner::with_threads(2));
        let (isolated, _) = fresh.plan(&req);
        assert_eq!(again, isolated);
        eventually("in-flight census drains", || planner.in_flight() == 0);
    }

    #[test]
    fn pre_search_panic_still_terminates_the_stream() {
        let planner = Arc::new(Planner::with_threads(1));
        let mut req = quick_req(Method::DepthFirst, 8);
        req.fault = Some(SessionFault::Panic(PanicPoint::BeforeSearch));
        match planner.submit(req).wait_outcome() {
            SessionOutcome::Failed { error } => {
                assert!(error.contains("before search"), "{error}")
            }
            SessionOutcome::Done { .. } => panic!("pre-search panic must fail the session"),
        }
        assert_eq!(
            planner.metrics().counter("planner_requests_failed_total"),
            1
        );
    }

    #[test]
    fn saturated_planner_rejects_with_a_typed_reason() {
        let planner = Arc::new(Planner::with_admission(1, 1));
        let mut holder = quick_req(Method::BreadthFirst, 16);
        holder.fault = Some(SessionFault::StallBeforeSearch(Duration::from_millis(300)));
        let held = planner.submit(holder);

        let rejected = planner.try_submit(quick_req(Method::DepthFirst, 8));
        match rejected {
            Err(RejectReason::Saturated { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (1, 1));
            }
            Ok(_) => panic!("saturated planner must reject"),
        }
        assert_eq!(
            planner.metrics().counter("planner_requests_rejected_total"),
            1
        );

        // Capacity returns once the holder finishes.
        let _ = held.wait();
        eventually("slot drains after terminal event", || {
            planner.in_flight() == 0
        });
        let (r, _) = planner
            .try_submit(quick_req(Method::DepthFirst, 8))
            .expect("drained planner admits again")
            .wait();
        assert!(r.is_some());
    }

    #[test]
    fn dropping_a_stalled_handle_is_bounded_and_counted() {
        let planner = Arc::new(Planner::with_threads(1));
        let mut req = quick_req(Method::BreadthFirst, 16);
        req.fault = Some(SessionFault::StallBeforeSearch(Duration::from_millis(800)));
        let mut handle = planner.submit(req);
        handle.set_drop_timeout(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(handle);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "drop must respect its bound, took {:?}",
            t0.elapsed()
        );
        assert_eq!(
            planner.metrics().counter("planner_sessions_leaked_total"),
            1
        );
        // The detached session still terminates and drains the census.
        eventually("leaked session eventually exits", || {
            planner.in_flight() == 0
        });
    }

    #[test]
    fn deadline_expiry_counts_requests_timed_out() {
        let planner = Arc::new(Planner::with_threads(1));
        let mut req = quick_req(Method::BreadthFirst, 16);
        req.opts.deadline = Some(Duration::ZERO);
        let (r, report) = planner.plan(&req);
        assert!(r.is_none());
        assert!(report.timed_out);
        let m = planner.metrics();
        assert_eq!(m.counter("planner_requests_timed_out_total"), 1);
        assert_eq!(m.counter("planner_requests_completed_total"), 0);
    }
}
