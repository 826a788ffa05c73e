//! Configuration search: the paper's §5.1 methodology.
//!
//! "To ensure a fair comparison, we tested a wide variety of
//! configurations in each case and selected the fastest one." For each
//! *method* (the four lines of Figure 5) and each global batch size, we
//! enumerate every valid combination of tensor/pipeline/data parallelism,
//! micro-batch shape, loop count and sharding level, simulate each, drop
//! those that do not fit device memory, and keep the fastest.
//!
//! The engine is layered (see DESIGN.md § Search engine):
//!
//! 1. [`crate::candidates`] lazily enumerates typed [`Candidate`]s in a
//!    fixed total order;
//! 2. [`crate::prune`] rejects candidates whose closed-form memory lower
//!    bound cannot fit, or whose Eq. (3)/(7) throughput upper bound
//!    cannot beat the best result so far;
//! 3. survivors are grouped by topology class ([`crate::batch`]) and
//!    simulated on a scoped worker pool — one replay workspace per
//!    class, re-timed per member — sharing generated schedules through
//!    a [`ScheduleCache`];
//! 4. results reduce serially in candidate order, so the winner (and
//!    every [`SearchReport`] counter) is bit-identical to the exhaustive
//!    serial reference ([`best_config_exhaustive`]) for any thread count.
//!
//! Baseline fidelity: the depth-first method is simulated like the
//! paper's Megatron-LM baseline — no network overlap, no sharding
//! (§5.1) — and each method searches the same sharding levels the paper
//! tried (Tables E.1–E.3 footnote 2: "DP_FS for breadth-first and
//! non-pipelined, DP_PS for non-looped").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bfpp_cluster::ClusterSpec;
use bfpp_core::{CacheStats, ScheduleCache, ScheduleKind};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, ParallelConfig};
use bfpp_sim::observe::Counters;
use bfpp_sim::{DurationMatrix, MetricsRegistry, Perturbation, SimDuration};

use crate::batch::{ClassBase, ClassCache, ClassKey};
use crate::candidates::{enumerate, Candidate};
use crate::executor::{Executor, ScopedTask};
use crate::kernel::KernelModel;
use crate::lower::Durations;
use crate::measure::{simulate_perturbed, Measurement};
use crate::overlap::OverlapConfig;
use crate::prune::{lower_bound_tflops, prune_reason, PruneReason};
use crate::warm::{self, Outcome, SweepRecord, WarmCache};

/// The four methods compared in Figure 5 and Tables E.1–E.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's breadth-first looping pipeline.
    BreadthFirst,
    /// Depth-first looping pipeline (Megatron-LM interleaved baseline).
    DepthFirst,
    /// Non-looped pipeline (GPipe / 1F1B).
    NonLooped,
    /// No pipeline: data (+ tensor) parallelism only.
    NoPipeline,
}

impl Method {
    /// All methods, paper order.
    pub const ALL: [Method; 4] = [
        Method::BreadthFirst,
        Method::DepthFirst,
        Method::NonLooped,
        Method::NoPipeline,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::BreadthFirst => "Breadth-first",
            Method::DepthFirst => "Depth-first",
            Method::NonLooped => "Non-looped",
            Method::NoPipeline => "No pipeline",
        }
    }

    /// The schedule kinds this method may use, in enumeration order.
    pub fn kinds(&self) -> &'static [ScheduleKind] {
        match self {
            Method::BreadthFirst => &[ScheduleKind::BreadthFirst],
            Method::DepthFirst => &[ScheduleKind::DepthFirst],
            // "Non-looped" tries both classic schedules; "no pipeline"
            // tries both gradient-accumulation orders (Appendix C:
            // breadth-first = GPipe order, depth-first = 1F1B order).
            Method::NonLooped => &[ScheduleKind::GPipe, ScheduleKind::OneFOneB],
            Method::NoPipeline => &[ScheduleKind::GPipe, ScheduleKind::OneFOneB],
        }
    }

    /// The sharding levels the paper tried for this method, in
    /// enumeration order.
    pub fn dp_variants(&self) -> &'static [DataParallelism] {
        match self {
            Method::BreadthFirst | Method::NoPipeline => {
                &[DataParallelism::Unsharded, DataParallelism::FullySharded]
            }
            Method::NonLooped => &[
                DataParallelism::Unsharded,
                DataParallelism::PartiallySharded,
            ],
            // Megatron-LM baseline: unsharded only.
            Method::DepthFirst => &[DataParallelism::Unsharded],
        }
    }

    /// The overlap capability of this method's implementation (§5.1:
    /// Megatron-LM supports neither data- nor pipeline-parallel overlap,
    /// and pays synchronization overhead around each transfer).
    pub fn overlap(&self) -> OverlapConfig {
        match self {
            Method::DepthFirst => OverlapConfig::megatron(),
            _ => OverlapConfig::full(),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Limits on the configuration enumeration and evaluation.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Largest micro-batch size tried.
    pub max_microbatch: u32,
    /// Largest stages-per-device (loop count) tried.
    pub max_loop: u32,
    /// Skip configurations whose op graph would exceed this many compute
    /// actions (guards the search's own runtime).
    pub max_actions: u64,
    /// Worker threads for candidate evaluation; `0` uses the machine's
    /// available parallelism. The result is identical for every value.
    pub threads: usize,
    /// Deterministic fault model every candidate is simulated under
    /// (identity by default). Part of the candidate's evaluation
    /// identity: the same options yield bit-identical searches for any
    /// thread count, perturbed or not.
    pub perturbation: Perturbation,
    /// Wall-clock budget for the whole search. Checked on the same
    /// cooperative chunk boundary as cancellation: once exceeded, the
    /// search stops, returns its best-so-far and sets
    /// [`SearchReport::timed_out`]. `None` = unbounded. Wall-clock by
    /// nature, so a deadlined search is *not* bit-stable across runs —
    /// use `max_candidates` for a deterministic budget.
    pub deadline: Option<Duration>,
    /// Candidate-visit budget: the search stops (with
    /// [`SearchReport::timed_out`]) once this many enumerated
    /// candidates have been visited. Unlike `deadline` this is
    /// deterministic: the same budget truncates at the same chunk
    /// boundary every run. `None` = unbounded.
    pub max_candidates: Option<u64>,
}

impl SearchOptions {
    /// The worker count to actually use: `threads`, or the machine's
    /// available parallelism when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_microbatch: 16,
            max_loop: 32,
            max_actions: 400_000,
            threads: 0,
            perturbation: Perturbation::none(),
            deadline: None,
            max_candidates: None,
        }
    }
}

/// The long-lived infrastructure a search runs over: the worker pool,
/// the schedule cache, and (optionally) the warm-start record store. A
/// batch CLI call uses [`SearchEnv::private`] — process-shared pool,
/// request-private caches, exactly the classic engine. A planner service
/// builds one `SearchEnv` with shared `Arc`'d caches and routes every
/// request through it.
#[derive(Debug, Clone)]
pub struct SearchEnv {
    /// The worker pool candidate evaluation runs on.
    pub executor: Arc<Executor>,
    /// Generated-schedule cache, shareable across concurrent requests
    /// (per-request traffic is attributed via [`CacheStats`]).
    pub schedules: Arc<ScheduleCache>,
    /// Topology-class base cache: every survivor is evaluated through
    /// its class's base. Bases are model/cluster/kernel-independent, so
    /// the process-wide [`ClassCache::global`] is the default even for
    /// private environments — a hit skips the class build (op walk, CSR
    /// index, discovery solve) but can never change a result.
    pub classes: Arc<ClassCache>,
    /// Warm-start store. `None` disables both recording and replay.
    pub warm: Option<Arc<WarmCache>>,
    /// Telemetry registry. `None` (the default) runs the engine
    /// uninstrumented; a service environment installs one and every
    /// request feeds it per-phase span histograms and candidate-flow
    /// counters at request end — never on the per-candidate hot path,
    /// which is how instrumentation overhead stays in the noise (the
    /// `telemetry_overhead` bench arm guards this).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl SearchEnv {
    /// The classic one-shot environment: the process-shared executor
    /// and topology-class cache, a private schedule cache, no
    /// warm-start store. Byte-identical *results* to the pre-service
    /// engine (the shared class cache affects only speed).
    pub fn private() -> SearchEnv {
        SearchEnv {
            executor: Arc::clone(Executor::global()),
            schedules: Arc::new(ScheduleCache::new()),
            classes: Arc::clone(ClassCache::global()),
            warm: None,
            metrics: None,
        }
    }

    /// A service environment: the process-shared executor and
    /// topology-class cache, shared schedule cache, and a warm-start
    /// store with default limits.
    pub fn service() -> SearchEnv {
        SearchEnv {
            executor: Arc::clone(Executor::global()),
            schedules: Arc::new(ScheduleCache::new()),
            classes: Arc::clone(ClassCache::global()),
            warm: Some(Arc::new(WarmCache::new())),
            metrics: Some(Arc::new(MetricsRegistry::new())),
        }
    }
}

impl Default for SearchEnv {
    fn default() -> Self {
        SearchEnv::private()
    }
}

/// The winning configuration for one (method, batch) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The method searched.
    pub method: Method,
    /// The winning schedule kind.
    pub kind: ScheduleKind,
    /// The winning configuration.
    pub cfg: ParallelConfig,
    /// The overlap setting used.
    pub overlap: OverlapConfig,
    /// Its measurement.
    pub measurement: Measurement,
}

/// What one search run did: how many candidates were enumerated, how
/// many each analytic filter rejected, how many reached the simulator,
/// and how long the whole search took. Counters are deterministic —
/// independent of the worker thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Candidates enumerated (every valid point of the search space).
    pub enumerated: u64,
    /// Rejected because their memory lower bound cannot fit the device.
    pub pruned_memory: u64,
    /// Rejected because their throughput upper bound cannot beat the
    /// best simulated result so far.
    pub pruned_throughput: u64,
    /// Candidates handed to the simulator.
    pub simulated: u64,
    /// Wall-clock time of the whole search.
    pub wall_time: Duration,
    /// The winner's throughput (Tflop/s per GPU), if anything fit.
    pub best: Option<f64>,
    /// The winner's throughput re-simulated under the
    /// [`Perturbation::reference_probe`] straggler (Tflop/s per GPU) — a
    /// standardized robustness probe, comparable across searches.
    pub robust_tflops: Option<f64>,
    /// `robust_tflops / best`: the fraction of clean throughput the
    /// winner retains under the reference probe (lower = more fragile).
    pub retention: Option<f64>,
    /// Simulated candidates whose topology-class base came from a
    /// warm-start record instead of the class cache or a fresh build.
    /// Always `0` for a cold search or a [`SearchEnv`] without a warm
    /// store. Not a CSV column (single-request CSV output is byte-stable
    /// across engine versions), and — like `counters` — excluded from
    /// the bit-stability guarantee across *concurrent* requests racing
    /// to populate one record; within one request it is
    /// thread-count-invariant.
    pub warm_hits: u64,
    /// Whether the search was cancelled before visiting every candidate.
    /// A cancelled report's counters describe the completed prefix only,
    /// and its `best` is merely best-so-far. Not a CSV column.
    pub cancelled: bool,
    /// Whether the search stopped at its [`SearchOptions::deadline`] or
    /// [`SearchOptions::max_candidates`] budget before visiting every
    /// candidate. Like `cancelled`, a timed-out report describes the
    /// completed prefix and its `best` is best-so-far. Not a CSV column.
    pub timed_out: bool,
    /// Instrumentation detail: phase wall-clock spans (`enumerate`,
    /// `prune`, `evaluate`, `probe`) and schedule-cache `cache_hits` /
    /// `cache_misses` counts. Diagnostic only — spans are host
    /// wall-clock, and two workers racing on a cold cache key can both
    /// count a miss — so, like [`SearchReport::wall_time`], this field
    /// is excluded from the bit-stability guarantees (the headline
    /// counters above remain thread-count-invariant).
    pub counters: Counters,
}

impl SearchReport {
    /// Header for the trailing CSV columns the reproduction binaries
    /// emit, matching [`SearchReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "enumerated,pruned_memory,pruned_throughput,simulated,search_ms,robust_tflops,retention_pct"
    }

    /// The report as trailing CSV columns (wall time in milliseconds,
    /// retention in percent, `-` when no winner was found).
    pub fn csv_row(&self) -> String {
        let robust = self
            .robust_tflops
            .map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
        let retention = self
            .retention
            .map_or_else(|| "-".to_string(), |v| format!("{:.1}", v * 100.0));
        format!(
            "{},{},{},{},{:.1},{},{}",
            self.enumerated,
            self.pruned_memory,
            self.pruned_throughput,
            self.simulated,
            self.wall_time.as_secs_f64() * 1e3,
            robust,
            retention
        )
    }

    /// Accumulates another report's counters (for sweep-level totals).
    /// `best`/`robust_tflops` keep the larger of the two; `retention`
    /// keeps the smaller (a sweep is as robust as its most fragile cell).
    pub fn accumulate(&mut self, other: &SearchReport) {
        self.enumerated += other.enumerated;
        self.pruned_memory += other.pruned_memory;
        self.pruned_throughput += other.pruned_throughput;
        self.simulated += other.simulated;
        self.wall_time += other.wall_time;
        self.best = match (self.best, other.best) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.robust_tflops = match (self.robust_tflops, other.robust_tflops) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.retention = match (self.retention, other.retention) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.warm_hits += other.warm_hits;
        self.cancelled |= other.cancelled;
        self.timed_out |= other.timed_out;
        self.counters.merge(&other.counters);
    }
}

/// Live progress of one in-flight search, shared between the engine and
/// an observer (the daemon's heartbeat emitter). The engine publishes at
/// chunk boundaries only — the same cadence as its cancellation
/// checkpoint — so observation adds a handful of relaxed stores per 32
/// candidates, nothing on the per-candidate hot path. All fields are
/// monotonic over one request, and the values mirror the corresponding
/// [`SearchReport`] counters, so a snapshot taken after `finished`
/// equals the final report's tallies exactly.
#[derive(Debug, Default)]
pub struct SearchProgress {
    enumerated: AtomicU64,
    pruned_memory: AtomicU64,
    pruned_throughput: AtomicU64,
    simulated: AtomicU64,
    /// Best-so-far throughput in milli-Tflop/s per GPU (integral so the
    /// cell stays a single atomic); `0` means no winner yet.
    best_millitflops: AtomicU64,
    warm_start: AtomicBool,
    finished: AtomicBool,
}

impl SearchProgress {
    pub fn new() -> SearchProgress {
        SearchProgress::default()
    }

    /// A consistent-enough copy for reporting: fields are read
    /// individually (relaxed), so a snapshot racing the engine may be
    /// torn across one chunk boundary — fine for heartbeats, and exact
    /// once [`ProgressSnapshot::finished`] is `true`.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            enumerated: self.enumerated.load(Ordering::Relaxed),
            pruned_memory: self.pruned_memory.load(Ordering::Relaxed),
            pruned_throughput: self.pruned_throughput.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            best_millitflops: self.best_millitflops.load(Ordering::Relaxed),
            warm_start: self.warm_start.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
        }
    }

    fn publish(&self, report: &SearchReport, best: Option<&SearchResult>) {
        self.pruned_memory
            .store(report.pruned_memory, Ordering::Relaxed);
        self.pruned_throughput
            .store(report.pruned_throughput, Ordering::Relaxed);
        self.simulated.store(report.simulated, Ordering::Relaxed);
        if let Some(b) = best {
            let milli = (b.measurement.tflops_per_gpu * 1e3).round().max(0.0) as u64;
            self.best_millitflops.store(milli.max(1), Ordering::Relaxed);
        }
    }
}

/// One point-in-time copy of a [`SearchProgress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Total candidates the request will visit (known up front).
    pub enumerated: u64,
    /// Rejected so far by the memory lower bound.
    pub pruned_memory: u64,
    /// Rejected so far by the throughput upper bound.
    pub pruned_throughput: u64,
    /// Handed to the simulator so far.
    pub simulated: u64,
    /// Best-so-far throughput in milli-Tflop/s per GPU; `0` = none yet.
    pub best_millitflops: u64,
    /// Whether the request replayed a warm record.
    pub warm_start: bool,
    /// Whether the search has returned (terminal snapshot).
    pub finished: bool,
}

impl ProgressSnapshot {
    /// Candidates whose fate is decided (pruned or simulated).
    pub fn visited(&self) -> u64 {
        self.pruned_memory + self.pruned_throughput + self.simulated
    }
}

/// Candidates are pruned and reduced in fixed-size chunks: each chunk is
/// pruned against the best of the chunks *before* it only, evaluated in
/// parallel, then reduced serially in candidate order. Keeping the chunk
/// size a constant (rather than deriving it from the thread count) is
/// what makes the report's counters — not just the winner —
/// thread-count-independent.
const EVAL_CHUNK: usize = 32;

/// Enumerates, prunes, simulates and ranks every valid configuration of
/// `method` at `global_batch`; returns the fastest that fits device
/// memory (or `None` if nothing fits) plus a [`SearchReport`] of what
/// the search did. Equally fast configurations resolve to the earliest
/// in enumeration order, exactly like [`best_config_exhaustive`].
pub fn best_config_with_report(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> (Option<SearchResult>, SearchReport) {
    search_streaming(
        model,
        cluster,
        method,
        global_batch,
        kernel,
        opts,
        &SearchEnv::private(),
        None,
        None,
    )
}

/// How one request traverses the candidate space: cold (a fresh
/// enumeration, optionally recorded) or warm (replaying a prior cold
/// search's perturbation-independent outcomes).
enum Plan {
    Cold(Vec<Candidate>),
    Warm(Arc<SweepRecord>),
}

/// One survivor's evaluation output, written into an order-indexed slot
/// by whichever worker ran it.
#[derive(Default)]
struct EvalSlot {
    measurement: Option<Measurement>,
    /// Whether a warm record supplied the candidate's class base.
    warm_hit: bool,
}

/// The full service-grade engine: [`best_config_with_report`] plus an
/// environment ([`SearchEnv`]), cooperative cancellation, and best-so-far
/// streaming.
///
/// * `cancel` is checked between chunks; once set, the search stops,
///   marks [`SearchReport::cancelled`] and returns its best-so-far
///   (skipping the robustness probe).
/// * `on_improve` fires from the serial reduction — in candidate order,
///   on the calling thread — each time the incumbent is replaced. The
///   final call's result equals the returned winner.
/// * With a warm store in `env`, a completed cold search records its
///   [per-candidate outcomes and class bases](crate::warm), and a later
///   request with the same signature (perturbation and thread count
///   excepted) replays them: no re-enumeration, and no class build for
///   a class whose base the record retained — only row fill and trace
///   replay. Warm results are bit-identical to the cold engine's for
///   the same request.
#[allow(clippy::too_many_arguments)]
pub fn search_streaming(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
    env: &SearchEnv,
    cancel: Option<&AtomicBool>,
    on_improve: Option<&mut (dyn FnMut(&SearchResult) + Send)>,
) -> (Option<SearchResult>, SearchReport) {
    search_observed(
        model,
        cluster,
        method,
        global_batch,
        kernel,
        opts,
        env,
        cancel,
        on_improve,
        None,
    )
}

/// [`search_streaming`] plus live observation: when `progress` is
/// given, the engine publishes its counters and best-so-far into it at
/// every chunk boundary and marks it finished on return, letting an
/// observer thread (the daemon's heartbeat) report on an in-flight
/// request without touching the search itself. With `progress = None`
/// this *is* `search_streaming`.
#[allow(clippy::too_many_arguments)]
pub fn search_observed(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
    env: &SearchEnv,
    cancel: Option<&AtomicBool>,
    mut on_improve: Option<&mut (dyn FnMut(&SearchResult) + Send)>,
    progress: Option<&SearchProgress>,
) -> (Option<SearchResult>, SearchReport) {
    let start = Instant::now();
    let overlap = method.overlap();
    let mut counters = Counters::new();
    let stats = CacheStats::new();
    let cache = env.schedules.as_ref();
    let warm_key = env
        .warm
        .as_ref()
        .map(|_| warm::request_key(model, cluster, method, global_batch, kernel, opts));

    // Cold or warm: a warm record replays a prior cold search's
    // enumeration (the "enumerate" span then covers the record lookup —
    // the whole point is that it is near-free).
    let plan = counters.time("enumerate", || {
        let record = match (&env.warm, &warm_key) {
            (Some(w), Some(k)) => w.lookup(k),
            _ => None,
        };
        match record {
            Some(rec) => Plan::Warm(rec),
            None => Plan::Cold(enumerate(model, cluster, method, global_batch, opts).collect()),
        }
    });
    let total = match &plan {
        Plan::Cold(cands) => cands.len(),
        Plan::Warm(rec) => rec.outcomes.len(),
    };
    let mut report = SearchReport {
        enumerated: total as u64,
        ..SearchReport::default()
    };

    // A cold search through a warm-capable env records outcomes (and
    // the class bases it resolved) for future warm starts.
    let mut recorder: Option<Vec<Outcome>> = match (&plan, &env.warm) {
        (Plan::Cold(_), Some(_)) => Some(Vec::with_capacity(total)),
        _ => None,
    };
    if matches!(plan, Plan::Warm(_)) {
        counters.incr("warm_start");
    }
    if let Some(p) = progress {
        p.enumerated.store(total as u64, Ordering::Relaxed);
        p.warm_start
            .store(matches!(plan, Plan::Warm(_)), Ordering::Relaxed);
    }

    // Request state: every class base this request resolved (with its
    // warm-record provenance, so `warm_hits` is thread-count invariant —
    // a key resolves exactly once per request), plus the serial
    // first-seen key order, which is the deterministic storage order
    // for a future warm record.
    let resolved: Mutex<HashMap<ClassKey, (Arc<ClassBase>, bool)>> = Mutex::new(HashMap::new());
    let mut class_order: Vec<ClassKey> = Vec::new();

    let threads = opts.effective_threads();
    let mut best: Option<SearchResult> = None;
    let mut best_cand: Option<Candidate> = None;
    let mut cancelled = false;
    let mut timed_out = false;

    let mut chunk_start = 0;
    while chunk_start < total {
        // Cancellation and budgets share one cooperative checkpoint:
        // the chunk boundary. Between checkpoints the search runs
        // uninterrupted, so both terminate with a consistent prefix.
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            cancelled = true;
            break;
        }
        if opts
            .max_candidates
            .is_some_and(|limit| chunk_start as u64 >= limit)
            || opts.deadline.is_some_and(|d| start.elapsed() >= d)
        {
            timed_out = true;
            break;
        }
        let chunk_end = (chunk_start + EVAL_CHUNK).min(total);
        let best_tflops = best.as_ref().map(|b| b.measurement.tflops_per_gpu);

        // Analytic pre-filters (closed-form, no simulation). Ties with
        // the current best survive the bound filter: equally fast
        // candidates lose to the earlier incumbent in the reduction, so
        // pruning them would be sound too — but only strictly dominated
        // candidates are *counted* as pruned. Under a jittery
        // perturbation an op can run up to `max_speedup()` faster than
        // its analytic duration, so the throughput bound is widened by
        // that factor to stay sound (exactly 1.0 for identity — the
        // unperturbed filter is unchanged bit-for-bit). A warm replay
        // re-decides only the throughput half (its best-so-far
        // trajectory is per-request); the memory half and the bound
        // itself are read from the record.
        let speedup = opts.perturbation.max_speedup();
        let mut survivors: Vec<Candidate> = Vec::with_capacity(chunk_end - chunk_start);
        counters.time("prune", || match &plan {
            Plan::Cold(cands) => {
                for cand in &cands[chunk_start..chunk_end] {
                    let reason =
                        prune_reason(model, cluster, cand, overlap, kernel, best_tflops, speedup);
                    if let Some(rec) = recorder.as_mut() {
                        rec.push(match reason {
                            Some(PruneReason::Memory) => Outcome::Memory,
                            _ => Outcome::Feasible {
                                cand: *cand,
                                ub_tflops: lower_bound_tflops(
                                    model, cluster, cand, overlap, kernel,
                                ),
                            },
                        });
                    }
                    match reason {
                        Some(PruneReason::Memory) => report.pruned_memory += 1,
                        Some(PruneReason::Throughput) => report.pruned_throughput += 1,
                        None => survivors.push(*cand),
                    }
                }
            }
            Plan::Warm(rec) => {
                for outcome in &rec.outcomes[chunk_start..chunk_end] {
                    match outcome {
                        Outcome::Memory => report.pruned_memory += 1,
                        Outcome::Feasible { cand, ub_tflops } => {
                            if best_tflops.is_some_and(|t| ub_tflops * speedup < t) {
                                report.pruned_throughput += 1;
                            } else {
                                survivors.push(*cand);
                            }
                        }
                    }
                }
            }
        });
        chunk_start = chunk_end;
        if survivors.is_empty() {
            continue;
        }
        report.simulated += survivors.len() as u64;

        // Parallel evaluation by topology class; results land in
        // order-indexed slots (no locks, no reordering). Tasks are capped
        // so each gets a few simulations — queueing a task for one
        // candidate costs more than simulating it. This affects only
        // scheduling, never results.
        let threads = threads.min(survivors.len().div_ceil(4));
        let mut slots: Vec<EvalSlot> = (0..survivors.len()).map(|_| EvalSlot::default()).collect();
        let warm_rec: Option<&SweepRecord> = match &plan {
            Plan::Warm(rec) => Some(rec),
            Plan::Cold(_) => None,
        };
        counters.time("evaluate", || {
            evaluate_chunk(
                model,
                cluster,
                cache,
                &stats,
                &survivors,
                &mut slots,
                overlap,
                kernel,
                &opts.perturbation,
                warm_rec,
                &env.classes,
                &resolved,
                &mut class_order,
                threads,
                &env.executor,
                env.metrics.as_deref(),
            );
        });

        // Serial in-order reduction: strictly-greater replaces, so the
        // first of equally fast candidates wins — the exhaustive serial
        // semantics. Improvements stream to the caller from here, i.e.
        // in deterministic candidate order.
        for (cand, slot) in survivors.iter().zip(slots) {
            report.warm_hits += u64::from(slot.warm_hit);
            let Some(m) = slot.measurement else { continue };
            if !m.fits(cluster.min_memory_bytes()) {
                continue;
            }
            let better = best
                .as_ref()
                .map(|b| m.tflops_per_gpu > b.measurement.tflops_per_gpu)
                .unwrap_or(true);
            if better {
                let result = SearchResult {
                    method,
                    kind: cand.kind,
                    cfg: cand.config_on(model, cluster),
                    overlap,
                    measurement: m,
                };
                if let Some(sink) = on_improve.as_deref_mut() {
                    sink(&result);
                }
                best = Some(result);
                best_cand = Some(*cand);
            }
        }
        if let Some(p) = progress {
            p.publish(&report, best.as_ref());
        }
    }

    // A *completed* cold search becomes a warm record (a cancelled or
    // timed-out prefix would replay as a wrong candidate set).
    if !cancelled && !timed_out {
        if let (Some(outcomes), Some(w), Some(key)) = (recorder, &env.warm, warm_key) {
            let record = SweepRecord::new(outcomes, w.record_budget());
            // The record keeps topology-class bases (in the serial
            // first-seen order, so storage under the op budget is
            // deterministic); a warm replay then re-times whole classes.
            // Bases are perturbation-independent — built from the key
            // alone — so even a perturbed cold run records them.
            let resolved_classes = lock_resolved(&resolved);
            for class_key in &class_order {
                if let Some((base, _)) = resolved_classes.get(class_key) {
                    record.store_class(*class_key, Arc::clone(base));
                }
            }
            drop(resolved_classes);
            w.insert(key, record);
        }
    }

    report.cancelled = cancelled;
    report.timed_out = timed_out;
    report.best = best.as_ref().map(|b| b.measurement.tflops_per_gpu);
    // Robustness columns: re-simulate the winner under the standardized
    // reference straggler probe and report how much throughput survives.
    // Skipped when cancelled or timed out — the caller asked for the
    // fastest exit with best-so-far.
    if let (Some(b), false) = (&best, cancelled || timed_out) {
        counters.time("probe", || {
            // The probe is a duration-only delta on the winner, so it is
            // answered from the winner's resolved class base — the same
            // bit-identical substitution as evaluation, no lowering and
            // no CSR rebuild.
            let probe = Perturbation::reference_probe();
            let probed = best_cand.as_ref().and_then(|cand| {
                let d = Durations::new(model, cluster, &b.cfg, kernel, overlap);
                let class_key = ClassKey::of(cand, overlap, &d);
                let base = lock_resolved(&resolved)
                    .get(&class_key)
                    .map(|(base, _)| Arc::clone(base))?;
                let mut row = vec![SimDuration::ZERO; base.num_ops()];
                let mut factors = Vec::new();
                base.fill_row(&d, &probe, &mut factors, &mut row);
                let mut solve_stats = crate::batch::empty_stats();
                let mut replay = base.lock_replay();
                Some(base.measure_row(&mut replay, &mut solve_stats, model, cluster, &b.cfg, &row))
            });
            if let Some(m) = probed {
                report.robust_tflops = Some(m.tflops_per_gpu);
                report.retention = Some(m.tflops_per_gpu / b.measurement.tflops_per_gpu);
            }
        });
    }
    // Per-request attribution: this request's own traffic on the
    // (possibly process-shared) schedule cache, not the cache's
    // since-process-start totals — so multi-request reports sum
    // correctly. The schedule cache is consulted once per class build,
    // so a request whose classes all resolve from the class cache or a
    // warm record shows no traffic at all.
    counters.add("cache_hits", stats.hits());
    counters.add("cache_misses", stats.misses());
    if report.warm_hits > 0 {
        counters.add("warm_hits", report.warm_hits);
    }
    report.counters = counters;
    report.wall_time = start.elapsed();

    // Request-end telemetry: one registry touch per request, after the
    // hot loops. Candidate-flow counters and the per-request candidate
    // histograms are deterministic (thread-count-invariant, like the
    // report fields they mirror); the `*_ns` phase-span histograms and
    // the cache hit/miss counters are wall-clock/racy diagnostics and
    // are excluded from the bit-stability guarantee.
    if let Some(metrics) = env.metrics.as_deref() {
        metrics.counter_incr("search_requests_total");
        metrics.counter_add("search_candidates_enumerated_total", report.enumerated);
        metrics.counter_add(
            "search_candidates_pruned_memory_total",
            report.pruned_memory,
        );
        metrics.counter_add(
            "search_candidates_pruned_throughput_total",
            report.pruned_throughput,
        );
        metrics.counter_add("search_candidates_simulated_total", report.simulated);
        if matches!(plan, Plan::Warm(_)) {
            metrics.counter_incr("search_warm_starts_total");
        }
        metrics.counter_add("search_warm_hits_total", report.warm_hits);
        metrics.counter_add(
            "search_cache_hits_total",
            report.counters.count("cache_hits"),
        );
        metrics.counter_add(
            "search_cache_misses_total",
            report.counters.count("cache_misses"),
        );
        metrics.observe("search_enumerated_per_request", report.enumerated);
        metrics.observe("search_simulated_per_request", report.simulated);
        for phase in ["enumerate", "prune", "evaluate", "probe"] {
            let span = report.counters.span(phase);
            if span > Duration::ZERO {
                metrics.observe(
                    &format!("search_phase_{phase}_ns"),
                    span.as_nanos().min(u128::from(u64::MAX)) as u64,
                );
            }
        }
        metrics.observe(
            "search_wall_ns",
            report.wall_time.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
    }
    if let Some(p) = progress {
        p.publish(&report, best.as_ref());
        p.finished.store(true, Ordering::Release);
    }
    (best, report)
}

/// One survivor: its original chunk position plus the per-candidate
/// inputs the class evaluator needs.
struct BatchItem {
    cand_idx: usize,
    cfg: ParallelConfig,
    d: Durations,
}

fn lock_resolved<'a>(
    resolved: &'a Mutex<HashMap<ClassKey, (Arc<ClassBase>, bool)>>,
) -> std::sync::MutexGuard<'a, HashMap<ClassKey, (Arc<ClassBase>, bool)>> {
    match resolved.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Chunk evaluation: a serial pre-pass validates each survivor,
/// computes its analytic durations, and groups survivors by topology
/// class in first-seen order; the groups are then split into at most
/// `threads` contiguous pool tasks (work-stealing granularity = a batch
/// of classes), each of which resolves its classes' bases and re-times
/// members by SoA trace replay. Bit-identical to lowering and solving
/// each candidate ([`best_config_exhaustive`]): validation failures
/// leave empty slots, a class whose schedule cannot generate (or whose
/// topology deadlocks) fails exactly the candidates lowering would
/// fail, and row fill + replay reproduce lower + solve to the bit.
#[allow(clippy::too_many_arguments)]
fn evaluate_chunk(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cache: &ScheduleCache,
    stats: &CacheStats,
    survivors: &[Candidate],
    slots: &mut [EvalSlot],
    overlap: OverlapConfig,
    kernel: &KernelModel,
    perturbation: &Perturbation,
    warm_rec: Option<&SweepRecord>,
    classes: &ClassCache,
    resolved: &Mutex<HashMap<ClassKey, (Arc<ClassBase>, bool)>>,
    class_order: &mut Vec<ClassKey>,
    threads: usize,
    executor: &Executor,
    metrics: Option<&MetricsRegistry>,
) {
    // Serial pre-pass: deterministic grouping in first-seen key order.
    let mut groups: Vec<(ClassKey, Vec<BatchItem>)> = Vec::new();
    let mut group_index: HashMap<ClassKey, usize> = HashMap::new();
    for (cand_idx, cand) in survivors.iter().enumerate() {
        let cfg = cand.config_on(model, cluster);
        if cfg.validate(model, cluster).is_err() {
            // Slot stays empty — lowering fails the same candidate.
            continue;
        }
        let d = Durations::new(model, cluster, &cfg, kernel, overlap);
        let key = ClassKey::of(cand, overlap, &d);
        let gi = match group_index.get(&key) {
            Some(&gi) => gi,
            None => {
                group_index.insert(key, groups.len());
                if !class_order.contains(&key) {
                    class_order.push(key);
                }
                groups.push((key, Vec::new()));
                groups.len() - 1
            }
        };
        groups[gi].1.push(BatchItem { cand_idx, cfg, d });
    }
    if groups.is_empty() {
        return;
    }

    // Evaluate into group-contiguous slots, then scatter back to chunk
    // order (groups partition the survivor indices, so the scatter is a
    // move per member). Each class is resolved by exactly one task —
    // groups never split across tasks.
    let total: usize = groups.iter().map(|(_, members)| members.len()).sum();
    let mut out: Vec<EvalSlot> = (0..total).map(|_| EvalSlot::default()).collect();
    let task_count = threads.clamp(1, groups.len());
    let per = groups.len().div_ceil(task_count);
    let ctx = GroupCtx {
        model,
        cluster,
        cache,
        stats,
        perturbation,
        warm_rec,
        classes,
        resolved,
        metrics,
    };
    if task_count <= 1 {
        eval_groups(&ctx, &groups, &mut out);
    } else {
        let ctx = &ctx;
        let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(task_count);
        let mut rest: &mut [EvalSlot] = &mut out;
        for gchunk in groups.chunks(per) {
            let n: usize = gchunk.iter().map(|(_, members)| members.len()).sum();
            let (mine, tail) = rest.split_at_mut(n);
            rest = tail;
            let task: ScopedTask<'_> = Box::new(move || eval_groups(ctx, gchunk, mine));
            tasks.push(task);
        }
        executor.scope_run(tasks);
    }

    let mut pos = 0;
    for (_, members) in &groups {
        for item in members {
            slots[item.cand_idx] = std::mem::take(&mut out[pos]);
            pos += 1;
        }
    }
}

/// What every pool task of one chunk shares.
struct GroupCtx<'a> {
    model: &'a TransformerConfig,
    cluster: &'a ClusterSpec,
    cache: &'a ScheduleCache,
    stats: &'a CacheStats,
    perturbation: &'a Perturbation,
    warm_rec: Option<&'a SweepRecord>,
    classes: &'a ClassCache,
    resolved: &'a Mutex<HashMap<ClassKey, (Arc<ClassBase>, bool)>>,
    metrics: Option<&'a MetricsRegistry>,
}

/// Evaluates a contiguous run of class groups into their group-ordered
/// slots — the body of one pool task.
fn eval_groups(ctx: &GroupCtx<'_>, groups: &[(ClassKey, Vec<BatchItem>)], out: &mut [EvalSlot]) {
    let mut factors: Vec<f64> = Vec::new();
    let mut solve_stats = crate::batch::empty_stats();
    let mut pos = 0;
    for (key, members) in groups {
        let slots = &mut out[pos..pos + members.len()];
        pos += members.len();

        // Resolve the class base: request-local map (stable provenance)
        // → warm record → shared class cache → build from the key and
        // its schedule. A failed resolution fails the whole class, as
        // lowering would fail each member: schedule generation and
        // deadlock depend only on class-level inputs.
        let hit = lock_resolved(ctx.resolved).get(key).cloned();
        let (base, from_record) = match hit {
            Some(found) => found,
            None => {
                let (built, from_record) =
                    if let Some(b) = ctx.warm_rec.and_then(|rec| rec.class_base(key)) {
                        (Some(b), true)
                    } else if let Some(b) = ctx.classes.lookup(key) {
                        (Some(b), false)
                    } else {
                        let built = build_class(ctx, key);
                        if let Some(b) = &built {
                            ctx.classes.insert(*key, Arc::clone(b));
                            if let Some(rec) = ctx.warm_rec {
                                // A rebuilt evicted base is re-offered to
                                // the record for the next replay.
                                rec.store_class(*key, Arc::clone(b));
                            }
                        }
                        (built, false)
                    };
                let Some(b) = built else { continue };
                lock_resolved(ctx.resolved).insert(*key, (Arc::clone(&b), from_record));
                (b, from_record)
            }
        };

        // One SoA duration batch per class: a contiguous row per member,
        // re-timed against the single prebuilt workspace.
        let mut batch = DurationMatrix::new(base.num_ops());
        for item in members {
            base.fill_row(&item.d, ctx.perturbation, &mut factors, batch.push_row());
        }
        let mut replay = base.lock_replay();
        for (row, (item, slot)) in members.iter().zip(slots.iter_mut()).enumerate() {
            slot.measurement = Some(base.measure_row(
                &mut replay,
                &mut solve_stats,
                ctx.model,
                ctx.cluster,
                &item.cfg,
                batch.row(row),
            ));
            slot.warm_hit = from_record;
        }
    }
}

/// Builds the base of a class-cache miss from its key and schedule,
/// counting the build (`search_class_builds_total`) and timing it
/// (`search_class_build_ns`, schedule lookup excluded) on this pool
/// thread — one clock pair per class, none per op.
fn build_class(ctx: &GroupCtx<'_>, key: &ClassKey) -> Option<Arc<ClassBase>> {
    let schedule = ctx
        .cache
        .get_or_generate_tracked(
            key.schedule_kind(),
            key.placement(),
            key.num_microbatches(),
            ctx.stats,
        )
        .ok()?;
    let t0 = ctx.metrics.map(|_| Instant::now());
    let built = ClassBase::build(key, &schedule);
    if let (Some(metrics), Some(t0)) = (ctx.metrics, t0) {
        metrics.counter_incr("search_class_builds_total");
        metrics.observe_duration("search_class_build_ns", t0.elapsed());
    }
    built.map(Arc::new)
}

/// The layered engine's winner, without the report.
pub fn best_config(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> Option<SearchResult> {
    best_config_with_report(model, cluster, method, global_batch, kernel, opts).0
}

/// The exhaustive serial reference: simulates *every* enumerated
/// candidate, no pruning, no caching, no threads. [`best_config`] is
/// verified (by test and by property test) to return exactly this.
pub fn best_config_exhaustive(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> Option<SearchResult> {
    let overlap = method.overlap();
    let mut best: Option<SearchResult> = None;
    for cand in enumerate(model, cluster, method, global_batch, opts) {
        let cfg = cand.config_on(model, cluster);
        let Ok(m) = simulate_perturbed(
            model,
            cluster,
            &cfg,
            cand.kind,
            overlap,
            kernel,
            &opts.perturbation,
        ) else {
            continue;
        };
        if !m.fits(cluster.min_memory_bytes()) {
            continue;
        }
        let better = best
            .as_ref()
            .map(|b| m.tflops_per_gpu > b.measurement.tflops_per_gpu)
            .unwrap_or(true);
        if better {
            best = Some(SearchResult {
                method,
                kind: cand.kind,
                cfg,
                overlap,
                measurement: m,
            });
        }
    }
    best
}

/// Runs [`best_config`] over a set of batch sizes — one Figure 5 line.
pub fn sweep(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    batches: &[u64],
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> Vec<(u64, Option<SearchResult>)> {
    batches
        .iter()
        .map(|&b| (b, best_config(model, cluster, method, b, kernel, opts)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::simulate;
    use bfpp_cluster::presets;
    use bfpp_model::presets as models;

    fn quick_opts() -> SearchOptions {
        SearchOptions {
            max_microbatch: 8,
            max_loop: 16,
            max_actions: 60_000,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn methods_have_labels_and_variants() {
        for m in Method::ALL {
            assert!(!m.label().is_empty());
            assert!(!m.dp_variants().is_empty());
        }
        assert_eq!(Method::DepthFirst.overlap(), OverlapConfig::megatron());
        assert_eq!(Method::BreadthFirst.overlap(), OverlapConfig::full());
        assert_eq!(Method::BreadthFirst.to_string(), "Breadth-first");
    }

    #[test]
    fn breadth_first_wins_at_small_batch_52b() {
        // The paper's headline (Figure 5a): near β_min, breadth-first
        // outperforms both the non-looped and depth-first baselines.
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let b = 9;
        let bf = best_config(&model, &cluster, Method::BreadthFirst, b, &k, &opts)
            .expect("breadth-first must have a feasible config at batch 9");
        // Batch 9 is awkward for the baselines (9 = 3^2): give them their
        // best nearby batch (8) as the paper's Figure 5a does.
        let nl = best_config(&model, &cluster, Method::NonLooped, 8, &k, &opts)
            .expect("non-looped feasible at batch 8");
        let df = best_config(&model, &cluster, Method::DepthFirst, 8, &k, &opts)
            .expect("depth-first feasible at batch 8");
        assert!(
            bf.measurement.tflops_per_gpu > nl.measurement.tflops_per_gpu,
            "bf {} !> non-looped {}",
            bf.measurement.tflops_per_gpu,
            nl.measurement.tflops_per_gpu
        );
        assert!(
            bf.measurement.tflops_per_gpu > df.measurement.tflops_per_gpu,
            "bf {} !> depth-first {}",
            bf.measurement.tflops_per_gpu,
            df.measurement.tflops_per_gpu
        );
        // And the winning config is looped.
        assert!(bf.cfg.placement.is_looping());
    }

    #[test]
    fn no_pipeline_catches_up_at_large_batch() {
        // Figure 5a: the non-pipelined approach achieves high utilization
        // only at a high batch size per GPU.
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let small = best_config(&model, &cluster, Method::NoPipeline, 8, &k, &opts)
            .expect("feasible")
            .measurement
            .tflops_per_gpu;
        let large = best_config(&model, &cluster, Method::NoPipeline, 512, &k, &opts)
            .expect("feasible")
            .measurement
            .tflops_per_gpu;
        assert!(
            large > 3.0 * small,
            "no-pipeline must be steep in batch size: {small} -> {large}"
        );
    }

    #[test]
    fn sweep_covers_all_batches() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let rows = sweep(&model, &cluster, Method::BreadthFirst, &[16, 64], &k, &opts);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, r)| r.is_some()));
        // Larger batch should not be slower for the same method.
        let t16 = rows[0].1.as_ref().unwrap().measurement.tflops_per_gpu;
        let t64 = rows[1].1.as_ref().unwrap().measurement.tflops_per_gpu;
        assert!(
            t64 >= t16 * 0.95,
            "bf 16 -> 64 should not regress: {t16} {t64}"
        );
    }

    #[test]
    fn infeasible_batch_returns_none() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        // Batch 7 with no-pipeline: no n_dp drawn from the 64-GPU grid
        // divides 7, so nothing is even enumerable.
        let (r, report) =
            best_config_with_report(&model, &cluster, Method::NoPipeline, 7, &k, &opts);
        assert!(r.is_none());
        assert_eq!(report.enumerated, 0);
        assert_eq!(report.best, None);
    }

    #[test]
    fn engine_is_thread_count_invariant_and_matches_exhaustive() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let reference =
            best_config_exhaustive(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
        assert!(reference.is_some());
        let mut first_report: Option<SearchReport> = None;
        for threads in [1usize, 2, 5] {
            let opts = SearchOptions {
                threads,
                ..quick_opts()
            };
            let (r, report) =
                best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
            assert_eq!(
                r, reference,
                "threads={threads} must match the serial reference"
            );
            assert_eq!(
                report.enumerated,
                report.pruned_memory + report.pruned_throughput + report.simulated,
                "every candidate is pruned or simulated"
            );
            assert_eq!(report.best, r.map(|r| r.measurement.tflops_per_gpu));
            if let Some(prev) = &first_report {
                assert_eq!(
                    (
                        prev.enumerated,
                        prev.pruned_memory,
                        prev.pruned_throughput,
                        prev.simulated
                    ),
                    (
                        report.enumerated,
                        report.pruned_memory,
                        report.pruned_throughput,
                        report.simulated
                    ),
                    "threads={threads}: counters must be thread-count-independent"
                );
            } else {
                first_report = Some(report);
            }
        }
    }

    #[test]
    fn ties_resolve_to_the_first_enumerated() {
        // On a single pipeline stage, GPipe and 1F1B order the same
        // kernels differently on one FIFO stream — identical batch time,
        // a genuine throughput tie. The tie must resolve to GPipe, the
        // earlier kind in enumeration (and Candidate) order.
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(1);
        let k = KernelModel::v100();
        let opts = SearchOptions {
            threads: 2,
            ..quick_opts()
        };
        let r = best_config(&model, &cluster, Method::NoPipeline, 64, &k, &opts)
            .expect("no-pipeline feasible at batch 64");
        let other = simulate(
            &model,
            &cluster,
            &r.cfg,
            ScheduleKind::OneFOneB,
            r.overlap,
            &k,
        )
        .expect("same config must simulate under the other kind");
        assert_eq!(
            other.tflops_per_gpu, r.measurement.tflops_per_gpu,
            "the tie must be real"
        );
        assert_eq!(r.kind, ScheduleKind::GPipe, "first in order wins the tie");
    }

    #[test]
    fn pruning_actually_prunes() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let (r, report) = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            48,
            &k,
            &quick_opts(),
        );
        assert!(r.is_some());
        assert!(
            report.pruned_memory + report.pruned_throughput > 0,
            "the 52B sweep must reject something analytically: {report:?}"
        );
        assert!(report.simulated < report.enumerated);
        assert!(report.wall_time > Duration::ZERO);
    }

    #[test]
    fn report_csv_round_trip() {
        let report = SearchReport {
            enumerated: 100,
            pruned_memory: 40,
            pruned_throughput: 30,
            simulated: 30,
            wall_time: Duration::from_millis(12),
            best: Some(51.5),
            robust_tflops: Some(45.2),
            retention: Some(0.877),
            warm_hits: 3,
            cancelled: false,
            timed_out: false,
            counters: Counters::new(),
        };
        assert_eq!(
            SearchReport::csv_header().split(',').count(),
            report.csv_row().split(',').count()
        );
        assert!(report.csv_row().starts_with("100,40,30,30,"));
        assert!(report.csv_row().ends_with("45.20,87.7"));
        // A report with no winner renders placeholders, same column count.
        let empty = SearchReport::default();
        assert_eq!(
            SearchReport::csv_header().split(',').count(),
            empty.csv_row().split(',').count()
        );
        assert!(empty.csv_row().ends_with("-,-"));

        let mut total = SearchReport::default();
        total.accumulate(&report);
        total.accumulate(&SearchReport {
            enumerated: 10,
            best: Some(60.0),
            robust_tflops: Some(40.0),
            retention: Some(0.66),
            ..SearchReport::default()
        });
        assert_eq!(total.enumerated, 110);
        assert_eq!(total.best, Some(60.0));
        assert_eq!(total.robust_tflops, Some(45.2), "max of the cells");
        assert_eq!(total.retention, Some(0.66), "most fragile cell");
    }

    #[test]
    fn report_counters_record_phases_and_cache_traffic() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        // The schedule cache is consulted once per class build, i.e.
        // once per class-cache miss: a private, empty class cache makes
        // that traffic independent of what other searches in this
        // process left in the global one.
        let classes = Arc::new(ClassCache::new());
        let env = SearchEnv {
            classes: Arc::clone(&classes),
            ..SearchEnv::private()
        };
        let (r, report) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
            &env,
            None,
            None,
        );
        assert!(r.is_some());
        let c = &report.counters;
        assert!(classes.misses() > 0, "a cold class cache misses");
        assert_eq!(
            c.count("cache_hits") + c.count("cache_misses"),
            classes.misses(),
            "every class build consults the schedule cache once: {c:?}"
        );
        assert!(
            c.count("cache_hits") > 0,
            "classes sharing a schedule must hit"
        );
        for phase in ["enumerate", "prune", "evaluate", "probe"] {
            assert!(
                c.spans().any(|(name, _)| name == phase),
                "missing phase span {phase}: {c:?}"
            );
        }
        assert!(c.render().contains("cache_hits="));

        // Accumulation folds counters like the other columns.
        let mut total = SearchReport::default();
        total.accumulate(&report);
        total.accumulate(&report);
        assert_eq!(
            total.counters.count("cache_misses"),
            2 * c.count("cache_misses")
        );
    }

    #[test]
    fn search_report_carries_robustness_columns() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let (r, report) = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
        );
        assert!(r.is_some());
        let robust = report.robust_tflops.expect("winner must be probed");
        let retention = report.retention.expect("retention derived from probe");
        assert!(robust > 0.0);
        assert!(
            retention > 0.0 && retention <= 1.0,
            "a 1.5x straggler cannot speed training up: {retention}"
        );
    }

    #[test]
    fn perturbed_search_is_thread_invariant_and_matches_exhaustive() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let perturbed = SearchOptions {
            perturbation: Perturbation::with_seed(11)
                .with_straggler(2, 1.3)
                .with_jitter(0.05),
            ..quick_opts()
        };
        let reference =
            best_config_exhaustive(&model, &cluster, Method::BreadthFirst, 16, &k, &perturbed);
        assert!(reference.is_some());
        let mut first: Option<(Option<SearchResult>, SearchReport)> = None;
        for threads in [1usize, 3] {
            let opts = SearchOptions {
                threads,
                ..perturbed.clone()
            };
            let (r, report) =
                best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
            assert_eq!(
                r, reference,
                "threads={threads}: perturbed winner must match the serial reference"
            );
            if let Some((pr, prep)) = &first {
                assert_eq!(&r, pr, "threads={threads}: winner bit-identical");
                assert_eq!(
                    (
                        prep.enumerated,
                        prep.pruned_memory,
                        prep.pruned_throughput,
                        prep.simulated
                    ),
                    (
                        report.enumerated,
                        report.pruned_memory,
                        report.pruned_throughput,
                        report.simulated
                    ),
                    "threads={threads}: perturbed counters thread-invariant"
                );
                assert_eq!(prep.robust_tflops, report.robust_tflops);
            } else {
                first = Some((r, report));
            }
        }
    }

    #[test]
    fn warm_start_replays_bit_identically_and_reuses_class_bases() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let env = SearchEnv::service();
        let opts = quick_opts();

        // Cold request populates the warm store.
        let (cold_r, cold_rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            None,
            None,
        );
        assert!(cold_r.is_some());
        assert_eq!(cold_rep.warm_hits, 0, "nothing to reuse on a cold run");
        assert_eq!(env.warm.as_ref().unwrap().len(), 1);

        // A duration-only delta (new perturbation) warm-starts: same
        // signature, re-solved durations, zero re-enumeration — and the
        // result must be bit-identical to a fresh cold search of the
        // perturbed request.
        let perturbed = SearchOptions {
            perturbation: Perturbation::with_seed(7).with_straggler(3, 1.4),
            ..quick_opts()
        };
        let (warm_r, warm_rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &perturbed,
            &env,
            None,
            None,
        );
        let (ref_r, ref_rep) =
            best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &perturbed);
        assert_eq!(warm_r, ref_r, "warm replay must match the cold engine");
        assert_eq!(
            (
                warm_rep.enumerated,
                warm_rep.pruned_memory,
                warm_rep.pruned_throughput,
                warm_rep.simulated,
                warm_rep.best,
                warm_rep.robust_tflops,
            ),
            (
                ref_rep.enumerated,
                ref_rep.pruned_memory,
                ref_rep.pruned_throughput,
                ref_rep.simulated,
                ref_rep.best,
                ref_rep.robust_tflops,
            ),
            "warm counters must match the cold engine's"
        );
        assert!(
            warm_rep.warm_hits > 0,
            "recorded class bases must be reused: {warm_rep:?}"
        );
        assert_eq!(warm_rep.counters.count("warm_start"), 1);
        assert_eq!(env.warm.as_ref().unwrap().warm_starts(), 1);

        // Identity warm replay reproduces the cold run exactly too.
        let (again_r, again_rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            None,
            None,
        );
        assert_eq!(again_r, cold_r);
        assert_eq!(again_rep.simulated, cold_rep.simulated);
        assert!(again_rep.warm_hits > 0);
    }

    #[test]
    fn warm_records_are_keyed_by_kernel() {
        // The recorded throughput bounds come from the kernel's
        // durations — a request differing only in kernel must
        // cold-search, not warm-hit the other kernel's record, and must
        // match its own fresh cold engine.
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let env = SearchEnv::service();
        let opts = quick_opts();

        let v100 = KernelModel::v100();
        let (v100_r, _) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &v100,
            &opts,
            &env,
            None,
            None,
        );
        assert!(v100_r.is_some());
        assert_eq!(env.warm.as_ref().unwrap().len(), 1);

        let a100 = KernelModel::a100();
        let (a100_r, a100_rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &a100,
            &opts,
            &env,
            None,
            None,
        );
        assert_eq!(
            a100_rep.counters.count("warm_start"),
            0,
            "a different kernel must not warm-hit"
        );
        assert_eq!(a100_rep.warm_hits, 0);
        assert_eq!(env.warm.as_ref().unwrap().len(), 2, "separate records");
        let (ref_r, _) =
            best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &a100, &opts);
        assert_eq!(a100_r, ref_r, "must equal a fresh cold a100 search");
        assert_ne!(
            v100_r.as_ref().map(|r| r.measurement.tflops_per_gpu),
            a100_r.as_ref().map(|r| r.measurement.tflops_per_gpu),
            "the kernels must actually measure differently for this test to bite"
        );
    }

    #[test]
    fn warm_invalidation_is_keyed_by_model_and_cluster() {
        let model = models::bert_6_6b();
        let other_model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let env = SearchEnv::service();
        let opts = quick_opts();
        for m in [&model, &other_model] {
            search_streaming(
                m,
                &cluster,
                Method::BreadthFirst,
                16,
                &k,
                &opts,
                &env,
                None,
                None,
            );
        }
        let warm = env.warm.as_ref().unwrap();
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.invalidate(&model, &cluster), 1, "drops one scope only");
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.invalidate(&model, &cluster), 0);
        warm.clear();
        assert!(warm.is_empty());
    }

    #[test]
    fn cancellation_stops_early_and_streams_report_it() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let cancel = AtomicBool::new(true); // cancelled before the first chunk
        let (r, report) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            Some(&cancel),
            None,
        );
        assert!(r.is_none(), "no chunk ran");
        assert!(report.cancelled);
        assert_eq!(report.simulated, 0);
        assert!(report.robust_tflops.is_none(), "probe skipped on cancel");

        // A cancelled cold run must not poison the warm store with a
        // partial record.
        let env = SearchEnv::service();
        let (_, rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            Some(&cancel),
            None,
        );
        assert!(rep.cancelled);
        assert!(env.warm.as_ref().unwrap().is_empty());
    }

    #[test]
    fn candidate_budget_truncates_deterministically() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let full = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
        );
        assert!(full.1.enumerated > EVAL_CHUNK as u64, "needs >1 chunk");

        let opts = SearchOptions {
            max_candidates: Some(EVAL_CHUNK as u64),
            ..quick_opts()
        };
        let mut first: Option<(Option<SearchResult>, SearchReport)> = None;
        for threads in [1usize, 3] {
            let opts = SearchOptions {
                threads,
                ..opts.clone()
            };
            let (r, rep) =
                best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
            assert!(rep.timed_out, "budget must truncate: {rep:?}");
            assert!(!rep.cancelled);
            assert_eq!(
                rep.pruned_memory + rep.pruned_throughput + rep.simulated,
                EVAL_CHUNK as u64,
                "exactly one chunk visited"
            );
            assert!(rep.robust_tflops.is_none(), "probe skipped on budget exit");
            if let Some((pr, prep)) = &first {
                assert_eq!(&r, pr, "threads={threads}: truncation is deterministic");
                assert_eq!(prep.simulated, rep.simulated);
            } else {
                first = Some((r, rep));
            }
        }

        // A truncated cold run must not poison the warm store.
        let env = SearchEnv::service();
        let (_, rep) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            None,
            None,
        );
        assert!(rep.timed_out);
        assert!(env.warm.as_ref().unwrap().is_empty());
    }

    #[test]
    fn expired_deadline_returns_best_so_far_immediately() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = SearchOptions {
            deadline: Some(Duration::ZERO),
            ..quick_opts()
        };
        let (r, rep) =
            best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
        assert!(
            r.is_none(),
            "no chunk ran under an already-expired deadline"
        );
        assert!(rep.timed_out);
        assert_eq!(rep.simulated, 0);
        assert!(rep.enumerated > 0, "enumeration itself is accounted");
    }

    #[test]
    fn streaming_improvements_arrive_in_order_and_end_at_the_winner() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let mut seen: Vec<f64> = Vec::new();
        let mut sink = |r: &SearchResult| seen.push(r.measurement.tflops_per_gpu);
        let (r, _) = search_streaming(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            None,
            Some(&mut sink),
        );
        let r = r.expect("feasible");
        assert!(!seen.is_empty());
        assert!(
            seen.windows(2).all(|w| w[1] > w[0]),
            "each streamed candidate strictly improves: {seen:?}"
        );
        assert_eq!(*seen.last().unwrap(), r.measurement.tflops_per_gpu);
    }

    #[test]
    fn zero_magnitude_perturbation_searches_identically() {
        // A seeded perturbation with no magnitudes is the identity: the
        // whole search — winner, counters, everything but wall time —
        // must be bit-identical to the unperturbed engine.
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let (clean_r, clean_rep) = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
        );
        let opts = SearchOptions {
            perturbation: Perturbation::with_seed(0xDEAD),
            ..quick_opts()
        };
        let (r, rep) =
            best_config_with_report(&model, &cluster, Method::BreadthFirst, 16, &k, &opts);
        assert_eq!(r, clean_r);
        assert_eq!(
            (
                rep.enumerated,
                rep.pruned_memory,
                rep.pruned_throughput,
                rep.simulated,
                rep.best
            ),
            (
                clean_rep.enumerated,
                clean_rep.pruned_memory,
                clean_rep.pruned_throughput,
                clean_rep.simulated,
                clean_rep.best
            )
        );
    }
}
