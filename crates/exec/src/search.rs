//! Configuration search: the paper's §5.1 methodology.
//!
//! "To ensure a fair comparison, we tested a wide variety of
//! configurations in each case and selected the fastest one." For each
//! *method* (the four lines of Figure 5) and each global batch size, we
//! enumerate every valid combination of tensor/pipeline/data parallelism,
//! micro-batch shape, loop count and sharding level, simulate each, drop
//! those that do not fit device memory, and keep the fastest.
//!
//! The engine is one entry point, [`search`], run as named stages (see
//! DESIGN.md § Search engine):
//!
//! 1. **plan** — [`crate::candidates`] enumerates typed [`Candidate`]s
//!    in a fixed total order (or a [warm record](crate::warm) replays);
//! 2. **prune** — [`crate::prune`]'s closed-form memory and Eq. (3)/(7)
//!    throughput bounds drop what cannot fit or cannot beat the best;
//! 3. **evaluate** — survivors are grouped by topology class
//!    ([`crate::batch`]) and re-timed on a scoped worker pool (a warm
//!    survivor the perturbation leaves untouched takes its record's
//!    clean measurement instead);
//! 4. **reduce** — serially in candidate order, so the winner (and every
//!    [`SearchReport`] counter) is bit-identical to the exhaustive serial
//!    reference ([`best_config_exhaustive`]) for any thread count;
//! 5. **record**, **probe**, **book** — warm record, robustness probe,
//!    telemetry.
//!
//! Baseline fidelity: the depth-first method is simulated like the
//! paper's Megatron-LM baseline — no network overlap, no sharding
//! (§5.1) — and each method searches the same sharding levels the paper
//! tried (Tables E.1–E.3 footnote 2: "DP_FS for breadth-first and
//! non-pipelined, DP_PS for non-looped").

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, ParallelConfig};
use bfpp_sim::{MetricsRegistry, Perturbation};

use crate::batch::{ClassBase, ClassCache, ClassKey, MemberTables};
use crate::candidates::{action_count, enumerate, Candidate};
use crate::executor::{Executor, ScopedTask};
use crate::kernel::KernelModel;
use crate::lower::Durations;
use crate::measure::{simulate_perturbed, Measurement};
use crate::overlap::OverlapConfig;
use crate::prune::{exceeds_device_memory, lower_bound_tflops};
use crate::warm::{self, Outcome, Record, Slot, WarmCache};

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
        crate::executor::resolve_threads(self.threads)
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
/// the topology-class cache (the one store of class bases), and
/// (optionally) the warm-start record store and a telemetry registry. A
/// batch CLI call uses [`SearchEnv::private`]: the process-shared pool
/// and class cache, with no warm store and no registry. A planner service builds one
/// `SearchEnv` with a warm store and a registry and routes every
/// request through it.
#[derive(Debug, Clone)]
pub struct SearchEnv {
    /// The worker pool candidate evaluation runs on.
    pub executor: Arc<Executor>,
    /// Topology-class base cache, the one store of class bases: every
    /// survivor a search re-times, cold or warm, is evaluated through
    /// its class's base, found here or built and offered here (warm
    /// records keep outcomes and measurements, never a base). Bases are
    /// model/cluster/kernel-independent, so
    /// the process-wide [`ClassCache::global`] is the default even for
    /// private environments — a hit skips the class build (op walk into
    /// the dependency index, discovery pass) but can never change a
    /// result.
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
    /// and topology-class cache, no warm-start store and no registry.
    /// Byte-identical *results* to the pre-service engine (the shared
    /// class cache affects only speed).
    pub fn private() -> SearchEnv {
        SearchEnv {
            executor: Arc::clone(Executor::global()),
            classes: Arc::clone(ClassCache::global()),
            warm: None,
            metrics: None,
        }
    }

    /// A service environment: the process-shared executor and
    /// topology-class cache, a warm-start store with default limits,
    /// and a fresh registry.
    pub fn service() -> SearchEnv {
        SearchEnv {
            executor: Arc::clone(Executor::global()),
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
    /// Candidates that survived both bounds and were evaluated: re-timed
    /// on their class base or, on a warm start whose perturbation leaves
    /// the candidate's pipeline untouched, given the clean measurement
    /// its record kept ([`crate::warm`]). Either way it equals a fresh
    /// search's count.
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
    /// Whether the search replayed a warm-start record instead of
    /// enumerating afresh. Not a CSV column.
    pub warm_start: bool,
    /// Survivors a warm start evaluated without building a class base:
    /// from its record's clean measurement, or on a base found in the
    /// class cache when the request first saw its class. An identity
    /// replay takes every survivor from the record. Always `0` for a
    /// cold search or a [`SearchEnv`] without a warm store. Not a CSV
    /// column (single-request CSV output is byte-stable across engine
    /// versions), and excluded from the bit-stability guarantee across
    /// *concurrent* requests sharing one class cache or racing to record
    /// one cell; within one request it is thread-count-invariant.
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
    /// Wall-clock time spent in each search phase. Host wall-clock, so —
    /// like [`SearchReport::wall_time`] — excluded from the
    /// bit-stability guarantees.
    pub phases: PhaseSpans,
}

/// Wall-clock time one search spent in each of its phases. A phase that
/// did not run (no probe for a cancelled or timed-out search) stays
/// zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSpans {
    /// Candidate enumeration, or the warm-record lookup that replaces
    /// it.
    pub enumerate: Duration,
    /// The analytic memory and throughput filters, over every chunk.
    pub prune: Duration,
    /// Topology-class evaluation of the survivors, over every chunk.
    pub evaluate: Duration,
    /// The winner's robustness probe.
    pub probe: Duration,
}

impl PhaseSpans {
    /// The spans in phase order, each with the name its
    /// `search_phase_<name>_ns` histogram uses.
    pub fn named(&self) -> [(&'static str, Duration); 4] {
        [
            ("enumerate", self.enumerate),
            ("prune", self.prune),
            ("evaluate", self.evaluate),
            ("probe", self.probe),
        ]
    }
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

/// The per-request hooks of [`search`], all optional:
/// `SearchHooks::default()` is the plain one-shot search.
#[derive(Default)]
pub struct SearchHooks<'a> {
    /// Checked between chunks; once set, the search stops, marks
    /// [`SearchReport::cancelled`] and returns its best-so-far (skipping
    /// the robustness probe).
    pub cancel: Option<&'a AtomicBool>,
    /// Called from the serial reduction — in candidate order, on the
    /// calling thread — each time the incumbent is replaced. The final
    /// call's result equals the returned winner.
    pub on_improve: Option<&'a mut (dyn FnMut(&SearchResult) + Send)>,
    /// Receives the counters and best-so-far at every chunk boundary and
    /// is marked finished on return, so an observer thread (the daemon's
    /// heartbeat) can report on an in-flight request.
    pub progress: Option<&'a SearchProgress>,
}

/// Enumerates, prunes, simulates and ranks every valid configuration of
/// `method` at `global_batch`, through the stages listed in the module
/// docs; returns the fastest that fits device memory (or `None` if
/// nothing fits) plus a [`SearchReport`] of what the search did. Equally
/// fast configurations resolve to the earliest in enumeration order,
/// exactly like [`best_config_exhaustive`].
///
/// With a warm store in `env`, a completed cold search is recorded, and
/// a later request with the same signature (perturbation and thread
/// count excepted) replays it bit-identically ([`crate::warm`]).
#[allow(clippy::too_many_arguments)]
pub fn search(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
    env: &SearchEnv,
    mut hooks: SearchHooks<'_>,
) -> (Option<SearchResult>, SearchReport) {
    let start = Instant::now();
    let req = Request {
        model,
        cluster,
        method,
        kernel,
        opts,
        env,
        overlap: method.overlap(),
        threads: opts.effective_threads(),
        untouched: opts.perturbation.untouched_devices(),
    };

    // The "enumerate" span covers a warm record's lookup in place of
    // the enumeration — the whole point is that it is near-free.
    let phase = Instant::now();
    let mut plan = req.plan(global_batch);
    let total = plan.len();
    let mut report = SearchReport {
        enumerated: total as u64,
        warm_start: matches!(plan, Plan::Warm(_)),
        ..SearchReport::default()
    };
    report.phases.enumerate = phase.elapsed();
    if let Some(p) = hooks.progress {
        p.enumerated.store(report.enumerated, Ordering::Relaxed);
        p.warm_start.store(report.warm_start, Ordering::Relaxed);
    }

    let mut table = ClassTable::default();
    let mut best: Option<(Candidate, SearchResult)> = None;
    let mut chunk_start = 0;
    while chunk_start < total {
        // Cancellation and budgets share one cooperative checkpoint:
        // the chunk boundary. Between checkpoints the search runs
        // uninterrupted, so both terminate with a consistent prefix.
        if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            report.cancelled = true;
            break;
        }
        if opts
            .max_candidates
            .is_some_and(|limit| chunk_start as u64 >= limit)
            || opts.deadline.is_some_and(|d| start.elapsed() >= d)
        {
            report.timed_out = true;
            break;
        }
        let chunk = chunk_start..(chunk_start + EVAL_CHUNK).min(total);
        chunk_start = chunk.end;

        let incumbent = best.as_ref().map(|(_, b)| b.measurement.tflops_per_gpu);
        let phase = Instant::now();
        let pruned = req.prune(&mut plan, chunk, incumbent);
        report.phases.prune += phase.elapsed();
        report.pruned_memory += pruned.memory;
        report.pruned_throughput += pruned.throughput;
        if pruned.survivors.is_empty() {
            continue;
        }
        report.simulated += pruned.survivors.len() as u64;

        let phase = Instant::now();
        let (slots, hits) = req.evaluate(&pruned.survivors, &opts.perturbation, &mut table);
        report.phases.evaluate += phase.elapsed();
        if report.warm_start {
            report.warm_hits += hits;
        }

        plan.remember(&pruned.survivors, &slots, req.untouched);
        req.reduce(&pruned.survivors, slots, &mut best, &mut hooks.on_improve);
        if let Some(p) = hooks.progress {
            p.publish(&report, best.as_ref().map(|(_, b)| b));
        }
    }

    // Only a *completed* search probes and records: a cancelled or
    // timed-out prefix would replay as a wrong candidate set, and its
    // caller asked for the fastest exit with best-so-far.
    let completed = !report.cancelled && !report.timed_out;
    report.best = best.as_ref().map(|(_, b)| b.measurement.tflops_per_gpu);
    let mut probed = None;
    if let (Some((cand, b)), true) = (&best, completed) {
        let phase = Instant::now();
        let slot = req.probe(cand, &plan, &mut table);
        if let Some(m) = &slot {
            report.robust_tflops = Some(m.tflops_per_gpu);
            report.retention = Some(m.tflops_per_gpu / b.measurement.tflops_per_gpu);
        }
        report.phases.probe = phase.elapsed();
        probed = Some((*cand, slot));
    }
    if completed {
        record(plan, probed);
    }
    report.wall_time = start.elapsed();
    req.book(&report);

    let best = best.map(|(_, b)| b);
    if let Some(p) = hooks.progress {
        p.publish(&report, best.as_ref());
        p.finished.store(true, Ordering::Release);
    }
    (best, report)
}

/// One request's fixed inputs and per-request state, shared by every
/// stage of [`search`] and, read-only, by its pool tasks.
struct Request<'a> {
    model: &'a TransformerConfig,
    cluster: &'a ClusterSpec,
    method: Method,
    kernel: &'a KernelModel,
    opts: &'a SearchOptions,
    env: &'a SearchEnv,
    overlap: OverlapConfig,
    threads: usize,
    /// The perturbation's untouched device count
    /// ([`Perturbation::untouched_devices`]): a candidate with
    /// `grid.n_pp` at most this re-times to its clean measurement.
    untouched: u32,
}

/// How one request traverses the candidate space.
enum Plan<'a> {
    /// A fresh enumeration. The prune stage classifies each chunk into
    /// `outcomes` as it goes; with a warm store, `publish` names the
    /// store and request key the completed search records them under.
    Cold {
        cands: Vec<Candidate>,
        outcomes: Vec<Outcome>,
        publish: Option<(&'a WarmCache, String)>,
    },
    /// A replay of a prior cold search's record.
    Warm(Arc<Record>),
}

impl Plan<'_> {
    fn len(&self) -> usize {
        match self {
            Plan::Cold { cands, .. } => cands.len(),
            Plan::Warm(record) => record.outcomes.len(),
        }
    }

    /// After a chunk's evaluate stage: a cold plan that will publish
    /// keeps the slot of each survivor its perturbation left untouched
    /// (`n_pp` within `untouched`) — a clean measurement — in that
    /// survivor's outcome.
    fn remember(&mut self, survivors: &[Survivor], slots: &[Slot], untouched: u32) {
        let Plan::Cold {
            outcomes,
            publish: Some(_),
            ..
        } = self
        else {
            return;
        };
        for (survivor, slot) in survivors.iter().zip(slots) {
            if survivor.cand.grid.n_pp > untouched {
                continue;
            }
            if let Outcome::Feasible { measured, .. } = &mut outcomes[survivor.idx] {
                *measured = Some(Box::new(slot.clone()));
            }
        }
    }
}

/// A candidate the prune stage kept: its enumeration index, and the
/// recorded slot a warm plan hands it when the request's perturbation
/// leaves it untouched.
#[derive(Debug, PartialEq)]
struct Survivor {
    idx: usize,
    cand: Candidate,
    recorded: Option<Slot>,
}

/// What the prune stage kept of one chunk, and how many it dropped by
/// each bound.
#[derive(Debug, Default, PartialEq)]
struct Pruned {
    survivors: Vec<Survivor>,
    memory: u64,
    throughput: u64,
}

/// The one analytic pre-filter, over a chunk of either plan's outcomes
/// — [`crate::prune::prune_reason`]'s decision, read off classified
/// outcomes. Ties with the incumbent survive: equally fast candidates
/// lose to the earlier incumbent in the reduction, so pruning them
/// would be sound too — but only strictly dominated candidates are
/// *counted* as pruned. Under a jittery perturbation an op can run up
/// to `speedup` (`max_speedup()`) times faster than its analytic
/// duration, so the throughput bound is widened by that factor to stay
/// sound (exactly 1.0 for identity). A survivor whose `n_pp` is within
/// `untouched` takes its outcome's recorded slot, if any.
fn filter(
    outcomes: &[Outcome],
    chunk: Range<usize>,
    incumbent: Option<f64>,
    speedup: f64,
    untouched: u32,
) -> Pruned {
    let mut pruned = Pruned {
        survivors: Vec::with_capacity(chunk.len()),
        ..Pruned::default()
    };
    for (idx, outcome) in chunk.clone().zip(&outcomes[chunk]) {
        match outcome {
            Outcome::Memory => pruned.memory += 1,
            Outcome::Feasible { ub_tflops, .. }
                if incumbent.is_some_and(|t| ub_tflops * speedup < t) =>
            {
                pruned.throughput += 1
            }
            Outcome::Feasible { cand, measured, .. } => pruned.survivors.push(Survivor {
                idx,
                cand: *cand,
                recorded: measured
                    .as_deref()
                    .filter(|_| cand.grid.n_pp <= untouched)
                    .cloned(),
            }),
        }
    }
    pruned
}

/// A class's resolved base, and whether it was found in the class cache
/// when this request first saw the class (the provenance a warm start's
/// `warm_hits` counts).
type Resolved = (Arc<ClassBase>, bool);

/// Every class this request has resolved, with its base — resolved at
/// most once per request, so `warm_hits` is thread-count-invariant. Only
/// serial code touches it: no lock.
type ClassTable = HashMap<ClassKey, Resolved>;

/// One class's survivors within a chunk, with its base (from the class
/// table or the class cache, or built in place by its pool task).
struct Group {
    key: ClassKey,
    resolved: Option<Resolved>,
    members: Vec<Member>,
}

/// One survivor: its index, its duration-table inputs, and the
/// measurement its pool task writes.
struct Member {
    idx: usize,
    cfg: ParallelConfig,
    d: Durations,
    measurement: Option<Measurement>,
}

/// What a class build weighs in members of the same class, for
/// [`group_cost`]. Measured over the feasible classes of the cold 1T and
/// Fig. 5a requests, one thread: a build costs ~50–70 ns per op and a
/// jittered member (table fill, and a replay that draws every op)
/// ~27–35 ns per op, so a build is worth about two members. Both scale
/// with the op count, which is ≈ 2 × the action count, so actions stand
/// in for ops. A randomness-free member replays in ~6–8 ns per op; its
/// groups are carved by the same weights.
const BUILD_MEMBERS: u64 = 2;

/// A group's estimated evaluation cost, in action-members: its
/// schedule's [`action_count`] times its members, plus [`BUILD_MEMBERS`]
/// if its base still has to be built.
fn group_cost(group: &Group) -> u64 {
    let key = &group.key;
    let actions = action_count(
        key.num_microbatches(),
        key.placement().n_pp(),
        key.placement().n_loop(),
    );
    let build = if group.resolved.is_none() {
        BUILD_MEMBERS
    } else {
        0
    };
    actions * (group.members.len() as u64 + build)
}

/// Longest-first list scheduling: each group's bin, given its cost and
/// `bins` bins. Groups go in descending cost (ties by index), each to
/// the least-loaded bin (ties by bin index), so the carving is a pure
/// function of the costs — and the largest bin's load is at most
/// `total / bins` plus the largest cost.
fn carve(costs: &[u64], bins: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&g| (std::cmp::Reverse(costs[g]), g));
    let mut load = vec![0u64; bins];
    let mut bin_of = vec![0; costs.len()];
    for g in order {
        let bin = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins > 0");
        load[bin] += costs[g];
        bin_of[g] = bin;
    }
    bin_of
}

impl<'a> Request<'a> {
    /// Plan stage: replay this request's warm record if the store holds
    /// one, else enumerate afresh (to be recorded if the env has a
    /// store).
    fn plan(&self, global_batch: u64) -> Plan<'a> {
        let (model, cluster, method, opts) = (self.model, self.cluster, self.method, self.opts);
        let mut publish = None;
        if let Some(warm) = self.env.warm.as_deref() {
            let key = warm::request_key(model, cluster, method, global_batch, self.kernel, opts);
            if let Some(outcomes) = warm.lookup(&key) {
                return Plan::Warm(outcomes);
            }
            publish = Some((warm, key));
        }
        let cands: Vec<Candidate> = enumerate(model, cluster, method, global_batch, opts).collect();
        Plan::Cold {
            outcomes: Vec::with_capacity(cands.len()),
            cands,
            publish,
        }
    }

    /// Prune stage over the next chunk. A cold plan first classifies the
    /// chunk into the outcomes a warm record stores — memory-pruned, or
    /// feasible with its unwidened throughput bound — so both plans then
    /// drop candidates through the one [`filter`].
    fn prune(&self, plan: &mut Plan<'_>, chunk: Range<usize>, incumbent: Option<f64>) -> Pruned {
        let (model, cluster, overlap, kernel) =
            (self.model, self.cluster, self.overlap, self.kernel);
        let outcomes: &[Outcome] = match plan {
            Plan::Cold {
                cands, outcomes, ..
            } => {
                debug_assert_eq!(outcomes.len(), chunk.start, "chunks are pruned in order");
                outcomes.extend(cands[chunk.clone()].iter().map(|&cand| {
                    if exceeds_device_memory(model, cluster, &cand) {
                        return Outcome::Memory;
                    }
                    let ub_tflops = lower_bound_tflops(model, cluster, &cand, overlap, kernel);
                    Outcome::Feasible {
                        cand,
                        ub_tflops,
                        measured: None,
                    }
                }));
                outcomes
            }
            Plan::Warm(record) => &record.outcomes,
        };
        let speedup = self.opts.perturbation.max_speedup();
        filter(outcomes, chunk, incumbent, speedup, self.untouched)
    }

    /// Evaluate stage: one measurement slot per survivor (empty where
    /// lowering would fail), plus how many it filled without building a
    /// class base — from a recorded slot, or on a base this request
    /// found in the class cache. A serial pre-pass fills each survivor
    /// that carries a recorded slot directly; it validates the rest,
    /// groups them by topology class in first-seen order, and resolves
    /// every class it can without building one: from the class table,
    /// else the class cache (one cache lookup per first sight, so the
    /// cache's hit and miss counts do not depend on the carving). The
    /// groups are then carved longest-first by estimated cost
    /// ([`group_cost`], [`carve`]) into at most `threads` pool tasks,
    /// which build the remaining bases and re-time members by trace
    /// replay of their duration tables; a serial scatter books the bases
    /// and restores survivor order.
    /// Bit-identical to lowering and solving each candidate
    /// ([`best_config_exhaustive`]).
    fn evaluate(
        &self,
        survivors: &[Survivor],
        perturbation: &Perturbation,
        table: &mut ClassTable,
    ) -> (Vec<Slot>, u64) {
        let mut slots: Vec<Slot> = vec![None; survivors.len()];
        let mut reused = 0;
        let mut groups: Vec<Group> = Vec::new();
        for (idx, survivor) in survivors.iter().enumerate() {
            if let Some(slot) = &survivor.recorded {
                slots[idx] = slot.clone();
                reused += 1;
                continue;
            }
            let cand = &survivor.cand;
            let cfg = cand.config_on(self.model, self.cluster);
            if cfg.validate(self.model, self.cluster).is_err() {
                // Slot stays empty — lowering fails the same candidate.
                continue;
            }
            let d = Durations::new(self.model, self.cluster, &cfg, self.kernel, self.overlap);
            let key = ClassKey::of(cand, self.overlap, &d);
            let member = Member {
                idx,
                cfg,
                d,
                measurement: None,
            };
            match groups.iter_mut().find(|g| g.key == key) {
                Some(g) => g.members.push(member),
                None => groups.push(Group {
                    key,
                    resolved: table
                        .get(&key)
                        .cloned()
                        .or_else(|| self.env.classes.lookup(&key).map(|base| (base, true))),
                    members: vec![member],
                }),
            }
        }

        // Each class is resolved by exactly one task — groups never
        // split across tasks. Tasks are capped so each gets a few
        // simulations — queueing a task for one candidate costs more
        // than simulating it — and a lone task runs inline on this
        // thread. This affects only scheduling, never results.
        let pending = survivors.len() - reused;
        let tasks = self.threads.min(pending.div_ceil(4)).min(groups.len());
        let costs: Vec<u64> = groups.iter().map(group_cost).collect();
        let mut bins: Vec<Vec<&mut Group>> = (0..tasks).map(|_| Vec::new()).collect();
        for (group, bin) in groups.iter_mut().zip(carve(&costs, tasks)) {
            bins[bin].push(group);
        }
        self.env.executor.scope_run(
            bins.into_iter()
                .map(|bin| Box::new(move || self.eval_groups(bin, perturbation)) as ScopedTask<'_>)
                .collect(),
        );

        let mut hits = reused as u64;
        for group in groups {
            if let Some(resolved) = group.resolved {
                if resolved.1 {
                    hits += group.members.len() as u64;
                }
                table.insert(group.key, resolved);
            }
            for member in group.members {
                slots[member.idx] = member.measurement;
            }
        }
        (slots, hits)
    }

    /// Evaluates class groups in place — the body of one pool task:
    /// builds each base no lookup found, then fills its members'
    /// (kind × resource) duration tables and replays them. With a
    /// registry, each group books one fill and one replay span
    /// (`search_class_fill_ns` for its tables and slot draws,
    /// `search_class_replay_ns` for its replays including measurement)
    /// — one clock pair per group and stage, none per op or member.
    fn eval_groups(&self, groups: Vec<&mut Group>, perturbation: &Perturbation) {
        let metrics = self.env.metrics.as_deref();
        let mut tables = MemberTables::new(perturbation);
        let mut solve_stats = crate::batch::empty_stats();
        for group in groups {
            if group.resolved.is_none() {
                group.resolved = self.build(&group.key);
            }
            // A failed resolution fails the whole class, as lowering
            // would fail each member: schedule generation and deadlock
            // depend only on class-level inputs.
            let Some((base, _)) = &group.resolved else {
                continue;
            };
            let fill_start = metrics.map(|_| Instant::now());
            base.fill_tables(group.members.iter().map(|m| &m.d), &mut tables);
            let replay_start = metrics.map(|_| Instant::now());
            for (k, member) in group.members.iter_mut().enumerate() {
                member.measurement = Some(base.measure(
                    &mut solve_stats,
                    self.model,
                    self.cluster,
                    &member.cfg,
                    tables.member(k),
                ));
            }
            if let (Some(metrics), Some(fill_start), Some(replay_start)) =
                (metrics, fill_start, replay_start)
            {
                metrics.observe_duration("search_class_fill_ns", replay_start - fill_start);
                metrics.observe_duration("search_class_replay_ns", replay_start.elapsed());
            }
        }
    }

    /// Builds a class no lookup resolved, from its key and a freshly
    /// generated schedule, on a pool thread. A build is counted
    /// (`search_class_builds_total`) and timed (`search_class_build_ns`,
    /// schedule generation excluded) — one clock pair per class, none
    /// per op — then offered to the class cache.
    fn build(&self, key: &ClassKey) -> Option<Resolved> {
        let schedule =
            Schedule::generate(key.schedule_kind(), key.placement(), key.num_microbatches())
                .ok()?;
        let metrics = self.env.metrics.as_deref();
        let t0 = metrics.map(|_| Instant::now());
        let built = ClassBase::build(key, &schedule);
        if let (Some(metrics), Some(t0)) = (metrics, t0) {
            metrics.counter_incr("search_class_builds_total");
            metrics.observe_duration("search_class_build_ns", t0.elapsed());
        }
        let base = Arc::new(built?);
        self.env.classes.insert(*key, Arc::clone(&base));
        Some((base, false))
    }

    /// Reduce stage: serial and in survivor order; strictly-greater
    /// replaces, so the first of equally fast candidates wins — the
    /// exhaustive serial semantics. A measurement takes part only if it
    /// [`competes`]. Improvements stream to `on_improve` from here, i.e.
    /// in deterministic candidate order.
    fn reduce(
        &self,
        survivors: &[Survivor],
        slots: Vec<Slot>,
        best: &mut Option<(Candidate, SearchResult)>,
        on_improve: &mut Option<&mut (dyn FnMut(&SearchResult) + Send)>,
    ) {
        let capacity = self.cluster.min_memory_bytes();
        for (Survivor { cand, .. }, m) in survivors.iter().zip(slots) {
            let Some(m) = m.filter(|m| competes(m, capacity)) else {
                continue;
            };
            let better = best
                .as_ref()
                .map(|(_, b)| m.tflops_per_gpu > b.measurement.tflops_per_gpu)
                .unwrap_or(true);
            if better {
                let result = SearchResult {
                    method: self.method,
                    kind: cand.kind,
                    cfg: cand.config_on(self.model, self.cluster),
                    overlap: self.overlap,
                    measurement: m,
                };
                if let Some(sink) = on_improve.as_deref_mut() {
                    sink(&result);
                }
                *best = Some((*cand, result));
            }
        }
    }

    /// Probe stage: the winner's slot under the standardized reference
    /// straggler. The probe does not depend on the request, so a warm
    /// plan whose record's winner is this winner reuses the recorded
    /// slot. Otherwise it is a duration-only delta, run through the
    /// evaluate stage on the winner's class — already resolved unless a
    /// recorded slot stood in for its evaluation, so no lowering, and a
    /// class build only where neither table nor cache holds the class.
    fn probe(&self, winner: &Candidate, plan: &Plan<'_>, table: &mut ClassTable) -> Slot {
        if let Plan::Warm(record) = plan {
            if let Some((_, slot)) = record.probe.as_ref().filter(|(cand, _)| cand == winner) {
                return slot.clone();
            }
        }
        let survivor = Survivor {
            idx: 0,
            cand: *winner,
            recorded: None,
        };
        let probe = Perturbation::reference_probe();
        let (mut slots, _) = self.evaluate(std::slice::from_ref(&survivor), &probe, table);
        slots.pop().flatten()
    }

    /// Book stage: one registry touch per request, after the hot loops.
    /// Candidate-flow counters and the per-request candidate histograms
    /// are deterministic (thread-count-invariant, like the report fields
    /// they mirror); the `*_ns` phase-span histograms are wall-clock
    /// diagnostics and are excluded from the bit-stability guarantee.
    fn book(&self, report: &SearchReport) {
        let Some(metrics) = self.env.metrics.as_deref() else {
            return;
        };
        metrics.counter_incr("search_requests_total");
        if report.warm_start {
            metrics.counter_incr("search_warm_starts_total");
        }
        for (name, n) in [
            ("search_candidates_enumerated_total", report.enumerated),
            (
                "search_candidates_pruned_memory_total",
                report.pruned_memory,
            ),
            (
                "search_candidates_pruned_throughput_total",
                report.pruned_throughput,
            ),
            ("search_candidates_simulated_total", report.simulated),
            ("search_warm_hits_total", report.warm_hits),
        ] {
            metrics.counter_add(name, n);
        }
        metrics.observe("search_enumerated_per_request", report.enumerated);
        metrics.observe("search_simulated_per_request", report.simulated);
        for (phase, span) in report.phases.named() {
            if span > Duration::ZERO {
                metrics.observe_duration(&format!("search_phase_{phase}_ns"), span);
            }
        }
        metrics.observe_duration("search_wall_ns", report.wall_time);
    }
}

/// Whether a measurement competes in a reduction: it fits a device of
/// `capacity` bytes and its throughput is finite. Under strict `>` a NaN
/// incumbent is never replaced, so it is skipped like one that does not
/// fit.
fn competes(m: &Measurement, capacity: u64) -> bool {
    m.fits(capacity) && m.tflops_per_gpu.is_finite()
}

/// Record stage: a completed cold search through a warm-capable env
/// publishes its classified outcomes, with the clean slots it kept
/// ([`Plan::remember`]), and its winner's probe slot. Outcomes and the
/// probe are perturbation-independent, so even a perturbed cold run
/// records them; the class bases a replay needs stay in the class
/// cache.
fn record(plan: Plan<'_>, probe: Option<(Candidate, Slot)>) {
    if let Plan::Cold {
        outcomes,
        publish: Some((warm, key)),
        ..
    } = plan
    {
        warm.insert(key, Record { outcomes, probe });
    }
}

/// The layered engine's winner, without the report: [`search`] over a
/// [`SearchEnv::private`] environment with no hooks.
pub fn best_config(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> Option<SearchResult> {
    let env = SearchEnv::private();
    search(
        model,
        cluster,
        method,
        global_batch,
        kernel,
        opts,
        &env,
        SearchHooks::default(),
    )
    .0
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
        if !competes(&m, cluster.min_memory_bytes()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::simulate;
    use crate::prune::{prune_reason, PruneReason};
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
    fn larger_batch_is_feasible_and_not_slower() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        let [t16, t64] = [16, 64].map(|batch| {
            best_config(&model, &cluster, Method::BreadthFirst, batch, &k, &opts)
                .unwrap_or_else(|| panic!("batch {batch} must be feasible"))
                .measurement
                .tflops_per_gpu
        });
        // Larger batch should not be slower for the same method.
        assert!(
            t64 >= t16 * 0.95,
            "bf 16 -> 64 should not regress: {t16} {t64}"
        );
    }

    /// What `prune_reason`, run candidate by candidate, decides for
    /// `cands[chunk]` against `incumbent`: survivors carry their
    /// enumeration index and no recorded slot.
    fn pruned_one_by_one(
        req: &Request<'_>,
        cands: &[Candidate],
        chunk: Range<usize>,
        incumbent: Option<f64>,
        speedup: f64,
    ) -> Pruned {
        let mut expected = Pruned::default();
        for (idx, cand) in chunk.clone().zip(&cands[chunk]) {
            match prune_reason(
                req.model,
                req.cluster,
                cand,
                req.overlap,
                req.kernel,
                incumbent,
                speedup,
            ) {
                Some(PruneReason::Memory) => expected.memory += 1,
                Some(PruneReason::Throughput) => expected.throughput += 1,
                None => expected.survivors.push(Survivor {
                    idx,
                    cand: *cand,
                    recorded: None,
                }),
            }
        }
        expected
    }

    /// A distinguishable stand-in for the clean measurement a record
    /// keeps for the candidate at `idx`.
    fn marker(idx: usize) -> Measurement {
        Measurement {
            batch_seconds: idx as f64,
            tflops_per_gpu: 1.0,
            utilization: 0.01,
            compute_busy: 0.5,
            memory_bytes: 0.0,
            global_batch: 48,
            batch_per_gpu: 0.75,
        }
    }

    #[test]
    fn prune_stage_decides_cold_and_warm_plans_like_prune_reason() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let env = SearchEnv::private();
        let method = Method::BreadthFirst;
        for perturbation in [
            Perturbation::none(),
            Perturbation::with_seed(3).with_jitter(0.5),
            Perturbation::with_seed(5).with_straggler(4, 1.5),
        ] {
            let opts = SearchOptions {
                perturbation,
                ..quick_opts()
            };
            let speedup = opts.perturbation.max_speedup();
            let untouched = opts.perturbation.untouched_devices();
            let req = Request {
                model: &model,
                cluster: &cluster,
                method,
                kernel: &k,
                opts: &opts,
                env: &env,
                overlap: method.overlap(),
                threads: 1,
                untouched,
            };
            let cands: Vec<Candidate> = enumerate(&model, &cluster, method, 48, &opts).collect();
            let chunks: Vec<Range<usize>> = (0..cands.len())
                .step_by(EVAL_CHUNK)
                .map(|s| s..(s + EVAL_CHUNK).min(cands.len()))
                .collect();
            assert!(chunks.len() > 1, "needs several chunks");

            // Incumbents: none, then the median and the highest widened
            // bound (the highest bound itself ties and survives).
            let mut bounds: Vec<f64> = cands
                .iter()
                .filter(|c| !exceeds_device_memory(&model, &cluster, c))
                .map(|c| lower_bound_tflops(&model, &cluster, c, req.overlap, &k) * speedup)
                .collect();
            bounds.sort_by(f64::total_cmp);
            let incumbents = [None, Some(bounds[bounds.len() / 2]), bounds.last().copied()];

            let mut totals = Pruned::default();
            let mut classified = Vec::new();
            for incumbent in incumbents {
                let mut plan = req.plan(48);
                for chunk in &chunks {
                    let expected =
                        pruned_one_by_one(&req, &cands, chunk.clone(), incumbent, speedup);
                    let pruned = req.prune(&mut plan, chunk.clone(), incumbent);
                    assert_eq!(pruned, expected, "cold chunk {chunk:?} at {incumbent:?}");
                    totals.memory += pruned.memory;
                    totals.throughput += pruned.throughput;
                    totals.survivors.extend(pruned.survivors);
                }
                let Plan::Cold { outcomes, .. } = plan else {
                    panic!("a private env plans cold");
                };
                classified = outcomes;
            }
            assert!(
                totals.memory > 0 && totals.throughput > 0 && !totals.survivors.is_empty(),
                "speedup {speedup}: every branch of the filter must be exercised"
            );

            // A warm plan over the classified outcomes decides every
            // incumbent the same way. Its record keeps a clean slot for
            // every other feasible candidate, and a survivor takes its
            // slot exactly when its pipeline is within the untouched
            // count.
            for (idx, outcome) in classified.iter_mut().enumerate() {
                if let Outcome::Feasible { measured, .. } = outcome {
                    *measured = (idx % 2 == 0).then(|| Box::new(Some(marker(idx))));
                }
            }
            let mut warm = Plan::Warm(Arc::new(Record {
                outcomes: classified,
                probe: None,
            }));
            let (mut handed, mut kept) = (0, 0);
            for incumbent in incumbents {
                for chunk in &chunks {
                    let mut pruned = req.prune(&mut warm, chunk.clone(), incumbent);
                    for survivor in &mut pruned.survivors {
                        let within = survivor.cand.grid.n_pp <= untouched;
                        let want =
                            (within && survivor.idx % 2 == 0).then(|| Some(marker(survivor.idx)));
                        assert_eq!(survivor.recorded.take(), want, "{survivor:?}");
                        handed += u32::from(want.is_some());
                        kept += u32::from(!within && survivor.idx % 2 == 0);
                    }
                    let expected =
                        pruned_one_by_one(&req, &cands, chunk.clone(), incumbent, speedup);
                    assert_eq!(pruned, expected, "warm chunk {chunk:?} at {incumbent:?}");
                }
            }
            match untouched {
                0 => assert_eq!(handed, 0, "{:?} touches every pipeline", opts.perturbation),
                u32::MAX => assert_eq!(kept, 0, "identity touches nothing"),
                _ => assert!(
                    handed > 0 && kept > 0,
                    "both sides of the boundary are exercised"
                ),
            }
        }
    }

    #[test]
    fn reduce_skips_non_finite_measurements() {
        // A non-finite first slot must not become the incumbent: no
        // later `>` would beat a NaN.
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let env = SearchEnv::private();
        let opts = quick_opts();
        let method = Method::BreadthFirst;
        let req = Request {
            model: &model,
            cluster: &cluster,
            method,
            kernel: &k,
            opts: &opts,
            env: &env,
            overlap: method.overlap(),
            threads: 1,
            untouched: u32::MAX,
        };
        let survivors: Vec<Survivor> = enumerate(&model, &cluster, method, 48, &opts)
            .take(2)
            .enumerate()
            .map(|(idx, cand)| Survivor {
                idx,
                cand,
                recorded: None,
            })
            .collect();
        let finite = Measurement {
            batch_seconds: 1.0,
            tflops_per_gpu: 40.0,
            utilization: 0.32,
            compute_busy: 0.5,
            memory_bytes: 0.0,
            global_batch: 48,
            batch_per_gpu: 0.75,
        };
        for bad in [f64::NAN, f64::INFINITY] {
            let skipped = Measurement {
                tflops_per_gpu: bad,
                ..finite.clone()
            };
            let mut best = None;
            let slots = vec![Some(skipped), Some(finite.clone())];
            req.reduce(&survivors, slots, &mut best, &mut None);
            let (cand, result) = best.expect("the finite slot competes");
            assert_eq!(cand, survivors[1].cand, "{bad}");
            assert_eq!(result.measurement, finite, "{bad}");
        }
    }

    #[test]
    fn warm_replay_rebuilds_missing_bases_and_stays_thread_invariant() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let method = Method::BreadthFirst;
        // A cold search, its identity warm replay, a second identity
        // replay after the class cache is emptied, and a replay under a
        // straggler on device 0 — in every pipeline — through a fresh
        // service env over a private class cache: (the first replay's
        // warm hits and simulations, the straggler replay's warm hits,
        // the class builds it ran).
        let run = |threads: usize| {
            let opts = SearchOptions {
                threads,
                ..quick_opts()
            };
            let classes = Arc::new(ClassCache::new());
            let env = SearchEnv {
                classes: Arc::clone(&classes),
                ..SearchEnv::service()
            };
            let metrics = env.metrics.clone().expect("a service env has a registry");
            let plan = |opts: &SearchOptions| {
                search(
                    &model,
                    &cluster,
                    method,
                    16,
                    &k,
                    opts,
                    &env,
                    SearchHooks::default(),
                )
            };
            let (cold, cold_rep) = plan(&opts);
            assert!(cold.is_some() && !cold_rep.warm_start);
            let (replay, rep) = plan(&opts);
            assert!(rep.warm_start);
            assert_eq!(replay, cold, "threads {threads}: replay == cold");
            assert_eq!(
                rep.warm_hits, rep.simulated,
                "threads {threads}: every survivor is evaluated without a build"
            );

            // Identity touches no pipeline: every survivor and the probe
            // take the record's slots, so no base is needed.
            classes.clear();
            let builds = metrics.counter("search_class_builds_total");
            let (again, again_rep) = plan(&opts);
            assert_eq!(
                again, cold,
                "threads {threads}: replay after the clear == cold"
            );
            assert_eq!(
                (
                    again_rep.simulated,
                    again_rep.warm_hits,
                    again_rep.robust_tflops
                ),
                (
                    cold_rep.simulated,
                    cold_rep.simulated,
                    cold_rep.robust_tflops
                ),
                "threads {threads}: same counters, every survivor from the record"
            );
            assert_eq!(metrics.counter("search_class_builds_total"), builds);
            assert!(classes.is_empty(), "threads {threads}: nothing built");

            // Device 0 is in every pipeline: nothing is reused, and the
            // missing bases are rebuilt.
            let slow = SearchOptions {
                perturbation: Perturbation::with_seed(3).with_straggler(0, 1.5),
                ..opts.clone()
            };
            let (rebuilt, rebuilt_rep) = plan(&slow);
            assert!(rebuilt_rep.warm_start, "a replay without bases warm-starts");
            let (fresh, fresh_rep) = search(
                &model,
                &cluster,
                method,
                16,
                &k,
                &slow,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
            assert_eq!(rebuilt, fresh, "threads {threads}: replay == fresh search");
            assert_eq!(
                (
                    rebuilt_rep.simulated,
                    rebuilt_rep.robust_tflops,
                    rebuilt_rep.retention
                ),
                (
                    fresh_rep.simulated,
                    fresh_rep.robust_tflops,
                    fresh_rep.retention
                ),
                "threads {threads}"
            );
            assert_eq!(
                rebuilt_rep.warm_hits, 0,
                "threads {threads}: no base to find, no slot to reuse"
            );
            let rebuilds = metrics.counter("search_class_builds_total") - builds;
            assert!(rebuilds > 0, "threads {threads}: missing bases are rebuilt");
            (
                rep.warm_hits,
                rep.simulated,
                rebuilt_rep.warm_hits,
                rebuilds,
            )
        };
        let first = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), first, "threads {threads}");
        }
    }

    /// Each bin's total cost under `carve`.
    fn loads(costs: &[u64], bins: usize) -> Vec<u64> {
        let mut load = vec![0; bins];
        for (g, bin) in carve(costs, bins).into_iter().enumerate() {
            load[bin] += costs[g];
        }
        load
    }

    #[test]
    fn carve_places_every_group_once_and_deterministically() {
        let costs = [5, 9, 9, 1, 0, 5, 3, 9];
        for bins in 1..=4 {
            let bin_of = carve(&costs, bins);
            assert_eq!(bin_of.len(), costs.len(), "one bin per group");
            assert!(bin_of.iter().all(|&b| b < bins));
            assert_eq!(bin_of, carve(&costs, bins), "a pure function");
        }
        // Equal costs go in index order to bins in index order.
        assert_eq!(carve(&[9, 9, 9, 9], 3), [0, 1, 2, 0]);
        assert_eq!(carve(&costs, 2), [1, 0, 1, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn carve_gives_a_dominant_group_a_bin_of_its_own() {
        let costs = [3, 2, 120, 4, 1, 5];
        let bin_of = carve(&costs, 2);
        let alone = bin_of[2];
        assert!(
            (0..costs.len()).all(|g| g == 2 || bin_of[g] != alone),
            "{bin_of:?}"
        );
        assert_eq!(loads(&costs, 2), [120, 15]);
    }

    #[test]
    fn carve_stays_within_the_list_scheduling_bound() {
        // Enumeration order puts large classes next to each other; a
        // carving by count would give one bin the whole large run.
        let mut lists: Vec<Vec<u64>> = vec![vec![10, 10, 10, 10, 1, 1, 1, 1], vec![1; 7]];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in [3, 8, 16, 31] {
            lists.push(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        1 + x % 1000
                    })
                    .collect(),
            );
        }
        for costs in &lists {
            let total: u64 = costs.iter().sum();
            let largest = costs.iter().copied().max().unwrap_or(0);
            for bins in 2..=4 {
                let max = loads(costs, bins).into_iter().max().unwrap();
                assert!(
                    max * bins as u64 <= total + bins as u64 * largest,
                    "{costs:?} into {bins}: max load {max}"
                );
            }
        }
        assert_eq!(loads(&lists[0], 2), [22, 22]);
    }

    #[test]
    fn infeasible_batch_returns_none() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let opts = quick_opts();
        // Batch 7 with no-pipeline: no n_dp drawn from the 64-GPU grid
        // divides 7, so nothing is even enumerable.
        let (r, report) = search(
            &model,
            &cluster,
            Method::NoPipeline,
            7,
            &k,
            &opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
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
            let (r, report) = search(
                &model,
                &cluster,
                Method::BreadthFirst,
                16,
                &k,
                &opts,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
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
        let (r, report) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            48,
            &k,
            &quick_opts(),
            &SearchEnv::private(),
            SearchHooks::default(),
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
            ..SearchReport::default()
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
    }

    #[test]
    fn report_counters_record_phases_and_cache_traffic() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        // A private, empty class cache makes its traffic independent of
        // what other searches in this process left in the global one.
        let classes = Arc::new(ClassCache::new());
        let env = SearchEnv {
            classes: Arc::clone(&classes),
            ..SearchEnv::private()
        };
        let (r, report) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
            &env,
            SearchHooks::default(),
        );
        assert!(r.is_some());
        assert!(classes.misses() > 0, "a cold class cache misses");
        for (phase, span) in report.phases.named() {
            assert!(
                span > Duration::ZERO,
                "missing phase span {phase}: {report:?}"
            );
        }
    }

    #[test]
    fn search_report_carries_robustness_columns() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let (r, report) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
            &SearchEnv::private(),
            SearchHooks::default(),
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
        for threads in [1usize, 2, 3, 4] {
            let opts = SearchOptions {
                threads,
                ..perturbed.clone()
            };
            let (r, report) = search(
                &model,
                &cluster,
                Method::BreadthFirst,
                16,
                &k,
                &opts,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
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
        let (cold_r, cold_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            SearchHooks::default(),
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
        let (warm_r, warm_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &perturbed,
            &env,
            SearchHooks::default(),
        );
        let (ref_r, ref_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &perturbed,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
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
            "the cold search's class bases must be reused: {warm_rep:?}"
        );
        assert!(warm_rep.warm_start && !cold_rep.warm_start);
        let metrics = env.metrics.as_deref().expect("service env has a registry");
        assert_eq!(metrics.counter("search_warm_starts_total"), 1);

        // Identity warm replay reproduces the cold run exactly too.
        let (again_r, again_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            SearchHooks::default(),
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
        let (v100_r, _) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &v100,
            &opts,
            &env,
            SearchHooks::default(),
        );
        assert!(v100_r.is_some());
        assert_eq!(env.warm.as_ref().unwrap().len(), 1);

        let a100 = KernelModel::a100();
        let (a100_r, a100_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &a100,
            &opts,
            &env,
            SearchHooks::default(),
        );
        assert!(!a100_rep.warm_start, "a different kernel must not warm-hit");
        assert_eq!(a100_rep.warm_hits, 0);
        assert_eq!(env.warm.as_ref().unwrap().len(), 2, "separate records");
        let (ref_r, _) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &a100,
            &opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
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
            search(
                m,
                &cluster,
                Method::BreadthFirst,
                16,
                &k,
                &opts,
                &env,
                SearchHooks::default(),
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
        let (r, report) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            SearchHooks {
                cancel: Some(&cancel),
                ..SearchHooks::default()
            },
        );
        assert!(r.is_none(), "no chunk ran");
        assert!(report.cancelled);
        assert_eq!(report.simulated, 0);
        assert!(report.robust_tflops.is_none(), "probe skipped on cancel");

        // A cancelled cold run must not poison the warm store with a
        // partial record.
        let env = SearchEnv::service();
        let (_, rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            SearchHooks {
                cancel: Some(&cancel),
                ..SearchHooks::default()
            },
        );
        assert!(rep.cancelled);
        assert!(env.warm.as_ref().unwrap().is_empty());
    }

    #[test]
    fn candidate_budget_truncates_deterministically() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let full = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
            &SearchEnv::private(),
            SearchHooks::default(),
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
            let (r, rep) = search(
                &model,
                &cluster,
                Method::BreadthFirst,
                16,
                &k,
                &opts,
                &SearchEnv::private(),
                SearchHooks::default(),
            );
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
        let (_, rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &env,
            SearchHooks::default(),
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
        let (r, rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
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
        let (r, _) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            SearchHooks {
                on_improve: Some(&mut sink),
                ..SearchHooks::default()
            },
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
        let (clean_r, clean_rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &quick_opts(),
            &SearchEnv::private(),
            SearchHooks::default(),
        );
        let opts = SearchOptions {
            perturbation: Perturbation::with_seed(0xDEAD),
            ..quick_opts()
        };
        let (r, rep) = search(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &k,
            &opts,
            &SearchEnv::private(),
            SearchHooks::default(),
        );
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
