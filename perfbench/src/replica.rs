//! The evaluate sub-layers, timed from outside.
//!
//! The engine evaluates a request's survivors by topology class
//! (`bfpp_exec::batch`). Per class it takes the schedule from the
//! planner's schedule cache, lowers one clean representative, builds the
//! solver's CSR index and runs one discovery solve. It then re-times
//! every member by replaying the recorded trace under the member's own
//! duration row, and measures it. [`Replica`] makes those public calls
//! itself on an op's own requests, one span per call:
//!
//! * `Schedule::generate`, once per schedule its schedule map lacks;
//! * `lower_with_schedule`, `Solver::new` (the CSR index) and
//!   `Solver::solve_makespan` (discovery), once per class its class map
//!   lacks;
//! * `SolveScratch::replay_stats_into` and `measure_stats`, once per
//!   member and once for the winner's robustness probe.
//!
//! The schedule and class maps stand in for the planner's schedule cache
//! and the process-wide class cache. The workloads clear them where the
//! engine's caches start empty, and fill them untimed ([`Replica::warm`])
//! where the engine's are already full. The replica enumerates and prunes in
//! the engine's chunk order against its own best-so-far, so it simulates
//! the configs the engine simulates; the engine's own phase histograms
//! time those two steps.
//!
//! Two steps of the engine have no public counterpart: extracting a
//! class's duration template, and filling a member's row from it. The
//! replica takes each member's row from an untimed clean lowering of the
//! member instead (`LoweredGraph::perturbed_durations`, bit-identical to
//! the template fill), and the report leaves the time of those two steps
//! to in-program tracing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use bfpp_analytic::tradeoff::TradeoffModel;
use bfpp_bench::figures::{operating_points, SweepRow};
use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_exec::candidates::enumerate;
use bfpp_exec::prune::prune_reason;
use bfpp_exec::search::Method;
use bfpp_exec::{
    lower, lower_with_schedule, measure_stats, memory_profile, Candidate, KernelModel,
    LoweredGraph, Measurement, OverlapConfig, Perturbation,
};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, ParallelConfig, Placement};
use bfpp_planner::PlanRequest;
use bfpp_sim::{SimDuration, SolveScratch, SolveStats, Solver};

use crate::spans::{maybe_span as span, Tracer};

/// The engine prunes and reduces candidates in chunks of this many.
const EVAL_CHUNK: usize = 32;

/// Calls the replica made, by layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerCalls {
    /// Configs that reached the simulator.
    pub simulated: u64,
    /// Schedules generated.
    pub schedules: u64,
    /// Classes built: each one lowering and one discovery solve.
    pub class_builds: u64,
    /// Ops in those lowerings.
    pub lowered_ops: u64,
    /// Trace replays, each under one filled duration row and followed
    /// by one measurement.
    pub replays: u64,
    /// Event-level memory profiles.
    pub memory_profiles: u64,
}

/// The engine's topology-class key (`bfpp_exec::batch`), from public
/// fields: candidates with equal keys lower to the same op graph up to
/// durations. The engine's one duration-decided bit, whether the
/// lowering emits pipeline sends at all, shows here as the op count,
/// which sends change and nothing else in the key leaves free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    kind: ScheduleKind,
    placement: Placement,
    microbatches: u32,
    dp: DataParallelism,
    dp_active: bool,
    overlap_dp: bool,
    overlap_pp: bool,
    ops: usize,
}

impl ClassKey {
    fn of(cand: &Candidate, overlap: OverlapConfig, ops: usize) -> ClassKey {
        ClassKey {
            kind: cand.kind,
            placement: cand.placement,
            microbatches: cand.batch.num_microbatches,
            dp: cand.dp,
            dp_active: cand.grid.n_dp > 1,
            overlap_dp: overlap.dp,
            overlap_pp: overlap.pp,
            ops,
        }
    }
}

/// Times each evaluate sub-layer on an op's own requests.
pub struct Replica<'t> {
    tracer: &'t Tracer,
    recording: bool,
    schedules: HashMap<(ScheduleKind, Placement, u32), Arc<Schedule>>,
    /// Each class's solver workspace: its CSR index and replay trace.
    classes: HashMap<ClassKey, SolveScratch>,
    /// Clean lowerings of members, kept from [`Replica::warm`] so the
    /// timed requests of a group lower nothing untimed; a timed request
    /// lowers a member it lacks transiently.
    members: HashMap<Candidate, LoweredGraph>,
    row: Vec<SimDuration>,
    stats: SolveStats,
    /// What the replica called so far.
    pub calls: LayerCalls,
}

impl<'t> Replica<'t> {
    /// An empty replica recording into `tracer`: as a fresh process.
    pub fn new(tracer: &'t Tracer) -> Self {
        Replica {
            tracer,
            recording: true,
            schedules: HashMap::new(),
            classes: HashMap::new(),
            members: HashMap::new(),
            row: Vec::new(),
            stats: SolveStats {
                makespan: SimDuration::ZERO,
                busy: Vec::new(),
                peak_memory: None,
            },
            calls: LayerCalls::default(),
        }
    }

    /// Empties every map, as a fresh process with a fresh planner.
    pub fn forget(&mut self) {
        self.schedules.clear();
        self.classes.clear();
        self.members.clear();
    }

    /// Empties the schedule map, as a fresh planner: the engine's
    /// schedule cache belongs to the planner, its class cache to the
    /// process.
    pub fn forget_schedules(&mut self) {
        self.schedules.clear();
    }

    /// Runs `req`'s search untimed and uncounted, filling the maps as
    /// the engine's caches are filled before the op.
    pub fn warm(&mut self, req: &PlanRequest) {
        let calls = self.calls.clone();
        self.recording = false;
        self.search(req);
        self.recording = true;
        self.calls = calls;
    }

    fn tracer(&self) -> Option<&'t Tracer> {
        self.recording.then_some(self.tracer)
    }

    /// Runs `req`'s search layer by layer; returns how many configs it
    /// simulated.
    pub fn search(&mut self, req: &PlanRequest) -> u64 {
        let (model, cluster) = (&req.model, &req.cluster);
        let overlap = req.method.overlap();
        let cands: Vec<Candidate> =
            enumerate(model, cluster, req.method, req.global_batch, &req.opts).collect();
        let speedup = req.opts.perturbation.max_speedup();
        let memory = cluster.min_memory_bytes();
        let mut best: Option<(f64, Candidate)> = None;
        let mut simulated = 0;
        for chunk in cands.chunks(EVAL_CHUNK) {
            // The engine reduces a chunk only after evaluating all of
            // it, so the bound moves between chunks.
            let bound = best.map(|(tflops, _)| tflops);
            let survivors: Vec<Candidate> = chunk
                .iter()
                .filter(|c| {
                    prune_reason(model, cluster, c, overlap, &req.kernel, bound, speedup).is_none()
                })
                .copied()
                .collect();
            simulated += survivors.len() as u64;
            for cand in survivors {
                let Some(m) = self.evaluate(req, &cand, &req.opts.perturbation) else {
                    continue;
                };
                if m.fits(memory) && best.is_none_or(|(b, _)| m.tflops_per_gpu > b) {
                    best = Some((m.tflops_per_gpu, cand));
                }
            }
        }
        if let Some((_, winner)) = best {
            // The robustness probe: one more replay, on the winner's class.
            self.evaluate(req, &winner, &Perturbation::reference_probe());
        }
        self.calls.simulated += simulated;
        simulated
    }

    /// Re-times `cand` under `perturbation` on its class, building the
    /// class first if the map lacks it.
    fn evaluate(
        &mut self,
        req: &PlanRequest,
        cand: &Candidate,
        perturbation: &Perturbation,
    ) -> Option<Measurement> {
        let (model, cluster) = (&req.model, &req.cluster);
        let overlap = req.method.overlap();
        let cfg = cand.config_on(model, cluster);
        // The engine drops a config that fails validation before it
        // groups survivors by class.
        cfg.validate(model, cluster).ok()?;
        let t = self.tracer();
        let Replica {
            recording,
            schedules,
            classes,
            members,
            row,
            stats,
            calls,
            ..
        } = self;
        let lower_member = || lower(model, cluster, &cfg, cand.kind, overlap, &req.kernel).ok();
        if !*recording && !members.contains_key(cand) {
            members.insert(*cand, lower_member()?);
        }
        let transient;
        let member = match members.get(cand) {
            Some(m) => m,
            None => {
                transient = lower_member()?;
                &transient
            }
        };
        // The member's row, as the engine fills it from the class
        // template.
        member.perturbed_durations(perturbation, row);
        let scratch = match classes.entry(ClassKey::of(cand, overlap, row.len())) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(build_class(
                t, schedules, calls, req, &cfg, cand.kind, overlap,
            )?),
        };
        span(t, "SolveScratch::replay_stats_into", || {
            scratch.replay_stats_into(row, stats)
        });
        calls.replays += 1;
        // The member's lowering has its class's schedule kind,
        // checkpoint peak and compute resources: what the engine's
        // measurement reads from the class base.
        Some(span(t, "measure_stats", || {
            measure_stats(model, cluster, &cfg, member, stats)
        }))
    }

    /// Profiles event-level memory for the sweep winners Figure 6's
    /// frontier extrapolates from — the configs `figure6` profiles —
    /// timing only the profile itself.
    pub fn figure6_profiles(
        &mut self,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        rows: &[SweepRow],
        tradeoff: &TradeoffModel,
        cluster_sizes: &[u32],
    ) {
        let kernel = KernelModel::v100();
        let mut done: Vec<(Method, u64)> = Vec::new();
        for method in Method::ALL {
            let points = operating_points(rows, cluster.num_gpus(), method);
            if points.is_empty() {
                continue;
            }
            for p in tradeoff.frontier(&points, cluster_sizes) {
                let winner = rows
                    .iter()
                    .filter(|r| r.method == method)
                    .filter_map(|r| r.result.as_ref().map(|res| (r.batch, res)))
                    .find(|(_, res)| (res.measurement.batch_per_gpu - p.beta).abs() < 1e-9);
                let Some((batch, res)) = winner else { continue };
                if done.contains(&(method, batch)) {
                    continue;
                }
                done.push((method, batch));
                let Ok(lowered) = lower(model, cluster, &res.cfg, res.kind, res.overlap, &kernel)
                else {
                    continue;
                };
                let Ok(timeline) = lowered.graph.solve() else {
                    continue;
                };
                span(self.tracer(), "memory_profile", || {
                    memory_profile(&lowered, &timeline)
                });
                self.calls.memory_profiles += 1;
            }
        }
    }
}

/// Builds a class from its first member, as the engine does on a
/// class-cache miss: schedule (through the schedule map), clean
/// lowering, CSR index and discovery solve. Returns the workspace; the
/// lowering is dropped, as the engine drops it.
fn build_class(
    t: Option<&Tracer>,
    schedules: &mut HashMap<(ScheduleKind, Placement, u32), Arc<Schedule>>,
    calls: &mut LayerCalls,
    req: &PlanRequest,
    cfg: &ParallelConfig,
    kind: ScheduleKind,
    overlap: OverlapConfig,
) -> Option<SolveScratch> {
    let key = (kind, cfg.placement, cfg.batch.num_microbatches);
    let schedule = match schedules.get(&key) {
        Some(s) => Arc::clone(s),
        None => {
            calls.schedules += 1;
            let s = span(t, "Schedule::generate", || {
                Schedule::generate(kind, cfg.placement, cfg.batch.num_microbatches)
            })
            .ok()?;
            Arc::clone(schedules.entry(key).or_insert(Arc::new(s)))
        }
    };
    let lowered = span(t, "exec::lower", || {
        lower_with_schedule(
            &req.model,
            &req.cluster,
            cfg,
            schedule,
            overlap,
            &req.kernel,
        )
    })
    .ok()?;
    calls.class_builds += 1;
    calls.lowered_ops += lowered.graph.num_ops() as u64;
    let mut solver = span(t, "Solver::new", || Solver::new(&lowered.graph));
    span(t, "Solver::solve_makespan", || solver.solve_makespan()).ok()?;
    Some(solver.into_scratch())
}
