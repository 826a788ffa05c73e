//! Topology classes: one replay workspace per shape class, SoA duration
//! batches.
//!
//! Two enumerated candidates that share a schedule and the same set of
//! structural lowering decisions produce op graphs that are *identical
//! except for durations*: the same resources in the same creation order,
//! the same ops in the same insertion order on the same streams, the
//! same dependency edges. `ClassKey` names that equivalence class —
//! every input [`crate::lower::lower_with_schedule_perturbed`] uses to
//! decide *structure* (never timing):
//!
//! * the schedule, i.e. `(kind, placement, num_microbatches)`;
//! * which communication classes overlap (`OverlapConfig::dp`/`pp`
//!   decide whether DP/PP streams exist or alias the compute stream);
//! * the sharding variant and whether data parallelism is active
//!   (`n_dp > 1`), which decide gather/reduce emission;
//! * whether the stage-boundary transfer rounds to zero (the only
//!   duration value that gates op *emission*).
//!
//! Everything else — model, cluster, kernel, tensor width, micro-batch
//! size, perturbation, **and heterogeneity** — only changes durations.
//! A heterogeneous fleet (or a non-uniform layer split) gives every
//! device its own kernel and link times, but the lowered *structure* is
//! untouched: send emission is gated class-wide (ops exist unless every
//! stage-pair transfer rounds to zero — `Durations::emits_sends`), so
//! a mixed-fleet member and a homogeneous member with the same key still
//! share one topology. The template carries the per-op pair index so a
//! member's row can be filled from per-device duration vectors just as
//! cheaply as from the scalar table.
//!
//! So the search builds **one replay workspace per class**, straight
//! from the key and its schedule: [`ClassBase::build`] walks the
//! lowering's op-emission rules (`crate::lower::emit_ops`, the same
//! walk that builds an `OpGraph` for [`crate::lower`]) into flat
//! per-op resource and dependency arrays, and
//! [`bfpp_sim::ReplayWorkspace::discover`] turns those into the
//! solver's CSR index and records its replay trace with one discovery
//! solve. No graph, resource name, tag, memory annotation or duration
//! is built for a class. Every member is then evaluated from a
//! structure-of-arrays duration batch: a `BatchTemplate` maps each op
//! index to its duration *kind* (fwd/bwd/p2p/gather/reduce) and its
//! perturbation slot, so filling a member's row is two table lookups per
//! op, and re-timing it is the solver's allocation-free trace replay.
//! Both halves are bit-identical to lowering and solving the member
//! (`fill_row` reproduces lowering's perturbed durations exactly — same
//! per-op salt, same class/device factors — and trace replay is
//! bit-identical to a full solve), which is what lets the batched search
//! return exactly the same winners and counters.
//!
//! A `ClassBase` is *graph-free* by construction: it keeps only the
//! replay workspace, the template, and the few per-class scalars the
//! measurement layer needs. That makes it independent of model, cluster
//! and kernel — a base built for a key is valid for **any** request that
//! produces that key, so the process-wide [`ClassCache`] can share bases
//! across methods, batch sizes, models and planner requests. Results
//! never depend on cache contents, only on the key — a hit merely skips
//! the class build.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, ParallelConfig, Placement};
use bfpp_sim::{OpClass, Perturbation, ReplayWorkspace, ResourceId, SimDuration, SolveStats};

use crate::candidates::Candidate;
use crate::lower::{emit_ops, Charge, Durations, OpSink, OpTag, Shape};
use crate::measure::{measure_from_parts, Measurement};
use crate::overlap::OverlapConfig;

/// The structural identity of a lowered graph: candidates with equal
/// keys lower to byte-identical topologies (resources, ops, edges,
/// queue orders) and differ only in op durations. See the module docs
/// for why exactly these fields and no others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey {
    kind: ScheduleKind,
    placement: Placement,
    num_microbatches: u32,
    /// DP mode and activity, stream overlap, and the send gate. The send
    /// gate is the one duration predicate that gates op emission.
    /// Lowering gates sends class-wide (any non-zero pair emits the full
    /// send set; zero-duration sends on fast pairs are harmless no-ops),
    /// so it stays a single bit under heterogeneous fabrics instead of a
    /// per-pair mask.
    shape: Shape,
}

impl ClassKey {
    /// The topology class of `cand` under `overlap`, given its base
    /// durations `d` (needed only for the send gate).
    pub fn of(cand: &Candidate, overlap: OverlapConfig, d: &Durations) -> ClassKey {
        ClassKey {
            kind: cand.kind,
            placement: cand.placement,
            num_microbatches: cand.batch.num_microbatches,
            shape: Shape::of(&cand.config(), overlap, d),
        }
    }

    /// The schedule kind of every member — the granularity of
    /// [`ClassCache::invalidate_kind`].
    pub fn schedule_kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The placement of every member (with the kind and micro-batch
    /// count, what picks the class's schedule).
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The micro-batch count of every member.
    pub fn num_microbatches(&self) -> u32 {
        self.num_microbatches
    }
}

/// Per-op duration recipe of a topology class, structure-of-arrays: for
/// op `i`, `kinds[i]` indexes a 5-entry per-candidate duration table
/// (fwd, bwd, p2p, dp-gather, dp-reduce) and `slots[i]` is the
/// perturbation slot `2 * resource + is_compute` — the same dense
/// convention as `LoweredGraph::op_perturb`, so a row fill is two
/// indexed loads per op with no branching on `Op` structs. For members
/// with per-device durations the same arrays still apply — the device
/// comes from `slots[i] >> 1` via `resource_device`, and `p2p_pair[i]`
/// names the stage-pair link a send op crosses (the pair the walk in
/// `crate::lower` charges).
#[derive(Debug)]
struct BatchTemplate {
    kinds: Vec<u8>,
    slots: Vec<u32>,
    p2p_pair: Vec<u32>,
}

const KIND_FWD: u8 = 0;
const KIND_BWD: u8 = 1;
const KIND_P2P: u8 = 2;
const KIND_GATHER: u8 = 3;
const KIND_REDUCE: u8 = 4;

/// The [`OpSink`] of a class build: plain stream and op indices, the
/// flat resource/edge arrays [`ReplayWorkspace::discover`] takes, and
/// the template — no graph, names, tags, durations or memory effects.
#[derive(Default)]
struct ClassSink {
    resource_device: Vec<u32>,
    op_resource: Vec<u32>,
    deps: Vec<(u32, u32)>,
    kinds: Vec<u8>,
    slots: Vec<u32>,
    p2p_pair: Vec<u32>,
}

impl OpSink for ClassSink {
    type Op = u32;
    type Stream = u32;

    fn stream(&mut self, dev: u32, _label: &'static str) -> u32 {
        self.resource_device.push(dev);
        self.resource_device.len() as u32 - 1
    }

    fn op(&mut self, stream: u32, _dev: u32, _tag: OpTag, charge: Charge, deps: &[u32]) -> u32 {
        let op = self.op_resource.len() as u32;
        self.op_resource.push(stream);
        for &dep in deps {
            self.deps.push((op, dep));
        }
        let (kind, pair) = match charge {
            Charge::Fwd => (KIND_FWD, 0),
            Charge::Bwd => (KIND_BWD, 0),
            Charge::P2p { pair } => (KIND_P2P, pair),
            Charge::Gather => (KIND_GATHER, 0),
            Charge::Reduce { .. } => (KIND_REDUCE, 0),
        };
        self.kinds.push(kind);
        self.slots
            .push(2 * stream + (charge.class() == OpClass::Compute) as u32);
        self.p2p_pair.push(pair);
        op
    }

    fn dep(&mut self, op: u32, dep: u32) {
        self.deps.push((op, dep));
    }
}

/// One topology class's shared evaluation state: the replay workspace
/// (CSR index + replay trace of the class topology), the SoA duration
/// template, and the per-class scalars measurement needs. Built straight
/// from the key and its schedule — no graph ever exists — which is what
/// makes a base model/cluster/kernel-independent and shareable
/// process-wide.
#[derive(Debug)]
pub struct ClassBase {
    n_ops: usize,
    kind: ScheduleKind,
    peak_checkpoints: u32,
    /// Whether the class's DP reduce is an all-reduce (`DP_0`) rather
    /// than a reduce-scatter (`DP_PS`/`DP_FS`) — decides table entry 4.
    reduce_is_all_reduce: bool,
    compute_resources: Vec<ResourceId>,
    resource_device: Vec<u32>,
    template: BatchTemplate,
    /// The workspace never leaves this lock: replay mutates only its
    /// timing buffers, so concurrent evaluators of the same class
    /// serialize briefly instead of rebuilding the CSR index.
    replay: Mutex<ReplayWorkspace>,
}

impl ClassBase {
    /// Builds the class base of `key` from its schedule (generated for
    /// the key's kind, placement and micro-batch count): one walk of the
    /// lowering's op-emission rules into flat arrays, then the one
    /// discovery solve that records the replay trace. Returns `None` if
    /// the topology deadlocks — in which case lowering and solving *any*
    /// member fails identically (deadlock is a property of the topology,
    /// not of durations).
    pub fn build(key: &ClassKey, schedule: &Schedule) -> Option<ClassBase> {
        debug_assert_eq!(
            (
                schedule.kind(),
                schedule.placement(),
                schedule.num_microbatches()
            ),
            (key.kind, key.placement, key.num_microbatches),
            "schedule generated for the class"
        );
        let mut sink = ClassSink::default();
        let compute = emit_ops(schedule, key.shape, &mut sink);
        let ClassSink {
            mut resource_device,
            op_resource,
            deps,
            mut kinds,
            mut slots,
            mut p2p_pair,
        } = sink;
        let n_ops = op_resource.len();
        let replay = ReplayWorkspace::discover(resource_device.len(), op_resource, &deps).ok()?;
        resource_device.shrink_to_fit();
        kinds.shrink_to_fit();
        slots.shrink_to_fit();
        p2p_pair.shrink_to_fit();
        Some(ClassBase {
            n_ops,
            kind: key.kind,
            peak_checkpoints: schedule.peak_checkpoints(),
            reduce_is_all_reduce: key.shape.dp == DataParallelism::Unsharded,
            compute_resources: compute
                .into_iter()
                .map(|r| ResourceId::from_index(r as usize))
                .collect(),
            resource_device,
            template: BatchTemplate {
                kinds,
                slots,
                p2p_pair,
            },
            replay: Mutex::new(replay),
        })
    }

    /// Ops in the class topology (also the stored size charged against
    /// cache budgets).
    pub fn num_ops(&self) -> usize {
        self.n_ops
    }

    /// The charge rule of template kind `kind` (pair `pair` for sends).
    fn charge(&self, kind: u8, pair: u32) -> Charge {
        match kind {
            KIND_FWD => Charge::Fwd,
            KIND_BWD => Charge::Bwd,
            KIND_P2P => Charge::P2p { pair },
            KIND_GATHER => Charge::Gather,
            _ => Charge::Reduce {
                all_reduce: self.reduce_is_all_reduce,
            },
        }
    }

    /// Fills one member's duration row, bit-identical to what lowering
    /// that member under `perturbation` would produce
    /// ([`crate::LoweredGraph::perturbed_durations`] of its clean
    /// lowering): the same per-op salt (insertion index), the same
    /// class/device factor for the randomness-free fast path. `factors`
    /// is caller scratch reused across rows.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the class's op count.
    pub fn fill_row(
        &self,
        d: &Durations,
        perturbation: &Perturbation,
        factors: &mut Vec<f64>,
        out: &mut [SimDuration],
    ) {
        assert_eq!(out.len(), self.n_ops, "row sized for this topology");
        let kinds = &self.template.kinds;
        let slots = &self.template.slots;
        let pairs = &self.template.p2p_pair;
        // Homogeneous members charge every op from a 5-entry table (no
        // device or pair enters a scalar duration). A member with
        // per-device durations reads its base time through the same
        // rule lowering uses: the op's device (from its perturbation
        // slot) for kernels and collectives, its stage-pair index for
        // sends. The table lookup stays inline in the row loops; only
        // the per-device rule is a call.
        let table = [KIND_FWD, KIND_BWD, KIND_P2P, KIND_GATHER, KIND_REDUCE]
            .map(|kind| self.charge(kind, 0).base(d, 0));
        let hetero = d.per_device.is_some();
        let per_device_base = |i: usize| -> SimDuration {
            let dev = self.resource_device[(slots[i] >> 1) as usize];
            self.charge(kinds[i], pairs[i]).base(d, dev)
        };
        if !perturbation.has_randomness() {
            factors.clear();
            for &dev in &self.resource_device {
                factors.push(perturbation.class_factor(OpClass::Communication, dev));
                factors.push(perturbation.class_factor(OpClass::Compute, dev));
            }
            for (i, slot) in out.iter_mut().enumerate() {
                let base = if hetero {
                    per_device_base(i)
                } else {
                    table[kinds[i] as usize]
                };
                *slot = Perturbation::apply_factor(base, factors[slots[i] as usize]);
            }
            return;
        }
        for (i, out_slot) in out.iter_mut().enumerate() {
            let slot = slots[i];
            let class = if slot & 1 == 1 {
                OpClass::Compute
            } else {
                OpClass::Communication
            };
            let dev = self.resource_device[(slot >> 1) as usize];
            let base = if hetero {
                per_device_base(i)
            } else {
                table[kinds[i] as usize]
            };
            *out_slot = perturbation.perturb(base, class, dev, i as u64);
        }
    }

    /// Checks out the class's replay workspace for a run of
    /// [`ReplayWorkspace::replay_stats_into`] (or `measure_row`) calls —
    /// lock once per member batch, not per row.
    pub fn lock_replay(&self) -> MutexGuard<'_, ReplayWorkspace> {
        match self.replay.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Re-times the class trace under one member's duration row and
    /// derives the paper's metrics — bit-identical to lowering and fully
    /// solving that member. `stats` is caller scratch reused across rows.
    pub(crate) fn measure_row(
        &self,
        replay: &mut ReplayWorkspace,
        stats: &mut SolveStats,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        cfg: &ParallelConfig,
        row: &[SimDuration],
    ) -> Measurement {
        replay.replay_stats_into(row, stats);
        let compute_busy = stats
            .utilization_over(self.compute_resources.iter().copied())
            .mean;
        measure_from_parts(
            model,
            cluster,
            cfg,
            self.kind,
            self.peak_checkpoints,
            stats.makespan,
            compute_busy,
        )
    }
}

struct ClassEntries {
    map: HashMap<ClassKey, Arc<ClassBase>>,
    /// Insertion order for FIFO eviction (deterministic, unlike
    /// hash-map iteration order).
    order: Vec<ClassKey>,
    ops_held: u64,
}

/// A bounded, concurrency-safe store of topology-class bases, keyed by
/// `ClassKey` and bounded by total stored ops (FIFO eviction). Because
/// a base is model/cluster/kernel-independent, one cache is sound for
/// the whole process ([`ClassCache::global`]): any correctly built base
/// for a key is interchangeable, so sharing changes speed, never
/// results.
pub struct ClassCache {
    entries: Mutex<ClassEntries>,
    max_ops: u64,
    /// Lifetime lookup traffic, for hit-rate telemetry. Diagnostic
    /// only: two requests racing on a cold key can both count a miss,
    /// so these are excluded from any bit-stability guarantee.
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ClassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassCache")
            .field("classes", &self.len())
            .finish_non_exhaustive()
    }
}

impl Default for ClassCache {
    fn default() -> Self {
        // ~2M stored ops: hundreds of search-scale classes. A base holds
        // ~33 bytes per op (CSR index, replay trace and timing buffer:
        // 24; duration template: 9), so the cache tops out near 66 MB.
        ClassCache::with_max_ops(2_000_000)
    }
}

impl ClassCache {
    /// A cache with the default op budget.
    pub fn new() -> Self {
        ClassCache::default()
    }

    /// A cache bounded to `max_ops` total stored topology ops.
    pub fn with_max_ops(max_ops: u64) -> Self {
        ClassCache {
            entries: Mutex::new(ClassEntries {
                map: HashMap::new(),
                order: Vec::new(),
                ops_held: 0,
            }),
            max_ops: max_ops.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache [`crate::SearchEnv`] defaults to.
    pub fn global() -> &'static Arc<ClassCache> {
        static GLOBAL: OnceLock<Arc<ClassCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(ClassCache::new()))
    }

    pub(crate) fn lookup(&self, key: &ClassKey) -> Option<Arc<ClassBase>> {
        let found = self.lock().map.get(key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Lifetime lookup hits (diagnostic — see the field note on races).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn insert(&self, key: ClassKey, base: Arc<ClassBase>) {
        let ops = base.num_ops() as u64;
        let mut entries = self.lock();
        if entries.map.contains_key(&key) || ops > self.max_ops {
            return;
        }
        entries.map.insert(key, base);
        entries.order.push(key);
        entries.ops_held += ops;
        while entries.ops_held > self.max_ops && entries.order.len() > 1 {
            let evicted = entries.order.remove(0);
            if let Some(base) = entries.map.remove(&evicted) {
                entries.ops_held -= base.num_ops() as u64;
            }
        }
    }

    /// Drops every base whose schedule kind is `kind` — the keyed
    /// quarantine a supervising planner issues when a session using that
    /// kind dies mid-write. Returns how many bases were dropped.
    pub fn invalidate_kind(&self, kind: ScheduleKind) -> usize {
        let mut entries = self.lock();
        let before = entries.map.len();
        entries.map.retain(|k, _| k.schedule_kind() != kind);
        entries.order.retain(|k| k.schedule_kind() != kind);
        entries.ops_held = entries.map.values().map(|b| b.num_ops() as u64).sum();
        before - entries.map.len()
    }

    /// Drops every base.
    pub fn clear(&self) {
        let mut entries = self.lock();
        entries.map.clear();
        entries.order.clear();
        entries.ops_held = 0;
    }

    /// Number of class bases held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no bases.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    fn lock(&self) -> MutexGuard<'_, ClassEntries> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A reusable, initially empty [`SolveStats`] for replay call sites.
pub(crate) fn empty_stats() -> SolveStats {
    SolveStats {
        makespan: SimDuration::ZERO,
        busy: Vec::new(),
        peak_memory: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::SplitStrategy;
    use crate::kernel::KernelModel;
    use crate::lower::{lower, LoweredGraph};
    use crate::measure::measure_lowered;
    use bfpp_cluster::presets;
    use bfpp_core::Direction;
    use bfpp_model::presets as models;
    use bfpp_parallel::{BatchConfig, Grid};
    use bfpp_sim::Solver;

    fn candidate(n_dp: u32, n_tp: u32, s_mb: u32, n_mb: u32) -> Candidate {
        Candidate {
            grid: Grid::new(n_dp, n_tp, 8),
            placement: Placement::looping(8, 8),
            batch: BatchConfig::new(n_mb, s_mb),
            kind: ScheduleKind::BreadthFirst,
            dp: DataParallelism::FullySharded,
            split: SplitStrategy::Uniform,
        }
    }

    fn class_parts(cand: &Candidate) -> (ParallelConfig, Durations, ClassKey, LoweredGraph) {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let k = KernelModel::v100();
        let overlap = OverlapConfig::full();
        let cfg = cand.config();
        let d = Durations::new(&model, &cluster, &cfg, &k, overlap);
        let key = ClassKey::of(cand, overlap, &d);
        let lowered = lower(&model, &cluster, &cfg, cand.kind, overlap, &k).unwrap();
        (cfg, d, key, lowered)
    }

    fn build(key: &ClassKey) -> ClassBase {
        let schedule =
            Schedule::generate(key.kind, key.placement, key.num_microbatches).expect("schedule");
        ClassBase::build(key, &schedule).expect("acyclic")
    }

    #[test]
    fn same_shape_different_widths_share_a_class() {
        // 12 micro-batches on the same 8x8 placement: the tensor width
        // and replica count only move durations, never structure.
        let a = candidate(4, 2, 1, 12);
        let b = candidate(2, 4, 2, 12);
        let (_, _, ka, la) = class_parts(&a);
        let (_, _, kb, lb) = class_parts(&b);
        assert_eq!(ka, kb, "same schedule + gates = same class");
        assert_eq!(la.graph.num_ops(), lb.graph.num_ops());
        // And a different micro-batch count is a different topology.
        let c = candidate(4, 2, 2, 6);
        let (_, _, kc, _) = class_parts(&c);
        assert_ne!(ka, kc);
    }

    #[test]
    fn direct_build_matches_the_lowered_graph() {
        // The class template matches what the lowered graph's own ops
        // say: same op count, kinds, perturbation slots, send pairs and
        // device map.
        let a = candidate(4, 2, 1, 12);
        let (_, _, key, lowered) = class_parts(&a);
        let base = build(&key);
        let g = &lowered.graph;
        assert_eq!(base.num_ops(), g.num_ops());
        assert_eq!(base.resource_device, lowered.resource_device);
        assert_eq!(base.compute_resources, lowered.compute_resources);
        assert_eq!(base.peak_checkpoints, lowered.peak_checkpoints);
        let n_pp = lowered.compute_resources.len() as u32;
        for id in g.op_ids() {
            let op = g.op(id);
            let i = id.index();
            let dev = lowered.resource_device[op.resource().index()];
            let (kind, pair) = match op.tag() {
                OpTag::Compute(act) => match act.dir {
                    Direction::Forward => (KIND_FWD, 0),
                    Direction::Backward => (KIND_BWD, 0),
                },
                OpTag::PpSend { dir, .. } => match dir {
                    Direction::Forward => (KIND_P2P, dev),
                    Direction::Backward => (KIND_P2P, (dev + n_pp - 1) % n_pp),
                },
                OpTag::DpGather { .. } => (KIND_GATHER, 0),
                OpTag::DpReduce { .. } => (KIND_REDUCE, 0),
            };
            let is_compute = matches!(op.tag(), OpTag::Compute(_)) as u32;
            assert_eq!(base.template.kinds[i], kind, "op {i}");
            assert_eq!(base.template.p2p_pair[i], pair, "op {i}");
            assert_eq!(
                base.template.slots[i],
                2 * op.resource().index() as u32 + is_compute,
                "op {i}"
            );
        }
        assert_eq!(base.lock_replay().num_ops(), g.num_ops());
    }

    #[test]
    fn batched_member_measurement_is_bit_identical_to_lowering() {
        // Build the base from the key alone, then measure a member
        // through the batch path and through a full lower + solve. Must
        // agree bit-for-bit.
        let b = candidate(2, 4, 2, 12);
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let (cfg_b, d_b, kb, lb) = class_parts(&b);

        let base = build(&kb);
        let mut row = vec![SimDuration::ZERO; base.num_ops()];
        let mut factors = Vec::new();
        for p in [
            Perturbation::none(),
            Perturbation::reference_probe(),
            Perturbation::with_seed(7)
                .with_straggler(3, 1.4)
                .with_jitter(0.05),
        ] {
            base.fill_row(&d_b, &p, &mut factors, &mut row);
            // Row durations equal a perturbed-duration recompute over
            // b's own lowering (itself tested bit-identical to a
            // perturbed lowering).
            let mut expect = Vec::new();
            lb.perturbed_durations(&p, &mut expect);
            assert_eq!(row, expect, "{p:?}");

            let mut stats = empty_stats();
            let mut replay = base.lock_replay();
            let m = base.measure_row(&mut replay, &mut stats, &model, &cluster, &cfg_b, &row);
            drop(replay);
            let mut solver = Solver::new(&lb.graph);
            let full = solver.solve_stats_with_durations(&row).unwrap();
            assert_eq!(stats.makespan, full.makespan, "{p:?}");
            assert_eq!(stats.busy, full.busy, "{p:?}");
            if p.is_identity() {
                assert_eq!(m, measure_lowered(&model, &cluster, &cfg_b, &lb), "{p:?}");
            }
        }
    }

    #[test]
    fn cache_bounds_evicts_fifo_and_invalidates_by_kind() {
        let a = candidate(4, 2, 1, 12);
        let (_, _, key, _) = class_parts(&a);
        let base = Arc::new(build(&key));

        let cache = ClassCache::with_max_ops(base.num_ops() as u64);
        cache.insert(key, Arc::clone(&base));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key).is_some());
        // Duplicate inserts are no-ops.
        cache.insert(key, Arc::clone(&base));
        assert_eq!(cache.len(), 1);

        // A second class overflows the budget: FIFO evicts the first.
        let c = candidate(4, 2, 2, 6);
        let (_, _, key2, _) = class_parts(&c);
        let base2 = Arc::new(build(&key2));
        cache.insert(key2, base2);
        assert!(cache.lookup(&key).is_none(), "FIFO evicted");
        assert!(cache.lookup(&key2).is_some());

        assert_eq!(cache.invalidate_kind(ScheduleKind::BreadthFirst), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidate_kind(ScheduleKind::BreadthFirst), 0);

        // A base larger than the whole budget is refused outright.
        let tiny = ClassCache::with_max_ops(1);
        tiny.insert(key, base);
        assert!(tiny.is_empty());
        tiny.clear();
    }
}
