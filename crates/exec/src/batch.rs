//! Topology classes: one replay workspace per shape class, one
//! (kind × resource) duration table per member.
//!
//! Two enumerated candidates that share a schedule and the same set of
//! structural lowering decisions produce op graphs that are *identical
//! except for durations*: the same resources in the same creation order,
//! the same ops in the same insertion order on the same streams, the
//! same dependency edges. `ClassKey` names that equivalence class —
//! every input [`crate::lower::lower_with_schedule`] uses to decide
//! *structure* (never timing):
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
//! share one topology. A send's kind says which of its device's two
//! stage pairs it crosses, so a member's durations follow from
//! per-device duration vectors just as they do from the scalar table.
//!
//! So the search builds **one replay workspace per class**, straight
//! from the key and its schedule: [`ClassBase::build`] walks the
//! lowering's op-emission rules (`crate::lower::emit_ops`, the same
//! walk that builds an `OpGraph` for [`crate::lower`]) straight into
//! the solver's index — each op's resource, its duration *kind*
//! (fwd/bwd/forward send/backward send/gather/reduce) and its forward
//! dependency row, with a slot reserved at emission for each late
//! cross-device dep and filled when the walk wires it — and
//! [`bfpp_sim::ReplayWorkspace::discover`] validates the rows and
//! records the replay trace with one discovery pass. No graph, resource
//! name, tag, memory annotation, duration or reverse index is built for
//! a class.
//!
//! A member is then a **duration table**, not a per-op row: an op's
//! base duration depends only on its kind and its resource (the
//! resource fixes the device, and the kind and device fix a send's
//! pair), and so does a randomness-free perturbation's factor (the
//! device's straggler multiplier for kernels, the link degradation for
//! transfers). So [`ClassBase::fill_tables`] writes 6 × R cells per
//! member, R being the class's streams (at most three per pipeline
//! device), and the solver's allocation-free trace replay reads op
//! `i`'s duration from cell `kind[i] · R + resource[i]`
//! ([`bfpp_sim::ReplayWorkspace::replay_table_into`]). Under per-op
//! randomness (jitter, stalls) the cells hold base durations and the
//! replay draws each op from its cell with the op's insertion index as
//! salt, as lowering does. Both halves are bit-identical to lowering and
//! solving the member (the table, expanded per op, reproduces
//! [`crate::LoweredGraph::perturbed_durations`] exactly — same per-op
//! salt, same class/device factors — and trace replay is bit-identical
//! to a full solve), which is what lets the batched search return
//! exactly the same winners and counters.
//!
//! A `ClassBase` is *graph-free* by construction: it keeps only the
//! replay workspace (with each op's kind) and the few per-class scalars
//! the measurement layer needs. That makes it independent of model,
//! cluster and kernel — a base built for a key is valid for **any**
//! request that produces that key, so the process-wide [`ClassCache`]
//! can share bases across methods, batch sizes, models and planner
//! requests. Results never depend on cache contents, only on the key —
//! a hit merely skips the class build. A base is also immutable once
//! built: replay writes its timing into per-thread buffers, so any
//! number of threads replay one shared base at once, with no lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bfpp_cluster::ClusterSpec;
use bfpp_core::{Schedule, ScheduleKind};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, ParallelConfig, Placement};
use bfpp_sim::{
    Draws, DurationTable, OpClass, Perturbation, ReplayWorkspace, ResourceId, SimDuration,
    SlotDraw, SolveStats,
};

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

// Per-op duration kinds of a topology class: each is a row of a
// member's (kind × resource) duration table. Fwd and bwd are the compute
// kinds. A forward send crosses the stage pair its device leads,
// `(dev, dev + 1)`; a backward send the pair below, `(dev - 1, dev)`
// (both mod N_PP, the pairs `emit_ops` charges).
const KIND_FWD: u8 = 0;
const KIND_BWD: u8 = 1;
const KIND_SEND_UP: u8 = 2;
const KIND_SEND_DOWN: u8 = 3;
const KIND_GATHER: u8 = 4;
const KIND_REDUCE: u8 = 5;
const KINDS: [u8; 6] = [
    KIND_FWD,
    KIND_BWD,
    KIND_SEND_UP,
    KIND_SEND_DOWN,
    KIND_GATHER,
    KIND_REDUCE,
];

/// The perturbation classes, in the row order of
/// [`MemberTables`]' factors.
const CLASSES: [OpClass; 2] = [OpClass::Communication, OpClass::Compute];

/// The perturbation class of an op of `kind` (kernels are compute,
/// everything else communication), as its index in [`CLASSES`].
fn op_class(kind: u8) -> usize {
    (kind <= KIND_BWD) as usize
}

/// The [`OpSink`] of a class build: plain stream and op indices, the
/// forward dependency rows [`ReplayWorkspace::discover`] takes, and each
/// op's kind — no graph, names, tags, durations or memory effects. Each
/// op's row is its emission deps followed by one slot per late dep,
/// which [`OpSink::dep`] fills; a slot left unfilled keeps `UNFILLED`,
/// which discovery rejects as out of range.
struct ClassSink {
    resource_device: Vec<u32>,
    op_resource: Vec<u32>,
    dep_indptr: Vec<u32>,
    deps: Vec<u32>,
    kinds: Vec<u8>,
}

/// A reserved late-dep slot that [`OpSink::dep`] has not filled yet.
const UNFILLED: u32 = u32::MAX;

impl OpSink for ClassSink {
    type Op = u32;
    type Stream = u32;

    fn stream(&mut self, dev: u32, _label: &'static str) -> u32 {
        self.resource_device.push(dev);
        self.resource_device.len() as u32 - 1
    }

    fn op(
        &mut self,
        stream: u32,
        dev: u32,
        _tag: OpTag,
        charge: Charge,
        deps: &[u32],
        late_deps: u32,
    ) -> u32 {
        let op = self.op_resource.len() as u32;
        self.op_resource.push(stream);
        self.deps.extend_from_slice(deps);
        self.deps
            .resize(self.deps.len() + late_deps as usize, UNFILLED);
        self.dep_indptr.push(self.deps.len() as u32);
        self.kinds.push(match charge {
            Charge::Fwd => KIND_FWD,
            Charge::Bwd => KIND_BWD,
            Charge::P2p { pair } if pair == dev => KIND_SEND_UP,
            Charge::P2p { .. } => KIND_SEND_DOWN,
            Charge::Gather => KIND_GATHER,
            Charge::Reduce { .. } => KIND_REDUCE,
        });
        op
    }

    fn dep(&mut self, op: u32, dep: u32) {
        let row = self.dep_indptr[op as usize] as usize..self.dep_indptr[op as usize + 1] as usize;
        let slot = self.deps[row]
            .iter_mut()
            .find(|d| **d == UNFILLED)
            .expect("a late dep fills a slot reserved when its op was emitted");
        *slot = dep;
    }
}

/// The duration tables of a class group's members under one
/// perturbation ([`ClassBase::fill_tables`]), reused across groups and
/// classes. A table has one cell per (kind, resource) — 6 × R cells, R
/// being the class's streams, at most three per pipeline device — so a
/// group's tables stay small whatever its op count.
#[derive(Debug)]
pub struct MemberTables<'p> {
    perturbation: &'p Perturbation,
    /// The perturbation's hoisted draws, under per-op randomness.
    draws: Option<Draws<'p>>,
    /// Without randomness, each resource's class factor: a row for
    /// communication, then one for compute (R each, [`op_class`]
    /// order). The same for every member of a class.
    factors: Vec<f64>,
    /// Whether each factor row is all ones (its cells keep their base).
    unit_rows: [bool; 2],
    /// Under randomness, each cell's slot draw: likewise per class.
    slots: Vec<SlotDraw>,
    /// The members' tables, back to back.
    cells: Vec<SimDuration>,
    /// Cells per table.
    len: usize,
}

impl<'p> MemberTables<'p> {
    /// Empty tables for members re-timed under `perturbation`; its
    /// fingerprint is hashed here, once.
    pub fn new(perturbation: &'p Perturbation) -> Self {
        MemberTables {
            perturbation,
            draws: perturbation.draws(),
            factors: Vec::new(),
            unit_rows: [true; 2],
            slots: Vec::new(),
            cells: Vec::new(),
            len: 0,
        }
    }

    /// Member `k`'s table (in the order [`ClassBase::fill_tables`] took
    /// the members), as the replay reads it.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k + 1` tables are filled.
    pub fn member(&self, k: usize) -> DurationTable<'_> {
        DurationTable {
            cells: &self.cells[k * self.len..(k + 1) * self.len],
            draws: self.draws.map(|draws| (draws, self.slots.as_slice())),
        }
    }
}

/// One topology class's shared evaluation state: the replay workspace
/// (dependency index + replay trace of the class topology, each op's
/// duration kind) and the per-class scalars measurement needs.
/// Built straight from the key and its schedule — no graph ever exists —
/// which is what makes a base model/cluster/kernel-independent and
/// shareable process-wide. Nothing in it changes after the build, so
/// threads share it through an `Arc` without a lock.
#[derive(Debug)]
pub struct ClassBase {
    n_ops: usize,
    kind: ScheduleKind,
    peak_checkpoints: u32,
    /// Whether the class's DP reduce is an all-reduce (`DP_0`) rather
    /// than a reduce-scatter (`DP_PS`/`DP_FS`) — decides the charge of
    /// kind `KIND_REDUCE`.
    reduce_is_all_reduce: bool,
    compute_resources: Vec<ResourceId>,
    resource_device: Vec<u32>,
    /// The dependency index, the replay trace, and each op's duration
    /// kind (`KIND_*`, [`ReplayWorkspace::op_kinds`]). An op's resource
    /// ([`ReplayWorkspace::op_resources`]) gives its device, and its
    /// kind its perturbation class ([`op_class`]); a send's pair follows
    /// from its kind and device ([`ClassBase::charge`]).
    workspace: ReplayWorkspace,
}

impl ClassBase {
    /// Builds the class base of `key` from its schedule (generated for
    /// the key's kind, placement and micro-batch count): one walk of the
    /// lowering's op-emission rules into the dependency index, then the
    /// one discovery pass that records the replay trace. Returns `None` if
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
        let mut sink = ClassSink {
            resource_device: Vec::new(),
            op_resource: Vec::new(),
            dep_indptr: vec![0],
            deps: Vec::new(),
            kinds: Vec::new(),
        };
        let compute = emit_ops(schedule, key.shape, &mut sink);
        let ClassSink {
            mut resource_device,
            mut op_resource,
            mut dep_indptr,
            mut deps,
            mut kinds,
        } = sink;
        let n_ops = op_resource.len();
        // The rows become the workspace's index as they are, so drop the
        // growth slack of every array the base keeps.
        for v in [
            &mut resource_device,
            &mut op_resource,
            &mut dep_indptr,
            &mut deps,
        ] {
            v.shrink_to_fit();
        }
        kinds.shrink_to_fit();
        let workspace =
            ReplayWorkspace::discover(resource_device.len(), op_resource, dep_indptr, deps)
                .ok()?
                .with_kinds(KINDS.len(), kinds);
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
            workspace,
        })
    }

    /// Ops in the class topology (also the stored size charged against
    /// cache budgets).
    pub fn num_ops(&self) -> usize {
        self.n_ops
    }

    /// The charge rule of an op of kind `kind` on device `dev`: a
    /// forward send crosses pair `dev`, a backward send the pair below,
    /// `dev - 1 mod N_PP` (one compute resource per device).
    fn charge(&self, kind: u8, dev: u32) -> Charge {
        let n_pp = self.compute_resources.len() as u32;
        match kind {
            KIND_FWD => Charge::Fwd,
            KIND_BWD => Charge::Bwd,
            KIND_SEND_UP => Charge::P2p { pair: dev },
            KIND_SEND_DOWN => Charge::P2p {
                pair: (dev + n_pp - 1) % n_pp,
            },
            KIND_GATHER => Charge::Gather,
            _ => Charge::Reduce {
                all_reduce: self.reduce_is_all_reduce,
            },
        }
    }

    /// Fills `tables` with one (kind × resource) duration table per
    /// member, in `members` order. Replaying member `k`'s table
    /// ([`MemberTables::member`]) gives each op exactly the duration
    /// lowering that member under the tables' perturbation would
    /// ([`crate::LoweredGraph::perturbed_durations`] of its clean
    /// lowering): an op's base duration is a function of its kind and
    /// its resource (the resource fixes the device, and the kind and
    /// device a send's pair), and so is its class factor. Without
    /// randomness a cell is that base with that factor applied; under
    /// randomness it is the base, and the replay draws each op from it
    /// with the op's insertion index as salt, as lowering does. What
    /// does not depend on the member — each cell's factor or slot draw —
    /// is computed once per call.
    pub fn fill_tables<'d>(
        &self,
        members: impl IntoIterator<Item = &'d Durations>,
        tables: &mut MemberTables<'_>,
    ) {
        let devices = &self.resource_device;
        let r_count = devices.len();
        tables.len = self.workspace.table_len();
        tables.factors.clear();
        tables.slots.clear();
        match &tables.draws {
            Some(draws) => {
                for kind in KINDS {
                    let class = CLASSES[op_class(kind)];
                    tables
                        .slots
                        .extend(devices.iter().map(|&dev| draws.slot(class, dev)));
                }
            }
            None => {
                for (row, class) in CLASSES.into_iter().enumerate() {
                    let p = tables.perturbation;
                    tables
                        .factors
                        .extend(devices.iter().map(|&dev| p.class_factor(class, dev)));
                    tables.unit_rows[row] =
                        tables.factors[row * r_count..].iter().all(|&f| f == 1.0);
                }
            }
        }
        tables.cells.clear();
        for d in members {
            for kind in KINDS {
                let start = tables.cells.len();
                // A member with per-device durations reads each cell's
                // base time through the same rule lowering uses, on the
                // cell's device; a homogeneous one charges a kind the
                // same on every device.
                if d.per_device.is_some() {
                    tables.cells.extend(
                        devices
                            .iter()
                            .map(|&dev| self.charge(kind, dev).base(d, dev)),
                    );
                } else {
                    let base = self.charge(kind, 0).base(d, 0);
                    tables.cells.resize(start + r_count, base);
                }
                let row = op_class(kind);
                if tables.draws.is_none() && !tables.unit_rows[row] {
                    let factors = &tables.factors[row * r_count..(row + 1) * r_count];
                    for (cell, &factor) in tables.cells[start..].iter_mut().zip(factors) {
                        *cell = Perturbation::apply_factor(*cell, factor);
                    }
                }
            }
        }
    }

    /// The class's replay workspace, for re-timing member tables
    /// ([`ReplayWorkspace::replay_table_into`]) from any thread.
    pub fn workspace(&self) -> &ReplayWorkspace {
        &self.workspace
    }

    /// Re-times the class trace under one member's duration table and
    /// derives the paper's metrics — bit-identical to lowering and fully
    /// solving that member. `stats` is caller scratch reused across
    /// members.
    pub(crate) fn measure(
        &self,
        stats: &mut SolveStats,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        cfg: &ParallelConfig,
        table: DurationTable<'_>,
    ) -> Measurement {
        self.workspace.replay_table_into(table, stats);
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
/// `ClassKey` and bounded by total stored ops (FIFO eviction). It is the
/// one store of bases: cold and warm searches alike resolve a class here
/// or build it and offer it here. Because a base is
/// model/cluster/kernel-independent, one cache is sound for the whole
/// process ([`ClassCache::global`]): any correctly built base for a key
/// is interchangeable, so sharing changes speed, never results.
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
        // 8M stored ops, sized to whole working sets, measured on a
        // 2-core host: `reproduce_all` resolves 0.98M ops (715 classes),
        // the jittered 1T/32×A100 request 3.37M (132), and a warm
        // what-if round over the Fig. 5a panel and its fleet 3.43M
        // (754), of which a 2M-op cache rebuilt ~500 classes per round.
        // A base holds ~17 bytes per op (resource, row pointer, about
        // one dependency and trace entry: 16; duration kind: 1), so the
        // cache tops out near 136 MB.
        ClassCache::with_max_ops(8_000_000)
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
    use crate::measure::{measure_lowered, measure_stats};
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
        // The class matches what the lowered graph's own ops say: same
        // op count, kinds and device map; each op's resource, and the
        // perturbation class and send pair derived from its kind and
        // resource, are the graph's; and each op's dependency row, late
        // slots filled, is the graph's, in `add_dep` order.
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
                    Direction::Forward => (KIND_FWD, None),
                    Direction::Backward => (KIND_BWD, None),
                },
                OpTag::PpSend { dir, .. } => match dir {
                    Direction::Forward => (KIND_SEND_UP, Some(dev)),
                    Direction::Backward => (KIND_SEND_DOWN, Some((dev + n_pp - 1) % n_pp)),
                },
                OpTag::DpGather { .. } => (KIND_GATHER, None),
                OpTag::DpReduce { .. } => (KIND_REDUCE, None),
            };
            let class = match op.tag() {
                OpTag::Compute(_) => OpClass::Compute,
                _ => OpClass::Communication,
            };
            let kinds = base.workspace().op_kinds();
            let resource = base.workspace().op_resources()[i];
            let derived_dev = base.resource_device[resource as usize];
            let derived_pair = match base.charge(kinds[i], derived_dev) {
                Charge::P2p { pair } => Some(pair),
                _ => None,
            };
            assert_eq!(kinds[i], kind, "op {i}");
            assert_eq!(derived_pair, pair, "op {i}");
            assert_eq!(
                (resource as usize, CLASSES[op_class(kinds[i])]),
                (op.resource().index(), class),
                "op {i}"
            );
        }
        let kinds = base.workspace().op_kinds();
        assert!(
            kinds.contains(&KIND_SEND_UP) && kinds.contains(&KIND_SEND_DOWN),
            "the class must emit both send kinds"
        );
        let replay = base.workspace();
        assert_eq!(replay.num_ops(), g.num_ops());
        for id in g.op_ids() {
            let row: Vec<u32> = g.deps_of(id).iter().map(|d| d.index() as u32).collect();
            assert_eq!(
                replay.deps_of(id.index()),
                row.as_slice(),
                "op {}",
                id.index()
            );
        }
    }

    #[test]
    fn batched_member_measurement_is_bit_identical_to_lowering() {
        // Build the base from the key alone, then measure a member
        // through the batch path and through a full lower + solve under
        // every perturbation. Must agree bit-for-bit: this is where
        // per-member measurement equality is pinned.
        let b = candidate(2, 4, 2, 12);
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let (cfg_b, d_b, kb, lb) = class_parts(&b);

        let base = build(&kb);
        let mut row = Vec::new();
        for p in [
            Perturbation::none(),
            Perturbation::reference_probe(),
            Perturbation::with_seed(7)
                .with_straggler(3, 1.4)
                .with_jitter(0.05),
            Perturbation::with_seed(23)
                .with_straggler(5, 1.2)
                .with_jitter(0.5)
                .with_stalls(0.1, SimDuration::from_micros(50)),
        ] {
            let mut tables = MemberTables::new(&p);
            base.fill_tables([&d_b], &mut tables);
            let table = tables.member(0);
            // The table's per-op durations, drawn as the replay draws
            // them, equal the perturbed row of b's own clean lowering.
            base.workspace().table_durations(table, &mut row);
            let mut expect = Vec::new();
            lb.perturbed_durations(&p, &mut expect);
            assert_eq!(row, expect, "{p:?}");

            let mut stats = empty_stats();
            let m = base.measure(&mut stats, &model, &cluster, &cfg_b, table);
            let mut solver = Solver::new(&lb.graph);
            let full = solver.solve_stats_with_durations(&row).unwrap();
            assert_eq!(stats.makespan, full.makespan, "{p:?}");
            assert_eq!(stats.busy, full.busy, "{p:?}");
            assert_eq!(
                m,
                measure_stats(&model, &cluster, &cfg_b, &lb, &full),
                "{p:?}"
            );
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
