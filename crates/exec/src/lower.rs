//! Lowering a training configuration to a `bfpp-sim` operation graph.
//!
//! One pipeline "column" is simulated (data- and tensor-parallel peers
//! are symmetric); each pipeline device contributes three FIFO resources,
//! mirroring the parallel CUDA streams of the paper's Figure 4:
//!
//! * `gpu{d}.compute` — forward/backward kernels (tensor-parallel
//!   all-reduce time is folded in, since it is mostly non-overlapped —
//!   Appendix A.3.3 footnote 9);
//! * `gpu{d}.dp` — data-parallel collectives (gradient reduction, weight
//!   reconstruction);
//! * `gpu{d}.pp` — pipeline stage-boundary transfers.
//!
//! When a class of communication cannot overlap
//! ([`OverlapConfig`]), its operations are placed directly on the compute
//! stream instead, serializing with the kernels — which is exactly what a
//! blocking NCCL call does.
//!
//! Which ops and edges exist is decided in one place, the structural walk
//! `emit_ops`, which hands them to an `OpSink`: here a sink that builds
//! the named, tagged [`OpGraph`] with its memory annotations; in
//! `crate::batch` a graph-free sink that records a topology class's flat
//! arrays. A lowering always carries the base durations: a perturbation
//! is applied afterwards, to a duration row
//! ([`LoweredGraph::perturbed_durations`]).

use std::sync::Arc;

use bfpp_cluster::{ClusterSpec, LinkSpec, NodeId};
use bfpp_collectives::cost;
use bfpp_core::{Action, Direction, Schedule, ScheduleKind, StageRun};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{DataParallelism, LayerSplit, ParallelConfig, RankCoord, StageId};
use bfpp_sim::memprof::{BufferClass, EventEdge, MemEffect, MemorySpec};
use bfpp_sim::{OpClass, OpGraph, OpId, Perturbation, ResourceId, SimDuration};

use crate::kernel::KernelModel;
use crate::measure::SimulateError;
use crate::memory::device_model;
use crate::overlap::OverlapConfig;

/// Metadata attached to every simulated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTag {
    /// A forward or backward kernel of one (micro-batch, stage).
    Compute(Action),
    /// A pipeline stage-boundary transfer leaving `from_stage`.
    PpSend {
        /// Direction of the pass producing the transfer.
        dir: Direction,
        /// Micro-batch being moved.
        microbatch: u32,
        /// The stage whose output is being sent.
        from_stage: StageId,
    },
    /// A data-parallel weight reconstruction (all-gather) for a stage.
    DpGather {
        /// The stage whose weights are gathered.
        stage: StageId,
    },
    /// A data-parallel gradient reduction for a stage.
    DpReduce {
        /// The stage whose gradients are reduced.
        stage: StageId,
    },
}

impl OpTag {
    /// Single-character glyph for timeline rendering: `F`/`B` for
    /// kernels, `s` for pipeline sends, `g`/`r` for DP gather/reduce.
    pub fn glyph(&self) -> char {
        match self {
            OpTag::Compute(a) => a.dir.glyph(),
            OpTag::PpSend { .. } => 's',
            OpTag::DpGather { .. } => 'g',
            OpTag::DpReduce { .. } => 'r',
        }
    }

    /// Readable label for CSV export.
    pub fn label(&self) -> String {
        match self {
            OpTag::Compute(a) => a.label(),
            OpTag::PpSend {
                dir,
                microbatch,
                from_stage,
            } => format!("send-{}{}@s{}", dir.glyph(), microbatch, from_stage.0),
            OpTag::DpGather { stage } => format!("gather@s{}", stage.0),
            OpTag::DpReduce { stage } => format!("reduce@s{}", stage.0),
        }
    }
}

/// Per-op-kind workload sizes of one lowering, used to annotate exported
/// traces (`args` on the Chrome-trace events): how many FLOPs a kernel
/// performs and how many bytes each transfer moves. All ops of a kind
/// share these (the lowering is per-microbatch uniform).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceInfo {
    /// Forward kernel FLOPs per (micro-batch, stage), after TP slicing.
    pub fwd_flops: f64,
    /// Backward (+ recompute) kernel FLOPs per (micro-batch, stage).
    pub bwd_flops: f64,
    /// Pipeline stage-boundary transfer payload, bytes.
    pub p2p_bytes: f64,
    /// Data-parallel collective payload per stage shard, bytes.
    pub dp_bytes: f64,
}

/// The lowered operation graph plus the bookkeeping the measurement layer
/// needs.
#[derive(Debug)]
pub struct LoweredGraph {
    /// The operation graph, ready to solve.
    pub graph: OpGraph<OpTag>,
    /// Compute-stream resource per pipeline device.
    pub compute_resources: Vec<ResourceId>,
    /// Pipeline device index per resource (indexed by
    /// [`ResourceId::index`]); several resources (compute/dp/pp streams)
    /// map to the same device.
    pub resource_device: Vec<u32>,
    /// The schedule that was lowered (shared — search workloads lower the
    /// same schedule under many micro-batch sizes and sharding levels).
    pub schedule: Arc<Schedule>,
    /// Ideal compute seconds per device (all kernels, no waiting).
    pub ideal_compute_seconds: f64,
    /// The schedule's worst-device peak checkpoint count, cached at
    /// lowering time: it is duration-independent, and recomputing it
    /// (a full `exact_timing` pass) per measurement would dominate the
    /// duration-only re-measure path of perturbation sweeps.
    pub peak_checkpoints: u32,
    /// Workload sizes for trace annotation (see [`TraceInfo`]).
    pub trace_info: TraceInfo,
    /// Per-op memory alloc/free annotations plus each device's Eq. 10–14
    /// unit sizes: one checkpoint pinned at every forward kernel's end
    /// and released at the matching backward's end, and the working
    /// activation buffer alive from the device's first kernel to its
    /// last. Evaluate against a solve ([`bfpp_sim::MemorySpec::profile`]
    /// or [`bfpp_sim::Solver::solve_stats_with_memory`]) for the exact
    /// per-device memory timeline; the peak reconciles byte-exactly with
    /// [`crate::memory::estimate_memory`].
    pub mem_spec: MemorySpec,
}

impl LoweredGraph {
    /// Every op's duration under `perturbation`, the graph's own (base)
    /// duration perturbed by [`Perturbation::perturb`]: kernels take the
    /// device's straggler multiplier, transfers the link degradation,
    /// and each op's jitter and stall draws are salted by its insertion
    /// index, so the row is a pure function of the perturbation and the
    /// lowering. Graph *structure* is perturbation-independent (transfer
    /// emission tests base durations), so feeding the row to
    /// [`bfpp_sim::Solver::solve_with_durations`] sweeps many
    /// perturbation points over one lowering; an identity perturbation
    /// returns the base durations bit for bit.
    pub fn perturbed_durations(&self, perturbation: &Perturbation, out: &mut Vec<SimDuration>) {
        out.clear();
        out.extend(self.graph.op_ids().map(|id| {
            let op = self.graph.op(id);
            let class = match op.tag() {
                OpTag::Compute(_) => OpClass::Compute,
                _ => OpClass::Communication,
            };
            let dev = self.resource_device[op.resource().index()];
            perturbation.perturb(op.duration(), class, dev, id.index() as u64)
        }));
    }
}

/// Per-operation durations of one configuration, as charged to the
/// simulated streams: forward and backward kernels (folding in the
/// non-overlapped tensor-parallel all-reduce time), stage-boundary
/// transfers, and the data-parallel gather and reductions. Lowering
/// charges each op one of these; a topology class
/// ([`crate::batch::ClassBase::fill_tables`]) charges a member's
/// (kind × resource) duration table from them the same way.
///
/// On a homogeneous cluster with a uniform layer split the scalar fields
/// are the whole story (`per_device` is `None`) and every float in them
/// is computed exactly as it always was. Heterogeneous fleets (or
/// non-uniform layer splits) additionally carry `PerDeviceDurations`;
/// the scalars are then the max over devices and consumers must go
/// through the `*_on` / `p2p_pair` accessors.
#[derive(Debug)]
pub struct Durations {
    pub(crate) fwd: SimDuration,
    pub(crate) bwd: SimDuration,
    pub(crate) p2p: SimDuration,
    pub(crate) dp_gather: SimDuration,
    pub(crate) dp_reduce_rs: SimDuration,
    pub(crate) dp_reduce_ar: SimDuration,
    pub(crate) per_device: Option<PerDeviceDurations>,
    pub(crate) trace_info: TraceInfo,
}

/// Per-pipeline-device durations for heterogeneous fleets. All vectors
/// have length `N_PP`. `p2p` is indexed by *pair*: `p2p[d]` is the
/// stage-boundary transfer between pipeline device `d` and
/// `(d + 1) % N_PP` (looping placements wrap their last device's
/// forward sends back to device 0).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerDeviceDurations {
    pub(crate) fwd: Vec<SimDuration>,
    pub(crate) bwd: Vec<SimDuration>,
    pub(crate) p2p: Vec<SimDuration>,
    pub(crate) dp_gather: Vec<SimDuration>,
    pub(crate) dp_reduce_rs: Vec<SimDuration>,
    pub(crate) dp_reduce_ar: Vec<SimDuration>,
}

impl Durations {
    /// The analytic per-op durations of `cfg` on `model`/`cluster` under
    /// `kernel`, with `overlap`'s communication multiplier applied — what
    /// lowering charges each op before any perturbation.
    pub fn new(
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        cfg: &ParallelConfig,
        kernel: &KernelModel,
        overlap: OverlapConfig,
    ) -> Durations {
        let m = overlap.comm_multiplier;
        if cluster.is_hetero() || !matches!(cfg.layer_split, LayerSplit::Uniform) {
            compute_durations_hetero(model, cluster, cfg, kernel, m)
        } else {
            compute_durations_homogeneous(model, cluster, cfg, kernel, m)
        }
    }

    pub(crate) fn fwd_on(&self, dev: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.fwd[dev as usize],
            None => self.fwd,
        }
    }

    pub(crate) fn bwd_on(&self, dev: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.bwd[dev as usize],
            None => self.bwd,
        }
    }

    /// Transfer duration of pipeline pair `pair` = (device `pair`,
    /// device `(pair + 1) % N_PP`).
    pub(crate) fn p2p_pair(&self, pair: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.p2p[pair as usize],
            None => self.p2p,
        }
    }

    pub(crate) fn dp_gather_on(&self, dev: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.dp_gather[dev as usize],
            None => self.dp_gather,
        }
    }

    pub(crate) fn dp_reduce_rs_on(&self, dev: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.dp_reduce_rs[dev as usize],
            None => self.dp_reduce_rs,
        }
    }

    pub(crate) fn dp_reduce_ar_on(&self, dev: u32) -> SimDuration {
        match &self.per_device {
            Some(p) => p.dp_reduce_ar[dev as usize],
            None => self.dp_reduce_ar,
        }
    }

    /// Whether this lowering emits pipeline-send operations at all — a
    /// *class-wide* gate: on a heterogeneous fleet sends are emitted as
    /// soon as any pair's transfer is non-zero (a zero-duration send on
    /// a fast pair is harmless), so graph *structure* never depends on
    /// individual pair durations. Reduces to the historical
    /// `!p2p.is_zero()` on homogeneous clusters.
    pub(crate) fn emits_sends(&self) -> bool {
        match &self.per_device {
            Some(p) => p.p2p.iter().any(|d| !d.is_zero()),
            None => !self.p2p.is_zero(),
        }
    }
}

/// Which [`Durations`] entry an op is charged, and where: the one rule
/// both the graph lowering and a topology class's table fill
/// (`crate::batch`) read an op's base duration through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Charge {
    /// A forward kernel on the op's device.
    Fwd,
    /// A backward (+ recompute) kernel on the op's device.
    Bwd,
    /// A stage-boundary transfer over pipeline pair `pair`
    /// ([`Durations::p2p_pair`]).
    P2p {
        /// The pair index.
        pair: u32,
    },
    /// A data-parallel weight all-gather on the op's device.
    Gather,
    /// A data-parallel gradient reduction on the op's device: an
    /// all-reduce under `DP_0`, a reduce-scatter when sharded.
    Reduce {
        /// Whether the reduction is an all-reduce.
        all_reduce: bool,
    },
}

impl Charge {
    /// The op's base (unperturbed) duration when it runs on `dev`.
    pub(crate) fn base(self, d: &Durations, dev: u32) -> SimDuration {
        match self {
            Charge::Fwd => d.fwd_on(dev),
            Charge::Bwd => d.bwd_on(dev),
            Charge::P2p { pair } => d.p2p_pair(pair),
            Charge::Gather => d.dp_gather_on(dev),
            Charge::Reduce { all_reduce: true } => d.dp_reduce_ar_on(dev),
            Charge::Reduce { all_reduce: false } => d.dp_reduce_rs_on(dev),
        }
    }
}

/// Every input that decides a lowering's *structure* besides its
/// schedule: which DP collectives exist, which streams exist, and
/// whether sends exist. Durations, model, cluster and kernel never
/// enter it (see `crate::batch` for why these fields and no others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Shape {
    /// The data-parallel sharding level (picks the collectives).
    pub(crate) dp: DataParallelism,
    /// Whether data parallelism is active (`n_dp > 1`) — gates every
    /// gather/reduce emission.
    pub(crate) dp_active: bool,
    /// Whether DP collectives get their own stream per device.
    pub(crate) overlap_dp: bool,
    /// Whether pipeline sends get their own stream per device.
    pub(crate) overlap_pp: bool,
    /// Whether pipeline sends are emitted ([`Durations::emits_sends`]).
    pub(crate) emits_sends: bool,
}

impl Shape {
    /// The shape of `cfg` lowered under `overlap` with durations `d`.
    pub(crate) fn of(cfg: &ParallelConfig, overlap: OverlapConfig, d: &Durations) -> Shape {
        Shape {
            dp: cfg.dp,
            dp_active: cfg.grid.n_dp > 1,
            overlap_dp: overlap.dp,
            overlap_pp: overlap.pp,
            emits_sends: d.emits_sends(),
        }
    }
}

/// Receives the streams, ops and edges of one lowering, in order, from
/// [`emit_ops`]. Op handles must be stable for the whole walk.
pub(crate) trait OpSink {
    /// An emitted op.
    type Op: Copy;
    /// An emitted stream (FIFO resource).
    type Stream: Copy;

    /// Appends stream `label` (`compute`, `dp` or `pp`) of device `dev`.
    fn stream(&mut self, dev: u32, label: &'static str) -> Self::Stream;

    /// Appends an op on `stream` of device `dev`, waiting for `deps` and
    /// for `late_deps` more ops that [`OpSink::dep`] adds once the walk
    /// has emitted them, after every op.
    fn op(
        &mut self,
        stream: Self::Stream,
        dev: u32,
        tag: OpTag,
        charge: Charge,
        deps: &[Self::Op],
        late_deps: u32,
    ) -> Self::Op;

    /// Adds a late edge: `op` also waits for `dep`, which may have been
    /// emitted after it. Each op receives exactly the `late_deps` it was
    /// emitted with.
    fn dep(&mut self, op: Self::Op, dep: Self::Op);
}

/// The compute action whose output `a` consumes across a stage boundary
/// — `fwd(mb, s - 1)` for a forward, `bwd(mb, s + 1)` for a backward —
/// or `None` at the pipeline's ends. [`emit_ops`] both counts each
/// compute op's late deps and wires them with this one rule.
fn upstream(a: &Action, n_stage: u32) -> Option<Action> {
    let s = a.stage.0;
    match a.dir {
        Direction::Forward => (s > 0).then(|| Action::fwd(a.microbatch, StageId(s - 1))),
        Direction::Backward => (s + 1 < n_stage).then(|| Action::bwd(a.microbatch, StageId(s + 1))),
    }
}

/// The op-emission rules of a lowering, walked once per topology: per
/// device, in schedule order, the fully-sharded weight gather before
/// each stage run (double-buffered: it also waits for run `k - 2`), the
/// kernel, its outgoing pipeline send (when `shape.emits_sends`), and
/// the DP reductions (`DP_FS` after each backward run; `DP_0`/`DP_PS`
/// after a stage's last backward, `DP_PS` chaining its re-gather); then
/// the late cross-device edges. [`lower_with_schedule`] feeds this to an
/// [`OpGraph`]; `crate::batch` feeds it to a graph-free class builder.
/// Returns each device's compute stream.
pub(crate) fn emit_ops<S: OpSink>(
    schedule: &Schedule,
    shape: Shape,
    sink: &mut S,
) -> Vec<S::Stream> {
    let n_pp = schedule.n_pp();
    let n_mb = schedule.num_microbatches();
    let n_stage = schedule.placement().num_stages();

    let compute: Vec<S::Stream> = (0..n_pp).map(|dev| sink.stream(dev, "compute")).collect();
    let dp_streams: Vec<S::Stream> = (0..n_pp)
        .map(|dev| {
            if shape.overlap_dp {
                sink.stream(dev, "dp")
            } else {
                compute[dev as usize]
            }
        })
        .collect();
    let pp_streams: Vec<S::Stream> = (0..n_pp)
        .map(|dev| {
            if shape.overlap_pp {
                sink.stream(dev, "pp")
            } else {
                compute[dev as usize]
            }
        })
        .collect();

    let idx = |mb: u32, stage: StageId| (mb * n_stage + stage.0) as usize;
    let cidx = |a: &Action| {
        (match a.dir {
            Direction::Forward => 0,
            Direction::Backward => 1,
        }) * (n_mb * n_stage) as usize
            + idx(a.microbatch, a.stage)
    };
    let mut compute_op: Vec<Option<S::Op>> = vec![None; (2 * n_mb * n_stage) as usize];
    // Pipeline sends keyed like compute ops.
    let mut send_op: Vec<Option<S::Op>> = vec![None; (2 * n_mb * n_stage) as usize];

    let use_fs = shape.dp == DataParallelism::FullySharded && shape.dp_active;
    let last_stage = StageId(n_stage - 1);
    let reduce = Charge::Reduce {
        all_reduce: shape.dp == DataParallelism::Unsharded,
    };

    for dev in 0..n_pp {
        let actions = schedule.device_actions(dev);
        let runs: Vec<StageRun> = schedule.stage_runs(dev);
        // Map action index -> run index starting there, and run ends.
        let mut run_start_at = vec![usize::MAX; actions.len()];
        let mut run_end_at = vec![usize::MAX; actions.len()];
        for (k, r) in runs.iter().enumerate() {
            run_start_at[r.start] = k;
            run_end_at[r.start + r.len - 1] = k;
        }
        // Last compute op of each run (filled during the walk).
        let mut run_last_op: Vec<Option<S::Op>> = vec![None; runs.len()];

        // Per-stage last backward action index (for DP_0/DP_PS reduction).
        let mut last_bwd_at = vec![usize::MAX; n_stage as usize];
        for (i, a) in actions.iter().enumerate() {
            if a.dir == Direction::Backward {
                last_bwd_at[a.stage.0 as usize] = i;
            }
        }

        let dp = dp_streams[dev as usize];
        for (i, a) in actions.iter().enumerate() {
            // Fully sharded: gather this run's weights before its first
            // action; double-buffered, so the gather also waits for the
            // buffer freed by run k-2. Mid-run actions inherit the wait
            // through the compute stream's FIFO order.
            let mut gather: Option<S::Op> = None;
            if use_fs && run_start_at[i] != usize::MAX {
                let k = run_start_at[i];
                let freed = if k >= 2 { run_last_op[k - 2] } else { None };
                let tag = OpTag::DpGather { stage: a.stage };
                gather = Some(sink.op(dp, dev, tag, Charge::Gather, freed.as_slice(), 0));
            }

            let charge = match a.dir {
                Direction::Forward => Charge::Fwd,
                Direction::Backward => Charge::Bwd,
            };
            let tag = OpTag::Compute(*a);
            let late = upstream(a, n_stage).is_some() as u32;
            let op = sink.op(
                compute[dev as usize],
                dev,
                tag,
                charge,
                gather.as_slice(),
                late,
            );
            compute_op[cidx(a)] = Some(op);
            if run_end_at[i] != usize::MAX {
                run_last_op[run_end_at[i]] = Some(op);
            }

            // Outgoing pipeline transfer, issued right after the kernel in
            // this device's stream order.
            let sends_forward = a.dir == Direction::Forward && a.stage != last_stage;
            let sends_backward = a.dir == Direction::Backward && a.stage.0 > 0;
            if (sends_forward || sends_backward) && shape.emits_sends {
                // A forward send leaves device `dev` for `dev + 1`; a
                // backward send travels the pair below, `dev - 1 ↔ dev`
                // (both mod N_PP — looping placements wrap).
                let pair = match a.dir {
                    Direction::Forward => dev,
                    Direction::Backward => (dev + n_pp - 1) % n_pp,
                };
                let tag = OpTag::PpSend {
                    dir: a.dir,
                    microbatch: a.microbatch,
                    from_stage: a.stage,
                };
                let send = sink.op(
                    pp_streams[dev as usize],
                    dev,
                    tag,
                    Charge::P2p { pair },
                    &[op],
                    0,
                );
                send_op[cidx(a)] = Some(send);
            }

            // Fully sharded: flush (reduce-scatter) gradients at the end
            // of each backward run.
            if use_fs && run_end_at[i] != usize::MAX && a.dir == Direction::Backward {
                sink.op(
                    dp,
                    dev,
                    OpTag::DpReduce { stage: a.stage },
                    reduce,
                    &[op],
                    0,
                );
            }

            // DP_0 / DP_PS: one reduction per stage after its last
            // backward. DP_PS chains the weight all-gather behind it.
            if !use_fs && shape.dp_active && last_bwd_at[a.stage.0 as usize] == i {
                let rs = sink.op(
                    dp,
                    dev,
                    OpTag::DpReduce { stage: a.stage },
                    reduce,
                    &[op],
                    0,
                );
                match shape.dp {
                    DataParallelism::Unsharded => {}
                    DataParallelism::PartiallySharded => {
                        let tag = OpTag::DpGather { stage: a.stage };
                        sink.op(dp, dev, tag, Charge::Gather, &[rs], 0);
                    }
                    DataParallelism::FullySharded => unreachable!("use_fs covers this"),
                }
            }
        }
    }

    // Wire cross-device pipeline dependencies: a consumer waits for the
    // transfer out of its producer (or directly for the producer kernel
    // when transfers are free).
    let producer = |a: Action| {
        send_op[cidx(&a)]
            .or(compute_op[cidx(&a)])
            .expect("all compute ops created")
    };
    for mb in 0..n_mb {
        for s in 0..n_stage {
            for consumer in [Action::fwd(mb, StageId(s)), Action::bwd(mb, StageId(s))] {
                if let Some(up) = upstream(&consumer, n_stage) {
                    let op = compute_op[cidx(&consumer)].expect("all compute ops created");
                    sink.dep(op, producer(up));
                }
            }
        }
    }
    compute
}

/// The slower of two links (worse tier, then lower bandwidth) — the
/// bottleneck rule for collectives on a heterogeneous fleet.
fn slower<'a>(a: &'a LinkSpec, b: &'a LinkSpec) -> &'a LinkSpec {
    if (b.tier, -b.bandwidth) > (a.tier, -a.bandwidth) {
        b
    } else {
        a
    }
}

/// Seconds for a data-parallel collective over the DP group, two-level
/// hierarchical when the group has several members per node and spans
/// nodes.
fn dp_collective_seconds(
    cluster: &ClusterSpec,
    n_dp: u32,
    n_tp: u32,
    payload_bytes: f64,
    all_reduce: bool,
) -> f64 {
    dp_collective_seconds_links(
        &cluster.node.intra_link,
        &cluster.node.inter_link,
        cluster.node.gpus_per_node,
        n_dp,
        n_tp,
        payload_bytes,
        all_reduce,
    )
}

/// [`dp_collective_seconds`] with explicit links, so heterogeneous
/// fleets can pass the bottleneck links of one specific DP group.
#[allow(clippy::too_many_arguments)]
fn dp_collective_seconds_links(
    intra: &LinkSpec,
    inter: &LinkSpec,
    spn: u32,
    n_dp: u32,
    n_tp: u32,
    payload_bytes: f64,
    all_reduce: bool,
) -> f64 {
    let per_node = (spn / n_tp).max(1).min(n_dp);
    let flat = |link| {
        if all_reduce {
            cost::all_reduce(link, n_dp, payload_bytes).seconds
        } else {
            cost::reduce_scatter(link, n_dp, payload_bytes).seconds
        }
    };
    if n_dp <= per_node {
        flat(intra)
    } else if n_dp.is_multiple_of(per_node) && per_node > 1 {
        let n_inter = n_dp / per_node;
        if all_reduce {
            cost::hierarchical_all_reduce(intra, inter, per_node, n_inter, payload_bytes).seconds
        } else {
            // Hierarchical reduce-scatter / all-gather: intra phase on the
            // full payload, inter phase on the per-node shard.
            cost::reduce_scatter(intra, per_node, payload_bytes).seconds
                + cost::reduce_scatter(inter, n_inter, payload_bytes / per_node as f64).seconds
        }
    } else {
        flat(inter)
    }
}

fn compute_durations_homogeneous(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kernel: &KernelModel,
    comm_multiplier: f64,
) -> Durations {
    let grid = cfg.grid;
    let placement = cfg.placement;
    let s_mb = cfg.batch.microbatch_size;
    let tokens = s_mb as f64 * model.seq_length as f64;
    let layers_per_stage = (model.num_layers / placement.num_stages()) as f64;
    let gpu = &cluster.node.gpu;

    // Kernel time.
    let fwd_flops =
        tokens * layers_per_stage * model.fwd_flops_per_token_per_layer() / grid.n_tp as f64;
    let bwd_flops = tokens
        * layers_per_stage
        * (model.bwd_flops_per_token_per_layer() + model.recompute_flops_per_token_per_layer())
        / grid.n_tp as f64;
    let fwd_kernel = kernel.seconds(model, s_mb, grid.n_tp, fwd_flops, gpu.peak_fp16_flops);
    let bwd_kernel = kernel.seconds(model, s_mb, grid.n_tp, bwd_flops, gpu.peak_fp16_flops);

    // Non-overlapped tensor-parallel all-reduces (two per layer in the
    // forward pass, two more during the backward's recomputation —
    // Appendix A.3.3 footnote 9).
    let tp_time = if grid.n_tp > 1 {
        let payload = 2.0 * tokens * model.hidden_size as f64;
        2.0 * layers_per_stage
            * cost::all_reduce(&cluster.node.intra_link, grid.n_tp, payload).seconds
    } else {
        0.0
    };

    // Pipeline stage-boundary transfer: one hidden vector per token in
    // half precision, sliced by tensor parallelism.
    let p2p_payload = tokens * model.boundary_bytes_per_token() / grid.n_tp as f64;
    let p2p = if grid.n_pp > 1 {
        let payload = p2p_payload;
        let from = grid.global_rank(RankCoord {
            dp: 0,
            tp: 0,
            pp: 0,
        });
        let to = grid.global_rank(RankCoord {
            dp: 0,
            tp: 0,
            pp: 1,
        });
        cost::point_to_point(cluster.link_between(from, to), payload).seconds
    } else {
        0.0
    };

    // Data-parallel collectives on one stage's parameter shard.
    let stage_params = layers_per_stage * model.params_per_layer() as f64 / grid.n_tp as f64;
    let payload = 2.0 * stage_params; // fp16
    let (dp_gather, dp_reduce_rs, dp_reduce_ar) = if grid.n_dp > 1 {
        (
            dp_collective_seconds(cluster, grid.n_dp, grid.n_tp, payload, false),
            dp_collective_seconds(cluster, grid.n_dp, grid.n_tp, payload, false),
            dp_collective_seconds(cluster, grid.n_dp, grid.n_tp, payload, true),
        )
    } else {
        (0.0, 0.0, 0.0)
    };

    let m = comm_multiplier;
    Durations {
        fwd: SimDuration::from_secs_f64(fwd_kernel + tp_time),
        bwd: SimDuration::from_secs_f64(bwd_kernel + tp_time),
        p2p: SimDuration::from_secs_f64(p2p * m),
        dp_gather: SimDuration::from_secs_f64(dp_gather * m),
        dp_reduce_rs: SimDuration::from_secs_f64(dp_reduce_rs * m),
        dp_reduce_ar: SimDuration::from_secs_f64(dp_reduce_ar * m),
        per_device: None,
        trace_info: TraceInfo {
            fwd_flops,
            bwd_flops,
            p2p_bytes: if grid.n_pp > 1 { p2p_payload } else { 0.0 },
            dp_bytes: if grid.n_dp > 1 { payload } else { 0.0 },
        },
    }
}

/// [`Durations::new`] for heterogeneous fleets and/or non-uniform
/// layer splits: every duration is computed per pipeline device, using
/// that device's own GPU speed, its node's links, and its layer share.
/// As everywhere in the lowering, one pipeline "column" (DP rank 0, TP
/// rank 0) is simulated; a pipeline device's hardware is read at its
/// column rank, and its DP collectives use the bottleneck links of its
/// DP group.
fn compute_durations_hetero(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kernel: &KernelModel,
    comm_multiplier: f64,
) -> Durations {
    let grid = cfg.grid;
    let n_pp = grid.n_pp;
    let n_loop = cfg.placement.n_loop();
    let s_mb = cfg.batch.microbatch_size;
    let tokens = s_mb as f64 * model.seq_length as f64;
    let m = comm_multiplier;
    let rank_of = |pp: u32| grid.global_rank(RankCoord { dp: 0, tp: 0, pp });

    let mut per = PerDeviceDurations {
        fwd: Vec::with_capacity(n_pp as usize),
        bwd: Vec::with_capacity(n_pp as usize),
        p2p: Vec::with_capacity(n_pp as usize),
        dp_gather: Vec::with_capacity(n_pp as usize),
        dp_reduce_rs: Vec::with_capacity(n_pp as usize),
        dp_reduce_ar: Vec::with_capacity(n_pp as usize),
    };

    let p2p_payload = tokens * model.boundary_bytes_per_token() / grid.n_tp as f64;
    let mut trace_info = TraceInfo::default();

    for dev in 0..n_pp {
        let rank = rank_of(dev);
        let node = cluster.node_spec(cluster.node_of(rank));
        let gpu = &node.gpu;
        let layers_per_stage = cfg
            .layer_split
            .layers_on_device(model.num_layers, n_pp, dev) as f64
            / n_loop as f64;

        // Kernel time on this device's silicon.
        let fwd_flops =
            tokens * layers_per_stage * model.fwd_flops_per_token_per_layer() / grid.n_tp as f64;
        let bwd_flops = tokens
            * layers_per_stage
            * (model.bwd_flops_per_token_per_layer() + model.recompute_flops_per_token_per_layer())
            / grid.n_tp as f64;
        let fwd_kernel = kernel.seconds(model, s_mb, grid.n_tp, fwd_flops, gpu.peak_fp16_flops);
        let bwd_kernel = kernel.seconds(model, s_mb, grid.n_tp, bwd_flops, gpu.peak_fp16_flops);

        // Non-overlapped TP all-reduces on this node's intra link.
        let tp_time = if grid.n_tp > 1 {
            let payload = 2.0 * tokens * model.hidden_size as f64;
            2.0 * layers_per_stage * cost::all_reduce(&node.intra_link, grid.n_tp, payload).seconds
        } else {
            0.0
        };
        per.fwd
            .push(SimDuration::from_secs_f64(fwd_kernel + tp_time));
        per.bwd
            .push(SimDuration::from_secs_f64(bwd_kernel + tp_time));
        if dev == 0 {
            trace_info.fwd_flops = fwd_flops;
            trace_info.bwd_flops = bwd_flops;
        }

        // Stage-boundary transfer of pair (dev, dev+1 mod N_PP), over
        // whatever link actually connects the two column ranks (intra,
        // inter, or a fabric override).
        let p2p = if n_pp > 1 {
            let to = rank_of((dev + 1) % n_pp);
            cost::point_to_point(cluster.link_between(rank, to), p2p_payload).seconds
        } else {
            0.0
        };
        per.p2p.push(SimDuration::from_secs_f64(p2p * m));

        // DP collectives for this device's DP group, over the group's
        // bottleneck links.
        let stage_params = layers_per_stage * model.params_per_layer() as f64 / grid.n_tp as f64;
        let payload = 2.0 * stage_params; // fp16
        let (dp_gather, dp_reduce_rs, dp_reduce_ar) = if grid.n_dp > 1 {
            let mut nodes: Vec<NodeId> = (0..grid.n_dp)
                .map(|dp| cluster.node_of(grid.global_rank(RankCoord { dp, tp: 0, pp: dev })))
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut intra = &cluster.node_spec(nodes[0]).intra_link;
            for n in &nodes[1..] {
                intra = slower(intra, &cluster.node_spec(*n).intra_link);
            }
            let mut inter = intra;
            let mut spanning = false;
            for (i, &a) in nodes.iter().enumerate() {
                for &b in &nodes[i + 1..] {
                    let link = cluster.inter_link_between(a, b);
                    inter = if spanning { slower(inter, link) } else { link };
                    spanning = true;
                }
            }
            let spn = node.gpus_per_node;
            let coll = |all_reduce| {
                dp_collective_seconds_links(
                    intra, inter, spn, grid.n_dp, grid.n_tp, payload, all_reduce,
                )
            };
            (coll(false), coll(false), coll(true))
        } else {
            (0.0, 0.0, 0.0)
        };
        per.dp_gather
            .push(SimDuration::from_secs_f64(dp_gather * m));
        per.dp_reduce_rs
            .push(SimDuration::from_secs_f64(dp_reduce_rs * m));
        per.dp_reduce_ar
            .push(SimDuration::from_secs_f64(dp_reduce_ar * m));
        if dev == 0 {
            trace_info.p2p_bytes = if n_pp > 1 { p2p_payload } else { 0.0 };
            trace_info.dp_bytes = if grid.n_dp > 1 { payload } else { 0.0 };
        }
    }

    let max = |v: &[SimDuration]| v.iter().copied().max().unwrap_or(SimDuration::ZERO);
    Durations {
        fwd: max(&per.fwd),
        bwd: max(&per.bwd),
        p2p: max(&per.p2p),
        dp_gather: max(&per.dp_gather),
        dp_reduce_rs: max(&per.dp_reduce_rs),
        dp_reduce_ar: max(&per.dp_reduce_ar),
        per_device: Some(per),
        trace_info,
    }
}

/// Lowers one configuration to an operation graph.
///
/// # Errors
///
/// Returns [`SimulateError`] when the configuration is invalid for the
/// model/cluster or the schedule cannot be generated.
pub fn lower(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kind: ScheduleKind,
    overlap: OverlapConfig,
    kernel: &KernelModel,
) -> Result<LoweredGraph, SimulateError> {
    cfg.validate(model, cluster)
        .map_err(SimulateError::Config)?;
    let schedule = Arc::new(
        Schedule::generate(kind, cfg.placement, cfg.batch.num_microbatches)
            .map_err(SimulateError::Schedule)?,
    );
    lower_with_schedule(model, cluster, cfg, schedule, overlap, kernel)
}

/// [`lower`] with an already generated (possibly cached and shared)
/// schedule. The schedule must have been generated for `cfg.placement`
/// and `cfg.batch.num_microbatches`.
///
/// # Errors
///
/// Returns [`SimulateError`] when the configuration is invalid for the
/// model/cluster.
pub fn lower_with_schedule(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    schedule: Arc<Schedule>,
    overlap: OverlapConfig,
    kernel: &KernelModel,
) -> Result<LoweredGraph, SimulateError> {
    cfg.validate(model, cluster)
        .map_err(SimulateError::Config)?;
    debug_assert_eq!(schedule.placement(), cfg.placement);
    debug_assert_eq!(schedule.num_microbatches(), cfg.batch.num_microbatches);

    let d = Durations::new(model, cluster, cfg, kernel, overlap);
    let n_pp = cfg.grid.n_pp;

    // Size the graph up front: per device, every action yields a kernel,
    // at most one send, and at most two DP collectives; cross-device
    // wiring adds at most two late edges per (microbatch, stage).
    let total_actions = schedule.num_actions();
    let op_bound = 4 * total_actions;
    let mut sink = GraphSink {
        graph: OpGraph::with_capacity(3 * n_pp as usize, op_bound, 3 * op_bound),
        resource_device: Vec::with_capacity(3 * n_pp as usize),
        d: &d,
        mem_effects: Vec::with_capacity(total_actions + 2 * n_pp as usize),
        last_kernel: None,
    };
    let compute_resources = emit_ops(&schedule, Shape::of(cfg, overlap, &d), &mut sink);
    sink.close_activations();
    let GraphSink {
        graph,
        resource_device,
        mem_effects,
        ..
    } = sink;

    let per_device_kernels = cfg.batch.num_microbatches as u64 * cfg.placement.n_loop() as u64;
    let ideal_compute_seconds = (0..n_pp)
        .map(|dev| per_device_kernels as f64 * (d.fwd_on(dev) + d.bwd_on(dev)).as_secs_f64())
        .fold(0.0, f64::max);

    let mem_spec = MemorySpec {
        devices: (0..n_pp)
            .map(|dev| device_model(model, cfg, schedule.kind(), dev))
            .collect(),
        effects: mem_effects,
    };

    Ok(LoweredGraph {
        graph,
        compute_resources,
        resource_device,
        peak_checkpoints: schedule.peak_checkpoints(),
        schedule,
        ideal_compute_seconds,
        trace_info: d.trace_info,
        mem_spec,
    })
}

/// The [`OpSink`] of a full lowering: named streams, tagged ops with
/// their base durations, and the memory annotations.
struct GraphSink<'a> {
    graph: OpGraph<OpTag>,
    resource_device: Vec<u32>,
    d: &'a Durations,
    /// Memory annotations: one checkpoint per (micro-batch, stage) pinned
    /// at its forward kernel's end and freed at its backward's end —
    /// matching `Schedule::peak_checkpoints_per_device`, since a device's
    /// FIFO compute stream replays its action order — plus one working
    /// activation buffer per device spanning its first to last kernel.
    mem_effects: Vec<MemEffect>,
    /// The latest kernel and its device: a kernel on a new device closes
    /// the previous device's activation buffer.
    last_kernel: Option<(u32, OpId)>,
}

impl GraphSink<'_> {
    /// Frees the working activation buffer of the device whose kernels
    /// ended with the latest one.
    fn close_activations(&mut self) {
        if let Some((device, op)) = self.last_kernel.take() {
            self.mem_effects.push(MemEffect {
                op,
                device,
                class: BufferClass::Activations,
                delta: -1,
                edge: EventEdge::End,
            });
        }
    }
}

impl OpSink for GraphSink<'_> {
    type Op = OpId;
    type Stream = ResourceId;

    fn stream(&mut self, dev: u32, label: &'static str) -> ResourceId {
        self.resource_device.push(dev);
        self.graph.add_resource(format!("gpu{dev}.{label}"))
    }

    fn op(
        &mut self,
        stream: ResourceId,
        dev: u32,
        tag: OpTag,
        charge: Charge,
        deps: &[OpId],
        _late_deps: u32,
    ) -> OpId {
        let op = self
            .graph
            .add_op(stream, charge.base(self.d, dev), deps, tag);
        if let OpTag::Compute(a) = tag {
            if self.last_kernel.is_none_or(|(last, _)| last != dev) {
                self.close_activations();
                self.mem_effects.push(MemEffect {
                    op,
                    device: dev,
                    class: BufferClass::Activations,
                    delta: 1,
                    edge: EventEdge::Start,
                });
            }
            self.mem_effects.push(MemEffect {
                op,
                device: dev,
                class: BufferClass::Checkpoints,
                delta: match a.dir {
                    Direction::Forward => 1,
                    Direction::Backward => -1,
                },
                edge: EventEdge::End,
            });
            self.last_kernel = Some((dev, op));
        }
        op
    }

    fn dep(&mut self, op: OpId, dep: OpId) {
        self.graph.add_dep(op, dep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets;
    use bfpp_model::presets as models;
    use bfpp_parallel::{BatchConfig, Grid, ParallelConfig, Placement};

    fn simple_cfg() -> ParallelConfig {
        ParallelConfig::new(
            Grid::new(4, 2, 8),
            Placement::looping(8, 8),
            BatchConfig::new(12, 1),
            DataParallelism::FullySharded,
        )
    }

    #[test]
    fn lowering_produces_a_solvable_graph() {
        let g = lower(
            &models::bert_52b(),
            &presets::dgx1_v100(8),
            &simple_cfg(),
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap();
        let t = g.graph.solve().expect("lowered graphs are acyclic");
        assert!(t.makespan().as_secs_f64() > 0.0);
        // All compute, send, gather and reduce ops exist:
        // compute = 2 * 12 * 64 stages; sends = transfers between stages.
        assert!(g.graph.num_ops() > 2 * 12 * 64);
    }

    #[test]
    fn overlap_reduces_batch_time() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let cfg = simple_cfg();
        let k = KernelModel::v100();
        let solve = |ov: OverlapConfig| {
            lower(&model, &cluster, &cfg, ScheduleKind::BreadthFirst, ov, &k)
                .unwrap()
                .graph
                .solve()
                .unwrap()
                .makespan()
        };
        let with = solve(OverlapConfig::full());
        let without = solve(OverlapConfig::none());
        assert!(with < without, "overlap must help: {with} !< {without}");
    }

    #[test]
    fn no_pipeline_has_no_sends() {
        let model = models::bert_6_6b();
        let cluster = presets::dgx1_v100(8);
        let cfg = ParallelConfig::new(
            Grid::new(8, 8, 1),
            Placement::linear(1),
            BatchConfig::new(2, 4),
            DataParallelism::FullySharded,
        );
        let g = lower(
            &model,
            &cluster,
            &cfg,
            ScheduleKind::GPipe,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap();
        let sends = g
            .graph
            .op_ids()
            .filter(|id| matches!(g.graph.op(*id).tag(), OpTag::PpSend { .. }))
            .count();
        assert_eq!(sends, 0);
    }

    #[test]
    fn dp0_emits_one_reduce_per_stage() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let cfg = ParallelConfig::new(
            Grid::new(4, 2, 8),
            Placement::looping(8, 4),
            BatchConfig::new(12, 1),
            DataParallelism::Unsharded,
        );
        let g = lower(
            &model,
            &cluster,
            &cfg,
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap();
        let reduces = g
            .graph
            .op_ids()
            .filter(|id| matches!(g.graph.op(*id).tag(), OpTag::DpReduce { .. }))
            .count();
        assert_eq!(reduces, 32, "one per stage");
    }

    #[test]
    fn fs_with_breadth_first_gathers_twice_per_stage() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let cfg = simple_cfg(); // FS, 64 stages, 8 per device
        let g = lower(
            &model,
            &cluster,
            &cfg,
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap();
        let gathers = g
            .graph
            .op_ids()
            .filter(|id| matches!(g.graph.op(*id).tag(), OpTag::DpGather { .. }))
            .count();
        // 2 runs per local stage x 8 local stages x 8 devices.
        assert_eq!(gathers, 2 * 64);
        let reduces = g
            .graph
            .op_ids()
            .filter(|id| matches!(g.graph.op(*id).tag(), OpTag::DpReduce { .. }))
            .count();
        assert_eq!(reduces, 64, "one flush per stage");
    }

    fn simple_lowering() -> LoweredGraph {
        lower(
            &models::bert_52b(),
            &presets::dgx1_v100(8),
            &simple_cfg(),
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap()
    }

    #[test]
    fn identity_perturbation_keeps_the_base_durations() {
        // A seeded-but-zero-magnitude perturbation must not move a single
        // op by a nanosecond.
        let base = simple_lowering();
        let mut durs = Vec::new();
        base.perturbed_durations(&Perturbation::with_seed(1234), &mut durs);
        let own: Vec<SimDuration> = base
            .graph
            .op_ids()
            .map(|id| base.graph.op(id).duration())
            .collect();
        assert_eq!(durs, own);
    }

    #[test]
    fn straggler_slows_only_its_device_and_makespan_grows() {
        let base = simple_lowering();
        let mut solver = bfpp_sim::Solver::new(&base.graph);
        let mut durs = Vec::new();
        let mut run = |p: &Perturbation| {
            base.perturbed_durations(p, &mut durs);
            solver.solve_stats_with_durations(&durs).unwrap().makespan
        };
        let clean = run(&Perturbation::none());
        let degraded = run(&Perturbation::with_seed(7).with_straggler(3, 1.5));
        assert!(
            degraded > clean,
            "a 1.5x straggler must stretch the pipeline: {degraded} !> {clean}"
        );
        // Deterministic: the same perturbation re-times identically.
        let again = run(&Perturbation::with_seed(7).with_straggler(3, 1.5));
        assert_eq!(degraded, again);
    }

    #[test]
    fn perturbed_durations_follow_class_device_and_insertion_index() {
        // Each op is perturbed as its tag's class on its stream's device,
        // salted by its insertion index; kernels on the straggler slow
        // down, nothing shrinks below the jitter bound.
        let base = simple_lowering();
        let p = Perturbation::with_seed(0xB1F)
            .with_straggler(3, 1.4)
            .with_jitter(0.05)
            .with_link_degradation(1.3);
        let mut durs = Vec::new();
        base.perturbed_durations(&p, &mut durs);
        assert_eq!(durs.len(), base.graph.num_ops());
        for id in base.graph.op_ids() {
            let op = base.graph.op(id);
            let name = base.graph.resource_name(op.resource());
            let dev: u32 = name[3..name.find('.').unwrap()].parse().unwrap();
            let class = match op.tag() {
                OpTag::Compute(_) => OpClass::Compute,
                _ => OpClass::Communication,
            };
            let want = p.perturb(op.duration(), class, dev, id.index() as u64);
            assert_eq!(durs[id.index()], want, "op {}", id.index());
        }
    }

    #[test]
    fn resource_device_maps_every_stream_to_its_gpu() {
        let g = lower(
            &models::bert_52b(),
            &presets::dgx1_v100(8),
            &simple_cfg(),
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap();
        assert_eq!(g.resource_device.len(), g.graph.num_resources());
        for (dev, r) in g.compute_resources.iter().enumerate() {
            assert_eq!(g.resource_device[r.index()], dev as u32);
        }
        for r in g.graph.resource_ids() {
            let name = g.graph.resource_name(r);
            let dev = g.resource_device[r.index()];
            assert!(
                name.starts_with(&format!("gpu{dev}.")),
                "resource {name:?} mapped to device {dev}"
            );
        }
    }

    #[test]
    fn tags_have_labels_and_glyphs() {
        assert_eq!(OpTag::Compute(Action::fwd(0, StageId(0))).glyph(), 'F');
        assert_eq!(OpTag::DpGather { stage: StageId(3) }.label(), "gather@s3");
        assert_eq!(
            OpTag::PpSend {
                dir: Direction::Backward,
                microbatch: 2,
                from_stage: StageId(1)
            }
            .glyph(),
            's'
        );
        assert!(OpTag::DpReduce { stage: StageId(0) }
            .label()
            .contains("reduce"));
    }
}
