//! The deterministic timeline solver.
//!
//! Event-driven, O(V + E): a CSR reverse-dependency index (flat
//! `dependents` arena plus per-op pending-dep counters) is built once per
//! graph, then a ready queue schedules each operation exactly once — no
//! round-robin rescanning. The produced timeline is *bit-identical* to
//! the reference round-robin solver ([`crate::reference`], kept as a
//! test/bench oracle), because an op's start time — `max(resource free,
//! all deps done)` — is a pure function of already-scheduled ops, so the
//! ready-queue processing order cannot change any time. See DESIGN.md §9.

use std::error::Error;
use std::fmt;

use crate::graph::{OpGraph, OpId, ResourceId};
use crate::memprof::{MemoryPeaks, MemorySpec};
use crate::time::{SimDuration, SimTime};

/// The solved start/end time of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: OpId,
    /// The resource it ran on.
    pub resource: ResourceId,
    /// When it started.
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
}

impl ScheduledOp {
    /// The operation's duration as scheduled.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// The output of [`OpGraph::solve`]: a start/end time for every operation.
#[derive(Debug, Clone)]
pub struct Timeline {
    pub(crate) scheduled: Vec<ScheduledOp>,
    pub(crate) makespan: SimDuration,
    pub(crate) num_resources: usize,
}

impl Timeline {
    /// Assembles a timeline from solved parts (used by the reference
    /// solver, which lives in a sibling module).
    #[cfg(any(test, feature = "reference-solver"))]
    pub(crate) fn from_parts(
        scheduled: Vec<ScheduledOp>,
        makespan: SimDuration,
        num_resources: usize,
    ) -> Self {
        Timeline {
            scheduled,
            makespan,
            num_resources,
        }
    }

    /// Completion time of the whole graph.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// Start time of an operation.
    pub fn start_of(&self, op: OpId) -> SimTime {
        self.scheduled[op.index()].start
    }

    /// End time of an operation.
    pub fn end_of(&self, op: OpId) -> SimTime {
        self.scheduled[op.index()].end
    }

    /// All scheduled operations, indexed by [`OpId::index`].
    pub fn scheduled_ops(&self) -> &[ScheduledOp] {
        &self.scheduled
    }

    /// Number of resources in the solved graph.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }
}

/// The aggregate outputs of one solve — makespan plus per-resource busy
/// time — without the per-op timeline. Busy time is an order-independent
/// integer sum of op durations, so these match what
/// [`Timeline::resource_stats`] derives from a materialized timeline
/// bit for bit, at a fraction of the cost; perturbation sweeps use this
/// via [`Solver::solve_stats_with_durations`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Completion time of the whole graph.
    pub makespan: SimDuration,
    /// Total executing time per resource, indexed by [`ResourceId::index`].
    pub busy: Vec<SimDuration>,
    /// Per-device memory peaks, filled by the memory-aware solve paths
    /// ([`Solver::solve_stats_with_memory`] and
    /// [`Solver::solve_stats_with_durations_and_memory`]); `None` on the
    /// plain stats paths.
    pub peak_memory: Option<MemoryPeaks>,
}

/// The graph admits no schedule: an operation can never start.
///
/// This happens when an operation depends (directly or transitively) on an
/// operation queued *behind* it on the same FIFO resource — the moral
/// equivalent of a CUDA stream deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockError {
    /// One of the operations that could never start.
    pub stuck_op: OpId,
    /// The resource whose queue is blocked at `stuck_op`.
    pub resource: ResourceId,
    /// The name of that resource (captured at solve time, so the error
    /// is self-describing without the graph).
    pub resource_name: String,
    /// The unresolvable blocking cycle, starting at an op on it: each op
    /// waits (through a dependency edge or FIFO queue order) for the
    /// next, and the last waits for the first.
    pub cycle: Vec<OpId>,
    /// Number of operations that never ran.
    pub unscheduled: usize,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule deadlock: op #{} at the head of resource #{} (\"{}\") can never start; \
             blocking cycle: ",
            self.stuck_op.index(),
            self.resource.index(),
            self.resource_name,
        )?;
        for op in &self.cycle {
            write!(f, "#{} -> ", op.index())?;
        }
        match self.cycle.first() {
            Some(first) => write!(f, "#{}", first.index())?,
            None => f.write_str("(unknown)")?,
        }
        write!(f, " ({} ops unscheduled)", self.unscheduled)
    }
}

impl Error for DeadlockError {}

/// In a stalled solver state, finds the cycle of mutually blocking ops
/// reachable from `start`: every unscheduled op is blocked either by an
/// unfinished dependency or (when its deps are all done) by the current
/// head of its resource's FIFO queue. Following that single "binding
/// blocker" edge from any blocked op must revisit a node — that loop is
/// the unresolvable cycle. The reference round-robin solver's entry
/// point; the event-driven solver walks the same
/// [`blocking_cycle_with`], so their reports agree exactly.
#[cfg(any(test, feature = "reference-solver"))]
pub(crate) fn blocking_cycle<T>(
    graph: &OpGraph<T>,
    done: &[bool],
    queue_pos: &[usize],
    start: OpId,
) -> Vec<OpId> {
    blocking_cycle_with(
        graph.num_ops(),
        start,
        |op| graph.deps_of(op).iter().copied().find(|d| !done[d.index()]),
        |op| {
            let r = graph.op(op).resource().index();
            graph.resource_queues[r][queue_pos[r]]
        },
    )
}

/// [`blocking_cycle`] over any topology representation: `pending_dep`
/// names an unfinished dependency of an op (if any), and `queue_head` the
/// current head of the op's resource queue.
fn blocking_cycle_with(
    n: usize,
    start: OpId,
    pending_dep: impl Fn(OpId) -> Option<OpId>,
    queue_head: impl Fn(OpId) -> OpId,
) -> Vec<OpId> {
    let mut seen_at: Vec<Option<usize>> = vec![None; n];
    let mut chain: Vec<OpId> = Vec::new();
    let mut cur = start;
    loop {
        if let Some(at) = seen_at[cur.index()] {
            return chain[at..].to_vec();
        }
        seen_at[cur.index()] = Some(chain.len());
        chain.push(cur);
        // Deps all done yet unscheduled: blocked behind its queue's
        // current (dep-blocked) head.
        cur = pending_dep(cur).unwrap_or_else(|| queue_head(cur));
    }
}

/// Per-op solve state, packed into one location so the hot reverse-edge
/// pass touches a single cache line per dependent: the countdown of
/// unfinished dependencies and the running max of finished-dependency end
/// times (so scheduling an op never re-walks its dependency list).
#[derive(Debug, Clone, Copy)]
struct OpState {
    /// Latest end time among this op's *finished* dependencies; the true
    /// dependency-ready time once `pending` reaches zero.
    deps_ready: SimTime,
    /// Unfinished dependency count. Not updated when the op itself runs:
    /// a scheduled op is never revisited (it can't reappear as a queue
    /// head or a dependent), and the deadlock path recovers the scheduled
    /// set from the consumed worklist prefix instead.
    pending: u32,
    /// The op's resource index, packed here so the reverse-edge pass
    /// finds it on the cache line it already loaded.
    resource: u32,
}

/// Per-resource solve state, packed so each scheduling step touches one
/// location: when the resource frees up, the absolute `queue_arena`
/// cursor/limit of its FIFO queue, and the cached current head.
#[derive(Debug, Clone, Copy)]
struct ResourceState {
    /// When the resource next becomes free.
    free_at: SimTime,
    /// Total duration scheduled on this resource so far — accumulated in
    /// the hot loop (the line is already being written) so
    /// [`SolveStats`] needs no second pass over the ops.
    busy: SimDuration,
    /// Absolute `queue_arena` position of the next queued op.
    next_pos: u32,
    /// Absolute end of this resource's `queue_arena` slice.
    limit: u32,
    /// Raw id of the current queue head (`u32::MAX` once drained),
    /// cached so the reverse-edge pass checks readiness without
    /// touching the queue itself.
    head: u32,
}

/// What trace replay reads, and all it reads: the CSR reverse-dependency
/// index, each op's resource, the recorded processing order, and the
/// replay loop's own timing buffers. [`SolveScratch`] wraps it with the
/// discovery event loop's buffers; [`ReplayWorkspace`] wraps it alone.
#[derive(Debug, Clone, Default)]
struct ReplayCore {
    /// CSR row pointers: dependents of op `i` live at
    /// `dependents[indptr[i] .. indptr[i + 1]]`.
    indptr: Vec<u32>,
    /// CSR column indices: flat arena of reverse dependency edges.
    dependents: Vec<OpId>,
    /// Per-op resource index, copied out of the topology so the hot
    /// loops read a dense array instead of chasing `Op` structs.
    op_resource: Vec<u32>,
    /// Number of resources in the topology.
    num_resources: usize,
    /// The consumed ready worklist of a successful full solve, in
    /// processing order — a *replay trace*. The event loop's processing
    /// order is duration-independent (pushes depend only on pending-dep
    /// counters and queue positions, never on times), so one recorded
    /// trace is a valid schedule order for *any* duration vector over
    /// this topology; [`ReplayCore::replay`] re-times it without queue
    /// or counter bookkeeping.
    trace: Vec<OpId>,
    /// Per-op dependency-ready time (dense 8-byte lanes: the replay
    /// touches nothing else per dependent).
    ready_time: Vec<SimTime>,
    /// Per-resource free time.
    free: Vec<SimTime>,
    /// Per-resource busy sum.
    busy: Vec<SimDuration>,
}

impl ReplayCore {
    fn num_ops(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// The replay engine: walks the recorded trace once, re-timing every
    /// op under `durations`. The trace respects dependency order (an op
    /// was pushed only after all its deps ran) and per-resource FIFO
    /// order (only queue heads are pushed), and an op's start time —
    /// `max(resource free, deps done)` — is a pure function of
    /// already-processed ops under both orders, so the replayed times are
    /// bit-identical to a full event-driven solve under the same
    /// durations, with none of the queue/counter bookkeeping. `RECORD`
    /// additionally fills the per-op `start`/`end` arrays (timeline and
    /// memory-peak paths). Callers guarantee `trace` is complete for
    /// this topology.
    fn replay<const RECORD: bool>(
        &mut self,
        durations: &[SimDuration],
        start: &mut Vec<SimTime>,
        end: &mut Vec<SimTime>,
    ) -> SimDuration {
        let n = self.num_ops();
        assert_eq!(
            durations.len(),
            n,
            "duration override must cover every op (got {}, topology has {n})",
            durations.len()
        );
        let num_resources = self.num_resources;
        let ReplayCore {
            indptr,
            dependents,
            op_resource,
            trace,
            ready_time,
            free,
            busy,
            ..
        } = self;
        ready_time.clear();
        ready_time.resize(n, SimTime::ZERO);
        free.clear();
        free.resize(num_resources, SimTime::ZERO);
        busy.clear();
        busy.resize(num_resources, SimDuration::ZERO);
        if RECORD {
            start.resize(n, SimTime::ZERO);
            end.resize(n, SimTime::ZERO);
        }
        // SAFETY: every `OpId` in `trace` was consumed from the ready
        // worklist of a successful full solve over this topology, whose
        // ids come from `queue_arena`/`dependents` — checked `< n` when
        // the topology was built (see the SAFETY argument in
        // `SolveScratch::run_events`), so `i` indexes
        // `ready_time`/`op_resource`/`durations` and (under `RECORD`)
        // `start`/`end`, and `i + 1 <= n` indexes `indptr`. `op_resource`
        // entries were checked `< num_resources` at the same time,
        // bounding the `free`/`busy` accesses, and `indptr` is a prefix
        // sum bounded by `dependents.len()`. Rebuilding an index clears
        // its trace, so a trace can never be replayed against a
        // differently shaped topology.
        for &op_id in trace.iter() {
            let i = op_id.index();
            debug_assert!(i < n);
            let r = unsafe { *op_resource.get_unchecked(i) } as usize;
            debug_assert!(r < num_resources);
            let d = unsafe { *durations.get_unchecked(i) };
            let free_at = unsafe { free.get_unchecked_mut(r) };
            let ready_at = (*free_at).max(unsafe { *ready_time.get_unchecked(i) });
            let finish = ready_at + d;
            *free_at = finish;
            unsafe { *busy.get_unchecked_mut(r) += d };
            if RECORD {
                unsafe {
                    *start.get_unchecked_mut(i) = ready_at;
                    *end.get_unchecked_mut(i) = finish;
                }
            }
            let (lo, hi) = unsafe {
                (
                    *indptr.get_unchecked(i) as usize,
                    *indptr.get_unchecked(i + 1) as usize,
                )
            };
            debug_assert!(lo <= hi && hi <= dependents.len());
            for &dependent in unsafe { dependents.get_unchecked(lo..hi) } {
                let j = dependent.index();
                debug_assert!(j < n);
                let rt = unsafe { ready_time.get_unchecked_mut(j) };
                *rt = (*rt).max(finish);
            }
        }
        let makespan = free.iter().copied().max().unwrap_or(SimTime::ZERO);
        makespan.duration_since(SimTime::ZERO)
    }
}

/// Reusable solver workspace: the CSR reverse-dependency index plus every
/// per-solve buffer. Passing one scratch through
/// [`OpGraph::solve_with`] / [`Solver::with_scratch`] lets thousands of
/// candidate solves (as in the configuration search) run without a single
/// heap allocation after warm-up.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// The topology index, replay trace and replay buffers.
    core: ReplayCore,
    /// Whether `core.trace` holds a complete trace for the current
    /// topology. Cleared by [`build_csr`]; deadlocked solves never set it.
    trace_ready: bool,
    /// Scatter cursors used while filling `dependents` and the queues.
    fill_cursor: Vec<u32>,
    /// Pristine per-op state (dependency count + resource index,
    /// `deps_ready` zeroed), built once per graph; every solve resets
    /// `state` with one flat copy of this template.
    init_state: Vec<OpState>,
    /// Per-op base duration, copied out of the graph: solves without a
    /// duration override index this, so both paths run the same loop.
    op_duration: Vec<SimDuration>,
    /// Flattened FIFO queues: resource `r`'s queue is
    /// `queue_arena[queue_indptr[r] .. queue_indptr[r + 1]]`.
    queue_indptr: Vec<u32>,
    /// Concatenated per-resource queues (see `queue_indptr`).
    queue_arena: Vec<OpId>,
    /// Per-solve countdown + dependency-ready time per op.
    state: Vec<OpState>,
    /// Ready worklist (ops whose deps are done and which head their
    /// resource queue).
    ready: Vec<OpId>,
    /// Solved start time per op (written only when a full timeline is
    /// materialized).
    start: Vec<SimTime>,
    /// Solved end time per op (written only when a full timeline is
    /// materialized).
    end: Vec<SimTime>,
    /// Per-resource packed solve state (free time, queue cursor, head).
    res: Vec<ResourceState>,
}

impl SolveScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Creates a workspace pre-sized for graphs of the given shape.
    pub fn with_capacity(ops: usize, edges: usize, resources: usize) -> Self {
        SolveScratch {
            core: ReplayCore {
                indptr: Vec::with_capacity(ops + 1),
                dependents: Vec::with_capacity(edges),
                op_resource: Vec::with_capacity(ops),
                num_resources: 0,
                trace: Vec::with_capacity(ops),
                ready_time: Vec::with_capacity(ops),
                free: Vec::with_capacity(resources),
                busy: Vec::with_capacity(resources),
            },
            trace_ready: false,
            fill_cursor: Vec::with_capacity(ops),
            init_state: Vec::with_capacity(ops),
            op_duration: Vec::with_capacity(ops),
            queue_indptr: Vec::with_capacity(resources + 1),
            queue_arena: Vec::with_capacity(ops),
            state: Vec::with_capacity(ops),
            ready: Vec::with_capacity(resources),
            start: Vec::with_capacity(ops),
            end: Vec::with_capacity(ops),
            res: Vec::with_capacity(resources),
        }
    }

    /// Whether the workspace holds a replay trace for its current
    /// topology (recorded by the first successful solve after
    /// [`Solver::with_scratch`]/[`Solver::new`] built the index).
    pub fn has_trace(&self) -> bool {
        self.trace_ready
    }

    /// Number of ops in the topology this workspace was last built for.
    pub fn num_ops(&self) -> usize {
        self.core.num_ops()
    }

    /// Re-times the recorded trace under `durations`, writing the
    /// makespan and per-resource busy sums into `stats` (its `busy`
    /// buffer is reused, so a caller looping over many duration rows
    /// allocates nothing). This is the graph-free half of the duration
    /// re-solve: the workspace alone carries the topology.
    /// [`ReplayWorkspace`] is the same replay without the discovery
    /// buffers, for callers that keep many topologies alive.
    ///
    /// # Panics
    ///
    /// Panics if no trace is recorded ([`SolveScratch::has_trace`]) or
    /// if `durations.len()` differs from the topology's op count.
    pub fn replay_stats_into(&mut self, durations: &[SimDuration], stats: &mut SolveStats) {
        let makespan = self.replay::<false>(durations);
        stats.makespan = makespan;
        stats.busy.clear();
        stats.busy.extend_from_slice(&self.core.busy);
        stats.peak_memory = None;
    }

    /// [`ReplayCore::replay`] behind the recorded-trace check.
    fn replay<const RECORD: bool>(&mut self, durations: &[SimDuration]) -> SimDuration {
        assert!(
            self.trace_ready,
            "replay requires a recorded trace (run one full solve first)"
        );
        self.core
            .replay::<RECORD>(durations, &mut self.start, &mut self.end)
    }

    /// The discovery event loop. Schedules every op exactly once: an op
    /// enters the ready queue when its pending-dep counter hits zero
    /// *and* it heads its resource's FIFO queue; scheduling it advances
    /// the queue (which may ready the next head) and decrements its CSR
    /// dependents (which may ready ops that were already at their queue
    /// head). Each op's start time depends only on previously scheduled
    /// ops, so the worklist order never affects the timeline —
    /// determinism needs no tie-breaking at all. A successful solve
    /// records its worklist as the replay trace (once per built index).
    ///
    /// Runs over the built index alone, so graph-built and flat-built
    /// workspaces share it. On a stall, returns how many ops ran (the
    /// consumed worklist prefix) for the caller's deadlock report.
    /// `RECORD` fills the per-op `start`/`end` arrays.
    fn run_events<const RECORD: bool>(
        &mut self,
        durations: Option<&[SimDuration]>,
    ) -> Result<SimDuration, usize> {
        let n = self.core.num_ops();
        let num_resources = self.core.num_resources;
        if let Some(d) = durations {
            assert_eq!(
                d.len(),
                n,
                "duration override must cover every op (got {}, graph has {n})",
                d.len()
            );
        }
        // Split borrows: the topology caches stay shared while the
        // per-solve buffers are written.
        let SolveScratch {
            core:
                ReplayCore {
                    indptr,
                    dependents,
                    trace,
                    ..
                },
            trace_ready,
            init_state,
            op_duration,
            queue_indptr,
            queue_arena,
            state,
            ready,
            start,
            end,
            res,
            ..
        } = self;
        // Without an override, the base durations cached at build time
        // serve as the "override": both paths run one slice-indexed loop.
        let ds: &[SimDuration] = durations.unwrap_or(op_duration);
        debug_assert_eq!(ds.len(), n);

        state.clear();
        state.extend_from_slice(init_state);
        // `end`/`start` are only read for ops scheduled *this* solve, so
        // stale values from a previous solve need no zeroing.
        if RECORD {
            start.resize(n, SimTime::ZERO);
            end.resize(n, SimTime::ZERO);
        }
        ready.clear();

        // Seed: cache every queue's head; heads with no pending deps are
        // ready.
        res.clear();
        for r in 0..num_resources {
            let (lo, hi) = (queue_indptr[r], queue_indptr[r + 1]);
            let head = if lo < hi {
                let first = queue_arena[lo as usize];
                if state[first.index()].pending == 0 {
                    ready.push(first);
                }
                first.0
            } else {
                u32::MAX
            };
            res.push(ResourceState {
                free_at: SimTime::ZERO,
                busy: SimDuration::ZERO,
                next_pos: lo,
                limit: hi,
                head,
            });
        }

        // The worklist is consumed FIFO via a cursor (never popped):
        // processing order then tracks the schedule's wave order, which
        // keeps the scattered per-op state accesses roughly sequential.
        // Each op enters the list exactly once, so it tops out at `n`.
        //
        // SAFETY (for the `get_unchecked` accesses below): every `OpId`
        // reaching the worklist comes from `queue_arena` or `dependents`.
        // Both index builders check every id they store `< n`: `build_csr`
        // copies ids the graph validated at `add_op`/`add_dep` time, and
        // `build_flat` asserts each dependency edge's ops `< n` (and fills
        // the queues with `0..n`). So every op index is `< n` — the length
        // of `state`, `ds`, and (when `RECORD`) `start`/`end` — and
        // `i + 1 <= n` indexes `indptr` (length `n + 1`). Every
        // `OpState::resource` was checked `< num_resources` by the same
        // builders (`add_op` for graphs, the resource assertion in
        // `build_flat`), so it indexes `res` (length `num_resources`).
        // `next_pos < rs.limit <= queue_arena.len()` guards the arena
        // read, and `indptr` is a prefix sum bounded by
        // `dependents.len()`. These invariants hold for any input
        // topology (they do not depend on acyclicity), and the debug
        // assertions below re-check them in debug builds.
        let mut cursor = 0usize;
        while cursor < ready.len() {
            let op_id = ready[cursor];
            cursor += 1;
            let i = op_id.index();
            debug_assert!(i < n);
            let st_i = unsafe { *state.get_unchecked(i) };
            debug_assert!((st_i.resource as usize) < num_resources);
            let rs = unsafe { res.get_unchecked_mut(st_i.resource as usize) };

            // `deps_ready` was folded in as each dependency finished, so
            // scheduling never re-walks the dependency list.
            let d = unsafe { *ds.get_unchecked(i) };
            let ready_at = rs.free_at.max(st_i.deps_ready);
            let finish = ready_at + d;
            rs.busy += d;
            if RECORD {
                unsafe {
                    *start.get_unchecked_mut(i) = ready_at;
                    *end.get_unchecked_mut(i) = finish;
                }
            }
            rs.free_at = finish;
            let next_pos = rs.next_pos + 1;
            rs.next_pos = next_pos;

            // The next op on this queue may now be schedulable.
            if next_pos < rs.limit {
                let next = unsafe { *queue_arena.get_unchecked(next_pos as usize) };
                rs.head = next.0;
                if unsafe { state.get_unchecked(next.index()) }.pending == 0 {
                    ready.push(next);
                }
            } else {
                rs.head = u32::MAX;
            }
            // Dependents lose one pending dep and absorb this end time;
            // those already heading their queue become ready. (An op is
            // pushed exactly once: the two conditions — counter reaching
            // zero and reaching the queue head — complete in some order,
            // and only the later event pushes.)
            let (lo, hi) = unsafe {
                (
                    *indptr.get_unchecked(i) as usize,
                    *indptr.get_unchecked(i + 1) as usize,
                )
            };
            debug_assert!(lo <= hi && hi <= dependents.len());
            for &dependent in unsafe { dependents.get_unchecked(lo..hi) } {
                let j = dependent.index();
                debug_assert!(j < n);
                let st = unsafe { state.get_unchecked_mut(j) };
                st.deps_ready = st.deps_ready.max(finish);
                st.pending -= 1;
                if st.pending == 0 {
                    let rq = st.resource as usize;
                    if unsafe { res.get_unchecked(rq) }.head == dependent.0 {
                        ready.push(dependent);
                    }
                }
            }
        }

        if cursor != n {
            return Err(cursor);
        }

        // A successful solve's consumed worklist is a replay trace for
        // any duration vector over this topology (processing order is
        // duration-independent); record it once per built index.
        if !*trace_ready {
            trace.clear();
            trace.extend_from_slice(ready);
            *trace_ready = true;
        }

        // Every resource's `free_at` is its last op's end time, so the
        // makespan is their max — no per-op max in the hot loop.
        let makespan = res.iter().map(|r| r.free_at).max().unwrap_or(SimTime::ZERO);
        Ok(makespan.duration_since(SimTime::ZERO))
    }

    /// The [`DeadlockError`] of a solve that stalled after `ran` ops.
    /// Reports the lowest-numbered resource with a blocked head — the
    /// same choice the reference round-robin solver makes, so errors are
    /// bit-identical too. The scheduled set is exactly the consumed
    /// worklist prefix (each op is pushed once and processed once).
    /// `deps_of` lists an op's dependencies and `resource_name` names a
    /// resource.
    fn deadlock<'d>(
        &self,
        ran: usize,
        deps_of: impl Fn(OpId) -> &'d [OpId],
        resource_name: impl Fn(usize) -> String,
    ) -> DeadlockError {
        let n = self.core.num_ops();
        let mut done = vec![false; n];
        for &op in &self.ready[..ran] {
            done[op.index()] = true;
        }
        let head = |r: usize| {
            let pos = self.res[r].next_pos;
            (pos < self.queue_indptr[r + 1]).then(|| self.queue_arena[pos as usize])
        };
        let (r, stuck) = (0..self.core.num_resources)
            .find_map(|r| head(r).map(|op| (r, op)))
            .expect("unscheduled ops must sit on some queue");
        let cycle = blocking_cycle_with(
            n,
            stuck,
            |op| deps_of(op).iter().copied().find(|d| !done[d.index()]),
            |op| {
                head(self.core.op_resource[op.index()] as usize)
                    .expect("a blocked op's queue is not drained")
            },
        );
        DeadlockError {
            stuck_op: stuck,
            resource: ResourceId(r as u32),
            resource_name: resource_name(r),
            cycle,
            unscheduled: n - ran,
        }
    }
}

/// A topology's replay workspace and nothing else: the CSR index, each
/// op's resource and a recorded replay trace, plus the replay loop's
/// timing buffers. Built graph-free by [`ReplayWorkspace::discover`];
/// none of the discovery event loop's buffers (pending counters,
/// queues, base durations, worklist) survive the build, so it holds
/// about a third of a [`SolveScratch`]'s bytes per op. Holding no
/// event-loop state, it can only replay, never solve: a trace is
/// always present, so replay needs no trace check.
#[derive(Debug, Clone)]
pub struct ReplayWorkspace {
    core: ReplayCore,
}

impl ReplayWorkspace {
    /// Builds the replay workspace of a topology given as flat arrays,
    /// with no [`OpGraph`]: op `i` runs on resource `op_resource[i]`,
    /// and each `(op, dep)` pair of `deps` makes `op` wait for `dep`.
    /// Ops count as submitted in index order, so each resource's FIFO
    /// queue is its ops in index order. The CSR index and queue arrays
    /// are exactly those [`Solver::new`] builds for the graph with the
    /// same ops and edges (in any edge order), and the replay trace is
    /// the one its first solve records.
    ///
    /// ```
    /// use bfpp_sim::{OpGraph, ReplayWorkspace, SimDuration, SolveStats, Solver};
    ///
    /// let ns = SimDuration::from_nanos;
    /// // Two streams; op 2 waits for op 1 on the other stream.
    /// let mut ws = ReplayWorkspace::discover(2, vec![0, 1, 0], &[(1, 0), (2, 1)]).unwrap();
    /// let mut stats = SolveStats { makespan: ns(0), busy: Vec::new(), peak_memory: None };
    /// ws.replay_stats_into(&[ns(5), ns(4), ns(3)], &mut stats);
    /// assert_eq!(stats.makespan, ns(12));
    ///
    /// // The same topology as a graph solves identically.
    /// let mut g: OpGraph<()> = OpGraph::new();
    /// let (a, b) = (g.add_resource("a"), g.add_resource("b"));
    /// let x = g.add_op(a, ns(5), &[], ());
    /// let y = g.add_op(b, ns(4), &[x], ());
    /// g.add_op(a, ns(3), &[y], ());
    /// assert_eq!(Solver::new(&g).solve_stats().unwrap(), stats);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DeadlockError`] if the topology admits no schedule. The
    /// flat arrays carry no resource names, so the error names the
    /// blocked resource by index (`"#3"`).
    ///
    /// # Panics
    ///
    /// Panics if a resource index is `>= num_resources`, or an op index
    /// in `deps` is `>= op_resource.len()`: the discovery and replay
    /// loops index by these without bounds checks.
    pub fn discover(
        num_resources: usize,
        op_resource: Vec<u32>,
        deps: &[(u32, u32)],
    ) -> Result<ReplayWorkspace, DeadlockError> {
        TRANSIENT_SCRATCH.with(|cell| {
            let mut s = cell.take();
            build_flat(&mut s, num_resources, op_resource, deps);
            let outcome = match s.run_events::<false>(None) {
                Ok(_) => {
                    s.trace_ready = false;
                    let core = &mut s.core;
                    Ok(ReplayWorkspace {
                        core: ReplayCore {
                            indptr: std::mem::take(&mut core.indptr),
                            dependents: std::mem::take(&mut core.dependents),
                            op_resource: {
                                let mut v = std::mem::take(&mut core.op_resource);
                                v.shrink_to_fit();
                                v
                            },
                            num_resources,
                            trace: std::mem::take(&mut core.trace),
                            ready_time: Vec::new(),
                            free: Vec::new(),
                            busy: Vec::new(),
                        },
                    })
                }
                Err(ran) => {
                    let forward = forward_deps(s.core.num_ops(), deps);
                    Err(s.deadlock(ran, |op| forward.row(op), |r| format!("#{r}")))
                }
            };
            cell.set(s);
            outcome
        })
    }

    /// Number of ops in the topology.
    pub fn num_ops(&self) -> usize {
        self.core.num_ops()
    }

    /// Re-times the recorded trace under `durations`, writing the
    /// makespan and per-resource busy sums into `stats` — bit-identical
    /// to [`SolveScratch::replay_stats_into`] on a workspace built for
    /// the same topology (both run one replay loop).
    ///
    /// # Panics
    ///
    /// Panics if `durations.len()` differs from the topology's op count.
    pub fn replay_stats_into(&mut self, durations: &[SimDuration], stats: &mut SolveStats) {
        stats.makespan = self
            .core
            .replay::<false>(durations, &mut Vec::new(), &mut Vec::new());
        stats.busy.clear();
        stats.busy.extend_from_slice(&self.core.busy);
        stats.peak_memory = None;
    }
}

/// Per-op dependency lists of a flat edge list, for deadlock reports.
struct ForwardDeps {
    indptr: Vec<u32>,
    deps: Vec<OpId>,
}

impl ForwardDeps {
    fn row(&self, op: OpId) -> &[OpId] {
        let i = op.index();
        &self.deps[self.indptr[i] as usize..self.indptr[i + 1] as usize]
    }
}

fn forward_deps(n: usize, edges: &[(u32, u32)]) -> ForwardDeps {
    let mut indptr = vec![0u32; n + 1];
    for &(op, _) in edges {
        indptr[op as usize + 1] += 1;
    }
    for i in 1..=n {
        indptr[i] += indptr[i - 1];
    }
    let mut cursor = indptr[..n].to_vec();
    let mut deps = vec![OpId(0); edges.len()];
    for &(op, dep) in edges {
        let c = &mut cursor[op as usize];
        deps[*c as usize] = OpId(dep);
        *c += 1;
    }
    ForwardDeps { indptr, deps }
}

/// A dense batch of duration vectors: one contiguous row of `n_ops`
/// durations per candidate, evaluated against a single prebuilt
/// [`SolveScratch`] by [`Solver::solve_batch`]. Row-major so the replay
/// loop streams each row sequentially.
#[derive(Debug, Clone, Default)]
pub struct DurationMatrix {
    n_ops: usize,
    rows: usize,
    data: Vec<SimDuration>,
}

impl DurationMatrix {
    /// An empty batch over topologies of `n_ops` operations.
    pub fn new(n_ops: usize) -> Self {
        DurationMatrix {
            n_ops,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Appends one zeroed row and returns it for filling.
    pub fn push_row(&mut self) -> &mut [SimDuration] {
        let lo = self.data.len();
        self.data.resize(lo + self.n_ops, SimDuration::ZERO);
        self.rows += 1;
        &mut self.data[lo..]
    }

    /// Number of rows (candidates) in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width (ops per candidate).
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// The `row`-th duration vector.
    pub fn row(&self, row: usize) -> &[SimDuration] {
        &self.data[row * self.n_ops..(row + 1) * self.n_ops]
    }

    /// Drops every row, keeping capacity.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.data.clear();
    }
}

/// An event-driven solver bound to one graph.
///
/// Construction builds the CSR reverse-dependency index once, O(V + E);
/// every subsequent solve reuses it. Because the solver borrows the
/// graph, the topology cannot change underneath it — which is what makes
/// the duration-only re-solve paths
/// ([`Solver::solve_with_durations`] and
/// [`Solver::solve_makespan_with_durations`]) sound: perturbation sweeps
/// lower a schedule once and re-solve it under many duration vectors.
#[derive(Debug)]
pub struct Solver<'g, T> {
    graph: &'g OpGraph<T>,
    s: SolveScratch,
}

impl<'g, T> Solver<'g, T> {
    /// Builds the solver (and its CSR index) for `graph`.
    pub fn new(graph: &'g OpGraph<T>) -> Self {
        Self::with_scratch(graph, SolveScratch::new())
    }

    /// As [`Solver::new`], reusing a previously allocated workspace
    /// (recovered from another solver via [`Solver::into_scratch`]).
    pub fn with_scratch(graph: &'g OpGraph<T>, mut scratch: SolveScratch) -> Self {
        build_csr(graph, &mut scratch);
        Solver { graph, s: scratch }
    }

    /// Rebinds a workspace whose CSR index was already built for a graph
    /// of this exact topology, skipping the O(V + E) rebuild — the
    /// warm-start fast path: a cached lowering keeps its built scratch
    /// alongside it, and every re-plan pays only the duration-only
    /// re-solve. Sound because solves never mutate the index (the same
    /// property that lets one solver run many duration vectors). A
    /// recorded replay trace travels with the workspace: rebinding to a
    /// graph of the same topology *class* (identical op/edge/queue
    /// structure, durations free to differ — the caller's contract here)
    /// keeps duration re-solves on the traced fast path.
    ///
    /// # Panics
    ///
    /// Panics if the workspace shape does not match `graph` (wrong op,
    /// edge or resource count) — that is a caller bug, never a
    /// recoverable condition.
    pub fn with_prebuilt_scratch(graph: &'g OpGraph<T>, scratch: SolveScratch) -> Self {
        assert_eq!(
            scratch.core.indptr.len(),
            graph.num_ops() + 1,
            "prebuilt scratch op count does not match the graph"
        );
        assert_eq!(
            scratch.core.dependents.len(),
            graph.num_edges(),
            "prebuilt scratch edge count does not match the graph"
        );
        assert_eq!(
            scratch.queue_indptr.len(),
            graph.resource_queues.len() + 1,
            "prebuilt scratch resource count does not match the graph"
        );
        Solver { graph, s: scratch }
    }

    /// Releases the workspace for reuse with another graph.
    pub fn into_scratch(self) -> SolveScratch {
        self.s
    }

    /// Solves the graph into a full [`Timeline`].
    ///
    /// # Errors
    ///
    /// Returns [`DeadlockError`] if the graph admits no schedule.
    pub fn solve(&mut self) -> Result<Timeline, DeadlockError> {
        let makespan = self.run(None, true)?;
        Ok(self.materialize(makespan))
    }

    /// Solves for the makespan only, skipping the per-op timeline.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    pub fn solve_makespan(&mut self) -> Result<SimDuration, DeadlockError> {
        self.run(None, false)
    }

    /// Re-solves the fixed topology with every op's duration replaced by
    /// `durations[op.index()]` — the duration-only fast path for
    /// perturbation sweeps (the graph is lowered once, then re-solved per
    /// severity/seed point).
    ///
    /// ```
    /// use bfpp_sim::{OpGraph, SimDuration, Solver};
    ///
    /// let ns = SimDuration::from_nanos;
    /// let mut g: OpGraph<&str> = OpGraph::new();
    /// let r = g.add_resource("gpu0.compute");
    /// let a = g.add_op(r, ns(5), &[], "a");
    /// let _b = g.add_op(r, ns(7), &[a], "b");
    ///
    /// let mut solver = Solver::new(&g);
    /// assert_eq!(solver.solve().unwrap().makespan(), ns(12));
    ///
    /// // Same topology, op "b" now three times slower — no re-lowering.
    /// let t = solver.solve_with_durations(&[ns(5), ns(21)]).unwrap();
    /// assert_eq!(t.makespan(), ns(26));
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != graph.num_ops()`.
    pub fn solve_with_durations(
        &mut self,
        durations: &[SimDuration],
    ) -> Result<Timeline, DeadlockError> {
        self.ensure_trace()?;
        let makespan = self.s.replay::<true>(durations);
        Ok(self.materialize(makespan))
    }

    /// Makespan-only variant of [`Solver::solve_with_durations`].
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != graph.num_ops()`.
    pub fn solve_makespan_with_durations(
        &mut self,
        durations: &[SimDuration],
    ) -> Result<SimDuration, DeadlockError> {
        self.ensure_trace()?;
        Ok(self.s.replay::<false>(durations))
    }

    /// Solves for the makespan and per-resource busy times — everything
    /// the measurement layer consumes — without materializing a per-op
    /// timeline.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    pub fn solve_stats(&mut self) -> Result<SolveStats, DeadlockError> {
        let makespan = self.run(None, false)?;
        Ok(self.stats(makespan))
    }

    /// As [`Solver::solve_stats`], with every op's duration replaced by
    /// `durations[op.index()]` — the cheapest re-solve in a perturbation
    /// sweep that still feeds the full measurement.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != graph.num_ops()`.
    pub fn solve_stats_with_durations(
        &mut self,
        durations: &[SimDuration],
    ) -> Result<SolveStats, DeadlockError> {
        self.ensure_trace()?;
        let makespan = self.s.replay::<false>(durations);
        Ok(SolveStats {
            makespan,
            busy: self.s.core.busy.clone(),
            peak_memory: None,
        })
    }

    /// Evaluates a whole batch of duration rows against this solver's
    /// topology: one full solve records the replay trace (its processing
    /// order is duration-independent, see `SolveScratch::replay`), then
    /// every row is re-timed in a tight, allocation-free loop. `f`
    /// receives each row index with its [`SolveStats`] (the stats buffer
    /// is reused across rows — copy out what must outlive the call).
    /// Results are bit-identical to calling
    /// [`Solver::solve_stats_with_durations`] once per row.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`] — a deadlocked topology fails once, before
    /// any row is evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `batch.n_ops()` differs from the graph's op count.
    pub fn solve_batch(
        &mut self,
        batch: &DurationMatrix,
        mut f: impl FnMut(usize, &SolveStats),
    ) -> Result<(), DeadlockError> {
        self.ensure_trace()?;
        let mut stats = SolveStats {
            makespan: SimDuration::ZERO,
            busy: Vec::new(),
            peak_memory: None,
        };
        for row in 0..batch.rows() {
            self.s.replay_stats_into(batch.row(row), &mut stats);
            f(row, &stats);
        }
        Ok(())
    }

    /// Ensures the scratch holds a replay trace, running one full solve
    /// (base durations, times discarded) if it does not. The event loop's
    /// processing order never reads times, so the trace recorded under
    /// base durations is valid for every duration vector.
    fn ensure_trace(&mut self) -> Result<(), DeadlockError> {
        if !self.s.trace_ready {
            self.run(None, false)?;
        }
        Ok(())
    }

    /// As [`Solver::solve_stats`], additionally evaluating `mem` against
    /// the solved op times to fill [`SolveStats::peak_memory`] — peak
    /// memory over time without materializing a [`Timeline`] (the op
    /// start/end times are read straight from the solver's scratch
    /// arrays).
    ///
    /// ```
    /// use bfpp_sim::memprof::{BufferClass, DeviceMemModel, EventEdge, MemEffect, MemorySpec};
    /// use bfpp_sim::{OpGraph, SimDuration, Solver};
    ///
    /// let mut g: OpGraph<&str> = OpGraph::new();
    /// let r = g.add_resource("gpu0.compute");
    /// let fwd = g.add_op(r, SimDuration::from_micros(5), &[], "fwd");
    /// let bwd = g.add_op(r, SimDuration::from_micros(9), &[fwd], "bwd");
    ///
    /// let mut model = DeviceMemModel::default();
    /// model.units[BufferClass::Checkpoints.index()] = 64.0;
    /// let spec = MemorySpec {
    ///     devices: vec![model],
    ///     effects: vec![
    ///         MemEffect { op: fwd, device: 0, class: BufferClass::Checkpoints, delta: 1, edge: EventEdge::End },
    ///         MemEffect { op: bwd, device: 0, class: BufferClass::Checkpoints, delta: -1, edge: EventEdge::End },
    ///     ],
    /// };
    /// let stats = Solver::new(&g).solve_stats_with_memory(&spec).unwrap();
    /// assert_eq!(stats.peak_memory.unwrap().peak_bytes(), 64.0);
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    pub fn solve_stats_with_memory(
        &mut self,
        mem: &MemorySpec,
    ) -> Result<SolveStats, DeadlockError> {
        let makespan = self.run(None, true)?;
        let mut stats = self.stats(makespan);
        stats.peak_memory = Some(self.scratch_peaks(mem));
        Ok(stats)
    }

    /// As [`Solver::solve_stats_with_memory`], with every op's duration
    /// replaced by `durations[op.index()]`. Useful for checking that
    /// memory peaks are invariant under duration perturbation (each
    /// device's compute stream is FIFO, so the per-device alloc/free
    /// *order* never changes — only the timestamps do).
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != graph.num_ops()`.
    pub fn solve_stats_with_durations_and_memory(
        &mut self,
        durations: &[SimDuration],
        mem: &MemorySpec,
    ) -> Result<SolveStats, DeadlockError> {
        self.ensure_trace()?;
        let makespan = self.s.replay::<true>(durations);
        let mut stats = SolveStats {
            makespan,
            busy: self.s.core.busy.clone(),
            peak_memory: None,
        };
        stats.peak_memory = Some(self.scratch_peaks(mem));
        Ok(stats)
    }

    /// Evaluates a memory spec against the start/end scratch arrays of
    /// the recording solve that just ran.
    fn scratch_peaks(&self, mem: &MemorySpec) -> MemoryPeaks {
        mem.peaks_from(|op| {
            (
                self.s.start[op.index()].as_nanos(),
                self.s.end[op.index()].as_nanos(),
            )
        })
    }

    /// Per-resource busy sums of the solve that just ran, accumulated in
    /// the hot loop. Plain integer sums of op durations — identical to
    /// summing a materialized timeline's per-op `end - start`.
    fn stats(&self, makespan: SimDuration) -> SolveStats {
        SolveStats {
            makespan,
            busy: self.s.res.iter().map(|r| r.busy).collect(),
            peak_memory: None,
        }
    }

    /// Runs the discovery event loop ([`SolveScratch::run_events`]) over
    /// this graph's index, naming the graph's resources and dependency
    /// lists in a deadlock report.
    fn run(
        &mut self,
        durations: Option<&[SimDuration]>,
        record_starts: bool,
    ) -> Result<SimDuration, DeadlockError> {
        let outcome = if record_starts {
            self.s.run_events::<true>(durations)
        } else {
            self.s.run_events::<false>(durations)
        };
        let graph = self.graph;
        outcome.map_err(|ran| {
            self.s.deadlock(
                ran,
                |op| graph.deps_of(op),
                |r| graph.resource_names[r].clone(),
            )
        })
    }

    /// Collects the per-op times of the last successful [`Solver::run`]
    /// (with `record_starts`) into a [`Timeline`].
    fn materialize(&self, makespan: SimDuration) -> Timeline {
        let graph = self.graph;
        let s = &self.s;
        let scheduled = (0..graph.num_ops())
            .map(|i| ScheduledOp {
                op: OpId(i as u32),
                resource: ResourceId(s.core.op_resource[i]),
                start: s.start[i],
                end: s.end[i],
            })
            .collect();
        Timeline {
            scheduled,
            makespan,
            num_resources: graph.num_resources(),
        }
    }
}

/// Builds the per-graph topology caches of `graph` into `scratch`
/// (reusing its buffers): the CSR reverse-dependency index
/// (`indptr`/`dependents` list, for each op, the ops that depend on it;
/// `init_pending` counts each op's dependencies) plus the flat per-op
/// resource/duration arrays and the flattened FIFO queue arena the hot
/// loop reads instead of the graph.
fn build_csr<T>(graph: &OpGraph<T>, scratch: &mut SolveScratch) {
    let n = graph.num_ops();
    let core = &mut scratch.core;
    // Any recorded replay trace belonged to the previous topology.
    core.trace.clear();
    scratch.trace_ready = false;
    core.num_resources = graph.resource_queues.len();
    core.indptr.clear();
    core.indptr.resize(n + 1, 0);
    scratch.init_state.clear();
    core.op_resource.clear();
    scratch.op_duration.clear();
    for id in graph.op_ids() {
        let op = graph.op(id);
        core.op_resource.push(op.resource().0);
        scratch.op_duration.push(op.duration());
    }
    scratch.queue_indptr.clear();
    scratch.queue_arena.clear();
    scratch.queue_indptr.push(0);
    for queue in &graph.resource_queues {
        scratch.queue_arena.extend_from_slice(queue);
        scratch.queue_indptr.push(scratch.queue_arena.len() as u32);
    }

    // Count in-edges per *dependency* (out-degree of the reverse graph)
    // and lay down the pristine per-solve state template.
    for id in graph.op_ids() {
        let deps = graph.deps_of(id);
        scratch.init_state.push(OpState {
            deps_ready: SimTime::ZERO,
            pending: deps.len() as u32,
            resource: core.op_resource[id.index()],
        });
        for d in deps {
            core.indptr[d.index() + 1] += 1;
        }
    }
    for i in 1..=n {
        core.indptr[i] += core.indptr[i - 1];
    }
    core.dependents.clear();
    core.dependents.resize(graph.num_edges(), OpId(0));
    // Fill using a moving cursor per row (cursor[i] ends at indptr[i+1]).
    scratch.fill_cursor.clear();
    scratch.fill_cursor.extend_from_slice(&core.indptr[..n]);
    for id in graph.op_ids() {
        for d in graph.deps_of(id) {
            let c = &mut scratch.fill_cursor[d.index()];
            core.dependents[*c as usize] = id;
            *c += 1;
        }
    }
}

/// [`build_csr`] for a topology given as flat arrays (see
/// [`ReplayWorkspace::discover`]), producing the same arrays `build_csr`
/// makes for the equivalent graph. Every index the unchecked loops will
/// read is checked here, since no [`OpGraph`] validated it: resources
/// `< num_resources`, dependency-edge ops `< n`. Base durations are zero
/// — the one solve a flat index gets is discovery, whose processing
/// order never reads times.
fn build_flat(
    scratch: &mut SolveScratch,
    num_resources: usize,
    op_resource: Vec<u32>,
    deps: &[(u32, u32)],
) {
    let n = op_resource.len();
    for &r in &op_resource {
        assert!(
            (r as usize) < num_resources,
            "op resource {r} out of range ({num_resources} resources)"
        );
    }
    for &(op, dep) in deps {
        assert!(
            (op as usize) < n && (dep as usize) < n,
            "dependency edge ({op} waits for {dep}) names an op outside 0..{n}"
        );
    }
    let core = &mut scratch.core;
    core.trace.clear();
    scratch.trace_ready = false;
    core.num_resources = num_resources;

    // FIFO queues: ops counted per resource, then scattered in index
    // (= submission) order, laying down the per-solve state template on
    // the same pass.
    scratch.queue_indptr.clear();
    scratch.queue_indptr.resize(num_resources + 1, 0);
    for &r in &op_resource {
        scratch.queue_indptr[r as usize + 1] += 1;
    }
    for r in 1..=num_resources {
        scratch.queue_indptr[r] += scratch.queue_indptr[r - 1];
    }
    scratch.queue_arena.clear();
    scratch.queue_arena.resize(n, OpId(0));
    scratch.fill_cursor.clear();
    scratch
        .fill_cursor
        .extend_from_slice(&scratch.queue_indptr[..num_resources]);
    scratch.init_state.clear();
    for (i, &resource) in op_resource.iter().enumerate() {
        let c = &mut scratch.fill_cursor[resource as usize];
        scratch.queue_arena[*c as usize] = OpId(i as u32);
        *c += 1;
        scratch.init_state.push(OpState {
            deps_ready: SimTime::ZERO,
            pending: 0,
            resource,
        });
    }

    // CSR reverse index and pending counts, as `build_csr` lays them.
    core.indptr.clear();
    core.indptr.resize(n + 1, 0);
    for &(op, dep) in deps {
        scratch.init_state[op as usize].pending += 1;
        core.indptr[dep as usize + 1] += 1;
    }
    for i in 1..=n {
        core.indptr[i] += core.indptr[i - 1];
    }
    core.dependents.clear();
    core.dependents.resize(deps.len(), OpId(0));
    scratch.fill_cursor.clear();
    scratch.fill_cursor.extend_from_slice(&core.indptr[..n]);
    // `build_csr` visits dependents in op-index order, so each row lists
    // them ascending; an edge added late (from an earlier op) arrives
    // out of that order here and is insertion-sorted into its row. Rows
    // are a few entries long.
    for &(op, dep) in deps {
        let row_start = core.indptr[dep as usize] as usize;
        let c = &mut scratch.fill_cursor[dep as usize];
        let mut at = *c as usize;
        *c += 1;
        while at > row_start && core.dependents[at - 1].0 > op {
            core.dependents[at] = core.dependents[at - 1];
            at -= 1;
        }
        core.dependents[at] = OpId(op);
    }
    scratch.op_duration.clear();
    scratch.op_duration.resize(n, SimDuration::ZERO);
    core.op_resource = op_resource;
}

thread_local! {
    /// Workspace reused by the transient-solve entry points
    /// ([`OpGraph::solve`] / [`OpGraph::solve_makespan`]) and by
    /// [`ReplayWorkspace::discover`], whose discovery buffers stay here
    /// while the replay arrays move out: without it, every call
    /// re-allocates (and, for large graphs, page-faults in) several MB
    /// of scratch. The cell retains the capacity of the largest topology
    /// solved on this thread — bounded and cheap for the graph sizes
    /// this workspace simulates.
    static TRANSIENT_SCRATCH: std::cell::Cell<SolveScratch> =
        std::cell::Cell::new(SolveScratch::new());
}

/// Runs `f` with a [`Solver`] borrowing the thread-local scratch.
fn with_transient_solver<T, R>(graph: &OpGraph<T>, f: impl FnOnce(&mut Solver<'_, T>) -> R) -> R {
    TRANSIENT_SCRATCH.with(|cell| {
        let mut solver = Solver::with_scratch(graph, cell.take());
        let result = f(&mut solver);
        cell.set(solver.into_scratch());
        result
    })
}

/// Solves the graph with a transient [`Solver`]: every resource executes
/// its queue in order; an op starts at `max(resource free, all deps done)`.
pub(crate) fn solve<T>(graph: &OpGraph<T>) -> Result<Timeline, DeadlockError> {
    with_transient_solver(graph, |solver| solver.solve())
}

/// Makespan-only transient solve (see [`solve`]).
pub(crate) fn solve_makespan<T>(graph: &OpGraph<T>) -> Result<SimDuration, DeadlockError> {
    with_transient_solver(graph, |solver| solver.solve_makespan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpGraph;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn serial_chain_sums() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let mut prev: Option<OpId> = None;
        for _ in 0..4 {
            let deps: Vec<OpId> = prev.into_iter().collect();
            prev = Some(g.add_op(r, ns(10), &deps, ()));
        }
        let t = g.solve().unwrap();
        assert_eq!(t.makespan(), ns(40));
        assert_eq!(g.solve_makespan().unwrap(), ns(40));
    }

    #[test]
    fn fifo_order_enforced_without_deps() {
        // Two ops on the same resource with no deps still serialize.
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let a = g.add_op(r, ns(10), &[], ());
        let b = g.add_op(r, ns(5), &[], ());
        let t = g.solve().unwrap();
        assert_eq!(t.end_of(a).as_nanos(), 10);
        assert_eq!(t.start_of(b).as_nanos(), 10);
        assert_eq!(t.makespan(), ns(15));
    }

    #[test]
    fn independent_resources_overlap() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        g.add_op(r1, ns(10), &[], ());
        g.add_op(r2, ns(8), &[], ());
        let t = g.solve().unwrap();
        assert_eq!(t.makespan(), ns(10));
    }

    #[test]
    fn cross_resource_dependency_waits() {
        let mut g: OpGraph<()> = OpGraph::new();
        let compute = g.add_resource("compute");
        let net = g.add_resource("net");
        let a = g.add_op(compute, ns(10), &[], ());
        let send = g.add_op(net, ns(4), &[a], ());
        let b = g.add_op(compute, ns(6), &[], ());
        let c = g.add_op(compute, ns(3), &[send], ());
        let t = g.solve().unwrap();
        // send waits for a; b overlaps with send; c waits for send end (14)
        // and compute free (16).
        assert_eq!(t.start_of(send).as_nanos(), 10);
        assert_eq!(t.start_of(b).as_nanos(), 10);
        assert_eq!(t.start_of(c).as_nanos(), 16);
        assert_eq!(t.makespan(), ns(19));
    }

    #[test]
    fn fifo_deadlock_detected() {
        // The head of resource r's queue depends on the op queued behind it.
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let head = g.add_op(r, ns(1), &[], ());
        let tail = g.add_op(r, ns(1), &[], ());
        g.add_dep(head, tail);
        let err = g.solve().unwrap_err();
        assert_eq!(err.stuck_op, head);
        assert_eq!(err.unscheduled, 2);
        assert!(err.to_string().contains("deadlock"));
        assert_eq!(err.cycle, vec![head, tail]);
    }

    #[test]
    fn deadlock_message_names_the_stuck_cycle() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("gpu0.compute");
        let head = g.add_op(r, ns(1), &[], ());
        let tail = g.add_op(r, ns(1), &[], ());
        g.add_dep(head, tail);
        let err = g.solve().unwrap_err();
        let msg = err.to_string();
        assert_eq!(
            msg,
            "schedule deadlock: op #0 at the head of resource #0 (\"gpu0.compute\") \
             can never start; blocking cycle: #0 -> #1 -> #0 (2 ops unscheduled)"
        );
        let _ = (head, tail);
    }

    #[test]
    fn cross_resource_cycle_is_reported_in_full() {
        // a (on r1) -> b (on r2) -> c (on r1, behind a): c waits for b's
        // dep a... build a 3-op loop through a FIFO edge.
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let x = g.add_op(r1, ns(1), &[], ());
        let y = g.add_op(r2, ns(1), &[x], ());
        g.add_dep(x, y); // x -> y -> x across resources
        let err = g.solve().unwrap_err();
        assert_eq!(err.cycle.len(), 2);
        assert!(err.cycle.contains(&x) && err.cycle.contains(&y));
        assert!(err.to_string().contains(&format!("#{}", x.index())));
        assert!(err.to_string().contains(&format!("#{}", y.index())));
        // The named resource matches the reported stuck head.
        assert_eq!(err.resource_name, g.resource_name(err.resource));
    }

    #[test]
    fn cyclic_dependency_detected() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, ns(1), &[], ());
        let b = g.add_op(r2, ns(1), &[a], ());
        g.add_dep(a, b); // a -> b -> a
        assert!(g.solve().is_err());
        assert!(g.solve_makespan().is_err());
    }

    #[test]
    fn ops_created_in_id_order_always_solve() {
        // When all deps point to earlier-created ops (as with the `deps`
        // argument), FIFO order == creation order guarantees solvability.
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let s = g.add_resource("s");
        let x0 = g.add_op(r, ns(1), &[], ());
        let x1 = g.add_op(s, ns(1), &[x0], ());
        let x2 = g.add_op(r, ns(1), &[x1], ());
        let t = g.solve().unwrap();
        assert_eq!(t.end_of(x2).as_nanos(), 3);
    }

    #[test]
    fn empty_graph_solves_to_zero() {
        let g: OpGraph<()> = OpGraph::new();
        let t = g.solve().unwrap();
        assert_eq!(t.makespan(), SimDuration::ZERO);
        assert!(t.scheduled_ops().is_empty());
        assert_eq!(g.solve_makespan().unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn zero_duration_ops_chain() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let a = g.add_op(r, ns(0), &[], ());
        let b = g.add_op(r, ns(0), &[a], ());
        let t = g.solve().unwrap();
        assert_eq!(t.makespan(), SimDuration::ZERO);
        assert_eq!(t.start_of(b), SimTime::ZERO);
    }

    #[test]
    fn solver_resolves_repeatedly_and_with_durations() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, ns(10), &[], ());
        let send = g.add_op(r2, ns(4), &[a], ());
        let c = g.add_op(r1, ns(3), &[send], ());
        let _ = c;
        let mut solver = Solver::new(&g);
        let t1 = solver.solve().unwrap();
        assert_eq!(t1.makespan(), ns(17));
        assert_eq!(solver.solve_makespan().unwrap(), ns(17));

        // Same topology, new durations: only the numbers move.
        let durs = [ns(20), ns(4), ns(3)];
        let t2 = solver.solve_with_durations(&durs).unwrap();
        assert_eq!(t2.makespan(), ns(27));
        assert_eq!(solver.solve_makespan_with_durations(&durs).unwrap(), ns(27));
        // Original durations still produce the original timeline.
        let t3 = solver.solve().unwrap();
        assert_eq!(t3.makespan(), ns(17));
        assert_eq!(t3.scheduled_ops(), t1.scheduled_ops());
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let mut scratch = SolveScratch::with_capacity(8, 8, 2);
        // First graph: a chain.
        let mut g1: OpGraph<()> = OpGraph::new();
        let r = g1.add_resource("r");
        let a = g1.add_op(r, ns(5), &[], ());
        g1.add_op(r, ns(5), &[a], ());
        assert_eq!(g1.solve_with(&mut scratch).unwrap().makespan(), ns(10));
        assert_eq!(g1.solve_makespan_with(&mut scratch).unwrap(), ns(10));
        // Second, differently shaped graph with the same scratch.
        let mut g2: OpGraph<()> = OpGraph::new();
        let r1 = g2.add_resource("a");
        let r2 = g2.add_resource("b");
        let x = g2.add_op(r1, ns(7), &[], ());
        let y = g2.add_op(r2, ns(2), &[x], ());
        g2.add_op(r1, ns(1), &[y], ());
        assert_eq!(g2.solve_with(&mut scratch).unwrap().makespan(), ns(10));
        // And a deadlocked graph leaves the scratch reusable.
        let mut g3: OpGraph<()> = OpGraph::new();
        let r = g3.add_resource("r");
        let h = g3.add_op(r, ns(1), &[], ());
        let t = g3.add_op(r, ns(1), &[], ());
        g3.add_dep(h, t);
        assert!(g3.solve_with(&mut scratch).is_err());
        assert_eq!(g1.solve_with(&mut scratch).unwrap().makespan(), ns(10));
    }

    /// A graph with cross-resource deps, FIFO contention and zero-length
    /// ops — enough structure that a wrong replay order would misplace
    /// some time.
    fn diamond() -> OpGraph<()> {
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, ns(10), &[], ());
        let b = g.add_op(r2, ns(4), &[a], ());
        let c = g.add_op(r1, ns(6), &[], ());
        let d = g.add_op(r2, ns(0), &[c], ());
        g.add_op(r1, ns(3), &[b, d], ());
        g
    }

    #[test]
    fn replay_timeline_matches_full_solve() {
        let g = diamond();
        let durs: Vec<SimDuration> = (0..g.num_ops() as u64).map(|i| ns(i * 7 + 1)).collect();
        // Oracle: a fresh solver whose first-ever solve uses the
        // overridden durations via the full event loop (no trace yet,
        // `ensure_trace` runs base durations first — so force the full
        // path by building a graph with those durations baked in).
        let mut g2: OpGraph<()> = OpGraph::new();
        let r1 = g2.add_resource("a");
        let r2 = g2.add_resource("b");
        let a = g2.add_op(r1, durs[0], &[], ());
        let b = g2.add_op(r2, durs[1], &[a], ());
        let c = g2.add_op(r1, durs[2], &[], ());
        let d = g2.add_op(r2, durs[3], &[c], ());
        g2.add_op(r1, durs[4], &[b, d], ());
        let oracle = g2.solve().unwrap();

        let mut solver = Solver::new(&g);
        let replayed = solver.solve_with_durations(&durs).unwrap();
        assert_eq!(replayed.scheduled_ops(), oracle.scheduled_ops());
        assert_eq!(replayed.makespan(), oracle.makespan());
        // Stats agree with the timeline-derived sums.
        let stats = solver.solve_stats_with_durations(&durs).unwrap();
        assert_eq!(stats.makespan, oracle.makespan());
        // And the base-duration solve still answers from pristine state.
        assert_eq!(solver.solve().unwrap().makespan(), ns(19));
    }

    #[test]
    fn solve_batch_matches_per_row_resolves() {
        let g = diamond();
        let n = g.num_ops();
        let mut batch = DurationMatrix::new(n);
        for row in 0..5u64 {
            let r = batch.push_row();
            for (i, d) in r.iter_mut().enumerate() {
                *d = ns((row * 13 + i as u64 * 5) % 23);
            }
        }
        let mut solver = Solver::new(&g);
        let mut got: Vec<SolveStats> = Vec::new();
        solver
            .solve_batch(&batch, |row, stats| {
                assert_eq!(row, got.len());
                got.push(stats.clone());
            })
            .unwrap();
        assert_eq!(got.len(), 5);
        for (row, stats) in got.iter().enumerate() {
            let want = Solver::new(&g)
                .solve_stats_with_durations(batch.row(row))
                .unwrap();
            assert_eq!(stats, &want);
        }
    }

    #[test]
    fn scratch_replay_is_graph_free() {
        let g = diamond();
        let mut solver = Solver::new(&g);
        let base = solver.solve_stats().unwrap();
        let durs: Vec<SimDuration> = g.op_ids().map(|id| g.op(id).duration()).collect();
        let mut scratch = solver.into_scratch();
        assert!(scratch.has_trace());
        assert_eq!(scratch.num_ops(), g.num_ops());
        let mut stats = SolveStats {
            makespan: SimDuration::ZERO,
            busy: Vec::new(),
            peak_memory: None,
        };
        // No graph in sight: the workspace alone re-times the topology.
        scratch.replay_stats_into(&durs, &mut stats);
        assert_eq!(stats, base);
    }

    #[test]
    fn batch_over_deadlocked_topology_fails_once() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let head = g.add_op(r, ns(1), &[], ());
        let tail = g.add_op(r, ns(1), &[], ());
        g.add_dep(head, tail);
        let mut batch = DurationMatrix::new(2);
        batch.push_row();
        let mut calls = 0;
        let err = Solver::new(&g).solve_batch(&batch, |_, _| calls += 1);
        assert!(err.is_err());
        assert_eq!(calls, 0);
    }

    #[test]
    fn empty_graph_batch_rows_all_zero() {
        let g: OpGraph<()> = OpGraph::new();
        let mut batch = DurationMatrix::new(0);
        batch.push_row();
        batch.push_row();
        let mut rows = 0;
        Solver::new(&g)
            .solve_batch(&batch, |_, stats| {
                assert_eq!(stats.makespan, SimDuration::ZERO);
                rows += 1;
            })
            .unwrap();
        assert_eq!(rows, 2);
    }

    #[test]
    #[should_panic(expected = "duration override must cover every op")]
    fn wrong_duration_len_panics() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        g.add_op(r, ns(1), &[], ());
        let mut solver = Solver::new(&g);
        let _ = solver.solve_with_durations(&[]);
    }

    /// A random topology built both as a graph and as flat arrays: ops
    /// on `resources` streams with creation-time deps on earlier ops,
    /// plus late edges in any direction (which may deadlock).
    fn random_topology(seed: u64, late: usize) -> (OpGraph<()>, Vec<u32>, Vec<(u32, u32)>) {
        let mut x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let resources = 1 + next(4) as usize;
        let n = 1 + next(40) as usize;
        let mut g: OpGraph<()> = OpGraph::new();
        let rids: Vec<ResourceId> = (0..resources)
            .map(|r| g.add_resource(format!("r{r}")))
            .collect();
        let mut op_resource = Vec::new();
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            let r = next(resources as u64) as u32;
            let deps: Vec<OpId> = (0..next(3))
                .filter(|_| i > 0)
                .map(|_| OpId(next(u64::from(i)) as u32))
                .collect();
            g.add_op(rids[r as usize], ns(1 + next(9)), &deps, ());
            op_resource.push(r);
            edges.extend(deps.iter().map(|d| (i, d.0)));
        }
        for _ in 0..late {
            let (op, dep) = (next(n as u64) as u32, next(n as u64) as u32);
            if op != dep {
                g.add_dep(OpId(op), OpId(dep));
                edges.push((op, dep));
            }
        }
        (g, op_resource, edges)
    }

    #[test]
    fn flat_index_matches_graph_index() {
        for seed in 0..200 {
            let (g, op_resource, edges) = random_topology(seed, (seed % 4) as usize);
            let mut from_graph = SolveScratch::new();
            build_csr(&g, &mut from_graph);
            let mut flat = SolveScratch::new();
            build_flat(&mut flat, g.num_resources(), op_resource, &edges);
            assert_eq!(flat.core.indptr, from_graph.core.indptr, "seed {seed}");
            assert_eq!(
                flat.core.dependents, from_graph.core.dependents,
                "seed {seed}"
            );
            assert_eq!(flat.core.op_resource, from_graph.core.op_resource);
            assert_eq!(flat.core.num_resources, from_graph.core.num_resources);
            assert_eq!(flat.queue_indptr, from_graph.queue_indptr, "seed {seed}");
            assert_eq!(flat.queue_arena, from_graph.queue_arena, "seed {seed}");
            let init = |s: &SolveScratch| {
                s.init_state
                    .iter()
                    .map(|st| (st.pending, st.resource))
                    .collect::<Vec<_>>()
            };
            assert_eq!(init(&flat), init(&from_graph), "seed {seed}");
        }
    }

    #[test]
    fn discovered_workspace_replays_like_the_graph_solver() {
        let mut deadlocks = 0;
        for seed in 0..300 {
            let (g, op_resource, edges) = random_topology(seed, (seed % 5) as usize);
            let mut solver = Solver::new(&g);
            let full = solver.solve_stats();
            let flat = ReplayWorkspace::discover(g.num_resources(), op_resource, &edges);
            match (full, flat) {
                (Ok(full), Ok(mut ws)) => {
                    let scratch = solver.into_scratch();
                    assert_eq!(ws.core.trace, scratch.core.trace, "seed {seed}");
                    assert_eq!(ws.num_ops(), g.num_ops());
                    assert_eq!(ws.core.num_resources, g.num_resources());
                    let durs: Vec<SimDuration> = g.op_ids().map(|id| g.op(id).duration()).collect();
                    let mut stats = SolveStats {
                        makespan: SimDuration::ZERO,
                        busy: Vec::new(),
                        peak_memory: None,
                    };
                    ws.replay_stats_into(&durs, &mut stats);
                    assert_eq!(stats, full, "seed {seed}");
                }
                (Err(graph_err), Err(flat_err)) => {
                    deadlocks += 1;
                    assert_eq!(flat_err.stuck_op, graph_err.stuck_op, "seed {seed}");
                    assert_eq!(flat_err.resource, graph_err.resource);
                    assert_eq!(flat_err.cycle, graph_err.cycle, "seed {seed}");
                    assert_eq!(flat_err.unscheduled, graph_err.unscheduled);
                    assert_eq!(
                        flat_err.resource_name,
                        format!("#{}", flat_err.resource.index())
                    );
                }
                (full, flat) => panic!("seed {seed}: graph {full:?} vs flat {:?}", flat.err()),
            }
        }
        assert!(deadlocks > 0, "some random topologies deadlock");
    }

    #[test]
    #[should_panic(expected = "names an op outside")]
    fn discover_rejects_an_out_of_range_dependency() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], &[(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn discover_rejects_an_out_of_range_resource() {
        let _ = ReplayWorkspace::discover(2, vec![0, 2], &[(1, 0)]);
    }
}
