//! The deterministic timeline solver.
//!
//! One immutable [`ReplayWorkspace`] serves graph solves and graph-free
//! class workspaces alike. Its index is forward: each op's resource and
//! its dependency row, in the order the deps were added. *Discovery* lets
//! every resource drain its FIFO queue and parks it on the first
//! unfinished dependency of its head, recording a processing order
//! without reading a duration. *Replay*, the only timing loop, walks that
//! order and pulls each op's start from its resource and its
//! dependencies' end times, writing into caller or per-thread buffers.
//! Both passes are O(V + E + R). The produced timeline is
//! *bit-identical* to the reference round-robin solver
//! ([`crate::reference`], kept as a test/bench oracle), because an op's
//! start time — `max(resource free, all deps done)` — is a pure function
//! of its resource predecessor and its deps, so no valid processing order
//! can change any time. See DESIGN.md §9.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::graph::{OpGraph, OpId, ResourceId};
use crate::memprof::{MemoryPeaks, MemorySpec};
use crate::perturb::{Draws, SlotDraw};
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
/// point; the solver core walks the same [`blocking_cycle_with`], so
/// their reports agree exactly.
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

/// "No op" and "no resource" in discovery's links.
const NONE: u32 = u32::MAX;
/// A finished op's [`Discovery::waiters`] entry.
const DONE: u32 = u32::MAX - 1;

/// One resource's discovery state.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// The op at the head of its FIFO queue (`NONE` once drained).
    head: u32,
    /// Where in `deps` the head's done-check resumes: the dep it parked
    /// on, or its row start.
    scan: u32,
    /// The next resource parked on the same op (`NONE` ends the chain).
    next_parked: u32,
}

/// Discovery's scratch, reused across topologies. Nothing here outlives
/// a pass except in a stalled one, where it holds the done set and each
/// resource's head for the deadlock report.
#[derive(Debug, Clone, Default)]
struct Discovery {
    /// Per op, the next op on its resource (`NONE` at the tail): a
    /// resource's FIFO queue is its ops in index order.
    next: Vec<u32>,
    /// Per op, `DONE` once it ran; before that, the first resource parked
    /// on it (`NONE` if none), the rest chained by `Stream::next_parked`.
    waiters: Vec<u32>,
    /// Per-resource state.
    streams: Vec<Stream>,
    /// Resources ready to drain, first in first out; each appears at
    /// most once.
    ready: VecDeque<u32>,
}

/// A topology's replay workspace: the forward dependency index — each
/// op's resource and its dependency row, in the order the deps were
/// added — and a recorded replay trace. Built graph-free by
/// [`ReplayWorkspace::discover`], it never changes afterwards: replay
/// reads it through `&self` and writes its timing into per-thread
/// scratch, so one workspace is shared by any number of threads with no
/// lock. It holds about 12 bytes per op plus 4 per dependency, and one
/// more per op once [`ReplayWorkspace::with_kinds`] gives each op a
/// duration kind. It can only replay, never solve: a trace is always
/// present, so replay needs no trace check. A [`SolveScratch`] keeps
/// one for the graph it was last built for, whose trace its first solve
/// discovers.
#[derive(Debug, Clone, Default)]
pub struct ReplayWorkspace {
    /// Per-op resource index.
    op_resource: Vec<u32>,
    /// Row pointers: op `i` waits for
    /// `deps[dep_indptr[i] .. dep_indptr[i + 1]]`.
    dep_indptr: Vec<u32>,
    /// Dependency rows, each in the order its deps were added.
    deps: Vec<u32>,
    /// Number of resources in the topology.
    num_resources: usize,
    /// Discovery's processing order, a *replay trace*: every op follows
    /// its deps and its resource predecessor. Discovery never reads a
    /// duration, so one trace is a valid schedule order for *any*
    /// duration vector over this topology.
    trace: Vec<u32>,
    /// Per-op duration kind, each `< num_kinds`: the row of a
    /// [`DurationTable`] an op reads. Empty until
    /// [`ReplayWorkspace::with_kinds`] sets it.
    op_kind: Vec<u8>,
    /// Rows of this workspace's duration tables (0 without kinds).
    num_kinds: usize,
}

/// One replay's durations as a (kind × resource) table, for a workspace
/// whose ops carry kinds ([`ReplayWorkspace::with_kinds`]): op `i` of
/// kind `k` on resource `r` takes `cells[k * R + r]`, where `R` is the
/// workspace's resource count. With `draws`, that cell is the op's
/// *base* duration and the replay draws the op from it as
/// [`Draws::perturb`]`(cell, slots[k * R + r], i)`: per-op randomness
/// salted by the op index, as [`crate::Perturbation::perturb`] salts it.
/// Without per-op randomness every op of one kind on one resource takes
/// the same duration, so a whole replay reads
/// [`ReplayWorkspace::table_len`] cells instead of one row entry per
/// op.
#[derive(Debug, Clone, Copy)]
pub struct DurationTable<'a> {
    /// One duration per (kind, resource) cell, kind-major.
    pub cells: &'a [SimDuration],
    /// Under per-op randomness: the draws, and each cell's slot draw
    /// (as many as `cells`).
    pub draws: Option<(Draws<'a>, &'a [SlotDraw])>,
}

/// Where the replay loop reads each op's duration: one row entry per op
/// ([`Row`]) or a kinded table cell ([`Cells`], [`Drawn`]). A workspace
/// method makes each source and checks its lengths against that
/// workspace in O(1) (`row`, `cells`, [`Cells::drawn`]), so the loop
/// reads a source without bounds checks.
trait DurationSource {
    /// Op `i`'s duration; `r` is its resource.
    ///
    /// # Safety
    ///
    /// `i` must be an op (`< n`) and `r` a resource (`< num_resources`)
    /// of the workspace that made the source.
    unsafe fn at(&self, i: usize, r: usize) -> SimDuration;
}

/// One duration per op, `n` long.
#[derive(Clone, Copy)]
struct Row<'a>(&'a [SimDuration]);

impl DurationSource for Row<'_> {
    #[inline(always)]
    unsafe fn at(&self, i: usize, _r: usize) -> SimDuration {
        // SAFETY: `i < n`, the row's length (`ReplayWorkspace::row`).
        *self.0.get_unchecked(i)
    }
}

/// A [`DurationTable`]'s cells, `num_kinds × num_resources` long, read
/// through the workspace's op kinds (`n` long, each `< num_kinds`).
#[derive(Clone, Copy)]
struct Cells<'a> {
    op_kind: &'a [u8],
    num_resources: usize,
    cells: &'a [SimDuration],
}

impl<'a> Cells<'a> {
    /// Op `i`'s cell index: `kind * num_resources + r`.
    ///
    /// # Safety
    ///
    /// As [`DurationSource::at`]; the index is then below
    /// `num_kinds * num_resources`.
    #[inline(always)]
    unsafe fn cell(&self, i: usize, r: usize) -> usize {
        // SAFETY: `i < n`, the kind array's length (`with_kinds`); the
        // kind is `< num_kinds` and `r < num_resources`.
        *self.op_kind.get_unchecked(i) as usize * self.num_resources + r
    }

    /// These cells as base durations, each op drawn through `draws`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one slot draw per cell.
    fn drawn(self, draws: Draws<'a>, slots: &'a [SlotDraw]) -> Drawn<'a> {
        assert_eq!(slots.len(), self.cells.len(), "one slot draw per cell");
        Drawn {
            cells: self,
            draws,
            slots,
        }
    }
}

impl DurationSource for Cells<'_> {
    #[inline(always)]
    unsafe fn at(&self, i: usize, r: usize) -> SimDuration {
        // SAFETY: the cell index is `< num_kinds * num_resources`, the
        // cells' length (`ReplayWorkspace::cells`).
        *self.cells.get_unchecked(self.cell(i, r))
    }
}

/// Base-duration cells and their slot draws (as long as the cells):
/// each op is drawn with its index as salt.
#[derive(Clone, Copy)]
struct Drawn<'a> {
    cells: Cells<'a>,
    draws: Draws<'a>,
    slots: &'a [SlotDraw],
}

impl DurationSource for Drawn<'_> {
    #[inline(always)]
    unsafe fn at(&self, i: usize, r: usize) -> SimDuration {
        // SAFETY: as `Cells::at`; the slot draws are as many as the
        // cells (`Cells::drawn`).
        let c = self.cells.cell(i, r);
        self.draws.perturb(
            *self.cells.cells.get_unchecked(c),
            *self.slots.get_unchecked(c),
            i as u64,
        )
    }
}

/// The timing buffers of one replay, reused across replays and
/// topologies: a [`SolveScratch`] owns one set, and
/// [`ReplayWorkspace::replay_stats_into`] borrows the per-thread
/// scratch's.
#[derive(Debug, Clone, Default)]
struct ReplayBuffers {
    /// Per-op end time of the latest replay.
    end: Vec<SimTime>,
    /// Per-resource free time.
    free: Vec<SimTime>,
    /// Per-resource busy sum.
    busy: Vec<SimDuration>,
    /// Per-op start time, written only by a recording replay (a full
    /// timeline or a memory peak is wanted).
    start: Vec<SimTime>,
}

impl ReplayWorkspace {
    /// Builds the replay workspace of a topology given as flat arrays,
    /// with no [`OpGraph`]: op `i` runs on resource `op_resource[i]` and
    /// waits for the ops `deps[dep_indptr[i] .. dep_indptr[i + 1]]`. Ops
    /// count as submitted in index order, so each resource's FIFO queue
    /// is its ops in index order. The arrays become the workspace's
    /// index as they are; one discovery pass records the replay trace.
    /// With rows in [`OpGraph::deps_of`] order this is exactly what
    /// [`Solver::new`] builds and discovers for the same graph.
    ///
    /// ```
    /// use bfpp_sim::{OpGraph, ReplayWorkspace, SimDuration, SolveStats, Solver};
    ///
    /// let ns = SimDuration::from_nanos;
    /// // Ops 0 and 2 run on stream 0, op 1 on stream 1. Rows: op 0 waits
    /// // for nothing, op 1 for op 0, op 2 for op 1.
    /// let (op_resource, dep_indptr, deps) = (vec![0, 1, 0], vec![0, 0, 1, 2], vec![0, 1]);
    /// let ws = ReplayWorkspace::discover(2, op_resource, dep_indptr, deps).unwrap();
    /// let durations = [ns(5), ns(4), ns(3)];
    /// let mut stats = SolveStats { makespan: ns(0), busy: Vec::new(), peak_memory: None };
    /// ws.replay_stats_into(&durations, &mut stats);
    /// assert_eq!(stats.makespan, ns(12));
    ///
    /// // The same topology as a graph solves identically.
    /// let mut g: OpGraph<()> = OpGraph::new();
    /// let (a, b) = (g.add_resource("a"), g.add_resource("b"));
    /// let x = g.add_op(a, ns(5), &[], ());
    /// let y = g.add_op(b, ns(4), &[x], ());
    /// g.add_op(a, ns(3), &[y], ());
    /// assert_eq!(Solver::new(&g).solve_stats_with_durations(&durations).unwrap(), stats);
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
    /// The discovery and replay loops index by these arrays without
    /// bounds checks, so this panics unless every resource is
    /// `< num_resources`, `dep_indptr` has `op_resource.len() + 1`
    /// entries, starts at 0, never decreases and ends at `deps.len()`,
    /// and every dep is `< op_resource.len()`.
    pub fn discover(
        num_resources: usize,
        op_resource: Vec<u32>,
        dep_indptr: Vec<u32>,
        deps: Vec<u32>,
    ) -> Result<ReplayWorkspace, DeadlockError> {
        let n = op_resource.len();
        if let Some(r) = op_resource.iter().find(|&&r| r as usize >= num_resources) {
            panic!("op resource {r} out of range ({num_resources} resources)");
        }
        assert_eq!(
            dep_indptr.len(),
            n + 1,
            "dep_indptr needs one entry per op plus one ({n} ops)"
        );
        assert_eq!(dep_indptr[0], 0, "dep_indptr must start at 0");
        if let Some(i) = dep_indptr.windows(2).position(|w| w[1] < w[0]) {
            panic!("dep_indptr decreases at op {i}");
        }
        assert_eq!(
            dep_indptr[n] as usize,
            deps.len(),
            "dep_indptr must end at deps.len()"
        );
        if let Some(d) = deps.iter().find(|&&d| d as usize >= n) {
            panic!("dependency {d} names an op outside 0..{n}");
        }
        let mut ws = ReplayWorkspace {
            op_resource,
            dep_indptr,
            deps,
            num_resources,
            trace: Vec::with_capacity(n),
            op_kind: Vec::new(),
            num_kinds: 0,
        };
        with_transient_scratch(|s| {
            if ws.record_trace(&mut s.discovery) {
                Ok(())
            } else {
                Err(ws.deadlock(&s.discovery, |r| format!("#{r}")))
            }
        })?;
        Ok(ws)
    }

    /// Number of ops in the topology.
    pub fn num_ops(&self) -> usize {
        self.op_resource.len()
    }

    /// Each op's resource index, in op order.
    pub fn op_resources(&self) -> &[u32] {
        &self.op_resource
    }

    /// The ops op `op` waits for, in the order they were given.
    ///
    /// # Panics
    ///
    /// Panics if `op >= self.num_ops()`.
    pub fn deps_of(&self, op: usize) -> &[u32] {
        &self.deps[self.dep_indptr[op] as usize..self.dep_indptr[op + 1] as usize]
    }

    /// This workspace with each op's duration kind, so that it replays
    /// [`DurationTable`]s of `num_kinds` rows. The kinds are checked
    /// here, once: the table replay indexes by them without bounds
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics unless `num_kinds <= 256` (a `u8` kind names no more
    /// rows) and `op_kind` holds one kind per op, each `< num_kinds`.
    pub fn with_kinds(mut self, num_kinds: usize, op_kind: Vec<u8>) -> ReplayWorkspace {
        // Discovery keeps `num_resources` below `u32::MAX`, so the table
        // length cannot overflow.
        assert!(num_kinds <= 256, "at most 256 op kinds, got {num_kinds}");
        assert_eq!(
            op_kind.len(),
            self.num_ops(),
            "op_kind needs one kind per op"
        );
        if let Some(k) = op_kind.iter().find(|&&k| k as usize >= num_kinds) {
            panic!("op kind {k} out of range ({num_kinds} kinds)");
        }
        self.op_kind = op_kind;
        self.num_kinds = num_kinds;
        self
    }

    /// Each op's duration kind, in op order (empty without kinds).
    pub fn op_kinds(&self) -> &[u8] {
        &self.op_kind
    }

    /// Cells of this workspace's [`DurationTable`]s: kinds × resources.
    pub fn table_len(&self) -> usize {
        self.num_kinds * self.num_resources
    }

    /// Re-times the recorded trace under `durations`, writing the
    /// makespan and per-resource busy sums into `stats` — bit-identical
    /// to [`SolveScratch::replay_stats_into`] on a scratch built for the
    /// same topology (both run one replay loop). The timing buffers are
    /// the calling thread's solver scratch, so concurrent callers share
    /// one workspace without a lock, and a caller looping over many
    /// duration rows allocates nothing once the buffers have grown.
    ///
    /// # Panics
    ///
    /// Panics if `durations.len()` differs from the topology's op count.
    pub fn replay_stats_into(&self, durations: &[SimDuration], stats: &mut SolveStats) {
        self.replay_into(self.row(durations), stats);
    }

    /// As [`ReplayWorkspace::replay_stats_into`], with each op's
    /// duration read from `table` — bit-identical to replaying the row
    /// [`ReplayWorkspace::table_durations`] expands it to, through the
    /// same loop.
    ///
    /// # Panics
    ///
    /// Panics if the workspace has no op kinds, or if `table` does not
    /// hold [`ReplayWorkspace::table_len`] cells (and as many slot
    /// draws, with draws).
    pub fn replay_table_into(&self, table: DurationTable<'_>, stats: &mut SolveStats) {
        let cells = self.cells(table.cells);
        match table.draws {
            None => self.replay_into(cells, stats),
            Some((draws, slots)) => self.replay_into(cells.drawn(draws, slots), stats),
        }
    }

    /// Each op's duration under `table`, in op order, through the same
    /// per-op read as [`ReplayWorkspace::replay_table_into`]: for
    /// comparing a table with per-op duration rows.
    ///
    /// # Panics
    ///
    /// As [`ReplayWorkspace::replay_table_into`].
    pub fn table_durations(&self, table: DurationTable<'_>, out: &mut Vec<SimDuration>) {
        let cells = self.cells(table.cells);
        out.clear();
        match table.draws {
            None => self.expand(cells, out),
            Some((draws, slots)) => self.expand(cells.drawn(draws, slots), out),
        }
    }

    /// `durations` as a replay source, checked to cover every op.
    fn row<'a>(&self, durations: &'a [SimDuration]) -> Row<'a> {
        let n = self.num_ops();
        assert_eq!(
            durations.len(),
            n,
            "duration override must cover every op (got {}, topology has {n})",
            durations.len()
        );
        Row(durations)
    }

    /// `cells` as a replay source, checked to be one table of this
    /// workspace's kinds and resources.
    fn cells<'a>(&'a self, cells: &'a [SimDuration]) -> Cells<'a> {
        assert_eq!(
            self.op_kind.len(),
            self.num_ops(),
            "a table replay needs op kinds"
        );
        assert_eq!(
            cells.len(),
            self.table_len(),
            "a duration table has one cell per kind and resource"
        );
        Cells {
            op_kind: &self.op_kind,
            num_resources: self.num_resources,
            cells,
        }
    }

    /// Each op's duration from `durations`, in op order.
    fn expand(&self, durations: impl DurationSource, out: &mut Vec<SimDuration>) {
        out.extend(
            self.op_resource
                .iter()
                .enumerate()
                // SAFETY: `i < n`, and `r` is an `op_resource` entry,
                // `< num_resources` (see `replay`).
                .map(|(i, &r)| unsafe { durations.at(i, r as usize) }),
        );
    }

    /// One replay on the calling thread's buffers, its makespan and busy
    /// sums written to `stats`.
    fn replay_into(&self, durations: impl DurationSource, stats: &mut SolveStats) {
        with_transient_scratch(|s| {
            stats.makespan = self.replay::<false>(durations, &mut s.bufs);
            stats.busy.clear();
            stats.busy.extend_from_slice(&s.bufs.busy);
        });
        stats.peak_memory = None;
    }

    /// Discovery: records in `trace` an order in which every op follows
    /// its deps and its resource predecessor, reading no duration. A
    /// resource drains its FIFO queue while every dep of its head is
    /// done. Otherwise it parks on the head's first unfinished dep, and
    /// that dep's completion re-queues it, resuming the scan at the dep
    /// it parked on. This is the reference round-robin algorithm made
    /// linear: every dep entry is passed once and checked once more per
    /// park, so the pass is O(V + E + R) for any in-degree. At any moment
    /// each resource is running, parked on one op, or queued once.
    ///
    /// Returns whether every op ran. A stalled pass stops at the maximal
    /// set of ops that can run — the set Kahn's algorithm and the
    /// reference reach too — and leaves it in `ds` for
    /// [`ReplayWorkspace::deadlock`].
    fn record_trace(&mut self, ds: &mut Discovery) -> bool {
        let n = self.num_ops();
        let num_resources = self.num_resources;
        assert!(
            num_resources < DONE as usize,
            "resource indices must stay below discovery's markers"
        );
        let ReplayWorkspace {
            op_resource,
            dep_indptr,
            deps,
            trace,
            ..
        } = self;
        let Discovery {
            next,
            waiters,
            streams,
            ready,
        } = ds;
        streams.clear();
        streams.resize(
            num_resources,
            Stream {
                head: NONE,
                scan: 0,
                next_parked: NONE,
            },
        );
        // Link each queue back to front, so every head ends at its
        // resource's lowest op.
        next.clear();
        next.resize(n, NONE);
        for (i, &r) in op_resource.iter().enumerate().rev() {
            let head = &mut streams[r as usize].head;
            next[i] = *head;
            *head = i as u32;
        }
        waiters.clear();
        waiters.resize(n, NONE);
        ready.clear();
        for (r, stream) in streams.iter_mut().enumerate() {
            if stream.head != NONE {
                stream.scan = dep_indptr[stream.head as usize];
                ready.push_back(r as u32);
            }
        }
        trace.clear();
        trace.reserve(n);

        while let Some(r) = ready.pop_front() {
            let r = r as usize;
            let Stream { mut head, scan, .. } = streams[r];
            let mut at = scan as usize;
            loop {
                let h = head as usize;
                let hi = dep_indptr[h + 1] as usize;
                while at < hi && waiters[deps[at] as usize] == DONE {
                    at += 1;
                }
                if at < hi {
                    // Park on the unfinished dep.
                    let blocker = &mut waiters[deps[at] as usize];
                    streams[r] = Stream {
                        head,
                        scan: at as u32,
                        next_parked: *blocker,
                    };
                    *blocker = r as u32;
                    break;
                }
                trace.push(head);
                // Re-queue every resource parked on the op that just ran.
                let mut woken = std::mem::replace(&mut waiters[h], DONE);
                while woken != NONE {
                    ready.push_back(woken);
                    woken = streams[woken as usize].next_parked;
                }
                head = next[h];
                if head == NONE {
                    streams[r].head = NONE;
                    break;
                }
                at = dep_indptr[head as usize] as usize;
            }
        }
        trace.len() == n
    }

    /// The [`DeadlockError`] of a stalled discovery, named through
    /// `resource_name`. The lowest-numbered resource with ops left
    /// reports its head, as the reference round-robin solver does, and
    /// the blocking cycle follows each op's first unfinished dep, else
    /// its resource's head. Discovery stalls at the same done set as the
    /// reference, so the reports are bit-identical.
    fn deadlock(&self, ds: &Discovery, resource_name: impl Fn(usize) -> String) -> DeadlockError {
        let n = self.num_ops();
        let head = |r: usize| {
            let h = ds.streams[r].head;
            (h != NONE).then_some(OpId(h))
        };
        let (r, stuck) = (0..self.num_resources)
            .find_map(|r| head(r).map(|op| (r, op)))
            .expect("unscheduled ops must sit on some queue");
        let cycle = blocking_cycle_with(
            n,
            stuck,
            |op| {
                self.deps_of(op.index())
                    .iter()
                    .find(|&&d| ds.waiters[d as usize] != DONE)
                    .map(|&d| OpId(d))
            },
            |op| {
                head(self.op_resource[op.index()] as usize)
                    .expect("a blocked op's queue is not drained")
            },
        );
        DeadlockError {
            stuck_op: stuck,
            resource: ResourceId(r as u32),
            resource_name: resource_name(r),
            cycle,
            unscheduled: n - self.trace.len(),
        }
    }

    /// Replay, the only timing loop: walks the recorded trace once and
    /// starts each op at `max(resource free, end of each dep)`, pulling
    /// both from ops that precede it in the trace. An op's start is a
    /// pure function of its resource predecessor and its deps, so these
    /// times are those of every valid processing order — the reference
    /// solver's included — bit for bit. Each op's duration comes from
    /// `durations`, a row or a kinded table made (and length-checked) by
    /// this workspace. The times land in `bufs`, which may hold any
    /// earlier replay's, of any topology. `RECORD` additionally fills
    /// `bufs.start` (timeline and memory-peak paths; `end` is always
    /// kept). Callers guarantee `trace` is complete for this index.
    fn replay<const RECORD: bool>(
        &self,
        durations: impl DurationSource,
        bufs: &mut ReplayBuffers,
    ) -> SimDuration {
        let n = self.num_ops();
        let ReplayWorkspace {
            op_resource,
            dep_indptr,
            deps,
            num_resources,
            trace,
            ..
        } = self;
        let ReplayBuffers {
            end,
            free,
            busy,
            start,
        } = bufs;
        // An op reads only the end times of ops replayed before it, so
        // stale values from an earlier replay need no zeroing.
        end.resize(n, SimTime::ZERO);
        free.clear();
        free.resize(*num_resources, SimTime::ZERO);
        busy.clear();
        busy.resize(*num_resources, SimDuration::ZERO);
        if RECORD {
            start.resize(n, SimTime::ZERO);
        }
        // SAFETY (for the `get_unchecked` accesses below and the
        // unchecked reads of `durations.at`): both index builders
        // establish, for any input topology (acyclic or not), that
        // `op_resource` holds `n` entries `< num_resources`, `dep_indptr`
        // holds `n + 1` non-decreasing entries from 0 to `deps.len()`,
        // and every entry of `deps` is `< n`: `index_graph` copies what
        // `OpGraph::add_op`/`add_dep` validated, and
        // `ReplayWorkspace::discover` asserts each property. Every entry
        // of a complete trace is a queue head that discovery linked from
        // `0..n`, so `i` indexes `op_resource`/`end` and, under `RECORD`,
        // `start`; `i + 1 <= n` indexes `dep_indptr`, whose row lies
        // within `deps`; each dep indexes `end`; and `r < num_resources`
        // indexes `free`/`busy`, all resized above. So `durations.at`
        // gets an op and a resource of this workspace, which is all its
        // contract asks: a row source was checked to hold `n` entries
        // (`ReplayWorkspace::row`); a table source reads `op_kind[i]`,
        // which `with_kinds` checked to hold `n` kinds `< num_kinds`, and
        // then cell `kind * num_resources + r < num_kinds *
        // num_resources`, the length `ReplayWorkspace::cells` asserted
        // for the cells and `Cells::drawn` for the slot draws (a
        // `SolveScratch`'s graph index never has kinds and replays rows
        // only). Rebuilding an index clears its trace, so a trace can
        // never replay against a differently shaped topology. The debug
        // assertions re-check the index.
        for &op in trace.iter() {
            let i = op as usize;
            debug_assert!(i < n);
            let r = unsafe { *op_resource.get_unchecked(i) } as usize;
            debug_assert!(r < *num_resources);
            let (lo, hi) = unsafe {
                (
                    *dep_indptr.get_unchecked(i) as usize,
                    *dep_indptr.get_unchecked(i + 1) as usize,
                )
            };
            debug_assert!(lo <= hi && hi <= deps.len());
            let free_at = unsafe { free.get_unchecked_mut(r) };
            let mut ready_at = *free_at;
            for &dep in unsafe { deps.get_unchecked(lo..hi) } {
                debug_assert!((dep as usize) < n);
                ready_at = ready_at.max(unsafe { *end.get_unchecked(dep as usize) });
            }
            let d = unsafe { durations.at(i, r) };
            let finish = ready_at + d;
            *free_at = finish;
            unsafe {
                *busy.get_unchecked_mut(r) += d;
                *end.get_unchecked_mut(i) = finish;
                if RECORD {
                    *start.get_unchecked_mut(i) = ready_at;
                }
            }
        }
        // Every resource's `free` is its last op's end, so the makespan
        // is their max.
        let makespan = free.iter().copied().max().unwrap_or(SimTime::ZERO);
        makespan.duration_since(SimTime::ZERO)
    }
}

/// Reusable solver workspace: the replay workspace built for one graph,
/// its base durations, discovery's scratch and the replay buffers.
/// Passing one scratch from [`Solver::into_scratch`] to
/// [`Solver::with_scratch`] (as [`OpGraph::solve`] does with a
/// per-thread one) lets thousands of solves run without a single heap
/// allocation after warm-up.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// The dependency index and replay trace.
    workspace: ReplayWorkspace,
    /// Whether `workspace.trace` is complete for the current index.
    /// Cleared by `index_graph`; a stalled discovery never sets it.
    trace_ready: bool,
    /// Per-op base duration, copied out of the graph: a solve without a
    /// duration override replays these.
    op_duration: Vec<SimDuration>,
    /// Discovery's per-op links and per-resource state.
    discovery: Discovery,
    /// The replay loop's timing buffers.
    bufs: ReplayBuffers,
}

impl SolveScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Number of ops in the topology this workspace was last built for.
    pub fn num_ops(&self) -> usize {
        self.workspace.num_ops()
    }

    /// Re-times the recorded trace under `durations`, writing the
    /// makespan and per-resource busy sums into `stats` (its `busy`
    /// buffer is reused, so a caller looping over many duration rows
    /// allocates nothing). This is the graph-free half of the duration
    /// re-solve: the workspace alone carries the topology.
    /// [`ReplayWorkspace`] is the same replay without discovery's
    /// scratch or buffers of its own, for callers that keep many
    /// topologies alive.
    ///
    /// # Panics
    ///
    /// Panics if no trace is recorded (no full solve succeeded since
    /// the index was built) or if `durations.len()` differs from the
    /// topology's op count.
    pub fn replay_stats_into(&mut self, durations: &[SimDuration], stats: &mut SolveStats) {
        stats.makespan = self.replay::<false>(Some(durations));
        stats.busy.clear();
        stats.busy.extend_from_slice(&self.bufs.busy);
        stats.peak_memory = None;
    }

    /// [`ReplayWorkspace::replay`] into this scratch's buffers, behind
    /// the recorded-trace check, under `durations` or, without an
    /// override, the graph's base durations.
    fn replay<const RECORD: bool>(&mut self, durations: Option<&[SimDuration]>) -> SimDuration {
        assert!(
            self.trace_ready,
            "replay requires a recorded trace (run one full solve first)"
        );
        let durations = self.workspace.row(durations.unwrap_or(&self.op_duration));
        self.workspace.replay::<RECORD>(durations, &mut self.bufs)
    }
}

/// A solver bound to one graph.
///
/// Construction copies the graph's forward dependency index once,
/// O(V + E); the first solve runs discovery over it and records the
/// replay trace, and every solve — the first included — is one replay
/// of that trace under the base or the override durations. Because the
/// solver borrows the graph, the topology cannot change underneath it —
/// which is what makes the duration-only re-solve paths
/// ([`Solver::solve_with_durations`] and
/// [`Solver::solve_stats_with_durations`]) sound: perturbation sweeps
/// lower a schedule once and re-solve it under many duration vectors.
#[derive(Debug)]
pub struct Solver<'g, T> {
    graph: &'g OpGraph<T>,
    s: SolveScratch,
}

impl<'g, T> Solver<'g, T> {
    /// Builds the solver (and its dependency index) for `graph`.
    pub fn new(graph: &'g OpGraph<T>) -> Self {
        Self::with_scratch(graph, SolveScratch::new())
    }

    /// As [`Solver::new`], reusing a previously allocated workspace
    /// (recovered from another solver via [`Solver::into_scratch`]).
    pub fn with_scratch(graph: &'g OpGraph<T>, mut scratch: SolveScratch) -> Self {
        index_graph(graph, &mut scratch);
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
        let makespan = self.run::<true>(None)?;
        Ok(self.materialize(makespan))
    }

    /// Solves for the makespan only, skipping the per-op timeline.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    pub fn solve_makespan(&mut self) -> Result<SimDuration, DeadlockError> {
        self.run::<false>(None)
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
        let makespan = self.run::<true>(Some(durations))?;
        Ok(self.materialize(makespan))
    }

    /// Solves for the makespan and per-resource busy times — everything
    /// the measurement layer consumes — with every op's duration
    /// replaced by `durations[op.index()]`, without materializing a
    /// per-op timeline: the cheapest re-solve in a perturbation sweep
    /// that still feeds the full measurement.
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
        let makespan = self.run::<false>(Some(durations))?;
        Ok(self.stats(makespan))
    }

    /// Solves for the makespan and per-resource busy times under the
    /// graph's own durations, additionally evaluating `mem` against the
    /// solved op times to fill [`SolveStats::peak_memory`] — peak
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
        let makespan = self.run::<true>(None)?;
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
        let makespan = self.run::<true>(Some(durations))?;
        let mut stats = self.stats(makespan);
        stats.peak_memory = Some(self.scratch_peaks(mem));
        Ok(stats)
    }

    /// Ensures the scratch holds a replay trace, running discovery over
    /// this graph's index if it does not; a stall is reported with the
    /// graph's resource names. Discovery reads no duration, so one trace
    /// serves every duration vector.
    fn ensure_trace(&mut self) -> Result<(), DeadlockError> {
        if !self.s.trace_ready {
            if !self.s.workspace.record_trace(&mut self.s.discovery) {
                let names = &self.graph.resource_names;
                return Err(self
                    .s
                    .workspace
                    .deadlock(&self.s.discovery, |r| names[r].clone()));
            }
            self.s.trace_ready = true;
        }
        Ok(())
    }

    /// One solve: discovery if no trace is recorded yet, then a replay
    /// under `durations` or the graph's own. `RECORD` keeps per-op start
    /// times for [`Solver::materialize`] and the memory paths.
    fn run<const RECORD: bool>(
        &mut self,
        durations: Option<&[SimDuration]>,
    ) -> Result<SimDuration, DeadlockError> {
        self.ensure_trace()?;
        Ok(self.s.replay::<RECORD>(durations))
    }

    /// Evaluates a memory spec against the start/end times of the
    /// recording solve that just ran.
    fn scratch_peaks(&self, mem: &MemorySpec) -> MemoryPeaks {
        mem.peaks_from(|op| {
            (
                self.s.bufs.start[op.index()].as_nanos(),
                self.s.bufs.end[op.index()].as_nanos(),
            )
        })
    }

    /// Per-resource busy sums of the solve that just ran, accumulated in
    /// the replay loop. Plain integer sums of op durations — identical to
    /// summing a materialized timeline's per-op `end - start`.
    fn stats(&self, makespan: SimDuration) -> SolveStats {
        SolveStats {
            makespan,
            busy: self.s.bufs.busy.clone(),
            peak_memory: None,
        }
    }

    /// Collects the per-op times of the last recording solve into a
    /// [`Timeline`].
    fn materialize(&self, makespan: SimDuration) -> Timeline {
        let (ws, bufs) = (&self.s.workspace, &self.s.bufs);
        let scheduled = (0..ws.num_ops())
            .map(|i| ScheduledOp {
                op: OpId(i as u32),
                resource: ResourceId(ws.op_resource[i]),
                start: bufs.start[i],
                end: bufs.end[i],
            })
            .collect();
        Timeline {
            scheduled,
            makespan,
            num_resources: ws.num_resources,
        }
    }
}

/// Builds `graph`'s index into `scratch`, reusing its buffers: each op's
/// resource, base duration and dependency row. Rows are copied in op
/// order, so the holes [`OpGraph::add_dep`] leaves in the graph's edge
/// arena drop out.
fn index_graph<T>(graph: &OpGraph<T>, scratch: &mut SolveScratch) {
    let ws = &mut scratch.workspace;
    // Any recorded replay trace belonged to the previous topology.
    ws.trace.clear();
    scratch.trace_ready = false;
    ws.num_resources = graph.num_resources();
    ws.op_resource.clear();
    scratch.op_duration.clear();
    ws.dep_indptr.clear();
    ws.deps.clear();
    ws.deps.reserve(graph.num_edges());
    ws.dep_indptr.push(0);
    for op in &graph.ops {
        ws.op_resource.push(op.resource.0);
        scratch.op_duration.push(op.duration);
        let row = op.deps_start as usize..(op.deps_start + op.deps_len) as usize;
        ws.deps.extend(graph.deps_arena[row].iter().map(|d| d.0));
        ws.dep_indptr.push(ws.deps.len() as u32);
    }
}

thread_local! {
    /// Workspace reused by the transient-solve entry points
    /// ([`OpGraph::solve`] / [`OpGraph::solve_makespan`]), for its
    /// discovery scratch by [`ReplayWorkspace::discover`] and for its
    /// replay buffers by [`ReplayWorkspace::replay_stats_into`]: without
    /// it, every call re-allocates (and, for large graphs, page-faults
    /// in) megabytes of scratch. The cell retains the capacity of the
    /// largest topology solved on this thread — bounded and cheap for
    /// the graph sizes this workspace simulates.
    static TRANSIENT_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Runs `f` on the thread-local scratch, or on a fresh one if it is
/// already in use further up this thread's stack.
fn with_transient_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
    TRANSIENT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SolveScratch::new()),
    })
}

/// Runs `f` with a [`Solver`] borrowing the thread-local scratch.
fn with_transient_solver<T, R>(graph: &OpGraph<T>, f: impl FnOnce(&mut Solver<'_, T>) -> R) -> R {
    with_transient_scratch(|scratch| {
        let mut solver = Solver::with_scratch(graph, std::mem::take(scratch));
        let result = f(&mut solver);
        *scratch = solver.into_scratch();
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
        assert_eq!(
            solver.solve_stats_with_durations(&durs).unwrap().makespan,
            ns(27)
        );
        // Original durations still produce the original timeline.
        let t3 = solver.solve().unwrap();
        assert_eq!(t3.makespan(), ns(17));
        assert_eq!(t3.scheduled_ops(), t1.scheduled_ops());
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        // Solves `g` on `scratch`, handing the workspace back: (the full
        // solve's makespan, the makespan-only solve's).
        fn solve_on<T>(
            g: &OpGraph<T>,
            scratch: &mut SolveScratch,
        ) -> Result<(SimDuration, SimDuration), DeadlockError> {
            let mut solver = Solver::with_scratch(g, std::mem::take(scratch));
            let result = solver
                .solve()
                .and_then(|t| Ok((t.makespan(), solver.solve_makespan()?)));
            *scratch = solver.into_scratch();
            result
        }
        let mut scratch = SolveScratch::new();
        // First graph: a chain.
        let mut g1: OpGraph<()> = OpGraph::new();
        let r = g1.add_resource("r");
        let a = g1.add_op(r, ns(5), &[], ());
        g1.add_op(r, ns(5), &[a], ());
        assert_eq!(solve_on(&g1, &mut scratch).unwrap(), (ns(10), ns(10)));
        // Second, differently shaped graph with the same scratch.
        let mut g2: OpGraph<()> = OpGraph::new();
        let r1 = g2.add_resource("a");
        let r2 = g2.add_resource("b");
        let x = g2.add_op(r1, ns(7), &[], ());
        let y = g2.add_op(r2, ns(2), &[x], ());
        g2.add_op(r1, ns(1), &[y], ());
        assert_eq!(solve_on(&g2, &mut scratch).unwrap(), (ns(10), ns(10)));
        // And a deadlocked graph leaves the scratch reusable.
        let mut g3: OpGraph<()> = OpGraph::new();
        let r = g3.add_resource("r");
        let h = g3.add_op(r, ns(1), &[], ());
        let t = g3.add_op(r, ns(1), &[], ());
        g3.add_dep(h, t);
        assert!(solve_on(&g3, &mut scratch).is_err());
        assert_eq!(solve_on(&g1, &mut scratch).unwrap(), (ns(10), ns(10)));
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
        // Oracle: the same topology with those durations baked in,
        // solved under its base durations.
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

    /// The graph-free workspace of `g`: its resources and `deps_of`
    /// rows, discovered.
    fn workspace_of<T>(g: &OpGraph<T>) -> ReplayWorkspace {
        let op_resource = g.op_ids().map(|id| g.op(id).resource().0).collect();
        let rows: Vec<Vec<u32>> = g
            .op_ids()
            .map(|id| g.deps_of(id).iter().map(|d| d.0).collect())
            .collect();
        let (dep_indptr, deps) = flatten(&rows);
        ReplayWorkspace::discover(g.num_resources(), op_resource, dep_indptr, deps).unwrap()
    }

    #[test]
    fn workspace_rows_match_per_row_resolves() {
        // One immutable workspace re-times many rows through the
        // per-thread buffers, each exactly as a fresh solve would.
        let g = diamond();
        let ws = workspace_of(&g);
        let mut stats = SolveStats {
            makespan: SimDuration::ZERO,
            busy: Vec::new(),
            peak_memory: None,
        };
        for row in 0..5u64 {
            let durs: Vec<SimDuration> = (0..g.num_ops() as u64)
                .map(|i| ns((row * 13 + i * 5) % 23))
                .collect();
            ws.replay_stats_into(&durs, &mut stats);
            let want = Solver::new(&g).solve_stats_with_durations(&durs).unwrap();
            assert_eq!(stats, want, "row {row}");
        }
    }

    #[test]
    fn scratch_replay_is_graph_free() {
        let g = diamond();
        let durs: Vec<SimDuration> = g.op_ids().map(|id| g.op(id).duration()).collect();
        let mut solver = Solver::new(&g);
        let base = solver.solve_stats_with_durations(&durs).unwrap();
        let mut scratch = solver.into_scratch();
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
    fn empty_workspace_replays_to_zero() {
        let ws = ReplayWorkspace::discover(0, Vec::new(), vec![0], Vec::new()).unwrap();
        let mut stats = SolveStats {
            makespan: ns(1),
            busy: vec![ns(1)],
            peak_memory: None,
        };
        ws.replay_stats_into(&[], &mut stats);
        assert_eq!(stats.makespan, SimDuration::ZERO);
        assert!(stats.busy.is_empty());
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

    /// A random topology built both as a graph and as forward rows: ops
    /// on `resources` streams with creation-time deps on earlier ops,
    /// plus late edges in any direction (which may deadlock), each
    /// appended to its op's row as `add_dep` appends it.
    fn random_topology(seed: u64, late: usize) -> (OpGraph<()>, Vec<u32>, Vec<Vec<u32>>) {
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
        let mut rows = Vec::new();
        for i in 0..n as u32 {
            let r = next(resources as u64) as u32;
            let deps: Vec<OpId> = (0..next(3))
                .filter(|_| i > 0)
                .map(|_| OpId(next(u64::from(i)) as u32))
                .collect();
            g.add_op(rids[r as usize], ns(1 + next(9)), &deps, ());
            op_resource.push(r);
            rows.push(deps.iter().map(|d| d.0).collect::<Vec<u32>>());
        }
        for _ in 0..late {
            let (op, dep) = (next(n as u64) as u32, next(n as u64) as u32);
            if op != dep {
                g.add_dep(OpId(op), OpId(dep));
                rows[op as usize].push(dep);
            }
        }
        (g, op_resource, rows)
    }

    /// Forward rows as `(dep_indptr, deps)`.
    fn flatten(rows: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let mut indptr = vec![0];
        let mut deps = Vec::new();
        for row in rows {
            deps.extend_from_slice(row);
            indptr.push(deps.len() as u32);
        }
        (indptr, deps)
    }

    #[test]
    fn flat_index_matches_graph_index() {
        // A graph's index is its `deps_of` rows with the arena holes
        // `add_dep` leaves dropped: the flat rows, entry for entry.
        for seed in 0..200 {
            let (g, op_resource, rows) = random_topology(seed, (seed % 4) as usize);
            let (dep_indptr, deps) = flatten(&rows);
            let scratch = Solver::new(&g).into_scratch();
            assert_eq!(scratch.workspace.dep_indptr, dep_indptr, "seed {seed}");
            assert_eq!(scratch.workspace.deps, deps, "seed {seed}");
            assert_eq!(scratch.workspace.op_resource, op_resource);
            assert_eq!(scratch.workspace.num_resources, g.num_resources());
            let base: Vec<SimDuration> = g.op_ids().map(|id| g.op(id).duration()).collect();
            assert_eq!(scratch.op_duration, base);
        }
    }

    #[test]
    fn discovered_workspace_replays_like_the_graph_solver() {
        let mut deadlocks = 0;
        for seed in 0..300 {
            let (g, op_resource, rows) = random_topology(seed, (seed % 5) as usize);
            let (dep_indptr, deps) = flatten(&rows);
            let durs: Vec<SimDuration> = g.op_ids().map(|id| g.op(id).duration()).collect();
            let mut solver = Solver::new(&g);
            let full = solver.solve_stats_with_durations(&durs);
            let flat = ReplayWorkspace::discover(g.num_resources(), op_resource, dep_indptr, deps);
            match (full, flat) {
                (Ok(full), Ok(ws)) => {
                    let scratch = solver.into_scratch();
                    assert_eq!(ws.trace, scratch.workspace.trace, "seed {seed}");
                    assert_eq!(ws.num_ops(), g.num_ops());
                    assert_eq!(ws.num_resources, g.num_resources());
                    for (i, row) in rows.iter().enumerate() {
                        assert_eq!(ws.deps_of(i), row.as_slice(), "seed {seed}");
                    }
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
    fn discovery_parks_each_stream_on_its_blocker() {
        // Stream a drains ahead of b, whose head waits (through a late
        // edge) for a's second op, then parks on b's tail one entry into
        // its head's row; the wake resumes it there.
        let mut g: OpGraph<()> = OpGraph::new();
        let (a, b) = (g.add_resource("a"), g.add_resource("b"));
        let a0 = g.add_op(a, ns(2), &[], ());
        let b0 = g.add_op(b, ns(3), &[], ());
        let a1 = g.add_op(a, ns(4), &[a0], ());
        let b1 = g.add_op(b, ns(1), &[a1, b0], ());
        let a2 = g.add_op(a, ns(5), &[a1, b1], ());
        g.add_dep(b0, a1);
        let mut solver = Solver::new(&g);
        let t = solver.solve().unwrap();
        assert_eq!(solver.s.workspace.trace, vec![0, 2, 1, 3, 4]);
        assert_eq!(t.start_of(b0).as_nanos(), 6);
        assert_eq!(t.start_of(b1).as_nanos(), 9);
        assert_eq!(t.start_of(a2).as_nanos(), 10);
        assert_eq!(t.makespan(), ns(15));
        assert_eq!(
            t.scheduled_ops(),
            g.solve_reference().unwrap().scheduled_ops()
        );
    }

    #[test]
    #[should_panic(expected = "names an op outside")]
    fn discover_rejects_an_out_of_range_dependency() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 0, 1], vec![2]);
    }

    #[test]
    #[should_panic(expected = "names an op outside")]
    fn discover_rejects_an_unfilled_reserved_slot() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 0, 1], vec![u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn discover_rejects_an_out_of_range_resource() {
        let _ = ReplayWorkspace::discover(2, vec![0, 2], vec![0, 0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "one entry per op plus one")]
    fn discover_rejects_a_short_dep_indptr() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "must start at 0")]
    fn discover_rejects_a_dep_indptr_not_starting_at_zero() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], vec![1, 1, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "decreases at op 1")]
    fn discover_rejects_a_decreasing_dep_indptr() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0, 0], vec![0, 2, 1, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "must end at deps.len()")]
    fn discover_rejects_a_dep_indptr_ending_short() {
        let _ = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 0, 1], vec![0, 1]);
    }

    #[test]
    fn table_replays_equal_their_expanded_rows() {
        // Three kinds over random topologies: op `i` reads cell
        // `kind * R + r`, or under draws that cell drawn with salt `i`;
        // replaying the table equals replaying its expansion as a row.
        let p = crate::Perturbation::with_seed(3)
            .with_straggler(1, 1.5)
            .with_jitter(0.4)
            .with_stalls(0.2, ns(7));
        let draws = p.draws().expect("jitter draws");
        let mut row = Vec::new();
        let mut stats = SolveStats {
            makespan: SimDuration::ZERO,
            busy: Vec::new(),
            peak_memory: None,
        };
        let mut tables = 0;
        for seed in 0..100 {
            let (g, op_resource, rows) = random_topology(seed, (seed % 3) as usize);
            let (dep_indptr, deps) = flatten(&rows);
            let Ok(ws) =
                ReplayWorkspace::discover(g.num_resources(), op_resource, dep_indptr, deps)
            else {
                continue;
            };
            let kinds: Vec<u8> = (0..g.num_ops()).map(|i| (i * 7 % 3) as u8).collect();
            let ws = ws.with_kinds(3, kinds.clone());
            let r_count = g.num_resources();
            assert_eq!(ws.table_len(), 3 * r_count);
            let cells: Vec<SimDuration> = (0..ws.table_len() as u64)
                .map(|c| ns(1 + (c * 5 + seed) % 11))
                .collect();
            let slots: Vec<crate::SlotDraw> = (0..ws.table_len())
                .map(|c| {
                    let class = if c % 2 == 0 {
                        crate::OpClass::Compute
                    } else {
                        crate::OpClass::Communication
                    };
                    draws.slot(class, (c % r_count) as u32)
                })
                .collect();
            for drawn in [false, true] {
                let table = DurationTable {
                    cells: &cells,
                    draws: drawn.then_some((draws, slots.as_slice())),
                };
                ws.table_durations(table, &mut row);
                for (i, &d) in row.iter().enumerate() {
                    let c = kinds[i] as usize * r_count + ws.op_resources()[i] as usize;
                    let want = if drawn {
                        draws.perturb(cells[c], slots[c], i as u64)
                    } else {
                        cells[c]
                    };
                    assert_eq!(d, want, "seed {seed} op {i}");
                }
                ws.replay_table_into(table, &mut stats);
                let by_row = {
                    let mut s = stats.clone();
                    ws.replay_stats_into(&row, &mut s);
                    s
                };
                assert_eq!(stats, by_row, "seed {seed} drawn {drawn}");
                tables += 1;
            }
        }
        assert!(tables > 100, "most random topologies replay");
    }

    #[test]
    #[should_panic(expected = "op kind 2 out of range")]
    fn with_kinds_rejects_an_out_of_range_kind() {
        let ws = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 0, 1], vec![0]).unwrap();
        let _ = ws.with_kinds(2, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "one kind per op")]
    fn with_kinds_rejects_a_short_kind_array() {
        let ws = ReplayWorkspace::discover(1, vec![0, 0], vec![0, 0, 1], vec![0]).unwrap();
        let _ = ws.with_kinds(2, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at most 256 op kinds")]
    fn with_kinds_rejects_more_kinds_than_a_u8_names() {
        let ws = ReplayWorkspace::discover(1, vec![0], vec![0, 0], vec![]).unwrap();
        let _ = ws.with_kinds(257, vec![0]);
    }

    fn replay_table(ws: &ReplayWorkspace, table: DurationTable<'_>) {
        let mut stats = SolveStats {
            makespan: SimDuration::ZERO,
            busy: Vec::new(),
            peak_memory: None,
        };
        ws.replay_table_into(table, &mut stats);
    }

    #[test]
    #[should_panic(expected = "needs op kinds")]
    fn a_table_replay_needs_op_kinds() {
        let ws = ReplayWorkspace::discover(1, vec![0], vec![0, 0], vec![]).unwrap();
        replay_table(
            &ws,
            DurationTable {
                cells: &[],
                draws: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "one cell per kind and resource")]
    fn a_table_replay_rejects_a_short_table() {
        let ws = ReplayWorkspace::discover(2, vec![0, 1], vec![0, 0, 1], vec![0])
            .unwrap()
            .with_kinds(2, vec![0, 1]);
        replay_table(
            &ws,
            DurationTable {
                cells: &[ns(1); 3],
                draws: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "one slot draw per cell")]
    fn a_drawn_table_replay_rejects_missing_slot_draws() {
        let ws = ReplayWorkspace::discover(1, vec![0], vec![0, 0], vec![])
            .unwrap()
            .with_kinds(1, vec![0]);
        let p = crate::Perturbation::with_seed(1).with_jitter(0.1);
        replay_table(
            &ws,
            DurationTable {
                cells: &[ns(1)],
                draws: Some((p.draws().unwrap(), &[])),
            },
        );
    }
}
