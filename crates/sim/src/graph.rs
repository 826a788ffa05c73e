//! Operation graphs: resources, operations and dependencies.
//!
//! Dependency edges live in a single flat arena shared by every operation
//! (each [`Op`] stores only an offset + length into it), so building a
//! graph performs no per-op allocation and the solver can walk edges with
//! perfect locality.

use crate::solver::{solve, solve_makespan, DeadlockError, SolveScratch, Solver, Timeline};
use crate::time::SimDuration;

/// Identifier of an operation within an [`OpGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The index of this operation in the graph's insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a FIFO execution resource (a "stream").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// The index of this resource in the graph's insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The resource at `index` in insertion order — for topologies built
    /// without an [`OpGraph`] ([`crate::ReplayWorkspace::discover`]),
    /// whose resources are plain indices.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a resource id (`u32`).
    pub fn from_index(index: usize) -> ResourceId {
        ResourceId(u32::try_from(index).expect("resource index fits u32"))
    }
}

/// A single operation: a fixed-duration task bound to one resource.
///
/// Dependency ids are stored in the graph's shared edge arena; read them
/// with [`OpGraph::deps_of`].
#[derive(Debug, Clone)]
pub struct Op<T> {
    pub(crate) resource: ResourceId,
    pub(crate) duration: SimDuration,
    /// Offset of this op's dependency slice in the graph's edge arena.
    pub(crate) deps_start: u32,
    /// Length of this op's dependency slice.
    pub(crate) deps_len: u32,
    pub(crate) tag: T,
}

impl<T> Op<T> {
    /// The resource this operation executes on.
    pub fn resource(&self) -> ResourceId {
        self.resource
    }

    /// The operation's fixed duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Number of operations that must finish before this one may start.
    pub fn num_deps(&self) -> usize {
        self.deps_len as usize
    }

    /// User metadata attached to the operation.
    pub fn tag(&self) -> &T {
        &self.tag
    }
}

/// A dependency graph of fixed-duration operations over FIFO resources.
///
/// Operations submitted to the same resource execute in submission order
/// (CUDA-stream semantics); operations on different resources overlap
/// freely subject to their dependencies.
#[derive(Debug, Clone, Default)]
pub struct OpGraph<T> {
    pub(crate) ops: Vec<Op<T>>,
    /// Flat dependency-edge arena; each op owns the contiguous slice
    /// `deps_start .. deps_start + deps_len`. [`OpGraph::add_dep`] may
    /// relocate a slice to the tail, leaving a dead hole behind, so the
    /// arena length can exceed [`OpGraph::num_edges`].
    pub(crate) deps_arena: Vec<OpId>,
    /// Live dependency-edge count (sum of all `deps_len`).
    pub(crate) num_edges: usize,
    pub(crate) resource_names: Vec<String>,
    /// Per-resource list of op ids in submission order.
    pub(crate) resource_queues: Vec<Vec<OpId>>,
}

impl<T> OpGraph<T> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        OpGraph {
            ops: Vec::new(),
            deps_arena: Vec::new(),
            num_edges: 0,
            resource_names: Vec::new(),
            resource_queues: Vec::new(),
        }
    }

    /// Creates an empty graph with capacity reserved for `resources`
    /// resources, `ops` operations and `edges` dependency edges, so
    /// building a graph of known shape never reallocates.
    pub fn with_capacity(resources: usize, ops: usize, edges: usize) -> Self {
        OpGraph {
            ops: Vec::with_capacity(ops),
            deps_arena: Vec::with_capacity(edges),
            num_edges: 0,
            resource_names: Vec::with_capacity(resources),
            resource_queues: Vec::with_capacity(resources),
        }
    }

    /// Registers a new FIFO resource and returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        let id = ResourceId(self.resource_names.len() as u32);
        self.resource_names.push(name.into());
        self.resource_queues.push(Vec::new());
        id
    }

    /// Submits an operation to `resource` with the given `duration`,
    /// depending on `deps`, carrying user metadata `tag`.
    ///
    /// Dependencies on operations created *later* can be added afterwards
    /// with [`OpGraph::add_dep`].
    ///
    /// # Panics
    ///
    /// Panics if `resource` or any dependency id does not belong to this
    /// graph, or if a dependency names the operation being created (a
    /// self-dependency — the id equal to the one about to be returned).
    pub fn add_op(
        &mut self,
        resource: ResourceId,
        duration: SimDuration,
        deps: &[OpId],
        tag: T,
    ) -> OpId {
        assert!(
            (resource.0 as usize) < self.resource_names.len(),
            "unknown resource {resource:?}"
        );
        let id = OpId(self.ops.len() as u32);
        for d in deps {
            assert_ne!(d.0, id.0, "an op cannot depend on itself ({id:?})");
            assert!(d.0 < id.0, "dependency {d:?} not defined for op {id:?}");
        }
        let deps_start = self.deps_arena.len() as u32;
        self.deps_arena.extend_from_slice(deps);
        self.num_edges += deps.len();
        self.ops.push(Op {
            resource,
            duration,
            deps_start,
            deps_len: deps.len() as u32,
            tag,
        });
        self.resource_queues[resource.0 as usize].push(id);
        id
    }

    /// Adds a dependency edge after both operations exist: `op` will not
    /// start before `dep` has finished. Unlike the `deps` argument of
    /// [`OpGraph::add_op`], this accepts edges to operations created later,
    /// which is needed when building per-device queues one device at a time
    /// (backward-pass edges point "forwards" in creation order).
    ///
    /// Adding a cyclic edge is not rejected here; [`OpGraph::solve`] will
    /// report it as a [`crate::DeadlockError`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `op == dep`.
    pub fn add_dep(&mut self, op: OpId, dep: OpId) {
        assert!((op.0 as usize) < self.ops.len(), "unknown op {op:?}");
        assert!((dep.0 as usize) < self.ops.len(), "unknown dep {dep:?}");
        assert_ne!(op, dep, "an op cannot depend on itself");
        let (start, len) = {
            let o = &self.ops[op.0 as usize];
            (o.deps_start as usize, o.deps_len as usize)
        };
        if start + len != self.deps_arena.len() {
            // The op's slice is not at the arena tail: relocate it there
            // so the appended edge stays contiguous. The old slice becomes
            // a dead hole (bounded: lowering appends at most a couple of
            // late edges per op).
            let new_start = self.deps_arena.len() as u32;
            self.deps_arena.extend_from_within(start..start + len);
            self.ops[op.0 as usize].deps_start = new_start;
        }
        self.deps_arena.push(dep);
        self.ops[op.0 as usize].deps_len += 1;
        self.num_edges += 1;
    }

    /// Number of operations in the graph.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of dependency edges in the graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of resources in the graph.
    pub fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// The operation with the given id.
    pub fn op(&self, id: OpId) -> &Op<T> {
        &self.ops[id.0 as usize]
    }

    /// The operations `id` depends on (they must finish before it starts).
    pub fn deps_of(&self, id: OpId) -> &[OpId] {
        let op = &self.ops[id.0 as usize];
        &self.deps_arena[op.deps_start as usize..(op.deps_start + op.deps_len) as usize]
    }

    /// The name of a resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resource_names[id.0 as usize]
    }

    /// Iterates over all operation ids in submission order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterates over all resource ids.
    pub fn resource_ids(&self) -> impl Iterator<Item = ResourceId> {
        (0..self.resource_names.len() as u32).map(ResourceId)
    }

    /// The submission-order queue of a resource.
    pub fn resource_queue(&self, id: ResourceId) -> &[OpId] {
        &self.resource_queues[id.0 as usize]
    }

    /// Total duration of all operations on a resource (its minimum busy
    /// time; a lower bound on the makespan).
    pub fn resource_work(&self, id: ResourceId) -> SimDuration {
        self.resource_queues[id.0 as usize]
            .iter()
            .map(|op| self.ops[op.0 as usize].duration)
            .sum()
    }

    /// Computes a start/end time for every operation.
    ///
    /// Event-driven, O(V + E): see [`Solver`] for re-solving the same
    /// graph repeatedly and [`OpGraph::solve_with`] for reusing the
    /// solver workspace across graphs.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlockError`] if the combination of dependency edges and
    /// FIFO resource order admits no schedule (e.g. an op waits on another
    /// op queued *behind* it on the same resource).
    pub fn solve(&self) -> Result<Timeline, DeadlockError> {
        solve(self)
    }

    /// Computes just the makespan, skipping the per-op [`Timeline`]
    /// materialization — the fast path for search and pruning throughput.
    ///
    /// # Errors
    ///
    /// As [`OpGraph::solve`].
    pub fn solve_makespan(&self) -> Result<SimDuration, DeadlockError> {
        solve_makespan(self)
    }

    /// [`OpGraph::solve`] reusing a caller-owned workspace, so repeated
    /// solves of many graphs (e.g. a configuration search) stop
    /// reallocating.
    ///
    /// # Errors
    ///
    /// As [`OpGraph::solve`].
    pub fn solve_with(&self, scratch: &mut SolveScratch) -> Result<Timeline, DeadlockError> {
        let mut solver = Solver::with_scratch(self, std::mem::take(scratch));
        let result = solver.solve();
        *scratch = solver.into_scratch();
        result
    }

    /// [`OpGraph::solve_makespan`] reusing a caller-owned workspace.
    ///
    /// # Errors
    ///
    /// As [`OpGraph::solve`].
    pub fn solve_makespan_with(
        &self,
        scratch: &mut SolveScratch,
    ) -> Result<SimDuration, DeadlockError> {
        let mut solver = Solver::with_scratch(self, std::mem::take(scratch));
        let result = solver.solve_makespan();
        *scratch = solver.into_scratch();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut g: OpGraph<u32> = OpGraph::new();
        let r = g.add_resource("compute");
        let a = g.add_op(r, SimDuration::from_nanos(5), &[], 1);
        let b = g.add_op(r, SimDuration::from_nanos(7), &[a], 2);
        assert_eq!(g.num_ops(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_resources(), 1);
        assert_eq!(g.deps_of(b), &[a]);
        assert_eq!(g.op(b).num_deps(), 1);
        assert_eq!(*g.op(a).tag(), 1);
        assert_eq!(g.resource_name(r), "compute");
        assert_eq!(g.resource_queue(r), &[a, b]);
        assert_eq!(g.resource_work(r), SimDuration::from_nanos(12));
    }

    #[test]
    fn with_capacity_builds_identically() {
        let mut g: OpGraph<()> = OpGraph::with_capacity(2, 3, 2);
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, SimDuration::from_nanos(1), &[], ());
        let b = g.add_op(r2, SimDuration::from_nanos(2), &[a], ());
        let c = g.add_op(r1, SimDuration::from_nanos(3), &[a, b], ());
        assert_eq!(g.num_ops(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.deps_of(c), &[a, b]);
        assert_eq!(g.solve().unwrap().makespan(), SimDuration::from_nanos(6));
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn unknown_dependency_panics() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        // Depend on an op id that does not exist yet.
        g.add_op(r, SimDuration::ZERO, &[OpId(5)], ());
    }

    #[test]
    #[should_panic(expected = "cannot depend on itself")]
    fn add_op_self_dep_panics() {
        // The id a new op will get is `num_ops()`; naming it in `deps`
        // is a self-dependency and must be rejected at insert time (it
        // used to slip through the `<=` bound and only surface later as
        // a confusing solve-time deadlock).
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        g.add_op(r, SimDuration::ZERO, &[OpId(0)], ());
    }

    #[test]
    fn add_dep_allows_forward_edges() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, SimDuration::from_nanos(5), &[], ());
        let b = g.add_op(r2, SimDuration::from_nanos(5), &[], ());
        g.add_dep(a, b); // forward in creation order, across resources
        let t = g.solve().unwrap();
        assert_eq!(t.start_of(a).as_nanos(), 5);
    }

    #[test]
    fn add_dep_relocates_non_tail_slices() {
        // Append a late edge to an op whose dep slice is buried in the
        // middle of the arena: the slice must stay contiguous and correct.
        let mut g: OpGraph<()> = OpGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_op(r1, SimDuration::from_nanos(1), &[], ());
        let b = g.add_op(r2, SimDuration::from_nanos(2), &[a], ());
        let c = g.add_op(r2, SimDuration::from_nanos(3), &[a, b], ());
        g.add_dep(b, c); // b's slice [a] is not at the tail
        assert_eq!(g.deps_of(b), &[a, c]);
        assert_eq!(g.deps_of(c), &[a, b]);
        assert_eq!(g.num_edges(), 4);
        // b now waits for c, but c queues behind b on r2: deadlock.
        assert!(g.solve().is_err());
    }

    #[test]
    #[should_panic(expected = "cannot depend on itself")]
    fn self_dep_panics() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        let a = g.add_op(r, SimDuration::ZERO, &[], ());
        g.add_dep(a, a);
    }

    #[test]
    fn op_ids_iterate_in_order() {
        let mut g: OpGraph<()> = OpGraph::new();
        let r = g.add_resource("r");
        for _ in 0..3 {
            g.add_op(r, SimDuration::ZERO, &[], ());
        }
        let ids: Vec<usize> = g.op_ids().map(OpId::index).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
