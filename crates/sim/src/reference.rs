//! The original round-robin list-scheduling solver, kept as an oracle.
//!
//! This is the pre-rewrite O(resources × ops) algorithm: round-robin over
//! resources, draining each FIFO queue as far as dependencies allow,
//! rescanning until a full pass makes no progress. It is compiled only
//! for tests and the `reference-solver` feature, where it serves as the
//! ground truth the solver core is checked against — the
//! equivalence property tests in [`crate::solver`] and the benchmark
//! baselines in `bfpp-bench` both use it. See DESIGN.md §9.

use crate::graph::{OpGraph, OpId, ResourceId};
use crate::solver::{blocking_cycle, DeadlockError, ScheduledOp, Timeline};
use crate::time::SimTime;

impl<T> OpGraph<T> {
    /// Solves the graph with the reference round-robin algorithm.
    ///
    /// Produces output bit-identical to [`OpGraph::solve`] — same
    /// [`Timeline`] on success, same [`DeadlockError`] on failure. Kept
    /// only as a correctness oracle and benchmark baseline; the
    /// solver core is strictly faster.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlockError`] if the graph admits no schedule.
    pub fn solve_reference(&self) -> Result<Timeline, DeadlockError> {
        solve_round_robin(self)
    }
}

/// Round-robin over resources until no progress; an op starts at
/// `max(resource free, all deps done)`.
fn solve_round_robin<T>(graph: &OpGraph<T>) -> Result<Timeline, DeadlockError> {
    let n = graph.num_ops();
    let num_resources = graph.num_resources();

    let mut done: Vec<bool> = vec![false; n];
    let mut start: Vec<SimTime> = vec![SimTime::ZERO; n];
    let mut end: Vec<SimTime> = vec![SimTime::ZERO; n];
    // Per-resource: index of the next queued op to run, and the time the
    // resource becomes free.
    let mut queue_pos: Vec<usize> = vec![0; num_resources];
    let mut free_at: Vec<SimTime> = vec![SimTime::ZERO; num_resources];
    let mut scheduled_count = 0usize;

    loop {
        let mut progressed = false;
        for r in 0..num_resources {
            while let Some(&op_id) = graph.resource_queues[r].get(queue_pos[r]) {
                let op = graph.op(op_id);
                let mut ready_at = free_at[r];
                let mut all_done = true;
                for d in graph.deps_of(op_id) {
                    if done[d.index()] {
                        ready_at = ready_at.max(end[d.index()]);
                    } else {
                        all_done = false;
                        break;
                    }
                }
                if !all_done {
                    break;
                }
                start[op_id.index()] = ready_at;
                let finish = ready_at + op.duration();
                end[op_id.index()] = finish;
                done[op_id.index()] = true;
                free_at[r] = finish;
                queue_pos[r] += 1;
                scheduled_count += 1;
                progressed = true;
            }
        }
        if scheduled_count == n {
            break;
        }
        if !progressed {
            // Find a blocked queue head to report.
            let (r, stuck) = (0..num_resources)
                .find_map(|r| {
                    graph.resource_queues[r]
                        .get(queue_pos[r])
                        .map(|&op| (r, op))
                })
                .expect("unscheduled ops must sit on some queue");
            return Err(DeadlockError {
                stuck_op: stuck,
                resource: ResourceId(r as u32),
                resource_name: graph.resource_name(ResourceId(r as u32)).to_string(),
                cycle: blocking_cycle(graph, &done, &queue_pos, stuck),
                unscheduled: n - scheduled_count,
            });
        }
    }

    let makespan = end
        .iter()
        .copied()
        .max()
        .unwrap_or(SimTime::ZERO)
        .duration_since(SimTime::ZERO);

    let scheduled = (0..n)
        .map(|i| ScheduledOp {
            op: OpId(i as u32),
            resource: graph.op(OpId(i as u32)).resource(),
            start: start[i],
            end: end[i],
        })
        .collect();

    Ok(Timeline::from_parts(scheduled, makespan, num_resources))
}

/// Equivalence property tests: on random FIFO+DAG graphs — including
/// graphs with injected cycles — the solver core, through both its graph
/// and its flat entry point, and this reference solver must produce
/// identical times and agree on deadlocks. This is the proof obligation
/// behind the linear solver core (DESIGN.md §9).
#[cfg(test)]
mod equivalence_tests {
    use crate::graph::{OpGraph, OpId};
    use crate::solver::{ReplayWorkspace, SolveStats, Solver};
    use crate::time::SimDuration;
    use proptest::prelude::*;

    /// A randomly generated op: resource index, duration, and dependency
    /// picks as indices into already-created ops.
    #[derive(Debug, Clone)]
    struct RandomOp {
        resource: usize,
        duration_ns: u64,
        dep_picks: Vec<usize>,
    }

    /// A graph spec: resource count, ops, plus late `add_dep` edges
    /// (pairs of op-index picks). Late edges may point forward in
    /// creation order, so they can create FIFO/dependency cycles — which
    /// is exactly the regime where deadlock reports must also agree.
    fn random_graph_with_late_edges(
        max_resources: usize,
        max_ops: usize,
        max_late_edges: usize,
    ) -> impl Strategy<Value = (usize, Vec<RandomOp>, Vec<(usize, usize)>)> {
        (1..=max_resources).prop_flat_map(move |nres| {
            let op = (
                0..nres,
                0u64..1000,
                proptest::collection::vec(0usize..100, 0..3),
            )
                .prop_map(|(resource, duration_ns, dep_picks)| RandomOp {
                    resource,
                    duration_ns,
                    dep_picks,
                });
            (
                Just(nres),
                proptest::collection::vec(op, 1..=max_ops),
                proptest::collection::vec((0usize..100, 0usize..100), 0..=max_late_edges),
            )
        })
    }

    fn build(nres: usize, ops: &[RandomOp], late_edges: &[(usize, usize)]) -> OpGraph<usize> {
        let mut g: OpGraph<usize> = OpGraph::new();
        let resources: Vec<_> = (0..nres).map(|i| g.add_resource(format!("r{i}"))).collect();
        let mut ids: Vec<OpId> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let deps: Vec<OpId> = op
                .dep_picks
                .iter()
                .filter_map(|p| {
                    if ids.is_empty() {
                        None
                    } else {
                        Some(ids[p % ids.len()])
                    }
                })
                .collect();
            ids.push(g.add_op(
                resources[op.resource],
                SimDuration::from_nanos(op.duration_ns),
                &deps,
                i,
            ));
        }
        for &(a, b) in late_edges {
            let (op, dep) = (ids[a % ids.len()], ids[b % ids.len()]);
            if op != dep {
                g.add_dep(op, dep);
            }
        }
        g
    }

    /// Checks that `cycle` is a valid blocking cycle in `g`: nonempty,
    /// and each op waits for the next (and the last for the first)
    /// through either a dependency edge or FIFO queue order (the blocker
    /// is queued at-or-before the waiter on the same resource).
    fn assert_valid_blocking_cycle(g: &OpGraph<usize>, cycle: &[OpId]) {
        assert!(!cycle.is_empty(), "deadlock must report a cycle");
        for i in 0..cycle.len() {
            let cur = cycle[i];
            let next = cycle[(i + 1) % cycle.len()];
            let dep_edge = g.deps_of(cur).contains(&next);
            let fifo_edge = g.op(cur).resource() == g.op(next).resource() && {
                let q = g.resource_queue(g.op(cur).resource());
                let pos = |x: OpId| q.iter().position(|&o| o == x).unwrap();
                pos(next) < pos(cur)
            };
            assert!(
                dep_edge || fifo_edge,
                "cycle edge {cur:?} -> {next:?} is neither a dependency nor FIFO order"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The solver core and the round-robin reference produce
        /// identical `ScheduledOp` vectors and makespans on every
        /// solvable graph, and agree on deadlocks otherwise.
        #[test]
        fn solvers_agree(
            (nres, ops, late) in random_graph_with_late_edges(4, 40, 6),
        ) {
            let g = build(nres, &ops, &late);
            match (g.solve(), g.solve_reference()) {
                (Ok(fast), Ok(reference)) => {
                    prop_assert_eq!(fast.scheduled_ops(), reference.scheduled_ops());
                    prop_assert_eq!(fast.makespan(), reference.makespan());
                    prop_assert_eq!(
                        g.solve_makespan().unwrap(),
                        reference.makespan()
                    );
                }
                (Err(fast), Err(reference)) => {
                    prop_assert_eq!(fast.stuck_op, reference.stuck_op);
                    prop_assert_eq!(fast.resource, reference.resource);
                    prop_assert_eq!(
                        fast.resource_name.clone(),
                        reference.resource_name.clone()
                    );
                    prop_assert_eq!(fast.unscheduled, reference.unscheduled);
                    assert_valid_blocking_cycle(&g, &fast.cycle);
                    assert_valid_blocking_cycle(&g, &reference.cycle);
                }
                (fast, reference) => panic!(
                    "solvers disagree on solvability: solver={fast:?} \
                     reference={reference:?}"
                ),
            }
        }

        /// The graph-free entry point agrees with the reference too:
        /// each random graph's `deps_of` rows, discovered through
        /// `ReplayWorkspace::discover` and replayed under the graph's
        /// durations, give the reference's makespan and per-resource busy
        /// times, or its deadlock report. (The graph solver runs the same
        /// core, so this is the flat path's independent check.)
        #[test]
        fn flat_discovery_agrees_with_reference(
            (nres, ops, late) in random_graph_with_late_edges(4, 40, 6),
        ) {
            let g = build(nres, &ops, &late);
            let op_resource = g.op_ids().map(|id| g.op(id).resource().index() as u32).collect();
            let mut dep_indptr = vec![0];
            let mut deps = Vec::new();
            for id in g.op_ids() {
                deps.extend(g.deps_of(id).iter().map(|d| d.index() as u32));
                dep_indptr.push(deps.len() as u32);
            }
            match (
                ReplayWorkspace::discover(nres, op_resource, dep_indptr, deps),
                g.solve_reference(),
            ) {
                (Ok(ws), Ok(reference)) => {
                    let durations: Vec<SimDuration> =
                        g.op_ids().map(|id| g.op(id).duration()).collect();
                    let mut stats = SolveStats {
                        makespan: SimDuration::ZERO,
                        busy: Vec::new(),
                        peak_memory: None,
                    };
                    ws.replay_stats_into(&durations, &mut stats);
                    let mut busy = vec![SimDuration::ZERO; nres];
                    for op in reference.scheduled_ops() {
                        busy[op.resource.index()] += op.duration();
                    }
                    prop_assert_eq!(stats.makespan, reference.makespan());
                    prop_assert_eq!(stats.busy, busy);
                }
                (Err(flat), Err(reference)) => {
                    prop_assert_eq!(flat.stuck_op, reference.stuck_op);
                    prop_assert_eq!(flat.resource, reference.resource);
                    prop_assert_eq!(flat.unscheduled, reference.unscheduled);
                    prop_assert_eq!(
                        flat.resource_name,
                        format!("#{}", reference.resource.index())
                    );
                    assert_valid_blocking_cycle(&g, &flat.cycle);
                }
                (flat, reference) => panic!(
                    "flat discovery and the reference disagree on solvability: \
                     flat={:?} reference={reference:?}",
                    flat.err()
                ),
            }
        }

        /// Re-solving a fixed topology with substituted durations is
        /// bit-identical to rebuilding the graph with those durations and
        /// solving it with the reference solver.
        #[test]
        fn duration_resolve_matches_rebuild(
            (nres, ops, late) in random_graph_with_late_edges(4, 30, 4),
            scale in 1u64..5,
        ) {
            let g = build(nres, &ops, &late);
            let new_durations: Vec<SimDuration> = g
                .op_ids()
                .map(|id| g.op(id).duration() * scale)
                .collect();
            let mut rebuilt_ops = ops.clone();
            for op in &mut rebuilt_ops {
                op.duration_ns *= scale;
            }
            let rebuilt = build(nres, &rebuilt_ops, &late);

            let mut solver = Solver::new(&g);
            match (
                solver.solve_with_durations(&new_durations),
                rebuilt.solve_reference(),
            ) {
                (Ok(fast), Ok(reference)) => {
                    prop_assert_eq!(fast.scheduled_ops(), reference.scheduled_ops());
                    prop_assert_eq!(fast.makespan(), reference.makespan());
                    prop_assert_eq!(
                        solver.solve_stats_with_durations(&new_durations).unwrap().makespan,
                        reference.makespan()
                    );
                    // The solver is still clean for its own durations.
                    prop_assert_eq!(
                        solver.solve().unwrap().scheduled_ops(),
                        g.solve_reference().unwrap().scheduled_ops()
                    );
                }
                (Err(fast), Err(reference)) => {
                    prop_assert_eq!(fast.stuck_op, reference.stuck_op);
                    prop_assert_eq!(fast.unscheduled, reference.unscheduled);
                }
                (fast, reference) => panic!(
                    "duration re-solve disagrees on solvability: \
                     solver={fast:?} reference={reference:?}"
                ),
            }
        }
    }
}
