//! Property-based tests for the timeline solver invariants.

use bfpp_sim::{OpGraph, OpId, SimDuration};
use proptest::prelude::*;

/// A randomly generated op: resource index, duration, and dependency picks
/// as indices into already-created ops.
#[derive(Debug, Clone)]
struct RandomOp {
    resource: usize,
    duration_ns: u64,
    dep_picks: Vec<usize>,
}

fn random_graph(
    max_resources: usize,
    max_ops: usize,
) -> impl Strategy<Value = (usize, Vec<RandomOp>)> {
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
        (Just(nres), proptest::collection::vec(op, 1..=max_ops))
    })
}

fn build(nres: usize, ops: &[RandomOp]) -> OpGraph<usize> {
    let mut g: OpGraph<usize> = OpGraph::new();
    let resources: Vec<_> = (0..nres).map(|i| g.add_resource(format!("r{i}"))).collect();
    let mut ids: Vec<OpId> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // Deps reference earlier ops only => graph is always solvable.
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
    g
}

proptest! {
    /// Graphs built with backwards-only deps always solve, and the
    /// makespan is at least the busiest resource's total work and at least
    /// the longest dependency chain.
    #[test]
    fn makespan_lower_bounds((nres, ops) in random_graph(4, 40)) {
        let g = build(nres, &ops);
        let t = g.solve().expect("backwards-dep graphs always solve");
        let max_resource_work = g
            .resource_ids()
            .map(|r| g.resource_work(r))
            .max()
            .unwrap_or(SimDuration::ZERO);
        prop_assert!(t.makespan() >= max_resource_work);
        // Longest chain through dep edges.
        let mut chain = vec![SimDuration::ZERO; g.num_ops()];
        for id in g.op_ids() {
            let best = g
                .deps_of(id)
                .iter()
                .map(|d| chain[d.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            chain[id.index()] = best + g.op(id).duration();
        }
        let longest = chain.iter().copied().max().unwrap_or(SimDuration::ZERO);
        prop_assert!(t.makespan() >= longest);
    }

    /// No two ops overlap on the same resource, FIFO order is respected,
    /// and every op starts after all of its dependencies end.
    #[test]
    fn schedule_is_feasible((nres, ops) in random_graph(4, 40)) {
        let g = build(nres, &ops);
        let t = g.solve().unwrap();
        for r in g.resource_ids() {
            let queue = g.resource_queue(r);
            for w in queue.windows(2) {
                prop_assert!(t.start_of(w[1]) >= t.end_of(w[0]),
                    "FIFO violated on {r:?}");
            }
        }
        for id in g.op_ids() {
            for d in g.deps_of(id) {
                prop_assert!(t.start_of(id) >= t.end_of(*d), "dep violated");
            }
            let dur = t.end_of(id).duration_since(t.start_of(id));
            prop_assert_eq!(dur, g.op(id).duration());
        }
    }

    /// Utilizations are in [0, 1] and busy + idle == makespan.
    #[test]
    fn stats_are_consistent((nres, ops) in random_graph(4, 40)) {
        let g = build(nres, &ops);
        let t = g.solve().unwrap();
        for r in g.resource_ids() {
            let s = t.resource_stats(r);
            prop_assert!(s.utilization() >= 0.0 && s.utilization() <= 1.0);
            prop_assert_eq!(s.busy + s.idle, t.makespan().max(s.busy));
        }
    }
}
