//! Elastic re-planning: topology deltas applied to a live planner
//! (DESIGN.md §15).
//!
//! A fleet changes mid-run — a node drops out, a spare joins — and the
//! operator needs a new placement *now*: the pipeline is stalled until
//! one exists. A [`ClusterDelta`] names one such change; applying it
//! through [`Planner::apply_delta`] produces the request for the new
//! topology and keeps the planner's cached state exactly as trustworthy
//! as before:
//!
//! * **Drop** ([`ClusterChange::DropNode`]) — the node is gone, so every
//!   warm sweep record keyed by the *old* topology describes hardware
//!   that no longer exists. The planner quarantines them (the same
//!   [`Planner::invalidate`] primitive the panic supervisor uses) before
//!   building the survivor request.
//! * **Add** ([`ClusterChange::AddNode`]) — nothing cached is stale:
//!   records for other topologies of the same named cluster stay, which
//!   is what makes a drop → re-add → drop *flap* fast. The first drop
//!   plans cold on the degraded topology and records its sweep; the
//!   re-add restores the original spec byte-for-byte (node removal and
//!   append are exact inverses on the node list, and the cluster keeps
//!   its name), so the *second* drop finds the degraded topology's
//!   record still warm and replays it instead of re-simulating — the
//!   sub-millisecond path `reproduce_elastic` measures.
//!
//! The re-planned search itself is the ordinary engine: bit-identical
//! across thread counts, equal to the exhaustive reference, warm replay
//! proven equal to cold recomputation. Elasticity adds no new evaluation
//! semantics — only a disciplined story for which cached state survives
//! a topology change.

use bfpp_cluster::{ClusterError, ClusterSpec, NodeId, NodeSpec};
use bfpp_exec::search::{SearchReport, SearchResult};

use crate::{PlanRequest, Planner};

/// One topology change to a running cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterChange {
    /// Node `0` lost: remove it from the fleet (survivors keep their
    /// relative order; fabric overrides re-index).
    DropNode(NodeId),
    /// A node joins at the end of the fleet.
    AddNode(NodeSpec),
}

/// A topology-change request: [`ClusterChange`] plus room for future
/// delta metadata (arrival deadlines, batched changes) without breaking
/// the constructor API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ClusterDelta {
    /// The change to apply.
    pub change: ClusterChange,
}

impl ClusterDelta {
    /// A delta that drops `node` from the fleet.
    pub fn drop_node(node: NodeId) -> ClusterDelta {
        ClusterDelta {
            change: ClusterChange::DropNode(node),
        }
    }

    /// A delta that appends `node` to the fleet.
    pub fn add_node(node: NodeSpec) -> ClusterDelta {
        ClusterDelta {
            change: ClusterChange::AddNode(node),
        }
    }

    /// The post-delta topology. Pure — no planner state moves; use
    /// [`Planner::apply_delta`] to also quarantine what the change
    /// invalidates.
    ///
    /// # Errors
    ///
    /// Propagates the cluster layer's typed rejections: dropping an
    /// out-of-range or last-remaining node, or adding a node whose GPU
    /// count breaks the equal-width invariant.
    pub fn apply(&self, cluster: &ClusterSpec) -> Result<ClusterSpec, ClusterError> {
        match &self.change {
            ClusterChange::DropNode(node) => cluster.without_node(*node),
            ClusterChange::AddNode(node) => cluster.with_added_node(node.clone()),
        }
    }
}

impl Planner {
    /// Rewrites `req` for the topology after `delta`, quarantining the
    /// warm records the change invalidates: a dropped node voids every
    /// sweep recorded against the old topology; an added node voids
    /// nothing. Counts `planner_elastic_deltas_total` (and
    /// `planner_elastic_quarantined_warm_records_total` for drops) in
    /// [`Planner::metrics`]. The returned request is ready for
    /// [`Planner::plan`] / [`Planner::submit`](Planner::submit) —
    /// or for [`Planner::replan`], which does both steps at once.
    ///
    /// # Errors
    ///
    /// Returns the cluster layer's [`ClusterError`] when the delta does
    /// not apply to `req.cluster`; nothing is quarantined then.
    pub fn apply_delta(
        &self,
        req: &PlanRequest,
        delta: &ClusterDelta,
    ) -> Result<PlanRequest, ClusterError> {
        let next = delta.apply(&req.cluster)?;
        if matches!(delta.change, ClusterChange::DropNode(_)) {
            let dropped = self.invalidate(&req.model, &req.cluster);
            self.metrics.counter_add(
                "planner_elastic_quarantined_warm_records_total",
                dropped as u64,
            );
        }
        self.metrics.counter_incr("planner_elastic_deltas_total");
        Ok(PlanRequest {
            cluster: next,
            ..req.clone()
        })
    }

    /// Applies `delta` to `req` and plans the new topology on the
    /// calling thread: the blocking elastic path. Returns the rewritten
    /// request (the caller's new "current" request — feed it the next
    /// delta) alongside the winner and report. Whether the re-plan ran
    /// warm is visible in the report, exactly as for any other request.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when the delta does not apply; the
    /// planner's caches are untouched then.
    #[allow(clippy::type_complexity)]
    pub fn replan(
        &self,
        req: &PlanRequest,
        delta: &ClusterDelta,
    ) -> Result<(PlanRequest, Option<SearchResult>, SearchReport), ClusterError> {
        let next = self.apply_delta(req, delta)?;
        let (result, report) = self.plan(&next);
        Ok((next, result, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets;
    use bfpp_exec::search::{Method, SearchOptions};
    use bfpp_exec::KernelModel;
    use bfpp_model::presets as models;

    fn quick_req(cluster: ClusterSpec) -> PlanRequest {
        PlanRequest {
            opts: SearchOptions {
                max_microbatch: 4,
                max_loop: 8,
                max_actions: 30_000,
                ..SearchOptions::default()
            },
            ..PlanRequest::new(
                models::bert_6_6b(),
                cluster,
                Method::BreadthFirst,
                16,
                KernelModel::v100(),
            )
        }
    }

    #[test]
    fn drop_quarantines_and_add_restores_warmth() {
        let planner = Planner::with_threads(2);
        let req = quick_req(presets::dgx1_v100(2));

        // Cold plan on the full fleet records its sweep.
        let (_, cold) = planner.plan(&req);
        assert_eq!(cold.warm_hits, 0);

        // Node 1 dies: records for the 2-node topology are quarantined,
        // and the survivor topology plans cold.
        let delta = ClusterDelta::drop_node(NodeId(1));
        let (degraded_req, r1, rep1) = planner.replan(&req, &delta).expect("drop applies");
        assert_eq!(degraded_req.cluster.num_nodes, 1);
        assert!(r1.is_some());
        assert_eq!(rep1.warm_hits, 0, "degraded topology never planned before");
        let m = planner.metrics();
        assert_eq!(m.counter("planner_elastic_deltas_total"), 1);
        assert_eq!(
            m.counter("planner_elastic_quarantined_warm_records_total"),
            1
        );

        // The node returns: the restored spec is byte-identical to the
        // original, and adding quarantines nothing.
        let add = ClusterDelta::add_node(req.cluster.node.clone());
        let (restored_req, _, _) = planner.replan(&degraded_req, &add).expect("add applies");
        assert_eq!(restored_req.cluster, req.cluster);
        assert_eq!(
            planner
                .metrics()
                .counter("planner_elastic_quarantined_warm_records_total"),
            1,
            "adds never quarantine"
        );

        // Second flap: the degraded topology's record from the first
        // drop is still warm (the add dropped nothing), so this re-plan
        // replays instead of re-simulating — and agrees bit-for-bit.
        let (_, r2, rep2) = planner.replan(&restored_req, &delta).expect("drop applies");
        assert!(rep2.warm_hits > 0, "second drop must warm-hit: {rep2:?}");
        assert_eq!(r1, r2, "warm replay equals the cold degraded plan");
    }

    #[test]
    fn elastic_replanning_works_on_mixed_fleets() {
        let planner = Planner::with_threads(2);
        let req = quick_req(presets::mixed_v100_a100(1, 1));
        let (_, cold) = planner.plan(&req);
        assert_eq!(cold.warm_hits, 0);

        // Drop the A100 island: the survivor fleet is all-V100 but keeps
        // its heterogeneous representation and its name.
        let (degraded, r, _) = planner
            .replan(&req, &ClusterDelta::drop_node(NodeId(1)))
            .expect("drop applies");
        assert_eq!(degraded.cluster.num_nodes, 1);
        assert!(r.is_some(), "the degraded fleet still has a plan");

        // Re-adding the A100 node restores the original mixed spec.
        let a100 = NodeSpec::dgx_a100_40gb();
        let (restored, _, _) = planner
            .replan(&degraded, &ClusterDelta::add_node(a100))
            .expect("add applies");
        assert_eq!(restored.cluster, req.cluster);
    }

    #[test]
    fn invalid_deltas_leave_the_planner_untouched() {
        let planner = Planner::with_threads(1);
        let req = quick_req(presets::dgx1_v100(1));
        planner.plan(&req);
        let warm_before = planner.warm().unwrap().len();

        // Dropping the last node (or an out-of-range one) is a typed
        // error and must not quarantine anything.
        assert!(planner
            .replan(&req, &ClusterDelta::drop_node(NodeId(0)))
            .is_err());
        assert!(planner
            .replan(&req, &ClusterDelta::drop_node(NodeId(7)))
            .is_err());
        assert_eq!(planner.warm().unwrap().len(), warm_before);
        assert_eq!(planner.metrics().counter("planner_elastic_deltas_total"), 0);
    }
}
