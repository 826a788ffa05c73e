//! Heterogeneous fleets: per-node hardware maps and asymmetric fabrics.
//!
//! The paper's model assumes `num_nodes` *identical* nodes. Production
//! fleets rarely oblige: GPU generations mix as clusters grow
//! (V100 islands next to A100 islands), and the fabric between two
//! islands is often slower than the fabric inside either. A
//! [`HeteroCluster`] extends a [`ClusterSpec`] with exactly the two maps
//! the performance model needs:
//!
//! * a **per-node hardware map** — one [`NodeSpec`] per node, so every
//!   global rank has its own flop/s, memory capacity and link speeds
//!   ([`ClusterSpec::gpu_of`], [`ClusterSpec::peak_flops_of`]);
//! * an **asymmetric fabric map** — per-node-pair [`LinkSpec`]
//!   overrides for inter-node links that differ from either endpoint's
//!   default ([`ClusterSpec::with_fabric_link`]).
//!
//! The only structural invariant is that every node exposes the same
//! `gpus_per_node`, which keeps the node-major rank numbering (and the
//! grid mapping in `bfpp-parallel`) valid unchanged. Everything else may
//! vary per node.
//!
//! Elastic fleets are modelled as transitions between `ClusterSpec`s:
//! [`ClusterSpec::without_node`] and [`ClusterSpec::with_added_node`]
//! produce the post-delta fleet (dropping a failed node, admitting a
//! replacement) while preserving the cluster's name, so a fleet that
//! returns to a previously seen shape compares equal to it — which is
//! what lets the planner's warm-start records replay across an
//! elastic flap.

use std::fmt;

#[allow(unused_imports)] // doc links above
use crate::cluster::ClusterSpec;
use crate::cluster::NodeId;
use crate::network::LinkSpec;
use crate::node::NodeSpec;

/// The heterogeneity extension of a [`ClusterSpec`]: per-node hardware
/// and per-node-pair fabric overrides. Constructed through
/// [`ClusterSpec::heterogeneous`] and [`ClusterSpec::with_fabric_link`],
/// which enforce the invariants (equal `gpus_per_node` everywhere,
/// in-range fabric endpoints).
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCluster {
    /// One spec per node, indexed by [`NodeId`]. Invariant: non-empty,
    /// all sharing one `gpus_per_node`.
    pub(crate) nodes: Vec<NodeSpec>,
    /// Inter-node fabric overrides for specific (unordered) node pairs.
    /// Pairs without an override fall back to the slower of the two
    /// endpoints' default inter-node links.
    pub(crate) fabric: Vec<FabricLink>,
}

impl HeteroCluster {
    /// The per-node hardware map.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The asymmetric fabric overrides.
    pub fn fabric(&self) -> &[FabricLink] {
        &self.fabric
    }
}

/// One asymmetric-fabric entry: the link used between two specific
/// nodes, overriding both endpoints' default inter-node links.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricLink {
    /// One endpoint (unordered; stored with `a < b`).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The link between them.
    pub link: LinkSpec,
}

/// Why a cluster construction, grid request or elastic delta is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A heterogeneous cluster needs at least one node.
    Empty,
    /// A node's `gpus_per_node` differs from the fleet's — the node-major
    /// rank numbering requires one device count per node.
    MixedGpusPerNode {
        /// The fleet's device count per node.
        expected: u32,
        /// The offending node's device count.
        found: u32,
    },
    /// A node index is outside `0..num_nodes`.
    NodeOutOfRange {
        /// The requested node.
        node: u32,
        /// Nodes in the fleet.
        num_nodes: u32,
    },
    /// Dropping this node would leave an empty cluster.
    LastNode,
    /// The fleet's device count `num_nodes × gpus_per_node` does not fit
    /// the `u32` device ranks are numbered in.
    TooManyGpus {
        /// Nodes in the fleet.
        num_nodes: u64,
        /// Devices per node.
        gpus_per_node: u32,
    },
    /// A fabric override from a node to itself.
    SelfLink {
        /// The node.
        node: u32,
    },
    /// The requested `PP × DP` grid does not divide the fleet's device
    /// count evenly — accepting it would silently strand (truncate) the
    /// remainder of the GPUs.
    GridMismatch {
        /// Devices in the fleet.
        num_gpus: u32,
        /// Requested pipeline degree.
        n_pp: u32,
        /// Requested data-parallel degree.
        n_dp: u32,
    },
    /// The tensor-parallel width implied by the grid
    /// (`num_gpus / (PP·DP)`) does not divide a node's device count, so
    /// a tensor-parallel group would span nodes.
    TensorWidthMismatch {
        /// The implied tensor-parallel width.
        n_tp: u32,
        /// Devices per node.
        gpus_per_node: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Empty => write!(f, "a cluster needs at least one node"),
            ClusterError::MixedGpusPerNode { expected, found } => write!(
                f,
                "every node must expose {expected} GPUs, got a node with {found}"
            ),
            ClusterError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range (cluster has {num_nodes} nodes)"
                )
            }
            ClusterError::LastNode => {
                write!(f, "cannot drop the last node of a cluster")
            }
            ClusterError::TooManyGpus {
                num_nodes,
                gpus_per_node,
            } => write!(
                f,
                "{num_nodes} nodes of {gpus_per_node} GPUs exceed {} devices",
                u32::MAX
            ),
            ClusterError::SelfLink { node } => {
                write!(f, "no fabric link from node {node} to itself")
            }
            ClusterError::GridMismatch {
                num_gpus,
                n_pp,
                n_dp,
            } => write!(
                f,
                "PP×DP grid {n_pp}x{n_dp} does not divide {num_gpus} GPUs evenly"
            ),
            ClusterError::TensorWidthMismatch {
                n_tp,
                gpus_per_node,
            } => write!(
                f,
                "implied tensor width {n_tp} does not divide a {gpus_per_node}-GPU node"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Orders two links by slowness for bottleneck selection: slower tier
/// first, then lower bandwidth. Returns the slower of the two.
pub(crate) fn slower_link<'a>(a: &'a LinkSpec, b: &'a LinkSpec) -> &'a LinkSpec {
    if (b.tier, -b.bandwidth) > (a.tier, -a.bandwidth) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkTier;

    #[test]
    fn slower_link_prefers_worse_tier_then_lower_bandwidth() {
        let nv = LinkSpec::nvlink_v100();
        let ib = LinkSpec::infiniband_dgx1();
        let eth = LinkSpec::ethernet_10g();
        assert_eq!(slower_link(&nv, &ib).tier, NetworkTier::InfiniBand);
        assert_eq!(slower_link(&eth, &ib).tier, NetworkTier::Ethernet);
        let ib_slow = LinkSpec::new(NetworkTier::InfiniBand, 10e9, 5e-6, 30e-6);
        assert_eq!(slower_link(&ib, &ib_slow).bandwidth, 10e9);
        // Ties keep the first argument.
        assert!(std::ptr::eq(slower_link(&ib, &ib), &ib));
    }

    #[test]
    fn errors_render_their_parameters() {
        let e = ClusterError::GridMismatch {
            num_gpus: 56,
            n_pp: 8,
            n_dp: 6,
        };
        assert!(e.to_string().contains("8x6"));
        assert!(e.to_string().contains("56"));
        let e = ClusterError::MixedGpusPerNode {
            expected: 8,
            found: 4,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('4'));
    }
}
