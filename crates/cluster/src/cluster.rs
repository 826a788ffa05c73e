//! Whole-cluster specifications and rank/link addressing.

use std::fmt;

use crate::gpu::GpuSpec;
use crate::hetero::{slower_link, ClusterError, FabricLink, HeteroCluster};
use crate::network::LinkSpec;
use crate::node::NodeSpec;

/// Global index of a device in the cluster, in `0..num_gpus()`.
///
/// Devices are numbered node-major: ranks `0..gpus_per_node` live on node
/// 0, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalRank(pub u32);

/// Index of a node (server) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A GPU cluster: `num_nodes` nodes, identical by default, optionally
/// heterogeneous (per-node hardware, asymmetric fabric) through the
/// [`HeteroCluster`] extension.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name for reporting.
    pub name: String,
    /// Number of nodes.
    pub num_nodes: u32,
    /// The node type. For heterogeneous clusters this is the *reference*
    /// node (node 0); per-node specs come from [`ClusterSpec::node_spec`].
    pub node: NodeSpec,
    /// Per-node overrides for heterogeneous fleets; `None` means every
    /// node is exactly `node`.
    hetero: Option<HeteroCluster>,
}

impl ClusterSpec {
    /// Creates a cluster of `num_nodes` identical `node`s.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero or the GPU count does not fit a
    /// `u32`.
    pub fn new(name: impl Into<String>, num_nodes: u32, node: NodeSpec) -> Self {
        assert!(num_nodes > 0, "num_nodes must be positive");
        assert!(
            check_gpu_count(num_nodes.into(), node.gpus_per_node).is_ok(),
            "{num_nodes} nodes of {} GPUs overflow the u32 device count",
            node.gpus_per_node
        );
        ClusterSpec {
            name: name.into(),
            num_nodes,
            node,
            hetero: None,
        }
    }

    /// Creates a heterogeneous cluster from an explicit per-node
    /// hardware map. Node `i` of the fleet is `nodes[i]`; the fleet's
    /// reference node (the `node` field) is `nodes[0]`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Empty`] for an empty map,
    /// [`ClusterError::MixedGpusPerNode`] when the nodes disagree on
    /// `gpus_per_node` (the node-major rank numbering requires one
    /// device count per node), and [`ClusterError::TooManyGpus`] when
    /// the GPU count does not fit a `u32`.
    pub fn heterogeneous(
        name: impl Into<String>,
        nodes: Vec<NodeSpec>,
    ) -> Result<Self, ClusterError> {
        let first = nodes.first().ok_or(ClusterError::Empty)?;
        let expected = first.gpus_per_node;
        for n in &nodes {
            if n.gpus_per_node != expected {
                return Err(ClusterError::MixedGpusPerNode {
                    expected,
                    found: n.gpus_per_node,
                });
            }
        }
        check_gpu_count(nodes.len() as u64, expected)?;
        Ok(ClusterSpec {
            name: name.into(),
            num_nodes: nodes.len() as u32,
            node: first.clone(),
            hetero: Some(HeteroCluster {
                nodes,
                fabric: Vec::new(),
            }),
        })
    }

    /// Adds (or replaces) an asymmetric-fabric override: the inter-node
    /// link between nodes `a` and `b` (unordered). A homogeneous cluster
    /// is promoted to a heterogeneous one with `num_nodes` copies of its
    /// node spec.
    ///
    /// # Errors
    ///
    /// [`ClusterError::SelfLink`] when `a == b`,
    /// [`ClusterError::NodeOutOfRange`] when either endpoint is.
    pub fn with_fabric_link(
        mut self,
        a: NodeId,
        b: NodeId,
        link: LinkSpec,
    ) -> Result<Self, ClusterError> {
        if a == b {
            return Err(ClusterError::SelfLink { node: a.0 });
        }
        for n in [a, b] {
            if n.0 >= self.num_nodes {
                return Err(ClusterError::NodeOutOfRange {
                    node: n.0,
                    num_nodes: self.num_nodes,
                });
            }
        }
        let (a, b) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let hetero = self.hetero.get_or_insert_with(|| HeteroCluster {
            nodes: vec![self.node.clone(); self.num_nodes as usize],
            fabric: Vec::new(),
        });
        match hetero.fabric.iter_mut().find(|f| f.a == a && f.b == b) {
            Some(existing) => existing.link = link,
            None => hetero.fabric.push(FabricLink { a, b, link }),
        }
        Ok(self)
    }

    /// Whether this cluster carries per-node heterogeneity (hardware map
    /// or fabric overrides).
    pub fn is_hetero(&self) -> bool {
        self.hetero.is_some()
    }

    /// The heterogeneity extension, when present.
    pub fn hetero(&self) -> Option<&HeteroCluster> {
        self.hetero.as_ref()
    }

    /// The hardware spec of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_spec(&self, node: NodeId) -> &NodeSpec {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        match &self.hetero {
            Some(h) => &h.nodes[node.0 as usize],
            None => &self.node,
        }
    }

    /// The GPU model at one global rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn gpu_of(&self, rank: GlobalRank) -> &GpuSpec {
        &self.node_spec(self.node_of(rank)).gpu
    }

    /// Peak half-precision flop/s of the device at one global rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn peak_flops_of(&self, rank: GlobalRank) -> f64 {
        self.gpu_of(rank).peak_fp16_flops
    }

    /// The smallest device memory capacity in the fleet — the
    /// conservative capacity a placement-agnostic feasibility check must
    /// use. Identical to `node.gpu.memory_bytes` for homogeneous
    /// clusters.
    pub fn min_memory_bytes(&self) -> u64 {
        match &self.hetero {
            None => self.node.gpu.memory_bytes,
            Some(h) => h
                .nodes
                .iter()
                .map(|n| n.gpu.memory_bytes)
                .min()
                .expect("a hetero cluster has at least one node"),
        }
    }

    /// The fleet's reference device speed for utilization reporting:
    /// the (single) device speed of a homogeneous cluster, the
    /// device-count-weighted mean peak flop/s of a heterogeneous one.
    pub fn reference_flops(&self) -> f64 {
        match &self.hetero {
            None => self.node.gpu.peak_fp16_flops,
            Some(h) => {
                let sum: f64 = h.nodes.iter().map(|n| n.gpu.peak_fp16_flops).sum();
                sum / h.nodes.len() as f64
            }
        }
    }

    /// The inter-node link between two distinct nodes: the fabric
    /// override for the pair when one exists, otherwise the slower of
    /// the two endpoints' default inter-node links (a flow is throttled
    /// by its slower endpoint).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are equal or out of range.
    pub fn inter_link_between(&self, a: NodeId, b: NodeId) -> &LinkSpec {
        assert_ne!(a, b, "no inter-node link from a node to itself");
        assert!(
            a.0 < self.num_nodes && b.0 < self.num_nodes,
            "node out of range"
        );
        let Some(h) = &self.hetero else {
            return &self.node.inter_link;
        };
        let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
        if let Some(f) = h.fabric.iter().find(|f| f.a == lo && f.b == hi) {
            return &f.link;
        }
        slower_link(
            &h.nodes[lo.0 as usize].inter_link,
            &h.nodes[hi.0 as usize].inter_link,
        )
    }

    /// Drops one node from the fleet (an elastic scale-down / failure
    /// delta). The cluster's name is preserved — the name identifies the
    /// fleet, not its current size — so a fleet that later regains the
    /// node compares equal to its pre-failure self. Fabric overrides
    /// touching the dropped node are removed and the remaining node
    /// indices shift down.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeOutOfRange`] and, for single-node clusters,
    /// [`ClusterError::LastNode`].
    pub fn without_node(&self, node: NodeId) -> Result<ClusterSpec, ClusterError> {
        if node.0 >= self.num_nodes {
            return Err(ClusterError::NodeOutOfRange {
                node: node.0,
                num_nodes: self.num_nodes,
            });
        }
        if self.num_nodes == 1 {
            return Err(ClusterError::LastNode);
        }
        let mut out = self.clone();
        out.num_nodes -= 1;
        if let Some(h) = &mut out.hetero {
            h.nodes.remove(node.0 as usize);
            h.fabric.retain(|f| f.a != node && f.b != node);
            for f in &mut h.fabric {
                if f.a.0 > node.0 {
                    f.a.0 -= 1;
                }
                if f.b.0 > node.0 {
                    f.b.0 -= 1;
                }
            }
            out.node = h.nodes[0].clone();
        }
        Ok(out)
    }

    /// Appends one node to the fleet (an elastic scale-up delta). The
    /// name is preserved, and adding a node identical to a homogeneous
    /// cluster's node type keeps the cluster homogeneous — so a
    /// drop-then-re-add round trip reproduces the original spec exactly.
    ///
    /// # Errors
    ///
    /// [`ClusterError::MixedGpusPerNode`] when the new node's device
    /// count differs from the fleet's, and [`ClusterError::TooManyGpus`]
    /// when the grown fleet's GPU count does not fit a `u32`.
    pub fn with_added_node(&self, node: NodeSpec) -> Result<ClusterSpec, ClusterError> {
        if node.gpus_per_node != self.node.gpus_per_node {
            return Err(ClusterError::MixedGpusPerNode {
                expected: self.node.gpus_per_node,
                found: node.gpus_per_node,
            });
        }
        check_gpu_count(u64::from(self.num_nodes) + 1, node.gpus_per_node)?;
        let mut out = self.clone();
        out.num_nodes += 1;
        match &mut out.hetero {
            None if node == self.node => {}
            None => {
                let mut nodes = vec![self.node.clone(); self.num_nodes as usize];
                nodes.push(node);
                out.hetero = Some(HeteroCluster {
                    nodes,
                    fabric: Vec::new(),
                });
            }
            Some(h) => h.nodes.push(node),
        }
        Ok(out)
    }

    /// Total number of GPUs (`N_GPU = N_Node × S_Node`).
    pub fn num_gpus(&self) -> u32 {
        self.num_nodes * self.node.gpus_per_node
    }

    /// The node hosting a global rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: GlobalRank) -> NodeId {
        assert!(rank.0 < self.num_gpus(), "rank {rank:?} out of range");
        NodeId(rank.0 / self.node.gpus_per_node)
    }

    /// The link used between two distinct global ranks: the hosting
    /// node's intra-node link when they share a node, the inter-node
    /// link between their hosts otherwise (with the heterogeneous fabric
    /// override applied when one exists).
    ///
    /// # Panics
    ///
    /// Panics if the ranks are equal or out of range.
    pub fn link_between(&self, a: GlobalRank, b: GlobalRank) -> &LinkSpec {
        assert_ne!(a, b, "no link from a device to itself");
        let (na, nb) = (self.node_of(a), self.node_of(b));
        if na == nb {
            &self.node_spec(na).intra_link
        } else {
            self.inter_link_between(na, nb)
        }
    }

    /// The slowest link spanned by a group of ranks — the bottleneck for a
    /// flat collective over the group. Returns the intra-node link for
    /// single-node groups (and for trivial groups of one). On a
    /// heterogeneous cluster the bottleneck is taken over every involved
    /// node's links (including fabric overrides between involved pairs).
    pub fn group_link(&self, ranks: &[GlobalRank]) -> &LinkSpec {
        let spans_nodes = ranks
            .windows(2)
            .any(|w| self.node_of(w[0]) != self.node_of(w[1]))
            || ranks
                .first()
                .map(|f| ranks.iter().any(|r| self.node_of(*r) != self.node_of(*f)))
                .unwrap_or(false);
        if self.hetero.is_none() {
            return if spans_nodes {
                &self.node.inter_link
            } else {
                &self.node.intra_link
            };
        }
        let mut nodes: Vec<NodeId> = ranks.iter().map(|r| self.node_of(*r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if !spans_nodes {
            let host = nodes.first().copied().unwrap_or(NodeId(0));
            return &self.node_spec(host).intra_link;
        }
        let mut worst: Option<&LinkSpec> = None;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let link = self.inter_link_between(a, b);
                worst = Some(match worst {
                    None => link,
                    Some(w) => slower_link(w, link),
                });
            }
        }
        worst.expect("a spanning group involves at least two nodes")
    }

    /// The *hardware intensity* `I_hw = peak flop/s ÷ link bytes/s`
    /// (paper Eq. 16 context): an operation whose arithmetic intensity is
    /// below this cannot hide its communication behind computation.
    pub fn hardware_intensity(&self, link: &LinkSpec) -> f64 {
        self.node.gpu.peak_fp16_flops / link.bandwidth
    }

    /// Hardware intensity of the inter-node link (the figure that matters
    /// for data parallelism across nodes).
    pub fn inter_node_intensity(&self) -> f64 {
        self.hardware_intensity(&self.node.inter_link)
    }

    /// Hardware intensity of the intra-node link (the figure that matters
    /// for tensor parallelism).
    pub fn intra_node_intensity(&self) -> f64 {
        self.hardware_intensity(&self.node.intra_link)
    }

    /// Iterates over all global ranks.
    pub fn ranks(&self) -> impl Iterator<Item = GlobalRank> {
        (0..self.num_gpus()).map(GlobalRank)
    }

    /// Whether all `ranks` fit on one node (required for tensor
    /// parallelism in the paper's setting).
    pub fn is_single_node(&self, ranks: &[GlobalRank]) -> bool {
        match ranks.split_first() {
            None => true,
            Some((first, rest)) => {
                let n = self.node_of(*first);
                rest.iter().all(|r| self.node_of(*r) == n)
            }
        }
    }
}

/// Checks that `num_nodes` nodes of `gpus_per_node` GPUs number at most
/// `u32::MAX` devices, the type device ranks are numbered in.
fn check_gpu_count(num_nodes: u64, gpus_per_node: u32) -> Result<(), ClusterError> {
    match u32::try_from(num_nodes * u64::from(gpus_per_node)) {
        Ok(_) => Ok(()),
        Err(_) => Err(ClusterError::TooManyGpus {
            num_nodes,
            gpus_per_node,
        }),
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} nodes of {} ({} GPUs)",
            self.name,
            self.num_nodes,
            self.node,
            self.num_gpus()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkTier;
    use crate::presets;

    #[test]
    fn rank_to_node_mapping_is_node_major() {
        let c = presets::dgx1_v100(4);
        assert_eq!(c.node_of(GlobalRank(0)), NodeId(0));
        assert_eq!(c.node_of(GlobalRank(7)), NodeId(0));
        assert_eq!(c.node_of(GlobalRank(8)), NodeId(1));
        assert_eq!(c.node_of(GlobalRank(31)), NodeId(3));
    }

    #[test]
    fn link_selection_by_locality() {
        let c = presets::dgx1_v100(2);
        assert_eq!(
            c.link_between(GlobalRank(0), GlobalRank(7)).tier,
            NetworkTier::NvLink
        );
        assert_eq!(
            c.link_between(GlobalRank(0), GlobalRank(8)).tier,
            NetworkTier::InfiniBand
        );
    }

    #[test]
    fn group_link_is_bottleneck() {
        let c = presets::dgx1_v100(2);
        let intra: Vec<GlobalRank> = (0..8).map(GlobalRank).collect();
        let spanning: Vec<GlobalRank> = vec![GlobalRank(0), GlobalRank(9)];
        assert_eq!(c.group_link(&intra).tier, NetworkTier::NvLink);
        assert_eq!(c.group_link(&spanning).tier, NetworkTier::InfiniBand);
        assert_eq!(c.group_link(&[]).tier, NetworkTier::NvLink);
    }

    #[test]
    fn paper_intensity_examples_pin() {
        // Appendix A.3: on an A100, I_IB = 6240 and I_NVLink = 520 flop/byte.
        let c = presets::dgx_a100(1);
        assert!((c.inter_node_intensity() - 6240.0).abs() < 1.0);
        assert!((c.intra_node_intensity() - 520.0).abs() < 1.0);
    }

    #[test]
    fn single_node_detection() {
        let c = presets::dgx1_v100(2);
        assert!(c.is_single_node(&[GlobalRank(1), GlobalRank(5)]));
        assert!(!c.is_single_node(&[GlobalRank(1), GlobalRank(9)]));
        assert!(c.is_single_node(&[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_rejects_out_of_range() {
        presets::dgx1_v100(1).node_of(GlobalRank(8));
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn link_between_rejects_self() {
        let c = presets::dgx1_v100(1);
        c.link_between(GlobalRank(0), GlobalRank(0));
    }

    #[test]
    fn heterogeneous_rejects_bad_maps() {
        assert_eq!(
            ClusterSpec::heterogeneous("empty", vec![]),
            Err(ClusterError::Empty)
        );
        let mut odd = NodeSpec::dgx1_v100();
        odd.gpus_per_node = 4;
        assert_eq!(
            ClusterSpec::heterogeneous("mixed", vec![NodeSpec::dgx1_v100(), odd]),
            Err(ClusterError::MixedGpusPerNode {
                expected: 8,
                found: 4,
            })
        );
    }

    #[test]
    fn fabric_link_validates_and_normalizes_endpoints() {
        let c = presets::dgx1_v100(2);
        assert_eq!(
            c.clone()
                .with_fabric_link(NodeId(1), NodeId(1), LinkSpec::ethernet_10g()),
            Err(ClusterError::SelfLink { node: 1 })
        );
        assert_eq!(
            c.clone()
                .with_fabric_link(NodeId(0), NodeId(2), LinkSpec::ethernet_10g()),
            Err(ClusterError::NodeOutOfRange {
                node: 2,
                num_nodes: 2,
            })
        );
        // Reversed endpoints hit the same (normalized) override.
        let c = c
            .with_fabric_link(NodeId(1), NodeId(0), LinkSpec::ethernet_10g())
            .unwrap();
        assert!(c.is_hetero());
        assert_eq!(
            c.inter_link_between(NodeId(0), NodeId(1)).tier,
            NetworkTier::Ethernet
        );
        // Re-linking the pair replaces rather than duplicates.
        let c = c
            .with_fabric_link(NodeId(0), NodeId(1), LinkSpec::infiniband_dgx1())
            .unwrap();
        assert_eq!(c.hetero().unwrap().fabric().len(), 1);
        assert_eq!(
            c.inter_link_between(NodeId(1), NodeId(0)).tier,
            NetworkTier::InfiniBand
        );
    }

    #[test]
    fn elastic_round_trip_restores_the_homogeneous_spec_exactly() {
        // The property the planner's elastic warm-start relies on: a fleet
        // that loses a node and regains an identical one compares equal
        // (and Debug-formats identically) to its pre-failure self.
        let base = presets::dgx1_v100(8);
        let degraded = base.without_node(NodeId(3)).unwrap();
        assert_eq!(degraded.num_gpus(), 56);
        assert_eq!(degraded.name, base.name);
        assert!(!degraded.is_hetero());
        let restored = degraded.with_added_node(NodeSpec::dgx1_v100()).unwrap();
        assert_eq!(restored, base);
        assert_eq!(format!("{restored:?}"), format!("{base:?}"));
    }

    #[test]
    fn elastic_deltas_maintain_hetero_indices() {
        let c = presets::mixed_v100_a100_asym(2, 2);
        // Drop V100 node 1: the cross-island overrides touching it vanish
        // and the A100 nodes shift down to indices 1 and 2.
        let c = c.without_node(NodeId(1)).unwrap();
        assert_eq!(c.num_nodes, 3);
        assert!(c.node_spec(NodeId(0)).gpu.name.contains("V100"));
        assert!(c.node_spec(NodeId(1)).gpu.name.contains("A100"));
        assert_eq!(c.hetero().unwrap().fabric().len(), 2);
        assert_eq!(
            c.inter_link_between(NodeId(0), NodeId(2)).tier,
            NetworkTier::Ethernet
        );
        // Without an override, cross-generation traffic bottlenecks on
        // the slower endpoint's default fabric.
        let plain = presets::mixed_v100_a100(1, 1);
        let link = plain.inter_link_between(NodeId(0), NodeId(1));
        assert_eq!(link.bandwidth, LinkSpec::infiniband_dgx1().bandwidth);
        // Growing by a V100 node keeps the map aligned.
        let grown = plain.with_added_node(NodeSpec::dgx1_v100()).unwrap();
        assert_eq!(grown.num_nodes, 3);
        assert!(grown.node_spec(NodeId(2)).gpu.name.contains("V100"));
    }

    #[test]
    fn elastic_deltas_reject_invalid_requests() {
        let single = presets::dgx1_v100(1);
        assert_eq!(single.without_node(NodeId(0)), Err(ClusterError::LastNode));
        assert_eq!(
            single.without_node(NodeId(1)),
            Err(ClusterError::NodeOutOfRange {
                node: 1,
                num_nodes: 1,
            })
        );
        let mut odd = NodeSpec::dgx1_v100();
        odd.gpus_per_node = 16;
        assert!(matches!(
            single.with_added_node(odd),
            Err(ClusterError::MixedGpusPerNode { .. })
        ));
        // Device ranks are `u32`: a fleet that fills them cannot grow.
        let full = presets::dgx1_v100(u32::MAX / 8);
        assert_eq!(full.num_gpus(), u32::MAX - 7);
        assert_eq!(
            full.with_added_node(NodeSpec::dgx1_v100()),
            Err(ClusterError::TooManyGpus {
                num_nodes: u64::from(u32::MAX / 8) + 1,
                gpus_per_node: 8,
            })
        );
        let mut wide = NodeSpec::dgx1_v100();
        wide.gpus_per_node = u32::MAX;
        assert_eq!(
            ClusterSpec::heterogeneous("wide", vec![wide.clone(), wide]),
            Err(ClusterError::TooManyGpus {
                num_nodes: 2,
                gpus_per_node: u32::MAX,
            })
        );
    }

    #[test]
    #[should_panic(expected = "overflow the u32 device count")]
    fn new_rejects_a_gpu_count_past_u32() {
        presets::dgx1_v100(u32::MAX);
    }
}
