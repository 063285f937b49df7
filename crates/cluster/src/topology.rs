//! Physical placement: node → rack → pod mapping and locality distances.

use crate::ids::{NodeId, PodId, RackId};
use crate::spec::ClusterSpec;

/// Communication locality between two nodes, from cheapest to most
/// expensive (paper §II-B: NVSwitch < rail-local < pod-local < cross-pod).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// Same server (GPUs communicate over NVSwitch).
    SameNode,
    /// Same rack (one rail hop).
    SameRack,
    /// Same pod (within the rail-optimized network).
    SamePod,
    /// Different pods (traffic crosses spine switches).
    CrossPod,
}

/// Derived placement map for a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes_per_rack: u32,
    racks_per_pod: u32,
    num_nodes: u32,
}

impl Topology {
    /// Builds the topology for a spec.
    pub fn new(spec: &ClusterSpec) -> Self {
        Topology {
            nodes_per_rack: spec.nodes_per_rack(),
            racks_per_pod: spec.racks_per_pod(),
            num_nodes: spec.num_nodes(),
        }
    }

    /// Number of nodes covered by this topology.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The rack housing a node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        RackId::new(node.index() / self.nodes_per_rack)
    }

    /// The pod containing a node.
    pub fn pod_of(&self, node: NodeId) -> PodId {
        PodId::new(node.index() / self.nodes_per_pod())
    }

    /// Locality class between two nodes.
    pub fn locality(&self, a: NodeId, b: NodeId) -> Locality {
        if a == b {
            Locality::SameNode
        } else if self.rack_of(a) == self.rack_of(b) {
            Locality::SameRack
        } else if self.pod_of(a) == self.pod_of(b) {
            Locality::SamePod
        } else {
            Locality::CrossPod
        }
    }

    /// Nodes in a full pod (the last pod may hold fewer).
    pub fn nodes_per_pod(&self) -> u32 {
        self.nodes_per_rack * self.racks_per_pod
    }

    /// Number of pods, counting a partial last pod.
    pub fn num_pods(&self) -> u32 {
        self.num_nodes.div_ceil(self.nodes_per_pod())
    }

    /// The contiguous raw node-id range `[start, end)` covered by a pod.
    /// Node ids are assigned pod-major, so every pod is a dense id span —
    /// the property the allocator's bitset indexes slice on.
    pub fn pod_range(&self, pod: PodId) -> std::ops::Range<u32> {
        let per_pod = self.nodes_per_pod();
        let start = pod.index() * per_pod;
        let end = (start + per_pod).min(self.num_nodes);
        start..end
    }

    /// All node ids in a pod, in index order.
    pub fn nodes_in_pod(&self, pod: PodId) -> impl Iterator<Item = NodeId> + '_ {
        self.pod_range(pod).map(NodeId::new)
    }

    /// The number of distinct pods spanned by a set of nodes.
    pub fn pods_spanned<'a, I>(&self, nodes: I) -> usize
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let mut pods: Vec<u32> = nodes.into_iter().map(|&n| self.pod_of(n).index()).collect();
        pods.sort_unstable();
        pods.dedup();
        pods.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(&ClusterSpec::new("t", 100))
    }

    #[test]
    fn rack_and_pod_mapping() {
        let t = topo();
        assert_eq!(t.rack_of(NodeId::new(0)), RackId::new(0));
        assert_eq!(t.rack_of(NodeId::new(1)), RackId::new(0));
        assert_eq!(t.rack_of(NodeId::new(2)), RackId::new(1));
        // 20 nodes per pod.
        assert_eq!(t.pod_of(NodeId::new(19)), PodId::new(0));
        assert_eq!(t.pod_of(NodeId::new(20)), PodId::new(1));
        assert_eq!((t.nodes_per_pod(), t.num_pods()), (20, 5));
        let partial = Topology::new(&ClusterSpec::new("t", 70));
        assert_eq!(partial.num_pods(), 4);
        assert_eq!(partial.pod_range(PodId::new(3)), 60..70);
    }

    #[test]
    fn locality_ordering() {
        let t = topo();
        let a = NodeId::new(0);
        assert_eq!(t.locality(a, a), Locality::SameNode);
        assert_eq!(t.locality(a, NodeId::new(1)), Locality::SameRack);
        assert_eq!(t.locality(a, NodeId::new(5)), Locality::SamePod);
        assert_eq!(t.locality(a, NodeId::new(50)), Locality::CrossPod);
        assert!(Locality::SameNode < Locality::CrossPod);
    }

    #[test]
    fn locality_is_symmetric() {
        let t = topo();
        for &(i, j) in &[(0u32, 1u32), (0, 5), (0, 50), (33, 7)] {
            let (a, b) = (NodeId::new(i), NodeId::new(j));
            assert_eq!(t.locality(a, b), t.locality(b, a));
        }
    }

    #[test]
    fn nodes_in_pod_handles_partial_last_pod() {
        let t = topo(); // 100 nodes, 20 per pod → 5 full pods
        assert_eq!(t.nodes_in_pod(PodId::new(0)).count(), 20);
        assert_eq!(t.nodes_in_pod(PodId::new(4)).count(), 20);
        let t2 = Topology::new(&ClusterSpec::new("t2", 30));
        assert_eq!(t2.nodes_in_pod(PodId::new(1)).count(), 10);
    }

    #[test]
    fn pods_spanned_dedups() {
        let t = topo();
        let nodes = [
            NodeId::new(0),
            NodeId::new(3),
            NodeId::new(21),
            NodeId::new(22),
        ];
        assert_eq!(t.pods_spanned(nodes.iter()), 2);
    }
}
