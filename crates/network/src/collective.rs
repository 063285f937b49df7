//! Ring all-reduce bandwidth model (the NCCL-Tests stand-in).
//!
//! NCCL's rail-optimized ring sends each shard around a ring of GPUs; the
//! collective's bus bandwidth is gated by the slowest inter-node hop. We
//! build the same rail-parallel rings NCCL would (one ring per local GPU
//! rank) and evaluate their bandwidth over the routed fabric.

use rsc_cluster::ids::NodeId;
use rsc_cluster::node::GPUS_PER_NODE;

use crate::fabric::Fabric;
use crate::routing::{flow_bandwidths, route_flows, Flow, RoutedFlow, RoutingPolicy};

/// An all-reduce job: the participating servers (all 8 GPUs of each).
#[derive(Debug, Clone, PartialEq)]
pub struct AllReduce {
    nodes: Vec<NodeId>,
}

impl AllReduce {
    /// Creates an all-reduce across the given servers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes participate.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(nodes.len() >= 2, "all-reduce needs at least two nodes");
        AllReduce { nodes }
    }

    /// Participating servers.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of GPUs involved.
    pub fn gpus(&self) -> usize {
        self.nodes.len() * GPUS_PER_NODE
    }

    /// The inter-node ring flows: one ring per rail, each node sending to
    /// the next node in the ring on the same rail (rail-optimized NCCL).
    pub fn ring_flows(&self) -> Vec<Flow> {
        let n = self.nodes.len();
        let mut flows = Vec::with_capacity(n * GPUS_PER_NODE);
        for rail in 0..GPUS_PER_NODE as u8 {
            for i in 0..n {
                flows.push(Flow {
                    src: self.nodes[i],
                    dst: self.nodes[(i + 1) % n],
                    rail,
                });
            }
        }
        flows
    }
}

/// Result of evaluating one or more concurrent all-reduces.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveBandwidth {
    /// Per-collective bus bandwidth, Gb/s (the min over its ring flows,
    /// times the rail parallelism).
    pub busbw_gbps: Vec<f64>,
}

impl CollectiveBandwidth {
    /// Mean bus bandwidth across the collectives.
    pub fn mean(&self) -> f64 {
        if self.busbw_gbps.is_empty() {
            return 0.0;
        }
        self.busbw_gbps.iter().sum::<f64>() / self.busbw_gbps.len() as f64
    }

    /// Minimum per-collective bandwidth.
    pub fn min(&self) -> f64 {
        self.busbw_gbps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Evaluates concurrent all-reduces on a fabric under a routing policy.
///
/// Each collective's bus bandwidth is the slowest of its ring flows
/// multiplied by the number of parallel rails (flows on different rails
/// progress independently; the ring stalls at its slowest hop).
pub fn evaluate_collectives(
    fabric: &Fabric,
    collectives: &[AllReduce],
    policy: RoutingPolicy,
) -> CollectiveBandwidth {
    // Route all flows together so concurrent collectives contend.
    let mut all_flows: Vec<Flow> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for (i, c) in collectives.iter().enumerate() {
        for f in c.ring_flows() {
            all_flows.push(f);
            owners.push(i);
        }
    }
    let routed: Vec<RoutedFlow> = route_flows(fabric, &all_flows, policy);
    let bws = flow_bandwidths(fabric, &routed);

    let busbw = collectives
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let slowest = bws
                .iter()
                .zip(&owners)
                .filter(|(_, &o)| o == i)
                .map(|(&b, _)| b)
                .fold(f64::INFINITY, f64::min);
            // Eight rails progress in parallel.
            slowest * GPUS_PER_NODE as f64
        })
        .collect();
    CollectiveBandwidth { busbw_gbps: busbw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::spec::ClusterSpec;

    fn fabric() -> Fabric {
        Fabric::new(&ClusterSpec::new("t", 80))
    }

    #[test]
    fn ring_flows_cover_all_rails() {
        let ar = AllReduce::new((0..4).map(NodeId::new).collect());
        let flows = ar.ring_flows();
        assert_eq!(flows.len(), 4 * 8);
        assert_eq!(ar.gpus(), 32);
        // Each node sends exactly once per rail.
        for rail in 0..8u8 {
            let srcs: Vec<_> = flows
                .iter()
                .filter(|f| f.rail == rail)
                .map(|f| f.src)
                .collect();
            assert_eq!(srcs.len(), 4);
        }
    }

    #[test]
    fn healthy_fabric_delivers_full_rail_bandwidth() {
        let f = fabric();
        let ar = AllReduce::new((0..8).map(NodeId::new).collect());
        let result = evaluate_collectives(&f, &[ar], RoutingPolicy::Adaptive);
        // Each access link carries one outbound ring flow at 200 Gb/s...
        // but src and dst access links are distinct directions in reality;
        // our undirected model shares them between in+out flows → 100 Gb/s
        // per flow × 8 rails = 800 Gb/s.
        assert!((result.busbw_gbps[0] - 800.0).abs() < 1e-6, "{result:?}");
    }

    #[test]
    fn degraded_links_hurt_static_more_than_adaptive() {
        let mut f = fabric();
        // Degrade half the uplink planes everywhere by 80%.
        for pod in 0..4 {
            for rail in 0..8 {
                for plane in 0..2u8 {
                    f.inject_error_rate(crate::fabric::LinkId::Uplink { pod, rail, plane }, 0.8);
                }
            }
        }
        // Ring spanning two pods (nodes 0..40 crosses pods 0 and 1).
        let ar = AllReduce::new(vec![
            NodeId::new(0),
            NodeId::new(10),
            NodeId::new(25),
            NodeId::new(35),
        ]);
        let st = evaluate_collectives(
            &f,
            std::slice::from_ref(&ar),
            RoutingPolicy::Static {
                shield_threshold: 1.1,
            },
        );
        let ad = evaluate_collectives(&f, &[ar], RoutingPolicy::Adaptive);
        assert!(
            ad.busbw_gbps[0] > st.busbw_gbps[0],
            "adaptive {ad:?} vs static {st:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_allreduce_rejected() {
        let _ = AllReduce::new(vec![NodeId::new(0)]);
    }
}
