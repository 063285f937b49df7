//! GPU slot accounting and topology-aware gang allocation.
//!
//! Sub-node jobs (the >90% of jobs smaller than one server, Obs. 7) share
//! nodes at GPU-slot granularity; multi-node jobs take whole servers.
//! Multi-node placement packs pods first, mirroring Slurm's attempt to
//! "co-locate the tasks given the physical network topology" (§II-A).

use rsc_cluster::bitset::HierBitSet;
use rsc_cluster::ids::{NodeId, NodeList, PodId};
use rsc_cluster::node::GPUS_PER_NODE;
use rsc_cluster::topology::Topology;

use crate::job::JobSpec;

/// Incrementally-maintained derived views of the pool, so allocation
/// queries don't rescan every node (DESIGN.md §9).
///
/// Invariants (over *available* nodes only):
///
/// * `free_gpus` = Σ free slots;
/// * `by_free[f]` holds exactly the nodes with `f` free slots, for
///   `f ≥ 1` (fully-busy nodes are indexed nowhere — no query looks
///   for zero free slots);
/// * `whole_count_by_pod[p]` counts the fully-free nodes of pod `p`, and
///   `whole_total` their overall count. The *identities* of a pod's
///   fully-free nodes are not stored twice: node ids are pod-contiguous,
///   so they are recovered by slicing `by_free[8]` with the pod's id
///   range ([`Topology::pod_range`]);
/// * `pods_by_fullness` holds the key `(per_pod − count) · num_pods + p`
///   for every pod `p` with a non-zero `count = whole_count_by_pod[p]`
///   (`num_pods = whole_count_by_pod.len()`). A count never exceeds
///   `per_pod`, so ascending key order is the whole-node packing order —
///   most fully-free nodes first, ties to the lowest pod index — and
///   `key % num_pods` recovers the pod. It is kept current so allocation
///   never sorts.
///
/// Every set in the index is a hierarchical bitset rather than a B-tree:
/// at a million nodes every commit/release re-files the node in two
/// buckets and may re-file its pod in the packing order, and the bitset
/// does each re-file with two or three word writes instead of a pointer
/// walk.
///
/// Unavailable nodes are absent from every structure; toggling
/// availability re-files the node.
#[derive(Debug, Clone, Default, PartialEq)]
struct PoolIndex {
    free_gpus: u64,
    by_free: [HierBitSet; GPUS_PER_NODE + 1],
    whole_count_by_pod: Vec<usize>,
    whole_total: usize,
    /// Nodes in a full pod: the largest possible `whole_count_by_pod`.
    per_pod: usize,
    pods_by_fullness: HierBitSet,
}

impl PoolIndex {
    /// The packing-order key of pod `pod` holding `count ≥ 1` fully-free
    /// nodes.
    fn fullness_key(&self, pod: usize, count: usize) -> u32 {
        ((self.per_pod - count) * self.whole_count_by_pod.len() + pod) as u32
    }
}

/// Tracks free GPU slots and schedulability for every node.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    topology: Topology,
    free_slots: Vec<u8>,
    available: Vec<bool>,
    // Derived data: deterministic function of the three fields above.
    index: PoolIndex,
}

/// Equality over the real state only; the index is derived.
impl PartialEq for ResourcePool {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology
            && self.free_slots == other.free_slots
            && self.available == other.available
    }
}

impl ResourcePool {
    /// Creates a pool with all nodes available and empty.
    pub fn new(topology: Topology) -> Self {
        let n = topology.num_nodes() as usize;
        let mut pool = ResourcePool {
            topology,
            free_slots: vec![GPUS_PER_NODE as u8; n],
            available: vec![true; n],
            index: PoolIndex::default(),
        };
        pool.rebuild_index();
        pool
    }

    /// Recomputes the derived index from the node state; needed only after
    /// construction or deserialization.
    ///
    /// One pass over the nodes, pod by pod, fills the buckets and counters,
    /// and files each pod in the packing order once, at its final count.
    /// The result equals filing every node through `index_insert`, without
    /// re-filing its pod in `pods_by_fullness` once per node.
    pub fn rebuild_index(&mut self) {
        let n = self.free_slots.len();
        let num_pods = self.topology.num_pods() as usize;
        let per_pod = self.topology.nodes_per_pod() as usize;
        let mut index = PoolIndex {
            free_gpus: 0,
            by_free: std::array::from_fn(|_| HierBitSet::new(n)),
            whole_count_by_pod: vec![0; num_pods],
            whole_total: 0,
            per_pod,
            pods_by_fullness: HierBitSet::new(per_pod * num_pods),
        };
        for pod in 0..num_pods {
            let mut whole = 0;
            for i in self.topology.pod_range(PodId::new(pod as u32)) {
                let i = i as usize;
                if !self.available[i] {
                    continue;
                }
                let free = self.free_slots[i];
                index.free_gpus += free as u64;
                if free > 0 {
                    index.by_free[free as usize].insert(i as u32);
                }
                whole += (free as usize == GPUS_PER_NODE) as usize;
            }
            index.whole_count_by_pod[pod] = whole;
            index.whole_total += whole;
            if whole > 0 {
                let key = index.fullness_key(pod, whole);
                index.pods_by_fullness.insert(key);
            }
        }
        self.index = index;
    }

    /// Files an available node into the index. Must not already be filed.
    fn index_insert(&mut self, i: usize) {
        let free = self.free_slots[i];
        self.index.free_gpus += free as u64;
        if free > 0 {
            self.index.by_free[free as usize].insert(i as u32);
        }
        if free as usize == GPUS_PER_NODE {
            let pod = self.topology.pod_of(NodeId::new(i as u32)).index() as usize;
            let count = self.index.whole_count_by_pod[pod];
            self.index.whole_count_by_pod[pod] = count + 1;
            self.refile_pod(pod, count, count + 1);
            self.index.whole_total += 1;
        }
    }

    /// Removes an available node from the index ahead of a state change.
    fn index_remove(&mut self, i: usize) {
        let free = self.free_slots[i];
        self.index.free_gpus -= free as u64;
        if free > 0 {
            self.index.by_free[free as usize].remove(i as u32);
        }
        if free as usize == GPUS_PER_NODE {
            let pod = self.topology.pod_of(NodeId::new(i as u32)).index() as usize;
            let count = self.index.whole_count_by_pod[pod];
            self.index.whole_count_by_pod[pod] = count - 1;
            self.refile_pod(pod, count, count - 1);
            self.index.whole_total -= 1;
        }
    }

    /// Moves pod `pod` from the `old`- to the `new`-count position in the
    /// packing order (zero counts are simply absent): two bit flips.
    fn refile_pod(&mut self, pod: usize, old: usize, new: usize) {
        if old > 0 {
            let key = self.index.fullness_key(pod, old);
            self.index.pods_by_fullness.remove(key);
        }
        if new > 0 {
            let key = self.index.fullness_key(pod, new);
            self.index.pods_by_fullness.insert(key);
        }
    }

    /// Updates a node's free-slot count, keeping the index current.
    fn set_free_slots(&mut self, i: usize, free: u8) {
        if self.available[i] {
            self.index_remove(i);
            self.free_slots[i] = free;
            self.index_insert(i);
        } else {
            self.free_slots[i] = free;
        }
    }

    /// The placement topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Marks a node schedulable or not (driven by cluster health state).
    /// Resource accounting is unchanged; running jobs are the scheduler's
    /// concern.
    pub fn set_available(&mut self, node: NodeId, available: bool) {
        let i = node.as_usize();
        if self.available[i] == available {
            return;
        }
        if available {
            self.available[i] = true;
            self.index_insert(i);
        } else {
            self.index_remove(i);
            self.available[i] = false;
        }
    }

    /// Whether a node is currently schedulable.
    pub fn is_available(&self, node: NodeId) -> bool {
        self.available[node.as_usize()]
    }

    /// Free GPU slots on a node.
    pub fn free_slots(&self, node: NodeId) -> u8 {
        self.free_slots[node.as_usize()]
    }

    /// Total free GPUs on available nodes. O(1) via the index.
    pub fn total_free_gpus(&self) -> u64 {
        self.index.free_gpus
    }

    /// The naive-scan equivalent of [`Self::total_free_gpus`], retained as
    /// the reference the unit tests pin the index against.
    #[cfg(test)]
    fn total_free_gpus_naive(&self) -> u64 {
        self.free_slots
            .iter()
            .zip(&self.available)
            .filter(|(_, &a)| a)
            .map(|(&f, _)| f as u64)
            .sum()
    }

    /// Count of fully-free available nodes. O(1) via the index.
    pub fn free_whole_nodes(&self) -> usize {
        self.index.whole_total
    }

    /// Ascending iterator over fully-free available nodes.
    pub(crate) fn free_whole_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.by_free[GPUS_PER_NODE].iter()
    }

    /// Total GPUs in the pool (available or not).
    pub fn total_gpus(&self) -> u64 {
        self.free_slots.len() as u64 * GPUS_PER_NODE as u64
    }

    /// Attempts to find an allocation for the spec without committing it.
    ///
    /// Sub-node jobs best-fit into the fullest node that still fits them
    /// (reducing fragmentation); multi-node jobs take fully-free nodes,
    /// packing pods with the most free capacity first.
    pub fn try_allocate(&self, spec: &JobSpec) -> Option<NodeList> {
        if spec.is_sub_node() {
            self.best_fit_sub_node(spec.gpus as u8).map(NodeList::one)
        } else {
            self.pack_whole_nodes(spec.nodes_needed() as usize)
                .map(NodeList::from)
        }
    }

    /// Tightest fit, ties to the lowest node index: exactly the minimum
    /// of `(free, index)` over nodes that fit — so the first non-empty
    /// free-count bucket at or above `gpus` holds the answer.
    fn best_fit_sub_node(&self, gpus: u8) -> Option<NodeId> {
        for f in gpus as usize..=GPUS_PER_NODE {
            if let Some(i) = self.index.by_free[f].first() {
                return Some(NodeId::new(i));
            }
        }
        None
    }

    /// The naive-scan equivalent of [`Self::best_fit_sub_node`] (reference
    /// for the property tests).
    #[doc(hidden)]
    pub fn best_fit_sub_node_naive(&self, gpus: u8) -> Option<NodeId> {
        let mut best: Option<(u8, usize)> = None;
        for (i, (&free, &avail)) in self.free_slots.iter().zip(&self.available).enumerate() {
            if !avail || free < gpus {
                continue;
            }
            // Prefer the tightest fit; ties go to the lowest index for
            // determinism.
            match best {
                Some((bf, _)) if bf <= free => {}
                _ => best = Some((free, i)),
            }
            if free == gpus {
                break; // perfect fit
            }
        }
        best.map(|(_, i)| NodeId::new(i as u32))
    }

    /// Takes whole nodes from the pods with the most free capacity first
    /// (fewest pods spanned), nodes in ascending id order within a pod,
    /// result sorted — byte-for-byte the choice the old full scan made,
    /// but O(needed) off the maintained packing order: `pods_by_fullness`
    /// ascending is exactly the old per-query sort's key (free count
    /// descending, pod index ascending; keys are unique, so stability
    /// cannot matter), with empty pods already absent.
    fn pack_whole_nodes(&self, needed: usize) -> Option<Vec<NodeId>> {
        if self.index.whole_total < needed {
            return None;
        }
        let num_pods = self.index.whole_count_by_pod.len() as u32;
        let mut chosen = Vec::with_capacity(needed);
        for key in self.index.pods_by_fullness.iter() {
            // A pod's fully-free nodes are the whole-node bucket sliced by
            // the pod's contiguous id range.
            let range = self.topology.pod_range(PodId::new(key % num_pods));
            for idx in self.index.by_free[GPUS_PER_NODE].iter_range(range.start, range.end) {
                chosen.push(NodeId::new(idx));
                if chosen.len() == needed {
                    chosen.sort();
                    return Some(chosen);
                }
            }
        }
        None
    }

    /// The naive-scan equivalent of [`Self::pack_whole_nodes`] (reference
    /// for the property tests).
    #[doc(hidden)]
    pub fn pack_whole_nodes_naive(&self, needed: usize) -> Option<Vec<NodeId>> {
        // Gather fully-free nodes grouped by pod (node ids are pod-ordered).
        let free_nodes: Vec<u32> = self
            .free_slots
            .iter()
            .zip(&self.available)
            .enumerate()
            .filter(|(_, (&f, &a))| a && f as usize == GPUS_PER_NODE)
            .map(|(i, _)| i as u32)
            .collect();
        if free_nodes.len() < needed {
            return None;
        }
        // Group by pod, then take from the pods with the most free nodes so
        // jobs span as few pods as possible.
        let mut by_pod: Vec<(u32, Vec<u32>)> = Vec::new();
        for idx in free_nodes {
            let pod = self.topology.pod_of(NodeId::new(idx)).index();
            match by_pod.last_mut() {
                Some((p, v)) if *p == pod => v.push(idx),
                _ => by_pod.push((pod, vec![idx])),
            }
        }
        by_pod.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut chosen = Vec::with_capacity(needed);
        for (_, nodes) in by_pod {
            for idx in nodes {
                chosen.push(NodeId::new(idx));
                if chosen.len() == needed {
                    chosen.sort();
                    return Some(chosen);
                }
            }
        }
        None
    }

    /// Naive-scan allocation (reference for the property tests): same
    /// routing as [`Self::try_allocate`] over the `_naive` primitives.
    #[doc(hidden)]
    pub fn try_allocate_naive(&self, spec: &JobSpec) -> Option<NodeList> {
        if spec.is_sub_node() {
            self.best_fit_sub_node_naive(spec.gpus as u8)
                .map(NodeList::one)
        } else {
            self.pack_whole_nodes_naive(spec.nodes_needed() as usize)
                .map(NodeList::from)
        }
    }

    /// Commits an allocation previously returned by [`Self::try_allocate`].
    ///
    /// # Panics
    ///
    /// Panics if the nodes cannot hold the job (double-commit bug).
    pub fn commit(&mut self, nodes: &[NodeId], spec: &JobSpec) {
        if spec.is_sub_node() {
            let n = nodes[0].as_usize();
            assert!(
                self.free_slots[n] >= spec.gpus as u8,
                "commit over capacity on {}",
                nodes[0]
            );
            self.set_free_slots(n, self.free_slots[n] - spec.gpus as u8);
        } else {
            for &node in nodes {
                let n = node.as_usize();
                assert!(
                    self.free_slots[n] as usize == GPUS_PER_NODE,
                    "commit on non-free node {node}"
                );
                self.set_free_slots(n, 0);
            }
        }
    }

    /// Releases a previously committed allocation.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed node capacity (double-release bug).
    pub fn release(&mut self, nodes: &[NodeId], spec: &JobSpec) {
        if spec.is_sub_node() {
            let n = nodes[0].as_usize();
            let new = self.free_slots[n] + spec.gpus as u8;
            assert!(
                new as usize <= GPUS_PER_NODE,
                "release over capacity on {}",
                nodes[0]
            );
            self.set_free_slots(n, new);
        } else {
            for &node in nodes {
                let n = node.as_usize();
                assert!(
                    self.free_slots[n] == 0,
                    "release of non-committed node {node}"
                );
                self.set_free_slots(n, GPUS_PER_NODE as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::JobId;
    use rsc_cluster::spec::ClusterSpec;
    use rsc_sim_core::time::{SimDuration, SimTime};

    use crate::job::{Destiny, QosClass};

    fn pool(nodes: u32) -> ResourcePool {
        ResourcePool::new(Topology::new(&ClusterSpec::new("t", nodes)))
    }

    /// The packing order as `(count, pod)` pairs, decoded from the
    /// bitset keys.
    fn packing_order(p: &ResourcePool) -> Vec<(usize, u32)> {
        let num_pods = p.index.whole_count_by_pod.len();
        p.index
            .pods_by_fullness
            .iter()
            .map(|key| {
                let key = key as usize;
                (p.index.per_pod - key / num_pods, (key % num_pods) as u32)
            })
            .collect()
    }

    /// The packing order the pool kept in a B-tree before it was a
    /// bitset, rebuilt from the per-pod counts.
    fn btree_packing_order(p: &ResourcePool) -> Vec<(usize, u32)> {
        use std::cmp::Reverse;
        use std::collections::BTreeSet;
        let order: BTreeSet<(Reverse<usize>, u32)> = p
            .index
            .whole_count_by_pod
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(pod, &count)| (Reverse(count), pod as u32))
            .collect();
        order
            .into_iter()
            .map(|(Reverse(c), pod)| (c, pod))
            .collect()
    }

    fn spec(gpus: u32) -> JobSpec {
        JobSpec {
            id: JobId::new(1),
            project: Default::default(),
            run: None,
            gpus,
            submit_at: SimTime::ZERO,
            work: SimDuration::from_hours(1),
            time_limit: SimDuration::from_days(7),
            qos: QosClass::Normal,
            checkpoint_interval: SimDuration::from_hours(1),
            restart_overhead: SimDuration::from_mins(5),
            destiny: Destiny::Complete,
            requeue_on_user_failure: false,
        }
    }

    #[test]
    fn sub_node_jobs_share_a_node() {
        let mut p = pool(4);
        let s1 = spec(3);
        let a1 = p.try_allocate(&s1).unwrap();
        p.commit(&a1, &s1);
        let s2 = spec(5);
        let a2 = p.try_allocate(&s2).unwrap();
        p.commit(&a2, &s2);
        // Best fit packs both onto the same node (3 + 5 = 8).
        assert_eq!(a1, a2);
        assert_eq!(p.free_slots(a1[0]), 0);
    }

    #[test]
    fn multi_node_requires_fully_free_nodes() {
        let mut p = pool(2);
        let small = spec(1);
        let a = p.try_allocate(&small).unwrap();
        p.commit(&a, &small);
        // 16-GPU job needs two fully-free nodes; only one remains.
        assert!(p.try_allocate(&spec(16)).is_none());
        assert!(p.try_allocate(&spec(8)).is_some());
    }

    #[test]
    fn multi_node_packs_single_pod_when_possible() {
        // 40 nodes = 2 pods of 20.
        let mut p = pool(40);
        // Occupy 10 nodes of pod 0 so pod 1 has more capacity.
        for i in 0..10 {
            let s = spec(8);
            let nodes = vec![NodeId::new(i)];
            p.commit(&nodes, &s);
        }
        let a = p.try_allocate(&spec(80)).unwrap(); // 10 nodes
        let pods = p.topology().pods_spanned(a.iter());
        assert_eq!(pods, 1, "allocation should fit in one pod: {a:?}");
        // They should come from pod 1 (20 free) rather than pod 0 (10 free).
        assert!(a.iter().all(|n| p.topology().pod_of(*n).index() == 1));
    }

    #[test]
    fn unavailable_nodes_are_skipped() {
        let mut p = pool(2);
        p.set_available(NodeId::new(0), false);
        let a = p.try_allocate(&spec(8)).unwrap();
        assert_eq!(*a, [NodeId::new(1)]);
        p.set_available(NodeId::new(1), false);
        assert!(p.try_allocate(&spec(1)).is_none());
    }

    #[test]
    fn commit_release_roundtrip() {
        let mut p = pool(4);
        let s = spec(16);
        let a = p.try_allocate(&s).unwrap();
        p.commit(&a, &s);
        assert_eq!(p.total_free_gpus(), 16);
        p.release(&a, &s);
        assert_eq!(p.total_free_gpus(), 32);
    }

    #[test]
    #[should_panic(expected = "release of non-committed node")]
    fn double_release_panics() {
        let mut p = pool(1);
        let s = spec(8);
        p.release(&[NodeId::new(0)], &s);
    }

    #[test]
    fn index_tracks_naive_oracles_through_churn() {
        let mut p = pool(40);
        // Drive a deterministic mix of commits, releases, and availability
        // flips, checking the indexed queries against the naive scans at
        // every step.
        let mut live: Vec<(NodeList, JobSpec)> = Vec::new();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 4 {
                0 | 1 => {
                    let gpus = 1 + (x >> 8) as u32 % 24;
                    let s = spec(gpus);
                    if let Some(nodes) = p.try_allocate(&s) {
                        assert_eq!(Some(nodes.clone()), p.try_allocate_naive(&s), "step {step}");
                        p.commit(&nodes, &s);
                        live.push((nodes, s));
                    } else {
                        assert_eq!(p.try_allocate_naive(&s), None, "step {step}");
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let (nodes, s) = live.swap_remove((x >> 8) as usize % live.len());
                        p.release(&nodes, &s);
                    }
                }
                _ => {
                    let node = NodeId::new((x >> 8) as u32 % 40);
                    // Only flip nodes with no live allocation, mirroring how
                    // the scheduler drains nodes before long unavailability.
                    if !live.iter().any(|(ns, _)| ns.contains(&node)) {
                        let avail = p.is_available(node);
                        p.set_available(node, !avail);
                    }
                }
            }
            assert_eq!(
                p.total_free_gpus(),
                p.total_free_gpus_naive(),
                "step {step}"
            );
            for gpus in [1u8, 3, 7] {
                assert_eq!(
                    p.best_fit_sub_node(gpus),
                    p.best_fit_sub_node_naive(gpus),
                    "step {step} gpus {gpus}"
                );
            }
            for needed in [1usize, 2, 5, 11] {
                assert_eq!(
                    p.pack_whole_nodes(needed),
                    p.pack_whole_nodes_naive(needed),
                    "step {step} needed {needed}"
                );
            }
        }
    }

    #[test]
    fn rebuild_index_matches_incremental() {
        // 70 nodes = three full pods of 20 plus a partial pod of 10, so the
        // cross-pod packing order is part of what the rebuild must match.
        let mut p = pool(70);
        let mut live: Vec<(NodeList, JobSpec)> = Vec::new();
        let mut x: u64 = 0x1319_8a2e_0370_7344;
        let mut cross_pod_orders = 0;
        for step in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 5 {
                0 | 1 => {
                    let s = spec(1 + (x >> 8) as u32 % 40);
                    if let Some(nodes) = p.try_allocate(&s) {
                        p.commit(&nodes, &s);
                        live.push((nodes, s));
                    }
                }
                2 | 3 => {
                    if !live.is_empty() {
                        let (nodes, s) = live.swap_remove((x >> 8) as usize % live.len());
                        p.release(&nodes, &s);
                    }
                }
                _ => {
                    let node = NodeId::new((x >> 8) as u32 % 70);
                    let avail = p.is_available(node);
                    p.set_available(node, !avail);
                }
            }
            let mut rebuilt = p.clone();
            rebuilt.rebuild_index();
            assert_eq!(rebuilt.index, p.index, "step {step}");
            let order = packing_order(&p);
            if order.len() >= 3 && order.first().map(|e| e.0) != order.last().map(|e| e.0) {
                cross_pod_orders += 1;
            }
        }
        assert!(
            cross_pod_orders > 100,
            "only {cross_pod_orders} steps ordered 3+ unequal pods"
        );
    }

    #[test]
    fn packing_order_matches_btree_oracle_through_churn() {
        // 40 nodes are two full pods; 50 and 70 end in a partial pod of 10.
        for nodes in [40u32, 50, 70] {
            let mut p = pool(nodes);
            let mut live: Vec<(NodeList, JobSpec)> = Vec::new();
            let mut x: u64 = 0xa409_3822_299f_31d0 ^ nodes as u64;
            for step in 0..600 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match x % 5 {
                    0 | 1 => {
                        let s = spec(1 + (x >> 8) as u32 % (8 * 25));
                        if let Some(nodes) = p.try_allocate(&s) {
                            p.commit(&nodes, &s);
                            live.push((nodes, s));
                        }
                    }
                    2 | 3 => {
                        if !live.is_empty() {
                            let (nodes, s) = live.swap_remove((x >> 8) as usize % live.len());
                            p.release(&nodes, &s);
                        }
                    }
                    _ => {
                        let node = NodeId::new((x >> 8) as u32 % nodes);
                        let avail = p.is_available(node);
                        p.set_available(node, !avail);
                    }
                }
                assert_eq!(
                    packing_order(&p),
                    btree_packing_order(&p),
                    "{nodes} nodes, step {step}"
                );
                for needed in [1usize, 2, 5, 11, 21, 30] {
                    assert_eq!(
                        p.pack_whole_nodes(needed),
                        p.pack_whole_nodes_naive(needed),
                        "{nodes} nodes, step {step}, needed {needed}"
                    );
                }
            }
        }
    }

    #[test]
    fn allocation_exhausts_then_fails() {
        let mut p = pool(2);
        let s = spec(8);
        for _ in 0..2 {
            let a = p.try_allocate(&s).unwrap();
            p.commit(&a, &s);
        }
        assert!(p.try_allocate(&spec(1)).is_none());
        assert_eq!(p.total_free_gpus(), 0);
    }
}
