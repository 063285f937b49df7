//! Strongly-typed identifiers for cluster entities.
//!
//! Newtypes keep node/rack/pod/GPU indices from being mixed up across crate
//! boundaries (a scheduler bug class the type system can simply delete).

use std::fmt;

/// Identifier of a server (node) within a cluster: a dense index in
/// `0..num_nodes`.
///
/// ```
/// use rsc_cluster::ids::NodeId;
///
/// let n = NodeId::new(17);
/// assert_eq!(n.index(), 17);
/// assert_eq!(n.to_string(), "node17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The dense index as a `usize`, for vector indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The nodes of one job allocation, in allocation order: one node inline,
/// any other count boxed.
///
/// Nearly every job record (95% of the pinned RSC months) holds exactly one
/// node, so the common record costs no heap allocation. The list is 16
/// bytes, a boxed slice's size: the inline node sits beside the box's
/// never-null pointer. It derefs to `&[NodeId]`, and equality and `Debug`
/// are the slice's, so its `Debug` text is a `Vec`'s.
///
/// ```
/// use rsc_cluster::ids::{NodeId, NodeList};
///
/// let one = NodeList::one(NodeId::new(3));
/// assert_eq!(*one, [NodeId::new(3)]);
/// let two: NodeList = [NodeId::new(1), NodeId::new(2)].into_iter().collect();
/// assert_eq!(format!("{two:?}"), format!("{:?}", vec![NodeId::new(1), NodeId::new(2)]));
/// ```
#[derive(Clone)]
pub struct NodeList(NodeRepr);

#[derive(Clone)]
enum NodeRepr {
    One(NodeId),
    Many(Box<[NodeId]>),
}

impl NodeList {
    /// A one-node list; allocates nothing.
    pub const fn one(node: NodeId) -> Self {
        NodeList(NodeRepr::One(node))
    }
}

impl Default for NodeList {
    /// The empty list (an attempt that never started); allocates nothing.
    fn default() -> Self {
        NodeList(NodeRepr::Many(Box::default()))
    }
}

impl From<Vec<NodeId>> for NodeList {
    /// Takes the vector's buffer as is, or drops it for a one-node list.
    fn from(nodes: Vec<NodeId>) -> Self {
        match *nodes {
            [node] => NodeList::one(node),
            _ => NodeList(NodeRepr::Many(nodes.into_boxed_slice())),
        }
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            NodeRepr::One(node) => std::slice::from_ref(node),
            NodeRepr::Many(nodes) => nodes,
        }
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Identifier of a GPU: the owning node plus the local GPU slot (0–7 on a
/// DGX A100 server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId {
    node: NodeId,
    slot: u8,
}

impl GpuId {
    /// Creates a GPU id from node and local slot.
    pub const fn new(node: NodeId, slot: u8) -> Self {
        GpuId { node, slot }
    }

    /// The owning node.
    pub const fn node(self) -> NodeId {
        self.node
    }

    /// The local GPU slot within the server.
    pub const fn slot(self) -> u8 {
        self.slot
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/gpu{}", self.node, self.slot)
    }
}

/// Identifier of a rack (two servers per rack in the RSC design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack id from its dense index.
    pub const fn new(index: u32) -> Self {
        RackId(index)
    }

    /// The dense index of this rack.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// Identifier of a pod (ten racks connected by a rail-optimized network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(u32);

impl PodId {
    /// Creates a pod id from its dense index.
    pub const fn new(index: u32) -> Self {
        PodId(index)
    }

    /// The dense index of this pod.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod{}", self.0)
    }
}

/// Identifier of a scheduler job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from its raw value.
    pub const fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifier of a logical *job run* — one training task that may span many
/// requeued scheduler jobs (paper §II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobRunId(u64);

impl JobRunId {
    /// Creates a job-run id from its raw value.
    pub const fn new(raw: u64) -> Self {
        JobRunId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobRunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(NodeId::new(3).to_string(), "node3");
        assert_eq!(GpuId::new(NodeId::new(3), 5).to_string(), "node3/gpu5");
        assert_eq!(RackId::new(1).to_string(), "rack1");
        assert_eq!(PodId::new(0).to_string(), "pod0");
        assert_eq!(JobId::new(9).to_string(), "job9");
        assert_eq!(JobRunId::new(9).to_string(), "run9");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(GpuId::new(NodeId::new(0), 1) < GpuId::new(NodeId::new(0), 2));
        assert!(GpuId::new(NodeId::new(0), 7) < GpuId::new(NodeId::new(1), 0));
    }

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(|i| NodeId::new(i * 7 + 1)).collect()
    }

    #[test]
    fn node_list_derefs_to_the_vec_slice() {
        for n in [0, 1, 2, 300] {
            let v = nodes(n);
            let from_vec = NodeList::from(v.clone());
            let collected: NodeList = v.iter().copied().collect();
            assert_eq!(*from_vec, *v, "{n} nodes");
            assert_eq!(*collected, *v, "{n} nodes");
            assert_eq!(from_vec, collected);
            assert_eq!(format!("{from_vec:?}"), format!("{v:?}"), "{n} nodes");
            assert_eq!((&from_vec).into_iter().count(), n as usize);
        }
        assert_eq!(NodeList::default().len(), 0);
        assert_eq!(
            NodeList::one(NodeId::new(5)),
            NodeList::from(vec![NodeId::new(5)])
        );
        assert_ne!(NodeList::one(NodeId::new(5)), NodeList::from(nodes(2)));
    }

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.as_usize(), 42usize);
    }
}
