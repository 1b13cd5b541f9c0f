//! Cluster topology description.

/// Identifier of a virtual node, `0..ClusterSpec::nodes`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of a virtual cluster.
///
/// Matches the evaluation cluster of the paper when constructed with
/// [`ClusterSpec::paper`]: 12 nodes, each with two quad-core Intel Xeons
/// (8 cores), 24 GB of memory and a 2 TB disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Cores per node available for task execution.
    pub cores_per_node: u32,
    /// Memory per node, in bytes, available for caching RDD partitions.
    pub memory_per_node: u64,
}

impl ClusterSpec {
    /// Build a spec; panics if any dimension is zero.
    pub fn new(nodes: u32, cores_per_node: u32, memory_per_node: u64) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(cores_per_node > 0, "nodes need at least one core");
        assert!(memory_per_node > 0, "nodes need some memory");
        ClusterSpec {
            nodes,
            cores_per_node,
            memory_per_node,
        }
    }

    /// The paper's evaluation cluster: 12 × (8 cores, 24 GB).
    pub fn paper() -> Self {
        ClusterSpec::new(12, 8, 24 * GIB)
    }

    /// The paper's speedup sweep keeps the data fixed and varies node count
    /// through 4, 6, 8, 10, 12 (x-axis labelled in cores: 32..96).
    pub fn paper_speedup_sweep() -> Vec<Self> {
        [4u32, 6, 8, 10, 12]
            .into_iter()
            .map(|n| ClusterSpec::new(n, 8, 24 * GIB))
            .collect()
    }

    /// The paper's sizeup experiments fix the core count at 48 (6 nodes).
    pub fn paper_sizeup() -> Self {
        ClusterSpec::new(6, 8, 24 * GIB)
    }

    /// Total virtual cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Deterministic home node for a partition/block index (round-robin).
    ///
    /// Engines use this for data placement so that "local" reads are
    /// meaningful: a cached partition lives on its home node, and a
    /// locality-aware scheduler runs the corresponding task there.
    pub fn home_node(&self, index: usize) -> NodeId {
        NodeId((index % self.nodes as usize) as u32)
    }

    /// Iterate over all node ids.
    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }
}

/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * 1024 * 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec() {
        let s = ClusterSpec::paper();
        assert_eq!(s.total_cores(), 96);
    }

    #[test]
    fn home_node_round_robin() {
        let s = ClusterSpec::new(3, 2, GIB);
        assert_eq!(s.home_node(0), NodeId(0));
        assert_eq!(s.home_node(1), NodeId(1));
        assert_eq!(s.home_node(2), NodeId(2));
        assert_eq!(s.home_node(3), NodeId(0));
    }

    #[test]
    fn speedup_sweep_matches_paper_axis() {
        let cores: Vec<u32> = ClusterSpec::paper_speedup_sweep()
            .iter()
            .map(|s| s.total_cores())
            .collect();
        assert_eq!(cores, vec![32, 48, 64, 80, 96]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        ClusterSpec::new(0, 1, GIB);
    }
}
