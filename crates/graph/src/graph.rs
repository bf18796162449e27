//! Compact undirected graph with adjacency lists.

use std::collections::BTreeSet;
use std::fmt;

/// Index of a node in a [`Graph`].
///
/// Nodes are always the contiguous range `0..node_count()`, which lets
/// callers index auxiliary arrays (mappings, distance rows, decay tables)
/// directly by node id.
pub type NodeId = usize;

/// An undirected edge between two nodes.
///
/// Edges are stored in canonical order (`min`, `max`) so that two `Edge`
/// values compare equal regardless of the order the endpoints were given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates a canonical edge between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; self-loops are never meaningful for coupling or
    /// interaction graphs.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "self-loop edge ({a}, {a}) is not allowed");
        Edge {
            u: a.min(b),
            v: a.max(b),
        }
    }

    /// Returns the endpoint that is not `n`, or `None` if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if n == self.u {
            Some(self.v)
        } else if n == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// Returns `true` if `n` is one of the endpoints.
    pub fn contains(&self, n: NodeId) -> bool {
        self.u == n || self.v == n
    }
}

impl From<(NodeId, NodeId)> for Edge {
    fn from((a, b): (NodeId, NodeId)) -> Self {
        Edge::new(a, b)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// An undirected simple graph stored as adjacency lists.
///
/// Node ids are dense (`0..node_count()`). Parallel edges and self-loops are
/// rejected. Adjacency lists are kept sorted so neighbour iteration is
/// deterministic, which keeps every seeded experiment reproducible.
///
/// # Example
///
/// ```
/// use qubikos_graph::Graph;
///
/// let mut g = Graph::with_nodes(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or if an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::with_nodes(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    /// Adds the undirected edge `(a, b)`. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(a != b, "self-loop edge ({a}, {a}) is not allowed");
        let n = self.node_count();
        assert!(a < n && b < n, "edge ({a}, {b}) out of range for {n} nodes");
        if self.has_edge(a, b) {
            return false;
        }
        let pos_a = self.adjacency[a].binary_search(&b).unwrap_err();
        self.adjacency[a].insert(pos_a, b);
        let pos_b = self.adjacency[b].binary_search(&a).unwrap_err();
        self.adjacency[b].insert(pos_b, a);
        self.edge_count += 1;
        true
    }

    /// Returns `true` if the undirected edge `(a, b)` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a >= self.node_count() || b >= self.node_count() {
            return false;
        }
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Neighbours of `n` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adjacency[n]
    }

    /// Degree of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n].len()
    }

    /// Maximum degree over all nodes, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterator over node ids `0..node_count()`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// Iterator over all edges in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&v| v > u)
                .map(move |&v| Edge { u, v })
        })
    }

    /// Sorted degree sequence (descending).
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut degs: Vec<usize> = self.adjacency.iter().map(Vec::len).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        degs
    }

    /// Returns `true` if the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        crate::traversal::connected_components(self).len() == 1
    }

    /// Induced subgraph on `nodes`, together with the mapping from new node
    /// ids to the original ids (`result.1[new] == old`).
    ///
    /// Nodes not present in `nodes` are dropped along with their incident
    /// edges. Duplicate entries in `nodes` are ignored.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let selected: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let old_ids: Vec<NodeId> = selected.iter().copied().collect();
        let mut new_id = vec![usize::MAX; self.node_count()];
        for (new, &old) in old_ids.iter().enumerate() {
            new_id[old] = new;
        }
        let mut g = Graph::with_nodes(old_ids.len());
        for e in self.edges() {
            if selected.contains(&e.u) && selected.contains(&e.v) {
                g.add_edge(new_id[e.u], new_id[e.v]);
            }
        }
        (g, old_ids)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(nodes={}, edges={})",
            self.node_count(),
            self.edge_count()
        )
    }
}

impl FromIterator<(NodeId, NodeId)> for Graph {
    /// Builds a graph from an edge list, sizing the node set to the largest
    /// endpoint seen.
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let edges: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        let n = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        Graph::from_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_is_canonical() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(3, 1).u, 1);
        assert_eq!(Edge::new(3, 1).v, 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(2, 2);
    }

    #[test]
    fn edge_other_and_contains() {
        let e = Edge::new(1, 4);
        assert_eq!(e.other(1), Some(4));
        assert_eq!(e.other(4), Some(1));
        assert_eq!(e.other(2), None);
        assert!(e.contains(1));
        assert!(!e.contains(0));
    }

    #[test]
    fn add_edge_and_query() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn duplicate_edge_is_ignored() {
        let mut g = Graph::with_nodes(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn has_edge_out_of_range_is_false() {
        let g = path4();
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_is_canonical_and_complete() {
        let g = path4();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]
        );
    }

    #[test]
    fn degree_sequence_descending() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree_sequence(), vec![3, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path4();
        let (sub, ids) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(0, 1)); // old (1,2)
        assert!(sub.has_edge(1, 2)); // old (2,3)
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = path4();
        let (sub, ids) = g.induced_subgraph(&[2, 2, 3]);
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn from_iterator_sizes_to_max_endpoint() {
        let g: Graph = [(0usize, 5usize), (5, 2)].into_iter().collect();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn connectivity() {
        assert!(path4().is_connected());
        let mut g = path4();
        g.add_node();
        assert!(!g.is_connected());
        assert!(Graph::new().is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", path4()).is_empty());
        assert!(!format!("{}", Edge::new(0, 1)).is_empty());
    }
}
