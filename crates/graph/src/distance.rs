//! All-pairs shortest-path distances.
//!
//! Every SWAP-routing heuristic in the suite scores candidate SWAPs by how
//! much they reduce the coupling-graph distance between the qubits of pending
//! gates, so the distance matrix is precomputed once per architecture and
//! shared. It is the only distance representation, on every device size:
//! on the largest device here (Osprey-433) the table is ~1.5 MB and builds
//! in a few milliseconds, and a query is a single array read.

use crate::graph::{Graph, NodeId};
use crate::traversal::bfs_distances;

/// Dense all-pairs shortest-path (hop) distance matrix.
///
/// Distances between nodes in different connected components are
/// `usize::MAX`.
///
/// # Example
///
/// ```
/// use qubikos_graph::{generators, DistanceMatrix};
///
/// let grid = generators::grid_graph(3, 3);
/// let dist = DistanceMatrix::new(&grid);
/// assert_eq!(dist.get(0, 8), 4);
/// assert_eq!(dist.get(4, 4), 0);
/// assert_eq!(dist.diameter(), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<usize>,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths with one BFS per node.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut data = Vec::with_capacity(n * n);
        for u in graph.nodes() {
            data.extend(bfs_distances(graph, u));
        }
        DistanceMatrix { n, data }
    }

    /// Number of nodes the matrix was computed for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Distance between `a` and `b` (`usize::MAX` if disconnected).
    ///
    /// This is the unchecked hot-path accessor: node validity is only
    /// debug-asserted. In release builds an out-of-range node either panics
    /// on the flat-index bound or — because `a * n + b` can land inside the
    /// backing array for a different pair — returns the distance of an
    /// unrelated pair. Callers that have not already validated their indices
    /// must use [`Self::try_get`].
    pub fn get(&self, a: NodeId, b: NodeId) -> usize {
        debug_assert!(a < self.n && b < self.n, "node out of range");
        self.data[a * self.n + b]
    }

    /// Checked [`Self::get`]: `None` when either node is out of range.
    pub fn try_get(&self, a: NodeId, b: NodeId) -> Option<usize> {
        (a < self.n && b < self.n).then(|| self.data[a * self.n + b])
    }

    /// Row of distances from `a` to every node.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn row(&self, a: NodeId) -> &[usize] {
        assert!(a < self.n, "node out of range");
        &self.data[a * self.n..(a + 1) * self.n]
    }

    /// Largest finite distance, or `None` if the graph has fewer than two
    /// nodes or is disconnected.
    pub fn diameter(&self) -> Option<usize> {
        if self.n < 2 {
            return None;
        }
        let mut max = 0;
        for &d in &self.data {
            if d == usize::MAX {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    }

    /// Returns `true` if every pair of nodes has a finite distance.
    pub fn is_connected(&self) -> bool {
        self.data.iter().all(|&d| d != usize::MAX)
    }
}

/// Distance-table counters, in the shape the bench layer's per-route
/// reports read.
///
/// The table is built eagerly and answers every query with one array read,
/// so only `rows_computed` (= the node count, one BFS row per node at
/// construction) is ever nonzero. The other fields are kept so per-route
/// reports keep one schema; they are always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Point-distance queries answered (not counted: always 0).
    pub queries: u64,
    /// BFS rows computed: the node count, all at construction.
    pub rows_computed: u64,
    /// Queries answered from a row cache (always 0: there is no cache).
    pub cache_hits: u64,
    /// Cache hits on pinned rows (always 0).
    pub pinned_hits: u64,
    /// Approximate bound queries (always 0).
    pub landmark_queries: u64,
    /// Candidates re-scored after bound pruning (always 0).
    pub exact_fallbacks: u64,
}

impl OracleStats {
    /// The difference `self - earlier`, for per-route deltas over a shared
    /// architecture.
    #[must_use]
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            queries: self.queries - earlier.queries,
            rows_computed: self.rows_computed - earlier.rows_computed,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pinned_hits: self.pinned_hits - earlier.pinned_hits,
            landmark_queries: self.landmark_queries - earlier.landmark_queries,
            exact_fallbacks: self.exact_fallbacks - earlier.exact_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path_graph(4);
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.get(0, 3), 3);
        assert_eq!(d.get(3, 0), 3);
        assert_eq!(d.get(1, 1), 0);
        assert_eq!(d.diameter(), Some(3));
        assert!(d.is_connected());
    }

    #[test]
    fn symmetric_on_random_like_graph() {
        let g = generators::grid_graph(4, 5);
        let d = DistanceMatrix::new(&g);
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                assert_eq!(d.get(a, b), d.get(b, a));
            }
        }
    }

    #[test]
    fn disconnected_graph_reports_max() {
        let mut g = generators::path_graph(2);
        g.add_node();
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.get(0, 2), usize::MAX);
        assert_eq!(d.diameter(), None);
        assert!(!d.is_connected());
    }

    #[test]
    fn row_matches_get() {
        let g = generators::cycle_graph(6);
        let d = DistanceMatrix::new(&g);
        let row = d.row(2);
        for b in 0..6 {
            assert_eq!(row[b], d.get(2, b));
        }
    }

    #[test]
    fn tiny_graphs() {
        let d = DistanceMatrix::new(&Graph::with_nodes(1));
        assert_eq!(d.diameter(), None);
        assert!(d.is_connected());
        let d = DistanceMatrix::new(&Graph::new());
        assert_eq!(d.node_count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics_in_debug() {
        let g = generators::path_graph(2);
        let d = DistanceMatrix::new(&g);
        let _ = d.get(0, 7);
    }

    #[test]
    fn stats_since_subtracts_every_field() {
        let earlier = OracleStats {
            rows_computed: 4,
            ..OracleStats::default()
        };
        let later = OracleStats {
            queries: 3,
            rows_computed: 4,
            cache_hits: 2,
            pinned_hits: 1,
            landmark_queries: 5,
            exact_fallbacks: 6,
        };
        assert_eq!(
            later.since(&earlier),
            OracleStats {
                rows_computed: 0,
                ..later
            }
        );
        assert_eq!(later.since(&later), OracleStats::default());
    }

    #[test]
    fn try_get_checks_bounds() {
        let g = generators::path_graph(3);
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.try_get(0, 2), Some(2));
        assert_eq!(d.try_get(0, 3), None);
        assert_eq!(d.try_get(5, 0), None);
    }
}
