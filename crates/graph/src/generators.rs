//! Deterministic graph generators for standard topologies.
//!
//! Device-specific coupling graphs (Aspen-4, Sycamore, Rochester, Eagle) live
//! in the `qubikos-arch` crate; the generators here are the generic building
//! blocks they and the test suites use.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path graph `0 - 1 - ... - (n-1)`.
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(i - 1, i);
    }
    g
}

/// Cycle graph on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle_graph(n: usize) -> Graph {
    assert!(n >= 3, "cycle graph needs at least 3 nodes, got {n}");
    let mut g = path_graph(n);
    g.add_edge(n - 1, 0);
    g
}

/// Complete graph on `n` nodes.
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b);
        }
    }
    g
}

/// Star graph: node 0 connected to nodes `1..n`.
pub fn star_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for leaf in 1..n {
        g.add_edge(0, leaf);
    }
    g
}

/// Rectangular grid with `rows * cols` nodes in row-major order.
///
/// Node `(r, c)` has id `r * cols + c` and is connected to its horizontal and
/// vertical neighbours. This is the "3x3 grid" architecture of the paper's
/// optimality study when `rows == cols == 3`.
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::with_nodes(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                g.add_edge(id, id + 1);
            }
            if r + 1 < rows {
                g.add_edge(id, id + cols);
            }
        }
    }
    g
}

/// Random connected graph: a random spanning tree plus extra random edges.
///
/// Useful for property tests that need arbitrary but connected coupling
/// graphs. `extra_edges` additional distinct edges are attempted on top of
/// the spanning tree (fewer may be added on small graphs).
pub fn random_connected_graph<R: Rng + ?Sized>(n: usize, extra_edges: usize, rng: &mut R) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n <= 1 {
        return g;
    }
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        g.add_edge(order[i], parent);
    }
    let mut attempts = 0;
    let mut added = 0;
    while added < extra_edges && attempts < extra_edges * 10 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.add_edge(a, b) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_graph_structure() {
        let g = path_graph(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
        assert_eq!(path_graph(0).node_count(), 0);
        assert_eq!(path_graph(1).edge_count(), 0);
    }

    #[test]
    fn cycle_graph_structure() {
        let g = cycle_graph(6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|n| g.degree(n) == 2));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_graph_too_small() {
        let _ = cycle_graph(2);
    }

    #[test]
    fn complete_graph_structure() {
        let g = complete_graph(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|n| g.degree(n) == 4));
    }

    #[test]
    fn star_graph_structure() {
        let g = star_graph(7);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|n| g.degree(n) == 1));
    }

    #[test]
    fn grid_graph_structure() {
        let g = grid_graph(3, 3);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(4), 4); // centre
        assert_eq!(g.degree(0), 2); // corner
        assert!(g.is_connected());
        // Degenerate shapes.
        assert_eq!(grid_graph(1, 4).edge_count(), 3);
        assert_eq!(grid_graph(0, 4).node_count(), 0);
    }

    #[test]
    fn random_connected_graph_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for n in [2usize, 5, 9, 16] {
            let g = random_connected_graph(n, 3, &mut rng);
            assert!(g.is_connected(), "graph on {n} nodes should be connected");
            assert!(g.edge_count() >= n - 1);
        }
    }

    #[test]
    fn random_connected_graph_deterministic_for_seed() {
        let g1 = random_connected_graph(10, 4, &mut ChaCha8Rng::seed_from_u64(7));
        let g2 = random_connected_graph(10, 4, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }
}
