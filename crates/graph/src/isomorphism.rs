//! Subgraph monomorphism (VF2-style backtracking).
//!
//! Quantum layout synthesis asks whether a circuit's interaction graph can be
//! embedded into the device coupling graph: if it can, the circuit is
//! executable without SWAPs (this is how QUEKO benchmarks are solved), and if
//! it cannot, at least one SWAP is required — the property the QUBIKOS
//! generator engineers deliberately.
//!
//! The matcher searches for a **non-induced** embedding: an injective map
//! from pattern nodes to target nodes such that every pattern edge maps onto
//! a target edge. Target edges with no pattern counterpart are allowed, which
//! is exactly the layout-synthesis notion of "isomorphic to a subgraph".

use crate::graph::{Graph, NodeId};

/// What a [`Vf2Matcher::search`] established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Embedding {
    /// An embedding, as `map[pattern_node] == target_node`.
    Found(Vec<NodeId>),
    /// The search finished without one: no embedding exists.
    Absent,
    /// The node limit was used up without finding one: an embedding may
    /// still exist.
    GaveUp,
}

/// Backtracking subgraph-monomorphism matcher in the spirit of VF2.
///
/// The matcher owns references to the pattern and target graphs and performs
/// a depth-first search over partial injective mappings, ordering pattern
/// nodes so that each newly matched node is adjacent to the already-matched
/// core whenever possible and pruning candidates whose degree is too small.
///
/// # Example
///
/// ```
/// use qubikos_graph::{generators, Vf2Matcher};
///
/// let pattern = generators::path_graph(3);
/// let target = generators::grid_graph(2, 2);
/// let embedding = Vf2Matcher::new(&pattern, &target).find_embedding();
/// assert!(embedding.is_some());
/// ```
#[derive(Debug)]
pub struct Vf2Matcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    node_limit: Option<u64>,
}

impl<'a> Vf2Matcher<'a> {
    /// Creates a matcher for embedding `pattern` into `target`.
    pub fn new(pattern: &'a Graph, target: &'a Graph) -> Self {
        Vf2Matcher {
            pattern,
            target,
            node_limit: None,
        }
    }

    /// Limits the number of search-tree nodes explored.
    ///
    /// When the limit is used up the search stops and [`search`] reports
    /// [`Embedding::GaveUp`]: an embedding may still exist. Useful to bound
    /// worst-case runtime on large hard instances where the caller only
    /// wants a cheap feasibility probe.
    ///
    /// [`search`]: Self::search
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Searches for one embedding.
    pub fn search(&self) -> Embedding {
        let np = self.pattern.node_count();
        let nt = self.target.node_count();
        if np == 0 {
            return Embedding::Found(Vec::new());
        }
        if np > nt || self.pattern.edge_count() > self.target.edge_count() {
            return Embedding::Absent;
        }
        // Quick degree-sequence pruning: the k-th largest pattern degree must
        // not exceed the k-th largest target degree.
        let pd = self.pattern.degree_sequence();
        let td = self.target.degree_sequence();
        for (p, t) in pd.iter().zip(td.iter()) {
            if p > t {
                return Embedding::Absent;
            }
        }

        let order = self.match_order();
        let mut mapping = vec![usize::MAX; np];
        let mut used = vec![false; nt];
        let mut budget = self.node_limit.unwrap_or(u64::MAX);
        if self.extend(&order, 0, &mut mapping, &mut used, &mut budget) {
            Embedding::Found(mapping)
        } else if budget == 0 {
            Embedding::GaveUp
        } else {
            Embedding::Absent
        }
    }

    /// Finds one embedding, returned as `map[pattern_node] == target_node`.
    ///
    /// Returns `None` when no embedding exists or when the node limit was
    /// used up first; [`search`](Self::search) tells the two apart.
    pub fn find_embedding(&self) -> Option<Vec<NodeId>> {
        match self.search() {
            Embedding::Found(mapping) => Some(mapping),
            Embedding::Absent | Embedding::GaveUp => None,
        }
    }

    /// Chooses the order in which pattern nodes are matched: highest degree
    /// first, then preferring nodes adjacent to the already-ordered prefix so
    /// that adjacency constraints prune early.
    fn match_order(&self) -> Vec<NodeId> {
        let np = self.pattern.node_count();
        let mut order: Vec<NodeId> = Vec::with_capacity(np);
        let mut placed = vec![false; np];
        while order.len() < np {
            let best = self
                .pattern
                .nodes()
                .filter(|&n| !placed[n])
                .max_by_key(|&n| {
                    let attached = self
                        .pattern
                        .neighbors(n)
                        .iter()
                        .filter(|&&m| placed[m])
                        .count();
                    (attached, self.pattern.degree(n))
                })
                .expect("unplaced node must exist");
            placed[best] = true;
            order.push(best);
        }
        order
    }

    fn extend(
        &self,
        order: &[NodeId],
        depth: usize,
        mapping: &mut Vec<NodeId>,
        used: &mut Vec<bool>,
        budget: &mut u64,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        if *budget == 0 {
            return false;
        }
        *budget -= 1;

        let p = order[depth];
        let p_deg = self.pattern.degree(p);
        // Candidate targets: restrict to neighbours of an already-mapped
        // pattern neighbour when one exists, otherwise all unused nodes.
        let anchor = self
            .pattern
            .neighbors(p)
            .iter()
            .copied()
            .find(|&q| mapping[q] != usize::MAX);

        let try_candidate = |cand: NodeId,
                             mapping: &mut Vec<NodeId>,
                             used: &mut Vec<bool>,
                             budget: &mut u64|
         -> bool {
            if used[cand] || self.target.degree(cand) < p_deg {
                return false;
            }
            // Every already-mapped pattern neighbour must be adjacent in the target.
            for &q in self.pattern.neighbors(p) {
                let tq = mapping[q];
                if tq != usize::MAX && !self.target.has_edge(cand, tq) {
                    return false;
                }
            }
            mapping[p] = cand;
            used[cand] = true;
            if self.extend(order, depth + 1, mapping, used, budget) {
                return true;
            }
            mapping[p] = usize::MAX;
            used[cand] = false;
            false
        };

        match anchor {
            Some(q) => {
                let around = mapping[q];
                for &cand in self.target.neighbors(around) {
                    if try_candidate(cand, mapping, used, budget) {
                        return true;
                    }
                }
            }
            None => {
                for cand in self.target.nodes() {
                    if try_candidate(cand, mapping, used, budget) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Convenience wrapper: does `pattern` embed into a subgraph of `target`?
pub fn is_subgraph_isomorphic(pattern: &Graph, target: &Graph) -> bool {
    find_subgraph_embedding(pattern, target).is_some()
}

/// Convenience wrapper returning one embedding (`map[pattern] == target`),
/// or `None` if the pattern cannot be embedded.
pub fn find_subgraph_embedding(pattern: &Graph, target: &Graph) -> Option<Vec<NodeId>> {
    Vf2Matcher::new(pattern, target).find_embedding()
}

/// Checks that `mapping` is a valid monomorphism from `pattern` into `target`.
///
/// Used by tests and by callers that obtained an embedding from elsewhere
/// (e.g. a routing tool's initial placement) and want to validate it.
pub fn verify_embedding(pattern: &Graph, target: &Graph, mapping: &[NodeId]) -> bool {
    if mapping.len() != pattern.node_count() {
        return false;
    }
    let mut used = vec![false; target.node_count()];
    for &t in mapping {
        if t >= target.node_count() || used[t] {
            return false;
        }
        used[t] = true;
    }
    pattern
        .edges()
        .all(|e| target.has_edge(mapping[e.u], mapping[e.v]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_embeds_into_grid() {
        let pattern = generators::path_graph(5);
        let target = generators::grid_graph(3, 3);
        let m = find_subgraph_embedding(&pattern, &target).expect("embedding exists");
        assert!(verify_embedding(&pattern, &target, &m));
    }

    #[test]
    fn star_too_wide_for_grid() {
        // A degree-5 hub cannot embed into a grid whose max degree is 4.
        let pattern = generators::star_graph(6);
        let target = generators::grid_graph(3, 3);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn triangle_does_not_embed_into_bipartite_grid() {
        let pattern = generators::cycle_graph(3);
        let target = generators::grid_graph(4, 4);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn graph_embeds_into_itself() {
        let g = generators::grid_graph(3, 4);
        let m = find_subgraph_embedding(&g, &g).expect("identity-like embedding");
        assert!(verify_embedding(&g, &g, &m));
    }

    #[test]
    fn empty_pattern_always_embeds() {
        let pattern = Graph::new();
        let target = generators::path_graph(3);
        assert_eq!(find_subgraph_embedding(&pattern, &target), Some(vec![]));
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let pattern = generators::path_graph(5);
        let target = generators::path_graph(3);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn isolated_pattern_nodes_are_allowed() {
        let mut pattern = generators::path_graph(2);
        pattern.add_node();
        let target = generators::grid_graph(2, 2);
        let m = find_subgraph_embedding(&pattern, &target).expect("embedding exists");
        assert!(verify_embedding(&pattern, &target, &m));
    }

    #[test]
    fn cycle_embeds_into_same_length_cycle_but_not_shorter() {
        let c6 = generators::cycle_graph(6);
        assert!(is_subgraph_isomorphic(&c6, &generators::cycle_graph(6)));
        assert!(!is_subgraph_isomorphic(&c6, &generators::cycle_graph(5)));
        // A 6-cycle embeds into a 2x3 grid (which is exactly a 6-cycle).
        assert!(is_subgraph_isomorphic(&c6, &generators::grid_graph(2, 3)));
    }

    #[test]
    fn node_limit_gives_up() {
        let pattern = generators::grid_graph(3, 3);
        let target = generators::grid_graph(5, 5);
        let capped = Vf2Matcher::new(&pattern, &target).with_node_limit(1);
        assert_eq!(capped.search(), Embedding::GaveUp);
        assert!(capped.find_embedding().is_none());
        let found = Vf2Matcher::new(&pattern, &target).find_embedding();
        assert!(found.is_some());
        // A refutation that needs no search holds under any cap.
        let capped = Vf2Matcher::new(&target, &pattern).with_node_limit(1);
        assert_eq!(capped.search(), Embedding::Absent);
    }

    #[test]
    fn verify_embedding_rejects_bad_maps() {
        let pattern = generators::path_graph(3);
        let target = generators::path_graph(3);
        assert!(!verify_embedding(&pattern, &target, &[0, 0, 1])); // not injective
        assert!(!verify_embedding(&pattern, &target, &[0, 2, 1])); // breaks an edge
        assert!(!verify_embedding(&pattern, &target, &[0, 1])); // wrong length
        assert!(verify_embedding(&pattern, &target, &[0, 1, 2]));
    }

    #[test]
    fn complete_graph_embedding_requires_clique() {
        let k4 = generators::complete_graph(4);
        assert!(!is_subgraph_isomorphic(&k4, &generators::grid_graph(3, 3)));
        assert!(is_subgraph_isomorphic(&k4, &generators::complete_graph(5)));
    }
}
