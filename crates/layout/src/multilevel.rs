//! ML-QLS-style multilevel placement.
//!
//! ML-QLS (Lin & Cong, 2024) scales layout synthesis to large devices by
//! coarsening the interaction graph, solving placement on the small coarse
//! graph, and then uncoarsening with local refinement at every level. This
//! module follows that recipe:
//!
//! 1. **Coarsening** — repeated heavy-edge matching of the (edge-weighted)
//!    interaction graph until it is small.
//! 2. **Initial placement** — BFS-greedy placement of the coarsest clusters
//!    onto the device.
//! 3. **Uncoarsening + refinement** — each finer level places its nodes near
//!    their cluster's location and runs pairwise-exchange refinement sweeps
//!    that reduce the weighted distance of interaction edges.
//!
//! The routing itself — a single SABRE-style pass from the refined
//! placement, with no random-restart trials — is the
//! [`RouterSpec::ml_qls`](crate::RouterSpec::ml_qls) composition;
//! [`MultilevelRouter`] is its [`PlacementStrategy`].

use crate::kernel::PlacementStrategy;
use crate::mapping::Mapping;
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::{bfs_order, Graph, NodeId};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the multilevel placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultilevelConfig {
    /// Coarsening stops once the graph has at most this many nodes.
    pub coarsest_size: usize,
    /// Number of pairwise-exchange refinement sweeps per level.
    pub refinement_sweeps: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest_size: 8,
            refinement_sweeps: 2,
        }
    }
}

/// One coarsening level: an edge-weighted graph plus the map from the finer
/// level's nodes to this level's nodes.
#[derive(Debug, Clone)]
struct Level {
    /// Weighted adjacency: `weights[u]` lists `(v, weight)`.
    weights: Vec<Vec<(NodeId, u64)>>,
    /// `fine_to_coarse[fine_node] == coarse_node` (empty for the finest level).
    fine_to_coarse: Vec<NodeId>,
}

impl Level {
    fn node_count(&self) -> usize {
        self.weights.len()
    }

    fn from_graph(graph: &Graph) -> Self {
        let mut weights = vec![Vec::new(); graph.node_count()];
        for e in graph.edges() {
            weights[e.u].push((e.v, 1));
            weights[e.v].push((e.u, 1));
        }
        Level {
            weights,
            fine_to_coarse: Vec::new(),
        }
    }

    /// Heavy-edge matching coarsening. Returns `None` when no further
    /// coarsening is possible (no edges matched).
    fn coarsen(&self) -> Option<Level> {
        let n = self.node_count();
        let mut matched = vec![usize::MAX; n];
        let mut pairs = Vec::new();
        // Visit nodes in order of decreasing total incident weight and match
        // each with its heaviest unmatched neighbour.
        let mut order: Vec<NodeId> = (0..n).collect();
        order.sort_by_key(|&u| {
            std::cmp::Reverse(self.weights[u].iter().map(|&(_, w)| w).sum::<u64>())
        });
        for &u in &order {
            if matched[u] != usize::MAX {
                continue;
            }
            let best = self.weights[u]
                .iter()
                .filter(|&&(v, _)| matched[v] == usize::MAX && v != u)
                .max_by_key(|&&(_, w)| w)
                .map(|&(v, _)| v);
            if let Some(v) = best {
                matched[u] = v;
                matched[v] = u;
                pairs.push((u, v));
            }
        }
        if pairs.is_empty() {
            return None;
        }
        // Assign coarse ids: matched pairs collapse, unmatched nodes carry over.
        let mut fine_to_coarse = vec![usize::MAX; n];
        let mut next = 0;
        for &(u, v) in &pairs {
            fine_to_coarse[u] = next;
            fine_to_coarse[v] = next;
            next += 1;
        }
        for u in 0..n {
            if fine_to_coarse[u] == usize::MAX {
                fine_to_coarse[u] = next;
                next += 1;
            }
        }
        // Aggregate edge weights between coarse nodes. A BTreeMap, not a
        // HashMap: the map is iterated to build the adjacency lists below,
        // and std's per-process hasher randomisation would make the list
        // order — and through placement ties the whole ML-QLS result —
        // nondeterministic across runs.
        let mut weight_map: std::collections::BTreeMap<(NodeId, NodeId), u64> =
            std::collections::BTreeMap::new();
        for u in 0..n {
            for &(v, w) in &self.weights[u] {
                if u < v {
                    let (cu, cv) = (fine_to_coarse[u], fine_to_coarse[v]);
                    if cu != cv {
                        let key = (cu.min(cv), cu.max(cv));
                        *weight_map.entry(key).or_insert(0) += w;
                    }
                }
            }
        }
        let mut weights = vec![Vec::new(); next];
        for ((u, v), w) in weight_map {
            weights[u].push((v, w));
            weights[v].push((u, w));
        }
        Some(Level {
            weights,
            fine_to_coarse,
        })
    }
}

/// ML-QLS-style multilevel placement: coarsen, place, uncoarsen and refine.
#[derive(Debug, Clone, Default)]
pub struct MultilevelRouter {
    config: MultilevelConfig,
}

impl MultilevelRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: MultilevelConfig) -> Self {
        MultilevelRouter { config }
    }

    /// Computes the multilevel placement (exposed for tests and ablations).
    pub fn place(&self, circuit: &Circuit, arch: &Architecture) -> Mapping {
        let interaction = circuit.interaction_graph();
        let finest = Level::from_graph(&interaction);

        // Build the coarsening hierarchy (finest first).
        let mut hierarchy = vec![finest];
        while hierarchy.last().expect("non-empty").node_count() > self.config.coarsest_size {
            match hierarchy.last().expect("non-empty").coarsen() {
                Some(coarser) => hierarchy.push(coarser),
                None => break,
            }
        }

        // Place the coarsest level: BFS over the weighted graph, assigning
        // each cluster to the free physical qubit closest to its placed
        // neighbours (mirrors `greedy_bfs_placement` but weight-aware).
        let coarsest = hierarchy.last().expect("non-empty");
        let mut assignment = self.place_level(coarsest, arch, None, &[]);

        // Uncoarsen: every finer level starts from its cluster's location.
        for idx in (0..hierarchy.len() - 1).rev() {
            let fine = &hierarchy[idx];
            let coarse_assignment = assignment;
            let fine_to_coarse = &hierarchy[idx + 1].fine_to_coarse;
            assignment = self.place_level(fine, arch, Some(&coarse_assignment), fine_to_coarse);
            self.refine(fine, arch, &mut assignment);
        }

        Mapping::from_prog_to_phys(assignment, arch.num_qubits())
    }

    /// Places one level's nodes onto distinct physical qubits.
    ///
    /// Each node, in BFS order, takes the unused physical qubit minimising
    /// `(Σ w × distance to each placed neighbour + distance to the anchor,
    /// n − degree)`. When `coarse_assignment` is given, the anchor of node
    /// `u` is `coarse_assignment[fine_to_coarse[u]]`.
    ///
    /// The sums are accumulated row-major (one distance row per placed
    /// neighbour, added into a per-qubit total) and the selection is one
    /// strict-`<` scan in index order. That returns the first minimum —
    /// the qubit a per-candidate `min_by_key` over the same key returns —
    /// so placements are identical to scoring each qubit separately, at
    /// O((neighbours + 1) × qubits) per node without per-qubit row lookups.
    fn place_level(
        &self,
        level: &Level,
        arch: &Architecture,
        coarse_assignment: Option<&Vec<NodeId>>,
        fine_to_coarse: &[NodeId],
    ) -> Vec<NodeId> {
        let n = level.node_count();
        let mut order = Vec::with_capacity(n);
        // BFS order over the level graph from the heaviest node, component by
        // component (isolated nodes go last).
        let plain = {
            let mut g = Graph::with_nodes(n);
            for u in 0..n {
                for &(v, _) in &level.weights[u] {
                    if u < v {
                        g.add_edge(u, v);
                    }
                }
            }
            g
        };
        let mut seen = vec![false; n];
        let mut starts: Vec<NodeId> = (0..n).collect();
        starts.sort_by_key(|&u| {
            std::cmp::Reverse(level.weights[u].iter().map(|&(_, w)| w).sum::<u64>())
        });
        for s in starts {
            if seen[s] {
                continue;
            }
            for v in bfs_order(&plain, s) {
                if !seen[v] {
                    seen[v] = true;
                    order.push(v);
                }
            }
        }

        let n_phys = arch.num_qubits();
        let mut assignment = vec![usize::MAX; n];
        let mut used = vec![false; n_phys];
        // Tie-break key: prefer well-connected physical qubits, then low index.
        let tie: Vec<usize> = (0..n_phys).map(|p| n_phys - arch.degree(p)).collect();
        let mut totals = vec![0u64; n_phys];
        for &u in &order {
            totals.fill(0);
            for &(v, w) in &level.weights[u] {
                if assignment[v] != usize::MAX {
                    let row = arch.distance_row(assignment[v]);
                    for (total, &d) in totals.iter_mut().zip(row) {
                        *total += w * d as u64;
                    }
                }
            }
            if let Some(ca) = coarse_assignment {
                let row = arch.distance_row(ca[fine_to_coarse[u]]);
                for (total, &d) in totals.iter_mut().zip(row) {
                    *total += d as u64;
                }
            }
            let mut best = usize::MAX;
            let mut best_key = (u64::MAX, usize::MAX);
            for p in 0..n_phys {
                if !used[p] && (totals[p], tie[p]) < best_key {
                    best_key = (totals[p], tie[p]);
                    best = p;
                }
            }
            assert_ne!(best, usize::MAX, "device has enough qubits");
            assignment[u] = best;
            used[best] = true;
        }
        assignment
    }

    /// Pairwise-exchange refinement: repeatedly swap two nodes' physical
    /// locations when it reduces the weighted interaction distance.
    fn refine(&self, level: &Level, arch: &Architecture, assignment: &mut [NodeId]) {
        let n = level.node_count();
        let cost_of = |u: usize, pos: NodeId, assignment: &[NodeId]| -> u64 {
            level.weights[u]
                .iter()
                .map(|&(v, w)| w * arch.distance(pos, assignment[v]) as u64)
                .sum()
        };
        for _ in 0..self.config.refinement_sweeps {
            let mut improved = false;
            for u in 0..n {
                for v in (u + 1)..n {
                    let before = cost_of(u, assignment[u], assignment)
                        + cost_of(v, assignment[v], assignment);
                    let after = cost_of(u, assignment[v], assignment)
                        + cost_of(v, assignment[u], assignment);
                    // Exchanging u and v double-counts their mutual edge the
                    // same way on both sides, so the comparison is fair.
                    if after < before {
                        assignment.swap(u, v);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
}

/// Trial 0 runs the full coarsen–place–refine hierarchy; later trials fall
/// back to random restarts like every other strategy. This is how the
/// router construction kit (see [`crate::composed`]) mixes ML-QLS placement
/// with arbitrary routing policies.
impl PlacementStrategy for MultilevelRouter {
    fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping {
        if trial == 0 {
            MultilevelRouter::place(self, circuit, arch)
        } else {
            Mapping::random(circuit.num_qubits(), arch.num_qubits(), rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;
    use rand::{Rng, SeedableRng};

    fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            c.push(Gate::cx(a, b));
        }
        c
    }

    #[test]
    fn coarsening_shrinks_the_graph() {
        let circuit = random_circuit(20, 60, 1);
        let level = Level::from_graph(&circuit.interaction_graph());
        let coarser = level.coarsen().expect("edges exist");
        assert!(coarser.node_count() < level.node_count());
    }

    #[test]
    fn coarsening_stops_on_edgeless_graph() {
        let level = Level::from_graph(&Graph::with_nodes(5));
        assert!(level.coarsen().is_none());
    }

    #[test]
    fn placement_is_injective() {
        let arch = devices::sycamore54();
        let circuit = random_circuit(30, 150, 2);
        let mapping = MultilevelRouter::default().place(&circuit, &arch);
        assert!(mapping.is_consistent());
        assert_eq!(mapping.num_program(), 30);
    }

    #[test]
    fn placement_keeps_hot_pairs_close() {
        let arch = devices::grid(4, 4);
        // A line interaction graph should be placed roughly along adjacent qubits.
        let gates: Vec<Gate> = (1..8).map(|i| Gate::cx(i - 1, i)).collect();
        let circuit = Circuit::from_gates(8, gates);
        let mapping = MultilevelRouter::default().place(&circuit, &arch);
        let total: usize = circuit
            .two_qubit_gates()
            .iter()
            .map(|g| {
                let (a, b) = g.qubit_pair().expect("two-qubit");
                arch.distance(mapping.physical(a), mapping.physical(b))
            })
            .sum();
        assert!(total <= 10, "placement scattered a line circuit: {total}");
    }
}
