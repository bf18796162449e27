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
//! A QUBIKOS circuit spans the whole device, but a short one leaves most
//! program qubits without any two-qubit gate (a 60-gate instance on
//! osprey-433 leaves about 378 of 433). Such an interaction-free node
//! never gets matched, so it carries over to every level, and two of
//! them cost 0 wherever they sit. Placement and refinement skip the work
//! that cannot change the result, so their cost follows the interacting
//! nodes rather than the device:
//! - only a node with a placed neighbour scans every physical qubit.
//!   Without one, its key is its distance to its anchor (or 0 at the
//!   coarsest level), so it takes the nearest free qubit found by a search
//!   outward from the anchor, one distance ring at a time, or the next
//!   free qubit in tie-break order. Over the ~2,900 nodes placed on all
//!   levels of a 60-gate osprey-433 instance, about 75 still scan, where
//!   the full scans ran about 1,240 times;
//! - refinement never scores a pair of two interaction-free nodes.
//!
//! Each shortcut selects exactly what the full scan selects, and the
//! full-scan placement is kept as a test-only reference that the
//! differential tests compare against.
//!
//! The routing itself — a single SABRE-style pass from the refined
//! placement, with no random-restart trials — is the
//! [`RouterSpec::ml_qls`](crate::RouterSpec::ml_qls) composition, whose
//! [`PlacementSpec::Multilevel`](crate::PlacementSpec::Multilevel) axis
//! places trial 0 with [`MultilevelRouter::default`].

use crate::mapping::Mapping;
use crate::placement::Qubits;
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::{Graph, NodeId};

/// Tuning knobs of the multilevel placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let hierarchy = self.hierarchy(circuit);
        let mut qubits = Qubits::new(arch);

        // Place the coarsest level: BFS over the weighted graph, assigning
        // each cluster to the free physical qubit closest to its placed
        // neighbours (mirrors `greedy_bfs_placement` but weight-aware).
        let coarsest = hierarchy.last().expect("non-empty");
        let mut assignment = Self::place_level(coarsest, &mut qubits, None, &[]);

        // Uncoarsen: every finer level starts from its cluster's location.
        for idx in (0..hierarchy.len() - 1).rev() {
            let fine = &hierarchy[idx];
            let coarse_assignment = assignment;
            let fine_to_coarse = &hierarchy[idx + 1].fine_to_coarse;
            assignment =
                Self::place_level(fine, &mut qubits, Some(&coarse_assignment), fine_to_coarse);
            self.refine(fine, arch, &mut assignment);
        }

        Mapping::from_prog_to_phys(assignment, arch.num_qubits())
    }

    /// The coarsening hierarchy of `circuit`'s interaction graph, finest
    /// first.
    fn hierarchy(&self, circuit: &Circuit) -> Vec<Level> {
        let mut hierarchy = vec![Level::from_graph(&circuit.interaction_graph())];
        while hierarchy.last().expect("non-empty").node_count() > self.config.coarsest_size {
            match hierarchy.last().expect("non-empty").coarsen() {
                Some(coarser) => hierarchy.push(coarser),
                None => break,
            }
        }
        hierarchy
    }

    /// BFS order over the level graph from the heaviest node, component by
    /// component (isolated nodes go last). All components share one `seen`
    /// set, and `order` doubles as the queue, its unvisited tail starting at
    /// `head`.
    fn level_order(level: &Level) -> Vec<NodeId> {
        let n = level.node_count();
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
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut starts: Vec<NodeId> = (0..n).collect();
        starts.sort_by_key(|&u| {
            std::cmp::Reverse(level.weights[u].iter().map(|&(_, w)| w).sum::<u64>())
        });
        for s in starts {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            let mut head = order.len();
            order.push(s);
            while head < order.len() {
                let u = order[head];
                head += 1;
                for &v in plain.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        order.push(v);
                    }
                }
            }
        }
        order
    }

    /// Places one level's nodes onto distinct physical qubits.
    ///
    /// Each node, in [`Self::level_order`], takes the unused physical qubit
    /// minimising `(Σ w × distance to each placed neighbour + distance to
    /// the anchor, n − degree, index)`. When `coarse_assignment` is given,
    /// the anchor of node `u` is `coarse_assignment[fine_to_coarse[u]]`.
    ///
    /// Only a node with a placed neighbour needs a scan of every qubit. It
    /// accumulates the sums row-major (one distance row per placed
    /// neighbour, plus the anchor's, added into a per-qubit total) and
    /// selects with one strict-`<` scan in index order, which returns the
    /// first minimum — the qubit a per-candidate `min_by_key` over the same
    /// key returns. A node without one has a key that leaves out the sum:
    /// - with no anchor, every total is 0, so it takes the next free qubit
    ///   in `(n − degree, index)` order, found through a pointer into that
    ///   order;
    /// - with an anchor, its total is the distance to the anchor, so it
    ///   takes the nearest free qubit by `Qubits::nearest_free`, which is
    ///   the anchor itself when that is free.
    fn place_level(
        level: &Level,
        qubits: &mut Qubits<'_>,
        coarse_assignment: Option<&Vec<NodeId>>,
        fine_to_coarse: &[NodeId],
    ) -> Vec<NodeId> {
        let arch = qubits.arch();
        let n_phys = arch.num_qubits();
        let mut assignment = vec![usize::MAX; level.node_count()];
        let mut used = vec![false; n_phys];
        let mut next_free = 0usize;
        let mut totals = vec![0u64; n_phys];
        for u in Self::level_order(level) {
            let anchor = coarse_assignment.map(|ca| ca[fine_to_coarse[u]]);
            let placed_neighbour = level.weights[u]
                .iter()
                .any(|&(v, _)| assignment[v] != usize::MAX);
            let best = match anchor {
                _ if placed_neighbour => {
                    totals.fill(0);
                    for &(v, w) in &level.weights[u] {
                        if assignment[v] != usize::MAX {
                            let row = arch.distance_row(assignment[v]);
                            for (total, &d) in totals.iter_mut().zip(row) {
                                *total += w * d as u64;
                            }
                        }
                    }
                    if let Some(anchor) = anchor {
                        let row = arch.distance_row(anchor);
                        for (total, &d) in totals.iter_mut().zip(row) {
                            *total += d as u64;
                        }
                    }
                    let mut best = usize::MAX;
                    let mut best_key = (u64::MAX, usize::MAX);
                    for p in 0..n_phys {
                        if !used[p] && (totals[p], qubits.tie(p)) < best_key {
                            best_key = (totals[p], qubits.tie(p));
                            best = p;
                        }
                    }
                    assert_ne!(best, usize::MAX, "device has enough qubits");
                    best
                }
                Some(anchor) => qubits.nearest_free(anchor, &used),
                None => qubits.first_free(&used, &mut next_free),
            };
            assignment[u] = best;
            used[best] = true;
        }
        assignment
    }

    /// Pairwise-exchange refinement: repeatedly swap two nodes' physical
    /// locations when it reduces the weighted interaction distance. Pairs
    /// of two interaction-free nodes are skipped; every other pair is
    /// visited in `(u, v)` order as before.
    fn refine(&self, level: &Level, arch: &Architecture, assignment: &mut [NodeId]) {
        let n = level.node_count();
        let cost_of = |u: usize, pos: NodeId, assignment: &[NodeId]| -> u64 {
            level.weights[u]
                .iter()
                .map(|&(v, w)| w * arch.distance(pos, assignment[v]) as u64)
                .sum()
        };
        // Exchanges u and v if that lowers their summed cost. Exchanging
        // them double-counts their mutual edge the same way on both sides,
        // so the comparison is fair.
        let exchange = |u: usize, v: usize, assignment: &mut [NodeId]| -> bool {
            let before =
                cost_of(u, assignment[u], assignment) + cost_of(v, assignment[v], assignment);
            let after =
                cost_of(u, assignment[v], assignment) + cost_of(v, assignment[u], assignment);
            let better = after < before;
            if better {
                assignment.swap(u, v);
            }
            better
        };
        // Two interaction-free nodes cost 0 wherever they sit, so they never
        // swap: an interaction-free `u` only meets the interacting nodes
        // after it, and every other pair keeps its turn.
        let interacting: Vec<NodeId> = (0..n).filter(|&u| !level.weights[u].is_empty()).collect();
        for _ in 0..self.config.refinement_sweeps {
            let mut improved = false;
            for u in 0..n {
                if level.weights[u].is_empty() {
                    let later = interacting.partition_point(|&v| v < u);
                    for &v in &interacting[later..] {
                        improved |= exchange(u, v, assignment);
                    }
                } else {
                    for v in (u + 1)..n {
                        improved |= exchange(u, v, assignment);
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// The placement before the shortcuts: every node scans every qubit
    /// (except an interaction-free node whose anchor is free). The
    /// differential test pins [`MultilevelRouter::place`] to it.
    fn reference_place(
        config: MultilevelConfig,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Mapping {
        let router = MultilevelRouter::new(config);
        let hierarchy = router.hierarchy(circuit);
        let mut assignment =
            reference_place_level(hierarchy.last().expect("non-empty"), arch, None, &[]);
        for idx in (0..hierarchy.len() - 1).rev() {
            let coarse_assignment = assignment;
            assignment = reference_place_level(
                &hierarchy[idx],
                arch,
                Some(&coarse_assignment),
                &hierarchy[idx + 1].fine_to_coarse,
            );
            router.refine(&hierarchy[idx], arch, &mut assignment);
        }
        Mapping::from_prog_to_phys(assignment, arch.num_qubits())
    }

    fn reference_place_level(
        level: &Level,
        arch: &Architecture,
        coarse_assignment: Option<&Vec<NodeId>>,
        fine_to_coarse: &[NodeId],
    ) -> Vec<NodeId> {
        let n_phys = arch.num_qubits();
        let mut assignment = vec![usize::MAX; level.node_count()];
        let mut used = vec![false; n_phys];
        let tie: Vec<usize> = (0..n_phys).map(|p| n_phys - arch.degree(p)).collect();
        let mut totals = vec![0u64; n_phys];
        for u in MultilevelRouter::level_order(level) {
            if level.weights[u].is_empty() {
                if let Some(ca) = coarse_assignment {
                    let anchor = ca[fine_to_coarse[u]];
                    if !used[anchor] {
                        assignment[u] = anchor;
                        used[anchor] = true;
                        continue;
                    }
                }
            }
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
            assignment[u] = best;
            used[best] = true;
        }
        assignment
    }

    #[test]
    fn placement_matches_the_full_scan_reference() {
        let configs = [
            MultilevelConfig::default(),
            // More sweeps and a coarser stop place more levels, each
            // from a refined coarser one.
            MultilevelConfig {
                coarsest_size: 2,
                refinement_sweeps: 6,
            },
        ];
        for (arch, circuit) in crate::test_support::differential_cases() {
            // The dense osprey-433 case runs the default tuning only:
            // refinement is quadratic in the node count.
            let dense_and_large = circuit.gates().len() > 60 && arch.num_qubits() > 127;
            for config in &configs[..if dense_and_large { 1 } else { 2 }] {
                let config = *config;
                assert_eq!(
                    MultilevelRouter::new(config).place(&circuit, &arch),
                    reference_place(config, &circuit, &arch),
                    "{}, {} gates, {config:?}",
                    arch.name(),
                    circuit.gates().len()
                );
            }
        }
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
