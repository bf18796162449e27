//! Initial-placement strategies.
//!
//! Routers combine one of these placements with a SWAP-insertion pass. The
//! VF2 placement is what solves QUEKO-style (SWAP-free) benchmarks outright;
//! the paper stresses that it is *not* sufficient for QUBIKOS circuits, which
//! is exercised by the tests in the `qubikos` crate.
//!
//! A QUBIKOS instance declares every device qubit, and a short one leaves
//! most of them idle, so the greedy-BFS placement avoids work per device
//! qubit where it can:
//! - its order is built in two passes over the interaction graph, not one
//!   component list and one device-sized BFS per component;
//! - a qubit with no placed neighbour, whose distance sum is 0 everywhere,
//!   takes the next free physical qubit in tie-break order through a
//!   pointer instead of a scan;
//! - a qubit with one placed neighbour, whose sum is the distance to it,
//!   takes the nearest free physical qubit found by a search outward from
//!   that neighbour, one distance ring at a time.
//!
//! Only a qubit with two or more placed neighbours scans every physical
//! qubit. Each shortcut selects what the full scan selects; the old order
//! and loop are kept as test-only references that a differential test
//! compares against. The multilevel placement shares these shortcuts.

use crate::kernel::StampSet;
use crate::mapping::Mapping;
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::{find_subgraph_embedding, Graph, NodeId};
use rand::Rng;

/// A uniformly random injective placement.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the device.
pub fn random_placement<R: Rng + ?Sized>(
    circuit: &Circuit,
    arch: &Architecture,
    rng: &mut R,
) -> Mapping {
    Mapping::random(circuit.num_qubits(), arch.num_qubits(), rng)
}

/// Subgraph-isomorphism placement: embeds the interaction graph into the
/// coupling graph if possible, making the whole circuit executable without
/// SWAPs (the QUEKO case). Returns `None` when no embedding exists, which is
/// by construction always the case for QUBIKOS circuits.
pub fn vf2_placement(circuit: &Circuit, arch: &Architecture) -> Option<Mapping> {
    if circuit.num_qubits() > arch.num_qubits() {
        return None;
    }
    let interaction = circuit.interaction_graph();
    let embedding = find_subgraph_embedding(&interaction, arch.coupling_graph())?;
    Some(Mapping::from_prog_to_phys(embedding, arch.num_qubits()))
}

/// Greedy BFS placement: walk the interaction graph in BFS order from its
/// highest-degree qubit and greedily place each program qubit on the free
/// physical qubit that minimises the summed distance to its already-placed
/// interaction-graph neighbours.
///
/// This is the structure-aware (but cheap) placement used as the starting
/// point of the multilevel router and as SABRE's fallback when it is not
/// given trials to spend on random restarts.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the device.
pub fn greedy_bfs_placement(circuit: &Circuit, arch: &Architecture) -> Mapping {
    assert!(
        circuit.num_qubits() <= arch.num_qubits(),
        "circuit does not fit the device"
    );
    let interaction = circuit.interaction_graph();
    let order = placement_order(&interaction);
    let n_phys = arch.num_qubits();
    let mut assigned: Vec<Option<NodeId>> = vec![None; interaction.node_count()];
    let mut used = vec![false; n_phys];
    let mut totals = vec![0usize; n_phys];
    let mut qubits = Qubits::new(arch);
    let mut next_free = 0usize;

    for &q in &order {
        let mut placed = interaction
            .neighbors(q)
            .iter()
            .filter_map(|&nb| assigned[nb]);
        let best = match (placed.next(), placed.next()) {
            // No placed neighbour (seed qubits and interaction-isolated
            // qubits): every total is zero, so the argmin is the first free
            // qubit in tie-break order.
            (None, _) => qubits.first_free(&used, &mut next_free),
            // One: the total is the distance to it.
            (Some(np), None) => qubits.nearest_free(np, &used),
            // One distance row per placed interaction neighbour covers the
            // whole candidate scan (instead of candidates × neighbours point
            // queries), accumulated row-major into `totals` so the scan
            // over candidates is a single cache-friendly pass. Selects
            // exactly the qubit a per-candidate `min_by_key` over
            // `(total, tie)` would: same sums, same first-minimum in index
            // order.
            (Some(_), Some(_)) => {
                totals.fill(0);
                for np in interaction
                    .neighbors(q)
                    .iter()
                    .filter_map(|&nb| assigned[nb])
                {
                    let row = &arch.distance_row(np)[..n_phys];
                    for p in 0..n_phys {
                        totals[p] += row[p];
                    }
                }
                let mut best = usize::MAX;
                let mut best_key = (usize::MAX, usize::MAX);
                for p in 0..n_phys {
                    if !used[p] && (totals[p], qubits.tie(p)) < best_key {
                        best_key = (totals[p], qubits.tie(p));
                        best = p;
                    }
                }
                assert_ne!(best, usize::MAX, "device has enough free qubits");
                best
            }
        };
        assigned[q] = Some(best);
        used[best] = true;
    }

    let prog_to_phys: Vec<NodeId> = assigned
        .into_iter()
        .map(|p| p.expect("every program qubit placed"))
        .collect();
    Mapping::from_prog_to_phys(prog_to_phys, n_phys)
}

/// The physical qubits in the greedy placements' selection order, with the
/// scratch of the distance-ring search. Both greedy placements pick the
/// free qubit minimising `(total, n − degree, index)`; these are the
/// shortcuts for a node whose total is 0 everywhere or a distance to one
/// qubit.
pub(crate) struct Qubits<'a> {
    arch: &'a Architecture,
    /// Tie-break key: prefer well-connected physical qubits, then low index.
    tie: Vec<usize>,
    /// Every physical qubit, sorted by `(tie, index)`.
    by_tie: Vec<NodeId>,
    /// Distance-ring search: visited qubits, the current and the next ring.
    seen: StampSet,
    ring: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl<'a> Qubits<'a> {
    pub(crate) fn new(arch: &'a Architecture) -> Self {
        let n_phys = arch.num_qubits();
        let tie: Vec<usize> = (0..n_phys).map(|p| n_phys - arch.degree(p)).collect();
        let mut by_tie: Vec<NodeId> = (0..n_phys).collect();
        by_tie.sort_by_key(|&p| (tie[p], p));
        Qubits {
            arch,
            tie,
            by_tie,
            seen: StampSet::new(),
            ring: Vec::new(),
            next: Vec::new(),
        }
    }

    pub(crate) fn arch(&self) -> &'a Architecture {
        self.arch
    }

    /// The tie-break key of `p`: `n − degree`.
    pub(crate) fn tie(&self, p: NodeId) -> usize {
        self.tie[p]
    }

    /// The free qubit minimising `(tie, index)`: the argmin when every total
    /// is equal. `cursor` indexes the selection order; no qubit before it
    /// is free, and it only moves forward as qubits are used.
    pub(crate) fn first_free(&self, used: &[bool], cursor: &mut usize) -> NodeId {
        while used[self.by_tie[*cursor]] {
            *cursor += 1;
        }
        self.by_tie[*cursor]
    }

    /// The free qubit minimising `(distance to centre, tie, index)`: the
    /// minimum `(tie, index)` of the first coupling-graph distance ring
    /// around `centre` that holds a free qubit. Hop distance is the ring
    /// number, so this is the argmin of a scan over every qubit, reached
    /// after visiting only the rings up to the answer.
    pub(crate) fn nearest_free(&mut self, centre: NodeId, used: &[bool]) -> NodeId {
        self.seen.reset(used.len());
        self.seen.insert(centre);
        self.ring.clear();
        self.ring.push(centre);
        while !self.ring.is_empty() {
            let tie = &self.tie;
            let best = self
                .ring
                .iter()
                .copied()
                .filter(|&p| !used[p])
                .min_by_key(|&p| (tie[p], p));
            if let Some(best) = best {
                return best;
            }
            self.next.clear();
            for &p in &self.ring {
                for &q in self.arch.neighbors(p) {
                    if self.seen.insert(q) {
                        self.next.push(q);
                    }
                }
            }
            std::mem::swap(&mut self.ring, &mut self.next);
        }
        panic!("device has enough qubits")
    }
}

/// Order in which program qubits are placed: BFS from the highest-degree
/// qubit of each connected component, components visited by decreasing size.
///
/// Two passes over the interaction graph, sharing one `seen` vector and one
/// queue (`order` itself, its unvisited tail starting at `head`). The first
/// labels each component in index order and records its size and its start
/// — the highest-index node of maximum degree, the one `max_by_key` over
/// the component's ascending node list returns. A stable sort by decreasing
/// size then gives the visiting order, and the second pass runs the BFS from
/// each start. A QUBIKOS instance declares every device qubit, and most of
/// them are idle one-node components (about 378 of 433 on a 60-gate
/// osprey-433 instance), so this costs O(qubits + edges) where one
/// component list plus one device-sized visited vector per component cost
/// O(components × qubits). The order is the same.
fn placement_order(interaction: &Graph) -> Vec<NodeId> {
    let n = interaction.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        order.clear();
        order.push(root);
        let (mut head, mut start) = (0, root);
        while head < order.len() {
            let u = order[head];
            head += 1;
            if (interaction.degree(u), u) > (interaction.degree(start), start) {
                start = u;
            }
            for &v in interaction.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    order.push(v);
                }
            }
        }
        components.push((order.len(), start));
    }
    components.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
    order.clear();
    seen.fill(false);
    for (_, start) in components {
        let mut head = order.len();
        seen[start] = true;
        order.push(start);
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in interaction.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    order.push(v);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_circuit(n: usize) -> Circuit {
        let gates: Vec<Gate> = (1..n).map(|i| Gate::cx(i - 1, i)).collect();
        Circuit::from_gates(n, gates)
    }

    #[test]
    fn random_placement_is_consistent() {
        let arch = devices::grid(3, 3);
        let circuit = line_circuit(5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = random_placement(&circuit, &arch, &mut rng);
        assert!(m.is_consistent());
        assert_eq!(m.num_program(), 5);
        assert_eq!(m.num_physical(), 9);
    }

    #[test]
    fn vf2_placement_finds_swap_free_embedding() {
        let arch = devices::grid(3, 3);
        let circuit = line_circuit(5);
        let m = vf2_placement(&circuit, &arch).expect("a path embeds into the grid");
        // Every interacting pair must be coupled under the placement.
        for gate in circuit.two_qubit_gates() {
            let (a, b) = gate.qubit_pair().expect("two-qubit");
            assert!(arch.are_coupled(m.physical(a), m.physical(b)));
        }
    }

    #[test]
    fn vf2_placement_fails_when_no_embedding_exists() {
        let arch = devices::line(4);
        // A star with a degree-3 hub cannot embed into a line (max degree 2).
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(0, 2), Gate::cx(0, 3)]);
        assert!(vf2_placement(&circuit, &arch).is_none());
    }

    #[test]
    fn vf2_placement_rejects_oversized_circuit() {
        let arch = devices::line(3);
        assert!(vf2_placement(&line_circuit(5), &arch).is_none());
    }

    #[test]
    fn greedy_placement_keeps_neighbors_close() {
        let arch = devices::grid(4, 4);
        let circuit = line_circuit(6);
        let m = greedy_bfs_placement(&circuit, &arch);
        assert!(m.is_consistent());
        let total: usize = circuit
            .two_qubit_gates()
            .iter()
            .map(|g| {
                let (a, b) = g.qubit_pair().expect("two-qubit");
                arch.distance(m.physical(a), m.physical(b))
            })
            .sum();
        // A line of 6 qubits fits with all neighbours adjacent; the greedy
        // placement should get close to the ideal total of 5.
        assert!(
            total <= 8,
            "greedy placement scattered qubits: total {total}"
        );
    }

    #[test]
    fn greedy_placement_handles_idle_qubits() {
        // Qubits with no gates still get placed somewhere.
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(6, [Gate::cx(0, 1)]);
        let m = greedy_bfs_placement(&circuit, &arch);
        assert!(m.is_consistent());
        assert_eq!(m.num_program(), 6);
    }

    /// The placement order before the two-pass rewrite: one component list
    /// from `connected_components`, then one `bfs_order` call (with its own
    /// device-sized visited vector) per component. The differential test
    /// pins [`placement_order`] to it.
    fn reference_placement_order(interaction: &Graph) -> Vec<NodeId> {
        let mut components = qubikos_graph::connected_components(interaction);
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut order = Vec::with_capacity(interaction.node_count());
        let mut member = vec![false; interaction.node_count()];
        for component in components {
            let start = component
                .iter()
                .copied()
                .max_by_key(|&n| interaction.degree(n))
                .expect("component is non-empty");
            for &n in &component {
                member[n] = true;
            }
            for n in qubikos_graph::bfs_order(interaction, start) {
                if member[n] {
                    order.push(n);
                }
            }
            for &n in &component {
                member[n] = false;
            }
        }
        order
    }

    /// The greedy loop before the shortcuts: every node with a placed
    /// neighbour scans every physical qubit.
    fn reference_place_in_order(
        interaction: &Graph,
        arch: &Architecture,
        order: &[NodeId],
    ) -> Mapping {
        let n_phys = arch.num_qubits();
        let mut assigned: Vec<Option<NodeId>> = vec![None; interaction.node_count()];
        let mut used = vec![false; n_phys];
        let tie: Vec<usize> = (0..n_phys).map(|p| n_phys - arch.degree(p)).collect();
        for &q in order {
            let mut totals = vec![0usize; n_phys];
            for np in interaction
                .neighbors(q)
                .iter()
                .filter_map(|&nb| assigned[nb])
            {
                for p in 0..n_phys {
                    totals[p] += arch.distance(np, p);
                }
            }
            let best = (0..n_phys)
                .filter(|&p| !used[p])
                .min_by_key(|&p| (totals[p], tie[p], p))
                .expect("device has enough free qubits");
            assigned[q] = Some(best);
            used[best] = true;
        }
        let prog_to_phys = assigned.into_iter().map(|p| p.expect("placed")).collect();
        Mapping::from_prog_to_phys(prog_to_phys, n_phys)
    }

    #[test]
    fn placement_order_and_placement_match_the_reference() {
        for (arch, circuit) in crate::test_support::differential_cases() {
            let interaction = circuit.interaction_graph();
            let order = placement_order(&interaction);
            let reference = reference_placement_order(&interaction);
            let case = format!("{}, {} gates", arch.name(), circuit.gates().len());
            assert_eq!(order, reference, "{case}");
            assert_eq!(
                greedy_bfs_placement(&circuit, &arch),
                reference_place_in_order(&interaction, &arch, &reference),
                "{case}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn greedy_placement_rejects_oversized_circuit() {
        let arch = devices::line(2);
        let _ = greedy_bfs_placement(&line_circuit(4), &arch);
    }
}
