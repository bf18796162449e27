//! Initial-placement strategies.
//!
//! Routers combine one of these placements with a SWAP-insertion pass. The
//! VF2 placement is what solves QUEKO-style (SWAP-free) benchmarks outright;
//! the paper stresses that it is *not* sufficient for QUBIKOS circuits, which
//! is exercised by the tests in the `qubikos` crate.

use crate::mapping::Mapping;
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::{bfs_order, find_subgraph_embedding, Graph, NodeId};
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

    let mut assigned: Vec<Option<NodeId>> = vec![None; circuit.num_qubits()];
    let mut used = vec![false; n_phys];
    let mut totals = vec![0usize; n_phys];
    // Tie-break key: prefer well-connected physical qubits, then low index.
    let tie: Vec<usize> = (0..n_phys).map(|p| n_phys - arch.degree(p)).collect();
    // Free physical qubits in selection order for the no-placed-neighbour
    // case (seed qubits and interaction-isolated qubits): with every total
    // zero the argmin reduces to this precomputed connectivity order, so the
    // scan becomes popping the next unused entry. QUEKO circuits are
    // device-width but sparse, so this covers a large fraction of qubits.
    let mut by_degree: Vec<NodeId> = (0..n_phys).collect();
    by_degree.sort_by_key(|&p| (tie[p], p));
    let mut next_free = 0usize;

    for &q in &order {
        // One distance row per placed interaction neighbour covers the whole
        // candidate scan (instead of candidates × neighbours point queries),
        // accumulated row-major into `totals` so the scan over candidates is
        // a single cache-friendly pass. Selects exactly the qubit a
        // per-candidate `min_by_key` over `(total, tie)` would: same sums,
        // same first-minimum in index order.
        let mut rows = interaction
            .neighbors(q)
            .iter()
            .filter_map(|&nb| assigned[nb])
            .map(|np| arch.distance_row(np));
        let best = match rows.next() {
            None => {
                while used[by_degree[next_free]] {
                    next_free += 1;
                }
                by_degree[next_free]
            }
            Some(first) => {
                totals[..n_phys].copy_from_slice(&first[..n_phys]);
                for row in rows {
                    let row = &row[..n_phys];
                    for p in 0..n_phys {
                        totals[p] += row[p];
                    }
                }
                let mut best = usize::MAX;
                let mut best_key = (usize::MAX, usize::MAX);
                for p in 0..n_phys {
                    if !used[p] && (totals[p], tie[p]) < best_key {
                        best_key = (totals[p], tie[p]);
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

/// Order in which program qubits are placed: BFS from the highest-degree
/// qubit of each connected component, components visited by decreasing size.
fn placement_order(interaction: &Graph) -> Vec<NodeId> {
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
        for n in bfs_order(interaction, start) {
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

    #[test]
    #[should_panic(expected = "does not fit")]
    fn greedy_placement_rejects_oversized_circuit() {
        let arch = devices::line(2);
        let _ = greedy_bfs_placement(&line_circuit(4), &arch);
    }
}
