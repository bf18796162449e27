//! Admissible lower bounds on the optimal SWAP count.

use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::{is_subgraph_isomorphic, Embedding, Vf2Matcher};

/// Lower bound from interaction-graph embeddability: 0 if the interaction
/// graph embeds into the coupling graph (the circuit *might* be SWAP-free),
/// otherwise 1 (at least one SWAP is certainly required).
///
/// This is exactly Lemma 1 of the paper turned into a check: a circuit whose
/// interaction graph is not isomorphic to any subgraph of the coupling graph
/// cannot be executed under any single mapping.
pub fn embedding_lower_bound(circuit: &Circuit, arch: &Architecture) -> usize {
    if circuit.two_qubit_gate_count() == 0 {
        return 0;
    }
    let interaction = circuit.interaction_graph();
    if is_subgraph_isomorphic(&interaction, arch.coupling_graph()) {
        0
    } else {
        1
    }
}

/// Degree-surplus lower bound: every SWAP can only connect a program qubit to
/// qubits hosted on neighbouring physical locations, so if the interaction
/// graph has more edges incident to "over-subscribed" qubits than any
/// placement can satisfy, extra SWAPs are needed.
///
/// Concretely, for a program qubit `q` with interaction degree `d(q)` and a
/// device of maximum physical degree `Δ`, any single placement makes at most
/// `Δ` partners adjacent. Each further SWAP extends the set of partners `q`
/// can ever touch by at most `Δ - 1`: a SWAP that moves `q` itself exposes at
/// most `Δ - 1` positions not previously adjacent (one neighbour of the new
/// position is `q`'s origin), and a SWAP that moves a partner towards `q`
/// brings in at most one. Hence `s` SWAPs satisfy at most `Δ + s·(Δ - 1)`
/// partners, and `s ≥ ⌈(d(q) - Δ) / (Δ - 1)⌉` is admissible. (An earlier
/// revision of this bound charged one SWAP per surplus partner, which
/// overcounts exactly when moving `q` serves several partners at once — and
/// an inadmissible bound silently corrupts the exact solver's `proven`
/// answers, since the solver starts its iterative deepening here.)
pub fn degree_surplus_lower_bound(circuit: &Circuit, arch: &Architecture) -> usize {
    let interaction = circuit.interaction_graph();
    let max_physical_degree = arch.coupling_graph().max_degree();
    // Per-SWAP gain in reachable partners; clamped so degenerate single-edge
    // devices (Δ ≤ 1, where the true bound is unbounded) stay conservative.
    let gain_per_swap = max_physical_degree.saturating_sub(1).max(1);
    interaction
        .nodes()
        .map(|q| {
            interaction
                .degree(q)
                .saturating_sub(max_physical_degree)
                .div_ceil(gain_per_swap)
        })
        .max()
        .unwrap_or(0)
}

/// Search-tree nodes the VF2 probe in [`swap_lower_bound`] may explore.
const EMBEDDING_PROBE_NODE_LIMIT: u64 = 2_000_000;

/// The best cheap lower bound we can certify without search: the maximum of
/// the embedding bound and the degree-surplus bound, with a bounded-effort
/// VF2 probe so the bound stays cheap on large inputs. A probe that runs out
/// of nodes proves nothing, so it counts as "may embed" (0), never as a
/// SWAP.
pub fn swap_lower_bound(circuit: &Circuit, arch: &Architecture) -> usize {
    probe_limited_swap_lower_bound(circuit, arch, EMBEDDING_PROBE_NODE_LIMIT)
}

/// [`swap_lower_bound`] with the VF2 probe capped at `node_limit` search
/// nodes.
fn probe_limited_swap_lower_bound(
    circuit: &Circuit,
    arch: &Architecture,
    node_limit: u64,
) -> usize {
    let degree_bound = degree_surplus_lower_bound(circuit, arch);
    if degree_bound >= 1 {
        // Already know at least one SWAP is needed; the embedding probe can
        // only confirm that, so skip it.
        return degree_bound;
    }
    if circuit.two_qubit_gate_count() == 0 {
        return 0;
    }
    let interaction = circuit.interaction_graph();
    let probe = Vf2Matcher::new(&interaction, arch.coupling_graph())
        .with_node_limit(node_limit)
        .search();
    match probe {
        Embedding::Absent => 1,
        Embedding::Found(_) | Embedding::GaveUp => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;

    #[test]
    fn embeddable_circuit_has_zero_bound() {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(2, 3)]);
        assert_eq!(embedding_lower_bound(&circuit, &arch), 0);
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);
    }

    #[test]
    fn triangle_on_line_needs_a_swap() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        assert_eq!(embedding_lower_bound(&circuit, &arch), 1);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);
    }

    #[test]
    fn empty_circuit_has_zero_bound() {
        let arch = devices::line(3);
        let circuit = Circuit::new(3);
        assert_eq!(embedding_lower_bound(&circuit, &arch), 0);
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);
    }

    #[test]
    fn degree_surplus_counts_excess_neighbours() {
        // A star with 5 leaves on a grid whose max degree is 4: the hub needs
        // at least one SWAP to reach its fifth partner.
        let arch = devices::grid(3, 3);
        let gates: Vec<Gate> = (1..=5).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(6, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 1);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);

        // Seven leaves: three partners beyond the first four, but one SWAP of
        // the hub can expose up to three new positions at once, so only one
        // extra SWAP is certain. (Claiming three here would be inadmissible:
        // grid instances with valid 2-SWAP solutions reach surplus 3.)
        let gates: Vec<Gate> = (1..=7).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(8, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 1);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);

        // Eight leaves: 4 surplus over 3-per-SWAP gain needs two SWAPs.
        let gates: Vec<Gate> = (1..=8).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(9, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 2);
        assert_eq!(swap_lower_bound(&circuit, &arch), 2);
    }

    #[test]
    fn degree_surplus_never_exceeds_a_known_valid_solution() {
        // Regression for the inadmissible pre-fix bound: this QUBIKOS
        // instance carries a certificate-validated 2-SWAP reference solution,
        // so no admissible lower bound may exceed 2.
        use qubikos::{generate, GeneratorConfig};
        let arch = devices::grid(3, 3);
        let bench = generate(&arch, &GeneratorConfig::new(2, 20).with_seed(2_025_006_077))
            .expect("generates");
        assert!(swap_lower_bound(bench.circuit(), &arch) <= 2);
    }

    #[test]
    fn a_probe_that_gives_up_proves_nothing() {
        // A 3x3-grid interaction graph embeds into a 5x5 grid, and no qubit
        // has more partners than the device's degree, so only the VF2 probe
        // could raise the bound; a one-node probe gives up before it finds
        // the embedding.
        let arch = devices::grid(5, 5);
        let pattern = qubikos_graph::generators::grid_graph(3, 3);
        let circuit = Circuit::from_gates(9, pattern.edges().map(|e| Gate::cx(e.u, e.v)));
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 0);
        assert_eq!(probe_limited_swap_lower_bound(&circuit, &arch, 1), 0);
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);

        // A refutation the probe reaches without searching still counts.
        let line = devices::line(3);
        let triangle = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        assert_eq!(probe_limited_swap_lower_bound(&triangle, &line, 1), 1);
    }

    #[test]
    fn degree_surplus_is_zero_for_low_degree_circuits() {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2)]);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 0);
    }
}
