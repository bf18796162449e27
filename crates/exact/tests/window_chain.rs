//! Admissibility of the Lemma-1 window chain against the reference solver.
//!
//! The chain starts the optimized solver's deepening and prunes its search,
//! so a chain longer than the optimum would make the solver "prove" a wrong
//! count. The reference solver uses no Lemma-1 reasoning at all (its
//! deepening starts at the degree surplus), so its optimum is an independent
//! witness. Random all-two-qubit circuits, not QUBIKOS ones, keep the chain
//! away from the generator's structure.

use proptest::prelude::*;
use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, DependencyDag, Gate};
use qubikos_exact::lower_bound::window_chain;
use qubikos_exact::solver::reference::ReferenceSolver;
use qubikos_exact::{swap_lower_bound, ExactConfig};

/// Strategy: a random all-two-qubit circuit.
fn arb_circuit(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..num_qubits, 0..num_qubits).prop_filter_map("distinct qubits", move |(a, b)| {
        (a != b).then(|| Gate::cx(a, b))
    });
    proptest::collection::vec(gate, 1..max_gates + 1)
        .prop_map(move |gates| Circuit::from_gates(num_qubits, gates))
}

/// Asserts that the reference solver decides `circuit` and that neither the
/// chain nor [`swap_lower_bound`] exceeds its optimum.
fn assert_chain_admissible(circuit: &Circuit, arch: &Architecture) {
    let reference = ReferenceSolver::new(ExactConfig {
        max_swaps: 6,
        node_budget: 2_000_000,
    })
    .solve(circuit, arch);
    assert!(reference.proven, "undecided within budget: {circuit:?}");
    let optimum = reference.optimal_swaps.expect("proven optimum");
    let chain = window_chain(&DependencyDag::from_circuit(circuit), arch);
    assert!(
        chain.len() <= optimum,
        "chain of {} windows {chain:?} over optimum {optimum} on {circuit:?}",
        chain.len()
    );
    assert!(swap_lower_bound(circuit, arch) <= optimum);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_never_exceeds_the_optimum_on_the_line(circuit in arb_circuit(4, 12)) {
        assert_chain_admissible(&circuit, &devices::line(9));
    }

    #[test]
    fn chain_never_exceeds_the_optimum_on_the_grid(circuit in arb_circuit(5, 12)) {
        assert_chain_admissible(&circuit, &devices::grid(3, 3));
    }

    #[test]
    fn chain_never_exceeds_the_optimum_on_aspen4(circuit in arb_circuit(5, 12)) {
        assert_chain_admissible(&circuit, &devices::aspen4());
    }
}
