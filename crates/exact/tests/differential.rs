//! Differential tests: the optimized search core against the pre-refactor
//! clone-per-branch DFS.
//!
//! The rewrite changed everything about *how* the space is searched —
//! in-place do/undo state, transposition table, SWAP-sequence
//! canonicalization, the packing lower bound — and none of it may change
//! *what* is found: `optimal_swaps` and `proven` must be bit-identical on
//! every instance both solvers can afford. Randomized circuits on a line and
//! a grid exercise exactly the regimes where the dedup/canonicalization
//! machinery fires (many commuting SWAP orderings on the line, branching
//! placements on the grid).

use proptest::prelude::*;
use qubikos_arch::devices;
use qubikos_circuit::{Circuit, Gate};
use qubikos_exact::solver::reference::ReferenceSolver;
use qubikos_exact::{ExactConfig, ExactResult, ExactSolver};

/// Strategy: a random all-two-qubit circuit (single-qubit gates never affect
/// SWAP optimality, so they would only dilute the search).
fn arb_circuit(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..num_qubits, 0..num_qubits).prop_filter_map("distinct qubits", move |(a, b)| {
        (a != b).then(|| Gate::cx(a, b))
    });
    proptest::collection::vec(gate, 1..max_gates + 1)
        .prop_map(move |gates| Circuit::from_gates(num_qubits, gates))
}

/// Config both solvers share; the budget is generous enough that every
/// generated instance is decided, so `proven` disagreements cannot hide
/// behind budget noise.
fn config(max_swaps: usize) -> ExactConfig {
    ExactConfig {
        max_swaps,
        node_budget: 5_000_000,
    }
}

/// Solves `circuit` with both solvers, asserts they agree, and returns the
/// optimized solver's result.
fn assert_solvers_agree(
    circuit: &Circuit,
    arch: &qubikos_arch::Architecture,
    max_swaps: usize,
) -> ExactResult {
    let optimized = ExactSolver::new(config(max_swaps)).solve(circuit, arch);
    let reference = ReferenceSolver::new(config(max_swaps)).solve(circuit, arch);
    assert_eq!(
        optimized.optimal_swaps, reference.optimal_swaps,
        "optimal_swaps diverged on {circuit:?}"
    );
    assert_eq!(
        optimized.proven, reference.proven,
        "proven diverged on {circuit:?}"
    );
    optimized
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Line devices maximise commuting-SWAP orderings — the transposition
    /// table's and the canonicalizer's favourite failure surface.
    #[test]
    fn optimized_and_reference_agree_on_the_line(circuit in arb_circuit(4, 7)) {
        let arch = devices::line(4);
        assert_solvers_agree(&circuit, &arch, 3);
    }

    /// Grid devices maximise placement branching (degree-4 centre), the
    /// in-place ready-set bookkeeping's favourite failure surface.
    #[test]
    fn optimized_and_reference_agree_on_the_grid(circuit in arb_circuit(6, 6)) {
        let arch = devices::grid(2, 3);
        assert_solvers_agree(&circuit, &arch, 2);
    }
}

/// A fixed sweep of deterministic seeds over real QUBIKOS instances — the
/// exact population the §IV-A study feeds the solver — so the differential
/// check also covers the generator's structured (backbone + padding) shape,
/// not just uniform-random circuits. Three 16-gate instances (seed 9,
/// designed SWAPs 1–3) must also be proven optimal at exactly their
/// designed count.
#[test]
fn optimized_and_reference_agree_on_qubikos_instances() {
    use qubikos::{generate, GeneratorConfig};
    let arch = devices::grid(3, 3);
    for designed in 1..=2usize {
        for seed in 0..3u64 {
            let bench = generate(&arch, &GeneratorConfig::new(designed, 12).with_seed(seed))
                .expect("generates");
            assert_solvers_agree(bench.circuit(), &arch, 3);
        }
    }
    for designed in 1..=3usize {
        let bench =
            generate(&arch, &GeneratorConfig::new(designed, 16).with_seed(9)).expect("generates");
        let result = assert_solvers_agree(bench.circuit(), &arch, 3);
        assert_eq!(
            result.optimal_swaps,
            Some(designed),
            "designed count is optimal"
        );
        assert!(result.proven, "both solvers prove the optimum");
    }
}
