//! Property-based tests over the core invariants of the suite.

use proptest::prelude::*;
use qubikos::{generate, verify_certificate, GeneratorConfig};
use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{parse_qasm, to_qasm, Circuit, Gate};
use qubikos_exact::swap_lower_bound;
use qubikos_graph::{
    find_subgraph_embedding, generators, isomorphism::verify_embedding, DistanceMatrix,
};
use qubikos_layout::{
    validate_routing, ComposedRouter, Mapping, Router, RouterSpec, SearchSpec, ToolKind,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// LightSABRE with `trials` random-restart trials and routing seed `seed`.
fn lightsabre(trials: usize, seed: u64) -> ComposedRouter {
    RouterSpec {
        search: SearchSpec::Greedy {
            trials,
            mapping_passes: 3,
            stall_threshold: 64,
        },
        ..RouterSpec::lightsabre()
    }
    .build(seed)
}

/// Strategy: a random circuit over `num_qubits` qubits with `len` gates,
/// roughly 1/4 single-qubit gates.
fn arb_circuit(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..num_qubits, 0..num_qubits, 0..4usize).prop_filter_map(
        "distinct qubits for two-qubit gates",
        move |(a, b, kind)| match kind {
            0 => Some(Gate::h(a)),
            _ if a != b => Some(Gate::cx(a, b)),
            _ => None,
        },
    );
    proptest::collection::vec(gate, 1..max_gates)
        .prop_map(move |gates| Circuit::from_gates(num_qubits, gates))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any SABRE routing of any random circuit on the 3x3 grid is valid and
    /// never uses a SWAP when the interaction graph already embeds.
    #[test]
    fn sabre_routings_are_always_valid(circuit in arb_circuit(6, 30), seed in 0u64..1000) {
        let arch = devices::grid(3, 3);
        let router = lightsabre(2, seed);
        let routed = router.route(&circuit, &arch).expect("fits");
        prop_assert!(validate_routing(&circuit, &arch, &routed).is_ok());
        prop_assert!(routed.swap_count() >= swap_lower_bound(&circuit, &arch));
    }

    /// The greedy t|ket>-style router obeys the same validity invariants.
    #[test]
    fn tket_routings_are_always_valid(circuit in arb_circuit(8, 40)) {
        let arch = devices::aspen4();
        let routed = ToolKind::Tket.build(0).route(&circuit, &arch).expect("fits");
        prop_assert!(validate_routing(&circuit, &arch, &routed).is_ok());
    }

    /// QASM serialisation round-trips every circuit the strategy can build.
    #[test]
    fn qasm_round_trip(circuit in arb_circuit(7, 50)) {
        let text = to_qasm(&circuit);
        let parsed = parse_qasm(&text).expect("parses");
        prop_assert_eq!(parsed, circuit);
    }

    /// A VF2 embedding of a random connected pattern into a larger random
    /// connected graph, when found, is always a genuine monomorphism.
    #[test]
    fn vf2_embeddings_are_sound(pattern_seed in 0u64..500, target_seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(pattern_seed);
        let pattern = generators::random_connected_graph(5, 2, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(target_seed);
        let target = generators::random_connected_graph(9, 6, &mut rng);
        if let Some(embedding) = find_subgraph_embedding(&pattern, &target) {
            prop_assert!(verify_embedding(&pattern, &target, &embedding));
        }
    }

    /// Distance matrices satisfy the triangle inequality on arbitrary
    /// connected graphs (the property every router's cost model relies on).
    #[test]
    fn distances_satisfy_triangle_inequality(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_connected_graph(10, 5, &mut rng);
        let dist = DistanceMatrix::new(&graph);
        for a in 0..10 {
            for b in 0..10 {
                for c in 0..10 {
                    prop_assert!(dist.get(a, c) <= dist.get(a, b) + dist.get(b, c));
                }
            }
        }
    }

    /// Applying random SWAPs to a mapping keeps it a consistent injection.
    #[test]
    fn mappings_stay_consistent_under_swaps(swaps in proptest::collection::vec((0usize..9, 0usize..9), 1..40)) {
        let mut mapping = Mapping::identity(6, 9);
        for (a, b) in swaps {
            if a != b {
                mapping.apply_swap_physical(a, b);
            }
        }
        prop_assert!(mapping.is_consistent());
    }

    /// Generated QUBIKOS instances always pass their own optimality
    /// certificate, for arbitrary seeds and SWAP counts on the grid.
    #[test]
    fn generated_instances_always_certify(seed in 0u64..200, swaps in 1usize..4) {
        let arch = devices::grid(3, 3);
        let bench = generate(&arch, &GeneratorConfig::new(swaps, 25).with_seed(seed)).expect("generates");
        prop_assert!(verify_certificate(&bench, &arch).is_ok());
        prop_assert_eq!(bench.optimal_swaps(), swaps);
    }

    /// Routing through the shared kernel is deterministic: for any circuit
    /// and any fixed seed, every tool produces bit-identical routings on
    /// repeated calls (the per-process guarantee behind the engine's
    /// cross-thread-count report invariance).
    #[test]
    fn all_routers_are_deterministic_for_a_fixed_seed(
        circuit in arb_circuit(6, 25),
        seed in 0u64..100,
    ) {
        let arch = devices::grid(3, 3);
        for tool in ToolKind::ALL {
            let first = tool.build(seed).route(&circuit, &arch).expect("fits");
            let second = tool.build(seed).route(&circuit, &arch).expect("fits");
            prop_assert_eq!(&first.physical_circuit, &second.physical_circuit, "{} diverged", tool);
            prop_assert_eq!(&first.initial_mapping, &second.initial_mapping, "{} diverged", tool);
            prop_assert_eq!(&first.final_mapping, &second.final_mapping, "{} diverged", tool);
        }
    }

    /// Random connected architectures are routable: SABRE produces a valid
    /// result on any connected coupling graph, not just the named devices.
    #[test]
    fn sabre_handles_arbitrary_connected_architectures(seed in 0u64..200, circuit in arb_circuit(6, 20)) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_connected_graph(8, 4, &mut rng);
        let arch = Architecture::new("random", graph).expect("connected");
        let router = lightsabre(1, seed);
        let routed = router.route(&circuit, &arch).expect("fits");
        prop_assert!(validate_routing(&circuit, &arch, &routed).is_ok());
    }
}
