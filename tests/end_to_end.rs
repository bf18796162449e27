//! Cross-crate integration tests: generate → certify → route → validate →
//! compare against the exact solver.

use qubikos::{generate, generate_suite, verify_certificate, GeneratorConfig, SuiteConfig};
use qubikos_arch::{devices, DeviceKind};
use qubikos_exact::{swap_lower_bound, ExactConfig, ExactSolver};
use qubikos_layout::{validate_routing, vf2_placement, ToolKind};

/// The headline pipeline: a QUBIKOS instance is certified optimal and every
/// tool produces a valid routing whose SWAP count is at least the optimum.
#[test]
fn every_tool_respects_the_certified_optimum() {
    let arch = devices::aspen4();
    let bench = generate(&arch, &GeneratorConfig::new(3, 100).with_seed(17)).expect("generates");
    verify_certificate(&bench, &arch).expect("certificate holds");

    for tool in ToolKind::ALL {
        let router = tool.build(3);
        let routed = router.route(bench.circuit(), &arch).expect("fits");
        validate_routing(bench.circuit(), &arch, &routed).expect("valid routing");
        assert!(
            routed.swap_count() >= bench.optimal_swaps(),
            "{} beat the proven optimum: {} < {}",
            tool.name(),
            routed.swap_count(),
            bench.optimal_swaps()
        );
    }
}

/// The exact solver (OLSQ2 substitute) independently confirms the designed
/// SWAP count of small grid instances — the §IV-A experiment in miniature.
#[test]
fn exact_solver_confirms_designed_swap_counts_on_grid() {
    let arch = devices::grid(3, 3);
    let solver = ExactSolver::new(ExactConfig {
        max_swaps: 4,
        node_budget: 30_000_000,
    });
    for designed in 1..=2usize {
        for seed in 0..3u64 {
            let config = GeneratorConfig::new(designed, 16)
                .with_seed(seed)
                .with_single_qubit_ratio(0.0);
            let bench = generate(&arch, &config).expect("generates");
            let result = solver.solve(bench.circuit(), &arch);
            assert_eq!(
                result.optimal_swaps,
                Some(designed),
                "seed {seed}: exact solver disagrees with the designed count"
            );
            assert!(result.proven, "seed {seed}: exact answer must be proven");
        }
    }
}

/// QUBIKOS circuits can never be solved by subgraph isomorphism alone — the
/// property that distinguishes them from QUEKO benchmarks.
#[test]
fn qubikos_circuits_defeat_vf2_placement() {
    for kind in [DeviceKind::Grid3x3, DeviceKind::Aspen4] {
        let arch = kind.build();
        for seed in 0..3u64 {
            let bench =
                generate(&arch, &GeneratorConfig::new(2, 40).with_seed(seed)).expect("generates");
            assert!(
                vf2_placement(bench.circuit(), &arch).is_none(),
                "a SWAP-free placement exists, contradicting the designed optimum"
            );
            assert!(swap_lower_bound(bench.circuit(), &arch) >= 1);
        }
    }
}

/// The reference solution bundled with every instance is itself a valid
/// routing with exactly the claimed number of SWAPs, across all evaluation
/// architectures.
#[test]
fn reference_solutions_are_valid_on_all_devices() {
    for kind in DeviceKind::EVALUATION {
        let arch = kind.build();
        let bench = generate(&arch, &GeneratorConfig::new(4, 150).with_seed(5)).expect("generates");
        assert_eq!(bench.reference_solution().swap_count(), 4);
        verify_certificate(&bench, &arch).expect("certificate holds");
    }
}

/// Suite generation covers the requested grid and all instances certify.
#[test]
fn generated_suites_certify() {
    let arch = devices::grid(3, 3);
    let config = SuiteConfig {
        swap_counts: vec![1, 2, 3],
        circuits_per_count: 2,
        two_qubit_gates: 30,
        base_seed: 77,
    };
    let suite = generate_suite(&arch, &config).expect("generates");
    assert_eq!(suite.len(), 6);
    for point in &suite {
        verify_certificate(&point.benchmark, &arch).expect("certificate holds");
        assert_eq!(point.benchmark.optimal_swaps(), point.swap_count);
        assert!(point.benchmark.circuit().two_qubit_gate_count() >= 30);
    }
}

/// Handing a router the optimal initial mapping can only help: the result is
/// valid and never better than the proven optimum.
#[test]
fn routing_from_the_optimal_mapping_is_valid() {
    use qubikos_layout::RouterSpec;
    let arch = devices::sycamore54();
    let bench = generate(&arch, &GeneratorConfig::new(3, 200).with_seed(23)).expect("generates");
    let router = RouterSpec::lightsabre().build(1);
    let routed = router
        .route_with_initial_mapping(bench.circuit(), &arch, bench.reference_mapping())
        .expect("fits");
    validate_routing(bench.circuit(), &arch, &routed).expect("valid");
    assert!(routed.swap_count() >= bench.optimal_swaps());
}

/// QASM round-trip of a generated benchmark preserves the circuit, so
/// instances can be exported to external toolchains.
#[test]
fn benchmarks_survive_qasm_round_trip() {
    use qubikos_circuit::{parse_qasm, to_qasm};
    let arch = devices::aspen4();
    let bench = generate(&arch, &GeneratorConfig::new(2, 80).with_seed(9)).expect("generates");
    let qasm = to_qasm(bench.circuit());
    let parsed = parse_qasm(&qasm).expect("parse back");
    assert_eq!(&parsed, bench.circuit());
}
