//! Golden SWAP-count regression fixtures.
//!
//! Routes a fixed set of seeded circuits (line, grid, heavy-hex) through all
//! four routers at a fixed seed and asserts the exact per-router SWAP
//! counts. Any future kernel or router change that silently alters routing
//! decisions — a reordered candidate scan, a float-associativity change in
//! the incremental scorer, a different tie-break stream — fails here loudly
//! instead of drifting the paper's Figure-4 numbers.
//!
//! If a change *intentionally* alters routing decisions, regenerate the
//! constants below and record the swap-count movement in the PR description.

use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, Gate};
use qubikos_layout::{validate_routing, ToolKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed handed to every router (mirrors the harness's `tool_seed` role).
const TOOL_SEED: u64 = 11;

/// A seeded random circuit with roughly 1/4 single-qubit gates, so the
/// fixtures also pin the attached/trailing single-qubit gate scheduling.
fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    for _ in 0..gates {
        let a = rng.gen_range(0..num_qubits);
        let mut b = rng.gen_range(0..num_qubits);
        while b == a {
            b = rng.gen_range(0..num_qubits);
        }
        if rng.gen_range(0..4) == 0 {
            c.push(Gate::h(a));
        } else {
            c.push(Gate::cx(a, b));
        }
    }
    c
}

/// Golden counts in [`ToolKind::ALL`] order: lightsabre, ml-qls, qmap, tket.
fn check_fixture(name: &str, arch: &Architecture, circuit: &Circuit, golden: [usize; 4]) {
    for (tool, expected) in ToolKind::ALL.into_iter().zip(golden) {
        let routed = tool.build(TOOL_SEED).route(circuit, arch).expect("fits");
        validate_routing(circuit, arch, &routed).expect("valid routing");
        assert_eq!(
            routed.swap_count(),
            expected,
            "{name}/{tool}: routing decisions changed (got {}, golden {expected})",
            routed.swap_count()
        );
    }
}

#[test]
fn golden_swap_counts_on_line() {
    let arch = devices::line(8);
    let circuit = random_circuit(6, 30, 42);
    check_fixture("line-8", &arch, &circuit, [10, 16, 29, 25]);
}

#[test]
fn golden_swap_counts_on_grid() {
    let arch = devices::grid(4, 4);
    let circuit = random_circuit(12, 60, 7);
    check_fixture("grid-4x4", &arch, &circuit, [16, 34, 48, 52]);
}

#[test]
fn golden_swap_counts_on_heavy_hex() {
    let arch = devices::rochester53();
    let circuit = random_circuit(20, 60, 3);
    check_fixture("rochester-53", &arch, &circuit, [54, 71, 107, 85]);
}

/// The construction kit's new cost axis, pinned: the four named
/// compositions re-run with **fidelity-derived (non-uniform) coupler
/// weights** forced on, and the resulting SWAP counts fixed as a fresh
/// golden scenario. The uniform fixtures above stay untouched — this pins
/// the weighted decision stream *next to* them, so a change to the weight
/// hash or the `swap_multiplier` composition under non-uniform weights
/// fails here while the bit-identity fixtures keep guarding the classic
/// path. QMAP's A* ignores the weight axis (the spec
/// canonicalizes it away), so its counts must equal the uniform goldens.
#[test]
fn golden_swap_counts_under_fidelity_weights() {
    use qubikos_layout::{Router, RouterSpec, WeightsSpec};
    /// Seed of the synthetic per-coupler noise model (not the routing seed).
    const WEIGHT_SEED: u64 = 5;
    /// (name, arch, circuit qubits, gates, seed, weighted golden counts).
    type Fixture = (&'static str, Architecture, usize, usize, u64, [usize; 4]);
    let fixtures: [Fixture; 3] = [
        ("line-8", devices::line(8), 6, 30, 42, [11, 16, 29, 17]),
        (
            "grid-4x4",
            devices::grid(4, 4),
            12,
            60,
            7,
            [40, 103, 48, 110],
        ),
        (
            "rochester-53",
            devices::rochester53(),
            20,
            60,
            3,
            [1757, 2302, 107, 493],
        ),
    ];
    for (name, arch, qubits, gates, seed, golden) in fixtures {
        let circuit = random_circuit(qubits, gates, seed);
        for (tool, expected) in ToolKind::ALL.into_iter().zip(golden) {
            let spec = RouterSpec {
                weights: WeightsSpec::Fidelity { seed: WEIGHT_SEED },
                ..tool.spec()
            }
            .canonicalized();
            let routed = spec
                .build_named(TOOL_SEED, tool.name())
                .route(&circuit, &arch)
                .expect("fits");
            validate_routing(&circuit, &arch, &routed).expect("valid routing");
            assert_eq!(
                routed.swap_count(),
                expected,
                "{name}/{tool} (fidelity-weighted): routing decisions changed (got {}, golden {expected})",
                routed.swap_count()
            );
        }
    }
}

/// Eagle-127 golden fixture: one small QUEKO instance routed by all four
/// tools, exact SWAP counts pinned.
#[test]
fn golden_swap_counts_on_eagle127_queko() {
    use qubikos::queko::{generate_queko, QuekoConfig};
    let arch = devices::eagle127();
    let queko = generate_queko(&arch, &QuekoConfig::new(6).with_density(0.05).with_seed(5))
        .expect("generates");
    check_fixture("eagle-127", &arch, queko.circuit(), [1, 8, 5, 2]);
}

/// Osprey-433 golden fixture: one small QUEKO instance routed by all four
/// tools, exact SWAP counts pinned. Any change that shifts a routing
/// decision at scale fails here loudly.
#[test]
fn golden_swap_counts_on_osprey433_queko() {
    use qubikos::queko::{generate_queko, QuekoConfig};
    let arch = devices::osprey433();
    let queko = generate_queko(&arch, &QuekoConfig::new(5).with_density(0.05).with_seed(9))
        .expect("generates");
    check_fixture("osprey-433", &arch, queko.circuit(), [2, 22, 4, 4]);
}
