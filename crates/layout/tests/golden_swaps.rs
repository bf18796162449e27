//! Golden SWAP-count regression fixtures.
//!
//! Routes a fixed set of seeded circuits (line, grid, heavy-hex, and a
//! 300-gate Aspen-4 QUBIKOS instance) through all four routers at a fixed
//! seed and asserts the exact per-router SWAP counts. Any future kernel or
//! router change that silently alters routing decisions — a reordered
//! candidate scan, a float-associativity change in the incremental scorer,
//! a different tie-break stream — fails here loudly instead of drifting the
//! paper's Figure-4 numbers.
//!
//! Counts alone cannot catch a reordered candidate list that picks
//! different SWAPs of the same number, so every uniform-weight fixture also
//! pins a [`stream_fingerprint`] of each tool's full routed gate list and
//! initial mapping, and [`multilevel_placements_are_pinned`] pins the
//! ML-QLS placement itself.
//!
//! If a change *intentionally* alters routing decisions, regenerate the
//! constants below and record the swap-count movement in the PR description.
//! To regenerate fingerprints, replace the expected array with zeros, run
//! `cargo test --release -p qubikos-layout --test golden_swaps`, and paste
//! the `left` array (decimal; the constants are written in hex) from the
//! failure message.

use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, Gate};
use qubikos_layout::{validate_routing, Mapping, MultilevelRouter, RoutedCircuit, ToolKind};
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
/// Returns the routed circuits in the same order.
fn check_fixture(
    name: &str,
    arch: &Architecture,
    circuit: &Circuit,
    golden: [usize; 4],
) -> Vec<RoutedCircuit> {
    ToolKind::ALL
        .into_iter()
        .zip(golden)
        .map(|(tool, expected)| {
            let routed = tool.build(TOOL_SEED).route(circuit, arch).expect("fits");
            validate_routing(circuit, arch, &routed).expect("valid routing");
            assert_eq!(
                routed.swap_count(),
                expected,
                "{name}/{tool}: routing decisions changed (got {}, golden {expected})",
                routed.swap_count()
            );
            routed
        })
        .collect()
}

/// FNV-1a over a stream of integers, each fed as 8 little-endian bytes.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A stable fingerprint of a prog→phys mapping.
fn mapping_fingerprint(mapping: &Mapping) -> u64 {
    fnv1a(mapping.as_slice().iter().map(|&p| p as u64))
}

/// A stable fingerprint of a routing's full decision stream: every gate of
/// the physical circuit (arity, mnemonic bytes, qubits, in order), then the
/// initial mapping.
fn stream_fingerprint(routed: &RoutedCircuit) -> u64 {
    let mut words = Vec::new();
    for gate in routed.physical_circuit.gates() {
        let (mnemonic, qubits) = match *gate {
            Gate::One { kind, qubit } => (kind.mnemonic(), vec![qubit]),
            Gate::Two { kind, qubits } => (kind.mnemonic(), qubits.to_vec()),
        };
        words.push(qubits.len() as u64);
        words.extend(mnemonic.bytes().map(u64::from));
        words.extend(qubits.iter().map(|&q| q as u64));
    }
    words.push(u64::MAX);
    words.push(mapping_fingerprint(&routed.initial_mapping));
    fnv1a(words)
}

/// Asserts each tool's [`stream_fingerprint`], in [`ToolKind::ALL`] order.
fn check_streams(name: &str, routed: &[RoutedCircuit], golden: [u64; 4]) {
    let got: Vec<u64> = routed.iter().map(stream_fingerprint).collect();
    assert_eq!(
        got, golden,
        "{name}: a routed gate stream changed (lightsabre, ml-qls, qmap, tket)"
    );
}

#[test]
fn golden_swap_counts_on_line() {
    let arch = devices::line(8);
    let circuit = random_circuit(6, 30, 42);
    let routed = check_fixture("line-8", &arch, &circuit, [10, 16, 29, 25]);
    check_streams(
        "line-8",
        &routed,
        [
            0xbed7_e57b_fb1f_6cfb,
            0x76d3_be5a_8f8d_3919,
            0x230e_e210_85da_ba95,
            0xc75f_3053_fb6c_c589,
        ],
    );
}

#[test]
fn golden_swap_counts_on_grid() {
    let arch = devices::grid(4, 4);
    let circuit = random_circuit(12, 60, 7);
    let routed = check_fixture("grid-4x4", &arch, &circuit, [16, 34, 48, 52]);
    check_streams(
        "grid-4x4",
        &routed,
        [
            0x00b5_3148_11e7_0d72,
            0xdca7_b96c_1f8a_bbd7,
            0xf976_50c1_33bb_4f36,
            0x35da_1bf9_ec06_1865,
        ],
    );
}

#[test]
fn golden_swap_counts_on_heavy_hex() {
    let arch = devices::rochester53();
    let circuit = random_circuit(20, 60, 3);
    let routed = check_fixture("rochester-53", &arch, &circuit, [54, 71, 107, 85]);
    check_streams(
        "rochester-53",
        &routed,
        [
            0x0279_5c01_c54b_0be8,
            0xa4cf_dd34_b497_de1f,
            0x1b18_8897_f4e5_4245,
            0xce0d_91a0_37d4_1aec,
        ],
    );
}

/// Aspen-4 golden fixture shaped like one `corpus-cold` instance: a seeded
/// 300-gate QUBIKOS circuit with a designed optimum of 10 SWAPs, where
/// LightSABRE's 16 trials and QMAP's A* do most of the evaluation's work.
#[test]
fn golden_swap_counts_on_aspen4_qubikos() {
    use qubikos::{generate, GeneratorConfig};
    let arch = devices::aspen4();
    let bench = generate(&arch, &GeneratorConfig::new(10, 300).with_seed(1)).expect("generates");
    let routed = check_fixture("aspen-4", &arch, bench.circuit(), [54, 24, 284, 232]);
    check_streams(
        "aspen-4",
        &routed,
        [
            0xd1b3_b6e4_c8c2_06c5,
            0x196b_15e6_cbb4_6704,
            0xca59_5de7_a10f_9c21,
            0x76c9_4d22_bda6_5c4f,
        ],
    );
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
    let routed = check_fixture("eagle-127", &arch, queko.circuit(), [1, 8, 5, 2]);
    check_streams(
        "eagle-127",
        &routed,
        [
            0xb946_53d5_b8c5_873a,
            0x34a1_0895_3864_8d9e,
            0x28d0_2cb3_e0af_bfd7,
            0x311c_a544_32a0_3644,
        ],
    );
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
    let routed = check_fixture("osprey-433", &arch, queko.circuit(), [2, 22, 4, 4]);
    check_streams(
        "osprey-433",
        &routed,
        [
            0xe390_4fc3_044f_cb63,
            0xcf22_b46e_3b3d_fa1e,
            0x3e28_25e4_a168_9ae1,
            0xf457_922f_4494_a841,
        ],
    );
}

/// ML-QLS placement pins: the prog→phys vector
/// `MultilevelRouter::default().place` picks for QUBIKOS instances shaped
/// like the benchmark's `route` instances, stored as
/// [`mapping_fingerprint`]s: seeds 1–4 on eagle-127 (5 SWAPs, 60 gates),
/// osprey-433 (2 SWAPs, 60 gates) and grid-4x4 (4 SWAPs, 120 gates). The
/// heavy-hex instances leave most qubits without an interaction, so these
/// pins cover placement's interaction-free paths as well.
#[test]
fn multilevel_placements_are_pinned() {
    use qubikos::{generate, GeneratorConfig};
    let fixtures = [
        (devices::eagle127(), 5, 60),
        (devices::osprey433(), 2, 60),
        (devices::grid(4, 4), 4, 120),
    ];
    let mut got = Vec::new();
    for (arch, swaps, gates) in &fixtures {
        for seed in 1..=4 {
            let bench = generate(arch, &GeneratorConfig::new(*swaps, *gates).with_seed(seed))
                .expect("generates");
            let placement = MultilevelRouter::default().place(bench.circuit(), arch);
            assert!(placement.is_consistent());
            got.push(mapping_fingerprint(&placement));
        }
    }
    assert_eq!(
        got,
        [
            0x2cb1_bb6e_4471_1f3a,
            0x7ce4_d050_db82_1cba,
            0xdb6a_1747_cbd0_1dba,
            0x917d_4d98_51ed_5e3a,
            0x3551_ec0d_8903_f296,
            0x90cc_0e0c_4752_ff5a,
            0xec09_8667_b7db_63b2,
            0x9c4d_d24d_735e_c882,
            0xc92a_f31c_d25f_9125,
            0xbca1_ea99_823e_1b85,
            0xf299_95f7_a546_6b65,
            0x1b8a_2484_4176_3d05,
        ],
        "ML-QLS placement changed (eagle-127, osprey-433, grid-4x4 × seeds 1-4)"
    );
}

/// LightSABRE pins on one QUBIKOS instance shaped like the benchmark's
/// `route` instances per heavy-hex device: the full 16-trial route's
/// [`stream_fingerprint`] on eagle-127 (5 SWAPs, 60 gates) and osprey-433
/// (2 SWAPs, 60 gates). The winning trial, and so the stream, must not
/// depend on how many threads run the trials.
#[test]
fn lightsabre_streams_are_pinned() {
    use qubikos::{generate, GeneratorConfig};
    let fixtures = [(devices::eagle127(), 5), (devices::osprey433(), 2)];
    let router = ToolKind::LightSabre.build(TOOL_SEED);
    let got: Vec<u64> = fixtures
        .iter()
        .map(|(arch, swaps)| {
            let bench =
                generate(arch, &GeneratorConfig::new(*swaps, 60).with_seed(3)).expect("generates");
            let routed = router.route(bench.circuit(), arch).expect("fits");
            validate_routing(bench.circuit(), arch, &routed).expect("valid routing");
            stream_fingerprint(&routed)
        })
        .collect();
    assert_eq!(
        got,
        [0x8291_a7b7_88c2_9349, 0xb086_f9af_6263_d065],
        "a LightSABRE routed stream changed (eagle-127, osprey-433)"
    );
}

/// Standalone-router pins (the paper's §IV-C mode): LightSABRE's single
/// forward pass and QMAP's per-layer A* routed from each QUBIKOS instance's
/// known-optimal reference mapping, as [`stream_fingerprint`]s in
/// (lightsabre, qmap) order per device: grid-4x4, aspen-4, eagle-127.
#[test]
fn standalone_streams_are_pinned() {
    use qubikos::{generate, GeneratorConfig};
    let fixtures = [
        (devices::grid(4, 4), 4, 120, 1),
        (devices::aspen4(), 10, 300, 1),
        (devices::eagle127(), 5, 60, 3),
    ];
    let sabre = ToolKind::LightSabre
        .spec()
        .build_named(TOOL_SEED, "lightsabre");
    let astar = ToolKind::Qmap.spec().build_named(TOOL_SEED, "qmap");
    let mut got = Vec::new();
    for (arch, swaps, gates, seed) in &fixtures {
        let bench = generate(arch, &GeneratorConfig::new(*swaps, *gates).with_seed(*seed))
            .expect("generates");
        let initial = bench.reference_mapping();
        for routed in [
            sabre.route_with_initial_mapping(bench.circuit(), arch, initial),
            astar.route_with_initial_mapping(bench.circuit(), arch, initial),
        ] {
            let routed = routed.expect("fits");
            validate_routing(bench.circuit(), arch, &routed).expect("valid routing");
            assert_eq!(&routed.initial_mapping, initial);
            got.push(stream_fingerprint(&routed));
        }
    }
    assert_eq!(
        got,
        [
            0x3031_5406_c3f6_0674,
            0x58ea_ea57_a764_8c74,
            0x4d59_2908_c82b_ede8,
            0xd633_77fe_925b_d3a2,
            0xe8dd_9108_02b2_7364,
            0x055e_3b98_edff_b18c,
        ],
        "a standalone routed stream changed (grid-4x4, aspen-4, eagle-127 × lightsabre, qmap)"
    );
}

/// Router-construction-kit pins: one [`stream_fingerprint`] per policy-axis
/// choice that none of the paper tools makes, on the grid-4x4 fixture
/// circuit at [`TOOL_SEED`]. In order: LightSABRE with distance-refined
/// ties; LightSABRE with identity and with multilevel placement (4 trials
/// × 2 passes, so both also run their random-restart trials); LightSABRE
/// with fidelity weights; LightSABRE with a lookahead depth decay; t|ket⟩
/// with an additive decay; t|ket⟩ with distance-refined ties and the SABRE
/// lookahead.
#[test]
fn ablation_axis_streams_are_pinned() {
    use qubikos_layout::{
        DecaySpec, LookaheadSpec, PlacementSpec, Router, RouterSpec, SearchSpec, TieBreakerSpec,
        WeightsSpec,
    };
    let arch = devices::grid(4, 4);
    let circuit = random_circuit(12, 60, 7);
    let restarts = SearchSpec::Greedy {
        trials: 4,
        mapping_passes: 2,
        stall_threshold: 64,
    };
    let sabre = RouterSpec::lightsabre();
    let tket = RouterSpec::tket();
    let specs = [
        RouterSpec {
            tie_breaker: TieBreakerSpec::DistanceRefined,
            ..sabre
        },
        RouterSpec {
            search: restarts,
            placement: PlacementSpec::Identity,
            ..sabre
        },
        RouterSpec {
            search: restarts,
            placement: PlacementSpec::Multilevel,
            ..sabre
        },
        RouterSpec {
            weights: WeightsSpec::Fidelity { seed: 3 },
            ..sabre
        },
        RouterSpec {
            lookahead: LookaheadSpec {
                depth_decay: Some(0.8),
                ..LookaheadSpec::sabre_default()
            },
            ..sabre
        },
        RouterSpec {
            decay: DecaySpec::Additive {
                increment: 0.01,
                reset_interval: 3,
            },
            ..tket
        },
        RouterSpec {
            tie_breaker: TieBreakerSpec::DistanceRefined,
            lookahead: LookaheadSpec::sabre_default(),
            ..tket
        },
    ];
    let got: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let routed = spec.build(TOOL_SEED).route(&circuit, &arch).expect("fits");
            validate_routing(&circuit, &arch, &routed).expect("valid routing");
            stream_fingerprint(&routed)
        })
        .collect();
    assert_eq!(
        got,
        [
            0xcb40_64b1_275d_3076,
            0x1363_13c0_e30a_b9d2,
            0xd471_6252_f0bc_1e0f,
            0x5adb_bc83_3105_44b6,
            0x2dea_7334_4e6f_d677,
            0xcf41_b702_cc6b_b9bf,
            0x2df5_dce0_a71a_7198,
        ],
        "an ablation-axis routed stream changed (grid-4x4)"
    );
}
