//! Workspace-level smoke test: every heuristic router under evaluation
//! routes a small QUEKO circuit on the 4x4 grid and passes validation.
//!
//! QUEKO circuits (Tan & Cong, 2020) have a *zero-SWAP optimum by
//! construction*: every gate acts on a coupler edge under the bundled
//! reference mapping, so subgraph-isomorphism placement recovers a SWAP-free
//! layout. This is the certificate property the paper contrasts QUBIKOS
//! against, and the cheapest end-to-end sanity check of the routing stack —
//! if any router fails here, every benchmark number downstream is suspect.

use qubikos::{generate_queko, QuekoConfig};
use qubikos_arch::devices;
use qubikos_exact::swap_lower_bound;
use qubikos_layout::{validate_routing, vf2_placement, ToolKind};

/// Builds the shared QUEKO instance: depth 5 on a 4x4 grid.
fn queko_on_grid4x4() -> (qubikos_arch::Architecture, qubikos::QuekoCircuit) {
    let arch = devices::grid(4, 4);
    let queko = generate_queko(&arch, &QuekoConfig::new(5).with_seed(11)).expect("generates");
    (arch, queko)
}

/// The zero-SWAP-optimum certificate: the reference mapping executes the
/// circuit SWAP-free, VF2 placement independently finds such a layout, and
/// the admissible lower bound agrees the optimum is zero.
#[test]
fn queko_instances_certify_zero_swap_optimum() {
    let (arch, queko) = queko_on_grid4x4();
    assert_eq!(queko.optimal_swaps(), 0);
    assert!(
        vf2_placement(queko.circuit(), &arch).is_some(),
        "QUEKO circuits must embed into their own architecture"
    );
    assert_eq!(swap_lower_bound(queko.circuit(), &arch), 0);
    assert!(queko.circuit().two_qubit_gate_count() >= queko.optimal_depth());
}

/// Each router must produce a valid routing of the QUEKO circuit. Routers
/// may insert SWAPs (heuristics are not obliged to find the zero-SWAP
/// layout), but the routing itself has to validate.
macro_rules! router_smoke_test {
    ($($test_name:ident => $router:expr;)*) => {$(
        #[test]
        fn $test_name() {
            let (arch, queko) = queko_on_grid4x4();
            let router = $router;
            let routed = router.route(queko.circuit(), &arch).expect("routes");
            validate_routing(queko.circuit(), &arch, &routed).expect("valid routing");
        }
    )*};
}

router_smoke_test! {
    sabre_routes_queko_on_grid => ToolKind::LightSabre.build(0);
    tket_routes_queko_on_grid => ToolKind::Tket.build(0);
    astar_routes_queko_on_grid => ToolKind::Qmap.build(0);
    multilevel_routes_queko_on_grid => ToolKind::MlQls.build(0);
}

/// Routing from the bundled reference mapping must stay SWAP-free for every
/// tool: the mapping satisfies every gate, so no SWAP is ever needed.
#[test]
fn reference_mapping_routes_swap_free() {
    let (arch, queko) = queko_on_grid4x4();
    for tool in ToolKind::ALL {
        let routed = tool
            .spec()
            .build(0)
            .route_with_initial_mapping(queko.circuit(), &arch, queko.reference_mapping())
            .expect("routes");
        validate_routing(queko.circuit(), &arch, &routed).expect("valid routing");
        assert_eq!(
            routed.swap_count(),
            0,
            "{tool}: the QUEKO reference mapping needs no SWAPs by construction"
        );
    }
}
