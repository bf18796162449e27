//! Routing-scale checks on the heavy-hex devices beyond the paper's small
//! ones.
//!
//! Routes QUEKO instances on the 127-qubit Eagle device through all four
//! routers and validates every routing, compares Osprey-433's per-gate
//! routing wall-clock against grid(4,4) at benchmark density, and checks
//! that routing results are identical whether one shared architecture is
//! routed on from one thread or many.

use std::sync::RwLock;
use std::time::Instant;

use qubikos::queko::{generate_queko, QuekoConfig};
use qubikos_arch::{devices, Architecture};
use qubikos_circuit::Circuit;
use qubikos_layout::{validate_routing, Router, RouterSpec, SearchSpec, ToolKind};

const TOOL_SEED: u64 = 11;

/// The per-gate timing test takes this for writing, every other test for
/// reading, so the timing test never shares the CPUs with the rest of this
/// binary. On a two-core machine a concurrent debug-build eagle route
/// preempted the long osprey routes but not the short grid ones, and
/// doubled the measured ratio.
static CPU: RwLock<()> = RwLock::new(());

#[test]
fn eagle127_queko_routes_through_all_four_routers() {
    let _shared = CPU.read().unwrap_or_else(|e| e.into_inner());
    let arch = devices::eagle127();
    // Modest depth/density keep the (deliberately expensive) QMAP A* router
    // affordable in debug builds.
    let queko = generate_queko(&arch, &QuekoConfig::new(6).with_density(0.05).with_seed(5))
        .expect("generates");
    for tool in ToolKind::ALL {
        let routed = tool
            .build(TOOL_SEED)
            .route(queko.circuit(), &arch)
            .expect("fits");
        validate_routing(queko.circuit(), &arch, &routed)
            .unwrap_or_else(|e| panic!("{tool}: invalid routing: {e}"));
    }
}

/// Osprey-433 at real density routes at grid-like per-gate cost: the
/// per-gate wall-clock of a 433-qubit QUEKO route stays within 5x of the
/// same router on grid(4,4).
///
/// Instance pairing: osprey runs at the same density (0.05) the eagle-127
/// test uses; the grid baseline runs *denser* (0.1) and deeper, which
/// lowers its per-gate cost and makes the 5x bound stricter, not looser.
/// A single trial keeps both sides on the structure-aware greedy placement
/// — extra trials are random restarts whose cost scales with device size,
/// which would measure trial policy, not the routing kernel.
#[test]
fn osprey433_routes_at_grid_like_per_gate_cost() {
    let _exclusive = CPU.write().unwrap_or_else(|e| e.into_inner());
    // Same router config on both devices so the comparison isolates the
    // per-gate distance + scan cost, not trial counts.
    let router = RouterSpec {
        search: SearchSpec::Greedy {
            trials: 1,
            mapping_passes: 3,
            stall_threshold: 64,
        },
        ..RouterSpec::lightsabre()
    }
    .build(TOOL_SEED);
    let per_gate = |arch: &Architecture, circuit: &Circuit| -> f64 {
        let start = Instant::now();
        let routed = router.route(circuit, arch).expect("fits");
        let nanos = start.elapsed().as_nanos() as f64;
        assert!(routed.swap_count() > 0 || circuit.gates().is_empty());
        nanos / circuit.gates().len() as f64
    };

    let grid = devices::grid(4, 4);
    let grid_queko = generate_queko(&grid, &QuekoConfig::new(8).with_density(0.1).with_seed(5))
        .expect("generates");
    let osprey = devices::osprey433();
    let osprey_queko = generate_queko(
        &osprey,
        &QuekoConfig::new(5).with_density(0.05).with_seed(9),
    )
    .expect("generates");

    // Best of five interleaved rounds: debug-build timing is noisy and the
    // gate is a ratio, so both devices are timed in the same contention
    // spells and each keeps its best-case per-gate cost.
    let (mut grid_ns, mut osprey_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        grid_ns = grid_ns.min(per_gate(&grid, grid_queko.circuit()));
        osprey_ns = osprey_ns.min(per_gate(&osprey, osprey_queko.circuit()));
    }

    assert!(
        osprey_ns < 5.0 * grid_ns,
        "osprey-433 per-gate cost {osprey_ns:.0}ns exceeds 5x grid(4,4)'s {grid_ns:.0}ns"
    );
}

/// Routing the same circuits on one shared architecture from many threads
/// must produce exactly the SWAP counts sequential routing produces.
#[test]
fn shared_architecture_routing_is_deterministic_across_thread_counts() {
    let _shared = CPU.read().unwrap_or_else(|e| e.into_inner());
    let arch = devices::eagle127();
    let circuits: Vec<_> = (0..2)
        .map(|seed| {
            generate_queko(
                &arch,
                &QuekoConfig::new(4).with_density(0.1).with_seed(seed),
            )
            .expect("generates")
            .circuit()
            .clone()
        })
        .collect();

    let route_one = |arch: &Architecture, circuit: &Circuit| -> Vec<usize> {
        ToolKind::ALL
            .into_iter()
            .map(|tool| {
                tool.build(TOOL_SEED)
                    .route(circuit, arch)
                    .expect("fits")
                    .swap_count()
            })
            .collect()
    };

    let baseline: Vec<Vec<usize>> = circuits.iter().map(|c| route_one(&arch, c)).collect();

    // All circuits in flight at once on one shared architecture, and again
    // on a second instance built from scratch.
    for arch in [&arch, &devices::eagle127()] {
        let concurrent: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = circuits
                .iter()
                .map(|c| scope.spawn(move || route_one(arch, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(concurrent, baseline);
    }
}
