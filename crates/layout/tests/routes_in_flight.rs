//! The process-wide count of routes in flight, which decides whether a
//! LightSABRE route may spread its trials over idle cores.
//!
//! The count is global, so this binary holds a single test: no other test
//! routes beside it, and the count must read exactly 0 once its callers
//! are done.

use qubikos_arch::devices;
use qubikos_circuit::{Circuit, Gate};
use qubikos_layout::composed::{routes_in_flight, trial_helpers_spawned_on_this_thread};
use qubikos_layout::{Mapping, RouteError, RoutedCircuit, ToolKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Barrier;
use std::thread;

fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    for _ in 0..gates {
        let a = rng.gen_range(0..num_qubits);
        let mut b = rng.gen_range(0..num_qubits);
        while b == a {
            b = rng.gen_range(0..num_qubits);
        }
        c.push(Gate::cx(a, b));
    }
    c
}

/// Four callers route the same instances at once, errors included. Each
/// gets the lone route's streams, and every call gives its count back.
/// A lone route uses at most one thread per core.
#[test]
fn every_route_call_leaves_the_count_as_it_found_it() {
    let instances = [
        (devices::grid(4, 4), random_circuit(12, 60, 7)),
        (devices::aspen4(), random_circuit(14, 60, 3)),
        (devices::eagle127(), random_circuit(30, 60, 5)),
    ];
    let oversized = random_circuit(20, 10, 1);
    let line = devices::line(4);
    let identity = Mapping::identity(4, 4);
    let sabre = ToolKind::LightSabre.build(11);
    let standalone = ToolKind::LightSabre.spec().build_named(11, "lightsabre");

    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(routes_in_flight(), 0);
    let before = trial_helpers_spawned_on_this_thread();
    let lone: Vec<RoutedCircuit> = instances
        .iter()
        .map(|(arch, circuit)| sabre.route(circuit, arch).expect("fits"))
        .collect();
    let helpers = trial_helpers_spawned_on_this_thread() - before;
    assert_eq!(helpers, instances.len() * (cores.min(16) - 1));
    // Single-trial tools never fan out.
    for tool in [ToolKind::MlQls, ToolKind::Qmap, ToolKind::Tket] {
        let before = trial_helpers_spawned_on_this_thread();
        tool.build(11)
            .route(&instances[0].1, &instances[0].0)
            .expect("fits");
        assert_eq!(trial_helpers_spawned_on_this_thread(), before, "{tool}");
    }
    assert_eq!(routes_in_flight(), 0);

    let start = Barrier::new(4);
    thread::scope(|scope| {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let streams: Vec<RoutedCircuit> = instances
                        .iter()
                        .map(|(arch, circuit)| sabre.route(circuit, arch).expect("fits"))
                        .collect();
                    assert!(matches!(
                        sabre.route(&oversized, &line),
                        Err(RouteError::TooManyQubits { .. })
                    ));
                    assert!(matches!(
                        standalone.route_with_initial_mapping(&oversized, &line, &identity),
                        Err(RouteError::TooManyQubits { .. })
                    ));
                    streams
                })
            })
            .collect();
        for caller in callers {
            assert_eq!(caller.join().expect("no panic"), lone);
        }
    });
    assert_eq!(routes_in_flight(), 0);
}
