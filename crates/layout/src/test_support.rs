//! Inputs shared by the differential tests that pin the placement and
//! routing shortcuts to their full-scan references.

use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, Gate};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A device-width circuit of `gates` random CX gates: at 60 gates most
/// qubits of a large device stay idle, at 1,500 nearly all interact.
pub(crate) fn random_device_circuit(arch: &Architecture, gates: usize, seed: u64) -> Circuit {
    let n = arch.num_qubits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut circuit = Circuit::new(n);
    for _ in 0..gates {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        while b == a {
            b = rng.gen_range(0..n);
        }
        circuit.push(Gate::cx(a, b));
    }
    circuit
}

/// The five differential-test devices, small to large.
pub(crate) fn differential_devices() -> [Architecture; 5] {
    [
        devices::grid(4, 4),
        devices::aspen4(),
        devices::sycamore54(),
        devices::eagle127(),
        devices::osprey433(),
    ]
}

/// Two sparse (60-gate) random circuits and one dense (1,500-gate) one on
/// every differential-test device.
pub(crate) fn differential_cases() -> Vec<(Architecture, Circuit)> {
    let mut cases = Vec::new();
    for arch in differential_devices() {
        for (gates, seed) in [(60, 1), (60, 2), (1500, 3)] {
            let circuit = random_device_circuit(&arch, gates, seed);
            cases.push((arch.clone(), circuit));
        }
    }
    cases
}
