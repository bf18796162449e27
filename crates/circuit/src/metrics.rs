//! Summary statistics for circuits.

use crate::circuit::Circuit;
use std::fmt;

/// A snapshot of the size and schedule of a circuit.
///
/// The SWAP-related fields are what the QUBIKOS evaluation reports: a layout
/// synthesis result is scored by how many SWAP gates it added relative to the
/// known optimum.
///
/// # Example
///
/// ```
/// use qubikos_circuit::{Circuit, CircuitStats, Gate};
///
/// let c = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::swap(1, 2), Gate::cx(0, 2)]);
/// let stats = CircuitStats::of(&c);
/// assert_eq!(stats.two_qubit_gates, 3);
/// assert_eq!(stats.swap_gates, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of program qubits.
    pub num_qubits: usize,
    /// Total gate count.
    pub total_gates: usize,
    /// Single-qubit gate count.
    pub one_qubit_gates: usize,
    /// Two-qubit gate count (including SWAPs).
    pub two_qubit_gates: usize,
    /// SWAP gate count.
    pub swap_gates: usize,
    /// Depth with every gate counted.
    pub depth: usize,
    /// Depth counting only two-qubit gates.
    pub two_qubit_depth: usize,
}

impl CircuitStats {
    /// Computes statistics for `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let two = circuit.two_qubit_gate_count();
        CircuitStats {
            num_qubits: circuit.num_qubits(),
            total_gates: circuit.gate_count(),
            one_qubit_gates: circuit.gate_count() - two,
            two_qubit_gates: two,
            swap_gates: circuit.swap_count(),
            depth: circuit.depth(),
            two_qubit_depth: circuit.two_qubit_depth(),
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qubits={} gates={} (1q={}, 2q={}, swap={}) depth={} 2q-depth={}",
            self.num_qubits,
            self.total_gates,
            self.one_qubit_gates,
            self.two_qubit_gates,
            self.swap_gates,
            self.depth,
            self.two_qubit_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn stats_of_mixed_circuit() {
        let c = Circuit::from_gates(
            3,
            [Gate::h(0), Gate::cx(0, 1), Gate::swap(1, 2), Gate::t(2)],
        );
        let s = CircuitStats::of(&c);
        assert_eq!(s.num_qubits, 3);
        assert_eq!(s.total_gates, 4);
        assert_eq!(s.one_qubit_gates, 2);
        assert_eq!(s.two_qubit_gates, 2);
        assert_eq!(s.swap_gates, 1);
        assert_eq!(s.two_qubit_depth, 2);
        assert!(s.depth >= s.two_qubit_depth);
    }

    #[test]
    fn stats_of_empty_circuit() {
        let s = CircuitStats::of(&Circuit::new(4));
        assert_eq!(s.total_gates, 0);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let c = Circuit::from_gates(2, [Gate::cx(0, 1)]);
        let text = CircuitStats::of(&c).to_string();
        assert!(text.contains("qubits=2"));
        assert!(text.contains("swap=0"));
    }
}
