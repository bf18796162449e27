//! Routing results.

use crate::mapping::Mapping;
use qubikos_circuit::{Circuit, CircuitStats};
use std::fmt;

/// The output of a layout-synthesis tool.
///
/// `physical_circuit` is expressed over the device's physical qubits and may
/// contain SWAP gates; `initial_mapping` states where each program qubit
/// starts, and `final_mapping` where it ends up after all inserted SWAPs.
/// The quantity the QUBIKOS evaluation cares about is [`swap_count`].
///
/// [`swap_count`]: RoutedCircuit::swap_count
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedCircuit {
    /// Circuit over physical qubits, including inserted SWAP gates.
    pub physical_circuit: Circuit,
    /// Program → physical mapping before the first gate.
    pub initial_mapping: Mapping,
    /// Program → physical mapping after the last gate.
    pub final_mapping: Mapping,
    /// Name of the tool that produced this result.
    pub tool: String,
}

impl RoutedCircuit {
    /// Number of SWAP gates the tool inserted.
    pub fn swap_count(&self) -> usize {
        self.physical_circuit.swap_count()
    }

    /// Statistics of the physical circuit.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::of(&self.physical_circuit)
    }

    /// SWAP ratio against a known optimal SWAP count, the paper's
    /// "optimality gap" metric for a single circuit.
    ///
    /// Returns `None` when `optimal == 0` (the metric is only defined for
    /// circuits that need at least one SWAP).
    pub fn swap_ratio(&self, optimal: usize) -> Option<f64> {
        if optimal == 0 {
            None
        } else {
            Some(self.swap_count() as f64 / optimal as f64)
        }
    }
}

impl fmt::Display for RoutedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} swaps, {} gates, depth {}",
            self.tool,
            self.swap_count(),
            self.physical_circuit.gate_count(),
            self.physical_circuit.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_circuit::Gate;

    fn sample() -> RoutedCircuit {
        let physical = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::swap(1, 2), Gate::cx(0, 1)]);
        RoutedCircuit {
            physical_circuit: physical,
            initial_mapping: Mapping::identity(3, 3),
            final_mapping: Mapping::from_prog_to_phys(vec![0, 2, 1], 3),
            tool: "test-tool".to_string(),
        }
    }

    #[test]
    fn swap_count_and_stats() {
        let r = sample();
        assert_eq!(r.swap_count(), 1);
        assert_eq!(r.stats().two_qubit_gates, 3);
    }

    #[test]
    fn swap_ratio() {
        let r = sample();
        assert_eq!(r.swap_ratio(1), Some(1.0));
        assert_eq!(r.swap_ratio(0), None);
        let ratio = r.swap_ratio(2).expect("defined");
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_names_tool() {
        assert!(sample().to_string().contains("test-tool"));
    }
}
