//! The [`QubikosCircuit`] benchmark instance type.

use qubikos_circuit::{Circuit, CircuitStats};
use qubikos_graph::NodeId;
use qubikos_layout::{Mapping, RoutedCircuit};
use std::fmt;

/// One backbone section of a QUBIKOS circuit.
///
/// A section is the set of gates that force exactly one SWAP: its
/// *saturation/connector* gates (the body) followed by one *special* gate
/// which is only executable after the section's designated SWAP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Indices (into the final circuit's gate list) of the section's backbone
    /// body gates, in program order.
    pub body_indices: Vec<usize>,
    /// Index of the section's special gate in the final circuit.
    pub special_index: usize,
    /// The physical coupler whose SWAP this section forces, expressed in
    /// physical qubit ids valid at the moment the SWAP is applied.
    pub swap_physical: (NodeId, NodeId),
    /// The special gate's program qubit pair.
    pub special_pair: (NodeId, NodeId),
}

impl Section {
    /// All backbone gate indices of the section (body plus special gate).
    pub fn backbone_indices(&self) -> Vec<usize> {
        let mut v = self.body_indices.clone();
        v.push(self.special_index);
        v
    }
}

/// A generated benchmark circuit with its provably optimal SWAP count.
///
/// The struct carries everything a QLS evaluation needs: the logical circuit
/// to hand to the tool under test, the optimal SWAP count to compare
/// against, and the generator's own reference solution (initial mapping plus
/// transpiled circuit) that witnesses the upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubikosCircuit {
    circuit: Circuit,
    optimal_swaps: usize,
    architecture: String,
    reference_mapping: Mapping,
    reference_solution: Circuit,
    sections: Vec<Section>,
    seed: u64,
}

impl QubikosCircuit {
    /// Assembles a benchmark instance (used by the generator).
    pub fn new(
        circuit: Circuit,
        optimal_swaps: usize,
        architecture: impl Into<String>,
        reference_mapping: Mapping,
        reference_solution: Circuit,
        sections: Vec<Section>,
        seed: u64,
    ) -> Self {
        QubikosCircuit {
            circuit,
            optimal_swaps,
            architecture: architecture.into(),
            reference_mapping,
            reference_solution,
            sections,
            seed,
        }
    }

    /// The logical circuit to give to a layout-synthesis tool.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The provably optimal number of SWAP gates.
    pub fn optimal_swaps(&self) -> usize {
        self.optimal_swaps
    }

    /// Name of the architecture the benchmark targets.
    pub fn architecture(&self) -> &str {
        &self.architecture
    }

    /// The known-optimal initial mapping used by the reference solution.
    ///
    /// Handing this mapping to a standalone router isolates routing quality
    /// from placement quality, the use-case discussed in the paper's §IV-C.
    pub fn reference_mapping(&self) -> &Mapping {
        &self.reference_mapping
    }

    /// The generator's own transpiled circuit using exactly
    /// [`optimal_swaps`](Self::optimal_swaps) SWAP gates.
    pub fn reference_solution(&self) -> &Circuit {
        &self.reference_solution
    }

    /// Per-section backbone metadata (used by the optimality certificate).
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Seed the instance was generated from (for reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Statistics of the logical circuit.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::of(&self.circuit)
    }

    /// SWAP ratio of a tool's result against the known optimum — the paper's
    /// per-circuit optimality-gap metric.
    ///
    /// Returns `None` only for the degenerate `optimal_swaps == 0` case,
    /// which the generator never produces.
    pub fn swap_ratio(&self, routed: &RoutedCircuit) -> Option<f64> {
        routed.swap_ratio(self.optimal_swaps)
    }
}

impl fmt::Display for QubikosCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QUBIKOS[{}] optimal_swaps={} gates={} (2q={}) seed={}",
            self.architecture,
            self.optimal_swaps,
            self.circuit.gate_count(),
            self.circuit.two_qubit_gate_count(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_circuit::Gate;

    fn tiny() -> QubikosCircuit {
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        let reference = Circuit::from_gates(
            3,
            [
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::swap(0, 1),
                Gate::cx(1, 2),
            ],
        );
        QubikosCircuit::new(
            circuit,
            1,
            "line-3",
            Mapping::identity(3, 3),
            reference,
            vec![Section {
                body_indices: vec![0, 1],
                special_index: 2,
                swap_physical: (0, 1),
                special_pair: (0, 2),
            }],
            42,
        )
    }

    #[test]
    fn accessors() {
        let b = tiny();
        assert_eq!(b.optimal_swaps(), 1);
        assert_eq!(b.architecture(), "line-3");
        assert_eq!(b.circuit().gate_count(), 3);
        assert_eq!(b.reference_solution().swap_count(), 1);
        assert_eq!(b.sections().len(), 1);
        assert_eq!(b.seed(), 42);
        assert_eq!(b.stats().two_qubit_gates, 3);
        assert_eq!(b.sections()[0].backbone_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn swap_ratio_uses_optimal_count() {
        let b = tiny();
        let routed = RoutedCircuit {
            physical_circuit: Circuit::from_gates(3, [Gate::swap(0, 1), Gate::swap(1, 2)]),
            initial_mapping: Mapping::identity(3, 3),
            final_mapping: Mapping::identity(3, 3),
            tool: "t".into(),
        };
        assert_eq!(b.swap_ratio(&routed), Some(2.0));
    }

    #[test]
    fn display_mentions_architecture_and_optimum() {
        let text = tiny().to_string();
        assert!(text.contains("line-3"));
        assert!(text.contains("optimal_swaps=1"));
    }
}
