//! The [`Circuit`] container.

use crate::gate::{Gate, QubitId};
use std::fmt;

/// A quantum circuit: an ordered sequence of gates over `num_qubits` program
/// qubits.
///
/// The order of the `gates` vector is the program order; the scheduling
/// semantics (which gates may run in parallel) are derived from it by the
/// [`DependencyDag`](crate::DependencyDag) and by [`Circuit::depth`].
///
/// # Example
///
/// ```
/// use qubikos_circuit::{Circuit, Gate};
///
/// let c = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::h(0)]);
/// assert_eq!(c.gate_count(), 3);
/// assert_eq!(c.two_qubit_gate_count(), 2);
/// assert_eq!(c.swap_count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates a circuit from an explicit gate sequence.
    ///
    /// # Panics
    ///
    /// Panics if any gate touches a qubit `>= num_qubits`.
    pub fn from_gates<I>(num_qubits: usize, gates: I) -> Self
    where
        I: IntoIterator<Item = Gate>,
    {
        let mut c = Circuit::new(num_qubits);
        for g in gates {
            c.push(g);
        }
        c
    }

    /// Number of program qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit `>= num_qubits`.
    pub fn push(&mut self, gate: Gate) {
        assert!(
            gate.max_qubit() < self.num_qubits,
            "gate {gate} out of range for {} qubits",
            self.num_qubits
        );
        self.gates.push(gate);
    }

    /// Inserts a gate at `index`, shifting later gates back.
    ///
    /// # Panics
    ///
    /// Panics if `index > gate_count()` or the gate is out of range.
    pub fn insert(&mut self, index: usize, gate: Gate) {
        assert!(
            gate.max_qubit() < self.num_qubits,
            "gate {gate} out of range for {} qubits",
            self.num_qubits
        );
        self.gates.insert(index, gate);
    }

    /// All gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates (including SWAPs).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_swap()).count()
    }

    /// The two-qubit gates only, in program order.
    pub fn two_qubit_gates(&self) -> Vec<Gate> {
        self.gates
            .iter()
            .copied()
            .filter(Gate::is_two_qubit)
            .collect()
    }

    /// Circuit depth under ASAP scheduling (every gate takes one time step,
    /// gates on disjoint qubits run in parallel).
    pub fn depth(&self) -> usize {
        self.scheduled_depth(|_| true)
    }

    /// Depth counting only two-qubit gates (single-qubit gates are free),
    /// the metric QUEKO-style benchmarks target.
    pub fn two_qubit_depth(&self) -> usize {
        self.scheduled_depth(Gate::is_two_qubit)
    }

    fn scheduled_depth(&self, counts: impl Fn(&Gate) -> bool) -> usize {
        let mut ready = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for gate in &self.gates {
            let qs = gate.qubits();
            let start = qs.iter().map(|&q| ready[q]).max().unwrap_or(0);
            let dur = usize::from(counts(gate));
            for &q in &qs {
                ready[q] = start + dur;
            }
            depth = depth.max(start + dur);
        }
        depth
    }

    /// Produces a new circuit with all program-qubit indices rewritten
    /// through `f` onto a register of `new_num_qubits` qubits.
    ///
    /// This is how an initial mapping `f: Q -> P` turns a logical circuit
    /// into a physical one.
    ///
    /// # Panics
    ///
    /// Panics if any remapped gate exceeds `new_num_qubits`.
    pub fn remapped(&self, new_num_qubits: usize, f: impl Fn(QubitId) -> QubitId) -> Circuit {
        let mut c = Circuit::new(new_num_qubits);
        for g in &self.gates {
            c.push(g.map_qubits(&f));
        }
        c
    }

    /// Iterates over (index, gate) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Gate)> {
        self.gates.iter().enumerate()
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit(qubits={}, gates={}, depth={})",
            self.num_qubits,
            self.gate_count(),
            self.depth()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz3() -> Circuit {
        Circuit::from_gates(3, [Gate::h(0), Gate::cx(0, 1), Gate::cx(1, 2)])
    }

    #[test]
    fn construction_and_counts() {
        let c = ghz3();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.swap_count(), 0);
        assert!(!c.is_empty());
        assert_eq!(c.two_qubit_gates().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 2));
    }

    #[test]
    fn depth_respects_parallelism() {
        // Two CX on disjoint qubit pairs run in parallel.
        let c = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(2, 3)]);
        assert_eq!(c.depth(), 1);
        // Serial chain.
        assert_eq!(ghz3().depth(), 3);
        // Empty circuit.
        assert_eq!(Circuit::new(5).depth(), 0);
    }

    #[test]
    fn two_qubit_depth_ignores_single_qubit_gates() {
        let c = Circuit::from_gates(
            3,
            [
                Gate::h(0),
                Gate::h(0),
                Gate::cx(0, 1),
                Gate::h(1),
                Gate::cx(1, 2),
            ],
        );
        assert_eq!(c.two_qubit_depth(), 2);
        assert!(c.depth() > c.two_qubit_depth());
    }

    #[test]
    fn insert_places_gate_in_order() {
        let mut c = ghz3();
        c.insert(1, Gate::z(2));
        assert_eq!(c.gates()[1], Gate::z(2));
        assert_eq!(c.gate_count(), 4);
    }

    #[test]
    fn remapped_applies_function() {
        let c = ghz3();
        let mapped = c.remapped(6, |q| q + 3);
        assert_eq!(mapped.num_qubits(), 6);
        assert_eq!(mapped.gates()[1], Gate::cx(3, 4));
    }

    #[test]
    fn extend_trait_and_iter() {
        let mut c = Circuit::new(3);
        c.extend([Gate::h(0), Gate::cx(0, 2)]);
        assert_eq!(c.gate_count(), 2);
        let indices: Vec<usize> = c.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn display_lists_gates() {
        let text = ghz3().to_string();
        assert!(text.contains("cx q[0], q[1]"));
        assert!(text.contains("qubits=3"));
    }
}
