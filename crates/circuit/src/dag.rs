//! Gate dependency DAG over two-qubit gates.
//!
//! This is the paper's `D(G2, EG)`: nodes are the two-qubit gates of a
//! circuit (single-qubit gates impose no connectivity constraint and are
//! re-inserted after layout synthesis), and there is an edge `g -> g'` when
//! `g'` is the next two-qubit gate after `g` on one of its qubits. A path
//! from `g` to `g'` therefore means `g` must execute before `g'`.

use crate::circuit::Circuit;
use crate::gate::{Gate, QubitId};
use std::collections::VecDeque;

/// Index of a node in a [`DependencyDag`] (the position of the gate within
/// the circuit's two-qubit-gate subsequence).
pub type DagNodeId = usize;

/// Dependency DAG of the two-qubit gates of a circuit.
///
/// # Example
///
/// ```
/// use qubikos_circuit::{Circuit, DependencyDag, Gate};
///
/// let c = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
/// let dag = DependencyDag::from_circuit(&c);
/// assert_eq!(dag.len(), 3);
/// assert_eq!(dag.front_layer(), vec![0]);
/// assert!(dag.has_path(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyDag {
    gates: Vec<Gate>,
    /// For each node, the circuit index of the gate it represents.
    circuit_indices: Vec<usize>,
    /// For each node, its gate's qubit pair (precomputed so routing inner
    /// loops avoid the per-access `Option` unwrap of [`Gate::qubit_pair`]).
    qubit_pairs: Vec<(QubitId, QubitId)>,
    successors: Vec<Vec<DagNodeId>>,
    predecessors: Vec<Vec<DagNodeId>>,
}

impl DependencyDag {
    /// Builds the dependency DAG of `circuit`'s two-qubit gates.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut gates = Vec::new();
        let mut circuit_indices = Vec::new();
        let mut qubit_pairs = Vec::new();
        let mut successors: Vec<Vec<DagNodeId>> = Vec::new();
        let mut predecessors: Vec<Vec<DagNodeId>> = Vec::new();
        let mut last_on_qubit: Vec<Option<DagNodeId>> = vec![None; circuit.num_qubits()];

        for (ci, gate) in circuit.iter() {
            if !gate.is_two_qubit() {
                continue;
            }
            let node = gates.len();
            gates.push(*gate);
            circuit_indices.push(ci);
            let (a, b) = gate.qubit_pair().expect("two-qubit gate");
            qubit_pairs.push((a, b));
            successors.push(Vec::new());
            predecessors.push(Vec::new());
            for q in [a, b] {
                if let Some(prev) = last_on_qubit[q] {
                    if !successors[prev].contains(&node) {
                        successors[prev].push(node);
                        predecessors[node].push(prev);
                    }
                }
                last_on_qubit[q] = Some(node);
            }
        }

        DependencyDag {
            gates,
            circuit_indices,
            qubit_pairs,
            successors,
            predecessors,
        }
    }

    /// Number of two-qubit gates (DAG nodes).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit had no two-qubit gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate represented by node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gate(&self, i: DagNodeId) -> Gate {
        self.gates[i]
    }

    /// All gates in node order (which is program order).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The qubit pair of node `i`'s gate, without the `Option` round-trip of
    /// [`Gate::qubit_pair`] (every DAG node is a two-qubit gate by
    /// construction). Routing inner loops call this per decision, so it is
    /// precomputed at construction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn qubit_pair(&self, i: DagNodeId) -> (QubitId, QubitId) {
        self.qubit_pairs[i]
    }

    /// The index of node `i`'s gate in the original circuit.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn circuit_index(&self, i: DagNodeId) -> usize {
        self.circuit_indices[i]
    }

    /// Direct successors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: DagNodeId) -> &[DagNodeId] {
        &self.successors[i]
    }

    /// Direct predecessors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn predecessors(&self, i: DagNodeId) -> &[DagNodeId] {
        &self.predecessors[i]
    }

    /// Nodes with no predecessors — the initial execution front.
    pub fn front_layer(&self) -> Vec<DagNodeId> {
        (0..self.len())
            .filter(|&i| self.predecessors[i].is_empty())
            .collect()
    }

    /// Returns `true` if there is a directed path from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn has_path(&self, a: DagNodeId, b: DagNodeId) -> bool {
        assert!(a < self.len() && b < self.len(), "node out of range");
        if a == b {
            return true;
        }
        // Node order is program order, so paths only go forward.
        if a > b {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([a]);
        seen[a] = true;
        while let Some(n) = queue.pop_front() {
            for &s in &self.successors[n] {
                if s == b {
                    return true;
                }
                if s <= b && !seen[s] {
                    seen[s] = true;
                    queue.push_back(s);
                }
            }
        }
        false
    }

    /// A topological order of the nodes (Kahn's algorithm). Because nodes are
    /// created in program order this is always `0..len()`, but the method
    /// exists so consumers do not rely on that detail.
    pub fn topological_order(&self) -> Vec<DagNodeId> {
        let mut indegree: Vec<usize> = self.predecessors.iter().map(Vec::len).collect();
        let mut queue: VecDeque<DagNodeId> =
            (0..self.len()).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &s in &self.successors[n] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.len(), "dependency graph must be acyclic");
        order
    }

    /// ASAP layering: `layers()[k]` is the set of nodes whose longest path
    /// from a front-layer node has length `k`. Gates in the same layer can
    /// execute in parallel.
    pub fn layers(&self) -> Vec<Vec<DagNodeId>> {
        let mut level = vec![0usize; self.len()];
        for &n in &self.topological_order() {
            for &p in &self.predecessors[n] {
                level[n] = level[n].max(level[p] + 1);
            }
        }
        let max_level = level.iter().copied().max().map_or(0, |m| m + 1);
        let mut layers = vec![Vec::new(); max_level];
        for (n, &l) in level.iter().enumerate() {
            layers[l].push(n);
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Circuit {
        // g0(0,1) -> g1(1,2) -> g2(2,3); g0 and g2 are independent of each other? No:
        // g1 depends on g0 (share qubit 1); g2 depends on g1 (share qubit 2).
        Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(2, 3)])
    }

    #[test]
    fn builds_expected_edges() {
        let dag = DependencyDag::from_circuit(&chain());
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.successors(1), &[2]);
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.front_layer(), vec![0]);
    }

    #[test]
    fn single_qubit_gates_are_excluded() {
        let c = Circuit::from_gates(3, [Gate::h(0), Gate::cx(0, 1), Gate::h(1), Gate::cx(1, 2)]);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.circuit_index(0), 1);
        assert_eq!(dag.circuit_index(1), 3);
    }

    #[test]
    fn parallel_gates_have_no_edge() {
        let c = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(2, 3)]);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.front_layer(), vec![0, 1]);
        assert!(dag.successors(0).is_empty());
        assert!(!dag.has_path(0, 1));
        assert!(dag.has_path(0, 0));
    }

    #[test]
    fn no_duplicate_edge_for_shared_pair() {
        // Two consecutive gates on the same qubit pair should produce one edge.
        let c = Circuit::from_gates(2, [Gate::cx(0, 1), Gate::cz(0, 1)]);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.predecessors(1), &[0]);
    }

    #[test]
    fn has_path_transitive() {
        let dag = DependencyDag::from_circuit(&chain());
        assert!(dag.has_path(0, 2));
        assert!(!dag.has_path(2, 0));
    }

    #[test]
    fn topological_order_is_program_order() {
        let dag = DependencyDag::from_circuit(&chain());
        assert_eq!(dag.topological_order(), vec![0, 1, 2]);
    }

    #[test]
    fn layers_group_parallel_gates() {
        let c = Circuit::from_gates(
            4,
            [
                Gate::cx(0, 1),
                Gate::cx(2, 3),
                Gate::cx(1, 2),
                Gate::cx(0, 3),
            ],
        );
        let dag = DependencyDag::from_circuit(&c);
        let layers = dag.layers();
        // Gate 2 (1,2) and gate 3 (0,3) both depend only on the first layer,
        // so they land in the same second layer.
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0, 1]);
        assert_eq!(layers[1], vec![2, 3]);
    }

    #[test]
    fn qubit_pair_matches_gate() {
        let dag = DependencyDag::from_circuit(&chain());
        for i in 0..dag.len() {
            assert_eq!(Some(dag.qubit_pair(i)), dag.gate(i).qubit_pair());
        }
    }

    #[test]
    fn empty_circuit_dag() {
        let dag = DependencyDag::from_circuit(&Circuit::new(3));
        assert!(dag.is_empty());
        assert!(dag.front_layer().is_empty());
        assert!(dag.layers().is_empty());
        assert!(dag.topological_order().is_empty());
    }
}
