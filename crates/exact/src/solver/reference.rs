//! The pre-refactor clone-per-branch DFS, kept verbatim as a baseline.
//!
//! This module exists for one consumer only: the **differential tests**
//! (`tests/differential.rs`), which check that the optimized core in
//! [`super`] (in-place do/undo state, transposition table, SWAP
//! canonicalization, packing bound, window chain) reports identical
//! `optimal_swaps`/`proven` answers on randomized and generated instances.
//! Its deepening starts at the degree-surplus bound alone: no Lemma-1
//! reasoning enters it, so it also checks the window chain's admissibility.
//!
//! Do not use it in pipelines: it clones four `Vec`s per search node and
//! rescans the whole DAG for ready gates, which is exactly what the rewrite
//! removed. No optimization applies here — every difference from the
//! optimized core's search *order* is intentional, but the *answers* must
//! agree, which is what makes it a meaningful oracle.

use crate::lower_bound::degree_surplus_lower_bound;
use crate::solver::{ExactConfig, ExactResult, QueryOutcome, QueryStats};
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, DependencyDag};
use qubikos_graph::NodeId;
use std::time::Instant;

/// The pre-refactor exhaustive solver (see module docs). Same configuration
/// and result contract as [`crate::ExactSolver`], modulo node counts: the
/// naive DFS counts budget-aborted probes slightly past the budget instead
/// of hard-stopping at it.
#[derive(Debug, Clone, Default)]
pub struct ReferenceSolver {
    config: ExactConfig,
}

/// Answer of a single bounded feasibility query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feasibility {
    Feasible,
    Infeasible,
    Unknown,
}

impl ReferenceSolver {
    /// Creates a reference solver with the given configuration.
    pub fn new(config: ExactConfig) -> Self {
        ReferenceSolver { config }
    }

    /// Finds the minimum SWAP count for `circuit` on `arch` with the naive
    /// clone-per-branch search.
    ///
    /// # Panics
    ///
    /// Panics if the circuit uses more qubits than the device provides.
    pub fn solve(&self, circuit: &Circuit, arch: &Architecture) -> ExactResult {
        assert!(
            circuit.num_qubits() <= arch.num_qubits(),
            "circuit does not fit the device"
        );
        let solve_start = Instant::now();
        let mut queries = Vec::new();
        let mut nodes = 0u64;
        let start = degree_surplus_lower_bound(circuit, arch);
        for k in start..=self.config.max_swaps {
            let query_start = Instant::now();
            let mut search = Search::new(circuit, arch, self.config.node_budget);
            let feasibility = search.feasible_with(k);
            nodes += search.nodes;
            queries.push(QueryStats {
                swaps: k,
                nodes: search.nodes,
                wall_micros: query_start.elapsed().as_micros() as u64,
                outcome: match feasibility {
                    Feasibility::Feasible => QueryOutcome::Feasible,
                    Feasibility::Infeasible => QueryOutcome::Infeasible,
                    Feasibility::Unknown => QueryOutcome::BudgetExhausted,
                },
            });
            match feasibility {
                Feasibility::Feasible => {
                    return ExactResult {
                        optimal_swaps: Some(k),
                        proven: true,
                        nodes_explored: nodes,
                        queries,
                        wall_micros: solve_start.elapsed().as_micros() as u64,
                    };
                }
                Feasibility::Infeasible => continue,
                Feasibility::Unknown => break,
            }
        }
        ExactResult {
            optimal_swaps: None,
            proven: false,
            nodes_explored: nodes,
            queries,
            wall_micros: solve_start.elapsed().as_micros() as u64,
        }
    }
}

/// DFS state for one feasibility query.
struct Search<'a> {
    arch: &'a Architecture,
    dag: DependencyDag,
    budget: u64,
    nodes: u64,
}

#[derive(Clone)]
struct State {
    /// Program qubit → physical location (usize::MAX when not yet placed).
    position: Vec<NodeId>,
    /// Physical location → program qubit (usize::MAX when empty).
    occupant: Vec<NodeId>,
    /// Whether each DAG node has been executed.
    executed: Vec<bool>,
    /// Remaining unexecuted predecessors per DAG node.
    remaining_preds: Vec<usize>,
    /// Number of DAG nodes executed so far.
    executed_count: usize,
}

const UNPLACED: NodeId = usize::MAX;

impl<'a> Search<'a> {
    fn new(circuit: &Circuit, arch: &'a Architecture, budget: u64) -> Self {
        let dag = DependencyDag::from_circuit(circuit);
        Search {
            arch,
            dag,
            budget,
            nodes: 0,
        }
    }

    fn feasible_with(&mut self, max_swaps: usize) -> Feasibility {
        if self.dag.is_empty() {
            return Feasibility::Feasible;
        }
        let num_program = self
            .dag
            .gates()
            .iter()
            .map(|g| g.max_qubit() + 1)
            .max()
            .unwrap_or(0);
        let state = State {
            position: vec![UNPLACED; num_program],
            occupant: vec![UNPLACED; self.arch.num_qubits()],
            executed: vec![false; self.dag.len()],
            remaining_preds: (0..self.dag.len())
                .map(|i| self.dag.predecessors(i).len())
                .collect(),
            executed_count: 0,
        };
        self.dfs(state, max_swaps)
    }

    fn dfs(&mut self, mut state: State, swaps_left: usize) -> Feasibility {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Feasibility::Unknown;
        }
        self.greedy_execute(&mut state);
        if state.executed_count == self.dag.len() {
            return Feasibility::Feasible;
        }
        if self.prune(&state, swaps_left) {
            return Feasibility::Infeasible;
        }

        let mut saw_unknown = false;

        // Branch 1: execute a ready gate by placing its unplaced qubit(s).
        for node in self.ready_nodes(&state) {
            let (a, b) = self.dag.gate(node).qubit_pair().expect("two-qubit gate");
            let (pa, pb) = (state.position[a], state.position[b]);
            match (pa == UNPLACED, pb == UNPLACED) {
                (false, false) => continue, // needs SWAPs, not placement
                (true, false) => {
                    for &loc in self.arch.neighbors(pb) {
                        if state.occupant[loc] != UNPLACED {
                            continue;
                        }
                        let mut next = state.clone();
                        place(&mut next, a, loc);
                        execute(&mut next, &self.dag, node);
                        match self.dfs(next, swaps_left) {
                            Feasibility::Feasible => return Feasibility::Feasible,
                            Feasibility::Unknown => saw_unknown = true,
                            Feasibility::Infeasible => {}
                        }
                    }
                }
                (false, true) => {
                    for &loc in self.arch.neighbors(pa) {
                        if state.occupant[loc] != UNPLACED {
                            continue;
                        }
                        let mut next = state.clone();
                        place(&mut next, b, loc);
                        execute(&mut next, &self.dag, node);
                        match self.dfs(next, swaps_left) {
                            Feasibility::Feasible => return Feasibility::Feasible,
                            Feasibility::Unknown => saw_unknown = true,
                            Feasibility::Infeasible => {}
                        }
                    }
                }
                (true, true) => {
                    for edge in self.arch.couplers() {
                        for (la, lb) in [(edge.u, edge.v), (edge.v, edge.u)] {
                            if state.occupant[la] != UNPLACED || state.occupant[lb] != UNPLACED {
                                continue;
                            }
                            let mut next = state.clone();
                            place(&mut next, a, la);
                            place(&mut next, b, lb);
                            execute(&mut next, &self.dag, node);
                            match self.dfs(next, swaps_left) {
                                Feasibility::Feasible => return Feasibility::Feasible,
                                Feasibility::Unknown => saw_unknown = true,
                                Feasibility::Infeasible => {}
                            }
                        }
                    }
                }
            }
        }

        // Branch 2: spend a SWAP on any coupler touching a placed qubit.
        if swaps_left > 0 {
            for edge in self.arch.couplers() {
                if state.occupant[edge.u] == UNPLACED && state.occupant[edge.v] == UNPLACED {
                    continue;
                }
                let mut next = state.clone();
                apply_swap(&mut next, edge.u, edge.v);
                match self.dfs(next, swaps_left - 1) {
                    Feasibility::Feasible => return Feasibility::Feasible,
                    Feasibility::Unknown => saw_unknown = true,
                    Feasibility::Infeasible => {}
                }
            }
        }

        if saw_unknown {
            Feasibility::Unknown
        } else {
            Feasibility::Infeasible
        }
    }

    /// Executes every ready gate whose qubits are placed and adjacent, repeatedly.
    fn greedy_execute(&self, state: &mut State) {
        loop {
            let mut progressed = false;
            for node in 0..self.dag.len() {
                if state.executed[node] || state.remaining_preds[node] != 0 {
                    continue;
                }
                let (a, b) = self.dag.gate(node).qubit_pair().expect("two-qubit gate");
                let (pa, pb) = (state.position[a], state.position[b]);
                if pa != UNPLACED && pb != UNPLACED && self.arch.are_coupled(pa, pb) {
                    execute(state, &self.dag, node);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Ready (all predecessors executed) but unexecuted DAG nodes.
    fn ready_nodes(&self, state: &State) -> Vec<usize> {
        (0..self.dag.len())
            .filter(|&n| !state.executed[n] && state.remaining_preds[n] == 0)
            .collect()
    }

    /// Admissible dead-end check: some unexecuted gate already has both
    /// qubits placed at a distance no SWAP budget can close.
    fn prune(&self, state: &State, swaps_left: usize) -> bool {
        for node in 0..self.dag.len() {
            if state.executed[node] {
                continue;
            }
            let (a, b) = self.dag.gate(node).qubit_pair().expect("two-qubit gate");
            let (pa, pb) = (state.position[a], state.position[b]);
            if pa != UNPLACED && pb != UNPLACED {
                let needed = self.arch.distance(pa, pb).saturating_sub(1);
                if needed > swaps_left {
                    return true;
                }
            }
        }
        false
    }
}

fn place(state: &mut State, program: NodeId, location: NodeId) {
    debug_assert_eq!(state.position[program], UNPLACED);
    debug_assert_eq!(state.occupant[location], UNPLACED);
    state.position[program] = location;
    state.occupant[location] = program;
}

fn execute(state: &mut State, dag: &DependencyDag, node: usize) {
    debug_assert!(!state.executed[node]);
    state.executed[node] = true;
    state.executed_count += 1;
    for &s in dag.successors(node) {
        state.remaining_preds[s] -= 1;
    }
}

fn apply_swap(state: &mut State, a: NodeId, b: NodeId) {
    let qa = state.occupant[a];
    let qb = state.occupant[b];
    state.occupant[a] = qb;
    state.occupant[b] = qa;
    if qa != UNPLACED {
        state.position[qa] = b;
    }
    if qb != UNPLACED {
        state.position[qb] = a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;

    #[test]
    fn reference_still_solves_the_triangle() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        let result = ReferenceSolver::default().solve(&circuit, &arch);
        assert_eq!(result.optimal_swaps, Some(1));
        assert!(result.proven);
        assert!(result.nodes_explored > 0);
    }
}
