//! The shared incremental routing kernel all four routers are built on.
//!
//! The paper's headline experiment (Figure 4) routes every QUBIKOS circuit
//! through four tools — LightSABRE (§IV-B/C), ML-QLS, QMAP and t|ket⟩ — so
//! the router inner loop is the hot path of the whole reproduction.
//! LightSABRE runs 16 trials × 3 passes here (the paper's Qiskit runs used
//! up to 1000 trials); a route that runs alone spreads the trials over idle
//! cores, one [`GreedyScratch`] per worker, while the [`RoutingProblem`] is
//! shared read-only (see [`crate::composed`]). Before this kernel existed
//! each router privately re-implemented front-layer tracking, rebuilt the
//! dependency DAG per pass per trial, and rescanned every front/extended
//! gate for every candidate SWAP. The kernel splits that machinery into
//! three reusable pieces:
//!
//! * [`RoutingProblem`] — everything derivable from the circuit alone,
//!   built **once per route call**: the forward (and, for bidirectional
//!   SABRE passes, reversed) [`DependencyDag`], the attached/trailing
//!   single-qubit gate schedule (dense `Vec` lookups, no hash maps), and
//!   per-qubit gate lists. SABRE's trial loop reuses one problem across
//!   all trials and mapping passes instead of rebuilding DAGs
//!   `trials × mapping_passes` times.
//! * [`FrontTracker`] — the execution front plus remaining-predecessor
//!   counts, and the LightSABRE extended-set BFS with recycled
//!   `seen`/queue scratch buffers instead of fresh allocations per
//!   decision.
//! * [`SwapScorer`] — an incremental scorer that maintains the running
//!   front/extended distance sums and evaluates each candidate SWAP as an
//!   O(gates-touching-the-two-qubits) delta instead of re-summing all
//!   front and extended gates per candidate, and gathers the candidates
//!   themselves from the front's incident couplers rather than scanning
//!   the whole device.
//!
//! On top of them, [`policy`] holds one type per routing-policy axis —
//! [`LookaheadSpec`], [`DecaySpec`], [`TieBreakerSpec`], [`PlacementSpec`]
//! — and the one greedy pass, [`run_greedy_pass`], that matches on them.
//!
//! Which composition reproduces what: every tool is a
//! [`RouterSpec`](crate::RouterSpec) run by the one
//! [`ComposedRouter`](crate::ComposedRouter).
//! [`RouterSpec::lightsabre`](crate::RouterSpec::lightsabre) is the paper's
//! LightSABRE subject (§IV-C case study, lookahead-decay ablation);
//! [`RouterSpec::tket`](crate::RouterSpec::tket) the t|ket⟩-style greedy
//! baseline; [`RouterSpec::qmap`](crate::RouterSpec::qmap) the QMAP-style
//! per-layer search; [`RouterSpec::ml_qls`](crate::RouterSpec::ml_qls) the
//! ML-QLS-style multilevel placement (all compared in Figure 4). New router
//! variants (ablations, additional tools) are new policy choices on this
//! kernel, not new routers.

pub mod front;
pub mod policy;
pub mod score;
pub mod scratch;

pub use front::FrontTracker;
pub use policy::{
    run_greedy_pass, DecaySpec, GreedyPolicies, GreedyScratch, LookaheadSpec, PlacementSpec,
    TieBreakerSpec,
};
pub use score::SwapScorer;
pub use scratch::{ShadowCounts, StampSet};

use crate::mapping::Mapping;
use crate::router::RouteError;
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, DagNodeId, DependencyDag, Gate, QubitId};
use qubikos_graph::NodeId;
use std::cell::Cell;

thread_local! {
    /// Number of [`ProblemView`]s (hence [`DependencyDag`] constructions)
    /// built on this thread — the regression counter behind the
    /// build-DAGs-once-per-route-call guarantee.
    static DAG_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// Number of dependency-DAG constructions performed by the kernel on the
/// calling thread since it started. Routing is synchronous, so the delta
/// across a `route` call counts exactly its DAG builds; tests use this to
/// pin the builds-once guarantee.
pub fn dag_builds_on_this_thread() -> usize {
    DAG_BUILDS.with(Cell::get)
}

/// One directed view of a routing problem: the dependency DAG of a circuit
/// plus its single-qubit gate schedule and per-qubit gate lists.
#[derive(Debug, Clone)]
pub struct ProblemView {
    dag: DependencyDag,
    /// Single-qubit gates to emit immediately before each DAG node.
    attached: Vec<Vec<Gate>>,
    /// Single-qubit gates after the last two-qubit gate on their qubit.
    trailing: Vec<Gate>,
    /// `gates_on_qubit[q]` = DAG nodes touching program qubit `q`, in
    /// program order.
    gates_on_qubit: Vec<Vec<DagNodeId>>,
}

impl ProblemView {
    fn build(circuit: &Circuit) -> Self {
        DAG_BUILDS.with(|c| c.set(c.get() + 1));
        let dag = DependencyDag::from_circuit(circuit);
        let (attached, trailing) = attach_single_qubit_gates(circuit, &dag);
        let mut gates_on_qubit = vec![Vec::new(); circuit.num_qubits()];
        for node in 0..dag.len() {
            let (a, b) = dag.qubit_pair(node);
            gates_on_qubit[a].push(node);
            gates_on_qubit[b].push(node);
        }
        ProblemView {
            dag,
            attached,
            trailing,
            gates_on_qubit,
        }
    }

    /// The dependency DAG of this view's circuit.
    pub fn dag(&self) -> &DependencyDag {
        &self.dag
    }

    /// Single-qubit gates that must be emitted immediately before `node`.
    pub fn attached(&self, node: DagNodeId) -> &[Gate] {
        &self.attached[node]
    }

    /// Single-qubit gates after the last two-qubit gate on their qubit.
    pub fn trailing(&self) -> &[Gate] {
        &self.trailing
    }

    /// The DAG nodes touching program qubit `q`, in program order.
    pub fn gates_on_qubit(&self, q: QubitId) -> &[DagNodeId] {
        &self.gates_on_qubit[q]
    }

    /// Emits `node`'s attached single-qubit gates followed by the two-qubit
    /// gate itself, all translated to physical qubits under `mapping`.
    pub fn emit(&self, node: DagNodeId, mapping: &Mapping, out: &mut Circuit) {
        for gate in &self.attached[node] {
            out.push(gate.map_qubits(|q| mapping.physical(q)));
        }
        out.push(self.dag.gate(node).map_qubits(|q| mapping.physical(q)));
    }

    /// Emits the trailing single-qubit gates under the final `mapping`.
    pub fn emit_trailing(&self, mapping: &Mapping, out: &mut Circuit) {
        for gate in &self.trailing {
            out.push(gate.map_qubits(|q| mapping.physical(q)));
        }
    }
}

/// The circuit-derived state of one route call, built once and shared by
/// every trial and mapping pass (see the module docs).
#[derive(Debug, Clone)]
pub struct RoutingProblem {
    forward: ProblemView,
    /// Present only for bidirectional problems (SABRE's backward passes).
    reversed: Option<ProblemView>,
}

impl RoutingProblem {
    /// A problem with only the forward view — sufficient for single-pass
    /// routers (t|ket⟩, QMAP, and SABRE with a caller-supplied mapping).
    pub fn forward_only(circuit: &Circuit) -> Self {
        RoutingProblem {
            forward: ProblemView::build(circuit),
            reversed: None,
        }
    }

    /// A problem with both the forward and the reversed view, for routers
    /// running forward–backward mapping passes (SABRE).
    pub fn bidirectional(circuit: &Circuit) -> Self {
        let mut gates: Vec<Gate> = circuit.gates().to_vec();
        gates.reverse();
        let reversed_circuit = Circuit::from_gates(circuit.num_qubits(), gates);
        RoutingProblem {
            forward: ProblemView::build(circuit),
            reversed: Some(ProblemView::build(&reversed_circuit)),
        }
    }

    /// The forward view.
    pub fn forward(&self) -> &ProblemView {
        &self.forward
    }

    /// The reversed view.
    ///
    /// # Panics
    ///
    /// Panics if the problem was built with [`Self::forward_only`].
    pub fn reversed(&self) -> &ProblemView {
        self.reversed
            .as_ref()
            .expect("reversed view requires RoutingProblem::bidirectional")
    }
}

/// Rejects circuits with more program qubits than the device has physical
/// qubits — the fit check shared by every router.
///
/// # Errors
///
/// Returns [`RouteError::TooManyQubits`] when the circuit does not fit.
pub fn check_fit(circuit: &Circuit, arch: &Architecture) -> Result<(), RouteError> {
    if circuit.num_qubits() > arch.num_qubits() {
        Err(RouteError::TooManyQubits {
            program: circuit.num_qubits(),
            physical: arch.num_qubits(),
        })
    } else {
        Ok(())
    }
}

/// Walks program qubit `a` towards program qubit `b` along a shortest path,
/// applying each SWAP to `mapping` and reporting it through `on_swap`, until
/// the two are on coupled physical qubits — the release-valve / stall
/// fallback shared by the greedy routers.
pub fn force_adjacent(
    arch: &Architecture,
    mapping: &mut Mapping,
    a: QubitId,
    b: QubitId,
    mut on_swap: impl FnMut(NodeId, NodeId),
) {
    loop {
        let pa = mapping.physical(a);
        let pb = mapping.physical(b);
        if arch.are_coupled(pa, pb) {
            break;
        }
        // The walk's destination is fixed, so one distance row answers every
        // neighbour comparison along the whole path.
        let to_pb = arch.distance_row(pb);
        let next = arch
            .neighbors(pa)
            .iter()
            .copied()
            .min_by_key(|&n| to_pb[n])
            .expect("connected architecture");
        on_swap(pa, next);
        mapping.apply_swap_physical(pa, next);
    }
}

/// Associates every single-qubit gate with the two-qubit DAG node it must
/// precede (the next two-qubit gate on either of that gate's qubits); gates
/// after the last two-qubit gate on their qubit are returned separately as
/// trailing gates. The circuit-index → DAG-node lookup is a dense `Vec`
/// (circuit indices are bounded by the gate count).
fn attach_single_qubit_gates(
    circuit: &Circuit,
    dag: &DependencyDag,
) -> (Vec<Vec<Gate>>, Vec<Gate>) {
    let mut attached = vec![Vec::new(); dag.len()];
    let mut node_of_circuit_index = vec![usize::MAX; circuit.gate_count()];
    for node in 0..dag.len() {
        node_of_circuit_index[dag.circuit_index(node)] = node;
    }
    let mut pending: Vec<Gate> = Vec::new();
    for (ci, gate) in circuit.iter() {
        if gate.is_two_qubit() {
            let node = node_of_circuit_index[ci];
            let (a, b) = dag.qubit_pair(node);
            pending.retain(|g| {
                if g.acts_on(a) || g.acts_on(b) {
                    attached[node].push(*g);
                    false
                } else {
                    true
                }
            });
        } else {
            pending.push(*gate);
        }
    }
    (attached, pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;

    fn sample_circuit() -> Circuit {
        Circuit::from_gates(
            3,
            [
                Gate::h(0),
                Gate::cx(0, 2),
                Gate::t(2),
                Gate::cx(0, 1),
                Gate::z(1),
            ],
        )
    }

    #[test]
    fn forward_view_attaches_single_qubit_gates() {
        let problem = RoutingProblem::forward_only(&sample_circuit());
        let view = problem.forward();
        assert_eq!(view.dag().len(), 2);
        // h(0) precedes cx(0,2); t(2) precedes... nothing after on qubit 2,
        // but it comes before cx(0,1)? t acts on qubit 2, cx(0,1) acts on
        // 0 and 1, so t(2) is trailing; z(1) is trailing too.
        assert_eq!(view.attached(0), &[Gate::h(0)]);
        assert!(view.attached(1).is_empty());
        assert_eq!(view.trailing(), &[Gate::t(2), Gate::z(1)]);
    }

    #[test]
    fn gates_on_qubit_lists_program_order() {
        let problem = RoutingProblem::forward_only(&sample_circuit());
        let view = problem.forward();
        assert_eq!(view.gates_on_qubit(0), &[0, 1]);
        assert_eq!(view.gates_on_qubit(1), &[1]);
        assert_eq!(view.gates_on_qubit(2), &[0]);
    }

    #[test]
    fn bidirectional_builds_reversed_dag() {
        let problem = RoutingProblem::bidirectional(&sample_circuit());
        assert_eq!(problem.reversed().dag().len(), 2);
        // Reversed program order: cx(0,1) first, then cx(0,2).
        assert_eq!(problem.reversed().dag().qubit_pair(0), (0, 1));
        assert_eq!(problem.reversed().dag().qubit_pair(1), (0, 2));
    }

    #[test]
    #[should_panic(expected = "bidirectional")]
    fn forward_only_has_no_reversed_view() {
        let problem = RoutingProblem::forward_only(&sample_circuit());
        let _ = problem.reversed();
    }

    #[test]
    fn dag_build_counter_counts_views() {
        let before = dag_builds_on_this_thread();
        let _ = RoutingProblem::forward_only(&sample_circuit());
        assert_eq!(dag_builds_on_this_thread(), before + 1);
        let _ = RoutingProblem::bidirectional(&sample_circuit());
        assert_eq!(dag_builds_on_this_thread(), before + 3);
    }

    #[test]
    fn check_fit_accepts_and_rejects() {
        let arch = devices::line(3);
        assert!(check_fit(&Circuit::new(3), &arch).is_ok());
        assert!(matches!(
            check_fit(&Circuit::new(4), &arch),
            Err(RouteError::TooManyQubits {
                program: 4,
                physical: 3
            })
        ));
    }

    #[test]
    fn force_adjacent_walks_a_shortest_path() {
        let arch = devices::line(5);
        let mut mapping = Mapping::identity(5, 5);
        let mut swaps = Vec::new();
        force_adjacent(&arch, &mut mapping, 0, 4, |u, v| swaps.push((u, v)));
        assert_eq!(swaps, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(arch.are_coupled(mapping.physical(0), mapping.physical(4)));
    }

    #[test]
    fn emit_translates_to_physical_qubits() {
        let problem = RoutingProblem::forward_only(&sample_circuit());
        let mapping = Mapping::from_prog_to_phys(vec![3, 1, 0], 4);
        let mut out = Circuit::new(4);
        problem.forward().emit(0, &mapping, &mut out);
        assert_eq!(out.gates(), &[Gate::h(3), Gate::cx(3, 0)]);
        let mut tail = Circuit::new(4);
        problem.forward().emit_trailing(&mapping, &mut tail);
        assert_eq!(tail.gates(), &[Gate::t(0), Gate::z(1)]);
    }
}
