//! Admissible in-search lower bound on the SWAPs still required.
//!
//! The pre-refactor prune only took the *maximum* per-gate deficit
//! `distance − 1` over pending gates with both qubits placed. This module
//! strengthens it with a packing argument over gates with pairwise-disjoint
//! qubit supports:
//!
//! * executing gate `g` requires its qubits at distance 1, so `g` needs at
//!   least `d(g) − 1` distance reduction, and a single SWAP reduces `d(g)`
//!   by at most 1 (a SWAP moving *both* of `g`'s qubits just exchanges them,
//!   changing nothing);
//! * a SWAP moves exactly two program qubits, and over a family of gates
//!   with pairwise-disjoint supports each moved qubit belongs to at most one
//!   family member — so one SWAP reduces the family's total deficit
//!   `D = Σ (d(g) − 1)` by at most 2;
//! * hence at least `⌈D/2⌉` SWAPs are needed, on top of the per-gate maximum
//!   (executions never move qubits, so distances change only through SWAPs).
//!
//! Every *unexecuted* gate participates, ready or not: it must reach
//! distance 1 eventually, whatever its dependencies. That makes the bound
//! invariant under greedy execution (greedy only executes distance-1 gates,
//! which carry deficit 0), which is what lets the search evaluate it on a
//! child *before* recursing — a bound-refuted child is never expanded at
//! all.
//!
//! The family is chosen greedily by descending deficit, which maximises the
//! packed sum in this small regime and keeps the check O(pending·log) per
//! candidate move with zero allocations (scratch buffers are reused across
//! the search).
//!
//! # Refuting placement children before they are built
//!
//! Every search node's state passes [`exceeds_swap_budget`] at its own
//! SWAP budget: the root has nothing placed, every child is checked before
//! it becomes a node, and greedy execution only removes zero-deficit gates.
//! A placement child keeps its parent's budget and changes the pending set
//! only by the gates between a newly placed qubit and an already placed
//! partner (no gate on an unplaced qubit can have executed). So the
//! partners' locations decide it before any state is mutated
//! ([`placement_verdict`]): a new deficit over the budget refutes the child
//! outright; no new positive deficit leaves the pending deficits exactly the
//! parent's, which passed; only the rest needs the full check.

use super::state::{SearchState, UNPLACED};
use qubikos_arch::Architecture;
use qubikos_circuit::DependencyDag;

/// Reusable scratch for [`exceeds_swap_budget`].
pub(crate) struct PruneScratch {
    /// Pending both-placed gates as `(deficit, qubit_a, qubit_b)`.
    pending: Vec<(usize, usize, usize)>,
    /// Program qubits already claimed by the greedy disjoint family.
    claimed: Vec<bool>,
    /// Qubits to unclaim after the scan (avoids clearing the whole vector).
    touched: Vec<usize>,
}

impl PruneScratch {
    /// Creates scratch for a program with `num_program` qubits.
    pub(crate) fn new(num_program: usize) -> Self {
        PruneScratch {
            pending: Vec::with_capacity(16),
            claimed: vec![false; num_program],
            touched: Vec::with_capacity(8),
        }
    }
}

/// Returns `true` when the admissible lower bound on the SWAPs needed to
/// finish the circuit from `state` — the maximum of the per-gate deficit and
/// the disjoint-family packing bound `⌈D/2⌉` — provably exceeds `budget`,
/// exiting as early as a single gate's deficit settles the answer.
pub(crate) fn exceeds_swap_budget(
    scratch: &mut PruneScratch,
    state: &SearchState,
    dag: &DependencyDag,
    arch: &Architecture,
    budget: usize,
) -> bool {
    scratch.pending.clear();
    for node in 0..dag.len() {
        if state.is_executed(node) {
            continue;
        }
        let (a, b) = dag.qubit_pair(node);
        let (pa, pb) = (state.position(a), state.position(b));
        if pa == UNPLACED || pb == UNPLACED {
            continue;
        }
        let deficit = arch.distance(pa, pb).saturating_sub(1);
        if deficit > budget {
            return true;
        }
        if deficit > 0 {
            scratch.pending.push((deficit, a, b));
        }
    }
    if scratch.pending.len() < 2 {
        return false; // per-gate maximum already known ≤ budget
    }

    // Greedy packing: largest deficits first, skipping gates whose support
    // intersects an already-claimed qubit. Sorting by (deficit desc, qubits)
    // keeps the choice — and therefore `nodes_explored` — deterministic.
    scratch
        .pending
        .sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    let mut packed_sum = 0usize;
    for &(deficit, a, b) in &scratch.pending {
        if scratch.claimed[a] || scratch.claimed[b] {
            continue;
        }
        scratch.claimed[a] = true;
        scratch.claimed[b] = true;
        scratch.touched.push(a);
        scratch.touched.push(b);
        packed_sum += deficit;
    }
    for q in scratch.touched.drain(..) {
        scratch.claimed[q] = false;
    }
    packed_sum.div_ceil(2) > budget
}

/// What the packing bound says about a placement child, decided from the
/// gates the placement touches before the move is made (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlacementVerdict {
    /// A new gate's deficit alone exceeds the budget.
    Refuted,
    /// No new gate carries a positive deficit: the child's pending deficits
    /// are its parent's, so it passes wherever the parent passed.
    Unchanged,
    /// New positive deficits within budget: [`exceeds_swap_budget`] decides.
    NeedsFullCheck,
}

/// Largest deficit `distance − 1` between `location` and the locations of
/// a qubit's placed partners (0 when there are none).
#[inline]
pub(crate) fn new_deficit(arch: &Architecture, location: usize, partners: &[usize]) -> usize {
    partners
        .iter()
        .map(|&p| arch.distance(location, p).saturating_sub(1))
        .max()
        .unwrap_or(0)
}

/// Classifies a placement child by the largest deficit it adds.
#[inline]
pub(crate) fn placement_verdict(added_deficit: usize, budget: usize) -> PlacementVerdict {
    if added_deficit > budget {
        PlacementVerdict::Refuted
    } else if added_deficit == 0 {
        PlacementVerdict::Unchanged
    } else {
        PlacementVerdict::NeedsFullCheck
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::dedup::ZobristKeys;
    use crate::solver::SearchCore;
    use proptest::prelude::*;
    use qubikos_arch::devices;
    use qubikos_circuit::{Circuit, Gate};

    /// The exact bound implied by [`exceeds_swap_budget`]: the smallest
    /// budget the state does *not* exceed.
    fn bound_for(circuit: &Circuit, placements: &[(usize, usize)], arch: &Architecture) -> usize {
        let dag = DependencyDag::from_circuit(circuit);
        let num_program = circuit.num_qubits();
        let keys = ZobristKeys::new(
            arch.num_qubits(),
            arch.num_couplers(),
            num_program,
            dag.len(),
        );
        let mut state = SearchState::new(&dag, arch.num_qubits(), num_program);
        for &(q, loc) in placements {
            state.place(&keys, q, loc);
        }
        let mut scratch = PruneScratch::new(num_program);
        (0..)
            .find(|&b| !exceeds_swap_budget(&mut scratch, &state, &dag, arch, b))
            .expect("bound is finite")
    }

    #[test]
    fn unplaced_gates_contribute_nothing() {
        let arch = devices::line(4);
        let c = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(2, 3)]);
        assert_eq!(bound_for(&c, &[], &arch), 0);
    }

    #[test]
    fn single_gate_bound_is_distance_minus_one() {
        let arch = devices::line(5);
        let c = Circuit::from_gates(2, [Gate::cx(0, 1)]);
        // Qubits at the line's ends: distance 4 → at least 3 SWAPs.
        assert_eq!(bound_for(&c, &[(0, 0), (1, 4)], &arch), 3);
    }

    #[test]
    fn disjoint_family_beats_the_per_gate_max() {
        // Three independent gates, each with deficit 1, on a 3×3 grid:
        // per-gate max is 1 but ⌈3/2⌉ = 2 SWAPs are provably needed.
        let arch = devices::grid(3, 3);
        let c = Circuit::from_gates(6, [Gate::cx(0, 1), Gate::cx(2, 3), Gate::cx(4, 5)]);
        // Grid locations: rows 0-2 are (0,1,2), (3,4,5), (6,7,8). Pairs at
        // distance 2: (0,2), (3,5), (6,8).
        let placements = [(0, 0), (1, 2), (2, 3), (3, 5), (4, 6), (5, 8)];
        assert_eq!(bound_for(&c, &placements, &arch), 2);
    }

    #[test]
    fn overlapping_supports_fall_back_to_the_max() {
        // Two pending gates sharing qubit 1 cannot both join the family.
        let arch = devices::line(5);
        let c = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2)]);
        let placements = [(0, 0), (1, 2), (2, 4)];
        assert_eq!(bound_for(&c, &placements, &arch), 1);
    }

    #[test]
    fn non_ready_gates_still_count() {
        // A dependency chain: the second gate is not ready, but its placed
        // distance still lower-bounds the total.
        let arch = devices::line(5);
        let c = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(0, 2)]);
        let placements = [(0, 0), (1, 1), (2, 4)];
        // Gate (0,1) is executable (deficit 0); gate (0,2) sits at distance
        // 4 → 3 SWAPs, even though it is behind the first gate in the DAG.
        assert_eq!(bound_for(&c, &placements, &arch), 3);
    }

    /// Locations of the placed qubits that share a gate with `q`, read
    /// straight from the circuit (with repeats).
    fn placed_partner_locations(dag: &DependencyDag, state: &SearchState, q: usize) -> Vec<usize> {
        (0..dag.len())
            .filter_map(|node| match dag.qubit_pair(node) {
                (a, b) if a == q => Some(b),
                (a, b) if b == q => Some(a),
                _ => None,
            })
            .map(|p| state.position(p))
            .filter(|&loc| loc != UNPLACED)
            .collect()
    }

    /// The positive deficits `(node, deficit)` of every unexecuted gate with
    /// both qubits placed: what [`exceeds_swap_budget`] packs.
    fn pending_deficits(
        dag: &DependencyDag,
        state: &SearchState,
        arch: &Architecture,
    ) -> Vec<(usize, usize)> {
        (0..dag.len())
            .filter(|&node| !state.is_executed(node))
            .filter_map(|node| {
                let (a, b) = dag.qubit_pair(node);
                let (pa, pb) = (state.position(a), state.position(b));
                (pa != UNPLACED && pb != UNPLACED)
                    .then(|| (node, arch.distance(pa, pb) - 1))
                    .filter(|&(_, deficit)| deficit > 0)
            })
            .collect()
    }

    /// Program qubits in the property test: enough for three disjoint
    /// pending gates next to the one being placed, so packing matters.
    const QUBITS: usize = 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For every placement child of a random partial placement, the
        /// verdict read before the move agrees with [`exceeds_swap_budget`]
        /// run after it. It also checks the invariants the shortcut rests
        /// on: greedy execution leaves the pending deficits unchanged, and a
        /// child judged `Unchanged` has exactly its parent's pending
        /// deficits.
        #[test]
        fn placement_verdicts_agree_with_the_full_check(
            pairs in proptest::collection::vec((0..QUBITS, 0..QUBITS), 1..18),
            slots in proptest::collection::vec(0..12usize, QUBITS..QUBITS + 1),
            device in 0..2usize,
            budget in 0..4usize,
        ) {
            let arch = if device == 0 { devices::grid(3, 3) } else { devices::line(9) };
            let gates: Vec<Gate> = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Gate::cx(a, b))
                .collect();
            let circuit = Circuit::from_gates(QUBITS, gates);
            let mut core = SearchCore::new(&circuit, &arch, u64::MAX);
            // Slots past the device's 9 locations leave the qubit unplaced;
            // the search knows only the qubits its gates use.
            for (q, &loc) in slots.iter().enumerate().take(core.partners.len()) {
                if loc < arch.num_qubits() && core.state.occupant(loc) == UNPLACED {
                    core.state.place(&core.keys, q, loc);
                }
            }
            let case = format!("{} at budget {budget}, {circuit:?}, slots {slots:?}", arch.name());
            let before_greedy = pending_deficits(&core.dag, &core.state, &arch);
            core.greedy_execute();
            let SearchCore { dag, keys, state, scratch, .. } = &mut core;
            let parent_pending = pending_deficits(dag, state, &arch);
            prop_assert_eq!(&parent_pending, &before_greedy, "greedy execution moved a deficit: {}", case);
            let parent = exceeds_swap_budget(scratch, state, dag, &arch, budget);

            let couplers: Vec<_> = arch.couplers().collect();
            for i in 0..state.ready_len() {
                let node = state.ready_at(i);
                let (a, b) = dag.qubit_pair(node);
                let (pa, pb) = (state.position(a), state.position(b));
                let children: Vec<Vec<(usize, usize)>> = match (pa == UNPLACED, pb == UNPLACED) {
                    (false, false) => continue,
                    (true, false) => arch.neighbors(pb).iter().map(|&l| vec![(a, l)]).collect(),
                    (false, true) => arch.neighbors(pa).iter().map(|&l| vec![(b, l)]).collect(),
                    (true, true) => couplers
                        .iter()
                        .flat_map(|e| [vec![(a, e.u), (b, e.v)], vec![(a, e.v), (b, e.u)]])
                        .collect(),
                };
                for placements in children {
                    if placements.iter().any(|&(_, loc)| state.occupant(loc) != UNPLACED) {
                        continue;
                    }
                    let added = placements
                        .iter()
                        .map(|&(q, loc)| {
                            new_deficit(&arch, loc, &placed_partner_locations(dag, state, q))
                        })
                        .max()
                        .expect("at least one placement");
                    let verdict = placement_verdict(added, budget);
                    let mark = state.mark();
                    for &(q, loc) in &placements {
                        state.place(keys, q, loc);
                    }
                    state.execute(keys, dag, node);
                    let child = exceeds_swap_budget(scratch, state, dag, &arch, budget);
                    let child_pending = pending_deficits(dag, state, &arch);
                    state.rewind_to(keys, dag, mark);
                    match verdict {
                        PlacementVerdict::Refuted => {
                            prop_assert!(child, "refuted child passes: {placements:?} on {case}")
                        }
                        PlacementVerdict::Unchanged => {
                            prop_assert_eq!(
                                &child_pending,
                                &parent_pending,
                                "child without new deficits changed the pending set: {:?} on {}",
                                placements,
                                case
                            );
                            prop_assert_eq!(child, parent, "{:?} on {}", placements, case);
                        }
                        PlacementVerdict::NeedsFullCheck => prop_assert!(
                            child_pending.len() > parent_pending.len(),
                            "a full check without a new deficit: {placements:?} on {case}"
                        ),
                    }
                }
            }
        }
    }
}
