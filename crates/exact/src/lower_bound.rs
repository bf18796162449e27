//! Admissible lower bounds on the optimal SWAP count.
//!
//! Both bounds read only the circuit and the device, never a generator's
//! recorded sections, so they certify an optimum from the circuit text:
//!
//! * [`degree_surplus_lower_bound`]: a program qubit with more partners than
//!   any placement and its SWAPs can bring next to it;
//! * [`window_chain`]: the paper's Lemma 1 applied to a chain of gate
//!   windows. A window whose interaction graph does not embed in the coupling
//!   graph cannot run under one mapping, so some SWAP falls strictly between
//!   its first and its last gate. Each window after the first holds only
//!   gates that depend on every gate of the window before it, so the windows'
//!   spans are disjoint and a chain of `m` windows proves `m` SWAPs.
//!
//! [`swap_lower_bound`] is the larger of the two. The exact solver starts its
//! deepening there and refutes, at every node, a SWAP budget smaller than
//! the number of windows still wholly ahead (see the solver's "Window-chain
//! soundness").

use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, DagNodeId, DependencyDag};
use qubikos_graph::{Embedding, Graph, Vf2Matcher};

/// Degree-surplus lower bound: every SWAP can only connect a program qubit to
/// qubits hosted on neighbouring physical locations, so if the interaction
/// graph has more edges incident to "over-subscribed" qubits than any
/// placement can satisfy, extra SWAPs are needed.
///
/// Concretely, for a program qubit `q` with interaction degree `d(q)` and a
/// device of maximum physical degree `Δ`, any single placement makes at most
/// `Δ` partners adjacent. Each further SWAP extends the set of partners `q`
/// can ever touch by at most `Δ - 1`: a SWAP that moves `q` itself exposes at
/// most `Δ - 1` positions not previously adjacent (one neighbour of the new
/// position is `q`'s origin), and a SWAP that moves a partner towards `q`
/// brings in at most one. Hence `s` SWAPs satisfy at most `Δ + s·(Δ - 1)`
/// partners, and `s ≥ ⌈(d(q) - Δ) / (Δ - 1)⌉` is admissible. (An earlier
/// revision of this bound charged one SWAP per surplus partner, which
/// overcounts exactly when moving `q` serves several partners at once — and
/// an inadmissible bound silently corrupts the exact solver's `proven`
/// answers, since the solver starts its iterative deepening here.)
pub fn degree_surplus_lower_bound(circuit: &Circuit, arch: &Architecture) -> usize {
    let interaction = circuit.interaction_graph();
    let max_physical_degree = arch.coupling_graph().max_degree();
    // Per-SWAP gain in reachable partners; clamped so degenerate single-edge
    // devices (Δ ≤ 1, where the true bound is unbounded) stay conservative.
    let gain_per_swap = max_physical_degree.saturating_sub(1).max(1);
    interaction
        .nodes()
        .map(|q| {
            interaction
                .degree(q)
                .saturating_sub(max_physical_degree)
                .div_ceil(gain_per_swap)
        })
        .max()
        .unwrap_or(0)
}

/// Search-tree nodes each VF2 probe of [`window_chain`] may explore.
const EMBEDDING_PROBE_NODE_LIMIT: u64 = 2_000_000;

/// The best cheap lower bound we can certify without search: the larger of
/// [`degree_surplus_lower_bound`] and the length of [`window_chain`].
///
/// The chain is non-empty exactly when the whole circuit does not embed, so
/// this subsumes Lemma 1 applied to the whole circuit.
pub fn swap_lower_bound(circuit: &Circuit, arch: &Architecture) -> usize {
    probe_limited_swap_lower_bound(circuit, arch, EMBEDDING_PROBE_NODE_LIMIT)
}

/// [`swap_lower_bound`] with every VF2 probe capped at `node_limit` search
/// nodes.
fn probe_limited_swap_lower_bound(
    circuit: &Circuit,
    arch: &Architecture,
    node_limit: u64,
) -> usize {
    let dag = DependencyDag::from_circuit(circuit);
    let chain = probe_limited_window_chain(&dag, arch, node_limit);
    degree_surplus_lower_bound(circuit, arch).max(chain.len())
}

/// A chain of Lemma-1 windows of `dag` on `arch`: sets of DAG nodes, each in
/// ascending node order, such that
///
/// * no window's interaction graph embeds in the coupling graph, so every
///   routing spends a SWAP strictly between a window's first and its last
///   gate;
/// * every gate of a window is a DAG descendant of every gate of the window
///   before it, so the windows' spans never overlap.
///
/// Any routing therefore needs at least as many SWAPs as the chain has
/// windows. The chain is built greedily: walk the candidate gates in DAG
/// order, growing a window until its interaction graph stops embedding; then
/// delete its gates one at a time, earliest first, wherever the rest still
/// does not embed; the next window's candidates are the common descendants
/// of the gates that remain. A VF2 probe that gives up counts as "embeds",
/// so it can only shorten the chain, never overstate it.
pub fn window_chain(dag: &DependencyDag, arch: &Architecture) -> Vec<Vec<DagNodeId>> {
    probe_limited_window_chain(dag, arch, EMBEDDING_PROBE_NODE_LIMIT)
}

/// [`window_chain`] with every VF2 probe capped at `node_limit` search nodes.
fn probe_limited_window_chain(
    dag: &DependencyDag,
    arch: &Architecture,
    node_limit: u64,
) -> Vec<Vec<DagNodeId>> {
    let target = arch.coupling_graph();
    let embeds = |window: &[DagNodeId]| may_embed(dag, target, window, node_limit);
    let mut candidate = vec![true; dag.len()];
    let mut chain = Vec::new();
    loop {
        let mut window = Vec::new();
        let mut grown = false;
        for node in (0..dag.len()).filter(|&n| candidate[n]) {
            // A repeated qubit pair leaves the interaction graph unchanged,
            // so it cannot stop the window from embedding.
            let (a, b) = dag.qubit_pair(node);
            let new_pair = !window.iter().any(|&w| {
                let pair = dag.qubit_pair(w);
                pair == (a, b) || pair == (b, a)
            });
            window.push(node);
            if new_pair && !embeds(&window) {
                grown = true;
                break;
            }
        }
        if !grown {
            return chain;
        }
        let mut i = 0;
        while i < window.len() {
            let removed = window.remove(i);
            if embeds(&window) {
                window.insert(i, removed);
                i += 1;
            }
        }
        candidate = common_descendants(dag, &window);
        chain.push(window);
    }
}

/// Whether the interaction graph of the gates `window` may embed in
/// `target`: `false` only when a VF2 probe of at most `node_limit` nodes
/// proves that it does not.
fn may_embed(dag: &DependencyDag, target: &Graph, window: &[DagNodeId], node_limit: u64) -> bool {
    // Relabel the window's qubits densely: idle qubits are not part of the
    // pattern.
    let mut qubits: Vec<usize> = window
        .iter()
        .flat_map(|&n| {
            let (a, b) = dag.qubit_pair(n);
            [a, b]
        })
        .collect();
    qubits.sort_unstable();
    qubits.dedup();
    let label = |q: usize| qubits.binary_search(&q).expect("window qubit");
    let pattern = Graph::from_edges(
        qubits.len(),
        window.iter().map(|&n| {
            let (a, b) = dag.qubit_pair(n);
            (label(a), label(b))
        }),
    );
    let search = Vf2Matcher::new(&pattern, target)
        .with_node_limit(node_limit)
        .search();
    search != Embedding::Absent
}

/// The DAG nodes that descend (strictly) from every node of `window`.
fn common_descendants(dag: &DependencyDag, window: &[DagNodeId]) -> Vec<bool> {
    let mut common = vec![true; dag.len()];
    let mut reached = vec![false; dag.len()];
    let mut stack = Vec::new();
    for &root in window {
        reached.fill(false);
        stack.push(root);
        while let Some(n) = stack.pop() {
            for &s in dag.successors(n) {
                if !reached[s] {
                    reached[s] = true;
                    stack.push(s);
                }
            }
        }
        for (c, &r) in common.iter_mut().zip(&reached) {
            *c &= r;
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;

    fn chain_of(circuit: &Circuit, arch: &Architecture) -> Vec<Vec<DagNodeId>> {
        window_chain(&DependencyDag::from_circuit(circuit), arch)
    }

    #[test]
    fn embeddable_circuit_has_zero_bound() {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(2, 3)]);
        assert!(chain_of(&circuit, &arch).is_empty());
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);
    }

    #[test]
    fn triangle_on_line_needs_a_swap() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        assert_eq!(chain_of(&circuit, &arch), [vec![0, 1, 2]]);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);
    }

    #[test]
    fn empty_circuit_has_zero_bound() {
        let arch = devices::line(3);
        let circuit = Circuit::new(3);
        assert!(chain_of(&circuit, &arch).is_empty());
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);
    }

    #[test]
    fn serialised_triangles_chain_one_window_each() {
        // Every gate of the second triangle depends on every gate of the
        // first, so each triangle is a window and the chain proves 2.
        let arch = devices::line(3);
        let triangle = [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)];
        let circuit = Circuit::from_gates(3, triangle.iter().chain(&triangle).copied());
        assert_eq!(chain_of(&circuit, &arch), [vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(swap_lower_bound(&circuit, &arch), 2);
    }

    #[test]
    fn shrinking_drops_gates_the_refutation_does_not_need() {
        // The leading (3,4) gate embeds with anything here; the triangle
        // alone refutes the window, so the window shrinks to it.
        let arch = devices::line(5);
        let circuit = Circuit::from_gates(
            5,
            [
                Gate::cx(3, 4),
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(0, 2),
            ],
        );
        assert_eq!(chain_of(&circuit, &arch), [vec![1, 2, 3]]);
    }

    #[test]
    fn windows_may_not_overlap_in_time() {
        // Two triangles on disjoint qubits run in parallel: a SWAP can sit
        // inside both spans at once, so only one window may be counted.
        let arch = devices::line(6);
        let circuit = Circuit::from_gates(
            6,
            [
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(0, 2),
                Gate::cx(3, 4),
                Gate::cx(4, 5),
                Gate::cx(3, 5),
            ],
        );
        assert_eq!(chain_of(&circuit, &arch).len(), 1);
    }

    #[test]
    fn degree_surplus_counts_excess_neighbours() {
        // A star with 5 leaves on a grid whose max degree is 4: the hub needs
        // at least one SWAP to reach its fifth partner.
        let arch = devices::grid(3, 3);
        let gates: Vec<Gate> = (1..=5).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(6, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 1);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);

        // Seven leaves: three partners beyond the first four, but one SWAP of
        // the hub can expose up to three new positions at once, so only one
        // extra SWAP is certain. (Claiming three here would be inadmissible:
        // grid instances with valid 2-SWAP solutions reach surplus 3.)
        let gates: Vec<Gate> = (1..=7).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(8, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 1);
        assert_eq!(swap_lower_bound(&circuit, &arch), 1);

        // Eight leaves: 4 surplus over 3-per-SWAP gain needs two SWAPs.
        let gates: Vec<Gate> = (1..=8).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(9, gates);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 2);
        assert_eq!(swap_lower_bound(&circuit, &arch), 2);
    }

    #[test]
    fn degree_surplus_never_exceeds_a_known_valid_solution() {
        // Regression for the inadmissible pre-fix bound: this QUBIKOS
        // instance carries a certificate-validated 2-SWAP reference solution,
        // so no admissible lower bound may exceed 2.
        use qubikos::{generate, GeneratorConfig};
        let arch = devices::grid(3, 3);
        let bench = generate(&arch, &GeneratorConfig::new(2, 20).with_seed(2_025_006_077))
            .expect("generates");
        assert!(swap_lower_bound(bench.circuit(), &arch) <= 2);
    }

    #[test]
    fn a_probe_that_gives_up_proves_nothing() {
        // A 3x3-grid interaction graph embeds into a 5x5 grid, and no qubit
        // has more partners than the device's degree, so only a VF2 probe
        // could raise the bound; a one-node probe gives up before it finds
        // the embedding.
        let arch = devices::grid(5, 5);
        let pattern = qubikos_graph::generators::grid_graph(3, 3);
        let circuit = Circuit::from_gates(9, pattern.edges().map(|e| Gate::cx(e.u, e.v)));
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 0);
        assert_eq!(probe_limited_swap_lower_bound(&circuit, &arch, 1), 0);
        assert_eq!(swap_lower_bound(&circuit, &arch), 0);

        // A refutation the probe reaches without searching still counts.
        let line = devices::line(3);
        let triangle = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        assert_eq!(probe_limited_swap_lower_bound(&triangle, &line, 1), 1);
    }

    /// A random spanning tree over `size` qubits of `device`, grown from a
    /// seeded qubit, as gates in a seeded order on seeded program labels.
    /// Its interaction graph is a subgraph of the device by construction.
    fn spanning_tree_circuit(device: &Graph, size: usize, seed: u64) -> Circuit {
        let mut state = seed;
        let mut next = move |bound: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut label = vec![usize::MAX; device.node_count()];
        let mut in_tree = vec![device.nodes().nth(next(device.node_count())).expect("node")];
        let mut edges = Vec::new();
        while in_tree.len() < size {
            let from = in_tree[next(in_tree.len())];
            let to = device.neighbors(from)[next(device.degree(from))];
            if !in_tree.contains(&to) {
                in_tree.push(to);
                edges.push((from, to));
            }
        }
        let mut labels: Vec<usize> = (0..size).collect();
        for i in (1..size).rev() {
            labels.swap(i, next(i + 1));
        }
        for (&q, &l) in in_tree.iter().zip(&labels) {
            label[q] = l;
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, next(i + 1));
        }
        Circuit::from_gates(
            size,
            edges.iter().map(|&(a, b)| Gate::cx(label[a], label[b])),
        )
    }

    #[test]
    fn spanning_trees_of_sycamore_chain_nothing_when_probes_give_up() {
        // Random spanning trees of Sycamore-54 qubits embed by construction,
        // yet VF2 can spend millions of nodes on them. Capped low, the probe
        // gives up on the whole circuit; that must read as "may embed".
        const CAP: u64 = 200;
        let arch = devices::sycamore54();
        let device = arch.coupling_graph();
        let mut gave_up = 0;
        for (size, seed) in [(24, 1), (32, 2), (40, 3), (48, 4)] {
            let circuit = spanning_tree_circuit(device, size, seed);
            let interaction = circuit.interaction_graph();
            if Vf2Matcher::new(&interaction, device)
                .with_node_limit(CAP)
                .search()
                == Embedding::GaveUp
            {
                gave_up += 1;
            }
            let dag = DependencyDag::from_circuit(&circuit);
            assert!(probe_limited_window_chain(&dag, &arch, CAP).is_empty());
            assert_eq!(probe_limited_swap_lower_bound(&circuit, &arch, CAP), 0);
        }
        assert!(
            gave_up > 0,
            "the cap must make some whole-circuit probe give up"
        );
    }

    #[test]
    fn degree_surplus_is_zero_for_low_degree_circuits() {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2)]);
        assert_eq!(degree_surplus_lower_bound(&circuit, &arch), 0);
    }
}
