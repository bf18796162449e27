//! The QMAP-style per-layer A* search behind
//! [`SearchSpec::AStar`](crate::SearchSpec::AStar).
//!
//! QMAP's published heuristic mapper partitions the circuit into layers of
//! independent gates and, for each layer, searches over SWAP sequences until
//! every gate of the layer acts on coupled qubits. This module implements
//! that design with a bounded A* search per layer: nodes are mappings,
//! transitions are single SWAPs on couplers incident to the layer's qubits,
//! the path cost is the number of SWAPs, and the heuristic is the summed
//! excess distance of the layer's gates. When the node budget runs out the
//! search falls back to the best partial state found so far and continues
//! greedily, so routing always terminates.
//!
//! The circuit-derived state (dependency DAG, layering, single-qubit gate
//! schedule) comes from [`crate::kernel`]; the per-layer search is the
//! QMAP-specific part this module keeps. The composed router runs it after
//! placement, or from a caller's mapping in the standalone mode.
//!
//! # State storage
//!
//! QUBIKOS circuits use every device qubit, so a state is a full-device
//! program→physical assignment (433 entries on Osprey) and a layer search
//! creates thousands of them. The search therefore never clones, remaps or
//! rehashes an assignment per child:
//!
//! * **Arena.** All states of one layer search live in one flat vector, `n`
//!   entries per state, next to parallel vectors of parent link, heuristic
//!   and hash. State ids are arena indices, handed out in push order.
//! * **Incremental hash.** A state's hash is the XOR of a SplitMix64 mix of
//!   every `(program qubit, physical qubit)` pair, so a SWAP updates it
//!   with at most four XORs.
//! * **Incremental heuristic.** Gates in one layer never share a qubit, so
//!   a SWAP moves qubits of at most two layer pairs; only those pairs'
//!   distances are re-read.
//! * **Equality check.** The best-cost index maps each hash to the distinct
//!   assignments that have it, stored as (state id, best path cost). A
//!   probe compares the whole assignment slice against the arena, so a
//!   hash collision never merges two states. The already-mixed hash keys a
//!   `HashMap` through a pass-through hasher.
//!
//! Per expansion, the occupant (physical→program) map and the active-qubit
//! marks are filled into reusable buffers and cleared entry by entry; each
//! child is built in one scratch assignment by applying and undoing its
//! SWAP, and copied into the arena only when it is pushed. The coupler
//! order, the active rule, the `(f, g, id)` heap order, the stale-entry
//! skip and the budget fallback are those of the straightforward search, so
//! the SWAP sequences are the same (a test keeps that search as its
//! reference).

use crate::kernel::{force_adjacent, RoutingProblem};
use crate::mapping::Mapping;
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate};
use qubikos_graph::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Routes `circuit` layer by layer from `initial`, expanding at most
/// `max_expansions` states per layer before completing that layer greedily.
/// Returns the physical circuit and the final mapping. The caller checks
/// that the circuit fits the device.
pub(crate) fn route_layers(
    circuit: &Circuit,
    arch: &Architecture,
    initial: &Mapping,
    max_expansions: usize,
) -> (Circuit, Mapping) {
    let mut mapping = initial.clone();
    let problem = RoutingProblem::forward_only(circuit);
    let view = problem.forward();
    let dag = view.dag();
    let mut out = Circuit::new(arch.num_qubits());

    for layer in dag.layers() {
        // Find a SWAP sequence that makes every gate of this layer executable.
        let pairs: Vec<(usize, usize)> = layer.iter().map(|&node| dag.qubit_pair(node)).collect();
        let swaps = solve_layer(&pairs, arch, &mapping, max_expansions);

        // Gates within a layer act on disjoint qubits, so each one can be
        // emitted the moment its pair becomes adjacent — later SWAPs of
        // the same layer are then free to move its qubits again.
        let mut emitted = vec![false; layer.len()];
        let emit_ready = |mapping: &Mapping, out: &mut Circuit, emitted: &mut Vec<bool>| {
            for (k, &node) in layer.iter().enumerate() {
                if emitted[k] {
                    continue;
                }
                let (a, b) = pairs[k];
                if arch.are_coupled(mapping.physical(a), mapping.physical(b)) {
                    view.emit(node, mapping, out);
                    emitted[k] = true;
                }
            }
        };
        emit_ready(&mapping, &mut out, &mut emitted);
        for (pa, pb) in swaps {
            out.push(Gate::swap(pa, pb));
            mapping.apply_swap_physical(pa, pb);
            emit_ready(&mapping, &mut out, &mut emitted);
        }
        // Safety net: if the search's fallback left a pair apart, walk it
        // together along a shortest path so routing always completes.
        for (k, &node) in layer.iter().enumerate() {
            if emitted[k] {
                continue;
            }
            let (a, b) = pairs[k];
            force_adjacent(arch, &mut mapping, a, b, |u, v| {
                out.push(Gate::swap(u, v));
            });
            view.emit(node, &mapping, &mut out);
        }
    }
    view.emit_trailing(&mapping, &mut out);
    (out, mapping)
}

/// Marks an empty slot in the per-layer lookup buffers (an unoccupied
/// physical qubit, a program qubit outside the layer, an index chain end).
const NONE: usize = usize::MAX;

/// One `(program qubit, physical qubit)` term of a state hash: the
/// SplitMix64 finaliser of the packed pair. A state's hash is the XOR of
/// its terms, so a SWAP updates it with at most four XORs.
fn hash_term(q: usize, p: NodeId) -> u64 {
    let mut z = ((q as u64) << 32 | p as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash of a whole program→physical assignment.
fn state_hash(assignment: &[NodeId]) -> u64 {
    assignment
        .iter()
        .enumerate()
        .fold(0, |h, (q, &p)| h ^ hash_term(q, p))
}

/// A [`Hasher`] for keys that are already well-mixed 64-bit hashes.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The A* states of one layer search, stored flat: state `id` owns the
/// program→physical assignment `assignments[id * n..(id + 1) * n]`, and the
/// parallel vectors hold its parent link (the parent id and the SWAP that
/// produced it, `None` for the root), heuristic and hash.
struct StateArena {
    n: usize,
    assignments: Vec<NodeId>,
    parents: Vec<Option<(usize, (NodeId, NodeId))>>,
    h: Vec<usize>,
    hashes: Vec<u64>,
}

impl StateArena {
    fn new(n: usize) -> Self {
        StateArena {
            n,
            assignments: Vec::new(),
            parents: Vec::new(),
            h: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Appends a state and returns its id (ids follow push order).
    fn push(
        &mut self,
        assignment: &[NodeId],
        parent: Option<(usize, (NodeId, NodeId))>,
        h: usize,
        hash: u64,
    ) -> usize {
        debug_assert_eq!(assignment.len(), self.n);
        self.assignments.extend_from_slice(assignment);
        self.parents.push(parent);
        self.h.push(h);
        self.hashes.push(hash);
        self.parents.len() - 1
    }

    fn assignment(&self, id: usize) -> &[NodeId] {
        &self.assignments[id * self.n..(id + 1) * self.n]
    }

    /// The SWAP sequence leading from the root to state `id`.
    fn reconstruct(&self, mut id: usize) -> Vec<(NodeId, NodeId)> {
        let mut swaps = Vec::new();
        while let Some((parent, swap)) = self.parents[id] {
            swaps.push(swap);
            id = parent;
        }
        swaps.reverse();
        swaps
    }
}

/// One distinct assignment in a [`StateIndex`] bucket.
struct IndexEntry {
    /// A state holding the assignment (its slice in the arena is the key).
    state: usize,
    /// Best path cost found so far for the assignment.
    g: usize,
    /// Next entry with the same hash, or [`NONE`].
    next: usize,
}

/// Best known path cost per distinct assignment. Buckets are keyed by the
/// state hash and chain every distinct assignment sharing it; a probe
/// compares whole assignment slices, so a hash collision never merges two
/// states.
#[derive(Default)]
struct StateIndex {
    heads: HashMap<u64, usize, BuildHasherDefault<PassThroughHasher>>,
    entries: Vec<IndexEntry>,
}

impl StateIndex {
    /// The entry of `assignment` (whose hash is `hash`), if it is indexed.
    fn find(&self, hash: u64, assignment: &[NodeId], arena: &StateArena) -> Option<usize> {
        let mut e = *self.heads.get(&hash)?;
        while e != NONE {
            let entry = &self.entries[e];
            if arena.assignment(entry.state) == assignment {
                return Some(e);
            }
            e = entry.next;
        }
        None
    }

    /// Best path cost recorded in entry `e`.
    fn g(&self, e: usize) -> usize {
        self.entries[e].g
    }

    /// Lowers entry `e`'s best path cost to `g`.
    fn lower(&mut self, e: usize, g: usize) {
        self.entries[e].g = g;
    }

    /// Adds arena state `state`, whose hash is `hash` and whose assignment
    /// is not indexed yet, with path cost `g`.
    fn insert(&mut self, hash: u64, state: usize, g: usize) {
        let head = self.heads.entry(hash).or_insert(NONE);
        self.entries.push(IndexEntry {
            state,
            g,
            next: *head,
        });
        *head = self.entries.len() - 1;
    }
}

/// Summed excess distance of the layer's gate pairs under `assignment`.
fn heuristic(pairs: &[(usize, usize)], arch: &Architecture, assignment: &[NodeId]) -> usize {
    pairs
        .iter()
        .map(|&(a, b)| {
            arch.distance(assignment[a], assignment[b])
                .saturating_sub(1)
        })
        .sum()
}

/// A* over SWAP sequences until every pair in `pairs` is adjacent. See
/// the module docs for the state storage.
fn solve_layer(
    pairs: &[(usize, usize)],
    arch: &Architecture,
    mapping: &Mapping,
    max_expansions: usize,
) -> Vec<(NodeId, NodeId)> {
    let start = mapping.as_slice();
    let start_h = heuristic(pairs, arch, start);
    if start_h == 0 {
        return Vec::new();
    }
    let n = start.len();
    // `pair_of[q]` = the layer pair containing program qubit `q`. Layer
    // gates never share a qubit, so a SWAP changes at most two pairs.
    let mut pair_of = vec![NONE; n];
    for (k, &(a, b)) in pairs.iter().enumerate() {
        debug_assert!(pair_of[a] == NONE && pair_of[b] == NONE);
        pair_of[a] = k;
        pair_of[b] = k;
    }

    // Priority queue keyed by f = g + h; ties go to the smaller g, then
    // the earlier-pushed state.
    let mut open: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
    let mut arena = StateArena::new(n);
    let mut index = StateIndex::default();
    let start_hash = state_hash(start);
    arena.push(start, None, start_h, start_hash);
    index.insert(start_hash, 0, 0);
    open.push(Reverse((start_h, 0, 0)));

    let mut expansions = 0usize;
    let mut best_fallback = (start_h, 0usize);
    // Per-expansion buffers, cleared entry by entry after each use: the
    // physical→program occupants, the active-qubit marks, each pair's
    // distance, and the child assignment under construction.
    let mut occupant = vec![NONE; arch.num_qubits()];
    let mut active = vec![false; arch.num_qubits()];
    let mut pair_dist = vec![0usize; pairs.len()];
    let mut child: Vec<NodeId> = Vec::with_capacity(n);

    while let Some(Reverse((_, g, id))) = open.pop() {
        let hash = arena.hashes[id];
        let entry = index.find(hash, arena.assignment(id), &arena);
        if index.g(entry.expect("every pushed state is indexed")) < g {
            continue; // stale entry
        }
        let h = arena.h[id];
        if h == 0 {
            return arena.reconstruct(id);
        }
        if h < best_fallback.0 {
            best_fallback = (h, id);
        }
        expansions += 1;
        if expansions > max_expansions {
            // Budget exhausted: finish the layer greedily from the most
            // promising state seen so far.
            let mut swaps = arena.reconstruct(best_fallback.1);
            let mut assignment = arena.assignment(best_fallback.1).to_vec();
            swaps.extend(greedy_finish(pairs, arch, &mut assignment));
            return swaps;
        }

        child.clear();
        child.extend_from_slice(arena.assignment(id));
        for (q, &p) in child.iter().enumerate() {
            occupant[p] = q;
        }
        // Candidate SWAPs: couplers touching a physical qubit used by a
        // still-unsatisfied pair.
        for (k, &(a, b)) in pairs.iter().enumerate() {
            pair_dist[k] = arch.distance(child[a], child[b]);
            if pair_dist[k] > 1 {
                active[child[a]] = true;
                active[child[b]] = true;
            }
        }
        for edge in arch.couplers() {
            if !(active[edge.u] || active[edge.v]) {
                continue;
            }
            let (qu, qv) = (occupant[edge.u], occupant[edge.v]);
            let mut next_hash = hash;
            if qu != NONE {
                next_hash ^= hash_term(qu, edge.u) ^ hash_term(qu, edge.v);
                child[qu] = edge.v;
            }
            if qv != NONE {
                next_hash ^= hash_term(qv, edge.v) ^ hash_term(qv, edge.u);
                child[qv] = edge.u;
            }
            // Only the pairs holding a moved qubit change distance. A
            // pair whose two qubits trade places keeps its distance, so
            // visiting it twice adds nothing.
            let mut next_h = h;
            for q in [qu, qv] {
                let k = if q == NONE { NONE } else { pair_of[q] };
                if k != NONE {
                    let (a, b) = pairs[k];
                    let d = arch.distance(child[a], child[b]);
                    next_h = next_h + d.saturating_sub(1) - pair_dist[k].saturating_sub(1);
                }
            }

            debug_assert_eq!(next_hash, state_hash(&child));
            debug_assert_eq!(next_h, heuristic(pairs, arch, &child));

            let next_g = g + 1;
            let entry = index.find(next_hash, &child, &arena);
            if entry.map_or(true, |e| index.g(e) > next_g) {
                let next_id = arena.push(&child, Some((id, (edge.u, edge.v))), next_h, next_hash);
                match entry {
                    Some(e) => index.lower(e, next_g),
                    None => index.insert(next_hash, next_id, next_g),
                }
                open.push(Reverse((next_g + next_h, next_g, next_id)));
            }
            if qu != NONE {
                child[qu] = edge.u;
            }
            if qv != NONE {
                child[qv] = edge.v;
            }
        }
        for &p in &child {
            occupant[p] = NONE;
        }
        for &(a, b) in pairs {
            active[child[a]] = false;
            active[child[b]] = false;
        }
    }

    // Open set exhausted without a goal (cannot happen on a connected
    // architecture, but stay safe): finish greedily from the start.
    let mut assignment = start.to_vec();
    greedy_finish(pairs, arch, &mut assignment)
}

/// Moves each unsatisfied pair together along shortest paths.
fn greedy_finish(
    pairs: &[(usize, usize)],
    arch: &Architecture,
    assignment: &mut [NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut swaps = Vec::new();
    for &(a, b) in pairs {
        // `b` never moves while `a` walks towards it (the walk's next hop
        // is never `b`'s qubit), so one distance row serves the whole
        // path.
        let to_pb = arch.distance_row(assignment[b]);
        while to_pb[assignment[a]] > 1 {
            let pa = assignment[a];
            let next = arch
                .neighbors(pa)
                .iter()
                .copied()
                .min_by_key(|&n| to_pb[n])
                .expect("connected architecture");
            swaps.push((pa, next));
            for slot in assignment.iter_mut() {
                if *slot == pa {
                    *slot = next;
                } else if *slot == next {
                    *slot = pa;
                }
            }
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use crate::validate::validate_routing;
    use crate::{RouterSpec, SearchSpec};
    use qubikos_arch::devices;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            c.push(Gate::cx(a, b));
        }
        c
    }

    #[test]
    fn tiny_expansion_budget_still_terminates() {
        let spec = RouterSpec {
            search: SearchSpec::AStar { max_expansions: 1 },
            ..RouterSpec::qmap()
        };
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(9, 40, 7);
        let routed = spec.build(0).route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    /// The per-layer search as it was before the state arena: every state a
    /// full assignment `Vec`, SipHash-keyed, with the heuristic recomputed
    /// over the whole layer for every child. The differential tests pin the
    /// arena search to it.
    fn reference_solve_layer(
        max_expansions: usize,
        pairs: &[(usize, usize)],
        arch: &Architecture,
        mapping: &Mapping,
    ) -> Vec<(NodeId, NodeId)> {
        type SearchState = (Vec<NodeId>, Option<(usize, (NodeId, NodeId))>);
        fn reconstruct(states: &[SearchState], mut id: usize) -> Vec<(NodeId, NodeId)> {
            let mut swaps = Vec::new();
            while let Some((parent, swap)) = states[id].1 {
                swaps.push(swap);
                id = parent;
            }
            swaps.reverse();
            swaps
        }
        let heuristic = |assignment: &[NodeId]| heuristic(pairs, arch, assignment);

        let start: Vec<NodeId> = mapping.as_slice().to_vec();
        if heuristic(&start) == 0 {
            return Vec::new();
        }
        let mut open: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut states: Vec<SearchState> = Vec::new();
        let mut best_g: HashMap<Vec<NodeId>, usize> = HashMap::new();
        states.push((start.clone(), None));
        best_g.insert(start.clone(), 0);
        open.push(Reverse((heuristic(&start), 0, 0)));
        let mut expansions = 0usize;
        let mut best_fallback = (heuristic(&start), 0usize);

        while let Some(Reverse((_, g, id))) = open.pop() {
            let assignment = states[id].0.clone();
            if best_g.get(&assignment).copied().unwrap_or(usize::MAX) < g {
                continue;
            }
            let h = heuristic(&assignment);
            if h == 0 {
                return reconstruct(&states, id);
            }
            if h < best_fallback.0 {
                best_fallback = (h, id);
            }
            expansions += 1;
            if expansions > max_expansions {
                let mut swaps = reconstruct(&states, best_fallback.1);
                let mut assignment = states[best_fallback.1].0.clone();
                swaps.extend(greedy_finish(pairs, arch, &mut assignment));
                return swaps;
            }
            let mut active = vec![false; arch.num_qubits()];
            for &(a, b) in pairs {
                if arch.distance(assignment[a], assignment[b]) > 1 {
                    active[assignment[a]] = true;
                    active[assignment[b]] = true;
                }
            }
            for edge in arch.couplers() {
                if !(active[edge.u] || active[edge.v]) {
                    continue;
                }
                let mut next = assignment.clone();
                for slot in next.iter_mut() {
                    if *slot == edge.u {
                        *slot = edge.v;
                    } else if *slot == edge.v {
                        *slot = edge.u;
                    }
                }
                let next_g = g + 1;
                if best_g.get(&next).copied().unwrap_or(usize::MAX) <= next_g {
                    continue;
                }
                best_g.insert(next.clone(), next_g);
                let next_id = states.len();
                states.push((next.clone(), Some((id, (edge.u, edge.v)))));
                open.push(Reverse((next_g + heuristic(&next), next_g, next_id)));
            }
        }
        let mut assignment = start;
        greedy_finish(pairs, arch, &mut assignment)
    }

    /// A random mapping of `program` qubits onto `arch` and a random layer
    /// of `pairs` disjoint gates, each between qubits at most `max_dist`
    /// hops apart.
    fn random_layer(
        arch: &Architecture,
        program: usize,
        pairs: usize,
        max_dist: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<(usize, usize)>, Mapping) {
        let mapping = Mapping::random(program, arch.num_qubits(), rng);
        let mut used = vec![false; program];
        let mut layer = Vec::new();
        while layer.len() < pairs {
            let a = rng.gen_range(0..program);
            if used[a] {
                continue;
            }
            let pa = mapping.physical(a);
            let partners: Vec<usize> = (0..program)
                .filter(|&b| b != a && !used[b])
                .filter(|&b| arch.distance(pa, mapping.physical(b)) <= max_dist)
                .collect();
            if let Some(&b) = partners.choose(rng) {
                used[a] = true;
                used[b] = true;
                layer.push((a, b));
            }
        }
        (layer, mapping)
    }

    #[test]
    fn arena_search_matches_reference_search() {
        // (device, program qubits, max pairs per layer, max pair distance)
        let cases = [
            (devices::grid(4, 4), 12, 6, 6),
            (devices::grid(4, 4), 16, 8, 6),
            (devices::aspen4(), 16, 6, 5),
            (devices::eagle127(), 127, 4, 6),
            (devices::osprey433(), 433, 3, 5),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut searched = 0;
        for (arch, program, max_pairs, max_dist) in &cases {
            for _ in 0..8 {
                let pairs = rng.gen_range(1..=*max_pairs);
                let (layer, mapping) = random_layer(arch, *program, pairs, *max_dist, &mut rng);
                for budget in [1, 16, 4000] {
                    let got = solve_layer(&layer, arch, &mapping, budget);
                    let expected = reference_solve_layer(budget, &layer, arch, &mapping);
                    assert_eq!(
                        got,
                        expected,
                        "{} qubits, layer {layer:?}, budget {budget}",
                        arch.num_qubits()
                    );
                    searched += usize::from(!expected.is_empty());
                }
            }
        }
        assert!(searched > 0, "some layer must need SWAPs");
    }

    #[test]
    fn state_index_keeps_colliding_assignments_apart() {
        // Two different assignments forced under one hash.
        const HASH: u64 = 7;
        let mut arena = StateArena::new(3);
        let a = arena.push(&[0, 1, 2], None, 0, HASH);
        let b = arena.push(&[2, 1, 0], None, 0, HASH);
        let mut index = StateIndex::default();
        index.insert(HASH, a, 3);
        assert_eq!(index.find(HASH, arena.assignment(b), &arena), None);
        index.insert(HASH, b, 5);
        let ea = index
            .find(HASH, arena.assignment(a), &arena)
            .expect("indexed");
        let eb = index
            .find(HASH, arena.assignment(b), &arena)
            .expect("indexed");
        assert_ne!(ea, eb);
        assert_eq!((index.g(ea), index.g(eb)), (3, 5));
        index.lower(eb, 1);
        assert_eq!((index.g(ea), index.g(eb)), (3, 1));
        // An unindexed assignment under the shared hash, and an indexed
        // assignment under another hash, are both absent.
        assert_eq!(index.find(HASH, &[1, 0, 2], &arena), None);
        assert_eq!(index.find(HASH + 1, &[0, 1, 2], &arena), None);
    }
}
