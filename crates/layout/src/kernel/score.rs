//! Incremental SWAP scoring.
//!
//! The pre-kernel routers rescanned every front and extended-set gate for
//! every candidate SWAP of every decision — O(couplers × (front + extended))
//! per decision. A [`SwapScorer`] instead snapshots the scored gates once
//! per front change (`prepare`), maintains the running front/extended
//! distance sums across applied SWAPs (`apply`), and evaluates a candidate
//! as a delta over only the gates touching the two swapped physical qubits
//! (`swap_cost` / `front_total`) — O(gates-touching-the-two-qubits).
//!
//! Candidate SWAPs come from the front's incident couplers, not from a
//! device-wide scan: `candidates_into` sets one bit per coupler touching a
//! front gate's endpoint (the [`Architecture`]'s per-qubit incident lists),
//! then walks the bitset word by word, emitting — and clearing — the set
//! couplers in coupler order. That is O(front × degree + couplers/64) per
//! decision and yields exactly the list a scan of every coupler would, in
//! the same order, so tie sets and every downstream RNG draw are unchanged.
//!
//! Exactness: hop distances are small integers, so the running sums and
//! deltas are exact in `f64` and a delta-evaluated score is bit-identical
//! to a full rescan under uniform extended-set weighting (the Qiskit
//! default). With a lookahead `depth_decay` the weights are non-integral and the
//! accumulation order can differ from a rescan in the last ulp; routing
//! decisions may then differ only on exact score ties.

use crate::kernel::scratch::StampSet;
use crate::mapping::Mapping;
use crate::LookaheadSpec;
use qubikos_arch::Architecture;
use qubikos_circuit::{DagNodeId, DependencyDag};
use qubikos_graph::NodeId;

/// One scored gate: its current physical endpoints, distance, and weight.
#[derive(Debug, Clone, Copy)]
struct Entry {
    phys_a: NodeId,
    phys_b: NodeId,
    dist: usize,
    /// Extended-set weight (`decay^i` or 1.0); unused for front entries.
    weight: f64,
    is_front: bool,
}

/// Incremental scorer for candidate SWAPs against the current front and
/// extended set. See the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct SwapScorer {
    entries: Vec<Entry>,
    /// `touch[p]` = indices of entries with a physical endpoint on `p`.
    touch: Vec<Vec<u32>>,
    /// Physical qubits whose `touch` list is set (for O(touched) clearing).
    touched_phys: Vec<NodeId>,
    /// Number of front gates (the denominator of the basic term). The front
    /// entries are `entries[..front_len]`.
    front_len: usize,
    /// Running sum of front-gate distances (integer-valued, hence exact).
    front_sum: f64,
    /// Running weighted sum of extended-set distances.
    ext_sum: f64,
    /// Sum of extended-set weights (the lookahead denominator).
    ext_weight_sum: f64,
    /// Per-candidate dedupe of entries touching both swapped qubits.
    mark: StampSet,
    /// One bit per coupler id; all zero between `candidates_into` calls.
    coupler_bits: Vec<u64>,
}

impl SwapScorer {
    /// A scorer with no gates loaded; call [`Self::prepare`] before scoring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the scored gates for the current `front` and `extended`
    /// sets under `mapping`. Must be called after every front change (and
    /// after any mapping change not reported through [`Self::apply`]).
    pub fn prepare(
        &mut self,
        front: &[DagNodeId],
        extended: &[DagNodeId],
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        lookahead: &LookaheadSpec,
    ) {
        for &p in &self.touched_phys {
            self.touch[p].clear();
        }
        self.touched_phys.clear();
        if self.touch.len() < arch.num_qubits() {
            self.touch.resize(arch.num_qubits(), Vec::new());
        }
        self.entries.clear();
        self.front_len = front.len();
        self.front_sum = 0.0;
        self.ext_sum = 0.0;
        self.ext_weight_sum = 0.0;

        for &node in front {
            self.push_entry(node, dag, mapping, arch, 1.0, true);
        }
        for (i, &node) in extended.iter().enumerate() {
            let weight = match lookahead.depth_decay {
                Some(d) => d.powi(i as i32),
                None => 1.0,
            };
            self.push_entry(node, dag, mapping, arch, weight, false);
        }
    }

    fn push_entry(
        &mut self,
        node: DagNodeId,
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        weight: f64,
        is_front: bool,
    ) {
        let (a, b) = dag.qubit_pair(node);
        let (pa, pb) = (mapping.physical(a), mapping.physical(b));
        let dist = arch.distance(pa, pb);
        let index = self.entries.len() as u32;
        self.entries.push(Entry {
            phys_a: pa,
            phys_b: pb,
            dist,
            weight,
            is_front,
        });
        if is_front {
            self.front_sum += dist as f64;
        } else {
            self.ext_sum += weight * dist as f64;
            self.ext_weight_sum += weight;
        }
        for p in [pa, pb] {
            if self.touch[p].is_empty() {
                self.touched_phys.push(p);
            }
            self.touch[p].push(index);
        }
    }

    /// Collects candidate SWAPs into `out`: the coupler edges with at least
    /// one endpoint hosting a qubit of some front gate, in coupler order.
    ///
    /// Marks the incident couplers of every front endpoint in a per-coupler
    /// bitset, then drains the bitset in ascending coupler id — O(front ×
    /// degree + couplers/64), and the same list, order included, as a scan
    /// over [`Architecture::couplers`].
    pub fn candidates_into(&mut self, arch: &Architecture, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        let words = arch.num_couplers().div_ceil(64);
        if self.coupler_bits.len() < words {
            self.coupler_bits.resize(words, 0);
        }
        for entry in &self.entries[..self.front_len] {
            for p in [entry.phys_a, entry.phys_b] {
                for &id in arch.incident_couplers(p) {
                    self.coupler_bits[id / 64] |= 1 << (id % 64);
                }
            }
        }
        for (w, word) in self.coupler_bits[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let edge = arch.coupler(w * 64 + bits.trailing_zeros() as usize);
                out.push((edge.u, edge.v));
                bits &= bits - 1;
            }
        }
    }

    /// The distance of `entry`'s gate if `(u, v)` were swapped.
    ///
    /// Every touched entry has at least one endpoint on `u` or `v`. If both
    /// endpoints move they exchange positions and the distance is
    /// unchanged; otherwise exactly one endpoint moves and the dense table
    /// answers the new distance in one array read.
    fn new_dist(entry: Entry, u: NodeId, v: NodeId, arch: &Architecture) -> usize {
        let a_moved = entry.phys_a == u || entry.phys_a == v;
        let b_moved = entry.phys_b == u || entry.phys_b == v;
        match (a_moved, b_moved) {
            (true, true) | (false, false) => entry.dist,
            (true, false) => {
                let new_a = if entry.phys_a == u { v } else { u };
                arch.distance(new_a, entry.phys_b)
            }
            (false, true) => {
                let new_b = if entry.phys_b == u { v } else { u };
                arch.distance(entry.phys_a, new_b)
            }
        }
    }

    /// Distance-sum deltas `(Δfront, Δextended)` if `swap` were applied.
    fn deltas(&mut self, swap: (NodeId, NodeId), arch: &Architecture) -> (i64, f64) {
        let (u, v) = swap;
        self.mark.reset(self.entries.len());
        let mut d_front = 0i64;
        let mut d_ext = 0.0f64;
        for side in [u, v] {
            for i in 0..self.touch[side].len() {
                let idx = self.touch[side][i] as usize;
                if !self.mark.insert(idx) {
                    continue;
                }
                let entry = self.entries[idx];
                let new_dist = Self::new_dist(entry, u, v, arch);
                if entry.is_front {
                    d_front += new_dist as i64 - entry.dist as i64;
                } else {
                    d_ext += entry.weight * (new_dist as f64 - entry.dist as f64);
                }
            }
        }
        (d_front, d_ext)
    }

    /// The LightSABRE cost (basic + weighted lookahead, *without* the decay
    /// factor) of applying `swap` to the current mapping. Only meaningful
    /// after a [`Self::prepare`] that loaded at least one front gate (SWAPs
    /// are only scored while some gate is blocked).
    pub fn swap_cost(
        &mut self,
        swap: (NodeId, NodeId),
        arch: &Architecture,
        lookahead: &LookaheadSpec,
    ) -> f64 {
        let (d_front, d_ext) = self.deltas(swap, arch);
        let basic = (self.front_sum + d_front as f64) / self.front_len as f64;
        let lookahead_term = if self.ext_weight_sum == 0.0 {
            0.0
        } else {
            lookahead.extended_set_weight * (self.ext_sum + d_ext) / self.ext_weight_sum
        };
        basic + lookahead_term
    }

    /// The front deficit: Σ over front gates of (dist − 1), the hops the
    /// front still needs before all of it can execute. Every SWAP lowers it
    /// by at most 2, which makes `⌈deficit / 2⌉` a lower bound on the SWAPs
    /// still to come (see
    /// [`GreedyPolicies::incumbent`](crate::kernel::GreedyPolicies::incumbent)).
    pub fn front_deficit(&self) -> usize {
        self.front_sum as usize - self.front_len
    }

    /// The summed front-gate distance (an integer) if `swap` were applied —
    /// the t|ket⟩-style greedy objective.
    pub fn front_total(&mut self, swap: (NodeId, NodeId), arch: &Architecture) -> i64 {
        let (d_front, _) = self.deltas(swap, arch);
        self.front_sum as i64 + d_front
    }

    /// Commits `swap` (already applied to the mapping by the caller): updates
    /// entry endpoints/distances, the running sums, and the per-qubit touch
    /// lists, in O(gates touching the swapped qubits).
    pub fn apply(&mut self, swap: (NodeId, NodeId), arch: &Architecture) {
        let (u, v) = swap;
        let resolve = |p: NodeId| {
            if p == u {
                v
            } else if p == v {
                u
            } else {
                p
            }
        };
        self.mark.reset(self.entries.len());
        // Collect indices first: the touch lists for u and v swap wholesale
        // below (an entry on u is on v afterwards and vice versa).
        for list in [u, v] {
            for i in 0..self.touch[list].len() {
                let idx = self.touch[list][i] as usize;
                if !self.mark.insert(idx) {
                    continue;
                }
                let entry = self.entries[idx];
                let new_dist = Self::new_dist(entry, u, v, arch);
                let delta_front = new_dist as f64 - entry.dist as f64;
                let updated = &mut self.entries[idx];
                updated.phys_a = resolve(entry.phys_a);
                updated.phys_b = resolve(entry.phys_b);
                updated.dist = new_dist;
                if entry.is_front {
                    self.front_sum += delta_front;
                } else {
                    self.ext_sum += entry.weight * delta_front;
                }
            }
        }
        // Track both endpoints before mutating their state so the next
        // prepare() clears them.
        for p in [u, v] {
            if self.touch[p].is_empty() {
                self.touched_phys.push(p);
            }
        }
        self.touch.swap(u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::{Circuit, Gate};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Reference candidate list: the device-wide coupler scan the scorer
    /// used before the incident-coupler bitset — every coupler with an
    /// endpoint hosting a qubit of some front gate, in coupler order.
    fn reference_candidates(
        front: &[DagNodeId],
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
    ) -> Vec<(NodeId, NodeId)> {
        let mut active = vec![false; arch.num_qubits()];
        for &node in front {
            let (a, b) = dag.qubit_pair(node);
            active[mapping.physical(a)] = true;
            active[mapping.physical(b)] = true;
        }
        arch.couplers()
            .filter(|edge| active[edge.u] || active[edge.v])
            .map(|edge| (edge.u, edge.v))
            .collect()
    }

    /// A device-width circuit of `gates` random CX gates.
    fn random_cx_circuit(num_qubits: usize, gates: usize, rng: &mut ChaCha8Rng) -> Circuit {
        let mut circuit = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            circuit.push(Gate::cx(a, b));
        }
        circuit
    }

    /// Prepares `scorer` on a random mapping, front and extended set of a
    /// random circuit on `arch`, then applies a chain of SWAPs; after the
    /// prepare and after every SWAP the candidates must equal the reference
    /// scan, in order.
    fn check_candidates_against_scan(
        scorer: &mut SwapScorer,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) {
        let n = arch.num_qubits();
        let dag = DependencyDag::from_circuit(&random_cx_circuit(n, 64, rng));
        let mut mapping = Mapping::random(n, n, rng);
        let mut nodes: Vec<DagNodeId> = (0..dag.len()).collect();
        nodes.shuffle(rng);
        let front_len = rng.gen_range(1..=12);
        let (front, rest) = nodes.split_at(front_len);
        let extended = &rest[..rng.gen_range(0..=20)];
        let lookahead = LookaheadSpec::sabre_default();
        scorer.prepare(front, extended, &dag, &mapping, arch, &lookahead);
        let mut candidates = Vec::new();
        for step in 0..24 {
            scorer.candidates_into(arch, &mut candidates);
            assert_eq!(
                candidates,
                reference_candidates(front, &dag, &mapping, arch),
                "{} after {step} swaps",
                arch.name()
            );
            // Mostly front-touching SWAPs (what routing applies), sometimes
            // any coupler.
            let swap = if rng.gen_range(0..4) == 0 {
                let edge = arch.coupler(rng.gen_range(0..arch.num_couplers()));
                (edge.u, edge.v)
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            mapping.apply_swap_physical(swap.0, swap.1);
            scorer.apply(swap, arch);
        }
    }

    #[test]
    fn candidates_match_the_coupler_scan_on_every_device_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for arch in [
            devices::grid(4, 4),
            devices::aspen4(),
            devices::eagle127(),
            devices::osprey433(),
        ] {
            let mut scorer = SwapScorer::new();
            for _ in 0..8 {
                check_candidates_against_scan(&mut scorer, &arch, &mut rng);
            }
        }
    }

    #[test]
    fn reused_scorer_leaks_no_candidates_across_devices() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut scorer = SwapScorer::new();
        for arch in [
            devices::osprey433(),
            devices::grid(3, 3),
            devices::osprey433(),
        ] {
            for _ in 0..4 {
                check_candidates_against_scan(&mut scorer, &arch, &mut rng);
            }
        }
    }

    #[test]
    fn candidates_shared_by_two_front_gates_appear_once() {
        // grid(3, 3):  0 1 2 / 3 4 5 / 6 7 8. Front gates on (0, 2) and
        // (3, 5) both touch couplers (0, 3) and (2, 5).
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(9, [Gate::cx(0, 2), Gate::cx(3, 5)]);
        let dag = DependencyDag::from_circuit(&circuit);
        let mapping = Mapping::identity(9, 9);
        let front = [0, 1];
        let mut scorer = SwapScorer::new();
        scorer.prepare(
            &front,
            &[],
            &dag,
            &mapping,
            &arch,
            &LookaheadSpec::front_only(),
        );
        let mut candidates = Vec::new();
        scorer.candidates_into(&arch, &mut candidates);
        assert_eq!(
            candidates,
            reference_candidates(&front, &dag, &mapping, &arch)
        );
        for shared in [(0, 3), (2, 5)] {
            assert_eq!(candidates.iter().filter(|&&c| c == shared).count(), 1);
        }
        let mut sorted = candidates.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), candidates.len());
    }

    /// Brute-force reference: rescan every front/extended gate under the
    /// hypothetical swap, exactly as the pre-kernel SABRE did.
    fn reference_cost(
        swap: (NodeId, NodeId),
        front: &[DagNodeId],
        extended: &[DagNodeId],
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        lookahead: &LookaheadSpec,
    ) -> f64 {
        let resolve = |p: NodeId| {
            if p == swap.0 {
                swap.1
            } else if p == swap.1 {
                swap.0
            } else {
                p
            }
        };
        let gate_distance = |node: DagNodeId| -> f64 {
            let (a, b) = dag.qubit_pair(node);
            arch.distance(resolve(mapping.physical(a)), resolve(mapping.physical(b))) as f64
        };
        let basic: f64 = front.iter().map(|&n| gate_distance(n)).sum::<f64>() / front.len() as f64;
        let lookahead_term = if extended.is_empty() {
            0.0
        } else {
            let (sum, weights) =
                extended
                    .iter()
                    .enumerate()
                    .fold((0.0f64, 0.0f64), |(sum, weights), (i, &n)| {
                        let w = match lookahead.depth_decay {
                            Some(d) => d.powi(i as i32),
                            None => 1.0,
                        };
                        (sum + w * gate_distance(n), weights + w)
                    });
            lookahead.extended_set_weight * sum / weights
        };
        basic + lookahead_term
    }

    fn setup() -> (Architecture, DependencyDag, Mapping) {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(
            6,
            [
                Gate::cx(0, 5),
                Gate::cx(1, 4),
                Gate::cx(2, 3),
                Gate::cx(0, 3),
                Gate::cx(4, 5),
            ],
        );
        let dag = DependencyDag::from_circuit(&circuit);
        let mapping = Mapping::from_prog_to_phys(vec![0, 4, 8, 2, 6, 7], 9);
        (arch, dag, mapping)
    }

    #[test]
    fn delta_scores_match_full_rescan() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let lookahead = LookaheadSpec::sabre_default();
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &lookahead);
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let fast = scorer.swap_cost(swap, &arch, &lookahead);
            let slow = reference_cost(swap, &front, &extended, &dag, &mapping, &arch, &lookahead);
            assert_eq!(fast, slow, "swap {swap:?} diverged");
        }
    }

    #[test]
    fn delta_scores_match_rescan_with_lookahead_decay() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let lookahead = LookaheadSpec {
            depth_decay: Some(0.8),
            ..LookaheadSpec::sabre_default()
        };
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &lookahead);
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let fast = scorer.swap_cost(swap, &arch, &lookahead);
            let slow = reference_cost(swap, &front, &extended, &dag, &mapping, &arch, &lookahead);
            assert!(
                (fast - slow).abs() < 1e-9,
                "swap {swap:?}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn apply_keeps_scores_consistent_across_swap_chains() {
        let (arch, dag, mut mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let lookahead = LookaheadSpec::sabre_default();
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &lookahead);
        // Apply a chain of swaps; after each, delta scores must still match
        // a fresh rescan of the *new* mapping.
        for swap in [(0usize, 1usize), (4, 5), (1, 2), (0, 3)] {
            mapping.apply_swap_physical(swap.0, swap.1);
            scorer.apply(swap, &arch);
            for edge in arch.couplers() {
                let candidate = (edge.u, edge.v);
                let fast = scorer.swap_cost(candidate, &arch, &lookahead);
                let slow = reference_cost(
                    candidate, &front, &extended, &dag, &mapping, &arch, &lookahead,
                );
                assert_eq!(fast, slow, "after {swap:?}, candidate {candidate:?}");
            }
        }
    }

    #[test]
    fn front_total_matches_reference_sum() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let mut scorer = SwapScorer::new();
        scorer.prepare(
            &front,
            &[],
            &dag,
            &mapping,
            &arch,
            &LookaheadSpec::front_only(),
        );
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let resolve = |p: NodeId| {
                if p == swap.0 {
                    swap.1
                } else if p == swap.1 {
                    swap.0
                } else {
                    p
                }
            };
            let reference: i64 = front
                .iter()
                .map(|&n| {
                    let (a, b) = dag.qubit_pair(n);
                    arch.distance(resolve(mapping.physical(a)), resolve(mapping.physical(b))) as i64
                })
                .sum();
            assert_eq!(scorer.front_total(swap, &arch), reference);
        }
    }

    #[test]
    fn candidates_cover_exactly_the_active_couplers() {
        let (arch, dag, mapping) = setup();
        let front = [0];
        let mut scorer = SwapScorer::new();
        scorer.prepare(
            &front,
            &[],
            &dag,
            &mapping,
            &arch,
            &LookaheadSpec::front_only(),
        );
        let mut candidates = Vec::new();
        scorer.candidates_into(&arch, &mut candidates);
        let (a, b) = dag.qubit_pair(0);
        let (pa, pb) = (mapping.physical(a), mapping.physical(b));
        for edge in arch.couplers() {
            let expected = edge.u == pa || edge.u == pb || edge.v == pa || edge.v == pb;
            assert_eq!(candidates.contains(&(edge.u, edge.v)), expected);
        }
    }
}
