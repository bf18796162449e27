//! The QUBIKOS circuit generator (Algorithms 1–3 of the paper).

use crate::benchmark::{QubikosCircuit, Section};
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate, OneQubitKind};
use qubikos_graph::{bfs_edge_order, Edge, Graph, NodeId};
use qubikos_layout::Mapping;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Configuration of one benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Desired (and provably optimal) SWAP count.
    pub num_swaps: usize,
    /// Target number of two-qubit gates. If the backbone alone already
    /// exceeds this the circuit simply keeps the backbone (the paper scales
    /// this parameter with the architecture for the same reason).
    pub target_two_qubit_gates: usize,
    /// Fraction of additional single-qubit gates relative to the two-qubit
    /// gate count (cosmetic padding; it never affects SWAP optimality).
    pub single_qubit_ratio: f64,
    /// RNG seed; the same seed always produces the same instance.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Creates a configuration with the paper's defaults for padding.
    pub fn new(num_swaps: usize, target_two_qubit_gates: usize) -> Self {
        GeneratorConfig {
            num_swaps,
            target_two_qubit_gates,
            single_qubit_ratio: 0.1,
            seed: 0,
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different single-qubit padding ratio.
    pub fn with_single_qubit_ratio(mut self, ratio: f64) -> Self {
        self.single_qubit_ratio = ratio.max(0.0);
        self
    }
}

/// Errors the generator can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// `num_swaps` was zero; a QUBIKOS instance always forces at least one SWAP.
    ZeroSwaps,
    /// The architecture is too small or too densely connected for the
    /// construction (every SWAP must enable a new interaction, which is
    /// impossible on a complete coupling graph).
    UnsupportedArchitecture {
        /// Explanation of why the architecture cannot host the construction.
        detail: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::ZeroSwaps => write!(f, "QUBIKOS instances need at least one SWAP"),
            GenerateError::UnsupportedArchitecture { detail } => {
                write!(f, "architecture cannot host the construction: {detail}")
            }
        }
    }
}

impl Error for GenerateError {}

/// Generates one QUBIKOS benchmark instance for `arch`.
///
/// # Errors
///
/// Returns [`GenerateError::ZeroSwaps`] when `config.num_swaps == 0` and
/// [`GenerateError::UnsupportedArchitecture`] when the coupling graph is
/// complete (no SWAP can ever enable a new interaction) or has fewer than
/// three qubits.
pub fn generate(
    arch: &Architecture,
    config: &GeneratorConfig,
) -> Result<QubikosCircuit, GenerateError> {
    if config.num_swaps == 0 {
        return Err(GenerateError::ZeroSwaps);
    }
    let coupling = arch.coupling_graph();
    let num_physical = arch.num_qubits();
    if num_physical < 3 {
        return Err(GenerateError::UnsupportedArchitecture {
            detail: format!("{num_physical} qubits are too few"),
        });
    }
    if coupling.edge_count() == num_physical * (num_physical - 1) / 2 {
        return Err(GenerateError::UnsupportedArchitecture {
            detail: "coupling graph is complete; every mapping already connects every pair".into(),
        });
    }

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut builder = Builder::new(arch, &mut rng);
    for _ in 0..config.num_swaps {
        builder.add_section()?;
    }
    builder.pad(config);
    Ok(builder.finish(arch, config))
}

/// Incremental construction state.
struct Builder<'a, 'r> {
    arch: &'a Architecture,
    rng: &'r mut ChaCha8Rng,
    /// Program qubit → physical qubit, evolving as SWAPs are appended.
    prog_to_phys: Vec<NodeId>,
    /// Physical qubit → program qubit (full occupancy).
    phys_to_prog: Vec<NodeId>,
    /// Snapshot of `prog_to_phys` before each section's SWAP; `mappings[i]`
    /// is the mapping section `i`'s body executes under.
    mappings: Vec<Vec<NodeId>>,
    /// The initial mapping (program → physical).
    initial: Vec<NodeId>,
    /// Logical circuit built so far.
    circuit: Circuit,
    /// Reference transpiled circuit built so far.
    reference: Circuit,
    /// Per-section metadata.
    sections: Vec<Section>,
    /// Previous section's special gate (program pair), if any.
    prev_special: Option<(NodeId, NodeId)>,
}

impl<'a, 'r> Builder<'a, 'r> {
    fn new(arch: &'a Architecture, rng: &'r mut ChaCha8Rng) -> Self {
        let n = arch.num_qubits();
        // Random initial bijection between program and physical qubits.
        let mut phys_of: Vec<NodeId> = (0..n).collect();
        phys_of.shuffle(rng);
        let mut prog_at = vec![0; n];
        for (q, &p) in phys_of.iter().enumerate() {
            prog_at[p] = q;
        }
        Builder {
            arch,
            rng,
            prog_to_phys: phys_of.clone(),
            phys_to_prog: prog_at,
            mappings: Vec::new(),
            initial: phys_of,
            circuit: Circuit::new(n),
            reference: Circuit::new(n),
            sections: Vec::new(),
            prev_special: None,
        }
    }

    /// Physical coupler SWAPs that enable a new interaction, together with
    /// the endpoint to saturate (`p`) and the special partner (`p''`).
    ///
    /// Returns triples `(swap_edge, saturate, special_partner)`.
    fn swap_candidates(&self) -> Vec<(Edge, NodeId, NodeId)> {
        let coupling = self.arch.coupling_graph();
        let mut candidates = Vec::new();
        for edge in coupling.edges() {
            for (p, other) in [(edge.u, edge.v), (edge.v, edge.u)] {
                for &partner in coupling.neighbors(other) {
                    if partner != p && !coupling.has_edge(partner, p) {
                        candidates.push((edge, p, partner));
                    }
                }
            }
        }
        candidates
    }

    /// Adds one backbone section forcing exactly one SWAP (Algorithms 1–2).
    fn add_section(&mut self) -> Result<(), GenerateError> {
        let coupling = self.arch.coupling_graph();
        let candidates = self.swap_candidates();
        if candidates.is_empty() {
            return Err(GenerateError::UnsupportedArchitecture {
                detail: "no SWAP can enable a new interaction".into(),
            });
        }
        // Prefer saturating a high-degree endpoint: it minimises the number
        // of other qubits whose edges must also be saturated, keeping the
        // section (and hence the circuit) small.
        let best_degree = candidates
            .iter()
            .map(|&(_, p, _)| coupling.degree(p))
            .max()
            .expect("candidates is non-empty");
        let top: Vec<&(Edge, NodeId, NodeId)> = candidates
            .iter()
            .filter(|&&(_, p, _)| coupling.degree(p) == best_degree)
            .collect();
        let &&(swap_edge, saturate, partner) =
            top.choose(self.rng).expect("top candidates is non-empty");

        // --- Algorithm 1: body edges (program-qubit pairs). ---
        let mut body: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let saturate_degree = coupling.degree(saturate);
        for edge in coupling.edges() {
            let incident_to_saturate = edge.contains(saturate);
            let has_higher_degree_endpoint = coupling.degree(edge.u) > saturate_degree
                || coupling.degree(edge.v) > saturate_degree;
            if incident_to_saturate || has_higher_degree_endpoint {
                body.insert(self.program_pair(edge.u, edge.v));
            }
        }
        let special = self.program_pair(saturate, partner);
        debug_assert!(!body.contains(&special));

        // --- Connectors: make body ∪ {special} one component that also ---
        // --- touches the previous special gate's qubits.               ---
        let connectors = self.connect(&body, special, self.prev_special);
        body.extend(connectors);

        // --- Algorithm 2: gate ordering. ---
        let num_program = self.circuit.num_qubits();
        let special_edge = Edge::new(special.0, special.1);
        let mut first_half = Vec::new();
        if let Some(prev) = self.prev_special {
            let prev_edge = Edge::new(prev.0, prev.1);
            let mut h1 = Graph::with_nodes(num_program);
            for &(a, b) in &body {
                h1.add_edge(a, b);
            }
            h1.add_edge(prev.0, prev.1);
            first_half = bfs_edge_order(&h1, &[prev.0, prev.1], &[prev_edge]);
        }
        let mut h2 = Graph::with_nodes(num_program);
        for &(a, b) in &body {
            h2.add_edge(a, b);
        }
        h2.add_edge(special.0, special.1);
        let mut second_half = bfs_edge_order(&h2, &[special.0, special.1], &[special_edge]);
        second_half.reverse();

        // --- Emit the section into the logical and reference circuits. ---
        let section_index = self.sections.len();
        let mut body_indices = Vec::new();
        for edge in first_half.iter().chain(second_half.iter()) {
            body_indices.push(self.circuit.gate_count());
            let gate = Gate::cx(edge.u, edge.v);
            self.circuit.push(gate);
            self.reference
                .push(gate.map_qubits(|q| self.prog_to_phys[q]));
        }
        // SWAP, mapping update, then the special gate under the new mapping.
        self.mappings.push(self.prog_to_phys.clone());
        self.reference.push(Gate::swap(swap_edge.u, swap_edge.v));
        self.apply_swap(swap_edge.u, swap_edge.v);
        let special_index = self.circuit.gate_count();
        let special_gate = Gate::cx(special.0, special.1);
        self.circuit.push(special_gate);
        self.reference
            .push(special_gate.map_qubits(|q| self.prog_to_phys[q]));

        self.sections.push(Section {
            body_indices,
            special_index,
            swap_physical: (swap_edge.u, swap_edge.v),
            special_pair: special,
        });
        self.prev_special = Some(special);
        let _ = section_index;
        Ok(())
    }

    /// Translates a physical coupler into the program-qubit pair currently
    /// occupying it (canonical order).
    fn program_pair(&self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        let (qa, qb) = (self.phys_to_prog[a], self.phys_to_prog[b]);
        (qa.min(qb), qa.max(qb))
    }

    fn apply_swap(&mut self, a: NodeId, b: NodeId) {
        let qa = self.phys_to_prog[a];
        let qb = self.phys_to_prog[b];
        self.phys_to_prog[a] = qb;
        self.phys_to_prog[b] = qa;
        self.prog_to_phys[qa] = b;
        self.prog_to_phys[qb] = a;
    }

    /// Adds connector gates (coupler edges under the current mapping) so that
    /// the body edges form a *single* connected component on their own — one
    /// that also contains at least one qubit of the previous special gate.
    ///
    /// Connectivity must hold without the special edge (and without the
    /// previous special edge): the first-half BFS covers the body through the
    /// previous special gate's qubits and the second-half BFS covers it
    /// through the new special gate's qubits, and both orderings are only
    /// complete when the body itself is connected.
    fn connect(
        &mut self,
        body: &BTreeSet<(NodeId, NodeId)>,
        special: (NodeId, NodeId),
        prev_special: Option<(NodeId, NodeId)>,
    ) -> Vec<(NodeId, NodeId)> {
        let num_program = self.circuit.num_qubits();
        let mut connectors: Vec<(NodeId, NodeId)> = Vec::new();
        loop {
            // Component structure of the body (plus connectors) built so far.
            let mut graph = Graph::with_nodes(num_program);
            for &(a, b) in body.iter().chain(connectors.iter()) {
                graph.add_edge(a, b);
            }
            let seed = *body.iter().next().expect("section body is never empty");

            let mut root = vec![false; num_program];
            let mut queue = VecDeque::from([seed.0, seed.1]);
            root[seed.0] = true;
            root[seed.1] = true;
            while let Some(q) = queue.pop_front() {
                for &nb in graph.neighbors(q) {
                    if !root[nb] {
                        root[nb] = true;
                        queue.push_back(nb);
                    }
                }
            }

            // A program qubit that still needs to be reached: an endpoint of
            // an unconnected body edge, or the previous special gate's qubit.
            let mut target = None;
            for &(a, b) in body.iter().chain(connectors.iter()) {
                if !root[a] {
                    target = Some(a);
                    break;
                }
                if !root[b] {
                    target = Some(b);
                    break;
                }
            }
            if target.is_none() {
                if let Some(prev) = prev_special {
                    if !root[prev.0] && !root[prev.1] {
                        target = Some(prev.0);
                    }
                }
            }
            let Some(target) = target else {
                return connectors;
            };

            // Shortest physical path from the target's location to the root
            // component; every hop becomes a connector gate.
            let path = self.physical_path_to_root(&root, target);
            for window in path.windows(2) {
                let pair = self.program_pair(window[0], window[1]);
                if pair != special && !body.contains(&pair) && !connectors.contains(&pair) {
                    connectors.push(pair);
                }
            }
        }
    }

    /// BFS over the coupling graph from `target`'s physical location to the
    /// nearest physical location hosting a root-component program qubit.
    /// Returns the physical path (target end first).
    fn physical_path_to_root(&self, root: &[bool], target: NodeId) -> Vec<NodeId> {
        let coupling = self.arch.coupling_graph();
        let start = self.prog_to_phys[target];
        let mut parent = vec![usize::MAX; coupling.node_count()];
        let mut seen = vec![false; coupling.node_count()];
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        let mut goal = None;
        'bfs: while let Some(p) = queue.pop_front() {
            for &nb in coupling.neighbors(p) {
                if seen[nb] {
                    continue;
                }
                seen[nb] = true;
                parent[nb] = p;
                if root[self.phys_to_prog[nb]] {
                    goal = Some(nb);
                    break 'bfs;
                }
                queue.push_back(nb);
            }
        }
        let goal = goal.expect("connected coupling graph always reaches the root component");
        let mut path = vec![goal];
        let mut cur = goal;
        while cur != start {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Inserts redundant padding gates until the two-qubit gate target is met,
    /// plus cosmetic single-qubit gates (Algorithm 3, final loop).
    fn pad(&mut self, config: &GeneratorConfig) {
        let coupling = self.arch.coupling_graph();
        let couplers: Vec<Edge> = coupling.edges().collect();
        while self.circuit.two_qubit_gate_count() < config.target_two_qubit_gates {
            let section_idx = self.rng.gen_range(0..self.sections.len());
            let edge = *couplers
                .choose(self.rng)
                .expect("architecture has couplers");
            let mapping = &self.mappings[section_idx];
            // Program pair occupying this coupler while section `section_idx`
            // executes (mapping snapshots are program→physical, invert lazily).
            let qa = mapping
                .iter()
                .position(|&p| p == edge.u)
                .expect("full occupancy");
            let qb = mapping
                .iter()
                .position(|&p| p == edge.v)
                .expect("full occupancy");
            let gate = Gate::cx(qa.min(qb), qa.max(qb));
            self.insert_padding(section_idx, gate);
        }
        let singles =
            (self.circuit.two_qubit_gate_count() as f64 * config.single_qubit_ratio) as usize;
        let kinds = OneQubitKind::ALL;
        for _ in 0..singles {
            let section_idx = self.rng.gen_range(0..self.sections.len());
            let qubit = self.rng.gen_range(0..self.circuit.num_qubits());
            let kind = kinds[self.rng.gen_range(0..kinds.len())];
            self.insert_padding(section_idx, Gate::one(kind, qubit));
        }
    }

    /// Inserts `gate` at a random position inside section `section_idx`'s
    /// body (always between the previous special gate and this section's
    /// special gate), mirrors it into the reference solution under that
    /// section's mapping, and shifts all recorded indices.
    fn insert_padding(&mut self, section_idx: usize, gate: Gate) {
        let section = &self.sections[section_idx];
        let low = section
            .body_indices
            .first()
            .copied()
            .unwrap_or(section.special_index);
        let high = section.special_index;
        let pos = self.rng.gen_range(low..=high);
        let mapping = &self.mappings[section_idx];
        let physical_gate = gate.map_qubits(|q| mapping[q]);

        self.circuit.insert(pos, gate);
        // The reference circuit has one extra SWAP gate per preceding section.
        self.reference.insert(pos + section_idx, physical_gate);

        for section in &mut self.sections {
            for idx in &mut section.body_indices {
                if *idx >= pos {
                    *idx += 1;
                }
            }
            if section.special_index >= pos {
                section.special_index += 1;
            }
        }
    }

    fn finish(self, arch: &Architecture, config: &GeneratorConfig) -> QubikosCircuit {
        let mapping = Mapping::from_prog_to_phys(self.initial.clone(), arch.num_qubits());
        QubikosCircuit::new(
            self.circuit,
            self.sections.len(),
            arch.name(),
            mapping,
            self.reference,
            self.sections,
            config.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;

    #[test]
    fn rejects_zero_swaps() {
        let arch = devices::grid(3, 3);
        let err = generate(&arch, &GeneratorConfig::new(0, 10)).unwrap_err();
        assert_eq!(err, GenerateError::ZeroSwaps);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_complete_coupling_graph() {
        let arch = qubikos_arch::Architecture::new(
            "complete-4",
            qubikos_graph::generators::complete_graph(4),
        )
        .expect("connected");
        let err = generate(&arch, &GeneratorConfig::new(1, 10)).unwrap_err();
        assert!(matches!(err, GenerateError::UnsupportedArchitecture { .. }));
    }

    #[test]
    fn rejects_tiny_architecture() {
        let arch = devices::line(2);
        let err = generate(&arch, &GeneratorConfig::new(1, 10)).unwrap_err();
        assert!(matches!(err, GenerateError::UnsupportedArchitecture { .. }));
    }

    #[test]
    fn generates_requested_swap_count_and_size() {
        let arch = devices::grid(3, 3);
        let config = GeneratorConfig::new(3, 40).with_seed(5);
        let bench = generate(&arch, &config).expect("generates");
        assert_eq!(bench.optimal_swaps(), 3);
        assert_eq!(bench.sections().len(), 3);
        assert!(bench.circuit().two_qubit_gate_count() >= 40);
        assert_eq!(bench.reference_solution().swap_count(), 3);
        assert_eq!(bench.architecture(), "grid-3x3");
        // Single-qubit padding was added.
        assert!(bench.circuit().gate_count() > bench.circuit().two_qubit_gate_count());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let arch = devices::aspen4();
        let config = GeneratorConfig::new(2, 60).with_seed(11);
        let a = generate(&arch, &config).expect("generates");
        let b = generate(&arch, &config).expect("generates");
        assert_eq!(a, b);
        let c = generate(&arch, &config.with_seed(12)).expect("generates");
        assert_ne!(a.circuit(), c.circuit());
    }

    #[test]
    fn backbone_indices_point_at_two_qubit_gates() {
        let arch = devices::grid(3, 3);
        let bench = generate(&arch, &GeneratorConfig::new(2, 35).with_seed(3)).expect("generates");
        for section in bench.sections() {
            for &idx in &section.backbone_indices() {
                assert!(bench.circuit().gates()[idx].is_two_qubit());
            }
            let special = bench.circuit().gates()[section.special_index];
            let (a, b) = special.qubit_pair().expect("two-qubit");
            assert_eq!((a.min(b), a.max(b)), section.special_pair);
        }
    }

    #[test]
    fn works_on_every_evaluation_architecture() {
        for kind in qubikos_arch::DeviceKind::EVALUATION {
            let arch = kind.build();
            let bench =
                generate(&arch, &GeneratorConfig::new(2, 50).with_seed(1)).expect("generates");
            assert_eq!(bench.optimal_swaps(), 2);
            assert_eq!(bench.reference_solution().swap_count(), 2);
        }
    }

    #[test]
    fn zero_single_qubit_ratio_emits_only_two_qubit_gates() {
        let arch = devices::grid(3, 3);
        let config = GeneratorConfig::new(1, 20)
            .with_seed(2)
            .with_single_qubit_ratio(0.0);
        let bench = generate(&arch, &config).expect("generates");
        assert_eq!(
            bench.circuit().gate_count(),
            bench.circuit().two_qubit_gate_count()
        );
    }
}
