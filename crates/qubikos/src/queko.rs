//! QUEKO-style companion benchmarks: known optimal depth, zero SWAPs.
//!
//! The paper positions QUBIKOS against the earlier QUEKO benchmark (Tan &
//! Cong, 2020), whose circuits have a *known-optimal depth* and never need a
//! SWAP — which is why subgraph-isomorphism placement solves them outright
//! and why they cannot measure SWAP-count optimality gaps. This module
//! provides a QUEKO-style generator so the suite can demonstrate that
//! contrast experimentally (see the `qubikos_circuits_defeat_vf2_placement`
//! integration test and the quickstart examples):
//!
//! * every gate is a coupler edge under one fixed mapping, so the optimal
//!   SWAP count is **0** and VF2 placement recovers a SWAP-free layout;
//! * a dependency chain of length `depth` runs through the circuit, so no
//!   transpilation can schedule it in fewer than `depth` two-qubit layers,
//!   while the construction itself achieves exactly `depth`.

use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate};
use qubikos_layout::Mapping;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Configuration of a QUEKO-style instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuekoConfig {
    /// Target (and provably optimal) two-qubit depth.
    pub depth: usize,
    /// Average number of two-qubit gates per layer beyond the backbone gate,
    /// expressed as a fraction of the device's couplers (0.0 = backbone only).
    pub density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl QuekoConfig {
    /// Creates a configuration with a moderate gate density.
    pub fn new(depth: usize) -> Self {
        QuekoConfig {
            depth,
            density: 0.3,
            seed: 0,
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different layer density.
    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density.clamp(0.0, 1.0);
        self
    }
}

/// Errors the QUEKO generator can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuekoError {
    /// Depth zero was requested.
    ZeroDepth,
    /// The device has no couplers to build gates from.
    NoCouplers,
}

impl fmt::Display for QuekoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuekoError::ZeroDepth => write!(f, "QUEKO instances need a depth of at least one"),
            QuekoError::NoCouplers => write!(f, "architecture has no couplers"),
        }
    }
}

impl Error for QuekoError {}

/// A QUEKO-style benchmark: SWAP-free with a known optimal two-qubit depth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuekoCircuit {
    circuit: Circuit,
    optimal_depth: usize,
    architecture: String,
    reference_mapping: Mapping,
    seed: u64,
}

impl QuekoCircuit {
    /// The logical circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The provably optimal two-qubit depth.
    pub fn optimal_depth(&self) -> usize {
        self.optimal_depth
    }

    /// The optimal SWAP count — always zero, by construction.
    pub fn optimal_swaps(&self) -> usize {
        0
    }

    /// Name of the architecture the benchmark targets.
    pub fn architecture(&self) -> &str {
        &self.architecture
    }

    /// A mapping under which the whole circuit executes without SWAPs.
    pub fn reference_mapping(&self) -> &Mapping {
        &self.reference_mapping
    }

    /// Seed the instance was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl fmt::Display for QuekoCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QUEKO[{}] optimal_depth={} gates={} seed={}",
            self.architecture,
            self.optimal_depth,
            self.circuit.gate_count(),
            self.seed
        )
    }
}

/// Generates a QUEKO-style instance for `arch`.
///
/// # Errors
///
/// Returns [`QuekoError::ZeroDepth`] for `depth == 0` and
/// [`QuekoError::NoCouplers`] for a device without couplers.
pub fn generate_queko(
    arch: &Architecture,
    config: &QuekoConfig,
) -> Result<QuekoCircuit, QuekoError> {
    if config.depth == 0 {
        return Err(QuekoError::ZeroDepth);
    }
    let couplers: Vec<_> = arch.couplers().collect();
    if couplers.is_empty() {
        return Err(QuekoError::NoCouplers);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let num_qubits = arch.num_qubits();

    // Random bijection program → physical; gates are built on physical
    // couplers and translated back through it.
    let mut phys_of: Vec<usize> = (0..num_qubits).collect();
    phys_of.shuffle(&mut rng);
    let mut prog_at = vec![0usize; num_qubits];
    for (q, &p) in phys_of.iter().enumerate() {
        prog_at[p] = q;
    }

    let mut circuit = Circuit::new(num_qubits);
    let extra_per_layer = (couplers.len() as f64 * config.density).round() as usize;
    // The backbone chain: each layer's backbone gate shares a physical qubit
    // with the previous layer's, forcing the dependency chain (and hence the
    // depth lower bound).
    let mut chain_qubit = {
        let edge = couplers[rng.gen_range(0..couplers.len())];
        edge.u
    };
    for _ in 0..config.depth {
        let mut busy = vec![false; num_qubits];
        // Backbone gate: a coupler incident to the chain qubit.
        let neighbors = arch.neighbors(chain_qubit);
        let next = neighbors[rng.gen_range(0..neighbors.len())];
        circuit.push(Gate::cx(prog_at[chain_qubit], prog_at[next]));
        busy[chain_qubit] = true;
        busy[next] = true;
        chain_qubit = next;
        // Filler gates: random couplers on otherwise idle qubits, so the
        // layer stays parallel and the depth is unchanged.
        for _ in 0..extra_per_layer {
            let edge = couplers[rng.gen_range(0..couplers.len())];
            if busy[edge.u] || busy[edge.v] {
                continue;
            }
            busy[edge.u] = true;
            busy[edge.v] = true;
            circuit.push(Gate::cx(prog_at[edge.u], prog_at[edge.v]));
        }
    }

    debug_assert_eq!(circuit.two_qubit_depth(), config.depth);
    Ok(QuekoCircuit {
        circuit,
        optimal_depth: config.depth,
        architecture: arch.name().to_string(),
        reference_mapping: Mapping::from_prog_to_phys(phys_of, num_qubits),
        seed: config.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_layout::{validate_routing, vf2_placement, Router, RouterSpec};

    #[test]
    fn rejects_bad_configs() {
        let arch = devices::grid(3, 3);
        assert_eq!(
            generate_queko(&arch, &QuekoConfig::new(0)).unwrap_err(),
            QuekoError::ZeroDepth
        );
        assert!(!QuekoError::NoCouplers.to_string().is_empty());
    }

    #[test]
    fn depth_matches_design_and_mapping_is_swap_free() {
        for (arch, depth) in [(devices::grid(3, 3), 5), (devices::aspen4(), 12)] {
            let queko =
                generate_queko(&arch, &QuekoConfig::new(depth).with_seed(3)).expect("generates");
            assert_eq!(queko.optimal_depth(), depth);
            assert_eq!(queko.optimal_swaps(), 0);
            assert_eq!(queko.circuit().two_qubit_depth(), depth);
            // Every gate is executable under the reference mapping.
            let mapping = queko.reference_mapping();
            for gate in queko.circuit().two_qubit_gates() {
                let (a, b) = gate.qubit_pair().expect("two-qubit");
                assert!(arch.are_coupled(mapping.physical(a), mapping.physical(b)));
            }
        }
    }

    #[test]
    fn vf2_placement_solves_queko_but_not_qubikos() {
        // The contrast the paper draws: QUEKO is solved outright by subgraph
        // isomorphism, QUBIKOS never is.
        let arch = devices::aspen4();
        let queko = generate_queko(&arch, &QuekoConfig::new(8).with_seed(1)).expect("generates");
        assert!(vf2_placement(queko.circuit(), &arch).is_some());

        let qubikos = crate::generate(&arch, &crate::GeneratorConfig::new(1, 40).with_seed(1))
            .expect("generates");
        assert!(vf2_placement(qubikos.circuit(), &arch).is_none());
    }

    #[test]
    fn sabre_routes_queko_without_swaps_given_the_mapping() {
        let arch = devices::grid(3, 3);
        let queko = generate_queko(&arch, &QuekoConfig::new(6).with_seed(2)).expect("generates");
        let router = RouterSpec::lightsabre().build(0);
        let routed = router
            .route_with_initial_mapping(queko.circuit(), &arch, queko.reference_mapping())
            .expect("fits");
        validate_routing(queko.circuit(), &arch, &routed).expect("valid");
        assert_eq!(routed.swap_count(), 0);
        // Even with its own placement search the router should find a
        // SWAP-free embedding for such a small instance.
        let routed = router.route(queko.circuit(), &arch).expect("fits");
        assert_eq!(routed.swap_count(), 0);
    }

    #[test]
    fn density_controls_gate_count() {
        let arch = devices::sycamore54();
        let sparse = generate_queko(&arch, &QuekoConfig::new(10).with_density(0.0).with_seed(4))
            .expect("generates");
        let dense = generate_queko(&arch, &QuekoConfig::new(10).with_density(0.8).with_seed(4))
            .expect("generates");
        assert_eq!(sparse.circuit().two_qubit_gate_count(), 10);
        assert!(
            dense.circuit().two_qubit_gate_count() > 3 * sparse.circuit().two_qubit_gate_count()
        );
        assert_eq!(dense.circuit().two_qubit_depth(), 10);
    }

    #[test]
    fn deterministic_and_displayable() {
        let arch = devices::grid(3, 3);
        let a = generate_queko(&arch, &QuekoConfig::new(4).with_seed(9)).expect("generates");
        let b = generate_queko(&arch, &QuekoConfig::new(4).with_seed(9)).expect("generates");
        assert_eq!(a, b);
        assert!(a.to_string().contains("optimal_depth=4"));
        let json = serde_json::to_string(&a).expect("serialize");
        let back: QuekoCircuit = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, a);
    }
}
