//! A t|ket⟩-style greedy distance-directed router.
//!
//! The routing pass follows the spirit of the published t|ket⟩ qubit-routing
//! approach: a structure-aware initial placement followed by a greedy loop
//! that repeatedly applies the SWAP which most reduces the summed distance of
//! the currently blocked gates, with no decay term, no extended-set
//! lookahead beyond the current front, and no random restarts. Its results
//! are valid but markedly less efficient than the SABRE family on large
//! devices, which is the qualitative behaviour the paper reports for t|ket⟩.
//!
//! The shared machinery — DAG construction, front tracking, incremental
//! front-distance scoring and the greedy loop itself — comes from
//! [`crate::kernel`]; this router is simply the composition of a front-only
//! [`WindowLookahead`], [`NoDecay`], first-candidate
//! [`QubitIndexTies`] tie-breaking (which reproduces t|ket⟩'s
//! first-integer-minimum selection exactly — see the tie-breaker docs) and
//! greedy-BFS placement, run as a single forward pass.

use crate::kernel::{
    check_fit, run_greedy_pass, GreedyBfsRestarts, GreedyPolicies, GreedyScratch, NoDecay,
    PlacementStrategy, QubitIndexTies, RoutingProblem, WindowLookahead,
};
use crate::result::RoutedCircuit;
use crate::router::{RouteError, Router};
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::CouplerWeights;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the t|ket⟩-style router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TketConfig {
    /// RNG seed (reserved for placement randomisation; the routing loop is
    /// deterministic).
    pub seed: u64,
    /// Number of greedy SWAPs without progress after which the router falls
    /// back to routing the closest blocked gate along a shortest path.
    pub stall_threshold: usize,
}

impl Default for TketConfig {
    fn default() -> Self {
        TketConfig {
            seed: 0,
            stall_threshold: 16,
        }
    }
}

impl TketConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Greedy distance-directed router in the spirit of t|ket⟩.
#[derive(Debug, Clone, Default)]
pub struct TketRouter {
    config: TketConfig,
}

impl TketRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: TketConfig) -> Self {
        TketRouter { config }
    }
}

impl Router for TketRouter {
    fn route(&self, circuit: &Circuit, arch: &Architecture) -> Result<RoutedCircuit, RouteError> {
        check_fit(circuit, arch)?;
        let problem = RoutingProblem::forward_only(circuit);
        let lookahead = WindowLookahead::front_only();
        let weights = CouplerWeights::uniform();
        let policies = GreedyPolicies {
            lookahead: &lookahead,
            decay: &NoDecay,
            tie_breaker: &QubitIndexTies,
            weights: &weights,
            stall_threshold: self.config.stall_threshold,
        };
        let mut scratch = GreedyScratch::default();
        // The deterministic tie-breaker and trial-0 placement never draw
        // from the RNG; it exists to satisfy the pass signature.
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let initial = GreedyBfsRestarts.place(0, circuit, arch, &mut rng);
        let mut out = Circuit::new(arch.num_qubits());
        let final_mapping = run_greedy_pass(
            problem.forward(),
            arch,
            &policies,
            initial.clone(),
            &mut rng,
            &mut scratch,
            Some(&mut out),
        );

        Ok(RoutedCircuit {
            physical_circuit: out,
            initial_mapping: initial,
            final_mapping,
            tool: self.name().to_string(),
        })
    }

    fn name(&self) -> &str {
        "tket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_routing;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;
    use rand::Rng;

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
    fn routes_valid_circuits_on_grid() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(8, 40, 17);
        let routed = TketRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn routes_valid_circuits_on_aspen() {
        let arch = devices::aspen4();
        let circuit = random_circuit(16, 80, 23);
        let routed = TketRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn executable_circuit_needs_no_swaps() {
        let arch = devices::line(4);
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(2, 3)]);
        let routed = TketRouter::default().route(&circuit, &arch).expect("fits");
        assert_eq!(routed.swap_count(), 0);
    }

    #[test]
    fn preserves_single_qubit_gates() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::h(0), Gate::cx(0, 2), Gate::t(0), Gate::x(2)]);
        let routed = TketRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
        let ones = routed
            .physical_circuit
            .gates()
            .iter()
            .filter(|g| !g.is_two_qubit())
            .count();
        assert_eq!(ones, 3);
    }

    #[test]
    fn rejects_oversized_circuit() {
        let arch = devices::line(2);
        let circuit = random_circuit(4, 10, 0);
        assert!(matches!(
            TketRouter::default().route(&circuit, &arch).unwrap_err(),
            RouteError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn config_builder() {
        let config = TketConfig::default().with_seed(7);
        assert_eq!(config.seed, 7);
        assert_eq!(TketRouter::new(config).name(), "tket");
    }
}
