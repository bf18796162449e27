//! The router construction kit: routers as named compositions of policies.
//!
//! A [`RouterSpec`] is a small, serializable value describing one point in
//! the routing design space — a search engine ([`SearchSpec`]) plus one
//! choice per policy axis of [`crate::kernel::policy`]: lookahead
//! ([`LookaheadSpec`]), decay ([`DecaySpec`]), tie-breaking
//! ([`TieBreakerSpec`]), placement ([`PlacementSpec`]) and coupler
//! weighting ([`WeightsSpec`]). [`RouterSpec::build`] turns a spec plus an
//! RNG seed into a [`ComposedRouter`] implementing [`Router`].
//!
//! [`ComposedRouter`] is the only [`Router`]. The four paper tools are named
//! compositions — [`RouterSpec::lightsabre`], [`RouterSpec::tket`],
//! [`RouterSpec::ml_qls`], [`RouterSpec::qmap`] — and
//! [`ToolKind::build`](crate::ToolKind::build) is a thin alias over them;
//! the golden fixtures (`tests/golden_swaps.rs`) pin each one's SWAP counts
//! and routed gate streams, in both the full and the standalone
//! ([`ComposedRouter::route_with_initial_mapping`]) mode. Everything else
//! in the cross-product is an ablation variant the benchmark harness can
//! enumerate and rank against the known-optimal suite.
//!
//! Every spec has a stable, human-readable [`RouterSpec::id`] such as
//! `g16x3s64.la20w0.5.dec0.001r5.randtie.bfs.uw`; the ablation matrix uses
//! it as the cache namespace, so per-composition results are keyed by
//! composition identity.

use crate::astar::route_layers;
use crate::kernel::{
    check_fit, run_greedy_pass, AdditiveDecay, DecaySchedule, DistanceRefinedTies,
    GreedyBfsRestarts, GreedyPolicies, GreedyScratch, IdentityPlacement, NoDecay,
    PlacementStrategy, QubitIndexTies, RoutingProblem, SeededRandomTies, TieBreaker,
    WindowLookahead,
};
use crate::mapping::Mapping;
use crate::multilevel::MultilevelRouter;
use crate::result::RoutedCircuit;
use crate::router::{RouteError, Router};
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::CouplerWeights;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The lookahead axis of a composition: how far past the blocked front the
/// scorer looks, and how the extra gates are weighted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LookaheadSpec {
    /// Extended-set size (0 = front-only scoring).
    pub window: usize,
    /// Weight of the extended-set term.
    pub extended_set_weight: f64,
    /// Optional per-depth decay across the extended set.
    pub depth_decay: Option<f64>,
}

impl LookaheadSpec {
    /// LightSABRE's published lookahead (20 gates at weight 0.5, uniform).
    pub fn sabre_default() -> Self {
        LookaheadSpec {
            window: 20,
            extended_set_weight: 0.5,
            depth_decay: None,
        }
    }

    /// Front-only scoring — no lookahead.
    pub fn front_only() -> Self {
        LookaheadSpec {
            window: 0,
            extended_set_weight: 0.0,
            depth_decay: None,
        }
    }

    /// The kernel policy this spec describes.
    pub fn policy(&self) -> WindowLookahead {
        WindowLookahead {
            window: self.window,
            extended_set_weight: self.extended_set_weight,
            depth_decay: self.depth_decay,
        }
    }

    fn id_part(&self) -> String {
        if self.window == 0 {
            return "front".to_string();
        }
        let mut s = format!("la{}w{}", self.window, self.extended_set_weight);
        if let Some(d) = self.depth_decay {
            s.push_str(&format!("d{d}"));
        }
        s
    }
}

/// The decay axis: whether recently-swapped qubits are penalised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecaySpec {
    /// No decay; scores are never inflated.
    None,
    /// SABRE-style additive decay.
    Additive {
        /// Additive per-SWAP bump.
        increment: f64,
        /// Decisions between resets.
        reset_interval: usize,
    },
}

impl DecaySpec {
    /// SABRE's published decay (increment 0.001, reset every 5 decisions).
    pub fn sabre_default() -> Self {
        DecaySpec::Additive {
            increment: 0.001,
            reset_interval: 5,
        }
    }

    fn id_part(&self) -> String {
        match self {
            DecaySpec::None => "nodecay".to_string(),
            DecaySpec::Additive {
                increment,
                reset_interval,
            } => format!("dec{increment}r{reset_interval}"),
        }
    }
}

/// The tie-breaking axis: how one SWAP is picked from the exact-tie band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TieBreakerSpec {
    /// Uniform draw from the tie set with the trial's seeded RNG (SABRE).
    SeededRandom,
    /// First tie in coupler order (t|ket⟩'s first-minimum selection).
    QubitIndex,
    /// Deterministic refinement by resulting front distance, then coupler
    /// order.
    DistanceRefined,
}

impl TieBreakerSpec {
    fn id_part(&self) -> &'static str {
        match self {
            TieBreakerSpec::SeededRandom => "randtie",
            TieBreakerSpec::QubitIndex => "idxtie",
            TieBreakerSpec::DistanceRefined => "disttie",
        }
    }
}

/// The placement axis: where each trial's initial mapping comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// Structure-aware greedy-BFS placement with random restarts.
    GreedyBfs,
    /// ML-QLS-style multilevel coarsen–place–refine placement.
    Multilevel,
    /// The trivial identity placement (program qubit `q` on physical `q`).
    Identity,
}

impl PlacementSpec {
    fn id_part(&self) -> &'static str {
        match self {
            PlacementSpec::GreedyBfs => "bfs",
            PlacementSpec::Multilevel => "mlp",
            PlacementSpec::Identity => "ident",
        }
    }
}

/// The coupler-weighting axis: how much a SWAP on each edge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightsSpec {
    /// Every coupler costs exactly the same (the classic cost model; scores
    /// are bitwise identical to a weight-free router).
    Uniform,
    /// Deterministic synthetic fidelity weights in `[1.0, 2.0)` drawn from
    /// a seeded hash of each coupler (see
    /// [`CouplerWeights::fidelity_derived`]).
    Fidelity {
        /// Seed of the synthetic noise model (not the routing seed).
        seed: u64,
    },
}

impl WeightsSpec {
    /// Materialises the weights for a concrete device.
    pub fn build(&self, arch: &Architecture) -> CouplerWeights {
        match *self {
            WeightsSpec::Uniform => CouplerWeights::uniform(),
            WeightsSpec::Fidelity { seed } => {
                CouplerWeights::fidelity_derived(arch.coupling_graph(), seed)
            }
        }
    }

    fn id_part(&self) -> String {
        match self {
            WeightsSpec::Uniform => "uw".to_string(),
            WeightsSpec::Fidelity { seed } => format!("fw{seed}"),
        }
    }
}

/// The search-engine axis: the outer loop the policies plug into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchSpec {
    /// The greedy SWAP-insertion loop ([`run_greedy_pass`]) with
    /// random-restart trials and forward/backward mapping passes — the
    /// SABRE/t|ket⟩ family.
    Greedy {
        /// Random-restart trials (best result wins).
        trials: usize,
        /// Forward/backward mapping passes per trial (1 = forward only).
        mapping_passes: usize,
        /// SWAPs without progress before the release valve fires.
        stall_threshold: usize,
    },
    /// The QMAP-style per-layer A* search. Deterministic given the
    /// placement; the lookahead/decay/tie/weights axes do not apply (the
    /// grid canonicalizes them away).
    AStar {
        /// State-expansion budget per layer.
        max_expansions: usize,
    },
}

impl SearchSpec {
    fn id_part(&self) -> String {
        match *self {
            SearchSpec::Greedy {
                trials,
                mapping_passes,
                stall_threshold,
            } => format!("g{trials}x{mapping_passes}s{stall_threshold}"),
            SearchSpec::AStar { max_expansions } => format!("astar{max_expansions}"),
        }
    }
}

/// One point in the routing design space: a search engine plus one choice
/// per policy axis. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterSpec {
    /// Search engine.
    pub search: SearchSpec,
    /// Lookahead axis.
    pub lookahead: LookaheadSpec,
    /// Decay axis.
    pub decay: DecaySpec,
    /// Tie-breaking axis.
    pub tie_breaker: TieBreakerSpec,
    /// Placement axis.
    pub placement: PlacementSpec,
    /// Coupler-weighting axis.
    pub weights: WeightsSpec,
}

impl RouterSpec {
    /// The LightSABRE composition: 16-trial, 3-pass greedy search with the
    /// published lookahead and decay, seeded-random ties, greedy-BFS
    /// restarts, uniform weights. The paper's §IV-C case study routes it
    /// from the optimal mapping with
    /// [`ComposedRouter::route_with_initial_mapping`].
    pub fn lightsabre() -> Self {
        RouterSpec {
            search: SearchSpec::Greedy {
                trials: 16,
                mapping_passes: 3,
                stall_threshold: 64,
            },
            lookahead: LookaheadSpec::sabre_default(),
            decay: DecaySpec::sabre_default(),
            tie_breaker: TieBreakerSpec::SeededRandom,
            placement: PlacementSpec::GreedyBfs,
            weights: WeightsSpec::Uniform,
        }
    }

    /// The t|ket⟩-style composition: one front-only greedy pass, no decay,
    /// first-candidate ties (t|ket⟩'s first-integer-minimum selection),
    /// greedy-BFS placement.
    pub fn tket() -> Self {
        RouterSpec {
            search: SearchSpec::Greedy {
                trials: 1,
                mapping_passes: 1,
                stall_threshold: 16,
            },
            lookahead: LookaheadSpec::front_only(),
            decay: DecaySpec::None,
            tie_breaker: TieBreakerSpec::QubitIndex,
            placement: PlacementSpec::GreedyBfs,
            weights: WeightsSpec::Uniform,
        }
    }

    /// The ML-QLS composition: multilevel placement followed by a single
    /// SABRE-policy routing pass ([`MultilevelRouter`] places, with its
    /// default tuning).
    pub fn ml_qls() -> Self {
        RouterSpec {
            search: SearchSpec::Greedy {
                trials: 1,
                mapping_passes: 1,
                stall_threshold: 64,
            },
            lookahead: LookaheadSpec::sabre_default(),
            decay: DecaySpec::sabre_default(),
            tie_breaker: TieBreakerSpec::SeededRandom,
            placement: PlacementSpec::Multilevel,
            weights: WeightsSpec::Uniform,
        }
    }

    /// The QMAP composition: per-layer A* (4000 expansions per layer) from
    /// a greedy-BFS placement.
    pub fn qmap() -> Self {
        RouterSpec {
            search: SearchSpec::AStar {
                max_expansions: 4000,
            },
            lookahead: LookaheadSpec::front_only(),
            decay: DecaySpec::None,
            tie_breaker: TieBreakerSpec::QubitIndex,
            placement: PlacementSpec::GreedyBfs,
            weights: WeightsSpec::Uniform,
        }
    }

    /// Collapses spec distinctions that cannot change routing behaviour, so
    /// the cross-product enumeration dedups equivalent points:
    ///
    /// * the A* search ignores the lookahead/decay/tie/weights axes
    ///   entirely, so they are pinned to their neutral values;
    /// * a zero lookahead window never reads the extended-set weight or
    ///   depth decay;
    /// * an additive decay with increment `0.0` never changes any factor.
    pub fn canonicalized(mut self) -> Self {
        if let SearchSpec::AStar { .. } = self.search {
            self.lookahead = LookaheadSpec::front_only();
            self.decay = DecaySpec::None;
            self.tie_breaker = TieBreakerSpec::QubitIndex;
            self.weights = WeightsSpec::Uniform;
        }
        if self.lookahead.window == 0 {
            self.lookahead = LookaheadSpec::front_only();
        }
        if let DecaySpec::Additive { increment, .. } = self.decay {
            if increment == 0.0 {
                self.decay = DecaySpec::None;
            }
        }
        self
    }

    /// A stable, human-readable identity string, unique per canonical spec
    /// — e.g. `g16x3s64.la20w0.5.dec0.001r5.randtie.bfs.uw`. Contains only
    /// `[a-z0-9.*]`-safe characters, so the ablation matrix can use it
    /// directly as a cache namespace (see `qubikos_engine::JobKey`).
    pub fn id(&self) -> String {
        format!(
            "{}.{}.{}.{}.{}.{}",
            self.search.id_part(),
            self.lookahead.id_part(),
            self.decay.id_part(),
            self.tie_breaker.id_part(),
            self.placement.id_part(),
            self.weights.id_part()
        )
    }

    /// Builds the composed router for this spec, named by [`Self::id`].
    pub fn build(self, seed: u64) -> ComposedRouter {
        let name = self.id();
        self.build_named(seed, name)
    }

    /// Builds the composed router with an explicit display name — how
    /// [`ToolKind::build`](crate::ToolKind::build) keeps the four paper
    /// tools' routed circuits tagged `lightsabre`/`tket`/`ml-qls`/`qmap`
    /// (and their cache entries compatible) while running on the kit.
    pub fn build_named(self, seed: u64, name: impl Into<String>) -> ComposedRouter {
        ComposedRouter {
            spec: self,
            seed,
            name: name.into(),
        }
    }
}

/// A router assembled from a [`RouterSpec`]. See the module docs.
#[derive(Debug, Clone)]
pub struct ComposedRouter {
    spec: RouterSpec,
    seed: u64,
    name: String,
}

impl ComposedRouter {
    /// The spec this router was assembled from.
    pub fn spec(&self) -> &RouterSpec {
        &self.spec
    }

    /// The routing seed (restart mapping draws and tie-breaking).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Routes `circuit` from a caller-supplied initial mapping, skipping
    /// placement: the paper's standalone-router mode (§IV-C). QUBIKOS
    /// supplies the known-optimal initial mapping, so every excess SWAP is
    /// the router's. A greedy spec runs one unbounded forward pass with its
    /// policies and an RNG seeded with the router seed (its trial and pass
    /// counts do not apply); an A* spec runs its per-layer search.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::TooManyQubits`] if the circuit does not fit.
    pub fn route_with_initial_mapping(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        initial: &Mapping,
    ) -> Result<RoutedCircuit, RouteError> {
        check_fit(circuit, arch)?;
        Ok(match self.spec.search {
            SearchSpec::Greedy {
                stall_threshold, ..
            } => {
                let problem = RoutingProblem::forward_only(circuit);
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
                self.with_policies(arch, stall_threshold, |policies| {
                    self.final_pass(
                        &problem,
                        arch,
                        policies,
                        initial.clone(),
                        &mut rng,
                        &mut GreedyScratch::default(),
                    )
                })
                .expect("an unbounded pass runs to the end")
            }
            SearchSpec::AStar { max_expansions } => {
                let (physical, final_mapping) =
                    route_layers(circuit, arch, initial, max_expansions);
                self.routed(physical, initial.clone(), final_mapping)
            }
        })
    }

    /// Calls `f` with the spec's greedy policy bundle, unbounded.
    fn with_policies<R>(
        &self,
        arch: &Architecture,
        stall_threshold: usize,
        f: impl FnOnce(&GreedyPolicies<'_>) -> R,
    ) -> R {
        let lookahead = self.spec.lookahead.policy();
        let additive;
        let decay: &dyn DecaySchedule = match self.spec.decay {
            DecaySpec::None => &NoDecay,
            DecaySpec::Additive {
                increment,
                reset_interval,
            } => {
                additive = AdditiveDecay {
                    increment,
                    reset_interval,
                };
                &additive
            }
        };
        let tie_breaker: &dyn TieBreaker = match self.spec.tie_breaker {
            TieBreakerSpec::SeededRandom => &SeededRandomTies,
            TieBreakerSpec::QubitIndex => &QubitIndexTies,
            TieBreakerSpec::DistanceRefined => &DistanceRefinedTies,
        };
        let weights = self.spec.weights.build(arch);
        f(&GreedyPolicies {
            lookahead: &lookahead,
            decay,
            tie_breaker,
            weights: &weights,
            stall_threshold,
            incumbent: None,
        })
    }

    /// Trial `trial`'s initial mapping under the placement axis.
    fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping {
        match self.spec.placement {
            PlacementSpec::GreedyBfs => GreedyBfsRestarts.place(trial, circuit, arch, rng),
            PlacementSpec::Identity => IdentityPlacement.place(trial, circuit, arch, rng),
            PlacementSpec::Multilevel => {
                PlacementStrategy::place(&MultilevelRouter::default(), trial, circuit, arch, rng)
            }
        }
    }

    /// The emitting forward pass from `initial`; `None` when a pass bounded
    /// by [`GreedyPolicies::incumbent`] cannot beat it.
    fn final_pass(
        &self,
        problem: &RoutingProblem,
        arch: &Architecture,
        policies: &GreedyPolicies<'_>,
        initial: Mapping,
        rng: &mut ChaCha8Rng,
        scratch: &mut GreedyScratch,
    ) -> Option<RoutedCircuit> {
        let mut physical = Circuit::new(arch.num_qubits());
        let final_mapping = run_greedy_pass(
            problem.forward(),
            arch,
            policies,
            initial.clone(),
            rng,
            scratch,
            Some(&mut physical),
        )?;
        Some(self.routed(physical, initial, final_mapping))
    }

    /// A routing result tagged with this router's name.
    fn routed(&self, physical: Circuit, initial: Mapping, final_mapping: Mapping) -> RoutedCircuit {
        RoutedCircuit {
            physical_circuit: physical,
            initial_mapping: initial,
            final_mapping,
            tool: self.name.clone(),
        }
    }

    fn route_greedy(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        trials: usize,
        mapping_passes: usize,
        stall_threshold: usize,
    ) -> RoutedCircuit {
        let passes = mapping_passes.max(1);
        // The reversed DAG exists only when a refinement pass will read it:
        // 2 DAG builds for a multi-pass spec, 1 for every single-pass one.
        let problem = if passes > 1 {
            RoutingProblem::bidirectional(circuit)
        } else {
            RoutingProblem::forward_only(circuit)
        };
        let mut scratch = GreedyScratch::default();
        self.with_policies(arch, stall_threshold, |policies| {
            let mut best: Option<RoutedCircuit> = None;
            for trial in 0..trials.max(1) {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(trial as u64));
                let mut mapping = self.place(trial, circuit, arch, &mut rng);
                // Forward/backward refinement passes only move the mapping,
                // so they skip physical-circuit emission.
                for p in 0..passes - 1 {
                    let view = if p % 2 == 0 {
                        problem.forward()
                    } else {
                        problem.reversed()
                    };
                    mapping = run_greedy_pass(
                        view,
                        arch,
                        policies,
                        mapping,
                        &mut rng,
                        &mut scratch,
                        None,
                    )
                    .expect("an unbounded pass runs to the end");
                }
                // Trials after the first abandon their final pass once it
                // provably cannot beat the best trial (see
                // `GreedyPolicies::incumbent`); each trial owns its RNG, so
                // later trials are unaffected.
                let bounded = GreedyPolicies {
                    incumbent: best.as_ref().map(RoutedCircuit::swap_count),
                    ..*policies
                };
                let Some(candidate) =
                    self.final_pass(&problem, arch, &bounded, mapping, &mut rng, &mut scratch)
                else {
                    continue;
                };
                if best
                    .as_ref()
                    .map_or(true, |b| candidate.swap_count() < b.swap_count())
                {
                    best = Some(candidate);
                }
            }
            best.expect("at least one trial ran")
        })
    }
}

impl Router for ComposedRouter {
    fn route(&self, circuit: &Circuit, arch: &Architecture) -> Result<RoutedCircuit, RouteError> {
        check_fit(circuit, arch)?;
        match self.spec.search {
            SearchSpec::Greedy {
                trials,
                mapping_passes,
                stall_threshold,
            } => Ok(self.route_greedy(circuit, arch, trials, mapping_passes, stall_threshold)),
            SearchSpec::AStar { .. } => {
                let initial =
                    self.place(0, circuit, arch, &mut ChaCha8Rng::seed_from_u64(self.seed));
                self.route_with_initial_mapping(circuit, arch, &initial)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::dag_builds_on_this_thread;
    use crate::router::ToolKind;
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
    fn named_composition_ids_are_stable_and_distinct() {
        assert_eq!(
            RouterSpec::lightsabre().id(),
            "g16x3s64.la20w0.5.dec0.001r5.randtie.bfs.uw"
        );
        assert_eq!(
            RouterSpec::tket().id(),
            "g1x1s16.front.nodecay.idxtie.bfs.uw"
        );
        assert_eq!(
            RouterSpec::ml_qls().id(),
            "g1x1s64.la20w0.5.dec0.001r5.randtie.mlp.uw"
        );
        assert_eq!(
            RouterSpec::qmap().id(),
            "astar4000.front.nodecay.idxtie.bfs.uw"
        );
    }

    /// [`random_circuit`] with about one gate in five an input SWAP gate.
    fn random_circuit_with_swaps(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            if rng.gen_range(0..5) == 0 {
                c.push(Gate::swap(a, b));
            } else {
                c.push(Gate::cx(a, b));
            }
        }
        c
    }

    /// A LightSABRE spec with `trials` random-restart trials.
    fn lightsabre_with(trials: usize) -> RouterSpec {
        RouterSpec {
            search: SearchSpec::Greedy {
                trials,
                mapping_passes: 3,
                stall_threshold: 64,
            },
            ..RouterSpec::lightsabre()
        }
    }

    /// The composed trial loop with every final pass unbounded
    /// (`incumbent: None`): the reference the bounded loop must match.
    fn unbounded_trial_loop(
        router: &ComposedRouter,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> RoutedCircuit {
        let SearchSpec::Greedy {
            trials,
            mapping_passes,
            stall_threshold,
        } = router.spec.search
        else {
            panic!("a greedy spec");
        };
        let problem = RoutingProblem::bidirectional(circuit);
        let mut scratch = GreedyScratch::default();
        router.with_policies(arch, stall_threshold, |policies| {
            let mut best: Option<RoutedCircuit> = None;
            for trial in 0..trials.max(1) {
                let mut rng = ChaCha8Rng::seed_from_u64(router.seed.wrapping_add(trial as u64));
                let mut mapping = router.place(trial, circuit, arch, &mut rng);
                for p in 0..mapping_passes.max(1) - 1 {
                    let view = if p % 2 == 0 {
                        problem.forward()
                    } else {
                        problem.reversed()
                    };
                    mapping = run_greedy_pass(
                        view,
                        arch,
                        policies,
                        mapping,
                        &mut rng,
                        &mut scratch,
                        None,
                    )
                    .expect("unbounded");
                }
                let candidate = router
                    .final_pass(&problem, arch, policies, mapping, &mut rng, &mut scratch)
                    .expect("unbounded");
                if best
                    .as_ref()
                    .map_or(true, |b| candidate.swap_count() < b.swap_count())
                {
                    best = Some(candidate);
                }
            }
            best.expect("at least one trial ran")
        })
    }

    /// The composed LightSABRE abandons final passes that cannot beat the
    /// best trial; the unbounded trial loop runs every pass to the end. The
    /// two must still pick the same trial and emit the same circuit.
    #[test]
    fn composed_lightsabre_matches_unbounded_trial_loop() {
        let cases = [
            (devices::grid(3, 3), 7, 30),
            (devices::aspen4(), 12, 60),
            (devices::eagle127(), 20, 40),
        ];
        for (arch, qubits, gates) in cases {
            let circuits = [
                random_circuit(qubits, gates, 5),
                random_circuit_with_swaps(qubits, gates, 6),
            ];
            for circuit in &circuits {
                for trials in [1, 4, 16] {
                    for seed in [0u64, 9, 23] {
                        let router = lightsabre_with(trials).build_named(seed, "lightsabre");
                        let reference = unbounded_trial_loop(&router, circuit, &arch);
                        let composed = router.route(circuit, &arch).expect("fits");
                        let case =
                            format!("{} qubits, {trials} trials, seed {seed}", arch.num_qubits());
                        assert_eq!(
                            reference.physical_circuit, composed.physical_circuit,
                            "{case}"
                        );
                        assert_eq!(
                            reference.initial_mapping, composed.initial_mapping,
                            "{case}"
                        );
                        assert_eq!(reference.final_mapping, composed.final_mapping, "{case}");
                        assert_eq!(reference.tool, composed.tool);
                    }
                }
            }
        }
    }

    #[test]
    fn named_compositions_route_validly() {
        let cases = [
            (devices::grid(3, 3), random_circuit(8, 40, 11)),
            (devices::aspen4(), random_circuit(14, 60, 3)),
            (devices::rochester53(), random_circuit(20, 60, 3)),
        ];
        for tool in ToolKind::ALL {
            let router = tool.build(0);
            for (arch, circuit) in &cases {
                let routed = router.route(circuit, arch).expect("fits");
                validate_routing(circuit, arch, &routed).expect("valid");
            }
            // An already-executable circuit needs no SWAPs (ML-QLS's
            // coarsened placement does not promise to find its embedding).
            let line = devices::line(4);
            let executable =
                Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(2, 3)]);
            let routed = router.route(&executable, &line).expect("fits");
            validate_routing(&executable, &line, &routed).expect("valid");
            if tool != ToolKind::MlQls {
                assert_eq!(routed.swap_count(), 0, "{tool}");
            }
            // Single-qubit gates are all re-emitted.
            let line = devices::line(3);
            let mixed = Circuit::from_gates(
                3,
                [
                    Gate::h(0),
                    Gate::cx(0, 2),
                    Gate::t(2),
                    Gate::cx(0, 1),
                    Gate::z(1),
                ],
            );
            let routed = router.route(&mixed, &line).expect("fits");
            validate_routing(&mixed, &line, &routed).expect("valid");
            let ones = routed
                .physical_circuit
                .gates()
                .iter()
                .filter(|g| !g.is_two_qubit())
                .count();
            assert_eq!(ones, 3, "{tool}");
            assert!(matches!(
                router.route(&random_circuit(5, 10, 0), &line),
                Err(RouteError::TooManyQubits { .. })
            ));
        }
    }

    #[test]
    fn lookahead_variants_route_validly() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(8, 30, 8);
        for lookahead in [
            LookaheadSpec {
                depth_decay: Some(0.8),
                ..LookaheadSpec::sabre_default()
            },
            LookaheadSpec {
                window: 0,
                ..LookaheadSpec::sabre_default()
            },
        ] {
            let spec = RouterSpec {
                lookahead,
                ..lightsabre_with(2)
            };
            let routed = spec.build(0).route(&circuit, &arch).expect("fits");
            validate_routing(&circuit, &arch, &routed).expect("valid");
        }
    }

    #[test]
    fn more_trials_never_hurt() {
        let arch = devices::grid(4, 4);
        let circuit = random_circuit(12, 60, 21);
        let few = lightsabre_with(1).build(1).route(&circuit, &arch);
        let many = lightsabre_with(12).build(1).route(&circuit, &arch);
        assert!(many.expect("fits").swap_count() <= few.expect("fits").swap_count());
    }

    #[test]
    fn route_with_initial_mapping_keeps_the_mapping() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(6, 20, 2);
        let initial = Mapping::from_prog_to_phys(vec![0, 1, 2, 3, 4, 5], 9);
        for tool in ToolKind::ALL {
            let routed = tool
                .spec()
                .build_named(0, tool.name())
                .route_with_initial_mapping(&circuit, &arch, &initial)
                .expect("fits");
            assert_eq!(routed.initial_mapping, initial);
            assert_eq!(routed.tool, tool.name());
            validate_routing(&circuit, &arch, &routed).expect("valid");
        }
    }

    /// The builds-DAGs-once guarantee: a multi-trial, multi-pass route
    /// builds exactly the forward and reversed DAGs, never one per trial or
    /// per pass; single-pass routes and the standalone mode build only the
    /// forward DAG.
    #[test]
    fn route_builds_each_dag_at_most_once() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(7, 30, 4);
        let dag_builds = |route: &dyn Fn()| {
            let before = dag_builds_on_this_thread();
            route();
            dag_builds_on_this_thread() - before
        };
        let lightsabre = RouterSpec::lightsabre().build(0);
        assert_eq!(dag_builds(&|| drop(lightsabre.route(&circuit, &arch))), 2);
        for spec in [RouterSpec::tket(), RouterSpec::ml_qls(), RouterSpec::qmap()] {
            let router = spec.build(0);
            assert_eq!(dag_builds(&|| drop(router.route(&circuit, &arch))), 1);
        }
        let initial = Mapping::from_prog_to_phys((0..7).collect(), 9);
        assert_eq!(
            dag_builds(&|| drop(lightsabre.route_with_initial_mapping(&circuit, &arch, &initial))),
            1
        );
    }

    #[test]
    fn canonicalization_collapses_redundant_axes() {
        let mut spec = RouterSpec::qmap();
        spec.lookahead = LookaheadSpec::sabre_default();
        spec.decay = DecaySpec::sabre_default();
        spec.tie_breaker = TieBreakerSpec::SeededRandom;
        spec.weights = WeightsSpec::Fidelity { seed: 1 };
        assert_eq!(spec.canonicalized(), RouterSpec::qmap());

        let mut zero_window = RouterSpec::tket();
        zero_window.lookahead = LookaheadSpec {
            window: 0,
            extended_set_weight: 0.5,
            depth_decay: Some(0.7),
        };
        assert_eq!(zero_window.canonicalized(), RouterSpec::tket());

        let mut zero_increment = RouterSpec::tket();
        zero_increment.decay = DecaySpec::Additive {
            increment: 0.0,
            reset_interval: 5,
        };
        assert_eq!(zero_increment.canonicalized(), RouterSpec::tket());
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        for spec in [
            RouterSpec::lightsabre(),
            RouterSpec::tket(),
            RouterSpec::ml_qls(),
            RouterSpec::qmap(),
            RouterSpec {
                weights: WeightsSpec::Fidelity { seed: 17 },
                tie_breaker: TieBreakerSpec::DistanceRefined,
                placement: PlacementSpec::Identity,
                ..RouterSpec::lightsabre()
            },
        ] {
            let value = spec.serialize_value();
            let back = RouterSpec::deserialize_value(&value).expect("roundtrip");
            assert_eq!(spec, back, "spec must survive serialization");
        }
    }

    #[test]
    fn fidelity_weighted_composition_routes_validly() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(8, 40, 11);
        let spec = RouterSpec {
            weights: WeightsSpec::Fidelity { seed: 3 },
            ..RouterSpec::lightsabre()
        };
        let routed = spec.build(7).route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
        assert_eq!(routed.tool, spec.id());
    }

    #[test]
    fn identity_placement_composition_routes_validly() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(8, 30, 2);
        let spec = RouterSpec {
            placement: PlacementSpec::Identity,
            tie_breaker: TieBreakerSpec::DistanceRefined,
            ..RouterSpec::tket()
        };
        let routed = spec.build(0).route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }
}
