//! The router construction kit: routers as named compositions of policies.
//!
//! A [`RouterSpec`] is a small, serializable value describing one point in
//! the routing design space — a search engine ([`SearchSpec`]) plus one
//! choice per policy axis: lookahead ([`LookaheadSpec`]), decay
//! ([`DecaySpec`]), tie-breaking ([`TieBreakerSpec`]) and placement
//! ([`PlacementSpec`]), the axis types of [`crate::kernel::policy`] that
//! also run the choice they name, and coupler weighting ([`WeightsSpec`]).
//! [`RouterSpec::build`] turns a spec plus an RNG seed into a
//! [`ComposedRouter`] implementing [`Router`].
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
//!
//! # Lone-route trial fan-out
//!
//! A greedy spec's trials are independent random restarts, each with its
//! own seeded RNG. When a [`Router::route`] call is the only route in
//! flight in the process ([`routes_in_flight`] counts every `route` and
//! [`ComposedRouter::route_with_initial_mapping`] call), it runs its trials
//! on `min(cores, trials)` scoped threads, the caller included; otherwise
//! it runs them all on the calling thread. A route that starts while
//! another is in flight — as on the engine's workers in `eval`,
//! `optimality` and the ablations — therefore starts no thread, and only
//! a lone route borrows idle cores. Workers claim trial indices in
//! order and keep the minimum by `(SWAP count, trial index)`, which is the
//! trial the sequential loop keeps, so the routed circuit is the same at
//! any worker count. There is no option for it: one code path serves every
//! worker count, and the sequential loop is its zero-helper case.

use crate::astar::route_layers;
use crate::kernel::{
    check_fit, run_greedy_pass, DecaySpec, GreedyPolicies, GreedyScratch, LookaheadSpec,
    PlacementSpec, RoutingProblem, TieBreakerSpec,
};
use crate::mapping::Mapping;
use crate::result::RoutedCircuit;
use crate::router::{RouteError, Router};
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use qubikos_graph::CouplerWeights;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Route calls in flight in this process: every [`Router::route`] and
/// [`ComposedRouter::route_with_initial_mapping`] call counts from entry to
/// return, through an [`InFlight`] guard.
static ROUTES_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Trial helper threads spawned by routes started on this thread — the
    /// regression counter behind the no-helper-when-not-alone guarantee.
    static TRIAL_HELPERS: Cell<usize> = const { Cell::new(0) };
}

/// Number of route calls in flight in this process (see
/// [`ComposedRouter`]'s lone-route fan-out). Tests use it to check that
/// every call, including one that fails, leaves the count as it found it.
pub fn routes_in_flight() -> usize {
    ROUTES_IN_FLIGHT.load(Ordering::SeqCst)
}

/// Number of trial helper threads spawned by routes started on the calling
/// thread since it started. Routing is synchronous, so the delta across a
/// `route` call counts exactly its helpers; tests use this to pin that a
/// route started while another is in flight spawns none.
pub fn trial_helpers_spawned_on_this_thread() -> usize {
    TRIAL_HELPERS.with(Cell::get)
}

/// Holds one count of [`ROUTES_IN_FLIGHT`] until dropped, so an early
/// return or an error gives it back too.
struct InFlight;

impl InFlight {
    fn enter() -> Self {
        ROUTES_IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        ROUTES_IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The incumbent bound of trial `trial`'s final pass when the best so far
/// is `count` SWAPs from trial `winner`: the pass must finish below
/// `count`, or at `count` when `winner` is a later trial, which loses the
/// tie.
fn trial_bound(count: usize, winner: usize, trial: usize) -> usize {
    count + usize::from(winner > trial)
}

/// The host's core count, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The coupler-weighting axis: how much a SWAP on each edge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
    /// restarts, uniform weights. A route that runs alone spreads its
    /// trials over idle cores (see the module docs) and returns the same
    /// circuit. The paper's §IV-C case study routes it from the optimal
    /// mapping with [`ComposedRouter::route_with_initial_mapping`].
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
    /// SABRE-policy routing pass ([`PlacementSpec::Multilevel`] places, with
    /// the default tuning).
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
        let _in_flight = InFlight::enter();
        check_fit(circuit, arch)?;
        Ok(self.route_from(circuit, arch, initial))
    }

    /// [`Self::route_with_initial_mapping`] on a circuit that fits.
    fn route_from(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        initial: &Mapping,
    ) -> RoutedCircuit {
        match self.spec.search {
            SearchSpec::Greedy {
                stall_threshold, ..
            } => {
                let problem = RoutingProblem::forward_only(circuit);
                let weights = self.spec.weights.build(arch);
                self.final_pass(
                    &problem,
                    arch,
                    &self.policies(&weights, stall_threshold),
                    initial.clone(),
                    &mut ChaCha8Rng::seed_from_u64(self.seed),
                    &mut GreedyScratch::default(),
                )
                .expect("an unbounded pass runs to the end")
            }
            SearchSpec::AStar { max_expansions } => {
                let (physical, final_mapping) =
                    route_layers(circuit, arch, initial, max_expansions);
                self.routed(physical, initial.clone(), final_mapping)
            }
        }
    }

    /// The spec's greedy policy bundle under `weights`, unbounded.
    fn policies<'w>(
        &self,
        weights: &'w CouplerWeights,
        stall_threshold: usize,
    ) -> GreedyPolicies<'w> {
        GreedyPolicies {
            lookahead: self.spec.lookahead,
            decay: self.spec.decay,
            tie_breaker: self.spec.tie_breaker,
            weights,
            stall_threshold,
            incumbent: None,
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

    /// The trial loop, on `workers` threads: the caller plus
    /// `workers - 1` scoped helpers (none when `workers <= 1`).
    ///
    /// Workers claim trial indices in order from one counter and keep the
    /// best result as the minimum by `(SWAP count, trial index)` — the
    /// trial the sequential loop picks, at any worker count. A trial's
    /// final pass is bounded by the best so far (see
    /// [`GreedyPolicies::incumbent`]): at its count when the best comes
    /// from an earlier trial, at its count + 1 when from a later one, which
    /// the trial still beats on a tie. Each trial owns its RNG, so no
    /// trial's stream depends on another's.
    fn route_greedy(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        trials: usize,
        mapping_passes: usize,
        stall_threshold: usize,
        workers: usize,
    ) -> RoutedCircuit {
        let trials = trials.max(1);
        let passes = mapping_passes.max(1);
        // The reversed DAG exists only when a refinement pass will read it:
        // 2 DAG builds for a multi-pass spec, 1 for every single-pass one.
        let problem = if passes > 1 {
            RoutingProblem::bidirectional(circuit)
        } else {
            RoutingProblem::forward_only(circuit)
        };
        let weights = self.spec.weights.build(arch);
        let policies = self.policies(&weights, stall_threshold);
        let next_trial = AtomicUsize::new(0);
        let best: Mutex<Option<(usize, usize, RoutedCircuit)>> = Mutex::new(None);
        let worker = || {
            let mut scratch = GreedyScratch::default();
            loop {
                let trial = next_trial.fetch_add(1, Ordering::Relaxed);
                if trial >= trials {
                    break;
                }
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(trial as u64));
                let mut mapping = self.spec.placement.place(trial, circuit, arch, &mut rng);
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
                        &policies,
                        mapping,
                        &mut rng,
                        &mut scratch,
                        None,
                    )
                    .expect("an unbounded pass runs to the end");
                }
                let incumbent = best
                    .lock()
                    .expect("no trial panicked")
                    .as_ref()
                    .map(|&(count, winner, _)| trial_bound(count, winner, trial));
                let bounded = GreedyPolicies {
                    incumbent,
                    ..policies
                };
                let Some(candidate) =
                    self.final_pass(&problem, arch, &bounded, mapping, &mut rng, &mut scratch)
                else {
                    continue;
                };
                let key = (candidate.swap_count(), trial);
                let mut best = best.lock().expect("no trial panicked");
                if best
                    .as_ref()
                    .map_or(true, |&(count, winner, _)| key < (count, winner))
                {
                    *best = Some((key.0, key.1, candidate));
                }
            }
        };
        let helpers = workers.min(trials).saturating_sub(1);
        TRIAL_HELPERS.with(|c| c.set(c.get() + helpers));
        thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(worker);
            }
            worker();
        });
        let (_, _, routed) = best
            .into_inner()
            .expect("no trial panicked")
            .expect("at least one trial ran");
        routed
    }
}

impl Router for ComposedRouter {
    fn route(&self, circuit: &Circuit, arch: &Architecture) -> Result<RoutedCircuit, RouteError> {
        let _in_flight = InFlight::enter();
        check_fit(circuit, arch)?;
        Ok(match self.spec.search {
            SearchSpec::Greedy {
                trials,
                mapping_passes,
                stall_threshold,
            } => {
                // Only a lone route fans its trials out: a route started
                // beside another (engine workers) starts no thread.
                let workers = if routes_in_flight() == 1 { cores() } else { 1 };
                self.route_greedy(
                    circuit,
                    arch,
                    trials,
                    mapping_passes,
                    stall_threshold,
                    workers,
                )
            }
            SearchSpec::AStar { .. } => {
                let initial = self.spec.placement.place(
                    0,
                    circuit,
                    arch,
                    &mut ChaCha8Rng::seed_from_u64(self.seed),
                );
                self.route_from(circuit, arch, &initial)
            }
        })
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

    /// Trial `trial` of a 3-pass LightSABRE `router`, run alone with its
    /// final pass bounded by `incumbent`.
    fn run_trial(
        router: &ComposedRouter,
        circuit: &Circuit,
        arch: &Architecture,
        trial: usize,
        incumbent: Option<usize>,
    ) -> Option<RoutedCircuit> {
        let problem = RoutingProblem::bidirectional(circuit);
        let mut scratch = GreedyScratch::default();
        let weights = router.spec.weights.build(arch);
        let policies = router.policies(&weights, 64);
        let mut rng = ChaCha8Rng::seed_from_u64(router.seed.wrapping_add(trial as u64));
        let mut mapping = router.spec.placement.place(trial, circuit, arch, &mut rng);
        for view in [problem.forward(), problem.reversed()] {
            mapping = run_greedy_pass(view, arch, &policies, mapping, &mut rng, &mut scratch, None)
                .expect("unbounded");
        }
        let bounded = GreedyPolicies {
            incumbent,
            ..policies
        };
        router.final_pass(&problem, arch, &bounded, mapping, &mut rng, &mut scratch)
    }

    /// The composed LightSABRE abandons final passes that cannot beat the
    /// best trial and, when it routes alone, runs its trials on several
    /// threads. The reference runs every trial to the end on one thread and
    /// keeps the first with the fewest SWAPs. At every worker count the two
    /// must pick the same trial and emit the same circuit.
    ///
    /// The set includes routes where two trials tie on the best count. On
    /// those the earliest tied trial, bounded by the last one's best as a
    /// worker that finished the later trial first would bound it, must
    /// still finish with the reference circuit: the tie goes to the lower
    /// trial index, and [`trial_bound`] lets it through.
    #[test]
    fn composed_lightsabre_matches_unbounded_trial_loop() {
        let cases = [
            (devices::grid(3, 3), 7, 30),
            (devices::aspen4(), 12, 60),
            (devices::eagle127(), 20, 40),
            // Few gates on few qubits: many trials reach the best count.
            (devices::grid(3, 3), 5, 12),
        ];
        let (mut ties, mut tie_bound_needed) = (0, 0);
        for (arch, qubits, gates) in cases {
            let circuits = [
                random_circuit(qubits, gates, 5),
                random_circuit_with_swaps(qubits, gates, 6),
            ];
            for circuit in &circuits {
                for trials in [1, 4, 16] {
                    for seed in [0u64, 9, 23] {
                        let router = lightsabre_with(trials).build_named(seed, "lightsabre");
                        let runs: Vec<RoutedCircuit> = (0..trials)
                            .map(|trial| run_trial(&router, circuit, &arch, trial, None))
                            .map(|run| run.expect("unbounded"))
                            .collect();
                        let best = runs.iter().map(RoutedCircuit::swap_count).min();
                        let tied: Vec<usize> = (0..trials)
                            .filter(|&t| Some(runs[t].swap_count()) == best)
                            .collect();
                        let (first, last) = (tied[0], tied[tied.len() - 1]);
                        let reference = &runs[first];
                        let case =
                            format!("{} qubits, {trials} trials, seed {seed}", arch.num_qubits());
                        if first != last {
                            ties += 1;
                            let count = reference.swap_count();
                            let bound = trial_bound(count, last, first);
                            let replay = run_trial(&router, circuit, &arch, first, Some(bound));
                            assert_eq!(replay.as_ref(), Some(reference), "{case}");
                            tie_bound_needed += usize::from(
                                run_trial(&router, circuit, &arch, first, Some(count)).is_none(),
                            );
                        }
                        let routed = [router.route(circuit, &arch).expect("fits")]
                            .into_iter()
                            .chain([1, 2, 3, 16].map(|workers| {
                                router.route_greedy(circuit, &arch, trials, 3, 64, workers)
                            }));
                        for (run, composed) in routed.enumerate() {
                            assert_eq!(reference, &composed, "{case}, run {run}");
                        }
                    }
                }
            }
        }
        assert!(ties > 0, "no route had two trials tie on the best count");
        assert!(
            tie_bound_needed > 0,
            "no tie where bounding at the count alone abandons the winner"
        );
    }

    /// Four threads route the same LightSABRE instances at once and get
    /// exactly the one-worker streams; a route started while another is in
    /// flight spawns no trial helper.
    #[test]
    fn concurrent_routes_match_sequential_streams() {
        let instances = [
            (devices::grid(4, 4), random_circuit(12, 60, 7)),
            (devices::aspen4(), random_circuit_with_swaps(14, 60, 3)),
            (devices::rochester53(), random_circuit(20, 60, 3)),
        ];
        let router = RouterSpec::lightsabre().build_named(11, "lightsabre");
        let sequential: Vec<RoutedCircuit> = instances
            .iter()
            .map(|(arch, circuit)| router.route_greedy(circuit, arch, 16, 3, 64, 1))
            .collect();
        let start = std::sync::Barrier::new(4);
        thread::scope(|scope| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        instances
                            .iter()
                            .map(|(arch, circuit)| router.route(circuit, arch).expect("fits"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for caller in callers {
                assert_eq!(caller.join().expect("no panic"), sequential);
            }
        });
        // Another route in flight (held here, so the check cannot race):
        // this one stays on the calling thread.
        let _other = InFlight::enter();
        let before = trial_helpers_spawned_on_this_thread();
        for ((arch, circuit), expected) in instances.iter().zip(&sequential) {
            assert_eq!(&router.route(circuit, arch).expect("fits"), expected);
        }
        assert_eq!(trial_helpers_spawned_on_this_thread(), before);
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
