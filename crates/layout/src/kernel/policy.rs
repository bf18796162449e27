//! Composable routing policies: the per-router choices of the greedy
//! SWAP-insertion loop, promoted to trait parameters.
//!
//! The four routers of the paper differ from each other in a handful of
//! policy decisions buried inside otherwise identical loops: how far ahead
//! they look ([`LookaheadPolicy`]), whether recently-swapped qubits are
//! penalised ([`DecaySchedule`]), how score ties are broken
//! ([`TieBreaker`]), and where the initial mapping comes from
//! ([`PlacementStrategy`]). This module defines those axes as traits plus
//! one generic pass, [`run_greedy_pass`], that runs the shared loop with
//! any combination — the same building-block composition A-SABR applies to
//! DTN routing. A router is then a *named composition* (see
//! [`crate::composed`]) rather than a monolith.
//!
//! Heterogeneous SWAP costs ride the same pipeline: a [`CouplerWeights`]
//! multiplies each candidate's score in the selection scan (see
//! [`swap_multiplier`]).
//! Uniform weights skip the multiplication by `1.0`, an IEEE-754 identity,
//! which is why the pre-refactor routers' SWAP streams are reproduced
//! bit-for-bit.

use crate::kernel::{force_adjacent, FrontTracker, ProblemView, ScoreParams, SwapScorer};
use crate::mapping::Mapping;
use crate::placement::greedy_bfs_placement;
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate};
use qubikos_graph::{CouplerWeights, NodeId};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;

/// How far beyond the blocked front a router looks when scoring a SWAP.
pub trait LookaheadPolicy {
    /// Number of extended-set gates collected per decision (0 = front-only).
    fn window(&self) -> usize;
    /// The scorer parameters (extended-set weight, optional per-depth
    /// decay) this policy scores with.
    fn score_params(&self) -> ScoreParams;
}

/// The standard windowed lookahead: an extended set of up to `window`
/// gates, weighted by `extended_set_weight`, with gate `i` optionally
/// decayed by `depth_decay^i` (the paper's §IV-C proposal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowLookahead {
    /// Extended-set size (0 disables lookahead entirely).
    pub window: usize,
    /// Weight of the extended-set term in the cost.
    pub extended_set_weight: f64,
    /// Optional per-depth decay across the extended set.
    pub depth_decay: Option<f64>,
}

impl WindowLookahead {
    /// LightSABRE's published defaults: 20 gates at weight 0.5, uniform.
    pub fn sabre_default() -> Self {
        WindowLookahead {
            window: 20,
            extended_set_weight: 0.5,
            depth_decay: None,
        }
    }

    /// No lookahead at all — the t|ket⟩-style front-only objective.
    pub fn front_only() -> Self {
        WindowLookahead {
            window: 0,
            extended_set_weight: 0.0,
            depth_decay: None,
        }
    }
}

impl LookaheadPolicy for WindowLookahead {
    fn window(&self) -> usize {
        self.window
    }

    fn score_params(&self) -> ScoreParams {
        ScoreParams {
            extended_set_weight: self.extended_set_weight,
            lookahead_decay: self.depth_decay,
        }
    }
}

/// Whether (and how) recently-swapped qubits are penalised to discourage
/// thrashing the same pair.
pub trait DecaySchedule {
    /// Additive bump applied to both endpoints of each applied SWAP.
    fn increment(&self) -> f64;
    /// Number of routing decisions after which all factors reset to 1.
    fn reset_interval(&self) -> usize;
}

/// SABRE's additive decay: each applied SWAP bumps its endpoints' factors
/// by `increment`, and everything resets after `reset_interval` decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdditiveDecay {
    /// Additive per-SWAP bump.
    pub increment: f64,
    /// Decisions between resets.
    pub reset_interval: usize,
}

impl AdditiveDecay {
    /// SABRE's published defaults (increment 0.001, reset every 5).
    pub fn sabre_default() -> Self {
        AdditiveDecay {
            increment: 0.001,
            reset_interval: 5,
        }
    }
}

impl DecaySchedule for AdditiveDecay {
    fn increment(&self) -> f64 {
        self.increment
    }

    fn reset_interval(&self) -> usize {
        self.reset_interval
    }
}

/// No decay: every factor stays exactly `1.0` forever (adding `0.0` to
/// `1.0` and `max(1.0, 1.0)` are both exact), so scores are untouched
/// bitwise — this is how the t|ket⟩ composition shares SABRE's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoDecay;

impl DecaySchedule for NoDecay {
    fn increment(&self) -> f64 {
        0.0
    }

    fn reset_interval(&self) -> usize {
        usize::MAX
    }
}

/// How a router picks one SWAP out of the set of score-tied best
/// candidates. The tie set is always collected in candidate (= coupler)
/// order with SABRE's `1e-12` epsilon band, so breakers see a stable,
/// deterministic slice.
pub trait TieBreaker {
    /// Picks the winning SWAP from a non-empty tie set.
    fn break_tie(
        &self,
        ties: &[(NodeId, NodeId)],
        scorer: &mut SwapScorer,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> (NodeId, NodeId);
}

/// SABRE's tie-break: a uniform draw from the tie set using the trial's
/// seeded RNG. Draws from the RNG on every decision (even for a singleton
/// tie set), exactly like the pre-refactor router, so RNG streams line up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeededRandomTies;

impl TieBreaker for SeededRandomTies {
    fn break_tie(
        &self,
        ties: &[(NodeId, NodeId)],
        _scorer: &mut SwapScorer,
        _arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> (NodeId, NodeId) {
        *ties.choose(rng).expect("non-empty tie set")
    }
}

/// First tie in candidate order — the lowest-indexed coupler, since
/// candidates are generated in coupler order.
/// Under a front-only objective this reproduces t|ket⟩'s
/// first-integer-minimum selection exactly: the front-total sum is a small
/// integer divided by the (candidate-independent) front length, so exact
/// score ties coincide with integer ties and the epsilon band never merges
/// distinct totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QubitIndexTies;

impl TieBreaker for QubitIndexTies {
    fn break_tie(
        &self,
        ties: &[(NodeId, NodeId)],
        _scorer: &mut SwapScorer,
        _arch: &Architecture,
        _rng: &mut ChaCha8Rng,
    ) -> (NodeId, NodeId) {
        ties[0]
    }
}

/// Deterministic distance-refined tie-break: among tied candidates, prefer
/// the one whose applied SWAP leaves the smallest summed front distance
/// (the tie set ties on the *weighted* score, so front totals can still
/// differ under decay or lookahead), then the lowest coupler index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistanceRefinedTies;

impl TieBreaker for DistanceRefinedTies {
    fn break_tie(
        &self,
        ties: &[(NodeId, NodeId)],
        scorer: &mut SwapScorer,
        arch: &Architecture,
        _rng: &mut ChaCha8Rng,
    ) -> (NodeId, NodeId) {
        ties.iter()
            .copied()
            .min_by_key(|&swap| (scorer.front_total(swap, arch), swap))
            .expect("non-empty tie set")
    }
}

/// Where a trial's initial program→physical mapping comes from.
pub trait PlacementStrategy {
    /// The initial mapping for `trial`. Strategies follow the SABRE
    /// random-restart scheme: trial 0 is the strategy's deterministic
    /// placement, later trials draw a random mapping from `rng` (one draw
    /// sequence shared with routing, exactly like the pre-refactor SABRE).
    fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping;
}

/// Structure-aware greedy-BFS placement with random restarts — the SABRE
/// and t|ket⟩ default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyBfsRestarts;

impl PlacementStrategy for GreedyBfsRestarts {
    fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping {
        if trial == 0 {
            greedy_bfs_placement(circuit, arch)
        } else {
            Mapping::random(circuit.num_qubits(), arch.num_qubits(), rng)
        }
    }
}

/// The trivial placement: program qubit `q` starts on physical qubit `q`
/// (random restarts on later trials). A baseline that isolates routing
/// quality from placement quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityPlacement;

impl PlacementStrategy for IdentityPlacement {
    fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping {
        if trial == 0 {
            Mapping::identity(circuit.num_qubits(), arch.num_qubits())
        } else {
            Mapping::random(circuit.num_qubits(), arch.num_qubits(), rng)
        }
    }
}

/// The complete policy bundle one [`run_greedy_pass`] call routes with.
pub struct GreedyPolicies<'a> {
    /// Lookahead axis.
    pub lookahead: &'a dyn LookaheadPolicy,
    /// Decay axis.
    pub decay: &'a dyn DecaySchedule,
    /// Tie-break axis.
    pub tie_breaker: &'a dyn TieBreaker,
    /// Per-coupler SWAP-cost weights (uniform = the classic cost model).
    pub weights: &'a CouplerWeights,
    /// Number of consecutive SWAPs without executing any gate after which
    /// the pass forces the closest front gate through along a shortest
    /// path (SABRE's release valve / t|ket⟩'s stall fallback).
    pub stall_threshold: usize,
}

/// Kernel state reused across every pass and trial of one route call.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    tracker: FrontTracker,
    scorer: SwapScorer,
    candidates: Vec<(NodeId, NodeId)>,
    ties: Vec<(NodeId, NodeId)>,
    decay: Vec<f64>,
}

/// The full multiplier of one candidate SWAP: its coupler weight times the
/// larger of its endpoints' decay factors. Under uniform weights it skips
/// the (identity) multiplication and returns exactly the pre-refactor decay
/// factor.
pub fn swap_multiplier(weights: &CouplerWeights, decay: &[f64], swap: (NodeId, NodeId)) -> f64 {
    let factor = decay[swap.0].max(decay[swap.1]);
    if weights.is_uniform() {
        factor
    } else {
        weights.weight(swap.0, swap.1) * factor
    }
}

/// One greedy routing pass over `view` from `mapping` under `policies`;
/// returns the final mapping. When `out` is `Some`, the physical circuit
/// (attached single-qubit gates, two-qubit gates, SWAPs, trailing gates)
/// is emitted into it; refinement passes pass `None` and skip emission
/// entirely. This is the loop every greedy composition shares — SABRE,
/// t|ket⟩ and the ablation-matrix variants differ only in the policy
/// bundle they pass in.
pub fn run_greedy_pass(
    view: &ProblemView,
    arch: &Architecture,
    policies: &GreedyPolicies<'_>,
    mut mapping: Mapping,
    rng: &mut ChaCha8Rng,
    scratch: &mut GreedyScratch,
    mut out: Option<&mut Circuit>,
) -> Mapping {
    let dag = view.dag();
    let params = policies.lookahead.score_params();
    let window = policies.lookahead.window();
    let decay_increment = policies.decay.increment();
    let decay_reset_interval = policies.decay.reset_interval();
    scratch.tracker.reset(dag);
    scratch.decay.clear();
    scratch.decay.resize(arch.num_qubits(), 1.0);
    let mut decisions_since_reset = 0usize;
    let mut swaps_since_progress = 0usize;
    // The scorer snapshot is valid until the front changes or the mapping
    // moves without the scorer seeing it (stall fallback).
    let mut scorer_ready = false;

    while !scratch.tracker.is_done() {
        // Execute every front gate whose qubits are adjacent.
        let out_ref = &mut out;
        let executed_any = scratch.tracker.advance(
            dag,
            |node| {
                let (a, b) = dag.qubit_pair(node);
                arch.are_coupled(mapping.physical(a), mapping.physical(b))
            },
            |node| {
                if let Some(out) = out_ref.as_deref_mut() {
                    view.emit(node, &mapping, out);
                }
            },
        );
        if executed_any {
            swaps_since_progress = 0;
            scratch.decay.iter_mut().for_each(|d| *d = 1.0);
            decisions_since_reset = 0;
            scorer_ready = false;
            continue;
        }
        if scratch.tracker.is_done() {
            break;
        }

        // Release valve: force the closest front gate through if the
        // heuristic has been spinning without progress.
        if swaps_since_progress >= policies.stall_threshold {
            force_closest_gate(view, arch, &mut mapping, &mut out, scratch);
            swaps_since_progress = 0;
            scorer_ready = false;
            continue;
        }

        if !scorer_ready {
            scratch.tracker.compute_extended_set(dag, window);
            scratch.scorer.prepare(
                scratch.tracker.front(),
                scratch.tracker.extended(),
                dag,
                &mapping,
                arch,
                &params,
            );
            scorer_ready = true;
        }

        // Score candidate SWAPs and collect the epsilon tie band.
        scratch
            .scorer
            .candidates_into(arch, &mut scratch.candidates);
        debug_assert!(
            !scratch.candidates.is_empty(),
            "front gates always have candidate swaps"
        );
        let mut best_score = f64::INFINITY;
        scratch.ties.clear();
        for &(pa, pb) in &scratch.candidates {
            let score = swap_multiplier(policies.weights, &scratch.decay, (pa, pb))
                * scratch.scorer.swap_cost((pa, pb), arch, &params);
            if score < best_score - 1e-12 {
                best_score = score;
                scratch.ties.clear();
                scratch.ties.push((pa, pb));
            } else if (score - best_score).abs() <= 1e-12 {
                scratch.ties.push((pa, pb));
            }
        }
        let chosen = {
            let GreedyScratch { scorer, ties, .. } = &mut *scratch;
            policies.tie_breaker.break_tie(ties, scorer, arch, rng)
        };
        if let Some(out) = out.as_deref_mut() {
            out.push(Gate::swap(chosen.0, chosen.1));
        }
        mapping.apply_swap_physical(chosen.0, chosen.1);
        scratch.scorer.apply(chosen, arch);
        scratch.decay[chosen.0] += decay_increment;
        scratch.decay[chosen.1] += decay_increment;
        decisions_since_reset += 1;
        swaps_since_progress += 1;
        if decisions_since_reset >= decay_reset_interval {
            scratch.decay.iter_mut().for_each(|d| *d = 1.0);
            decisions_since_reset = 0;
        }
    }

    // Emit trailing single-qubit gates under the final mapping.
    if let Some(out) = out {
        view.emit_trailing(&mapping, out);
    }
    mapping
}

/// Forces the front gate whose qubits are closest together to execute by
/// swapping one qubit along a shortest path towards the other. The gate
/// itself executes on the next main-loop iteration.
fn force_closest_gate(
    view: &ProblemView,
    arch: &Architecture,
    mapping: &mut Mapping,
    out: &mut Option<&mut Circuit>,
    scratch: &GreedyScratch,
) {
    let dag = view.dag();
    let &node = scratch
        .tracker
        .front()
        .iter()
        .min_by_key(|&&n| {
            let (a, b) = dag.qubit_pair(n);
            arch.distance(mapping.physical(a), mapping.physical(b))
        })
        .expect("front is non-empty");
    let (a, b) = dag.qubit_pair(node);
    force_adjacent(arch, mapping, a, b, |u, v| {
        if let Some(out) = out.as_deref_mut() {
            out.push(Gate::swap(u, v));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RoutingProblem;
    use qubikos_arch::devices;
    use rand::SeedableRng;

    fn policies<'a>(
        lookahead: &'a WindowLookahead,
        decay: &'a dyn DecaySchedule,
        tie: &'a dyn TieBreaker,
        weights: &'a CouplerWeights,
    ) -> GreedyPolicies<'a> {
        GreedyPolicies {
            lookahead,
            decay,
            tie_breaker: tie,
            weights,
            stall_threshold: 64,
        }
    }

    fn test_circuit() -> Circuit {
        Circuit::from_gates(
            6,
            [
                Gate::cx(0, 5),
                Gate::cx(1, 4),
                Gate::cx(2, 3),
                Gate::cx(0, 3),
                Gate::cx(4, 5),
                Gate::cx(1, 5),
                Gate::cx(0, 2),
            ],
        )
    }

    fn route_once(p: &GreedyPolicies<'_>, seed: u64) -> (Circuit, Mapping) {
        let arch = devices::grid(3, 3);
        let circuit = test_circuit();
        let problem = RoutingProblem::forward_only(&circuit);
        let mut scratch = GreedyScratch::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let initial = GreedyBfsRestarts.place(0, &circuit, &arch, &mut rng);
        let mut out = Circuit::new(arch.num_qubits());
        let final_mapping = run_greedy_pass(
            problem.forward(),
            &arch,
            p,
            initial,
            &mut rng,
            &mut scratch,
            Some(&mut out),
        );
        (out, final_mapping)
    }

    #[test]
    fn deterministic_tie_breakers_ignore_the_rng() {
        let lookahead = WindowLookahead::front_only();
        let weights = CouplerWeights::uniform();
        for tie in [&QubitIndexTies as &dyn TieBreaker, &DistanceRefinedTies] {
            let p = policies(&lookahead, &NoDecay, tie, &weights);
            let (a, _) = route_once(&p, 1);
            let (b, _) = route_once(&p, 999);
            assert_eq!(a, b, "deterministic breaker must not consume the RNG");
        }
    }

    #[test]
    fn seeded_random_ties_follow_the_seed() {
        let lookahead = WindowLookahead::sabre_default();
        let weights = CouplerWeights::uniform();
        let decay = AdditiveDecay::sabre_default();
        let p = policies(&lookahead, &decay, &SeededRandomTies, &weights);
        let (a, _) = route_once(&p, 7);
        let (b, _) = route_once(&p, 7);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    fn no_decay_keeps_factors_exactly_one() {
        assert_eq!(NoDecay.increment(), 0.0);
        assert_eq!(NoDecay.reset_interval(), usize::MAX);
        // Adding the increment must be an exact no-op on the neutral factor.
        let factor: f64 = 1.0;
        assert_eq!(factor + NoDecay.increment(), 1.0);
    }

    #[test]
    fn swap_multiplier_is_identity_under_uniform_weights() {
        let weights = CouplerWeights::uniform();
        let decay = [1.0, 1.25, 1.5];
        assert_eq!(swap_multiplier(&weights, &decay, (0, 1)), 1.25);
        assert_eq!(swap_multiplier(&weights, &decay, (1, 2)), 1.5);
    }

    #[test]
    fn fidelity_weights_change_routing_but_stay_valid() {
        let arch = devices::grid(3, 3);
        let lookahead = WindowLookahead::sabre_default();
        let decay = AdditiveDecay::sabre_default();
        let uniform = CouplerWeights::uniform();
        let weighted = CouplerWeights::fidelity_derived(arch.coupling_graph(), 3);
        let pu = policies(&lookahead, &decay, &SeededRandomTies, &uniform);
        let pw = policies(&lookahead, &decay, &SeededRandomTies, &weighted);
        let (a, _) = route_once(&pu, 0);
        let (b, _) = route_once(&pw, 0);
        // Both routings must be complete (same two-qubit gate count modulo
        // SWAPs); the weighted one is allowed to differ.
        let swaps = |c: &Circuit| c.gates().iter().filter(|g| g.is_swap()).count();
        assert!(swaps(&a) < a.gates().len());
        assert!(swaps(&b) < b.gates().len());
    }

    #[test]
    fn identity_placement_is_trivial_on_trial_zero() {
        let arch = devices::grid(3, 3);
        let circuit = test_circuit();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = IdentityPlacement.place(0, &circuit, &arch, &mut rng);
        for q in 0..circuit.num_qubits() {
            assert_eq!(m.physical(q), q);
        }
        let r = IdentityPlacement.place(1, &circuit, &arch, &mut rng);
        assert!(r.is_consistent());
    }
}
