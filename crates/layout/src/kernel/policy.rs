//! Composable routing policies: the per-router choices of the greedy
//! SWAP-insertion loop, one type per axis.
//!
//! The four routers of the paper differ from each other in a handful of
//! policy decisions buried inside otherwise identical loops: how far ahead
//! they look ([`LookaheadSpec`]), whether recently-swapped qubits are
//! penalised ([`DecaySpec`]), how score ties are broken
//! ([`TieBreakerSpec`]), and where the initial mapping comes from
//! ([`PlacementSpec`]). Each axis is one serializable type that both names
//! a choice — its `id_part` is a segment of the composition id
//! [`RouterSpec::id`](crate::RouterSpec::id) — and runs it: the set of
//! choices is closed, so one `match` per axis replaces a trait per axis.
//! One generic pass, [`run_greedy_pass`], runs the shared loop with any
//! combination ([`GreedyPolicies`]) — the same building-block composition
//! A-SABR applies to DTN routing. A router is then a *named composition*
//! (see [`crate::composed`]) rather than a monolith.
//!
//! Heterogeneous SWAP costs ride the same pipeline: a [`CouplerWeights`]
//! multiplies each candidate's score in the selection scan (see
//! [`swap_multiplier`]).
//! Uniform weights skip the multiplication by `1.0`, an IEEE-754 identity,
//! which is why the pre-refactor routers' SWAP streams are reproduced
//! bit-for-bit.

use crate::kernel::{force_adjacent, FrontTracker, ProblemView, SwapScorer};
use crate::mapping::Mapping;
use crate::multilevel::MultilevelRouter;
use crate::placement::greedy_bfs_placement;
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate};
use qubikos_graph::{CouplerWeights, NodeId};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// The lookahead axis: how far past the blocked front the scorer looks, and
/// how the extra gates are weighted. An extended set of up to `window`
/// gates, weighted by `extended_set_weight`, with gate `i` optionally
/// decayed by `depth_decay^i` (the paper's §IV-C proposal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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

    /// Front-only scoring — no lookahead (t|ket⟩-style).
    pub fn front_only() -> Self {
        LookaheadSpec {
            window: 0,
            extended_set_weight: 0.0,
            depth_decay: None,
        }
    }

    pub(crate) fn id_part(&self) -> String {
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

/// The decay axis: whether recently-swapped qubits are penalised to
/// discourage thrashing the same pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DecaySpec {
    /// No decay; scores are never inflated.
    None,
    /// SABRE-style additive decay: each applied SWAP bumps its endpoints'
    /// factors by `increment`, and everything resets after
    /// `reset_interval` decisions.
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

    /// The `(increment, reset_interval)` the greedy pass applies.
    /// [`DecaySpec::None`] is `(0.0, usize::MAX)`: adding `0.0` to `1.0` and
    /// `max(1.0, 1.0)` are both exact, so every factor stays exactly `1.0`
    /// and scores are untouched bitwise — this is how the t|ket⟩
    /// composition shares SABRE's loop.
    pub(crate) fn schedule(&self) -> (f64, usize) {
        match *self {
            DecaySpec::None => (0.0, usize::MAX),
            DecaySpec::Additive {
                increment,
                reset_interval,
            } => (increment, reset_interval),
        }
    }

    pub(crate) fn id_part(&self) -> String {
        match self {
            DecaySpec::None => "nodecay".to_string(),
            DecaySpec::Additive {
                increment,
                reset_interval,
            } => format!("dec{increment}r{reset_interval}"),
        }
    }
}

/// The tie-breaking axis: how one SWAP is picked from the set of score-tied
/// best candidates. The tie set is always collected in candidate (=
/// coupler) order with SABRE's `1e-12` epsilon band, so every breaker sees
/// a stable, deterministic slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TieBreakerSpec {
    /// SABRE's tie-break: a uniform draw from the tie set with the trial's
    /// seeded RNG. Draws on every decision, even for a singleton tie set,
    /// so RNG streams line up with the pre-refactor router.
    SeededRandom,
    /// First tie in candidate order — the lowest-indexed coupler, since
    /// candidates are generated in coupler order. Under a front-only
    /// objective this reproduces t|ket⟩'s first-integer-minimum selection
    /// exactly: the front-total sum is a small integer divided by the
    /// (candidate-independent) front length, so exact score ties coincide
    /// with integer ties and the epsilon band never merges distinct totals.
    QubitIndex,
    /// Deterministic refinement: among tied candidates, prefer the one
    /// whose applied SWAP leaves the smallest summed front distance (the
    /// tie set ties on the *weighted* score, so front totals can still
    /// differ under decay or lookahead), then the lowest coupler index.
    DistanceRefined,
}

impl TieBreakerSpec {
    /// Picks the winning SWAP from a non-empty tie set.
    pub(crate) fn break_tie(
        &self,
        ties: &[(NodeId, NodeId)],
        scorer: &mut SwapScorer,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> (NodeId, NodeId) {
        match self {
            TieBreakerSpec::SeededRandom => *ties.choose(rng).expect("non-empty tie set"),
            TieBreakerSpec::QubitIndex => ties[0],
            TieBreakerSpec::DistanceRefined => ties
                .iter()
                .copied()
                .min_by_key(|&swap| (scorer.front_total(swap, arch), swap))
                .expect("non-empty tie set"),
        }
    }

    pub(crate) fn id_part(&self) -> &'static str {
        match self {
            TieBreakerSpec::SeededRandom => "randtie",
            TieBreakerSpec::QubitIndex => "idxtie",
            TieBreakerSpec::DistanceRefined => "disttie",
        }
    }
}

/// The placement axis: where each trial's initial program→physical mapping
/// comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlacementSpec {
    /// Structure-aware greedy-BFS placement — the SABRE and t|ket⟩ default.
    GreedyBfs,
    /// ML-QLS-style multilevel coarsen–place–refine placement
    /// ([`MultilevelRouter`] with its default tuning).
    Multilevel,
    /// The trivial identity placement (program qubit `q` on physical `q`):
    /// a baseline that isolates routing quality from placement quality.
    Identity,
}

impl PlacementSpec {
    /// The initial mapping for `trial`, following the SABRE random-restart
    /// scheme: trial 0 is this axis's deterministic placement, later trials
    /// draw a random mapping from `rng` (one draw sequence shared with
    /// routing, exactly like the pre-refactor SABRE).
    pub(crate) fn place(
        &self,
        trial: usize,
        circuit: &Circuit,
        arch: &Architecture,
        rng: &mut ChaCha8Rng,
    ) -> Mapping {
        if trial > 0 {
            return Mapping::random(circuit.num_qubits(), arch.num_qubits(), rng);
        }
        match self {
            PlacementSpec::GreedyBfs => greedy_bfs_placement(circuit, arch),
            PlacementSpec::Multilevel => MultilevelRouter::default().place(circuit, arch),
            PlacementSpec::Identity => Mapping::identity(circuit.num_qubits(), arch.num_qubits()),
        }
    }

    pub(crate) fn id_part(&self) -> &'static str {
        match self {
            PlacementSpec::GreedyBfs => "bfs",
            PlacementSpec::Multilevel => "mlp",
            PlacementSpec::Identity => "ident",
        }
    }
}

/// The complete policy bundle one [`run_greedy_pass`] call routes with.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPolicies<'a> {
    /// Lookahead axis.
    pub lookahead: LookaheadSpec,
    /// Decay axis.
    pub decay: DecaySpec,
    /// Tie-break axis.
    pub tie_breaker: TieBreakerSpec,
    /// Per-coupler SWAP-cost weights (uniform = the classic cost model).
    pub weights: &'a CouplerWeights,
    /// Number of consecutive SWAPs without executing any gate after which
    /// the pass forces the closest front gate through along a shortest
    /// path (SABRE's release valve / t|ket⟩'s stall fallback).
    pub stall_threshold: usize,
    /// The SWAP count this pass has to beat, or `None` to run to the end.
    ///
    /// With `Some(best)`, [`run_greedy_pass`] returns `None` as soon as the
    /// SWAPs it has emitted so far (inserted, forced and input SWAP gates,
    /// as [`Circuit::swap_count`] counts them) plus
    /// `⌈Σ over front gates of (dist − 1) / 2⌉` reach `best`. Front gates
    /// share no qubit and one SWAP moves two qubits one hop each, so every
    /// SWAP — stall-valve SWAPs included — lowers that front deficit by at
    /// most 2: the sum is a lower bound on the pass's final count, and an
    /// abandoned pass could not have finished below `best`. The bound is
    /// checked between decisions only (after the scorer is prepared, before
    /// candidates are gathered), so the scratch invariants still hold when
    /// a pass is abandoned.
    pub incumbent: Option<usize>,
}

/// Kernel state reused across every pass and trial of one route call.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    tracker: FrontTracker,
    scorer: SwapScorer,
    candidates: Vec<(usize, (NodeId, NodeId))>,
    ties: Vec<(NodeId, NodeId)>,
    decay: Vec<f64>,
    /// Qubits whose decay factor was bumped since the last reset: every
    /// other factor is exactly 1.0, so a reset only rewrites these.
    bumped: Vec<NodeId>,
}

impl GreedyScratch {
    /// Resets every decay factor to 1.0.
    fn reset_decay(&mut self) {
        for q in self.bumped.drain(..) {
            self.decay[q] = 1.0;
        }
    }
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
///
/// Returns `None` only for a pass bounded by
/// [`GreedyPolicies::incumbent`] that provably cannot beat it; `out` is
/// then left partly written, and `scratch` stays reusable.
pub fn run_greedy_pass(
    view: &ProblemView,
    arch: &Architecture,
    policies: &GreedyPolicies<'_>,
    mut mapping: Mapping,
    rng: &mut ChaCha8Rng,
    scratch: &mut GreedyScratch,
    mut out: Option<&mut Circuit>,
) -> Option<Mapping> {
    let dag = view.dag();
    let lookahead = &policies.lookahead;
    let (decay_increment, decay_reset_interval) = policies.decay.schedule();
    scratch.tracker.reset(dag);
    scratch.decay.clear();
    scratch.decay.resize(arch.num_qubits(), 1.0);
    scratch.bumped.clear();
    let mut decisions_since_reset = 0usize;
    let mut swaps_since_progress = 0usize;
    // SWAP gates emitted so far, counted whether or not `out` is present.
    let mut swaps = 0usize;
    // The scorer snapshot is valid until the front changes or the mapping
    // moves without the scorer seeing it (stall fallback).
    let mut scorer_ready = false;

    while !scratch.tracker.is_done() {
        // Execute every front gate whose qubits are adjacent. While the
        // scorer snapshot is valid it knows every front gate's distance, so
        // after a SWAP that brought none to distance 1 there is nothing to
        // execute and the front stays as it is.
        if !scorer_ready || scratch.scorer.front_has_executable_gate() {
            let out_ref = &mut out;
            let executed_any = scratch.tracker.advance(
                dag,
                |node| {
                    let (a, b) = dag.qubit_pair(node);
                    arch.are_coupled(mapping.physical(a), mapping.physical(b))
                },
                |node| {
                    swaps += usize::from(dag.gate(node).is_swap());
                    if let Some(out) = out_ref.as_deref_mut() {
                        view.emit(node, &mapping, out);
                    }
                },
            );
            if executed_any {
                swaps_since_progress = 0;
                scratch.reset_decay();
                decisions_since_reset = 0;
                scorer_ready = false;
                continue;
            }
        }

        // Release valve: force the closest front gate through if the
        // heuristic has been spinning without progress.
        if swaps_since_progress >= policies.stall_threshold {
            swaps += force_closest_gate(view, arch, &mut mapping, &mut out, scratch);
            swaps_since_progress = 0;
            scorer_ready = false;
            continue;
        }

        if !scorer_ready {
            scratch.tracker.compute_extended_set(dag, lookahead.window);
            scratch.scorer.prepare(
                scratch.tracker.front(),
                scratch.tracker.extended(),
                dag,
                &mapping,
                arch,
                lookahead,
            );
            scorer_ready = true;
        }
        if let Some(best) = policies.incumbent {
            if swaps + scratch.scorer.front_deficit().div_ceil(2) >= best {
                return None;
            }
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
        for &(coupler, swap) in &scratch.candidates {
            let score = swap_multiplier(policies.weights, &scratch.decay, swap)
                * scratch.scorer.swap_cost(coupler, arch, lookahead);
            if score < best_score - 1e-12 {
                best_score = score;
                scratch.ties.clear();
                scratch.ties.push(swap);
            } else if (score - best_score).abs() <= 1e-12 {
                scratch.ties.push(swap);
            }
        }
        let chosen = {
            let GreedyScratch { scorer, ties, .. } = &mut *scratch;
            policies.tie_breaker.break_tie(ties, scorer, arch, rng)
        };
        if let Some(out) = out.as_deref_mut() {
            out.push(Gate::swap(chosen.0, chosen.1));
        }
        swaps += 1;
        mapping.apply_swap_physical(chosen.0, chosen.1);
        scratch.scorer.apply(chosen, arch);
        // A zero increment (no decay) leaves every factor at exactly 1.0.
        if decay_increment != 0.0 {
            for q in [chosen.0, chosen.1] {
                scratch.decay[q] += decay_increment;
                scratch.bumped.push(q);
            }
        }
        decisions_since_reset += 1;
        swaps_since_progress += 1;
        if decisions_since_reset >= decay_reset_interval {
            scratch.reset_decay();
            decisions_since_reset = 0;
        }
    }

    // Emit trailing single-qubit gates under the final mapping.
    if let Some(out) = out {
        view.emit_trailing(&mapping, out);
    }
    Some(mapping)
}

/// Forces the front gate whose qubits are closest together to execute by
/// swapping one qubit along a shortest path towards the other, and returns
/// the number of SWAPs inserted. The gate itself executes on the next
/// main-loop iteration.
fn force_closest_gate(
    view: &ProblemView,
    arch: &Architecture,
    mapping: &mut Mapping,
    out: &mut Option<&mut Circuit>,
    scratch: &GreedyScratch,
) -> usize {
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
    let mut swaps = 0;
    force_adjacent(arch, mapping, a, b, |u, v| {
        swaps += 1;
        if let Some(out) = out.as_deref_mut() {
            out.push(Gate::swap(u, v));
        }
    });
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RoutingProblem;
    use qubikos_arch::devices;
    use rand::{RngCore, SeedableRng};

    fn policies(
        lookahead: LookaheadSpec,
        decay: DecaySpec,
        tie_breaker: TieBreakerSpec,
        weights: &CouplerWeights,
    ) -> GreedyPolicies<'_> {
        GreedyPolicies {
            lookahead,
            decay,
            tie_breaker,
            weights,
            stall_threshold: 64,
            incumbent: None,
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
        let initial = PlacementSpec::GreedyBfs.place(0, &circuit, &arch, &mut rng);
        let mut out = Circuit::new(arch.num_qubits());
        let final_mapping = run_greedy_pass(
            problem.forward(),
            &arch,
            p,
            initial,
            &mut rng,
            &mut scratch,
            Some(&mut out),
        )
        .expect("an unbounded pass runs to the end");
        (out, final_mapping)
    }

    /// A seeded random circuit on `num_qubits` qubits; with `swaps`, about
    /// one gate in five is an input SWAP gate.
    fn random_circuit(num_qubits: usize, gates: usize, seed: u64, swaps: bool) -> Circuit {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            if swaps && rng.gen_range(0..5) == 0 {
                c.push(Gate::swap(a, b));
            } else {
                c.push(Gate::cx(a, b));
            }
        }
        c
    }

    /// One SABRE-policy pass over `circuit` from `initial`, emitting into a
    /// fresh circuit, with the given `incumbent`.
    fn bounded_pass(
        arch: &Architecture,
        circuit: &Circuit,
        initial: &Mapping,
        scratch: &mut GreedyScratch,
        incumbent: Option<usize>,
    ) -> Option<(Circuit, Mapping)> {
        let weights = CouplerWeights::uniform();
        let p = GreedyPolicies {
            incumbent,
            ..policies(
                LookaheadSpec::sabre_default(),
                DecaySpec::sabre_default(),
                TieBreakerSpec::SeededRandom,
                &weights,
            )
        };
        let problem = RoutingProblem::forward_only(circuit);
        let mut out = Circuit::new(arch.num_qubits());
        let mapping = run_greedy_pass(
            problem.forward(),
            arch,
            &p,
            initial.clone(),
            &mut ChaCha8Rng::seed_from_u64(3),
            scratch,
            Some(&mut out),
        )?;
        Some((out, mapping))
    }

    /// A seeded random mapping of `circuit` onto `arch`.
    fn random_mapping(circuit: &Circuit, arch: &Architecture) -> Mapping {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Mapping::random(circuit.num_qubits(), arch.num_qubits(), &mut rng)
    }

    /// The greedy pass before the SWAP-chain shortcuts: every candidate's
    /// deltas recomputed ([`SwapScorer::uncached_swap_cost`]), the front
    /// advanced after every SWAP, and every decay factor refilled on a
    /// reset. The differential test pins [`run_greedy_pass`] to it.
    fn reference_greedy_pass(
        view: &ProblemView,
        arch: &Architecture,
        policies: &GreedyPolicies<'_>,
        mut mapping: Mapping,
        rng: &mut ChaCha8Rng,
        scratch: &mut GreedyScratch,
        mut out: Option<&mut Circuit>,
    ) -> Option<Mapping> {
        let dag = view.dag();
        let lookahead = &policies.lookahead;
        let (decay_increment, decay_reset_interval) = policies.decay.schedule();
        scratch.tracker.reset(dag);
        scratch.decay.clear();
        scratch.decay.resize(arch.num_qubits(), 1.0);
        let mut decisions_since_reset = 0usize;
        let mut swaps_since_progress = 0usize;
        let mut swaps = 0usize;
        let mut scorer_ready = false;
        while !scratch.tracker.is_done() {
            let out_ref = &mut out;
            let executed_any = scratch.tracker.advance(
                dag,
                |node| {
                    let (a, b) = dag.qubit_pair(node);
                    arch.are_coupled(mapping.physical(a), mapping.physical(b))
                },
                |node| {
                    swaps += usize::from(dag.gate(node).is_swap());
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
            if swaps_since_progress >= policies.stall_threshold {
                swaps += force_closest_gate(view, arch, &mut mapping, &mut out, scratch);
                swaps_since_progress = 0;
                scorer_ready = false;
                continue;
            }
            if !scorer_ready {
                scratch.tracker.compute_extended_set(dag, lookahead.window);
                scratch.scorer.prepare(
                    scratch.tracker.front(),
                    scratch.tracker.extended(),
                    dag,
                    &mapping,
                    arch,
                    lookahead,
                );
                scorer_ready = true;
            }
            if let Some(best) = policies.incumbent {
                if swaps + scratch.scorer.front_deficit().div_ceil(2) >= best {
                    return None;
                }
            }
            scratch
                .scorer
                .candidates_into(arch, &mut scratch.candidates);
            let mut best_score = f64::INFINITY;
            scratch.ties.clear();
            for &(_, swap) in &scratch.candidates {
                let score = swap_multiplier(policies.weights, &scratch.decay, swap)
                    * scratch.scorer.uncached_swap_cost(swap, arch, lookahead);
                if score < best_score - 1e-12 {
                    best_score = score;
                    scratch.ties.clear();
                    scratch.ties.push(swap);
                } else if (score - best_score).abs() <= 1e-12 {
                    scratch.ties.push(swap);
                }
            }
            let chosen = {
                let GreedyScratch { scorer, ties, .. } = &mut *scratch;
                policies.tie_breaker.break_tie(ties, scorer, arch, rng)
            };
            if let Some(out) = out.as_deref_mut() {
                out.push(Gate::swap(chosen.0, chosen.1));
            }
            swaps += 1;
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
        if let Some(out) = out {
            view.emit_trailing(&mapping, out);
        }
        Some(mapping)
    }

    /// Routed streams of [`run_greedy_pass`] and [`reference_greedy_pass`]
    /// must match, on sparse and dense random circuits over five devices,
    /// from the greedy-BFS, multilevel and a random placement, under the
    /// LightSABRE and t|ket⟩ policies and the variants with fidelity
    /// weights, a lookahead depth decay and distance-refined ties. One
    /// scratch per side is reused throughout, as a route's trials reuse
    /// theirs, and a bounded pass must be abandoned at the same point.
    #[test]
    fn greedy_pass_matches_the_uncached_reference() {
        let uniform = CouplerWeights::uniform();
        let sabre = policies(
            LookaheadSpec::sabre_default(),
            DecaySpec::sabre_default(),
            TieBreakerSpec::SeededRandom,
            &uniform,
        );
        let tket = GreedyPolicies {
            stall_threshold: 16,
            ..policies(
                LookaheadSpec::front_only(),
                DecaySpec::None,
                TieBreakerSpec::QubitIndex,
                &uniform,
            )
        };
        let (mut fast, mut slow) = (GreedyScratch::default(), GreedyScratch::default());
        for (arch, circuit) in crate::test_support::differential_cases() {
            let fidelity = CouplerWeights::fidelity_derived(arch.coupling_graph(), 3);
            let specs = [
                sabre,
                tket,
                GreedyPolicies {
                    weights: &fidelity,
                    ..sabre
                },
                GreedyPolicies {
                    lookahead: LookaheadSpec {
                        depth_decay: Some(0.8),
                        ..LookaheadSpec::sabre_default()
                    },
                    ..sabre
                },
                GreedyPolicies {
                    tie_breaker: TieBreakerSpec::DistanceRefined,
                    ..sabre
                },
            ];
            // Dense passes are long, so dense circuits skip the fidelity
            // weights (which multiply the SWAPs) and the random start. On
            // eagle-127 they run t|ket⟩ and LightSABRE from the greedy-BFS
            // placement only, and osprey-433 (seconds per dense pass in a
            // debug build) is covered by its sparse circuits.
            let (spec_ids, starts): (&[usize], usize) =
                match (circuit.gates().len(), arch.num_qubits()) {
                    (60, _) => (&[0, 1, 2, 3, 4], 3),
                    (_, ..=54) => (&[0, 1, 3, 4], 2),
                    (_, ..=127) => (&[0, 1], 1),
                    _ => continue,
                };
            let problem = RoutingProblem::forward_only(&circuit);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let starts: Vec<Mapping> = [
                (PlacementSpec::GreedyBfs, 0),
                (PlacementSpec::Multilevel, 0),
                (PlacementSpec::GreedyBfs, 1),
            ][..starts]
                .iter()
                .map(|&(placement, trial)| placement.place(trial, &circuit, &arch, &mut rng))
                .collect();
            for &s in spec_ids {
                let p = &specs[s];
                for (m, start) in starts.iter().enumerate() {
                    let case = format!(
                        "{}, {} gates, spec {s}, start {m}",
                        arch.name(),
                        circuit.gates().len()
                    );
                    let run = |pass: PassFn, scratch: &mut GreedyScratch, incumbent| {
                        let bounded = GreedyPolicies { incumbent, ..*p };
                        let mut out = Circuit::new(arch.num_qubits());
                        let mapping = pass(
                            problem.forward(),
                            &arch,
                            &bounded,
                            start.clone(),
                            &mut ChaCha8Rng::seed_from_u64(7),
                            scratch,
                            Some(&mut out),
                        );
                        mapping.map(|mapping| (out, mapping))
                    };
                    let expected = run(reference_greedy_pass, &mut slow, None);
                    let got = run(run_greedy_pass, &mut fast, None);
                    assert_eq!(got, expected, "{case}");
                    let count = expected.expect("unbounded").0.swap_count();
                    let bound = Some(count / 2);
                    assert_eq!(
                        run(run_greedy_pass, &mut fast, bound),
                        run(reference_greedy_pass, &mut slow, bound),
                        "{case}, bounded at {bound:?}"
                    );
                }
            }
        }
    }

    /// The signature shared by [`run_greedy_pass`] and its reference.
    type PassFn = fn(
        &ProblemView,
        &Architecture,
        &GreedyPolicies<'_>,
        Mapping,
        &mut ChaCha8Rng,
        &mut GreedyScratch,
        Option<&mut Circuit>,
    ) -> Option<Mapping>;

    #[test]
    fn bounded_pass_is_abandoned_only_when_it_cannot_win() {
        let arch = devices::aspen4();
        for (seed, swaps) in [(1, false), (2, false), (3, true), (4, true)] {
            let circuit = random_circuit(12, 40, seed, swaps);
            let initial = random_mapping(&circuit, &arch);
            let run = |incumbent| {
                bounded_pass(
                    &arch,
                    &circuit,
                    &initial,
                    &mut GreedyScratch::default(),
                    incumbent,
                )
            };
            let (out, mapping) = run(None).expect("an unbounded pass runs to the end");
            let count = out.swap_count();
            assert!(count > 0, "seed {seed}: the instance must need SWAPs");
            for incumbent in [0, count] {
                assert!(
                    run(Some(incumbent)).is_none(),
                    "seed {seed}: {incumbent} cannot be beaten"
                );
            }
            assert_eq!(
                run(Some(count + 1)),
                Some((out, mapping)),
                "seed {seed}: a winning pass"
            );
        }
    }

    #[test]
    fn bound_lets_one_swap_serve_two_front_gates() {
        // Line 0-1-2-3 with q_i on p_i: cx(0, 2) and cx(1, 3) are each one
        // hop short (front deficit 2), and swap(1, 2) fixes both at once.
        let arch = devices::line(4);
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 2), Gate::cx(1, 3)]);
        let initial = Mapping::identity(4, 4);
        let run = |incumbent| {
            bounded_pass(
                &arch,
                &circuit,
                &initial,
                &mut GreedyScratch::default(),
                incumbent,
            )
            .map(|(out, _)| out.swap_count())
        };
        assert_eq!(run(None), Some(1));
        assert_eq!(run(Some(2)), Some(1), "⌈2 / 2⌉ SWAPs cannot reach 2");
        assert_eq!(run(Some(1)), None);
    }

    #[test]
    fn scratch_is_reusable_after_an_abandoned_pass() {
        let arch = devices::aspen4();
        let circuit = random_circuit(12, 40, 5, true);
        let initial = random_mapping(&circuit, &arch);
        let fresh = bounded_pass(
            &arch,
            &circuit,
            &initial,
            &mut GreedyScratch::default(),
            None,
        );
        let count = fresh.as_ref().expect("unbounded").0.swap_count();
        let mut scratch = GreedyScratch::default();
        assert!(bounded_pass(&arch, &circuit, &initial, &mut scratch, Some(count / 2)).is_none());
        assert_eq!(
            bounded_pass(&arch, &circuit, &initial, &mut scratch, None),
            fresh
        );
    }

    #[test]
    fn deterministic_tie_breakers_ignore_the_rng() {
        let weights = CouplerWeights::uniform();
        for tie in [TieBreakerSpec::QubitIndex, TieBreakerSpec::DistanceRefined] {
            let p = policies(LookaheadSpec::front_only(), DecaySpec::None, tie, &weights);
            let (a, _) = route_once(&p, 1);
            let (b, _) = route_once(&p, 999);
            assert_eq!(a, b, "deterministic breaker must not consume the RNG");
        }
    }

    #[test]
    fn seeded_random_ties_follow_the_seed() {
        let weights = CouplerWeights::uniform();
        let p = policies(
            LookaheadSpec::sabre_default(),
            DecaySpec::sabre_default(),
            TieBreakerSpec::SeededRandom,
            &weights,
        );
        let (a, _) = route_once(&p, 7);
        let (b, _) = route_once(&p, 7);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    fn seeded_random_ties_draw_even_for_a_single_tie() {
        let arch = devices::grid(3, 3);
        let mut scorer = SwapScorer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut untouched = rng.clone();
        let tie = TieBreakerSpec::SeededRandom.break_tie(&[(0, 1)], &mut scorer, &arch, &mut rng);
        assert_eq!(tie, (0, 1));
        assert_ne!(
            rng.next_u64(),
            untouched.next_u64(),
            "a singleton tie set still draws"
        );
    }

    #[test]
    fn no_decay_keeps_factors_exactly_one() {
        let (increment, reset_interval) = DecaySpec::None.schedule();
        assert_eq!((increment, reset_interval), (0.0, usize::MAX));
        // Adding the increment must be an exact no-op on the neutral factor.
        let factor: f64 = 1.0;
        assert_eq!(factor + increment, 1.0);
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
        let uniform = CouplerWeights::uniform();
        let weighted = CouplerWeights::fidelity_derived(arch.coupling_graph(), 3);
        let sabre = |weights| {
            policies(
                LookaheadSpec::sabre_default(),
                DecaySpec::sabre_default(),
                TieBreakerSpec::SeededRandom,
                weights,
            )
        };
        let (pu, pw) = (sabre(&uniform), sabre(&weighted));
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
        let m = PlacementSpec::Identity.place(0, &circuit, &arch, &mut rng);
        for q in 0..circuit.num_qubits() {
            assert_eq!(m.physical(q), q);
        }
        let r = PlacementSpec::Identity.place(1, &circuit, &arch, &mut rng);
        assert!(r.is_consistent());
    }
}
