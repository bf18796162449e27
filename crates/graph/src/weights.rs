//! Per-coupler SWAP-cost weights.
//!
//! Every router scores a candidate SWAP through the routing kernel's
//! multiplier pipeline (the selection scan in the layout crate). A
//! [`CouplerWeights`] assigns each
//! coupler edge a positive cost factor that composes into that pipeline, so
//! heterogeneous devices — where some couplers are noisier and a SWAP on
//! them is effectively more expensive — are just another weighting rather
//! than a separate routing mode.
//!
//! Two constructions are provided:
//!
//! * [`CouplerWeights::uniform`] — every coupler weighs exactly `1.0`.
//!   Because IEEE-754 multiplication by `1.0` is an exact identity, a
//!   router threading uniform weights through its score pipeline emits a
//!   SWAP stream *bit-identical* to one that never heard of weights; the
//!   golden fixtures pin this.
//! * [`CouplerWeights::fidelity_derived`] — a deterministic synthetic noise
//!   model: each coupler draws a fidelity-style factor from a seeded hash
//!   of its endpoints, yielding weights in `[1.0, 2.0)`. A SWAP is three CX
//!   gates, so an edge with a lower two-qubit fidelity costs proportionally
//!   more; routers steered by these weights prefer detours over quiet
//!   couplers.
//!
//! Hop *distances* stay unweighted integers throughout — weights scale the
//! cost of performing a SWAP on an edge, not the length of paths through
//! it, which leaves the distance table (and its exactness guarantees)
//! untouched.

use crate::graph::{Graph, NodeId};

/// Positive per-coupler SWAP-cost factors for one device graph. See the
/// module docs for the contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CouplerWeights {
    /// Weighted adjacency mirror of the coupling graph; empty means uniform
    /// (every edge weighs exactly `1.0` without storing anything).
    adjacency: Vec<Vec<(NodeId, f64)>>,
}

impl CouplerWeights {
    /// Uniform weights: every coupler weighs exactly `1.0`.
    pub fn uniform() -> Self {
        CouplerWeights::default()
    }

    /// Builds weights from an explicit per-edge function over `graph`'s
    /// couplers. `f` is called once per edge with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a non-finite or non-positive weight: a SWAP
    /// never costs nothing, and a negative cost would reward SWAPs.
    pub fn from_fn(graph: &Graph, mut f: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        let mut adjacency = vec![Vec::new(); graph.node_count()];
        for e in graph.edges() {
            let w = f(e.u, e.v);
            assert!(
                w.is_finite() && w > 0.0,
                "coupler weight for ({}, {}) must be finite and positive, got {w}",
                e.u,
                e.v
            );
            adjacency[e.u].push((e.v, w));
            adjacency[e.v].push((e.u, w));
        }
        CouplerWeights { adjacency }
    }

    /// Deterministic synthetic fidelity model: each coupler's weight is
    /// `1.0 + frac` where `frac ∈ [0, 1)` is drawn from a seeded hash of
    /// the (unordered) endpoint pair. The same `(graph, seed)` always
    /// yields the same weights, on any platform.
    pub fn fidelity_derived(graph: &Graph, seed: u64) -> Self {
        Self::from_fn(graph, |u, v| {
            let h = splitmix64(seed ^ splitmix64((u as u64) << 32 | v as u64));
            // Map the top 53 bits to [0, 1) — exact in f64.
            1.0 + (h >> 11) as f64 / (1u64 << 53) as f64
        })
    }

    /// Returns `true` for the uniform weighting, where every
    /// [`Self::weight`] is exactly `1.0` and multiplying a score by it is a
    /// bitwise no-op.
    pub fn is_uniform(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The weight of the coupler `(a, b)` (order-insensitive). Exactly
    /// `1.0` under uniform weights or for a pair that is not a coupler.
    pub fn weight(&self, a: NodeId, b: NodeId) -> f64 {
        match self.adjacency.get(a) {
            Some(row) => row
                .iter()
                .find(|&&(n, _)| n == b)
                .map(|&(_, w)| w)
                .unwrap_or(1.0),
            None => 1.0,
        }
    }
}

/// The splitmix64 mixing function — a tiny, well-distributed, platform-
/// independent hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_weighs_every_edge_exactly_one() {
        let w = CouplerWeights::uniform();
        assert!(w.is_uniform());
        assert_eq!(w.weight(0, 1), 1.0);
        assert_eq!(w.weight(100, 7), 1.0);
    }

    #[test]
    fn from_fn_is_symmetric_and_exact() {
        let g = generators::grid_graph(2, 3);
        let w = CouplerWeights::from_fn(&g, |u, v| 1.0 + (u + v) as f64);
        assert!(!w.is_uniform());
        for e in g.edges() {
            assert_eq!(w.weight(e.u, e.v), 1.0 + (e.u + e.v) as f64);
            assert_eq!(w.weight(e.v, e.u), w.weight(e.u, e.v));
        }
        // Non-edges fall back to the neutral weight.
        assert_eq!(w.weight(0, 5), 1.0);
    }

    #[test]
    fn fidelity_weights_are_deterministic_and_bounded() {
        let g = generators::grid_graph(3, 3);
        let a = CouplerWeights::fidelity_derived(&g, 42);
        let b = CouplerWeights::fidelity_derived(&g, 42);
        assert_eq!(a, b);
        let other = CouplerWeights::fidelity_derived(&g, 43);
        assert_ne!(a, other, "different seeds must perturb some edge");
        for e in g.edges() {
            let w = a.weight(e.u, e.v);
            assert!((1.0..2.0).contains(&w), "weight {w} out of range");
        }
        assert!(!a.is_uniform());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_non_positive_weights() {
        let g = generators::path_graph(3);
        let _ = CouplerWeights::from_fn(&g, |_, _| 0.0);
    }
}
