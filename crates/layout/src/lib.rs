//! Heuristic quantum layout-synthesis (QLS) tools.
//!
//! These are the tools the QUBIKOS benchmark evaluates: given a logical
//! [`Circuit`](qubikos_circuit::Circuit) and an
//! [`Architecture`](qubikos_arch::Architecture), each produces a
//! [`RoutedCircuit`] — an initial mapping from program qubits to physical
//! qubits plus a physical circuit with SWAP gates inserted so that every
//! two-qubit gate acts on coupled qubits.
//!
//! One router, [`ComposedRouter`], runs every tool. A [`RouterSpec`]
//! composes one choice per policy axis — lookahead ([`LookaheadSpec`]),
//! decay ([`DecaySpec`]), tie-breaking ([`TieBreakerSpec`]), placement
//! ([`PlacementSpec`]), coupler weights ([`WeightsSpec`]) and search engine
//! ([`SearchSpec`]) — and the four tools of the paper's evaluation are named
//! compositions of it:
//!
//! * [`RouterSpec::lightsabre`] — SABRE / LightSABRE-style multi-trial,
//!   forward–backward–forward greedy search with extended-set lookahead and
//!   decay. The strongest heuristic and the subject of the paper's §IV-C
//!   case study, which routes it from the known-optimal mapping with
//!   [`ComposedRouter::route_with_initial_mapping`] and adds a depth decay
//!   to the lookahead ([`LookaheadSpec::depth_decay`]).
//! * [`RouterSpec::tket`] — a greedy distance-directed pass in the spirit
//!   of t|ket⟩'s routing.
//! * [`RouterSpec::qmap`] — a QMAP-style per-layer A* search over SWAP
//!   sequences.
//! * [`RouterSpec::ml_qls`] — ML-QLS-style multilevel placement
//!   ([`MultilevelRouter`]) plus one SABRE-style routing pass.
//!
//! [`ToolKind::build`] builds a tool by name as a boxed [`Router`], so the
//! benchmark harness can treat the tools uniformly, and
//! every result can be checked with [`validate_routing`]. The shared
//! routing machinery — per-call [`RoutingProblem`] construction,
//! front-layer tracking, incremental SWAP scoring, and the axis types with
//! the greedy loop that matches on them ([`kernel::policy`]) — lives in the
//! [`kernel`] module. The benchmark harness enumerates the cross-product of
//! the policy axes as an ablation matrix.
//!
//! # Example
//!
//! ```
//! use qubikos_arch::devices;
//! use qubikos_circuit::{Circuit, Gate};
//! use qubikos_layout::{validate_routing, Router, ToolKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = devices::grid(3, 3);
//! let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 3)]);
//! let routed = ToolKind::LightSabre.build(7).route(&circuit, &arch)?;
//! validate_routing(&circuit, &arch, &routed)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod composed;
pub mod kernel;
pub mod mapping;
pub mod multilevel;
pub mod placement;
pub mod result;
pub mod router;
pub mod validate;

#[cfg(test)]
mod test_support;

pub use composed::{ComposedRouter, RouterSpec, SearchSpec, WeightsSpec};
pub use kernel::{
    DecaySpec, FrontTracker, LookaheadSpec, PlacementSpec, RoutingProblem, SwapScorer,
    TieBreakerSpec,
};
pub use mapping::Mapping;
pub use multilevel::{MultilevelConfig, MultilevelRouter};
pub use placement::{greedy_bfs_placement, random_placement, vf2_placement};
pub use result::RoutedCircuit;
pub use router::{RouteError, Router, ToolKind, ToolParseError};
pub use validate::{validate_routing, ValidationError};
