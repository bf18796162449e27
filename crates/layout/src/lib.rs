//! Heuristic quantum layout-synthesis (QLS) tools.
//!
//! These are the tools the QUBIKOS benchmark evaluates: given a logical
//! [`Circuit`](qubikos_circuit::Circuit) and an
//! [`Architecture`](qubikos_arch::Architecture), each produces a
//! [`RoutedCircuit`] — an initial mapping from program qubits to physical
//! qubits plus a physical circuit with SWAP gates inserted so that every
//! two-qubit gate acts on coupled qubits.
//!
//! Four routers are provided, mirroring the tools in the paper's evaluation
//! (see DESIGN.md for the substitution notes):
//!
//! * [`SabreRouter`] — SABRE / LightSABRE-style bidirectional-pass router
//!   with basic, lookahead (extended-set) and decay costs and multi-trial
//!   search. This is the strongest heuristic and also the subject of the
//!   paper's §IV-C case study (see [`SabreConfig::lookahead_decay`]).
//! * [`TketRouter`] — a greedy distance-directed router in the spirit of
//!   t|ket⟩'s routing pass.
//! * [`AStarRouter`] — a QMAP-style per-layer A* search over SWAP sequences.
//! * [`MultilevelRouter`] — an ML-QLS-style multilevel placement plus
//!   SABRE-style refinement.
//!
//! All routers implement the [`Router`] trait so the benchmark harness can
//! treat them uniformly, and every result can be checked with
//! [`validate_routing`]. The shared routing machinery — per-call
//! [`RoutingProblem`] construction, front-layer
//! tracking, incremental SWAP scoring and the policy-parameterized greedy
//! loop ([`kernel::policy`]) — lives in the [`kernel`] module; each router
//! module contributes only its tool-specific policy on top.
//!
//! The [`composed`] module is the *router construction kit*: a
//! [`RouterSpec`] composes one choice per policy axis (lookahead, decay,
//! tie-breaking, placement, coupler weights, search engine) into a
//! [`ComposedRouter`], the four paper tools are named compositions, and the
//! benchmark harness enumerates the cross-product as an ablation matrix.
//!
//! # Example
//!
//! ```
//! use qubikos_arch::devices;
//! use qubikos_circuit::{Circuit, Gate};
//! use qubikos_layout::{Router, SabreRouter, validate_routing};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = devices::grid(3, 3);
//! let circuit = Circuit::from_gates(4, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 3)]);
//! let routed = SabreRouter::default().route(&circuit, &arch)?;
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
pub mod sabre;
pub mod tket;
pub mod validate;

pub use astar::{AStarConfig, AStarRouter};
pub use composed::{
    ComposedRouter, DecaySpec, LookaheadSpec, PlacementSpec, RouterSpec, SearchSpec,
    TieBreakerSpec, WeightsSpec,
};
pub use kernel::{FrontTracker, RoutingProblem, SwapScorer};
pub use mapping::Mapping;
pub use multilevel::{MultilevelConfig, MultilevelPlacement, MultilevelRouter};
pub use placement::{greedy_bfs_placement, random_placement, vf2_placement};
pub use result::RoutedCircuit;
pub use router::{RouteError, Router, ToolKind, ToolParseError};
pub use sabre::{SabreConfig, SabreRouter};
pub use tket::{TketConfig, TketRouter};
pub use validate::{validate_routing, ValidationError};
