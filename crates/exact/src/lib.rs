//! Exact minimal-SWAP layout synthesis for small instances.
//!
//! The paper verifies QUBIKOS optimality with OLSQ2, a SAT/SMT-based exact
//! tool. This crate plays that role without an external solver:
//! [`ExactSolver`] performs an exhaustive,
//! provably complete search over initial mappings and SWAP sequences, and
//! [`lower_bound`] provides cheap admissible lower bounds read from the
//! circuit alone — the degree surplus and the paper's Lemma 1 applied to a
//! chain of gate windows — used both to start and prune the search and as
//! stand-alone certified bounds.
//!
//! The search is exponential — exactly like the tool it replaces, it is only
//! meant for the optimality-study regime (§IV-A of the paper: ≤ 30 two-qubit
//! gates, ≤ 16 physical qubits, ≤ 4 SWAPs). The solver accepts an explicit
//! node budget and reports whether its answer is proven or was cut short.
//!
//! The search core runs on a single in-place state with an undo journal, a
//! Zobrist-hashed transposition table, canonicalized SWAP sequences, and a
//! packing lower bound (see [`solver`] for the architecture and the
//! soundness arguments); the naive pre-refactor DFS is preserved in
//! [`solver::reference`] as the differential-testing baseline.
//!
//! # Example
//!
//! ```
//! use qubikos_arch::devices;
//! use qubikos_circuit::{Circuit, Gate};
//! use qubikos_exact::{ExactConfig, ExactSolver};
//!
//! // A 3-qubit "triangle" circuit on a 3-qubit line needs exactly one SWAP.
//! let arch = devices::line(3);
//! let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
//! let result = ExactSolver::new(ExactConfig::default()).solve(&circuit, &arch);
//! assert_eq!(result.optimal_swaps, Some(1));
//! assert!(result.proven);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lower_bound;
pub mod solver;

pub use lower_bound::swap_lower_bound;
pub use solver::{ExactConfig, ExactResult, ExactSolver, QueryOutcome, QueryStats};
