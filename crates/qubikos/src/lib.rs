//! QUBIKOS: QUantum Benchmarks wIth Known Optimal Swap counts.
//!
//! This crate is the reproduction of the paper's core contribution: a
//! generator of quantum circuits whose minimum SWAP count on a given device
//! is known — and provable — by construction.
//!
//! # How a QUBIKOS circuit is built
//!
//! For a requested optimal count of `n` SWAPs the generator produces `n`
//! serial *sections*. Each section:
//!
//! 1. picks a SWAP on the device (a coupler whose exchange gives one of its
//!    qubits a new neighbour),
//! 2. emits *saturation* gates that make the chosen program qubit interact
//!    with all of its current neighbours — and likewise for every program
//!    qubit sitting on a higher-degree physical qubit — so that no
//!    alternative placement can absorb the extra edge (Lemma 1 of the paper),
//! 3. emits one *special* gate to a qubit that only becomes a neighbour
//!    after the SWAP, and
//! 4. orders the gates (duplicating some) so that the previous section's
//!    special gate precedes everything in this section and this section's
//!    special gate follows everything in it (Lemma 2), making the sections
//!    execute serially (Lemma 3).
//!
//! The sum of the per-section optima is then the circuit's optimum
//! (Theorem 4), and redundant padding gates can be inserted without changing
//! it. Every generated [`QubikosCircuit`] carries the reference transpiled
//! solution (the upper bound) and enough section metadata for
//! [`certificate::verify_certificate`] to re-check the lower-bound argument
//! mechanically with VF2 and DAG reachability.
//!
//! # Example
//!
//! ```
//! use qubikos::{generate, GeneratorConfig};
//! use qubikos_arch::devices;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = devices::grid(3, 3);
//! let config = GeneratorConfig::new(2, 30).with_seed(7);
//! let bench = generate(&arch, &config)?;
//! assert_eq!(bench.optimal_swaps(), 2);
//! assert!(bench.circuit().two_qubit_gate_count() >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod certificate;
pub mod generator;
pub mod manifest;
pub mod queko;
pub mod suite;

pub use benchmark::{QubikosCircuit, Section};
pub use certificate::{verify_certificate, CertificateError};
pub use generator::{generate, GenerateError, GeneratorConfig};
pub use manifest::{
    content_hash, instance_file_name, shard_file_name, shard_spans, InstanceRecord, RootIndex,
    ShardManifest, ShardRecord, DEFAULT_SHARD_SIZE, MANIFEST_FILE, MANIFEST_FORMAT, SHARD_DIR,
};
pub use queko::{generate_queko, QuekoCircuit, QuekoConfig, QuekoError};
pub use suite::{generate_suite, ExperimentPoint, SuiteConfig};
