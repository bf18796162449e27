//! # qubikos-engine — the shared experiment execution engine
//!
//! Every QUBIKOS experiment pipeline — the §IV-A optimality study, the
//! Figure-4 tool evaluation, the ablations, and the §IV-C case study — is a
//! bag of independent jobs whose runtimes vary by orders of magnitude (an
//! exact-solver search on a SWAP-4 instance can take 1000× longer than a
//! greedy route). This crate runs those bags on a **deterministic
//! work-stealing executor** so that:
//!
//! * one slow job never serializes a run (workers claim jobs one at a time
//!   from a shared atomic index — dynamic self-scheduling instead of static
//!   chunking);
//! * the merged output is **bit-identical for every thread count** (stable
//!   job ids and per-worker result buffers merged in id order — never a
//!   shared results lock). A job that needs randomness takes its seed from
//!   its own inputs (an instance's recorded seed, a tool's fixed seed), so
//!   nothing it computes depends on the schedule;
//! * a panicking job aborts the run with the *job's identity and payload*
//!   ([`EngineError::JobPanicked`]) instead of poisoning a mutex;
//! * per-job wall-clock timings stream to pluggable [`ProgressSink`]s
//!   (stderr progress for CLIs, per-layer metrics for the benchmark).
//!
//! ## Using the engine
//!
//! ```
//! use qubikos_engine::{Engine, NullSink};
//!
//! // Square the numbers 0..100 on every available core.
//! let jobs: Vec<u64> = (0..100).collect();
//! let engine = Engine::new(qubikos_engine::AUTO_THREADS);
//! let squares = engine
//!     .run(
//!         &jobs,
//!         |_worker_index| (),          // per-worker reusable state
//!         |_state, &job| job * job,
//!         &NullSink,
//!     )
//!     .expect("no job panicked");
//! // Output is in job order for ANY thread count.
//! assert_eq!(squares, (0..100).map(|j| j * j).collect::<Vec<_>>());
//! ```
//!
//! The per-worker state is where expensive setup lives: the tool-evaluation
//! pipeline builds each router **once per worker** instead of once per
//! circuit, and the optimality study gives each worker its own exact solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod job;
pub mod progress;
pub mod threads;

pub use executor::{Engine, EngineError};
pub use job::{JobId, JobKey, JobRecord};
pub use progress::{NullSink, ProgressSink, RunSummary, StderrProgress};
pub use threads::{available_threads, resolve_threads, AUTO_THREADS};
