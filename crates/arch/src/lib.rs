//! Device coupling graphs for the QUBIKOS benchmark suite.
//!
//! A quantum layout-synthesis problem is defined against an [`Architecture`]:
//! a named, connected coupling graph whose nodes are *physical* qubits and
//! whose edges are the pairs on which two-qubit gates can execute, together
//! with its dense all-pairs distance table (the quantity every SWAP router
//! scores against), built once per device.
//!
//! The [`devices`] module provides the four architectures evaluated in the
//! paper — Rigetti Aspen-4 (16 qubits), Google Sycamore (54), IBM Rochester
//! (53) and IBM Eagle (127) — plus an Osprey-scale 433-qubit heavy-hex
//! lattice for scaling studies and the line and grid topologies used
//! in the optimality study and the test suites. Rochester, Eagle and Osprey
//! are heavy-hex style lattices generated from the published layout pattern
//! (see [`devices`] for the modelling notes).
//!
//! # Example
//!
//! ```
//! use qubikos_arch::devices;
//!
//! let aspen = devices::aspen4();
//! assert_eq!(aspen.num_qubits(), 16);
//! assert!(aspen.coupling_graph().is_connected());
//!
//! let eagle = devices::eagle127();
//! assert_eq!(eagle.num_qubits(), 127);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod architecture;
pub mod devices;

pub use architecture::{Architecture, ArchitectureError};
pub use devices::{DeviceKind, DeviceParseError};
