//! The [`Architecture`] type.

use qubikos_graph::{DistanceMatrix, Edge, Graph, NodeId, OracleStats};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Index of a physical qubit on a device.
pub type PhysicalQubit = NodeId;

/// Error building an [`Architecture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchitectureError {
    /// The coupling graph had no qubits.
    Empty,
    /// The coupling graph was not connected; routing between the listed
    /// components would be impossible.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
}

impl fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchitectureError::Empty => write!(f, "coupling graph has no qubits"),
            ArchitectureError::Disconnected { components } => write!(
                f,
                "coupling graph is disconnected ({components} components); routing is impossible"
            ),
        }
    }
}

impl Error for ArchitectureError {}

/// A named device: a connected coupling graph plus its dense all-pairs
/// [`DistanceMatrix`], built once at construction for every device size
/// (Osprey-433's table is ~1.5 MB and builds in a few milliseconds).
///
/// # Example
///
/// ```
/// use qubikos_arch::Architecture;
/// use qubikos_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new("ring-5", generators::cycle_graph(5))?;
/// assert_eq!(arch.num_qubits(), 5);
/// assert_eq!(arch.distance(0, 2), 2);
/// assert_eq!(arch.distance(0, 3), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Architecture {
    name: String,
    coupling: Graph,
    distances: DistanceMatrix,
}

impl Architecture {
    /// Builds an architecture from a coupling graph and its distance table.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::Empty`] for an empty graph and
    /// [`ArchitectureError::Disconnected`] if the graph is not connected.
    pub fn new(name: impl Into<String>, coupling: Graph) -> Result<Self, ArchitectureError> {
        if coupling.node_count() == 0 {
            return Err(ArchitectureError::Empty);
        }
        let components = qubikos_graph::connected_components(&coupling).len();
        if components != 1 {
            return Err(ArchitectureError::Disconnected { components });
        }
        let distances = DistanceMatrix::new(&coupling);
        Ok(Architecture {
            name: name.into(),
            coupling,
            distances,
        })
    }

    /// Device name (e.g. `"aspen-4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.coupling.node_count()
    }

    /// Number of coupler edges.
    pub fn num_couplers(&self) -> usize {
        self.coupling.edge_count()
    }

    /// The coupling graph.
    pub fn coupling_graph(&self) -> &Graph {
        &self.coupling
    }

    /// Distance-table counters for the bench layer's per-route reports:
    /// `rows_computed` is the qubit count (every row is built eagerly) and
    /// every other field is 0 (see [`OracleStats`]).
    pub fn oracle_stats(&self) -> OracleStats {
        OracleStats {
            rows_computed: self.num_qubits() as u64,
            ..OracleStats::default()
        }
    }

    /// Exact hop distance between two physical qubits.
    ///
    /// This is the single place the distance contract is defined; every
    /// router and lower bound scores through it (or through
    /// [`Self::distance_row`], which reads the same table):
    ///
    /// * Distances are exact BFS hop counts.
    /// * Qubits in range: the distance, `usize::MAX` only if the device
    ///   were disconnected (construction rejects that, so in practice never).
    /// * Qubits out of range: **debug builds panic**; release behaviour is
    ///   unspecified (panic or an unrelated value). Callers that have not
    ///   already validated their qubits must use [`Self::try_distance`].
    pub fn distance(&self, a: PhysicalQubit, b: PhysicalQubit) -> usize {
        self.distances.get(a, b)
    }

    /// Checked [`Self::distance`]: `None` when either qubit is out of range.
    pub fn try_distance(&self, a: PhysicalQubit, b: PhysicalQubit) -> Option<usize> {
        self.distances.try_get(a, b)
    }

    /// Distances from `a` to every physical qubit, as one row of the table.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn distance_row(&self, a: PhysicalQubit) -> &[usize] {
        self.distances.row(a)
    }

    /// Returns `true` if `a` and `b` are coupled (a two-qubit gate can run on them).
    pub fn are_coupled(&self, a: PhysicalQubit, b: PhysicalQubit) -> bool {
        self.coupling.has_edge(a, b)
    }

    /// Neighbours of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: PhysicalQubit) -> &[PhysicalQubit] {
        self.coupling.neighbors(q)
    }

    /// Degree of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn degree(&self, q: PhysicalQubit) -> usize {
        self.coupling.degree(q)
    }

    /// Iterator over coupler edges.
    pub fn couplers(&self) -> impl Iterator<Item = Edge> + '_ {
        self.coupling.edges()
    }

    /// Average qubit degree — the paper's proxy for "dense" vs "sparse"
    /// connectivity when explaining why Rochester is harder than Sycamore.
    pub fn average_degree(&self) -> f64 {
        2.0 * self.num_couplers() as f64 / self.num_qubits() as f64
    }

    /// Graph diameter (largest qubit-to-qubit distance).
    pub fn diameter(&self) -> usize {
        self.distances.diameter().unwrap_or(0)
    }
}

/// Structural identity: name and coupling graph. The distance table is
/// derived from the coupling graph.
impl PartialEq for Architecture {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.coupling == other.coupling
    }
}

impl Eq for Architecture {}

/// Serializes as `{name, coupling}`; the distance table (derived data) is
/// rebuilt on deserialization. Any other field, such as the `oracle` kind
/// older files carry, is ignored.
impl Serialize for Architecture {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.serialize_value()),
            ("coupling".to_string(), self.coupling.serialize_value()),
        ])
    }
}

impl Deserialize for Architecture {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name = String::deserialize_value(value.object_field("name")?)?;
        let coupling = Graph::deserialize_value(value.object_field("coupling")?)?;
        Architecture::new(name, coupling)
            .map_err(|e| serde::Error::new(format!("invalid architecture: {e}")))
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplers, avg degree {:.2})",
            self.name,
            self.num_qubits(),
            self.num_couplers(),
            self.average_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_graph::generators;

    #[test]
    fn builds_from_connected_graph() {
        let arch = Architecture::new("grid", generators::grid_graph(3, 3)).expect("connected");
        assert_eq!(arch.name(), "grid");
        assert_eq!(arch.num_qubits(), 9);
        assert_eq!(arch.num_couplers(), 12);
        assert_eq!(arch.distance(0, 8), 4);
        assert!(arch.are_coupled(0, 1));
        assert!(!arch.are_coupled(0, 8));
        assert_eq!(arch.neighbors(4).len(), 4);
        assert_eq!(arch.degree(0), 2);
        assert_eq!(arch.diameter(), 4);
        assert!((arch.average_degree() - 24.0 / 9.0).abs() < 1e-9);
        assert_eq!(arch.couplers().count(), 12);
    }

    #[test]
    fn distances_come_from_one_dense_table() {
        let g = generators::grid_graph(3, 4);
        let arch = Architecture::new("g", g.clone()).expect("connected");
        let table = DistanceMatrix::new(&g);
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(arch.distance(a, b), table.get(a, b));
                assert_eq!(arch.try_distance(a, b), Some(table.get(a, b)));
            }
            assert_eq!(arch.distance_row(a), table.row(a));
        }
        assert_eq!(arch.try_distance(0, 99), None);
        assert_eq!(arch.try_distance(99, 0), None);
        assert_eq!(
            arch.oracle_stats(),
            OracleStats {
                rows_computed: 12,
                ..OracleStats::default()
            }
        );
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(
            Architecture::new("none", Graph::new()).unwrap_err(),
            ArchitectureError::Empty
        );
    }

    #[test]
    fn rejects_disconnected_graph() {
        let mut g = generators::path_graph(3);
        g.add_node();
        match Architecture::new("broken", g).unwrap_err() {
            ArchitectureError::Disconnected { components } => assert_eq!(components, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let text = ArchitectureError::Disconnected { components: 3 }.to_string();
        assert!(text.contains("3 components"));
        assert!(!ArchitectureError::Empty.to_string().is_empty());
    }

    #[test]
    fn display_mentions_name_and_size() {
        let arch = Architecture::new("line", generators::path_graph(4)).expect("connected");
        let text = arch.to_string();
        assert!(text.contains("line"));
        assert!(text.contains("4 qubits"));
    }

    #[test]
    fn single_qubit_architecture_is_valid() {
        let arch = Architecture::new("one", Graph::with_nodes(1)).expect("single qubit ok");
        assert_eq!(arch.num_qubits(), 1);
        assert_eq!(arch.diameter(), 0);
    }

    #[test]
    fn serde_round_trips_and_ignores_legacy_oracle_field() {
        let arch = Architecture::new("rt", generators::grid_graph(3, 3)).expect("ok");
        let json = serde_json::to_string(&arch).expect("serialize");
        assert!(!json.contains("oracle"), "{json}");
        let back: Architecture = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, arch);
        assert_eq!(back.distance(0, 8), 4);

        // Files written before the dense table became the only
        // representation still name an oracle kind; it is ignored.
        let legacy = json.replacen('{', r#"{"oracle":"Sparse","#, 1);
        let back: Architecture = serde_json::from_str(&legacy).expect("deserialize legacy");
        assert_eq!(back, arch);
        assert_eq!(back.distance(0, 8), 4);
    }

    #[test]
    fn deserialize_rejects_invalid_coupling() {
        let err = serde_json::from_str::<Architecture>(
            r#"{"name":"bad","coupling":{"adjacency":[]},"oracle":"Dense"}"#,
        );
        assert!(err.is_err());
    }
}
