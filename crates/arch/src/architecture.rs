//! The [`Architecture`] type.

use qubikos_graph::{DistanceMatrix, Edge, Graph, NodeId, OracleStats};
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
/// Construction also fixes the coupler list once: coupler `id` is the
/// `id`-th edge of [`Graph::edges`], and every qubit keeps the ids of its
/// incident couplers in ascending order, so a router can enumerate the
/// couplers around a few qubits without scanning the whole device.
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
    /// Coupler `id` → its edge, in [`Graph::edges`] order.
    couplers: Vec<Edge>,
    /// `incident[q]`: ids of the couplers touching qubit `q`, ascending.
    incident: Vec<Vec<usize>>,
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
        let couplers: Vec<Edge> = coupling.edges().collect();
        // Visiting couplers in id order fills each list in ascending order.
        let mut incident = vec![Vec::new(); coupling.node_count()];
        for (id, edge) in couplers.iter().enumerate() {
            incident[edge.u].push(id);
            incident[edge.v].push(id);
        }
        Ok(Architecture {
            name: name.into(),
            coupling,
            distances,
            couplers,
            incident,
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
        self.couplers.len()
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

    /// Iterator over coupler edges, in coupler-id order (the order of
    /// [`Graph::edges`]).
    pub fn couplers(&self) -> impl Iterator<Item = Edge> + '_ {
        self.couplers.iter().copied()
    }

    /// The coupler with id `id` (the `id`-th item of [`Self::couplers`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn coupler(&self, id: usize) -> Edge {
        self.couplers[id]
    }

    /// Ids of the couplers touching qubit `q`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn incident_couplers(&self, q: PhysicalQubit) -> &[usize] {
        &self.incident[q]
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

/// Structural identity: name and coupling graph. The distance table and
/// the coupler lists are derived from the coupling graph.
impl PartialEq for Architecture {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.coupling == other.coupling
    }
}

impl Eq for Architecture {}

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
    fn coupler_ids_and_incident_lists_agree_with_the_graph() {
        use crate::devices;
        for arch in [
            devices::line(5),
            devices::grid(4, 4),
            devices::aspen4(),
            devices::eagle127(),
            devices::osprey433(),
        ] {
            let graph_edges: Vec<Edge> = arch.coupling_graph().edges().collect();
            let couplers: Vec<Edge> = arch.couplers().collect();
            assert_eq!(couplers, graph_edges, "{}", arch.name());
            assert_eq!(arch.num_couplers(), arch.coupling_graph().edge_count());
            for (id, edge) in couplers.iter().enumerate() {
                assert_eq!(arch.coupler(id), *edge);
                for q in [edge.u, edge.v] {
                    assert!(arch.incident_couplers(q).contains(&id), "{}", arch.name());
                }
            }
            for q in 0..arch.num_qubits() {
                let ids = arch.incident_couplers(q);
                assert_eq!(ids.len(), arch.degree(q), "{} qubit {q}", arch.name());
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "{} qubit {q}",
                    arch.name()
                );
                assert!(ids.iter().all(|&id| {
                    let e = arch.coupler(id);
                    e.u == q || e.v == q
                }));
            }
        }
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
}
