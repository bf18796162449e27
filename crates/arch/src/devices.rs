//! Builders for the device topologies used in the paper's evaluation.
//!
//! | Device | Qubits | Structure |
//! |---|---|---|
//! | `line(n)` | n | 1-D chain (Fig. 1(d) of the paper) |
//! | `grid(rows, cols)` | rows·cols | square lattice; the paper's "3x3 grid" optimality-study device is `grid(3, 3)` |
//! | [`aspen4`] | 16 | two octagonal rings bridged by two couplers (Rigetti Aspen-4) |
//! | [`sycamore54`] | 54 | diagonal square lattice (Google Sycamore) |
//! | [`rochester53`] | 53 | sparse heavy-hexagon-style lattice (IBM Rochester) |
//! | [`eagle127`] | 127 | heavy-hexagon lattice (IBM Eagle / ibm_washington layout pattern) |
//! | [`osprey433`] | 433 | heavy-hexagon lattice (IBM Osprey scale, beyond the paper's evaluation) |
//!
//! Rochester and Eagle are generated from the published heavy-hex pattern
//! (long rows of qubits joined by sparse bridge qubits); the Rochester
//! parameters are chosen to match the device's qubit count and average
//! degree rather than its exact edge list.

use crate::architecture::Architecture;
use qubikos_graph::{generators, Graph};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The devices used by the paper's experiments, as an enumerable handle.
///
/// Having an enum (rather than only free functions) lets a stored suite's
/// manifest name its device and lets experiments iterate the devices
/// (`DeviceKind::ALL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// 3×3 grid used in the optimality study.
    Grid3x3,
    /// Rigetti Aspen-4, 16 qubits.
    Aspen4,
    /// Google Sycamore, 54 qubits.
    Sycamore54,
    /// IBM Rochester, 53 qubits.
    Rochester53,
    /// IBM Eagle, 127 qubits.
    Eagle127,
    /// IBM Osprey, 433 qubits.
    Osprey433,
}

impl DeviceKind {
    /// Every device, in the order the paper presents them (Osprey, beyond
    /// the paper's evaluation, last).
    pub const ALL: [DeviceKind; 6] = [
        DeviceKind::Grid3x3,
        DeviceKind::Aspen4,
        DeviceKind::Sycamore54,
        DeviceKind::Rochester53,
        DeviceKind::Eagle127,
        DeviceKind::Osprey433,
    ];

    /// The four large architectures of the Figure-4 evaluation (everything
    /// except the 3×3 grid).
    pub const EVALUATION: [DeviceKind; 4] = [
        DeviceKind::Aspen4,
        DeviceKind::Sycamore54,
        DeviceKind::Rochester53,
        DeviceKind::Eagle127,
    ];

    /// Builds the architecture.
    pub fn build(self) -> Architecture {
        match self {
            DeviceKind::Grid3x3 => grid(3, 3),
            DeviceKind::Aspen4 => aspen4(),
            DeviceKind::Sycamore54 => sycamore54(),
            DeviceKind::Rochester53 => rochester53(),
            DeviceKind::Eagle127 => eagle127(),
            DeviceKind::Osprey433 => osprey433(),
        }
    }

    /// Stable lower-case name (matches `Architecture::name`).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Grid3x3 => "grid-3x3",
            DeviceKind::Aspen4 => "aspen-4",
            DeviceKind::Sycamore54 => "sycamore-54",
            DeviceKind::Rochester53 => "rochester-53",
            DeviceKind::Eagle127 => "eagle-127",
            DeviceKind::Osprey433 => "osprey-433",
        }
    }

    /// Every spelling [`Self::parse`] accepts, for error messages and
    /// did-you-mean suggestions.
    const ALIASES: [(&'static str, DeviceKind); 17] = [
        ("grid", DeviceKind::Grid3x3),
        ("grid3x3", DeviceKind::Grid3x3),
        ("grid-3x3", DeviceKind::Grid3x3),
        ("aspen4", DeviceKind::Aspen4),
        ("aspen-4", DeviceKind::Aspen4),
        ("sycamore", DeviceKind::Sycamore54),
        ("sycamore54", DeviceKind::Sycamore54),
        ("sycamore-54", DeviceKind::Sycamore54),
        ("rochester", DeviceKind::Rochester53),
        ("rochester53", DeviceKind::Rochester53),
        ("rochester-53", DeviceKind::Rochester53),
        ("eagle", DeviceKind::Eagle127),
        ("eagle127", DeviceKind::Eagle127),
        ("eagle-127", DeviceKind::Eagle127),
        ("osprey", DeviceKind::Osprey433),
        ("osprey433", DeviceKind::Osprey433),
        ("osprey-433", DeviceKind::Osprey433),
    ];

    /// Parses a device name as accepted by the experiment harness CLIs
    /// (case-insensitive; canonical names plus short aliases like
    /// `"eagle"`).
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceParseError`] carrying the rejected input and, when
    /// a known spelling is close, a did-you-mean suggestion.
    pub fn parse(name: &str) -> Result<DeviceKind, DeviceParseError> {
        let lower = name.to_ascii_lowercase();
        if let Some(&(_, kind)) = Self::ALIASES.iter().find(|(alias, _)| *alias == lower) {
            return Ok(kind);
        }
        let suggestion = Self::ALIASES
            .iter()
            .map(|&(alias, _)| (alias, edit_distance(&lower, alias)))
            .min_by_key(|&(alias, d)| (d, alias))
            .filter(|&(alias, d)| d <= 2.max(alias.len() / 3))
            .map(|(alias, _)| alias);
        Err(DeviceParseError {
            input: name.to_string(),
            suggestion,
        })
    }
}

/// Error from [`DeviceKind::parse`]: the input was not a known device name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceParseError {
    input: String,
    suggestion: Option<&'static str>,
}

impl DeviceParseError {
    /// The rejected input, verbatim.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The closest known spelling, when one is close enough to plausibly be
    /// what the user meant.
    pub fn suggestion(&self) -> Option<&'static str> {
        self.suggestion
    }

    /// Canonical names of every known device, for "expected one of" help
    /// text.
    pub fn known_devices() -> impl Iterator<Item = &'static str> {
        DeviceKind::ALL.iter().map(|k| k.name())
    }
}

impl fmt::Display for DeviceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown device `{}`", self.input)?;
        if let Some(suggestion) = self.suggestion {
            write!(f, " (did you mean `{suggestion}`?)")?;
        }
        Ok(())
    }
}

impl Error for DeviceParseError {}

/// Levenshtein edit distance, for did-you-mean suggestions on the handful of
/// short device aliases (the O(a·b) rolling-row version is plenty).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// 1-D chain of `n >= 2` qubits.
///
/// # Panics
///
/// Panics if `n < 2` (a single qubit cannot host two-qubit gates).
pub fn line(n: usize) -> Architecture {
    assert!(n >= 2, "line architecture needs at least 2 qubits");
    Architecture::new(format!("line-{n}"), generators::path_graph(n))
        .expect("path graph is connected")
}

/// `rows × cols` square lattice.
///
/// # Panics
///
/// Panics if the grid would have fewer than 2 qubits.
pub fn grid(rows: usize, cols: usize) -> Architecture {
    assert!(
        rows * cols >= 2,
        "grid architecture needs at least 2 qubits"
    );
    Architecture::new(
        format!("grid-{rows}x{cols}"),
        generators::grid_graph(rows, cols),
    )
    .expect("grid graph is connected")
}

/// Rigetti Aspen-4: two octagonal rings of 8 qubits bridged by two couplers.
pub fn aspen4() -> Architecture {
    let mut g = Graph::with_nodes(16);
    // Two octagons: 0..8 and 8..16.
    for ring in [0usize, 8] {
        for i in 0..8 {
            g.add_edge(ring + i, ring + (i + 1) % 8);
        }
    }
    // Inter-ring couplers (the Aspen lattice joins neighbouring octagons on
    // two adjacent corners).
    g.add_edge(1, 14);
    g.add_edge(2, 15);
    Architecture::new("aspen-4", g).expect("aspen-4 is connected")
}

/// Google Sycamore: 54 qubits on a diagonal square lattice (9 rows × 6
/// columns, every qubit coupled to up to four diagonal neighbours).
pub fn sycamore54() -> Architecture {
    const ROWS: usize = 9;
    const COLS: usize = 6;
    let mut g = Graph::with_nodes(ROWS * COLS);
    let id = |r: usize, c: usize| r * COLS + c;
    for r in 0..ROWS - 1 {
        for c in 0..COLS {
            // Each row couples diagonally to the next; the offset alternates
            // so that interior qubits reach degree 4.
            g.add_edge(id(r, c), id(r + 1, c));
            if r % 2 == 0 {
                if c > 0 {
                    g.add_edge(id(r, c), id(r + 1, c - 1));
                }
            } else if c + 1 < COLS {
                g.add_edge(id(r, c), id(r + 1, c + 1));
            }
        }
    }
    Architecture::new("sycamore-54", g).expect("sycamore is connected")
}

/// Heavy-hex style lattice: `long_rows` rows of `row_len` qubits joined by
/// bridge qubits at alternating column offsets.
///
/// The first and last long rows are one qubit shorter (missing their last and
/// first column respectively), matching IBM's published heavy-hex layouts.
/// Bridge rows between long rows `i` and `i+1` place one bridge qubit every
/// fourth column, starting at column 0 for even `i` and column 2 for odd `i`.
///
/// # Panics
///
/// Panics if `long_rows < 2` or `row_len < 3`.
pub fn heavy_hex(long_rows: usize, row_len: usize) -> Graph {
    assert!(long_rows >= 2, "heavy-hex needs at least 2 long rows");
    assert!(row_len >= 3, "heavy-hex rows need at least 3 qubits");
    // Column ranges per long row: first row drops the last column, last row
    // drops the first column, interior rows are full.
    let row_cols = |r: usize| -> (usize, usize) {
        if r == 0 {
            (0, row_len - 1)
        } else if r == long_rows - 1 {
            (1, row_len)
        } else {
            (0, row_len)
        }
    };

    let mut g = Graph::new();
    // Assign ids row by row: long row, then its bridge row.
    let mut row_start = Vec::with_capacity(long_rows);
    let mut bridges: Vec<Vec<(usize, usize)>> = Vec::new(); // (bridge node, column)
    for r in 0..long_rows {
        let (lo, hi) = row_cols(r);
        let start = g.node_count();
        row_start.push((start, lo));
        for _ in lo..hi {
            g.add_node();
        }
        // Edges along the long row.
        for c in lo..hi.saturating_sub(1) {
            let a = start + (c - lo);
            g.add_edge(a, a + 1);
        }
        // Bridge row below (except after the last long row). A bridge is only
        // placed when both adjacent long rows have a qubit in its column, so
        // every bridge has degree exactly two.
        if r + 1 < long_rows {
            let offset = if r % 2 == 0 { 0 } else { 2 };
            let mut row_bridges = Vec::new();
            let mut c = offset;
            while c < row_len {
                let fits = [r, r + 1].iter().all(|&long| {
                    let (rlo, rhi) = row_cols(long);
                    c >= rlo && c < rhi
                });
                if fits {
                    let b = g.add_node();
                    row_bridges.push((b, c));
                }
                c += 4;
            }
            bridges.push(row_bridges);
        }
    }
    // Connect bridges to the long rows above and below.
    for (r, row_bridges) in bridges.iter().enumerate() {
        for &(b, c) in row_bridges {
            for long in [r, r + 1] {
                let (start, lo) = row_start[long];
                g.add_edge(b, start + (c - lo));
            }
        }
    }
    g
}

/// IBM Rochester: 53 qubits, modelled as a sparse heavy-hexagon-style lattice
/// (5 long rows of 9 qubits, 2 bridge qubits between consecutive rows).
///
/// The exact Rochester edge list is not reproduced; the model matches the
/// device's qubit count and its sparse, low-symmetry connectivity (average
/// degree ≈ 2.2 versus Sycamore's ≈ 3.5), which is the property the paper's
/// analysis attributes the larger optimality gap to.
pub fn rochester53() -> Architecture {
    const LONG_ROWS: usize = 5;
    const ROW_LEN: usize = 9;
    let mut g = Graph::new();
    let mut row_start = Vec::new();
    let mut bridge_rows: Vec<Vec<(usize, usize)>> = Vec::new();
    for r in 0..LONG_ROWS {
        let start = g.node_count();
        row_start.push(start);
        for _ in 0..ROW_LEN {
            g.add_node();
        }
        for c in 0..ROW_LEN - 1 {
            g.add_edge(start + c, start + c + 1);
        }
        if r + 1 < LONG_ROWS {
            let cols: [usize; 2] = if r % 2 == 0 { [0, 8] } else { [4, 6] };
            let mut row_bridges = Vec::new();
            for c in cols {
                let b = g.add_node();
                row_bridges.push((b, c));
            }
            bridge_rows.push(row_bridges);
        }
    }
    for (r, row_bridges) in bridge_rows.iter().enumerate() {
        for &(b, c) in row_bridges {
            g.add_edge(b, row_start[r] + c);
            g.add_edge(b, row_start[r + 1] + c);
        }
    }
    Architecture::new("rochester-53", g).expect("rochester is connected")
}

/// IBM Eagle: 127 qubits on the heavy-hexagon lattice (the ibm_washington
/// layout pattern: seven long rows of 14/15 qubits joined by 24 bridge
/// qubits).
pub fn eagle127() -> Architecture {
    let g = heavy_hex(7, 15);
    debug_assert_eq!(g.node_count(), 127);
    Architecture::new("eagle-127", g).expect("eagle is connected")
}

/// IBM Osprey scale: 433 qubits on the heavy-hexagon lattice (thirteen long
/// rows of 26/27 qubits joined by 84 bridge qubits).
///
/// Osprey is beyond the paper's evaluation; it exists here as the scaling
/// stress device for routing. Its dense distance table holds 433² ≈ 187k
/// entries (~1.5 MB) and builds in a few milliseconds.
pub fn osprey433() -> Architecture {
    let g = heavy_hex(13, 27);
    debug_assert_eq!(g.node_count(), 433);
    Architecture::new("osprey-433", g).expect("osprey is connected")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_grid() {
        assert_eq!(line(5).num_qubits(), 5);
        assert_eq!(line(5).diameter(), 4);
        let g = grid(3, 3);
        assert_eq!(g.num_qubits(), 9);
        assert_eq!(g.num_couplers(), 12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn line_too_small_panics() {
        let _ = line(1);
    }

    #[test]
    fn aspen4_matches_published_size() {
        let a = aspen4();
        assert_eq!(a.num_qubits(), 16);
        assert_eq!(a.num_couplers(), 18);
        assert!(a.coupling_graph().is_connected());
        assert_eq!(a.coupling_graph().max_degree(), 3);
        // Every qubit participates in its ring, so min degree is 2.
        assert!(a.coupling_graph().nodes().all(|n| a.degree(n) >= 2));
    }

    #[test]
    fn sycamore_is_dense_grid_like() {
        let s = sycamore54();
        assert_eq!(s.num_qubits(), 54);
        assert!(s.coupling_graph().is_connected());
        assert_eq!(s.coupling_graph().max_degree(), 4);
        // Dense connectivity: clearly above the heavy-hex average degree.
        assert!(s.average_degree() > 2.9, "got {}", s.average_degree());
    }

    #[test]
    fn rochester_is_sparse() {
        let r = rochester53();
        assert_eq!(r.num_qubits(), 53);
        assert!(r.coupling_graph().is_connected());
        assert_eq!(r.coupling_graph().max_degree(), 3);
        assert!(r.average_degree() < 2.5, "got {}", r.average_degree());
        // The paper's explanation hinges on Rochester being sparser than Sycamore.
        assert!(r.average_degree() < sycamore54().average_degree());
    }

    #[test]
    fn eagle_matches_published_size() {
        let e = eagle127();
        assert_eq!(e.num_qubits(), 127);
        assert!(e.coupling_graph().is_connected());
        assert_eq!(e.coupling_graph().max_degree(), 3);
        // ibm_washington has 142-144 couplers depending on calibration; the
        // generated lattice should be in that ballpark.
        assert!(
            (130..=150).contains(&e.num_couplers()),
            "got {}",
            e.num_couplers()
        );
    }

    #[test]
    fn heavy_hex_generic_shapes() {
        let g = heavy_hex(3, 5);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
        // Every bridge qubit (degree-2 by construction) joins two long rows.
        let g = heavy_hex(4, 7);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
    }

    #[test]
    #[should_panic(expected = "at least 2 long rows")]
    fn heavy_hex_too_few_rows_panics() {
        let _ = heavy_hex(1, 5);
    }

    #[test]
    fn device_kind_roundtrip() {
        for kind in DeviceKind::ALL {
            let arch = kind.build();
            assert_eq!(arch.name(), kind.name());
            assert_eq!(DeviceKind::parse(kind.name()), Ok(kind));
        }
        assert_eq!(DeviceKind::parse("aspen4"), Ok(DeviceKind::Aspen4));
        assert_eq!(DeviceKind::parse("EAGLE"), Ok(DeviceKind::Eagle127));
        assert_eq!(DeviceKind::parse("osprey"), Ok(DeviceKind::Osprey433));
    }

    #[test]
    fn parse_errors_suggest_close_spellings() {
        let err = DeviceKind::parse("egale").unwrap_err();
        assert_eq!(err.input(), "egale");
        assert_eq!(err.suggestion(), Some("eagle"));
        assert!(err.to_string().contains("did you mean `eagle`?"));

        let err = DeviceKind::parse("rochster53").unwrap_err();
        assert_eq!(err.suggestion(), Some("rochester53"));

        // Nothing plausible: no suggestion, but the input is echoed.
        let err = DeviceKind::parse("zzzzzzzzzzzz").unwrap_err();
        assert_eq!(err.suggestion(), None);
        assert!(err.to_string().contains("zzzzzzzzzzzz"));
        assert!(!err.to_string().contains("did you mean"));

        let known: Vec<&str> = DeviceParseError::known_devices().collect();
        assert_eq!(known.len(), DeviceKind::ALL.len());
        assert!(known.contains(&"osprey-433"));
    }

    #[test]
    fn osprey_matches_design() {
        let o = osprey433();
        assert_eq!(o.num_qubits(), 433);
        assert!(o.coupling_graph().is_connected());
        // heavy_hex(13, 27): 11 full rows of 27 + 2 trimmed rows of 26 long
        // qubits, 84 degree-2 bridges. Long-row edges: 2·25 + 11·26 = 336;
        // bridge edges: 2 per bridge = 168.
        assert_eq!(o.num_couplers(), 336 + 168);
        let graph = o.coupling_graph();
        assert_eq!(graph.max_degree(), 3);
        let mut degree_histogram = [0usize; 4];
        for q in graph.nodes() {
            degree_histogram[graph.degree(q)] += 1;
        }
        // Degree-1: row-end qubits without a bridge (2 of the 26 row ends).
        // Degree-2: the 84 bridges, the 24 bridged row ends, and interior
        // long-row qubits with no bridge. Degree-3: interior long-row qubits
        // under one of the remaining 144 bridge attachments. No isolated or
        // higher-degree qubits exist on a heavy-hex lattice.
        assert_eq!(degree_histogram, [0, 2, 287, 144]);
        // Diameter spot-check: corner-to-corner must traverse every row band.
        let d = o.diameter();
        assert!((40..=80).contains(&d), "diameter {d}");
        // Average degree stays heavy-hex sparse.
        assert!(o.average_degree() < 2.5, "got {}", o.average_degree());
    }

    #[test]
    fn large_devices_build_the_full_dense_table() {
        for arch in [eagle127(), osprey433()] {
            let n = arch.num_qubits();
            assert_eq!(arch.oracle_stats().rows_computed, n as u64);
            for q in [0, n / 2, n - 1] {
                let row = arch.distance_row(q);
                assert_eq!(row.len(), n);
                assert_eq!(row[q], 0);
                assert!(row.iter().all(|&d| d <= arch.diameter()));
            }
        }
    }

    #[test]
    fn evaluation_devices_match_paper_sizes() {
        let sizes: Vec<usize> = DeviceKind::EVALUATION
            .iter()
            .map(|k| k.build().num_qubits())
            .collect();
        assert_eq!(sizes, vec![16, 54, 53, 127]);
    }
}
