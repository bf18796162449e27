//! The [`Router`] trait and the tool registry used by the benchmark harness.

use crate::result::RoutedCircuit;
use qubikos_arch::Architecture;
use qubikos_circuit::Circuit;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors a router can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit uses more program qubits than the device has physical qubits.
    TooManyQubits {
        /// Program qubits required.
        program: usize,
        /// Physical qubits available.
        physical: usize,
    },
    /// The router failed to make progress (e.g. its search budget was
    /// exhausted before all gates were routed).
    NoProgress {
        /// Human-readable description of where the router got stuck.
        detail: String,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooManyQubits { program, physical } => write!(
                f,
                "circuit needs {program} qubits but the device only has {physical}"
            ),
            RouteError::NoProgress { detail } => write!(f, "router made no progress: {detail}"),
        }
    }
}

impl Error for RouteError {}

/// A quantum layout-synthesis tool: finds an initial mapping and inserts
/// SWAPs so every two-qubit gate acts on coupled physical qubits.
pub trait Router {
    /// Routes `circuit` onto `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::TooManyQubits`] when the circuit does not fit the
    /// device, or [`RouteError::NoProgress`] if the router's internal search
    /// gives up.
    fn route(&self, circuit: &Circuit, arch: &Architecture) -> Result<RoutedCircuit, RouteError>;

    /// Short stable tool name used in reports (e.g. `"lightsabre"`).
    fn name(&self) -> &str;
}

/// The four tools evaluated in the paper, as an enumerable registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ToolKind {
    /// SABRE / LightSABRE-style router
    /// ([`RouterSpec::lightsabre`](crate::RouterSpec::lightsabre)).
    LightSabre,
    /// ML-QLS-style multilevel router
    /// ([`RouterSpec::ml_qls`](crate::RouterSpec::ml_qls)).
    MlQls,
    /// QMAP-style per-layer A* router
    /// ([`RouterSpec::qmap`](crate::RouterSpec::qmap)).
    Qmap,
    /// t|ket⟩-style greedy router ([`RouterSpec::tket`](crate::RouterSpec::tket)).
    Tket,
}

impl ToolKind {
    /// Every tool, in the order the paper reports them.
    pub const ALL: [ToolKind; 4] = [
        ToolKind::LightSabre,
        ToolKind::MlQls,
        ToolKind::Qmap,
        ToolKind::Tket,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::LightSabre => "lightsabre",
            ToolKind::MlQls => "ml-qls",
            ToolKind::Qmap => "qmap",
            ToolKind::Tket => "tket",
        }
    }

    /// Accepted spellings for each tool, for parsing and did-you-mean
    /// suggestions. Both the ASCII and the Unicode spelling of t|ket⟩ are
    /// accepted (reports and docs use the Unicode form).
    const ALIASES: [(&'static str, ToolKind); 11] = [
        ("lightsabre", ToolKind::LightSabre),
        ("sabre", ToolKind::LightSabre),
        ("ml-qls", ToolKind::MlQls),
        ("mlqls", ToolKind::MlQls),
        ("multilevel", ToolKind::MlQls),
        ("qmap", ToolKind::Qmap),
        ("astar", ToolKind::Qmap),
        ("a*", ToolKind::Qmap),
        ("tket", ToolKind::Tket),
        ("t|ket>", ToolKind::Tket),
        ("t|ket⟩", ToolKind::Tket),
    ];

    /// Parses a tool name as accepted by the experiment harness CLIs.
    ///
    /// # Errors
    ///
    /// Returns a [`ToolParseError`] carrying the rejected input and, when a
    /// known spelling is close, a did-you-mean suggestion.
    pub fn parse(name: &str) -> Result<ToolKind, ToolParseError> {
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
        Err(ToolParseError {
            input: name.to_string(),
            suggestion,
        })
    }

    /// The tool's [`RouterSpec`](crate::RouterSpec) — its definition as a
    /// named composition in the router construction kit.
    pub fn spec(self) -> crate::RouterSpec {
        match self {
            ToolKind::LightSabre => crate::RouterSpec::lightsabre(),
            ToolKind::MlQls => crate::RouterSpec::ml_qls(),
            ToolKind::Qmap => crate::RouterSpec::qmap(),
            ToolKind::Tket => crate::RouterSpec::tket(),
        }
    }

    /// Builds the tool with the given seed — a thin alias over
    /// [`Self::spec`]: the returned router is the named composition, tagged
    /// with [`Self::name`].
    pub fn build(self, seed: u64) -> Box<dyn Router + Send + Sync> {
        Box::new(self.spec().build_named(seed, self.name()))
    }
}

/// Error from [`ToolKind::parse`]: the input was not a known tool name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolParseError {
    input: String,
    suggestion: Option<&'static str>,
}

impl ToolParseError {
    /// The rejected input, verbatim.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The closest known spelling, when one is plausibly intended.
    pub fn suggestion(&self) -> Option<&'static str> {
        self.suggestion
    }

    /// Canonical names of every known tool, for "expected one of" help
    /// text.
    pub fn known_tools() -> impl Iterator<Item = &'static str> {
        ToolKind::ALL.iter().map(|k| k.name())
    }
}

impl fmt::Display for ToolParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown tool `{}`", self.input)?;
        if let Some(suggestion) = self.suggestion {
            write!(f, " (did you mean `{suggestion}`?)")?;
        }
        Ok(())
    }
}

impl Error for ToolParseError {}

/// Levenshtein edit distance, for did-you-mean suggestions on the handful
/// of short tool aliases (the O(a·b) rolling-row version is plenty).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

impl fmt::Display for ToolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_names_roundtrip() {
        for tool in ToolKind::ALL {
            assert_eq!(ToolKind::parse(tool.name()), Ok(tool));
            assert_eq!(tool.to_string(), tool.name());
        }
        assert_eq!(ToolKind::parse("SABRE"), Ok(ToolKind::LightSabre));
        assert!(ToolKind::parse("nonsense").is_err());
    }

    #[test]
    fn tket_unicode_spelling_round_trips() {
        // The harness CLIs must accept both the ASCII and the Unicode
        // spelling; parsing the accepted name back must stay stable.
        for spelling in ["t|ket>", "t|ket⟩", "tket"] {
            let tool = ToolKind::parse(spelling).expect("accepted spelling");
            assert_eq!(tool, ToolKind::Tket);
            assert_eq!(ToolKind::parse(tool.name()), Ok(tool));
        }
    }

    #[test]
    fn parse_errors_suggest_close_spellings() {
        let err = ToolKind::parse("lightsaber").unwrap_err();
        assert_eq!(err.input(), "lightsaber");
        assert_eq!(err.suggestion(), Some("lightsabre"));
        assert!(err.to_string().contains("did you mean `lightsabre`?"));

        let err = ToolKind::parse("tkt").unwrap_err();
        assert_eq!(err.suggestion(), Some("tket"));

        // Nothing plausible: no suggestion, but the input is echoed.
        let err = ToolKind::parse("zzzzzzzzzzzz").unwrap_err();
        assert_eq!(err.suggestion(), None);
        assert!(err.to_string().contains("zzzzzzzzzzzz"));
        assert!(!err.to_string().contains("did you mean"));

        let known: Vec<&str> = ToolParseError::known_tools().collect();
        assert_eq!(known.len(), ToolKind::ALL.len());
        assert!(known.contains(&"ml-qls"));
    }

    #[test]
    fn build_returns_the_named_composition() {
        for tool in ToolKind::ALL {
            let router = tool.build(7);
            assert_eq!(router.name(), tool.name());
        }
        assert_eq!(ToolKind::LightSabre.spec(), crate::RouterSpec::lightsabre());
        assert_eq!(ToolKind::Tket.spec(), crate::RouterSpec::tket());
        assert_eq!(ToolKind::MlQls.spec(), crate::RouterSpec::ml_qls());
        assert_eq!(ToolKind::Qmap.spec(), crate::RouterSpec::qmap());
    }

    #[test]
    fn route_error_display() {
        let err = RouteError::TooManyQubits {
            program: 10,
            physical: 5,
        };
        assert!(err.to_string().contains("10"));
        let err = RouteError::NoProgress {
            detail: "stuck".into(),
        };
        assert!(err.to_string().contains("stuck"));
    }
}
