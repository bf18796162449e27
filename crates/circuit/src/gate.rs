//! Gate types.

use std::fmt;

/// Index of a program qubit within a [`Circuit`](crate::Circuit).
pub type QubitId = usize;

/// Single-qubit gate kinds supported by the IR.
///
/// Layout synthesis never constrains single-qubit gates (they execute on any
/// physical qubit), so the set only needs to be rich enough to express the
/// circuits the benchmarks and examples use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OneQubitKind {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S.
    S,
    /// T gate.
    T,
}

impl OneQubitKind {
    /// Lower-case OpenQASM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OneQubitKind::H => "h",
            OneQubitKind::X => "x",
            OneQubitKind::Y => "y",
            OneQubitKind::Z => "z",
            OneQubitKind::S => "s",
            OneQubitKind::T => "t",
        }
    }

    /// All supported kinds, used by tests and the QASM parser.
    pub const ALL: [OneQubitKind; 6] = [
        OneQubitKind::H,
        OneQubitKind::X,
        OneQubitKind::Y,
        OneQubitKind::Z,
        OneQubitKind::S,
        OneQubitKind::T,
    ];
}

/// Two-qubit gate kinds supported by the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoQubitKind {
    /// Controlled-NOT (control, target).
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP gate — inserted by layout synthesis, symmetric.
    Swap,
}

impl TwoQubitKind {
    /// Lower-case OpenQASM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TwoQubitKind::Cx => "cx",
            TwoQubitKind::Cz => "cz",
            TwoQubitKind::Swap => "swap",
        }
    }
}

/// A gate applied to one or two program qubits.
///
/// Constructors are provided for every supported kind; the two-qubit
/// constructors panic on equal qubits because a two-qubit gate acting twice
/// on the same wire is meaningless and would corrupt the interaction graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Single-qubit gate.
    One {
        /// Which single-qubit gate.
        kind: OneQubitKind,
        /// The qubit it acts on.
        qubit: QubitId,
    },
    /// Two-qubit gate.
    Two {
        /// Which two-qubit gate.
        kind: TwoQubitKind,
        /// The qubits it acts on; order is significant for `Cx`.
        qubits: [QubitId; 2],
    },
}

impl Gate {
    /// Hadamard on `q`.
    pub fn h(q: QubitId) -> Self {
        Gate::One {
            kind: OneQubitKind::H,
            qubit: q,
        }
    }

    /// Pauli-X on `q`.
    pub fn x(q: QubitId) -> Self {
        Gate::One {
            kind: OneQubitKind::X,
            qubit: q,
        }
    }

    /// Pauli-Z on `q`.
    pub fn z(q: QubitId) -> Self {
        Gate::One {
            kind: OneQubitKind::Z,
            qubit: q,
        }
    }

    /// T gate on `q`.
    pub fn t(q: QubitId) -> Self {
        Gate::One {
            kind: OneQubitKind::T,
            qubit: q,
        }
    }

    /// Single-qubit gate of arbitrary kind.
    pub fn one(kind: OneQubitKind, q: QubitId) -> Self {
        Gate::One { kind, qubit: q }
    }

    /// CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cx(c: QubitId, t: QubitId) -> Self {
        Self::two(TwoQubitKind::Cx, c, t)
    }

    /// Controlled-Z between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(a: QubitId, b: QubitId) -> Self {
        Self::two(TwoQubitKind::Cz, a, b)
    }

    /// SWAP between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: QubitId, b: QubitId) -> Self {
        Self::two(TwoQubitKind::Swap, a, b)
    }

    /// Two-qubit gate of arbitrary kind.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two(kind: TwoQubitKind, a: QubitId, b: QubitId) -> Self {
        assert!(
            a != b,
            "two-qubit gate needs distinct qubits, got {a} twice"
        );
        Gate::Two {
            kind,
            qubits: [a, b],
        }
    }

    /// Returns `true` for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Two { .. })
    }

    /// Returns `true` for SWAP gates.
    pub fn is_swap(&self) -> bool {
        matches!(
            self,
            Gate::Two {
                kind: TwoQubitKind::Swap,
                ..
            }
        )
    }

    /// The qubits this gate acts on (one or two entries).
    pub fn qubits(&self) -> Vec<QubitId> {
        match self {
            Gate::One { qubit, .. } => vec![*qubit],
            Gate::Two { qubits, .. } => qubits.to_vec(),
        }
    }

    /// For a two-qubit gate, its qubit pair `(g[0], g[1])`.
    pub fn qubit_pair(&self) -> Option<(QubitId, QubitId)> {
        match self {
            Gate::Two { qubits, .. } => Some((qubits[0], qubits[1])),
            Gate::One { .. } => None,
        }
    }

    /// Returns `true` if the gate acts on qubit `q`.
    pub fn acts_on(&self, q: QubitId) -> bool {
        match self {
            Gate::One { qubit, .. } => *qubit == q,
            Gate::Two { qubits, .. } => qubits[0] == q || qubits[1] == q,
        }
    }

    /// Largest qubit index used by the gate.
    pub fn max_qubit(&self) -> QubitId {
        match self {
            Gate::One { qubit, .. } => *qubit,
            Gate::Two { qubits, .. } => qubits[0].max(qubits[1]),
        }
    }

    /// The same gate with its qubit indices rewritten through `f`.
    ///
    /// Used when applying an initial mapping or composing with SWAP
    /// permutations.
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Gate {
        match *self {
            Gate::One { kind, qubit } => Gate::One {
                kind,
                qubit: f(qubit),
            },
            Gate::Two { kind, qubits } => Gate::Two {
                kind,
                qubits: [f(qubits[0]), f(qubits[1])],
            },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::One { kind, qubit } => write!(f, "{} q[{}]", kind.mnemonic(), qubit),
            Gate::Two { kind, qubits } => {
                write!(f, "{} q[{}], q[{}]", kind.mnemonic(), qubits[0], qubits[1])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_queries() {
        let g = Gate::cx(0, 3);
        assert!(g.is_two_qubit());
        assert!(!g.is_swap());
        assert_eq!(g.qubits(), vec![0, 3]);
        assert_eq!(g.qubit_pair(), Some((0, 3)));
        assert_eq!(g.max_qubit(), 3);
        assert!(g.acts_on(0));
        assert!(g.acts_on(3));
        assert!(!g.acts_on(1));

        let h = Gate::h(2);
        assert!(!h.is_two_qubit());
        assert_eq!(h.qubits(), vec![2]);
        assert_eq!(h.qubit_pair(), None);
        assert_eq!(h.max_qubit(), 2);
    }

    #[test]
    fn swap_is_swap() {
        assert!(Gate::swap(1, 2).is_swap());
        assert!(!Gate::cz(1, 2).is_swap());
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn two_qubit_gate_rejects_equal_qubits() {
        let _ = Gate::cx(1, 1);
    }

    #[test]
    fn map_qubits_rewrites_indices() {
        let g = Gate::cx(0, 1).map_qubits(|q| q + 10);
        assert_eq!(g.qubit_pair(), Some((10, 11)));
        let h = Gate::h(3).map_qubits(|q| q * 2);
        assert_eq!(h.qubits(), vec![6]);
    }

    #[test]
    fn display_mnemonics() {
        assert_eq!(Gate::h(0).to_string(), "h q[0]");
        assert_eq!(Gate::cx(0, 1).to_string(), "cx q[0], q[1]");
        assert_eq!(Gate::swap(2, 3).to_string(), "swap q[2], q[3]");
        for k in OneQubitKind::ALL {
            assert!(!k.mnemonic().is_empty());
        }
    }
}
