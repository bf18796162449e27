//! Program-to-physical qubit mappings.

use qubikos_graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// An injective mapping `f : Q -> P` from program qubits to physical qubits.
///
/// The device may have more physical qubits than the circuit has program
/// qubits; unassigned physical qubits simply hold no program state but can
/// still participate in SWAPs (which is how routers move qubits through
/// "empty" locations).
///
/// Internally both directions are kept so lookups are O(1):
/// `physical(q)` for program → physical, `logical(p)` for physical → program.
///
/// # Example
///
/// ```
/// use qubikos_layout::Mapping;
///
/// let mut m = Mapping::identity(3, 5);
/// assert_eq!(m.physical(2), 2);
/// m.apply_swap_physical(2, 4);
/// assert_eq!(m.physical(2), 4);
/// assert_eq!(m.logical(2), None);
/// assert_eq!(m.logical(4), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// `prog_to_phys[q]` is the physical qubit hosting program qubit `q`.
    prog_to_phys: Vec<NodeId>,
    /// `phys_to_prog[p]` is the program qubit hosted on `p`, if any.
    phys_to_prog: Vec<Option<NodeId>>,
}

impl Mapping {
    /// The identity mapping: program qubit `q` on physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `num_program > num_physical`.
    pub fn identity(num_program: usize, num_physical: usize) -> Self {
        assert!(
            num_program <= num_physical,
            "cannot map {num_program} program qubits onto {num_physical} physical qubits"
        );
        let prog_to_phys: Vec<NodeId> = (0..num_program).collect();
        Self::from_prog_to_phys(prog_to_phys, num_physical)
    }

    /// Builds a mapping from an explicit program → physical assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not injective or a physical qubit index is
    /// out of range.
    pub fn from_prog_to_phys(prog_to_phys: Vec<NodeId>, num_physical: usize) -> Self {
        assert!(
            prog_to_phys.len() <= num_physical,
            "cannot map {} program qubits onto {num_physical} physical qubits",
            prog_to_phys.len()
        );
        let mut phys_to_prog = vec![None; num_physical];
        for (q, &p) in prog_to_phys.iter().enumerate() {
            assert!(p < num_physical, "physical qubit {p} out of range");
            assert!(
                phys_to_prog[p].is_none(),
                "physical qubit {p} assigned to two program qubits"
            );
            phys_to_prog[p] = Some(q);
        }
        Mapping {
            prog_to_phys,
            phys_to_prog,
        }
    }

    /// A uniformly random injective mapping.
    ///
    /// # Panics
    ///
    /// Panics if `num_program > num_physical`.
    pub fn random<R: Rng + ?Sized>(num_program: usize, num_physical: usize, rng: &mut R) -> Self {
        assert!(
            num_program <= num_physical,
            "cannot map {num_program} program qubits onto {num_physical} physical qubits"
        );
        let mut physical: Vec<NodeId> = (0..num_physical).collect();
        physical.shuffle(rng);
        physical.truncate(num_program);
        Self::from_prog_to_phys(physical, num_physical)
    }

    /// Number of program qubits.
    pub fn num_program(&self) -> usize {
        self.prog_to_phys.len()
    }

    /// Number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.phys_to_prog.len()
    }

    /// Physical qubit hosting program qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn physical(&self, q: NodeId) -> NodeId {
        self.prog_to_phys[q]
    }

    /// Program qubit hosted on physical qubit `p`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn logical(&self, p: NodeId) -> Option<NodeId> {
        self.phys_to_prog[p]
    }

    /// The full program → physical assignment.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.prog_to_phys
    }

    /// Swaps whatever program qubits currently sit on physical qubits `a` and
    /// `b` (either or both may be empty).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn apply_swap_physical(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "swap needs two distinct physical qubits");
        assert!(
            a < self.num_physical() && b < self.num_physical(),
            "physical qubit out of range"
        );
        let qa = self.phys_to_prog[a];
        let qb = self.phys_to_prog[b];
        self.phys_to_prog[a] = qb;
        self.phys_to_prog[b] = qa;
        if let Some(q) = qa {
            self.prog_to_phys[q] = b;
        }
        if let Some(q) = qb {
            self.prog_to_phys[q] = a;
        }
    }

    /// Checks internal consistency (both directions agree, injectivity holds).
    pub fn is_consistent(&self) -> bool {
        let mut seen = vec![false; self.num_physical()];
        for (q, &p) in self.prog_to_phys.iter().enumerate() {
            if p >= self.num_physical() || seen[p] || self.phys_to_prog[p] != Some(q) {
                return false;
            }
            seen[p] = true;
        }
        self.phys_to_prog
            .iter()
            .enumerate()
            .all(|(p, entry)| match entry {
                Some(q) => *q < self.num_program() && self.prog_to_phys[*q] == p,
                None => !seen[p],
            })
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (q, &p) in self.prog_to_phys.iter().enumerate() {
            if q > 0 {
                write!(f, ", ")?;
            }
            write!(f, "q{q}→p{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_mapping() {
        let m = Mapping::identity(3, 5);
        assert_eq!(m.num_program(), 3);
        assert_eq!(m.num_physical(), 5);
        assert_eq!(m.physical(1), 1);
        assert_eq!(m.logical(1), Some(1));
        assert_eq!(m.logical(4), None);
        assert!(m.is_consistent());
    }

    #[test]
    #[should_panic(expected = "cannot map")]
    fn identity_too_many_program_qubits() {
        let _ = Mapping::identity(5, 3);
    }

    #[test]
    fn explicit_mapping() {
        let m = Mapping::from_prog_to_phys(vec![4, 0, 2], 5);
        assert_eq!(m.physical(0), 4);
        assert_eq!(m.logical(4), Some(0));
        assert_eq!(m.logical(1), None);
        assert!(m.is_consistent());
        assert_eq!(m.as_slice(), &[4, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "assigned to two")]
    fn explicit_mapping_rejects_duplicates() {
        let _ = Mapping::from_prog_to_phys(vec![1, 1], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_mapping_rejects_out_of_range() {
        let _ = Mapping::from_prog_to_phys(vec![7], 3);
    }

    #[test]
    fn swap_moves_both_occupied() {
        let mut m = Mapping::from_prog_to_phys(vec![0, 1], 3);
        m.apply_swap_physical(0, 1);
        assert_eq!(m.physical(0), 1);
        assert_eq!(m.physical(1), 0);
        assert!(m.is_consistent());
    }

    #[test]
    fn swap_into_empty_location() {
        let mut m = Mapping::from_prog_to_phys(vec![0], 3);
        m.apply_swap_physical(0, 2);
        assert_eq!(m.physical(0), 2);
        assert_eq!(m.logical(0), None);
        assert!(m.is_consistent());
        // Swapping two empty locations is a no-op but stays consistent.
        m.apply_swap_physical(0, 1);
        assert!(m.is_consistent());
    }

    #[test]
    #[should_panic(expected = "distinct physical qubits")]
    fn swap_same_qubit_panics() {
        let mut m = Mapping::identity(2, 3);
        m.apply_swap_physical(1, 1);
    }

    #[test]
    fn random_mapping_is_injective_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = Mapping::random(5, 9, &mut rng);
        assert!(m.is_consistent());
        let m2 = Mapping::random(5, 9, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(m, m2);
    }

    #[test]
    fn display_shows_assignments() {
        let m = Mapping::from_prog_to_phys(vec![2, 0], 3);
        assert_eq!(m.to_string(), "{q0→p2, q1→p0}");
    }
}
