//! Search-state deduplication: Zobrist hashing and the transposition table.
//!
//! Commuting SWAPs make the naive DFS explore factorially many orderings of
//! the same physical permutation. Every search state is summarised by a
//! 64-bit Zobrist hash over its (occupancy, executed set) pair, maintained
//! incrementally by [`super::state::SearchState`]; the transposition table
//! remembers, per hash, the largest SWAP budget with which the state was
//! already exhaustively refuted, so a re-visit with the same or less budget
//! is cut immediately.
//!
//! # Soundness
//!
//! * Two states with equal (occupancy, executed set) are genuinely
//!   identical: `position` is the inverse of `occupant`, and
//!   `remaining_preds`/ready are functions of the executed set.
//! * "Infeasible from here with `s` SWAPs left" is monotone in `s`, so a
//!   stored refutation at budget `s` applies to any probe with budget ≤ `s` —
//!   including probes from *later* deepening iterations, which is why one
//!   table serves a whole `solve()`.
//! * Entries are recorded only for subtrees searched to completion (never
//!   after a node-budget abort); subtrees restricted by the SWAP
//!   canonicalizer are keyed by a context-qualified hash so they can never
//!   answer an unrestricted probe (see `super::SearchCore::expand` for the
//!   argument).
//! * Key collisions are the standard Zobrist caveat: with 64-bit hashes and
//!   the 20M-node default budget the birthday bound is ≈ 2·10⁻⁵ per solve —
//!   the same trade every transposition-table search (and OLSQ2's own hashed
//!   clause store) makes. The differential tests against the reference DFS
//!   double-check the answers.

use std::collections::HashMap;

/// Deterministic per-(location, program) and per-node Zobrist key tables.
///
/// Keys come from a fixed-seed SplitMix64 stream, so hashes — and therefore
/// `nodes_explored` — are identical across runs and platforms (the golden
/// fixtures rely on this).
pub(crate) struct ZobristKeys {
    num_program: usize,
    /// Key for "program qubit q occupies location l": `occupancy[l * num_program + q]`.
    occupancy: Vec<u64>,
    /// Key for "DAG node n has been executed".
    executed: Vec<u64>,
    /// Key qualifying a transposition entry recorded from the restricted
    /// context "the previous move was a silent SWAP on coupler c".
    swap_context: Vec<u64>,
}

impl ZobristKeys {
    /// Builds key tables for a device with `num_locations` physical qubits
    /// and `num_couplers` couplers, a program with `num_program` qubits and
    /// a DAG with `dag_len` nodes.
    pub(crate) fn new(
        num_locations: usize,
        num_couplers: usize,
        num_program: usize,
        dag_len: usize,
    ) -> Self {
        let mut stream = (0u64..).map(|i| splitmix64(0x5165_c04c_7a3c_6e1d ^ i));
        let occupancy = (&mut stream).take(num_locations * num_program).collect();
        let executed = (&mut stream).take(dag_len).collect();
        let swap_context = (&mut stream).take(num_couplers).collect();
        ZobristKeys {
            num_program,
            occupancy,
            executed,
            swap_context,
        }
    }

    /// Key for "program qubit `program` occupies `location`".
    #[inline]
    pub(crate) fn occupancy(&self, location: usize, program: usize) -> u64 {
        self.occupancy[location * self.num_program + program]
    }

    /// Key for "DAG node `node` executed".
    #[inline]
    pub(crate) fn executed(&self, node: usize) -> u64 {
        self.executed[node]
    }

    /// Context key for "reached by a silent SWAP on coupler `coupler`".
    #[inline]
    pub(crate) fn swap_context(&self, coupler: usize) -> u64 {
        self.swap_context[coupler]
    }
}

/// The SplitMix64 output function (Steele, Lea, Flood): avalanche-complete,
/// so sequential inputs give independent-looking keys.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash → largest `swaps_left` with which the state was exhaustively refuted.
pub(crate) struct TranspositionTable {
    entries: HashMap<u64, u8>,
}

/// Hard cap on stored entries (≈ 4.2M), bounding worst-case table memory at
/// roughly 100 MB under the default 20M-node budget. Once full, existing
/// entries still update and probes still hit; only brand-new states stop
/// being recorded — a pure (and in practice unreachable on the §IV-A regime)
/// performance cliff, never a soundness issue.
const MAX_ENTRIES: usize = 1 << 22;

impl TranspositionTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        TranspositionTable {
            entries: HashMap::new(),
        }
    }

    /// Largest refuted budget recorded for `hash`, if any.
    #[inline]
    pub(crate) fn probe(&self, hash: u64) -> Option<u8> {
        self.entries.get(&hash).copied()
    }

    /// Records that the state hashing to `hash` was exhaustively refuted with
    /// `swaps_left` SWAPs remaining.
    pub(crate) fn record(&mut self, hash: u64, swaps_left: usize) {
        let budget = u8::try_from(swaps_left.min(u8::MAX as usize)).expect("clamped");
        if let Some(entry) = self.entries.get_mut(&hash) {
            *entry = (*entry).max(budget);
        } else if self.entries.len() < MAX_ENTRIES {
            self.entries.insert(hash, budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let a = ZobristKeys::new(4, 3, 3, 5);
        let b = ZobristKeys::new(4, 3, 3, 5);
        assert_eq!(a.occupancy(2, 1), b.occupancy(2, 1));
        assert_eq!(a.executed(4), b.executed(4));
        assert_eq!(a.swap_context(2), b.swap_context(2));
        // Spot-check injectivity over the small tables.
        let mut all: Vec<u64> = Vec::new();
        for l in 0..4 {
            for q in 0..3 {
                all.push(a.occupancy(l, q));
            }
        }
        for n in 0..5 {
            all.push(a.executed(n));
        }
        for c in 0..3 {
            all.push(a.swap_context(c));
        }
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "zobrist keys collided");
    }

    #[test]
    fn table_keeps_the_largest_refuted_budget() {
        let mut tt = TranspositionTable::new();
        assert_eq!(tt.probe(7), None);
        tt.record(7, 2);
        assert_eq!(tt.probe(7), Some(2));
        tt.record(7, 1);
        assert_eq!(tt.probe(7), Some(2), "smaller budget must not overwrite");
        tt.record(7, 5);
        assert_eq!(tt.probe(7), Some(5));
    }
}
