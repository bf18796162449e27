//! Exhaustive minimal-SWAP search.
//!
//! The solver decides, for increasing `k`, whether the circuit can be
//! executed with at most `k` SWAP gates under *some* initial mapping. The
//! search assigns program qubits to physical qubits lazily (a program qubit
//! is only pinned down at the moment its first gate executes), which keeps
//! the branching factor independent of the device size for sparsely-used
//! devices while remaining complete:
//!
//! * executing a ready gate whose qubits are already mapped to adjacent
//!   locations is always done greedily (no choice is lost);
//! * a ready gate with unmapped qubits branches over every placement that
//!   makes it executable right now — deferring the placement decision to
//!   this moment is complete because an unmapped qubit's earlier positions
//!   cannot have influenced anything;
//! * a SWAP branches over every coupler with at least one mapped endpoint —
//!   SWAPs between two unmapped locations never change the reachable states.
//!
//! Infeasibility of `k-1` plus a witness at `k` proves optimality, exactly
//! the evidence OLSQ2 provides in the paper's §IV-A study. The deepening
//! starts at the circuit's certified static bound, the larger of the degree
//! surplus and the length of the Lemma-1 window chain ([`window_chain`]),
//! so every query below it is skipped.
//!
//! # Search-core architecture
//!
//! The DFS runs on one mutable `state::SearchState` with an undo journal
//! (no per-branch clones), deduplicates states through the Zobrist-hashed
//! transposition table in `dedup`, canonicalizes SWAP sequences (no
//! immediate reversals; consecutive independent SWAPs in coupler-index
//! order), and prunes with the packing lower bound in `prune`. Placement
//! children are refuted from the gates the move touches before they are
//! built: every node's state passes the bound at its own budget, so a
//! placement that adds no positive deficit skips the full check, and one
//! whose new deficit alone exceeds the budget is never built (see
//! `prune`). A node is also refuted, after the transposition probes, when
//! more windows of the chain still lie wholly ahead than it has SWAPs left
//! (see "Window-chain soundness"). The [`DependencyDag`], its window chain,
//! each qubit's gate partners and all scratch are built **once per
//! [`ExactSolver::solve`]** and shared by every deepening iteration — the
//! transposition table included, since "state `S` cannot finish with `s`
//! SWAPs left" is a statement independent of the query that discovered it.
//!
//! The pre-refactor clone-per-branch DFS survives as
//! [`reference`](mod@reference) for the differential tests.
//!
//! # Canonicalization soundness
//!
//! Both SWAP-ordering rules only prune move sequences that are *dominated*
//! by a sequence the search still explores:
//!
//! * **No immediate reversal.** Re-swapping the coupler just swapped, with
//!   no gate executed in between, returns to an earlier state with two fewer
//!   SWAPs left — any solution through it has a shorter counterpart without
//!   the pair.
//! * **Canonical order of consecutive independent SWAPs.** If SWAPs `e₂; e₁`
//!   on disjoint couplers run back-to-back (again, nothing executed between
//!   them), `e₁; e₂` reaches the same mapping. Greedy execution after `e₁`
//!   can only *add* executed gates, and having executed more gates never
//!   disables a continuation (executing a gate changes no positions, only
//!   clears dependencies) — so exploring the ordering with the smaller
//!   coupler index first loses nothing.
//!
//! Because these rules restrict a node's subtree based on the *incoming*
//! move, a state reached mid-SWAP-chain is not searched exhaustively in
//! isolation. Unrestricted transposition entries are therefore only
//! recorded at canonicalization-free contexts (after an execution, a
//! placement, or at the root), where the subtree is provably complete for
//! the state; restricted subtrees are recorded under a key qualified by the
//! incoming coupler, matching only the identical restriction. Probing the
//! *unrestricted* entry is safe from any context: it says no solution
//! exists from that state at all, which a fortiori covers the restricted
//! search.
//!
//! # Window-chain soundness
//!
//! The chain `W₁, …, W_m` holds windows of gates whose interaction graphs do
//! not embed in the coupling graph, and every gate of `W(i+1)` descends from
//! every gate of `Wᵢ`. A routing is a sequence of SWAPs and gate executions;
//! a window's *span* runs from its first executed gate to its last.
//!
//! * **A window needs a SWAP strictly inside its span.** Without one, no
//!   qubit of the window moves between its first and its last gate, so at
//!   the last gate every window qubit still sits where it sat when each of
//!   its gates ran, on a coupler of that gate. That one injective mapping
//!   embeds the window's interaction graph in the coupling graph, against
//!   the window's definition (Lemma 1 of the paper).
//! * **Chained spans are disjoint.** A gate runs only after its ancestors,
//!   so every gate of `W(i+1)` runs after every gate of `Wᵢ`: span `i` ends
//!   before span `i + 1` begins. The SWAPs inside them are distinct, and the
//!   chain proves `m` SWAPs, which is where the deepening starts.
//! * **The windows with no executed gate are a suffix.** If `Wᵢ` has an
//!   executed gate, all of that gate's ancestors ran before it, and they
//!   include every gate of `W(i-1)`. So the untouched windows are
//!   `W_j, …, W_m` for some `j`, and `SearchCore::expand` needs to look
//!   at one window only: with `s` SWAPs left, the node is refuted exactly
//!   when `W(m-s)` (the first of the last `s + 1`) is untouched. Each
//!   untouched window's span lies wholly in the future, so the future holds
//!   at least `m - j + 1` SWAPs.
//! * **Lazy placement leaves the argument intact.** Placing a qubit is not a
//!   SWAP and moves no placed qubit; a qubit is placed at the latest when
//!   its first gate runs, and stays put until a SWAP moves it. So in a
//!   SWAP-free span every window qubit keeps one location from its first
//!   window gate on, and the mapping of the first point exists as stated.
//! * **The refutation may be stored in the transposition table.** It reads
//!   only the executed set, which the Zobrist hash covers, and the budget;
//!   it does not depend on the incoming move. So it is an unrestricted fact
//!   about the state, and a parent whose children it refuted records its
//!   own entry as usual. The refuted node itself records nothing: the check
//!   is one scan of one window, cheaper than a table insert, and it fires
//!   again on every later visit with the same or a smaller budget, so an
//!   entry could never save a node.

pub mod reference;

pub(crate) mod dedup;
pub(crate) mod prune;
pub(crate) mod state;

use crate::lower_bound::{degree_surplus_lower_bound, window_chain};
use dedup::{TranspositionTable, ZobristKeys};
use prune::{exceeds_swap_budget, new_deficit, placement_verdict, PlacementVerdict, PruneScratch};
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, DependencyDag};
use qubikos_graph::Edge;
use state::{SearchState, UNPLACED};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Number of search-core constructions (hence [`DependencyDag`] builds)
    /// on this thread — the regression counter behind the
    /// build-the-DAG-once-per-solve guarantee.
    static DAG_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// Number of exact-search [`DependencyDag`] builds performed by this thread
/// so far. A single [`ExactSolver::solve`] increments it exactly once, no
/// matter how many deepening iterations it runs.
pub fn dag_builds_on_this_thread() -> usize {
    DAG_BUILDS.with(Cell::get)
}

/// Configuration of the exact solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Largest SWAP count to try before giving up.
    pub max_swaps: usize,
    /// Maximum number of search nodes per feasibility query; when exceeded
    /// the query (and therefore the overall result) is reported as unproven.
    pub node_budget: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_swaps: 8,
            node_budget: 20_000_000,
        }
    }
}

/// How a single bounded feasibility query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A routing with at most the queried number of SWAPs exists.
    Feasible,
    /// No such routing exists (exhaustively proven).
    Infeasible,
    /// The node budget ran out before the search completed.
    BudgetExhausted,
}

/// Per-`k` statistics of one feasibility query inside a solve.
#[derive(Debug, Clone, Copy)]
pub struct QueryStats {
    /// The queried SWAP budget `k`.
    pub swaps: usize,
    /// Search nodes expanded by this query. When the outcome is
    /// [`QueryOutcome::BudgetExhausted`] this equals the configured
    /// `node_budget` exactly: the query hard-stops at the boundary.
    pub nodes: u64,
    /// Wall-clock time of this query in microseconds.
    pub wall_micros: u64,
    /// How the query ended.
    pub outcome: QueryOutcome,
}

/// Outcome of an exact solve.
///
/// Deliberately not `PartialEq`: `wall_micros` varies run to run. Compare
/// the semantic fields (`optimal_swaps`, `proven`, `nodes_explored`)
/// individually, as the golden fixtures do.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The optimal SWAP count, if the solver found a feasible `k` within
    /// `max_swaps`.
    pub optimal_swaps: Option<usize>,
    /// `true` when the reported value is certain: every smaller SWAP count
    /// was exhaustively refuted within the node budget.
    pub proven: bool,
    /// Total number of search nodes expanded across all feasibility queries.
    pub nodes_explored: u64,
    /// Per-`k` node counts and timings, in deepening order — shows where the
    /// budget went.
    pub queries: Vec<QueryStats>,
    /// Total wall-clock time of the solve in microseconds.
    pub wall_micros: u64,
}

/// Exhaustive exact minimal-SWAP solver (OLSQ2 substitute).
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    config: ExactConfig,
}

/// Answer of a single bounded feasibility query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feasibility {
    /// A routing with at most the queried number of SWAPs exists.
    Feasible,
    /// No such routing exists (exhaustively proven).
    Infeasible,
    /// The node budget ran out before the search completed.
    Unknown,
}

impl ExactSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: ExactConfig) -> Self {
        ExactSolver { config }
    }

    /// Finds the minimum SWAP count for `circuit` on `arch`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit uses more qubits than the device provides.
    pub fn solve(&self, circuit: &Circuit, arch: &Architecture) -> ExactResult {
        assert!(
            circuit.num_qubits() <= arch.num_qubits(),
            "circuit does not fit the device"
        );
        let solve_start = Instant::now();
        let mut core = SearchCore::new(circuit, arch, self.config.node_budget);
        let mut queries = Vec::new();
        let mut nodes = 0u64;
        let start = degree_surplus_lower_bound(circuit, arch).max(core.windows.len());
        for k in start..=self.config.max_swaps {
            let query_start = Instant::now();
            let feasibility = core.feasible_with(k);
            nodes += core.nodes;
            queries.push(QueryStats {
                swaps: k,
                nodes: core.nodes,
                wall_micros: query_start.elapsed().as_micros() as u64,
                outcome: match feasibility {
                    Feasibility::Feasible => QueryOutcome::Feasible,
                    Feasibility::Infeasible => QueryOutcome::Infeasible,
                    Feasibility::Unknown => QueryOutcome::BudgetExhausted,
                },
            });
            match feasibility {
                Feasibility::Feasible => {
                    return ExactResult {
                        optimal_swaps: Some(k),
                        // All smaller k (if any beyond the certified lower
                        // bound) were refuted exhaustively, so the value is
                        // proven.
                        proven: true,
                        nodes_explored: nodes,
                        queries,
                        wall_micros: solve_start.elapsed().as_micros() as u64,
                    };
                }
                Feasibility::Infeasible => continue,
                Feasibility::Unknown => break,
            }
        }
        ExactResult {
            optimal_swaps: None,
            proven: false,
            nodes_explored: nodes,
            queries,
            wall_micros: solve_start.elapsed().as_micros() as u64,
        }
    }
}

/// All per-solve search machinery: the DAG and its window chain, the
/// Zobrist keys, the transposition table, the mutable state, and the prune
/// scratch. Built once per [`ExactSolver::solve`] and reused across
/// deepening iterations.
struct SearchCore<'a> {
    arch: &'a Architecture,
    dag: DependencyDag,
    /// The Lemma-1 window chain of `dag` ([`window_chain`]).
    windows: Vec<Vec<usize>>,
    couplers: Vec<Edge>,
    keys: ZobristKeys,
    tt: TranspositionTable,
    state: SearchState,
    scratch: PruneScratch,
    /// Program qubit → the distinct qubits it shares a gate with.
    partners: Vec<Vec<usize>>,
    /// Stack of placed-partner locations, one frame per open ready gate.
    partner_locs: Vec<usize>,
    budget: u64,
    /// Nodes expanded by the current query.
    nodes: u64,
}

impl<'a> SearchCore<'a> {
    fn new(circuit: &Circuit, arch: &'a Architecture, budget: u64) -> Self {
        let dag = DependencyDag::from_circuit(circuit);
        DAG_BUILDS.with(|c| c.set(c.get() + 1));
        let windows = window_chain(&dag, arch);
        let num_program = dag
            .gates()
            .iter()
            .map(|g| g.max_qubit() + 1)
            .max()
            .unwrap_or(0);
        let couplers: Vec<Edge> = arch.couplers().collect();
        let keys = ZobristKeys::new(arch.num_qubits(), couplers.len(), num_program, dag.len());
        let state = SearchState::new(&dag, arch.num_qubits(), num_program);
        let scratch = PruneScratch::new(num_program);
        let mut partners = vec![Vec::new(); num_program];
        for node in 0..dag.len() {
            let (a, b) = dag.qubit_pair(node);
            partners[a].push(b);
            partners[b].push(a);
        }
        for list in &mut partners {
            list.sort_unstable();
            list.dedup();
        }
        SearchCore {
            arch,
            dag,
            windows,
            couplers,
            keys,
            tt: TranspositionTable::new(),
            state,
            scratch,
            partners,
            partner_locs: Vec::with_capacity(64),
            budget,
            nodes: 0,
        }
    }

    /// One bounded feasibility query. The transposition table carries over
    /// from earlier queries of the same solve; everything else resets.
    fn feasible_with(&mut self, max_swaps: usize) -> Feasibility {
        self.nodes = 0;
        if self.dag.is_empty() {
            return Feasibility::Feasible;
        }
        debug_assert_eq!(self.state.mark(), 0, "state must be pristine per query");
        self.dfs(max_swaps, None)
    }

    /// Expands one search node: greedy-executes everything executable, then
    /// branches. `last_swap` is the coupler index of the immediately
    /// preceding SWAP if (and only if) no gate has executed since it.
    fn dfs(&mut self, swaps_left: usize, last_swap: Option<usize>) -> Feasibility {
        if self.nodes >= self.budget {
            // `Unknown` unwinds the whole DFS unconditionally (every caller
            // returns it straight through), so `nodes` is reported exactly
            // at the boundary.
            return Feasibility::Unknown;
        }
        self.nodes += 1;
        let mark = self.state.mark();
        let executed = self.greedy_execute();
        let context = if executed > 0 { None } else { last_swap };
        let result = self.expand(swaps_left, context);
        self.state.rewind_to(&self.keys, &self.dag, mark);
        result
    }

    fn expand(&mut self, swaps_left: usize, last_swap: Option<usize>) -> Feasibility {
        if self.state.executed_count() == self.dag.len() {
            return Feasibility::Feasible;
        }
        // The packing bound was already checked by the parent when it
        // generated this node (it is greedy-invariant, see [`prune`]); only
        // the transposition probes remain. The unrestricted entry applies
        // from any context — it refutes *every* continuation — while the
        // context-qualified entry only matches the identical restriction.
        if let Some(stored) = self.tt.probe(self.state.hash()) {
            if stored as usize >= swaps_left {
                return Feasibility::Infeasible;
            }
        }
        if let Some(prev) = last_swap {
            if let Some(stored) = self
                .tt
                .probe(self.state.hash() ^ self.keys.swap_context(prev))
            {
                if stored as usize >= swaps_left {
                    return Feasibility::Infeasible;
                }
            }
        }
        // The windows with no executed gate are a suffix of the chain, and
        // each needs a SWAP of its own still ahead ("Window-chain
        // soundness"): refute when the first of the last `swaps_left + 1`
        // windows is untouched.
        if let Some(first) = self.windows.len().checked_sub(swaps_left + 1) {
            if self.windows[first]
                .iter()
                .all(|&node| !self.state.is_executed(node))
            {
                return Feasibility::Infeasible;
            }
        }

        // Branch 1: execute a ready gate by placing its unplaced qubit(s).
        // The undo journal restores the ready vector's exact order after
        // every child, so iterating by index is sound. Each child is judged
        // from its placed qubits' partners before it is built (see
        // [`prune`]); the partners' locations sit on a stack shared by every
        // depth, which children push above and truncate back.
        for i in 0..self.state.ready_len() {
            let node = self.state.ready_at(i);
            let (a, b) = self.dag.qubit_pair(node);
            let (pa, pb) = (self.state.position(a), self.state.position(b));
            if pa != UNPLACED && pb != UNPLACED {
                continue; // needs SWAPs, not placement
            }
            let base = self.partner_locs.len();
            self.push_placed_partners(a);
            let mid = self.partner_locs.len();
            self.push_placed_partners(b);
            let result = if pa == UNPLACED && pb == UNPLACED {
                self.place_pair(node, (a, b), swaps_left, base, mid)
            } else {
                let (q, anchor) = if pa == UNPLACED { (a, pb) } else { (b, pa) };
                self.place_next_to(node, q, anchor, swaps_left, base)
            };
            self.partner_locs.truncate(base);
            if result != Feasibility::Infeasible {
                return result;
            }
        }

        // Branch 2: spend a SWAP on any coupler touching a placed qubit,
        // subject to the canonicalization rules (module docs).
        if swaps_left > 0 {
            for ci in 0..self.couplers.len() {
                let edge = self.couplers[ci];
                if self.state.occupant(edge.u) == UNPLACED
                    && self.state.occupant(edge.v) == UNPLACED
                {
                    continue;
                }
                if let Some(prev) = last_swap {
                    if ci == prev {
                        continue; // immediate reversal
                    }
                    let p = self.couplers[prev];
                    let disjoint = edge.u != p.u && edge.u != p.v && edge.v != p.u && edge.v != p.v;
                    if disjoint && ci < prev {
                        continue; // non-canonical order of independent SWAPs
                    }
                }
                let mark = self.state.mark();
                self.state.apply_swap(&self.keys, edge.u, edge.v);
                // Generate-and-test: a child the packing bound refutes is
                // rewound without ever becoming a search node.
                let result = if exceeds_swap_budget(
                    &mut self.scratch,
                    &self.state,
                    &self.dag,
                    self.arch,
                    swaps_left - 1,
                ) {
                    Feasibility::Infeasible
                } else {
                    self.dfs(swaps_left - 1, Some(ci))
                };
                self.state.rewind_to(&self.keys, &self.dag, mark);
                match result {
                    Feasibility::Feasible => return Feasibility::Feasible,
                    Feasibility::Unknown => return Feasibility::Unknown,
                    Feasibility::Infeasible => {}
                }
            }
        }

        // Every child refuted exhaustively (budget aborts unwound above). A
        // restricted (mid-SWAP-chain) context searched only a subset of
        // moves, so its refutation is recorded under the context-qualified
        // key; only canonicalization-free subtrees may claim the
        // unrestricted entry.
        match last_swap {
            None => self.tt.record(self.state.hash(), swaps_left),
            Some(prev) => self
                .tt
                .record(self.state.hash() ^ self.keys.swap_context(prev), swaps_left),
        }
        Feasibility::Infeasible
    }

    /// Branches over every free neighbour of `anchor` (the location of
    /// `node`'s placed qubit) for `node`'s unplaced qubit `q`, whose placed
    /// partners' locations are `partner_locs[base..]`.
    fn place_next_to(
        &mut self,
        node: usize,
        q: usize,
        anchor: usize,
        swaps_left: usize,
        base: usize,
    ) -> Feasibility {
        let arch = self.arch;
        let end = self.partner_locs.len();
        for &loc in arch.neighbors(anchor) {
            if self.state.occupant(loc) != UNPLACED {
                continue;
            }
            let added = new_deficit(arch, loc, &self.partner_locs[base..end]);
            let result = self.place_execute(node, &[(q, loc)], swaps_left, added);
            if result != Feasibility::Infeasible {
                return result;
            }
        }
        Feasibility::Infeasible
    }

    /// Branches over every coupler orientation for `node`'s two unplaced
    /// qubits; the placed partners' locations of `a` are
    /// `partner_locs[base..mid]` and those of `b` are `partner_locs[mid..]`.
    fn place_pair(
        &mut self,
        node: usize,
        (a, b): (usize, usize),
        swaps_left: usize,
        base: usize,
        mid: usize,
    ) -> Feasibility {
        let arch = self.arch;
        let end = self.partner_locs.len();
        for ci in 0..self.couplers.len() {
            let edge = self.couplers[ci];
            for (la, lb) in [(edge.u, edge.v), (edge.v, edge.u)] {
                if self.state.occupant(la) != UNPLACED || self.state.occupant(lb) != UNPLACED {
                    continue;
                }
                let added_a = new_deficit(arch, la, &self.partner_locs[base..mid]);
                let added_b = new_deficit(arch, lb, &self.partner_locs[mid..end]);
                let added = added_a.max(added_b);
                let result = self.place_execute(node, &[(a, la), (b, lb)], swaps_left, added);
                if result != Feasibility::Infeasible {
                    return result;
                }
            }
        }
        Feasibility::Infeasible
    }

    /// Pushes the locations of `q`'s placed partners onto `partner_locs`,
    /// unless `q` itself is placed.
    fn push_placed_partners(&mut self, q: usize) {
        if self.state.position(q) != UNPLACED {
            return;
        }
        for &p in &self.partners[q] {
            let loc = self.state.position(p);
            if loc != UNPLACED {
                self.partner_locs.push(loc);
            }
        }
    }

    /// Applies `placements`, executes `node`, and recurses unless the
    /// packing bound refutes the child. `added_deficit` is the largest
    /// deficit the placements add ([`new_deficit`]): a child it refutes is
    /// never built, and a child that adds none skips the full check.
    fn place_execute(
        &mut self,
        node: usize,
        placements: &[(usize, usize)],
        swaps_left: usize,
        added_deficit: usize,
    ) -> Feasibility {
        let verdict = placement_verdict(added_deficit, swaps_left);
        if verdict == PlacementVerdict::Refuted {
            return Feasibility::Infeasible;
        }
        let mark = self.state.mark();
        for &(q, loc) in placements {
            self.state.place(&self.keys, q, loc);
        }
        self.state.execute(&self.keys, &self.dag, node);
        debug_assert!(
            verdict != PlacementVerdict::Unchanged
                || !exceeds_swap_budget(
                    &mut self.scratch,
                    &self.state,
                    &self.dag,
                    self.arch,
                    swaps_left
                ),
            "a child without new deficits must pass where its parent passed"
        );
        let result = if self.state.executed_count() == self.dag.len() {
            Feasibility::Feasible
        } else if verdict == PlacementVerdict::NeedsFullCheck
            && exceeds_swap_budget(
                &mut self.scratch,
                &self.state,
                &self.dag,
                self.arch,
                swaps_left,
            )
        {
            Feasibility::Infeasible
        } else {
            self.dfs(swaps_left, None)
        };
        self.state.rewind_to(&self.keys, &self.dag, mark);
        result
    }

    /// Executes every ready gate whose qubits are placed and adjacent. One
    /// pass over the incrementally-maintained ready vector suffices:
    /// executing a gate never changes positions (so scanned-and-skipped
    /// nodes stay unexecutable), swap-remove only moves a not-yet-scanned
    /// tail element forward, and newly ready successors are appended behind
    /// the cursor.
    fn greedy_execute(&mut self) -> usize {
        let mut executed = 0usize;
        let mut i = 0;
        while i < self.state.ready_len() {
            let node = self.state.ready_at(i);
            let (a, b) = self.dag.qubit_pair(node);
            let (pa, pb) = (self.state.position(a), self.state.position(b));
            if pa != UNPLACED && pb != UNPLACED && self.arch.are_coupled(pa, pb) {
                self.state.execute(&self.keys, &self.dag, node);
                executed += 1;
            } else {
                i += 1;
            }
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::Gate;

    fn solver() -> ExactSolver {
        ExactSolver::new(ExactConfig {
            max_swaps: 4,
            node_budget: 5_000_000,
        })
    }

    #[test]
    fn empty_circuit_needs_no_swaps() {
        let arch = devices::line(3);
        let result = solver().solve(&Circuit::new(3), &arch);
        assert_eq!(result.optimal_swaps, Some(0));
        assert!(result.proven);
    }

    #[test]
    fn embeddable_circuit_needs_no_swaps() {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(
            5,
            [
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(2, 3),
                Gate::cx(3, 4),
            ],
        );
        let result = solver().solve(&circuit, &arch);
        assert_eq!(result.optimal_swaps, Some(0));
    }

    #[test]
    fn triangle_on_line_needs_exactly_one_swap() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        let result = solver().solve(&circuit, &arch);
        assert_eq!(result.optimal_swaps, Some(1));
        assert!(result.proven);
    }

    #[test]
    fn two_triangles_on_line_need_two_swaps() {
        // Two serialised triangle patterns over disjoint phases of the same
        // three qubits: each phase forces one SWAP on a line.
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(
            3,
            [
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(0, 2),
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(0, 2),
            ],
        );
        let result = solver().solve(&circuit, &arch);
        // After resolving the first triangle with one SWAP, the second
        // triangle again has all three pairs pending; a line can host at most
        // two of the three adjacencies under any mapping.
        assert_eq!(result.optimal_swaps, Some(2));
        assert!(result.proven);
    }

    /// A triangle, then two of its edges again: optimal at 2 SWAPs on a
    /// 3-qubit line, while its window chain proves only 1 (the trailing
    /// pair embeds), so a solve refutes k = 1 by search.
    fn triangle_then_two_of_its_edges() -> Circuit {
        Circuit::from_gates(
            3,
            [
                Gate::cx(0, 1),
                Gate::cx(1, 2),
                Gate::cx(0, 2),
                Gate::cx(1, 2),
                Gate::cx(0, 1),
            ],
        )
    }

    #[test]
    fn triangle_then_two_of_its_edges_needs_two_swaps() {
        let arch = devices::line(3);
        let result = solver().solve(&triangle_then_two_of_its_edges(), &arch);
        assert_eq!(result.optimal_swaps, Some(2));
        assert!(result.proven);
        assert_eq!(result.queries[0].outcome, QueryOutcome::Infeasible);
    }

    #[test]
    fn star_with_five_leaves_on_grid_needs_one_swap() {
        let arch = devices::grid(3, 3);
        let gates: Vec<Gate> = (1..=5).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(6, gates);
        let result = solver().solve(&circuit, &arch);
        assert_eq!(result.optimal_swaps, Some(1));
        assert!(result.proven);
    }

    #[test]
    fn exhausted_budget_reports_unproven() {
        let tiny = ExactSolver::new(ExactConfig {
            max_swaps: 4,
            node_budget: 1,
        });
        let arch = devices::grid(3, 3);
        let gates: Vec<Gate> = (1..=5).map(|i| Gate::cx(0, i)).collect();
        let circuit = Circuit::from_gates(6, gates);
        let result = tiny.solve(&circuit, &arch);
        assert!(!result.proven);
        assert_eq!(result.optimal_swaps, None);
    }

    /// The budget is a hard stop: a query that exhausts it reports exactly
    /// `node_budget` nodes (no sibling drift past the boundary), the
    /// exhausting query is the last one recorded, and the solve total is the
    /// exact sum of the per-query counts.
    #[test]
    fn budget_exhaustion_reports_exact_node_counts() {
        let budget = 8u64;
        let capped = ExactSolver::new(ExactConfig {
            max_swaps: 4,
            node_budget: budget,
        });
        let arch = devices::line(3);
        // The k = 1 refutation alone needs more than 8 nodes, so the first
        // query exhausts the budget mid-deepening.
        let circuit = triangle_then_two_of_its_edges();
        let result = capped.solve(&circuit, &arch);
        assert!(!result.proven);
        let last = result.queries.last().expect("at least one query");
        assert_eq!(last.outcome, QueryOutcome::BudgetExhausted);
        assert_eq!(last.nodes, budget, "hard stop exactly at the budget");
        assert_eq!(
            result.nodes_explored,
            result.queries.iter().map(|q| q.nodes).sum::<u64>(),
            "total must be the exact per-query sum"
        );
    }

    /// One `solve()` builds the dependency DAG exactly once, shared across
    /// all iterative-deepening queries (the pre-refactor core rebuilt it per
    /// `k`).
    #[test]
    fn solve_builds_the_dag_at_most_once() {
        let arch = devices::line(3);
        // Deepening starts at the certified bound of 1 and succeeds at 2, so
        // the solve runs two queries.
        let circuit = triangle_then_two_of_its_edges();
        let before = dag_builds_on_this_thread();
        let result = solver().solve(&circuit, &arch);
        assert!(
            result.queries.len() >= 2,
            "solve must deepen at least twice"
        );
        assert_eq!(
            dag_builds_on_this_thread() - before,
            1,
            "solve must build the DAG exactly once across all queries"
        );
    }

    #[test]
    fn per_query_stats_cover_the_deepening_path() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        let result = solver().solve(&circuit, &arch);
        // The certified lower bound is 1, so the only query is k = 1.
        assert_eq!(result.queries.len(), 1);
        assert_eq!(result.queries[0].swaps, 1);
        assert_eq!(result.queries[0].outcome, QueryOutcome::Feasible);
        assert_eq!(result.queries[0].nodes, result.nodes_explored);
        assert!(result.nodes_explored > 0);
    }

    #[test]
    fn respects_max_swaps_cap() {
        let capped = ExactSolver::new(ExactConfig {
            max_swaps: 0,
            node_budget: 1_000_000,
        });
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::cx(0, 1), Gate::cx(1, 2), Gate::cx(0, 2)]);
        let result = capped.solve(&circuit, &arch);
        assert_eq!(result.optimal_swaps, None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_circuit() {
        let arch = devices::line(2);
        let circuit = Circuit::from_gates(4, [Gate::cx(0, 3)]);
        let _ = solver().solve(&circuit, &arch);
    }
}
