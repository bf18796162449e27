//! Golden exact-solver regression fixtures (the `golden_swaps.rs` pattern
//! applied to the OLSQ2 substitute).
//!
//! Solves a fixed set of seeded QUBIKOS instances on Grid3x3 and Aspen-4 and
//! pins `optimal_swaps`, `proven`, **and `nodes_explored`** exactly. The
//! node count is a deliberate tripwire: any change to the search order, the
//! transposition table, the canonicalization rules, or the packing bound
//! shifts it — so a regression that silently blows the node budget back up
//! (or an "optimization" that quietly changes answers) fails here loudly
//! instead of drifting the §IV-A study's budget.
//!
//! A total can hide a change that moves nodes between deepening queries, so
//! a second set of fixtures, in the shape of the benchmark's `exact`
//! workload (30 gates, designed SWAPs 1–3, a 100k-node budget per query),
//! pins the `(k, nodes, outcome)` of **every query** — including queries
//! that exhaust the budget, which end at exactly 100k nodes.
//!
//! If a change *intentionally* alters the search, regenerate the constants
//! and record the node-count movement in the PR description. Node counts
//! are deterministic across platforms and optimization levels: every
//! iteration order in the core is fixed and the Zobrist keys come from a
//! seeded SplitMix64 stream.

use qubikos::{generate, GeneratorConfig};
use qubikos_arch::DeviceKind;
use qubikos_exact::{ExactConfig, ExactSolver, QueryOutcome};

/// One pinned instance: (designed swaps, generator seed, expected nodes).
struct Fixture {
    swaps: usize,
    seed: u64,
    nodes: u64,
}

fn check_fixtures(device: DeviceKind, gates: usize, fixtures: &[Fixture]) {
    let arch = device.build();
    let solver = ExactSolver::new(ExactConfig::default());
    for f in fixtures {
        let bench = generate(
            &arch,
            &GeneratorConfig::new(f.swaps, gates).with_seed(f.seed),
        )
        .expect("generates");
        let result = solver.solve(bench.circuit(), &arch);
        let label = format!("{}/swaps={}/seed={}", device.name(), f.swaps, f.seed);
        assert_eq!(
            result.optimal_swaps,
            Some(f.swaps),
            "{label}: optimum changed"
        );
        assert!(result.proven, "{label}: result no longer proven");
        assert_eq!(
            result.nodes_explored, f.nodes,
            "{label}: search behaviour changed (got {} nodes, golden {})",
            result.nodes_explored, f.nodes
        );
    }
}

#[test]
fn golden_exact_on_grid3x3() {
    check_fixtures(
        DeviceKind::Grid3x3,
        16,
        &[
            Fixture {
                swaps: 1,
                seed: 11,
                nodes: 1773,
            },
            Fixture {
                swaps: 1,
                seed: 29,
                nodes: 681,
            },
            Fixture {
                swaps: 2,
                seed: 11,
                nodes: 1676,
            },
            Fixture {
                swaps: 2,
                seed: 29,
                nodes: 659,
            },
            Fixture {
                swaps: 3,
                seed: 11,
                nodes: 2340,
            },
            Fixture {
                swaps: 3,
                seed: 29,
                nodes: 2573,
            },
        ],
    );
}

#[test]
fn golden_exact_on_aspen4() {
    check_fixtures(
        DeviceKind::Aspen4,
        12,
        &[
            Fixture {
                swaps: 1,
                seed: 5,
                nodes: 6128,
            },
            Fixture {
                swaps: 1,
                seed: 29,
                nodes: 1888,
            },
            Fixture {
                swaps: 2,
                seed: 5,
                nodes: 44,
            },
            Fixture {
                swaps: 2,
                seed: 29,
                nodes: 187,
            },
        ],
    );
}

/// One instance pinned query by query: (designed swaps, generator seed,
/// expected `(k, nodes, outcome)` of every deepening query in order).
struct QueryFixture {
    swaps: usize,
    seed: u64,
    queries: &'static [(usize, u64, QueryOutcome)],
}

/// Solves 30-gate instances with a 100k-node budget per query, as the
/// benchmark's `exact` workload does, and compares every query.
fn check_query_fixtures(device: DeviceKind, fixtures: &[QueryFixture]) {
    let arch = device.build();
    let solver = ExactSolver::new(ExactConfig {
        node_budget: 100_000,
        ..ExactConfig::default()
    });
    for f in fixtures {
        let bench = generate(&arch, &GeneratorConfig::new(f.swaps, 30).with_seed(f.seed))
            .expect("generates");
        let result = solver.solve(bench.circuit(), &arch);
        let got: Vec<(usize, u64, QueryOutcome)> = result
            .queries
            .iter()
            .map(|q| (q.swaps, q.nodes, q.outcome))
            .collect();
        assert_eq!(
            got,
            f.queries,
            "{}/swaps={}/seed={}: per-query search changed",
            device.name(),
            f.swaps,
            f.seed
        );
    }
}

#[test]
fn golden_exact_queries_on_grid3x3() {
    use QueryOutcome::Feasible;
    check_query_fixtures(
        DeviceKind::Grid3x3,
        &[
            QueryFixture {
                swaps: 1,
                seed: 3,
                queries: &[(1, 1160, Feasible)],
            },
            QueryFixture {
                swaps: 2,
                seed: 2,
                queries: &[(2, 3397, Feasible)],
            },
            QueryFixture {
                swaps: 2,
                seed: 10,
                queries: &[(2, 13373, Feasible)],
            },
            QueryFixture {
                swaps: 3,
                seed: 6,
                queries: &[(3, 26873, Feasible)],
            },
            QueryFixture {
                swaps: 3,
                seed: 8,
                queries: &[(3, 395, Feasible)],
            },
        ],
    );
}

/// Most Aspen-4 instances of this shape exhaust the budget, so these pin
/// where each deepening starts and where it stops. Seeds 3 and 15 at three
/// designed SWAPs are decided only with the window-chain prune: without it
/// they exhausted the budget at k = 2.
#[test]
fn golden_exact_queries_on_aspen4() {
    use QueryOutcome::{BudgetExhausted, Feasible};
    check_query_fixtures(
        DeviceKind::Aspen4,
        &[
            QueryFixture {
                swaps: 1,
                seed: 1,
                queries: &[(1, 100_000, BudgetExhausted)],
            },
            QueryFixture {
                swaps: 2,
                seed: 9,
                queries: &[(2, 100_000, BudgetExhausted)],
            },
            QueryFixture {
                swaps: 3,
                seed: 3,
                queries: &[(3, 35017, Feasible)],
            },
            QueryFixture {
                swaps: 3,
                seed: 15,
                queries: &[(3, 895, Feasible)],
            },
        ],
    );
}
