//! The §IV-A optimality study: verify that generated circuits need exactly
//! their designed SWAP count.
//!
//! The paper runs OLSQ2 on 400 circuits per architecture. Here every circuit
//! is checked two ways:
//!
//! * the **certificate** check (`qubikos::verify_certificate`) re-derives the
//!   paper's own lower-bound argument with VF2 and DAG reachability and
//!   validates the bundled reference solution — this runs on every instance;
//! * the **exact solver** (`qubikos-exact`, the OLSQ2 substitute) additionally
//!   searches for a cheaper routing on instances small enough for exhaustive
//!   search, providing a fully independent confirmation.
//!
//! Both checks are embarrassingly parallel and their runtimes are wildly
//! skewed (an exhaustive SWAP-3 search costs orders of magnitude more than a
//! certificate check), so the study runs one job per circuit on the
//! [`qubikos_engine`] work-stealing executor, with one exact solver per
//! worker and a report that is identical for any thread count.
//!
//! Both entry points run the crate's one cached shard map with the same job
//! and the same fold: [`run_optimality_study`] maps each device's generated
//! suite as a single shard with no cache, and
//! [`run_suite_optimality_with_sink`] maps a stored corpus shard by shard
//! through its `results/optimality/` cache.
//!
//! The report also aggregates the exact solver's per-`k` node counts and
//! wall-clock so the study output shows where the search budget goes — the
//! instrumentation behind raising `exact_swap_limit` from 2 to 3 when the
//! solver core was rebuilt.

use crate::shard_map::{map_shards, Corpus, ShardJobs};
use crate::store::{StoreError, SuiteStore};
use qubikos::{generate_suite, verify_certificate, ExperimentPoint, GenerateError, SuiteConfig};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_engine::{JobKey, ProgressSink, AUTO_THREADS};
use qubikos_exact::{ExactConfig, ExactSolver};
use serde::{Deserialize, Serialize};

/// Configuration of the optimality study.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalityConfig {
    /// Devices to study (the paper uses Aspen-4 and the 3×3 grid).
    pub devices: Vec<DeviceKind>,
    /// Suite configuration per device.
    pub suite: SuiteConfig,
    /// Exact-solver budget; instances whose search exceeds it are still
    /// certificate-checked but counted as "not exhaustively confirmed".
    pub exact: ExactConfig,
    /// Only run the exact solver on instances with at most this designed SWAP
    /// count (its runtime grows exponentially with the count).
    pub exact_swap_limit: usize,
    /// Number of worker threads; [`AUTO_THREADS`] (0) uses every available
    /// core. The report is identical for any value.
    pub threads: usize,
}

impl OptimalityConfig {
    /// The paper's configuration (400 circuits per device) — slow.
    ///
    /// `exact_swap_limit` is 3: the rebuilt search core (in-place do/undo
    /// state, transposition table, SWAP canonicalization, packing bound)
    /// decides SWAP-3 instances within the same budget the naive DFS needed
    /// for SWAP-2, so two thirds of the designed SWAP counts are confirmed
    /// by independent search instead of one third.
    pub fn paper() -> Self {
        OptimalityConfig {
            devices: vec![DeviceKind::Aspen4, DeviceKind::Grid3x3],
            suite: SuiteConfig::paper_optimality_study(),
            exact: ExactConfig::default(),
            exact_swap_limit: 3,
            threads: AUTO_THREADS,
        }
    }

    /// A scaled-down configuration preserving the experiment's shape.
    pub fn quick() -> Self {
        let mut config = Self::paper();
        config.suite = config.suite.with_circuits_per_count(5);
        config
    }

    /// The CI smoke configuration: the smallest run that still exercises the
    /// generator, the certificate checker, and the exhaustive exact solver on
    /// every designed SWAP count. Nightly CI runs this to catch performance
    /// and correctness regressions in the hot paths; it must stay fast enough
    /// to finish in well under a minute in release mode.
    pub fn smoke() -> Self {
        OptimalityConfig {
            devices: vec![DeviceKind::Grid3x3],
            suite: SuiteConfig {
                swap_counts: vec![1, 2, 3],
                circuits_per_count: 2,
                two_qubit_gates: 20,
                base_seed: 2025,
            },
            exact: ExactConfig::default(),
            exact_swap_limit: 3,
            threads: AUTO_THREADS,
        }
    }

    /// Returns the configuration with an explicit thread count
    /// ([`AUTO_THREADS`] = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Exact-solver node counts aggregated over one queried SWAP budget `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactNodesAtK {
    /// The queried SWAP budget.
    pub swaps: usize,
    /// Number of feasibility queries run at this budget.
    pub queries: usize,
    /// Total search nodes expanded at this budget.
    pub nodes: u64,
}

/// Aggregate outcome of the optimality study.
///
/// `exact_wall_micros` is excluded from equality: the report is otherwise
/// bit-identical across thread counts (and asserted so in tests), but
/// wall-clock never is.
#[derive(Debug, Clone, Default)]
pub struct OptimalityReport {
    /// Total circuits generated.
    pub circuits: usize,
    /// Circuits whose optimality certificate verified.
    pub certified: usize,
    /// Circuits additionally confirmed optimal by the exhaustive solver.
    pub exactly_confirmed: usize,
    /// Circuits where the exhaustive solver was attempted but hit its budget.
    pub exact_budget_exceeded: usize,
    /// Circuits where any check failed (must be zero).
    pub failures: usize,
    /// Total exact-solver search nodes across all circuits.
    pub exact_nodes: u64,
    /// Exact-solver node counts broken down by queried SWAP budget,
    /// ascending in `swaps` — shows where the search budget goes.
    pub exact_nodes_by_k: Vec<ExactNodesAtK>,
    /// Total exact-solver wall-clock in microseconds (summed over jobs, so
    /// it exceeds elapsed time when running multi-threaded).
    pub exact_wall_micros: u64,
}

impl PartialEq for OptimalityReport {
    fn eq(&self, other: &Self) -> bool {
        self.circuits == other.circuits
            && self.certified == other.certified
            && self.exactly_confirmed == other.exactly_confirmed
            && self.exact_budget_exceeded == other.exact_budget_exceeded
            && self.failures == other.failures
            && self.exact_nodes == other.exact_nodes
            && self.exact_nodes_by_k == other.exact_nodes_by_k
    }
}

/// Per-circuit outcome of the two verification stages, produced by one
/// engine job and folded into the report in job order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CircuitVerdict {
    /// Certificate check failed; the exact solver was not consulted.
    CertificateFailed,
    /// Certificate held; the instance was above the exact-solver SWAP limit.
    CertifiedOnly,
    /// Certificate held and the exhaustive search confirmed the optimum.
    ExactlyConfirmed,
    /// Certificate held but the exhaustive search found a different optimum.
    ExactMismatch,
    /// Certificate held; the exhaustive search exceeded its budget.
    ExactBudgetExceeded,
}

impl CircuitVerdict {
    /// Stable name used by the result cache.
    fn name(self) -> &'static str {
        match self {
            CircuitVerdict::CertificateFailed => "certificate-failed",
            CircuitVerdict::CertifiedOnly => "certified-only",
            CircuitVerdict::ExactlyConfirmed => "exactly-confirmed",
            CircuitVerdict::ExactMismatch => "exact-mismatch",
            CircuitVerdict::ExactBudgetExceeded => "exact-budget-exceeded",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for unknown (corrupt or
    /// future-format) cache entries, which then read as cache misses.
    fn parse(name: &str) -> Option<Self> {
        match name {
            "certificate-failed" => Some(CircuitVerdict::CertificateFailed),
            "certified-only" => Some(CircuitVerdict::CertifiedOnly),
            "exactly-confirmed" => Some(CircuitVerdict::ExactlyConfirmed),
            "exact-mismatch" => Some(CircuitVerdict::ExactMismatch),
            "exact-budget-exceeded" => Some(CircuitVerdict::ExactBudgetExceeded),
            _ => None,
        }
    }
}

/// One engine job's result: the verdict plus the exact solver's per-query
/// statistics (empty when the solver was not consulted).
#[derive(Debug, Clone)]
struct PointOutcome {
    verdict: CircuitVerdict,
    /// `(k, nodes)` per feasibility query, in deepening order.
    exact_queries: Vec<(usize, u64)>,
    exact_wall_micros: u64,
}

/// Runs the optimality study, streaming per-job progress to `sink`.
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration instead of
/// panicking.
pub fn run_optimality_study(
    config: &OptimalityConfig,
    sink: &dyn ProgressSink,
) -> Result<OptimalityReport, GenerateError> {
    let mut fold = OptimalityFold::default();
    for &device in &config.devices {
        let arch = device.build();
        let suite = generate_suite(&arch, &config.suite)?;
        let jobs = VerifyJobs {
            arch: &arch,
            config,
        };
        map_shards(Corpus::Generated(&suite), &jobs, sink, |_, outcome| {
            fold.add(&outcome[0])
        })
        .expect("a generated corpus touches no store");
    }
    Ok(fold.finish())
}

/// Incremental accumulator behind the study report. Every field is an
/// integer sum (or count keyed by queried SWAP budget), so the fold is
/// **exactly associative**: outcomes folded shard by shard finish to the
/// same report as a single pass, in any grouping. The per-`k` breakdown is
/// sorted only at [`finish`](Self::finish), matching the historical
/// one-shot fold.
#[derive(Default)]
struct OptimalityFold {
    report: OptimalityReport,
}

impl OptimalityFold {
    fn add(&mut self, outcome: &PointOutcome) {
        let report = &mut self.report;
        report.circuits += 1;
        match outcome.verdict {
            CircuitVerdict::CertificateFailed => report.failures += 1,
            CircuitVerdict::CertifiedOnly => report.certified += 1,
            CircuitVerdict::ExactlyConfirmed => {
                report.certified += 1;
                report.exactly_confirmed += 1;
            }
            CircuitVerdict::ExactMismatch => {
                report.certified += 1;
                report.failures += 1;
            }
            CircuitVerdict::ExactBudgetExceeded => {
                report.certified += 1;
                report.exact_budget_exceeded += 1;
            }
        }
        report.exact_wall_micros += outcome.exact_wall_micros;
        for &(swaps, nodes) in &outcome.exact_queries {
            report.exact_nodes += nodes;
            match report
                .exact_nodes_by_k
                .iter_mut()
                .find(|entry| entry.swaps == swaps)
            {
                Some(entry) => {
                    entry.queries += 1;
                    entry.nodes += nodes;
                }
                None => report.exact_nodes_by_k.push(ExactNodesAtK {
                    swaps,
                    queries: 1,
                    nodes,
                }),
            }
        }
    }

    fn finish(mut self) -> OptimalityReport {
        self.report
            .exact_nodes_by_k
            .sort_by_key(|entry| entry.swaps);
        self.report
    }
}

/// One cached verification outcome: the `results/optimality/<hash>.json`
/// payload of the suite store. The exact-solver parameters ride along so an
/// entry produced under a different budget or SWAP limit — which could have
/// reached a different verdict — reads as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedVerification {
    /// Content hash of the verified circuit's QASM.
    pub circuit_hash: String,
    /// `ExactConfig::max_swaps` the entry was produced under.
    pub max_swaps: usize,
    /// `ExactConfig::node_budget` the entry was produced under.
    pub node_budget: u64,
    /// `exact_swap_limit` the entry was produced under.
    pub exact_swap_limit: usize,
    /// The verdict, as a stable name.
    pub verdict: String,
    /// `(k, nodes)` per exact-solver feasibility query, in deepening order.
    pub queries: Vec<(usize, u64)>,
    /// Exact-solver wall-clock of the original (uncached) verification.
    pub wall_micros: u64,
}

/// Result of a suite-backed optimality run: the report plus how much work
/// the cache saved.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptimalityOutcome {
    /// The study report (node counts identical to the in-memory study on
    /// the same suite; wall-clock of cached circuits is the recorded
    /// original, not this run's).
    pub report: OptimalityReport,
    /// Circuits actually verified in this run.
    pub verified: usize,
    /// Circuits answered from the result cache.
    pub cache_hits: usize,
    /// Shards processed this run.
    pub shards: usize,
    /// Shards skipped because their manifest or an instance file was
    /// persistently corrupt; the offending file was moved to the store's
    /// `quarantine/` directory and the report covers the remaining shards.
    pub shards_quarantined: usize,
    /// Whether the whole corpus was covered.
    pub complete: bool,
}

/// Runs the optimality verification over a stored suite, reading and
/// writing the store's `results/optimality/` cache. The suite and device
/// come from the store's root index; `config.devices` and `config.suite`
/// are not consulted. As with the suite evaluation, the run streams shard
/// by shard: at most one shard of circuits is ever materialized, and only
/// when at least one of its circuits misses the cache. A persistently
/// corrupt shard is quarantined, counted in
/// [`SuiteOptimalityOutcome::shards_quarantined`] and skipped. The sink
/// only sees the circuits that are actually verified (cache misses), one
/// engine worklist per shard with misses.
///
/// # Errors
///
/// Propagates [`StoreError`] from loading a shard or writing cache
/// entries.
pub fn run_suite_optimality_with_sink(
    store: &SuiteStore,
    config: &OptimalityConfig,
    sink: &dyn ProgressSink,
) -> Result<SuiteOptimalityOutcome, StoreError> {
    let arch = store.device().build();
    let jobs = VerifyJobs {
        arch: &arch,
        config,
    };
    let mut fold = OptimalityFold::default();
    let outcome = map_shards(Corpus::Stored(store, None), &jobs, sink, |_, outcome| {
        fold.add(&outcome[0])
    })?;
    Ok(SuiteOptimalityOutcome {
        report: fold.finish(),
        verified: outcome.computed,
        cache_hits: outcome.cache_hits,
        shards: outcome.shards,
        shards_quarantined: outcome.shards_quarantined,
        complete: outcome.complete,
    })
}

/// Verifies each circuit: certificate always, exhaustive exact solver when
/// the designed SWAP count is within the configured limit. Verdicts are
/// cached as [`CachedVerification`] entries.
struct VerifyJobs<'a> {
    arch: &'a Architecture,
    config: &'a OptimalityConfig,
}

impl ShardJobs for VerifyJobs<'_> {
    type Worker = ExactSolver;
    type Value = PointOutcome;
    type Entry = CachedVerification;

    fn variants(&self) -> usize {
        1
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn key(&self, _variant: usize, hash: &str) -> JobKey {
        JobKey::new("optimality", hash)
    }

    /// An entry produced under a different exact-solver budget or SWAP
    /// limit could have reached a different verdict: miss.
    fn cached(&self, entry: CachedVerification, hash: &str) -> Option<PointOutcome> {
        let compatible = entry.circuit_hash == hash
            && entry.max_swaps == self.config.exact.max_swaps
            && entry.node_budget == self.config.exact.node_budget
            && entry.exact_swap_limit == self.config.exact_swap_limit;
        if !compatible {
            return None;
        }
        Some(PointOutcome {
            verdict: CircuitVerdict::parse(&entry.verdict)?,
            exact_queries: entry.queries,
            exact_wall_micros: entry.wall_micros,
        })
    }

    fn entry(&self, _variant: usize, hash: &str, outcome: &PointOutcome) -> CachedVerification {
        CachedVerification {
            circuit_hash: hash.to_string(),
            max_swaps: self.config.exact.max_swaps,
            node_budget: self.config.exact.node_budget,
            exact_swap_limit: self.config.exact_swap_limit,
            verdict: outcome.verdict.name().to_string(),
            queries: outcome.exact_queries.clone(),
            wall_micros: outcome.exact_wall_micros,
        }
    }

    fn worker(&self) -> ExactSolver {
        ExactSolver::new(self.config.exact)
    }

    fn run(
        &self,
        solver: &mut ExactSolver,
        _variant: usize,
        point: &ExperimentPoint,
    ) -> PointOutcome {
        let unsolved = |verdict| PointOutcome {
            verdict,
            exact_queries: Vec::new(),
            exact_wall_micros: 0,
        };
        if verify_certificate(&point.benchmark, self.arch).is_err() {
            return unsolved(CircuitVerdict::CertificateFailed);
        }
        if point.swap_count > self.config.exact_swap_limit {
            return unsolved(CircuitVerdict::CertifiedOnly);
        }
        let result = solver.solve(point.benchmark.circuit(), self.arch);
        let verdict = match result.optimal_swaps {
            Some(optimal) if result.proven => {
                if optimal == point.benchmark.optimal_swaps() {
                    CircuitVerdict::ExactlyConfirmed
                } else {
                    CircuitVerdict::ExactMismatch
                }
            }
            _ => CircuitVerdict::ExactBudgetExceeded,
        };
        PointOutcome {
            verdict,
            exact_queries: result.queries.iter().map(|q| (q.swaps, q.nodes)).collect(),
            exact_wall_micros: result.wall_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::NullSink;

    fn tiny_config() -> OptimalityConfig {
        OptimalityConfig {
            devices: vec![DeviceKind::Grid3x3],
            suite: SuiteConfig {
                swap_counts: vec![1, 2],
                circuits_per_count: 2,
                two_qubit_gates: 14,
                base_seed: 13,
            },
            exact: ExactConfig {
                max_swaps: 3,
                node_budget: 10_000_000,
            },
            exact_swap_limit: 1,
            threads: 2,
        }
    }

    #[test]
    fn tiny_study_confirms_optimality() {
        let report = run_optimality_study(&tiny_config(), &NullSink).expect("valid config");
        assert_eq!(report.circuits, 4);
        assert_eq!(report.certified, 4);
        assert_eq!(report.failures, 0);
        // The SWAP-count-1 instances were within the exact limit.
        assert!(report.exactly_confirmed + report.exact_budget_exceeded >= 1);
        // The consulted solver's work is visible in the aggregates.
        assert!(report.exact_nodes > 0);
        assert!(!report.exact_nodes_by_k.is_empty());
        assert_eq!(
            report.exact_nodes,
            report.exact_nodes_by_k.iter().map(|e| e.nodes).sum::<u64>(),
            "per-k breakdown must sum to the total"
        );
    }

    /// The tiny study's integer fields, including the per-`k` node counts
    /// as `(swaps, queries, nodes)`.
    #[test]
    fn tiny_report_is_pinned() {
        let report = run_optimality_study(&tiny_config(), &NullSink).expect("valid config");
        let by_k: Vec<(usize, usize, u64)> = report
            .exact_nodes_by_k
            .iter()
            .map(|entry| (entry.swaps, entry.queries, entry.nodes))
            .collect();
        assert_eq!(
            (
                report.circuits,
                report.certified,
                report.exactly_confirmed,
                report.exact_budget_exceeded,
                report.failures,
                report.exact_nodes,
            ),
            (4, 4, 2, 0, 0, 221)
        );
        assert_eq!(by_k, [(1, 2, 221)]);
    }

    /// The study, previously fully sequential, must produce the identical
    /// report now that it runs on the engine — at any thread count. (The
    /// comparison covers node counts; wall-clock is excluded from `==`.)
    #[test]
    fn reports_identical_across_thread_counts() {
        let reference =
            run_optimality_study(&tiny_config().with_threads(1), &NullSink).expect("valid config");
        for threads in [2usize, 8, AUTO_THREADS] {
            let report = run_optimality_study(&tiny_config().with_threads(threads), &NullSink)
                .expect("valid config");
            assert_eq!(report, reference, "report diverged at threads={threads}");
        }
    }

    #[test]
    fn configs_have_expected_shape() {
        let paper = OptimalityConfig::paper();
        assert_eq!(paper.suite.circuits_per_count, 100);
        assert_eq!(paper.devices.len(), 2);
        assert_eq!(paper.threads, AUTO_THREADS);
        // The rebuilt exact core lifts the independent-search coverage from
        // SWAP-2 to SWAP-3.
        assert_eq!(paper.exact_swap_limit, 3);
        let quick = OptimalityConfig::quick();
        assert_eq!(quick.suite.circuits_per_count, 5);
        let smoke = OptimalityConfig::smoke();
        assert!(smoke.suite.total_circuits() <= 10);
        assert_eq!(smoke.devices, vec![DeviceKind::Grid3x3]);
    }

    #[test]
    fn smoke_study_passes_cleanly() {
        let report =
            run_optimality_study(&OptimalityConfig::smoke(), &NullSink).expect("valid config");
        assert_eq!(report.failures, 0);
        assert_eq!(report.certified, report.circuits);
        // The smoke limit covers every designed SWAP count, so every circuit
        // must also be exhaustively confirmed, not just certificate-checked.
        assert_eq!(report.exactly_confirmed, report.circuits);
    }
}
