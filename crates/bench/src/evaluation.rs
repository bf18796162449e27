//! The Figure-4 experiment: SWAP-ratio optimality gaps of heuristic tools.
//!
//! One job per (tool, circuit) pair runs on the [`qubikos_engine`]
//! work-stealing executor, so a slow tool on a big instance (QMAP on
//! Eagle-127 can take orders of magnitude longer than t|ket⟩ on the same
//! circuit) never serializes the run. Each worker builds every router
//! **once** and reuses it across its jobs: a router reseeds from its config
//! on every `route` call, so reuse is bit-identical to rebuilding.
//!
//! Both entry points run the crate's one cached shard map with the same
//! jobs and the same fold:
//!
//! * [`run_tool_evaluation`] generates the suite in memory and maps it as a
//!   single shard with no cache;
//! * [`run_suite_evaluation_with_sink`] maps a [`SuiteStore`] corpus shard
//!   by shard through the store's content-addressed result cache: pairs the
//!   cache already holds are *not routed at all*, so a repeated or resumed
//!   run costs only the cache reads.
//!
//! Routing is deterministic per (tool, circuit) and the fold sums integers,
//! so both report bit-identical numbers for the same suite.

use crate::shard_map::{map_shards, Corpus, ShardJobs};
use crate::store::{StoreError, SuiteStore};
use qubikos::{generate_suite, ExperimentPoint, GenerateError, SuiteConfig};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_engine::{JobKey, ProgressSink, AUTO_THREADS};
use qubikos_layout::{validate_routing, ComposedRouter, Router, RouterSpec, ToolKind};
use serde::{Deserialize, Serialize};

/// The tool seed every standard evaluation hands to the routers. One
/// constant shared by [`EvaluationConfig::paper`]/[`EvaluationConfig::quick`]
/// and [`SuiteEvalConfig::default`], so the in-memory and suite-backed
/// pipelines can never drift apart and silently break their bit-identical
/// contract.
pub const DEFAULT_TOOL_SEED: u64 = 7;

/// Configuration of one tool-evaluation run (one subfigure of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationConfig {
    /// Device under evaluation.
    pub device: DeviceKind,
    /// Suite to generate (SWAP counts, circuits per count, gate budget).
    pub suite: SuiteConfig,
    /// Tools to evaluate.
    pub tools: Vec<ToolKind>,
    /// Seed handed to every tool (the suite has its own base seed).
    pub tool_seed: u64,
    /// Number of worker threads; [`AUTO_THREADS`] (0) uses every available
    /// core, 1 disables parallelism. The report is identical either way.
    pub threads: usize,
}

impl EvaluationConfig {
    /// The paper's full configuration for `device` (10 circuits per SWAP
    /// count, all four tools), running on every available core.
    pub fn paper(device: DeviceKind) -> Self {
        EvaluationConfig {
            device,
            suite: SuiteConfig::paper_evaluation(device),
            tools: ToolKind::ALL.to_vec(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: AUTO_THREADS,
        }
    }

    /// A scaled-down configuration that preserves the experiment's shape but
    /// runs in seconds (used by the default CLI invocation and the benches).
    pub fn quick(device: DeviceKind) -> Self {
        let mut config = Self::paper(device);
        config.suite = config.suite.with_circuits_per_count(2);
        // Keep the large devices affordable: fewer gates, same SWAP counts.
        config.suite.two_qubit_gates = config.suite.two_qubit_gates.min(400);
        config
    }

    /// Returns the configuration with an explicit thread count
    /// ([`AUTO_THREADS`] = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Average results of one (tool, designed SWAP count) cell of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvaluationCell {
    /// The tool evaluated.
    pub tool: ToolKind,
    /// Designed (optimal) SWAP count of the circuits in the cell.
    pub optimal_swaps: usize,
    /// Number of circuits in the cell.
    pub circuits: usize,
    /// Average SWAPs the tool inserted.
    pub average_swaps: f64,
    /// Average SWAP ratio (the paper's optimality gap for this cell).
    ///
    /// For a zero-optimum cell (QUEKO-style circuits whose designed SWAP
    /// count is 0) the ratio is undefined, so the cell reports the average
    /// **absolute excess** SWAPs instead — `average_swaps - 0` — rather
    /// than an infinity or NaN that would poison every aggregate above it.
    pub swap_ratio: f64,
}

/// All cells of one device's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvaluationReport {
    /// Device the report was produced on.
    pub device: DeviceKind,
    /// One row per (tool, SWAP count) combination.
    pub cells: Vec<EvaluationCell>,
}

impl EvaluationReport {
    /// All cells belonging to one tool, ordered by SWAP count.
    pub fn cells_for(&self, tool: ToolKind) -> Vec<&EvaluationCell> {
        let mut cells: Vec<&EvaluationCell> =
            self.cells.iter().filter(|c| c.tool == tool).collect();
        cells.sort_by_key(|c| c.optimal_swaps);
        cells
    }

    /// The device-level optimality gap of one tool: mean SWAP ratio over all
    /// of its cells.
    pub fn device_gap(&self, tool: ToolKind) -> Option<f64> {
        let cells = self.cells_for(tool);
        if cells.is_empty() {
            return None;
        }
        Some(cells.iter().map(|c| c.swap_ratio).sum::<f64>() / cells.len() as f64)
    }
}

/// The cell-level gap metric, guarded for zero-optimum cells: the SWAP
/// ratio where it is defined, the absolute excess SWAP count where it is
/// not (see [`EvaluationCell::swap_ratio`]). Shared with the analytics
/// module, whose gap histogram buckets the same per-instance metric.
pub(crate) fn cell_gap(average_swaps: f64, optimal_swaps: usize) -> f64 {
    if optimal_swaps == 0 {
        average_swaps
    } else {
        average_swaps / optimal_swaps as f64
    }
}

/// Runs one subfigure of Figure 4: generates the QUBIKOS suite for the device
/// and measures the SWAP ratio of every requested tool on every circuit,
/// streaming per-job progress to `sink` (stderr in the CLI, [`NullSink`]
/// for library callers).
///
/// [`NullSink`]: qubikos_engine::NullSink
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration (zero SWAP count,
/// unsupported architecture) instead of panicking.
///
/// # Panics
///
/// Panics if a tool produces an invalid routing (this would be a bug in the
/// tool, not a property of the benchmark, and must never be silently
/// averaged into the results). The engine attributes the panic to the exact
/// (tool, circuit) job that failed.
pub fn run_tool_evaluation(
    config: &EvaluationConfig,
    sink: &dyn ProgressSink,
) -> Result<EvaluationReport, GenerateError> {
    let arch = config.device.build();
    let suite = generate_suite(&arch, &config.suite)?;
    let jobs = RoutingJobs::tools(&arch, &config.tools, config.tool_seed, config.threads);
    let mut fold = EvalFold::new(&config.tools, &config.suite.swap_counts);
    map_shards(Corpus::Generated(&suite), &jobs, sink, |designed, swaps| {
        fold.add(designed, swaps)
    })
    .expect("a generated corpus touches no store");
    Ok(fold.finish(config.device))
}

/// Configuration of a suite-backed evaluation: everything *except* the suite
/// itself, which comes from the store's manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEvalConfig {
    /// Tools to evaluate.
    pub tools: Vec<ToolKind>,
    /// Seed handed to every tool. Cached results record the seed they were
    /// produced with; an entry with a different seed is a cache miss.
    pub tool_seed: u64,
    /// Number of worker threads ([`AUTO_THREADS`] = all available cores).
    pub threads: usize,
}

impl Default for SuiteEvalConfig {
    /// All four tools with the evaluation pipeline's standard tool seed —
    /// the same values [`EvaluationConfig::paper`] uses, so a suite-backed
    /// run reproduces the in-memory pipeline's report.
    fn default() -> Self {
        SuiteEvalConfig {
            tools: ToolKind::ALL.to_vec(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: AUTO_THREADS,
        }
    }
}

impl SuiteEvalConfig {
    /// Returns the configuration with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One cached routing result: the `results/<tool>/<circuit-hash>.json`
/// payload of the suite store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedRouting {
    /// Tool that produced the result.
    pub tool: String,
    /// Seed the tool ran with.
    pub tool_seed: u64,
    /// Content hash of the routed circuit's QASM (redundant with the entry's
    /// file name; stored for self-description and defense in depth).
    pub circuit_hash: String,
    /// SWAPs the tool inserted.
    pub swaps: usize,
}

/// Result of a suite-backed evaluation: the report plus how much work the
/// cache saved.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEvalOutcome {
    /// The evaluation report (bit-identical to the in-memory pipeline's
    /// report for the same suite).
    pub report: EvaluationReport,
    /// (tool, circuit) pairs actually routed in this run.
    pub routed: usize,
    /// (tool, circuit) pairs answered from the result cache.
    pub cache_hits: usize,
    /// Shards processed this run.
    pub shards: usize,
    /// Shards skipped because their manifest or an instance file was
    /// persistently corrupt; the offending file was moved to the store's
    /// `quarantine/` directory and the report covers the remaining shards.
    pub shards_quarantined: usize,
    /// Whether the whole corpus was covered (false when the run was
    /// truncated by `stop_after_shards` — the report then covers a prefix).
    pub complete: bool,
}

/// Runs the Figure-4 evaluation from a stored suite, reading and writing
/// the store's content-addressed result cache. The sink only sees the jobs
/// that actually run (cache misses), one engine worklist per shard with
/// misses.
///
/// The run streams shard by shard: at most one shard of circuits is ever
/// materialized (and integrity-checked — hash, parse, regeneration round
/// trip), and only when at least one of that shard's (tool, circuit) pairs
/// misses the cache; a fully-warm run reads nothing but the shard manifests
/// and the cache entries. Use `SuiteStore::verify_streaming` for a
/// standalone integrity check.
///
/// A shard whose manifest or instance files are *persistently* corrupt
/// (reads are retried first) is quarantined and skipped rather than failing
/// the run: the offending file moves to `quarantine/`, the skip is counted
/// in [`SuiteEvalOutcome::shards_quarantined`], and the report covers the
/// surviving shards.
///
/// # Errors
///
/// Propagates [`StoreError`] from loading a shard or writing cache
/// entries. A corrupt cache *entry* is not an error — it reads as a miss
/// and is recomputed and rewritten.
///
/// # Panics
///
/// As [`run_tool_evaluation`], if a tool produces an invalid routing.
pub fn run_suite_evaluation_with_sink(
    store: &SuiteStore,
    config: &SuiteEvalConfig,
    sink: &dyn ProgressSink,
) -> Result<SuiteEvalOutcome, StoreError> {
    run_suite_evaluation_partial(store, config, None, sink)
}

/// [`run_suite_evaluation_with_sink`] truncated after `stop_after_shards`
/// shards: the interrupt hook for resume tests. Per-pair results are banked
/// in the cache as they are produced, so a rerun answers the processed
/// shards entirely from cache — resume at shard granularity falls out of
/// the cache semantics, no ledger needed.
///
/// # Errors
///
/// # Panics
///
/// As [`run_suite_evaluation_with_sink`].
pub fn run_suite_evaluation_partial(
    store: &SuiteStore,
    config: &SuiteEvalConfig,
    stop_after_shards: Option<usize>,
    sink: &dyn ProgressSink,
) -> Result<SuiteEvalOutcome, StoreError> {
    let arch = store.device().build();
    let jobs = RoutingJobs::tools(&arch, &config.tools, config.tool_seed, config.threads);
    let mut fold = EvalFold::new(&config.tools, &store.config().swap_counts);
    let outcome = map_shards(
        Corpus::Stored(store, stop_after_shards),
        &jobs,
        sink,
        |designed, swaps| fold.add(designed, swaps),
    )?;
    Ok(SuiteEvalOutcome {
        report: fold.finish(store.device()),
        routed: outcome.computed,
        cache_hits: outcome.cache_hits,
        shards: outcome.shards,
        shards_quarantined: outcome.shards_quarantined,
        complete: outcome.complete,
    })
}

/// Routes every point with each of a list of named router specs. A value is
/// the inserted SWAP count, cached as a [`CachedRouting`] under the
/// router's name. The tool evaluation, the composition matrix, the
/// ablation sweeps and the case study all run on it.
pub(crate) struct RoutingJobs<'a> {
    pub(crate) arch: &'a Architecture,
    /// `(name, spec)` per variant; the name tags the routed circuits and is
    /// the cache namespace.
    pub(crate) routers: Vec<(String, RouterSpec)>,
    /// Seed every router is built with; cached entries record it.
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    /// Route from each circuit's known-optimal initial mapping instead of
    /// placing it: the paper's standalone-router mode (§IV-C).
    pub(crate) standalone: bool,
}

impl<'a> RoutingJobs<'a> {
    /// The paper tools, each under its tool name (as [`ToolKind::build`]
    /// names them).
    fn tools(arch: &'a Architecture, tools: &[ToolKind], seed: u64, threads: usize) -> Self {
        RoutingJobs {
            arch,
            routers: tools
                .iter()
                .map(|tool| (tool.name().to_string(), tool.spec()))
                .collect(),
            seed,
            threads,
            standalone: false,
        }
    }

    /// Maps generated `points` with no cache and returns, per router, the
    /// mean SWAP ratio (summed in point order, so it is
    /// schedule-independent) and the number of circuits routed at exactly
    /// their designed SWAP count.
    pub(crate) fn mean_ratios(
        &self,
        points: &[ExperimentPoint],
        sink: &dyn ProgressSink,
    ) -> Vec<(f64, usize)> {
        let mut ratios = vec![Vec::new(); self.routers.len()];
        let mut optimal = vec![0; self.routers.len()];
        map_shards(Corpus::Generated(points), self, sink, |designed, swaps| {
            for (variant, &inserted) in swaps.iter().enumerate() {
                ratios[variant].push(cell_gap(inserted as f64, designed));
                optimal[variant] += usize::from(inserted == designed);
            }
        })
        .expect("a generated corpus touches no store");
        ratios
            .iter()
            .zip(optimal)
            .map(|(ratios, optimal)| {
                let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
                (mean, optimal)
            })
            .collect()
    }
}

impl ShardJobs for RoutingJobs<'_> {
    type Worker = Vec<ComposedRouter>;
    type Value = usize;
    type Entry = CachedRouting;

    fn variants(&self) -> usize {
        self.routers.len()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn key(&self, variant: usize, hash: &str) -> JobKey {
        JobKey::new(&self.routers[variant].0, hash)
    }

    /// An entry produced under a different seed (or, defensively, for
    /// different bytes) answers a different question: miss.
    fn cached(&self, entry: CachedRouting, hash: &str) -> Option<usize> {
        (entry.tool_seed == self.seed && entry.circuit_hash == hash).then_some(entry.swaps)
    }

    fn entry(&self, variant: usize, hash: &str, &swaps: &usize) -> CachedRouting {
        CachedRouting {
            tool: self.routers[variant].0.clone(),
            tool_seed: self.seed,
            circuit_hash: hash.to_string(),
            swaps,
        }
    }

    fn worker(&self) -> Vec<ComposedRouter> {
        self.routers
            .iter()
            .map(|(name, spec)| spec.build_named(self.seed, name.clone()))
            .collect()
    }

    fn run(
        &self,
        routers: &mut Vec<ComposedRouter>,
        variant: usize,
        point: &ExperimentPoint,
    ) -> usize {
        let circuit = point.benchmark.circuit();
        let router = &routers[variant];
        let routed = if self.standalone {
            router.route_with_initial_mapping(
                circuit,
                self.arch,
                point.benchmark.reference_mapping(),
            )
        } else {
            router.route(circuit, self.arch)
        }
        .expect("benchmark circuits always fit their own architecture");
        validate_routing(circuit, self.arch, &routed)
            .expect("tools under evaluation must produce valid routings");
        routed.swap_count()
    }
}

/// Incremental accumulator behind every evaluation report: per
/// (tool, designed SWAP count) cell it keeps only an integer SWAP sum and a
/// circuit count, so folding is **exactly associative** — results folded
/// shard by shard, or all at once, or in any grouping, finish to the same
/// bytes. Averages and ratios are derived (in f64) only at
/// [`finish`](Self::finish), never accumulated.
struct EvalFold<'a> {
    tools: &'a [ToolKind],
    swap_counts: &'a [usize],
    /// `cells[tool_index][count_index]` = (SWAP sum, circuits).
    cells: Vec<Vec<(u64, usize)>>,
}

impl<'a> EvalFold<'a> {
    fn new(tools: &'a [ToolKind], swap_counts: &'a [usize]) -> Self {
        EvalFold {
            tools,
            swap_counts,
            cells: vec![vec![(0, 0); swap_counts.len()]; tools.len()],
        }
    }

    /// Adds one circuit's SWAP counts, one per tool. A circuit whose
    /// designed count is outside the configured grid is dropped, matching
    /// the historical cell-filter semantics.
    fn add(&mut self, designed_swaps: usize, swaps: &[usize]) {
        if let Some(count_index) = self.swap_counts.iter().position(|&c| c == designed_swaps) {
            for (tool_cells, &inserted) in self.cells.iter_mut().zip(swaps) {
                tool_cells[count_index].0 += inserted as u64;
                tool_cells[count_index].1 += 1;
            }
        }
    }

    /// Renders the accumulated cells, visiting tools then SWAP counts in
    /// config order (empty cells skipped) — the exact order and arithmetic
    /// of the original one-shot report assembly.
    fn finish(self, device: DeviceKind) -> EvaluationReport {
        let mut cells = Vec::new();
        for (tool_index, &tool) in self.tools.iter().enumerate() {
            for (count_index, &count) in self.swap_counts.iter().enumerate() {
                let (sum, circuits) = self.cells[tool_index][count_index];
                if circuits == 0 {
                    continue;
                }
                let average_swaps = sum as f64 / circuits as f64;
                cells.push(EvaluationCell {
                    tool,
                    optimal_swaps: count,
                    circuits,
                    average_swaps,
                    swap_ratio: cell_gap(average_swaps, count),
                });
            }
        }
        EvaluationReport { device, cells }
    }
}

/// Aggregates several device reports into the per-tool headline gaps the
/// abstract quotes (the mean of each tool's device-level gaps).
pub fn aggregate_by_tool(reports: &[EvaluationReport]) -> Vec<(ToolKind, f64)> {
    let mut aggregate = Vec::new();
    for tool in ToolKind::ALL {
        let gaps: Vec<f64> = reports.iter().filter_map(|r| r.device_gap(tool)).collect();
        if gaps.is_empty() {
            continue;
        }
        aggregate.push((tool, gaps.iter().sum::<f64>() / gaps.len() as f64));
    }
    aggregate
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::NullSink;

    /// All four (kernel-based) routers, so the invariance tests below cover
    /// every tool, not just the fast pair.
    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            device: DeviceKind::Grid3x3,
            suite: SuiteConfig {
                swap_counts: vec![1, 2],
                circuits_per_count: 2,
                two_qubit_gates: 20,
                base_seed: 5,
            },
            tools: ToolKind::ALL.to_vec(),
            tool_seed: 1,
            threads: 2,
        }
    }

    #[test]
    fn evaluation_produces_one_cell_per_tool_and_count() {
        let report = run_tool_evaluation(&tiny_config(), &NullSink).expect("valid config");
        assert_eq!(report.cells.len(), 8);
        for cell in &report.cells {
            assert_eq!(cell.circuits, 2);
            assert!(
                cell.swap_ratio >= 1.0 - 1e-9,
                "ratio below optimum: {cell:?}"
            );
        }
        for tool in ToolKind::ALL {
            assert_eq!(report.cells_for(tool).len(), 2);
            assert!(report.device_gap(tool).is_some());
        }
    }

    #[test]
    fn single_threaded_run_matches_shape() {
        let mut config = tiny_config();
        config.threads = 1;
        config.tools = vec![ToolKind::LightSabre];
        let report = run_tool_evaluation(&config, &NullSink).expect("valid config");
        assert_eq!(report.cells.len(), 2);
    }

    /// The engine's determinism guarantee at the pipeline level: the whole
    /// report is byte-identical (same JSON serialization) across thread
    /// counts, including the auto count.
    #[test]
    fn reports_are_byte_identical_across_thread_counts() {
        let reference = serde_json::to_string(
            &run_tool_evaluation(&tiny_config().with_threads(1), &NullSink).expect("valid config"),
        )
        .expect("serialize");
        for threads in [2usize, 8, AUTO_THREADS] {
            let report = run_tool_evaluation(&tiny_config().with_threads(threads), &NullSink)
                .expect("valid config");
            let json = serde_json::to_string(&report).expect("serialize");
            assert_eq!(reference, json, "report diverged at threads={threads}");
        }
    }

    /// The tiny report's exact cells: tool, designed count, circuit count,
    /// and both averages as `f64::to_bits`.
    #[test]
    fn tiny_report_is_pinned() {
        let report = run_tool_evaluation(&tiny_config(), &NullSink).expect("valid config");
        let cells: Vec<(&str, usize, usize, u64, u64)> = report
            .cells
            .iter()
            .map(|cell| {
                (
                    cell.tool.name(),
                    cell.optimal_swaps,
                    cell.circuits,
                    cell.average_swaps.to_bits(),
                    cell.swap_ratio.to_bits(),
                )
            })
            .collect();
        assert_eq!(
            cells,
            [
                (
                    "lightsabre",
                    1,
                    2,
                    0x3ff0_0000_0000_0000,
                    0x3ff0_0000_0000_0000
                ),
                (
                    "lightsabre",
                    2,
                    2,
                    0x4008_0000_0000_0000,
                    0x3ff8_0000_0000_0000
                ),
                ("ml-qls", 1, 2, 0x4018_0000_0000_0000, 0x4018_0000_0000_0000),
                ("ml-qls", 2, 2, 0x402b_0000_0000_0000, 0x401b_0000_0000_0000),
                ("qmap", 1, 2, 0x4030_0000_0000_0000, 0x4030_0000_0000_0000),
                ("qmap", 2, 2, 0x402a_0000_0000_0000, 0x401a_0000_0000_0000),
                ("tket", 1, 2, 0x402c_0000_0000_0000, 0x402c_0000_0000_0000),
                ("tket", 2, 2, 0x4029_0000_0000_0000, 0x4019_0000_0000_0000),
            ]
        );
    }

    #[test]
    fn aggregate_averages_device_gaps() {
        let report = run_tool_evaluation(&tiny_config(), &NullSink).expect("valid config");
        let aggregate = aggregate_by_tool(std::slice::from_ref(&report));
        assert_eq!(aggregate.len(), 4);
        for (_, gap) in aggregate {
            assert!(gap >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn paper_and_quick_configs_cover_all_tools() {
        let paper = EvaluationConfig::paper(DeviceKind::Aspen4);
        assert_eq!(paper.tools.len(), 4);
        assert_eq!(paper.suite.two_qubit_gates, 300);
        assert_eq!(paper.threads, AUTO_THREADS);
        let quick = EvaluationConfig::quick(DeviceKind::Eagle127);
        assert!(quick.suite.two_qubit_gates <= 400);
        assert_eq!(quick.suite.circuits_per_count, 2);
    }

    /// A misconfigured suite (zero SWAP count) must surface as an error, not
    /// a panic deep inside the pipeline.
    #[test]
    fn misconfigured_suite_returns_an_error() {
        let mut config = tiny_config();
        config.suite.swap_counts = vec![0];
        assert_eq!(
            run_tool_evaluation(&config, &NullSink).unwrap_err(),
            GenerateError::ZeroSwaps
        );
    }

    /// Zero-optimum cells (QUEKO-style) report the absolute excess SWAP
    /// count instead of dividing by zero.
    #[test]
    fn zero_optimum_cells_report_absolute_excess() {
        assert_eq!(cell_gap(3.5, 0), 3.5);
        assert_eq!(cell_gap(0.0, 0), 0.0);
        assert!((cell_gap(3.0, 2) - 1.5).abs() < 1e-12);
        assert!(cell_gap(7.0, 0).is_finite());
    }
}
