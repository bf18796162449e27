//! Experiment harness regenerating every table and figure of the paper.
//!
//! | Paper artefact | Harness entry point |
//! |---|---|
//! | §IV-A optimality study (exact verification of generated SWAP counts) | [`optimality::run_optimality_study`], `qubikos optimality` |
//! | Figure 4 (a)–(d): SWAP-ratio optimality gaps of four tools on four devices | [`evaluation::run_tool_evaluation`], `qubikos eval` |
//! | Abstract headline gaps (per-tool averages across devices) | [`evaluation::aggregate_by_tool`], printed by `qubikos eval` without `--arch` |
//! | §IV-C LightSABRE case study (lookahead decay) | [`case_study::run_case_study`], `qubikos case-study` |
//! | Design ablations (trials, extended-set size, padding) | [`ablations::run_ablations`], `qubikos ablations` |
//! | Router-construction-kit ablation matrix (composition cross-product ranked against known optima) | [`ablations::run_composition_matrix`], `qubikos ablations --grid` |
//!
//! The library functions return plain data structures so that both the CLI
//! and the benchmark under `perfbench/` can reuse them; [`report`] renders
//! the tables the paper prints.
//!
//! Every command is a subcommand of the unified `qubikos` binary ([`cli`]
//! holds the implementations). The pipelines can run from a persistent
//! on-disk corpus ([`store::SuiteStore`]: a small `manifest.json` root index
//! pointing at `shards/shard_*.json` shard manifests plus QASM files and a
//! content-addressed `results/` cache keyed by [`qubikos_engine::JobKey`])
//! via `--suite DIR`. Export and verification resume at shard granularity
//! via a ledger next to the root index, and [`analytics`] folds cached
//! results into corpus-wide summaries with an associative per-shard merge.
//!
//! Evaluation, optimality, the composition matrix, the legacy sweeps and
//! the case study all run on one cached shard map: it walks a stored corpus
//! shard by shard, answers every job the cache already holds, loads a
//! shard's circuits only when a job missed, writes each fresh result from
//! inside its job, and quarantines a corrupt shard. In-memory runs hand it
//! their generated points as a single shard with no cache, so both report
//! the same numbers. Each pipeline supplies only its jobs, cache key, entry
//! check, per-worker state and fold.
//!
//! Every pipeline executes on the [`qubikos_engine`] work-stealing executor:
//! results are identical for any thread count, a `--threads` flag is shared
//! by all commands (default: every available core), and every entry point
//! takes a [`qubikos_engine::ProgressSink`] that per-job timings stream to
//! ([`qubikos_engine::NullSink`] to ignore them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod analytics;
pub mod case_study;
pub mod cli;
pub mod evaluation;
pub mod microbench;
pub mod optimality;
pub mod report;
mod shard_map;
pub mod store;
pub mod vfs;

pub use ablations::{
    run_ablations, run_composition_matrix, AblationConfig, AblationPoint, AblationReport,
    CompositionGrid, CompositionSummary, MatrixConfig, MatrixOutcome, MatrixReport,
};
pub use analytics::{
    gap_bucket, run_suite_analytics_with_sink, AnalyticsConfig, AnalyticsReport, ScalingPoint,
    ShardSummary, ToolSummary, GAP_BUCKETS, GAP_BUCKET_EDGES,
};
pub use case_study::{run_case_study, CaseStudyConfig, CaseStudyOutcome};
pub use evaluation::{
    aggregate_by_tool, run_suite_evaluation_partial, run_suite_evaluation_with_sink,
    run_tool_evaluation, EvaluationCell, EvaluationConfig, EvaluationReport, SuiteEvalConfig,
    SuiteEvalOutcome, DEFAULT_TOOL_SEED,
};
pub use optimality::{
    run_optimality_study, run_suite_optimality_with_sink, ExactNodesAtK, OptimalityConfig,
    OptimalityReport, SuiteOptimalityOutcome,
};
pub use store::{
    CacheStatsSnapshot, ExportOptions, ExportOutcome, LoadedShard, QuarantineEntry,
    QuarantineReport, StoreError, SuiteStore, VerifyFailure, VerifyReport, EXPORT_LEDGER_FILE,
    QUARANTINE_DIR, QUARANTINE_REPORT_FILE, VERIFY_LEDGER_FILE,
};
pub use vfs::{
    Fault, FaultKind, FaultPlan, FaultVfs, InjectedFault, OpKind, RealVfs, RetryPolicy, Vfs,
};
