//! The acceptance tests for the persistent suite store: a stored corpus
//! reproduces the in-memory pipeline bit-for-bit, and the content-addressed
//! result cache turns a repeated run into pure cache hits (zero circuits
//! routed), which is what lets interrupted or sharded runs resume.

use qubikos::{content_hash, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_bench::analytics::{run_suite_analytics_with_sink, AnalyticsConfig};
use qubikos_bench::evaluation::{
    run_suite_evaluation_with_sink, run_tool_evaluation, EvaluationConfig, SuiteEvalConfig,
    DEFAULT_TOOL_SEED,
};
use qubikos_bench::optimality::{
    run_optimality_study, run_suite_optimality_with_sink, OptimalityConfig,
};
use qubikos_bench::store::SuiteStore;
use qubikos_engine::NullSink;
use qubikos_exact::ExactConfig;
use qubikos_layout::ToolKind;
use std::path::PathBuf;

/// A unique temp dir per test; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("qubikos-suite-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_suite() -> SuiteConfig {
    SuiteConfig {
        swap_counts: vec![1, 2],
        circuits_per_count: 2,
        two_qubit_gates: 20,
        base_seed: 5,
    }
}

/// The store's round-trip contract: `suite export` → `eval --suite`
/// reproduces the in-memory pipeline's report bit-identically, and a second
/// `eval` on the same suite completes with **zero** routed circuits (all
/// cache hits).
#[test]
fn stored_evaluation_is_bit_identical_and_second_run_is_all_cache_hits() {
    let dir = TempDir::new("eval-cache");
    let device = DeviceKind::Grid3x3;
    let suite = tiny_suite();
    let store = SuiteStore::export(&dir.0, device, &suite, 2, &NullSink).expect("export");

    // The in-memory pipeline on the identical configuration.
    let in_memory = run_tool_evaluation(
        &EvaluationConfig {
            device,
            suite,
            tools: ToolKind::ALL.to_vec(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: 2,
        },
        &NullSink,
    )
    .expect("in-memory evaluation");

    let config = SuiteEvalConfig::default().with_threads(2);
    let first =
        run_suite_evaluation_with_sink(&store, &config, &NullSink).expect("first suite evaluation");
    assert_eq!(first.cache_hits, 0, "cold cache must have no hits");
    assert_eq!(first.routed, 16, "4 circuits x 4 tools all routed");
    assert_eq!(
        serde_json::to_string(&first.report).expect("serialize"),
        serde_json::to_string(&in_memory).expect("serialize"),
        "stored run must reproduce the in-memory report bit-identically"
    );

    // The warm re-run: every (tool, circuit) pair must come from the cache.
    let second = run_suite_evaluation_with_sink(&store, &config, &NullSink)
        .expect("second suite evaluation");
    assert_eq!(second.routed, 0, "second run must route zero circuits");
    assert_eq!(second.cache_hits, 16);
    assert_eq!(
        serde_json::to_string(&second.report).expect("serialize"),
        serde_json::to_string(&in_memory).expect("serialize"),
        "cached run must still reproduce the report bit-identically"
    );

    // A reopened store (fresh process in real life) still sees the cache.
    let reopened = SuiteStore::open(&dir.0).expect("reopen");
    let third = run_suite_evaluation_with_sink(&reopened, &config, &NullSink)
        .expect("third suite evaluation");
    assert_eq!(third.routed, 0);
}

/// Cached results answer exactly the question they were computed for: a
/// different tool seed is a different question, so the cache must miss and
/// the fresh results must overwrite the stale entries.
#[test]
fn different_tool_seed_invalidates_the_cache() {
    let dir = TempDir::new("seed-invalidation");
    let store = SuiteStore::export(&dir.0, DeviceKind::Grid3x3, &tiny_suite(), 2, &NullSink)
        .expect("export");

    let seed7 = SuiteEvalConfig::default().with_threads(2);
    run_suite_evaluation_with_sink(&store, &seed7, &NullSink).expect("seed-7 run");

    let mut seed9 = SuiteEvalConfig::default().with_threads(2);
    seed9.tool_seed = 9;
    let outcome = run_suite_evaluation_with_sink(&store, &seed9, &NullSink).expect("seed-9 run");
    assert_eq!(
        outcome.routed, 16,
        "a new tool seed must re-route everything"
    );

    // And the cache now answers for seed 9, not seed 7.
    let rerun = run_suite_evaluation_with_sink(&store, &seed9, &NullSink).expect("seed-9 rerun");
    assert_eq!(rerun.routed, 0);
}

/// The optimality study over a stored suite matches the in-memory study on
/// the same configuration, and its cache behaves like the evaluation's.
#[test]
fn stored_optimality_matches_in_memory_and_caches() {
    let dir = TempDir::new("optimality-cache");
    let suite = SuiteConfig {
        swap_counts: vec![1, 2],
        circuits_per_count: 2,
        two_qubit_gates: 14,
        base_seed: 13,
    };
    let store =
        SuiteStore::export(&dir.0, DeviceKind::Grid3x3, &suite, 2, &NullSink).expect("export");
    let config = OptimalityConfig {
        devices: vec![DeviceKind::Grid3x3],
        suite,
        exact: ExactConfig {
            max_swaps: 3,
            node_budget: 10_000_000,
        },
        exact_swap_limit: 2,
        threads: 2,
    };

    let in_memory = run_optimality_study(&config, &NullSink).expect("in-memory study");
    let first =
        run_suite_optimality_with_sink(&store, &config, &NullSink).expect("first suite study");
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.verified, 4);
    assert_eq!(first.report, in_memory, "stored study must match in-memory");

    let second =
        run_suite_optimality_with_sink(&store, &config, &NullSink).expect("second suite study");
    assert_eq!(second.verified, 0, "second run must verify zero circuits");
    assert_eq!(second.cache_hits, 4);
    assert_eq!(second.report, in_memory);

    // A tighter exact budget would have to recompute: parameter mismatch
    // must read as a miss, never as a silently wrong cached verdict.
    let mut tighter = config.clone();
    tighter.exact.node_budget = 1_000;
    let recomputed =
        run_suite_optimality_with_sink(&store, &tighter, &NullSink).expect("tighter study");
    assert_eq!(recomputed.verified, 4);
}

/// The evaluation and optimality caches share the suite but use disjoint
/// namespaces — warming one must not warm the other.
#[test]
fn eval_and_optimality_caches_are_disjoint() {
    let dir = TempDir::new("disjoint-caches");
    let suite = tiny_suite();
    let store =
        SuiteStore::export(&dir.0, DeviceKind::Grid3x3, &suite, 2, &NullSink).expect("export");
    run_suite_evaluation_with_sink(
        &store,
        &SuiteEvalConfig::default().with_threads(2),
        &NullSink,
    )
    .expect("eval");

    let config = OptimalityConfig {
        devices: vec![DeviceKind::Grid3x3],
        suite,
        exact: ExactConfig::default(),
        exact_swap_limit: 1,
        threads: 2,
    };
    let outcome = run_suite_optimality_with_sink(&store, &config, &NullSink).expect("study");
    assert_eq!(
        outcome.cache_hits, 0,
        "eval cache must not answer optimality"
    );
    assert_eq!(outcome.verified, 4);
}

/// The on-disk cache formats, byte for byte: one routing entry and two
/// verification entries of a tiny stored suite. The certified-only entry is
/// pinned whole; the exactly-confirmed one records a wall clock, so its
/// `wall_micros` value is masked.
#[test]
fn cache_entries_are_pinned_byte_for_byte() {
    let dir = TempDir::new("entry-bytes");
    let store = SuiteStore::export(&dir.0, DeviceKind::Grid3x3, &tiny_suite(), 2, &NullSink)
        .expect("export");
    let mut eval = SuiteEvalConfig::default().with_threads(1);
    eval.tools = vec![ToolKind::LightSabre];
    run_suite_evaluation_with_sink(&store, &eval, &NullSink).expect("eval");
    let config = OptimalityConfig {
        devices: vec![DeviceKind::Grid3x3],
        suite: tiny_suite(),
        exact: ExactConfig {
            max_swaps: 3,
            node_budget: 10_000_000,
        },
        exact_swap_limit: 1,
        threads: 1,
    };
    run_suite_optimality_with_sink(&store, &config, &NullSink).expect("optimality");

    // Instance 0 has one designed SWAP (within the exact limit); the last
    // instance has two (certificate only).
    let records = store.shard_records(0).expect("shard 0");
    let first = &records[0].content_hash;
    let last_records = store
        .shard_records(store.shard_count() - 1)
        .expect("last shard");
    let last = &last_records[last_records.len() - 1].content_hash;
    let read = |rel: String| std::fs::read_to_string(dir.0.join(rel)).expect("cache entry");

    assert_eq!(
        read(format!("results/lightsabre/{first}.json")),
        r#"{
  "tool": "lightsabre",
  "tool_seed": 7,
  "circuit_hash": "2b5f4722266d3087440bf51f15dc3c1d",
  "swaps": 1
}"#
    );
    assert_eq!(
        read(format!("results/optimality/{last}.json")),
        r#"{
  "circuit_hash": "f5ff5038617fe965cc5863a49415ceab",
  "max_swaps": 3,
  "node_budget": 10000000,
  "exact_swap_limit": 1,
  "verdict": "certified-only",
  "queries": [],
  "wall_micros": 0
}"#
    );
    let confirmed: String = read(format!("results/optimality/{first}.json"))
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("\"wall_micros\"") {
                "  \"wall_micros\": _"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        confirmed,
        r#"{
  "circuit_hash": "2b5f4722266d3087440bf51f15dc3c1d",
  "max_swaps": 3,
  "node_budget": 10000000,
  "exact_swap_limit": 1,
  "verdict": "exactly-confirmed",
  "queries": [
    [
      1,
      544
    ]
  ],
  "wall_micros": _
}"#
    );
}

/// The stored corpus and the `analytics --json` report, byte for byte: the
/// content hashes of a tiny export's root index, first shard manifest and
/// first metadata sidecar, and of the analytics report's pretty JSON (the
/// bytes `qubikos analytics --json` writes) after a full evaluation.
#[test]
fn stored_formats_are_pinned_by_content_hash() {
    let dir = TempDir::new("format-bytes");
    let store = SuiteStore::export(&dir.0, DeviceKind::Grid3x3, &tiny_suite(), 2, &NullSink)
        .expect("export");
    let hash_of =
        |rel: &str| content_hash(&std::fs::read_to_string(dir.0.join(rel)).expect("stored file"));
    let sidecar = store.shard_records(0).expect("shard 0")[0]
        .file
        .replace(".qasm", ".json");
    assert_eq!(
        [
            hash_of("manifest.json"),
            hash_of("shards/shard_00000.json"),
            hash_of(&sidecar),
        ],
        [
            "1a718f53684cacab88d658c4e4f4ec29",
            "b673bdc013d85474b23788ebc086caeb",
            "8e21c886c6907f96697d8ddb5fe00980",
        ]
    );

    run_suite_evaluation_with_sink(
        &store,
        &SuiteEvalConfig::default().with_threads(2),
        &NullSink,
    )
    .expect("eval");
    let report = run_suite_analytics_with_sink(&store, &AnalyticsConfig::default(), &NullSink)
        .expect("analytics");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(content_hash(&json), "fec266434572bd9b1c3beab27df54e12");
}
