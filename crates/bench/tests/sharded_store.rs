//! Acceptance tests for the sharded, streaming corpus layer: v1 monolithic
//! manifests still open (as a single-shard corpus identical to what the
//! pre-shard code exported), interrupted exports and verifications resume at
//! shard granularity with byte-identical final artifacts, the evaluation
//! pipeline streams with at most one shard of circuits resident, and the
//! analytics fold is bit-identical at any thread count.

use qubikos::{generate_suite, SuiteConfig};
use qubikos_arch::{devices, DeviceKind};
use qubikos_bench::analytics::{run_suite_analytics, AnalyticsConfig};
use qubikos_bench::evaluation::{
    run_suite_evaluation, run_suite_evaluation_partial, SuiteEvalConfig,
};
use qubikos_bench::store::{ExportOptions, SuiteStore, EXPORT_LEDGER_FILE, VERIFY_LEDGER_FILE};
use qubikos_engine::NullSink;
use std::path::{Path, PathBuf};

/// A unique temp dir per test; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("qubikos-shard-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The configuration `tests/fixtures/v1_suite` was exported with, by the
/// pre-shard store code (format-1 monolithic `manifest.json`).
fn fixture_config() -> SuiteConfig {
    SuiteConfig {
        swap_counts: vec![1, 2],
        circuits_per_count: 2,
        two_qubit_gates: 16,
        base_seed: 11,
    }
}

/// Copies the committed v1 fixture into a scratch dir (verification ledgers
/// are written next to the root index, and the committed fixture must stay
/// pristine).
fn copy_fixture(into: &Path) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_suite");
    std::fs::create_dir_all(into).expect("scratch dir");
    for entry in std::fs::read_dir(&fixture).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), into.join(entry.file_name())).expect("copy fixture file");
    }
    into.to_path_buf()
}

/// ISSUE satellite 1: a v1 monolithic `manifest.json` written by the
/// pre-shard code transparently opens as a single-shard v2 corpus — same
/// instances, clean verification, and `load()` reproduces exactly the
/// circuits `generate_suite` yields for the recorded config.
#[test]
fn v1_fixture_opens_as_a_single_shard_corpus() {
    let dir = TempDir::new("v1-compat");
    let root = copy_fixture(&dir.0);
    let store = SuiteStore::open(&root).expect("v1 manifest opens");

    assert_eq!(store.device(), DeviceKind::Grid3x3);
    assert_eq!(store.config(), &fixture_config());
    assert_eq!(store.shard_count(), 1, "v1 corpus is one synthetic shard");
    assert_eq!(store.total_instances(), 4);

    // The stored corpus is byte-for-byte the one today's generator produces.
    let loaded = store.load().expect("v1 instances load");
    let arch = devices::grid(3, 3);
    let generated = generate_suite(&arch, &fixture_config()).expect("regenerate");
    assert_eq!(loaded, generated, "fixture must round-trip the generator");

    // Full verification (hashes, QASM parse, regeneration) passes unchanged.
    let report = store
        .verify_streaming(2, None, &NullSink)
        .expect("verify runs");
    assert!(
        report.failures.is_empty(),
        "pristine fixture verifies clean"
    );
    assert_eq!(report.instances, 4);
    assert!(report.complete);

    // And a v2 export of the identical config describes identical circuits.
    let reexport = TempDir::new("v1-reexport");
    let outcome = SuiteStore::export_with_options(
        &reexport.0,
        DeviceKind::Grid3x3,
        &fixture_config(),
        &ExportOptions::default(),
        2,
        &NullSink,
    )
    .expect("v2 export");
    let v2 = outcome.store.expect("completes");
    assert_eq!(v2.load().expect("v2 load"), loaded);
}

/// ISSUE satellite 4 (export half): an export killed after K shards leaves a
/// ledger; re-running regenerates only the missing shards and the final root
/// index is byte-identical to an uninterrupted export's.
#[test]
fn interrupted_export_resumes_byte_identically() {
    let interrupted = TempDir::new("export-resume");
    let oneshot = TempDir::new("export-oneshot");
    let config = fixture_config();
    let options = ExportOptions::default().with_shard_size(1);

    // Uninterrupted reference export.
    let reference = SuiteStore::export_with_options(
        &oneshot.0,
        DeviceKind::Grid3x3,
        &config,
        &options,
        2,
        &NullSink,
    )
    .expect("reference export");
    assert_eq!(reference.shards_total, 4);
    assert_eq!(reference.shards_written, 4);

    // "Interrupt" after 2 of 4 shards: no root index yet, ledger on disk.
    let partial = SuiteStore::export_with_options(
        &interrupted.0,
        DeviceKind::Grid3x3,
        &config,
        &options.clone().with_stop_after_shards(2),
        2,
        &NullSink,
    )
    .expect("partial export");
    assert!(partial.store.is_none(), "interrupted export has no index");
    assert_eq!(partial.shards_written, 2);
    assert!(interrupted.0.join(EXPORT_LEDGER_FILE).exists());
    assert!(
        !interrupted.0.join("manifest.json").exists(),
        "a partial corpus must not look complete"
    );

    // Resume: only the 2 missing shards run, the rest come from the ledger.
    let resumed = SuiteStore::export_with_options(
        &interrupted.0,
        DeviceKind::Grid3x3,
        &config,
        &options,
        2,
        &NullSink,
    )
    .expect("resumed export");
    assert_eq!(resumed.shards_resumed, 2, "completed shards must not rerun");
    assert_eq!(resumed.shards_written, 2);
    let store = resumed.store.expect("resume completes");
    assert!(
        !interrupted.0.join(EXPORT_LEDGER_FILE).exists(),
        "clean completion removes the ledger"
    );

    // The resumed corpus is byte-identical to the uninterrupted one.
    let read = |root: &Path, file: &str| std::fs::read(root.join(file)).expect("artifact");
    assert_eq!(
        read(&interrupted.0, "manifest.json"),
        read(&oneshot.0, "manifest.json"),
        "root index must not depend on the interruption"
    );
    for record in &store.index().shards {
        assert_eq!(
            read(&interrupted.0, &record.file),
            read(&oneshot.0, &record.file),
            "shard {} must be byte-identical",
            record.shard
        );
    }
}

/// ISSUE satellite 4 (verify half): a verification stopped after K shards
/// ledgers them; the re-run checks only the remainder and removes the ledger
/// on clean completion.
#[test]
fn interrupted_verify_resumes_from_the_ledger() {
    let dir = TempDir::new("verify-resume");
    let store = SuiteStore::export_with_options(
        &dir.0,
        DeviceKind::Grid3x3,
        &fixture_config(),
        &ExportOptions::default().with_shard_size(1),
        2,
        &NullSink,
    )
    .expect("export")
    .store
    .expect("completes");

    let partial = store
        .verify_streaming(2, Some(2), &NullSink)
        .expect("partial verify");
    assert!(!partial.complete);
    assert_eq!(partial.shards_checked, 2);
    assert_eq!(partial.shards_resumed, 0);
    assert!(partial.failures.is_empty());
    assert!(dir.0.join(VERIFY_LEDGER_FILE).exists());

    let resumed = store
        .verify_streaming(2, None, &NullSink)
        .expect("resumed verify");
    assert!(resumed.complete);
    assert_eq!(resumed.shards_resumed, 2, "ledgered shards must not rerun");
    assert_eq!(resumed.shards_checked, 2);
    assert_eq!(resumed.instances, 2, "only the re-checked instances load");
    assert!(resumed.failures.is_empty());
    assert!(
        !dir.0.join(VERIFY_LEDGER_FILE).exists(),
        "clean completion removes the ledger"
    );
}

/// The streaming pipeline's memory and resume claims at every shard layout
/// (one shard, two, one per instance): a fresh export verifies clean, a cold
/// evaluation routes everything, a partial run's cache entries are a full
/// resume (the follow-up run routes only the remaining shards), analytics
/// covers every instance, no more than one shard of circuits is ever
/// resident, and the shard layout has no effect on the report's bytes.
#[test]
fn streaming_evaluation_is_flat_memory_and_resumes_via_cache() {
    let config = fixture_config();
    let eval = SuiteEvalConfig::default().with_threads(2);
    let total = config.total_circuits();
    let pairs = total * eval.tools.len();
    let mut expected = None;

    for shard_size in [total, 2, 1] {
        let dir = TempDir::new(&format!("eval-shards-{shard_size}"));
        let store = SuiteStore::export_with_options(
            &dir.0,
            DeviceKind::Grid3x3,
            &config,
            &ExportOptions::default().with_shard_size(shard_size),
            2,
            &NullSink,
        )
        .expect("export")
        .store
        .expect("completes");
        let shards = store.shard_count();
        assert_eq!(shards, total.div_ceil(shard_size));
        let verify = store
            .verify_streaming(2, None, &NullSink)
            .expect("verify runs");
        assert!(verify.failures.is_empty(), "fresh export verifies clean");

        // Cold, interrupted evaluation: the first half of the shards (at
        // least one), everything routed fresh.
        store.reset_residency_peak();
        let stop = (shards / 2).max(1);
        let partial = run_suite_evaluation_partial(&store, &eval, Some(stop), &NullSink)
            .expect("partial eval");
        assert_eq!(partial.complete, stop == shards);
        assert_eq!(partial.shards, stop);
        assert_eq!(
            partial.cache_hits, 0,
            "cold store evaluates everything fresh"
        );
        assert_eq!(
            partial.routed,
            (stop * shard_size).min(total) * eval.tools.len()
        );

        // The full re-run is a resume: the partial run's shards are pure
        // cache hits (their circuits are never even loaded), only the rest
        // routes.
        let full = run_suite_evaluation(&store, &eval).expect("full eval");
        assert!(full.complete);
        assert_eq!(full.shards, shards);
        assert_eq!(
            full.cache_hits, partial.routed,
            "partial run's shards come from cache"
        );
        assert_eq!(full.routed, pairs - partial.routed);

        let analytics = run_suite_analytics(&store, &AnalyticsConfig::default().with_threads(2))
            .expect("analytics runs");
        assert_eq!(
            analytics.summary.fully_covered as usize,
            store.total_instances(),
            "the eval passes banked a cache entry for every (tool, circuit) pair"
        );
        assert!(
            store.residency_peak() <= 1,
            "shard size {shard_size}: streaming eval and analytics kept {} shards resident",
            store.residency_peak()
        );

        // Shard layout is invisible in the results: every layout reports the
        // single-shard corpus's bytes.
        let report = serde_json::to_string(&full.report).expect("serialize");
        assert_eq!(
            &report,
            expected.get_or_insert_with(|| report.clone()),
            "shard size {shard_size} must not change the report"
        );
    }
}

/// The analytics fold reads only the result cache, covers exactly what the
/// evaluation banked, and its shard-parallel merge renders bit-identical
/// reports at any thread count (associativity is proptest-pinned in the
/// unit tests; this is the end-to-end witness).
#[test]
fn analytics_are_thread_count_invariant() {
    let dir = TempDir::new("analytics");
    let store = SuiteStore::export_with_options(
        &dir.0,
        DeviceKind::Grid3x3,
        &fixture_config(),
        &ExportOptions::default().with_shard_size(1),
        2,
        &NullSink,
    )
    .expect("export")
    .store
    .expect("completes");

    // Before any evaluation the corpus is fully uncovered — not an error.
    let cold = run_suite_analytics(&store, &AnalyticsConfig::default()).expect("cold analytics");
    assert_eq!(cold.summary.instances, 4);
    assert_eq!(cold.summary.fully_covered, 0);

    run_suite_evaluation(&store, &SuiteEvalConfig::default().with_threads(2)).expect("warm cache");

    let single = run_suite_analytics(&store, &AnalyticsConfig::default().with_threads(1))
        .expect("sequential analytics");
    let parallel = run_suite_analytics(&store, &AnalyticsConfig::default().with_threads(8))
        .expect("parallel analytics");
    assert_eq!(
        serde_json::to_string(&single).expect("serialize"),
        serde_json::to_string(&parallel).expect("serialize"),
        "thread count must not change the analytics bytes"
    );
    assert_eq!(single.shards, 4);
    assert_eq!(single.summary.fully_covered, 4);
    for tool in &single.summary.tools {
        assert_eq!(tool.covered, 4, "eval banked every (tool, circuit) pair");
    }
    let wins: u64 = single.summary.tools.iter().map(|t| t.wins).sum();
    assert!(
        wins >= single.summary.fully_covered,
        "every fully covered instance has at least one winner"
    );
}
