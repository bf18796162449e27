//! The chaos acceptance suite: the whole store/pipeline stack driven under
//! scripted filesystem faults must *converge* — retry absorbs transient
//! faults, quarantine + re-export heal persistent corruption — to a corpus
//! and reports bit-identical to a fault-free run, with every quarantined
//! file accounted for in `quarantine/quarantine.json`.
//!
//! The sweep is seed-driven and deterministic: `FaultPlan::seeded(seed)`
//! turns each seed into a schedule of write failures, torn temp files,
//! `ENOSPC`, rename failures, and read corruption. CI runs a few seeds on
//! every push (`QUBIKOS_CHAOS_SEEDS`, default 3); the nightly job sweeps 50.

use qubikos::SuiteConfig;
use qubikos_arch::DeviceKind;
use qubikos_bench::ablations::{run_composition_matrix, MatrixConfig};
use qubikos_bench::analytics::{run_suite_analytics_with_sink, AnalyticsConfig, AnalyticsReport};
use qubikos_bench::evaluation::{
    run_suite_evaluation_with_sink, SuiteEvalConfig, SuiteEvalOutcome,
};
use qubikos_bench::optimality::{
    run_suite_optimality_with_sink, OptimalityConfig, SuiteOptimalityOutcome,
};
use qubikos_bench::store::{
    ExportOptions, SuiteStore, EXPORT_LEDGER_FILE, QUARANTINE_REPORT_FILE, VERIFY_LEDGER_FILE,
};
use qubikos_bench::vfs::{FaultPlan, FaultVfs, RetryPolicy};
use qubikos_engine::NullSink;
use qubikos_exact::ExactConfig;
use std::path::PathBuf;
use std::sync::Arc;

/// A unique temp dir per test; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("qubikos-chaos-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const DEVICE: DeviceKind = DeviceKind::Grid3x3;

fn tiny_suite() -> SuiteConfig {
    SuiteConfig {
        swap_counts: vec![1, 2],
        circuits_per_count: 2,
        two_qubit_gates: 20,
        base_seed: 5,
    }
}

/// Two shards of two instances each, fsync-on-commit as in production, and
/// the default bounded retry minus its real-time backoff (the chaos loop
/// hammers hundreds of faults; sleeping through each would dominate the
/// test).
fn export_options() -> ExportOptions {
    ExportOptions::default()
        .with_shard_size(2)
        .with_retry(RetryPolicy::default().without_backoff())
}

fn eval_config() -> SuiteEvalConfig {
    SuiteEvalConfig::default().with_threads(1)
}

fn optimality_config() -> OptimalityConfig {
    OptimalityConfig {
        devices: vec![DEVICE],
        suite: tiny_suite(),
        exact: ExactConfig {
            max_swaps: 3,
            node_budget: 10_000_000,
        },
        exact_swap_limit: 2,
        threads: 1,
    }
}

fn analytics_config() -> AnalyticsConfig {
    AnalyticsConfig::default().with_threads(1)
}

/// One full pipeline pass over `root`: eval, then optimality, then
/// analytics (which folds the cache eval just banked).
fn run_pipelines(
    store: &SuiteStore,
) -> Result<
    (SuiteEvalOutcome, SuiteOptimalityOutcome, AnalyticsReport),
    qubikos_bench::store::StoreError,
> {
    let eval = run_suite_evaluation_with_sink(store, &eval_config(), &NullSink)?;
    let optimality = run_suite_optimality_with_sink(store, &optimality_config(), &NullSink)?;
    let analytics = run_suite_analytics_with_sink(store, &analytics_config(), &NullSink)?;
    Ok((eval, optimality, analytics))
}

/// Number of chaos seeds to sweep: `QUBIKOS_CHAOS_SEEDS` (CI sets 3 on
/// every push, 50 nightly), defaulting to 3.
fn chaos_seed_count() -> u64 {
    std::env::var("QUBIKOS_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// One way a resume ledger can rot: a label and the transform applied to
/// the healthy ledger text.
type LedgerCorruption = (&'static str, fn(&str) -> String);

fn read_file(root: &std::path::Path, rel: &str) -> String {
    std::fs::read_to_string(root.join(rel))
        .unwrap_or_else(|e| panic!("read {rel} under {}: {e}", root.display()))
}

/// The fault-injection convergence contract: for every seed, driving
/// export + eval + optimality + analytics under the seeded fault plan —
/// re-running on failure, exactly as an operator (or the CI retry step)
/// would — converges to a corpus whose manifest and shard manifests are
/// byte-identical to the fault-free run, whose reports are
/// bit-identical, and whose quarantine report accounts for every file the
/// store moved aside along the way.
#[test]
fn seeded_fault_runs_converge_to_the_fault_free_corpus_and_reports() {
    // The fault-free reference.
    let reference = TempDir::new("reference");
    let outcome = SuiteStore::export_with_options(
        &reference.0,
        DEVICE,
        &tiny_suite(),
        &export_options(),
        1,
        &NullSink,
    )
    .expect("reference export");
    let ref_store = outcome.store.expect("reference export completes");
    let (ref_eval, ref_optimality, ref_analytics) =
        run_pipelines(&ref_store).expect("reference pipelines");
    assert_eq!(ref_eval.shards_quarantined, 0);
    let ref_manifest = read_file(&reference.0, "manifest.json");
    let ref_shards: Vec<(String, String)> = ref_store
        .index()
        .shards
        .iter()
        .map(|record| (record.file.clone(), read_file(&reference.0, &record.file)))
        .collect();

    for seed in 0..chaos_seed_count() {
        let dir = TempDir::new(&format!("seed-{seed}"));
        let vfs = Arc::new(FaultVfs::new(FaultPlan::seeded(seed)));

        // Converge: each attempt re-exports (regenerating anything a prior
        // attempt quarantined) and re-runs the pipelines. Every failing
        // attempt consumes at least one scheduled one-shot fault, so a
        // bounded number of attempts always reaches a clean pass.
        let mut converged = None;
        for _attempt in 0..32 {
            let export = SuiteStore::export_with_options_on(
                vfs.clone(),
                &dir.0,
                DEVICE,
                &tiny_suite(),
                &export_options(),
                1,
                &NullSink,
            );
            let store = match export {
                Ok(outcome) => outcome.store.expect("no shard cap configured"),
                Err(_) => continue,
            };
            match run_pipelines(&store) {
                Ok((eval, optimality, analytics))
                    if eval.shards_quarantined == 0
                        && optimality.shards_quarantined == 0
                        && analytics.shards_quarantined == 0 =>
                {
                    converged = Some((store, eval, optimality, analytics));
                    break;
                }
                // A pass that quarantined a shard produced a (correctly)
                // degraded report; the next attempt's export heals it.
                Ok(_) | Err(_) => continue,
            }
        }
        let (store, eval, optimality, analytics) =
            converged.unwrap_or_else(|| panic!("seed {seed} did not converge in 32 attempts"));

        // Byte-identical corpus…
        assert_eq!(
            read_file(&dir.0, "manifest.json"),
            ref_manifest,
            "seed {seed}: root manifest must match the fault-free export"
        );
        for (file, ref_bytes) in &ref_shards {
            assert_eq!(
                &read_file(&dir.0, file),
                ref_bytes,
                "seed {seed}: shard manifest {file} must match the fault-free export"
            );
        }
        // …whose every instance still verifies (hash + parse + round trip
        // pins the QASM bytes to the same content hashes as the reference).
        let verify = store
            .verify_streaming(1, None, &NullSink)
            .expect("verify after convergence");
        assert!(
            verify.failures.is_empty(),
            "seed {seed}: converged corpus must verify clean, got {:?}",
            verify.failures
        );

        // …bit-identical reports…
        assert_eq!(
            serde_json::to_string(&eval.report).expect("serialize"),
            serde_json::to_string(&ref_eval.report).expect("serialize"),
            "seed {seed}: evaluation report must match the fault-free run"
        );
        assert_eq!(
            optimality.report, ref_optimality.report,
            "seed {seed}: optimality report must match the fault-free run"
        );
        assert_eq!(
            serde_json::to_string(&analytics.summary).expect("serialize"),
            serde_json::to_string(&ref_analytics.summary).expect("serialize"),
            "seed {seed}: analytics summary must match the fault-free run"
        );

        // …and a machine-readable account of everything moved aside.
        let quarantine = store.quarantine_report();
        for entry in &quarantine.entries {
            assert!(
                matches!(
                    entry.class.as_str(),
                    "cache" | "shard" | "instance" | "ledger"
                ),
                "seed {seed}: unknown quarantine class {:?}",
                entry.class
            );
            assert!(
                !entry.reason.is_empty(),
                "seed {seed}: quarantine entry for {} has no reason",
                entry.file
            );
            assert!(
                entry.quarantined_as.starts_with("quarantine/"),
                "seed {seed}: {} quarantined outside quarantine/: {}",
                entry.file,
                entry.quarantined_as
            );
        }
        if !quarantine.entries.is_empty() {
            // The report on disk is the canonical artifact CI uploads.
            let on_disk = read_file(&dir.0, QUARANTINE_REPORT_FILE);
            let parsed: qubikos_bench::store::QuarantineReport =
                serde_json::from_str(&on_disk).expect("quarantine.json parses");
            assert_eq!(parsed, quarantine);
        }
        // Nightly CI sets QUBIKOS_CHAOS_ARTIFACT_DIR and uploads it: one
        // quarantine report per seed that needed one, preserved past the
        // temp-dir cleanup below.
        if let Ok(artifact_dir) = std::env::var("QUBIKOS_CHAOS_ARTIFACT_DIR") {
            if !quarantine.entries.is_empty() {
                let artifact_dir = PathBuf::from(artifact_dir);
                std::fs::create_dir_all(&artifact_dir).expect("create artifact dir");
                let json = serde_json::to_string_pretty(&quarantine).expect("serialize");
                std::fs::write(
                    artifact_dir.join(format!("seed-{seed}.quarantine.json")),
                    json,
                )
                .expect("write quarantine artifact");
            }
        }
    }
}

/// A persistently corrupt shard degrades a pass of each cached pipeline —
/// evaluation, optimality and the composition matrix — instead of failing
/// it: the shard is skipped, counted and quarantined, and the next export
/// heals the corpus. The end-to-end self-healing loop, without seeded
/// randomness.
#[test]
fn corrupt_shard_degrades_then_heals_on_re_export() {
    type Pipeline = fn(&SuiteStore) -> usize;
    let pipelines: [(&str, Pipeline); 3] = [
        ("eval", |store| {
            run_suite_evaluation_with_sink(store, &eval_config(), &NullSink)
                .expect("eval")
                .shards_quarantined
        }),
        ("optimality", |store| {
            run_suite_optimality_with_sink(store, &optimality_config(), &NullSink)
                .expect("optimality")
                .shards_quarantined
        }),
        ("matrix", |store| {
            let config = MatrixConfig::quick()
                .with_threads(1)
                .with_max_compositions(2);
            run_composition_matrix(store, &config, &NullSink)
                .expect("matrix")
                .shards_quarantined
        }),
    ];
    for (name, run) in pipelines {
        let dir = TempDir::new(&format!("degrade-heal-{name}"));
        let export = || {
            SuiteStore::export_with_options(
                &dir.0,
                DEVICE,
                &tiny_suite(),
                &export_options(),
                1,
                &NullSink,
            )
            .expect("export")
        };
        let store = export().store.expect("export completes");
        let shard_file = store.index().shards[1].file.clone();

        // Rot shard 1's manifest on disk: persistent corruption (every
        // re-read sees the same wrong bytes), so the retry budget cannot
        // heal it.
        std::fs::write(dir.0.join(&shard_file), "{ not a shard manifest").expect("corrupt");

        assert_eq!(run(&store), 1, "{name}: shard 1 must be quarantined");
        assert!(
            !dir.0.join(&shard_file).exists(),
            "{name}: the corrupt manifest must have been moved aside"
        );
        let quarantine = store.quarantine_report();
        assert!(
            quarantine.entries.iter().any(|e| e.file == shard_file),
            "{name}: quarantine.json must record the shard manifest, got {:?}",
            quarantine.entries
        );

        // Re-export regenerates the quarantined shard; the rerun is whole
        // again.
        let healed = export();
        assert_eq!(healed.shards_written, 1, "{name}: only the bad shard");
        assert_eq!(healed.shards_resumed, 1, "{name}: the good shard resumes");
        let store = healed.store.expect("healing export completes");
        assert_eq!(run(&store), 0, "{name}: healed corpus");
        let verify = store.verify_streaming(1, None, &NullSink).expect("verify");
        assert!(verify.failures.is_empty());
    }
}

/// The three ways a resume ledger rots — truncated mid-write, replaced by
/// garbage, or left over from a different corpus (wrong fingerprint) — and
/// for each, an interrupted **export** restarts cleanly: completed shards
/// are re-validated from disk, missing ones regenerate, and the final
/// manifest is byte-identical to an uninterrupted export.
#[test]
fn corrupt_export_ledgers_restart_cleanly() {
    // The uninterrupted reference manifest.
    let reference = TempDir::new("ledger-reference");
    SuiteStore::export_with_options(
        &reference.0,
        DEVICE,
        &tiny_suite(),
        &export_options(),
        1,
        &NullSink,
    )
    .expect("reference export");
    let ref_manifest = read_file(&reference.0, "manifest.json");

    let corruptions: [LedgerCorruption; 3] = [
        ("truncated", |text| text[..text.len() / 2].to_string()),
        ("garbage", |_| "not json at all {{{".to_string()),
        ("wrong-fingerprint", |_| {
            r#"{"operation": "export", "fingerprint": "0000000000000000", "completed": [0]}"#
                .to_string()
        }),
    ];
    for (name, corrupt) in corruptions {
        let dir = TempDir::new(&format!("export-ledger-{name}"));
        let interrupted = SuiteStore::export_with_options(
            &dir.0,
            DEVICE,
            &tiny_suite(),
            &export_options().with_stop_after_shards(1),
            1,
            &NullSink,
        )
        .expect("interrupted export");
        assert!(
            interrupted.store.is_none(),
            "{name}: the capped export must stop before the root manifest"
        );
        let ledger_path = dir.0.join(EXPORT_LEDGER_FILE);
        let text = std::fs::read_to_string(&ledger_path).expect("ledger exists");
        std::fs::write(&ledger_path, corrupt(&text)).expect("corrupt ledger");

        let resumed = SuiteStore::export_with_options(
            &dir.0,
            DEVICE,
            &tiny_suite(),
            &export_options(),
            1,
            &NullSink,
        )
        .unwrap_or_else(|e| panic!("{name}: restart after ledger corruption failed: {e}"));
        let store = resumed.store.expect("restarted export completes");
        assert_eq!(
            read_file(&dir.0, "manifest.json"),
            ref_manifest,
            "{name}: restarted export must produce the reference manifest"
        );
        // The written shard survives the bad ledger: its on-disk manifest
        // re-validates against the config, so it resumes without the ledger.
        assert_eq!(resumed.shards_resumed, 1, "{name}: shard 0 must resume");
        assert_eq!(resumed.shards_written, 1, "{name}: shard 1 must regenerate");
        let verify = store.verify_streaming(1, None, &NullSink).expect("verify");
        assert!(verify.failures.is_empty(), "{name}: corpus must verify");
        assert!(
            !dir.0.join(EXPORT_LEDGER_FILE).exists(),
            "{name}: a completed export removes its ledger"
        );
    }
}

/// As above for the **verify** ledger: however it rots, the next
/// `suite verify` covers the whole corpus cleanly instead of trusting (or
/// choking on) the bad resume state.
#[test]
fn corrupt_verify_ledgers_restart_cleanly() {
    let corruptions: [LedgerCorruption; 3] = [
        ("truncated", |text| text[..text.len() / 2].to_string()),
        ("garbage", |_| "]]]".to_string()),
        ("wrong-fingerprint", |_| {
            r#"{"operation": "verify", "fingerprint": "0000000000000000", "completed": [0]}"#
                .to_string()
        }),
    ];
    for (name, corrupt) in corruptions {
        let dir = TempDir::new(&format!("verify-ledger-{name}"));
        let outcome = SuiteStore::export_with_options(
            &dir.0,
            DEVICE,
            &tiny_suite(),
            &export_options(),
            1,
            &NullSink,
        )
        .expect("export");
        let store = outcome.store.expect("export completes");

        let partial = store
            .verify_streaming(1, Some(1), &NullSink)
            .expect("partial verify");
        assert!(!partial.complete, "{name}: capped verify must be partial");
        let ledger_path = dir.0.join(VERIFY_LEDGER_FILE);
        let text = std::fs::read_to_string(&ledger_path).expect("verify ledger exists");
        std::fs::write(&ledger_path, corrupt(&text)).expect("corrupt ledger");

        let full = store
            .verify_streaming(1, None, &NullSink)
            .unwrap_or_else(|e| panic!("{name}: verify after ledger corruption failed: {e}"));
        assert!(full.complete, "{name}: the rerun must cover the corpus");
        assert!(
            full.failures.is_empty(),
            "{name}: a clean corpus must verify clean, got {:?}",
            full.failures
        );
        assert_eq!(
            full.shards_resumed, 0,
            "{name}: a rotten ledger must resume nothing"
        );
        assert_eq!(full.shards_checked, 2, "{name}: both shards re-check");
    }
}
