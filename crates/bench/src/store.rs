//! The persistent benchmark-suite store: a suite as a sharded on-disk corpus
//! plus a content-addressed result cache.
//!
//! A stored suite directory looks like:
//!
//! ```text
//! suite/
//! ├── manifest.json                    # RootIndex: config + per-shard hashes
//! ├── shards/
//! │   ├── shard_00000.json             # ShardManifest: instance records
//! │   └── shard_00001.json
//! ├── aspen-4_swaps5_inst0.qasm        # one OpenQASM file per instance
//! ├── aspen-4_swaps5_inst0.json        # metadata sidecar for external tools
//! ├── ...
//! └── results/                         # content-addressed result cache
//!     ├── lightsabre/<circuit-hash>.json
//!     └── optimality/<circuit-hash>.json
//! ```
//!
//! The QASM files are the interop boundary — the exact artifact handed to
//! Qiskit, t|ket⟩ or QMAP — and the manifests make the directory a
//! *verifiable* corpus: the root index records each shard manifest's content
//! hash, and each shard manifest records, per instance, the seed it was
//! generated from, its designed SWAP count, and the content hash of its QASM
//! text. Loading distrusts the disk on principle: shard bytes must match the
//! root hash, each file's bytes must match the shard hash, must parse
//! through [`parse_qasm`], and the parsed circuit must equal the circuit
//! regenerated from the recorded seed — a full round-trip proof that what
//! external tools read is what the generator certified.
//!
//! **Streaming.** Consumers never hold more than one shard of
//! [`ExperimentPoint`]s resident: [`SuiteStore::load_shard`] returns a
//! [`LoadedShard`] whose lifetime is tracked by a per-store residency
//! counter, so tests can *assert* the flat-memory claim
//! ([`SuiteStore::residency_peak`]). The evaluation, optimality, and
//! analytics pipelines stream shard-by-shard on top of this.
//!
//! **Resume.** Long operations (export, verify) keep a completed-shards
//! ledger next to the root index (`export.ledger.json`,
//! `verify.ledger.json`). The ledger records a fingerprint of the operation's
//! inputs; an interrupted run restarted with the same inputs skips every
//! ledgered shard, and a run with different inputs ignores the stale ledger.
//! The ledger is deleted when the operation completes, and because shard
//! contents are pure functions of the config, a resumed export produces a
//! root index byte-identical to an uninterrupted one.
//!
//! A legacy (format 1) monolithic `manifest.json` opens transparently as a
//! single-shard corpus — every streaming consumer works unchanged, with the
//! whole suite as shard 0.
//!
//! The `results/` cache keys each stored outcome by
//! ([`JobKey`]: tool namespace, circuit content hash), so re-running an
//! evaluation on the same suite skips every (tool, circuit) pair it has
//! already routed, and an interrupted sharded run resumes where it stopped.
//! Cache writes go through a temp-file rename so a killed run never leaves a
//! half-written entry behind.
//!
//! **Fault tolerance.** Every byte the store touches goes through a
//! [`Vfs`], so the whole stack can be driven under scripted
//! faults ([`crate::vfs::FaultVfs`]) and is hardened against real ones:
//!
//! * Transient I/O errors are absorbed by a bounded
//!   [`RetryPolicy`] (and transiently corrupt
//!   *reads* by re-reading until the hash check passes).
//! * Commits of manifests, ledgers, and the quarantine report fsync the
//!   temp file before the rename and the directory after it (see
//!   [`ExportOptions::durable`]), so "atomic" survives power loss, not just
//!   SIGKILL. A failed commit removes its temp file.
//! * Files that are *persistently* corrupt on disk (a cache entry that does
//!   not parse, a shard manifest that fails its hash check) are moved into
//!   `quarantine/` and recorded in the machine-readable
//!   [`QUARANTINE_REPORT_FILE`] instead of silently missing or aborting the
//!   run; the streaming pipelines skip, count, and surface quarantined
//!   shards.
//! * Export resume trusts only the disk: a shard manifest that exists and
//!   validates against the config (seeds, spans, device, gate counts) is
//!   reused even when the resume ledger is missing or corrupt, so a
//!   destroyed ledger never costs completed shards.

use crate::vfs::{RealVfs, RetryPolicy, Vfs};
use qubikos::{
    content_hash, generate, generate_suite, instance_file_name, shard_file_name, shard_spans,
    ExperimentPoint, GenerateError, GeneratorConfig, InstanceRecord, RootIndex, ShardManifest,
    ShardRecord, SuiteConfig, SuiteManifest, DEFAULT_SHARD_SIZE, MANIFEST_FILE, MANIFEST_FORMAT,
    SHARD_DIR, V1_MANIFEST_FORMAT,
};
use qubikos_arch::DeviceKind;
use qubikos_circuit::{parse_qasm, to_qasm};
use qubikos_engine::{Engine, JobKey, NullSink, ProgressSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// File name of the export resume ledger, next to the root index.
pub const EXPORT_LEDGER_FILE: &str = "export.ledger.json";

/// File name of the verification resume ledger, next to the root index.
pub const VERIFY_LEDGER_FILE: &str = "verify.ledger.json";

/// Directory (under the suite root) that corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Machine-readable report of every quarantined file, inside
/// [`QUARANTINE_DIR`].
pub const QUARANTINE_REPORT_FILE: &str = "quarantine/quarantine.json";

/// Everything that can go wrong exporting, opening, verifying, or loading a
/// stored suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: String,
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// `manifest.json`, a shard manifest, or a cache entry did not
    /// deserialize.
    Malformed {
        /// Path of the offending file.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// The manifest's schema version is not one this build understands.
    FormatVersion {
        /// Version found in the manifest.
        found: u32,
    },
    /// A file's bytes do not match the recorded content hash (an instance
    /// file against its shard manifest, or a shard manifest against the root
    /// index).
    HashMismatch {
        /// The offending file.
        file: String,
        /// Hash recorded in the manifest.
        expected: String,
        /// Hash of the bytes on disk.
        found: String,
    },
    /// An instance file no longer parses as the supported QASM subset.
    Qasm {
        /// The instance file.
        file: String,
        /// Rendered parse error.
        message: String,
    },
    /// An instance file parses, but to a different circuit than the one its
    /// recorded seed regenerates — the round trip the paper's methodology
    /// relies on is broken.
    RoundTripMismatch {
        /// The instance file.
        file: String,
    },
    /// Regenerating an instance from its recorded seed failed.
    Generate(GenerateError),
    /// Verification finished and found failing instances. Unlike the
    /// per-instance variants above, this carries **every** failure, each
    /// with its shard and instance context.
    VerifyFailed {
        /// All failing instances, in (shard, instance) order.
        failures: Vec<VerifyFailure>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "io error at {path}: {message}"),
            StoreError::Malformed { path, message } => {
                write!(f, "malformed store file {path}: {message}")
            }
            StoreError::FormatVersion { found } => write!(
                f,
                "manifest format {found} is not supported (expected {MANIFEST_FORMAT} or {V1_MANIFEST_FORMAT})"
            ),
            StoreError::HashMismatch {
                file,
                expected,
                found,
            } => write!(
                f,
                "content hash mismatch for {file}: manifest records {expected}, file hashes to {found}"
            ),
            StoreError::Qasm { file, message } => {
                write!(f, "stored QASM {file} failed to parse: {message}")
            }
            StoreError::RoundTripMismatch { file } => write!(
                f,
                "stored QASM {file} parses to a different circuit than its recorded seed regenerates"
            ),
            StoreError::Generate(error) => write!(f, "regeneration failed: {error}"),
            StoreError::VerifyFailed { failures } => {
                writeln!(f, "verification failed for {} instance(s):", failures.len())?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for StoreError {}

impl StoreError {
    /// True when the error means the *bytes on disk* are wrong (tampered,
    /// torn, or rotted) rather than the filesystem failing: these are the
    /// errors the pipelines degrade around by quarantining the file, where
    /// an [`Io`](StoreError::Io) error still aborts the run.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Malformed { .. }
                | StoreError::HashMismatch { .. }
                | StoreError::Qasm { .. }
                | StoreError::RoundTripMismatch { .. }
        )
    }
}

impl From<GenerateError> for StoreError {
    fn from(error: GenerateError) -> Self {
        StoreError::Generate(error)
    }
}

fn io_error(path: &Path, error: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: error.to_string(),
    }
}

// ---- fault-tolerant filesystem plumbing -----------------------------------

/// The store's view of the filesystem: a [`Vfs`] backend, the retry budget
/// for transient faults, and whether commits of critical files fsync.
#[derive(Debug, Clone)]
struct Fs {
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    durable: bool,
}

impl Fs {
    /// Reads a file, absorbing transient I/O errors (`NotFound` returns
    /// immediately).
    fn read(&self, path: &Path) -> io::Result<String> {
        self.retry.run(|| self.vfs.read_to_string(path))
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        self.retry
            .run(|| self.vfs.create_dir_all(path))
            .map_err(|e| io_error(path, &e))
    }

    /// Writes `text` to `path` via a sibling temp file + rename, so readers
    /// (and resumed runs) never observe a torn file. The temp name carries
    /// the process id and a per-process counter: two sharded runs landing on
    /// the same cache entry each rename their own complete file (last rename
    /// wins with identical content) instead of racing on one shared `.tmp`.
    ///
    /// With `durable` (manifests, ledgers, quarantine report) the temp file
    /// is fsynced before the rename and the parent directory after it, so a
    /// completed commit survives power loss. Any failed attempt removes its
    /// temp file before the retry policy re-runs or surfaces the error — a
    /// torn commit leaves no debris behind.
    fn write_atomic(&self, path: &Path, text: &str, durable: bool) -> Result<(), StoreError> {
        static WRITE_SERIAL: AtomicU64 = AtomicU64::new(0);
        self.retry
            .run(|| {
                let serial = WRITE_SERIAL.fetch_add(1, Ordering::Relaxed);
                let mut tmp = path.as_os_str().to_owned();
                tmp.push(format!(".{}-{serial}.tmp", std::process::id()));
                let tmp = PathBuf::from(tmp);
                let attempt = (|| {
                    self.vfs.write(&tmp, text)?;
                    if durable {
                        self.vfs.sync_file(&tmp)?;
                    }
                    self.vfs.rename(&tmp, path)
                })();
                if attempt.is_err() {
                    let _ = self.vfs.remove_file(&tmp);
                }
                attempt?;
                if durable {
                    if let Some(parent) = path.parent() {
                        // Advisory: a failed directory fsync does not un-commit
                        // the rename.
                        let _ = self.vfs.sync_dir(parent);
                    }
                }
                Ok(())
            })
            .map_err(|e| io_error(path, &e))
    }
}

/// Raw result-cache counters, totalled since the [`SuiteStore`] was opened.
/// Shared across clones of the store (the engine pipelines read the cache
/// from many workers), rendered via [`SuiteStore::cache_stats`].
#[derive(Debug, Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt_entries: AtomicU64,
}

/// Point-in-time snapshot of the store's result-cache counters
/// ([`SuiteStore::cache_stats`]): raw entry-level reads, before any
/// caller-side staleness filtering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsSnapshot {
    /// Entries that were present and parsed.
    pub hits: u64,
    /// Entries that were absent (or unreadable after retries).
    pub misses: u64,
    /// Entries that were present but persistently corrupt — each one was
    /// moved to [`QUARANTINE_DIR`] and costs exactly one recompute.
    pub corrupt_entries: u64,
}

impl CacheStatsSnapshot {
    /// Counter movement since `earlier` (saturating per field): the cache
    /// activity between two snapshots of the same store. Lets a pass report
    /// its own reads even when the store's lifetime counters already carry
    /// history from previous passes.
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            corrupt_entries: self.corrupt_entries.saturating_sub(earlier.corrupt_entries),
        }
    }
}

/// One quarantined file, as recorded in [`QUARANTINE_REPORT_FILE`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Original path, relative to the suite root.
    pub file: String,
    /// File class: `"cache"`, `"shard"`, `"instance"`, or `"ledger"`.
    pub class: String,
    /// Why the file was quarantined (rendered error).
    pub reason: String,
    /// Where the bytes were moved, relative to the suite root (inside
    /// [`QUARANTINE_DIR`]). Quarantining the same original path again gets a
    /// numbered suffix, so no evidence is overwritten.
    pub quarantined_as: String,
}

/// The machine-readable quarantine report: every file the store moved aside
/// instead of silently ignoring or hard-aborting on, in quarantine order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// All quarantined files, oldest first.
    pub entries: Vec<QuarantineEntry>,
}

/// Moves `root/rel` into [`QUARANTINE_DIR`] and appends an entry to the
/// quarantine report. Serialized by a process-wide lock so concurrent
/// pipeline workers cannot interleave read-modify-write cycles on the
/// report. Best-effort by design: callers degrade around corruption, and a
/// failing quarantine (e.g. under injected faults) must not turn a
/// recoverable situation into an abort — hence the fallback from rename to
/// remove.
fn quarantine_file(
    fs: &Fs,
    root: &Path,
    rel: &str,
    class: &str,
    reason: &str,
) -> Result<(), StoreError> {
    static QUARANTINE_LOCK: Mutex<()> = Mutex::new(());
    let _guard = QUARANTINE_LOCK.lock().expect("quarantine lock");
    let report_path = root.join(QUARANTINE_REPORT_FILE);
    let mut report = match fs.read(&report_path) {
        Ok(text) => serde_json::from_str::<QuarantineReport>(&text).unwrap_or_default(),
        Err(_) => QuarantineReport::default(),
    };
    let flat = rel.replace('/', "__");
    let occurrence = report.entries.iter().filter(|e| e.file == rel).count();
    let quarantined_as = if occurrence == 0 {
        format!("{QUARANTINE_DIR}/{flat}")
    } else {
        format!("{QUARANTINE_DIR}/{flat}.{occurrence}")
    };
    fs.create_dir_all(&root.join(QUARANTINE_DIR))?;
    let source = root.join(rel);
    if fs
        .retry
        .run(|| fs.vfs.rename(&source, &root.join(&quarantined_as)))
        .is_err()
    {
        // Getting the corrupt file out of the way matters more than
        // preserving its bytes.
        let _ = fs.retry.run(|| fs.vfs.remove_file(&source));
    }
    report.entries.push(QuarantineEntry {
        file: rel.to_string(),
        class: class.to_string(),
        reason: reason.to_string(),
        quarantined_as,
    });
    let json = serde_json::to_string_pretty(&report).map_err(|e| StoreError::Malformed {
        path: report_path.display().to_string(),
        message: e.to_string(),
    })?;
    fs.write_atomic(&report_path, &json, fs.durable)
}

/// One failing instance found by [`SuiteStore::verify_streaming`], with the
/// shard and in-shard index needed to locate it in a sharded corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFailure {
    /// Shard the failure was found in.
    pub shard: usize,
    /// Index of the instance within its shard, or `None` when the shard
    /// manifest itself failed (unreadable, corrupt, or hash-mismatched).
    pub instance: Option<usize>,
    /// The offending file (instance QASM, or the shard manifest).
    pub file: String,
    /// Rendered cause.
    pub message: String,
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.instance {
            Some(instance) => write!(
                f,
                "shard {} instance {}: {}: {}",
                self.shard, instance, self.file, self.message
            ),
            None => write!(f, "shard {}: {}: {}", self.shard, self.file, self.message),
        }
    }
}

/// Outcome of [`SuiteStore::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Number of instances checked (hash + parse + regeneration round trip).
    pub instances: usize,
}

/// Outcome of [`SuiteStore::verify_streaming`]: counts plus **all** failures
/// found, instead of bailing on the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instances checked this run (excludes ledger-skipped shards).
    pub instances: usize,
    /// Shards checked this run.
    pub shards_checked: usize,
    /// Shards skipped because a previous run already verified them (resume
    /// ledger hits).
    pub shards_resumed: usize,
    /// Every failing instance, in (shard, instance) order.
    pub failures: Vec<VerifyFailure>,
    /// Whether the whole corpus has now been covered (false when the run was
    /// truncated by `stop_after_shards`).
    pub complete: bool,
}

/// Options for [`SuiteStore::export_with_options`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportOptions {
    /// Instances per shard ([`DEFAULT_SHARD_SIZE`] by default).
    pub shard_size: usize,
    /// Stop (as if interrupted) after writing this many *new* shards. Test
    /// and CI hook for exercising shard-granularity resume; `None` runs to
    /// completion.
    pub stop_after_shards: Option<usize>,
    /// Fsync manifests, ledgers, and the quarantine report on commit (temp
    /// file before the rename, directory after), so those files survive
    /// power loss — on by default. Per-instance QASM/sidecar files and
    /// cache entries are never fsynced: they are cheap to regenerate and
    /// their integrity is hash-checked on read anyway.
    pub durable: bool,
    /// Retry budget for transient I/O faults.
    pub retry: RetryPolicy,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            shard_size: DEFAULT_SHARD_SIZE,
            stop_after_shards: None,
            durable: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl ExportOptions {
    /// Sets the number of instances per shard (clamped to at least 1).
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Simulates an interrupt after `shards` newly written shards.
    pub fn with_stop_after_shards(mut self, shards: usize) -> Self {
        self.stop_after_shards = Some(shards);
        self
    }

    /// Enables or disables fsync-on-commit for manifests and ledgers.
    pub fn with_durability(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// Sets the transient-I/O retry budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Outcome of [`SuiteStore::export_with_options`].
#[derive(Debug)]
pub struct ExportOutcome {
    /// The opened store, or `None` when the run stopped early
    /// (`stop_after_shards`) before the root index could be written.
    pub store: Option<SuiteStore>,
    /// Shards generated and written by this run.
    pub shards_written: usize,
    /// Shards skipped because the resume ledger already had them.
    pub shards_resumed: usize,
    /// Total shards the corpus partitions into.
    pub shards_total: usize,
}

/// The per-operation resume ledger stored next to the root index: which
/// shards a previous (interrupted) run already completed, fingerprinted by
/// the operation's inputs so a changed config invalidates it wholesale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ShardLedger {
    operation: String,
    fingerprint: String,
    completed: Vec<usize>,
}

/// Reads a resume ledger. Absent or unreadable: nothing to resume. Present
/// but unparseable: the file is corrupt — it is quarantined (the evidence
/// may matter) and the run restarts from scratch. Parseable but for a
/// different operation or fingerprint: *stale*, not corrupt — ignored
/// without quarantining, exactly as before.
fn read_ledger(
    fs: &Fs,
    root: &Path,
    name: &str,
    operation: &str,
    fingerprint: &str,
) -> BTreeSet<usize> {
    let path = root.join(name);
    let Ok(text) = fs.read(&path) else {
        return BTreeSet::new();
    };
    let Ok(ledger) = serde_json::from_str::<ShardLedger>(&text) else {
        let _ = quarantine_file(fs, root, name, "ledger", "resume ledger does not parse");
        return BTreeSet::new();
    };
    if ledger.operation != operation || ledger.fingerprint != fingerprint {
        return BTreeSet::new();
    }
    ledger.completed.into_iter().collect()
}

fn write_ledger(
    fs: &Fs,
    path: &Path,
    operation: &str,
    fingerprint: &str,
    completed: &BTreeSet<usize>,
) -> Result<(), StoreError> {
    let ledger = ShardLedger {
        operation: operation.to_string(),
        fingerprint: fingerprint.to_string(),
        completed: completed.iter().copied().collect(),
    };
    let json = serde_json::to_string_pretty(&ledger).map_err(|e| StoreError::Malformed {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    fs.write_atomic(path, &json, fs.durable)
}

/// Per-store shard-residency bookkeeping: how many shards of
/// `ExperimentPoint`s are materialized right now, and the high-water mark.
/// This is what lets tests *assert* the streaming pipelines' flat-memory
/// claim instead of trusting it.
#[derive(Debug, Default)]
struct Residency {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Residency {
    fn acquire(self: &Arc<Self>) -> ResidencyGuard {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        ResidencyGuard {
            residency: Arc::clone(self),
        }
    }
}

#[derive(Debug)]
struct ResidencyGuard {
    residency: Arc<Residency>,
}

impl Drop for ResidencyGuard {
    fn drop(&mut self) {
        self.residency.current.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One shard's worth of verified [`ExperimentPoint`]s, counted against the
/// store's residency tracker for as long as it lives. Derefs to the slice of
/// points.
#[derive(Debug)]
pub struct LoadedShard {
    shard: usize,
    points: Vec<ExperimentPoint>,
    _guard: ResidencyGuard,
}

impl LoadedShard {
    /// Index of the shard within the suite.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's verified points, in flat grid order.
    pub fn points(&self) -> &[ExperimentPoint] {
        &self.points
    }

    /// Consumes the shard into its points. The residency guard drops here,
    /// so callers that keep the points alive (e.g. the materializing
    /// [`SuiteStore::load`]) take themselves out of the flat-memory
    /// accounting on purpose.
    pub fn into_points(self) -> Vec<ExperimentPoint> {
        self.points
    }
}

impl Deref for LoadedShard {
    type Target = [ExperimentPoint];

    fn deref(&self) -> &[ExperimentPoint] {
        &self.points
    }
}

/// A suite directory opened for reading (and result caching).
#[derive(Debug, Clone)]
pub struct SuiteStore {
    root: PathBuf,
    index: RootIndex,
    /// Present when the directory held a legacy monolithic manifest: the
    /// instance records live inline (there is no shard file to read).
    v1_instances: Option<Arc<Vec<InstanceRecord>>>,
    residency: Arc<Residency>,
    fs: Fs,
    cache_stats: Arc<CacheStats>,
}

impl SuiteStore {
    /// Generates the suite described by `(device, config)` and writes it to
    /// `root` as a sharded corpus: `manifest.json` (the root index), one
    /// shard manifest per [`ExportOptions::shard_size`] instances under
    /// `shards/`, and one QASM file (plus a JSON metadata sidecar for
    /// external tools) per instance. Existing files are overwritten; an
    /// existing result cache under `root/results` is left untouched (entries
    /// are content-addressed, so stale ones are simply never hit).
    ///
    /// Shards are generated and written in parallel on the execution engine
    /// — one job per shard, order-independent thanks to
    /// [`SuiteConfig::instance_seed`] — so exporting a large corpus
    /// parallelizes while the root index stays byte-identical to a
    /// sequential export. Each completed shard is recorded in a resume
    /// ledger ([`EXPORT_LEDGER_FILE`]); an interrupted export rerun with the
    /// same inputs regenerates only the missing shards and still produces a
    /// byte-identical root index. The ledger is removed on completion — and
    /// it is an optimization, not a dependency: a shard whose manifest is on
    /// disk and validates against the config (seeds, span, device, gate
    /// count) is resumed even when the ledger was lost or corrupted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Generate`] on suite misconfiguration, [`StoreError::Io`]
    /// on filesystem failures.
    pub fn export_with_options(
        root: impl Into<PathBuf>,
        device: DeviceKind,
        config: &SuiteConfig,
        options: &ExportOptions,
        threads: usize,
        sink: &dyn ProgressSink,
    ) -> Result<ExportOutcome, StoreError> {
        Self::export_with_options_on(
            Arc::new(RealVfs),
            root,
            device,
            config,
            options,
            threads,
            sink,
        )
    }

    /// [`export_with_options`](Self::export_with_options) on an explicit
    /// [`Vfs`] backend — the entry point the chaos suite drives with a
    /// [`crate::vfs::FaultVfs`].
    ///
    /// # Errors
    ///
    /// As [`export_with_options`](Self::export_with_options).
    pub fn export_with_options_on(
        vfs: Arc<dyn Vfs>,
        root: impl Into<PathBuf>,
        device: DeviceKind,
        config: &SuiteConfig,
        options: &ExportOptions,
        threads: usize,
        sink: &dyn ProgressSink,
    ) -> Result<ExportOutcome, StoreError> {
        let root = root.into();
        let arch = device.build();
        let fs = Fs {
            vfs,
            retry: options.retry,
            durable: options.durable,
        };
        fs.create_dir_all(&root.join(SHARD_DIR))?;

        let spans = shard_spans(config.total_circuits(), options.shard_size);
        let shards_total = spans.len();
        let fingerprint = export_fingerprint(device, config, options.shard_size);
        let ledger_path = root.join(EXPORT_LEDGER_FILE);
        let completed = read_ledger(&fs, &root, EXPORT_LEDGER_FILE, "export", &fingerprint);

        // Resume trusts the disk over the ledger. A ledgered shard only needs
        // its manifest re-read (the fingerprint already pins the config); an
        // unledgered shard can still be resumed if its manifest validates
        // record-by-record against the config — which is what saves completed
        // work when the ledger itself was truncated or corrupted. Anything
        // missing or invalid is regenerated.
        let mut resumed: Vec<(usize, ShardRecord)> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for shard in 0..shards_total {
            let record = if completed.contains(&shard) {
                read_shard_record(&fs, &root, shard)
            } else {
                read_shard_record_validated(&fs, &root, shard, device, config, &spans[shard])
            };
            match record {
                Ok(record) => resumed.push((shard, record)),
                Err(_) => pending.push(shard),
            }
        }
        let shards_resumed = resumed.len();
        let truncated = options
            .stop_after_shards
            .is_some_and(|limit| pending.len() > limit);
        if let Some(limit) = options.stop_after_shards {
            pending.truncate(limit);
        }

        let ledger = Mutex::new(
            resumed
                .iter()
                .map(|(shard, _)| *shard)
                .collect::<BTreeSet<_>>(),
        );
        let engine = Engine::new(threads).with_base_seed(config.base_seed);
        let written = engine.run_values(
            &pending,
            |_worker| (),
            |(), _ctx, &shard| -> Result<(usize, ShardRecord), StoreError> {
                let mut records = Vec::with_capacity(spans[shard].len());
                for flat in spans[shard].clone() {
                    let (count_index, instance) = config.instance_coordinates(flat);
                    let swap_count = config.swap_counts[count_index];
                    let seed = config.instance_seed(count_index, instance);
                    let gen_config =
                        GeneratorConfig::new(swap_count, config.two_qubit_gates).with_seed(seed);
                    let benchmark = generate(&arch, &gen_config)?;
                    let point = ExperimentPoint {
                        swap_count,
                        instance,
                        seed,
                        benchmark,
                    };
                    let record = InstanceRecord::describe(device, &point);
                    let qasm_path = root.join(&record.file);
                    fs.write_atomic(&qasm_path, &to_qasm(point.benchmark.circuit()), false)?;
                    let sidecar = serde_json::json!({
                        "architecture": point.benchmark.architecture(),
                        "optimal_swaps": point.benchmark.optimal_swaps(),
                        "two_qubit_gates": record.two_qubit_gates,
                        "seed": seed,
                        "content_hash": record.content_hash,
                        "optimal_initial_mapping": point.benchmark.reference_mapping().as_slice(),
                    });
                    let sidecar_path = qasm_path.with_extension("json");
                    let json = serde_json::to_string_pretty(&sidecar).map_err(|e| {
                        StoreError::Malformed {
                            path: sidecar_path.display().to_string(),
                            message: e.to_string(),
                        }
                    })?;
                    fs.write_atomic(&sidecar_path, &json, false)?;
                    records.push(record);
                }
                let manifest = ShardManifest {
                    shard,
                    instances: records,
                };
                let file = shard_file_name(shard);
                let path = root.join(&file);
                let json =
                    serde_json::to_string_pretty(&manifest).map_err(|e| StoreError::Malformed {
                        path: path.display().to_string(),
                        message: e.to_string(),
                    })?;
                fs.write_atomic(&path, &json, fs.durable)?;
                let record = ShardRecord {
                    shard,
                    file,
                    instances: manifest.instances.len(),
                    content_hash: content_hash(&json),
                };
                // Mark the shard done in the resume ledger the moment its
                // manifest is on disk, so an interrupt right after this
                // write still resumes past it.
                {
                    let mut done = ledger.lock().expect("ledger mutex");
                    done.insert(shard);
                    write_ledger(&fs, &ledger_path, "export", &fingerprint, &done)?;
                }
                Ok((shard, record))
            },
            sink,
        );
        let written = written
            .unwrap_or_else(|error| panic!("suite export aborted: {error}"))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let shards_written = written.len();

        if truncated {
            return Ok(ExportOutcome {
                store: None,
                shards_written,
                shards_resumed,
                shards_total,
            });
        }

        let mut shard_records: Vec<(usize, ShardRecord)> = resumed;
        shard_records.extend(written);
        shard_records.sort_by_key(|(shard, _)| *shard);
        let index = RootIndex {
            format: MANIFEST_FORMAT,
            device,
            config: config.clone(),
            shard_size: options.shard_size,
            shards: shard_records
                .into_iter()
                .map(|(_, record)| record)
                .collect(),
        };
        let manifest_path = root.join(MANIFEST_FILE);
        let json = serde_json::to_string_pretty(&index).map_err(|e| StoreError::Malformed {
            path: manifest_path.display().to_string(),
            message: e.to_string(),
        })?;
        fs.write_atomic(&manifest_path, &json, fs.durable)?;
        let _ = fs.retry.run(|| fs.vfs.remove_file(&ledger_path));
        Ok(ExportOutcome {
            store: Some(SuiteStore {
                root,
                index,
                v1_instances: None,
                residency: Arc::new(Residency::default()),
                fs,
                cache_stats: Arc::new(CacheStats::default()),
            }),
            shards_written,
            shards_resumed,
            shards_total,
        })
    }

    /// [`export_with_options`](Self::export_with_options) with the default
    /// shard size and no early stop, returning the opened store.
    ///
    /// # Errors
    ///
    /// As [`export_with_options`](Self::export_with_options).
    pub fn export(
        root: impl Into<PathBuf>,
        device: DeviceKind,
        config: &SuiteConfig,
        threads: usize,
        sink: &dyn ProgressSink,
    ) -> Result<SuiteStore, StoreError> {
        let outcome = Self::export_with_options(
            root,
            device,
            config,
            &ExportOptions::default(),
            threads,
            sink,
        )?;
        Ok(outcome
            .store
            .expect("export without stop_after_shards always completes"))
    }

    /// Opens an existing suite directory by reading its manifest. A format-2
    /// root index opens as-is; a legacy format-1 monolithic manifest opens
    /// transparently as a single-shard corpus. No instance files are touched
    /// until a shard is loaded or verified.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the manifest is unreadable,
    /// [`StoreError::Malformed`] when it does not deserialize,
    /// [`StoreError::FormatVersion`] on a schema mismatch.
    pub fn open(root: impl Into<PathBuf>) -> Result<SuiteStore, StoreError> {
        Self::open_with(root, Arc::new(RealVfs), RetryPolicy::default())
    }

    /// [`open`](Self::open) on an explicit [`Vfs`] backend and retry policy
    /// — the entry point the chaos suite drives with a
    /// [`crate::vfs::FaultVfs`].
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<SuiteStore, StoreError> {
        let root = root.into();
        let fs = Fs {
            vfs,
            retry,
            durable: true,
        };
        let manifest_path = root.join(MANIFEST_FILE);
        let text = fs
            .read(&manifest_path)
            .map_err(|e| io_error(&manifest_path, &e))?;
        let malformed = |message: String| StoreError::Malformed {
            path: manifest_path.display().to_string(),
            message,
        };
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| malformed(e.to_string()))?;
        let format = value
            .object_field("format")
            .and_then(u32::deserialize_value)
            .map_err(|e| malformed(e.to_string()))?;
        match format {
            MANIFEST_FORMAT => {
                let index =
                    RootIndex::deserialize_value(&value).map_err(|e| malformed(e.to_string()))?;
                Ok(SuiteStore {
                    root,
                    index,
                    v1_instances: None,
                    residency: Arc::new(Residency::default()),
                    fs,
                    cache_stats: Arc::new(CacheStats::default()),
                })
            }
            V1_MANIFEST_FORMAT => {
                let manifest = SuiteManifest::deserialize_value(&value)
                    .map_err(|e| malformed(e.to_string()))?;
                // The monolithic manifest *is* the single shard: the root
                // record points at manifest.json itself, hash included, so
                // the integrity chain holds end to end for v1 corpora too.
                let index = RootIndex {
                    format: V1_MANIFEST_FORMAT,
                    device: manifest.device,
                    config: manifest.config,
                    shard_size: manifest.instances.len().max(1),
                    shards: vec![ShardRecord {
                        shard: 0,
                        file: MANIFEST_FILE.to_string(),
                        instances: manifest.instances.len(),
                        content_hash: content_hash(&text),
                    }],
                };
                Ok(SuiteStore {
                    root,
                    index,
                    v1_instances: Some(Arc::new(manifest.instances)),
                    residency: Arc::new(Residency::default()),
                    fs,
                    cache_stats: Arc::new(CacheStats::default()),
                })
            }
            found => Err(StoreError::FormatVersion { found }),
        }
    }

    /// The suite directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The root index read at [`open`](Self::open) (or written by
    /// [`export`](Self::export)). For a legacy corpus this is the
    /// synthesized single-shard view.
    pub fn index(&self) -> &RootIndex {
        &self.index
    }

    /// Device the stored suite targets.
    pub fn device(&self) -> DeviceKind {
        self.index.device
    }

    /// The configuration the suite was generated from.
    pub fn config(&self) -> &SuiteConfig {
        &self.index.config
    }

    /// Number of shards the corpus partitions into.
    pub fn shard_count(&self) -> usize {
        self.index.shard_count()
    }

    /// Total instances across all shards.
    pub fn total_instances(&self) -> usize {
        self.index.total_instances()
    }

    /// High-water mark of concurrently resident loaded shards since the
    /// store was opened (or since [`reset_residency_peak`]). The streaming
    /// pipelines' flat-memory claim is exactly `residency_peak() <= 1`.
    ///
    /// [`reset_residency_peak`]: Self::reset_residency_peak
    pub fn residency_peak(&self) -> usize {
        self.residency.peak.load(Ordering::SeqCst)
    }

    /// Resets the residency high-water mark (to the current residency).
    pub fn reset_residency_peak(&self) {
        self.residency.peak.store(
            self.residency.current.load(Ordering::SeqCst),
            Ordering::SeqCst,
        );
    }

    /// Reads shard `shard`'s instance records, verifying the shard
    /// manifest's bytes against the root index hash. For a legacy corpus the
    /// records come from the in-memory manifest.
    ///
    /// A failed hash check is re-read up to the retry budget before it
    /// counts: transiently corrupt *reads* (the medium returned wrong bytes
    /// for an intact file) heal, only persistent on-disk corruption
    /// surfaces.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]/[`StoreError::Malformed`]/[`StoreError::HashMismatch`]
    /// on unreadable, corrupt, or tampered shard manifests.
    pub fn shard_records(&self, shard: usize) -> Result<Vec<InstanceRecord>, StoreError> {
        if let Some(instances) = &self.v1_instances {
            assert_eq!(shard, 0, "legacy corpus has exactly one shard");
            return Ok(instances.as_ref().clone());
        }
        let record = &self.index.shards[shard];
        let path = self.root.join(&record.file);
        let mut last = None;
        for _ in 0..self.fs.retry.attempts.max(1) {
            let text = self.fs.read(&path).map_err(|e| io_error(&path, &e))?;
            match parse_shard_manifest(&text, shard, record, &path) {
                Ok(instances) => return Ok(instances),
                Err(error) => last = Some(error),
            }
        }
        Err(last.expect("at least one attempt runs"))
    }

    /// Loads one shard back into verified experiment points: each file's
    /// bytes must match the shard hash, parse as the supported QASM subset,
    /// and equal the circuit regenerated from the recorded seed. The
    /// returned points (including certificates and reference solutions) are
    /// therefore bit-identical to the corresponding slice of what
    /// [`generate_suite`] produces for the index's config.
    ///
    /// The returned [`LoadedShard`] counts against
    /// [`residency_peak`](Self::residency_peak) until dropped.
    ///
    /// # Errors
    ///
    /// The first (in shard order) [`StoreError`] found.
    pub fn load_shard(&self, shard: usize) -> Result<LoadedShard, StoreError> {
        let records = self.shard_records(shard)?;
        let guard = self.residency.acquire();
        let arch = self.index.device.build();
        let points = records
            .iter()
            .map(|record| self.check_instance(&arch, record))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LoadedShard {
            shard,
            points,
            _guard: guard,
        })
    }

    /// Verifies one instance record and returns its point: hash check,
    /// parse, and regeneration round trip. As with
    /// [`shard_records`](Self::shard_records), a failed check is re-read up
    /// to the retry budget so transient read corruption heals.
    fn check_instance(
        &self,
        arch: &qubikos_arch::Architecture,
        record: &InstanceRecord,
    ) -> Result<ExperimentPoint, StoreError> {
        let gen_config = GeneratorConfig::new(record.swap_count, self.index.config.two_qubit_gates)
            .with_seed(record.seed);
        let benchmark = generate(arch, &gen_config)?;
        let path = self.root.join(&record.file);
        let mut last = None;
        for _ in 0..self.fs.retry.attempts.max(1) {
            let text = self.fs.read(&path).map_err(|e| io_error(&path, &e))?;
            let checked = (|| {
                let found = content_hash(&text);
                if found != record.content_hash {
                    return Err(StoreError::HashMismatch {
                        file: record.file.clone(),
                        expected: record.content_hash.clone(),
                        found,
                    });
                }
                let parsed = parse_qasm(&text).map_err(|e| StoreError::Qasm {
                    file: record.file.clone(),
                    message: e.to_string(),
                })?;
                if &parsed != benchmark.circuit() {
                    return Err(StoreError::RoundTripMismatch {
                        file: record.file.clone(),
                    });
                }
                Ok(())
            })();
            match checked {
                Ok(()) => {
                    return Ok(ExperimentPoint {
                        swap_count: record.swap_count,
                        instance: record.instance,
                        seed: record.seed,
                        benchmark,
                    })
                }
                Err(error) => last = Some(error),
            }
        }
        Err(last.expect("at least one attempt runs"))
    }

    /// Materializes the whole corpus as one `Vec`, shard by shard, with the
    /// same per-instance verification as [`load_shard`](Self::load_shard).
    /// Convenience for small suites and tests; the streaming pipelines never
    /// call this.
    ///
    /// # Errors
    ///
    /// The first (in shard order) [`StoreError`] found.
    pub fn load(&self) -> Result<Vec<ExperimentPoint>, StoreError> {
        let mut points = Vec::with_capacity(self.total_instances());
        for shard in 0..self.shard_count() {
            points.extend(self.load_shard(shard)?.into_points());
        }
        Ok(points)
    }

    /// Verifies every instance (hash, parse, regeneration round trip)
    /// without keeping the circuits, streaming shard by shard on the engine
    /// — one job per shard, so verification of a large corpus parallelizes
    /// with flat memory. Unlike [`verify`](Self::verify) this reports
    /// **all** failing instances (with shard + index context) instead of
    /// bailing on the first mismatch.
    ///
    /// Clean shards are recorded in a resume ledger ([`VERIFY_LEDGER_FILE`]);
    /// an interrupted verification rerun skips them. The ledger is removed
    /// when a run covers the whole corpus cleanly. `stop_after_shards`
    /// truncates the run after that many shards (the CI interrupt hook).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the ledger cannot be written. Per-instance
    /// problems are *not* errors here — they land in
    /// [`VerifyReport::failures`].
    pub fn verify_streaming(
        &self,
        threads: usize,
        stop_after_shards: Option<usize>,
        sink: &dyn ProgressSink,
    ) -> Result<VerifyReport, StoreError> {
        let fingerprint = self.verify_fingerprint();
        let ledger_path = self.root.join(VERIFY_LEDGER_FILE);
        let completed = read_ledger(
            &self.fs,
            &self.root,
            VERIFY_LEDGER_FILE,
            "verify",
            &fingerprint,
        );
        let mut pending: Vec<usize> = (0..self.shard_count())
            .filter(|s| !completed.contains(s))
            .collect();
        let shards_resumed = self.shard_count() - pending.len();
        let truncated = stop_after_shards.is_some_and(|limit| pending.len() > limit);
        if let Some(limit) = stop_after_shards {
            pending.truncate(limit);
        }

        let arch = self.index.device.build();
        let ledger = Mutex::new(completed);
        let engine = Engine::new(threads).with_base_seed(self.index.config.base_seed);
        let checked = engine.run_values(
            &pending,
            |_worker| (),
            |(), _ctx, &shard| -> Result<(usize, Vec<VerifyFailure>), StoreError> {
                let records = match self.shard_records(shard) {
                    Ok(records) => records,
                    Err(error) => {
                        let file = self
                            .index
                            .shards
                            .get(shard)
                            .map_or_else(|| shard_file_name(shard), |r| r.file.clone());
                        return Ok((
                            0,
                            vec![VerifyFailure {
                                shard,
                                instance: None,
                                file,
                                message: error.to_string(),
                            }],
                        ));
                    }
                };
                let mut failures = Vec::new();
                for (instance, record) in records.iter().enumerate() {
                    if let Err(error) = self.check_instance(&arch, record) {
                        failures.push(VerifyFailure {
                            shard,
                            instance: Some(instance),
                            file: record.file.clone(),
                            message: error.to_string(),
                        });
                    }
                }
                if failures.is_empty() {
                    let mut done = ledger.lock().expect("ledger mutex");
                    done.insert(shard);
                    write_ledger(&self.fs, &ledger_path, "verify", &fingerprint, &done)?;
                }
                Ok((records.len(), failures))
            },
            sink,
        );
        let checked = checked
            .unwrap_or_else(|error| panic!("suite verification aborted: {error}"))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        let mut instances = 0;
        let mut failures = Vec::new();
        for (count, mut shard_failures) in checked {
            instances += count;
            failures.append(&mut shard_failures);
        }
        let complete = !truncated;
        if complete && failures.is_empty() {
            let _ = self.fs.retry.run(|| self.fs.vfs.remove_file(&ledger_path));
        }
        Ok(VerifyReport {
            instances,
            shards_checked: pending.len(),
            shards_resumed,
            failures,
            complete,
        })
    }

    /// Single-threaded full verification, erroring when anything fails. Kept
    /// for callers that want the old all-or-nothing contract; the error now
    /// carries **every** failure ([`StoreError::VerifyFailed`]), not just
    /// the first. Ignores and does not touch the resume ledger semantics
    /// beyond [`verify_streaming`](Self::verify_streaming)'s.
    ///
    /// # Errors
    ///
    /// [`StoreError::VerifyFailed`] listing all failing instances;
    /// [`StoreError::Io`] on ledger write failures.
    pub fn verify(&self) -> Result<VerifyOutcome, StoreError> {
        let report = self.verify_streaming(1, None, &NullSink)?;
        if report.failures.is_empty() {
            Ok(VerifyOutcome {
                instances: report.instances,
            })
        } else {
            Err(StoreError::VerifyFailed {
                failures: report.failures,
            })
        }
    }

    /// Fingerprint binding a verification ledger to this exact corpus (the
    /// serialized root index covers device, config, shard size, and every
    /// shard hash).
    fn verify_fingerprint(&self) -> String {
        content_hash(&serde_json::to_string(&self.index).expect("index serializes"))
    }

    /// Convenience: generates the index's suite in memory (no disk reads
    /// beyond the already-loaded root index). Used by tests comparing stored
    /// and in-memory pipelines.
    ///
    /// # Errors
    ///
    /// Propagates [`GenerateError`] as [`StoreError::Generate`].
    pub fn regenerate(&self) -> Result<Vec<ExperimentPoint>, StoreError> {
        let arch = self.index.device.build();
        Ok(generate_suite(&arch, &self.index.config)?)
    }

    // ---- result cache -----------------------------------------------------

    /// Path of the cache entry for `key`.
    fn cache_path(&self, key: &JobKey) -> PathBuf {
        self.root
            .join("results")
            .join(key.namespace())
            .join(format!("{}.json", key.key()))
    }

    /// Root-relative path of the cache entry for `key` (quarantine
    /// bookkeeping).
    fn cache_rel(key: &JobKey) -> String {
        format!("results/{}/{}.json", key.namespace(), key.key())
    }

    /// Reads a cache entry. Returns `None` when the entry is absent **or**
    /// corrupt — a broken cache entry must only cost a recompute, never fail
    /// a run. A persistently corrupt entry (still unparseable after the
    /// retry budget's worth of re-reads) is additionally moved to
    /// [`QUARANTINE_DIR`] and counted in
    /// [`cache_stats`](Self::cache_stats)`.corrupt_entries`, so silent rot
    /// is visible instead of costing a recompute on every run forever.
    pub fn read_cached<T: serde::Deserialize>(&self, key: &JobKey) -> Option<T> {
        let path = self.cache_path(key);
        let mut parse_error = None;
        for _ in 0..self.fs.retry.attempts.max(1) {
            let text = match self.fs.read(&path) {
                Ok(text) => text,
                Err(_) => {
                    // Absent, or unreadable even after retries: a miss. The
                    // file (if any) may be fine — never quarantine on a read
                    // failure alone.
                    self.cache_stats.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
            match serde_json::from_str(&text) {
                Ok(value) => {
                    self.cache_stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(value);
                }
                Err(error) => parse_error = Some(error),
            }
        }
        self.cache_stats
            .corrupt_entries
            .fetch_add(1, Ordering::Relaxed);
        let reason = format!(
            "cache entry does not parse: {}",
            parse_error.expect("at least one attempt runs")
        );
        let _ = quarantine_file(
            &self.fs,
            &self.root,
            &Self::cache_rel(key),
            "cache",
            &reason,
        );
        None
    }

    /// Writes a cache entry atomically (temp file + rename), creating the
    /// cache directories on first use.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn write_cached<T: Serialize>(&self, key: &JobKey, value: &T) -> Result<(), StoreError> {
        let path = self.cache_path(key);
        if let Some(parent) = path.parent() {
            self.fs.create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(value).map_err(|e| StoreError::Malformed {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        self.fs.write_atomic(&path, &json, false)
    }

    /// Snapshot of the result-cache counters accumulated by this store (and
    /// all its clones) since it was opened.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.cache_stats.hits.load(Ordering::Relaxed),
            misses: self.cache_stats.misses.load(Ordering::Relaxed),
            corrupt_entries: self.cache_stats.corrupt_entries.load(Ordering::Relaxed),
        }
    }

    // ---- quarantine --------------------------------------------------------

    /// Reads the quarantine report ([`QUARANTINE_REPORT_FILE`]); an absent
    /// or unreadable report is an empty one.
    pub fn quarantine_report(&self) -> QuarantineReport {
        let path = self.root.join(QUARANTINE_REPORT_FILE);
        match self.fs.read(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
            Err(_) => QuarantineReport::default(),
        }
    }

    /// Quarantines the file implicated by a corruption-class error on
    /// `shard`: the specific instance file when the error names one, the
    /// shard manifest otherwise. Used by the streaming pipelines to degrade
    /// — skip, count, surface — instead of aborting; re-exporting the suite
    /// regenerates whatever was moved aside.
    ///
    /// When the offender is an *instance* file, the shard's manifest is
    /// quarantined alongside it: export-resume only regenerates a shard
    /// whose manifest is missing or invalid, so leaving a valid manifest
    /// over a quarantined instance would strand a hole no re-export heals.
    pub(crate) fn quarantine_shard_error(&self, shard: usize, error: &StoreError) {
        let manifest_rel = self
            .index
            .shards
            .get(shard)
            .map_or_else(|| shard_file_name(shard), |record| record.file.clone());
        let reason = error.to_string();
        match error {
            StoreError::HashMismatch { file, .. }
            | StoreError::Qasm { file, .. }
            | StoreError::RoundTripMismatch { file }
                if file.ends_with(".qasm") =>
            {
                let _ = quarantine_file(&self.fs, &self.root, file, "instance", &reason);
                let _ = quarantine_file(
                    &self.fs,
                    &self.root,
                    &manifest_rel,
                    "shard",
                    &format!("contains quarantined instance {file}"),
                );
            }
            StoreError::HashMismatch { file, .. }
            | StoreError::Qasm { file, .. }
            | StoreError::RoundTripMismatch { file } => {
                let _ = quarantine_file(&self.fs, &self.root, file, "shard", &reason);
            }
            _ => {
                let _ = quarantine_file(&self.fs, &self.root, &manifest_rel, "shard", &reason);
            }
        }
    }
}

/// Fingerprint binding an export ledger to its inputs: same device, config,
/// and shard size ⇒ same shard contents, so completed shards are reusable.
fn export_fingerprint(device: DeviceKind, config: &SuiteConfig, shard_size: usize) -> String {
    let inputs = serde_json::json!({
        "device": device,
        "config": config,
        "shard_size": shard_size,
    });
    content_hash(&serde_json::to_string(&inputs).expect("fingerprint serializes"))
}

/// Parses and integrity-checks one shard manifest's text against its root
/// index record: hash, schema, and shard-number check.
fn parse_shard_manifest(
    text: &str,
    shard: usize,
    record: &ShardRecord,
    path: &Path,
) -> Result<Vec<InstanceRecord>, StoreError> {
    let found = content_hash(text);
    if found != record.content_hash {
        return Err(StoreError::HashMismatch {
            file: record.file.clone(),
            expected: record.content_hash.clone(),
            found,
        });
    }
    let manifest: ShardManifest =
        serde_json::from_str(text).map_err(|e| StoreError::Malformed {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    if manifest.shard != shard {
        return Err(StoreError::Malformed {
            path: path.display().to_string(),
            message: format!(
                "shard manifest claims shard {}, expected {shard}",
                manifest.shard
            ),
        });
    }
    Ok(manifest.instances)
}

/// Re-derives the root-index record of an already-written shard manifest
/// from its bytes on disk (resume path for *ledgered* shards — the ledger
/// fingerprint already pins the config the manifest was written for).
fn read_shard_record(fs: &Fs, root: &Path, shard: usize) -> Result<ShardRecord, StoreError> {
    let (record, _) = read_shard_manifest(fs, root, shard)?;
    Ok(record)
}

fn read_shard_manifest(
    fs: &Fs,
    root: &Path,
    shard: usize,
) -> Result<(ShardRecord, ShardManifest), StoreError> {
    let file = shard_file_name(shard);
    let path = root.join(&file);
    let text = fs.read(&path).map_err(|e| io_error(&path, &e))?;
    let manifest: ShardManifest =
        serde_json::from_str(&text).map_err(|e| StoreError::Malformed {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    if manifest.shard != shard {
        return Err(StoreError::Malformed {
            path: path.display().to_string(),
            message: format!(
                "shard manifest claims shard {}, expected {shard}",
                manifest.shard
            ),
        });
    }
    let record = ShardRecord {
        shard,
        file,
        instances: manifest.instances.len(),
        content_hash: content_hash(&text),
    };
    Ok((record, manifest))
}

/// Resume path for shards the ledger does *not* vouch for: the manifest on
/// disk is only reused if every record matches what this export would
/// generate — file name (device), seed, swap count, instance index, and
/// gate count per [`SuiteConfig::instance_seed`] over the shard's span.
/// Shard contents are pure functions of those inputs, so a validated shard
/// is byte-identical to a regenerated one; anything else fails validation
/// and gets regenerated.
fn read_shard_record_validated(
    fs: &Fs,
    root: &Path,
    shard: usize,
    device: DeviceKind,
    config: &SuiteConfig,
    span: &std::ops::Range<usize>,
) -> Result<ShardRecord, StoreError> {
    let (record, manifest) = read_shard_manifest(fs, root, shard)?;
    let mismatch = |message: String| StoreError::Malformed {
        path: root.join(shard_file_name(shard)).display().to_string(),
        message,
    };
    if manifest.instances.len() != span.len() {
        return Err(mismatch(format!(
            "shard holds {} instances, config expects {}",
            manifest.instances.len(),
            span.len()
        )));
    }
    for (offset, instance_record) in manifest.instances.iter().enumerate() {
        let (count_index, instance) = config.instance_coordinates(span.start + offset);
        let swap_count = config.swap_counts[count_index];
        let seed = config.instance_seed(count_index, instance);
        let expected_file = instance_file_name(device, swap_count, instance);
        if instance_record.swap_count != swap_count
            || instance_record.instance != instance
            || instance_record.seed != seed
            || instance_record.two_qubit_gates != config.two_qubit_gates
            || instance_record.file != expected_file
        {
            return Err(mismatch(format!(
                "instance {offset} does not match the configured suite (found {}, expected {expected_file} with seed {seed})",
                instance_record.file
            )));
        }
    }
    Ok(record)
}

/// Exports a suite with no progress streaming (library/test convenience;
/// CLIs pass a real sink to [`SuiteStore::export`]).
///
/// # Errors
///
/// As [`SuiteStore::export`].
pub fn export_suite(
    root: impl Into<PathBuf>,
    device: DeviceKind,
    config: &SuiteConfig,
    threads: usize,
) -> Result<SuiteStore, StoreError> {
    SuiteStore::export(root, device, config, threads, &NullSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::AUTO_THREADS;

    /// A unique temp dir per test; removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "qubikos-store-{}-{}-{name}",
                std::process::id(),
                std::thread::current()
                    .name()
                    .unwrap_or("t")
                    .replace("::", "-"),
            ));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            swap_counts: vec![1, 2],
            circuits_per_count: 2,
            two_qubit_gates: 16,
            base_seed: 11,
        }
    }

    #[test]
    fn export_then_load_round_trips_bit_identically() {
        let dir = TempDir::new("round-trip");
        let config = tiny_config();
        let store = export_suite(&dir.0, DeviceKind::Grid3x3, &config, 2).expect("export");
        assert_eq!(store.total_instances(), 4);
        assert_eq!(store.shard_count(), 1, "4 instances fit one default shard");

        let reopened = SuiteStore::open(&dir.0).expect("open");
        assert_eq!(reopened.index(), store.index());
        let loaded = reopened.load().expect("load verifies");
        let generated =
            generate_suite(&DeviceKind::Grid3x3.build(), &config).expect("in-memory suite");
        assert_eq!(
            loaded, generated,
            "stored corpus must equal the in-memory suite"
        );
    }

    #[test]
    fn sharded_export_partitions_and_round_trips() {
        let dir = TempDir::new("sharded");
        let config = tiny_config();
        let outcome = SuiteStore::export_with_options(
            &dir.0,
            DeviceKind::Grid3x3,
            &config,
            &ExportOptions::default().with_shard_size(3),
            2,
            &NullSink,
        )
        .expect("export");
        assert_eq!(outcome.shards_total, 2);
        assert_eq!(outcome.shards_written, 2);
        assert_eq!(outcome.shards_resumed, 0);
        let store = outcome.store.expect("completed");
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.index().shards[0].instances, 3);
        assert_eq!(store.index().shards[1].instances, 1);
        assert!(dir.0.join(shard_file_name(0)).is_file());
        assert!(!dir.0.join(EXPORT_LEDGER_FILE).exists());

        let loaded = store.load().expect("load verifies");
        let generated =
            generate_suite(&DeviceKind::Grid3x3.build(), &config).expect("in-memory suite");
        assert_eq!(
            loaded, generated,
            "shard boundaries must not reorder points"
        );
    }

    #[test]
    fn export_is_thread_count_invariant() {
        let dir_a = TempDir::new("threads-1");
        let dir_b = TempDir::new("threads-8");
        let config = tiny_config();
        let options = ExportOptions::default().with_shard_size(1);
        SuiteStore::export_with_options(
            &dir_a.0,
            DeviceKind::Grid3x3,
            &config,
            &options,
            1,
            &NullSink,
        )
        .expect("export 1");
        SuiteStore::export_with_options(
            &dir_b.0,
            DeviceKind::Grid3x3,
            &config,
            &options,
            8,
            &NullSink,
        )
        .expect("export 8");
        let a = std::fs::read_to_string(dir_a.0.join(MANIFEST_FILE)).expect("manifest a");
        let b = std::fs::read_to_string(dir_b.0.join(MANIFEST_FILE)).expect("manifest b");
        assert_eq!(a, b, "root index must not depend on export thread count");
        for shard in 0..4 {
            let a = std::fs::read_to_string(dir_a.0.join(shard_file_name(shard))).expect("shard a");
            let b = std::fs::read_to_string(dir_b.0.join(shard_file_name(shard))).expect("shard b");
            assert_eq!(a, b, "shard {shard} must not depend on export thread count");
        }
    }

    #[test]
    fn verify_reports_all_tampered_instances() {
        let dir = TempDir::new("tamper");
        let config = tiny_config();
        let store = SuiteStore::export_with_options(
            &dir.0,
            DeviceKind::Grid3x3,
            &config,
            &ExportOptions::default().with_shard_size(2),
            AUTO_THREADS,
            &NullSink,
        )
        .expect("export")
        .store
        .expect("completed");
        assert_eq!(store.verify().expect("clean verify").instances, 4);

        // Tamper with one instance in each shard: verification must report
        // both, with shard + index context, instead of bailing on the first.
        let shard0 = store.shard_records(0).expect("shard 0");
        let shard1 = store.shard_records(1).expect("shard 1");
        for record in [&shard0[0], &shard1[1]] {
            let victim = dir.0.join(&record.file);
            let mut text = std::fs::read_to_string(&victim).expect("read");
            text.push_str("h q[0];\n");
            std::fs::write(&victim, text).expect("tamper");
        }
        let store = SuiteStore::open(&dir.0).expect("open");
        match store.verify() {
            Err(StoreError::VerifyFailed { failures }) => {
                assert_eq!(failures.len(), 2, "both tampered instances reported");
                assert_eq!(failures[0].shard, 0);
                assert_eq!(failures[0].instance, Some(0));
                assert_eq!(failures[0].file, shard0[0].file);
                assert!(failures[0].message.contains("hash mismatch"));
                assert_eq!(failures[1].shard, 1);
                assert_eq!(failures[1].instance, Some(1));
                assert_eq!(failures[1].file, shard1[1].file);
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }

    #[test]
    fn verify_detects_tampered_shard_manifest() {
        let dir = TempDir::new("shard-tamper");
        let store = export_suite(&dir.0, DeviceKind::Grid3x3, &tiny_config(), 1).expect("export");
        let path = dir.0.join(shard_file_name(0));
        let mut text = std::fs::read_to_string(&path).expect("read shard");
        text.push(' ');
        std::fs::write(&path, text).expect("tamper shard");
        let store = SuiteStore::open(store.root()).expect("open");
        match store.verify() {
            Err(StoreError::VerifyFailed { failures }) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].shard, 0);
                assert_eq!(failures[0].instance, None);
                assert!(failures[0].message.contains("hash mismatch"));
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_unparseable_instances() {
        let dir = TempDir::new("unparseable");
        let store = export_suite(&dir.0, DeviceKind::Grid3x3, &tiny_config(), 1).expect("export");
        // Rewrite an instance with garbage *and* matching hashes all the way
        // up the chain, so the parse failure (not a hash check) is what
        // fires.
        let records = store.shard_records(0).expect("records");
        let record = records[1].clone();
        let garbage = "OPENQASM 2.0;\nqreg q[9];\nccz q[0], q[1], q[2];\n";
        std::fs::write(dir.0.join(&record.file), garbage).expect("write");
        let mut manifest = ShardManifest {
            shard: 0,
            instances: records,
        };
        manifest.instances[1].content_hash = content_hash(garbage);
        let shard_json = serde_json::to_string_pretty(&manifest).expect("serialize");
        std::fs::write(dir.0.join(shard_file_name(0)), &shard_json).expect("write shard");
        let mut index = store.index().clone();
        index.shards[0].content_hash = content_hash(&shard_json);
        std::fs::write(
            dir.0.join(MANIFEST_FILE),
            serde_json::to_string_pretty(&index).expect("serialize"),
        )
        .expect("write manifest");
        match SuiteStore::open(&dir.0).expect("open").load() {
            Err(StoreError::Qasm { file, .. }) => assert_eq!(file, record.file),
            other => panic!("expected qasm error, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_unknown_format_versions() {
        let dir = TempDir::new("format");
        let store = export_suite(&dir.0, DeviceKind::Grid3x3, &tiny_config(), 1).expect("export");
        let mut index = store.index().clone();
        index.format = MANIFEST_FORMAT + 1;
        std::fs::write(
            dir.0.join(MANIFEST_FILE),
            serde_json::to_string_pretty(&index).expect("serialize"),
        )
        .expect("write manifest");
        assert_eq!(
            SuiteStore::open(&dir.0).unwrap_err(),
            StoreError::FormatVersion {
                found: MANIFEST_FORMAT + 1
            }
        );
    }

    #[test]
    fn residency_counts_loaded_shards() {
        let dir = TempDir::new("residency");
        let store = SuiteStore::export_with_options(
            &dir.0,
            DeviceKind::Grid3x3,
            &tiny_config(),
            &ExportOptions::default().with_shard_size(2),
            1,
            &NullSink,
        )
        .expect("export")
        .store
        .expect("completed");
        assert_eq!(store.residency_peak(), 0);
        {
            let _one = store.load_shard(0).expect("shard 0");
            assert_eq!(store.residency_peak(), 1);
            {
                let _two = store.load_shard(1).expect("shard 1");
                assert_eq!(store.residency_peak(), 2);
            }
        }
        store.reset_residency_peak();
        assert_eq!(store.residency_peak(), 0);
        // Streaming one shard at a time keeps the peak at 1.
        for shard in 0..store.shard_count() {
            let loaded = store.load_shard(shard).expect("shard");
            assert_eq!(loaded.shard(), shard);
            assert_eq!(loaded.points().len(), 2);
        }
        assert_eq!(store.residency_peak(), 1);
    }

    #[test]
    fn result_cache_round_trips_and_tolerates_corruption() {
        let dir = TempDir::new("cache");
        let store = export_suite(&dir.0, DeviceKind::Grid3x3, &tiny_config(), 1).expect("export");
        let key = JobKey::new("lightsabre", "deadbeef");
        assert_eq!(store.read_cached::<Vec<usize>>(&key), None);
        store.write_cached(&key, &vec![3usize, 4]).expect("write");
        assert_eq!(store.read_cached::<Vec<usize>>(&key), Some(vec![3, 4]));
        // A corrupt entry reads as a miss, never as an error.
        std::fs::write(store.cache_path(&key), "{not json").expect("corrupt");
        assert_eq!(store.read_cached::<Vec<usize>>(&key), None);
    }
}
