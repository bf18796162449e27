//! Filesystem seam for the suite store: a [`Vfs`] trait with a real backend
//! and a deterministic fault-injection backend, plus the bounded
//! [`RetryPolicy`] the store uses to heal transient I/O.
//!
//! Every byte the store reads or writes goes through a [`Vfs`], so the whole
//! export/verify/eval/analytics stack can be driven under *scripted* faults:
//! [`FaultVfs`] consumes a [`FaultPlan`] — a list of "the nth operation of
//! this kind fails like so" entries — and each fault fires exactly once, in a
//! deterministic order for a fixed schedule of operations. A seeded plan
//! ([`FaultPlan::seeded`]) turns any `u64` into such a schedule, which is
//! what the chaos suite fuzzes over: for *any* seed, retry + resume must
//! converge to a byte-identical corpus and bit-identical reports.
//!
//! Fault kinds model the failure classes a long corpus run actually meets:
//! plain I/O errors, `ENOSPC`, a torn write (a prefix of the bytes lands on
//! disk before the error), and read corruption (the caller sees mangled
//! bytes although the file is fine).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// The filesystem operations the suite store performs, as a trait so tests
/// can interpose deterministic faults between the store and the disk.
///
/// All paths are the store's real on-disk paths; implementations other than
/// [`RealVfs`] are expected to *wrap* the real filesystem (inject, then
/// delegate), not replace it — the store's atomicity guarantees are about
/// what lands on the actual disk.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads the entire file at `path` as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Writes `text` to `path`, creating or truncating it.
    fn write(&self, path: &Path, text: &str) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes the file's contents and metadata to the storage device.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes the directory entry table at `path` to the storage device
    /// (what makes a completed rename survive power loss).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: thin delegation to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&self, path: &Path, text: &str) -> io::Result<()> {
        std::fs::write(path, text)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX idiom;
        // on platforms where directories cannot be opened this degrades to a
        // no-op rather than failing the commit.
        match std::fs::File::open(path) {
            Ok(dir) => dir.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

/// The operation classes a [`Fault`] can target. Each class has its own
/// operation counter inside [`FaultVfs`], so "the 3rd write" and "the 3rd
/// read" are independent coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// [`Vfs::read_to_string`].
    Read,
    /// [`Vfs::write`].
    Write,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::create_dir_all`].
    CreateDir,
    /// [`Vfs::remove_file`].
    Remove,
    /// [`Vfs::sync_file`].
    SyncFile,
    /// [`Vfs::sync_dir`].
    SyncDir,
}

impl OpKind {
    /// Stable lower-case name, used in injected error messages and fault
    /// logs.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Rename => "rename",
            OpKind::CreateDir => "create-dir",
            OpKind::Remove => "remove",
            OpKind::SyncFile => "sync-file",
            OpKind::SyncDir => "sync-dir",
        }
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a generic I/O error; nothing touches disk.
    Error,
    /// The operation fails with "no space left on device".
    Enospc,
    /// Write only: a *prefix* of the bytes lands on disk, then the write
    /// errors — the torn-temp-file scenario atomic commits must survive.
    TornWrite,
    /// Read only: the read "succeeds" but returns mangled bytes, as if the
    /// medium rotted under a valid file.
    CorruptRead,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Enospc => "enospc",
            FaultKind::TornWrite => "torn-write",
            FaultKind::CorruptRead => "corrupt-read",
        }
    }
}

/// One scheduled fault: the `at`-th operation (0-based) of kind `op` fails
/// as `kind`. Each fault fires exactly once; the same operation retried
/// afterwards succeeds (unless another fault is scheduled at the next
/// index), which is exactly the transient-failure model the store's
/// [`RetryPolicy`] is built to absorb. Scheduling faults at consecutive
/// indices models a *persistent* failure that exhausts the retry budget and
/// surfaces to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Operation class the fault targets.
    pub op: OpKind,
    /// 0-based index among operations of that class.
    pub at: u64,
    /// How the operation fails.
    pub kind: FaultKind,
}

/// A deterministic, schedulable set of [`Fault`]s for a [`FaultVfs`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (the [`FaultVfs`] behaves like [`RealVfs`]).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one scheduled fault.
    pub fn with_fault(mut self, op: OpKind, at: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { op, at, kind });
        self
    }

    /// Fails the `n`-th write with a plain I/O error.
    pub fn fail_nth_write(self, n: u64) -> Self {
        self.with_fault(OpKind::Write, n, FaultKind::Error)
    }

    /// Tears the `n`-th write: a prefix lands on disk, then the write errors.
    pub fn torn_nth_write(self, n: u64) -> Self {
        self.with_fault(OpKind::Write, n, FaultKind::TornWrite)
    }

    /// Fails the `n`-th write with `ENOSPC`.
    pub fn enospc_nth_write(self, n: u64) -> Self {
        self.with_fault(OpKind::Write, n, FaultKind::Enospc)
    }

    /// Corrupts the bytes returned by the `n`-th read.
    pub fn corrupt_nth_read(self, n: u64) -> Self {
        self.with_fault(OpKind::Read, n, FaultKind::CorruptRead)
    }

    /// Derives a pseudo-random plan from `seed` (SplitMix64): between 1 and
    /// 8 faults over the first few dozen operations of each class, each
    /// fault kind drawn from the kinds valid for its operation. The same
    /// seed always yields the same plan — this is the surface the chaos
    /// suite fuzzes.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // SplitMix64 (Steele et al.).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let count = 1 + (next() % 8) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let op = match next() % 8 {
                0 | 1 => OpKind::Read,
                2..=4 => OpKind::Write,
                5 => OpKind::Rename,
                6 => OpKind::CreateDir,
                _ => OpKind::SyncFile,
            };
            let at = next() % 40;
            let kind = match op {
                OpKind::Read => {
                    if next() % 2 == 0 {
                        FaultKind::CorruptRead
                    } else {
                        FaultKind::Error
                    }
                }
                OpKind::Write => match next() % 3 {
                    0 => FaultKind::TornWrite,
                    1 => FaultKind::Enospc,
                    _ => FaultKind::Error,
                },
                _ => FaultKind::Error,
            };
            plan = plan.with_fault(op, at, kind);
        }
        plan
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// One fault that actually fired, for test accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Operation class that failed.
    pub op: OpKind,
    /// How it failed.
    pub kind: FaultKind,
    /// Path the operation targeted.
    pub path: String,
}

#[derive(Debug, Default)]
struct FaultState {
    counters: BTreeMap<OpKind, u64>,
    pending: BTreeMap<(OpKind, u64), FaultKind>,
    injected: Vec<InjectedFault>,
}

/// A [`Vfs`] that injects the faults of a [`FaultPlan`] and otherwise
/// delegates to the real filesystem. Thread-safe; operation counters are
/// global across all paths, so a fixed operation schedule (e.g. a
/// single-threaded export) sees a fully deterministic fault sequence.
#[derive(Debug)]
pub struct FaultVfs {
    inner: RealVfs,
    state: Mutex<FaultState>,
}

impl FaultVfs {
    /// Wraps the real filesystem with `plan`. When two faults target the
    /// same `(op, at)` coordinate, the first scheduled wins.
    pub fn new(plan: FaultPlan) -> Self {
        let mut pending = BTreeMap::new();
        for fault in plan.faults() {
            pending.entry((fault.op, fault.at)).or_insert(fault.kind);
        }
        FaultVfs {
            inner: RealVfs,
            state: Mutex::new(FaultState {
                counters: BTreeMap::new(),
                pending,
                injected: Vec::new(),
            }),
        }
    }

    /// Advances the operation counter for `op` and pops the fault scheduled
    /// at that index, if any.
    fn trip(&self, op: OpKind, path: &Path) -> Option<FaultKind> {
        let mut state = self.state.lock().expect("fault state mutex");
        let counter = state.counters.entry(op).or_insert(0);
        let index = *counter;
        *counter += 1;
        let kind = state.pending.remove(&(op, index))?;
        state.injected.push(InjectedFault {
            op,
            kind,
            path: path.display().to_string(),
        });
        Some(kind)
    }

    /// Every fault that has fired so far, in firing order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state
            .lock()
            .expect("fault state mutex")
            .injected
            .clone()
    }

    /// Number of scheduled faults that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.state.lock().expect("fault state mutex").pending.len()
    }

    fn error(op: OpKind, kind: FaultKind, path: &Path) -> io::Error {
        let message = match kind {
            FaultKind::Enospc => format!(
                "No space left on device (injected {} fault at {})",
                op.name(),
                path.display()
            ),
            _ => format!(
                "injected {} fault ({}) at {}",
                op.name(),
                kind.name(),
                path.display()
            ),
        };
        io::Error::other(message)
    }
}

impl Vfs for FaultVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        match self.trip(OpKind::Read, path) {
            Some(FaultKind::CorruptRead) => {
                // The file itself stays intact; only this read sees rot.
                let mut text = self.inner.read_to_string(path)?;
                let mut cut = text.len() / 2;
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
                text.push_str("## injected read corruption ##");
                Ok(text)
            }
            Some(kind) => Err(Self::error(OpKind::Read, kind, path)),
            None => self.inner.read_to_string(path),
        }
    }

    fn write(&self, path: &Path, text: &str) -> io::Result<()> {
        match self.trip(OpKind::Write, path) {
            Some(FaultKind::TornWrite) => {
                let mut cut = text.len() / 2;
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                self.inner.write(path, &text[..cut])?;
                Err(Self::error(OpKind::Write, FaultKind::TornWrite, path))
            }
            Some(kind) => Err(Self::error(OpKind::Write, kind, path)),
            None => self.inner.write(path, text),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.trip(OpKind::Rename, from) {
            Some(kind) => Err(Self::error(OpKind::Rename, kind, from)),
            None => self.inner.rename(from, to),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.trip(OpKind::CreateDir, path) {
            Some(kind) => Err(Self::error(OpKind::CreateDir, kind, path)),
            None => self.inner.create_dir_all(path),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.trip(OpKind::Remove, path) {
            Some(kind) => Err(Self::error(OpKind::Remove, kind, path)),
            None => self.inner.remove_file(path),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.trip(OpKind::SyncFile, path) {
            Some(kind) => Err(Self::error(OpKind::SyncFile, kind, path)),
            None => self.inner.sync_file(path),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.trip(OpKind::SyncDir, path) {
            Some(kind) => Err(Self::error(OpKind::SyncDir, kind, path)),
            None => self.inner.sync_dir(path),
        }
    }
}

/// Bounded retry with exponential backoff for transient I/O. `NotFound` is
/// never retried (an absent file is a fact, not a glitch); everything else
/// gets up to `attempts` tries with the delay doubling between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); clamped to at least 1.
    pub attempts: u32,
    /// Delay before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Drops the inter-attempt sleep (tests that hammer faults shouldn't
    /// wait out real backoff).
    pub fn without_backoff(mut self) -> Self {
        self.backoff = Duration::ZERO;
        self
    }

    /// Runs `op` under this policy, returning the first success or the last
    /// error once the budget is exhausted.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut delay = self.backoff;
        let mut last = None;
        for attempt in 0..self.attempts.max(1) {
            if attempt > 0 && !delay.is_zero() {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match op() {
                Ok(value) => return Ok(value),
                Err(error) if error.kind() == io::ErrorKind::NotFound => return Err(error),
                Err(error) => last = Some(error),
            }
        }
        Err(last.expect("at least one attempt runs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("qubikos-vfs-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn real_vfs_round_trips() {
        let dir = TempDir::new("real");
        let vfs = RealVfs;
        let path = dir.0.join("a.txt");
        vfs.write(&path, "hello").expect("write");
        vfs.sync_file(&path).expect("sync file");
        vfs.sync_dir(&dir.0).expect("sync dir");
        assert_eq!(vfs.read_to_string(&path).expect("read"), "hello");
        let moved = dir.0.join("b.txt");
        vfs.rename(&path, &moved).expect("rename");
        assert_eq!(vfs.read_to_string(&moved).expect("read"), "hello");
        vfs.remove_file(&moved).expect("remove");
        assert_eq!(
            vfs.read_to_string(&moved).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn faults_fire_once_at_their_scheduled_index() {
        let dir = TempDir::new("fire-once");
        let vfs = FaultVfs::new(FaultPlan::new().fail_nth_write(1));
        let path = dir.0.join("x.txt");
        vfs.write(&path, "first").expect("write 0 clean");
        let err = vfs.write(&path, "second").expect_err("write 1 faulted");
        assert!(err.to_string().contains("injected write fault"));
        vfs.write(&path, "third").expect("write 2 clean again");
        assert_eq!(vfs.read_to_string(&path).expect("read"), "third");
        assert_eq!(vfs.pending_faults(), 0);
        assert_eq!(vfs.injected().len(), 1);
    }

    #[test]
    fn torn_write_leaves_a_prefix_and_corrupt_read_mangles_bytes() {
        let dir = TempDir::new("torn");
        let vfs = FaultVfs::new(FaultPlan::new().torn_nth_write(0).corrupt_nth_read(0));
        let path = dir.0.join("t.txt");
        vfs.write(&path, "0123456789")
            .expect_err("torn write errors");
        assert_eq!(
            std::fs::read_to_string(&path).expect("prefix on disk"),
            "01234",
            "torn write must leave a strict prefix behind"
        );
        std::fs::write(&path, "0123456789").expect("repair");
        let mangled = vfs.read_to_string(&path).expect("corrupt read 'succeeds'");
        assert_ne!(mangled, "0123456789");
        assert_eq!(
            vfs.read_to_string(&path).expect("next read clean"),
            "0123456789"
        );
    }

    #[test]
    fn seeded_plans_are_deterministic_and_well_formed() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert!(!a.faults().is_empty());
            for fault in a.faults() {
                match fault.kind {
                    FaultKind::TornWrite | FaultKind::Enospc => {
                        assert_eq!(fault.op, OpKind::Write)
                    }
                    FaultKind::CorruptRead => assert_eq!(fault.op, OpKind::Read),
                    FaultKind::Error => {}
                }
            }
        }
        assert_ne!(
            FaultPlan::seeded(1),
            FaultPlan::seeded(2),
            "different seeds should differ"
        );
    }

    #[test]
    fn retry_heals_transient_faults_but_not_persistent_ones() {
        let dir = TempDir::new("retry");
        let retry = RetryPolicy::default().without_backoff();
        let path = dir.0.join("r.txt");

        // One transient fault: absorbed.
        let vfs = FaultVfs::new(FaultPlan::new().enospc_nth_write(0));
        retry
            .run(|| vfs.write(&path, "ok"))
            .expect("retry heals a one-shot fault");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "ok");

        // Three consecutive faults exhaust a 3-attempt budget: surfaced.
        let vfs = FaultVfs::new(
            FaultPlan::new()
                .fail_nth_write(0)
                .fail_nth_write(1)
                .fail_nth_write(2),
        );
        retry
            .run(|| vfs.write(&path, "no"))
            .expect_err("persistent failure surfaces");

        // NotFound short-circuits instead of burning attempts.
        let vfs = FaultVfs::new(FaultPlan::new().corrupt_nth_read(1));
        let missing = dir.0.join("missing.txt");
        assert_eq!(
            retry
                .run(|| vfs.read_to_string(&missing))
                .unwrap_err()
                .kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            vfs.pending_faults(),
            1,
            "only the first read ran; the fault at index 1 must still be pending"
        );
    }
}
