//! The job identity model: stable ids, derived seeds, per-job timing.
//!
//! Every unit of work an experiment submits to the executor gets a [`JobId`]
//! equal to its index in the submitted worklist. The id is *stable*: it does
//! not depend on which worker runs the job or in which order jobs finish, so
//! everything derived from it — the per-job RNG seed, the position of the
//! job's result in the merged output, the record a progress sink sees — is
//! identical across any thread count.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// Stable identity of one job within a run: its index in the worklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub usize);

impl JobId {
    /// The job's index in the submitted worklist.
    pub fn index(self) -> usize {
        self.0
    }

    /// Derives the job's RNG seed from a run-level base seed.
    ///
    /// Uses a SplitMix64 finalizer over `base ^ f(index)` so that adjacent
    /// job ids receive statistically unrelated seeds while the mapping stays
    /// a pure function of `(base, id)` — the cornerstone of the engine's
    /// determinism guarantee.
    pub fn derive_seed(self, base: u64) -> u64 {
        splitmix64(base ^ (self.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job #{}", self.0)
    }
}

/// The SplitMix64 output function (Steele, Lea, Flood; used by `rand` for
/// seeding): bijective on `u64`, so distinct job ids never collide.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Content-derived identity of a job, stable **across runs and processes**.
///
/// [`JobId`] is positional — it identifies a job within one submitted
/// worklist and is what the executor schedules and merges by. A `JobKey` is
/// the complementary identity for persistence: a `(namespace, key)` pair
/// derived from the job's *inputs* (e.g. `("lightsabre", <circuit content
/// hash>)`), so a result cache can recognise work it has already done even
/// when the worklist that resubmits it is shaped differently — a resumed
/// sharded run, a re-ordered suite, or a different tool subset.
///
/// The engine itself never interprets keys; pipelines use them to address
/// cache entries (`results/<namespace>/<key>.json` in the suite store).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobKey {
    namespace: String,
    key: String,
}

impl JobKey {
    /// Creates a key. `namespace` groups related work (typically a tool
    /// name); `key` identifies the input (typically a content hash). Both
    /// must be non-empty and path-safe (no separators), since caches use
    /// them as directory and file names.
    ///
    /// # Panics
    ///
    /// Panics if either part is empty or contains `/`, `\` or `.` path
    /// components that could escape a cache directory.
    pub fn new(namespace: impl Into<String>, key: impl Into<String>) -> Self {
        let namespace = namespace.into();
        let key = key.into();
        for part in [&namespace, &key] {
            assert!(!part.is_empty(), "job key parts must be non-empty");
            assert!(
                !part.contains(['/', '\\']) && part != "." && part != "..",
                "job key part {part:?} is not path-safe"
            );
        }
        JobKey { namespace, key }
    }

    /// The grouping component (cache subdirectory).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The input-identity component (cache file stem).
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.namespace, self.key)
    }
}

/// Wall-clock deadline for one job, started when the executor hands the job
/// to its worker ([`crate::Engine::with_job_deadline`]).
///
/// Cancellation is *cooperative*: the executor cannot preempt a running
/// closure, so long-running jobs are expected to poll
/// [`expired`](Self::expired) (or pass [`expires_at`](Self::expires_at) to
/// an interruptible solver) and degrade to a partial result. The executor
/// checks again when the job returns and reports overruns through
/// [`crate::ProgressSink::job_deadline_exceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDeadline {
    started: Instant,
    limit: Duration,
}

impl JobDeadline {
    /// A deadline of `limit` starting now.
    pub fn starting_now(limit: Duration) -> Self {
        JobDeadline {
            started: Instant::now(),
            limit,
        }
    }

    /// The budget the job was given.
    pub fn limit(&self) -> Duration {
        self.limit
    }

    /// Wall-clock time since the deadline started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.started.elapsed() >= self.limit
    }

    /// The instant the budget runs out — the form interruptible solvers
    /// take ([`Instant`] comparisons are cheaper than re-deriving elapsed
    /// time in an inner loop).
    pub fn expires_at(&self) -> Instant {
        self.started + self.limit
    }
}

/// Per-job execution context handed to the job closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobContext {
    /// The job's stable identity.
    pub id: JobId,
    /// Seed derived from the run's base seed and the job id (stable across
    /// thread counts; see [`JobId::derive_seed`]).
    pub seed: u64,
    /// Index of the worker executing the job (0-based). **Not** stable across
    /// runs or thread counts — use it only for worker-local bookkeeping,
    /// never for anything that feeds into results.
    pub worker: usize,
    /// The job's wall-clock budget, when the engine was configured with one
    /// ([`crate::Engine::with_job_deadline`]); `None` means unbounded.
    pub deadline: Option<JobDeadline>,
}

/// One job's result along with its identity and measured wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput<T> {
    /// The job's stable identity.
    pub id: JobId,
    /// The seed the job ran with.
    pub seed: u64,
    /// Wall-clock time spent inside the job closure.
    pub duration: Duration,
    /// The value the job closure returned.
    pub value: T,
}

/// Timing record of one completed job, as streamed to progress sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Index of the job in the worklist.
    pub job: usize,
    /// Seed the job ran with.
    pub seed: u64,
    /// Worker that executed the job (schedule-dependent; informational only).
    pub worker: usize,
    /// Wall-clock microseconds spent inside the job closure.
    pub micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = JobId(0).derive_seed(42);
        let b = JobId(1).derive_seed(42);
        let c = JobId(0).derive_seed(43);
        // Pure function of (base, id): re-deriving yields the same seed.
        assert_eq!(a, JobId(0).derive_seed(42));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // 1024 consecutive ids under one base never collide.
        let seeds: std::collections::BTreeSet<u64> =
            (0..1024).map(|i| JobId(i).derive_seed(7)).collect();
        assert_eq!(seeds.len(), 1024);
    }

    #[test]
    fn job_keys_are_path_safe_identities() {
        let key = JobKey::new("lightsabre", "6c62272e07bb0142");
        assert_eq!(key.namespace(), "lightsabre");
        assert_eq!(key.key(), "6c62272e07bb0142");
        assert_eq!(key.to_string(), "lightsabre/6c62272e07bb0142");
        assert_eq!(key, JobKey::new("lightsabre", "6c62272e07bb0142"));
        assert_ne!(key, JobKey::new("tket", "6c62272e07bb0142"));
    }

    #[test]
    #[should_panic(expected = "not path-safe")]
    fn job_keys_reject_path_separators() {
        JobKey::new("a/b", "c");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn job_keys_reject_empty_parts() {
        JobKey::new("", "c");
    }

    #[test]
    fn job_id_displays_its_index() {
        assert_eq!(JobId(17).to_string(), "job #17");
        assert_eq!(JobId(17).index(), 17);
    }
}
