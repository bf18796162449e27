//! The job identity model: stable ids, cache keys, per-job timing.
//!
//! Every unit of work an experiment submits to the executor gets a [`JobId`]
//! equal to its index in the submitted worklist. The id is *stable*: it does
//! not depend on which worker runs the job or in which order jobs finish, so
//! the position of the job's result in the merged output and the job a
//! failure names are identical across any thread count.

use std::fmt;

/// Stable identity of one job within a run: its index in the worklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl JobId {
    /// The job's index in the submitted worklist.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job #{}", self.0)
    }
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Timing record of one completed job, as streamed to progress sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Index of the job in the worklist.
    pub job: usize,
    /// Wall-clock microseconds spent inside the job closure.
    pub micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

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
