//! Streaming progress and metrics sinks.
//!
//! The executor reports every completed job to a [`ProgressSink`] while the
//! run is still going, so long experiments can stream progress to stderr and
//! a benchmark can collect per-job wall-clock timings without the pipelines
//! knowing anything about either. Sinks observe jobs in **completion order**
//! (schedule-dependent); anything that must be deterministic sorts by job
//! id.

use crate::job::JobRecord;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Summary of a finished run, handed to [`ProgressSink::run_finished`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock microseconds of the whole run (claim → merge).
    pub wall_micros: u64,
    /// Sum of per-job wall-clock microseconds (≈ `wall_micros × threads`
    /// when the run scales perfectly; the gap measures scheduling loss).
    pub busy_micros: u64,
}

/// Observer of executor progress. All methods have empty defaults so sinks
/// implement only what they need; implementations must be `Sync` because
/// every worker thread reports through the same sink.
pub trait ProgressSink: Sync {
    /// Called once before the first job is claimed.
    fn run_started(&self, total_jobs: usize, threads: usize) {
        let _ = (total_jobs, threads);
    }

    /// Called by the executing worker as each job finishes.
    fn job_finished(&self, record: &JobRecord) {
        let _ = record;
    }

    /// Called (after [`job_finished`](Self::job_finished)) when a job ran
    /// past the engine's per-job deadline
    /// ([`crate::Engine::with_job_deadline`]). `limit` is the configured
    /// budget; the overrun is `record.micros` minus the budget. Cancellation
    /// is cooperative, so this fires when the overrunning job *returns* —
    /// jobs that degrade in time (e.g. a solver returning unproven at its
    /// deadline) land close to the budget rather than far past it.
    fn job_deadline_exceeded(&self, record: &JobRecord, limit: Duration) {
        let _ = (record, limit);
    }

    /// Called once after all results are merged.
    fn run_finished(&self, summary: &RunSummary) {
        let _ = summary;
    }
}

/// Sink that ignores everything (the default for library callers).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {}

/// Streams coarse progress lines to stderr: one line every `every` completed
/// jobs plus a final summary. Designed for the CLI binaries, where per-job
/// lines would be noise but silence over a multi-minute run is worse.
#[derive(Debug)]
pub struct StderrProgress {
    label: String,
    every: usize,
    completed: AtomicUsize,
    total: AtomicUsize,
}

impl StderrProgress {
    /// Creates a sink labelled `label` that prints every `every` jobs.
    pub fn new(label: impl Into<String>, every: usize) -> Self {
        StderrProgress {
            label: label.into(),
            every: every.max(1),
            completed: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
        }
    }
}

impl ProgressSink for StderrProgress {
    fn run_started(&self, total_jobs: usize, threads: usize) {
        // Reset the counter so one sink can serve several consecutive runs
        // (the ablations pipeline drives ~10 engine runs through one sink).
        self.completed.store(0, Ordering::Relaxed);
        self.total.store(total_jobs, Ordering::Relaxed);
        eprintln!(
            "{}: {} jobs on {} thread{}",
            self.label,
            total_jobs,
            threads,
            if threads == 1 { "" } else { "s" }
        );
    }

    fn job_finished(&self, _record: &JobRecord) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.total.load(Ordering::Relaxed);
        if done % self.every == 0 && done < total {
            eprintln!("{}: {done}/{total} jobs done", self.label);
        }
    }

    fn run_finished(&self, summary: &RunSummary) {
        eprintln!(
            "{}: {} jobs in {:.2}s wall ({:.2}s cpu-busy, {} threads)",
            self.label,
            summary.jobs,
            summary.wall_micros as f64 / 1e6,
            summary.busy_micros as f64 / 1e6,
            summary.threads
        );
    }
}

/// Converts a [`Duration`] to the microsecond resolution used in records,
/// saturating instead of overflowing for pathological (>584k-year) runs.
pub(crate) fn as_micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_progress_counts_without_panicking() {
        let sink = StderrProgress::new("test", 2);
        sink.run_started(3, 1);
        for job in 0..3 {
            sink.job_finished(&JobRecord {
                job,
                seed: 0,
                worker: 0,
                micros: 1,
            });
        }
        sink.run_finished(&RunSummary {
            jobs: 3,
            threads: 1,
            wall_micros: 3,
            busy_micros: 3,
        });
        assert_eq!(sink.completed.load(Ordering::Relaxed), 3);
    }
}
