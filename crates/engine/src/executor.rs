//! The deterministic work-stealing executor.
//!
//! Scheduling model: the worklist is an immutable slice; workers *steal* the
//! next job by bumping one shared atomic index, so a worker that drew a long
//! job simply claims fewer jobs while the others drain the rest. There is no
//! static partitioning and therefore no convoy behind a slow chunk.
//!
//! Determinism model: scheduling affects only *which worker* runs a job and
//! *when* — never the job's inputs. Each worker buffers its outputs
//! privately (no shared result lock), and the buffers are merged in job-id
//! order after the run, so the merged output is identical for any thread
//! count, including 1.
//!
//! Failure model: a panic inside a job is caught on the worker, the run is
//! aborted cooperatively, and the panic is reported as a structured
//! [`EngineError`] naming the job and carrying the payload — not as a
//! poisoned mutex three layers away.

use crate::job::{JobId, JobRecord};
use crate::progress::{as_micros, ProgressSink, RunSummary};
use crate::threads::resolve_threads;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Why a run aborted. When several workers fail in the same run, the
/// executor reports the *observed* failure closest to the start of the
/// worklist. (Which jobs get claimed before the abort flag is seen is still
/// schedule-dependent, so under racing panics the reported job can vary
/// between runs — but it is always a real failure, never a poisoned lock.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A job's closure panicked.
    JobPanicked {
        /// The job that panicked.
        id: JobId,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// A worker's state factory panicked before the worker ran any job.
    WorkerSetupPanicked {
        /// Index of the worker whose factory panicked.
        worker: usize,
        /// The panic payload, rendered to a string.
        payload: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::JobPanicked { id, payload } => write!(f, "{id} panicked: {payload}"),
            EngineError::WorkerSetupPanicked { worker, payload } => {
                write!(f, "worker {worker} panicked during setup: {payload}")
            }
        }
    }
}

impl Error for EngineError {}

impl EngineError {
    /// Ordering key: lower sorts first, and the executor keeps the smallest.
    /// Setup failures precede all job failures; within a class, failures
    /// order by id.
    fn rank(&self) -> (usize, usize) {
        match self {
            EngineError::WorkerSetupPanicked { worker, .. } => (0, *worker),
            EngineError::JobPanicked { id, .. } => (1, id.index()),
        }
    }
}

/// Renders a caught panic payload for [`EngineError`].
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The executor: a thread count.
///
/// Construction is cheap (no threads are spawned until [`Engine::run`]), so
/// pipelines build one per experiment from their config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// Creates an engine. `threads` follows the workspace convention:
    /// [`crate::AUTO_THREADS`] (0) resolves to every available core at run
    /// time, any positive value is used as-is.
    pub fn new(threads: usize) -> Self {
        Engine { threads }
    }

    /// The concrete thread count a run over `jobs` jobs would use: the
    /// resolved request, but never more threads than jobs and never zero.
    pub fn threads_for(&self, jobs: usize) -> usize {
        resolve_threads(self.threads).min(jobs).max(1)
    }

    /// Runs `jobs` to completion and returns their values **in job-id
    /// order**, regardless of thread count or scheduling.
    ///
    /// `make_worker` runs once per worker thread, on that thread, and builds
    /// whatever reusable state the jobs need (routers, solvers, scratch
    /// buffers); `run_job` borrows that state mutably, so per-worker reuse is
    /// free of locks. The engine guarantees a worker's state is only ever
    /// touched by its own thread.
    ///
    /// # Errors
    ///
    /// If any job (or worker factory) panics, the run aborts cooperatively —
    /// in-flight jobs finish, no new jobs are claimed — and the failure
    /// nearest the start of the worklist is returned as an [`EngineError`]
    /// naming the job and its panic payload.
    pub fn run<J, W, T>(
        &self,
        jobs: &[J],
        make_worker: impl Fn(usize) -> W + Sync,
        run_job: impl Fn(&mut W, &J) -> T + Sync,
        sink: &dyn ProgressSink,
    ) -> Result<Vec<T>, EngineError>
    where
        J: Sync,
        T: Send,
    {
        let threads = self.threads_for(jobs.len());
        let started = Instant::now();
        sink.run_started(jobs.len(), threads);

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<EngineError>> = Mutex::new(None);
        let record_failure = |error: EngineError| {
            let mut slot = failure.lock().expect("failure slot lock");
            let keep_existing = slot
                .as_ref()
                .is_some_and(|existing| existing.rank() <= error.rank());
            if !keep_existing {
                *slot = Some(error);
            }
            abort.store(true, Ordering::Relaxed);
        };

        // Each worker returns its `(job index, value)` pairs and the summed
        // microseconds it spent inside job closures.
        let mut buffers: Vec<(Vec<(usize, T)>, u64)> = Vec::with_capacity(threads);
        if !jobs.is_empty() {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|worker_index| {
                        let (next, abort, record_failure) = (&next, &abort, &record_failure);
                        let (make_worker, run_job) = (&make_worker, &run_job);
                        scope.spawn(move || {
                            let mut outputs = Vec::new();
                            let mut busy_micros = 0;
                            let mut worker = match catch_unwind(AssertUnwindSafe(|| {
                                make_worker(worker_index)
                            })) {
                                Ok(worker) => worker,
                                Err(payload) => {
                                    record_failure(EngineError::WorkerSetupPanicked {
                                        worker: worker_index,
                                        payload: payload_string(payload),
                                    });
                                    return (outputs, busy_micros);
                                }
                            };
                            while !abort.load(Ordering::Relaxed) {
                                let index = next.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(index) else { break };
                                let job_started = Instant::now();
                                match catch_unwind(AssertUnwindSafe(|| run_job(&mut worker, job))) {
                                    Ok(value) => {
                                        let micros = as_micros(job_started.elapsed());
                                        sink.job_finished(&JobRecord { job: index, micros });
                                        busy_micros += micros;
                                        outputs.push((index, value));
                                    }
                                    Err(payload) => {
                                        record_failure(EngineError::JobPanicked {
                                            id: JobId(index),
                                            payload: payload_string(payload),
                                        });
                                        break;
                                    }
                                }
                            }
                            (outputs, busy_micros)
                        })
                    })
                    .collect();
                for handle in handles {
                    // Job and factory panics were caught above; a panic
                    // escaping here comes from the progress sink and is a
                    // bug in the caller — propagate it unchanged.
                    buffers.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
                }
            });
        }

        if let Some(error) = failure.into_inner().expect("failure slot lock") {
            return Err(error);
        }

        // Merge the per-worker buffers in job-id order. Each buffer is
        // already internally sorted (workers claim ids in increasing order),
        // but a plain sort keeps the invariant obvious and cheap relative to
        // any real workload.
        let busy_micros = buffers.iter().map(|(_, micros)| micros).sum();
        let mut outputs: Vec<(usize, T)> = buffers.into_iter().flat_map(|(b, _)| b).collect();
        outputs.sort_unstable_by_key(|&(index, _)| index);
        debug_assert!(outputs.iter().enumerate().all(|(i, &(j, _))| i == j));

        sink.run_finished(&RunSummary {
            jobs: outputs.len(),
            threads,
            wall_micros: as_micros(started.elapsed()),
            busy_micros,
        });
        Ok(outputs.into_iter().map(|(_, value)| value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullSink;

    #[test]
    fn empty_worklist_returns_empty_output() {
        let engine = Engine::new(4);
        let jobs: Vec<u32> = Vec::new();
        let outputs = engine
            .run(&jobs, |_| (), |_, job| *job, &NullSink)
            .expect("no panics");
        assert!(outputs.is_empty());
    }

    #[test]
    fn single_job_runs_on_one_thread() {
        let engine = Engine::new(8);
        assert_eq!(engine.threads_for(1), 1);
        let outputs = engine
            .run(&[21u64], |_| (), |_, job| job * 2, &NullSink)
            .expect("no panics");
        assert_eq!(outputs, vec![42]);
    }

    #[test]
    fn worker_setup_panic_is_reported() {
        let engine = Engine::new(2);
        let result = engine.run(
            &[1, 2, 3],
            |worker| {
                if worker == 0 {
                    panic!("factory exploded");
                }
            },
            |_, job| *job,
            &NullSink,
        );
        match result {
            Err(EngineError::WorkerSetupPanicked { worker: 0, payload }) => {
                assert!(payload.contains("factory exploded"));
            }
            other => panic!("expected worker-setup failure, got {other:?}"),
        }
    }

    #[test]
    fn error_rank_prefers_earliest_job() {
        let early = EngineError::JobPanicked {
            id: JobId(1),
            payload: String::new(),
        };
        let late = EngineError::JobPanicked {
            id: JobId(9),
            payload: String::new(),
        };
        let setup = EngineError::WorkerSetupPanicked {
            worker: 3,
            payload: String::new(),
        };
        assert!(setup.rank() < early.rank());
        assert!(early.rank() < late.rank());
    }
}
