//! Integration tests for the executor's core contracts: determinism across
//! thread counts, correct stealing under skewed job durations, and structured
//! panic propagation.

use proptest::prelude::*;
use qubikos_engine::{Engine, EngineError, JobId, JobRecord, NullSink, ProgressSink, RunSummary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Runs the same job function over `jobs` at a given thread count and
/// returns the values in merged output order.
fn run_at<T: Send>(threads: usize, jobs: &[u64], job_fn: impl Fn(u64) -> T + Sync) -> Vec<T> {
    Engine::new(threads)
        .run(jobs, |_| (), |_, &job| job_fn(job), &NullSink)
        .expect("no panics")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The executor's headline property: for any worklist, the merged
    /// values are identical across 1, 2, and 8 threads.
    #[test]
    fn results_identical_across_thread_counts(
        jobs in proptest::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let job_fn = |job: u64| job.wrapping_mul(31);
        let serial = run_at(1, &jobs, job_fn);
        let two = run_at(2, &jobs, job_fn);
        let eight = run_at(8, &jobs, job_fn);
        prop_assert_eq!(&serial, &two);
        prop_assert_eq!(&serial, &eight);
    }
}

/// Wildly skewed job durations exercise the stealing path: one job takes
/// ~50ms while 30 others take microseconds. With static half/half chunking
/// the long job's chunk-mate jobs would wait behind it; with stealing the
/// other worker drains everything else. Either way the merged output must be
/// in job order — and every job must run exactly once.
#[test]
fn skewed_durations_steal_and_merge_in_order() {
    // Job 0 is the slow one; it sits at the front so a static-chunking
    // executor would hide the bug (its chunk would be claimed first anyway).
    let jobs: Vec<u64> = (0..31).collect();
    let executions = AtomicUsize::new(0);
    let sink = RecordingSink::default();
    let values = Engine::new(4)
        .run(
            &jobs,
            |_| (),
            |_, &job| {
                executions.fetch_add(1, Ordering::Relaxed);
                if job == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                job * 10
            },
            &sink,
        )
        .expect("no panics");
    assert_eq!(executions.load(Ordering::Relaxed), 31);
    assert_eq!(values, (0..31).map(|j| j * 10).collect::<Vec<_>>());
    // The slow job's timing is visible in the record its sink was handed.
    let mut records = sink.records.into_inner().expect("sink poisoned");
    records.sort_unstable_by_key(|r| r.job);
    assert!(records[0].micros >= 50_000);
    assert!(records[1].micros < 50_000);
}

/// Regression test for the seed's `expect("no worker panicked holding the
/// lock")` failure mode: a panicking job must surface the failing job's
/// identity and panic payload, not a poisoned-mutex message.
#[test]
fn job_panic_reports_identity_and_payload() {
    let jobs: Vec<u64> = (0..20).collect();
    let result = Engine::new(4).run(
        &jobs,
        |_| (),
        |_, &job| {
            if job == 7 {
                panic!("router produced an invalid routing on instance {job}");
            }
            job
        },
        &NullSink,
    );
    match result {
        Err(EngineError::JobPanicked { id, payload }) => {
            assert_eq!(id, JobId(7));
            assert!(payload.contains("invalid routing on instance 7"));
            let rendered = EngineError::JobPanicked { id, payload }.to_string();
            assert!(rendered.contains("job #7"), "got: {rendered}");
        }
        other => panic!("expected a job panic, got {other:?}"),
    }
}

/// When several jobs panic concurrently, the reported failure is the one
/// nearest the start of the worklist, so failure reports are reproducible.
#[test]
fn earliest_panicking_job_wins() {
    let jobs: Vec<u64> = (0..16).collect();
    for _ in 0..8 {
        let result = Engine::new(8).run(
            &jobs,
            |_| (),
            |_, &job| {
                // Every job from 4 up panics; workers race to report.
                assert!(job < 4, "boom at {job}");
            },
            &NullSink,
        );
        match result {
            Err(EngineError::JobPanicked { id, .. }) => {
                // Job 4 is the earliest possible panic. Concurrent workers
                // may already be past it when the abort flag rises, but the
                // winner can never precede it.
                assert!(id.index() >= 4, "job {id} cannot have panicked");
            }
            other => panic!("expected a job panic, got {other:?}"),
        }
    }
}

/// Per-worker state is built once per worker and reused across that worker's
/// jobs (the router-reuse optimization relies on exactly this).
#[test]
fn worker_state_is_built_once_per_worker_and_reused() {
    let factory_calls = AtomicUsize::new(0);
    let jobs: Vec<u64> = (0..64).collect();
    let outputs = Engine::new(2)
        .run(
            &jobs,
            |worker| {
                factory_calls.fetch_add(1, Ordering::Relaxed);
                (worker, 0usize) // (worker id, jobs seen by this state)
            },
            |state, &job| {
                state.1 += 1;
                (job, state.1)
            },
            &NullSink,
        )
        .expect("no panics");
    assert_eq!(factory_calls.load(Ordering::Relaxed), 2);
    // Every job ran against a reused state: the per-state counters across
    // all outputs must cover 1..=k for each worker's share, summing to 64.
    let total_jobs: usize = outputs
        .iter()
        .map(|&(_, seen)| seen)
        .filter(|&seen| seen == 1)
        .count();
    assert!(total_jobs <= 2, "at most one counter reset per worker");
    assert_eq!(outputs.len(), 64);
}

/// Records every job and the run summary a sink is handed.
#[derive(Default)]
struct RecordingSink {
    records: Mutex<Vec<JobRecord>>,
    summary: Mutex<Option<RunSummary>>,
}

impl ProgressSink for RecordingSink {
    fn job_finished(&self, record: &JobRecord) {
        self.records.lock().expect("sink poisoned").push(*record);
    }

    fn run_finished(&self, summary: &RunSummary) {
        *self.summary.lock().expect("sink poisoned") = Some(*summary);
    }
}

/// A sink observes every job exactly once, even though completion order is
/// schedule-dependent.
#[test]
fn timing_sink_sees_every_job() {
    let jobs: Vec<u64> = (0..40).collect();
    let sink = RecordingSink::default();
    Engine::new(4)
        .run(&jobs, |_| (), |_, &job| job, &sink)
        .expect("no panics");
    let summary = sink
        .summary
        .lock()
        .expect("sink poisoned")
        .expect("run finished");
    assert_eq!(summary.jobs, 40);
    let mut records = sink.records.into_inner().expect("sink poisoned");
    records.sort_unstable_by_key(|r| r.job);
    assert_eq!(records.len(), 40);
    for (index, record) in records.iter().enumerate() {
        assert_eq!(record.job, index);
    }
    // The summary's busy time is the sum of the per-job times.
    assert_eq!(
        summary.busy_micros,
        records.iter().map(|r| r.micros).sum::<u64>()
    );
}
