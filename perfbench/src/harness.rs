//! Shared machinery of the workloads: run context, set-up repetition, the
//! closed-loop measured phase, and the engine counters sink.

use crate::metrics::Tally;
use crate::stats;
use crate::trace::Tracer;
use qubikos_engine::{JobRecord, ProgressSink, RunSummary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Everything a workload needs from the command line and environment.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// Engine worker threads for the corpus workloads (capped at `nproc`).
    pub threads: usize,
    /// Scratch directory for corpora, inside the checkout.
    pub work_dir: PathBuf,
    /// Span recorder; enabled only in the traced run.
    pub tracer: Tracer,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
    /// A recorder that is always disabled, for the untraced half of the
    /// traced run.
    pub untraced: Tracer,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// The recorder for a round that is `traced` or not.
    pub fn tracer(&self, traced: bool) -> &Tracer {
        if traced {
            &self.tracer
        } else {
            &self.untraced
        }
    }

    /// A per-input seed, derived from the workload seed and the input's
    /// coordinates (splitmix64 finalizer over the mixed words).
    pub fn derive_seed(&self, stream: u64, index: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured ops and their failed checks.
    pub tally: Tally,
    /// Failed checks outside any op: set-up references and exact-count
    /// comparisons. Any entry makes the run incorrect.
    pub run_failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for repeat in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup(repeat));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Latency samples of one measured phase, grouped by op class (for example
/// `eagle-127/qmap`) and by input within the class.
#[derive(Debug, Default)]
pub struct Phase {
    samples: BTreeMap<String, BTreeMap<u64, Vec<f64>>>,
}

/// End-to-end figures of one measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Ops completed.
    pub ops: usize,
    /// Ops per second of op time (checks between ops excluded), with each
    /// input's time taken as the fastest of its repeats.
    pub ops_per_s: f64,
    /// Geometric mean over op classes of each class's median latency.
    pub p50_ms: f64,
    /// Geometric mean over op classes of each class's tail latency.
    pub tail_ms: f64,
}

impl Phase {
    /// Records one op of `class` on input `input` that took `elapsed`.
    pub fn record(&mut self, class: &str, input: u64, elapsed: Duration) {
        self.samples
            .entry(class.to_string())
            .or_default()
            .entry(input)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
    }

    /// Each class's latency distribution over its distinct inputs: an input
    /// routed or solved in several rounds contributes the fastest of its
    /// repeats, so a tail rests on ten slow inputs, not on ten repeats of a
    /// few. The repeats lie a round apart, and host contention on a shared
    /// machine comes in spells of seconds that slow every op alike; the
    /// fastest repeat is the one a spell missed.
    fn distributions(&self) -> BTreeMap<&str, Vec<f64>> {
        self.samples
            .iter()
            .map(|(class, inputs)| {
                let values = inputs.values().map(|repeats| stats::min(repeats)).collect();
                (class.as_str(), values)
            })
            .collect()
    }

    /// The phase's end-to-end figures. A class with too few inputs for a
    /// tail contributes its maximum.
    ///
    /// # Panics
    ///
    /// Panics if no op was recorded.
    pub fn summary(&self) -> PhaseSummary {
        let ops = self
            .samples
            .values()
            .flat_map(|inputs| inputs.values())
            .map(Vec::len)
            .sum();
        assert!(ops > 0, "measured phase recorded no op");
        let distributions = self.distributions();
        let inputs: usize = distributions.values().map(Vec::len).sum();
        let round_s = distributions.values().flatten().sum::<f64>() / 1e3;
        let medians: Vec<f64> = distributions.values().map(|v| stats::median(v)).collect();
        let tails: Vec<f64> = distributions
            .values()
            .map(|v| class_tail(v).value)
            .collect();
        PhaseSummary {
            ops,
            ops_per_s: inputs as f64 / round_s,
            p50_ms: stats::geomean(&medians),
            tail_ms: stats::geomean(&tails),
        }
    }

    /// One line per class: ops, inputs, median, and tail with its
    /// percentile.
    pub fn report_lines(&self, label: &str) -> Vec<String> {
        self.distributions()
            .into_iter()
            .map(|(class, v)| {
                let ops: usize = self.samples[class].values().map(Vec::len).sum();
                let tail = class_tail(&v);
                format!(
                    "{label} {class:<24} ops {ops:>6} inputs {:>5}  p50 {:>10.4} ms  p{:.1} {:>10.4} ms ({} beyond)",
                    v.len(),
                    stats::median(&v),
                    tail.percentile,
                    tail.value,
                    tail.beyond
                )
            })
            .collect()
    }
}

/// The class's tail, or its maximum (as the 100th percentile) when fewer
/// than eleven samples exist.
fn class_tail(values: &[f64]) -> stats::Tail {
    stats::tail(values).unwrap_or_else(|| stats::Tail {
        value: values.iter().copied().fold(f64::MIN, f64::max),
        percentile: 100.0,
        beyond: 0,
    })
}

/// Runs rounds of the closed loop until `measure` has elapsed; always at
/// least one round, and only whole rounds, so every class keeps its share.
pub fn closed_loop(measure: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        round();
        if start.elapsed() >= measure {
            break;
        }
    }
}

/// Runs the measured phase: `round` closed-loop for the whole measuring
/// time, or, in the traced run, untraced for half of it and traced for the
/// other half (its third argument says which). Returns the phase the
/// end-to-end or per-layer figures come from, after recording the traced
/// run's overhead.
pub fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Phase, &mut Tally, bool),
) -> PhaseSummary {
    if !ctx.traced() {
        let mut phase = Phase::default();
        closed_loop(ctx.measure, || round(&mut phase, &mut out.tally, false));
        out.report.extend(phase.report_lines("untraced"));
        return phase.summary();
    }
    let half = ctx.measure / 2;
    let mut untraced = Phase::default();
    closed_loop(half, || round(&mut untraced, &mut out.tally, false));
    let mut traced = Phase::default();
    closed_loop(half, || round(&mut traced, &mut out.tally, true));
    out.report.extend(untraced.report_lines("untraced"));
    out.report.extend(traced.report_lines("traced"));
    let traced = traced.summary();
    crate::layers::trace_overhead(out, &untraced.summary(), &traced);
    traced
}

/// Engine counters summed over every engine run of a pass: the traced
/// run's view into the engine layer through the pipelines' sink parameter.
#[derive(Debug, Default)]
pub struct EngineSink {
    totals: Mutex<EngineTotals>,
}

/// Totals collected by [`EngineSink`].
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    /// Jobs executed.
    pub jobs: u64,
    /// Summed job time (µs).
    pub busy_micros: u64,
    /// Summed engine-run wall time (µs).
    pub wall_micros: u64,
    /// Longest job (µs).
    pub job_max_micros: u64,
}

impl EngineTotals {
    /// Adds another pass's totals (the longest job is the longest of both).
    pub fn add(&mut self, other: &EngineTotals) {
        self.jobs += other.jobs;
        self.busy_micros += other.busy_micros;
        self.wall_micros += other.wall_micros;
        self.job_max_micros = self.job_max_micros.max(other.job_max_micros);
    }
}

impl EngineSink {
    /// The totals so far.
    pub fn totals(&self) -> EngineTotals {
        *self.totals.lock().expect("engine sink poisoned")
    }
}

impl ProgressSink for EngineSink {
    fn job_finished(&self, record: &JobRecord) {
        let mut totals = self.totals.lock().expect("engine sink poisoned");
        totals.jobs += 1;
        totals.busy_micros += record.micros;
        totals.job_max_micros = totals.job_max_micros.max(record.micros);
    }

    fn run_finished(&self, summary: &RunSummary) {
        self.totals
            .lock()
            .expect("engine sink poisoned")
            .wall_micros += summary.wall_micros;
    }
}

/// Process peak resident set (VmHWM) in MB; 0 when procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    qubikos_bench::microbench::peak_rss_kb() as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_uses_geomean_of_class_figures() {
        let mut phase = Phase::default();
        for input in 0..20 {
            phase.record("a", input, Duration::from_millis(1));
            phase.record("b", input, Duration::from_millis(4));
        }
        let summary = phase.summary();
        assert_eq!(summary.ops, 40);
        assert!((summary.p50_ms - 2.0).abs() < 1e-9);
        assert!((summary.tail_ms - 2.0).abs() < 1e-9);
        assert!((summary.ops_per_s - 400.0).abs() < 1e-6);
    }

    #[test]
    fn repeats_of_one_input_count_once_in_the_tail() {
        let mut phase = Phase::default();
        // Inputs 0..=10 take 1..=11 ms once; input 11 takes 50 ms twenty
        // times. Counted per sample, the twenty repeats would put the tail
        // at 11 ms; counted per input, ten inputs lie beyond 2 ms.
        for input in 0..=10 {
            phase.record("a", input, Duration::from_millis(input + 1));
        }
        for _ in 0..20 {
            phase.record("a", 11, Duration::from_millis(50));
        }
        let summary = phase.summary();
        assert_eq!(summary.ops, 31);
        assert!((summary.tail_ms - 2.0).abs() < 1e-9);
        assert!((summary.p50_ms - 6.5).abs() < 1e-9);
    }

    #[test]
    fn an_input_counts_with_its_fastest_repeat() {
        let mut phase = Phase::default();
        // Input 0 ran in a slow spell twice and once outside it.
        for ms in [9, 3, 7] {
            phase.record("a", 0, Duration::from_millis(ms));
        }
        phase.record("a", 1, Duration::from_millis(5));
        let summary = phase.summary();
        assert_eq!(summary.ops, 4);
        assert!((summary.p50_ms - 4.0).abs() < 1e-9);
        assert!((summary.ops_per_s - 250.0).abs() < 1e-6);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        let ctx = Ctx {
            seed: 1,
            measure: Duration::ZERO,
            threads: 1,
            work_dir: PathBuf::new(),
            tracer: Tracer::new(false),
            spans_path: PathBuf::new(),
            untraced: Tracer::new(false),
        };
        let a = ctx.derive_seed(0, 0);
        assert_ne!(a, ctx.derive_seed(0, 1));
        assert_ne!(a, ctx.derive_seed(1, 0));
        assert_eq!(a, ctx.derive_seed(0, 0));
    }
}
