//! The §IV-C LightSABRE case study: lookahead weighting and routing quality.
//!
//! The paper dissects an Aspen-4 instance where LightSABRE starts from the
//! optimal initial mapping yet routes suboptimally because the extended-set
//! lookahead weighs far-future gates as heavily as imminent ones, and
//! suggests adding a decay factor to the lookahead cost. This module
//! reproduces that analysis quantitatively: it routes QUBIKOS circuits from
//! their known-optimal initial mapping with the stock uniform lookahead and
//! with the proposed decayed lookahead, and reports the SWAP ratios of both.
//!
//! The study runs on the crate's one shard map, like the evaluation: one
//! job per (variant, circuit) pair over the generated suite, with each
//! worker reusing one uniform and one decayed router for all of its jobs.

use crate::evaluation::RoutingJobs;
use qubikos::{generate_suite, GenerateError, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_engine::ProgressSink;
use qubikos_layout::{LookaheadSpec, RouterSpec};

/// Configuration of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// Device the study runs on.
    pub device: DeviceKind,
    /// Designed SWAP counts to generate circuits for.
    pub swap_counts: Vec<usize>,
    /// Circuits per SWAP count.
    pub circuits_per_count: usize,
    /// Two-qubit gate budget per circuit.
    pub two_qubit_gates: usize,
    /// Lookahead decay factor under test.
    pub decay: f64,
    /// Suite base seed and router seed.
    pub seed: u64,
    /// Number of worker threads; [`qubikos_engine::AUTO_THREADS`] (0) uses
    /// every available core. The outcome is identical for any value.
    pub threads: usize,
}

impl CaseStudyConfig {
    /// Returns the configuration with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Result of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyOutcome {
    /// Device the study ran on.
    pub device: DeviceKind,
    /// Number of circuits routed.
    pub circuits: usize,
    /// Mean SWAP ratio with the stock uniform lookahead (router given the
    /// optimal initial mapping).
    pub uniform_lookahead_ratio: f64,
    /// Mean SWAP ratio with the decayed lookahead the paper proposes.
    pub decayed_lookahead_ratio: f64,
    /// The decay factor used.
    pub decay: f64,
    /// Number of circuits the router solved optimally with uniform lookahead.
    pub uniform_optimal: usize,
    /// Number of circuits the router solved optimally with decayed lookahead.
    pub decayed_optimal: usize,
}

/// Runs the case study, streaming per-job progress to `sink`.
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration instead of
/// panicking.
pub fn run_case_study(
    config: &CaseStudyConfig,
    sink: &dyn ProgressSink,
) -> Result<CaseStudyOutcome, GenerateError> {
    let arch = config.device.build();
    let suite_config = SuiteConfig {
        swap_counts: config.swap_counts.clone(),
        circuits_per_count: config.circuits_per_count,
        two_qubit_gates: config.two_qubit_gates,
        base_seed: config.seed,
    };
    let suite = generate_suite(&arch, &suite_config)?;

    let uniform = RouterSpec::lightsabre();
    let decayed = RouterSpec {
        lookahead: LookaheadSpec {
            depth_decay: Some(config.decay),
            ..LookaheadSpec::sabre_default()
        },
        ..uniform
    };
    let jobs = RoutingJobs {
        arch: &arch,
        routers: vec![
            ("lightsabre".to_string(), uniform),
            ("lightsabre".to_string(), decayed),
        ],
        seed: config.seed,
        threads: config.threads,
        standalone: true,
    };
    let means = jobs.mean_ratios(&suite, sink);
    let ((uniform_ratio, uniform_optimal), (decayed_ratio, decayed_optimal)) = (means[0], means[1]);
    Ok(CaseStudyOutcome {
        device: config.device,
        circuits: suite.len(),
        uniform_lookahead_ratio: uniform_ratio,
        decayed_lookahead_ratio: decayed_ratio,
        decay: config.decay,
        uniform_optimal,
        decayed_optimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::{NullSink, AUTO_THREADS};

    fn tiny_config() -> CaseStudyConfig {
        CaseStudyConfig {
            device: DeviceKind::Grid3x3,
            swap_counts: vec![1, 2],
            circuits_per_count: 2,
            two_qubit_gates: 20,
            decay: 0.6,
            seed: 3,
            threads: 2,
        }
    }

    #[test]
    fn case_study_reports_both_variants() {
        let outcome = run_case_study(&tiny_config(), &NullSink).expect("valid config");
        assert_eq!(outcome.circuits, 4);
        assert!(outcome.uniform_lookahead_ratio >= 1.0 - 1e-9);
        assert!(outcome.decayed_lookahead_ratio >= 1.0 - 1e-9);
        assert!(outcome.uniform_optimal <= outcome.circuits);
        assert!(outcome.decayed_optimal <= outcome.circuits);
        assert!((outcome.decay - 0.6).abs() < 1e-12);
    }

    /// The tiny study's exact outcome: both mean ratios as `f64::to_bits`
    /// and both optimal counts.
    #[test]
    fn tiny_outcome_is_pinned() {
        let outcome = run_case_study(&tiny_config(), &NullSink).expect("valid config");
        assert_eq!(
            (
                outcome.uniform_lookahead_ratio.to_bits(),
                outcome.decayed_lookahead_ratio.to_bits(),
                outcome.uniform_optimal,
                outcome.decayed_optimal,
            ),
            (0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000, 4, 4)
        );
    }

    #[test]
    fn outcomes_identical_across_thread_counts() {
        let reference =
            run_case_study(&tiny_config().with_threads(1), &NullSink).expect("valid config");
        for threads in [2usize, 8, AUTO_THREADS] {
            let outcome = run_case_study(&tiny_config().with_threads(threads), &NullSink)
                .expect("valid config");
            assert_eq!(outcome, reference, "outcome diverged at threads={threads}");
        }
    }
}
