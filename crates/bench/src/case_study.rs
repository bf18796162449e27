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
//! Both routings of each circuit form one [`qubikos_engine`] job, so the
//! study parallelizes across circuits while each worker reuses one uniform
//! and one decayed router for all of its jobs.

use qubikos::{generate_suite, ExperimentPoint, GenerateError, SuiteConfig};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_engine::{Engine, NullSink, ProgressSink};
use qubikos_layout::{validate_routing, ComposedRouter, LookaheadSpec, RouterSpec};
use serde::{Deserialize, Serialize};

/// Configuration of the case study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// One circuit's routing quality under both lookahead variants.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PointOutcome {
    uniform_ratio: f64,
    decayed_ratio: f64,
    uniform_optimal: bool,
    decayed_optimal: bool,
}

/// Runs the case study.
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration instead of
/// panicking.
pub fn run_case_study(config: &CaseStudyConfig) -> Result<CaseStudyOutcome, GenerateError> {
    run_case_study_with_sink(config, &NullSink)
}

/// [`run_case_study`] with a caller-supplied progress/metrics sink.
///
/// # Errors
///
/// As [`run_case_study`].
pub fn run_case_study_with_sink(
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

    let engine = Engine::new(config.threads).with_base_seed(config.seed);
    let outcomes = engine
        .run_values(
            &suite,
            |_worker| {
                let uniform = RouterSpec::lightsabre();
                let decayed = RouterSpec {
                    lookahead: LookaheadSpec {
                        depth_decay: Some(config.decay),
                        ..LookaheadSpec::sabre_default()
                    },
                    ..uniform
                };
                (
                    uniform.build_named(config.seed, "lightsabre"),
                    decayed.build_named(config.seed, "lightsabre"),
                )
            },
            |(uniform, decayed), _ctx, point| {
                let (uniform_ratio, uniform_optimal) = route_ratio(uniform, point, &arch);
                let (decayed_ratio, decayed_optimal) = route_ratio(decayed, point, &arch);
                PointOutcome {
                    uniform_ratio,
                    decayed_ratio,
                    uniform_optimal,
                    decayed_optimal,
                }
            },
            sink,
        )
        .unwrap_or_else(|error| panic!("case study aborted: {error}"));

    // Fold in job order so the floating-point sums are schedule-independent.
    let mean = |select: &dyn Fn(&PointOutcome) -> f64| {
        outcomes.iter().map(select).sum::<f64>() / outcomes.len().max(1) as f64
    };
    Ok(CaseStudyOutcome {
        device: config.device,
        circuits: outcomes.len(),
        uniform_lookahead_ratio: mean(&|o| o.uniform_ratio),
        decayed_lookahead_ratio: mean(&|o| o.decayed_ratio),
        decay: config.decay,
        uniform_optimal: outcomes.iter().filter(|o| o.uniform_optimal).count(),
        decayed_optimal: outcomes.iter().filter(|o| o.decayed_optimal).count(),
    })
}

/// Routes one circuit from its known-optimal initial mapping and returns the
/// SWAP ratio plus whether the routing matched the optimum exactly.
fn route_ratio(
    router: &ComposedRouter,
    point: &ExperimentPoint,
    arch: &Architecture,
) -> (f64, bool) {
    let bench = &point.benchmark;
    let routed = router
        .route_with_initial_mapping(bench.circuit(), arch, bench.reference_mapping())
        .expect("benchmark fits its architecture");
    validate_routing(bench.circuit(), arch, &routed).expect("router output is valid");
    let ratio = bench
        .swap_ratio(&routed)
        .expect("optimal count is non-zero");
    (ratio, routed.swap_count() == bench.optimal_swaps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::AUTO_THREADS;

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
        let outcome = run_case_study(&tiny_config()).expect("valid config");
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
        let outcome = run_case_study(&tiny_config()).expect("valid config");
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
        let reference = run_case_study(&tiny_config().with_threads(1)).expect("valid config");
        for threads in [2usize, 8, AUTO_THREADS] {
            let outcome =
                run_case_study(&tiny_config().with_threads(threads)).expect("valid config");
            assert_eq!(outcome, reference, "outcome diverged at threads={threads}");
        }
    }
}
