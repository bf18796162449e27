//! Benchmark-suite generation matching the paper's experiment configurations.

use crate::benchmark::QubikosCircuit;
use crate::generator::{generate, GenerateError, GeneratorConfig};
use qubikos_arch::{Architecture, DeviceKind};
use serde::{Deserialize, Serialize};

/// Configuration of a benchmark suite: a grid of (SWAP count × instance)
/// circuits sharing one architecture and gate budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// The optimal SWAP counts to generate circuits for.
    pub swap_counts: Vec<usize>,
    /// Number of circuits generated per SWAP count.
    pub circuits_per_count: usize,
    /// Target two-qubit gate count per circuit.
    pub two_qubit_gates: usize,
    /// Base RNG seed; instance `(count_index, instance_index)` derives its own
    /// seed from it so suites are reproducible and instances independent.
    pub base_seed: u64,
}

impl SuiteConfig {
    /// The paper's §IV-B evaluation configuration for a device: SWAP counts
    /// {5, 10, 15, 20}, 10 circuits per count, and the device-specific gate
    /// budget (300 for Aspen-4, 1500 for Sycamore/Rochester, 3000 for Eagle).
    pub fn paper_evaluation(device: DeviceKind) -> Self {
        let two_qubit_gates = match device {
            DeviceKind::Grid3x3 => 30,
            DeviceKind::Aspen4 => 300,
            DeviceKind::Sycamore54 | DeviceKind::Rochester53 => 1500,
            // Osprey extends the Eagle budget; the paper stops at Eagle, so
            // the same deep-circuit regime is the natural extrapolation.
            DeviceKind::Eagle127 | DeviceKind::Osprey433 => 3000,
        };
        SuiteConfig {
            swap_counts: vec![5, 10, 15, 20],
            circuits_per_count: 10,
            two_qubit_gates,
            base_seed: 2025,
        }
    }

    /// The paper's §IV-A optimality-study configuration: SWAP counts 1–4,
    /// 100 circuits per count, at most 30 two-qubit gates.
    pub fn paper_optimality_study() -> Self {
        SuiteConfig {
            swap_counts: vec![1, 2, 3, 4],
            circuits_per_count: 100,
            two_qubit_gates: 30,
            base_seed: 2025,
        }
    }

    /// Scales the number of circuits per SWAP count (used to keep harness
    /// runtimes reasonable while preserving the experiment's shape).
    pub fn with_circuits_per_count(mut self, circuits: usize) -> Self {
        self.circuits_per_count = circuits.max(1);
        self
    }

    /// Returns the configuration with a different base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Total number of circuits the suite will contain.
    pub fn total_circuits(&self) -> usize {
        self.swap_counts.len() * self.circuits_per_count
    }

    /// The seed instance `(count_index, instance)` of this suite is generated
    /// from. A pure function of the config and the grid coordinates, so
    /// callers that generate instances out of order (e.g. a parallel
    /// exporter) produce exactly the circuits [`generate_suite`] would.
    pub fn instance_seed(&self, count_index: usize, instance: usize) -> u64 {
        self.base_seed
            .wrapping_mul(1_000_003)
            .wrapping_add((count_index * self.circuits_per_count + instance) as u64)
    }

    /// Inverse of the flat (count-major) grid order used by
    /// [`generate_suite`]: maps a flat instance index back to
    /// `(count_index, instance)`. Shard exporters use this to generate an
    /// arbitrary contiguous slice of the suite without walking the grid.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range for the suite
    /// (`flat >= total_circuits()`).
    pub fn instance_coordinates(&self, flat: usize) -> (usize, usize) {
        assert!(
            flat < self.total_circuits(),
            "flat index {flat} out of range for a {}-circuit suite",
            self.total_circuits()
        );
        (
            flat / self.circuits_per_count,
            flat % self.circuits_per_count,
        )
    }
}

/// One generated instance along with the grid coordinates it was generated
/// for, as used by the experiment harness when reporting per-cell averages.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPoint {
    /// The designed (optimal) SWAP count.
    pub swap_count: usize,
    /// Index of the instance within its SWAP-count cell.
    pub instance: usize,
    /// The seed the instance was generated from.
    pub seed: u64,
    /// The benchmark circuit itself.
    pub benchmark: QubikosCircuit,
}

/// Generates the full suite for `arch` according to `config`.
///
/// # Errors
///
/// Propagates the first [`GenerateError`] encountered (which, for the
/// supported architectures, only happens on misconfiguration such as a zero
/// SWAP count).
pub fn generate_suite(
    arch: &Architecture,
    config: &SuiteConfig,
) -> Result<Vec<ExperimentPoint>, GenerateError> {
    let mut points = Vec::with_capacity(config.total_circuits());
    for (count_index, &swap_count) in config.swap_counts.iter().enumerate() {
        for instance in 0..config.circuits_per_count {
            let seed = config.instance_seed(count_index, instance);
            let gen_config =
                GeneratorConfig::new(swap_count, config.two_qubit_gates).with_seed(seed);
            let benchmark = generate(arch, &gen_config)?;
            points.push(ExperimentPoint {
                swap_count,
                instance,
                seed,
                benchmark,
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;

    #[test]
    fn paper_configs_match_the_paper() {
        let aspen = SuiteConfig::paper_evaluation(DeviceKind::Aspen4);
        assert_eq!(aspen.swap_counts, vec![5, 10, 15, 20]);
        assert_eq!(aspen.circuits_per_count, 10);
        assert_eq!(aspen.two_qubit_gates, 300);
        assert_eq!(aspen.total_circuits(), 40);

        let eagle = SuiteConfig::paper_evaluation(DeviceKind::Eagle127);
        assert_eq!(eagle.two_qubit_gates, 3000);

        let study = SuiteConfig::paper_optimality_study();
        assert_eq!(study.swap_counts, vec![1, 2, 3, 4]);
        assert_eq!(study.circuits_per_count, 100);
        assert_eq!(study.two_qubit_gates, 30);
    }

    #[test]
    fn generates_the_requested_grid() {
        let arch = devices::grid(3, 3);
        let config = SuiteConfig {
            swap_counts: vec![1, 2],
            circuits_per_count: 3,
            two_qubit_gates: 25,
            base_seed: 7,
        };
        let suite = generate_suite(&arch, &config).expect("generates");
        assert_eq!(suite.len(), 6);
        assert_eq!(suite.iter().filter(|p| p.swap_count == 1).count(), 3);
        assert_eq!(suite.iter().filter(|p| p.swap_count == 2).count(), 3);
        for point in &suite {
            assert_eq!(point.benchmark.optimal_swaps(), point.swap_count);
            assert_eq!(point.benchmark.seed(), point.seed);
        }
        // Seeds are distinct, so instances differ.
        let seeds: std::collections::BTreeSet<u64> = suite.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), 6);
    }

    #[test]
    fn suites_are_reproducible() {
        let arch = devices::grid(3, 3);
        let config = SuiteConfig {
            swap_counts: vec![1],
            circuits_per_count: 2,
            two_qubit_gates: 20,
            base_seed: 3,
        };
        let a = generate_suite(&arch, &config).expect("generates");
        let b = generate_suite(&arch, &config).expect("generates");
        assert_eq!(a, b);
    }

    #[test]
    fn instance_coordinates_invert_the_flat_order() {
        let config = SuiteConfig {
            swap_counts: vec![1, 2, 5],
            circuits_per_count: 4,
            two_qubit_gates: 20,
            base_seed: 3,
        };
        let mut flat = 0;
        for count_index in 0..config.swap_counts.len() {
            for instance in 0..config.circuits_per_count {
                assert_eq!(config.instance_coordinates(flat), (count_index, instance));
                assert_eq!(
                    config.instance_seed(count_index, instance),
                    config.instance_seed(config.instance_coordinates(flat).0, instance)
                );
                flat += 1;
            }
        }
        assert_eq!(flat, config.total_circuits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_coordinates_reject_out_of_range() {
        let config = SuiteConfig {
            swap_counts: vec![1],
            circuits_per_count: 2,
            two_qubit_gates: 20,
            base_seed: 3,
        };
        config.instance_coordinates(2);
    }

    #[test]
    fn builder_helpers() {
        let config = SuiteConfig::paper_optimality_study()
            .with_circuits_per_count(5)
            .with_base_seed(99);
        assert_eq!(config.circuits_per_count, 5);
        assert_eq!(config.base_seed, 99);
    }
}
