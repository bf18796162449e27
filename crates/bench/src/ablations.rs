//! Design ablations: the legacy SABRE parameter sweeps, plus the router
//! construction kit's **composition matrix**.
//!
//! The legacy half ([`run_ablations`]) keeps three hand-picked LightSABRE
//! sweeps (trial count, extended-set size, padding), each a one-axis slice
//! of [`RouterSpec::lightsabre`](qubikos_layout::RouterSpec::lightsabre). The
//! matrix half enumerates the composition cross-product of a
//! [`CompositionGrid`] — one [`RouterSpec`] per
//! surviving grid point after
//! [`canonicalization`](qubikos_layout::RouterSpec::canonicalized) prunes
//! redundant combinations — and runs every composition against a stored
//! known-optimal suite ([`run_composition_matrix`]), ranking compositions
//! by mean optimality gap and win rate.
//!
//! Both halves run on the crate's one cached shard map with the evaluation's
//! routing jobs; only the specs and the fold differ. The sweeps map their
//! generated suites with no cache. The matrix maps the stored suite shard by
//! shard and banks results in the store's content-addressed cache under
//! each composition's [`id`](qubikos_layout::RouterSpec::id) as the
//! namespace, so a rerun of the same grid on the same corpus is answered
//! entirely from cache.

use crate::evaluation::{cell_gap, RoutingJobs, DEFAULT_TOOL_SEED};
use crate::shard_map::{map_shards, Corpus};
use crate::store::{StoreError, SuiteStore};
use qubikos::{generate_suite, ExperimentPoint, GenerateError, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_engine::{ProgressSink, AUTO_THREADS};
use qubikos_layout::{
    DecaySpec, LookaheadSpec, PlacementSpec, RouterSpec, SearchSpec, TieBreakerSpec, WeightsSpec,
};
use serde::Serialize;

/// Configuration of the ablation sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationConfig {
    /// Device the sweeps run on.
    pub device: DeviceKind,
    /// SABRE trial counts to sweep (ablation 1).
    pub trial_counts: Vec<usize>,
    /// Extended-set sizes to sweep (ablation 2).
    pub extended_set_sizes: Vec<usize>,
    /// Two-qubit gate budgets to sweep at a fixed SWAP count (ablation 3).
    pub padding_gate_budgets: Vec<usize>,
    /// Designed SWAP count used by the padding sweep.
    pub padding_swap_count: usize,
    /// Suite used by the trial-count and extended-set sweeps.
    pub suite: SuiteConfig,
    /// Circuits per padding budget.
    pub padding_circuits_per_budget: usize,
    /// Base seed of the padding sweep's suites (independent of `suite` so the
    /// padding instances differ from the trial/extended-set instances).
    pub padding_base_seed: u64,
    /// Router seed shared by every sweep point.
    pub router_seed: u64,
    /// Number of worker threads; [`AUTO_THREADS`] (0) uses every available
    /// core. Results are identical for any value.
    pub threads: usize,
}

impl AblationConfig {
    /// The sweep configuration the `ablations` binary has always run:
    /// Aspen-4, trials {1, 4, 16}, extended sets {0, 5, 20, 40}, padding
    /// budgets {100, 200, 400} at 6 designed SWAPs.
    pub fn paper() -> Self {
        AblationConfig {
            device: DeviceKind::Aspen4,
            trial_counts: vec![1, 4, 16],
            extended_set_sizes: vec![0, 5, 20, 40],
            padding_gate_budgets: vec![100, 200, 400],
            padding_swap_count: 6,
            suite: SuiteConfig {
                swap_counts: vec![4, 8],
                circuits_per_count: 3,
                two_qubit_gates: 150,
                base_seed: 21,
            },
            padding_circuits_per_budget: 3,
            padding_base_seed: 33,
            router_seed: 5,
            threads: AUTO_THREADS,
        }
    }

    /// A grid-sized configuration for tests: same shape, seconds of runtime.
    pub fn quick() -> Self {
        AblationConfig {
            device: DeviceKind::Grid3x3,
            trial_counts: vec![1, 2],
            extended_set_sizes: vec![0, 5],
            padding_gate_budgets: vec![20, 40],
            padding_swap_count: 2,
            suite: SuiteConfig {
                swap_counts: vec![1, 2],
                circuits_per_count: 2,
                two_qubit_gates: 20,
                base_seed: 21,
            },
            padding_circuits_per_budget: 2,
            padding_base_seed: 33,
            router_seed: 5,
            threads: AUTO_THREADS,
        }
    }

    /// Returns the configuration with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One sweep point: a parameter value and the mean SWAP ratio it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationPoint {
    /// The swept parameter's value (trial count, extended-set size, or gate
    /// budget, depending on the sweep).
    pub parameter: usize,
    /// Mean SWAP ratio over the sweep's circuits.
    pub mean_swap_ratio: f64,
}

/// All three ablation sweeps of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// Device the sweeps ran on.
    pub device: DeviceKind,
    /// Mean ratio per SABRE trial count.
    pub trial_counts: Vec<AblationPoint>,
    /// Mean ratio per extended-set size.
    pub extended_set_sizes: Vec<AblationPoint>,
    /// Mean ratio per two-qubit gate budget (fixed designed SWAP count).
    pub padding_gate_budgets: Vec<AblationPoint>,
    /// The designed SWAP count the padding sweep held fixed.
    pub padding_swap_count: usize,
}

/// Runs all three ablation sweeps, streaming per-job progress to `sink`.
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration instead of
/// panicking.
pub fn run_ablations(
    config: &AblationConfig,
    sink: &dyn ProgressSink,
) -> Result<AblationReport, GenerateError> {
    let arch = config.device.build();
    let suite = generate_suite(&arch, &config.suite)?;
    // One sweep: the mean SWAP ratio of each (parameter, spec) point over
    // `suite`, every router named `lightsabre`.
    let sweep = |suite: &[ExperimentPoint], points: Vec<(usize, RouterSpec)>| {
        let jobs = RoutingJobs {
            arch: &arch,
            routers: points
                .iter()
                .map(|&(_, spec)| ("lightsabre".to_string(), spec))
                .collect(),
            seed: config.router_seed,
            threads: config.threads,
            standalone: false,
        };
        points
            .iter()
            .zip(jobs.mean_ratios(suite, sink))
            .map(|(&(parameter, _), (mean_swap_ratio, _))| AblationPoint {
                parameter,
                mean_swap_ratio,
            })
            .collect::<Vec<_>>()
    };

    // Ablation 1: SABRE trial count.
    let trial_counts = sweep(
        &suite,
        config
            .trial_counts
            .iter()
            .map(|&trials| (trials, lightsabre_with_trials(trials)))
            .collect(),
    );

    // Ablation 2: extended-set size (at a fixed modest trial count).
    let extended_set_sizes = sweep(
        &suite,
        config
            .extended_set_sizes
            .iter()
            .map(|&size| {
                let lookahead = LookaheadSpec {
                    window: size,
                    ..LookaheadSpec::sabre_default()
                };
                (
                    size,
                    RouterSpec {
                        lookahead,
                        ..lightsabre_with_trials(4)
                    },
                )
            })
            .collect(),
    );

    // Ablation 3: padding (total gate budget) at a fixed optimal SWAP count.
    let mut padding_gate_budgets = Vec::new();
    for &gates in &config.padding_gate_budgets {
        let padded_suite = generate_suite(
            &arch,
            &SuiteConfig {
                swap_counts: vec![config.padding_swap_count],
                circuits_per_count: config.padding_circuits_per_budget,
                two_qubit_gates: gates,
                base_seed: config.padding_base_seed,
            },
        )?;
        padding_gate_budgets.extend(sweep(
            &padded_suite,
            vec![(gates, lightsabre_with_trials(4))],
        ));
    }

    Ok(AblationReport {
        device: config.device,
        trial_counts,
        extended_set_sizes,
        padding_gate_budgets,
        padding_swap_count: config.padding_swap_count,
    })
}

/// [`RouterSpec::lightsabre`] with `trials` random-restart trials.
fn lightsabre_with_trials(trials: usize) -> RouterSpec {
    RouterSpec {
        search: SearchSpec::Greedy {
            trials,
            mapping_passes: 3,
            stall_threshold: 64,
        },
        ..RouterSpec::lightsabre()
    }
}

/// One choice-list per policy axis of the router construction kit. The
/// matrix runs the full cross-product, canonicalized and deduplicated: a
/// grid point whose axes cannot change routing behaviour (an A* search
/// paired with a decay schedule, a zero-increment decay, …) collapses onto
/// its canonical spec and is enumerated once.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionGrid {
    /// Search engines to cross.
    pub searches: Vec<SearchSpec>,
    /// Lookahead policies to cross.
    pub lookaheads: Vec<LookaheadSpec>,
    /// Decay schedules to cross.
    pub decays: Vec<DecaySpec>,
    /// Tie-breakers to cross.
    pub tie_breakers: Vec<TieBreakerSpec>,
    /// Placement strategies to cross.
    pub placements: Vec<PlacementSpec>,
    /// Coupler-weight models to cross.
    pub weights: Vec<WeightsSpec>,
}

impl CompositionGrid {
    /// A grid that runs in seconds on a quick suite but still exercises
    /// every axis: two greedy search shapes plus a small A*, front-only vs
    /// published lookahead, decay on/off, random vs first-candidate ties,
    /// greedy-BFS vs identity placement, uniform vs fidelity-derived
    /// weights. 96 raw points, 66 after pruning.
    pub fn quick() -> Self {
        CompositionGrid {
            searches: vec![
                SearchSpec::Greedy {
                    trials: 2,
                    mapping_passes: 1,
                    stall_threshold: 64,
                },
                SearchSpec::Greedy {
                    trials: 2,
                    mapping_passes: 2,
                    stall_threshold: 64,
                },
                SearchSpec::AStar {
                    max_expansions: 256,
                },
            ],
            lookaheads: vec![LookaheadSpec::front_only(), LookaheadSpec::sabre_default()],
            decays: vec![DecaySpec::None, DecaySpec::sabre_default()],
            tie_breakers: vec![TieBreakerSpec::SeededRandom, TieBreakerSpec::QubitIndex],
            placements: vec![PlacementSpec::GreedyBfs, PlacementSpec::Identity],
            weights: vec![WeightsSpec::Uniform, WeightsSpec::Fidelity { seed: 1 }],
        }
    }

    /// The full matrix for overnight runs: every tie-breaker and placement,
    /// four lookahead windows, the paper tools' search shapes.
    pub fn paper() -> Self {
        CompositionGrid {
            searches: vec![
                SearchSpec::Greedy {
                    trials: 1,
                    mapping_passes: 1,
                    stall_threshold: 64,
                },
                SearchSpec::Greedy {
                    trials: 4,
                    mapping_passes: 1,
                    stall_threshold: 64,
                },
                SearchSpec::Greedy {
                    trials: 16,
                    mapping_passes: 3,
                    stall_threshold: 64,
                },
                SearchSpec::AStar {
                    max_expansions: 4000,
                },
            ],
            lookaheads: vec![
                LookaheadSpec::front_only(),
                LookaheadSpec {
                    window: 5,
                    extended_set_weight: 0.5,
                    depth_decay: None,
                },
                LookaheadSpec::sabre_default(),
                LookaheadSpec {
                    window: 40,
                    extended_set_weight: 0.5,
                    depth_decay: None,
                },
            ],
            decays: vec![DecaySpec::None, DecaySpec::sabre_default()],
            tie_breakers: vec![
                TieBreakerSpec::SeededRandom,
                TieBreakerSpec::QubitIndex,
                TieBreakerSpec::DistanceRefined,
            ],
            placements: vec![
                PlacementSpec::GreedyBfs,
                PlacementSpec::Multilevel,
                PlacementSpec::Identity,
            ],
            weights: vec![WeightsSpec::Uniform, WeightsSpec::Fidelity { seed: 1 }],
        }
    }

    /// The raw cross-product size before canonicalization and dedup.
    pub fn raw_combinations(&self) -> usize {
        self.searches.len()
            * self.lookaheads.len()
            * self.decays.len()
            * self.tie_breakers.len()
            * self.placements.len()
            * self.weights.len()
    }

    /// Enumerates the cross-product in axis order (searches outermost,
    /// weights innermost), canonicalizing every point and keeping only the
    /// first occurrence of each distinct composition id. The order is fully
    /// determined by the grid, so composition indices are stable across
    /// runs and thread counts.
    pub fn enumerate(&self) -> Vec<RouterSpec> {
        let mut seen = std::collections::BTreeSet::new();
        let mut specs = Vec::new();
        for &search in &self.searches {
            for &lookahead in &self.lookaheads {
                for &decay in &self.decays {
                    for &tie_breaker in &self.tie_breakers {
                        for &placement in &self.placements {
                            for &weights in &self.weights {
                                let spec = RouterSpec {
                                    search,
                                    lookahead,
                                    decay,
                                    tie_breaker,
                                    placement,
                                    weights,
                                }
                                .canonicalized();
                                if seen.insert(spec.id()) {
                                    specs.push(spec);
                                }
                            }
                        }
                    }
                }
            }
        }
        specs
    }
}

/// Configuration of one composition-matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixConfig {
    /// The grid to enumerate.
    pub grid: CompositionGrid,
    /// Routing seed handed to every composition. Cached results record the
    /// seed they were produced with; a different seed reads as a miss.
    pub tool_seed: u64,
    /// Number of worker threads ([`AUTO_THREADS`] = all available cores).
    /// The report is bit-identical for any value.
    pub threads: usize,
    /// Truncates the enumerated (pruned) composition list to the first `N`
    /// entries — the smoke-test hook.
    pub max_compositions: Option<usize>,
}

impl MatrixConfig {
    /// The quick grid with the evaluation pipeline's standard tool seed.
    pub fn quick() -> Self {
        MatrixConfig {
            grid: CompositionGrid::quick(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: AUTO_THREADS,
            max_compositions: None,
        }
    }

    /// Returns the configuration with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the configuration truncated to the first `max` compositions.
    pub fn with_max_compositions(mut self, max: usize) -> Self {
        self.max_compositions = Some(max);
        self
    }

    /// The compositions this run covers: the grid's pruned enumeration,
    /// truncated to `max_compositions` when set.
    pub fn compositions(&self) -> Vec<RouterSpec> {
        let mut specs = self.grid.enumerate();
        if let Some(max) = self.max_compositions {
            specs.truncate(max);
        }
        specs
    }
}

/// One ranked row of the matrix report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompositionSummary {
    /// The composition's stable identity (also its cache namespace).
    pub id: String,
    /// The spec behind the id.
    pub spec: RouterSpec,
    /// Instances the composition was scored on.
    pub instances: usize,
    /// Mean inserted SWAPs per instance.
    pub average_swaps: f64,
    /// Mean per-instance optimality gap (SWAP ratio; absolute excess on
    /// zero-optimum instances — see `EvaluationCell::swap_ratio`).
    pub mean_gap: f64,
    /// Instances on which the composition matched the best SWAP count any
    /// enumerated composition achieved (ties all win).
    pub wins: usize,
    /// `wins / instances`.
    pub win_rate: f64,
    /// Instances routed at exactly the designed (known-optimal) SWAP count.
    pub optimal: usize,
}

/// The ranked composition matrix: one row per composition, best mean gap
/// first (ties broken by id, so the ranking is total and reproducible).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MatrixReport {
    /// Device the stored suite targets.
    pub device: DeviceKind,
    /// Instances every composition was scored on.
    pub instances: usize,
    /// Ranked rows.
    pub compositions: Vec<CompositionSummary>,
}

/// Result of a matrix run: the ranked report plus how much work the
/// per-composition cache saved.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOutcome {
    /// The ranked report.
    pub report: MatrixReport,
    /// (composition, circuit) pairs actually routed in this run.
    pub routed: usize,
    /// (composition, circuit) pairs answered from the result cache.
    pub cache_hits: usize,
    /// Shards processed this run.
    pub shards: usize,
    /// Shards quarantined as persistently corrupt and skipped.
    pub shards_quarantined: usize,
    /// Whether the whole corpus was covered.
    pub complete: bool,
}

/// Runs the composition matrix against a stored known-optimal suite,
/// reading and writing the store's content-addressed result cache under
/// each composition's id as the namespace.
///
/// Streams shard by shard exactly like the suite evaluation: at most one
/// shard of circuits is materialized, and only when at least one of its
/// (composition, circuit) pairs misses the cache; a rerun of the same grid
/// is 100% cache hits and loads no circuits at all.
///
/// # Errors
///
/// Propagates [`StoreError`] from loading a shard or writing cache entries.
/// A corrupt cache *entry* reads as a miss and is recomputed; a corrupt
/// *shard* is quarantined and skipped.
///
/// # Panics
///
/// Panics if a composition produces an invalid routing (a kit bug, never a
/// benchmark property), or if the grid enumerates no compositions.
pub fn run_composition_matrix(
    store: &SuiteStore,
    config: &MatrixConfig,
    sink: &dyn ProgressSink,
) -> Result<MatrixOutcome, StoreError> {
    let device = store.device();
    let arch = device.build();
    let jobs = RoutingJobs {
        arch: &arch,
        routers: config
            .compositions()
            .into_iter()
            .map(|spec| (spec.id(), spec))
            .collect(),
        seed: config.tool_seed,
        threads: config.threads,
        standalone: false,
    };
    assert!(
        !jobs.routers.is_empty(),
        "composition grid enumerates no compositions"
    );
    let mut fold = MatrixFold::new(jobs.routers.len());
    let outcome = map_shards(
        Corpus::Stored(store, None),
        &jobs,
        sink,
        |designed, swaps| fold.add(designed, swaps),
    )?;
    Ok(MatrixOutcome {
        report: fold.finish(device, &jobs.routers),
        routed: outcome.computed,
        cache_hits: outcome.cache_hits,
        shards: outcome.shards,
        shards_quarantined: outcome.shards_quarantined,
        complete: outcome.complete,
    })
}

/// Per-composition accumulator behind the matrix report. Instances are
/// folded in corpus order (the engine returns results in job order
/// regardless of scheduling), so the finished report is bit-identical for
/// any thread count.
struct MatrixFold {
    stats: Vec<CompositionStats>,
}

#[derive(Clone, Default)]
struct CompositionStats {
    instances: usize,
    sum_swaps: u64,
    gap_sum: f64,
    wins: usize,
    optimal: usize,
}

impl MatrixFold {
    fn new(compositions: usize) -> Self {
        MatrixFold {
            stats: vec![CompositionStats::default(); compositions],
        }
    }

    /// Folds one instance: `swaps` holds every composition's SWAP count.
    /// Wins are judged within the enumerated matrix: every composition
    /// matching the instance's best count wins that instance.
    fn add(&mut self, optimal_swaps: usize, swaps: &[usize]) {
        let best = *swaps.iter().min().expect("at least one composition");
        for (stats, &inserted) in self.stats.iter_mut().zip(swaps) {
            stats.instances += 1;
            stats.sum_swaps += inserted as u64;
            stats.gap_sum += cell_gap(inserted as f64, optimal_swaps);
            if inserted == best {
                stats.wins += 1;
            }
            if inserted <= optimal_swaps {
                stats.optimal += 1;
            }
        }
    }

    /// Renders the ranked report: best mean gap first, ties broken by id so
    /// the order is total and identical across runs.
    fn finish(self, device: DeviceKind, compositions: &[(String, RouterSpec)]) -> MatrixReport {
        let instances = self.stats.first().map_or(0, |s| s.instances);
        let mut rows: Vec<CompositionSummary> = self
            .stats
            .into_iter()
            .zip(compositions)
            .map(|(stats, (id, spec))| CompositionSummary {
                id: id.clone(),
                spec: *spec,
                instances: stats.instances,
                average_swaps: stats.sum_swaps as f64 / stats.instances.max(1) as f64,
                mean_gap: stats.gap_sum / stats.instances.max(1) as f64,
                wins: stats.wins,
                win_rate: stats.wins as f64 / stats.instances.max(1) as f64,
                optimal: stats.optimal,
            })
            .collect();
        rows.sort_by(|a, b| {
            a.mean_gap
                .partial_cmp(&b.mean_gap)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        MatrixReport {
            device,
            instances,
            compositions: rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_engine::NullSink;

    #[test]
    fn quick_ablations_cover_every_sweep_point() {
        let config = AblationConfig::quick().with_threads(2);
        let report = run_ablations(&config, &NullSink).expect("valid config");
        assert_eq!(report.trial_counts.len(), 2);
        assert_eq!(report.extended_set_sizes.len(), 2);
        assert_eq!(report.padding_gate_budgets.len(), 2);
        for point in report
            .trial_counts
            .iter()
            .chain(&report.extended_set_sizes)
            .chain(&report.padding_gate_budgets)
        {
            assert!(
                point.mean_swap_ratio >= 1.0 - 1e-9,
                "ratio below optimum at {point:?}"
            );
        }
    }

    /// The quick sweeps' exact mean ratios (`f64::to_bits`), in trial,
    /// extended-set, padding order.
    #[test]
    fn quick_ablations_are_pinned() {
        let report = run_ablations(&AblationConfig::quick(), &NullSink).expect("valid config");
        let bits: Vec<u64> = report
            .trial_counts
            .iter()
            .chain(&report.extended_set_sizes)
            .chain(&report.padding_gate_budgets)
            .map(|point| point.mean_swap_ratio.to_bits())
            .collect();
        assert_eq!(
            bits,
            [
                0x400b_0000_0000_0000,
                0x4007_0000_0000_0000,
                0x4014_8000_0000_0000,
                0x3ff8_0000_0000_0000,
                0x3ff8_0000_0000_0000,
                0x4006_0000_0000_0000,
            ]
        );
    }

    #[test]
    fn reports_identical_across_thread_counts() {
        let reference =
            run_ablations(&AblationConfig::quick().with_threads(1), &NullSink).expect("valid");
        let parallel =
            run_ablations(&AblationConfig::quick().with_threads(8), &NullSink).expect("valid");
        assert_eq!(reference, parallel);
    }

    /// FNV-1a over the grid's composition ids joined by newlines: the
    /// cache namespaces the matrix writes under.
    fn ids_fingerprint(specs: &[RouterSpec]) -> u64 {
        let ids: Vec<String> = specs.iter().map(RouterSpec::id).collect();
        ids.join("\n")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn quick_grid_enumerates_a_pruned_cross_product() {
        let grid = CompositionGrid::quick();
        let specs = grid.enumerate();
        assert_eq!(specs.len(), 66);
        assert_eq!(
            ids_fingerprint(&specs),
            0x010d_982a_af9c_af34,
            "quick grid ids changed"
        );
        let paper = CompositionGrid::paper().enumerate();
        assert_eq!(paper.len(), 435);
        assert_eq!(
            ids_fingerprint(&paper),
            0x1f08_18a2_4f93_4a11,
            "paper grid ids changed"
        );
        assert!(
            specs.len() >= 24,
            "quick grid must enumerate at least 24 distinct compositions, got {}",
            specs.len()
        );
        assert!(
            specs.len() < grid.raw_combinations(),
            "canonicalization must prune redundant grid points ({} raw)",
            grid.raw_combinations()
        );
        let ids: std::collections::BTreeSet<String> = specs.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), specs.len(), "composition ids must be unique");
        // Every surviving A* point is canonical: the axes A* ignores are
        // pinned to their neutral values.
        for spec in &specs {
            if let SearchSpec::AStar { .. } = spec.search {
                assert_eq!(spec.lookahead, LookaheadSpec::front_only());
                assert_eq!(spec.decay, DecaySpec::None);
                assert_eq!(spec.weights, WeightsSpec::Uniform);
            }
        }
    }

    #[test]
    fn paper_grid_is_a_superset_in_every_axis() {
        let paper = CompositionGrid::paper();
        assert!(paper.enumerate().len() > CompositionGrid::quick().enumerate().len());
        assert!(paper.tie_breakers.len() == 3 && paper.placements.len() == 3);
    }

    #[test]
    fn max_compositions_truncates_the_stable_enumeration() {
        let config = MatrixConfig::quick().with_max_compositions(8);
        let truncated = config.compositions();
        assert_eq!(truncated.len(), 8);
        assert_eq!(&MatrixConfig::quick().compositions()[..8], &truncated[..]);
    }

    /// A tiny suite exported into its own temp dir, which is removed when
    /// the store is dropped. Derefs to the [`SuiteStore`].
    struct TempStore {
        store: SuiteStore,
        dir: std::path::PathBuf,
    }

    impl std::ops::Deref for TempStore {
        type Target = SuiteStore;

        fn deref(&self) -> &SuiteStore {
            &self.store
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn fresh_store(name: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("qubikos-matrix-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = SuiteConfig {
            swap_counts: vec![1, 2],
            circuits_per_count: 2,
            two_qubit_gates: 20,
            base_seed: 5,
        };
        let store =
            SuiteStore::export(&dir, DeviceKind::Grid3x3, &suite, 2, &NullSink).expect("export");
        TempStore { store, dir }
    }

    #[test]
    fn matrix_ranks_compositions_and_reruns_from_cache() {
        let store = fresh_store("rank-and-cache");
        let config = MatrixConfig::quick()
            .with_threads(2)
            .with_max_compositions(12);
        let cold = run_composition_matrix(&store, &config, &NullSink).expect("cold run");
        let pairs = 12 * store.total_instances();
        assert_eq!(cold.routed, pairs);
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.complete);
        assert_eq!(cold.report.compositions.len(), 12);
        assert_eq!(cold.report.instances, store.total_instances());
        // Ranked: mean gap is non-decreasing, ties broken by id.
        for pair in cold.report.compositions.windows(2) {
            assert!(
                pair[0].mean_gap < pair[1].mean_gap
                    || (pair[0].mean_gap == pair[1].mean_gap && pair[0].id < pair[1].id),
                "rows out of rank order: {} then {}",
                pair[0].id,
                pair[1].id
            );
        }
        // Every instance has at least one winner, and win/optimal counts
        // stay within the instance count.
        let wins: usize = cold.report.compositions.iter().map(|c| c.wins).sum();
        assert!(wins >= store.total_instances());
        for row in &cold.report.compositions {
            assert_eq!(row.instances, store.total_instances());
            assert!(row.wins <= row.instances && row.optimal <= row.instances);
            assert!(row.mean_gap >= 1.0 - 1e-9);
        }

        // The acceptance property: a rerun of the same grid on the same
        // corpus is answered 100% from the per-composition cache.
        let warm = run_composition_matrix(&store, &config, &NullSink).expect("warm run");
        assert_eq!(warm.routed, 0, "rerun must be all cache hits");
        assert_eq!(warm.cache_hits, pairs);
        assert_eq!(warm.report, cold.report);
    }

    /// The quick matrix's ranked rows at 12 compositions: id, mean gap as
    /// `f64::to_bits`, wins and optimal counts.
    #[test]
    fn quick_matrix_is_pinned() {
        let store = fresh_store("pinned");
        let config = MatrixConfig::quick()
            .with_threads(2)
            .with_max_compositions(12);
        let outcome = run_composition_matrix(&store, &config, &NullSink).expect("matrix run");
        let rows: Vec<(&str, u64, usize, usize)> = outcome
            .report
            .compositions
            .iter()
            .map(|row| {
                (
                    row.id.as_str(),
                    row.mean_gap.to_bits(),
                    row.wins,
                    row.optimal,
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                (
                    "g2x1s64.front.dec0.001r5.randtie.bfs.uw",
                    0x4020_0000_0000_0000,
                    1,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.randtie.bfs.uw",
                    0x4020_0000_0000_0000,
                    2,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.randtie.ident.uw",
                    0x4020_8000_0000_0000,
                    2,
                    0
                ),
                (
                    "g2x1s64.front.dec0.001r5.randtie.ident.uw",
                    0x4021_0000_0000_0000,
                    1,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.idxtie.bfs.uw",
                    0x4022_4000_0000_0000,
                    2,
                    0
                ),
                (
                    "g2x1s64.front.dec0.001r5.randtie.ident.fw1",
                    0x4023_4000_0000_0000,
                    1,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.idxtie.ident.fw1",
                    0x4023_4000_0000_0000,
                    1,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.randtie.ident.fw1",
                    0x4023_4000_0000_0000,
                    1,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.idxtie.ident.uw",
                    0x4026_0000_0000_0000,
                    0,
                    0
                ),
                (
                    "g2x1s64.front.dec0.001r5.randtie.bfs.fw1",
                    0x4027_4000_0000_0000,
                    0,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.idxtie.bfs.fw1",
                    0x4027_4000_0000_0000,
                    0,
                    0
                ),
                (
                    "g2x1s64.front.nodecay.randtie.bfs.fw1",
                    0x4027_4000_0000_0000,
                    0,
                    0
                ),
            ]
        );
    }

    #[test]
    fn matrix_reports_identical_across_thread_counts() {
        // Two independent stores (separate caches), one cold run each: the
        // report depends only on the grid and the corpus, not on threads.
        let single = run_composition_matrix(
            &fresh_store("threads-1"),
            &MatrixConfig::quick()
                .with_threads(1)
                .with_max_compositions(10),
            &NullSink,
        )
        .expect("single-threaded run");
        let parallel = run_composition_matrix(
            &fresh_store("threads-8"),
            &MatrixConfig::quick()
                .with_threads(8)
                .with_max_compositions(10),
            &NullSink,
        )
        .expect("parallel run");
        assert_eq!(single.report, parallel.report);
    }

    #[test]
    fn matrix_cache_entries_are_keyed_by_composition_identity() {
        // A different tool seed must re-route everything: entries record
        // the seed they were produced with and read as misses otherwise.
        let store = fresh_store("seed-miss");
        let config = MatrixConfig::quick()
            .with_threads(2)
            .with_max_compositions(4);
        let cold = run_composition_matrix(&store, &config, &NullSink).expect("cold");
        assert_eq!(cold.cache_hits, 0);
        let mut reseeded = config.clone();
        reseeded.tool_seed = config.tool_seed + 1;
        let miss = run_composition_matrix(&store, &reseeded, &NullSink).expect("reseeded");
        assert_eq!(miss.cache_hits, 0, "a different seed must miss the cache");
        assert_eq!(miss.routed, 4 * store.total_instances());
    }
}
