//! Streaming corpus analytics: the paper's summary tables (gap
//! distributions, per-tool win rates, scaling curves) computed as an
//! incremental per-shard fold over a stored suite's result cache.
//!
//! The analytics pass reads **no circuits at all**: everything it needs is
//! in the shard manifests (designed SWAP counts, content hashes) and the
//! content-addressed routing cache that a prior `qubikos eval` run banked.
//! Each shard folds into a [`ShardSummary`] whose every field is an integer
//! accumulator, and [`ShardSummary::merge`] is an **associative** combine —
//! pinned by a proptest — so summaries computed shard-parallel on the
//! engine reduce to the exact same report as a sequential pass, at any
//! thread count. Memory is bounded by one shard manifest plus the fold
//! state, which is what lets a million-instance corpus produce its tables
//! on a laptop.
//!
//! Instances whose routing is not cached (for some tool) simply count as
//! uncovered for that tool; win rates are computed only over instances
//! covered by *every* configured tool, so partial caches never skew the
//! comparison.

use crate::evaluation::{cell_gap, CachedRouting, DEFAULT_TOOL_SEED};
use crate::store::{CacheStatsSnapshot, StoreError, SuiteStore};
use qubikos::InstanceRecord;
use qubikos_arch::DeviceKind;
use qubikos_engine::{Engine, JobKey, ProgressSink, AUTO_THREADS};
use qubikos_layout::ToolKind;
use serde::Serialize;

/// Upper edges of the gap-distribution buckets (a gap `g` lands in the
/// first bucket with `g <= edge`, up to a small epsilon; gaps above the
/// last edge land in the overflow bucket). The gap metric is the
/// per-instance SWAP ratio — absolute excess for zero-optimum instances
/// (see `EvaluationCell::swap_ratio`).
pub const GAP_BUCKET_EDGES: [f64; 7] = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0];

/// Number of gap-distribution buckets ([`GAP_BUCKET_EDGES`] plus overflow).
pub const GAP_BUCKETS: usize = GAP_BUCKET_EDGES.len() + 1;

/// Bucket index of one instance's gap.
pub fn gap_bucket(gap: f64) -> usize {
    const EPS: f64 = 1e-9;
    GAP_BUCKET_EDGES
        .iter()
        .position(|&edge| gap <= edge + EPS)
        .unwrap_or(GAP_BUCKET_EDGES.len())
}

/// Configuration of an analytics pass over a stored suite.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsConfig {
    /// Tools to summarize (cache entries of other tools are ignored).
    pub tools: Vec<ToolKind>,
    /// Tool seed the cached routings must have been produced with; entries
    /// under a different seed count as uncovered.
    pub tool_seed: u64,
    /// Number of worker threads ([`AUTO_THREADS`] = all available cores).
    /// The report is bit-identical for any value.
    pub threads: usize,
}

impl Default for AnalyticsConfig {
    /// All four tools with the evaluation pipeline's standard tool seed, so
    /// the analytics read exactly the cache a default `qubikos eval` run
    /// writes.
    fn default() -> Self {
        AnalyticsConfig {
            tools: ToolKind::ALL.to_vec(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: AUTO_THREADS,
        }
    }
}

impl AnalyticsConfig {
    /// Returns the configuration with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One point of a tool's scaling curve: aggregate SWAPs at one designed
/// SWAP count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScalingPoint {
    /// Designed (optimal) SWAP count.
    pub designed: usize,
    /// Covered instances at this count.
    pub instances: u64,
    /// Total SWAPs the tool inserted on them (average = `sum_swaps /
    /// instances`, derived at render time).
    pub sum_swaps: u64,
}

/// One tool's accumulators within a [`ShardSummary`]. Integer-only, so
/// merging is exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ToolSummary {
    /// The tool.
    pub tool: ToolKind,
    /// Instances with a compatible cached routing for this tool.
    pub covered: u64,
    /// Covered instances routed at exactly the designed SWAP count.
    pub optimal: u64,
    /// Fully-covered instances where this tool inserted the fewest SWAPs
    /// (ties award every minimal tool).
    pub wins: u64,
    /// Total SWAPs inserted over covered instances.
    pub sum_swaps: u64,
    /// Total designed SWAPs over covered instances (denominator of the
    /// tool's aggregate ratio).
    pub sum_designed: u64,
    /// Gap distribution over covered instances ([`GAP_BUCKETS`] buckets).
    pub gap_histogram: Vec<u64>,
    /// Scaling curve, ascending in designed SWAP count.
    pub scaling: Vec<ScalingPoint>,
}

impl ToolSummary {
    fn empty(tool: ToolKind) -> Self {
        ToolSummary {
            tool,
            covered: 0,
            optimal: 0,
            wins: 0,
            sum_swaps: 0,
            sum_designed: 0,
            gap_histogram: vec![0; GAP_BUCKETS],
            scaling: Vec::new(),
        }
    }

    /// Adds one covered instance (`swaps` inserted on a `designed`-SWAP
    /// instance).
    fn add_covered(&mut self, designed: usize, swaps: usize) {
        self.covered += 1;
        if swaps == designed {
            self.optimal += 1;
        }
        self.sum_swaps += swaps as u64;
        self.sum_designed += designed as u64;
        self.gap_histogram[gap_bucket(cell_gap(swaps as f64, designed))] += 1;
        match self
            .scaling
            .binary_search_by_key(&designed, |point| point.designed)
        {
            Ok(i) => {
                self.scaling[i].instances += 1;
                self.scaling[i].sum_swaps += swaps as u64;
            }
            Err(i) => self.scaling.insert(
                i,
                ScalingPoint {
                    designed,
                    instances: 1,
                    sum_swaps: swaps as u64,
                },
            ),
        }
    }

    fn merge(&mut self, other: &ToolSummary) {
        assert_eq!(self.tool, other.tool, "tool summaries must align");
        self.covered += other.covered;
        self.optimal += other.optimal;
        self.wins += other.wins;
        self.sum_swaps += other.sum_swaps;
        self.sum_designed += other.sum_designed;
        for (mine, theirs) in self.gap_histogram.iter_mut().zip(&other.gap_histogram) {
            *mine += theirs;
        }
        for point in &other.scaling {
            match self
                .scaling
                .binary_search_by_key(&point.designed, |p| p.designed)
            {
                Ok(i) => {
                    self.scaling[i].instances += point.instances;
                    self.scaling[i].sum_swaps += point.sum_swaps;
                }
                Err(i) => self.scaling.insert(i, *point),
            }
        }
    }
}

/// The associative per-shard fold state: integer accumulators only, merged
/// across shards without ever revisiting one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardSummary {
    /// Instances seen.
    pub instances: u64,
    /// Instances covered by every configured tool (the win-rate
    /// denominator).
    pub fully_covered: u64,
    /// Per-tool accumulators, in configured tool order.
    pub tools: Vec<ToolSummary>,
}

impl ShardSummary {
    /// The identity element of [`merge`](Self::merge) for `tools`.
    pub fn empty(tools: &[ToolKind]) -> Self {
        ShardSummary {
            instances: 0,
            fully_covered: 0,
            tools: tools.iter().map(|&tool| ToolSummary::empty(tool)).collect(),
        }
    }

    /// Folds one instance into the summary. `swaps[t]` is tool `t`'s cached
    /// SWAP count, `None` when uncovered.
    pub fn add_instance(&mut self, designed: usize, swaps: &[Option<usize>]) {
        assert_eq!(swaps.len(), self.tools.len(), "one slot per tool");
        self.instances += 1;
        for (summary, slot) in self.tools.iter_mut().zip(swaps) {
            if let Some(swaps) = slot {
                summary.add_covered(designed, *swaps);
            }
        }
        if swaps.iter().all(Option::is_some) {
            self.fully_covered += 1;
            let best = swaps
                .iter()
                .map(|slot| slot.expect("fully covered"))
                .min()
                .expect("at least one tool");
            for (summary, slot) in self.tools.iter_mut().zip(swaps) {
                if slot.expect("fully covered") == best {
                    summary.wins += 1;
                }
            }
        }
    }

    /// Associatively combines two summaries (commutative too; the engine
    /// nevertheless merges in shard order so even floating-point *renders*
    /// of the report are reproducible).
    ///
    /// # Panics
    ///
    /// Panics if the summaries were built for different tool lists.
    pub fn merge(&mut self, other: &ShardSummary) {
        assert_eq!(self.tools.len(), other.tools.len(), "tool lists must align");
        self.instances += other.instances;
        self.fully_covered += other.fully_covered;
        for (mine, theirs) in self.tools.iter_mut().zip(&other.tools) {
            mine.merge(theirs);
        }
    }
}

/// The full analytics report: the merged summary plus the corpus identity
/// it was computed over.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalyticsReport {
    /// Device the corpus targets.
    pub device: DeviceKind,
    /// Tool seed the summarized cache entries were produced with.
    pub tool_seed: u64,
    /// Shards folded.
    pub shards: usize,
    /// Shards skipped because their manifest was persistently corrupt; the
    /// offending file was moved to the store's `quarantine/` directory and
    /// the summary covers the remaining shards.
    pub shards_quarantined: usize,
    /// The store's cache counters over this pass (hits, misses, and corrupt
    /// entries quarantined while reading the routing cache).
    pub cache: CacheStatsSnapshot,
    /// The merged accumulators.
    pub summary: ShardSummary,
}

/// Summarizes one shard's instance records against the store's routing
/// cache. Reads no circuits; one pass over (instance × tool) cache entries.
fn summarize_records(
    store: &SuiteStore,
    config: &AnalyticsConfig,
    records: &[InstanceRecord],
) -> ShardSummary {
    let mut summary = ShardSummary::empty(&config.tools);
    let mut slots = vec![None; config.tools.len()];
    for record in records {
        for (slot, &tool) in slots.iter_mut().zip(&config.tools) {
            let key = JobKey::new(tool.name(), record.content_hash.as_str());
            *slot = store
                .read_cached::<CachedRouting>(&key)
                .filter(|cached| {
                    cached.tool_seed == config.tool_seed
                        && cached.circuit_hash == record.content_hash
                })
                .map(|cached| cached.swaps);
        }
        summary.add_instance(record.swap_count, &slots);
    }
    summary
}

/// Runs the analytics pass over a stored suite: shard-parallel summaries on
/// the engine (one job per shard, reported to `sink`), merged in shard
/// order.
///
/// # Errors
///
/// Propagates [`StoreError`] from reading shard manifests, except that a
/// *persistently corrupt* manifest (reads are retried first) is quarantined
/// and its shard skipped — counted in
/// [`AnalyticsReport::shards_quarantined`] — so one bad shard degrades the
/// summary instead of failing the pass. A missing or corrupt cache *entry*
/// is not an error — the instance counts as uncovered for that tool (a
/// corrupt entry is additionally quarantined and counted in
/// [`AnalyticsReport::cache`]).
pub fn run_suite_analytics_with_sink(
    store: &SuiteStore,
    config: &AnalyticsConfig,
    sink: &dyn ProgressSink,
) -> Result<AnalyticsReport, StoreError> {
    let shards: Vec<usize> = (0..store.shard_count()).collect();
    let cache_before = store.cache_stats();
    let summaries = Engine::new(config.threads)
        .run(
            &shards,
            |_worker| (),
            |(), &shard| -> Result<ShardSummary, StoreError> {
                let records = store.shard_records(shard)?;
                Ok(summarize_records(store, config, &records))
            },
            sink,
        )
        .unwrap_or_else(|error| panic!("suite analytics aborted: {error}"));

    // The engine returns summaries in shard order regardless of thread
    // count; merging left to right therefore produces identical bytes for
    // any parallelism (and merge itself is associative, proptest-pinned).
    let mut merged = ShardSummary::empty(&config.tools);
    let mut shards_quarantined = 0;
    for (&shard, summary) in shards.iter().zip(&summaries) {
        match summary {
            Ok(summary) => merged.merge(summary),
            Err(error) if error.is_corruption() => {
                store.quarantine_shard_error(shard, error);
                shards_quarantined += 1;
            }
            Err(error) => return Err(error.clone()),
        }
    }
    Ok(AnalyticsReport {
        device: store.device(),
        tool_seed: config.tool_seed,
        shards: shards.len(),
        shards_quarantined,
        cache: store.cache_stats().delta_since(&cache_before),
        summary: merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_summary(seed_instances: Vec<(u8, [Option<u8>; 2])>) -> ShardSummary {
        let tools = [ToolKind::LightSabre, ToolKind::Tket];
        let mut summary = ShardSummary::empty(&tools);
        for (designed, slots) in seed_instances {
            let slots: Vec<Option<usize>> = slots.iter().map(|s| s.map(|v| v as usize)).collect();
            summary.add_instance(designed as usize, &slots);
        }
        summary
    }

    #[test]
    fn gap_buckets_cover_the_line() {
        assert_eq!(gap_bucket(1.0), 0);
        assert_eq!(gap_bucket(0.0), 0);
        assert_eq!(gap_bucket(1.2), 1);
        assert_eq!(gap_bucket(1.5), 2);
        assert_eq!(gap_bucket(2.5), 4);
        assert_eq!(gap_bucket(10.0), 6);
        assert_eq!(gap_bucket(1e6), GAP_BUCKETS - 1);
    }

    #[test]
    fn wins_require_full_coverage_and_split_ties() {
        let tools = [ToolKind::LightSabre, ToolKind::Tket];
        let mut summary = ShardSummary::empty(&tools);
        // Covered by one tool only: counts for coverage, not for wins.
        summary.add_instance(2, &[Some(3), None]);
        // Fully covered, distinct: one winner.
        summary.add_instance(2, &[Some(2), Some(4)]);
        // Fully covered, tied: both win.
        summary.add_instance(1, &[Some(1), Some(1)]);
        assert_eq!(summary.instances, 3);
        assert_eq!(summary.fully_covered, 2);
        assert_eq!(summary.tools[0].covered, 3);
        assert_eq!(summary.tools[1].covered, 2);
        assert_eq!(summary.tools[0].wins, 2);
        assert_eq!(summary.tools[1].wins, 1);
        assert_eq!(summary.tools[0].optimal, 2, "2@2 and 1@1 are optimal");
        // Scaling is keyed and sorted by designed count.
        assert_eq!(summary.tools[0].scaling.len(), 2);
        assert_eq!(summary.tools[0].scaling[0].designed, 1);
        assert_eq!(summary.tools[0].scaling[1].designed, 2);
        assert_eq!(summary.tools[0].scaling[1].instances, 2);
        assert_eq!(summary.tools[0].scaling[1].sum_swaps, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole's correctness pin: merge is associative, and any
        /// split of an instance stream into shards folds to the same
        /// summary as the sequential pass.
        #[test]
        fn merge_is_associative_and_split_invariant(
            instances in proptest::collection::vec(
                (1u8..6, (0u64..4, 0u64..4)), 0..40),
            split_a in 0usize..41,
            split_b in 0usize..41,
        ) {
            // Decode: slot value 0 = uncovered, v>0 = v swaps.
            let decode = |(designed, (a, b)): (u8, (u64, u64))| {
                (designed, [
                    (a > 0).then_some(a as u8 + designed - 1),
                    (b > 0).then_some(b as u8),
                ])
            };
            let all: Vec<(u8, [Option<u8>; 2])> =
                instances.iter().copied().map(decode).collect();
            let sequential = arbitrary_summary(all.clone());

            // Split into three "shards" at arbitrary points.
            let cut_a = split_a.min(all.len());
            let cut_b = split_b.min(all.len()).max(cut_a);
            let a = arbitrary_summary(all[..cut_a].to_vec());
            let b = arbitrary_summary(all[cut_a..cut_b].to_vec());
            let c = arbitrary_summary(all[cut_b..].to_vec());

            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut right_tail = b.clone();
            right_tail.merge(&c);
            let mut right = a.clone();
            right.merge(&right_tail);

            prop_assert_eq!(&left, &right);
            prop_assert_eq!(&left, &sequential);
            // Identity element.
            let mut with_identity = sequential.clone();
            with_identity.merge(&ShardSummary::empty(&[
                ToolKind::LightSabre,
                ToolKind::Tket,
            ]));
            prop_assert_eq!(&with_identity, &sequential);
        }
    }
}
