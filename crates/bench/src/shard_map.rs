//! The one cached shard map every pipeline runs on.
//!
//! The tool evaluation, the optimality study, the composition matrix and the
//! ablation sweeps all run a job per (variant, point) pair — a tool or
//! composition per circuit, or one check per circuit — and fold the
//! results. [`map_shards`] owns that loop once: walk the shards; read the
//! cache; load a shard's circuits only when a job missed; run the misses in
//! one engine run per shard, writing each cache entry from inside its job
//! (so an interrupted run keeps every finished entry); fold the shard; and
//! quarantine and count a shard whose files are persistently corrupt.
//!
//! A pipeline supplies only its parts through [`ShardJobs`]. In-memory runs
//! pass their generated points as [`Corpus::Generated`]: one shard, no
//! cache, no store, the same engine run and fold.

use crate::store::{StoreError, SuiteStore};
use qubikos::ExperimentPoint;
use qubikos_engine::{Engine, JobKey, ProgressSink};
use serde::{Deserialize, Serialize};

/// One pipeline's parts of a [`map_shards`] run. Jobs are
/// `(variant, point)` pairs, visited point-major.
pub(crate) trait ShardJobs: Sync {
    /// Per-worker state, built once per worker and reused across its jobs.
    type Worker;
    /// One job's result.
    type Value: Send;
    /// The cache entry a value is stored as.
    type Entry: Serialize + Deserialize;

    /// Variants run on every point: tools, compositions, or 1 for a
    /// per-circuit check.
    fn variants(&self) -> usize;
    /// The engine's thread count ([`qubikos_engine::AUTO_THREADS`] for every
    /// core).
    fn threads(&self) -> usize;
    /// The cache key of `variant` on the circuit with content hash `hash`.
    fn key(&self, variant: usize, hash: &str) -> JobKey;
    /// The value a cached entry answers for, or `None` when the entry was
    /// produced for a different question (seed, circuit, solver budget).
    fn cached(&self, entry: Self::Entry, hash: &str) -> Option<Self::Value>;
    /// The entry to cache for a fresh value.
    fn entry(&self, variant: usize, hash: &str, value: &Self::Value) -> Self::Entry;
    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;
    /// Runs `variant` on `point`.
    fn run(
        &self,
        worker: &mut Self::Worker,
        variant: usize,
        point: &ExperimentPoint,
    ) -> Self::Value;
}

/// Where a shard map's points come from.
pub(crate) enum Corpus<'a> {
    /// A stored suite, read through its result cache shard by shard; the
    /// walk stops after `Some(n)` shards.
    Stored(&'a SuiteStore, Option<usize>),
    /// Points generated in memory: one shard, no cache.
    Generated(&'a [ExperimentPoint]),
}

/// What a [`map_shards`] run did besides folding.
pub(crate) struct ShardMapOutcome {
    /// Jobs run in this call (cache misses).
    pub computed: usize,
    /// Jobs answered from the result cache.
    pub cache_hits: usize,
    /// Shards walked.
    pub shards: usize,
    /// Shards skipped and quarantined as persistently corrupt.
    pub shards_quarantined: usize,
    /// Whether the walk covered the whole corpus.
    pub complete: bool,
}

/// Runs `jobs` over every shard of `corpus` and hands each point to `fold`
/// as its designed SWAP count and its values, one per variant. Points are
/// folded in corpus order at any thread count, and a shard only once all of
/// its jobs resolved.
///
/// # Errors
///
/// [`StoreError`] from reading a shard or writing a cache entry. A shard
/// that fails with a corruption-class error is quarantined and skipped
/// instead; a corrupt cache entry reads as a miss.
///
/// # Panics
///
/// Panics if a job panics; the message names the job.
pub(crate) fn map_shards<J: ShardJobs>(
    corpus: Corpus<'_>,
    jobs: &J,
    sink: &dyn ProgressSink,
    mut fold: impl FnMut(usize, &[J::Value]),
) -> Result<ShardMapOutcome, StoreError> {
    let variants = jobs.variants();
    let mut fold_shard = |designed: &[usize], values: &[J::Value]| {
        for (&designed_swaps, row) in designed.iter().zip(values.chunks(variants.max(1))) {
            fold(designed_swaps, row);
        }
    };
    let (store, stop_after_shards) = match corpus {
        Corpus::Generated(points) => {
            let pairs = all_pairs(points.len(), variants);
            let values = run_jobs(jobs, points, &pairs, sink, |_, _| Ok(()))?;
            let designed: Vec<usize> = points.iter().map(|point| point.swap_count).collect();
            fold_shard(&designed, &values);
            return Ok(ShardMapOutcome {
                computed: pairs.len(),
                cache_hits: 0,
                shards: 1,
                shards_quarantined: 0,
                complete: true,
            });
        }
        Corpus::Stored(store, stop_after_shards) => (store, stop_after_shards),
    };
    let shards = stop_after_shards
        .unwrap_or(usize::MAX)
        .min(store.shard_count());
    let mut outcome = ShardMapOutcome {
        computed: 0,
        cache_hits: 0,
        shards,
        shards_quarantined: 0,
        complete: shards == store.shard_count(),
    };
    for shard in 0..shards {
        match map_stored_shard(store, shard, jobs, sink, &mut fold_shard) {
            Ok((computed, cache_hits)) => {
                outcome.computed += computed;
                outcome.cache_hits += cache_hits;
            }
            Err(error) if error.is_corruption() => {
                store.quarantine_shard_error(shard, &error);
                outcome.shards_quarantined += 1;
            }
            Err(error) => return Err(error),
        }
    }
    Ok(outcome)
}

/// One stored shard: cache reads, then the misses on the engine, then the
/// fold — last, so a corrupt shard is dropped before anything is folded.
/// Returns the computed and cache-hit job counts.
fn map_stored_shard<J: ShardJobs>(
    store: &SuiteStore,
    shard: usize,
    jobs: &J,
    sink: &dyn ProgressSink,
    fold_shard: &mut impl FnMut(&[usize], &[J::Value]),
) -> Result<(usize, usize), StoreError> {
    let records = store.shard_records(shard)?;
    let pairs = all_pairs(records.len(), jobs.variants());
    let hash = |&(_, point): &(usize, usize)| records[point].content_hash.as_str();
    let key = |pair: &(usize, usize)| jobs.key(pair.0, hash(pair));

    let mut values: Vec<Option<J::Value>> = pairs
        .iter()
        .map(|pair| jobs.cached(store.read_cached(&key(pair))?, hash(pair)))
        .collect();
    let misses: Vec<(usize, usize)> = pairs
        .iter()
        .zip(&values)
        .filter(|(_, value)| value.is_none())
        .map(|(&pair, _)| pair)
        .collect();

    if !misses.is_empty() {
        // Only a shard with work to do is materialized and re-verified
        // (hash, parse, regeneration round trip).
        let points = store.load_shard(shard)?;
        let fresh = run_jobs(jobs, &points, &misses, sink, |pair, value| {
            store.write_cached(&key(pair), &jobs.entry(pair.0, hash(pair), value))
        })?;
        let mut fresh = fresh.into_iter();
        for slot in values.iter_mut().filter(|slot| slot.is_none()) {
            *slot = fresh.next();
        }
    }

    let designed: Vec<usize> = records.iter().map(|record| record.swap_count).collect();
    let values: Vec<J::Value> = values
        .into_iter()
        .map(|value| value.expect("every job resolved"))
        .collect();
    fold_shard(&designed, &values);
    Ok((misses.len(), values.len() - misses.len()))
}

/// Runs `pairs` on the engine in one run, calling `persist` on each value
/// from inside its job. Values come back in job order.
fn run_jobs<J: ShardJobs>(
    jobs: &J,
    points: &[ExperimentPoint],
    pairs: &[(usize, usize)],
    sink: &dyn ProgressSink,
    persist: impl Fn(&(usize, usize), &J::Value) -> Result<(), StoreError> + Sync,
) -> Result<Vec<J::Value>, StoreError> {
    Engine::new(jobs.threads())
        .run(
            pairs,
            |_worker| jobs.worker(),
            |worker, pair| {
                let value = jobs.run(worker, pair.0, &points[pair.1]);
                persist(pair, &value)?;
                Ok(value)
            },
            sink,
        )
        .unwrap_or_else(|error| panic!("pipeline aborted: {error}"))
        .into_iter()
        .collect()
}

/// The point-major `(variant, point)` job list: every variant of point 0,
/// then of point 1, … so the expensive large instances of different
/// variants interleave across workers.
fn all_pairs(points: usize, variants: usize) -> Vec<(usize, usize)> {
    (0..points)
        .flat_map(|point| (0..variants).map(move |variant| (variant, point)))
        .collect()
}
