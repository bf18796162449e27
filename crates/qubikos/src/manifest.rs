//! The on-disk suite manifest: the schema that makes a benchmark suite a
//! persistent, verifiable corpus instead of something regenerated inside
//! every binary on every run.
//!
//! Since format 2 a stored suite is **sharded**: `manifest.json` is a small
//! [`RootIndex`] naming the device, the [`SuiteConfig`], and one
//! [`ShardRecord`] per shard manifest under `shards/`. Each shard manifest
//! ([`ShardManifest`]) carries the [`InstanceRecord`]s of a contiguous slice
//! of the suite grid, and the root index records the **content hash of the
//! shard manifest's bytes**, extending the integrity chain root → shard →
//! instance: loaders refuse silently-edited shard manifests exactly as they
//! refuse edited circuits. Keeping the root index O(shards) instead of
//! O(instances) is what lets a million-instance corpus open, stream, and
//! resume without ever materializing more than one shard of records.
//!
//! Format 1 (one monolithic manifest holding every record, written before
//! sharding) is no longer read: loaders reject it with a format error.
//!
//! Per-instance fields are unchanged: each [`InstanceRecord`] carries the
//! instance's derived seed, its designed (optimal) SWAP count, its file
//! name, and the content hash of its QASM text. The hash is the suite's
//! integrity anchor: loaders refuse silently-edited circuits, and the result
//! cache keys evaluated routings by it (`results/<tool>/<hash>`), so a
//! re-run only routes circuits whose bytes it has never seen.
//!
//! This module owns only the schema and the hash; all filesystem traffic
//! lives in `qubikos_bench::store`.

use crate::suite::{ExperimentPoint, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_circuit::to_qasm;
use serde::{Deserialize, Serialize};

/// Version of the on-disk manifest schema. Bumped on incompatible changes so
/// loaders can fail with a clear message instead of a field error. Format 2
/// is the sharded layout and the only one read.
pub const MANIFEST_FORMAT: u32 = 2;

/// Name of the manifest file (the root index since format 2) inside a suite
/// directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Subdirectory of a suite holding the shard manifests.
pub const SHARD_DIR: &str = "shards";

/// Default number of instances per shard. Large enough that shard-manifest
/// overhead is negligible, small enough that one resident shard of
/// `ExperimentPoint`s stays far below any laptop's memory on every supported
/// device.
pub const DEFAULT_SHARD_SIZE: usize = 256;

/// One instance of a stored suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// The designed (provably optimal) SWAP count.
    pub swap_count: usize,
    /// Index of the instance within its SWAP-count cell.
    pub instance: usize,
    /// The derived seed the instance was generated from
    /// ([`SuiteConfig::instance_seed`]).
    pub seed: u64,
    /// Number of two-qubit gates in the circuit.
    pub two_qubit_gates: usize,
    /// File name of the instance's QASM export, relative to the suite
    /// directory.
    pub file: String,
    /// Content hash of the QASM text (see [`content_hash`]).
    pub content_hash: String,
}

/// One shard's entry in the [`RootIndex`]: where the shard manifest lives,
/// how many instances it holds, and the content hash of its bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Index of the shard within the suite (shards partition the flat grid
    /// order into contiguous slices).
    pub shard: usize,
    /// Path of the shard manifest, relative to the suite directory.
    pub file: String,
    /// Number of instances the shard holds.
    pub instances: usize,
    /// Content hash of the shard manifest's bytes (see [`content_hash`]) —
    /// the root-to-shard link of the integrity chain.
    pub content_hash: String,
}

/// The format-2 `manifest.json`: a small root index over the shard
/// manifests. O(shards), never O(instances), so opening a million-instance
/// corpus reads kilobytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootIndex {
    /// Schema version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Device the suite was generated for.
    pub device: DeviceKind,
    /// The configuration the suite was generated from.
    pub config: SuiteConfig,
    /// Number of instances per shard (the last shard may hold fewer).
    pub shard_size: usize,
    /// One record per shard manifest, in shard order.
    pub shards: Vec<ShardRecord>,
}

impl RootIndex {
    /// Total instances across all shards.
    pub fn total_instances(&self) -> usize {
        self.shards.iter().map(|s| s.instances).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// One shard manifest under `shards/`: the instance records of a contiguous
/// slice of the suite grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Index of the shard within the suite.
    pub shard: usize,
    /// The shard's instance records, in flat grid order.
    pub instances: Vec<InstanceRecord>,
}

/// Canonical file name of shard `shard` within a suite directory.
pub fn shard_file_name(shard: usize) -> String {
    format!("{SHARD_DIR}/shard_{shard:05}.json")
}

/// Partitions `total` instances (in flat grid order) into contiguous shard
/// spans of at most `shard_size` instances each.
///
/// # Panics
///
/// Panics if `shard_size` is zero while `total` is not.
pub fn shard_spans(total: usize, shard_size: usize) -> Vec<std::ops::Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    assert!(shard_size > 0, "shard size must be positive");
    (0..total.div_ceil(shard_size))
        .map(|shard| shard * shard_size..((shard + 1) * shard_size).min(total))
        .collect()
}

impl InstanceRecord {
    /// Builds the record for one generated point, including the content hash
    /// of its canonical QASM serialization.
    pub fn describe(device: DeviceKind, point: &ExperimentPoint) -> Self {
        InstanceRecord {
            swap_count: point.swap_count,
            instance: point.instance,
            seed: point.seed,
            two_qubit_gates: point.benchmark.circuit().two_qubit_gate_count(),
            file: instance_file_name(device, point.swap_count, point.instance),
            content_hash: content_hash(&to_qasm(point.benchmark.circuit())),
        }
    }
}

/// Canonical QASM file name of one instance within a suite directory.
pub fn instance_file_name(device: DeviceKind, swap_count: usize, instance: usize) -> String {
    format!(
        "{}_swaps{}_inst{}.qasm",
        device.name(),
        swap_count,
        instance
    )
}

/// Content hash of a QASM text: 128-bit FNV-1a, rendered as 32 hex digits.
///
/// FNV-1a is not cryptographic — the hash defends against accidental edits,
/// truncation, and stale files, not against an adversary forging a circuit.
/// 128 bits keep the birthday bound irrelevant at any realistic corpus size
/// (a suite has hundreds of instances, not 2^64).
pub fn content_hash(text: &str) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for byte in text.as_bytes() {
        hash ^= u128::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_suite;

    fn tiny_suite() -> (SuiteConfig, Vec<ExperimentPoint>) {
        let config = SuiteConfig {
            swap_counts: vec![1, 2],
            circuits_per_count: 2,
            two_qubit_gates: 16,
            base_seed: 9,
        };
        let arch = DeviceKind::Grid3x3.build();
        let points = generate_suite(&arch, &config).expect("generates");
        (config, points)
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let a = content_hash("cx q[0], q[1];\n");
        assert_eq!(a, content_hash("cx q[0], q[1];\n"));
        assert_eq!(a.len(), 32);
        assert_ne!(a, content_hash("cx q[0], q[2];\n"));
        assert_ne!(a, content_hash(""));
        // Known FNV-1a 128 vector: the empty string hashes to the offset.
        assert_eq!(
            content_hash(""),
            "6c62272e07bb014262b821756295c58d".to_string()
        );
    }

    #[test]
    fn describe_covers_every_instance() {
        let (_, points) = tiny_suite();
        let records: Vec<InstanceRecord> = points
            .iter()
            .map(|point| InstanceRecord::describe(DeviceKind::Grid3x3, point))
            .collect();
        for (record, point) in records.iter().zip(&points) {
            assert_eq!(record.swap_count, point.swap_count);
            assert_eq!(record.seed, point.seed);
            assert_eq!(
                record.content_hash,
                content_hash(&to_qasm(point.benchmark.circuit()))
            );
            assert!(record.file.ends_with(".qasm"));
            assert!(record.file.contains(&format!("swaps{}", point.swap_count)));
        }
        // All hashes and file names are distinct.
        let hashes: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.content_hash.as_str()).collect();
        assert_eq!(hashes.len(), 4);
    }

    #[test]
    fn file_names_are_canonical() {
        assert_eq!(
            instance_file_name(DeviceKind::Aspen4, 5, 3),
            "aspen-4_swaps5_inst3.qasm"
        );
        assert_eq!(shard_file_name(0), "shards/shard_00000.json");
        assert_eq!(shard_file_name(12345), "shards/shard_12345.json");
    }

    #[test]
    fn shard_spans_partition_the_grid() {
        assert!(shard_spans(0, 4).is_empty());
        assert_eq!(shard_spans(1, 4), vec![0..1]);
        assert_eq!(shard_spans(8, 4), vec![0..4, 4..8]);
        assert_eq!(shard_spans(9, 4), vec![0..4, 4..8, 8..9]);
        // Spans are contiguous and exhaustive for a grab bag of shapes.
        for (total, size) in [(1, 1), (7, 3), (100, 7), (256, 256), (257, 256)] {
            let spans = shard_spans(total, size);
            let mut next = 0;
            for span in &spans {
                assert_eq!(span.start, next);
                assert!(span.len() <= size);
                assert!(!span.is_empty());
                next = span.end;
            }
            assert_eq!(next, total);
        }
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn shard_spans_reject_zero_size() {
        shard_spans(5, 0);
    }

    #[test]
    fn root_index_round_trips_and_counts() {
        let (config, points) = tiny_suite();
        let shard = ShardManifest {
            shard: 0,
            instances: points
                .iter()
                .map(|point| InstanceRecord::describe(DeviceKind::Grid3x3, point))
                .collect(),
        };
        let shard_json = serde_json::to_string(&shard).expect("serialize shard");
        let back_shard: ShardManifest = serde_json::from_str(&shard_json).expect("shard back");
        assert_eq!(back_shard, shard);

        let index = RootIndex {
            format: MANIFEST_FORMAT,
            device: DeviceKind::Grid3x3,
            config,
            shard_size: 4,
            shards: vec![ShardRecord {
                shard: 0,
                file: shard_file_name(0),
                instances: shard.instances.len(),
                content_hash: content_hash(&shard_json),
            }],
        };
        assert_eq!(index.total_instances(), 4);
        assert_eq!(index.shard_count(), 1);
        let json = serde_json::to_string(&index).expect("serialize index");
        let back: RootIndex = serde_json::from_str(&json).expect("index back");
        assert_eq!(back, index);
    }
}
