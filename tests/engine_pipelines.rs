//! Workspace-level contract between the execution engine and the suite
//! generator. Per-pipeline thread-count invariance is asserted by each
//! pipeline's own module tests (which cover 1/2/8/auto threads); this file
//! holds only the cross-crate property no single crate can test.

use qubikos::SuiteConfig;
use qubikos_engine::{Engine, JobId, NullSink};

/// The engine's per-job scheduling composes with the suite's per-instance
/// seeds: generating a suite's instances as independent engine jobs (as the
/// parallel exporter does) reproduces exactly the (id, seed) assignment the
/// sequential generator uses.
#[test]
fn suite_instance_seeds_are_engine_schedulable() {
    let config = SuiteConfig {
        swap_counts: vec![1, 2, 3],
        circuits_per_count: 4,
        two_qubit_gates: 20,
        base_seed: 6,
    };
    let arch = qubikos_arch::devices::grid(3, 3);
    let suite = qubikos::generate_suite(&arch, &config).expect("generates");
    // Re-derive every instance independently, in engine-scheduled order.
    let jobs: Vec<(usize, usize)> = (0..config.swap_counts.len())
        .flat_map(|c| (0..config.circuits_per_count).map(move |i| (c, i)))
        .collect();
    let seeds = Engine::new(4)
        .run(
            &jobs,
            |_| (),
            |(), &(count_index, instance)| config.instance_seed(count_index, instance),
            &NullSink,
        )
        .expect("no panics");
    let expected: Vec<u64> = suite.iter().map(|p| p.seed).collect();
    assert_eq!(seeds, expected);
    // And engine job ids line up with worklist positions.
    assert_eq!(JobId(5).index(), 5);
}
