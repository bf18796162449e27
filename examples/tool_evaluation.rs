//! A small-scale version of the paper's Figure-4 tool evaluation: measure the
//! SWAP-ratio optimality gap of all four QLS tools on QUBIKOS circuits.
//!
//! The full-scale version (paper circuit sizes, all devices) lives in the
//! harness: `cargo run --release -p qubikos-bench --bin qubikos -- eval --full`.
//!
//! ```text
//! cargo run --release --example tool_evaluation
//! ```

use qubikos::{generate_suite, SuiteConfig};
use qubikos_arch::devices;
use qubikos_layout::{validate_routing, ToolKind};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let arch = devices::aspen4();
    let suite_config = SuiteConfig {
        swap_counts: vec![3, 6],
        circuits_per_count: 3,
        two_qubit_gates: 120,
        base_seed: 2025,
    };
    let suite = generate_suite(&arch, &suite_config)?;
    println!(
        "evaluating {} tools on {} QUBIKOS circuits for {}",
        ToolKind::ALL.len(),
        suite.len(),
        arch
    );

    println!("{:<12}{:>14}{:>14}", "tool", "avg swaps", "swap ratio");
    for tool in ToolKind::ALL {
        let router = tool.build(7);
        let mut total_swaps = 0usize;
        let mut total_ratio = 0.0f64;
        for point in &suite {
            let routed = router.route(point.benchmark.circuit(), &arch)?;
            validate_routing(point.benchmark.circuit(), &arch, &routed)?;
            total_swaps += routed.swap_count();
            total_ratio += point
                .benchmark
                .swap_ratio(&routed)
                .expect("QUBIKOS optima are never zero");
        }
        println!(
            "{:<12}{:>14.2}{:>13.2}x",
            tool.name(),
            total_swaps as f64 / suite.len() as f64,
            total_ratio / suite.len() as f64
        );
    }
    Ok(())
}
