//! Quickstart: generate one QUBIKOS benchmark, route it with LightSABRE, and
//! measure the optimality gap.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qubikos::{generate, verify_certificate, GeneratorConfig};
use qubikos_arch::devices;
use qubikos_layout::{validate_routing, ToolKind};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Pick a device and ask for a circuit that provably needs 3 SWAPs.
    let arch = devices::aspen4();
    let config = GeneratorConfig::new(3, 120).with_seed(42);
    let bench = generate(&arch, &config)?;
    println!("generated {bench}");

    // 2. Re-check the optimality certificate (upper bound witness + Lemma 1-3
    //    structure), the same evidence the paper obtains from OLSQ2.
    verify_certificate(&bench, &arch)?;
    println!(
        "optimality certificate verified: optimum = {} SWAPs",
        bench.optimal_swaps()
    );

    // 3. Route the circuit with the SABRE-style tool and validate the result.
    let router = ToolKind::LightSabre.build(0);
    let routed = router.route(bench.circuit(), &arch)?;
    validate_routing(bench.circuit(), &arch, &routed)?;

    // 4. Report the optimality gap.
    let ratio = bench
        .swap_ratio(&routed)
        .expect("QUBIKOS optima are never zero");
    println!(
        "{} inserted {} SWAPs (optimal {}) -> SWAP ratio {:.2}x",
        router.name(),
        routed.swap_count(),
        bench.optimal_swaps(),
        ratio
    );
    Ok(())
}
