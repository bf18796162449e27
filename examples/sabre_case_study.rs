//! A reproduction of the paper's §IV-C LightSABRE case study.
//!
//! The router is handed the *known-optimal initial mapping* of each QUBIKOS
//! circuit, so every extra SWAP is a routing mistake rather than a placement
//! mistake. The stock uniform extended-set lookahead is then compared with
//! the decayed lookahead the paper proposes as a fix.
//!
//! ```text
//! cargo run --release --example sabre_case_study
//! ```

use qubikos::{generate, GeneratorConfig};
use qubikos_arch::devices;
use qubikos_layout::{validate_routing, LookaheadSpec, RouterSpec};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let arch = devices::aspen4();
    let uniform = RouterSpec::lightsabre().build(11);
    let decayed = RouterSpec {
        lookahead: LookaheadSpec {
            depth_decay: Some(0.7),
            ..LookaheadSpec::sabre_default()
        },
        ..RouterSpec::lightsabre()
    }
    .build(11);

    println!("routing from the optimal initial mapping on {arch}");
    println!(
        "{:<8}{:>10}{:>18}{:>18}",
        "seed", "optimal", "uniform lookahead", "decayed lookahead"
    );

    let mut uniform_total = 0usize;
    let mut decayed_total = 0usize;
    let mut optimal_total = 0usize;
    for seed in 0..6u64 {
        let bench = generate(&arch, &GeneratorConfig::new(4, 140).with_seed(seed))?;
        let mut row = Vec::new();
        for router in [&uniform, &decayed] {
            let routed = router.route_with_initial_mapping(
                bench.circuit(),
                &arch,
                bench.reference_mapping(),
            )?;
            validate_routing(bench.circuit(), &arch, &routed)?;
            row.push(routed.swap_count());
        }
        uniform_total += row[0];
        decayed_total += row[1];
        optimal_total += bench.optimal_swaps();
        println!(
            "{:<8}{:>10}{:>18}{:>18}",
            seed,
            bench.optimal_swaps(),
            row[0],
            row[1]
        );
    }
    println!(
        "\ntotals: optimal {optimal_total}, uniform {uniform_total} ({:.2}x), decayed {decayed_total} ({:.2}x)",
        uniform_total as f64 / optimal_total as f64,
        decayed_total as f64 / optimal_total as f64
    );
    Ok(())
}
