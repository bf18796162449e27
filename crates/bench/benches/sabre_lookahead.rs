//! Benchmark behind the §IV-C case study (experiment E6): routing from the
//! known-optimal initial mapping under a sweep of lookahead policies.
//!
//! The sweep varies the [`LookaheadSpec`] of the LightSABRE composition —
//! the same axis the composition matrix enumerates — so the bench exercises
//! exactly what an ablation run builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qubikos::{generate, GeneratorConfig};
use qubikos_arch::DeviceKind;
use qubikos_layout::{LookaheadSpec, RouterSpec};
use std::hint::black_box;

fn bench_lookahead_variants(c: &mut Criterion) {
    let arch = DeviceKind::Aspen4.build();
    let bench_circuit =
        generate(&arch, &GeneratorConfig::new(4, 150).with_seed(6)).expect("generates");
    let mut group = c.benchmark_group("sabre_lookahead_aspen4");
    group.sample_size(10);
    let variants: [(&str, LookaheadSpec); 4] = [
        ("front_only", LookaheadSpec::front_only()),
        ("uniform", LookaheadSpec::sabre_default()),
        (
            "decay_0.7",
            LookaheadSpec {
                depth_decay: Some(0.7),
                ..LookaheadSpec::sabre_default()
            },
        ),
        (
            "decay_0.4",
            LookaheadSpec {
                depth_decay: Some(0.4),
                ..LookaheadSpec::sabre_default()
            },
        ),
    ];
    for (name, lookahead) in variants {
        let router = RouterSpec {
            lookahead,
            ..RouterSpec::lightsabre()
        }
        .build(5);
        group.bench_with_input(BenchmarkId::from_parameter(name), &router, |b, router| {
            b.iter(|| {
                black_box(
                    router
                        .route_with_initial_mapping(
                            bench_circuit.circuit(),
                            &arch,
                            bench_circuit.reference_mapping(),
                        )
                        .expect("fits"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookahead_variants);
criterion_main!(benches);
