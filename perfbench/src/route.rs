//! `route` workload: every tool routes QUBIKOS instances on grid-4x4,
//! eagle-127 and osprey-433, one route at a time on one thread. Nothing
//! touches disk.

use crate::harness::{measure, repeated_setup, Ctx, Outcome};
use crate::layers::{end_to_end, span_metrics, OP_SPAN};
use crate::metrics::Checks;
use crate::trace::SETUP_OP;
use qubikos::manifest::content_hash;
use qubikos::{generate, verify_certificate, GeneratorConfig, QubikosCircuit};
use qubikos_arch::{devices, Architecture, DeviceKind};
use qubikos_bench::DEFAULT_TOOL_SEED;
use qubikos_circuit::to_qasm;
use qubikos_graph::OracleStats;
use qubikos_layout::{
    greedy_bfs_placement, validate_routing, MultilevelConfig, MultilevelRouter, Router,
    RoutingProblem, ToolKind,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instances per device per run.
const INSTANCES: usize = 32;

/// Instances per device routed by every tool in the warm-up. One would make
/// `setup_s` follow the cost of a single seeded instance.
const WARMUP: usize = 4;

/// The devices, with the designed SWAP count and two-qubit gate budget of
/// their instances. Grid-4x4 uses the shape of the legacy `router_bench`
/// instance (4 SWAPs, 120 gates).
const DEVICES: [(&str, usize, usize); 3] = [
    ("grid-4x4", 4, 120),
    ("eagle-127", 5, 60),
    ("osprey-433", 2, 60),
];

type Tools = Vec<(ToolKind, Box<dyn Router + Send + Sync>)>;

struct Device {
    arch: Architecture,
    instances: Vec<QubikosCircuit>,
}

fn build_device(name: &str) -> Architecture {
    match name {
        "grid-4x4" => devices::grid(4, 4),
        other => DeviceKind::parse(other)
            .expect("workload names known devices")
            .build(),
    }
}

/// Builds the devices, then generates, certifies and fingerprints their
/// instances.
fn setup(ctx: &Ctx, checks: &mut Checks) -> (Vec<Device>, String) {
    let tracer = &ctx.tracer;
    let mut fingerprint = String::new();
    let devices = DEVICES
        .iter()
        .enumerate()
        .map(|(d, &(name, swaps, gates))| {
            let arch = tracer.span("arch.build", SETUP_OP, || build_device(name));
            let instances = (0..INSTANCES)
                .map(|i| {
                    let config = GeneratorConfig::new(swaps, gates)
                        .with_seed(ctx.derive_seed(d as u64, i as u64));
                    let bench = tracer
                        .span("qubikos.generate", SETUP_OP, || generate(&arch, &config))
                        .expect("QUBIKOS generates on every workload device");
                    let certified = tracer.span("qubikos.certificate", SETUP_OP, || {
                        verify_certificate(&bench, &arch)
                    });
                    checks.check(certified.is_ok(), || {
                        format!("{name} instance {i}: certificate failed: {certified:?}")
                    });
                    let qasm =
                        tracer.span("circuit.qasm_emit", SETUP_OP, || to_qasm(bench.circuit()));
                    fingerprint
                        .push_str(&tracer.span("qubikos.hash", SETUP_OP, || content_hash(&qasm)));
                    bench
                })
                .collect();
            Device { arch, instances }
        })
        .collect();
    (devices, content_hash(&fingerprint))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tools: Tools = ToolKind::ALL
        .iter()
        .map(|&tool| (tool, tool.build(DEFAULT_TOOL_SEED)))
        .collect();
    let (((devices, fingerprint), failures), setup_s) = repeated_setup(|_| {
        let mut checks = Checks::default();
        let (devices, fingerprint) = setup(ctx, &mut checks);
        // Warm-up: every tool routes each device's first instances once, so
        // lazily built oracle rows and allocator state are in place before
        // the clock starts.
        for device in &devices {
            for ((_, router), bench) in tools.iter().flat_map(|tool| {
                device.instances[..WARMUP]
                    .iter()
                    .map(move |bench| (tool, bench))
            }) {
                let routed = router.route(bench.circuit(), &device.arch);
                checks.check(routed.is_ok(), || {
                    format!("{} warm-up route failed", device.arch.name())
                });
            }
        }
        ((devices, fingerprint), checks.into_failures())
    });
    out.run_failures.extend(failures);
    out.report.push(format!(
        "route: {} devices x {INSTANCES} instances x {} tools, input fingerprint {fingerprint}",
        DEVICES.len(),
        tools.len()
    ));

    // SWAPs of each (device, instance, tool) the first time it is routed:
    // every later route must match, since the tools are seeded.
    let mut first_swaps: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    let summary = measure(ctx, &mut out, |phase, tally, traced| {
        for i in 0..INSTANCES {
            for (d, device) in devices.iter().enumerate() {
                let bench = &device.instances[i];
                for (t, (tool, router)) in tools.iter().enumerate() {
                    let op = tally.attempted + 1;
                    let tracer = ctx.tracer(traced);
                    let class = format!("{}/{}", device.arch.name(), tool.name());
                    let start = Instant::now();
                    let routed = tracer.span(OP_SPAN, op, || {
                        tracer.span(&format!("layout.route.{}", tool.name()), op, || {
                            router.route(bench.circuit(), &device.arch)
                        })
                    });
                    phase.record(&class, i as u64, start.elapsed());

                    let mut checks = Checks::default();
                    match routed {
                        Ok(routed) => {
                            let valid = tracer.span("layout.validate", op, || {
                                validate_routing(bench.circuit(), &device.arch, &routed)
                            });
                            checks.check(valid.is_ok(), || {
                                format!("{class} instance {i}: invalid routing: {valid:?}")
                            });
                            let swaps = routed.swap_count();
                            let optimum = bench.optimal_swaps();
                            checks.check(swaps >= optimum, || {
                                format!("{class} instance {i}: {swaps} SWAPs beat the certified optimum {optimum}")
                            });
                            let first = *first_swaps.entry((d, i, t)).or_insert(swaps);
                            checks.check(first == swaps, || {
                                format!("{class} instance {i}: {swaps} SWAPs, {first} when first routed")
                            });
                        }
                        Err(error) => {
                            checks.check(false, || format!("{class} instance {i}: {error}"))
                        }
                    }
                    if traced {
                        trace_standalone(ctx, op, *tool, bench, &device.arch);
                    }
                    tally.record(checks.into_failures());
                }
            }
        }
    });

    if ctx.traced() {
        let first = count_pass(&devices, &tools);
        if first != count_pass(&devices, &tools) {
            out.run_failures
                .push("route: SWAP or oracle counts differ between two count passes".into());
        }
        count_metrics(&mut out, &devices, &tools, &first);
        span_metrics(ctx, &mut out);
    } else {
        end_to_end(&mut out, &summary, setup_s);
    }
    out
}

/// Layer calls made only in the traced run, beside the route: the routing
/// problem's construction and the tool's initial placement.
fn trace_standalone(
    ctx: &Ctx,
    op: u64,
    tool: ToolKind,
    bench: &QubikosCircuit,
    arch: &Architecture,
) {
    let tracer = &ctx.tracer;
    tracer.span("layout.problem_build", op, || {
        RoutingProblem::bidirectional(bench.circuit())
    });
    tracer.span("layout.placement", op, || match tool {
        ToolKind::MlQls => {
            MultilevelRouter::new(MultilevelConfig::default()).place(bench.circuit(), arch)
        }
        _ => greedy_bfs_placement(bench.circuit(), arch),
    });
}

/// Counters of one route, for the exact-count check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteCount {
    swaps: usize,
    oracle: OracleStats,
}

/// Routes every (instance, tool) pair once on freshly built devices and
/// returns the counters in device, instance, tool order.
fn count_pass(devices: &[Device], tools: &Tools) -> Vec<RouteCount> {
    let mut counts = Vec::new();
    for (device, &(name, _, _)) in devices.iter().zip(&DEVICES) {
        let arch = build_device(name);
        for bench in &device.instances {
            for (_, router) in tools {
                let before = arch.oracle_stats();
                let swaps = router
                    .route(bench.circuit(), &arch)
                    .map_or(usize::MAX, |routed| routed.swap_count());
                counts.push(RouteCount {
                    swaps,
                    oracle: arch.oracle_stats().since(&before),
                });
            }
        }
    }
    counts
}

/// Per-layer counters and gaps from a count pass, plus one row per
/// (device, tool).
fn count_metrics(out: &mut Outcome, devices: &[Device], tools: &Tools, counts: &[RouteCount]) {
    let mut oracle = OracleStats::default();
    let mut swaps = vec![0usize; tools.len()];
    let mut ratio_sum = vec![0.0f64; tools.len()];
    let mut rows: Vec<(String, &str, usize, usize, OracleStats)> = Vec::new();
    let mut next = counts.iter();
    for device in devices {
        let first_row = rows.len();
        for (tool, _) in tools {
            rows.push((
                device.arch.name().to_string(),
                tool.name(),
                0,
                0,
                OracleStats::default(),
            ));
        }
        for bench in &device.instances {
            for (t, row) in rows[first_row..].iter_mut().enumerate() {
                let count = next.next().expect("one count per route");
                swaps[t] += count.swaps;
                ratio_sum[t] += count.swaps as f64 / bench.optimal_swaps() as f64;
                add_stats(&mut oracle, &count.oracle);
                row.2 += count.swaps;
                row.3 += bench.optimal_swaps();
                add_stats(&mut row.4, &count.oracle);
            }
        }
    }
    let routes_per_tool = (devices.len() * INSTANCES) as f64;
    for (t, (tool, _)) in tools.iter().enumerate() {
        out.metrics
            .insert(format!("layout.swaps.{}", tool.name()), swaps[t] as f64);
        out.metrics.insert(
            format!("gap.{}", tool.name()),
            ratio_sum[t] / routes_per_tool,
        );
    }
    let fallback_ratio = if oracle.landmark_queries == 0 {
        0.0
    } else {
        oracle.exact_fallbacks as f64 / oracle.landmark_queries as f64
    };
    let m = &mut out.metrics;
    m.insert("graph.queries".into(), oracle.queries as f64);
    m.insert("graph.rows_computed".into(), oracle.rows_computed as f64);
    m.insert("graph.cache_hits".into(), oracle.cache_hits as f64);
    m.insert(
        "graph.landmark_queries".into(),
        oracle.landmark_queries as f64,
    );
    m.insert(
        "graph.exact_fallbacks".into(),
        oracle.exact_fallbacks as f64,
    );
    m.insert("graph.fallback_ratio".into(), fallback_ratio);
    out.report.push(format!(
        "{:<11} {:<10} {:>6} {:>8} {:>6} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "device",
        "tool",
        "swaps",
        "designed",
        "gap",
        "queries",
        "rows",
        "hits",
        "pinned",
        "landmark",
        "fallback"
    ));
    for (device, tool, swaps, designed, stats) in rows {
        out.report.push(format!(
            "{device:<11} {tool:<10} {swaps:>6} {designed:>8} {:>6.2} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9}",
            swaps as f64 / designed as f64,
            stats.queries,
            stats.rows_computed,
            stats.cache_hits,
            stats.pinned_hits,
            stats.landmark_queries,
            stats.exact_fallbacks
        ));
    }
}

fn add_stats(total: &mut OracleStats, delta: &OracleStats) {
    total.queries += delta.queries;
    total.rows_computed += delta.rows_computed;
    total.cache_hits += delta.cache_hits;
    total.pinned_hits += delta.pinned_hits;
    total.landmark_queries += delta.landmark_queries;
    total.exact_fallbacks += delta.exact_fallbacks;
}
