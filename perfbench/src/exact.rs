//! `exact` workload: the exact solver proves (or fails to prove, within its
//! node budget) the optimum of small QUBIKOS instances on Grid-3x3 and
//! Aspen-4, and each verdict is checked against the construction
//! certificate. One verdict at a time on one thread; no routing, no disk.

use crate::harness::{measure, repeated_setup, Ctx, Outcome};
use crate::layers::{end_to_end, span_metrics, OP_SPAN};
use crate::metrics::Checks;
use crate::trace::SETUP_OP;
use qubikos::manifest::content_hash;
use qubikos::{generate, verify_certificate, GeneratorConfig, QubikosCircuit};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_circuit::to_qasm;
use qubikos_exact::{ExactConfig, ExactResult, ExactSolver, QueryOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instances per (device, designed SWAP count) solved in the warm-up. One
/// would make `setup_s` follow the cost of a single seeded instance.
const WARMUP: usize = 8;

/// Two-qubit gates per instance.
const GATES: usize = 30;

/// Designed SWAP counts: the range the exact solver confirms.
const SWAPS: [usize; 3] = [1, 2, 3];

/// The devices, each with its instances per designed SWAP count. Grid-3x3
/// instances all decide within the budget; most Aspen-4 instances exhaust
/// it, so `exact.decided_ratio` leaves room for a stronger prover. Grid-3x3
/// solve times spread widely from instance to instance (a class's slowest
/// tenth takes about three times its median), so it gets more of its cheap
/// instances to keep the class medians from following the seed.
const DEVICES: [(DeviceKind, usize); 2] = [(DeviceKind::Grid3x3, 192), (DeviceKind::Aspen4, 48)];

/// Node budget per feasibility query. An exhausted query costs the same
/// bounded work on every instance, which keeps the op cost comparable
/// across seeds.
const NODE_BUDGET: u64 = 100_000;

struct Instance {
    device: usize,
    designed: usize,
    bench: QubikosCircuit,
}

fn setup(ctx: &Ctx, checks: &mut Checks) -> (Vec<Architecture>, Vec<Instance>, String) {
    let tracer = &ctx.tracer;
    let archs: Vec<Architecture> = DEVICES
        .iter()
        .map(|(kind, _)| tracer.span("arch.build", SETUP_OP, || kind.build()))
        .collect();
    let mut instances = Vec::new();
    let mut fingerprint = String::new();
    for (d, (arch, &(_, count))) in archs.iter().zip(&DEVICES).enumerate() {
        for (s, &designed) in SWAPS.iter().enumerate() {
            for i in 0..count {
                let stream = (d * SWAPS.len() + s) as u64;
                let config = GeneratorConfig::new(designed, GATES)
                    .with_seed(ctx.derive_seed(stream, i as u64));
                let bench = tracer
                    .span("qubikos.generate", SETUP_OP, || generate(arch, &config))
                    .expect("QUBIKOS generates on every workload device");
                let qasm = tracer.span("circuit.qasm_emit", SETUP_OP, || to_qasm(bench.circuit()));
                fingerprint
                    .push_str(&tracer.span("qubikos.hash", SETUP_OP, || content_hash(&qasm)));
                checks.check(bench.optimal_swaps() == designed, || {
                    format!(
                        "{} instance {i}: designed {designed}, certified {}",
                        arch.name(),
                        bench.optimal_swaps()
                    )
                });
                instances.push(Instance {
                    device: d,
                    designed,
                    bench,
                });
            }
        }
    }
    (archs, instances, content_hash(&fingerprint))
}

/// The semantic part of a solve, for the exact-count check.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SolveCount {
    optimal: Option<usize>,
    proven: bool,
    /// `(k, nodes, outcome)` per feasibility query.
    queries: Vec<(usize, u64, QueryOutcome)>,
}

impl SolveCount {
    fn of(result: &ExactResult) -> Self {
        SolveCount {
            optimal: result.optimal_swaps,
            proven: result.proven,
            queries: result
                .queries
                .iter()
                .map(|q| (q.swaps, q.nodes, q.outcome))
                .collect(),
        }
    }

    fn nodes(&self) -> u64 {
        self.queries.iter().map(|q| q.1).sum()
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let solver = ExactSolver::new(ExactConfig {
        node_budget: NODE_BUDGET,
        ..ExactConfig::default()
    });
    let (((archs, instances, fingerprint), failures), setup_s) = repeated_setup(|_| {
        let mut checks = Checks::default();
        let (archs, instances, fingerprint) = setup(ctx, &mut checks);
        // Warm-up: the first instances of every (device, SWAP count) class
        // are solved once before the clock starts.
        for class in instances.chunk_by(|a, b| a.device == b.device && a.designed == b.designed) {
            for instance in &class[..WARMUP] {
                solver.solve(instance.bench.circuit(), &archs[instance.device]);
            }
        }
        ((archs, instances, fingerprint), checks.into_failures())
    });
    out.run_failures.extend(failures);
    out.report.push(format!(
        "exact: {} and {} instances of {GATES} gates per SWAP count in {SWAPS:?} on {} and {}, \
         node budget {NODE_BUDGET}, input fingerprint {fingerprint}",
        DEVICES[0].1,
        DEVICES[1].1,
        archs[0].name(),
        archs[1].name()
    ));

    let mut first_nodes: BTreeMap<usize, u64> = BTreeMap::new();
    let mut traced_nodes = 0u64;
    let summary = measure(ctx, &mut out, |phase, tally, traced| {
        for (n, instance) in instances.iter().enumerate() {
            let arch = &archs[instance.device];
            let op = tally.attempted + 1;
            let tracer = ctx.tracer(traced);
            let start = Instant::now();
            let (result, certified) = tracer.span(OP_SPAN, op, || {
                let result = tracer.span("exact.solve", op, || {
                    solver.solve(instance.bench.circuit(), arch)
                });
                let certified = tracer.span("qubikos.certificate", op, || {
                    verify_certificate(&instance.bench, arch)
                });
                (result, certified)
            });
            // Classes are (device, SWAP count): solve times within one
            // are alike, so a class median does not hinge on which seeded
            // instances happen to sit at the middle of a mixed bag.
            let class = format!("{}/k{}", arch.name(), instance.designed);
            phase.record(&class, n as u64, start.elapsed());
            if traced {
                traced_nodes += result.nodes_explored;
            }

            let mut checks = Checks::default();
            let name = || format!("{} k{} instance {n}", arch.name(), instance.designed);
            checks.check(certified.is_ok(), || {
                format!("{}: certificate failed: {certified:?}", name())
            });
            checks.check(
                !result.proven || result.optimal_swaps == Some(instance.designed),
                || {
                    format!(
                        "{}: proven optimum {:?}, designed {}",
                        name(),
                        result.optimal_swaps,
                        instance.designed
                    )
                },
            );
            let first = *first_nodes.entry(n).or_insert(result.nodes_explored);
            checks.check(first == result.nodes_explored, || {
                format!(
                    "{}: {} nodes, {first} on the first solve",
                    name(),
                    result.nodes_explored
                )
            });
            tally.record(checks.into_failures());
        }
    });

    if ctx.traced() {
        let count = |solver: &ExactSolver| -> Vec<SolveCount> {
            instances
                .iter()
                .map(|i| SolveCount::of(&solver.solve(i.bench.circuit(), &archs[i.device])))
                .collect()
        };
        let first = count(&solver);
        if first != count(&solver) {
            out.run_failures
                .push("exact: node counts differ between two count passes".into());
        }
        count_metrics(&mut out, &archs, &instances, &first);
        span_metrics(ctx, &mut out);
        let solve_s = out.metrics["exact.solve_ms"] / 1e3 * (summary.ops as f64);
        out.metrics
            .insert("exact.nodes_per_s".into(), traced_nodes as f64 / solve_s);
    } else {
        end_to_end(&mut out, &summary, setup_s);
    }
    out
}

fn count_metrics(
    out: &mut Outcome,
    archs: &[Architecture],
    instances: &[Instance],
    counts: &[SolveCount],
) {
    let mut nodes_by_designed = [0u64; SWAPS.len()];
    let mut queries = 0usize;
    let mut exhausted = 0usize;
    let mut decided = 0usize;
    // (device, designed) → (instances, decided, nodes)
    let mut rows: BTreeMap<(usize, usize), (usize, usize, u64)> = BTreeMap::new();
    for (instance, count) in instances.iter().zip(counts) {
        nodes_by_designed[instance.designed - 1] += count.nodes();
        queries += count.queries.len();
        exhausted += usize::from(
            count
                .queries
                .iter()
                .any(|q| q.2 == QueryOutcome::BudgetExhausted),
        );
        decided += usize::from(count.proven);
        let row = rows
            .entry((instance.device, instance.designed))
            .or_default();
        row.0 += 1;
        row.1 += usize::from(count.proven);
        row.2 += count.nodes();
    }
    let m = &mut out.metrics;
    m.insert(
        "exact.nodes".into(),
        nodes_by_designed.iter().sum::<u64>() as f64,
    );
    for (k, nodes) in nodes_by_designed.iter().enumerate() {
        m.insert(format!("exact.nodes.k{}", k + 1), *nodes as f64);
    }
    m.insert("exact.queries".into(), queries as f64);
    m.insert("exact.budget_exhausted".into(), exhausted as f64);
    m.insert(
        "exact.decided_ratio".into(),
        decided as f64 / instances.len() as f64,
    );
    out.report.push(format!(
        "{:<10} {:>8} {:>10} {:>8} {:>12}",
        "device", "designed", "instances", "decided", "nodes"
    ));
    for ((d, designed), (n, decided, nodes)) in rows {
        out.report.push(format!(
            "{:<10} {designed:>8} {n:>10} {decided:>8} {nodes:>12}",
            archs[d].name()
        ));
    }
}
