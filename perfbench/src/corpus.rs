//! `corpus-cold` workload: the paper's flow over a multi-shard Aspen-4
//! corpus on the execution engine.
//!
//! An op is one pass of the flow over a whole corpus, starting from an
//! empty directory: `export → verify → eval → optimality → analytics`,
//! routing every (tool, circuit) pair. Each round passes over every one of
//! a few seeded corpora. Set-up runs one such pass per corpus and then a
//! warm pass over its filled result cache (nothing routed, the store's read
//! path does the work), which must reproduce the cold reports.

use crate::harness::{measure, repeated_setup, Ctx, EngineSink, EngineTotals, Outcome};
use crate::layers::{end_to_end, span_metrics, OP_SPAN};
use crate::metrics::Checks;
use crate::trace::{Tracer, SETUP_OP};
use qubikos::manifest::content_hash;
use qubikos::{generate, verify_certificate, GeneratorConfig, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_bench::store::{CacheStatsSnapshot, ExportOptions, SuiteStore, VerifyReport};
use qubikos_bench::vfs::{RealVfs, Vfs};
use qubikos_bench::{
    run_suite_analytics_with_sink, run_suite_evaluation_with_sink, run_suite_optimality_with_sink,
    AnalyticsConfig, AnalyticsReport, OptimalityConfig, SuiteEvalConfig, SuiteEvalOutcome,
    SuiteOptimalityOutcome,
};
use qubikos_circuit::{parse_qasm, to_qasm, DependencyDag};
use qubikos_engine::{NullSink, ProgressSink};
use qubikos_layout::ToolKind;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const DEVICE: DeviceKind = DeviceKind::Aspen4;

const WORKLOAD: &str = "corpus-cold";

/// Corpora per run, each its own input. A pass over one takes a few
/// hundred milliseconds, so every corpus is passed over many times in a run
/// and counts with its fastest pass (see `Phase`).
const CORPORA: u64 = 4;

/// Circuits per designed SWAP count; with the paper's four counts
/// {5, 10, 15, 20} a corpus holds 32 instances.
const CIRCUITS_PER_COUNT: usize = 8;

/// Instances per shard: two shards per corpus.
const SHARD_SIZE: usize = 16;

/// Which flow a pass ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Temperature {
    /// Export into an empty directory, then route everything.
    Cold,
    /// Reuse the corpus and result cache an earlier pass wrote.
    Warm,
}

fn suite(ctx: &Ctx, corpus: u64) -> SuiteConfig {
    SuiteConfig::paper_evaluation(DEVICE)
        .with_circuits_per_count(CIRCUITS_PER_COUNT)
        .with_base_seed(ctx.derive_seed(0, corpus))
}

/// The store's filesystem: the real one, minus the disk's durability
/// latency, which on a shared disk swamped every other cost of a pass
/// (corpus passes varied 5x between runs):
/// - durability barriers (`sync_file`, `sync_dir`) are counted, not
///   performed; one fsync took 1 ms to over 100 ms depending on other
///   tenants' writeback. The count stays visible as `store.fsyncs`.
/// - a rename over an existing file first removes the target. On ext4 a
///   replacing rename flushes the new file's data synchronously
///   (`auto_da_alloc`), 15-40 ms per ledger update on a shared virtio
///   disk; without the barrier that flush buys nothing.
#[derive(Debug, Default)]
struct CountingVfs {
    writes: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
}

/// Counter snapshot of a [`CountingVfs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IoCounts {
    writes: u64,
    bytes: u64,
    syncs: u64,
}

impl CountingVfs {
    fn counts(&self) -> IoCounts {
        IoCounts {
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl Vfs for CountingVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealVfs.read_to_string(path)
    }

    fn write(&self, path: &Path, text: &str) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        // Optimality cache entries record a wall-clock time, so their size
        // is not reproducible; every other byte count repeats exactly.
        if !path.to_string_lossy().contains("results/optimality") {
            self.bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
        }
        RealVfs.write(path, text)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match RealVfs.remove_file(to) {
            Err(error) if error.kind() != io::ErrorKind::NotFound => return Err(error),
            _ => {}
        }
        RealVfs.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }

    fn sync_file(&self, _path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Results of the pipeline stages of one pass.
#[derive(Debug)]
struct Flow {
    verify: VerifyReport,
    eval: SuiteEvalOutcome,
    optimality: SuiteOptimalityOutcome,
    analytics: AnalyticsReport,
    /// Store cache counters over the pass.
    cache: CacheStatsSnapshot,
}

/// Everything that must repeat exactly across runs and thread counts.
#[derive(Debug, PartialEq)]
struct FlowCount {
    eval: qubikos_bench::EvaluationReport,
    routed: usize,
    eval_hits: usize,
    optimality: qubikos_bench::OptimalityReport,
    optimality_hits: usize,
    analytics: qubikos_bench::ShardSummary,
    cache: CacheStatsSnapshot,
    io: IoCounts,
}

struct Pipeline<'a> {
    threads: usize,
    tracer: &'a Tracer,
    op: u64,
    sink: &'a dyn ProgressSink,
    vfs: &'a Arc<CountingVfs>,
}

impl Pipeline<'_> {
    fn export(&self, dir: &Path, suite: &SuiteConfig) -> Result<SuiteStore, String> {
        let _ = std::fs::remove_dir_all(dir);
        let options = ExportOptions::default().with_shard_size(SHARD_SIZE);
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        self.tracer
            .span("store.export", self.op, || {
                SuiteStore::export_with_options_on(
                    vfs,
                    dir,
                    DEVICE,
                    suite,
                    &options,
                    self.threads,
                    self.sink,
                )
            })
            .map_err(|e| format!("export: {e}"))?
            .store
            .ok_or_else(|| "export stopped before writing the root index".to_string())
    }

    fn eval(&self, store: &SuiteStore) -> Result<SuiteEvalOutcome, String> {
        let config = SuiteEvalConfig::default().with_threads(self.threads);
        self.tracer
            .span("evaluation.run", self.op, || {
                run_suite_evaluation_with_sink(store, &config, self.sink)
            })
            .map_err(|e| format!("eval: {e}"))
    }

    fn optimality(&self, store: &SuiteStore) -> Result<SuiteOptimalityOutcome, String> {
        let config = OptimalityConfig::paper().with_threads(self.threads);
        self.tracer
            .span("optimality.run", self.op, || {
                run_suite_optimality_with_sink(store, &config, self.sink)
            })
            .map_err(|e| format!("optimality: {e}"))
    }

    /// `verify → eval → optimality → analytics` over an exported store.
    fn flow(&self, store: &SuiteStore) -> Result<Flow, String> {
        let before = store.cache_stats();
        let verify = self
            .tracer
            .span("store.verify", self.op, || {
                store.verify_streaming(self.threads, None, self.sink)
            })
            .map_err(|e| format!("verify: {e}"))?;
        let eval = self.eval(store)?;
        let optimality = self.optimality(store)?;
        let config = AnalyticsConfig::default().with_threads(self.threads);
        let analytics = self
            .tracer
            .span("analytics.run", self.op, || {
                run_suite_analytics_with_sink(store, &config, self.sink)
            })
            .map_err(|e| format!("analytics: {e}"))?;
        Ok(Flow {
            verify,
            eval,
            optimality,
            analytics,
            cache: store.cache_stats().delta_since(&before),
        })
    }
}

/// The reference a pass is checked against: the cold reports of set-up.
struct Reference {
    eval: qubikos_bench::EvaluationReport,
    optimality: qubikos_bench::OptimalityReport,
}

/// Output checks of one pass.
fn check_flow(
    flow: &Flow,
    temperature: Temperature,
    reference: Option<&Reference>,
    total: usize,
) -> Vec<String> {
    let mut checks = Checks::default();
    let pairs = total * ToolKind::ALL.len();
    checks.check(
        flow.verify.failures.is_empty() && flow.verify.complete,
        || format!("verify failed: {:?}", flow.verify.failures),
    );
    checks.check(flow.verify.instances == total, || {
        format!(
            "verify checked {} of {total} instances",
            flow.verify.instances
        )
    });
    let (routed, hits) = match temperature {
        Temperature::Cold => (pairs, 0),
        Temperature::Warm => (0, pairs),
    };
    checks.check(
        flow.eval.routed == routed && flow.eval.cache_hits == hits,
        || {
            format!(
                "eval routed {} and hit {}, expected {routed} and {hits}",
                flow.eval.routed, flow.eval.cache_hits
            )
        },
    );
    checks.check(
        flow.eval.complete && flow.eval.shards_quarantined == 0,
        || "eval skipped or quarantined shards".to_string(),
    );
    let report = &flow.optimality.report;
    checks.check(report.failures == 0 && report.certified == total, || {
        format!(
            "optimality certified {} of {total}, {} failures",
            report.certified, report.failures
        )
    });
    checks.check(
        temperature == Temperature::Cold || flow.optimality.cache_hits == total,
        || {
            format!(
                "warm optimality hit {} of {total}",
                flow.optimality.cache_hits
            )
        },
    );
    let summary = &flow.analytics.summary;
    checks.check(
        summary.instances as usize == total && summary.fully_covered as usize == total,
        || {
            format!(
                "analytics covered {} of {} instances",
                summary.fully_covered, summary.instances
            )
        },
    );
    if let Some(reference) = reference {
        checks.check(flow.eval.report == reference.eval, || {
            "eval report differs from set-up's cold report".to_string()
        });
        checks.check(flow.optimality.report == reference.optimality, || {
            "optimality report differs from set-up's cold report".to_string()
        });
    }
    checks.into_failures()
}

/// Set-up of one corpus: one cold pass, then a warm pass over the same
/// corpus that must reproduce it; the cold reports are the reference.
fn cold_setup(
    pipe: &Pipeline<'_>,
    dir: &Path,
    suite: &SuiteConfig,
    total: usize,
) -> Result<Reference, String> {
    let store = pipe.export(dir, suite)?;
    let cold = pipe.flow(&store)?;
    let mut failures = check_flow(&cold, Temperature::Cold, None, total);
    let reference = Reference {
        eval: cold.eval.report,
        optimality: cold.optimality.report,
    };
    let warm = pipe.flow(&store)?;
    failures.extend(check_flow(
        &warm,
        Temperature::Warm,
        Some(&reference),
        total,
    ));
    if failures.is_empty() {
        Ok(reference)
    } else {
        Err(failures.join("; "))
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let suites: Vec<SuiteConfig> = (0..CORPORA).map(|c| suite(ctx, c)).collect();
    let total = suites[0].total_circuits();
    let setup_dir = ctx.work_dir.join("setup");
    let vfs = Arc::new(CountingVfs::default());
    let (state, setup_s) = repeated_setup(|_| {
        // The store builds the device itself; this standalone build times
        // the arch layer.
        ctx.tracer.span("arch.build", SETUP_OP, || DEVICE.build());
        let pipe = Pipeline {
            threads: ctx.threads,
            tracer: &ctx.tracer,
            op: SETUP_OP,
            sink: &NullSink,
            vfs: &vfs,
        };
        suites
            .iter()
            .enumerate()
            .map(|(c, suite)| cold_setup(&pipe, &setup_dir.join(c.to_string()), suite, total))
            .collect::<Result<Vec<Reference>, String>>()
    });
    let references = match state {
        Ok(references) => references,
        Err(error) => {
            out.run_failures.push(format!("{WORKLOAD} set-up: {error}"));
            out.tally.record(vec!["set-up failed".into()]);
            return out;
        }
    };
    out.report.push(format!(
        "{WORKLOAD}: {CORPORA} aspen-4 corpora of {total} instances in {} shards, SWAP counts {:?}, \
         {} engine threads",
        total.div_ceil(SHARD_SIZE),
        suites[0].swap_counts,
        ctx.threads
    ));

    let pass_dir = ctx.work_dir.join("pass");
    let mut traced_passes = 0u64;
    let mut engine = EngineTotals::default();
    let mut residency_peak = 0usize;
    let mut qasm = QasmTotals::default();
    let summary = measure(ctx, &mut out, |phase, tally, traced| {
        for (c, (suite, reference)) in suites.iter().zip(&references).enumerate() {
            let op = tally.attempted + 1;
            let sink = EngineSink::default();
            let pipe = Pipeline {
                threads: ctx.threads,
                tracer: ctx.tracer(traced),
                op,
                sink: if traced { &sink } else { &NullSink },
                vfs: &vfs,
            };
            let start = Instant::now();
            let result = pipe.tracer.span(OP_SPAN, op, || {
                pipe.export(&pass_dir, suite)
                    .and_then(|store| Ok((pipe.flow(&store)?, store)))
            });
            phase.record(WORKLOAD, c as u64, start.elapsed());
            let mut failures = match &result {
                Ok((flow, _)) => check_flow(flow, Temperature::Cold, Some(reference), total),
                Err(error) => vec![error.clone()],
            };
            if let (true, Ok((_, store))) = (traced, &result) {
                traced_passes += 1;
                residency_peak = residency_peak.max(store.residency_peak());
                engine.add(&sink.totals());
                failures.extend(trace_standalone(
                    ctx,
                    op,
                    store,
                    suite.two_qubit_gates,
                    &mut qasm,
                ));
            }
            tally.record(failures);
            let _ = std::fs::remove_dir_all(&pass_dir);
        }
    });

    if ctx.traced() {
        count_check(ctx, &mut out, &suites[0], total);
        span_metrics(ctx, &mut out);
        let passes = traced_passes.max(1) as f64;
        let m = &mut out.metrics;
        m.insert("engine.jobs".into(), engine.jobs as f64 / passes);
        m.insert(
            "engine.busy_s".into(),
            engine.busy_micros as f64 / 1e6 / passes,
        );
        m.insert(
            "engine.wall_s".into(),
            engine.wall_micros as f64 / 1e6 / passes,
        );
        m.insert(
            "engine.utilization".into(),
            engine.busy_micros as f64 / (engine.wall_micros.max(1) as f64 * ctx.threads as f64),
        );
        m.insert(
            "engine.job_max_ms".into(),
            engine.job_max_micros as f64 / 1e3,
        );
        m.insert("store.residency_peak".into(), residency_peak as f64);
        m.insert(
            "circuit.qasm_bytes".into(),
            qasm.bytes as f64 / qasm.emits.max(1) as f64,
        );
    } else {
        end_to_end(&mut out, &summary, setup_s);
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    out
}

/// Emitted QASM texts and their total size.
#[derive(Debug, Default)]
struct QasmTotals {
    emits: u64,
    bytes: u64,
}

/// Layer calls made only in the traced run, beside a pass: every shard
/// loaded on its own, and for every instance the per-instance work the
/// store does inside (emit, hash, parse, regenerate) plus a dependency DAG
/// and the certificate check. Returns failed checks.
fn trace_standalone(
    ctx: &Ctx,
    op: u64,
    store: &SuiteStore,
    gates: usize,
    qasm: &mut QasmTotals,
) -> Vec<String> {
    let tracer = &ctx.tracer;
    let mut checks = Checks::default();
    let arch = tracer.span("arch.build", op, || DEVICE.build());
    for shard in 0..store.shard_count() {
        let loaded = match tracer.span("store.load_shard", op, || store.load_shard(shard)) {
            Ok(loaded) => loaded,
            Err(error) => {
                checks.check(false, || format!("load_shard {shard}: {error}"));
                continue;
            }
        };
        for point in loaded.points() {
            let circuit = point.benchmark.circuit();
            let text = tracer.span("circuit.qasm_emit", op, || to_qasm(circuit));
            qasm.emits += 1;
            qasm.bytes += text.len() as u64;
            tracer.span("qubikos.hash", op, || content_hash(&text));
            let parsed = tracer.span("circuit.qasm_parse", op, || parse_qasm(&text));
            checks.check(parsed.as_ref().is_ok_and(|p| p == circuit), || {
                format!(
                    "shard {shard} seed {}: QASM does not round-trip",
                    point.seed
                )
            });
            tracer.span("circuit.dag_build", op, || {
                DependencyDag::from_circuit(circuit)
            });
            let config = GeneratorConfig::new(point.swap_count, gates).with_seed(point.seed);
            let regenerated = tracer.span("qubikos.generate", op, || generate(&arch, &config));
            checks.check(regenerated.is_ok_and(|b| b.circuit() == circuit), || {
                format!("shard {shard} seed {}: regeneration differs", point.seed)
            });
            let certified = tracer.span("qubikos.certificate", op, || {
                verify_certificate(&point.benchmark, &arch)
            });
            checks.check(certified.is_ok(), || {
                format!("shard {shard} seed {}: certificate failed", point.seed)
            });
        }
    }
    checks.into_failures()
}

/// One untraced cold pass in a fresh directory at `threads`, reduced to the
/// counts that must repeat exactly.
fn count_flow(ctx: &Ctx, threads: usize, suite: &SuiteConfig) -> Result<FlowCount, String> {
    let dir = ctx.work_dir.join(format!("count-{threads}"));
    let vfs = Arc::new(CountingVfs::default());
    let pipe = Pipeline {
        threads,
        tracer: &ctx.untraced,
        op: SETUP_OP,
        sink: &NullSink,
        vfs: &vfs,
    };
    // Filesystem counts cover the measured op, export included.
    let store = pipe.export(&dir, suite)?;
    let flow = pipe.flow(&store)?;
    let io = vfs.counts();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(FlowCount {
        eval: flow.eval.report,
        routed: flow.eval.routed,
        eval_hits: flow.eval.cache_hits,
        optimality: flow.optimality.report,
        optimality_hits: flow.optimality.cache_hits,
        analytics: flow.analytics.summary,
        cache: flow.cache,
        io,
    })
}

/// The exact-count check on the first corpus: a pass at one engine thread
/// and a pass at the run's thread count must agree on every count; their
/// values become the per-layer counters.
fn count_check(ctx: &Ctx, out: &mut Outcome, suite: &SuiteConfig, total: usize) {
    let single = count_flow(ctx, 1, suite);
    let multi = count_flow(ctx, ctx.threads, suite);
    let count = match (single, multi) {
        (Ok(single), Ok(multi)) => {
            if single != multi {
                out.run_failures.push(format!(
                    "{WORKLOAD}: counts differ between 1 and {} engine threads",
                    ctx.threads
                ));
            }
            multi
        }
        (Err(error), _) | (_, Err(error)) => {
            out.run_failures
                .push(format!("{WORKLOAD} count pass: {error}"));
            return;
        }
    };
    let m = &mut out.metrics;
    m.insert("store.files_written".into(), count.io.writes as f64);
    m.insert("store.bytes_written".into(), count.io.bytes as f64);
    m.insert("store.fsyncs".into(), count.io.syncs as f64);
    m.insert("store.cache_hits".into(), count.cache.hits as f64);
    m.insert("store.cache_misses".into(), count.cache.misses as f64);
    m.insert(
        "store.cache_corrupt".into(),
        count.cache.corrupt_entries as f64,
    );
    m.insert("evaluation.routed".into(), count.routed as f64);
    m.insert("evaluation.cache_hits".into(), count.eval_hits as f64);
    m.insert("optimality.cache_hits".into(), count.optimality_hits as f64);
    out.report
        .push(format!("{:<11} {:>6} {:>10}", "tool", "gap", "instances"));
    for tool in ToolKind::ALL {
        let gap = count.eval.device_gap(tool).unwrap_or(0.0);
        m.insert(format!("gap.{}", tool.name()), gap);
        out.report
            .push(format!("{:<11} {gap:>6.3} {total:>10}", tool.name()));
    }
}
