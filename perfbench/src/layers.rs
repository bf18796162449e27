//! Turns measured phases and recorded spans into metric values.

use crate::harness::{peak_rss_mb, Ctx, Outcome, PhaseSummary};
use crate::metrics::SELF_TIME_LAYERS;
use crate::trace::{self_ns_by_layer, to_json, totals_by_name, SETUP_OP};

/// Span names whose mean duration is a per-layer metric in milliseconds.
const MEAN_MS: [(&str, &str); 16] = [
    ("arch.build", "arch.build_ms"),
    ("circuit.qasm_emit", "circuit.qasm_emit_ms"),
    ("circuit.qasm_parse", "circuit.qasm_parse_ms"),
    ("circuit.dag_build", "circuit.dag_build_ms"),
    ("qubikos.generate", "qubikos.generate_ms"),
    ("qubikos.hash", "qubikos.hash_ms"),
    ("qubikos.certificate", "qubikos.certificate_ms"),
    ("layout.route.lightsabre", "layout.route_ms.lightsabre"),
    ("layout.route.ml-qls", "layout.route_ms.ml-qls"),
    ("layout.route.qmap", "layout.route_ms.qmap"),
    ("layout.route.tket", "layout.route_ms.tket"),
    ("layout.problem_build", "layout.problem_build_ms"),
    ("layout.placement", "layout.placement_ms"),
    ("layout.validate", "layout.validate_ms"),
    ("exact.solve", "exact.solve_ms"),
    ("store.load_shard", "store.load_shard_ms"),
];

/// Span names whose mean duration is a per-layer metric in seconds.
const MEAN_S: [(&str, &str); 5] = [
    ("store.export", "store.export_s"),
    ("store.verify", "store.verify_s"),
    ("evaluation.run", "evaluation.wall_s"),
    ("optimality.run", "optimality.wall_s"),
    ("analytics.run", "analytics.wall_s"),
];

/// The name of the span around each measured op.
pub const OP_SPAN: &str = "bench.op";

/// Inserts the end-to-end metrics of an untraced run.
pub fn end_to_end(out: &mut Outcome, summary: &PhaseSummary, setup_s: f64) {
    let m = &mut out.metrics;
    m.insert("ops_per_s".into(), summary.ops_per_s);
    m.insert("op_p50_ms".into(), summary.p50_ms);
    m.insert("op_tail_ms".into(), summary.tail_ms);
    m.insert("setup_s".into(), setup_s);
    out.report.push(format!(
        "end-to-end: {} ops, {:.4} op/s, p50 {:.4} ms, tail {:.4} ms, setup {:.4} s, peak RSS {:.1} MB",
        summary.ops,
        summary.ops_per_s,
        summary.p50_ms,
        summary.tail_ms,
        setup_s,
        peak_rss_mb()
    ));
}

/// Inserts the traced run's own end-to-end numbers and its overhead against
/// the untraced half of the same run.
pub fn trace_overhead(out: &mut Outcome, untraced: &PhaseSummary, traced: &PhaseSummary) {
    let slowdown = untraced.ops_per_s / traced.ops_per_s;
    let m = &mut out.metrics;
    m.insert("trace.ops_per_s".into(), traced.ops_per_s);
    m.insert("trace.untraced_ops_per_s".into(), untraced.ops_per_s);
    m.insert("trace.slowdown".into(), slowdown);
    out.report.push(format!(
        "tracing overhead: untraced {:.4} op/s (p50 {:.4} ms, tail {:.4} ms), traced {:.4} op/s \
         (p50 {:.4} ms, tail {:.4} ms): slowdown x{slowdown:.4}",
        untraced.ops_per_s,
        untraced.p50_ms,
        untraced.tail_ms,
        traced.ops_per_s,
        traced.p50_ms,
        traced.tail_ms
    ));
}

/// Inserts the span-derived per-layer metrics and writes the spans out.
pub fn span_metrics(ctx: &Ctx, out: &mut Outcome) {
    let spans = ctx.tracer.spans();
    // A call made both in set-up and in measured ops is reported from the
    // ops alone (corpus-cold's set-up runs cold and warm passes); a call made
    // only in set-up, such as a device build, from set-up.
    let op_totals = totals_by_name(&spans, |s| s.op != SETUP_OP);
    let setup_totals = totals_by_name(&spans, |s| s.op == SETUP_OP);
    let mean = |name: &str| {
        op_totals
            .get(name)
            .or_else(|| setup_totals.get(name))
            .map_or(0.0, |t| t.mean_ms())
    };
    for (span, metric) in MEAN_MS {
        out.metrics.insert(metric.into(), mean(span));
    }
    for (span, metric) in MEAN_S {
        out.metrics.insert(metric.into(), mean(span) / 1e3);
    }
    let ops = op_totals.get(OP_SPAN).map_or(0, |t| t.calls).max(1) as f64;
    let self_ns = self_ns_by_layer(&spans);
    for layer in SELF_TIME_LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        out.metrics
            .insert(format!("self_ms.{layer}"), ns as f64 / 1e6 / ops);
    }
    let op_spans: u64 = op_totals.values().map(|t| t.calls).sum();
    out.metrics
        .insert("trace.spans_per_op".into(), op_spans as f64 / ops);
    // Peak memory depends on the largest input of the seed (one hard QMAP
    // instance tripled it), so it is reported here, without a bound.
    out.metrics.insert("peak_rss_mb".into(), peak_rss_mb());

    out.report.push(format!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span (measured ops)", "calls", "mean ms", "self ms/op"
    ));
    for (name, t) in &op_totals {
        out.report.push(format!(
            "{name:<28} {:>8} {:>12.4} {:>12.4}",
            t.calls,
            t.mean_ms(),
            t.self_ns as f64 / 1e6 / ops
        ));
    }
    out.report.push(format!(
        "{:<28} {:>8} {:>12}",
        "span (set-up)", "calls", "mean ms"
    ));
    for (name, t) in &setup_totals {
        out.report
            .push(format!("{name:<28} {:>8} {:>12.4}", t.calls, t.mean_ms()));
    }
    match std::fs::write(&ctx.spans_path, to_json(&spans)) {
        Ok(()) => out.report.push(format!(
            "{} spans written to {}",
            spans.len(),
            ctx.spans_path.display()
        )),
        Err(error) => out
            .run_failures
            .push(format!("writing {}: {error}", ctx.spans_path.display())),
    }
}
