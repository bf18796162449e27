//! Metric names, the result line, and failure counting.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run, in `BENCHMARK.json`
/// order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Layers that report a self time (`self_ms.<layer>`), by module name;
/// `bench` is the harness's own time inside an op.
pub const SELF_TIME_LAYERS: [&str; 10] = [
    "bench",
    "arch",
    "circuit",
    "qubikos",
    "layout",
    "exact",
    "store",
    "evaluation",
    "optimality",
    "analytics",
];

/// Per-layer metrics other than self times, printed by every traced run
/// (0 where a workload does not reach the layer), in `BENCHMARK.json`
/// order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("arch.build_ms", "ms"),
    ("graph.queries", "count"),
    ("graph.rows_computed", "count"),
    ("graph.cache_hits", "count"),
    ("graph.landmark_queries", "count"),
    ("graph.exact_fallbacks", "count"),
    ("graph.fallback_ratio", "ratio"),
    ("circuit.qasm_emit_ms", "ms"),
    ("circuit.qasm_parse_ms", "ms"),
    ("circuit.qasm_bytes", "bytes"),
    ("circuit.dag_build_ms", "ms"),
    ("qubikos.generate_ms", "ms"),
    ("qubikos.hash_ms", "ms"),
    ("qubikos.certificate_ms", "ms"),
    ("layout.route_ms.lightsabre", "ms"),
    ("layout.route_ms.ml-qls", "ms"),
    ("layout.route_ms.qmap", "ms"),
    ("layout.route_ms.tket", "ms"),
    ("layout.swaps.lightsabre", "count"),
    ("layout.swaps.ml-qls", "count"),
    ("layout.swaps.qmap", "count"),
    ("layout.swaps.tket", "count"),
    ("layout.problem_build_ms", "ms"),
    ("layout.placement_ms", "ms"),
    ("layout.validate_ms", "ms"),
    ("gap.lightsabre", "x"),
    ("gap.ml-qls", "x"),
    ("gap.qmap", "x"),
    ("gap.tket", "x"),
    ("exact.solve_ms", "ms"),
    ("exact.nodes", "count"),
    ("exact.nodes.k1", "count"),
    ("exact.nodes.k2", "count"),
    ("exact.nodes.k3", "count"),
    ("exact.queries", "count"),
    ("exact.budget_exhausted", "count"),
    ("exact.nodes_per_s", "1/s"),
    ("exact.decided_ratio", "ratio"),
    ("engine.jobs", "count"),
    ("engine.busy_s", "s"),
    ("engine.wall_s", "s"),
    ("engine.utilization", "ratio"),
    ("engine.job_max_ms", "ms"),
    ("store.export_s", "s"),
    ("store.verify_s", "s"),
    ("store.load_shard_ms", "ms"),
    ("store.files_written", "count"),
    ("store.bytes_written", "bytes"),
    ("store.fsyncs", "count"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.cache_corrupt", "count"),
    ("store.residency_peak", "count"),
    ("evaluation.wall_s", "s"),
    ("evaluation.routed", "count"),
    ("evaluation.cache_hits", "count"),
    ("optimality.wall_s", "s"),
    ("optimality.cache_hits", "count"),
    ("analytics.wall_s", "s"),
    ("trace.ops_per_s", "op/s"),
    ("trace.slowdown", "x"),
    ("trace.spans_per_op", "count"),
    ("trace.untraced_ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit: [`PER_LAYER`] then the self times.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(
            SELF_TIME_LAYERS
                .iter()
                .map(|layer| (format!("self_ms.{layer}"), "ms")),
        )
        .collect()
}

/// Whether `name` is a valid metric name: at most 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of `schema` by name with its unit, taking values from `values`.
///
/// # Panics
///
/// Panics if a schema name is invalid or repeated, or a value is missing or
/// not finite: each is a bug in the benchmark, not in the program measured.
pub fn result_line(
    correct: bool,
    tally: &Tally,
    schema: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut metrics = String::new();
    for (i, (name, unit)) in schema.iter().enumerate() {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(seen.insert(name), "metric {name} listed twice");
        let value = values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted, tally.failed
    )
}

/// Attempted and failed ops. An op fails when any of its output checks
/// fails; each failed check is kept as a message.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one op whose failed checks are `failures` (empty: passed).
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.messages.extend(failures);
        }
    }
}

/// Collects the failed checks of one op.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Records `message` when `ok` is false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.0.push(message());
        }
    }

    /// The failed checks.
    pub fn into_failures(self) -> Vec<String> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("gap.ml-qls"));
        assert!(valid_name("self_ms.store"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name(".dot"));
        assert!(!valid_name("gap/ratio"));
        assert!(!valid_name("gap ratio"));
        assert!(!valid_name("gap×"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_listed_metric_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
                .collect()
        };
        let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed("per_layer"), per_layer);
    }

    #[test]
    fn failures_count_ops_not_checks() {
        let mut tally = Tally::default();
        tally.record(Vec::new());
        let mut checks = Checks::default();
        checks.check(false, || "swaps below optimum".into());
        checks.check(false, || "routing invalid".into());
        checks.check(true, || unreachable!("passing checks build no message"));
        tally.record(checks.into_failures());
        tally.record(Vec::new());
        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.messages.len(), 2);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(Vec::new());
        let schema = vec![
            ("ops_per_s".to_string(), "op/s"),
            ("setup_s".to_string(), "s"),
        ];
        let values = BTreeMap::from([
            ("ops_per_s".to_string(), 12.5),
            ("setup_s".to_string(), 0.25),
        ]);
        assert_eq!(
            result_line(true, &tally, &schema, &values),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"ops_per_s\": \
             {\"value\": 12.5, \"unit\": \"op/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
