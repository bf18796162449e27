//! Plain-text rendering of experiment reports, mirroring the rows the paper
//! plots in Figure 4 and quotes in the text.

use crate::ablations::{AblationReport, MatrixReport};
use crate::analytics::{AnalyticsReport, GAP_BUCKET_EDGES};
use crate::case_study::CaseStudyOutcome;
use crate::evaluation::EvaluationReport;
use crate::optimality::OptimalityReport;
use qubikos_layout::ToolKind;
use std::fmt::Write as _;

/// Renders one device's Figure-4 data as a table: rows are tools, columns are
/// the designed SWAP counts, entries are the average SWAP ratio.
pub fn render_evaluation(report: &EvaluationReport) -> String {
    let mut counts: Vec<usize> = report.cells.iter().map(|c| c.optimal_swaps).collect();
    counts.sort_unstable();
    counts.dedup();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "SWAP ratio (average inserted / optimal) on {}",
        report.device.name()
    );
    let _ = write!(out, "{:<12}", "tool");
    for c in &counts {
        let _ = write!(out, "{:>12}", format!("opt={c}"));
    }
    let _ = writeln!(out, "{:>12}", "device gap");
    for tool in ToolKind::ALL {
        let cells = report.cells_for(tool);
        if cells.is_empty() {
            continue;
        }
        let _ = write!(out, "{:<12}", tool.name());
        for c in &counts {
            match cells.iter().find(|cell| cell.optimal_swaps == *c) {
                Some(cell) => {
                    let _ = write!(out, "{:>12.2}", cell.swap_ratio);
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        let gap = report.device_gap(tool).unwrap_or(f64::NAN);
        let _ = writeln!(out, "{gap:>11.2}x");
    }
    out
}

/// Renders the abstract's headline per-tool aggregate gaps.
pub fn render_aggregate(aggregate: &[(ToolKind, f64)]) -> String {
    let mut out = String::from("Aggregate optimality gap across devices\n");
    for (tool, gap) in aggregate {
        let _ = writeln!(out, "  {:<12}{gap:>8.2}x", tool.name());
    }
    out
}

/// Renders the §IV-A optimality-study summary: the headline line plus the
/// exact solver's per-`k` budget breakdown, so the study output shows where
/// the search nodes went. Every figure in it repeats from run to run and at
/// any thread count; the wall-clock goes to [`render_exact_wall_clock`].
pub fn render_optimality(report: &OptimalityReport) -> String {
    let mut out = format!(
        "optimality study: {} circuits, {} certified, {} exhaustively confirmed, {} over exact budget, {} failures\n",
        report.circuits,
        report.certified,
        report.exactly_confirmed,
        report.exact_budget_exceeded,
        report.failures
    );
    if report.exact_nodes > 0 {
        let _ = writeln!(out, "exact solver: {} nodes", report.exact_nodes);
        for entry in &report.exact_nodes_by_k {
            let _ = writeln!(
                out,
                "  k={}: {} queries, {} nodes",
                entry.swaps, entry.queries, entry.nodes
            );
        }
    }
    out
}

/// Renders the exact solver's wall-clock, summed over jobs, as one line
/// for stderr: a timing differs between two runs, so it stays out of the
/// report that [`render_optimality`] prints. `None` when no exact search ran.
pub fn render_exact_wall_clock(report: &OptimalityReport) -> Option<String> {
    (report.exact_nodes > 0).then(|| {
        format!(
            "exact solver: {:.1} ms wall-clock (summed over jobs)",
            report.exact_wall_micros as f64 / 1e3
        )
    })
}

/// Renders the §IV-C case-study comparison.
pub fn render_case_study(outcome: &CaseStudyOutcome) -> String {
    format!(
        "LightSABRE lookahead case study on {} ({} circuits, optimal initial mapping supplied)\n\
         uniform lookahead : ratio {:.2}x, optimal on {}/{} circuits\n\
         decayed lookahead : ratio {:.2}x (decay {}), optimal on {}/{} circuits\n",
        outcome.device.name(),
        outcome.circuits,
        outcome.uniform_lookahead_ratio,
        outcome.uniform_optimal,
        outcome.circuits,
        outcome.decayed_lookahead_ratio,
        outcome.decay,
        outcome.decayed_optimal,
        outcome.circuits
    )
}

/// Renders the streaming corpus analytics: per-tool coverage, optimality
/// and win counts, the gap-distribution histograms, and the scaling curves.
/// Every ratio is derived from the integer fold here, at render time, so
/// the rendered text is bit-identical for any thread count.
pub fn render_analytics(report: &AnalyticsReport) -> String {
    let summary = &report.summary;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus analytics on {}: {} instances in {} shards, {} fully covered (tool seed {})",
        report.device.name(),
        summary.instances,
        report.shards,
        summary.fully_covered,
        report.tool_seed
    );
    if report.shards_quarantined > 0 || report.cache.corrupt_entries > 0 {
        let _ = writeln!(
            out,
            "degraded: {} shard(s) quarantined, {} corrupt cache entr(ies) quarantined",
            report.shards_quarantined, report.cache.corrupt_entries
        );
    }
    let _ = writeln!(
        out,
        "{:<12}{:>10}{:>10}{:>10}{:>12}",
        "tool", "covered", "optimal", "wins", "agg ratio"
    );
    for tool in &summary.tools {
        let ratio = if tool.sum_designed > 0 {
            tool.sum_swaps as f64 / tool.sum_designed as f64
        } else {
            f64::NAN
        };
        let _ = writeln!(
            out,
            "{:<12}{:>10}{:>10}{:>10}{:>11.2}x",
            tool.tool.name(),
            tool.covered,
            tool.optimal,
            tool.wins,
            ratio
        );
    }
    let _ = writeln!(
        out,
        "gap histogram (upper edges {GAP_BUCKET_EDGES:?}, then overflow)"
    );
    for tool in &summary.tools {
        if tool.covered == 0 {
            continue;
        }
        let _ = write!(out, "  {:<12}", tool.tool.name());
        for count in &tool.gap_histogram {
            let _ = write!(out, "{count:>7}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "scaling (average inserted SWAPs by designed count)");
    for tool in &summary.tools {
        if tool.scaling.is_empty() {
            continue;
        }
        let _ = write!(out, "  {:<12}", tool.tool.name());
        for point in &tool.scaling {
            let _ = write!(
                out,
                " {}:{:.2}",
                point.designed,
                point.sum_swaps as f64 / point.instances as f64
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the three ablation sweeps as the tables the `ablations` binary
/// prints.
pub fn render_ablations(report: &AblationReport) -> String {
    let mut out = String::new();
    let device = report.device.name();
    let _ = writeln!(out, "SABRE trial-count ablation on {device}");
    for point in &report.trial_counts {
        let _ = writeln!(
            out,
            "  trials={:<3} mean swap ratio {:.2}x",
            point.parameter, point.mean_swap_ratio
        );
    }
    let _ = writeln!(out, "SABRE extended-set-size ablation on {device}");
    for point in &report.extended_set_sizes {
        let _ = writeln!(
            out,
            "  extended-set={:<3} mean swap ratio {:.2}x",
            point.parameter, point.mean_swap_ratio
        );
    }
    let _ = writeln!(
        out,
        "Padding ablation on {device} (optimal swaps = {})",
        report.padding_swap_count
    );
    for point in &report.padding_gate_budgets {
        let _ = writeln!(
            out,
            "  two-qubit gates={:<4} mean swap ratio {:.2}x",
            point.parameter, point.mean_swap_ratio
        );
    }
    out
}

/// Renders the ranked composition matrix: one row per composition, best
/// mean gap first. The id doubles as the cache namespace, so a row can be
/// correlated with its `results/<id>/` entries directly.
pub fn render_composition_matrix(report: &MatrixReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "composition matrix on {}: {} compositions ranked over {} known-optimal instances",
        report.device.name(),
        report.compositions.len(),
        report.instances
    );
    let _ = writeln!(
        out,
        "{:>4}  {:<44}{:>10}{:>10}{:>10}{:>12}",
        "rank", "composition", "mean gap", "win rate", "optimal", "avg swaps"
    );
    for (rank, row) in report.compositions.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4}  {:<44}{:>9.2}x{:>9.0}%{:>10}{:>12.2}",
            rank + 1,
            row.id,
            row.mean_gap,
            row.win_rate * 100.0,
            row.optimal,
            row.average_swaps
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablations::AblationPoint;
    use crate::evaluation::EvaluationCell;
    use qubikos_arch::DeviceKind;

    fn sample_report() -> EvaluationReport {
        EvaluationReport {
            device: DeviceKind::Aspen4,
            cells: vec![
                EvaluationCell {
                    tool: ToolKind::LightSabre,
                    optimal_swaps: 5,
                    circuits: 10,
                    average_swaps: 7.0,
                    swap_ratio: 1.4,
                },
                EvaluationCell {
                    tool: ToolKind::LightSabre,
                    optimal_swaps: 10,
                    circuits: 10,
                    average_swaps: 25.0,
                    swap_ratio: 2.5,
                },
                EvaluationCell {
                    tool: ToolKind::Tket,
                    optimal_swaps: 5,
                    circuits: 10,
                    average_swaps: 70.0,
                    swap_ratio: 14.0,
                },
            ],
        }
    }

    #[test]
    fn evaluation_table_contains_tools_and_counts() {
        let text = render_evaluation(&sample_report());
        assert!(text.contains("aspen-4"));
        assert!(text.contains("lightsabre"));
        assert!(text.contains("tket"));
        assert!(text.contains("opt=5"));
        assert!(text.contains("1.40"));
        assert!(text.contains("14.00"));
    }

    #[test]
    fn aggregate_table_lists_gaps() {
        let text = render_aggregate(&[(ToolKind::LightSabre, 1.95), (ToolKind::Qmap, 207.0)]);
        assert!(text.contains("lightsabre"));
        assert!(text.contains("207.00x"));
    }

    #[test]
    fn optimality_and_case_study_render() {
        use crate::optimality::ExactNodesAtK;
        let text = render_optimality(&OptimalityReport {
            circuits: 10,
            certified: 10,
            exactly_confirmed: 5,
            exact_budget_exceeded: 0,
            failures: 0,
            exact_nodes: 1500,
            exact_nodes_by_k: vec![
                ExactNodesAtK {
                    swaps: 1,
                    queries: 5,
                    nodes: 500,
                },
                ExactNodesAtK {
                    swaps: 2,
                    queries: 3,
                    nodes: 1000,
                },
            ],
            exact_wall_micros: 2500,
        });
        assert!(text.contains("10 circuits"));
        assert!(text.contains("1500 nodes"));
        assert!(text.contains("k=1: 5 queries, 500 nodes"));
        assert!(text.contains("k=2: 3 queries, 1000 nodes"));
        assert!(
            !text.contains("wall-clock (summed"),
            "timing belongs on stderr"
        );
        let text = render_case_study(&CaseStudyOutcome {
            device: DeviceKind::Aspen4,
            circuits: 4,
            uniform_lookahead_ratio: 1.5,
            decayed_lookahead_ratio: 1.2,
            decay: 0.7,
            uniform_optimal: 2,
            decayed_optimal: 3,
        });
        assert!(text.contains("uniform lookahead"));
        assert!(text.contains("decay 0.7"));
    }

    #[test]
    fn exact_wall_clock_renders_for_stderr() {
        let report = OptimalityReport {
            exact_nodes: 1500,
            exact_wall_micros: 2500,
            ..OptimalityReport::default()
        };
        let line = render_exact_wall_clock(&report).expect("exact search ran");
        assert_eq!(line, "exact solver: 2.5 ms wall-clock (summed over jobs)");
        let idle = OptimalityReport::default();
        assert_eq!(render_exact_wall_clock(&idle), None);
    }

    #[test]
    fn analytics_table_renders_rates_and_curves() {
        use crate::analytics::ShardSummary;
        let mut summary = ShardSummary::empty(&[ToolKind::LightSabre, ToolKind::Tket]);
        summary.add_instance(5, &[Some(5), Some(9)]);
        summary.add_instance(10, &[Some(14), None]);
        let text = render_analytics(&AnalyticsReport {
            device: DeviceKind::Grid3x3,
            tool_seed: 7,
            shards: 2,
            shards_quarantined: 0,
            cache: crate::store::CacheStatsSnapshot::default(),
            summary,
        });
        assert!(text.contains("2 instances in 2 shards"));
        assert!(!text.contains("degraded:"));
        assert!(text.contains("1 fully covered"));
        assert!(text.contains("lightsabre"));
        assert!(text.contains("tket"));
        // lightsabre: (5 + 14) / (5 + 10) ≈ 1.27
        assert!(text.contains("1.27x"));
        // Scaling: lightsabre averages 5.00 at designed 5 and 14.00 at 10.
        assert!(text.contains("5:5.00"));
        assert!(text.contains("10:14.00"));
        assert!(text.contains("gap histogram"));
    }

    #[test]
    fn ablation_tables_render_every_sweep() {
        let text = render_ablations(&AblationReport {
            device: DeviceKind::Aspen4,
            trial_counts: vec![AblationPoint {
                parameter: 4,
                mean_swap_ratio: 1.5,
            }],
            extended_set_sizes: vec![AblationPoint {
                parameter: 20,
                mean_swap_ratio: 1.3,
            }],
            padding_gate_budgets: vec![AblationPoint {
                parameter: 200,
                mean_swap_ratio: 1.8,
            }],
            padding_swap_count: 6,
        });
        assert!(text.contains("trials=4"));
        assert!(text.contains("extended-set=20"));
        assert!(text.contains("two-qubit gates=200"));
        assert!(text.contains("optimal swaps = 6"));
    }

    #[test]
    fn composition_matrix_renders_ranked_rows() {
        use crate::ablations::CompositionSummary;
        use qubikos_layout::RouterSpec;
        let row = |id: &str, gap: f64, wins: usize| CompositionSummary {
            id: id.to_string(),
            spec: RouterSpec::tket(),
            instances: 4,
            average_swaps: 3.25,
            mean_gap: gap,
            wins,
            win_rate: wins as f64 / 4.0,
            optimal: wins,
        };
        let text = render_composition_matrix(&MatrixReport {
            device: DeviceKind::Grid3x3,
            instances: 4,
            compositions: vec![
                row("g1x1s16.front.nodecay.idxtie.bfs.uw", 1.25, 4),
                row("astar256.front.nodecay.idxtie.ident.uw", 2.5, 1),
            ],
        });
        assert!(text.contains("2 compositions ranked over 4 known-optimal instances"));
        assert!(text.contains("   1  g1x1s16.front.nodecay.idxtie.bfs.uw"));
        assert!(text.contains("   2  astar256.front.nodecay.idxtie.ident.uw"));
        assert!(text.contains("1.25x"));
        assert!(text.contains("100%"));
    }
}
