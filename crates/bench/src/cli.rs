//! The command layer of the unified `qubikos` CLI.
//!
//! Every experiment entry point (`eval`, `optimality`, `case-study`,
//! `ablations`, `analytics`, `suite export`, `suite verify`) is one function
//! taking the raw argument list, with one flag vocabulary. Commands return
//! a process exit code with one meaning per failure class, so scripts and
//! CI can react without parsing stderr:
//!
//! | code | meaning |
//! |------|---------|
//! | [`EXIT_OK`] (0) | the run completed and every check passed |
//! | [`EXIT_POLICY`] (1) | the run completed but violated a caller policy (e.g. `--require-cached` with a cold cache) |
//! | [`EXIT_USAGE`] (2) | bad usage, configuration, or an I/O / store error (`Err` from a command) |
//! | [`EXIT_VERIFY`] (3) | the run completed and found verification or optimality failures |
//! | [`EXIT_TIMEOUT`] (4) | the run completed with no failures, but at least one job exceeded its wall-clock deadline |

use crate::ablations::{
    run_ablations_with_sink, run_composition_matrix, AblationConfig, MatrixConfig,
};
use crate::analytics::{run_suite_analytics_with_sink, AnalyticsConfig};
use crate::case_study::{run_case_study, CaseStudyConfig};
use crate::evaluation::{
    aggregate_by_tool, run_suite_evaluation_with_sink, run_tool_evaluation_with_sink,
    EvaluationConfig, SuiteEvalConfig,
};
use crate::optimality::{
    run_optimality_study_with_sink, run_suite_optimality_with_sink, OptimalityConfig,
};
use crate::report::{
    render_ablations, render_aggregate, render_analytics, render_case_study,
    render_composition_matrix, render_evaluation, render_optimality,
};
use crate::store::{ExportOptions, SuiteStore};
use qubikos_arch::DeviceKind;
use qubikos_engine::{StderrProgress, AUTO_THREADS};
use qubikos_layout::{ToolKind, ToolParseError};

/// Exit code: the run completed and every check passed.
pub const EXIT_OK: i32 = 0;
/// Exit code: the run completed but violated a caller-supplied policy, such
/// as `--require-cached` on a cache that had to route pairs fresh.
pub const EXIT_POLICY: i32 = 1;
/// Exit code: bad usage, bad configuration, or an I/O / store error — every
/// `Err` a command returns maps here.
pub const EXIT_USAGE: i32 = 2;
/// Exit code: the run completed and found verification or optimality
/// failures (corrupt instances, uncertified circuits).
pub const EXIT_VERIFY: i32 = 3;
/// Exit code: the run completed with zero failures, but at least one job
/// exceeded its per-job wall-clock deadline, so some circuits degraded to
/// `unproven` instead of being exhaustively confirmed.
pub const EXIT_TIMEOUT: i32 = 4;

/// What a command hands back to `main`: a process exit code, or an error to
/// render on stderr (exit code [`EXIT_USAGE`]).
pub type CommandOutcome = Result<i32, Box<dyn std::error::Error>>;

/// Renders a command outcome and exits the process accordingly.
pub fn exit_with(outcome: CommandOutcome) -> ! {
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Maps a completed report's failure and timeout counts to an exit code:
/// failures dominate ([`EXIT_VERIFY`]), then timeouts ([`EXIT_TIMEOUT`]),
/// then [`EXIT_OK`].
fn report_exit_code(failures: usize, deadline_exceeded: usize) -> i32 {
    if failures > 0 {
        EXIT_VERIFY
    } else if deadline_exceeded > 0 {
        EXIT_TIMEOUT
    } else {
        EXIT_OK
    }
}

/// The `qubikos` CLI's top-level dispatcher.
///
/// # Errors
///
/// Propagates the dispatched command's error.
pub fn dispatch(args: &[String]) -> CommandOutcome {
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return Ok(EXIT_USAGE);
    };
    let rest = &args[1..];
    match command.as_str() {
        "suite" => match rest.first().map(String::as_str) {
            Some("export") => suite_export_command(&rest[1..]),
            Some("verify") => suite_verify_command(&rest[1..]),
            _ => {
                eprintln!("qubikos suite: expected `export` or `verify`\n\n{USAGE}");
                Ok(EXIT_USAGE)
            }
        },
        "eval" => eval_command(rest),
        "analytics" => analytics_command(rest),
        "optimality" => optimality_command(rest),
        "case-study" => case_study_command(rest),
        "ablations" => ablations_command(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(EXIT_OK)
        }
        other => {
            eprintln!("qubikos: unknown command `{other}`\n\n{USAGE}");
            Ok(EXIT_USAGE)
        }
    }
}

const USAGE: &str = "\
qubikos — the QUBIKOS benchmark and evaluation pipeline

USAGE:
  qubikos suite export [--arch DEV] [--out DIR] [--full] [--threads N]
                       [--shard-size K] [--max-shards M]
      Generate a benchmark suite and persist it as a sharded corpus: a small
      manifest.json root index pointing at shards/shard_*.json manifests plus
      the QASM files. Shards are generated in parallel with byte-identical
      output at any thread count; an interrupted export (or --max-shards M)
      leaves a ledger and re-running resumes with only the missing shards.
      The suite matches what `qubikos eval` would generate in memory for the
      same device, so stored and in-memory runs report identical numbers.
  qubikos suite verify --suite DIR [--threads N] [--max-shards M]
      Re-check every stored instance, streaming one shard at a time: root
      and shard hashes, QASM parse, and the regeneration round trip. Reports
      every failing instance (with its shard and index) instead of stopping
      at the first; clean shards are ledgered so a re-run after an interrupt
      (or --max-shards M) only checks the remainder.
  qubikos analytics --suite DIR [--threads N] [--json PATH]
      Corpus-wide summary tables (gap distributions, per-tool win rates,
      scaling curves) folded shard-by-shard from the results/ cache a prior
      `eval --suite` run banked — no circuits are loaded, memory stays flat,
      and the report is bit-identical at any thread count.
  qubikos eval [--arch DEV] [--tools LIST] [--full] [--threads N]
               [--suite DIR] [--require-cached]
      Figure-4 tool evaluation. With --suite, runs from the stored corpus
      and the content-addressed result cache (already-evaluated
      (tool, circuit) pairs are not routed again); --require-cached exits
      nonzero unless every pair was a cache hit. --arch/--full apply only
      to in-memory runs (with --suite the manifest fixes both),
      and --tools restricts the run to a comma-separated subset (an
      unrecognized name errors with a did-you-mean suggestion).
  qubikos optimality [--full | --smoke] [--threads N] [--suite DIR]
                     [--exact-deadline-ms N]
      §IV-A optimality study. With --suite, verifies the stored corpus,
      consulting/filling the results/optimality cache; --full/--smoke
      apply only to in-memory runs (the manifest fixes the suite shape).
      --exact-deadline-ms caps each exact-solver job's wall clock: a circuit
      that exceeds it degrades to `unproven` (still certified, not
      exhaustively confirmed) instead of stalling the run, and the command
      exits 4 when that happened with zero failures.
  qubikos case-study [--decay D] [--full] [--threads N]
      §IV-C LightSABRE lookahead case study.
  qubikos ablations [--threads N]
      The legacy hand-picked SABRE parameter sweeps.
  qubikos ablations --grid --suite DIR [--full] [--json PATH]
                    [--list-compositions] [--max-compositions N]
                    [--require-cached] [--threads N]
      Router-construction-kit ablation matrix: enumerates the composition
      cross-product of the policy axes (search, lookahead, decay,
      tie-breaking, placement, coupler weights), prunes redundant points,
      routes every composition against the stored known-optimal suite, and
      ranks compositions by mean optimality gap and win rate. Results are
      cached per composition id, so a rerun is answered from cache and
      --require-cached exits 1 unless it was. --list-compositions prints
      the pruned enumeration and exits; --full swaps in the overnight grid.

--threads N sets how many jobs the engine runs at once (default: all
cores). A route that runs alone may spread its LightSABRE trials over idle
cores; outputs are byte-identical at any --threads.

DEV:   grid | aspen4 | sycamore | rochester | eagle | osprey
TOOLS: lightsabre | tket | ml-qls | qmap (comma-separated)

EXIT CODES:
  0  success — the run completed and every check passed
  1  policy  — completed, but a caller policy failed (--require-cached, cold cache)
  2  usage   — bad flags/configuration, or an I/O / store error
  3  verify  — completed, but verification or optimality failures were found
  4  timeout — completed with no failures, but jobs exceeded their deadline";

/// `qubikos suite export`.
///
/// # Errors
///
/// Store/generation errors.
pub fn suite_export_command(args: &[String]) -> CommandOutcome {
    let device = parse_arch(args)?.unwrap_or(DeviceKind::Aspen4);
    let out = arg_value(args, "--out").unwrap_or_else(|| "qubikos_suite".to_string());
    let threads = threads_flag(args)?;
    let mut options = ExportOptions::default();
    if let Some(shard_size) = numeric_flag(args, "--shard-size")? {
        if shard_size == 0 {
            return Err("--shard-size must be at least 1".into());
        }
        options = options.with_shard_size(shard_size);
    }
    if let Some(max_shards) = numeric_flag(args, "--max-shards")? {
        options = options.with_stop_after_shards(max_shards);
    }
    // The exported suite is exactly the one `eval` generates in memory for
    // the same device and mode, so `eval --suite` on the result reproduces
    // the in-memory report bit-identically.
    let eval_config = if flag_present(args, "--full") {
        EvaluationConfig::paper(device)
    } else {
        EvaluationConfig::quick(device)
    };
    let progress = StderrProgress::new(format!("export {}", device.name()), 10);
    let outcome = SuiteStore::export_with_options(
        &out,
        device,
        &eval_config.suite,
        &options,
        threads,
        &progress,
    )?;
    match outcome.store {
        Some(store) => {
            println!(
                "wrote {} instances for {} to {} ({} shards: {} generated, {} resumed from ledger)",
                store.total_instances(),
                device.name(),
                store.root().display(),
                outcome.shards_total,
                outcome.shards_written,
                outcome.shards_resumed
            );
            Ok(0)
        }
        None => {
            println!(
                "export interrupted after {} of {} shards ({} resumed); re-run the same \
                 command to finish from the ledger",
                outcome.shards_written + outcome.shards_resumed,
                outcome.shards_total,
                outcome.shards_resumed
            );
            Ok(0)
        }
    }
}

/// Returns the value following `flag` in `args`, if present.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether the bare flag `flag` appears in `args`.
fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses a `--flag N` numeric option, erroring when the flag is present
/// without a parseable value (a typo must never silently fall back to the
/// default).
fn numeric_flag(args: &[String], flag: &str) -> Result<Option<usize>, Box<dyn std::error::Error>> {
    match arg_value(args, flag) {
        None if flag_present(args, flag) => Err(format!("{flag} requires an integer").into()),
        None => Ok(None),
        Some(value) => value
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("{flag}: expected an integer, found `{value}`").into()),
    }
}

/// Parses the shared `--threads N` flag ([`AUTO_THREADS`] when absent).
fn threads_flag(args: &[String]) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(numeric_flag(args, "--threads")?.unwrap_or(AUTO_THREADS))
}

/// Parses `--arch`, erroring on an unrecognized device name instead of
/// silently falling back to a default (a typo must never quietly evaluate
/// the wrong device).
fn parse_arch(args: &[String]) -> Result<Option<DeviceKind>, Box<dyn std::error::Error>> {
    match arg_value(args, "--arch") {
        None => Ok(None),
        Some(name) => match DeviceKind::parse(&name) {
            Ok(device) => Ok(Some(device)),
            Err(err) => {
                let known: Vec<&str> = qubikos_arch::DeviceParseError::known_devices().collect();
                Err(format!("--arch: {err} (known devices: {})", known.join(" | ")).into())
            }
        },
    }
}

/// Parses `--tools LIST` (comma-separated tool names), erroring on an
/// unrecognized name with the parser's did-you-mean suggestion and the full
/// known-tool list — a typo must never silently evaluate the wrong tool
/// set. Duplicates collapse to the first occurrence.
fn parse_tools(args: &[String]) -> Result<Option<Vec<ToolKind>>, Box<dyn std::error::Error>> {
    match arg_value(args, "--tools") {
        None if flag_present(args, "--tools") => {
            Err("--tools requires a comma-separated list of tool names".into())
        }
        None => Ok(None),
        Some(list) => {
            let mut tools: Vec<ToolKind> = Vec::new();
            for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                match ToolKind::parse(name) {
                    Ok(tool) => {
                        if !tools.contains(&tool) {
                            tools.push(tool);
                        }
                    }
                    Err(err) => {
                        let known: Vec<&str> = ToolParseError::known_tools().collect();
                        return Err(
                            format!("--tools: {err} (known tools: {})", known.join(" | ")).into(),
                        );
                    }
                }
            }
            if tools.is_empty() {
                return Err("--tools requires at least one tool name".into());
            }
            Ok(Some(tools))
        }
    }
}

/// Parses a `--flag PATH` option, erroring when the flag is present without
/// a usable value (missing, or another flag in its place); `what` names the
/// expected value. A forgotten path must never be silently ignored.
fn path_flag(
    args: &[String],
    flag: &str,
    what: &str,
) -> Result<Option<String>, Box<dyn std::error::Error>> {
    match arg_value(args, flag) {
        Some(value) if value.starts_with("--") => {
            Err(format!("{flag} requires {what}, found flag `{value}`").into())
        }
        Some(value) => Ok(Some(value)),
        None if flag_present(args, flag) => Err(format!("{flag} requires {what}").into()),
        None => Ok(None),
    }
}

/// Parses `--suite DIR`. A forgotten directory must never silently degrade
/// into the (expensive, differently-scoped) in-memory pipeline.
fn suite_flag(args: &[String]) -> Result<Option<String>, Box<dyn std::error::Error>> {
    path_flag(args, "--suite", "a directory path")
}

/// The `--require-cached` verdict on a stored-suite run that routed
/// `routed` pairs fresh: [`EXIT_POLICY`] unless every pair was a cache hit.
fn cache_policy(args: &[String], routed: usize) -> i32 {
    if flag_present(args, "--require-cached") && routed > 0 {
        eprintln!("ERROR: --require-cached but {routed} pairs were routed fresh");
        EXIT_POLICY
    } else {
        EXIT_OK
    }
}

/// Writes `value` to `path` as pretty JSON and notes it on stderr.
fn write_json(
    path: &str,
    value: &impl serde::Serialize,
    what: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let json = serde_json::to_string_pretty(value).expect("reports serialize");
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

/// `qubikos suite verify`.
///
/// Streams the corpus one shard at a time, reports **every** failing
/// instance (with its shard and index) instead of stopping at the first,
/// and ledgers clean shards so interrupted runs resume.
///
/// # Errors
///
/// Store errors (unreadable root index, IO); integrity violations are
/// reported on stderr and exit code 1, not `Err`.
pub fn suite_verify_command(args: &[String]) -> CommandOutcome {
    let dir = suite_flag(args)?
        .ok_or("suite verify requires --suite DIR (the exported suite directory)")?;
    let threads = threads_flag(args)?;
    let max_shards = numeric_flag(args, "--max-shards")?;
    let store = SuiteStore::open(&dir)?;
    let progress = StderrProgress::new(format!("verify {}", store.device().name()), 10);
    let report = store.verify_streaming(threads, max_shards, &progress)?;
    for failure in &report.failures {
        eprintln!("FAIL: {failure}");
    }
    println!(
        "verified {} instances of {} in {} ({} shards checked, {} resumed from ledger; \
         hashes, QASM parse, regeneration round trip)",
        report.instances,
        store.device().name(),
        store.root().display(),
        report.shards_checked,
        report.shards_resumed
    );
    if !report.failures.is_empty() {
        eprintln!(
            "ERROR: {} instances failed verification",
            report.failures.len()
        );
        return Ok(EXIT_VERIFY);
    }
    if !report.complete {
        println!(
            "verification interrupted after {} of {} shards; re-run to finish from the ledger",
            report.shards_checked + report.shards_resumed,
            store.shard_count()
        );
    }
    Ok(0)
}

/// `qubikos analytics`: corpus-wide summary tables folded shard-by-shard
/// from a stored suite's result cache.
///
/// # Errors
///
/// Store errors (unreadable root index or shard manifests).
pub fn analytics_command(args: &[String]) -> CommandOutcome {
    let dir =
        suite_flag(args)?.ok_or("analytics requires --suite DIR (the exported suite directory)")?;
    let json_path = path_flag(args, "--json", "an output path")?;
    let config = AnalyticsConfig::default().with_threads(threads_flag(args)?);
    let store = SuiteStore::open(&dir)?;
    let progress = StderrProgress::new(format!("analytics {}", store.device().name()), 10);
    let report = run_suite_analytics_with_sink(&store, &config, &progress)?;
    print!("{}", render_analytics(&report));
    if let Some(path) = json_path {
        write_json(&path, &report, "analytics report")?;
    }
    Ok(0)
}

/// `qubikos eval`.
///
/// # Errors
///
/// Generation or store errors.
pub fn eval_command(args: &[String]) -> CommandOutcome {
    let threads = threads_flag(args)?;
    let full = flag_present(args, "--full");

    if let Some(dir) = suite_flag(args)? {
        // Flags that would silently contradict the stored manifest are
        // rejected rather than ignored.
        if full {
            return Err(
                "--full has no effect with --suite: the stored manifest fixes the \
                        suite shape; re-export with `suite export --full` instead"
                    .into(),
            );
        }
        if parse_arch(args)?.is_some() {
            return Err(
                "--arch has no effect with --suite: the stored manifest fixes the \
                        device"
                    .into(),
            );
        }
        let store = SuiteStore::open(&dir)?;
        let mut config = SuiteEvalConfig::default().with_threads(threads);
        if let Some(tools) = parse_tools(args)? {
            config.tools = tools;
        }
        let progress =
            StderrProgress::new(format!("evaluate {} (suite)", store.device().name()), 20);
        let outcome = run_suite_evaluation_with_sink(&store, &config, &progress)?;
        println!("{}", render_evaluation(&outcome.report));
        eprintln!(
            "suite evaluation: {} (tool, circuit) pairs routed, {} served from cache",
            outcome.routed, outcome.cache_hits
        );
        return Ok(cache_policy(args, outcome.routed));
    }

    // An in-memory run has no cache to assert against: a bare
    // --require-cached would "pass" while checking nothing.
    if flag_present(args, "--require-cached") {
        return Err(
            "--require-cached requires --suite DIR (only stored suites have a \
                    result cache)"
                .into(),
        );
    }

    let devices: Vec<DeviceKind> = match parse_arch(args)? {
        Some(device) => vec![device],
        None => DeviceKind::EVALUATION.to_vec(),
    };

    let tools = parse_tools(args)?;
    let mut reports = Vec::new();
    for device in devices {
        let mut config = if full {
            EvaluationConfig::paper(device)
        } else {
            EvaluationConfig::quick(device)
        }
        .with_threads(threads);
        if let Some(tools) = &tools {
            config.tools = tools.clone();
        }
        eprintln!(
            "running tool evaluation on {} ({} circuits, {} two-qubit gates each)...",
            device.name(),
            config.suite.total_circuits(),
            config.suite.two_qubit_gates
        );
        let progress = StderrProgress::new(format!("evaluate {}", device.name()), 20);
        let report = run_tool_evaluation_with_sink(&config, &progress)?;
        println!("{}", render_evaluation(&report));
        reports.push(report);
    }
    if reports.len() > 1 {
        println!("{}", render_aggregate(&aggregate_by_tool(&reports)));
    }
    Ok(0)
}

/// `qubikos optimality`.
///
/// # Errors
///
/// Generation or store errors.
pub fn optimality_command(args: &[String]) -> CommandOutcome {
    let full = flag_present(args, "--full");
    let smoke = flag_present(args, "--smoke");
    let mut config = if full {
        OptimalityConfig::paper()
    } else if smoke {
        OptimalityConfig::smoke()
    } else {
        OptimalityConfig::quick()
    }
    .with_threads(threads_flag(args)?);
    if let Some(millis) = numeric_flag(args, "--exact-deadline-ms")? {
        config = config.with_exact_deadline(std::time::Duration::from_millis(millis as u64));
    }

    if let Some(dir) = suite_flag(args)? {
        // The presets differ only in suite shape and devices — exactly the
        // two things the stored manifest fixes — so combining them with
        // --suite would silently verify a different corpus than the flag
        // suggests. Reject instead of half-applying.
        if full || smoke {
            return Err(
                "--full/--smoke have no effect with --suite: the stored manifest \
                        fixes the suite shape; re-export the corpus at the desired scale \
                        instead"
                    .into(),
            );
        }
        let store = SuiteStore::open(&dir)?;
        eprintln!(
            "verifying {} stored circuits on {}...",
            store.total_instances(),
            store.device().name()
        );
        let progress = StderrProgress::new("optimality study (suite)".to_string(), 50);
        let outcome = run_suite_optimality_with_sink(&store, &config, &progress)?;
        print!("{}", render_optimality(&outcome.report));
        eprintln!(
            "suite optimality: {} circuits verified, {} served from cache",
            outcome.verified, outcome.cache_hits
        );
        if outcome.report.failures > 0 {
            eprintln!(
                "ERROR: {} circuits failed verification",
                outcome.report.failures
            );
        }
        return Ok(report_exit_code(
            outcome.report.failures,
            outcome.report.deadline_exceeded,
        ));
    }

    eprintln!(
        "verifying {} circuits per device on {:?}...",
        config.suite.total_circuits(),
        config.devices.iter().map(|d| d.name()).collect::<Vec<_>>()
    );
    let progress = StderrProgress::new("optimality study".to_string(), 50);
    let report = run_optimality_study_with_sink(&config, &progress)?;
    print!("{}", render_optimality(&report));
    if report.failures > 0 {
        eprintln!("ERROR: {} circuits failed verification", report.failures);
    }
    Ok(report_exit_code(report.failures, report.deadline_exceeded))
}

/// `qubikos case-study`.
///
/// # Errors
///
/// A `--decay` that is not a finite number above 0, or generation errors.
pub fn case_study_command(args: &[String]) -> CommandOutcome {
    let decay = match arg_value(args, "--decay") {
        None if flag_present(args, "--decay") => return Err("--decay requires a number".into()),
        None => 0.7,
        Some(value) => match value.parse::<f64>() {
            Ok(decay) if decay.is_finite() && decay > 0.0 => decay,
            _ => {
                return Err(
                    format!("--decay: expected a finite number above 0, found `{value}`").into(),
                )
            }
        },
    };
    let full = flag_present(args, "--full");
    let threads = threads_flag(args)?;
    // The lookahead effect the paper analyses only shows up once the padding
    // is dense enough to mislead the extended set, so the default run already
    // uses the paper's Aspen-4 gate budget (300 two-qubit gates).
    let (swap_counts, circuits): (Vec<usize>, usize) = if full {
        (vec![5, 10, 15, 20], 10)
    } else {
        (vec![4, 8, 12], 3)
    };
    // Aspen-4 with the paper's gate budget, plus Sycamore where routing from
    // the optimal mapping is harder and lookahead weighting actually matters.
    for (device, gates) in [(DeviceKind::Aspen4, 300), (DeviceKind::Sycamore54, 600)] {
        let config = CaseStudyConfig {
            device,
            swap_counts: swap_counts.clone(),
            circuits_per_count: circuits,
            two_qubit_gates: gates,
            decay,
            seed: 11,
            threads,
        };
        let outcome = run_case_study(&config)?;
        print!("{}", render_case_study(&outcome));
    }
    Ok(0)
}

/// `qubikos ablations`. Without `--grid`, the legacy hand-picked SABRE
/// sweeps; with `--grid`, the router construction kit's composition matrix
/// against a stored known-optimal suite.
///
/// # Errors
///
/// Generation or store errors.
pub fn ablations_command(args: &[String]) -> CommandOutcome {
    let threads = threads_flag(args)?;
    if flag_present(args, "--grid") {
        return ablations_grid_command(args, threads);
    }
    // The legacy sweeps take none of the matrix's flags; accepting them
    // would silently drop a requested export or cache check.
    if let Some(flag) = GRID_ONLY_FLAGS.iter().find(|flag| flag_present(args, flag)) {
        return Err(format!("{flag} applies only to the composition matrix; add --grid").into());
    }
    let config = AblationConfig::paper().with_threads(threads);
    // One sink across all sweeps: each engine run restarts the progress
    // counter, so the multi-minute paper sweep streams per-run progress.
    let progress = StderrProgress::new("ablations".to_string(), 3);
    let report = run_ablations_with_sink(&config, &progress)?;
    print!("{}", render_ablations(&report));
    Ok(0)
}

/// The `ablations` flags that only the composition matrix (`--grid`) reads.
const GRID_ONLY_FLAGS: [&str; 6] = [
    "--suite",
    "--list-compositions",
    "--json",
    "--require-cached",
    "--max-compositions",
    "--full",
];

/// `qubikos ablations --grid`: enumerate the (pruned) composition
/// cross-product, rank it against a stored known-optimal suite through the
/// per-composition result cache, and render/export the ranking.
fn ablations_grid_command(args: &[String], threads: usize) -> CommandOutcome {
    let mut config = MatrixConfig::quick().with_threads(threads);
    if flag_present(args, "--full") {
        config.grid = crate::ablations::CompositionGrid::paper();
    }
    if let Some(max) = numeric_flag(args, "--max-compositions")? {
        if max == 0 {
            return Err("--max-compositions must be at least 1".into());
        }
        config = config.with_max_compositions(max);
    }

    // The dry run: print the pruned enumeration (what the matrix *would*
    // route) and exit without touching any suite.
    if flag_present(args, "--list-compositions") {
        let specs = config.compositions();
        println!(
            "{} compositions ({} raw grid points before pruning)",
            specs.len(),
            config.grid.raw_combinations()
        );
        for spec in &specs {
            println!("  {}", spec.id());
        }
        return Ok(EXIT_OK);
    }

    let dir = suite_flag(args)?.ok_or(
        "ablations --grid requires --suite DIR (the known-optimal corpus to rank \
         against; create one with `qubikos suite export`)",
    )?;
    let json_path = path_flag(args, "--json", "an output path")?;

    let store = SuiteStore::open(&dir)?;
    let progress = StderrProgress::new(format!("ablation matrix {}", store.device().name()), 20);
    let outcome = run_composition_matrix(&store, &config, &progress)?;
    print!("{}", render_composition_matrix(&outcome.report));
    eprintln!(
        "ablation matrix: {} (composition, circuit) pairs routed, {} served from cache",
        outcome.routed, outcome.cache_hits
    );
    if let Some(path) = json_path {
        write_json(&path, &outcome.report, "composition matrix")?;
    }
    Ok(cache_policy(args, outcome.routed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_value_and_flag_present() {
        let a = args(&["--arch", "aspen4", "--full"]);
        assert_eq!(arg_value(&a, "--arch"), Some("aspen4".to_string()));
        assert_eq!(arg_value(&a, "--out"), None);
        assert_eq!(arg_value(&a, "--full"), None);
        assert!(flag_present(&a, "--full"));
        assert!(!flag_present(&a, "--smoke"));
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert_eq!(dispatch(&args(&["frobnicate"])).unwrap(), 2);
        assert_eq!(dispatch(&args(&[])).unwrap(), 2);
        assert_eq!(dispatch(&args(&["suite"])).unwrap(), 2);
        assert_eq!(dispatch(&args(&["suite", "destroy"])).unwrap(), 2);
    }

    #[test]
    fn dispatch_prints_help() {
        assert_eq!(dispatch(&args(&["help"])).unwrap(), 0);
        assert_eq!(dispatch(&args(&["--help"])).unwrap(), 0);
    }

    #[test]
    fn suite_verify_requires_a_directory() {
        assert!(suite_verify_command(&args(&[])).is_err());
    }

    #[test]
    fn unknown_arch_is_an_error_not_a_silent_fallback() {
        assert!(suite_export_command(&args(&["--arch", "gird"])).is_err());
        assert!(eval_command(&args(&["--arch", "gird"])).is_err());
    }

    #[test]
    fn suite_mode_rejects_flags_the_manifest_overrides() {
        assert!(eval_command(&args(&["--suite", "somewhere", "--full"])).is_err());
        assert!(eval_command(&args(&["--suite", "somewhere", "--arch", "grid"])).is_err());
        assert!(optimality_command(&args(&["--suite", "somewhere", "--full"])).is_err());
        assert!(optimality_command(&args(&["--suite", "somewhere", "--smoke"])).is_err());
    }

    #[test]
    fn trailing_suite_flag_is_an_error_not_an_in_memory_run() {
        assert!(eval_command(&args(&["--suite"])).is_err());
        assert!(optimality_command(&args(&["--suite"])).is_err());
        assert!(eval_command(&args(&["--suite", "--threads", "2"])).is_err());
    }

    #[test]
    fn trailing_path_flags_are_errors() {
        assert!(analytics_command(&args(&["--suite", "x", "--json"])).is_err());
        assert!(analytics_command(&args(&["--suite", "x", "--json", "--threads", "2"])).is_err());
        assert!(ablations_command(&args(&["--grid", "--suite", "x", "--json"])).is_err());
        assert!(ablations_command(&args(&[
            "--grid",
            "--suite",
            "x",
            "--json",
            "--threads",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn require_cached_without_a_suite_is_an_error() {
        assert!(eval_command(&args(&["--require-cached"])).is_err());
    }

    #[test]
    fn analytics_requires_a_suite() {
        assert!(analytics_command(&args(&[])).is_err());
        assert!(analytics_command(&args(&["--suite"])).is_err());
        assert!(analytics_command(&args(&["--suite", "somewhere", "--json"])).is_err());
    }

    #[test]
    fn numeric_flags_reject_garbage_instead_of_defaulting() {
        assert!(suite_export_command(&args(&["--shard-size", "lots"])).is_err());
        assert!(suite_export_command(&args(&["--shard-size", "0"])).is_err());
        assert!(suite_export_command(&args(&["--max-shards", "-1"])).is_err());
        assert!(suite_verify_command(&args(&["--suite", "x", "--max-shards", "two"])).is_err());
    }

    #[test]
    fn case_study_decay_rejects_garbage_and_non_positive_values() {
        for decay in ["foo", "NaN", "inf", "-inf", "0", "-0.5"] {
            assert!(
                case_study_command(&args(&["--decay", decay])).is_err(),
                "--decay {decay}"
            );
        }
        assert!(case_study_command(&args(&["--decay"])).is_err());
    }

    #[test]
    fn threads_flag_is_a_usage_error_not_a_panic() {
        let commands: [fn(&[String]) -> CommandOutcome; 7] = [
            suite_export_command,
            suite_verify_command,
            analytics_command,
            eval_command,
            optimality_command,
            case_study_command,
            ablations_command,
        ];
        for command in commands {
            for bad in [
                &["--threads", "many"][..],
                &["--suite", "x", "--threads"][..],
            ] {
                assert!(command(&args(bad)).is_err(), "{bad:?}");
            }
        }
        assert!(dispatch(&args(&["eval", "--threads", "many"])).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_per_failure_class() {
        // The documented contract: every class gets its own code, failures
        // dominate timeouts, and a clean report maps to success.
        assert_eq!(report_exit_code(0, 0), EXIT_OK);
        assert_eq!(report_exit_code(0, 3), EXIT_TIMEOUT);
        assert_eq!(report_exit_code(2, 0), EXIT_VERIFY);
        assert_eq!(report_exit_code(2, 3), EXIT_VERIFY);
        let codes = [EXIT_OK, EXIT_POLICY, EXIT_USAGE, EXIT_VERIFY, EXIT_TIMEOUT];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn optimality_deadline_flag_rejects_garbage() {
        assert!(optimality_command(&args(&["--smoke", "--exact-deadline-ms", "soon"])).is_err());
        assert!(optimality_command(&args(&["--smoke", "--exact-deadline-ms"])).is_err());
    }

    #[test]
    fn zero_deadline_smoke_run_exits_with_the_timeout_code() {
        // A zero wall-clock budget forces every exact query to degrade to
        // `unproven`: no failures, every job timed out — the documented
        // exit-4 case, reachable end to end through the real command path.
        let code = optimality_command(&args(&[
            "--smoke",
            "--threads",
            "1",
            "--exact-deadline-ms",
            "0",
        ]))
        .expect("smoke run completes despite the zero deadline");
        assert_eq!(code, EXIT_TIMEOUT);
    }

    #[test]
    fn unknown_tool_is_an_error_with_a_suggestion() {
        let err = eval_command(&args(&["--tools", "lightsaber", "--arch", "grid"]))
            .expect_err("typo must not silently evaluate the wrong tools");
        let text = err.to_string();
        assert!(text.contains("unknown tool `lightsaber`"), "{text}");
        assert!(text.contains("did you mean `lightsabre`"), "{text}");
        assert!(text.contains("known tools:"), "{text}");
        assert!(eval_command(&args(&["--tools"])).is_err());
        assert!(eval_command(&args(&["--tools", ","])).is_err());
    }

    #[test]
    fn grid_flags_require_the_grid_mode_and_a_suite() {
        for grid_only in [
            &["--suite", "somewhere"][..],
            &["--list-compositions"],
            &["--json", "out.json"],
            &["--require-cached"],
            &["--max-compositions", "4"],
            &["--full"],
        ] {
            assert!(
                ablations_command(&args(grid_only)).is_err(),
                "{grid_only:?}"
            );
        }
        assert!(ablations_command(&args(&["--grid"])).is_err());
        assert!(ablations_command(&args(&["--grid", "--suite"])).is_err());
        assert!(ablations_command(&args(&["--grid", "--max-compositions", "0"])).is_err());
        assert!(ablations_command(&args(&[
            "--grid",
            "--suite",
            "x",
            "--max-compositions",
            "lots"
        ]))
        .is_err());
    }

    #[test]
    fn list_compositions_is_a_dry_run_that_needs_no_suite() {
        let code = ablations_command(&args(&["--grid", "--list-compositions"]))
            .expect("dry run touches no suite");
        assert_eq!(code, EXIT_OK);
        let code = ablations_command(&args(&[
            "--grid",
            "--list-compositions",
            "--max-compositions",
            "4",
        ]))
        .expect("truncated dry run");
        assert_eq!(code, EXIT_OK);
    }

    #[test]
    fn eval_surfaces_store_errors_for_missing_suites() {
        let missing = std::env::temp_dir().join("qubikos-cli-definitely-missing");
        let arg_list = args(&["--suite", missing.to_str().expect("utf8 path")]);
        assert!(eval_command(&arg_list).is_err());
    }
}
