//! The command layer of the unified `qubikos` CLI.
//!
//! Every experiment entry point (`eval`, `optimality`, `case-study`,
//! `ablations`, `analytics`, `suite export`, `suite verify`) is one function
//! taking the raw argument list. Each is declared once in the `COMMANDS`
//! table (name, prose, and flags in synopsis order with their rules),
//! from which come the `qubikos help` synopses, the dispatch, and one
//! parse pass per call that rejects bad usage. Commands return a process
//! exit code with one meaning per failure class, so scripts and CI can react
//! without parsing stderr:
//!
//! | code | meaning |
//! |------|---------|
//! | [`EXIT_OK`] (0) | the run completed and every check passed |
//! | [`EXIT_POLICY`] (1) | the run completed but violated a caller policy (e.g. `--require-cached` with a cold cache) |
//! | [`EXIT_USAGE`] (2) | bad usage, configuration, or an I/O / store error (`Err` from a command) |
//! | [`EXIT_VERIFY`] (3) | the run completed and found verification or optimality failures |

use crate::ablations::{run_ablations, run_composition_matrix, AblationConfig, MatrixConfig};
use crate::analytics::{run_suite_analytics_with_sink, AnalyticsConfig};
use crate::case_study::{run_case_study, CaseStudyConfig};
use crate::evaluation::{
    aggregate_by_tool, run_suite_evaluation_with_sink, run_tool_evaluation, EvaluationConfig,
    SuiteEvalConfig,
};
use crate::optimality::{
    run_optimality_study, run_suite_optimality_with_sink, OptimalityConfig, OptimalityReport,
};
use crate::report::{
    render_ablations, render_aggregate, render_analytics, render_case_study,
    render_composition_matrix, render_evaluation, render_exact_wall_clock, render_optimality,
};
use crate::store::{ExportOptions, SuiteStore};
use qubikos_arch::DeviceKind;
use qubikos_engine::{NullSink, StderrProgress, AUTO_THREADS};
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

/// What a command hands back to `main`: a process exit code, or an error to
/// render on stderr (exit code [`EXIT_USAGE`]). Every `*_command` returns
/// `Err` for bad usage (before it runs anything), configuration, I/O or
/// store errors.
pub type CommandOutcome = Result<i32, Box<dyn std::error::Error>>;

/// Renders a command outcome and exits the process accordingly.
pub fn exit_with(outcome: CommandOutcome) -> ! {
    std::process::exit(exit_code(outcome))
}

/// The process exit code of a command outcome, rendering an error on
/// stderr.
fn exit_code(outcome: CommandOutcome) -> i32 {
    match outcome {
        Ok(code) => code,
        Err(error) => {
            eprintln!("error: {error}");
            EXIT_USAGE
        }
    }
}

/// Where a command's report goes. `print!` panics once stdout's reader has
/// gone (`| head` after its lines, `| true`); this output instead closes
/// at the first `BrokenPipe` and drops the rest of the report. The command
/// runs on: it still writes its files and returns its own exit code, so a
/// failed verification exits [`EXIT_VERIFY`] whether or not anyone reads
/// the report.
struct Output<W> {
    sink: W,
    closed: bool,
}

impl<W: std::io::Write> Output<W> {
    fn new(sink: W) -> Self {
        Output {
            sink,
            closed: false,
        }
    }

    /// Writes `text` and flushes it, so a closed reader shows at once. A
    /// `BrokenPipe` error closes the output; any other write error is
    /// returned.
    fn write(&mut self, text: std::fmt::Arguments<'_>) -> std::io::Result<()> {
        if self.closed {
            return Ok(());
        }
        match self.sink.write_fmt(text).and_then(|()| self.sink.flush()) {
            Err(error) if error.kind() == std::io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            written => written,
        }
    }
}

thread_local! {
    /// Commands write their reports on the thread that dispatched them.
    static OUTPUT: std::cell::RefCell<Output<Box<dyn std::io::Write>>> =
        std::cell::RefCell::new(Output::new(stdout_sink()));
}

/// The process's stdout.
#[cfg(not(test))]
fn stdout_sink() -> Box<dyn std::io::Write> {
    Box::new(std::io::stdout())
}

/// In unit tests, `print!`: the test harness captures it, but not a direct
/// write to stdout.
#[cfg(test)]
fn stdout_sink() -> Box<dyn std::io::Write> {
    Box::new(tests::Printed)
}

/// Command output: every report a command prints goes through here. Used
/// as `out!(...)` / `outln!(...)` inside a command, which returns early on
/// a write error other than a closed stdout.
fn output(text: std::fmt::Arguments<'_>) -> Result<(), Box<dyn std::error::Error>> {
    Ok(OUTPUT.with_borrow_mut(|output| output.write(text))?)
}

/// `print!` through [`output`], returning from the command on an error.
macro_rules! out {
    ($($arg:tt)*) => {
        output(format_args!($($arg)*))?
    };
}

/// `println!` through [`output`], returning from the command on an error.
macro_rules! outln {
    ($($arg:tt)*) => {
        output(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// The `qubikos` CLI's top-level dispatcher: finds the `COMMANDS` entry
/// whose name the arguments start with and runs it on the rest.
///
/// # Errors
///
/// Propagates the dispatched command's error.
pub fn dispatch(args: &[String]) -> CommandOutcome {
    if let Some("help" | "--help" | "-h") = args.first().map(String::as_str) {
        outln!("{}", usage());
        return Ok(EXIT_OK);
    }
    for command in COMMANDS {
        let words: Vec<&str> = command.name.split(' ').collect();
        if args.get(..words.len()).is_some_and(|given| given == words) {
            return (command.run)(&args[words.len()..]);
        }
    }
    if !args.is_empty() {
        eprint!("qubikos: no command matches `{}`\n\n", args.join(" "));
    }
    eprintln!("{}", usage());
    Ok(EXIT_USAGE)
}

/// When a flag may or must be given.
#[derive(PartialEq)]
enum Rule {
    Optional,
    /// Shown without brackets; the command reports it missing. A required
    /// bare flag (`--grid`) selects its entry over the same-named one.
    Required,
    /// Not with `--suite`, whose stored manifest fixes what it would set:
    /// half-applying it would run on a corpus other than the one asked for.
    NotWithSuite,
    /// Only with `--suite`: without a stored suite it would check nothing.
    NeedsSuite,
}
use Rule::{NeedsSuite, NotWithSuite, Optional, Required};

impl Rule {
    /// Why a flag with this rule may not be given, if `suite` (whether
    /// `--suite` is) breaks it.
    fn broken_by(&self, suite: bool) -> Option<&'static str> {
        match self {
            NotWithSuite if suite => Some("has no effect with --suite: its manifest fixes it"),
            NeedsSuite if !suite => Some("requires --suite DIR: it applies only to a stored suite"),
            _ => None,
        }
    }
}

/// One flag of a [`Command`]: its name, the placeholder of its value
/// (`None` for a bare flag) and its [`Rule`]. A name `--a | --b` declares a
/// choice: either flag, but not both.
struct Flag(&'static str, Option<&'static str>, Rule);

impl Flag {
    /// Its names: one, or each alternative of a choice.
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.0.split(" | ")
    }
}

const THREADS: Flag = Flag("--threads", Some("N"), Optional);

/// One usage entry of the `qubikos` CLI.
struct Command {
    /// The words that name it after `qubikos`.
    name: &'static str,
    /// Its flags, in synopsis order.
    flags: &'static [Flag],
    /// The description under the synopsis, one help line per line.
    prose: &'static str,
    /// Runs the command on the arguments after its name.
    run: fn(&[String]) -> CommandOutcome,
}

/// Every usage entry, in `qubikos help` order.
const COMMANDS: [&Command; 8] = [
    &SUITE_EXPORT,
    &SUITE_VERIFY,
    &ANALYTICS,
    &EVAL,
    &OPTIMALITY,
    &CASE_STUDY,
    &SWEEPS,
    &GRID,
];

const SUITE_EXPORT: Command = Command {
    name: "suite export",
    flags: &[
        Flag("--arch", Some("DEV"), Optional),
        Flag("--out", Some("DIR"), Optional),
        Flag("--full", None, Optional),
        THREADS,
        Flag("--shard-size", Some("K"), Optional),
        Flag("--max-shards", Some("M"), Optional),
    ],
    prose: "\
Generate a benchmark suite and persist it as a sharded corpus: a small
manifest.json root index pointing at shards/shard_*.json manifests plus
the QASM files. Shards are generated in parallel with byte-identical
output at any thread count; an interrupted export (or --max-shards M)
leaves a ledger and re-running resumes with only the missing shards.
The suite matches what `qubikos eval` would generate in memory for the
same device, so stored and in-memory runs report identical numbers.",
    run: suite_export_command,
};
const SUITE_VERIFY: Command = Command {
    name: "suite verify",
    flags: &[
        Flag("--suite", Some("DIR"), Required),
        THREADS,
        Flag("--max-shards", Some("M"), Optional),
    ],
    prose: "\
Re-check every stored instance, streaming one shard at a time: root
and shard hashes, QASM parse, and the regeneration round trip. Reports
every failing instance (with its shard and index) instead of stopping
at the first; clean shards are ledgered so a re-run after an interrupt
(or --max-shards M) only checks the remainder.",
    run: suite_verify_command,
};
const ANALYTICS: Command = Command {
    name: "analytics",
    flags: &[
        Flag("--suite", Some("DIR"), Required),
        THREADS,
        Flag("--json", Some("PATH"), Optional),
    ],
    prose: "\
Corpus-wide summary tables (gap distributions, per-tool win rates,
scaling curves) folded shard-by-shard from the results/ cache a prior
`eval --suite` run banked — no circuits are loaded, memory stays flat,
and the report is bit-identical at any thread count.",
    run: analytics_command,
};
const EVAL: Command = Command {
    name: "eval",
    flags: &[
        Flag("--arch", Some("DEV"), NotWithSuite),
        Flag("--tools", Some("LIST"), Optional),
        Flag("--full", None, NotWithSuite),
        THREADS,
        Flag("--suite", Some("DIR"), Optional),
        Flag("--require-cached", None, NeedsSuite),
    ],
    prose: "\
Figure-4 tool evaluation. With --suite, runs from the stored corpus
and the content-addressed result cache (already-evaluated
(tool, circuit) pairs are not routed again); --require-cached exits
nonzero unless every pair was a cache hit. --arch/--full apply only
to in-memory runs (with --suite the manifest fixes both),
and --tools restricts the run to a comma-separated subset (an
unrecognized name errors with a did-you-mean suggestion).",
    run: eval_command,
};
const OPTIMALITY: Command = Command {
    name: "optimality",
    flags: &[
        Flag("--full | --smoke", None, NotWithSuite),
        THREADS,
        Flag("--suite", Some("DIR"), Optional),
    ],
    prose: "\
§IV-A optimality study. With --suite, verifies the stored corpus,
consulting/filling the results/optimality cache; --full/--smoke
apply only to in-memory runs (the manifest fixes the suite shape).",
    run: optimality_command,
};
const CASE_STUDY: Command = Command {
    name: "case-study",
    flags: &[
        Flag("--decay", Some("D"), Optional),
        Flag("--full", None, Optional),
        THREADS,
    ],
    prose: "§IV-C LightSABRE lookahead case study.",
    run: case_study_command,
};
const SWEEPS: Command = Command {
    name: "ablations",
    flags: &[THREADS],
    prose: "The legacy hand-picked SABRE parameter sweeps.",
    run: ablations_command,
};
const GRID: Command = Command {
    name: "ablations",
    flags: &[
        Flag("--grid", None, Required),
        Flag("--suite", Some("DIR"), Required),
        Flag("--full", None, Optional),
        Flag("--json", Some("PATH"), Optional),
        Flag("--list-compositions", None, Optional),
        Flag("--max-compositions", Some("N"), Optional),
        Flag("--require-cached", None, Optional),
        THREADS,
    ],
    prose: "\
Router-construction-kit ablation matrix: enumerates the composition
cross-product of the policy axes (search, lookahead, decay,
tie-breaking, placement, coupler weights), prunes redundant points,
routes every composition against the stored known-optimal suite, and
ranks compositions by mean optimality gap and win rate. Results are
cached per composition id, so a rerun is answered from cache and
--require-cached exits 1 unless it was. --list-compositions prints
the pruned enumeration and exits; --full swaps in the overnight grid.",
    run: ablations_command,
};

/// The `qubikos help` text after the synopses.
const FOOTER: &str = "\
--threads N sets how many jobs the engine runs at once (default: all
cores). A route that runs alone may spread its LightSABRE trials over idle
cores; outputs are byte-identical at any --threads.

DEV:   grid | aspen4 | sycamore | rochester | eagle | osprey
TOOLS: lightsabre | tket | ml-qls | qmap (comma-separated)

EXIT CODES:
  0  success — the run completed and every check passed
  1  policy  — completed, but a caller policy failed (--require-cached, cold cache)
  2  usage   — bad flags/configuration, or an I/O / store error
  3  verify  — completed, but verification or optimality failures were found";

/// The `qubikos help` text: each entry's synopsis, its flags wrapped
/// greedily at 72 columns with continuation lines under the first flag,
/// and its prose; then [`FOOTER`].
fn usage() -> String {
    let mut text =
        "qubikos — the QUBIKOS benchmark and evaluation pipeline\n\nUSAGE:\n".to_string();
    for command in COMMANDS {
        let head = format!("  qubikos {}", command.name);
        let mut column = head.len();
        text += &head;
        for Flag(name, metavar, rule) in command.flags {
            let spec = metavar.map_or(name.to_string(), |metavar| format!("{name} {metavar}"));
            let token = if *rule == Required {
                spec
            } else {
                format!("[{spec}]")
            };
            if column > head.len() && column + 1 + token.len() > 72 {
                text += &format!("\n{:1$}", "", head.len());
                column = head.len();
            }
            text += &format!(" {token}");
            column += 1 + token.len();
        }
        for line in command.prose.lines() {
            text += &format!("\n      {line}");
        }
        text += "\n";
    }
    text + "\n" + FOOTER
}

impl Command {
    /// The entry's flag that `arg` names, if any.
    fn flag(&self, arg: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.names().any(|n| n == arg))
    }

    /// The required bare flag that selects this entry (`--grid`), if any.
    fn selector(&self) -> Option<&'static str> {
        let selects = |flag: &&Flag| flag.1.is_none() && flag.2 == Required;
        self.flags.iter().find(selects).map(|flag| flag.0)
    }

    /// The one parse pass: each argument must be a flag of this entry, given
    /// once and without another alternative of its choice, followed by its
    /// value if it takes one (a value may not be a flag), and allowed by its
    /// rule.
    fn parse<'a>(&self, raw: &'a [String]) -> Result<Args<'a>, String> {
        // A value never starts with `--`, so this is the `--suite` flag.
        let suite = raw.iter().any(|arg| arg == "--suite");
        let mut args = Args(Vec::new());
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            let Some(flag @ Flag(_, metavar, rule)) = self.flag(arg) else {
                return Err(self.unknown_flag(arg));
            };
            if let Some(earlier) = flag.names().find(|name| args.has(name)) {
                return Err(if earlier == arg {
                    format!("{arg} is given more than once")
                } else {
                    format!("{earlier} and {arg} cannot be combined")
                });
            }
            if let Some(reason) = rule.broken_by(suite) {
                return Err(format!("{arg} {reason}"));
            }
            let value = match metavar.map(|metavar| (metavar, rest.next())) {
                None => None,
                Some((_, Some(value))) if !value.starts_with("--") => Some(value.as_str()),
                Some((metavar, Some(flag))) => {
                    return Err(format!("{arg} requires {metavar}, found flag `{flag}`"))
                }
                Some((metavar, None)) => return Err(format!("{arg} requires {metavar}")),
            };
            args.0.push((arg, value));
        }
        Ok(args)
    }

    /// The error for `arg`, a flag this entry does not declare. A flag of
    /// the same-named entry names that entry's selector: the sweeps must not
    /// silently drop a matrix flag such as `--json`.
    fn unknown_flag(&self, arg: &str) -> String {
        let owner = COMMANDS
            .iter()
            .find(|command| command.name == self.name && command.flag(arg).is_some());
        match owner.and_then(|command| command.selector()) {
            Some(selector) => format!("{arg} applies only with {selector}; add {selector}"),
            None => format!("{}: unknown flag `{arg}` (see `qubikos help`)", self.name),
        }
    }
}

/// A command's arguments after [`Command::parse`]: each given flag once,
/// with its value if it takes one.
struct Args<'a>(Vec<(&'a str, Option<&'a str>)>);

impl Args<'_> {
    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| *name == flag)
    }

    /// The value given to `flag`, if it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(name, _)| *name == flag)?.1
    }

    /// The value given to `flag` as an integer; a value that is not one is
    /// an error, never a silent fallback to the default.
    fn number(&self, flag: &str) -> Result<Option<usize>, String> {
        let Some(value) = self.value(flag) else {
            return Ok(None);
        };
        let error = |_| format!("{flag}: expected an integer, found `{value}`");
        value.parse().map(Some).map_err(error)
    }

    /// `--threads N` ([`AUTO_THREADS`] when absent).
    fn threads(&self) -> Result<usize, String> {
        Ok(self.number("--threads")?.unwrap_or(AUTO_THREADS))
    }

    /// `--arch`, erroring on an unrecognized device name instead of silently
    /// falling back to a default (a typo must never quietly evaluate the
    /// wrong device).
    fn arch(&self) -> Result<Option<DeviceKind>, String> {
        let device = self.value("--arch").map(|name| {
            DeviceKind::parse(name).map_err(|err| {
                let known: Vec<&str> = qubikos_arch::DeviceParseError::known_devices().collect();
                format!("--arch: {err} (known devices: {})", known.join(" | "))
            })
        });
        device.transpose()
    }

    /// `--tools LIST` (comma-separated tool names), erroring on an
    /// unrecognized name with the parser's did-you-mean suggestion and the
    /// full known-tool list — a typo must never silently evaluate the wrong
    /// tool set. Duplicates collapse to the first occurrence.
    fn tools(&self) -> Result<Option<Vec<ToolKind>>, String> {
        let Some(list) = self.value("--tools") else {
            return Ok(None);
        };
        let mut tools: Vec<ToolKind> = Vec::new();
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let tool = ToolKind::parse(name).map_err(|err| {
                let known: Vec<&str> = ToolParseError::known_tools().collect();
                format!("--tools: {err} (known tools: {})", known.join(" | "))
            })?;
            if !tools.contains(&tool) {
                tools.push(tool);
            }
        }
        if tools.is_empty() {
            return Err("--tools requires at least one tool name".into());
        }
        Ok(Some(tools))
    }

    /// The `--require-cached` verdict on a stored-suite run that routed
    /// `routed` pairs fresh: [`EXIT_POLICY`] unless all were cache hits.
    fn cache_policy(&self, routed: usize) -> i32 {
        if self.has("--require-cached") && routed > 0 {
            eprintln!("ERROR: --require-cached but {routed} pairs were routed fresh");
            EXIT_POLICY
        } else {
            EXIT_OK
        }
    }
}

/// Writes `value` to `path` as pretty JSON and notes it on stderr.
fn write_json(path: &str, value: &impl serde::Serialize, what: &str) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).expect("reports serialize");
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

/// `qubikos suite export`.
pub fn suite_export_command(args: &[String]) -> CommandOutcome {
    let args = SUITE_EXPORT.parse(args)?;
    let device = args.arch()?.unwrap_or(DeviceKind::Aspen4);
    let out = args.value("--out").unwrap_or("qubikos_suite");
    let threads = args.threads()?;
    let mut options = ExportOptions::default();
    if let Some(shard_size) = args.number("--shard-size")? {
        if shard_size == 0 {
            return Err("--shard-size must be at least 1".into());
        }
        options = options.with_shard_size(shard_size);
    }
    if let Some(max_shards) = args.number("--max-shards")? {
        options = options.with_stop_after_shards(max_shards);
    }
    // The exported suite is exactly the one `eval` generates in memory for
    // the same device and mode, so `eval --suite` on the result reproduces
    // the in-memory report bit-identically.
    let preset = if args.has("--full") {
        EvaluationConfig::paper(device)
    } else {
        EvaluationConfig::quick(device)
    };
    let progress = StderrProgress::new(format!("export {}", device.name()), 10);
    let outcome =
        SuiteStore::export_with_options(out, device, &preset.suite, &options, threads, &progress)?;
    let Some(store) = outcome.store else {
        outln!(
            "export interrupted after {} of {} shards ({} resumed); re-run the same \
             command to finish from the ledger",
            outcome.shards_written + outcome.shards_resumed,
            outcome.shards_total,
            outcome.shards_resumed
        );
        return Ok(0);
    };
    outln!(
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

/// `qubikos suite verify`: streams the corpus one shard at a time, reports
/// **every** failing instance (with its shard and index) with exit code
/// [`EXIT_VERIFY`], and ledgers clean shards so interrupted runs resume.
pub fn suite_verify_command(args: &[String]) -> CommandOutcome {
    let args = SUITE_VERIFY.parse(args)?;
    let dir = args
        .value("--suite")
        .ok_or("suite verify requires --suite DIR (the exported suite directory)")?;
    let threads = args.threads()?;
    let max_shards = args.number("--max-shards")?;
    let store = SuiteStore::open(dir)?;
    let progress = StderrProgress::new(format!("verify {}", store.device().name()), 10);
    let report = store.verify_streaming(threads, max_shards, &progress)?;
    for failure in &report.failures {
        eprintln!("FAIL: {failure}");
    }
    outln!(
        "verified {} instances of {} in {} ({} shards checked, {} resumed from ledger; \
         hashes, QASM parse, regeneration round trip)",
        report.instances,
        store.device().name(),
        store.root().display(),
        report.shards_checked,
        report.shards_resumed
    );
    let failed = report.failures.len();
    if failed > 0 {
        eprintln!("ERROR: {failed} instances failed verification");
        return Ok(EXIT_VERIFY);
    }
    if !report.complete {
        outln!(
            "verification interrupted after {} of {} shards; re-run to finish from the ledger",
            report.shards_checked + report.shards_resumed,
            store.shard_count()
        );
    }
    Ok(0)
}

/// `qubikos analytics`: corpus-wide summary tables folded shard-by-shard
/// from a stored suite's result cache.
pub fn analytics_command(args: &[String]) -> CommandOutcome {
    let args = ANALYTICS.parse(args)?;
    let dir = args
        .value("--suite")
        .ok_or("analytics requires --suite DIR (the exported suite directory)")?;
    let config = AnalyticsConfig::default().with_threads(args.threads()?);
    let store = SuiteStore::open(dir)?;
    let progress = StderrProgress::new(format!("analytics {}", store.device().name()), 10);
    let report = run_suite_analytics_with_sink(&store, &config, &progress)?;
    out!("{}", render_analytics(&report));
    if let Some(path) = args.value("--json") {
        write_json(path, &report, "analytics report")?;
    }
    Ok(0)
}

/// `qubikos eval`.
pub fn eval_command(args: &[String]) -> CommandOutcome {
    let args = EVAL.parse(args)?;
    let threads = args.threads()?;
    let tools = args.tools()?;

    if let Some(dir) = args.value("--suite") {
        let store = SuiteStore::open(dir)?;
        let mut config = SuiteEvalConfig::default().with_threads(threads);
        config.tools = tools.unwrap_or(config.tools);
        let progress =
            StderrProgress::new(format!("evaluate {} (suite)", store.device().name()), 20);
        let outcome = run_suite_evaluation_with_sink(&store, &config, &progress)?;
        outln!("{}", render_evaluation(&outcome.report));
        eprintln!(
            "suite evaluation: {} (tool, circuit) pairs routed, {} served from cache",
            outcome.routed, outcome.cache_hits
        );
        return Ok(args.cache_policy(outcome.routed));
    }

    let devices = args
        .arch()?
        .map_or(DeviceKind::EVALUATION.to_vec(), |device| vec![device]);
    let mut reports = Vec::new();
    for device in devices {
        let mut config = if args.has("--full") {
            EvaluationConfig::paper(device)
        } else {
            EvaluationConfig::quick(device)
        }
        .with_threads(threads);
        config.tools = tools.clone().unwrap_or(config.tools);
        eprintln!(
            "running tool evaluation on {} ({} circuits, {} two-qubit gates each)...",
            device.name(),
            config.suite.total_circuits(),
            config.suite.two_qubit_gates
        );
        let progress = StderrProgress::new(format!("evaluate {}", device.name()), 20);
        let report = run_tool_evaluation(&config, &progress)?;
        outln!("{}", render_evaluation(&report));
        reports.push(report);
    }
    if reports.len() > 1 {
        outln!("{}", render_aggregate(&aggregate_by_tool(&reports)));
    }
    Ok(0)
}

/// `qubikos optimality`.
pub fn optimality_command(args: &[String]) -> CommandOutcome {
    let args = OPTIMALITY.parse(args)?;
    let config = if args.has("--full") {
        OptimalityConfig::paper()
    } else if args.has("--smoke") {
        OptimalityConfig::smoke()
    } else {
        OptimalityConfig::quick()
    }
    .with_threads(args.threads()?);

    let report = match args.value("--suite") {
        Some(dir) => {
            let store = SuiteStore::open(dir)?;
            eprintln!(
                "verifying {} stored circuits on {}...",
                store.total_instances(),
                store.device().name()
            );
            let progress = StderrProgress::new("optimality study (suite)".to_string(), 50);
            let outcome = run_suite_optimality_with_sink(&store, &config, &progress)?;
            eprintln!(
                "suite optimality: {} circuits verified, {} served from cache",
                outcome.verified, outcome.cache_hits
            );
            outcome.report
        }
        None => {
            eprintln!(
                "verifying {} circuits per device on {:?}...",
                config.suite.total_circuits(),
                config.devices.iter().map(|d| d.name()).collect::<Vec<_>>()
            );
            let progress = StderrProgress::new("optimality study".to_string(), 50);
            run_optimality_study(&config, &progress)?
        }
    };
    optimality_outcome(&report)
}

/// Prints an optimality report and maps it to the command's exit code.
fn optimality_outcome(report: &OptimalityReport) -> CommandOutcome {
    out!("{}", render_optimality(report));
    if let Some(line) = render_exact_wall_clock(report) {
        eprintln!("{line}");
    }
    if report.failures > 0 {
        eprintln!("ERROR: {} circuits failed verification", report.failures);
        return Ok(EXIT_VERIFY);
    }
    Ok(EXIT_OK)
}

/// `qubikos case-study`; `--decay` must be a finite number above 0.
pub fn case_study_command(args: &[String]) -> CommandOutcome {
    let args = CASE_STUDY.parse(args)?;
    let decay = args
        .value("--decay")
        .map_or(Ok(0.7), |value| match value.parse::<f64>() {
            Ok(decay) if decay.is_finite() && decay > 0.0 => Ok(decay),
            _ => Err(format!(
                "--decay: expected a finite number above 0, found `{value}`"
            )),
        })?;
    let threads = args.threads()?;
    // The lookahead effect the paper analyses only shows up once the padding
    // is dense enough to mislead the extended set, so the default run already
    // uses the paper's Aspen-4 gate budget (300 two-qubit gates).
    let (swap_counts, circuits): (Vec<usize>, usize) = if args.has("--full") {
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
        let outcome = run_case_study(&config, &NullSink)?;
        out!("{}", render_case_study(&outcome));
    }
    Ok(0)
}

/// `qubikos ablations`. Without `--grid`, the legacy hand-picked SABRE
/// sweeps; with `--grid`, the router construction kit's composition matrix
/// against a stored known-optimal suite.
pub fn ablations_command(args: &[String]) -> CommandOutcome {
    if args.iter().any(|arg| Some(arg.as_str()) == GRID.selector()) {
        return ablations_grid(&GRID.parse(args)?);
    }
    let args = SWEEPS.parse(args)?;
    let config = AblationConfig::paper().with_threads(args.threads()?);
    // One sink across all sweeps: each engine run restarts the progress
    // counter, so the multi-minute paper sweep streams per-run progress.
    let progress = StderrProgress::new("ablations".to_string(), 3);
    let report = run_ablations(&config, &progress)?;
    out!("{}", render_ablations(&report));
    Ok(0)
}

/// `qubikos ablations --grid`: enumerate the (pruned) composition
/// cross-product, rank it against a stored known-optimal suite through the
/// per-composition result cache, and render/export the ranking.
fn ablations_grid(args: &Args<'_>) -> CommandOutcome {
    let mut config = MatrixConfig::quick().with_threads(args.threads()?);
    if args.has("--full") {
        config.grid = crate::ablations::CompositionGrid::paper();
    }
    if let Some(max) = args.number("--max-compositions")? {
        if max == 0 {
            return Err("--max-compositions must be at least 1".into());
        }
        config = config.with_max_compositions(max);
    }

    // The dry run: print the pruned enumeration (what the matrix *would*
    // route) and exit without touching any suite.
    if args.has("--list-compositions") {
        let specs = config.compositions();
        outln!(
            "{} compositions ({} raw grid points before pruning)",
            specs.len(),
            config.grid.raw_combinations()
        );
        for spec in &specs {
            outln!("  {}", spec.id());
        }
        return Ok(EXIT_OK);
    }

    let dir = args.value("--suite").ok_or(
        "ablations --grid requires --suite DIR (the known-optimal corpus to rank \
         against; create one with `qubikos suite export`)",
    )?;
    let store = SuiteStore::open(dir)?;
    let progress = StderrProgress::new(format!("ablation matrix {}", store.device().name()), 20);
    let outcome = run_composition_matrix(&store, &config, &progress)?;
    out!("{}", render_composition_matrix(&outcome.report));
    eprintln!(
        "ablation matrix: {} (composition, circuit) pairs routed, {} served from cache",
        outcome.routed, outcome.cache_hits
    );
    if let Some(path) = args.value("--json") {
        write_json(path, &outcome.report, "composition matrix")?;
    }
    Ok(args.cache_policy(outcome.routed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The unit tests' stdout: `print!`, which the harness captures.
    pub(super) struct Printed;

    impl std::io::Write for Printed {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            print!("{}", String::from_utf8_lossy(buf));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A stdout whose reader is gone: every write fails with `kind`.
    struct ClosedPipe {
        kind: std::io::ErrorKind,
        writes: usize,
    }

    impl ClosedPipe {
        fn new(kind: std::io::ErrorKind) -> Self {
            ClosedPipe { kind, writes: 0 }
        }
    }

    impl std::io::Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            Err(self.kind.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.kind.into())
        }
    }

    #[test]
    fn a_closed_stdout_drops_the_rest_of_the_report() {
        let mut closed = Output::new(ClosedPipe::new(std::io::ErrorKind::BrokenPipe));
        closed
            .write(format_args!("line {}\n", 1))
            .expect("a closed pipe is no error");
        closed
            .write(format_args!("line {}\n", 2))
            .expect("a closed pipe is no error");
        assert!(closed.closed);
        assert_eq!(
            closed.sink.writes, 1,
            "nothing is written after the pipe closed"
        );
        // Any other write error is still a failure.
        let mut failing = Output::new(ClosedPipe::new(std::io::ErrorKind::PermissionDenied));
        failing
            .write(format_args!("line"))
            .expect_err("the write fails");
        assert!(!failing.closed);
        let mut open = Output::new(Vec::new());
        open.write(format_args!("{}\n", "line")).expect("written");
        assert_eq!(open.sink, b"line\n");
    }

    #[test]
    fn a_closed_stdout_keeps_the_commands_exit_code() {
        let closed = ClosedPipe::new(std::io::ErrorKind::BrokenPipe);
        let stdout = OUTPUT.replace(Output::new(Box::new(closed)));
        let report = |failures| OptimalityReport {
            circuits: 4,
            certified: 4 - failures,
            exactly_confirmed: 0,
            exact_budget_exceeded: 0,
            failures,
            exact_nodes: 0,
            exact_nodes_by_k: Vec::new(),
            exact_wall_micros: 0,
        };
        let failed = optimality_outcome(&report(2));
        let passed = optimality_outcome(&report(0));
        let help = dispatch(&args(&["help"]));
        let was_closed = OUTPUT.replace(stdout).closed;
        assert!(was_closed, "the report met the closed pipe");
        assert_eq!(failed.expect("no error"), EXIT_VERIFY);
        assert_eq!(passed.expect("no error"), EXIT_OK);
        assert_eq!(help.expect("no error"), EXIT_OK);
    }

    #[test]
    fn args_value_and_has() {
        let raw = args(&["--arch", "aspen4", "--full"]);
        let a = SUITE_EXPORT.parse(&raw).expect("declared flags");
        assert_eq!(a.value("--arch"), Some("aspen4"));
        assert_eq!(a.value("--out"), None);
        assert_eq!(a.value("--full"), None);
        assert!(a.has("--full"));
        assert!(!a.has("--smoke"));
    }

    #[test]
    fn a_valued_flags_value_may_not_be_a_flag() {
        let err = suite_export_command(&args(&["--arch", "grid", "--out", "--max-shards", "0"]))
            .expect_err("`--max-shards` is not a directory name");
        assert!(
            err.to_string().contains("found flag `--max-shards`"),
            "{err}"
        );
        assert!(!std::path::Path::new("--max-shards").exists());
    }

    #[test]
    fn repeated_flags_are_usage_errors() {
        let err = EVAL
            .parse(&args(&[
                "--arch",
                "grid",
                "--tools",
                "lightsabre",
                "--threads",
                "1",
                "--threads",
                "many",
            ]))
            .err()
            .expect("the second --threads must not be dropped");
        assert!(
            err.to_string()
                .contains("--threads is given more than once"),
            "{err}"
        );
        let raw = args(&[
            "--grid",
            "--list-compositions",
            "--max-compositions",
            "2",
            "--max-compositions",
            "0",
        ]);
        assert!(GRID.parse(&raw).is_err());
        assert!(ablations_command(&raw).is_err());
    }

    #[test]
    fn optimality_full_and_smoke_conflict() {
        let err = OPTIMALITY
            .parse(&args(&["--full", "--smoke"]))
            .err()
            .expect("neither preset may silently win");
        assert!(
            err.to_string()
                .contains("--full and --smoke cannot be combined"),
            "{err}"
        );
        assert!(OPTIMALITY.parse(&args(&["--smoke", "--full"])).is_err());
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
        // The documented contract: every class gets its own code.
        let codes = [EXIT_OK, EXIT_POLICY, EXIT_USAGE, EXIT_VERIFY];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
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
    fn unknown_flags_are_usage_errors_not_silent_no_ops() {
        // A removed flag: it must not run and write nothing.
        let err = eval_command(&args(&["--arch", "grid3x3", "--timing-json", "t.json"]))
            .expect_err("a removed flag must not be ignored");
        assert!(
            err.to_string().contains("unknown flag `--timing-json`"),
            "{err}"
        );
        // Likewise the removed exact-search wall-clock budget.
        let err = optimality_command(&args(&["--smoke", "--exact-deadline-ms", "0"]))
            .expect_err("a removed flag must not be ignored");
        assert!(
            err.to_string()
                .contains("unknown flag `--exact-deadline-ms`"),
            "{err}"
        );
        // A typo of `--threads`, whose value must not be taken for a flag.
        let err = eval_command(&args(&["--thread", "2"])).expect_err("typo");
        assert!(err.to_string().contains("unknown flag `--thread`"), "{err}");
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
            assert!(command(&args(&["--thread", "2"])).is_err());
            assert!(command(&args(&["stray"])).is_err());
        }
        assert!(
            ablations_command(&args(&["--grid", "--list-compositions", "--thread", "2"])).is_err()
        );
        // The legacy sweeps keep their more specific message.
        let err = ablations_command(&args(&["--json", "x.json"])).expect_err("grid-only");
        assert!(err.to_string().contains("add --grid"), "{err}");
    }

    #[test]
    fn eval_surfaces_store_errors_for_missing_suites() {
        let missing = std::env::temp_dir().join("qubikos-cli-definitely-missing");
        let arg_list = args(&["--suite", missing.to_str().expect("utf8 path")]);
        assert!(eval_command(&arg_list).is_err());
    }
}
