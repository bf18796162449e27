//! The QUBIKOS benchmark: three closed-loop workloads that time calls into the
//! workspace crates' public functions and check every output.
//!
//! ```text
//! perfbench --workload route --seed 1 --seconds 20 --trace 0 --out-dir .bench_build/perfbench
//! ```
//!
//! `perfbench/run.py` builds this binary and runs it with the same flags.
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics (the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`). The lines before it carry the
//! provenance stamp, per-class latency rows and per-layer tables.

mod corpus;
mod exact;
mod harness;
mod layers;
mod metrics;
mod route;
mod stats;
mod trace;

use harness::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::Tracer;

/// Environment variables that change the program under test.
const FORBIDDEN_ENV: [&str; 2] = ["QUBIKOS_ORACLE_ROWS", "QUBIKOS_CHAOS_SEEDS"];

/// The most engine worker threads the corpus workloads use.
const MAX_THREADS: usize = 2;

/// Failure messages printed before the result line.
const SHOWN_FAILURES: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
        out_dir: PathBuf::from(value("--out-dir")?),
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "route" => route::run(ctx),
        "exact" => exact::run(ctx),
        "corpus-cold" => corpus::run(ctx),
        _ => return None,
    })
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mount_point = line.split(' ').nth(4)?;
            let fs_type = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs_type)| fs_type)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Commit, toolchain, cores, threads and corpus filesystem of this run.
fn provenance(args: &Args, threads: usize, nproc: usize) -> String {
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{commit}\", \
         \"rustc\": \"{rustc}\", \"nproc\": {nproc}, \"threads\": {threads}, \"corpus_fs\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        filesystem_of(&args.out_dir)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload route|exact|corpus-cold --seed N --seconds N \
                 --trace 0|1 --out-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!("perfbench: refusing to run with {var} set: it changes the program under test");
        return ExitCode::from(2);
    }
    if let Err(error) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {error}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(MAX_THREADS);
    let ctx = Ctx {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        threads,
        work_dir: args
            .out_dir
            .join(format!("work-{}-{}", args.workload, std::process::id())),
        tracer: Tracer::new(args.trace),
        spans_path: args
            .out_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed)),
        untraced: Tracer::new(false),
    };
    println!("{}", provenance(&args, threads, nproc));
    let Some(outcome) = run_workload(&args.workload, &ctx) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    for line in &outcome.report {
        println!("{line}");
    }
    let failures: Vec<&String> = outcome
        .run_failures
        .iter()
        .chain(&outcome.tally.messages)
        .collect();
    for message in failures.iter().take(SHOWN_FAILURES) {
        println!("FAILED: {message}");
    }
    if failures.len() > SHOWN_FAILURES {
        println!("FAILED: ... {} more", failures.len() - SHOWN_FAILURES);
    }
    let schema: Vec<(String, &str)> = if args.trace {
        metrics::per_layer_metrics()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    let mut values: BTreeMap<String, f64> = outcome.metrics;
    if args.trace {
        // A layer the workload does not reach reads 0.
        for (name, _) in &schema {
            values.entry(name.clone()).or_insert(0.0);
        }
    }
    if let Some((missing, _)) = schema.iter().find(|(name, _)| !values.contains_key(name)) {
        eprintln!("perfbench: no result: {missing} was not measured");
        return ExitCode::FAILURE;
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, &outcome.tally, &schema, &values)
    );
    ExitCode::SUCCESS
}
