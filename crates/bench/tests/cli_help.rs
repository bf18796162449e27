//! Pins the exact text `qubikos help` prints, so a change to how the usage
//! text is built shows up as a diff against this literal.

/// The full `qubikos help` output, without the trailing newline.
const HELP: &str = r#"qubikos — the QUBIKOS benchmark and evaluation pipeline

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
      §IV-A optimality study. With --suite, verifies the stored corpus,
      consulting/filling the results/optimality cache; --full/--smoke
      apply only to in-memory runs (the manifest fixes the suite shape).
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
  3  verify  — completed, but verification or optimality failures were found"#;

#[test]
fn help_text_is_pinned() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qubikos"))
        .arg("help")
        .output()
        .expect("run qubikos help");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 help text");
    assert_eq!(stdout, format!("{HELP}\n"));
}
