//! The unified QUBIKOS CLI: one entry point over every pipeline plus the
//! persistent suite store.
//!
//! ```text
//! qubikos suite export --arch aspen4 --out corpus      # persist a suite
//! qubikos suite verify --suite corpus                  # hashes + round trip
//! qubikos eval --suite corpus                          # cached evaluation
//! qubikos eval --suite corpus --require-cached         # assert warm cache
//! qubikos eval --arch aspen4                           # in-memory pipeline
//! qubikos optimality --smoke                           # §IV-A study
//! qubikos case-study --decay 0.5                       # §IV-C study
//! qubikos ablations --threads 8                        # design ablations
//! ```
//!
//! The command implementations live in [`qubikos_bench::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    qubikos_bench::cli::exit_with(qubikos_bench::cli::dispatch(&args));
}
